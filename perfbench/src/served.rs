//! The served path: `mjoin_cli serve` with default settings in its own
//! process, driven over loopback by this process with closed-loop clients.
//!
//! Each request's clock starts when its line is written and stops when the
//! last byte of its response line arrives; parsing and answer checks happen
//! after that.

use crate::check::{Checker, Seen};
use crate::inputs::{Workload, CATALOG};
use mjoin::serve::Value as J;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A running server process. Dropping it kills the process and waits.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    pub fn spawn(cli: &Path) -> Result<Server, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("serve: listening on ")
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?
            .to_string();
        Ok(server)
    }

    /// The server's resident set size in kB, from `/proc`.
    pub fn rss_kb(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmRSS in the server's /proc status".to_string())
    }

    /// The server's minor page faults so far, from `/proc`.
    pub fn minflt(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading the server's /proc stat: {e}"))?;
        // Fields after the parenthesised command name; minflt is the 10th
        // field of the line, the 8th after the name.
        stat.rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(7))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "no minflt in the server's /proc stat".to_string())
    }

    /// Ask the server to drain and stop, then wait for the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send("{\"cmd\":\"shutdown\"}\n")?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not stop within 20 s of `shutdown`".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last response line, newline included.
    pub buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Send one request line (newline included) and wait for the whole
    /// response line; returns the request's latency.
    pub fn send(&mut self, line: &str) -> Result<Duration, String> {
        self.buf.clear();
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reader
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        let took = start.elapsed();
        if self.buf.last() != Some(&b'\n') {
            return Err("the server closed the connection".into());
        }
        Ok(took)
    }
}

/// The request lines that set the server up: one `load` per relation, then
/// the `compile` of the prepared program, if any.
pub fn setup_lines(w: &Workload) -> Vec<String> {
    let mut lines: Vec<String> = w
        .tables
        .iter()
        .map(|t| {
            let req = J::obj()
                .set("cmd", J::str("load"))
                .set("catalog", J::str(CATALOG))
                .set("name", J::str(t.name.as_str()))
                .set("tsv", J::Str(t.tsv()));
            format!("{}\n", req.render())
        })
        .collect();
    if let Some(p) = &w.prepared {
        let req = J::obj()
            .set("cmd", J::str("compile"))
            .set("catalog", J::str(CATALOG))
            .set("name", J::str(p.name))
            .set("program", J::str(p.text.as_str()));
        lines.push(format!("{}\n", req.render()));
    }
    lines
}

/// Spawn a server and set it up; the clock stops when the first request
/// can be sent.
pub fn set_up(cli: &Path, lines: &[String]) -> Result<(Server, Duration), String> {
    let start = Instant::now();
    let server = Server::spawn(cli)?;
    let mut conn = Conn::open(&server.addr)?;
    for line in lines {
        conn.send(line)?;
        if !conn.buf.starts_with(b"{\"ok\":true") {
            return Err(format!(
                "set-up request failed: {}",
                String::from_utf8_lossy(&conn.buf).trim_end()
            ));
        }
    }
    Ok((server, start.elapsed()))
}

/// Counts and observations from a stretch of checked requests.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each request, in send order.
    pub latencies: Vec<Duration>,
    /// The first and the last `cache` counters seen.
    pub cache: Option<((u64, u64), (u64, u64))>,
    /// The first error seen, for the log.
    pub first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, took: Duration, seen: Result<Seen, String>) {
        self.attempted += 1;
        self.latencies.push(took);
        match seen {
            Ok(seen) => {
                if let Some(c) = seen.cache {
                    let first = self.cache.map_or(c, |(f, _)| f);
                    self.cache = Some((first, c));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        if let Some((_, last)) = other.cache {
            let first = self
                .cache
                .map_or_else(|| other.cache.map(|(f, _)| f), |(f, _)| Some(f));
            self.cache = first.map(|f| (f, last));
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Send `n` requests of the round-robin on one connection, starting at
/// round position `offset`, checking every response.
pub fn closed_loop(
    conn: &mut Conn,
    w: &Workload,
    checker: &mut Checker<'_>,
    n: usize,
    offset: usize,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for i in 0..n {
        let idx = (offset + i) % w.round.len();
        let took = conn.send(&w.round[idx].line)?;
        tally.record(took, checker.check(idx, &conn.buf));
    }
    Ok(tally)
}

/// Completed requests per second on the open connections `conns`, each
/// sending its share of `n` requests in a closed loop; and the merged tally.
/// The connections are opened beforehand, so the server's accept loop is
/// not on the clock.
pub fn throughput(conns: &mut [Conn], w: &Workload, n: usize) -> Result<(f64, Tally), String> {
    let k = conns.len();
    let barrier = Barrier::new(k + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Tally, String> {
                    let mut checker = Checker::new(&w.round);
                    barrier.wait();
                    let share = n / k + usize::from(c < n % k);
                    closed_loop(conn, w, &mut checker, share, c)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut total = Tally::default();
        let mut error = None;
        for worker in workers {
            match worker.join().expect("client thread panicked") {
                Ok(t) => total.merge(t),
                Err(e) => error = Some(e),
            }
        }
        let wall = start.elapsed().as_secs_f64();
        match error {
            Some(e) => Err(e),
            None => Ok((total.attempted as f64 / wall, total)),
        }
    })
}
