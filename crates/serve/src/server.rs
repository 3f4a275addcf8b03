//! The resident server: TCP accept loop, session threads, shared warm
//! state, and certificate-gated admission control.
//!
//! One process holds named catalogs of loaded relations and compiled
//! programs, plus a single process-wide [`SharedIndexCache`] so the
//! build-side join indices one request constructs are warm for the next —
//! across sessions, not just across statements. Every `run`/`query` is
//! admission-checked *before* execution: the Theorem-2 certificate is
//! evaluated against the resident catalog's cardinalities
//! ([`mjoin_analyze::admission_report`]), and a request whose certified
//! per-statement bound exceeds `--max-cost` is rejected with the offending
//! statement and bound — it never reaches an operator. Admitted requests
//! pass through a bounded-FIFO capacity gate that keeps the *sum* of
//! in-flight certified peaks under the same budget, so concurrent sessions
//! cannot multiply past it.
//!
//! Shutdown is cooperative: the `shutdown` command raises a flag, the
//! accept loop (blocked in `accept`, woken by one loopback connect) stops,
//! sessions finish their in-flight request (deadlines still apply), and the
//! worker pool is parked before `run` returns.

use crate::json::Value as J;
use crate::protocol::{err, err_with, ok, Request};
use mjoin_analyze::{admission_report, memory_report, AdmissionReport, AnalysisCx, Certificate};
use mjoin_core::derive;
use mjoin_cq::{
    execute_query_with, parse_query, query_agm_bound, ExecOptions as CqExecOptions,
    MinimizeSummary, NamedDatabase, PlanStrategy,
};
use mjoin_hypergraph::DbScheme;
use mjoin_optimizer::{greedy, optimize, EstimateOracle, SearchSpace};
use mjoin_program::{
    display, parse_program, try_execute_with, CancelToken, ExecConfig, IndexCache, Program,
    SharedIndexCache,
};
use mjoin_relation::{tsv, AttrSet, Catalog, CostLedger, Database, Relation, Schema};
use mjoin_trace as trace;
use mjoin_wcoj::{select, wcoj_join, ExecutorKind, Selection};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a session blocks in one read attempt before re-checking the
/// shutdown flag. Lines are read as raw bytes (`read_until`), which keeps
/// every byte already appended when the timeout fires — `read_line` would
/// discard a partial chunk if the tick landed mid multi-byte UTF-8
/// character — so slow writers are safe even with non-ASCII payloads.
const READ_TICK: Duration = Duration::from_millis(250);

/// Capacity a session's reply buffer keeps between requests: one large
/// answer does not pin its size for the rest of the session.
const REPLY_BUF_KEEP: usize = 1 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` picks a free port
    /// (read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads per request (`1` = sequential interpreter).
    pub threads: usize,
    /// Admission budget: reject any request whose certified per-statement
    /// bound exceeds this; keep the sum of in-flight certified peaks under
    /// it. `None` disables admission control and the gate.
    pub max_cost: Option<u64>,
    /// Bounded-FIFO depth for requests waiting on the capacity gate.
    pub queue_depth: usize,
    /// Shared index-cache budget in resident tuples.
    pub cache_budget_tuples: u64,
    /// Shared index-cache budget in resident bytes.
    pub cache_budget_bytes: u64,
    /// Memory admission budget in bytes: reject any `run`/`query` program
    /// whose statically certified peak-resident bytes
    /// ([`mjoin_analyze::memory_report`]) exceed this. `cq` queries are
    /// not rejected — their per-component programs instead route
    /// over-budget join build sides through the Grace-hash spill path.
    /// `None` disables both.
    pub mem_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_cost: None,
            queue_depth: 16,
            cache_budget_tuples: 4 << 20,
            cache_budget_bytes: 256 << 20,
            mem_budget: None,
        }
    }
}

/// A program compiled against a catalog, kept resident for reuse.
struct CompiledProgram {
    program: Program,
    scheme: DbScheme,
}

/// One named server-side catalog: interned attribute names, loaded
/// relations, compiled programs. All three share the catalog's attribute
/// ids, so relations match scheme edges by [`AttrSet`] equality.
#[derive(Default)]
struct CatalogEntry {
    catalog: Catalog,
    relations: Vec<(String, Relation)>,
    programs: HashMap<String, CompiledProgram>,
}

/// Why the capacity gate refused a request.
enum GateErr {
    /// The bounded FIFO is full.
    QueueFull,
    /// The request's deadline expired while it was queued.
    Deadline,
    /// The server is shutting down.
    ShuttingDown,
}

#[derive(Default)]
struct GateState {
    /// Sum of admitted requests' certified peak bounds.
    in_use: u64,
    /// Tickets waiting for capacity, in arrival order.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Capacity gate: admits requests FIFO while the sum of their certified
/// peak bounds stays within the budget. A single request whose own peak
/// exceeds the budget never reaches the gate — admission rejects it first —
/// so the head of the queue always fits once the server drains.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    budget: Option<u64>,
    queue_depth: usize,
}

/// Releases the permit's share of the gate budget on drop, even if the
/// request panics mid-execution.
struct Permit<'a> {
    gate: &'a Gate,
    cost: u64,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self.cost == 0 && self.gate.budget.is_none() {
            return;
        }
        let mut st = lock(&self.gate.state);
        st.in_use = st.in_use.saturating_sub(self.cost);
        drop(st);
        self.gate.cv.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Gate {
    fn new(budget: Option<u64>, queue_depth: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            budget,
            queue_depth,
        }
    }

    /// Acquire capacity `cost`, waiting in FIFO order. `deadline` bounds
    /// the wait; `shutdown` aborts it.
    fn acquire(
        &self,
        cost: u64,
        deadline: Option<Instant>,
        shutdown: &AtomicBool,
    ) -> Result<Permit<'_>, GateErr> {
        let Some(budget) = self.budget else {
            return Ok(Permit {
                gate: self,
                cost: 0,
            });
        };
        let mut st = lock(&self.state);
        if st.queue.len() >= self.queue_depth {
            return Err(GateErr::QueueFull);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let mut waited = false;
        loop {
            if shutdown.load(Ordering::Relaxed) {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                self.cv.notify_all();
                return Err(GateErr::ShuttingDown);
            }
            let at_head = st.queue.front() == Some(&ticket);
            if at_head && (st.in_use == 0 || st.in_use.saturating_add(cost) <= budget) {
                st.queue.pop_front();
                st.in_use = st.in_use.saturating_add(cost);
                drop(st);
                if waited {
                    trace::add("serve.queue_wait", 1);
                }
                return Ok(Permit { gate: self, cost });
            }
            waited = true;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                self.cv.notify_all();
                return Err(GateErr::Deadline);
            }
            // Short ticks so shutdown and deadlines are observed promptly
            // even when no release wakes the condvar.
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    cfg: ServeConfig,
    catalogs: Mutex<HashMap<String, CatalogEntry>>,
    cache: SharedIndexCache,
    gate: Gate,
    /// Cumulative drained counters (`index_cache.*`, `serve.*`) summed
    /// across every request the process has served. Span events are
    /// dropped at the drain — nothing here reads them — so the totals stay
    /// the same size however long the server runs.
    totals: Mutex<trace::Trace>,
    shutdown: AtomicBool,
    /// Where the listener accepts (loopback when it listens on every
    /// interface): `shutdown` connects here once to wake the blocking
    /// accept.
    wake_addr: SocketAddr,
    in_flight: AtomicU64,
    started: Instant,
}

impl Shared {
    /// Drain the process trace sink, fold its counters into the cumulative
    /// totals and drop its span events; returns the locked totals.
    fn fold_trace(&self) -> MutexGuard<'_, trace::Trace> {
        let drained = trace::take();
        let mut totals = lock(&self.totals);
        totals.merge(trace::Trace {
            events: Vec::new(),
            counters: drained.counters,
        });
        totals
    }

    /// Raise the shutdown flag and wake everything that waits on it: the
    /// capacity gate's queue and the accept loop, which blocks in `accept`
    /// until one loopback connection arrives.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.gate.cv.notify_all();
        let _ = TcpStream::connect(self.wake_addr);
    }

    fn lock_cache(&self) -> MutexGuard<'_, IndexCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-session §2.3 ledger: cumulative input + generated tuple counts over
/// every request the session has executed.
#[derive(Default)]
struct SessionLedger {
    requests: u64,
    inputs: u64,
    generated: u64,
}

/// The resident query server. Bind, then [`run`](Server::run) — it returns
/// after a client sends `shutdown` and all in-flight work drains.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket. The server is not serving until
    /// [`run`](Server::run).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            cache: IndexCache::shared(cfg.cache_budget_tuples, cfg.cache_budget_bytes),
            gate: Gate::new(cfg.max_cost, cfg.queue_depth),
            cfg,
            catalogs: Mutex::new(HashMap::new()),
            totals: Mutex::new(trace::Trace::default()),
            shutdown: AtomicBool::new(false),
            wake_addr,
            in_flight: AtomicU64::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a client sends `shutdown`: accept sessions, drain
    /// in-flight requests on shutdown, park the worker pool, return.
    pub fn run(self) -> std::io::Result<()> {
        trace::set_enabled(true);
        let mut sessions = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            // Blocking accept: a new connection is served at once, and
            // `shutdown` wakes this call with a loopback connect that the
            // flag check below turns away.
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || session(&shared, stream)));
            sessions.retain(|h| !h.is_finished());
        }
        // Drain: sessions observe the flag within one read tick once their
        // in-flight request (if any) completes.
        self.shared.gate.cv.notify_all();
        for h in sessions {
            let _ = h.join();
        }
        mjoin_pool::quiesce(Duration::from_secs(5));
        Ok(())
    }
}

/// One connected client: line-in, line-out until EOF or shutdown.
fn session(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    trace::add("serve.session_open", 1);
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut ledger = SessionLedger::default();
    let mut line: Vec<u8> = Vec::new();
    let mut reply: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                let complete = line.last() == Some(&b'\n');
                // Decode once, only now that the full line has arrived —
                // partial reads above never touch UTF-8 boundaries.
                let request = match std::str::from_utf8(&line) {
                    Ok(s) => s.trim_end().to_string(),
                    Err(_) => {
                        line.clear();
                        trace::add("serve.protocol_error", 1);
                        let resp = err("protocol", "request line is not valid UTF-8");
                        if send(&mut writer, &mut reply, &resp).is_err() || !complete {
                            break;
                        }
                        continue;
                    }
                };
                line.clear();
                if !request.is_empty() {
                    let resp = dispatch(shared, &request, &mut ledger);
                    if send(&mut writer, &mut reply, &resp).is_err() {
                        break;
                    }
                }
                // `Ok(n)` without a trailing newline means EOF cut the
                // final line short; we served it, now hang up.
                if !complete {
                    break;
                }
            }
            // Timeout: every byte read so far stays appended in `line` —
            // loop to re-check the shutdown flag and keep accumulating.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    trace::add("serve.session_close", 1);
}

/// Send one reply line: render `resp` into the session's reused `buf`
/// (empty between calls) and hand the socket the whole line in a single
/// write.
fn send(writer: &mut impl Write, buf: &mut Vec<u8>, resp: &J) -> std::io::Result<()> {
    resp.render_into(buf);
    buf.push(b'\n');
    let sent = writer.write_all(buf);
    buf.clear();
    buf.shrink_to(REPLY_BUF_KEEP);
    sent
}

/// Parse and route one request line.
fn dispatch(shared: &Shared, request_line: &str, ledger: &mut SessionLedger) -> J {
    let req = match Request::parse(request_line) {
        Ok(r) => r,
        Err(e) => {
            trace::add("serve.protocol_error", 1);
            return err("protocol", e);
        }
    };
    if shared.shutdown.load(Ordering::Relaxed) {
        return err("shutting_down", "server is draining; no new requests");
    }
    trace::add("serve.request", 1);
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let resp = match req {
        Request::Ping => ok("ping"),
        Request::Load { catalog, name, tsv } => handle_load(shared, &catalog, name, &tsv),
        Request::Compile {
            catalog,
            name,
            program,
            scheme,
        } => handle_compile(shared, &catalog, &name, &program, scheme.as_deref()),
        Request::Run {
            catalog,
            name,
            program,
            scheme,
            deadline_ms,
            tsv,
        } => handle_run(
            shared,
            &catalog,
            name.as_deref(),
            program.as_deref(),
            scheme.as_deref(),
            deadline_ms,
            tsv,
            ledger,
        ),
        Request::Query {
            catalog,
            cq,
            optimizer,
            executor,
            minimize,
            deadline_ms,
            tsv,
        } => match cq {
            Some(cq) => handle_cq_query(
                shared,
                &catalog,
                &cq,
                optimizer.as_deref(),
                executor.as_deref(),
                minimize,
                tsv,
            ),
            None => handle_query(
                shared,
                &catalog,
                optimizer.as_deref(),
                executor.as_deref(),
                deadline_ms,
                tsv,
                ledger,
            ),
        },
        Request::Explain {
            catalog,
            name,
            program,
            cq,
            scheme,
            minimize,
        } => match cq {
            Some(cq) => handle_cq_explain(shared, &catalog, &cq, minimize),
            None => handle_explain(
                shared,
                &catalog,
                name.as_deref(),
                program.as_deref(),
                scheme.as_deref(),
            ),
        },
        Request::Stats => handle_stats(shared, ledger),
        Request::Shutdown => {
            shared.begin_shutdown();
            trace::add("serve.shutdown", 1);
            ok("shutdown").set(
                "draining",
                J::u64(shared.in_flight.load(Ordering::Relaxed) - 1),
            )
        }
    };
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // Drain the trace sink after every request, not only when a reply
    // reports counters: `cq`-only traffic would otherwise grow it forever.
    drop(shared.fold_trace());
    resp
}

fn handle_load(shared: &Shared, catalog: &str, name: Option<String>, text: &str) -> J {
    // Parse against a catalog *snapshot* with the lock released — a large
    // TSV payload must not stall every other session's resolve/load/
    // compile — then re-validate the interned header ids under the lock.
    let mut snapshot = {
        let mut catalogs = lock(&shared.catalogs);
        catalogs
            .entry(catalog.to_string())
            .or_default()
            .catalog
            .clone()
    };
    let parsed = match tsv::relation_from_tsv_reader(&mut snapshot, text.as_bytes()) {
        Ok(r) => r,
        Err(e) => return err("data", format!("bad TSV: {e}")),
    };
    // Pay the structural fingerprint and the column view once at load time
    // (also outside the lock): clones handed to each run inherit both, so
    // cross-session index-cache peeks don't re-hash a large resident
    // relation and per-request catalog snapshots share its columns.
    parsed.fingerprint();
    parsed.columns();
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs.entry(catalog.to_string()).or_default();
    // Fresh ids are assigned sequentially and schema attrs are sorted, so
    // replaying the header names in ascending-id order reproduces the
    // snapshot's assignments — unless a concurrent load interned other
    // attributes in between, in which case the snapshot's ids are stale
    // and the (rare) parse is redone under the lock against the live
    // catalog.
    let consistent = parsed
        .schema()
        .attrs()
        .iter()
        .all(|&id| entry.catalog.intern(snapshot.name(id)) == id);
    let rel = if consistent {
        parsed
    } else {
        match tsv::relation_from_tsv_reader(&mut entry.catalog, text.as_bytes()) {
            Ok(r) => {
                r.fingerprint();
                r.columns();
                r
            }
            Err(e) => return err("data", format!("bad TSV: {e}")),
        }
    };
    let name = name.unwrap_or_else(|| format!("r{}", entry.relations.len()));
    if entry.relations.iter().any(|(n, _)| *n == name) {
        return err("data", format!("relation `{name}` already loaded"));
    }
    let rows = rel.len();
    let attrs = format!("{}", rel.schema().display(&entry.catalog));
    entry.relations.push((name.clone(), rel));
    trace::add("serve.load", 1);
    ok("load")
        .set("catalog", J::str(catalog))
        .set("name", J::Str(name))
        .set("rows", J::u64(rows as u64))
        .set("attrs", J::Str(attrs))
        .set("relations", J::u64(entry.relations.len() as u64))
}

/// Parse a scheme string (`"AB,BC"`) into the entry's catalog, or fall
/// back to the program text's `# scheme:` directive.
fn parse_scheme(
    catalog: &mut Catalog,
    scheme: Option<&str>,
    program_text: &str,
) -> Result<DbScheme, J> {
    let text = match scheme {
        Some(s) => s.to_string(),
        None => program_text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("# scheme:"))
            .map(|s| s.trim().to_string())
            .next()
            .ok_or_else(|| {
                err(
                    "parse",
                    "program has no `# scheme: AB,BC,…` directive; pass `scheme`",
                )
            })?,
    };
    let parts: Vec<&str> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if parts.is_empty() {
        return Err(err("parse", format!("empty scheme `{text}`")));
    }
    Ok(DbScheme::parse(catalog, &parts))
}

fn handle_compile(
    shared: &Shared,
    catalog: &str,
    name: &str,
    text: &str,
    scheme: Option<&str>,
) -> J {
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs.entry(catalog.to_string()).or_default();
    let scheme = match parse_scheme(&mut entry.catalog, scheme, text) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let program = match parse_program(&entry.catalog, &scheme, text) {
        Ok(p) => p,
        Err(e) => return err("parse", e.to_string()),
    };
    let statements = program.len();
    let rendered = display::render(&program, &scheme, &entry.catalog);
    let scheme_text = format!("{}", scheme.display(&entry.catalog));
    entry
        .programs
        .insert(name.to_string(), CompiledProgram { program, scheme });
    trace::add("serve.compile", 1);
    ok("compile")
        .set("catalog", J::str(catalog))
        .set("name", J::str(name))
        .set("statements", J::u64(statements as u64))
        .set("scheme", J::Str(scheme_text))
        .set("program", J::Str(rendered))
}

/// Everything a `run`/`explain` needs once the catalog lock is dropped:
/// the program, its scheme, the relations matched to the scheme's edges,
/// and a catalog snapshot for rendering.
struct Resolved {
    program: Program,
    scheme: DbScheme,
    db: Database,
    catalog: Catalog,
}

/// Look up (or inline-parse) a program and line the entry's loaded
/// relations up with its scheme edges by attribute set.
fn resolve(
    shared: &Shared,
    catalog_name: &str,
    name: Option<&str>,
    program_text: Option<&str>,
    scheme_text: Option<&str>,
) -> Result<Resolved, J> {
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs
        .get_mut(catalog_name)
        .ok_or_else(|| err("not_found", format!("no catalog `{catalog_name}`")))?;
    let (program, scheme) = if let Some(n) = name {
        let c = entry
            .programs
            .get(n)
            .ok_or_else(|| err("not_found", format!("no compiled program `{n}`")))?;
        (c.program.clone(), c.scheme.clone())
    } else {
        let text = program_text.expect("protocol guarantees name xor program");
        let scheme = parse_scheme(&mut entry.catalog, scheme_text, text)?;
        let program = parse_program(&entry.catalog, &scheme, text)
            .map_err(|e| err("parse", e.to_string()))?;
        (program, scheme)
    };
    let db = match_relations(entry, &scheme)?;
    Ok(Resolved {
        program,
        scheme,
        db,
        catalog: entry.catalog.clone(),
    })
}

/// Match loaded relations to scheme edges by attribute set (the same rule
/// as the CLI's `load_db_for_scheme`): order-independent, every edge needs
/// exactly one relation.
fn match_relations(entry: &CatalogEntry, scheme: &DbScheme) -> Result<Database, J> {
    let mut taken = vec![false; entry.relations.len()];
    let mut relations = Vec::with_capacity(scheme.num_relations());
    for i in 0..scheme.num_relations() {
        let want = scheme.attrs_of(i);
        let found = entry.relations.iter().enumerate().find(|(j, (_, rel))| {
            !taken[*j] && AttrSet::from_iter_ids(rel.schema().attrs().iter().copied()) == *want
        });
        match found {
            Some((j, (_, rel))) => {
                taken[j] = true;
                relations.push(rel.clone());
            }
            None => {
                return Err(err(
                    "data",
                    format!(
                        "no loaded relation matches scheme edge {} ({})",
                        i,
                        Schema::from_set(want).display(&entry.catalog)
                    ),
                ))
            }
        }
    }
    Ok(Database::from_relations(relations))
}

/// Admission check: certificate + interval bounds against the resident
/// cardinalities. `Err` is the rejection response — the request never
/// reaches an operator.
fn admit(shared: &Shared, r: &Resolved) -> Result<AdmissionReport, J> {
    let cx = match AnalysisCx::new(&r.program, &r.scheme, &r.catalog) {
        Ok(cx) => cx,
        Err(e) => return Err(err("data", e.to_string())),
    };
    let seeds: Vec<u64> = r.db.relations().iter().map(|x| x.len() as u64).collect();
    let report = admission_report(&cx, &seeds);
    if let Some(budget) = shared.cfg.max_cost {
        if let Some(v) = report.violation(budget) {
            trace::add("serve.admission_reject", 1);
            let mut extra = vec![
                ("stmt".to_string(), J::u64(v.stmt as u64)),
                ("kind_of_stmt".to_string(), J::str(v.kind)),
                ("bound".to_string(), J::u64(v.bound)),
                ("budget".to_string(), J::u64(budget)),
                ("symbolic".to_string(), J::Str(v.symbolic.clone())),
            ];
            if let Some(x) = &v.excerpt {
                extra.push(("excerpt".to_string(), J::Str(x.clone())));
            }
            return Err(err_with(
                "admission",
                format!(
                    "certified bound {} for statement {} exceeds --max-cost {}",
                    v.bound, v.stmt, budget
                ),
                extra,
            ));
        }
    }
    if let Some(budget) = shared.cfg.mem_budget {
        let mem = memory_report(&cx, &seeds);
        if let Some(v) = mem.violation(budget) {
            trace::add("serve.admission_reject", 1);
            let mut extra = vec![
                ("stmt".to_string(), J::u64(v.stmt as u64)),
                ("kind_of_stmt".to_string(), J::str(v.kind)),
                ("peak_bytes".to_string(), J::u64(v.peak_bytes)),
                ("mem_budget".to_string(), J::u64(budget)),
                ("symbolic".to_string(), J::Str(v.symbolic.clone())),
            ];
            if let Some(x) = &v.excerpt {
                extra.push(("excerpt".to_string(), J::Str(x.clone())));
            }
            return Err(err_with(
                "admission",
                format!(
                    "certified memory peak {} bytes for statement {} exceeds --mem-budget {}",
                    v.peak_bytes, v.stmt, budget
                ),
                extra,
            ));
        }
    }
    Ok(report)
}

/// Acquire the capacity gate for `cost`, mapping each refusal to its
/// protocol error. Shared by the program and WCOJ execution paths.
fn acquire_permit<'a>(
    shared: &'a Shared,
    cost: u64,
    deadline: Option<Instant>,
) -> Result<Permit<'a>, J> {
    match shared.gate.acquire(cost, deadline, &shared.shutdown) {
        Ok(p) => Ok(p),
        Err(GateErr::QueueFull) => {
            trace::add("serve.queue_reject", 1);
            Err(err_with(
                "queue_full",
                "admission queue is full; retry later",
                vec![(
                    "queue_depth".to_string(),
                    J::u64(shared.cfg.queue_depth as u64),
                )],
            ))
        }
        Err(GateErr::Deadline) => {
            trace::add("serve.deadline_cancel", 1);
            Err(err(
                "deadline",
                "deadline expired while queued for capacity",
            ))
        }
        Err(GateErr::ShuttingDown) => {
            Err(err("shutting_down", "server is draining; no new requests"))
        }
    }
}

/// Gate + execute an admitted program; shared by `run` and `query`.
fn execute_admitted(
    shared: &Shared,
    r: &Resolved,
    report: &AdmissionReport,
    deadline_ms: Option<u64>,
    want_tsv: bool,
    ledger: &mut SessionLedger,
    response: J,
) -> J {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let _permit = match acquire_permit(shared, report.peak, deadline) {
        Ok(p) => p,
        Err(e) => return e,
    };
    let cancel = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let cfg = ExecConfig {
        threads: shared.cfg.threads,
        cache: Some(Arc::clone(&shared.cache)),
        cancel: Some(cancel),
        // Admission already proved the certified peak fits the budget (a
        // build side is never larger than its statement's peak, so an
        // admitted program needs no spill plan).
        mem_budget: shared.cfg.mem_budget,
        ..ExecConfig::default()
    };
    trace::add("serve.run", 1);
    let out = match try_execute_with(&r.program, &r.db, &cfg) {
        Ok(out) => out,
        Err(c) => {
            trace::add("serve.deadline_cancel", 1);
            return err_with(
                "deadline",
                format!("{c}"),
                vec![("at_stmt".to_string(), J::u64(c.at_stmt as u64))],
            );
        }
    };
    render_outcome(
        shared,
        r,
        &out.result,
        &out.ledger,
        want_tsv,
        ledger,
        response,
    )
}

/// Gate + execute a query on the worst-case-optimal executor. The gate
/// cost is the AGM bound — the certified output bound for generic join.
/// The deadline still bounds the queue wait, but a WCOJ execution is not
/// cancellable mid-join (there is no per-statement boundary to observe a
/// token at).
fn execute_wcoj(
    shared: &Shared,
    r: &Resolved,
    gate_cost: u64,
    deadline_ms: Option<u64>,
    want_tsv: bool,
    ledger: &mut SessionLedger,
    response: J,
) -> J {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let _permit = match acquire_permit(shared, gate_cost, deadline) {
        Ok(p) => p,
        Err(e) => return e,
    };
    trace::add("serve.run", 1);
    trace::add("serve.wcoj_run", 1);
    let result = wcoj_join(&r.scheme, &r.db, Some(&shared.cache));
    let mut cost = CostLedger::new();
    for (i, rel) in r.db.relations().iter().enumerate() {
        cost.charge_input(format!("input {i}"), rel.len());
    }
    cost.charge_generated("wcoj join", result.len());
    render_outcome(shared, r, &result, &cost, want_tsv, ledger, response)
}

/// Build the success payload for an executed request: result size (and
/// optionally the TSV), the §2.3 ledger, and warm-cache counters.
fn render_outcome(
    shared: &Shared,
    r: &Resolved,
    result: &Relation,
    cost: &CostLedger,
    want_tsv: bool,
    ledger: &mut SessionLedger,
    response: J,
) -> J {
    ledger.requests += 1;
    ledger.inputs += cost.input_total();
    ledger.generated += cost.generated_total();
    let mut resp = response
        .set("rows", J::u64(result.len() as u64))
        .set(
            "ledger",
            J::obj()
                .set("inputs", J::u64(cost.input_total()))
                .set("generated", J::u64(cost.generated_total()))
                .set("total", J::u64(cost.total()))
                .set("session_total", J::u64(ledger.inputs + ledger.generated)),
        )
        .set("cache", cache_stats(shared));
    if want_tsv {
        match J::str_streamed(|w| tsv::relation_to_tsv_writer(&r.catalog, result, w)) {
            Ok(text) => resp = resp.set("tsv", text),
            Err(e) => return err("data", format!("rendering result: {e}")),
        }
    }
    resp
}

/// Warm-state snapshot: cumulative hit/miss counters plus current
/// residency of the process-wide index cache.
fn cache_stats(shared: &Shared) -> J {
    let (entries, tuples, bytes) = {
        let c = shared.lock_cache();
        (c.entries(), c.resident_tuples(), c.resident_bytes())
    };
    let totals = shared.fold_trace();
    J::obj()
        .set(
            "hit",
            J::u64(totals.counter("index_cache.hit").unwrap_or(0)),
        )
        .set(
            "miss",
            J::u64(totals.counter("index_cache.miss").unwrap_or(0)),
        )
        .set("entries", J::u64(entries as u64))
        .set("resident_tuples", J::u64(tuples))
        .set("resident_bytes", J::u64(bytes))
}

#[allow(clippy::too_many_arguments)]
fn handle_run(
    shared: &Shared,
    catalog: &str,
    name: Option<&str>,
    program: Option<&str>,
    scheme: Option<&str>,
    deadline_ms: Option<u64>,
    want_tsv: bool,
    ledger: &mut SessionLedger,
) -> J {
    let r = match resolve(shared, catalog, name, program, scheme) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let report = match admit(shared, &r) {
        Ok(rep) => rep,
        Err(e) => return e,
    };
    let resp = ok("run")
        .set("catalog", J::str(catalog))
        .set("certified_peak", J::u64(report.peak));
    execute_admitted(shared, &r, &report, deadline_ms, want_tsv, ledger, resp)
}

#[allow(clippy::too_many_arguments)]
fn handle_query(
    shared: &Shared,
    catalog: &str,
    optimizer: Option<&str>,
    executor: Option<&str>,
    deadline_ms: Option<u64>,
    want_tsv: bool,
    ledger: &mut SessionLedger,
) -> J {
    let requested = match ExecutorKind::parse(executor.unwrap_or("program")) {
        Ok(k) => k,
        Err(e) => return err("protocol", e),
    };
    // Snapshot the catalog entry (relation `Arc` clones + the interner),
    // then release the lock: the tree search below can be exponential
    // (`dp` over SearchSpace::All) and must not stall every other
    // session's resolve/load/compile.
    let (db, catalog_snapshot) = {
        let catalogs = lock(&shared.catalogs);
        let entry = match catalogs.get(catalog) {
            Some(e) => e,
            None => return err("not_found", format!("no catalog `{catalog}`")),
        };
        if entry.relations.is_empty() {
            return err("data", "catalog has no loaded relations");
        }
        let db =
            Database::from_relations(entry.relations.iter().map(|(_, rel)| rel.clone()).collect());
        (db, entry.catalog.clone())
    };
    let scheme = DbScheme::from_schemas(&db.schemas());
    if !scheme.fully_connected() {
        return err(
            "data",
            "the loaded relations' scheme is disconnected; the result would be a \
             Cartesian product across components — query each component separately",
        );
    }
    // Estimation-based tree search: the exact oracle would execute the
    // very subjoins admission is about to gate.
    let mut oracle = EstimateOracle::new(&scheme, &db);
    let tree = match optimizer.unwrap_or("greedy") {
        "greedy" => greedy(&scheme, &mut oracle, true).0,
        dp @ ("dp" | "dp-cpf" | "dp-linear") => {
            let space = match dp {
                "dp" => SearchSpace::All,
                "dp-cpf" => SearchSpace::Cpf,
                _ => SearchSpace::Linear,
            };
            match optimize(&scheme, &mut oracle, space) {
                Some(opt) => opt.tree,
                None => return err("data", "optimizer search space is empty for this scheme"),
            }
        }
        other => {
            return err(
                "protocol",
                format!("unknown optimizer `{other}` (try greedy|dp|dp-cpf|dp-linear)"),
            )
        }
    };
    let d = match derive(&scheme, &tree) {
        Ok(d) => d,
        Err(e) => return err("data", e.to_string()),
    };
    let tree_text = format!("{}", tree.display(&scheme, &catalog_snapshot));
    let r = Resolved {
        program: d.program,
        scheme,
        db,
        catalog: catalog_snapshot,
    };
    // AGM bound of the whole scheme vs the derived program's Theorem-2
    // certificate — computed for every query so the response always
    // reports both sides of the executor decision.
    let sel = match selection_for(&r) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let chosen = match requested {
        ExecutorKind::Program => ExecutorKind::Program,
        ExecutorKind::Wcoj => ExecutorKind::Wcoj,
        ExecutorKind::Auto => {
            if sel.use_wcoj {
                ExecutorKind::Wcoj
            } else {
                ExecutorKind::Program
            }
        }
    };
    let resp = ok("query")
        .set("catalog", J::str(catalog))
        .set("tree", J::Str(tree_text))
        .set(
            "program",
            J::Str(display::render(&r.program, &r.scheme, &r.catalog)),
        )
        .set("executor", J::str(chosen.name()))
        .set("agm_bound", J::u64(sel.agm_bound))
        .set("cert_bound", J::u64(sel.cert_bound));
    if chosen == ExecutorKind::Wcoj {
        // Admission for generic join: its certified output bound is the
        // AGM bound, so that (not the program certificate) gates it.
        if let Some(budget) = shared.cfg.max_cost {
            if sel.agm_bound > budget {
                trace::add("serve.admission_reject", 1);
                return err_with(
                    "admission",
                    format!("AGM bound {} exceeds --max-cost {budget}", sel.agm_bound),
                    vec![
                        ("bound".to_string(), J::u64(sel.agm_bound)),
                        ("budget".to_string(), J::u64(budget)),
                    ],
                );
            }
        }
        let resp = resp.set("certified_peak", J::u64(sel.agm_bound));
        execute_wcoj(
            shared,
            &r,
            sel.agm_bound,
            deadline_ms,
            want_tsv,
            ledger,
            resp,
        )
    } else {
        let report = match admit(shared, &r) {
            Ok(rep) => rep,
            Err(e) => return e,
        };
        let resp = resp.set("certified_peak", J::u64(report.peak));
        execute_admitted(shared, &r, &report, deadline_ms, want_tsv, ledger, resp)
    }
}

/// Snapshot a catalog entry's relations into a [`NamedDatabase`] for the
/// conjunctive-query front end: each loaded relation becomes a predicate
/// under its load name, columns bound positionally in the relation's
/// canonical attribute order. No tuple is copied: the snapshot renames the
/// loaded relations' shared columns.
fn named_db_snapshot(shared: &Shared, catalog: &str) -> Result<NamedDatabase, J> {
    let (pairs, cat) = {
        let catalogs = lock(&shared.catalogs);
        let entry = match catalogs.get(catalog) {
            Some(e) => e,
            None => return Err(err("not_found", format!("no catalog `{catalog}`"))),
        };
        if entry.relations.is_empty() {
            return Err(err("data", "catalog has no loaded relations"));
        }
        (entry.relations.clone(), entry.catalog.clone())
    };
    let mut ndb = NamedDatabase::new();
    for (name, rel) in &pairs {
        let cols: Vec<&str> = rel.schema().attrs().iter().map(|&a| cat.name(a)).collect();
        if let Err(e) = ndb.add_relation_shared(name, &cols, rel) {
            return Err(err("data", format!("relation `{name}`: {e}")));
        }
    }
    Ok(ndb)
}

/// Map a wire optimizer name onto the CQ planner's strategy.
fn plan_strategy_of(name: &str) -> Result<PlanStrategy, J> {
    Ok(match name {
        "greedy" => PlanStrategy::Greedy,
        "dp" => PlanStrategy::DpOptimal,
        "dp-cpf" => PlanStrategy::DpCpf,
        "dp-linear" => PlanStrategy::DpLinear,
        other => {
            return Err(err(
                "protocol",
                format!("unknown optimizer `{other}` (try greedy|dp|dp-cpf|dp-linear)"),
            ))
        }
    })
}

/// Render the compile-time minimization summary (or `null` when
/// minimization did not run).
fn minimize_summary_json(m: Option<&MinimizeSummary>) -> J {
    match m {
        None => J::Null,
        Some(m) => J::obj()
            .set("atoms_before", J::u64(m.atoms_before as u64))
            .set("atoms_after", J::u64(m.atoms_after as u64))
            .set(
                "dropped",
                J::Arr(m.dropped.iter().map(|d| J::Str(d.clone())).collect()),
            )
            .set("agm_before", J::u64(m.agm_before))
            .set("agm_after", J::u64(m.agm_after)),
    }
}

/// `query` with a `cq` payload: run one conjunctive query over the loaded
/// relations. The query's core is compiled unless `minimize` is false, and
/// admission gates on the AGM bound of the body that will actually run —
/// so a query rejected verbatim can be admitted once its redundant atoms
/// fold away.
fn handle_cq_query(
    shared: &Shared,
    catalog: &str,
    cq: &str,
    optimizer: Option<&str>,
    executor: Option<&str>,
    minimize: bool,
    want_tsv: bool,
) -> J {
    let requested = match ExecutorKind::parse(executor.unwrap_or("program")) {
        Ok(k) => k,
        Err(e) => return err("protocol", e),
    };
    let strategy = match plan_strategy_of(optimizer.unwrap_or("greedy")) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let q = match parse_query(cq) {
        Ok(q) => q,
        Err(e) => return err("protocol", format!("bad cq: {e}")),
    };
    let ndb = match named_db_snapshot(shared, catalog) {
        Ok(n) => n,
        Err(e) => return e,
    };
    if let Some(budget) = shared.cfg.max_cost {
        let compiled_body = if minimize {
            let m = mjoin_cq::minimize(&q);
            if m.proof.verified {
                m.core.body
            } else {
                q.body.clone()
            }
        } else {
            q.body.clone()
        };
        let bound = query_agm_bound(&ndb, &compiled_body);
        if bound > budget {
            trace::add("serve.admission_reject", 1);
            return err_with(
                "admission",
                format!("AGM bound {bound} exceeds --max-cost {budget}"),
                vec![
                    ("bound".to_string(), J::u64(bound)),
                    ("budget".to_string(), J::u64(budget)),
                ],
            );
        }
    }
    let opts = CqExecOptions {
        executor: requested,
        threads: shared.cfg.threads,
        cache: None,
        minimize,
        mem_budget: shared.cfg.mem_budget,
    };
    let (res, decisions) = match execute_query_with(&ndb, &q, strategy, &opts) {
        Ok(r) => r,
        Err(e) => return err("data", e.to_string()),
    };
    trace::add("serve.cq_query", 1);
    let components: Vec<J> = decisions
        .iter()
        .map(|d| {
            let mut o = J::obj()
                .set("component", J::Str(d.component.clone()))
                .set("executor", J::str(d.executor.name()));
            if let Some(agm) = d.agm_bound {
                o = o.set("agm_bound", J::u64(agm));
            }
            if let Some(cert) = d.cert_bound {
                o = o.set("cert_bound", J::u64(cert));
            }
            o
        })
        .collect();
    let mut resp = ok("query")
        .set("catalog", J::str(catalog))
        .set("cq", J::Str(q.to_string()))
        .set("minimize", minimize_summary_json(res.minimize.as_ref()))
        .set("components", J::Arr(components))
        .set("rows", J::u64(res.len() as u64))
        .set("cost", J::u64(res.ledger.total()));
    if want_tsv {
        match J::str_streamed(|w| res.write_tsv(w)) {
            Ok(text) => resp = resp.set("tsv", text),
            Err(e) => return err("data", format!("rendering result: {e}")),
        }
    }
    resp
}

/// `explain` with a `cq` payload: the minimization report (core, dropped
/// atoms, pre/post AGM bounds) plus the query lints — no execution.
fn handle_cq_explain(shared: &Shared, catalog: &str, cq: &str, minimize: bool) -> J {
    let q = match parse_query(cq) {
        Ok(q) => q,
        Err(e) => return err("protocol", format!("bad cq: {e}")),
    };
    let ndb = match named_db_snapshot(shared, catalog) {
        Ok(n) => n,
        Err(e) => return e,
    };
    trace::add("serve.explain", 1);
    let report = mjoin_cq::lint_query(&q);
    let lints: Vec<J> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut o = J::obj()
                .set("severity", J::str(d.severity.as_str()))
                .set("lint", J::str(d.lint))
                .set("message", J::Str(d.message.clone()));
            if let Some(s) = d.stmt {
                o = o.set("stmt", J::u64(s as u64));
            }
            if let Some(x) = &d.excerpt {
                o = o.set("excerpt", J::Str(x.clone()));
            }
            o
        })
        .collect();
    let agm_before = query_agm_bound(&ndb, &q.body);
    let mut resp = ok("explain")
        .set("catalog", J::str(catalog))
        .set("cq", J::Str(q.to_string()))
        .set("lints", J::Arr(lints))
        .set("agm_bound", J::u64(agm_before));
    let mut admission_bound = agm_before;
    if minimize {
        let m = mjoin_cq::minimize(&q);
        if m.proof.verified {
            let agm_after = query_agm_bound(&ndb, &m.core.body);
            admission_bound = agm_after;
            resp = resp.set(
                "minimize",
                J::obj()
                    .set("atoms_before", J::u64(q.body.len() as u64))
                    .set("atoms_after", J::u64(m.core.body.len() as u64))
                    .set(
                        "dropped",
                        J::Arr(
                            m.proof
                                .dropped
                                .iter()
                                .map(|&i| J::Str(q.body[i].to_string()))
                                .collect(),
                        ),
                    )
                    .set("agm_before", J::u64(agm_before))
                    .set("agm_after", J::u64(agm_after))
                    .set("core", J::Str(m.core.to_string())),
            );
        }
    }
    if let Some(budget) = shared.cfg.max_cost {
        resp = resp
            .set("budget", J::u64(budget))
            .set("admitted", J::Bool(admission_bound <= budget));
    }
    resp
}

/// Compute the executor selection for a resolved query: the scheme's AGM
/// bound against the derived program's Theorem-2 certificate.
fn selection_for(r: &Resolved) -> Result<Selection, J> {
    let cx = AnalysisCx::new(&r.program, &r.scheme, &r.catalog)
        .map_err(|e| err("data", e.to_string()))?;
    let cert = Certificate::compute(&cx);
    let sizes: Vec<u64> = r.db.relations().iter().map(|x| x.len() as u64).collect();
    Ok(select(&r.scheme, &sizes, &cert))
}

fn handle_explain(
    shared: &Shared,
    catalog: &str,
    name: Option<&str>,
    program: Option<&str>,
    scheme: Option<&str>,
) -> J {
    let r = match resolve(shared, catalog, name, program, scheme) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let cx = match AnalysisCx::new(&r.program, &r.scheme, &r.catalog) {
        Ok(cx) => cx,
        Err(e) => return err("data", e.to_string()),
    };
    let seeds: Vec<u64> = r.db.relations().iter().map(|x| x.len() as u64).collect();
    let report = admission_report(&cx, &seeds);
    trace::add("serve.explain", 1);
    let bounds: Vec<J> = report
        .bounds
        .iter()
        .map(|b| {
            let mut o = J::obj()
                .set("stmt", J::u64(b.stmt as u64))
                .set("kind", J::str(b.kind))
                .set("bound", J::u64(b.bound))
                .set("symbolic", J::Str(b.symbolic.clone()))
                .set("tight", J::Bool(b.tight));
            if let Some(x) = &b.excerpt {
                o = o.set("excerpt", J::Str(x.clone()));
            }
            o
        })
        .collect();
    let mut resp = ok("explain")
        .set("catalog", J::str(catalog))
        .set("bounds", J::Arr(bounds))
        .set("peak", J::u64(report.peak));
    if let Some(p) = report.peak_stmt {
        resp = resp.set("peak_stmt", J::u64(p as u64));
    }
    // Executor hint: which backend `query --executor auto` would pick for
    // this scheme and these cardinalities.
    if let Ok(sel) = selection_for(&r) {
        resp = resp
            .set("agm_bound", J::u64(sel.agm_bound))
            .set("cert_bound", J::u64(sel.cert_bound))
            .set(
                "executor_hint",
                J::str(if sel.use_wcoj { "wcoj" } else { "program" }),
            );
    }
    if let Some(budget) = shared.cfg.max_cost {
        resp = resp
            .set("budget", J::u64(budget))
            .set("admitted", J::Bool(report.violation(budget).is_none()));
    }
    // The static memory certificate: the same peak-resident bound the
    // memory admission gate and the spill planner act on.
    let mem = memory_report(&cx, &seeds);
    resp = resp
        .set("mem_peak_bytes", J::u64(mem.peak_bytes))
        .set("mem_peak_tuples", J::u64(mem.peak_tuples));
    if let Some(p) = mem.peak_stmt {
        resp = resp.set("mem_peak_stmt", J::u64(p as u64));
    }
    if let Some(budget) = shared.cfg.mem_budget {
        resp = resp
            .set("mem_budget", J::u64(budget))
            .set("mem_admitted", J::Bool(mem.violation(budget).is_none()));
    }
    resp
}

fn handle_stats(shared: &Shared, ledger: &SessionLedger) -> J {
    let cache = cache_stats(shared);
    let counters = {
        let totals = shared.fold_trace();
        let mut o = J::obj();
        for &(name, v) in &totals.counters {
            o = o.set(name, J::u64(v));
        }
        o
    };
    let catalogs: Vec<J> = {
        let map = lock(&shared.catalogs);
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        names
            .iter()
            .map(|n| {
                let e = &map[*n];
                J::obj()
                    .set("name", J::str(n.as_str()))
                    .set("relations", J::u64(e.relations.len() as u64))
                    .set("programs", J::u64(e.programs.len() as u64))
            })
            .collect()
    };
    ok("stats")
        .set(
            "uptime_ms",
            J::u64(shared.started.elapsed().as_millis() as u64),
        )
        .set(
            "in_flight",
            J::u64(shared.in_flight.load(Ordering::Relaxed)),
        )
        .set("counters", counters)
        .set("cache", cache)
        .set("catalogs", J::Arr(catalogs))
        .set(
            "session",
            J::obj()
                .set("requests", J::u64(ledger.requests))
                .set("inputs", J::u64(ledger.inputs))
                .set("generated", J::u64(ledger.generated)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(fields: &[(&str, &str)]) -> String {
        fields
            .iter()
            .fold(J::obj(), |o, (k, v)| o.set(k, J::str(*v)))
            .render()
    }

    /// Regression: the process trace sink grew with every request — the
    /// totals appended every drained span event, and `cq` requests never
    /// drained at all. After 2,000 in-process `run` and `cq` requests the
    /// totals hold no events, the sink is empty, and the counters `stats`
    /// reports are the ones the events-keeping fold reported.
    #[test]
    fn requests_leave_no_trace_events_and_keep_counters() {
        trace::set_enabled(true);
        trace::clear();
        let server = Server::bind(ServeConfig::default()).unwrap();
        let shared = &server.shared;
        let mut ledger = SessionLedger::default();
        let mut send = |fields: &[(&str, &str)]| {
            let resp = dispatch(shared, &line(fields), &mut ledger);
            assert_eq!(resp.get("ok"), Some(&J::Bool(true)), "{}", resp.render());
            resp
        };
        send(&[
            ("cmd", "load"),
            ("catalog", "c"),
            ("name", "ab"),
            ("tsv", "A\tB\n0\t1\n1\t2\n2\t3\n"),
        ]);
        send(&[
            ("cmd", "load"),
            ("catalog", "c"),
            ("name", "bc"),
            ("tsv", "B\tC\n1\t2\n2\t3\n3\t4\n"),
        ]);
        send(&[
            ("cmd", "compile"),
            ("catalog", "c"),
            ("name", "p"),
            ("scheme", "AB,BC"),
            ("program", "R(V) := R(AB) ⋉ R(BC)\nR(V) := R(V) ⋈ R(BC)"),
        ]);
        for _ in 0..1_000 {
            send(&[("cmd", "run"), ("catalog", "c"), ("name", "p")]);
            send(&[
                ("cmd", "query"),
                ("catalog", "c"),
                ("cq", "Q(a, c) :- ab(a, b), bc(b, c)"),
            ]);
            assert!(trace::take().events.is_empty(), "sink drained per request");
        }
        assert!(lock(&shared.totals).events.is_empty());
        let stats = send(&[("cmd", "stats")]);
        let counters = stats.get("counters").unwrap();
        let count = |name: &str| counters.get(name).and_then(J::as_u64);
        assert_eq!(count("serve.request"), Some(2_004));
        assert_eq!(count("serve.load"), Some(2));
        assert_eq!(count("serve.compile"), Some(1));
        assert_eq!(count("serve.run"), Some(1_000));
        assert_eq!(count("serve.cq_query"), Some(1_000));
        // The index-cache counters, as the events-keeping fold counted them
        // over this same request sequence.
        assert_eq!(count("index_cache.hit"), Some(2_999));
        assert_eq!(count("index_cache.miss"), Some(1_001));
        assert_eq!(count("index_cache.insert"), Some(1_001));
        assert_eq!(count("index_cache.fingerprint_hit"), Some(1_998));
        trace::set_enabled(false);
    }
}
