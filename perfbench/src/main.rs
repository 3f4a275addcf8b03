//! The repository benchmark: the resident `mjoin` server measured end to
//! end as users run it, and a traced in-process replay that splits each
//! request into the layers it passes through.
//!
//! ```text
//! mjoin-perfbench --workload <point_run|adhoc_cq|example3_run> --seed N
//!                 --seconds S --trace <0|1> --cli PATH/TO/mjoin_cli
//!                 [--out DIR] [--rustc VERSION] [--commit ID]
//! ```
//!
//! `perfbench/run.py` builds both binaries and passes the paths and host
//! facts. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the host facts. With `--trace 0` the metrics are the end-to-end ones,
//! with `--trace 1` the per-layer ones (see `README.md`).

mod check;
mod inputs;
mod replay;
mod served;
mod spans;

use check::Checker;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    cli: PathBuf,
    out: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        cli: PathBuf::new(),
        out: PathBuf::from(".bench_build/perfbench"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("`{flag} {v}`: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--cli" => args.cli = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() || args.cli.as_os_str().is_empty() {
        return Err("`--workload` and `--cli` are required".into());
    }
    Ok(args)
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of sorted `v`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One run's result: the metrics plus the counts the driver reads.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// The end-to-end run: set-up (several times), warm-up, then segments of
/// a closed loop on one connection followed by one on two connections, and
/// the server's RSS at the end.
fn end_to_end(args: &Args, w: &inputs::Workload) -> Result<Outcome, String> {
    let lines = served::setup_lines(w);
    let mut setups = Vec::new();
    for _ in 1..w.plan.setups {
        let (server, took) = served::set_up(&args.cli, &lines)?;
        setups.push(took.as_secs_f64());
        server.shutdown()?;
    }
    let (server, took) = served::set_up(&args.cli, &lines)?;
    setups.push(took.as_secs_f64());

    let mut conn = served::Conn::open(&server.addr)?;
    let mut pair = [
        served::Conn::open(&server.addr)?,
        served::Conn::open(&server.addr)?,
    ];
    let mut checker = Checker::new(&w.round);
    let mut tally = served::closed_loop(&mut conn, w, &mut checker, w.plan.warmup, 0)?;
    let (mut p50, mut p90, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..w.plan.segments {
        let one = served::closed_loop(&mut conn, w, &mut checker, w.plan.one_conn, 0)?;
        let mut lat: Vec<f64> = one.latencies.iter().copied().map(ms).collect();
        lat.sort_by(f64::total_cmp);
        p50.push(percentile(&lat, 0.5));
        p90.push(percentile(&lat, 0.9));
        tally.merge(one);
        let (r, two) = served::throughput(&mut pair, w, w.plan.two_conn)?;
        rps.push(r);
        tally.merge(two);
    }
    let rss_kb = server.rss_kb()?;
    drop((conn, pair));
    server.shutdown()?;

    let costs = checker.costs();
    let cost = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
    let ok_ratio = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    Ok(Outcome {
        metrics: vec![
            ("setup_s", median(&mut setups), "s"),
            ("warm_p50_ms", median(&mut p50), "ms"),
            ("warm_p90_ms", median(&mut p90), "ms"),
            ("rps_2conn", median(&mut rps), "1/s"),
            ("server_rss_mb", rss_kb as f64 / 1024.0, "MB"),
            ("cost_tuples", cost, "tuples"),
            ("ok_ratio", ok_ratio, "ratio"),
        ],
        attempted: tally.attempted,
        failed: tally.failed,
        first_error: tally.first_error,
    })
}

/// The traced run: the replay, with a stretch of served requests before
/// each of its rounds, so that the served latency the layers must add up to
/// and the replay are measured under the same conditions. The served
/// requests also give the server's RSS growth per request and the index
/// cache's hit ratio from the responses' `cache` deltas.
fn traced(args: &Args, w: &inputs::Workload) -> Result<Outcome, String> {
    let lines = served::setup_lines(w);
    let (server, _) = served::set_up(&args.cli, &lines)?;
    let mut conn = served::Conn::open(&server.addr)?;
    let mut checker = Checker::new(&w.round);
    let mut tally = served::closed_loop(&mut conn, w, &mut checker, w.plan.warmup, 0)?;
    let tsv_load_ms = replay::tsv_load_ms(w, 5)?;
    let mut rec = spans::Recorder::new();
    let mut rp = replay::Replay::new(w)?;
    let rss_before = server.rss_kb()?;
    let faults_before = server.minflt()?;
    let mut phase = served::Tally::default();
    // On a thread of its own, as the server runs each session.
    std::thread::scope(|s| {
        s.spawn(|| {
            rp.run(&mut rec, w.plan.replay_warmup, w.plan.replay_rounds, || {
                let n = w.plan.served_per_round * w.round.len();
                phase.merge(served::closed_loop(&mut conn, w, &mut checker, n, 0)?);
                Ok(())
            })
        })
        .join()
        .expect("the replay thread panicked")
    })?;
    let rss_after = server.rss_kb()?;
    let faults = server.minflt()? - faults_before;
    drop(conn);
    server.shutdown()?;
    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());

    let mut round_means: Vec<f64> = phase
        .latencies
        .chunks(w.round.len())
        .map(|c| c.iter().copied().map(ms).sum::<f64>() / c.len() as f64)
        .collect();
    let hit_ratio = phase.cache.map(|((h0, m0), (h1, m1))| {
        let (h, m) = ((h1 - h0) as f64, (m1 - m0) as f64);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    });
    let served_trace = replay::ServedTrace {
        e2e_ms: median(&mut round_means),
        rss_kb_per_req: (rss_after as f64 - rss_before as f64) / phase.attempted as f64,
        minflt_per_req: faults as f64 / phase.attempted as f64,
        hit_ratio,
    };
    tally.merge(phase);
    let metrics = replay::metrics(&rec, &rp, &served_trace, tsv_load_ms);
    Ok(Outcome {
        metrics,
        attempted: tally.attempted + rp.attempted,
        failed: tally.failed + rp.failed,
        first_error: tally.first_error.or(rp.first_error.take()),
    })
}

fn json_str(s: &str) -> String {
    mjoin::serve::Value::str(s).render()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = inputs::build(&args.workload, args.seed, args.seconds)?;
    let outcome = if args.trace {
        traced(&args, &w)?
    } else {
        end_to_end(&args, &w)?
    };
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let host = format!(
        "{{\"host\":{{\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"commit\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        json_str(&args.rustc),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&args.commit),
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, format!("{host}\n{result}\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{host}");
    println!("{result}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
