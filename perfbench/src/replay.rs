//! The traced replay: the workload's requests re-issued in this process
//! through the same public functions the server calls, each call wrapped in
//! a span of the benchmark's own [`Recorder`].
//!
//! Every round of requests is replayed in four interleaved passes:
//!
//! * `request` — tracing on, as the server sets it, one worker thread (the
//!   server's default). Its top-level spans are the layers that, with the
//!   server's own code and loopback (`serve.self_ms`), add back up to the
//!   served latency.
//! * `request.untraced` — the same with tracing off; the difference is
//!   `trace.overhead_pct`.
//! * `request.t2` — tracing on, two worker threads; the ratio of the
//!   executor spans is `program.exec_t2_speedup`.
//! * `cq.decomposed` (`cq` requests only) — the stages inside
//!   `execute_query_with` re-run one public call at a time: minimization,
//!   atom binding, greedy planning over an `EstimateOracle`, `derive`, the
//!   evaluation of the join tree T1 (`cost_of`), the certificate and
//!   executor selection, and the chosen executor.
//!
//! The program's own trace sink is drained (`mjoin_trace::take`) after every
//! request, so the replay does not grow the sink it is measuring.

use crate::check::Checker;
use crate::inputs::{Call, Expect, Workload, CATALOG};
use crate::spans::Recorder;
use mjoin::analyze::{admission_report, AnalysisCx, Certificate};
use mjoin::core::derive;
use mjoin::cq::{
    differential_validate, execute_query_with, minimize, parse_query, query_agm_bound, Atom,
    ExecOptions, ExecutorKind, NamedDatabase, PlanStrategy, Term,
};
use mjoin::expr::cost_of;
use mjoin::hypergraph::DbScheme;
use mjoin::optimizer::{greedy, EstimateOracle};
use mjoin::program::{
    execute_with, parse_program, try_execute_with, CancelToken, ExecConfig, IndexCache, Program,
    SharedIndexCache,
};
use mjoin::relation::{ops, tsv, AttrSet, Catalog, Database, Relation, Schema, Value};
use mjoin::serve::protocol::ok;
use mjoin::serve::{Request, Value as J};
use mjoin::wcoj::{select, wcoj_join};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The seed `execute_query_with` passes to its differential check.
const DIFF_VALIDATE_SEED: u64 = 0x517c_c1b7_2722_0a95;
/// Bodies longer than this skip the differential check, as in the library.
const DIFF_VALIDATE_MAX_ATOMS: usize = 8;

/// Server defaults the replay mirrors (`ServeConfig::default`).
const CACHE_BUDGET_TUPLES: u64 = 4 << 20;
const CACHE_BUDGET_BYTES: u64 = 256 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Traced,
    Untraced,
    TwoThreads,
    Decomposed,
}

impl Pass {
    fn root(self) -> &'static str {
        match self {
            Pass::Traced => "request",
            Pass::Untraced => "request.untraced",
            Pass::TwoThreads => "request.t2",
            Pass::Decomposed => "cq.decomposed",
        }
    }

    fn threads(self) -> usize {
        if self == Pass::TwoThreads {
            2
        } else {
            1
        }
    }
}

/// Counts one replayed request reports, besides its spans.
#[derive(Default, Clone, Copy)]
struct Counts {
    events: u64,
    cache_hit: u64,
    cache_miss: u64,
    head_tuples: u64,
    stmts: u64,
    dropped: u64,
    wcoj: bool,
}

struct Prepared {
    program: Program,
    scheme: DbScheme,
    db: Database,
}

pub struct Replay<'w> {
    w: &'w Workload,
    catalog: Catalog,
    prepared: Option<Prepared>,
    ndb: NamedDatabase,
    cache: SharedIndexCache,
    /// Per request id: what it reported.
    counts: HashMap<u64, Counts>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Load every table through the TSV reader into a fresh catalog.
fn load_tables(w: &Workload) -> Result<(Catalog, Vec<(String, Relation)>), String> {
    let mut catalog = Catalog::new();
    let mut relations = Vec::new();
    for t in &w.tables {
        let text = t.tsv();
        let rel = tsv::relation_from_tsv_reader(&mut catalog, text.as_bytes())
            .map_err(|e| format!("loading `{}`: {e}", t.name))?;
        relations.push((t.name.clone(), rel));
    }
    Ok((catalog, relations))
}

/// Median over `reps` loads of every table, in milliseconds (the TSV text
/// is rendered outside the clock).
pub fn tsv_load_ms(w: &Workload, reps: usize) -> Result<f64, String> {
    let texts: Vec<String> = w.tables.iter().map(crate::inputs::Table::tsv).collect();
    let mut samples = Vec::new();
    for _ in 0..reps {
        let mut catalog = Catalog::new();
        let start = Instant::now();
        for text in &texts {
            let rel = tsv::relation_from_tsv_reader(&mut catalog, text.as_bytes())
                .map_err(|e| e.to_string())?;
            std::hint::black_box(rel);
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::median(&mut samples))
}

/// Line the loaded relations up with the scheme's edges by attribute set.
fn match_relations(
    relations: &[(String, Relation)],
    scheme: &DbScheme,
) -> Result<Database, String> {
    let mut taken = vec![false; relations.len()];
    let mut out = Vec::new();
    for i in 0..scheme.num_relations() {
        let want = scheme.attrs_of(i);
        let j = (0..relations.len())
            .find(|&j| {
                !taken[j]
                    && AttrSet::from_iter_ids(relations[j].1.schema().attrs().iter().copied())
                        == *want
            })
            .ok_or_else(|| format!("no relation matches scheme edge {i}"))?;
        taken[j] = true;
        out.push(relations[j].1.clone());
    }
    Ok(Database::from_relations(out))
}

/// Bind one atom whose terms are distinct variables: the relation over the
/// variables' attributes, as the CQ compiler's (private) binding step
/// builds it.
fn bind(ndb: &NamedDatabase, atom: &Atom, qcat: &mut Catalog) -> Result<Relation, String> {
    let stored = ndb
        .get(&atom.predicate)
        .ok_or_else(|| format!("unknown relation `{}`", atom.predicate))?;
    let mut attrs = Vec::new();
    for t in &atom.terms {
        match t {
            Term::Var(v) if !attrs.contains(&qcat.intern(v)) => attrs.push(qcat.intern(v)),
            _ => {
                return Err(format!(
                    "the replay binds distinct variables only: `{atom}`"
                ))
            }
        }
    }
    let schema = Schema::new(attrs.clone());
    let from: Vec<usize> = (0..attrs.len())
        .map(|i| stored.canonical_position(i))
        .collect();
    let to: Vec<usize> = attrs
        .iter()
        .map(|&a| schema.position(a).expect("interned"))
        .collect();
    let rows = stored
        .relation
        .rows()
        .iter()
        .map(|row| {
            let mut out = vec![Value::Int(0); attrs.len()];
            for (&f, &t) in from.iter().zip(&to) {
                out[t] = row[f].clone();
            }
            out.into()
        })
        .collect();
    Relation::from_rows(schema, rows).map_err(|e| e.to_string())
}

impl<'w> Replay<'w> {
    pub fn new(w: &'w Workload) -> Result<Self, String> {
        let (mut catalog, relations) = load_tables(w)?;
        let prepared = match &w.prepared {
            Some(p) => {
                let directive = p
                    .text
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("# scheme:"))
                    .ok_or("the prepared program has no `# scheme:` directive")?;
                let parts: Vec<&str> = directive.split(',').map(str::trim).collect();
                let scheme = DbScheme::parse(&mut catalog, &parts);
                let program =
                    parse_program(&catalog, &scheme, &p.text).map_err(|e| e.to_string())?;
                let db = match_relations(&relations, &scheme)?;
                Some(Prepared {
                    program,
                    scheme,
                    db,
                })
            }
            None => None,
        };
        // The `cq` path's catalog snapshot, built once: the per-request copy
        // the server makes stays in `serve.self_ms`.
        let mut ndb = NamedDatabase::new();
        for (name, rel) in &relations {
            let cols: Vec<&str> = rel
                .schema()
                .attrs()
                .iter()
                .map(|&a| catalog.name(a))
                .collect();
            let rows = rel.rows().iter().map(|r| r.to_vec()).collect();
            ndb.add_relation_values(name, &cols, rows)
                .map_err(|e| format!("relation `{name}`: {e}"))?;
        }
        Ok(Replay {
            w,
            catalog,
            prepared,
            ndb,
            cache: IndexCache::shared(CACHE_BUDGET_TUPLES, CACHE_BUDGET_BYTES),
            counts: HashMap::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
        })
    }

    /// Replay `rounds` rounds (after `warmup` unrecorded ones) into `rec`,
    /// calling `between` before each recorded round.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        warmup: usize,
        rounds: usize,
        mut between: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let mut checker = Checker::new(&self.w.round);
        let mut scratch = Recorder::new();
        let mut id = 0u64;
        let has_cq = self
            .w
            .round
            .iter()
            .any(|r| matches!(r.call, Call::Cq { .. }));
        let mut passes = vec![Pass::Traced, Pass::Untraced, Pass::TwoThreads];
        if has_cq {
            passes.push(Pass::Decomposed);
        }
        for r in 0..warmup + rounds {
            let recorded = r >= warmup;
            if recorded {
                between()?;
            }
            for &pass in &passes {
                for idx in 0..self.w.round.len() {
                    let target = if recorded { &mut *rec } else { &mut scratch };
                    let counts = self.request(target, id, idx, pass, &mut checker)?;
                    if recorded {
                        self.counts.insert(id, counts);
                    }
                    id += 1;
                }
            }
        }
        mjoin::trace::set_enabled(false);
        Ok(())
    }

    fn request(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        idx: usize,
        pass: Pass,
        checker: &mut Checker<'_>,
    ) -> Result<Counts, String> {
        mjoin::trace::set_enabled(pass != Pass::Untraced);
        let root = rec.begin_request(id, pass.root());
        let mut counts = Counts::default();
        let w = self.w;
        let req = &w.round[idx];
        let response = match (&req.call, pass) {
            (Call::Cq { text, executor }, Pass::Decomposed) => {
                self.decomposed(rec, idx, text, executor, &mut counts)?;
                None
            }
            (Call::Cq { text, executor }, _) => {
                Some(self.cq(rec, &req.line, text, executor, pass.threads(), &mut counts)?)
            }
            (Call::Run, _) => {
                Some(self.run_prepared(rec, &req.line, pass.threads(), &mut counts)?)
            }
        };
        rec.exit(root);
        if !matches!(req.call, Call::Run) {
            // The server folds the sink on `run` replies only; drain it
            // outside the request for the other calls.
            let drained = mjoin::trace::take();
            counts.add_drained(&drained);
        }
        if let Some(line) = response {
            self.attempted += 1;
            if let Err(e) = checker.check(idx, line.as_bytes()) {
                self.failed += 1;
                self.first_error.get_or_insert(format!("replay: {e}"));
            }
        }
        Ok(counts)
    }

    /// `run` of the prepared program, as `handle_run` does it.
    fn run_prepared(
        &self,
        rec: &mut Recorder,
        line: &str,
        threads: usize,
        counts: &mut Counts,
    ) -> Result<String, String> {
        let p = self
            .prepared
            .as_ref()
            .ok_or("`run` needs a prepared program")?;
        rec.time("serve.parse", || Request::parse(line.trim_end()))?;
        let report = rec.time("analyze.admission", || {
            AnalysisCx::new(&p.program, &p.scheme, &self.catalog).map(|cx| {
                let seeds: Vec<u64> = p.db.relations().iter().map(|r| r.len() as u64).collect();
                admission_report(&cx, &seeds)
            })
        });
        let report = report.map_err(|e| e.to_string())?;
        let cfg = ExecConfig {
            threads,
            cache: Some(Arc::clone(&self.cache)),
            cancel: Some(CancelToken::new()),
            ..ExecConfig::default()
        };
        let out = rec
            .time("program.exec", || try_execute_with(&p.program, &p.db, &cfg))
            .map_err(|c| c.to_string())?;
        let drained = rec.time("trace.drain", mjoin::trace::take);
        counts.add_drained(&drained);
        counts.head_tuples = out.head_sizes.iter().map(|&h| h as u64).sum();
        counts.stmts = p.program.stmts.len() as u64;
        let text = rec.time("relation.tsv_write", || {
            let mut buf = Vec::new();
            tsv::relation_to_tsv_writer(&self.catalog, &out.result, &mut buf).map(|()| buf)
        });
        let text =
            String::from_utf8(text.map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        let ledger = &out.ledger;
        Ok(rec.time("serve.render", || {
            ok("run")
                .set("catalog", J::str(CATALOG))
                .set("certified_peak", J::u64(report.peak))
                .set("rows", J::u64(out.result.len() as u64))
                .set(
                    "ledger",
                    J::obj()
                        .set("inputs", J::u64(ledger.input_total()))
                        .set("generated", J::u64(ledger.generated_total()))
                        .set("total", J::u64(ledger.total()))
                        .set("session_total", J::u64(ledger.total())),
                )
                .set(
                    "cache",
                    J::obj()
                        .set("hit", J::u64(counts.cache_hit))
                        .set("miss", J::u64(counts.cache_miss)),
                )
                .set("tsv", J::Str(text))
                .render()
        }))
    }

    /// `query` with an inline `cq`, as `handle_cq_query` does it (the
    /// server's `cache: None`, minimization on).
    fn cq(
        &self,
        rec: &mut Recorder,
        line: &str,
        text: &str,
        executor: &str,
        threads: usize,
        counts: &mut Counts,
    ) -> Result<String, String> {
        rec.time("serve.parse", || Request::parse(line.trim_end()))?;
        let q = rec
            .time("cq.parse", || parse_query(text))
            .map_err(|e| e.to_string())?;
        let opts = ExecOptions {
            executor: ExecutorKind::parse(executor)?,
            threads,
            cache: None,
            minimize: true,
            mem_budget: None,
        };
        let (res, decisions) = rec
            .time("cq.execute", || {
                execute_query_with(&self.ndb, &q, PlanStrategy::Greedy, &opts)
            })
            .map_err(|e| e.to_string())?;
        counts.wcoj = decisions.iter().any(|d| d.executor == ExecutorKind::Wcoj);
        counts.dropped = res.minimize.as_ref().map_or(0, |m| m.dropped.len() as u64);
        Ok(rec.time("serve.render", || {
            let components: Vec<J> = decisions
                .iter()
                .map(|d| {
                    J::obj()
                        .set("component", J::Str(d.component.clone()))
                        .set("executor", J::str(d.executor.name()))
                })
                .collect();
            let mut tsv = q.head_vars.join("\t");
            tsv.push('\n');
            for row in res.rows_in_head_order() {
                let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                tsv.push_str(&cells.join("\t"));
                tsv.push('\n');
            }
            ok("query")
                .set("catalog", J::str(CATALOG))
                .set("cq", J::Str(q.to_string()))
                .set("components", J::Arr(components))
                .set("rows", J::u64(res.len() as u64))
                .set("cost", J::u64(res.ledger.total()))
                .set("tsv", J::Str(tsv))
                .render()
        }))
    }

    /// The stages of `execute_query_with` for one connected query, one
    /// public call per span.
    fn decomposed(
        &self,
        rec: &mut Recorder,
        idx: usize,
        text: &str,
        executor: &str,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let q = parse_query(text).map_err(|e| e.to_string())?;
        let ndb = &self.ndb;
        let (body, dropped) = rec.time("cq.minimize", || {
            let m = minimize(&q);
            let validated = q.body.len() > DIFF_VALIDATE_MAX_ATOMS
                || m.proof.dropped.is_empty()
                || differential_validate(&q, &m.core, DIFF_VALIDATE_SEED, 2).is_ok();
            let before = query_agm_bound(ndb, &q.body);
            if !m.proof.verified || !validated || m.proof.dropped.is_empty() {
                std::hint::black_box(before);
                return (q.body.clone(), 0);
            }
            std::hint::black_box((before, query_agm_bound(ndb, &m.core.body)));
            (m.core.body.clone(), m.proof.dropped.len())
        });
        counts.dropped = dropped as u64;
        let mut qcat = Catalog::new();
        let bound = rec.time("cq.bind", || {
            body.iter()
                .map(|a| bind(ndb, a, &mut qcat))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let db = Database::from_relations(bound);
        let scheme = DbScheme::from_schemas(&db.schemas());
        if scheme.components(scheme.all()).len() != 1 {
            return Err(format!(
                "the replay decomposes connected queries only: `{text}`"
            ));
        }
        let tree = rec.time("optimizer.plan", || {
            let mut oracle = EstimateOracle::new(&scheme, &db);
            greedy(&scheme, &mut oracle, true).0
        });
        let mut use_wcoj = false;
        if executor == "auto" {
            let d = rec
                .time("core.derive", || derive(&scheme, &tree))
                .map_err(|e| e.to_string())?;
            counts.stmts = d.program.stmts.len() as u64;
            let sizes: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
            let sel = rec.time("analyze.cert", || {
                AnalysisCx::new(&d.program, &scheme, &qcat)
                    .map(|cx| select(&scheme, &sizes, &Certificate::compute(&cx)))
            });
            use_wcoj = sel.map_err(|e| e.to_string())?.use_wcoj;
        }
        let result = if use_wcoj {
            counts.wcoj = true;
            Arc::new(rec.time("wcoj.join", || wcoj_join(&scheme, &db, None)))
        } else {
            let d = rec
                .time("core.derive", || derive(&scheme, &tree))
                .map_err(|e| e.to_string())?;
            counts.stmts = d.program.stmts.len() as u64;
            std::hint::black_box(rec.time("expr.tree_eval", || cost_of(&tree, &db)));
            let out = rec.time("program.exec", || {
                execute_with(&d.program, &db, &ExecConfig::with_threads(1))
            });
            counts.head_tuples = out.head_sizes.iter().map(|&h| h as u64).sum();
            out.result
        };
        let head: Vec<_> = q
            .head_vars
            .iter()
            .map(|v| {
                qcat.lookup(v)
                    .ok_or_else(|| format!("head variable `{v}` unbound"))
            })
            .collect::<Result<_, _>>()?;
        let projected = rec
            .time("cq.project", || {
                let full = ops::join(&Relation::nullary_unit(), &result);
                ops::project(&full, Schema::new(head).attrs())
            })
            .map_err(|e| e.to_string())?;
        if let Expect::Rows { rows, .. } = &self.w.round[idx].expect {
            if projected.len() != rows.len() {
                return Err(format!(
                    "decomposed `{text}` gives {} rows, the oracle {}",
                    projected.len(),
                    rows.len()
                ));
            }
        }
        Ok(())
    }
}

impl Counts {
    fn add_drained(&mut self, t: &mjoin::trace::Trace) {
        self.events += t.events.len() as u64;
        self.cache_hit += t.counter("index_cache.hit").unwrap_or(0);
        self.cache_miss += t.counter("index_cache.miss").unwrap_or(0);
    }
}

/// What the served phase of a traced run measured.
pub struct ServedTrace {
    /// Median latency over rounds of the round-robin (a round's mean), ms.
    pub e2e_ms: f64,
    pub rss_kb_per_req: f64,
    /// The server's minor page faults per request.
    pub minflt_per_req: f64,
    /// `index_cache` hit ratio from the responses' `cache` deltas, when the
    /// responses carry that block.
    pub hit_ratio: Option<f64>,
}

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, value, unit)`.
pub fn metrics(
    rec: &Recorder,
    replay: &Replay<'_>,
    served: &ServedTrace,
    tsv_load_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let round = replay.w.round.len();
    let ids = |root: &str| -> Vec<u64> {
        let roots = rec.total_by_request(root);
        roots.keys().copied().collect()
    };
    let traced = ids("request");
    let untraced = ids("request.untraced");
    let two = ids("request.t2");
    let decomposed = ids("cq.decomposed");
    // The per-request statistic: the median over rounds of a round's mean.
    let stat = |ids: &[u64], value: &dyn Fn(u64) -> f64| -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        let mut per_round: Vec<f64> = ids
            .chunks(round)
            .map(|c| c.iter().map(|&id| value(id)).sum::<f64>() / round as f64)
            .collect();
        crate::median(&mut per_round)
    };
    let span_ms = |name: &str, ids: &[u64]| -> f64 {
        let by = rec.self_by_request(name);
        stat(ids, &|id| by.get(&id).copied().unwrap_or(0) as f64 / 1e6)
    };
    let root_ms = |name: &str, ids: &[u64]| -> f64 {
        let by = rec.total_by_request(name);
        stat(ids, &|id| by.get(&id).copied().unwrap_or(0) as f64 / 1e6)
    };
    let count_of = |ids: &[u64], f: &dyn Fn(&Counts) -> f64| -> f64 {
        stat(ids, &|id| replay.counts.get(&id).map_or(0.0, f))
    };
    let layers: f64 = rec
        .child_names("request")
        .iter()
        .map(|name| span_ms(name, &traced))
        .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (exec_t1, exec_t2) = if replay.prepared.is_some() {
        (
            span_ms("program.exec", &traced),
            span_ms("program.exec", &two),
        )
    } else {
        (span_ms("cq.execute", &traced), span_ms("cq.execute", &two))
    };
    let program_ids = if replay.prepared.is_some() {
        &traced
    } else {
        &decomposed
    };
    let hits: f64 = replay.counts.values().map(|c| c.cache_hit as f64).sum();
    let misses: f64 = replay.counts.values().map(|c| c.cache_miss as f64).sum();
    let on = root_ms("request", &traced);
    let off = root_ms("request.untraced", &untraced);
    vec![
        ("serve.e2e_ms", served.e2e_ms, "ms"),
        ("serve.layers_ms", layers, "ms"),
        ("serve.self_ms", served.e2e_ms - layers, "ms"),
        (
            "serve.parse_us",
            span_ms("serve.parse", &traced) * 1e3,
            "us",
        ),
        (
            "serve.render_us",
            span_ms("serve.render", &traced) * 1e3,
            "us",
        ),
        ("serve.rss_kb_per_req", served.rss_kb_per_req, "kB"),
        ("serve.minflt_per_req", served.minflt_per_req, "count"),
        ("trace.overhead_pct", ratio(on - off, off) * 100.0, "%"),
        (
            "trace.events_per_req",
            count_of(&traced, &|c| c.events as f64),
            "count",
        ),
        (
            "analyze.admission_ms",
            span_ms("analyze.admission", &traced),
            "ms",
        ),
        (
            "analyze.cert_ms",
            span_ms("analyze.cert", &decomposed),
            "ms",
        ),
        (
            "relation.tsv_write_ms",
            span_ms("relation.tsv_write", &traced),
            "ms",
        ),
        ("relation.tsv_load_ms", tsv_load_ms, "ms"),
        ("cq.parse_us", span_ms("cq.parse", &traced) * 1e3, "us"),
        ("cq.minimize_ms", span_ms("cq.minimize", &decomposed), "ms"),
        (
            "cq.atoms_dropped",
            count_of(&traced, &|c| c.dropped as f64),
            "count",
        ),
        ("cq.execute_ms", span_ms("cq.execute", &traced), "ms"),
        (
            "optimizer.plan_ms",
            span_ms("optimizer.plan", &decomposed),
            "ms",
        ),
        ("core.derive_ms", span_ms("core.derive", &decomposed), "ms"),
        (
            "core.program_stmts",
            count_of(program_ids, &|c| c.stmts as f64),
            "count",
        ),
        (
            "expr.tree_eval_ms",
            span_ms("expr.tree_eval", &decomposed),
            "ms",
        ),
        ("wcoj.join_ms", span_ms("wcoj.join", &decomposed), "ms"),
        (
            "wcoj.routed_share",
            count_of(&traced, &|c| f64::from(u8::from(c.wcoj))),
            "ratio",
        ),
        (
            "program.exec_ms",
            span_ms("program.exec", program_ids),
            "ms",
        ),
        ("program.exec_t2_speedup", ratio(exec_t1, exec_t2), "ratio"),
        (
            "program.head_tuples",
            count_of(program_ids, &|c| c.head_tuples as f64),
            "count",
        ),
        (
            "index_cache.hit_ratio",
            served
                .hit_ratio
                .unwrap_or_else(|| ratio(hits, hits + misses)),
            "ratio",
        ),
    ]
}
