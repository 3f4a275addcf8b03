//! Compiling and executing conjunctive queries through the paper's pipeline.
//!
//! Execution proceeds in four stages:
//!
//! 1. **Atom binding** — each body atom becomes a relation over *variable*
//!    attributes: constants select, repeated variables within an atom filter,
//!    columns are renamed to their variables.
//! 2. **Planning** — the bound relations form a database scheme (hyperedges
//!    = each atom's variable set). Per connected component, an optimizer
//!    picks a join tree, and Algorithms 1–2 compile it to a program.
//! 3. **Execution** — the programs run with §2.3 cost accounting; component
//!    results are combined (a Cartesian product *across* components is
//!    semantically forced, not an ordering accident).
//! 4. **Projection** — the full join is projected onto the head variables.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use crate::minimize::{differential_validate, minimize};
use crate::storage::{NamedDatabase, StoredRelation};
use mjoin_analyze::{memory_report, AnalysisCx, Certificate};
use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::{agm_ln, bound_u64, DbScheme};
use mjoin_optimizer::{greedy, optimize, EstimateOracle, SearchSpace};
use mjoin_program::{execute_with, ExecConfig, Program, SharedIndexCache};
use mjoin_relation::{
    ops, tsv, AttrId, Catalog, CostLedger, Database, Error, Relation, Result, Row, Schema, Value,
};
use mjoin_wcoj::{select, wcoj_join, ExecutorKind};
use std::sync::Arc;

/// How to choose each component's join tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Greedy smallest-result with the avoid-Cartesian rule (default).
    Greedy,
    /// Exact DP over all trees (exponential; small components only).
    DpOptimal,
    /// Exact DP over CPF trees.
    DpCpf,
    /// Exact DP over linear (left-deep) trees.
    DpLinear,
}

/// Execution knobs beyond the planning strategy: which executor runs each
/// component, how many threads a program execution may use, an optional
/// shared index cache (the resident server's — hash indices and sorted
/// tries both live in it), and whether to core-minimize the query first.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Executor choice ([`ExecutorKind::Program`] is the default; `Auto`
    /// compares bounds per component).
    pub executor: ExecutorKind,
    /// Threads for program execution (`0`/`1` = sequential).
    pub threads: usize,
    /// Shared index cache for trie views (WCOJ path). `None` builds
    /// per-query throwaway tries.
    pub cache: Option<SharedIndexCache>,
    /// Core-minimize the query before binding (**on** by default; the
    /// `--minimize=off` opt-out). Rewrites are applied only under a
    /// verified two-way homomorphism proof plus differential execution
    /// against the unminimized query on generated databases.
    pub minimize: bool,
    /// Per-statement memory budget in bytes. When set, each component's
    /// derived program gets a static memory certificate
    /// ([`mjoin_analyze::memory_report`]) and any join whose certified
    /// build-side bytes exceed the budget runs the Grace-hash spill path —
    /// decided before execution starts, never at runtime. `None` (the
    /// default) keeps every statement in memory.
    pub mem_budget: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            executor: ExecutorKind::default(),
            threads: 0,
            cache: None,
            minimize: true,
            mem_budget: None,
        }
    }
}

/// What core minimization did to a query, with the hypergraph bounds it
/// moved: AGM fractional-cover bounds of the query's join hypergraph
/// (stored relation sizes, constants not yet applied) before and after.
#[derive(Debug, Clone)]
pub struct MinimizeSummary {
    /// Body atoms before minimization.
    pub atoms_before: usize,
    /// Body atoms in the compiled core.
    pub atoms_after: usize,
    /// The dropped atoms, rendered.
    pub dropped: Vec<String>,
    /// AGM bound of the original query's hypergraph.
    pub agm_before: u64,
    /// AGM bound of the core's hypergraph (equal when nothing dropped).
    pub agm_after: u64,
}

/// How one connected component of a query was executed, with the bounds
/// that justified the choice (populated in `auto` mode; a forced executor
/// reports only what it computed).
#[derive(Debug, Clone)]
pub struct ComponentDecision {
    /// The component, as a relation-index set (e.g. `{0, 2}`).
    pub component: String,
    /// The executor the component actually ran on (never `Auto`).
    pub executor: ExecutorKind,
    /// AGM bound of the component hypergraph, when computed.
    pub agm_bound: Option<u64>,
    /// Theorem-2 certificate bound of the chosen program (evaluated with
    /// AGM sub-bounds), when a program was derived.
    pub cert_bound: Option<u64>,
}

/// The answer to a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result relation over the head variables' attributes.
    pub relation: Relation,
    /// Attribute id of each head variable, in head order.
    pub head_attrs: Vec<AttrId>,
    /// The query-side catalog (variable names).
    pub catalog: Catalog,
    /// Total §2.3 cost across binding, programs, and projection.
    pub ledger: CostLedger,
    /// What minimization did (`None` when it was skipped — opted out,
    /// single-atom body, or unresolvable predicates).
    pub minimize: Option<MinimizeSummary>,
}

impl QueryResult {
    /// Result tuples with columns in *head-variable order* (the relation
    /// itself stores canonical order), sorted for determinism.
    pub fn rows_in_head_order(&self) -> Vec<Vec<Value>> {
        let positions = self.head_positions();
        let mut rows: Vec<Vec<Value>> = self
            .relation
            .rows()
            .iter()
            .map(|r| positions.iter().map(|&p| r[p].clone()).collect())
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Write the answer as TSV: the head variables as the header, then the
    /// result tuples in head-variable order (a repeated head variable
    /// repeats its column), sorted like [`QueryResult::rows_in_head_order`],
    /// cells escaped so string values round-trip through
    /// [`tsv::relation_from_tsv`]. The one TSV writer for query answers,
    /// rendered straight from the result's columns.
    pub fn write_tsv<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let header: Vec<&str> = self
            .head_attrs
            .iter()
            .map(|&a| self.catalog.name(a))
            .collect();
        tsv::columns_to_tsv_writer(&header, &self.relation, &self.head_positions(), out)
    }

    /// Each head variable's column position in the result relation.
    fn head_positions(&self) -> Vec<usize> {
        self.head_attrs
            .iter()
            .map(|&a| {
                self.relation
                    .schema()
                    .position(a)
                    .expect("head attr in result")
            })
            .collect()
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }
}

/// The stored relation an atom names, checked against the atom's arity.
fn stored_for<'a>(ndb: &'a NamedDatabase, atom: &Atom) -> Result<&'a StoredRelation> {
    let stored = ndb
        .get(&atom.predicate)
        .ok_or_else(|| Error::Parse(format!("unknown relation `{}`", atom.predicate)))?;
    if atom.terms.len() != stored.columns.len() {
        return Err(Error::ArityMismatch {
            expected: stored.columns.len(),
            got: atom.terms.len(),
        });
    }
    Ok(stored)
}

/// Bind one atom column-wise: produce a relation over its variables'
/// attributes (interned into `qcat` in first-use order) without copying
/// the stored tuples where the atom only renames them.
///
/// An atom of distinct variables is a pure [`ops::rename`], sharing the
/// stored columns. Constants and repeated variables go through
/// [`ops::select_where`], then [`ops::project`] onto each variable's
/// first-use column, then the rename. All-constant atoms bind to the
/// nullary unit (condition true) or the empty nullary relation (condition
/// false).
pub fn bind_atom(ndb: &NamedDatabase, atom: &Atom, qcat: &mut Catalog) -> Result<Relation> {
    let stored = stored_for(ndb, atom)?;
    // Stored attribute of each variable's first use → the variable.
    let mut mapping: Vec<(AttrId, AttrId)> = Vec::new();
    let mut first_use: Vec<(&str, usize)> = Vec::new();
    let mut consts: Vec<(usize, &Value)> = Vec::new();
    let mut repeats: Vec<(usize, usize)> = Vec::new();
    for (i, term) in atom.terms.iter().enumerate() {
        let pos = stored.canonical_position(i);
        match term {
            Term::Const(v) => consts.push((pos, v)),
            Term::Var(name) => match first_use.iter().find(|(n, _)| n == name) {
                Some(&(_, first)) => repeats.push((first, pos)),
                None => {
                    first_use.push((name, pos));
                    mapping.push((stored.columns[i], qcat.intern(name)));
                }
            },
        }
    }
    if consts.is_empty() && repeats.is_empty() {
        return ops::rename(&stored.relation, &mapping);
    }
    let selected = ops::select_where(&stored.relation, |row| {
        consts.iter().all(|&(p, v)| row[p] == *v) && repeats.iter().all(|&(p, q)| row[p] == row[q])
    });
    let firsts: Vec<AttrId> = mapping.iter().map(|&(from, _)| from).collect();
    ops::rename(&ops::project(&selected, &firsts)?, &mapping)
}

/// Reference binder for [`execute_query_naive`]: the same contract as
/// [`bind_atom`], computed one stored row at a time so the differential
/// oracle shares no binding code with the executor it checks.
pub fn bind_atom_reference(
    ndb: &NamedDatabase,
    atom: &Atom,
    qcat: &mut Catalog,
) -> Result<Relation> {
    let stored = stored_for(ndb, atom)?;

    // For each term, the canonical position of its column in the stored rows.
    let positions: Vec<usize> = (0..atom.terms.len())
        .map(|i| stored.canonical_position(i))
        .collect();

    // Variables in first-use order, with the positions they must agree on.
    let mut var_attrs: Vec<AttrId> = Vec::new();
    let mut var_first_pos: Vec<usize> = Vec::new();
    let mut checks: Vec<(usize, usize)> = Vec::new(); // equal-position pairs
    let mut const_checks: Vec<(usize, Value)> = Vec::new();
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(v) => const_checks.push((positions[i], v.clone())),
            Term::Var(name) => match seen.iter().find(|(n, _)| n == name) {
                Some(&(_, first)) => checks.push((positions[first], positions[i])),
                None => {
                    seen.push((name, i));
                    var_attrs.push(qcat.intern(name));
                    var_first_pos.push(positions[i]);
                }
            },
        }
    }

    let out_schema = Schema::new(var_attrs.clone());
    // Destination position of each variable's value in the canonical output.
    let dest: Vec<usize> = var_attrs
        .iter()
        .map(|&a| out_schema.position(a).expect("interned"))
        .collect();

    let mut out_rows: Vec<Row> = Vec::new();
    'rows: for row in stored.relation.rows() {
        for (pos, v) in &const_checks {
            if &row[*pos] != v {
                continue 'rows;
            }
        }
        for (p1, p2) in &checks {
            if row[*p1] != row[*p2] {
                continue 'rows;
            }
        }
        let mut out = vec![Value::Int(0); var_attrs.len()];
        for (vi, &src) in var_first_pos.iter().enumerate() {
            out[dest[vi]] = row[src].clone();
        }
        out_rows.push(out.into());
    }
    Relation::from_rows(out_schema, out_rows)
}

/// Execute `query` against `ndb` on the default (program) executor.
pub fn execute_query(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    strategy: PlanStrategy,
) -> Result<QueryResult> {
    execute_query_with(ndb, query, strategy, &ExecOptions::default()).map(|(r, _)| r)
}

/// Execute `query` against `ndb` with explicit executor options, returning
/// the per-component executor decisions alongside the result (for
/// `--explain`-style surfaces).
pub fn execute_query_with(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    strategy: PlanStrategy,
    opts: &ExecOptions,
) -> Result<(QueryResult, Vec<ComponentDecision>)> {
    if !query.is_safe() {
        return Err(Error::Parse("unsafe query".to_string()));
    }

    // Stage 0: core minimization (opt-out). Only attempted when every
    // predicate resolves (so unknown-relation/arity errors surface exactly
    // as they would unminimized), and only applied under a verified two-way
    // homomorphism proof *plus* differential execution of original vs core
    // on small generated databases.
    let (core, min_summary) = minimize_for_compile(ndb, query, opts);
    let query = core.as_ref().unwrap_or(query);

    let mut qcat = Catalog::new();
    let mut ledger = CostLedger::new();
    let mut decisions: Vec<ComponentDecision> = Vec::new();

    // Stage 1: bind atoms. Boolean (nullary) bindings fold into a flag.
    let mut bound: Vec<Relation> = Vec::new();
    let mut boolean_false = false;
    for atom in &query.body {
        let rel = bind_atom(ndb, atom, &mut qcat)?;
        ledger.charge_input(format!("bind {atom}"), rel.len());
        if rel.schema().is_empty() {
            if rel.is_empty() {
                boolean_false = true;
            }
            // A satisfied all-constant atom adds no join constraint.
        } else {
            bound.push(rel);
        }
    }

    let head_attrs: Vec<AttrId> = query
        .head_vars
        .iter()
        .map(|v| {
            qcat.lookup(v)
                .ok_or_else(|| Error::Parse(format!("head variable `{v}` unbound")))
        })
        .collect::<Result<_>>()?;
    let head_schema = Schema::new(head_attrs.clone());

    if boolean_false || bound.iter().any(mjoin_relation::Relation::is_empty) {
        return Ok((
            QueryResult {
                relation: Relation::empty(head_schema),
                head_attrs,
                catalog: qcat,
                ledger,
                minimize: min_summary,
            },
            decisions,
        ));
    }
    if bound.is_empty() {
        // All atoms were satisfied constants: the answer is the unit.
        return Ok((
            QueryResult {
                relation: Relation::nullary_unit(),
                head_attrs,
                catalog: qcat,
                ledger,
                minimize: min_summary,
            },
            decisions,
        ));
    }

    // Stage 2+3: per connected component, plan and run either executor.
    let db = Database::from_relations(bound);
    let scheme = DbScheme::from_schemas(&db.schemas());
    let mut full = Relation::nullary_unit();
    for comp in scheme.components(scheme.all()) {
        let indices = comp.to_vec();
        let comp_db = db.restrict(&indices);
        let comp_scheme = DbScheme::from_schemas(&comp_db.schemas());
        let comp_result = if indices.len() == 1 {
            Arc::new(comp_db.relation(0).clone())
        } else {
            let (result, decision) = run_component(
                &comp_scheme,
                &comp_db,
                &qcat,
                strategy,
                opts,
                &comp.to_string(),
                &mut ledger,
            )?;
            decisions.push(decision);
            result
        };
        // Cross-component combination: a forced Cartesian product.
        full = ops::join(&full, &comp_result);
        ledger.charge_generated(format!("combine component {comp}"), full.len());
    }

    // Stage 4: the head projection.
    let relation = ops::project(&full, head_schema.attrs())?;
    ledger.charge_generated("head projection", relation.len());
    Ok((
        QueryResult {
            relation,
            head_attrs,
            catalog: qcat,
            ledger,
            minimize: min_summary,
        },
        decisions,
    ))
}

/// Differential-validation budget: beyond this many body atoms, the naive
/// validator could get expensive, so compile trusts the (already verified)
/// homomorphism proof alone.
const DIFF_VALIDATE_MAX_ATOMS: usize = 8;

/// Stage 0 of [`execute_query_with`]: compute the core and decide whether to
/// compile it. Returns the replacement query (if any) and the summary for
/// the result (if minimization ran at all).
fn minimize_for_compile(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    opts: &ExecOptions,
) -> (Option<ConjunctiveQuery>, Option<MinimizeSummary>) {
    let resolvable = query.body.iter().all(|atom| {
        ndb.get(&atom.predicate)
            .is_some_and(|s| s.columns.len() == atom.terms.len())
    });
    if !opts.minimize || query.body.len() < 2 || !resolvable {
        return (None, None);
    }
    let m = minimize(query);
    if !m.proof.verified {
        return (None, None);
    }
    if m.proof.dropped.is_empty() {
        let agm = query_agm_bound(ndb, &query.body);
        return (
            None,
            Some(MinimizeSummary {
                atoms_before: query.body.len(),
                atoms_after: query.body.len(),
                dropped: Vec::new(),
                agm_before: agm,
                agm_after: agm,
            }),
        );
    }
    // Dynamic check on top of the static proof; a failure (which a verified
    // proof rules out, but the check is cheap insurance) rejects the rewrite.
    if query.body.len() <= DIFF_VALIDATE_MAX_ATOMS
        && differential_validate(query, &m.core, 0x517c_c1b7_2722_0a95, 2).is_err()
    {
        return (None, None);
    }
    let summary = MinimizeSummary {
        atoms_before: query.body.len(),
        atoms_after: m.core.body.len(),
        dropped: m
            .proof
            .dropped
            .iter()
            .map(|&i| query.body[i].to_string())
            .collect(),
        agm_before: query_agm_bound(ndb, &query.body),
        agm_after: query_agm_bound(ndb, &m.core.body),
    };
    (Some(m.core), Some(summary))
}

/// AGM fractional-cover bound of a query's join hypergraph, evaluated with
/// *stored* relation sizes (before constant selection): one hyperedge per
/// atom with at least one variable, weighted by its relation's cardinality.
/// All-constant atoms contribute nothing; a body with no variables bounds
/// at 1 (the nullary unit).
pub fn query_agm_bound(ndb: &NamedDatabase, body: &[Atom]) -> u64 {
    let mut cat = Catalog::new();
    let mut schemas: Vec<Schema> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    for atom in body {
        let vars = atom.variables();
        if vars.is_empty() {
            continue;
        }
        let attrs: Vec<AttrId> = vars.iter().map(|v| cat.intern(v)).collect();
        schemas.push(Schema::new(attrs));
        let size = ndb.get(&atom.predicate).map_or(0, |s| s.relation.len());
        sizes.push(size as u64);
    }
    if schemas.is_empty() {
        return 1;
    }
    let scheme = DbScheme::from_schemas(&schemas);
    bound_u64(agm_ln(&scheme, scheme.all(), &sizes))
}

/// Run one multi-relation component on the executor `opts` calls for.
///
/// `Auto` derives the strategy-chosen program first, computes its Theorem-2
/// certificate, and compares the certificate bound (evaluated with AGM
/// sub-bounds) against the component's AGM bound — WCOJ runs exactly when
/// its bound is strictly smaller (see [`mjoin_wcoj::select`]). Ties and
/// wins go to the program path, preserving the engine's §2.3 cost story.
fn run_component(
    comp_scheme: &DbScheme,
    comp_db: &Database,
    qcat: &Catalog,
    strategy: PlanStrategy,
    opts: &ExecOptions,
    comp_name: &str,
    ledger: &mut CostLedger,
) -> Result<(Arc<Relation>, ComponentDecision)> {
    let sizes: Vec<u64> = comp_db.relations().iter().map(|r| r.len() as u64).collect();
    let run_wcoj = |ledger: &mut CostLedger| -> Arc<Relation> {
        let rel = wcoj_join(comp_scheme, comp_db, opts.cache.as_ref());
        ledger.charge_generated(format!("wcoj over component {comp_name}"), rel.len());
        Arc::new(rel)
    };
    // The CQ path never evaluates the input tree `T₁`: it needs the
    // derived program's result and §2.3 cost, not Theorem 2's comparison.
    let run_program = |program: &Program, ledger: &mut CostLedger| -> Arc<Relation> {
        let mut cfg = ExecConfig::with_threads(opts.threads);
        if let Some(budget) = opts.mem_budget {
            cfg.mem_budget = Some(budget);
            // Certify the derived program and gate the spill path on the
            // certificate — an unanalyzable program (which the pipeline
            // never produces) just runs unspilled.
            if let Ok(cx) = AnalysisCx::new(program, comp_scheme, qcat) {
                let plan = memory_report(&cx, &sizes).spill_plan(budget);
                if plan.any() {
                    cfg.spill = Some(Arc::new(plan));
                }
            }
        }
        let exec = execute_with(program, comp_db, &cfg);
        // Program cost minus the inputs (already charged at binding).
        ledger.charge_generated(
            format!("program over component {comp_name}"),
            (exec.cost() - comp_db.total_tuples()) as usize,
        );
        exec.result
    };
    let derive_program = || -> Result<Program> {
        let tree = pick_tree(comp_scheme, comp_db, strategy)?;
        derive(comp_scheme, &tree)
            .map(|d| d.program)
            .map_err(|e| Error::Parse(e.to_string()))
    };

    match opts.executor {
        ExecutorKind::Wcoj => {
            let agm = bound_u64(agm_ln(comp_scheme, comp_scheme.all(), &sizes));
            Ok((
                run_wcoj(ledger),
                ComponentDecision {
                    component: comp_name.to_string(),
                    executor: ExecutorKind::Wcoj,
                    agm_bound: Some(agm),
                    cert_bound: None,
                },
            ))
        }
        ExecutorKind::Program => {
            let program = derive_program()?;
            Ok((
                run_program(&program, ledger),
                ComponentDecision {
                    component: comp_name.to_string(),
                    executor: ExecutorKind::Program,
                    agm_bound: None,
                    cert_bound: None,
                },
            ))
        }
        ExecutorKind::Auto => {
            let program = derive_program()?;
            let cx = AnalysisCx::new(&program, comp_scheme, qcat)
                .map_err(|e| Error::Parse(e.to_string()))?;
            let cert = Certificate::compute(&cx);
            let sel = select(comp_scheme, &sizes, &cert);
            let result = if sel.use_wcoj {
                run_wcoj(ledger)
            } else {
                run_program(&program, ledger)
            };
            Ok((
                result,
                ComponentDecision {
                    component: comp_name.to_string(),
                    executor: if sel.use_wcoj {
                        ExecutorKind::Wcoj
                    } else {
                        ExecutorKind::Program
                    },
                    agm_bound: Some(sel.agm_bound),
                    cert_bound: Some(sel.cert_bound),
                },
            ))
        }
    }
}

/// Reference executor: bind atoms row by row ([`bind_atom_reference`]),
/// fold-join them naively (in body order, Cartesian products and all),
/// project. Used as the differential-testing oracle for [`execute_query`];
/// do not use it for anything performance sensitive.
pub fn execute_query_naive(ndb: &NamedDatabase, query: &ConjunctiveQuery) -> Result<Relation> {
    if !query.is_safe() {
        return Err(Error::Parse("unsafe query".to_string()));
    }
    let mut qcat = Catalog::new();
    let mut acc = Relation::nullary_unit();
    for atom in &query.body {
        let rel = bind_atom_reference(ndb, atom, &mut qcat)?;
        acc = ops::join(&acc, &rel);
    }
    let head_attrs: Vec<AttrId> = query
        .head_vars
        .iter()
        .map(|v| {
            qcat.lookup(v)
                .ok_or_else(|| Error::Parse(format!("head variable `{v}` unbound")))
        })
        .collect::<Result<_>>()?;
    ops::project(&acc, Schema::new(head_attrs).attrs())
}

fn pick_tree(scheme: &DbScheme, db: &Database, strategy: PlanStrategy) -> Result<JoinTree> {
    // Estimation-based tree search (the same call the server's query path
    // makes): the exact oracle would *materialize* every candidate subjoin
    // it ranks — including the Cartesian pairs the greedy scan probes —
    // which on queries with repeated predicates costs more than the join
    // being planned.
    let mut oracle = EstimateOracle::new(scheme, db);
    let tree = match strategy {
        PlanStrategy::Greedy => greedy(scheme, &mut oracle, true).0,
        PlanStrategy::DpOptimal => {
            optimize(scheme, &mut oracle, SearchSpace::All)
                .ok_or_else(|| Error::Parse("empty search space".to_string()))?
                .tree
        }
        PlanStrategy::DpCpf => {
            optimize(scheme, &mut oracle, SearchSpace::Cpf)
                .ok_or_else(|| Error::Parse("empty CPF search space".to_string()))?
                .tree
        }
        PlanStrategy::DpLinear => {
            optimize(scheme, &mut oracle, SearchSpace::Linear)
                .ok_or_else(|| Error::Parse("empty linear search space".to_string()))?
                .tree
        }
    };
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn graph_db() -> NamedDatabase {
        let mut db = NamedDatabase::new();
        db.add_relation(
            "edge",
            &["src", "dst"],
            &[&[1, 2], &[2, 3], &[3, 4], &[4, 1], &[2, 5]],
        )
        .unwrap();
        db.add_relation(
            "label",
            &["node", "tag"],
            &[&[2, 100], &[3, 100], &[5, 200]],
        )
        .unwrap();
        db
    }

    fn run(db: &NamedDatabase, text: &str) -> QueryResult {
        let q = parse_query(text).unwrap();
        execute_query(db, &q, PlanStrategy::Greedy).unwrap()
    }

    #[test]
    fn two_hop_paths() {
        let db = graph_db();
        let res = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        let rows = res.rows_in_head_order();
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(3)]));
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(5)]));
        assert!(rows.contains(&vec![Value::Int(4), Value::Int(2)]));
        assert_eq!(rows.len(), 5); // 1→3, 1→5, 2→4, 3→1, 4→2
    }

    #[test]
    fn triangle_query_on_cycle() {
        // The 4-cycle has no triangle.
        let db = graph_db();
        let res = run(&db, "Q(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).");
        assert!(res.is_empty());
    }

    #[test]
    fn four_cycle_query() {
        let db = graph_db();
        let res = run(
            &db,
            "Q(a, b, c, d) :- edge(a, b), edge(b, c), edge(c, d), edge(d, a).",
        );
        assert_eq!(res.len(), 4); // the 4-cycle, from each starting point
    }

    #[test]
    fn constants_select() {
        let db = graph_db();
        let res = run(&db, "Q(x) :- edge(x, y), label(y, 100).");
        let rows = res.rows_in_head_order();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a", "b"], &[&[1, 1], &[1, 2], &[3, 3]])
            .unwrap();
        let res = run(&db, "Q(x) :- r(x, x).");
        assert_eq!(
            res.rows_in_head_order(),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn boolean_query() {
        let db = graph_db();
        let yes = run(&db, "Q() :- edge(x, y), label(y, 200).");
        assert_eq!(yes.len(), 1);
        let no = run(&db, "Q() :- edge(x, y), label(y, 999).");
        assert!(no.is_empty());
    }

    #[test]
    fn all_constant_atom_is_a_condition() {
        let db = graph_db();
        let yes = run(&db, "Q(x) :- edge(x, 2), label(2, 100).");
        assert_eq!(yes.rows_in_head_order(), vec![vec![Value::Int(1)]]);
        let no = run(&db, "Q(x) :- edge(x, 2), label(2, 999).");
        assert!(no.is_empty());
    }

    #[test]
    fn disconnected_components_cross_product() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a"], &[&[1], &[2]]).unwrap();
        db.add_relation("s", &["b"], &[&[10]]).unwrap();
        let res = run(&db, "Q(x, y) :- r(x), s(y).");
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn strategies_agree() {
        let db = graph_db();
        let q = parse_query("Q(x, z) :- edge(x, y), edge(y, z), label(z, t).").unwrap();
        let a = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        let b = execute_query(&db, &q, PlanStrategy::DpOptimal).unwrap();
        let c = execute_query(&db, &q, PlanStrategy::DpCpf).unwrap();
        let d = execute_query(&db, &q, PlanStrategy::DpLinear).unwrap();
        assert_eq!(a.rows_in_head_order(), b.rows_in_head_order());
        assert_eq!(a.rows_in_head_order(), c.rows_in_head_order());
        assert_eq!(a.rows_in_head_order(), d.rows_in_head_order());
    }

    #[test]
    fn executors_agree_and_auto_reports_bounds() {
        let mut db = NamedDatabase::new();
        // A graph with triangles: 0–1–2, 0–2–3 share edge 0–2.
        db.add_relation(
            "e",
            &["a", "b"],
            &[&[0, 1], &[1, 2], &[0, 2], &[2, 3], &[0, 3], &[2, 0]],
        )
        .unwrap();
        let q = parse_query("Q(x, y, z) :- e(x, y), e(y, z), e(z, x).").unwrap();
        let prog = execute_query_with(&db, &q, PlanStrategy::Greedy, &ExecOptions::default())
            .unwrap()
            .0;
        let wcoj = execute_query_with(
            &db,
            &q,
            PlanStrategy::Greedy,
            &ExecOptions {
                executor: ExecutorKind::Wcoj,
                ..ExecOptions::default()
            },
        )
        .unwrap()
        .0;
        let (auto, decisions) = execute_query_with(
            &db,
            &q,
            PlanStrategy::Greedy,
            &ExecOptions {
                executor: ExecutorKind::Auto,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(prog.rows_in_head_order(), wcoj.rows_in_head_order());
        assert_eq!(prog.rows_in_head_order(), auto.rows_in_head_order());
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert!(d.agm_bound.is_some() && d.cert_bound.is_some());
        assert_ne!(
            d.executor,
            ExecutorKind::Auto,
            "auto resolves to a real executor"
        );
        // The invariant behind `auto`: the selected executor's stated bound
        // is never the strictly larger one.
        if d.executor == ExecutorKind::Wcoj {
            assert!(d.agm_bound.unwrap() < d.cert_bound.unwrap());
        } else {
            assert!(d.agm_bound.unwrap() >= d.cert_bound.unwrap());
        }
    }

    #[test]
    fn unknown_relation_and_bad_arity() {
        let db = graph_db();
        let q = parse_query("Q(x) :- nope(x).").unwrap();
        assert!(execute_query(&db, &q, PlanStrategy::Greedy).is_err());
        let q = parse_query("Q(x) :- edge(x).").unwrap();
        assert!(execute_query(&db, &q, PlanStrategy::Greedy).is_err());
    }

    #[test]
    fn cost_ledger_populated() {
        let db = graph_db();
        let res = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        assert!(res.ledger.total() > 0);
        assert!(res.ledger.input_total() >= 10); // two bindings of 5 edges
    }

    #[test]
    fn head_order_respected() {
        let db = graph_db();
        // Same query, reversed head: columns must come back reversed.
        let a = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        let b = run(&db, "Q(z, x) :- edge(x, y), edge(y, z).");
        let swapped: Vec<Vec<Value>> = {
            let mut v: Vec<Vec<Value>> = a
                .rows_in_head_order()
                .into_iter()
                .map(|r| vec![r[1].clone(), r[0].clone()])
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(b.rows_in_head_order(), swapped);
    }
}
