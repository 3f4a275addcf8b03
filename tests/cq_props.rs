//! Property tests for the conjunctive-query front end: the pipeline-backed
//! executor must agree with the naive fold-join reference on random graph
//! databases and a family of query shapes, under every plan strategy; and
//! the column-wise atom binder must agree with the row-at-a-time reference
//! binder the oracle uses.

use mjoin::cq::{
    bind_atom, bind_atom_reference, execute_query, execute_query_naive, parse_query, Atom,
    ConjunctiveQuery, NamedDatabase, PlanStrategy, Term,
};
use mjoin::relation::{ops, Catalog, Value};
use proptest::prelude::*;

/// The value domain of the binding cases: mixed integers and strings, so
/// dictionary columns and the Int/Str ordering are both exercised.
fn value_of(code: u8) -> Value {
    match code {
        0..=2 => Value::Int(i64::from(code)),
        3 => Value::str("s"),
        _ => Value::str("t"),
    }
}

/// A term code: `0..3` are the variables `x`, `y`, `z`; the rest are
/// constants drawn from the value domain.
fn term_of(code: u8) -> Term {
    match code {
        0 => Term::Var("x".to_string()),
        1 => Term::Var("y".to_string()),
        2 => Term::Var("z".to_string()),
        c => Term::Const(value_of(c - 3)),
    }
}

/// One binding case: a stored relation `r` of arity 1–3 (possibly empty)
/// and a two-atom query over it whose terms mix constants and repeated
/// variables, with a head that may repeat a variable (`Q(x, x)`).
fn bind_case() -> impl Strategy<Value = (NamedDatabase, ConjunctiveQuery)> {
    (
        1usize..4,
        prop::collection::vec((0u8..5, 0u8..5, 0u8..5), 0..14),
        prop::collection::vec(0u8..8, 6),
        prop::collection::vec(0usize..8, 0..4),
    )
        .prop_map(|(arity, rows, terms, head)| {
            let mut db = NamedDatabase::new();
            let tuples: Vec<Vec<Value>> = rows
                .iter()
                .map(|&(a, b, c)| [a, b, c][..arity].iter().map(|&v| value_of(v)).collect())
                .collect();
            db.add_relation_values("r", &["a", "b", "c"][..arity], tuples)
                .unwrap();
            let body: Vec<Atom> = terms
                .chunks(3)
                .map(|chunk| Atom {
                    predicate: "r".to_string(),
                    terms: chunk[..arity].iter().map(|&c| term_of(c)).collect(),
                })
                .collect();
            let mut q = ConjunctiveQuery {
                head_name: "Q".to_string(),
                head_vars: Vec::new(),
                body,
            };
            let vars = q.body_variables();
            if !vars.is_empty() {
                q.head_vars = head
                    .iter()
                    .map(|&i| vars[i % vars.len()].to_string())
                    .collect();
            }
            (db, q)
        })
}

/// Random edge relation + unary label relation.
fn db_strategy() -> impl Strategy<Value = NamedDatabase> {
    (
        prop::collection::vec((0i64..8, 0i64..8), 1..40),
        prop::collection::vec((0i64..8, 0i64..3), 1..12),
    )
        .prop_map(|(edges, labels)| {
            let mut db = NamedDatabase::new();
            let erefs: Vec<Vec<i64>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
            let eslice: Vec<&[i64]> = erefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("e", &["s", "d"], &eslice).unwrap();
            let lrefs: Vec<Vec<i64>> = labels.iter().map(|&(n, t)| vec![n, t]).collect();
            let lslice: Vec<&[i64]> = lrefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("l", &["n", "t"], &lslice).unwrap();
            db
        })
}

const QUERIES: &[&str] = &[
    "Q(x, z) :- e(x, y), e(y, z).",
    "Q(x) :- e(x, x).",
    "Q(x, y, z) :- e(x, y), e(y, z), e(z, x).",
    "Q(a, d) :- e(a, b), e(b, c), e(c, d).",
    "Q(x, t) :- e(x, y), l(y, t).",
    "Q(x) :- e(x, y), l(y, 1).",
    "Q() :- e(x, y), l(x, 0), l(y, 1).",
    "Q(x, w) :- e(x, y), e(z, w), l(y, 0), l(z, 0).",
    "Q(a, c) :- e(a, b), e(b, c), e(a, c).",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pipeline_matches_naive_reference(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let expected = execute_query_naive(&db, &q).unwrap();
        for strategy in [PlanStrategy::Greedy, PlanStrategy::DpOptimal, PlanStrategy::DpCpf] {
            let res = execute_query(&db, &q, strategy).unwrap();
            prop_assert_eq!(
                &res.relation, &expected,
                "query {} under {:?}", QUERIES[qidx], strategy
            );
        }
    }

    #[test]
    fn result_schema_is_head_schema(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let res = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        prop_assert_eq!(res.relation.schema().arity(), {
            let mut vars = q.head_vars.clone();
            vars.sort();
            vars.dedup();
            vars.len()
        });
        // rows_in_head_order yields |head| columns.
        for row in res.rows_in_head_order() {
            prop_assert_eq!(row.len(), q.head_vars.len());
        }
    }

    #[test]
    fn answers_are_sound(db in db_strategy()) {
        // Every reported 2-hop answer must be witnessed by actual edges.
        let q = parse_query("Q(x, z) :- e(x, y), e(y, z).").unwrap();
        let res = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        let edges = db.get("e").unwrap();
        let spos = edges.canonical_position(0);
        let dpos = edges.canonical_position(1);
        for row in res.rows_in_head_order() {
            let witnessed = edges.relation.rows().iter().any(|e1| {
                e1[spos] == row[0]
                    && edges
                        .relation
                        .rows()
                        .iter()
                        .any(|e2| e2[spos] == e1[dpos] && e2[dpos] == row[1])
            });
            prop_assert!(witnessed, "unsound answer {row:?}");
        }
        let _ = ops::join; // keep the ops import meaningful under cfg changes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columnar_bind_matches_reference_bind((db, q) in bind_case()) {
        let mut columnar = Catalog::new();
        let mut reference = Catalog::new();
        for atom in &q.body {
            let got = bind_atom(&db, atom, &mut columnar).unwrap();
            let want = bind_atom_reference(&db, atom, &mut reference).unwrap();
            prop_assert_eq!(&got, &want, "atom {}", atom);
        }
        for v in q.body_variables() {
            prop_assert_eq!(columnar.lookup(v), reference.lookup(v));
        }

        // The whole query: the executor over the columnar binder agrees
        // with the naive oracle over the reference binder, and the answer
        // TSV is the oracle's head-order rows, sorted, under the head.
        let res = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        let oracle = execute_query_naive(&db, &q).unwrap();
        let head_pos: Vec<usize> = q
            .head_vars
            .iter()
            .map(|v| oracle.schema().position(reference.lookup(v).unwrap()).unwrap())
            .collect();
        let mut rows: Vec<Vec<Value>> = oracle
            .rows()
            .iter()
            .map(|r| head_pos.iter().map(|&p| r[p].clone()).collect())
            .collect();
        rows.sort_unstable();
        prop_assert_eq!(res.rows_in_head_order(), rows.clone(), "query {}", q);
        let mut expect = q.head_vars.join("\t");
        expect.push('\n');
        for row in &rows {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            expect.push_str(&cells.join("\t"));
            expect.push('\n');
        }
        let mut tsv: Vec<u8> = Vec::new();
        res.write_tsv(&mut tsv).unwrap();
        prop_assert_eq!(String::from_utf8(tsv).unwrap(), expect, "query {}", q);
    }
}
