//! A small, deliberately naive reference implementation of every operator,
//! shared by the relation crate's differential suites.
//!
//! Each reference works tuple-at-a-time over the row view and by attribute
//! identity: nested loops for join and semijoin, `BTreeSet`s for projection
//! and the set operations, a row filter for selection, an attribute remap
//! for rename. It shares no code with the kernels under test — no hashing,
//! no column comparison, no selection vectors — so a kernel bug cannot hide
//! by being reproduced here.

#![allow(dead_code)] // each test binary uses a different subset

use mjoin_relation::{AttrId, Relation, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A reference result: the output schema and the tuple set, each tuple in
/// the schema's canonical column order.
pub type Tuples = BTreeSet<Vec<Value>>;

/// The value of `attr` in `row` over `schema`.
fn cell<'a>(schema: &Schema, row: &'a [Value], attr: AttrId) -> &'a Value {
    &row[schema.position(attr).expect("attr in schema")]
}

/// Whether two rows agree on every attribute their schemas share.
fn agree(ls: &Schema, l: &[Value], rs: &Schema, r: &[Value]) -> bool {
    ls.attrs()
        .iter()
        .filter(|&&a| rs.contains(a))
        .all(|&a| cell(ls, l, a) == cell(rs, r, a))
}

/// Nested-loop natural join: every pair of rows that agrees on the shared
/// attributes, spliced by attribute.
pub fn join(l: &Relation, r: &Relation) -> (Schema, Tuples) {
    let (ls, rs) = (l.schema(), r.schema());
    let out = ls.union(rs);
    let mut tuples = Tuples::new();
    for lrow in l.rows() {
        for rrow in r.rows() {
            if agree(ls, lrow, rs, rrow) {
                let t = out
                    .attrs()
                    .iter()
                    .map(|&a| {
                        if ls.contains(a) {
                            cell(ls, lrow, a).clone()
                        } else {
                            cell(rs, rrow, a).clone()
                        }
                    })
                    .collect();
                tuples.insert(t);
            }
        }
    }
    (out, tuples)
}

/// Any-match semijoin: the left rows that agree with at least one right row
/// (with disjoint schemas, every left row when the right side is nonempty).
pub fn semijoin(l: &Relation, r: &Relation) -> (Schema, Tuples) {
    let (ls, rs) = (l.schema(), r.schema());
    let tuples = l
        .rows()
        .iter()
        .filter(|lrow| r.rows().iter().any(|rrow| agree(ls, lrow, rs, rrow)))
        .map(|row| row.to_vec())
        .collect();
    (ls.clone(), tuples)
}

/// Projection onto `attrs`, deduplicated by the `BTreeSet`.
pub fn project(rel: &Relation, attrs: &[AttrId]) -> (Schema, Tuples) {
    let out = Schema::new(attrs.to_vec());
    let tuples = rel
        .rows()
        .iter()
        .map(|row| {
            out.attrs()
                .iter()
                .map(|&a| cell(rel.schema(), row, a).clone())
                .collect()
        })
        .collect();
    (out, tuples)
}

/// The tuple set of `rel`, as the reference reads it.
pub fn tuples(rel: &Relation) -> Tuples {
    rel.rows().iter().map(|row| row.to_vec()).collect()
}

/// `l ∪ r`, `l − r` and `l ∩ r` over `BTreeSet`s.
pub fn union(l: &Relation, r: &Relation) -> (Schema, Tuples) {
    let t = tuples(l).union(&tuples(r)).cloned().collect();
    (l.schema().clone(), t)
}

pub fn difference(l: &Relation, r: &Relation) -> (Schema, Tuples) {
    let t = tuples(l).difference(&tuples(r)).cloned().collect();
    (l.schema().clone(), t)
}

pub fn intersection(l: &Relation, r: &Relation) -> (Schema, Tuples) {
    let t = tuples(l).intersection(&tuples(r)).cloned().collect();
    (l.schema().clone(), t)
}

/// Selection as a plain row filter.
pub fn select(rel: &Relation, pred: impl Fn(&[Value]) -> bool) -> (Schema, Tuples) {
    let t = rel
        .rows()
        .iter()
        .filter(|row| pred(row))
        .map(|row| row.to_vec())
        .collect();
    (rel.schema().clone(), t)
}

/// Rename by remapping each cell's attribute, then reading the cells back
/// out in the new schema's canonical order.
pub fn rename(rel: &Relation, mapping: &[(AttrId, AttrId)]) -> (Schema, Tuples) {
    let to = |a: AttrId| {
        mapping
            .iter()
            .find(|(from, _)| *from == a)
            .map_or(a, |&(_, to)| to)
    };
    let out = Schema::new(rel.schema().attrs().iter().map(|&a| to(a)).collect());
    let tuples = rel
        .rows()
        .iter()
        .map(|row| {
            let by_attr: BTreeMap<AttrId, &Value> = rel
                .schema()
                .attrs()
                .iter()
                .zip(row.iter())
                .map(|(&a, v)| (to(a), v))
                .collect();
            out.attrs().iter().map(|a| by_attr[a].clone()).collect()
        })
        .collect();
    (out, tuples)
}

/// Assert that an operator's output is exactly the reference result: the
/// same schema, no duplicate rows, and the same tuple set.
pub fn assert_matches(got: &Relation, want: &(Schema, Tuples), what: &str) {
    assert_eq!(got.schema(), &want.0, "{what}: schema");
    assert_eq!(got.len(), got.rows().len(), "{what}: row count");
    let set = tuples(got);
    assert_eq!(set.len(), got.len(), "{what}: duplicate rows");
    assert_eq!(set, want.1, "{what}: tuples");
}
