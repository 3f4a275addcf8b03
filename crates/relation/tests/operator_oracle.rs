//! Differential suite: every operator against the naive reference in
//! `reference/`, on random relations with integer, string and mixed
//! columns, sequentially and at 1/2/4/8 threads with the parallel cutoff
//! forced to zero, plus the prebuilt-index and spill paths.
//!
//! The kernels find join partners by 64-bit key hash and only then compare
//! key cells, so a broken key comparison hides behind the hash unless two
//! distinct keys collide. The `c` column kind plants such collisions (see
//! [`colliding_int`]), which every operator must resolve by comparison.

mod reference;

use mjoin_relation::fxhash::mix;
use mjoin_relation::ops;
use mjoin_relation::{Catalog, Relation, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::assert_matches;
use std::sync::Arc;

/// The integer whose stable hash equals the string `s`'s. An integer
/// hashes to one `mix` step from zero, `mix(0, v) = v · K` for an odd
/// constant `K = mix(0, 1)`, so `v = hash(s) · K⁻¹ (mod 2⁶⁴)`.
fn colliding_int(s: &str) -> Value {
    let k = mix(0, 1);
    // Newton's iteration for the inverse of an odd number mod 2⁶⁴: the
    // seed `k` is right to 3 bits, and each step doubles that.
    let mut inv = k;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(inv)));
    }
    let target = Value::str(s).stable_hash();
    let v = Value::Int(target.wrapping_mul(inv) as i64);
    assert_eq!(v.stable_hash(), target, "no integer collides with {s:?}");
    v
}

/// A random relation over single-letter attributes. `kinds` has one letter
/// per attribute of `scheme`, in written order: `i` draws small integers,
/// `s` strings from a small alphabet, and `m` mixes the two in one column
/// (including the integer-looking string `"3"`, which must never equal the
/// integer 3). `c` draws either the string `"c{v}"` or the distinct integer
/// with the same hash, so keys collide without being equal. Values come
/// from `0..fanout`, so joins and dedup both fire often.
fn random_rel(
    c: &mut Catalog,
    scheme: &str,
    kinds: &str,
    rows: usize,
    fanout: i64,
    rng: &mut StdRng,
) -> Relation {
    let ids = c.intern_chars(scheme);
    assert_eq!(ids.len(), kinds.len(), "one kind per attribute");
    let schema = Schema::new(ids.clone());
    let dest: Vec<usize> = ids
        .iter()
        .map(|&id| schema.position(id).expect("interned"))
        .collect();
    let mut out: Vec<Row> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = vec![Value::Int(0); ids.len()];
        for (&d, kind) in dest.iter().zip(kinds.chars()) {
            let v = rng.gen_range(0..fanout);
            row[d] = match kind {
                'i' => Value::Int(v),
                's' => Value::str(format!("s{v}")),
                'm' if rng.gen_bool(0.5) => Value::Int(v),
                'm' => Value::str(v.to_string()),
                'c' if rng.gen_bool(0.5) => Value::str(format!("c{v}")),
                'c' => colliding_int(&format!("c{v}")),
                other => panic!("unknown column kind {other:?}"),
            };
        }
        out.push(row.into());
    }
    Relation::from_rows(schema, out).unwrap()
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn joins_match_nested_loop() {
    let mut rng = StdRng::seed_from_u64(0x10);
    for (seed, (lk, rk)) in [("ii", "ii"), ("is", "si"), ("im", "mi"), ("mm", "mi")]
        .into_iter()
        .enumerate()
    {
        let mut c = Catalog::new();
        let r = random_rel(&mut c, "AB", lk, 300, 30, &mut rng);
        let s = random_rel(&mut c, "BC", rk, 250, 30, &mut rng);
        let want = reference::join(&r, &s);
        assert_matches(&ops::join(&r, &s), &want, &format!("join, case {seed}"));
        assert_matches(
            &ops::join(&s, &r),
            &want,
            &format!("join flipped, case {seed}"),
        );
        for threads in THREADS {
            let got = ops::par_join_cutoff(&r, &s, threads, 0);
            assert_matches(&got, &want, &format!("par_join t={threads}, case {seed}"));
        }
    }
}

#[test]
fn cartesian_and_multikey_joins_match_nested_loop() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut c = Catalog::new();
    let a = random_rel(&mut c, "A", "i", 40, 60, &mut rng);
    let b = random_rel(&mut c, "B", "s", 30, 60, &mut rng);
    let want = reference::join(&a, &b);
    assert_eq!(want.1.len(), a.len() * b.len());
    assert_matches(&ops::join(&a, &b), &want, "cartesian");
    for threads in THREADS {
        let got = ops::par_join_cutoff(&a, &b, threads, 0);
        assert_matches(&got, &want, &format!("cartesian t={threads}"));
    }

    // Two key columns of different encodings: a bug that checks only one
    // key column joins rows that agree on A but not on B.
    for (lk, rk) in [("isi", "isi"), ("mii", "imi")] {
        let l = random_rel(&mut c, "ABX", lk, 400, 6, &mut rng);
        let r = random_rel(&mut c, "ABY", rk, 350, 6, &mut rng);
        let want = reference::join(&l, &r);
        assert_matches(&ops::join(&l, &r), &want, &format!("multi-key {lk}/{rk}"));
        for threads in THREADS {
            let got = ops::par_join_cutoff(&l, &r, threads, 0);
            assert_matches(&got, &want, &format!("multi-key {lk}/{rk} t={threads}"));
        }
    }

    // Joining with an empty side, and with the nullary unit.
    let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
    assert_matches(
        &ops::join(&b, &empty),
        &reference::join(&b, &empty),
        "empty",
    );
    let unit = Relation::nullary_unit();
    assert_matches(&ops::join(&a, &unit), &reference::join(&a, &unit), "unit");
}

#[test]
fn semijoins_match_any_match_filter() {
    let mut rng = StdRng::seed_from_u64(11);
    for (seed, (lk, rk)) in [("ii", "ii"), ("ii", "si"), ("is", "mi"), ("iim", "mi")]
        .into_iter()
        .enumerate()
    {
        let mut c = Catalog::new();
        let lscheme = if lk.len() == 3 { "ABC" } else { "AB" };
        let l = random_rel(&mut c, lscheme, lk, 400, 25, &mut rng);
        let r = random_rel(&mut c, "BD", rk, 200, 25, &mut rng);
        let want = reference::semijoin(&l, &r);
        assert_matches(
            &ops::semijoin(&l, &r),
            &want,
            &format!("semijoin, case {seed}"),
        );
        for threads in THREADS {
            let got = ops::par_semijoin_cutoff(&l, &r, threads, 0);
            assert_matches(
                &got,
                &want,
                &format!("par_semijoin t={threads}, case {seed}"),
            );
        }
        // Disjoint-schema degenerate cases.
        let d = random_rel(&mut c, "XY", "is", 20, 10, &mut rng);
        assert_matches(
            &ops::semijoin(&l, &d),
            &reference::semijoin(&l, &d),
            "disjoint",
        );
        let empty = Relation::empty(d.schema().clone());
        let want = reference::semijoin(&l, &empty);
        assert_matches(&ops::semijoin(&l, &empty), &want, "disjoint empty");
    }

    // A two-column semijoin key.
    let mut c = Catalog::new();
    let l = random_rel(&mut c, "ABC", "ism", 500, 5, &mut rng);
    let r = random_rel(&mut c, "ABD", "isi", 60, 5, &mut rng);
    let want = reference::semijoin(&l, &r);
    assert_matches(&ops::semijoin(&l, &r), &want, "multi-key semijoin");
    for threads in THREADS {
        let got = ops::par_semijoin_cutoff(&l, &r, threads, 0);
        assert_matches(&got, &want, &format!("multi-key par_semijoin t={threads}"));
    }
}

#[test]
fn projections_match_btreeset() {
    let mut rng = StdRng::seed_from_u64(23);
    for kinds in ["iis", "smi", "mmm"] {
        let mut c = Catalog::new();
        let r = random_rel(&mut c, "ABC", kinds, 800, 7, &mut rng);
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let cc = c.lookup("C").unwrap();
        for attrs in [
            vec![a],
            vec![b],
            vec![a, cc],
            vec![cc, b],
            vec![a, b, cc],
            vec![],
        ] {
            let want = reference::project(&r, &attrs);
            let what = format!("project {kinds} {attrs:?}");
            assert_matches(&ops::project(&r, &attrs).unwrap(), &want, &what);
            for threads in THREADS {
                let got = ops::par_project_cutoff(&r, &attrs, threads, 0).unwrap();
                assert_matches(&got, &want, &format!("par_{what} t={threads}"));
            }
        }
    }
}

#[test]
fn selections_and_set_operations_match_reference() {
    let mut rng = StdRng::seed_from_u64(31);
    for kinds in ["is", "mi", "sm"] {
        let mut c = Catalog::new();
        let r = random_rel(&mut c, "AB", kinds, 300, 8, &mut rng);
        let s = random_rel(&mut c, "AB", kinds, 250, 8, &mut rng);
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();

        for (attr, pos, v) in [
            (a, 0, Value::Int(3)),
            (a, 0, Value::str("3")),
            (b, 1, Value::str("s5")),
            (b, 1, Value::Int(5)),
        ] {
            let want = reference::select(&r, |row| row[pos] == v);
            let got = ops::select_eq(&r, attr, &v).unwrap();
            assert_matches(&got, &want, &format!("select_eq {kinds} {v:?}"));
        }
        let pred =
            |row: &[Value]| matches!(row[0], Value::Int(i) if i % 2 == 0) || row[1] == row[0];
        let want = reference::select(&r, pred);
        assert_matches(
            &ops::select_where(&r, pred),
            &want,
            &format!("select_where {kinds}"),
        );

        let what = |op: &str| format!("{op} {kinds}");
        assert_matches(
            &ops::union(&r, &s).unwrap(),
            &reference::union(&r, &s),
            &what("union"),
        );
        let want = reference::difference(&r, &s);
        assert_matches(
            &ops::difference(&r, &s).unwrap(),
            &want,
            &what("difference"),
        );
        let want = reference::intersection(&r, &s);
        assert_matches(
            &ops::intersection(&r, &s).unwrap(),
            &want,
            &what("intersection"),
        );
        // Against itself and against the empty relation.
        let empty = Relation::empty(r.schema().clone());
        assert_matches(
            &ops::union(&r, &empty).unwrap(),
            &reference::union(&r, &empty),
            "∪ ∅",
        );
        let want = reference::difference(&r, &r);
        assert_matches(&ops::difference(&r, &r).unwrap(), &want, "r − r");
        let want = reference::intersection(&r, &r);
        assert_matches(&ops::intersection(&r, &r).unwrap(), &want, "r ∩ r");
    }
}

#[test]
fn renames_match_attribute_remap() {
    let mut rng = StdRng::seed_from_u64(37);
    let mut c = Catalog::new();
    let r = random_rel(&mut c, "ABC", "ism", 200, 8, &mut rng);
    let a = c.lookup("A").unwrap();
    let b = c.lookup("B").unwrap();
    let cc = c.lookup("C").unwrap();
    let z = c.intern("Z");
    for mapping in [
        vec![(a, z)],
        vec![(a, b), (b, a)],
        vec![(a, b), (b, cc), (cc, z)],
        vec![],
    ] {
        let want = reference::rename(&r, &mapping);
        let got = ops::rename(&r, &mapping).unwrap();
        assert_matches(&got, &want, &format!("rename {mapping:?}"));
    }
    // A rename that reorders columns, then a join against the original.
    let shifted = ops::rename(&r, &[(a, b), (b, cc), (cc, z)]).unwrap();
    let want = reference::join(&r, &shifted);
    assert_matches(&ops::join(&r, &shifted), &want, "self-join via rename");
}

#[test]
fn indexed_paths_match_reference() {
    let mut rng = StdRng::seed_from_u64(47);
    for (lk, rk) in [("ii", "ii"), ("si", "is"), ("mi", "im")] {
        let mut c = Catalog::new();
        let l = random_rel(&mut c, "AB", lk, 300, 30, &mut rng);
        let r = random_rel(&mut c, "BC", rk, 250, 30, &mut rng);
        let key_l = ops::join_key_positions(l.schema(), r.schema()).0;
        let key_r = ops::join_key_positions(r.schema(), l.schema()).0;
        let want_join = reference::join(&l, &r);
        let want_semi = reference::semijoin(&l, &r);
        let idx_l = ops::JoinIndex::build(Arc::new(l.clone()), key_l);
        let idx_r = ops::JoinIndex::build(Arc::new(r.clone()), key_r);
        for threads in THREADS {
            let what = format!("{lk}/{rk} t={threads}");
            let got = ops::par_join_indexed_cutoff(&idx_l, &r, threads, 0);
            assert_matches(&got, &want_join, &format!("indexed join {what}"));
            let got = ops::par_semijoin_indexed_cutoff(&l, &idx_r, threads, 0);
            assert_matches(&got, &want_semi, &format!("indexed semijoin {what}"));
        }
    }

    // A two-column index key.
    let mut c = Catalog::new();
    let l = random_rel(&mut c, "ABX", "mis", 300, 5, &mut rng);
    let r = random_rel(&mut c, "ABY", "imi", 250, 5, &mut rng);
    let key_l = ops::join_key_positions(l.schema(), r.schema()).0;
    let idx = ops::JoinIndex::build(Arc::new(l.clone()), key_l);
    let want = reference::join(&l, &r);
    for threads in THREADS {
        let got = ops::par_join_indexed_cutoff(&idx, &r, threads, 0);
        assert_matches(&got, &want, &format!("multi-key indexed join t={threads}"));
    }
}

#[test]
fn grace_spill_matches_nested_loop() {
    let mut rng = StdRng::seed_from_u64(53);
    for (lk, rk) in [("ii", "ii"), ("sm", "mi")] {
        let mut c = Catalog::new();
        let l = random_rel(&mut c, "AB", lk, 200, 20, &mut rng);
        let r = random_rel(&mut c, "BC", rk, 150, 20, &mut rng);
        let want = reference::join(&l, &r);
        for parts in [1, 3, 8] {
            let (got, _) = ops::grace_hash_join(&l, &r, parts).unwrap();
            assert_matches(&got, &want, &format!("grace {lk}/{rk} p={parts}"));
        }
    }
}

#[test]
fn hash_collisions_resolve_by_key_comparison() {
    let mut rng = StdRng::seed_from_u64(59);
    let mut c = Catalog::new();
    // Two-column keys whose cells collide in either position: a comparison
    // that skips any key column pairs rows that only share a hash.
    let l = random_rel(&mut c, "ABX", "cci", 300, 3, &mut rng);
    let r = random_rel(&mut c, "ABY", "cci", 250, 3, &mut rng);
    let want_join = reference::join(&l, &r);
    let want_semi = reference::semijoin(&l, &r);
    assert_matches(&ops::join(&l, &r), &want_join, "colliding join");
    assert_matches(&ops::semijoin(&l, &r), &want_semi, "colliding semijoin");
    let key_l = ops::join_key_positions(l.schema(), r.schema()).0;
    let key_r = ops::join_key_positions(r.schema(), l.schema()).0;
    let idx_l = ops::JoinIndex::build(Arc::new(l.clone()), key_l);
    let idx_r = ops::JoinIndex::build(Arc::new(r.clone()), key_r);
    for threads in THREADS {
        let got = ops::par_join_cutoff(&l, &r, threads, 0);
        assert_matches(&got, &want_join, &format!("colliding par_join t={threads}"));
        let got = ops::par_semijoin_cutoff(&l, &r, threads, 0);
        assert_matches(
            &got,
            &want_semi,
            &format!("colliding par_semijoin t={threads}"),
        );
        let got = ops::par_join_indexed_cutoff(&idx_l, &r, threads, 0);
        assert_matches(
            &got,
            &want_join,
            &format!("colliding indexed join t={threads}"),
        );
        let got = ops::par_semijoin_indexed_cutoff(&l, &idx_r, threads, 0);
        assert_matches(
            &got,
            &want_semi,
            &format!("colliding indexed semijoin t={threads}"),
        );
    }
    let (got, _) = ops::grace_hash_join(&l, &r, 4).unwrap();
    assert_matches(&got, &want_join, "colliding grace join");

    // Dedup and set membership compare whole projected rows.
    let a = c.lookup("A").unwrap();
    let b = c.lookup("B").unwrap();
    let want = reference::project(&l, &[a, b]);
    assert_matches(
        &ops::project(&l, &[a, b]).unwrap(),
        &want,
        "colliding project",
    );
    for threads in THREADS {
        let got = ops::par_project_cutoff(&l, &[a, b], threads, 0).unwrap();
        assert_matches(&got, &want, &format!("colliding par_project t={threads}"));
    }
    let p = random_rel(&mut c, "AB", "cc", 40, 3, &mut rng);
    let q = random_rel(&mut c, "AB", "cc", 40, 3, &mut rng);
    assert_matches(
        &ops::union(&p, &q).unwrap(),
        &reference::union(&p, &q),
        "colliding ∪",
    );
    let want = reference::difference(&p, &q);
    assert_matches(&ops::difference(&p, &q).unwrap(), &want, "colliding −");
    let want = reference::intersection(&p, &q);
    assert_matches(&ops::intersection(&p, &q).unwrap(), &want, "colliding ∩");
}
