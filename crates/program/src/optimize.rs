//! Dead-code elimination for programs.
//!
//! A program's observable output is its declared result register, so any
//! statement whose head is overwritten before being read again — or never
//! read on a path to the result — can be removed without changing `P(D)`.
//! The §2.3 cost only ever decreases (every removed statement was a charged
//! head). Algorithm 2's output has no dead statements, but ablated programs
//! and hand-written ones (e.g. running a full reducer for a single target
//! relation) do.

use crate::dataflow::Liveness;
use crate::program::Program;

/// Remove dead statements: those whose head cannot reach the result.
///
/// The keep/drop decisions are exactly [`Liveness::compute`]'s `live_stmts`
/// — one backward bitset sweep, linear in program size rather than the
/// historical `Vec::contains` scan that was quadratic on wide programs.
/// Liveness is seeded and propagated through alias-chain read closures, so
/// a statement feeding the result only via an unwritten variable's
/// `temp_init` chain is correctly kept (the old direct-register seed
/// dropped it). Unread alias initializations are preserved (they cost
/// nothing).
pub fn eliminate_dead_code(program: &Program) -> Program {
    let keep = Liveness::compute(program).live_stmts;

    // Live registers at entry that are aliased temps keep reading through
    // their init — the interpreter handles that, nothing to rewrite.
    let stmts = program
        .stmts
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(s, _)| s.clone())
        .collect();
    Program {
        num_bases: program.num_bases,
        temp_names: program.temp_names.clone(),
        temp_init: program.temp_init.clone(),
        stmts,
        result: program.result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::program::ProgramBuilder;
    use crate::stmt::Reg;
    use crate::validate::validate;
    use mjoin_hypergraph::DbScheme;
    use mjoin_relation::{relation_of_ints, Catalog, Database};

    fn setup() -> (Catalog, DbScheme, Database) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC", "CD"]);
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &[&[1, 2], &[8, 9]]).unwrap(),
            relation_of_ints(&mut c, "BC", &[&[2, 3]]).unwrap(),
            relation_of_ints(&mut c, "CD", &[&[3, 4]]).unwrap(),
        ]);
        (c, s, db)
    }

    #[test]
    fn removes_unreachable_statement() {
        let _serial = crate::trace_lock();
        let (_c, s, db) = setup();
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        let w = b.new_temp("W");
        b.join(w, Reg::Base(1), Reg::Base(2)); // never used afterwards
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let q = eliminate_dead_code(&p);
        assert_eq!(q.len(), 2);
        validate(&q, &s).unwrap();
        assert_eq!(execute(&q, &db).result, execute(&p, &db).result);
        assert!(execute(&q, &db).cost() < execute(&p, &db).cost());
    }

    #[test]
    fn keeps_semijoin_chains() {
        let _serial = crate::trace_lock();
        let (_c, s, db) = setup();
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(v, Reg::Base(1)); // reduces V, read by the next join
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let q = eliminate_dead_code(&p);
        assert_eq!(q.len(), 3, "all statements feed the result");
        assert_eq!(execute(&q, &db).result, execute(&p, &db).result);
    }

    #[test]
    fn removes_overwritten_head() {
        let _serial = crate::trace_lock();
        let (c, s, db) = setup();
        let mut b = ProgramBuilder::new(&s);
        let f = b.new_temp("F");
        let battr = mjoin_relation::AttrSet::singleton(c.lookup("B").unwrap());
        b.project(f, Reg::Base(0), battr.clone()); // overwritten below, dead
        b.project(f, Reg::Base(1), battr);
        let p = b.finish(f);
        let q = eliminate_dead_code(&p);
        assert_eq!(q.len(), 1);
        assert_eq!(execute(&q, &db).result, execute(&p, &db).result);
    }

    #[test]
    fn empty_and_fully_live_programs_unchanged() {
        let (_c, s, _db) = setup();
        let b = ProgramBuilder::new(&s);
        let p = b.finish(Reg::Base(0));
        assert_eq!(eliminate_dead_code(&p), p);
    }

    /// The pre-bitset implementation (seed = the result register itself,
    /// gen = direct reads, `Vec::contains` live set), kept as the
    /// differential oracle for the liveness rewrite.
    fn reference_vec_contains(program: &Program) -> Vec<bool> {
        use crate::stmt::Reg;
        let mut live: Vec<Reg> = vec![program.result];
        let mut keep = vec![false; program.stmts.len()];
        for (i, stmt) in program.stmts.iter().enumerate().rev() {
            let head = stmt.head();
            if !live.contains(&head) {
                continue;
            }
            keep[i] = true;
            if !stmt.is_semijoin() {
                live.retain(|&x| x != head);
            }
            for r in stmt.reads() {
                if !live.contains(&r) {
                    live.push(r);
                }
            }
        }
        keep
    }

    /// Random program generator shared by the differential tests (same
    /// shape as the schedule equivalence suite's).
    fn random_program(seed: u64) -> Program {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC", "CD", "DE", "EF", "FA"]);
        let mut b = ProgramBuilder::new(&s);
        let mut regs: Vec<Reg> = (0..6).map(Reg::Base).collect();
        for t in 0..3 {
            let src = regs[rng.gen_range(0..regs.len())];
            regs.push(b.new_temp_alias(format!("V{t}"), src));
        }
        let temps: Vec<Reg> = regs.iter().copied().filter(|r| r.is_temp()).collect();
        for _ in 0..rng.gen_range(5..40usize) {
            let a = regs[rng.gen_range(0..regs.len())];
            let c = regs[rng.gen_range(0..regs.len())];
            if rng.gen_bool(0.5) {
                b.semijoin(a, c);
            } else {
                b.join(temps[rng.gen_range(0..temps.len())], a, c);
            }
        }
        b.finish(regs[rng.gen_range(0..regs.len())])
    }

    #[test]
    fn bitset_liveness_matches_vec_contains_reference() {
        use crate::dataflow::Liveness;
        let mut agreements = 0;
        for seed in 0..120u64 {
            let p = random_program(seed);
            let new = Liveness::compute(&p).live_stmts;
            let old = reference_vec_contains(&p);
            // The closure-based analysis can only keep MORE: it treats the
            // alias chain of every read (and of the result) as read, where
            // the reference saw only direct registers.
            for (i, (&n, &o)) in new.iter().zip(&old).enumerate() {
                assert!(n || !o, "seed {seed}: stmt {i} kept by old, dropped by new");
            }
            if new == old {
                agreements += 1;
            }
        }
        // The analyses agree byte-for-byte except where alias chains are in
        // play — the generator builds alias-heavy programs on purpose, so a
        // substantial majority (not all) must still match exactly.
        assert!(agreements >= 60, "only {agreements}/120 agreed");
    }

    #[test]
    fn dce_preserves_semantics_on_random_programs() {
        let _serial = crate::trace_lock();
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC", "CD", "DE", "EF", "FA"]);
        let schemes = ["AB", "BC", "CD", "DE", "EF", "FA"];
        for seed in 0..40u64 {
            let p = random_program(seed);
            let q = eliminate_dead_code(&p);
            validate(&q, &s).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
            let rels = schemes
                .iter()
                .map(|sch| {
                    let rows: Vec<Vec<i64>> = (0..12)
                        .map(|_| vec![rng.gen_range(0..3), rng.gen_range(0..3)])
                        .collect();
                    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
                    relation_of_ints(&mut c, sch, &refs).unwrap()
                })
                .collect();
            let db = Database::from_relations(rels);
            assert_eq!(
                execute(&q, &db).result,
                execute(&p, &db).result,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn alias_only_result_keeps_its_feeding_statement() {
        let _serial = crate::trace_lock();
        // Regression for the pre-bitset bug: the result is an unwritten
        // variable aliasing Base(0); the statement reducing Base(0) feeds
        // the result only through the alias chain and must be kept.
        let (_c, s, db) = setup();
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        let p = b.finish(v);
        let q = eliminate_dead_code(&p);
        assert_eq!(q.len(), 1, "the semijoin is live through the alias");
        assert_eq!(execute(&q, &db).result, execute(&p, &db).result);
        // The old direct-register analysis dropped it — and changed P(D).
        assert_eq!(reference_vec_contains(&p), vec![false]);
    }

    #[test]
    fn dead_base_semijoin_removed_when_result_elsewhere() {
        let _serial = crate::trace_lock();
        // A full-reducer-like program asked only for one relation: the
        // semijoins into other bases are dead for that query.
        let (_c, s, db) = setup();
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(1), Reg::Base(0)); // BC ⋉ AB
        b.semijoin(Reg::Base(2), Reg::Base(1)); // CD ⋉ BC
        b.semijoin(Reg::Base(0), Reg::Base(1)); // AB ⋉ BC  (feeds result)
        let p = b.finish(Reg::Base(0));
        let q = eliminate_dead_code(&p);
        // CD ⋉ BC cannot affect Base(0); the other two can.
        assert_eq!(q.len(), 2);
        assert_eq!(execute(&q, &db).result, execute(&p, &db).result);
    }
}
