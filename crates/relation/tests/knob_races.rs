//! Regression test for the racy lazy initialization of the process-wide
//! `par_cutoff` tuning knob.
//!
//! The original implementation seeded the knob from the environment with a
//! check-then-store on a relaxed atomic: a first reader could load the
//! "uninitialized" sentinel, get preempted, and store the env-derived
//! default *after* a concurrent `set_par_cutoff` override — silently
//! clobbering it. A resident server hits this on its very first concurrent
//! sessions. The fix seeds the env default through a `OnceLock` and keeps
//! runtime overrides in an atomic that readers never store to, making the
//! clobber impossible by construction; this test hammers the old
//! interleaving to keep it that way.

use mjoin_relation::ops::{par_cutoff, set_par_cutoff};
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn overrides_survive_racing_first_readers() {
    // Remember the effective value so the process-global knob is left as
    // we found it (other tests in this binary would observe it).
    let prev_cutoff = par_cutoff();

    const ROUNDS: usize = 200;
    const READERS: usize = 4;
    for round in 0..ROUNDS {
        let want = 100 + round; // distinct per round, never the default
        let barrier = Arc::new(Barrier::new(READERS + 1));
        thread::scope(|s| {
            for _ in 0..READERS {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Under the old code a reader here could store the env
                    // default over a concurrent override.
                    let _ = par_cutoff();
                });
            }
            barrier.wait();
            set_par_cutoff(want);
        });
        // Once every reader has joined, the override must still be in
        // effect: readers must never write the knob.
        assert_eq!(
            par_cutoff(),
            want,
            "round {round}: racing first readers clobbered set_par_cutoff"
        );
    }

    set_par_cutoff(prev_cutoff);
}
