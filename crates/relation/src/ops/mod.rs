//! Relational operators: natural join, semijoin, projection, selection, and
//! the set operations.
//!
//! All operators are hash-based and operate positionally: attribute-name
//! resolution happens once per operator call, never per tuple, and every
//! kernel runs batch-at-a-time over the column-major storage (see the
//! `columnar` module). Each operator documents its relationship to the
//! paper's statements (§2.2) and cost model (§2.3); cost accounting itself
//! lives in [`crate::cost`] and is done by the callers that orchestrate
//! evaluation.

mod columnar;
mod hashtable;
mod index;
mod join;
mod par_join;
mod project;
mod rename;
mod select;
mod semijoin;
mod setops;
mod spill;
mod trie;

pub use index::{
    par_join_indexed, par_join_indexed_cutoff, par_semijoin_indexed, par_semijoin_indexed_cutoff,
    JoinIndex,
};
pub use join::{join, join_key_positions};
pub use par_join::{par_join, par_join_cutoff};
pub use project::{par_project, par_project_cutoff, project};
pub use rename::rename;
pub use select::{select_eq, select_where};
pub use semijoin::{par_semijoin, par_semijoin_cutoff, semijoin};
pub use setops::{difference, intersection, union};
pub use spill::{grace_hash_join, SpillStats};
pub use trie::TrieIndex;

pub use columnar::key_hashes;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default parallel/sequential cutoff: below this row count the parallel
/// operators fall back to their sequential counterparts — partitioning and
/// task-queue overhead dominate until inputs reach a few thousand rows
/// (PR 2's trace timings put the crossover between 2k and 8k rows on the
/// benchmarked workloads, so the default stays at 4096).
pub const SMALL: usize = 4096;

/// Runtime override of the cutoff. `usize::MAX` means "no override": reads
/// fall through to the once-only environment seed [`par_cutoff_env`].
/// Readers never store here, so a concurrent [`set_par_cutoff`] can never
/// be clobbered by a racing first read (the old check-then-store
/// initialization lost exactly that race in long-lived multi-session
/// processes).
static PAR_CUTOFF_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The environment-seeded cutoff, read exactly once per process.
fn par_cutoff_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MJOIN_PAR_CUTOFF")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(SMALL)
    })
}

/// The process-wide parallel/sequential cutoff in rows.
///
/// Seeded once from the `MJOIN_PAR_CUTOFF` environment variable (behind a
/// `OnceLock`; [`SMALL`] when unset or unparsable) and overridable at
/// runtime with [`set_par_cutoff`]. `mjoin_program::ExecConfig` snapshots
/// this as its default and threads it through every operator call, so
/// per-run overrides don't need process-global state.
pub fn par_cutoff() -> usize {
    let v = PAR_CUTOFF_OVERRIDE.load(Ordering::Relaxed);
    if v != usize::MAX {
        return v;
    }
    par_cutoff_env()
}

/// Override the process-wide cutoff (0 forces the parallel paths on for
/// any input size; large values force the sequential paths).
pub fn set_par_cutoff(rows: usize) {
    // usize::MAX is the "no override" sentinel; clamp just below it so a
    // caller asking for "always sequential" doesn't erase its own override.
    PAR_CUTOFF_OVERRIDE.store(rows.min(usize::MAX - 1), Ordering::Relaxed);
}
