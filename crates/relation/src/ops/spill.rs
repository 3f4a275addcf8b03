//! Grace-hash spill join: certificate-gated out-of-core execution.
//!
//! When the static memory certificate says a join's build side cannot fit
//! the configured budget, the executor routes the statement here instead of
//! the in-memory kernels: both operands are hash-partitioned by their
//! shared-key values into `p` temp files per side via the streaming TSV
//! writer, then each partition pair — 1/p of each input in expectation — is
//! read back and joined in memory with [`super::join`], and the per-pair
//! outputs are concatenated column by column. Rows that agree on the key
//! hash ([`key_hashes`]) to the same
//! partition index on both sides, so no join pair is ever split across
//! partitions and per-pair outputs are key-disjoint (hence globally
//! distinct).
//!
//! The selection is *static*: the caller decides from the memory
//! certificate's per-statement build-side bound, never from runtime sizes,
//! so in-memory plans pay no check at all. This module only knows how to
//! spill once asked.

use super::{join, join_key_positions, key_hashes};
use crate::column::Column;
use crate::relation::{Relation, Row};
use crate::tsv::{read_rows_tsv, write_row_tsv};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a spilled join did, for the `mem.*` trace counters.
///
/// Returned by value rather than traced here so this crate stays free of
/// the trace dependency; the executor turns these into `mem.partitions`
/// and `mem.spilled_bytes` counter bumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partition pairs joined (0 when the join never left memory).
    pub partitions: u64,
    /// Total TSV bytes written to spill files across both sides.
    pub spilled_bytes: u64,
}

/// A spill file that deletes itself on drop, so partitions never outlive
/// the statement — even on an error path or a panicking unwind.
struct TempFile {
    path: PathBuf,
}

impl TempFile {
    fn create() -> std::io::Result<(TempFile, BufWriter<File>)> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mjoin-spill-{}-{}.tsv",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let w = BufWriter::new(File::create(&path)?);
        Ok((TempFile { path }, w))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Partition `rel`'s rows by the hash of the values at `pos` into `p` spill
/// files. Returns the self-deleting file guards plus the bytes written.
fn partition_to_disk(
    rel: &Relation,
    pos: &[usize],
    p: usize,
) -> std::io::Result<(Vec<TempFile>, u64)> {
    let mut guards = Vec::with_capacity(p);
    let mut writers = Vec::with_capacity(p);
    for _ in 0..p {
        let (g, w) = TempFile::create()?;
        guards.push(g);
        writers.push(w);
    }
    let mut bytes = 0u64;
    for (row, h) in rel.rows().iter().zip(key_hashes(rel, pos)) {
        let k = (h as usize) % p;
        bytes += write_row_tsv(&mut writers[k], row)? as u64;
    }
    for mut w in writers {
        w.flush()?;
    }
    Ok((guards, bytes))
}

fn read_partition(f: &TempFile, arity: usize) -> std::io::Result<Vec<Row>> {
    let reader = BufReader::new(File::open(&f.path)?);
    read_rows_tsv(reader, arity).map_err(|e| std::io::Error::other(e.to_string()))
}

/// Grace-hash join `left ⋈ right` through `partitions` temp-file partition
/// pairs, holding at most one pair's rows in memory at a time (beyond the
/// operands themselves, which the caller already owns).
///
/// Produces exactly the relation the in-memory [`super::join`] would — the
/// differential suite holds the two paths against each other — plus the
/// spill statistics. An I/O failure (temp dir full, disk gone) surfaces as
/// `Err` so the caller can fall back to the in-memory path instead of
/// losing the query.
///
/// With an empty join key there is nothing to partition on (every row of a
/// Cartesian product would land in one partition); the certificate-driven
/// caller keeps such statements in memory, and this degenerates gracefully
/// to the ordinary join with zeroed stats.
pub fn grace_hash_join(
    left: &Relation,
    right: &Relation,
    partitions: usize,
) -> std::io::Result<(Relation, SpillStats)> {
    let (lpos, rpos) = join_key_positions(left.schema(), right.schema());
    if lpos.is_empty() {
        return Ok((super::join(left, right), SpillStats::default()));
    }
    let p = partitions.max(1);
    let out_schema = left.schema().union(right.schema());
    let (lfiles, lbytes) = partition_to_disk(left, &lpos, p)?;
    let (rfiles, rbytes) = partition_to_disk(right, &rpos, p)?;
    let (larity, rarity) = (left.schema().arity(), right.schema().arity());
    let mut outputs: Vec<Relation> = Vec::new();
    for k in 0..p {
        let lrows = read_partition(&lfiles[k], larity)?;
        if lrows.is_empty() {
            continue;
        }
        let rrows = read_partition(&rfiles[k], rarity)?;
        if rrows.is_empty() {
            continue;
        }
        let lpart = Relation::from_distinct_rows(left.schema().clone(), lrows);
        let rpart = Relation::from_distinct_rows(right.schema().clone(), rrows);
        outputs.push(join(&lpart, &rpart));
    }
    // Partition outputs are key-disjoint, hence distinct across pairs.
    let nrows: usize = outputs.iter().map(Relation::len).sum();
    let all: Vec<Vec<u32>> = outputs
        .iter()
        .map(|o| (0..o.len() as u32).collect())
        .collect();
    let cols: Vec<Column> = (0..out_schema.arity())
        .map(|c| {
            let parts: Vec<(&Column, &[u32])> = outputs
                .iter()
                .zip(&all)
                .map(|(o, ids)| (&o.columns()[c], ids.as_slice()))
                .collect();
            Column::concat_gathered(&parts)
        })
        .collect();
    let rel = Relation::from_distinct_columns(out_schema, nrows, cols);
    Ok((
        rel,
        SpillStats {
            partitions: p as u64,
            spilled_bytes: lbytes + rbytes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::super::join;
    use super::*;
    use crate::attr::Catalog;
    use crate::relation_of_ints;
    use crate::schema::Schema;
    use crate::value::Value;

    #[test]
    fn spill_matches_in_memory_join_at_every_partition_count() {
        let mut c = Catalog::new();
        let r_rows: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
        let s_rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i % 7, i * 3]).collect();
        let rr: Vec<&[i64]> = r_rows.iter().map(Vec::as_slice).collect();
        let sr: Vec<&[i64]> = s_rows.iter().map(Vec::as_slice).collect();
        let r = relation_of_ints(&mut c, "AB", &rr).unwrap();
        let s = relation_of_ints(&mut c, "BC", &sr).unwrap();
        let expect = join(&r, &s);
        for p in [1usize, 2, 4, 8, 16] {
            let (got, stats) = grace_hash_join(&r, &s, p).unwrap();
            assert_eq!(got, expect, "diverged at {p} partitions");
            assert_eq!(stats.partitions, p as u64);
            assert!(stats.spilled_bytes > 0);
        }
    }

    #[test]
    fn hostile_strings_survive_the_disk_roundtrip() {
        let mut c = Catalog::new();
        let ab = Schema::from_chars(&mut c, "AB");
        let bc = Schema::from_chars(&mut c, "BC");
        let hostile = ["tab\there", "line\nbreak", "007", "", "  padded  "];
        let lrows = hostile
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::str(*s)].into())
            .collect();
        let rrows = hostile
            .iter()
            .map(|s| vec![Value::str(*s), Value::str(format!("v:{s}"))].into())
            .collect();
        let l = Relation::from_rows(ab, lrows).unwrap();
        let r = Relation::from_rows(bc, rrows).unwrap();
        let expect = join(&l, &r);
        assert_eq!(expect.len(), hostile.len());
        let (got, _) = grace_hash_join(&l, &r, 4).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_side_yields_empty() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
        let (got, stats) = grace_hash_join(&r, &empty, 4).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.schema().arity(), 3);
        assert_eq!(stats.partitions, 4);
    }

    #[test]
    fn disjoint_schemas_degenerate_to_plain_join() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "A", &[&[1], &[2]]).unwrap();
        let s = relation_of_ints(&mut c, "B", &[&[10], &[20]]).unwrap();
        let (got, stats) = grace_hash_join(&r, &s, 4).unwrap();
        assert_eq!(got, join(&r, &s));
        assert_eq!(stats, SpillStats::default(), "no partitioning happened");
    }

    #[test]
    fn temp_files_are_removed_on_drop() {
        let (guard, mut w) = TempFile::create().unwrap();
        w.write_all(b"1\t2\n").unwrap();
        w.flush().unwrap();
        drop(w);
        let path = guard.path.clone();
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "spill file leaked: {}", path.display());
    }
}
