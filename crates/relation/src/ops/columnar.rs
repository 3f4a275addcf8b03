//! The batch-at-a-time primitives every operator is built from. Each
//! operator works in three phases:
//!
//! 1. **Batch key hashing** ([`key_hashes`]): key hashes for *all* rows are
//!    computed by zipping column slices — a tight loop over one `i64`/`u32`
//!    vector per key attribute, with interned cells resolved by dictionary
//!    hash lookup. No per-row key materialization, no `Value` enum walks.
//! 2. **Selection-vector probing**: the [`RawTable`] is probed with the
//!    precomputed hashes; candidates verify positionally against column
//!    data ([`ids_eq`]) and survivors are collected as `u32` row-id vectors,
//!    never as rows.
//! 3. **Late materialization**: output columns are produced by gathering
//!    the selection vectors once per column ([`Column::gather`] /
//!    [`Column::concat_gathered`]); dictionary columns copy codes and share
//!    their pool with the input.
//!
//! A key hash is the [`mix`]-fold of the key cells'
//! [`crate::Value::stable_hash`]es, so it depends only on the cell values,
//! never on how a column happens to be encoded.

use super::hashtable::RawTable;
use crate::column::Column;
use crate::fxhash::mix;
use crate::relation::Relation;
use crate::schema::Schema;

/// The key hash of every row of `rel` at `positions`, batch-wise: one
/// mix-fold pass per key column over its packed payload slice.
pub fn key_hashes(rel: &Relation, positions: &[usize]) -> Vec<u64> {
    let cols = rel.columns();
    let mut acc = vec![0u64; rel.len()];
    for &p in positions {
        cols[p].hash_into(&mut acc, mix);
    }
    acc
}

/// Whether row `i` of `acols` (at `apos`) and row `j` of `bcols` (at `bpos`)
/// agree on their key (the collision check behind every [`RawTable`]
/// candidate).
#[inline]
pub(crate) fn ids_eq(
    acols: &[Column],
    apos: &[usize],
    i: usize,
    bcols: &[Column],
    bpos: &[usize],
    j: usize,
) -> bool {
    debug_assert_eq!(apos.len(), bpos.len());
    apos.iter()
        .zip(bpos)
        .all(|(&a, &b)| acols[a].cells_eq(i, &bcols[b], j))
}

/// Gather the rows in `ids` of `rel` into a new relation (all columns, one
/// gather each). The caller guarantees `ids` selects distinct rows.
pub(crate) fn gather_relation(rel: &Relation, ids: &[u32]) -> Relation {
    let cols: Vec<Column> = rel.columns().iter().map(|c| c.gather(ids)).collect();
    Relation::from_distinct_columns(rel.schema().clone(), ids.len(), cols)
}

/// A columnar hash-join, built once and probed in id batches: the build
/// side's [`RawTable`] over precomputed key hashes, plus the borrowed column
/// data both probe phases verify against. Read-only after construction, so
/// the parallel paths share one kernel across pool tasks.
pub(crate) struct ColJoin<'a> {
    bcols: &'a [Column],
    pcols: &'a [Column],
    bpos: &'a [usize],
    ppos: &'a [usize],
    table: RawTable,
}

impl<'a> ColJoin<'a> {
    /// Build over all rows of the build side.
    pub(crate) fn new(
        build: &'a Relation,
        probe: &'a Relation,
        bpos: &'a [usize],
        ppos: &'a [usize],
    ) -> Self {
        let bh = key_hashes(build, bpos);
        let mut table = RawTable::with_capacity(bh.len());
        for (i, &h) in bh.iter().enumerate() {
            table.insert(h, i as u32);
        }
        ColJoin {
            bcols: build.columns(),
            pcols: probe.columns(),
            bpos,
            ppos,
            table,
        }
    }

    /// Build over a subset of build rows (the radix co-partition path);
    /// `build_hashes` are global (indexed by row id).
    pub(crate) fn over_ids(
        build: &'a Relation,
        probe: &'a Relation,
        bpos: &'a [usize],
        ppos: &'a [usize],
        build_ids: &[u32],
        build_hashes: &[u64],
    ) -> Self {
        let mut table = RawTable::with_capacity(build_ids.len());
        for &i in build_ids {
            table.insert(build_hashes[i as usize], i);
        }
        ColJoin {
            bcols: build.columns(),
            pcols: probe.columns(),
            bpos,
            ppos,
            table,
        }
    }

    /// Probe rows `start..end` (with `probe_hashes` indexed globally),
    /// returning matched `(build_ids, probe_ids)` selection vectors.
    pub(crate) fn probe_range(
        &self,
        probe_hashes: &[u64],
        start: usize,
        end: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut bids: Vec<u32> = Vec::new();
        let mut pids: Vec<u32> = Vec::new();
        for (j, &hash) in probe_hashes.iter().enumerate().take(end).skip(start) {
            for bi in self.table.candidates(hash) {
                if ids_eq(self.bcols, self.bpos, bi, self.pcols, self.ppos, j) {
                    bids.push(bi as u32);
                    pids.push(j as u32);
                }
            }
        }
        (bids, pids)
    }

    /// Probe an explicit id list (the radix path).
    pub(crate) fn probe_ids(&self, ids: &[u32], probe_hashes: &[u64]) -> (Vec<u32>, Vec<u32>) {
        let mut bids: Vec<u32> = Vec::new();
        let mut pids: Vec<u32> = Vec::new();
        for &j in ids {
            let j = j as usize;
            for bi in self.table.candidates(probe_hashes[j]) {
                if ids_eq(self.bcols, self.bpos, bi, self.pcols, self.ppos, j) {
                    bids.push(bi as u32);
                    pids.push(j as u32);
                }
            }
        }
        (bids, pids)
    }
}

/// Late-materialize a join result from per-part `(build_ids, probe_ids)`
/// selection vectors: every output column is gathered exactly once, from
/// the probe side when the attribute is there (key attributes are equal on
/// both sides anyway), the build side otherwise.
pub(crate) fn materialize_join(
    build: &Relation,
    probe: &Relation,
    out_schema: &Schema,
    parts: &[(Vec<u32>, Vec<u32>)],
) -> Relation {
    let nrows: usize = parts.iter().map(|(b, _)| b.len()).sum();
    let bcols = build.columns();
    let pcols = probe.columns();
    let cols: Vec<Column> = out_schema
        .attrs()
        .iter()
        .map(|&a| match probe.schema().position(a) {
            Some(p) => Column::concat_gathered(
                &parts
                    .iter()
                    .map(|(_, pids)| (&pcols[p], pids.as_slice()))
                    .collect::<Vec<_>>(),
            ),
            None => {
                let p = build.schema().position(a).expect("attr from one side");
                Column::concat_gathered(
                    &parts
                        .iter()
                        .map(|(bids, _)| (&bcols[p], bids.as_slice()))
                        .collect::<Vec<_>>(),
                )
            }
        })
        .collect();
    // Output rows are distinct without explicit dedup: restricted to the
    // build schema an output row is its build row, restricted to the probe
    // schema its probe row, and input pairs are distinct.
    Relation::from_distinct_columns(out_schema.clone(), nrows, cols)
}

/// A membership filter: a key-deduplicated [`RawTable`] over one side's key
/// hashes, one entry per distinct key, so a probe needs only "is there any
/// hash-and-key match", never a chain walk over duplicates. Backs the
/// semijoin and the set operations.
pub(crate) struct KeyFilter<'a> {
    cols: &'a [Column],
    pos: &'a [usize],
    table: RawTable,
}

impl<'a> KeyFilter<'a> {
    pub(crate) fn new(rel: &'a Relation, pos: &'a [usize]) -> Self {
        let cols = rel.columns();
        let hashes = key_hashes(rel, pos);
        let mut table = RawTable::with_capacity(hashes.len());
        for (i, &h) in hashes.iter().enumerate() {
            if !table
                .candidates(h)
                .any(|j| ids_eq(cols, pos, j, cols, pos, i))
            {
                table.insert(h, i as u32);
            }
        }
        KeyFilter { cols, pos, table }
    }

    /// Distinct keys in the filter.
    pub(crate) fn keys(&self) -> usize {
        self.table.len()
    }

    /// The ids in `start..end` of `probe` (keyed at `ppos`, with
    /// `probe_hashes` indexed globally) whose key's presence in the filter
    /// is `present`.
    pub(crate) fn select_range(
        &self,
        probe: &Relation,
        ppos: &[usize],
        probe_hashes: &[u64],
        start: usize,
        end: usize,
        present: bool,
    ) -> Vec<u32> {
        let pcols = probe.columns();
        (start..end)
            .filter(|&j| {
                let found = self
                    .table
                    .candidates(probe_hashes[j])
                    .any(|i| ids_eq(self.cols, self.pos, i, pcols, ppos, j));
                found == present
            })
            .map(|j| j as u32)
            .collect()
    }
}

/// Contiguous `(start, end)` ranges covering `0..n` in `pieces` chunks.
pub(crate) fn split_ranges(n: usize, pieces: usize) -> Vec<(usize, usize)> {
    let pieces = pieces.clamp(1, n.max(1));
    let chunk = n.div_ceil(pieces);
    (0..pieces)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(n)))
        .filter(|(s, e)| s < e || n == 0)
        .collect()
}

/// Partition row ids `0..hashes.len()` by hash into `parts` id lists. Rows
/// that agree on the hashed key always land in the same list.
pub(crate) fn partition_ids(hashes: &[u64], parts: usize) -> Vec<Vec<u32>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (i, &h) in hashes.iter().enumerate() {
        out[(h as usize) % parts].push(i as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::relation::Row;
    use crate::relation_of_ints;
    use crate::value::Value;

    /// The per-row definition of a key hash that [`key_hashes`] computes
    /// batch-wise.
    fn hash_of(row: &Row, positions: &[usize]) -> u64 {
        positions
            .iter()
            .fold(0u64, |acc, &p| mix(acc, row[p].stable_hash()))
    }

    #[test]
    fn batch_hashes_match_row_hashes() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 10]]).unwrap();
        let pos = [1usize, 0];
        let batch = key_hashes(&r, &pos);
        for (i, row) in r.rows().iter().enumerate() {
            assert_eq!(batch[i], hash_of(row, &pos), "row {i}");
        }
        // Empty key: one constant hash for every row.
        let empty = key_hashes(&r, &[]);
        assert!(empty.iter().all(|&h| h == hash_of(&r.rows()[0], &[])));
    }

    #[test]
    fn batch_hashes_match_on_strings() {
        let mut c = Catalog::new();
        let schema = crate::schema::Schema::from_chars(&mut c, "AB");
        let rows = vec![
            vec![Value::Int(1), Value::str("x")].into(),
            vec![Value::Int(2), Value::str("yy")].into(),
        ];
        let r = crate::Relation::from_rows(schema, rows).unwrap();
        let pos = [0usize, 1];
        let batch = key_hashes(&r, &pos);
        for (i, row) in r.rows().iter().enumerate() {
            assert_eq!(batch[i], hash_of(row, &pos));
        }
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (n, pieces) in [(10usize, 3usize), (1, 8), (0, 4), (7, 7), (100, 1)] {
            let ranges = split_ranges(n, pieces);
            let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
            assert_eq!(total, n, "n={n} pieces={pieces}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
        }
    }

    #[test]
    fn partition_ids_is_exhaustive_and_disjoint() {
        let hashes: Vec<u64> = (0..100).map(|i| i * 2654435761).collect();
        let parts = partition_ids(&hashes, 4);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
    }
}
