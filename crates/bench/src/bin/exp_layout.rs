//! `exp_layout` — storage-layout micro-benchmark: the two primitives the
//! columnar engine rebuilt, measured in isolation, a tuple-at-a-time loop
//! over the row view vs the column kernels.
//!
//! * **hash**: key-hashing throughput. The row path folds
//!   [`Value::stable_hash`] through [`mjoin_relation::fxhash::mix`] one
//!   `Box<[Value]>` row at a time — a pointer chase plus an enum-tag branch
//!   per cell. The columnar path ([`mjoin_relation::ops::key_hashes`]) zips
//!   the key columns' slices; interned columns fold precomputed
//!   per-dictionary-entry hashes, so string keys cost the same as integers.
//!   Both produce bit-identical hashes (asserted below before timing).
//! * **gather**: selection-vector materialization throughput. The row path
//!   clones each selected `Row`; the columnar path gathers each attribute's
//!   slice ([`Column::gather`]) — one contiguous copy per column, no
//!   per-cell `Value` construction for interned data.
//!
//! Numbers go to stdout as a table and to `BENCH_layout_micro.json` (or the
//! path given as the first CLI argument). This is the microscopic view of
//! the `layout_speedup` column that `exp_par` measured end-to-end while the
//! operators still had a row engine (EXPERIMENTS.md §L).

use mjoin_bench::print_table;
use mjoin_relation::fxhash::mix;
use mjoin_relation::ops::key_hashes;
use mjoin_relation::{Catalog, Relation, Row, Schema, Value};
use std::time::Instant;

const REPS: usize = 7;

struct Dataset {
    name: &'static str,
    rel: Relation,
    /// Canonical key positions to hash (a 2-attribute join key).
    key_pos: Vec<usize>,
}

/// `rows` tuples over `width` attributes; attribute positions in
/// `string_cols` hold strings from a 1000-value alphabet, the rest values
/// from a 1000-value integer domain — except the last position, a unique
/// measure that keeps the tuples distinct under set semantics. Key columns
/// are always the first two positions.
fn dataset(
    name: &'static str,
    c: &mut Catalog,
    width: usize,
    rows: i64,
    string_cols: &[usize],
) -> Dataset {
    let attrs: Vec<_> = (0..width)
        .map(|i| c.intern(&format!("{name}_a{i}")))
        .collect();
    let schema = Schema::new(attrs.clone());
    let tuples: Vec<Row> = (0..rows)
        .map(|i| {
            (0..width)
                .map(|j| {
                    if j + 1 == width {
                        return Value::Int(i);
                    }
                    let v = (i.wrapping_mul(2654435761 + j as i64)) % 1000;
                    if string_cols.contains(&j) {
                        Value::str(format!("k{v}"))
                    } else {
                        Value::Int(v)
                    }
                })
                .collect::<Vec<_>>()
                .into()
        })
        .collect();
    let rel = Relation::from_rows(schema.clone(), tuples).expect("dataset");
    let key_pos: Vec<usize> = attrs[..2]
        .iter()
        .map(|&id| schema.position(id).expect("interned"))
        .collect();
    Dataset { name, rel, key_pos }
}

/// Best-of-`REPS` wall time of `f`, in milliseconds.
fn best_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The per-row key hash: the `mix`-fold of per-cell stable hashes, which
/// `ops::key_hashes` computes batch-wise over column slices.
fn row_hash(row: &Row, positions: &[usize]) -> u64 {
    positions
        .iter()
        .fold(0u64, |acc, &p| mix(acc, row[p].stable_hash()))
}

struct Numbers {
    dataset: &'static str,
    rows: usize,
    hash_row_ms: f64,
    hash_col_ms: f64,
    gather_row_ms: f64,
    gather_col_ms: f64,
}

fn measure(d: &Dataset) -> Numbers {
    let rel = &d.rel;
    let n = rel.len();

    // Warm both physical views before timing, so neither engine pays lazy
    // materialization inside its measured region.
    let rows = rel.rows();
    let cols = rel.columns();

    // The two paths must agree bit-for-bit — that interop is what lets an
    // index built by one engine serve probes from the other.
    let colh = key_hashes(rel, &d.key_pos);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(colh[i], row_hash(row, &d.key_pos), "hash divergence at {i}");
    }

    let hash_row_ms = best_ms(|| {
        let mut acc = 0u64;
        for row in rows {
            acc ^= row_hash(row, &d.key_pos);
        }
        std::hint::black_box(acc);
    });
    let hash_col_ms = best_ms(|| {
        let h = key_hashes(rel, &d.key_pos);
        std::hint::black_box(h.len());
    });

    // Every other id: a 50% selection with no locality the prefetcher could
    // fake its way through.
    let sel: Vec<u32> = (0..n as u32).step_by(2).collect();
    let gather_row_ms = best_ms(|| {
        let picked: Vec<Row> = sel.iter().map(|&i| rows[i as usize].clone()).collect();
        std::hint::black_box(picked.len());
    });
    let gather_col_ms = best_ms(|| {
        let picked: Vec<_> = cols.iter().map(|c| c.gather(&sel)).collect();
        std::hint::black_box(picked.len());
    });

    Numbers {
        dataset: d.name,
        rows: n,
        hash_row_ms,
        hash_col_ms,
        gather_row_ms,
        gather_col_ms,
    }
}

/// Million rows per second at `ms` milliseconds for `rows` rows.
fn mrps(rows: usize, ms: f64) -> f64 {
    rows as f64 / ms / 1e3
}

fn write_json(path: &str, host_parallelism: usize, ns: &[Numbers]) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"layout_micro\",\n");
    j.push_str("  \"command\": \"cargo run --release -p mjoin-bench --bin exp_layout\",\n");
    j.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    j.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    j.push_str(
        "  \"note\": \"single-threaded primitive throughput; hash = 2-attribute key hash over all rows, gather = 50% selection materialized; row and columnar hashes asserted bit-identical before timing\",\n",
    );
    j.push_str("  \"datasets\": [\n");
    for (i, m) in ns.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"name\": \"{}\",\n", m.dataset));
        j.push_str(&format!("      \"rows\": {},\n", m.rows));
        j.push_str(&format!(
            "      \"hash_row_ms\": {:.3}, \"hash_columnar_ms\": {:.3}, \"hash_speedup\": {:.2},\n",
            m.hash_row_ms,
            m.hash_col_ms,
            m.hash_row_ms / m.hash_col_ms
        ));
        j.push_str(&format!(
            "      \"gather_row_ms\": {:.3}, \"gather_columnar_ms\": {:.3}, \"gather_speedup\": {:.2}\n",
            m.gather_row_ms,
            m.gather_col_ms,
            m.gather_row_ms / m.gather_col_ms
        ));
        j.push_str(if i + 1 == ns.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    j.push_str("  ]\n}\n");
    std::fs::write(path, j).expect("write BENCH_layout_micro.json");
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_layout_micro.json".into());
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("exp_layout: best of {REPS}, single-threaded primitives\n");

    let mut c = Catalog::new();
    let datasets = [
        // The narrow all-int case: the row layout's best footing.
        dataset("narrow_int_w2", &mut c, 2, 1_000_000, &[]),
        // A wide all-int tuple: 12 attributes, key = 2 of them.
        dataset("wide_int_w12", &mut c, 12, 500_000, &[]),
        // Wide with interned string keys: the row path re-hashes string
        // bytes per occurrence, the column path folds dictionary hashes.
        dataset("wide_str_w12", &mut c, 12, 500_000, &[0, 1, 5]),
    ];

    let numbers: Vec<Numbers> = datasets
        .iter()
        .map(|d| {
            println!("running {} ...", d.name);
            measure(d)
        })
        .collect();

    let mut rows = Vec::new();
    for m in &numbers {
        rows.push(vec![
            m.dataset.to_string(),
            m.rows.to_string(),
            format!("{:.1}", mrps(m.rows, m.hash_row_ms)),
            format!("{:.1}", mrps(m.rows, m.hash_col_ms)),
            format!("{:.2}×", m.hash_row_ms / m.hash_col_ms),
            format!("{:.1}", mrps(m.rows / 2, m.gather_row_ms)),
            format!("{:.1}", mrps(m.rows / 2, m.gather_col_ms)),
            format!("{:.2}×", m.gather_row_ms / m.gather_col_ms),
        ]);
    }
    println!();
    print_table(
        &[
            "dataset",
            "rows",
            "hash row Mr/s",
            "hash col Mr/s",
            "hash speedup",
            "gather row Mr/s",
            "gather col Mr/s",
            "gather speedup",
        ],
        &rows,
    );

    write_json(&path, host_parallelism, &numbers);
    println!("\nwrote {path}");
}
