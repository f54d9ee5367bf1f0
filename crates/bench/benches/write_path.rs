//! The write path: what a single-row write costs as the table grows (C19).
//!
//! A write must pay for the rows it touches, not for the table it lands
//! in (DESIGN §17, "Read/write discipline"). This suite times four
//! operations through the embedded transport on `numbers(i INTEGER)`
//! holding the distinct values `0..rows`, at 1k, 10k and 200k rows (see
//! `devudf_bench::write_path_op`):
//!
//! - `count_where`: `SELECT count(*) … WHERE i = k`, the scan every point
//!   write needs to find its row; the update gate divides by it.
//! - `point_update`: `UPDATE … SET i = k WHERE i = k`, one row selected.
//! - `point_delete`: `DELETE … WHERE i = k` plus the INSERT that puts the
//!   row back, so every iteration deletes exactly one row.
//! - `insert_after_read`: `SELECT count(*)` then a single-row INSERT, the
//!   ingest pattern. A read that pinned the table would make the INSERT
//!   deep-copy it. Each iteration appends a row, so the table ends a run
//!   larger than its starting size by the iteration count (about 10^5 in
//!   the default 300 ms budget); the sizes name the starting size.
//!
//! Writes `BENCH_write_path.json`; `bench_guard` enforces the scaling of
//! `insert_after_read` and the point-UPDATE-to-scan ratio.

use devharness::bench::{BenchmarkId, Harness};
use devudf_bench::{write_path_db, write_path_op, WRITE_PATH_OPS};

fn main() {
    let mut h = Harness::new("write_path");
    let mut group = h.benchmark_group("write_path");
    group.sample_size(20);
    for rows in [1_000usize, 10_000, 200_000] {
        let mut db = write_path_db(rows);
        for op in WRITE_PATH_OPS {
            group.bench_with_input(BenchmarkId::new(op, rows), &rows, |b, _| {
                b.iter(|| write_path_op(&mut db, op, rows))
            });
        }
    }
    group.finish();
    h.finish();
}
