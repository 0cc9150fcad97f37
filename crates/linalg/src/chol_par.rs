//! Blocked, multi-threaded Cholesky factorization.
//!
//! This is the "parallel Cholesky" of the paper's Fig. 2: for items with very
//! many ratings the `K × K` precision matrix is large enough (and the
//! accumulation feeding it long enough) that splitting one item update across
//! cores pays off. The algorithm is the classic right-looking blocked
//! factorization:
//!
//! 1. factor the diagonal block serially,
//! 2. solve the panel below it against the block's transpose (parallel over
//!    rows),
//! 3. rank-`b` update of the trailing submatrix (parallel over rows, with
//!    row weights `∝ i` to balance the triangular work).
//!
//! Threads only ever write rows they own; the panel is snapshotted before the
//! trailing update so cross-row reads never alias a write.
//!
//! Both parallel phases run on the persistent [`crate::kernel_pool`] —
//! the same parked workers the item-update accumulation uses — instead of
//! spawning scoped OS threads per factorization. A heavy Gibbs sweep
//! calls this once per heavy item, so per-call `std::thread` spawns were
//! a measurable fixed cost; with the pool the only per-call overhead is
//! one condvar wake. `nthreads` still bounds the chunk count, so a caller
//! budgeting `kernel_threads` gets at most that much concurrency.

use crate::chol::cholesky_in_place;
use crate::error::LinalgError;
use crate::mat::Mat;
use crate::matwriter::MatWriter;
use crate::pool::kernel_pool;
use crate::vecops;

/// Default block size; 32 keeps the diagonal factor in L1 while giving the
/// trailing update enough arithmetic per row to amortize thread handoff.
pub const DEFAULT_BLOCK: usize = 32;

/// Factor the lower triangle of `m` in place with up to `nthreads` threads.
///
/// Semantics are identical to [`cholesky_in_place`]: on success the lower
/// triangle holds `L`, the strict upper triangle is zeroed, and only the
/// lower triangle of the input is read. Falls back to the serial kernel when
/// the matrix is too small for blocking to pay.
pub fn cholesky_in_place_parallel(
    m: &mut Mat,
    nthreads: usize,
    block: usize,
) -> Result<(), LinalgError> {
    let n = m.rows();
    assert_eq!(n, m.cols(), "cholesky requires a square matrix");
    let b = block.max(8);
    if nthreads <= 1 || n <= 2 * b {
        return cholesky_in_place(m);
    }

    let mut panel = Vec::new();
    let mut k0 = 0;
    while k0 < n {
        let kb = b.min(n - k0);
        factor_diag_block(m, k0, kb)?;
        let trailing = n - (k0 + kb);
        if trailing > 0 {
            panel_solve(m, k0, kb, nthreads);
            snapshot_panel(m, k0, kb, &mut panel);
            trailing_update(m, k0, kb, &panel, nthreads);
        }
        k0 += kb;
    }

    for i in 0..n {
        for j in i + 1..n {
            m[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Serial Cholesky of the diagonal block `m[k0.., k0..][..kb, ..kb]`.
fn factor_diag_block(m: &mut Mat, k0: usize, kb: usize) -> Result<(), LinalgError> {
    for i in 0..kb {
        for j in 0..=i {
            let mut s = m[(k0 + i, k0 + j)];
            for t in 0..j {
                s -= m[(k0 + i, k0 + t)] * m[(k0 + j, k0 + t)];
            }
            if i == j {
                if s <= 1e-300 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: k0 + i });
                }
                m[(k0 + i, k0 + i)] = s.sqrt();
            } else {
                m[(k0 + i, k0 + j)] = s / m[(k0 + j, k0 + j)];
            }
        }
    }
    Ok(())
}

/// Solve `L[i, k0..k0+kb] · Ldᵀ = A[i, k0..k0+kb]` for every trailing row `i`,
/// in parallel over contiguous row chunks on the kernel pool. A single
/// chunk runs inline — no point broadcast-waking parked workers for a job
/// the caller would execute alone anyway.
fn panel_solve(m: &mut Mat, k0: usize, kb: usize, nthreads: usize) {
    let n = m.cols();
    let split = (k0 + kb) * n;
    let (head, tail) = m.as_mut_slice().split_at_mut(split);
    let diag: &[f64] = head;
    let trailing_rows = tail.len() / n;
    let chunks = nthreads.min(trailing_rows).max(1);
    if chunks <= 1 {
        panel_solve_rows(tail, diag, n, k0, kb);
        return;
    }
    let rows_per = trailing_rows.div_ceil(chunks);
    let mut parts: Vec<&mut [f64]> = tail.chunks_mut(rows_per * n).collect();
    let nparts = parts.len();
    let writer = MatWriter::from_slice(&mut parts);
    kernel_pool().run(nparts, &|c| {
        // SAFETY: the pool delivers each chunk index exactly once, so
        // chunk `c`'s row block is unaliased.
        let chunk = unsafe { &mut writer.row_mut(c)[0] };
        panel_solve_rows(chunk, diag, n, k0, kb);
    });
}

/// The per-chunk body of [`panel_solve`]: forward-substitute every row of
/// `chunk` against the factored diagonal block.
fn panel_solve_rows(chunk: &mut [f64], diag: &[f64], n: usize, k0: usize, kb: usize) {
    for row in chunk.chunks_exact_mut(n) {
        for c in 0..kb {
            let mut s = row[k0 + c];
            let ld_row = &diag[(k0 + c) * n + k0..(k0 + c) * n + k0 + c];
            // Σ_{t<c} L[i][k0+t] · Ld[c][t]
            for (t, &ld) in ld_row.iter().enumerate() {
                s -= row[k0 + t] * ld;
            }
            row[k0 + c] = s / diag[(k0 + c) * n + k0 + c];
        }
    }
}

/// Copy the solved panel (trailing rows × `kb` columns) into `panel`, a
/// compact row-major buffer, so the trailing update can read any panel row
/// without touching rows other threads are writing.
fn snapshot_panel(m: &Mat, k0: usize, kb: usize, panel: &mut Vec<f64>) {
    let first = k0 + kb;
    let trailing = m.rows() - first;
    panel.clear();
    panel.reserve(trailing * kb);
    for i in first..m.rows() {
        panel.extend_from_slice(&m.row(i)[k0..k0 + kb]);
    }
    debug_assert_eq!(panel.len(), trailing * kb);
}

/// `A[i, j] -= P[i] · P[j]` for all trailing `i ≥ j`, parallel over row
/// chunks whose boundaries balance the triangular work, on the kernel pool.
fn trailing_update(m: &mut Mat, k0: usize, kb: usize, panel: &[f64], nthreads: usize) {
    let n = m.cols();
    let first = k0 + kb;
    let trailing = m.rows() - first;
    let split = first * n;
    let (_, tail) = m.as_mut_slice().split_at_mut(split);
    let threads = nthreads.min(trailing).max(1);

    // Row r of the trailing block does r+1 dot products: weight boundaries by
    // the triangle area so every chunk holds ~equal flops.
    let total: f64 = (trailing as f64) * (trailing as f64 + 1.0) / 2.0;
    let per = total / threads as f64;
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(threads);
    let mut row0 = 0usize;
    let mut acc = 0.0f64;
    let mut target = per;
    while row0 < trailing {
        // Extend this chunk until its accumulated weight crosses `target`.
        let mut row_end = row0;
        while row_end < trailing && (acc <= target || row_end == row0) {
            acc += (row_end + 1) as f64;
            row_end += 1;
        }
        target = acc + per;
        ranges.push((row0, row_end));
        row0 = row_end;
    }

    // A single range runs inline — no point broadcast-waking parked
    // workers for a job the caller would execute alone anyway.
    if ranges.len() <= 1 {
        trailing_update_rows(tail, panel, n, first, kb, 0);
        return;
    }
    // The ranges tile the trailing rows in order.
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = tail;
    for &(base, end) in &ranges {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut((end - base) * n);
        parts.push(part);
        rest = tail;
    }
    let writer = MatWriter::from_slice(&mut parts);
    let ranges = &ranges;
    kernel_pool().run(ranges.len(), &|c| {
        // SAFETY: the pool delivers each chunk index exactly once, so
        // chunk `c`'s row block is unaliased.
        let chunk = unsafe { &mut writer.row_mut(c)[0] };
        trailing_update_rows(chunk, panel, n, first, kb, ranges[c].0);
    });
}

/// The per-chunk body of [`trailing_update`]: rank-`kb` downdate of the
/// chunk's rows (trailing rows `base..`) against the snapshotted panel.
fn trailing_update_rows(
    chunk: &mut [f64],
    panel: &[f64],
    n: usize,
    first: usize,
    kb: usize,
    base: usize,
) {
    for (r, row) in chunk.chunks_exact_mut(n).enumerate() {
        let i = base + r;
        let pi = &panel[i * kb..(i + 1) * kb];
        let out = &mut row[first..first + i + 1];
        for (j, o) in out.iter_mut().enumerate() {
            let pj = &panel[j * kb..(j + 1) * kb];
            *o -= vecops::dot(pi, pj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::Cholesky;

    fn spd(n: usize, seed: u64) -> Mat {
        let b = Mat::from_fn(n, n, |i, j| {
            let h = (i as u64 + 1)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(seed | 1));
            ((h >> 12) as f64 / (1u64 << 52) as f64) - 0.5
        });
        let mut a = b.matmul_transb(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn parallel_matches_serial_across_sizes_and_blockings() {
        for &n in &[1usize, 7, 16, 33, 64, 97, 130] {
            for &threads in &[1usize, 2, 4] {
                for &block in &[8usize, 16, 32] {
                    let a = spd(n, 42);
                    let mut serial = a.clone();
                    cholesky_in_place(&mut serial).unwrap();
                    let mut par = a.clone();
                    cholesky_in_place_parallel(&mut par, threads, block).unwrap();
                    assert!(
                        par.max_abs_diff(&serial) < 1e-9,
                        "n={n} threads={threads} block={block}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_factor_reconstructs() {
        let n = 96;
        let a = spd(n, 5);
        let mut l = a.clone();
        cholesky_in_place_parallel(&mut l, 4, 16).unwrap();
        let chol = Cholesky::from_lower_unchecked(l);
        assert!(chol.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn parallel_rejects_indefinite() {
        let mut a = spd(80, 9);
        a[(40, 40)] = -1000.0;
        let err = cholesky_in_place_parallel(&mut a, 4, 16);
        assert!(matches!(err, Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn only_lower_triangle_is_read_in_parallel_path() {
        let n = 70;
        let a = spd(n, 13);
        let mut dirty = a.clone();
        for i in 0..n {
            for j in i + 1..n {
                dirty[(i, j)] = f64::NAN;
            }
        }
        let mut clean_l = a.clone();
        cholesky_in_place_parallel(&mut clean_l, 4, 16).unwrap();
        let mut dirty_l = dirty;
        cholesky_in_place_parallel(&mut dirty_l, 4, 16).unwrap();
        assert!(clean_l.max_abs_diff(&dirty_l) < 1e-15);
    }
}
