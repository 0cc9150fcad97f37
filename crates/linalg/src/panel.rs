//! Blocked panel kernels for the item-update hot path.
//!
//! The Gibbs item update builds `Λ* = Λ + α Σ_j v_j v_jᵀ` and
//! `b = Λμ + α Σ_j (r_j − m) v_j` from the counterpart rows `v_j` of an
//! item's ratings. Folding ratings in one at a time (d rank-1 `syrk_lower`
//! calls + d `axpy` calls) touches the whole `K × K` accumulator once per
//! rating and gives the CPU a single dependent accumulation chain per
//! element. The D-BPMF implementation (Vander Aa et al.) instead gathers the
//! counterpart rows into a contiguous row-major `d × K` *panel* and performs
//! one rank-d update — BLAS-3 shape, so the panel is streamed once per
//! output tile and the accumulator element is computed with independent FMA
//! chains held in registers.
//!
//! Two kernels live here:
//!
//! * [`syrk_ld_lower`] — `C[lower] += α · PᵀP` for a row-major `d × K`
//!   panel `P`, cache-blocked over `d` so the streamed panel block stays
//!   L1/L2-resident across output tiles, register-tiled over the output
//!   (below).
//! * [`gemv_t_acc`] — `y += Pᵀ w`: the information-vector accumulation,
//!   processing several panel rows per pass so each output element gets
//!   independent products per iteration.
//!
//! Both kernels are exact re-associations of the per-rating loop; the
//! property tests in `tests/panel_properties.rs` pin them to the naive
//! reference within 1e-12 across shapes (including `d = 0, 1` and sizes
//! that are not multiples of any block), and the in-module tests call every
//! arm the host supports directly.
//!
//! # The rank-d register tile
//!
//! Each arm of `syrk_ld_lower` (selected by [`crate::simd::simd_level`];
//! `BPMF_NO_SIMD=1` — or any non-x86_64 target — pins the portable one)
//! walks the lower triangle in register tiles and, per tile, streams the
//! panel block once:
//!
//! * **AVX-512** — 8 output rows × 8 columns. Per panel row: one 8-lane
//!   load of the row's columns `[j0, j0 + 8)` and eight broadcast-FMAs, one
//!   per output row, into eight accumulators — nine loads feed eight
//!   512-bit FMAs, so the FMA ports, not the load ports, set the rate
//!   (≈ 1.8 of 2 FMAs per cycle at `K = 32`).
//! * **AVX2** — 4 output rows × 8 columns (two 4-lane halves): sixteen
//!   registers do not hold an 8 × 8 tile.
//! * **portable** — 2 × 2 scalars, two chains down the panel.
//!
//! The triangle's ragged edge never leaves the vector path: a tile on the
//! diagonal computes all its lanes but *stores through a lane mask* (row
//! `t` of the tile keeps lanes `0..=t`), so the strict upper triangle is
//! neither read nor written, and the column load is masked to `K`, so any
//! order works, not just multiples of the tile edge. (The AVX2 arm this
//! replaces sent every element right of its last whole 4-column tile —
//! 80 of the 528 at `K = 32` — through scalar dot products.)
//!
//! The tiles take the triangle's first row/column `lo` as a parameter
//! ([`crate::arm::Arm::syrk_tiles`]): the blocked Cholesky's trailing update
//! is this same accumulation with `α = −1` on the sub-triangle below the
//! current block.
//!
//! `gemv_t_acc` has a 4-lane AVX2+FMA arm (eight broadcast rows folded into
//! the information vector at once) that AVX-512 hosts use too, and the
//! portable [`gemv_t_acc_scalar`].

use crate::arm::{dispatch, Arm};
use crate::mat::Mat;
use crate::simd::{self, SimdLevel};
use crate::vecops;

/// Row count of one cache block of the panel. `PANEL_BLOCK · K` doubles are
/// streamed per output tile pass; at `K = 128` a 64-row block is 64 KiB —
/// L2-resident, and re-read once per output tile.
pub const PANEL_BLOCK: usize = 64;

/// Symmetric rank-`d` accumulation on the **lower** triangle from a
/// row-major panel: `c[lower] += alpha * panelᵀ · panel`.
///
/// `panel` holds `d = panel.len() / k` rows of length `k`, where `k` must
/// equal the order of `c`. Only the lower triangle of `c` is written (the
/// Cholesky kernels read only the lower triangle). `d = 0` is a no-op.
///
/// Panics if `c` is not square, `k` does not match its order, or
/// `panel.len()` is not a multiple of `k`.
pub fn syrk_ld_lower(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
    syrk_ld_lower_at(simd::simd_level(), c, alpha, panel, k);
}

/// [`syrk_ld_lower`] pinned to the portable scalar arm — the reference the
/// property tests compare every vector arm against.
pub fn syrk_ld_lower_scalar(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
    syrk_ld_lower_at(SimdLevel::Scalar, c, alpha, panel, k);
}

/// [`syrk_ld_lower`] on one named arm (the in-module tests call every arm
/// the host supports directly, so a wider arm never shadows a narrower one).
/// The level must be one the CPU supports.
fn syrk_ld_lower_at(level: SimdLevel, c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
    let n = c.rows();
    assert_eq!(n, c.cols(), "syrk_ld_lower requires a square matrix");
    assert_eq!(n, k, "syrk_ld_lower panel width must match matrix order");
    if k == 0 {
        return;
    }
    assert_eq!(
        panel.len() % k,
        0,
        "syrk_ld_lower panel length must be a multiple of k"
    );
    let c = c.as_mut_slice();
    dispatch!(level, syrk_body(c: &mut [f64], alpha: f64, panel: &[f64], k: usize) -> ())
}

/// Cache-block over the panel rows: every output tile re-reads the current
/// block, so keep it small enough to stay resident.
#[inline(always)]
unsafe fn syrk_body<A: Arm>(c: &mut [f64], alpha: f64, panel: &[f64], k: usize) {
    for block in panel.chunks(PANEL_BLOCK * k) {
        A::syrk_tiles(c, 0, alpha, block, k);
    }
}

/// Portable register tile behind [`Arm::syrk_tiles`] (see there for the
/// contract): 2×2 tiles over the triangle `lo ≤ j ≤ i < k`, two independent
/// accumulation chains down the panel.
pub(crate) fn syrk_tiles_scalar(c_rows: &mut [f64], lo: usize, alpha: f64, p: &[f64], k: usize) {
    assert!(lo <= k && c_rows.len() == (k - lo) * k && p.len().is_multiple_of(k));
    let c = |i: usize, j: usize| (i - lo) * k + j;
    let k_even = lo + ((k - lo) & !1);
    let mut i = lo;
    while i < k_even {
        let mut j = lo;
        while j <= i {
            // Tile rows {i, i+1} × cols {j, j+1}. Two chains (even/odd
            // panel rows) per element keep eight FMAs in flight.
            let (mut a00, mut a01, mut a10, mut a11) = (0.0f64, 0.0, 0.0, 0.0);
            let (mut b00, mut b01, mut b10, mut b11) = (0.0f64, 0.0, 0.0, 0.0);
            let mut rows = p.chunks_exact(2 * k);
            for pair in rows.by_ref() {
                let (r0, r1) = pair.split_at(k);
                let (x0, x1, y0, y1) = (r0[i], r0[i + 1], r0[j], r0[j + 1]);
                a00 += x0 * y0;
                a01 += x0 * y1;
                a10 += x1 * y0;
                a11 += x1 * y1;
                let (x0, x1, y0, y1) = (r1[i], r1[i + 1], r1[j], r1[j + 1]);
                b00 += x0 * y0;
                b01 += x0 * y1;
                b10 += x1 * y0;
                b11 += x1 * y1;
            }
            let r0 = rows.remainder();
            if !r0.is_empty() {
                let (x0, x1, y0, y1) = (r0[i], r0[i + 1], r0[j], r0[j + 1]);
                a00 += x0 * y0;
                a01 += x0 * y1;
                a10 += x1 * y0;
                a11 += x1 * y1;
            }
            c_rows[c(i, j)] += alpha * (a00 + b00);
            c_rows[c(i + 1, j)] += alpha * (a10 + b10);
            c_rows[c(i + 1, j + 1)] += alpha * (a11 + b11);
            if j < i {
                // On the diagonal tile (j == i) this element is strictly
                // upper-triangular; everywhere else it belongs to row i.
                c_rows[c(i, j + 1)] += alpha * (a01 + b01);
            }
            j += 2;
        }
        i += 2;
    }
    if k_even < k {
        // Odd edge: the last row of C, computed as plain dots down the block.
        let i = k - 1;
        for j in lo..=i {
            let mut s0 = 0.0f64;
            let mut s1 = 0.0f64;
            let mut rows = p.chunks_exact(2 * k);
            for pair in rows.by_ref() {
                let (r0, r1) = pair.split_at(k);
                s0 += r0[i] * r0[j];
                s1 += r1[i] * r1[j];
            }
            let rem = rows.remainder();
            if !rem.is_empty() {
                s0 += rem[i] * rem[j];
            }
            c_rows[c(i, j)] += alpha * (s0 + s1);
        }
    }
}

/// AVX-512F register tile behind [`Arm::syrk_tiles`]: 8 × 8 tiles over the
/// triangle `lo ≤ j ≤ i < k` (see the module docs).
///
/// Per panel row a tile issues one 8-lane load of the row's columns
/// `[j0, j0 + 8)` and eight broadcast-FMAs, one per output row, into eight
/// accumulators that never leave registers until the panel is consumed.
/// The column load is masked to `k`, so any `k` works; output rows past `k`
/// in the last tile row re-broadcast row `k − 1` (computed, never stored).
///
/// # Safety
///
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn syrk_tiles_avx512(
    c_rows: &mut [f64],
    lo: usize,
    alpha: f64,
    p: &[f64],
    k: usize,
) {
    use crate::arm::avx512_lanes as lanes;
    use std::arch::x86_64::*;
    assert!(lo <= k && c_rows.len() == (k - lo) * k && p.len().is_multiple_of(k));
    let d = p.len() / k;
    let pp = p.as_ptr();
    let cp = c_rows.as_mut_ptr();
    let av = _mm512_set1_pd(alpha);
    // SAFETY (pointer arithmetic below): panel reads stay inside row `r < d`
    // at unmasked columns `< k`; output accesses stay inside row
    // `lo ≤ i < k` of `c_rows` at unmasked columns `≤ i`.
    for i0 in (lo..k).step_by(8) {
        let mr = (k - i0).min(8);
        let bcast: [usize; 8] = std::array::from_fn(|t| (i0 + t).min(k - 1));
        for j0 in (lo..=i0).step_by(8) {
            let cols = lanes(k - j0);
            let mut acc = [_mm512_setzero_pd(); 8];
            for r in 0..d {
                let row = pp.add(r * k);
                let v = _mm512_maskz_loadu_pd(cols, row.add(j0));
                for (a, &bi) in acc.iter_mut().zip(&bcast) {
                    *a = _mm512_fmadd_pd(_mm512_set1_pd(*row.add(bi)), v, *a);
                }
            }
            for (t, a) in acc.iter().enumerate().take(mr) {
                // Diagonal tile: row t keeps lanes 0..=t, so the strict
                // upper triangle is neither read nor written.
                let keep = if j0 == i0 { cols & lanes(t + 1) } else { cols };
                let dst = cp.add((i0 + t - lo) * k + j0);
                let cur = _mm512_maskz_loadu_pd(keep, dst);
                _mm512_mask_storeu_pd(dst, keep, _mm512_fmadd_pd(av, *a, cur));
            }
        }
    }
}

/// AVX2+FMA register tile behind [`Arm::syrk_tiles`]: 4 × 8 tiles (two
/// 4-lane halves per output row), the same masked scheme as
/// [`syrk_tiles_avx512`] with `maskload`/`maskstore` in place of `k`-masks,
/// so the ragged triangle edge and any `k` stay on the vector path.
///
/// # Safety
///
/// Requires AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn syrk_tiles_avx2(
    c_rows: &mut [f64],
    lo: usize,
    alpha: f64,
    p: &[f64],
    k: usize,
) {
    use crate::arm::avx2_lanes as lanes;
    use std::arch::x86_64::*;
    assert!(lo <= k && c_rows.len() == (k - lo) * k && p.len().is_multiple_of(k));
    let d = p.len() / k;
    let pp = p.as_ptr();
    let cp = c_rows.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    // SAFETY (pointer arithmetic below): as in `syrk_tiles_avx512`; a high
    // half may start past its row's end (fully masked then), hence the
    // wrapping offsets.
    for i0 in (lo..k).step_by(4) {
        let mr = (k - i0).min(4);
        let bcast: [usize; 4] = std::array::from_fn(|t| (i0 + t).min(k - 1));
        for j0 in (lo..=i0).step_by(8) {
            let (cols_lo, cols_hi) = (lanes(k - j0), lanes(k.saturating_sub(j0 + 4)));
            let mut lo_acc = [_mm256_setzero_pd(); 4];
            let mut hi_acc = [_mm256_setzero_pd(); 4];
            for r in 0..d {
                let row = pp.add(r * k);
                let vl = _mm256_maskload_pd(row.add(j0), cols_lo);
                let vh = _mm256_maskload_pd(row.wrapping_add(j0 + 4), cols_hi);
                for ((l, h), &bi) in lo_acc.iter_mut().zip(hi_acc.iter_mut()).zip(&bcast) {
                    let x = _mm256_set1_pd(*row.add(bi));
                    *l = _mm256_fmadd_pd(x, vl, *l);
                    *h = _mm256_fmadd_pd(x, vh, *h);
                }
            }
            for t in 0..mr {
                // Row i keeps columns j0..=i: full below the diagonal tile,
                // a lane prefix on it (possibly none of the high half).
                let i = i0 + t;
                let keep_lo = _mm256_and_si256(cols_lo, lanes(i + 1 - j0));
                let keep_hi = _mm256_and_si256(cols_hi, lanes((i + 1).saturating_sub(j0 + 4)));
                let dst = cp.add((i - lo) * k + j0);
                let cur = _mm256_maskload_pd(dst, keep_lo);
                _mm256_maskstore_pd(dst, keep_lo, _mm256_fmadd_pd(av, lo_acc[t], cur));
                let dst = dst.wrapping_add(4);
                let cur = _mm256_maskload_pd(dst, keep_hi);
                _mm256_maskstore_pd(dst, keep_hi, _mm256_fmadd_pd(av, hi_acc[t], cur));
            }
        }
    }
}

/// Fused transposed panel–vector accumulation: `y += panelᵀ · w`.
///
/// `panel` is row-major with rows of length `y.len()`; `w` has one weight
/// per panel row. This is the information-vector update `b += Σ_l w_l v_l`
/// done four rows per pass, so each element of `y` receives four
/// independent products per iteration instead of one dependent `axpy`
/// chain per rating.
///
/// Panics if `panel.len() != w.len() * y.len()`.
pub fn gemv_t_acc(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    assert_eq!(
        panel.len(),
        w.len() * k,
        "gemv_t_acc panel/weight shape mismatch"
    );
    if k == 0 {
        return;
    }
    if simd::simd_enabled() {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `simd_enabled` guarantees AVX2+FMA; shapes were
            // validated above.
            unsafe { gemv_t_acc_avx2(y, panel, w) };
            return;
        }
    }
    gemv_t_scalar(y, panel, w);
}

/// [`gemv_t_acc`] pinned to the portable scalar arm — the reference the
/// property tests compare the vector arm against.
pub fn gemv_t_acc_scalar(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    assert_eq!(
        panel.len(),
        w.len() * k,
        "gemv_t_acc panel/weight shape mismatch"
    );
    if k == 0 {
        return;
    }
    gemv_t_scalar(y, panel, w);
}

/// Portable arm: four panel rows fused per pass (see [`gemv_t_acc`]).
fn gemv_t_scalar(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    let mut rows = panel.chunks_exact(4 * k);
    let mut weights = w.chunks_exact(4);
    for (quad, wq) in rows.by_ref().zip(weights.by_ref()) {
        let (r0, rest) = quad.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let (w0, w1, w2, w3) = (wq[0], wq[1], wq[2], wq[3]);
        for ((((yi, a), b), c), d) in y.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *yi += (w0 * a + w1 * b) + (w2 * c + w3 * d);
        }
    }
    for (row, &wl) in rows.remainder().chunks_exact(k).zip(weights.remainder()) {
        for (yi, &v) in y.iter_mut().zip(row) {
            *yi += wl * v;
        }
    }
}

/// AVX2+FMA arm: eight broadcast weights folded into `y` in 32-element
/// blocks (8 × 4-lane accumulators — the same discipline as
/// `Mat::matvec_t_into`'s serving scan, reused here for the Gibbs
/// information-vector accumulation).
///
/// # Safety
///
/// Caller must ensure AVX2+FMA support and `panel.len() == w.len() * y.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_t_acc_avx2(y: &mut [f64], panel: &[f64], w: &[f64]) {
    use std::arch::x86_64::*;
    let k = y.len();
    let mut octs = panel.chunks_exact(8 * k);
    let mut weights = w.chunks_exact(8);
    for (oct, wo) in octs.by_ref().zip(weights.by_ref()) {
        let base = oct.as_ptr();
        let xv: [__m256d; 8] = std::array::from_fn(|r| _mm256_set1_pd(wo[r]));
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 32 <= k {
            let mut acc: [__m256d; 8] = std::array::from_fn(|l| _mm256_loadu_pd(yp.add(i + 4 * l)));
            for (r, xr) in xv.iter().enumerate() {
                let rp = base.add(r * k + i);
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(rp.add(4 * l)), *a);
                }
            }
            for (l, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(yp.add(i + 4 * l), *a);
            }
            i += 32;
        }
        while i + 4 <= k {
            let mut a = _mm256_loadu_pd(yp.add(i));
            for (r, xr) in xv.iter().enumerate() {
                a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(base.add(r * k + i)), a);
            }
            _mm256_storeu_pd(yp.add(i), a);
            i += 4;
        }
        while i < k {
            let mut s = *y.get_unchecked(i);
            for (r, &xr) in wo.iter().enumerate() {
                s += xr * *base.add(r * k + i);
            }
            *y.get_unchecked_mut(i) = s;
            i += 1;
        }
    }
    for (row, &wl) in octs.remainder().chunks_exact(k).zip(weights.remainder()) {
        vecops::axpy(wl, row, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_syrk(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
        for row in panel.chunks_exact(k) {
            c.syrk_lower(alpha, row);
        }
    }

    fn panel_of(d: usize, k: usize, seed: u64) -> Vec<f64> {
        (0..d * k)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15 ^ seed);
                ((h >> 12) as f64 / (1u64 << 52) as f64) - 0.5
            })
            .collect()
    }

    /// Every arm the host supports, called directly (not through the
    /// dispatcher, so AVX-512 hardware still exercises the AVX2 arm), over
    /// orders that are and are not multiples of any tile edge and panels on
    /// both sides of the cache block: 1e-12 against the per-rating
    /// reference, and the strict upper triangle bit-for-bit untouched.
    #[test]
    fn every_arm_matches_per_rating_reference_and_spares_the_upper_triangle() {
        const SENTINEL: f64 = 99.0;
        for k in 1usize..=40 {
            for &d in &[0usize, 1, 2, 7, 8, 9, 63, 64, 65, 200] {
                let p = panel_of(d, k, 11);
                let start = Mat::from_fn(
                    k,
                    k,
                    |i, j| if j > i { SENTINEL } else { (i + 2 * j) as f64 },
                );
                let mut naive = start.clone();
                naive_syrk(&mut naive, 1.7, &p, k);
                for level in simd::supported_levels() {
                    let mut c = start.clone();
                    syrk_ld_lower_at(level, &mut c, 1.7, &p, k);
                    for i in 0..k {
                        for j in 0..k {
                            if j > i {
                                assert_eq!(
                                    c[(i, j)],
                                    SENTINEL,
                                    "{level:?} k={k} d={d}: upper ({i},{j})"
                                );
                            } else {
                                let diff = (c[(i, j)] - naive[(i, j)]).abs();
                                assert!(diff < 1e-12, "{level:?} k={k} d={d} ({i},{j}): {diff:e}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The sub-triangle form the blocked Cholesky uses: rows and columns
    /// below `lo` stay untouched on every arm, the rest matches the scalar
    /// tile.
    #[test]
    fn every_arm_updates_only_the_trailing_triangle() {
        for &(k, lo) in &[(9usize, 8usize), (24, 8), (33, 16), (40, 32), (12, 12)] {
            let p = panel_of(8, k, 5);
            let start = Mat::from_fn(k, k, |i, j| (3 * i + j) as f64);
            let mut want = start.clone();
            syrk_tiles_scalar(&mut want.as_mut_slice()[lo * k..], lo, -1.0, &p, k);
            for i in 0..k {
                for j in 0..k {
                    if i < lo || j < lo || j > i {
                        assert_eq!(
                            want[(i, j)],
                            start[(i, j)],
                            "scalar k={k} lo={lo} ({i},{j})"
                        );
                    }
                }
            }
            for level in simd::supported_levels() {
                #[inline(always)]
                unsafe fn tiles<A: Arm>(c_rows: &mut [f64], lo: usize, p: &[f64], k: usize) {
                    A::syrk_tiles(c_rows, lo, -1.0, p, k);
                }
                let mut got = start.clone();
                let (c_rows, p) = (&mut got.as_mut_slice()[lo * k..], &p[..]);
                dispatch!(level, tiles(c_rows: &mut [f64], lo: usize, p: &[f64], k: usize) -> ());
                assert!(got.max_abs_diff(&want) < 1e-12, "{level:?} k={k} lo={lo}");
                for i in 0..k {
                    for j in 0..k {
                        if i < lo || j < lo || j > i {
                            assert_eq!(
                                got[(i, j)],
                                start[(i, j)],
                                "{level:?} k={k} lo={lo} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_t_matches_axpy_loop() {
        for &k in &[1usize, 3, 8, 16, 17] {
            for &d in &[0usize, 1, 2, 3, 4, 5, 8, 63, 100] {
                let p = panel_of(d, k, 77);
                let w: Vec<f64> = (0..d).map(|i| (i as f64 * 0.3).cos()).collect();
                let mut fused = vec![0.5; k];
                gemv_t_acc(&mut fused, &p, &w);
                let mut naive = vec![0.5; k];
                for (row, &wl) in p.chunks_exact(k).zip(&w) {
                    crate::vecops::axpy(wl, row, &mut naive);
                }
                for (a, b) in fused.iter().zip(&naive) {
                    assert!((a - b).abs() < 1e-12, "k={k} d={d}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn zero_rows_are_noops() {
        let mut c = Mat::identity(4);
        syrk_ld_lower(&mut c, 3.0, &[], 4);
        assert_eq!(c, Mat::identity(4));
        let mut y = vec![1.0; 4];
        gemv_t_acc(&mut y, &[], &[]);
        assert_eq!(y, vec![1.0; 4]);
    }
}
