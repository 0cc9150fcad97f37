//! Serial Cholesky factorization.
//!
//! [`cholesky_in_place`] is **right-looking and blocked by eight columns**.
//! The row-oriented left-looking loop it replaces computed each of the
//! `n(n+1)/2` elements as `dot → subtract → divide`, every element waiting
//! for its predecessor in the row: one latency chain with a divide in each
//! link (≈ 30 cycles per element at `K = 32`). Here the only serial chain
//! runs through the `n` pivots, and everything else is independent
//! vector work queued behind it. Per block of eight columns `[j0, j0 + 8)`:
//!
//! 1. **Diagonal block** (`factor_diag`, scalar, 8 × 8): right-looking on
//!    unscaled columns, so pivot `j + 1` waits for pivot `j` through one
//!    reciprocal and one multiply-add — `√` and `1/√` (one per column) are
//!    computed beside the chain, not in it.
//! 2. **Panel** (rows below the block): `L[i, j0..j0+8] = A[i, j0..j0+8] ·
//!    L_dd⁻ᵀ`, eight broadcast-FMAs per row against the block's explicit
//!    inverse (`inverse_transposed`) held in registers — no per-element
//!    divide and no recurrence along the row.
//!    Each group of eight solved rows is transposed in registers and
//!    mirrored into rows `j0..j0+8` of the **strict upper triangle**, which
//!    is free workspace (never read as input, zeroed on return).
//! 3. **Trailing update**: `A[i, c] −= Σ_t L[i, j0+t] · L[c, j0+t]` for
//!    `c, i ≥ j0 + 8`. With column `j0 + t` of the panel lying contiguous in
//!    mirror row `j0 + t`, this is exactly the rank-d accumulation of
//!    [`crate::syrk_ld_lower`] with `α = −1` and `d = 8`, so it reuses that
//!    kernel's register tile ([`Arm::syrk_tiles`]): every trailing tile is
//!    loaded and stored once per eight columns, masked on the diagonal.
//!
//! All three steps run on the arm [`crate::simd::simd_level`] selects (see
//! [`crate::arm`]).

use std::sync::OnceLock;

use crate::arm::{dispatch, Arm, LANES};
use crate::error::LinalgError;
use crate::mat::Mat;
use crate::simd::{self, SimdLevel};
use crate::tri::{solve_lower, solve_lower_transpose};

/// Smallest pivot accepted before declaring the matrix non-SPD.
///
/// BPMF precision matrices are `Λ_prior + α Σ v vᵀ` with `Λ_prior` sampled
/// from a Wishart, so they are comfortably positive definite; a pivot this
/// small signals corrupted input rather than a borderline case.
const MIN_PIVOT: f64 = 1e-300;

/// Factor the lower triangle of `m` in place: on success the lower triangle
/// holds `L` with `L Lᵀ = A`, and the strict upper triangle is zeroed.
///
/// Only the lower triangle of the input is read, so callers that build
/// precision matrices with [`Mat::syrk_lower`] never need to symmetrize.
/// On [`LinalgError::NotPositiveDefinite`] (`pivot` is the first column
/// whose updated diagonal is not positive) the contents of `m` are
/// unspecified.
pub fn cholesky_in_place(m: &mut Mat) -> Result<(), LinalgError> {
    cholesky_at(simd::simd_level(), m)
}

/// [`cholesky_in_place`] on one named arm the CPU supports.
pub(crate) fn cholesky_at(level: SimdLevel, m: &mut Mat) -> Result<(), LinalgError> {
    assert_eq!(m.rows(), m.cols(), "cholesky requires a square matrix");
    dispatch!(level, cholesky_body(m: &mut Mat) -> Result<(), LinalgError>)
}

#[inline(always)]
unsafe fn cholesky_body<A: Arm>(m: &mut Mat) -> Result<(), LinalgError> {
    let n = m.rows();
    let a = m.as_mut_slice();
    for j0 in (0..n).step_by(LANES) {
        let (l_dd, inv_diag) = factor_diag::<A>(a, n, j0)?;
        let lo = j0 + LANES;
        if lo >= n {
            break;
        }
        // Panel: eight rows at a time, solved against the block's inverse
        // and mirrored, transposed, into the upper triangle.
        let inv_t = inverse_transposed::<A>(&l_dd, &inv_diag);
        let inv_t: [A::V; LANES] = std::array::from_fn(|t| A::vload(&inv_t[t], LANES));
        for i0 in (lo..n).step_by(LANES) {
            let h = (n - i0).min(LANES);
            let mut rows = [A::vzero(); LANES];
            for (r, solved) in rows.iter_mut().enumerate().take(h) {
                let at = (i0 + r) * n + j0;
                let p: [f64; LANES] = std::array::from_fn(|t| a[at + t]);
                // Two accumulators halve the FMA chain along the row.
                let (mut even, mut odd) = (A::vzero(), A::vzero());
                for t in (0..LANES).step_by(2) {
                    even = A::vfma(A::vsplat(p[t]), inv_t[t], even);
                    odd = A::vfma(A::vsplat(p[t + 1]), inv_t[t + 1], odd);
                }
                *solved = A::vadd(even, odd);
                A::vstore(*solved, &mut a[at..], LANES);
            }
            A::vtranspose(&mut rows);
            for (t, col) in rows.iter().enumerate() {
                A::vstore(*col, &mut a[(j0 + t) * n + i0..], h);
            }
        }
        let (head, tail) = a.split_at_mut(lo * n);
        A::syrk_tiles(tail, lo, -1.0, &head[j0 * n..], n);
    }
    for (i, row) in a.chunks_exact_mut(n.max(1)).enumerate() {
        row[i + 1..].fill(0.0);
    }
    Ok(())
}

/// An 8 × 8 block in registers: constant bounds, so loops over it unroll.
type Block = [[f64; LANES]; LANES];

/// Factor the diagonal block at `(j0, j0)` (order `min(8, n − j0)`) in
/// place; returns the factor, padded to 8 × 8 with the identity, and the
/// reciprocals of its diagonal.
///
/// Right-looking on *unscaled* columns `r[·][j] = L[·][j] · √d_j`: the
/// trailing update is `r[i][c] −= r[i][j] · r[c][j] / d_j`, so the next
/// pivot follows from `d_j` by one reciprocal and one multiply-add, and the
/// square roots scale the columns afterwards.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn factor_diag<A: Arm>(
    a: &mut [f64],
    n: usize,
    j0: usize,
) -> Result<(Block, [f64; LANES]), LinalgError> {
    // A ragged block is padded with the identity, which factors to itself
    // and touches nothing else, so every loop below has constant bounds and
    // unrolls into straight-line code on registers.
    let w = (n - j0).min(LANES);
    let mut r = [[0.0f64; LANES]; LANES];
    for (i, row) in r.iter_mut().enumerate() {
        if i < w {
            let at = (j0 + i) * n + j0;
            row[..=i].copy_from_slice(&a[at..=at + i]);
        } else {
            row[i] = 1.0;
        }
    }
    let mut diag = [0.0f64; LANES];
    let mut inv_diag = [0.0f64; LANES];
    for j in 0..LANES {
        let d = r[j][j];
        if d <= MIN_PIVOT {
            return Err(LinalgError::NotPositiveDefinite { pivot: j0 + j });
        }
        let inv_d = 1.0 / d;
        diag[j] = d.sqrt();
        inv_diag[j] = 1.0 / diag[j];
        for c in j + 1..LANES {
            let scaled = r[c][j] * inv_d;
            for i in c..LANES {
                r[i][c] = A::fma(-r[i][j], scaled, r[i][c]);
            }
        }
    }
    for i in 0..LANES {
        for j in 0..i {
            r[i][j] *= inv_diag[j];
        }
        r[i][i] = diag[i];
        if i < w {
            let at = (j0 + i) * n + j0;
            a[at..=at + i].copy_from_slice(&r[i][..=i]);
        }
    }
    Ok((r, inv_diag))
}

/// `L⁻ᵀ` of a lower-triangular 8 × 8 block (row `t` holds column `t` of
/// `L⁻¹`, by forward substitution of `L x = e_t`), given the reciprocals of
/// its diagonal.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn inverse_transposed<A: Arm>(l: &Block, inv_diag: &[f64; LANES]) -> Block {
    let mut inv_t = [[0.0f64; LANES]; LANES];
    for t in 0..LANES {
        inv_t[t][t] = inv_diag[t];
        for c in t + 1..LANES {
            let mut s = 0.0;
            for q in t..c {
                s = A::fma(l[c][q], inv_t[t][q], s);
            }
            inv_t[t][c] = -s * inv_diag[c];
        }
    }
    inv_t
}

/// An SPD factorization `A = L Lᵀ` with solve/inverse/log-det helpers.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Mat,
    /// `L⁻ᵀ`, built on first use by [`Cholesky::l_inv_t`]; `l` never
    /// changes after construction, so it stays valid.
    l_inv_t: OnceLock<Mat>,
}

impl Cholesky {
    /// Factor a copy of `a` (only its lower triangle is read).
    pub fn factor(a: &Mat) -> Result<Self, LinalgError> {
        let mut l = a.clone();
        cholesky_in_place(&mut l)?;
        Ok(Self::from_lower_unchecked(l))
    }

    /// Factor `a` in place, consuming it.
    pub fn factor_in_place(mut a: Mat) -> Result<Self, LinalgError> {
        cholesky_in_place(&mut a)?;
        Ok(Self::from_lower_unchecked(a))
    }

    /// Wrap an existing lower factor without checking it.
    ///
    /// The caller promises `l` is lower triangular with positive diagonal,
    /// e.g. the output of [`crate::cholesky_in_place_parallel`].
    pub fn from_lower_unchecked(l: Mat) -> Self {
        Cholesky {
            l,
            l_inv_t: OnceLock::new(),
        }
    }

    /// `L⁻ᵀ`, computed on the first call (`n` forward solves) and kept. Row
    /// `i` is column `i` of `L⁻¹`, so `l_inv_t().matvec_t_into(v, u)` forms
    /// `u = L⁻¹v` in one vectorized pass instead of a forward solve, whose
    /// unknowns wait on each other. That call is the only way a vector is
    /// whitened against `L`: the BPMF sampler's light items use it per
    /// rating, or once per counterpart row for a whole sweep, and rely on
    /// both giving the same bits.
    pub fn l_inv_t(&self) -> &Mat {
        self.l_inv_t.get_or_init(|| {
            let n = self.dim();
            let mut m = Mat::zeros(n, n);
            for i in 0..n {
                let row = m.row_mut(i);
                row[i] = 1.0;
                solve_lower(&self.l, row);
            }
            m
        })
    }

    /// The lower factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Order of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        solve_lower(&self.l, b);
        solve_lower_transpose(&self.l, b);
    }

    /// Solve `Lᵀ x = b` in place.
    ///
    /// Mapping i.i.d. standard normals through this produces a draw with
    /// covariance `A⁻¹` — the precision-form sampling step of BPMF.
    pub fn solve_lt_in_place(&self, b: &mut [f64]) {
        solve_lower_transpose(&self.l, b);
    }

    /// Solve `L x = b` in place.
    pub fn solve_l_in_place(&self, b: &mut [f64]) {
        solve_lower(&self.l, b);
    }

    /// Explicit inverse `A⁻¹` (dense). Prefer the solves in hot paths.
    pub fn inverse(&self) -> Mat {
        let n = self.dim();
        let mut inv = Mat::zeros(n, n);
        let mut col = vec![0.0; n];
        for j in 0..n {
            col.fill(0.0);
            col[j] = 1.0;
            self.solve_in_place(&mut col);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }

    /// `log |A|` via the factor diagonal.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Rebuild `L Lᵀ` (testing / diagnostics).
    pub fn reconstruct(&self) -> Mat {
        self.l.matmul_transb(&self.l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example(n: usize) -> Mat {
        // A = B Bᵀ + n·I is SPD for any B.
        let b = Mat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 11) as f64 / 11.0 - 0.4);
        let mut a = b.matmul_transb(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        for n in [1, 2, 3, 8, 17] {
            let a = spd_example(n);
            let chol = Cholesky::factor(&a).unwrap();
            assert!(chol.reconstruct().max_abs_diff(&a) < 1e-9, "n = {n}");
        }
    }

    /// Every arm the host supports, called directly, over orders below, at
    /// and beside the block edges: `L Lᵀ` reproduces the input, the strict
    /// upper triangle comes back zero, and garbage there is never read.
    #[test]
    fn every_arm_reconstructs_input_from_the_lower_triangle_alone() {
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 64] {
            let a = spd_example(n);
            let mut garbage_upper = a.clone();
            for i in 0..n {
                for j in i + 1..n {
                    garbage_upper[(i, j)] = f64::NAN;
                }
            }
            for level in simd::supported_levels() {
                let mut l = garbage_upper.clone();
                cholesky_at(level, &mut l).unwrap();
                for i in 0..n {
                    assert!(l[(i, i)] > 0.0, "{level:?} n={n}: diagonal {i}");
                    for j in i + 1..n {
                        assert_eq!(l[(i, j)], 0.0, "{level:?} n={n}: upper ({i},{j})");
                    }
                }
                let diff = l.matmul_transb(&l).max_abs_diff(&a);
                assert!(diff <= 1e-10, "{level:?} n={n}: {diff:e}");
            }
        }
    }

    /// The factorization must stop at the first column whose leading minor
    /// is not positive definite — the same `pivot` the row-oriented loop
    /// reported — wherever that column sits in its block.
    #[test]
    fn every_arm_reports_the_first_failing_pivot() {
        let n = 33;
        for bad in [0usize, 1, 7, 8, 9, 20, 31, 32] {
            // Sinking one diagonal entry breaks exactly the leading minors
            // that contain it.
            let mut a = spd_example(n);
            a[(bad, bad)] -= 10.0 * n as f64;
            for level in simd::supported_levels() {
                match cholesky_at(level, &mut a.clone()) {
                    Err(LinalgError::NotPositiveDefinite { pivot }) => {
                        assert_eq!(pivot, bad, "{level:?}")
                    }
                    other => {
                        panic!("{level:?} bad={bad}: expected NotPositiveDefinite, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn solve_gives_small_residual() {
        let a = spd_example(12);
        let chol = Cholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64 - 6.0) * 0.3).collect();
        let mut b = a.matvec(&x_true);
        chol.solve_in_place(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_example(6);
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Mat::identity(6)) < 1e-9);
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let mut a = Mat::identity(2);
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 9.0;
        a[(1, 0)] = 1.0;
        a[(0, 1)] = 1.0;
        let chol = Cholesky::factor(&a).unwrap();
        let det: f64 = 4.0 * 9.0 - 1.0;
        assert!((chol.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = Mat::identity(3);
        a[(1, 1)] = -2.0;
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn only_lower_triangle_is_read() {
        let a = spd_example(5);
        let mut garbage_upper = a.clone();
        for i in 0..5 {
            for j in i + 1..5 {
                garbage_upper[(i, j)] = f64::NAN;
            }
        }
        let c1 = Cholesky::factor(&a).unwrap();
        let c2 = Cholesky::factor(&garbage_upper).unwrap();
        assert!(c1.l().max_abs_diff(c2.l()) < 1e-15);
    }
}
