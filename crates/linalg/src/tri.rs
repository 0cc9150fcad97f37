//! Triangular solves against a lower Cholesky factor.
//!
//! Both solves walk the factor in blocks of eight rows and split every row
//! at the block's first column. Left of the split is the *panel* — unknowns
//! settled by other blocks — handled eight lanes at a time ([`crate::arm`]);
//! right of it is the block's own 8 × 8 triangle, a scalar recurrence whose
//! links are one fused multiply-add each: the triangle's coefficients are
//! pre-multiplied by `1 / L[i, i]`, which does not depend on the right-hand
//! side, so neither the divider nor a multiplication sits between one
//! unknown and the next.
//!
//! The row-oriented loops these replace made every unknown wait for a full
//! dot-product reduction and a divide (forward), or walked a strided column
//! of `L` with one dependent chain per unknown (transposed).

use crate::arm::{dispatch, Arm, LANES};
use crate::mat::Mat;
use crate::simd::{self, SimdLevel};

/// Solve `L x = b` in place (forward substitution), where `l` holds a lower
/// triangular factor in its lower triangle. `b` is overwritten with `x`.
pub fn solve_lower(l: &Mat, b: &mut [f64]) {
    solve_lower_at(simd::simd_level(), l, b);
}

/// [`solve_lower`] on one named arm the CPU supports.
pub(crate) fn solve_lower_at(level: SimdLevel, l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    assert_eq!(n, l.cols(), "solve_lower requires a square factor");
    assert_eq!(b.len(), n, "solve_lower rhs length mismatch");
    dispatch!(level, solve_lower_body(l: &Mat, b: &mut [f64]) -> ())
}

#[inline(always)]
unsafe fn solve_lower_body<A: Arm>(l: &Mat, b: &mut [f64]) {
    let n = b.len();
    for i0 in (0..n).step_by(LANES) {
        let (done, rest) = b.split_at_mut(i0);
        let h = LANES.min(n - i0);
        let mut x = [0.0f64; LANES];
        x[..h].copy_from_slice(&rest[..h]);
        if i0 > 0 {
            // Panel: what the settled unknowns contribute to each row —
            // eight dot products accumulated lane-wise, then reduced
            // together by one transpose (lane t of the sum is row t's dot).
            let mut dots = [A::vzero(); LANES];
            for (xc, c0) in done.chunks_exact(LANES).zip((0..).step_by(LANES)) {
                let xc = A::vload(xc, LANES);
                for (t, acc) in dots.iter_mut().enumerate().take(h) {
                    *acc = A::vfma(A::vload(&l.row(i0 + t)[c0..], LANES), xc, *acc);
                }
            }
            A::vtranspose(&mut dots);
            let lo = A::vadd(A::vadd(dots[0], dots[1]), A::vadd(dots[2], dots[3]));
            let hi = A::vadd(A::vadd(dots[4], dots[5]), A::vadd(dots[6], dots[7]));
            let open = A::vfma(A::vsplat(-1.0), A::vadd(lo, hi), A::vload(&x, LANES));
            A::vstore(open, &mut x, LANES);
        }
        // Triangle: x[t] waits for x[t − 1] through one multiply-add.
        let (coef, inv) = scaled_triangle(l, i0, h, |t, _| t);
        for t in 0..LANES {
            let mut s = x[t] * inv[t];
            for c in 0..t {
                s = A::fma(-coef[t][c], x[c], s);
            }
            x[t] = s;
        }
        // One vector store, so the next block's panel load forwards from it.
        A::vstore(A::vload(&x, LANES), rest, h);
    }
}

/// The strict lower triangle of the diagonal block at `(i0, i0)` (order
/// `h ≤ 8`), element `(t, c)` pre-multiplied by `1 / L[i, i]` of row or
/// column `i = by(t, c)`, with those reciprocals. Padded to 8 × 8 with
/// zeros (reciprocals with ones), so the recurrences over it have constant
/// bounds, unroll, and run on registers.
#[inline(always)]
fn scaled_triangle(
    l: &Mat,
    i0: usize,
    h: usize,
    by: impl Fn(usize, usize) -> usize,
) -> ([[f64; LANES]; LANES], [f64; LANES]) {
    let mut inv = [1.0f64; LANES];
    for (t, v) in inv.iter_mut().enumerate().take(h) {
        *v = 1.0 / l[(i0 + t, i0 + t)];
    }
    let mut coef = [[0.0f64; LANES]; LANES];
    for (t, out) in coef.iter_mut().enumerate().take(h) {
        for (c, &v) in l.row(i0 + t)[i0..i0 + t].iter().enumerate() {
            out[c] = v * inv[by(t, c)];
        }
    }
    (coef, inv)
}

/// Solve `Lᵀ x = b` in place (back substitution) using the lower triangle of
/// `l`. `b` is overwritten with `x`.
///
/// Together with [`solve_lower`] this solves the SPD system `L Lᵀ x = b`;
/// alone it maps an i.i.d. standard normal vector `z` to a draw with
/// covariance `(L Lᵀ)⁻¹`, which is exactly how the BPMF item sampler turns a
/// precision Cholesky factor into posterior noise.
pub fn solve_lower_transpose(l: &Mat, b: &mut [f64]) {
    solve_lower_transpose_at(simd::simd_level(), l, b);
}

/// [`solve_lower_transpose`] on one named arm the CPU supports.
pub(crate) fn solve_lower_transpose_at(level: SimdLevel, l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    assert_eq!(
        n,
        l.cols(),
        "solve_lower_transpose requires a square factor"
    );
    assert_eq!(b.len(), n, "solve_lower_transpose rhs length mismatch");
    dispatch!(level, solve_lower_transpose_body(l: &Mat, b: &mut [f64]) -> ())
}

/// AXPY form: once `x[i]` is known, row `i` of `L` (contiguous) is column
/// `i` of `Lᵀ`, so `b[..i] −= x[i] · L[i, ..i]` retires it from every
/// remaining equation.
#[inline(always)]
unsafe fn solve_lower_transpose_body<A: Arm>(l: &Mat, b: &mut [f64]) {
    let n = b.len();
    for i0 in (0..n).step_by(LANES).rev() {
        let (open, rest) = b.split_at_mut(i0);
        let h = LANES.min(n - i0);
        // Triangle on y[c] = b[c] / L[c, c]: y[t − 1] waits for x[t] = y[t]
        // through one multiply-add.
        let (coef, inv) = scaled_triangle(l, i0, h, |_, c| c);
        let mut x: [f64; LANES] =
            std::array::from_fn(|t| if t < h { rest[t] * inv[t] } else { 0.0 });
        for t in (0..LANES).rev() {
            for c in 0..t {
                x[c] = A::fma(-x[t], coef[t][c], x[c]);
            }
        }
        rest[..h].copy_from_slice(&x[..h]);
        // Panel: retire the block's unknowns from the equations above it.
        for (chunk, c0) in open.chunks_exact_mut(LANES).zip((0..).step_by(LANES)) {
            let (mut even, mut odd) = (A::vload(chunk, LANES), A::vzero());
            for t in (0..h).step_by(2) {
                even = A::vfma(
                    A::vsplat(-x[t]),
                    A::vload(&l.row(i0 + t)[c0..], LANES),
                    even,
                );
                if t + 1 < h {
                    let lrow = A::vload(&l.row(i0 + t + 1)[c0..], LANES);
                    odd = A::vfma(A::vsplat(-x[t + 1]), lrow, odd);
                }
            }
            A::vstore(A::vadd(even, odd), chunk, LANES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_example() -> Mat {
        // L = [2 0 0; 1 3 0; -1 0.5 1.5]
        Mat::from_row_major(3, 3, vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 0.5, 1.5])
    }

    #[test]
    fn forward_substitution_solves_lx_eq_b() {
        let l = lower_example();
        let x_true = [1.0, -2.0, 0.5];
        let mut b = l.matvec(&x_true);
        solve_lower(&l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn back_substitution_solves_ltx_eq_b() {
        let l = lower_example();
        let lt = l.transpose();
        let x_true = [0.25, 4.0, -1.0];
        let mut b = lt.matvec(&x_true);
        solve_lower_transpose(&l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    /// Both solves on every arm the host supports, against a dense
    /// reference (`L x` and `Lᵀ x` by plain loops), over orders below, at
    /// and beside the block edge.
    #[test]
    fn every_arm_solves_against_a_dense_reference() {
        for n in [1usize, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33, 64] {
            let l = Mat::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Less => f64::NAN, // never read
                std::cmp::Ordering::Equal => 1.5 + (i % 5) as f64 * 0.25,
                std::cmp::Ordering::Greater => ((i * 7 + j * 3) % 11) as f64 * 0.05 - 0.25,
            });
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let forward: Vec<f64> = (0..n)
                .map(|i| (0..=i).map(|j| l[(i, j)] * x_true[j]).sum())
                .collect();
            let transposed: Vec<f64> = (0..n)
                .map(|i| (i..n).map(|j| l[(j, i)] * x_true[j]).sum())
                .collect();
            for level in simd::supported_levels() {
                let mut b = forward.clone();
                solve_lower_at(level, &l, &mut b);
                for (got, want) in b.iter().zip(&x_true) {
                    assert!(
                        (got - want).abs() < 1e-10,
                        "{level:?} n={n} forward: {got} vs {want}"
                    );
                }
                let mut b = transposed.clone();
                solve_lower_transpose_at(level, &l, &mut b);
                for (got, want) in b.iter().zip(&x_true) {
                    assert!(
                        (got - want).abs() < 1e-10,
                        "{level:?} n={n} transposed: {got} vs {want}"
                    );
                }
            }
        }
    }
}
