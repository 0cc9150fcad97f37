use std::fmt;
use std::ops::{Index, IndexMut};

use crate::vecops;

/// Row-major dense `f64` matrix.
///
/// The BPMF sampler manipulates two shapes: small square `K × K` precision
/// matrices (hot path) and tall `N × K` factor matrices whose rows are item
/// models. Row-major storage makes a factor row a contiguous `&[f64]`, which
/// is what every kernel in the sampler consumes.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// `scale * I` of order `n`.
    pub fn scaled_identity(n: usize, scale: f64) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = scale;
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build from a row-major flat slice. Panics if the length is not `rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length must be rows * cols"
        );
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Hint the CPU to pull row `i` into cache ahead of a gather. Purely a
    /// performance hint: no effect on results, a no-op off x86_64.
    #[inline]
    pub fn prefetch_row(&self, i: usize) {
        #[cfg(target_arch = "x86_64")]
        for line in self.row(i).chunks(8) {
            // SAFETY: prefetch never faults and `line` is a valid address;
            // SSE is part of the x86_64 baseline.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    line.as_ptr().cast(),
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy every element from `other` (shapes must match). Used by the
    /// update kernels to reset scratch matrices without reallocating.
    pub fn copy_from(&mut self, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += s * other` element-wise.
    pub fn add_assign_scaled(&mut self, other: &Mat, s: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *yi = vecops::dot(row, x);
        }
        y
    }

    /// Matrix-vector product written into `y` (no allocation).
    ///
    /// Eight rows are processed per pass so `x` is streamed once for eight
    /// independent dot-product chains — enough in-flight FMA chains to
    /// cover the FMA latency on both issue ports, where the four-chain
    /// version (and per-row `vecops::dot`) is latency-bound.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        let c = self.cols;
        if c == 0 {
            y.fill(0.0);
            return;
        }
        let mut rows = self.data.chunks_exact(8 * c);
        let mut outs = y.chunks_exact_mut(8);
        for (oct, yo) in rows.by_ref().zip(outs.by_ref()) {
            let (r0, rest) = oct.split_at(c);
            let (r1, rest) = rest.split_at(c);
            let (r2, rest) = rest.split_at(c);
            let (r3, rest) = rest.split_at(c);
            let (r4, rest) = rest.split_at(c);
            let (r5, rest) = rest.split_at(c);
            let (r6, r7) = rest.split_at(c);
            let mut s = [0.0f64; 8];
            for (j, &xj) in x.iter().enumerate() {
                s[0] += xj * r0[j];
                s[1] += xj * r1[j];
                s[2] += xj * r2[j];
                s[3] += xj * r3[j];
                s[4] += xj * r4[j];
                s[5] += xj * r5[j];
                s[6] += xj * r6[j];
                s[7] += xj * r7[j];
            }
            yo.copy_from_slice(&s);
        }
        for (yi, row) in outs
            .into_remainder()
            .iter_mut()
            .zip(rows.remainder().chunks_exact(c))
        {
            *yi = vecops::dot(row, x);
        }
    }

    /// Transposed copy (`cols × rows`).
    pub fn transposed(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product *through the transposed layout*: `self` is
    /// `k × n` and `y[i] = Σ_j x[j] · self[(j, i)]`, i.e. `y = selfᵀ · x`.
    ///
    /// The serving-scan kernel: with the factor matrix stored transposed,
    /// every inner update `y[i] += x_j · row_j[i]` is an independent lane
    /// — no floating-point reduction — so it vectorizes without
    /// reassociation. Eight rows are fused per pass so `y` is read+written
    /// once per eight coefficients instead of once per one; on x86-64 with
    /// AVX2+FMA an explicit 4-lane FMA kernel takes over (gated on the
    /// shared [`crate::simd::simd_enabled`] dispatch, so `BPMF_NO_SIMD=1`
    /// pins the portable arm).
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output mismatch");
        y.fill(0.0);
        if self.cols == 0 {
            return;
        }
        if crate::simd::simd_enabled() {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `simd_enabled` guarantees AVX2+FMA.
                unsafe { self.matvec_t_into_avx2(x, y) };
                return;
            }
        }
        self.matvec_t_into_scalar(x, y);
    }

    /// Portable eight-row fused scan (lane-parallel, auto-vectorizable).
    fn matvec_t_into_scalar(&self, x: &[f64], y: &mut [f64]) {
        let c = self.cols;
        let mut octs = self.data.chunks_exact(8 * c);
        let mut coefs = x.chunks_exact(8);
        for (oct, xo) in octs.by_ref().zip(coefs.by_ref()) {
            let (r0, rest) = oct.split_at(c);
            let (r1, rest) = rest.split_at(c);
            let (r2, rest) = rest.split_at(c);
            let (r3, rest) = rest.split_at(c);
            let (r4, rest) = rest.split_at(c);
            let (r5, rest) = rest.split_at(c);
            let (r6, r7) = rest.split_at(c);
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += xo[0] * r0[i]
                    + xo[1] * r1[i]
                    + xo[2] * r2[i]
                    + xo[3] * r3[i]
                    + xo[4] * r4[i]
                    + xo[5] * r5[i]
                    + xo[6] * r6[i]
                    + xo[7] * r7[i];
            }
        }
        for (&xj, row) in coefs
            .remainder()
            .iter()
            .zip(octs.remainder().chunks_exact(c))
        {
            vecops::axpy(xj, row, y);
        }
    }

    /// AVX2+FMA scan: eight broadcast coefficients folded into `y` in
    /// 32-element blocks (8 × 4-lane accumulators — enough independent FMA
    /// chains to cover the FMA latency on both ports).
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn matvec_t_into_avx2(&self, x: &[f64], y: &mut [f64]) {
        use std::arch::x86_64::*;
        let c = self.cols;
        let mut octs = self.data.chunks_exact(8 * c);
        let mut coefs = x.chunks_exact(8);
        for (oct, xo) in octs.by_ref().zip(coefs.by_ref()) {
            let base = oct.as_ptr();
            let xv: [__m256d; 8] = std::array::from_fn(|r| _mm256_set1_pd(xo[r]));
            let yp = y.as_mut_ptr();
            let mut i = 0usize;
            while i + 32 <= c {
                let mut acc: [__m256d; 8] =
                    std::array::from_fn(|l| _mm256_loadu_pd(yp.add(i + 4 * l)));
                for (r, xr) in xv.iter().enumerate() {
                    let rp = base.add(r * c + i);
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(rp.add(4 * l)), *a);
                    }
                }
                for (l, a) in acc.iter().enumerate() {
                    _mm256_storeu_pd(yp.add(i + 4 * l), *a);
                }
                i += 32;
            }
            while i + 4 <= c {
                let mut a = _mm256_loadu_pd(yp.add(i));
                for (r, xr) in xv.iter().enumerate() {
                    a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(base.add(r * c + i)), a);
                }
                _mm256_storeu_pd(yp.add(i), a);
                i += 4;
            }
            while i < c {
                let mut s = *y.get_unchecked(i);
                for (r, &xr) in xo.iter().enumerate() {
                    s += xr * *base.add(r * c + i);
                }
                *y.get_unchecked_mut(i) = s;
                i += 1;
            }
        }
        for (&xj, row) in coefs
            .remainder()
            .iter()
            .zip(octs.remainder().chunks_exact(c))
        {
            vecops::axpy(xj, row, y);
        }
    }

    /// Gathered matrix-vector product: `y[i] = row(rows_idx[i]) · x`.
    ///
    /// The batched-scoring kernel behind `Recommender::score_batch`: four
    /// gathered rows are processed per pass with four independent
    /// accumulator chains, so `x` is streamed once per quad (the same
    /// discipline as [`Mat::matvec_into`]) without materializing a panel
    /// copy of the gathered rows.
    pub fn gather_matvec_into(&self, rows_idx: &[u32], x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gather_matvec dimension mismatch");
        assert_eq!(y.len(), rows_idx.len(), "gather_matvec output mismatch");
        let c = self.cols;
        if c == 0 {
            y.fill(0.0);
            return;
        }
        let mut quads = rows_idx.chunks_exact(4);
        let mut outs = y.chunks_exact_mut(4);
        for (quad, yq) in quads.by_ref().zip(outs.by_ref()) {
            let r0 = self.row(quad[0] as usize);
            let r1 = self.row(quad[1] as usize);
            let r2 = self.row(quad[2] as usize);
            let r3 = self.row(quad[3] as usize);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
            for ((((&xj, a), b), e), f) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                s0 += xj * a;
                s1 += xj * b;
                s2 += xj * e;
                s3 += xj * f;
            }
            yq[0] = s0;
            yq[1] = s1;
            yq[2] = s2;
            yq[3] = s3;
        }
        for (yi, &i) in outs.into_remainder().iter_mut().zip(quads.remainder()) {
            *yi = vecops::dot(self.row(i as usize), x);
        }
    }

    /// Dense matrix product `self * other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        // i-k-j loop order: streams both `other` rows and `out` rows.
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                vecops::axpy(aik, other.row(k), out_row);
            }
        }
        out
    }

    /// Dense product with the second operand transposed: `self * otherᵀ`.
    pub fn matmul_transb(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_transb dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                out.data[i * other.rows + j] = vecops::dot(a_row, other.row(j));
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Symmetric rank-one accumulation on the **lower** triangle:
    /// `self[lower] += alpha * x xᵀ`.
    ///
    /// This is the inner operation of the precision build
    /// `Λ* = Λ + α Σ v vᵀ`; only the lower triangle is touched because the
    /// Cholesky kernels read only the lower triangle.
    pub fn syrk_lower(&mut self, alpha: f64, x: &[f64]) {
        let n = self.rows;
        assert_eq!(n, self.cols, "syrk_lower requires a square matrix");
        assert_eq!(x.len(), n, "syrk_lower vector length mismatch");
        for i in 0..n {
            let axi = alpha * x[i];
            let row = &mut self.data[i * n..i * n + i + 1];
            // `x[..=i]` has exactly `row.len()` elements: bounds checks fold away.
            for (r, &xj) in row.iter_mut().zip(&x[..=i]) {
                *r += axi * xj;
            }
        }
    }

    /// Copy the lower triangle onto the upper triangle, producing a fully
    /// symmetric matrix.
    pub fn symmetrize_from_lower(&mut self) {
        let n = self.rows;
        assert_eq!(n, self.cols, "symmetrize requires a square matrix");
        for i in 0..n {
            for j in 0..i {
                self.data[j * n + i] = self.data[i * n + j];
            }
        }
    }

    /// Largest absolute element-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let m = Mat::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Mat::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_row_major(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_matches_matmul_of_transpose() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 7 + j) as f64 * 0.25);
        let b = Mat::from_fn(5, 4, |i, j| (i + 2 * j) as f64 - 3.0);
        let direct = a.matmul_transb(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&via_transpose) < 1e-12);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Mat::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn syrk_lower_accumulates_outer_product() {
        let mut m = Mat::zeros(3, 3);
        let x = [1.0, 2.0, 3.0];
        m.syrk_lower(2.0, &x);
        m.symmetrize_from_lower();
        let expected = Mat::from_fn(3, 3, |i, j| 2.0 * x[i] * x[j]);
        assert!(m.max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_scaled_and_scale() {
        let mut a = Mat::identity(2);
        let b = Mat::identity(2);
        a.add_assign_scaled(&b, 3.0);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 0.0);
    }
}
