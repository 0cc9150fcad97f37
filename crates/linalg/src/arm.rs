//! Per-arm building blocks of the `K × K` stage (rank-d accumulation,
//! Cholesky, triangular solves).
//!
//! Those kernels are written once, generic over an [`Arm`], and
//! instantiated per SIMD level by [`dispatch!`]: the generic body is
//! `#[inline(always)]`, so inside the `#[target_feature]` wrapper the arm's
//! intrinsics inline and the whole kernel is compiled for that feature set.
//! An arm contributes only what differs between levels: a fused scalar
//! multiply-add, an eight-lane row type [`Arm::V`] (one AVX-512 register,
//! two AVX2 registers, or a plain array) with lane-counted loads and stores
//! — so a ragged edge is a masked vector operation, never a scalar
//! remainder loop — an 8 × 8 transpose, and the arm's rank-d register tile
//! ([`Arm::syrk_tiles`], implemented in [`crate::panel`]).
//!
//! Every arm is a fixed sequence of IEEE operations for a given input, so
//! each is deterministic; different arms round differently (fused vs
//! unfused products).

use crate::panel;

/// Lanes of [`Arm::V`], and the block edge of every kernel built on it.
pub(crate) const LANES: usize = 8;

/// One SIMD level's primitives.
///
/// # Safety
///
/// Every method of a vector arm must only run on a CPU with that arm's
/// features; [`dispatch!`] guarantees it by calling them from the matching
/// `#[target_feature]` wrapper, selected by a `SimdLevel` the CPU supports.
pub(crate) trait Arm {
    /// A row of [`LANES`] doubles.
    type V: Copy;

    /// `a · b + c`, fused where the arm has FMA hardware.
    unsafe fn fma(a: f64, b: f64, c: f64) -> f64;

    /// All lanes zero.
    unsafe fn vzero() -> Self::V;
    /// All lanes `x`.
    unsafe fn vsplat(x: f64) -> Self::V;
    /// The first `lanes ≤ 8` elements of `p`; the other lanes zero.
    unsafe fn vload(p: &[f64], lanes: usize) -> Self::V;
    /// Write the first `lanes ≤ 8` lanes of `v` to the head of `p`.
    unsafe fn vstore(v: Self::V, p: &mut [f64], lanes: usize);
    /// Lane-wise `a · b + c`.
    unsafe fn vfma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Lane-wise `a + b`.
    unsafe fn vadd(a: Self::V, b: Self::V) -> Self::V;
    /// Transpose eight rows as an 8 × 8 matrix.
    unsafe fn vtranspose(rows: &mut [Self::V; LANES]);

    /// `C[i, j] += alpha · Σ_r P[r, i] · P[r, j]` for `lo ≤ j ≤ i < k`:
    /// `c_rows` holds rows `lo..k` of the `k × k` row-major output, `p` the
    /// rows of the panel (row stride `k`; columns below `lo` are ignored).
    unsafe fn syrk_tiles(c_rows: &mut [f64], lo: usize, alpha: f64, p: &[f64], k: usize);
}

/// Portable arm (`BPMF_NO_SIMD`, non-x86_64, or no AVX2+FMA hardware).
pub(crate) struct Scalar;

impl Arm for Scalar {
    type V = [f64; LANES];

    #[inline(always)]
    unsafe fn fma(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }

    #[inline(always)]
    unsafe fn vzero() -> Self::V {
        [0.0; LANES]
    }

    #[inline(always)]
    unsafe fn vsplat(x: f64) -> Self::V {
        [x; LANES]
    }

    #[inline(always)]
    unsafe fn vload(p: &[f64], lanes: usize) -> Self::V {
        let mut v = [0.0; LANES];
        v[..lanes].copy_from_slice(&p[..lanes]);
        v
    }

    #[inline(always)]
    unsafe fn vstore(v: Self::V, p: &mut [f64], lanes: usize) {
        p[..lanes].copy_from_slice(&v[..lanes]);
    }

    #[inline(always)]
    unsafe fn vfma(a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] * b[l] + c[l])
    }

    #[inline(always)]
    unsafe fn vadd(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] + b[l])
    }

    #[inline(always)]
    unsafe fn vtranspose(rows: &mut [Self::V; LANES]) {
        let src = *rows;
        for (i, row) in rows.iter_mut().enumerate() {
            *row = std::array::from_fn(|j| src[j][i]);
        }
    }

    #[inline(always)]
    unsafe fn syrk_tiles(c_rows: &mut [f64], lo: usize, alpha: f64, p: &[f64], k: usize) {
        panel::syrk_tiles_scalar(c_rows, lo, alpha, p, k);
    }
}

/// AVX2+FMA arm: a row is two 4-lane registers.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx2;

/// The low `min(n, 4)` lanes as an AVX2 `maskload`/`maskstore` mask.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn avx2_lanes(n: usize) -> std::arch::x86_64::__m256i {
    const TABLE: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
    // SAFETY: the offset is in 0..=4, so the 4-element read stays in TABLE.
    std::arch::x86_64::_mm256_loadu_si256(TABLE.as_ptr().add(4 - n.min(4)).cast())
}

/// The low `min(n, 8)` lanes as an AVX-512 mask.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn avx512_lanes(n: usize) -> std::arch::x86_64::__mmask8 {
    (0xFFu16 >> (8 - n.min(8))) as u8
}

#[cfg(target_arch = "x86_64")]
impl Arm for Avx2 {
    type V = [std::arch::x86_64::__m256d; 2];

    #[inline(always)]
    unsafe fn fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    #[inline(always)]
    unsafe fn vzero() -> Self::V {
        [std::arch::x86_64::_mm256_setzero_pd(); 2]
    }

    #[inline(always)]
    unsafe fn vsplat(x: f64) -> Self::V {
        [std::arch::x86_64::_mm256_set1_pd(x); 2]
    }

    #[inline(always)]
    unsafe fn vload(p: &[f64], lanes: usize) -> Self::V {
        use std::arch::x86_64::*;
        assert!(lanes <= LANES && lanes <= p.len(), "vload out of range");
        let ptr = p.as_ptr();
        // SAFETY: only the first `lanes` elements are unmasked; the high
        // half's address may lie past the slice (fully masked then), hence
        // the wrapping offset.
        [
            _mm256_maskload_pd(ptr, avx2_lanes(lanes)),
            _mm256_maskload_pd(ptr.wrapping_add(4), avx2_lanes(lanes.saturating_sub(4))),
        ]
    }

    #[inline(always)]
    unsafe fn vstore(v: Self::V, p: &mut [f64], lanes: usize) {
        use std::arch::x86_64::*;
        assert!(lanes <= LANES && lanes <= p.len(), "vstore out of range");
        let ptr = p.as_mut_ptr();
        // SAFETY: as in `vload`.
        _mm256_maskstore_pd(ptr, avx2_lanes(lanes), v[0]);
        _mm256_maskstore_pd(
            ptr.wrapping_add(4),
            avx2_lanes(lanes.saturating_sub(4)),
            v[1],
        );
    }

    #[inline(always)]
    unsafe fn vfma(a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        use std::arch::x86_64::*;
        [
            _mm256_fmadd_pd(a[0], b[0], c[0]),
            _mm256_fmadd_pd(a[1], b[1], c[1]),
        ]
    }

    #[inline(always)]
    unsafe fn vadd(a: Self::V, b: Self::V) -> Self::V {
        use std::arch::x86_64::*;
        [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])]
    }

    #[inline(always)]
    unsafe fn vtranspose(rows: &mut [Self::V; LANES]) {
        use std::arch::x86_64::*;
        /// Transpose the 4 × 4 block `[r[0][h], …, r[3][h]]`.
        #[inline(always)]
        unsafe fn t4(r0: __m256d, r1: __m256d, r2: __m256d, r3: __m256d) -> [__m256d; 4] {
            let (a, b) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
            let (c, d) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
            [
                _mm256_permute2f128_pd(a, c, 0x20),
                _mm256_permute2f128_pd(b, d, 0x20),
                _mm256_permute2f128_pd(a, c, 0x31),
                _mm256_permute2f128_pd(b, d, 0x31),
            ]
        }
        // [[A B] [C D]]ᵀ = [[Aᵀ Cᵀ] [Bᵀ Dᵀ]] over 4 × 4 quadrants.
        let r = *rows;
        let a = t4(r[0][0], r[1][0], r[2][0], r[3][0]);
        let b = t4(r[0][1], r[1][1], r[2][1], r[3][1]);
        let c = t4(r[4][0], r[5][0], r[6][0], r[7][0]);
        let d = t4(r[4][1], r[5][1], r[6][1], r[7][1]);
        for i in 0..4 {
            rows[i] = [a[i], c[i]];
            rows[i + 4] = [b[i], d[i]];
        }
    }

    #[inline(always)]
    unsafe fn syrk_tiles(c_rows: &mut [f64], lo: usize, alpha: f64, p: &[f64], k: usize) {
        panel::syrk_tiles_avx2(c_rows, lo, alpha, p, k);
    }
}

/// AVX-512F arm: a row is one register.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Arm for Avx512 {
    type V = std::arch::x86_64::__m512d;

    #[inline(always)]
    unsafe fn fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    #[inline(always)]
    unsafe fn vzero() -> Self::V {
        std::arch::x86_64::_mm512_setzero_pd()
    }

    #[inline(always)]
    unsafe fn vsplat(x: f64) -> Self::V {
        std::arch::x86_64::_mm512_set1_pd(x)
    }

    #[inline(always)]
    unsafe fn vload(p: &[f64], lanes: usize) -> Self::V {
        assert!(lanes <= LANES && lanes <= p.len(), "vload out of range");
        // SAFETY: only the first `lanes` elements are unmasked.
        std::arch::x86_64::_mm512_maskz_loadu_pd(avx512_lanes(lanes), p.as_ptr())
    }

    #[inline(always)]
    unsafe fn vstore(v: Self::V, p: &mut [f64], lanes: usize) {
        assert!(lanes <= LANES && lanes <= p.len(), "vstore out of range");
        // SAFETY: as in `vload`.
        std::arch::x86_64::_mm512_mask_storeu_pd(p.as_mut_ptr(), avx512_lanes(lanes), v);
    }

    #[inline(always)]
    unsafe fn vfma(a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        std::arch::x86_64::_mm512_fmadd_pd(a, b, c)
    }

    #[inline(always)]
    unsafe fn vadd(a: Self::V, b: Self::V) -> Self::V {
        std::arch::x86_64::_mm512_add_pd(a, b)
    }

    #[inline(always)]
    unsafe fn vtranspose(rows: &mut [Self::V; LANES]) {
        use std::arch::x86_64::*;
        let r = *rows;
        // Pairs of rows interleaved per 128-bit group: `e[i]` holds columns
        // {0,2,4,6} of rows 2i and 2i+1, `o[i]` columns {1,3,5,7}.
        let e: [__m512d; 4] = std::array::from_fn(|i| _mm512_unpacklo_pd(r[2 * i], r[2 * i + 1]));
        let o: [__m512d; 4] = std::array::from_fn(|i| _mm512_unpackhi_pd(r[2 * i], r[2 * i + 1]));
        // Gather one 128-bit group from each of the four pairs.
        #[inline(always)]
        unsafe fn groups(x: [__m512d; 4]) -> [__m512d; 4] {
            let a = _mm512_shuffle_f64x2(x[0], x[1], 0x88); // groups 0, 2
            let b = _mm512_shuffle_f64x2(x[0], x[1], 0xDD); // groups 1, 3
            let c = _mm512_shuffle_f64x2(x[2], x[3], 0x88);
            let d = _mm512_shuffle_f64x2(x[2], x[3], 0xDD);
            [
                _mm512_shuffle_f64x2(a, c, 0x88), // group 0 of every pair
                _mm512_shuffle_f64x2(b, d, 0x88), // group 1
                _mm512_shuffle_f64x2(a, c, 0xDD), // group 2
                _mm512_shuffle_f64x2(b, d, 0xDD), // group 3
            ]
        }
        let (ge, go) = (groups(e), groups(o));
        for g in 0..4 {
            rows[2 * g] = ge[g];
            rows[2 * g + 1] = go[g];
        }
    }

    #[inline(always)]
    unsafe fn syrk_tiles(c_rows: &mut [f64], lo: usize, alpha: f64, p: &[f64], k: usize) {
        panel::syrk_tiles_avx512(c_rows, lo, alpha, p, k);
    }
}

/// Run the generic kernel body `$body::<A>($args…)` on the arm `$level`
/// names: the AVX2 and AVX-512 instantiations are compiled inside
/// `#[target_feature]` wrappers, the scalar one as plain code.
///
/// `$level` must be a level the CPU supports (`simd::simd_level()`, or a
/// level a test took from `simd::supported_levels`).
macro_rules! dispatch {
    ($level:expr, $body:ident($($arg:ident : $ty:ty),*) -> $ret:ty) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512($($arg: $ty),*) -> $ret {
            $body::<$crate::arm::Avx512>($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn avx2($($arg: $ty),*) -> $ret {
            $body::<$crate::arm::Avx2>($($arg),*)
        }
        match $level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level names features this CPU has.
            $crate::simd::SimdLevel::Avx512 => unsafe { avx512($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            $crate::simd::SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
            // SAFETY: the scalar arm has no CPU requirement.
            _ => unsafe { $body::<$crate::arm::Scalar>($($arg),*) },
        }
    }};
}
pub(crate) use dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane-counted load/store round trip and the transpose, on one arm.
    #[inline(always)]
    unsafe fn rows_roundtrip<A: Arm>(src: &[f64], lanes: usize) -> Vec<f64> {
        let mut rows = [A::vzero(); LANES];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = A::vload(&src[r * LANES..], lanes);
        }
        A::vtranspose(&mut rows);
        let mut out = vec![-1.0; LANES * LANES];
        for (r, row) in rows.iter().enumerate() {
            A::vstore(*row, &mut out[r * LANES..], LANES);
        }
        out
    }

    #[test]
    fn every_arm_loads_masks_and_transposes_alike() {
        let src: Vec<f64> = (0..LANES * LANES).map(|i| i as f64 + 0.5).collect();
        for level in crate::simd::supported_levels() {
            for lanes in 0..=LANES {
                let src = &src[..];
                let got = dispatch!(level, rows_roundtrip(src: &[f64], lanes: usize) -> Vec<f64>);
                for i in 0..LANES {
                    for j in 0..LANES {
                        // got = transpose of the lane-masked rows.
                        let want = if i < lanes { src[j * LANES + i] } else { 0.0 };
                        assert_eq!(
                            got[i * LANES + j],
                            want,
                            "{level:?} lanes={lanes} ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}
