//! Runtime SIMD dispatch shared by every explicitly vectorized kernel.
//!
//! The crate's hand-written vector kernels ([`crate::gemm`], the panel
//! kernels [`crate::syrk_ld_lower`]/[`crate::gemv_t_acc`], the `K × K`
//! stage — [`crate::cholesky_in_place`] and the triangular solves — and
//! [`crate::Mat::matvec_t_into`]) all gate on one decision instead of
//! re-detecting features at every call site. It is made once per process
//! and cached:
//!
//! * on `x86_64`, the CPU must report **both** AVX2 and FMA (the kernels
//!   use fused multiply-adds on 4-lane `f64` vectors); AVX-512F on top of
//!   that selects the 8-lane arms;
//! * setting the environment variable `BPMF_NO_SIMD` to anything but `0`
//!   or the empty string forces the scalar arm everywhere — this is how CI
//!   exercises the fallback path on hosts that do have AVX2, and how a
//!   deployment can rule out SIMD when chasing a numerical discrepancy
//!   (the scalar and vector arms re-associate sums differently).
//!
//! Non-`x86_64` targets always take the scalar arm.

use std::sync::OnceLock;

/// The widest vector arm the current process will dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable arms only (`BPMF_NO_SIMD`, or no AVX2+FMA hardware).
    Scalar,
    /// 4-lane `f64` AVX2+FMA kernels.
    Avx2,
    /// 8-lane `f64` AVX-512F kernels: the GEMM, the rank-d panel
    /// accumulation and the `K × K` stage. The few kernels without a 512-bit
    /// arm (`gemv_t_acc`, `Mat::matvec_t_into`) use their AVX2 arm.
    Avx512,
}

/// The dispatch level, decided once per process: AVX-512F when the CPU
/// has it (on top of AVX2+FMA), else AVX2+FMA, else scalar — and scalar
/// unconditionally when `BPMF_NO_SIMD` is set. Cached after the first
/// call, so flipping the variable mid-process has no effect — set it
/// before the first kernel runs (in practice: in the environment of the
/// process).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if scalar_forced() || !simd_supported() {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        SimdLevel::Avx2
    })
}

/// True when the explicit vector kernel arms should run: the CPU
/// supports them and `BPMF_NO_SIMD` is unset.
pub fn simd_enabled() -> bool {
    simd_level() != SimdLevel::Scalar
}

/// The `BPMF_NO_SIMD` override, read fresh (uncached) — test support.
fn scalar_forced() -> bool {
    std::env::var_os("BPMF_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Does this CPU support the vector arms at all (ignoring the override)?
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Every level this CPU can run, narrowest first — what the per-arm tests
/// iterate over, so a wider arm never shadows a narrower one. Ignores
/// `BPMF_NO_SIMD` (the tests name their arm explicitly).
#[cfg(test)]
pub(crate) fn supported_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if simd_supported() {
        levels.push(SimdLevel::Avx2);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(SimdLevel::Avx512);
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_is_stable_and_implies_support() {
        let first = simd_enabled();
        assert_eq!(first, simd_enabled(), "cached decision must not flip");
        assert_eq!(first, simd_level() != SimdLevel::Scalar);
        if first {
            assert!(simd_supported(), "enabled requires hardware support");
        }
    }
}
