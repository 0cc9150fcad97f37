//! Vector kernels used by the sampler's hot loops.
//!
//! These are the BLAS-1 pieces of the per-item update: `dot` for predictions
//! and precision builds, `axpy` for right-hand-side accumulation. They are
//! written so the compiler can see equal slice lengths and vectorize without
//! bounds checks (iterate over `zip`, assert lengths once up front).

/// Dot product. Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Four partial sums let LLVM keep independent FMA chains in flight;
    // K is a multiple of 4 in practice but the remainder loop keeps this
    // correct for any length.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let ai = &a[i * 4..i * 4 + 4];
        let bi = &b[i * 4..i * 4 + 4];
        s0 += ai[0] * bi[0];
        s1 += ai[1] * bi[1];
        s2 += ai[2] * bi[2];
        s3 += ai[3] * bi[3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `y += a * x`. Panics if lengths differ.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    // Same four-chain unroll as `dot`: the explicit 4-element chunks erase
    // the bounds checks and give LLVM four independent FMA lanes per
    // iteration instead of one serial load-fma-store chain.
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let xi = &x[i * 4..i * 4 + 4];
        let yi = &mut y[i * 4..i * 4 + 4];
        yi[0] += a * xi[0];
        yi[1] += a * xi[1];
        yi[2] += a * xi[2];
        yi[3] += a * xi[3];
    }
    for i in chunks * 4..x.len() {
        y[i] += a * x[i];
    }
}

/// `y = x` element-wise copy. Panics if lengths differ.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Mean of a slice; 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        let a: Vec<f64> = (0..11).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..11).map(|i| 2.0 - i as f64).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn norm2_of_unit_axis() {
        assert!((norm2(&[0.0, 1.0, 0.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
