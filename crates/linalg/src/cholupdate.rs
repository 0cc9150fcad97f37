//! Rank-one update and downdate of a Cholesky factor.
//!
//! Given `L` with `L Lᵀ = A`, [`chol_update`] rewrites `L` so that
//! `L Lᵀ = A + x xᵀ` in `O(n²)` — this is the "rank-one update" item kernel
//! of the paper (Fig. 2): an item with `d` ratings folds each `√α·v` rating
//! vector into the prior factor for `O(d·K²)` total, skipping the final
//! `O(K³)` factorization entirely. For small `d` this beats rebuilding the
//! precision matrix and factoring it.

use crate::error::LinalgError;
use crate::mat::Mat;

/// Update `l` in place so that `(L Lᵀ) ← (L Lᵀ) + x xᵀ`.
///
/// `x` is used as scratch and destroyed. Column `k` is one Givens rotation
/// of the pair `(L[·, k], x)`: with `r = √(L[k,k]² + x[k]²)`, `c = L[k,k]/r`
/// and `s = x[k]/r`, every row below takes `L[i,k] ← c·L[i,k] + s·x[i]` and
/// `x[i] ← c·x[i] − s·L[i,k]`, both from the *old* pair. That costs one
/// reciprocal per column and no division per element, and the elements of
/// a column are independent of each other — the only serial dependence
/// left is `x[k+1] → r → 1/r → (c, s)` from one column to the next.
/// Unconditionally stable for updates.
pub fn chol_update(l: &mut Mat, x: &mut [f64]) {
    let n = l.rows();
    assert_eq!(n, l.cols(), "chol_update requires a square factor");
    assert_eq!(x.len(), n, "chol_update vector length mismatch");
    let a = l.as_mut_slice();
    for k in 0..n {
        let lkk = a[k * n + k];
        let xk = x[k];
        let r = (lkk * lkk + xk * xk).sqrt();
        let inv = 1.0 / r;
        let (c, s) = (lkk * inv, xk * inv);
        a[k * n + k] = r;
        // Column k below the diagonal, one element per row of the factor.
        let below = a[(k + 1) * n..].iter_mut().skip(k).step_by(n);
        for (lik, xi) in below.zip(&mut x[k + 1..]) {
            let (l0, x0) = (*lik, *xi);
            *lik = c * l0 + s * x0;
            *xi = c * x0 - s * l0;
        }
    }
}

/// Downdate `l` in place so that `(L Lᵀ) ← (L Lᵀ) - x xᵀ`.
///
/// Fails with [`LinalgError::NotPositiveDefinite`] if the downdated matrix
/// would lose positive definiteness. `x` is used as scratch and destroyed.
pub fn chol_downdate(l: &mut Mat, x: &mut [f64]) -> Result<(), LinalgError> {
    let n = l.rows();
    assert_eq!(n, l.cols(), "chol_downdate requires a square factor");
    assert_eq!(x.len(), n, "chol_downdate vector length mismatch");
    for k in 0..n {
        let lkk = l[(k, k)];
        let xk = x[k];
        let d = lkk * lkk - xk * xk;
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: k });
        }
        let r = d.sqrt();
        let c = r / lkk;
        let s = xk / lkk;
        l[(k, k)] = r;
        for i in k + 1..n {
            let lik = (l[(i, k)] - s * x[i]) / c;
            x[i] = c * x[i] - s * lik;
            l[(i, k)] = lik;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::Cholesky;

    fn spd(n: usize, seed: u64) -> Mat {
        let b = Mat::from_fn(n, n, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_add(seed)
                .wrapping_mul(1442695040888963407);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        });
        let mut a = b.matmul_transb(&b);
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.5;
        }
        a
    }

    #[test]
    fn update_matches_refactorization() {
        for n in [1, 2, 5, 16, 31, 32, 33, 64] {
            let a = spd(n, 7);
            let x: Vec<f64> = (0..n).map(|i| 0.3 * (i as f64 + 1.0).sin()).collect();

            let mut expected = a.clone();
            expected.syrk_lower(1.0, &x);
            let expected_l = Cholesky::factor(&expected).unwrap();

            let mut chol = Cholesky::factor(&a).unwrap();
            let mut scratch = x.clone();
            chol_update(chol.l_mut(), &mut scratch);

            assert!(
                chol.l().max_abs_diff(expected_l.l()) < 1e-9,
                "update mismatch for n = {n}"
            );
        }
    }

    #[test]
    fn downdate_reverses_update() {
        let a = spd(8, 3);
        let x: Vec<f64> = (0..8).map(|i| 0.2 * (i as f64 - 4.0)).collect();
        let original = Cholesky::factor(&a).unwrap();

        let mut chol = original.clone();
        let mut s = x.clone();
        chol_update(chol.l_mut(), &mut s);
        let mut s = x.clone();
        chol_downdate(chol.l_mut(), &mut s).unwrap();

        assert!(chol.l().max_abs_diff(original.l()) < 1e-9);
    }

    #[test]
    fn downdate_detects_loss_of_positive_definiteness() {
        let a = Mat::identity(3);
        let mut chol = Cholesky::factor(&a).unwrap();
        let mut x = vec![2.0, 0.0, 0.0]; // I - x xᵀ has a negative eigenvalue
        assert!(chol_downdate(chol.l_mut(), &mut x).is_err());
    }

    #[test]
    fn repeated_updates_accumulate() {
        // Folding d rating vectors one at a time must equal the batch build —
        // this is exactly the equivalence the rank-one item kernel relies on.
        let n = 6;
        let a = spd(n, 11);
        let vectors: Vec<Vec<f64>> = (0..10)
            .map(|r| (0..n).map(|i| ((r * n + i) as f64 * 0.37).cos()).collect())
            .collect();

        let mut batch = a.clone();
        for v in &vectors {
            batch.syrk_lower(1.0, v);
        }
        let batch_l = Cholesky::factor(&batch).unwrap();

        let mut inc = Cholesky::factor(&a).unwrap();
        for v in &vectors {
            let mut s = v.clone();
            chol_update(inc.l_mut(), &mut s);
        }

        assert!(inc.l().max_abs_diff(batch_l.l()) < 1e-8);
    }
}
