//! Macau-style side information: per-item features shift the prior mean.
//!
//! The paper credits BPMF with easily incorporating side information and
//! cites Macau (Simm et al. 2015, its reference \[6\] — from the same
//! ExaScience group) as the system that does so at scale. This module
//! implements the core Macau mechanism on top of the BPMF sampler:
//!
//! * every item `i` of one side carries a feature vector `f_i` (rows of an
//!   `N × d` matrix `F` — compound fingerprints in the ChEMBL reading,
//!   genres/tags in the MovieLens reading);
//! * a `d × K` *link matrix* `β` maps features to latent space, shifting
//!   item `i`'s prior from `N(μ, Λ⁻¹)` to `N(μ + βᵀ f_i, Λ⁻¹)`;
//! * `β` gets a matrix-normal prior `MN(0, λ_β⁻¹ I_d, Λ⁻¹)` and is Gibbs-
//!   sampled from its conjugate conditional
//!   `β | U, μ, Λ ~ MN(Â⁻¹ Fᵀ(U − 1μᵀ), Â⁻¹, Λ⁻¹)` with
//!   `Â = FᵀF + λ_β I`;
//! * optionally `λ_β` itself is resampled from its conjugate Gamma
//!   conditional, as Macau does.
//!
//! The item-update kernels are untouched except for a per-item right-hand-
//! side shift (`update_item`'s `offset` argument): the conditional item
//! precision does not depend on the features, which is why the paper's
//! Fig. 2 performance analysis carries over to the side-information model
//! unchanged.
//!
//! Why this matters for the paper's motivating workload: ChEMBL-style drug
//! discovery is *cold-start heavy* — most compounds have very few measured
//! targets — and feature-informed priors are what make predictions for
//! sparse rows usable. The `cold_start` integration test demonstrates the
//! effect.

use bpmf_linalg::{solve_lower_transpose, Cholesky, Mat};
use bpmf_stats::{fill_standard_normal, gamma, Xoshiro256pp};

/// Feature side information for one side of the factorization, with the
/// current link-matrix sample and its cached derived quantities.
#[derive(Clone, Debug)]
pub struct FeatureSideInfo {
    /// `N × d` feature matrix (row `i` = features of item `i`).
    features: Mat,
    /// Cached `FᵀF` (`d × d`), reused every resample.
    ftf: Mat,
    /// Current link-matrix sample (`d × K`).
    beta: Mat,
    /// Cached per-item prior-mean offsets `F β` (`N × K`).
    offsets: Mat,
    /// Ridge / prior precision on the link matrix.
    lambda_beta: f64,
    /// Resample `λ_β` from its Gamma conditional each sweep (Macau's
    /// default behaviour); `false` keeps it fixed.
    sample_lambda_beta: bool,
    /// Gamma hyperprior (shape, rate) for `λ_β` when sampled.
    lambda_beta_prior: (f64, f64),
}

impl FeatureSideInfo {
    /// Attach features for a side with `k` latent dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the feature matrix is empty or `lambda_beta` is not
    /// strictly positive (β would be improper).
    pub fn new(features: Mat, k: usize, lambda_beta: f64) -> Self {
        assert!(
            features.rows() > 0 && features.cols() > 0,
            "features must be non-empty"
        );
        assert!(lambda_beta > 0.0, "lambda_beta must be positive");
        let d = features.cols();
        let n = features.rows();
        let mut ftf = Mat::zeros(d, d);
        for i in 0..n {
            ftf.syrk_lower(1.0, features.row(i));
        }
        ftf.symmetrize_from_lower();
        FeatureSideInfo {
            ftf,
            beta: Mat::zeros(d, k),
            offsets: Mat::zeros(n, k),
            features,
            lambda_beta,
            sample_lambda_beta: true,
            lambda_beta_prior: (1.0, 1.0),
        }
    }

    /// Keep `λ_β` fixed instead of resampling it.
    pub fn with_fixed_lambda_beta(mut self) -> Self {
        self.sample_lambda_beta = false;
        self
    }

    /// Number of features per item.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of items this side information covers.
    pub fn num_items(&self) -> usize {
        self.features.rows()
    }

    /// Current link-matrix sample (`d × K`).
    pub fn beta(&self) -> &Mat {
        &self.beta
    }

    /// Current ridge strength on the link matrix.
    pub fn lambda_beta(&self) -> f64 {
        self.lambda_beta
    }

    /// Current per-item prior-mean offsets `F β` (`N × K`); row `i` is
    /// passed to the item-update kernel as the prior shift of item `i`.
    pub fn offsets(&self) -> &Mat {
        &self.offsets
    }

    /// Gibbs-resample the link matrix given the current factors and
    /// hyperparameters, then refresh the offset cache (and `λ_β` when
    /// configured).
    ///
    /// `chol_lambda` is the Cholesky factor of the current prior precision
    /// `Λ` — the caller already has it from the side's per-sweep prior
    /// parts (see [`crate::GibbsSampler`]).
    pub fn resample_beta(
        &mut self,
        items: &Mat,
        mu: &[f64],
        chol_lambda: &Cholesky,
        rng: &mut Xoshiro256pp,
    ) {
        let (n, d, k) = (self.features.rows(), self.features.cols(), items.cols());
        assert_eq!(items.rows(), n, "factor row count must match features");
        assert_eq!(mu.len(), k, "mu dimension mismatch");

        // Â = FᵀF + λ_β I, factored once.
        let mut a = self.ftf.clone();
        for i in 0..d {
            a[(i, i)] += self.lambda_beta;
        }
        let chol_a = Cholesky::factor(&a).expect("FᵀF + λI is SPD for λ > 0");

        // G = Fᵀ (U − 1μᵀ)   (d × K)
        let mut g = Mat::zeros(d, k);
        let mut resid = vec![0.0; k];
        for i in 0..n {
            let f = self.features.row(i);
            for ((r, &u), &m) in resid.iter_mut().zip(items.row(i)).zip(mu) {
                *r = u - m;
            }
            for (fi, &fv) in f.iter().enumerate() {
                if fv != 0.0 {
                    bpmf_linalg::vecops::axpy(fv, &resid, g.row_mut(fi));
                }
            }
        }

        // Posterior mean M = Â⁻¹ G, solved column-wise.
        let mut col = vec![0.0; d];
        for c in 0..k {
            for r in 0..d {
                col[r] = g[(r, c)];
            }
            chol_a.solve_in_place(&mut col);
            for r in 0..d {
                g[(r, c)] = col[r];
            }
        }

        // Matrix-normal noise: β = M + L_Â⁻ᵀ Z L_Λ⁻¹ gives row covariance
        // Â⁻¹ and column covariance Λ⁻¹.
        let mut z = Mat::zeros(d, k);
        fill_standard_normal(rng, z.as_mut_slice());
        // Columns: w_c = L_Âᵀ \ z_c.
        for c in 0..k {
            for r in 0..d {
                col[r] = z[(r, c)];
            }
            solve_lower_transpose(chol_a.l(), &mut col);
            for r in 0..d {
                z[(r, c)] = col[r];
            }
        }
        // Rows: n_r = L_Λᵀ \ w_r.
        for r in 0..d {
            solve_lower_transpose(chol_lambda.l(), z.row_mut(r));
        }

        self.beta.copy_from(&g);
        self.beta.add_assign_scaled(&z, 1.0);

        // Refresh the offset cache: offsets = F β.
        for i in 0..n {
            let f = self.features.row(i);
            let out = self.offsets.row_mut(i);
            out.fill(0.0);
            for (fi, &fv) in f.iter().enumerate() {
                if fv != 0.0 {
                    bpmf_linalg::vecops::axpy(fv, self.beta.row(fi), out);
                }
            }
        }

        if self.sample_lambda_beta {
            self.resample_lambda_beta(chol_lambda, rng);
        }
    }

    /// Restore a checkpointed link state: set `β` and `λ_β`, refresh the
    /// offset cache. Used on resume, where the features are re-supplied by
    /// the caller and the link sample comes from the checkpoint.
    pub fn restore_link(&mut self, beta: Mat, lambda_beta: f64) {
        assert_eq!(
            beta.rows(),
            self.features.cols(),
            "link rows must match feature count"
        );
        assert_eq!(beta.cols(), self.beta.cols(), "link columns must match K");
        assert!(lambda_beta > 0.0, "lambda_beta must be positive");
        self.beta = beta;
        self.lambda_beta = lambda_beta;
        let n = self.features.rows();
        for i in 0..n {
            let f = self.features.row(i);
            let out = self.offsets.row_mut(i);
            out.fill(0.0);
            for (fi, &fv) in f.iter().enumerate() {
                if fv != 0.0 {
                    bpmf_linalg::vecops::axpy(fv, self.beta.row(fi), out);
                }
            }
        }
    }

    /// Conjugate Gamma update of `λ_β`:
    /// `λ_β | β ~ Gamma(a₀ + dK/2, rate = b₀ + tr(β Λ βᵀ)/2)`.
    fn resample_lambda_beta(&mut self, chol_lambda: &Cholesky, rng: &mut Xoshiro256pp) {
        let (d, k) = (self.beta.rows(), self.beta.cols());
        // tr(β Λ βᵀ) = Σ_r ‖Lᵀ β_r‖² computed via the factor (no K×K temp).
        let mut trace = 0.0;
        let mut tmp = vec![0.0; k];
        let l = chol_lambda.l();
        for r in 0..d {
            // tmp = Lᵀ β_r  →  ‖tmp‖².
            let row = self.beta.row(r);
            for (i, t) in tmp.iter_mut().enumerate() {
                // (Lᵀ x)_i = Σ_{j≥i} L[j,i] x_j
                let mut acc = 0.0;
                for j in i..k {
                    acc += l[(j, i)] * row[j];
                }
                *t = acc;
            }
            trace += bpmf_linalg::vecops::dot(&tmp, &tmp);
        }
        let (a0, b0) = self.lambda_beta_prior;
        let shape = a0 + 0.5 * (d * k) as f64;
        let rate = b0 + 0.5 * trace;
        self.lambda_beta = gamma(rng, shape, 1.0 / rate).max(1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_stats::normal;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    /// Plant u_i = βᵀ f_i + tiny noise; the sampled β must reproduce the
    /// planted offsets.
    #[test]
    fn beta_recovers_planted_link() {
        let (n, d, k) = (800, 3, 2);
        let mut r = rng(5);
        let beta_true = Mat::from_fn(d, k, |_, _| normal(&mut r, 0.0, 1.0));
        let features = Mat::from_fn(n, d, |_, _| normal(&mut r, 0.0, 1.0));
        let mut items = Mat::zeros(n, k);
        for i in 0..n {
            for c in 0..k {
                let mut acc = 0.0;
                for f in 0..d {
                    acc += features[(i, f)] * beta_true[(f, c)];
                }
                items[(i, c)] = acc + normal(&mut r, 0.0, 0.05);
            }
        }
        let lambda = Mat::scaled_identity(k, 1.0 / (0.05f64 * 0.05));
        let chol = Cholesky::factor(&lambda).unwrap();
        let mut si = FeatureSideInfo::new(features.clone(), k, 1.0).with_fixed_lambda_beta();
        si.resample_beta(&items, &vec![0.0; k], &chol, &mut r);
        assert!(
            si.beta().max_abs_diff(&beta_true) < 0.05,
            "planted link not recovered: diff {}",
            si.beta().max_abs_diff(&beta_true)
        );
        // Offsets cache agrees with F β recomputed from scratch.
        for i in [0usize, n / 2, n - 1] {
            for c in 0..k {
                let mut acc = 0.0;
                for f in 0..d {
                    acc += features[(i, f)] * si.beta()[(f, c)];
                }
                assert!((si.offsets()[(i, c)] - acc).abs() < 1e-12);
            }
        }
    }

    /// With no signal (factors pure noise around μ) the sampled β stays
    /// near zero: the ridge dominates.
    #[test]
    fn uninformative_factors_give_small_beta() {
        let (n, d, k) = (500, 4, 3);
        let mut r = rng(9);
        let features = Mat::from_fn(n, d, |_, _| normal(&mut r, 0.0, 1.0));
        let mu = vec![1.0; k];
        let items = Mat::from_fn(n, k, |_, c| mu[c] + normal(&mut r, 0.0, 0.3));
        let lambda = Mat::scaled_identity(k, 1.0 / 0.09);
        let chol = Cholesky::factor(&lambda).unwrap();
        let mut si = FeatureSideInfo::new(features, k, 100.0).with_fixed_lambda_beta();
        si.resample_beta(&items, &mu, &chol, &mut r);
        for v in si.beta().as_slice() {
            assert!(v.abs() < 0.3, "beta should be shrunk near zero, got {v}");
        }
    }

    #[test]
    fn beta_draws_have_posterior_spread() {
        // Two draws from the same conditional must differ (it is a sample,
        // not a point estimate) but agree to within the posterior sd.
        let (n, d, k) = (300, 2, 2);
        let mut r = rng(13);
        let features = Mat::from_fn(n, d, |_, _| normal(&mut r, 0.0, 1.0));
        let items = Mat::from_fn(n, k, |_, _| normal(&mut r, 0.0, 1.0));
        let lambda = Mat::identity(k);
        let chol = Cholesky::factor(&lambda).unwrap();
        let mut si = FeatureSideInfo::new(features, k, 1.0).with_fixed_lambda_beta();
        si.resample_beta(&items, &vec![0.0; k], &chol, &mut r);
        let b1 = si.beta().clone();
        si.resample_beta(&items, &vec![0.0; k], &chol, &mut r);
        let b2 = si.beta().clone();
        let diff = b1.max_abs_diff(&b2);
        assert!(diff > 0.0, "consecutive draws must differ");
        assert!(
            diff < 1.0,
            "consecutive draws should be posterior-close, got {diff}"
        );
    }

    #[test]
    fn lambda_beta_gamma_update_tracks_link_scale() {
        // Large planted β → sampled λ_β small; tiny β → λ_β large.
        let (d, k) = (4, 4);
        let mut r = rng(17);
        let features = Mat::from_fn(50, d, |_, _| normal(&mut r, 0.0, 1.0));
        let lambda = Mat::identity(k);
        let chol = Cholesky::factor(&lambda).unwrap();

        let mut si = FeatureSideInfo::new(features.clone(), k, 1.0);
        si.beta = Mat::from_fn(d, k, |_, _| 5.0);
        si.resample_lambda_beta(&chol, &mut r);
        let big_beta_lambda = si.lambda_beta;

        si.beta = Mat::from_fn(d, k, |_, _| 0.01);
        si.resample_lambda_beta(&chol, &mut r);
        let small_beta_lambda = si.lambda_beta;

        assert!(
            small_beta_lambda > 10.0 * big_beta_lambda,
            "λ_β should shrink for large links: {big_beta_lambda} vs {small_beta_lambda}"
        );
    }

    #[test]
    #[should_panic(expected = "lambda_beta must be positive")]
    fn zero_ridge_is_rejected() {
        let _ = FeatureSideInfo::new(Mat::zeros(3, 2), 2, 0.0);
    }

    #[test]
    fn restore_link_rebuilds_offsets_exactly() {
        // The invariant the checkpoint path relies on: offsets are a pure
        // function of (features, beta), so restoring beta must reproduce
        // them bit-for-bit for any feature matrix.
        let mut r = rng(23);
        for (n, d, k) in [(7usize, 2usize, 3usize), (40, 5, 2), (1, 1, 1)] {
            let features = Mat::from_fn(n, d, |_, _| normal(&mut r, 0.0, 2.0));
            let beta = Mat::from_fn(d, k, |_, _| normal(&mut r, 0.0, 1.0));
            let mut si = FeatureSideInfo::new(features.clone(), k, 0.5);
            si.restore_link(beta.clone(), 2.5);
            assert_eq!(si.lambda_beta(), 2.5);
            for i in 0..n {
                for c in 0..k {
                    let mut acc = 0.0;
                    for f in 0..d {
                        acc += features[(i, f)] * beta[(f, c)];
                    }
                    assert_eq!(si.offsets()[(i, c)].to_bits(), acc.to_bits(), "({i},{c})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "link rows must match")]
    fn restore_link_rejects_wrong_shape() {
        let mut si = FeatureSideInfo::new(Mat::zeros(4, 3), 2, 1.0);
        si.restore_link(Mat::zeros(2, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "factor row count")]
    fn mismatched_item_count_is_rejected() {
        let mut r = rng(1);
        let mut si = FeatureSideInfo::new(Mat::zeros(5, 2), 2, 1.0);
        let chol = Cholesky::factor(&Mat::identity(2)).unwrap();
        si.resample_beta(&Mat::zeros(6, 2), &[0.0, 0.0], &chol, &mut r);
    }
}
