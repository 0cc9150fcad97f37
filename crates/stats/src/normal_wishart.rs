//! The Normal–Wishart conjugate hyperprior of BPMF.
//!
//! BPMF places `Λ ~ W(W₀, ν₀)`, `μ | Λ ~ N(μ₀, (β₀Λ)⁻¹)` over each side's
//! Gaussian prior and resamples `(μ, Λ)` once per Gibbs sweep from the
//! closed-form posterior (Salakhutdinov & Mnih 2008, Eq. 14). The posterior
//! only needs the count / sum / scatter of the factor rows, so the
//! distributed runtime can reduce [`SuffStats`] across ranks and have every
//! rank draw an identical hyperparameter sample from a shared RNG stream.

use bpmf_linalg::{gemv_t_acc, syrk_ld_lower, Cholesky, Mat, PANEL_BLOCK};

use crate::mvn::sample_mvn_from_precision;
use crate::rng::Xoshiro256pp;
use crate::wishart::sample_wishart;

/// Sufficient statistics of a set of K-vectors: `n`, `Σθ`, `Σθθᵀ`.
///
/// Mergeable, so per-thread partials and per-rank partials combine exactly.
#[derive(Clone, Debug)]
pub struct SuffStats {
    n: usize,
    sum: Vec<f64>,
    /// Raw second moment `Σ θθᵀ`, lower triangle valid.
    scatter: Mat,
}

impl SuffStats {
    /// Empty statistics for dimension `k`.
    pub fn new(k: usize) -> Self {
        SuffStats {
            n: 0,
            sum: vec![0.0; k],
            scatter: Mat::zeros(k, k),
        }
    }

    /// Dimension `K`.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Number of accumulated rows.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Fold one factor row in.
    pub fn add_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.sum.len(), "row dimension mismatch");
        self.n += 1;
        for (s, v) in self.sum.iter_mut().zip(row) {
            *s += v;
        }
        self.scatter.syrk_lower(1.0, row);
    }

    /// Fold a contiguous row-major run of factor rows in (`rows.len()` must
    /// be a multiple of `K`).
    ///
    /// A run of rows is already the panel shape the item update's blocked
    /// kernels take, so the scatter is one rank-d [`syrk_ld_lower`] per
    /// [`PANEL_BLOCK`] rows and the sum one [`gemv_t_acc`] against ones,
    /// both on the block while it is cache-resident — instead of a rank-1
    /// pass over the whole `K × K` accumulator per row.
    pub fn add_rows(&mut self, rows: &[f64]) {
        const ONES: [f64; PANEL_BLOCK] = [1.0; PANEL_BLOCK];
        let k = self.dim();
        if k == 0 {
            return;
        }
        assert_eq!(rows.len() % k, 0, "row dimension mismatch");
        self.n += rows.len() / k;
        for block in rows.chunks(PANEL_BLOCK * k) {
            syrk_ld_lower(&mut self.scatter, 1.0, block, k);
            gemv_t_acc(&mut self.sum, block, &ONES[..block.len() / k]);
        }
    }

    /// Accumulate every row of an `N × K` factor matrix.
    pub fn from_rows(m: &Mat) -> Self {
        let mut s = SuffStats::new(m.cols());
        s.add_rows(m.as_slice());
        s
    }

    /// Accumulate `m - offsets` row-wise: the statistics of the factor
    /// residuals around per-item prior means (Macau-style side information
    /// shifts item `i`'s prior mean by `offsets[i]`, so the Normal–Wishart
    /// update must see the residuals, not the raw factors).
    pub fn from_residual_rows(m: &Mat, offsets: &Mat) -> Self {
        assert_eq!(m.rows(), offsets.rows(), "offset row count mismatch");
        assert_eq!(m.cols(), offsets.cols(), "offset dimension mismatch");
        let mut s = SuffStats::new(m.cols());
        let block_len = PANEL_BLOCK * m.cols().max(1);
        let mut resid = Vec::with_capacity(block_len.min(m.as_slice().len()));
        for (vals, offs) in m
            .as_slice()
            .chunks(block_len)
            .zip(offsets.as_slice().chunks(block_len))
        {
            resid.clear();
            resid.extend(vals.iter().zip(offs).map(|(v, g)| v - g));
            s.add_rows(&resid);
        }
        s
    }

    /// Merge another partial in (exact: all terms are sums).
    pub fn merge(&mut self, other: &SuffStats) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.n += other.n;
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        self.scatter.add_assign_scaled(&other.scatter, 1.0);
    }

    /// Serialize to a flat `f64` buffer (for all-reduce across ranks):
    /// `[n, sum..., scatter_lower...]`.
    pub fn to_flat(&self) -> Vec<f64> {
        let k = self.dim();
        let mut out = Vec::with_capacity(1 + k + k * (k + 1) / 2);
        out.push(self.n as f64);
        out.extend_from_slice(&self.sum);
        for i in 0..k {
            out.extend_from_slice(&self.scatter.row(i)[..=i]);
        }
        out
    }

    /// Inverse of [`SuffStats::to_flat`].
    pub fn from_flat(k: usize, flat: &[f64]) -> Self {
        assert_eq!(
            flat.len(),
            1 + k + k * (k + 1) / 2,
            "flat buffer length mismatch"
        );
        let n = flat[0].round() as usize;
        let sum = flat[1..1 + k].to_vec();
        let mut scatter = Mat::zeros(k, k);
        let mut idx = 1 + k;
        for i in 0..k {
            for j in 0..=i {
                scatter[(i, j)] = flat[idx];
                idx += 1;
            }
        }
        SuffStats { n, sum, scatter }
    }
}

/// Normal–Wishart hyperprior parameters.
#[derive(Clone, Debug)]
pub struct NormalWishart {
    /// Prior mean `μ₀`.
    pub mu0: Vec<f64>,
    /// Prior pseudo-count `β₀` on the mean.
    pub beta0: f64,
    /// *Inverse* of the Wishart scale `W₀` (stored inverted because the
    /// posterior update adds to `W₀⁻¹`).
    pub w0_inv: Mat,
    /// Wishart degrees of freedom `ν₀`.
    pub nu0: f64,
}

impl NormalWishart {
    /// The uninformative default the paper (and the original BPMF code)
    /// uses: `μ₀ = 0`, `β₀ = 2`, `ν₀ = K`, `W₀ = I`.
    pub fn default_for_dim(k: usize) -> Self {
        NormalWishart {
            mu0: vec![0.0; k],
            beta0: 2.0,
            w0_inv: Mat::identity(k),
            nu0: k as f64,
        }
    }

    /// Closed-form Normal–Wishart posterior given sufficient statistics.
    pub fn posterior(&self, stats: &SuffStats) -> NormalWishartPosterior {
        let k = self.mu0.len();
        assert_eq!(stats.dim(), k, "stats dimension mismatch");
        let n = stats.n as f64;

        // θ̄ and centered scatter  Σ(θ-θ̄)(θ-θ̄)ᵀ = Σθθᵀ − n·θ̄θ̄ᵀ.
        let theta_bar: Vec<f64> = if stats.n == 0 {
            vec![0.0; k]
        } else {
            stats.sum.iter().map(|s| s / n).collect()
        };

        let beta_star = self.beta0 + n;
        let nu_star = self.nu0 + n;
        let mu_star: Vec<f64> = self
            .mu0
            .iter()
            .zip(&theta_bar)
            .map(|(m0, tb)| (self.beta0 * m0 + n * tb) / beta_star)
            .collect();

        // (W*)⁻¹ = W₀⁻¹ + centered scatter + (β₀ n / β*)·(θ̄−μ₀)(θ̄−μ₀)ᵀ
        let mut w_star_inv = self.w0_inv.clone();
        w_star_inv.add_assign_scaled(&stats.scatter, 1.0);
        if stats.n > 0 {
            w_star_inv.syrk_lower(-n, &theta_bar);
            let diff: Vec<f64> = theta_bar
                .iter()
                .zip(&self.mu0)
                .map(|(t, m)| t - m)
                .collect();
            w_star_inv.syrk_lower(self.beta0 * n / beta_star, &diff);
        }

        // W* = (W*⁻¹)⁻¹, then factor it for Bartlett sampling.
        let w_star = Cholesky::factor(&w_star_inv)
            .expect("posterior W*^-1 must be SPD")
            .inverse();
        let w_star_chol = Cholesky::factor(&w_star).expect("posterior W* must be SPD");

        NormalWishartPosterior {
            mu_star,
            beta_star,
            nu_star,
            w_star_chol,
        }
    }
}

/// A computed Normal–Wishart posterior, ready to sample from.
#[derive(Clone, Debug)]
pub struct NormalWishartPosterior {
    /// Posterior mean location `μ*`.
    pub mu_star: Vec<f64>,
    /// Posterior pseudo-count `β*`.
    pub beta_star: f64,
    /// Posterior degrees of freedom `ν*`.
    pub nu_star: f64,
    /// Cholesky factor of the posterior Wishart scale `W*`.
    pub w_star_chol: Cholesky,
}

impl NormalWishartPosterior {
    /// Draw `(μ, Λ)`: `Λ ~ W(W*, ν*)` then `μ ~ N(μ*, (β*Λ)⁻¹)`.
    ///
    /// Returns the mean vector and the full symmetric precision matrix `Λ`.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> (Vec<f64>, Mat) {
        let k = self.mu_star.len();
        let mut lambda = sample_wishart(rng, &self.w_star_chol, self.nu_star);
        lambda.symmetrize_from_lower();

        let mut prec = lambda.clone();
        prec.scale(self.beta_star);
        let prec_chol = Cholesky::factor(&prec).expect("β*Λ must be SPD");

        let mut mu = vec![0.0; k];
        sample_mvn_from_precision(rng, &self.mu_star, &prec_chol, &mut mu);
        (mu, lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::normal;

    #[test]
    fn suff_stats_merge_equals_bulk() {
        let k = 3;
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..k).map(|j| (i * k + j) as f64 * 0.1 - 0.7).collect())
            .collect();
        let mut bulk = SuffStats::new(k);
        for r in &rows {
            bulk.add_row(r);
        }
        let mut a = SuffStats::new(k);
        let mut b = SuffStats::new(k);
        for (i, r) in rows.iter().enumerate() {
            if i % 2 == 0 {
                a.add_row(r)
            } else {
                b.add_row(r)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), bulk.count());
        let fa = a.to_flat();
        let fb = bulk.to_flat();
        for (x, y) in fa.iter().zip(&fb) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// The panel path (`add_rows`, behind `from_rows`/`from_residual_rows`)
    /// is a re-association of the per-row sums: same count, same moments,
    /// for row counts on both sides of the panel block and any `K`.
    #[test]
    fn panel_accumulation_matches_per_row() {
        for k in [1usize, 3, 8, 32] {
            for n in [0usize, 1, 63, 64, 65, 200] {
                let m = Mat::from_fn(n, k, |i, j| ((i * 7 + j * 13) % 29) as f64 * 0.1 - 1.3);
                let off = Mat::from_fn(n, k, |i, j| ((i + 3 * j) % 5) as f64 * 0.25);
                let mut per_row = SuffStats::new(k);
                let mut per_row_resid = SuffStats::new(k);
                for i in 0..n {
                    per_row.add_row(m.row(i));
                    let r: Vec<f64> = m
                        .row(i)
                        .iter()
                        .zip(off.row(i))
                        .map(|(v, g)| v - g)
                        .collect();
                    per_row_resid.add_row(&r);
                }
                for (got, want) in [
                    (SuffStats::from_rows(&m), per_row),
                    (SuffStats::from_residual_rows(&m, &off), per_row_resid),
                ] {
                    assert_eq!(got.count(), want.count(), "k={k} n={n}");
                    for (x, y) in got.to_flat().iter().zip(&want.to_flat()) {
                        assert!(
                            (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                            "k={k} n={n}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flat_roundtrip_preserves_stats() {
        let k = 4;
        let mut s = SuffStats::new(k);
        s.add_row(&[1.0, -2.0, 0.5, 3.0]);
        s.add_row(&[0.0, 1.0, -1.0, 2.0]);
        let rt = SuffStats::from_flat(k, &s.to_flat());
        assert_eq!(rt.count(), 2);
        for (x, y) in rt.to_flat().iter().zip(&s.to_flat()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn posterior_concentrates_on_data_moments() {
        // Generate many rows from N(m, s²I); with N → large the posterior
        // mean ≈ sample mean and E[Λ] = ν*·W* ≈ (s²I)⁻¹.
        let k = 3;
        let (m, sd) = (2.0, 0.5);
        let mut rng = Xoshiro256pp::seed_from_u64(101);
        let mut stats = SuffStats::new(k);
        let mut row = vec![0.0; k];
        for _ in 0..50_000 {
            for r in row.iter_mut() {
                *r = normal(&mut rng, m, sd);
            }
            stats.add_row(&row);
        }
        let prior = NormalWishart::default_for_dim(k);
        let post = prior.posterior(&stats);

        for mu in &post.mu_star {
            assert!((mu - m).abs() < 0.02, "mu* = {mu}");
        }

        // E[Λ] = ν* W*: diagonal should be ≈ 1/s² = 4.
        let w_star = post.w_star_chol.reconstruct();
        for i in 0..k {
            let e_lambda_ii = post.nu_star * w_star[(i, i)];
            assert!(
                (e_lambda_ii - 1.0 / (sd * sd)).abs() < 0.2,
                "E[Λ_ii] = {e_lambda_ii}"
            );
        }
    }

    #[test]
    fn empty_stats_reduce_to_prior() {
        let k = 2;
        let prior = NormalWishart::default_for_dim(k);
        let post = prior.posterior(&SuffStats::new(k));
        assert_eq!(post.beta_star, prior.beta0);
        assert_eq!(post.nu_star, prior.nu0);
        assert!(post.mu_star.iter().all(|&m| m == 0.0));
        // W* should equal W₀ = I.
        let w = post.w_star_chol.reconstruct();
        assert!(w.max_abs_diff(&Mat::identity(k)) < 1e-10);
    }

    #[test]
    fn samples_are_finite_and_lambda_spd() {
        let k = 5;
        let mut rng = Xoshiro256pp::seed_from_u64(55);
        let mut stats = SuffStats::new(k);
        let mut row = vec![0.0; k];
        for _ in 0..100 {
            for r in row.iter_mut() {
                *r = normal(&mut rng, 0.0, 1.0);
            }
            stats.add_row(&row);
        }
        let post = NormalWishart::default_for_dim(k).posterior(&stats);
        for _ in 0..50 {
            let (mu, lambda) = post.sample(&mut rng);
            assert!(mu.iter().all(|v| v.is_finite()));
            assert!(Cholesky::factor(&lambda).is_ok());
        }
    }
}
