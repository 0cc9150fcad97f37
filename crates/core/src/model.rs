//! Per-side state: factor matrix, its Normal–Wishart hyperparameters and
//! any side information's link.

use bpmf_linalg::Mat;
use bpmf_stats::{normal, NormalWishart, SuffStats, Xoshiro256pp};

use crate::sideinfo::FeatureSideInfo;
use crate::update::PriorParts;

/// One side of the factorization (users or movies): the current factor
/// sample and the current hyperparameter sample.
#[derive(Clone, Debug)]
pub(crate) struct SideState {
    /// `N × K` factor matrix; row `i` is item `i`'s latent vector.
    pub items: Mat,
    /// Current prior mean sample `μ`.
    pub mu: Vec<f64>,
    /// Current prior precision sample `Λ` (full symmetric).
    pub lambda: Mat,
    /// Macau-style side information, whose link shifts every item's prior
    /// mean by its feature-predicted offset.
    pub link: Option<FeatureSideInfo>,
}

impl SideState {
    /// Initialize with small-noise factors (`N(0, 0.3²)`) and the identity
    /// prior — the standard BPMF cold start.
    pub fn init(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Self {
        let items = Mat::from_fn(n, k, |_, _| normal(rng, 0.0, 0.3));
        SideState {
            items,
            mu: vec![0.0; k],
            lambda: Mat::identity(k),
            link: None,
        }
    }

    /// Draw `(μ, Λ)` from the posterior of the fixed Normal–Wishart
    /// hyperprior given `stats` (Algorithm 1's "sample hyper-parameters"
    /// step) and return the sweep's prior parts. With side information
    /// the link matrix is redrawn next, from the same stream (Macau's
    /// order).
    pub fn draw_hyper(&mut self, stats: &SuffStats, rng: &mut Xoshiro256pp) -> PriorParts {
        let hyperprior = NormalWishart::default_for_dim(self.mu.len());
        (self.mu, self.lambda) = hyperprior.posterior(stats).sample(rng);
        let prior = PriorParts::new(&self.mu, &self.lambda);
        if let Some(si) = &mut self.link {
            si.resample_beta(&self.items, &self.mu, prior.derivatives().1, rng);
        }
        prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_shapes_are_correct() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let side = SideState::init(10, 4, &mut rng);
        assert_eq!(side.items.rows(), 10);
        assert_eq!(side.items.cols(), 4);
        assert_eq!(side.mu.len(), 4);
        assert_eq!(side.lambda.rows(), 4);
    }

    #[test]
    fn hyper_resampling_tracks_factor_scale() {
        // Factors drawn with sd 2.0 → sampled Λ diagonal should be near
        // 1/4 = 0.25, far from the initial identity.
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut side = SideState::init(5000, 3, &mut rng);
        for i in 0..side.items.rows() {
            for j in 0..3 {
                side.items[(i, j)] = normal(&mut rng, 0.0, 2.0);
            }
        }
        side.draw_hyper(&SuffStats::from_rows(&side.items), &mut rng);
        for i in 0..3 {
            let l = side.lambda[(i, i)];
            assert!((0.15..0.4).contains(&l), "Λ[{i}{i}] = {l}");
        }
    }

    #[test]
    fn prior_derivatives_are_consistent() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut side = SideState::init(100, 4, &mut rng);
        let parts = side.draw_hyper(&SuffStats::from_rows(&side.items), &mut rng);
        let (lambda_mu, chol) = parts.derivatives();
        let recomputed = side.lambda.matvec(&side.mu);
        for (a, b) in lambda_mu.iter().zip(&recomputed) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(chol.reconstruct().max_abs_diff(&side.lambda) < 1e-9);
    }
}
