//! Sampler configuration.

use serde::{Deserialize, Serialize};

/// BPMF hyper- and engineering parameters.
///
/// Statistical parameters follow the original BPMF paper; engineering
/// parameters follow CLUSTER'16 (notably the 1000-rating threshold above
/// which an item update switches to the parallel Cholesky kernel, §III).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BpmfConfig {
    /// Number of latent features `K`.
    pub num_latent: usize,
    /// Observation precision α of the rating noise model.
    pub alpha: f64,
    /// Gibbs iterations discarded before posterior averaging starts.
    pub burnin: usize,
    /// Gibbs iterations that contribute to the posterior mean.
    pub samples: usize,
    /// Ratings count at or above which an item uses the parallel Cholesky
    /// kernel (the paper's ≈1000).
    pub parallel_threshold: usize,
    /// Ratings count at or below which an item uses the light kernel (the
    /// whitened low-rank draw, [`crate::UpdateMethod::RankOne`]); `None`
    /// selects `max(K/8, 1)`, the measured crossover against the blocked
    /// serial kernel (re-measure on new hardware with the layered
    /// benchmark's `update.light_item_us` against `linalg.chol_us`; see
    /// "Choosing the thresholds on new hardware" in `update.rs`).
    pub rank_one_max: Option<usize>,
    /// Threads used *inside* one parallel-kernel item update.
    pub kernel_threads: usize,
    /// Master seed; every worker/rank stream is derived from it by RNG
    /// jumps.
    pub seed: u64,
    /// Clamp every prediction into `[min, max]` — the standard treatment of
    /// bounded rating scales (e.g. 0.5–5 stars) in reference BPMF
    /// implementations. `None` leaves predictions unclamped.
    #[serde(default)]
    pub rating_bounds: Option<(f64, f64)>,
}

impl Default for BpmfConfig {
    fn default() -> Self {
        BpmfConfig {
            num_latent: 16,
            alpha: 2.0,
            burnin: 8,
            samples: 24,
            parallel_threshold: 1000,
            rank_one_max: None,
            kernel_threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            seed: 42,
            rating_bounds: None,
        }
    }
}

impl BpmfConfig {
    /// Total Gibbs iterations (`burnin + samples`).
    pub fn iterations(&self) -> usize {
        self.burnin + self.samples
    }

    /// Effective light/serial-Cholesky crossover. The default `max(K/8, 1)`
    /// follows the crossover measured on the AVX-512 arm (3 at K = 16, 3–5
    /// at K = 32, 12 at K = 64): the light kernel pays
    /// two triangular solves, `d` products with `L⁻ᵀ` and a `d × d`
    /// system, the serial one a `K × K` copy and factorization, so the
    /// crossover grows with `K`.
    pub fn rank_one_threshold(&self) -> usize {
        self.rank_one_max
            .unwrap_or_else(|| (self.num_latent / 8).max(1))
    }

    /// Clamp a prediction to the configured rating bounds (identity when
    /// unset).
    #[inline]
    pub fn clamp_rating(&self, p: f64) -> f64 {
        match self.rating_bounds {
            Some((lo, hi)) => p.clamp(lo, hi),
            None => p,
        }
    }

    /// Reject nonsensical settings with a typed error.
    pub fn try_validate(&self) -> Result<(), crate::BpmfError> {
        use crate::BpmfError;
        if self.num_latent == 0 {
            return Err(BpmfError::InvalidLatentDim(self.num_latent));
        }
        if self.alpha <= 0.0 || !self.alpha.is_finite() {
            return Err(BpmfError::InvalidAlpha(self.alpha));
        }
        if self.kernel_threads == 0 {
            return Err(BpmfError::InvalidThreads(self.kernel_threads));
        }
        if let Some((lo, hi)) = self.rating_bounds {
            if lo >= hi || !lo.is_finite() || !hi.is_finite() {
                return Err(BpmfError::InvalidRatingBounds { min: lo, max: hi });
            }
        }
        Ok(())
    }

    /// Panic early on nonsensical settings (zero latent dimension,
    /// non-positive noise precision). Legacy entry point; library code
    /// should prefer [`BpmfConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = BpmfConfig::default();
        cfg.validate();
        assert_eq!(cfg.iterations(), cfg.burnin + cfg.samples);
        for (k, want) in [(4, 1), (16, 2), (32, 4)] {
            let cfg = BpmfConfig {
                num_latent: k,
                ..cfg.clone()
            };
            assert_eq!(cfg.rank_one_threshold(), want, "K = {k}");
        }
    }

    #[test]
    fn explicit_rank_one_threshold_wins() {
        let cfg = BpmfConfig {
            rank_one_max: Some(7),
            ..Default::default()
        };
        assert_eq!(cfg.rank_one_threshold(), 7);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn bad_alpha_is_rejected() {
        BpmfConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
