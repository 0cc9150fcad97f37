//! Unified-API adapters: ALS and SGD behind `bpmf`'s [`Trainer`] and
//! [`Recommender`] traits, plus [`make_trainer`] — the one dispatch point
//! the CLI and the examples share for all three algorithms.
//!
//! ```
//! use bpmf::{Algorithm, Bpmf, NoCallback, TrainData, Trainer};
//! use bpmf_baselines::make_trainer;
//! use bpmf_sched::StaticPool;
//! use bpmf_sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(3, 3);
//! for (u, m, r) in [(0, 0, 4.0), (0, 1, 3.0), (1, 1, 5.0), (2, 2, 1.0), (1, 0, 4.5)] {
//!     coo.push(u, m, r);
//! }
//! let r = Csr::from_coo_owned(coo);
//! let rt = r.transpose();
//! let test = vec![(2u32, 0u32, 2.0)];
//! let data = TrainData::try_new(&r, &rt, 3.3, &test).unwrap();
//!
//! let spec = Bpmf::builder()
//!     .algorithm(Algorithm::Als)
//!     .latent(2)
//!     .sweeps(10)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! let runner = StaticPool::new(1);
//! let mut trainer = make_trainer(&spec);
//! let report = trainer.fit(&data, &runner, &mut NoCallback).unwrap();
//! assert!(report.final_rmse().is_finite());
//! assert!(trainer.recommender().unwrap().predict(0, 0).is_finite());
//! ```

use std::sync::Arc;
use std::time::Instant;

use bpmf::{
    Algorithm, Bpmf, BpmfError, DistributedTrainer, FitControl, FitReport, IterCallback, IterStats,
    NoSnapshot, PosteriorModel, Recommender, SgldConfig, SgldSampler, TrainData, Trainer,
};
use bpmf_sched::ItemRunner;

use crate::als::{AlsConfig, AlsTrainer};
use crate::model::MfModel;
use crate::sgd::{SgdConfig, SgdTrainer};

/// Shared serving epilogue: turn raw `u · v` dot products into predictions
/// in place (global mean + biases + clip), exactly as `MfModel::predict`
/// does per pair. `movie_of` maps a buffer slot to its movie id.
fn finish_mf_scores(
    model: &MfModel,
    user: usize,
    out: &mut [f64],
    movie_of: impl Fn(usize) -> usize,
) {
    let base = model.global_mean
        + if model.user_bias.is_empty() {
            0.0
        } else {
            model.user_bias[user]
        };
    for (i, s) in out.iter_mut().enumerate() {
        let mut p = base + *s;
        if !model.movie_bias.is_empty() {
            p += model.movie_bias[movie_of(i)];
        }
        if let Some((lo, hi)) = model.clip {
            p = p.clamp(lo, hi);
        }
        *s = p;
    }
}

impl Recommender for MfModel {
    fn predict(&self, user: usize, movie: usize) -> f64 {
        MfModel::predict(self, user, movie)
    }

    fn rmse(&self, test: &[(u32, u32, f64)]) -> f64 {
        self.rmse_on(test)
    }

    fn factors(&self) -> Option<(&bpmf_linalg::Mat, &bpmf_linalg::Mat)> {
        Some((&self.user_factors, &self.movie_factors))
    }

    /// Whole-catalogue scan as one blocked matrix–vector product, with the
    /// bias/clamp epilogue applied per item — the serving fast path behind
    /// `bpmf::serve::RecommendService` and the offline ranking evaluation.
    fn score_all(&self, user: usize, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.movie_factors.rows(), "score buffer size");
        self.movie_factors
            .matvec_into(self.user_factors.row(user), scores);
        finish_mf_scores(self, user, scores, |i| i);
    }

    /// Candidate-set scoring via the gathered four-row kernel.
    fn score_batch(&self, user: usize, items: &[u32], out: &mut [f64]) {
        self.movie_factors
            .gather_matvec_into(items, self.user_factors.row(user), out);
        finish_mf_scores(self, user, out, |i| items[i] as usize);
    }

    /// Micro-batch scoring as one register-tiled GEMM: the gathered user
    /// rows (`B × K`) times the transposed movie factors (cached in the
    /// GEMM's packed layout) stream the catalogue once for the whole
    /// block, then the bias/clamp epilogue runs per score row.
    fn score_block(&self, users: &[u32], out: &mut [f64]) {
        let n = self.movie_factors.rows();
        assert_eq!(out.len(), users.len() * n, "score_block buffer mismatch");
        if n == 0 {
            return;
        }
        bpmf_linalg::gemm_gathered_rows_packed(
            &self.user_factors,
            users,
            self.movie_factors_packed(),
            out,
        );
        for (&u, row) in users.iter().zip(out.chunks_exact_mut(n)) {
            finish_mf_scores(self, u as usize, row, |i| i);
        }
    }

    /// Sharded micro-batch scoring: the same GEMM against a range-packed
    /// slice of the movie factors, with the bias/clamp epilogue indexed by
    /// the *global* item id. Point models have no persistent shard cache —
    /// the slice is packed per call (sharding primarily serves the Gibbs
    /// posterior; this keeps ALS/SGD correct behind the same facade).
    fn score_block_range(&self, users: &[u32], lo: usize, hi: usize, out: &mut [f64]) {
        let n = self.movie_factors.rows();
        assert!(lo <= hi && hi <= n, "item range [{lo}, {hi}) out of 0..{n}");
        let w = hi - lo;
        assert_eq!(
            out.len(),
            users.len() * w,
            "score_block_range buffer mismatch"
        );
        if w == 0 {
            return;
        }
        let packed = bpmf_linalg::PackedB::pack_transposed_range_from(&self.movie_factors, lo, hi);
        bpmf_linalg::gemm_gathered_rows_packed(&self.user_factors, users, &packed, out);
        for (&u, row) in users.iter().zip(out.chunks_exact_mut(w)) {
            finish_mf_scores(self, u as usize, row, |i| lo + i);
        }
    }
}

fn baseline_iter_stats(iter: usize, rmse: f64, secs: f64, items: usize) -> IterStats {
    IterStats {
        iter,
        rmse_sample: rmse,
        rmse_mean: rmse,
        items_per_sec: if secs > 0.0 { items as f64 / secs } else { 0.0 },
        sweep_seconds: secs,
        busy_fraction: 1.0,
        steals: 0,
    }
}

// ---------------------------------------------------------------------------
// ALS
// ---------------------------------------------------------------------------

/// [`Trainer`] adapter over [`AlsTrainer`]: derives an [`AlsConfig`] from
/// the unified spec, traces held-out RMSE sweep by sweep through the
/// callback, and leaves an [`MfModel`] behind for serving.
pub struct AlsRecommenderTrainer {
    spec: Bpmf,
    model: Option<Arc<MfModel>>,
}

impl AlsRecommenderTrainer {
    /// Trainer for a validated spec.
    pub fn new(spec: Bpmf) -> Self {
        AlsRecommenderTrainer { spec, model: None }
    }

    /// The fitted model, once `fit` has run.
    pub fn model(&self) -> Option<&MfModel> {
        self.model.as_deref()
    }

    fn config(&self) -> AlsConfig {
        let d = AlsConfig::default();
        AlsConfig {
            num_latent: self.spec.num_latent,
            lambda: self.spec.lambda.unwrap_or(d.lambda),
            weighted_regularization: self.spec.weighted_regularization,
            sweeps: self.spec.sweeps.unwrap_or(d.sweeps),
            init_sd: self.spec.init_sd.unwrap_or(d.init_sd),
            seed: self.spec.seed,
            clip: self.spec.rating_bounds,
        }
    }
}

impl Trainer for AlsRecommenderTrainer {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Als
    }

    fn fit(
        &mut self,
        data: &TrainData<'_>,
        runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError> {
        self.spec.refuse_gibbs_only(Algorithm::Als)?;
        let (r, rt) = data.resident(Algorithm::Als)?;
        let cfg = self.config();
        let sweeps = cfg.sweeps;
        let mut trainer = AlsTrainer::new(cfg, r, rt);
        let items_per_sweep = data.r.nrows() + data.r.ncols();
        let mut iters = Vec::with_capacity(sweeps);
        let mut early_stopped = false;
        let t0 = Instant::now();
        for sweep in 0..sweeps {
            let s0 = Instant::now();
            trainer.sweep(runner);
            let secs = s0.elapsed().as_secs_f64();
            let stats =
                baseline_iter_stats(sweep, trainer.rmse_on(data.test), secs, items_per_sweep);
            let control = callback.on_iteration(&stats, &NoSnapshot);
            iters.push(stats);
            if control == FitControl::Stop {
                early_stopped = true;
                break;
            }
        }
        self.model = Some(Arc::new(trainer.into_model()));
        Ok(FitReport {
            algorithm: Algorithm::Als.to_string(),
            engine: runner.name().to_string(),
            parallelism: runner.threads(),
            iters,
            total_seconds: t0.elapsed().as_secs_f64(),
            early_stopped,
        })
    }

    fn recommender(&self) -> Option<&dyn Recommender> {
        self.model.as_deref().map(|m| m as &dyn Recommender)
    }

    fn shared_model(&self) -> Option<Arc<dyn Recommender + Send + Sync>> {
        self.model
            .clone()
            .map(|m| m as Arc<dyn Recommender + Send + Sync>)
    }
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

/// [`Trainer`] adapter over [`SgdTrainer`]: serial epochs on one thread,
/// the diagonal-strata parallel schedule when the runner has more, traced
/// epoch by epoch through the callback.
pub struct SgdRecommenderTrainer {
    spec: Bpmf,
    model: Option<Arc<MfModel>>,
}

impl SgdRecommenderTrainer {
    /// Trainer for a validated spec.
    pub fn new(spec: Bpmf) -> Self {
        SgdRecommenderTrainer { spec, model: None }
    }

    /// The fitted model, once `fit` has run.
    pub fn model(&self) -> Option<&MfModel> {
        self.model.as_deref()
    }

    fn config(&self) -> SgdConfig {
        let d = SgdConfig::default();
        SgdConfig {
            num_latent: self.spec.num_latent,
            learning_rate: self.spec.learning_rate.unwrap_or(d.learning_rate),
            decay: self.spec.decay.unwrap_or(d.decay),
            lambda: self.spec.lambda.unwrap_or(d.lambda),
            epochs: self.spec.epochs.unwrap_or(d.epochs),
            use_biases: self.spec.use_biases,
            init_sd: self.spec.init_sd.unwrap_or(d.init_sd),
            seed: self.spec.seed,
            clip: self.spec.rating_bounds,
        }
    }
}

impl Trainer for SgdRecommenderTrainer {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sgd
    }

    fn fit(
        &mut self,
        data: &TrainData<'_>,
        runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError> {
        self.spec.refuse_gibbs_only(Algorithm::Sgd)?;
        let (r, _) = data.resident(Algorithm::Sgd)?;
        let cfg = self.config();
        let epochs = cfg.epochs;
        let threads = runner.threads().max(1);
        let mut trainer = SgdTrainer::new(cfg, r);
        let items_per_epoch = data.r.nrows() + data.r.ncols();
        let mut iters = Vec::with_capacity(epochs);
        let mut early_stopped = false;
        let t0 = Instant::now();
        for epoch in 0..epochs {
            let e0 = Instant::now();
            if threads > 1 {
                trainer.epoch_stratified(threads);
            } else {
                trainer.epoch();
            }
            let secs = e0.elapsed().as_secs_f64();
            let stats =
                baseline_iter_stats(epoch, trainer.rmse_on(data.test), secs, items_per_epoch);
            let control = callback.on_iteration(&stats, &NoSnapshot);
            iters.push(stats);
            if control == FitControl::Stop {
                early_stopped = true;
                break;
            }
        }
        self.model = Some(Arc::new(trainer.into_model()));
        Ok(FitReport {
            algorithm: Algorithm::Sgd.to_string(),
            engine: if threads > 1 {
                "sgd-stratified".to_string()
            } else {
                "sgd-serial".to_string()
            },
            parallelism: threads,
            iters,
            total_seconds: t0.elapsed().as_secs_f64(),
            early_stopped,
        })
    }

    fn recommender(&self) -> Option<&dyn Recommender> {
        self.model.as_deref().map(|m| m as &dyn Recommender)
    }

    fn shared_model(&self) -> Option<Arc<dyn Recommender + Send + Sync>> {
        self.model
            .clone()
            .map(|m| m as Arc<dyn Recommender + Send + Sync>)
    }
}

// ---------------------------------------------------------------------------
// SG-MCMC (SGLD)
// ---------------------------------------------------------------------------

/// [`Trainer`] adapter over [`bpmf::SgldSampler`]: mini-batch
/// stochastic-gradient Langevin sampling, at home on out-of-core
/// [`bpmf::RatingStore`]s (it draws mini-batches instead of sweeping the
/// matrix), traced epoch-equivalent by epoch-equivalent through the
/// callback. Leaves a [`PosteriorModel`] behind — posterior-mean factors
/// with second moments, the same model the Gibbs and distributed trainers
/// serve — so serving, sharding, replication and the uncertainty-aware
/// ranking policies work unchanged.
pub struct SgmcmcRecommenderTrainer {
    spec: Bpmf,
    model: Option<Arc<PosteriorModel>>,
}

impl SgmcmcRecommenderTrainer {
    /// Trainer for a validated spec.
    pub fn new(spec: Bpmf) -> Self {
        SgmcmcRecommenderTrainer { spec, model: None }
    }

    /// The fitted model, once `fit` has run.
    pub fn model(&self) -> Option<&PosteriorModel> {
        self.model.as_deref()
    }

    fn config(&self) -> SgldConfig {
        let d = SgldConfig::default();
        SgldConfig {
            num_latent: self.spec.num_latent,
            alpha: self.spec.alpha,
            lambda: self.spec.lambda.unwrap_or(d.lambda),
            step_size: self.spec.sgld_step_size.unwrap_or(d.step_size),
            step_decay: self.spec.sgld_step_decay.unwrap_or(d.step_decay),
            minibatch: self.spec.minibatch.unwrap_or(d.minibatch),
            burnin: self.spec.burnin,
            samples: self.spec.samples,
            init_sd: self.spec.init_sd.unwrap_or(d.init_sd),
            seed: self.spec.seed,
            rating_bounds: self.spec.rating_bounds,
        }
    }
}

impl Trainer for SgmcmcRecommenderTrainer {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sgmcmc
    }

    fn fit(
        &mut self,
        data: &TrainData<'_>,
        _runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError> {
        self.spec.refuse_gibbs_only(Algorithm::Sgmcmc)?;
        let cfg = self.config();
        let total = cfg.burnin + cfg.samples;
        let mut sampler = SgldSampler::try_new(cfg, *data)?;
        let items_per_epoch = data.r.nrows() + data.r.ncols();
        let mut iters = Vec::with_capacity(total);
        let mut early_stopped = false;
        let t0 = Instant::now();
        for epoch in 0..total {
            let e0 = Instant::now();
            let (rmse_sample, rmse_mean) = sampler.step_epoch();
            let secs = e0.elapsed().as_secs_f64();
            let stats = IterStats {
                iter: epoch,
                rmse_sample,
                rmse_mean,
                items_per_sec: if secs > 0.0 {
                    items_per_epoch as f64 / secs
                } else {
                    0.0
                },
                sweep_seconds: secs,
                busy_fraction: 1.0,
                steals: 0,
            };
            let control = callback.on_iteration(&stats, &NoSnapshot);
            iters.push(stats);
            if control == FitControl::Stop {
                early_stopped = true;
                break;
            }
        }
        self.model = Some(Arc::new(sampler.into_model()));
        Ok(FitReport {
            algorithm: Algorithm::Sgmcmc.to_string(),
            engine: "sgld-serial".to_string(),
            parallelism: 1,
            iters,
            total_seconds: t0.elapsed().as_secs_f64(),
            early_stopped,
        })
    }

    fn recommender(&self) -> Option<&dyn Recommender> {
        self.model.as_deref().map(|m| m as &dyn Recommender)
    }

    fn shared_model(&self) -> Option<Arc<dyn Recommender + Send + Sync>> {
        self.model
            .clone()
            .map(|m| m as Arc<dyn Recommender + Send + Sync>)
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// One trainer for any [`Algorithm`]: the dispatch point behind which the
/// CLI and the examples treat Gibbs, ALS, SGD, SG-MCMC, and
/// the paper's distributed sampler uniformly.
pub fn make_trainer(spec: &Bpmf) -> Box<dyn Trainer> {
    match spec.algorithm {
        Algorithm::Gibbs => Box::new(spec.gibbs_trainer()),
        Algorithm::Als => Box::new(AlsRecommenderTrainer::new(spec.clone())),
        Algorithm::Sgd => Box::new(SgdRecommenderTrainer::new(spec.clone())),
        Algorithm::Sgmcmc => Box::new(SgmcmcRecommenderTrainer::new(spec.clone())),
        Algorithm::Distributed => Box::new(DistributedTrainer::new(spec.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf::NoCallback;
    use bpmf_sched::StaticPool;
    use bpmf_sparse::{Coo, Csr};

    fn small() -> (Csr, Csr, Vec<(u32, u32, f64)>, f64) {
        let mut coo = Coo::new(8, 6);
        let mut test = Vec::new();
        for i in 0..8 {
            for j in 0..6 {
                let r = 3.0 + ((i as f64 * 0.7).sin() * (j as f64 * 0.5).cos());
                if (i * 6 + j) % 5 == 0 {
                    test.push((i as u32, j as u32, r));
                } else {
                    coo.push(i, j, r);
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        let mean = r.iter().map(|(_, _, v)| v).sum::<f64>() / r.nnz() as f64;
        (r, rt, test, mean)
    }

    fn spec(algorithm: Algorithm) -> Bpmf {
        Bpmf::builder()
            .algorithm(algorithm)
            .latent(3)
            .sweeps(6)
            .epochs(6)
            .burnin(2)
            .samples(4)
            .threads(1)
            .kernel_threads(1)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn all_three_algorithms_fit_and_serve_through_the_trait() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);
        for algorithm in Algorithm::all() {
            let mut trainer = make_trainer(&spec(algorithm));
            assert_eq!(trainer.algorithm(), algorithm);
            assert!(trainer.recommender().is_none());
            let report = trainer.fit(&data, &runner, &mut NoCallback).unwrap();
            assert_eq!(report.algorithm, algorithm.to_string());
            assert!(report.final_rmse().is_finite(), "{algorithm}: bad RMSE");
            assert!(!report.iters.is_empty());
            let rec = trainer.recommender().expect("fitted model");
            assert!(rec.predict(0, 0).is_finite());
            assert!(rec.rmse(&test).is_finite());
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_als_calls_exactly() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(2);

        let direct_cfg = AlsConfig {
            num_latent: 3,
            sweeps: 6,
            lambda: 0.07,
            init_sd: 0.3,
            seed: 5,
            ..Default::default()
        };
        let direct = AlsTrainer::new(direct_cfg, &r, &rt).train(&runner);

        let spec = Bpmf::builder()
            .algorithm(Algorithm::Als)
            .latent(3)
            .sweeps(6)
            .lambda(0.07)
            .init_sd(0.3)
            .seed(5)
            .threads(2)
            .build()
            .unwrap();
        let mut unified = make_trainer(&spec);
        unified.fit(&data, &runner, &mut NoCallback).unwrap();
        let rec = unified.recommender().unwrap();

        for &(u, m, _) in &test {
            let a = direct.predict(u as usize, m as usize);
            let b = rec.predict(u as usize, m as usize);
            assert_eq!(a.to_bits(), b.to_bits(), "({u},{m}): {a} vs {b}");
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_sgd_calls_exactly() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);

        let direct_cfg = SgdConfig {
            num_latent: 3,
            epochs: 6,
            lambda: 0.02,
            learning_rate: 0.03,
            decay: 0.05,
            init_sd: 0.3,
            seed: 5,
            ..Default::default()
        };
        let direct = SgdTrainer::new(direct_cfg, &r).train();

        let spec = Bpmf::builder()
            .algorithm(Algorithm::Sgd)
            .latent(3)
            .epochs(6)
            .lambda(0.02)
            .learning_rate(0.03)
            .decay(0.05)
            .init_sd(0.3)
            .seed(5)
            .threads(1)
            .build()
            .unwrap();
        let mut unified = make_trainer(&spec);
        unified.fit(&data, &runner, &mut NoCallback).unwrap();
        let rec = unified.recommender().unwrap();

        for &(u, m, _) in &test {
            let a = direct.predict(u as usize, m as usize);
            let b = rec.predict(u as usize, m as usize);
            assert_eq!(a.to_bits(), b.to_bits(), "({u},{m}): {a} vs {b}");
        }
    }

    #[test]
    fn unified_defaults_match_each_algorithms_own_defaults() {
        // The spec leaves init_sd/lambda/learning_rate unset; the adapters
        // must fall back to each algorithm's own defaults (SGD inits at
        // 0.1, ALS at 0.3), not a shared flat value.
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);

        let direct_sgd = SgdTrainer::new(
            SgdConfig {
                num_latent: 3,
                epochs: 2,
                seed: 5,
                ..Default::default()
            },
            &r,
        )
        .train();
        let direct_als = AlsTrainer::new(
            AlsConfig {
                num_latent: 3,
                sweeps: 2,
                seed: 5,
                ..Default::default()
            },
            &r,
            &rt,
        )
        .train(&runner);

        for (algorithm, direct) in [(Algorithm::Sgd, &direct_sgd), (Algorithm::Als, &direct_als)] {
            let spec = Bpmf::builder()
                .algorithm(algorithm)
                .latent(3)
                .epochs(2)
                .sweeps(2)
                .seed(5)
                .threads(1)
                .build()
                .unwrap();
            let mut unified = make_trainer(&spec);
            unified.fit(&data, &runner, &mut NoCallback).unwrap();
            let rec = unified.recommender().unwrap();
            for &(u, m, _) in &test {
                assert_eq!(
                    direct.predict(u as usize, m as usize).to_bits(),
                    rec.predict(u as usize, m as usize).to_bits(),
                    "{algorithm}: default-config drift between unified and direct paths"
                );
            }
        }
    }

    #[test]
    fn early_stop_halts_baseline_sweeps() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);
        for algorithm in [Algorithm::Als, Algorithm::Sgd] {
            let mut trainer = make_trainer(&spec(algorithm));
            let mut cb = |s: &IterStats| {
                if s.iter + 1 >= 2 {
                    FitControl::Stop
                } else {
                    FitControl::Continue
                }
            };
            let report = trainer.fit(&data, &runner, &mut cb).unwrap();
            assert_eq!(report.iters.len(), 2, "{algorithm}");
            assert!(report.early_stopped, "{algorithm}");
        }
    }

    #[test]
    fn unsupported_features_are_typed_errors() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);
        let spec = Bpmf::builder()
            .algorithm(Algorithm::Als)
            .latent(3)
            .threads(1)
            .user_side_info(bpmf_linalg::Mat::zeros(8, 2), 1.0)
            .build()
            .unwrap();
        let err = make_trainer(&spec)
            .fit(&data, &runner, &mut NoCallback)
            .unwrap_err();
        assert_eq!(
            err,
            BpmfError::Unsupported {
                algorithm: Algorithm::Als,
                feature: "side information"
            }
        );
    }

    #[test]
    fn rating_bounds_clamp_served_predictions() {
        let (r, rt, test, mean) = small();
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let runner = StaticPool::new(1);
        let spec = Bpmf::builder()
            .algorithm(Algorithm::Sgd)
            .latent(3)
            .epochs(3)
            .threads(1)
            .rating_bounds(2.5, 3.5)
            .build()
            .unwrap();
        let mut trainer = make_trainer(&spec);
        trainer.fit(&data, &runner, &mut NoCallback).unwrap();
        let rec = trainer.recommender().unwrap();
        for u in 0..8 {
            for m in 0..6 {
                let p = rec.predict(u, m);
                assert!((2.5..=3.5).contains(&p), "unclamped prediction {p}");
            }
        }
    }
}
