//! Mini-batch stochastic-gradient MCMC (`Algorithm::Sgmcmc`).
//!
//! The Gibbs sampler's conditional sweeps read **every** rating twice per
//! iteration; with the matrix out-of-core that is a full slab scan per
//! step. Stochastic-gradient Langevin dynamics (SGLD, after Ahn et al. —
//! the distributed SG-MCMC line of work in PAPERS.md) is the sampler that
//! *wants* streamed storage: each step touches only a mini-batch of
//! ratings drawn from the [`RatingStore`](crate::RatingStore), so training
//! cost per step is independent of the matrix size.
//!
//! The update is the Langevin-perturbed gradient step on each factor row
//! touched by the mini-batch:
//!
//! ```text
//!   u ← u + η_t · ( e · v − λ·u )          e = r − mean − u·v   (per rating)
//!   u ← u + N(0, σ_t²)  per coordinate,    σ_t = √(2·η_t / (α·nnz))
//!   η_t = η₀ / (1 + decay·t)               t = ratings seen / nnz
//! ```
//!
//! The schedule clock `t` counts *epoch-equivalents* (fraction of the
//! dataset consumed), not raw mini-batch steps — so the annealing rate is
//! invariant to the mini-batch size and the dataset size, and a `decay`
//! that works on a toy matrix works unchanged on a slab that doesn't fit
//! in RAM.
//!
//! i.e. a preconditioned small-noise SGLD variant: the injected noise is
//! scaled by the dataset's total information (α·nnz), keeping the chain's
//! stationary spread near the Bayesian posterior's while the decaying step
//! size anneals the discretization bias. After burn-in, draws feed the same
//! posterior accumulator the Gibbs chain uses: posterior-mean factors
//! and second moments for serving, and a posterior-mean RMSE that averages
//! each test point's per-draw predictions.
//!
//! One *iteration* is an epoch-equivalent — ⌈nnz / minibatch⌉ mini-batch
//! steps — so `burnin`/`samples` counts, callbacks, and reports line up
//! one-to-one with the Gibbs trainer's.
//!
//! Runs single-threaded by design: one RNG stream drives batch draws and
//! noise, making every run bit-reproducible from the seed regardless of
//! the store backing the ratings.

use bpmf_linalg::{vecops, Mat};
use bpmf_stats::Xoshiro256pp;

use crate::posterior::PosteriorAccumulator;
use crate::{BpmfError, PosteriorModel, TrainData};

/// SGLD hyperparameters, with defaults tuned on the synthetic benchmark
/// datasets (`bpmf-dataset`).
#[derive(Clone, Copy, Debug)]
pub struct SgldConfig {
    /// Latent dimension K.
    pub num_latent: usize,
    /// Observation precision α (shared with the Gibbs model).
    pub alpha: f64,
    /// Prior precision λ on every factor coordinate.
    pub lambda: f64,
    /// Initial step size η₀.
    pub step_size: f64,
    /// Inverse-time step decay on the epoch clock: after `t`
    /// epoch-equivalents of ratings the step size is η₀ / (1 + decay·t).
    pub step_decay: f64,
    /// Ratings per mini-batch draw.
    pub minibatch: usize,
    /// Epoch-equivalents before posterior averaging starts.
    pub burnin: usize,
    /// Epoch-equivalents averaged into the posterior mean.
    pub samples: usize,
    /// Factor-initialization standard deviation.
    pub init_sd: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Clamp predictions into `[min, max]`.
    pub rating_bounds: Option<(f64, f64)>,
}

impl Default for SgldConfig {
    fn default() -> Self {
        SgldConfig {
            num_latent: 16,
            alpha: 2.0,
            lambda: 0.05,
            step_size: 0.1,
            step_decay: 0.05,
            minibatch: 1024,
            burnin: 10,
            samples: 20,
            init_sd: 0.1,
            seed: 42,
            rating_bounds: None,
        }
    }
}

impl SgldConfig {
    fn try_validate(&self) -> Result<(), BpmfError> {
        if self.num_latent == 0 {
            return Err(BpmfError::InvalidLatentDim(self.num_latent));
        }
        if self.alpha <= 0.0 || !self.alpha.is_finite() {
            return Err(BpmfError::InvalidAlpha(self.alpha));
        }
        if self.lambda < 0.0 || !self.lambda.is_finite() {
            return Err(BpmfError::InvalidLambda(self.lambda));
        }
        if self.step_size <= 0.0 || !self.step_size.is_finite() {
            return Err(BpmfError::InvalidLearningRate(self.step_size));
        }
        if self.step_decay < 0.0 || !self.step_decay.is_finite() {
            return Err(BpmfError::InvalidLearningRate(self.step_decay));
        }
        if self.minibatch == 0 {
            return Err(BpmfError::Unsupported {
                algorithm: crate::Algorithm::Sgmcmc,
                feature: "an empty mini-batch",
            });
        }
        if let Some((min, max)) = self.rating_bounds {
            if min >= max || !min.is_finite() || !max.is_finite() {
                return Err(BpmfError::InvalidRatingBounds { min, max });
            }
        }
        Ok(())
    }
}

/// The SGLD chain state: current factor draw, posterior accumulators, and
/// the single RNG stream driving batch draws and injected noise.
pub struct SgldSampler<'a> {
    cfg: SgldConfig,
    data: TrainData<'a>,
    users: Mat,
    movies: Mat,
    rng: Xoshiro256pp,
    posterior: PosteriorAccumulator,
    /// Mini-batch steps taken (drives the step-size schedule).
    step: usize,
    iter: usize,
    /// Rows touched by the current mini-batch, deduplicated per side.
    touched_users: Vec<u32>,
    touched_movies: Vec<u32>,
}

impl<'a> SgldSampler<'a> {
    /// Initialize the chain from `cfg.seed`.
    pub fn try_new(cfg: SgldConfig, data: TrainData<'a>) -> Result<Self, BpmfError> {
        cfg.try_validate()?;
        if data.r.nnz() == 0 {
            return Err(BpmfError::Store(
                "SGLD needs at least one training rating to draw mini-batches from".to_string(),
            ));
        }
        let k = cfg.num_latent;
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x5617_D1CC);
        let mut init = |rows: usize| {
            Mat::from_fn(rows, k, |_, _| {
                bpmf_stats::normal(&mut rng, 0.0, cfg.init_sd)
            })
        };
        let users = init(data.r.nrows());
        let movies = init(data.r.ncols());
        Ok(SgldSampler {
            posterior: PosteriorAccumulator::new(
                cfg.burnin,
                data.test.len(),
                data.global_mean,
                cfg.rating_bounds,
            ),
            cfg,
            data,
            users,
            movies,
            rng,
            step: 0,
            iter: 0,
            touched_users: Vec::new(),
            touched_movies: Vec::new(),
        })
    }

    /// Epoch-equivalents completed.
    pub fn iterations_done(&self) -> usize {
        self.iter
    }

    /// Current step size η_t under the inverse-time schedule, with `t`
    /// measured in epoch-equivalents (ratings consumed over nnz).
    pub fn current_step_size(&self) -> f64 {
        let seen = (self.step * self.cfg.minibatch) as f64 / self.data.r.nnz() as f64;
        self.cfg.step_size / (1.0 + self.cfg.step_decay * seen)
    }

    /// Draw one mini-batch of rating indices and apply the SGLD update.
    fn minibatch_step(&mut self) {
        let store = self.data.r;
        let (row_ptr, col_idx, values) = store.raw_parts();
        let nnz = values.len();
        let eta = self.current_step_size();
        // Injected-noise scale: 2·η over the dataset's total observation
        // information. See the module docs.
        let sigma = (2.0 * eta / (self.cfg.alpha * nnz as f64)).sqrt();
        let lambda = self.cfg.lambda;
        let mean = self.data.global_mean;

        self.touched_users.clear();
        self.touched_movies.clear();
        for _ in 0..self.cfg.minibatch {
            // Rejection-free uniform draw over all stored ratings, then a
            // binary search back to the owning user row.
            let t = (self.rng.next_u64() % nnz as u64) as usize;
            let user = row_ptr.partition_point(|&p| p <= t) - 1;
            let movie = col_idx[t] as usize;
            let rating = values[t];

            let (u, v) = (self.users.row_mut(user), self.movies.row_mut(movie));
            let e = rating - mean - vecops::dot(u, v);
            for k in 0..u.len() {
                let (uk, vk) = (u[k], v[k]);
                u[k] += eta * (e * vk - lambda * uk);
                v[k] += eta * (e * uk - lambda * vk);
            }
            self.touched_users.push(user as u32);
            self.touched_movies.push(movie as u32);
        }

        // Langevin noise once per touched row per mini-batch (sorted +
        // deduplicated so the RNG consumption order is deterministic).
        self.touched_users.sort_unstable();
        self.touched_users.dedup();
        self.touched_movies.sort_unstable();
        self.touched_movies.dedup();
        for &u in &self.touched_users {
            for x in self.users.row_mut(u as usize) {
                *x += bpmf_stats::normal(&mut self.rng, 0.0, sigma);
            }
        }
        for &m in &self.touched_movies {
            for x in self.movies.row_mut(m as usize) {
                *x += bpmf_stats::normal(&mut self.rng, 0.0, sigma);
            }
        }
        self.step += 1;
    }

    /// One epoch-equivalent: ⌈nnz / minibatch⌉ mini-batch steps, then
    /// posterior accumulation (post-burn-in) and test evaluation. Returns
    /// `(sample RMSE, posterior-mean RMSE)` — NaN without test points, and
    /// NaN for the mean during burn-in, matching the Gibbs convention.
    pub fn step_epoch(&mut self) -> (f64, f64) {
        let steps = self.data.r.nnz().div_ceil(self.cfg.minibatch);
        // Out-of-core stores get one readahead hint per epoch: batch draws
        // land all over the slab, so the whole payload is warm data.
        self.data.r.prefetch_rows(0, self.data.r.nrows());
        for _ in 0..steps {
            self.minibatch_step();
        }
        let se = self
            .posterior
            .record(self.iter, &self.users, &self.movies, self.data.test);
        self.iter += 1;
        self.posterior.rmse(se, self.data.test.len())
    }

    /// Posterior-mean factors `(users, movies)` once at least one
    /// post-burn-in epoch accumulated; the current draw otherwise.
    pub fn posterior_factors(&self) -> (Mat, Mat) {
        self.posterior
            .means()
            .unwrap_or_else(|| (self.users.clone(), self.movies.clone()))
    }

    /// The servable model: posterior-mean factors with element-wise second
    /// moments (so uncertainty-aware ranking policies work), or the current
    /// draw before any post-burn-in epoch.
    ///
    /// Copies the posterior sums so the chain can keep sampling; a finished
    /// chain moves them instead with [`SgldSampler::into_model`].
    pub fn posterior_model(&self) -> PosteriorModel {
        PosteriorModel::from_posterior(
            self.posterior.clone(),
            || (self.users.clone(), self.movies.clone()),
            self.data.global_mean,
            self.cfg.rating_bounds,
        )
    }

    /// End the chain and serve it: the same model as
    /// [`posterior_model`](Self::posterior_model), built from the chain's
    /// own posterior sums and factors, moved rather than copied.
    pub fn into_model(self) -> PosteriorModel {
        let (users, movies) = (self.users, self.movies);
        PosteriorModel::from_posterior(
            self.posterior,
            || (users, movies),
            self.data.global_mean,
            self.cfg.rating_bounds,
        )
    }

    /// Post-burn-in epochs accumulated into the posterior mean.
    pub fn accumulated_samples(&self) -> usize {
        self.posterior.count()
    }

    /// The configuration this chain runs.
    pub fn cfg(&self) -> &SgldConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sparse::{Coo, Csr};

    fn planted(n_users: usize, n_items: usize, seed: u64) -> (Csr, Csr, Vec<(u32, u32, f64)>, f64) {
        // Low-rank planted ratings so SGLD has signal to recover.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let k = 3;
        let uf = Mat::from_fn(n_users, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 0.6));
        let vf = Mat::from_fn(n_items, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 0.6));
        let mut coo = Coo::new(n_users, n_items);
        let mut test = Vec::new();
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..n_users {
            for j in 0..n_items {
                let keep = rng.next_f64() < 0.6;
                if !keep {
                    continue;
                }
                let v = 3.0 + vecops::dot(uf.row(i), vf.row(j));
                if rng.next_f64() < 0.15 {
                    test.push((i as u32, j as u32, v));
                } else {
                    coo.push(i, j, v);
                    sum += v;
                    count += 1;
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        (r, rt, test, sum / count as f64)
    }

    fn run(cfg: SgldConfig, data: TrainData<'_>) -> (Vec<(u64, u64)>, f64, Mat, Mat) {
        let mut s = SgldSampler::try_new(cfg, data).unwrap();
        let mut trace = Vec::new();
        let mut last = f64::NAN;
        for _ in 0..(cfg.burnin + cfg.samples) {
            let (a, b) = s.step_epoch();
            trace.push((a.to_bits(), b.to_bits()));
            last = if b.is_nan() { a } else { b };
        }
        let (u, v) = s.posterior_factors();
        (trace, last, u, v)
    }

    #[test]
    fn sgld_learns_the_planted_structure() {
        let (r, rt, test, mean) = planted(40, 30, 9);
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let cfg = SgldConfig {
            num_latent: 8,
            minibatch: 256,
            burnin: 8,
            samples: 12,
            ..SgldConfig::default()
        };
        let mut s = SgldSampler::try_new(cfg, data).unwrap();
        let baseline = {
            // RMSE of predicting the global mean alone.
            let se: f64 = test.iter().map(|&(_, _, v)| (v - mean) * (v - mean)).sum();
            (se / test.len() as f64).sqrt()
        };
        let mut final_rmse = f64::NAN;
        for _ in 0..(cfg.burnin + cfg.samples) {
            let (sample, mean_rmse) = s.step_epoch();
            assert!(sample.is_finite());
            final_rmse = if mean_rmse.is_nan() {
                sample
            } else {
                mean_rmse
            };
        }
        assert!(
            final_rmse < baseline * 0.9,
            "SGLD should beat the mean-only baseline: {final_rmse} vs {baseline}"
        );
    }

    #[test]
    fn chain_is_bit_reproducible_from_the_seed() {
        let (r, rt, test, mean) = planted(25, 20, 3);
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let cfg = SgldConfig {
            num_latent: 4,
            minibatch: 64,
            burnin: 2,
            samples: 3,
            ..SgldConfig::default()
        };
        let (trace_a, _, ua, va) = run(cfg, data);
        let (trace_b, _, ub, vb) = run(cfg, data);
        assert_eq!(trace_a, trace_b);
        assert_eq!(ua.as_slice(), ub.as_slice());
        assert_eq!(va.as_slice(), vb.as_slice());
    }

    #[test]
    fn posterior_model_carries_means_and_second_moments() {
        use crate::Recommender;
        let (r, rt, test, mean) = planted(25, 20, 4);
        let data = TrainData::try_new(&r, &rt, mean, &test).unwrap();
        let cfg = SgldConfig {
            num_latent: 4,
            minibatch: 64,
            burnin: 2,
            samples: 4,
            ..SgldConfig::default()
        };
        let mut s = SgldSampler::try_new(cfg, data).unwrap();
        assert_eq!(
            s.posterior_model().samples(),
            0,
            "current draw before burn-in ends"
        );
        let mut last = (f64::NAN, f64::NAN);
        for _ in 0..(cfg.burnin + cfg.samples) {
            last = s.step_epoch();
        }
        assert!(last.1.is_finite());
        let model = s.posterior_model();
        assert_eq!(model.samples(), cfg.samples);
        let (u, _) = s.posterior_factors();
        assert_eq!(model.user_means().as_slice(), u.as_slice());
        let (i, j, _) = test[0];
        let summary = model
            .predict_with_uncertainty(i as usize, j as usize)
            .expect("second moments after two post-burn-in epochs");
        assert!(summary.std > 0.0 && summary.std.is_finite());
        // The consuming path builds the same model from the moved sums.
        let moved = s.into_model();
        assert_eq!(moved.samples(), model.samples());
        assert_eq!(moved.user_means().as_slice(), model.user_means().as_slice());
        assert_eq!(
            moved.movie_means().as_slice(),
            model.movie_means().as_slice()
        );
        let again = moved
            .predict_with_uncertainty(i as usize, j as usize)
            .unwrap();
        assert_eq!(again.mean.to_bits(), summary.mean.to_bits());
        assert_eq!(again.std.to_bits(), summary.std.to_bits());
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let bad = |f: fn(&mut SgldConfig)| {
            let mut cfg = SgldConfig::default();
            f(&mut cfg);
            cfg.try_validate().unwrap_err()
        };
        assert!(matches!(
            bad(|c| c.num_latent = 0),
            BpmfError::InvalidLatentDim(0)
        ));
        assert!(matches!(bad(|c| c.alpha = 0.0), BpmfError::InvalidAlpha(_)));
        assert!(matches!(
            bad(|c| c.step_size = -1.0),
            BpmfError::InvalidLearningRate(_)
        ));
        assert!(matches!(
            bad(|c| c.minibatch = 0),
            BpmfError::Unsupported { .. }
        ));
        let (r, rt, _, _) = planted(4, 4, 1);
        let empty = Csr::from_coo_owned(Coo::new(3, 3));
        let empty_t = empty.transpose();
        let data = TrainData::try_new(&empty, &empty_t, 0.0, &[]).unwrap();
        assert!(matches!(
            SgldSampler::try_new(SgldConfig::default(), data),
            Err(BpmfError::Store(_))
        ));
        let _ = (r, rt);
    }
}
