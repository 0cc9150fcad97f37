//! The shared-memory Gibbs sampler (Algorithm 1 of the paper) over a
//! pluggable runtime.
//!
//! [`GibbsSampler`] is a [`Chain`] with the shared-memory seams: every hyper
//! draw sees every row (the residual rows around the feature-predicted
//! means when side information is attached), every sweep draws every row
//! over an [`ItemRunner`], and the squared errors need no reduction. The
//! distributed ranks run the same [`Chain::step`] with their own seams
//! (see [`crate::distributed`]).

use std::fmt;

use bpmf_linalg::{vecops, Mat};
use bpmf_sched::{Adjacency, ItemRunner, RunStats};
use bpmf_sparse::{Csr, WorkModel};
use bpmf_stats::{SuffStats, Xoshiro256pp};

use crate::api::{Algorithm, PosteriorModel};
use crate::chain::{Chain, Seams, Side};
use crate::checkpoint::FlatMat;
use crate::config::BpmfConfig;
use crate::error::BpmfError;
use crate::model::SideState;
use crate::posterior::{PosteriorAccumulator, PredictionSummary};
use crate::report::{IterStats, TrainReport};
use crate::sideinfo::FeatureSideInfo;
use crate::store::{store_row_weights, RatingStore};
use crate::update::{ItemDraw, PriorParts, Workers};

/// Borrowed training inputs: the rating matrix in both orientations, its
/// global mean, and the held-out test points.
///
/// The matrix sides are [`RatingStore`]s, not concrete
/// [`Csr`](bpmf_sparse::Csr)s: an in-RAM `&Csr` coerces here unchanged, and a
/// memory-mapped [`crate::MappedSlab`] plugs in its [`crate::SlabCsr`]
/// orientations for out-of-core training.
#[derive(Clone, Copy)]
pub struct TrainData<'a> {
    /// Ratings, users × movies.
    pub r: &'a dyn RatingStore,
    /// Ratings transposed, movies × users.
    pub rt: &'a dyn RatingStore,
    /// Mean rating (the sampler models residuals around it).
    pub global_mean: f64,
    /// Held-out `(user, movie, rating)` triples for RMSE tracking.
    pub test: &'a [(u32, u32, f64)],
}

impl fmt::Debug for TrainData<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainData")
            .field("nrows", &self.r.nrows())
            .field("ncols", &self.r.ncols())
            .field("nnz", &self.r.nnz())
            .field("resident", &self.r.as_csr().is_some())
            .field("global_mean", &self.global_mean)
            .field("test_points", &self.test.len())
            .finish()
    }
}

impl<'a> TrainData<'a> {
    /// Validate and bundle the inputs: `rt` must be shaped as the transpose
    /// of `r` and every test point must index inside the matrix.
    pub fn try_new(
        r: &'a dyn RatingStore,
        rt: &'a dyn RatingStore,
        global_mean: f64,
        test: &'a [(u32, u32, f64)],
    ) -> Result<Self, BpmfError> {
        if r.nrows() != rt.ncols() || r.ncols() != rt.nrows() || r.nnz() != rt.nnz() {
            return Err(BpmfError::NotTranspose {
                r: (r.nrows(), r.ncols(), r.nnz()),
                rt: (rt.nrows(), rt.ncols(), rt.nnz()),
            });
        }
        for (index, &(i, j, _)) in test.iter().enumerate() {
            if (i as usize) >= r.nrows() || (j as usize) >= r.ncols() {
                return Err(BpmfError::TestPointOutOfRange {
                    index,
                    user: i,
                    movie: j,
                    nrows: r.nrows(),
                    ncols: r.ncols(),
                });
            }
        }
        Ok(TrainData {
            r,
            rt,
            global_mean,
            test,
        })
    }

    /// The resident CSR pair behind both orientations, or a typed refusal
    /// for an `algorithm` that cannot stream the matrix from an
    /// out-of-core store.
    pub fn resident(&self, algorithm: Algorithm) -> Result<(&'a Csr, &'a Csr), BpmfError> {
        match (self.r.as_csr(), self.rt.as_csr()) {
            (Some(r), Some(rt)) => Ok((r, rt)),
            _ => Err(BpmfError::Unsupported {
                algorithm,
                feature: "out-of-core rating stores",
            }),
        }
    }

    /// Validate and bundle the inputs, panicking on invalid shapes. Legacy
    /// entry point; library code should prefer [`TrainData::try_new`].
    pub fn new(
        r: &'a dyn RatingStore,
        rt: &'a dyn RatingStore,
        global_mean: f64,
        test: &'a [(u32, u32, f64)],
    ) -> Self {
        match Self::try_new(r, rt, global_mean, test) {
            Ok(data) => data,
            Err(e) => panic!("{e}"),
        }
    }
}

/// The shared-memory sampler's [`Seams`]: statistics over every row, a
/// sweep of every row over an [`ItemRunner`], and nothing to reduce.
struct Local<'s, 'a> {
    cfg: &'s BpmfConfig,
    data: &'s TrainData<'a>,
    workers: &'s Workers,
    user_weights: &'s [f64],
    movie_weights: &'s [f64],
    runner: &'s dyn ItemRunner,
}

impl Seams for Local<'_, '_> {
    type Swept = RunStats;

    fn hyper_stats(&mut self, _: Side, state: &SideState) -> SuffStats {
        match &state.link {
            None => SuffStats::from_rows(&state.items),
            Some(si) => SuffStats::from_residual_rows(&state.items, si.offsets()),
        }
    }

    fn sweep(
        &mut self,
        side: Side,
        prior: &PriorParts,
        state: &mut SideState,
        other: &Mat,
    ) -> RunStats {
        let (matrix, weights) = match side {
            Side::Movies => (self.data.rt, self.movie_weights),
            Side::Users => (self.data.r, self.user_weights),
        };
        let mut draw = ItemDraw::new(
            self.cfg,
            prior,
            self.data.global_mean,
            matrix,
            0..matrix.nrows(),
            other,
        );
        draw.offsets = state.link.as_ref().map(|si| si.offsets());
        // Out-of-core stores: tell the kernel the whole orientation is
        // about to be swept so read-ahead starts before workers block on
        // page faults. A no-op for resident matrices.
        matrix.prefetch_rows(0, matrix.nrows());
        let (offsets, indices, _) = matrix.raw_parts();
        let adj = Adjacency {
            offsets,
            indices,
            neighbor_domain: other.rows(),
        };
        let rows = 0..matrix.nrows();
        let items = &mut state.items;
        self.workers
            .run(self.runner, &draw, items, rows, Some(weights), Some(adj))
    }

    fn squared_errors(&mut self, se: [f64; 2]) -> [f64; 2] {
        se
    }
}

/// The BPMF Gibbs sampler.
///
/// One [`GibbsSampler::step`] is one step of the chain every distributed
/// rank also runs, with the shared-memory seams: resample movie
/// hyperparameters, sweep all movies over the runner, resample user
/// hyperparameters, sweep all users, then predict the test points
/// (tracking both the current sample's RMSE and the posterior-mean RMSE
/// after burn-in).
pub struct GibbsSampler<'a> {
    cfg: BpmfConfig,
    data: TrainData<'a>,
    chain: Chain,
    /// Link state recovered from a checkpoint, applied when side info is
    /// re-attached after [`GibbsSampler::resume`].
    pending_user_link: Option<(Mat, f64)>,
    pending_movie_link: Option<(Mat, f64)>,
    workers: Workers,
    user_weights: Vec<f64>,
    movie_weights: Vec<f64>,
}

impl<'a> GibbsSampler<'a> {
    /// Initialize factors and hyperparameters from `cfg.seed`, panicking on
    /// an invalid config. Legacy entry point; prefer
    /// [`GibbsSampler::try_new`] or the [`crate::Bpmf::builder`] facade.
    pub fn new(cfg: BpmfConfig, data: TrainData<'a>) -> Self {
        match Self::try_new(cfg, data) {
            Ok(sampler) => sampler,
            Err(e) => panic!("{e}"),
        }
    }

    /// Initialize factors and hyperparameters from `cfg.seed`.
    pub fn try_new(cfg: BpmfConfig, data: TrainData<'a>) -> Result<Self, BpmfError> {
        cfg.try_validate()?;
        let shape = (data.r.nrows(), data.r.ncols());
        let chain = Chain::new(&cfg, shape, data.test.len(), data.global_mean);
        Ok(Self::around(cfg, data, chain, Vec::new()))
    }

    /// The sampler around `chain`, drawing items on `streams`.
    fn around(
        cfg: BpmfConfig,
        data: TrainData<'a>,
        chain: Chain,
        streams: Vec<Xoshiro256pp>,
    ) -> Self {
        let wm = WorkModel::default();
        GibbsSampler {
            workers: Workers::new(streams, cfg.num_latent),
            user_weights: store_row_weights(&wm, data.r),
            movie_weights: store_row_weights(&wm, data.rt),
            pending_user_link: None,
            pending_movie_link: None,
            cfg,
            data,
            chain,
        }
    }

    /// Attach Macau-style side information to the *user* side: `features`
    /// must have one row per user. The link matrix starts at zero and is
    /// Gibbs-sampled from the next [`GibbsSampler::step`] on; after
    /// [`GibbsSampler::resume`] it starts at the checkpointed sample.
    ///
    /// Supported on the shared-memory path; the distributed driver runs the
    /// plain BPMF model.
    ///
    /// # Errors
    ///
    /// [`BpmfError::CheckpointMismatch`] if the sampler was resumed from a
    /// checkpoint whose link was sampled for another number of features.
    pub fn attach_user_side_info(&mut self, si: FeatureSideInfo) -> Result<(), BpmfError> {
        self.attach(Side::Users, si)
    }

    /// Attach Macau-style side information to the *movie* side: `features`
    /// must have one row per movie. See [`GibbsSampler::attach_user_side_info`].
    ///
    /// # Errors
    ///
    /// As for [`GibbsSampler::attach_user_side_info`].
    pub fn attach_movie_side_info(&mut self, si: FeatureSideInfo) -> Result<(), BpmfError> {
        self.attach(Side::Movies, si)
    }

    fn attach(&mut self, side: Side, mut si: FeatureSideInfo) -> Result<(), BpmfError> {
        let (state, pending, what) = match side {
            Side::Users => (&mut self.chain.users, &mut self.pending_user_link, "user"),
            Side::Movies => (
                &mut self.chain.movies,
                &mut self.pending_movie_link,
                "movie",
            ),
        };
        assert_eq!(
            si.num_items(),
            state.items.rows(),
            "one feature row per {what} required"
        );
        assert_eq!(
            si.offsets().cols(),
            self.cfg.num_latent,
            "side info built for wrong K"
        );
        if let Some((beta, _)) = pending {
            if beta.rows() != si.num_features() {
                return Err(BpmfError::CheckpointMismatch(format!(
                    "{what} link was sampled for {} features, the side information has {}",
                    beta.rows(),
                    si.num_features()
                )));
            }
        }
        if let Some((beta, lb)) = pending.take() {
            si.restore_link(beta, lb);
        }
        state.link = Some(si);
        Ok(())
    }

    /// Current user-side link matrix sample, if side information is attached.
    pub fn user_link_matrix(&self) -> Option<&bpmf_linalg::Mat> {
        self.chain.users.link.as_ref().map(|si| si.beta())
    }

    /// Current movie-side link matrix sample, if side information is attached.
    pub fn movie_link_matrix(&self) -> Option<&bpmf_linalg::Mat> {
        self.chain.movies.link.as_ref().map(|si| si.beta())
    }

    /// Sampler configuration.
    pub fn cfg(&self) -> &BpmfConfig {
        &self.cfg
    }

    /// Current user factors (`M × K`).
    pub fn user_factors(&self) -> &Mat {
        &self.chain.users.items
    }

    /// Current movie factors (`N × K`).
    pub fn movie_factors(&self) -> &Mat {
        &self.chain.movies.items
    }

    /// Current user-side hyperprior `(μ_U, Λ_U)` — the Normal–Wishart
    /// state a cold-start fold-in conditions on (see
    /// [`crate::update::fold_in_mean`]).
    pub fn user_hyper(&self) -> (&[f64], &Mat) {
        (&self.chain.users.mu, &self.chain.users.lambda)
    }

    /// Predict one rating from the *current* sample, clamped to the
    /// configured rating bounds.
    pub fn predict_one(&self, user: usize, movie: usize) -> f64 {
        self.cfg.clamp_rating(
            self.data.global_mean
                + vecops::dot(
                    self.chain.users.items.row(user),
                    self.chain.movies.items.row(movie),
                ),
        )
    }

    /// Predict one rating from the running posterior-mean factors
    /// (`E[U]·E[V]` — ignores factor covariance, the standard point
    /// predictor for ranking), clamped to the configured rating bounds.
    /// `None` before any post-burn-in sample.
    pub fn predict_posterior_mean(&self, user: usize, movie: usize) -> Option<f64> {
        let (u, v) = self.chain.posterior.sums()?;
        let n = self.chain.posterior.count() as f64;
        Some(
            self.cfg.clamp_rating(
                self.data.global_mean + vecops::dot(u.row(user), v.row(movie)) / (n * n),
            ),
        )
    }

    /// Posterior element-wise second moments `(E[U²], E[V²])` across the
    /// post-burn-in samples. `None` before any post-burn-in sample, and
    /// after resuming from a checkpoint written before squared-factor
    /// accumulation existed (the early draws' squares are unrecoverable).
    pub fn posterior_second_moments(&self) -> Option<(Mat, Mat)> {
        self.chain.posterior.second_moments()
    }

    /// Training-set global mean the sampler centers residuals on.
    pub fn global_mean(&self) -> f64 {
        self.data.global_mean
    }

    /// Post-burn-in samples accumulated into the posterior means.
    pub fn accumulated_samples(&self) -> usize {
        self.chain.posterior.count()
    }

    pub(crate) fn posterior(&self) -> &PosteriorAccumulator {
        &self.chain.posterior
    }

    /// End the chain and serve it: the same model as
    /// [`PosteriorModel::from_sampler`], built from the sampler's own
    /// posterior sums and factors, moved rather than copied.
    pub fn into_model(self) -> PosteriorModel {
        let GibbsSampler {
            cfg, data, chain, ..
        } = self;
        let Chain {
            users,
            movies,
            posterior,
            ..
        } = chain;
        PosteriorModel::from_chain(
            posterior,
            || (users.items, movies.items),
            (users.mu, users.lambda),
            &cfg,
            data.global_mean,
        )
    }

    /// Running posterior means of the factor matrices (averaged over
    /// post-burn-in samples). `None` before any post-burn-in sample.
    pub fn posterior_mean_factors(&self) -> Option<(Mat, Mat)> {
        self.chain.posterior.means()
    }

    /// Monte-Carlo posterior predictive summaries for every test point:
    /// mean and standard deviation over the post-burn-in Gibbs samples.
    /// Empty before two accumulated samples.
    pub fn test_prediction_summaries(&self) -> Vec<PredictionSummary> {
        self.chain.posterior.summaries()
    }

    /// Completed Gibbs iterations.
    pub fn iterations_done(&self) -> usize {
        self.chain.iter
    }

    /// Capture the complete sampler state for checkpointing.
    pub fn checkpoint(&self) -> crate::checkpoint::SamplerCheckpoint {
        self.chain.checkpoint(self.workers.rng_states())
    }

    /// Rebuild a sampler from a checkpoint, panicking on any mismatch.
    /// Legacy entry point; prefer [`GibbsSampler::try_resume`].
    pub fn resume(
        cfg: BpmfConfig,
        data: TrainData<'a>,
        ckpt: &crate::checkpoint::SamplerCheckpoint,
    ) -> Self {
        match Self::try_resume(cfg, data, ckpt) {
            Ok(sampler) => sampler,
            Err(e) => panic!("{e}"),
        }
    }

    /// Rebuild a sampler from a checkpoint, continuing the exact chain.
    ///
    /// `cfg` and `data` must match what the checkpointed run used: every
    /// shape the checkpoint restores is validated (a mismatch is a
    /// [`BpmfError::CheckpointMismatch`]); statistical parameters
    /// are trusted. Resume with the same runner thread count for
    /// reproducible continuation.
    pub fn try_resume(
        cfg: BpmfConfig,
        data: TrainData<'a>,
        ckpt: &crate::checkpoint::SamplerCheckpoint,
    ) -> Result<Self, BpmfError> {
        cfg.try_validate()?;
        let shape = (data.r.nrows(), data.r.ncols());
        let chain = Chain::resume(&cfg, shape, data.test.len(), data.global_mean, ckpt)?;
        // Restored streams are kept as long as the runner has no more
        // workers than the checkpointed run (see `ensure_workers`).
        let streams = ckpt.worker_rngs.iter().map(|s| s.rebuild()).collect();
        let mut sampler = Self::around(cfg, data, chain, streams);
        let link = |l: &Option<(FlatMat, f64)>| l.as_ref().map(|(b, l)| (b.to_mat(), *l));
        sampler.pending_user_link = link(&ckpt.user_link);
        sampler.pending_movie_link = link(&ckpt.movie_link);
        Ok(sampler)
    }

    /// Grow per-worker RNG streams and scratch buffers to `n` workers.
    ///
    /// Streams are xoshiro `jump` sub-streams of the master seed, so any two
    /// workers are 2¹²⁸ draws apart. Growing re-derives all streams; use one
    /// runner per sampler for reproducible traces.
    fn ensure_workers(&mut self, n: usize) {
        if self.workers.len() < n {
            self.workers = Workers::new(
                Xoshiro256pp::streams(self.cfg.seed ^ 0x5851_F42D, n),
                self.cfg.num_latent,
            );
        }
    }

    /// One full Gibbs iteration over `runner`.
    pub fn step(&mut self, runner: &dyn ItemRunner) -> IterStats {
        self.ensure_workers(runner.threads());
        let mut local = Local {
            cfg: &self.cfg,
            data: &self.data,
            workers: &self.workers,
            user_weights: &self.user_weights,
            movie_weights: &self.movie_weights,
            runner,
        };
        let test = self.data.test;
        let ((rmse_sample, rmse_mean), [movies, users]) =
            self.chain.step(&mut local, test, test.len());
        let items = (self.data.r.nrows() + self.data.r.ncols()) as f64;
        let (e1, e2) = (movies.elapsed.as_secs_f64(), users.elapsed.as_secs_f64());
        let secs = e1 + e2;
        IterStats {
            iter: self.chain.iter - 1,
            rmse_sample,
            rmse_mean,
            items_per_sec: if secs > 0.0 { items / secs } else { 0.0 },
            sweep_seconds: secs,
            busy_fraction: if secs > 0.0 {
                (movies.busy_fraction() * e1 + users.busy_fraction() * e2) / secs
            } else {
                1.0
            },
            steals: movies.total_steals() + users.total_steals(),
        }
    }

    /// Run `iterations` steps and collect the report.
    pub fn run(&mut self, runner: &dyn ItemRunner, iterations: usize) -> TrainReport {
        let iters = (0..iterations).map(|_| self.step(runner)).collect();
        TrainReport {
            engine: runner.name().to_string(),
            parallelism: runner.threads(),
            iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use bpmf_sparse::{Coo, Csr};

    /// A small planted dataset the sampler must crack: rank-2 structure,
    /// mild noise.
    fn planted(seed: u64) -> (Csr, Csr, f64, Vec<(u32, u32, f64)>) {
        let (m, n, k) = (60usize, 40usize, 2usize);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let u = Mat::from_fn(m, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 1.0));
        let v = Mat::from_fn(n, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 1.0));
        let mut coo = Coo::new(m, n);
        let mut test = Vec::new();
        for i in 0..m {
            for j in 0..n {
                if rng.next_f64() < 0.4 {
                    let r =
                        vecops::dot(u.row(i), v.row(j)) + bpmf_stats::normal(&mut rng, 0.0, 0.1);
                    if rng.next_f64() < 0.15 {
                        test.push((i as u32, j as u32, r));
                    } else {
                        coo.push(i, j, r);
                    }
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let mean = r.iter().map(|(_, _, v)| v).sum::<f64>() / r.nnz() as f64;
        let rt = r.transpose();
        (r, rt, mean, test)
    }

    #[test]
    fn sampler_converges_toward_noise_floor() {
        let (r, rt, mean, test) = planted(11);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 4,
            burnin: 6,
            samples: 14,
            seed: 1,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::WorkStealing.build(2);
        let mut sampler = GibbsSampler::new(cfg, data);
        let report = sampler.run(runner.as_ref(), 20);

        let first = report.iters[0].rmse_sample;
        let last = report.final_rmse();
        assert!(
            last < first * 0.6,
            "no convergence: first {first}, last {last}"
        );
        // Noise sd is 0.1; posterior-mean RMSE should land well below 0.5.
        assert!(last < 0.5, "final RMSE too high: {last}");
    }

    #[test]
    fn posterior_mean_rmse_is_at_least_as_good_as_sample_rmse_eventually() {
        let (r, rt, mean, test) = planted(5);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 4,
            burnin: 4,
            samples: 16,
            seed: 3,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::Static.build(2);
        let mut sampler = GibbsSampler::new(cfg, data);
        let report = sampler.run(runner.as_ref(), 20);
        let last = report.iters.last().unwrap();
        assert!(
            last.rmse_mean <= last.rmse_sample * 1.1,
            "averaging should not hurt: mean {} vs sample {}",
            last.rmse_mean,
            last.rmse_sample
        );
    }

    #[test]
    fn static_engine_is_deterministic_given_seed() {
        let (r, rt, mean, test) = planted(2);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            burnin: 2,
            samples: 4,
            seed: 7,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::Static.build(2);
        let run = |cfg: BpmfConfig| {
            let mut s = GibbsSampler::new(cfg, data);
            s.run(runner.as_ref(), 6).final_rmse()
        };
        // Static scheduling assigns item→worker deterministically, so the
        // whole chain is reproducible bit-for-bit.
        assert_eq!(run(cfg.clone()), run(cfg));
    }

    #[test]
    fn all_engines_converge_similarly() {
        let (r, rt, mean, test) = planted(4);
        let data = TrainData::new(&r, &rt, mean, &test);
        for kind in EngineKind::all() {
            let cfg = BpmfConfig {
                num_latent: 4,
                burnin: 5,
                samples: 10,
                seed: 9,
                kernel_threads: 1,
                ..Default::default()
            };
            let runner = kind.build(2);
            let mut sampler = GibbsSampler::new(cfg, data);
            let report = sampler.run(runner.as_ref(), 15);
            assert!(
                report.final_rmse() < 0.5,
                "{} failed to converge: {}",
                kind.label(),
                report.final_rmse()
            );
        }
    }

    #[test]
    fn prediction_summaries_have_calibrated_spread() {
        let (r, rt, mean, test) = planted(8);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 4,
            burnin: 4,
            samples: 16,
            seed: 12,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::WorkStealing.build(2);
        let mut sampler = GibbsSampler::new(cfg, data);
        assert!(
            sampler.test_prediction_summaries().is_empty(),
            "no summaries before burn-in"
        );
        sampler.run(runner.as_ref(), 20);

        let summaries = sampler.test_prediction_summaries();
        assert_eq!(summaries.len(), test.len());
        // Stds must be positive (the chain moves); individual points with
        // few observations legitimately stay wide, but the typical point
        // must be tight once the chain has converged.
        for s in &summaries {
            assert!(s.std > 0.0, "degenerate predictive std");
            assert!(s.std.is_finite() && s.mean.is_finite());
        }
        let mut stds: Vec<f64> = summaries.iter().map(|s| s.std).collect();
        stds.sort_by(f64::total_cmp);
        let median = stds[stds.len() / 2];
        assert!(median < 0.6, "median predictive std too wide: {median}");
        // ~Gaussian calibration: the truth should fall within ±4 posterior
        // std + noise for the large majority of points.
        let covered = summaries
            .iter()
            .zip(&test)
            .filter(|(s, &(_, _, r))| (s.mean - r).abs() < 4.0 * (s.std + 0.1))
            .count();
        assert!(
            covered * 10 >= summaries.len() * 8,
            "only {covered}/{} covered",
            summaries.len()
        );
    }

    #[test]
    fn posterior_mean_factors_match_accumulated_predictions() {
        let (r, rt, mean, test) = planted(9);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            burnin: 2,
            samples: 6,
            seed: 4,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::Static.build(1);
        let mut sampler = GibbsSampler::new(cfg, data);
        assert!(sampler.posterior_mean_factors().is_none());
        sampler.run(runner.as_ref(), 8);
        let (mu, mv) = sampler.posterior_mean_factors().unwrap();
        let (i, j) = (test[0].0 as usize, test[0].1 as usize);
        let direct = mean + vecops::dot(mu.row(i), mv.row(j));
        let via_api = sampler.predict_posterior_mean(i, j).unwrap();
        assert!((direct - via_api).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_resume_continues_the_exact_chain() {
        let (r, rt, mean, test) = planted(15);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            burnin: 2,
            samples: 8,
            seed: 33,
            kernel_threads: 1,
            ..Default::default()
        };
        // Static engine with a fixed thread count: fully deterministic.
        let runner = EngineKind::Static.build(2);

        // Uninterrupted: 8 iterations.
        let mut full = GibbsSampler::new(cfg.clone(), data);
        let full_report = full.run(runner.as_ref(), 8);

        // Interrupted after 4, checkpointed, resumed for 4 more.
        let mut first_half = GibbsSampler::new(cfg.clone(), data);
        first_half.run(runner.as_ref(), 4);
        let ckpt = first_half.checkpoint();
        drop(first_half);
        let mut resumed = GibbsSampler::resume(cfg, data, &ckpt);
        assert_eq!(resumed.iterations_done(), 4);
        let resumed_report = resumed.run(runner.as_ref(), 4);

        for (a, b) in full_report.iters[4..].iter().zip(&resumed_report.iters) {
            assert_eq!(
                a.rmse_sample.to_bits(),
                b.rmse_sample.to_bits(),
                "iteration {} diverged after resume",
                b.iter
            );
        }
    }

    #[test]
    fn resume_from_pre_second_moment_checkpoint_disables_uncertainty() {
        let (r, rt, mean, test) = planted(17);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            burnin: 1,
            samples: 6,
            seed: 8,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::Static.build(1);
        let mut sampler = GibbsSampler::new(cfg.clone(), data);
        sampler.run(runner.as_ref(), 4);
        let mut ckpt = sampler.checkpoint();
        // Simulate a checkpoint written before squared-factor accumulation
        // existed: posterior means present, squares absent.
        ckpt.factor_sq_acc = None;
        let mut resumed = GibbsSampler::resume(cfg, data, &ckpt);
        resumed.run(runner.as_ref(), 3);
        // Means keep working; second moments are honestly unavailable
        // instead of silently understated.
        assert!(resumed.posterior_mean_factors().is_some());
        assert!(resumed.posterior_second_moments().is_none());
    }

    #[test]
    #[should_panic(expected = "latent dimension mismatch")]
    fn resume_validates_dimensions() {
        let (r, rt, mean, test) = planted(16);
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            kernel_threads: 1,
            ..Default::default()
        };
        let sampler = GibbsSampler::new(cfg, data);
        let ckpt = sampler.checkpoint();
        let bad_cfg = BpmfConfig {
            num_latent: 4,
            kernel_threads: 1,
            ..Default::default()
        };
        let _ = GibbsSampler::resume(bad_cfg, data, &ckpt);
    }

    #[test]
    fn empty_test_set_yields_nan_rmse_but_runs() {
        let (r, rt, mean, _) = planted(6);
        let test: Vec<(u32, u32, f64)> = Vec::new();
        let data = TrainData::new(&r, &rt, mean, &test);
        let cfg = BpmfConfig {
            num_latent: 3,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::WorkStealing.build(1);
        let mut sampler = GibbsSampler::new(cfg, data);
        let stats = sampler.step(runner.as_ref());
        assert!(stats.rmse_sample.is_nan());
        assert_eq!(sampler.iterations_done(), 1);
    }

    #[test]
    fn empty_test_set_still_averages_the_posterior() {
        // Held-out points only feed the RMSE trace; the served model must
        // average the post-burn-in draws whether or not any are held out.
        let (r, rt, mean, _) = planted(7);
        let data = TrainData::new(&r, &rt, mean, &[]);
        let cfg = BpmfConfig {
            num_latent: 3,
            burnin: 2,
            samples: 3,
            seed: 5,
            kernel_threads: 1,
            ..Default::default()
        };
        let runner = EngineKind::Static.build(1);
        let mut sampler = GibbsSampler::new(cfg, data);
        let report = sampler.run(runner.as_ref(), 5);
        assert!(report.iters.iter().all(|s| s.rmse_mean.is_nan()));
        assert_eq!(sampler.accumulated_samples(), 3);
        let model = crate::PosteriorModel::from_sampler(&sampler);
        assert_eq!(model.samples(), 3);
        let (mu, _) = sampler.posterior_mean_factors().unwrap();
        assert_eq!(model.user_means().as_slice(), mu.as_slice());
        assert!(sampler.posterior_second_moments().is_some());
    }

    #[test]
    #[should_panic(expected = "transpose")]
    fn mismatched_transpose_is_rejected() {
        let (r, _, mean, test) = planted(1);
        let bad = r.clone(); // not a transpose
        let _ = TrainData::new(&r, &bad, mean, &test);
    }
}
