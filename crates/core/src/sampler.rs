//! The Gibbs sampler (Algorithm 1 of the paper) over a pluggable runtime.

use std::fmt;

use bpmf_linalg::{vecops, Mat};
use bpmf_sched::{Adjacency, ItemRunner, RunStats};
use bpmf_sparse::WorkModel;
use bpmf_stats::Xoshiro256pp;

use crate::api::PosteriorModel;
use crate::config::BpmfConfig;
use crate::model::SideState;
use crate::posterior::{PosteriorAccumulator, PredictionSummary};
use crate::report::{IterStats, TrainReport};
use crate::sideinfo::FeatureSideInfo;
use crate::store::{store_row_weights, RatingStore};
use crate::update::{ItemDraw, PriorParts, Workers};
use bpmf_linalg::MatWriter;
use bpmf_stats::SuffStats;

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
    ) -> Result<Self, crate::BpmfError> {
        use crate::BpmfError;
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

enum Side {
    Users,
    Movies,
}

/// One side's hyperparameter step: plain Normal–Wishart from the factors,
/// or — with side information attached — from the residuals around the
/// feature-predicted prior means, followed by a fresh link-matrix draw.
/// Returns the new prior's per-sweep parts.
fn resample_hyper(
    state: &mut SideState,
    side_info: &mut Option<FeatureSideInfo>,
    rng: &mut Xoshiro256pp,
) -> PriorParts {
    match side_info {
        None => {
            state.sample_hyper(rng);
            state.prior_parts()
        }
        Some(si) => {
            let stats = SuffStats::from_residual_rows(&state.items, si.offsets());
            state.apply_hyper_from_stats(&stats, rng);
            let parts = state.prior_parts();
            si.resample_beta(&state.items, &state.mu, parts.derivatives().1, rng);
            parts
        }
    }
}

/// The BPMF Gibbs sampler.
///
/// One [`GibbsSampler::step`] performs Algorithm 1's loop body: resample
/// movie hyperparameters, sweep all movies, resample user hyperparameters,
/// sweep all users, then predict the test points (tracking both the current
/// sample's RMSE and the posterior-mean RMSE after burn-in).
pub struct GibbsSampler<'a> {
    cfg: BpmfConfig,
    data: TrainData<'a>,
    users: SideState,
    movies: SideState,
    user_side: Option<FeatureSideInfo>,
    movie_side: Option<FeatureSideInfo>,
    /// Link state recovered from a checkpoint, applied when side info is
    /// re-attached after [`GibbsSampler::resume`].
    pending_user_link: Option<(Mat, f64)>,
    pending_movie_link: Option<(Mat, f64)>,
    hyper_rng: Xoshiro256pp,
    workers: Workers,
    user_weights: Vec<f64>,
    movie_weights: Vec<f64>,
    posterior: PosteriorAccumulator,
    iter: usize,
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
    pub fn try_new(cfg: BpmfConfig, data: TrainData<'a>) -> Result<Self, crate::BpmfError> {
        cfg.try_validate()?;
        let k = cfg.num_latent;
        let mut init_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let users = SideState::init(data.r.nrows(), k, &mut init_rng);
        let movies = SideState::init(data.r.ncols(), k, &mut init_rng);
        let wm = WorkModel::default();
        Ok(GibbsSampler {
            hyper_rng: Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x9E37_79B9),
            workers: Workers::new(Vec::new(), k),
            user_weights: store_row_weights(&wm, data.r),
            movie_weights: store_row_weights(&wm, data.rt),
            posterior: Self::accumulator(&cfg, &data),
            iter: 0,
            cfg,
            data,
            users,
            movies,
            user_side: None,
            movie_side: None,
            pending_user_link: None,
            pending_movie_link: None,
        })
    }

    fn accumulator(cfg: &BpmfConfig, data: &TrainData<'_>) -> PosteriorAccumulator {
        PosteriorAccumulator::new(
            cfg.burnin,
            data.test.len(),
            data.global_mean,
            cfg.rating_bounds,
        )
    }

    /// Attach Macau-style side information to the *user* side: `features`
    /// must have one row per user. The link matrix starts at zero and is
    /// Gibbs-sampled from the next [`GibbsSampler::step`] on.
    ///
    /// Supported on the shared-memory path; the distributed driver runs the
    /// plain BPMF model.
    pub fn attach_user_side_info(&mut self, mut si: FeatureSideInfo) {
        assert_eq!(
            si.num_items(),
            self.data.r.nrows(),
            "one feature row per user required"
        );
        assert_eq!(
            si.offsets().cols(),
            self.cfg.num_latent,
            "side info built for wrong K"
        );
        if let Some((beta, lb)) = self.pending_user_link.take() {
            si.restore_link(beta, lb);
        }
        self.user_side = Some(si);
    }

    /// Attach Macau-style side information to the *movie* side: `features`
    /// must have one row per movie. See [`GibbsSampler::attach_user_side_info`].
    pub fn attach_movie_side_info(&mut self, mut si: FeatureSideInfo) {
        assert_eq!(
            si.num_items(),
            self.data.r.ncols(),
            "one feature row per movie required"
        );
        assert_eq!(
            si.offsets().cols(),
            self.cfg.num_latent,
            "side info built for wrong K"
        );
        if let Some((beta, lb)) = self.pending_movie_link.take() {
            si.restore_link(beta, lb);
        }
        self.movie_side = Some(si);
    }

    /// Current user-side link matrix sample, if side information is attached.
    pub fn user_link_matrix(&self) -> Option<&bpmf_linalg::Mat> {
        self.user_side.as_ref().map(|si| si.beta())
    }

    /// Current movie-side link matrix sample, if side information is attached.
    pub fn movie_link_matrix(&self) -> Option<&bpmf_linalg::Mat> {
        self.movie_side.as_ref().map(|si| si.beta())
    }

    /// Sampler configuration.
    pub fn cfg(&self) -> &BpmfConfig {
        &self.cfg
    }

    /// Current user factors (`M × K`).
    pub fn user_factors(&self) -> &Mat {
        &self.users.items
    }

    /// Current movie factors (`N × K`).
    pub fn movie_factors(&self) -> &Mat {
        &self.movies.items
    }

    /// Current user-side hyperprior `(μ_U, Λ_U)` — the Normal–Wishart
    /// state a cold-start fold-in conditions on (see
    /// [`crate::update::fold_in_mean`]).
    pub fn user_hyper(&self) -> (&[f64], &Mat) {
        (&self.users.mu, &self.users.lambda)
    }

    /// Predict one rating from the *current* sample, clamped to the
    /// configured rating bounds.
    pub fn predict_one(&self, user: usize, movie: usize) -> f64 {
        self.cfg.clamp_rating(
            self.data.global_mean
                + vecops::dot(self.users.items.row(user), self.movies.items.row(movie)),
        )
    }

    /// Predict one rating from the running posterior-mean factors
    /// (`E[U]·E[V]` — ignores factor covariance, the standard point
    /// predictor for ranking), clamped to the configured rating bounds.
    /// `None` before any post-burn-in sample.
    pub fn predict_posterior_mean(&self, user: usize, movie: usize) -> Option<f64> {
        let (u, v) = self.posterior.sums()?;
        let n = self.posterior.count() as f64;
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
        self.posterior.second_moments()
    }

    /// Training-set global mean the sampler centers residuals on.
    pub fn global_mean(&self) -> f64 {
        self.data.global_mean
    }

    /// Post-burn-in samples accumulated into the posterior means.
    pub fn accumulated_samples(&self) -> usize {
        self.posterior.count()
    }

    pub(crate) fn posterior(&self) -> &PosteriorAccumulator {
        &self.posterior
    }

    /// End the chain and serve it: the same model as
    /// [`PosteriorModel::from_sampler`], built from the sampler's own
    /// posterior sums and factors, moved rather than copied.
    pub fn into_model(self) -> PosteriorModel {
        let GibbsSampler {
            cfg,
            data,
            users,
            movies,
            posterior,
            ..
        } = self;
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
        self.posterior.means()
    }

    /// Monte-Carlo posterior predictive summaries for every test point:
    /// mean and standard deviation over the post-burn-in Gibbs samples.
    /// Empty before two accumulated samples.
    pub fn test_prediction_summaries(&self) -> Vec<PredictionSummary> {
        self.posterior.summaries()
    }

    /// Completed Gibbs iterations.
    pub fn iterations_done(&self) -> usize {
        self.iter
    }

    /// Capture the complete sampler state for checkpointing.
    pub fn checkpoint(&self) -> crate::checkpoint::SamplerCheckpoint {
        use crate::checkpoint::{FlatMat, RngState, SamplerCheckpoint};
        let flat =
            |p: Option<&(Mat, Mat)>| p.map(|(u, v)| (FlatMat::from_mat(u), FlatMat::from_mat(v)));
        let (predict_acc, predict_sq_acc) = self.posterior.prediction_sums();
        SamplerCheckpoint {
            num_latent: self.cfg.num_latent,
            iter: self.iter,
            acc_count: self.posterior.count(),
            users: FlatMat::from_mat(&self.users.items),
            movies: FlatMat::from_mat(&self.movies.items),
            users_mu: self.users.mu.clone(),
            users_lambda: FlatMat::from_mat(&self.users.lambda),
            movies_mu: self.movies.mu.clone(),
            movies_lambda: FlatMat::from_mat(&self.movies.lambda),
            hyper_rng: RngState::capture(&self.hyper_rng),
            worker_rngs: self.workers.rng_states(),
            predict_acc: predict_acc.to_vec(),
            predict_sq_acc: predict_sq_acc.to_vec(),
            factor_acc: flat(self.posterior.sums()),
            factor_sq_acc: flat(self.posterior.squares()),
            user_link: self
                .user_side
                .as_ref()
                .map(|si| (FlatMat::from_mat(si.beta()), si.lambda_beta())),
            movie_link: self
                .movie_side
                .as_ref()
                .map(|si| (FlatMat::from_mat(si.beta()), si.lambda_beta())),
            // Training state is whole-catalogue; serving stamps a spec.
            shard: None,
        }
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
    /// `cfg` and `data` must match what the checkpointed run used (shapes
    /// are validated; statistical parameters are trusted). Resume with the
    /// same runner thread count for reproducible continuation.
    pub fn try_resume(
        cfg: BpmfConfig,
        data: TrainData<'a>,
        ckpt: &crate::checkpoint::SamplerCheckpoint,
    ) -> Result<Self, crate::BpmfError> {
        use crate::BpmfError;
        cfg.try_validate()?;
        let mismatch = |what: &str, expected: usize, found: usize| {
            BpmfError::CheckpointMismatch(format!(
                "{what} mismatch: expected {expected}, found {found}"
            ))
        };
        if cfg.num_latent != ckpt.num_latent {
            return Err(BpmfError::CheckpointMismatch(format!(
                "latent dimension mismatch: config has {}, checkpoint has {}",
                cfg.num_latent, ckpt.num_latent
            )));
        }
        if ckpt.users.rows != data.r.nrows() {
            return Err(mismatch("user count", data.r.nrows(), ckpt.users.rows));
        }
        if ckpt.movies.rows != data.r.ncols() {
            return Err(mismatch("movie count", data.r.ncols(), ckpt.movies.rows));
        }
        if ckpt.predict_acc.len() != data.test.len() {
            return Err(mismatch(
                "test set",
                data.test.len(),
                ckpt.predict_acc.len(),
            ));
        }
        let k = cfg.num_latent;
        let wm = WorkModel::default();
        Ok(GibbsSampler {
            hyper_rng: ckpt.hyper_rng.rebuild(),
            // Restored streams are kept as long as the runner has no more
            // workers than the checkpointed run (see `ensure_workers`).
            workers: Workers::new(ckpt.worker_rngs.iter().map(|s| s.rebuild()).collect(), k),
            user_weights: store_row_weights(&wm, data.r),
            movie_weights: store_row_weights(&wm, data.rt),
            posterior: Self::accumulator(&cfg, &data).resumed_from(ckpt),
            iter: ckpt.iter,
            cfg,
            data,
            user_side: None,
            movie_side: None,
            pending_user_link: ckpt.user_link.as_ref().map(|(b, l)| (b.to_mat(), *l)),
            pending_movie_link: ckpt.movie_link.as_ref().map(|(b, l)| (b.to_mat(), *l)),
            users: SideState {
                items: ckpt.users.to_mat(),
                mu: ckpt.users_mu.clone(),
                lambda: ckpt.users_lambda.to_mat(),
                hyperprior: bpmf_stats::NormalWishart::default_for_dim(k),
            },
            movies: SideState {
                items: ckpt.movies.to_mat(),
                mu: ckpt.movies_mu.clone(),
                lambda: ckpt.movies_lambda.to_mat(),
                hyperprior: bpmf_stats::NormalWishart::default_for_dim(k),
            },
        })
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

        // Algorithm 1: hyper(movies) → movies, hyper(users) → users. With
        // side information the Normal–Wishart update sees the residuals
        // around the feature-predicted means, then the link matrix is
        // redrawn (Macau's sweep order).
        let prior = resample_hyper(&mut self.movies, &mut self.movie_side, &mut self.hyper_rng);
        let movie_stats = self.sweep(Side::Movies, &prior, runner);
        let prior = resample_hyper(&mut self.users, &mut self.user_side, &mut self.hyper_rng);
        let user_stats = self.sweep(Side::Users, &prior, runner);

        let se = self.posterior.record(
            self.iter,
            &self.users.items,
            &self.movies.items,
            self.data.test,
        );
        let (rmse_sample, rmse_mean) = self.posterior.rmse(se, self.data.test.len());
        let stats = self.make_iter_stats(rmse_sample, rmse_mean, &movie_stats, &user_stats);
        self.iter += 1;
        stats
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

    fn sweep(&mut self, side: Side, prior: &PriorParts, runner: &dyn ItemRunner) -> RunStats {
        // Full destructuring gives the borrow checker disjoint fields: the
        // updated side is exclusive, the counterpart shared.
        let GibbsSampler {
            cfg,
            data,
            users,
            movies,
            user_side,
            movie_side,
            workers,
            user_weights,
            movie_weights,
            ..
        } = self;
        let (state, other, matrix, weights, side_info) = match side {
            Side::Movies => (movies, &*users, data.rt, &*movie_weights, &*movie_side),
            Side::Users => (users, &*movies, data.r, &*user_weights, &*user_side),
        };
        let mut draw = ItemDraw::new(
            cfg,
            prior,
            data.global_mean,
            matrix,
            0..matrix.nrows(),
            &other.items,
        );
        draw.offsets = side_info.as_ref().map(|si| si.offsets());
        let writer = MatWriter::new(&mut state.items);
        // Out-of-core stores: tell the kernel the whole orientation is
        // about to be swept so read-ahead starts before workers block on
        // page faults. A no-op for resident matrices.
        matrix.prefetch_rows(0, matrix.nrows());
        let (offsets, indices, _) = matrix.raw_parts();
        let adj = Adjacency {
            offsets,
            indices,
            neighbor_domain: other.items.rows(),
        };
        let update = |worker: usize, item: usize| {
            // SAFETY: the runner's exactly-once contract means no other
            // worker receives this item index, so the row is unaliased.
            workers.draw(&draw, worker, item, unsafe { writer.row_mut(item) });
        };
        runner.run_items(matrix.nrows(), Some(weights), Some(adj), &update)
    }

    fn make_iter_stats(
        &self,
        rmse_sample: f64,
        rmse_mean: f64,
        movie_stats: &RunStats,
        user_stats: &RunStats,
    ) -> IterStats {
        let items = (self.data.r.nrows() + self.data.r.ncols()) as f64;
        let secs = movie_stats.elapsed.as_secs_f64() + user_stats.elapsed.as_secs_f64();
        let busy = {
            let (e1, e2) = (
                movie_stats.elapsed.as_secs_f64(),
                user_stats.elapsed.as_secs_f64(),
            );
            if e1 + e2 > 0.0 {
                (movie_stats.busy_fraction() * e1 + user_stats.busy_fraction() * e2) / (e1 + e2)
            } else {
                1.0
            }
        };
        IterStats {
            iter: self.iter,
            rmse_sample,
            rmse_mean,
            items_per_sec: if secs > 0.0 { items / secs } else { 0.0 },
            sweep_seconds: secs,
            busy_fraction: busy,
            steals: movie_stats.total_steals() + user_stats.total_steals(),
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
