//! Algorithm 1's loop body, once for every chain that sweeps items.
//!
//! A [`Chain`] is what a BPMF Gibbs chain carries from one iteration to the
//! next: both sides' [`SideState`]s (factors, `(μ, Λ)` and any side
//! information's link), the hyperparameter stream, the
//! [`PosteriorAccumulator`] and the iteration count. [`Chain::step`] runs
//! the paper's order — hyper(movies) → sweep movies → hyper(users) → sweep
//! users → record — and calls out to its [`Seams`] at exactly three points:
//!
//! * the hyper draw's sufficient statistics: every row (the residual rows
//!   when side information is attached), or a rank's owned rows
//!   all-reduced;
//! * the sweep: an [`ItemRunner`](bpmf_sched::ItemRunner) over every row,
//!   or a rank's own rows with the §IV-C item exchange;
//! * the squared-error pair: used as is, or all-reduced.
//!
//! [`GibbsSampler`](crate::GibbsSampler) is a chain with the shared-memory
//! seams, and each rank of [`run_rank`](crate::distributed::run_rank) is a
//! chain with the ranked ones: the distributed path is the Gibbs path plus
//! an exchange. The two keep their own update-stream derivations, so a
//! one-rank run without reordering is the one-thread static Gibbs chain
//! bit for bit.

use bpmf_linalg::Mat;
use bpmf_stats::{SuffStats, Xoshiro256pp};

use crate::checkpoint::{FlatMat, RngState, SamplerCheckpoint};
use crate::config::BpmfConfig;
use crate::error::BpmfError;
use crate::model::SideState;
use crate::posterior::PosteriorAccumulator;
use crate::update::PriorParts;

/// Which side of the factorization a phase draws.
#[derive(Clone, Copy)]
pub(crate) enum Side {
    Users,
    Movies,
}

/// What differs between the shared-memory sampler and a distributed rank.
pub(crate) trait Seams {
    /// What one sweep reports (the runner's statistics, or nothing).
    type Swept;

    /// The Normal–Wishart sufficient statistics of `state`'s factors for
    /// its hyper draw, over every row of the chain.
    fn hyper_stats(&mut self, side: Side, state: &SideState) -> SuffStats;

    /// Draw `side`'s items this chain owns under `prior` against the
    /// counterpart factors `other`, leaving fresh every row of
    /// `state.items` the next phase reads.
    fn sweep(
        &mut self,
        side: Side,
        prior: &PriorParts,
        state: &mut SideState,
        other: &Mat,
    ) -> Self::Swept;

    /// The squared-error pair over every test point, from this chain's
    /// share `se`.
    fn squared_errors(&mut self, se: [f64; 2]) -> [f64; 2];
}

/// A BPMF Gibbs chain's state between iterations.
pub(crate) struct Chain {
    pub users: SideState,
    pub movies: SideState,
    hyper_rng: Xoshiro256pp,
    pub posterior: PosteriorAccumulator,
    pub iter: usize,
}

impl Chain {
    /// A fresh chain from `cfg.seed` over `users × movies` factors, scoring
    /// `points` test points.
    pub fn new(
        cfg: &BpmfConfig,
        (users, movies): (usize, usize),
        points: usize,
        mean: f64,
    ) -> Self {
        let k = cfg.num_latent;
        let mut init_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let users = SideState::init(users, k, &mut init_rng);
        let movies = SideState::init(movies, k, &mut init_rng);
        Chain {
            users,
            movies,
            hyper_rng: Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x9E37_79B9),
            posterior: PosteriorAccumulator::new(cfg.burnin, points, mean, cfg.rating_bounds),
            iter: 0,
        }
    }

    /// Continue the chain `ckpt` captured, after checking that every shape
    /// it restores fits `cfg.num_latent`, `users × movies` and `points`.
    pub fn resume(
        cfg: &BpmfConfig,
        (users, movies): (usize, usize),
        points: usize,
        mean: f64,
        ckpt: &SamplerCheckpoint,
    ) -> Result<Self, BpmfError> {
        let k = cfg.num_latent;
        if k != ckpt.num_latent {
            return Err(BpmfError::CheckpointMismatch(format!(
                "latent dimension mismatch: config has {k}, checkpoint has {}",
                ckpt.num_latent
            )));
        }
        let mismatch = |what: &str, expected: String, found: String| {
            Err(BpmfError::CheckpointMismatch(format!(
                "{what} mismatch: expected {expected}, found {found}"
            )))
        };
        for (what, expected, found) in [
            ("user count", users, ckpt.users.rows),
            ("movie count", movies, ckpt.movies.rows),
            ("test set", points, ckpt.predict_acc.len()),
            ("test set squares", points, ckpt.predict_sq_acc.len()),
            ("user μ length", k, ckpt.users_mu.len()),
            ("movie μ length", k, ckpt.movies_mu.len()),
        ] {
            if expected != found {
                return mismatch(what, expected.to_string(), found.to_string());
            }
        }
        // Post-burn-in draws without their sums would restart the sums
        // from zero while the count continued.
        if ckpt.acc_count > 0 && ckpt.factor_acc.is_none() {
            let expected = format!("sums of {} draws", ckpt.acc_count);
            return mismatch("factor sums", expected, "none".to_string());
        }
        // Every matrix restored, with the rows it must have; all have K
        // columns.
        let mut mats = vec![
            ("user factors", &ckpt.users, users),
            ("movie factors", &ckpt.movies, movies),
            ("user Λ", &ckpt.users_lambda, k),
            ("movie Λ", &ckpt.movies_lambda, k),
        ];
        if let Some((u, v)) = &ckpt.factor_acc {
            mats.extend([
                ("user factor sums", u, users),
                ("movie factor sums", v, movies),
            ]);
        }
        if let Some((u, v)) = &ckpt.factor_sq_acc {
            mats.extend([
                ("user squared sums", u, users),
                ("movie squared sums", v, movies),
            ]);
        }
        let links = [
            ("user link", &ckpt.user_link),
            ("movie link", &ckpt.movie_link),
        ];
        for (what, link) in links {
            mats.extend(link.iter().map(|(beta, _)| (what, beta, beta.rows)));
        }
        for (what, m, rows) in mats {
            if (m.rows, m.cols, m.data.len()) != (rows, k, rows * k) {
                let shape = |r: usize, c: usize, n: usize| format!("{r} × {c} ({n} values)");
                let (expected, found) = (
                    shape(rows, k, rows * k),
                    shape(m.rows, m.cols, m.data.len()),
                );
                return mismatch(what, expected, found);
            }
        }
        let side = |items: &FlatMat, mu: &[f64], lambda: &FlatMat| SideState {
            items: items.to_mat(),
            mu: mu.to_vec(),
            lambda: lambda.to_mat(),
            link: None,
        };
        Ok(Chain {
            users: side(&ckpt.users, &ckpt.users_mu, &ckpt.users_lambda),
            movies: side(&ckpt.movies, &ckpt.movies_mu, &ckpt.movies_lambda),
            hyper_rng: ckpt.hyper_rng.rebuild(),
            posterior: PosteriorAccumulator::new(cfg.burnin, points, mean, cfg.rating_bounds)
                .resumed_from(ckpt),
            iter: ckpt.iter,
        })
    }

    /// Fold into the posterior only these user and movie rows (a rank's own
    /// regions; see [`PosteriorAccumulator::owning`]).
    pub fn owning(mut self, users: std::ops::Range<usize>, movies: std::ops::Range<usize>) -> Self {
        self.posterior = self.posterior.owning(users, movies);
        self
    }

    /// The complete chain state, with the sweep workers' streams.
    pub fn checkpoint(&self, worker_rngs: Vec<RngState>) -> SamplerCheckpoint {
        let flat =
            |p: Option<&(Mat, Mat)>| p.map(|(u, v)| (FlatMat::from_mat(u), FlatMat::from_mat(v)));
        let link = |s: &SideState| {
            let si = s.link.as_ref()?;
            Some((FlatMat::from_mat(si.beta()), si.lambda_beta()))
        };
        let (predict_acc, predict_sq_acc) = self.posterior.prediction_sums();
        SamplerCheckpoint {
            num_latent: self.users.mu.len(),
            iter: self.iter,
            acc_count: self.posterior.count(),
            users: FlatMat::from_mat(&self.users.items),
            movies: FlatMat::from_mat(&self.movies.items),
            users_mu: self.users.mu.clone(),
            users_lambda: FlatMat::from_mat(&self.users.lambda),
            movies_mu: self.movies.mu.clone(),
            movies_lambda: FlatMat::from_mat(&self.movies.lambda),
            hyper_rng: RngState::capture(&self.hyper_rng),
            worker_rngs,
            predict_acc: predict_acc.to_vec(),
            predict_sq_acc: predict_sq_acc.to_vec(),
            factor_acc: flat(self.posterior.sums()),
            factor_sq_acc: flat(self.posterior.squares()),
            user_link: link(&self.users),
            movie_link: link(&self.movies),
            // Training state is whole-catalogue; serving stamps a spec.
            shard: None,
        }
    }

    /// One iteration of Algorithm 1, scoring this chain's `test` points out
    /// of `test_points` in all. Returns the RMSEs `(current draw, posterior
    /// mean)` and what the movie sweep and then the user sweep reported.
    pub fn step<S: Seams>(
        &mut self,
        seams: &mut S,
        test: &[(u32, u32, f64)],
        test_points: usize,
    ) -> ((f64, f64), [S::Swept; 2]) {
        let movies = self.phase(Side::Movies, seams);
        let users = self.phase(Side::Users, seams);
        let se = self
            .posterior
            .record(self.iter, &self.users.items, &self.movies.items, test);
        self.iter += 1;
        let rmse = self.posterior.rmse(seams.squared_errors(se), test_points);
        (rmse, [movies, users])
    }

    /// Draw `side`'s hyperparameters, then its items.
    fn phase<S: Seams>(&mut self, side: Side, seams: &mut S) -> S::Swept {
        let (state, other) = match side {
            Side::Movies => (&mut self.movies, &self.users),
            Side::Users => (&mut self.users, &self.movies),
        };
        let stats = seams.hyper_stats(side, state);
        let prior = state.draw_hyper(&stats, &mut self.hyper_rng);
        seams.sweep(side, &prior, state, &other.items)
    }

    /// The posterior, freeing everything else.
    pub fn into_posterior(self) -> PosteriorAccumulator {
        self.posterior
    }
}
