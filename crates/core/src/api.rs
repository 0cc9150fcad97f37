//! The unified recommender API: one builder, one trainer trait, one report.
//!
//! The paper's argument is a three-way trade-off between BPMF, ALS and SGD
//! (its references \[2\] and \[3\]); serving that comparison used to take
//! three bespoke entry points with three config structs and three report
//! shapes. This module is the single facade over all of them:
//!
//! * [`Bpmf::builder`] — one fluent, validated configuration covering the
//!   statistical, engineering, and baseline knobs, returning typed
//!   [`BpmfError`]s instead of panicking;
//! * [`Trainer`] — `fit(data, runner, callbacks) -> FitReport`, implemented
//!   by the Gibbs sampler here and by the ALS/SGD adapters in
//!   `bpmf-baselines` (see its `make_trainer` dispatcher);
//! * [`Recommender`] — `predict`/`predict_batch`/`rmse`, plus
//!   `predict_with_uncertainty` where a posterior exists;
//! * [`IterCallback`] — an observer receiving per-iteration
//!   [`IterStats`] as they happen, able to stream progress, write periodic
//!   checkpoints (via [`FitSnapshot`]), or stop training early.
//!
//! ```
//! use bpmf::{Bpmf, EngineKind, TrainData, Trainer, NoCallback};
//! use bpmf_sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(4, 3);
//! for (u, m, r) in [(0, 0, 5.0), (0, 1, 3.0), (1, 0, 4.0), (2, 2, 1.0), (3, 1, 2.0)] {
//!     coo.push(u, m, r);
//! }
//! let r = Csr::from_coo_owned(coo);
//! let rt = r.transpose();
//! let test = vec![(1u32, 1u32, 3.0)];
//! let data = TrainData::try_new(&r, &rt, 3.0, &test).unwrap();
//!
//! let spec = Bpmf::builder()
//!     .latent(4)
//!     .burnin(5)
//!     .samples(10)
//!     .engine(EngineKind::WorkStealing)
//!     .threads(1)
//!     .rating_bounds(1.0, 5.0)
//!     .build()
//!     .unwrap();
//! let runner = spec.runner();
//! let mut trainer = spec.gibbs_trainer();
//! let report = trainer.fit(&data, runner.as_ref(), &mut NoCallback).unwrap();
//! assert!(report.final_rmse().is_finite());
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use arc_swap::ArcSwap;
use bpmf_linalg::{vecops, Cholesky, Mat};
use bpmf_sched::ItemRunner;

use crate::checkpoint::SamplerCheckpoint;
use crate::config::BpmfConfig;
use crate::engine::EngineKind;
use crate::error::BpmfError;
use crate::posterior::{PosteriorAccumulator, PredictionSummary};
use crate::report::{FitReport, IterStats};
use crate::sampler::{GibbsSampler, TrainData};
use crate::sideinfo::FeatureSideInfo;

// ---------------------------------------------------------------------------
// Algorithm selection
// ---------------------------------------------------------------------------

/// The three factorization algorithms of the paper's introduction, plus
/// the paper's own contribution — the distributed Gibbs sampler of §IV —
/// behind the same dispatch point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Bayesian PMF via Gibbs sampling (the paper's subject).
    #[default]
    Gibbs,
    /// Alternating least squares with weighted-λ regularization (ref \[2\]).
    Als,
    /// Biased stochastic gradient descent (ref \[3\]).
    Sgd,
    /// Stochastic-gradient MCMC (SGLD after Ahn et al.): posterior
    /// sampling from mini-batch rating draws, built for rating stores too
    /// large to sweep in full — the out-of-core companion of the Gibbs
    /// chain ([`crate::SgldSampler`]).
    Sgmcmc,
    /// Distributed BPMF over the message-passing runtime (§IV): the spec's
    /// `threads` become ranks of a simulated universe, each running
    /// [`crate::distributed::run_rank`].
    Distributed,
}

impl Algorithm {
    /// All algorithms, in the order the paper introduces them (the
    /// baselines of §I, shared-memory BPMF, then §IV's distributed BPMF),
    /// plus the mini-batch SG-MCMC sampler.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::Als,
            Algorithm::Sgd,
            Algorithm::Gibbs,
            Algorithm::Sgmcmc,
            Algorithm::Distributed,
        ]
    }

    /// Human-readable name used in tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Gibbs => "BPMF (Gibbs)",
            Algorithm::Als => "ALS-WR",
            Algorithm::Sgd => "SGD",
            Algorithm::Sgmcmc => "BPMF (SG-MCMC)",
            Algorithm::Distributed => "BPMF (distributed)",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Gibbs => "gibbs",
            Algorithm::Als => "als",
            Algorithm::Sgd => "sgd",
            Algorithm::Sgmcmc => "sgmcmc",
            Algorithm::Distributed => "distributed",
        })
    }
}

impl FromStr for Algorithm {
    type Err = BpmfError;

    fn from_str(s: &str) -> Result<Self, BpmfError> {
        match s.to_ascii_lowercase().as_str() {
            "gibbs" | "bpmf" => Ok(Algorithm::Gibbs),
            "als" | "als-wr" => Ok(Algorithm::Als),
            "sgd" => Ok(Algorithm::Sgd),
            "sgmcmc" | "sgld" | "sg-mcmc" => Ok(Algorithm::Sgmcmc),
            "distributed" | "dist" | "mpi" => Ok(Algorithm::Distributed),
            other => Err(BpmfError::UnknownAlgorithm(other.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Observer hooks
// ---------------------------------------------------------------------------

/// Early-stop signal returned by [`IterCallback::on_iteration`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitControl {
    /// Keep training.
    Continue,
    /// Stop after the current iteration; the report marks `early_stopped`.
    Stop,
}

/// Read-only view of the trainer's state offered to callbacks.
///
/// The Gibbs trainer exposes a full [`SamplerCheckpoint`] so a callback can
/// implement periodic checkpointing; the point-estimate baselines have no
/// resumable chain state and return `None`.
pub trait FitSnapshot {
    /// Capture the complete sampler state, if this trainer has one.
    fn sampler_checkpoint(&self) -> Option<SamplerCheckpoint> {
        None
    }
}

/// A [`FitSnapshot`] with nothing to snapshot (used by ALS/SGD).
pub struct NoSnapshot;

impl FitSnapshot for NoSnapshot {}

struct GibbsSnapshot<'s, 'a> {
    sampler: &'s GibbsSampler<'a>,
}

impl FitSnapshot for GibbsSnapshot<'_, '_> {
    fn sampler_checkpoint(&self) -> Option<SamplerCheckpoint> {
        Some(self.sampler.checkpoint())
    }
}

/// Observer invoked after every training iteration (Gibbs step, ALS sweep,
/// or SGD epoch) with that iteration's [`IterStats`].
pub trait IterCallback {
    /// React to one finished iteration. Return [`FitControl::Stop`] to end
    /// training early.
    fn on_iteration(&mut self, stats: &IterStats, snapshot: &dyn FitSnapshot) -> FitControl;
}

/// The do-nothing callback for plain `fit` calls.
pub struct NoCallback;

impl IterCallback for NoCallback {
    fn on_iteration(&mut self, _stats: &IterStats, _snapshot: &dyn FitSnapshot) -> FitControl {
        FitControl::Continue
    }
}

/// Closures observing stats (and optionally stopping) are callbacks.
impl<F: FnMut(&IterStats) -> FitControl> IterCallback for F {
    fn on_iteration(&mut self, stats: &IterStats, _snapshot: &dyn FitSnapshot) -> FitControl {
        self(stats)
    }
}

// ---------------------------------------------------------------------------
// The unified traits
// ---------------------------------------------------------------------------

/// A training algorithm that fits a recommender to rating data.
///
/// Implemented by [`GibbsTrainer`] here and by the ALS/SGD adapters in
/// `bpmf-baselines`; `Box<dyn Trainer>` is the dispatch point the CLI and
/// the examples share.
pub trait Trainer {
    /// Which algorithm this trainer runs.
    fn algorithm(&self) -> Algorithm;

    /// Train on `data`, sweeping items over `runner`, reporting every
    /// iteration to `callback`.
    fn fit(
        &mut self,
        data: &TrainData<'_>,
        runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError>;

    /// The fitted model, once [`Trainer::fit`] has succeeded.
    fn recommender(&self) -> Option<&dyn Recommender>;

    /// The fitted model as an **owned**, thread-shareable `Arc` — the
    /// building block of [`Trainer::model_handle`]. Ownership (rather
    /// than a borrow tied to the trainer's lifetime) is what lets the
    /// serving tier swap a fresher model in while the old one is still
    /// scoring in-flight requests. Every built-in trainer overrides
    /// this; the default conservatively says "not shareable".
    fn shared_model(&self) -> Option<Arc<dyn Recommender + Send + Sync>> {
        None
    }

    /// The fitted model wrapped in an epoch-stamped, swappable
    /// [`ModelHandle`] — the handle the daemon serves from and the
    /// `reload` wire command swaps. `epoch` stamps the initial model
    /// version (conventionally the chain iteration the factors came
    /// from).
    fn model_handle(&self, epoch: u64) -> Option<ModelHandle> {
        self.shared_model()
            .map(|model| ModelHandle::new(model, epoch))
    }
}

// ---------------------------------------------------------------------------
// The live model handle (RCU-style swap)
// ---------------------------------------------------------------------------

/// One immutable, epoch-stamped model version inside a [`ModelHandle`].
struct ModelVersion {
    model: Arc<dyn Recommender + Send + Sync>,
    epoch: u64,
}

/// An owned, epoch-stamped, swappable handle to a served model.
///
/// The handle is an RCU-style publication cell (an [`arc_swap::ArcSwap`]
/// over an `Arc`'d model + epoch pair): readers [`ModelHandle::load`] a
/// [`ModelGuard`] pinning the current version and score against it for as
/// long as they like, while a writer [`ModelHandle::swap`]s a fresher
/// model in without blocking them — in-flight requests finish on the
/// version they loaded, new loads see the new one. Because the guard owns
/// the model (no lifetime tie to a trainer), the `OnceLock`'d packed
/// factor caches live *inside* the swapped model and can never go stale.
///
/// Clones share the same cell: a swap through any clone is visible to all
/// of them — the daemon's accept loop and its workers each hold a clone.
#[derive(Clone)]
pub struct ModelHandle {
    inner: Arc<ArcSwap<ModelVersion>>,
}

impl ModelHandle {
    /// Wrap an owned model as the handle's first version, stamped `epoch`.
    pub fn new(model: Arc<dyn Recommender + Send + Sync>, epoch: u64) -> Self {
        ModelHandle {
            inner: Arc::new(ArcSwap::from_pointee(ModelVersion { model, epoch })),
        }
    }

    /// Pin the current model version. The guard stays valid (and keeps
    /// serving the *old* model) across concurrent swaps.
    pub fn load(&self) -> ModelGuard {
        ModelGuard {
            version: self.inner.load_full(),
        }
    }

    /// Publish a new model version stamped `epoch`, returning the epoch it
    /// replaced. Readers holding a [`ModelGuard`] are unaffected; the old
    /// model is dropped when the last guard releases it.
    pub fn swap(&self, model: Arc<dyn Recommender + Send + Sync>, epoch: u64) -> u64 {
        self.inner
            .swap(Arc::new(ModelVersion { model, epoch }))
            .epoch
    }

    /// Epoch of the currently published version.
    pub fn epoch(&self) -> u64 {
        self.inner.load().epoch
    }

    /// Is `guard` still the published version? Workers use this per
    /// micro-batch to decide whether to rebuild their scoring service
    /// against a freshly swapped model.
    pub fn is_current(&self, guard: &ModelGuard) -> bool {
        Arc::ptr_eq(&*self.inner.load(), &guard.version)
    }
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelHandle")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// A pinned model version loaded from a [`ModelHandle`]: owns the model,
/// so it outlives any concurrent swap.
#[derive(Clone)]
pub struct ModelGuard {
    version: Arc<ModelVersion>,
}

impl ModelGuard {
    /// The pinned model.
    pub fn model(&self) -> &(dyn Recommender + Sync) {
        &*self.version.model
    }

    /// The pinned model as an owned `Arc` (e.g. to re-wrap it in a shard
    /// view).
    pub fn shared(&self) -> Arc<dyn Recommender + Send + Sync> {
        Arc::clone(&self.version.model)
    }

    /// Epoch this version was published under.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }
}

impl fmt::Debug for ModelGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelGuard")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// A fitted model that scores user–item pairs.
pub trait Recommender {
    /// Predicted rating for `(user, movie)`, clamped to the configured
    /// rating bounds when present.
    fn predict(&self, user: usize, movie: usize) -> f64;

    /// Predict a batch of pairs.
    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f64> {
        pairs
            .iter()
            .map(|&(u, m)| self.predict(u as usize, m as usize))
            .collect()
    }

    /// RMSE over held-out `(user, movie, rating)` triples.
    fn rmse(&self, test: &[(u32, u32, f64)]) -> f64 {
        if test.is_empty() {
            return f64::NAN;
        }
        let se: f64 = test
            .iter()
            .map(|&(u, m, r)| {
                let e = self.predict(u as usize, m as usize) - r;
                e * e
            })
            .sum();
        (se / test.len() as f64).sqrt()
    }

    /// Prediction with posterior uncertainty, where the model carries a
    /// posterior (the Gibbs model does; point estimators return `None`).
    fn predict_with_uncertainty(&self, _user: usize, _movie: usize) -> Option<PredictionSummary> {
        None
    }

    /// Number of items this model can score, when it knows its catalogue
    /// (serving layers size their score buffers from this).
    fn num_items(&self) -> Option<usize> {
        self.factors().map(|(_, v)| v.rows())
    }

    /// Score `user` against the whole catalogue: `scores[m] = predict(user,
    /// m)` for every `m` in `0..scores.len()`, written into the caller's
    /// buffer.
    ///
    /// The default loops over [`Recommender::predict`]; factor models
    /// override it with one blocked matrix–vector product
    /// ([`bpmf_linalg::Mat::matvec_into`]) — the fast path behind
    /// [`crate::serve::RecommendService`] and the offline ranking
    /// evaluation.
    fn score_all(&self, user: usize, scores: &mut [f64]) {
        for (m, s) in scores.iter_mut().enumerate() {
            *s = self.predict(user, m);
        }
    }

    /// Score `user` against an arbitrary candidate set: `out[i] =
    /// predict(user, items[i])`, written into the caller's buffer.
    ///
    /// The default loops over [`Recommender::predict`]; factor models
    /// override it with the gathered four-row kernel
    /// ([`bpmf_linalg::Mat::gather_matvec_into`]).
    fn score_batch(&self, user: usize, items: &[u32], out: &mut [f64]) {
        assert_eq!(items.len(), out.len(), "score_batch buffer mismatch");
        for (&m, s) in items.iter().zip(out.iter_mut()) {
            *s = self.predict(user, m as usize);
        }
    }

    /// Score a **block** of users against the whole catalogue: row `i` of
    /// `out` — `out[i·N .. (i+1)·N]`, `N` the catalogue size — receives
    /// what [`Recommender::score_all`] would write for `users[i]`.
    ///
    /// The default loops `score_all` per user. Factor models override it
    /// with one register-tiled GEMM ([`bpmf_linalg::gemm_into`]) against
    /// their cached transposed item factors, so a block of users pays a
    /// single streaming pass over the catalogue instead of `users.len()`
    /// per-user scans — the multi-user micro-batch serving path behind
    /// [`crate::serve::RecommendService::recommend_batch`].
    fn score_block(&self, users: &[u32], out: &mut [f64]) {
        if users.is_empty() {
            assert!(out.is_empty(), "score_block buffer mismatch");
            return;
        }
        assert_eq!(out.len() % users.len(), 0, "score_block buffer mismatch");
        let n = out.len() / users.len();
        if let Some(items) = self.num_items() {
            assert_eq!(n, items, "score_block buffer mismatch");
        }
        if n == 0 {
            return;
        }
        for (&u, row) in users.iter().zip(out.chunks_exact_mut(n)) {
            self.score_all(u as usize, row);
        }
    }

    /// Score a block of users against the contiguous item range
    /// `[lo, hi)`: row `i` of `out` (width `hi − lo`) receives what
    /// [`Recommender::score_block`] would write for `users[i]` at columns
    /// `lo..hi` — the sharded-serving path, where one process packs and
    /// scores only its slice of the catalogue
    /// ([`crate::serve::shard`]).
    ///
    /// The default loops over [`Recommender::predict`]. Factor models
    /// override it with a range-packed GEMM
    /// ([`bpmf_linalg::PackedB::pack_transposed_range_from`]) whose
    /// per-item arithmetic is **bit-identical** to the full-catalogue
    /// `score_block` whenever `lo` sits on a `GEMM_NC` block boundary —
    /// the invariant the sharded router's byte-identity gate rests on.
    fn score_block_range(&self, users: &[u32], lo: usize, hi: usize, out: &mut [f64]) {
        assert!(lo <= hi, "bad item range [{lo}, {hi})");
        let w = hi - lo;
        assert_eq!(
            out.len(),
            users.len() * w,
            "score_block_range buffer mismatch"
        );
        if w == 0 {
            return;
        }
        for (&u, row) in users.iter().zip(out.chunks_exact_mut(w)) {
            for (j, s) in row.iter_mut().enumerate() {
                *s = self.predict(u as usize, lo + j);
            }
        }
    }

    /// Posterior predictive standard deviations for `user` against the
    /// whole catalogue, written into `stds` (len = item count). Returns
    /// `false` — leaving the buffer unspecified — when the model carries
    /// no posterior.
    ///
    /// The batch companion of [`Recommender::predict_with_uncertainty`]
    /// for uncertainty-aware ranking (UCB/Thompson): the default loops
    /// per pair and recomputes each mean only to discard it; the Gibbs
    /// posterior overrides it with one std-only scan.
    fn uncertainty_all(&self, user: usize, stds: &mut [f64]) -> bool {
        for (m, s) in stds.iter_mut().enumerate() {
            match self.predict_with_uncertainty(user, m) {
                Some(p) => *s = p.std,
                None => return false,
            }
        }
        true
    }

    /// [`Recommender::uncertainty_all`] restricted to the item range
    /// `[lo, hi)` (`stds.len() == hi − lo`) — the sharded-serving
    /// companion of [`Recommender::score_block_range`]. Same contract:
    /// returns `false`, leaving the buffer unspecified, when the model
    /// carries no posterior.
    fn uncertainty_range(&self, user: usize, lo: usize, hi: usize, stds: &mut [f64]) -> bool {
        assert!(lo <= hi, "bad item range [{lo}, {hi})");
        assert_eq!(stds.len(), hi - lo, "uncertainty_range buffer mismatch");
        for (j, s) in stds.iter_mut().enumerate() {
            match self.predict_with_uncertainty(user, lo + j) {
                Some(p) => *s = p.std,
                None => return false,
            }
        }
        true
    }

    /// The underlying `(user, movie)` factor matrices, for models that
    /// expose them (posterior means for Gibbs, point estimates for
    /// ALS/SGD). Powers factor export regardless of algorithm.
    fn factors(&self) -> Option<(&Mat, &Mat)> {
        None
    }

    /// Fold a **brand-new** user into the model from their ratings alone —
    /// no retrain, no factor-matrix growth. `items` are global item ids,
    /// `ratings` the raw observed values.
    ///
    /// Models carrying a user-side Normal–Wishart prior (the Gibbs
    /// posterior) answer with the conditional posterior-mean factors given
    /// the fixed item factors — exactly one [`crate::update::fold_in_mean`]
    /// kernel call, `O(d·K² + K³)` — plus the folded user's scores over
    /// this model's served catalogue. Point estimators and models without
    /// hyper state return [`FoldInError::Unsupported`].
    fn fold_in_user(&self, items: &[u32], ratings: &[f64]) -> Result<FoldIn, FoldInError> {
        let _ = (items, ratings);
        Err(FoldInError::Unsupported)
    }
}

/// A cold-start user folded into a model by [`Recommender::fold_in_user`].
#[derive(Clone, Debug)]
pub struct FoldIn {
    /// The folded user's posterior-mean factors (length K). Deterministic:
    /// a pure function of the model and the ratings.
    pub factors: Vec<f64>,
    /// The folded user's predictions over this model's served catalogue
    /// (global mean added, rating bounds applied); shard views return
    /// their range's slice.
    pub scores: Vec<f64>,
}

/// Why [`Recommender::fold_in_user`] could not answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldInError {
    /// The model carries no user-side prior (point estimators, factor
    /// dumps without hyper state).
    Unsupported,
    /// `items` and `ratings` lengths disagree.
    LengthMismatch {
        /// Rated item count.
        items: usize,
        /// Rating count.
        ratings: usize,
    },
    /// A rated item id falls outside the model's catalogue.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The catalogue size it must stay below.
        catalogue: usize,
    },
    /// The stored prior precision is not positive definite (corrupt or
    /// hand-built hyper state).
    DegeneratePrior,
}

impl fmt::Display for FoldInError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldInError::Unsupported => {
                write!(f, "model carries no user-side prior to fold against")
            }
            FoldInError::LengthMismatch { items, ratings } => {
                write!(f, "{items} rated items but {ratings} ratings")
            }
            FoldInError::ItemOutOfRange { item, catalogue } => {
                write!(f, "rated item {item} outside catalogue of {catalogue}")
            }
            FoldInError::DegeneratePrior => {
                write!(f, "user-side prior precision is not positive definite")
            }
        }
    }
}

impl std::error::Error for FoldInError {}

// ---------------------------------------------------------------------------
// The posterior-mean model produced by the sampling trainers
// ---------------------------------------------------------------------------

/// The owned model a [`GibbsTrainer`] leaves behind (as do the distributed
/// and SGLD trainers): posterior-mean factors plus element-wise second
/// moments for uncertainty on *arbitrary* pairs (the per-test-point
/// Monte-Carlo summaries remain available on the sampler itself).
#[derive(Clone)]
pub struct PosteriorModel {
    user_means: Mat,
    movie_means: Mat,
    /// Element-wise `E[u²]`/`E[v²]` across post-burn-in samples, when at
    /// least two samples were accumulated.
    user_second: Option<Mat>,
    movie_second: Option<Mat>,
    global_mean: f64,
    rating_bounds: Option<(f64, f64)>,
    samples: usize,
    /// Movie factors in transposed (`K × N`) layout, built on the first
    /// whole-catalogue scan: the lane-parallel layout `score_all` needs to
    /// vectorize without a floating-point reduction. (`OnceLock` clones
    /// carry the cached value along.)
    movie_means_t: std::sync::OnceLock<Mat>,
    /// Transposed movie factors in the GEMM's cache-blocked packed layout,
    /// built on the first micro-batch scan (`score_block`).
    movie_means_packed: std::sync::OnceLock<bpmf_linalg::PackedB>,
    /// One range-packed slice of the movie factors, built on the first
    /// `score_block_range` call and keyed by its `(lo, hi)` — a shard
    /// process only ever serves one range, so one slot is a full cache
    /// (other ranges fall back to packing per call).
    movie_means_range_packed: std::sync::OnceLock<(usize, usize, bpmf_linalg::PackedB)>,
    /// User-side Normal–Wishart state `(μ_U, Λ_U, α)` captured from the
    /// chain, enabling cold-start fold-in. Absent on models built from
    /// bare factor dumps.
    fold_in: Option<UserPrior>,
}

/// The user-side hyper state a fold-in conditions on.
#[derive(Clone)]
struct UserPrior {
    mu: Vec<f64>,
    lambda: Mat,
    alpha: f64,
}

impl PosteriorModel {
    /// Extract the posterior model from a sampler. Falls back to the
    /// current factor sample when no post-burn-in draws were accumulated.
    /// The sampler's user-side hyper state rides along, so the model can
    /// fold in cold-start users ([`Recommender::fold_in_user`]).
    ///
    /// Copies the sampler's posterior sums so it can keep sampling; a
    /// finished chain moves them instead with [`GibbsSampler::into_model`].
    pub fn from_sampler(s: &GibbsSampler<'_>) -> Self {
        let (mu, lambda) = s.user_hyper();
        Self::from_chain(
            s.posterior().clone(),
            || (s.user_factors().clone(), s.movie_factors().clone()),
            (mu.to_vec(), lambda.clone()),
            s.cfg(),
            s.global_mean(),
        )
    }

    /// The one body behind [`PosteriorModel::from_sampler`] and
    /// [`GibbsSampler::into_model`]: a Gibbs chain's posterior, with
    /// `draw()` as the no-sample fallback and the user-side prior
    /// `(μ_U, Λ_U)` attached for fold-in.
    pub(crate) fn from_chain(
        posterior: PosteriorAccumulator,
        draw: impl FnOnce() -> (Mat, Mat),
        (mu, lambda): (Vec<f64>, Mat),
        cfg: &BpmfConfig,
        global_mean: f64,
    ) -> Self {
        Self::from_posterior(posterior, draw, global_mean, cfg.rating_bounds)
            .with_user_prior(mu, lambda, cfg.alpha)
    }

    /// Assemble a posterior model from already-averaged factors — the path
    /// the distributed trainer takes after gathering per-rank posterior
    /// means, also handy for serving factors loaded from disk.
    ///
    /// `samples` is the number of post-burn-in draws the means average
    /// over; second moments are only honored when `samples >= 2` (below
    /// that a spread estimate would be meaningless).
    pub fn from_factors(
        user_means: Mat,
        movie_means: Mat,
        second_moments: Option<(Mat, Mat)>,
        global_mean: f64,
        rating_bounds: Option<(f64, f64)>,
        samples: usize,
    ) -> Self {
        let (user_second, movie_second) = match second_moments {
            Some((u2, v2)) if samples >= 2 => (Some(u2), Some(v2)),
            _ => (None, None),
        };
        PosteriorModel {
            user_means,
            movie_means,
            user_second,
            movie_second,
            global_mean,
            rating_bounds,
            samples,
            movie_means_t: std::sync::OnceLock::new(),
            movie_means_packed: std::sync::OnceLock::new(),
            movie_means_range_packed: std::sync::OnceLock::new(),
            fold_in: None,
        }
    }

    /// Attach a user-side Normal–Wishart prior `(μ_U, Λ_U)` with
    /// observation precision `α`, enabling [`Recommender::fold_in_user`]
    /// on a model assembled via [`PosteriorModel::from_factors`].
    ///
    /// # Panics
    /// If `lambda` is not `K × K` or `mu` is not length `K`.
    pub fn with_user_prior(mut self, mu: Vec<f64>, lambda: Mat, alpha: f64) -> Self {
        let k = self.user_means.cols();
        assert_eq!(mu.len(), k, "fold-in prior mean length mismatch");
        assert_eq!(
            (lambda.rows(), lambda.cols()),
            (k, k),
            "fold-in prior precision shape mismatch"
        );
        self.fold_in = Some(UserPrior { mu, lambda, alpha });
        self
    }

    /// Rebuild a servable model straight from a [`SamplerCheckpoint`] —
    /// the zero-downtime `reload` path, where a daemon swaps in a fresher
    /// chain state without retraining.
    ///
    /// Replays exactly the arithmetic [`PosteriorModel::from_sampler`]
    /// performs on the live sampler (accumulator ÷ count, in the same
    /// order), so a model rebuilt from a checkpoint scores **bit-identically**
    /// to the trainer's model at the moment that checkpoint was written.
    /// `global_mean`, `rating_bounds`, and `alpha` are not chain state and
    /// must be supplied by the caller (the daemon captures them at
    /// startup).
    pub fn from_checkpoint(
        ckpt: &SamplerCheckpoint,
        global_mean: f64,
        rating_bounds: Option<(f64, f64)>,
        alpha: f64,
    ) -> Result<Self, BpmfError> {
        let k = ckpt.num_latent;
        for (what, m) in [
            ("user factors", &ckpt.users),
            ("movie factors", &ckpt.movies),
        ] {
            if m.cols != k || m.data.len() != m.rows * m.cols {
                return Err(BpmfError::CheckpointMismatch(format!(
                    "{what} are {}x{} with {} values; expected K={k}",
                    m.rows,
                    m.cols,
                    m.data.len()
                )));
            }
        }
        if ckpt.users_mu.len() != k || (ckpt.users_lambda.rows, ckpt.users_lambda.cols) != (k, k) {
            return Err(BpmfError::CheckpointMismatch(format!(
                "user hyper state is μ:{} Λ:{}x{}; expected K={k}",
                ckpt.users_mu.len(),
                ckpt.users_lambda.rows,
                ckpt.users_lambda.cols
            )));
        }
        // The sampler's own accumulator does the averaging, so the arithmetic
        // cannot drift from `from_sampler`.
        let posterior =
            PosteriorAccumulator::new(0, 0, global_mean, rating_bounds).resumed_from(ckpt);
        let draw = || (ckpt.users.to_mat(), ckpt.movies.to_mat());
        let model = Self::from_posterior(posterior, draw, global_mean, rating_bounds);
        if model.user_means.rows() != ckpt.users.rows
            || model.movie_means.rows() != ckpt.movies.rows
        {
            return Err(BpmfError::CheckpointMismatch(
                "factor accumulator shape disagrees with the factor sample".to_string(),
            ));
        }
        Ok(model.with_user_prior(ckpt.users_mu.clone(), ckpt.users_lambda.to_mat(), alpha))
    }

    /// The model a chain's posterior sums describe: posterior-mean factors
    /// and second moments, or `draw()` (the current sample) with a sample
    /// count of 0 when no post-burn-in draw was accumulated.
    pub(crate) fn from_posterior(
        posterior: PosteriorAccumulator,
        draw: impl FnOnce() -> (Mat, Mat),
        global_mean: f64,
        rating_bounds: Option<(f64, f64)>,
    ) -> Self {
        let count = posterior.count();
        let (means, second_moments) = posterior.into_moments();
        let ((user_means, movie_means), samples) = match means {
            Some(means) => (means, count),
            None => (draw(), 0),
        };
        PosteriorModel::from_factors(
            user_means,
            movie_means,
            second_moments,
            global_mean,
            rating_bounds,
            samples,
        )
    }

    /// Posterior-mean user factors (`M × K`).
    pub fn user_means(&self) -> &Mat {
        &self.user_means
    }

    /// Posterior-mean movie factors (`N × K`).
    pub fn movie_means(&self) -> &Mat {
        &self.movie_means
    }

    /// Post-burn-in samples the means average over (0 = current sample
    /// fallback).
    pub fn samples(&self) -> usize {
        self.samples
    }

    fn clamp(&self, p: f64) -> f64 {
        match self.rating_bounds {
            Some((lo, hi)) => p.clamp(lo, hi),
            None => p,
        }
    }

    /// Turn raw `u · v` dot products into served predictions in place:
    /// add the global mean, clamp to the rating bounds — the batch
    /// counterpart of what [`PosteriorModel::predict`] does per pair.
    fn finish_scores(&self, out: &mut [f64]) {
        match self.rating_bounds {
            Some((lo, hi)) => {
                for s in out.iter_mut() {
                    *s = (self.global_mean + *s).clamp(lo, hi);
                }
            }
            None => {
                for s in out.iter_mut() {
                    *s += self.global_mean;
                }
            }
        }
    }
}

impl Recommender for PosteriorModel {
    fn predict(&self, user: usize, movie: usize) -> f64 {
        self.clamp(
            self.global_mean + vecops::dot(self.user_means.row(user), self.movie_means.row(movie)),
        )
    }

    /// Mean from the posterior-mean factors; spread from the element-wise
    /// factor moments under a coordinate-independence approximation:
    /// `Var(u·v) ≈ Σ_k (E[u_k²]E[v_k²] − E[u_k]²E[v_k]²)`. Exact per-point
    /// Monte-Carlo summaries for the *test* points live on the sampler;
    /// this extends calibrated-order-of-magnitude uncertainty to any pair.
    fn predict_with_uncertainty(&self, user: usize, movie: usize) -> Option<PredictionSummary> {
        let (u2, v2) = (self.user_second.as_ref()?, self.movie_second.as_ref()?);
        let (u, v) = (self.user_means.row(user), self.movie_means.row(movie));
        let mut var = 0.0;
        for k in 0..u.len() {
            var += u2.row(user)[k] * v2.row(movie)[k] - (u[k] * v[k]) * (u[k] * v[k]);
        }
        Some(PredictionSummary {
            mean: self.predict(user, movie),
            std: var.max(0.0).sqrt(),
        })
    }

    /// Std-only catalogue scan: the same per-coordinate arithmetic (and
    /// order) as [`PosteriorModel::predict_with_uncertainty`], minus the
    /// per-item mean recomputation that scan would throw away.
    fn uncertainty_all(&self, user: usize, stds: &mut [f64]) -> bool {
        let (Some(u2m), Some(v2m)) = (self.user_second.as_ref(), self.movie_second.as_ref()) else {
            return false;
        };
        assert_eq!(stds.len(), self.movie_means.rows(), "std buffer size");
        let u = self.user_means.row(user);
        let u2 = u2m.row(user);
        for (movie, s) in stds.iter_mut().enumerate() {
            let v = self.movie_means.row(movie);
            let v2 = v2m.row(movie);
            let mut var = 0.0;
            for k in 0..u.len() {
                var += u2[k] * v2[k] - (u[k] * v[k]) * (u[k] * v[k]);
            }
            *s = var.max(0.0).sqrt();
        }
        true
    }

    /// `None` when no post-burn-in samples were accumulated: the fallback
    /// factors are a single raw MCMC draw, which would masquerade as
    /// posterior means if exported.
    fn factors(&self) -> Option<(&Mat, &Mat)> {
        if self.samples == 0 {
            return None;
        }
        Some((&self.user_means, &self.movie_means))
    }

    /// Always known — even the `samples == 0` fallback factors can score
    /// the catalogue (they just aren't exportable as posterior means).
    fn num_items(&self) -> Option<usize> {
        Some(self.movie_means.rows())
    }

    /// One lane-parallel scan through the transposed movie factors
    /// (`K × N`, built once on first use) instead of a `predict` call per
    /// item — the layout lets the compiler vectorize the scan, where the
    /// row-major dot products are reduction-bound.
    fn score_all(&self, user: usize, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.movie_means.rows(), "score buffer size");
        let vt = self
            .movie_means_t
            .get_or_init(|| self.movie_means.transposed());
        vt.matvec_t_into(self.user_means.row(user), scores);
        self.finish_scores(scores);
    }

    /// Gathered four-row dot kernel over the candidate set.
    fn score_batch(&self, user: usize, items: &[u32], out: &mut [f64]) {
        self.movie_means
            .gather_matvec_into(items, self.user_means.row(user), out);
        self.finish_scores(out);
    }

    /// One register-tiled GEMM for the whole block: the gathered user rows
    /// (`B × K`) times the transposed movie factors, cached in the GEMM's
    /// packed layout ([`bpmf_linalg::PackedB`], built once), streamed over
    /// the catalogue once for all `B` users
    /// ([`bpmf_linalg::gemm_packed_into`] — AVX2+FMA when available,
    /// column panels fanned out over the kernel pool). The per-pair
    /// epilogue (global mean, rating clamp) is applied to the whole block.
    fn score_block(&self, users: &[u32], out: &mut [f64]) {
        let n = self.movie_means.rows();
        assert_eq!(out.len(), users.len() * n, "score_block buffer mismatch");
        let packed = self
            .movie_means_packed
            .get_or_init(|| bpmf_linalg::PackedB::pack_transposed_from(&self.movie_means));
        bpmf_linalg::gemm_gathered_rows_packed(&self.user_means, users, packed, out);
        self.finish_scores(out);
    }

    /// The sharded-serving scan: the same register-tiled GEMM as
    /// [`PosteriorModel::score_block`], against a *range-packed* slice of
    /// the item factors
    /// ([`bpmf_linalg::PackedB::pack_transposed_range_from`]). With a
    /// `GEMM_NC`-aligned `lo`, the packed slice is byte-identical to the
    /// matching range of the full packed buffer, so every score here is
    /// **bit-identical** to the corresponding column of the
    /// full-catalogue block scan. The first range requested is cached for
    /// the life of the model (a shard process serves exactly one range);
    /// other ranges pack per call.
    fn score_block_range(&self, users: &[u32], lo: usize, hi: usize, out: &mut [f64]) {
        let n = self.movie_means.rows();
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
        let cached = self.movie_means_range_packed.get_or_init(|| {
            let packed =
                bpmf_linalg::PackedB::pack_transposed_range_from(&self.movie_means, lo, hi);
            (lo, hi, packed)
        });
        if (cached.0, cached.1) == (lo, hi) {
            bpmf_linalg::gemm_gathered_rows_packed(&self.user_means, users, &cached.2, out);
        } else {
            let packed =
                bpmf_linalg::PackedB::pack_transposed_range_from(&self.movie_means, lo, hi);
            bpmf_linalg::gemm_gathered_rows_packed(&self.user_means, users, &packed, out);
        }
        self.finish_scores(out);
    }

    /// [`PosteriorModel::uncertainty_all`] restricted to `[lo, hi)`: the
    /// identical per-item arithmetic (and order), so a shard's stds are
    /// bit-identical to the matching slice of the full scan.
    fn uncertainty_range(&self, user: usize, lo: usize, hi: usize, stds: &mut [f64]) -> bool {
        let (Some(u2m), Some(v2m)) = (self.user_second.as_ref(), self.movie_second.as_ref()) else {
            return false;
        };
        assert!(lo <= hi, "bad item range [{lo}, {hi})");
        assert_eq!(stds.len(), hi - lo, "uncertainty_range buffer mismatch");
        let u = self.user_means.row(user);
        let u2 = u2m.row(user);
        for (j, s) in stds.iter_mut().enumerate() {
            let movie = lo + j;
            let v = self.movie_means.row(movie);
            let v2 = v2m.row(movie);
            let mut var = 0.0;
            for k in 0..u.len() {
                var += u2[k] * v2[k] - (u[k] * v[k]) * (u[k] * v[k]);
            }
            *s = var.max(0.0).sqrt();
        }
        true
    }

    /// One [`crate::update::fold_in_mean`] kernel call against the
    /// posterior-mean item factors (noise-free, so bit-deterministic),
    /// then the same transposed-factor scan as
    /// [`PosteriorModel::score_all`] for the catalogue scores.
    fn fold_in_user(&self, items: &[u32], ratings: &[f64]) -> Result<FoldIn, FoldInError> {
        let prior = self.fold_in.as_ref().ok_or(FoldInError::Unsupported)?;
        if items.len() != ratings.len() {
            return Err(FoldInError::LengthMismatch {
                items: items.len(),
                ratings: ratings.len(),
            });
        }
        let n = self.movie_means.rows();
        if let Some(&bad) = items.iter().find(|&&m| m as usize >= n) {
            return Err(FoldInError::ItemOutOfRange {
                item: bad,
                catalogue: n,
            });
        }
        let k = self.movie_means.cols();
        let lambda_mu = prior.lambda.matvec(&prior.mu);
        let chol = Cholesky::factor(&prior.lambda).map_err(|_| FoldInError::DegeneratePrior)?;
        let side = crate::update::SidePrior {
            lambda: &prior.lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: prior.alpha,
            mean_offset: self.global_mean,
        };
        let mut scratch = crate::update::UpdateScratch::new(k);
        let mut factors = vec![0.0; k];
        crate::update::fold_in_mean(
            &side,
            (items, ratings),
            &self.movie_means,
            &mut scratch,
            &mut factors,
        );
        let mut scores = vec![0.0; n];
        let vt = self
            .movie_means_t
            .get_or_init(|| self.movie_means.transposed());
        vt.matvec_t_into(&factors, &mut scores);
        self.finish_scores(&mut scores);
        Ok(FoldIn { factors, scores })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Side-information attachment: per-item features plus the link-matrix
/// ridge λ_β.
#[derive(Clone)]
pub struct SideInfoSpec {
    /// One feature row per user (or movie).
    pub features: Mat,
    /// Link-matrix ridge strength.
    pub lambda_beta: f64,
}

impl fmt::Debug for SideInfoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SideInfoSpec")
            .field(
                "features",
                &format_args!("{}x{}", self.features.rows(), self.features.cols()),
            )
            .field("lambda_beta", &self.lambda_beta)
            .finish()
    }
}

impl fmt::Debug for Bpmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bpmf")
            .field("algorithm", &self.algorithm)
            .field("num_latent", &self.num_latent)
            .field("engine", &self.engine)
            .field("threads", &self.threads)
            .field("burnin", &self.burnin)
            .field("samples", &self.samples)
            .field("seed", &self.seed)
            .field("rating_bounds", &self.rating_bounds)
            .field("user_side_info", &self.user_side_info)
            .field("movie_side_info", &self.movie_side_info)
            .field("resuming", &self.resume.is_some())
            .finish_non_exhaustive()
    }
}

/// A validated training specification — the product of [`Bpmf::builder`].
///
/// Fields are public for inspection; construct through the builder so the
/// invariants hold.
#[derive(Clone)]
pub struct Bpmf {
    /// Selected algorithm.
    pub algorithm: Algorithm,
    /// Latent dimension K.
    pub num_latent: usize,
    /// Observation precision α (Gibbs).
    pub alpha: f64,
    /// Burn-in iterations (Gibbs).
    pub burnin: usize,
    /// Posterior-averaged iterations (Gibbs).
    pub samples: usize,
    /// Parallel-Cholesky kernel threshold (Gibbs).
    pub parallel_threshold: usize,
    /// Rank-one kernel ceiling (Gibbs; `None` = 1, measured crossover).
    pub rank_one_max: Option<usize>,
    /// Threads inside one parallel kernel invocation (Gibbs).
    pub kernel_threads: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Shared-memory runtime for item sweeps.
    pub engine: EngineKind,
    /// Worker threads for the runtime.
    pub threads: usize,
    /// Clamp every prediction into `[min, max]`.
    pub rating_bounds: Option<(f64, f64)>,
    /// Ridge strength λ (ALS and SGD; per-algorithm default when `None`).
    pub lambda: Option<f64>,
    /// Full U+V sweeps (ALS; default when `None`).
    pub sweeps: Option<usize>,
    /// Epochs (SGD; default when `None`).
    pub epochs: Option<usize>,
    /// Initial learning rate η₀ (SGD).
    pub learning_rate: Option<f64>,
    /// Inverse-time learning-rate decay (SGD).
    pub decay: Option<f64>,
    /// Initial SGLD step size ε₀ (SG-MCMC; per-algorithm default when
    /// `None`).
    pub sgld_step_size: Option<f64>,
    /// Inverse-time SGLD step-size decay (SG-MCMC).
    pub sgld_step_decay: Option<f64>,
    /// Ratings per SGLD mini-batch draw (SG-MCMC).
    pub minibatch: Option<usize>,
    /// Fit additive per-user/per-movie biases (SGD).
    pub use_biases: bool,
    /// Scale the ALS ridge by each item's rating count (ALS-WR).
    pub weighted_regularization: bool,
    /// Standard deviation of the factor initialization (ALS and SGD;
    /// per-algorithm default when `None`).
    pub init_sd: Option<f64>,
    /// Macau-style user-side features.
    pub user_side_info: Option<SideInfoSpec>,
    /// Macau-style movie-side features.
    pub movie_side_info: Option<SideInfoSpec>,
    /// Resume the Gibbs chain from this checkpoint.
    pub resume: Option<SamplerCheckpoint>,
}

impl Bpmf {
    /// Start a fluent configuration.
    pub fn builder() -> BpmfBuilder {
        BpmfBuilder::default()
    }

    /// Project the spec onto the Gibbs sampler's config struct.
    pub fn to_gibbs_config(&self) -> BpmfConfig {
        BpmfConfig {
            num_latent: self.num_latent,
            alpha: self.alpha,
            burnin: self.burnin,
            samples: self.samples,
            parallel_threshold: self.parallel_threshold,
            rank_one_max: self.rank_one_max,
            kernel_threads: self.kernel_threads,
            seed: self.seed,
            rating_bounds: self.rating_bounds,
        }
    }

    /// Refuse, for any `algorithm` but Gibbs, the spec features only the
    /// shared-memory Gibbs chain honors: side information and checkpoint
    /// resume.
    pub fn refuse_gibbs_only(&self, algorithm: Algorithm) -> Result<(), BpmfError> {
        let feature = if self.user_side_info.is_some() || self.movie_side_info.is_some() {
            "side information"
        } else if self.resume.is_some() {
            "checkpoint resume"
        } else {
            return Ok(());
        };
        Err(BpmfError::Unsupported { algorithm, feature })
    }

    /// Instantiate the configured runtime.
    pub fn runner(&self) -> Box<dyn ItemRunner> {
        self.engine.build(self.threads)
    }

    /// A Gibbs trainer for this spec. For algorithm-generic dispatch across
    /// Gibbs/ALS/SGD use `bpmf_baselines::make_trainer`, which covers all
    /// three variants behind `Box<dyn Trainer>`.
    pub fn gibbs_trainer(&self) -> GibbsTrainer {
        GibbsTrainer::new(self.clone())
    }
}

/// Fluent builder for [`Bpmf`]. Every setter returns `self`; [`BpmfBuilder::build`]
/// validates and produces the spec.
pub struct BpmfBuilder {
    spec: Bpmf,
}

impl Default for BpmfBuilder {
    fn default() -> Self {
        let cfg = BpmfConfig::default();
        BpmfBuilder {
            spec: Bpmf {
                algorithm: Algorithm::Gibbs,
                num_latent: cfg.num_latent,
                alpha: cfg.alpha,
                burnin: cfg.burnin,
                samples: cfg.samples,
                parallel_threshold: cfg.parallel_threshold,
                rank_one_max: cfg.rank_one_max,
                kernel_threads: cfg.kernel_threads,
                seed: cfg.seed,
                engine: EngineKind::WorkStealing,
                threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
                rating_bounds: None,
                lambda: None,
                sweeps: None,
                epochs: None,
                learning_rate: None,
                decay: None,
                sgld_step_size: None,
                sgld_step_decay: None,
                minibatch: None,
                use_biases: true,
                weighted_regularization: true,
                init_sd: None,
                user_side_info: None,
                movie_side_info: None,
                resume: None,
            },
        }
    }
}

impl BpmfBuilder {
    /// Select the algorithm (default: Gibbs).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.spec.algorithm = a;
        self
    }

    /// Latent dimension K.
    pub fn latent(mut self, k: usize) -> Self {
        self.spec.num_latent = k;
        self
    }

    /// Observation precision α (Gibbs).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.spec.alpha = alpha;
        self
    }

    /// Burn-in iterations (Gibbs).
    pub fn burnin(mut self, n: usize) -> Self {
        self.spec.burnin = n;
        self
    }

    /// Posterior-averaged iterations (Gibbs).
    pub fn samples(mut self, n: usize) -> Self {
        self.spec.samples = n;
        self
    }

    /// Parallel-Cholesky threshold (Gibbs; paper default 1000).
    pub fn parallel_threshold(mut self, n: usize) -> Self {
        self.spec.parallel_threshold = n;
        self
    }

    /// Rank-one kernel ceiling (Gibbs).
    pub fn rank_one_max(mut self, n: usize) -> Self {
        self.spec.rank_one_max = Some(n);
        self
    }

    /// Threads inside one parallel kernel invocation (Gibbs).
    pub fn kernel_threads(mut self, n: usize) -> Self {
        self.spec.kernel_threads = n;
        self
    }

    /// Master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Shared-memory runtime.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.spec.engine = engine;
        self
    }

    /// Worker threads.
    pub fn threads(mut self, n: usize) -> Self {
        self.spec.threads = n;
        self
    }

    /// Clamp predictions to the rating scale `[min, max]` — standard
    /// practice on bounded scales (MovieLens stars, binarized IC50).
    pub fn rating_bounds(mut self, min: f64, max: f64) -> Self {
        self.spec.rating_bounds = Some((min, max));
        self
    }

    /// Ridge strength λ (ALS / SGD).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.spec.lambda = Some(lambda);
        self
    }

    /// Full sweeps (ALS).
    pub fn sweeps(mut self, n: usize) -> Self {
        self.spec.sweeps = Some(n);
        self
    }

    /// Epochs (SGD).
    pub fn epochs(mut self, n: usize) -> Self {
        self.spec.epochs = Some(n);
        self
    }

    /// Initial learning rate (SGD).
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.spec.learning_rate = Some(lr);
        self
    }

    /// Inverse-time learning-rate decay (SGD).
    pub fn decay(mut self, d: f64) -> Self {
        self.spec.decay = Some(d);
        self
    }

    /// Initial SGLD step size ε₀ (SG-MCMC).
    pub fn sgld_step_size(mut self, eps: f64) -> Self {
        self.spec.sgld_step_size = Some(eps);
        self
    }

    /// Inverse-time SGLD step-size decay (SG-MCMC): step `t` uses
    /// ε₀ / (1 + decay · t).
    pub fn sgld_step_decay(mut self, d: f64) -> Self {
        self.spec.sgld_step_decay = Some(d);
        self
    }

    /// Ratings per SGLD mini-batch draw (SG-MCMC).
    pub fn minibatch(mut self, n: usize) -> Self {
        self.spec.minibatch = Some(n);
        self
    }

    /// Fit additive biases (SGD; default true).
    pub fn biases(mut self, on: bool) -> Self {
        self.spec.use_biases = on;
        self
    }

    /// Weighted-λ regularization (ALS-WR; default true).
    pub fn weighted_regularization(mut self, on: bool) -> Self {
        self.spec.weighted_regularization = on;
        self
    }

    /// Factor-initialization standard deviation (ALS / SGD).
    pub fn init_sd(mut self, sd: f64) -> Self {
        self.spec.init_sd = Some(sd);
        self
    }

    /// Attach Macau-style user-side features (Gibbs only).
    pub fn user_side_info(mut self, features: Mat, lambda_beta: f64) -> Self {
        self.spec.user_side_info = Some(SideInfoSpec {
            features,
            lambda_beta,
        });
        self
    }

    /// Attach Macau-style movie-side features (Gibbs only).
    pub fn movie_side_info(mut self, features: Mat, lambda_beta: f64) -> Self {
        self.spec.movie_side_info = Some(SideInfoSpec {
            features,
            lambda_beta,
        });
        self
    }

    /// Resume the Gibbs chain from a checkpoint.
    pub fn resume(mut self, ckpt: SamplerCheckpoint) -> Self {
        self.spec.resume = Some(ckpt);
        self
    }

    /// Validate and produce the spec.
    pub fn build(self) -> Result<Bpmf, BpmfError> {
        let s = &self.spec;
        // Latent dim / alpha / kernel threads / rating bounds share one
        // validator with the legacy config path, so the rules cannot drift.
        s.to_gibbs_config().try_validate()?;
        if s.threads == 0 {
            return Err(BpmfError::InvalidWorkerThreads(s.threads));
        }
        if let Some(l) = s.lambda {
            if l < 0.0 || !l.is_finite() {
                return Err(BpmfError::InvalidLambda(l));
            }
        }
        if let Some(lr) = s.learning_rate {
            if lr <= 0.0 || !lr.is_finite() {
                return Err(BpmfError::InvalidLearningRate(lr));
            }
        }
        if let Some(eps) = s.sgld_step_size {
            if eps <= 0.0 || !eps.is_finite() {
                return Err(BpmfError::InvalidLearningRate(eps));
            }
        }
        if let Some(d) = s.sgld_step_decay {
            if d < 0.0 || !d.is_finite() {
                return Err(BpmfError::InvalidLearningRate(d));
            }
        }
        if s.minibatch == Some(0) {
            return Err(BpmfError::Unsupported {
                algorithm: Algorithm::Sgmcmc,
                feature: "an empty mini-batch",
            });
        }
        for (side, si) in [("user", &s.user_side_info), ("movie", &s.movie_side_info)] {
            if let Some(si) = si {
                if si.lambda_beta <= 0.0 || !si.lambda_beta.is_finite() {
                    return Err(BpmfError::InvalidLambda(si.lambda_beta));
                }
                if si.features.rows() == 0 {
                    return Err(BpmfError::SideInfoShape {
                        side: match side {
                            "user" => "user",
                            _ => "movie",
                        },
                        expected_rows: 1,
                        found_rows: 0,
                    });
                }
            }
        }
        Ok(self.spec)
    }
}

// ---------------------------------------------------------------------------
// The Gibbs trainer
// ---------------------------------------------------------------------------

/// [`Trainer`] adapter over [`GibbsSampler`]: constructs the sampler from
/// the spec at `fit` time (resuming from a checkpoint when configured),
/// attaches side information, streams every iteration to the callback, and
/// leaves a [`PosteriorModel`] behind for serving.
pub struct GibbsTrainer {
    spec: Bpmf,
    model: Option<Arc<PosteriorModel>>,
}

impl GibbsTrainer {
    /// Trainer for a validated spec.
    pub fn new(spec: Bpmf) -> Self {
        GibbsTrainer { spec, model: None }
    }

    /// The fitted posterior model, once `fit` has run.
    pub fn model(&self) -> Option<&PosteriorModel> {
        self.model.as_deref()
    }

    /// The spec this trainer runs.
    pub fn spec(&self) -> &Bpmf {
        &self.spec
    }
}

impl Trainer for GibbsTrainer {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Gibbs
    }

    fn fit(
        &mut self,
        data: &TrainData<'_>,
        runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError> {
        let cfg = self.spec.to_gibbs_config();
        let mut sampler = match &self.spec.resume {
            Some(ckpt) => GibbsSampler::try_resume(cfg.clone(), *data, ckpt)?,
            None => GibbsSampler::try_new(cfg.clone(), *data)?,
        };
        if let Some(si) = &self.spec.user_side_info {
            if si.features.rows() != data.r.nrows() {
                return Err(BpmfError::SideInfoShape {
                    side: "user",
                    expected_rows: data.r.nrows(),
                    found_rows: si.features.rows(),
                });
            }
            sampler.attach_user_side_info(FeatureSideInfo::new(
                si.features.clone(),
                cfg.num_latent,
                si.lambda_beta,
            ))?;
        }
        if let Some(si) = &self.spec.movie_side_info {
            if si.features.rows() != data.r.ncols() {
                return Err(BpmfError::SideInfoShape {
                    side: "movie",
                    expected_rows: data.r.ncols(),
                    found_rows: si.features.rows(),
                });
            }
            sampler.attach_movie_side_info(FeatureSideInfo::new(
                si.features.clone(),
                cfg.num_latent,
                si.lambda_beta,
            ))?;
        }

        let total = cfg.iterations();
        let mut iters = Vec::with_capacity(total.saturating_sub(sampler.iterations_done()));
        let mut early_stopped = false;
        let t0 = Instant::now();
        while sampler.iterations_done() < total {
            let stats = sampler.step(runner);
            let control = callback.on_iteration(&stats, &GibbsSnapshot { sampler: &sampler });
            iters.push(stats);
            if control == FitControl::Stop {
                early_stopped = true;
                break;
            }
        }
        self.model = Some(Arc::new(sampler.into_model()));
        Ok(FitReport {
            algorithm: Algorithm::Gibbs.to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sparse::{Coo, Csr};

    fn tiny() -> (Csr, Csr, Vec<(u32, u32, f64)>) {
        let mut coo = Coo::new(6, 5);
        for i in 0..6 {
            for j in 0..5 {
                if (i + j) % 2 == 0 {
                    coo.push(i, j, 2.0 + ((i * 5 + j) % 3) as f64);
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        let test = vec![(0u32, 1u32, 3.0), (1, 0, 2.0)];
        (r, rt, test)
    }

    #[test]
    fn builder_rejects_each_bad_knob_with_its_variant() {
        assert_eq!(
            Bpmf::builder().latent(0).build().unwrap_err(),
            BpmfError::InvalidLatentDim(0)
        );
        assert_eq!(
            Bpmf::builder().alpha(-1.0).build().unwrap_err(),
            BpmfError::InvalidAlpha(-1.0)
        );
        assert_eq!(
            Bpmf::builder().threads(0).build().unwrap_err(),
            BpmfError::InvalidWorkerThreads(0)
        );
        assert_eq!(
            Bpmf::builder().kernel_threads(0).build().unwrap_err(),
            BpmfError::InvalidThreads(0)
        );
        assert_eq!(
            Bpmf::builder().rating_bounds(5.0, 1.0).build().unwrap_err(),
            BpmfError::InvalidRatingBounds { min: 5.0, max: 1.0 }
        );
        assert_eq!(
            Bpmf::builder().lambda(-0.5).build().unwrap_err(),
            BpmfError::InvalidLambda(-0.5)
        );
        assert_eq!(
            Bpmf::builder().learning_rate(0.0).build().unwrap_err(),
            BpmfError::InvalidLearningRate(0.0)
        );
    }

    #[test]
    fn algorithm_parses_case_insensitively() {
        assert_eq!("GIBBS".parse::<Algorithm>().unwrap(), Algorithm::Gibbs);
        assert_eq!("als".parse::<Algorithm>().unwrap(), Algorithm::Als);
        assert_eq!("Sgd".parse::<Algorithm>().unwrap(), Algorithm::Sgd);
        assert!(matches!(
            "spark".parse::<Algorithm>(),
            Err(BpmfError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn gibbs_trainer_fits_and_serves() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(2)
            .burnin(2)
            .samples(4)
            .threads(1)
            .kernel_threads(1)
            .rating_bounds(1.0, 5.0)
            .build()
            .unwrap();
        let runner = spec.runner();
        let mut trainer = spec.gibbs_trainer();
        assert!(trainer.recommender().is_none(), "no model before fit");
        let report = trainer
            .fit(&data, runner.as_ref(), &mut NoCallback)
            .unwrap();
        assert_eq!(report.iters.len(), 6);
        assert!(!report.early_stopped);
        let rec = trainer.recommender().expect("model after fit");
        let p = rec.predict(0, 1);
        assert!((1.0..=5.0).contains(&p), "clamped prediction: {p}");
        assert_eq!(rec.predict_batch(&[(0, 1)])[0], p);
        assert!(rec.rmse(&test).is_finite());
        let u = rec
            .predict_with_uncertainty(0, 1)
            .expect("posterior model has spread");
        assert!(u.std >= 0.0 && u.mean.is_finite());
    }

    #[test]
    fn callback_early_stop_halts_at_requested_iteration() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(2)
            .burnin(3)
            .samples(20)
            .threads(1)
            .kernel_threads(1)
            .build()
            .unwrap();
        let runner = spec.runner();
        let mut trainer = spec.gibbs_trainer();
        let mut seen = 0usize;
        let mut cb = |stats: &IterStats| {
            seen += 1;
            assert!(stats.rmse_sample.is_finite());
            if stats.iter + 1 >= 5 {
                FitControl::Stop
            } else {
                FitControl::Continue
            }
        };
        let report = trainer.fit(&data, runner.as_ref(), &mut cb).unwrap();
        assert_eq!(seen, 5);
        assert_eq!(report.iters.len(), 5);
        assert!(report.early_stopped);
    }

    #[test]
    fn snapshot_checkpoint_resumes_the_chain() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(2)
            .burnin(2)
            .samples(6)
            .engine(EngineKind::Static)
            .threads(1)
            .kernel_threads(1)
            .build()
            .unwrap();
        let runner = spec.runner();

        // Full run.
        let mut full = spec.gibbs_trainer();
        let full_report = full.fit(&data, runner.as_ref(), &mut NoCallback).unwrap();

        // Interrupted run capturing a checkpoint from inside the callback.
        struct StopAt {
            at: usize,
            ckpt: Option<SamplerCheckpoint>,
        }
        impl IterCallback for StopAt {
            fn on_iteration(&mut self, s: &IterStats, snap: &dyn FitSnapshot) -> FitControl {
                if s.iter + 1 == self.at {
                    self.ckpt = snap.sampler_checkpoint();
                    FitControl::Stop
                } else {
                    FitControl::Continue
                }
            }
        }
        let mut cb = StopAt { at: 4, ckpt: None };
        let mut first = spec.gibbs_trainer();
        first.fit(&data, runner.as_ref(), &mut cb).unwrap();
        let ckpt = cb.ckpt.expect("snapshot captured");

        let resumed_spec = Bpmf {
            resume: Some(ckpt),
            ..spec.clone()
        };
        let mut resumed = resumed_spec.gibbs_trainer();
        let resumed_report = resumed
            .fit(&data, runner.as_ref(), &mut NoCallback)
            .unwrap();

        assert_eq!(resumed_report.iters.len(), 4);
        for (a, b) in full_report.iters[4..].iter().zip(&resumed_report.iters) {
            assert_eq!(a.rmse_sample.to_bits(), b.rmse_sample.to_bits());
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_gibbs_calls_exactly() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(3)
            .burnin(2)
            .samples(5)
            .seed(11)
            .engine(EngineKind::Static)
            .threads(2)
            .kernel_threads(1)
            .build()
            .unwrap();
        let runner = spec.runner();

        // Direct legacy path.
        let mut sampler = GibbsSampler::new(spec.to_gibbs_config(), data);
        let direct = sampler.run(runner.as_ref(), 7);

        // Unified path behind the trait object.
        let mut trainer: Box<dyn Trainer> = Box::new(spec.gibbs_trainer());
        let report = trainer
            .fit(&data, runner.as_ref(), &mut NoCallback)
            .unwrap();

        assert_eq!(direct.iters.len(), report.iters.len());
        for (a, b) in direct.iters.iter().zip(&report.iters) {
            assert_eq!(a.rmse_sample.to_bits(), b.rmse_sample.to_bits());
        }
        // The trait-object model and the sampler's posterior means agree.
        let rec = trainer.recommender().unwrap();
        let via_model = rec.predict(0, 1);
        let via_sampler = sampler.predict_posterior_mean(0, 1).unwrap();
        assert!((via_model - via_sampler).abs() < 1e-12);
    }

    fn fitted_trainer() -> GibbsTrainer {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(3)
            .burnin(2)
            .samples(4)
            .seed(7)
            .engine(EngineKind::Static)
            .threads(1)
            .kernel_threads(1)
            .rating_bounds(1.0, 5.0)
            .build()
            .unwrap();
        let runner = spec.runner();
        let mut trainer = spec.gibbs_trainer();
        trainer
            .fit(&data, runner.as_ref(), &mut NoCallback)
            .unwrap();
        trainer
    }

    #[test]
    fn model_handle_swap_preserves_pinned_guards_and_bumps_epoch() {
        let trainer = fitted_trainer();
        let handle = trainer.model_handle(3).expect("fitted");
        assert_eq!(handle.epoch(), 3);
        let pinned = handle.load();
        let before = pinned.model().predict(0, 1);

        // Swap in a deliberately different model; the pinned guard keeps
        // serving the old one bit-for-bit.
        let other = PosteriorModel::from_factors(
            Mat::from_fn(6, 3, |_, _| 0.5),
            Mat::from_fn(5, 3, |_, _| 0.5),
            None,
            2.5,
            Some((1.0, 5.0)),
            1,
        );
        let prev = handle.swap(Arc::new(other), 9);
        assert_eq!(prev, 3);
        assert_eq!(handle.epoch(), 9);
        assert!(!handle.is_current(&pinned));
        assert_eq!(pinned.model().predict(0, 1).to_bits(), before.to_bits());
        let fresh = handle.load();
        assert!(handle.is_current(&fresh));
        assert_eq!(fresh.epoch(), 9);

        // Clones share the cell: a swap through one is visible to all.
        let twin = handle.clone();
        twin.swap(fresh.shared(), 10);
        assert_eq!(handle.epoch(), 10);
    }

    #[test]
    fn fold_in_matches_dense_reference_and_reports_typed_errors() {
        let trainer = fitted_trainer();
        let model = trainer.model().expect("fitted");
        let items = [0u32, 2, 4];
        let ratings = [4.0, 2.0, 3.0];
        let fold = model
            .fold_in_user(&items, &ratings)
            .expect("gibbs folds in");
        assert_eq!(fold.factors.len(), 3);
        assert_eq!(fold.scores.len(), 5);

        // Scores must be the folded factors pushed through the same
        // epilogue as `predict`: global mean + clamp.
        for (m, &s) in fold.scores.iter().enumerate() {
            let raw = 2.5 + vecops::dot(&fold.factors, model.movie_means().row(m));
            assert!(
                (s - raw.clamp(1.0, 5.0)).abs() <= 1e-12,
                "item {m}: {s} vs {raw}"
            );
        }

        // Determinism: bit-identical on repeat.
        let again = model.fold_in_user(&items, &ratings).unwrap();
        assert_eq!(
            fold.factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            again
                .factors
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        );

        assert_eq!(
            model.fold_in_user(&items, &ratings[..2]).unwrap_err(),
            FoldInError::LengthMismatch {
                items: 3,
                ratings: 2
            }
        );
        assert_eq!(
            model.fold_in_user(&[5], &[3.0]).unwrap_err(),
            FoldInError::ItemOutOfRange {
                item: 5,
                catalogue: 5
            }
        );

        // A bare factor dump has no hyper state to fold against.
        let bare = PosteriorModel::from_factors(
            model.user_means().clone(),
            model.movie_means().clone(),
            None,
            2.5,
            None,
            model.samples(),
        );
        assert_eq!(
            bare.fold_in_user(&items, &ratings).unwrap_err(),
            FoldInError::Unsupported
        );
    }

    #[test]
    fn into_model_builds_the_from_sampler_model_bit_for_bit() {
        // The moved path and the copying path share one body; pin that on
        // a chain with second moments (3 post-burn-in draws) and on the
        // current-draw fallback (burn-in not yet over).
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let runner = EngineKind::Static.build(1);
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (burnin, iterations, samples) in [(2, 5, 3), (3, 2, 0)] {
            let cfg = BpmfConfig {
                num_latent: 2,
                burnin,
                samples: 3,
                seed: 9,
                kernel_threads: 1,
                rating_bounds: Some((1.0, 5.0)),
                ..Default::default()
            };
            let mut sampler = GibbsSampler::new(cfg, data);
            sampler.run(runner.as_ref(), iterations);
            let copied = PosteriorModel::from_sampler(&sampler);
            let moved = sampler.into_model();
            assert_eq!((copied.samples(), moved.samples()), (samples, samples));
            assert_eq!(bits(copied.user_means()), bits(moved.user_means()));
            assert_eq!(bits(copied.movie_means()), bits(moved.movie_means()));
            for (a, b) in [
                (&copied.user_second, &moved.user_second),
                (&copied.movie_second, &moved.movie_second),
            ] {
                assert_eq!(a.is_some(), samples >= 2);
                assert_eq!(a.as_ref().map(bits), b.as_ref().map(bits));
            }
            let (a, b) = (copied.fold_in.unwrap(), moved.fold_in.unwrap());
            let mu = |p: &UserPrior| p.mu.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(mu(&a), mu(&b));
            assert_eq!(bits(&a.lambda), bits(&b.lambda));
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
        }
    }

    #[test]
    fn checkpoint_rebuild_scores_bitwise_like_the_trainer_model() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(3)
            .burnin(2)
            .samples(4)
            .seed(7)
            .engine(EngineKind::Static)
            .threads(1)
            .kernel_threads(1)
            .rating_bounds(1.0, 5.0)
            .build()
            .unwrap();
        let runner = spec.runner();
        let mut trainer = spec.gibbs_trainer();
        // Capture the checkpoint of the *final* iteration: the state the
        // trainer's model is extracted from.
        let mut last = None;
        struct Capture<'c> {
            slot: &'c mut Option<SamplerCheckpoint>,
        }
        impl IterCallback for Capture<'_> {
            fn on_iteration(&mut self, _s: &IterStats, snap: &dyn FitSnapshot) -> FitControl {
                *self.slot = snap.sampler_checkpoint();
                FitControl::Continue
            }
        }
        trainer
            .fit(&data, runner.as_ref(), &mut Capture { slot: &mut last })
            .unwrap();
        let ckpt = last.expect("checkpoint captured");
        let direct = trainer.model().expect("fitted");

        let rebuilt =
            PosteriorModel::from_checkpoint(&ckpt, 2.5, Some((1.0, 5.0)), spec.alpha).unwrap();
        assert_eq!(rebuilt.samples(), direct.samples());
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        for user in 0..6 {
            direct.score_all(user, &mut a);
            rebuilt.score_all(user, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "user {user} diverged");
            }
        }
        // The rebuilt model folds in cold-start users identically too.
        let f1 = direct.fold_in_user(&[1, 3], &[4.0, 2.0]).unwrap();
        let f2 = rebuilt.fold_in_user(&[1, 3], &[4.0, 2.0]).unwrap();
        assert_eq!(
            f1.factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            f2.factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        // Uncertainty (second moments) survives the round trip.
        assert_eq!(
            direct
                .predict_with_uncertainty(0, 1)
                .map(|p| p.std.to_bits()),
            rebuilt
                .predict_with_uncertainty(0, 1)
                .map(|p| p.std.to_bits()),
        );
    }

    #[test]
    fn checkpoint_rebuild_rejects_malformed_hyper_state() {
        let trainer = fitted_trainer();
        let _ = trainer; // fit only to prove the happy path elsewhere
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(2)
            .burnin(1)
            .samples(1)
            .threads(1)
            .kernel_threads(1)
            .build()
            .unwrap();
        let mut sampler = GibbsSampler::try_new(spec.to_gibbs_config(), data).unwrap();
        let runner = spec.runner();
        sampler.step(runner.as_ref());
        let mut ckpt = sampler.checkpoint();
        ckpt.users_mu.pop();
        assert!(matches!(
            PosteriorModel::from_checkpoint(&ckpt, 0.0, None, 2.0),
            Err(BpmfError::CheckpointMismatch(_))
        ));
    }

    #[test]
    fn side_info_shape_mismatch_is_a_typed_error() {
        let (r, rt, test) = tiny();
        let data = TrainData::try_new(&r, &rt, 2.5, &test).unwrap();
        let spec = Bpmf::builder()
            .latent(2)
            .threads(1)
            .kernel_threads(1)
            .user_side_info(Mat::zeros(3, 2), 1.0) // 3 rows, 6 users
            .build()
            .unwrap();
        let runner = spec.runner();
        let mut trainer = spec.gibbs_trainer();
        let err = trainer
            .fit(&data, runner.as_ref(), &mut NoCallback)
            .unwrap_err();
        assert_eq!(
            err,
            BpmfError::SideInfoShape {
                side: "user",
                expected_rows: 6,
                found_rows: 3
            }
        );
    }
}
