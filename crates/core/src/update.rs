//! The three item-update kernels (paper Fig. 2) and the adaptive choice.
//!
//! Every kernel draws one item's conditional posterior
//!
//! ```text
//! Λ* = Λ + α Σ_j v_j v_jᵀ          (precision)
//! b  = Λμ + α Σ_j (r_j − m) v_j    (information vector)
//! item ~ N(Λ*⁻¹ b, Λ*⁻¹)
//! ```
//!
//! and they differ in how that distribution is reached:
//!
//! * **light** ([`UpdateMethod::RankOne`]) — an exact draw in the prior's
//!   whitened coordinates (Matheron's rule, equivalently Woodbury): a prior
//!   draw through the sweep's `chol(Λ)`, corrected by the residuals of `d`
//!   simulated ratings through a `d × d` system, with no `K × K` copy or
//!   factorization: cheapest for items with few ratings. Inside a sweep
//!   ([`ItemDraw`]) the whitened prior mean `L⁻¹Λμ` and, where the light
//!   rows carry enough ratings, the whitened counterpart rows `L⁻¹v_j` are
//!   sweep constants computed once, so a light item pays one triangular
//!   solve, `d²/2` dot products against cached rows and the `d × d`
//!   system, `O(K² + d²·K + d³)`. Without the cached rows it also pays one
//!   product with the sweep's cached `L⁻ᵀ` per rating, `O(d·K² + d³)`;
//!   called alone ([`update_item`]) it pays those and the forward solve,
//!   for the same bits.
//! * **serial Cholesky** — the mid-item workhorse. Counterpart rows are
//!   *gathered* into a contiguous `d × K` panel, [`bpmf_linalg::PANEL_BLOCK`]
//!   rows at a time, and folded in as one rank-d update
//!   ([`bpmf_linalg::syrk_ld_lower`]) plus one fused transposed
//!   panel-vector product ([`bpmf_linalg::gemv_t_acc`]) — BLAS-3-style
//!   blocked accumulation (after Vander Aa et al.'s D-BPMF), which streams
//!   the `K × K` accumulator once per panel instead of once per rating and
//!   keeps independent FMA chains in flight; while one block is in the
//!   register tiles the next block's rows are prefetched. One serial
//!   factorization at the end.
//! * **parallel Cholesky** — the same panel accumulation split into chunks
//!   executed on the persistent [`bpmf_linalg::kernel_pool`] (no OS threads
//!   are spawned per item: the pool's workers are parked between heavy
//!   items), then the blocked parallel factorization. Wins only for the
//!   heavy items — the paper routes items with ≳1000 ratings here.
//!
//! # Choosing the thresholds on new hardware
//!
//! `rank_one_max` (the light/mid crossover) and `parallel_threshold` (the
//! mid/heavy crossover) are machine-dependent. The defaults (`max(K/8, 1)`,
//! 1000) were measured; to re-pick them on new hardware run the layered
//! benchmark's traced pass on the ChEMBL-shaped workload, whose rows span
//! all three kernels:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload train_chembl --trace 1
//! ```
//!
//! * `update.light_item_us` is one light item (two triangular solves, `d`
//!   products with `L⁻ᵀ` and a `d × d` system) and `linalg.chol_us` the
//!   `K × K` factorization a serial item pays instead: the light kernel is
//!   worth keeping up to the `d` at which its per-rating products and
//!   `d × d` system cost more than the serial kernel's copy and
//!   factorization. Comparing the two at the `K` of interest gives the
//!   value for `rank_one_max`. The search that picked the default timed
//!   synthetic rows of `d` = 1, 2, 3, 5, 8, 12, … ratings and found 3 at
//!   K = 16, 3–5 at K = 32 and 12 at K = 64 on the AVX-512 arm; `K/8` sits
//!   at or one step below that. The portable arm, whose factorization is
//!   slower, measured 5, 8–12 and 27.
//! * Both the probe and that search call the public [`update_item`],
//!   which has no sweep constants: they price a light item at its
//!   stand-alone cost, above what it costs inside a sweep, where
//!   [`ItemDraw`] has already paid the forward solve of `L⁻¹Λμ` and,
//!   on ChEMBL's compound side, the per-rating `L⁻ᵀ` products. The light
//!   arm is therefore cheaper in a sweep than these numbers say, and the
//!   `max(K/8, 1)` crossover is conservative; re-measuring it inside a
//!   sweep is open.
//! * `update.heavy_ns_per_rating` against `update.par_ns_per_rating` is the
//!   serial kernel's per-rating cost against the parallel one's: raise
//!   `parallel_threshold` until CholParallel actually beats CholSerial at
//!   that rating count — on few-core hosts it may never, in which case
//!   leave it at `usize::MAX`-ish values.

use bpmf_linalg::{
    cholesky_in_place, cholesky_in_place_parallel, gemv_t_acc, kernel_pool, solve_lower,
    solve_lower_transpose, syrk_ld_lower, vecops, Cholesky, Mat, MatWriter, DEFAULT_BLOCK,
    PANEL_BLOCK,
};
use bpmf_sched::{Adjacency, ItemRunner, RunStats};
use bpmf_stats::{fill_standard_normal, Xoshiro256pp};

use std::ops::Range;
use std::sync::Mutex;

use crate::checkpoint::RngState;
use crate::config::BpmfConfig;
use crate::store::RatingStore;

/// Which factorization strategy an item update uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMethod {
    /// The light kernel: an exact low-rank draw in the prior's whitened
    /// coordinates (see the module doc). The name is kept because the
    /// layered benchmark's probes select and label the light path by it.
    RankOne,
    /// SYRK accumulation + one serial Cholesky factorization.
    CholSerial,
    /// Threaded accumulation + blocked parallel Cholesky.
    CholParallel,
}

/// The paper's adaptive rule: the light kernel for the lightest items, parallel
/// Cholesky for items with at least `parallel_threshold` ratings (≈1000 in
/// the paper), serial Cholesky in between.
#[inline]
pub fn choose_method(
    nratings: usize,
    rank_one_max: usize,
    parallel_threshold: usize,
) -> UpdateMethod {
    if nratings >= parallel_threshold {
        UpdateMethod::CholParallel
    } else if nratings <= rank_one_max {
        UpdateMethod::RankOne
    } else {
        UpdateMethod::CholSerial
    }
}

/// Reusable per-worker buffers: one item update allocates nothing (the
/// gather panel, the light arm's noise and `d × d` system, and the parallel
/// path's partial accumulators grow on first use and are reused across
/// items and sweeps).
#[derive(Clone, Debug)]
pub struct UpdateScratch {
    prec: Mat,
    rhs: Vec<f64>,
    noise: Vec<f64>,
    vec_k: Vec<f64>,
    /// Gather buffer: up to `PANEL_BLOCK` counterpart rows, contiguous.
    panel: Vec<f64>,
    /// One weight `α (r − m)` per gathered row.
    weights: Vec<f64>,
    /// The light arm's `d × d` system.
    gram: Vec<f64>,
    /// Per-chunk accumulators for the parallel path.
    partials: Vec<Partial>,
}

/// One parallel chunk's private accumulation state.
#[derive(Clone, Debug)]
struct Partial {
    prec: Mat,
    rhs: Vec<f64>,
    panel: Vec<f64>,
    weights: Vec<f64>,
}

impl Partial {
    fn new(k: usize) -> Self {
        Partial {
            prec: Mat::zeros(k, k),
            rhs: vec![0.0; k],
            panel: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl UpdateScratch {
    /// Buffers for latent dimension `k`.
    pub fn new(k: usize) -> Self {
        UpdateScratch {
            prec: Mat::zeros(k, k),
            rhs: vec![0.0; k],
            noise: vec![0.0; k],
            vec_k: vec![0.0; k],
            panel: Vec::new(),
            weights: Vec::new(),
            gram: Vec::new(),
            partials: Vec::new(),
        }
    }
}

/// Per-sweep view of one side's prior: everything an item update needs that
/// is constant across the sweep.
pub struct SidePrior<'a> {
    /// Prior precision `Λ` (full symmetric).
    pub lambda: &'a Mat,
    /// Precomputed `Λμ`.
    pub lambda_mu: &'a [f64],
    /// Cholesky factor of `Λ`, computed once per sweep: the light kernel
    /// draws in the coordinates it whitens, through `L` and its cached
    /// `L⁻ᵀ` ([`Cholesky::l_inv_t`]).
    pub chol_lambda: &'a Cholesky,
    /// Rating-noise precision α.
    pub alpha: f64,
    /// Global rating mean subtracted from every observation.
    pub mean_offset: f64,
}

/// The owned prior quantities a sweep's [`SidePrior`] borrows: `Λ`, `Λμ`
/// and `chol(Λ)`, computed once per sweep from the side's hyper sample.
pub(crate) struct PriorParts {
    lambda: Mat,
    lambda_mu: Vec<f64>,
    chol_lambda: Cholesky,
}

impl PriorParts {
    /// Derive the parts from a hyper sample `(μ, Λ)`.
    pub fn new(mu: &[f64], lambda: &Mat) -> Self {
        PriorParts {
            lambda_mu: lambda.matvec(mu),
            chol_lambda: Cholesky::factor(lambda).expect("sampled prior precision must be SPD"),
            lambda: lambda.clone(),
        }
    }

    /// `Λμ` and `chol(Λ)`.
    pub fn derivatives(&self) -> (&[f64], &Cholesky) {
        (&self.lambda_mu, &self.chol_lambda)
    }
}

/// One sweep's item draw: the side's prior, the ratings being swept, the
/// counterpart factors, the kernel choice and the light arm's sweep
/// constants — everything an item update needs besides a worker's RNG
/// stream and scratch. Every chain that sweeps items (the shared-memory
/// sampler, sequential and hybrid distributed ranks) builds one per sweep
/// and draws through [`ItemDraw::draw`], which gives the same bits as
/// [`update_item`] with the same kernel.
pub(crate) struct ItemDraw<'a> {
    prior: SidePrior<'a>,
    ratings: &'a dyn RatingStore,
    other: &'a Mat,
    /// Per-item prior-mean shifts (side information), one row per item.
    pub offsets: Option<&'a Mat>,
    rank_one_max: usize,
    parallel_threshold: usize,
    /// Threads a heavy item's parallel kernel may use.
    pub kernel_threads: usize,
    light: LightConstants,
}

/// What every light item of one sweep would otherwise recompute: values
/// [`light_draw`] computes per item, computed once with the same calls, so
/// the draws keep their bits.
struct LightConstants {
    /// `c₀ = L⁻¹Λμ`, the whitened prior mean of an item without an offset.
    c0: Vec<f64>,
    /// `W`, whose row `j` is `L⁻¹v_j`: the counterpart in the prior's
    /// whitened coordinates. Built only when the light rows being swept
    /// carry at least as many ratings as the counterpart has rows (see
    /// [`whitens_counterpart`]).
    whitened: Option<Mat>,
}

impl<'a> ItemDraw<'a> {
    /// The draw `cfg` prescribes for the items `rows` of `ratings` (one row
    /// per item) against the counterpart factors `other`. `rows` are the
    /// items this sweep draws: they decide whether whitening the
    /// counterpart once pays for itself.
    pub fn new(
        cfg: &BpmfConfig,
        prior: &'a PriorParts,
        mean_offset: f64,
        ratings: &'a dyn RatingStore,
        rows: Range<usize>,
        other: &'a Mat,
    ) -> Self {
        let rank_one_max = cfg.rank_one_threshold();
        let parallel_threshold = cfg.parallel_threshold;
        let mut c0 = prior.lambda_mu.clone();
        solve_lower(prior.chol_lambda.l(), &mut c0);
        let whitened = whitens_counterpart(
            ratings,
            rows,
            other.rows(),
            rank_one_max,
            parallel_threshold,
        )
        .then(|| {
            let l_inv_t = prior.chol_lambda.l_inv_t();
            let mut w = Mat::zeros(other.rows(), other.cols());
            for j in 0..other.rows() {
                l_inv_t.matvec_t_into(other.row(j), w.row_mut(j));
            }
            w
        });
        ItemDraw {
            prior: SidePrior {
                lambda: &prior.lambda,
                lambda_mu: &prior.lambda_mu,
                chol_lambda: &prior.chol_lambda,
                alpha: cfg.alpha,
                mean_offset,
            },
            ratings,
            other,
            offsets: None,
            rank_one_max,
            parallel_threshold,
            kernel_threads: cfg.kernel_threads,
            light: LightConstants { c0, whitened },
        }
    }

    /// Draw `item`'s conditional posterior sample into `out`, with the
    /// kernel [`choose_method`] picks for its rating count.
    pub fn draw(
        &self,
        item: usize,
        rng: &mut Xoshiro256pp,
        scratch: &mut UpdateScratch,
        out: &mut [f64],
    ) {
        let ratings = self.ratings.row(item);
        let method = choose_method(ratings.0.len(), self.rank_one_max, self.parallel_threshold);
        draw_item(
            method,
            &self.prior,
            ratings,
            self.other,
            self.offsets.map(|g| g.row(item)),
            Some(&self.light),
            rng,
            scratch,
            out,
            self.kernel_threads,
        );
    }
}

/// Whether a sweep over `rows` of `ratings` should whiten all
/// `counterpart_rows` counterpart rows up front: only when the light items
/// among `rows` carry at least as many ratings, each of which would
/// otherwise whiten its counterpart row itself. Read off the row offsets.
fn whitens_counterpart(
    ratings: &dyn RatingStore,
    rows: Range<usize>,
    counterpart_rows: usize,
    rank_one_max: usize,
    parallel_threshold: usize,
) -> bool {
    let light: usize = ratings.raw_parts().0[rows.start..=rows.end]
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&d| choose_method(d, rank_one_max, parallel_threshold) == UpdateMethod::RankOne)
        .sum();
    light >= counterpart_rows
}

/// Per-worker RNG streams and scratch buffers, indexed by a runner's
/// worker id. A worker's stream fixes which draws its items get, so a
/// static schedule over the same streams reproduces the chain exactly.
pub(crate) struct Workers {
    /// One lock per worker guards its stream and its scratch together.
    slots: Vec<Mutex<(Xoshiro256pp, UpdateScratch)>>,
}

impl Workers {
    /// One worker per stream, with scratch for latent dimension `k`.
    pub fn new(streams: Vec<Xoshiro256pp>, k: usize) -> Self {
        Workers {
            slots: streams
                .into_iter()
                .map(|rng| Mutex::new((rng, UpdateScratch::new(k))))
                .collect(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Draw `item` into `out` on `worker`'s stream and scratch.
    pub fn draw(&self, d: &ItemDraw<'_>, worker: usize, item: usize, out: &mut [f64]) {
        let mut slot = self.slots[worker].lock().expect("worker mutex poisoned");
        let (rng, scratch) = &mut *slot;
        d.draw(item, rng, scratch, out);
    }

    /// Draw `rows` of `items` over `runner`, whose item `i` is row
    /// `rows.start + i`, each worker on its own stream and scratch.
    pub fn run(
        &self,
        runner: &dyn ItemRunner,
        d: &ItemDraw<'_>,
        items: &mut Mat,
        rows: Range<usize>,
        weights: Option<&[f64]>,
        adj: Option<Adjacency<'_>>,
    ) -> RunStats {
        let writer = MatWriter::new(items);
        runner.run_items(rows.len(), weights, adj, &|worker, i| {
            let item = rows.start + i;
            // SAFETY: the runner's exactly-once contract means no other
            // worker receives this index, so the row is unaliased.
            self.draw(d, worker, item, unsafe { writer.row_mut(item) });
        })
    }

    /// Snapshot every stream for a checkpoint.
    pub fn rng_states(&self) -> Vec<RngState> {
        self.slots
            .iter()
            .map(|m| RngState::capture(&m.lock().expect("worker mutex poisoned").0))
            .collect()
    }
}

/// Draw one item's conditional posterior sample into `out`.
///
/// `ratings` are the item's `(counterpart index, raw rating)` pairs;
/// `other` is the counterpart side's factor matrix; `offset`, when present,
/// shifts this item's prior mean from `μ` to `μ + offset` (the Macau-style
/// side-information hook — the precision is unchanged, so all three
/// kernels need only a different right-hand-side seed). All three methods
/// produce draws from exactly the same distribution — tests verify their
/// moments agree — so the choice is purely a performance decision.
#[allow(clippy::too_many_arguments)]
pub fn update_item(
    method: UpdateMethod,
    prior: &SidePrior<'_>,
    ratings: (&[u32], &[f64]),
    other: &Mat,
    offset: Option<&[f64]>,
    rng: &mut Xoshiro256pp,
    scratch: &mut UpdateScratch,
    out: &mut [f64],
    kernel_threads: usize,
) {
    draw_item(
        method,
        prior,
        ratings,
        other,
        offset,
        None,
        rng,
        scratch,
        out,
        kernel_threads,
    );
}

/// [`update_item`], with a sweep's light constants when the caller has
/// them.
#[allow(clippy::too_many_arguments)]
fn draw_item(
    method: UpdateMethod,
    prior: &SidePrior<'_>,
    ratings: (&[u32], &[f64]),
    other: &Mat,
    offset: Option<&[f64]>,
    light: Option<&LightConstants>,
    rng: &mut Xoshiro256pp,
    scratch: &mut UpdateScratch,
    out: &mut [f64],
    kernel_threads: usize,
) {
    let k = prior.lambda.rows();
    debug_assert_eq!(out.len(), k, "output row length mismatch");
    let (cols, vals) = ratings;
    debug_assert_eq!(cols.len(), vals.len());

    match method {
        UpdateMethod::RankOne => {
            // K normals for the prior draw, then one per rating.
            scratch.noise.resize(k + cols.len(), 0.0);
            fill_standard_normal(rng, &mut scratch.noise);
            light_draw(prior, offset, cols, vals, other, light, scratch, out);
            return;
        }
        UpdateMethod::CholSerial => {
            accumulate_serial(prior, offset, cols, vals, other, scratch);
            cholesky_in_place(&mut scratch.prec).expect("item precision must be SPD");
        }
        UpdateMethod::CholParallel => {
            accumulate_parallel(prior, offset, cols, vals, other, scratch, kernel_threads);
            cholesky_in_place_parallel(&mut scratch.prec, kernel_threads, DEFAULT_BLOCK)
                .expect("item precision must be SPD");
        }
    }

    // scratch.prec now holds L with L Lᵀ = Λ*. The draw is the mean plus
    // precision-shaped noise, Λ*⁻¹ b + L⁻ᵀ z = L⁻ᵀ (L⁻¹ b + z): one forward
    // and one transposed solve.
    solve_lower(&scratch.prec, &mut scratch.rhs);
    let z = &mut scratch.noise[..k];
    fill_standard_normal(rng, z);
    for ((o, &y), &z) in out.iter_mut().zip(&scratch.rhs).zip(&*z) {
        *o = y + z;
    }
    solve_lower_transpose(&scratch.prec, out);
}

/// The light arm's draw as a function of its standard normals
/// `scratch.noise[..K + d]` (`z`, then one `ε` per rating); all zeros give
/// the posterior mean.
///
/// Matheron's rule in the prior's whitened coordinates `y = Lᵀx`, where
/// `L Lᵀ = Λ`: the prior is `y ~ N(c₀, I)` with `c₀ = L⁻¹b₀`, and rating
/// `j` observes `u_jᵀy` with `u_j = L⁻¹v_j` under noise of variance `α⁻¹`.
/// A prior draw `c = c₀ + z`, corrected by the residuals of simulated
/// ratings, is an exact posterior draw:
///
/// ```text
/// e = (r − m) − Uᵀc − ε/√α
/// y = c + U (UᵀU + α⁻¹I)⁻¹ e,    x = L⁻ᵀy
/// ```
///
/// Two triangular solves against the sweep's `chol(Λ)`, one vectorized
/// product with its cached `L⁻ᵀ` per rating (`u_j`), `d²/2` dot products
/// and a `d × d` factorization; no `K × K` matrix is factored. With no
/// ratings this is the serial kernel's arithmetic on `L`, bit for bit.
///
/// A sweep's `light` constants replace the forward solve (`c₀`, for an item
/// without an offset) and the per-rating products (the rows of `W`, when
/// built) with the values the same calls gave once for the whole sweep, so
/// the draw is the same with or without them.
#[allow(clippy::too_many_arguments)]
fn light_draw(
    prior: &SidePrior<'_>,
    offset: Option<&[f64]>,
    cols: &[u32],
    vals: &[f64],
    other: &Mat,
    light: Option<&LightConstants>,
    scratch: &mut UpdateScratch,
    out: &mut [f64],
) {
    let k = out.len();
    let d = cols.len();
    let l = prior.chol_lambda.l();
    match light {
        Some(lc) if offset.is_none() => scratch.rhs.copy_from_slice(&lc.c0),
        _ => {
            seed_rhs(prior, offset, scratch);
            solve_lower(l, &mut scratch.rhs);
        }
    }
    let whitened = light.and_then(|lc| lc.whitened.as_ref());
    let UpdateScratch {
        rhs: c,
        noise,
        panel: u,
        weights: e,
        gram,
        ..
    } = scratch;
    let (z, eps) = noise[..k + d].split_at(k);
    for (ci, &zi) in c.iter_mut().zip(z) {
        *ci += zi;
    }
    u.clear();
    if whitened.is_none() {
        let l_inv_t = prior.chol_lambda.l_inv_t();
        for &j in cols {
            let at = u.len();
            u.resize(at + k, 0.0);
            l_inv_t.matvec_t_into(other.row(j as usize), &mut u[at..]);
        }
    }
    // `u_a = L⁻¹v_j` for the item's `a`-th rating `j`.
    let u = &u[..];
    let u_row = move |a: usize| match whitened {
        Some(w) => w.row(cols[a] as usize),
        None => &u[a * k..(a + 1) * k],
    };
    e.clear();
    let noise_sd = prior.alpha.sqrt().recip();
    for (a, (&r, &ea)) in vals.iter().zip(eps).enumerate() {
        e.push(r - prior.mean_offset - vecops::dot(u_row(a), c) - noise_sd * ea);
    }
    gram.clear();
    gram.resize(d * d, 0.0);
    for a in 0..d {
        for b in 0..=a {
            gram[a * d + b] = vecops::dot(u_row(a), u_row(b));
        }
        gram[a * d + a] += prior.alpha.recip();
    }
    solve_small_spd(gram, d, e);
    for (a, &sa) in e.iter().enumerate() {
        vecops::axpy(sa, u_row(a), c);
    }
    out.copy_from_slice(c);
    solve_lower_transpose(l, out);
}

/// Solve `A x = b` in place for a small SPD `A` of order `d` (row-major;
/// only the lower triangle is read, and it is overwritten by the Cholesky
/// factor). Scalar loops: the light arm's systems have a handful of rows.
fn solve_small_spd(a: &mut [f64], d: usize, b: &mut [f64]) {
    for j in 0..d {
        let (done, rest) = a.split_at_mut(j * d);
        let row_j = &mut rest[..d];
        for i in 0..j {
            let s = row_j[i] - vecops::dot(&row_j[..i], &done[i * d..i * d + i]);
            row_j[i] = s / done[i * d + i];
        }
        let pivot = row_j[j] - vecops::dot(&row_j[..j], &row_j[..j]);
        assert!(pivot > 0.0, "light-item system must be SPD");
        row_j[j] = pivot.sqrt();
    }
    for i in 0..d {
        let row = &a[i * d..i * d + i + 1];
        b[i] = (b[i] - vecops::dot(&row[..i], &b[..i])) / row[i];
    }
    for i in (0..d).rev() {
        let mut s = b[i];
        for t in i + 1..d {
            s -= a[t * d + i] * b[t];
        }
        b[i] = s / a[i * d + i];
    }
}

/// Deterministic one-row fold-in: the conditional posterior **mean** for a
/// brand-new row given its ratings, with the counterpart factors fixed.
///
/// This is exactly the deterministic part of [`update_item`]'s serial
/// kernel — accumulate `Λ* = Λ + α Σ v vᵀ` and `b = Λμ + α Σ (r − m) v`,
/// factor, and solve `Λ* x = b` — with no noise draw, so the result is a
/// pure function of its inputs (bit-identical across runs and stores).
/// Serving uses it to answer cold-start users without a retrain: one
/// `O(d·K² + K³)` call against the posterior-mean item factors.
pub fn fold_in_mean(
    prior: &SidePrior<'_>,
    ratings: (&[u32], &[f64]),
    other: &Mat,
    scratch: &mut UpdateScratch,
    out: &mut [f64],
) {
    let k = prior.lambda.rows();
    debug_assert_eq!(out.len(), k, "output row length mismatch");
    let (cols, vals) = ratings;
    debug_assert_eq!(cols.len(), vals.len());
    accumulate_serial(prior, None, cols, vals, other, scratch);
    cholesky_in_place(&mut scratch.prec).expect("fold-in precision must be SPD");
    solve_lower(&scratch.prec, &mut scratch.rhs);
    solve_lower_transpose(&scratch.prec, &mut scratch.rhs);
    out.copy_from_slice(&scratch.rhs);
}

/// Seed the information vector: `b = Λμ`, plus `Λ·offset` when this item's
/// prior mean is shifted by side information. `vec_k` is free at this point
/// in every kernel.
fn seed_rhs(prior: &SidePrior<'_>, offset: Option<&[f64]>, scratch: &mut UpdateScratch) {
    scratch.rhs.copy_from_slice(prior.lambda_mu);
    if let Some(g) = offset {
        prior.lambda.matvec_into(g, &mut scratch.vec_k);
        vecops::axpy(1.0, &scratch.vec_k, &mut scratch.rhs);
    }
}

/// Gather counterpart rows into `panel` (with their weights `α (r − m)` in
/// `weights`), `PANEL_BLOCK` rows at a time, and fold each panel into
/// `(prec, rhs)` as one rank-d update plus one fused transposed
/// panel-vector product.
#[allow(clippy::too_many_arguments)]
fn accumulate_panels(
    prec: &mut Mat,
    rhs: &mut [f64],
    alpha: f64,
    mean_offset: f64,
    cols: &[u32],
    vals: &[f64],
    other: &Mat,
    panel: &mut Vec<f64>,
    weights: &mut Vec<f64>,
) {
    let k = prec.rows();
    let mut blocks = cols.chunks(PANEL_BLOCK).zip(vals.chunks(PANEL_BLOCK));
    let mut current = blocks.next();
    while let Some((cblock, vblock)) = current {
        panel.clear();
        weights.clear();
        for (&j, &r) in cblock.iter().zip(vblock) {
            panel.extend_from_slice(other.row(j as usize));
            weights.push(alpha * (r - mean_offset));
        }
        // The counterpart rows are scattered over a factor matrix that may
        // not fit in cache: start pulling the next block's rows in while
        // this block is in the register tiles.
        current = blocks.next();
        if let Some((next, _)) = current {
            for &j in next {
                other.prefetch_row(j as usize);
            }
        }
        syrk_ld_lower(prec, alpha, panel, k);
        gemv_t_acc(rhs, panel, weights);
    }
}

fn accumulate_serial(
    prior: &SidePrior<'_>,
    offset: Option<&[f64]>,
    cols: &[u32],
    vals: &[f64],
    other: &Mat,
    scratch: &mut UpdateScratch,
) {
    scratch.prec.copy_from(prior.lambda);
    seed_rhs(prior, offset, scratch);
    accumulate_panels(
        &mut scratch.prec,
        &mut scratch.rhs,
        prior.alpha,
        prior.mean_offset,
        cols,
        vals,
        other,
        &mut scratch.panel,
        &mut scratch.weights,
    );
}

/// Chunked accumulation on the persistent kernel pool: each chunk gathers
/// its contiguous rating range into a private panel and builds a partial
/// `(Λ_c, b_c)`; partials are reduced serially (K² work, negligible next to
/// the per-rating K² accumulation it parallelizes). No OS threads are
/// spawned here — the pool's workers are parked between heavy items.
///
/// The pool runs one job at a time, so heavy items hitting this path from
/// *different* scheduler workers simultaneously serialize their
/// accumulations (each still spanning all cores) instead of
/// oversubscribing the machine — see `KernelPool::run` for the trade-off.
fn accumulate_parallel(
    prior: &SidePrior<'_>,
    offset: Option<&[f64]>,
    cols: &[u32],
    vals: &[f64],
    other: &Mat,
    scratch: &mut UpdateScratch,
    threads: usize,
) {
    let k = prior.lambda.rows();
    let threads = threads.max(1).min(cols.len().max(1));
    if threads == 1 {
        accumulate_serial(prior, offset, cols, vals, other, scratch);
        return;
    }
    scratch.prec.copy_from(prior.lambda);
    seed_rhs(prior, offset, scratch);
    if scratch.partials.len() < threads {
        scratch.partials.resize_with(threads, || Partial::new(k));
    }
    let partials = &mut scratch.partials[..threads];
    for p in partials.iter_mut() {
        debug_assert_eq!(p.prec.rows(), k, "scratch reused across dimensions");
        p.prec.fill(0.0);
        p.rhs.fill(0.0);
    }
    let chunk = cols.len().div_ceil(threads);
    let alpha = prior.alpha;
    let mean_offset = prior.mean_offset;
    let writer = MatWriter::from_slice(partials);
    kernel_pool().run(threads, &|c| {
        // SAFETY: the kernel pool delivers each chunk index exactly once,
        // and chunk `c` touches only `partials[c]`, so it is unaliased.
        let p = unsafe { &mut writer.row_mut(c)[0] };
        let lo = (c * chunk).min(cols.len());
        let hi = (lo + chunk).min(cols.len());
        accumulate_panels(
            &mut p.prec,
            &mut p.rhs,
            alpha,
            mean_offset,
            &cols[lo..hi],
            &vals[lo..hi],
            other,
            &mut p.panel,
            &mut p.weights,
        );
    });

    for p in partials.iter() {
        scratch.prec.add_assign_scaled(&p.prec, 1.0);
        vecops::axpy(1.0, &p.rhs, &mut scratch.rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sparse::{Coo, Csr};

    fn fixture(
        k: usize,
        nratings: usize,
        seed: u64,
    ) -> (Mat, Vec<f64>, Cholesky, Mat, Vec<u32>, Vec<f64>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // A well-conditioned prior precision.
        let mut lambda = Mat::identity(k);
        for i in 0..k {
            lambda[(i, i)] = 1.5 + 0.1 * i as f64;
        }
        let mu: Vec<f64> = (0..k).map(|i| 0.1 * i as f64 - 0.2).collect();
        let lambda_mu = lambda.matvec(&mu);
        let chol = Cholesky::factor(&lambda).unwrap();
        let other = Mat::from_fn(nratings.max(4) * 2, k, |_, _| {
            bpmf_stats::normal(&mut rng, 0.0, 0.5)
        });
        let cols: Vec<u32> = (0..nratings).map(|i| (i * 2) as u32).collect();
        let vals: Vec<f64> = (0..nratings)
            .map(|i| 3.0 + (i as f64 * 0.7).sin())
            .collect();
        (lambda, lambda_mu, chol, other, cols, vals)
    }

    /// The light arm's draw for the given standard normals (`z`, then one
    /// `ε` per rating).
    fn light_with_noise(
        prior: &SidePrior<'_>,
        offset: Option<&[f64]>,
        (cols, vals): (&[u32], &[f64]),
        other: &Mat,
        noise: &[f64],
    ) -> Vec<f64> {
        let k = prior.lambda.rows();
        let mut scratch = UpdateScratch::new(k);
        scratch.noise = noise.to_vec();
        let mut out = vec![0.0; k];
        light_draw(
            prior,
            offset,
            cols,
            vals,
            other,
            None,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// A non-diagonal, well-conditioned prior precision `B Bᵀ + 0.8 I`.
    fn dense_prior(k: usize, rng: &mut Xoshiro256pp) -> Mat {
        let b = Mat::from_fn(k, k, |_, _| bpmf_stats::normal(rng, 0.0, 0.6));
        let mut lambda = b.matmul_transb(&b);
        for i in 0..k {
            lambda[(i, i)] += 0.8;
        }
        lambda
    }

    /// All three kernels must produce draws from the same distribution. The
    /// light arm's noise-free draw is the posterior mean, which the serial
    /// and parallel kernels reach by factoring `Λ*`: all three must agree.
    #[test]
    fn kernels_agree_on_posterior_mean() {
        for &(k, d) in &[
            (4usize, 2usize),
            (8, 8),
            (8, 40),
            (16, 200),
            (32, 2),
            (32, 4),
            (32, 130),
            (32, 1200),
        ] {
            let (lambda, lambda_mu, chol, other, cols, vals) = fixture(k, d, 99);
            let prior = SidePrior {
                lambda: &lambda,
                lambda_mu: &lambda_mu,
                chol_lambda: &chol,
                alpha: 2.0,
                mean_offset: 3.0,
            };
            let zeros = vec![0.0; k + d];
            let mut means = vec![light_with_noise(
                &prior,
                None,
                (&cols, &vals),
                &other,
                &zeros,
            )];
            for parallel in [false, true] {
                let mut scratch = UpdateScratch::new(k);
                if parallel {
                    accumulate_parallel(&prior, None, &cols, &vals, &other, &mut scratch, 3);
                    cholesky_in_place_parallel(&mut scratch.prec, 3, 8).unwrap();
                } else {
                    accumulate_serial(&prior, None, &cols, &vals, &other, &mut scratch);
                    cholesky_in_place(&mut scratch.prec).unwrap();
                }
                solve_lower(&scratch.prec, &mut scratch.rhs);
                solve_lower_transpose(&scratch.prec, &mut scratch.rhs);
                means.push(scratch.rhs.clone());
            }
            for m in &means[1..] {
                for (a, b) in m.iter().zip(&means[0]) {
                    assert!((a - b).abs() < 1e-8, "k={k} d={d}: {a} vs {b}");
                }
            }
        }
    }

    /// The light arm is affine in its `K + d` normals, so its mean is the
    /// draw at zero noise and its covariance is `A Aᵀ`, with column `i` of
    /// `A` the draw at unit vector `i` minus the mean. Both must match the
    /// dense posterior `N(Λ*⁻¹ b, Λ*⁻¹)`: non-diagonal `Λ`, with and
    /// without a side-information offset, fewer and more ratings than `K`,
    /// weak and near-noiseless ratings.
    #[test]
    fn light_draw_matches_dense_posterior_moments() {
        let k = 10;
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let lambda = dense_prior(k, &mut rng);
        let mu: Vec<f64> = (0..k).map(|i| 0.3 * (i as f64).cos()).collect();
        let lambda_mu = lambda.matvec(&mu);
        let chol = Cholesky::factor(&lambda).unwrap();
        let shift: Vec<f64> = (0..k).map(|i| 0.2 * (i as f64 * 1.3).sin()).collect();
        for d in [1usize, 2, 4, k + 3] {
            let other = Mat::from_fn(d + 3, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 0.5));
            let cols: Vec<u32> = (0..d as u32).map(|j| j + 1).collect();
            let vals: Vec<f64> = (0..d).map(|j| 3.0 + (j as f64 * 0.9).sin()).collect();
            for alpha in [2.0, 1e4] {
                for offset in [None, Some(&shift[..])] {
                    let prior = SidePrior {
                        lambda: &lambda,
                        lambda_mu: &lambda_mu,
                        chol_lambda: &chol,
                        alpha,
                        mean_offset: 3.0,
                    };

                    // Reference: Λ* and b by plain loops, dense factor.
                    let mut prec = lambda.clone();
                    let prior_mean: Vec<f64> = match offset {
                        Some(g) => mu.iter().zip(g).map(|(m, g)| m + g).collect(),
                        None => mu.clone(),
                    };
                    let mut want_mean = lambda.matvec(&prior_mean);
                    for (&j, &r) in cols.iter().zip(&vals) {
                        let v = other.row(j as usize);
                        for (row, &vi) in v.iter().enumerate() {
                            for (col, &vj) in v.iter().enumerate() {
                                prec[(row, col)] += alpha * vi * vj;
                            }
                        }
                        vecops::axpy(alpha * (r - 3.0), v, &mut want_mean);
                    }
                    let post = Cholesky::factor(&prec).unwrap();
                    post.solve_in_place(&mut want_mean);
                    let want_cov = post.inverse();

                    let n = k + d;
                    let draw = |noise: &[f64]| {
                        light_with_noise(&prior, offset, (&cols, &vals), &other, noise)
                    };
                    let mean = draw(&vec![0.0; n]);
                    let mut cov = Mat::zeros(k, k);
                    for i in 0..n {
                        let mut unit = vec![0.0; n];
                        unit[i] = 1.0;
                        let col: Vec<f64> =
                            draw(&unit).iter().zip(&mean).map(|(x, m)| x - m).collect();
                        cov.syrk_lower(1.0, &col);
                    }
                    cov.symmetrize_from_lower();

                    let at = format!("d={d} alpha={alpha} offset={}", offset.is_some());
                    for (g, w) in mean.iter().zip(&want_mean) {
                        assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{at}: {g} vs {w}");
                    }
                    let scale = want_cov
                        .as_slice()
                        .iter()
                        .fold(0.0f64, |m, v| m.max(v.abs()));
                    let diff = cov.max_abs_diff(&want_cov);
                    assert!(diff <= 1e-9 * scale, "{at}: covariance off by {diff:e}");
                }
            }
        }
    }

    /// An unrated light item is the prior draw `L⁻ᵀ(L⁻¹Λμ + z)`, bit for
    /// bit, and consumes exactly the `K` normals of `z`.
    #[test]
    fn unrated_light_item_is_the_prior_draw_bit_for_bit() {
        let k = 11;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let lambda = dense_prior(k, &mut rng);
        let mu: Vec<f64> = (0..k).map(|i| 0.1 * i as f64 - 0.4).collect();
        let lambda_mu = lambda.matvec(&mu);
        let chol = Cholesky::factor(&lambda).unwrap();
        let prior = SidePrior {
            lambda: &lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: 2.0,
            mean_offset: 3.0,
        };
        let other = Mat::zeros(1, k);
        let mut scratch = UpdateScratch::new(k);
        let mut out = vec![0.0; k];
        let (mut ours, mut hand) = (rng.clone(), rng.clone());
        for _ in 0..3 {
            update_item(
                UpdateMethod::RankOne,
                &prior,
                (&[], &[]),
                &other,
                None,
                &mut ours,
                &mut scratch,
                &mut out,
                1,
            );
            let mut want = lambda_mu.clone();
            solve_lower(chol.l(), &mut want);
            let mut z = vec![0.0; k];
            fill_standard_normal(&mut hand, &mut z);
            for (w, z) in want.iter_mut().zip(&z) {
                *w += z;
            }
            solve_lower_transpose(chol.l(), &mut want);
            assert_eq!(out, want);
            assert_eq!(ours.snapshot(), hand.snapshot());
        }
    }

    #[test]
    fn sample_moments_match_conditional_posterior() {
        // Empirically verify E[sample] ≈ Λ*⁻¹ b and Cov ≈ Λ*⁻¹ for the full
        // sampling path (serial kernel).
        let k = 3;
        let (lambda, lambda_mu, chol, other, cols, vals) = fixture(k, 12, 7);
        let prior = SidePrior {
            lambda: &lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: 1.5,
            mean_offset: 3.0,
        };

        // Reference posterior.
        let mut scratch = UpdateScratch::new(k);
        accumulate_serial(&prior, None, &cols, &vals, &other, &mut scratch);
        let mut prec_full = scratch.prec.clone();
        prec_full.symmetrize_from_lower();
        let post = Cholesky::factor(&prec_full).unwrap();
        let mut mean = scratch.rhs.clone();
        post.solve_in_place(&mut mean);
        let cov = post.inverse();

        let mut rng = Xoshiro256pp::seed_from_u64(500);
        let n = 60_000;
        let mut acc = vec![0.0; k];
        let mut sq = Mat::zeros(k, k);
        let mut out = vec![0.0; k];
        for _ in 0..n {
            update_item(
                UpdateMethod::CholSerial,
                &prior,
                (&cols, &vals),
                &other,
                None,
                &mut rng,
                &mut scratch,
                &mut out,
                1,
            );
            for (a, &o) in acc.iter_mut().zip(&out) {
                *a += o / n as f64;
            }
            for i in 0..k {
                for j in 0..k {
                    sq[(i, j)] += out[i] * out[j] / n as f64;
                }
            }
        }
        for (got, want) in acc.iter().zip(&mean) {
            assert!((got - want).abs() < 0.02, "mean: {got} vs {want}");
        }
        for i in 0..k {
            for j in 0..k {
                let emp_cov = sq[(i, j)] - acc[i] * acc[j];
                assert!(
                    (emp_cov - cov[(i, j)]).abs() < 0.02,
                    "cov[{i}{j}]: {emp_cov} vs {}",
                    cov[(i, j)]
                );
            }
        }
    }

    #[test]
    fn rank_one_kernel_samples_same_distribution() {
        // Same empirical-moment check for the light path through
        // `update_item` (catches slips in how it draws and splits its
        // K + d normals).
        let k = 4;
        let (lambda, lambda_mu, chol, other, cols, vals) = fixture(k, 3, 21);
        let prior = SidePrior {
            lambda: &lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: 2.0,
            mean_offset: 3.0,
        };
        let mut scratch = UpdateScratch::new(k);
        accumulate_serial(&prior, None, &cols, &vals, &other, &mut scratch);
        let mut prec_full = scratch.prec.clone();
        prec_full.symmetrize_from_lower();
        let post = Cholesky::factor(&prec_full).unwrap();
        let mut want_mean = scratch.rhs.clone();
        post.solve_in_place(&mut want_mean);
        let want_cov = post.inverse();

        let mut rng = Xoshiro256pp::seed_from_u64(1234);
        let n = 40_000;
        let mut acc = vec![0.0; k];
        let mut sq = Mat::zeros(k, k);
        let mut out = vec![0.0; k];
        for _ in 0..n {
            update_item(
                UpdateMethod::RankOne,
                &prior,
                (&cols, &vals),
                &other,
                None,
                &mut rng,
                &mut scratch,
                &mut out,
                1,
            );
            for (a, &o) in acc.iter_mut().zip(&out) {
                *a += o / n as f64;
            }
            sq.syrk_lower(1.0 / n as f64, &out);
        }
        for (got, want) in acc.iter().zip(&want_mean) {
            assert!((got - want).abs() < 0.03, "mean: {got} vs {want}");
        }
        for i in 0..k {
            for j in 0..=i {
                let emp_cov = sq[(i, j)] - acc[i] * acc[j];
                let want = want_cov[(i, j)];
                assert!(
                    (emp_cov - want).abs() < 0.02,
                    "cov[{i}{j}]: {emp_cov} vs {want}"
                );
            }
        }
    }

    #[test]
    fn zero_rating_item_draws_from_prior() {
        let k = 5;
        let (lambda, lambda_mu, chol, other, _, _) = fixture(k, 0, 3);
        let prior = SidePrior {
            lambda: &lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: 2.0,
            mean_offset: 0.0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut scratch = UpdateScratch::new(k);
        let mut out = vec![0.0; k];
        update_item(
            UpdateMethod::CholSerial,
            &prior,
            (&[], &[]),
            &other,
            None,
            &mut rng,
            &mut scratch,
            &mut out,
            1,
        );
        assert!(out.iter().all(|v| v.is_finite()));
    }

    /// `fold_in_mean` must agree with an independently computed posterior
    /// mean `Λ*⁻¹ b` (dense symmetric factor + solve) to 1e-12, and be a
    /// pure function of its inputs.
    #[test]
    fn fold_in_mean_matches_reference_posterior_mean() {
        for &(k, d) in &[(4usize, 1usize), (8, 5), (16, 60)] {
            let (lambda, lambda_mu, chol, other, cols, vals) = fixture(k, d, 42);
            let prior = SidePrior {
                lambda: &lambda,
                lambda_mu: &lambda_mu,
                chol_lambda: &chol,
                alpha: 2.0,
                mean_offset: 3.0,
            };

            // Reference: materialize Λ* and b by hand, solve with the
            // dense Cholesky type (a different code path).
            let mut prec = lambda.clone();
            let mut b = lambda_mu.clone();
            for (&j, &r) in cols.iter().zip(&vals) {
                let v = other.row(j as usize);
                for (row, &vi) in v.iter().enumerate() {
                    for (col, &vj) in v.iter().enumerate() {
                        prec[(row, col)] += prior.alpha * vi * vj;
                    }
                }
                vecops::axpy(prior.alpha * (r - prior.mean_offset), v, &mut b);
            }
            let post = Cholesky::factor(&prec).unwrap();
            post.solve_in_place(&mut b);

            let mut scratch = UpdateScratch::new(k);
            let mut got = vec![0.0; k];
            fold_in_mean(&prior, (&cols, &vals), &other, &mut scratch, &mut got);
            for (g, w) in got.iter().zip(&b) {
                assert!((g - w).abs() <= 1e-12, "k={k} d={d}: {g} vs {w}");
            }

            // Determinism: a second call with fresh scratch is bit-identical.
            let mut scratch2 = UpdateScratch::new(k);
            let mut again = vec![0.0; k];
            fold_in_mean(&prior, (&cols, &vals), &other, &mut scratch2, &mut again);
            assert_eq!(got, again, "fold-in mean must be bit-deterministic");
        }
    }

    #[test]
    fn fold_in_mean_with_no_ratings_is_the_prior_mean() {
        let k = 6;
        let (lambda, lambda_mu, chol, other, _, _) = fixture(k, 0, 5);
        let prior = SidePrior {
            lambda: &lambda,
            lambda_mu: &lambda_mu,
            chol_lambda: &chol,
            alpha: 2.0,
            mean_offset: 0.0,
        };
        let mut scratch = UpdateScratch::new(k);
        let mut out = vec![0.0; k];
        fold_in_mean(&prior, (&[], &[]), &other, &mut scratch, &mut out);
        // Λ⁻¹ (Λμ) = μ.
        let mut mu = lambda_mu.clone();
        Cholesky::factor(&lambda).unwrap().solve_in_place(&mut mu);
        for (g, w) in out.iter().zip(&mu) {
            assert!((g - w).abs() <= 1e-12, "{g} vs {w}");
        }
    }

    /// `degrees[i]` ratings in row `i`, over `ncols` counterpart rows.
    fn rows_with_degrees(degrees: &[usize], ncols: usize) -> Csr {
        let mut coo = Coo::new(degrees.len(), ncols);
        for (i, &d) in degrees.iter().enumerate() {
            for t in 0..d {
                let r = 3.0 + ((i + t) as f64 * 0.37).sin();
                coo.push(i, (i * 7 + t) % ncols, r);
            }
        }
        Csr::from_coo(&coo)
    }

    /// A sweep's light draw, with its constants (`c₀`, and `W` when the
    /// swept rows build it), is the public `update_item`'s draw bit for
    /// bit, and leaves the RNG where `update_item` leaves it: every rating
    /// count the light arm takes, with and without a side-information
    /// offset, on a scratch reused across items.
    #[test]
    fn sweep_constants_keep_every_light_draw_bit_for_bit() {
        let k = 32;
        let cfg = BpmfConfig {
            num_latent: k,
            ..BpmfConfig::default()
        };
        let max = cfg.rank_one_threshold();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let lambda = dense_prior(k, &mut rng);
        let mu: Vec<f64> = (0..k).map(|i| 0.2 * (i as f64 * 0.7).sin()).collect();
        let parts = PriorParts::new(&mu, &lambda);
        // Rows 0..=max have 0..=max ratings; single-rating filler rows make
        // the light ratings outnumber the counterpart rows.
        let ncols = 12;
        let degrees: Vec<usize> = (0..=max).chain(std::iter::repeat_n(1, ncols)).collect();
        let ratings = rows_with_degrees(&degrees, ncols);
        let other = Mat::from_fn(ncols, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 0.5));
        let shifts = Mat::from_fn(ratings.nrows(), k, |i, j| 0.1 * ((i * k + j) as f64).cos());
        for rows in [0..ratings.nrows(), 0..0] {
            for offsets in [None, Some(&shifts)] {
                let mut draw = ItemDraw::new(&cfg, &parts, 3.0, &ratings, rows.clone(), &other);
                draw.offsets = offsets;
                assert_eq!(draw.light.whitened.is_some(), !rows.is_empty());
                let (mut swept, mut alone) = (UpdateScratch::new(k), UpdateScratch::new(k));
                let (mut got, mut want) = (vec![0.0; k], vec![0.0; k]);
                for item in 0..=max {
                    let (cols, vals) = ratings.row(item);
                    assert_eq!(cols.len(), item);
                    assert_eq!(
                        choose_method(item, max, cfg.parallel_threshold),
                        UpdateMethod::RankOne
                    );
                    let (mut ours, mut theirs) = (rng.clone(), rng.clone());
                    draw.draw(item, &mut ours, &mut swept, &mut got);
                    update_item(
                        UpdateMethod::RankOne,
                        &draw.prior,
                        (cols, vals),
                        &other,
                        offsets.map(|g| g.row(item)),
                        &mut theirs,
                        &mut alone,
                        &mut want,
                        1,
                    );
                    let at = format!(
                        "d={item} offset={} W={}",
                        offsets.is_some(),
                        !rows.is_empty()
                    );
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    assert_eq!(ours.snapshot(), theirs.snapshot(), "{at}");
                    rng = ours;
                }
            }
        }
    }

    /// `W` pays for itself once the light rows being swept carry at least
    /// as many ratings as the counterpart has rows: ChEMBL's compound side
    /// builds it, its target side and MovieLens-shaped rows do not, and a
    /// rank counts only the rows it sweeps.
    #[test]
    fn counterpart_is_whitened_only_where_light_ratings_cover_it() {
        let cfg = BpmfConfig {
            num_latent: 32,
            ..BpmfConfig::default()
        };
        let whitens = |m: &Csr, rows: Range<usize>| {
            whitens_counterpart(
                m,
                rows,
                m.ncols(),
                cfg.rank_one_threshold(),
                cfg.parallel_threshold,
            )
        };
        // ChEMBL-shaped: 400 compounds with 1–3 ratings over 30 targets.
        let degrees: Vec<usize> = (0..400).map(|i| 1 + i % 3).collect();
        let compounds = rows_with_degrees(&degrees, 30);
        assert!(whitens(&compounds, 0..400));
        // The target side: ≈ 27 ratings per target, none of them light.
        let targets = compounds.transpose();
        assert!(!whitens(&targets, 0..targets.nrows()));
        // MovieLens-shaped: every row heavy, on both sides.
        let dense = rows_with_degrees(&[20; 60], 40);
        assert!(!whitens(&dense, 0..60));
        assert!(!whitens(&dense.transpose(), 0..40));
        // A rank's own rows: 10 compounds carry 20 light ratings, under
        // the 30 targets; the last 20 carry 40.
        assert!(!whitens(&compounds, 0..10));
        assert!(whitens(&compounds, 380..400));
        assert!(!whitens(&compounds, 400..400));
        // The break-even point itself builds `W`.
        assert!(whitens(&rows_with_degrees(&[1; 30], 30), 0..30));
        assert!(!whitens(&rows_with_degrees(&[1; 29], 30), 0..29));
    }

    #[test]
    fn adaptive_rule_matches_paper() {
        assert_eq!(choose_method(3, 8, 1000), UpdateMethod::RankOne);
        assert_eq!(choose_method(8, 8, 1000), UpdateMethod::RankOne);
        assert_eq!(choose_method(9, 8, 1000), UpdateMethod::CholSerial);
        assert_eq!(choose_method(999, 8, 1000), UpdateMethod::CholSerial);
        assert_eq!(choose_method(1000, 8, 1000), UpdateMethod::CholParallel);
    }
}
