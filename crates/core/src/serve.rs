//! Posterior serving: batched scoring and filtered top-N recommendation
//! over any fitted [`Recommender`].
//!
//! Training produces a posterior over user/item factors; this module is
//! the *serving* side of that pipeline — the "suggestions for movies on
//! Netflix and books for Amazon" of the paper's introduction, engineered
//! for the roadmap's heavy-traffic north star:
//!
//! * **batched scoring** — [`RecommendService::score_batch`] and the
//!   whole-catalogue scan behind [`RecommendService::top_n`] go through
//!   the blocked [`bpmf_linalg::Mat::matvec_into`] /
//!   [`bpmf_linalg::Mat::gather_matvec_into`] kernels (one virtual call
//!   per *request*, not per pair);
//! * **multi-user micro-batching** — [`RecommendService::recommend_batch`]
//!   serves a block of users through one `Recommender::score_block` call
//!   per [`MICRO_BATCH`] users: factor models turn that into a single
//!   register-tiled GEMM ([`bpmf_linalg::gemm_packed_into`]) against the
//!   transposed item factors, packed once into the kernel's blocked
//!   layout ([`bpmf_linalg::PackedB`]), so the catalogue is streamed once
//!   per block instead of once per user — the difference between
//!   compute-bound and memory-streaming once the factor panel falls out
//!   of L2;
//! * **candidate filtering** — exclude already-rated items straight from
//!   the training matrix, allowlists/denylists, and a minimum training
//!   support (long-tail items with fewer ratings than `min_support` are
//!   suppressed);
//! * **pluggable ranking policies** ([`RankPolicy`]) — rank by posterior
//!   mean, by UCB (`mean + β·std`), or by Thompson sampling, the latter
//!   two driven by [`Recommender::predict_with_uncertainty`] — the
//!   exploration/exploitation knob BPMF's posterior provides "for free"
//!   (point estimators degrade gracefully to the mean);
//! * **the serving daemon** ([`daemon`]) — a persistent TCP process that
//!   turns micro-batching from an offline trick into a serving
//!   architecture by *coalescing* genuinely concurrent traffic.
//!
//! # The connection layer
//!
//! Every TCP endpoint of the tier — the daemon's and the router's client
//! connections, the router's replica links — runs through one connection
//! layer, [`net`]: one accept loop, one framed reader per connection
//! (newline-delimited, `MAX_LINE`, shutdown drain deadline), one
//! drain-then-flush writer thread per connection, and one admission
//! prefix for request lines ([`wire::admit`]: decode, refuse a future
//! protocol version). Every one-shot exchange — the router's probes, the
//! supervisor's reload pushes and health pings, `serve-client` — is the
//! one [`net::round_trip`]. The diagrams below show each endpoint's
//! *logic*; the socket plumbing under every `conn` box is that layer.
//!
//! # Daemon architecture
//!
//! The daemon decouples request arrival from batched computation (the
//! asynchronous-communication idea of the paper's follow-up, applied to
//! serving):
//!
//! ```text
//!  net conns             bounded MPSC            worker pool
//!  ┌──────────┐  submit  ┌───────────┐  batch   ┌─────────────────────┐
//!  │  conn 0  ├───────┐  │ coalesce  │ ≤64 reqs │ RecommendService #0 │
//!  │  conn 1  ├───────┼─▶│  ::Queue  ├─────────▶│ RecommendService #1 │
//!  │  conn N  ├───────┘  │ (deadline │          │   … recommend_each  │
//!  └──────────┘          │  │ size)  │          │   one GEMM / block  │
//!        ▲               └───────────┘          └──────────┬──────────┘
//!        └──────────────── reply channel ◀─────────────────┘
//! ```
//!
//! * Each connection admits its lines, resolves per-request
//!   policy/filters against the daemon defaults, and submits to one
//!   **bounded** queue ([`coalesce::Queue`]) — a full queue blocks the
//!   connection's reader, which is the backpressure that keeps a traffic
//!   spike from ballooning memory.
//! * Workers drain the queue in **blocks**: a batch flushes when
//!   [`MICRO_BATCH`] requests are pending (or the queue is full) *or* the
//!   oldest request has waited `batch_window`, whichever comes first, and
//!   takes everything pending. The default window is `0`: a free worker
//!   never waits, so a request reaching an idle daemon is served at once,
//!   and under load the requests that queue up while one block is scored
//!   share the next packed-GEMM catalogue pass
//!   ([`RecommendService::recommend_each`] →
//!   [`Recommender::score_block`]). A window of a few milliseconds buys
//!   bigger blocks from traffic spaced below saturation, at the cost of up
//!   to that much added latency on every partial block.
//! * Each worker owns a [`RecommendService`] over the *shared* model, so
//!   the transposed/packed factor caches (`OnceLock`) are built once per
//!   process and shared by every worker, and each user's reply is routed
//!   back to its originating connection's writer through the
//!   connection's reply channel.
//!
//! Results are **arrival-order independent**: scoring is per-row
//! deterministic regardless of batch composition, and Thompson draws are
//! stateless per `(seed, item)` (see [`thompson_draw`]), so coalescing —
//! and catalogue sharding — never changes what any client receives.
//!
//! # Sharded tier
//!
//! When one catalogue outgrows one process, [`shard`] partitions it into
//! contiguous GEMM-panel-aligned column ranges and [`router`] puts a
//! scatter-gather front end over the per-shard daemons. The router
//! speaks the same [`wire`] protocol on both sides, so clients cannot
//! tell it from a single whole-catalogue daemon — down to the bit
//! pattern of every score:
//!
//! ```text
//!              clients (same newline-JSON wire protocol)
//!                 │ recommend / health / stats / ping
//!                 ▼
//!  ┌─────────────────────────────┐   admission control (inflight cap),
//!  │        router::serve        │   typed errors: overloaded,
//!  │  scatter ─► every shard     │   partial_result, timeout,
//!  │  gather  ─► k-way merge     │   unsupported_version
//!  └──┬─────────┬─────────┬─────┘
//!     │ persistent, pipelined, reconnect-with-backoff links
//!     │ (net conns too: one scatter flush per client read)
//!     ▼         ▼         ▼
//!  ┌───────┐ ┌───────┐ ┌───────┐   each daemon serves one contiguous
//!  │shard 0│ │shard 1│ │shard 2│   GEMM_NC-aligned item range
//!  │ [0,n₀)│ │[n₀,n₁)│ │[n₁,N) │   (ShardView; global ids on the wire)
//!  └───────┘ └───────┘ └───────┘
//! ```
//!
//! The alignment is what buys bit-identity: a shard's packed factor
//! panel is byte-identical to the corresponding slice of the full
//! catalogue's packed panel, and [`shard::merge_top_n`] uses the exact
//! total order of the single-process ranking (score descending, ties to
//! the lower item id).
//!
//! # Replicated groups and failover
//!
//! Each shard range can be served by a **replica group** — several
//! daemons holding the same slice of the same checkpoint — and the
//! router then routes each scatter to one healthy replica per range
//! (least-loaded, ties to the lowest index: a pure function, so drills
//! reproduce):
//!
//! ```text
//!                         router::serve
//!        range 0 ────────────┐        range 1 ──────────┐
//!        ▼                   ▼        ▼                 ▼
//!  ┌───────────┐      ┌───────────┐  ┌───────────┐ ┌───────────┐
//!  │ replica 0 │      │ replica 1 │  │ replica 0 │ │ replica 1 │
//!  │  [0, n₀)  │      │  [0, n₀)  │  │ [n₀, N)   │ │ [n₀, N)   │
//!  └───────────┘      └───────────┘  └───────────┘ └───────────┘
//!     twin daemons, same slice + epoch; scatter goes to ONE of them
//! ```
//!
//! Scoring is a pure, deterministic read, so a request whose link dies
//! mid-flight (or times out) is **transparently retried** on a surviving
//! replica of the same range under a bounded per-request retry budget —
//! duplicate replies carry identical bits, the first one wins. A typed
//! [`wire::CODE_PARTIAL_RESULT`] refusal — never a silently truncated
//! ranking and never a hang — surfaces only when *every* replica of a
//! range is down. Replicas of a group must serve the same checkpoint
//! epoch: a divergent replica is quarantined (typed
//! [`wire::CODE_EPOCH_MISMATCH`] diagnostics, `epoch_refusals` counter)
//! rather than allowed to mix factors from two trainings into one
//! ranking, and the pin resets when a whole group goes down so a
//! rolling restart onto a new checkpoint recovers. `health`/`stats`
//! aggregate per-replica reports (dead replicas, dead ranges, epoch
//! skew, failover/retry counters) for diagnostics, and [`faults`]
//! provides the seeded fault-injection layer (`delay` / `drop` /
//! `close` / `panic` at scripted request ordinals, plus `truncate` /
//! `corrupt` / `enospc` on a separate artifact-write counter) that makes
//! the failover and recovery paths deterministically testable — off in
//! release paths.
//!
//! # Self-healing fleet: supervision
//!
//! Failover keeps traffic flowing while a replica is down; [`supervise`]
//! is what brings the replica *back*. One supervisor process owns the
//! whole fleet as child processes, declared once as
//! [`supervise::ReplicaSpec`]s (`bpmf-train serve-fleet` on the CLI):
//!
//! ```text
//!                    serve::supervise (one process)
//!    SIGCHLD-aware reap loop · health probes · restart budgets
//!      │ spawn/respawn (argv verbatim → ORIGINAL ports)
//!      ▼
//!  ┌───────────┐ ┌───────────┐ ┌───────────┐ ┌───────────┐
//!  │ 0/2:7001  │ │ 0/2:7002  │ │ 1/2:7003  │ │ 1/2:7004  │  children
//!  └───────────┘ └───────────┘ └───────────┘ └───────────┘
//!      ▲ fixed replica addresses, so the router needs no re-config
//!  ┌───┴────────────────────────────────────────────────┐
//!  │ router::serve — failover bridges each restart gap  │
//!  └────────────────────────────────────────────────────┘
//! ```
//!
//! * **Reaping**: children are `waitpid`-ed promptly (a `SIGCHLD` flag
//!   short-cuts the poll tick), so a crashed replica never lingers as a
//!   zombie and its exit is observed within one tick.
//! * **Respawn on the original port**: the replica's argv is reused
//!   verbatim and the daemon binds with `SO_REUSEADDR`
//!   ([`net::bind_reuseaddr`]), so the address survives `TIME_WAIT`.
//!   The router's per-range group pinning re-admits the replica at the
//!   epoch it already pinned — recovery is client-invisible.
//! * **Restart budget**: each respawn waits a seeded, jittered
//!   exponential backoff ([`net::jittered_backoff`], one seed per
//!   replica — a fleet-wide crash does not respawn as a thundering
//!   herd). A replica charged `restart_limit` *consecutive* failures —
//!   exits or probe kills, without a healthy probe in between — is
//!   **quarantined** with a typed [`wire::CODE_CRASH_LOOP`] diagnostic
//!   instead of being restarted forever; a healthy probe refunds the
//!   budget, so a slow memory leak that crashes daily never accumulates
//!   into quarantine.
//! * **Health probes**: a running child is probed over its own wire
//!   protocol (`ping`); `probe_failures` consecutive misses mean the
//!   process is alive but not serving (wedged accept loop, deadlock) —
//!   it is killed and charged like a crash.
//! * **Integrity gate**: before *every* (re)spawn the replica's
//!   checkpoint is re-verified ([`crate::checkpoint::read_checkpoint`];
//!   slabs carry per-section CRC32C the same way). A corrupt artifact
//!   quarantines the replica immediately with
//!   [`wire::CODE_CORRUPT_ARTIFACT`] — the one thing a self-healing
//!   loop must never do is resurrect a replica onto damaged state and
//!   serve garbage rankings that *look* healthy.
//!
//! Quarantine is deliberately terminal per supervisor run: budgets and
//! corrupt artifacts need an operator (or a fresh deploy) — an automatic
//! un-quarantine would just re-enter the crash loop.
//!
//! # Live models: RCU-style swap and rolling reload
//!
//! A daemon *owns* its model behind an epoch-stamped
//! [`crate::ModelHandle`] — an RCU-style atomic pointer — instead of
//! borrowing one for its whole life. Workers pin a guard per micro-batch
//! (read side: one atomic load, no lock on the scoring path); a
//! [`wire::CMD_RELOAD`] request loads + CRC-verifies a new checkpoint on
//! the *connection* thread, validates it against the running shard's
//! range, rebuilds the posterior, and publishes it with one pointer swap
//! (write side):
//!
//! ```text
//!   connection thread                      worker threads
//!   ─────────────────                      ──────────────
//!   reload v2.ckpt                         guard = handle.load()  ←─ pin
//!     read + CRC ✔                         … score micro-batch
//!     shard range ✔         swap           … on pinned version
//!     rebuild posterior ──────────▶ ptr    stale? re-pin, re-score,
//!     reply {model_epoch}                  THEN reply (never mixed)
//! ```
//!
//! Requests in flight during a swap finish against exactly one version —
//! a worker that observes the swap mid-batch re-pins and re-scores the
//! whole batch before replying, so every reply is bit-identical to the
//! old *or* the new model, never a blend; staleness is bounded by one
//! micro-batch. Zero requests are dropped or errored by a reload.
//!
//! The supervisor turns this into **fleet freshness**: when a replica's
//! checkpoint file changes on disk (a trainer finishing `--resume`d
//! warm-start iterations, for instance), it verifies the new artifact
//! first and then pushes `reload` across each replica *group* one
//! replica at a time — the router's failover covers the one briefly
//! mid-swap replica, and its health report flags the transient
//! intra-group epoch skew as an informational
//! [`wire::CODE_MODEL_RELOAD`] diagnostic (never `degraded`):
//!
//! ```text
//!   trainer ──writes──▶ v2.ckpt (shared path)
//!                         │ supervisor: stat poll → CRC verify
//!              ┌──────────┴──────────┐   then, one group at a time,
//!              ▼ reload              │   one replica at a time:
//!   ┌───────────┐ ┌───────────┐     ▼
//!   │ replica 0 │ │ replica 1 │   (next pass: replica 1, then
//!   │ epoch 100 │ │ epoch 60  │    the other group's replicas)
//!   └───────────┘ └───────────┘
//!       range keeps serving throughout; skew is SEV_INFO
//! ```
//!
//! Cold-start users ride the same owned-model surface:
//! [`wire::CMD_FOLD_IN`] folds a brand-new user's ratings into the
//! *served* posterior with one conjugate kernel call
//! ([`crate::Recommender::fold_in_user`], item factors fixed) and
//! returns their factors plus a ranked list — milliseconds, no retrain,
//! deterministic.
//!
//! ```
//! use bpmf::serve::{RankPolicy, RecommendService};
//! use bpmf::{Bpmf, NoCallback, TrainData, Trainer};
//! use bpmf_sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(4, 6);
//! for (u, m, r) in [(0, 0, 5.0), (0, 1, 3.0), (1, 0, 4.0), (2, 2, 1.0), (3, 4, 2.0)] {
//!     coo.push(u, m, r);
//! }
//! let r = Csr::from_coo_owned(coo);
//! let rt = r.transpose();
//! let data = TrainData::try_new(&r, &rt, 3.0, &[]).unwrap();
//! let spec = Bpmf::builder().latent(2).burnin(2).samples(4).threads(1).build().unwrap();
//! let runner = spec.runner();
//! let mut trainer = spec.gibbs_trainer();
//! trainer.fit(&data, runner.as_ref(), &mut NoCallback).unwrap();
//!
//! let mut service = RecommendService::for_train_data(trainer.recommender().unwrap(), &data)
//!     .policy(RankPolicy::Mean);
//! let top = service.top_n(0, 3);
//! assert!(top.len() <= 3);
//! assert!(top.iter().all(|rec| rec.item != 0 && rec.item != 1), "seen items filtered");
//! ```

pub mod coalesce;
pub mod daemon;
pub mod faults;
pub mod net;
pub mod router;
pub mod shard;
pub mod supervise;
pub mod wire;

use std::str::FromStr;

use bpmf_sparse::Csr;
use bpmf_stats::{normal, Xoshiro256pp};

use crate::api::Recommender;
use crate::error::BpmfError;
use crate::sampler::TrainData;

/// How [`RecommendService::top_n`] orders candidates.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum RankPolicy {
    /// Rank by the posterior-mean (or point-estimate) prediction.
    #[default]
    Mean,
    /// Upper confidence bound: `mean + beta · std`. Surfaces items the
    /// posterior is uncertain about; models without uncertainty degrade to
    /// the mean.
    Ucb {
        /// Exploration weight on the posterior standard deviation.
        beta: f64,
    },
    /// Thompson sampling: one draw from `Normal(mean, std)` per candidate,
    /// ranked by the draw. Draws are stateless per `(seed, item)` — see
    /// [`thompson_draw`] — so rankings are deterministic given the seed
    /// and independent of batch composition or catalogue partitioning;
    /// models without uncertainty degrade to the mean.
    Thompson {
        /// Seed keying every candidate's draw.
        seed: u64,
    },
}

impl FromStr for RankPolicy {
    type Err = BpmfError;

    /// `mean` | `ucb` | `ucb:BETA` | `thompson` | `thompson:SEED`.
    fn from_str(s: &str) -> Result<Self, BpmfError> {
        let lower = s.to_ascii_lowercase();
        let (name, arg) = match lower.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (lower.as_str(), None),
        };
        match name {
            "mean" if arg.is_none() => Ok(RankPolicy::Mean),
            "ucb" => {
                let beta = match arg {
                    None => 1.0,
                    Some(a) => a
                        .parse::<f64>()
                        .ok()
                        .filter(|b| b.is_finite() && *b >= 0.0)
                        .ok_or_else(|| BpmfError::UnknownPolicy(s.to_string()))?,
                };
                Ok(RankPolicy::Ucb { beta })
            }
            "thompson" | "ts" => {
                let seed = match arg {
                    None => 42,
                    Some(a) => a
                        .parse::<u64>()
                        .map_err(|_| BpmfError::UnknownPolicy(s.to_string()))?,
                };
                Ok(RankPolicy::Thompson { seed })
            }
            _ => Err(BpmfError::UnknownPolicy(s.to_string())),
        }
    }
}

/// Users scored per `Recommender::score_block` call inside
/// [`RecommendService::recommend_batch`], derived from the GEMM kernel's
/// cache geometry rather than hand-picked: with the `KC × NC` B-panel
/// pinned in L2 by the kernel, the rest of a nominal 1 MiB L2 budget is
/// split between the user-factor panel (`B × KC` doubles) and the score
/// panel (`B × NC` doubles), giving
/// `B = (L2 − KC·NC·8) / ((KC + NC)·8)`, rounded down to a multiple of 8
/// for the kernel's row tiles. At KC = NC = 256 that lands on 128 users —
/// double the old hardcoded 64, and it now tracks any retuning of
/// [`bpmf_linalg::GEMM_KC`]/[`bpmf_linalg::GEMM_NC`] automatically. The
/// layered benchmark's traced `serve_sat` pass reports the batch the
/// daemon actually forms (`coalesce.mean_batch`) beside the per-request
/// batch cost, if this needs re-checking on new hardware.
pub const MICRO_BATCH: usize = {
    const L2_BUDGET_BYTES: usize = 1 << 20;
    const B: usize = (L2_BUDGET_BYTES - bpmf_linalg::GEMM_KC * bpmf_linalg::GEMM_NC * 8)
        / ((bpmf_linalg::GEMM_KC + bpmf_linalg::GEMM_NC) * 8);
    let aligned = B / 8 * 8;
    if aligned < 8 {
        8
    } else {
        aligned
    }
};

/// One ranked recommendation out of [`RecommendService::top_n`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Recommended item (movie) id.
    pub item: u32,
    /// The policy's ranking score (posterior-mean prediction under
    /// [`RankPolicy::Mean`]; includes the exploration term otherwise).
    pub score: f64,
}

/// One fully-resolved serving request inside a coalesced batch — the unit
/// the daemon's workers execute through
/// [`RecommendService::recommend_each`]. Per-request knobs (policy,
/// exclude-seen) have already been resolved against the daemon defaults by
/// the time one of these exists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeRequest {
    /// User to recommend for.
    pub user: u32,
    /// List length (must be ≥ 1).
    pub top_n: usize,
    /// Ranking policy for this request.
    pub policy: RankPolicy,
    /// Skip the user's already-rated items (no-op when the service has no
    /// training matrix attached).
    pub exclude_seen: bool,
}

/// A serving front-end over any fitted [`Recommender`].
///
/// Construct with [`RecommendService::new`] (or
/// [`RecommendService::for_train_data`], which wires up exclude-seen and
/// min-support from the training matrix), chain the builder-style filters,
/// then call [`RecommendService::top_n`] / [`RecommendService::score_batch`]
/// per request. The service owns its score scratch, so repeated requests
/// allocate nothing.
pub struct RecommendService<'a> {
    model: &'a dyn Recommender,
    n_items: usize,
    train: Option<&'a Csr>,
    exclude_seen: bool,
    allow: Option<Vec<bool>>,
    deny: Option<Vec<bool>>,
    min_support: u32,
    support: Option<Vec<u32>>,
    policy: RankPolicy,
    /// Global id of the service's first item: recommendations come back
    /// as `item_base + local index`, and Thompson draws are keyed by the
    /// global id. 0 except when serving one shard of a partitioned
    /// catalogue (see [`shard`]).
    item_base: u32,
    scores: Vec<f64>,
    stds: Vec<f64>,
    /// Micro-batch scratch: up to [`MICRO_BATCH`] score rows, grown on the
    /// first `recommend_batch` call and reused afterwards.
    block_scores: Vec<f64>,
}

impl<'a> RecommendService<'a> {
    /// Service over `model` with a catalogue of `n_items` items and no
    /// filtering. Prefer [`RecommendService::for_train_data`] when the
    /// training matrix is at hand.
    pub fn new(model: &'a dyn Recommender, n_items: usize) -> Self {
        // Catch a catalogue mismatch here, at construction, rather than as
        // a buffer-size panic inside `score_all` on the first request.
        if let Some(model_items) = model.num_items() {
            assert_eq!(
                model_items, n_items,
                "model scores {model_items} items but the service was built for {n_items}"
            );
        }
        RecommendService {
            model,
            n_items,
            train: None,
            exclude_seen: false,
            allow: None,
            deny: None,
            min_support: 0,
            support: None,
            policy: RankPolicy::Mean,
            item_base: 0,
            scores: vec![0.0; n_items],
            stds: Vec::new(),
            block_scores: Vec::new(),
        }
    }

    /// Service wired to the training data: catalogue size from the rating
    /// matrix, exclude-seen on, min-support counts available.
    ///
    /// Exclude-seen needs the resident rating matrix; when the data was
    /// trained out-of-core (no backing [`Csr`]), the service comes up
    /// without the seen-item filter — pair it with an explicit
    /// [`RecommendService::exclude_seen`] if the matrix is loadable.
    pub fn for_train_data(model: &'a dyn Recommender, data: &TrainData<'a>) -> Self {
        match data.r.as_csr() {
            Some(train) => Self::new(model, data.r.ncols()).exclude_seen(train),
            None => Self::new(model, data.r.ncols()),
        }
    }

    /// Exclude each user's already-rated items (rows of `train`) from
    /// recommendation. Also provides the per-item rating counts behind
    /// [`RecommendService::min_support`].
    pub fn exclude_seen(mut self, train: &'a Csr) -> Self {
        assert_eq!(train.ncols(), self.n_items, "train matrix catalogue size");
        self.train = Some(train);
        self.exclude_seen = true;
        self
    }

    /// Restrict recommendations to this candidate set.
    pub fn allow(mut self, items: &[u32]) -> Self {
        let mut mask = vec![false; self.n_items];
        for &m in items {
            mask[m as usize] = true;
        }
        self.allow = Some(mask);
        self
    }

    /// Never recommend these items (stacked on top of every other filter).
    pub fn deny(mut self, items: &[u32]) -> Self {
        let mask = self.deny.get_or_insert_with(|| vec![false; self.n_items]);
        for &m in items {
            mask[m as usize] = true;
        }
        self
    }

    /// Only recommend items with at least `n` training ratings. Requires a
    /// training matrix (see [`RecommendService::exclude_seen`]).
    ///
    /// # Panics
    ///
    /// Panics if no training matrix was attached.
    pub fn min_support(mut self, n: u32) -> Self {
        let train = self
            .train
            .expect("min_support needs the training matrix (call exclude_seen first)");
        if self.support.is_none() {
            let mut counts = vec![0u32; self.n_items];
            for (_, j, _) in train.iter() {
                counts[j as usize] += 1;
            }
            self.support = Some(counts);
        }
        self.min_support = n;
        self
    }

    /// Select the ranking policy.
    pub fn policy(mut self, policy: RankPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Serve a *shard*: the model's local item 0 is global item `base`.
    /// Recommendations come back with global ids, and Thompson draws are
    /// keyed by the global id, so a shard's lists splice bit-exactly into
    /// the whole-catalogue ranking (see [`shard`]).
    pub fn item_base(mut self, base: u32) -> Self {
        self.item_base = base;
        self
    }

    /// The model being served.
    pub fn model(&self) -> &dyn Recommender {
        self.model
    }

    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Batched prediction into a caller buffer: `out[i] = predict(user,
    /// items[i])`, via the model's gathered batch kernel. Raw predicted
    /// ratings — the ranking policy does not apply here.
    pub fn score_batch(&self, user: usize, items: &[u32], out: &mut [f64]) {
        self.model.score_batch(user, items, out);
    }

    /// Whole-catalogue scores for `user` (raw predictions, no filtering),
    /// computed into the service's scratch buffer.
    pub fn score_all(&mut self, user: usize) -> &[f64] {
        self.model.score_all(user, &mut self.scores);
        &self.scores
    }

    fn passes_static_filters(&self, item: usize) -> bool {
        if let Some(allow) = &self.allow {
            if !allow[item] {
                return false;
            }
        }
        if let Some(deny) = &self.deny {
            if deny[item] {
                return false;
            }
        }
        if self.min_support > 0 {
            if let Some(support) = &self.support {
                if support[item] < self.min_support {
                    return false;
                }
            }
        }
        true
    }

    /// Top-`n` recommendations for `user` under the configured policy and
    /// filters, sorted best-first (ties broken by ascending item id, so
    /// results are deterministic).
    ///
    /// Candidates are scored in one whole-catalogue batch; the selection
    /// keeps a bounded worst-out heap, so a top-10 over a million items
    /// does no full sort.
    pub fn top_n(&mut self, user: usize, n: usize) -> Vec<Recommendation> {
        assert!(n > 0, "top-n needs n >= 1");
        // The scratch is taken out for the duration of the scan so the
        // selection pass can borrow the service mutably (policy RNG, std
        // buffer) alongside the scores.
        let mut scores = std::mem::take(&mut self.scores);
        self.model.score_all(user, &mut scores);
        let top = self.select_top_n(user, n, &scores);
        self.scores = scores;
        top
    }

    /// Serve a batch of heterogeneous requests — each with its own policy
    /// and exclude-seen choice — scoring [`MICRO_BATCH`] users per
    /// `Recommender::score_block` call exactly like
    /// [`RecommendService::recommend_batch`]. This is the execution path
    /// of the serving daemon's coalesced batches.
    ///
    /// Every request's result is exactly what a fresh service would
    /// return from a single [`RecommendService::top_n`] call — Thompson
    /// draws are stateless per `(seed, item)` ([`thompson_draw`]), so
    /// results are independent of arrival order, batch composition, and
    /// whatever the service served before. (That per-request determinism
    /// is what lets the daemon coalesce traffic without changing any
    /// client's answer.) Results come back in `reqs` order.
    pub fn recommend_each(&mut self, reqs: &[ServeRequest]) -> Vec<Vec<Recommendation>> {
        let n_items = self.n_items;
        let mut block = std::mem::take(&mut self.block_scores);
        let mut users = Vec::with_capacity(MICRO_BATCH.min(reqs.len()));
        let mut out = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(MICRO_BATCH) {
            block.resize(chunk.len() * n_items, 0.0);
            users.clear();
            users.extend(chunk.iter().map(|r| r.user));
            self.model.score_block(&users, &mut block);
            for (i, req) in chunk.iter().enumerate() {
                assert!(req.top_n > 0, "top-n needs n >= 1");
                let row = &block[i * n_items..(i + 1) * n_items];
                out.push(self.select_for(
                    req.user as usize,
                    req.top_n,
                    row,
                    req.policy,
                    req.exclude_seen,
                ));
            }
        }
        self.block_scores = block;
        out
    }

    /// Top-`n` lists for a **block** of users — the multi-user micro-batch
    /// serving path of the roadmap's heavy-traffic north star.
    ///
    /// Users are scored [`MICRO_BATCH`] at a time through one
    /// `Recommender::score_block` call per block (factor models: one
    /// register-tiled GEMM streaming the catalogue once for the whole
    /// block), then each user's list is selected under the same policy
    /// and filters as [`RecommendService::top_n`]. Rankings match
    /// per-user `top_n` calls up to floating-point rounding: the block
    /// path scores
    /// through the GEMM while `top_n` scores through the transposed scan,
    /// which re-associate sums differently, so two candidates whose
    /// scores agree to ~1e-13 relative could in principle swap ranks.
    /// Results come back in `users` order.
    pub fn recommend_batch(&mut self, users: &[u32], n: usize) -> Vec<Vec<Recommendation>> {
        assert!(n > 0, "top-n needs n >= 1");
        let n_items = self.n_items;
        let mut block = std::mem::take(&mut self.block_scores);
        let mut out = Vec::with_capacity(users.len());
        for chunk in users.chunks(MICRO_BATCH) {
            block.resize(chunk.len() * n_items, 0.0);
            self.model.score_block(chunk, &mut block);
            for (i, &user) in chunk.iter().enumerate() {
                let row = &block[i * n_items..(i + 1) * n_items];
                out.push(self.select_top_n(user as usize, n, row));
            }
        }
        self.block_scores = block;
        out
    }

    /// Policy scoring + filtering + bounded top-`n` selection over an
    /// already-computed whole-catalogue score row, under the service-wide
    /// policy and filters.
    fn select_top_n(&mut self, user: usize, n: usize, scores: &[f64]) -> Vec<Recommendation> {
        let (policy, exclude_seen) = (self.policy, self.exclude_seen);
        self.select_for(user, n, scores, policy, exclude_seen)
    }

    /// Selection under explicit per-request policy and filters.
    fn select_for(
        &mut self,
        user: usize,
        n: usize,
        scores: &[f64],
        policy: RankPolicy,
        exclude_seen: bool,
    ) -> Vec<Recommendation> {
        // Uncertainty-aware policies take one batched std scan up front
        // instead of a per-candidate `predict_with_uncertainty` round trip
        // (which would recompute every mean only to discard it).
        let has_std = if policy == RankPolicy::Mean {
            false
        } else {
            self.stds.resize(self.n_items, 0.0);
            self.model.uncertainty_all(user, &mut self.stds)
        };
        let seen: &[u32] = match (exclude_seen, self.train) {
            (true, Some(train)) => train.row(user).0,
            _ => &[],
        };

        // Bounded selection: `heap` holds the current top candidates,
        // worst-first (entry 0 is the weakest of the kept set).
        let mut heap: Vec<Recommendation> = Vec::with_capacity(n + 1);
        for (item, &mean) in scores.iter().enumerate().take(self.n_items) {
            if !self.passes_static_filters(item) {
                continue;
            }
            if !seen.is_empty() && seen.binary_search(&(item as u32)).is_ok() {
                continue;
            }
            let std = if has_std { self.stds[item] } else { 0.0 };
            let global = self.item_base + item as u32;
            let score = match policy {
                RankPolicy::Mean => mean,
                RankPolicy::Ucb { beta } => mean + beta * std,
                RankPolicy::Thompson { seed } => thompson_draw(seed, global as u64, mean, std),
            };
            let cand = Recommendation {
                item: global,
                score,
            };
            if heap.len() < n {
                heap.push(cand);
                sift_up(&mut heap);
            } else if better(&cand, &heap[0]) {
                heap[0] = cand;
                sift_down(&mut heap);
            }
        }
        // Worst-first heap → best-first list.
        heap.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.item.cmp(&b.item))
        });
        heap
    }
}

/// The Thompson score for one candidate: a single draw from
/// `Normal(mean, std)` on a stream keyed by `(seed, item)`.
///
/// Draws are **stateless per item**: each candidate's stream is derived
/// from the policy seed and the item's *global* id, never from how many
/// candidates were scored before it. This is what makes Thompson
/// rankings independent of batch composition, arrival order, *and
/// catalogue partitioning* — a shard scoring items `[lo, hi)` produces
/// for item `j` exactly the draw the whole-catalogue daemon produces,
/// which the sharded serving tier's byte-identity gate rests on.
///
/// The item id is mixed with the 64-bit golden ratio before keying, so
/// neighbouring items land on well-separated seeds (which the seeding
/// splitmix then expands to full state).
pub fn thompson_draw(seed: u64, item: u64, mean: f64, std: f64) -> f64 {
    let key = seed ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    normal(&mut Xoshiro256pp::seed_from_u64(key), mean, std)
}

/// `a` outranks `b`: higher score wins, ties go to the smaller item id.
fn better(a: &Recommendation, b: &Recommendation) -> bool {
    match a.score.total_cmp(&b.score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.item < b.item,
    }
}

/// Restore the min-heap ("worst at the root") after a push.
fn sift_up(heap: &mut [Recommendation]) {
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if better(&heap[parent], &heap[i]) {
            heap.swap(parent, i);
            i = parent;
        } else {
            break;
        }
    }
}

/// Restore the min-heap after replacing the root.
fn sift_down(heap: &mut [Recommendation]) {
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut worst = i;
        if l < heap.len() && better(&heap[worst], &heap[l]) {
            worst = l;
        }
        if r < heap.len() && better(&heap[worst], &heap[r]) {
            worst = r;
        }
        if worst == i {
            return;
        }
        heap.swap(i, worst);
        i = worst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_linalg::Mat;
    use bpmf_sparse::Coo;

    /// Deterministic scorer: `predict(u, m) = base[m]` (user-independent).
    struct FixedScores {
        base: Vec<f64>,
    }

    impl Recommender for FixedScores {
        fn predict(&self, _user: usize, movie: usize) -> f64 {
            self.base[movie]
        }
    }

    fn train_matrix() -> Csr {
        // 2 users × 6 items; user 0 has seen items 0 and 3; item 5 has no
        // ratings at all (support 0), items 0..=4 have one or two.
        let mut coo = Coo::new(2, 6);
        coo.push(0, 0, 4.0);
        coo.push(0, 3, 3.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 4, 2.0);
        Csr::from_coo_owned(coo)
    }

    #[test]
    fn top_n_orders_by_score_and_excludes_seen() {
        let model = FixedScores {
            base: vec![9.0, 1.0, 5.0, 8.0, 3.0, 7.0],
        };
        let train = train_matrix();
        let mut service = RecommendService::new(&model, 6).exclude_seen(&train);
        let top = service.top_n(0, 3);
        // Items 0 and 3 are seen; best remaining: 5 (7.0), 2 (5.0), 4 (3.0).
        assert_eq!(
            top.iter().map(|r| r.item).collect::<Vec<_>>(),
            vec![5, 2, 4]
        );
        assert_eq!(top[0].score, 7.0);
    }

    #[test]
    fn allow_deny_and_min_support_filter() {
        let model = FixedScores {
            base: vec![9.0, 8.0, 7.0, 6.0, 5.0, 10.0],
        };
        let train = train_matrix();
        let mut service = RecommendService::new(&model, 6)
            .exclude_seen(&train)
            .min_support(1) // kills items 1, 2, 5 (no training ratings)
            .deny(&[3])
            .allow(&[2, 3, 4]);
        let top = service.top_n(0, 6);
        // user 0 saw 0 and 3 → seen removes them anyway; allow keeps
        // {2,3,4}; deny removes 3; min-support removes 2. Only 4 survives.
        assert_eq!(top.iter().map(|r| r.item).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn ties_break_by_item_id() {
        let model = FixedScores { base: vec![1.0; 8] };
        let mut service = RecommendService::new(&model, 8);
        let top = service.top_n(0, 3);
        assert_eq!(
            top.iter().map(|r| r.item).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn policies_parse_and_reject() {
        assert_eq!("mean".parse::<RankPolicy>().unwrap(), RankPolicy::Mean);
        assert_eq!(
            "ucb".parse::<RankPolicy>().unwrap(),
            RankPolicy::Ucb { beta: 1.0 }
        );
        assert_eq!(
            "UCB:0.5".parse::<RankPolicy>().unwrap(),
            RankPolicy::Ucb { beta: 0.5 }
        );
        assert_eq!(
            "thompson:7".parse::<RankPolicy>().unwrap(),
            RankPolicy::Thompson { seed: 7 }
        );
        assert!(matches!(
            "argmax".parse::<RankPolicy>(),
            Err(BpmfError::UnknownPolicy(_))
        ));
        assert!(matches!(
            "ucb:-1".parse::<RankPolicy>(),
            Err(BpmfError::UnknownPolicy(_))
        ));
    }

    #[test]
    fn thompson_is_deterministic_per_seed_and_explores() {
        // A posterior model with genuine spread: Thompson must reproduce
        // exactly per seed and differ across seeds.
        let u = Mat::from_fn(2, 2, |_, j| 0.3 + j as f64 * 0.1);
        let v = Mat::from_fn(6, 2, |i, j| 0.2 + (i * 2 + j) as f64 * 0.05);
        let u2 = Mat::from_fn(2, 2, |i, j| {
            let m = 0.3 + j as f64 * 0.1;
            m * m + 0.2 + i as f64 * 0.0
        });
        let v2 = Mat::from_fn(6, 2, |i, j| {
            let m = 0.2 + (i * 2 + j) as f64 * 0.05;
            m * m + 0.2
        });
        let model = crate::PosteriorModel::from_factors(u, v, Some((u2, v2)), 3.0, None, 8);
        let run = |seed: u64| {
            let mut service =
                RecommendService::new(&model, 6).policy(RankPolicy::Thompson { seed });
            service.top_n(0, 6)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b, "same seed, same ranking");
        let c = run(10);
        // Scores are draws: different seeds must produce different scores.
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.score != y.score),
            "different seeds should explore differently"
        );
    }
}
