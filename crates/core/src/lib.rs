#![warn(missing_docs)]

//! # bpmf — Distributed Bayesian Probabilistic Matrix Factorization
//!
//! A from-scratch Rust reproduction of *"Distributed Bayesian Probabilistic
//! Matrix Factorization"* (Vander Aa, Chakroun, Haber — IEEE CLUSTER 2016):
//! the BPMF Gibbs sampler of Salakhutdinov & Mnih engineered for multi-core
//! and distributed execution.
//!
//! ## What lives here
//!
//! * the **unified recommender API** — [`Bpmf::builder`] (one fluent,
//!   validated configuration), the [`Trainer`] and [`Recommender`] traits
//!   (one `fit`/`predict` facade shared by Gibbs here and the ALS/SGD
//!   baselines in `bpmf-baselines`), [`FitReport`] (one report shape so
//!   RMSE/timing curves from all three algorithms are directly
//!   comparable), [`IterCallback`] (per-iteration stats streaming,
//!   checkpoint snapshots, early stop), and typed [`BpmfError`]s instead
//!   of panics;
//! * [`GibbsSampler`] — the sampler itself: Normal–Wishart hyperparameter
//!   resampling, per-item conditional updates, RMSE tracking with posterior
//!   averaging. It and every distributed rank run one chain step in
//!   Algorithm 1's order, differing only in three seams: the hyper draw's
//!   sufficient statistics (every row, or a rank's own rows all-reduced),
//!   the sweep (over an [`bpmf_sched::ItemRunner`], or a rank's own rows
//!   with the item exchange) and the squared errors (as is, or
//!   all-reduced). The Gibbs, distributed and SGLD chains share one
//!   posterior accumulator (burn-in gate, factor means and second moments,
//!   test predictions, the per-iteration RMSE pair), and the two sweeping
//!   chains share one per-item draw;
//! * the three item-update kernels of the paper's Fig. 2 — the light
//!   kernel ([`UpdateMethod::RankOne`], an exact low-rank draw in the
//!   prior's whitened coordinates), [`UpdateMethod::CholSerial`] and
//!   [`UpdateMethod::CholParallel`] — plus the adaptive selection rule;
//! * multicore execution over any [`bpmf_sched::ItemRunner`] — work-stealing
//!   (TBB-like), static chunks (OpenMP-like) or the GraphLab-like vertex
//!   engine ([`EngineKind`]);
//! * distributed BPMF ([`distributed`]): the Gibbs chain step with
//!   ranked seams over the message-passing runtime — workload-model
//!   partitioning, cross-rank item exchange with buffered asynchronous
//!   sends, barrier-free phase alignment via per-source quotas, Fig. 5
//!   overlap accounting — and the [`DistributedTrainer`] facade adapter
//!   ([`Algorithm::Distributed`]) with end-of-run posterior-factor
//!   gathering for serving;
//! * the serving layer ([`serve`]) — [`serve::RecommendService`]: batched
//!   scoring through the blocked linalg kernels, top-N recommendation with
//!   candidate filtering (exclude-seen, allow/deny lists, min-support),
//!   uncertainty-aware ranking policies (mean / UCB / Thompson), and the
//!   persistent serving daemon ([`serve::daemon`]): concurrent TCP
//!   requests coalesced ([`serve::coalesce`]) into GEMM micro-batches
//!   behind a newline-delimited JSON protocol ([`serve::wire`]), with
//!   [`serve::supervise`] keeping the replica fleet itself alive
//!   (respawn under restart budgets, quarantine on crash loops or
//!   checksum-corrupt artifacts) and fresh (rolling zero-downtime
//!   model reloads, one replica per group at a time, when a served
//!   checkpoint changes on disk); daemons own their model through an
//!   epoch-stamped swappable [`ModelHandle`] and answer cold-start
//!   users live via [`Recommender::fold_in_user`];
//! * [`FeatureSideInfo`] — Macau-style side information (the paper's
//!   reference \[6\]): per-item features shift the prior mean through a
//!   Gibbs-sampled link matrix, closing the ChEMBL cold-start gap;
//! * [`diagnostics`] — effective sample size, autocorrelation, and the
//!   Gelman–Rubin R̂ for validating that every execution mode samples the
//!   same posterior (the formal version of §V-B's accuracy-parity claim);
//! * [`checkpoint`] — bit-exact save/resume of a running chain, including
//!   the side-information link state.
//!
//! ## Quickstart
//!
//! Configuration goes through one fluent builder; training goes through
//! the [`Trainer`] trait; the fitted [`Recommender`] serves predictions
//! (clamped to the rating scale when bounds are set):
//!
//! ```
//! use bpmf::{Bpmf, EngineKind, NoCallback, Recommender, TrainData, Trainer};
//! use bpmf_sparse::{Coo, Csr};
//!
//! // Toy 4×3 rating matrix.
//! let mut coo = Coo::new(4, 3);
//! for (u, m, r) in [(0, 0, 5.0), (0, 1, 3.0), (1, 0, 4.0), (2, 2, 1.0), (3, 1, 2.0)] {
//!     coo.push(u, m, r);
//! }
//! let r = Csr::from_coo_owned(coo);
//! let rt = r.transpose();
//! let test = vec![(1u32, 1u32, 3.0)];
//! let data = TrainData::try_new(&r, &rt, 3.0, &test)?;
//!
//! let spec = Bpmf::builder()
//!     .latent(4)
//!     .burnin(5)
//!     .samples(10)
//!     .engine(EngineKind::WorkStealing)
//!     .threads(1)
//!     .rating_bounds(1.0, 5.0)
//!     .build()?;
//! let runner = spec.runner();
//! let mut trainer = spec.gibbs_trainer();
//! let report = trainer.fit(&data, runner.as_ref(), &mut NoCallback)?;
//! assert!(report.final_rmse().is_finite());
//!
//! let model = trainer.recommender().expect("fitted");
//! let p = model.predict(1, 1);
//! assert!((1.0..=5.0).contains(&p));
//!
//! // …and serve it: batched scoring + filtered top-N through the
//! // `serve::RecommendService` front-end (exclude already-rated items,
//! // rank by posterior mean / UCB / Thompson sampling).
//! use bpmf::serve::{RankPolicy, RecommendService};
//! let mut service = RecommendService::for_train_data(model, &data)
//!     .policy(RankPolicy::Ucb { beta: 0.5 });
//! for rec in service.top_n(1, 2) {
//!     assert_ne!(rec.item, 0, "user 1 already rated movie 0");
//! }
//!
//! // Heavy traffic? Serve whole request blocks: `recommend_batch` scores
//! // a block of users with one register-tiled GEMM per [`serve::MICRO_BATCH`]-user
//! // micro-batch (one streaming pass over the catalogue for the whole
//! // block) and returns each user's list, identical to per-user `top_n`.
//! let lists = service.recommend_batch(&[0, 1, 2], 2);
//! assert_eq!(lists.len(), 3);
//! let direct = service.top_n(1, 2);
//! assert!(lists[1].iter().zip(&direct).all(|(a, b)| a.item == b.item));
//!
//! // Genuinely concurrent traffic? Keep the model resident behind the
//! // serving daemon: requests arriving over TCP (newline-delimited JSON)
//! // are *coalesced* into those same GEMM micro-batches — a free worker
//! // takes everything pending, up to `serve::MICRO_BATCH` — and each
//! // reply is routed back to its connection. `bpmf-train
//! // serve-daemon` wraps
//! // exactly this; see `serve::daemon` for the architecture.
//! use bpmf::serve::daemon::{self, DaemonConfig, ServingModel};
//! use bpmf::serve::wire;
//! use bpmf::ModelHandle;
//! use std::io::{BufRead as _, BufReader, Write as _};
//! use std::sync::atomic::{AtomicBool, Ordering};
//!
//! // The daemon *owns* its model through an epoch-stamped, swappable
//! // `ModelHandle` (RCU-style atomic pointer) instead of borrowing it
//! // for life — that's what makes live reload below possible.
//! let world = ServingModel {
//!     model: ModelHandle::new(trainer.shared_model().expect("fitted"), 1),
//!     train: Some(&r),
//!     n_users: r.nrows(),
//!     n_items: r.ncols(),
//!     shard: None,
//!     reload: None, // daemon::ReloadContext enables the `reload` command
//! };
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let stop = AtomicBool::new(false);
//! std::thread::scope(|s| {
//!     let daemon = s.spawn(|| daemon::serve(&world, listener, &DaemonConfig::default(), &stop));
//!     let mut conn = std::net::TcpStream::connect(addr).unwrap();
//!     writeln!(conn, "{}", wire::encode(&wire::Request::recommend(7, 1))).unwrap();
//!     let mut reply = String::new();
//!     BufReader::new(conn.try_clone().unwrap()).read_line(&mut reply).unwrap();
//!     let resp = wire::decode_response(&reply).unwrap();
//!     assert!(resp.error.is_none() && resp.id == 7);
//!     stop.store(true, Ordering::Relaxed); // SIGINT in the CLI
//!     daemon.join().unwrap().unwrap(); // drains in-flight batches
//! });
//!
//! // Models go stale while the daemon runs. Publish a fresh posterior
//! // with `swap`: new micro-batches score against it immediately, while
//! // a worker that already pinned a guard finishes its batch on the old
//! // version — every reply is computed entirely against exactly one
//! // model, never a half-swapped mix. Over the wire,
//! // `{"cmd":"reload","path":"v2.ckpt"}` (CLI: `serve-client --reload
//! // v2.ckpt`) does exactly this after CRC + shard validation, with
//! // zero dropped requests.
//! let pinned = world.model.load();
//! world.model.swap(trainer.shared_model().expect("fitted"), 2);
//! assert_eq!((pinned.epoch(), world.model.epoch()), (1, 2));
//! assert!(!world.model.is_current(&pinned)); // reader drains, then re-pins
//!
//! // Cold-start: a user who signed up *after* training still gets a
//! // personalised list — one conjugate Gibbs kernel call folds their
//! // ratings in against the fixed item factors, served in milliseconds
//! // with no retrain (wire: `{"cmd":"fold_in","ratings":[…]}`; CLI:
//! // `serve-client --fold-in '0:5.0,2:1.0'`).
//! let fold = world.model.load().model().fold_in_user(&[0, 2], &[5.0, 1.0]).unwrap();
//! assert_eq!(fold.factors.len(), 4); // K posterior-mean factors
//! assert_eq!(fold.scores.len(), r.ncols()); // ready to rank
//!
//! // Catalogue outgrew one process? Shard it: each `ShardView` serves a
//! // contiguous GEMM-panel-aligned item range (global ids in replies),
//! // and `merge_top_n` k-way-merges the per-shard lists with the exact
//! // tie-break order of the single-process ranking — so the sharded
//! // answer is bit-identical to the whole-catalogue one. `bpmf-train
//! // serve-daemon --shard i/N` plus `serve-router` run exactly this
//! // split over TCP; see `serve::router` for the scatter-gather side.
//! use bpmf::serve::shard::{merge_top_n, shard_ranges, slice_train_columns, ShardView};
//! use bpmf::serve::wire::RankedItem;
//! let whole = service.top_n(1, 2);
//! let model = trainer.shared_model().expect("fitted");
//! let per_shard: Vec<Vec<RankedItem>> = shard_ranges(r.ncols(), 2)
//!     .into_iter()
//!     .map(|(lo, hi)| {
//!         let view = ShardView::new(model.clone(), lo, hi);
//!         let local = slice_train_columns(&r, lo, hi);
//!         RecommendService::new(&view, hi - lo)
//!             .exclude_seen(&local)
//!             .policy(RankPolicy::Ucb { beta: 0.5 })
//!             .item_base(lo as u32)
//!             .top_n(1, 2)
//!             .into_iter()
//!             .map(RankedItem::from)
//!             .collect()
//!     })
//!     .collect();
//! let merged = merge_top_n(&per_shard, 2);
//! assert!(whole.iter().zip(&merged).all(|(a, b)| {
//!     a.item == b.item && a.score.to_bits() == b.score.to_bits()
//! }));
//!
//! // Shards crash. Give each range a *replica group* instead of a single
//! // daemon: the router scatters each request to the least-loaded healthy
//! // replica and — because scoring is a pure read over an immutable
//! // posterior — transparently retries on the twin when a link dies
//! // mid-flight. Clients see zero errors and bit-identical rankings; a
//! // typed `partial_result` refusal appears only when EVERY replica of a
//! // range is down. `bpmf-train serve-router --shard-addr i/N@HOST:PORT`
//! // (repeated per replica) runs this fleet-side, and `serve::faults`
//! // scripts deterministic link failures for chaos drills.
//! use bpmf::serve::router::{self, RouterConfig};
//! use bpmf::serve::shard::ShardSpec;
//! let range = ServingModel {
//!     shard: Some(ShardSpec::for_shard(0, 1, r.ncols(), 1)),
//!     ..world
//! };
//! let twin_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let twin_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let group = vec![vec![
//!     twin_a.local_addr().unwrap().to_string(),
//!     twin_b.local_addr().unwrap().to_string(),
//! ]];
//! let front = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let front_addr = front.local_addr().unwrap();
//! let stop_a = AtomicBool::new(false);
//! let stop_b = AtomicBool::new(false);
//! let halt = AtomicBool::new(false);
//! std::thread::scope(|s| {
//!     s.spawn(|| daemon::serve(&range, twin_a, &DaemonConfig::default(), &stop_a));
//!     s.spawn(|| daemon::serve(&range, twin_b, &DaemonConfig::default(), &stop_b));
//!     let rt = s.spawn(|| router::serve(front, &group, &RouterConfig::default(), &halt));
//!     let ask = |user: u64| {
//!         let mut conn = std::net::TcpStream::connect(front_addr).unwrap();
//!         writeln!(conn, "{}", wire::encode(&wire::Request::recommend(user, user as u32))).unwrap();
//!         let mut reply = String::new();
//!         BufReader::new(conn).read_line(&mut reply).unwrap();
//!         wire::decode_response(&reply).unwrap()
//!     };
//!     // Replica links dial in asynchronously; recommends are refused
//!     // with a typed error until the range has a live replica.
//!     while ask(0).error.is_some() {
//!         std::thread::sleep(std::time::Duration::from_millis(10));
//!     }
//!     stop_a.store(true, Ordering::Relaxed); // one replica dies...
//!     assert!(ask(1).error.is_none()); // ...and no client notices
//!     halt.store(true, Ordering::Relaxed);
//!     rt.join().unwrap().unwrap();
//!     stop_b.store(true, Ordering::Relaxed);
//! });
//! # Ok::<(), bpmf::BpmfError>(())
//! ```
//!
//! Failover masks a replica death; [`serve::supervise`] *heals* it. One
//! supervisor process owns the whole fleet as children, reaps deaths
//! (SIGCHLD-aware, no zombies), respawns each replica on its original
//! port under a jittered restart budget, health-probes the survivors,
//! and — because every (re)spawn re-verifies the replica's checkpoint
//! checksum first — never resurrects a replica onto corrupt state.
//! `bpmf-train serve-fleet --replica i/N@HOST:PORT=CKPT … -- DAEMON ARGS`
//! wraps exactly this. A replica that keeps dying is quarantined with a
//! typed diagnostic rather than restarted forever:
//!
//! ```
//! use bpmf::serve::supervise::{supervise, ReplicaSpec, SuperviseConfig};
//! use bpmf::serve::wire;
//! use std::sync::atomic::AtomicBool;
//! use std::time::Duration;
//!
//! let crash_looper = ReplicaSpec {
//!     id: "0/1@127.0.0.1:7001".into(),
//!     addr: "127.0.0.1:7001".into(),
//!     // Normally `bpmf-train serve-daemon --shard 0/1 --addr …`; respawns
//!     // reuse this argv verbatim so the replica returns on its port.
//!     argv: vec!["/bin/sh".into(), "-c".into(), "exit 1".into()],
//!     checkpoint: None, // integrity-checked before every (re)spawn when set
//!     group: 0, // rolling reloads touch one replica per group at a time
//! };
//! let cfg = SuperviseConfig {
//!     restart_limit: 2,
//!     backoff_base: Duration::from_millis(2),
//!     backoff_max: Duration::from_millis(8),
//!     ..SuperviseConfig::default()
//! };
//! let mut events = Vec::new();
//! let report = supervise(
//!     &[crash_looper],
//!     &cfg,
//!     &AtomicBool::new(false), // the CLI wires SIGINT/SIGTERM to this
//!     &mut |d| events.push(d),
//! )?;
//! // Initial spawn + 2 budget-charged respawns, then quarantine — the
//! // supervisor returns on its own once nothing is left to supervise.
//! assert_eq!((report.spawns, report.quarantined), (3, 1));
//! assert!(events.iter().any(|d| d.code == wire::CODE_CRASH_LOOP));
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The same `fit` call trains ALS or SGD instead: pick the algorithm with
//! `.algorithm(Algorithm::Als)` and dispatch through
//! `bpmf_baselines::make_trainer(&spec)` — the CLI and the examples both go
//! through that one `Box<dyn Trainer>` path. The paper's
//! distributed sampler is behind the same facade:
//! `.algorithm(Algorithm::Distributed)` trains over a message-passing
//! universe with `threads` ranks ([`DistributedTrainer`]) and leaves the
//! same [`PosteriorModel`] behind for serving, as does SGLD
//! (`.algorithm(Algorithm::Sgmcmc)`). To observe training live
//! (or stop it early), pass an [`IterCallback`] closure instead of
//! [`NoCallback`] — or the stock [`Patience`] / [`WallClockBudget`]
//! early-stop policies.
//!
//! The legacy entry points ([`GibbsSampler::new`] + [`BpmfConfig`] struct
//! literals, panic-based validation) still work and now delegate to the
//! `try_*` variants internally.
//!
//! ## Out-of-core: pack → mmap → train → serve
//!
//! When the rating matrix outgrows RAM, pack it once into an on-disk CSR
//! slab (`bpmf-train pack --train r.mtx --out r.slab --test-out t.mtx`
//! wraps exactly this) and train straight off a read-only memory map.
//! [`TrainData`] holds `&dyn` [`RatingStore`], so the swap is invisible
//! to the samplers — the slab-backed Gibbs chain is **bit-identical** to
//! the in-RAM chain — and only the row-pointer tables live on the heap:
//! column indices and values stream through the page cache, which the
//! kernel can reclaim under memory pressure.
//!
//! ```
//! use bpmf::{BpmfConfig, EngineKind, GibbsSampler, MappedSlab, TrainData};
//! use bpmf_sparse::{slab_extents, write_slab, Coo, Csr};
//!
//! let mut coo = Coo::new(4, 3);
//! for (u, m, r) in [(0, 0, 5.0), (0, 1, 3.0), (1, 0, 4.0), (2, 2, 1.0), (3, 1, 2.0)] {
//!     coo.push(u, m, r);
//! }
//! let r = Csr::from_coo_owned(coo);
//! let rt = r.transpose();
//!
//! // `bpmf-train pack` writes this file format (both CSR orientations,
//! // 8-byte-aligned little-endian sections; see `bpmf_sparse::slab`).
//! let path = std::env::temp_dir().join(format!("bpmf-doc-{}.slab", std::process::id()));
//! let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
//! write_slab(&mut w, &r, &rt, 3.0, &slab_extents(&r, 2)).unwrap();
//! drop(w);
//!
//! // `bpmf-train --train r.slab --test t.mtx` opens it like this: two
//! // zero-copy CSR views (rating rows mmap'd, paged in on demand).
//! let slab = MappedSlab::open(&path).unwrap();
//! let (sr, srt) = (slab.r(), slab.rt());
//! let test = vec![(1u32, 1u32, 3.0)];
//! let data = TrainData::try_new(&sr, &srt, slab.global_mean(), &test).unwrap();
//! let cfg = BpmfConfig {
//!     num_latent: 4,
//!     burnin: 2,
//!     samples: 3,
//!     seed: 7,
//!     kernel_threads: 1,
//!     ..Default::default()
//! };
//! let runner = EngineKind::WorkStealing.build(1);
//! let mut sampler = GibbsSampler::new(cfg.clone(), data);
//! let report = sampler.run(runner.as_ref(), cfg.iterations());
//! assert!(report.final_rmse().is_finite());
//! // The posterior is an ordinary in-RAM model: checkpoint it, serve it
//! // through `RecommendService` or the daemon exactly as above.
//! # drop(slab);
//! # std::fs::remove_file(&path).unwrap();
//! ```
//!
//! Mini-batch SG-MCMC rides the same store abstraction: Stochastic
//! Gradient Langevin Dynamics ([`SgldSampler`]) draws rating mini-batches
//! from whichever store backs the run, trading the Gibbs sweep's
//! full-conditional pass for constant-size epochs. Select it through the
//! facade with `.algorithm(Algorithm::Sgmcmc).minibatch(10_000)` (CLI:
//! `--algorithm sgmcmc`), tune with `.sgld_step_size(…)` /
//! `.sgld_step_decay(…)`.

mod api;
mod callbacks;
mod chain;
pub mod checkpoint;
mod config;
pub mod diagnostics;
pub mod distributed;
mod engine;
mod error;
mod model;
mod posterior;
mod report;
mod sampler;
pub mod serve;
mod sgld;
mod sideinfo;
pub mod store;
mod update;

pub use api::{
    Algorithm, Bpmf, BpmfBuilder, FitControl, FitSnapshot, FoldIn, FoldInError, GibbsTrainer,
    IterCallback, ModelGuard, ModelHandle, NoCallback, NoSnapshot, PosteriorModel, Recommender,
    SideInfoSpec, Trainer,
};
pub use callbacks::{Patience, WallClockBudget};
pub use config::BpmfConfig;
pub use distributed::DistributedTrainer;
pub use engine::EngineKind;
pub use error::BpmfError;
pub use posterior::PredictionSummary;
pub use report::{FitReport, IterStats, TrainReport};
pub use sampler::{GibbsSampler, TrainData};
pub use sgld::{SgldConfig, SgldSampler};
pub use sideinfo::FeatureSideInfo;
pub use store::{store_row_weights, MappedSlab, RatingStore, SlabCsr};
pub use update::{
    choose_method, fold_in_mean, update_item, SidePrior, UpdateMethod, UpdateScratch,
};
