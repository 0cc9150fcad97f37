//! The persistent serving daemon: a TCP front-end over the request
//! coalescer (see the [`crate::serve`] module docs for the architecture
//! diagram).
//!
//! [`serve`] blocks the calling thread until shutdown is requested —
//! either by flipping the caller-owned `shutdown` flag (the CLI wires
//! SIGINT/ctrl-c to it) or by a client sending the
//! [`wire::CMD_SHUTDOWN`] command — then drains every request accepted
//! before the signal and returns a [`DaemonReport`]. All threads (worker
//! pool, one reader + one writer per connection) live inside one
//! [`std::thread::scope`].
//!
//! The model itself is *owned, not borrowed*: the daemon serves through
//! a [`ModelHandle`] (an RCU-style swappable `Arc`), which is what makes
//! [`wire::CMD_RELOAD`] possible — a connection thread loads and
//! CRC-verifies a new checkpoint **off the request path**, swaps it into
//! the handle, and workers pick it up at their next micro-batch without
//! dropping a single in-flight request (see `serve_batches` for the
//! consistency guarantee).

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use bpmf_sparse::Csr;

use crate::api::{FoldInError, ModelHandle, PosteriorModel, Recommender};
use crate::checkpoint::SamplerCheckpoint;
use crate::error::BpmfError;
use crate::serve::coalesce::{CoalesceConfig, Queue};
use crate::serve::faults::{FaultKind, FaultPlan};
use crate::serve::net::{self, ReadEnd};
use crate::serve::shard::{ShardSpec, ShardView};
use crate::serve::{wire, RankPolicy, RecommendService, ServeRequest};

/// Everything a [`wire::CMD_RELOAD`] needs that a raw
/// [`SamplerCheckpoint`] does not carry: the training-spec values
/// the daemon was originally configured with, so a rebuilt
/// [`PosteriorModel`] scores bit-identically to the trainer's own.
#[derive(Clone, Copy, Debug)]
pub struct ReloadContext {
    /// Global mean rating the factors were centred on.
    pub global_mean: f64,
    /// Rating clamp applied to predictions, if any.
    pub rating_bounds: Option<(f64, f64)>,
    /// Observation precision `alpha` (drives cold-start fold-in).
    pub alpha: f64,
}

/// Everything the daemon serves from: the live model handle plus the
/// training matrix for exclude-seen filtering and the
/// catalogue/user-count bounds requests are validated against.
pub struct ServingModel<'a> {
    /// The served model, behind a swappable handle: workers load it per
    /// micro-batch, so a [`wire::CMD_RELOAD`] takes effect without
    /// restarting anything.
    pub model: ModelHandle,
    /// Training ratings; enables per-request exclude-seen.
    pub train: Option<&'a Csr>,
    /// Number of users requests may address (`user < n_users`).
    pub n_users: usize,
    /// Catalogue size (score-row width). When sharded this is the local
    /// slice width, not the global catalogue.
    pub n_items: usize,
    /// When serving one slice of a partitioned catalogue, the slice this
    /// daemon owns. Item ids in replies are offset to global ids, and
    /// `health`/`stats` replies carry the spec so a router can check
    /// coverage and epoch agreement.
    pub shard: Option<ShardSpec>,
    /// Context for rebuilding a model from a checkpoint on
    /// [`wire::CMD_RELOAD`]. `None` disables reload with a typed error
    /// (the daemon cannot know what mean/bounds/alpha the checkpoint's
    /// factors assume).
    pub reload: Option<ReloadContext>,
}

/// Daemon knobs. `Default` coalesces without waiting: the one worker takes
/// everything pending, up to a [`crate::serve::MICRO_BATCH`]-request
/// block, as soon as it is free (window `0`); no fault injection.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Batching rules for the request queue.
    pub coalesce: CoalesceConfig,
    /// Worker threads executing batches (each owns a
    /// [`RecommendService`] over the shared model).
    pub workers: usize,
    /// Policy for requests that don't name one.
    pub default_policy: RankPolicy,
    /// List length for requests that don't give one.
    pub default_top_n: usize,
    /// Exclude-seen for requests that don't say (needs `train`).
    pub exclude_seen: bool,
    /// Scripted fault injection (`None` in production: the release path
    /// pays one `Option` check per recommend request). See
    /// [`crate::serve::faults`].
    pub faults: Option<FaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            coalesce: CoalesceConfig::default(),
            workers: 1,
            default_policy: RankPolicy::Mean,
            default_top_n: 10,
            exclude_seen: false,
            faults: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`serve`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with a ranking.
    pub requests: u64,
    /// `recommend_each` batches executed (`requests / batches` is the
    /// realized coalescing factor).
    pub batches: u64,
    /// Largest single batch.
    pub largest_batch: u64,
    /// Batches released because their oldest request waited out the
    /// coalescing window. Always 0 under the default zero window, where a
    /// free worker never waits.
    pub deadline_flushes: u64,
    /// Lines answered with a typed error (malformed, validation, or
    /// refused during shutdown).
    pub rejected: u64,
    /// Worker panics survived (a panicking scorer loses its current
    /// batch but never wedges the daemon; persistent panics trigger a
    /// fail-fast shutdown).
    pub worker_panics: u64,
    /// Scripted faults fired by [`DaemonConfig::faults`].
    pub faults_injected: u64,
    /// Live model swaps performed via [`wire::CMD_RELOAD`].
    pub reloads: u64,
    /// Cold-start users answered via [`wire::CMD_FOLD_IN`].
    pub fold_ins: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    rejected: AtomicU64,
    worker_panics: AtomicU64,
    faults_injected: AtomicU64,
    reloads: AtomicU64,
    fold_ins: AtomicU64,
}

/// One queued request: the resolved work plus the way home.
struct Job {
    id: u64,
    req: ServeRequest,
    reply: mpsc::Sender<wire::Response>,
    /// Fault injection: a poisoned job makes the worker panic before
    /// scoring its batch, exercising the `catch_unwind` recovery path on
    /// demand.
    poison: bool,
}

/// Run the daemon on `listener` until shutdown, then drain and report.
///
/// The listener may be bound to port 0; read the real address off
/// `listener.local_addr()` before calling. `shutdown` is observed within
/// [`net::POLL`] and may be flipped by a signal handler, another thread,
/// or a client's `shutdown` command (the daemon flips it itself in that
/// case).
pub fn serve(
    world: &ServingModel<'_>,
    listener: TcpListener,
    cfg: &DaemonConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<DaemonReport> {
    let queue: Queue<Job> = Queue::new(cfg.coalesce);
    let (queue, counters) = (&queue, &Counters::default());

    std::thread::scope(|s| {
        for _ in 0..cfg.workers.max(1) {
            s.spawn(|| worker_loop(world, queue, counters, shutdown));
        }
        let accepted = net::accept_loop(
            &listener,
            shutdown,
            |stream| {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                s.spawn(move || handle_connection(stream, world, cfg, queue, shutdown, counters));
            },
            || {},
        );
        // Stop accepting, drain everything already queued, let every
        // in-flight reply reach its socket (scope join waits for the
        // per-connection writers). An accept failure is fatal for new
        // traffic: the same drain runs, then the error surfaces.
        queue.shutdown();
        accepted
    })?;

    Ok(DaemonReport {
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        largest_batch: counters.largest_batch.load(Ordering::Relaxed),
        deadline_flushes: queue.flushes().deadline,
        rejected: counters.rejected.load(Ordering::Relaxed),
        worker_panics: counters.worker_panics.load(Ordering::Relaxed),
        faults_injected: counters.faults_injected.load(Ordering::Relaxed),
        reloads: counters.reloads.load(Ordering::Relaxed),
        fold_ins: counters.fold_ins.load(Ordering::Relaxed),
    })
}

/// Consecutive worker panics tolerated before the worker declares the
/// model unservable and fail-fasts the daemon.
const MAX_WORKER_PANICS: u64 = 3;

/// Worker: pull coalesced batches, execute them through one owned
/// [`RecommendService`], route each reply to its connection.
///
/// A panicking scorer must not wedge the daemon: if nobody drains the
/// queue, queued jobs keep their reply senders alive, writers block on
/// them, readers block joining writers, and the scope join never
/// completes. So the serving loop runs under `catch_unwind`: a panic
/// loses the batch in hand (its jobs drop unanswered, which unblocks
/// their writers) and the worker restarts with a fresh service; after
/// [`MAX_WORKER_PANICS`] the worker initiates shutdown and drains the
/// queue with typed error replies instead.
fn worker_loop(
    world: &ServingModel<'_>,
    queue: &Queue<Job>,
    counters: &Counters,
    shutdown: &AtomicBool,
) {
    let mut panics = 0;
    while panics < MAX_WORKER_PANICS {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_batches(world, queue, counters)
        }));
        match run {
            Ok(()) => return, // queue drained and shut down
            Err(_) => {
                counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                panics += 1;
            }
        }
    }
    // The model itself is broken (e.g. a scorer that always panics):
    // stop accepting, fail everything still queued, keep the join clean.
    shutdown.store(true, Ordering::Relaxed);
    queue.shutdown();
    while let Some(batch) = queue.next_batch() {
        counters
            .rejected
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for job in batch {
            let _ = job.reply.send(
                wire::Response::failure(
                    job.id,
                    job.req.user,
                    "internal error: serving worker failed",
                )
                .with_code(wire::CODE_INTERNAL),
            );
        }
    }
}

/// The actual serving loop (split out so [`worker_loop`] can restart it
/// after a panic with a freshly built service).
///
/// # Reload consistency
///
/// The worker pins one model version ([`ModelHandle::load`]) and builds
/// its [`RecommendService`] — and the `OnceLock`'d packed-factor caches
/// inside the model — against that pinned guard. Before *each*
/// micro-batch it re-checks [`ModelHandle::is_current`]: when a reload
/// has swapped the handle, the batch in hand is stashed, the service is
/// rebuilt over the fresh guard, and the stashed batch is served first.
/// Every batch is therefore scored **entirely under a single model
/// version** — each in-flight reply is bit-identical to what exactly one
/// of {old model, new model} would have produced — and staleness is
/// bounded by one micro-batch.
fn serve_batches(world: &ServingModel<'_>, queue: &Queue<Job>, counters: &Counters) {
    let mut reqs: Vec<ServeRequest> = Vec::new();
    // A batch pulled just as a reload landed: re-served (never dropped)
    // under the rebuilt service in the next outer-loop turn.
    let mut stashed: Option<Vec<Job>> = None;
    'model: loop {
        let guard = world.model.load();
        let mut service = RecommendService::new(guard.model(), world.n_items);
        if let Some(train) = world.train {
            service = service.exclude_seen(train);
        }
        if let Some(spec) = world.shard {
            // Local item `i` is global item `item_lo + i`: replies carry
            // global ids, and Thompson draws are keyed on them, so a
            // sharded reply splices bit-exactly into a full-catalogue
            // ranking.
            service = service.item_base(spec.item_lo);
        }
        loop {
            let batch = match stashed.take() {
                Some(b) => b,
                None => match queue.next_batch() {
                    Some(b) => b,
                    None => return,
                },
            };
            if batch.iter().any(|j| j.poison) {
                // Scripted panic-worker fault: dying *before* scoring
                // loses the batch in hand, exactly like a real scorer
                // panic, and `worker_loop`'s catch_unwind recovery takes
                // it from there.
                panic!("fault injection: poisoned batch");
            }
            if !world.model.is_current(&guard) {
                stashed = Some(batch);
                continue 'model;
            }
            reqs.clear();
            reqs.extend(batch.iter().map(|j| j.req));
            let lists = service.recommend_each(&reqs);
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters
                .largest_batch
                .fetch_max(batch.len() as u64, Ordering::Relaxed);
            counters
                .requests
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            for (job, list) in batch.into_iter().zip(lists) {
                // A send error just means the connection died first.
                let _ = job
                    .reply
                    .send(wire::Response::success(job.id, job.req.user, &list));
            }
        }
    }
}

/// One client connection: every line is answered through
/// [`process_line`]; an oversize line gets one typed error before the
/// connection closes.
fn handle_connection(
    stream: TcpStream,
    world: &ServingModel<'_>,
    cfg: &DaemonConfig,
    queue: &Queue<Job>,
    shutdown: &AtomicBool,
    counters: &Counters,
) {
    net::serve_connection(
        stream,
        shutdown,
        mpsc::channel(),
        |line, tx| process_line(line, world, cfg, queue, shutdown, counters, tx),
        |_| {},
        |end, tx| {
            if end == ReadEnd::Oversize {
                reply(counters, tx, wire::Response::line_too_long());
            }
        },
    );
}

/// Queue `resp` on the connection's writer; every error reply counts as
/// rejected.
fn reply(counters: &Counters, tx: &mpsc::Sender<wire::Response>, resp: wire::Response) {
    if resp.error.is_some() {
        counters.rejected.fetch_add(1, Ordering::Relaxed);
    }
    // A send error just means the connection died first.
    let _ = tx.send(resp);
}

/// Answer one protocol line. Returns `false` when the connection should
/// close (shutdown command).
fn process_line(
    line: &str,
    world: &ServingModel<'_>,
    cfg: &DaemonConfig,
    queue: &Queue<Job>,
    shutdown: &AtomicBool,
    counters: &Counters,
    tx: &mpsc::Sender<wire::Response>,
) -> bool {
    let req = match wire::admit(line, wire::ROLE_DAEMON) {
        Ok(req) => req,
        Err(refusal) => {
            reply(counters, tx, refusal);
            return true;
        }
    };
    let send = |resp| reply(counters, tx, resp);
    match req.cmd.as_str() {
        wire::CMD_PING => send(wire::Response::ack(req.id)),
        wire::CMD_HEALTH => send(wire::Response::health(
            req.id,
            health_report(world, counters),
        )),
        wire::CMD_STATS => send(wire::Response::stats(req.id, stats_report(world, counters))),
        wire::CMD_SHUTDOWN => {
            send(wire::Response::ack(req.id));
            shutdown.store(true, Ordering::Relaxed);
            return false;
        }
        // Runs on this connection's reader thread: checkpoint I/O, CRC
        // verification, and model rebuild all happen *off* the worker
        // pool's request path; only the final pointer swap is visible to
        // serving.
        wire::CMD_RELOAD => send(handle_reload(&req, world, counters)),
        wire::CMD_FOLD_IN => send(handle_fold_in(&req, world, cfg, counters)),
        "" | wire::CMD_RECOMMEND => {
            let user = req.user.unwrap_or(0);
            // Scripted fault, claimed per recommend request so ordinals
            // in a FaultPlan count client-visible traffic.
            let fault = cfg.faults.as_ref().and_then(FaultPlan::next);
            if fault.is_some() {
                counters.faults_injected.fetch_add(1, Ordering::Relaxed);
            }
            match fault {
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                // The reply is "lost on the wire": nothing is queued and
                // nothing answered — a router's timeout sweep must
                // notice.
                Some(FaultKind::DropReply) => return true,
                // The connection dies mid-request, unanswered — on a
                // router link this tears the link down and drives the
                // failover path.
                Some(FaultKind::CloseConnection) => return false,
                Some(FaultKind::PanicWorker) | None => {}
            }
            match resolve(&req, world, cfg) {
                Err(msg) => send(wire::Response::failure(req.id, user, msg)),
                Ok(resolved) => {
                    let job = Job {
                        id: req.id,
                        req: resolved,
                        reply: tx.clone(),
                        poison: fault == Some(FaultKind::PanicWorker),
                    };
                    if let Err(job) = queue.submit(job) {
                        send(
                            wire::Response::failure(
                                job.id,
                                job.req.user,
                                "daemon is shutting down",
                            )
                            .with_code(wire::CODE_SHUTTING_DOWN),
                        );
                    }
                }
            }
        }
        _ => send(wire::Response::unknown_cmd(&req)),
    }
    true
}

/// Validate a recommend request and resolve its blanks against the daemon
/// defaults. Every rejection here becomes a typed error reply.
fn resolve(
    req: &wire::Request,
    world: &ServingModel<'_>,
    cfg: &DaemonConfig,
) -> Result<ServeRequest, String> {
    let user = req.user.ok_or_else(|| "missing field `user`".to_string())?;
    if (user as usize) >= world.n_users {
        return Err(format!(
            "user {user} out of range ({} users)",
            world.n_users
        ));
    }
    let top_n = list_len(req, world, cfg);
    let policy = if req.policy.is_empty() {
        cfg.default_policy
    } else {
        req.policy
            .parse::<RankPolicy>()
            .map_err(|e| e.to_string())?
    };
    let exclude_seen = req.exclude_seen.unwrap_or(cfg.exclude_seen);
    if exclude_seen && world.train.is_none() {
        return Err("exclude_seen unavailable: daemon has no training matrix".to_string());
    }
    Ok(ServeRequest {
        user,
        top_n,
        policy,
        exclude_seen,
    })
}

/// The list length a request gets: its own `top_n`, else the daemon
/// default, clamped to the catalogue. A list can't be longer than the
/// catalogue anyway, and an absurd network-supplied value must not size
/// the selection heap (that would be a one-request memory DoS).
fn list_len(req: &wire::Request, world: &ServingModel<'_>, cfg: &DaemonConfig) -> usize {
    let asked = if req.top_n == 0 {
        cfg.default_top_n
    } else {
        req.top_n
    };
    asked.min(world.n_items).max(1)
}

/// Execute a [`wire::CMD_RELOAD`]: read + CRC-verify the checkpoint,
/// refuse anything whose shard layout or catalogue shape disagrees with
/// the running daemon (a typed error, never a silent catalogue change),
/// rebuild the model, and swap it in. Runs on a connection thread — the
/// worker pool never blocks on checkpoint I/O.
fn handle_reload(
    req: &wire::Request,
    world: &ServingModel<'_>,
    counters: &Counters,
) -> wire::Response {
    let id = req.id;
    let Some(ctx) = world.reload else {
        return wire::Response::failure(
            id,
            0,
            "reload unavailable: daemon was started without a reload context",
        );
    };
    if req.path.is_empty() {
        return wire::Response::failure(id, 0, "missing field `path`");
    }
    let ckpt = match crate::checkpoint::read_checkpoint(std::path::Path::new(&req.path)) {
        Ok(c) => c,
        Err(BpmfError::Integrity(msg)) => {
            return wire::Response::failure(id, 0, msg).with_code(wire::CODE_CORRUPT_ARTIFACT)
        }
        Err(e) => return wire::Response::failure(id, 0, format!("cannot read checkpoint: {e}")),
    };
    if let Err(msg) = validate_reload_shard(&ckpt, world) {
        return wire::Response::failure(id, 0, msg).with_code(wire::CODE_SHARD_MISMATCH);
    }
    let model =
        match PosteriorModel::from_checkpoint(&ckpt, ctx.global_mean, ctx.rating_bounds, ctx.alpha)
        {
            Ok(m) => m,
            Err(e) => {
                return wire::Response::failure(id, 0, format!("checkpoint unusable: {e}"))
                    .with_code(wire::CODE_CORRUPT_ARTIFACT)
            }
        };
    let model: Arc<dyn Recommender + Send + Sync> = match world.shard {
        // The view owns the full-catalogue model and serves this
        // daemon's slice of it, exactly like the boot path.
        Some(spec) => Arc::new(ShardView::new(
            Arc::new(model),
            spec.item_lo as usize,
            spec.item_hi as usize,
        )),
        None => Arc::new(model),
    };
    let epoch = ckpt.iter as u64;
    world.model.swap(model, epoch);
    counters.reloads.fetch_add(1, Ordering::Relaxed);
    wire::Response {
        model_epoch: Some(epoch),
        ..wire::Response::ack(id)
    }
}

/// Refuse a reload that would silently change what this daemon serves:
/// the checkpoint's shard spec (when it carries one) and its factor
/// shapes must reproduce the running daemon's slice exactly.
fn validate_reload_shard(ckpt: &SamplerCheckpoint, world: &ServingModel<'_>) -> Result<(), String> {
    let ckpt_items = ckpt.movies.rows;
    let ckpt_users = ckpt.users.rows;
    if ckpt_users != world.n_users {
        return Err(format!(
            "checkpoint covers {ckpt_users} users but this daemon serves {}",
            world.n_users
        ));
    }
    match (world.shard, ckpt.shard) {
        (None, Some(cs)) => Err(format!(
            "checkpoint is pinned to shard {cs} but this daemon serves the whole catalogue"
        )),
        (None, None) => {
            if ckpt_items != world.n_items {
                return Err(format!(
                    "checkpoint catalogue has {ckpt_items} items but this daemon serves {}",
                    world.n_items
                ));
            }
            Ok(())
        }
        (Some(ws), cs) => {
            if let Some(cs) = cs {
                if (cs.shard_id, cs.num_shards) != (ws.shard_id, ws.num_shards)
                    || (cs.item_lo, cs.item_hi) != (ws.item_lo, ws.item_hi)
                {
                    return Err(format!(
                        "checkpoint shard {cs} disagrees with the running shard {ws}"
                    ));
                }
            }
            // Re-derive this shard's slice from the checkpoint's
            // catalogue size: a different-sized catalogue would move the
            // GEMM-aligned range boundaries out from under the router.
            let derived = ShardSpec::for_shard(ws.shard_id, ws.num_shards, ckpt_items, ws.epoch);
            if (derived.item_lo, derived.item_hi) != (ws.item_lo, ws.item_hi) {
                return Err(format!(
                    "checkpoint catalogue has {ckpt_items} items, which maps shard \
                     {}/{} to [{}, {}) — this daemon serves [{}, {})",
                    ws.shard_id,
                    ws.num_shards,
                    derived.item_lo,
                    derived.item_hi,
                    ws.item_lo,
                    ws.item_hi
                ));
            }
            Ok(())
        }
    }
}

/// Execute a [`wire::CMD_FOLD_IN`]: fold a brand-new user's ratings into
/// the served posterior (one conjugate kernel call, item factors fixed)
/// and rank for them. Computed on the connection thread against one
/// pinned model version; the reply carries the folded factors and the
/// epoch that produced them.
fn handle_fold_in(
    req: &wire::Request,
    world: &ServingModel<'_>,
    cfg: &DaemonConfig,
    counters: &Counters,
) -> wire::Response {
    let id = req.id;
    let user = req.user.unwrap_or(0);
    let mut items: Vec<u32> = Vec::with_capacity(req.ratings.len());
    let mut vals: Vec<f64> = Vec::with_capacity(req.ratings.len());
    for r in &req.ratings {
        items.push(r.item);
        vals.push(r.rating);
    }
    let top_n = list_len(req, world, cfg);
    let guard = world.model.load();
    let fold = match guard.model().fold_in_user(&items, &vals) {
        Ok(f) => f,
        Err(FoldInError::Unsupported) => {
            return wire::Response::failure(
                id,
                user,
                "fold-in unavailable: the served model carries no user prior",
            )
        }
        Err(FoldInError::DegeneratePrior) => {
            return wire::Response::failure(id, user, "fold-in failed: degenerate user prior")
                .with_code(wire::CODE_INTERNAL)
        }
        Err(e) => return wire::Response::failure(id, user, e.to_string()),
    };
    // Rank the folded user's slice scores in serving order — score
    // descending, ties by ascending item id — offset to global ids when
    // sharded, exactly like a recommend reply.
    let base: u32 = world.shard.map_or(0, |s| s.item_lo);
    let mut ranked: Vec<wire::RankedItem> = fold
        .scores
        .iter()
        .enumerate()
        .map(|(i, &score)| wire::RankedItem {
            item: base + i as u32,
            score,
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.item.cmp(&b.item))
    });
    ranked.truncate(top_n);
    counters.fold_ins.fetch_add(1, Ordering::Relaxed);
    wire::Response {
        user,
        items: ranked,
        factors: fold.factors,
        model_epoch: Some(guard.epoch()),
        ..wire::Response::ack(id)
    }
}

/// Snapshot the daemon's health. Surviving worker panics degrade the
/// status (the model panicked at least once on real traffic) without
/// taking the daemon out of rotation; `down` is never self-reported — a
/// daemon that can answer `health` is by definition not down.
fn health_report(world: &ServingModel<'_>, counters: &Counters) -> wire::HealthReport {
    let panics = counters.worker_panics.load(Ordering::Relaxed);
    let mut report = wire::HealthReport {
        v: wire::WIRE_VERSION,
        role: wire::ROLE_DAEMON.to_string(),
        status: if panics > 0 {
            wire::STATUS_DEGRADED.to_string()
        } else {
            wire::STATUS_OK.to_string()
        },
        n_users: world.n_users as u64,
        n_items: world.n_items as u64,
        shard: world.shard,
        model_epoch: world.model.epoch(),
        ..wire::HealthReport::default()
    };
    if panics > 0 {
        report.diagnostics.push(wire::Diagnostic::new(
            wire::SEV_WARNING,
            wire::CODE_INTERNAL,
            format!("survived {panics} worker panic(s); batches in hand were lost"),
        ));
    }
    report
}

/// Snapshot the live counters (the same numbers [`serve`] returns as its
/// final [`DaemonReport`], observable mid-flight over the wire).
fn stats_report(world: &ServingModel<'_>, counters: &Counters) -> wire::StatsReport {
    wire::StatsReport {
        v: wire::WIRE_VERSION,
        role: wire::ROLE_DAEMON.to_string(),
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        largest_batch: counters.largest_batch.load(Ordering::Relaxed),
        worker_panics: counters.worker_panics.load(Ordering::Relaxed),
        faults_injected: counters.faults_injected.load(Ordering::Relaxed),
        shard: world.shard,
        model_epoch: world.model.epoch(),
        reloads: counters.reloads.load(Ordering::Relaxed),
        fold_ins: counters.fold_ins.load(Ordering::Relaxed),
        ..wire::StatsReport::default()
    }
}
