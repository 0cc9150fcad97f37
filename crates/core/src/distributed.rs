//! Distributed BPMF over the message-passing runtime (paper §IV).
//!
//! Reproduces the paper's design decisions faithfully:
//!
//! * **Data distribution** (§IV-B): `U` and `V` are split into consecutive
//!   regions balanced by [`WorkModel::default`] — fixed cost + cost per
//!   rating, calibrated on the current item-update kernels, with a row that
//!   has no ratings priced as the single prior draw it costs. Optionally `R`
//!   is first reordered with reverse Cuthill–McKee so connected items land
//!   in the same region and cross-rank traffic shrinks.
//! * **Updates and communication** (§IV-C): when a rank finishes an item it
//!   appends the new factor row to a per-destination buffer and ships the
//!   buffer only when full — "the overhead of calling these routines is too
//!   much to individually send each item". Receivers poll between their own
//!   updates and apply incoming rows immediately, overlapping communication
//!   with computation.
//! * **Phase alignment without barriers**: each rank knows from the
//!   communication plan exactly how many items it must receive from every
//!   peer per sweep; together with per-source FIFO ordering this keeps fully
//!   asynchronous iterations aligned (a rank can run ahead, but nobody can
//!   consume a future iteration's items).
//! * **Replicated hyperparameter sampling**: sufficient statistics are
//!   all-reduced (deterministic rank-ordered reduction) and every rank draws
//!   the identical `(μ, Λ)` from a replicated RNG stream.
//! * **Posterior gather**: after the last iteration each rank frees its
//!   replicated factors, plans and matrix copies, then ships the rows it
//!   owns of the posterior means and second moments, averaged and encoded
//!   in one pass, to rank 0 in a single [`Comm::gather`]. Rank 0 alone
//!   assembles the full matrices in the caller's original (pre-RCM) row
//!   order, its own rows straight from its sums; the other ranks hold no
//!   full-size output.
//!
//! Test-set edges are included in the communication plan, so every rank
//! holds fresh values for exactly the counterpart rows its held-out points
//! need — RMSE traces are bit-identical on every rank.

use std::borrow::Cow;
use std::time::Instant;

use bpmf_linalg::Mat;
use bpmf_mpisim::{wire, Comm, Tag, Universe};
use bpmf_sched::{ItemRunner, WorkStealingPool};
use bpmf_sparse::{rcm_bipartite, BlockPartition, CommPlan, Coo, Csr, Permutation, WorkModel};
use bpmf_stats::{SuffStats, Xoshiro256pp};
use serde::{Deserialize, Serialize};

use crate::api::{
    Algorithm, Bpmf, FitControl, IterCallback, NoSnapshot, PosteriorModel, Recommender, Trainer,
};
use crate::checkpoint::FlatMat;
use crate::config::BpmfConfig;
use crate::error::BpmfError;
use crate::model::SideState;
use crate::posterior::PosteriorAccumulator;
use crate::report::{FitReport, IterStats};
use crate::sampler::TrainData;
use crate::update::{ItemDraw, PriorParts, Workers};
use bpmf_linalg::MatWriter;

const TAG_USER_ITEMS: Tag = 1;
const TAG_MOVIE_ITEMS: Tag = 2;
/// The rank that assembles the gathered posterior.
const GATHER_ROOT: usize = 0;

/// How updated items travel between ranks.
///
/// Two-sided buffered messages are the only mechanism: the paper's
/// published design (§IV-C). The type has a single variant and stays only
/// because the layered benchmark names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Two-sided buffered sends over tagged messages (§IV-C).
    #[default]
    TwoSided,
}

/// Distributed-run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Statistical and kernel parameters.
    pub base: BpmfConfig,
    /// Items accumulated per destination before a buffer is shipped
    /// (§IV-C's send buffer; 1 = send every item individually).
    pub send_buffer_items: usize,
    /// Poll for incoming items every this many own-item updates.
    pub poll_every: usize,
    /// Reorder `R` with RCM before partitioning (§IV-B).
    pub reorder: bool,
    /// Worker threads per rank (the paper's hybrid MPI + shared-memory
    /// mode, §IV-A). With more than one thread, items are computed in
    /// work-stolen batches while the rank's main thread keeps all
    /// communication funneled (`MPI_THREAD_FUNNELED` discipline).
    pub threads_per_rank: usize,
    /// Item exchange mechanism. Two-sided messages are the only one; the
    /// field stays only because the layered benchmark sets it.
    pub exchange: ExchangeMode,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            base: BpmfConfig {
                kernel_threads: 1,
                ..Default::default()
            },
            send_buffer_items: 64,
            poll_every: 8,
            reorder: true,
            threads_per_rank: 1,
            exchange: ExchangeMode::TwoSided,
        }
    }
}

/// Per-rank result of a distributed run. RMSE traces are identical on all
/// ranks; timing fields are rank-local.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DistOutcome {
    /// This rank.
    pub rank: usize,
    /// Total ranks.
    pub nranks: usize,
    /// Per-iteration current-sample RMSE.
    pub rmse_sample_trace: Vec<f64>,
    /// Per-iteration posterior-mean RMSE (NaN during burn-in).
    pub rmse_mean_trace: Vec<f64>,
    /// Aggregate item updates per second (wall time of the slowest rank).
    pub items_per_sec: f64,
    /// This rank's wall seconds for the whole run.
    pub elapsed_seconds: f64,
    /// Fraction of accounted time spent purely computing.
    pub compute_frac: f64,
    /// Fraction of accounted time computing while communication was in
    /// flight (successful overlap).
    pub both_frac: f64,
    /// Fraction of accounted time blocked in communication.
    pub comm_frac: f64,
    /// Payload bytes this rank sent from the start of the timed loop on:
    /// item exchange, collectives and the end-of-run posterior gather.
    pub bytes_sent: u64,
    /// Messages this rank sent over the same span as `bytes_sent`.
    pub msgs_sent: u64,
    /// Cross-rank item transfers per iteration (both sides, all ranks).
    pub comm_volume_items: usize,
    /// Posterior-mean user factors in *original* (pre-RCM) row order —
    /// rank 0 only. Each row was averaged on the rank that owns it and
    /// reached rank 0 through the end-of-run gather. `None` on every other
    /// rank, and when no post-burn-in iterations ran.
    #[serde(default)]
    pub user_factors: Option<FlatMat>,
    /// Posterior-mean movie factors (original order, rank 0 only, as
    /// `user_factors`).
    #[serde(default)]
    pub movie_factors: Option<FlatMat>,
    /// Element-wise posterior second moments `E[u²]` (present with
    /// `factor_samples >= 2`; original order, rank 0 only), feeding
    /// uncertainty-aware serving.
    #[serde(default)]
    pub user_second: Option<FlatMat>,
    /// Element-wise posterior second moments `E[v²]` (as `user_second`).
    #[serde(default)]
    pub movie_second: Option<FlatMat>,
    /// Post-burn-in draws the factor means average over.
    #[serde(default)]
    pub factor_samples: usize,
}

impl DistOutcome {
    /// Final posterior-mean RMSE.
    pub fn final_rmse(&self) -> f64 {
        self.rmse_mean_trace
            .iter()
            .rev()
            .find(|v| v.is_finite())
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// Run distributed BPMF as one rank of `comm`'s universe.
///
/// Every rank must call this with identical `r`/`rt`/`test`/`cfg` (SPMD).
/// The rating structure is replicated; factors are partitioned — each rank
/// *computes* only its own consecutive region of `U` and `V` and receives
/// exactly the remote rows the rating structure says it needs. Only rank
/// 0's outcome carries the gathered posterior factors.
pub fn run_rank(
    comm: &mut Comm<'_>,
    r: &Csr,
    rt: &Csr,
    global_mean: f64,
    test: &[(u32, u32, f64)],
    cfg: &DistConfig,
) -> DistOutcome {
    cfg.base.validate();
    let size = comm.size();
    let rank = comm.rank();
    let k = cfg.base.num_latent;

    // ---- §IV-B: optional RCM reordering, identical on every rank. -------
    // The permutations are kept so gathered factors can be handed back in
    // the caller's original row/column order. Without reordering the
    // caller's matrices are borrowed, not copied.
    let mut perms: Option<(Permutation, Permutation)> = None;
    let (r, rt, test): (Cow<'_, Csr>, Cow<'_, Csr>, Cow<'_, [_]>) = if cfg.reorder {
        let (pr, pc) = rcm_bipartite(r);
        let r2 = r.permute(&pr, &pc);
        let rt2 = r2.transpose();
        let t2 = test
            .iter()
            .map(|&(i, j, v)| {
                (
                    pr.new_of(i as usize) as u32,
                    pc.new_of(j as usize) as u32,
                    v,
                )
            })
            .collect();
        perms = Some((pr, pc));
        (Cow::Owned(r2), Cow::Owned(rt2), Cow::Owned(t2))
    } else {
        (Cow::Borrowed(r), Cow::Borrowed(rt), Cow::Borrowed(test))
    };

    // ---- Workload-balanced consecutive regions. --------------------------
    let wm = WorkModel::default();
    let user_parts = BlockPartition::weighted(&wm.row_weights(&r), size);
    let movie_parts = BlockPartition::weighted(&wm.row_weights(&rt), size);

    // ---- Communication plans over train ∪ test structure. ----------------
    // The structure matrices are dropped as soon as the plans exist.
    let (user_plan, movie_plan) = {
        let struct_r = union_structure(&r, &test);
        let struct_rt = struct_r.transpose();
        (
            CommPlan::build(&struct_r, &user_parts, &movie_parts),
            CommPlan::build(&struct_rt, &movie_parts, &user_parts),
        )
    };
    let comm_volume_items = user_plan.total_sends() + movie_plan.total_sends();

    // ---- Replicated state, rank-disjoint update RNG streams. -------------
    let mut init_rng = Xoshiro256pp::seed_from_u64(cfg.base.seed);
    let mut users = SideState::init(r.nrows(), k, &mut init_rng);
    let mut movies = SideState::init(r.ncols(), k, &mut init_rng);
    let mut hyper_rng = Xoshiro256pp::seed_from_u64(cfg.base.seed ^ 0x9E37_79B9);
    let update_rng = {
        let mut streams = Xoshiro256pp::rank_streams(cfg.base.seed ^ 0x5851_F42D, size);
        streams.swap_remove(rank)
    };
    let workers = RankWorkers::new(update_rng, cfg.threads_per_rank, k);

    // Test points this rank evaluates: those whose user row it owns.
    let my_test: Vec<(u32, u32, f64)> = test
        .iter()
        .filter(|p| user_parts.part_of(p.0 as usize) == rank)
        .copied()
        .collect();
    // Posterior sums sized to the rank's *owned* rows (the partition covers
    // every row exactly once, so the end-of-run gather assembles complete
    // posterior means for serving).
    let mut posterior = PosteriorAccumulator::new(
        cfg.base.burnin,
        my_test.len(),
        global_mean,
        cfg.base.rating_bounds,
    )
    .owning(user_parts.range(rank), movie_parts.range(rank));

    let iterations = cfg.base.iterations();
    let mut rmse_sample_trace = Vec::with_capacity(iterations);
    let mut rmse_mean_trace = Vec::with_capacity(iterations);

    comm.barrier();
    comm.reset_accounting();
    let t0 = Instant::now();

    for iter in 0..iterations {
        // -------- movie phase (Algorithm 1 order) -------------------------
        sample_hyper_replicated(comm, &mut movies, movie_parts.range(rank), &mut hyper_rng);
        let prior = movies.prior_parts();
        sweep_side(
            comm,
            &mut movies.items,
            &workers.draw(
                cfg,
                &prior,
                global_mean,
                &rt,
                movie_parts.range(rank),
                &users.items,
            ),
            &workers,
            &movie_plan,
            &movie_parts,
            cfg,
            TAG_MOVIE_ITEMS,
        );

        // -------- user phase ----------------------------------------------
        sample_hyper_replicated(comm, &mut users, user_parts.range(rank), &mut hyper_rng);
        let prior = users.prior_parts();
        sweep_side(
            comm,
            &mut users.items,
            &workers.draw(
                cfg,
                &prior,
                global_mean,
                &r,
                user_parts.range(rank),
                &movies.items,
            ),
            &workers,
            &user_plan,
            &user_parts,
            cfg,
            TAG_USER_ITEMS,
        );

        // -------- evaluation ----------------------------------------------
        // Rank-local squared errors, then a deterministic all-reduce: every
        // rank reports the identical RMSE pair.
        let mut se = posterior.record(iter, &users.items, &movies.items, &my_test);
        comm.allreduce_sum_f64(&mut se);
        let (rmse_sample, rmse_mean) = posterior.rmse(se, test.len());
        rmse_sample_trace.push(rmse_sample);
        rmse_mean_trace.push(rmse_mean);
    }

    comm.barrier();
    let elapsed = t0.elapsed().as_secs_f64();
    let mut slowest = [elapsed];
    comm.allreduce_max_f64(&mut slowest);
    let total_items = ((r.nrows() + r.ncols()) * iterations) as f64;

    // Nothing reads the replicated factors, the workers, the plans or the
    // (reordered) matrices again: free them before the gather allocates.
    drop((
        users, movies, workers, user_plan, movie_plan, r, rt, test, my_test,
    ));

    // ---- Posterior-factor gather (outside the timed loop). ---------------
    // Each rank ships only its owned rows, averaged, to rank 0, which
    // writes them straight into the outputs at the caller's original
    // (pre-RCM) indices.
    let pr = perms.as_ref().map(|(pr, _)| pr);
    let pc = perms.as_ref().map(|(_, pc)| pc);
    let second = posterior.squares().filter(|_| posterior.count() >= 2);
    let blocks: Vec<GatherBlock<'_>> = posterior
        .sums()
        .into_iter()
        .chain(second)
        .flat_map(|(u, v)| {
            [
                GatherBlock {
                    sums: u,
                    parts: &user_parts,
                    perm: pr,
                },
                GatherBlock {
                    sums: v,
                    parts: &movie_parts,
                    perm: pc,
                },
            ]
        })
        .collect();
    let mut gathered = gather_owned_rows(comm, &blocks, 1.0 / posterior.count() as f64)
        .into_iter()
        .flatten();
    let mut next = || gathered.next();
    let (user_factors, movie_factors) = (next(), next());
    let (user_second, movie_second) = (next(), next());

    let times = comm.time_stats();
    let (compute_frac, both_frac, comm_frac) = times.fractions();
    let stats = comm.stats();
    DistOutcome {
        rank,
        nranks: size,
        rmse_sample_trace,
        rmse_mean_trace,
        items_per_sec: total_items / slowest[0].max(1e-12),
        elapsed_seconds: elapsed,
        compute_frac,
        both_frac,
        comm_frac,
        bytes_sent: stats.bytes_sent,
        msgs_sent: stats.msgs_sent,
        comm_volume_items,
        user_factors,
        movie_factors,
        user_second,
        movie_second,
        factor_samples: posterior.count(),
    }
}

/// One matrix of the end-of-run gather: the rank's posterior sums over its
/// owned rows (row 0 is the first row of `parts.range(rank)`), the
/// partition of all rows across ranks, and the permutation back to the
/// caller's row order.
struct GatherBlock<'a> {
    sums: &'a Mat,
    parts: &'a BlockPartition,
    perm: Option<&'a Permutation>,
}

/// Assemble `blocks` on rank 0 from their owners' rows.
///
/// Every other rank encodes its owned (consecutive) rows of every block,
/// scaled by `inv`, into one payload; one [`Comm::gather`] delivers them
/// to rank 0. Rank 0 then fills each output in the caller's row order:
/// its own rows scaled straight from its sums, every other row decoded
/// from its owner's payload — sequential writes into the fresh output,
/// scattered reads from memory already resident. Every rank must pass
/// blocks of the same partitions, in the same order. Returns `None` on
/// every rank but 0.
fn gather_owned_rows(
    comm: &mut Comm<'_>,
    blocks: &[GatherBlock<'_>],
    inv: f64,
) -> Option<Vec<FlatMat>> {
    let rank = comm.rank();
    for b in blocks {
        assert_eq!(
            b.sums.rows(),
            b.parts.range(rank).len(),
            "gather block must hold exactly the rank's own rows"
        );
    }
    let mut payload = Vec::new();
    if rank != GATHER_ROOT {
        payload.reserve(blocks.iter().map(|b| b.sums.as_slice().len() * 8).sum());
        for b in blocks {
            wire::put_f64s(&mut payload, b.sums.as_slice().iter().map(|v| v * inv));
        }
    }
    let received = comm.gather(GATHER_ROOT, payload)?;

    // Byte offset of the current block in each rank's payload.
    let mut base = vec![0usize; received.len()];
    let out = blocks
        .iter()
        .map(|b| {
            let (rows, k) = (b.parts.domain_len(), b.sums.cols());
            let mut data = vec![0.0; rows * k];
            for (dst, row) in data.chunks_exact_mut(k).enumerate() {
                let i = b.perm.map_or(dst, |p| p.new_of(dst));
                let src = b.parts.part_of(i);
                let local = i - b.parts.range(src).start;
                if src == GATHER_ROOT {
                    for (o, &v) in row.iter_mut().zip(b.sums.row(local)) {
                        *o = v * inv;
                    }
                } else {
                    let at = base[src] + local * 8 * k;
                    wire::read_f64s(&received[src][at..at + 8 * k], row);
                }
            }
            for (src, at) in base.iter_mut().enumerate() {
                if src != GATHER_ROOT {
                    *at += b.parts.range(src).len() * 8 * k;
                }
            }
            FlatMat {
                rows,
                cols: k,
                data,
            }
        })
        .collect();
    for (at, bytes) in base.iter().zip(&received) {
        assert_eq!(*at, bytes.len(), "gather payload length mismatch");
    }
    Some(out)
}

/// Train ∪ test structure matrix (values irrelevant, deduplicated).
fn union_structure(r: &Csr, test: &[(u32, u32, f64)]) -> Csr {
    let mut coo = Coo::with_capacity(r.nrows(), r.ncols(), r.nnz() + test.len());
    for (i, j, _) in r.iter() {
        coo.push(i, j as usize, 1.0);
    }
    for &(i, j, _) in test {
        coo.push(i as usize, j as usize, 1.0);
    }
    Csr::from_coo_owned(coo)
}

/// All-reduce sufficient statistics over the rank's own rows, then draw the
/// identical hyperparameter sample everywhere.
fn sample_hyper_replicated(
    comm: &mut Comm<'_>,
    side: &mut SideState,
    own: std::ops::Range<usize>,
    hyper_rng: &mut Xoshiro256pp,
) {
    let k = side.k();
    let mut stats = SuffStats::new(k);
    stats.add_rows(&side.items.as_slice()[own.start * k..own.end * k]);
    let mut flat = stats.to_flat();
    comm.allreduce_sum_f64(&mut flat);
    let global = SuffStats::from_flat(k, &flat);
    side.apply_hyper_from_stats(&global, hyper_rng);
}

/// The rank's item-drawing workers: one worker on the rank's own stream,
/// or — hybrid mode (§IV-A) — a per-rank work-stealing pool that computes
/// item batches while the rank's main thread keeps communication funneled.
/// Pool streams are `jump`-separated sub-streams of the rank stream, so
/// ranks stay disjoint from each other and workers within a rank disjoint
/// from one another.
struct RankWorkers {
    pool: Option<WorkStealingPool>,
    streams: Workers,
}

impl RankWorkers {
    fn new(rank_rng: Xoshiro256pp, threads: usize, k: usize) -> Self {
        if threads <= 1 {
            return RankWorkers {
                pool: None,
                streams: Workers::new(vec![rank_rng], k),
            };
        }
        let mut base = rank_rng;
        let streams = (0..threads)
            .map(|_| {
                base.jump();
                base.clone()
            })
            .collect();
        RankWorkers {
            pool: Some(WorkStealingPool::new(threads)),
            streams: Workers::new(streams, k),
        }
    }

    /// The sweep's item draw over the rank's own `rows`. Pool workers each
    /// run a whole item, so their kernels stay single-threaded.
    fn draw<'a>(
        &self,
        cfg: &DistConfig,
        prior: &'a PriorParts,
        global_mean: f64,
        matrix: &'a Csr,
        rows: std::ops::Range<usize>,
        other: &'a Mat,
    ) -> ItemDraw<'a> {
        let mut draw = ItemDraw::new(&cfg.base, prior, global_mean, matrix, rows, other);
        if self.pool.is_some() {
            draw.kernel_threads = 1;
        }
        draw
    }
}

/// One side's sweep: update own items, ship them in buffered messages,
/// poll+apply incoming items between updates, then drain per-source quotas.
#[allow(clippy::too_many_arguments)]
fn sweep_side(
    comm: &mut Comm<'_>,
    items: &mut Mat,
    draw: &ItemDraw<'_>,
    workers: &RankWorkers,
    plan: &CommPlan,
    parts: &BlockPartition,
    cfg: &DistConfig,
    tag: Tag,
) {
    let rank = comm.rank();
    let size = comm.size();
    let stride = items.cols() + 1; // item index + K factors per shipped row

    let mut exch = Exchange {
        tag,
        stride,
        flush_len: cfg.send_buffer_items.max(1) * stride,
        send_bufs: vec![Vec::new(); size],
    };
    // Items still expected from each source this sweep (per-source quota).
    let mut outstanding: Vec<usize> = (0..size).map(|src| plan.sends_between(src, rank)).collect();
    outstanding[rank] = 0;

    let range = parts.range(rank);
    match &workers.pool {
        None => {
            // Sequential rank: update, buffer-send, poll — item by item.
            for (count, item) in range.enumerate() {
                let row = items.row_mut(item);
                comm.compute(|| workers.streams.draw(draw, 0, item, row));
                exch.ship(comm, items, plan, item);
                if count % cfg.poll_every.max(1) == 0 {
                    exch.poll(comm, items, &mut outstanding);
                }
            }
        }
        Some(pool) => {
            // Hybrid rank (§IV-A): the pool computes item batches, the main
            // thread funnels sends + receives between batches.
            let batch = (cfg.threads_per_rank * 8).max(cfg.poll_every.max(1));
            let mut start = range.start;
            while start < range.end {
                let end = (start + batch).min(range.end);
                let writer = MatWriter::new(items);
                comm.compute(|| {
                    pool.run_items(end - start, None, None, &|worker, idx| {
                        let item = start + idx;
                        // SAFETY: the pool's exactly-once contract makes
                        // batch-local indices (hence rows) disjoint.
                        workers
                            .streams
                            .draw(draw, worker, item, unsafe { writer.row_mut(item) });
                    });
                });
                for item in start..end {
                    exch.ship(comm, items, plan, item);
                }
                exch.poll(comm, items, &mut outstanding);
                start = end;
            }
        }
    }

    exch.finish(comm, items, &mut outstanding);
}

/// §IV-C's item exchange: per-destination buffers of `(index, row)`
/// records over tagged two-sided messages.
struct Exchange {
    tag: Tag,
    stride: usize,
    flush_len: usize,
    send_bufs: Vec<Vec<f64>>,
}

impl Exchange {
    /// Ship one finished item toward every rank that needs it.
    fn ship(&mut self, comm: &mut Comm<'_>, items: &Mat, plan: &CommPlan, item: usize) {
        let row = items.row(item);
        for &dst in plan.destinations(item) {
            let buf = &mut self.send_bufs[dst as usize];
            buf.push(item as f64);
            buf.extend_from_slice(row);
            if buf.len() >= self.flush_len {
                comm.send_bytes(dst as usize, self.tag, wire::f64s_to_bytes(buf));
                buf.clear();
            }
        }
    }

    /// Non-blocking drain of whatever has arrived, bounded by per-source
    /// quotas so a fast peer's *next-iteration* items are never consumed
    /// early.
    // `src` is simultaneously a rank id (for recv) and an index into the
    // per-source quotas, so the indexed loop is the honest shape.
    #[allow(clippy::needless_range_loop)]
    fn poll(&mut self, comm: &mut Comm<'_>, items: &mut Mat, outstanding: &mut [usize]) {
        for src in 0..outstanding.len() {
            while outstanding[src] > 0 {
                match comm.try_recv(Some(src), self.tag) {
                    Some((_, bytes)) => {
                        apply_items(items, &bytes, self.stride, &mut outstanding[src])
                    }
                    None => break,
                }
            }
        }
    }

    /// Flush anything still buffered, then block until every per-source
    /// quota for this sweep is met.
    #[allow(clippy::needless_range_loop)]
    fn finish(&mut self, comm: &mut Comm<'_>, items: &mut Mat, outstanding: &mut [usize]) {
        for (dst, buf) in self.send_bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                comm.send_bytes(dst, self.tag, wire::f64s_to_bytes(buf));
                buf.clear();
            }
        }
        for src in 0..outstanding.len() {
            while outstanding[src] > 0 {
                let (_, bytes) = comm.recv(Some(src), self.tag);
                apply_items(items, &bytes, self.stride, &mut outstanding[src]);
            }
        }
    }
}

/// Unpack a buffered message of `(index, row)` records straight into the
/// local replica's rows.
fn apply_items(items: &mut Mat, bytes: &[u8], stride: usize, outstanding: &mut usize) {
    assert_eq!(bytes.len() % (stride * 8), 0, "ragged item buffer");
    for record in bytes.chunks_exact(stride * 8) {
        let (idx, row) = record.split_at(8);
        wire::read_f64s(row, items.row_mut(wire::read_f64(idx) as usize));
        assert!(*outstanding > 0, "received more items than the plan quota");
        *outstanding -= 1;
    }
}

// ---------------------------------------------------------------------------
// The unified-facade adapter: Algorithm::Distributed behind `Trainer`
// ---------------------------------------------------------------------------

/// [`Trainer`] adapter over [`run_rank`]: `Bpmf::builder()
/// .algorithm(Algorithm::Distributed)` spins up a simulated message-passing
/// universe with `spec.threads` ranks, runs the paper's §IV driver on every
/// rank, and leaves a [`PosteriorModel`] (gathered posterior-mean factors +
/// second moments) behind for serving — the same serve path as the
/// shared-memory Gibbs trainer.
///
/// Execution notes:
///
/// * the `runner` argument of [`Trainer::fit`] is ignored — the distributed
///   universe is its own runtime (ranks map to `spec.threads`). Following
///   the facade convention that knobs irrelevant to the selected algorithm
///   are ignored (ALS ignores `burnin`, SGD ignores `sweeps`, …), the
///   spec's `engine` and `kernel_threads` do not apply here: parallelism
///   comes from the ranks, each running one kernel thread (see
///   [`DistributedTrainer::dist_config`]);
/// * ranks iterate to completion as one SPMD program, so the callback is
///   *replayed* from the per-iteration traces after the run: stats
///   streaming works unchanged, and [`FitControl::Stop`] truncates the
///   report (marking `early_stopped`) without shortening the underlying
///   run.
pub struct DistributedTrainer {
    spec: Bpmf,
    model: Option<std::sync::Arc<PosteriorModel>>,
    outcome: Option<DistOutcome>,
}

impl DistributedTrainer {
    /// Trainer for a validated spec.
    pub fn new(spec: Bpmf) -> Self {
        DistributedTrainer {
            spec,
            model: None,
            outcome: None,
        }
    }

    /// The exact [`DistConfig`] a spec maps to — exposed so direct
    /// [`run_rank`] callers can reproduce the unified path bit-for-bit.
    pub fn dist_config(spec: &Bpmf) -> DistConfig {
        let mut base = spec.to_gibbs_config();
        // One kernel thread per rank, matching `DistConfig::default()`:
        // parallelism comes from the ranks themselves (ranks =
        // `spec.threads`), and the spec's `kernel_threads` default is "all
        // cores" — per-rank on every rank at once that would oversubscribe
        // the host quadratically. Per-rank kernel threading stays available
        // by driving `run_rank` with a hand-built `DistConfig`.
        base.kernel_threads = 1;
        DistConfig {
            base,
            ..Default::default()
        }
    }

    /// Ranks the spec trains with (`spec.threads`).
    pub fn ranks(spec: &Bpmf) -> usize {
        spec.threads
    }

    /// Rank 0's outcome (traces and communication/overlap accounting),
    /// once `fit` has run. Its factor fields are `None`: `fit` moves the
    /// gathered factors into the [`model`](Self::model) instead of keeping
    /// a second copy.
    pub fn outcome(&self) -> Option<&DistOutcome> {
        self.outcome.as_ref()
    }

    /// The fitted posterior model, once `fit` has run with at least one
    /// post-burn-in iteration.
    pub fn model(&self) -> Option<&PosteriorModel> {
        self.model.as_deref()
    }
}

impl Trainer for DistributedTrainer {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Distributed
    }

    fn fit(
        &mut self,
        data: &TrainData<'_>,
        _runner: &dyn ItemRunner,
        callback: &mut dyn IterCallback,
    ) -> Result<FitReport, BpmfError> {
        if self.spec.user_side_info.is_some() || self.spec.movie_side_info.is_some() {
            return Err(BpmfError::Unsupported {
                algorithm: Algorithm::Distributed,
                feature: "side information",
            });
        }
        if self.spec.resume.is_some() {
            return Err(BpmfError::Unsupported {
                algorithm: Algorithm::Distributed,
                feature: "checkpoint resume",
            });
        }
        // The distributed driver partitions and exchanges whole regions of
        // the matrix across ranks; it needs the resident CSR, not a
        // streaming store.
        let (Some(r), Some(rt)) = (data.r.as_csr(), data.rt.as_csr()) else {
            return Err(BpmfError::Unsupported {
                algorithm: Algorithm::Distributed,
                feature: "out-of-core rating stores",
            });
        };
        let cfg = Self::dist_config(&self.spec);
        let ranks = Self::ranks(&self.spec);
        let t0 = Instant::now();
        let mut outcome = Universe::run(ranks, None, |comm| {
            run_rank(comm, r, rt, data.global_mean, data.test, &cfg)
        })
        .into_iter()
        .next()
        .expect("universe has at least one rank");
        let total_seconds = t0.elapsed().as_secs_f64();

        // Replay the (rank-identical) traces through the callback.
        let total_iters = outcome.rmse_sample_trace.len();
        let sweep_seconds = outcome.elapsed_seconds / total_iters.max(1) as f64;
        let mut iters = Vec::with_capacity(total_iters);
        let mut early_stopped = false;
        for iter in 0..total_iters {
            let stats = IterStats {
                iter,
                rmse_sample: outcome.rmse_sample_trace[iter],
                rmse_mean: outcome.rmse_mean_trace[iter],
                items_per_sec: outcome.items_per_sec,
                sweep_seconds,
                busy_fraction: outcome.compute_frac + outcome.both_frac,
                steals: 0,
            };
            let control = callback.on_iteration(&stats, &NoSnapshot);
            iters.push(stats);
            if control == FitControl::Stop {
                early_stopped = true;
                break;
            }
        }

        // Rank 0's gathered matrices move into the model, uncopied.
        let second = outcome.user_second.take().zip(outcome.movie_second.take());
        let means = outcome
            .user_factors
            .take()
            .zip(outcome.movie_factors.take());
        self.model = means.map(|(u, v)| {
            std::sync::Arc::new(PosteriorModel::from_factors(
                u.into_mat(),
                v.into_mat(),
                second.map(|(u2, v2)| (u2.into_mat(), v2.into_mat())),
                data.global_mean,
                self.spec.rating_bounds,
                outcome.factor_samples,
            ))
        });
        self.outcome = Some(outcome);
        Ok(FitReport {
            algorithm: Algorithm::Distributed.to_string(),
            engine: "distributed".to_string(),
            parallelism: ranks,
            iters,
            total_seconds,
            early_stopped,
        })
    }

    fn recommender(&self) -> Option<&dyn Recommender> {
        self.model.as_deref().map(|m| m as &dyn Recommender)
    }

    fn shared_model(&self) -> Option<std::sync::Arc<dyn Recommender + Send + Sync>> {
        self.model
            .clone()
            .map(|m| m as std::sync::Arc<dyn Recommender + Send + Sync>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_linalg::vecops;
    use bpmf_mpisim::Universe;
    use bpmf_stats::normal;

    fn planted(seed: u64, m: usize, n: usize) -> (Csr, Csr, f64, Vec<(u32, u32, f64)>) {
        let k = 2;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let u = Mat::from_fn(m, k, |_, _| normal(&mut rng, 0.0, 1.0));
        let v = Mat::from_fn(n, k, |_, _| normal(&mut rng, 0.0, 1.0));
        let mut coo = Coo::new(m, n);
        let mut test = Vec::new();
        for i in 0..m {
            for j in 0..n {
                if rng.next_f64() < 0.35 {
                    let r = vecops::dot(u.row(i), v.row(j)) + normal(&mut rng, 0.0, 0.1);
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

    /// Bitwise trace equality (NaN-tolerant, unlike `==` on floats).
    fn assert_traces_identical(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "trace mismatch: {x} vs {y}");
        }
    }

    fn dist_cfg(seed: u64) -> DistConfig {
        DistConfig {
            base: BpmfConfig {
                num_latent: 4,
                burnin: 5,
                samples: 10,
                seed,
                kernel_threads: 1,
                ..Default::default()
            },
            send_buffer_items: 4,
            poll_every: 4,
            reorder: true,
            threads_per_rank: 1,
            exchange: ExchangeMode::TwoSided,
        }
    }

    #[test]
    fn single_rank_converges() {
        let (r, rt, mean, test) = planted(31, 50, 35);
        let cfg = dist_cfg(1);
        let out = Universe::run(1, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        assert!(out[0].final_rmse() < 0.5, "rmse = {}", out[0].final_rmse());
        assert_eq!(
            out[0].bytes_sent, 0,
            "single rank must not communicate items"
        );
    }

    #[test]
    fn four_ranks_converge_and_agree() {
        let (r, rt, mean, test) = planted(33, 60, 40);
        let cfg = dist_cfg(2);
        let out = Universe::run(4, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        for o in &out {
            assert!(
                o.final_rmse() < 0.5,
                "rank {} rmse = {}",
                o.rank,
                o.final_rmse()
            );
        }
        // RMSE traces must be identical across ranks (deterministic
        // all-reduce).
        for o in &out[1..] {
            assert_traces_identical(&o.rmse_mean_trace, &out[0].rmse_mean_trace);
            assert_traces_identical(&o.rmse_sample_trace, &out[0].rmse_sample_trace);
        }
        // With 4 ranks on a connected matrix there must be item traffic.
        assert!(out.iter().any(|o| o.bytes_sent > 0));
        assert!(out[0].comm_volume_items > 0);
    }

    #[test]
    fn distributed_matches_quality_without_reorder() {
        let (r, rt, mean, test) = planted(35, 50, 30);
        let mut cfg = dist_cfg(3);
        cfg.reorder = false;
        let out = Universe::run(3, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        assert!(out[0].final_rmse() < 0.5, "rmse = {}", out[0].final_rmse());
    }

    #[test]
    fn tiny_send_buffer_still_correct() {
        // buffer = 1 item → every item ships individually (the slow mode
        // the paper argues against); correctness must be unaffected.
        let (r, rt, mean, test) = planted(37, 40, 30);
        let mut cfg = dist_cfg(4);
        cfg.send_buffer_items = 1;
        cfg.base.burnin = 3;
        cfg.base.samples = 5;
        let out = Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        assert_traces_identical(&out[0].rmse_mean_trace, &out[1].rmse_mean_trace);
        assert!(out[0].final_rmse() < 0.8);
    }

    #[test]
    fn reordering_does_not_change_rmse_distribution() {
        // Same seed, reorder on vs off: both converge to the same
        // neighborhood (exact traces differ because item→rank assignment
        // changes the RNG pairing).
        let (r, rt, mean, test) = planted(39, 50, 35);
        let mut cfg = dist_cfg(5);
        cfg.base.burnin = 6;
        cfg.base.samples = 12;
        let with = Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        cfg.reorder = false;
        let without = Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        assert!((with[0].final_rmse() - without[0].final_rmse()).abs() < 0.2);
    }

    #[test]
    fn hybrid_ranks_converge_and_agree_across_ranks() {
        // §IV-A hybrid mode: 2 ranks × 2 worker threads, with instant
        // delivery and under the network model (whose delays reorder when
        // items arrive relative to the pool's batches). Values differ from
        // the sequential run (different RNG-item pairing) but ranks must
        // still agree with each other and converge.
        let (r, rt, mean, test) = planted(43, 60, 40);
        let mut cfg = dist_cfg(7);
        cfg.threads_per_rank = 2;
        for net in [None, Some(bpmf_mpisim::NetModel::test_cluster())] {
            let out = Universe::run(2, net, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
            for o in &out {
                assert!(
                    o.final_rmse() < 0.5,
                    "net {net:?}: rank {} rmse = {}",
                    o.rank,
                    o.final_rmse()
                );
            }
            assert_traces_identical(&out[0].rmse_mean_trace, &out[1].rmse_mean_trace);
        }
    }

    #[test]
    fn hybrid_quality_matches_sequential_ranks() {
        let (r, rt, mean, test) = planted(45, 50, 35);
        let sequential = {
            let cfg = dist_cfg(8);
            Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg))
        };
        let hybrid = {
            let mut cfg = dist_cfg(8);
            cfg.threads_per_rank = 3;
            Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg))
        };
        assert!(
            (sequential[0].final_rmse() - hybrid[0].final_rmse()).abs() < 0.15,
            "hybrid {} vs sequential {}",
            hybrid[0].final_rmse(),
            sequential[0].final_rmse()
        );
    }

    #[test]
    fn gathered_factors_are_replicated_and_serve_the_test_rmse() {
        // Rank 0 alone must assemble the full posterior means, and a
        // PosteriorModel built from them must reproduce the final
        // posterior-mean RMSE the run reported (the factors really are in
        // original row order, even with RCM reordering on).
        let (r, rt, mean, test) = planted(53, 50, 35);
        let cfg = dist_cfg(12);
        let out = Universe::run(3, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        let uf = out[0].user_factors.as_ref().expect("user factors");
        let vf = out[0].movie_factors.as_ref().expect("movie factors");
        assert_eq!((uf.rows, uf.cols), (r.nrows(), 4));
        assert_eq!((vf.rows, vf.cols), (r.ncols(), 4));
        assert_eq!(out[0].factor_samples, cfg.base.samples);
        for o in &out[1..] {
            assert!(
                o.user_factors.is_none()
                    && o.movie_factors.is_none()
                    && o.user_second.is_none()
                    && o.movie_second.is_none(),
                "rank {} holds gathered factors",
                o.rank
            );
            assert_eq!(o.factor_samples, cfg.base.samples);
        }
        // A model served from the gathered factor means is a slightly
        // different estimator than the trace's per-point prediction average
        // (dot-of-means vs mean-of-dots), but on a converged chain the two
        // must land in the same neighborhood.
        let model = crate::PosteriorModel::from_factors(
            uf.to_mat(),
            vf.to_mat(),
            None,
            mean,
            None,
            out[0].factor_samples,
        );
        let served_rmse = crate::Recommender::rmse(&model, &test);
        let reported = out[0].final_rmse();
        assert!(
            served_rmse.is_finite() && (served_rmse - reported).abs() < 0.25 * reported.max(0.1),
            "served {served_rmse} vs reported {reported}"
        );
    }

    #[test]
    fn gather_assembles_owned_rows_on_rank_0_in_caller_order_bit_for_bit() {
        // Three ranks. Users split 1 / 3 / 3 under a permutation that
        // reverses them; movies split 1 / 1 / 0 (rank 2 owns none) under a
        // swap. Every rank fills only the rows it owns of a full-size
        // matrix and poisons the rest with NaN, then hands the gather its
        // owned rows, row 0 first: a row taken at the wrong offset carries
        // NaN (or another rank's value) into the output.
        let user_parts = BlockPartition::weighted(&[5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 3);
        let movie_parts = BlockPartition::uniform(2, 3);
        assert_eq!(user_parts.ranges(), &[0..1, 1..4, 4..7]);
        assert_eq!(movie_parts.ranges(), &[0..1, 1..2, 2..2]);
        let user_perm = Permutation::from_order((0..7).rev().collect());
        let movie_perm = Permutation::from_order(vec![1, 0]);
        let k = 3;
        let inv = 1.0 / 3.0;
        // Awkward bit patterns on purpose: −0.0 keeps its sign, a
        // subnormal scales exactly as it would in place.
        let value = |block: usize, i: usize, c: usize| match (i + c) % 4 {
            0 => -0.0,
            1 => f64::from_bits(3 + block as u64),
            _ => (block * 100 + i * 10 + c) as f64 * 0.37 - 1.1,
        };
        let owned_sums = |block: usize, rows: usize, parts: &BlockPartition, rank: usize| {
            let full = Mat::from_fn(rows, k, |i, c| {
                if parts.part_of(i) == rank {
                    value(block, i, c)
                } else {
                    f64::NAN
                }
            });
            let own = parts.range(rank);
            Mat::from_fn(own.len(), k, |r, c| full[(own.start + r, c)])
        };
        let layout = [
            (7, &user_parts, &user_perm),
            (2, &movie_parts, &movie_perm),
            (7, &user_parts, &user_perm),
            (2, &movie_parts, &movie_perm),
        ];
        let out = Universe::run(3, None, |comm| {
            let mats: Vec<Mat> = layout
                .iter()
                .enumerate()
                .map(|(b, (rows, parts, _))| owned_sums(b, *rows, parts, comm.rank()))
                .collect();
            let blocks: Vec<GatherBlock<'_>> = mats
                .iter()
                .zip(&layout)
                .map(|(sums, (_, parts, perm))| GatherBlock {
                    sums,
                    parts,
                    perm: Some(perm),
                })
                .collect();
            gather_owned_rows(comm, &blocks, inv)
        });
        for (rank, got) in out.iter().enumerate().skip(1) {
            assert!(got.is_none(), "rank {rank} must get nothing");
        }
        let gathered = out[0].as_ref().expect("rank 0 assembles the outputs");
        assert_eq!(gathered.len(), layout.len());
        for (b, ((rows, _, perm), got)) in layout.iter().zip(gathered).enumerate() {
            assert_eq!((got.rows, got.cols), (*rows, k));
            let mut want = vec![f64::NAN; rows * k];
            for i in 0..*rows {
                for c in 0..k {
                    want[perm.old_of(i) * k + c] = value(b, i, c) * inv;
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.data), bits(&want), "block {b}");
        }
    }

    #[test]
    fn empty_test_set_reports_nan_rmse_and_still_gathers_factors() {
        let (r, rt, mean, _) = planted(55, 40, 30);
        let cfg = dist_cfg(13);
        let out = Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &[], &cfg));
        for o in &out {
            assert!(o.rmse_sample_trace.iter().all(|v| v.is_nan()));
            assert!(o.rmse_mean_trace.iter().all(|v| v.is_nan()));
            assert!(o.final_rmse().is_nan());
            assert_eq!(o.factor_samples, cfg.base.samples);
            // Only rank 0 assembles the gathered factors.
            assert_eq!(
                o.user_factors.is_some() && o.movie_second.is_some(),
                o.rank == 0
            );
        }
    }

    #[test]
    fn overlap_accounting_is_populated() {
        let (r, rt, mean, test) = planted(41, 60, 40);
        let cfg = dist_cfg(6);
        let out = Universe::run(2, None, |comm| run_rank(comm, &r, &rt, mean, &test, &cfg));
        for o in &out {
            let total = o.compute_frac + o.both_frac + o.comm_frac;
            assert!(
                (total - 1.0).abs() < 1e-6,
                "fractions must sum to 1, got {total}"
            );
            assert!(o.items_per_sec > 0.0);
        }
    }
}
