//! Kernel-level numbers of the traced pass: each layer's public function timed
//! on inputs drawn from the workload's own matrix or model (its degree
//! distribution, its catalogue size), so the shares add up against that
//! workload's wall time rather than against a synthetic shape.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bpmf::serve::coalesce::{CoalesceConfig, Queue};
use bpmf::serve::shard::merge_top_n;
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest, MICRO_BATCH};
use bpmf::{
    choose_method, fold_in_mean, update_item, ModelHandle, PosteriorModel, SidePrior, UpdateMethod,
    UpdateScratch,
};
use bpmf_linalg::{
    cholesky_in_place, gemm_packed_into, gemv_t_acc, syrk_ld_lower, Cholesky, Mat, PackedB,
    PANEL_BLOCK,
};
use bpmf_sched::ItemRunner;
use bpmf_sparse::{Coo, Csr, WorkModel};
use bpmf_stats::{sample_mvn_from_precision, NormalWishart, SuffStats, Xoshiro256pp};

use crate::run::{Ctx, Outcome};

/// Most ratings a single update probe sweeps; keeps every probe well under a
/// second at full size.
const RATING_BUDGET: usize = 1_000_000;
const LIGHT_ITEM_BUDGET: usize = 20_000;

/// What the update probes need to know about the sampler's configuration.
#[derive(Clone, Copy)]
pub struct UpdateCfg {
    pub k: usize,
    pub alpha: f64,
    pub rank_one_max: usize,
    pub parallel_threshold: usize,
    pub kernel_threads: usize,
    pub global_mean: f64,
}

/// One side of the bipartite sweep: the rows being resampled and the factor
/// matrix of the side they rate.
#[derive(Clone, Copy)]
struct Side<'a> {
    m: &'a Csr,
    other: &'a Mat,
}

/// Stand-in prior: the kernels' cost does not depend on the prior's values,
/// only on its shape.
struct Prior {
    lambda: Mat,
    lambda_mu: Vec<f64>,
    chol: Cholesky,
}

impl Prior {
    fn new(k: usize) -> Self {
        let lambda = Mat::identity(k);
        Prior {
            lambda_mu: vec![0.0; k],
            chol: Cholesky::factor(&lambda).expect("identity is SPD"),
            lambda,
        }
    }

    fn side<'a>(&'a self, cfg: &UpdateCfg) -> SidePrior<'a> {
        SidePrior {
            lambda: &self.lambda,
            lambda_mu: &self.lambda_mu,
            chol_lambda: &self.chol,
            alpha: cfg.alpha,
            mean_offset: cfg.global_mean,
        }
    }
}

/// Up to `budget` rows of `side` that `choose_method` sends to `method`,
/// spread evenly over the matrix.
fn rows_of_method(
    side: Side<'_>,
    cfg: &UpdateCfg,
    method: UpdateMethod,
    budget_ratings: usize,
    budget_items: usize,
) -> Vec<usize> {
    let all: Vec<usize> = (0..side.m.nrows())
        .filter(|&i| {
            let d = side.m.row_nnz(i);
            d > 0 && choose_method(d, cfg.rank_one_max, cfg.parallel_threshold) == method
        })
        .collect();
    let ratings: usize = all.iter().map(|&i| side.m.row_nnz(i)).sum();
    let keep_every = ratings
        .div_ceil(budget_ratings.max(1))
        .max(all.len().div_ceil(budget_items.max(1)))
        .max(1);
    all.into_iter().step_by(keep_every).collect()
}

/// Time `update_item` over `rows` of each side; returns (seconds, items,
/// ratings).
fn time_updates(
    ctx: &Ctx,
    span: &'static str,
    sides: &[(Side<'_>, Vec<usize>)],
    cfg: &UpdateCfg,
    method: UpdateMethod,
) -> (f64, usize, usize) {
    let prior = Prior::new(cfg.k);
    let sp = prior.side(cfg);
    let mut rng = Xoshiro256pp::seed_from_u64(0xB0B);
    let mut scratch = UpdateScratch::new(cfg.k);
    let mut out = vec![0.0; cfg.k];
    let items: usize = sides.iter().map(|(_, rows)| rows.len()).sum();
    let ratings: usize = sides
        .iter()
        .map(|(s, rows)| rows.iter().map(|&i| s.m.row_nnz(i)).sum::<usize>())
        .sum();
    if items == 0 {
        return (0.0, 0, 0);
    }
    let mut sweep = |rng: &mut Xoshiro256pp| {
        for (side, rows) in sides {
            for &i in rows {
                update_item(
                    method,
                    &sp,
                    side.m.row(i),
                    side.other,
                    None,
                    rng,
                    &mut scratch,
                    &mut out,
                    cfg.kernel_threads,
                );
            }
        }
        std::hint::black_box(&out);
    };
    sweep(&mut rng); // warm the scratch buffers and the factor rows
    let ((), secs) = ctx.timed(span, items as u64, || sweep(&mut rng));
    (secs, items, ratings)
}

/// Exact item and rating shares per update method, both sides, straight from
/// `choose_method`.
fn method_shares(sides: &[Side<'_>], cfg: &UpdateCfg, out: &mut Outcome) {
    let (mut items, mut ratings) = ([0usize; 3], [0usize; 3]);
    for side in sides {
        for i in 0..side.m.nrows() {
            let d = side.m.row_nnz(i);
            let slot = match choose_method(d, cfg.rank_one_max, cfg.parallel_threshold) {
                UpdateMethod::RankOne => 0,
                UpdateMethod::CholSerial => 1,
                UpdateMethod::CholParallel => 2,
            };
            items[slot] += 1;
            ratings[slot] += d;
        }
    }
    let n_items = items.iter().sum::<usize>().max(1) as f64;
    let n_ratings = ratings.iter().sum::<usize>().max(1) as f64;
    out.set_layer("update.share_rank_one", items[0] as f64 / n_items);
    out.set_layer("update.share_chol_serial", items[1] as f64 / n_items);
    out.set_layer("update.share_chol_parallel", items[2] as f64 / n_items);
    // Ratings whose accumulation goes through the blocked panel kernels.
    out.set_layer(
        "update.rating_share_blocked",
        (ratings[1] + ratings[2]) as f64 / n_ratings,
    );
}

/// `syrk_ld_lower` and `gemv_t_acc` on panels gathered from the workload's
/// own heavy rows. The panels fit in L2, as a just-gathered panel does in the
/// sweep.
fn panel_kernels(ctx: &Ctx, sides: &[Side<'_>], cfg: &UpdateCfg, out: &mut Outcome) {
    let k = cfg.k;
    let max_panels = ((1 << 20) / (PANEL_BLOCK * k * 8)).max(4);
    let mut panels: Vec<Vec<f64>> = Vec::new();
    let mut weights: Vec<Vec<f64>> = Vec::new();
    'gather: for side in sides {
        for i in 0..side.m.nrows() {
            let (cols, vals) = side.m.row(i);
            if cols.len() <= cfg.rank_one_max {
                continue;
            }
            for (cblock, vblock) in cols.chunks(PANEL_BLOCK).zip(vals.chunks(PANEL_BLOCK)) {
                let mut panel = Vec::with_capacity(cblock.len() * k);
                for &j in cblock {
                    panel.extend_from_slice(side.other.row(j as usize));
                }
                panels.push(panel);
                weights.push(
                    vblock
                        .iter()
                        .map(|r| cfg.alpha * (r - cfg.global_mean))
                        .collect(),
                );
                if panels.len() == max_panels {
                    break 'gather;
                }
            }
        }
    }
    let rows: usize = weights.iter().map(Vec::len).sum();
    if rows == 0 {
        return;
    }
    let passes = (RATING_BUDGET / rows).clamp(1, 200);
    let ratings = (rows * passes) as u64;
    let mut prec = Mat::zeros(k, k);
    let ((), secs) = ctx.timed("linalg.syrk_ld_lower", ratings, || {
        for _ in 0..passes {
            for panel in &panels {
                syrk_ld_lower(&mut prec, cfg.alpha, panel, k);
            }
        }
        std::hint::black_box(&prec);
    });
    out.set_layer("linalg.syrk_ns_per_rating", secs * 1e9 / ratings as f64);
    let mut rhs = vec![0.0; k];
    let ((), secs) = ctx.timed("linalg.gemv_t_acc", ratings, || {
        for _ in 0..passes {
            for (panel, w) in panels.iter().zip(&weights) {
                gemv_t_acc(&mut rhs, panel, w);
            }
        }
        std::hint::black_box(&rhs);
    });
    out.set_layer("linalg.gemv_ns_per_rating", secs * 1e9 / ratings as f64);
}

/// The fixed per-item cost that dominates light rows: one K×K Cholesky and
/// one multivariate-normal draw.
fn per_item_kernels(ctx: &Ctx, k: usize, out: &mut Outcome) {
    let spd = Mat::from_fn(k, k, |i, j| if i == j { k as f64 } else { 0.5 });
    let reps = 2_000u64;
    let mut work = Mat::zeros(k, k);
    let ((), secs) = ctx.timed("linalg.cholesky_in_place", reps, || {
        for _ in 0..reps {
            work.copy_from(&spd);
            cholesky_in_place(&mut work).expect("probe matrix is SPD");
        }
        std::hint::black_box(&work);
    });
    out.set_layer("linalg.chol_us", secs * 1e6 / reps as f64);

    let chol = Cholesky::factor(&spd).expect("probe matrix is SPD");
    let mean = vec![0.0; k];
    let mut draw = vec![0.0; k];
    let mut rng = Xoshiro256pp::seed_from_u64(0xD1CE);
    let reps = 20_000u64;
    let ((), secs) = ctx.timed("stats.sample_mvn_from_precision", reps, || {
        for _ in 0..reps {
            sample_mvn_from_precision(&mut rng, &mean, &chol, &mut draw);
        }
        std::hint::black_box(&draw);
    });
    out.set_layer("stats.mvn_draw_ns", secs * 1e9 / reps as f64);
}

/// One iteration's hyper-parameter work: sufficient statistics plus a
/// Normal-Wishart draw for each side.
fn hyper_draw(ctx: &Ctx, users: &Mat, movies: &Mat, out: &mut Outcome) {
    let mut rng = Xoshiro256pp::seed_from_u64(0x11A);
    let reps = 3u64;
    let ((), secs) = ctx.timed("stats.normal_wishart_draw", reps, || {
        for _ in 0..reps {
            for side in [users, movies] {
                let stats = SuffStats::from_rows(side);
                let post = NormalWishart::default_for_dim(side.cols()).posterior(&stats);
                std::hint::black_box(post.sample(&mut rng));
            }
        }
    });
    out.set_layer("stats.hyper_draw_ms", secs * 1e3 / reps as f64);
}

/// One sweep of each side through the workload's own runner, for the
/// per-worker busy times `IterStats` does not carry.
fn sweep_imbalance(
    ctx: &Ctx,
    runner: &dyn ItemRunner,
    sides: &[Side<'_>],
    cfg: &UpdateCfg,
    out: &mut Outcome,
) {
    let prior = Prior::new(cfg.k);
    let sp = prior.side(cfg);
    struct Worker {
        rng: Xoshiro256pp,
        scratch: UpdateScratch,
        row: Vec<f64>,
    }
    let workers: Vec<Mutex<Worker>> = Xoshiro256pp::streams(0x5EED, runner.threads())
        .into_iter()
        .map(|rng| {
            Mutex::new(Worker {
                rng,
                scratch: UpdateScratch::new(cfg.k),
                row: vec![0.0; cfg.k],
            })
        })
        .collect();
    let mut worst = 1.0f64;
    for side in sides {
        let weights = WorkModel::default().row_weights(side.m);
        let update = |worker: usize, item: usize| {
            let ratings = side.m.row(item);
            let method = choose_method(ratings.0.len(), cfg.rank_one_max, cfg.parallel_threshold);
            let mut guard = workers[worker].lock().expect("probe worker poisoned");
            let w = &mut *guard;
            update_item(
                method,
                &sp,
                ratings,
                side.other,
                None,
                &mut w.rng,
                &mut w.scratch,
                &mut w.row,
                cfg.kernel_threads,
            );
        };
        let (stats, _) = ctx.timed("sched.run_items", side.m.nrows() as u64, || {
            runner.run_items(side.m.nrows(), Some(&weights), None, &update)
        });
        worst = worst.max(stats.imbalance());
    }
    out.set_layer("sched.imbalance", worst);
}

/// Rebuild the CSR pair from triplets, the part of set-up that is not the
/// generator's sampling.
pub fn csr_build(ctx: &Ctx, r: &Csr, out: &mut Outcome) {
    let mut coo = Coo::with_capacity(r.nrows(), r.ncols(), r.nnz());
    for (i, j, v) in r.iter() {
        coo.push(i, j as usize, v);
    }
    let (built, secs) = ctx.timed("sparse.csr_build", r.nnz() as u64, || {
        let m = Csr::from_coo_owned(coo);
        let t = m.transpose();
        (m, t)
    });
    std::hint::black_box(&built);
    out.set_layer("sparse.csr_build_s", secs);
}

/// A workload's rating matrix (both orientations) with the factors its fit
/// produced: what the update probes draw their inputs from.
#[derive(Clone, Copy)]
pub struct Fitted<'a> {
    pub r: &'a Csr,
    pub rt: &'a Csr,
    pub users: &'a Mat,
    pub movies: &'a Mat,
}

/// All update-path probes of a training or distributed workload.
pub fn train_probes(
    ctx: &Ctx,
    fitted: Fitted<'_>,
    cfg: &UpdateCfg,
    runner: Option<&dyn ItemRunner>,
    out: &mut Outcome,
) {
    let (users, movies) = (fitted.users, fitted.movies);
    let sides = [
        Side {
            m: fitted.r,
            other: movies,
        },
        Side {
            m: fitted.rt,
            other: users,
        },
    ];
    method_shares(&sides, cfg, out);

    let pick = |method, items| -> Vec<(Side<'_>, Vec<usize>)> {
        sides
            .iter()
            .map(|&s| (s, rows_of_method(s, cfg, method, RATING_BUDGET / 2, items)))
            .collect()
    };
    let light = pick(UpdateMethod::RankOne, LIGHT_ITEM_BUDGET / 2);
    let (secs, items, _) = time_updates(
        ctx,
        "update.update_item.rank_one",
        &light,
        cfg,
        UpdateMethod::RankOne,
    );
    if items > 0 {
        out.set_layer("update.light_item_us", secs * 1e6 / items as f64);
    }
    let heavy = pick(UpdateMethod::CholSerial, usize::MAX);
    let (secs, _, ratings) = time_updates(
        ctx,
        "update.update_item.chol_serial",
        &heavy,
        cfg,
        UpdateMethod::CholSerial,
    );
    if ratings > 0 {
        out.set_layer("update.heavy_ns_per_rating", secs * 1e9 / ratings as f64);
    }
    let par = pick(UpdateMethod::CholParallel, usize::MAX);
    let (secs, _, ratings) = time_updates(
        ctx,
        "update.update_item.chol_parallel",
        &par,
        cfg,
        UpdateMethod::CholParallel,
    );
    if ratings > 0 {
        out.set_layer("update.par_ns_per_rating", secs * 1e9 / ratings as f64);
    }

    panel_kernels(ctx, &sides, cfg, out);
    per_item_kernels(ctx, cfg.k, out);
    hyper_draw(ctx, users, movies, out);
    if let Some(runner) = runner {
        sweep_imbalance(ctx, runner, &sides, cfg, out);
    }
    csr_build(ctx, fitted.r, out);
}

// ---------------------------------------------------------------------------
// Serving probes
// ---------------------------------------------------------------------------

/// Users the scoring probes cycle through.
const PROBE_USERS: usize = 256;

fn probe_users(n_users: usize) -> Vec<u32> {
    (0..PROBE_USERS.min(n_users))
        .map(|i| ((i * 131) % n_users) as u32)
        .collect()
}

/// Single-request `top_n` latency under one ranking policy.
fn top_n_us(
    ctx: &Ctx,
    span: &'static str,
    model: &PosteriorModel,
    train: &Csr,
    policy: RankPolicy,
) -> f64 {
    let users = probe_users(train.nrows());
    let mut service = RecommendService::new(model, train.ncols())
        .exclude_seen(train)
        .policy(policy);
    std::hint::black_box(service.top_n(users[0] as usize, crate::spec::TOP_N));
    let ((), secs) = ctx.timed(span, users.len() as u64, || {
        for &u in &users {
            std::hint::black_box(service.top_n(u as usize, crate::spec::TOP_N));
        }
    });
    secs * 1e6 / users.len() as f64
}

/// The scoring layers under the daemon: `RecommendService`, the packed GEMM
/// and the item-factor packing, on this workload's catalogue and request mix.
pub fn scoring_probes(
    ctx: &Ctx,
    model: &PosteriorModel,
    train: &Csr,
    mix: &[ServeRequest],
    workers: usize,
    out: &mut Outcome,
) {
    let n_items = train.ncols();
    out.set_layer(
        "service.top_n_us_mean",
        top_n_us(ctx, "service.top_n.mean", model, train, RankPolicy::Mean),
    );
    out.set_layer(
        "service.top_n_us_ucb",
        top_n_us(
            ctx,
            "service.top_n.ucb",
            model,
            train,
            RankPolicy::Ucb { beta: 1.0 },
        ),
    );
    out.set_layer(
        "service.top_n_us_thompson",
        top_n_us(
            ctx,
            "service.top_n.thompson",
            model,
            train,
            RankPolicy::Thompson { seed: 42 },
        ),
    );

    // A full micro-batch of the workload's own mix through the batch path.
    let batch: Vec<ServeRequest> = mix.iter().copied().cycle().take(MICRO_BATCH).collect();
    let mut service = RecommendService::new(model, n_items).exclude_seen(train);
    std::hint::black_box(service.recommend_each(&batch));
    let reps = (20_000_000 / (n_items * MICRO_BATCH)).clamp(2, 40);
    let ((), secs) = ctx.timed(
        "service.recommend_each",
        (reps * MICRO_BATCH) as u64,
        || {
            for _ in 0..reps {
                std::hint::black_box(service.recommend_each(&batch));
            }
        },
    );
    let batch_us = secs * 1e6 / (reps * MICRO_BATCH) as f64;
    out.set_layer("service.batch_us_per_req", batch_us);
    out.set_layer("service.ceiling_rps", workers as f64 * 1e6 / batch_us);

    // The GEMM alone: a micro-batch of user rows against the packed item
    // factors.
    let k = model.movie_means().cols();
    let (packed, secs) = ctx.timed("linalg.pack_transposed_from", 1, || {
        PackedB::pack_transposed_from(model.movie_means())
    });
    out.set_layer("linalg.pack_b_ms", secs * 1e3);
    let m = MICRO_BATCH.min(model.user_means().rows());
    let a: Vec<f64> = (0..m)
        .flat_map(|u| model.user_means().row(u).iter().copied())
        .collect();
    let mut c = vec![0.0; m * n_items];
    gemm_packed_into(m, &a, &packed, &mut c);
    let ((), secs) = ctx.timed(
        "linalg.gemm_packed_into",
        (reps * m * n_items) as u64,
        || {
            for _ in 0..reps {
                gemm_packed_into(m, &a, &packed, &mut c);
                std::hint::black_box(&c);
            }
        },
    );
    out.set_layer(
        "linalg.gemm_ns_per_score",
        secs * 1e9 / (reps * m * n_items) as f64,
    );
    // Computed from the operand sizes, not measured: 2mnk flops over the
    // bytes of A, B and C touched once.
    out.set_layer(
        "linalg.gemm_flops_per_byte",
        (2 * m * n_items * k) as f64 / (8 * (m * k + k * n_items + m * n_items)) as f64,
    );
}

/// Cold-start fold-in kernel on this catalogue's item factors.
pub fn fold_in_probe(
    ctx: &Ctx,
    model: &PosteriorModel,
    ratings: &[(Vec<u32>, Vec<f64>)],
    out: &mut Outcome,
) {
    if ratings.is_empty() {
        return;
    }
    let k = model.movie_means().cols();
    let prior = Prior::new(k);
    let cfg = UpdateCfg {
        k,
        alpha: 2.0,
        rank_one_max: 0,
        parallel_threshold: usize::MAX,
        kernel_threads: 1,
        global_mean: 0.0,
    };
    let sp = prior.side(&cfg);
    let mut scratch = UpdateScratch::new(k);
    let mut row = vec![0.0; k];
    let reps = 2_000usize.div_ceil(ratings.len());
    let n = (reps * ratings.len()) as u64;
    let ((), secs) = ctx.timed("update.fold_in_mean", n, || {
        for _ in 0..reps {
            for (items, vals) in ratings {
                fold_in_mean(
                    &sp,
                    (items, vals),
                    model.movie_means(),
                    &mut scratch,
                    &mut row,
                );
            }
        }
        std::hint::black_box(&row);
    });
    out.set_layer("update.fold_in_us", secs * 1e6 / n as f64);
}

/// The pointer swap a reload ends in.
pub fn handle_swap_probe(ctx: &Ctx, a: &PosteriorModel, b: &PosteriorModel, out: &mut Outcome) {
    let a: std::sync::Arc<dyn bpmf::Recommender + Send + Sync> = std::sync::Arc::new(a.clone());
    let b: std::sync::Arc<dyn bpmf::Recommender + Send + Sync> = std::sync::Arc::new(b.clone());
    let handle = ModelHandle::new(a.clone(), 0);
    let reps = 10_000u64;
    let ((), secs) = ctx.timed("model.handle_swap", reps, || {
        for i in 0..reps {
            let next = if i % 2 == 0 { &b } else { &a };
            handle.swap(next.clone(), i + 1);
        }
    });
    out.set_layer("model.handle_swap_us", secs * 1e6 / reps as f64);
}

/// Hop through the coalescing queue at the lone client's arrival pattern:
/// one job at a time, so each hop waits out the batch window.
pub fn queue_hop_probe(ctx: &Ctx, cfg: CoalesceConfig, out: &mut Outcome) {
    let queue: Queue<Instant> = Queue::new(cfg);
    let hops = if ctx.smoke { 10 } else { 50 };
    let gap = Duration::from_secs_f64(1.0 / crate::spec::OPEN_LOOP_RPS);
    let mut waits: Vec<f64> = Vec::with_capacity(hops);
    let ((), _) = ctx.timed("coalesce.submit_next_batch", hops as u64, || {
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut waits = Vec::new();
                while let Some(batch) = queue.next_batch() {
                    let now = Instant::now();
                    waits.extend(batch.iter().map(|t| (now - *t).as_secs_f64() * 1e6));
                }
                waits
            });
            for _ in 0..hops {
                assert!(queue.submit(Instant::now()).is_ok(), "probe queue is open");
                std::thread::sleep(gap);
            }
            queue.shutdown();
            waits = consumer.join().expect("queue consumer");
        });
    });
    out.set_layer("coalesce.queue_hop_us", crate::stats::median(&waits));
}

/// JSON wire codec on a representative request and reply.
pub fn wire_probes(ctx: &Ctx, req: &wire::Request, resp: &wire::Response, out: &mut Outcome) {
    let reps = 20_000u64;
    let req_line = wire::encode(req);
    let resp_line = wire::encode(resp);
    let ((), secs) = ctx.timed("wire.encode.request", reps, || {
        for _ in 0..reps {
            std::hint::black_box(wire::encode(req));
        }
    });
    out.set_layer("wire.encode_req_ns", secs * 1e9 / reps as f64);
    let ((), secs) = ctx.timed("wire.decode_request", reps, || {
        for _ in 0..reps {
            std::hint::black_box(wire::decode_request(&req_line).expect("own request parses"));
        }
    });
    out.set_layer("wire.decode_req_ns", secs * 1e9 / reps as f64);
    let ((), secs) = ctx.timed("wire.encode.response", reps, || {
        for _ in 0..reps {
            std::hint::black_box(wire::encode(resp));
        }
    });
    out.set_layer("wire.encode_resp_ns", secs * 1e9 / reps as f64);
    let ((), secs) = ctx.timed("wire.decode_response", reps, || {
        for _ in 0..reps {
            std::hint::black_box(wire::decode_response(&resp_line).expect("own reply parses"));
        }
    });
    out.set_layer("wire.decode_resp_ns", secs * 1e9 / reps as f64);
}

/// The router's k-way merge on two shard-sized lists.
pub fn merge_probe(ctx: &Ctx, full: &[wire::RankedItem], out: &mut Outcome) {
    let shards: Vec<Vec<wire::RankedItem>> = vec![
        full.iter().copied().step_by(2).collect(),
        full.iter().copied().skip(1).step_by(2).collect(),
    ];
    let reps = 50_000u64;
    let ((), secs) = ctx.timed("shard.merge_top_n", reps, || {
        for _ in 0..reps {
            std::hint::black_box(merge_top_n(&shards, crate::spec::TOP_N));
        }
    });
    out.set_layer("shard.merge_us", secs * 1e6 / reps as f64);
}
