//! The training and distributed workloads: `train_movielens`, `train_chembl`
//! and `dist_chembl`.

use std::time::Instant;

use bpmf::distributed::{run_rank, DistConfig, DistOutcome, ExchangeMode};
use bpmf::{
    Bpmf, BpmfConfig, FitControl, FitSnapshot, IterCallback, IterStats, TrainData, Trainer,
};
use bpmf_cluster_sim::{phase_loads, simulate_iteration, ComputeModel, Topology};
use bpmf_dataset::{chembl_like, movielens_like, Dataset};
use bpmf_mpisim::{Comm, NetModel, Universe};
use bpmf_sparse::{rcm_bipartite, BlockPartition, CommPlan, WorkModel};

use crate::host;
use crate::probes::{self, UpdateCfg};
use crate::run::{Ctx, Outcome};
use crate::spec::{self, Shape, TrainSpec, Workload};
use crate::stats::{contiguous_groups, iqr, median, percentile, summarize, SLICES};
use crate::trace::Span;

/// Upper bound on sampling iterations; the deadline stops the fit long before.
const MAX_SAMPLES: usize = 100_000;

fn generate(shape: Shape, seed: u64) -> Dataset {
    match shape {
        Shape::Movielens(scale) => movielens_like(scale, seed),
        Shape::Chembl(scale) => chembl_like(scale, seed),
    }
}

/// Generate the matrix `reps` times; returns the last one and each wall time.
/// Generation includes the CSR build of both orientations.
fn set_up(ctx: &Ctx, shape: Shape, reps: usize) -> (Dataset, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut generate_once = || {
        let (ds, secs) = ctx.timed("dataset.generate", 1, || generate(shape, ctx.seed));
        times.push(secs);
        ds
    };
    // One matrix resident at a time: each repetition is dropped at once.
    for _ in 1..reps {
        drop(generate_once());
    }
    let ds = generate_once();
    (ds, times)
}

fn setup_reps(ctx: &Ctx) -> usize {
    if ctx.smoke {
        1
    } else {
        spec::SETUP_REPS
    }
}

/// Seconds at which a decreasing curve first reaches `target`, interpolated
/// linearly between the iterate above it and the iterate at or below it.
/// `None` when the curve never gets there.
pub fn time_to_target(points: &[(f64, f64)], target: f64) -> Option<f64> {
    let mut prev: Option<(f64, f64)> = None;
    for &(t, v) in points {
        if v.is_finite() && v <= target {
            return Some(match prev {
                Some((pt, pv)) if pv.is_finite() && pv > v => {
                    pt + (t - pt) * ((pv - target) / (pv - v)).clamp(0.0, 1.0)
                }
                _ => t,
            });
        }
        prev = Some((t, v));
    }
    None
}

/// Iterations-to-target priced at the run's median iteration time: the same
/// crossing as [`time_to_target`], but one slow iteration on a disturbed host
/// does not move it. `ends[i]` is when iteration `i` ended.
pub fn prorated_time_to_target(ends: &[f64], rmse: &[f64], target: f64) -> Option<f64> {
    let starts = std::iter::once(&0.0).chain(ends);
    let durations: Vec<f64> = ends
        .iter()
        .zip(starts)
        .map(|(end, start)| end - start)
        .collect();
    let per_iter = median(&durations);
    let curve: Vec<(f64, f64)> = rmse
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i + 1) as f64 * per_iter, v))
        .collect();
    time_to_target(&curve, target)
}

/// Observes the fit through `IterCallback`: stamps every iteration with wall
/// and CPU clocks and ends the fit at the deadline.
struct Clock<'c> {
    ctx: &'c Ctx,
    t0: Instant,
    min_iters: usize,
    /// (seconds since fit start, process CPU seconds, stats) per iteration.
    iters: Vec<(f64, f64, IterStats)>,
    fit_span: u64,
}

impl IterCallback for Clock<'_> {
    fn on_iteration(&mut self, stats: &IterStats, _snapshot: &dyn FitSnapshot) -> FitControl {
        let now = self.t0.elapsed().as_secs_f64();
        let prev = self.iters.last().map_or(0.0, |i| i.0);
        // The traced pass records a span on every other iteration, so the two
        // halves of one fit give the tracing overhead.
        if self.ctx.traced && stats.iter.is_multiple_of(2) {
            let base = self.ctx.tracer.ns_of(self.t0);
            self.ctx.tracer.push(Span {
                name: "sampler.iteration",
                start_ns: base + (prev * 1e9) as u64,
                end_ns: base + (now * 1e9) as u64,
                id: self.ctx.tracer.alloc_id(),
                parent: self.fit_span,
                n: 1,
            });
        }
        self.iters
            .push((now, host::process_cpu_seconds(), stats.clone()));
        // The first iteration is warm-up; the deadline counts from its end.
        let timed = now - self.iters[0].0;
        if timed >= self.ctx.seconds && self.iters.len() >= self.min_iters {
            FitControl::Stop
        } else {
            FitControl::Continue
        }
    }
}

fn builder_for(ts: &TrainSpec, ds: &Dataset, ctx: &Ctx, threads: usize) -> Bpmf {
    let mut b = Bpmf::builder()
        .latent(ts.k)
        .burnin(ts.burnin)
        .samples(MAX_SAMPLES)
        .threads(threads)
        .kernel_threads(threads)
        .seed(ctx.seed);
    if let Some((lo, hi)) = ds.clip {
        b = b.rating_bounds(lo, hi);
    }
    b.build().expect("benchmark training spec is valid")
}

fn update_cfg(cfg: &BpmfConfig, global_mean: f64) -> UpdateCfg {
    UpdateCfg {
        k: cfg.num_latent,
        alpha: cfg.alpha,
        rank_one_max: cfg.rank_one_threshold(),
        parallel_threshold: cfg.parallel_threshold,
        kernel_threads: cfg.kernel_threads,
        global_mean,
    }
}

/// Quality checks shared by every training run; returns the final ratio.
fn check_quality(
    out: &mut Outcome,
    ts: &TrainSpec,
    noise_sd: f64,
    final_rmse: f64,
    reach: Option<f64>,
) -> f64 {
    let ratio = final_rmse / noise_sd;
    if !ratio.is_finite() {
        out.fail(
            out.attempted,
            format!("held-out RMSE is not finite ({final_rmse})"),
        );
    } else if ratio > ts.ceiling_ratio {
        out.fail(
            out.attempted,
            format!(
                "held-out RMSE ratio {ratio:.4} above the ceiling {}",
                ts.ceiling_ratio
            ),
        );
    }
    if reach.is_none() {
        out.fail(
            out.attempted,
            format!("running RMSE never reached {} x noise", ts.target_ratio),
        );
    }
    ratio
}

pub fn run_train(w: Workload, ctx: &Ctx) -> Outcome {
    let ts = spec::train_spec(w, ctx.smoke);
    let mut out = Outcome::default();
    let (ds, setup_times) = set_up(ctx, ts.shape, setup_reps(ctx));
    let items = (ds.nrows() + ds.ncols()) as u64;

    let bspec = builder_for(&ts, &ds, ctx, ctx.par);
    let runner = bspec.runner();
    let mut trainer = bspec.gibbs_trainer();
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let fit_span = if ctx.traced { ctx.tracer.alloc_id() } else { 0 };
    let mut clock = Clock {
        ctx,
        t0: Instant::now(),
        // Warm-up, burn-in, and enough averaged iterates to interpolate.
        min_iters: ts.burnin + 3,
        iters: Vec::new(),
        fit_span,
    };
    let fit_start = ctx.tracer.now_ns();
    let report = trainer
        .fit(&data, runner.as_ref(), &mut clock)
        .expect("gibbs fit on generated data");
    ctx.tracer.push(Span {
        name: "bpmf.fit",
        start_ns: fit_start,
        end_ns: ctx.tracer.now_ns(),
        id: fit_span,
        parent: 0,
        n: 1,
    });
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    let iters = clock.iters;

    // Timed iterations: everything after the warm-up iteration.
    let n_timed = iters.len() - 1;
    let iter_ms: Vec<f64> = iters.windows(2).map(|p| (p[1].0 - p[0].0) * 1e3).collect();
    let groups = contiguous_groups(n_timed, SLICES);
    let rates: Vec<f64> = groups
        .iter()
        .map(|g| (g.len() as u64 * items) as f64 / (iters[g.end].0 - iters[g.start].0))
        .collect();
    let cpu_per_op: Vec<f64> = groups
        .iter()
        .map(|g| (iters[g.end].1 - iters[g.start].1) * 1e6 / (g.len() as u64 * items) as f64)
        .collect();
    out.attempted = n_timed as u64 * items;

    let ends: Vec<f64> = iters.iter().map(|i| i.0).collect();
    let rmse: Vec<f64> = iters.iter().map(|i| i.2.rmse_mean).collect();
    let reach = prorated_time_to_target(&ends, &rmse, ts.target_ratio * ds.noise_sd);
    let ratio = check_quality(&mut out, &ts, ds.noise_sd, report.final_rmse(), reach);

    let mut sorted_ms = iter_ms.clone();
    sorted_ms.sort_by(f64::total_cmp);
    out.set_e2e("setup_s", median(&setup_times), iqr(&setup_times));
    let ops = summarize(&rates);
    out.set_e2e("ops_per_s", ops.value, ops.spread);
    // One process-wide figure: the 10 ms ticks of /proc are too coarse to
    // slice, but the per-slice values give the spread.
    let total_cpu = iters[n_timed].1 - iters[0].1;
    out.set_e2e(
        "cpu_us_per_op",
        total_cpu * 1e6 / out.attempted as f64,
        iqr(&cpu_per_op),
    );
    out.set_e2e("peak_rss_mb", peak_rss, 0.0);
    out.set_e2e("lat_p50_ms", percentile(&sorted_ms, 0.50), iqr(&iter_ms));
    out.set_e2e("lat_p95_ms", percentile(&sorted_ms, 0.95), iqr(&iter_ms));
    out.set_e2e("heldout_rmse_ratio", ratio, 0.0);
    out.set_e2e("time_to_rmse_s", reach.unwrap_or(f64::NAN), 0.0);
    out.series.push(("iteration_ms", iter_ms.clone()));
    out.series.push((
        "rmse_mean_ratio",
        rmse.iter().map(|v| v / ds.noise_sd).collect(),
    ));
    out.series.push(("slice_ops_per_s", rates));

    if ctx.traced {
        let timed_stats: Vec<&IterStats> = iters[1..].iter().map(|i| &i.2).collect();
        let mean = |f: &dyn Fn(&IterStats) -> f64| {
            timed_stats.iter().map(|s| f(s)).sum::<f64>() / timed_stats.len() as f64
        };
        let ips: Vec<f64> = timed_stats.iter().map(|s| s.items_per_sec).collect();
        out.set_layer("sched.busy_frac", mean(&|s| s.busy_fraction));
        out.set_layer("sched.steals_per_iter", mean(&|s| s.steals as f64));
        out.set_layer("sampler.iter_ms", median(&iter_ms));
        out.set_layer(
            "sampler.sweep_share",
            timed_stats.iter().map(|s| s.sweep_seconds).sum::<f64>()
                / (iters[n_timed].0 - iters[0].0),
        );
        out.set_layer("sampler.items_per_s", median(&ips));
        out.set_layer("dataset.gen_s", median(&setup_times));
        // Even iterations recorded a span, odd ones did not.
        let (on, off): (Vec<_>, Vec<_>) = iters[1..]
            .iter()
            .zip(&iter_ms)
            .partition(|(i, _)| i.2.iter % 2 == 0);
        let ms_of = |v: &[(&(f64, f64, IterStats), &f64)]| -> Vec<f64> {
            v.iter().map(|(_, ms)| **ms).collect()
        };
        out.set_layer(
            "trace.overhead_frac",
            median(&ms_of(&on)) / median(&ms_of(&off)) - 1.0,
        );

        let model = trainer.model().expect("fit leaves a model");
        let cfg = update_cfg(&bspec.to_gibbs_config(), ds.global_mean);
        let fitted = probes::Fitted {
            r: &ds.train,
            rt: &ds.train_t,
            users: model.user_means(),
            movies: model.movie_means(),
        };
        probes::train_probes(ctx, fitted, &cfg, Some(runner.as_ref()), &mut out);
        // Parallel efficiency needs a second core to mean anything.
        if ctx.par >= 2 {
            let one = one_thread_rate(&ts, &ds, ctx);
            out.set_layer("sched.scale_eff", median(&ips) / (ctx.par as f64 * one));
        }
    }
    out
}

/// Items per second of the same sampler on one thread (two iterations after
/// a warm-up one).
fn one_thread_rate(ts: &TrainSpec, ds: &Dataset, ctx: &Ctx) -> f64 {
    let mut spec = builder_for(ts, ds, ctx, 1);
    spec.burnin = 1;
    spec.samples = 2;
    let runner = spec.runner();
    let mut trainer = spec.gibbs_trainer();
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut rates = Vec::new();
    let mut observe = |s: &IterStats| {
        rates.push(s.items_per_sec);
        FitControl::Continue
    };
    ctx.timed("bpmf.fit.one_thread", 3, || {
        trainer
            .fit(&data, runner.as_ref(), &mut observe)
            .expect("one-thread fit")
    });
    median(&rates[1..])
}

// ---------------------------------------------------------------------------
// dist_chembl
// ---------------------------------------------------------------------------

fn dist_config(ts: &TrainSpec, ctx: &Ctx, iterations: usize) -> DistConfig {
    DistConfig {
        base: BpmfConfig {
            num_latent: ts.k,
            burnin: ts.burnin,
            samples: iterations - ts.burnin,
            seed: ctx.seed,
            kernel_threads: 1,
            ..BpmfConfig::default()
        },
        send_buffer_items: 64,
        reorder: true,
        threads_per_rank: 1,
        exchange: ExchangeMode::TwoSided,
        ..DistConfig::default()
    }
}

struct DistRun {
    outcomes: Vec<DistOutcome>,
    wall: f64,
    cpu: f64,
}

fn run_universe(
    ctx: &Ctx,
    span: &'static str,
    ds: &Dataset,
    cfg: &DistConfig,
    ranks: usize,
) -> DistRun {
    let cpu0 = host::process_cpu_seconds();
    let (outcomes, wall) = ctx.timed(span, cfg.base.iterations() as u64, || {
        Universe::run(ranks, Some(NetModel::test_cluster()), |comm| {
            run_rank(comm, &ds.train, &ds.train_t, ds.global_mean, &ds.test, cfg)
        })
    });
    DistRun {
        outcomes,
        wall,
        cpu: host::process_cpu_seconds() - cpu0,
    }
}

pub fn run_dist(ctx: &Ctx) -> Outcome {
    let ts = spec::train_spec(Workload::DistChembl, ctx.smoke);
    let mut out = Outcome::default();
    let (ds, setup_times) = set_up(ctx, ts.shape, setup_reps(ctx));
    let items = (ds.nrows() + ds.ncols()) as u64;
    let ranks = ctx.par;

    // `run_rank` runs a fixed number of iterations and has no callback, so
    // the deadline becomes an iteration count at the frozen reference rate.
    let iterations = ((ctx.seconds * ts.dist_iters_per_second).round() as usize).max(ts.burnin + 3);
    let cfg = dist_config(&ts, ctx, iterations);
    let run = run_universe(ctx, "mpisim.universe_run", &ds, &cfg, ranks);
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    out.attempted = iterations as u64 * items;

    // RCM, partitioning and planning happen inside `run_rank` before its
    // clock starts: they are part of this workload's timed run.
    let loop_s = run
        .outcomes
        .iter()
        .map(|o| o.elapsed_seconds)
        .fold(0.0, f64::max);
    let prep_s = (run.wall - loop_s).max(0.0);
    let per_iter = loop_s / iterations as f64;

    let lead = &run.outcomes[0];
    for o in &run.outcomes[1..] {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if !same(&o.rmse_mean_trace, &lead.rmse_mean_trace)
            || !same(&o.rmse_sample_trace, &lead.rmse_sample_trace)
        {
            out.fail(
                out.attempted,
                format!("rank {} disagrees with rank 0 on the RMSE trace", o.rank),
            );
        }
    }
    if lead.rmse_sample_trace.iter().any(|v| !v.is_finite()) {
        out.fail(out.attempted, "a sample RMSE is not finite");
    }
    // Prorated: iteration i ends at prep + (i + 1) * per_iter.
    let curve: Vec<(f64, f64)> = lead
        .rmse_mean_trace
        .iter()
        .enumerate()
        .map(|(i, &v)| (prep_s + (i + 1) as f64 * per_iter, v))
        .collect();
    let reach = time_to_target(&curve, ts.target_ratio * ds.noise_sd);
    let ratio = check_quality(&mut out, &ts, ds.noise_sd, lead.final_rmse(), reach);

    out.set_e2e("setup_s", median(&setup_times), iqr(&setup_times));
    out.set_e2e("ops_per_s", out.attempted as f64 / run.wall, 0.0);
    out.set_e2e("cpu_us_per_op", run.cpu * 1e6 / out.attempted as f64, 0.0);
    out.set_e2e("peak_rss_mb", peak_rss, 0.0);
    // `run_rank` exposes no per-iteration clock: both percentiles are the
    // mean iteration time of the slowest rank.
    out.set_e2e("lat_p50_ms", per_iter * 1e3, 0.0);
    out.set_e2e("lat_p95_ms", per_iter * 1e3, 0.0);
    out.set_e2e("heldout_rmse_ratio", ratio, 0.0);
    out.set_e2e("time_to_rmse_s", reach.unwrap_or(f64::NAN), 0.0);

    if ctx.traced {
        out.set_layer("dataset.gen_s", median(&setup_times));
        dist_layers(ctx, &ts, &ds, &cfg, &run, prep_s, &mut out);
    }
    out
}

fn dist_layers(
    ctx: &Ctx,
    ts: &TrainSpec,
    ds: &Dataset,
    cfg: &DistConfig,
    run: &DistRun,
    prep_s: f64,
    out: &mut Outcome,
) {
    let ranks = run.outcomes.len();
    let iterations = cfg.base.iterations();
    let mean =
        |f: &dyn Fn(&DistOutcome) -> f64| run.outcomes.iter().map(f).sum::<f64>() / ranks as f64;
    out.set_layer("dist.compute_frac", mean(&|o| o.compute_frac));
    out.set_layer("dist.both_frac", mean(&|o| o.both_frac));
    out.set_layer("dist.comm_frac", mean(&|o| o.comm_frac));
    // Busy seconds of the busiest rank over the mean.
    let busy: Vec<f64> = run
        .outcomes
        .iter()
        .map(|o| o.elapsed_seconds * (o.compute_frac + o.both_frac))
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / ranks as f64;
    out.set_layer(
        "dist.rank_imbalance",
        busy.iter().cloned().fold(0.0, f64::max) / mean_busy,
    );
    out.set_layer("dist.prep_share", prep_s / run.wall);
    let total = |f: &dyn Fn(&DistOutcome) -> u64| run.outcomes.iter().map(f).sum::<u64>() as f64;
    out.set_layer(
        "mpisim.msgs_per_iter",
        total(&|o| o.msgs_sent) / iterations as f64,
    );
    out.set_layer(
        "mpisim.bytes_per_iter",
        total(&|o| o.bytes_sent) / iterations as f64,
    );
    out.set_layer(
        "sparse.plan_items_per_iter",
        run.outcomes[0].comm_volume_items as f64,
    );
    // The traced pass has no untraced half here: the whole run is one call.
    out.set_layer("trace.overhead_frac", 0.0);

    // Round trips between two ranks under the same network model.
    let trips = if ctx.smoke { 50 } else { 500 };
    let ((), secs) = ctx.timed("mpisim.pingpong", trips, || {
        Universe::run(2, Some(NetModel::test_cluster()), |comm: &mut Comm| {
            let payload = [0u8; 256];
            for _ in 0..trips {
                if comm.rank() == 0 {
                    comm.send(1, 7, &payload);
                    comm.recv(Some(1), 7);
                } else {
                    comm.recv(Some(0), 7);
                    comm.send(0, 7, &payload);
                }
            }
        });
    });
    out.set_layer("mpisim.pingpong_us", secs * 1e6 / trips as f64);

    // The preparation steps of `run_rank`, each on its own.
    let ((pr, pc), secs) = ctx.timed("sparse.rcm_bipartite", 1, || rcm_bipartite(&ds.train));
    out.set_layer("sparse.rcm_s", secs);
    let r2 = ds.train.permute(&pr, &pc);
    let rt2 = r2.transpose();
    let (plans, secs) = ctx.timed("sparse.partition_and_plan", 1, || {
        let wm = WorkModel::default();
        let users = BlockPartition::weighted(&wm.row_weights(&r2), ranks);
        let movies = BlockPartition::weighted(&wm.row_weights(&rt2), ranks);
        (
            CommPlan::build(&r2, &users, &movies),
            CommPlan::build(&rt2, &movies, &users),
        )
    });
    std::hint::black_box(&plans);
    out.set_layer("sparse.partition_s", secs);

    // The cluster simulator's prediction for the same matrix, printed beside
    // the measurement it stands in for elsewhere in the repository.
    let sim = |nodes: usize| {
        simulate_iteration(
            &Topology::lynx_like(),
            &ComputeModel::default_calibration(),
            &phase_loads(&r2, &rt2, nodes, ts.k),
            cfg.send_buffer_items,
        )
        .makespan_s
    };
    let predicted = ctx
        .timed("cluster_sim.simulate_iteration", 2, || {
            sim(1) / (ranks as f64 * sim(ranks))
        })
        .0;
    out.set_layer("cluster_sim.predicted_scale_eff", predicted);

    let lead = &run.outcomes[0];
    if let (Some(u), Some(v)) = (&lead.user_factors, &lead.movie_factors) {
        let ucfg = update_cfg(&cfg.base, ds.global_mean);
        let fitted = probes::Fitted {
            r: &ds.train,
            rt: &ds.train_t,
            users: &u.to_mat(),
            movies: &v.to_mat(),
        };
        probes::train_probes(ctx, fitted, &ucfg, None, out);
    }

    // Same problem on one rank, a few iterations: aggregate rate against it.
    if ranks >= 2 {
        let mut short = cfg.clone();
        short.base.burnin = 1;
        short.base.samples = 2;
        let one = run_universe(ctx, "mpisim.universe_run.one_rank", ds, &short, 1);
        out.set_layer(
            "dist.scale_eff",
            run.outcomes[0].items_per_sec / (ranks as f64 * one.outcomes[0].items_per_sec),
        );
    }
}
