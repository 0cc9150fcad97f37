//! The serving workloads: the cold-start path that is their set-up, the
//! in-process fleet (one daemon, or a router over two shard daemons), and the
//! assembly of their metrics. The load generator lives in `loadgen`.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpmf::checkpoint::{read_checkpoint, write_checkpoint_sync, SamplerCheckpoint};
use bpmf::serve::daemon::{self, DaemonConfig, ReloadContext, ServingModel};
use bpmf::serve::router::{self, RouterConfig};
use bpmf::serve::shard::{slice_train_columns, ShardSpec, ShardView};
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest, MICRO_BATCH};
use bpmf::{
    Bpmf, FitControl, FitSnapshot, IterCallback, IterStats, ModelHandle, PosteriorModel,
    Recommender, TrainData, Trainer,
};
use bpmf_dataset::{Dataset, SyntheticConfig};
use bpmf_sparse::Csr;
use bpmf_stats::Xoshiro256pp;

use crate::host;
use crate::loadgen::{
    self, command, round_trip, Answer, Expected, Load, Mode, PoolEntry, Rec, Reload,
};
use crate::probes;
use crate::run::{Ctx, Outcome};
use crate::spec::{self, ServeSpec, Workload, OPEN_LOOP_RPS, PIPELINE, PIPELINE_MIXED, TOP_N};
use crate::stats::{iqr, median, percentile, slice_of, summarize, SLICES};
use crate::train::prorated_time_to_target;

const BURNIN: usize = 4;
const SAMPLES: usize = 4;
/// `serve_mixed` reloads a second checkpoint: the same chain, this many more
/// samples.
const EXTRA_SAMPLES: usize = 2;

/// Everything the cold-start path produces before a socket is bound.
pub struct Cold {
    pub ds: Dataset,
    /// Model rebuilt from checkpoint A exactly as a daemon would rebuild it;
    /// the oracle scores against this copy, the fleet serves its own clone.
    pub model_a: PosteriorModel,
    served: Arc<PosteriorModel>,
    /// Second model version (`serve_mixed`), with the file a reload reads.
    pub model_b: Option<PosteriorModel>,
    pub path_a: PathBuf,
    pub path_b: Option<PathBuf>,
    pub epoch_a: u64,
    pub epoch_b: u64,
    pub reload: ReloadContext,
    pub gen_s: f64,
    pub train_s: f64,
    pub write_ms: f64,
    pub read_ms: f64,
    pub checkpoint_mb: f64,
    pub from_checkpoint_ms: f64,
    /// Seconds from fit start until the running RMSE reached the target.
    pub reach_s: Option<f64>,
    /// Running posterior-mean RMSE over noise, per iteration of the fit.
    pub rmse_ratio_curve: Vec<f64>,
}

impl Cold {
    /// Seconds of the stages before the daemon is bound.
    fn stage_seconds(&self) -> f64 {
        self.gen_s + self.train_s + (self.write_ms + self.read_ms + self.from_checkpoint_ms) / 1e3
    }
}

/// Captures the chain's checkpoints at the iterations the workload serves.
struct Capture {
    t0: Instant,
    first: usize,
    second: Option<usize>,
    a: Option<(SamplerCheckpoint, f64)>,
    b: Option<SamplerCheckpoint>,
    curve: Vec<(f64, f64)>,
}

impl IterCallback for Capture {
    fn on_iteration(&mut self, stats: &IterStats, snapshot: &dyn FitSnapshot) -> FitControl {
        self.curve
            .push((self.t0.elapsed().as_secs_f64(), stats.rmse_mean));
        if stats.iter + 1 == self.first {
            let ckpt = snapshot
                .sampler_checkpoint()
                .expect("gibbs chains snapshot");
            self.a = Some((ckpt, self.t0.elapsed().as_secs_f64()));
        }
        if Some(stats.iter + 1) == self.second {
            self.b = snapshot.sampler_checkpoint();
        }
        FitControl::Continue
    }
}

fn scratch_dir() -> PathBuf {
    host::out_dir().join(format!("tmp-{}", std::process::id()))
}

/// generate → short Gibbs fit → checkpoint written → read back → model
/// rebuilt: the path a deployment walks before it can bind a socket.
pub fn cold_model(ctx: &Ctx, ss: &ServeSpec, second: bool) -> Cold {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch directory under target/");
    let (ds, gen_s) = ctx.timed("dataset.generate", 1, || {
        SyntheticConfig {
            name: "serve".into(),
            nrows: ss.users,
            ncols: ss.items,
            nnz: ss.nnz,
            k_true: 16,
            noise_sd: 0.6,
            row_exponent: 0.5,
            col_exponent: 1.0,
            clip: None,
            clusters: None,
            intra_cluster_prob: 0.0,
            test_fraction: 0.1,
            seed: ctx.seed,
        }
        .generate()
    });

    let samples = SAMPLES + if second { EXTRA_SAMPLES } else { 0 };
    let bspec = Bpmf::builder()
        .latent(ss.k)
        .burnin(BURNIN)
        .samples(samples)
        .threads(ctx.par)
        .kernel_threads(ctx.par)
        .seed(ctx.seed)
        .build()
        .expect("benchmark serving spec is valid");
    let runner = bspec.runner();
    let mut trainer = bspec.gibbs_trainer();
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut capture = Capture {
        t0: Instant::now(),
        first: BURNIN + SAMPLES,
        second: second.then_some(BURNIN + samples),
        a: None,
        b: None,
        curve: Vec::new(),
    };
    ctx.timed("bpmf.fit", samples as u64 + BURNIN as u64, || {
        trainer
            .fit(&data, runner.as_ref(), &mut capture)
            .expect("cold-start fit")
    });
    // Training time on the cold-start path ends when checkpoint A exists;
    // the extra samples behind checkpoint B are not on that path.
    let (ckpt_a, train_s) = capture.a.take().expect("checkpoint A captured");
    let (ends, rmse): (Vec<f64>, Vec<f64>) = capture.curve.iter().copied().unzip();
    let reach_s = prorated_time_to_target(&ends, &rmse, ss.target_ratio * ds.noise_sd);

    let path_a = dir.join("ckpt-a.json");
    let ((), secs) = ctx.timed("checkpoint.write_checkpoint_sync", 1, || {
        write_checkpoint_sync(&path_a, &ckpt_a).expect("write checkpoint A")
    });
    let write_ms = secs * 1e3;
    let checkpoint_mb = std::fs::metadata(&path_a).map_or(0.0, |m| m.len() as f64 / 1e6);
    let (read_back, secs) = ctx.timed("checkpoint.read_checkpoint", 1, || {
        read_checkpoint(&path_a).expect("read checkpoint A back")
    });
    let read_ms = secs * 1e3;
    let noise_sd = ds.noise_sd;
    let reload = ReloadContext {
        global_mean: ds.global_mean,
        rating_bounds: None,
        alpha: bspec.alpha,
    };
    let rebuild = |ckpt: &SamplerCheckpoint| {
        PosteriorModel::from_checkpoint(
            ckpt,
            reload.global_mean,
            reload.rating_bounds,
            reload.alpha,
        )
        .expect("checkpoint rebuilds a model")
    };
    let (model_a, secs) = ctx.timed("model.from_checkpoint", 1, || rebuild(&read_back));
    let from_checkpoint_ms = secs * 1e3;
    // Cloned before anything scores against `model_a`, so the served copy
    // packs its own item factors on its first request, as a fresh daemon does.
    let served = Arc::new(model_a.clone());

    let (model_b, path_b, epoch_b) = match capture.b.take() {
        Some(ckpt_b) => {
            let path_b = dir.join("ckpt-b.json");
            write_checkpoint_sync(&path_b, &ckpt_b).expect("write checkpoint B");
            (Some(rebuild(&ckpt_b)), Some(path_b), ckpt_b.iter as u64)
        }
        None => (None, None, 0),
    };
    Cold {
        ds,
        model_a,
        served,
        model_b,
        path_a,
        path_b,
        epoch_a: read_back.iter as u64,
        epoch_b,
        reload,
        gen_s,
        train_s,
        write_ms,
        read_ms,
        checkpoint_mb,
        from_checkpoint_ms,
        reach_s,
        rmse_ratio_curve: rmse.iter().map(|v| v / noise_sd).collect(),
    }
}

// ---------------------------------------------------------------------------
// The request pool and its oracle
// ---------------------------------------------------------------------------

fn recommend_entry(user: u32, policy: RankPolicy, policy_str: String) -> PoolEntry {
    PoolEntry {
        req: wire::Request {
            v: wire::WIRE_VERSION,
            cmd: wire::CMD_RECOMMEND.to_string(),
            user: Some(user),
            top_n: TOP_N,
            policy: policy_str,
            exclude_seen: Some(true),
            ..wire::Request::default()
        },
        resolved: Some(ServeRequest {
            user,
            top_n: TOP_N,
            policy,
            exclude_seen: true,
        }),
    }
}

/// Mean-policy, top-10, exclude-seen requests over distinct users.
fn plain_pool(ss: &ServeSpec, rng: &mut Xoshiro256pp) -> Vec<PoolEntry> {
    let mut users: Vec<u32> = (0..ss.users as u32).collect();
    for i in (1..users.len()).rev() {
        users.swap(i, rng.next_index(i + 1));
    }
    users
        .into_iter()
        .take(ss.pool)
        .map(|u| recommend_entry(u, RankPolicy::Mean, "mean".to_string()))
        .collect()
}

/// 50% mean / 35% UCB / 10% Thompson / 5% fold-in.
fn mixed_pool(ss: &ServeSpec, rng: &mut Xoshiro256pp) -> Vec<PoolEntry> {
    (0..ss.pool)
        .map(|i| {
            let user = rng.next_index(ss.users) as u32;
            match i % 20 {
                0..=9 => recommend_entry(user, RankPolicy::Mean, "mean".to_string()),
                10..=16 => {
                    recommend_entry(user, RankPolicy::Ucb { beta: 1.0 }, "ucb:1".to_string())
                }
                17 | 18 => {
                    let seed = rng.next_bounded(1 << 32);
                    recommend_entry(
                        user,
                        RankPolicy::Thompson { seed },
                        format!("thompson:{seed}"),
                    )
                }
                _ => {
                    // A cold user: a handful of ratings on distinct items.
                    let d = 5 + rng.next_index(16);
                    let mut items: Vec<u32> = Vec::with_capacity(d);
                    while items.len() < d {
                        let item = rng.next_index(ss.items) as u32;
                        if !items.contains(&item) {
                            items.push(item);
                        }
                    }
                    let ratings = items
                        .iter()
                        .map(|&item| wire::RatedItem {
                            item,
                            // The generator's ratings are centred on zero.
                            rating: rng.next_f64() * 4.0 - 2.0,
                        })
                        .collect();
                    PoolEntry {
                        req: wire::Request {
                            v: wire::WIRE_VERSION,
                            cmd: wire::CMD_FOLD_IN.to_string(),
                            top_n: TOP_N,
                            ratings,
                            ..wire::Request::default()
                        },
                        resolved: None,
                    }
                }
            }
        })
        .collect()
}

type Bits = Vec<(u32, u64)>;

fn list_bits<T: Copy + Into<wire::RankedItem>>(list: &[T]) -> Bits {
    list.iter()
        .map(|&r| {
            let r: wire::RankedItem = r.into();
            (r.item, r.score.to_bits())
        })
        .collect()
}

/// What an offline `RecommendService` (or `fold_in_user`) over `model` answers
/// to each pool entry. Goes through `recommend_each`, the batch path, whose
/// results do not depend on batch composition.
fn oracle(model: &PosteriorModel, train: &Csr, pool: &[PoolEntry]) -> Vec<Answer> {
    let mut answers: Vec<Answer> = vec![Answer::default(); pool.len()];
    let mut service = RecommendService::new(model, train.ncols()).exclude_seen(train);
    let recs: Vec<(usize, ServeRequest)> = pool
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.resolved.map(|r| (i, r)))
        .collect();
    for chunk in recs.chunks(MICRO_BATCH) {
        let reqs: Vec<ServeRequest> = chunk.iter().map(|(_, r)| *r).collect();
        for ((i, _), list) in chunk.iter().zip(service.recommend_each(&reqs)) {
            answers[*i].items = list_bits(&list);
        }
    }
    for (i, entry) in pool
        .iter()
        .enumerate()
        .filter(|(_, e)| e.resolved.is_none())
    {
        let items: Vec<u32> = entry.req.ratings.iter().map(|r| r.item).collect();
        let vals: Vec<f64> = entry.req.ratings.iter().map(|r| r.rating).collect();
        let fold = model
            .fold_in_user(&items, &vals)
            .expect("pool fold-in is valid");
        // The daemon's ranking: score descending, ties by ascending item id.
        let mut ranked: Vec<wire::RankedItem> = fold
            .scores
            .iter()
            .enumerate()
            .map(|(item, &score)| wire::RankedItem {
                item: item as u32,
                score,
            })
            .collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
        ranked.truncate(TOP_N);
        answers[i] = Answer {
            items: list_bits(&ranked),
            factors: fold.factors.iter().map(|f| f.to_bits()).collect(),
        };
    }
    answers
}

/// Expected answers per pool entry, one variant per model version a reply may
/// legitimately have been scored under.
fn expectations(cold: &Cold, pool: &[PoolEntry]) -> Vec<Expected> {
    let mut expected: Vec<Expected> = oracle(&cold.model_a, &cold.ds.train, pool)
        .into_iter()
        .map(|v| Expected { variants: vec![v] })
        .collect();
    if let Some(model_b) = &cold.model_b {
        for (e, v) in expected
            .iter_mut()
            .zip(oracle(model_b, &cold.ds.train, pool))
        {
            e.variants.push(v);
        }
    }
    expected
}

// ---------------------------------------------------------------------------
// The in-process fleet
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Topology {
    /// One daemon, default configuration.
    Direct,
    /// `router::serve` over this many shard daemons of the same model.
    Routed(usize),
}

/// Sets the shutdown flag when dropped, so a panicking client still lets the
/// scoped server threads join.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct Started {
    addr: SocketAddr,
    ready_ms: f64,
    first_reply_ms: f64,
    first_ok: bool,
}

/// Bind the fleet, wait until it answers, time the first correct reply, run
/// `body` against it, then shut it down and join every thread.
fn with_fleet<R>(
    ctx: &Ctx,
    cold: &Cold,
    topo: Topology,
    first: (&PoolEntry, &Expected),
    body: impl FnOnce(&Started) -> R,
) -> (Started, R) {
    let n_users = cold.ds.nrows();
    let n_items = cold.ds.ncols();
    let specs: Vec<Option<ShardSpec>> = match topo {
        Topology::Direct => vec![None],
        Topology::Routed(n) => (0..n)
            .map(|i| {
                Some(ShardSpec::for_shard(
                    i as u32,
                    n as u32,
                    n_items,
                    cold.epoch_a,
                ))
            })
            .collect(),
    };
    let locals: Vec<Option<Csr>> = specs
        .iter()
        .map(|sp| {
            sp.map(|sp| {
                slice_train_columns(&cold.ds.train, sp.item_lo as usize, sp.item_hi as usize)
            })
        })
        .collect();
    let worlds: Vec<ServingModel<'_>> = specs
        .iter()
        .zip(&locals)
        .map(|(sp, local)| {
            let model: Arc<dyn Recommender + Send + Sync> = match sp {
                Some(sp) => Arc::new(ShardView::new(
                    cold.served.clone(),
                    sp.item_lo as usize,
                    sp.item_hi as usize,
                )),
                None => cold.served.clone(),
            };
            ServingModel {
                model: ModelHandle::new(model, cold.epoch_a),
                train: Some(local.as_ref().unwrap_or(&cold.ds.train)),
                n_users,
                n_items: sp.map_or(n_items, |sp| sp.width()),
                shard: *sp,
                reload: Some(cold.reload),
            }
        })
        .collect();
    let daemon_cfg = DaemonConfig::default();
    let router_cfg = RouterConfig {
        // Admission control must clear the generator's peak offered load.
        inflight_cap: (2 * ctx.connections * PIPELINE).max(256),
        default_top_n: TOP_N,
        ..RouterConfig::default()
    };
    let stop_daemons = AtomicBool::new(false);
    let stop_router = AtomicBool::new(false);

    let bind_t0 = Instant::now();
    let listeners: Vec<TcpListener> = worlds
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let daemon_addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address"))
        .collect();
    let groups: Vec<Vec<String>> = daemon_addrs.iter().map(|a| vec![a.to_string()]).collect();
    let router_listener = match topo {
        Topology::Direct => None,
        Topology::Routed(_) => Some(TcpListener::bind("127.0.0.1:0").expect("bind router")),
    };
    let addr = match &router_listener {
        Some(l) => l.local_addr().expect("router address"),
        None => daemon_addrs[0],
    };

    std::thread::scope(|s| {
        let _daemon_guard = ShutdownOnDrop(&stop_daemons);
        let _router_guard = ShutdownOnDrop(&stop_router);
        let daemons: Vec<_> = worlds
            .iter()
            .zip(listeners)
            .map(|(world, listener)| {
                let (cfg, stop) = (&daemon_cfg, &stop_daemons);
                s.spawn(move || daemon::serve(world, listener, cfg, stop))
            })
            .collect();
        let router_thread = router_listener.map(|listener| {
            let (groups, cfg, stop) = (&groups, &router_cfg, &stop_router);
            s.spawn(move || router::serve(listener, groups, cfg, stop))
        });

        // Ready: the front door answers a ping. First reply: a recommend
        // request comes back correct (a router refuses, typed, until every
        // shard link is up, so this retries).
        let deadline = Instant::now() + Duration::from_secs(20);
        ctx.timed("daemon.ready", 1, || loop {
            let pong = round_trip(addr, &command(wire::CMD_PING), Duration::from_secs(2));
            if pong.is_some_and(|r| r.error.is_none()) {
                break;
            }
            assert!(Instant::now() < deadline, "fleet never answered a ping");
            std::thread::sleep(Duration::from_millis(1));
        });
        let ready_ms = bind_t0.elapsed().as_secs_f64() * 1e3;
        let first_t0 = Instant::now();
        let (first_ok, _) = ctx.timed("cold.first_reply", 1, || loop {
            match round_trip(addr, &first.0.req, Duration::from_secs(5)) {
                Some(resp) if resp.error.is_none() => break first.1.matches(&resp),
                _ => {
                    assert!(Instant::now() < deadline, "fleet never served a request");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });
        let started = Started {
            addr,
            ready_ms,
            first_reply_ms: first_t0.elapsed().as_secs_f64() * 1e3,
            first_ok,
        };
        let out = body(&started);

        stop_router.store(true, Ordering::SeqCst);
        if let Some(handle) = router_thread {
            handle.join().expect("router thread").expect("router io");
        }
        stop_daemons.store(true, Ordering::SeqCst);
        for handle in daemons {
            handle.join().expect("daemon thread").expect("daemon io");
        }
        (started, out)
    })
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// Result of one timed window of load.
struct Window {
    recs: Vec<Rec>,
    reloads: Vec<Reload>,
    window_s: f64,
    cpu_s: f64,
    gen_cpu_s: f64,
    before: Option<wire::StatsReport>,
    after: Option<wire::StatsReport>,
    peak_rss_mb: f64,
}

fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    mode: Mode,
    seconds: f64,
    pool: &[PoolEntry],
    expected: &[Expected],
    reload_paths: Option<[(&Path, u64); 2]>,
) -> Window {
    let load = Load {
        addr,
        mode,
        window: Duration::from_secs_f64(seconds),
        connections: match mode {
            Mode::Open { .. } => 1,
            Mode::Closed { .. } => ctx.connections,
        },
        seed: ctx.seed,
        pool,
        expected,
        reload_paths,
        tracer: &ctx.tracer,
    };
    let run = loadgen::run(&load);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    Window {
        recs: run.recs,
        reloads: run.reloads,
        window_s: seconds,
        cpu_s: run.cpu_s,
        gen_cpu_s: run.gen_cpu_s,
        before: run.before,
        after: run.after,
        peak_rss_mb,
    }
}

/// Per-slice throughput and latency of one window.
struct WindowStats {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    all_ms: Vec<f64>,
    correct: u64,
    attempted: u64,
}

fn window_stats(win: &Window) -> WindowStats {
    let window_ns = (win.window_s * 1e9) as u64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    // First and last completion of each slice, for its completion rate.
    let mut span: Vec<(u64, u64)> = vec![(u64::MAX, 0); SLICES];
    let mut all_ms = Vec::with_capacity(win.recs.len());
    let mut correct = 0u64;
    for r in win.recs.iter().filter(|r| r.ok()) {
        let ms = r.lat_ns as f64 / 1e6;
        all_ms.push(ms);
        // Replies that drain in after the window closes were sent inside it
        // and count as attempted, but not towards its throughput.
        if let Some(s) = slice_of(r.done_ns, window_ns, SLICES) {
            per_slice[s].push(ms);
            span[s] = (span[s].0.min(r.done_ns), span[s].1.max(r.done_ns));
            correct += 1;
        }
    }
    all_ms.sort_by(f64::total_cmp);
    let mut stats = WindowStats {
        rates: Vec::new(),
        p50: Vec::new(),
        p95: Vec::new(),
        all_ms,
        correct,
        attempted: win.recs.len() as u64 + win.reloads.len() as u64,
    };
    for (lat, (first, last)) in per_slice.iter_mut().zip(span) {
        lat.sort_by(f64::total_cmp);
        // Completions per second between the slice's first and last reply.
        stats.rates.push(if lat.len() >= 2 && last > first {
            (lat.len() - 1) as f64 * 1e9 / (last - first) as f64
        } else {
            0.0
        });
        if !lat.is_empty() {
            stats.p50.push(percentile(lat, 0.50));
            stats.p95.push(percentile(lat, 0.95));
        }
    }
    stats
}

fn explain_failures(win: &Window, out: &mut Outcome) {
    for r in win.recs.iter().filter(|r| !r.ok()) {
        out.fail(1, format!("request: {}", r.why));
    }
    for r in win.reloads.iter().filter(|r| !r.ok()) {
        out.fail(1, format!("reload: {}", r.why));
    }
}

pub fn run_serve(w: Workload, ctx: &Ctx) -> Outcome {
    let ss = spec::serve_spec(w, ctx.smoke);
    let mixed = w == Workload::ServeMixed;
    let topo = match w {
        Workload::ServeRouter => Topology::Routed(2),
        _ => Topology::Direct,
    };
    let mode = match w {
        Workload::ServeLone => Mode::Open { rps: OPEN_LOOP_RPS },
        Workload::ServeMixed => Mode::Closed {
            inflight: PIPELINE_MIXED,
        },
        _ => Mode::Closed { inflight: PIPELINE },
    };
    let reps = match (ctx.smoke, mixed) {
        (true, _) => 1,
        (false, true) => spec::SETUP_REPS_HEAVY,
        (false, false) => spec::SETUP_REPS,
    };
    let mut out = Outcome::default();

    // The request pool depends only on the seed and the frozen sizes.
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed ^ 0x9001);
    let pool = if mixed {
        mixed_pool(&ss, &mut rng)
    } else {
        plain_pool(&ss, &mut rng)
    };
    let cold_start = || {
        let cold = cold_model(ctx, &ss, mixed);
        let first = Expected {
            variants: oracle(&cold.model_a, &cold.ds.train, &pool[..1]),
        };
        (cold, first)
    };
    let mut setup_times = Vec::with_capacity(reps);
    let mut reach_times = Vec::with_capacity(reps);
    let mut record = |cold: &Cold, started: &Started| {
        setup_times.push(cold.stage_seconds() + (started.ready_ms + started.first_reply_ms) / 1e3);
        reach_times.extend(cold.reach_s);
    };

    // Set-up, repeated: every repetition walks the whole cold-start path to
    // the first correct reply and tears the fleet down again. The last
    // repetition's fleet is the one that gets measured.
    for _ in 1..reps {
        let (cold, first) = cold_start();
        let (started, ()) = with_fleet(ctx, &cold, topo, (&pool[0], &first), |_| ());
        record(&cold, &started);
    }
    let (cold, first) = cold_start();
    let reload_paths = cold
        .path_b
        .as_deref()
        .map(|b| [(b, cold.epoch_b), (cold.path_a.as_path(), cold.epoch_a)]);
    let mut expected: Vec<Expected> = Vec::new();
    let (started, win) = with_fleet(ctx, &cold, topo, (&pool[0], &first), |started| {
        // The oracle runs after the cold-start clock has stopped and before
        // the timed window opens: it is the benchmark's cost, not the
        // system's.
        expected = expectations(&cold, &pool);
        drive(
            ctx,
            started.addr,
            mode,
            ctx.seconds,
            &pool,
            &expected,
            reload_paths,
        )
    });
    record(&cold, &started);

    let ws = window_stats(&win);
    out.attempted = ws.attempted.max(1);
    explain_failures(&win, &mut out);
    if !started.first_ok {
        out.fail(1, "first reply after cold start differs from the oracle");
    }
    let ratio = cold.model_a.rmse(&cold.ds.test) / cold.ds.noise_sd;
    if !(ratio.is_finite() && ratio <= ss.ceiling_ratio) {
        out.fail(
            1,
            format!(
                "served model's held-out RMSE ratio {ratio:.4} above {}",
                ss.ceiling_ratio
            ),
        );
    }
    if reach_times.len() < setup_times.len() {
        out.fail(
            1,
            format!("cold-start fit never reached {} x noise", ss.target_ratio),
        );
    }

    let ops = summarize(&ws.rates);
    out.set_e2e("setup_s", median(&setup_times), iqr(&setup_times));
    out.set_e2e("ops_per_s", ops.value, ops.spread);
    out.set_e2e(
        "cpu_us_per_op",
        win.cpu_s * 1e6 / ws.correct.max(1) as f64,
        0.0,
    );
    out.set_e2e("peak_rss_mb", win.peak_rss_mb, 0.0);
    out.set_e2e("lat_p50_ms", median(&ws.p50), iqr(&ws.p50));
    out.set_e2e("lat_p95_ms", median(&ws.p95), iqr(&ws.p95));
    out.set_e2e("heldout_rmse_ratio", ratio, 0.0);
    out.set_e2e("time_to_rmse_s", median(&reach_times), iqr(&reach_times));
    out.series.push(("slice_ops_per_s", ws.rates.clone()));
    out.series.push(("slice_p50_ms", ws.p50.clone()));
    out.series.push(("slice_p95_ms", ws.p95.clone()));
    out.series.push(("setup_s", setup_times.clone()));
    out.series
        .push(("cold_fit_rmse_mean_ratio", cold.rmse_ratio_curve.clone()));

    if ctx.traced {
        serve_layers(
            ctx, w, &cold, &started, &pool, &expected, &win, &ws, mode, &mut out,
        );
    }
    std::fs::remove_dir_all(scratch_dir()).ok();
    out
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    ctx: &Ctx,
    w: Workload,
    cold: &Cold,
    started: &Started,
    pool: &[PoolEntry],
    expected: &[Expected],
    win: &Window,
    ws: &WindowStats,
    mode: Mode,
    out: &mut Outcome,
) {
    // Cold-start stages of the measured fleet.
    out.set_layer("dataset.gen_s", cold.gen_s);
    out.set_layer("cold.train_s", cold.train_s);
    out.set_layer("checkpoint.write_ms", cold.write_ms);
    out.set_layer("checkpoint.read_ms", cold.read_ms);
    out.set_layer("checkpoint.mb", cold.checkpoint_mb);
    out.set_layer("model.from_checkpoint_ms", cold.from_checkpoint_ms);
    out.set_layer("daemon.ready_ms", started.ready_ms);
    out.set_layer("cold.first_reply_ms", started.first_reply_ms);
    probes::csr_build(ctx, &cold.ds.train, out);

    // Counters from the `stats` wire reply, over the timed window.
    if let (Some(before), Some(after)) = (&win.before, &win.after) {
        // Behind a router the batching happens in the shard daemons.
        let leaves = |s: &wire::StatsReport| -> Vec<wire::StatsReport> {
            if s.shards.is_empty() {
                vec![s.clone()]
            } else {
                s.shards.clone()
            }
        };
        let sum = |s: &wire::StatsReport, f: &dyn Fn(&wire::StatsReport) -> u64| -> u64 {
            leaves(s).iter().map(f).sum()
        };
        let requests = sum(after, &|s| s.requests) - sum(before, &|s| s.requests);
        let batches = sum(after, &|s| s.batches) - sum(before, &|s| s.batches);
        out.set_layer(
            "coalesce.mean_batch",
            requests as f64 / batches.max(1) as f64,
        );
        out.set_layer(
            "coalesce.largest_batch",
            leaves(after)
                .iter()
                .map(|s| s.largest_batch)
                .max()
                .unwrap_or(0) as f64,
        );
        out.set_layer(
            "daemon.rejected",
            (after.rejected + after.overload_rejected) as f64
                - (before.rejected + before.overload_rejected) as f64,
        );
        out.set_layer("router.retries", (after.retries - before.retries) as f64);
        out.set_layer(
            "router.failovers",
            (after.failovers - before.failovers) as f64,
        );
    }

    // Scoring layers, on this workload's catalogue and mix.
    let mix: Vec<ServeRequest> = pool.iter().filter_map(|e| e.resolved).collect();
    probes::scoring_probes(ctx, &cold.model_a, &cold.ds.train, &mix, 1, out);
    let ops_per_s = median(&ws.rates);
    let batch_us = out.layers["service.batch_us_per_req"];
    // Share of one worker-second per second that scoring accounts for.
    out.set_layer("service.score_share", ops_per_s * batch_us / 1e6);
    out.set_layer(
        "daemon.vs_ceiling",
        ops_per_s / out.layers["service.ceiling_rps"],
    );
    out.set_layer(
        "daemon.overhead_p50_us",
        median(&ws.p50) * 1e3 - out.layers["service.top_n_us_mean"],
    );
    probes::queue_hop_probe(ctx, DaemonConfig::default().coalesce, out);

    // Transport.
    let sample = pool
        .iter()
        .find(|e| e.resolved.is_some())
        .unwrap_or(&pool[0]);
    let reply = wire::Response {
        v: wire::WIRE_VERSION,
        id: 1 << 40,
        user: sample.req.user.unwrap_or(0),
        items: expected[0].variants[0]
            .items
            .iter()
            .map(|&(item, bits)| wire::RankedItem {
                item,
                score: f64::from_bits(bits),
            })
            .collect(),
        ..wire::Response::default()
    };
    let mut req = sample.req.clone();
    req.id = 1 << 40;
    probes::wire_probes(ctx, &req, &reply, out);

    // Writes beside the reads.
    if let Some(model_b) = &cold.model_b {
        let folds: Vec<(Vec<u32>, Vec<f64>)> = pool
            .iter()
            .filter(|e| e.resolved.is_none())
            .map(|e| {
                (
                    e.req.ratings.iter().map(|r| r.item).collect(),
                    e.req.ratings.iter().map(|r| r.rating).collect(),
                )
            })
            .collect();
        probes::fold_in_probe(ctx, &cold.model_a, &folds, out);
        probes::handle_swap_probe(ctx, &cold.model_a, model_b, out);
        let reload_ms: Vec<f64> = win
            .reloads
            .iter()
            .filter(|r| r.ok())
            .map(|r| r.lat_ns as f64 / 1e6)
            .collect();
        out.set_layer("daemon.reload_ms", median(&reload_ms));
    }

    // Scatter-gather: the same model behind one daemon, same load shape, for
    // a shorter window.
    if w == Workload::ServeRouter {
        let twenty = RecommendService::new(&cold.model_a, cold.ds.ncols())
            .exclude_seen(&cold.ds.train)
            .recommend_each(&[ServeRequest {
                top_n: 2 * TOP_N,
                ..pool[0].resolved.expect("router pool is recommend-only")
            }])
            .remove(0);
        let ranked: Vec<wire::RankedItem> = twenty.into_iter().map(Into::into).collect();
        probes::merge_probe(ctx, &ranked, out);
        let first = Expected {
            variants: vec![expected[0].variants[0].clone()],
        };
        let (_, direct) = with_fleet(ctx, cold, Topology::Direct, (&pool[0], &first), |s| {
            drive(ctx, s.addr, mode, ctx.seconds * 0.4, pool, expected, None)
        });
        let ds = window_stats(&direct);
        explain_failures(&direct, out);
        out.set_layer("router.vs_direct", ops_per_s / median(&ds.rates));
        out.set_layer("router.p50_vs_direct", median(&ws.p50) / median(&ds.p50));
    }

    // Is the generator, or the tracing, the limit?
    out.set_layer("client.gen_share", win.gen_cpu_s / win.cpu_s.max(1e-9));
    let mut late: Vec<f64> = win.recs.iter().map(|r| r.late_ns as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    out.set_layer("client.late_p95_us", percentile(&late, 0.95));
    out.set_layer("client.lat_p99_ms", percentile(&ws.all_ms, 0.99));
    out.set_layer(
        "client.lat_max_ms",
        ws.all_ms.last().copied().unwrap_or(0.0),
    );
    // Odd slices ran untraced, even slices traced. A closed loop shows the
    // overhead in its rate; an open loop's rate is fixed, so in its latency.
    let halves = |per_slice: &[f64]| {
        let pick = |parity: usize| -> Vec<f64> {
            (per_slice.iter().enumerate())
                .filter(|(s, _)| s % 2 == parity)
                .map(|(_, v)| *v)
                .collect()
        };
        (median(&pick(0)), median(&pick(1)))
    };
    let overhead = match mode {
        Mode::Closed { .. } => {
            let (on, off) = halves(&ws.rates);
            off / on - 1.0
        }
        Mode::Open { .. } => {
            let (on, off) = halves(&ws.p50);
            on / off - 1.0
        }
    };
    out.set_layer("trace.overhead_frac", overhead);
}
