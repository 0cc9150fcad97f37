//! `bpmf-train` — train (and serve) a recommender on a MatrixMarket
//! rating matrix.
//!
//! One binary, five algorithms: BPMF Gibbs sampling (default), ALS-WR,
//! biased SGD, mini-batch SG-MCMC (`--algorithm sgmcmc`, SGLD), and the
//! paper's distributed BPMF (`--algorithm distributed`, ranks =
//! `--threads`), all dispatched through the unified `Bpmf::builder()` →
//! `Trainer` → `Recommender` facade. Prints per-iteration RMSE as
//! training streams through an `IterCallback` and can write the fitted
//! factors for downstream ranking. The `pack` subcommand converts a
//! MatrixMarket file into the mmap-ready CSR slab format; passing
//! `--train FILE.slab` afterwards trains out-of-core off the mapping
//! (`bpmf::store::MappedSlab`), bit-identical to the in-RAM run. The
//! `recommend` subcommand additionally serves filtered top-N lists
//! through `bpmf::serve::RecommendService`; `serve-daemon` keeps the
//! fitted model resident and serves request-coalesced traffic over TCP
//! (`bpmf::serve::daemon`); `serve-router` scatter-gathers the same wire
//! protocol across a fleet of `--shard i/N` daemons
//! (`bpmf::serve::router`); `serve-fleet` supervises a whole replica
//! fleet as child processes — reaping, budgeted restarts on the original
//! ports, quarantine on crash loops or corrupt checkpoints
//! (`bpmf::serve::supervise`); `serve-client` is the matching test/ops
//! client.
//!
//! ```text
//! bpmf-train [recommend|serve-daemon|serve-client] --train ratings.mtx
//!            [--test held_out.mtx | --test-fraction 0.1]
//!            [--algorithm gibbs|als|sgd|distributed] [--k 16] [--burnin 8]
//!            [--samples 24] [--sweeps 20] [--epochs 30] [--lambda X]
//!            [--learning-rate X] [--min-rating X --max-rating Y]
//!            [--threads N] [--engine ws|static|graphlab] [--seed 42]
//!            [--save-factors PREFIX]
//!            [--user-features F.tsv [--lambda-beta 1.0]]
//!            [--checkpoint C.json [--checkpoint-every N]] [--resume C.json]
//!            [--diagnostics]
//!            [--user U]... [--top-n 10] [--exclude-seen]
//!            [--policy mean|ucb[:beta]|thompson[:seed]]
//!            [--addr 127.0.0.1:7878] [--batch-window 0] [--workers N]
//!            [--queue-cap 1024] [--shard I/N] [--health] [--stats]
//!            [--shutdown]
//! bpmf-train serve-router --addr 127.0.0.1:7900
//!            --shard-addr HOST:PORT... | --shard-addr I/N@HOST:PORT...
//!            [--inflight-cap 256] [--request-timeout 5000]
//!            [--retry-budget 2] [--top-n 10] [--fault-plan SPEC]
//! ```
//!
//! With `I/N@HOST:PORT` shard addresses, several replicas may serve the
//! same catalogue range; the router balances across them and fails over
//! transparently when one dies. `--fault-plan` (or the `BPMF_FAULT_PLAN`
//! env var) arms deterministic fault injection for chaos drills.

use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bpmf::checkpoint::{AsyncCheckpointWriter, SamplerCheckpoint};
use bpmf::serve::coalesce::CoalesceConfig;
use bpmf::serve::daemon::{self, DaemonConfig, ReloadContext, ServingModel};
use bpmf::serve::faults::FaultPlan;
use bpmf::serve::net;
use bpmf::serve::router::{self, RouterConfig};
use bpmf::serve::shard::{slice_train_columns, ShardSpec, ShardView};
use bpmf::serve::supervise::{self, ReplicaSpec, SuperviseConfig};
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest, MICRO_BATCH};
use bpmf::{
    Algorithm, Bpmf, FitControl, FitSnapshot, IterCallback, IterStats, MappedSlab, ModelHandle,
    RatingStore, Trainer,
};
use bpmf_baselines::make_trainer;
use bpmf_cli::{parse_args, CliError, Command, Options};
use bpmf_sparse::{read_matrix_market, slab_extents, write_matrix_market, write_slab, Csr};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", bpmf_cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", bpmf_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.command {
        Command::Pack => run_pack(&opts),
        Command::ServeClient => run_client(&opts),
        Command::ServeRouter => run_router(&opts),
        Command::ServeFleet => run_fleet(&opts),
        _ => run(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Streams per-iteration stats to stdout, collects the RMSE trace for
/// diagnostics, and hands periodic checkpoints to the background
/// [`AsyncCheckpointWriter`] (training never stalls on checkpoint I/O; the
/// final checkpoint is still written synchronously after the run).
struct CliCallback<'a> {
    out: std::io::StdoutLock<'a>,
    trace: Vec<f64>,
    printed: usize,
    total_iterations: usize,
    checkpoint: Option<&'a str>,
    checkpoint_every: Option<usize>,
    checkpoint_writer: Option<&'a AsyncCheckpointWriter>,
    final_checkpoint: Option<SamplerCheckpoint>,
    error: Option<CliError>,
}

impl IterCallback for CliCallback<'_> {
    fn on_iteration(&mut self, s: &IterStats, snapshot: &dyn FitSnapshot) -> FitControl {
        writeln!(
            self.out,
            "{}\t{:.6}\t{:.6}\t{:.0}",
            s.iter, s.rmse_sample, s.rmse_mean, s.items_per_sec
        )
        .ok();
        self.trace.push(s.rmse_sample);
        self.printed += 1;
        // A failed background checkpoint write aborts on the very next
        // iteration with the real I/O error, instead of training on for
        // minutes and only surfacing the failure at finish().
        if let Some(writer) = self.checkpoint_writer {
            if let Some(msg) = writer.pending_error() {
                self.error = Some(CliError::new(format!(
                    "periodic checkpoint write failed: {msg}"
                )));
                return FitControl::Stop;
            }
        }
        if let Some(path) = self.checkpoint {
            let last = s.iter + 1 >= self.total_iterations;
            let periodic = self
                .checkpoint_every
                .is_some_and(|every| every > 0 && self.printed.is_multiple_of(every) && !last);
            if periodic || last {
                if let Some(ckpt) = snapshot.sampler_checkpoint() {
                    if last {
                        // Written (with a log line) after the run completes.
                        self.final_checkpoint = Some(ckpt);
                    } else if let Some(writer) = self.checkpoint_writer {
                        if writer.submit(path, ckpt) {
                            eprintln!("checkpoint queued for {path} (iteration {})", s.iter);
                        } else {
                            // The writer thread already failed; the I/O
                            // error surfaces from finish() below.
                            self.error =
                                Some(CliError::new("checkpoint writer stopped; aborting run"));
                            return FitControl::Stop;
                        }
                    }
                }
            }
        }
        FitControl::Continue
    }
}

/// Where the training ratings live for this run: materialized CSR pairs
/// parsed from MatrixMarket text, or an mmap'd slab packed ahead of time.
/// Everything downstream sees `&dyn RatingStore`, so the sampler code path
/// is byte-for-byte the same either way.
enum TrainSource {
    InRam { train: Csr, train_t: Csr },
    Slab(MappedSlab),
}

/// Read a held-out `.mtx` file and flatten it to test triples, validating
/// its shape against the training matrix.
fn read_test_mtx(path: &str, nrows: usize, ncols: usize) -> Result<Vec<(u32, u32, f64)>, CliError> {
    let f =
        std::fs::File::open(path).map_err(|e| CliError::new(format!("cannot open {path}: {e}")))?;
    let t = read_matrix_market(BufReader::new(f))
        .map_err(|e| CliError::new(format!("cannot parse {path}: {e}")))?;
    if t.nrows() != nrows || t.ncols() != ncols {
        return Err(CliError::new(
            "test matrix dimensions do not match training matrix",
        ));
    }
    Ok(t.iter().map(|(i, j, v)| (i as u32, j, v)).collect())
}

fn run(opts: &Options) -> Result<(), CliError> {
    let (source, test, global_mean) = if opts.train.ends_with(".slab") {
        // Out-of-core path: map the packed slab and train straight off the
        // page cache. The split already happened at pack time, so a test
        // file is mandatory — re-splitting here would need the ratings
        // resident, which is exactly what this mode avoids.
        let test_path = opts.test.as_deref().ok_or_else(|| {
            CliError::new(
                "slab training requires --test FILE.mtx \
                 (split at pack time with `pack --test-out`)",
            )
        })?;
        if opts.recommend.exclude_seen {
            return Err(CliError::new(
                "--exclude-seen needs the training matrix resident; \
                 it is not available when training from a .slab",
            ));
        }
        if opts.serve.shard.is_some() {
            return Err(CliError::new(
                "--shard slices the resident training matrix; \
                 it is not available when training from a .slab",
            ));
        }
        let slab = MappedSlab::open(std::path::Path::new(&opts.train))
            .map_err(|e| CliError::new(format!("cannot map {}: {e}", opts.train)))?;
        eprintln!(
            "mapped {}: {} x {}, {} ratings in {} extents ({} B resident vs {} B in-RAM)",
            opts.train,
            slab.r().nrows(),
            slab.r().ncols(),
            slab.r().nnz(),
            slab.extents().len(),
            slab.heap_bytes(),
            slab.in_ram_matrix_bytes(),
        );
        let test = read_test_mtx(test_path, slab.r().nrows(), slab.r().ncols())?;
        let global_mean = slab.global_mean();
        (TrainSource::Slab(slab), test, global_mean)
    } else {
        let file = std::fs::File::open(&opts.train)
            .map_err(|e| CliError::new(format!("cannot open {}: {e}", opts.train)))?;
        let full = read_matrix_market(BufReader::new(file))
            .map_err(|e| CliError::new(format!("cannot parse {}: {e}", opts.train)))?;
        eprintln!(
            "loaded {}: {} x {}, {} ratings",
            opts.train,
            full.nrows(),
            full.ncols(),
            full.nnz()
        );

        // Held-out set: explicit file, or a split of the training matrix.
        let (train, test) = match &opts.test {
            Some(path) => {
                let test = read_test_mtx(path, full.nrows(), full.ncols())?;
                (full, test)
            }
            None => {
                let mut coo =
                    bpmf_sparse::Coo::with_capacity(full.nrows(), full.ncols(), full.nnz());
                for (i, j, v) in full.iter() {
                    coo.push(i, j as usize, v);
                }
                bpmf_dataset::split_train_test(&coo, opts.test_fraction, opts.seed ^ 0xBEEF)
            }
        };
        let train_t = train.transpose();
        let global_mean = if train.nnz() == 0 {
            0.0
        } else {
            train.iter().map(|(_, _, v)| v).sum::<f64>() / train.nnz() as f64
        };
        (TrainSource::InRam { train, train_t }, test, global_mean)
    };

    // Uniform view over both sources. `train_csr` is the resident matrix
    // when we have one — exclude-seen and shard slicing need it, and both
    // were rejected above in slab mode.
    let slab_views = match &source {
        TrainSource::Slab(slab) => Some((slab.r(), slab.rt())),
        TrainSource::InRam { .. } => None,
    };
    let (r_store, rt_store): (&dyn RatingStore, &dyn RatingStore) = match (&source, &slab_views) {
        (TrainSource::InRam { train, train_t }, _) => (train, train_t),
        (TrainSource::Slab(_), Some((sr, srt))) => (sr, srt),
        (TrainSource::Slab(_), None) => unreachable!(),
    };
    let train_csr: Option<&Csr> = match &source {
        TrainSource::InRam { train, .. } => Some(train),
        TrainSource::Slab(_) => None,
    };
    let n_users = r_store.nrows();
    let n_items = r_store.ncols();
    eprintln!("train {} / test {} observations", r_store.nnz(), test.len());

    // One builder for every algorithm.
    let mut builder = Bpmf::builder()
        .algorithm(opts.algorithm)
        .latent(opts.k)
        .burnin(opts.burnin)
        .samples(opts.samples)
        .seed(opts.seed)
        .engine(opts.engine)
        .threads(opts.threads);
    if let Some(n) = opts.sweeps {
        builder = builder.sweeps(n);
    }
    if let Some(n) = opts.epochs {
        builder = builder.epochs(n);
    }
    if let Some(l) = opts.lambda {
        builder = builder.lambda(l);
    }
    if let Some(lr) = opts.learning_rate {
        builder = builder.learning_rate(lr);
    }
    if let (Some(lo), Some(hi)) = (opts.min_rating, opts.max_rating) {
        builder = builder.rating_bounds(lo, hi);
    }
    if let Some(n) = opts.minibatch {
        builder = builder.minibatch(n);
    }
    if let Some(s) = opts.step_size {
        builder = builder.sgld_step_size(s);
    }
    if let Some(d) = opts.step_decay {
        builder = builder.sgld_step_decay(d);
    }
    if let Some(path) = &opts.user_features {
        let features = bpmf_cli::read_features_tsv(path)?;
        if features.rows() != n_users {
            return Err(CliError::new(format!(
                "{path}: {} feature rows but {} users in the rating matrix",
                features.rows(),
                n_users
            )));
        }
        eprintln!("side information: {} features per user", features.cols());
        builder = builder.user_side_info(features, opts.lambda_beta);
    }
    let mut resumed_iter: Option<usize> = None;
    let mut resumed_shard: Option<ShardSpec> = None;
    if let Some(path) = &opts.resume {
        // The envelope checksum is verified here: a torn, truncated, or
        // bit-flipped checkpoint is a typed integrity error, never a
        // resume from garbage posterior state.
        let ckpt = bpmf::checkpoint::read_checkpoint(std::path::Path::new(path))
            .map_err(|e| CliError::new(format!("cannot resume: {e}")))?;
        eprintln!("resuming from {path} at iteration {}", ckpt.iter);
        resumed_iter = Some(ckpt.iter);
        resumed_shard = ckpt.shard;
        builder = builder.resume(ckpt);
    }
    // A checkpoint stamped for one catalogue slice must not silently serve
    // another (or the whole catalogue).
    if let Some(saved) = resumed_shard {
        let matches = opts.command == Command::ServeDaemon
            && opts.serve.shard == Some((saved.shard_id, saved.num_shards));
        if !matches {
            return Err(CliError::new(format!(
                "checkpoint is stamped for shard {saved}; pass `serve-daemon --shard {}/{}`",
                saved.shard_id, saved.num_shards
            )));
        }
    }
    let spec = builder.build()?;

    let runner = spec.runner();
    let mut trainer = make_trainer(&spec);
    let total_iterations = match opts.algorithm {
        Algorithm::Gibbs | Algorithm::Distributed | Algorithm::Sgmcmc => spec.burnin + spec.samples,
        Algorithm::Als => spec.sweeps.unwrap_or(20),
        Algorithm::Sgd => spec.epochs.unwrap_or(30),
    };

    // Periodic checkpoints go through a background writer thread so the
    // sampler never stalls on serialization + fsync-ish I/O; the final
    // checkpoint is still written synchronously after the run below.
    let ckpt_writer = opts
        .checkpoint
        .as_ref()
        .map(|_| AsyncCheckpointWriter::spawn());
    let report;
    let trace;
    let final_checkpoint;
    {
        let stdout = std::io::stdout();
        let mut cb = CliCallback {
            out: stdout.lock(),
            trace: Vec::new(),
            printed: 0,
            total_iterations,
            checkpoint: opts.checkpoint.as_deref(),
            checkpoint_every: opts.checkpoint_every,
            checkpoint_writer: ckpt_writer.as_ref(),
            final_checkpoint: None,
            error: None,
        };
        writeln!(cb.out, "iter\trmse_sample\trmse_mean\titems_per_sec").ok();
        report = trainer.fit(
            &bpmf::TrainData::try_new(r_store, rt_store, global_mean, &test)?,
            runner.as_ref(),
            &mut cb,
        )?;
        if let Some(e) = cb.error {
            return Err(e);
        }
        final_checkpoint = cb.final_checkpoint;
        trace = cb.trace;
    }
    // Drain the async writer before the final synchronous write, so a
    // still-queued periodic checkpoint can never land after (and clobber)
    // the final one.
    if let Some(writer) = ckpt_writer {
        let flushed = writer
            .finish()
            .map_err(|e| CliError::new(format!("periodic checkpoint write failed: {e}")))?;
        if flushed > 0 {
            eprintln!("{flushed} periodic checkpoint(s) written in the background");
        }
    }
    let final_iter = final_checkpoint.as_ref().map(|c| c.iter);
    if let (Some(path), Some(mut ckpt)) = (&opts.checkpoint, final_checkpoint) {
        // A checkpoint written by a sharded daemon carries its slice so
        // a later `--resume` cannot silently serve the wrong range.
        if opts.command == Command::ServeDaemon {
            if let Some((i, n)) = opts.serve.shard {
                ckpt.shard = Some(ShardSpec::for_shard(i, n, n_items, ckpt.iter as u64));
            }
        }
        write_checkpoint(path, &ckpt)?;
        eprintln!("final checkpoint written to {path}");
    }
    eprintln!(
        "fitted {} via {} in {:.2}s (final RMSE {:.6})",
        report.algorithm,
        report.engine,
        report.total_seconds,
        report.final_rmse()
    );

    if opts.diagnostics && !trace.is_empty() {
        let burn = match opts.algorithm {
            Algorithm::Gibbs | Algorithm::Distributed => opts.burnin.min(trace.len()),
            _ => 0,
        };
        let post = &trace[burn..];
        if post.len() >= 2 {
            let s = bpmf::diagnostics::summarize_trace(post);
            eprintln!(
                "diagnostics (post-burn-in sample RMSE, {} draws): mean {:.6}, sd {:.6}, \
                 ESS {:.1}, tau {:.2}, MCSE {:.6}",
                post.len(),
                s.mean,
                s.sd,
                s.ess,
                s.tau,
                s.mcse
            );
        } else {
            eprintln!("diagnostics: not enough post-burn-in draws (increase --samples)");
        }
    }

    if opts.command == Command::Recommend {
        let rec = trainer
            .recommender()
            .ok_or_else(|| CliError::new("training produced no model to recommend from"))?;
        let policy: RankPolicy = opts.recommend.policy.parse()?;
        let mut service = RecommendService::new(rec, n_items);
        if opts.recommend.exclude_seen {
            // Unreachable in slab mode: --exclude-seen was rejected above.
            let train = train_csr
                .ok_or_else(|| CliError::new("--exclude-seen requires a resident matrix"))?;
            service = service.exclude_seen(train);
        }
        let users = if opts.recommend.users.is_empty() {
            vec![0usize]
        } else {
            opts.recommend.users.clone()
        };
        // Validate every requested user before printing anything: a bad id
        // is a hard error (nonzero exit), never a silent clamp or skip.
        for &user in &users {
            if user >= n_users {
                return Err(CliError::new(format!(
                    "--user {user} is out of range ({n_users} users)"
                )));
            }
        }
        let reqs: Vec<ServeRequest> = users
            .iter()
            .map(|&u| ServeRequest {
                user: u as u32,
                top_n: opts.recommend.top_n,
                policy,
                exclude_seen: opts.recommend.exclude_seen,
            })
            .collect();
        // Stream results out as each MICRO_BATCH-user block completes (one
        // GEMM catalogue pass per block) instead of buffering the whole
        // run; per-request Thompson streams make each list identical to a
        // single-user invocation regardless of batching.
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for chunk in reqs.chunks(MICRO_BATCH) {
            let lists = service.recommend_each(chunk);
            for (req, list) in chunk.iter().zip(&lists) {
                let items: Vec<(u32, f64)> = list.iter().map(|r| (r.item, r.score)).collect();
                bpmf_cli::write_top_n_list(
                    &mut out,
                    req.top_n,
                    req.user as u64,
                    &opts.recommend.policy,
                    &items,
                )?;
            }
            out.flush().ok();
        }
    }

    if let Some(prefix) = &opts.save_factors {
        let rec = trainer
            .recommender()
            .ok_or_else(|| CliError::new("training produced no model"))?;
        let (u, v) = rec.factors().ok_or_else(|| {
            CliError::new(
                "the fitted model exposes no factor matrices \
                     (for gibbs, no post-burn-in samples were taken; increase --samples)",
            )
        })?;
        bpmf_cli::write_factors(&format!("{prefix}_users.tsv"), u)?;
        bpmf_cli::write_factors(&format!("{prefix}_movies.tsv"), v)?;
        eprintln!("wrote {prefix}_users.tsv and {prefix}_movies.tsv");
    }

    // Last, because it blocks until shutdown: every other requested
    // artifact (checkpoints, factors) is already on disk by the time the
    // daemon starts serving.
    if opts.command == Command::ServeDaemon {
        // Epoch tag for the served factors: the exact iteration count they
        // correspond to, so the router can flag mixed-epoch shard fleets.
        let epoch = final_iter.unwrap_or(total_iterations.max(resumed_iter.unwrap_or(0))) as u64;
        // Everything a live `reload` needs to rebuild a PosteriorModel
        // from a checkpoint exactly as training would have: these are
        // run configuration, not chain state, so they are not in the
        // checkpoint envelope.
        let reload = ReloadContext {
            global_mean,
            rating_bounds: spec.rating_bounds,
            alpha: spec.alpha,
        };
        run_daemon(
            opts,
            trainer.as_ref(),
            train_csr,
            n_users,
            n_items,
            epoch,
            reload,
        )?;
    }
    Ok(())
}

/// Process-wide graceful-shutdown flag: flipped by SIGINT/SIGTERM (and by
/// a client's `shutdown` command, via the daemon).
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Route SIGINT (ctrl-c) and SIGTERM to the shutdown flag so the daemon
/// drains in-flight batches instead of dying mid-reply. Raw `signal(2)`
/// against the platform libc std already links — the store is
/// async-signal-safe, and no crate dependency is needed.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the libc prototype declared above, and the
    // handler only does an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// Resolve the fault-injection plan for a serving process: an explicit
/// `--fault-plan` wins, else the `BPMF_FAULT_PLAN` env var, else off. A
/// malformed plan from either source is fatal — a chaos drill that thinks
/// it is injecting faults but isn't would pass vacuously.
fn resolve_fault_plan(opts: &Options) -> Result<Option<FaultPlan>, CliError> {
    if let Some(spec) = &opts.serve.fault_plan {
        let plan = spec
            .parse::<FaultPlan>()
            .map_err(|e| CliError::new(format!("--fault-plan: {e}")))?;
        return Ok(Some(plan));
    }
    FaultPlan::from_env().map_err(|e| CliError::new(format!("BPMF_FAULT_PLAN: {e}")))
}

/// The `pack` subcommand: parse a MatrixMarket file once, optionally carve
/// off a held-out split, and write both CSR orientations as an mmap-ready
/// slab. Training then opens the slab with `--train FILE.slab` and never
/// pays the text-parse (or full-residency) cost again.
fn run_pack(opts: &Options) -> Result<(), CliError> {
    let out = opts
        .pack_out
        .as_deref()
        .expect("parser guarantees --out for pack");
    let file = std::fs::File::open(&opts.train)
        .map_err(|e| CliError::new(format!("cannot open {}: {e}", opts.train)))?;
    let full = read_matrix_market(BufReader::new(file))
        .map_err(|e| CliError::new(format!("cannot parse {}: {e}", opts.train)))?;
    eprintln!(
        "loaded {}: {} x {}, {} ratings",
        opts.train,
        full.nrows(),
        full.ncols(),
        full.nnz()
    );

    // With --test-out, split here (same seed derivation as `run`, so a
    // pack + slab-train reproduces an in-RAM train on the same flags) and
    // persist the held-out triples as MatrixMarket next to the slab.
    let train = match &opts.test_out {
        Some(test_path) => {
            let mut coo = bpmf_sparse::Coo::with_capacity(full.nrows(), full.ncols(), full.nnz());
            for (i, j, v) in full.iter() {
                coo.push(i, j as usize, v);
            }
            let (train, test) =
                bpmf_dataset::split_train_test(&coo, opts.test_fraction, opts.seed ^ 0xBEEF);
            let mut tcoo = bpmf_sparse::Coo::with_capacity(full.nrows(), full.ncols(), test.len());
            for &(i, j, v) in &test {
                tcoo.push(i as usize, j as usize, v);
            }
            let tcsr = Csr::from_coo_owned(tcoo);
            let f = std::fs::File::create(test_path)
                .map_err(|e| CliError::new(format!("cannot create {test_path}: {e}")))?;
            let mut w = std::io::BufWriter::new(f);
            write_matrix_market(&mut w, &tcsr)
                .map_err(|e| CliError::new(format!("cannot write {test_path}: {e}")))?;
            w.flush()?;
            eprintln!("wrote {} held-out observations to {test_path}", test.len());
            train
        }
        None => full,
    };

    let train_t = train.transpose();
    let global_mean = if train.nnz() == 0 {
        0.0
    } else {
        train.iter().map(|(_, _, v)| v).sum::<f64>() / train.nnz() as f64
    };
    let extents = slab_extents(&train, opts.pack_blocks);
    let f = std::fs::File::create(out)
        .map_err(|e| CliError::new(format!("cannot create {out}: {e}")))?;
    let mut w = std::io::BufWriter::new(f);
    write_slab(&mut w, &train, &train_t, global_mean, &extents)
        .map_err(|e| CliError::new(format!("cannot write {out}: {e}")))?;
    w.flush()?;
    drop(w);
    // Disk-fault arm for drills (BPMF_FAULT_PLAN): a scheduled truncate/
    // corrupt lands on the freshly written slab exactly as a failing disk
    // would; a scheduled ENOSPC fails the pack and removes the partial
    // output instead of leaving an artifact that looks complete.
    if let Err(e) = bpmf::serve::faults::mangle_artifact_file(std::path::Path::new(out)) {
        std::fs::remove_file(out).ok();
        return Err(CliError::new(format!("cannot write {out}: {e}")));
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "packed {out}: {} x {}, {} ratings in {} extents ({bytes} bytes, mean {global_mean:.6})",
        train.nrows(),
        train.ncols(),
        train.nnz(),
        extents.len(),
    );
    Ok(())
}

/// Bind the serving address and announce it. `SO_REUSEADDR` lets a
/// replacement replica reclaim a crashed predecessor's address without
/// waiting out TIME_WAIT — the router's replica list is fixed at startup,
/// so restarts must reuse the port. Scripts (and the CI e2e harness)
/// discover an ephemeral port from the `serving on` line, so it goes to
/// stdout and is flushed before serving.
fn listen(opts: &Options) -> Result<std::net::TcpListener, CliError> {
    let listener = net::bind_reuseaddr(opts.serve.addr.as_str())
        .map_err(|e| CliError::new(format!("cannot bind {}: {e}", opts.serve.addr)))?;
    install_shutdown_handler();
    println!("serving on {}", listener.local_addr()?);
    std::io::stdout().flush()?;
    Ok(listener)
}

/// The `serve-daemon` subcommand, once training has finished: wrap the
/// fitted model in the coalescing TCP daemon and block until shutdown.
fn run_daemon(
    opts: &Options,
    trainer: &dyn Trainer,
    train: Option<&Csr>,
    n_users: usize,
    n_items: usize,
    epoch: u64,
    reload: ReloadContext,
) -> Result<(), CliError> {
    let model = trainer
        .shared_model()
        .ok_or_else(|| CliError::new("training produced no model to serve"))?;
    let default_policy: RankPolicy = opts.recommend.policy.parse()?;
    // With `--shard i/N`, serve only our contiguous column slice: the
    // ShardView narrows every scoring path to [item_lo, item_hi) — bit-
    // identical to those columns of a whole-catalogue pass — and the
    // sliced training matrix keeps exclude-seen local. The daemon rebases
    // reply item ids back to global via the spec's `item_lo`. Sharding
    // needs the resident matrix, so slab-trained runs rejected it up front.
    let sharded = match opts.serve.shard {
        Some((i, n)) => {
            let train = train
                .ok_or_else(|| CliError::new("--shard requires a resident training matrix"))?;
            let spec = ShardSpec::for_shard(i, n, n_items, epoch);
            let local = slice_train_columns(train, spec.item_lo as usize, spec.item_hi as usize);
            Some((spec, local))
        }
        None => None,
    };
    // The daemon owns the model behind an epoch-stamped swappable handle:
    // a later `reload` request publishes a fresh checkpoint in place with
    // zero dropped requests. Sharded daemons wrap the swapped-in model in
    // a fresh ShardView with the same (validated) range.
    let world = match &sharded {
        Some((spec, local_train)) => {
            eprintln!("serving shard {spec}");
            let view: std::sync::Arc<dyn bpmf::Recommender + Send + Sync> = std::sync::Arc::new(
                ShardView::new(model, spec.item_lo as usize, spec.item_hi as usize),
            );
            ServingModel {
                model: ModelHandle::new(view, epoch),
                train: Some(local_train),
                n_users,
                n_items: spec.width(),
                shard: Some(*spec),
                reload: Some(reload),
            }
        }
        None => ServingModel {
            model: ModelHandle::new(model, epoch),
            train,
            n_users,
            n_items,
            shard: None,
            reload: Some(reload),
        },
    };
    let faults = resolve_fault_plan(opts)?;
    if faults.is_some() {
        eprintln!("serve-daemon: FAULT INJECTION ARMED (drill mode, not production)");
    }
    let cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            max_batch: MICRO_BATCH,
            batch_window: Duration::from_secs_f64(opts.serve.batch_window_ms / 1e3),
            queue_cap: opts.serve.queue_cap,
        },
        workers: opts.serve.workers,
        default_policy,
        default_top_n: opts.recommend.top_n,
        exclude_seen: opts.recommend.exclude_seen,
        faults,
    };
    let listener = listen(opts)?;
    eprintln!(
        "serve-daemon: batch window {} ms, {} worker(s), queue cap {}, \
         default policy {}; stop with ctrl-c or a {{\"cmd\":\"shutdown\"}} request",
        opts.serve.batch_window_ms, opts.serve.workers, opts.serve.queue_cap, opts.recommend.policy
    );
    let report = daemon::serve(&world, listener, &cfg, &SHUTDOWN)
        .map_err(|e| CliError::new(format!("daemon failed: {e}")))?;
    eprintln!(
        "daemon drained: {} requests in {} batches (largest {}) over {} connections, \
         {} rejected",
        report.requests, report.batches, report.largest_batch, report.connections, report.rejected
    );
    Ok(())
}

/// The `serve-router` subcommand: scatter-gather front end over a fleet
/// of shard daemons, speaking the same newline-JSON wire protocol on both
/// sides so `serve-client` (and any PR-5 client) works unchanged.
fn run_router(opts: &Options) -> Result<(), CliError> {
    let listener = listen(opts)?;
    let faults = resolve_fault_plan(opts)?;
    if faults.is_some() {
        eprintln!("serve-router: FAULT INJECTION ARMED (drill mode, not production)");
    }
    let cfg = RouterConfig {
        inflight_cap: opts.serve.inflight_cap,
        request_timeout: Duration::from_secs_f64(opts.serve.request_timeout_ms / 1e3),
        retry_budget: opts.serve.retry_budget,
        default_top_n: opts.recommend.top_n,
        faults,
        ..RouterConfig::default()
    };
    let groups = &opts.serve.shard_groups;
    let replicas: usize = groups.iter().map(Vec::len).sum();
    eprintln!(
        "serve-router: {} range(s) x {} replica(s), in-flight cap {}, request \
         timeout {} ms, retry budget {}; stop with ctrl-c or a \
         {{\"cmd\":\"shutdown\"}} request",
        groups.len(),
        replicas,
        opts.serve.inflight_cap,
        opts.serve.request_timeout_ms,
        opts.serve.retry_budget
    );
    let report = router::serve(listener, groups, &cfg, &SHUTDOWN)
        .map_err(|e| CliError::new(format!("router failed: {e}")))?;
    eprintln!(
        "router drained: {} requests over {} connections, {} rejected \
         ({} overload), {} shard failures, {} reconnects, {} failovers, \
         {} retries",
        report.requests,
        report.connections,
        report.rejected,
        report.overload_rejected,
        report.shard_failures,
        report.reconnects,
        report.failovers,
        report.retries
    );
    Ok(())
}

/// The `serve-fleet` subcommand: spawn one `serve-daemon` child per
/// `--replica` and keep the fleet alive — reap exits, respawn on the
/// original ports under the per-replica restart budget with jittered
/// backoff, kill-and-restart replicas that stop answering health probes,
/// and quarantine crash-loopers or replicas whose checkpoint fails its
/// integrity check (typed `crash_loop` / `corrupt_artifact` diagnostics
/// on stderr, one JSON line each) — until SIGINT/SIGTERM.
fn run_fleet(opts: &Options) -> Result<(), CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::new(format!("cannot locate own binary: {e}")))?
        .to_string_lossy()
        .into_owned();
    let specs: Vec<ReplicaSpec> = opts
        .fleet
        .replicas
        .iter()
        .map(|r| {
            // Child = this binary's serve-daemon with the verbatim
            // passthrough args, plus the supervisor-owned per-replica
            // range, address, and checkpoint. Respawns reuse the argv
            // unchanged, so a replica always returns on its own port.
            let mut argv = vec![exe.clone(), "serve-daemon".to_string()];
            argv.extend(opts.fleet.child_args.iter().cloned());
            argv.push("--shard".to_string());
            argv.push(format!("{}/{}", r.shard.0, r.shard.1));
            argv.push("--addr".to_string());
            argv.push(r.addr.clone());
            if let Some(ckpt) = &r.checkpoint {
                argv.push("--resume".to_string());
                argv.push(ckpt.clone());
            }
            ReplicaSpec {
                id: format!("{}/{}@{}", r.shard.0, r.shard.1, r.addr),
                addr: r.addr.clone(),
                argv,
                checkpoint: r.checkpoint.as_ref().map(std::path::PathBuf::from),
                // Replicas of one catalogue range form a reload group:
                // the supervisor rolls checkpoint changes across a group
                // one replica at a time, so the range keeps serving.
                group: r.shard.0,
            }
        })
        .collect();
    let cfg = SuperviseConfig {
        restart_limit: opts.fleet.restart_limit,
        backoff_base: Duration::from_secs_f64(opts.fleet.backoff_base_ms / 1e3),
        backoff_max: Duration::from_secs_f64(opts.fleet.backoff_max_ms / 1e3),
        probe_interval: Duration::from_secs_f64(opts.fleet.probe_interval_ms / 1e3),
        probe_failures: opts.fleet.probe_failures,
        seed: opts.seed,
        ..SuperviseConfig::default()
    };
    install_shutdown_handler();
    // Scripts block on this line (stdout, flushed) the same way they
    // block on a daemon's `serving on` announcement.
    println!("supervising {} replica(s)", specs.len());
    std::io::stdout().flush()?;
    eprintln!(
        "serve-fleet: restart budget {}, backoff {}..{} ms, probe every {} ms \
         ({} misses kill); stop with ctrl-c/SIGTERM",
        opts.fleet.restart_limit,
        opts.fleet.backoff_base_ms,
        opts.fleet.backoff_max_ms,
        opts.fleet.probe_interval_ms,
        opts.fleet.probe_failures
    );
    // Lifecycle events stream to stderr as JSON lines; ops tooling (and
    // the CI supervisor gate) greps the stable `code` slugs.
    let mut events = |d: wire::Diagnostic| {
        let line = serde_json::to_string(&d).unwrap_or_else(|_| d.detail.clone());
        eprintln!("supervisor: {line}");
    };
    let report = supervise::supervise(&specs, &cfg, &SHUTDOWN, &mut events)
        .map_err(|e| CliError::new(format!("supervisor failed: {e}")))?;
    eprintln!(
        "fleet drained: {} spawn(s), {} restart(s) ({} probe-triggered), \
         {} quarantined",
        report.spawns, report.restarts, report.probe_restarts, report.quarantined
    );
    // Losing every replica is a failure even though the supervisor itself
    // exited cleanly; losing some is a degraded-but-serving shutdown.
    if report.quarantined as usize == specs.len() {
        return Err(CliError::new(
            "every replica is quarantined; nothing left to supervise",
        ));
    }
    Ok(())
}

/// One synchronous request round trip on its own connection
/// ([`net::round_trip`], 30 s patience per stage); a typed error reply
/// becomes a CLI error prefixed with `refused`, naming the stable failure
/// class too, since scripts grep for it. Connects retry with
/// seeded jittered exponential backoff (10 ms envelope doubling to
/// 500 ms, ~10 s budget) so scripts can launch a daemon or router and
/// immediately fire clients, with no sleep-based startup synchronization.
/// The jitter seed mixes the process id with the target address: the 16+
/// concurrent clients CI fires at one starting server retry
/// desynchronized instead of stampeding it in lockstep. Only "not up yet"
/// connect failures are retried, so a request is never sent twice.
fn client_request(
    addr: &str,
    req: &wire::Request,
    refused: &str,
) -> Result<wire::Response, CliError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    // FNV-1a over the address, salted with the pid.
    let seed = addr.bytes().fold(
        0xcbf2_9ce4_8422_2325u64 ^ u64::from(std::process::id()),
        |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3),
    );
    let mut attempt = 0u32;
    loop {
        let e = match net::round_trip(addr, req, Duration::from_secs(30)) {
            Ok(wire::Response {
                error: Some(err),
                code,
                ..
            }) => {
                let code = code.map(|c| format!(" [{c}]")).unwrap_or_default();
                return Err(CliError::new(format!("{refused}: {err}{code}")));
            }
            Ok(resp) => return Ok(resp),
            Err(net::RoundTripError::Connect(e)) => e,
            Err(e) => return Err(CliError::new(e.to_string())),
        };
        let transient = matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::TimedOut
        );
        let backoff = net::jittered_backoff(
            attempt,
            Duration::from_millis(10),
            Duration::from_millis(500),
            seed,
        );
        if !transient || Instant::now() + backoff >= deadline {
            return Err(CliError::new(format!("cannot connect to {addr}: {e}")));
        }
        std::thread::sleep(backoff);
        attempt = attempt.saturating_add(1);
    }
}

/// The `serve-client` subcommand: one concurrent connection per `--user`
/// (CI fires 16+ at once through this), results printed in request order
/// in exactly the `recommend` output format, then an optional shutdown.
fn run_client(opts: &Options) -> Result<(), CliError> {
    let addr = opts.serve.addr.as_str();
    let users = &opts.recommend.users;
    if users.is_empty()
        && !opts.serve.shutdown
        && !opts.serve.health
        && !opts.serve.stats
        && opts.serve.reload.is_none()
        && opts.serve.fold_in.is_none()
    {
        return Err(CliError::new(
            "serve-client needs at least one --user (or --health/--stats/--reload/\
             --fold-in/--shutdown)",
        ));
    }
    let results: Vec<Result<wire::Response, CliError>> = std::thread::scope(|s| {
        let handles: Vec<_> = users
            .iter()
            .map(|&user| {
                s.spawn(move || {
                    let req = wire::Request {
                        v: wire::WIRE_VERSION,
                        id: user as u64,
                        cmd: String::new(),
                        user: Some(user as u32),
                        top_n: opts.recommend.top_n,
                        policy: opts.recommend.policy.clone(),
                        exclude_seen: Some(opts.recommend.exclude_seen),
                        ..wire::Request::default()
                    };
                    client_request(addr, &req, &format!("user {user}: daemon replied"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // Validate every reply before printing anything — the same
    // no-partial-output invariant the `recommend` subcommand keeps, so
    // the two outputs stay diffable even on mixed-validity request sets.
    let replies = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (&user, resp) in users.iter().zip(&replies) {
        let items: Vec<(u32, f64)> = resp.items.iter().map(|i| (i.item, i.score)).collect();
        bpmf_cli::write_top_n_list(
            &mut out,
            opts.recommend.top_n,
            user as u64,
            &opts.recommend.policy,
            &items,
        )?;
    }
    out.flush()?;
    drop(out);
    // Diagnostics print the structured report verbatim (one JSON line per
    // command) so ops tooling can pipe them straight into a parser.
    if opts.serve.health {
        let health = wire::Request::command(wire::CMD_HEALTH);
        let resp = client_request(addr, &health, "health failed")?;
        let report = resp
            .health
            .ok_or_else(|| CliError::new("health reply carried no report"))?;
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| CliError::new(e.to_string()))?
        );
    }
    if opts.serve.stats {
        let stats = wire::Request::command(wire::CMD_STATS);
        let resp = client_request(addr, &stats, "stats failed")?;
        let report = resp
            .stats
            .ok_or_else(|| CliError::new("stats reply carried no report"))?;
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| CliError::new(e.to_string()))?
        );
    }
    // Live model swap: the daemon loads + CRC-verifies the checkpoint off
    // the request path and swaps it in atomically; the reply's model
    // epoch is the proof the swap landed.
    if let Some(path) = &opts.serve.reload {
        let req = wire::Request {
            path: path.clone(),
            ..wire::Request::command(wire::CMD_RELOAD)
        };
        let resp = client_request(addr, &req, "reload refused")?;
        let epoch = resp
            .model_epoch
            .ok_or_else(|| CliError::new("reload reply carried no model epoch"))?;
        eprintln!("daemon reloaded {path}; now serving model epoch {epoch}");
    }
    // Cold-start fold-in: the daemon answers from the served posterior
    // with one conjugate kernel call — validate the reply shape (factors
    // present, list within --top-n) before printing, like `--user` does.
    if let Some(pairs) = &opts.serve.fold_in {
        let req = wire::Request {
            ratings: pairs
                .iter()
                .map(|&(item, rating)| wire::RatedItem { item, rating })
                .collect(),
            top_n: opts.recommend.top_n,
            ..wire::Request::command(wire::CMD_FOLD_IN)
        };
        let resp = client_request(addr, &req, "fold-in refused")?;
        if resp.factors.is_empty() {
            return Err(CliError::new("fold-in reply carried no user factors"));
        }
        if resp.items.len() > opts.recommend.top_n {
            return Err(CliError::new(format!(
                "fold-in reply carried {} items but --top-n was {}",
                resp.items.len(),
                opts.recommend.top_n
            )));
        }
        let epoch = resp
            .model_epoch
            .ok_or_else(|| CliError::new("fold-in reply carried no model epoch"))?;
        eprintln!(
            "folded in {} observation(s) against model epoch {epoch} ({} factors)",
            pairs.len(),
            resp.factors.len()
        );
        let items: Vec<(u32, f64)> = resp.items.iter().map(|i| (i.item, i.score)).collect();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        bpmf_cli::write_top_n_list(
            &mut out,
            opts.recommend.top_n,
            u64::from(resp.user),
            "fold-in",
            &items,
        )?;
        out.flush()?;
    }
    if opts.serve.shutdown {
        let shutdown = wire::Request::command(wire::CMD_SHUTDOWN);
        client_request(addr, &shutdown, "shutdown refused")?;
        eprintln!("daemon acknowledged shutdown");
    }
    Ok(())
}

fn write_checkpoint(path: &str, ckpt: &SamplerCheckpoint) -> Result<(), CliError> {
    // Write-then-rename (inside the library helper) so an interrupt
    // mid-write cannot corrupt the previous checkpoint.
    bpmf::checkpoint::write_checkpoint_sync(std::path::Path::new(path), ckpt)
        .map_err(|e| CliError::new(format!("cannot write checkpoint {path}: {e}")))
}
