#![warn(missing_docs)]

//! Argument parsing and output helpers for `bpmf-train`.
//!
//! Hand-rolled flag parsing (the dependency budget stays with the numeric
//! crates); exposed as a library so the parsing rules are unit-testable.

use std::fmt;
use std::io::Write;

use bpmf::{Algorithm, EngineKind};
use bpmf_linalg::Mat;

/// Usage text.
pub const USAGE: &str = "\
bpmf-train — matrix-factorization trainer (BPMF Gibbs / ALS-WR / SGD /
SG-MCMC / distributed BPMF) with a posterior-serving mode, a serving
daemon, and an out-of-core slab pipeline

USAGE:
  bpmf-train --train FILE.mtx|FILE.slab [OPTIONS]
  bpmf-train pack --train FILE.mtx --out FILE.slab [PACK OPTIONS]
  bpmf-train recommend --train FILE [OPTIONS] [RECOMMEND OPTIONS]
  bpmf-train serve-daemon --train FILE [OPTIONS] [SERVE OPTIONS]
  bpmf-train serve-router --shard-addr HOST:PORT... [ROUTER OPTIONS]
  bpmf-train serve-fleet --replica I/N@HOST:PORT[=CKPT]... [FLEET OPTIONS]
             -- DAEMON ARGS...
  bpmf-train serve-client --addr HOST:PORT [CLIENT OPTIONS]

A `--train` path ending in `.slab` is opened as a packed rating slab and
memory-mapped instead of parsed: training streams rating blocks from the
page cache and the matrix never materializes in heap RAM. Slab training
requires an explicit --test file (the held-out split happens at pack
time) and cannot serve --exclude-seen or `--shard` (both need the in-RAM
matrix).

The `pack` subcommand converts a MatrixMarket file into that slab format
once, so every later run mmaps it in O(1):
  --out FILE.slab     slab file to write (required)
  --blocks N          partition extents to precompute (aligns streamed
                      row ranges with the sampler's scheduler blocks)
                      [default 8]
  --test-out T.mtx    also split a held-out set off the input (seeded by
                      --seed, sized by --test-fraction) and write it as
                      MatrixMarket; the slab then holds only the training
                      ratings — pass `--test T.mtx` when training

The `recommend` subcommand trains exactly as above, then serves top-N
recommendations through the RecommendService layer (results stream out
as each micro-batch completes):
  --user N            user to recommend for (repeatable; users are served
                      in micro-batches — a single GEMM catalogue pass per
                      MICRO_BATCH-user block, sized from the kernel's
                      cache geometry) [default: 0]
  --top-n N           list length [default 10]
  --exclude-seen      skip items the user already rated in training
  --policy NAME       mean | ucb[:beta] | thompson[:seed] [default mean]

The `serve-daemon` subcommand trains (or resumes a checkpoint), then
serves recommend requests forever over TCP: newline-delimited JSON
requests are coalesced into GEMM micro-batches (a free worker takes
everything pending, up to MICRO_BATCH). --top-n/--exclude-seen/--policy
set the daemon's per-request defaults (--user is not accepted: clients
name users per request). Prints `serving on HOST:PORT` to stdout
once ready; stops gracefully on ctrl-c/SIGTERM or a {\"cmd\":\"shutdown\"}
request, draining everything already accepted:
  --addr HOST:PORT    listen address (port 0 = ephemeral)
                      [default 127.0.0.1:7878]
  --batch-window MS   coalescing deadline in milliseconds: a partial batch
                      waits up to this long for companions; 0 never waits
                      [default 0]
  --workers N         batch-executing worker threads [default: cores, max 4]
  --queue-cap N       bounded request queue; full = backpressure
                      [default 1024]
  --shard I/N         serve only shard I of an N-way catalogue partition
                      (contiguous, GEMM-aligned item ranges; replies carry
                      global item ids). Pair with `serve-router` over all
                      N shards for transparent scatter-gather serving

The `serve-router` subcommand runs the scatter-gather front-end over a
fleet of shard daemons (no training): it speaks the daemon wire protocol
to clients, fans each request out to the least-loaded replica of every
shard range, and k-way-merges the per-range top-N lists — bit-identical
to one whole-catalogue daemon. A request is transparently retried on a
surviving replica when a link dies mid-flight, so `partial_result`
surfaces only when every replica of a range is down.
Prints `serving on HOST:PORT` once ready; stops like the daemon does:
  --addr HOST:PORT    listen address (port 0 = ephemeral)
                      [default 127.0.0.1:7878]
  --shard-addr SPEC   one shard daemon. Either HOST:PORT repeated once
                      per range in shard order (one replica each), or
                      I/N@HOST:PORT naming the range it replicates
                      (repeatable per range; all N must agree, every
                      range 0..N must be covered; forms cannot be mixed)
  --inflight-cap N    admission control: max requests in flight; over
                      budget replies a typed `overloaded` error
                      [default 256]
  --request-timeout MS  patience for shard replies before a retry (budget
                      permitting) or a typed `timeout` error [default 5000]
  --retry-budget N    re-scatters one request may spend across replica
                      failures and timeouts; 0 disables failover
                      [default 2]
  --top-n N           fill-in list length for requests that omit n
                      [default 10]

Both serving processes accept a deterministic fault-injection plan for
chaos drills (also via the BPMF_FAULT_PLAN env var; off when absent):
  --fault-plan SPEC   comma-separated KIND@TRIGGER rules, e.g.
                      'close@3' (sever a link at the 3rd request),
                      'drop@2%5,seed=7' (drop reply at request 2 then
                      every 5th), 'delay:20@p0.5' (20 ms delay, seeded
                      coin per request). KIND: delay:MS|drop|close|panic;
                      TRIGGER: N | N%M | pP

The `serve-fleet` subcommand supervises a whole replica fleet from one
process: it spawns one `serve-daemon` child per --replica on that
replica's fixed address, reaps children when they die (no zombies), and
restarts each on its ORIGINAL port under a per-replica restart budget
with seeded, jittered exponential backoff. A replica that exhausts its
budget — or whose checkpoint fails its integrity check before a
respawn — is quarantined with a typed diagnostic (`crash_loop` /
`corrupt_artifact`) while its twins keep serving. Everything after `--`
goes verbatim to every child daemon; it must include --train, while
--shard/--addr/--resume are owned by the supervisor (from --replica):
  --replica SPEC      I/N@HOST:PORT[=CKPT]: one child serving range I
                      of N at HOST:PORT, optionally resuming checkpoint
                      CKPT (integrity-verified before every (re)spawn).
                      Repeatable; all N must agree, every range needs at
                      least one replica, addresses must be unique
  --restart-limit N   consecutive-failure budget per replica before it
                      is quarantined; a healthy probe refunds the budget
                      [default 5]
  --backoff-base MS   first restart delay; doubles per consecutive
                      failure, jittered by --seed [default 200]
  --backoff-max MS    restart-delay ceiling [default 5000]
  --probe-interval MS liveness-probe period per running replica
                      [default 500]
  --probe-failures N  consecutive probe misses before the replica is
                      killed and restarted [default 3]

The `serve-client` subcommand talks to a running daemon or router (no
training): one concurrent connection per --user, printed in request
order in the same format as `recommend` — so the two outputs diff
cleanly. Connections retry with exponential backoff while the server
starts up:
  --addr HOST:PORT    daemon/router address [default 127.0.0.1:7878]
  --user/--top-n/--exclude-seen/--policy   as above, sent per request
  --health            print the server's structured health report (one
                      JSON line; a router nests per-shard reports)
  --stats             print the server's counter snapshot (one JSON line)
  --reload PATH       ask the daemon to hot-swap its model from the
                      checkpoint at PATH (server-local; CRC-verified and
                      shard-checked before the swap, zero dropped
                      requests); prints the new model epoch
  --fold-in SPEC      fold a brand-new user into the served posterior
                      from SPEC = 'ITEM:RATING,ITEM:RATING,...' and
                      print their top-N — answered live, no retrain
  --shutdown          after any requests, ask the server to shut down

OPTIONS:
  --train FILE        MatrixMarket (.mtx) or packed slab (.slab) training
                      ratings (required)
  --test FILE         MatrixMarket held-out ratings (same dimensions;
                      required when --train is a .slab)
  --test-fraction F   split F of --train off as the test set [default 0.1]
  --algorithm NAME    gibbs | als | sgd | sgmcmc | distributed
                      [default gibbs]
  --k N               latent dimension [default 16]
  --burnin N          burn-in iterations (gibbs/sgmcmc) [default 8]
  --samples N         averaged sampling iterations (gibbs/sgmcmc)
                      [default 24]
  --sweeps N          full U+V sweeps (als) [default 20]
  --epochs N          epochs (sgd) [default 30]
  --lambda X          ridge strength (als/sgd/sgmcmc) [algorithm default]
  --learning-rate X   initial learning rate (sgd) [default 0.01]
  --minibatch N       ratings per SGLD mini-batch (sgmcmc) [default 1024]
  --step-size X       initial SGLD step size (sgmcmc) [default 0.1]
  --step-decay X      inverse-time SGLD step decay per epoch-equivalent
                      (sgmcmc) [default 0.05]
  --min-rating X      clamp predictions below X (use with --max-rating)
  --max-rating X      clamp predictions above X (use with --min-rating)
  --threads N         worker threads [default: all cores]
  --engine NAME       ws | static | graphlab [default ws]
  --seed N            RNG seed [default 42]
  --save-factors PFX  write the fitted factors to PFX_{users,movies}.tsv
  --user-features F   TSV of per-user features (Macau side info; gibbs only)
  --lambda-beta X     link-matrix ridge when --user-features is set [default 1]
  --checkpoint FILE   write a JSON checkpoint after the run (and every
                      --checkpoint-every iterations; gibbs only)
  --checkpoint-every N  periodic checkpoint interval [default: end only]
  --resume FILE       continue an interrupted run from its checkpoint
  --diagnostics       print ESS / autocorrelation-time summary of the
                      RMSE trace after the run
  --help              show this text
";

/// Which mode the binary runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Command {
    /// Train and report (the default).
    #[default]
    Train,
    /// Pack a MatrixMarket file into the mmap-able slab format.
    Pack,
    /// Train, then serve top-N recommendations through `RecommendService`.
    Recommend,
    /// Train, then run the persistent TCP serving daemon.
    ServeDaemon,
    /// Run the scatter-gather router over shard daemons (no training).
    ServeRouter,
    /// Supervise a fleet of `serve-daemon` children (no training).
    ServeFleet,
    /// Talk to a running daemon or router (no training).
    ServeClient,
}

/// Options of the `recommend` subcommand.
#[derive(Clone, Debug)]
pub struct RecommendOptions {
    /// Users to recommend for (empty = user 0).
    pub users: Vec<usize>,
    /// Recommendation list length.
    pub top_n: usize,
    /// Skip items the user already rated in training.
    pub exclude_seen: bool,
    /// Ranking policy (`mean` | `ucb[:beta]` | `thompson[:seed]`).
    pub policy: String,
}

impl Default for RecommendOptions {
    fn default() -> Self {
        RecommendOptions {
            users: Vec::new(),
            top_n: 10,
            exclude_seen: false,
            policy: "mean".to_string(),
        }
    }
}

/// Options of the `serve-daemon` / `serve-client` subcommands.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen (daemon) or connect (client) address.
    pub addr: String,
    /// Coalescing deadline in milliseconds (0 = never wait).
    pub batch_window_ms: f64,
    /// Batch-executing worker threads.
    pub workers: usize,
    /// Bounded request-queue capacity.
    pub queue_cap: usize,
    /// Daemon: serve only shard `(i, n)` of an n-way catalogue partition.
    pub shard: Option<(u32, u32)>,
    /// Router: raw `--shard-addr` values in the order given.
    pub shard_addrs: Vec<String>,
    /// Router: replica addresses grouped by shard range (derived from
    /// `shard_addrs` by [`group_shard_addrs`] at parse time).
    pub shard_groups: Vec<Vec<String>>,
    /// Router: admission-control in-flight budget.
    pub inflight_cap: usize,
    /// Router: patience for shard replies, in milliseconds.
    pub request_timeout_ms: f64,
    /// Router: re-scatters one request may spend across replica failures
    /// and timeouts (0 disables failover).
    pub retry_budget: u32,
    /// Daemon/router: validated fault-injection spec (`--fault-plan`),
    /// parsed into a `FaultPlan` at launch.
    pub fault_plan: Option<String>,
    /// Client: print the server's structured health report.
    pub health: bool,
    /// Client: print the server's counter snapshot.
    pub stats: bool,
    /// Client: checkpoint path for a live model reload (`--reload`).
    pub reload: Option<String>,
    /// Client: cold-start observations for a fold-in request
    /// (`--fold-in 'ITEM:RATING,...'`), validated at parse time.
    pub fold_in: Option<Vec<(u32, f64)>>,
    /// Client: ask the daemon to shut down after any requests.
    pub shutdown: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            batch_window_ms: 0.0,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            queue_cap: 1024,
            shard: None,
            shard_addrs: Vec::new(),
            shard_groups: Vec::new(),
            inflight_cap: 256,
            request_timeout_ms: 5000.0,
            retry_budget: 2,
            fault_plan: None,
            health: false,
            stats: false,
            reload: None,
            fold_in: None,
            shutdown: false,
        }
    }
}

/// One `--replica` of the `serve-fleet` subcommand: the catalogue range
/// a child serves, the fixed address it must come back on after every
/// restart, and (optionally) the checkpoint it resumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetReplica {
    /// `(shard_id, num_shards)` of the range this child serves.
    pub shard: (u32, u32),
    /// Fixed listen address (`HOST:PORT`; respawns reuse it verbatim).
    pub addr: String,
    /// Checkpoint the child resumes, integrity-checked before every
    /// (re)spawn; `None` trains from scratch on each launch.
    pub checkpoint: Option<String>,
}

/// Options of the `serve-fleet` subcommand.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Parsed `--replica` specs in the order given.
    pub replicas: Vec<FleetReplica>,
    /// Consecutive-failure budget per replica before quarantine.
    pub restart_limit: u32,
    /// First restart delay, in milliseconds.
    pub backoff_base_ms: f64,
    /// Restart-delay ceiling, in milliseconds.
    pub backoff_max_ms: f64,
    /// Liveness-probe period per running replica, in milliseconds.
    pub probe_interval_ms: f64,
    /// Consecutive probe misses before a kill-and-restart.
    pub probe_failures: u32,
    /// Everything after `--`, passed verbatim to each child daemon.
    pub child_args: Vec<String>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            replicas: Vec::new(),
            restart_limit: 5,
            backoff_base_ms: 200.0,
            backoff_max_ms: 5000.0,
            probe_interval_ms: 500.0,
            probe_failures: 3,
            child_args: Vec::new(),
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Selected subcommand.
    pub command: Command,
    /// `recommend` subcommand options (also the serving daemon's
    /// per-request defaults and the client's request parameters).
    pub recommend: RecommendOptions,
    /// `serve-daemon` / `serve-client` subcommand options.
    pub serve: ServeOptions,
    /// `serve-fleet` subcommand options.
    pub fleet: FleetOptions,
    /// Path to the MatrixMarket training ratings.
    pub train: String,
    /// Optional path to a held-out MatrixMarket test set.
    pub test: Option<String>,
    /// Fraction split off `train` when no test file is given.
    pub test_fraction: f64,
    /// Selected algorithm.
    pub algorithm: Algorithm,
    /// Latent dimension K.
    pub k: usize,
    /// Burn-in iterations (Gibbs).
    pub burnin: usize,
    /// Averaged sampling iterations (Gibbs).
    pub samples: usize,
    /// Full sweeps (ALS), if overridden.
    pub sweeps: Option<usize>,
    /// Epochs (SGD), if overridden.
    pub epochs: Option<usize>,
    /// Ridge strength (ALS/SGD/SG-MCMC), if overridden.
    pub lambda: Option<f64>,
    /// Initial learning rate (SGD), if overridden.
    pub learning_rate: Option<f64>,
    /// Ratings per SGLD mini-batch (SG-MCMC), if overridden.
    pub minibatch: Option<usize>,
    /// Initial SGLD step size (SG-MCMC), if overridden.
    pub step_size: Option<f64>,
    /// Inverse-time SGLD step decay (SG-MCMC), if overridden.
    pub step_decay: Option<f64>,
    /// `pack`: slab file to write.
    pub pack_out: Option<String>,
    /// `pack`: partition extents to precompute in the slab.
    pub pack_blocks: usize,
    /// `pack`: also write a held-out MatrixMarket split here.
    pub test_out: Option<String>,
    /// Lower rating clamp.
    pub min_rating: Option<f64>,
    /// Upper rating clamp.
    pub max_rating: Option<f64>,
    /// Worker threads.
    pub threads: usize,
    /// Shared-memory runtime.
    pub engine: EngineKind,
    /// RNG seed.
    pub seed: u64,
    /// Prefix for fitted-factor TSVs, if requested.
    pub save_factors: Option<String>,
    /// TSV of per-user features for Macau-style side information.
    pub user_features: Option<String>,
    /// Link-matrix ridge used with `--user-features`.
    pub lambda_beta: f64,
    /// Checkpoint file to write.
    pub checkpoint: Option<String>,
    /// Periodic checkpoint interval (`None` = only at the end).
    pub checkpoint_every: Option<usize>,
    /// Checkpoint file to resume from.
    pub resume: Option<String>,
    /// Print convergence diagnostics after the run.
    pub diagnostics: bool,
}

/// CLI error with a human message.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    /// Wrap a message.
    pub fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<bpmf::BpmfError> for CliError {
    fn from(e: bpmf::BpmfError) -> Self {
        CliError(e.to_string())
    }
}

/// Parse arguments; `Ok(None)` means `--help` was requested.
pub fn parse_args(args: &[String]) -> Result<Option<Options>, CliError> {
    let mut opts = Options {
        command: Command::Train,
        recommend: RecommendOptions::default(),
        serve: ServeOptions::default(),
        fleet: FleetOptions::default(),
        train: String::new(),
        test: None,
        test_fraction: 0.1,
        algorithm: Algorithm::Gibbs,
        k: 16,
        burnin: 8,
        samples: 24,
        sweeps: None,
        epochs: None,
        lambda: None,
        learning_rate: None,
        minibatch: None,
        step_size: None,
        step_decay: None,
        pack_out: None,
        pack_blocks: 8,
        test_out: None,
        min_rating: None,
        max_rating: None,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        engine: EngineKind::WorkStealing,
        seed: 42,
        save_factors: None,
        user_features: None,
        lambda_beta: 1.0,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        diagnostics: false,
    };
    let mut args = args;
    match args.first().map(String::as_str) {
        Some("pack") => {
            opts.command = Command::Pack;
            args = &args[1..];
        }
        Some("recommend") => {
            opts.command = Command::Recommend;
            args = &args[1..];
        }
        Some("serve-daemon") => {
            opts.command = Command::ServeDaemon;
            args = &args[1..];
        }
        Some("serve-router") => {
            opts.command = Command::ServeRouter;
            args = &args[1..];
        }
        Some("serve-fleet") => {
            opts.command = Command::ServeFleet;
            args = &args[1..];
        }
        Some("serve-client") => {
            opts.command = Command::ServeClient;
            args = &args[1..];
        }
        _ => {}
    }
    let mut recommend_flag: Option<&String> = None;
    let mut pack_flag: Option<&String> = None;
    let mut daemon_flag: Option<&String> = None;
    let mut client_flag: Option<&String> = None;
    let mut router_flag: Option<&String> = None;
    let mut serve_flag: Option<&String> = None;
    let mut fault_flag: Option<&String> = None;
    let mut fleet_flag: Option<&String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // The client never trains: accepting (and ignoring) training
        // flags would be a silent no-op, unlike every other misplaced
        // flag, so reject anything outside its small vocabulary up front.
        if opts.command == Command::ServeClient
            && !matches!(
                flag.as_str(),
                "--help"
                    | "-h"
                    | "--addr"
                    | "--shutdown"
                    | "--user"
                    | "--top-n"
                    | "--exclude-seen"
                    | "--policy"
                    | "--health"
                    | "--stats"
                    | "--reload"
                    | "--fold-in"
            )
        {
            return Err(CliError::new(format!(
                "{flag} is not valid with `serve-client` (valid flags: --addr --user \
                 --top-n --exclude-seen --policy --health --stats --reload --fold-in \
                 --shutdown)"
            )));
        }
        // `pack` is a pure format conversion: a training or serving flag
        // here would be a silent no-op, so reject anything outside its
        // small vocabulary up front.
        if opts.command == Command::Pack
            && !matches!(
                flag.as_str(),
                "--help"
                    | "-h"
                    | "--train"
                    | "--out"
                    | "--blocks"
                    | "--test-out"
                    | "--test-fraction"
                    | "--seed"
            )
        {
            return Err(CliError::new(format!(
                "{flag} is not valid with `pack` (valid flags: --train --out \
                 --blocks --test-out --test-fraction --seed)"
            )));
        }
        // The router never trains either: same up-front rejection.
        if opts.command == Command::ServeRouter
            && !matches!(
                flag.as_str(),
                "--help"
                    | "-h"
                    | "--addr"
                    | "--shard-addr"
                    | "--inflight-cap"
                    | "--request-timeout"
                    | "--retry-budget"
                    | "--fault-plan"
                    | "--top-n"
            )
        {
            return Err(CliError::new(format!(
                "{flag} is not valid with `serve-router` (valid flags: --addr \
                 --shard-addr --inflight-cap --request-timeout --retry-budget \
                 --fault-plan --top-n)"
            )));
        }
        // The fleet supervisor never trains in-process: training flags
        // for the children go after `--` verbatim, and the flags before
        // it are the supervisor's own small vocabulary.
        if opts.command == Command::ServeFleet
            && !matches!(
                flag.as_str(),
                "--help"
                    | "-h"
                    | "--"
                    | "--replica"
                    | "--restart-limit"
                    | "--backoff-base"
                    | "--backoff-max"
                    | "--probe-interval"
                    | "--probe-failures"
                    | "--seed"
            )
        {
            return Err(CliError::new(format!(
                "{flag} is not valid with `serve-fleet` (valid flags: --replica \
                 --restart-limit --backoff-base --backoff-max --probe-interval \
                 --probe-failures --seed; child daemon args go after `--`)"
            )));
        }
        if opts.command == Command::ServeFleet && flag == "--" {
            // Everything after `--` is the child daemons' command line,
            // passed verbatim (plus the supervisor-owned per-replica
            // --shard/--addr/--resume) to every spawn.
            opts.fleet.child_args = it.map(String::clone).collect();
            break;
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--train" => opts.train = value()?.clone(),
            "--test" => opts.test = Some(value()?.clone()),
            "--test-fraction" => {
                opts.test_fraction = parse_num(flag, value()?)?;
                if !(0.0..1.0).contains(&opts.test_fraction) {
                    return Err(CliError::new("--test-fraction must be in [0, 1)"));
                }
            }
            "--algorithm" => {
                opts.algorithm = value()?
                    .parse()
                    .map_err(|e| CliError::new(format!("{e}")))?;
            }
            "--k" => opts.k = parse_num(flag, value()?)?,
            "--burnin" => opts.burnin = parse_num(flag, value()?)?,
            "--samples" => opts.samples = parse_num(flag, value()?)?,
            "--sweeps" => opts.sweeps = Some(parse_num(flag, value()?)?),
            "--epochs" => opts.epochs = Some(parse_num(flag, value()?)?),
            "--lambda" => opts.lambda = Some(parse_num(flag, value()?)?),
            "--learning-rate" => opts.learning_rate = Some(parse_num(flag, value()?)?),
            "--minibatch" => {
                opts.minibatch = Some(parse_num(flag, value()?)?);
                if opts.minibatch == Some(0) {
                    return Err(CliError::new("--minibatch must be positive"));
                }
            }
            "--step-size" => opts.step_size = Some(parse_num(flag, value()?)?),
            "--step-decay" => opts.step_decay = Some(parse_num(flag, value()?)?),
            "--out" => {
                pack_flag = Some(flag);
                opts.pack_out = Some(value()?.clone());
            }
            "--blocks" => {
                pack_flag = Some(flag);
                opts.pack_blocks = parse_num(flag, value()?)?;
                if opts.pack_blocks == 0 {
                    return Err(CliError::new("--blocks must be positive"));
                }
            }
            "--test-out" => {
                pack_flag = Some(flag);
                opts.test_out = Some(value()?.clone());
            }
            "--min-rating" => opts.min_rating = Some(parse_num(flag, value()?)?),
            "--max-rating" => opts.max_rating = Some(parse_num(flag, value()?)?),
            "--threads" => opts.threads = parse_num(flag, value()?)?,
            "--seed" => opts.seed = parse_num(flag, value()?)?,
            "--save-factors" => opts.save_factors = Some(value()?.clone()),
            "--user-features" => opts.user_features = Some(value()?.clone()),
            "--lambda-beta" => {
                opts.lambda_beta = parse_num(flag, value()?)?;
                if opts.lambda_beta <= 0.0 {
                    return Err(CliError::new("--lambda-beta must be positive"));
                }
            }
            "--user" => {
                recommend_flag = Some(flag);
                opts.recommend.users.push(parse_num(flag, value()?)?);
            }
            "--top-n" => {
                recommend_flag = Some(flag);
                opts.recommend.top_n = parse_num(flag, value()?)?;
                if opts.recommend.top_n == 0 {
                    return Err(CliError::new("--top-n must be positive"));
                }
            }
            "--exclude-seen" => {
                recommend_flag = Some(flag);
                opts.recommend.exclude_seen = true;
            }
            "--policy" => {
                recommend_flag = Some(flag);
                opts.recommend.policy = value()?.clone();
                opts.recommend
                    .policy
                    .parse::<bpmf::serve::RankPolicy>()
                    .map_err(|e| CliError::new(e.to_string()))?;
            }
            "--addr" => {
                serve_flag = Some(flag);
                opts.serve.addr = value()?.clone();
            }
            "--batch-window" => {
                daemon_flag = Some(flag);
                opts.serve.batch_window_ms = parse_num(flag, value()?)?;
                if !opts.serve.batch_window_ms.is_finite() || opts.serve.batch_window_ms < 0.0 {
                    return Err(CliError::new("--batch-window must be >= 0 milliseconds"));
                }
            }
            "--workers" => {
                daemon_flag = Some(flag);
                opts.serve.workers = parse_num(flag, value()?)?;
                if opts.serve.workers == 0 {
                    return Err(CliError::new("--workers must be positive"));
                }
            }
            "--queue-cap" => {
                daemon_flag = Some(flag);
                opts.serve.queue_cap = parse_num(flag, value()?)?;
                if opts.serve.queue_cap == 0 {
                    return Err(CliError::new("--queue-cap must be positive"));
                }
            }
            "--shard" => {
                daemon_flag = Some(flag);
                opts.serve.shard = Some(parse_shard(value()?)?);
            }
            "--shard-addr" => {
                router_flag = Some(flag);
                opts.serve.shard_addrs.push(value()?.clone());
            }
            "--inflight-cap" => {
                router_flag = Some(flag);
                opts.serve.inflight_cap = parse_num(flag, value()?)?;
                if opts.serve.inflight_cap == 0 {
                    return Err(CliError::new("--inflight-cap must be positive"));
                }
            }
            "--request-timeout" => {
                router_flag = Some(flag);
                opts.serve.request_timeout_ms = parse_num(flag, value()?)?;
                if !opts.serve.request_timeout_ms.is_finite()
                    || opts.serve.request_timeout_ms <= 0.0
                {
                    return Err(CliError::new(
                        "--request-timeout must be positive milliseconds",
                    ));
                }
            }
            "--retry-budget" => {
                router_flag = Some(flag);
                opts.serve.retry_budget = parse_num(flag, value()?)?;
            }
            "--replica" => {
                fleet_flag = Some(flag);
                opts.fleet.replicas.push(parse_fleet_replica(value()?)?);
            }
            "--restart-limit" => {
                fleet_flag = Some(flag);
                opts.fleet.restart_limit = parse_num(flag, value()?)?;
            }
            "--backoff-base" => {
                fleet_flag = Some(flag);
                opts.fleet.backoff_base_ms = parse_num(flag, value()?)?;
                if !opts.fleet.backoff_base_ms.is_finite() || opts.fleet.backoff_base_ms <= 0.0 {
                    return Err(CliError::new(
                        "--backoff-base must be positive milliseconds",
                    ));
                }
            }
            "--backoff-max" => {
                fleet_flag = Some(flag);
                opts.fleet.backoff_max_ms = parse_num(flag, value()?)?;
                if !opts.fleet.backoff_max_ms.is_finite() || opts.fleet.backoff_max_ms <= 0.0 {
                    return Err(CliError::new("--backoff-max must be positive milliseconds"));
                }
            }
            "--probe-interval" => {
                fleet_flag = Some(flag);
                opts.fleet.probe_interval_ms = parse_num(flag, value()?)?;
                if !opts.fleet.probe_interval_ms.is_finite() || opts.fleet.probe_interval_ms <= 0.0
                {
                    return Err(CliError::new(
                        "--probe-interval must be positive milliseconds",
                    ));
                }
            }
            "--probe-failures" => {
                fleet_flag = Some(flag);
                opts.fleet.probe_failures = parse_num(flag, value()?)?;
                if opts.fleet.probe_failures == 0 {
                    return Err(CliError::new("--probe-failures must be positive"));
                }
            }
            "--fault-plan" => {
                fault_flag = Some(flag);
                let spec = value()?.clone();
                // Validate at parse time: a chaos drill with a typo'd
                // plan must die here, not run vacuously.
                spec.parse::<bpmf::serve::faults::FaultPlan>()
                    .map_err(|e| CliError::new(format!("--fault-plan: {e}")))?;
                opts.serve.fault_plan = Some(spec);
            }
            "--health" => {
                client_flag = Some(flag);
                opts.serve.health = true;
            }
            "--stats" => {
                client_flag = Some(flag);
                opts.serve.stats = true;
            }
            "--reload" => {
                client_flag = Some(flag);
                opts.serve.reload = Some(value()?.clone());
            }
            "--fold-in" => {
                client_flag = Some(flag);
                // Validate at parse time: a typo'd observation list must
                // die here, not as a daemon-side error reply.
                opts.serve.fold_in = Some(parse_fold_in_spec(value()?)?);
            }
            "--shutdown" => {
                client_flag = Some(flag);
                opts.serve.shutdown = true;
            }
            "--checkpoint" => opts.checkpoint = Some(value()?.clone()),
            "--checkpoint-every" => opts.checkpoint_every = Some(parse_num(flag, value()?)?),
            "--resume" => opts.resume = Some(value()?.clone()),
            "--diagnostics" => opts.diagnostics = true,
            "--engine" => {
                opts.engine = match value()?.as_str() {
                    "ws" | "work-stealing" => EngineKind::WorkStealing,
                    "static" => EngineKind::Static,
                    "graphlab" => EngineKind::GraphLabLike,
                    other => {
                        return Err(CliError::new(format!(
                            "unknown engine '{other}' (ws | static | graphlab)"
                        )))
                    }
                };
            }
            other => return Err(CliError::new(format!("unknown flag '{other}'"))),
        }
    }
    // The recommend knobs double as the daemon's request defaults and the
    // client's request parameters. The router only takes --top-n (its
    // fill-in default for requests that omit n) — the up-front whitelist
    // above already rejected the rest for serve-router.
    if !matches!(
        opts.command,
        Command::Recommend | Command::ServeDaemon | Command::ServeClient | Command::ServeRouter
    ) {
        if let Some(flag) = recommend_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `recommend`, `serve-daemon`, \
                 or `serve-client` subcommands"
            )));
        }
    }
    if !matches!(
        opts.command,
        Command::ServeDaemon | Command::ServeRouter | Command::ServeClient
    ) {
        if let Some(flag) = serve_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-daemon`, `serve-router`, \
                 or `serve-client` subcommands"
            )));
        }
    }
    if opts.command != Command::ServeDaemon {
        if let Some(flag) = daemon_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-daemon` subcommand"
            )));
        }
    }
    if opts.command != Command::ServeRouter {
        if let Some(flag) = router_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-router` subcommand"
            )));
        }
    }
    if opts.command == Command::ServeRouter && opts.serve.shard_addrs.is_empty() {
        return Err(CliError::new(
            "serve-router needs at least one --shard-addr (one per shard, in shard order)",
        ));
    }
    if opts.command == Command::ServeRouter {
        opts.serve.shard_groups = group_shard_addrs(&opts.serve.shard_addrs)?;
    }
    if opts.command != Command::ServeFleet {
        if let Some(flag) = fleet_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-fleet` subcommand"
            )));
        }
    } else {
        validate_fleet(&opts.fleet)?;
    }
    if !matches!(opts.command, Command::ServeDaemon | Command::ServeRouter) {
        if let Some(flag) = fault_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-daemon` or `serve-router` subcommands"
            )));
        }
    }
    if opts.command != Command::ServeClient {
        if let Some(flag) = client_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `serve-client` subcommand"
            )));
        }
    }
    if opts.command != Command::Pack {
        if let Some(flag) = pack_flag {
            return Err(CliError::new(format!(
                "{flag} is only valid with the `pack` subcommand"
            )));
        }
    }
    if opts.command == Command::Pack && opts.pack_out.is_none() {
        return Err(CliError::new("pack requires --out FILE.slab"));
    }
    // The daemon serves whatever users clients request; a --user on its
    // command line would be silently meaningless.
    if opts.command == Command::ServeDaemon && !opts.recommend.users.is_empty() {
        return Err(CliError::new(
            "--user is not valid with `serve-daemon` (clients name users per request)",
        ));
    }
    // The client, router, and fleet supervisor never train in-process;
    // everything else needs data. (Fleet children get --train through
    // the `--` passthrough, checked in validate_fleet.)
    if opts.train.is_empty()
        && !matches!(
            opts.command,
            Command::ServeClient | Command::ServeRouter | Command::ServeFleet
        )
    {
        return Err(CliError::new("--train is required"));
    }
    if opts.k == 0 {
        return Err(CliError::new("--k must be positive"));
    }
    if opts.min_rating.is_some() != opts.max_rating.is_some() {
        return Err(CliError::new(
            "--min-rating and --max-rating must be given together",
        ));
    }
    if let (Some(lo), Some(hi)) = (opts.min_rating, opts.max_rating) {
        if lo >= hi {
            return Err(CliError::new("--min-rating must be below --max-rating"));
        }
    }
    Ok(Some(opts))
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::new(format!("invalid value '{s}' for {flag}")))
}

/// Group `--shard-addr` values into per-range replica lists.
///
/// Two forms, never mixed:
/// * legacy `HOST:PORT` — each address is its own range, in the order
///   given (one replica per range, exactly the pre-replication CLI);
/// * replicated `I/N@HOST:PORT` — the address replicates range `I` of
///   `N`. Every entry must agree on `N`, and every range `0..N` must be
///   covered by at least one replica: a silently missing range would
///   turn every request into a typed failure.
pub fn group_shard_addrs(addrs: &[String]) -> Result<Vec<Vec<String>>, CliError> {
    let replicated = addrs.iter().filter(|a| a.contains('@')).count();
    if replicated == 0 {
        return Ok(addrs.iter().map(|a| vec![a.clone()]).collect());
    }
    if replicated != addrs.len() {
        return Err(CliError::new(
            "--shard-addr forms cannot be mixed: use either HOST:PORT for every \
             shard or I/N@HOST:PORT for every replica",
        ));
    }
    let mut num_shards: Option<u32> = None;
    let mut groups: Vec<Vec<String>> = Vec::new();
    for spec in addrs {
        let (range, addr) = spec.split_once('@').expect("checked above");
        let (i, n) = parse_shard(range).map_err(|_| {
            CliError::new(format!(
                "invalid value '{spec}' for --shard-addr (expected I/N@HOST:PORT, \
                 e.g. 0/2@127.0.0.1:7878)"
            ))
        })?;
        if addr.trim().is_empty() {
            return Err(CliError::new(format!(
                "invalid value '{spec}' for --shard-addr: empty address after '@'"
            )));
        }
        match num_shards {
            None => {
                num_shards = Some(n);
                groups.resize(n as usize, Vec::new());
            }
            Some(expect) if expect != n => {
                return Err(CliError::new(format!(
                    "--shard-addr {spec}: declares {n} shard range(s) but an earlier \
                     replica declared {expect}"
                )));
            }
            Some(_) => {}
        }
        groups[i as usize].push(addr.to_string());
    }
    for (i, group) in groups.iter().enumerate() {
        if group.is_empty() {
            return Err(CliError::new(format!(
                "--shard-addr: range {i}/{} has no replica; every range needs at \
                 least one",
                num_shards.unwrap_or(0)
            )));
        }
    }
    Ok(groups)
}

/// Parse a `--replica I/N@HOST:PORT[=CKPT]` value.
pub fn parse_fleet_replica(spec: &str) -> Result<FleetReplica, CliError> {
    let bad = || {
        CliError::new(format!(
            "invalid value '{spec}' for --replica (expected I/N@HOST:PORT[=CKPT], \
             e.g. 0/2@127.0.0.1:7878=model.json)"
        ))
    };
    let (range, rest) = spec.split_once('@').ok_or_else(bad)?;
    let shard = parse_shard(range).map_err(|_| bad())?;
    let (addr, checkpoint) = match rest.split_once('=') {
        Some((addr, ckpt)) if !ckpt.trim().is_empty() => (addr, Some(ckpt.to_string())),
        Some(_) => return Err(bad()),
        None => (rest, None),
    };
    if addr.trim().is_empty() {
        return Err(bad());
    }
    Ok(FleetReplica {
        shard,
        addr: addr.to_string(),
        checkpoint,
    })
}

/// Parse a `--fold-in 'ITEM:RATING,ITEM:RATING,...'` value.
///
/// Every pair must be `u32:f64` with a finite rating; duplicated items
/// are rejected here so the daemon never sees a contradictory
/// observation set for one user.
pub fn parse_fold_in_spec(spec: &str) -> Result<Vec<(u32, f64)>, CliError> {
    let bad = |why: &str| {
        CliError::new(format!(
            "invalid value '{spec}' for --fold-in ({why}; expected \
             ITEM:RATING,ITEM:RATING,... e.g. 3:4.0,17:2.5)"
        ))
    };
    let mut pairs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(bad("empty observation"));
        }
        let (item, rating) = part.split_once(':').ok_or_else(|| bad("missing ':'"))?;
        let item: u32 = item
            .trim()
            .parse()
            .map_err(|_| bad("item id must be a non-negative integer"))?;
        let rating: f64 = rating
            .trim()
            .parse()
            .map_err(|_| bad("rating must be a number"))?;
        if !rating.is_finite() {
            return Err(bad("rating must be finite"));
        }
        if !seen.insert(item) {
            return Err(bad("item listed twice"));
        }
        pairs.push((item, rating));
    }
    Ok(pairs)
}

/// Cross-flag validation for `serve-fleet`: a coherent replica set (same
/// N everywhere, every range covered, no two children fighting over one
/// port) and a child command line the supervisor can actually spawn.
fn validate_fleet(fleet: &FleetOptions) -> Result<(), CliError> {
    if fleet.replicas.is_empty() {
        return Err(CliError::new(
            "serve-fleet needs at least one --replica I/N@HOST:PORT[=CKPT]",
        ));
    }
    let n = fleet.replicas[0].shard.1;
    let mut covered = vec![false; n as usize];
    let mut seen = std::collections::HashSet::new();
    for r in &fleet.replicas {
        if r.shard.1 != n {
            return Err(CliError::new(format!(
                "--replica {}/{}@{}: declares {} shard range(s) but an earlier \
                 replica declared {n}",
                r.shard.0, r.shard.1, r.addr, r.shard.1
            )));
        }
        covered[r.shard.0 as usize] = true;
        if !seen.insert(r.addr.as_str()) {
            return Err(CliError::new(format!(
                "--replica: two replicas on {} would fight over one port; \
                 addresses must be unique",
                r.addr
            )));
        }
    }
    if let Some(i) = covered.iter().position(|c| !c) {
        return Err(CliError::new(format!(
            "--replica: range {i}/{n} has no replica; every range needs at least one"
        )));
    }
    // The supervisor appends --shard/--addr/--resume per replica; a copy
    // in the passthrough would silently override them for every child.
    if let Some(owned) = fleet
        .child_args
        .iter()
        .find(|a| matches!(a.as_str(), "--shard" | "--addr" | "--resume"))
    {
        return Err(CliError::new(format!(
            "{owned} after `--` is owned by the supervisor: put the range, address, \
             and checkpoint in --replica I/N@HOST:PORT[=CKPT] instead"
        )));
    }
    if !fleet.child_args.iter().any(|a| a == "--train") {
        return Err(CliError::new(
            "serve-fleet needs the child daemon command line after `--`, including \
             --train (e.g. `-- --train r.mtx --k 8`)",
        ));
    }
    if fleet.backoff_base_ms > fleet.backoff_max_ms {
        return Err(CliError::new(
            "--backoff-base must not exceed --backoff-max",
        ));
    }
    Ok(())
}

/// Parse a `--shard I/N` value (shard index / total shards).
fn parse_shard(s: &str) -> Result<(u32, u32), CliError> {
    let bad = || {
        CliError::new(format!(
            "invalid value '{s}' for --shard (expected I/N, e.g. 0/4)"
        ))
    };
    let (i, n) = s.split_once('/').ok_or_else(bad)?;
    let i: u32 = i.trim().parse().map_err(|_| bad())?;
    let n: u32 = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(CliError::new(format!(
            "--shard {s}: shard index must satisfy 0 <= I < N"
        )));
    }
    Ok((i, n))
}

/// Render one top-N recommendation list in the canonical CLI format —
/// the single definition shared by the offline `recommend` path and the
/// daemon's `serve-client`, so their outputs stay byte-identical (the CI
/// daemon e2e gate diffs one against the other).
pub fn write_top_n_list(
    out: &mut impl Write,
    top_n: usize,
    user: u64,
    policy: &str,
    items: &[(u32, f64)],
) -> std::io::Result<()> {
    writeln!(out, "top-{top_n} for user {user} (policy {policy}):")?;
    for (rank, (item, score)) in items.iter().enumerate() {
        writeln!(out, "  {:2}. item {item:6}  score {score:.4}", rank + 1)?;
    }
    Ok(())
}

/// Write a factor matrix as TSV (one item per line, K columns).
pub fn write_factors(path: &str, m: &Mat) -> Result<(), CliError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for i in 0..m.rows() {
        let row = m.row(i);
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                write!(w, "\t")?;
            }
            write!(w, "{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Read a TSV of per-item features: one line per item, `d` tab- or
/// space-separated columns, same column count on every line.
pub fn read_features_tsv(path: &str) -> Result<Mat, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse::<f64>).collect();
        let row =
            row.map_err(|e| CliError::new(format!("{path}:{}: bad number: {e}", lineno + 1)))?;
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(CliError::new(format!(
                    "{path}:{}: expected {} columns, found {}",
                    lineno + 1,
                    first.len(),
                    row.len()
                )));
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(CliError::new(format!("{path}: no feature rows")));
    }
    let (n, d) = (rows.len(), rows[0].len());
    Ok(Mat::from_fn(n, d, |i, j| rows[i][j]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn minimal_invocation_parses() {
        let opts = parse_args(&argv("--train r.mtx")).unwrap().unwrap();
        assert_eq!(opts.train, "r.mtx");
        assert_eq!(opts.k, 16);
        assert_eq!(opts.algorithm, Algorithm::Gibbs);
        assert_eq!(opts.engine, EngineKind::WorkStealing);
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse_args(&argv(
            "--train a.mtx --test b.mtx --k 8 --burnin 3 --samples 5 --threads 2 \
             --engine static --seed 7 --save-factors out --test-fraction 0.2",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.test.as_deref(), Some("b.mtx"));
        assert_eq!(opts.k, 8);
        assert_eq!(opts.burnin, 3);
        assert_eq!(opts.samples, 5);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.engine, EngineKind::Static);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.save_factors.as_deref(), Some("out"));
    }

    #[test]
    fn algorithm_flags_parse() {
        let opts = parse_args(&argv(
            "--train a.mtx --algorithm als --sweeps 12 --lambda 0.2 --min-rating 1 --max-rating 5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.algorithm, Algorithm::Als);
        assert_eq!(opts.sweeps, Some(12));
        assert_eq!(opts.lambda, Some(0.2));
        assert_eq!(opts.min_rating, Some(1.0));
        assert_eq!(opts.max_rating, Some(5.0));

        let sgd = parse_args(&argv(
            "--train a.mtx --algorithm sgd --epochs 9 --learning-rate 0.05",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(sgd.algorithm, Algorithm::Sgd);
        assert_eq!(sgd.epochs, Some(9));
        assert_eq!(sgd.learning_rate, Some(0.05));
    }

    #[test]
    fn bad_algorithm_is_an_error() {
        assert!(parse_args(&argv("--train a.mtx --algorithm spark")).is_err());
    }

    #[test]
    fn rating_bounds_must_come_together_and_be_ordered() {
        assert!(parse_args(&argv("--train a.mtx --min-rating 1")).is_err());
        assert!(parse_args(&argv("--train a.mtx --max-rating 5")).is_err());
        assert!(parse_args(&argv("--train a.mtx --min-rating 5 --max-rating 1")).is_err());
        assert!(parse_args(&argv("--train a.mtx --min-rating 1 --max-rating 5")).is_ok());
    }

    #[test]
    fn extension_flags_parse() {
        let opts = parse_args(&argv(
            "--train a.mtx --user-features f.tsv --lambda-beta 0.5              --checkpoint c.json --checkpoint-every 10 --resume old.json --diagnostics",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.user_features.as_deref(), Some("f.tsv"));
        assert_eq!(opts.lambda_beta, 0.5);
        assert_eq!(opts.checkpoint.as_deref(), Some("c.json"));
        assert_eq!(opts.checkpoint_every, Some(10));
        assert_eq!(opts.resume.as_deref(), Some("old.json"));
        assert!(opts.diagnostics);
    }

    #[test]
    fn nonpositive_lambda_beta_is_an_error() {
        assert!(parse_args(&argv("--train a.mtx --lambda-beta 0")).is_err());
        assert!(parse_args(&argv("--train a.mtx --lambda-beta -1")).is_err());
    }

    #[test]
    fn features_tsv_roundtrip() {
        let dir = std::env::temp_dir().join("bpmf_cli_feat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("features.tsv");
        std::fs::write(
            &path,
            "1.0	2.0
3.0	4.0

-1.5	0.25
",
        )
        .unwrap();
        let m = read_features_tsv(path.to_str().unwrap()).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m[(2, 0)], -1.5);
        assert_eq!(m[(2, 1)], 0.25);
    }

    #[test]
    fn ragged_features_tsv_is_an_error() {
        let dir = std::env::temp_dir().join("bpmf_cli_feat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.tsv");
        std::fs::write(
            &path,
            "1 2 3
4 5
",
        )
        .unwrap();
        let err = read_features_tsv(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("expected 3 columns"));
    }

    #[test]
    fn recommend_subcommand_parses() {
        let opts = parse_args(&argv(
            "recommend --train a.mtx --algorithm als --user 3 --user 7 --top-n 5 \
             --exclude-seen --policy ucb:0.5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::Recommend);
        assert_eq!(opts.recommend.users, vec![3, 7]);
        assert_eq!(opts.recommend.top_n, 5);
        assert!(opts.recommend.exclude_seen);
        assert_eq!(opts.recommend.policy, "ucb:0.5");
        assert_eq!(opts.algorithm, Algorithm::Als);
    }

    #[test]
    fn recommend_defaults_are_sane() {
        let opts = parse_args(&argv("recommend --train a.mtx"))
            .unwrap()
            .unwrap();
        assert_eq!(opts.command, Command::Recommend);
        assert!(opts.recommend.users.is_empty());
        assert_eq!(opts.recommend.top_n, 10);
        assert!(!opts.recommend.exclude_seen);
        assert_eq!(opts.recommend.policy, "mean");
    }

    #[test]
    fn recommend_flags_require_the_subcommand() {
        assert!(parse_args(&argv("--train a.mtx --top-n 5")).is_err());
        assert!(parse_args(&argv("--train a.mtx --exclude-seen")).is_err());
        assert!(parse_args(&argv("--train a.mtx --policy ucb")).is_err());
    }

    #[test]
    fn bad_policy_and_zero_top_n_are_errors() {
        assert!(parse_args(&argv("recommend --train a.mtx --policy argmax")).is_err());
        assert!(parse_args(&argv("recommend --train a.mtx --policy ucb:x")).is_err());
        assert!(parse_args(&argv("recommend --train a.mtx --top-n 0")).is_err());
    }

    #[test]
    fn serve_daemon_subcommand_parses() {
        let opts = parse_args(&argv(
            "serve-daemon --train a.mtx --addr 127.0.0.1:0 --batch-window 5 \
             --workers 2 --queue-cap 32 --policy ucb:0.5 --top-n 7 --exclude-seen",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::ServeDaemon);
        assert_eq!(opts.serve.addr, "127.0.0.1:0");
        assert_eq!(opts.serve.batch_window_ms, 5.0);
        assert_eq!(opts.serve.workers, 2);
        assert_eq!(opts.serve.queue_cap, 32);
        assert_eq!(opts.recommend.policy, "ucb:0.5");
        assert_eq!(opts.recommend.top_n, 7);
        assert!(opts.recommend.exclude_seen);
    }

    #[test]
    fn serve_client_parses_without_train() {
        let opts = parse_args(&argv(
            "serve-client --addr 127.0.0.1:4000 --user 3 --user 9 --top-n 2 \
             --policy thompson:7 --shutdown",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::ServeClient);
        assert_eq!(opts.serve.addr, "127.0.0.1:4000");
        assert_eq!(opts.recommend.users, vec![3, 9]);
        assert!(opts.serve.shutdown);
        assert!(opts.train.is_empty());
        // A zero batch window (never wait) is legal for daemons.
        let zero = parse_args(&argv("serve-daemon --train a.mtx --batch-window 0"))
            .unwrap()
            .unwrap();
        assert_eq!(zero.serve.batch_window_ms, 0.0);
    }

    #[test]
    fn serve_flags_require_their_subcommands() {
        // Daemon-only knobs rejected elsewhere.
        assert!(parse_args(&argv("--train a.mtx --batch-window 5")).is_err());
        assert!(parse_args(&argv("serve-client --workers 2")).is_err());
        // --shutdown is client-only.
        assert!(parse_args(&argv("serve-daemon --train a.mtx --shutdown")).is_err());
        // --addr needs one of the serve subcommands.
        assert!(parse_args(&argv("recommend --train a.mtx --addr 1.2.3.4:5")).is_err());
        // The trainer modes still require --train.
        assert!(parse_args(&argv("serve-daemon --addr 127.0.0.1:0")).is_err());
        // The daemon doesn't take --user (clients name users per request)…
        assert!(parse_args(&argv("serve-daemon --train a.mtx --user 3")).is_err());
        // …and the client rejects training flags instead of ignoring them.
        assert!(parse_args(&argv("serve-client --addr 1.2.3.4:5 --k 8")).is_err());
        assert!(parse_args(&argv("serve-client --train a.mtx --user 1")).is_err());
    }

    #[test]
    fn bad_serve_values_are_errors() {
        assert!(parse_args(&argv("serve-daemon --train a.mtx --batch-window -1")).is_err());
        assert!(parse_args(&argv("serve-daemon --train a.mtx --workers 0")).is_err());
        assert!(parse_args(&argv("serve-daemon --train a.mtx --queue-cap 0")).is_err());
        assert!(parse_args(&argv("serve-daemon --train a.mtx --policy argmax")).is_err());
    }

    #[test]
    fn serve_daemon_shard_parses() {
        let opts = parse_args(&argv("serve-daemon --train a.mtx --shard 1/4"))
            .unwrap()
            .unwrap();
        assert_eq!(opts.serve.shard, Some((1, 4)));
        // Unsharded by default.
        let plain = parse_args(&argv("serve-daemon --train a.mtx"))
            .unwrap()
            .unwrap();
        assert_eq!(plain.serve.shard, None);
        // Malformed or out-of-range specs are errors.
        for bad in ["4", "1:4", "4/4", "5/4", "x/4", "1/0", "1/x"] {
            assert!(
                parse_args(&argv(&format!("serve-daemon --train a.mtx --shard {bad}"))).is_err(),
                "--shard {bad} should be rejected"
            );
        }
        // --shard is daemon-only.
        assert!(parse_args(&argv("--train a.mtx --shard 0/2")).is_err());
        assert!(parse_args(&argv("serve-client --addr a:1 --shard 0/2")).is_err());
    }

    #[test]
    fn serve_router_subcommand_parses() {
        let opts = parse_args(&argv(
            "serve-router --addr 127.0.0.1:0 --shard-addr 127.0.0.1:1 \
             --shard-addr 127.0.0.1:2 --inflight-cap 8 --request-timeout 1500 --top-n 7",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::ServeRouter);
        assert_eq!(opts.serve.addr, "127.0.0.1:0");
        assert_eq!(opts.serve.shard_addrs, vec!["127.0.0.1:1", "127.0.0.1:2"]);
        // Legacy form: each address is its own single-replica range.
        assert_eq!(
            opts.serve.shard_groups,
            vec![
                vec!["127.0.0.1:1".to_string()],
                vec!["127.0.0.1:2".to_string()]
            ]
        );
        assert_eq!(opts.serve.inflight_cap, 8);
        assert_eq!(opts.serve.request_timeout_ms, 1500.0);
        // --top-n is the router's fill-in default for requests that omit n.
        assert_eq!(opts.recommend.top_n, 7);
        // No training: --train is neither required nor accepted.
        assert!(opts.train.is_empty());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --train a.mtx")).is_err());
        // At least one shard address is required.
        assert!(parse_args(&argv("serve-router --addr 127.0.0.1:0")).is_err());
        // The rest of the recommend knobs stay client/daemon-only.
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --user 3")).is_err());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --policy mean")).is_err());
        // Router-only flags are rejected elsewhere.
        assert!(parse_args(&argv("serve-daemon --train a.mtx --shard-addr a:1")).is_err());
        assert!(parse_args(&argv("--train a.mtx --inflight-cap 8")).is_err());
        // Bad values are errors.
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --inflight-cap 0")).is_err());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --request-timeout 0")).is_err());
    }

    #[test]
    fn replicated_shard_addrs_group_by_range() {
        let opts = parse_args(&argv(
            "serve-router --shard-addr 0/2@127.0.0.1:1 --shard-addr 1/2@127.0.0.1:2 \
             --shard-addr 0/2@127.0.0.1:3 --retry-budget 5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(
            opts.serve.shard_groups,
            vec![
                vec!["127.0.0.1:1".to_string(), "127.0.0.1:3".to_string()],
                vec!["127.0.0.1:2".to_string()],
            ]
        );
        assert_eq!(opts.serve.retry_budget, 5);
        // Default budget without the flag.
        let plain = parse_args(&argv("serve-router --shard-addr 127.0.0.1:1"))
            .unwrap()
            .unwrap();
        assert_eq!(plain.serve.retry_budget, 2);
        // Mixing the forms, disagreeing on N, leaving a range uncovered,
        // and malformed range specs are all errors.
        for bad in [
            "serve-router --shard-addr 0/2@a:1 --shard-addr b:2",
            "serve-router --shard-addr 0/2@a:1 --shard-addr 1/3@b:2",
            "serve-router --shard-addr 0/2@a:1 --shard-addr 0/2@b:2",
            "serve-router --shard-addr 2/2@a:1",
            "serve-router --shard-addr x/2@a:1",
            "serve-router --shard-addr 0/2@",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} should be rejected");
        }
        // --retry-budget is router-only.
        assert!(parse_args(&argv("serve-daemon --train a.mtx --retry-budget 1")).is_err());
    }

    #[test]
    fn serve_fleet_subcommand_parses() {
        let opts = parse_args(&argv(
            "serve-fleet --replica 0/2@127.0.0.1:7001=m.json \
             --replica 0/2@127.0.0.1:7002=m.json --replica 1/2@127.0.0.1:7003 \
             --restart-limit 3 --backoff-base 50 --backoff-max 900 \
             --probe-interval 100 --probe-failures 2 --seed 7 \
             -- --train r.mtx --k 4 --top-n 5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::ServeFleet);
        assert_eq!(opts.fleet.replicas.len(), 3);
        assert_eq!(
            opts.fleet.replicas[0],
            FleetReplica {
                shard: (0, 2),
                addr: "127.0.0.1:7001".to_string(),
                checkpoint: Some("m.json".to_string()),
            }
        );
        assert_eq!(opts.fleet.replicas[2].checkpoint, None);
        assert_eq!(opts.fleet.restart_limit, 3);
        assert_eq!(opts.fleet.backoff_base_ms, 50.0);
        assert_eq!(opts.fleet.backoff_max_ms, 900.0);
        assert_eq!(opts.fleet.probe_interval_ms, 100.0);
        assert_eq!(opts.fleet.probe_failures, 2);
        assert_eq!(opts.seed, 7);
        // The passthrough is verbatim, order preserved, --train included.
        assert_eq!(opts.fleet.child_args, argv("--train r.mtx --k 4 --top-n 5"));
        // The supervisor itself never trains.
        assert!(opts.train.is_empty());
    }

    #[test]
    fn serve_fleet_defaults_are_sane() {
        let opts = parse_args(&argv(
            "serve-fleet --replica 0/1@127.0.0.1:7001 -- --train r.mtx",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.fleet.restart_limit, 5);
        assert_eq!(opts.fleet.backoff_base_ms, 200.0);
        assert_eq!(opts.fleet.backoff_max_ms, 5000.0);
        assert_eq!(opts.fleet.probe_interval_ms, 500.0);
        assert_eq!(opts.fleet.probe_failures, 3);
    }

    #[test]
    fn serve_fleet_rejects_incoherent_invocations() {
        for bad in [
            // No replicas / no child args / child args without --train.
            "serve-fleet -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1",
            "serve-fleet --replica 0/1@a:1 -- --k 4",
            // Malformed replica specs.
            "serve-fleet --replica a:1 -- --train r.mtx",
            "serve-fleet --replica 1/1@a:1 -- --train r.mtx",
            "serve-fleet --replica 0/1@ -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1= -- --train r.mtx",
            // N disagreement, uncovered range, duplicate address.
            "serve-fleet --replica 0/2@a:1 --replica 1/3@a:2 -- --train r.mtx",
            "serve-fleet --replica 0/2@a:1 -- --train r.mtx",
            "serve-fleet --replica 0/2@a:1 --replica 1/2@a:1 -- --train r.mtx",
            // Supervisor-owned flags in the passthrough.
            "serve-fleet --replica 0/1@a:1 -- --train r.mtx --shard 0/1",
            "serve-fleet --replica 0/1@a:1 -- --train r.mtx --addr b:2",
            "serve-fleet --replica 0/1@a:1 -- --train r.mtx --resume c.json",
            // Bad knob values and training flags before the `--`.
            "serve-fleet --replica 0/1@a:1 --backoff-base 0 -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1 --probe-failures 0 -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1 --backoff-base 900 --backoff-max 100 \
             -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1 --train r.mtx -- --train r.mtx",
            "serve-fleet --replica 0/1@a:1 --addr b:2 -- --train r.mtx",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} should be rejected");
        }
        // Fleet flags need the subcommand.
        assert!(parse_args(&argv("--train r.mtx --replica 0/1@a:1")).is_err());
        assert!(parse_args(&argv("--train r.mtx --restart-limit 2")).is_err());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --probe-interval 9")).is_err());
    }

    #[test]
    fn fault_plan_flag_parses_and_validates() {
        let opts = parse_args(&argv(
            "serve-router --shard-addr 127.0.0.1:1 --fault-plan close@3,seed=7",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.serve.fault_plan.as_deref(), Some("close@3,seed=7"));
        let daemon = parse_args(&argv(
            "serve-daemon --train a.mtx --fault-plan delay:20@p0.5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(daemon.serve.fault_plan.as_deref(), Some("delay:20@p0.5"));
        // A malformed plan dies at parse time, not silently at runtime.
        assert!(parse_args(&argv(
            "serve-router --shard-addr a:1 --fault-plan explode@3"
        ))
        .is_err());
        // Serving-only flag.
        assert!(parse_args(&argv("--train a.mtx --fault-plan drop@1")).is_err());
        assert!(parse_args(&argv("serve-client --addr a:1 --fault-plan drop@1")).is_err());
    }

    #[test]
    fn serve_client_health_and_stats_parse() {
        let opts = parse_args(&argv("serve-client --addr 127.0.0.1:9 --health --stats"))
            .unwrap()
            .unwrap();
        assert!(opts.serve.health);
        assert!(opts.serve.stats);
        assert!(opts.recommend.users.is_empty());
        // Client-only flags are rejected elsewhere.
        assert!(parse_args(&argv("serve-daemon --train a.mtx --health")).is_err());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --stats")).is_err());
    }

    #[test]
    fn serve_client_reload_and_fold_in_parse() {
        let opts = parse_args(&argv("serve-client --addr 127.0.0.1:9 --reload v2.json"))
            .unwrap()
            .unwrap();
        assert_eq!(opts.serve.reload.as_deref(), Some("v2.json"));
        let opts = parse_args(&argv(
            "serve-client --addr 127.0.0.1:9 --fold-in 3:4.0,17:2.5 --top-n 5",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.serve.fold_in, Some(vec![(3, 4.0), (17, 2.5)]));
        // Client-only: daemons and routers load models their own way.
        assert!(parse_args(&argv("serve-daemon --train a.mtx --reload v2.json")).is_err());
        assert!(parse_args(&argv("serve-router --shard-addr a:1 --fold-in 1:2")).is_err());
    }

    #[test]
    fn fold_in_specs_validate_at_parse_time() {
        assert_eq!(parse_fold_in_spec("7:3").unwrap(), vec![(7, 3.0)]);
        assert_eq!(
            parse_fold_in_spec(" 1:4.5 , 2:-0.5 ").unwrap(),
            vec![(1, 4.5), (2, -0.5)]
        );
        for bad in [
            "", ",", "3", "3:", ":4", "a:4", "3:b", "3:NaN", "3:inf", "-1:4", "3:4,3:5",
        ] {
            assert!(
                parse_fold_in_spec(bad).is_err(),
                "--fold-in {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn pack_subcommand_parses() {
        let opts = parse_args(&argv(
            "pack --train r.mtx --out r.slab --blocks 4 --test-out t.mtx \
             --test-fraction 0.2 --seed 9",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.command, Command::Pack);
        assert_eq!(opts.pack_out.as_deref(), Some("r.slab"));
        assert_eq!(opts.pack_blocks, 4);
        assert_eq!(opts.test_out.as_deref(), Some("t.mtx"));
        assert_eq!(opts.test_fraction, 0.2);
        assert_eq!(opts.seed, 9);
        // --out is required, --blocks must be positive, and training or
        // serving flags are rejected rather than silently ignored.
        assert!(parse_args(&argv("pack --train r.mtx")).is_err());
        assert!(parse_args(&argv("pack --train r.mtx --out r.slab --blocks 0")).is_err());
        assert!(parse_args(&argv("pack --train r.mtx --out r.slab --k 8")).is_err());
        assert!(parse_args(&argv("pack --train r.mtx --out r.slab --addr a:1")).is_err());
        // Pack-only flags need the subcommand.
        assert!(parse_args(&argv("--train r.mtx --out r.slab")).is_err());
        assert!(parse_args(&argv("--train r.mtx --blocks 4")).is_err());
        assert!(parse_args(&argv("--train r.mtx --test-out t.mtx")).is_err());
    }

    #[test]
    fn sgmcmc_flags_parse() {
        let opts = parse_args(&argv(
            "--train a.slab --test t.mtx --algorithm sgmcmc --minibatch 512 \
             --step-size 0.05 --step-decay 0.1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.algorithm, Algorithm::Sgmcmc);
        assert_eq!(opts.minibatch, Some(512));
        assert_eq!(opts.step_size, Some(0.05));
        assert_eq!(opts.step_decay, Some(0.1));
        assert!(parse_args(&argv("--train a.mtx --minibatch 0")).is_err());
    }

    #[test]
    fn distributed_algorithm_parses() {
        let opts = parse_args(&argv("--train a.mtx --algorithm distributed --threads 3"))
            .unwrap()
            .unwrap();
        assert_eq!(opts.algorithm, Algorithm::Distributed);
        assert_eq!(opts.threads, 3);
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse_args(&argv("--help")).unwrap().is_none());
    }

    #[test]
    fn missing_train_is_an_error() {
        assert!(parse_args(&argv("--k 4")).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_args(&argv("--train a.mtx --bogus 1")).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_args(&argv("--train a.mtx --k")).is_err());
    }

    #[test]
    fn bad_engine_is_an_error() {
        assert!(parse_args(&argv("--train a.mtx --engine spark")).is_err());
    }

    #[test]
    fn write_factors_roundtrip() {
        let m = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let dir = std::env::temp_dir().join("bpmf_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("factors.tsv");
        write_factors(path.to_str().unwrap(), &m).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "4\t5");
    }
}
