//! Fleet supervision: spawn every replica, reap deaths, respawn under a
//! restart budget, quarantine what keeps dying.
//!
//! PR 7's replica groups made the router *mask* a replica death; this
//! module makes the fleet *heal* it. [`supervise`] owns the full set of
//! replica processes described by a declarative [`ReplicaSpec`] list:
//!
//! * **Reaping** — a SIGCHLD handler flags child state changes and the
//!   supervision loop reaps them with non-blocking `waitpid` (via
//!   [`std::process::Child::try_wait`]), so no exit is missed and no
//!   zombie lingers.
//! * **Respawn on the original port** — replicas are restarted with their
//!   exact original argv (the daemon binds via
//!   [`super::net::bind_reuseaddr`], so `TIME_WAIT` residue from the dead
//!   process cannot block the rebind), which is what lets the router's
//!   fixed replica list reconnect transparently: the reborn daemon
//!   re-stamps its checkpoint epoch, the router's epoch gate re-admits
//!   it, and `replicas_up` recovers with no client-visible error.
//! * **Restart budget** — each death costs one attempt from a per-replica
//!   budget of [`SuperviseConfig::restart_limit`] *consecutive* failures;
//!   a successful health probe refunds the whole budget. Each respawn
//!   waits out a seeded-jitter exponential backoff
//!   ([`super::net::jittered_backoff`]) so a fleet-wide event does not
//!   respawn everything in lockstep. A replica that exhausts the budget
//!   without ever probing healthy is **quarantined**: it stays down, a
//!   [`wire::CODE_CRASH_LOOP`] diagnostic is emitted, and the rest of the
//!   fleet keeps serving (the router degrades that group to its twin).
//! * **Health probes** — a live process that stops answering is as dead
//!   as a crashed one: after [`SuperviseConfig::startup_grace`], each
//!   replica is pinged over its serving socket every
//!   [`SuperviseConfig::probe_interval`]; [`SuperviseConfig::probe_failures`]
//!   consecutive misses kill and restart it through the same
//!   budget-charged path as an exit.
//! * **Artifact integrity** — before every (re)spawn, the replica's
//!   checkpoint (when the spec names one) is verified via
//!   [`crate::checkpoint::read_checkpoint`]. A checksum failure
//!   quarantines the replica immediately with
//!   [`wire::CODE_CORRUPT_ARTIFACT`]: recovery must never resurrect a
//!   replica onto garbage factors.
//! * **Rolling reload** — the supervisor watches each replica's
//!   checkpoint file; when a new checkpoint lands (a trainer published a
//!   fresher posterior), it CRC-verifies the file and pushes a
//!   [`wire::CMD_RELOAD`] over the replica's serving socket — **one
//!   replica per [`ReplicaSpec::group`] at a time**, so every shard
//!   range keeps at least one replica on a settled model while its twin
//!   swaps. A corrupt drop is refused (never pushed); a failed push is
//!   retried on the next check. Progress streams out as
//!   [`wire::CODE_MODEL_RELOAD`] diagnostics, and respawns stay
//!   self-consistent because the replica's `--resume` argv already names
//!   the reloaded file.
//!
//! The loop runs until the caller's shutdown flag is raised (children are
//! then SIGTERMed, given a grace period, and SIGKILLed if still alive) or
//! until every replica is quarantined. Lifecycle events stream to the
//! caller as typed [`Diagnostic`]s — the `serve-fleet` CLI prints them as
//! JSON lines for the e2e drills to assert on.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use super::net::{jittered_backoff, round_trip};
use super::wire::{self, Diagnostic};
use crate::error::BpmfError;

/// Everything needed to (re)start one replica, declaratively.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Display id for diagnostics (e.g. `0/2@127.0.0.1:7001`).
    pub id: String,
    /// Serving address, used for health probes.
    pub addr: String,
    /// Full command line: `argv[0]` is the program, the rest arguments.
    /// Respawns reuse it verbatim, so the replica returns on its
    /// original port.
    pub argv: Vec<String>,
    /// Checkpoint the replica resumes from, integrity-checked before
    /// every (re)spawn and watched for rolling reloads. `None` skips
    /// both.
    pub checkpoint: Option<PathBuf>,
    /// Replica group (shard-range) this replica belongs to. Rolling
    /// reloads touch at most one replica per group at a time, so a
    /// range's twin keeps serving a settled model during the swap.
    pub group: u32,
}

/// Supervision knobs. `Default`: budget of 5 consecutive failures,
/// 200 ms–5 s restart backoff, probes every 500 ms after a 2 s grace,
/// 3 missed probes kill, 250 ms probe patience, 2 s shutdown grace.
#[derive(Clone, Debug)]
pub struct SuperviseConfig {
    /// Consecutive budget-charged failures (exits or probe kills) before
    /// a replica is quarantined. A successful probe resets the count.
    pub restart_limit: u32,
    /// First respawn delay (jittered exponential from here).
    pub backoff_base: Duration,
    /// Respawn delay ceiling.
    pub backoff_max: Duration,
    /// How often to health-probe a running replica.
    pub probe_interval: Duration,
    /// Consecutive probe misses before the replica is killed/restarted.
    pub probe_failures: u32,
    /// Connect/read patience per probe.
    pub probe_timeout: Duration,
    /// No probes until this long after a spawn (daemons resume a
    /// checkpoint and warm caches before listening).
    pub startup_grace: Duration,
    /// How long SIGTERMed children get before SIGKILL at shutdown.
    pub shutdown_grace: Duration,
    /// Supervision loop tick.
    pub poll_interval: Duration,
    /// How often to stat a replica's checkpoint for a rolling reload
    /// (and how closely reloads of twin replicas may follow each other).
    pub reload_check_interval: Duration,
    /// Connect/read patience for a reload push (the daemon reads and
    /// CRC-verifies the checkpoint before acking, so this is much longer
    /// than a probe).
    pub reload_timeout: Duration,
    /// Seed for restart-backoff jitter (each replica mixes its index in).
    pub seed: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            restart_limit: 5,
            backoff_base: Duration::from_millis(200),
            backoff_max: Duration::from_secs(5),
            probe_interval: Duration::from_millis(500),
            probe_failures: 3,
            probe_timeout: Duration::from_millis(250),
            startup_grace: Duration::from_secs(2),
            shutdown_grace: Duration::from_secs(2),
            poll_interval: Duration::from_millis(25),
            reload_check_interval: Duration::from_millis(500),
            reload_timeout: Duration::from_secs(5),
            seed: 0,
        }
    }
}

/// What the supervisor did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SupervisorReport {
    /// Processes spawned, including first launches.
    pub spawns: u64,
    /// Respawns after an exit or probe kill.
    pub restarts: u64,
    /// Restarts triggered by failed health probes (subset of `restarts`).
    pub probe_restarts: u64,
    /// Replicas quarantined (crash loop or corrupt artifact).
    pub quarantined: u64,
    /// Rolling model reloads pushed successfully.
    pub reloads: u64,
}

/// Per-replica lifecycle state.
enum State {
    Running {
        child: Child,
        spawned_at: Instant,
        probe_misses: u32,
        last_probe: Instant,
    },
    Waiting {
        until: Instant,
    },
    Quarantined,
}

/// Size + mtime snapshot of a checkpoint file: cheap to poll, and any
/// publish (rename or rewrite) changes it.
type FileStamp = (u64, Option<std::time::SystemTime>);

fn checkpoint_stamp(path: &std::path::Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()))
}

struct Replica<'a> {
    spec: &'a ReplicaSpec,
    state: State,
    /// Consecutive budget-charged failures since the last healthy probe.
    failures: u32,
    /// Stamp of the checkpoint as last loaded into the replica (at spawn
    /// or after a successful reload push); a differing stamp on disk is
    /// a pending rolling reload.
    ckpt_stamp: Option<FileStamp>,
    /// The on-disk checkpoint changed and has not been pushed yet.
    reload_pending: bool,
    /// Last checkpoint poll (rate-limits stats and reload pushes).
    last_reload_check: Instant,
}

/// Run the fleet described by `specs` until `shutdown` is raised or
/// every replica is quarantined. Lifecycle events (deaths, respawns,
/// quarantines) are delivered to `events` as typed [`Diagnostic`]s.
pub fn supervise(
    specs: &[ReplicaSpec],
    cfg: &SuperviseConfig,
    shutdown: &AtomicBool,
    events: &mut dyn FnMut(Diagnostic),
) -> io::Result<SupervisorReport> {
    let sigchld = install_sigchld_flag();
    let mut report = SupervisorReport::default();
    let now = Instant::now();
    let mut fleet: Vec<Replica<'_>> = specs
        .iter()
        .map(|spec| Replica {
            spec,
            // Everyone starts "due now": the first loop pass performs the
            // integrity pre-check and initial spawn through the same path
            // as a restart.
            state: State::Waiting { until: now },
            failures: 0,
            ckpt_stamp: None,
            reload_pending: false,
            last_reload_check: now,
        })
        .collect();

    while !shutdown.load(Ordering::Relaxed) {
        sigchld.swap(false, Ordering::Relaxed);
        let now = Instant::now();
        for (idx, replica) in fleet.iter_mut().enumerate() {
            match &mut replica.state {
                State::Quarantined => {}
                State::Waiting { until } => {
                    if now >= *until {
                        step_spawn(replica, idx, cfg, &mut report, events);
                    }
                }
                State::Running {
                    child,
                    spawned_at,
                    probe_misses,
                    last_probe,
                } => {
                    // Reap: non-blocking waitpid via try_wait.
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            let detail = format!(
                                "replica {} exited ({status}); charging restart budget \
                                 ({} of {} consecutive failures)",
                                replica.spec.id,
                                replica.failures + 1,
                                cfg.restart_limit
                            );
                            events(Diagnostic::new(
                                wire::SEV_WARNING,
                                wire::CODE_REPLICA_DOWN,
                                detail,
                            ));
                            step_failure(replica, idx, cfg, &mut report, events, false);
                        }
                        Ok(None) => {
                            // Alive: probe it once the grace and interval allow.
                            let due = now.duration_since(*spawned_at) >= cfg.startup_grace
                                && now.duration_since(*last_probe) >= cfg.probe_interval;
                            if due {
                                *last_probe = now;
                                let ping = wire::Request::command(wire::CMD_PING);
                                if round_trip(&replica.spec.addr, &ping, cfg.probe_timeout).is_ok()
                                {
                                    *probe_misses = 0;
                                    replica.failures = 0; // healthy: refund the budget
                                } else {
                                    *probe_misses += 1;
                                    if *probe_misses >= cfg.probe_failures {
                                        events(Diagnostic::new(
                                            wire::SEV_WARNING,
                                            wire::CODE_REPLICA_DOWN,
                                            format!(
                                                "replica {} failed {} consecutive health \
                                                 probes; killing for restart",
                                                replica.spec.id, probe_misses
                                            ),
                                        ));
                                        let _ = child.kill();
                                        let _ = child.wait(); // reap the kill
                                        step_failure(replica, idx, cfg, &mut report, events, true);
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            events(Diagnostic::new(
                                wire::SEV_ERROR,
                                wire::CODE_INTERNAL,
                                format!("replica {}: waitpid failed: {e}", replica.spec.id),
                            ));
                        }
                    }
                }
            }
        }
        // Rolling reload: poll each running replica's checkpoint file and
        // push changed ones over the wire — at most one replica per group
        // per pass. The push is a synchronous roundtrip, so by the time a
        // twin's turn comes (one reload_check_interval later) the first
        // swap has already completed.
        let mut groups_swapping: Vec<u32> = Vec::new();
        for replica in fleet.iter_mut() {
            let State::Running { spawned_at, .. } = &replica.state else {
                continue;
            };
            let spawned_at = *spawned_at;
            let Some(path) = replica.spec.checkpoint.clone() else {
                continue;
            };
            if now.duration_since(spawned_at) < cfg.startup_grace
                || now.duration_since(replica.last_reload_check) < cfg.reload_check_interval
            {
                continue;
            }
            replica.last_reload_check = now;
            let stamp = checkpoint_stamp(&path);
            if !replica.reload_pending {
                if stamp.is_some() && stamp != replica.ckpt_stamp {
                    replica.reload_pending = true;
                } else {
                    continue;
                }
            }
            if groups_swapping.contains(&replica.spec.group) {
                continue; // this range already swapped a replica this pass
            }
            groups_swapping.push(replica.spec.group);
            step_reload(replica, &path, stamp, cfg, &mut report, events);
        }
        if fleet.iter().all(|r| matches!(r.state, State::Quarantined)) {
            // Nothing left to supervise; return rather than spin forever.
            return Ok(report);
        }
        std::thread::sleep(cfg.poll_interval);
    }

    // Graceful shutdown: SIGTERM everyone, grant the grace period, then
    // SIGKILL whatever remains. Every child is reaped before returning.
    let mut children: Vec<Child> = fleet
        .into_iter()
        .filter_map(|r| match r.state {
            State::Running { child, .. } => Some(child),
            _ => None,
        })
        .collect();
    for child in &children {
        send_sigterm(child.id());
    }
    let deadline = Instant::now() + cfg.shutdown_grace;
    while Instant::now() < deadline
        && children
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(None)))
    {
        std::thread::sleep(cfg.poll_interval);
    }
    for child in &mut children {
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    Ok(report)
}

/// Charge one failure against the budget and schedule the respawn (or
/// quarantine a crash-looper).
fn step_failure(
    replica: &mut Replica<'_>,
    idx: usize,
    cfg: &SuperviseConfig,
    report: &mut SupervisorReport,
    events: &mut dyn FnMut(Diagnostic),
    from_probe: bool,
) {
    replica.failures += 1;
    if from_probe {
        report.probe_restarts += 1;
    }
    if replica.failures > cfg.restart_limit {
        replica.state = State::Quarantined;
        report.quarantined += 1;
        events(Diagnostic::new(
            wire::SEV_ERROR,
            wire::CODE_CRASH_LOOP,
            format!(
                "replica {} quarantined: {} consecutive failures without a healthy probe \
                 (budget {}); leaving it down",
                replica.spec.id, replica.failures, cfg.restart_limit
            ),
        ));
        return;
    }
    let delay = jittered_backoff(
        replica.failures - 1,
        cfg.backoff_base,
        cfg.backoff_max,
        cfg.seed ^ ((idx as u64) << 16),
    );
    replica.state = State::Waiting {
        until: Instant::now() + delay,
    };
}

/// Push one pending rolling reload: CRC-verify what is on disk, then
/// send [`wire::CMD_RELOAD`] over the replica's serving socket. A
/// corrupt drop is swallowed with a warning (the replica keeps serving
/// its current model); a failed push stays pending and is retried next
/// check.
fn step_reload(
    replica: &mut Replica<'_>,
    path: &std::path::Path,
    stamp: Option<FileStamp>,
    cfg: &SuperviseConfig,
    report: &mut SupervisorReport,
    events: &mut dyn FnMut(Diagnostic),
) {
    match crate::checkpoint::read_checkpoint(path) {
        Ok(_) => {}
        Err(BpmfError::Integrity(msg)) => {
            // Never push garbage at a healthy replica. Remember the bad
            // file's stamp so one corrupt drop warns once, not per tick;
            // the next (re)write re-arms detection.
            replica.ckpt_stamp = stamp;
            replica.reload_pending = false;
            events(Diagnostic::new(
                wire::SEV_WARNING,
                wire::CODE_CORRUPT_ARTIFACT,
                format!(
                    "replica {}: refusing to push a corrupt checkpoint: {msg}",
                    replica.spec.id
                ),
            ));
            return;
        }
        Err(other) => {
            replica.ckpt_stamp = stamp;
            replica.reload_pending = false;
            events(Diagnostic::new(
                wire::SEV_WARNING,
                wire::CODE_INTERNAL,
                format!("replica {}: reload pre-check: {other}", replica.spec.id),
            ));
            return;
        }
    }
    let req = wire::Request {
        path: path.display().to_string(),
        ..wire::Request::command(wire::CMD_RELOAD)
    };
    let pushed = round_trip(&replica.spec.addr, &req, cfg.reload_timeout)
        .map_err(|e| e.to_string())
        .and_then(|resp| resp.error.map_or(Ok(resp.model_epoch), Err));
    match pushed {
        Ok(epoch) => {
            replica.ckpt_stamp = stamp;
            replica.reload_pending = false;
            report.reloads += 1;
            events(Diagnostic::new(
                wire::SEV_INFO,
                wire::CODE_MODEL_RELOAD,
                match epoch {
                    Some(e) => format!(
                        "replica {} reloaded {} (model epoch {e})",
                        replica.spec.id,
                        path.display()
                    ),
                    None => format!("replica {} reloaded {}", replica.spec.id, path.display()),
                },
            ));
        }
        Err(msg) => {
            // Stays pending: retried on the next check interval.
            events(Diagnostic::new(
                wire::SEV_WARNING,
                wire::CODE_MODEL_RELOAD,
                format!(
                    "replica {}: reload push failed ({msg}); will retry",
                    replica.spec.id
                ),
            ));
        }
    }
}

/// Integrity-check the replica's checkpoint and spawn it. A corrupt
/// artifact quarantines instead of spawning; a spawn error charges the
/// budget like a death.
fn step_spawn(
    replica: &mut Replica<'_>,
    idx: usize,
    cfg: &SuperviseConfig,
    report: &mut SupervisorReport,
    events: &mut dyn FnMut(Diagnostic),
) {
    if let Some(path) = &replica.spec.checkpoint {
        match crate::checkpoint::read_checkpoint(path) {
            Ok(_) => {
                // What boots is what is on disk right now: the rolling
                // reload watcher diffs against this stamp.
                replica.ckpt_stamp = checkpoint_stamp(path);
                replica.reload_pending = false;
            }
            Err(BpmfError::Integrity(msg)) => {
                replica.state = State::Quarantined;
                report.quarantined += 1;
                events(Diagnostic::new(
                    wire::SEV_ERROR,
                    wire::CODE_CORRUPT_ARTIFACT,
                    format!(
                        "replica {} quarantined: refusing to restart onto a corrupt \
                         checkpoint: {msg}",
                        replica.spec.id
                    ),
                ));
                return;
            }
            Err(other) => {
                // Unreadable for another reason (missing, permissions):
                // surfacing it and charging the budget converges to
                // quarantine if it never recovers.
                events(Diagnostic::new(
                    wire::SEV_WARNING,
                    wire::CODE_INTERNAL,
                    format!("replica {}: checkpoint pre-check: {other}", replica.spec.id),
                ));
                step_failure(replica, idx, cfg, report, events, false);
                return;
            }
        }
    }
    let mut command = Command::new(&replica.spec.argv[0]);
    command
        .args(&replica.spec.argv[1..])
        .stdin(Stdio::null())
        .stdout(Stdio::null()); // stderr inherits: replica logs interleave
    match command.spawn() {
        Ok(child) => {
            report.spawns += 1;
            if replica.failures > 0 {
                report.restarts += 1;
            }
            let now = Instant::now();
            events(Diagnostic::new(
                wire::SEV_INFO,
                wire::CODE_REPLICA_DOWN,
                format!(
                    "replica {} spawned (pid {}, attempt {})",
                    replica.spec.id,
                    child.id(),
                    replica.failures
                ),
            ));
            replica.state = State::Running {
                child,
                spawned_at: now,
                probe_misses: 0,
                last_probe: now,
            };
        }
        Err(e) => {
            events(Diagnostic::new(
                wire::SEV_WARNING,
                wire::CODE_INTERNAL,
                format!("replica {}: spawn failed: {e}", replica.spec.id),
            ));
            step_failure(replica, idx, cfg, report, events, false);
        }
    }
}

/// Process-global "a child changed state" flag, raised by the SIGCHLD
/// handler so the supervision loop reaps promptly rather than only on
/// its poll tick.
#[cfg(unix)]
fn install_sigchld_flag() -> &'static AtomicBool {
    static CHILD_EVENT: AtomicBool = AtomicBool::new(false);
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    const SIGCHLD: i32 = 17;
    extern "C" fn on_sigchld(_sig: i32) {
        CHILD_EVENT.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    if !INSTALLED.swap(true, Ordering::Relaxed) {
        // SAFETY: registering an async-signal-safe handler (one relaxed
        // atomic store), same idiom as the CLI's shutdown handler.
        unsafe {
            signal(SIGCHLD, on_sigchld);
        }
    }
    &CHILD_EVENT
}

#[cfg(not(unix))]
fn install_sigchld_flag() -> &'static AtomicBool {
    static CHILD_EVENT: AtomicBool = AtomicBool::new(false);
    &CHILD_EVENT
}

/// Ask a child to exit gracefully (straight to the point on non-Unix:
/// the portable `Child::kill` below still reaps it).
#[cfg(unix)]
fn send_sigterm(pid: u32) {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: signalling a pid we spawned and have not yet reaped.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

#[cfg(not(unix))]
fn send_sigterm(_pid: u32) {}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn fast_cfg() -> SuperviseConfig {
        SuperviseConfig {
            restart_limit: 2,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
            probe_interval: Duration::from_millis(30),
            probe_failures: 2,
            probe_timeout: Duration::from_millis(50),
            startup_grace: Duration::from_millis(50),
            shutdown_grace: Duration::from_millis(500),
            poll_interval: Duration::from_millis(5),
            reload_check_interval: Duration::from_millis(30),
            reload_timeout: Duration::from_millis(500),
            seed: 7,
        }
    }

    fn sh(id: &str, addr: &str, script: &str) -> ReplicaSpec {
        ReplicaSpec {
            id: id.to_string(),
            addr: addr.to_string(),
            argv: vec!["/bin/sh".to_string(), "-c".to_string(), script.to_string()],
            checkpoint: None,
            group: 0,
        }
    }

    fn run_until_done(
        specs: Vec<ReplicaSpec>,
        cfg: SuperviseConfig,
        stop_when: impl Fn(&[Diagnostic]) -> bool,
    ) -> (SupervisorReport, Vec<Diagnostic>) {
        let shutdown = AtomicBool::new(false);
        let events = Mutex::new(Vec::<Diagnostic>::new());
        let report = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut sink = |d: Diagnostic| events.lock().unwrap().push(d);
                supervise(&specs, &cfg, &shutdown, &mut sink)
            });
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline {
                if handle.is_finished() || stop_when(&events.lock().unwrap()) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            shutdown.store(true, Ordering::Relaxed);
            handle
                .join()
                .expect("supervisor thread")
                .expect("supervise")
        });
        (report, events.into_inner().unwrap())
    }

    #[test]
    fn crash_looping_replica_is_quarantined_within_budget() {
        let (report, events) = run_until_done(
            vec![sh("looper", "127.0.0.1:1", "exit 1")],
            fast_cfg(),
            |_| false, // supervise returns on its own once all are quarantined
        );
        // Budget of 2: initial spawn + 2 respawns, then quarantine.
        assert_eq!(report.spawns, 3, "{report:?}");
        assert_eq!(report.restarts, 2);
        assert_eq!(report.quarantined, 1);
        assert!(
            events.iter().any(|d| d.code == wire::CODE_CRASH_LOOP),
            "no crash_loop diagnostic in {events:?}"
        );
    }

    #[test]
    fn shutdown_terminates_long_running_children() {
        let start = Instant::now();
        let (report, _) = run_until_done(
            vec![sh("sleeper", "127.0.0.1:1", "exec sleep 30")],
            SuperviseConfig {
                // No probes: the child is not a server, and this test is
                // about shutdown, not health.
                startup_grace: Duration::from_secs(60),
                ..fast_cfg()
            },
            |events| !events.is_empty(), // stop right after the spawn event
        );
        assert_eq!(report.spawns, 1);
        assert_eq!(report.quarantined, 0);
        // SIGTERM + reap must beat the 30 s sleep by a wide margin.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn corrupt_checkpoint_quarantines_while_the_twin_keeps_running() {
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("bpmf-sup-bad-ckpt-{}.json", std::process::id()));
        // A plausible envelope whose checksum cannot match its payload.
        std::fs::write(&bad, "%BPMFCKPT crc32c=deadbeef len=2\n{}").unwrap();
        let mut corrupt_spec = sh("corrupt", "127.0.0.1:1", "exit 0");
        corrupt_spec.checkpoint = Some(bad.clone());
        let twin = sh("twin", "127.0.0.1:1", "exec sleep 30");
        let (report, events) = run_until_done(
            vec![corrupt_spec, twin],
            SuperviseConfig {
                startup_grace: Duration::from_secs(60),
                ..fast_cfg()
            },
            |events| events.iter().any(|d| d.code == wire::CODE_CORRUPT_ARTIFACT),
        );
        // The corrupt replica never spawned; the twin did and kept going.
        assert_eq!(report.quarantined, 1, "{report:?}");
        assert_eq!(report.spawns, 1);
        let quarantine = events
            .iter()
            .find(|d| d.code == wire::CODE_CORRUPT_ARTIFACT)
            .expect("corrupt_artifact diagnostic");
        assert!(quarantine.detail.contains("corrupt"), "{quarantine:?}");
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn failed_health_probes_trigger_budget_charged_restarts() {
        // The child never listens on its advertised address, so every
        // probe misses; after probe_failures misses it is killed and
        // restarted, and with no healthy probe ever, that converges to
        // quarantine.
        let cfg = SuperviseConfig {
            startup_grace: Duration::from_millis(20),
            ..fast_cfg()
        };
        let (report, events) = run_until_done(
            vec![sh("deaf", "127.0.0.1:1", "exec sleep 30")],
            cfg,
            |_| false,
        );
        assert!(report.probe_restarts >= 1, "{report:?}");
        assert_eq!(report.quarantined, 1);
        assert!(
            events.iter().any(|d| d.detail.contains("health probes")),
            "{events:?}"
        );
    }

    /// A minimal checkpoint that passes every integrity and shape check.
    fn write_tiny_checkpoint(path: &std::path::Path, iter: usize) {
        use crate::checkpoint::{write_checkpoint_sync, FlatMat, RngState, SamplerCheckpoint};
        use bpmf_linalg::Mat;
        let ckpt = SamplerCheckpoint {
            num_latent: 2,
            iter,
            acc_count: 0,
            users: FlatMat::from_mat(&Mat::identity(2)),
            movies: FlatMat::from_mat(&Mat::identity(2)),
            users_mu: vec![0.0; 2],
            users_lambda: FlatMat::from_mat(&Mat::identity(2)),
            movies_mu: vec![0.0; 2],
            movies_lambda: FlatMat::from_mat(&Mat::identity(2)),
            hyper_rng: RngState {
                words: [1, 2, 3, 4],
                spare_normal: None,
            },
            worker_rngs: vec![],
            predict_acc: vec![],
            predict_sq_acc: vec![],
            factor_acc: None,
            factor_sq_acc: None,
            user_link: None,
            movie_link: None,
            shard: None,
        };
        write_checkpoint_sync(path, &ckpt).unwrap();
    }

    /// A stand-in daemon: answers every protocol line (probe pings and
    /// reload pushes alike) with a success reply carrying a model epoch.
    fn answering_listener() -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            for _ in 0..256 {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut line = String::new();
                while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    if stream
                        .write_all(b"{\"v\":1,\"id\":0,\"model_epoch\":7}\n")
                        .is_err()
                    {
                        break;
                    }
                    line.clear();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn changed_checkpoints_roll_reloads_one_replica_per_group_at_a_time() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let ckpt_a = dir.join(format!("bpmf-sup-roll-a-{pid}.json"));
        let ckpt_b = dir.join(format!("bpmf-sup-roll-b-{pid}.json"));
        write_tiny_checkpoint(&ckpt_a, 0);
        write_tiny_checkpoint(&ckpt_b, 0);
        let (addr_a, srv_a) = answering_listener();
        let (addr_b, srv_b) = answering_listener();
        // Twins of one range: the rolling pass must push their reloads
        // on separate check intervals, never in the same pass.
        let mut rep_a = sh("g0-a", &addr_a, "exec sleep 30");
        rep_a.checkpoint = Some(ckpt_a.clone());
        let mut rep_b = sh("g0-b", &addr_b, "exec sleep 30");
        rep_b.checkpoint = Some(ckpt_b.clone());
        let cfg = SuperviseConfig {
            startup_grace: Duration::from_millis(20),
            ..fast_cfg()
        };
        // Publish fresher checkpoints before the fleet even boots: the
        // spawn pre-check stamps what it loads, so only a *subsequent*
        // change may trigger a reload. Rewrite after the first spawn
        // events instead — run_until_done's stop_when gives us the hook.
        let published = std::sync::atomic::AtomicBool::new(false);
        let (report, events) = run_until_done(vec![rep_a, rep_b], cfg, |events| {
            let spawned = events
                .iter()
                .filter(|d| d.detail.contains("spawned"))
                .count();
            if spawned >= 2 && !published.swap(true, Ordering::Relaxed) {
                // Both replicas are up on epoch 0: drop new files.
                write_tiny_checkpoint(&ckpt_a, 100);
                write_tiny_checkpoint(&ckpt_b, 100);
            }
            events
                .iter()
                .filter(|d| d.code == wire::CODE_MODEL_RELOAD && d.severity == wire::SEV_INFO)
                .count()
                >= 2
        });
        assert_eq!(report.reloads, 2, "{report:?}\n{events:?}");
        assert_eq!(report.quarantined, 0);
        let reloaded: Vec<&Diagnostic> = events
            .iter()
            .filter(|d| d.code == wire::CODE_MODEL_RELOAD)
            .collect();
        assert!(reloaded.iter().all(|d| d.severity == wire::SEV_INFO));
        assert!(reloaded.iter().any(|d| d.detail.contains("g0-a")));
        assert!(reloaded.iter().any(|d| d.detail.contains("g0-b")));
        assert!(
            reloaded.iter().all(|d| d.detail.contains("model epoch 7")),
            "push replies carry the daemon's epoch: {reloaded:?}"
        );
        let _ = std::fs::remove_file(&ckpt_a);
        let _ = std::fs::remove_file(&ckpt_b);
        drop((srv_a, srv_b));
    }

    #[test]
    fn corrupt_checkpoint_drop_is_never_pushed() {
        let dir = std::env::temp_dir();
        let ckpt = dir.join(format!("bpmf-sup-badroll-{}.json", std::process::id()));
        write_tiny_checkpoint(&ckpt, 0);
        let (addr, srv) = answering_listener();
        let mut rep = sh("victim", &addr, "exec sleep 30");
        rep.checkpoint = Some(ckpt.clone());
        let cfg = SuperviseConfig {
            startup_grace: Duration::from_millis(20),
            ..fast_cfg()
        };
        let published = std::sync::atomic::AtomicBool::new(false);
        let (report, events) = run_until_done(vec![rep], cfg, |events| {
            if events.iter().any(|d| d.detail.contains("spawned"))
                && !published.swap(true, Ordering::Relaxed)
            {
                // A torn write lands: plausible envelope, wrong CRC.
                std::fs::write(&ckpt, "%BPMFCKPT crc32c=deadbeef len=2\n{}").unwrap();
            }
            events.iter().any(|d| {
                d.code == wire::CODE_CORRUPT_ARTIFACT && d.detail.contains("refusing to push")
            })
        });
        // Warned, did not push, did not quarantine the healthy replica.
        assert_eq!(report.reloads, 0, "{report:?}\n{events:?}");
        assert_eq!(report.quarantined, 0);
        assert!(!events.iter().any(|d| d.code == wire::CODE_MODEL_RELOAD));
        let _ = std::fs::remove_file(&ckpt);
        drop(srv);
    }

    #[test]
    fn healthy_replica_is_left_alone_and_budget_refunds() {
        // A real listener answering ping lines stands in for a daemon.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            // Enough accepts for several probes; the test shuts down first.
            for _ in 0..64 {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).is_ok() {
                    let mut stream = stream;
                    let _ = stream.write_all(b"{\"v\":1,\"code\":null}\n");
                }
            }
        });
        let cfg = SuperviseConfig {
            startup_grace: Duration::from_millis(10),
            ..fast_cfg()
        };
        let t0 = Instant::now();
        let (report, _) = run_until_done(
            vec![sh("healthy", &addr, "exec sleep 30")],
            cfg,
            // Observe a dozen probe intervals, then stop.
            |_| t0.elapsed() > Duration::from_millis(400),
        );
        assert_eq!(report.probe_restarts, 0, "{report:?}");
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.spawns, 1);
        drop(serve);
    }
}
