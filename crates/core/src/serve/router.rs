//! The scatter-gather router: one TCP front-end over a fleet of shard
//! daemons organised into **replica groups**, speaking the same [`wire`]
//! protocol on both sides.
//!
//! Clients talk to [`serve`] exactly as they would to a single
//! [`crate::serve::daemon`] — same newline-JSON requests, same replies —
//! so the PR-5 client works unchanged against a sharded deployment. The
//! catalogue is split into shard *ranges*; each range is served by one or
//! more interchangeable *replicas* (daemons resuming the same
//! checkpoint). For every recommend request the router:
//!
//! 1. **admits** it against a bounded in-flight budget
//!    ([`RouterConfig::inflight_cap`]; over budget →
//!    [`wire::CODE_OVERLOADED`], nothing scattered),
//! 2. **scatters** one copy per range to the least-loaded live replica of
//!    that range (deterministic tie-break: lowest replica index) over
//!    persistent, pipelined connections — the whole fan-out leaves in one
//!    buffered flush per link, not one write syscall per request,
//! 3. **gathers** the per-range top-N replies and k-way-merges them
//!    ([`merge_top_n`]) into the global top-N — bit-identical to the
//!    single-process daemon because shard boundaries are GEMM-aligned and
//!    Thompson draws key on global item ids (see [`crate::serve::shard`]).
//!
//! # Failover
//!
//! Scoring is a pure, deterministic read, so a request may be re-executed
//! on any replica of the same range without changing a byte of the
//! answer. When a replica link dies mid-flight (or a reply times out),
//! the router therefore **retries** the affected requests on a surviving
//! replica of the same range — transparently, under a bounded per-request
//! budget ([`RouterConfig::retry_budget`]) — and a client only ever sees
//! a typed [`wire::CODE_PARTIAL_RESULT`] when *every* replica of a range
//! is down. A replica whose checkpoint epoch diverges from its group's is
//! refused outright (quarantined, [`wire::CODE_EPOCH_MISMATCH`]): a
//! failover that silently straddled two posteriors would break
//! bit-identity, the tier's headline guarantee.
//!
//! Failure stays *typed*, never a hang: a range with no live replica at
//! scatter time fails with [`wire::CODE_PARTIAL_RESULT`]; a reply that
//! never arrives and exhausts its retries is reaped by the timeout sweep
//! as [`wire::CODE_TIMEOUT`]. Dead links reconnect with exponential
//! backoff. `health`/`stats` are answered by probing every replica and
//! nesting their reports under the router's own, with fleet findings
//! (dead ranges → [`wire::SEV_ERROR`]/[`wire::CODE_SHARD_DOWN`], lost
//! redundancy → [`wire::SEV_WARNING`]/[`wire::CODE_REPLICA_DOWN`],
//! quarantined or mixed epochs → [`wire::CODE_EPOCH_MISMATCH`]) as
//! structured [`wire::Diagnostic`]s, plus live failover/retry counters.
//!
//! A seeded [`FaultPlan`] ([`RouterConfig::faults`]) can script
//! delay/drop/link-kill faults at exact request ordinals, which is how
//! the failover paths are tested without wall-clock races.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::serve::faults::{FaultKind, FaultPlan};
use crate::serve::net::{self, ReadEnd};
use crate::serve::shard::merge_top_n;
use crate::serve::wire;

/// Router knobs. `Default`: 256 requests in flight, 5 s shard patience,
/// 2 retries per request, 50 ms–2 s reconnect backoff, top-10 lists, no
/// fault injection.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Admission-control budget: recommend requests allowed in flight at
    /// once across all client connections. Over budget replies
    /// [`wire::CODE_OVERLOADED`] immediately.
    pub inflight_cap: usize,
    /// How long to wait for every range's reply before the timeout sweep
    /// retries (budget permitting) or reaps the request as
    /// [`wire::CODE_TIMEOUT`].
    pub request_timeout: Duration,
    /// Re-scatters a single request may spend across all causes (replica
    /// death, drained replica, timeout) before failing typed. 0 disables
    /// failover entirely.
    pub retry_budget: u32,
    /// First retry delay after a shard connection fails.
    pub reconnect_base: Duration,
    /// Backoff ceiling for shard reconnection attempts.
    pub reconnect_max: Duration,
    /// List length for requests that don't give one. The router resolves
    /// this *before* scattering so every shard answers with the same N
    /// and the merge width is pinned.
    pub default_top_n: usize,
    /// Scripted fault injection (`None` in production: the release path
    /// pays one `Option` check per request). See [`crate::serve::faults`].
    pub faults: Option<FaultPlan>,
    /// Seed for reconnect-backoff jitter. Each link mixes its own group
    /// and replica indices in, so after a fleet-wide event the links
    /// desynchronize instead of reconnecting in lockstep (see
    /// [`net::jittered_backoff`]).
    pub jitter_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            inflight_cap: 256,
            request_timeout: Duration::from_secs(5),
            retry_budget: 2,
            reconnect_base: Duration::from_millis(50),
            reconnect_max: Duration::from_secs(2),
            default_top_n: 10,
            faults: None,
            jitter_seed: 0,
        }
    }
}

/// What the router did over its lifetime, returned by [`serve`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Requests answered with a merged ranking.
    pub requests: u64,
    /// Lines answered with a typed error (malformed, validation, shard
    /// failure, timeout, overload).
    pub rejected: u64,
    /// Requests refused by admission control (subset of `rejected`).
    pub overload_rejected: u64,
    /// Requests failed because a whole range was down at scatter time or
    /// lost its last replica mid-flight (subset of `rejected`).
    pub shard_failures: u64,
    /// Successful shard reconnections after a drop or failed attempt.
    pub reconnects: u64,
    /// Requests moved off a dead or draining replica onto a surviving
    /// twin (each was at risk of failing; none did).
    pub failovers: u64,
    /// Scatter lines re-sent to a replica, for any reason (failovers plus
    /// timeout-triggered re-scatters).
    pub retries: u64,
    /// Replica connections refused because their checkpoint epoch
    /// diverged from their group's.
    pub epoch_refusals: u64,
    /// Scripted faults fired by [`RouterConfig::faults`].
    pub faults_injected: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    overload_rejected: AtomicU64,
    shard_failures: AtomicU64,
    reconnects: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    epoch_refusals: AtomicU64,
    faults_injected: AtomicU64,
}

/// One request scattered and awaiting its gather.
struct Pending {
    /// The client's correlation id, echoed in the merged reply.
    client_id: u64,
    user: u32,
    top_n: usize,
    /// The way home: the owning client connection's writer channel.
    reply: mpsc::Sender<wire::Response>,
    /// The forwarded request line (router-assigned id, newline-terminated)
    /// — re-sent verbatim on failover, which is sound because scoring is a
    /// deterministic read: any replica of the range returns the same
    /// bytes, and a duplicated execution is merely wasted work.
    line: String,
    /// Per-range top-N lists, filled as replies arrive.
    parts: Vec<Option<Vec<wire::RankedItem>>>,
    /// Which replica of each range currently owes `parts[g]` (the one
    /// charged on that replica's load gauge).
    assigned: Vec<usize>,
    /// Ranges still owing a reply.
    remaining: usize,
    /// Past this instant the timeout sweep retries or reaps the request.
    deadline: Instant,
    /// Re-scatters this request may still spend.
    retries_left: u32,
}

/// One replica link: where it lives, whether it is usable, and how much
/// work it currently owes.
struct Replica {
    addr: String,
    /// `Some` while connected; taken (and thereby closing the writer)
    /// when the link drops. Scatter sends fail cleanly either way.
    tx: Mutex<Option<mpsc::Sender<String>>>,
    up: AtomicBool,
    /// Refused for serving a checkpoint epoch that diverges from the
    /// group's; never routed to while set.
    quarantined: AtomicBool,
    /// Requests currently assigned to this replica — the least-loaded
    /// selection key.
    load: AtomicUsize,
    /// Last epoch this replica reported, for diagnostics.
    epoch_seen: Mutex<Option<u64>>,
    /// A handle on the live socket so fault injection can sever the link
    /// deterministically.
    kill: Mutex<Option<TcpStream>>,
}

/// The replicas serving one shard range, plus the epoch the group is
/// pinned to.
struct Group {
    replicas: Vec<Replica>,
    /// Pinned by the first admitted replica; later replicas must match or
    /// are quarantined. Reset when the whole group is down, so a fleet
    /// coherently restarted at a new epoch re-pins instead of being
    /// locked out forever.
    epoch: Mutex<Option<u64>>,
}

/// Everything the router's threads share.
struct Router<'a> {
    cfg: RouterConfig,
    groups: Vec<Group>,
    counters: Counters,
    /// Admission gauge: recommend requests currently in flight.
    inflight: AtomicUsize,
    /// Router-assigned scatter ids (clients' own ids may collide across
    /// connections; these cannot).
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, Pending>>,
    shutdown: &'a AtomicBool,
}

/// Pure replica-selection core, exposed for property tests: given each
/// replica's `(healthy, load)`, pick the healthy replica with the least
/// load, ties broken to the lowest index. Total and deterministic: the
/// same states always select the same replica.
pub fn select_replica(states: &[(bool, usize)]) -> Option<usize> {
    states
        .iter()
        .enumerate()
        .filter(|(_, &(healthy, _))| healthy)
        .min_by_key(|&(r, &(_, load))| (load, r))
        .map(|(r, _)| r)
}

/// Pick the live replica of `group` to route to, excluding `exclude`
/// (the one that just failed), via [`select_replica`].
fn pick_replica(group: &Group, exclude: Option<usize>) -> Option<usize> {
    let states: Vec<(bool, usize)> = group
        .replicas
        .iter()
        .enumerate()
        .map(|(r, rep)| {
            let healthy = Some(r) != exclude
                && rep.up.load(Ordering::Relaxed)
                && !rep.quarantined.load(Ordering::Relaxed);
            (healthy, rep.load.load(Ordering::Relaxed))
        })
        .collect();
    select_replica(&states)
}

/// Run the router on `listener`, scattering to the shard fleet described
/// by `groups` — one entry per shard range, each listing the addresses of
/// that range's interchangeable replicas — until shutdown. Returns after
/// draining in-flight requests.
///
/// The listener may be bound to port 0; read the real address off
/// `listener.local_addr()` before calling. Replicas need not be up yet —
/// links connect (and reconnect) with backoff in the background — but
/// recommend requests are refused with a typed error until every range
/// has at least one live replica.
pub fn serve(
    listener: TcpListener,
    groups: &[Vec<String>],
    cfg: &RouterConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<RouterReport> {
    assert!(!groups.is_empty(), "router needs at least one shard range");
    assert!(
        groups.iter().all(|g| !g.is_empty()),
        "every shard range needs at least one replica address"
    );
    let router = Router {
        cfg: cfg.clone(),
        groups: groups
            .iter()
            .map(|addrs| Group {
                replicas: addrs
                    .iter()
                    .map(|addr| Replica {
                        addr: addr.clone(),
                        tx: Mutex::new(None),
                        up: AtomicBool::new(false),
                        quarantined: AtomicBool::new(false),
                        load: AtomicUsize::new(0),
                        epoch_seen: Mutex::new(None),
                        kill: Mutex::new(None),
                    })
                    .collect(),
                epoch: Mutex::new(None),
            })
            .collect(),
        counters: Counters::default(),
        inflight: AtomicUsize::new(0),
        next_id: AtomicU64::new(0),
        pending: Mutex::new(HashMap::new()),
        shutdown,
    };

    let router = &router;
    std::thread::scope(|s| {
        for g in 0..router.groups.len() {
            for r in 0..router.groups[g].replicas.len() {
                s.spawn(move || shard_link_loop(router, g, r));
            }
        }
        let mut last_sweep = Instant::now();
        net::accept_loop(
            &listener,
            shutdown,
            |stream| {
                router.counters.connections.fetch_add(1, Ordering::Relaxed);
                s.spawn(move || handle_client(router, stream));
            },
            // The request-timeout sweep rides the accept loop's tick.
            || {
                if last_sweep.elapsed() >= net::POLL {
                    sweep_timeouts(router);
                    last_sweep = Instant::now();
                }
            },
        )
    })?;

    // The scope join waited for every client connection to drain; anything
    // still pending lost its last replica and was already failed typed.
    Ok(RouterReport {
        connections: router.counters.connections.load(Ordering::Relaxed),
        requests: router.counters.requests.load(Ordering::Relaxed),
        rejected: router.counters.rejected.load(Ordering::Relaxed),
        overload_rejected: router.counters.overload_rejected.load(Ordering::Relaxed),
        shard_failures: router.counters.shard_failures.load(Ordering::Relaxed),
        reconnects: router.counters.reconnects.load(Ordering::Relaxed),
        failovers: router.counters.failovers.load(Ordering::Relaxed),
        retries: router.counters.retries.load(Ordering::Relaxed),
        epoch_refusals: router.counters.epoch_refusals.load(Ordering::Relaxed),
        faults_injected: router.counters.faults_injected.load(Ordering::Relaxed),
    })
}

// ---------------------------------------------------------------------------
// Replica links
// ---------------------------------------------------------------------------

/// How long a link connect or a health/stats probe waits for a replica
/// before declaring it unreachable.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Own one replica link for the router's lifetime: connect (with
/// exponential backoff), gate on epoch agreement, pump replies, and on
/// any drop move the requests the dead replica still owed onto a
/// surviving twin (or fail them typed).
fn shard_link_loop(router: &Router<'_>, g: usize, r: usize) {
    let slot = &router.groups[g].replicas[r];
    // Per-link jitter seed: a group-wide replica death must not make the
    // survivors' reconnect attempts land in lockstep.
    let link_seed = router.cfg.jitter_seed ^ ((g as u64) << 32) ^ (r as u64 + 1);
    let mut attempt = 0u32;
    let mut reconnecting = false;
    while !router.shutdown.load(Ordering::Relaxed) {
        match net::connect(&slot.addr, PROBE_TIMEOUT) {
            Ok(stream) => {
                if !epoch_admits(router, g, r) {
                    // Divergent checkpoint: serving through it would break
                    // bit-identity. Keep it out of rotation and re-probe at
                    // the backoff ceiling (an operator fix re-admits it).
                    drop(stream);
                    std::thread::sleep(router.cfg.reconnect_max);
                    continue;
                }
                if reconnecting {
                    router.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                reconnecting = true;
                attempt = 0;
                run_shard_link(router, g, r, stream);
                // Whatever was awaiting this replica will never arrive:
                // fail over to a surviving twin, or fail typed.
                fail_or_failover(router, g, r);
                maybe_unpin_epoch(router, g);
            }
            Err(_) => {
                slot.up.store(false, Ordering::Relaxed);
                reconnecting = true;
                maybe_unpin_epoch(router, g);
            }
        }
        if router.shutdown.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(net::jittered_backoff(
            attempt,
            router.cfg.reconnect_base,
            router.cfg.reconnect_max,
            link_seed,
        ));
        attempt = attempt.saturating_add(1);
    }
}

/// Probe the replica's checkpoint epoch and admit it only if it matches
/// the group's pinned epoch (pinning it when the group has none).
/// Unsharded daemons carry no epoch and are admitted as-is.
fn epoch_admits(router: &Router<'_>, g: usize, r: usize) -> bool {
    let slot = &router.groups[g].replicas[r];
    let epoch = probe_shard(&slot.addr, wire::CMD_HEALTH)
        .and_then(|resp| resp.health)
        .and_then(|h| h.shard.map(|spec| spec.epoch));
    *slot.epoch_seen.lock().unwrap() = epoch;
    let Some(epoch) = epoch else {
        slot.quarantined.store(false, Ordering::Relaxed);
        return true;
    };
    let mut pinned = router.groups[g].epoch.lock().unwrap();
    match *pinned {
        Some(e) if e != epoch => {
            slot.quarantined.store(true, Ordering::Relaxed);
            router
                .counters
                .epoch_refusals
                .fetch_add(1, Ordering::Relaxed);
            false
        }
        _ => {
            *pinned = Some(epoch);
            slot.quarantined.store(false, Ordering::Relaxed);
            true
        }
    }
}

/// When every replica of a group is unreachable, forget the pinned epoch:
/// whichever replica of the restarted fleet connects first re-pins it.
fn maybe_unpin_epoch(router: &Router<'_>, g: usize) {
    let group = &router.groups[g];
    if group.replicas.iter().all(|r| !r.up.load(Ordering::Relaxed)) {
        *group.epoch.lock().unwrap() = None;
    }
}

/// Drive one live replica connection until it drops or shutdown: scatter
/// buffers go out through the link's writer, and every reply line lands
/// in the pending table. An oversize reply line means a desynchronized
/// stream, so the link just drops.
fn run_shard_link(router: &Router<'_>, g: usize, r: usize, stream: TcpStream) {
    let slot = &router.groups[g].replicas[r];
    *slot.kill.lock().unwrap() = stream.try_clone().ok();
    let (tx, rx) = mpsc::channel::<String>();
    *slot.tx.lock().unwrap() = Some(tx.clone());
    slot.up.store(true, Ordering::Relaxed);
    net::serve_connection(
        stream,
        router.shutdown,
        (tx, rx),
        |line, _| {
            if let Ok(resp) = wire::decode_response(line) {
                gather(router, g, r, resp);
            }
            true
        },
        |_| {},
        |_, _| {
            // Dropping the slot's sender lets the writer exit; scatter
            // sends from here on fail cleanly.
            slot.up.store(false, Ordering::Relaxed);
            *slot.tx.lock().unwrap() = None;
            *slot.kill.lock().unwrap() = None;
        },
    );
}

/// Queue `buf` (one or more whole lines) on replica `(g, r)`'s link.
/// `false` when the link is gone.
fn send_to(router: &Router<'_>, g: usize, r: usize, buf: String) -> bool {
    let link = router.groups[g].replicas[r].tx.lock().unwrap();
    link.as_ref().is_some_and(|link| link.send(buf).is_ok())
}

/// Sever replica `(g, r)`'s live socket (fault injection): the reader
/// sees EOF, the link tears down, and the failover path runs for real.
fn kill_link(router: &Router<'_>, g: usize, r: usize) {
    if let Some(stream) = &*router.groups[g].replicas[r].kill.lock().unwrap() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Gather, failover, and failure paths
// ---------------------------------------------------------------------------

/// Land one replica reply: record the part, and when the last range
/// answers, merge and send the client's reply.
fn gather(router: &Router<'_>, g: usize, r: usize, resp: wire::Response) {
    let mut pending = router.pending.lock().unwrap();
    let Some(entry) = pending.get_mut(&resp.id) else {
        return; // already failed/timed out/answered — late reply, drop it
    };
    if let Some(err) = resp.error {
        let draining = resp.code.as_deref() == Some(wire::CODE_SHUTTING_DOWN);
        if draining {
            // The replica is draining: for this request it is as good as
            // dead, but its twins are not — fail over under budget.
            if entry.parts[g].is_some() || entry.assigned[g] != r {
                return; // stale refusal; the assigned replica will answer
            }
            if try_failover_entry(router, g, r, entry) {
                router.counters.failovers.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // A draining replica with no twin or budget left is a partial
        // result. Any other refusal (bad policy, user out of range, …) is
        // deterministic: every replica would answer the same, so the whole
        // request fails with the replica's own typed error. Later replies
        // from other ranges find no entry.
        let entry = pending.remove(&resp.id).unwrap();
        drop(pending);
        let code = if draining {
            wire::CODE_PARTIAL_RESULT
        } else {
            resp.code.as_deref().unwrap_or(wire::CODE_BAD_REQUEST)
        };
        fail_entry(router, &entry, err, code);
        return;
    }
    if entry.parts[g].is_none() {
        // Release the charge this entry holds for range g. A duplicated
        // reply (a stale replica answering after a timeout re-scatter)
        // carries identical bytes, so whichever lands first is the part.
        router.groups[g].replicas[entry.assigned[g]]
            .load
            .fetch_sub(1, Ordering::Relaxed);
        entry.parts[g] = Some(resp.items);
        entry.remaining -= 1;
    }
    if entry.remaining > 0 {
        return;
    }
    let entry = pending.remove(&resp.id).unwrap();
    drop(pending);
    finish_one(router);
    let lists: Vec<Vec<wire::RankedItem>> = entry.parts.into_iter().flatten().collect();
    let items = merge_top_n(&lists, entry.top_n);
    router.counters.requests.fetch_add(1, Ordering::Relaxed);
    let _ = entry.reply.send(wire::Response {
        v: wire::WIRE_VERSION,
        id: entry.client_id,
        user: entry.user,
        items,
        ..wire::Response::default()
    });
}

/// Move one pending entry's range-`g` assignment off `dead` onto a
/// surviving replica, spending one retry. Returns `false` when the budget
/// is spent or no twin is live (caller fails the entry typed). The
/// pending lock must be held.
fn try_failover_entry(router: &Router<'_>, g: usize, dead: usize, entry: &mut Pending) -> bool {
    if entry.retries_left == 0 {
        return false;
    }
    let Some(twin) = pick_replica(&router.groups[g], Some(dead)) else {
        return false;
    };
    entry.retries_left -= 1;
    let reps = &router.groups[g].replicas;
    reps[dead].load.fetch_sub(1, Ordering::Relaxed);
    reps[twin].load.fetch_add(1, Ordering::Relaxed);
    entry.assigned[g] = twin;
    router.counters.retries.fetch_add(1, Ordering::Relaxed);
    // A failed send means the twin died in the same instant; its own link
    // teardown (or the timeout sweep) moves the entry again or fails it.
    let _ = send_to(router, g, twin, entry.line.clone());
    true
}

/// The link to replica `(g, dead)` just dropped: every pending request it
/// still owed either fails over to a surviving twin or — when the budget
/// is spent or the whole range is down — fails with a typed
/// partial-result error.
fn fail_or_failover(router: &Router<'_>, g: usize, dead: usize) {
    let doomed: Vec<Pending> = {
        let mut pending = router.pending.lock().unwrap();
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, e)| e.parts[g].is_none() && e.assigned[g] == dead)
            .map(|(&id, _)| id)
            .collect();
        let mut doomed = Vec::new();
        for id in ids {
            let entry = pending.get_mut(&id).expect("id collected under lock");
            if try_failover_entry(router, g, dead, entry) {
                router.counters.failovers.fetch_add(1, Ordering::Relaxed);
            } else {
                doomed.push(pending.remove(&id).unwrap());
            }
        }
        doomed
    };
    let replicas = router.groups[g].replicas.len();
    for entry in doomed {
        let error = format!(
            "range {g}: replica at {} dropped before answering and no live \
             replica (of {replicas}) or retry budget remains",
            router.groups[g].replicas[dead].addr
        );
        fail_entry(router, &entry, error, wire::CODE_PARTIAL_RESULT);
    }
}

/// Reap or retry requests whose deadline passed without every range
/// answering: budget permitting, the unanswered ranges are re-scattered
/// (preferring a different replica — the original may have dropped the
/// reply) with a fresh deadline; otherwise the request fails typed.
fn sweep_timeouts(router: &Router<'_>) {
    let now = Instant::now();
    let expired: Vec<Pending> = {
        let mut pending = router.pending.lock().unwrap();
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, e)| e.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut doomed = Vec::new();
        for id in ids {
            let entry = pending.get_mut(&id).expect("id collected under lock");
            let unanswered: Vec<usize> = (0..entry.parts.len())
                .filter(|&g| entry.parts[g].is_none())
                .collect();
            let retryable = entry.retries_left > 0
                && unanswered
                    .iter()
                    .all(|&g| pick_replica(&router.groups[g], None).is_some());
            if retryable {
                entry.retries_left -= 1;
                for &g in &unanswered {
                    let old = entry.assigned[g];
                    let next = pick_replica(&router.groups[g], Some(old))
                        .or_else(|| pick_replica(&router.groups[g], None))
                        .expect("checked retryable above");
                    let reps = &router.groups[g].replicas;
                    reps[old].load.fetch_sub(1, Ordering::Relaxed);
                    reps[next].load.fetch_add(1, Ordering::Relaxed);
                    entry.assigned[g] = next;
                    router.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let _ = send_to(router, g, next, entry.line.clone());
                }
                entry.deadline = now + router.cfg.request_timeout;
            } else {
                doomed.push(pending.remove(&id).unwrap());
            }
        }
        doomed
    };
    for entry in expired {
        let error = format!(
            "timed out waiting for {} range reply/replies (retries exhausted)",
            entry.remaining
        );
        fail_entry(router, &entry, error, wire::CODE_TIMEOUT);
    }
}

/// Fail an entry already taken out of the pending table: release what it
/// holds and send the client a typed error. A partial result is a shard
/// failure.
fn fail_entry(router: &Router<'_>, entry: &Pending, error: impl Into<String>, code: &str) {
    release_unanswered(router, entry);
    finish_one(router);
    router.counters.rejected.fetch_add(1, Ordering::Relaxed);
    if code == wire::CODE_PARTIAL_RESULT {
        router
            .counters
            .shard_failures
            .fetch_add(1, Ordering::Relaxed);
    }
    let reply = wire::Response::failure(entry.client_id, entry.user, error).with_code(code);
    let _ = entry.reply.send(reply);
}

/// Release the load charges a finished (answered/failed/reaped) entry
/// still holds on its unanswered ranges' assigned replicas.
fn release_unanswered(router: &Router<'_>, entry: &Pending) {
    for (g, part) in entry.parts.iter().enumerate() {
        if part.is_none() {
            router.groups[g].replicas[entry.assigned[g]]
                .load
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One in-flight request finished (answered or failed): release its
/// admission slot.
fn finish_one(router: &Router<'_>) {
    router.inflight.fetch_sub(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

/// The per-connection scatter accumulator, keyed by replica `(g, r)`:
/// lines bound for each replica link, buffered while a read chunk's worth
/// of pipelined requests is processed and handed to each link in **one**
/// channel send (one write + flush on the wire) — one buffered flush per
/// fan-out, not one write syscall per request.
type ScatterBatch = HashMap<(usize, usize), String>;

/// Hand each link its accumulated batch. A send that fails means the
/// replica died between pick and flush: its requests fail over
/// immediately rather than waiting for the timeout sweep.
fn flush_batch(router: &Router<'_>, batch: &mut ScatterBatch) {
    for ((g, r), buf) in batch.drain() {
        if !send_to(router, g, r, buf) {
            fail_or_failover(router, g, r);
        }
    }
}

/// One client connection: every line is answered through
/// [`process_line`], and the recommend requests pipelined into one read
/// fan out in one flush per link. An oversize line gets one typed error
/// before the connection closes.
fn handle_client(router: &Router<'_>, stream: TcpStream) {
    let batch = RefCell::new(ScatterBatch::default());
    // The writer exits once every clone of the sender held by pending
    // entries is gone — i.e. after each outstanding scatter has been
    // answered, failed, or reaped by the timeout sweep. Never a silent
    // hang.
    net::serve_connection(
        stream,
        router.shutdown,
        mpsc::channel(),
        |line, tx| process_line(router, line, tx, &mut batch.borrow_mut()),
        |_| flush_batch(router, &mut batch.borrow_mut()),
        |end, tx| {
            if end == ReadEnd::Oversize {
                router.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(wire::Response::line_too_long());
            }
        },
    );
}

/// Answer one client line. Returns `false` when the connection should
/// close (shutdown command).
fn process_line(
    router: &Router<'_>,
    line: &str,
    tx: &mpsc::Sender<wire::Response>,
    batch: &mut ScatterBatch,
) -> bool {
    let send = |resp: wire::Response| {
        if resp.error.is_some() {
            router.counters.rejected.fetch_add(1, Ordering::Relaxed);
        }
        let _ = tx.send(resp);
    };
    let req = match wire::admit(line, wire::ROLE_ROUTER) {
        Ok(req) => req,
        Err(refusal) => {
            send(refusal);
            return true;
        }
    };
    match req.cmd.as_str() {
        wire::CMD_PING => send(wire::Response::ack(req.id)),
        wire::CMD_SHUTDOWN => {
            // Shuts down the *router*; the shard daemons are owned by
            // whoever launched them and keep serving.
            send(wire::Response::ack(req.id));
            router.shutdown.store(true, Ordering::Relaxed);
            return false;
        }
        wire::CMD_HEALTH => send(wire::Response::health(req.id, router_health(router))),
        wire::CMD_STATS => send(wire::Response::stats(req.id, router_stats(router))),
        "" | wire::CMD_RECOMMEND => scatter(router, &req, tx, batch),
        _ => send(wire::Response::unknown_cmd(&req)),
    }
    true
}

/// Admit, assign, and register one recommend request; the forwarded lines
/// land in `batch` for a per-fan-out flush. Every refusal is an immediate
/// typed reply; nothing is scattered unless every range has a live
/// replica and the budget has room.
fn scatter(
    router: &Router<'_>,
    req: &wire::Request,
    tx: &mpsc::Sender<wire::Response>,
    batch: &mut ScatterBatch,
) {
    let Some(user) = req.user else {
        router.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(wire::Response::failure(req.id, 0, "missing field `user`"));
        return;
    };
    // Scripted fault, claimed before admission so ordinals count every
    // recommend request the router sees.
    let fault = router.cfg.faults.as_ref().and_then(FaultPlan::next);
    if fault.is_some() {
        router
            .counters
            .faults_injected
            .fetch_add(1, Ordering::Relaxed);
    }
    if let Some(FaultKind::Delay(d)) = fault {
        std::thread::sleep(d);
    }
    // Admission control: claim a slot, give it back on refusal.
    if router.inflight.fetch_add(1, Ordering::Relaxed) >= router.cfg.inflight_cap {
        finish_one(router);
        router.counters.rejected.fetch_add(1, Ordering::Relaxed);
        router
            .counters
            .overload_rejected
            .fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(
            wire::Response::failure(
                req.id,
                user,
                format!(
                    "over capacity ({} requests in flight); retry later",
                    router.cfg.inflight_cap
                ),
            )
            .with_code(wire::CODE_OVERLOADED),
        );
        return;
    }
    // A complete ranking needs every range: refuse up front rather than
    // reply with silently-missing catalogue ranges. One live replica per
    // range suffices — that is the whole point of the groups.
    let top_n = if req.top_n == 0 {
        router.cfg.default_top_n
    } else {
        req.top_n
    };
    let rid = router.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let fwd = wire::Request {
        v: wire::WIRE_VERSION,
        id: rid,
        cmd: wire::CMD_RECOMMEND.to_string(),
        user: Some(user),
        top_n,
        policy: req.policy.clone(),
        exclude_seen: req.exclude_seen,
        ..wire::Request::default()
    };
    let line = wire::encode(&fwd) + "\n";
    // Pick a replica per range and register before queueing any send: a
    // fast replica may answer the instant its batch flushes.
    let mut picks = Vec::with_capacity(router.groups.len());
    for (g, group) in router.groups.iter().enumerate() {
        match pick_replica(group, None) {
            Some(r) => picks.push(r),
            None => {
                finish_one(router);
                router.counters.rejected.fetch_add(1, Ordering::Relaxed);
                router
                    .counters
                    .shard_failures
                    .fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(
                    wire::Response::failure(
                        req.id,
                        user,
                        format!(
                            "range {g}: all {} replica(s) down; cannot assemble a \
                             complete ranking",
                            group.replicas.len()
                        ),
                    )
                    .with_code(wire::CODE_PARTIAL_RESULT),
                );
                return;
            }
        }
    }
    for (g, &r) in picks.iter().enumerate() {
        router.groups[g].replicas[r]
            .load
            .fetch_add(1, Ordering::Relaxed);
    }
    router.pending.lock().unwrap().insert(
        rid,
        Pending {
            client_id: req.id,
            user,
            top_n,
            reply: tx.clone(),
            line: line.clone(),
            parts: vec![None; router.groups.len()],
            assigned: picks.clone(),
            remaining: router.groups.len(),
            deadline: Instant::now() + router.cfg.request_timeout,
            retries_left: router.cfg.retry_budget,
        },
    );
    for (g, &r) in picks.iter().enumerate() {
        // drop-reply fault: range 0's line is "lost on the wire" — the
        // timeout sweep must notice and re-scatter it.
        if g == 0 && fault == Some(FaultKind::DropReply) {
            continue;
        }
        batch.entry((g, r)).or_default().push_str(&line);
    }
    if matches!(
        fault,
        Some(FaultKind::CloseConnection | FaultKind::PanicWorker)
    ) {
        // Flush so this request is genuinely in flight on the doomed
        // link, then sever it: the mid-flight failover path runs for
        // real, at a deterministic request ordinal.
        flush_batch(router, batch);
        kill_link(router, 0, picks[0]);
    }
}

// ---------------------------------------------------------------------------
// Health and stats aggregation
// ---------------------------------------------------------------------------

/// One short-lived probe connection: send `cmd`, read one reply line.
/// Probes bypass the pipelined links so an admin query never competes
/// with (or is reordered against) recommend traffic, and every stage —
/// connect included — gives up after [`PROBE_TIMEOUT`], so an address
/// that swallows SYNs cannot stall a `health` reply or a link admission.
fn probe_shard(addr: &str, cmd: &str) -> Option<wire::Response> {
    net::round_trip(addr, &wire::Request::command(cmd), PROBE_TIMEOUT).ok()
}

/// Probe every replica's `health` and aggregate: nested per-replica
/// reports (group-major order), fleet diagnostics, and an overall status
/// (`ok` when everything answers clean, `degraded` when redundancy is
/// lost, a range is dark, a replica is quarantined or skewed, `down` when
/// no range can serve).
fn router_health(router: &Router<'_>) -> wire::HealthReport {
    let total_replicas: usize = router.groups.iter().map(|g| g.replicas.len()).sum();
    let mut shards = Vec::with_capacity(total_replicas);
    let mut diagnostics = Vec::new();
    let mut ranges_down = 0usize;
    let mut replicas_out = 0usize;
    for (g, group) in router.groups.iter().enumerate() {
        let mut live = 0usize;
        let mut group_model_epochs: Vec<u64> = Vec::with_capacity(group.replicas.len());
        for (r, rep) in group.replicas.iter().enumerate() {
            let quarantined = rep.quarantined.load(Ordering::Relaxed);
            match probe_shard(&rep.addr, wire::CMD_HEALTH).and_then(|x| x.health) {
                Some(report) if !quarantined => {
                    live += 1;
                    group_model_epochs.push(report.model_epoch);
                    shards.push(report);
                }
                Some(report) => {
                    // Reachable, but refused for a divergent checkpoint:
                    // out of rotation until it matches the group again.
                    replicas_out += 1;
                    let pinned = *group.epoch.lock().unwrap();
                    let seen = *rep.epoch_seen.lock().unwrap();
                    diagnostics.push(wire::Diagnostic::new(
                        wire::SEV_ERROR,
                        wire::CODE_EPOCH_MISMATCH,
                        format!(
                            "range {g} replica {r} at {} quarantined: serves epoch \
                             {seen:?} but the group is pinned at {pinned:?}",
                            rep.addr
                        ),
                    ));
                    shards.push(report);
                }
                None => {
                    replicas_out += 1;
                    diagnostics.push(wire::Diagnostic::new(
                        wire::SEV_WARNING,
                        wire::CODE_REPLICA_DOWN,
                        format!("range {g} replica {r} at {} is unreachable", rep.addr),
                    ));
                    shards.push(wire::HealthReport {
                        v: wire::WIRE_VERSION,
                        role: wire::ROLE_DAEMON.to_string(),
                        status: wire::STATUS_DOWN.to_string(),
                        ..wire::HealthReport::default()
                    });
                }
            }
        }
        if live == 0 {
            ranges_down += 1;
            diagnostics.push(wire::Diagnostic::new(
                wire::SEV_ERROR,
                wire::CODE_SHARD_DOWN,
                format!(
                    "range {g}: all {} replica(s) down; requests for this range fail",
                    group.replicas.len()
                ),
            ));
        }
        // Replicas of one range serving different *model* epochs is the
        // expected transient of a rolling reload (the supervisor swaps
        // one replica per group at a time): informational, not degraded.
        // The catalogue-layout epoch (`ShardSpec::epoch`) stays pinned
        // across reloads, so group admission is unaffected.
        group_model_epochs.sort_unstable();
        group_model_epochs.dedup();
        if group_model_epochs.len() > 1 {
            diagnostics.push(wire::Diagnostic::new(
                wire::SEV_INFO,
                wire::CODE_MODEL_RELOAD,
                format!(
                    "range {g}: replicas serve model epochs {group_model_epochs:?} \
                     (rolling reload in progress)"
                ),
            ));
        }
    }
    // Mixed training epochs across the fleet: every live replica must
    // serve factors from the same sampler iteration or rankings straddle
    // two posteriors. (Divergence *within* a group is already an error
    // diagnostic above; this catches skew *between* ranges.)
    let mut epochs: Vec<u64> = shards
        .iter()
        .filter_map(|h| h.shard.as_ref().map(|spec| spec.epoch))
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    if epochs.len() > 1 {
        diagnostics.push(wire::Diagnostic::new(
            wire::SEV_WARNING,
            wire::CODE_EPOCH_MISMATCH,
            format!(
                "shards serve factors from {} different epochs: {epochs:?}",
                epochs.len()
            ),
        ));
    }
    let degraded_child = shards.iter().any(|h| h.status != wire::STATUS_OK);
    // Informational findings (e.g. mid-rolling-reload model-epoch skew)
    // never degrade the aggregate status; anything warning-or-worse does.
    let notable = diagnostics.iter().any(|d| d.severity != wire::SEV_INFO);
    let status = if ranges_down == router.groups.len() {
        wire::STATUS_DOWN
    } else if ranges_down > 0 || replicas_out > 0 || degraded_child || notable {
        wire::STATUS_DEGRADED
    } else {
        wire::STATUS_OK
    };
    wire::HealthReport {
        v: wire::WIRE_VERSION,
        role: wire::ROLE_ROUTER.to_string(),
        status: status.to_string(),
        n_users: shards.iter().map(|h| h.n_users).max().unwrap_or(0),
        // The router serves the union of the slices: the catalogue ends
        // where the last range does.
        n_items: shards
            .iter()
            .filter_map(|h| h.shard.as_ref().map(|spec| spec.item_hi as u64))
            .max()
            .unwrap_or_else(|| shards.iter().map(|h| h.n_items).max().unwrap_or(0)),
        shard: None,
        // The fleet's newest served model; during a rolling reload the
        // per-group skew diagnostic above names the laggards.
        model_epoch: shards.iter().map(|h| h.model_epoch).max().unwrap_or(0),
        diagnostics,
        shards,
    }
}

/// Probe every replica's `stats` and nest the answers under the router's
/// own counter snapshot (unreachable replicas are simply absent; `health`
/// names them).
fn router_stats(router: &Router<'_>) -> wire::StatsReport {
    let shards: Vec<wire::StatsReport> = router
        .groups
        .iter()
        .flat_map(|g| &g.replicas)
        .filter_map(|rep| probe_shard(&rep.addr, wire::CMD_STATS).and_then(|r| r.stats))
        .collect();
    let replicas = router.groups.iter().map(|g| g.replicas.len() as u64).sum();
    let replicas_up = router
        .groups
        .iter()
        .flat_map(|g| &g.replicas)
        .filter(|rep| rep.up.load(Ordering::Relaxed) && !rep.quarantined.load(Ordering::Relaxed))
        .count() as u64;
    wire::StatsReport {
        v: wire::WIRE_VERSION,
        role: wire::ROLE_ROUTER.to_string(),
        connections: router.counters.connections.load(Ordering::Relaxed),
        requests: router.counters.requests.load(Ordering::Relaxed),
        rejected: router.counters.rejected.load(Ordering::Relaxed),
        inflight: router.inflight.load(Ordering::Relaxed) as u64,
        overload_rejected: router.counters.overload_rejected.load(Ordering::Relaxed),
        shard_failures: router.counters.shard_failures.load(Ordering::Relaxed),
        reconnects: router.counters.reconnects.load(Ordering::Relaxed),
        failovers: router.counters.failovers.load(Ordering::Relaxed),
        retries: router.counters.retries.load(Ordering::Relaxed),
        epoch_refusals: router.counters.epoch_refusals.load(Ordering::Relaxed),
        faults_injected: router.counters.faults_injected.load(Ordering::Relaxed),
        replicas,
        replicas_up,
        model_epoch: shards.iter().map(|s| s.model_epoch).max().unwrap_or(0),
        reloads: shards.iter().map(|s| s.reloads).sum(),
        fold_ins: shards.iter().map(|s| s.fold_ins).sum(),
        shards,
        ..wire::StatsReport::default()
    }
}
