//! Integration: the sharded serving tier end-to-end over real TCP.
//!
//! The tier's headline guarantee is *bit-identity*: a fleet of
//! `--shard i/N` daemons behind the scatter-gather router must answer
//! every request with exactly the bytes the single-process daemon
//! produces — same items, same score bits, every policy. The k-way merge
//! must agree with a brute-force argsort over the concatenated shard
//! lists (property-tested, ties included). Failure must always be typed:
//! a dead range yields `partial_result`, an exhausted admission budget
//! `overloaded`, a future protocol version `unsupported_version` — and
//! never a hang. `health`/`stats` aggregate per-replica reports under the
//! router's own, flagging dead ranges and mixed training epochs.
//!
//! With **replica groups** the guarantee strengthens: killing one replica
//! of a range mid-traffic must cause *zero* client-visible failures —
//! every affected request fails over to the surviving twin and the output
//! stays bit-identical — and `partial_result` surfaces only when every
//! replica of a range is down. Replica selection is a pure function
//! (property-tested deterministic) and the failover paths are driven
//! deterministically by scripted `FaultPlan`s instead of wall-clock
//! races.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bpmf::serve::coalesce::CoalesceConfig;
use bpmf::serve::daemon::{self, DaemonConfig, ServingModel};
use bpmf::serve::faults::FaultPlan;
use bpmf::serve::router::{self, RouterConfig, RouterReport};
use bpmf::serve::shard::{merge_top_n, shard_ranges, slice_train_columns, ShardSpec, ShardView};
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest};
use bpmf::PosteriorModel;
use bpmf_linalg::{Mat, GEMM_NC};
use bpmf_sparse::{Coo, Csr};
use bpmf_stats::{normal, Xoshiro256pp};
use proptest::prelude::*;

const N_USERS: usize = 32;
/// Four NC blocks with a ragged tail: enough to split 1–4 ways with every
/// shard non-empty, and to leave empty surplus shards at 6.
const N_ITEMS: usize = 3 * GEMM_NC + 50;
const K: usize = 4;

/// A synthetic fitted posterior (with genuine spread, so UCB/Thompson
/// have something to explore) plus a training matrix for exclude-seen.
fn world_fixture() -> (PosteriorModel, Csr) {
    let mut rng = Xoshiro256pp::seed_from_u64(29);
    let u = Mat::from_fn(N_USERS, K, |_, _| normal(&mut rng, 0.0, 0.4));
    let v = Mat::from_fn(N_ITEMS, K, |_, _| normal(&mut rng, 0.0, 0.4));
    let u2 = Mat::from_fn(N_USERS, K, |i, j| u[(i, j)] * u[(i, j)] + 0.05);
    let v2 = Mat::from_fn(N_ITEMS, K, |i, j| v[(i, j)] * v[(i, j)] + 0.05);
    let model = PosteriorModel::from_factors(u, v, Some((u2, v2)), 3.5, Some((0.5, 5.0)), 16);
    let mut coo = Coo::new(N_USERS, N_ITEMS);
    for user in 0..N_USERS {
        for s in 0..8 {
            coo.push(user, (user * 131 + s * 97) % N_ITEMS, 4.0);
        }
    }
    (model, Csr::from_coo_owned(coo))
}

const POLICIES: [(&str, RankPolicy); 3] = [
    ("mean", RankPolicy::Mean),
    ("ucb:0.5", RankPolicy::Ucb { beta: 0.5 }),
    ("thompson:9", RankPolicy::Thompson { seed: 9 }),
];

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn round_trip(addr: SocketAddr, req: &wire::Request) -> wire::Response {
    let (mut stream, mut reader) = connect(addr);
    writeln!(stream, "{}", wire::encode(req)).expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(!line.is_empty(), "server closed the connection");
    wire::decode_response(&line).expect("parseable reply")
}

/// Flip a shutdown flag when dropped, so a panicking test body still lets
/// the serving threads join instead of hanging the run.
struct StopOnDrop<'a>(&'a AtomicBool);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn shard_daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        coalesce: CoalesceConfig {
            batch_window: Duration::from_millis(2),
            ..CoalesceConfig::default()
        },
        ..DaemonConfig::default()
    }
}

/// Run `f` against a live replicated cluster: one replica group per entry
/// of `group_epochs`, each inner slice spawning one shard daemon per
/// replica (all replicas of a range serve the same NC-aligned slice,
/// each stamped with its own epoch so tests can manufacture divergence).
/// `f` gets the router's address, the per-group replica addresses, and
/// each replica's shutdown flag (so tests can kill one mid-run). An
/// optional per-(group, replica) `FaultPlan` scripts daemon-side chaos.
/// Returns the router's report after a drained shutdown.
fn with_replicated_cluster(
    group_epochs: &[&[u64]],
    cfg: RouterConfig,
    daemon_faults: &dyn Fn(usize, usize) -> Option<FaultPlan>,
    f: impl FnOnce(SocketAddr, &[Vec<SocketAddr>], &[Vec<AtomicBool>]),
) -> RouterReport {
    let num_ranges = group_epochs.len();
    let (model, train) = world_fixture();
    let model = std::sync::Arc::new(model);
    // One catalogue slice per *range*; replicas of a range share it.
    let range_specs: Vec<ShardSpec> = (0..num_ranges)
        .map(|g| ShardSpec::for_shard(g as u32, num_ranges as u32, N_ITEMS, 0))
        .collect();
    let views: Vec<std::sync::Arc<ShardView>> = range_specs
        .iter()
        .map(|s| {
            std::sync::Arc::new(ShardView::new(
                model.clone(),
                s.item_lo as usize,
                s.item_hi as usize,
            ))
        })
        .collect();
    let trains: Vec<Csr> = range_specs
        .iter()
        .map(|s| slice_train_columns(&train, s.item_lo as usize, s.item_hi as usize))
        .collect();
    let worlds: Vec<Vec<ServingModel<'_>>> = group_epochs
        .iter()
        .enumerate()
        .map(|(g, eps)| {
            eps.iter()
                .map(|&epoch| ServingModel {
                    model: bpmf::ModelHandle::new(views[g].clone(), epoch),
                    train: Some(&trains[g]),
                    n_users: N_USERS,
                    n_items: range_specs[g].width(),
                    shard: Some(ShardSpec {
                        epoch,
                        ..range_specs[g]
                    }),
                    reload: None,
                })
                .collect()
        })
        .collect();
    let listeners: Vec<Vec<TcpListener>> = group_epochs
        .iter()
        .map(|eps| {
            eps.iter()
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind shard"))
                .collect()
        })
        .collect();
    let shard_addrs: Vec<Vec<SocketAddr>> = listeners
        .iter()
        .map(|row| row.iter().map(|l| l.local_addr().unwrap()).collect())
        .collect();
    let groups: Vec<Vec<String>> = shard_addrs
        .iter()
        .map(|row| row.iter().map(|a| a.to_string()).collect())
        .collect();
    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = router_listener.local_addr().unwrap();
    let shard_stops: Vec<Vec<AtomicBool>> = group_epochs
        .iter()
        .map(|eps| eps.iter().map(|_| AtomicBool::new(false)).collect())
        .collect();
    let router_stop = AtomicBool::new(false);
    let daemon_cfgs: Vec<Vec<DaemonConfig>> = (0..num_ranges)
        .map(|g| {
            (0..group_epochs[g].len())
                .map(|r| DaemonConfig {
                    faults: daemon_faults(g, r),
                    ..shard_daemon_cfg()
                })
                .collect()
        })
        .collect();

    let mut report = None;
    std::thread::scope(|s| {
        let _guards: Vec<StopOnDrop<'_>> = shard_stops
            .iter()
            .flatten()
            .chain(std::iter::once(&router_stop))
            .map(StopOnDrop)
            .collect();
        for (g, listener_row) in listeners.into_iter().enumerate() {
            for (r, listener) in listener_row.into_iter().enumerate() {
                let (world, dcfg, stop) = (&worlds[g][r], &daemon_cfgs[g][r], &shard_stops[g][r]);
                s.spawn(move || daemon::serve(world, listener, dcfg, stop));
            }
        }
        let router_handle = {
            let (groups, cfg, router_stop) = (&groups, &cfg, &router_stop);
            s.spawn(move || router::serve(router_listener, groups, cfg, router_stop))
        };
        f(router_addr, &shard_addrs, &shard_stops);
        router_stop.store(true, Ordering::Relaxed);
        report = Some(
            router_handle
                .join()
                .expect("router thread")
                .expect("router io"),
        );
        for stop in shard_stops.iter().flatten() {
            stop.store(true, Ordering::Relaxed);
        }
    });
    report.unwrap()
}

/// The single-replica-per-range cluster the pre-replication tests were
/// written against: `epochs.len()` shard daemons behind one router.
fn with_cluster(
    epochs: &[u64],
    cfg: RouterConfig,
    f: impl FnOnce(SocketAddr, &[SocketAddr], &[&AtomicBool]),
) -> RouterReport {
    let groups: Vec<&[u64]> = epochs.iter().map(std::slice::from_ref).collect();
    with_replicated_cluster(&groups, cfg, &|_, _| None, |router, addrs, stops| {
        let flat_addrs: Vec<SocketAddr> = addrs.iter().map(|row| row[0]).collect();
        let flat_stops: Vec<&AtomicBool> = stops.iter().map(|row| &row[0]).collect();
        f(router, &flat_addrs, &flat_stops);
    })
}

/// Wait until the router has every shard link up (it refuses recommend
/// requests with a typed error until then).
fn wait_ready(router: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = round_trip(router, &wire::Request::recommend(0, 0));
        if resp.error.is_none() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "router never became ready: {:?}",
            resp.error
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------
// Offline: sharded scoring and the k-way merge
// ---------------------------------------------------------------------------

#[test]
fn sharded_scoring_merges_to_the_full_ranking_bit_for_bit() {
    let (model, train) = world_fixture();
    let top_n = 9;
    for (_, policy) in POLICIES {
        for user in [0u32, 7, 31] {
            for exclude_seen in [false, true] {
                let req = ServeRequest {
                    user,
                    top_n,
                    policy,
                    exclude_seen,
                };
                // Reference: the full catalogue through the same block-GEMM
                // path the daemon uses.
                let mut full = RecommendService::new(&model, N_ITEMS).exclude_seen(&train);
                let want = full.recommend_each(std::slice::from_ref(&req)).remove(0);
                // 6 shards leaves two empty surplus shards past the 4 NC
                // blocks; the merge must shrug them off.
                for num_shards in [1usize, 2, 3, 4, 6] {
                    let mut parts: Vec<Vec<wire::RankedItem>> = Vec::new();
                    for (lo, hi) in shard_ranges(N_ITEMS, num_shards) {
                        let view = ShardView::new(std::sync::Arc::new(model.clone()), lo, hi);
                        let local = slice_train_columns(&train, lo, hi);
                        let mut svc = RecommendService::new(&view, hi - lo)
                            .exclude_seen(&local)
                            .item_base(lo as u32);
                        parts.push(
                            svc.recommend_each(std::slice::from_ref(&req))
                                .remove(0)
                                .into_iter()
                                .map(wire::RankedItem::from)
                                .collect(),
                        );
                    }
                    let got = merge_top_n(&parts, top_n);
                    assert_eq!(got.len(), want.len(), "{num_shards} shards, {req:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.item, w.item, "{num_shards} shards, {req:?}");
                        assert_eq!(
                            g.score.to_bits(),
                            w.score.to_bits(),
                            "{num_shards} shards, {req:?}: {} vs {}",
                            g.score,
                            w.score
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The k-way merge against a brute-force argsort over the
    /// concatenated shard lists, under the serving order (score
    /// descending, ties to the ascending item id). Scores are drawn from
    /// a tiny set so ties are the norm, not the exception; items are
    /// unique across shards, as real shard replies are.
    #[test]
    fn merge_matches_brute_force_argsort(
        num_shards in 1usize..6,
        entries in proptest::collection::vec((0u32..400, 0u32..5), 0..90),
        n in 0usize..25,
    ) {
        let mut seen = std::collections::HashSet::new();
        let mut shards: Vec<Vec<wire::RankedItem>> = vec![Vec::new(); num_shards];
        for (item, score) in entries {
            if seen.insert(item) {
                shards[item as usize % num_shards].push(wire::RankedItem {
                    item,
                    score: score as f64 * 0.25,
                });
            }
        }
        for list in &mut shards {
            list.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
        }
        let got = merge_top_n(&shards, n);
        let mut all: Vec<wire::RankedItem> = shards.iter().flatten().copied().collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
        all.truncate(n);
        prop_assert_eq!(&got, &all);
        // Deterministic: merging the same input twice is identical.
        prop_assert_eq!(got, merge_top_n(&shards, n));
    }
}

// ---------------------------------------------------------------------------
// Over TCP: router vs single-process daemon
// ---------------------------------------------------------------------------

#[test]
fn router_replies_match_the_single_process_daemon_bit_for_bit() {
    // The single-process reference daemon over the whole catalogue.
    let (model, train) = world_fixture();
    let full_world = ServingModel {
        model: bpmf::ModelHandle::new(std::sync::Arc::new(model), 1),
        train: Some(&train),
        n_users: N_USERS,
        n_items: N_ITEMS,
        shard: None,
        reload: None,
    };
    let full_stop = AtomicBool::new(false);
    let full_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let full_addr = full_listener.local_addr().unwrap();
    let daemon_cfg = shard_daemon_cfg();
    std::thread::scope(|s| {
        let _guard = StopOnDrop(&full_stop);
        s.spawn(|| daemon::serve(&full_world, full_listener, &daemon_cfg, &full_stop));

        let report = with_cluster(&[5, 5, 5], RouterConfig::default(), |router, _, _| {
            wait_ready(router);
            // Probes sent before every shard link was up may have been
            // refused as partial results; only failures *after* readiness
            // would mean the healthy cluster dropped a request.
            let failures_at = |router| {
                round_trip(
                    router,
                    &wire::Request {
                        cmd: wire::CMD_STATS.to_string(),
                        ..wire::Request::default()
                    },
                )
                .stats
                .expect("stats payload")
                .shard_failures
            };
            let baseline = failures_at(router);
            let mut id = 0u64;
            for (name, _) in POLICIES {
                for user in [0u32, 3, 13, 31] {
                    for exclude_seen in [false, true] {
                        id += 1;
                        let req = wire::Request {
                            v: wire::WIRE_VERSION,
                            id,
                            cmd: wire::CMD_RECOMMEND.to_string(),
                            user: Some(user),
                            top_n: 7,
                            policy: name.to_string(),
                            exclude_seen: Some(exclude_seen),
                            ..wire::Request::default()
                        };
                        let want = round_trip(full_addr, &req);
                        let got = round_trip(router, &req);
                        assert_eq!(want.error, None, "reference daemon failed {req:?}");
                        assert_eq!(got.error, None, "router failed {req:?}");
                        assert_eq!(got.id, id);
                        assert_eq!(got.user, user);
                        assert_eq!(got.items.len(), want.items.len(), "{req:?}");
                        for (g, w) in got.items.iter().zip(&want.items) {
                            assert_eq!(g.item, w.item, "{req:?}");
                            assert_eq!(
                                g.score.to_bits(),
                                w.score.to_bits(),
                                "{req:?}: {} vs {}",
                                g.score,
                                w.score
                            );
                        }
                    }
                }
            }
            assert_eq!(failures_at(router), baseline, "healthy cluster");
        });
        assert!(report.requests >= 24, "router answered {}", report.requests);
    });
}

#[test]
fn killed_shard_yields_typed_partial_result_never_a_hang() {
    let report = with_cluster(&[1, 1], RouterConfig::default(), |router, _, stops| {
        wait_ready(router);
        // Kill shard 1: its daemon drains and exits, its listener closes,
        // and the router's link drops for good.
        stops[1].store(true, Ordering::Relaxed);
        // Every reply from here on is prompt and typed; within the
        // reconnect window the first few may still succeed (the shard
        // drains in-flight work before dying), but once the link is down
        // the router must refuse with `partial_result` — not items from
        // half a catalogue, and never a hang (read_timeout would panic).
        let deadline = Instant::now() + Duration::from_secs(10);
        let failure = loop {
            let resp = round_trip(router, &wire::Request::recommend(4, 4));
            if resp.error.is_some() {
                break resp;
            }
            assert!(
                Instant::now() < deadline,
                "router kept answering after its shard died"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(
            failure.code.as_deref(),
            Some(wire::CODE_PARTIAL_RESULT),
            "error: {:?}",
            failure.error
        );
        assert!(failure.items.is_empty(), "no silently-partial rankings");

        // Health names the dead shard: degraded overall, an `error`
        // severity `shard_down` diagnostic, and a `down` stub nested at
        // the dead shard's slot.
        let health = round_trip(
            router,
            &wire::Request {
                cmd: wire::CMD_HEALTH.to_string(),
                ..wire::Request::default()
            },
        )
        .health
        .expect("health payload");
        assert_eq!(health.role, wire::ROLE_ROUTER);
        assert_eq!(health.status, wire::STATUS_DEGRADED);
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.shards[0].status, wire::STATUS_OK);
        assert_eq!(health.shards[1].status, wire::STATUS_DOWN);
        assert!(health
            .diagnostics
            .iter()
            .any(|d| d.code == wire::CODE_SHARD_DOWN && d.severity == wire::SEV_ERROR));
    });
    assert!(report.shard_failures >= 1);
}

#[test]
fn admission_control_refuses_over_budget_requests_with_a_typed_reply() {
    // A zero budget turns every recommend into an immediate, typed
    // overload refusal — the deterministic way to pin the admission path.
    let cfg = RouterConfig {
        inflight_cap: 0,
        ..RouterConfig::default()
    };
    let report = with_cluster(&[3, 3], cfg, |router, _, _| {
        let resp = round_trip(router, &wire::Request::recommend(1, 1));
        assert_eq!(resp.code.as_deref(), Some(wire::CODE_OVERLOADED));
        assert!(resp.error.as_deref().unwrap().contains("capacity"));
        // Pings bypass admission: the router is overloaded, not dead.
        let pong = round_trip(
            router,
            &wire::Request {
                id: 8,
                cmd: wire::CMD_PING.to_string(),
                ..wire::Request::default()
            },
        );
        assert_eq!(pong.error, None);
    });
    assert!(report.overload_rejected >= 1);
}

#[test]
fn future_protocol_versions_are_refused_typed_by_router_and_daemon() {
    with_cluster(&[2], RouterConfig::default(), |router, shards, _| {
        let req = wire::Request {
            v: wire::WIRE_VERSION + 98,
            ..wire::Request::recommend(6, 0)
        };
        for addr in [router, shards[0]] {
            let resp = round_trip(addr, &req);
            assert_eq!(
                resp.code.as_deref(),
                Some(wire::CODE_UNSUPPORTED_VERSION),
                "at {addr}"
            );
            assert!(resp.error.as_deref().unwrap().contains("version"));
            assert_eq!(resp.id, 6, "correlation id still echoed");
        }
        // A pre-versioning (v absent → 0) request still works once the
        // router has its shard links up (before that it refuses every
        // recommend request, whatever its version).
        wait_ready(router);
        let legacy = round_trip(router, &wire::Request::recommend(7, 2));
        assert_eq!(legacy.error, None);
    });
}

#[test]
fn health_and_stats_aggregate_across_shards_and_flag_epoch_skew() {
    // Same epoch everywhere: clean bill of health.
    with_cluster(&[7, 7], RouterConfig::default(), |router, _, _| {
        wait_ready(router);
        let health = round_trip(
            router,
            &wire::Request {
                cmd: wire::CMD_HEALTH.to_string(),
                ..wire::Request::default()
            },
        )
        .health
        .expect("health payload");
        assert_eq!(health.v, wire::WIRE_VERSION);
        assert_eq!(health.role, wire::ROLE_ROUTER);
        assert_eq!(health.status, wire::STATUS_OK);
        assert_eq!(health.n_users, N_USERS as u64);
        assert_eq!(health.n_items, N_ITEMS as u64, "union of the slices");
        assert!(health.diagnostics.is_empty());
        assert_eq!(health.shards.len(), 2);
        for (i, shard) in health.shards.iter().enumerate() {
            assert_eq!(shard.role, wire::ROLE_DAEMON);
            assert_eq!(shard.status, wire::STATUS_OK);
            let spec = shard.shard.expect("shard spec in nested report");
            assert_eq!(spec.shard_id, i as u32);
            assert_eq!(spec.epoch, 7);
            assert_eq!(shard.n_items, spec.width() as u64);
        }

        let stats = round_trip(
            router,
            &wire::Request {
                cmd: wire::CMD_STATS.to_string(),
                ..wire::Request::default()
            },
        )
        .stats
        .expect("stats payload");
        assert_eq!(stats.role, wire::ROLE_ROUTER);
        assert_eq!(stats.requests, 1, "the wait_ready probe");
        assert_eq!(stats.shards.len(), 2);
        for shard in &stats.shards {
            assert_eq!(shard.role, wire::ROLE_DAEMON);
            assert!(shard.connections >= 1, "the router's own link at least");
        }
    });

    // Mixed epochs: still serving, but health says degraded and names the
    // skew with a stable code.
    with_cluster(&[3, 9], RouterConfig::default(), |router, _, _| {
        wait_ready(router);
        let health = round_trip(
            router,
            &wire::Request {
                cmd: wire::CMD_HEALTH.to_string(),
                ..wire::Request::default()
            },
        )
        .health
        .expect("health payload");
        assert_eq!(health.status, wire::STATUS_DEGRADED);
        let skew = health
            .diagnostics
            .iter()
            .find(|d| d.code == wire::CODE_EPOCH_MISMATCH)
            .expect("epoch mismatch diagnostic");
        assert_eq!(skew.severity, wire::SEV_WARNING);
        assert!(skew.detail.contains('3') && skew.detail.contains('9'));
    });
}

// ---------------------------------------------------------------------------
// Replica groups: failover, retry budgets, scripted faults
// ---------------------------------------------------------------------------

fn stats_at(router: SocketAddr) -> wire::StatsReport {
    round_trip(
        router,
        &wire::Request {
            cmd: wire::CMD_STATS.to_string(),
            ..wire::Request::default()
        },
    )
    .stats
    .expect("stats payload")
}

fn health_at(router: SocketAddr) -> wire::HealthReport {
    round_trip(
        router,
        &wire::Request {
            cmd: wire::CMD_HEALTH.to_string(),
            ..wire::Request::default()
        },
    )
    .health
    .expect("health payload")
}

/// The kill-one-replica drill: 2 ranges x 2 replicas, a replica of range
/// 0 dies mid-pipeline, and every single client reply must still be
/// error-free and bit-identical to the offline full-catalogue reference.
/// This is the replication contract: one death is invisible.
#[test]
fn killed_replica_fails_over_with_zero_client_errors() {
    let (model, train) = world_fixture();
    let mut full = RecommendService::new(&model, N_ITEMS).exclude_seen(&train);

    let report = with_replicated_cluster(
        &[&[4, 4], &[4, 4]],
        RouterConfig::default(),
        &|_, _| None,
        |router, _, stops| {
            wait_ready(router);
            let baseline = stats_at(router).shard_failures;

            let (mut stream, mut reader) = connect(router);
            let total = 60usize;
            for i in 0..total {
                let req = wire::Request {
                    v: wire::WIRE_VERSION,
                    id: i as u64 + 1,
                    cmd: wire::CMD_RECOMMEND.to_string(),
                    user: Some((i % N_USERS) as u32),
                    top_n: 7,
                    policy: "ucb:0.5".to_string(),
                    exclude_seen: Some(true),
                    ..wire::Request::default()
                };
                writeln!(stream, "{}", wire::encode(&req)).expect("pipeline request");
                if i == 10 {
                    // Kill replica 1 of range 0 with a third of the
                    // pipeline still unanswered.
                    stops[0][1].store(true, Ordering::Relaxed);
                }
            }
            for _ in 0..total {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read reply");
                assert!(!line.is_empty(), "router closed mid-drill");
                let resp = wire::decode_response(&line).expect("parseable reply");
                assert_eq!(
                    resp.error, None,
                    "client-visible failure during single-replica death: {resp:?}"
                );
                let req = ServeRequest {
                    user: resp.user,
                    top_n: 7,
                    policy: RankPolicy::Ucb { beta: 0.5 },
                    exclude_seen: true,
                };
                let want = full.recommend_each(std::slice::from_ref(&req)).remove(0);
                assert_eq!(resp.items.len(), want.len(), "user {}", resp.user);
                for (g, w) in resp.items.iter().zip(&want) {
                    assert_eq!(g.item, w.item, "user {}", resp.user);
                    assert_eq!(
                        g.score.to_bits(),
                        w.score.to_bits(),
                        "user {}: {} vs {}",
                        resp.user,
                        g.score,
                        w.score
                    );
                }
            }
            // Failed-over requests are not failures: nothing was refused.
            assert_eq!(stats_at(router).shard_failures, baseline);
        },
    );
    assert!(
        report.requests >= 61,
        "router answered {} requests",
        report.requests
    );
}

/// When *every* replica of a range is gone the retry budget runs dry and
/// the refusal is typed `partial_result` — never a hang, never items from
/// half a catalogue. Health then reports the whole tier down (this was
/// its only range) with both `replica_down` and `shard_down` on record.
#[test]
fn all_replicas_down_exhausts_the_retry_budget_into_typed_partial_result() {
    let cfg = RouterConfig {
        request_timeout: Duration::from_millis(800),
        ..RouterConfig::default()
    };
    let report = with_replicated_cluster(&[&[2, 2]], cfg, &|_, _| None, |router, _, stops| {
        wait_ready(router);
        stops[0][0].store(true, Ordering::Relaxed);
        stops[0][1].store(true, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(15);
        let failure = loop {
            let resp = round_trip(router, &wire::Request::recommend(4, 4));
            if resp.error.is_some() {
                break resp;
            }
            assert!(
                Instant::now() < deadline,
                "router kept answering after every replica died"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(
            failure.code.as_deref(),
            Some(wire::CODE_PARTIAL_RESULT),
            "error: {:?}",
            failure.error
        );
        assert!(failure.items.is_empty());

        let health = health_at(router);
        assert_eq!(health.status, wire::STATUS_DOWN, "its only range is gone");
        assert!(health
            .diagnostics
            .iter()
            .any(|d| d.code == wire::CODE_SHARD_DOWN && d.severity == wire::SEV_ERROR));
        assert!(health
            .diagnostics
            .iter()
            .any(|d| d.code == wire::CODE_REPLICA_DOWN));
    });
    assert!(report.shard_failures >= 1);
}

/// A scripted daemon-side fault (`close@2%2`: sever the connection on
/// every second recommend) forces genuine mid-flight link deaths, and the
/// router must absorb every one of them by retrying on the clean twin —
/// zero client-visible errors, nonzero failover/retry/fault counters.
#[test]
fn scripted_link_kills_drive_transparent_failover() {
    let report = with_replicated_cluster(
        &[&[6, 6]],
        RouterConfig::default(),
        &|g, r| {
            // Only replica 0 misbehaves; its twin stays clean so every
            // severed request has somewhere to go.
            (g == 0 && r == 0).then(|| FaultPlan::parse("close@2%2").expect("valid plan"))
        },
        |router, _, _| {
            wait_ready(router);
            for i in 0..30u64 {
                let resp = round_trip(router, &wire::Request::recommend(100 + i, (i % 7) as u32));
                assert_eq!(resp.error, None, "request {i} leaked a fault to the client");
                assert!(!resp.items.is_empty());
            }
            let stats = stats_at(router);
            assert_eq!(stats.replicas, 2);
            assert!(stats.failovers >= 1, "stats: {stats:?}");
            assert!(stats.retries >= 1, "stats: {stats:?}");
            let daemon_faults: u64 = stats.shards.iter().map(|s| s.faults_injected).sum();
            assert!(daemon_faults >= 1, "the plan never fired");
        },
    );
    assert!(report.failovers >= 1);
    assert!(report.retries >= 1);
}

/// Router-side fault hooks are live and counted: a `delay` plan on every
/// request injects without ever surfacing to clients.
#[test]
fn router_fault_plan_injects_and_counts_without_client_impact() {
    let cfg = RouterConfig {
        faults: Some(FaultPlan::parse("delay:1@1%1").expect("valid plan")),
        ..RouterConfig::default()
    };
    let report = with_replicated_cluster(&[&[1]], cfg, &|_, _| None, |router, _, _| {
        wait_ready(router);
        for i in 0..5u64 {
            let resp = round_trip(router, &wire::Request::recommend(200 + i, 3));
            assert_eq!(resp.error, None);
        }
        let stats = stats_at(router);
        assert!(stats.faults_injected >= 6, "stats: {stats:?}");
    });
    assert!(report.faults_injected >= 6);
}

/// A replica whose checkpoint epoch diverges from its group is
/// quarantined, not served: requests keep flowing through the pinned
/// replica, health degrades with a typed `epoch_mismatch`, and the
/// refusal is counted.
#[test]
fn divergent_replica_epoch_is_quarantined_not_served() {
    with_replicated_cluster(
        &[&[3, 9]],
        RouterConfig::default(),
        &|_, _| None,
        |router, _, _| {
            wait_ready(router);
            let resp = round_trip(router, &wire::Request::recommend(1, 5));
            assert_eq!(resp.error, None, "the pinned replica still serves");

            // The divergent twin's refusal lands on the sweep schedule;
            // poll until it is on the books.
            let deadline = Instant::now() + Duration::from_secs(10);
            let stats = loop {
                let stats = stats_at(router);
                if stats.epoch_refusals >= 1 {
                    break stats;
                }
                assert!(Instant::now() < deadline, "divergent replica never refused");
                std::thread::sleep(Duration::from_millis(20));
            };
            assert_eq!(stats.replicas, 2);
            assert_eq!(
                stats.replicas_up, 1,
                "the divergent twin is out of rotation"
            );

            let health = health_at(router);
            assert_eq!(health.status, wire::STATUS_DEGRADED);
            assert!(health
                .diagnostics
                .iter()
                .any(|d| d.code == wire::CODE_EPOCH_MISMATCH && d.severity == wire::SEV_ERROR));
        },
    );
}

proptest! {
    /// Replica selection is a pure function: same health/load snapshot in,
    /// same pick out — least-loaded wins, ties break to the lowest index,
    /// and `None` exactly when nothing is healthy. This is what makes the
    /// failover drills reproducible under fixed seeds.
    #[test]
    fn replica_selection_is_deterministic_and_least_loaded(
        states in proptest::collection::vec((any::<bool>(), 0usize..100), 0..12),
    ) {
        let pick = router::select_replica(&states);
        prop_assert_eq!(pick, router::select_replica(&states), "must be deterministic");
        match pick {
            None => prop_assert!(states.iter().all(|&(healthy, _)| !healthy)),
            Some(r) => {
                prop_assert!(states[r].0);
                let best = states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.0)
                    .map(|(i, s)| (s.1, i))
                    .min()
                    .expect("some healthy replica");
                prop_assert_eq!((states[r].1, r), best);
            }
        }
    }
}
