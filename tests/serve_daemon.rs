//! Integration: the serving daemon end-to-end over real TCP.
//!
//! Concurrent clients must receive rankings identical to what the offline
//! `RecommendService::top_n` computes for the same user/policy (the
//! coalescer must never change an answer); malformed lines get typed
//! error replies on a surviving connection; shutdown drains everything
//! accepted before the signal; pipelined traffic actually coalesces into
//! multi-request batches; and the default daemon serves a lone request
//! without waiting for a companion (no batch is ever released by the
//! coalescing window's deadline).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bpmf::serve::coalesce::CoalesceConfig;
use bpmf::serve::daemon::{self, DaemonConfig, DaemonReport, ServingModel};
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest};
use bpmf::PosteriorModel;
use bpmf_linalg::Mat;
use bpmf_sparse::{Coo, Csr};
use bpmf_stats::{normal, Xoshiro256pp};

const N_USERS: usize = 48;
const N_ITEMS: usize = 96;
const K: usize = 4;

/// A synthetic fitted posterior (with genuine spread, so UCB/Thompson
/// have something to explore) plus a training matrix for exclude-seen.
fn world_fixture() -> (PosteriorModel, Csr) {
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let u = Mat::from_fn(N_USERS, K, |_, _| normal(&mut rng, 0.0, 0.4));
    let v = Mat::from_fn(N_ITEMS, K, |_, _| normal(&mut rng, 0.0, 0.4));
    let u2 = Mat::from_fn(N_USERS, K, |i, j| u[(i, j)] * u[(i, j)] + 0.05);
    let v2 = Mat::from_fn(N_ITEMS, K, |i, j| v[(i, j)] * v[(i, j)] + 0.05);
    let model = PosteriorModel::from_factors(u, v, Some((u2, v2)), 3.5, Some((0.5, 5.0)), 16);
    let mut coo = Coo::new(N_USERS, N_ITEMS);
    for user in 0..N_USERS {
        for s in 0..6 {
            coo.push(user, (user * 17 + s * 31) % N_ITEMS, 4.0);
        }
    }
    (model, Csr::from_coo_owned(coo))
}

/// Run `f` against a live daemon and return the daemon's report after a
/// drained shutdown.
fn with_daemon(cfg: DaemonConfig, f: impl FnOnce(SocketAddr)) -> DaemonReport {
    let (model, train) = world_fixture();
    let world = ServingModel {
        model: bpmf::ModelHandle::new(std::sync::Arc::new(model), 1),
        train: Some(&train),
        n_users: N_USERS,
        n_items: N_ITEMS,
        shard: None,
        reload: None,
    };
    let shutdown = AtomicBool::new(false);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let mut report = None;
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon::serve(&world, listener, &cfg, &shutdown));
        // Flip the flag even when `f` panics (failed assertion), so the
        // scope can join the daemon and surface the panic instead of
        // hanging the test run.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _guard = StopOnDrop(&shutdown);
        f(addr);
        shutdown.store(true, Ordering::Relaxed);
        report = Some(handle.join().expect("daemon thread").expect("daemon io"));
    });
    report.unwrap()
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn send(stream: &mut TcpStream, req: &wire::Request) {
    writeln!(stream, "{}", wire::encode(req)).expect("send request");
}

fn send_raw(stream: &mut TcpStream, line: &str) {
    writeln!(stream, "{line}").expect("send raw line");
}

fn recv(reader: &mut BufReader<TcpStream>) -> wire::Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(!line.is_empty(), "daemon closed the connection");
    wire::decode_response(&line).expect("parseable reply")
}

fn round_trip(addr: SocketAddr, req: &wire::Request) -> wire::Response {
    let (mut stream, mut reader) = connect(addr);
    send(&mut stream, req);
    recv(&mut reader)
}

/// Offline reference: a fresh service per request, exactly what the
/// daemon's per-request Thompson streams are specified to match.
fn offline_top_n(
    model: &PosteriorModel,
    train: &Csr,
    user: u32,
    top_n: usize,
    policy: RankPolicy,
    exclude_seen: bool,
) -> Vec<bpmf::serve::Recommendation> {
    let mut service = RecommendService::new(model, N_ITEMS).policy(policy);
    if exclude_seen {
        service = service.exclude_seen(train);
    }
    // `exclude_seen` attaches the filter *and* enables it; a fresh
    // service without it has the filter off, matching the daemon default.
    service.top_n(user as usize, top_n)
}

const POLICIES: [(&str, RankPolicy); 3] = [
    ("mean", RankPolicy::Mean),
    ("ucb:0.7", RankPolicy::Ucb { beta: 0.7 }),
    ("thompson:11", RankPolicy::Thompson { seed: 11 }),
];

#[test]
fn concurrent_clients_match_offline_top_n_for_every_policy() {
    let (model, train) = world_fixture();
    let cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            batch_window: Duration::from_millis(5),
            ..CoalesceConfig::default()
        },
        workers: 2,
        ..DaemonConfig::default()
    };
    // 18 concurrent clients: 6 users × 3 policies, half with exclude-seen.
    let mut expected = Vec::new();
    for (i, user) in [0u32, 3, 7, 19, 33, 47].iter().enumerate() {
        for (name, policy) in POLICIES {
            let exclude = i % 2 == 0;
            expected.push((
                *user,
                name,
                exclude,
                offline_top_n(&model, &train, *user, 5, policy, exclude),
            ));
        }
    }
    let report = with_daemon(cfg, |addr| {
        let responses: Vec<wire::Response> = std::thread::scope(|s| {
            let handles: Vec<_> = expected
                .iter()
                .enumerate()
                .map(|(id, (user, name, exclude, _))| {
                    s.spawn(move || {
                        round_trip(
                            addr,
                            &wire::Request {
                                id: id as u64,
                                cmd: wire::CMD_RECOMMEND.to_string(),
                                user: Some(*user),
                                top_n: 5,
                                policy: name.to_string(),
                                exclude_seen: Some(*exclude),
                                v: wire::WIRE_VERSION,
                                ..wire::Request::default()
                            },
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (resp, (id, (user, name, exclude, offline))) in
            responses.iter().zip(expected.iter().enumerate())
        {
            assert_eq!(resp.error, None, "user {user} policy {name}");
            assert_eq!(resp.id, id as u64);
            assert_eq!(resp.user, *user);
            let got: Vec<u32> = resp.items.iter().map(|i| i.item).collect();
            let want: Vec<u32> = offline.iter().map(|r| r.item).collect();
            assert_eq!(
                got, want,
                "user {user}, policy {name}, exclude_seen {exclude}"
            );
            // The daemon scores through the block GEMM, the offline
            // reference through the transposed scan: same sums, different
            // association order, so compare scores to fp tolerance.
            for (g, w) in resp.items.iter().zip(offline) {
                assert!(
                    (g.score - w.score).abs() <= 1e-9,
                    "user {user} policy {name}: {} vs {}",
                    g.score,
                    w.score
                );
            }
        }
    });
    assert_eq!(report.requests, expected.len() as u64);
    assert_eq!(report.connections, expected.len() as u64);
    assert_eq!(report.rejected, 0);
}

#[test]
fn pipelined_requests_coalesce_into_batches() {
    let cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            batch_window: Duration::from_millis(60),
            ..CoalesceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let total = 32u32;
    let report = with_daemon(cfg, |addr| {
        let (mut stream, mut reader) = connect(addr);
        // Fire the whole pipeline before reading anything: every request
        // lands in the queue well inside the 60 ms window.
        for user in 0..total {
            send(&mut stream, &wire::Request::recommend(user as u64, user));
        }
        let mut seen = vec![false; total as usize];
        for _ in 0..total {
            let resp = recv(&mut reader);
            assert_eq!(resp.error, None);
            assert_eq!(resp.id, resp.user as u64, "id echoes the request");
            assert!(!resp.items.is_empty());
            seen[resp.user as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every request answered once");
    });
    assert_eq!(report.requests, total as u64);
    assert!(
        report.batches < total as u64 / 2,
        "pipelined traffic should coalesce: {} batches for {total} requests",
        report.batches
    );
    assert!(
        report.largest_batch >= 8,
        "expected multi-request batches, largest was {}",
        report.largest_batch
    );
}

/// Ten sequential round trips on one connection: each request is sent
/// only after the previous reply arrived, so none can share a batch.
fn sequential_round_trips(cfg: DaemonConfig, total: u32) -> DaemonReport {
    with_daemon(cfg, |addr| {
        let (mut stream, mut reader) = connect(addr);
        for user in 0..total {
            send(&mut stream, &wire::Request::recommend(user as u64, user));
            let resp = recv(&mut reader);
            assert_eq!(resp.error, None);
            assert_eq!(resp.user, user);
        }
    })
}

#[test]
fn default_daemon_serves_sequential_requests_without_waiting() {
    // The default window is zero: a request reaching the idle worker is
    // scored at once. The coalescer counts why each batch left the queue,
    // so "never waited" is a count, not a clock: no batch may have been
    // released by the window expiring.
    let total = 10u32;
    let report = sequential_round_trips(DaemonConfig::default(), total);
    assert_eq!(report.requests, total as u64);
    assert_eq!(
        report.batches, total as u64,
        "each sequential request is its own batch"
    );
    assert_eq!(
        report.deadline_flushes, 0,
        "the default daemon waited out a coalescing window"
    );
}

#[test]
fn a_nonzero_window_makes_a_lone_request_wait_for_the_deadline() {
    // The sibling of the test above, and the reason its counter means
    // something: with a 2 ms window a lone request sits in the queue until
    // the window expires, and the coalescer says so.
    let total = 4u32;
    let cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            batch_window: Duration::from_millis(2),
            ..CoalesceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let report = sequential_round_trips(cfg, total);
    assert_eq!(report.requests, total as u64);
    assert!(
        report.deadline_flushes >= 1,
        "a 2 ms window released no batch by its deadline: {report:?}"
    );
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors_on_a_surviving_connection() {
    let report = with_daemon(DaemonConfig::default(), |addr| {
        let (mut stream, mut reader) = connect(addr);

        // Garbage line → typed error, not a dropped socket.
        send_raw(&mut stream, "this is not json");
        let resp = recv(&mut reader);
        assert!(resp.error.as_deref().unwrap().contains("malformed request"));

        // Missing user.
        send_raw(&mut stream, "{}");
        let resp = recv(&mut reader);
        assert!(resp.error.as_deref().unwrap().contains("missing field"));

        // Out-of-range user.
        send(
            &mut stream,
            &wire::Request::recommend(1, N_USERS as u32 + 5),
        );
        let resp = recv(&mut reader);
        assert!(resp.error.as_deref().unwrap().contains("out of range"));

        // Unknown policy.
        send(
            &mut stream,
            &wire::Request {
                policy: "argmax".to_string(),
                ..wire::Request::recommend(2, 0)
            },
        );
        let resp = recv(&mut reader);
        assert!(resp.error.as_deref().unwrap().contains("policy"));

        // Unknown command.
        send(
            &mut stream,
            &wire::Request {
                cmd: "reboot".to_string(),
                ..wire::Request::default()
            },
        );
        let resp = recv(&mut reader);
        assert!(resp.error.as_deref().unwrap().contains("unknown cmd"));

        // The connection survived all of it: ping, then a real request.
        send(
            &mut stream,
            &wire::Request {
                id: 77,
                cmd: wire::CMD_PING.to_string(),
                ..wire::Request::default()
            },
        );
        let resp = recv(&mut reader);
        assert_eq!(resp.id, 77);
        assert_eq!(resp.error, None);

        send(&mut stream, &wire::Request::recommend(78, 1));
        let resp = recv(&mut reader);
        assert_eq!(resp.error, None);
        assert!(!resp.items.is_empty());
    });
    assert_eq!(report.rejected, 5);
    assert_eq!(report.requests, 1);
}

#[test]
fn an_oversize_line_gets_exactly_one_typed_reply_then_the_connection_closes() {
    let report = with_daemon(DaemonConfig::default(), |addr| {
        let (mut stream, mut reader) = connect(addr);
        // One byte past the limit, no newline: the daemon must not wait
        // for the rest of a line it will never accept.
        let oversize = vec![b'x'; bpmf::serve::net::MAX_LINE + 1];
        stream.write_all(&oversize).expect("send oversize line");
        let resp = recv(&mut reader);
        assert_eq!(resp.error.as_deref(), Some("request line too long"));
        assert_eq!(resp.code.as_deref(), Some(wire::CODE_BAD_REQUEST));
        let mut rest = String::new();
        let n = reader.read_line(&mut rest).expect("read after reply");
        assert_eq!(n, 0, "exactly one reply, then EOF; got {rest:?}");
    });
    assert_eq!(report.rejected, 1);
    assert_eq!(report.requests, 0);
}

#[test]
fn shutdown_command_drains_queued_requests_before_exit() {
    // A long window so the queued pipeline is still pending when the
    // shutdown lands; the drain rule — not the deadline — must flush it.
    let cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            batch_window: Duration::from_millis(500),
            ..CoalesceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let total = 10u32;
    let report = with_daemon(cfg, |addr| {
        let (mut stream, mut reader) = connect(addr);
        for user in 0..total {
            send(&mut stream, &wire::Request::recommend(user as u64, user));
        }
        // Second connection asks for shutdown while those are queued.
        let ack = round_trip(
            addr,
            &wire::Request {
                id: 999,
                cmd: wire::CMD_SHUTDOWN.to_string(),
                ..wire::Request::default()
            },
        );
        assert_eq!(ack.id, 999);
        assert_eq!(ack.error, None);
        // Every request accepted before the signal still gets its answer.
        for _ in 0..total {
            let resp = recv(&mut reader);
            assert_eq!(resp.error, None, "drained request failed");
            assert!(!resp.items.is_empty());
        }
    });
    assert_eq!(report.requests, total as u64);
}

#[test]
fn panicking_scorer_cannot_wedge_the_daemon() {
    /// A model whose every scoring call panics — the worst-behaved
    /// `Recommender` a library caller could hand the daemon.
    struct PanickyModel;
    impl bpmf::Recommender for PanickyModel {
        fn predict(&self, _user: usize, _movie: usize) -> f64 {
            panic!("scorer exploded");
        }
    }

    let world = ServingModel {
        model: bpmf::ModelHandle::new(std::sync::Arc::new(PanickyModel), 1),
        train: None,
        n_users: 8,
        n_items: 4,
        shard: None,
        reload: None,
    };
    let cfg = DaemonConfig::default();
    let shutdown = AtomicBool::new(false);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let report = std::thread::scope(|s| {
        let handle = s.spawn(|| daemon::serve(&world, listener, &cfg, &shutdown));
        // Each request panics the (single) worker; after the panic cap
        // the daemon fail-fasts itself. Clients may get no reply for the
        // batch in hand — the guarantee under test is that the daemon
        // exits instead of deadlocking, and later requests get typed
        // errors once the drain kicks in.
        for i in 0..4 {
            let Ok(stream) = TcpStream::connect(addr) else {
                break; // daemon already shut down: that's the fail-fast
            };
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let _ = writeln!(writer, "{}", wire::encode(&wire::Request::recommend(i, 0)));
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line); // reply or timeout, both fine
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
        }
        shutdown.store(true, Ordering::Relaxed);
        handle.join().expect("daemon thread").expect("daemon io")
    });
    assert!(
        report.worker_panics >= 1,
        "the panicking scorer must have been caught at least once"
    );
}

#[test]
fn recommend_each_results_are_arrival_order_independent() {
    // The serving-side determinism the daemon's coalescer relies on:
    // whatever order requests arrive in — and however they split into
    // GEMM blocks — each request's result is identical.
    let (model, train) = world_fixture();
    let mut reqs = Vec::new();
    for user in 0..N_USERS as u32 {
        for (_, policy) in POLICIES {
            reqs.push(ServeRequest {
                user,
                top_n: 4,
                policy,
                exclude_seen: user % 3 == 0,
            });
        }
    }
    let run = |order: &[usize]| {
        let mut service = RecommendService::new(&model, N_ITEMS).exclude_seen(&train);
        let ordered: Vec<ServeRequest> = order.iter().map(|&i| reqs[i]).collect();
        let lists = service.recommend_each(&ordered);
        let mut by_req: Vec<Option<Vec<bpmf::serve::Recommendation>>> = vec![None; reqs.len()];
        for (&i, list) in order.iter().zip(lists) {
            by_req[i] = Some(list);
        }
        by_req
    };
    let forward: Vec<usize> = (0..reqs.len()).collect();
    let mut shuffled = forward.clone();
    // Deterministic shuffle (splitmix-style indexing).
    for i in (1..shuffled.len()).rev() {
        let j = (i * 2654435761) % (i + 1);
        shuffled.swap(i, j);
    }
    let reversed: Vec<usize> = forward.iter().rev().copied().collect();

    let a = run(&forward);
    let b = run(&shuffled);
    let c = run(&reversed);
    for i in 0..reqs.len() {
        assert_eq!(a[i], b[i], "request {i} differs under shuffle");
        assert_eq!(a[i], c[i], "request {i} differs under reversal");
    }

    // And each matches a fresh per-request service's top_n exactly.
    for (i, req) in reqs.iter().enumerate() {
        let offline = offline_top_n(
            &model,
            &train,
            req.user,
            req.top_n,
            req.policy,
            req.exclude_seen,
        );
        let got: Vec<u32> = a[i].as_ref().unwrap().iter().map(|r| r.item).collect();
        let want: Vec<u32> = offline.iter().map(|r| r.item).collect();
        assert_eq!(got, want, "request {i} vs offline top_n");
    }
}
