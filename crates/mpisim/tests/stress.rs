//! Randomized stress tests of the message-passing runtime: conservation
//! (every byte sent is received), cross-pattern deadlock freedom,
//! collectives interleaved with point-to-point traffic, and abort
//! propagation to blocked ranks.

use bpmf_mpisim::{Universe, RESERVED_TAG_BASE};

/// Deterministic per-rank pseudo-random schedule.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xD1B54A32D192ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x
}

#[test]
fn random_traffic_conserves_messages_and_bytes() {
    for seed in [1u64, 7, 42] {
        let n = 5;
        let stats = Universe::run(n, None, |comm| {
            let me = comm.rank();
            // Every rank sends a deterministic number of messages of
            // deterministic sizes to every other rank, then receives exactly
            // what the same formula says it should expect.
            for dst in 0..n {
                if dst == me {
                    continue;
                }
                let msgs = (mix(seed, me as u64, dst as u64) % 8) as usize;
                for m in 0..msgs {
                    let len = (mix(seed, (me * n + dst) as u64, m as u64) % 256) as usize;
                    comm.send(dst, 1, &vec![me as u8; len]);
                }
            }
            for src in 0..n {
                if src == me {
                    continue;
                }
                let msgs = (mix(seed, src as u64, me as u64) % 8) as usize;
                for m in 0..msgs {
                    let (from, data) = comm.recv(Some(src), 1);
                    assert_eq!(from, src);
                    let expect = (mix(seed, (src * n + me) as u64, m as u64) % 256) as usize;
                    assert_eq!(data.len(), expect, "message {m} from {src} has wrong size");
                    assert!(data.iter().all(|&b| b == src as u8));
                }
            }
            comm.stats()
        });
        let sent: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        let recv: u64 = stats.iter().map(|s| s.bytes_recv).sum();
        assert_eq!(sent, recv, "seed {seed}: bytes not conserved");
        let msent: u64 = stats.iter().map(|s| s.msgs_sent).sum();
        let mrecv: u64 = stats.iter().map(|s| s.msgs_recv).sum();
        assert_eq!(msent, mrecv, "seed {seed}: messages not conserved");
    }
}

#[test]
fn interleaved_collectives_and_p2p_do_not_cross_talk() {
    let n = 4;
    let out = Universe::run(n, None, |comm| {
        let me = comm.rank();
        // P2P ring + allreduce + gather, repeated; values must stay aligned.
        let mut acc = 0.0f64;
        for round in 0..10u64 {
            comm.send((me + 1) % n, 5, &[(round as u8).wrapping_add(me as u8)]);
            let mut buf = [me as f64 + round as f64];
            comm.allreduce_sum_f64(&mut buf);
            // Σ(r + round) over ranks = n*round + n(n-1)/2
            assert_eq!(buf[0], (n * (n - 1) / 2) as f64 + (n as u64 * round) as f64);
            // Rank r contributes r + 1 bytes of `round + r`: uneven payloads
            // sent while the ring message is still unreceived, to a root
            // that moves round by round (rank 0 included).
            let root = round as usize % n;
            match comm.gather(root, vec![(round as u8).wrapping_add(me as u8); me + 1]) {
                Some(gathered) => {
                    assert_eq!(me, root);
                    assert_eq!(gathered.len(), n);
                    for (src, payload) in gathered.iter().enumerate() {
                        assert_eq!(
                            payload.to_vec(),
                            vec![(round as u8).wrapping_add(src as u8); src + 1],
                            "round {round}: payload from rank {src}"
                        );
                    }
                }
                None => assert_ne!(me, root, "round {round}: the root got nothing"),
            }
            let (_, data) = comm.recv(Some((me + n - 1) % n), 5);
            assert_eq!(
                data[0],
                (round as u8).wrapping_add(((me + n - 1) % n) as u8)
            );
            acc += buf[0];
        }
        acc
    });
    // Every rank computed the identical accumulator.
    for v in &out[1..] {
        assert_eq!(v, &out[0]);
    }
}

#[test]
fn rank_panic_aborts_blocked_receivers() {
    // Rank 1 dies before sending; without abort semantics rank 0 would wait
    // forever and the whole process would hang. The universe must wake rank
    // 0 and re-panic with the root cause.
    let err = std::panic::catch_unwind(|| {
        Universe::run(3, None, |comm| {
            match comm.rank() {
                0 => {
                    let _ = comm.recv(Some(1), 1); // never satisfied
                }
                1 => panic!("simulated rank failure"),
                _ => {
                    let _ = comm.recv(Some(1), 2); // also never satisfied
                }
            }
        });
    })
    .expect_err("universe must propagate the failure");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("rank 1 panicked"), "root cause lost: {msg}");
    assert!(
        msg.contains("simulated rank failure"),
        "root cause lost: {msg}"
    );
}

#[test]
fn rank_panic_poisons_barrier_waiters() {
    let err = std::panic::catch_unwind(|| {
        Universe::run(3, None, |comm| {
            if comm.rank() == 2 {
                panic!("dying before the barrier");
            }
            comm.barrier(); // rank 2 never arrives
        });
    })
    .expect_err("universe must propagate the failure");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("rank 2 panicked"), "root cause lost: {msg}");
}

#[test]
fn explicit_abort_unblocks_blocked_receivers() {
    let err = std::panic::catch_unwind(|| {
        Universe::run(2, None, |comm| {
            comm.barrier();
            if comm.rank() == 0 {
                comm.abort("unrecoverable input");
            }
            // Rank 1 waits for a message rank 0 will never send.
            let _ = comm.recv(Some(0), 1);
        });
    })
    .expect_err("universe must propagate the abort");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("rank 0 panicked"), "{msg}");
    assert!(msg.contains("unrecoverable input"), "{msg}");
}

#[test]
fn reserved_tag_space_is_not_reachable_from_user_traffic() {
    // User tags stop below the collective range; a full mesh of user traffic
    // plus collectives must not interfere.
    let n = 3;
    Universe::run(n, None, |comm| {
        let me = comm.rank();
        let max_user_tag = RESERVED_TAG_BASE - 1;
        for dst in 0..n {
            if dst != me {
                comm.send(dst, max_user_tag, &[me as u8]);
            }
        }
        let mut sum = [me as f64];
        comm.allreduce_sum_f64(&mut sum);
        assert_eq!(sum[0], 3.0);
        for src in 0..n {
            if src != me {
                let (_, d) = comm.recv(Some(src), max_user_tag);
                assert_eq!(d[0], src as u8);
            }
        }
    });
}

#[test]
fn abort_during_collective_unblocks_all_ranks() {
    // Rank 2 dies while ranks 0 and 1 are already inside an allreduce
    // (waiting for rank 2's contribution). The abort must reach them
    // through the blocked recv inside the collective.
    let err = std::panic::catch_unwind(|| {
        Universe::run(3, None, |comm| {
            if comm.rank() == 2 {
                panic!("rank loss mid-collective");
            }
            let mut buf = [comm.rank() as f64];
            comm.allreduce_sum_f64(&mut buf);
            buf[0]
        });
    })
    .expect_err("universe must propagate the failure");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("rank 2 panicked"), "root cause lost: {msg}");
    assert!(
        msg.contains("rank loss mid-collective"),
        "root cause lost: {msg}"
    );
}
