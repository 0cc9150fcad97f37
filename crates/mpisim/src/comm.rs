//! Per-rank communicator: point-to-point, collectives, and accounting.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::universe::{Message, UniverseShared};
use crate::wire;
use crate::{Tag, RESERVED_TAG_BASE};

const TAG_ALLREDUCE_CONTRIB: Tag = RESERVED_TAG_BASE;
const TAG_ALLREDUCE_RESULT: Tag = RESERVED_TAG_BASE + 1;
const TAG_ALLGATHER: Tag = RESERVED_TAG_BASE + 3;
const TAG_ALLREDUCE_MAX_CONTRIB: Tag = RESERVED_TAG_BASE + 4;
const TAG_ALLREDUCE_MAX_RESULT: Tag = RESERVED_TAG_BASE + 5;

/// Message counters for one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Payload bytes sent (collectives included).
    pub bytes_sent: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Messages received.
    pub msgs_recv: u64,
}

/// The compute / communicate / both split of the paper's Fig. 5.
///
/// * `comm` — wall time spent *blocked* inside communication calls;
/// * `both` — wall time inside [`Comm::compute`] sections while this rank
///   had communication in flight (unconsumed outgoing messages or pending
///   incoming ones): computation that successfully overlapped communication;
/// * `compute` — [`Comm::compute`] time with no communication in flight.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeStats {
    /// Pure computation time.
    pub compute: Duration,
    /// Computation overlapped with in-flight communication.
    pub both: Duration,
    /// Time blocked in communication calls.
    pub comm: Duration,
}

impl TimeStats {
    /// Fractions `(compute, both, comm)` of the accounted total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.compute.as_secs_f64() + self.both.as_secs_f64() + self.comm.as_secs_f64();
        if total <= 0.0 {
            return (1.0, 0.0, 0.0);
        }
        (
            self.compute.as_secs_f64() / total,
            self.both.as_secs_f64() / total,
            self.comm.as_secs_f64() / total,
        )
    }
}

/// One rank's endpoint into the universe. Mirrors the MPI surface the
/// paper's implementation uses.
pub struct Comm<'a> {
    rank: usize,
    shared: &'a UniverseShared,
    stats: CommStats,
    times: TimeStats,
}

impl<'a> Comm<'a> {
    pub(crate) fn new(rank: usize, shared: &'a UniverseShared) -> Self {
        Comm {
            rank,
            shared,
            stats: CommStats::default(),
            times: TimeStats::default(),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.nranks
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Buffered send (completes immediately, like `MPI_Send` with a small
    /// message or `MPI_Isend` + internal buffering).
    pub fn send(&mut self, dst: usize, tag: Tag, payload: &[u8]) {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        self.send_raw(dst, tag, Bytes::copy_from_slice(payload));
    }

    /// Buffered send of an owned payload (no copy).
    pub fn send_bytes(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        self.send_raw(dst, tag, payload);
    }

    fn send_raw(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        let len = payload.len();
        let ready_at = self.shared.net.map(|m| Instant::now() + m.delay(len));
        let msg = Message {
            src: self.rank as u32,
            tag,
            ready_at,
            payload,
        };
        self.shared.inflight_from[self.rank].fetch_add(1, Ordering::AcqRel);
        {
            let mailbox = &self.shared.mailboxes[dst];
            let mut q = mailbox.queue.lock();
            q.push_back(msg);
            mailbox.arrived.notify_all();
        }
        self.stats.bytes_sent += len as u64;
        self.stats.msgs_sent += 1;
    }

    /// Blocking receive matched on `(src, tag)`; `src = None` accepts any
    /// source. Matching is FIFO per source/tag pair (MPI non-overtaking:
    /// an earlier matching message is always delivered first, even if a
    /// later one "arrived" — finished its simulated transfer — sooner).
    pub fn recv(&mut self, src: Option<usize>, tag: Tag) -> (usize, Bytes) {
        let t0 = Instant::now();
        let got = self
            .recv_inner(src, tag, true)
            .expect("blocking recv returned none");
        self.times.comm += t0.elapsed();
        got
    }

    /// Nonblocking receive (`MPI_Iprobe` + `MPI_Recv`): returns a matching
    /// *ready* message if its delivery respects non-overtaking order.
    pub fn try_recv(&mut self, src: Option<usize>, tag: Tag) -> Option<(usize, Bytes)> {
        let t0 = Instant::now();
        let got = self.recv_inner(src, tag, false);
        self.times.comm += t0.elapsed();
        got
    }

    fn recv_inner(&mut self, src: Option<usize>, tag: Tag, block: bool) -> Option<(usize, Bytes)> {
        let mailbox = &self.shared.mailboxes[self.rank];
        let mut q = mailbox.queue.lock();
        loop {
            self.shared.check_abort();
            let pos = q
                .iter()
                .position(|m| m.tag == tag && src.is_none_or(|s| s as u32 == m.src));
            match pos {
                Some(i) => {
                    if let Some(t) = q[i].ready_at {
                        let now = Instant::now();
                        if t > now {
                            if !block {
                                return None;
                            }
                            let _ = mailbox.arrived.wait_for(&mut q, t - now);
                            continue;
                        }
                    }
                    let msg = q.remove(i).expect("position was just found");
                    self.shared.inflight_from[msg.src as usize].fetch_sub(1, Ordering::AcqRel);
                    self.stats.bytes_recv += msg.payload.len() as u64;
                    self.stats.msgs_recv += 1;
                    return Some((msg.src as usize, msg.payload));
                }
                None => {
                    if !block {
                        return None;
                    }
                    mailbox.arrived.wait(&mut q);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Synchronize all ranks.
    pub fn barrier(&mut self) {
        let t0 = Instant::now();
        self.shared.barrier.wait();
        self.times.comm += t0.elapsed();
    }

    /// `MPI_Abort`: poison the universe so every rank blocked in a
    /// communication call fails fast, then panic on this rank. Use when a
    /// rank detects an unrecoverable error and peers may be blocked waiting
    /// for messages this rank will never send.
    pub fn abort(&mut self, reason: &str) -> ! {
        self.shared.trigger_abort(self.rank);
        panic!("rank {} called abort: {reason}", self.rank);
    }

    /// Element-wise sum across ranks; every rank ends with the total.
    ///
    /// Reduction happens at rank 0 in rank order, so the result is
    /// bit-identical on every rank and across runs — a requirement for the
    /// replicated hyperparameter sampling in distributed BPMF.
    pub fn allreduce_sum_f64(&mut self, buf: &mut [f64]) {
        let n = self.size();
        if n == 1 {
            return;
        }
        if self.rank == 0 {
            let mut incoming = vec![Bytes::new(); n - 1];
            for _ in 1..n {
                let (src, bytes) = self.recv(None, TAG_ALLREDUCE_CONTRIB);
                incoming[src - 1] = bytes;
            }
            // Rank order for deterministic floating-point reduction.
            for bytes in incoming {
                assert_eq!(bytes.len(), buf.len() * 8, "allreduce length mismatch");
                for (v, c) in buf.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v += wire::read_f64(c);
                }
            }
            let result = wire::f64s_to_bytes(buf);
            for dst in 1..n {
                self.send_raw(dst, TAG_ALLREDUCE_RESULT, result.clone());
            }
        } else {
            let contrib = wire::f64s_to_bytes(buf);
            self.send_raw(0, TAG_ALLREDUCE_CONTRIB, contrib);
            let (_, result) = self.recv(Some(0), TAG_ALLREDUCE_RESULT);
            wire::read_f64s(&result, buf);
        }
    }

    /// Element-wise max across ranks; every rank ends with the maxima.
    pub fn allreduce_max_f64(&mut self, buf: &mut [f64]) {
        let n = self.size();
        if n == 1 {
            return;
        }
        if self.rank == 0 {
            for _ in 1..n {
                let (_, bytes) = self.recv(None, TAG_ALLREDUCE_MAX_CONTRIB);
                assert_eq!(bytes.len(), buf.len() * 8, "allreduce length mismatch");
                for (v, c) in buf.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v = v.max(wire::read_f64(c));
                }
            }
            let result = wire::f64s_to_bytes(buf);
            for dst in 1..n {
                self.send_raw(dst, TAG_ALLREDUCE_MAX_RESULT, result.clone());
            }
        } else {
            let contrib = wire::f64s_to_bytes(buf);
            self.send_raw(0, TAG_ALLREDUCE_MAX_CONTRIB, contrib);
            let (_, result) = self.recv(Some(0), TAG_ALLREDUCE_MAX_RESULT);
            wire::read_f64s(&result, buf);
        }
    }

    /// Every rank's payload on every rank, in rank order (`MPI_Allgatherv`).
    ///
    /// Each rank sends its payload straight to every peer: the buffer is
    /// shared, not copied, across destinations, and nothing is routed
    /// through a root. Payloads may differ in length, including zero. The
    /// caller's own payload comes back at index `rank()`.
    pub fn allgather(&mut self, payload: impl Into<Bytes>) -> Vec<Bytes> {
        let payload = payload.into();
        let (n, rank) = (self.size(), self.rank);
        for dst in (0..n).filter(|&d| d != rank) {
            self.send_raw(dst, TAG_ALLGATHER, payload.clone());
        }
        (0..n)
            .map(|src| {
                if src == rank {
                    payload.clone()
                } else {
                    self.recv(Some(src), TAG_ALLGATHER).1
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Run a computation section, attributing its wall time to `compute` or
    /// `both` depending on whether communication was in flight (Fig. 5's
    /// three-way split; blocked communication time accumulates separately
    /// in the comm calls themselves).
    pub fn compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let active_before = self.comm_in_flight();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if active_before || self.comm_in_flight() {
            self.times.both += dt;
        } else {
            self.times.compute += dt;
        }
        r
    }

    /// True when this rank has unconsumed outgoing messages or pending
    /// incoming ones.
    fn comm_in_flight(&self) -> bool {
        if self.shared.inflight_from[self.rank].load(Ordering::Acquire) > 0 {
            return true;
        }
        !self.shared.mailboxes[self.rank].queue.lock().is_empty()
    }

    /// Message counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Time split so far.
    pub fn time_stats(&self) -> TimeStats {
        self.times
    }

    /// Zero all counters and timers (e.g. after warm-up iterations).
    pub fn reset_accounting(&mut self) {
        self.stats = CommStats::default();
        self.times = TimeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use crate::NetModel;

    #[test]
    fn ring_pass_accumulates() {
        let n = 5;
        let out = Universe::run(n, None, |comm| {
            let r = comm.rank();
            let next = (r + 1) % n;
            let prev = (r + n - 1) % n;
            comm.send(next, 1, &[r as u8]);
            let (src, data) = comm.recv(Some(prev), 1);
            (src, data[0] as usize)
        });
        for (r, &(src, val)) in out.iter().enumerate() {
            assert_eq!(src, (r + n - 1) % n);
            assert_eq!(val, src);
        }
    }

    #[test]
    fn tag_matching_selects_correct_stream() {
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, b"ten");
                comm.send(1, 20, b"twenty");
            } else {
                // Receive in reverse tag order: matching must pick by tag.
                let (_, twenty) = comm.recv(Some(0), 20);
                let (_, ten) = comm.recv(Some(0), 10);
                assert_eq!(&twenty[..], b"twenty");
                assert_eq!(&ten[..], b"ten");
            }
        });
    }

    #[test]
    fn non_overtaking_holds_even_when_later_message_is_ready_first() {
        // Big message sent first (slow transfer), tiny message second (fast).
        // Receiver must still get the big one first.
        let net = NetModel::new(Duration::from_millis(1), 1_000_000.0); // 1 MB/s
        Universe::run(2, Some(net), |comm| {
            if comm.rank() == 0 {
                let big = vec![0xAAu8; 64 * 1024]; // ~64 ms transfer
                comm.send(1, 5, &big);
                comm.send(1, 5, b"small");
            } else {
                let (_, first) = comm.recv(Some(0), 5);
                let (_, second) = comm.recv(Some(0), 5);
                assert_eq!(first.len(), 64 * 1024);
                assert_eq!(&second[..], b"small");
            }
        });
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv(None, 3).is_none());
                comm.barrier(); // let rank 1 send
                comm.barrier(); // wait until the send happened
                let mut got = None;
                while got.is_none() {
                    got = comm.try_recv(Some(1), 3);
                }
                assert_eq!(&got.unwrap().1[..], b"hello");
            } else {
                comm.barrier();
                comm.send(0, 3, b"hello");
                comm.barrier();
            }
        });
    }

    #[test]
    fn network_model_delays_delivery() {
        let latency = Duration::from_millis(25);
        let out = Universe::run(2, Some(NetModel::new(latency, 1e12)), |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 1, b"x");
                Duration::ZERO
            } else {
                comm.barrier();
                let t0 = Instant::now();
                let _ = comm.recv(Some(0), 1);
                t0.elapsed()
            }
        });
        assert!(
            out[1] >= latency - Duration::from_millis(2),
            "elapsed = {:?}",
            out[1]
        );
    }

    #[test]
    fn allreduce_sums_identically_everywhere() {
        let n = 4;
        let out = Universe::run(n, None, |comm| {
            let r = comm.rank() as f64;
            let mut buf = vec![r + 1.0, 2.0 * r, -r];
            comm.allreduce_sum_f64(&mut buf);
            buf
        });
        // Σ(r+1) = 10, Σ2r = 12, Σ-r = -6
        for buf in &out {
            assert_eq!(buf, &vec![10.0, 12.0, -6.0]);
        }
    }

    fn gathered(out: &[Vec<Bytes>]) -> Vec<Vec<Vec<u8>>> {
        out.iter()
            .map(|per_rank| per_rank.iter().map(|b| b.to_vec()).collect())
            .collect()
    }

    #[test]
    fn allgather_delivers_rank_order_everywhere_with_uneven_and_empty_payloads() {
        // Rank r contributes r bytes of value r: rank 0's payload is empty.
        let n = 4;
        let want: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; r]).collect();
        let out = Universe::run(n, None, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank()];
            comm.allgather(mine)
        });
        for per_rank in gathered(&out) {
            assert_eq!(per_rank, want);
        }
    }

    #[test]
    fn allgather_on_one_rank_returns_its_own_payload_without_traffic() {
        let out = Universe::run(1, None, |comm| {
            let got = comm.allgather(vec![9u8, 8, 7]);
            (got, comm.stats())
        });
        let (got, stats) = &out[0];
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0][..], &[9, 8, 7]);
        assert_eq!(stats.msgs_sent, 0);
        assert_eq!(stats.bytes_sent, 0);
    }

    #[test]
    fn allgather_under_the_network_model_keeps_order_across_rounds() {
        // Two back-to-back rounds with delayed delivery: per-source FIFO
        // must keep round 1's payloads out of round 0's result.
        let n = 3;
        let out = Universe::run(n, Some(NetModel::test_cluster()), |comm| {
            let r = comm.rank() as u8;
            let first = comm.allgather(vec![r; 2 * comm.rank() + 1]);
            let second = comm.allgather(vec![r + 10; 1000 * (n - comm.rank())]);
            (first, second, comm.stats())
        });
        for (first, second, stats) in &out {
            for (src, (a, b)) in first.iter().zip(second).enumerate() {
                assert_eq!(a.to_vec(), vec![src as u8; 2 * src + 1]);
                assert_eq!(b.to_vec(), vec![src as u8 + 10; 1000 * (n - src)]);
            }
            assert_eq!(stats.msgs_sent, 2 * (n as u64 - 1));
        }
        // Each rank sends its own payload once per peer.
        let sent: Vec<u64> = out.iter().map(|o| o.2.bytes_sent).collect();
        assert_eq!(sent, vec![2 * (1 + 3000), 2 * (3 + 2000), 2 * (5 + 1000)]);
    }

    #[test]
    fn compute_accounting_splits_pure_and_overlapped() {
        let out = Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                // Phase 1: compute with a message in flight → "both".
                comm.send(1, 9, b"payload");
                comm.compute(|| std::thread::sleep(Duration::from_millis(10)));
                comm.barrier(); // rank 1 receives after this
                comm.barrier(); // message consumed by now
                                // Phase 2: no communication in flight → "compute".
                comm.compute(|| std::thread::sleep(Duration::from_millis(10)));
                comm.time_stats()
            } else {
                comm.barrier();
                let _ = comm.recv(Some(0), 9);
                comm.barrier();
                comm.time_stats()
            }
        });
        let t0 = out[0];
        assert!(t0.both >= Duration::from_millis(9), "both = {:?}", t0.both);
        assert!(
            t0.compute >= Duration::from_millis(9),
            "compute = {:?}",
            t0.compute
        );
        // Rank 1 blocked in recv/barrier → comm time accumulated.
        assert!(out[1].comm > Duration::ZERO);
    }

    #[test]
    fn message_counters_track_traffic() {
        let out = Universe::run(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]);
                comm.send(1, 1, &[0u8; 50]);
            } else {
                let _ = comm.recv(Some(0), 1);
                let _ = comm.recv(Some(0), 1);
            }
            comm.stats()
        });
        assert_eq!(out[0].msgs_sent, 2);
        assert_eq!(out[0].bytes_sent, 150);
        assert_eq!(out[1].msgs_recv, 2);
        assert_eq!(out[1].bytes_recv, 150);
    }

    #[test]
    #[should_panic(expected = "reserved for collectives")]
    fn reserved_tags_are_rejected() {
        Universe::run(1, None, |comm| {
            comm.send(0, RESERVED_TAG_BASE, b"nope");
        });
    }
}
