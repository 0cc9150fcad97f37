//! Persistent work-stealing pool — the TBB analogue of paper §III.
//!
//! Design (following the shape of TBB's task scheduler, scaled to what BPMF
//! needs):
//!
//! * one OS thread per worker, parked on a condvar between sweeps;
//! * sweeps hand out *ranges* of item indices: a worker pops a range, splits
//!   it in half until it is at most `grain` items, executes the left piece
//!   and leaves the right pieces in its LIFO deque for itself or thieves;
//! * idle workers steal from the global injector first (fresh chunks), then
//!   from victim deques round-robin;
//! * completion is detected by counting executed items, so uneven splits
//!   and stolen chunks need no extra coordination.
//!
//! Every deque, the injector included, is a `VecDeque` behind a mutex: the
//! owner pushes and pops at the back, thieves take the front. Locks are
//! cheap here because a deque operation moves a whole chunk: the default
//! grain makes about eight chunks per worker per sweep, of at most 1024
//! items each, so a ChEMBL-sized user sweep (242k items) takes a few
//! hundred locks while it draws 242k items. A lock-free deque would save
//! nothing measurable. TBB's classic scheduler likewise locks the victim's
//! task pool to steal.
//!
//! The non-`'static` closure is passed to the persistent workers by
//! lifetime-erasing a `&dyn Fn` (see `SAFETY` in [`WorkStealingPool::run_items`]);
//! `run_items` does not return until every item is executed or, after a
//! panic in any worker, until every worker has left the sweep, so the
//! reference never outlives the borrow it was created from.

use std::collections::VecDeque;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::stats::{RunStats, WorkerStats};
use crate::ItemRunner;

type Chunk = std::ops::Range<usize>;
type Job = &'static (dyn Fn(usize, usize) + Sync);
/// Chunks waiting to run, oldest at the front.
type Deque = Mutex<VecDeque<Chunk>>;

/// Aligns a value to 128 bytes, so per-worker state in adjacent slots
/// never shares a cache line (or an adjacent-line prefetch pair).
#[derive(Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

struct Gate {
    epoch: Mutex<(u64, bool)>, // (sweep epoch, shutdown)
    wake: Condvar,
}

struct DoneGate {
    flag: Mutex<bool>,
    cv: Condvar,
}

#[derive(Default)]
struct WorkerCounters {
    busy_ns: AtomicU64,
    items: AtomicU64,
    steals: AtomicU64,
}

struct Shared {
    injector: Deque,
    /// One per worker: the owner pushes and pops at the back, thieves take
    /// the front.
    deques: Vec<CachePadded<Deque>>,
    job: Mutex<Option<Job>>,
    grain: AtomicUsize,
    remaining: AtomicUsize,
    /// Set by a worker whose sweep panicked, inside the job or outside it;
    /// every worker then leaves the sweep and the master is woken.
    panicked: AtomicBool,
    /// Workers currently inside a sweep. `run_items` returns when the item
    /// counter hits zero — which can be *before* every worker has observed
    /// the end of the sweep — so the next sweep must wait for this to drain
    /// or a laggard could execute fresh chunks with the previous sweep's
    /// (stale, possibly dangling) job pointer.
    in_sweep: AtomicUsize,
    gate: Gate,
    done: DoneGate,
    counters: Vec<CachePadded<WorkerCounters>>,
}

/// Work-stealing thread pool with persistent workers.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes sweeps: the pool supports one sweep at a time.
    run_lock: Mutex<()>,
    nthreads: usize,
}

impl WorkStealingPool {
    /// Spawn a pool with `nthreads` workers (at least 1).
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            in_sweep: AtomicUsize::new(0),
            deques: (0..nthreads).map(|_| CachePadded::default()).collect(),
            job: Mutex::new(None),
            grain: AtomicUsize::new(1),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            gate: Gate {
                epoch: Mutex::new((0, false)),
                wake: Condvar::new(),
            },
            done: DoneGate {
                flag: Mutex::new(true),
                cv: Condvar::new(),
            },
            counters: (0..nthreads).map(|_| CachePadded::default()).collect(),
        });
        let handles = (0..nthreads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bpmf-ws-{id}"))
                    .spawn(move || worker_loop(id, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkStealingPool {
            shared,
            handles,
            run_lock: Mutex::new(()),
            nthreads,
        }
    }

    /// Sweep `f` over `0..n` with an explicit splitting grain.
    pub fn run_with_grain<F>(&self, n: usize, grain: usize, f: F) -> RunStats
    where
        F: Fn(usize, usize) + Sync,
    {
        let _serial = self.run_lock.lock();
        // Retire laggards of the previous sweep before touching shared
        // state (see `Shared::in_sweep`).
        self.shared.drain_sweepers();
        if n == 0 {
            return RunStats {
                elapsed: Duration::ZERO,
                per_worker: vec![WorkerStats::default(); self.nthreads],
            };
        }
        let shared = &self.shared;
        for c in shared.counters.iter() {
            c.busy_ns.store(0, Ordering::Relaxed);
            c.items.store(0, Ordering::Relaxed);
            c.steals.store(0, Ordering::Relaxed);
        }
        shared.grain.store(grain.max(1), Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        shared.remaining.store(n, Ordering::Release);

        // Seed the injector with ~4 chunks per worker so the first steals
        // find work immediately; splitting handles the rest.
        let nchunks = (self.nthreads * 4).min(n);
        let per = n.div_ceil(nchunks);
        let mut injector = shared.injector.lock();
        let mut start = 0;
        while start < n {
            let end = (start + per).min(n);
            injector.push_back(start..end);
            start = end;
        }
        drop(injector);

        // SAFETY: the worker threads dereference this borrow only while
        // `remaining > 0` and no worker has panicked. We block below until
        // `remaining == 0` (the done gate), so the borrow outlives every
        // dereference; after a panic we clear the job slot and then wait
        // for every worker to leave the sweep before unwinding.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), Job>(&f) };
        *shared.job.lock() = Some(job);
        *shared.done.flag.lock() = false;

        let t0 = Instant::now();
        {
            let mut g = shared.gate.epoch.lock();
            g.0 += 1;
            shared.gate.wake.notify_all();
        }
        {
            let mut done = shared.done.flag.lock();
            while !*done {
                shared.done.cv.wait(&mut done);
            }
        }
        let elapsed = t0.elapsed();
        *shared.job.lock() = None;

        if shared.panicked.load(Ordering::Acquire) {
            // A worker that read the job before the slot was cleared is
            // still counted in `in_sweep`; one that reads it now sees
            // `None`. The aborted sweep's chunks must not reach the next.
            shared.drain_sweepers();
            shared.injector.lock().clear();
            for d in &shared.deques {
                d.lock().clear();
            }
            panic!("a worker panicked during WorkStealingPool::run_items");
        }

        RunStats {
            elapsed,
            per_worker: shared
                .counters
                .iter()
                .map(|c| WorkerStats {
                    busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
                    items: c.items.load(Ordering::Relaxed),
                    steals: c.steals.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// A reasonable default grain: big enough to amortize deque traffic,
    /// small enough that stealing can still balance (≈ 8 splits per worker).
    fn default_grain(&self, n: usize) -> usize {
        (n / (self.nthreads * 8)).clamp(1, 1024)
    }
}

impl ItemRunner for WorkStealingPool {
    fn run_items(
        &self,
        n: usize,
        _weights: Option<&[f64]>,
        _adj: Option<crate::Adjacency<'_>>,
        f: &(dyn Fn(usize, usize) + Sync),
    ) -> RunStats {
        // Stealing adapts at runtime; neither the static weight model nor
        // neighbor locking is needed.
        self.run_with_grain(n, self.default_grain(n), f)
    }

    fn threads(&self) -> usize {
        self.nthreads
    }

    fn name(&self) -> &'static str {
        "work-stealing"
    }
}

impl Shared {
    /// Wait until no worker is inside a sweep.
    fn drain_sweepers(&self) {
        while self.in_sweep.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Wake the master blocked in `run_with_grain`.
    fn signal_done(&self) {
        *self.done.flag.lock() = true;
        self.done.cv.notify_all();
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.gate.epoch.lock();
            g.1 = true;
            self.shared.gate.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(id: usize, shared: Arc<Shared>) {
    let mut last_epoch = 0u64;
    // Cheap xorshift for victim selection.
    let mut rng_state = (id as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    loop {
        {
            let mut g = shared.gate.epoch.lock();
            while g.0 == last_epoch && !g.1 {
                shared.gate.wake.wait(&mut g);
            }
            if g.1 {
                return;
            }
            last_epoch = g.0;
            // Registered while still holding the gate lock: the master only
            // advances the epoch after draining `in_sweep` to zero, so a
            // worker is either counted for the current sweep or has not yet
            // seen it — never half-entered into a stale one.
            shared.in_sweep.fetch_add(1, Ordering::AcqRel);
        }
        let job = *shared.job.lock();
        if let Some(job) = job {
            let grain = shared.grain.load(Ordering::Relaxed);
            // A panic anywhere in the sweep (the job, the deques, the
            // steal) must reach the caller: the panicking worker's chunk
            // never leaves `remaining`, so the done gate would never open.
            let swept = catch_unwind(AssertUnwindSafe(|| {
                sweep(id, &shared, job, grain, &mut rng_state)
            }));
            if swept.is_err() {
                shared.panicked.store(true, Ordering::Release);
                shared.signal_done();
            }
        }
        shared.in_sweep.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Execute work until the sweep's item counter reaches zero or a worker
/// has panicked.
fn sweep(id: usize, shared: &Shared, job: Job, grain: usize, rng_state: &mut u64) {
    let counters = &shared.counters[id];
    let own = &shared.deques[id];
    let mut idle_spins = 0u32;
    loop {
        if shared.panicked.load(Ordering::Acquire) {
            return;
        }
        // Its own statement: the guard must be gone before `find_work`
        // locks this deque again to refill it.
        let popped = own.lock().pop_back();
        let chunk = popped.or_else(|| {
            find_work(id, shared, rng_state).inspect(|_| {
                counters.steals.fetch_add(1, Ordering::Relaxed);
            })
        });
        match chunk {
            Some(mut cur) => {
                idle_spins = 0;
                // Split until at most `grain` items remain, leaving right
                // halves for thieves.
                if cur.len() > grain {
                    let mut own = own.lock();
                    while cur.len() > grain {
                        let mid = cur.start + cur.len() / 2;
                        own.push_back(mid..cur.end);
                        cur = cur.start..mid;
                    }
                }
                let len = cur.len();
                let t0 = Instant::now();
                for i in cur {
                    job(id, i);
                }
                counters
                    .busy_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                counters.items.fetch_add(len as u64, Ordering::Relaxed);
                if shared.remaining.fetch_sub(len, Ordering::AcqRel) == len {
                    shared.signal_done();
                }
            }
            None => {
                if shared.remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                // Nothing stealable yet but the sweep is not over: another
                // worker is inside a big leaf. Back off politely.
                idle_spins += 1;
                if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
    }
}

/// Steal: injector first (fresh chunks), then victim deques round-robin
/// from a random start.
fn find_work(id: usize, shared: &Shared, rng_state: &mut u64) -> Option<Chunk> {
    if let Some(c) = steal_batch(&shared.injector, &shared.deques[id]) {
        return Some(c);
    }
    let n = shared.deques.len();
    *rng_state ^= *rng_state << 13;
    *rng_state ^= *rng_state >> 7;
    *rng_state ^= *rng_state << 17;
    let start = (*rng_state as usize) % n;
    for k in 0..n {
        let victim = (start + k) % n;
        if victim == id {
            continue;
        }
        if let Some(c) = shared.deques[victim].lock().pop_front() {
            return Some(c);
        }
    }
    None
}

/// Take the injector's oldest chunk and move the next
/// `min(remaining / 2, 7)` into `own`, oldest first, so the thief's next
/// pops stay local. A one-thread sweep therefore visits items in index
/// order.
fn steal_batch(injector: &Deque, own: &Deque) -> Option<Chunk> {
    let mut injector = injector.lock();
    let first = injector.pop_front()?;
    let extra = (injector.len() / 2).min(7);
    own.lock().extend(injector.drain(..extra));
    #[cfg(test)]
    assert_ne!(
        injector.back().map(|c| c.end),
        Some(tests::STEAL_PANICS_AT),
        "injected steal panic"
    );
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_item_runs_exactly_once() {
        let pool = WorkStealingPool::new(4);
        let n = 10_000;
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let stats = pool.run_items(n, None, None, &|_, i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.total_items(), n as u64);
    }

    #[test]
    fn pool_is_reusable_across_sweeps() {
        let pool = WorkStealingPool::new(3);
        for round in 0..5 {
            let n = 100 * (round + 1);
            let hits = AtomicUsize::new(0);
            pool.run_items(n, None, None, &|_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn zero_items_is_a_noop() {
        let pool = WorkStealingPool::new(2);
        let stats = pool.run_items(0, None, None, &|_, _| panic!("must not run"));
        assert_eq!(stats.total_items(), 0);
    }

    #[test]
    fn imbalanced_items_get_stolen() {
        // Item 0 blocks its worker until some *other* worker has executed
        // an item — i.e. until a steal has observably happened — with a
        // generous timeout so a broken scheduler still fails rather than
        // hangs. This is deterministic on any core count (a pure
        // cost-imbalance version is timing luck on single-core hosts: one
        // worker can drain every chunk before the others are scheduled).
        let pool = WorkStealingPool::new(4);
        let n = 4096;
        let big_worker = AtomicUsize::new(usize::MAX);
        let other_ran = AtomicBool::new(false);
        let stats = pool.run_with_grain(n, 16, |worker, i| {
            if i == 0 {
                big_worker.store(worker, Ordering::SeqCst);
                let t0 = Instant::now();
                while !other_ran.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                    std::thread::yield_now();
                }
            } else if big_worker.load(Ordering::SeqCst) != usize::MAX
                && worker != big_worker.load(Ordering::SeqCst)
            {
                other_ran.store(true, Ordering::SeqCst);
            }
        });
        assert_eq!(stats.total_items(), n as u64);
        // More than one worker must have executed items.
        let active = stats.per_worker.iter().filter(|w| w.items > 0).count();
        assert!(
            active > 1,
            "expected stealing to spread work, stats: {stats:?}"
        );
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkStealingPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_items(100, None, None, &|_, i| {
                if i == 50 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool survives and is reusable after a propagated panic.
        let ok = AtomicUsize::new(0);
        pool.run_items(10, None, None, &|_, _| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10);
    }

    /// A sweep over this many items panics in `steal_batch` after a steal
    /// has filled the thief's deque, while the injector still holds the
    /// sweep's last chunk: the aborted sweep leaves chunks behind.
    pub(super) const STEAL_PANICS_AT: usize = 12_345;

    #[test]
    fn panic_outside_the_job_reaches_the_caller() {
        // Run on a helper thread so a hang fails the test instead of the
        // suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkStealingPool::new(2);
            let first = catch_unwind(AssertUnwindSafe(|| {
                pool.run_with_grain(STEAL_PANICS_AT, 64, |_, _| {})
            }));
            // The pool stays usable, and none of the aborted sweep's
            // chunks leak into the next one.
            let hits = AtomicUsize::new(0);
            pool.run_with_grain(1000, 64, |_, i| {
                assert!(i < 1000);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            tx.send((first.is_err(), hits.into_inner())).unwrap();
        });
        let got = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the sweep hung after a panic outside the job");
        assert_eq!(got, (true, 1000));
    }

    #[test]
    fn one_thread_sweep_runs_the_recorded_order() {
        // The order a one-thread sweep visits items in is part of the
        // chain (each draw advances the one worker's stream), so it is
        // pinned to the order checkpoints and traces were made with.
        let pool = WorkStealingPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run_with_grain(64, 4, |_, i| order.lock().push(i));
        assert_eq!(order.into_inner(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn injector_batches_run_in_the_recorded_order() {
        // The owner pops LIFO from its deque and refills it from the
        // injector in batches of at most 8, oldest first. The sequence
        // was recorded from the earlier lock-free deque on the same 100
        // one-item chunks.
        let mut want = Vec::new();
        for b in (0..88).step_by(8) {
            want.push(b);
            want.extend((b + 1..b + 8).rev());
        }
        want.extend([88, 93, 92, 91, 90, 89, 94, 96, 95, 97, 98, 99]);
        let injector: Deque = Mutex::new((0..100).map(|i| i..i + 1).collect());
        let own: Deque = Mutex::default();
        let mut seen = Vec::new();
        loop {
            let popped = own.lock().pop_back();
            match popped.or_else(|| steal_batch(&injector, &own)) {
                Some(c) => seen.push(c.start),
                None => break,
            }
        }
        assert_eq!(seen, want);
    }

    #[test]
    fn cache_padded_is_aligned() {
        let v = CachePadded(0u64);
        assert_eq!(std::mem::align_of_val(&v), 128);
        assert_eq!(*v, 0);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkStealingPool::new(1);
        let sum = AtomicUsize::new(0);
        pool.run_items(1000, None, None, &|_, i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }
}
