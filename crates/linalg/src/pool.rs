//! Persistent fork-join pool for intra-item kernel parallelism.
//!
//! The parallel item-update kernel (paper Fig. 2, the ≥1000-rating path)
//! splits one item's rating accumulation across `kernel_threads` chunks.
//! Spawning fresh OS threads for every heavy item charges thread-creation
//! latency per item per sweep; this pool keeps a fixed set of workers parked
//! on a condvar and hands them chunk indices instead.
//!
//! The calling thread participates: it grabs chunk indices from the same
//! queue as the workers, so a request for `n` chunks makes progress even
//! when the pool has zero workers (single-core hosts) and the caller is
//! never idle while work remains. `run` does not return until every chunk
//! has executed, which is what makes the lifetime erasure of the job
//! closure sound (see `SAFETY` below — the same discipline as
//! `bpmf-sched`'s `WorkStealingPool`).
//!
//! Chunk handoff goes through a mutex rather than lock-free queues: a chunk
//! here is thousands of rating-row gathers plus a rank-d panel update, so
//! one uncontended lock per chunk is noise. The scheduler's work-stealing
//! deques lock for the same reason: each deque operation there moves a
//! whole range of items, and a sweep makes a few hundred of them.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = &'static (dyn Fn(usize) + Sync);

thread_local! {
    /// True while this thread is executing a pool chunk. A nested
    /// `KernelPool::run` from inside a chunk would deadlock on the single
    /// job slot (the outer job cannot finish while the nested call waits,
    /// and the nested call cannot start until it does), so `run` checks
    /// this and falls back to executing the nested job inline.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

struct State {
    /// Incremented per `run`; workers use it to detect fresh jobs.
    epoch: u64,
    shutdown: bool,
    /// Lifetime-erased current job; `None` between runs.
    job: Option<Job>,
    /// Next chunk index to hand out.
    next: usize,
    /// Total chunks in the current job.
    nchunks: usize,
    /// Chunks fully executed (incremented even when the chunk panicked).
    done: usize,
    panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here until `done == nchunks`.
    done_cv: Condvar,
}

/// Fork-join pool with persistent, parked workers.
pub struct KernelPool {
    shared: &'static Shared,
    handles: Vec<JoinHandle<()>>,
}

impl KernelPool {
    fn with_workers(nworkers: usize) -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                shutdown: false,
                job: None,
                next: 0,
                nchunks: 0,
                done: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        let handles = (0..nworkers)
            .map(|id| {
                std::thread::Builder::new()
                    .name(format!("bpmf-kernel-{id}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn kernel pool worker")
            })
            .collect();
        KernelPool { shared, handles }
    }

    /// Execute `f(0..nchunks)` across the pool plus the calling thread.
    ///
    /// Returns once every chunk has run. Concurrent callers are serialized
    /// — the pool runs one job at a time. This is a deliberate trade-off:
    /// the pool is sized to the machine (`cores − 1` workers), so two jobs
    /// running concurrently would only oversubscribe the same cores; with
    /// serialization the second caller lends itself to the queue instead
    /// of thrashing. The cost is that simultaneous heavy items from
    /// different scheduler workers proceed one at a time (each still using
    /// every core) rather than interleaved. A panic inside `f` is
    /// re-raised on the caller after the remaining chunks finish.
    pub fn run(&self, nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if nchunks == 0 {
            return;
        }
        if IN_POOL_JOB.with(Cell::get) {
            // Re-entrant call from inside a pool chunk (e.g. a pool-backed
            // kernel invoked from another kernel's chunk closure): execute
            // inline rather than deadlocking on the job slot. A panic
            // propagates directly off the calling chunk.
            for c in 0..nchunks {
                f(c);
            }
            return;
        }
        // SAFETY: executors re-read the job slot under the same lock in
        // which they grab a chunk index, so this reference is dereferenced
        // only while a chunk of *this* job is outstanding; `run` blocks
        // below until `done == nchunks`, i.e. until every such execution
        // has finished, so the borrow of `f` (and everything it captures)
        // outlives every dereference. The slot is cleared before returning.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(f) };
        {
            let mut st = lock(&self.shared.state);
            // One job at a time: wait out any job still in flight (another
            // caller's), identified by a non-empty slot.
            while st.job.is_some() {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.epoch += 1;
            st.job = Some(job);
            st.next = 0;
            st.nchunks = nchunks;
            st.done = 0;
            st.panicked = false;
            self.shared.work_cv.notify_all();
        }

        // The caller works the same chunk queue as the pool threads.
        run_chunks(self.shared);

        let mut st = lock(&self.shared.state);
        while st.done < st.nchunks {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panicked;
        // Wake any caller queued on the job slot.
        self.shared.done_cv.notify_all();
        drop(st);
        if panicked {
            panic!("a kernel pool chunk panicked");
        }
    }

    /// Number of parked worker threads (the caller adds one more lane).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // `shared` itself was leaked and stays alive (it is 'static); only
        // the worker threads are reclaimed. The process-wide singleton is
        // never dropped, so this mostly serves tests and ad-hoc pools.
    }
}

fn lock(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Grab-and-execute chunks of the current job until none remain.
///
/// The job pointer is re-read in the same critical section that hands out
/// the chunk index, so a chunk is always executed with the closure of the
/// job it belongs to — a thread that slept through a job change can never
/// run a fresh chunk against a stale (dangling) pointer.
fn run_chunks(shared: &Shared) {
    loop {
        let (c, job) = {
            let mut st = lock(&shared.state);
            if st.next >= st.nchunks {
                return;
            }
            let Some(job) = st.job else { return };
            let c = st.next;
            st.next += 1;
            (c, job)
        };
        IN_POOL_JOB.with(|flag| flag.set(true));
        let ok = catch_unwind(AssertUnwindSafe(|| job(c))).is_ok();
        IN_POOL_JOB.with(|flag| flag.set(false));
        let mut st = lock(&shared.state);
        if !ok {
            st.panicked = true;
        }
        st.done += 1;
        if st.done == st.nchunks {
            shared.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    let mut seen_epoch = 0u64;
    loop {
        {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        run_chunks(shared);
    }
}

/// The process-wide kernel pool, created on first use with
/// `available_parallelism() - 1` workers (the caller is the remaining lane).
pub fn kernel_pool() -> &'static KernelPool {
    static POOL: OnceLock<KernelPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
        KernelPool::with_workers(lanes.saturating_sub(1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = KernelPool::with_workers(3);
        for round in 1..6 {
            let n = round * 7;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, &|c| {
                counts[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn zero_workers_still_completes() {
        let pool = KernelPool::with_workers(0);
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        let pool = KernelPool::with_workers(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn nested_run_from_inside_a_chunk_executes_inline() {
        // A pool-backed kernel invoked from another kernel's chunk must
        // complete (inline) instead of deadlocking on the job slot.
        let pool = KernelPool::with_workers(2);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run(4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            pool.run(3, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
        assert_eq!(inner.load(Ordering::Relaxed), 4 * 3);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = KernelPool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|c| {
                if c == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_callers_serialize_without_loss() {
        let pool = std::sync::Arc::new(KernelPool::with_workers(2));
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..10 {
                        pool.run(6, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 6);
    }
}
