//! Request coalescing: a bounded MPSC queue with a deadline/size batcher.
//!
//! The serving daemon's heart. Connection readers [`Queue::submit`]
//! requests as they arrive; workers [`Queue::next_batch`] them back out in
//! blocks shaped for the GEMM micro-batch path. A batch flushes when
//! either
//!
//! * `min(max_batch, queue_cap)` requests are pending (**size flush** — a
//!   full [`crate::serve::MICRO_BATCH`] block is the most GEMM-efficient
//!   unit there is, and a full queue can grow no bigger, so there is no
//!   reason to wait), or
//! * the *oldest* pending request has waited `batch_window` (**deadline
//!   flush** — bounds the queueing latency a lone request can pay for the
//!   chance of sharing a catalogue pass).
//!
//! A worker that comes free while requests are pending and has no reason
//! to wait — the window is zero, or the queue is draining — also flushes
//! (**pending-at-free flush**). Either way the batch takes everything
//! pending, up to `max_batch`; [`Queue::flushes`] counts each cause.
//! `batch_window == 0`, the default, never waits: `next_batch` returns as
//! soon as anything is pending. A request reaching an idle worker is
//! served at once, and under load the backlog that builds while one batch
//! is scored fills the next, so batches still grow with traffic. A nonzero
//! window adds up to that much latency to every partial batch in exchange
//! for bigger batches from arrivals spaced below saturation. The queue is
//! **bounded** (`queue_cap`): submitters block while it is full, which is
//! the backpressure that keeps a traffic spike from ballooning memory —
//! TCP readers stall, the kernel's socket buffers fill, and clients feel
//! the slowdown instead of the daemon falling over.
//!
//! Shutdown is **draining**: after [`Queue::shutdown`], new submissions
//! are refused (`Err` hands the job back) but everything already queued
//! is still handed out in batches; `next_batch` returns `None` only once
//! the queue is empty. This is generic plumbing — jobs are any `Send`
//! payload — so the batching rules are unit-testable without a model or a
//! socket in sight.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batching knobs for a [`Queue`].
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Flush as soon as this many requests are pending. One GEMM
    /// micro-batch ([`crate::serve::MICRO_BATCH`]) by default.
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this long.
    /// `Duration::ZERO` (the default) never waits: a free worker takes
    /// whatever is pending.
    pub batch_window: Duration,
    /// Queue capacity; submitters block while this many are pending.
    pub queue_cap: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_batch: crate::serve::MICRO_BATCH,
            batch_window: Duration::ZERO,
            queue_cap: 1024,
        }
    }
}

/// Batches released by each flush rule (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// A full batch was pending, or a full queue.
    pub size: u64,
    /// A worker came free with requests pending and nothing to wait for:
    /// a zero window, or a draining queue.
    pub pending_at_free: u64,
    /// The oldest pending request waited out `batch_window`.
    pub deadline: u64,
}

#[derive(Default)]
struct FlushCounters {
    size: AtomicU64,
    pending_at_free: AtomicU64,
    deadline: AtomicU64,
}

struct State<T> {
    /// Pending jobs with their arrival times (front = oldest).
    queue: VecDeque<(T, Instant)>,
    /// Set once; submissions refused, workers drain then see `None`.
    draining: bool,
}

/// The bounded coalescing queue (see the module docs).
pub struct Queue<T> {
    cfg: CoalesceConfig,
    state: Mutex<State<T>>,
    /// Signals workers: jobs arrived or shutdown began.
    not_empty: Condvar,
    /// Signals submitters: capacity freed.
    not_full: Condvar,
    flushes: FlushCounters,
}

impl<T> Queue<T> {
    /// An empty queue with the given batching rules. `max_batch` and
    /// `queue_cap` are clamped to at least 1.
    pub fn new(cfg: CoalesceConfig) -> Self {
        Queue {
            cfg: CoalesceConfig {
                max_batch: cfg.max_batch.max(1),
                queue_cap: cfg.queue_cap.max(1),
                ..cfg
            },
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            flushes: FlushCounters::default(),
        }
    }

    /// The configured batching rules.
    pub fn config(&self) -> &CoalesceConfig {
        &self.cfg
    }

    /// Enqueue one job. Blocks while the queue is at capacity
    /// (backpressure); returns the job back as `Err` once
    /// [`Queue::shutdown`] has been called.
    pub fn submit(&self, job: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.draining {
                return Err(job);
            }
            if st.queue.len() < self.cfg.queue_cap {
                break;
            }
            st = self.not_full.wait(st).unwrap();
        }
        st.queue.push_back((job, Instant::now()));
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Batches released so far, by flush rule.
    pub fn flushes(&self) -> FlushCounts {
        let f = &self.flushes;
        FlushCounts {
            size: f.size.load(Ordering::Relaxed),
            pending_at_free: f.pending_at_free.load(Ordering::Relaxed),
            deadline: f.deadline.load(Ordering::Relaxed),
        }
    }

    /// Number of jobs currently pending.
    pub fn pending(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Block until a batch is due under the flush rules and return it
    /// (oldest first, at most `max_batch` jobs). Returns `None` when the
    /// queue has been shut down *and* fully drained — the worker-loop
    /// exit signal.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.queue.is_empty() {
                if st.draining {
                    return None;
                }
                st = self.not_empty.wait(st).unwrap();
                continue;
            }
            // Shutdown flushes immediately: latency no longer buys
            // anything once no new requests can join the batch. Neither
            // does a full queue, even one capped below `max_batch`.
            if st.queue.len() >= self.cfg.max_batch.min(self.cfg.queue_cap) {
                return Some(self.drain(&mut st, &self.flushes.size));
            }
            if self.cfg.batch_window.is_zero() || st.draining {
                return Some(self.drain(&mut st, &self.flushes.pending_at_free));
            }
            let deadline = st.queue.front().unwrap().1 + self.cfg.batch_window;
            let now = Instant::now();
            if now >= deadline {
                return Some(self.drain(&mut st, &self.flushes.deadline));
            }
            // Re-check on every wake: a submit may have filled the batch,
            // shutdown may have begun, or the deadline may have passed.
            let (guard, _) = self.not_empty.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    fn drain(&self, st: &mut State<T>, cause: &AtomicU64) -> Vec<T> {
        cause.fetch_add(1, Ordering::Relaxed);
        let take = st.queue.len().min(self.cfg.max_batch);
        let batch = st.queue.drain(..take).map(|(job, _)| job).collect();
        self.not_full.notify_all();
        batch
    }

    /// Stop accepting submissions and wake everyone. Jobs already queued
    /// are still handed out; `next_batch` returns `None` once empty.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().draining = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Instant;

    fn queue(max_batch: usize, window_ms: u64, cap: usize) -> Queue<u32> {
        Queue::new(CoalesceConfig {
            max_batch,
            batch_window: Duration::from_millis(window_ms),
            queue_cap: cap,
        })
    }

    #[test]
    fn size_flush_does_not_wait_for_the_deadline() {
        // Window far longer than the test: only the size rule can flush.
        let q = queue(4, 60_000, 64);
        for j in 0..4 {
            q.submit(j).unwrap();
        }
        let t0 = Instant::now();
        let batch = q.next_batch().unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "size flush must not sit out the 60s window"
        );
        assert_eq!(
            q.flushes(),
            FlushCounts {
                size: 1,
                ..FlushCounts::default()
            }
        );
    }

    #[test]
    fn queue_capped_below_max_batch_flushes_when_full() {
        // `max_batch` can never be reached through a cap of 4: a full
        // queue is the size flush.
        let q = queue(64, 60_000, 4);
        for j in 0..4 {
            q.submit(j).unwrap();
        }
        let t0 = Instant::now();
        assert_eq!(q.next_batch().unwrap(), vec![0, 1, 2, 3]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a full queue must not sit out the 60s window"
        );
    }

    #[test]
    fn deadline_flush_returns_a_partial_batch() {
        let window = Duration::from_millis(40);
        let q = queue(64, 40, 64);
        q.submit(7).unwrap();
        q.submit(8).unwrap();
        let t0 = Instant::now();
        let batch = q.next_batch().unwrap();
        assert_eq!(batch, vec![7, 8]);
        // Condvar wakeups can be early-but-rechecked or late under load;
        // the lower bound is the contract (don't flush a partial batch
        // before the window). The upper bound is only a sanity margin —
        // generous, because the whole workspace test suite may be
        // time-sharing one core with this thread.
        assert!(t0.elapsed() >= window, "flushed before the deadline");
        assert!(t0.elapsed() < window * 500, "deadline wildly overshot");
        assert_eq!(
            q.flushes(),
            FlushCounts {
                deadline: 1,
                ..FlushCounts::default()
            }
        );
    }

    #[test]
    fn zero_window_serves_per_request() {
        let q = queue(64, 0, 64);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        // Flushes whatever is pending without any deadline wait; a backlog
        // still shares one batch.
        assert_eq!(q.next_batch().unwrap(), vec![1, 2]);
        assert_eq!(
            q.flushes(),
            FlushCounts {
                pending_at_free: 1,
                ..FlushCounts::default()
            }
        );
    }

    #[test]
    fn oversize_backlog_flushes_in_max_batch_chunks() {
        let q = queue(3, 0, 64);
        for j in 0..8 {
            q.submit(j).unwrap();
        }
        let sizes: Vec<usize> = (0..3).map(|_| q.next_batch().unwrap().len()).collect();
        assert_eq!(sizes, vec![3, 3, 2], "oldest-first, capped at max_batch");
    }

    #[test]
    fn bounded_queue_blocks_submitters_until_a_batch_frees_space() {
        let q = Arc::new(queue(64, 60_000, 4));
        for j in 0..4 {
            q.submit(j).unwrap();
        }
        let (started_tx, started_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            q2.submit(99).unwrap(); // must block: queue is at capacity
            done_tx.send(()).unwrap();
        });
        started_rx.recv().unwrap();
        // The submitter must still be blocked after a generous grace
        // period with the queue full.
        assert!(
            done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "submit returned while the queue was full"
        );
        assert_eq!(q.pending(), 4);
        // Draining one batch frees capacity and unblocks it.
        let batch = q.next_batch().unwrap();
        assert_eq!(batch.len(), 4);
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("submitter unblocked after drain");
        submitter.join().unwrap();
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn shutdown_drains_pending_jobs_then_signals_none() {
        // Long window: only shutdown can flush this partial batch fast.
        let q = queue(64, 60_000, 64);
        for j in 0..5 {
            q.submit(j).unwrap();
        }
        q.shutdown();
        assert_eq!(q.submit(99), Err(99), "no submissions after shutdown");
        let t0 = Instant::now();
        let batch = q.next_batch().expect("queued jobs survive shutdown");
        assert_eq!(batch, vec![0, 1, 2, 3, 4]);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown flush must not wait for the window"
        );
        assert!(q.next_batch().is_none(), "drained queue reports None");
        assert!(q.next_batch().is_none(), "None is sticky");
        assert_eq!(
            q.flushes().pending_at_free,
            1,
            "a draining flush waits for nothing"
        );
        assert_eq!(q.flushes().deadline, 0);
    }

    #[test]
    fn shutdown_wakes_a_blocked_worker() {
        let q = Arc::new(queue(64, 60_000, 64));
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || q2.next_batch());
        std::thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert_eq!(worker.join().unwrap(), None);
    }
}
