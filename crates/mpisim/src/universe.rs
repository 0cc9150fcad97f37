//! The rank universe: shared mailboxes, barrier, abort handling, and the
//! scoped runner.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::net::NetModel;
use crate::Tag;

pub(crate) struct Message {
    pub src: u32,
    pub tag: Tag,
    /// Earliest instant the receiver may observe this message (network
    /// model); `None` = immediately visible.
    pub ready_at: Option<Instant>,
    pub payload: Bytes,
}

pub(crate) struct Mailbox {
    pub queue: Mutex<VecDeque<Message>>,
    pub arrived: Condvar,
}

pub(crate) struct CentralBarrier {
    state: Mutex<(usize, u64)>, // (waiting count, generation)
    cv: Condvar,
    n: usize,
    poisoned: AtomicBool,
}

impl CentralBarrier {
    fn new(n: usize) -> Self {
        CentralBarrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            n,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Wake every waiter; subsequent and in-progress waits panic. Called when
    /// the universe aborts — a dead rank will never arrive, so letting the
    /// survivors sleep would hang the whole run.
    fn poison(&self) {
        let _guard = self.state.lock();
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    pub fn wait(&self) {
        let mut s = self.state.lock();
        assert!(
            !self.poisoned.load(Ordering::SeqCst),
            "barrier poisoned: universe aborted"
        );
        let gen = s.1;
        s.0 += 1;
        if s.0 == self.n {
            s.0 = 0;
            s.1 += 1;
            self.cv.notify_all();
        } else {
            while s.1 == gen {
                self.cv.wait(&mut s);
                assert!(
                    !self.poisoned.load(Ordering::SeqCst),
                    "barrier poisoned: universe aborted"
                );
            }
        }
    }
}

pub(crate) struct UniverseShared {
    pub nranks: usize,
    pub mailboxes: Vec<Mailbox>,
    pub barrier: CentralBarrier,
    pub net: Option<NetModel>,
    /// Messages sent by rank `r` that no receiver has consumed yet. A rank
    /// whose counter is non-zero has communication "in flight" — the
    /// predicate behind the compute/both split of Fig. 5.
    pub inflight_from: Vec<AtomicUsize>,
    /// Set when some rank panicked (or called [`Comm::abort`]); blocked
    /// communication calls on every other rank observe it and panic instead
    /// of waiting for a message that will never come.
    pub aborted: AtomicBool,
    pub abort_rank: AtomicUsize,
}

impl UniverseShared {
    /// `MPI_Abort` semantics: poison the universe so every blocked or future
    /// communication call fails fast, then wake all sleepers. Idempotent —
    /// the first caller wins and is recorded as the aborting rank.
    pub(crate) fn trigger_abort(&self, rank: usize) {
        if self.aborted.swap(true, Ordering::SeqCst) {
            return;
        }
        self.abort_rank.store(rank, Ordering::SeqCst);
        // Wake receivers blocked on their mailbox condvars. Taking each
        // queue lock orders the wakeup after the flag store, so a receiver
        // either sees the flag at its loop head or is parked and notified.
        for mailbox in &self.mailboxes {
            let _guard = mailbox.queue.lock();
            mailbox.arrived.notify_all();
        }
        self.barrier.poison();
    }

    /// Panic if the universe has been aborted. Every blocking-loop iteration
    /// in the runtime calls this.
    pub(crate) fn check_abort(&self) {
        if self.aborted.load(Ordering::SeqCst) {
            panic!(
                "universe aborted by rank {}",
                self.abort_rank.load(Ordering::SeqCst)
            );
        }
    }
}

/// Entry point of the message-passing runtime: spawns `nranks` rank threads
/// and runs the same program on each, MPI-style (SPMD).
pub struct Universe;

impl Universe {
    /// Run `f` as rank `0..nranks`, returning each rank's result in rank
    /// order. `net = None` delivers messages immediately; a [`NetModel`]
    /// delays visibility per message size.
    ///
    /// If any rank panics the universe is aborted (`MPI_Abort` semantics):
    /// every rank blocked in a communication call is woken and fails, all
    /// threads are joined, and this function re-panics with the *original*
    /// rank's panic message — not the secondary "universe aborted" echoes.
    pub fn run<T, F>(nranks: usize, net: Option<NetModel>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        let shared = UniverseShared {
            nranks,
            mailboxes: (0..nranks)
                .map(|_| Mailbox {
                    queue: Mutex::new(VecDeque::new()),
                    arrived: Condvar::new(),
                })
                .collect(),
            barrier: CentralBarrier::new(nranks),
            net,
            inflight_from: (0..nranks).map(|_| AtomicUsize::new(0)).collect(),
            aborted: AtomicBool::new(false),
            abort_rank: AtomicUsize::new(usize::MAX),
        };
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let shared = &shared;
                    let f = &f;
                    std::thread::Builder::new()
                        .name(format!("bpmf-rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let mut comm = Comm::new(rank, shared);
                                    f(&mut comm)
                                }));
                            if result.is_err() {
                                shared.trigger_abort(rank);
                            }
                            result
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread itself cannot panic"))
                .collect::<Vec<_>>()
        });
        let panic_message = |e: &(dyn std::any::Any + Send)| -> String {
            if let Some(s) = e.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = e.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_string()
            }
        };
        // Report the root cause: prefer a panic that is not an abort echo.
        let mut first_failure: Option<(usize, String)> = None;
        for (rank, r) in results.iter().enumerate() {
            if let Err(e) = r {
                let msg = panic_message(e.as_ref());
                let is_echo = msg.contains("universe aborted") || msg.contains("barrier poisoned");
                match &first_failure {
                    None => first_failure = Some((rank, msg)),
                    Some((_, prev)) => {
                        let prev_is_echo =
                            prev.contains("universe aborted") || prev.contains("barrier poisoned");
                        if prev_is_echo && !is_echo {
                            first_failure = Some((rank, msg));
                        }
                    }
                }
            }
        }
        if let Some((rank, msg)) = first_failure {
            panic!("rank {rank} panicked: {msg}");
        }
        results
            .into_iter()
            .map(|r| r.expect("failures handled above"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids_and_sizes() {
        let out = Universe::run(4, None, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn barrier_separates_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1_done = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        Universe::run(4, None, |comm| {
            phase1_done.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            if phase1_done.load(Ordering::SeqCst) != 4 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::run(1, None, |comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(out, vec![0]);
    }
}
