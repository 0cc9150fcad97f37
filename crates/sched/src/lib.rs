#![warn(missing_docs)]

//! Shared-memory runtimes for BPMF (paper §III).
//!
//! The paper compares three ways of driving the per-item update loop on one
//! node. This crate implements all three behind one trait so the sampler is
//! runtime-agnostic:
//!
//! * [`WorkStealingPool`] — the paper's TBB analogue: persistent workers,
//!   per-worker LIFO deques, a global injector, random stealing, and
//!   recursive chunk splitting. Load imbalance (items with wildly different
//!   rating counts) is absorbed by stealing.
//! * [`StaticPool`] — the OpenMP analogue: each thread receives one
//!   contiguous chunk per run (optionally weighted by the workload model)
//!   and a barrier closes the loop. No stealing: whatever imbalance the
//!   up-front split leaves is paid in idle time, which is exactly the gap
//!   Fig. 3 shows between OpenMP and TBB.
//! * [`VertexEngine`] — the GraphLab-analogue baseline: a bulk-synchronous
//!   vertex engine that charges per-vertex locking and a single shared work
//!   queue, modelling the consistency machinery a general graph framework
//!   pays that a specialized sampler does not.
//!
//! All three report [`RunStats`] (per-worker busy time, items, steals), so a
//! run can show *why* the ordering comes out the way it does. To compare
//! them on Fig. 3's workload, write a ChEMBL-shaped matrix with `gen_mtx
//! --kind chembl` and run `bpmf-train --engine ws|static|graphlab
//! --threads T` on it; each iteration prints `items_per_sec`.

mod static_pool;
mod stats;
mod vertex;
mod workstealing;

pub use static_pool::StaticPool;
pub use stats::{RunStats, WorkerStats};
pub use vertex::VertexEngine;
pub use workstealing::WorkStealingPool;

/// CSR-style neighbor lists of the items being swept, for runtimes that
/// charge consistency costs per neighbor (the GraphLab-like engine).
#[derive(Clone, Copy, Debug)]
pub struct Adjacency<'a> {
    /// `offsets[i]..offsets[i+1]` indexes `indices` for item `i`.
    pub offsets: &'a [usize],
    /// Neighbor ids (counterpart-side items).
    pub indices: &'a [u32],
    /// Size of the neighbor id domain.
    pub neighbor_domain: usize,
}

/// A runtime that can sweep `f` over `0..n` items, exactly once each.
///
/// `f(worker, item)` must be safe to call concurrently from different
/// workers on different items; `weights` (modeled per-item cost, paper
/// §IV-B) lets weight-aware runtimes pre-balance their distribution, and
/// `adj` lets consistency-charging runtimes lock neighbors.
pub trait ItemRunner: Send + Sync {
    /// Sweep items `0..n`, returning per-worker accounting.
    fn run_items(
        &self,
        n: usize,
        weights: Option<&[f64]>,
        adj: Option<Adjacency<'_>>,
        f: &(dyn Fn(usize, usize) + Sync),
    ) -> RunStats;

    /// Number of worker threads.
    fn threads(&self) -> usize;

    /// Human-readable runtime name (used in benchmark tables).
    fn name(&self) -> &'static str;
}
