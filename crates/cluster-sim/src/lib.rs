#![warn(missing_docs)]

//! Discrete-event performance simulation of distributed BPMF on a
//! BlueGene/Q-like machine (the substitution for the paper's Fermi system).
//!
//! The host container cannot run 1024 MPI nodes, so Figs. 4–5 are
//! extrapolated by simulating the *same schedule* the real driver in
//! `bpmf::distributed` executes: per-node weighted item sweeps, buffered
//! sends generated as computation progresses, and a per-source drain at the
//! end of each phase. Three hardware effects — all absent from the in-process
//! runtime but decisive on the real machine — are modeled explicitly:
//!
//! 1. **Cache capacity** ([`ComputeModel::cache_bytes`]): per-node factor
//!    working set shrinks as nodes are added; once it fits in cache the
//!    per-rating cost drops, producing the paper's *super-linear* region
//!    below one rack.
//! 2. **Two-level network** ([`Topology`]): every node owns a NIC with
//!    intra-rack bandwidth, every rack shares one uplink. Traffic that stays
//!    inside a 32-node rack scales with node count; cross-rack traffic
//!    serializes on the uplinks — the collapse past one rack in Fig. 4.
//! 3. **Per-message cost** ([`ComputeModel::seconds_per_message`]): the MPI
//!    software overhead that makes item-granular sends untenable (§IV-C) and
//!    that dominates at high node counts in Fig. 5.
//!
//! The simulator is calibrated with per-rating/per-item costs measured on
//! the host by the Fig. 2 harness (`bpmf_bench::calibrate`); the layered
//! benchmark's `dist_chembl` workload reports the resulting prediction as
//! `cluster_sim.predicted_scale_eff` beside the measured `dist.scale_eff`.

mod model;
mod sim;
pub mod workload;

pub use model::{ComputeModel, PhaseLoad, Topology};
pub use sim::{simulate_iteration, NodeAccounting, SimResult};
pub use workload::phase_loads;
