//! Machine and workload models.

use serde::{Deserialize, Serialize};

/// Two-level interconnect: per-node NICs inside a rack, one shared uplink
/// per rack for cross-rack traffic.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Topology {
    /// Nodes per rack (32 on BlueGene/Q — "one node rack on this system").
    pub nodes_per_rack: usize,
    /// Hardware threads per node contributing to the item sweeps.
    pub cores_per_node: usize,
    /// NIC bandwidth per node for intra-rack traffic (bytes/s).
    pub intra_rack_bw: f64,
    /// Shared uplink bandwidth per rack for cross-rack traffic (bytes/s).
    pub inter_rack_bw: f64,
    /// Per-message latency (seconds), covering MPI software + wire.
    pub latency_s: f64,
}

impl Topology {
    /// A BlueGene/Q-shaped machine. Bandwidths are fitted to the machine
    /// class, not vendor sheets: the 5D-torus injection bandwidth per node
    /// (10 links × 2 GB/s on the real machine) makes intra-rack traffic
    /// cheap relative to compute, while the per-rack uplink share makes
    /// cross-rack traffic expensive — which is what produces the published
    /// Fig. 4 knee at one rack. The layered benchmark reports what this
    /// model predicts for the measured run as
    /// `cluster_sim.predicted_scale_eff`, beside the measured
    /// `dist.scale_eff`.
    pub fn bluegene_q_like() -> Self {
        Topology {
            nodes_per_rack: 32,
            cores_per_node: 16,
            intra_rack_bw: 8.0e9,
            inter_rack_bw: 4.0e9, // shared by the whole rack
            latency_s: 4.0e-6,
        }
    }

    /// A small commodity cluster (the paper's Lynx: 20 nodes, 12 cores).
    pub fn lynx_like() -> Self {
        Topology {
            nodes_per_rack: 20,
            cores_per_node: 12,
            intra_rack_bw: 1.2e9,
            inter_rack_bw: 2.4e9,
            latency_s: 20.0e-6,
        }
    }

    /// Rack index of a node.
    #[inline]
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.nodes_per_rack
    }
}

/// Calibrated per-node compute cost model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Seconds per rating accumulation on one core.
    pub seconds_per_rating: f64,
    /// Fixed seconds per item update on one core (solve + sampling).
    pub seconds_per_item: f64,
    /// Per-message software overhead in seconds (send + receive side).
    pub seconds_per_message: f64,
    /// Effective cache per node in bytes (BG/Q: 32 MB L2).
    pub cache_bytes: f64,
    /// Memory-bound penalty multiplier when the working set spills far
    /// beyond cache (cost approaches `(1 + mem_penalty) ×` the in-cache
    /// cost).
    pub mem_penalty: f64,
    /// Fraction of ideal per-node thread scaling actually achieved.
    pub parallel_efficiency: f64,
}

impl ComputeModel {
    /// Constants of the paper era (Westmere/BG-Q class cores), used when no
    /// host calibration is supplied. `cache_bytes` is the *effective*
    /// capacity per node (smaller than the 32 MB L2 spec: the sampler shares
    /// it with the rating stream), fitted so the full-size MovieLens working
    /// set transitions from memory-bound to cache-resident across the 1–32
    /// node range — the paper's super-linear region.
    pub fn default_calibration() -> Self {
        ComputeModel {
            seconds_per_rating: 2.0e-7,
            seconds_per_item: 6.0e-6,
            seconds_per_message: 3.0e-6,
            cache_bytes: 12.0 * 1024.0 * 1024.0,
            mem_penalty: 0.5,
            parallel_efficiency: 0.85,
        }
    }

    /// Cache-capacity multiplier: 1.0 when the per-node working set fits in
    /// cache, rising smoothly toward `1 + mem_penalty` as it spills.
    pub fn cache_multiplier(&self, working_set_bytes: f64) -> f64 {
        if working_set_bytes <= self.cache_bytes {
            1.0
        } else {
            1.0 + self.mem_penalty * (1.0 - self.cache_bytes / working_set_bytes)
        }
    }

    /// Effective speedup from `cores` threads: one core is the baseline,
    /// each additional core contributes `parallel_efficiency` of a core
    /// (Amdahl-flavored linear model, adequate at BPMF's thread counts).
    pub fn thread_speedup(&self, cores: usize) -> f64 {
        1.0 + (cores.max(1) as f64 - 1.0) * self.parallel_efficiency
    }

    /// Seconds of one node's compute for a phase: `cost_units` charged at
    /// the calibrated rates, divided over the node's cores, scaled by the
    /// cache multiplier.
    pub fn node_compute_seconds(
        &self,
        ratings: f64,
        items: f64,
        working_set_bytes: f64,
        cores: usize,
    ) -> f64 {
        let serial = ratings * self.seconds_per_rating + items * self.seconds_per_item;
        serial * self.cache_multiplier(working_set_bytes) / self.thread_speedup(cores)
    }
}

/// One phase (one side's sweep) of the distributed schedule, aggregated per
/// node. Built by the caller from the actual partition and communication
/// plan of the workload being simulated.
#[derive(Clone, Debug, Default)]
pub struct PhaseLoad {
    /// Per node: total rating accumulations this phase.
    pub node_ratings: Vec<f64>,
    /// Per node: items updated this phase.
    pub node_items: Vec<f64>,
    /// Per node: list of `(destination node, items to send)`.
    pub node_sends: Vec<Vec<(u32, u32)>>,
    /// Per node: factor bytes touched this phase (own items + counterpart
    /// rows read), for the cache model.
    pub node_working_set: Vec<f64>,
    /// Payload bytes per shipped item (`(K + 1) × 8`).
    pub bytes_per_item: usize,
}

impl PhaseLoad {
    /// Number of nodes this phase is laid out for.
    pub fn nodes(&self) -> usize {
        self.node_ratings.len()
    }

    /// Sanity-check internal consistency.
    pub fn validate(&self) {
        let n = self.nodes();
        assert_eq!(self.node_items.len(), n, "node_items length mismatch");
        assert_eq!(self.node_sends.len(), n, "node_sends length mismatch");
        assert_eq!(
            self.node_working_set.len(),
            n,
            "node_working_set length mismatch"
        );
        for sends in &self.node_sends {
            for &(dst, _) in sends {
                assert!((dst as usize) < n, "send destination {dst} out of range");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_multiplier_is_monotone() {
        let m = ComputeModel::default_calibration();
        let small = m.cache_multiplier(1.0e6);
        let fits = m.cache_multiplier(m.cache_bytes);
        let spill2 = m.cache_multiplier(2.0 * m.cache_bytes);
        let spill100 = m.cache_multiplier(100.0 * m.cache_bytes);
        assert_eq!(small, 1.0);
        assert_eq!(fits, 1.0);
        assert!(spill2 > 1.0);
        assert!(spill100 > spill2);
        assert!(spill100 <= 1.0 + m.mem_penalty + 1e-12);
    }

    #[test]
    fn node_compute_scales_with_cores() {
        let m = ComputeModel::default_calibration();
        let t1 = m.node_compute_seconds(1e6, 1e4, 1e6, 1);
        let t16 = m.node_compute_seconds(1e6, 1e4, 1e6, 16);
        let expected = m.thread_speedup(16); // 1 + 15 × 0.85
        assert!((t1 / t16 - expected).abs() < 1e-9, "ratio {}", t1 / t16);
        assert_eq!(m.thread_speedup(1), 1.0);
    }

    #[test]
    fn rack_assignment() {
        let t = Topology::bluegene_q_like();
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(31), 0);
        assert_eq!(t.rack_of(32), 1);
        assert_eq!(t.rack_of(1023), 31);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phase_validation_catches_bad_destination() {
        let phase = PhaseLoad {
            node_ratings: vec![1.0, 1.0],
            node_items: vec![1.0, 1.0],
            node_sends: vec![vec![(5, 1)], vec![]],
            node_working_set: vec![1.0, 1.0],
            bytes_per_item: 136,
        };
        phase.validate();
    }
}
