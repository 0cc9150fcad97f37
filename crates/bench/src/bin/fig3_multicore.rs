//! **Figure 3** — multi-core BPMF throughput (updates to U and V per
//! second) on the ChEMBL workload, versus thread count, for the three
//! runtimes: TBB-like work stealing, OpenMP-like static, GraphLab-like
//! vertex engine.
//!
//! Expected shape (paper): all runtimes scale with cores; work stealing >
//! static (nested parallelism + stealing absorbs the rating-count skew);
//! the GraphLab-like engine trails by a wide margin (consistency machinery).
//!
//! Note: this container exposes few physical cores, so absolute scaling
//! flattens where the paper's 12-core Westmere keeps climbing; the *engine
//! ordering at each thread count* is the reproduced result. The layered
//! benchmark's `sched.scale_eff`, `sched.busy_frac` and `sched.imbalance`
//! on `train_chembl` put numbers on the gap for this host.
//!
//! Usage: `cargo run -p bpmf-bench --release --bin fig3_multicore`
//! (`BPMF_SCALE` resizes the ChEMBL-like workload, default 0.01).

use bpmf::{Bpmf, EngineKind, NoCallback, TrainData};
use bpmf_baselines::make_trainer;
use bpmf_bench::table::{pct, si, Table};
use bpmf_dataset::chembl_like;

fn main() {
    let scale = bpmf_bench::env_scale("BPMF_SCALE", 0.01);
    let iters = bpmf_bench::env_scale("BPMF_ITERS", 3.0) as usize;
    println!("Figure 3 reproduction: multi-core throughput on ChEMBL-like data (scale {scale})");
    let ds = chembl_like(scale, 2016);
    println!(
        "  workload: {} compounds x {} targets, {} ratings (max target degree {})",
        ds.nrows(),
        ds.ncols(),
        ds.nnz(),
        ds.train_t.max_row_nnz()
    );

    let threads_axis = [1usize, 2, 4, 8, 16];
    let mut table = Table::new([
        "#threads",
        "work-stealing (TBB)",
        "static (OpenMP)",
        "vertex engine (GraphLab)",
        "WS busy",
        "static busy",
    ]);

    #[derive(serde::Serialize)]
    struct Row {
        threads: usize,
        ws_items_per_sec: f64,
        static_items_per_sec: f64,
        graphlab_items_per_sec: f64,
    }
    let mut artifact = Vec::new();

    for &threads in &threads_axis {
        let mut ips = Vec::new();
        let mut busy = Vec::new();
        for kind in EngineKind::all() {
            let spec = Bpmf::builder()
                .latent(16)
                .burnin(1) // warm-up iteration, excluded from the mean below
                .samples(iters)
                .seed(7)
                .kernel_threads(1)
                .engine(kind)
                .threads(threads)
                .build()
                .expect("valid spec");
            let runner = spec.runner();
            let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test)
                .expect("well-formed dataset");
            let mut trainer = make_trainer(&spec);
            let report = trainer
                .fit(&data, runner.as_ref(), &mut NoCallback)
                .expect("fit succeeds");
            ips.push(report.mean_items_per_sec());
            let measured = &report.iters[1..];
            let mean_busy = measured.iter().map(|s| s.busy_fraction).sum::<f64>()
                / measured.len().max(1) as f64;
            busy.push(mean_busy);
        }
        table.row([
            threads.to_string(),
            format!("{}/s", si(ips[0])),
            format!("{}/s", si(ips[1])),
            format!("{}/s", si(ips[2])),
            pct(busy[0]),
            pct(busy[1]),
        ]);
        artifact.push(Row {
            threads,
            ws_items_per_sec: ips[0],
            static_items_per_sec: ips[1],
            graphlab_items_per_sec: ips[2],
        });
    }

    table.print("Fig. 3 — items/second by runtime and thread count (higher is better)");
    println!("\nPaper shape check: work-stealing ≥ static ≥ GraphLab-like at every thread count.");
    bpmf_bench::write_json("fig3_multicore", &artifact);
}
