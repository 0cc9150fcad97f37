//! **Ablation** — the adaptive kernel thresholds (DESIGN.md §7).
//!
//! The paper fixes two routing decisions from its Fig. 2 measurements: items
//! below a small rating count use the light kernel, items above ~1000
//! ratings use the parallel Cholesky kernel. This harness sweeps both
//! thresholds on a column-skewed ChEMBL-like workload and reports end-to-end
//! throughput, demonstrating each choice is a real optimum rather than
//! folklore.
//!
//! Usage: `cargo run -p bpmf-bench --release --bin ablation_threshold`

use bpmf::{Bpmf, EngineKind, NoCallback, TrainData};
use bpmf_baselines::make_trainer;
use bpmf_bench::table::{si, Table};
use bpmf_dataset::chembl_like;

fn throughput(
    ds: &bpmf_dataset::Dataset,
    rank_one_max: Option<usize>,
    parallel_threshold: usize,
) -> f64 {
    let mut builder = Bpmf::builder()
        .latent(16)
        .burnin(1) // the burn-in iteration doubles as warm-up
        .samples(2)
        .seed(3)
        .parallel_threshold(parallel_threshold)
        .kernel_threads(std::thread::available_parallelism().map_or(2, |n| n.get()))
        .engine(EngineKind::WorkStealing)
        .threads(2);
    if let Some(max) = rank_one_max {
        builder = builder.rank_one_max(max);
    }
    let spec = builder.build().expect("valid spec");
    let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test)
        .expect("well-formed dataset");
    let runner = spec.runner();
    let mut trainer = make_trainer(&spec);
    // mean_items_per_sec averages post-burn-in iterations only, so the
    // warm-up burn-in step is excluded exactly as before.
    trainer
        .fit(&data, runner.as_ref(), &mut NoCallback)
        .expect("fit succeeds")
        .mean_items_per_sec()
}

fn main() {
    let scale = bpmf_bench::env_scale("BPMF_SCALE", 0.02);
    let ds = chembl_like(scale, 77);
    println!(
        "Ablation: kernel thresholds on {} ({} x {}, {} ratings, max item degree {})",
        ds.name,
        ds.nrows(),
        ds.ncols(),
        ds.nnz(),
        ds.train_t.max_row_nnz()
    );

    #[derive(serde::Serialize)]
    struct Row {
        which: String,
        value: String,
        items_per_sec: f64,
    }
    let mut artifact = Vec::new();

    // Sweep 1: parallel threshold with the light ceiling at its default.
    let mut t1 = Table::new(["parallel threshold", "items/s"]);
    for &threshold in &[64usize, 250, 1000, 4000, usize::MAX] {
        let ips = throughput(&ds, None, threshold);
        let label = if threshold == usize::MAX {
            "never (serial only)".into()
        } else {
            threshold.to_string()
        };
        t1.row([label.clone(), format!("{}/s", si(ips))]);
        artifact.push(Row {
            which: "parallel_threshold".into(),
            value: label,
            items_per_sec: ips,
        });
    }
    t1.print("Ablation 1 — parallel-Cholesky threshold (paper picks ~1000)");

    // Sweep 2: light-kernel ceiling with parallel threshold fixed at 1000.
    let mut t2 = Table::new(["light max ratings", "items/s"]);
    for &cap in &[0usize, 4, 8, 16, 32, 64] {
        let ips = throughput(&ds, Some(cap), 1000);
        t2.row([cap.to_string(), format!("{}/s", si(ips))]);
        artifact.push(Row {
            which: "rank_one_max".into(),
            value: cap.to_string(),
            items_per_sec: ips,
        });
    }
    t2.print("Ablation 2 — light-kernel ceiling (default: K/8)");
    bpmf_bench::write_json("ablation_threshold", &artifact);
}
