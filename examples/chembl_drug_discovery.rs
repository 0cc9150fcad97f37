//! Drug-discovery scenario (the paper's motivating application): predict
//! compound-on-target activity (IC50-like values) from a sparse
//! compound × target bioactivity matrix shaped like ChEMBL v20.
//!
//! Demonstrates the features that workload stresses: extreme column skew
//! (popular protein targets with thousands of measurements) routed through
//! the adaptive kernels, and work stealing absorbing the imbalance —
//! driven through the unified `Bpmf::builder()` → `Trainer` facade.
//!
//! Run with: `cargo run --release -p bpmf --example chembl_drug_discovery`

use bpmf::{Bpmf, NoCallback, TrainData, Trainer, UpdateMethod};
use bpmf_dataset::chembl_like;

fn main() {
    let ds = chembl_like(0.02, 2016);
    println!("ChEMBL-like bioactivity matrix:");
    println!(
        "  {} compounds x {} protein targets",
        ds.nrows(),
        ds.ncols()
    );
    println!(
        "  {} activity measurements (+{} held out)",
        ds.nnz(),
        ds.test.len()
    );

    // The load-balance pathology the paper engineers around: degree skew.
    let mean_deg = ds.train_t.mean_row_nnz();
    let max_deg = ds.train_t.max_row_nnz();
    println!(
        "  measurements per target: mean {mean_deg:.1}, max {max_deg} ({:.0}x the mean)",
        max_deg as f64 / mean_deg
    );

    let spec = Bpmf::builder()
        .latent(16)
        .burnin(6)
        .samples(14)
        .seed(1)
        .threads(std::thread::available_parallelism().map_or(2, |n| n.get()))
        .build()
        .expect("valid configuration");

    // Which kernel does the heaviest target hit?
    let cfg = spec.to_gibbs_config();
    let method = bpmf::choose_method(max_deg, cfg.rank_one_threshold(), cfg.parallel_threshold);
    println!(
        "  heaviest target uses the {} kernel\n",
        match method {
            UpdateMethod::RankOne => "light (whitened low-rank)",
            UpdateMethod::CholSerial => "serial-Cholesky",
            UpdateMethod::CholParallel => "parallel-Cholesky",
        }
    );

    let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test)
        .expect("well-formed dataset");
    let runner = spec.runner();
    let mut trainer: Box<dyn Trainer> = Box::new(spec.gibbs_trainer());
    let report = trainer
        .fit(&data, runner.as_ref(), &mut NoCallback)
        .expect("training succeeds");

    println!(
        "trained with work stealing on {} threads:",
        report.parallelism
    );
    println!(
        "  mean throughput: {:.0} item updates/s",
        report.mean_items_per_sec()
    );
    println!("  final RMSE (posterior mean): {:.4}", report.final_rmse());
    println!(
        "  oracle floor:                {:.4}",
        ds.oracle_rmse().unwrap()
    );
    let steals: u64 = report.iters.iter().map(|s| s.steals).sum();
    println!("  work-stealing events: {steals} (imbalance absorbed at runtime)");

    // Rank candidate compounds for the busiest target, BPMF's actual job in
    // the ExCAPE pipeline.
    let rec = trainer.recommender().expect("fitted model");
    let target = (0..ds.ncols())
        .max_by_key(|&t| ds.train_t.row_nnz(t))
        .unwrap();
    let mut scored: Vec<(usize, f64)> = (0..ds.nrows().min(2000))
        .map(|c| (c, rec.predict(c, target)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 predicted active compounds for target {target}:");
    for (compound, score) in scored.iter().take(5) {
        println!("  compound {compound:6}  predicted activity {score:.3}");
    }
}
