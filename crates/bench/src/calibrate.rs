//! Host calibration of the cluster simulator's compute constants.
//!
//! The simulator charges `seconds_per_rating` and `seconds_per_item`; both
//! are measured here by timing the real serial item-update kernel at two
//! rating counts and fitting the line (the same workload model the paper
//! derives from its Fig. 2 measurements).

use std::time::Instant;

use bpmf::{update_item, SidePrior, UpdateMethod, UpdateScratch};
use bpmf_cluster_sim::ComputeModel;
use bpmf_linalg::{Cholesky, Mat};
use bpmf_stats::{normal, Xoshiro256pp};

/// Time one serial item update with `d` ratings at latent dimension `k`,
/// averaged over `reps` runs.
pub fn time_item_update(
    method: UpdateMethod,
    k: usize,
    d: usize,
    reps: usize,
    threads: usize,
) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(1717);
    let lambda = Mat::identity(k);
    let mu = vec![0.0; k];
    let lambda_mu = lambda.matvec(&mu);
    let chol = Cholesky::factor(&lambda).unwrap();
    let other = Mat::from_fn(d.max(4), k, |_, _| normal(&mut rng, 0.0, 0.5));
    let cols: Vec<u32> = (0..d as u32).collect();
    let vals: Vec<f64> = (0..d).map(|i| 3.0 + (i as f64).sin()).collect();
    let prior = SidePrior {
        lambda: &lambda,
        lambda_mu: &lambda_mu,
        chol_lambda: &chol,
        alpha: 2.0,
        mean_offset: 3.0,
    };
    let mut scratch = UpdateScratch::new(k);
    let mut out = vec![0.0; k];

    // Warm up, then measure.
    for _ in 0..reps.min(3) {
        update_item(
            method,
            &prior,
            (&cols, &vals),
            &other,
            None,
            &mut rng,
            &mut scratch,
            &mut out,
            threads,
        );
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        update_item(
            method,
            &prior,
            (&cols, &vals),
            &other,
            None,
            &mut rng,
            &mut scratch,
            &mut out,
            threads,
        );
    }
    std::hint::black_box(&out);
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Measure the light/mid kernel crossover at latent dimension `k`: the
/// largest rating count at which the light kernel (the whitened low-rank
/// draw, [`UpdateMethod::RankOne`]) still beats the blocked serial Cholesky
/// kernel on this host.
///
/// This is how the `rank_one_max` default should be picked on new hardware
/// (`BpmfConfig::rank_one_max` / `Bpmf::builder().rank_one_max(..)`). The
/// stock default `max(K/8, 1)` follows what this function measured on the
/// AVX-512 arm: 3 at K = 16, 3–5 at K = 32, 12 at K = 64 (on its grid
/// 1, 2, 3, 5, 8, 12, …). The portable arm, whose `K × K` factorization is
/// slower, measures 5, 8–12 and 27.
/// The same two sides show up, on a real matrix's degree distribution, in
/// the layered benchmark's traced pass
///
/// ```text
/// cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
///     --workload train_chembl --trace 1
/// ```
///
/// as `update.light_item_us` (one light item) against `linalg.chol_us`
/// (the factorization a serial item pays instead), with
/// `update.heavy_ns_per_rating` the serial kernel's per-rating slope.
pub fn calibrate_rank_one_max(k: usize) -> usize {
    let mut last_light_win = 0;
    let mut d = 1usize;
    while d <= 2 * k.max(8) {
        let reps = (20_000 / d.max(1)).clamp(20, 2_000);
        let t_light = time_item_update(UpdateMethod::RankOne, k, d, reps, 1);
        let t_cs = time_item_update(UpdateMethod::CholSerial, k, d, reps, 1);
        if t_light < t_cs {
            last_light_win = d;
        }
        // ~1.5x steps: dense enough near the crossover, cheap on the tail.
        d = (d * 3).div_ceil(2);
    }
    last_light_win
}

/// Fit the linear workload model on this host and return a [`ComputeModel`]
/// whose per-unit costs are measured, with the machine-shape constants
/// (cache size, thread efficiency, message overhead) kept at the BG/Q-era
/// defaults of [`ComputeModel::default_calibration`]; the benchmark's
/// `cluster_sim.predicted_scale_eff` is the prediction they give.
pub fn calibrate(k: usize) -> ComputeModel {
    let d_low = 32;
    let d_high = 2048;
    let t_low = time_item_update(UpdateMethod::CholSerial, k, d_low, 200, 1);
    let t_high = time_item_update(UpdateMethod::CholSerial, k, d_high, 20, 1);
    let per_rating = ((t_high - t_low) / (d_high - d_low) as f64).max(1e-12);
    // The intercept can come out negative on a noisy host; an item update
    // always contains the O(K³) factor+solve, which costs at least a few
    // rating accumulations — floor it there.
    let per_item = (t_low - per_rating * d_low as f64).max(4.0 * per_rating);
    ComputeModel {
        seconds_per_rating: per_rating.max(1e-12),
        seconds_per_item: per_item,
        ..ComputeModel::default_calibration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_costs() {
        let model = calibrate(16);
        assert!(model.seconds_per_rating > 0.0);
        assert!(model.seconds_per_item > 0.0);
        // An item update is at least as expensive as a handful of rating
        // accumulations.
        assert!(model.seconds_per_item > model.seconds_per_rating);
    }

    #[test]
    fn update_time_grows_with_ratings() {
        let t_small = time_item_update(UpdateMethod::CholSerial, 16, 8, 50, 1);
        let t_large = time_item_update(UpdateMethod::CholSerial, 16, 1024, 10, 1);
        assert!(t_large > t_small * 3.0, "{t_small} vs {t_large}");
    }
}
