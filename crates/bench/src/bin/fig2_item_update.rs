//! **Figure 2** — compute time to update one item vs. its rating count, for
//! the three kernels: the light kernel (an exact low-rank draw in the
//! prior's whitened coordinates), sequential Cholesky, parallel Cholesky.
//!
//! The paper uses this measurement to justify (a) a separate kernel for
//! light items, (b) the ≈1000-rating threshold above which the parallel
//! kernel wins. Expected shape: the light kernel cheapest at the far left,
//! serial Cholesky best in the middle, parallel Cholesky overtaking on the
//! heavy tail.
//!
//! Usage: `cargo run -p bpmf-bench --release --bin fig2_item_update`
//! (K via `BPMF_K`, default 32; threads via `BPMF_KERNEL_THREADS`).

use bpmf::UpdateMethod;
use bpmf_bench::calibrate::time_item_update;
use bpmf_bench::table::{dur, Table};

fn main() {
    let k = bpmf_bench::env_scale("BPMF_K", 32.0) as usize;
    let threads = bpmf_bench::env_scale(
        "BPMF_KERNEL_THREADS",
        std::thread::available_parallelism().map_or(2.0, |n| n.get() as f64),
    ) as usize;

    println!("Figure 2 reproduction: per-item update time vs #ratings (K = {k}, parallel kernel threads = {threads})");

    let ratings = [
        1usize, 3, 10, 30, 100, 300, 1000, 3000, 10_000, 30_000, 100_000,
    ];
    let mut table = Table::new([
        "#ratings",
        "light",
        "serial chol",
        "parallel chol",
        "fastest",
    ]);
    let mut crossover_serial = None;
    let mut crossover_parallel = None;

    #[derive(serde::Serialize)]
    struct Row {
        ratings: usize,
        light_s: f64,
        serial_chol_s: f64,
        parallel_chol_s: f64,
    }
    let mut artifact = Vec::new();

    for &d in &ratings {
        let reps = (20_000 / (d + 10)).clamp(3, 400);
        let t_light = time_item_update(UpdateMethod::RankOne, k, d, reps, 1);
        let t_ser = time_item_update(UpdateMethod::CholSerial, k, d, reps, 1);
        let t_par = time_item_update(UpdateMethod::CholParallel, k, d, reps, threads);
        let fastest = if t_light <= t_ser && t_light <= t_par {
            "light"
        } else if t_ser <= t_par {
            "serial chol"
        } else {
            "parallel chol"
        };
        if fastest != "light" && crossover_serial.is_none() {
            crossover_serial = Some(d);
        }
        if fastest == "parallel chol" && crossover_parallel.is_none() {
            crossover_parallel = Some(d);
        }
        table.row([
            d.to_string(),
            dur(t_light),
            dur(t_ser),
            dur(t_par),
            fastest.to_string(),
        ]);
        artifact.push(Row {
            ratings: d,
            light_s: t_light,
            serial_chol_s: t_ser,
            parallel_chol_s: t_par,
        });
    }

    table.print("Fig. 2 — time to update one item (lower is better)");
    println!();
    println!(
        "Serial-Cholesky overtakes the light kernel near {} ratings (paper: small multiples of K).",
        crossover_serial.map_or("—".into(), |d| d.to_string())
    );
    println!(
        "Parallel Cholesky overtakes serial near {} ratings (paper threshold: ~1000).",
        crossover_parallel.map_or("— (needs >1 core to win)".into(), |d| d.to_string())
    );
    bpmf_bench::write_json("fig2_item_update", &artifact);
}
