//! Distributed BPMF on in-process MPI-style ranks: strong scaling, overlap
//! accounting, and the guarantee that every rank reports the identical RMSE
//! trace.
//!
//! Run with: `cargo run --release -p bpmf --example distributed_scaling`

use bpmf::distributed::{run_rank, DistConfig};
use bpmf::BpmfConfig;
use bpmf_dataset::movielens_like;
use bpmf_mpisim::{NetModel, Universe};

fn main() {
    let ds = movielens_like(0.005, 7);
    println!(
        "distributed BPMF on {}: {} users x {} movies, {} ratings\n",
        ds.name,
        ds.nrows(),
        ds.ncols(),
        ds.nnz()
    );

    println!("ranks  items/s    final-RMSE  compute  both   comm   bytes-sent");
    for ranks in [1usize, 2, 4] {
        let cfg = DistConfig {
            base: BpmfConfig {
                num_latent: 16,
                burnin: 4,
                samples: 8,
                seed: 11,
                kernel_threads: 1,
                ..Default::default()
            },
            send_buffer_items: 64,
            poll_every: 8,
            reorder: true,
            ..Default::default()
        };
        let outcomes = Universe::run(ranks, Some(NetModel::test_cluster()), |comm| {
            run_rank(comm, &ds.train, &ds.train_t, ds.global_mean, &ds.test, &cfg)
        });

        // The asynchronous protocol is still exact: every rank computed the
        // identical RMSE trace.
        for o in &outcomes[1..] {
            assert_eq!(
                o.rmse_mean_trace
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                outcomes[0]
                    .rmse_mean_trace
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "ranks disagreed on the RMSE trace"
            );
        }

        let o = &outcomes[0];
        let bytes: u64 = outcomes.iter().map(|x| x.bytes_sent).sum();
        println!(
            "{:5}  {:9.0}  {:10.4}  {:6.1}%  {:5.1}%  {:5.1}%  {}",
            ranks,
            o.items_per_sec,
            o.final_rmse(),
            o.compute_frac * 100.0,
            o.both_frac * 100.0,
            o.comm_frac * 100.0,
            bytes,
        );
    }
    println!("\n(all ranks verified to produce bit-identical RMSE traces)");
    println!("note: ranks are threads sharing this machine's cores, so items/s");
    println!("does not scale like the paper's cluster; the extrapolation to the");
    println!("BlueGene/Q's 1,024 nodes is ROADMAP item 16 (not reproduced).");
}
