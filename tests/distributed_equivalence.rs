//! Integration: the distributed driver is statistically equivalent to the
//! shared-memory sampler, robust to its engineering knobs, and exact across
//! ranks.

use bpmf::distributed::{run_rank, DistConfig};
use bpmf::{
    Algorithm, Bpmf, BpmfConfig, BpmfError, DistributedTrainer, EngineKind, FitControl,
    GibbsSampler, IterStats, MappedSlab, NoCallback, Recommender, TrainData,
};
use bpmf_baselines::make_trainer;
use bpmf_dataset::{chembl_like, movielens_like, Dataset};
use bpmf_mpisim::{NetModel, Universe};
use bpmf_sparse::{slab_extents, write_slab};

fn cfg(seed: u64) -> BpmfConfig {
    BpmfConfig {
        num_latent: 8,
        burnin: 5,
        samples: 12,
        seed,
        kernel_threads: 1,
        ..Default::default()
    }
}

fn dataset() -> Dataset {
    movielens_like(0.003, 71)
}

#[test]
fn distributed_matches_shared_memory_quality() {
    let ds = dataset();

    let shared_rmse = {
        let c = cfg(5);
        let iterations = c.iterations();
        let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
        let runner = EngineKind::WorkStealing.build(2);
        let mut sampler = GibbsSampler::new(c, data);
        sampler.run(runner.as_ref(), iterations).final_rmse()
    };

    let dist_cfg = DistConfig {
        base: cfg(5),
        ..Default::default()
    };
    let dist = Universe::run(3, None, |comm| {
        run_rank(
            comm,
            &ds.train,
            &ds.train_t,
            ds.global_mean,
            &ds.test,
            &dist_cfg,
        )
    });
    let dist_rmse = dist[0].final_rmse();

    assert!(
        (shared_rmse - dist_rmse).abs() < 0.12 * shared_rmse.max(1e-9),
        "distributed {dist_rmse} vs shared-memory {shared_rmse}"
    );
}

#[test]
fn one_rank_is_the_one_thread_gibbs_chain() {
    // One rank without reordering draws every item in order from the
    // unjumped seed stream, all-reduces nothing, and owns every row: the
    // one-thread static Gibbs chain, bit for bit. The ChEMBL-shaped matrix
    // (1934 x 23 at K = 32) takes the light arm with its whitened
    // counterpart.
    for (ds, k) in [(movielens_like(0.003, 71), 8), (chembl_like(0.004, 5), 32)] {
        let base = BpmfConfig {
            num_latent: k,
            burnin: 3,
            samples: 5,
            seed: 17,
            kernel_threads: 1,
            ..Default::default()
        };
        let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
        let runner = EngineKind::Static.build(1);
        let mut sampler = GibbsSampler::new(base.clone(), data);
        let report = sampler.run(runner.as_ref(), base.iterations());

        let dist_cfg = DistConfig {
            base,
            reorder: false,
            threads_per_rank: 1,
            ..Default::default()
        };
        let dist = Universe::run(1, None, |comm| {
            run_rank(
                comm,
                &ds.train,
                &ds.train_t,
                ds.global_mean,
                &ds.test,
                &dist_cfg,
            )
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let trace = |f: fn(&IterStats) -> f64| report.iters.iter().map(f).collect::<Vec<_>>();
        let label = format!("{} x {} at K = {k}", ds.nrows(), ds.ncols());
        assert_eq!(
            bits(&trace(|s| s.rmse_sample)),
            bits(&dist[0].rmse_sample_trace),
            "sample trace, {label}"
        );
        assert_eq!(
            bits(&trace(|s| s.rmse_mean)),
            bits(&dist[0].rmse_mean_trace),
            "mean trace, {label}"
        );
        let (u, v) = sampler.posterior_mean_factors().expect("posterior means");
        let gathered = |f: &Option<bpmf::checkpoint::FlatMat>| f.as_ref().unwrap().data.clone();
        assert_eq!(
            bits(u.as_slice()),
            bits(&gathered(&dist[0].user_factors)),
            "user means, {label}"
        );
        assert_eq!(
            bits(v.as_slice()),
            bits(&gathered(&dist[0].movie_factors)),
            "movie means, {label}"
        );
    }
}

#[test]
fn rank_count_does_not_change_quality() {
    let ds = dataset();
    let mut finals = Vec::new();
    for ranks in [1usize, 2, 4] {
        let dist_cfg = DistConfig {
            base: cfg(6),
            ..Default::default()
        };
        let out = Universe::run(ranks, None, |comm| {
            run_rank(
                comm,
                &ds.train,
                &ds.train_t,
                ds.global_mean,
                &ds.test,
                &dist_cfg,
            )
        });
        finals.push(out[0].final_rmse());
    }
    let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max - min < 0.12 * max,
        "rank count changed accuracy: {finals:?}"
    );
}

#[test]
fn network_delays_do_not_change_results() {
    // Same seed with and without a network model: values must be identical
    // — delay changes *when* items arrive, never *what* arrives (the
    // per-source quota protocol guarantees alignment).
    let ds = dataset();
    let dist_cfg = DistConfig {
        base: cfg(7),
        ..Default::default()
    };
    let fast = Universe::run(2, None, |comm| {
        run_rank(
            comm,
            &ds.train,
            &ds.train_t,
            ds.global_mean,
            &ds.test,
            &dist_cfg,
        )
    });
    let slow = Universe::run(2, Some(NetModel::test_cluster()), |comm| {
        run_rank(
            comm,
            &ds.train,
            &ds.train_t,
            ds.global_mean,
            &ds.test,
            &dist_cfg,
        )
    });
    let fast_bits: Vec<u64> = fast[0]
        .rmse_mean_trace
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let slow_bits: Vec<u64> = slow[0]
        .rmse_mean_trace
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(fast_bits, slow_bits, "network timing leaked into results");
}

#[test]
fn buffer_size_does_not_change_results() {
    let ds = dataset();
    let mut traces = Vec::new();
    for buffer in [1usize, 64] {
        let dist_cfg = DistConfig {
            base: cfg(8),
            send_buffer_items: buffer,
            ..Default::default()
        };
        let out = Universe::run(2, None, |comm| {
            run_rank(
                comm,
                &ds.train,
                &ds.train_t,
                ds.global_mean,
                &ds.test,
                &dist_cfg,
            )
        });
        traces.push(
            out[0]
                .rmse_mean_trace
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(traces[0], traces[1], "send-buffer size leaked into results");
}

#[test]
fn unified_distributed_trainer_is_bit_identical_to_direct_run_rank() {
    // `Bpmf::builder().algorithm(Algorithm::Distributed)` through
    // `make_trainer` must be the *same program* as calling run_rank
    // directly: identical RMSE traces (bitwise) and identical gathered
    // posterior factors.
    let ds = dataset();
    let ranks = 3usize;
    let spec = Bpmf::builder()
        .algorithm(Algorithm::Distributed)
        .latent(8)
        .burnin(5)
        .samples(12)
        .seed(5)
        .threads(ranks)
        .kernel_threads(1)
        .build()
        .unwrap();
    let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap();

    let runner = spec.runner();
    let mut trainer = make_trainer(&spec);
    assert_eq!(trainer.algorithm(), Algorithm::Distributed);
    let report = trainer
        .fit(&data, runner.as_ref(), &mut NoCallback)
        .unwrap();
    assert_eq!(report.algorithm, "distributed");
    assert_eq!(report.parallelism, ranks);

    let cfg = DistributedTrainer::dist_config(&spec);
    let direct = Universe::run(ranks, None, |comm| {
        run_rank(comm, &ds.train, &ds.train_t, ds.global_mean, &ds.test, &cfg)
    });

    assert_eq!(report.iters.len(), direct[0].rmse_sample_trace.len());
    for (it, (s, m)) in report.iters.iter().zip(
        direct[0]
            .rmse_sample_trace
            .iter()
            .zip(&direct[0].rmse_mean_trace),
    ) {
        assert_eq!(it.rmse_sample.to_bits(), s.to_bits(), "sample trace");
        assert_eq!(it.rmse_mean.to_bits(), m.to_bits(), "mean trace");
    }

    // The unified trainer's served model is the direct outcome's gathered
    // factors, bit for bit.
    let rec = trainer.recommender().expect("distributed model after fit");
    let direct_model = bpmf::PosteriorModel::from_factors(
        direct[0].user_factors.as_ref().unwrap().to_mat(),
        direct[0].movie_factors.as_ref().unwrap().to_mat(),
        match (&direct[0].user_second, &direct[0].movie_second) {
            (Some(u2), Some(v2)) => Some((u2.to_mat(), v2.to_mat())),
            _ => None,
        },
        ds.global_mean,
        None,
        direct[0].factor_samples,
    );
    for &(u, m, _) in ds.test.iter().take(50) {
        let a = rec.predict(u as usize, m as usize);
        let b = direct_model.predict(u as usize, m as usize);
        assert_eq!(a.to_bits(), b.to_bits(), "({u},{m}): {a} vs {b}");
        // And the posterior second moments survived the gather: both
        // sides report the same uncertainty.
        let ua = rec
            .predict_with_uncertainty(u as usize, m as usize)
            .unwrap();
        let ub = direct_model
            .predict_with_uncertainty(u as usize, m as usize)
            .unwrap();
        assert_eq!(ua.std.to_bits(), ub.std.to_bits());
    }

    // Factor export works through the trait (original row order, full
    // dimensions).
    let (uf, vf) = rec.factors().expect("gathered factors exported");
    assert_eq!(uf.rows(), ds.nrows());
    assert_eq!(vf.rows(), ds.ncols());
}

#[test]
fn distributed_trainer_replays_callbacks_and_truncates_on_stop() {
    let ds = dataset();
    let spec = Bpmf::builder()
        .algorithm(Algorithm::Distributed)
        .latent(6)
        .burnin(3)
        .samples(6)
        .seed(9)
        .threads(2)
        .kernel_threads(1)
        .build()
        .unwrap();
    let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap();
    let runner = spec.runner();
    let mut trainer = make_trainer(&spec);
    let mut seen = 0usize;
    let mut cb = |s: &IterStats| {
        assert!(s.rmse_sample.is_finite());
        seen += 1;
        if s.iter + 1 >= 4 {
            FitControl::Stop
        } else {
            FitControl::Continue
        }
    };
    let report = trainer.fit(&data, runner.as_ref(), &mut cb).unwrap();
    assert_eq!(seen, 4);
    assert_eq!(report.iters.len(), 4);
    assert!(report.early_stopped);
    // The underlying SPMD run completed, so the model is still available.
    assert!(trainer.recommender().is_some());
}

#[test]
fn distributed_trainer_refuses_what_ranks_cannot_run() {
    // Ranks run the plain BPMF chain over resident matrices: side
    // information, checkpoint resume and a memory-mapped slab are typed
    // refusals, the same ones the point estimators give.
    let ds = chembl_like(0.003, 9);
    let data = TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap();
    let base = || {
        Bpmf::builder()
            .algorithm(Algorithm::Distributed)
            .latent(4)
            .burnin(1)
            .samples(1)
            .threads(2)
    };
    let refusal = |feature| BpmfError::Unsupported {
        algorithm: Algorithm::Distributed,
        feature,
    };
    let fit = |spec: Bpmf, data: &TrainData<'_>| {
        make_trainer(&spec)
            .fit(data, spec.runner().as_ref(), &mut NoCallback)
            .unwrap_err()
    };

    let features = bpmf_linalg::Mat::zeros(ds.nrows(), 3);
    let spec = base().user_side_info(features, 1.0).build().unwrap();
    assert_eq!(fit(spec, &data), refusal("side information"));

    let gibbs = GibbsSampler::new(cfg(1), data);
    let spec = base().resume(gibbs.checkpoint()).build().unwrap();
    assert_eq!(fit(spec, &data), refusal("checkpoint resume"));

    let path = std::env::temp_dir().join(format!("bpmf-dist-refusal-{}.slab", std::process::id()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let extents = slab_extents(&ds.train, 2);
    write_slab(&mut w, &ds.train, &ds.train_t, ds.global_mean, &extents).unwrap();
    drop(w);
    let slab = MappedSlab::open(&path).unwrap();
    let (sr, srt) = (slab.r(), slab.rt());
    let mapped = TrainData::try_new(&sr, &srt, slab.global_mean(), &ds.test).unwrap();
    assert_eq!(
        fit(base().build().unwrap(), &mapped),
        refusal("out-of-core rating stores")
    );
    drop(slab);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn comm_volume_shrinks_with_rcm_reordering() {
    let ds = dataset();
    let volume = |reorder: bool| {
        let dist_cfg = DistConfig {
            base: cfg(9),
            reorder,
            ..Default::default()
        };
        let out = Universe::run(4, None, |comm| {
            run_rank(
                comm,
                &ds.train,
                &ds.train_t,
                ds.global_mean,
                &ds.test,
                &dist_cfg,
            )
        });
        out[0].comm_volume_items
    };
    let with_rcm = volume(true);
    let without = volume(false);
    assert!(
        with_rcm <= without,
        "RCM should not increase exchanged items: {with_rcm} vs {without}"
    );
}
