//! Out-of-core integration: the mmap'd slab path must be a *transparent*
//! stand-in for the in-RAM matrices — bit-identical Gibbs chains, identical
//! SGLD draws — and the `sgmcmc` algorithm must work through the unified
//! facade exactly like the others.

use std::path::PathBuf;

use bpmf::{
    Algorithm, Bpmf, BpmfConfig, EngineKind, GibbsSampler, MappedSlab, NoCallback, RatingStore,
    SgldConfig, SgldSampler, TrainData,
};
use bpmf_baselines::make_trainer;
use bpmf_dataset::{chembl_like, Dataset, SyntheticConfig};
use bpmf_sparse::{slab_extents, write_slab};

/// Write `ds.train`/`ds.train_t` as a slab file under the system temp dir
/// and return its path (unique per test so parallel tests don't collide).
fn pack_to_temp(ds: &Dataset, nblocks: usize, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "bpmf-out-of-core-{}-{}.slab",
        std::process::id(),
        tag
    ));
    let extents = slab_extents(&ds.train, nblocks);
    let file = std::fs::File::create(&path).expect("create slab file");
    let mut w = std::io::BufWriter::new(file);
    write_slab(&mut w, &ds.train, &ds.train_t, ds.global_mean, &extents)
        .expect("slab write succeeds");
    drop(w);
    path
}

#[test]
fn mapped_slab_roundtrips_bit_identically() {
    let ds = chembl_like(0.003, 11);
    let path = pack_to_temp(&ds, 4, "roundtrip");
    let slab = MappedSlab::open(&path).expect("slab opens");

    assert_eq!(slab.global_mean().to_bits(), ds.global_mean.to_bits());
    assert_eq!(slab.extents(), &slab_extents(&ds.train, 4)[..]);

    for (mapped, resident) in [(slab.r(), &ds.train), (slab.rt(), &ds.train_t)] {
        assert_eq!(mapped.nrows(), resident.nrows());
        assert_eq!(mapped.ncols(), resident.ncols());
        let (mp, mc, mv) = mapped.raw_parts();
        let (rp, rc, rv) = resident.raw_parts();
        assert_eq!(mp, rp, "row pointers must match exactly");
        assert_eq!(mc, rc, "column indices must match exactly");
        let mv: Vec<u64> = mv.iter().map(|v| v.to_bits()).collect();
        let rv: Vec<u64> = rv.iter().map(|v| v.to_bits()).collect();
        assert_eq!(mv, rv, "values must be bit-identical");
    }

    drop(slab);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn slab_gibbs_is_bit_identical_to_in_ram_gibbs() {
    let ds = chembl_like(0.003, 23);
    let path = pack_to_temp(&ds, 3, "gibbs");
    let slab = MappedSlab::open(&path).expect("slab opens");

    let cfg = BpmfConfig {
        num_latent: 6,
        burnin: 2,
        samples: 5,
        seed: 99,
        kernel_threads: 1,
        ..Default::default()
    };
    let runner = EngineKind::Static.build(1);

    let ram = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut in_ram = GibbsSampler::new(cfg.clone(), ram);
    let ram_report = in_ram.run(runner.as_ref(), cfg.iterations());

    let (sr, srt) = (slab.r(), slab.rt());
    let mapped = TrainData::new(&sr, &srt, slab.global_mean(), &ds.test);
    let mut out_of_core = GibbsSampler::new(cfg.clone(), mapped);
    let slab_report = out_of_core.run(runner.as_ref(), cfg.iterations());

    for (a, b) in ram_report.iters.iter().zip(slab_report.iters.iter()) {
        assert_eq!(
            a.rmse_sample.to_bits(),
            b.rmse_sample.to_bits(),
            "slab chain diverged at iter {}: {} vs {}",
            a.iter,
            a.rmse_sample,
            b.rmse_sample
        );
        assert_eq!(a.rmse_mean.to_bits(), b.rmse_mean.to_bits());
    }
    assert_eq!(
        in_ram
            .user_factors()
            .max_abs_diff(out_of_core.user_factors()),
        0.0,
        "slab-trained factors must equal in-RAM factors exactly"
    );

    drop(slab);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sgld_is_deterministic_and_store_agnostic() {
    // Planted low-rank data with modest noise so SGLD has real signal to
    // recover within a handful of epochs.
    let ds = SyntheticConfig {
        name: "sgld-ooc".into(),
        nrows: 200,
        ncols: 150,
        nnz: 9_000,
        k_true: 3,
        noise_sd: 0.3,
        row_exponent: 0.3,
        col_exponent: 0.3,
        clip: None,
        clusters: None,
        intra_cluster_prob: 0.0,
        test_fraction: 0.15,
        seed: 31,
    }
    .generate();
    let path = pack_to_temp(&ds, 2, "sgld");
    let slab = MappedSlab::open(&path).expect("slab opens");

    let cfg = SgldConfig {
        num_latent: 6,
        burnin: 8,
        samples: 16,
        minibatch: 256,
        seed: 7,
        ..Default::default()
    };

    let run = |data: TrainData<'_>| {
        let mut sampler = SgldSampler::try_new(cfg, data).expect("sgld starts");
        let mut trace = Vec::new();
        for _ in 0..(cfg.burnin + cfg.samples) {
            let (sample, mean) = sampler.step_epoch();
            trace.push((sample.to_bits(), mean.to_bits()));
        }
        let (u, v) = sampler.posterior_factors();
        (trace, u, v)
    };

    let ram = || TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let (trace_a, u_a, v_a) = run(ram());
    let (trace_b, u_b, v_b) = run(ram());
    assert_eq!(trace_a, trace_b, "same seed must reproduce the same chain");
    assert_eq!(u_a.max_abs_diff(&u_b), 0.0);
    assert_eq!(v_a.max_abs_diff(&v_b), 0.0);

    let (sr, srt) = (slab.r(), slab.rt());
    let (trace_s, u_s, v_s) = run(TrainData::new(&sr, &srt, slab.global_mean(), &ds.test));
    assert_eq!(trace_a, trace_s, "slab-backed SGLD must match in-RAM SGLD");
    assert_eq!(u_a.max_abs_diff(&u_s), 0.0);
    assert_eq!(v_a.max_abs_diff(&v_s), 0.0);

    // The chain actually learned something: the posterior mean beats
    // predicting the global mean alone.
    let baseline = {
        let se: f64 = ds
            .test
            .iter()
            .map(|&(_, _, v)| (v - ds.global_mean) * (v - ds.global_mean))
            .sum();
        (se / ds.test.len() as f64).sqrt()
    };
    let last = f64::from_bits(trace_a.last().unwrap().1);
    assert!(last.is_finite());
    assert!(
        last < baseline * 0.9,
        "SGLD should beat the mean-only baseline: {last} vs {baseline}"
    );

    drop(slab);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sgmcmc_fits_and_serves_through_the_unified_facade() {
    let ds = chembl_like(0.004, 41);
    let spec = Bpmf::builder()
        .algorithm(Algorithm::Sgmcmc)
        .latent(8)
        .burnin(3)
        .samples(6)
        .minibatch(512)
        .sgld_step_size(0.1)
        .sgld_step_decay(0.05)
        .seed(13)
        .threads(1)
        .kernel_threads(1)
        .build()
        .expect("valid sgmcmc spec");

    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let runner = EngineKind::Static.build(1);
    let mut trainer = make_trainer(&spec);
    assert_eq!(trainer.algorithm(), Algorithm::Sgmcmc);
    let report = trainer
        .fit(&data, runner.as_ref(), &mut NoCallback)
        .expect("sgmcmc fit succeeds");
    assert_eq!(report.algorithm, "sgmcmc");
    assert_eq!(report.engine, "sgld-serial");
    assert_eq!(report.iters.len(), spec.burnin + spec.samples);
    assert!(report.final_rmse().is_finite());

    let rec = trainer.recommender().expect("model available after fit");
    assert!(rec.rmse(&ds.test).is_finite());
    let mut scores = vec![0.0; ds.train.ncols()];
    rec.score_all(0, &mut scores);
    assert!(scores.iter().all(|s| s.is_finite()));
    // The SGLD fit serves the same posterior model as Gibbs: second
    // moments included, so UCB/Thompson have a spread to work with.
    let spread = rec
        .predict_with_uncertainty(0, 0)
        .expect("sgmcmc model carries second moments");
    assert!(spread.std > 0.0);
}
