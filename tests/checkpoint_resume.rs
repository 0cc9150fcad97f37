//! Checkpoint/resume integration: a resumed run must continue the *exact*
//! chain — the property that makes 15-day production runs (the paper's §VI
//! headline workload) survivable.

use bpmf::checkpoint::{FlatMat, SamplerCheckpoint};
use bpmf::{
    Bpmf, BpmfConfig, BpmfError, EngineKind, FeatureSideInfo, GibbsSampler, NoCallback, TrainData,
    Trainer,
};
use bpmf_dataset::chembl_like;
use bpmf_dataset::movielens_like;
use bpmf_linalg::Mat;
use bpmf_stats::{normal, Xoshiro256pp};

fn cfg() -> BpmfConfig {
    BpmfConfig {
        num_latent: 6,
        burnin: 2,
        samples: 6,
        seed: 77,
        kernel_threads: 1,
        ..Default::default()
    }
}

#[test]
fn resume_continues_the_exact_chain() {
    let ds = chembl_like(0.003, 5);
    let runner = EngineKind::Static.build(1); // deterministic schedule

    // Uninterrupted: 8 iterations.
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut full = GibbsSampler::new(cfg(), data);
    let full_report = full.run(runner.as_ref(), 8);

    // Interrupted: 3 iterations, checkpoint, resume, 5 more.
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut first = GibbsSampler::new(cfg(), data);
    first.run(runner.as_ref(), 3);
    let ckpt = first.checkpoint();

    // The checkpoint must survive serialization (what a real run writes).
    let json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
    let ckpt: bpmf::checkpoint::SamplerCheckpoint =
        serde_json::from_str(&json).expect("checkpoint deserializes");

    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut resumed = GibbsSampler::resume(cfg(), data, &ckpt);
    assert_eq!(resumed.iterations_done(), 3);
    let tail = resumed.run(runner.as_ref(), 5);

    // Bit-identical continuation: the resumed tail equals iterations 3..8
    // of the uninterrupted run.
    for (a, b) in tail.iters.iter().zip(full_report.iters.iter().skip(3)) {
        assert_eq!(
            a.rmse_sample.to_bits(),
            b.rmse_sample.to_bits(),
            "resumed chain diverged: {} vs {}",
            a.rmse_sample,
            b.rmse_sample
        );
    }
    // And the final factor states agree exactly.
    assert_eq!(
        resumed.user_factors().max_abs_diff(full.user_factors()),
        0.0
    );
    assert_eq!(
        resumed.movie_factors().max_abs_diff(full.movie_factors()),
        0.0
    );
}

#[test]
fn resume_restores_side_information_link() {
    let ds = chembl_like(0.003, 6);
    let runner = EngineKind::Static.build(1);
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let features = Mat::from_fn(ds.nrows(), 3, |_, _| normal(&mut rng, 0.0, 1.0));

    // Uninterrupted informed run.
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut full = GibbsSampler::new(cfg(), data);
    full.attach_user_side_info(FeatureSideInfo::new(features.clone(), 6, 1.0))
        .unwrap();
    let full_report = full.run(runner.as_ref(), 7);

    // Interrupted at 4.
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut first = GibbsSampler::new(cfg(), data);
    first
        .attach_user_side_info(FeatureSideInfo::new(features.clone(), 6, 1.0))
        .unwrap();
    first.run(runner.as_ref(), 4);
    let ckpt = first.checkpoint();
    assert!(ckpt.user_link.is_some(), "link state must be captured");
    assert!(ckpt.movie_link.is_none());

    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut resumed = GibbsSampler::resume(cfg(), data, &ckpt);
    // Features are data: the caller re-attaches them; the checkpointed β is
    // restored into the fresh side info.
    resumed
        .attach_user_side_info(FeatureSideInfo::new(features.clone(), 6, 1.0))
        .unwrap();
    let restored_beta = resumed.user_link_matrix().expect("attached");
    let saved_beta = first.user_link_matrix().expect("still attached");
    assert_eq!(
        restored_beta.max_abs_diff(saved_beta),
        0.0,
        "restored link must equal the checkpointed one"
    );

    let tail = resumed.run(runner.as_ref(), 3);
    for (a, b) in tail.iters.iter().zip(full_report.iters.iter().skip(4)) {
        assert_eq!(
            a.rmse_sample.to_bits(),
            b.rmse_sample.to_bits(),
            "informed resumed chain diverged"
        );
    }
}

#[test]
fn resume_with_another_feature_width_is_a_typed_error() {
    let ds = chembl_like(0.003, 6);
    let runner = EngineKind::Static.build(1);
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let features = |d: usize, rng: &mut Xoshiro256pp| {
        Mat::from_fn(ds.nrows(), d, |_, _| normal(rng, 0.0, 1.0))
    };
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let mut first = GibbsSampler::new(cfg(), data);
    first
        .attach_user_side_info(FeatureSideInfo::new(features(3, &mut rng), 6, 1.0))
        .unwrap();
    first.run(runner.as_ref(), 3);
    let ckpt = first.checkpoint();

    // Resuming through the builder with four features instead of three
    // must refuse the checkpoint, not panic.
    let spec = Bpmf::builder()
        .latent(6)
        .burnin(2)
        .samples(6)
        .seed(77)
        .kernel_threads(1)
        .user_side_info(features(4, &mut rng), 1.0)
        .resume(ckpt)
        .build()
        .unwrap();
    let err = spec
        .gibbs_trainer()
        .fit(&data, runner.as_ref(), &mut NoCallback)
        .unwrap_err();
    assert!(
        matches!(&err, BpmfError::CheckpointMismatch(m) if m.contains("3 features")),
        "{err}"
    );
}

#[test]
#[should_panic(expected = "latent dimension mismatch")]
fn resume_rejects_wrong_latent_dimension() {
    let ds = chembl_like(0.003, 7);
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let sampler = GibbsSampler::new(cfg(), data);
    let ckpt = sampler.checkpoint();
    let wrong = BpmfConfig {
        num_latent: 12,
        ..cfg()
    };
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let _ = GibbsSampler::resume(wrong, data, &ckpt);
}

#[test]
#[should_panic(expected = "user count mismatch")]
fn resume_rejects_wrong_dataset_shape() {
    let ds = chembl_like(0.003, 8);
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let sampler = GibbsSampler::new(cfg(), data);
    let ckpt = sampler.checkpoint();
    let other = chembl_like(0.004, 8);
    let data = TrainData::new(&other.train, &other.train_t, other.global_mean, &other.test);
    let _ = GibbsSampler::resume(cfg(), data, &ckpt);
}

#[test]
fn resume_refuses_every_misshapen_field_with_a_typed_error() {
    // Unchecked, each corruption below would panic at resume or at the
    // next step, or resume silently with a wrong shape (dropped factor
    // sums restart the posterior means from zero under the old draw
    // count): every one must be a `CheckpointMismatch` before anything is
    // restored.
    let ds = movielens_like(0.003, 71);
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let cfg = BpmfConfig {
        num_latent: 4,
        ..cfg()
    };
    let mut sampler = GibbsSampler::new(cfg.clone(), data);
    sampler.run(EngineKind::Static.build(1).as_ref(), 4);
    let good = sampler.checkpoint();
    assert!(good.factor_acc.is_some() && good.factor_sq_acc.is_some());
    assert!(GibbsSampler::try_resume(cfg.clone(), data, &good).is_ok());

    fn wider(m: &mut FlatMat) {
        m.cols += 1;
        m.data.resize(m.rows * m.cols, 0.0);
    }
    fn shorter(m: &mut FlatMat) {
        m.rows -= 1;
        m.data.truncate(m.rows * m.cols);
    }
    type Corrupt = fn(&mut SamplerCheckpoint);
    let corruptions: [(&str, Corrupt); 15] = [
        ("users with K + 1 columns", |c| wider(&mut c.users)),
        ("movies with K + 1 columns", |c| wider(&mut c.movies)),
        ("user factors missing a value", |c| {
            c.users.data.pop();
        }),
        ("user μ of length K + 1", |c| c.users_mu.push(0.0)),
        ("movie μ of length K - 1", |c| {
            c.movies_mu.pop();
        }),
        ("user Λ K x (K + 1)", |c| wider(&mut c.users_lambda)),
        ("movie Λ (K - 1) x K", |c| shorter(&mut c.movies_lambda)),
        ("user factor sums a row short", |c| {
            shorter(&mut c.factor_acc.as_mut().unwrap().0)
        }),
        ("movie factor sums with K + 1 columns", |c| {
            wider(&mut c.factor_acc.as_mut().unwrap().1)
        }),
        ("user squared sums a row short", |c| {
            shorter(&mut c.factor_sq_acc.as_mut().unwrap().0)
        }),
        ("movie squared sums with K + 1 columns", |c| {
            wider(&mut c.factor_sq_acc.as_mut().unwrap().1)
        }),
        ("factor sums dropped after burn-in", |c| c.factor_acc = None),
        ("test sums truncated", |c| c.predict_acc.truncate(1)),
        ("squared test sums truncated", |c| {
            c.predict_sq_acc.truncate(1)
        }),
        ("user link with K + 1 columns", |c| {
            let k = c.num_latent;
            let mut beta = FlatMat {
                rows: 3,
                cols: k,
                data: vec![0.0; 3 * k],
            };
            wider(&mut beta);
            c.user_link = Some((beta, 1.0));
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut ckpt = good.clone();
        corrupt(&mut ckpt);
        match GibbsSampler::try_resume(cfg.clone(), data, &ckpt) {
            Err(BpmfError::CheckpointMismatch(msg)) => {
                assert!(msg.contains("mismatch"), "{what}: {msg}")
            }
            Err(e) => panic!("{what}: wrong error {e}"),
            Ok(_) => panic!("{what}: resumed"),
        }
    }
}
