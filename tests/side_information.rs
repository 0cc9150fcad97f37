//! Cross-crate test of the Macau-style side-information extension: on a
//! cold-start-heavy workload (most users have almost no ratings — the
//! ChEMBL regime the paper's introduction motivates), feature-informed
//! priors must beat the plain BPMF model on held-out RMSE.

use bpmf::{BpmfConfig, EngineKind, FeatureSideInfo, GibbsSampler, TrainData};
use bpmf_linalg::Mat;
use bpmf_sparse::{Coo, Csr};
use bpmf_stats::{normal, Xoshiro256pp};

/// Build a workload where user factors are *determined by user features*
/// (u_i = βᵀ f_i + small noise) and every user has very few ratings, so the
/// only road to good predictions for the held-out pairs runs through the
/// features.
struct ColdStart {
    train: Csr,
    train_t: Csr,
    test: Vec<(u32, u32, f64)>,
    features: Mat,
    global_mean: f64,
}

fn cold_start_workload(seed: u64) -> ColdStart {
    let (nusers, nmovies, k_true, d) = (400, 60, 3, 4);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Planted link and features.
    let beta = Mat::from_fn(d, k_true, |_, _| normal(&mut rng, 0.0, 0.7));
    let features = Mat::from_fn(nusers, d, |_, _| normal(&mut rng, 0.0, 1.0));
    let mut u = Mat::zeros(nusers, k_true);
    for i in 0..nusers {
        for c in 0..k_true {
            let mut acc = 0.0;
            for f in 0..d {
                acc += features[(i, f)] * beta[(f, c)];
            }
            u[(i, c)] = acc + normal(&mut rng, 0.0, 0.05);
        }
    }
    let v = Mat::from_fn(nmovies, k_true, |_, _| normal(&mut rng, 0.0, 0.7));

    // Every user rates only 2 movies; 2 more pairs per user are held out.
    let mut coo = Coo::new(nusers, nmovies);
    let mut test = Vec::new();
    let rating = |u_row: &[f64], v_row: &[f64], rng: &mut Xoshiro256pp| {
        3.0 + bpmf_linalg::vecops::dot(u_row, v_row) + normal(rng, 0.0, 0.1)
    };
    for i in 0..nusers {
        let mut seen = [usize::MAX; 4];
        for slot in 0..4 {
            let mut m = rng.next_index(nmovies);
            while seen.contains(&m) {
                m = rng.next_index(nmovies);
            }
            seen[slot] = m;
            let r = rating(u.row(i), v.row(m), &mut rng);
            if slot < 2 {
                coo.push(i, m, r);
            } else {
                test.push((i as u32, m as u32, r));
            }
        }
    }
    let train = Csr::from_coo_owned(coo);
    let train_t = train.transpose();
    let global_mean = {
        let (_, _, vals) = train.raw_parts();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    ColdStart {
        train,
        train_t,
        test,
        features,
        global_mean,
    }
}

fn run(workload: &ColdStart, side_info: bool) -> f64 {
    let cfg = BpmfConfig {
        num_latent: 4,
        burnin: 8,
        samples: 25,
        seed: 7,
        ..Default::default()
    };
    let data = TrainData::new(
        &workload.train,
        &workload.train_t,
        workload.global_mean,
        &workload.test,
    );
    let runner = EngineKind::WorkStealing.build(2);
    let mut sampler = GibbsSampler::new(cfg.clone(), data);
    if side_info {
        sampler
            .attach_user_side_info(FeatureSideInfo::new(
                workload.features.clone(),
                cfg.num_latent,
                1.0,
            ))
            .unwrap();
    }
    let report = sampler.run(runner.as_ref(), cfg.iterations());
    report.final_rmse()
}

#[test]
fn side_information_beats_plain_bpmf_on_cold_start() {
    let workload = cold_start_workload(20260610);
    let plain = run(&workload, false);
    let informed = run(&workload, true);
    assert!(
        informed < plain * 0.85,
        "features should give a clear cold-start win: plain {plain:.4}, informed {informed:.4}"
    );
    // And the informed model is genuinely predictive, not just "less bad":
    // the planted factors put test ratings around 3 ± ~1, so the global-mean
    // predictor sits near sd(u·v) ≈ 1. The informed model must do much
    // better than that.
    assert!(
        informed < 0.7,
        "informed RMSE should approach the noise floor, got {informed:.4}"
    );
}

#[test]
fn link_matrix_is_sampled_and_finite() {
    let workload = cold_start_workload(99);
    let cfg = BpmfConfig {
        num_latent: 4,
        burnin: 2,
        samples: 3,
        seed: 1,
        ..Default::default()
    };
    let data = TrainData::new(
        &workload.train,
        &workload.train_t,
        workload.global_mean,
        &workload.test,
    );
    let runner = EngineKind::Static.build(1);
    let mut sampler = GibbsSampler::new(cfg, data);
    sampler
        .attach_user_side_info(FeatureSideInfo::new(workload.features.clone(), 4, 1.0))
        .unwrap();
    assert!(sampler.movie_link_matrix().is_none());
    sampler.step(runner.as_ref());
    let beta = sampler.user_link_matrix().expect("side info attached");
    assert_eq!(beta.rows(), workload.features.cols());
    assert_eq!(beta.cols(), 4);
    assert!(beta.as_slice().iter().all(|v| v.is_finite()));
    assert!(
        beta.as_slice().iter().any(|&v| v != 0.0),
        "link matrix should move away from its zero initialization"
    );
}

#[test]
#[should_panic(expected = "one feature row per user")]
fn wrong_feature_row_count_is_rejected() {
    let workload = cold_start_workload(3);
    let cfg = BpmfConfig {
        num_latent: 4,
        ..Default::default()
    };
    let data = TrainData::new(
        &workload.train,
        &workload.train_t,
        workload.global_mean,
        &workload.test,
    );
    let mut sampler = GibbsSampler::new(cfg, data);
    sampler
        .attach_user_side_info(FeatureSideInfo::new(Mat::zeros(3, 2), 4, 1.0))
        .unwrap();
}
