//! Alternating least squares with weighted-λ regularization (ALS-WR).
//!
//! The algorithm of the paper's reference \[2\] (Zhou, Wilkinson, Schreiber
//! & Pan, AAIM 2008): fix V, solve one ridge regression per user; fix U,
//! solve one per movie; repeat. Each per-item system is
//!
//! ```text
//! (Σ_{j∈Ω_i} v_j v_jᵀ  +  λ·reg_i·I) u_i = Σ_{j∈Ω_i} (r_ij − mean) v_j
//! ```
//!
//! with `reg_i = |Ω_i|` in the weighted-λ scheme (each item's ridge grows
//! with its rating count — the regularization that won ALS its Netflix
//! reputation) or `reg_i = 1` for plain ridge.
//!
//! Structurally one ALS half-sweep is the *same computation* as one BPMF
//! half-sweep minus the sampled noise and hyperparameter resampling: build
//! a K×K SPD system per item (SYRK over the rated counterparts), factor,
//! solve. It therefore shares the kernels (`Mat::syrk_lower`, [`Cholesky`])
//! and the sweep parallelization ([`ItemRunner`]) with the sampler, and its
//! per-item cost profile matches the paper's Fig. 2 workload model — which
//! is why it makes a fair speed baseline.

use bpmf_linalg::{Cholesky, Mat, MatWriter};
use bpmf_sched::ItemRunner;
use bpmf_sparse::Csr;
use bpmf_stats::{normal, Xoshiro256pp};
use std::sync::Mutex;

use crate::model::MfModel;

/// ALS hyperparameters.
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// Latent dimensions K.
    pub num_latent: usize,
    /// Ridge strength λ.
    pub lambda: f64,
    /// Scale the ridge by each item's rating count (ALS-WR). `false` gives
    /// plain ridge regression.
    pub weighted_regularization: bool,
    /// Full U+V sweeps to run.
    pub sweeps: usize,
    /// Standard deviation of the random factor initialization.
    pub init_sd: f64,
    /// RNG seed for the initialization.
    pub seed: u64,
    /// Optional rating-scale clamp carried into the trained model.
    pub clip: Option<(f64, f64)>,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig {
            num_latent: 16,
            lambda: 0.05,
            weighted_regularization: true,
            sweeps: 20,
            init_sd: 0.3,
            seed: 42,
            clip: None,
        }
    }
}

/// Per-worker scratch: the K×K normal matrix and the right-hand side.
struct Scratch {
    a: Mat,
    b: Vec<f64>,
}

/// ALS trainer over a fixed training matrix (both orientations).
pub struct AlsTrainer<'a> {
    cfg: AlsConfig,
    r: &'a Csr,
    rt: &'a Csr,
    global_mean: f64,
    users: Mat,
    movies: Mat,
}

impl<'a> AlsTrainer<'a> {
    /// Set up a trainer for `r` (users × movies) and its transpose `rt`.
    ///
    /// # Panics
    ///
    /// Panics if the orientations disagree or the config is degenerate.
    pub fn new(cfg: AlsConfig, r: &'a Csr, rt: &'a Csr) -> Self {
        assert!(cfg.num_latent > 0, "need at least one latent dimension");
        assert!(cfg.lambda >= 0.0, "lambda must be non-negative");
        assert_eq!(r.nrows(), rt.ncols(), "rt must be the transpose of r");
        assert_eq!(r.ncols(), rt.nrows(), "rt must be the transpose of r");
        let k = cfg.num_latent;
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let mut init = |n: usize| {
            let mut m = Mat::zeros(n, k);
            for v in m.as_mut_slice() {
                *v = normal(&mut rng, 0.0, cfg.init_sd);
            }
            m
        };
        let users = init(r.nrows());
        let movies = init(r.ncols());
        let global_mean = {
            let (_, _, vals) = r.raw_parts();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        AlsTrainer {
            cfg,
            r,
            rt,
            global_mean,
            users,
            movies,
        }
    }

    /// The training-set mean the residuals are centered on.
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// Current user factors (rows × K).
    pub fn user_factors(&self) -> &Mat {
        &self.users
    }

    /// Current movie factors (cols × K).
    pub fn movie_factors(&self) -> &Mat {
        &self.movies
    }

    /// One full sweep: movies given users, then users given movies (the
    /// same side order as the paper's Algorithm 1).
    pub fn sweep(&mut self, runner: &dyn ItemRunner) {
        solve_side(
            &self.cfg,
            self.rt,
            &self.users,
            &mut self.movies,
            self.global_mean,
            runner,
        );
        solve_side(
            &self.cfg,
            self.r,
            &self.movies,
            &mut self.users,
            self.global_mean,
            runner,
        );
    }

    /// Run the configured number of sweeps and package the model.
    pub fn train(mut self, runner: &dyn ItemRunner) -> MfModel {
        for _ in 0..self.cfg.sweeps {
            self.sweep(runner);
        }
        self.into_model()
    }

    /// Package the current factors without further sweeps.
    pub fn into_model(self) -> MfModel {
        let mut model = MfModel::new(self.users, self.movies, self.global_mean);
        model.clip = self.cfg.clip;
        model
    }

    /// RMSE of the *current* factors on held-out ratings (clamped when the
    /// config carries a rating-scale clip) — lets callers trace convergence
    /// sweep by sweep without packaging a model.
    pub fn rmse_on(&self, test: &[(u32, u32, f64)]) -> f64 {
        crate::metrics::rmse(test, |u, m| {
            let p =
                self.global_mean + bpmf_linalg::vecops::dot(self.users.row(u), self.movies.row(m));
            match self.cfg.clip {
                Some((lo, hi)) => p.clamp(lo, hi),
                None => p,
            }
        })
    }

    /// The regularized least-squares objective ALS descends:
    /// `Σ (r−r̂)² + λ Σ reg_i ||u_i||² + λ Σ reg_j ||v_j||²`.
    ///
    /// Each half-sweep minimizes it exactly in one side's variables, so it
    /// must be non-increasing across sweeps — the invariant the tests pin.
    pub fn objective(&self) -> f64 {
        let mut sse = 0.0;
        for (i, j, r) in self.r.iter() {
            let e = r
                - self.global_mean
                - bpmf_linalg::vecops::dot(self.users.row(i), self.movies.row(j as usize));
            sse += e * e;
        }
        let reg_term = |m: &Mat, matrix: &Csr| -> f64 {
            (0..m.rows())
                .map(|i| {
                    let reg = if self.cfg.weighted_regularization {
                        matrix.row_nnz(i) as f64
                    } else {
                        1.0
                    };
                    let n = bpmf_linalg::vecops::norm2(m.row(i));
                    reg * n * n
                })
                .sum()
        };
        sse + self.cfg.lambda * (reg_term(&self.users, self.r) + reg_term(&self.movies, self.rt))
    }
}

/// Solve every item of one side exactly once. `matrix` is oriented so row
/// `i` lists the ratings of output item `i`; `other` holds the fixed
/// counterpart factors.
fn solve_side(
    cfg: &AlsConfig,
    matrix: &Csr,
    other: &Mat,
    out: &mut Mat,
    mean: f64,
    runner: &dyn ItemRunner,
) {
    let k = cfg.num_latent;
    let scratches: Vec<Mutex<Scratch>> = (0..runner.threads())
        .map(|_| {
            Mutex::new(Scratch {
                a: Mat::zeros(k, k),
                b: vec![0.0; k],
            })
        })
        .collect();
    let weights: Vec<f64> = (0..matrix.nrows())
        .map(|i| 1.0 + matrix.row_nnz(i) as f64)
        .collect();
    let writer = MatWriter::new(out);
    let update = |worker: usize, item: usize| {
        let mut scratch = scratches[worker].lock().expect("scratch mutex poisoned");
        let Scratch { a, b } = &mut *scratch;
        let (cols, vals) = matrix.row(item);
        // SAFETY: the runner's exactly-once contract means no other worker
        // receives this item, so the output row is unaliased.
        let row = unsafe { writer.row_mut(item) };
        if cols.is_empty() {
            // No data: ridge pulls the factors to zero exactly.
            row.fill(0.0);
            return;
        }
        let reg = if cfg.weighted_regularization {
            cols.len() as f64
        } else {
            1.0
        };
        a.fill(0.0);
        for d in 0..k {
            a[(d, d)] = cfg.lambda * reg;
        }
        b.fill(0.0);
        for (&j, &r) in cols.iter().zip(vals) {
            let v = other.row(j as usize);
            a.syrk_lower(1.0, v);
            bpmf_linalg::vecops::axpy(r - mean, v, b);
        }
        a.symmetrize_from_lower();
        let chol = Cholesky::factor(a).expect("ridge system is SPD for lambda >= 0");
        chol.solve_in_place(b);
        row.copy_from_slice(b);
    };
    runner.run_items(matrix.nrows(), Some(&weights), None, &update);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sched::StaticPool;
    use bpmf_sparse::Coo;

    #[allow(clippy::needless_range_loop)]
    fn small_matrix() -> (Csr, Csr) {
        // 6 users × 5 movies, 18 ratings from a rank-2 pattern + noise-free.
        let mut coo = Coo::new(6, 5);
        let u = [
            [1.0, 0.2],
            [0.5, -0.4],
            [-0.3, 0.9],
            [0.8, 0.8],
            [-1.0, 0.1],
            [0.0, -0.7],
        ];
        let v = [[0.9, 0.0], [0.2, 1.0], [-0.5, 0.5], [1.0, -1.0], [0.3, 0.3]];
        for i in 0..6 {
            for j in 0..5 {
                if (i + 2 * j) % 2 == 0 {
                    let r = 3.0 + u[i][0] * v[j][0] + u[i][1] * v[j][1];
                    coo.push(i, j, r);
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        (r, rt)
    }

    #[test]
    fn objective_is_monotone_nonincreasing() {
        let (r, rt) = small_matrix();
        let cfg = AlsConfig {
            num_latent: 2,
            sweeps: 0,
            lambda: 0.1,
            ..Default::default()
        };
        let runner = StaticPool::new(1);
        let mut t = AlsTrainer::new(cfg, &r, &rt);
        let mut prev = t.objective();
        for sweep in 0..8 {
            t.sweep(&runner);
            let now = t.objective();
            assert!(
                now <= prev + 1e-9,
                "objective rose at sweep {sweep}: {prev} -> {now}"
            );
            prev = now;
        }
    }

    #[test]
    fn fits_noiseless_rank2_data_exactly() {
        let (r, rt) = small_matrix();
        // Residuals are centered on the training mean, which leaves a small
        // constant offset on top of the rank-2 structure — k = 3 makes the
        // target exactly representable.
        let cfg = AlsConfig {
            num_latent: 3,
            sweeps: 150,
            lambda: 1e-8,
            weighted_regularization: false,
            ..Default::default()
        };
        let runner = StaticPool::new(1);
        let model = AlsTrainer::new(cfg, &r, &rt).train(&runner);
        for (i, j, rating) in r.iter() {
            let p = model.predict(i, j as usize);
            assert!((p - rating).abs() < 1e-3, "({i},{j}): {p} vs {rating}");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        // ALS is deterministic given the init, and items are independent
        // within a half-sweep, so thread count must not change the result.
        let (r, rt) = small_matrix();
        let cfg = AlsConfig {
            num_latent: 3,
            sweeps: 4,
            ..Default::default()
        };
        let serial = AlsTrainer::new(cfg.clone(), &r, &rt).train(&StaticPool::new(1));
        let parallel = AlsTrainer::new(cfg, &r, &rt).train(&StaticPool::new(4));
        assert_eq!(
            serial.user_factors.max_abs_diff(&parallel.user_factors),
            0.0,
            "parallel ALS diverged from serial"
        );
        assert_eq!(
            serial.movie_factors.max_abs_diff(&parallel.movie_factors),
            0.0
        );
    }

    #[test]
    fn unrated_items_are_pulled_to_zero() {
        let mut coo = Coo::new(4, 3);
        coo.push(0, 0, 5.0);
        coo.push(1, 0, 1.0);
        // users 2,3 and movies 1,2 have no ratings at all
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        let cfg = AlsConfig {
            num_latent: 2,
            sweeps: 3,
            ..Default::default()
        };
        let model = AlsTrainer::new(cfg, &r, &rt).train(&StaticPool::new(1));
        for i in 2..4 {
            assert!(model.user_factors.row(i).iter().all(|&v| v == 0.0));
        }
        for j in 1..3 {
            assert!(model.movie_factors.row(j).iter().all(|&v| v == 0.0));
        }
        // Their prediction falls back to the global mean.
        assert_eq!(model.predict(2, 1), model.global_mean);
    }

    #[test]
    fn weighted_regularization_shrinks_heavy_items_more() {
        // One movie with many ratings, one with a single rating, same
        // per-rating signal: ALS-WR applies a ridge proportional to the
        // count, so the lone-rating movie keeps a larger norm relative to
        // plain ridge.
        let mut coo = Coo::new(8, 2);
        for i in 0..8 {
            coo.push(i, 0, 4.0);
        }
        coo.push(0, 1, 4.0);
        let r = Csr::from_coo_owned(coo);
        let rt = r.transpose();
        let base = AlsConfig {
            num_latent: 2,
            sweeps: 10,
            lambda: 0.5,
            ..Default::default()
        };
        let wr = AlsTrainer::new(
            AlsConfig {
                weighted_regularization: true,
                ..base.clone()
            },
            &r,
            &rt,
        )
        .train(&StaticPool::new(1));
        let plain = AlsTrainer::new(
            AlsConfig {
                weighted_regularization: false,
                ..base
            },
            &r,
            &rt,
        )
        .train(&StaticPool::new(1));
        let norm = |m: &Mat, i: usize| bpmf_linalg::vecops::norm2(m.row(i));
        // The heavy movie is shrunk harder under WR than under plain ridge.
        assert!(
            norm(&wr.movie_factors, 0) < norm(&plain.movie_factors, 0) + 1e-12,
            "weighted ridge should not inflate heavy items"
        );
    }

    #[test]
    #[should_panic(expected = "transpose")]
    fn mismatched_orientations_are_rejected() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        let r = Csr::from_coo_owned(coo);
        let mut coo2 = Coo::new(4, 3);
        coo2.push(0, 0, 1.0);
        let not_rt = Csr::from_coo_owned(coo2);
        let _ = AlsTrainer::new(AlsConfig::default(), &r, &not_rt);
    }
}
