//! Stochastic gradient descent factorization (biased MF).
//!
//! The algorithm of the paper's reference \[3\] (Koren, Bell & Volinsky,
//! *Matrix factorization techniques for recommender systems*): for each
//! observed rating, nudge the user and movie factors along the gradient of
//! the regularized squared error
//!
//! ```text
//! e   = r − (mean + b_u + b_m + u·v)
//! u  += η (e·v − λ·u)      v  += η (e·u − λ·v)
//! b_u += η (e − λ·b_u)     b_m += η (e − λ·b_m)
//! ```
//!
//! with an inverse-time step-size decay `η_t = η₀ / (1 + d·t)`.
//!
//! Two execution modes:
//!
//! * [`SgdTrainer::train`] — the classic serial pass over a per-epoch
//!   shuffle of the ratings;
//! * [`SgdTrainer::train_stratified`] — the diagonal-strata parallel
//!   schedule of Gemulla et al.'s distributed SGD (KDD 2011): rows and
//!   columns are cut into `P` blocks; in sub-epoch `s`, worker `w`
//!   processes block `(w, (w+s) mod P)`, so no two workers ever touch the
//!   same user *or* movie row concurrently and no atomics are needed. This
//!   is SGD's answer to the data-distribution problem the paper solves for
//!   BPMF in §IV-B, which makes it the natural third column in the
//!   algorithm-comparison table.

use bpmf_linalg::{Mat, MatWriter};
use bpmf_sparse::Csr;
use bpmf_stats::{normal, Xoshiro256pp};

use crate::model::MfModel;

/// SGD hyperparameters.
#[derive(Clone, Debug)]
pub struct SgdConfig {
    /// Latent dimensions K.
    pub num_latent: usize,
    /// Initial learning rate η₀.
    pub learning_rate: f64,
    /// Inverse-time decay: `η_t = η₀ / (1 + decay · epoch)`.
    pub decay: f64,
    /// L2 regularization λ.
    pub lambda: f64,
    /// Epochs (full passes over the ratings).
    pub epochs: usize,
    /// Fit per-user and per-movie additive biases.
    pub use_biases: bool,
    /// Standard deviation of the factor initialization.
    pub init_sd: f64,
    /// Seed for initialization and epoch shuffles.
    pub seed: u64,
    /// Optional rating-scale clamp carried into the trained model.
    pub clip: Option<(f64, f64)>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            num_latent: 16,
            learning_rate: 0.01,
            decay: 0.05,
            lambda: 0.02,
            epochs: 30,
            use_biases: true,
            init_sd: 0.1,
            seed: 42,
            clip: None,
        }
    }
}

impl SgdConfig {
    /// The step size used in `epoch` (0-based).
    pub fn learning_rate_at(&self, epoch: usize) -> f64 {
        self.learning_rate / (1.0 + self.decay * epoch as f64)
    }
}

/// SGD trainer over a fixed training matrix.
pub struct SgdTrainer {
    cfg: SgdConfig,
    ratings: Vec<(u32, u32, f64)>,
    nrows: usize,
    ncols: usize,
    global_mean: f64,
    users: Mat,
    movies: Mat,
    user_bias: Vec<f64>,
    movie_bias: Vec<f64>,
    rng: Xoshiro256pp,
    epochs_done: usize,
}

impl SgdTrainer {
    /// Set up a trainer for `r` (users × movies).
    pub fn new(cfg: SgdConfig, r: &Csr) -> Self {
        assert!(cfg.num_latent > 0, "need at least one latent dimension");
        assert!(cfg.learning_rate > 0.0, "learning rate must be positive");
        assert!(cfg.lambda >= 0.0, "lambda must be non-negative");
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let k = cfg.num_latent;
        let mut init = |n: usize| {
            let mut m = Mat::zeros(n, k);
            for v in m.as_mut_slice() {
                *v = normal(&mut rng, 0.0, cfg.init_sd);
            }
            m
        };
        let users = init(r.nrows());
        let movies = init(r.ncols());
        let ratings: Vec<_> = r.iter().map(|(i, j, v)| (i as u32, j, v)).collect();
        let global_mean = if ratings.is_empty() {
            0.0
        } else {
            ratings.iter().map(|&(_, _, v)| v).sum::<f64>() / ratings.len() as f64
        };
        SgdTrainer {
            user_bias: vec![0.0; r.nrows()],
            movie_bias: vec![0.0; r.ncols()],
            nrows: r.nrows(),
            ncols: r.ncols(),
            cfg,
            ratings,
            global_mean,
            users,
            movies,
            rng,
            epochs_done: 0,
        }
    }

    /// Completed epochs.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// RMSE of the current parameters on the *training* ratings.
    pub fn train_rmse(&self) -> f64 {
        crate::metrics::rmse(&self.ratings, |u, m| self.predict(u, m))
    }

    /// RMSE of the current parameters on held-out ratings (clamped when the
    /// config carries a rating-scale clip) — lets callers trace convergence
    /// epoch by epoch without packaging a model.
    pub fn rmse_on(&self, test: &[(u32, u32, f64)]) -> f64 {
        crate::metrics::rmse(test, |u, m| {
            let p = self.predict(u, m);
            match self.cfg.clip {
                Some((lo, hi)) => p.clamp(lo, hi),
                None => p,
            }
        })
    }

    fn predict(&self, u: usize, m: usize) -> f64 {
        self.global_mean
            + self.user_bias[u]
            + self.movie_bias[m]
            + bpmf_linalg::vecops::dot(self.users.row(u), self.movies.row(m))
    }

    /// One serial epoch: shuffled pass over every rating.
    pub fn epoch(&mut self) {
        let lr = self.cfg.learning_rate_at(self.epochs_done);
        // Fisher–Yates over an index array; the rating triples stay put.
        let mut order: Vec<u32> = (0..self.ratings.len() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.next_index(i + 1));
        }
        for &idx in &order {
            let (u, m, r) = self.ratings[idx as usize];
            sgd_step(
                &self.cfg,
                lr,
                self.global_mean,
                (u as usize, m as usize, r),
                self.users.row_mut(u as usize),
                // SAFETY-free split: users and movies are different fields.
                self.movies.row_mut(m as usize),
                &mut self.user_bias[u as usize],
                &mut self.movie_bias[m as usize],
            );
        }
        self.epochs_done += 1;
    }

    /// Run the configured number of serial epochs and package the model.
    pub fn train(mut self) -> MfModel {
        for _ in 0..self.cfg.epochs {
            self.epoch();
        }
        self.into_model()
    }

    /// One stratified-parallel epoch over `threads` workers (diagonal
    /// strata: `threads` sub-epochs, each running `threads` conflict-free
    /// blocks concurrently).
    pub fn epoch_stratified(&mut self, threads: usize) {
        assert!(threads > 0, "need at least one worker");
        if threads == 1 || self.ratings.is_empty() {
            self.epoch();
            return;
        }
        let p = threads;
        let lr = self.cfg.learning_rate_at(self.epochs_done);
        let row_block = |u: u32| (u as usize * p / self.nrows.max(1)).min(p - 1);
        let col_block = |m: u32| (m as usize * p / self.ncols.max(1)).min(p - 1);
        // Bucket ratings by (row block, column block), shuffled within each
        // bucket by construction order randomization.
        let mut buckets: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); p * p];
        let mut order: Vec<u32> = (0..self.ratings.len() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.next_index(i + 1));
        }
        for &idx in &order {
            let (u, m, r) = self.ratings[idx as usize];
            buckets[row_block(u) * p + col_block(m)].push((u, m, r));
        }
        let cfg = &self.cfg;
        let mean = self.global_mean;
        for stratum in 0..p {
            let users = MatWriter::new(&mut self.users);
            let movies = MatWriter::new(&mut self.movies);
            let ub = MatWriter::from_slice(&mut self.user_bias);
            let mb = MatWriter::from_slice(&mut self.movie_bias);
            let buckets = &buckets;
            std::thread::scope(|scope| {
                for w in 0..p {
                    let users = &users;
                    let movies = &movies;
                    let ub = &ub;
                    let mb = &mb;
                    scope.spawn(move || {
                        let block = &buckets[w * p + (w + stratum) % p];
                        for &(u, m, r) in block {
                            // SAFETY: worker w owns row block w and column
                            // block (w+stratum)%p exclusively within this
                            // stratum, so every row and bias cell touched
                            // here is unaliased.
                            unsafe {
                                sgd_step(
                                    cfg,
                                    lr,
                                    mean,
                                    (u as usize, m as usize, r),
                                    users.row_mut(u as usize),
                                    movies.row_mut(m as usize),
                                    &mut ub.row_mut(u as usize)[0],
                                    &mut mb.row_mut(m as usize)[0],
                                );
                            }
                        }
                    });
                }
            });
        }
        self.epochs_done += 1;
    }

    /// Run the configured number of stratified-parallel epochs.
    pub fn train_stratified(mut self, threads: usize) -> MfModel {
        for _ in 0..self.cfg.epochs {
            self.epoch_stratified(threads);
        }
        self.into_model()
    }

    /// Package the current parameters without further epochs.
    pub fn into_model(self) -> MfModel {
        let mut model = MfModel::new(self.users, self.movies, self.global_mean);
        if self.cfg.use_biases {
            model.user_bias = self.user_bias;
            model.movie_bias = self.movie_bias;
        }
        model.clip = self.cfg.clip;
        model
    }
}

/// One SGD update. Biases are only moved when configured.
#[allow(clippy::too_many_arguments)]
fn sgd_step(
    cfg: &SgdConfig,
    lr: f64,
    mean: f64,
    (u, m, r): (usize, usize, f64),
    urow: &mut [f64],
    vrow: &mut [f64],
    bu: &mut f64,
    bm: &mut f64,
) {
    let _ = (u, m);
    let mut pred = mean + bpmf_linalg::vecops::dot(urow, vrow);
    if cfg.use_biases {
        pred += *bu + *bm;
    }
    let e = r - pred;
    for (uu, vv) in urow.iter_mut().zip(vrow.iter_mut()) {
        let (du, dv) = (e * *vv - cfg.lambda * *uu, e * *uu - cfg.lambda * *vv);
        *uu += lr * du;
        *vv += lr * dv;
    }
    if cfg.use_biases {
        *bu += lr * (e - cfg.lambda * *bu);
        *bm += lr * (e - cfg.lambda * *bm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf_sparse::Coo;

    /// Planted rank-2 ratings with a small deterministic "noise".
    fn planted(nrows: usize, ncols: usize) -> Csr {
        let mut coo = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                if (i * 7 + j * 3) % 4 != 0 {
                    let u = [(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()];
                    let v = [(j as f64 * 0.53).cos(), (j as f64 * 0.29).sin()];
                    coo.push(i, j, 3.0 + u[0] * v[0] + u[1] * v[1]);
                }
            }
        }
        Csr::from_coo_owned(coo)
    }

    #[test]
    fn training_reduces_train_rmse() {
        let r = planted(30, 20);
        let cfg = SgdConfig {
            num_latent: 4,
            epochs: 0,
            learning_rate: 0.05,
            decay: 0.01,
            init_sd: 0.3,
            ..Default::default()
        };
        let mut t = SgdTrainer::new(cfg, &r);
        let before = t.train_rmse();
        for _ in 0..40 {
            t.epoch();
        }
        let after = t.train_rmse();
        assert!(
            after < before * 0.5,
            "SGD failed to reduce train RMSE: {before} -> {after}"
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let r = planted(15, 10);
        let cfg = SgdConfig {
            num_latent: 3,
            epochs: 5,
            ..Default::default()
        };
        let a = SgdTrainer::new(cfg.clone(), &r).train();
        let b = SgdTrainer::new(cfg, &r).train();
        assert_eq!(a.user_factors.max_abs_diff(&b.user_factors), 0.0);
        assert_eq!(a.movie_factors.max_abs_diff(&b.movie_factors), 0.0);
    }

    #[test]
    fn biases_capture_additive_structure() {
        // Ratings are purely additive: mean + row offset + column offset.
        let (nrows, ncols) = (20, 12);
        let mut coo = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                if (i + j) % 3 != 0 {
                    coo.push(i, j, 3.0 + 0.1 * i as f64 - 0.15 * j as f64);
                }
            }
        }
        let r = Csr::from_coo_owned(coo);
        let base = SgdConfig {
            num_latent: 1,
            epochs: 60,
            init_sd: 0.01,
            learning_rate: 0.05,
            ..Default::default()
        };
        let with = SgdTrainer::new(
            SgdConfig {
                use_biases: true,
                ..base.clone()
            },
            &r,
        )
        .train();
        let without = SgdTrainer::new(
            SgdConfig {
                use_biases: false,
                ..base
            },
            &r,
        )
        .train();
        let test: Vec<_> = r.iter().map(|(i, j, v)| (i as u32, j, v)).collect();
        let rmse_with = with.rmse_on(&test);
        let rmse_without = without.rmse_on(&test);
        assert!(
            rmse_with < rmse_without * 0.6,
            "biases should fit additive data far better: {rmse_with} vs {rmse_without}"
        );
    }

    #[test]
    fn stratified_converges_like_serial() {
        let r = planted(40, 24);
        let cfg = SgdConfig {
            num_latent: 4,
            epochs: 40,
            learning_rate: 0.05,
            decay: 0.01,
            init_sd: 0.3,
            ..Default::default()
        };
        let serial = SgdTrainer::new(cfg.clone(), &r).train();
        let strat = SgdTrainer::new(cfg, &r).train_stratified(3);
        let test: Vec<_> = r.iter().map(|(i, j, v)| (i as u32, j, v)).collect();
        let (a, b) = (serial.rmse_on(&test), strat.rmse_on(&test));
        assert!(a < 0.2, "serial SGD should fit planted data, rmse {a}");
        assert!(b < 0.2, "stratified SGD should fit planted data, rmse {b}");
    }

    #[test]
    fn learning_rate_decays_inverse_time() {
        let cfg = SgdConfig {
            learning_rate: 0.1,
            decay: 0.5,
            ..Default::default()
        };
        assert_eq!(cfg.learning_rate_at(0), 0.1);
        assert!((cfg.learning_rate_at(2) - 0.05).abs() < 1e-15);
        assert!(cfg.learning_rate_at(10) < cfg.learning_rate_at(9));
    }

    #[test]
    fn empty_matrix_trains_to_global_mean_model() {
        let coo = Coo::new(4, 4);
        let r = Csr::from_coo_owned(coo);
        let cfg = SgdConfig {
            num_latent: 2,
            epochs: 3,
            init_sd: 0.0,
            ..Default::default()
        };
        let model = SgdTrainer::new(cfg, &r).train();
        assert_eq!(model.predict(1, 2), 0.0); // mean of no ratings = 0
    }

    #[test]
    fn clip_is_carried_into_the_model() {
        let r = planted(10, 8);
        let cfg = SgdConfig {
            epochs: 1,
            clip: Some((1.0, 5.0)),
            ..Default::default()
        };
        let model = SgdTrainer::new(cfg, &r).train();
        for i in 0..10 {
            for j in 0..8 {
                let p = model.predict(i, j);
                assert!((1.0..=5.0).contains(&p), "clip violated: {p}");
            }
        }
    }
}
