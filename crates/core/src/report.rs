//! Serializable training reports.

use serde::{Deserialize, Serialize};

/// Accounting for one Gibbs iteration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// RMSE of the *current* sample's predictions on the test set.
    pub rmse_sample: f64,
    /// RMSE of the running posterior-mean prediction (NaN during burn-in).
    pub rmse_mean: f64,
    /// Item updates (users + movies) per wall second over both sweeps.
    pub items_per_sec: f64,
    /// Wall seconds spent in the two item sweeps.
    pub sweep_seconds: f64,
    /// Mean worker busy fraction across both sweeps (1.0 = no idle time).
    pub busy_fraction: f64,
    /// Successful steals across both sweeps (work-stealing runtime only).
    pub steals: u64,
}

/// Full training run: per-iteration stats plus summary accessors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Runtime used ("work-stealing", "static", "graphlab-like", "distributed").
    pub engine: String,
    /// Worker threads (or ranks).
    pub parallelism: usize,
    /// Per-iteration trace.
    pub iters: Vec<IterStats>,
}

/// Last iteration's posterior-mean RMSE, falling back to its sample RMSE.
fn final_rmse_of(iters: &[IterStats]) -> f64 {
    iters
        .last()
        .map(|s| {
            if s.rmse_mean.is_finite() {
                s.rmse_mean
            } else {
                s.rmse_sample
            }
        })
        .unwrap_or(f64::NAN)
}

/// Mean items/second over the post-burn-in iterations (all iterations when
/// none averaged).
fn mean_items_per_sec_of(iters: &[IterStats]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for s in iters.iter().filter(|s| s.rmse_mean.is_finite()) {
        sum += s.items_per_sec;
        n += 1;
    }
    if n == 0 {
        return iters.iter().map(|s| s.items_per_sec).sum::<f64>() / iters.len().max(1) as f64;
    }
    sum / n as f64
}

impl TrainReport {
    /// Final posterior-mean RMSE (falls back to the last sample RMSE if no
    /// averaged samples were taken).
    pub fn final_rmse(&self) -> f64 {
        final_rmse_of(&self.iters)
    }

    /// Mean items/second over the sampling (post-burn-in) iterations, the
    /// paper's headline performance metric.
    pub fn mean_items_per_sec(&self) -> f64 {
        mean_items_per_sec_of(&self.iters)
    }
}

/// The unified training report shared by every algorithm behind the
/// [`crate::Trainer`] trait. Subsumes [`TrainReport`] (the Gibbs-specific
/// shape, kept for back-compat) and the baselines' ad-hoc `(rmse, seconds)`
/// tuples: one row per iteration — Gibbs step, ALS sweep, or SGD epoch — so
/// RMSE/timing curves from all three algorithms are directly comparable.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FitReport {
    /// Algorithm that produced the fit (`gibbs` | `als` | `sgd`).
    pub algorithm: String,
    /// Runtime used ("work-stealing", "static", "graphlab-like", "serial").
    pub engine: String,
    /// Worker threads (or ranks).
    pub parallelism: usize,
    /// Per-iteration trace. For point estimators `rmse_sample` and
    /// `rmse_mean` both carry the current model's held-out RMSE.
    pub iters: Vec<IterStats>,
    /// Wall seconds for the whole fit.
    pub total_seconds: f64,
    /// Whether an [`crate::IterCallback`] stopped training early.
    pub early_stopped: bool,
}

impl FitReport {
    /// Final held-out RMSE: the posterior-mean RMSE when available, the
    /// last current-model RMSE otherwise.
    pub fn final_rmse(&self) -> f64 {
        final_rmse_of(&self.iters)
    }

    /// Best (lowest) held-out RMSE seen at any iteration.
    pub fn best_rmse(&self) -> f64 {
        self.iters
            .iter()
            .map(|s| {
                if s.rmse_mean.is_finite() {
                    s.rmse_mean
                } else {
                    s.rmse_sample
                }
            })
            .fold(f64::NAN, f64::min)
    }

    /// Mean item updates per second over the post-burn-in iterations (all
    /// iterations for point estimators).
    pub fn mean_items_per_sec(&self) -> f64 {
        mean_items_per_sec_of(&self.iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(iter: usize, rmse_mean: f64, ips: f64) -> IterStats {
        IterStats {
            iter,
            rmse_sample: 1.0,
            rmse_mean,
            items_per_sec: ips,
            sweep_seconds: 0.1,
            busy_fraction: 0.9,
            steals: 0,
        }
    }

    #[test]
    fn final_rmse_prefers_posterior_mean() {
        let report = TrainReport {
            engine: "test".into(),
            parallelism: 1,
            iters: vec![stats(0, f64::NAN, 10.0), stats(1, 0.5, 20.0)],
        };
        assert_eq!(report.final_rmse(), 0.5);
        assert_eq!(report.mean_items_per_sec(), 20.0);
    }

    #[test]
    fn empty_report_is_nan() {
        let report = TrainReport {
            engine: "e".into(),
            parallelism: 1,
            iters: vec![],
        };
        assert!(report.final_rmse().is_nan());
    }

    #[test]
    fn fit_report_subsumes_train_report() {
        let train = TrainReport {
            engine: "static".into(),
            parallelism: 2,
            iters: vec![
                stats(0, f64::NAN, 10.0),
                stats(1, 0.7, 20.0),
                stats(2, 0.5, 30.0),
            ],
        };
        let fit = FitReport {
            algorithm: "gibbs".into(),
            engine: train.engine.clone(),
            parallelism: train.parallelism,
            iters: train.iters.clone(),
            total_seconds: 1.25,
            early_stopped: false,
        };
        assert_eq!(fit.final_rmse(), train.final_rmse());
        assert_eq!(fit.mean_items_per_sec(), train.mean_items_per_sec());
        assert_eq!(fit.best_rmse(), 0.5);
    }

    #[test]
    fn fit_report_serializes() {
        let fit = FitReport {
            algorithm: "als".into(),
            engine: "static".into(),
            parallelism: 1,
            iters: vec![stats(0, 0.9, 5.0)],
            total_seconds: 0.5,
            early_stopped: true,
        };
        let json = serde_json::to_string(&fit).unwrap();
        let back: FitReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "als");
        assert!(back.early_stopped);
        assert_eq!(back.iters.len(), 1);
    }
}
