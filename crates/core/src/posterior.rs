//! Posterior bookkeeping shared by every sampling chain.
//!
//! The Gibbs sampler, the distributed ranks and the SGLD chain all turn a
//! stream of factor draws into the same summaries: a burn-in gate,
//! posterior-mean factor sums with element-wise second moments, running
//! test-point predictions, and a `(sample, posterior-mean)` RMSE pair per
//! iteration. [`PosteriorAccumulator`] does that once for all three.
//!
//! A distributed rank owns only a consecutive range of rows per side, so
//! an accumulator can be restricted to those ranges
//! ([`PosteriorAccumulator::owning`]); the rank then predicts only its own
//! test points and all-reduces the squared errors before turning them into
//! RMSEs ([`PosteriorAccumulator::rmse`]).

use std::ops::Range;

use bpmf_linalg::{vecops, Mat};

use crate::checkpoint::{FlatMat, SamplerCheckpoint};

/// Monte-Carlo summary of one test point's posterior predictive.
#[derive(Clone, Copy, Debug)]
pub struct PredictionSummary {
    /// Posterior-mean prediction.
    pub mean: f64,
    /// Posterior predictive standard deviation across Gibbs samples — the
    /// confidence measure the paper's intro credits BPMF with providing
    /// "for free".
    pub std: f64,
}

/// A `(users, movies)` pair of factor-shaped matrices.
pub(crate) type FactorPair = (Mat, Mat);

/// Running sums over a chain's post-burn-in draws.
#[derive(Clone, Debug)]
pub(crate) struct PosteriorAccumulator {
    burnin: usize,
    global_mean: f64,
    rating_bounds: Option<(f64, f64)>,
    /// Rows folded in per side; `None` means every row.
    owned: Option<(Range<usize>, Range<usize>)>,
    count: usize,
    /// Factor sums `(ΣU, ΣV)`, allocated at the first post-burn-in draw.
    sums: Option<FactorPair>,
    /// Element-wise squared-factor sums. Absent after resuming a chain
    /// whose checkpoint predates them: the early draws' squares are lost,
    /// so second moments stay off rather than understate the spread.
    squares: Option<FactorPair>,
    predict_sum: Vec<f64>,
    predict_sq_sum: Vec<f64>,
}

impl PosteriorAccumulator {
    /// An empty accumulator that averages every draw from iteration
    /// `burnin` on and tracks `points` test predictions. Predictions are
    /// `global_mean + u·v`, clamped to `rating_bounds`.
    pub fn new(
        burnin: usize,
        points: usize,
        global_mean: f64,
        rating_bounds: Option<(f64, f64)>,
    ) -> Self {
        PosteriorAccumulator {
            burnin,
            global_mean,
            rating_bounds,
            owned: None,
            count: 0,
            sums: None,
            squares: None,
            predict_sum: vec![0.0; points],
            predict_sq_sum: vec![0.0; points],
        }
    }

    /// Fold in only these user and movie rows (a distributed rank's own
    /// regions); the other rows of the sums stay zero.
    pub fn owning(mut self, users: Range<usize>, movies: Range<usize>) -> Self {
        self.owned = Some((users, movies));
        self
    }

    /// Continue the chain a checkpoint captured: its sample count, factor
    /// and squared-factor sums, and test-prediction sums.
    pub fn resumed_from(mut self, ckpt: &SamplerCheckpoint) -> Self {
        let pair =
            |p: &Option<(FlatMat, FlatMat)>| p.as_ref().map(|(u, v)| (u.to_mat(), v.to_mat()));
        self.count = ckpt.acc_count;
        self.sums = pair(&ckpt.factor_acc);
        self.squares = pair(&ckpt.factor_sq_acc);
        self.predict_sum = ckpt.predict_acc.clone();
        self.predict_sq_sum = ckpt.predict_sq_acc.clone();
        self
    }

    /// Record the draw of iteration `iter` (0-based): fold it into the
    /// sums once burn-in is over, then predict every point in `points`.
    /// Returns the summed squared errors of the current draw and of the
    /// running posterior mean (the latter 0 during burn-in); turn them
    /// into RMSEs with [`PosteriorAccumulator::rmse`].
    pub fn record(
        &mut self,
        iter: usize,
        users: &Mat,
        movies: &Mat,
        points: &[(u32, u32, f64)],
    ) -> [f64; 2] {
        let averaging = iter >= self.burnin;
        if averaging {
            self.fold(users, movies);
        }
        let mut se = [0.0f64; 2];
        for ((slot, sq_slot), &(i, j, r)) in self
            .predict_sum
            .iter_mut()
            .zip(self.predict_sq_sum.iter_mut())
            .zip(points)
        {
            let raw = self.global_mean + vecops::dot(users.row(i as usize), movies.row(j as usize));
            let pred = match self.rating_bounds {
                Some((lo, hi)) => raw.clamp(lo, hi),
                None => raw,
            };
            se[0] += (pred - r) * (pred - r);
            if averaging {
                *slot += pred;
                *sq_slot += pred * pred;
                let avg = *slot / self.count as f64;
                se[1] += (avg - r) * (avg - r);
            }
        }
        se
    }

    fn fold(&mut self, users: &Mat, movies: &Mat) {
        let zeros = || {
            (
                Mat::zeros(users.rows(), users.cols()),
                Mat::zeros(movies.rows(), movies.cols()),
            )
        };
        // Squares start with the first draw or not at all (see `squares`).
        if self.count == 0 {
            self.squares.get_or_insert_with(zeros);
        }
        let (user_rows, movie_rows) = self
            .owned
            .clone()
            .unwrap_or((0..users.rows(), 0..movies.rows()));
        let (su, sv) = self.sums.get_or_insert_with(zeros);
        let (qu, qv) = match &mut self.squares {
            Some((qu, qv)) => (Some(qu), Some(qv)),
            None => (None, None),
        };
        fold_rows(su, qu, users, user_rows);
        fold_rows(sv, qv, movies, movie_rows);
        self.count += 1;
    }

    /// RMSEs `(current draw, posterior mean)` from squared-error sums over
    /// `n` test points: NaN without test points, and NaN for the mean
    /// before any post-burn-in draw.
    pub fn rmse(&self, se: [f64; 2], n: usize) -> (f64, f64) {
        if n == 0 {
            return (f64::NAN, f64::NAN);
        }
        let n = n as f64;
        let mean = if self.count > 0 {
            (se[1] / n).sqrt()
        } else {
            f64::NAN
        };
        ((se[0] / n).sqrt(), mean)
    }

    /// Post-burn-in draws folded in so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Raw factor sums `(ΣU, ΣV)`; `None` before any post-burn-in draw.
    pub fn sums(&self) -> Option<&FactorPair> {
        self.sums.as_ref().filter(|_| self.count > 0)
    }

    /// Raw element-wise squared-factor sums, when they cover every draw.
    pub fn squares(&self) -> Option<&FactorPair> {
        self.squares.as_ref().filter(|_| self.count > 0)
    }

    /// Running test-prediction sums and squared sums.
    pub fn prediction_sums(&self) -> (&[f64], &[f64]) {
        (&self.predict_sum, &self.predict_sq_sum)
    }

    /// Posterior-mean factors `(E[U], E[V])`.
    pub fn means(&self) -> Option<FactorPair> {
        self.sums().cloned().map(|pair| self.averaged(pair))
    }

    /// Element-wise posterior second moments `(E[U²], E[V²])`.
    pub fn second_moments(&self) -> Option<FactorPair> {
        self.squares().cloned().map(|pair| self.averaged(pair))
    }

    /// [`means`](Self::means) and [`second_moments`](Self::second_moments),
    /// averaged in place instead of copied.
    pub fn into_moments(mut self) -> (Option<FactorPair>, Option<FactorPair>) {
        let live = |p: Option<FactorPair>| p.filter(|_| self.count > 0);
        let (sums, squares) = (live(self.sums.take()), live(self.squares.take()));
        (
            sums.map(|p| self.averaged(p)),
            squares.map(|p| self.averaged(p)),
        )
    }

    fn averaged(&self, (mut u, mut v): FactorPair) -> FactorPair {
        let inv = 1.0 / self.count as f64;
        u.scale(inv);
        v.scale(inv);
        (u, v)
    }

    /// Posterior predictive mean and standard deviation of every tracked
    /// test point. Empty before two post-burn-in draws.
    pub fn summaries(&self) -> Vec<PredictionSummary> {
        if self.count < 2 {
            return Vec::new();
        }
        let n = self.count as f64;
        self.predict_sum
            .iter()
            .zip(&self.predict_sq_sum)
            .map(|(&s, &sq)| {
                // Unbiased sample variance over the draws.
                let var = ((sq - s * s / n) / (n - 1.0)).max(0.0);
                PredictionSummary {
                    mean: s / n,
                    std: var.sqrt(),
                }
            })
            .collect()
    }
}

/// Add rows `rows` of `items` into `sum`, and their squares into `sq`.
fn fold_rows(sum: &mut Mat, sq: Option<&mut Mat>, items: &Mat, rows: Range<usize>) {
    let k = items.cols();
    let span = rows.start * k..rows.end * k;
    let x = &items.as_slice()[span.clone()];
    for (a, &v) in sum.as_mut_slice()[span.clone()].iter_mut().zip(x) {
        *a += v;
    }
    if let Some(sq) = sq {
        for (s, &v) in sq.as_mut_slice()[span].iter_mut().zip(x) {
            *s += v * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(rows: usize, k: usize, seed: u64) -> Mat {
        let mut rng = bpmf_stats::Xoshiro256pp::seed_from_u64(seed);
        Mat::from_fn(rows, k, |_, _| bpmf_stats::normal(&mut rng, 0.0, 1.0))
    }

    #[test]
    fn burn_in_draws_are_scored_but_not_averaged() {
        let (u, v) = (draw(4, 2, 1), draw(3, 2, 2));
        let points = [(0u32, 1u32, 0.5), (3, 2, -0.25)];
        let mut acc = PosteriorAccumulator::new(2, points.len(), 0.0, None);
        for iter in 0..2 {
            let se = acc.record(iter, &u, &v, &points);
            let (sample, mean) = acc.rmse(se, points.len());
            assert!(sample.is_finite() && mean.is_nan());
            assert!(acc.means().is_none());
        }
        let se = acc.record(2, &u, &v, &points);
        let (sample, mean) = acc.rmse(se, points.len());
        // One averaged draw: the posterior mean *is* the draw.
        assert_eq!(sample.to_bits(), mean.to_bits());
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.means().unwrap().0.as_slice(), u.as_slice());
        assert_eq!(acc.rmse([0.0; 2], 0).0.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn rank_owned_ranges_reassemble_the_whole_chain_exactly() {
        // Two "ranks" folding disjoint row ranges must sum, row for row, to
        // what one accumulator over every row holds — the invariant the
        // distributed gather relies on.
        let (m, n, k) = (7, 5, 3);
        let mut whole = PosteriorAccumulator::new(0, 0, 0.0, None);
        let mut lo = PosteriorAccumulator::new(0, 0, 0.0, None).owning(0..3, 0..2);
        let mut hi = PosteriorAccumulator::new(0, 0, 0.0, None).owning(3..m, 2..n);
        for iter in 0..4 {
            let (u, v) = (draw(m, k, 10 + iter as u64), draw(n, k, 20 + iter as u64));
            for acc in [&mut whole, &mut lo, &mut hi] {
                acc.record(iter, &u, &v, &[]);
            }
        }
        let merge = |a: &Mat, b: &Mat| {
            let mut out = a.clone();
            out.add_assign_scaled(b, 1.0);
            out
        };
        for (w, (l, h)) in [
            (
                whole.means().unwrap(),
                (lo.means().unwrap(), hi.means().unwrap()),
            ),
            (
                whole.second_moments().unwrap(),
                (lo.second_moments().unwrap(), hi.second_moments().unwrap()),
            ),
        ] {
            assert_eq!(w.0.as_slice(), merge(&l.0, &h.0).as_slice());
            assert_eq!(w.1.as_slice(), merge(&l.1, &h.1).as_slice());
        }
    }

    #[test]
    fn resuming_without_squares_keeps_second_moments_off() {
        let (u, v) = (draw(3, 2, 5), draw(2, 2, 6));
        let mut acc = PosteriorAccumulator::new(0, 0, 0.0, None);
        acc.record(0, &u, &v, &[]);
        acc.squares = None;
        acc.record(1, &u, &v, &[]);
        assert!(acc.means().is_some());
        assert!(acc.second_moments().is_none());
    }
}
