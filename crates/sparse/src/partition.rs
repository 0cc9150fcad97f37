//! Workload model and contiguous weighted partitioning (paper §IV-B).
//!
//! The paper approximates the cost of updating one item as
//! *fixed cost + cost per rating* and splits `U` and `V` into consecutive
//! regions whose *modeled work* (not item count) is balanced. A row with no
//! ratings is priced separately: it costs one draw from the prior, with no
//! factorization. From a partition plus the rating structure we derive the
//! communication plan: which ranks need each updated item, and how many
//! items each rank will receive per phase (the distributed driver's
//! termination condition).

use std::ops::Range;

use crate::csr::Csr;

/// The paper's linear per-item cost model (Fig. 2), plus the price of a
/// row with no ratings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkModel {
    /// Cost charged to every item with at least one rating, regardless of
    /// how many (precision set-up, factorization, the draw, bookkeeping).
    pub fixed_cost: f64,
    /// Cost of an item with no ratings: one draw from the side's prior.
    pub empty_cost: f64,
    /// Incremental cost per rating (one rank-K accumulation step).
    pub cost_per_rating: f64,
}

impl WorkModel {
    /// Model with the given constants.
    pub fn new(fixed_cost: f64, empty_cost: f64, cost_per_rating: f64) -> Self {
        assert!(
            fixed_cost >= 0.0 && empty_cost >= 0.0 && cost_per_rating >= 0.0,
            "costs must be non-negative"
        );
        WorkModel {
            fixed_cost,
            empty_cost,
            cost_per_rating,
        }
    }

    /// Modeled cost of an item with `nnz` ratings.
    #[inline]
    pub fn weight(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            self.empty_cost
        } else {
            self.fixed_cost + self.cost_per_rating * nnz as f64
        }
    }

    /// Modeled cost of every row of `m`.
    pub fn row_weights(&self, m: &Csr) -> Vec<f64> {
        (0..m.nrows()).map(|i| self.weight(m.row_nnz(i))).collect()
    }
}

impl Default for WorkModel {
    /// Constants for the item-update kernels at K = 32, read off the
    /// benchmark's per-layer metrics (`--workload dist_chembl --trace 1` on
    /// a 2-vCPU AVX-512 host). One unit is one rating, about 0.5 µs:
    ///
    /// * a row with no ratings costs one prior draw, `stats.mvn_draw_ns`
    ///   ≈ 0.8–1.1 µs, plus its share of the sweep loop: **2.5**;
    /// * a rated row costs **3** plus **1** per rating. Most rated rows are
    ///   light (at most `K/8` ratings, 1.9 on average on the chembl-shaped
    ///   matrix) and skip the `K × K` factorization: `update.light_item_us`
    ///   ≈ 1.3–2.5 µs, about five units. Summing `update_item`'s measured
    ///   cost per rating count over each rank's RCM region, a fixed cost
    ///   of 3 splits the compound sweep within 2 %; the 6 that priced every
    ///   rated row as a factorization left one rank 8 % more work;
    /// * `update.heavy_ns_per_rating` ≈ 0.2–0.4 µs is an upper bound on the
    ///   per-rating slope, since it spreads every serial row's
    ///   factorization and draw over its ratings.
    ///
    /// On the chembl-shaped matrix the unrated rows all land in one region
    /// after RCM. Priced like rated rows (the earlier 40 + 1 model), they
    /// left that rank 10–16 % less loop CPU than its peer; these constants
    /// even the two ranks out. A linear model still overprices the ratings
    /// of the heaviest rows, whose blocked kernels run at
    /// `linalg.syrk_ns_per_rating` ≈ 0.11 µs: the rank that owns the few
    /// heaviest movies finishes its movie sweep first.
    fn default() -> Self {
        WorkModel {
            fixed_cost: 3.0,
            empty_cost: 2.5,
            cost_per_rating: 1.0,
        }
    }
}

/// A partition of `0..n` into consecutive, non-overlapping, covering ranges —
/// "consecutive regions in R" in the paper's words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    ranges: Vec<Range<usize>>,
}

impl BlockPartition {
    /// Split `0..n` into `nparts` ranges of (almost) equal *count*.
    pub fn uniform(n: usize, nparts: usize) -> Self {
        assert!(nparts > 0, "need at least one part");
        let mut ranges = Vec::with_capacity(nparts);
        let base = n / nparts;
        let extra = n % nparts;
        let mut start = 0;
        for p in 0..nparts {
            let len = base + usize::from(p < extra);
            ranges.push(start..start + len);
            start += len;
        }
        BlockPartition { ranges }
    }

    /// Split `0..weights.len()` into `nparts` ranges of (almost) equal
    /// *weight* — the paper's workload-balanced distribution. Boundaries are
    /// placed by scanning the prefix-sum against evenly spaced targets.
    pub fn weighted(weights: &[f64], nparts: usize) -> Self {
        assert!(nparts > 0, "need at least one part");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        if n == 0 || total <= 0.0 {
            return Self::uniform(n, nparts);
        }
        let mut ranges = Vec::with_capacity(nparts);
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for p in 0..nparts {
            let target = total * (p as f64 + 1.0) / nparts as f64;
            let mut end = start;
            // Remaining parts must each get at least the chance of one item:
            // never run past n - (parts left after this one).
            let hard_cap = n - (nparts - 1 - p).min(n);
            while end < hard_cap && (acc < target || end == start) {
                acc += weights[end];
                end += 1;
            }
            if p == nparts - 1 {
                end = n;
            }
            ranges.push(start..end);
            start = end;
        }
        BlockPartition { ranges }
    }

    /// Number of parts.
    pub fn nparts(&self) -> usize {
        self.ranges.len()
    }

    /// The range owned by part `p`.
    pub fn range(&self, p: usize) -> Range<usize> {
        self.ranges[p].clone()
    }

    /// All ranges.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Total domain size.
    pub fn domain_len(&self) -> usize {
        self.ranges.last().map(|r| r.end).unwrap_or(0)
    }

    /// Which part owns index `i` (binary search over boundaries).
    pub fn part_of(&self, i: usize) -> usize {
        debug_assert!(i < self.domain_len(), "index {i} outside domain");
        // partition_point returns the first range whose end exceeds i.
        self.ranges.partition_point(|r| r.end <= i)
    }

    /// Modeled weight of each part under `weights`.
    pub fn part_weights(&self, weights: &[f64]) -> Vec<f64> {
        self.ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum())
            .collect()
    }

    /// Load imbalance: max part weight / mean part weight (1.0 = perfect).
    pub fn imbalance(&self, weights: &[f64]) -> f64 {
        let pw = self.part_weights(weights);
        let total: f64 = pw.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / pw.len() as f64;
        pw.iter().fold(0.0f64, |m, &w| m.max(w)) / mean
    }
}

/// Communication plan for one side of the factorization.
///
/// For every locally-updated item, the set of *other* ranks that rate it and
/// therefore must receive its new value (paper §IV-B: "when an item is
/// computed, the rating matrix R determines to what nodes this item needs to
/// be sent"). Stored CSR-style to avoid per-item allocations.
#[derive(Clone, Debug)]
pub struct CommPlan {
    /// `dest_offsets[i]..dest_offsets[i+1]` indexes `dest_ranks` for item `i`
    /// (global item index on this side).
    dest_offsets: Vec<usize>,
    dest_ranks: Vec<u32>,
    /// `recv_counts[p]` = number of items rank `p` receives from others per
    /// full sweep of this side.
    recv_counts: Vec<usize>,
    /// `pair_counts[owner * nparts + dest]` = items `owner` sends to `dest`
    /// per sweep. The distributed driver drains exactly this many items per
    /// source each phase, which keeps fully asynchronous phases aligned
    /// without barriers (FIFO per source does the rest).
    pair_counts: Vec<usize>,
    nparts: usize,
    /// Total cross-rank item sends per sweep.
    total_sends: usize,
}

impl CommPlan {
    /// Build the plan for the side whose items are the *rows* of `m`, with
    /// rows partitioned by `row_parts` and the counterpart side partitioned
    /// by `col_parts`.
    pub fn build(m: &Csr, row_parts: &BlockPartition, col_parts: &BlockPartition) -> Self {
        assert_eq!(
            row_parts.domain_len(),
            m.nrows(),
            "row partition must cover rows"
        );
        assert_eq!(
            col_parts.domain_len(),
            m.ncols(),
            "col partition must cover cols"
        );
        let nparts = row_parts.nparts().max(col_parts.nparts());
        let mut dest_offsets = Vec::with_capacity(m.nrows() + 1);
        dest_offsets.push(0usize);
        let mut dest_ranks: Vec<u32> = Vec::new();
        let mut recv_counts = vec![0usize; nparts];
        let mut pair_counts = vec![0usize; nparts * nparts];
        let mut total_sends = 0usize;
        let mut scratch: Vec<u32> = Vec::new();

        for i in 0..m.nrows() {
            let owner = row_parts.part_of(i);
            let (cols, _) = m.row(i);
            scratch.clear();
            for &c in cols {
                let p = col_parts.part_of(c as usize) as u32;
                if p as usize != owner {
                    scratch.push(p);
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            for &p in scratch.iter() {
                recv_counts[p as usize] += 1;
                pair_counts[owner * nparts + p as usize] += 1;
            }
            total_sends += scratch.len();
            dest_ranks.extend_from_slice(&scratch);
            dest_offsets.push(dest_ranks.len());
        }

        CommPlan {
            dest_offsets,
            dest_ranks,
            recv_counts,
            pair_counts,
            nparts,
            total_sends,
        }
    }

    /// Ranks (excluding the owner) that need item `i` after it is updated.
    #[inline]
    pub fn destinations(&self, i: usize) -> &[u32] {
        &self.dest_ranks[self.dest_offsets[i]..self.dest_offsets[i + 1]]
    }

    /// Items rank `p` receives from other ranks per sweep of this side.
    pub fn recv_count(&self, p: usize) -> usize {
        self.recv_counts[p]
    }

    /// Items `owner` sends to `dest` per sweep of this side.
    pub fn sends_between(&self, owner: usize, dest: usize) -> usize {
        self.pair_counts[owner * self.nparts + dest]
    }

    /// Total cross-rank item transfers per sweep of this side.
    pub fn total_sends(&self) -> usize {
        self.total_sends
    }
}

/// Total item-sends per sweep for *both* sides under the given partitions —
/// the objective the paper's reordering tries to shrink.
pub fn comm_volume(
    r: &Csr,
    rt: &Csr,
    user_parts: &BlockPartition,
    movie_parts: &BlockPartition,
) -> usize {
    let users = CommPlan::build(r, user_parts, movie_parts);
    let movies = CommPlan::build(rt, movie_parts, user_parts);
    users.total_sends() + movies.total_sends()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn uniform_partition_covers_domain() {
        let p = BlockPartition::uniform(10, 3);
        assert_eq!(p.ranges(), &[0..4, 4..7, 7..10]);
        assert_eq!(p.domain_len(), 10);
        for i in 0..10 {
            let part = p.part_of(i);
            assert!(p.range(part).contains(&i));
        }
    }

    #[test]
    fn weighted_partition_balances_skewed_weights() {
        // One huge item followed by many tiny ones.
        let mut weights = vec![100.0];
        weights.extend(std::iter::repeat_n(1.0, 100));
        let p = BlockPartition::weighted(&weights, 2);
        // Part 0 should hold just the huge item (plus maybe a couple),
        // part 1 the rest.
        let pw = p.part_weights(&weights);
        assert!(
            p.imbalance(&weights) < 1.2,
            "imbalance = {}",
            p.imbalance(&weights)
        );
        assert!((pw[0] - pw[1]).abs() < 20.0, "weights: {pw:?}");
    }

    #[test]
    fn weighted_partition_with_more_parts_than_items() {
        let weights = vec![1.0, 1.0];
        let p = BlockPartition::weighted(&weights, 5);
        assert_eq!(p.nparts(), 5);
        assert_eq!(p.domain_len(), 2);
        // All indices owned exactly once.
        let owners: Vec<usize> = (0..2).map(|i| p.part_of(i)).collect();
        assert_eq!(owners.len(), 2);
    }

    #[test]
    fn work_model_weights() {
        let wm = WorkModel::new(10.0, 3.0, 2.0);
        assert_eq!(wm.weight(0), 3.0, "an empty row costs one prior draw");
        assert_eq!(wm.weight(1), 12.0);
        assert_eq!(wm.weight(5), 20.0);
    }

    #[test]
    fn default_model_prices_an_unrated_row_below_a_rated_one() {
        let wm = WorkModel::default();
        assert!(wm.weight(0) > 0.0, "an unrated row still costs a draw");
        assert!(wm.weight(0) < wm.weight(1));
        assert!(wm.weight(1) < wm.weight(2));
        // Five one-rating rows, then eight unrated ones of the same total
        // weight: the region of unrated rows holds more of them, where
        // pricing every row alike would split the count evenly.
        let mut coo = Coo::new(13, 2);
        for i in 0..5 {
            coo.push(i, i % 2, 1.0);
        }
        let m = Csr::from_coo(&coo);
        let weights = wm.row_weights(&m);
        assert_eq!(weights[12], wm.empty_cost);
        let p = BlockPartition::weighted(&weights, 2);
        assert_eq!(p.ranges(), &[0..5, 5..13]);
    }

    fn cross_matrix() -> Csr {
        // 4 users × 4 movies; user 0 rates movies 0 and 3 (crosses halves),
        // user 3 rates movie 0 (crosses), others stay local.
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(0, 3, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        coo.push(3, 0, 1.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn comm_plan_identifies_cross_rank_items() {
        let m = cross_matrix();
        let rows = BlockPartition::uniform(4, 2); // {0,1}, {2,3}
        let cols = BlockPartition::uniform(4, 2);
        let plan = CommPlan::build(&m, &rows, &cols);
        // user 0 (rank 0) rates movie 3 (rank 1) → must be sent to rank 1
        assert_eq!(plan.destinations(0), &[1]);
        // user 1 local only
        assert_eq!(plan.destinations(1), &[] as &[u32]);
        // user 3 (rank 1) rates movie 0 (rank 0) → sent to rank 0
        assert_eq!(plan.destinations(3), &[0]);
        assert_eq!(plan.recv_count(0), 1);
        assert_eq!(plan.recv_count(1), 1);
        assert_eq!(plan.total_sends(), 2);
    }

    #[test]
    fn comm_volume_counts_both_sides() {
        let m = cross_matrix();
        let t = m.transpose();
        let rows = BlockPartition::uniform(4, 2);
        let cols = BlockPartition::uniform(4, 2);
        // users: 2 sends (computed above); movies: movie 0 (rank 0) is rated
        // by user 3 (rank 1) → 1 send; movie 3 (rank 1) rated by user 0
        // (rank 0) → 1 send. Total 4.
        assert_eq!(comm_volume(&m, &t, &rows, &cols), 4);
    }

    #[test]
    fn single_rank_has_no_communication() {
        let m = cross_matrix();
        let t = m.transpose();
        let rows = BlockPartition::uniform(4, 1);
        let cols = BlockPartition::uniform(4, 1);
        assert_eq!(comm_volume(&m, &t, &rows, &cols), 0);
    }

    #[test]
    fn imbalance_of_uniform_weights_is_one() {
        let weights = vec![1.0; 12];
        let p = BlockPartition::weighted(&weights, 4);
        assert!((p.imbalance(&weights) - 1.0).abs() < 1e-12);
    }
}
