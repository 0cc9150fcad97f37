//! Order statistics and the slice summaries every metric goes through.

/// Slices the timed region of every workload is cut into. A metric's value is
/// the median over slices, so one disturbed slice does not move it.
pub const SLICES: usize = 5;

/// Nearest-rank percentile of an ascending-sorted slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Quartiles by the exclusive method, which is what Python's
/// `statistics.quantiles(values, n=4)` computes; the benchmark's acceptance
/// spread is stated in those terms. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile distance; 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, _, q3)| q3 - q1)
}

/// Median and inter-quartile distance of per-slice values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub spread: f64,
}

pub fn summarize(per_slice: &[f64]) -> Summary {
    Summary {
        value: median(per_slice),
        spread: iqr(per_slice),
    }
}

/// Which of `slices` equal slices of `[0, window_ns)` an offset falls in;
/// `None` at or past the end of the window.
pub fn slice_of(offset_ns: u64, window_ns: u64, slices: usize) -> Option<usize> {
    if offset_ns >= window_ns {
        return None;
    }
    Some(((offset_ns as u128 * slices as u128) / window_ns as u128) as usize)
}

/// Cut `n` consecutive samples into `slices` contiguous groups whose sizes
/// differ by at most one (fewer groups when `n < slices`).
pub fn contiguous_groups(n: usize, slices: usize) -> Vec<std::ops::Range<usize>> {
    let groups = slices.min(n);
    (0..groups)
        .map(|g| (g * n / groups)..((g + 1) * n / groups))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, _, q3) = quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]).unwrap();
        assert_eq!((q1, q3), (15.0, 45.0));
        assert_eq!(iqr(&[50.0, 10.0, 30.0, 20.0, 40.0]), 30.0);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn slices_partition_the_window() {
        assert_eq!(slice_of(0, 1000, 5), Some(0));
        assert_eq!(slice_of(199, 1000, 5), Some(0));
        assert_eq!(slice_of(200, 1000, 5), Some(1));
        assert_eq!(slice_of(999, 1000, 5), Some(4));
        assert_eq!(slice_of(1000, 1000, 5), None);
    }

    #[test]
    fn contiguous_groups_cover_every_sample_once() {
        let g = contiguous_groups(13, 5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].start, 0);
        assert_eq!(g[4].end, 13);
        for w in g.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(contiguous_groups(3, 5).len(), 3);
        assert!(contiguous_groups(0, 5).is_empty());
    }
}
