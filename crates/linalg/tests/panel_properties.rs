//! Property-based agreement between the blocked panel kernels and the
//! naive per-rating reference.
//!
//! The blocked kernels are pure re-associations of the per-rating loops, so
//! they must agree to near machine precision (1e-12) for every shape —
//! including the degenerate `d = 0` and `d = 1` panels, single-column
//! matrices, and row counts that are not a multiple of any internal block
//! or unroll factor.

use bpmf_linalg::{
    gemv_t_acc, gemv_t_acc_scalar, syrk_ld_lower, syrk_ld_lower_scalar, vecops, Mat, PANEL_BLOCK,
};
use proptest::prelude::*;

/// A random `(k, d, panel, weights)` tuple. `d` deliberately straddles the
/// cache block: 0, 1, tiny, just-below/above `PANEL_BLOCK`, and several
/// blocks plus an odd remainder.
fn panel_case() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (1usize..=40, 0usize..=(3 * PANEL_BLOCK + 5)).prop_flat_map(|(k, d)| {
        (
            Just(k),
            proptest::collection::vec(-2.0f64..2.0, k * d),
            proptest::collection::vec(-3.0f64..3.0, d),
        )
    })
}

/// The dispatched kernel (whichever arm this process selected — CI runs the
/// suite with and without `BPMF_NO_SIMD=1`) against the pinned scalar arm on
/// a fixed grid: every order up to 40, so non-multiples of 4 and 8 hit every
/// masked tile edge, times panels on both sides of the cache block. 1e-12
/// agreement, and the strict upper triangle bit-for-bit untouched.
#[test]
fn dispatched_syrk_matches_scalar_on_the_full_shape_grid() {
    const SENTINEL: f64 = -77.0;
    for k in 1usize..=40 {
        for d in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 200] {
            let panel: Vec<f64> = (0..d * k)
                .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            let start = Mat::from_fn(k, k, |i, j| {
                if j > i {
                    SENTINEL
                } else {
                    (i * 31 + j) as f64 * 0.1
                }
            });
            let mut dispatched = start.clone();
            let mut scalar = start.clone();
            syrk_ld_lower(&mut dispatched, 0.9, &panel, k);
            syrk_ld_lower_scalar(&mut scalar, 0.9, &panel, k);
            for i in 0..k {
                for j in 0..k {
                    if j > i {
                        assert_eq!(dispatched[(i, j)], SENTINEL, "k={k} d={d}: upper ({i},{j})");
                        assert_eq!(
                            scalar[(i, j)],
                            SENTINEL,
                            "k={k} d={d}: scalar upper ({i},{j})"
                        );
                    }
                }
            }
            let diff = dispatched.max_abs_diff(&scalar);
            assert!(diff < 1e-12, "k={k} d={d}: {diff:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_syrk_matches_per_rating((k, panel, _w) in panel_case()) {
        let mut blocked = Mat::from_fn(k, k, |i, j| ((i * 31 + j) as f64).sin());
        let mut naive = blocked.clone();
        syrk_ld_lower(&mut blocked, 1.3, &panel, k);
        for row in panel.chunks_exact(k) {
            naive.syrk_lower(1.3, row);
        }
        prop_assert!(
            blocked.max_abs_diff(&naive) < 1e-12,
            "k={k} d={} diff={}",
            panel.len() / k,
            blocked.max_abs_diff(&naive)
        );
    }

    #[test]
    fn fused_gemv_t_matches_per_rating((k, panel, w) in panel_case()) {
        let mut fused: Vec<f64> = (0..k).map(|i| i as f64 * 0.25 - 1.0).collect();
        let mut naive = fused.clone();
        gemv_t_acc(&mut fused, &panel, &w);
        for (row, &wl) in panel.chunks_exact(k).zip(&w) {
            vecops::axpy(wl, row, &mut naive);
        }
        for (a, b) in fused.iter().zip(&naive) {
            prop_assert!((a - b).abs() < 1e-12, "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn dispatched_syrk_matches_forced_scalar((k, panel, _w) in panel_case()) {
        // The runtime-dispatched kernel (the widest arm the CPU has, or
        // whatever BPMF_NO_SIMD leaves live) against the pinned scalar arm: both are
        // re-associations of the same sum, so 1e-12 agreement must hold for
        // every shape including the ragged triangle edges.
        let mut dispatched = Mat::from_fn(k, k, |i, j| ((i * 17 + j) as f64).cos());
        let mut scalar = dispatched.clone();
        syrk_ld_lower(&mut dispatched, 0.7, &panel, k);
        syrk_ld_lower_scalar(&mut scalar, 0.7, &panel, k);
        prop_assert!(
            dispatched.max_abs_diff(&scalar) < 1e-12,
            "k={k} d={} diff={}",
            panel.len() / k,
            dispatched.max_abs_diff(&scalar)
        );
    }

    #[test]
    fn dispatched_gemv_t_matches_forced_scalar((k, panel, w) in panel_case()) {
        let mut dispatched: Vec<f64> = (0..k).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut scalar = dispatched.clone();
        gemv_t_acc(&mut dispatched, &panel, &w);
        gemv_t_acc_scalar(&mut scalar, &panel, &w);
        for (a, b) in dispatched.iter().zip(&scalar) {
            prop_assert!((a - b).abs() < 1e-12, "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn unrolled_axpy_matches_scalar((k, _p, w) in panel_case()) {
        // The 4-chain axpy must be exact (same operations, same order per
        // element) for any length, including lengths < 4.
        let x: Vec<f64> = (0..w.len()).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut fast: Vec<f64> = (0..w.len()).map(|i| i as f64).collect();
        let mut slow = fast.clone();
        vecops::axpy(1.75, &x, &mut fast);
        for (yi, xi) in slow.iter_mut().zip(&x) {
            *yi += 1.75 * xi;
        }
        prop_assert_eq!(fast, slow);
        let _ = k;
    }

    #[test]
    fn blocked_matvec_matches_per_row((k, panel, w) in panel_case()) {
        // `matvec_into`'s eight-row blocking against the one-dot-per-row
        // reference, over non-multiple-of-8 row counts.
        let d = w.len();
        let m = Mat::from_row_major(d, k, panel);
        let x: Vec<f64> = (0..k).map(|i| (i as f64 * 1.3).sin()).collect();
        let mut blocked = vec![0.0; d];
        m.matvec_into(&x, &mut blocked);
        for (i, yi) in blocked.iter().enumerate() {
            let naive = vecops::dot(m.row(i), &x);
            prop_assert!((yi - naive).abs() < 1e-12, "row {i}: {yi} vs {naive}");
        }
    }

    #[test]
    fn transposed_matvec_matches_per_row((k, panel, w) in panel_case()) {
        // The lane-parallel serving scan (`transposed` + `matvec_t_into`)
        // against the one-dot-per-row reference, over non-multiple-of-4
        // inner dimensions (k) and arbitrary row counts.
        let d = w.len();
        let m = Mat::from_row_major(d, k, panel);
        let x: Vec<f64> = (0..k).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut scanned = vec![0.0; d];
        m.transposed().matvec_t_into(&x, &mut scanned);
        for (i, yi) in scanned.iter().enumerate() {
            let naive = vecops::dot(m.row(i), &x);
            prop_assert!((yi - naive).abs() < 1e-12, "row {i}: {yi} vs {naive}");
        }
    }

    #[test]
    fn gathered_matvec_matches_per_row((k, panel, w) in panel_case()) {
        // `gather_matvec_into` over an arbitrary (duplicating, reversed)
        // index set against per-row dots, including remainder lanes.
        let d = w.len();
        let m = Mat::from_row_major(d, k, panel);
        let x: Vec<f64> = (0..k).map(|i| (i as f64 * 1.1).sin()).collect();
        let idx: Vec<u32> = (0..d as u32).rev().chain(0..d.min(3) as u32).collect();
        let mut gathered = vec![0.0; idx.len()];
        m.gather_matvec_into(&idx, &x, &mut gathered);
        for (slot, (&i, yi)) in idx.iter().zip(&gathered).enumerate() {
            let naive = vecops::dot(m.row(i as usize), &x);
            prop_assert!((yi - naive).abs() < 1e-12, "slot {slot} row {i}: {yi} vs {naive}");
        }
    }
}
