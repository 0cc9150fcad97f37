//! Property-based tests for the dense kernels.
//!
//! Strategy: random well-conditioned SPD matrices are built as `B Bᵀ + c·I`;
//! every invariant the sampler relies on (factor/solve consistency, rank-one
//! update equivalence, serial/parallel agreement) must hold over the whole
//! generated family, not just hand-picked examples.

use bpmf_linalg::{
    chol_downdate, chol_update, cholesky_in_place, cholesky_in_place_parallel, solve_lower,
    solve_lower_transpose, vecops, Cholesky, LinalgError, Mat,
};
use proptest::prelude::*;

/// `B Bᵀ + n·I` from a fixed pseudo-random `B`: SPD and well conditioned.
fn spd_of_order(n: usize) -> Mat {
    let b = Mat::from_fn(n, n, |i, j| ((i * 37 + j * 11) % 19) as f64 / 19.0 - 0.5);
    let mut a = b.matmul_transb(&b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// The K×K stage through the public (dispatched) entry points — CI runs this
/// suite with and without `BPMF_NO_SIMD=1` — at orders below, at and beside
/// the kernels' block edge of eight.
#[test]
fn kxk_stage_holds_at_block_edges() {
    for n in [1usize, 2, 3, 8, 31, 32, 33, 64] {
        let a = spd_of_order(n);
        let chol = Cholesky::factor(&a).unwrap();
        let diff = chol.reconstruct().max_abs_diff(&a);
        assert!(diff <= 1e-10, "n={n}: reconstruct {diff:e}");

        // Both triangular solves against dense products with L and Lᵀ.
        let l = chol.l();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut b = l.matvec(&x_true);
        solve_lower(l, &mut b);
        let mut bt = l.transpose().matvec(&x_true);
        solve_lower_transpose(l, &mut bt);
        for ((f, t), want) in b.iter().zip(&bt).zip(&x_true) {
            assert!((f - want).abs() < 1e-10, "n={n}: forward {f} vs {want}");
            assert!((t - want).abs() < 1e-10, "n={n}: transposed {t} vs {want}");
        }

        // Rank-one update against refactorization.
        let x: Vec<f64> = (0..n).map(|i| 0.4 * (i as f64 + 1.0).sin()).collect();
        let mut updated = a.clone();
        updated.syrk_lower(1.0, &x);
        let direct = Cholesky::factor(&updated).unwrap();
        let mut inc = chol.clone();
        chol_update(inc.l_mut(), &mut x.clone());
        let diff = inc.l().max_abs_diff(direct.l());
        assert!(diff < 1e-10, "n={n}: chol_update {diff:e}");
    }
}

/// A matrix whose leading minor first fails at column `bad` is rejected with
/// exactly that pivot, wherever the column sits in its block.
#[test]
fn non_spd_input_reports_the_first_failing_pivot() {
    let n = 33;
    for bad in [0usize, 7, 8, 9, 20, 32] {
        let mut a = spd_of_order(n);
        a[(bad, bad)] -= 10.0 * n as f64;
        match cholesky_in_place(&mut a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, bad),
            other => panic!("bad={bad}: expected NotPositiveDefinite, got {other:?}"),
        }
    }
}

fn spd_matrix(max_n: usize) -> impl Strategy<Value = Mat> {
    (
        1..=max_n,
        proptest::collection::vec(-1.0f64..1.0, max_n * max_n),
    )
        .prop_map(move |(n, raw)| {
            let b = Mat::from_fn(n, n, |i, j| raw[i * max_n + j]);
            let mut a = b.matmul_transb(&b);
            for i in 0..n {
                a[(i, i)] += n as f64 + 1.0;
            }
            a
        })
}

fn vector(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs_input(a in spd_matrix(12)) {
        let chol = Cholesky::factor(&a).unwrap();
        prop_assert!(chol.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn solve_then_multiply_roundtrips((a, x) in spd_matrix(12).prop_flat_map(|a| {
        let n = a.rows();
        (Just(a), proptest::collection::vec(-3.0f64..3.0, n))
    })) {
        let chol = Cholesky::factor(&a).unwrap();
        let mut b = a.matvec(&x);
        chol.solve_in_place(&mut b);
        for (got, want) in b.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-7);
        }
    }

    #[test]
    fn rank_one_update_equals_refactor((a, x) in spd_matrix(10).prop_flat_map(|a| {
        let n = a.rows();
        (Just(a), proptest::collection::vec(-1.5f64..1.5, n))
    })) {
        let mut updated = a.clone();
        updated.syrk_lower(1.0, &x);
        let direct = Cholesky::factor(&updated).unwrap();

        let mut inc = Cholesky::factor(&a).unwrap();
        let mut scratch = x.clone();
        chol_update(inc.l_mut(), &mut scratch);
        prop_assert!(inc.l().max_abs_diff(direct.l()) < 1e-7);
    }

    #[test]
    fn update_then_downdate_is_identity((a, x) in spd_matrix(10).prop_flat_map(|a| {
        let n = a.rows();
        (Just(a), proptest::collection::vec(-1.5f64..1.5, n))
    })) {
        let original = Cholesky::factor(&a).unwrap();
        let mut chol = original.clone();
        let mut s = x.clone();
        chol_update(chol.l_mut(), &mut s);
        let mut s = x.clone();
        chol_downdate(chol.l_mut(), &mut s).unwrap();
        prop_assert!(chol.l().max_abs_diff(original.l()) < 1e-7);
    }

    #[test]
    fn parallel_cholesky_equals_serial(a in spd_matrix(40), threads in 1usize..4, block in 8usize..24) {
        let mut serial = a.clone();
        cholesky_in_place(&mut serial).unwrap();
        let mut par = a.clone();
        cholesky_in_place_parallel(&mut par, threads, block).unwrap();
        prop_assert!(par.max_abs_diff(&serial) < 1e-8);
    }

    #[test]
    fn dot_is_symmetric_and_linear(x in vector(16), y in vector(16), a in -3.0f64..3.0) {
        let d1 = vecops::dot(&x, &y);
        let d2 = vecops::dot(&y, &x);
        prop_assert!((d1 - d2).abs() < 1e-10);

        let scaled: Vec<f64> = x.iter().map(|v| a * v).collect();
        let d3 = vecops::dot(&scaled, &y);
        prop_assert!((d3 - a * d1).abs() < 1e-8 * (1.0 + d1.abs()).max(1.0));
    }

    #[test]
    fn log_det_is_additive_under_scaling(a in spd_matrix(8), s in 0.5f64..4.0) {
        let n = a.rows();
        let mut scaled = a.clone();
        scaled.scale(s);
        let ld_a = Cholesky::factor(&a).unwrap().log_det();
        let ld_s = Cholesky::factor(&scaled).unwrap().log_det();
        // |sA| = s^n |A|
        prop_assert!((ld_s - (ld_a + n as f64 * s.ln())).abs() < 1e-8);
    }
}
