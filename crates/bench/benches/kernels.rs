//! Criterion micro-benchmarks of the dense kernels the sampler is built
//! from (Cholesky variants, SYRK, dot).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bpmf_linalg::{cholesky_in_place, cholesky_in_place_parallel, vecops, Mat};

fn spd(n: usize) -> Mat {
    let b = Mat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.4);
    let mut a = b.matmul_transb(&b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    group.sample_size(20);
    for &n in &[16usize, 32, 64, 128] {
        let a = spd(n);
        group.bench_with_input(BenchmarkId::new("serial", n), &a, |bench, a| {
            bench.iter(|| {
                let mut m = a.clone();
                cholesky_in_place(&mut m).unwrap();
                black_box(m);
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel-2t", n), &a, |bench, a| {
            bench.iter(|| {
                let mut m = a.clone();
                cholesky_in_place_parallel(&mut m, 2, 32).unwrap();
                black_box(m);
            })
        });
    }
    group.finish();
}

fn bench_syrk_and_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("blas1-2");
    group.sample_size(50);
    for &k in &[16usize, 32, 64] {
        let x: Vec<f64> = (0..k).map(|i| (i as f64).cos()).collect();
        let y: Vec<f64> = (0..k).map(|i| (i as f64 * 0.3).sin()).collect();
        group.bench_with_input(BenchmarkId::new("syrk_lower", k), &k, |bench, &k| {
            let mut m = Mat::zeros(k, k);
            bench.iter(|| {
                m.syrk_lower(2.0, &x);
                black_box(&m);
            })
        });
        group.bench_with_input(BenchmarkId::new("dot", k), &k, |bench, _| {
            bench.iter(|| black_box(vecops::dot(&x, &y)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cholesky, bench_syrk_and_dot);
criterion_main!(benches);
