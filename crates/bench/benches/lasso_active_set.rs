//! Micro-benchmark: the active-set Lasso on sparse-recovery shapes where
//! the support is a tiny fraction of the columns — the regime Harmonica's
//! PSR lives in, and where active-set sweeps over the column-major layout
//! should beat full cyclic sweeps decisively.

use criterion::{criterion_group, criterion_main, Criterion};
use isop_hpo::lasso::lasso_coordinate_descent;
use isop_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;

/// Sparse ground truth: `k` active columns out of `d`.
fn sparse_problem(n: usize, d: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..n * d)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            (0..k)
                .map(|j| (j as f64 + 1.0) * x[i * d + j * (d / k)])
                .sum::<f64>()
                + 0.05 * rng.gen::<f64>()
        })
        .collect();
    (x, y)
}

fn bench_active_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("lasso_active_set");
    let off = Telemetry::disabled();
    g.sample_size(10);
    // (samples, columns, true support) — the larger shape matches S1's
    // degree-2 parity features (~2700 monomials, support of a handful).
    for &(n, d, k) in &[(200usize, 500usize, 4usize), (300, 2700, 6)] {
        let (x, y) = sparse_problem(n, d, k, 11);
        g.bench_function(format!("active_set_{n}x{d}_k{k}"), |b| {
            b.iter(|| {
                lasso_coordinate_descent(black_box(&x), black_box(&y), n, d, 0.05, 200, 1e-8, &off)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_active_set);
criterion_main!(benches);
