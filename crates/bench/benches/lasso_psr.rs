//! Micro-benchmark: the Lasso polynomial-sparse-recovery subroutine at the
//! problem sizes Harmonica hits on `S_1` (degree-2 parity features over 73
//! bits ~ 2700 columns).

use criterion::{criterion_group, criterion_main, Criterion};
use isop_hpo::lasso::lasso_coordinate_descent;
use isop_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;

fn make_problem(n: usize, d: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..n * d)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| 2.0 * x[i * d + 3] - x[i * d + 40] + 0.05 * rng.gen::<f64>())
        .collect();
    (x, y)
}

fn bench_lasso(c: &mut Criterion) {
    let mut g = c.benchmark_group("lasso_psr");
    let off = Telemetry::disabled();
    g.sample_size(10);
    for &(n, d) in &[(200usize, 500usize), (300, 2700)] {
        let (x, y) = make_problem(n, d, 7);
        g.bench_function(format!("lasso_{n}x{d}"), |b| {
            b.iter(|| {
                lasso_coordinate_descent(black_box(&x), black_box(&y), n, d, 0.02, 100, 1e-6, &off)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lasso);
criterion_main!(benches);
