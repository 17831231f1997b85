//! Micro-benchmark: per-model inference throughput — the mechanism behind
//! the paper's runtime gap between surrogate-driven search and EM
//! simulation, and between the MLP/XGB and 1D-CNN surrogates (Tables
//! VII/VIII runtime columns).

use criterion::{criterion_group, criterion_main, Criterion};
use isop::data::generate_dataset;
use isop::exec::{par_map_indexed, Parallelism};
use isop_em::simulator::AnalyticalSolver;
use isop_ml::linalg::Matrix;
use isop_ml::models::{Cnn1d, Cnn1dConfig, Mlp, MlpConfig, XgbRegressor};
use isop_ml::Regressor;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let data =
        generate_dataset(&isop::spaces::s1(), 600, &AnalyticalSolver::new(), 1).expect("dataset");
    let probe = data.x.clone();

    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![96, 96, 48],
        epochs: 3,
        ..MlpConfig::default()
    });
    mlp.fit(&data).expect("mlp fits");

    let mut cnn = Cnn1d::new(Cnn1dConfig {
        epochs: 3,
        ..Cnn1dConfig::default()
    });
    cnn.fit(&data).expect("cnn fits");

    let mut xgb = XgbRegressor::new(60, 0.2, 6, 1.0, 0.0);
    xgb.fit(&data).expect("xgb fits");

    let mut g = c.benchmark_group("surrogate_inference_600rows");
    g.sample_size(20);
    g.bench_function("mlp", |b| {
        b.iter(|| mlp.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function("cnn1d", |b| {
        b.iter(|| cnn.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function("xgboost", |b| {
        b.iter(|| xgb.predict(black_box(&probe)).expect("ok"))
    });
    g.finish();

    c.bench_function("mlp_input_jacobian", |b| {
        use isop_ml::Differentiable;
        b.iter(|| mlp.input_jacobian(black_box(probe.row(0))).expect("ok"))
    });

    // Batched forward vs. row-at-a-time, threaded at the width given by the
    // THREADS env var (default 1) — the levers the pipeline's stage-3
    // roll-out pulls. Run with e.g. `THREADS=4 cargo bench` to compare.
    let threads = Parallelism::from_env().threads;
    let rows: Vec<Vec<f64>> = (0..probe.rows()).map(|r| probe.row(r).to_vec()).collect();
    let mut g = c.benchmark_group("surrogate_inference_parallel");
    g.sample_size(20);
    g.bench_function("mlp_batched_forward", |b| {
        b.iter(|| mlp.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function(format!("mlp_per_row_t{threads}"), |b| {
        b.iter(|| {
            par_map_indexed(threads, black_box(&rows), |_, row| {
                mlp.predict(&Matrix::from_rows(std::slice::from_ref(row)))
                    .expect("ok")
            })
        })
    });
    g.finish();
}

/// The paper design cell's inference calls on the experiments' CNN
/// (`isop_bench::cnn_config`): one stage-2 Adam step, as separate predict
/// and Jacobian calls and as one fused call, and one Harmonica stage of
/// 300 rows, one predict per row and as one batch.
fn bench_design_cell_calls(c: &mut Criterion) {
    use isop::surrogate::{CnnSurrogate, Surrogate};

    let data =
        generate_dataset(&isop::spaces::s1(), 600, &AnalyticalSolver::new(), 1).expect("dataset");
    let mut cnn = Cnn1d::new(isop_bench::cnn_config(3));
    cnn.fit(&data).expect("cnn fits");
    let cnn = CnnSurrogate::new(cnn);
    let rows: Vec<Vec<f64>> = (0..300).map(|r| data.x.row(r).to_vec()).collect();
    let x = &rows[0];

    let mut g = c.benchmark_group("cnn_design_cell");
    g.sample_size(20);
    g.bench_function("adam_step_predict_then_jacobian", |b| {
        b.iter(|| {
            let m = cnn.predict(black_box(x)).expect("ok");
            let j = cnn.jacobian(black_box(x)).expect("differentiable");
            (m, j.expect("ok"))
        })
    });
    g.bench_function("adam_step_fused", |b| {
        b.iter(|| {
            cnn.value_and_jacobian(black_box(x))
                .expect("differentiable")
                .expect("ok")
        })
    });
    g.bench_function("harmonica_stage_per_row", |b| {
        b.iter(|| {
            black_box(&rows)
                .iter()
                .map(|r| cnn.predict(r).expect("ok"))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("harmonica_stage_batched", |b| {
        b.iter(|| cnn.predict_batch(black_box(&rows)))
    });
    g.finish();
}

criterion_group!(benches, bench_inference, bench_design_cell_calls);
criterion_main!(benches);
