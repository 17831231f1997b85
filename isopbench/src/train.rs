//! `train-cnn`: repeated fits of the paper's 1-D CNN surrogate.
//!
//! Training is about 90% of a paper run, so this workload puts nearly all
//! of its time in `isop_ml` training: HPO, EM, the store and the daemon are
//! idle. The fit is repeated many times inside one run because a single fit
//! gives one noisy sample per process.

use crate::metrics::Outcome;
use crate::sys;
use crate::trace::Layers;
use crate::Run;
use isop::data::generate_mixed_dataset;
use isop::exec::Parallelism;
use isop::surrogate::{ModelZoo, NeuralSurrogate, Surrogate};
use isop_em::simulator::AnalyticalSolver;
use isop_ml::dataset::Dataset;
use isop_ml::models::Cnn1d;
use isop_telemetry::{Counter, Telemetry};
use serde_json::Value;
use std::time::Instant;

/// Training rows per fit, drawn like the paper harness's mixed protocol.
const TRAIN_ROWS: usize = 2048;
/// Held-out rows the Z error is measured on.
const HELD_OUT_ROWS: usize = 1024;
/// Epochs per fit: short, so one run holds enough fits for a tail.
const EPOCHS: usize = 2;
/// Fits per second of `--seconds`; the count is fixed per run so every run
/// does identical work.
const FITS_PER_S: f64 = 3.3;
/// Ceiling on the held-out Z error of a fit, about 20% above the worst
/// seed at the revision this benchmark was written against (21.4–24.7 ohm
/// over nine seeds). A change that trades accuracy for speed fails the run
/// instead of reporting a faster fit.
const MAX_Z_MAE_OHM: f64 = 29.0;
/// Share of the training rows drawn from the optimization region S2.
const FOCUS_FRACTION: f64 = 0.4;

/// A surrogate-training set drawn like the paper harness's mixed
/// protocol: the wide training ranges plus a share from S2.
pub fn dataset(rows: usize, seed: u64) -> Dataset {
    generate_mixed_dataset(
        &isop::spaces::training_space(),
        &isop::spaces::s2(),
        rows,
        FOCUS_FRACTION,
        &AnalyticalSolver::new(),
        seed,
    )
    .expect("dataset generation cannot fail for a nonzero size")
}

/// The training and held-out sets a seed draws.
fn inputs(seed: u64) -> (Dataset, Dataset) {
    (
        dataset(TRAIN_ROWS, seed),
        dataset(HELD_OUT_ROWS, seed ^ 0x4E1D),
    )
}

/// One fit of the paper's CNN configuration.
pub fn fit(zoo: &ModelZoo, data: &Dataset, epochs: usize) -> NeuralSurrogate<Cnn1d> {
    zoo.fit_neural(Cnn1d::new(isop_bench::cnn_config(epochs)), data)
        .expect("CNN fit on a valid dataset")
}

/// Held-out predictions of a fitted surrogate, as raw bits.
fn prediction_bits(model: &NeuralSurrogate<Cnn1d>, held: &Dataset) -> Vec<[u64; 3]> {
    let rows: Vec<Vec<f64>> = (0..held.len()).map(|r| held.x.row(r).to_vec()).collect();
    model
        .predict_batch(&rows)
        .into_iter()
        .map(|p| {
            let p = p.expect("prediction on a held-out row");
            [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()]
        })
        .collect()
}

/// Mean absolute error in Z (ohm) over the held-out set.
fn z_mae(bits: &[[u64; 3]], held: &Dataset) -> f64 {
    let total: f64 = bits
        .iter()
        .enumerate()
        .map(|(r, p)| (f64::from_bits(p[0]) - held.y.row(r)[0]).abs())
        .sum();
    total / held.len() as f64
}

/// Fits of one variant (untraced or traced) of a run.
#[derive(Default)]
struct Pass {
    fit_s: Vec<f64>,
    cpu_s: f64,
    bits: Vec<Vec<[u64; 3]>>,
}

impl Pass {
    fn fit(&mut self, zoo: &ModelZoo, train: &Dataset, held: &Dataset) {
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let model = fit(zoo, train, EPOCHS);
        self.fit_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s += sys::cpu_seconds() - cpu0;
        self.bits.push(prediction_bits(&model, held));
    }

    fn wall_s(&self) -> f64 {
        self.fit_s.iter().sum()
    }
}

/// Runs the workload. A traced run alternates untraced and traced fits, so
/// drift in the host's speed falls on both alike.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let zoo = ModelZoo::new(Parallelism::new(sys::nproc()));
    let mut setups = Vec::with_capacity(crate::SETUPS);
    let mut data = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        let (train, held) = inputs(run.seed);
        let warm = fit(&zoo, &train, EPOCHS);
        std::hint::black_box(&warm);
        setups.push(t0.elapsed().as_secs_f64());
        data = Some((train, held));
    }
    let (train, held) = data.expect("at least one set-up");

    let telemetry = Telemetry::enabled();
    let traced_zoo = zoo.clone().with_telemetry(telemetry.clone());
    let mut plain = Pass::default();
    let mut traced = Pass::default();
    for _ in 0..run.ops(FITS_PER_S) {
        plain.fit(&zoo, &train, &held);
        if run.trace {
            traced.fit(&traced_zoo, &train, &held);
        }
    }
    let reference = plain.bits[0].clone();
    for (i, bits) in plain.bits.iter().chain(&traced.bits).enumerate() {
        out.attempted += 1;
        let same = *bits == reference;
        if !same {
            out.failed += 1;
        }
        out.check(same, || {
            format!("fit {i} differs from fit 0 on the same seed")
        });
    }

    let mae = z_mae(&reference, &held);
    out.note("surrogate_z_mae_ohm", Value::Num(mae));
    out.check(mae <= MAX_Z_MAE_OHM, || {
        format!("held-out Z error {mae} ohm is above the {MAX_Z_MAE_OHM} ohm ceiling")
    });

    if !run.trace {
        out.push_end_to_end(&setups, &plain.fit_s, plain.wall_s(), plain.cpu_s);
        out.note("fits", Value::Num(plain.fit_s.len() as f64));
        out.note("train_rows", Value::Num(TRAIN_ROWS as f64));
        out.note("epochs", Value::Num(EPOCHS as f64));
        return out;
    }

    let report = telemetry.run_report();
    let fits = traced.fit_s.len() as f64;
    let fit_p50 = crate::stats::median(&traced.fit_s);
    let mut layer = Layers::new(
        &mut out,
        traced.cpu_s / fits,
        fit_p50,
        crate::stats::median(&setups),
    );
    layer.wall("ml.fit_share", fit_p50);
    layer.wall(
        "ml.fit_span_share",
        report.span_seconds("ml.fit.cnn") / fits,
    );
    layer.value("ml.epochs_per_fit", EPOCHS as f64);
    layer.value(
        "ml.train_chunks",
        report.counter(Counter::TrainChunks.name()) as f64 / fits,
    );
    layer.value(
        "exec.cpu_util",
        traced.cpu_s / (traced.wall_s() * sys::nproc() as f64),
    );
    layer.value(
        "telemetry.overhead_frac",
        fit_p50 / crate::stats::median(&plain.fit_s) - 1.0,
    );
    layer.finish();
    out
}
