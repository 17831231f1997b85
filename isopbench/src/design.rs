//! `design-cnn`: the paper's optimize cell, one caller in a closed loop.
//!
//! Each call runs one T1–T4 cell on S1 through `IsopOptimizer::prepare`,
//! `roll_out` and `finalize` with the experiment harness configuration,
//! against a 1-D CNN surrogate fitted during set-up. Nearly all of the time
//! is surrogate inference (predict and Jacobian calls) and Harmonica's
//! Lasso; EM host time, the store and the daemon are close to zero.

use crate::metrics::Outcome;
use crate::trace::{Layers, TimedSim, TimedSurrogate};
use crate::{stats, sys, train, Run};
use isop::exec::Parallelism;
use isop::pipeline::{IsopConfig, IsopOptimizer, IsopOutcome};
use isop::surrogate::{ModelZoo, Surrogate};
use isop::tasks::{objective_for, TaskId};
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_hpo::budget::Budget;
use isop_telemetry::{Counter, RunReport, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;
use std::time::Instant;

/// Rows of the surrogate's training set. The surrogate is part of the
/// system under test, so its data seed is fixed, not drawn from `--seed`.
const SURROGATE_ROWS: usize = 2000;
/// Training epochs of the surrogate.
const SURROGATE_EPOCHS: usize = 10;
/// Data seed of the surrogate (the paper harness's dataset seed).
const SURROGATE_DATA_SEED: u64 = 0xDA7A;
/// Quality floor and ceiling of a run's designs, about 20% beyond the
/// values at the revision this benchmark was written against: a 20-second
/// run verifies 14 of its 90 designs (0.156) and charges 15.17 sim_s per
/// design, the same in every run. A change that trades design quality or
/// EM spend for speed fails the run instead of reporting faster designs.
const MIN_VERIFIED_FRAC: f64 = 0.12;
/// See [`MIN_VERIFIED_FRAC`].
const MAX_EM_SIM_S: f64 = 18.2;
/// Set-ups per run. Each fits the surrogate (about 1.8 s), which moves
/// little between set-ups, so five are enough for a steady median.
const SETUPS: usize = 5;
/// Designs per second of `--seconds`.
const DESIGNS_PER_S: f64 = 4.5;

/// One optimize cell: a task and the seed of its pipeline run.
pub type Cell = (TaskId, u64);

/// The cells of one run. Every run verifies the same cells — task `i mod 4`
/// with cell seed `i / 4` — so verification outcomes and EM charges repeat
/// exactly; `seed` only shuffles the order they are requested in.
#[must_use]
pub fn cells(seed: u64, n: usize) -> Vec<Cell> {
    let mut cells: Vec<Cell> = (0..n)
        .map(|i| (TaskId::all()[i % 4], (i / 4) as u64))
        .collect();
    cells.shuffle(&mut StdRng::seed_from_u64(seed));
    cells
}

fn config() -> IsopConfig {
    let mut cfg = isop_bench::isop_config();
    cfg.parallelism = Parallelism::new(sys::nproc());
    cfg
}

fn surrogate(zoo: &ModelZoo) -> (impl Surrogate, f64) {
    let data = train::dataset(SURROGATE_ROWS, SURROGATE_DATA_SEED);
    let t0 = Instant::now();
    let model = train::fit(zoo, &data, SURROGATE_EPOCHS);
    (model, t0.elapsed().as_secs_f64())
}

/// Designs of one variant (untraced or traced) of a run.
#[derive(Default)]
struct Pass {
    design_s: Vec<f64>,
    outcomes: Vec<IsopOutcome>,
    cpu_s: f64,
    prepare_s: f64,
    rollout_s: f64,
    finalize_s: f64,
}

impl Pass {
    /// Requests one design and waits for its EM-verified result.
    fn design(
        &mut self,
        surrogate: &dyn Surrogate,
        sim: &dyn EmSimulator,
        cell: Cell,
        telemetry: &Telemetry,
    ) {
        let space = isop::spaces::s1();
        let opt =
            IsopOptimizer::new(&space, surrogate, sim, config()).with_telemetry(telemetry.clone());
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let prep = opt.prepare(objective_for(cell.0, vec![]), Budget::unlimited(), cell.1);
        let t1 = Instant::now();
        let rollout = opt.roll_out(&prep);
        let t2 = Instant::now();
        let outcome = opt.finalize(prep, rollout, t0.elapsed().as_secs_f64());
        self.design_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s += sys::cpu_seconds() - cpu0;
        self.prepare_s += (t1 - t0).as_secs_f64();
        self.rollout_s += (t2 - t1).as_secs_f64();
        self.finalize_s += t2.elapsed().as_secs_f64();
        self.outcomes.push(outcome);
    }

    fn wall_s(&self) -> f64 {
        self.design_s.iter().sum()
    }
}

/// True when two outcomes carry the same candidates bit for bit and the
/// same ledgers.
#[must_use]
pub fn same_outcome(a: &IsopOutcome, b: &IsopOutcome) -> bool {
    crate::serve::same_candidates(&a.candidates, &b.candidates)
        && a.em_seconds.to_bits() == b.em_seconds.to_bits()
        && a.em_seconds_saved.to_bits() == b.em_seconds_saved.to_bits()
        && a.success == b.success
        && a.resolution == b.resolution
}

/// Runs the workload. A traced run alternates untraced and traced designs
/// of each cell, so drift in the host's speed falls on both alike.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // A traced run also traces the set-up's fits.
    let setup_telemetry = if run.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let zoo = ModelZoo::new(Parallelism::new(sys::nproc())).with_telemetry(setup_telemetry.clone());
    let sim = AnalyticalSolver::new();
    let warm_cell = (TaskId::T1, u64::from(u32::MAX));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fit_s = Vec::with_capacity(SETUPS);
    let mut model = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (m, fit) = surrogate(&zoo);
        Pass::default().design(&m, &sim, warm_cell, &Telemetry::disabled());
        setups.push(t0.elapsed().as_secs_f64());
        fit_s.push(fit);
        model = Some(m);
    }
    let model = model.expect("at least one set-up");
    let cells = cells(run.seed, run.ops(DESIGNS_PER_S));

    let telemetry = Telemetry::enabled();
    let timed = TimedSurrogate::new(&model);
    let timed_sim = TimedSim::new(AnalyticalSolver::new());
    let mut plain = Pass::default();
    let mut traced = Pass::default();
    let start = Instant::now();
    for &cell in &cells {
        plain.design(&model, &sim, cell, &Telemetry::disabled());
        if run.trace {
            traced.design(&timed, &timed_sim, cell, &telemetry);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    for (cell, o) in cells
        .iter()
        .cycle()
        .zip(plain.outcomes.iter().chain(&traced.outcomes))
    {
        out.attempted += 1;
        let ok = !o.candidates.is_empty() && o.candidates.iter().all(|c| c.simulated.is_some());
        if !ok {
            out.failed += 1;
        }
        out.check(ok, || {
            format!("cell {cell:?}: a delivered candidate lacks an EM result")
        });
    }
    let n = cells.len() as f64;

    let verified = plain.outcomes.iter().filter(|o| o.success).count() as f64 / n;
    let em = plain.outcomes.iter().map(|o| o.em_seconds).sum::<f64>() / n;
    out.note("verified_frac", Value::Num(verified));
    out.note("em_sim_s_per_design", Value::Num(em));
    check_quality(&mut out, verified, MIN_VERIFIED_FRAC, em, MAX_EM_SIM_S);

    if !run.trace {
        out.push_end_to_end(&setups, &plain.design_s, wall_s, plain.cpu_s);
        out.note("designs", Value::Num(n));
        out.note("surrogate_rows", Value::Num(SURROGATE_ROWS as f64));
        out.note("surrogate_epochs", Value::Num(SURROGATE_EPOCHS as f64));
        return out;
    }

    let same = plain
        .outcomes
        .iter()
        .zip(&traced.outcomes)
        .all(|(a, b)| same_outcome(a, b));
    out.check(same, || {
        "traced designs differ from untraced designs".to_string()
    });
    let report = telemetry.run_report();
    let setup_report = setup_telemetry.run_report();
    let p50 = stats::median(&traced.design_s);
    let s = timed.tally();
    let (sim_calls, sim_s) = timed_sim.tally();
    let samples: u64 = traced.outcomes.iter().map(|o| o.samples_seen).sum();
    let fits = SETUPS as f64;
    let mut layer = Layers::new(&mut out, traced.cpu_s / n, p50, stats::median(&setups));
    layer.once("ml.fit_share", stats::median(&fit_s));
    layer.once(
        "ml.fit_span_share",
        setup_report.span_seconds("ml.fit.cnn") / fits,
    );
    layer.value("ml.epochs_per_fit", SURROGATE_EPOCHS as f64);
    layer.value(
        "ml.train_chunks",
        setup_report.counter(Counter::TrainChunks.name()) as f64 / fits,
    );
    layer.value("ml.predict_calls", s.predict_calls as f64 / n);
    layer.work("ml.predict_share", s.predict_s / n);
    layer.value(
        "ml.predict_rows_per_call",
        s.predict_rows as f64 / s.predict_calls.max(1) as f64,
    );
    layer.value("ml.jacobian_calls", s.jacobian_calls as f64 / n);
    layer.work("ml.jacobian_share", s.jacobian_s / n);
    hpo_layers(&mut layer, &report, n);
    layer.wall("pipeline.prepare_share", traced.prepare_s / n);
    layer.wall(
        "pipeline.local_share",
        report.span_seconds("pipeline.local") / n,
    );
    layer.wall("pipeline.rollout_share", traced.rollout_s / n);
    layer.wall("pipeline.finalize_share", traced.finalize_s / n);
    layer.value(
        "pipeline.adam_steps",
        report.counter(Counter::AdamSteps.name()) as f64 / n,
    );
    layer.value("pipeline.samples_per_design", samples as f64 / n);
    layer.value("em.simulate_calls", sim_calls as f64 / n);
    layer.work("em.simulate_share", sim_s / n);
    em_layers(&mut layer, &report, n);
    layer.value(
        "exec.cpu_util",
        traced.cpu_s / (traced.wall_s() * sys::nproc() as f64),
    );
    layer.value(
        "telemetry.overhead_frac",
        p50 / stats::median(&plain.design_s) - 1.0,
    );
    layer.finish();
    out
}

/// Fails the run when designs got worse: fewer verified or dearer in
/// charged EM than `min_verified` and `max_em_s` allow.
pub fn check_quality(out: &mut Outcome, verified: f64, min_verified: f64, em: f64, max_em_s: f64) {
    out.check(verified >= min_verified, || {
        format!("verified_frac {verified} is below the {min_verified} floor")
    });
    out.check(em <= max_em_s, || {
        format!("charged EM {em} sim_s per design is above the {max_em_s} ceiling")
    });
}

/// Harmonica and Hyperband time from a `RunReport`, per design.
pub fn hpo_layers(layer: &mut Layers<'_>, report: &RunReport, n: f64) {
    layer.work(
        "hpo.harmonica_sample_share",
        report.span_seconds("harmonica.sample") / n,
    );
    layer.work(
        "hpo.lasso_share",
        report.span_seconds("harmonica.lasso") / n,
    );
    layer.value(
        "hpo.lasso_solves",
        report.counter(Counter::HarmonicaLassoSolves.name()) as f64 / n,
    );
    layer.work(
        "hpo.hyperband_share",
        report.span_seconds("pipeline.hyperband") / n,
    );
}

/// Retry and scheduler counters from a `RunReport`, per design.
pub fn em_layers(layer: &mut Layers<'_>, report: &RunReport, n: f64) {
    layer.value(
        "em.retries",
        report.counter(Counter::EmRetries.name()) as f64 / n,
    );
    layer.value(
        "scheduler.batches",
        report.counter(Counter::EmSchedBatches.name()) as f64 / n,
    );
}
