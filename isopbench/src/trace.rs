//! The traced run: timing wrappers around the surrogate and the simulator,
//! and the per-layer table.
//!
//! Every per-layer number is taken from outside the layers, through their
//! public interfaces: these wrappers, timers around public calls, and the
//! `RunReport` spans and counters a `Telemetry::enabled()` handle collects.

use crate::metrics::Outcome;
use isop::surrogate::Surrogate;
use isop_em::fault::SimError;
use isop_em::simulator::{EmSimulator, SimulationResult};
use isop_em::DiffStripline;
use isop_ml::linalg::Matrix;
use isop_ml::MlError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A statistic counter: `Relaxed` is enough, it publishes no other data.
#[derive(Debug, Default)]
struct Tally(AtomicU64);

impl Tally {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts and times every call into a surrogate.
pub struct TimedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    predict_calls: Tally,
    predict_rows: Tally,
    predict_ns: Tally,
    jacobian_calls: Tally,
    jacobian_ns: Tally,
}

/// What a [`TimedSurrogate`] saw.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateTally {
    /// `predict` plus `predict_batch` calls.
    pub predict_calls: u64,
    /// Rows predicted.
    pub predict_rows: u64,
    /// Seconds inside predict calls, summed over threads.
    pub predict_s: f64,
    /// `jacobian` plus `jacobian_batch` calls.
    pub jacobian_calls: u64,
    /// Seconds inside Jacobian calls, summed over threads.
    pub jacobian_s: f64,
}

impl<'a> TimedSurrogate<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Surrogate) -> Self {
        Self {
            inner,
            predict_calls: Tally::default(),
            predict_rows: Tally::default(),
            predict_ns: Tally::default(),
            jacobian_calls: Tally::default(),
            jacobian_ns: Tally::default(),
        }
    }

    /// Totals so far.
    pub fn tally(&self) -> SurrogateTally {
        SurrogateTally {
            predict_calls: self.predict_calls.get(),
            predict_rows: self.predict_rows.get(),
            predict_s: self.predict_ns.get() as f64 * 1e-9,
            jacobian_calls: self.jacobian_calls.get(),
            jacobian_s: self.jacobian_ns.get() as f64 * 1e-9,
        }
    }
}

impl Surrogate for TimedSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let t0 = Instant::now();
        let r = self.inner.predict(x);
        self.predict_ns.add(elapsed_ns(t0));
        self.predict_calls.add(1);
        self.predict_rows.add(1);
        r
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        let t0 = Instant::now();
        let r = self.inner.jacobian(x);
        self.jacobian_ns.add(elapsed_ns(t0));
        self.jacobian_calls.add(1);
        r
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        let t0 = Instant::now();
        let r = self.inner.predict_batch(xs);
        self.predict_ns.add(elapsed_ns(t0));
        self.predict_calls.add(1);
        self.predict_rows.add(xs.len() as u64);
        r
    }

    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        let t0 = Instant::now();
        let r = self.inner.jacobian_batch(xs);
        self.jacobian_ns.add(elapsed_ns(t0));
        self.jacobian_calls.add(1);
        r
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Counts and times every accurate-simulator call.
pub struct TimedSim<S> {
    inner: S,
    calls: Tally,
    ns: Tally,
}

impl<S: EmSimulator> TimedSim<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: Tally::default(),
            ns: Tally::default(),
        }
    }

    /// `(calls, seconds)` so far.
    pub fn tally(&self) -> (u64, f64) {
        (self.calls.get(), self.ns.get() as f64 * 1e-9)
    }
}

impl<S: EmSimulator> EmSimulator for TimedSim<S> {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        let t0 = Instant::now();
        let r = self.inner.simulate(layer);
        self.ns.add(elapsed_ns(t0));
        self.calls.add(1);
        r
    }

    fn nominal_seconds(&self) -> f64 {
        self.inner.nominal_seconds()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Every per-layer metric a traced run prints: `(layer, name, unit)`, in
/// `BENCHMARK.json` order. Every workload prints all of them; a layer the
/// workload does not exercise reads 0.
///
/// Time is reported as a share (unit `ratio`), not in seconds: a share
/// of one operation's CPU seconds for work inside a layer's calls (summed
/// over threads), a share of the traced p50 latency for a stretch of an
/// operation's timeline, and a share of `setup_s` for work paid once in
/// set-up. The seconds themselves are printed in the per-layer table.
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("isop_ml", "ml.fit_share", "ratio"),
    ("isop_ml", "ml.fit_span_share", "ratio"),
    ("isop_ml", "ml.epochs_per_fit", "count"),
    ("isop_ml", "ml.train_chunks", "count/fit"),
    ("isop_ml", "ml.predict_calls", "count/op"),
    ("isop_ml", "ml.predict_share", "ratio"),
    ("isop_ml", "ml.predict_rows_per_call", "rows/call"),
    ("isop_ml", "ml.jacobian_calls", "count/op"),
    ("isop_ml", "ml.jacobian_share", "ratio"),
    ("isop_hpo", "hpo.harmonica_sample_share", "ratio"),
    ("isop_hpo", "hpo.lasso_share", "ratio"),
    ("isop_hpo", "hpo.lasso_solves", "count/op"),
    ("isop_hpo", "hpo.hyperband_share", "ratio"),
    ("isop::pipeline", "pipeline.prepare_share", "ratio"),
    ("isop::pipeline", "pipeline.local_share", "ratio"),
    ("isop::pipeline", "pipeline.rollout_share", "ratio"),
    ("isop::pipeline", "pipeline.finalize_share", "ratio"),
    ("isop::pipeline", "pipeline.adam_steps", "count/op"),
    ("isop::pipeline", "pipeline.samples_per_design", "count/op"),
    ("isop_em", "em.simulate_calls", "count/op"),
    ("isop_em", "em.simulate_share", "ratio"),
    ("isop_em", "em.retries", "count/op"),
    ("isop::scheduler", "scheduler.batches", "count/op"),
    ("isop_store", "store.open_share", "ratio"),
    ("isop::daemon", "daemon.recover_share", "ratio"),
    ("isop_store", "store.records_written", "count/op"),
    ("isop_store", "store.bytes_per_record", "B"),
    ("isop::evalcache", "store.cache_hit_ratio", "ratio"),
    ("isop::evalcache", "store.cross_job_hits", "count/op"),
    ("isop::daemon", "daemon.submit_rtt_share", "ratio"),
    ("isop::daemon", "daemon.status_rtt_share", "ratio"),
    ("isop::daemon", "daemon.queue_wait_share", "ratio"),
    ("isop::daemon", "daemon.run_share", "ratio"),
    ("isop::daemon", "daemon.epochs", "count/burst"),
    ("isop::daemon", "daemon.jobs_per_epoch", "count/epoch"),
    ("isop::engine", "engine.waves", "count/burst"),
    ("isop_exec", "exec.cpu_util", "ratio"),
    ("isop_telemetry", "telemetry.overhead_frac", "ratio"),
    ("loadgen", "loadgen.poll_interval_share", "ratio"),
    ("loadgen", "loadgen.failed_frac", "ratio"),
];

fn entry(name: &str) -> (&'static str, &'static str) {
    let &(layer, _, unit) = PER_LAYER
        .iter()
        .find(|(_, n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    (layer, unit)
}

/// Emits per-layer metrics and remembers the layer and the seconds behind
/// each, for the table printed beside the result.
pub struct Layers<'a> {
    out: &'a mut Outcome,
    cpu_s: f64,
    p50_s: f64,
    setup_s: f64,
}

impl<'a> Layers<'a> {
    /// `cpu_s` is the CPU seconds and `p50_s` the traced p50 latency of one
    /// operation; `setup_s` the traced run's median set-up.
    pub fn new(out: &'a mut Outcome, cpu_s: f64, p50_s: f64, setup_s: f64) -> Self {
        Self {
            out,
            cpu_s,
            p50_s,
            setup_s,
        }
    }

    fn row(&mut self, name: &str, value: f64, seconds: Option<f64>) {
        let (layer, unit) = entry(name);
        self.out.push(name, value, unit);
        self.out.layers.push((layer, name.to_string(), seconds));
    }

    /// Seconds per operation of work inside a layer's calls.
    pub fn work(&mut self, name: &str, seconds: f64) {
        self.row(name, seconds / self.cpu_s, Some(seconds));
    }

    /// Wall seconds per operation of a stretch of its timeline.
    pub fn wall(&mut self, name: &str, seconds: f64) {
        self.row(name, seconds / self.p50_s, Some(seconds));
    }

    /// Seconds paid once per set-up, outside any operation.
    pub fn once(&mut self, name: &str, seconds: f64) {
        self.row(name, seconds / self.setup_s, Some(seconds));
    }

    /// A count or a ratio, in the unit [`PER_LAYER`] gives it.
    pub fn value(&mut self, name: &str, value: f64) {
        self.row(name, value, None);
    }

    /// Reports 0 for every per-layer metric the workload did not set: its
    /// layer is idle in this workload.
    pub fn finish(self) {
        for &(_, name, _) in &PER_LAYER {
            if self.out.metrics.iter().all(|m| m.name != name) {
                let (layer, unit) = entry(name);
                self.out.push(name, 0.0, unit);
                self.out.layers.push((layer, name.to_string(), None));
            }
        }
    }
}

/// The per-layer table, one line per metric: shares of time first, largest
/// first, then counts and ratios by layer.
#[must_use]
pub fn table(out: &Outcome) -> Vec<String> {
    let metric = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("every layer row has a metric")
    };
    let mut rows: Vec<&(&'static str, String, Option<f64>)> = out.layers.iter().collect();
    rows.sort_by(|a, b| {
        let share = |r: &(&str, String, Option<f64>)| r.2.map_or(-1.0, |_| metric(&r.1).value);
        share(b).total_cmp(&share(a)).then(a.0.cmp(b.0))
    });
    let mut lines = vec![format!(
        "{:<16} {:<28} {:>14} {:<12} {:>12}",
        "layer", "metric", "value", "unit", "seconds"
    )];
    for (layer, name, seconds) in rows {
        let m = metric(name);
        let seconds = seconds.map_or(String::new(), |s| format!("{s:.6}"));
        lines.push(format!(
            "{layer:<16} {name:<28} {:>14.6} {:<12} {seconds:>12}",
            m.value, m.unit
        ));
    }
    lines
}
