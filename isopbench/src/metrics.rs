//! The result a run prints: named metrics with units, the operation tally,
//! the correctness verdict, and the run's provenance.

use crate::stats;
use serde_json::Value;

/// Every end-to-end metric an untraced run prints, `(name, unit)`, in
/// `BENCHMARK.json` order; see [`Outcome::push_end_to_end`].
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// One measured metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name (see [`stats::valid_name`]).
    pub name: String,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (fits or designs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub violations: Vec<String>,
    /// Provenance entries printed beside the result.
    pub provenance: Vec<(String, Value)>,
    /// Per-layer rows of a traced run: layer, metric, and for a share of
    /// time the seconds behind it (see [`crate::trace::Layers`]).
    pub layers: Vec<(&'static str, String, Option<f64>)>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the contract's grammar or a non-finite
    /// value — both are bugs in the benchmark itself.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(stats::valid_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} emitted twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Records a provenance entry.
    pub fn note(&mut self, key: &str, value: Value) {
        self.provenance.push((key.to_string(), value));
    }

    /// Records every end-to-end metric. Each workload has one kind of
    /// operation — a fit (train-cnn) or a request to an EM-verified design
    /// (the others) — and reports the same metrics for it:
    ///
    /// - `setup_s`: the median of the run's set-ups, each listed in the
    ///   provenance;
    /// - `op_p50_s` and `op_tail_s` from the per-operation latencies
    ///   `op_s`, with the tail's rank and sample counts in the provenance;
    /// - `ops_per_s`: operations over `wall_s`, the measured window;
    /// - `cpu_s_per_op`: process CPU seconds `cpu_s` of that window per
    ///   operation;
    /// - `completed_frac`: operations that finished and passed every check;
    /// - `peak_rss_mb`.
    pub fn push_end_to_end(&mut self, setups: &[f64], op_s: &[f64], wall_s: f64, cpu_s: f64) {
        let n = op_s.len() as f64;
        let t = stats::tail(op_s);
        let done = self.attempted.saturating_sub(self.failed) as f64;
        let values = [
            stats::median(setups),
            stats::median(op_s),
            t.value,
            n / wall_s,
            cpu_s / n,
            done / self.attempted.max(1) as f64,
            crate::sys::peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            self.push(name, value, unit);
        }
        let each = setups.iter().map(|&s| Value::Num(s)).collect();
        self.note("setup_runs_s", Value::Arr(each));
        self.note(
            "op_samples",
            Value::Obj(vec![
                ("n".to_string(), Value::Num(t.n as f64)),
                ("tail_pct".to_string(), Value::Num(t.pct)),
                ("beyond_tail".to_string(), Value::Num(t.beyond as f64)),
                (
                    "beyond_p50".to_string(),
                    Value::Num((t.n - t.n.div_ceil(2)) as f64),
                ),
            ]),
        );
    }

    /// The contract's last line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            (
                "correct".to_string(),
                Value::Bool(self.violations.is_empty()),
            ),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
        .to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Layers, PER_LAYER};

    fn names_and_units(out: &Outcome) -> Vec<(String, &'static str)> {
        let mut v: Vec<_> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        v.sort();
        v
    }

    fn sorted(
        list: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> Vec<(String, &'static str)> {
        let mut v: Vec<_> = list.map(|(n, u)| (n.to_string(), u)).collect();
        v.sort();
        v
    }

    #[test]
    fn an_untraced_run_prints_every_end_to_end_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.push_end_to_end(&[0.5, 0.6], &[0.2, 0.3, 0.25], 0.75, 1.5);
        assert_eq!(names_and_units(&out), sorted(END_TO_END.into_iter()));
        assert!(out.metrics.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn a_traced_run_prints_every_per_layer_metric() {
        let mut out = Outcome::default();
        let mut layer = Layers::new(&mut out, 2.0, 1.0, 4.0);
        layer.work("ml.predict_share", 0.5);
        layer.wall("daemon.run_share", 0.5);
        layer.once("store.open_share", 1.0);
        layer.value("engine.waves", 1.0);
        layer.finish();
        assert_eq!(
            names_and_units(&out),
            sorted(PER_LAYER.iter().map(|&(_, n, u)| (n, u)))
        );
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("ml.predict_share"), 0.25);
        assert_eq!(value("daemon.run_share"), 0.5);
        assert_eq!(value("store.open_share"), 0.25);
        assert_eq!(value("ml.jacobian_share"), 0.0);
    }
}
