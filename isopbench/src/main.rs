//! The ISOP+ benchmark: one command that runs one named workload from a
//! seed, checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! isopbench --workload NAME --seed N --seconds S --trace 0|1
//! isopbench --steady RUNS --workload NAME --seed N --seconds S
//! ```
//!
//! Run from the repository root (see `isopbench/README.md`). The last line
//! of standard output is the result object; the lines before it are the
//! run's provenance and, for `--trace 1`, the per-layer table.

mod design;
mod metrics;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use metrics::Outcome;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["train-cnn", "design-cnn", "serve-fresh", "serve-repeat"];

/// Set-ups per run of train-cnn and the serve workloads; `setup_s` is
/// their median. Each of their set-ups is a fraction of a second that
/// moves by a third within one process, so nine keep the median steady.
/// (design-cnn's set-up is a second-long fit; it runs fewer.)
pub const SETUPS: usize = 9;

/// One run's settings.
pub struct Run {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Nominal measured seconds; each workload turns it into a fixed
    /// operation count.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory of this run inside the checkout.
    pub work: PathBuf,
}

impl Run {
    /// The fixed number of operations a workload runs at `per_s`
    /// operations per nominal second. Work is a count, not a deadline, so
    /// every run does identical work and the store grows identically.
    #[must_use]
    pub fn ops(&self, per_s: f64) -> usize {
        (self.seconds * per_s).ceil().max(1.0) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--steady" => steady = Some(value.parse::<usize>().map_err(|_| bad("a count"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        steady,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the shared parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_workload(args: &Args, root: &Path) -> Result<Outcome, String> {
    // The benchmark builds against the repository's crates; a checkout
    // without them has nothing to measure.
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".to_string());
    }
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let serve_err = |e: std::io::Error| format!("{}: {e}", args.workload);
    let mut out = match args.workload.as_str() {
        "train-cnn" => train::run(&run),
        "design-cnn" => design::run(&run),
        "serve-fresh" => serve::run(&run, serve::Shape::Fresh).map_err(serve_err)?,
        "serve-repeat" => serve::run(&run, serve::Shape::Repeat).map_err(serve_err)?,
        other => unreachable!("validated workload {other}"),
    };
    out.note("workload", Value::Str(args.workload.clone()));
    out.note("seed", Value::Num(args.seed as f64));
    out.note("seconds", Value::Num(args.seconds));
    out.note("trace", Value::Bool(args.trace));
    out.note("nproc", Value::Num(sys::nproc() as f64));
    out.note("git_rev", Value::Str(sys::git_revision(root)));
    out.note("source_digest", Value::Str(sys::source_digest(root)));
    out.note(
        "build_profile",
        Value::Str(sys::build_profile().to_string()),
    );
    Ok(out)
}

/// Runs the workload `runs` times in child processes, seeds `seed..`, and
/// prints each metric's median, quartiles and (Q3 − Q1) / median against
/// the bound `BENCHMARK.json` gives it.
fn steady(args: &Args, runs: usize, root: &Path) -> Result<(), String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".to_string());
    }
    let bounds = read_bounds(root);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let child = std::process::Command::new(&exe)
            .current_dir(root)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !child.status.success() {
            return Err(format!("run with seed {seed} failed: {}", child.status));
        }
        let result = Value::parse(last).map_err(|e| format!("seed {seed}: {e}"))?;
        let obj = result.as_obj().ok_or("result is not an object")?;
        let correct = Value::field(obj, "correct") == &Value::Bool(true);
        eprintln!("steady: seed {seed} correct={correct}");
        let Some(metrics) = Value::field(obj, "metrics").as_obj() else {
            return Err(format!("seed {seed}: no metrics"));
        };
        for (name, m) in metrics {
            let m = m.as_obj().unwrap_or_default();
            let (Value::Num(v), Some(unit)) =
                (Value::field(m, "value"), Value::field(m, "unit").as_str())
            else {
                return Err(format!("seed {seed}: malformed metric {name}"));
            };
            match samples.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, vs)) => vs.push(*v),
                None => samples.push((name.clone(), unit.to_string(), vec![*v])),
            }
        }
    }
    println!(
        "{:<22} {:<7} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "unit", "q1", "median", "q3", "spread", "bound"
    );
    for (name, unit, vs) in &samples {
        let [q1, med, q3] = stats::quartiles(vs);
        let spread = (q3 - q1) / med;
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let verdict = match bound {
            None => "no bound",
            Some(b) if spread <= b / 3.0 => "steady",
            Some(b) if spread <= b => "within bound",
            Some(_) => "TOO NOISY",
        };
        let bound = bound.map_or("-".to_string(), |b| format!("{b}"));
        let runs: Vec<String> = vs.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "{name:<22} {unit:<7} {q1:>12.6} {med:>12.6} {q3:>12.6} {spread:>8.4} {bound:>6}  {verdict}  [{}]",
            runs.join(" ")
        );
    }
    Ok(())
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(root: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) else {
        return Vec::new();
    };
    let Ok(doc) = Value::parse(&text) else {
        return Vec::new();
    };
    let obj = doc.as_obj().unwrap_or_default();
    match Value::field(obj, "end_to_end") {
        Value::Arr(items) => items
            .iter()
            .filter_map(|m| {
                let m = m.as_obj()?;
                let name = Value::field(m, "name").as_str()?.to_string();
                match Value::field(m, "bound") {
                    Value::Num(b) => Some((name, *b)),
                    _ => None,
                }
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("isopbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady(&args, runs, &root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("isopbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = match run_workload(&args, &root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("isopbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &out.violations {
        eprintln!("isopbench: check failed: {v}");
    }
    println!(
        "provenance {}",
        Value::Obj(out.provenance.clone()).to_json_string()
    );
    if args.trace {
        for line in trace::table(&out) {
            println!("{line}");
        }
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_follow_the_grammar() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = Value::parse(&text).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        let entries = |key: &str| -> Vec<(String, String)> {
            let Value::Arr(items) = Value::field(obj, key) else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let m = m.as_obj().expect("entry object");
                    let text =
                        |k: &str| Value::field(m, k).as_str().unwrap_or_default().to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let names = |key: &str| -> Vec<String> { entries(key).into_iter().map(|e| e.0).collect() };
        assert_eq!(names("workloads"), WORKLOADS);
        // Every run prints every metric of its kind, in the manifest's unit.
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), own(metrics::END_TO_END.to_vec()));
        assert_eq!(
            entries("per_layer"),
            own(trace::PER_LAYER.iter().map(|&(_, n, u)| (n, u)).collect())
        );
        let metrics: Vec<String> = names("end_to_end")
            .into_iter()
            .chain(names("per_layer"))
            .collect();
        for name in &metrics {
            assert!(stats::valid_name(name), "{name}");
        }
        let mut unique = metrics.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), metrics.len(), "metric names are used once");
        let bounds = read_bounds(&root);
        let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert!(bounds.iter().any(|(n, b)| n == "setup_s" && *b == largest));
    }
}
