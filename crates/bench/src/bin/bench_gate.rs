//! CI correctness-and-budget gate. Runs every smoke phase of [`PHASES`] in
//! order at [`SMOKE_SEED`]; each phase enforces its identity contracts (its
//! doc comment lists them) and folds its counters into one telemetry
//! handle. The gate then checks that handle's counters against their exact
//! budgets and each phase's wall-clock against its budget times
//! [`WALL_MARGIN`], both from `scripts/bench_thresholds.json`.
//!
//! It writes the budgeted run report to `--out` (`results/BENCH_ci.json`)
//! and one `{phase, wall_seconds, limit_seconds, summary}` record per phase
//! to `BENCH_gate.json` beside it.
//!
//! ```text
//! bench_gate [--thresholds scripts/bench_thresholds.json]
//!            [--out results/BENCH_ci.json] [--update] [--no-cache]
//! ```
//!
//! `--update` rewrites the thresholds from this run (counters exact, walls
//! with [`WALL_UPDATE_HEADROOM`]x headroom). `--no-cache` turns the
//! pipeline phase's evaluation cache and surrogate memo off, which must
//! fail a cache-on budget (`em.cache.misses` lands over budget).

use isop::data::generate_dataset;
use isop::evalcache::{EvalCache, SurrogateMemo};
use isop::prelude::*;
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use isop_ml::models::{Mlp, MlpConfig, RandomForest, TreeConfig};
use isop_ml::registry::ModelRegistry;
use isop_ml::train::TrainContext;
use isop_ml::Regressor;
use isop_store::Store;
use isop_telemetry::CounterEntry;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock headroom factor applied on top of the stored threshold.
const WALL_MARGIN: f64 = 1.10;
/// Headroom baked into the stored wall-clock threshold by `--update` —
/// generous because CI machines are slower than the laptop that recorded
/// the budget; the counters carry the tight, exact part of the gate.
const WALL_UPDATE_HEADROOM: f64 = 3.0;
/// Seed of the smoke run; thresholds are only meaningful at this seed.
const SMOKE_SEED: u64 = 3;
/// Worker threads of the smoke run (counters are width-independent).
const SMOKE_THREADS: usize = 2;
/// Fraction of total EM wall-clock the cache must elide over the two-run
/// pipeline phase (run two's roll-out is all hits, so the honest value is
/// 0.5; 0.2 leaves room for a partial-hit batch without going stale).
const MIN_SAVED_FRACTION: f64 = 0.2;
/// Worker threads of the training smoke (the data-parallel engine's gate).
const TRAIN_THREADS: usize = 4;
/// Minimum forest-training speedup at [`TRAIN_THREADS`] workers, enforced
/// only on hosts that actually have that many cores — bit-identity of the
/// fits is enforced everywhere.
const MIN_TRAIN_SPEEDUP: f64 = 2.0;
/// Transient fault rate of the fault-injection smoke — high enough to
/// guarantee retries at [`SMOKE_SEED`], low enough that the retry budget
/// usually rescues the candidate.
const FAULT_RATE: f64 = 0.35;
/// Per-design permanent ("doomed") fault rate of the fault-injection
/// smoke, exercising the top-up path.
const FAULT_PERMANENT_RATE: f64 = 0.30;
/// Seed of the injected fault stream (independent of the pipeline seed).
const FAULT_SEED: u64 = 2;
/// Minimum batched-over-scalar sweep speedup, enforced only when the
/// `simd-lanes` feature is compiled in ([`isop_em::sweep::lanes_compiled`])
/// — bit-identity of the two paths is enforced everywhere.
const MIN_SWEEP_SPEEDUP: f64 = 2.0;
/// Frequency points of the sweep smoke grid.
const SWEEP_POINTS: usize = 256;
/// Fraction of the cold run's charged EM seconds the warm-store replay
/// must elide (a full-hit replay elides 100%; 90% leaves room for a
/// future smoke tweak that adds a handful of fresh designs).
const STORE_MIN_ELIDED_FRACTION: f64 = 0.9;
/// Registry key of the store smoke's zoo surrogate (any stable value —
/// the registry only requires it to be consistent between cold and warm).
const STORE_ZOO_SPACE_ID: u64 = 0x5105;
/// Minimum serial-over-concurrent wall-clock speedup of the engine smoke's
/// four-job batch, enforced only on hosts with at least
/// [`ENGINE_SPEEDUP_CORES`] cores — solo-vs-concurrent bit-identity and
/// the cross-job EM elision are enforced everywhere.
const MIN_ENGINE_SPEEDUP: f64 = 1.5;
/// Core count a host needs before the engine throughput ratio is enforced
/// (two concurrent jobs x two leased threads each).
const ENGINE_SPEEDUP_CORES: usize = 4;

/// One smoke phase of the gate: the name of its wall budget and summary
/// record, and the function that runs it (`Err` names the contract it found
/// violated).
type Phase = (&'static str, fn(&mut Ctx) -> Result<PhaseRun, String>);

/// The gate's phases, in run order. The thresholds file must hold exactly
/// one wall budget per entry.
const PHASES: &[Phase] = &[
    ("pipeline", pipeline_phase),
    ("train", train_phase),
    ("fault", fault_phase),
    ("sched", sched_phase),
    ("sweep", sweep_phase),
    ("store", store_phase),
    ("engine", engine_phase),
    ("daemon", daemon_phase),
];

/// What one phase measured: the wall-clock its budget applies to, and
/// named numbers for its `BENCH_gate.json` record.
struct PhaseRun {
    wall_seconds: f64,
    summary: Vec<(&'static str, f64)>,
}

/// State the phases share.
struct Ctx {
    /// The budgeted handle: every phase folds its counters into it.
    main: Telemetry,
    /// `false` under `--no-cache`.
    use_cache: bool,
    /// Where the daemon phase exports the recovered journal's shards.
    journal_dir: PathBuf,
    /// The pipeline phase's two outcomes, for the run report's header.
    smoke: Vec<IsopOutcome>,
}

/// The checked-in budget the gate compares against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GateThresholds {
    /// Must match [`RunReport::SCHEMA_VERSION`] of the measuring binary.
    schema_version: u32,
    /// Seed the counter budget was recorded at.
    seed: u64,
    /// One wall-clock budget per entry of [`PHASES`].
    wall_budgets: Vec<WallBudget>,
    /// Exact counter budget, one entry per [`Counter`].
    counters: Vec<CounterEntry>,
}

/// A phase's wall-clock budget, seconds (compared with a [`WALL_MARGIN`]
/// tolerance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WallBudget {
    phase: String,
    max_seconds: f64,
}

/// One phase's record in `BENCH_gate.json`.
#[derive(Debug, Serialize)]
struct PhaseRecord {
    phase: &'static str,
    wall_seconds: f64,
    /// The wall budget times [`WALL_MARGIN`].
    limit_seconds: f64,
    /// The phase's named numbers, as one JSON object.
    summary: Value,
}

/// A `map_err` adapter that prefixes the error with `what`.
fn failed<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The pipeline's configuration for every smoke, at `threads` workers.
fn smoke_config(threads: usize) -> IsopConfig {
    IsopConfig {
        harmonica: HarmonicaConfig {
            stages: 2,
            samples_per_stage: 120,
            top_monomials: 6,
            bits_per_stage: 8,
            ..HarmonicaConfig::default()
        },
        hyperband: HyperbandConfig {
            max_resource: 3.0,
            eta: 3.0,
        },
        gd_candidates: 4,
        gd_epochs: 25,
        cand_num: 3,
        parallelism: Parallelism::new(threads),
        ..IsopConfig::default()
    }
}

/// Runs T1 on S1 at [`SMOKE_SEED`] through the exact oracle surrogate,
/// rolling out through `simulator` and recording on `telemetry`, with the
/// evaluation cache and surrogate memo of `caches` attached (`None`: both
/// off).
fn smoke_run(
    simulator: &dyn EmSimulator,
    config: IsopConfig,
    telemetry: &Telemetry,
    caches: Option<(&EvalCache, &SurrogateMemo)>,
) -> IsopOutcome {
    let (cache, memo) = caches.map_or_else(
        || (EvalCache::disabled(), SurrogateMemo::disabled()),
        |(cache, memo)| (cache.clone(), memo.clone()),
    );
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let objective = isop::tasks::objective_for(TaskId::T1, vec![]);
    IsopOptimizer::new(&space, &surrogate, simulator, config)
        .with_telemetry(telemetry.clone())
        .with_eval_cache(cache)
        .with_surrogate_memo(memo)
        .run(objective, Budget::unlimited(), SMOKE_SEED)
}

/// The analytical solver behind a [`FaultInjector`] at the smoke's fault
/// rates (or at rate 0) and [`FAULT_SEED`], both recording on `telemetry`.
fn faulty_solver(faults: bool, telemetry: &Telemetry) -> FaultInjector<AnalyticalSolver> {
    let rate = |r: f64| if faults { r } else { 0.0 };
    FaultInjector::new(
        AnalyticalSolver::new().with_telemetry(telemetry.clone()),
        FaultConfig {
            transient_rate: rate(FAULT_RATE),
            permanent_rate: rate(FAULT_PERMANENT_RATE),
            seed: FAULT_SEED,
        },
    )
    .with_telemetry(telemetry.clone())
}

/// How two outcomes' EM ledgers must agree.
#[derive(Clone, Copy)]
enum Ledgers {
    /// Charged and saved seconds, each bit for bit.
    Each,
    /// Only charged + saved, bit for bit: a cache replay moves charged
    /// seconds into saved ones.
    Sum,
}

/// Fails with `what` unless `a` and `b` agree on candidates, success,
/// resolution and, per `ledgers`, their EM seconds at exact bits.
fn same_outcome(
    a: &IsopOutcome,
    b: &IsopOutcome,
    ledgers: Ledgers,
    what: &str,
) -> Result<(), String> {
    let ledger = |o: &IsopOutcome| match ledgers {
        Ledgers::Each => (o.em_seconds.to_bits(), o.em_seconds_saved.to_bits()),
        Ledgers::Sum => ((o.em_seconds + o.em_seconds_saved).to_bits(), 0),
    };
    let same = a.candidates == b.candidates
        && (a.success, &a.resolution, ledger(a)) == (b.success, &b.resolution, ledger(b));
    if same {
        Ok(())
    } else {
        Err(format!("{what}: outcome diverged"))
    }
}

/// Fails with `what` unless two runs of one job agree on candidates, both
/// EM ledgers at exact bits, success, resolution, disposition and every
/// per-job counter.
fn same_job(a: &JobResult, b: &JobResult, what: &str) -> Result<(), String> {
    let ledger = |j: &JobResult| (j.em_seconds_charged.to_bits(), j.em_seconds_saved.to_bits());
    let same = a.candidates == b.candidates
        && ledger(a) == ledger(b)
        && (a.success, &a.resolution, &a.disposition) == (b.success, &b.resolution, &b.disposition)
        && a.report.counters == b.report.counters;
    if same {
        Ok(())
    } else {
        Err(format!("{what}: job '{}' diverged", a.id))
    }
}

/// Fails with `what` unless `a` and `b` agree on every counter.
fn same_counters(a: &Telemetry, b: &Telemetry, what: &str) -> Result<(), String> {
    match Counter::ALL.iter().find(|&&c| a.counter(c) != b.counter(c)) {
        Some(c) => Err(format!("{what}: counter {} diverged", c.name())),
        None => Ok(()),
    }
}

/// Adds every counter of `from` to the budgeted handle `main`.
fn fold_counters(main: &Telemetry, from: &RunReport) {
    for c in Counter::ALL {
        main.add(c, from.counter(c.name()));
    }
}

/// A fresh per-process scratch directory for `phase`.
fn scratch_dir(phase: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isop-bench-{phase}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Opens the store at `dir`, recording on `telemetry`.
fn open_store(dir: &Path, telemetry: &Telemetry) -> Result<Arc<Store>, String> {
    let store = Store::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))?;
    Ok(Arc::new(store.with_telemetry(telemetry.clone())))
}

/// The four-job demo of the engine and daemon phases: tenants `acme` and
/// `blue`, each submitting a fresh space and a rerun of it, so fair
/// admission at two slots puts the fresh pair in wave 0 and the reruns in
/// wave 1.
fn demo_jobs() -> [JobSpec; 4] {
    let spec = |id: &str, tenant: &str, space: &str| JobSpec {
        id: id.to_string(),
        tenant: tenant.to_string(),
        space: space.to_string(),
        seed: SMOKE_SEED,
        threads: SMOKE_THREADS,
        ..JobSpec::default()
    };
    [
        spec("acme-s1", "acme", "s1"),
        spec("acme-s1-rerun", "acme", "s1"),
        spec("blue-s2", "blue", "s2"),
        spec("blue-s2-rerun", "blue", "s2"),
    ]
}

/// The job `id` among `jobs`.
fn find_job<'a>(jobs: &'a [JobResult], id: &str) -> Result<&'a JobResult, String> {
    jobs.iter()
        .find(|j| j.id == id)
        .ok_or_else(|| format!("job '{id}' missing"))
}

/// The seeded pipeline, run twice on the main handle sharing one
/// evaluation cache and surrogate memo (both off under `--no-cache`). The
/// second roll-out is all cache hits, so the runs must agree bit for bit
/// (candidates and the charged + saved EM sum) and, with the cache on, at
/// least [`MIN_SAVED_FRACTION`] of all EM seconds must be elided.
fn pipeline_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let (cache, memo) = if ctx.use_cache {
        (EvalCache::new(), SurrogateMemo::new())
    } else {
        (EvalCache::disabled(), SurrogateMemo::disabled())
    };
    let simulator = AnalyticalSolver::new().with_telemetry(ctx.main.clone());
    let t0 = Instant::now();
    let config = smoke_config(SMOKE_THREADS);
    let caches = Some((&cache, &memo));
    let first = smoke_run(&simulator, config.clone(), &ctx.main, caches);
    let second = smoke_run(&simulator, config, &ctx.main, caches);
    let wall_seconds = t0.elapsed().as_secs_f64();

    let what = "cache contract violation: repeat run";
    same_outcome(&first, &second, Ledgers::Sum, what)?;
    let charged = ctx.main.em_seconds();
    let saved = ctx.main.em_seconds_saved();
    let fraction = saved / (charged + saved);
    // NaN (0/0: no EM ran at all) must fail too, not just low fractions.
    if ctx.use_cache && (fraction.is_nan() || fraction < MIN_SAVED_FRACTION) {
        return Err(format!(
            "cache ineffective: saved {saved:.2}s of {:.2}s total EM \
             ({:.0}% < {:.0}% required)",
            charged + saved,
            fraction * 100.0,
            MIN_SAVED_FRACTION * 100.0
        ));
    }
    ctx.smoke = vec![first, second];
    Ok(PhaseRun {
        wall_seconds,
        summary: vec![
            ("em_charged_seconds", charged),
            ("em_saved_seconds", saved),
            ("saved_fraction", fraction),
        ],
    })
}

/// The data-parallel training engine: a random forest and a dropout MLP
/// each fit serially and at [`TRAIN_THREADS`] workers on the main handle,
/// and every parallel fit must predict bit-identically to its serial twin.
/// On hosts with at least [`TRAIN_THREADS`] cores the forest must also fit
/// at least [`MIN_TRAIN_SPEEDUP`]x faster in parallel. The phase's wall is
/// the sum of the fit times.
fn train_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let space = isop::spaces::s1();
    let data = generate_dataset(&space, 1200, &AnalyticalSolver::new(), SMOKE_SEED)
        .map_err(failed("dataset"))?;
    let serial_ctx = TrainContext::serial().with_telemetry(ctx.main.clone());
    let par_ctx =
        TrainContext::new(Parallelism::new(TRAIN_THREADS)).with_telemetry(ctx.main.clone());
    type NewModel = fn() -> Box<dyn Regressor>;
    let models: [(&str, NewModel); 2] = [
        ("forest", || {
            let tree = TreeConfig {
                max_depth: 9,
                ..TreeConfig::default()
            };
            Box::new(RandomForest::new(12, tree, SMOKE_SEED))
        }),
        ("mlp", || {
            Box::new(Mlp::new(MlpConfig {
                hidden: vec![48, 48],
                epochs: 6,
                dropout: 0.05,
                seed: SMOKE_SEED,
                ..MlpConfig::default()
            }))
        }),
    ];
    // Fits `model` under `train`; returns its predictions and the seconds.
    let fit = |model: &mut dyn Regressor, train: &TrainContext| {
        let t0 = Instant::now();
        model.fit_with(&data, train).map_err(failed("fit"))?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok::<_, String>((model.predict(&data.x).map_err(failed("predict"))?, seconds))
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut secs = Vec::new();
    for (name, model) in models {
        let (serial, serial_secs) = fit(model().as_mut(), &serial_ctx)?;
        let (parallel, par_secs) = fit(model().as_mut(), &par_ctx)?;
        secs.push((serial_secs, par_secs));
        if serial != parallel {
            return Err(format!(
                "training determinism violation: {name} fit at {TRAIN_THREADS} threads \
                 diverged from the serial fit"
            ));
        }
        let speedup = serial_secs / par_secs.max(1e-9);
        if name == "forest" && cores >= TRAIN_THREADS && speedup < MIN_TRAIN_SPEEDUP {
            return Err(format!(
                "training speedup regression: forest {speedup:.2}x < \
                 {MIN_TRAIN_SPEEDUP:.1}x at {TRAIN_THREADS} threads ({cores} cores)"
            ));
        }
    }
    Ok(PhaseRun {
        wall_seconds: secs.iter().map(|(s, p)| s + p).sum(),
        summary: vec![
            ("forest_serial_seconds", secs[0].0),
            ("forest_parallel_seconds", secs[0].1),
            ("mlp_serial_seconds", secs[1].0),
            ("mlp_parallel_seconds", secs[1].1),
            ("host_cores", cores as f64),
        ],
    })
}

/// The fault-tolerant roll-out, in four cold pipeline runs on scratch
/// handles: a plain run; a rate-0 run through [`FaultInjector`], which
/// must equal the plain run in outcome, both ledgers and every counter,
/// and resolve `Full`; and faulted runs at 1 and 4 threads, which must
/// equal each other in outcome and every counter, with retries and
/// transient failures actually observed. The 1-thread faulted run's
/// counters fold into the main handle, so `em.retries` and friends are
/// budgeted.
fn fault_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let t0 = Instant::now();
    let run = |faults: Option<bool>, threads: usize| {
        let telemetry = Telemetry::enabled();
        let config = smoke_config(threads);
        let outcome = match faults {
            None => {
                let solver = AnalyticalSolver::new().with_telemetry(telemetry.clone());
                smoke_run(&solver, config, &telemetry, None)
            }
            Some(faults) => smoke_run(&faulty_solver(faults, &telemetry), config, &telemetry, None),
        };
        (outcome, telemetry)
    };
    let (plain, plain_tele) = run(None, SMOKE_THREADS);
    let (zero, zero_tele) = run(Some(false), SMOKE_THREADS);
    let transparency = "fault transparency violation: rate-0 fault layer";
    same_outcome(&zero, &plain, Ledgers::Each, transparency)?;
    if zero.resolution != RolloutResolution::Full {
        return Err(format!("{transparency}: resolution {}", zero.resolution));
    }
    same_counters(&zero_tele, &plain_tele, transparency)?;

    let (serial, serial_tele) = run(Some(true), 1);
    let (wide, wide_tele) = run(Some(true), 4);
    let determinism = "fault determinism violation: 1 vs 4 threads";
    same_outcome(&serial, &wide, Ledgers::Each, determinism)?;
    same_counters(&serial_tele, &wide_tele, determinism)?;
    let count = |c: Counter| serial_tele.counter(c);
    if count(Counter::EmRetries) == 0 || count(Counter::EmFailuresTransient) == 0 {
        return Err(format!(
            "fault smoke inert: rate {FAULT_RATE} produced no retries at seed {SMOKE_SEED} — \
             the retry budgets gate nothing"
        ));
    }
    fold_counters(&ctx.main, &serial_tele.run_report());
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("retries", count(Counter::EmRetries) as f64),
            (
                "failures_transient",
                count(Counter::EmFailuresTransient) as f64,
            ),
            (
                "failures_permanent",
                count(Counter::EmFailuresPermanent) as f64,
            ),
            ("topped_up", count(Counter::EmToppedUp) as f64),
        ],
    })
}

/// The async batched scheduler, in three cold faulted runs on scratch
/// handles at the [`FAULT_RATE`]/[`FAULT_PERMANENT_RATE`] config: the
/// synchronous schedule, and the async schedule at 1 and 4 threads. The
/// async runs must equal each other in outcome and every counter; the
/// async schedule must deliver the synchronous candidate set; and, with
/// retries and live batches observed, its charged ledger must land
/// strictly below the synchronous one. The 1-thread async run's counters
/// fold into the main handle, so the `em.sched.*` budgets are gated.
fn sched_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let t0 = Instant::now();
    let run = |schedule: RolloutSchedule, threads: usize| {
        let telemetry = Telemetry::enabled();
        let config = IsopConfig {
            schedule,
            ..smoke_config(threads)
        };
        let outcome = smoke_run(&faulty_solver(true, &telemetry), config, &telemetry, None);
        (outcome, telemetry)
    };
    let (sync, _) = run(RolloutSchedule::Synchronous, SMOKE_THREADS);
    let (serial, serial_tele) = run(RolloutSchedule::AsyncBatched, 1);
    let (wide, wide_tele) = run(RolloutSchedule::AsyncBatched, 4);

    let determinism = "scheduler determinism violation: async at 1 vs 4 threads";
    same_outcome(&serial, &wide, Ledgers::Each, determinism)?;
    same_counters(&serial_tele, &wide_tele, determinism)?;
    if serial.candidates != sync.candidates || serial.resolution != sync.resolution {
        return Err(
            "scheduler quality violation: async schedule changed the delivered candidate set"
                .into(),
        );
    }
    let count = |c: Counter| serial_tele.counter(c);
    if count(Counter::EmRetries) == 0 {
        return Err(format!(
            "scheduler smoke inert: rate {FAULT_RATE} produced no retries at seed \
             {SMOKE_SEED} — the ledger comparison proves nothing"
        ));
    }
    if serial.em_seconds >= sync.em_seconds {
        return Err(format!(
            "scheduler ledger regression: async charged {:.2}s >= synchronous {:.2}s — \
             batching no longer absorbs the retry surcharge",
            serial.em_seconds, sync.em_seconds
        ));
    }
    if count(Counter::EmSchedBatches) == 0 {
        return Err("scheduler smoke inert: async run formed no live batches".into());
    }
    fold_counters(&ctx.main, &serial_tele.run_report());
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("async_em_charged_seconds", serial.em_seconds),
            ("sync_em_charged_seconds", sync.em_seconds),
            ("batches", count(Counter::EmSchedBatches) as f64),
            ("slack_slots", count(Counter::EmSchedSlackSlots) as f64),
            ("interleaved", count(Counter::EmSchedInterleaved) as f64),
        ],
    })
}

/// Appends the eight re/im bit patterns of a sweep point's four
/// S-parameters, the unit of the sweep phase's identity comparisons.
fn collect_sweep_bits(view: isop_em::sweep::SweepView<'_>, out: &mut Vec<u64>) {
    for i in 0..view.len() {
        for s in [view.s11(i), view.s21(i), view.s12(i), view.s22(i)] {
            out.push(s.re.to_bits());
            out.push(s.im.to_bits());
        }
    }
}

/// The batched EM frequency sweep: a fleet of link-level channels (shared
/// layers, repeated segments, stubbed and back-drilled vias) swept through
/// the scalar per-point path and through one cold
/// [`SweepPlan`](isop_em::sweep::SweepPlan). The two must agree bit for
/// bit at every (channel, frequency) point, and lane width 1 must equal
/// width 4. Only with the `simd-lanes` feature compiled in must the
/// batched pass, interning included, be at least [`MIN_SWEEP_SPEEDUP`]x
/// faster than the scalar one.
fn sweep_phase(_: &mut Ctx) -> Result<PhaseRun, String> {
    use isop_em::channel::{Channel, Element};
    use isop_em::stackup::DiffStripline;
    use isop_em::sweep::{lanes_compiled, LaneWidth, SweepPlan};
    use isop_em::via::Via;

    let t0 = Instant::now();
    let layers: Vec<DiffStripline> = (0..4)
        .map(|i| DiffStripline {
            trace_width: 4.0 + 0.5 * i as f64,
            ..DiffStripline::default()
        })
        .collect();
    let mut channels = Vec::new();
    for c in 0..16usize {
        let mut elems = Vec::new();
        for s in 0..4usize {
            elems.push(Element::Stripline {
                layer: layers[(c + s) % layers.len()],
                length_inches: 1.0 + ((c + 2 * s) % 3) as f64,
            });
            elems.push(Element::Via(Via {
                stub_length: if (c + s) % 2 == 0 { 20.0 } else { 0.0 },
                ..Via::default()
            }));
        }
        channels.push(Channel::new(elems).map_err(failed("channel"))?);
    }
    let freqs = SweepPlan::log_spaced(1e8, 4e10, SWEEP_POINTS)
        .freqs()
        .to_vec();

    // Scalar reference pass: per-point ABCD chain + S-parameter conversion.
    let t_scalar = Instant::now();
    let mut scalar_bits: Vec<u64> = Vec::with_capacity(channels.len() * SWEEP_POINTS * 8);
    for ch in &channels {
        let z = ch.reference_impedance();
        for &f in &freqs {
            let (s11, s21, s12, s22) = ch.abcd(f).to_s_params(z);
            for s in [s11, s21, s12, s22] {
                scalar_bits.push(s.re.to_bits());
                scalar_bits.push(s.im.to_bits());
            }
        }
    }
    let scalar_secs = t_scalar.elapsed().as_secs_f64();

    // Batched passes through one cold plan each (interning cost included).
    let batched = |lanes: LaneWidth| {
        let mut plan = SweepPlan::log_spaced(1e8, 4e10, SWEEP_POINTS).with_lanes(lanes);
        let mut bits: Vec<u64> = Vec::with_capacity(scalar_bits.len());
        plan.sweep_channels(&channels, |_, view| collect_sweep_bits(view, &mut bits));
        bits
    };
    let t_batched = Instant::now();
    let batched_bits = batched(LaneWidth::W4);
    let batched_secs = t_batched.elapsed().as_secs_f64();
    if scalar_bits != batched_bits {
        return Err("sweep identity violation: batched sweep diverged from the scalar path".into());
    }
    if batched(LaneWidth::W1) != batched_bits {
        return Err("sweep lane determinism violation: lane width 1 diverged from width 4".into());
    }

    let speedup = scalar_secs / batched_secs.max(1e-9);
    if lanes_compiled() && speedup < MIN_SWEEP_SPEEDUP {
        return Err(format!(
            "sweep speedup regression: batched {speedup:.2}x < {MIN_SWEEP_SPEEDUP:.1}x \
             over the scalar path ({scalar_secs:.3}s vs {batched_secs:.3}s)"
        ));
    }
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("channels", channels.len() as f64),
            ("scalar_seconds", scalar_secs),
            ("batched_seconds", batched_secs),
            ("speedup", speedup),
            ("lanes_compiled", f64::from(u8::from(lanes_compiled()))),
        ],
    })
}

/// The persistent store and model registry. The seeded pipeline runs cold
/// against a fresh store directory, then warm from fresh handles at 1 and
/// 4 threads (what a second process would see). The warm runs must
/// replay the cold candidates, success and charged + saved ledger sum bit
/// for bit while eliding at least [`STORE_MIN_ELIDED_FRACTION`] of the
/// cold charged EM seconds with at least one cross-job hit, and the two
/// warm widths must agree on the outcome and every counter. A zoo
/// surrogate fitted through the registry must reload warm with no
/// training work (no `ml.fit.*` span, `train.chunks` = 0) and predict
/// bit-identically. The cold, warm-serial and zoo handles' counters fold
/// into the main handle, so the `store.*` volumes are budgeted.
fn store_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let t0 = Instant::now();
    let dir = scratch_dir("store");
    let run = |threads: usize, telemetry: &Telemetry, persist: bool| {
        let cache = EvalCache::with_store(open_store(&dir, telemetry)?);
        let solver = AnalyticalSolver::new().with_telemetry(telemetry.clone());
        let caches = Some((&cache, &SurrogateMemo::disabled()));
        let outcome = smoke_run(&solver, smoke_config(threads), telemetry, caches);
        if persist {
            cache.persist().map_err(failed("flush"))?;
        }
        Ok::<_, String>(outcome)
    };

    let cold_tele = Telemetry::enabled();
    let t_cold = Instant::now();
    let cold = run(SMOKE_THREADS, &cold_tele, true)?;
    let cold_wall = t_cold.elapsed().as_secs_f64();
    if cold.em_seconds <= 0.0 {
        return Err("store smoke inert: the cold run charged no EM seconds".into());
    }

    // Fits a small MLP through the registry (or loads it warm), persisting
    // a fresh fit, and returns whether it was a registry hit plus the bits
    // of its predictions. The serial training context keeps the folded
    // `train.*` counters host-independent.
    let space = isop::spaces::s1();
    let data = generate_dataset(&space, 300, &AnalyticalSolver::new(), SMOKE_SEED)
        .map_err(failed("dataset"))?;
    let zoo_fit = |telemetry: &Telemetry| {
        let registry = ModelRegistry::new(open_store(&dir, telemetry)?);
        let zoo = isop::surrogate::ModelZoo::new(Parallelism::serial())
            .with_telemetry(telemetry.clone())
            .with_registry(registry.with_telemetry(telemetry.clone()));
        let mlp = Mlp::new(MlpConfig {
            hidden: vec![16, 16],
            epochs: 4,
            seed: SMOKE_SEED,
            ..MlpConfig::default()
        });
        let (s, hit) = zoo
            .fit_neural_registered(STORE_ZOO_SPACE_ID, mlp, &data)
            .map_err(failed("zoo fit"))?;
        if !hit {
            let registry = zoo.registry().expect("registry attached above");
            registry.persist().map_err(failed("zoo flush"))?;
        }
        let pred = Regressor::predict(s.model(), &data.x).map_err(failed("zoo predict"))?;
        let bits: Vec<u64> = pred.as_slice().iter().map(|v| v.to_bits()).collect();
        Ok::<_, String>((hit, bits))
    };
    let t_fit_cold = Instant::now();
    let (cold_hit, cold_pred) = zoo_fit(&cold_tele)?;
    let cold_fit_wall = t_fit_cold.elapsed().as_secs_f64();
    if cold_hit {
        return Err("store smoke: cold zoo fit was served from an empty store".into());
    }

    // Warm replays from fresh handles (no persist: the store stays
    // byte-identical between the two widths, and a full-hit replay has
    // nothing new to write anyway).
    let warm_tele = Telemetry::enabled();
    let t_warm = Instant::now();
    let warm = run(1, &warm_tele, false)?;
    let warm_wall = t_warm.elapsed().as_secs_f64();
    let wide_tele = Telemetry::enabled();
    let wide = run(4, &wide_tele, false)?;

    let replay = "store replay violation: warm vs cold";
    same_outcome(&warm, &cold, Ledgers::Sum, replay)?;
    let elided = 1.0 - warm.em_seconds / cold.em_seconds;
    if elided < STORE_MIN_ELIDED_FRACTION {
        return Err(format!(
            "store replay ineffective: warm run still charged {:.2}s of {:.2}s cold EM \
             ({:.0}% elided < {:.0}% required)",
            warm.em_seconds,
            cold.em_seconds,
            elided * 100.0,
            STORE_MIN_ELIDED_FRACTION * 100.0
        ));
    }
    let cross_job_hits = warm_tele.counter(Counter::StoreCrossJobHits);
    if cross_job_hits == 0 {
        return Err("store smoke inert: warm run observed no cross-job hits".into());
    }
    let determinism = "store determinism violation: warm at 1 vs 4 threads";
    same_outcome(&warm, &wide, Ledgers::Each, determinism)?;
    same_counters(&warm_tele, &wide_tele, determinism)?;

    let zoo_tele = Telemetry::enabled();
    let t_fit_warm = Instant::now();
    let (warm_hit, warm_pred) = zoo_fit(&zoo_tele)?;
    let warm_fit_wall = t_fit_warm.elapsed().as_secs_f64();
    if !warm_hit {
        return Err("store registry violation: warm zoo fit retrained instead of loading".into());
    }
    if warm_pred != cold_pred {
        return Err("store registry violation: warm surrogate predictions diverged".into());
    }
    let zoo_report = zoo_tele.run_report();
    let fit_spans = zoo_report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("ml.fit."));
    if zoo_report.counter("train.chunks") != 0 || fit_spans.count() != 0 {
        return Err("store registry violation: warm zoo load performed training work".into());
    }

    fold_counters(&ctx.main, &cold_tele.run_report());
    fold_counters(&ctx.main, &warm_tele.run_report());
    fold_counters(&ctx.main, &zoo_report);
    std::fs::remove_dir_all(&dir).ok();
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("cold_wall_seconds", cold_wall),
            ("warm_wall_seconds", warm_wall),
            ("cold_em_charged_seconds", cold.em_seconds),
            ("warm_em_charged_seconds", warm.em_seconds),
            ("warm_em_saved_seconds", warm.em_seconds_saved),
            ("warm_cross_job_hits", cross_job_hits as f64),
            ("cold_fit_wall_seconds", cold_fit_wall),
            ("warm_fit_wall_seconds", warm_fit_wall),
        ],
    })
}

/// The multi-job engine. The four-job demo runs against fresh store
/// directories three ways: job `acme-s1` solo, the batch serially (one
/// core permit, one wave slot), and the batch concurrently (host cores,
/// two wave slots). The solo job must equal the same job inside both
/// batches ([`same_job`]); the concurrent batch must form two waves whose
/// reruns charge zero EM seconds through cross-job store hits; and the
/// peak leased permits must respect each grant. Only on hosts with at
/// least [`ENGINE_SPEEDUP_CORES`] cores must the concurrent batch beat the
/// serial one by [`MIN_ENGINE_SPEEDUP`]x. The serial batch's engine handle
/// and per-job reports fold into the main handle.
fn engine_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    let t0 = Instant::now();
    let scratch = scratch_dir("engine");
    let batch = demo_jobs();
    // Runs `specs` on a fresh store; returns the report, handle and wall.
    let run = |label: &str, specs: &[JobSpec], cores: usize, wave_slots: usize| {
        let t = Instant::now();
        let queue = JobQueue::from_specs(specs.to_vec());
        let telemetry = Telemetry::enabled();
        let store = open_store(&scratch.join(label), &telemetry)?;
        let pipeline = smoke_config(SMOKE_THREADS);
        let report = Engine::new(EngineConfig {
            cores,
            wave_slots,
            pipeline,
        })
        .with_telemetry(telemetry.clone())
        .with_store(store)
        .run(&queue)
        .map_err(|e| format!("{label} run: {e}"))?;
        Ok::<_, String>((report, telemetry, t.elapsed().as_secs_f64()))
    };

    let (solo, ..) = run("solo", &batch[..1], 1, 1)?;
    let (serial, serial_tele, serial_wall) = run("serial", &batch, 1, 1)?;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (concurrent, _, concurrent_wall) = run("concurrent", &batch, host_cores, 2)?;
    std::fs::remove_dir_all(&scratch).ok();

    // Identity clause: the wave-0 job must not feel its batch at all.
    let reference = find_job(&solo.jobs, "acme-s1")?;
    for (label, rep) in [("serial", &serial), ("concurrent", &concurrent)] {
        let what = format!("engine identity violation: {label} batch vs solo");
        same_job(reference, find_job(&rep.jobs, "acme-s1")?, &what)?;
    }

    // Elision clause: wave 1's reruns run entirely off wave 0's records.
    if concurrent.waves != 2 {
        return Err(format!(
            "expected 2 admission waves, got {}",
            concurrent.waves
        ));
    }
    for id in ["acme-s1-rerun", "blue-s2-rerun"] {
        let rerun = find_job(&concurrent.jobs, id)?;
        if rerun.em_seconds_charged.to_bits() != 0f64.to_bits() || rerun.em_seconds_saved <= 0.0 {
            return Err(format!(
                "engine elision violation: {id} charged {:.2}s EM despite an identical \
                 wave-0 predecessor (saved {:.2}s)",
                rerun.em_seconds_charged, rerun.em_seconds_saved
            ));
        }
    }
    if concurrent.cross_job_hits == 0 {
        return Err("engine smoke inert: concurrent batch observed no cross-job hits".into());
    }
    if concurrent.peak_core_permits > host_cores || serial.peak_core_permits > 1 {
        return Err(format!(
            "engine budget violation: peak permits {} (serial {}) exceeded the grant",
            concurrent.peak_core_permits, serial.peak_core_permits
        ));
    }

    // Throughput clause, only where the host can actually overlap jobs.
    let speedup = serial_wall / concurrent_wall.max(1e-9);
    if host_cores >= ENGINE_SPEEDUP_CORES && speedup < MIN_ENGINE_SPEEDUP {
        return Err(format!(
            "engine throughput regression: concurrent batch {speedup:.2}x < \
             {MIN_ENGINE_SPEEDUP:.1}x over serial ({serial_wall:.2}s vs \
             {concurrent_wall:.2}s on {host_cores} cores)"
        ));
    }

    // Budget fold: the serial batch's engine handle (engine.* + store.*)
    // plus each per-job report — all deterministic in serial admission.
    fold_counters(&ctx.main, &serial_tele.run_report());
    for job in &serial.jobs {
        fold_counters(&ctx.main, &job.report);
    }
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("host_cores", host_cores as f64),
            ("serial_wall_seconds", serial_wall),
            ("concurrent_wall_seconds", concurrent_wall),
            ("speedup", speedup),
            ("em_seconds_charged", concurrent.em_seconds_charged),
            ("em_seconds_saved", concurrent.em_seconds_saved),
            ("cross_job_hits", concurrent.cross_job_hits as f64),
            ("peak_core_permits", concurrent.peak_core_permits as f64),
            ("waves", concurrent.waves as f64),
        ],
    })
}

/// The live daemon, in two legs.
///
/// **TCP leg**: a real [`Daemon`] serves a loopback socket; the four-job
/// demo streams in as NDJSON `submit` lines, `status` is polled until all
/// four jobs finish, and `shutdown` drains the daemon. Every response must
/// be `"ok":true` and the journal must hold a `Finished` frame per job.
/// (Epoch composition here depends on request timing, so this leg asserts
/// liveness, not bit-identity.)
///
/// **Kill/restart leg**, driven synchronously so the epoch layout is
/// deterministic: a victim daemon takes the four jobs in one two-wave
/// epoch and dies via the chaos knob right after wave 1's safe-point
/// journal flush, the worst crash window the safety invariant allows. A
/// restarted daemon on the same store must recover exactly two replayed
/// and two resumed jobs and finish every job like a never-killed daemon
/// ([`same_job`]), with exactly one `Finished` frame per job and a charged
/// ledger equal to the calm one bit for bit: zero double-charged EM
/// seconds. The synchronous legs' counters fold into the main handle, and
/// the recovered journal's shards are copied to the context's journal
/// directory for the CI artifact.
fn daemon_phase(ctx: &mut Ctx) -> Result<PhaseRun, String> {
    use isop_store::JobState;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let t0 = Instant::now();
    let scratch = scratch_dir("daemon");
    let demo = demo_jobs();
    let build = |label: &str, chaos: u64, telemetry: &Telemetry| -> Result<Daemon, String> {
        let engine = EngineConfig {
            cores: SMOKE_THREADS,
            wave_slots: 2,
            pipeline: smoke_config(SMOKE_THREADS),
        };
        Ok(Daemon::new(DaemonConfig {
            engine,
            chaos_crash_after_waves: chaos,
            ..DaemonConfig::default()
        })
        .with_store(open_store(&scratch.join(label), telemetry)?)
        .with_telemetry(telemetry.clone()))
    };
    // The `Finished` frames of the `label` store's job journal.
    let finished_frames = |label: &str| {
        let frames = Store::open(&scratch.join(label))
            .and_then(|store| store.load_jobs())
            .map_err(|e| format!("{label} journal: {e}"))?;
        let finished = frames.into_iter().filter(|f| f.state == JobState::Finished);
        Ok::<_, String>(finished.collect::<Vec<_>>())
    };
    let submit_all = |daemon: &Daemon, label: &str| {
        for s in &demo {
            let response = daemon.handle_request(Request::Submit(s.clone()));
            if let Some(kind) = response.error_kind() {
                return Err(format!("{label} daemon refused '{}': {kind}", s.id));
            }
        }
        Ok(())
    };
    let drain = |daemon: &Daemon, label: &str| {
        let mut jobs = Vec::new();
        let epoch = || {
            daemon
                .run_next_epoch()
                .map_err(|e| format!("{label} epoch: {e}"))
        };
        while let Some((_, report)) = epoch()? {
            jobs.extend(report.jobs);
        }
        Ok::<_, String>(jobs)
    };

    // TCP leg: stream the demo over a real socket and drain it.
    let t_tcp = Instant::now();
    let tcp_daemon = Arc::new(build("live", 0, &Telemetry::enabled())?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(failed("bind"))?;
    let addr = listener.local_addr().map_err(failed("local addr"))?;
    std::thread::scope(|scope| -> Result<(), String> {
        let server = {
            let daemon = Arc::clone(&tcp_daemon);
            scope.spawn(move || daemon.serve(listener))
        };
        let stream = TcpStream::connect(addr).map_err(failed("connect"))?;
        let mut writer = stream.try_clone().map_err(failed("clone stream"))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut ask = |request: &str| -> Result<Value, String> {
            writeln!(writer, "{request}").map_err(failed("send"))?;
            line.clear();
            reader.read_line(&mut line).map_err(failed("read"))?;
            let value = Value::parse(line.trim())
                .map_err(|e| format!("bad response '{}': {e}", line.trim()))?;
            let ok = value.as_obj().map(|o| Value::field(o, "ok"));
            if matches!(ok, Some(Value::Bool(true))) {
                Ok(value)
            } else {
                Err(format!("refused: {}", line.trim()))
            }
        };
        for s in &demo {
            let job = s.to_value().to_json_string();
            ask(&format!(r#"{{"op":"submit","job":{job}}}"#))?;
        }
        loop {
            let status = ask(r#"{"op":"status"}"#)?;
            let finished = status.as_obj().map(|o| Value::field(o, "finished"));
            if matches!(finished, Some(Value::Num(n)) if *n as usize >= demo.len()) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        ask(r#"{"op":"shutdown"}"#)?;
        drop(writer);
        drop(reader);
        let served = server.join().map_err(|_| "server thread panicked")?;
        served.map_err(failed("serve"))
    })?;
    drop(tcp_daemon);
    let tcp_finished = finished_frames("live")?.len();
    if tcp_finished != demo.len() {
        return Err(format!(
            "TCP leg journaled {tcp_finished} Finished frames, expected {}",
            demo.len()
        ));
    }
    let tcp_wall = t_tcp.elapsed().as_secs_f64();

    // Kill/restart leg: deterministic single epoch, crash after wave 1.
    let t_recovery = Instant::now();
    let victim_tele = Telemetry::enabled();
    let victim = build("crash", 1, &victim_tele)?;
    submit_all(&victim, "victim")?;
    match victim.run_next_epoch() {
        Err(e) if e.contains("chaos") => {}
        other => return Err(format!("victim survived the chaos crash: {other:?}")),
    }
    drop(victim);

    let revived_tele = Telemetry::enabled();
    let revived = build("crash", 0, &revived_tele)?;
    let recovery = revived.recover().map_err(failed("recover"))?;
    if recovery.epochs_pending != 1 || recovery.jobs_replayed != 2 || recovery.jobs_resumed != 2 {
        return Err(format!(
            "unexpected recovery {recovery:?} (want 1 epoch, 2 replayed, 2 resumed)"
        ));
    }
    let revived_jobs = drain(&revived, "resumed")?;
    let recovery_wall = t_recovery.elapsed().as_secs_f64();

    // Reference: the same epoch on a daemon that was never killed.
    let calm_tele = Telemetry::enabled();
    let calm = build("calm", 0, &calm_tele)?;
    submit_all(&calm, "calm")?;
    let calm_jobs = drain(&calm, "calm")?;

    let crash_frames = finished_frames("crash")?;
    let replay = "daemon replay violation: kill + restart vs never-killed";
    for s in &demo {
        same_job(
            find_job(&revived_jobs, &s.id)?,
            find_job(&calm_jobs, &s.id)?,
            replay,
        )?;
        let frames = crash_frames.iter().filter(|f| f.job_id == s.id).count();
        if frames != 1 {
            return Err(format!(
                "daemon double-charge violation: job '{}' has {frames} Finished frames",
                s.id
            ));
        }
    }
    let charged = |jobs: &[JobResult]| jobs.iter().map(|j| j.em_seconds_charged).sum::<f64>();
    let calm_charged = charged(&calm_jobs);
    let recovered_charged = charged(&revived_jobs);
    if calm_charged.to_bits() != recovered_charged.to_bits() {
        return Err(format!(
            "daemon double-charge violation: recovered run charged {recovered_charged:.3}s \
             vs calm {calm_charged:.3}s"
        ));
    }

    for telemetry in [&victim_tele, &revived_tele, &calm_tele] {
        fold_counters(&ctx.main, &telemetry.run_report());
    }
    // Preserve the proven journal as a CI artifact before the scratch
    // directory goes away.
    let export = || -> std::io::Result<()> {
        std::fs::create_dir_all(&ctx.journal_dir)?;
        for entry in std::fs::read_dir(scratch.join("crash"))? {
            let entry = entry?;
            if entry.path().is_file() {
                std::fs::copy(entry.path(), ctx.journal_dir.join(entry.file_name()))?;
            }
        }
        Ok(())
    };
    export().map_err(failed("export journal"))?;
    std::fs::remove_dir_all(&scratch).ok();
    Ok(PhaseRun {
        wall_seconds: t0.elapsed().as_secs_f64(),
        summary: vec![
            ("tcp_wall_seconds", tcp_wall),
            ("tcp_jobs_finished", tcp_finished as f64),
            ("recovery_wall_seconds", recovery_wall),
            ("jobs_replayed", recovery.jobs_replayed as f64),
            ("jobs_resumed", recovery.jobs_resumed as f64),
            ("calm_em_charged_seconds", calm_charged),
            ("recovered_em_charged_seconds", recovered_charged),
            ("finished_frames", crash_frames.len() as f64),
        ],
    })
}

/// What the gate concluded from one measurement.
#[derive(Debug, Default)]
struct Verdict {
    /// Budget overruns; any one fails the gate.
    failures: Vec<String>,
    /// Within-budget lines for the log.
    notes: Vec<String>,
    /// Each measured phase's wall limit (budget x [`WALL_MARGIN`]), in the
    /// order of the measured walls.
    limits: Vec<f64>,
}

/// Compares the measured phase walls (named as in [`PHASES`]) and the
/// report's counters with `thresholds`. A thresholds file that disagrees
/// with the phases — one without a budget, a budget naming no phase, or a
/// phase budgeted twice — is an error, never a skipped check.
fn verdict(
    thresholds: &GateThresholds,
    walls: &[(&str, f64)],
    report: &RunReport,
) -> Result<Verdict, String> {
    if thresholds.schema_version != RunReport::SCHEMA_VERSION {
        return Err(format!(
            "threshold schema v{} != report schema v{} (run --update)",
            thresholds.schema_version,
            RunReport::SCHEMA_VERSION
        ));
    }
    if thresholds.seed != SMOKE_SEED {
        return Err(format!(
            "thresholds recorded at seed {} but the smoke run uses seed {SMOKE_SEED}",
            thresholds.seed
        ));
    }
    let budgets = &thresholds.wall_budgets;
    for (i, budget) in budgets.iter().enumerate() {
        let phase = &budget.phase;
        if !walls.iter().any(|(name, _)| name == phase) {
            return Err(format!(
                "thresholds budget phase '{phase}', which the gate does not run"
            ));
        }
        if budgets[..i].iter().any(|b| &b.phase == phase) {
            return Err(format!("thresholds budget phase '{phase}' twice"));
        }
    }

    let mut v = Verdict::default();
    for &(phase, wall) in walls {
        let budget = budgets
            .iter()
            .find(|b| b.phase == phase)
            .ok_or_else(|| format!("thresholds hold no wall budget for phase '{phase}'"))?;
        let limit = budget.max_seconds * WALL_MARGIN;
        if wall > limit {
            v.failures.push(format!(
                "{phase} wall-clock regression: {wall:.2}s > {limit:.2}s \
                 ({:.2}s budget x {WALL_MARGIN} margin)",
                budget.max_seconds
            ));
        } else {
            v.notes.push(format!(
                "{phase} wall-clock {wall:.2}s within {limit:.2}s limit"
            ));
        }
        v.limits.push(limit);
    }
    for budget in &thresholds.counters {
        let (name, value) = (&budget.name, budget.value);
        let measured = report.counter(name);
        if measured > value {
            v.failures.push(format!(
                "counter regression: {name} = {measured} > budget {value}"
            ));
        } else if measured < value {
            v.notes.push(format!(
                "note: {name} = {measured} under budget {value} (consider --update)"
            ));
        }
    }
    Ok(v)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn gate(
    thresholds_path: &str,
    out_path: &str,
    update: bool,
    use_cache: bool,
) -> Result<(), String> {
    let out = Path::new(out_path);
    let mut ctx = Ctx {
        main: Telemetry::enabled(),
        use_cache,
        journal_dir: out.with_file_name("daemon_journal"),
        smoke: Vec::new(),
    };
    let mut records = Vec::new();
    for &(phase, run) in PHASES {
        let measured = run(&mut ctx).map_err(|e| format!("{phase} phase: {e}"))?;
        let numbers = measured.summary.iter();
        let summary = Value::Obj(
            numbers
                .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                .collect(),
        );
        let (wall_seconds, json) = (measured.wall_seconds, summary.to_json_string());
        println!("bench_gate: {phase} phase passed in {wall_seconds:.3}s: {json}");
        records.push(PhaseRecord {
            phase,
            wall_seconds,
            limit_seconds: f64::NAN,
            summary,
        });
    }

    let [first, second] = &ctx.smoke[..] else {
        return Err("pipeline phase recorded no outcomes".into());
    };
    let mut report = ctx.main.run_report();
    report.task = TaskId::T1.to_string();
    report.space = "s1".to_string();
    report.seed = SMOKE_SEED;
    report.threads = SMOKE_THREADS;
    report.success = second.success;
    report.samples_seen = first.samples_seen + second.samples_seen;
    report.invalid_seen = first.invalid_seen + second.invalid_seen;
    report.algorithm_seconds = first.algorithm_seconds + second.algorithm_seconds;
    report.resolution = first.resolution.as_str().to_string();
    write_file(out, &report.to_json().map_err(|e| format!("{e:?}"))?)?;

    let walls: Vec<(&str, f64)> = records.iter().map(|r| (r.phase, r.wall_seconds)).collect();
    let thresholds = if update {
        let wall_budgets = walls.iter().map(|&(phase, wall)| WallBudget {
            phase: phase.to_string(),
            max_seconds: wall * WALL_UPDATE_HEADROOM,
        });
        let thresholds = GateThresholds {
            schema_version: RunReport::SCHEMA_VERSION,
            seed: SMOKE_SEED,
            wall_budgets: wall_budgets.collect(),
            counters: report.counters.clone(),
        };
        let json = serde_json::to_string(&thresholds).map_err(|e| format!("{e:?}"))?;
        write_file(Path::new(thresholds_path), &json)?;
        println!("bench_gate: wrote thresholds to {thresholds_path}");
        thresholds
    } else {
        let text = std::fs::read_to_string(thresholds_path)
            .map_err(|e| format!("{thresholds_path}: {e} (run with --update to create)"))?;
        serde_json::from_str(&text).map_err(|e| format!("{thresholds_path}: {e:?}"))?
    };
    let verdict = verdict(&thresholds, &walls, &report)?;
    for (record, &limit) in records.iter_mut().zip(&verdict.limits) {
        record.limit_seconds = limit;
    }
    let gate_path = out.with_file_name("BENCH_gate.json");
    let json = serde_json::to_string(&records).map_err(|e| format!("{e:?}"))?;
    write_file(&gate_path, &json)?;
    println!(
        "bench_gate: run report at {out_path}, phase records at {}",
        gate_path.display()
    );
    for note in &verdict.notes {
        println!("bench_gate: {note}");
    }
    if verdict.failures.is_empty() {
        println!(
            "bench_gate: OK ({} phase walls, {} counters checked)",
            walls.len(),
            thresholds.counters.len()
        );
        Ok(())
    } else {
        Err(verdict.failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut thresholds_path = "scripts/bench_thresholds.json".to_string();
    let mut out_path = "results/BENCH_ci.json".to_string();
    let (mut update, mut use_cache) = (false, true);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--no-cache" => use_cache = false,
            "--thresholds" | "--out" => match args.next() {
                Some(value) if arg == "--out" => out_path = value,
                Some(value) => thresholds_path = value,
                None => return usage(&arg),
            },
            _ => return usage(&arg),
        }
    }
    match gate(&thresholds_path, &out_path, update, use_cache) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_gate: FAIL\n{e}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects an unknown (or value-less) argument with the usage line.
fn usage(arg: &str) -> ExitCode {
    eprintln!("bench_gate: unknown argument '{arg}'");
    eprintln!("usage: bench_gate [--thresholds FILE] [--out FILE] [--update] [--no-cache]");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every phase budgeted at 1 s and `em.cache.misses` at 20.
    fn thresholds() -> GateThresholds {
        let budget = |&(phase, _): &Phase| WallBudget {
            phase: phase.to_string(),
            max_seconds: 1.0,
        };
        GateThresholds {
            schema_version: RunReport::SCHEMA_VERSION,
            seed: SMOKE_SEED,
            wall_budgets: PHASES.iter().map(budget).collect(),
            counters: report(20).counters,
        }
    }

    /// Every phase measured at `seconds`.
    fn walls(seconds: f64) -> Vec<(&'static str, f64)> {
        PHASES.iter().map(|&(phase, _)| (phase, seconds)).collect()
    }

    fn report(cache_misses: u64) -> RunReport {
        let name = "em.cache.misses".to_string();
        RunReport {
            counters: vec![CounterEntry {
                name,
                value: cache_misses,
            }],
            ..RunReport::empty()
        }
    }

    /// (a) Each phase over its budget fails the gate by name; at the
    /// budget (within the margin) every phase passes.
    #[test]
    fn phase_over_budget_fails_and_names_the_phase() {
        let at_budget = verdict(&thresholds(), &walls(1.05), &report(20)).unwrap();
        assert!(at_budget.failures.is_empty(), "{:?}", at_budget.failures);
        assert_eq!(at_budget.limits, vec![WALL_MARGIN; PHASES.len()]);
        for (i, &(phase, _)) in PHASES.iter().enumerate() {
            let mut measured = walls(0.5);
            measured[i].1 = 1.2;
            let v = verdict(&thresholds(), &measured, &report(20)).unwrap();
            let expected = format!("{phase} wall-clock regression");
            assert!(v.failures.len() == 1 && v.failures[0].starts_with(&expected));
        }
    }

    /// (b) A phase the thresholds do not budget is an error, not a skip.
    #[test]
    fn phase_without_a_budget_is_an_error() {
        for &(phase, _) in PHASES {
            let mut t = thresholds();
            t.wall_budgets.retain(|b| b.phase != phase);
            let err = verdict(&t, &walls(0.5), &report(20)).unwrap_err();
            assert!(err.contains(&format!("'{phase}'")), "{err}");
        }
    }

    /// (c) A budget for a phase the table lacks, or a phase budgeted
    /// twice, is an error.
    #[test]
    fn budget_for_an_unknown_or_repeated_phase_is_an_error() {
        let mut unknown = thresholds();
        unknown.wall_budgets[0].phase = "warp".into();
        let err = verdict(&unknown, &walls(0.5), &report(20)).unwrap_err();
        assert!(err.contains("'warp'"), "{err}");

        let mut repeated = thresholds();
        repeated.wall_budgets.push(repeated.wall_budgets[0].clone());
        assert!(verdict(&repeated, &walls(0.5), &report(20)).is_err());
    }

    /// (d) A counter over its budget fails the gate.
    #[test]
    fn counter_over_budget_fails() {
        let v = verdict(&thresholds(), &walls(0.5), &report(21)).unwrap();
        let expected = "counter regression: em.cache.misses = 21 > budget 20";
        assert_eq!(v.failures, vec![expected.to_string()]);
    }

    /// The checked-in thresholds budget every phase and every counter.
    #[test]
    fn checked_in_thresholds_match_the_phases() {
        let text = include_str!("../../../../scripts/bench_thresholds.json");
        let t: GateThresholds = serde_json::from_str(text).unwrap();
        let measured = RunReport {
            counters: t.counters.clone(),
            ..RunReport::empty()
        };
        let v = verdict(&t, &walls(0.0), &measured).unwrap();
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        let names: Vec<&str> = t.counters.iter().map(|c| c.name.as_str()).collect();
        let all: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, all);
    }
}
