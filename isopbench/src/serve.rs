//! `serve-fresh` and `serve-repeat`: the daemon on the production serving
//! path, driven over loopback NDJSON.
//!
//! The daemon is started in-process with `Daemon::serve` and driven by one
//! connection running a closed loop of bursts: each burst pipelines
//! [`WAVE_SLOTS`] submissions, then polls the aggregate `status` until all
//! of them are finished. One client keeps the load in phase with the
//! daemon's idle poll — a burst is sent right after an epoch ends, well
//! inside the scheduler's 20 ms idle sleep, so it lands in one epoch. Two
//! closed-loop clients lock to that sleep at a random phase, and an open
//! loop makes the queue depth (and so the tail) depend on the seed.
//!
//! `serve-fresh` submits only new designs with a fixed transient EM fault
//! rate, so the scheduler's retry path and the store's write path (every
//! wave flushes evaluations and journal frames) are on the clock.
//! `serve-repeat` has no faults; half of each burst resubmits designs a
//! previous daemon already verified, and set-up restarts the daemon over
//! that store, so the store's read path (hydration, cross-job hits) and
//! crash recovery are on the clock instead.

use crate::design::{check_quality, em_layers, hpo_layers};
use crate::metrics::Outcome;
use crate::trace::Layers;
use crate::{stats, sys, Run};
use isop::daemon::{Daemon, DaemonConfig};
use isop::engine::{EngineConfig, JobResult};
use isop::exec::Parallelism;
use isop::pipeline::DesignCandidate;
use isop_store::{JobState, Store};
use isop_telemetry::{Counter, CounterEntry, RunReport, SpanEntry, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs per burst, and per engine wave.
pub const WAVE_SLOTS: usize = 4;
/// Bursts per second of `--seconds`; the count is fixed per run so the
/// store grows identically in every run.
const BURSTS_PER_S: f64 = 4.5;
/// Sleep between `status` polls.
const POLL: Duration = Duration::from_millis(2);
/// Transient EM fault rate of every serve-fresh job.
const FAULT_RATE: f64 = 0.2;
/// Resubmitted designs per serve-repeat burst (a 50% repeat share).
const REPEATS_PER_BURST: usize = 2;
/// Quality floors and ceilings of a run's designs, about 20% beyond the
/// values at the revision this benchmark was written against: in a
/// 20-second run serve-fresh verifies 0.994 of its designs at 25.24
/// charged sim_s per design, serve-repeat 0.997 at 7.54 (every run submits
/// the same designs). A change that trades design quality or EM spend for
/// speed fails the run instead of reporting faster designs.
const FRESH_MIN_VERIFIED_FRAC: f64 = 0.8;
/// See [`FRESH_MIN_VERIFIED_FRAC`].
const FRESH_MAX_EM_SIM_S: f64 = 30.3;
/// See [`FRESH_MIN_VERIFIED_FRAC`].
const REPEAT_MIN_VERIFIED_FRAC: f64 = 0.8;
/// See [`FRESH_MIN_VERIFIED_FRAC`].
const REPEAT_MAX_EM_SIM_S: f64 = 9.05;
/// Jobs a first daemon verifies before serve-repeat's restart.
const PRIME_JOBS: usize = 16;
/// A burst that takes longer than this is a hung daemon.
const BURST_TIMEOUT: Duration = Duration::from_secs(120);
const TASKS: [&str; 4] = ["t1", "t2", "t3", "t4"];
/// Seed of the fixed stream every run draws its designs' pipeline seeds
/// from.
const DESIGN_SEED_STREAM: u64 = 0x150B_E7C4;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// New designs only, with transient EM faults.
    Fresh,
    /// Half of every burst repeats a design already in the store.
    Repeat,
}

/// One job the load generator submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique submission id.
    pub id: String,
    /// Task label.
    pub task: &'static str,
    /// Pipeline seed.
    pub seed: u64,
    /// Transient EM fault rate.
    pub fault_rate: f64,
    /// The primed job this one resubmits, if any.
    pub repeat_of: Option<String>,
}

impl Job {
    fn submit_line(&self) -> String {
        format!(
            r#"{{"op":"submit","job":{{"id":"{}","tenant":"bench","task":"{}","space":"s1","seed":{},"threads":1,"em_fault_rate":{}}}}}"#,
            self.id, self.task, self.seed, self.fault_rate
        )
    }
}

/// Everything a run submits, drawn from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Jobs verified by the first daemon before a serve-repeat restart.
    pub prime: Vec<Job>,
    /// One warm-up burst per set-up.
    pub warmups: Vec<Vec<Job>>,
    /// The measured bursts.
    pub bursts: Vec<Vec<Job>>,
}

/// Draws a run's jobs. Every run submits the same designs — pipeline seeds
/// come from a fixed stream, distinct within a run — so EM charges, faults
/// and verification outcomes repeat exactly; `seed` shuffles the order each
/// task's designs are requested in and picks which primed design each
/// serve-repeat slot resubmits. Every serve-fresh burst covers T1–T4, and
/// serve-repeat bursts pair two fresh designs with two repeats.
#[must_use]
pub fn plan(shape: Shape, seed: u64, bursts: usize) -> Plan {
    let mut fixed = StdRng::seed_from_u64(DESIGN_SEED_STREAM);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = BTreeSet::new();
    let fault_rate = match shape {
        Shape::Fresh => FAULT_RATE,
        Shape::Repeat => 0.0,
    };
    let mut fresh = |id: String, task: &'static str| loop {
        // Seeds stay far below 2^53: they cross the wire as JSON numbers.
        let s = u64::from(fixed.gen::<u32>());
        if used.insert(s) {
            break Job {
                id,
                task,
                seed: s,
                fault_rate,
                repeat_of: None,
            };
        }
    };
    let prime: Vec<Job> = match shape {
        Shape::Fresh => Vec::new(),
        Shape::Repeat => (0..PRIME_JOBS)
            .map(|i| fresh(format!("p{i}"), TASKS[i % 4]))
            .collect(),
    };
    let warmups = (0..crate::SETUPS)
        .map(|k| {
            (0..WAVE_SLOTS)
                .map(|i| fresh(format!("w{k}-{i}"), TASKS[i % 4]))
                .collect()
        })
        .collect();
    // Slot layout: the task of each fresh slot, or `None` for a repeat.
    let repeats = match shape {
        Shape::Fresh => 0,
        Shape::Repeat => REPEATS_PER_BURST,
    };
    let layout: Vec<Vec<Option<usize>>> = (0..bursts)
        .map(|k| {
            (0..WAVE_SLOTS)
                .map(|i| {
                    let fresh_slots = WAVE_SLOTS - repeats;
                    (i < fresh_slots).then_some((k * fresh_slots + i) % 4)
                })
                .collect()
        })
        .collect();
    // One lane of designs per task, drawn in a fixed order, then shuffled.
    let mut lanes: Vec<Vec<Job>> = (0..4)
        .map(|t| {
            let n = layout.iter().flatten().filter(|s| **s == Some(t)).count();
            let mut lane: Vec<Job> = (0..n).map(|_| fresh(String::new(), TASKS[t])).collect();
            lane.shuffle(&mut rng);
            lane
        })
        .collect();
    let bursts = layout
        .iter()
        .enumerate()
        .map(|(k, slots)| {
            slots
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    let id = format!("b{k}-{i}");
                    match slot {
                        Some(t) => Job {
                            id,
                            ..lanes[*t].pop().expect("lane sized to its slots")
                        },
                        None => {
                            let original = &prime[rng.gen_range(0..prime.len())];
                            Job {
                                id,
                                repeat_of: Some(original.id.clone()),
                                ..original.clone()
                            }
                        }
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        prime,
        warmups,
        bursts,
    }
}

fn daemon_config() -> DaemonConfig {
    let mut pipeline = isop_bench::isop_config();
    pipeline.parallelism = Parallelism::new(sys::nproc());
    DaemonConfig {
        engine: EngineConfig {
            cores: sys::nproc(),
            wave_slots: WAVE_SLOTS,
            pipeline,
        },
        ..DaemonConfig::default()
    }
}

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// One NDJSON connection to the daemon, with its round-trip timers.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Seconds from writing a burst to reading its last reply.
    pub submit_rtt_s: Vec<f64>,
    /// Seconds per `status` round trip.
    pub status_rtt_s: Vec<f64>,
    /// Seconds between consecutive `status` polls of one burst.
    pub poll_gap_s: Vec<f64>,
}

/// The aggregate `status` reply.
#[derive(Debug, Clone, Copy)]
struct Status {
    executing: bool,
    queued: u64,
    running: u64,
    finished: u64,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connection error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            submit_rtt_s: Vec::new(),
            status_rtt_s: Vec::new(),
            poll_gap_s: Vec::new(),
        })
    }

    fn read_reply(&mut self) -> io::Result<Value> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(err("daemon closed the connection"));
        }
        Value::parse(line.trim()).map_err(|e| err(format!("bad reply {line:?}: {e}")))
    }

    fn call(&mut self, line: &str) -> io::Result<Value> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read_reply()
    }

    /// Pipelines one submission per job in a single write, then reads the
    /// replies: the accepting epoch of each job, or the refusal.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn submit_burst(&mut self, jobs: &[Job]) -> io::Result<Vec<Result<u64, String>>> {
        let t0 = Instant::now();
        let lines: String = jobs.iter().map(|j| j.submit_line() + "\n").collect();
        self.writer.write_all(lines.as_bytes())?;
        let mut epochs = Vec::with_capacity(jobs.len());
        for _ in jobs {
            let reply = self.read_reply()?;
            let obj = reply.as_obj().unwrap_or_default();
            epochs.push(match Value::field(obj, "epoch") {
                Value::Num(e) if Value::field(obj, "ok") == &Value::Bool(true) => Ok(*e as u64),
                _ => Err(reply.to_json_string()),
            });
        }
        self.submit_rtt_s.push(t0.elapsed().as_secs_f64());
        Ok(epochs)
    }

    fn status(&mut self) -> io::Result<Status> {
        let t0 = Instant::now();
        let reply = self.call(r#"{"op":"status"}"#)?;
        self.status_rtt_s.push(t0.elapsed().as_secs_f64());
        let obj = reply
            .as_obj()
            .ok_or_else(|| err("status reply is not an object"))?;
        let count = |k: &str| match Value::field(obj, k) {
            Value::Num(n) => Ok(*n as u64),
            _ => Err(err(format!(
                "status reply lacks {k}: {}",
                reply.to_json_string()
            ))),
        };
        Ok(Status {
            executing: Value::field(obj, "executing") == &Value::Bool(true),
            queued: count("queued")?,
            running: count("running")?,
            finished: count("finished")?,
        })
    }

    /// Submits a burst and polls until the daemon is idle with every
    /// accepted job finished.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, and fails a burst that outlives
    /// [`BURST_TIMEOUT`].
    pub fn run_burst(&mut self, jobs: &[Job], finished: &mut u64) -> io::Result<Burst> {
        let t0 = Instant::now();
        let epochs = self.submit_burst(jobs)?;
        let accepted = epochs.iter().filter(|e| e.is_ok()).count() as u64;
        let target = *finished + accepted;
        let mut started = None;
        let mut last_poll: Option<Instant> = None;
        loop {
            std::thread::sleep(POLL);
            let now = Instant::now();
            if let Some(prev) = last_poll {
                self.poll_gap_s.push((now - prev).as_secs_f64());
            }
            last_poll = Some(now);
            let st = self.status()?;
            if st.executing && started.is_none() {
                started = Some(now);
            }
            if st.finished >= target && !st.executing && st.queued == 0 && st.running == 0 {
                break;
            }
            if t0.elapsed() > BURST_TIMEOUT {
                return Err(err(format!("burst not finished after {BURST_TIMEOUT:?}")));
            }
        }
        let done = Instant::now();
        let started = started.unwrap_or(done);
        *finished = target;
        Ok(Burst {
            latency_s: (done - t0).as_secs_f64(),
            queue_wait_s: (started - t0).as_secs_f64(),
            run_s: (done - started).as_secs_f64(),
            epochs,
        })
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.call(r#"{"op":"shutdown"}"#).map(drop)
    }
}

/// One measured burst.
#[derive(Debug, Clone)]
pub struct Burst {
    /// Request to EM-verified result, the same for every job of the burst.
    pub latency_s: f64,
    /// Request until the daemon was first seen executing.
    pub queue_wait_s: f64,
    /// First seen executing until seen finished.
    pub run_s: f64,
    /// Accepting epoch per job, or the refusal.
    pub epochs: Vec<Result<u64, String>>,
}

/// A daemon serving on loopback from its own thread.
pub struct Server {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// Opens the store in `dir`, optionally replays its journal, and starts
/// serving. Returns the server with the seconds spent in `Store::open` and
/// `Daemon::recover`.
///
/// # Errors
///
/// Propagates store, journal and socket errors.
pub fn start(
    dir: &Path,
    recover: bool,
    telemetry: &Telemetry,
    config: DaemonConfig,
) -> io::Result<(Server, f64, f64)> {
    let t0 = Instant::now();
    let store = Arc::new(Store::open(dir)?.with_telemetry(telemetry.clone()));
    let open_s = t0.elapsed().as_secs_f64();
    let daemon = Arc::new(
        Daemon::new(config)
            .with_store(store)
            .with_telemetry(telemetry.clone()),
    );
    let t1 = Instant::now();
    if recover {
        daemon.recover().map_err(err)?;
    }
    let recover_s = t1.elapsed().as_secs_f64();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || daemon.serve(listener));
    Ok((Server { addr, thread }, open_s, recover_s))
}

impl Server {
    /// Shuts the daemon down through `client` and waits for its threads.
    ///
    /// # Errors
    ///
    /// Propagates the shutdown request's error or the daemon's.
    pub fn stop(self, client: Client) -> io::Result<()> {
        client.shutdown()?;
        self.thread
            .join()
            .map_err(|_| err("daemon thread panicked"))?
    }
}

/// Verifies the primed jobs with a daemon driven in-process, so a later
/// daemon can restart over their journal and evaluations.
fn prime(dir: &Path, jobs: &[Job]) -> io::Result<()> {
    let store = Arc::new(Store::open(dir)?);
    let daemon = Daemon::new(daemon_config()).with_store(Arc::clone(&store));
    for job in jobs {
        let reply = daemon.handle_line(&job.submit_line());
        if let Some(kind) = reply.error_kind() {
            return Err(err(format!("priming {} refused: {kind}", job.id)));
        }
    }
    while daemon.run_next_epoch().map_err(err)?.is_some() {}
    store.flush()?;
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Finished results in a store's journal, by job id.
fn finished_jobs(dir: &Path) -> io::Result<BTreeMap<String, JobResult>> {
    let mut out = BTreeMap::new();
    for frame in Store::open(dir)?.load_jobs()? {
        if frame.state == JobState::Finished {
            let result = JobResult::from_value(&frame.payload)
                .map_err(|e| err(format!("journal result {}: {e}", frame.job_id)))?;
            out.insert(frame.job_id, result);
        }
    }
    Ok(out)
}

/// Candidates equal bit for bit (so `-0.0` and `0.0`, or two NaNs, are
/// told apart correctly).
#[must_use]
pub fn same_candidates(a: &[DesignCandidate], b: &[DesignCandidate]) -> bool {
    let bits = |c: &DesignCandidate| {
        let mut v: Vec<u64> = c.values.iter().map(|x| x.to_bits()).collect();
        v.extend(c.predicted.iter().map(|x| x.to_bits()));
        v.extend(
            c.simulated
                .map_or([f64::NAN; 3], |s| s.to_array())
                .iter()
                .map(|x| x.to_bits()),
        );
        v.push(c.g_exact.to_bits());
        v.push(u64::from(c.attempts));
        v.push(u64::from(c.simulated.is_some()));
        v
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Sums the counters and spans of many per-job reports.
fn merge(reports: &[&RunReport]) -> RunReport {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut spans: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for r in reports {
        for c in &r.counters {
            *counters.entry(c.name.clone()).or_default() += c.value;
        }
        for s in &r.spans {
            let e = spans.entry(s.name.clone()).or_default();
            e.0 += s.count;
            e.1 += s.total_seconds;
        }
    }
    let mut merged = RunReport::empty();
    merged.counters = counters
        .into_iter()
        .map(|(name, value)| CounterEntry { name, value })
        .collect();
    merged.spans = spans
        .into_iter()
        .map(|(name, (count, total))| SpanEntry {
            name,
            count,
            total_seconds: total,
            min_seconds: 0.0,
            max_seconds: 0.0,
        })
        .collect();
    merged
}

/// One pass of the workload: set-ups, measured bursts, journal read-back.
struct Pass {
    setup_s: Vec<f64>,
    open_s: Vec<f64>,
    recover_s: Vec<f64>,
    bursts: Vec<Burst>,
    wall_s: f64,
    cpu_s: f64,
    results: BTreeMap<String, JobResult>,
    records_written: u64,
    bytes_written: u64,
    cross_job_hits: u64,
    epochs: u64,
    waves: u64,
    submit_rtt_s: Vec<f64>,
    status_rtt_s: Vec<f64>,
    poll_gap_s: Vec<f64>,
}

fn pass(shape: Shape, plan: &Plan, work: &Path, telemetry: &Telemetry) -> io::Result<Pass> {
    let prime_dir = work.join("prime");
    if shape == Shape::Repeat {
        prime(&prime_dir, &plan.prime)?;
    }
    let mut setup_s = Vec::new();
    let mut open_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut live = None;
    for (k, warmup) in plan.warmups.iter().enumerate() {
        let dir = work.join(format!("setup-{k}"));
        if shape == Shape::Repeat {
            copy_dir(&prime_dir, &dir)?;
        }
        let t0 = Instant::now();
        let (server, open, recover) =
            start(&dir, shape == Shape::Repeat, telemetry, daemon_config())?;
        let mut client = Client::connect(server.addr)?;
        let mut finished = plan.prime.len() as u64;
        let warm = client.run_burst(warmup, &mut finished)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        open_s.push(open);
        recover_s.push(recover);
        if warm.epochs.iter().any(Result::is_err) {
            return Err(err(format!("warm-up refused: {:?}", warm.epochs)));
        }
        if k + 1 < plan.warmups.len() {
            server.stop(client)?;
        } else {
            live = Some((server, client, finished, dir));
        }
    }
    let (server, mut client, mut finished, dir) = live.expect("at least one set-up");
    client.submit_rtt_s.clear();
    client.status_rtt_s.clear();
    client.poll_gap_s.clear();

    let records0 = telemetry.counter(Counter::StoreRecordsWritten);
    let hits0 = telemetry.counter(Counter::StoreCrossJobHits);
    let epochs0 = telemetry.counter(Counter::DaemonEpochs);
    let waves0 = telemetry.counter(Counter::EngineWaves);
    let bytes0 = sys::dir_bytes(&dir);
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut bursts = Vec::with_capacity(plan.bursts.len());
    for jobs in &plan.bursts {
        bursts.push(client.run_burst(jobs, &mut finished)?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let bytes_written = sys::dir_bytes(&dir).saturating_sub(bytes0);
    let submit_rtt_s = std::mem::take(&mut client.submit_rtt_s);
    let status_rtt_s = std::mem::take(&mut client.status_rtt_s);
    let poll_gap_s = std::mem::take(&mut client.poll_gap_s);
    server.stop(client)?;
    Ok(Pass {
        setup_s,
        open_s,
        recover_s,
        bursts,
        wall_s,
        cpu_s,
        results: finished_jobs(&dir)?,
        records_written: telemetry.counter(Counter::StoreRecordsWritten) - records0,
        bytes_written,
        cross_job_hits: telemetry.counter(Counter::StoreCrossJobHits) - hits0,
        epochs: telemetry.counter(Counter::DaemonEpochs) - epochs0,
        waves: telemetry.counter(Counter::EngineWaves) - waves0,
        submit_rtt_s,
        status_rtt_s,
        poll_gap_s,
    })
}

/// Checks every measured job of a pass; returns `(designs, failed)`.
fn check(out: &mut Outcome, plan: &Plan, pass: &Pass) -> (u64, u64) {
    let mut failed = 0;
    let mut designs = 0;
    for (jobs, burst) in plan.bursts.iter().zip(&pass.bursts) {
        for (job, epoch) in jobs.iter().zip(&burst.epochs) {
            designs += 1;
            if let Err(refusal) = epoch {
                failed += 1;
                out.check(false, || format!("{} refused: {refusal}", job.id));
                continue;
            }
            let Some(r) = pass.results.get(&job.id) else {
                failed += 1;
                out.check(false, || {
                    format!("{} has no Finished journal frame", job.id)
                });
                continue;
            };
            let mut ok = r.disposition == "completed";
            out.check(ok, || format!("{} ended {}", job.id, r.disposition));
            let verified =
                !r.candidates.is_empty() && r.candidates.iter().all(|c| c.simulated.is_some());
            out.check(verified, || {
                format!("{}: a candidate lacks an EM result", job.id)
            });
            ok &= verified;
            if let Some(id) = &job.repeat_of {
                let Some(original) = pass.results.get(id) else {
                    failed += 1;
                    out.check(false, || {
                        format!("{}: original {id} not in the journal", job.id)
                    });
                    continue;
                };
                let same = same_candidates(&original.candidates, &r.candidates);
                // The original's charged EM moves to the repeat's saved
                // ledger. (The original's own saved seconds need not carry
                // over: see the README's findings.)
                let moved = r.em_seconds_charged == 0.0
                    && r.em_seconds_saved == original.em_seconds_charged;
                out.check(same && moved, || {
                    format!(
                        "{} does not replay {} (same candidates {same}, charged {} saved {}, \
                         original charged {})",
                        job.id,
                        original.id,
                        r.em_seconds_charged,
                        r.em_seconds_saved,
                        original.em_seconds_charged,
                    )
                });
                ok &= same && moved;
            }
            if !ok {
                failed += 1;
            }
        }
    }
    (designs, failed)
}

/// Each accepted job's epoch relative to the burst's first epoch (all zero
/// when the burst landed in one epoch); refused jobs read `u64::MAX`.
fn epoch_shape(burst: &Burst) -> Vec<u64> {
    let first = burst.epochs.iter().flatten().min().copied().unwrap_or(0);
    burst
        .epochs
        .iter()
        .map(|e| e.as_ref().map_or(u64::MAX, |e| e - first))
        .collect()
}

fn measured<'a>(plan: &'a Plan, pass: &'a Pass) -> impl Iterator<Item = &'a JobResult> {
    plan.bursts
        .iter()
        .flatten()
        .filter_map(|j| pass.results.get(&j.id))
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates daemon, store and socket errors: any of them means the run
/// measured nothing.
pub fn run(run: &Run, shape: Shape) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let plan = plan(shape, run.seed, run.ops(BURSTS_PER_S));
    let plain = pass(
        shape,
        &plan,
        &run.work.join("plain"),
        &Telemetry::disabled(),
    )?;
    let (designs, failed) = check(&mut out, &plan, &plain);
    out.attempted = designs;
    out.failed = failed;
    let latency: Vec<f64> = plain
        .bursts
        .iter()
        .flat_map(|b| std::iter::repeat_n(b.latency_s, b.epochs.len()))
        .collect();
    let n = designs as f64;
    let jobs: Vec<&JobResult> = measured(&plan, &plain).collect();
    let reports: Vec<&RunReport> = jobs.iter().map(|j| &j.report).collect();
    let merged = merge(&reports);
    let hits = merged.counter(Counter::EmCacheHits.name()) as f64;
    let misses = merged.counter(Counter::EmCacheMisses.name()) as f64;
    let hit_share = hits / (hits + misses).max(1.0);
    let split = plain
        .bursts
        .iter()
        .filter(|b| epoch_shape(b).iter().any(|&e| e != 0))
        .count();

    let em = jobs.iter().map(|j| j.em_seconds_charged).sum::<f64>() / n;
    let verified = jobs.iter().filter(|j| j.success).count() as f64 / n;
    out.note("em_sim_s_per_design", Value::Num(em));
    out.note("verified_frac", Value::Num(verified));
    let (min_verified, max_em) = match shape {
        Shape::Fresh => (FRESH_MIN_VERIFIED_FRAC, FRESH_MAX_EM_SIM_S),
        Shape::Repeat => (REPEAT_MIN_VERIFIED_FRAC, REPEAT_MAX_EM_SIM_S),
    };
    check_quality(&mut out, verified, min_verified, em, max_em);

    if !run.trace {
        out.push_end_to_end(&plain.setup_s, &latency, plain.wall_s, plain.cpu_s);
        out.note("bursts", Value::Num(plan.bursts.len() as f64));
        out.note("wave_slots", Value::Num(WAVE_SLOTS as f64));
        out.note("hit_share", Value::Num(hit_share));
        out.note(
            "repeat_share",
            Value::Num(
                plan.bursts
                    .iter()
                    .flatten()
                    .filter(|j| j.repeat_of.is_some())
                    .count() as f64
                    / n,
            ),
        );
        out.note("em_fault_rate", Value::Num(plan.bursts[0][0].fault_rate));
        out.note("split_bursts", Value::Num(split as f64));
        return Ok(out);
    }

    let telemetry = Telemetry::enabled();
    let traced = pass(shape, &plan, &run.work.join("traced"), &telemetry)?;
    let (designs, failed) = check(&mut out, &plan, &traced);
    out.attempted += designs;
    out.failed += failed;
    // Candidates never depend on the cache, so they must match everywhere.
    // Ledgers depend on which jobs share an epoch, so they must match for
    // every burst that landed in the same epochs in both runs; the store
    // holds the same evaluations after each burst either way.
    for ((jobs, a_burst), b_burst) in plan.bursts.iter().zip(&plain.bursts).zip(&traced.bursts) {
        let same_epochs = epoch_shape(a_burst) == epoch_shape(b_burst);
        for job in jobs {
            let same = match (plain.results.get(&job.id), traced.results.get(&job.id)) {
                (Some(a), Some(b)) => {
                    same_candidates(&a.candidates, &b.candidates)
                        && a.success == b.success
                        && a.disposition == b.disposition
                        && (!same_epochs
                            || (a.em_seconds_charged.to_bits() == b.em_seconds_charged.to_bits()
                                && a.em_seconds_saved.to_bits() == b.em_seconds_saved.to_bits()))
                }
                _ => false,
            };
            out.check(same, || {
                format!("{}: traced and untraced results differ", job.id)
            });
        }
    }
    let p50 = stats::median(
        &traced
            .bursts
            .iter()
            .map(|b| b.latency_s)
            .collect::<Vec<_>>(),
    );
    let plain_p50 = stats::median(&plain.bursts.iter().map(|b| b.latency_s).collect::<Vec<_>>());
    let traced_jobs: Vec<&RunReport> = measured(&plan, &traced).map(|j| &j.report).collect();
    let report = merge(&traced_jobs);
    let n_bursts = plan.bursts.len() as f64;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let cpu_per_design = traced.cpu_s / n;
    let mut layer = Layers::new(
        &mut out,
        cpu_per_design,
        p50,
        stats::median(&traced.setup_s),
    );
    hpo_layers(&mut layer, &report, n);
    let sim = report.span("em.simulate");
    layer.value("em.simulate_calls", sim.map_or(0.0, |s| s.count as f64) / n);
    layer.work(
        "em.simulate_share",
        sim.map_or(0.0, |s| s.total_seconds) / n,
    );
    em_layers(&mut layer, &report, n);
    // Jobs run side by side, so pipeline stages are work, not wall, here.
    // `prepare` is the global and the local stage; `finalize` has no span.
    let local_s = report.span_seconds("pipeline.local");
    layer.work(
        "pipeline.prepare_share",
        (report.span_seconds("pipeline.global") + local_s) / n,
    );
    layer.work("pipeline.local_share", local_s / n);
    layer.work(
        "pipeline.rollout_share",
        report.span_seconds("pipeline.rollout") / n,
    );
    layer.value(
        "pipeline.adam_steps",
        report.counter(Counter::AdamSteps.name()) as f64 / n,
    );
    layer.once("store.open_share", stats::median(&traced.open_s));
    if shape == Shape::Repeat {
        layer.once("daemon.recover_share", stats::median(&traced.recover_s));
    }
    layer.value("store.records_written", traced.records_written as f64 / n);
    layer.value(
        "store.bytes_per_record",
        traced.bytes_written as f64 / traced.records_written.max(1) as f64,
    );
    let hits = report.counter(Counter::EmCacheHits.name()) as f64;
    let misses = report.counter(Counter::EmCacheMisses.name()) as f64;
    layer.value("store.cache_hit_ratio", hits / (hits + misses).max(1.0));
    layer.value("store.cross_job_hits", traced.cross_job_hits as f64 / n);
    layer.wall(
        "daemon.submit_rtt_share",
        stats::median(&traced.submit_rtt_s),
    );
    layer.wall(
        "daemon.status_rtt_share",
        stats::median(&traced.status_rtt_s),
    );
    let waits: Vec<f64> = traced.bursts.iter().map(|b| b.queue_wait_s).collect();
    layer.wall("daemon.queue_wait_share", stats::median(&waits));
    let runs: Vec<f64> = traced.bursts.iter().map(|b| b.run_s).collect();
    layer.wall("daemon.run_share", stats::median(&runs));
    layer.value("daemon.epochs", traced.epochs as f64 / n_bursts);
    layer.value("daemon.jobs_per_epoch", n / traced.epochs.max(1) as f64);
    layer.value("engine.waves", traced.waves as f64 / n_bursts);
    layer.value(
        "exec.cpu_util",
        traced.cpu_s / (traced.wall_s * sys::nproc() as f64),
    );
    layer.value("telemetry.overhead_frac", p50 / plain_p50 - 1.0);
    let gap = traced.poll_gap_s.iter().sum::<f64>() / traced.poll_gap_s.len().max(1) as f64;
    layer.wall("loadgen.poll_interval_share", gap);
    layer.value("loadgen.failed_frac", failed_frac);
    layer.finish();
    out.note("hit_share", Value::Num(hit_share));
    out.note("split_bursts", Value::Num(split as f64));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_tasks_and_repeat_picks() {
        for shape in [Shape::Fresh, Shape::Repeat] {
            let a = plan(shape, 7, 12);
            assert_eq!(a, plan(shape, 7, 12), "{shape:?}");
            assert_ne!(a, plan(shape, 8, 12), "{shape:?}");
            let seeds: BTreeSet<u64> = a
                .prime
                .iter()
                .chain(a.warmups.iter().flatten())
                .chain(a.bursts.iter().flatten().filter(|j| j.repeat_of.is_none()))
                .map(|j| j.seed)
                .collect();
            let fresh = a.prime.len()
                + a.warmups.iter().flatten().count()
                + a.bursts
                    .iter()
                    .flatten()
                    .filter(|j| j.repeat_of.is_none())
                    .count();
            assert_eq!(seeds.len(), fresh, "fresh designs never share a seed");
            let designs = |p: &Plan| {
                let mut v: Vec<(&str, u64)> = p
                    .bursts
                    .iter()
                    .flatten()
                    .map(|j| (j.task, j.seed))
                    .collect();
                v.sort_unstable();
                v
            };
            let other = plan(shape, 8, 12);
            if shape == Shape::Fresh {
                assert_eq!(
                    designs(&a),
                    designs(&other),
                    "every run submits the same designs"
                );
            }
            let fresh_of = |p: &Plan| {
                let mut v: Vec<u64> = p
                    .bursts
                    .iter()
                    .flatten()
                    .filter(|j| j.repeat_of.is_none())
                    .map(|j| j.seed)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(fresh_of(&a), fresh_of(&other), "{shape:?}");
            assert_eq!(a.prime, other.prime, "{shape:?}");
        }
        let r = plan(Shape::Repeat, 7, 12);
        for burst in &r.bursts {
            let repeats: Vec<&Job> = burst.iter().filter(|j| j.repeat_of.is_some()).collect();
            assert_eq!(repeats.len(), REPEATS_PER_BURST);
            for j in repeats {
                let original = r
                    .prime
                    .iter()
                    .find(|p| Some(&p.id) == j.repeat_of.as_ref())
                    .expect("repeats pick primed jobs");
                assert_eq!((j.task, j.seed), (original.task, original.seed));
            }
        }
        let f = plan(Shape::Fresh, 7, 12);
        for burst in &f.bursts {
            let mut tasks: Vec<&str> = burst.iter().map(|j| j.task).collect();
            tasks.sort_unstable();
            assert_eq!(tasks, TASKS, "each fresh burst covers T1-T4");
            assert!(burst.iter().all(|j| j.fault_rate == FAULT_RATE));
        }
    }

    #[test]
    fn pipelined_burst_lands_in_one_epoch() {
        let dir = std::env::temp_dir().join(format!("isopbench-burst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (server, _, _) =
            start(&dir, false, &Telemetry::disabled(), daemon_config()).expect("start daemon");
        let mut client = Client::connect(server.addr).expect("connect");
        let p = plan(Shape::Fresh, 3, 3);
        let mut finished = 0;
        let mut last = None;
        for burst in p.warmups.iter().take(1).chain(&p.bursts) {
            let b = client.run_burst(burst, &mut finished).expect("burst");
            let epochs: Vec<u64> = b
                .epochs
                .iter()
                .map(|e| *e.as_ref().expect("accepted"))
                .collect();
            assert!(
                epochs.windows(2).all(|w| w[0] == w[1]),
                "burst split: {epochs:?}"
            );
            assert!(
                last.is_none_or(|l| epochs[0] > l),
                "each burst gets a new epoch"
            );
            last = Some(epochs[0]);
        }
        assert_eq!(finished, 4 * WAVE_SLOTS as u64);
        server.stop(client).expect("stop daemon");
        let results = finished_jobs(&dir).expect("journal");
        assert_eq!(results.len(), 4 * WAVE_SLOTS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
