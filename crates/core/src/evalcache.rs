//! Deterministic evaluation caches for the expensive halves of the pipeline.
//!
//! ISOP's premise is that accurate EM simulation is the scarce resource; yet
//! the pipeline keeps re-evaluating *identical discrete designs* — roll-out
//! rounds every refined candidate back onto the manufacturing grid, repeated
//! trials revisit the same optima, and the ablation variants of one task all
//! converge on the same handful of grid points. Two caches remove the
//! duplicate work without changing a single bit of any outcome:
//!
//! * [`EvalCache`] — a thread-safe EM-result cache keyed by [`DesignKey`],
//!   the **canonical discrete grid indices** of a design (never raw floats:
//!   two values a rounding error apart would silently be distinct keys,
//!   while two grids can produce bit-different floats for the same level).
//!   Hits replay the exact stored [`SimulationResult`] (and the attempt
//!   count of the original evaluation, via [`CachedSim`]), tick the same
//!   simulator counters a real run would, and move the batch wall-clock into
//!   the *seconds-saved* ledger instead of the charged one. Only **final
//!   successes** are cached; a hit bypasses the fault-tolerant retry path
//!   entirely, so retry counters and backoff charges never replay. An
//!   optional JSON spill (`results/em_cache.json`) lets the table VII/VIII
//!   ablation bins reuse simulations across variants of the same task.
//! * [`SurrogateMemo`] + [`MemoizedSurrogate`] — a sibling memo for repeated
//!   designs inside Harmonica's adaptive-reweighting loop. It stores the
//!   surrogate's *metrics* (`[Z, L, NEXT]`), never the weighted objective
//!   `g_hat`, so adaptive weight updates between stages stay exact.
//!
//! Both caches are **seed-independent** (keys never involve RNG state) and
//! purely eliding: a lookup either returns the bit-exact value the
//! computation would produce or falls through to the computation. A
//! *disabled* cache still counts every probe as a miss — that is what lets
//! the CI bench gate fail when the cache is turned off (miss count over
//! budget) rather than silently passing with zeroed counters.

use crate::params::ParamSpace;
use crate::surrogate::Surrogate;
use isop_em::simulator::SimulationResult;
use isop_ml::linalg::Matrix;
use isop_ml::MlError;
use isop_store::{EvalRecord, Store};
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The canonical identity of a discrete design: one grid level per
/// parameter plus a fingerprint of the space that defined the grid.
///
/// Keys are grid *indices*, not floats — `level_of` collapses every
/// float that rounds to the same grid point onto one key, and the space
/// fingerprint keeps level `3` of `S1` distinct from level `3` of `S2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignKey {
    /// Fingerprint of the defining [`ParamSpace`] (FNV-1a over every
    /// parameter's name and grid, masked to 48 bits so it survives a
    /// JSON round-trip through an `f64` mantissa).
    pub space_id: u64,
    /// Grid level of each parameter, in space order.
    pub levels: Vec<u32>,
}

/// Fingerprints a space: FNV-1a over each parameter's name bytes and the
/// bit patterns of its `lo`/`hi`/`step`.
fn space_fingerprint(space: &ParamSpace) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for p in space.params() {
        for b in p.name.bytes() {
            eat(b);
        }
        for v in [p.lo, p.hi, p.step] {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        eat(0xFF); // parameter separator
    }
    h & ((1u64 << 48) - 1)
}

/// A cached accurate simulation: the final successful result plus the
/// attempt count the fresh run needed to obtain it.
///
/// Only **final successes** ever enter the cache — transiently failed
/// attempts are never stored, and a hit bypasses the retry path entirely
/// (no retry counters tick, no backoff is charged). The stored `attempts`
/// exist so a warm run can replay the candidate's attempt count
/// bit-exactly and produce candidates identical to the cold run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedSim {
    /// The successful simulation.
    pub result: SimulationResult,
    /// Attempts the original (uncached) evaluation took, including the
    /// final successful one.
    pub attempts: u32,
}

/// Outcome of one [`EvalCache::probe`]: the design's key (when it sits on
/// the grid) and the cached result, if any.
#[derive(Debug, Clone)]
pub struct CacheProbe {
    /// Canonical key, `None` when any coordinate falls off the grid span
    /// (such designs are never cached — the simulator rejects them anyway).
    pub key: Option<DesignKey>,
    /// The stored simulation, present only on a hit.
    pub hit: Option<CachedSim>,
}

/// One entry of the JSON spill file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SpillEntry {
    space_id: u64,
    levels: Vec<u32>,
    result: SimulationResult,
    attempts: u32,
}

/// On-disk shape of the spill (`results/em_cache.json`).
#[derive(Debug, Serialize, Deserialize)]
struct SpillFile {
    schema_version: u32,
    entries: Vec<SpillEntry>,
}

/// v2: entries carry the attempt count of the original evaluation.
const SPILL_SCHEMA_VERSION: u32 = 2;

/// Where a cached entry came from: this process (`Local`) or a
/// persistent-store record written by a previous one (`CrossJob`). Hits on
/// `CrossJob` entries are the cross-run reuse the store accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Local,
    CrossJob,
}

/// Shared state behind an enabled [`EvalCache`] handle.
#[derive(Debug)]
struct CacheInner {
    map: Mutex<HashMap<DesignKey, (CachedSim, Origin)>>,
    /// Set on `insert`, cleared on save/load — a warm [`EvalCache::save_json`]
    /// with no new entries skips the disk entirely.
    dirty: AtomicBool,
    /// The persistent backing store, when attached.
    store: Option<Arc<Store>>,
    /// Space fingerprints already hydrated from the store (each shard read
    /// happens at most once per space per cache).
    hydrated: Mutex<HashSet<u64>>,
}

/// A thread-safe, seed-independent cache of accurate EM results keyed by
/// [`DesignKey`]. Clones share one store; the default/`disabled` handle
/// stores nothing and reports every probe as a miss.
///
/// With a persistent [`Store`] attached ([`EvalCache::with_store`]), probes
/// lazily hydrate the probed space's shard, hits served from a previous
/// process's records are reported to the store's cross-job ledger, and
/// inserts are mirrored into the store's append buffer (persisted by
/// [`EvalCache::persist`]).
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    inner: Option<Arc<CacheInner>>,
}

impl EvalCache {
    /// An empty, collecting cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(CacheInner {
                map: Mutex::new(HashMap::new()),
                dirty: AtomicBool::new(false),
                store: None,
                hydrated: Mutex::new(HashSet::new()),
            })),
        }
    }

    /// An empty cache backed by the persistent `store`: probes hydrate
    /// per-space from its shards and inserts append to it.
    #[must_use]
    pub fn with_store(store: Arc<Store>) -> Self {
        Self {
            inner: Some(Arc::new(CacheInner {
                map: Mutex::new(HashMap::new()),
                dirty: AtomicBool::new(false),
                store: Some(store),
                hydrated: Mutex::new(HashSet::new()),
            })),
        }
    }

    /// A pass-through handle: never stores, never hits, counts every probe
    /// as a miss (same as `EvalCache::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle can store and serve results.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.inner.as_ref().and_then(|i| i.store.as_ref())
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.map.lock().expect("eval cache lock").len())
    }

    /// `true` when nothing is cached (always for a disabled handle).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical key for `values` in `space`, or `None` when any
    /// coordinate falls outside its grid span.
    #[must_use]
    pub fn key_for(space: &ParamSpace, values: &[f64]) -> Option<DesignKey> {
        if values.len() != space.params().len() {
            return None;
        }
        let mut levels = Vec::with_capacity(values.len());
        for (p, &v) in space.params().iter().zip(values) {
            levels.push(u32::try_from(p.level_of(v).ok()?).ok()?);
        }
        Some(DesignKey {
            space_id: space_fingerprint(space),
            levels,
        })
    }

    /// Merges the persistent store's records for `space_id` into the map
    /// (insert-if-absent, tagged [`Origin::CrossJob`]); at most one shard
    /// read per space per cache. Store read errors degrade to "no stored
    /// entries" — corruption is already skip-counted inside the store.
    fn hydrate(inner: &CacheInner, space_id: u64) {
        let Some(store) = &inner.store else { return };
        let mut hydrated = inner.hydrated.lock().expect("hydration lock");
        if !hydrated.insert(space_id) {
            return;
        }
        let Ok(records) = store.load_evals(space_id) else {
            return;
        };
        let mut map = inner.map.lock().expect("eval cache lock");
        for rec in records {
            let [z_diff, insertion_loss, next] = rec.metrics;
            map.entry(DesignKey {
                space_id: rec.space_id,
                levels: rec.levels,
            })
            .or_insert((
                CachedSim {
                    result: SimulationResult {
                        z_diff,
                        insertion_loss,
                        next,
                    },
                    attempts: rec.attempts,
                },
                Origin::CrossJob,
            ));
        }
    }

    /// Eagerly merges the persistent store's records for `space` into the
    /// map, exactly as the first probe of that space would. No-op without a
    /// store, and at most one store read per space per cache either way.
    ///
    /// This is the multi-job engine's determinism hook: because
    /// [`Store::load_evals`] also surfaces *pending* (unflushed) appends,
    /// lazily hydrating mid-run while a concurrent neighbor appends to the
    /// shared store would make a job's cache contents timing-dependent.
    /// Calling this at the engine's **serial admission point** freezes the
    /// job's view of the store before any neighbor runs; the `hydrated`
    /// guard then keeps the cache from ever re-reading the store mid-run.
    pub fn hydrate_space(&self, space: &ParamSpace) {
        if let Some(inner) = &self.inner {
            Self::hydrate(inner, space_fingerprint(space));
        }
    }

    /// Looks up `values` and ticks `em.cache.hits` / `em.cache.misses` on
    /// `telemetry`. Off-grid designs and every probe of a disabled cache
    /// count as misses. With a store attached, the probed space's shard is
    /// hydrated first, and a hit on a record written by a previous process
    /// is additionally reported to the store's cross-job ledger.
    #[must_use]
    pub fn probe(&self, space: &ParamSpace, values: &[f64], telemetry: &Telemetry) -> CacheProbe {
        let key = Self::key_for(space, values);
        let hit = match (&self.inner, &key) {
            (Some(inner), Some(k)) => {
                Self::hydrate(inner, k.space_id);
                let hit = inner.map.lock().expect("eval cache lock").get(k).copied();
                if let Some((_, Origin::CrossJob)) = hit {
                    if let Some(store) = &inner.store {
                        store.note_cross_job_hit();
                    }
                }
                hit.map(|(sim, _)| sim)
            }
            _ => None,
        };
        if hit.is_some() {
            telemetry.incr(Counter::EmCacheHits);
        } else {
            telemetry.incr(Counter::EmCacheMisses);
        }
        CacheProbe { key, hit }
    }

    /// Stores a fresh accurate result under `key`. Only final successes
    /// reach this point — callers never cache failed attempts. No-op when
    /// disabled. Marks the cache dirty and, with a store attached, buffers
    /// the record for the store's next flush.
    pub fn insert(&self, key: DesignKey, sim: CachedSim) {
        if let Some(inner) = &self.inner {
            if let Some(store) = &inner.store {
                store.append_eval(&EvalRecord {
                    space_id: key.space_id,
                    levels: key.levels.clone(),
                    metrics: sim.result.to_array(),
                    attempts: sim.attempts,
                });
            }
            inner
                .map
                .lock()
                .expect("eval cache lock")
                .insert(key, (sim, Origin::Local));
            inner.dirty.store(true, Ordering::Release);
        }
    }

    /// Flushes buffered store appends (and the cross-job hit tally) to
    /// disk. No-op without an attached store.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self) -> std::io::Result<()> {
        if let Some(store) = self.store() {
            store.flush()?;
        }
        Ok(())
    }

    /// Serializes every entry to `path` as schema-versioned JSON — but only
    /// when the cache is *dirty* (new entries since the last save/load).
    /// A warm save with nothing new is a complete no-op that returns
    /// `Ok(false)`; disabled handles never write. The write itself is
    /// atomic: a temp file in the target directory is renamed into place,
    /// so a killed run can never leave a torn spill.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<bool> {
        let Some(inner) = &self.inner else {
            return Ok(false);
        };
        if !inner.dirty.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.export_json(path)?;
        inner.dirty.store(false, Ordering::Release);
        Ok(true)
    }

    /// Unconditionally serializes every entry to `path` (the legacy JSON
    /// spill shape, now the import/export format), atomically, creating
    /// parent directories as needed. A disabled handle exports an empty
    /// spill.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn export_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut entries: Vec<SpillEntry> = self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.map
                .lock()
                .expect("eval cache lock")
                .iter()
                .map(|(k, (v, _))| SpillEntry {
                    space_id: k.space_id,
                    levels: k.levels.clone(),
                    result: v.result,
                    attempts: v.attempts,
                })
                .collect()
        });
        // Deterministic file contents regardless of hash-map iteration order.
        entries.sort_by(|a, b| (a.space_id, &a.levels).cmp(&(b.space_id, &b.levels)));
        let file = SpillFile {
            schema_version: SPILL_SCHEMA_VERSION,
            entries,
        };
        let json =
            serde_json::to_string(&file).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("em_cache.json");
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Merges entries from a spill file written by [`EvalCache::save_json`]
    /// into this cache, returning how many were loaded. Missing files load
    /// zero entries (not an error); a disabled handle loads nothing.
    ///
    /// # Errors
    ///
    /// Returns an error on unreadable or malformed JSON, or on a spill
    /// schema mismatch.
    pub fn load_json(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let Some(inner) = &self.inner else {
            return Ok(0);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let file: SpillFile = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::other(format!("{}: {e:?}", path.display())))?;
        if file.schema_version != SPILL_SCHEMA_VERSION {
            return Err(std::io::Error::other(format!(
                "spill schema v{} != supported v{SPILL_SCHEMA_VERSION}",
                file.schema_version
            )));
        }
        let n = file.entries.len();
        let mut guard = inner.map.lock().expect("eval cache lock");
        for e in file.entries {
            // Imported entries mirror into an attached store (that is what
            // `isop cache import` does with the legacy spill); they count as
            // Local — this process put them there, not a previous run's
            // shard record.
            if let Some(store) = &inner.store {
                store.append_eval(&EvalRecord {
                    space_id: e.space_id,
                    levels: e.levels.clone(),
                    metrics: e.result.to_array(),
                    attempts: e.attempts,
                });
            }
            guard.insert(
                DesignKey {
                    space_id: e.space_id,
                    levels: e.levels,
                },
                (
                    CachedSim {
                        result: e.result,
                        attempts: e.attempts,
                    },
                    Origin::Local,
                ),
            );
        }
        Ok(n)
    }
}

/// Memo store: design-vector bit patterns -> predicted `(Z, IL, NEXT)`.
type MemoStore = HashMap<Vec<u64>, [f64; 3]>;

/// A thread-safe memo of surrogate *metric* predictions keyed by the exact
/// bit patterns of the design vector. Clones share one store; the
/// default/`disabled` handle counts every probe as a miss.
///
/// Only successful predictions are stored — errors re-run so their counter
/// footprint stays identical with the memo on or off.
#[derive(Debug, Clone, Default)]
pub struct SurrogateMemo {
    inner: Option<Arc<Mutex<MemoStore>>>,
}

impl SurrogateMemo {
    /// An empty, collecting memo.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// A pass-through handle (same as `SurrogateMemo::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle can store and serve predictions.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of memoized designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |m| m.lock().expect("surrogate memo lock").len())
    }

    /// `true` when nothing is memoized (always for a disabled handle).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn get(&self, key: &[u64]) -> Option<[f64; 3]> {
        self.inner
            .as_ref()
            .and_then(|m| m.lock().expect("surrogate memo lock").get(key).copied())
    }

    fn put(&self, key: Vec<u64>, metrics: [f64; 3]) {
        if let Some(m) = &self.inner {
            m.lock().expect("surrogate memo lock").insert(key, metrics);
        }
    }
}

/// A memoizing decorator over any [`Surrogate`]: `predict` and
/// `predict_batch` consult the [`SurrogateMemo`] before the wrapped model,
/// ticking `surrogate.memo_hits` / `surrogate.memo_misses`; the Jacobian
/// methods forward untouched.
///
/// Layer it *inside* the counting wrapper
/// ([`InstrumentedSurrogate`](crate::surrogate::InstrumentedSurrogate)) so
/// `surrogate.predict` totals stay identical with the memo on or off — the
/// memo elides the model's arithmetic, not the logical call.
///
/// The pipeline consults the memo only from its **serial** Harmonica
/// section: a concurrent miss-then-insert race on one key would make
/// hit/miss totals depend on thread interleaving, which would break the
/// bit-identical-counters contract the bench gate diffs on. A batch
/// resolves the memo serially, in row order.
pub struct MemoizedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    memo: SurrogateMemo,
    telemetry: Telemetry,
}

impl<'a> MemoizedSurrogate<'a> {
    /// Wraps `inner`, serving repeated `predict` calls from `memo`.
    pub fn new(inner: &'a dyn Surrogate, memo: SurrogateMemo, telemetry: Telemetry) -> Self {
        Self {
            inner,
            memo,
            telemetry,
        }
    }
}

impl Surrogate for MemoizedSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let key = SurrogateMemo::key(x);
        if let Some(metrics) = self.memo.get(&key) {
            self.telemetry.incr(Counter::SurrogateMemoHits);
            return Ok(metrics);
        }
        self.telemetry.incr(Counter::SurrogateMemoMisses);
        let out = self.inner.predict(x);
        if let Ok(metrics) = out {
            self.memo.put(key, metrics);
        }
        out
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        self.inner.jacobian(x)
    }

    fn value_and_jacobian(&self, x: &[f64]) -> Option<Result<([f64; 3], Matrix), MlError>> {
        self.inner.value_and_jacobian(x)
    }

    /// Hits, misses, results and memo contents equal one
    /// [`predict`](Surrogate::predict) per row in row order: a row repeating
    /// an earlier miss of the same batch is a hit when that miss predicted
    /// successfully (one call per row would have stored it), and a miss
    /// with the same error otherwise. Only the first occurrence of each
    /// missing design is scored.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        let mut out: Vec<Option<Result<[f64; 3], MlError>>> = vec![None; xs.len()];
        let mut first_miss: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        for (r, x) in xs.iter().enumerate() {
            let key = SurrogateMemo::key(x);
            if let Some(metrics) = self.memo.get(&key) {
                self.telemetry.incr(Counter::SurrogateMemoHits);
                out[r] = Some(Ok(metrics));
            } else if !self.memo.is_enabled() {
                misses.push(r);
            } else if let Some(&first) = first_miss.get(&key) {
                repeats.push((r, first));
            } else {
                first_miss.insert(key, r);
                misses.push(r);
            }
        }
        let scored = if misses.len() == xs.len() {
            self.inner.predict_batch(xs)
        } else {
            let rows: Vec<Vec<f64>> = misses.iter().map(|&r| xs[r].clone()).collect();
            self.inner.predict_batch(&rows)
        };
        for (&r, result) in misses.iter().zip(scored) {
            self.telemetry.incr(Counter::SurrogateMemoMisses);
            if let Ok(metrics) = result {
                self.memo.put(SurrogateMemo::key(&xs[r]), metrics);
            }
            out[r] = Some(result);
        }
        for (r, first) in repeats {
            let result = out[first].clone().expect("first occurrence scored");
            let counter = if result.is_ok() {
                Counter::SurrogateMemoHits
            } else {
                Counter::SurrogateMemoMisses
            };
            self.telemetry.incr(counter);
            out[r] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every row resolved"))
            .collect()
    }

    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        self.inner.jacobian_batch(xs)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::{s1, s2};
    use crate::surrogate::OracleSurrogate;
    use isop_em::simulator::{AnalyticalSolver, EmSimulator};
    use isop_em::stackup::DiffStripline;

    fn grid_design(space: &ParamSpace) -> Vec<f64> {
        space.round_to_grid(&crate::manual::MANUAL_VECTOR)
    }

    fn simulate(x: &[f64]) -> CachedSim {
        CachedSim {
            result: AnalyticalSolver::new()
                .simulate(&DiffStripline::from_vector(x).expect("valid"))
                .expect("simulates"),
            attempts: 1,
        }
    }

    #[test]
    fn key_uses_grid_indices_not_floats() {
        let space = s1();
        // Start from the low corner so stepping up stays on the grid.
        let x: Vec<f64> = space.params().iter().map(|p| p.lo).collect();
        let key = EvalCache::key_for(&space, &x).expect("on grid");
        assert!(key.levels.iter().all(|&l| l == 0));
        // Perturbations below half a grid step collapse onto the same key.
        let mut wobbled = x.clone();
        wobbled[0] += space.params()[0].step * 0.25;
        assert_eq!(EvalCache::key_for(&space, &wobbled), Some(key.clone()));
        // A full step moves exactly one level.
        let mut stepped = x.clone();
        stepped[0] += space.params()[0].step;
        let other = EvalCache::key_for(&space, &stepped).expect("on grid");
        assert_eq!(other.levels[0], key.levels[0] + 1);
        assert_eq!(&other.levels[1..], &key.levels[1..]);
    }

    #[test]
    fn keys_distinguish_spaces_with_identical_levels() {
        let (a, b) = (s1(), s2());
        let xa = grid_design(&a);
        let ka = EvalCache::key_for(&a, &xa).expect("on grid");
        let kb = EvalCache::key_for(&b, &b.round_to_grid(&xa)).expect("on grid");
        assert_ne!(ka.space_id, kb.space_id, "space fingerprints must differ");
    }

    #[test]
    fn off_grid_design_has_no_key() {
        let space = s1();
        let mut x = grid_design(&space);
        x[0] = space.params()[0].hi + 10.0 * space.params()[0].step;
        assert!(EvalCache::key_for(&space, &x).is_none());
        assert!(EvalCache::key_for(&space, &x[..3]).is_none(), "bad width");
    }

    #[test]
    fn probe_hits_after_insert_and_counts_both_ways() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::new();
        let tele = Telemetry::enabled();

        let miss = cache.probe(&space, &x, &tele);
        assert!(miss.hit.is_none());
        cache.insert(miss.key.expect("on grid"), simulate(&x));
        let hit = cache.probe(&space, &x, &tele);
        assert_eq!(hit.hit.expect("cached"), simulate(&x));
        assert_eq!(tele.counter(Counter::EmCacheHits), 1);
        assert_eq!(tele.counter(Counter::EmCacheMisses), 1);
        assert_eq!(cache.len(), 1);

        // Clones share the store.
        assert_eq!(cache.clone().probe(&space, &x, &tele).hit, hit.hit);
    }

    #[test]
    fn disabled_cache_counts_every_probe_as_miss() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::disabled();
        let tele = Telemetry::enabled();
        let probe = cache.probe(&space, &x, &tele);
        cache.insert(probe.key.expect("keys still form"), simulate(&x));
        assert!(cache.probe(&space, &x, &tele).hit.is_none());
        assert_eq!(tele.counter(Counter::EmCacheHits), 0);
        assert_eq!(tele.counter(Counter::EmCacheMisses), 2);
        assert!(!cache.is_enabled());
        assert!(cache.is_empty());
    }

    #[test]
    fn json_spill_round_trips() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::new();
        let tele = Telemetry::disabled();
        let probe = cache.probe(&space, &x, &tele);
        // A retried entry: the attempt count must survive the spill so warm
        // runs replay candidates bit-exactly.
        let retried = CachedSim {
            attempts: 3,
            ..simulate(&x)
        };
        cache.insert(probe.key.expect("on grid"), retried);

        let dir = std::env::temp_dir().join("isop-evalcache-test");
        let path = dir.join("em_cache.json");
        cache.save_json(&path).expect("writes");

        let fresh = EvalCache::new();
        assert_eq!(fresh.load_json(&path).expect("reads"), 1);
        assert_eq!(
            fresh.probe(&space, &x, &tele).hit.expect("reloaded"),
            retried
        );
        // Missing files are an empty load, not an error.
        assert_eq!(fresh.load_json(&dir.join("absent.json")).expect("ok"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_save_with_no_new_entries_is_a_noop() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::new();
        let tele = Telemetry::disabled();
        let dir = std::env::temp_dir().join(format!("isop-dirty-{}", std::process::id()));
        let path = dir.join("em_cache.json");
        std::fs::remove_dir_all(&dir).ok();

        // A fresh cache is clean: saving writes nothing, not even an empty
        // spill.
        assert!(!cache.save_json(&path).expect("clean save"));
        assert!(!path.exists());

        let probe = cache.probe(&space, &x, &tele);
        cache.insert(probe.key.expect("on grid"), simulate(&x));
        assert!(
            cache.save_json(&path).expect("dirty save"),
            "first save writes"
        );
        let stamp = std::fs::metadata(&path).expect("exists").modified().ok();

        // No inserts since: the warm save must not touch the file.
        assert!(!cache.save_json(&path).expect("warm save"));
        assert_eq!(
            std::fs::metadata(&path).expect("exists").modified().ok(),
            stamp
        );
        // Re-inserting the same entry still marks dirty (by design — the
        // flag tracks writes, not semantic novelty).
        let probe = cache.probe(&space, &x, &tele);
        cache.insert(probe.key.expect("on grid"), simulate(&x));
        assert!(cache.save_json(&path).expect("re-dirty save"));
        // A disabled handle never writes; export_json always does.
        assert!(!EvalCache::disabled().save_json(&path).expect("disabled"));
        cache.export_json(&path).expect("export");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_backed_cache_hydrates_and_counts_cross_job_hits() {
        let space = s1();
        let x = grid_design(&space);
        let dir = std::env::temp_dir().join(format!("isop-ec-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tele = Telemetry::enabled();

        // "Previous process": populate the store through one cache, persist,
        // drop every in-memory handle.
        {
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            let cache = EvalCache::with_store(Arc::clone(&store));
            let probe = cache.probe(&space, &x, &tele);
            assert!(probe.hit.is_none());
            cache.insert(probe.key.expect("on grid"), simulate(&x));
            // Inserts by this process are *not* cross-job hits.
            assert!(cache.probe(&space, &x, &tele).hit.is_some());
            cache.persist().expect("flushes");
            assert_eq!(store.stats().expect("stats").cross_job_hits, 0);
        }

        // "Next process": a fresh store + cache over the same directory.
        let store = Arc::new(
            isop_store::Store::open(&dir)
                .expect("reopens")
                .with_telemetry(tele.clone()),
        );
        let warm = EvalCache::with_store(Arc::clone(&store));
        let hit = warm.probe(&space, &x, &tele);
        assert_eq!(
            hit.hit.expect("served from disk"),
            simulate(&x),
            "hydrated entry must replay the stored simulation bit-exactly"
        );
        assert_eq!(tele.counter(Counter::StoreCrossJobHits), 1);
        assert_eq!(tele.counter(Counter::StoreShardLoads), 1);
        // The tally persists across the flush for `isop cache stats`.
        warm.persist().expect("flushes");
        assert_eq!(store.stats().expect("stats").cross_job_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memo_replays_exact_predictions_and_counts() {
        let space = s1();
        let x = grid_design(&space);
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let memo = SurrogateMemo::new();
        let wrapped = MemoizedSurrogate::new(&inner, memo.clone(), tele.clone());

        let first = wrapped.predict(&x).expect("predicts");
        let second = wrapped.predict(&x).expect("predicts");
        assert_eq!(first, second, "memo must replay bit-exactly");
        assert_eq!(first, inner.predict(&x).expect("predicts"));
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 1);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(wrapped.name(), inner.name());
        // A batch row is served from the memo too; Jacobian calls bypass it.
        let batch = wrapped.predict_batch(std::slice::from_ref(&x));
        assert_eq!(batch[0].as_ref().expect("ok"), &first);
        assert!(wrapped.jacobian(&x).is_some());
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 2);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 1);
    }

    /// A batch ticks the same hits and misses, returns the same results and
    /// leaves the same memo as one `predict` per row — including rows that
    /// repeat inside the batch and rows whose prediction errors.
    #[test]
    fn batched_memo_matches_one_predict_per_row() {
        let space = s1();
        let a = grid_design(&space);
        let b = space.values_of_levels(&vec![1; space.n_params()]);
        let mut bad = a.clone();
        bad[0] = -1.0; // invalid geometry -> oracle errors
        let rows = vec![
            a.clone(),
            bad.clone(),
            b.clone(),
            a.clone(),
            bad.clone(),
            b,
            a,
        ];
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let run = |batched: bool, memo: SurrogateMemo| {
            let tele = Telemetry::enabled();
            let wrapped = MemoizedSurrogate::new(&inner, memo.clone(), tele.clone());
            let out = if batched {
                wrapped.predict_batch(&rows)
            } else {
                rows.iter().map(|x| wrapped.predict(x)).collect()
            };
            (
                out,
                tele.counter(Counter::SurrogateMemoHits),
                tele.counter(Counter::SurrogateMemoMisses),
                memo.len(),
            )
        };
        for memo in [SurrogateMemo::new, SurrogateMemo::disabled] {
            let serial = run(false, memo());
            assert_eq!(run(true, memo()), serial);
        }
        assert_eq!(run(false, SurrogateMemo::new()).1, 3, "a, b, a repeat");
    }

    #[test]
    fn disabled_memo_never_hits() {
        let space = s1();
        let x = grid_design(&space);
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let wrapped = MemoizedSurrogate::new(&inner, SurrogateMemo::disabled(), tele.clone());
        let _ = wrapped.predict(&x);
        let _ = wrapped.predict(&x);
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 0);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 2);
    }

    #[test]
    fn errors_are_not_memoized() {
        let space = s1();
        let mut x = grid_design(&space);
        x[0] = -1.0; // invalid geometry -> oracle errors
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let memo = SurrogateMemo::new();
        let wrapped = MemoizedSurrogate::new(&inner, memo.clone(), tele.clone());
        assert!(wrapped.predict(&x).is_err());
        assert!(wrapped.predict(&x).is_err());
        assert_eq!(memo.len(), 0);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 2);
    }
}
