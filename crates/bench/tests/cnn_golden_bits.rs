//! Golden bits of the neural surrogates' inference and of paper design
//! cells run through them.
//!
//! The CNN's forward, input-Jacobian and fused value-and-Jacobian kernels
//! are bit-identical rewrites of the plain loops they replaced (DESIGN.md
//! §16): each accumulator sums its terms in the same order. Harmonica
//! scores its samples in batches, which must give each row the bits of a
//! one-row prediction, for the MLP as for the CNN, with the prediction memo
//! on or off. These digests were pinned before the rewrite and the
//! batching; any change to a single output bit of a prediction, a Jacobian
//! entry, or a design cell changes a digest.

use isop::data::{generate_dataset, generate_mixed_dataset};
use isop::evalcache::SurrogateMemo;
use isop::prelude::*;
use isop::surrogate::{ModelZoo, Surrogate};
use isop_em::simulator::AnalyticalSolver;
use isop_hpo::budget::Budget;
use isop_ml::dataset::Dataset;
use isop_ml::linalg::Matrix;
use isop_ml::models::{Cnn1d, Mlp};
use isop_ml::MlError;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// A seeded mixed training set.
fn training_data() -> Dataset {
    generate_mixed_dataset(
        &isop::spaces::training_space(),
        &isop::spaces::s1(),
        400,
        0.5,
        &AnalyticalSolver::new(),
        5,
    )
    .expect("dataset")
}

/// The experiments' CNN configuration (`isop_bench::cnn_config`), fitted
/// for three epochs at two training threads (fits are bit-identical at any
/// width).
fn fitted_cnn() -> CnnSurrogate {
    ModelZoo::new(Parallelism::new(2))
        .fit_neural(Cnn1d::new(isop_bench::cnn_config(3)), &training_data())
        .expect("trains")
}

/// The experiments' MLP configuration, fitted like the CNN.
fn fitted_mlp() -> MlpSurrogate {
    ModelZoo::new(Parallelism::new(2))
        .fit_neural(Mlp::new(isop_bench::mlp_config(3)), &training_data())
        .expect("trains")
}

/// 64 fixed S1 design rows.
fn rows() -> Vec<Vec<f64>> {
    let data =
        generate_dataset(&isop::spaces::s1(), 64, &AnalyticalSolver::new(), 77).expect("rows");
    (0..data.len()).map(|r| data.x.row(r).to_vec()).collect()
}

/// Digests of one-row `predict` calls over `rows` and of one
/// `predict_batch` over all of them.
fn predict_digests(surrogate: &dyn Surrogate, rows: &[Vec<f64>]) -> (u64, u64) {
    let mut predict = Fnv::new();
    for x in rows {
        predict.f64s(&surrogate.predict(x).expect("predicts"));
    }
    let mut batch = Fnv::new();
    for m in surrogate.predict_batch(rows) {
        batch.f64s(&m.expect("predicts"));
    }
    (predict.0, batch.0)
}

/// Digest of one T1/S1 design cell's outcome through `surrogate`:
/// candidates, `g_hat`, both EM ledgers and the sample counts.
fn cell_digest(surrogate: &dyn Surrogate, memo: SurrogateMemo) -> u64 {
    let space = isop::spaces::s1();
    let sim = AnalyticalSolver::new();
    let mut cfg = isop_bench::isop_config();
    cfg.parallelism = Parallelism::new(2);
    let outcome = IsopOptimizer::new(&space, surrogate, &sim, cfg)
        .with_surrogate_memo(memo)
        .run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            3,
        );
    assert_eq!(outcome.candidates.len(), 3, "a full roll-out");
    let mut cell = Fnv::new();
    for c in &outcome.candidates {
        cell.f64s(&c.values);
        cell.f64s(&c.predicted);
        cell.f64s(&c.simulated.expect("verified").to_array());
        cell.word(c.g_exact.to_bits());
        cell.word(
            outcome
                .final_objective
                .g_hat(&c.predicted, &c.values)
                .to_bits(),
        );
        cell.word(u64::from(c.attempts));
    }
    cell.word(outcome.em_seconds.to_bits());
    cell.word(outcome.em_seconds_saved.to_bits());
    cell.word(outcome.samples_seen);
    cell.word(outcome.invalid_seen);
    cell.0
}

#[test]
fn cnn_inference_and_design_cell_keep_their_golden_bits() {
    let cnn = fitted_cnn();
    let rows = rows();
    let (predict, batch) = predict_digests(&cnn, &rows);

    let mut jacobian = Fnv::new();
    for x in &rows {
        let jac = cnn.jacobian(x).expect("differentiable").expect("fitted");
        jacobian.f64s(jac.as_slice());
    }

    let cell = cell_digest(&cnn, SurrogateMemo::disabled());

    let got = [predict, batch, jacobian.0, cell];
    println!("golden digests: {got:#018x?}");
    assert_eq!(got[0], got[1], "batched and one-row predictions differ");
    assert_eq!(
        got,
        [GOLDEN_PREDICT, GOLDEN_PREDICT, GOLDEN_JACOBIAN, GOLDEN_CELL],
        "CNN inference bits moved"
    );
}

/// Records every prediction a surrogate hands out, by design, so a test
/// sees the bits of predictions that a cell's outcome hides (Harmonica's
/// samples feed its outcome only through Lasso and the weight adapter).
struct Ledger<'a> {
    inner: &'a dyn Surrogate,
    seen: Mutex<BTreeMap<Vec<u64>, [u64; 3]>>,
}

impl<'a> Ledger<'a> {
    fn new(inner: &'a dyn Surrogate) -> Self {
        Self {
            inner,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    fn record(&self, x: &[f64], m: &Result<[f64; 3], MlError>) {
        let Ok(m) = m else { return };
        let bits = m.map(f64::to_bits);
        let key = x.iter().map(|v| v.to_bits()).collect();
        let first = *self.seen.lock().unwrap().entry(key).or_insert(bits);
        assert_eq!(first, bits, "one design predicted two ways");
    }

    /// Digest of every design and its prediction, in design order.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (x, m) in self.seen.lock().unwrap().iter() {
            x.iter().chain(m).for_each(|&w| h.word(w));
        }
        h.0
    }
}

impl Surrogate for Ledger<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let m = self.inner.predict(x);
        self.record(x, &m);
        m
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        self.inner.jacobian(x)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        let ms = self.inner.predict_batch(xs);
        for (x, m) in xs.iter().zip(&ms) {
            self.record(x, m);
        }
        ms
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The MLP's batched matrix product sums in another order from 16 rows on,
/// so this batch of 64 rows, and Harmonica's batches with the memo on or
/// off, must take the one-row arithmetic.
#[test]
fn mlp_design_cell_keeps_its_golden_bits() {
    let mlp = fitted_mlp();
    let (predict, batch) = predict_digests(&mlp, &rows());
    let mut got = vec![predict, batch];
    for memo in [SurrogateMemo::disabled(), SurrogateMemo::new()] {
        let ledger = Ledger::new(&mlp);
        got.push(cell_digest(&ledger, memo));
        got.push(ledger.digest());
    }

    println!("golden MLP digests: {got:#018x?}");
    assert_eq!(
        got,
        [
            GOLDEN_MLP_PREDICT,
            GOLDEN_MLP_PREDICT,
            GOLDEN_MLP_CELL,
            GOLDEN_MLP_PREDICTIONS,
            GOLDEN_MLP_CELL,
            GOLDEN_MLP_PREDICTIONS,
        ],
        "MLP inference or design cell bits moved"
    );
}

const GOLDEN_PREDICT: u64 = 0xd5eb_75bf_2065_6896;
const GOLDEN_JACOBIAN: u64 = 0xecf6_ff02_8720_5996;
const GOLDEN_CELL: u64 = 0x4f1c_057f_3184_1c5a;
const GOLDEN_MLP_PREDICT: u64 = 0xfc1d_1d5e_fdee_6f1f;
const GOLDEN_MLP_CELL: u64 = 0x7bf7_9118_c2a7_4d01;
const GOLDEN_MLP_PREDICTIONS: u64 = 0xd49c_43ea_e274_6002;
