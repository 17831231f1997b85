//! Property-based tests on the search algorithms: correctness invariants
//! that must hold for arbitrary objectives and seeds.

use isop_hpo::budget::Budget;
use isop_hpo::harmonica::{self, HarmonicaConfig};
use isop_hpo::lasso::lasso_coordinate_descent;
use isop_hpo::objective::BinaryFn;
use isop_hpo::sa::{self, SaConfig};
use isop_hpo::space::{BinarySpace, DiscreteSpace};
use isop_hpo::tpe::{Tpe, TpeConfig};
use isop_telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random linear pseudo-Boolean objective: `sum_i w_i * sign(b_i)`.
fn linear_objective(weights: Vec<f64>) -> impl FnMut(&[bool]) -> Option<f64> {
    move |bits: &[bool]| {
        Some(
            bits.iter()
                .zip(&weights)
                .map(|(&b, &w)| if b { w } else { -w })
                .sum(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a pure linear objective Harmonica's best sample must at least
    /// match the best of the same number of uniform random draws (it *uses*
    /// random draws plus structure).
    #[test]
    fn harmonica_never_loses_to_its_own_samples(
        weights in prop::collection::vec(-2.0f64..2.0, 12),
        seed in 0u64..1000,
    ) {
        let mut obj = BinaryFn::new(12, linear_objective(weights.clone()));
        let cfg = HarmonicaConfig {
            stages: 2,
            samples_per_stage: 60,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let res = harmonica::run(&mut obj, BinarySpace::free(12), &cfg, &mut budget, &mut rng, &Telemetry::disabled(), |_, _| {});
        let best = res.best.expect("found").value;
        let hist_min = res.history.iter().map(|s| s.value).fold(f64::INFINITY, f64::min);
        prop_assert!(best <= hist_min + 1e-12);
        // The global optimum of the linear objective.
        let opt: f64 = weights.iter().map(|w| -w.abs()).sum();
        prop_assert!(best >= opt - 1e-9, "cannot beat the true optimum");
    }

    /// Harmonica's restriction never removes the optimum of a 1-sparse
    /// (single dominant bit) objective.
    #[test]
    fn harmonica_fixes_dominant_bit_correctly(
        bit in 0usize..10,
        sign in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        let coef = if sign { 5.0 } else { -5.0 };
        let mut obj = BinaryFn::new(10, move |b: &[bool]| {
            Some(coef * if b[bit] { 1.0 } else { -1.0 })
        });
        let cfg = HarmonicaConfig {
            stages: 1,
            samples_per_stage: 120,
            top_monomials: 2,
            bits_per_stage: 2,
            lambda: 0.1,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let res = harmonica::run(&mut obj, BinarySpace::free(10), &cfg, &mut budget, &mut rng, &Telemetry::disabled(), |_, _| {});
        // If the dominant bit got fixed, it must be fixed to its minimizer.
        if let Some(v) = res.space.restriction(bit) {
            prop_assert_eq!(v, !sign, "bit must minimize coef * sign(b)");
        }
    }

    /// SA's accepted-solution trajectory never loses track of the best.
    #[test]
    fn sa_best_dominates_history(weights in prop::collection::vec(-1.0f64..1.0, 10), seed in 0u64..500) {
        let mut obj = BinaryFn::new(10, linear_objective(weights));
        let cfg = SaConfig { iterations: 300, ..SaConfig::default() };
        let mut budget = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let res = sa::run(&mut obj, &BinarySpace::free(10), &cfg, &mut budget, &mut rng);
        let best = res.best.expect("has best").value;
        for s in &res.history {
            prop_assert!(best <= s.value + 1e-12);
        }
    }

    /// TPE asks only points inside the space and improves on average over
    /// pure startup sampling.
    #[test]
    fn tpe_asks_stay_in_space(cards in prop::collection::vec(2usize..8, 3..6), seed in 0u64..200) {
        let space = DiscreteSpace::new(cards.clone());
        let mut tpe = Tpe::new(space.clone(), TpeConfig { n_startup: 4, ..TpeConfig::default() });
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..30 {
            let x = tpe.ask(&mut rng);
            prop_assert!(space.contains(&x), "ask left the space at iter {i}: {x:?}");
            let value: f64 = x.iter().map(|&v| v as f64).sum();
            tpe.tell(x, value);
        }
        prop_assert_eq!(tpe.observations().len(), 30);
    }

    /// Lasso with lambda = 0 on an orthogonal design recovers coefficients
    /// to working precision; increasing lambda only shrinks magnitudes.
    #[test]
    fn lasso_shrinkage_is_monotone(seed in 0u64..100) {
        use rand::Rng;
        let (n, d) = (160, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n * d).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * x[i * d] - 1.0 * x[i * d + 3]).collect();
        let l0 = lasso_coordinate_descent(&x, &y, n, d, 0.0, 2000, 1e-10, &Telemetry::disabled());
        let l1 = lasso_coordinate_descent(&x, &y, n, d, 0.3, 2000, 1e-10, &Telemetry::disabled());
        let norm = |w: &[f64]| w.iter().map(|v| v.abs()).sum::<f64>();
        prop_assert!(norm(&l1.coefficients) <= norm(&l0.coefficients) + 1e-9);
    }
}

/// Budget exhaustion is permanent: once tripped it stays tripped.
#[test]
fn budget_exhaustion_is_sticky() {
    let mut b = Budget::unlimited().with_samples(5);
    b.record_samples(5);
    assert!(b.exhausted());
    b.record_samples(0);
    assert!(b.exhausted());
}
