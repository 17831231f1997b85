//! Order statistics shared by every workload and by the steadiness mode.

/// Percentiles the tail is chosen from, highest first, in tenths of a
/// percent so ranks are exact.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The reported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (a [`TAIL_LADDER`] rung).
    pub pct: f64,
    /// Its nearest-rank value (the median for the 50th percentile).
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Samples measured.
    pub n: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond its nearest rank. The 50th percentile is reported as the
/// [`median`], so the tail is never below it; below 20 samples no
/// percentile qualifies and the median is reported with however few
/// samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    assert!(!s.is_empty(), "tail of no samples");
    let n = s.len();
    let at = |tenths: usize| {
        let rank = (tenths * n).div_ceil(1000).max(1);
        Tail {
            pct: tenths as f64 / 10.0,
            value: if tenths == 500 {
                median(&s)
            } else {
                s[rank - 1]
            },
            beyond: n - rank,
            n,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(500))
}

/// Quartiles `[Q1, Q2, Q3]` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the steadiness mode reproduces the acceptance arithmetic exactly.
///
/// # Panics
///
/// Panics with fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// True for a metric name the benchmark contract accepts: a letter or digit
/// first, then at most 63 more of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // A shuffled permutation of 1..=n (7919 is prime, so coprime to
        // every n tested): every statistic must sort its input.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 1..400 {
            let t = tail(&ramp(n));
            assert_eq!(t.n, n);
            if n >= 20 {
                assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                // No higher ladder rung would still qualify.
                let reported = (t.pct * 10.0).round() as usize;
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > reported) {
                    let rank = (higher * n).div_ceil(1000);
                    assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: {higher} also qualifies");
                }
            } else {
                assert_eq!(t.pct, 50.0, "n={n}");
            }
            // Exactly `beyond` samples exceed the reported value, which is
            // never below the median.
            let above = ramp(n).iter().filter(|&&v| v > t.value).count();
            assert_eq!(above, t.beyond, "n={n}");
            assert!(t.value >= median(&ramp(n)), "n={n}");
        }
        assert_eq!(tail(&ramp(20)).pct, 50.0);
        assert_eq!(tail(&ramp(40)).pct, 75.0);
        assert_eq!(tail(&ramp(100)).pct, 90.0);
        assert_eq!(tail(&ramp(200)).pct, 95.0);
        assert_eq!(tail(&ramp(1000)).pct, 99.0);
        assert_eq!(tail(&ramp(10_000)).pct, 99.9);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "setup_s",
            "ml.fit_s_per_epoch",
            "loadgen.failed_frac",
            "a",
            "9-x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "unit/s",
            "μs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
