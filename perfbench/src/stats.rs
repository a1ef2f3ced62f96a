//! Sample statistics: medians and the tail-percentile rule.
//!
//! A tail percentile is only worth reporting when enough samples lie
//! beyond it to make it more than the single slowest outlier. The rule
//! used everywhere in this harness: report p99 only when at least
//! [`MIN_BEYOND`] samples lie beyond it; otherwise report the highest
//! percentile that leaves [`MIN_BEYOND`] samples beyond it, and never go
//! below the median.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The fastest of repeated measurements of the same work; 0 when empty.
///
/// The end-to-end metrics report this rather than the median. On a
/// shared host, interference only ever adds time and comes and goes
/// within seconds, while the program's own cost is fixed: the fastest
/// repetition tracks the program and rejects the host's load, where the
/// median (and even the 10th percentile, in runs where most of the
/// window was contended) tracks both.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail percentile chosen by the rule in the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the sample count allows).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly after the reported rank.
    pub beyond: usize,
}

/// The highest percentile up to `want` that keeps at least
/// [`MIN_BEYOND`] samples beyond it (nearest-rank), floored at the
/// median (then reported as [`median`]). `None` for an empty sample.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank_of = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let median_rank = rank_of(50.0);
    let mut rank = rank_of(want);
    let mut percentile = want;
    if n - rank < MIN_BEYOND {
        rank = n.saturating_sub(MIN_BEYOND).max(median_rank);
        percentile = if rank == median_rank {
            50.0
        } else {
            100.0 * rank as f64 / n as f64
        };
    }
    let value = if percentile == 50.0 {
        median(samples)
    } else {
        sorted[rank - 1]
    };
    Some(Tail {
        percentile,
        value,
        beyond: n - rank,
    })
}

/// One timing series, printed with its sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    match tail(samples, 99.0) {
        None => format!("{name}: no samples"),
        Some(t) => format!(
            "{name}: n={} median={:.4} {unit} p{:.2}={:.4} {unit} ({} beyond)",
            samples.len(),
            median(samples),
            t.percentile,
            t.value,
            t.beyond
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&ramp(100)), 1.0);
        assert_eq!(fastest(&[5.0, 3.0]), 3.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn short_samples_fall_back_to_the_highest_qualifying_percentile() {
        let t = tail(&ramp(999), 99.0).unwrap();
        assert!(t.percentile < 99.0 && t.percentile > 98.9, "{t:?}");
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 989.0);

        let t = tail(&ramp(100), 99.0).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tiny_samples_floor_at_the_median() {
        let t = tail(&ramp(12), 99.0).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, median(&ramp(12)));
        assert!(tail(&[], 99.0).is_none());
        let one = tail(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.beyond), (7.0, 0));
    }

    #[test]
    fn never_more_than_asked() {
        let t = tail(&ramp(100_000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 1000);
    }
}
