//! Order statistics: medians of repeated host-time samples and exact
//! nearest-rank percentiles of simulated response times.

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Index of the `p` percentile in a sorted sample of `count` values — the
/// nearest-rank rule `daris_metrics::ResponseStats::from_millis` uses, so a
/// pooled percentile computed here matches what a single device reports.
pub fn rank(p: f64, count: usize) -> usize {
    debug_assert!(count > 0);
    ((p * (count as f64 - 1.0)).round() as usize).min(count - 1)
}

/// Number of samples strictly above the `p` percentile's rank.
pub fn beyond(p: f64, count: usize) -> usize {
    if count == 0 {
        0
    } else {
        count - 1 - rank(p, count)
    }
}

/// The median and 99th percentile of one priority's response times, with
/// the sample they come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Completed jobs behind the percentiles.
    pub count: usize,
    /// Median response, in simulated milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response, in simulated milliseconds.
    pub p99_ms: f64,
}

/// Samples the benchmark requires above a published p99.
pub const MIN_BEYOND_P99: usize = 10;

impl Tail {
    /// Exact percentiles over raw samples (any order).
    pub fn from_samples(samples: &[f64]) -> Option<Tail> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Tail { count: n, p50_ms: sorted[rank(0.50, n)], p99_ms: sorted[rank(0.99, n)] })
    }

    /// The single-device summary's percentiles, which that summary computes
    /// from its sorted raw samples.
    pub fn from_stats(stats: &daris_metrics::ResponseStats) -> Tail {
        Tail { count: stats.count, p50_ms: stats.p50_ms, p99_ms: stats.p99_ms }
    }

    /// Whether the sample leaves at least [`MIN_BEYOND_P99`] values above
    /// the p99, so the p99 is backed by more than a handful of outliers.
    pub fn p99_is_supported(&self) -> bool {
        beyond(0.99, self.count) >= MIN_BEYOND_P99
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_metrics::ResponseStats;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn pooled_percentiles_match_the_single_device_rule() {
        // A deterministic, unsorted, duplicate-bearing sample.
        let samples: Vec<f64> = (0..1237u64).map(|i| ((i * 7919) % 503) as f64 * 0.25).collect();
        let tail = Tail::from_samples(&samples).expect("non-empty");
        let stats = ResponseStats::from_millis(&samples);
        assert_eq!(tail, Tail::from_stats(&stats));
        assert_eq!(tail.count, 1237);
    }

    #[test]
    fn p99_support_counts_samples_above_the_rank() {
        assert_eq!(beyond(0.99, 0), 0);
        assert_eq!(beyond(0.99, 1), 0);
        // 1100 samples: rank round(0.99 * 1099) = 1088, 11 above it.
        assert_eq!(beyond(0.99, 1100), 11);
        let supported = Tail { count: 1100, p50_ms: 1.0, p99_ms: 2.0 };
        assert!(supported.p99_is_supported());
        let thin = Tail { count: 900, ..supported };
        assert!(!thin.p99_is_supported());
    }

    #[test]
    fn empty_sample_has_no_tail() {
        assert_eq!(Tail::from_samples(&[]), None);
    }
}
