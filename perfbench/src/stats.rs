//! Percentiles and medians over recorded samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 * n)`. A
//! percentile is only reported when enough samples lie beyond it (see
//! [`MIN_BEYOND`]), so a p99 never rests on one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples; 0 when there are no samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// A percentile of one sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the rank (`n - rank`).
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `p` of `samples` (sorted in place), or
/// `None` when `samples` is empty.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, samples.len());
    Some(Percentile {
        value: samples[rank - 1],
        n: samples.len(),
        beyond: samples.len() - rank,
    })
}

/// Median of `values` (mean of the two middle values for even counts),
/// or `None` when empty. Used for per-round figures, where every round
/// counts equally.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_ceiling_rule() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(50.0, 11), 6);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(99.0, 1001), 991);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(0.1, 7), 1);
        assert_eq!(nearest_rank(50.0, 0), 0);
    }

    #[test]
    fn percentile_picks_the_ranked_sample_and_counts_the_tail() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&mut v, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
        let p50 = percentile(&mut v, 50.0).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
    }

    #[test]
    fn a_p99_over_too_few_samples_is_unsupported() {
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = percentile(&mut v, 99.0).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.supported());
        assert!(percentile(&mut [], 50.0).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
