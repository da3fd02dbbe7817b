//! Order statistics for the report: medians with quartiles, and latency
//! percentiles that are only reported where the sample supports them.

/// A percentile is reported only when at least this many samples lie
/// beyond its nearest-rank position; with fewer, the "percentile" is a
/// handful of outliers and not a property of the distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single exact value (a count): quartiles collapse onto it.
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// and by an outside referee agree. Fewer than two samples collapse all
/// three cut points onto the only value (0 when empty).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => [0.0; 3],
        1 => [sorted[0]; 3],
        len => {
            let m = len + 1;
            let mut cuts = [0.0; 3];
            for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
            }
            cuts
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// Median and quartiles of one metric's per-repetition values. With a
/// handful of repetitions the exclusive method extrapolates past the
/// data; for display the quartiles are held inside the observed range.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, _, q3] = quartiles(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        median: median(values),
        q1: q1.max(lo),
        q3: q3.min(hi),
        n: values.len(),
    }
}

/// Nearest-rank percentile `q` of an ascending-sorted sample, or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    (sorted.len() >= rank + MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Nearest-rank median of an ascending-sorted, non-empty sample: the
/// per-repetition p50 of a latency series, always supported.
pub fn p50(sorted: &[u64]) -> u64 {
    sorted[(sorted.len().div_ceil(2)).max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.n), (3.0, 5));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        let two = summarize(&[1.0, 2.0]);
        assert_eq!((two.q1, two.median, two.q3), (1.0, 1.5, 2.0));
        assert_eq!(Summary::exact(9.0).q3, 9.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        // rank 990, ten samples beyond: supported.
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        // 999 samples: rank ceil(989.01) = 990, nine beyond: refused.
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // p50 of 20 samples has exactly ten beyond; of 19, nine.
        assert_eq!(percentile(&thousand[..20], 0.5), Some(10));
        assert_eq!(percentile(&thousand[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.99), None);
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(p50(&[7]), 7);
        assert_eq!(p50(&[1, 2, 3, 4]), 2);
        assert_eq!(p50(&[1, 2, 3, 4, 5]), 3);
    }
}
