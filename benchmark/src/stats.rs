//! Order statistics over small samples: the percentile picker every
//! latency metric goes through, and the median/quartile summary every
//! timing metric is reported as.

/// The `p`-th percentile (`0 < p <= 100`) of an ascending-sorted sample by
/// the nearest-rank rule: the smallest value with at least `p` % of the
/// sample at or below it. No interpolation, so the answer is always a value
/// that was measured.
///
/// # Panics
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, quartiles and raw values of one metric over the reps of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarises `values` (kept in measurement order). Quartiles are
    /// linearly interpolated between order statistics (the "inclusive"
    /// method); with one value all three coincide.
    pub fn of(values: Vec<f64>) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            values,
        }
    }

    /// A metric that is the same exact count on every rep.
    pub fn exact(value: f64) -> Summary {
        Summary::of(vec![value])
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Arithmetic mean; 0 for an empty sample (a layer the workload never hit).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a sample of durations, in the sample's unit.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values.to_vec()).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 99.9), 100);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.5), 1);
        // 1 000 samples leave exactly ten beyond p99.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(v.iter().filter(|&&x| x > 990).count(), 10);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
        assert_eq!(percentile_sorted(&[1, 9], 50.0), 1);
        assert_eq!(percentile_sorted(&[1, 9], 51.0), 9);
    }

    #[test]
    fn summary_interpolates_quartiles() {
        let s = Summary::of(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(s.values, vec![4.0, 1.0, 3.0, 2.0, 5.0], "order kept");
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert!((s.spread() - 0.6).abs() < 1e-12);
        let s = Summary::exact(9.0);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (9.0, 9.0, 9.0, 0.0));
    }
}
