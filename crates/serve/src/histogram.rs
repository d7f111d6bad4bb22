//! A fixed-bucket log-scale latency histogram (HdrHistogram-lite).
//!
//! Latencies in a serving system span four or more orders of magnitude —
//! a buffer hit costs tens of simulated microseconds, a join that queues
//! behind a batch of cold misses costs hundreds of milliseconds — so a
//! linear histogram either wastes memory or destroys the tail. The classic
//! answer is logarithmic buckets with linear sub-buckets: values below
//! [`SUB_BUCKETS`] get exact unit buckets, and every octave above is split
//! into [`SUB_BUCKETS`] equal-width buckets, bounding the relative
//! quantile error at `1/SUB_BUCKETS` ([`RELATIVE_ERROR`]).
//!
//! The layout is fixed (976 buckets covering all of `u64`), so two
//! histograms always merge bucket-by-bucket — per-shard histograms sum
//! associatively and commutatively, which the property suite in
//! `tests/latency.rs` pins down.

use serde::Serialize;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per octave; also the first-octave exact range.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count: values `0..SUB_BUCKETS` exactly, plus
/// `SUB_BUCKETS` buckets for each of the `64 - SUB_BITS` octaves above.
pub const BUCKET_COUNT: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Worst-case relative error of a quantile estimate: a bucket at value
/// `v ≥ SUB_BUCKETS` is `2^e` wide with `v ≥ SUB_BUCKETS · 2^e`, so the
/// estimate overshoots by less than `v / SUB_BUCKETS`. Values below
/// [`SUB_BUCKETS`] are exact.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// A fixed-bucket log-scale histogram over `u64` values (simulated-time
/// latency ticks in `asb-serve`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKET_COUNT],
            total: 0,
        }
    }

    /// The bucket index of `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let exp = msb - SUB_BITS;
        ((exp as usize + 1) * SUB_BUCKETS) + ((v >> exp) as usize - SUB_BUCKETS)
    }

    /// The largest value falling into bucket `i` — what quantile queries
    /// report, so estimates never undershoot the true quantile.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < BUCKET_COUNT, "bucket index out of range");
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let exp = (i / SUB_BUCKETS - 1) as u32;
        let sub = (i % SUB_BUCKETS + SUB_BUCKETS) as u128;
        (((sub + 1) << exp) - 1) as u64
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds every bucket of `other` into `self` (the per-shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`q ∈ [0, 1]`): the upper bound of the bucket
    /// holding the `⌈q·total⌉`-th smallest observation, so the estimate
    /// is at least the exact quantile and overshoots by at most
    /// [`RELATIVE_ERROR`] relative. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKET_COUNT - 1)
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        // Every value maps into range, and bucket upper bounds grow with
        // the index; spot-check the exact low range and octave seams.
        for v in 0..64u64 {
            let i = LatencyHistogram::bucket_index(v);
            assert!(i < BUCKET_COUNT);
            assert!(v <= LatencyHistogram::bucket_upper_bound(i));
        }
        for v in [0, 15, 16, 31, 32, 33, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = LatencyHistogram::bucket_index(v);
            assert!(v <= LatencyHistogram::bucket_upper_bound(i));
            if i > 0 {
                assert!(v > LatencyHistogram::bucket_upper_bound(i - 1));
            }
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKET_COUNT - 1);
        for i in 1..BUCKET_COUNT {
            assert!(
                LatencyHistogram::bucket_upper_bound(i)
                    > LatencyHistogram::bucket_upper_bound(i - 1)
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        for v in 0..SUB_BUCKETS as u64 {
            let q = (v + 1) as f64 / SUB_BUCKETS as f64;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p999(), 0);
    }
}
