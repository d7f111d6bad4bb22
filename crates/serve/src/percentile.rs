//! Log-bucketed latency percentiles (HdrHistogram's rounding, without
//! the histogram).
//!
//! Latencies in a serving system span four or more orders of magnitude —
//! a buffer hit costs tens of simulated microseconds, a join that queues
//! behind a batch of cold misses costs hundreds of milliseconds — so a
//! reported percentile is rounded to a log-scale grid: values below
//! [`SUB_BUCKETS`] are exact, and every octave above is split into
//! [`SUB_BUCKETS`] equal-width buckets. [`percentile`] reports the top of
//! the bucket holding the exact percentile, so it never undershoots and
//! overshoots by at most [`RELATIVE_ERROR`] relative; `tests/latency.rs`
//! holds both bounds.

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per octave; also the first-octave exact range.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Worst-case relative error of a percentile: a bucket at value
/// `v ≥ SUB_BUCKETS` is `2^e` wide with `v ≥ SUB_BUCKETS · 2^e`, so the
/// estimate overshoots by less than `v / SUB_BUCKETS`. Values below
/// [`SUB_BUCKETS`] are exact.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// The `q`-quantile (`q ∈ [0, 1]`) of ascending `sorted`: the
/// `⌈q·n⌉`-th smallest value, rounded up to the top of its
/// `1/SUB_BUCKETS`-octave bucket (`v | (2^(⌊log2 v⌋ − SUB_BITS) − 1)` for
/// `v ≥ SUB_BUCKETS`). Returns 0 on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let v = sorted[rank - 1];
    if v < SUB_BUCKETS as u64 {
        return v;
    }
    let width_bits = 63 - v.leading_zeros() - SUB_BITS;
    v | ((1 << width_bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let values: Vec<u64> = (0..SUB_BUCKETS as u64).collect();
        for v in 0..SUB_BUCKETS as u64 {
            let q = (v + 1) as f64 / SUB_BUCKETS as f64;
            assert_eq!(percentile(&values, q), v);
        }
    }

    #[test]
    fn values_round_up_to_their_bucket_top() {
        // 16..32 are exact (unit-wide buckets); 32..64 pair up; the top of
        // `u64` stays put.
        for (v, top) in [
            (16, 16),
            (31, 31),
            (32, 33),
            (33, 33),
            (1 << 20, (1 << 20) + (1 << 16) - 1),
            (u64::MAX, u64::MAX),
        ] {
            assert_eq!(percentile(&[v], 0.5), top, "{v}");
        }
    }

    #[test]
    fn empty_input_reports_zero() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[], 0.999), 0);
    }
}
