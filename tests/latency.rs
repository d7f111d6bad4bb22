//! Property-based tests for the serving layer's latency percentiles
//! (`asb::serve::percentile`): the log-bucket rounding must stay within
//! its advertised relative error of the exact quantile, and percentiles
//! must be monotone.

use asb::serve::{percentile, RELATIVE_ERROR, SUB_BUCKETS};
use proptest::prelude::*;

/// Latency samples spanning the scales the serving engine produces:
/// sub-bucket exact values, mid-range ticks, and heavy-tail outliers.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..16,
            16u64..4096,
            4096u64..1_000_000,
            1_000_000u64..u64::MAX / 2,
        ],
        1..200,
    )
    .prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// The exact `q`-quantile of a sorted value set: the `⌈q·n⌉`-th smallest
/// value, matching [`percentile`]'s rank convention.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A percentile never undershoots the exact quantile (it reports a
    /// bucket's top) and overshoots by at most one bucket's width: exact
    /// below [`SUB_BUCKETS`], within [`RELATIVE_ERROR`] relative above.
    #[test]
    fn quantiles_are_within_one_bucket(sorted in samples(), qs in prop::collection::vec(0.0f64..1.0, 1..8)) {
        for q in qs {
            let est = percentile(&sorted, q);
            let exact = exact_quantile(&sorted, q);
            prop_assert!(est >= exact, "q={q}: estimate {est} under exact {exact}");
            if exact < SUB_BUCKETS as u64 {
                prop_assert_eq!(est, exact, "sub-bucket values are exact");
            } else {
                let err = est - exact;
                prop_assert!(
                    (err as f64) <= exact as f64 * RELATIVE_ERROR,
                    "q={q}: estimate {est} vs exact {exact} (err {err})"
                );
            }
        }
    }

    /// Percentiles are monotone in the quantile: p50 ≤ p99 ≤ p999 ≤ max.
    #[test]
    fn percentiles_are_monotone(sorted in samples()) {
        let [p50, p99, p999] = [0.50, 0.99, 0.999].map(|q| percentile(&sorted, q));
        prop_assert!(p50 <= p99);
        prop_assert!(p99 <= p999);
        let max = *sorted.last().expect("non-empty");
        // p999 reports max's bucket top at worst.
        let bound = if max < SUB_BUCKETS as u64 {
            max
        } else {
            max + (max as f64 * RELATIVE_ERROR) as u64
        };
        prop_assert!(p999 <= bound, "p999 {p999} vs max {max}");
    }
}
