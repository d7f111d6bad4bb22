//! Bounded-retry policy for transient storage faults.
//!
//! The buffer layer in `asb-core` consults a [`RetryPolicy`] whenever a
//! fetch or write-back fails with a [transient](crate::StorageError::is_transient)
//! error: the operation is re-attempted up to a bounded number of times with
//! exponential backoff, and a final failure is surfaced as the typed
//! give-up error [`StorageError::RetriesExhausted`](crate::StorageError::RetriesExhausted).
//!
//! The disk in this workspace is simulated, so backoff does not sleep;
//! the waiting time a real deployment would spend is *accounted* (in
//! simulated milliseconds) alongside the disk's own timing model.

use serde::Serialize;

/// Retry schedule for transient storage faults.
///
/// `max_attempts` counts every try including the first, so `1` means "no
/// retries" and `4` means "one try plus up to three retries". Backoff before
/// retry `n` (1-based) is `base_backoff_ms * backoff_multiplier^(n-1)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total attempt budget (≥ 1; zero is treated as 1).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in milliseconds.
    pub base_backoff_ms: f64,
    /// Multiplier applied to the backoff after every failed retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    /// Four attempts with 0.5 ms → 1 ms → 2 ms backoff: bounded, and small
    /// next to the ~10 ms random-access cost of the simulated disk.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 0.5,
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault is surfaced
    /// immediately (wrapped in the give-up error after the single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0.0,
            backoff_multiplier: 1.0,
        }
    }

    /// The effective attempt budget (at least 1).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Simulated backoff in milliseconds before retry number
    /// `failed_attempts` (the number of attempts that have already failed;
    /// zero yields no backoff).
    pub fn backoff_ms(&self, failed_attempts: u32) -> f64 {
        if failed_attempts == 0 {
            return 0.0;
        }
        // Saturate the exponent: a raw `as i32` cast wraps for counts past
        // i32::MAX, turning a huge retry number into a *negative* exponent
        // and collapsing the backoff to ~zero instead of growing it.
        let exponent = i32::try_from(failed_attempts - 1).unwrap_or(i32::MAX);
        self.base_backoff_ms * self.backoff_multiplier.powi(exponent)
    }

    /// Total simulated backoff if every retry of the budget is used.
    pub fn worst_case_backoff_ms(&self) -> f64 {
        (1..self.attempts()).map(|n| self.backoff_ms(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_bounded() {
        let r = RetryPolicy::default();
        assert_eq!(r.attempts(), 4);
        assert_eq!(r.backoff_ms(0), 0.0);
        assert_eq!(r.backoff_ms(1), 0.5);
        assert_eq!(r.backoff_ms(2), 1.0);
        assert_eq!(r.backoff_ms(3), 2.0);
        assert_eq!(r.worst_case_backoff_ms(), 3.5);
    }

    #[test]
    fn none_never_retries() {
        let r = RetryPolicy::none();
        assert_eq!(r.attempts(), 1);
        assert_eq!(r.worst_case_backoff_ms(), 0.0);
    }

    #[test]
    fn zero_attempts_means_one() {
        let r = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(r.attempts(), 1);
    }

    #[test]
    fn zero_attempts_policy_still_backs_off_sanely() {
        let r = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        // With an effective budget of one attempt there are no retries, so
        // the worst-case backoff sums over an empty range.
        assert_eq!(r.worst_case_backoff_ms(), 0.0);
        assert_eq!(r.backoff_ms(0), 0.0);
    }

    #[test]
    fn huge_failed_attempt_counts_saturate_instead_of_wrapping() {
        let r = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_ms: 1.0,
            backoff_multiplier: 2.0,
        };
        // The exponent saturates at i32::MAX: 2^huge overflows f64 to
        // infinity, which is monotone — never the near-zero backoff a
        // wrapped negative exponent would produce.
        let at_limit = r.backoff_ms(i32::MAX as u32 + 1);
        let past_limit = r.backoff_ms(u32::MAX);
        assert!(at_limit.is_infinite() && at_limit > 0.0);
        assert_eq!(at_limit, past_limit, "saturated exponent is stable");
        assert!(
            r.backoff_ms(u32::MAX) >= r.backoff_ms(40),
            "backoff must stay monotone in the failure count"
        );
    }

    #[test]
    fn multiplier_one_keeps_backoff_flat_for_any_count() {
        let r = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_ms: 2.5,
            backoff_multiplier: 1.0,
        };
        assert_eq!(r.backoff_ms(1), 2.5);
        assert_eq!(r.backoff_ms(u32::MAX), 2.5);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1.0,
            backoff_multiplier: 3.0,
        };
        assert_eq!(r.backoff_ms(1), 1.0);
        assert_eq!(r.backoff_ms(2), 3.0);
        assert_eq!(r.backoff_ms(3), 9.0);
        assert_eq!(r.worst_case_backoff_ms(), 1.0 + 3.0 + 9.0 + 27.0);
    }
}
