//! Graceful-degradation machinery for the serve loop: per-shard circuit
//! breakers and per-page quarantine, both driven purely by the simulated
//! clock so chaos runs stay bit-for-bit deterministic.
//!
//! The degradation contract is: **degraded ≠ incorrect**. A request that
//! cannot reach every page it wants still completes — with a *subset* of
//! the exact answer (pruned subtrees never invent results) and an
//! [`Outcome`] that tells the client exactly how much to trust it. The
//! serving layer never blocks on a failing store and never returns a
//! fabricated result.

use serde::Serialize;

/// How a completed request relates to the exact answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Outcome {
    /// Every page the request wanted was served: the answer is exact.
    Exact,
    /// At least one page was unreachable (failed slot, open breaker or
    /// quarantine); the affected subtrees were pruned. Window results are
    /// a subset of the exact answer, join counts a lower bound, k-NN
    /// results best-effort over the reachable index.
    Degraded,
    /// The request exceeded its tick budget and was force-completed with
    /// whatever it had gathered. The partial answer carries the same
    /// subset guarantee as [`Outcome::Degraded`].
    DeadlineExceeded,
}

/// Consecutive failed batches that trip a [`CircuitBreaker`] open.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// Ticks an open [`CircuitBreaker`] waits before letting one probe batch
/// through (half-open).
pub const BREAKER_COOLDOWN_TICKS: u64 = 200_000;

/// Ticks a [`Quarantine`]d (permanently failing) page waits before it is
/// eligible for a heal probe.
pub const QUARANTINE_HEAL_TICKS: u64 = 500_000;

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum BreakerState {
    /// Healthy: batches flow to the store normally.
    #[default]
    Closed,
    /// Tripped: the store is presumed down; reads are served from
    /// buffer-resident state only until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe batch is allowed through; its
    /// result decides between [`BreakerState::Closed`] and re-opening.
    HalfOpen,
}

/// A deterministic circuit breaker guarding one shard's store traffic.
///
/// Classic three-state machine on the simulated clock: `Closed` counts
/// consecutive batch failures and trips to `Open` at
/// [`BREAKER_FAILURE_THRESHOLD`]; `Open` rejects store traffic until
/// [`BREAKER_COOLDOWN_TICKS`] have elapsed, then [`allows`](CircuitBreaker::allows) moves it to
/// `HalfOpen` and admits one probe; a successful probe closes it, a
/// failed one re-opens it (restarting the cooldown). All transitions are
/// pure functions of the call sequence and the tick values passed in —
/// no wall time, no randomness — which is what lets the chaos harness
/// replay a schedule bit-for-bit. `CircuitBreaker::default()` is closed.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
    opens: u64,
}

impl CircuitBreaker {
    /// Current state, *after* applying any cooldown expiry at `now` (an
    /// open breaker whose cooldown has elapsed reports `HalfOpen`).
    pub fn state(&mut self, now: u64) -> BreakerState {
        if self.state == BreakerState::Open
            && now >= self.opened_at.saturating_add(BREAKER_COOLDOWN_TICKS)
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// Whether a store batch may be issued at `now`. `Closed` and
    /// `HalfOpen` allow (half-open traffic is the probe); `Open` denies
    /// until the cooldown expires.
    pub fn allows(&mut self, now: u64) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Records a successful batch: closes the breaker (from any state)
    /// and resets the failure streak.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed batch at `now`. In `Closed`, extends the streak
    /// and trips to `Open` at the threshold; in `HalfOpen`, the probe
    /// failed, so the breaker re-opens and the cooldown restarts.
    pub fn on_failure(&mut self, now: u64) {
        match self.state(now) {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            // invariant: callers only report batch results for batches
            // `allows` admitted, and `Open` admits none — but tolerate
            // the call (re-arm the cooldown) instead of panicking.
            BreakerState::Open => self.opened_at = now,
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.opens += 1;
    }

    /// Number of `→ Open` transitions so far (trips and failed probes).
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

/// Per-page quarantine for permanently failing pages.
///
/// A page whose fetch slot fails with a *give-up* error
/// ([`asb_storage::PageError::is_give_up`]) is quarantined: the serve
/// loop stops asking the store for it and answers requests that want it
/// as degraded instead of burning retry budget every round. After
/// [`QUARANTINE_HEAL_TICKS`], the page becomes eligible for one heal probe — the next
/// batch that wants it includes it again; success releases it, another
/// give-up re-arms the timer. `Quarantine::default()` is empty.
#[derive(Debug, Default)]
pub struct Quarantine {
    /// page id → tick at which the next heal probe is allowed.
    until: std::collections::BTreeMap<asb_storage::PageId, u64>,
    /// Distinct pages ever quarantined in this run.
    ever: std::collections::BTreeSet<asb_storage::PageId>,
}

impl Quarantine {
    /// Whether the store may be asked for `id` at `now`. `true` for
    /// unquarantined pages and for quarantined pages whose heal timer
    /// has expired (the heal probe).
    pub fn allows(&self, id: asb_storage::PageId, now: u64) -> bool {
        match self.until.get(&id) {
            Some(&until) => now >= until,
            None => true,
        }
    }

    /// Quarantines `id` at `now` (or re-arms its timer after a failed
    /// heal probe).
    pub fn put(&mut self, id: asb_storage::PageId, now: u64) {
        self.until
            .insert(id, now.saturating_add(QUARANTINE_HEAL_TICKS));
        self.ever.insert(id);
    }

    /// Releases `id` after a successful heal probe. No-op when the page
    /// was not quarantined.
    pub fn release(&mut self, id: asb_storage::PageId) {
        self.until.remove(&id);
    }

    /// Whether `id` is currently quarantined (timer expired or not).
    pub fn contains(&self, id: asb_storage::PageId) -> bool {
        self.until.contains_key(&id)
    }

    /// Distinct pages quarantined at least once during the run.
    pub fn ever_quarantined(&self) -> u64 {
        self.ever.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_storage::PageId;

    const COOLDOWN: u64 = BREAKER_COOLDOWN_TICKS;
    const HEAL: u64 = QUARANTINE_HEAL_TICKS;

    /// Feeds `n` failures at ticks `from, from + 1, …`; returns the last.
    fn fail(b: &mut CircuitBreaker, from: u64, n: u32) -> u64 {
        let last = from + u64::from(n) - 1;
        for t in from..=last {
            b.on_failure(t);
        }
        last
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::default();
        fail(&mut b, 0, BREAKER_FAILURE_THRESHOLD - 1);
        b.on_success(); // streak broken
        let t = fail(&mut b, 10, BREAKER_FAILURE_THRESHOLD - 1);
        assert_eq!(b.state(t), BreakerState::Closed);
        b.on_failure(t + 1);
        assert_eq!(b.state(t + 1), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allows(t + 2));
    }

    #[test]
    fn open_breaker_half_opens_after_cooldown_and_probe_decides() {
        let mut b = CircuitBreaker::default();
        let opened = fail(&mut b, 0, BREAKER_FAILURE_THRESHOLD);
        let probe = opened + COOLDOWN;
        assert!(!b.allows(probe - 1));
        assert!(b.allows(probe), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(probe), BreakerState::HalfOpen);
        // Failed probe re-opens and restarts the cooldown from now.
        b.on_failure(probe);
        assert_eq!(b.opens(), 2);
        assert!(!b.allows(probe + COOLDOWN - 1));
        assert!(b.allows(probe + COOLDOWN));
        b.on_success();
        assert_eq!(b.state(probe + COOLDOWN), BreakerState::Closed);
    }

    #[test]
    fn quarantine_blocks_until_heal_probe_window() {
        let mut q = Quarantine::default();
        let id = PageId::new(7);
        assert!(q.allows(id, 0));
        q.put(id, 100);
        assert!(q.contains(id));
        assert!(!q.allows(id, 100 + HEAL - 1));
        assert!(q.allows(id, 100 + HEAL), "heal probe due");
        // Failed probe re-arms; successful probe releases.
        q.put(id, 100 + HEAL);
        assert!(!q.allows(id, 100 + 2 * HEAL - 1));
        q.release(id);
        assert!(q.allows(id, 200 + HEAL));
        assert!(!q.contains(id));
        assert_eq!(q.ever_quarantined(), 1, "re-arms count one page once");
    }
}
