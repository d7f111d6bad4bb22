//! Graceful-degradation machinery for the serve loop: the [`Outcome`] a
//! response carries, and per-page quarantine driven purely by the
//! simulated clock, so chaos runs stay bit-for-bit deterministic.
//!
//! The degradation contract is: **degraded ≠ incorrect**. A request that
//! cannot reach every page it wants still completes — with a *subset* of
//! the exact answer (pruned subtrees never invent results) and an
//! [`Outcome`] that tells the client exactly how much to trust it. The
//! serving layer never blocks on a failing store and never returns a
//! fabricated result.
//!
//! Quarantine is the only mechanism that stops the loop asking a failing
//! store, and it works per page. A give-up is the pool's verdict after its
//! own retries, and a permanent failure is refused at once, without a
//! retry and without simulated time; quarantine then skips that page for a
//! whole heal window. A shard whose every page is dead therefore costs at
//! most one cheap refusal per dead page per window, which is why the loop
//! has no per-shard breaker on top (DESIGN §9).

use serde::Serialize;

/// How a completed request relates to the exact answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Outcome {
    /// Every page the request wanted was served: the answer is exact.
    Exact,
    /// At least one page was unreachable (a failed slot, or a page in
    /// quarantine); the affected subtrees were pruned. Window results are
    /// a subset of the exact answer, join counts a lower bound, k-NN
    /// results best-effort over the reachable index.
    Degraded,
    /// The request exceeded its tick budget and was force-completed with
    /// whatever it had gathered. The partial answer carries the same
    /// subset guarantee as [`Outcome::Degraded`].
    DeadlineExceeded,
}

/// Ticks a quarantined (permanently failing) page waits before it is
/// eligible for a heal probe.
pub const QUARANTINE_HEAL_TICKS: u64 = 500_000;

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
pub(crate) struct Quarantine {
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

    /// Distinct pages quarantined at least once during the run.
    pub fn ever_quarantined(&self) -> u64 {
        self.ever.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_storage::PageId;

    const HEAL: u64 = QUARANTINE_HEAL_TICKS;

    #[test]
    fn quarantine_blocks_until_heal_probe_window() {
        let mut q = Quarantine::default();
        let id = PageId::new(7);
        assert!(q.allows(id, 0));
        q.put(id, 100);
        assert!(!q.allows(id, 100 + HEAL - 1));
        assert!(q.allows(id, 100 + HEAL), "heal probe due");
        // Failed probe re-arms; successful probe releases.
        q.put(id, 100 + HEAL);
        assert!(!q.allows(id, 100 + 2 * HEAL - 1));
        q.release(id);
        assert!(q.allows(id, 200 + HEAL), "released before its timer");
        assert_eq!(q.ever_quarantined(), 1, "re-arms count one page once");
    }
}
