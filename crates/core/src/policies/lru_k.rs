//! The LRU-K page-replacement algorithm of O'Neil, O'Neil and Weikum
//! (SIGMOD 1993), as recapped in Section 2.2 of the EDBT 2002 paper.

use crate::order::IdMap;
use crate::policy::ReplacementPolicy;
use asb_storage::{AccessContext, Page, PageId, QueryId};
use std::collections::BTreeSet;

/// A resident page's place in victim order: `HIST(p,K)` (`None`, fewer
/// than K references, sorts first), then the last access, then the page id.
type Rank = (Option<u64>, u64, PageId);

/// Reference history of one page: `HIST(p)` of the paper.
#[derive(Debug, Clone)]
struct Hist {
    /// Time stamps of the K most recent *uncorrelated* references,
    /// `times[0]` = HIST(p,1) (most recent), `times[k-1]` = HIST(p,K).
    times: Vec<u64>,
    /// Query of the most recent reference, for correlation detection.
    last_query: QueryId,
    /// Tick of the most recent reference (correlated or not); breaks ties
    /// between pages with equal HIST(p,K) by plain LRU.
    last_access: u64,
    /// Whether the page is resident, and so filed in `resident`.
    resident: bool,
}

impl Hist {
    /// The page's place in victim order under LRU-`k`.
    fn rank(&self, k: usize, id: PageId) -> Rank {
        (self.times.get(k - 1).copied(), self.last_access, id)
    }
}

/// LRU-K replacement.
///
/// The buffer evicts the page with the oldest K-th most recent uncorrelated
/// reference. Two accesses are *correlated* when they belong to the same
/// query (the definition the EDBT paper adopts); a correlated re-reference
/// only refreshes `HIST(p,1)` instead of pushing a new entry.
///
/// Following the original algorithm — and the EDBT paper's critique — the
/// history `HIST(p)` of a page is **retained after eviction**, so a reloaded
/// page resumes its history. [`retained_history`](ReplacementPolicy::retained_history)
/// reports how many such ghost records exist; this is the memory overhead
/// that the adaptable spatial buffer avoids.
#[derive(Debug)]
pub(crate) struct LruKPolicy {
    k: usize,
    history: IdMap<PageId, Hist>,
    /// Resident pages in victim order, oldest `HIST(p,K)` first. The page
    /// id settles full HIST ties (possible when a batched fetch admits
    /// several pages at one tick) the same way in every process — hash
    /// order would break byte-reproducible benchmarks.
    resident: BTreeSet<Rank>,
}

impl LruKPolicy {
    /// Creates an LRU-K policy. `k == 1` degenerates to plain LRU (with
    /// correlated references collapsed); the paper evaluates K ∈ {2, 3, 5}.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "LRU-K requires K >= 1");
        LruKPolicy {
            k,
            history: IdMap::default(),
            resident: BTreeSet::new(),
        }
    }

    /// Records a reference to `id`, re-filing it in `resident` if it is
    /// resident or being `admit`ted.
    fn record(&mut self, id: PageId, ctx: AccessContext, now: u64, admit: bool) {
        let k = self.k;
        let hist = self.history.entry(id).or_insert_with(|| Hist {
            times: Vec::with_capacity(k),
            last_query: ctx.query,
            last_access: 0,
            resident: false,
        });
        if hist.resident {
            self.resident.remove(&hist.rank(k, id));
        }
        hist.resident |= admit;
        if hist.times.is_empty() {
            hist.times.push(now);
        } else if hist.last_query == ctx.query {
            // Correlated with the previous reference: HIST(p,1) gets the
            // value of the current time.
            hist.times[0] = now;
        } else {
            // Uncorrelated: the current time is added as the new HIST(p,1).
            hist.times.insert(0, now);
            hist.times.truncate(k);
        }
        hist.last_query = ctx.query;
        hist.last_access = now;
        if hist.resident {
            self.resident.insert(hist.rank(k, id));
        }
    }

    /// Backward K-distance key: the timestamp of `HIST(p,K)`, or `None`
    /// (= infinitely old) if fewer than K uncorrelated references exist.
    #[cfg(test)]
    fn hist_k(&self, id: &PageId) -> Option<u64> {
        self.history
            .get(id)
            .and_then(|h| h.times.get(self.k - 1).copied())
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn on_insert(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.record(page.id, ctx, now, true);
    }

    fn on_hit(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.record(page.id, ctx, now, false);
    }

    fn on_remove(&mut self, id: PageId) {
        // The page leaves the buffer but its history is retained.
        if let Some(hist) = self.history.get_mut(&id) {
            if std::mem::take(&mut hist.resident) {
                self.resident.remove(&hist.rank(self.k, id));
            }
        }
    }

    fn select_victim(
        &mut self,
        ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // "Among the pages in the buffer whose most recent reference is not
        // correlated to the access to p, the page q with the oldest value of
        // HIST(q,k) is determined." `resident` is in that order, ties
        // broken by plain LRU on the last access.
        let mut first_evictable = None;
        for &(_, _, id) in &self.resident {
            if !evictable(id) {
                continue;
            }
            if (self.history.get(&id)).is_some_and(|hist| hist.last_query != ctx.query) {
                return Some(id);
            }
            first_evictable.get_or_insert(id);
        }
        // Every evictable page was touched by the current query: ignore
        // the correlation filter (one of the "special cases" footnote 2 of
        // the paper waves at).
        first_evictable
    }

    fn retained_history(&self) -> usize {
        self.history.len() - self.resident.len()
    }

    fn retain_history(&mut self, live: &dyn Fn(PageId) -> bool) {
        // Resident pages always keep their history; ghost records survive
        // only while the host still considers the page live. This is the
        // hook that lets the arena keep LRU-K's otherwise unbounded HIST
        // within a fixed budget.
        self.history.retain(|&id, hist| hist.resident || live(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixtures::{all, page, q};

    #[test]
    #[should_panic(expected = "K >= 1")]
    fn zero_k_is_rejected() {
        let _ = LruKPolicy::new(0);
    }

    #[test]
    fn correlated_accesses_collapse_into_one_reference() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(&page(1), q(1), 1);
        // Same query: refreshes HIST(p,1), does not create a second entry.
        p.on_hit(&page(1), q(1), 2);
        p.on_hit(&page(1), q(1), 3);
        assert_eq!(
            p.hist_k(&PageId::new(1)),
            None,
            "only one uncorrelated reference"
        );
        // Different query: now there are two.
        p.on_hit(&page(1), q(2), 4);
        assert_eq!(p.hist_k(&PageId::new(1)), Some(3));
    }

    #[test]
    fn pages_with_fewer_than_k_references_go_first() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(&page(1), q(1), 1);
        p.on_hit(&page(1), q(2), 2); // page 1 has 2 uncorrelated refs
        p.on_insert(&page(2), q(3), 3); // page 2 has 1
                                        // Victim selection happens for an access of a later query (q4).
        assert_eq!(p.select_victim(q(4), &all), Some(PageId::new(2)));
    }

    #[test]
    fn victim_has_oldest_hist_k() {
        let mut p = LruKPolicy::new(2);
        // Page 1: refs at 1 and 10 -> HIST(1,2) = 1.
        p.on_insert(&page(1), q(1), 1);
        p.on_hit(&page(1), q(4), 10);
        // Page 2: refs at 5 and 6 -> HIST(2,2) = 5.
        p.on_insert(&page(2), q(2), 5);
        p.on_hit(&page(2), q(3), 6);
        // Plain LRU would evict page 2 (last access 6 < 10); LRU-2 evicts
        // page 1 because its second-most-recent reference is older.
        assert_eq!(p.select_victim(q(9), &all), Some(PageId::new(1)));
    }

    #[test]
    fn pages_of_current_query_are_protected() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(&page(1), q(5), 1); // touched by the current query 5
        p.on_insert(&page(2), q(2), 2);
        p.on_hit(&page(2), q(3), 3);
        // Page 1 has < K references (normally evicted first) but belongs to
        // the running query, so page 2 is chosen.
        assert_eq!(p.select_victim(q(5), &all), Some(PageId::new(2)));
    }

    #[test]
    fn correlation_filter_falls_back_when_everything_is_correlated() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(&page(1), q(5), 1);
        p.on_insert(&page(2), q(5), 2);
        assert!(p.select_victim(q(5), &all).is_some());
    }

    #[test]
    fn history_is_retained_across_eviction() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(&page(1), q(1), 1);
        p.on_hit(&page(1), q(2), 2);
        p.on_remove(PageId::new(1));
        assert_eq!(p.retained_history(), 1);
        // Reloaded: the old history is still there, one more uncorrelated
        // reference shifts HIST(1,2) to the previous HIST(1,1).
        p.on_insert(&page(1), q(3), 9);
        assert_eq!(p.retained_history(), 0);
        assert_eq!(p.hist_k(&PageId::new(1)), Some(2));
    }

    #[test]
    fn lru_1_behaves_like_lru_for_uncorrelated_traces() {
        let mut p = LruKPolicy::new(1);
        p.on_insert(&page(1), q(1), 1);
        p.on_insert(&page(2), q(2), 2);
        p.on_hit(&page(1), q(3), 3);
        assert_eq!(p.select_victim(q(4), &all), Some(PageId::new(2)));
    }

    #[test]
    fn tie_on_hist_k_breaks_by_lru() {
        let mut p = LruKPolicy::new(2);
        // Both pages end up with < K refs (key None); older last access loses.
        p.on_insert(&page(1), q(1), 1);
        p.on_insert(&page(2), q(2), 2);
        assert_eq!(p.select_victim(q(3), &all), Some(PageId::new(1)));
    }
}
