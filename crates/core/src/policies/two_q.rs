//! The 2Q replacement policy (Johnson & Shasha, VLDB 1994) — a classic
//! LRU-K alternative included as an additional baseline.
//!
//! 2Q approximates LRU-2 at constant cost: newly admitted pages enter a
//! FIFO probation queue `A1in`; pages evicted from probation leave only a
//! *ghost* entry (their id) in `A1out`; a page re-fetched while its ghost
//! is remembered is promoted into the protected LRU queue `Am`. Unlike
//! LRU-K's unbounded retained history, the ghost queue is bounded — a
//! middle ground between LRU-K and the history-free ASB.

use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_storage::{AccessContext, Page, PageId};

/// 2Q with the paper-recommended sizing: `Kin` = 25 % of the buffer,
/// `Kout` = 50 % of the buffer (ghost ids).
#[derive(Debug)]
pub(crate) struct TwoQPolicy {
    kin: usize,
    kout: usize,
    /// FIFO probation queue (resident).
    a1in: LinkedOrder<PageId>,
    /// Ghost queue of recently evicted probation pages (ids only).
    a1out: LinkedOrder<PageId>,
    /// Protected LRU queue (resident).
    am: LinkedOrder<PageId>,
}

impl TwoQPolicy {
    /// Creates a 2Q policy for a buffer of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        TwoQPolicy {
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: LinkedOrder::default(),
            a1out: LinkedOrder::default(),
            am: LinkedOrder::default(),
        }
    }
}

impl ReplacementPolicy for TwoQPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if self.a1out.remove(&page.id).is_some() {
            // Remembered ghost: the page proved re-use, protect it.
            self.am.push_back(page.id, ());
        } else {
            self.a1in.push_back(page.id, ());
        }
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        // Hits inside A1in do not move the page: correlated references to a
        // fresh page should not promote it (same intuition as LRU-K).
        self.am.move_to_back(&page.id);
    }

    fn on_remove(&mut self, id: PageId) {
        if self.a1in.remove(&id).is_some() {
            // Leaving probation: remember the ghost.
            self.a1out.push_back(id, ());
            while self.a1out.len() > self.kout {
                self.a1out.pop_front();
            }
        } else {
            self.am.remove(&id);
        }
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Prefer shrinking an oversized probation queue; otherwise evict
        // from the protected queue, falling back to probation if the
        // protected queue is empty or fully pinned.
        let first = |queue: &LinkedOrder<PageId>| queue.keys().find(|&id| evictable(id));
        if self.a1in.len() > self.kin {
            if let Some(id) = first(&self.a1in) {
                return Some(id);
            }
        }
        first(&self.am).or_else(|| first(&self.a1in))
    }

    fn retained_history(&self) -> usize {
        self.a1out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixtures::{all, ctx, page};

    #[test]
    fn fresh_pages_go_to_probation_and_leave_ghosts() {
        let mut p = TwoQPolicy::new(8); // kin 2, kout 4
        for i in 0..4 {
            p.on_insert(&page(i), ctx(), i);
        }
        // Probation oversized: FIFO head is the victim.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
        p.on_remove(PageId::new(0));
        assert_eq!(p.retained_history(), 1, "ghost remembered");
    }

    #[test]
    fn ghost_readmission_promotes_to_protected() {
        let mut p = TwoQPolicy::new(8);
        p.on_insert(&page(1), ctx(), 1);
        p.on_remove(PageId::new(1)); // ghost
        p.on_insert(&page(1), ctx(), 2); // readmission
        assert!(p.am.contains(&PageId::new(1)));
        assert_eq!(p.retained_history(), 0, "ghost consumed");
        // A protected page outlives probation churn.
        for i in 10..13 {
            p.on_insert(&page(i), ctx(), i);
        }
        assert_ne!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn probation_hits_do_not_promote() {
        let mut p = TwoQPolicy::new(8);
        p.on_insert(&page(1), ctx(), 1);
        p.on_hit(&page(1), ctx(), 2);
        assert!(p.a1in.contains(&PageId::new(1)));
        assert!(!p.am.contains(&PageId::new(1)));
    }

    #[test]
    fn ghost_queue_is_bounded() {
        let mut p = TwoQPolicy::new(8); // kout 4
        for i in 0..20 {
            p.on_insert(&page(i), ctx(), i);
            p.on_remove(PageId::new(i));
        }
        assert_eq!(p.retained_history(), 4, "ghosts are trimmed to kout");
    }

    #[test]
    fn protected_queue_evicts_lru() {
        let mut p = TwoQPolicy::new(8); // kin 2
                                        // Promote three pages into Am via ghosts.
        for i in 0..3u64 {
            p.on_insert(&page(i), ctx(), i);
            p.on_remove(PageId::new(i));
            p.on_insert(&page(i), ctx(), 10 + i);
        }
        p.on_hit(&page(0), ctx(), 20);
        // Probation is empty; Am's LRU (page 1) goes first.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn respects_evictable_filter() {
        let mut p = TwoQPolicy::new(4); // kin 1
        p.on_insert(&page(1), ctx(), 1);
        p.on_insert(&page(2), ctx(), 2);
        let v = p.select_victim(ctx(), &|id| id != PageId::new(1));
        assert_eq!(v, Some(PageId::new(2)));
    }
}
