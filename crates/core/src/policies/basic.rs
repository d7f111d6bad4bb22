//! Classic history-only baselines: LRU, FIFO and CLOCK.

use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_storage::{AccessContext, Page, PageId};

/// Least-recently-used replacement — the paper's baseline against which all
/// gains are reported.
#[derive(Debug, Default)]
pub(crate) struct LruPolicy {
    order: LinkedOrder<PageId>,
}

impl ReplacementPolicy for LruPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id, ());
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.move_to_back(&page.id);
    }

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.order.keys().find(|&id| evictable(id))
    }
}

/// First-in-first-out replacement: hits do not refresh a page's position.
#[derive(Debug, Default)]
pub(crate) struct FifoPolicy {
    order: LinkedOrder<PageId>,
}

impl ReplacementPolicy for FifoPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id, ());
    }

    fn on_hit(&mut self, _page: &Page, _ctx: AccessContext, _now: u64) {}

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.order.keys().find(|&id| evictable(id))
    }
}

/// Second-chance (CLOCK) replacement: an approximation of LRU with one
/// reference bit per page, kept in the page's entry of the clock order.
#[derive(Debug, Default)]
pub(crate) struct ClockPolicy {
    order: LinkedOrder<PageId, bool>,
}

impl ReplacementPolicy for ClockPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id, false);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if let Some(referenced) = self.order.get_mut(&page.id) {
            *referenced = true;
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Two sweeps suffice: the first clears reference bits, the second
        // must find a victim (the manager guarantees one evictable page).
        let limit = self.order.len() * 2 + 1;
        for _ in 0..limit {
            let hand = self.order.front()?;
            if evictable(hand) {
                let referenced = self.order.get_mut(&hand)?;
                if !*referenced {
                    return Some(hand);
                }
                *referenced = false;
            }
            self.order.move_to_back(&hand);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixtures::{all, ctx, page};

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = LruPolicy::default();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn lru_skips_unevictable() {
        let mut p = LruPolicy::default();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        let v = p.select_victim(ctx(), &|id| id != PageId::new(0));
        assert_eq!(v, Some(PageId::new(1)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::default();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::default();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        // Page 0 is referenced: the hand clears its bit and advances to 1.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
        p.on_remove(PageId::new(1));
        // The hand moved past page 0 (now at the back with a cleared bit),
        // so page 2 is next, then page 0.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        p.on_remove(PageId::new(2));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
    }

    #[test]
    fn remove_unknown_is_noop() {
        let mut p = LruPolicy::default();
        p.on_insert(&page(1), ctx(), 1);
        p.on_remove(PageId::new(99));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }
}
