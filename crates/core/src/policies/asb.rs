//! The adaptable spatial buffer (Section 4.2 of the paper) — the paper's
//! headline contribution.

use super::slru::{page_criterion, RankedPrefix};
use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId};
use serde::Serialize;

/// Tuning parameters of the adaptable spatial buffer
/// ([`PolicyKind::AsbWith`](crate::PolicyKind::AsbWith)).
///
/// The defaults are the paper's experimental settings: "the size of the
/// overflow buffer has been 20 % of the complete buffer. The initial size of
/// the candidate set has been 25 % of the remaining buffer. The size of the
/// candidate set has been changed in steps of 1 % of the remaining buffer."
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AsbParams {
    /// Fraction of the total buffer reserved for the FIFO overflow buffer.
    pub overflow_fraction: f64,
    /// Initial candidate-set size as a fraction of the main (remaining)
    /// buffer.
    pub initial_candidate_fraction: f64,
    /// Adaptation step as a fraction of the main buffer.
    pub step_fraction: f64,
    /// Spatial criterion used to pick pages out of the candidate set.
    pub criterion: SpatialCriterion,
}

impl Default for AsbParams {
    fn default() -> Self {
        AsbParams {
            overflow_fraction: 0.2,
            initial_candidate_fraction: 0.25,
            step_fraction: 0.01,
            criterion: SpatialCriterion::Area,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PageInfo {
    crit: f64,
    last_access: u64,
}

/// The **adaptable spatial buffer (ASB)**.
///
/// The buffer is split into a *main part* (managed like SLRU: LRU proposes
/// a candidate set, the spatial criterion picks from it) and a FIFO
/// *overflow buffer* holding pages that the main part has already dropped.
/// Because the overflow buffer is carved out of the configured capacity,
/// memory requirements do not grow — the paper's counterpoint to LRU-K's
/// unbounded history.
///
/// Self-tuning happens on overflow hits. When a requested page `p` is found
/// in the overflow buffer it is promoted back into the main part, and the
/// candidate-set size `c` adapts:
///
/// * more overflow pages beat `p` on the **spatial** criterion than on the
///   LRU criterion ⇒ the spatial strategy misjudged `p` ⇒ LRU seems more
///   suitable ⇒ **decrease** `c`;
/// * more overflow pages beat `p` on the **LRU** criterion ⇒ the spatial
///   strategy seems more suitable ⇒ **increase** `c`;
/// * equal counts ⇒ `c` is unchanged.
///
/// `c` is clamped to `[1, main buffer size]`; with `c = 1` the buffer
/// behaves like LRU, with `c =` main size like the pure spatial policy.
#[derive(Debug)]
pub(crate) struct AsbPolicy {
    criterion: SpatialCriterion,
    main_cap: usize,
    overflow_cap: usize,
    candidate: usize,
    step: usize,
    /// LRU order of the main part (front = least recently used), its
    /// first `candidate` pages ranked; the value is the last access.
    main: RankedPrefix<u64>,
    /// FIFO order of the overflow buffer (front = first in, next victim).
    /// A page's entry moves between the two parts with the page.
    overflow: LinkedOrder<PageId, PageInfo>,
}

impl AsbPolicy {
    /// Creates an ASB policy for a buffer of `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or any fraction is out of range
    /// (`overflow_fraction` in `[0, 1)`, the others in `(0, 1]`).
    pub fn new(capacity: usize, params: AsbParams) -> Self {
        assert!(capacity > 0, "ASB requires a non-empty buffer");
        assert!(
            (0.0..1.0).contains(&params.overflow_fraction),
            "overflow fraction must be in [0, 1)"
        );
        assert!(
            params.initial_candidate_fraction > 0.0 && params.initial_candidate_fraction <= 1.0,
            "initial candidate fraction must be in (0, 1]"
        );
        assert!(
            params.step_fraction > 0.0 && params.step_fraction <= 1.0,
            "step fraction must be in (0, 1]"
        );
        // The main part keeps at least one page.
        let overflow_cap =
            ((capacity as f64 * params.overflow_fraction).round() as usize).min(capacity - 1);
        let main_cap = capacity - overflow_cap;
        let candidate = ((main_cap as f64 * params.initial_candidate_fraction).round() as usize)
            .clamp(1, main_cap);
        let step = ((main_cap as f64 * params.step_fraction).round() as usize).max(1);
        AsbPolicy {
            criterion: params.criterion,
            main_cap,
            overflow_cap,
            candidate,
            step,
            main: RankedPrefix::new(candidate),
            overflow: LinkedOrder::default(),
        }
    }

    /// Files `id` at the MRU end of the main part; if that overfills it,
    /// the main part's victim (the SLRU rule over the first `candidate`
    /// pages) moves into the overflow buffer.
    fn enter_main(&mut self, id: PageId, info: PageInfo) {
        self.main.push_back(id, info.crit, info.last_access);
        if self.main.len() > self.main_cap {
            if let Some(id) = self.main.min() {
                if let Some((crit, last_access)) = self.main.remove(id) {
                    self.overflow.push_back(id, PageInfo { crit, last_access });
                }
            }
        }
    }

    /// Applies the self-tuning rule for a hit on overflow page `p`.
    fn adapt(&mut self, p: PageId) {
        let Some(&me) = self.overflow.get(&p) else {
            return;
        };
        let (mut better_spatial, mut better_lru) = (0usize, 0usize);
        for (_, other) in self.overflow.iter().filter(|&(id, _)| id != p) {
            better_spatial += usize::from(other.crit > me.crit);
            better_lru += usize::from(other.last_access > me.last_access);
        }
        if better_spatial > better_lru {
            // LRU seems more suitable: shrink the candidate set.
            self.candidate = self.candidate.saturating_sub(self.step).max(1);
        } else if better_spatial < better_lru {
            // The spatial strategy seems more suitable: grow it.
            self.candidate = (self.candidate + self.step).min(self.main_cap);
        }
        self.main.set_limit(self.candidate);
    }
}

impl ReplacementPolicy for AsbPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, now: u64) {
        let info = PageInfo {
            crit: page_criterion(page, self.criterion),
            last_access: now,
        };
        self.enter_main(page.id, info);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, now: u64) {
        let id = page.id;
        if self.main.touch(id, |last_access| *last_access = now) {
            return;
        }
        // Self-tuning happens *before* the promotion, while p's recorded
        // recency still reflects its history in the overflow buffer.
        self.adapt(id);
        if let Some(info) = self.overflow.remove(&id) {
            let info = PageInfo {
                last_access: now,
                ..info
            };
            self.enter_main(id, info);
        }
    }

    fn on_update(&mut self, page: &Page) {
        let crit = page_criterion(page, self.criterion);
        if !self.main.set_crit(page.id, crit) {
            if let Some(info) = self.overflow.get_mut(&page.id) {
                info.crit = crit;
            }
        }
    }

    fn on_remove(&mut self, id: PageId) {
        if self.overflow.remove(&id).is_none() {
            self.main.remove(id);
        }
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Regular case: FIFO from the overflow buffer. Degenerate case
        // (overflow empty or fully pinned, e.g. a tiny buffer before
        // warm-up finished): the SLRU rule on the main part.
        (self.overflow.keys().find(|&id| evictable(id))).or_else(|| self.main.victim(evictable))
    }

    fn select_victim_unpinned(&mut self, _ctx: AccessContext) -> Option<PageId> {
        self.overflow.front().or_else(|| self.main.min())
    }

    fn candidate_size(&self) -> Option<usize> {
        Some(self.candidate)
    }

    fn overflow_state(&self) -> Option<(Vec<PageId>, usize)> {
        Some((self.overflow.keys().collect(), self.overflow_cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialStats};
    use asb_storage::PageMeta;
    use bytes::Bytes;

    fn page_area(raw: u64, side: f64) -> Page {
        let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
    }

    fn asb(capacity: usize) -> AsbPolicy {
        AsbPolicy::new(capacity, AsbParams::default())
    }

    #[test]
    fn paper_defaults_partition_the_buffer() {
        let p = asb(100);
        assert_eq!(p.overflow_cap, 20);
        assert_eq!(p.main_cap, 80);
        assert_eq!(p.candidate_size(), Some(20)); // 25% of 80
    }

    #[test]
    fn tiny_buffers_keep_a_main_page() {
        let p = asb(1);
        assert_eq!(p.overflow_cap, 0);
        assert_eq!(p.main_cap, 1);
        assert_eq!(p.candidate_size(), Some(1));
    }

    #[test]
    fn overfull_main_demotes_smallest_candidate() {
        // capacity 5 -> overflow 1, main 4, candidate max(1, 25% of 4) = 1.
        let mut p = asb(5);
        for (i, side) in [(1u64, 3.0), (2, 9.0), (3, 5.0), (4, 7.0)] {
            p.on_insert(&page_area(i, side), ctx(), i);
        }
        assert_eq!(p.overflow.len(), 0);
        // Fifth insert overflows main; candidate set = {page 1} (LRU end),
        // so page 1 is demoted regardless of criteria of others.
        p.on_insert(&page_area(5, 1.0), ctx(), 5);
        assert_eq!(p.overflow.len(), 1);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn victims_come_from_overflow_in_fifo_order() {
        let mut p = asb(5); // main 4, overflow 1
        for i in 1..=6u64 {
            p.on_insert(&page_area(i, i as f64), ctx(), i);
        }
        // Two demotions happened (inserts 5 and 6): pages 1 then 2.
        let v1 = p.select_victim(ctx(), &all).unwrap();
        assert_eq!(v1, PageId::new(1));
        p.on_remove(v1);
        let v2 = p.select_victim(ctx(), &all).unwrap();
        assert_eq!(v2, PageId::new(2));
    }

    #[test]
    fn overflow_hit_promotes_back_to_main() {
        let mut p = asb(5);
        for i in 1..=5u64 {
            p.on_insert(&page_area(i, i as f64), ctx(), i);
        }
        assert_eq!(p.overflow.len(), 1); // page 1
        p.on_hit(&page_area(1, 1.0), ctx(), 10);
        // Page 1 back in main; a demotion refilled the overflow buffer.
        assert!(p.main.contains(&PageId::new(1)));
        assert_eq!(p.overflow.len(), 1);
        assert_ne!(p.overflow.front(), Some(PageId::new(1)));
    }

    /// Plants a page directly in the overflow buffer with the given
    /// criterion value and last-access tick.
    fn plant_overflow(p: &mut AsbPolicy, raw: u64, crit: f64, last_access: u64) {
        (p.overflow).push_back(PageId::new(raw), PageInfo { crit, last_access });
    }

    #[test]
    fn adaptation_decreases_when_spatially_better_pages_linger() {
        let mut p = asb(20); // overflow 4, main 16, candidate 4, step 1
                             // Target: smallest criterion (everyone beats it spatially) but the
                             // most recent access (nobody beats it on LRU). The spatial strategy
                             // misjudged this page -> rule 1: shrink the candidate set.
        plant_overflow(&mut p, 1, 1.0, 10);
        plant_overflow(&mut p, 2, 5.0, 1);
        plant_overflow(&mut p, 3, 6.0, 2);
        plant_overflow(&mut p, 4, 7.0, 3);
        let before = p.candidate_size().unwrap();
        p.adapt(PageId::new(1));
        assert_eq!(p.candidate_size().unwrap(), before - p.step);
    }

    #[test]
    fn adaptation_increases_when_lru_better_pages_linger() {
        let mut p = asb(20);
        // Target: largest criterion but oldest access — LRU misjudged it ->
        // rule 2: grow the candidate set.
        plant_overflow(&mut p, 1, 9.0, 1);
        plant_overflow(&mut p, 2, 1.0, 5);
        plant_overflow(&mut p, 3, 2.0, 6);
        plant_overflow(&mut p, 4, 3.0, 7);
        let before = p.candidate_size().unwrap();
        p.adapt(PageId::new(1));
        assert_eq!(p.candidate_size().unwrap(), before + p.step);
    }

    #[test]
    fn adaptation_keeps_size_on_balance() {
        let mut p = asb(20);
        // One page beats the target spatially, a different one on recency:
        // rule 3, no change.
        plant_overflow(&mut p, 1, 5.0, 5);
        plant_overflow(&mut p, 2, 9.0, 1); // better spatial only
        plant_overflow(&mut p, 3, 1.0, 9); // better LRU only
        let before = p.candidate_size().unwrap();
        p.adapt(PageId::new(1));
        assert_eq!(p.candidate_size().unwrap(), before);
    }

    #[test]
    fn end_to_end_overflow_hit_adapts() {
        // Build the same "spatial misjudgement" situation through the
        // public protocol only: pages with large areas inserted early, a
        // tiny recently-used page demoted by the candidate set.
        let mut p = asb(10); // overflow 2, main 8, candidate 2, step 1
        let mut t = 0u64;
        // Fill main with large pages.
        for i in 1..=8u64 {
            t += 1;
            p.on_insert(&page_area(i, 50.0 + i as f64), ctx(), t);
        }
        // A tiny page, freshly touched so its last_access is the newest.
        t += 1;
        p.on_insert(&page_area(9, 0.5), ctx(), t); // demotes page 1 (candidate LRU end)
        t += 1;
        p.on_hit(&page_area(9, 0.5), ctx(), t);
        // Churn: the candidate window now starts at pages 2,3 — inserting
        // two more pages demotes 2, then 3... but first force page 9 into
        // the candidate window by touching everything else.
        for i in 2..=8u64 {
            t += 1;
            p.on_hit(&page_area(i, 50.0 + i as f64), ctx(), t);
        }
        // Page 9 is now the LRU page of main with the smallest criterion:
        // the next insert demotes it.
        t += 1;
        p.on_insert(&page_area(10, 60.0), ctx(), t);
        assert!(p.overflow.contains(&PageId::new(9)));
        // Overflow = {1 (old, large), 9 (recent, tiny)}. Hitting 9: page 1
        // beats it spatially (crit 51^2 > 0.25) but not on recency ->
        // shrink.
        let before = p.candidate_size().unwrap();
        t += 1;
        p.on_hit(&page_area(9, 0.5), ctx(), t);
        assert_eq!(p.candidate_size().unwrap(), before - 1);
        assert!(p.main.contains(&PageId::new(9)));
    }

    #[test]
    fn candidate_size_stays_clamped() {
        let mut p = asb(10); // overflow 2, main 8, candidate 2, step 1
                             // Force many shrink adaptations.
        p.candidate = 1;
        p.adapt_n_shrinks(50);
        assert_eq!(p.candidate_size(), Some(1));
        p.candidate = p.main_cap;
        p.adapt_n_grows(50);
        assert_eq!(p.candidate_size(), Some(p.main_cap));
    }

    impl AsbPolicy {
        fn adapt_n_shrinks(&mut self, n: usize) {
            for _ in 0..n {
                self.candidate = self.candidate.saturating_sub(self.step).max(1);
            }
        }
        fn adapt_n_grows(&mut self, n: usize) {
            for _ in 0..n {
                self.candidate = (self.candidate + self.step).min(self.main_cap);
            }
        }
    }

    #[test]
    fn remove_cleans_both_parts() {
        let mut p = asb(5);
        for i in 1..=5u64 {
            p.on_insert(&page_area(i, i as f64), ctx(), i);
        }
        let in_overflow = p.overflow.front().unwrap();
        p.on_remove(in_overflow);
        assert_eq!(p.overflow.len(), 0);
        assert!(!p.overflow.contains(&in_overflow) && !p.main.contains(&in_overflow));
        p.on_remove(PageId::new(3));
        assert!(!p.main.contains(&PageId::new(3)));
    }

    #[test]
    fn fallback_victim_when_overflow_empty() {
        let mut p = asb(4); // overflow 1, main 3
        p.on_insert(&page_area(1, 5.0), ctx(), 1);
        p.on_insert(&page_area(2, 1.0), ctx(), 2);
        // Overflow is empty; fallback applies the SLRU rule on main.
        let v = p.select_victim(ctx(), &all);
        assert!(v.is_some());
    }

    #[test]
    #[should_panic(expected = "overflow fraction")]
    fn full_overflow_fraction_is_rejected() {
        let _ = AsbPolicy::new(
            10,
            AsbParams {
                overflow_fraction: 1.0,
                ..AsbParams::default()
            },
        );
    }
}
