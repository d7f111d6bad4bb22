//! Spatial page replacement (Section 2.3 of the paper) and its static
//! combination with LRU (Section 4.1).

use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId};

/// The one victim rule of every spatial policy: among the first `limit`
/// evictable pages of `order` (front = least recently used) — the
/// *candidate set* — the page with the **smallest** criterion. Strict `<`
/// keeps the earliest page on ties, which is the paper's LRU tie-break:
///
/// 1. `C := { p | p ∈ candidates ∧ (q ∈ candidates ⇒ spatialCrit(p) ≤ spatialCrit(q)) }`
/// 2. if `|C| > 1`, the victim is determined from `C` by LRU.
///
/// Pinned pages do not consume candidate slots.
pub(super) fn spatial_victim<V: Copy>(
    order: &LinkedOrder<PageId, V>,
    crit: impl Fn(&V) -> f64,
    limit: usize,
    evictable: &dyn Fn(PageId) -> bool,
) -> Option<PageId> {
    let mut victim: Option<(PageId, f64)> = None;
    let candidates = order.iter().filter(|&(id, _)| evictable(id)).take(limit);
    for (id, value) in candidates {
        let c = crit(value);
        if victim.is_none_or(|(_, best)| c < best) {
            victim = Some((id, c));
        }
    }
    victim.map(|(id, _)| id)
}

/// **SLRU**: "1.) compute a set of candidates by using LRU and 2.) select
/// the page to be dropped out of the buffer from the candidate set by using
/// a spatial page-replacement algorithm."
///
/// The candidate set consists of the `candidate_fraction * capacity`
/// least-recently-used pages; the page with the smallest spatial criterion
/// (A, EA, M, EM or EO) among them is evicted. "The larger the candidate
/// set, the larger is the influence of the spatial page-replacement
/// algorithm": a fraction of ~0 is plain LRU, and with *every* page a
/// candidate this is the pure spatial policy of §2.3 — which is how
/// [`PolicyKind::Spatial`](crate::PolicyKind::Spatial) is built.
#[derive(Debug)]
pub(crate) struct SlruPolicy {
    criterion: SpatialCriterion,
    /// Size of the static candidate set; `None` is the whole buffer.
    candidates: Option<usize>,
    /// LRU order; each entry carries the page's criterion value.
    order: LinkedOrder<PageId, f64>,
}

impl SlruPolicy {
    /// Creates an SLRU policy for a buffer of `capacity` pages with the
    /// given candidate-set fraction (the paper evaluates 0.25 and 0.5).
    ///
    /// # Panics
    /// Panics if `candidate_fraction` is not in `(0, 1]`.
    pub fn new(capacity: usize, candidate_fraction: f64, criterion: SpatialCriterion) -> Self {
        assert!(
            candidate_fraction > 0.0 && candidate_fraction <= 1.0,
            "candidate fraction must be in (0, 1]"
        );
        let count = ((capacity as f64 * candidate_fraction).round() as usize).max(1);
        SlruPolicy {
            candidates: Some(count),
            ..SlruPolicy::spatial(criterion)
        }
    }

    /// Creates the pure spatial policy: every page is a candidate.
    pub fn spatial(criterion: SpatialCriterion) -> Self {
        SlruPolicy {
            criterion,
            candidates: None,
            order: LinkedOrder::default(),
        }
    }
}

impl ReplacementPolicy for SlruPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        let crit = page.meta.stats.criterion(self.criterion);
        self.order.push_back(page.id, crit);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.move_to_back(&page.id);
    }

    fn on_update(&mut self, page: &Page) {
        if let Some(crit) = self.order.get_mut(&page.id) {
            *crit = page.meta.stats.criterion(self.criterion);
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
        let limit = self.candidates.unwrap_or(usize::MAX);
        spatial_victim(&self.order, |&crit| crit, limit, evictable)
    }

    fn candidate_size(&self) -> Option<usize> {
        self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
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

    #[test]
    fn candidate_count_is_rounded_and_clamped() {
        let size = |capacity, fraction| {
            SlruPolicy::new(capacity, fraction, SpatialCriterion::Area).candidate_size()
        };
        assert_eq!(size(100, 0.25), Some(25));
        assert_eq!(size(100, 0.5), Some(50));
        assert_eq!(size(2, 0.25), Some(1));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_is_rejected() {
        let _ = SlruPolicy::new(100, 0.0, SpatialCriterion::Area);
    }

    #[test]
    fn spatial_choice_is_limited_to_lru_candidates() {
        // Buffer of 4, candidate set 2: the two least-recently-used pages.
        let mut p = SlruPolicy::new(4, 0.5, SpatialCriterion::Area);
        p.on_insert(&page_area(1, 5.0), ctx(), 1); // LRU, area 25
        p.on_insert(&page_area(2, 4.0), ctx(), 2); // area 16
        p.on_insert(&page_area(3, 1.0), ctx(), 3); // smallest area, but MRU side
        p.on_insert(&page_area(4, 2.0), ctx(), 4);
        // Candidates are pages 1 and 2; the globally smallest page (3) is
        // protected by its recency. Victim: smaller of {25, 16} -> page 2.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn full_fraction_degenerates_to_pure_spatial() {
        let mut p = SlruPolicy::new(3, 1.0, SpatialCriterion::Area);
        p.on_insert(&page_area(1, 5.0), ctx(), 1);
        p.on_insert(&page_area(2, 4.0), ctx(), 2);
        p.on_insert(&page_area(3, 1.0), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
    }

    #[test]
    fn hits_move_pages_out_of_the_candidate_zone() {
        let mut p = SlruPolicy::new(4, 0.25, SpatialCriterion::Area); // candidates: 1 page
        p.on_insert(&page_area(1, 1.0), ctx(), 1);
        p.on_insert(&page_area(2, 9.0), ctx(), 2);
        // Touch page 1: page 2 becomes the sole candidate.
        p.on_hit(&page_area(1, 1.0), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn pinned_pages_do_not_consume_candidate_slots() {
        let mut p = SlruPolicy::new(4, 0.5, SpatialCriterion::Area); // 2 candidates
        p.on_insert(&page_area(1, 1.0), ctx(), 1);
        p.on_insert(&page_area(2, 2.0), ctx(), 2);
        p.on_insert(&page_area(3, 9.0), ctx(), 3);
        // Pages 1 and 2 pinned: candidates become {3}, the next evictable.
        let v = p.select_victim(ctx(), &|id| id.raw() > 2);
        assert_eq!(v, Some(PageId::new(3)));
    }

    // The pure spatial policy (§2.3), as `PolicyKind::Spatial` builds it.

    fn page_rect(raw: u64, rect: Rect) -> Page {
        let meta = PageMeta::data(SpatialStats::from_rects(&[rect]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn spatial(criterion: SpatialCriterion) -> Box<dyn ReplacementPolicy + Send> {
        PolicyKind::Spatial(criterion).build(8)
    }

    #[test]
    fn smallest_area_is_evicted_first() {
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, Rect::new(0.0, 0.0, 10.0, 10.0)), ctx(), 1);
        p.on_insert(&page_rect(2, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 2);
        p.on_insert(&page_rect(3, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn recency_does_not_override_criterion() {
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_rect(2, Rect::new(0.0, 0.0, 9.0, 9.0)), ctx(), 2);
        // Touching the small page does not save it.
        p.on_hit(&page_rect(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn ties_break_by_lru() {
        let same = Rect::new(0.0, 0.0, 2.0, 2.0);
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, same), ctx(), 1);
        p.on_insert(&page_rect(2, same), ctx(), 2);
        p.on_insert(&page_rect(3, same), ctx(), 3);
        p.on_hit(&page_rect(1, same), ctx(), 4);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn update_refreshes_criterion() {
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_rect(2, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 2);
        // Page 1 grows (e.g. an insertion enlarged its MBR).
        p.on_update(&page_rect(1, Rect::new(0.0, 0.0, 20.0, 20.0)));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn respects_evictable_filter() {
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_rect(2, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 2);
        let v = p.select_victim(ctx(), &|id| id != PageId::new(1));
        assert_eq!(v, Some(PageId::new(2)));
    }

    #[test]
    fn margin_criterion_prefers_thin_pages_to_stay() {
        // A long thin page: area 1 but margin 20.2 > square's 8.
        let thin = Rect::new(0.0, 0.0, 10.0, 0.1);
        let square = Rect::new(0.0, 0.0, 2.0, 2.0);
        let mut p = spatial(SpatialCriterion::Margin);
        p.on_insert(&page_rect(1, thin), ctx(), 1);
        p.on_insert(&page_rect(2, square), ctx(), 2);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        // Under the area criterion the thin page would be the victim.
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, thin), ctx(), 1);
        p.on_insert(&page_rect(2, square), ctx(), 2);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }
}
