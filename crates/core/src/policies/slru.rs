//! Spatial page replacement (Section 2.3 of the paper), its static
//! combination with LRU (Section 4.1), and the class-ordered LRU-T and
//! LRU-P (Section 2.1) under the same victim rule.

use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId, PageMeta};
use std::collections::BTreeMap;

/// `page`'s value under `which`. A NaN would have no place in the victim
/// order, so it is rejected where it enters.
pub(super) fn page_criterion(page: &Page, which: SpatialCriterion) -> f64 {
    let crit = page.meta.stats.criterion(which);
    debug_assert!(!crit.is_nan(), "page {:?} has a NaN criterion", page.id);
    crit
}

/// A criterion as an order-preserving integer: for non-NaN `a` and `b`,
/// `crit_key(a) < crit_key(b)` exactly when `a < b`. That needs `-0.0`
/// and `0.0`, which compare equal, to share a key.
fn crit_key(crit: f64) -> u64 {
    let bits = if crit == 0.0 { 0 } else { crit.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One page of a [`RankedPrefix`].
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    crit: f64,
    /// Recency stamp: increasing from the front of the order to the back,
    /// renewed on every move to the back.
    stamp: u64,
    /// Whether the page lies in the prefix, and so in `rank`.
    ranked: bool,
    value: V,
}

/// The victim rule of every spatial and class-ordered policy, kept ranked.
/// Pages sit in LRU order (front = least recently used); the first `limit`
/// of them are the *candidate set*, and are also filed in a map keyed by
/// `(criterion, recency stamp)`, where a class counts as the criterion.
/// The map's first entry is the paper's victim:
///
/// 1. `C := { p | p ∈ candidates ∧ (q ∈ candidates ⇒ spatialCrit(p) ≤ spatialCrit(q)) }`
/// 2. if `|C| > 1`, the victim is determined from `C` by LRU.
///
/// An insert, hit, update or removal moves at most one page across the
/// prefix boundary, and a change of `limit` one per unit of change, so
/// each costs O(log limit); a hit behind the boundary costs one flag check
/// more than an LRU touch.
#[derive(Debug)]
pub(super) struct RankedPrefix<V> {
    order: LinkedOrder<PageId, Slot<V>>,
    rank: BTreeMap<(u64, u64), PageId>,
    limit: usize,
    /// The last page of the prefix; `None` while the prefix is empty.
    boundary: Option<PageId>,
    clock: u64,
}

impl<V: Copy> RankedPrefix<V> {
    pub fn new(limit: usize) -> Self {
        RankedPrefix {
            order: LinkedOrder::default(),
            rank: BTreeMap::new(),
            limit,
            boundary: None,
            clock: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    #[cfg(test)]
    pub fn contains(&self, id: &PageId) -> bool {
        self.order.contains(id)
    }

    fn key(slot: &Slot<V>) -> (u64, u64) {
        (crit_key(slot.crit), slot.stamp)
    }

    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Appends `id` at the most recently used end.
    pub fn push_back(&mut self, id: PageId, crit: f64, value: V) {
        let stamp = self.stamp();
        let slot = Slot {
            crit,
            stamp,
            ranked: false,
            value,
        };
        if self.order.push_back(id, slot) && self.rank.len() < self.limit {
            self.grow();
        }
    }

    /// Moves `id` to the most recently used end and lets `touch` edit its
    /// value. Returns whether `id` is present.
    pub fn touch(&mut self, id: PageId, touch: impl FnOnce(&mut V)) -> bool {
        let boundary_prev = (self.boundary == Some(id)).then(|| self.order.prev_key(&id));
        let stamp = self.stamp();
        let Some(slot) = self.order.move_to_back(&id) else {
            return false;
        };
        touch(&mut slot.value);
        let old_stamp = std::mem::replace(&mut slot.stamp, stamp);
        if std::mem::take(&mut slot.ranked) {
            let key = (crit_key(slot.crit), old_stamp);
            self.leave_prefix(key, boundary_prev);
        }
        true
    }

    /// Removes `id`, returning its criterion and value.
    pub fn remove(&mut self, id: PageId) -> Option<(f64, V)> {
        let boundary_prev = (self.boundary == Some(id)).then(|| self.order.prev_key(&id));
        let slot = self.order.remove(&id)?;
        if slot.ranked {
            self.leave_prefix(Self::key(&slot), boundary_prev);
        }
        Some((slot.crit, slot.value))
    }

    /// Unranks a page that left the prefix under `key` and ranks the page
    /// behind the boundary in its place. `boundary_prev` is `Some(prev)`
    /// if the page was the boundary, `prev` its predecessor before it left.
    fn leave_prefix(&mut self, key: (u64, u64), boundary_prev: Option<Option<PageId>>) {
        self.rank.remove(&key);
        if let Some(prev) = boundary_prev {
            self.boundary = prev;
        }
        self.grow();
    }

    /// Replaces `id`'s criterion in place. Returns whether `id` is present.
    pub fn set_crit(&mut self, id: PageId, crit: f64) -> bool {
        let Some(slot) = self.order.get_mut(&id) else {
            return false;
        };
        let old = Self::key(slot);
        slot.crit = crit;
        if slot.ranked {
            self.rank.remove(&old);
            self.rank.insert(Self::key(slot), id);
        }
        true
    }

    /// Makes the first `limit` pages the candidate set.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
        while self.rank.len() > limit && self.shrink() {}
        while self.rank.len() < limit && self.grow() {}
    }

    /// The victim when every page is evictable.
    pub fn min(&self) -> Option<PageId> {
        self.rank.values().next().copied()
    }

    /// The victim among the `evictable` pages. Pinned pages do not consume
    /// candidate slots: the candidates are the first `limit` evictable
    /// pages. While the prefix holds every page, that is the first
    /// evictable page in rank order; otherwise the candidates are walked.
    pub fn victim(&self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        if self.rank.len() == self.order.len() {
            return self.rank.values().copied().find(|&id| evictable(id));
        }
        self.victim_walk(evictable)
    }

    /// The candidate walk: the smallest criterion among the first `limit`
    /// evictable pages in LRU order, the earliest on ties.
    fn victim_walk(&self, evictable: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        let mut victim: Option<(PageId, u64)> = None;
        let candidates = (self.order.iter())
            .filter(|&(id, _)| evictable(id))
            .take(self.limit);
        for (id, slot) in candidates {
            let c = crit_key(slot.crit);
            if victim.is_none_or(|(_, best)| c < best) {
                victim = Some((id, c));
            }
        }
        victim.map(|(id, _)| id)
    }

    /// Ranks the page behind the boundary. Returns `false` if there is none.
    fn grow(&mut self) -> bool {
        let next = match self.boundary {
            Some(last) => self.order.next_key(&last),
            None => self.order.front(),
        };
        let Some(id) = next else {
            return false;
        };
        if let Some(slot) = self.order.get_mut(&id) {
            slot.ranked = true;
            self.rank.insert(Self::key(slot), id);
        }
        self.boundary = Some(id);
        true
    }

    /// Unranks the boundary page. Returns `false` if the prefix is empty.
    fn shrink(&mut self) -> bool {
        let Some(id) = self.boundary else {
            return false;
        };
        if let Some(slot) = self.order.get_mut(&id) {
            slot.ranked = false;
            self.rank.remove(&Self::key(slot));
        }
        self.boundary = self.order.prev_key(&id);
        true
    }
}

/// What a [`SlruPolicy`] ranks its candidates by; the smallest goes first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rank {
    /// A spatial criterion (§2.3).
    Criterion(SpatialCriterion),
    /// A page class (§2.1): the type rank for LRU-T, the priority for
    /// LRU-P.
    Class(fn(&PageMeta) -> u8),
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
///
/// Ranked by a page class instead of a criterion, with every page a
/// candidate, it is "lowest class first, LRU within a class": the paper's
/// LRU-T and LRU-P (§2.1), as [`PolicyKind::LruT`](crate::PolicyKind::LruT)
/// and [`PolicyKind::LruP`](crate::PolicyKind::LruP) are built. A rewrite
/// re-ranks a page under its fresh metadata and keeps its place in the
/// LRU order: an update is not a reference.
#[derive(Debug)]
pub(crate) struct SlruPolicy {
    rank: Rank,
    /// Size of the static candidate set; `None` is the whole buffer.
    candidates: Option<usize>,
    /// LRU order with the candidate set ranked.
    order: RankedPrefix<()>,
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
            rank: Rank::Criterion(criterion),
            candidates: Some(count),
            order: RankedPrefix::new(count),
        }
    }

    /// Creates the policy in which every page is a candidate: the pure
    /// spatial policy under a criterion, LRU-T or LRU-P under a class.
    pub fn unbounded(rank: Rank) -> Self {
        SlruPolicy {
            rank,
            candidates: None,
            order: RankedPrefix::new(usize::MAX),
        }
    }

    fn rank(&self, page: &Page) -> f64 {
        match self.rank {
            Rank::Criterion(criterion) => page_criterion(page, criterion),
            Rank::Class(class_of) => f64::from(class_of(&page.meta)),
        }
    }
}

impl ReplacementPolicy for SlruPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id, self.rank(page), ());
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.touch(page.id, |_| ());
    }

    fn on_update(&mut self, page: &Page) {
        self.order.set_crit(page.id, self.rank(page));
    }

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(id);
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.order.victim(evictable)
    }

    fn select_victim_unpinned(&mut self, _ctx: AccessContext) -> Option<PageId> {
        self.order.min()
    }

    fn candidate_size(&self) -> Option<usize> {
        self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::fixtures::{all, ctx, page_area};
    use crate::PolicyKind;
    use asb_geom::{Rect, SpatialStats};
    use bytes::Bytes;

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
    fn crit_key_orders_exactly_like_strict_less_than() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(crit_key(a) < crit_key(b), a < b, "{a:e} vs {b:e}");
                assert_eq!(crit_key(a) == crit_key(b), a == b, "{a:e} vs {b:e}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN criterion")]
    fn nan_criterion_is_rejected() {
        let stats = SpatialStats {
            entry_area_sum: f64::NAN,
            ..SpatialStats::EMPTY
        };
        let page = Page::new(PageId::new(1), PageMeta::data(stats), Bytes::new()).unwrap();
        spatial(SpatialCriterion::EntryArea).on_insert(&page, ctx(), 1);
    }

    #[test]
    fn ties_inside_the_candidate_set_break_by_lru() {
        let mut p = SlruPolicy::new(8, 0.5, SpatialCriterion::Area); // 4 candidates
        for raw in 1..=6 {
            p.on_insert(&page_area(raw, 2.0), ctx(), raw);
        }
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(1)));
        // Page 1 leaves the candidates, page 5 enters behind 2, 3, 4.
        p.on_hit(&page_area(1, 2.0), ctx(), 7);
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(2)));
        // A smaller page inside the set wins over the LRU tie.
        p.on_update(&page_area(4, 1.0));
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(4)));
        // Growing it back restores the LRU tie-break.
        p.on_update(&page_area(4, 2.0));
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(2)));
    }

    #[test]
    fn zero_area_pages_tie_at_the_minimum() {
        let point = Rect::new(3.0, 3.0, 3.0, 3.0);
        let segment = Rect::new(0.0, 0.0, 4.0, 0.0);
        let mut p = spatial(SpatialCriterion::Area);
        p.on_insert(&page_rect(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_rect(2, segment), ctx(), 2);
        p.on_insert(&page_rect(3, point), ctx(), 3);
        // Both have area 0: the less recently used one goes first.
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(2)));
        p.on_hit(&page_rect(2, segment), ctx(), 4);
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(3)));
        // Under the margin criterion the point is alone at the minimum.
        let mut p = spatial(SpatialCriterion::Margin);
        p.on_insert(&page_rect(1, point), ctx(), 1);
        p.on_insert(&page_rect(2, segment), ctx(), 2);
        p.on_hit(&page_rect(1, point), ctx(), 3);
        assert_eq!(p.select_victim_unpinned(ctx()), Some(PageId::new(1)));
    }

    /// The prefix invariant after every operation: exactly the first
    /// `min(limit, len)` pages are ranked, each under its current key, the
    /// boundary is the last of them, and stamps rise from front to back.
    fn assert_exact(prefix: &RankedPrefix<u64>) {
        let ranked = prefix.rank.len();
        assert_eq!(ranked, prefix.limit.min(prefix.len()));
        let stamps: Vec<u64> = prefix.order.iter().map(|(_, slot)| slot.stamp).collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
        for (i, (id, slot)) in prefix.order.iter().enumerate() {
            assert_eq!(slot.ranked, i < ranked, "page {id:?} at {i}");
            if slot.ranked {
                assert_eq!(prefix.rank.get(&RankedPrefix::key(slot)), Some(&id));
            }
        }
        let last = prefix.order.keys().take(ranked).last();
        assert_eq!(prefix.boundary, last);
    }

    #[test]
    fn prefix_stays_exact_under_random_operations() {
        let mut prefix = RankedPrefix::new(3);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = PageId::new(state % 16);
            let crit = ((state >> 8) % 4) as f64;
            match (state >> 16) % 6 {
                0 | 1 => prefix.push_back(id, crit, 0),
                2 => _ = prefix.touch(id, |v| *v += 1),
                3 => _ = prefix.remove(id),
                4 => _ = prefix.set_crit(id, crit),
                _ => prefix.set_limit(((state >> 24) % 8) as usize),
            }
            assert_exact(&prefix);
            assert_eq!(prefix.min(), prefix.victim_walk(&|_| true));
        }
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

    // LRU-T and LRU-P (§2.1), as `PolicyKind::LruT` and `PolicyKind::LruP`
    // build them.

    fn page_with(raw: u64, meta: PageMeta) -> Page {
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn obj(raw: u64) -> Page {
        page_with(raw, PageMeta::object(SpatialStats::EMPTY))
    }

    fn data(raw: u64) -> Page {
        page_with(raw, PageMeta::data(SpatialStats::EMPTY))
    }

    fn dir(raw: u64, level: u8) -> Page {
        page_with(raw, PageMeta::directory(level, SpatialStats::EMPTY))
    }

    fn lru_t() -> Box<dyn ReplacementPolicy + Send> {
        PolicyKind::LruT.build(8)
    }

    fn lru_p() -> Box<dyn ReplacementPolicy + Send> {
        PolicyKind::LruP.build(8)
    }

    #[test]
    fn lru_t_drops_object_pages_first() {
        let mut p = lru_t();
        p.on_insert(&dir(1, 2), ctx(), 1);
        p.on_insert(&data(2), ctx(), 2);
        p.on_insert(&obj(3), ctx(), 3);
        // Insertion order would favor the directory page under plain LRU,
        // but LRU-T picks the object page.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
        p.on_remove(PageId::new(3));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        p.on_remove(PageId::new(2));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn lru_t_uses_lru_within_category() {
        let mut p = lru_t();
        p.on_insert(&data(1), ctx(), 1);
        p.on_insert(&data(2), ctx(), 2);
        p.on_hit(&data(1), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn lru_p_evicts_lowest_level_first() {
        let mut p = lru_p();
        p.on_insert(&dir(1, 4), ctx(), 1); // root
        p.on_insert(&dir(2, 3), ctx(), 2);
        p.on_insert(&dir(3, 2), ctx(), 3);
        p.on_insert(&data(4), ctx(), 4); // leaf, priority 1
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(4)));
        p.on_remove(PageId::new(4));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
        p.on_remove(PageId::new(3));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn lru_p_effectively_pins_the_root_under_pressure() {
        // With data pages always available, the root is never selected —
        // the generalization of level pinning.
        let mut p = lru_p();
        p.on_insert(&dir(0, 3), ctx(), 0);
        for i in 1..=5 {
            p.on_insert(&data(i), ctx(), i);
        }
        for expected in 1..=5u64 {
            let v = p.select_victim(ctx(), &all).unwrap();
            assert_eq!(v, PageId::new(expected));
            p.on_remove(v);
        }
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
        p.on_remove(PageId::new(0));
        assert_eq!(p.select_victim(ctx(), &all), None);
    }

    #[test]
    fn lru_p_skips_unevictable() {
        let mut p = lru_p();
        p.on_insert(&data(1), ctx(), 1);
        p.on_insert(&dir(2, 2), ctx(), 2);
        let v = p.select_victim(ctx(), &|id| id != PageId::new(1));
        assert_eq!(v, Some(PageId::new(2)));
    }

    #[test]
    fn an_update_re_ranks_a_page_but_is_not_a_reference() {
        // A rewrite may change a page's class (a quadtree leaf that splits
        // in place becomes a directory page), but it is no request for it.
        let mut p = lru_p();
        for raw in 1..=3 {
            p.on_insert(&data(raw), ctx(), raw);
        }
        p.on_update(&dir(1, 2));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        p.on_update(&data(1));
        // Back among the data pages, page 1 is still the least recently
        // referenced of them.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }
}
