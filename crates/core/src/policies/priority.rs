//! Type-based and priority-based LRU (Section 2.1 of the paper): one
//! class-ordered LRU under two class functions.

use crate::order::LinkedOrder;
use crate::policy::ReplacementPolicy;
use asb_storage::{AccessContext, Page, PageId, PageMeta};
use std::collections::BTreeMap;

/// LRU within a class, lowest class evicted first.
///
/// * **LRU-T** classes pages by type: "object pages would be dropped
///   immediately from the buffer. Then, data pages would follow. Directory
///   pages would be stored in the buffer as long as possible. For pages of
///   the same category, the LRU strategy is used."
/// * **LRU-P** classes pages by priority: "the higher the priority of a
///   page, the longer it should stay in the buffer." The priority is the
///   page's level in the spatial access method (the root has the highest
///   priority, object pages priority 0), generalizing buffers that pin
///   distinct levels of the SAM (Leutenegger & Lopez).
#[derive(Debug)]
pub(crate) struct ClassLru {
    class_of: fn(&PageMeta) -> u8,
    /// Non-empty classes only; `BTreeMap` iterates them ascending, which
    /// is eviction order.
    classes: BTreeMap<u8, LinkedOrder<PageId>>,
}

impl ClassLru {
    /// Creates an empty policy that files each page under `class_of` its
    /// metadata.
    pub fn new(class_of: fn(&PageMeta) -> u8) -> Self {
        ClassLru {
            class_of,
            classes: BTreeMap::new(),
        }
    }
}

impl ReplacementPolicy for ClassLru {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        let class = (self.class_of)(&page.meta);
        self.classes
            .entry(class)
            .or_default()
            .push_back(page.id, ());
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        // The page sits in the class it was filed under, which a handful of
        // classes makes cheaper to find than to remember.
        (self.classes.values_mut()).find_map(|class| class.move_to_back(&page.id));
    }

    fn on_update(&mut self, page: &Page) {
        let new = (self.class_of)(&page.meta);
        let old =
            (self.classes.iter()).find_map(|(&c, class)| class.contains(&page.id).then_some(c));
        if old.is_some_and(|old| old != new) {
            self.on_remove(page.id);
            self.classes.entry(new).or_default().push_back(page.id, ());
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.classes.retain(|_, class| {
            class.remove(&id);
            !class.is_empty()
        });
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        (self.classes.values())
            .flat_map(|class| class.keys())
            .find(|&id| evictable(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use asb_geom::SpatialStats;
    use bytes::Bytes;

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

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
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
    fn lru_p_priority_classes_are_cleaned_up() {
        let mut p = ClassLru::new(PageMeta::priority);
        p.on_insert(&data(1), ctx(), 1);
        p.on_remove(PageId::new(1));
        assert!(p.classes.is_empty());
        assert_eq!(p.select_victim(ctx(), &all), None);
    }
}
