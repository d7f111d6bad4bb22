//! Concrete page-replacement policies.
//!
//! The structs are crate-private: the outside world names a policy by its
//! [`PolicyKind`](crate::PolicyKind) and drives it through
//! [`ReplacementPolicy`](crate::ReplacementPolicy).

mod arena;
mod asb;
mod basic;
mod lru_k;
mod slru;
mod two_q;

pub use arena::{ArenaParams, ArenaState, ExpertState, Roster};
pub use asb::AsbParams;

pub(crate) use arena::ArenaPolicy;
pub(crate) use asb::AsbPolicy;
pub(crate) use basic::{ClockPolicy, FifoPolicy, LruPolicy};
pub(crate) use lru_k::LruKPolicy;
pub(crate) use slru::{Rank, SlruPolicy};
pub(crate) use two_q::TwoQPolicy;

/// Fixtures of the policies' unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use asb_geom::{Rect, SpatialStats};
    use asb_storage::{AccessContext, Page, PageId, PageMeta, QueryId};
    use bytes::Bytes;

    pub fn page(raw: u64) -> Page {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    pub fn page_area(raw: u64, side: f64) -> Page {
        let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    pub fn ctx() -> AccessContext {
        AccessContext::default()
    }

    pub fn q(n: u64) -> AccessContext {
        AccessContext::query(QueryId::new(n))
    }

    pub fn all(_: PageId) -> bool {
        true
    }
}
