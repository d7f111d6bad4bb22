use crate::policies::{
    ArenaParams, ArenaPolicy, ArenaState, AsbParams, AsbPolicy, ClockPolicy, FifoPolicy,
    LruKPolicy, LruPolicy, Rank, SlruPolicy, TwoQPolicy,
};
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId, PageMeta};
use serde::Serialize;

/// A page-replacement policy: it observes the buffer's event stream and
/// ranks eviction victims, without owning eviction authority.
///
/// The [`BufferManager`](crate::BufferManager) owns the page table; a policy
/// only maintains the ordering state needed to pick victims. The manager
/// guarantees the following protocol:
///
/// 1. every page currently in the buffer has been announced by exactly one
///    [`on_insert`](ReplacementPolicy::on_insert) and not yet retracted by
///    [`on_remove`](ReplacementPolicy::on_remove);
/// 2. [`on_hit`](ReplacementPolicy::on_hit) is only called for resident
///    pages;
/// 3. `now` ticks are **non-decreasing** across calls, not strictly
///    increasing. The one source of ties is a batched fetch: a batch
///    probes every page before it admits the first miss, so all admissions
///    of one batch carry the tick of the batch's last probe. A policy that
///    orders by time stamp must break such ties deterministically (LRU-K
///    falls back to page-id order).
///
/// Because observing commits to nothing, policies double as *experts*: the
/// arena ([`PolicyKind::Arena`]) feeds the same event stream to a whole
/// roster of policies (or rebuilds one from the residents when its victim
/// depends on nothing else) and asks each for the victim it *would*
/// choose; only the current leader's choice is carried out. `select_victim` therefore
/// does not imply that the page leaves the buffer — that is what
/// `on_remove` announces.
///
/// Policies must be [`Send`]: the sharded buffer pool moves each shard's
/// policy behind a mutex shared across serving threads.
pub trait ReplacementPolicy: Send {
    /// A page has been loaded into the buffer (after a miss) or admitted on
    /// allocation.
    fn on_insert(&mut self, page: &Page, ctx: AccessContext, now: u64);

    /// A resident page has been requested again.
    fn on_hit(&mut self, page: &Page, ctx: AccessContext, now: u64);

    /// A resident page has been rewritten; `page` carries the fresh
    /// metadata (spatial criteria may have changed). Policies that rank by
    /// reference history alone ignore it.
    fn on_update(&mut self, page: &Page) {
        let _ = page;
    }

    /// A page has left the buffer (either as the selected victim or through
    /// explicit invalidation).
    fn on_remove(&mut self, id: PageId);

    /// Names the page this policy would drop. `ctx` is the access context
    /// of the request that triggered the eviction (LRU-K excludes pages
    /// whose most recent reference is correlated with it, i.e. belongs to
    /// the same query). `evictable(id)` reports whether the page may be
    /// evicted (it is resident and unpinned); the result always satisfies
    /// it. Returns `None` only if no tracked page is evictable.
    fn select_victim(
        &mut self,
        ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId>;

    /// [`select_victim`](ReplacementPolicy::select_victim) when every
    /// tracked page is evictable: the buffer calls it while no guard is
    /// alive, the arena for its simulated buffers. Policies that keep their
    /// victim ranked answer it without visiting a page.
    fn select_victim_unpinned(&mut self, ctx: AccessContext) -> Option<PageId> {
        self.select_victim(ctx, &|_| true)
    }

    /// For SLRU and the adaptable spatial buffer: the current candidate-set
    /// size. `None` for policies without that notion.
    fn candidate_size(&self) -> Option<usize> {
        None
    }

    /// Number of history records the policy retains for pages **outside**
    /// the buffer it manages, under one definition for every kind of ghost
    /// state: LRU-K HIST entries for evicted pages, 2Q ghost-queue (A1out)
    /// entries, and the arena's per-expert ghost caches all count here.
    /// Zero for policies that remember nothing beyond their residents.
    fn retained_history(&self) -> usize {
        0
    }

    /// For the adaptable spatial buffer: the overflow-buffer page ids in
    /// FIFO order (front first) together with the overflow capacity.
    /// `None` for policies without an overflow buffer. Exposed so invariant
    /// tests can check the 20%-capacity bound and FIFO order from outside.
    fn overflow_state(&self) -> Option<(Vec<PageId>, usize)> {
        None
    }

    /// Drops history records for pages that are no longer `live`. Policies
    /// whose out-of-buffer history is unbounded (LRU-K) implement this so a
    /// host (the arena) can keep total ghost memory bounded; bounded
    /// policies ignore it.
    fn retain_history(&mut self, live: &dyn Fn(PageId) -> bool) {
        let _ = live;
    }

    /// For the expert arena: a snapshot of per-expert weights, ghost-cache
    /// miss counts, the current leader and authority-switch count. `None`
    /// for every non-arena policy.
    fn arena_state(&self) -> Option<ArenaState> {
        None
    }
}

/// Factory enumeration of every policy in the study.
///
/// `PolicyKind` is `Copy + Serialize`, so experiment configurations can name
/// policies declaratively; [`PolicyKind::build`] instantiates the policy for
/// a concrete buffer capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum PolicyKind {
    /// Least recently used (the paper's baseline).
    Lru,
    /// First in, first out.
    Fifo,
    /// Second-chance clock.
    Clock,
    /// Type-based LRU: object pages drop first, then data, then directory.
    LruT,
    /// Priority-based LRU: priority = level in the tree, root highest.
    LruP,
    /// 2Q of Johnson/Shasha: FIFO probation + bounded ghost queue +
    /// protected LRU (an LRU-2 approximation at constant cost).
    TwoQ,
    /// LRU-K of O'Neil/O'Neil/Weikum with query-correlated references.
    LruK {
        /// The K in LRU-K (the paper evaluates 2, 3 and 5).
        k: usize,
    },
    /// Pure spatial page replacement with the given criterion (§2.3).
    Spatial(SpatialCriterion),
    /// Static combination (§4.1): LRU candidate set of a fixed fraction of
    /// the buffer, spatial criterion picks the victim from it.
    Slru {
        /// Candidate-set size as a fraction of the buffer (paper: 0.25, 0.5).
        candidate_fraction: f64,
        /// Spatial criterion applied within the candidate set.
        criterion: SpatialCriterion,
    },
    /// Adaptable spatial buffer (§4.2) with the paper's default parameters:
    /// 20 % overflow buffer, initial candidate set 25 % of the main part,
    /// adaptation step 1 % of the main part, criterion A.
    Asb,
    /// Adaptable spatial buffer with explicit parameters.
    AsbWith(AsbParams),
    /// Expert arena with default parameters: a multiplicative-weights mixer
    /// over LRU, LRU-2 and A ([`Roster::Trio`](crate::Roster::Trio)) that
    /// delegates eviction to the current leader while ghost caches count
    /// each expert's counterfactual misses.
    Arena,
    /// Expert arena with explicit parameters (decay, fixed-share rate,
    /// roster preset).
    ArenaWith(ArenaParams),
}

impl PolicyKind {
    /// The paper's SLRU (Figs. 12–13): an LRU candidate set of 25 % of the
    /// buffer, criterion A.
    pub const PAPER_SLRU: PolicyKind = PolicyKind::Slru {
        candidate_fraction: 0.25,
        criterion: SpatialCriterion::Area,
    };

    /// Instantiates the policy for a buffer of `capacity` pages.
    ///
    /// The paper's reductions are taken literally: the pure spatial policy
    /// is SLRU with an unbounded candidate set (§4.1), and LRU-T and LRU-P
    /// are the same victim rule — smallest rank first, LRU on ties — with
    /// a page class (type rank or priority) as the rank (§2.1).
    pub fn build(&self, capacity: usize) -> Box<dyn ReplacementPolicy + Send> {
        match *self {
            PolicyKind::Lru => Box::new(LruPolicy::default()),
            PolicyKind::Fifo => Box::new(FifoPolicy::default()),
            PolicyKind::Clock => Box::new(ClockPolicy::default()),
            PolicyKind::LruT => {
                let type_rank = |meta: &PageMeta| meta.page_type.type_rank();
                Box::new(SlruPolicy::unbounded(Rank::Class(type_rank)))
            }
            PolicyKind::LruP => Box::new(SlruPolicy::unbounded(Rank::Class(PageMeta::priority))),
            PolicyKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
            PolicyKind::LruK { k } => Box::new(LruKPolicy::new(k)),
            PolicyKind::Spatial(criterion) => {
                Box::new(SlruPolicy::unbounded(Rank::Criterion(criterion)))
            }
            PolicyKind::Slru {
                candidate_fraction,
                criterion,
            } => Box::new(SlruPolicy::new(capacity, candidate_fraction, criterion)),
            PolicyKind::Asb => Box::new(AsbPolicy::new(capacity, AsbParams::default())),
            PolicyKind::AsbWith(params) => Box::new(AsbPolicy::new(capacity, params)),
            PolicyKind::Arena => Box::new(ArenaPolicy::new(capacity, ArenaParams::default())),
            PolicyKind::ArenaWith(params) => Box::new(ArenaPolicy::new(capacity, params)),
        }
    }

    /// The display name used in figures and tables.
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Fifo => "FIFO".into(),
            PolicyKind::Clock => "CLOCK".into(),
            PolicyKind::LruT => "LRU-T".into(),
            PolicyKind::LruP => "LRU-P".into(),
            PolicyKind::TwoQ => "2Q".into(),
            PolicyKind::LruK { k } => format!("LRU-{k}"),
            PolicyKind::Spatial(c) => c.short_name().into(),
            PolicyKind::Slru {
                candidate_fraction, ..
            } => {
                format!("SLRU {:.0}%", candidate_fraction * 100.0)
            }
            PolicyKind::Asb | PolicyKind::AsbWith(_) => "ASB".into(),
            PolicyKind::Arena | PolicyKind::ArenaWith(_) => "ARENA".into(),
        }
    }

    /// Parses a policy name as the command lines spell it: the
    /// case-insensitive inverse of [`label`](PolicyKind::label) for every
    /// kind without parameters (`lru`, `fifo`, `clock`, `lru-t`, `lru-p`,
    /// `2q`, the five spatial criteria `a` … `eo`, `asb`, `arena`), plus
    /// `lru-<k>` for LRU-K and `slru` for the paper's SLRU 25 % under
    /// criterion A.
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.to_ascii_uppercase();
        if name == "SLRU" {
            return Some(PolicyKind::PAPER_SLRU);
        }
        let fixed = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::LruT,
            PolicyKind::LruP,
            PolicyKind::TwoQ,
            PolicyKind::Asb,
            PolicyKind::Arena,
        ]
        .into_iter()
        .chain(SpatialCriterion::ALL.map(PolicyKind::Spatial))
        .find(|kind| kind.label() == name);
        fixed.or_else(|| {
            // K sizes a per-page history allocation, so it is bounded
            // here, where it enters; K = 0 is not a policy.
            let k: std::num::NonZeroU8 = name.strip_prefix("LRU-")?.parse().ok()?;
            Some(PolicyKind::LruK {
                k: usize::from(k.get()),
            })
        })
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::LruK { k: 2 }.label(), "LRU-2");
        assert_eq!(PolicyKind::Spatial(SpatialCriterion::Area).label(), "A");
        assert_eq!(PolicyKind::PAPER_SLRU.label(), "SLRU 25%");
        assert_eq!(PolicyKind::Asb.label(), "ASB");
        assert_eq!(PolicyKind::Arena.label(), "ARENA");
    }

    #[test]
    fn names_round_trip_through_labels() {
        let mut kinds = vec![
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::LruT,
            PolicyKind::LruP,
            PolicyKind::TwoQ,
            PolicyKind::LruK { k: 2 },
            PolicyKind::LruK { k: 5 },
            PolicyKind::Asb,
            PolicyKind::Arena,
        ];
        kinds.extend(SpatialCriterion::ALL.map(PolicyKind::Spatial));
        for kind in kinds {
            let label = kind.label();
            assert_eq!(PolicyKind::from_name(&label), Some(kind), "{label}");
            assert_eq!(
                PolicyKind::from_name(&label.to_lowercase()),
                Some(kind),
                "{label}"
            );
        }
        assert_eq!(
            PolicyKind::from_name("slru").map(|k| k.label()),
            Some("SLRU 25%".into())
        );
        for bad in [
            "", "lru-", "lru-0", "lru-x", "lru-999", "random", "SLRU 25%",
        ] {
            assert_eq!(PolicyKind::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn every_kind_builds_and_tracks_a_page() {
        let page = Page::new(
            PageId::new(1),
            PageMeta::data(asb_geom::SpatialStats::EMPTY),
            bytes::Bytes::new(),
        )
        .unwrap();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::LruT,
            PolicyKind::LruP,
            PolicyKind::TwoQ,
            PolicyKind::LruK { k: 3 },
            PolicyKind::Spatial(SpatialCriterion::Margin),
            PolicyKind::Slru {
                candidate_fraction: 0.5,
                criterion: SpatialCriterion::Area,
            },
            PolicyKind::Asb,
            PolicyKind::Arena,
        ] {
            let mut policy = kind.build(100);
            policy.on_insert(&page, AccessContext::default(), 1);
            let victim = policy.select_victim(AccessContext::default(), &|_| true);
            assert_eq!(victim, Some(page.id), "{kind:?}");
        }
    }
}
