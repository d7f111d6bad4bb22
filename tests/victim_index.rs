//! Differential fuzzer for the ranked victim indexes.
//!
//! SLRU, the five pure spatial policies and ASB's main part keep their
//! candidate set ranked by `(criterion, recency)`, and LRU-K keeps its
//! residents sorted by `(HIST(p,K), last access, page id)`. Each is held
//! here to the linear scan it replaced, kept verbatim over a `Vec`
//! recency model: after every insert, hit, update, removal or history
//! prune, the policy and its oracle must name the same victim with every
//! page evictable, through `select_victim_unpinned`, and under a random
//! pinned set.
//!
//! The same file holds the *rebuild law* the expert arena relies on: an
//! LRU, SLRU or pure spatial policy rebuilt by replaying `on_insert` over
//! the residents in recency order names the same victims as the one fed
//! live, while LRU-2, 2Q and ASB do not obey it.

use asb::buffer::{AsbParams, PolicyKind, ReplacementPolicy, SpatialCriterion};
use asb::geom::{Rect, SpatialStats};
use asb::storage::{AccessContext, Page, PageId, PageMeta, QueryId};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

type Policy = Box<dyn ReplacementPolicy + Send>;

/// The candidate scan as it stood before the ranked prefix: among the first
/// `limit` evictable pages of `order` (front = least recently used), the
/// smallest criterion; strict `<` keeps the earliest page on ties.
fn spatial_victim<V: Copy>(
    order: &[(PageId, V)],
    crit: impl Fn(&V) -> f64,
    limit: usize,
    evictable: &dyn Fn(PageId) -> bool,
) -> Option<PageId> {
    let mut victim: Option<(PageId, f64)> = None;
    let candidates = order.iter().filter(|&&(id, _)| evictable(id)).take(limit);
    for &(id, ref value) in candidates {
        let c = crit(value);
        if victim.is_none_or(|(_, best)| c < best) {
            victim = Some((id, c));
        }
    }
    victim.map(|(id, _)| id)
}

fn position<V>(order: &[(PageId, V)], id: PageId) -> Option<usize> {
    order.iter().position(|&(k, _)| k == id)
}

fn touch<V>(order: &mut Vec<(PageId, V)>, id: PageId) -> Option<&mut V> {
    let entry = order.remove(position(order, id)?);
    order.push(entry);
    order.last_mut().map(|(_, v)| v)
}

fn take<V>(order: &mut Vec<(PageId, V)>, id: PageId) -> Option<V> {
    Some(order.remove(position(order, id)?).1)
}

fn value_mut<V>(order: &mut [(PageId, V)], id: PageId) -> Option<&mut V> {
    let pos = position(order, id)?;
    Some(&mut order[pos].1)
}

/// SLRU with `limit` candidates (`None`: the pure spatial policy).
struct SlruOracle {
    criterion: SpatialCriterion,
    limit: Option<usize>,
    order: Vec<(PageId, f64)>,
}

impl ReplacementPolicy for SlruOracle {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if position(&self.order, page.id).is_none() {
            let crit = page.meta.stats.criterion(self.criterion);
            self.order.push((page.id, crit));
        }
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        touch(&mut self.order, page.id);
    }

    fn on_update(&mut self, page: &Page) {
        if let Some(crit) = value_mut(&mut self.order, page.id) {
            *crit = page.meta.stats.criterion(self.criterion);
        }
    }

    fn on_remove(&mut self, id: PageId) {
        take(&mut self.order, id);
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        let limit = self.limit.unwrap_or(usize::MAX);
        spatial_victim(&self.order, |&crit| crit, limit, evictable)
    }

    fn candidate_size(&self) -> Option<usize> {
        self.limit
    }
}

#[derive(Debug, Clone, Copy)]
struct Info {
    crit: f64,
    last_access: u64,
}

/// ASB as it stood before the ranked prefix.
struct AsbOracle {
    criterion: SpatialCriterion,
    main_cap: usize,
    overflow_cap: usize,
    candidate: usize,
    step: usize,
    main: Vec<(PageId, Info)>,
    overflow: Vec<(PageId, Info)>,
}

impl AsbOracle {
    fn new(capacity: usize, params: AsbParams) -> Self {
        let overflow_cap =
            ((capacity as f64 * params.overflow_fraction).round() as usize).min(capacity - 1);
        let main_cap = capacity - overflow_cap;
        let candidate = ((main_cap as f64 * params.initial_candidate_fraction).round() as usize)
            .clamp(1, main_cap);
        let step = ((main_cap as f64 * params.step_fraction).round() as usize).max(1);
        AsbOracle {
            criterion: params.criterion,
            main_cap,
            overflow_cap,
            candidate,
            step,
            main: Vec::new(),
            overflow: Vec::new(),
        }
    }

    fn enter_main(&mut self, id: PageId, info: Info) {
        self.main.push((id, info));
        if self.main.len() > self.main_cap {
            if let Some(id) = spatial_victim(&self.main, |i| i.crit, self.candidate, &|_| true) {
                if let Some(info) = take(&mut self.main, id) {
                    self.overflow.push((id, info));
                }
            }
        }
    }

    fn adapt(&mut self, p: PageId) {
        let Some(&(_, me)) = self.overflow.iter().find(|&&(id, _)| id == p) else {
            return;
        };
        let (mut better_spatial, mut better_lru) = (0usize, 0usize);
        for (_, other) in self.overflow.iter().filter(|&&(id, _)| id != p) {
            better_spatial += usize::from(other.crit > me.crit);
            better_lru += usize::from(other.last_access > me.last_access);
        }
        if better_spatial > better_lru {
            self.candidate = self.candidate.saturating_sub(self.step).max(1);
        } else if better_spatial < better_lru {
            self.candidate = (self.candidate + self.step).min(self.main_cap);
        }
    }
}

impl ReplacementPolicy for AsbOracle {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, now: u64) {
        let crit = page.meta.stats.criterion(self.criterion);
        self.enter_main(
            page.id,
            Info {
                crit,
                last_access: now,
            },
        );
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, now: u64) {
        if let Some(info) = touch(&mut self.main, page.id) {
            info.last_access = now;
            return;
        }
        self.adapt(page.id);
        if let Some(info) = take(&mut self.overflow, page.id) {
            let info = Info {
                last_access: now,
                ..info
            };
            self.enter_main(page.id, info);
        }
    }

    fn on_update(&mut self, page: &Page) {
        let crit = page.meta.stats.criterion(self.criterion);
        let info = match value_mut(&mut self.main, page.id) {
            Some(info) => Some(info),
            None => value_mut(&mut self.overflow, page.id),
        };
        if let Some(info) = info {
            info.crit = crit;
        }
    }

    fn on_remove(&mut self, id: PageId) {
        if take(&mut self.overflow, id).is_none() {
            take(&mut self.main, id);
        }
    }

    fn select_victim(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        let mut overflow = self.overflow.iter().map(|&(id, _)| id);
        (overflow.find(|&id| evictable(id)))
            .or_else(|| spatial_victim(&self.main, |i| i.crit, self.candidate, evictable))
    }

    fn candidate_size(&self) -> Option<usize> {
        Some(self.candidate)
    }

    fn overflow_state(&self) -> Option<(Vec<PageId>, usize)> {
        let ids = self.overflow.iter().map(|&(id, _)| id).collect();
        Some((ids, self.overflow_cap))
    }
}

struct Hist {
    times: Vec<u64>,
    last_query: QueryId,
    last_access: u64,
}

/// LRU-K as it stood before its residents were kept in HIST order: a scan
/// over the residents in page-id order.
struct LruKOracle {
    k: usize,
    history: HashMap<PageId, Hist>,
    resident: BTreeSet<PageId>,
}

impl LruKOracle {
    fn record(&mut self, id: PageId, ctx: AccessContext, now: u64) {
        let k = self.k;
        let hist = self.history.entry(id).or_insert_with(|| Hist {
            times: Vec::with_capacity(k),
            last_query: ctx.query,
            last_access: 0,
        });
        if hist.times.is_empty() {
            hist.times.push(now);
        } else if hist.last_query == ctx.query {
            hist.times[0] = now;
        } else {
            hist.times.insert(0, now);
            hist.times.truncate(k);
        }
        hist.last_query = ctx.query;
        hist.last_access = now;
    }
}

impl ReplacementPolicy for LruKOracle {
    fn on_insert(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.resident.insert(page.id);
        self.record(page.id, ctx, now);
    }

    fn on_hit(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.record(page.id, ctx, now);
    }

    fn on_remove(&mut self, id: PageId) {
        self.resident.remove(&id);
    }

    fn select_victim(
        &mut self,
        ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        let best = |skip_correlated: bool| -> Option<PageId> {
            let mut victim: Option<(PageId, Option<u64>, u64)> = None;
            for &id in &self.resident {
                if !evictable(id) {
                    continue;
                }
                let hist = &self.history[&id];
                if skip_correlated && hist.last_query == ctx.query {
                    continue;
                }
                let key = hist.times.get(self.k - 1).copied();
                let last = hist.last_access;
                let better = match &victim {
                    None => true,
                    Some((_, vkey, vlast)) => match (key, vkey) {
                        (None, Some(_)) => true,
                        (Some(_), None) => false,
                        (None, None) => last < *vlast,
                        (Some(a), Some(b)) => a < *b || (a == *b && last < *vlast),
                    },
                };
                if better {
                    victim = Some((id, key, last));
                }
            }
            victim.map(|(id, _, _)| id)
        };
        best(true).or_else(|| best(false))
    }

    fn retained_history(&self) -> usize {
        self.history.len() - self.resident.len()
    }

    fn retain_history(&mut self, live: &dyn Fn(PageId) -> bool) {
        let resident = &self.resident;
        self.history
            .retain(|id, _| resident.contains(id) || live(*id));
    }
}

/// Entry shapes chosen so criteria tie often: a point and a segment (both
/// zero area), two equal unit squares, a square overlapping them, a wide
/// rectangle and a large square.
const SHAPES: [(f64, f64, f64, f64); 7] = [
    (1.0, 1.0, 1.0, 1.0),
    (0.0, 0.0, 2.0, 0.0),
    (0.0, 0.0, 1.0, 1.0),
    (3.0, 3.0, 4.0, 4.0),
    (0.5, 0.5, 1.5, 1.5),
    (0.0, 0.0, 3.0, 1.0),
    (0.0, 0.0, 5.0, 5.0),
];

/// A page whose one to three entries are drawn from [`SHAPES`] by `seed`.
fn page(raw: u64, seed: u64) -> Page {
    let entries: Vec<Rect> = (0..=seed % 3)
        .map(|i| {
            let (x0, y0, x1, y1) = SHAPES[((seed >> (2 + 3 * i)) % 7) as usize];
            Rect::new(x0, y0, x1, y1)
        })
        .collect();
    let meta = PageMeta::data(SpatialStats::from_rects(&entries));
    Page::new(PageId::new(raw), meta, Bytes::new()).expect("page")
}

/// One step of the fuzz: `(op, page, seed, query)`.
type Event = (u8, u64, u64, u64);

/// Drives `real` and `oracle` through `events` as a buffer of `capacity`
/// pages would, and compares their victims after every event.
fn drive(
    label: &str,
    mut real: Policy,
    mut oracle: Policy,
    capacity: usize,
    events: &[Event],
) -> Result<(), TestCaseError> {
    let mut resident = BTreeSet::new();
    let mut now = 0u64;
    for (step, &(op, raw, seed, query)) in events.iter().enumerate() {
        // Ticks are non-decreasing, with ties, as under a batched fetch.
        now += seed & 1;
        let ctx = AccessContext::query(QueryId::new(query));
        let id = PageId::new(raw);
        let page = page(raw, seed);
        match op {
            0..=2 if resident.contains(&id) => {
                real.on_hit(&page, ctx, now);
                oracle.on_hit(&page, ctx, now);
            }
            0..=2 => {
                if resident.len() >= capacity {
                    let victim = real.select_victim_unpinned(ctx);
                    prop_assert_eq!(victim, oracle.select_victim(ctx, &|_| true), "{label}");
                    let victim = victim.expect("a full buffer has a victim");
                    prop_assert!(
                        resident.remove(&victim),
                        "{label}: {victim:?} is not resident"
                    );
                    real.on_remove(victim);
                    oracle.on_remove(victim);
                }
                real.on_insert(&page, ctx, now);
                oracle.on_insert(&page, ctx, now);
                resident.insert(id);
            }
            3 if resident.contains(&id) => {
                real.on_update(&page);
                oracle.on_update(&page);
            }
            4 if resident.remove(&id) => {
                real.on_remove(id);
                oracle.on_remove(id);
            }
            5 => {
                let live = |p: PageId| (p.raw() ^ seed).is_multiple_of(3);
                real.retain_history(&live);
                oracle.retain_history(&live);
            }
            _ => {}
        }
        let pinned = |p: PageId| (p.raw().wrapping_mul(seed | 1) >> 4).is_multiple_of(4);
        let evictable = |p: PageId| resident.contains(&p) && !pinned(p);
        let at = format!("{label}, event {step} {:?}", events[step]);
        prop_assert_eq!(
            real.select_victim(ctx, &evictable),
            oracle.select_victim(ctx, &evictable),
            "{at}: pinned"
        );
        let all = oracle.select_victim(ctx, &|_| true);
        prop_assert_eq!(real.select_victim(ctx, &|_| true), all, "{at}: all");
        prop_assert_eq!(real.select_victim_unpinned(ctx), all, "{at}: unpinned");
        prop_assert_eq!(real.candidate_size(), oracle.candidate_size(), "{at}");
        prop_assert_eq!(real.overflow_state(), oracle.overflow_state(), "{at}");
        prop_assert_eq!(real.retained_history(), oracle.retained_history(), "{at}");
    }
    Ok(())
}

const FRACTIONS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ranked_victims_match_the_linear_scans(
        events in prop::collection::vec((0u8..7, 0u64..24, 0u64..1 << 16, 0u64..4), 1..300),
        capacity in 1usize..16,
        (fraction, criterion, k) in (0usize..5, 0usize..5, 1usize..4),
        (overflow, initial, step) in (0usize..3, 0usize..5, 0usize..3),
    ) {
        let criterion = SpatialCriterion::ALL[criterion];
        let candidate_fraction = FRACTIONS[fraction];
        let limit = ((capacity as f64 * candidate_fraction).round() as usize).max(1);
        let slru = PolicyKind::Slru { candidate_fraction, criterion };
        drive(
            &format!("{slru:?} @ {capacity}"),
            slru.build(capacity),
            Box::new(SlruOracle { criterion, limit: Some(limit), order: Vec::new() }),
            capacity,
            &events,
        )?;
        for criterion in SpatialCriterion::ALL {
            drive(
                &format!("{criterion:?} @ {capacity}"),
                PolicyKind::Spatial(criterion).build(capacity),
                Box::new(SlruOracle { criterion, limit: None, order: Vec::new() }),
                capacity,
                &events,
            )?;
        }
        let params = AsbParams {
            overflow_fraction: [0.0, 0.2, 0.4][overflow],
            initial_candidate_fraction: FRACTIONS[initial],
            step_fraction: [0.01, 0.2, 0.5][step],
            criterion,
        };
        drive(
            &format!("{params:?} @ {capacity}"),
            PolicyKind::AsbWith(params).build(capacity),
            Box::new(AsbOracle::new(capacity, params)),
            capacity,
            &events,
        )?;
        let oracle = LruKOracle { k, history: HashMap::new(), resident: BTreeSet::new() };
        drive(
            &format!("LRU-{k} @ {capacity}"),
            PolicyKind::LruK { k }.build(capacity),
            Box::new(oracle),
            capacity,
            &events,
        )?;
    }
}

/// The fuzz above must actually reach ASB's self-tuning: overflow hits
/// that move the candidate-set size both ways.
#[test]
fn overflow_hits_move_the_candidate_set_both_ways() {
    let capacity = 10; // overflow 2, main 8, candidate 2, step 1
    let mut real = PolicyKind::Asb.build(capacity);
    let mut oracle: Policy = Box::new(AsbOracle::new(capacity, AsbParams::default()));
    let (mut grew, mut shrank) = (false, false);
    let mut resident = BTreeSet::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for now in 1..4000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let (raw, seed) = (state % 14, state >> 8);
        let page = page(raw, seed);
        let ctx = AccessContext::query(QueryId::new(now));
        let before = real.candidate_size();
        if resident.insert(page.id) {
            if resident.len() > capacity {
                let victim = real.select_victim_unpinned(ctx).expect("victim");
                assert_eq!(Some(victim), oracle.select_victim(ctx, &|_| true));
                resident.remove(&victim);
                real.on_remove(victim);
                oracle.on_remove(victim);
            }
            real.on_insert(&page, ctx, now);
            oracle.on_insert(&page, ctx, now);
        } else {
            real.on_hit(&page, ctx, now);
            oracle.on_hit(&page, ctx, now);
        }
        assert_eq!(real.candidate_size(), oracle.candidate_size());
        grew |= real.candidate_size() > before;
        shrank |= real.candidate_size() < before;
    }
    assert!(
        grew && shrank,
        "overflow hits must move the candidate set both ways"
    );
}

/// A policy rebuilt from the residents alone, the way the arena builds a
/// recency-derived mirror on promotion: `on_insert` replayed over `order`,
/// oldest first, with the metadata each page carries now.
fn rebuilt(kind: PolicyKind, capacity: usize, order: &[(PageId, PageMeta)]) -> Policy {
    let mut policy = kind.build(capacity);
    for &(id, meta) in order {
        let page = Page::new(id, meta, Bytes::new()).expect("page");
        policy.on_insert(&page, AccessContext::default(), 0);
    }
    policy
}

/// Drives `kind` live through `events` as a buffer of `capacity` pages
/// would and, after every event, compares its victims with those of the
/// policy [`rebuilt`] from the residents: every page evictable, through
/// `select_victim_unpinned`, and under a random pinned set. Returns the
/// first disagreement.
fn rebuild_divergence(kind: PolicyKind, capacity: usize, events: &[Event]) -> Option<String> {
    let mut live = kind.build(capacity);
    let mut order: Vec<(PageId, PageMeta)> = Vec::new();
    let mut now = 0u64;
    for (step, &(op, raw, seed, query)) in events.iter().enumerate() {
        now += seed & 1;
        let ctx = AccessContext::query(QueryId::new(query));
        let id = PageId::new(raw);
        let page = page(raw, seed);
        let resident = position(&order, id).is_some();
        match op {
            0..=2 if resident => {
                live.on_hit(&page, ctx, now);
                touch(&mut order, id);
            }
            0..=2 => {
                if order.len() >= capacity {
                    let victim = live.select_victim_unpinned(ctx).expect("victim");
                    take(&mut order, victim).expect("a resident victim");
                    live.on_remove(victim);
                }
                live.on_insert(&page, ctx, now);
                order.push((id, page.meta));
            }
            3 if resident => {
                live.on_update(&page);
                *value_mut(&mut order, id).expect("resident") = page.meta;
            }
            4 if resident => {
                take(&mut order, id);
                live.on_remove(id);
            }
            _ => {}
        }
        let mut fresh = rebuilt(kind, capacity, &order);
        let pinned = |p: PageId| (p.raw().wrapping_mul(seed | 1) >> 4).is_multiple_of(4);
        let evictable = |p: PageId| position(&order, p).is_some() && !pinned(p);
        let victims = |policy: &mut Policy| {
            let unpinned = policy.select_victim_unpinned(ctx);
            (unpinned, policy.select_victim(ctx, &evictable))
        };
        let (a, b) = (victims(&mut live), victims(&mut fresh));
        if a != b {
            return Some(format!(
                "{kind:?} @ {capacity}, event {step}: live {a:?}, rebuilt {b:?}"
            ));
        }
    }
    None
}

/// The kinds the arena may rebuild instead of feeding: LRU, SLRU 25 % and
/// 50 % and the five pure spatial policies.
fn recency_derived() -> Vec<PolicyKind> {
    let mut kinds = vec![PolicyKind::Lru];
    for candidate_fraction in [0.25, 0.5] {
        kinds.push(PolicyKind::Slru {
            candidate_fraction,
            criterion: SpatialCriterion::Area,
        });
    }
    kinds.extend(SpatialCriterion::ALL.map(PolicyKind::Spatial));
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recency_derived_policies_rebuild_from_their_residents(
        events in prop::collection::vec((0u8..6, 0u64..24, 0u64..1 << 16, 0u64..4), 1..200),
        capacity in 1usize..16,
    ) {
        for kind in recency_derived() {
            prop_assert_eq!(rebuild_divergence(kind, capacity, &events), None);
        }
    }
}

/// The witness that keeps LRU-2, 2Q and ASB out of the rebuilt set: one
/// trace on which each of them, rebuilt from its residents, names another
/// victim than when fed live — their victims depend on history (HIST
/// times and query correlation, the FIFO probation queue, overflow order
/// and the tuned candidate set) that the residents do not carry.
#[test]
fn history_keeping_policies_break_the_rebuild_law() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let witness: Vec<Event> = (0..400)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (
                (state % 6) as u8,
                (state >> 8) % 24,
                state >> 16,
                (state >> 40) % 4,
            )
        })
        .collect();
    let capacity = 10;
    for kind in recency_derived() {
        assert_eq!(rebuild_divergence(kind, capacity, &witness), None);
    }
    for kind in [PolicyKind::LruK { k: 2 }, PolicyKind::TwoQ, PolicyKind::Asb] {
        assert!(
            rebuild_divergence(kind, capacity, &witness).is_some(),
            "{kind:?} obeys the rebuild law on the witness"
        );
    }
}
