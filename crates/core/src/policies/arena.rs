//! The expert arena: a regret-minimizing mixer over replacement policies.
//!
//! The paper's ASB self-tunes exactly one knob — the LRU candidate-set size
//! — which adapts slowly when the workload phase-changes. The arena goes
//! further, in the spirit of expert-based replacement (EEvA) and adaptive
//! weight ranking (AWRP): every [`ReplacementPolicy`] becomes an observable
//! *expert* that sees the full event stream and is asked which victim it
//! would select, without owning eviction authority.
//!
//! Each expert is instantiated twice:
//!
//! * a **mirror** tracks the *real* buffer (it receives every
//!   `on_insert`/`on_hit`/`on_update`/`on_remove` the manager issues), so
//!   the expert can nominate victims among actually-resident pages;
//! * a **sim** plus a bounded **ghost cache** simulate "what would this
//!   expert's buffer hold if it had been in charge all along?". A request
//!   absent from the ghost cache is a *counterfactual miss* charged to the
//!   expert.
//!
//! A multiplicative-weights mixer decays each expert's weight by its
//! ghost-cache misses (an exponential sliding window over recent losses),
//! mixes in a fixed share of the uniform distribution so a written-off
//! expert can recover after a phase change, and delegates
//! `select_victim` to the current *leader* (the argmax weight). Cumulative
//! regret versus the best expert in hindsight and the number of authority
//! switches are reported through [`ArenaState`].

use crate::order::LinkedOrder;
use crate::policy::{PolicyKind, ReplacementPolicy};
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId};
use serde::Serialize;

/// Weight floor applied after normalization so weights stay strictly
/// positive even with a zero fixed share (underflow protection).
const MIN_WEIGHT: f64 = 1e-12;

/// A preset expert roster for the arena.
///
/// Rosters are presets (not arbitrary lists) so [`ArenaParams`] stays
/// `Copy` and trivially serializable in experiment configurations and trace
/// headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Roster {
    /// The full study roster: LRU, LRU-2, 2Q, SLRU 25 % (A), the five
    /// spatial criteria A/EA/M/EM/EO, and ASB — ten experts.
    Full,
    /// A lean roster for tight budgets: LRU, LRU-2, 2Q, SLRU 25 % (A) and
    /// ASB — five experts.
    Lean,
}

impl Roster {
    /// The policy kinds in this roster, in fixed order (index 0 is the
    /// initial leader).
    pub fn kinds(&self) -> Vec<PolicyKind> {
        let slru = PolicyKind::Slru {
            candidate_fraction: 0.25,
            criterion: SpatialCriterion::Area,
        };
        match self {
            Roster::Full => {
                let mut kinds = vec![
                    PolicyKind::Lru,
                    PolicyKind::LruK { k: 2 },
                    PolicyKind::TwoQ,
                    slru,
                ];
                kinds.extend(
                    SpatialCriterion::ALL
                        .iter()
                        .map(|&c| PolicyKind::Spatial(c)),
                );
                kinds.push(PolicyKind::Asb);
                kinds
            }
            Roster::Lean => vec![
                PolicyKind::Lru,
                PolicyKind::LruK { k: 2 },
                PolicyKind::TwoQ,
                slru,
                PolicyKind::Asb,
            ],
        }
    }
}

/// Tuning parameters of the expert arena
/// ([`PolicyKind::ArenaWith`](crate::PolicyKind::ArenaWith)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ArenaParams {
    /// Multiplicative penalty per ghost-cache miss: a charged expert's
    /// weight is scaled by `1 - decay`. Zero freezes the weights (the
    /// leader never changes — the arena then replays its first expert
    /// bit-for-bit).
    pub decay: f64,
    /// Fixed-share mixing rate: after every update each weight receives
    /// `share / n` of the probability mass, so an expert written off in one
    /// phase can regain authority quickly in the next.
    pub share: f64,
    /// The expert roster preset.
    pub roster: Roster,
}

impl Default for ArenaParams {
    fn default() -> Self {
        ArenaParams {
            decay: 0.05,
            share: 0.005,
            roster: Roster::Full,
        }
    }
}

/// Per-expert snapshot reported by [`ArenaState`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExpertState {
    /// The expert's display label (its policy name).
    pub label: String,
    /// Current mixer weight (weights sum to 1).
    pub weight: f64,
    /// Cumulative counterfactual misses of this expert's ghost cache.
    pub ghost_misses: u64,
    /// Current number of pages in this expert's ghost cache (≤ the real
    /// buffer capacity).
    pub ghost_len: usize,
}

/// Snapshot of the arena's mixer: per-expert weights and ghost-miss
/// counts, the current leader, and authority-switch statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaState {
    /// One entry per roster expert, in roster order.
    pub experts: Vec<ExpertState>,
    /// Roster index of the current leader (the argmax weight; ties go to
    /// the lowest index).
    pub leader: usize,
    /// Number of times eviction authority moved to a different expert.
    pub switches: u64,
    /// Accesses observed by the arena (inserts + hits).
    pub accesses: u64,
    /// Real buffer misses observed by the arena (inserts).
    pub misses: u64,
}

impl ArenaState {
    /// Ghost misses of the best expert in hindsight.
    pub fn best_expert_misses(&self) -> u64 {
        self.experts
            .iter()
            .map(|e| e.ghost_misses)
            .min()
            .unwrap_or(0)
    }

    /// Cumulative regret versus the best expert in hindsight: real misses
    /// minus the best expert's counterfactual misses. Negative regret means
    /// the mixed policy beat every individual expert.
    pub fn regret(&self) -> i64 {
        self.misses as i64 - self.best_expert_misses() as i64
    }

    /// The current weight vector, in roster order.
    pub fn weights(&self) -> Vec<f64> {
        self.experts.iter().map(|e| e.weight).collect()
    }
}

/// One roster slot: mirror (tracks the real buffer), sim + ghost cache
/// (tracks the counterfactual buffer), and mixer bookkeeping.
struct Expert {
    label: String,
    mirror: Box<dyn ReplacementPolicy + Send>,
    sim: Box<dyn ReplacementPolicy + Send>,
    /// Membership of the simulated buffer. A `LinkedOrder` (not a hash
    /// set) so the deterministic-replay guarantee never depends on hash
    /// iteration order.
    ghost: LinkedOrder<PageId>,
    ghost_misses: u64,
    weight: f64,
}

impl Expert {
    /// Feeds one access into the simulated buffer. Returns `true` when the
    /// ghost cache missed (the expert is charged a loss).
    fn simulate(&mut self, page: &Page, ctx: AccessContext, now: u64, capacity: usize) -> bool {
        let id = page.id;
        if self.ghost.contains(&id) {
            self.sim.on_hit(page, ctx, now);
            self.ghost.move_to_back(&id);
            return false;
        }
        self.ghost_misses += 1;
        while self.ghost.len() >= capacity {
            // The sim tracks exactly the ghost set, none of it pinned.
            let victim = (self.sim.select_victim_unpinned(ctx)).or_else(|| self.ghost.front());
            let Some(victim) = victim else { break };
            self.sim.on_remove(victim);
            self.ghost.remove(&victim);
        }
        self.sim.on_insert(page, ctx, now);
        self.ghost.push_back(id, ());
        true
    }
}

/// The expert arena (`PolicyKind::Arena`).
///
/// See the [module documentation](self) for the architecture. The arena is
/// a regular [`ReplacementPolicy`]: the buffer manager drives it exactly
/// like any other policy, and all mixing happens inside the event handlers,
/// which keeps replay bit-for-bit deterministic.
pub(crate) struct ArenaPolicy {
    params: ArenaParams,
    capacity: usize,
    experts: Vec<Expert>,
    leader: usize,
    switches: u64,
    accesses: u64,
    misses: u64,
    /// Pages currently resident in the *real* buffer, in recency order.
    resident: LinkedOrder<PageId>,
    /// The last ≤ `capacity` distinct accessed pages; the liveness horizon
    /// for pruning expert history (LRU-K HIST) beyond residents and ghosts.
    recent: LinkedOrder<PageId>,
}

impl ArenaPolicy {
    /// Creates an arena over `params.roster` for a buffer of `capacity`
    /// pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`, `decay` is outside `[0, 1)` or `share`
    /// is outside `[0, 1]`.
    pub fn new(capacity: usize, params: ArenaParams) -> Self {
        assert!(capacity > 0, "the arena requires a non-empty buffer");
        assert!(
            (0.0..1.0).contains(&params.decay),
            "decay must be in [0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&params.share),
            "share must be in [0, 1]"
        );
        let kinds = params.roster.kinds();
        let uniform = 1.0 / kinds.len() as f64;
        let experts = kinds
            .iter()
            .map(|kind| Expert {
                label: kind.label(),
                mirror: kind.build(capacity),
                sim: kind.build(capacity),
                ghost: LinkedOrder::default(),
                ghost_misses: 0,
                weight: uniform,
            })
            .collect();
        ArenaPolicy {
            params,
            capacity,
            experts,
            leader: 0,
            switches: 0,
            accesses: 0,
            misses: 0,
            resident: LinkedOrder::default(),
            recent: LinkedOrder::default(),
        }
    }

    /// One access (insert or hit): run every ghost simulation, update the
    /// mixer weights, and re-elect the leader.
    fn observe(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.accesses += 1;
        if self.recent.move_to_back(&page.id).is_none() {
            self.recent.push_back(page.id, ());
        }
        while self.recent.len() > self.capacity {
            self.recent.pop_front();
        }

        let n = self.experts.len() as f64;
        for expert in &mut self.experts {
            let missed = expert.simulate(page, ctx, now, self.capacity);
            if missed && self.params.decay > 0.0 {
                expert.weight *= 1.0 - self.params.decay;
            }
        }

        // Normalize, floor, and mix in the fixed share of the uniform
        // distribution.
        let sum: f64 = self.experts.iter().map(|e| e.weight).sum();
        for expert in &mut self.experts {
            let mut w = expert.weight / sum;
            w = w.max(MIN_WEIGHT);
            if self.params.share > 0.0 {
                w = (1.0 - self.params.share) * w + self.params.share / n;
            }
            expert.weight = w;
        }
        let sum: f64 = self.experts.iter().map(|e| e.weight).sum();
        for expert in &mut self.experts {
            expert.weight /= sum;
        }

        // Leader = argmax weight, ties to the lowest roster index; strict
        // '>' means authority only moves on a real overtake.
        let mut leader = 0usize;
        for i in 1..self.experts.len() {
            if self.experts[i].weight > self.experts[leader].weight {
                leader = i;
            }
        }
        if leader != self.leader {
            self.leader = leader;
            self.switches += 1;
        }

        // Periodically prune unbounded expert history (LRU-K HIST) down to
        // the liveness horizon so total ghost memory stays bounded.
        if self.accesses.is_multiple_of(self.capacity as u64) {
            self.prune();
        }
    }

    /// Drops expert history for pages outside the liveness horizon
    /// (real residents, the expert's own ghosts, and the recency window).
    fn prune(&mut self) {
        let resident = &self.resident;
        let recent = &self.recent;
        for expert in &mut self.experts {
            expert
                .mirror
                .retain_history(&|p| resident.contains(&p) || recent.contains(&p));
            let ghost = &expert.ghost;
            expert
                .sim
                .retain_history(&|p| ghost.contains(&p) || recent.contains(&p));
        }
    }

    /// Authority belongs to the leader; if its mirror abstains (e.g.
    /// everything it tracks is pinned), the rest of the roster is polled
    /// in order. The callers fall back to the arena's own recency order.
    fn poll_mirrors(
        &mut self,
        mut pick: impl FnMut(&mut (dyn ReplacementPolicy + Send)) -> Option<PageId>,
    ) -> Option<PageId> {
        let leader = self.leader;
        pick(&mut *self.experts[leader].mirror).or_else(|| {
            (self.experts.iter_mut().enumerate())
                .filter(|&(i, _)| i != leader)
                .find_map(|(_, expert)| pick(&mut *expert.mirror))
        })
    }

    fn snapshot(&self) -> ArenaState {
        ArenaState {
            experts: self
                .experts
                .iter()
                .map(|e| ExpertState {
                    label: e.label.clone(),
                    weight: e.weight,
                    ghost_misses: e.ghost_misses,
                    ghost_len: e.ghost.len(),
                })
                .collect(),
            leader: self.leader,
            switches: self.switches,
            accesses: self.accesses,
            misses: self.misses,
        }
    }
}

impl ReplacementPolicy for ArenaPolicy {
    fn on_insert(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.misses += 1;
        self.resident.push_back(page.id, ());
        for expert in &mut self.experts {
            expert.mirror.on_insert(page, ctx, now);
        }
        self.observe(page, ctx, now);
    }

    fn on_hit(&mut self, page: &Page, ctx: AccessContext, now: u64) {
        self.resident.move_to_back(&page.id);
        for expert in &mut self.experts {
            expert.mirror.on_hit(page, ctx, now);
        }
        self.observe(page, ctx, now);
    }

    fn on_update(&mut self, page: &Page) {
        for expert in &mut self.experts {
            expert.mirror.on_update(page);
            if expert.ghost.contains(&page.id) {
                expert.sim.on_update(page);
            }
        }
    }

    fn on_remove(&mut self, id: PageId) {
        // Only the real buffer shrinks; the ghost caches keep simulating
        // what each expert would have retained.
        self.resident.remove(&id);
        for expert in &mut self.experts {
            expert.mirror.on_remove(id);
        }
    }

    fn select_victim(
        &mut self,
        ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        (self.poll_mirrors(|mirror| mirror.select_victim(ctx, evictable)))
            .or_else(|| self.resident.keys().find(|&id| evictable(id)))
    }

    fn select_victim_unpinned(&mut self, ctx: AccessContext) -> Option<PageId> {
        (self.poll_mirrors(|mirror| mirror.select_victim_unpinned(ctx)))
            .or_else(|| self.resident.front())
    }

    fn retained_history(&self) -> usize {
        // One consistent definition: records kept for pages outside the
        // *real* buffer — ghost-cache entries plus whatever history the
        // mirrors and sims retain internally (2Q A1out, pruned LRU-K HIST).
        let resident = &self.resident;
        self.experts
            .iter()
            .map(|e| {
                let ghosts = e.ghost.keys().filter(|p| !resident.contains(p)).count();
                ghosts + e.mirror.retained_history() + e.sim.retained_history()
            })
            .sum()
    }

    fn retain_history(&mut self, live: &dyn Fn(PageId) -> bool) {
        let _ = live;
        self.prune();
    }

    fn arena_state(&self) -> Option<ArenaState> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialStats};
    use asb_storage::{PageMeta, QueryId};
    use bytes::Bytes;

    fn page(raw: u64) -> Page {
        let side = (raw % 7) as f64 + 0.5;
        let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn q(n: u64) -> AccessContext {
        AccessContext::query(QueryId::new(n))
    }

    fn all(_: PageId) -> bool {
        true
    }

    /// Drives `arena` like a buffer manager over `trace` with the given
    /// capacity, returning the eviction sequence.
    fn drive(arena: &mut ArenaPolicy, capacity: usize, trace: &[u64]) -> Vec<PageId> {
        let mut resident = Vec::new();
        let mut evictions = Vec::new();
        for (now, &raw) in trace.iter().enumerate() {
            let now = now as u64 + 1;
            let p = page(raw);
            if resident.contains(&p.id) {
                arena.on_hit(&p, q(now), now);
            } else {
                if resident.len() >= capacity {
                    let victim = arena.select_victim(q(now), &all).expect("victim");
                    resident.retain(|&id| id != victim);
                    arena.on_remove(victim);
                    evictions.push(victim);
                }
                resident.push(p.id);
                arena.on_insert(&p, q(now), now);
            }
        }
        evictions
    }

    #[test]
    fn weights_stay_normalized_and_positive() {
        let mut arena = ArenaPolicy::new(4, ArenaParams::default());
        let trace: Vec<u64> = (0..200u64).map(|i| (i * 7 + i / 3) % 23).collect();
        drive(&mut arena, 4, &trace);
        let state = arena.arena_state().unwrap();
        let sum: f64 = state.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        assert!(state.weights().iter().all(|&w| w > 0.0));
        assert_eq!(
            state.experts.len(),
            ArenaParams::default().roster.kinds().len()
        );
    }

    #[test]
    fn leader_is_argmax_with_lowest_index_ties() {
        let mut arena = ArenaPolicy::new(4, ArenaParams::default());
        let trace: Vec<u64> = (0..300u64).map(|i| (i * 13 + 5) % 31).collect();
        drive(&mut arena, 4, &trace);
        let state = arena.arena_state().unwrap();
        let best = state
            .weights()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(state.weights()[state.leader], best);
        let first_argmax = state.weights().iter().position(|&w| w == best).unwrap();
        assert_eq!(state.leader, first_argmax);
    }

    #[test]
    fn zero_decay_freezes_the_leader_on_expert_zero() {
        let params = ArenaParams {
            decay: 0.0,
            ..ArenaParams::default()
        };
        let trace: Vec<u64> = (0..400u64).map(|i| (i * 11 + i / 5) % 37).collect();
        let mut arena = ArenaPolicy::new(6, params);
        let arena_evictions = drive(&mut arena, 6, &trace);
        assert_eq!(arena.arena_state().unwrap().switches, 0);
        assert_eq!(arena.leader, 0);

        // Expert 0 of every roster is plain LRU: the frozen arena must make
        // bit-identical eviction decisions.
        let mut plain = PolicyKind::Lru.build(6);
        let mut resident = Vec::new();
        let mut evictions = Vec::new();
        for (now, &raw) in trace.iter().enumerate() {
            let now = now as u64 + 1;
            let p = page(raw);
            if resident.contains(&p.id) {
                plain.on_hit(&p, q(now), now);
            } else {
                if resident.len() >= 6 {
                    let victim = plain.select_victim(q(now), &all).unwrap();
                    resident.retain(|&id| id != victim);
                    plain.on_remove(victim);
                    evictions.push(victim);
                }
                resident.push(p.id);
                plain.on_insert(&p, q(now), now);
            }
        }
        assert_eq!(arena_evictions, evictions);
    }

    #[test]
    fn ghost_caches_are_bounded_by_capacity() {
        let capacity = 5;
        let mut arena = ArenaPolicy::new(capacity, ArenaParams::default());
        let trace: Vec<u64> = (0..500u64).map(|i| (i * 17 + 3) % 61).collect();
        drive(&mut arena, capacity, &trace);
        let state = arena.arena_state().unwrap();
        for expert in &state.experts {
            assert!(
                expert.ghost_len <= capacity,
                "{} ghost cache holds {} > capacity {}",
                expert.label,
                expert.ghost_len,
                capacity
            );
        }
        let bound = 3 * state.experts.len() * capacity;
        assert!(
            arena.retained_history() <= bound,
            "retained history {} exceeds documented bound {}",
            arena.retained_history(),
            bound
        );
    }

    #[test]
    fn authority_switches_are_counted() {
        // An adversarial flip between a scan (LRU-hostile) and a hot set
        // should move authority at least once under an aggressive decay.
        let params = ArenaParams {
            decay: 0.3,
            share: 0.01,
            roster: Roster::Lean,
        };
        let mut arena = ArenaPolicy::new(4, params);
        let mut trace = Vec::new();
        for round in 0..40u64 {
            for i in 0..12u64 {
                trace.push(round % 2 * 100 + i); // alternate two disjoint scans
            }
        }
        drive(&mut arena, 4, &trace);
        let state = arena.arena_state().unwrap();
        assert!(state.accesses == trace.len() as u64);
        assert!(state.misses > 0);
        // With all experts losing on a pure scan the leader may stay put;
        // just assert the counter is consistent with the leader history.
        assert!(state.switches < state.accesses);
    }

    #[test]
    fn regret_is_misses_minus_best_expert() {
        let mut arena = ArenaPolicy::new(4, ArenaParams::default());
        let trace: Vec<u64> = (0..150u64).map(|i| (i * 3 + 1) % 19).collect();
        drive(&mut arena, 4, &trace);
        let state = arena.arena_state().unwrap();
        let best = state.experts.iter().map(|e| e.ghost_misses).min().unwrap();
        assert_eq!(state.best_expert_misses(), best);
        assert_eq!(state.regret(), state.misses as i64 - best as i64);
    }
}
