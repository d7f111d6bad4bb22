//! Differential oracle for the expert arena.
//!
//! The arena keeps one ghost map for all experts, answers for LRU from its
//! own recency order, and builds the mirror of another recency-derived
//! expert (SLRU, the pure spatial policies) only while that expert leads. `before` below is the arena as it stood with
//! one mirror, one sim and one ghost list per expert, each list behind its
//! own SipHash map, kept verbatim (with the recency order it used) and
//! assembled from the public `Roster::kinds()` and `PolicyKind::build`.
//! Driven through the same inserts, hits, updates, removals, mass clears
//! and pinned sets, both must report the same `arena_state()` (weights
//! bitwise), the same `retained_history()` and the same victims after
//! every event.

use asb::buffer::{ArenaParams, PolicyKind, ReplacementPolicy, Roster};
use asb::geom::{Rect, SpatialStats};
use asb::storage::{AccessContext, Page, PageId, PageMeta, QueryId};
use bytes::Bytes;
use std::collections::BTreeSet;

type Policy = Box<dyn ReplacementPolicy + Send>;

/// The arena before the ghost map and the lazy mirrors, verbatim.
mod before {
    use asb::buffer::{ArenaParams, ArenaState, ExpertState, ReplacementPolicy};
    use asb::storage::{AccessContext, Page, PageId};
    use std::collections::hash_map::{Entry, HashMap};
    use std::hash::Hash;

    const MIN_WEIGHT: f64 = 1e-12;

    const NIL: usize = usize::MAX;

    #[derive(Debug, Clone)]
    struct Node<K, V> {
        key: K,
        value: V,
        prev: usize,
        next: usize,
    }

    /// An ordered map with O(1) queue/recency operations.
    ///
    /// Front = oldest (LRU / FIFO victim side), back = newest (MRU side).
    #[derive(Debug, Clone)]
    pub(crate) struct LinkedOrder<K, V = ()> {
        nodes: Vec<Node<K, V>>,
        index: HashMap<K, usize>,
        free: Vec<usize>,
        head: usize,
        tail: usize,
    }

    impl<K, V> Default for LinkedOrder<K, V> {
        fn default() -> Self {
            LinkedOrder {
                nodes: Vec::new(),
                index: HashMap::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }
        }
    }

    impl<K: Eq + Hash + Copy, V: Copy> LinkedOrder<K, V> {
        /// Number of keys.
        pub fn len(&self) -> usize {
            self.index.len()
        }

        /// Whether `key` is present.
        pub fn contains(&self, key: &K) -> bool {
            self.index.contains_key(key)
        }

        /// Appends `key` at the back (newest). Returns `false` (and does
        /// nothing) if the key is already present.
        pub fn push_back(&mut self, key: K, value: V) -> bool {
            let Entry::Vacant(entry) = self.index.entry(key) else {
                return false;
            };
            let node = Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            };
            let slot = if let Some(slot) = self.free.pop() {
                self.nodes[slot] = node;
                slot
            } else {
                self.nodes.push(node);
                self.nodes.len() - 1
            };
            entry.insert(slot);
            self.link_back(slot);
            true
        }

        /// Removes and returns the front (oldest) key.
        pub fn pop_front(&mut self) -> Option<K> {
            let key = self.front()?;
            self.remove(&key);
            Some(key)
        }

        /// The front (oldest) key without removing it.
        pub fn front(&self) -> Option<K> {
            (self.head != NIL).then(|| self.nodes[self.head].key)
        }

        /// Removes `key`, returning its value if it was present.
        pub fn remove(&mut self, key: &K) -> Option<V> {
            let slot = self.index.remove(key)?;
            self.unlink(slot);
            self.free.push(slot);
            Some(self.nodes[slot].value)
        }

        /// Moves `key` to the back (newest) and returns its value, or `None`
        /// if absent.
        pub fn move_to_back(&mut self, key: &K) -> Option<&mut V> {
            let slot = *self.index.get(key)?;
            if slot != self.tail {
                self.unlink(slot);
                self.link_back(slot);
            }
            Some(&mut self.nodes[slot].value)
        }

        /// Iterates `(key, value)` from front (oldest) to back (newest).
        pub fn iter(&self) -> Iter<'_, K, V> {
            Iter {
                order: self,
                cursor: self.head,
            }
        }

        /// Iterates keys from front (oldest) to back (newest).
        pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
            self.iter().map(|(key, _)| key)
        }

        fn link_back(&mut self, slot: usize) {
            let node = &mut self.nodes[slot];
            node.prev = self.tail;
            node.next = NIL;
            if self.tail != NIL {
                self.nodes[self.tail].next = slot;
            } else {
                self.head = slot;
            }
            self.tail = slot;
        }

        fn unlink(&mut self, slot: usize) {
            let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
            if prev != NIL {
                self.nodes[prev].next = next;
            } else {
                self.head = next;
            }
            if next != NIL {
                self.nodes[next].prev = prev;
            } else {
                self.tail = prev;
            }
        }
    }

    /// Front-to-back iterator over a [`LinkedOrder`].
    pub(crate) struct Iter<'a, K, V> {
        order: &'a LinkedOrder<K, V>,
        cursor: usize,
    }

    impl<'a, K: Copy, V> Iterator for Iter<'a, K, V> {
        type Item = (K, &'a V);

        fn next(&mut self) -> Option<(K, &'a V)> {
            if self.cursor == NIL {
                return None;
            }
            let node = &self.order.nodes[self.cursor];
            self.cursor = node.next;
            Some((node.key, &node.value))
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
}

/// Entry shapes a page's one to three entries are drawn from.
const SHAPES: [(f64, f64, f64, f64); 5] = [
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 2.0, 0.0),
    (3.0, 3.0, 4.0, 4.0),
    (0.0, 0.0, 3.0, 1.0),
    (0.0, 0.0, 5.0, 5.0),
];

/// A page whose entries are drawn from [`SHAPES`] by `seed`.
fn page(raw: u64, seed: u64) -> Page {
    let entries: Vec<Rect> = (0..=seed % 3)
        .map(|i| {
            let (x0, y0, x1, y1) = SHAPES[((seed >> (2 + 3 * i)) % 5) as usize];
            Rect::new(x0, y0, x1, y1)
        })
        .collect();
    let meta = PageMeta::data(SpatialStats::from_rects(&entries));
    Page::new(PageId::new(raw), meta, Bytes::new()).expect("page")
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One step of a differential run: `(op, page, seed, query)`.
type Event = (u8, u64, u64, u64);

/// `len` events over a window of `span` pages that drifts every 100
/// events, so the best expert changes and authority moves.
fn events(mut state: u64, len: usize, span: u64) -> Vec<Event> {
    (0..len as u64)
        .map(|step| {
            let x = xorshift(&mut state);
            let raw = step / 100 * (span / 3 + 1) + (x >> 8) % span;
            ((x % 14) as u8, raw, x >> 20, step / 6 + (x >> 60) % 2)
        })
        .collect()
}

/// An `ArenaState` with every weight as its bit pattern: per expert
/// `(label, weight, ghost misses, ghost length)`, then leader, switches,
/// accesses and misses.
type StateBits = (Vec<(String, u64, u64, usize)>, usize, u64, u64, u64);

fn state_bits(policy: &Policy) -> StateBits {
    let state = policy.arena_state().expect("an arena");
    let experts = (state.experts.iter())
        .map(|e| {
            (
                e.label.clone(),
                e.weight.to_bits(),
                e.ghost_misses,
                e.ghost_len,
            )
        })
        .collect();
    (
        experts,
        state.leader,
        state.switches,
        state.accesses,
        state.misses,
    )
}

/// Drives the arena and its oracle through `events` as a buffer of
/// `capacity` pages would, asserting after every event that they agree.
/// Returns the labels of every expert that led.
fn drive(params: ArenaParams, capacity: usize, events: &[Event]) -> BTreeSet<String> {
    let mut new = PolicyKind::ArenaWith(params).build(capacity);
    let mut old: Policy = Box::new(before::ArenaPolicy::new(capacity, params));
    let mut resident = BTreeSet::new();
    let mut leaders = BTreeSet::new();
    let mut now = 0u64;
    for (step, &(op, raw, seed, query)) in events.iter().enumerate() {
        now += seed & 1;
        let ctx = AccessContext::query(QueryId::new(query));
        let id = PageId::new(raw);
        let page = page(raw, seed);
        let pinned = |p: PageId| (p.raw().wrapping_mul(seed | 1) >> 4).is_multiple_of(4);
        let at = format!("{params:?} @ {capacity}, event {step} {:?}", events[step]);
        match op {
            0..=9 if resident.contains(&id) => {
                new.on_hit(&page, ctx, now);
                old.on_hit(&page, ctx, now);
            }
            0..=9 => {
                let mut admit = true;
                if resident.len() >= capacity {
                    let victim = if seed & 2 == 0 {
                        let victim = new.select_victim_unpinned(ctx);
                        assert_eq!(victim, old.select_victim_unpinned(ctx), "{at}");
                        victim
                    } else {
                        // Pins held by other readers: a buffer whose every
                        // frame is pinned serves the page unbuffered.
                        let evictable = |p| resident.contains(&p) && !pinned(p);
                        let victim = new.select_victim(ctx, &evictable);
                        assert_eq!(victim, old.select_victim(ctx, &evictable), "{at}");
                        victim
                    };
                    match victim {
                        Some(victim) => {
                            assert!(resident.remove(&victim), "{at}: {victim:?}");
                            new.on_remove(victim);
                            old.on_remove(victim);
                        }
                        None => admit = false,
                    }
                }
                if admit {
                    new.on_insert(&page, ctx, now);
                    old.on_insert(&page, ctx, now);
                    resident.insert(id);
                }
            }
            10 if resident.contains(&id) => {
                new.on_update(&page);
                old.on_update(&page);
            }
            11 if resident.remove(&id) => {
                new.on_remove(id);
                old.on_remove(id);
            }
            // A mass clear, in page-id order as `BufferManager::clear`.
            12 if raw.is_multiple_of(8) => {
                for id in std::mem::take(&mut resident) {
                    new.on_remove(id);
                    old.on_remove(id);
                }
            }
            _ => {}
        }
        let evictable = |p| resident.contains(&p) && !pinned(p);
        assert_eq!(
            new.select_victim(ctx, &evictable),
            old.select_victim(ctx, &evictable),
            "{at}: pinned"
        );
        assert_eq!(
            new.select_victim_unpinned(ctx),
            old.select_victim_unpinned(ctx),
            "{at}: unpinned"
        );
        let state = state_bits(&new);
        assert_eq!(state, state_bits(&old), "{at}: state");
        assert_eq!(new.retained_history(), old.retained_history(), "{at}");
        leaders.insert(state.0[state.1].0.clone());
    }
    leaders
}

#[test]
fn arena_decides_like_its_oracle() {
    let mut leaders = BTreeSet::new();
    for roster in [Roster::Trio, Roster::Lean] {
        for decay in [0.05, 0.0] {
            let params = ArenaParams {
                decay,
                roster,
                ..ArenaParams::default()
            };
            for capacity in 1..=16 {
                for seed in [1, 2] {
                    let trace = events(
                        seed * 0x9E37_79B9 + capacity as u64,
                        400,
                        2 * capacity as u64 + 4,
                    );
                    leaders.extend(drive(params, capacity, &trace));
                }
            }
        }
    }
    // Authority must have reached a recency-derived expert other than the
    // first (a mirror built on promotion) and a history-keeping one.
    let rebuilt = ["SLRU 25%", "A", "EA", "M", "EM", "EO"];
    assert!(rebuilt.iter().any(|l| leaders.contains(*l)), "{leaders:?}");
    let eager = ["LRU-2", "2Q", "ASB"];
    assert!(eager.iter().any(|l| leaders.contains(*l)), "{leaders:?}");
}

/// Cost tripwire (release mode, `--ignored`): on one phase-changing trace
/// of 50 000 accesses at 700 frames — the operating point of the
/// `arena_phase` benchmark — the default arena, the trio LRU, LRU-2 and A,
/// must take at most 0.75× the wall time of its oracle (as written:
/// ≈ 0.65×), best of three each. Both run the same three sims and feed
/// LRU-2's mirror on every access; the arena saves the other two mirrors,
/// for LRU's victim is the head of its own recency order and A's mirror is
/// built only when A takes authority (a few times per run). A ratio on one
/// machine, no absolute time; `--nocapture` prints it.
#[test]
#[ignore = "timing: run in release mode"]
fn arena_costs_at_most_three_quarters_of_its_oracle() {
    use std::hint::black_box;
    use std::time::Instant;
    let capacity = 700;
    let universe = 6_000u64;
    let pages: Vec<Page> = (0..universe)
        .map(|raw| page(raw, raw.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 20))
        .collect();
    // Ten phases; in each, 85 % of the accesses fall on a hot window of
    // 1 000 pages that moves by 550 between phases.
    let mut state = 0x517c_c1b7_2722_0a95_u64;
    let trace: Vec<u64> = (0..50_000u64)
        .map(|i| {
            let x = xorshift(&mut state);
            if x % 100 < 85 {
                (i / 5_000 * 550 + (x >> 8) % 1_000) % universe
            } else {
                (x >> 8) % universe
            }
        })
        .collect();
    let run = |mut policy: Policy| {
        let mut resident = vec![false; universe as usize];
        let mut len = 0;
        for (now, &raw) in trace.iter().enumerate() {
            let ctx = AccessContext::query(QueryId::new(now as u64 / 40));
            let page = &pages[raw as usize];
            if resident[raw as usize] {
                policy.on_hit(page, ctx, now as u64);
                continue;
            }
            if len == capacity {
                let victim = policy.select_victim_unpinned(ctx).expect("victim");
                policy.on_remove(victim);
                resident[victim.raw() as usize] = false;
                len -= 1;
            }
            policy.on_insert(page, ctx, now as u64);
            resident[raw as usize] = true;
            len += 1;
        }
        policy
    };
    let timed = |policy: Policy| {
        #[allow(clippy::disallowed_methods)] // a timing test measures time
        let start = Instant::now();
        let policy = black_box(run(policy));
        (start.elapsed().as_secs_f64(), state_bits(&policy))
    };
    // Alternate the two, so a burst of load on the machine meets both.
    let params = ArenaParams::default();
    let (mut new, mut old) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (time, new_state) = timed(PolicyKind::ArenaWith(params).build(capacity));
        new = new.min(time);
        let (time, old_state) = timed(Box::new(before::ArenaPolicy::new(capacity, params)));
        old = old.min(time);
        assert_eq!(new_state, old_state, "the two arenas diverged");
    }
    let ratio = new / old;
    eprintln!("arena {new:.4} s, oracle {old:.4} s, ratio {ratio:.3}");
    assert!(
        ratio <= 0.75,
        "the arena takes {ratio:.2}x its oracle's time (need <= 0.75x): {new:.3} s vs {old:.3} s"
    );
}
