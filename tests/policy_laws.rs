//! Cross-policy laws: classic results from the caching literature that the
//! implementation must respect.

use asb::buffer::{ArenaParams, AsbParams, BufferManager, PolicyKind, Roster, SpatialCriterion};
use asb::exp::Trace;
use asb::geom::{Rect, SpatialStats};
use asb::storage::{AccessContext, DiskManager, PageId, PageMeta, PageStore, QueryId};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::Path;

mod common;
use common::policies;

fn build_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            let r = Rect::new(0.0, 0.0, (i % 19) as f64 + 0.5, (i % 5) as f64 + 0.5);
            disk.allocate(PageMeta::data(SpatialStats::from_rects(&[r])), Bytes::new())
                .expect("allocate")
        })
        .collect();
    (disk, ids)
}

fn misses(policy: PolicyKind, capacity: usize, trace: &[(usize, u64)], ids: &[PageId]) -> u64 {
    // Rebuild the same disk so physical state is identical per run.
    let (disk, _) = build_disk(ids.len() as u64);
    miss_sequence(policy, capacity, trace, disk, ids).len() as u64
}

/// Indices of the accesses of `trace` that missed.
fn miss_sequence(
    policy: PolicyKind,
    capacity: usize,
    trace: &[(usize, u64)],
    mut disk: DiskManager,
    ids: &[PageId],
) -> Vec<usize> {
    let mut buf = BufferManager::with_policy(policy, capacity);
    let mut missed = Vec::new();
    for (i, &(slot, q)) in trace.iter().enumerate() {
        let before = buf.stats().misses;
        buf.fetch(&mut disk, ids[slot], AccessContext::query(QueryId::new(q)))
            .expect("read");
        if buf.stats().misses > before {
            missed.push(i);
        }
    }
    missed
}

/// A disk whose pages mix object, data and directory pages of levels 2–4,
/// with one to three entries of many shapes each, so LRU-T, LRU-P and every
/// spatial criterion rank pages differently from LRU and from each other.
fn build_mixed_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            let (w, h) = ((i % 19) as f64 + 0.5, (i % 5) as f64 + 0.5);
            let entries: Vec<Rect> = (0..=i % 3)
                .map(|k| Rect::new(k as f64, 0.0, k as f64 + w, h))
                .collect();
            let stats = SpatialStats::from_rects(&entries);
            let meta = match i % 4 {
                0 => PageMeta::object(stats),
                1 | 2 => PageMeta::data(stats),
                _ => PageMeta::directory(2 + (i % 3) as u8, stats),
            };
            disk.allocate(meta, Bytes::new()).expect("allocate")
        })
        .collect();
    (disk, ids)
}

/// Steps a `capacity`-frame and a `capacity + extra`-frame buffer through
/// `trace` (slots of a 40-page mixed disk, four accesses per query) in
/// lockstep. Returns the first access after which the smaller buffer held
/// a page the larger one did not, and both buffers' misses.
fn inclusion_run(
    policy: PolicyKind,
    capacity: usize,
    extra: usize,
    trace: &[usize],
) -> (Option<usize>, u64, u64) {
    let (mut disk, ids) = build_mixed_disk(40);
    let mut small = BufferManager::with_policy(policy, capacity);
    let mut large = BufferManager::with_policy(policy, capacity + extra);
    let mut broke = None;
    for (i, &slot) in trace.iter().enumerate() {
        let ctx = AccessContext::query(QueryId::new(i as u64 / 4));
        small.fetch(&mut disk, ids[slot], ctx).expect("read");
        large.fetch(&mut disk, ids[slot], ctx).expect("read");
        if broke.is_none()
            && ids
                .iter()
                .any(|&id| small.contains(id) && !large.contains(id))
        {
            broke = Some(i);
        }
    }
    (broke, small.stats().misses, large.stats().misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LRU, LRU-T, LRU-P, LRU-2 and the five pure spatial policies are
    /// stack algorithms (Mattson et al.): after every access, a buffer with
    /// more frames holds every page a smaller one holds, so it never misses
    /// more (the inclusion property). The mixed disk keeps LRU-T, LRU-P and
    /// the criteria from ranking pages the way LRU does.
    #[test]
    fn stack_policies_keep_inclusion(
        trace in prop::collection::vec(0usize..40, 1..400),
        capacity in 1usize..30,
        extra in 1usize..10,
    ) {
        let mut stack = vec![
            PolicyKind::Lru,
            PolicyKind::LruT,
            PolicyKind::LruP,
            PolicyKind::LruK { k: 2 },
        ];
        stack.extend(SpatialCriterion::ALL.map(PolicyKind::Spatial));
        for policy in stack {
            let (broke, _, _) = inclusion_run(policy, capacity, extra, &trace);
            prop_assert_eq!(broke, None, "{:?} at {}+{}", policy, capacity, extra);
        }
    }

    /// Any policy's miss count is bounded below by cold misses (distinct
    /// pages) and above by the trace length.
    #[test]
    fn miss_bounds_hold_for_every_policy(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..300),
        capacity in 1usize..30,
    ) {
        let (_, ids) = build_disk(40);
        let distinct = {
            let mut v: Vec<usize> = trace.iter().map(|&(s, _)| s).collect();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::TwoQ,
            PolicyKind::LruK { k: 2 },
            PolicyKind::Spatial(SpatialCriterion::Area),
            PolicyKind::Asb,
            PolicyKind::Arena,
        ] {
            let m = misses(policy, capacity, &trace, &ids);
            prop_assert!(m >= distinct, "{policy:?}: fewer misses than cold misses");
            prop_assert!(m <= trace.len() as u64, "{policy:?}: more misses than accesses");
        }
    }

    /// With a buffer at least as large as the working set, every policy
    /// converges to exactly the cold misses.
    #[test]
    fn all_policies_are_optimal_without_pressure(
        trace in prop::collection::vec((0usize..20, 0u64..10), 1..300),
    ) {
        let (_, ids) = build_disk(20);
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::TwoQ,
            PolicyKind::LruK { k: 3 },
            PolicyKind::Spatial(SpatialCriterion::Margin),
            PolicyKind::Asb,
            PolicyKind::Arena,
        ] {
            let m = misses(policy, 20, &trace, &ids);
            let distinct = {
                let mut v: Vec<usize> = trace.iter().map(|&(s, _)| s).collect();
                v.sort_unstable();
                v.dedup();
                v.len() as u64
            };
            prop_assert_eq!(m, distinct, "{:?} missed under no pressure", policy);
        }
    }
}

/// FIFO, CLOCK, 2Q, SLRU 25 % and ASB are not stack algorithms: on each
/// trace below the C-frame buffer comes to hold a page the (C+1)-frame
/// buffer does not. ASB's trace also costs more misses at C+1 than at C, a
/// capacity anomaly (Bélády's, for FIFO) that the paper does not state.
#[test]
fn non_stack_policies_break_inclusion() {
    let slru = PolicyKind::Slru {
        candidate_fraction: 0.25,
        criterion: SpatialCriterion::Area,
    };
    let witnesses: [(PolicyKind, usize, &[usize]); 5] = [
        (PolicyKind::Fifo, 2, &[4, 5, 8, 4, 7]),
        (PolicyKind::Clock, 2, &[5, 2, 2, 5, 1, 4]),
        (PolicyKind::TwoQ, 2, &[4, 5, 8, 4, 7]),
        (slru, 6, &[3, 8, 5, 0, 1, 9, 4, 8, 6]),
        (
            PolicyKind::Asb,
            7,
            &[3, 8, 0, 4, 5, 6, 9, 10, 8, 0, 0, 7, 2, 4],
        ),
    ];
    for (policy, capacity, trace) in witnesses {
        let (broke, small, large) = inclusion_run(policy, capacity, 1, trace);
        assert!(broke.is_some(), "{policy:?} kept inclusion at {capacity}");
        if policy == PolicyKind::Asb {
            assert!(
                large > small,
                "ASB: {large} misses at {capacity}+1 vs {small}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The paper's identities between policies (§2.1, §4.1): one policy is
// another at a parameter's end point.
// ---------------------------------------------------------------------------

/// A disk whose pages are object, data and level-2 directory pages in
/// turn, so every page's LRU-P priority equals its LRU-T type rank.
fn build_typed_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            let meta = match i % 3 {
                0 => PageMeta::object(SpatialStats::EMPTY),
                1 => PageMeta::data(SpatialStats::EMPTY),
                _ => PageMeta::directory(2, SpatialStats::EMPTY),
            };
            assert_eq!(meta.priority(), meta.page_type.type_rank());
            disk.allocate(meta, Bytes::new()).expect("allocate")
        })
        .collect();
    (disk, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §4.1: "the larger the candidate set, the larger is the influence of
    /// the spatial page-replacement algorithm" — at 100 % SLRU *is* the
    /// pure spatial policy, for every criterion.
    #[test]
    fn slru_with_a_full_candidate_set_is_the_spatial_policy(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 1usize..30,
    ) {
        for criterion in SpatialCriterion::ALL {
            let (disk, ids) = build_disk(40);
            let spatial = miss_sequence(PolicyKind::Spatial(criterion), capacity, &trace, disk, &ids);
            let (disk, ids) = build_disk(40);
            let slru = PolicyKind::Slru { candidate_fraction: 1.0, criterion };
            let slru = miss_sequence(slru, capacity, &trace, disk, &ids);
            prop_assert_eq!(spatial, slru, "criterion {}", criterion);
        }
    }

    /// The other end point: one candidate leaves SLRU nothing to rank, so
    /// it evicts the LRU page and is LRU, for every criterion. (1 % of
    /// fewer than 50 frames rounds to the one-candidate floor.)
    #[test]
    fn slru_with_one_candidate_is_lru(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 1usize..30,
    ) {
        let (disk, ids) = build_disk(40);
        let lru = miss_sequence(PolicyKind::Lru, capacity, &trace, disk, &ids);
        for criterion in SpatialCriterion::ALL {
            let (disk, ids) = build_disk(40);
            let slru = PolicyKind::Slru { candidate_fraction: 0.01, criterion };
            let slru = miss_sequence(slru, capacity, &trace, disk, &ids);
            prop_assert_eq!(&lru, &slru, "criterion {}", criterion);
        }
    }

    /// §2.1: LRU-P generalises LRU-T — where priorities equal type ranks
    /// the two make the same decisions.
    #[test]
    fn lru_p_is_lru_t_when_priorities_equal_type_ranks(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 1usize..30,
    ) {
        let (disk, ids) = build_typed_disk(40);
        let by_type = miss_sequence(PolicyKind::LruT, capacity, &trace, disk, &ids);
        let (disk, ids) = build_typed_disk(40);
        let by_priority = miss_sequence(PolicyKind::LruP, capacity, &trace, disk, &ids);
        prop_assert_eq!(by_type, by_priority);
    }
}

/// The pure spatial policy reports as itself, not as an SLRU: its label is
/// the criterion's short name and it has no candidate-set size.
#[test]
fn spatial_policies_report_their_criterion_and_no_candidate_set() {
    for criterion in SpatialCriterion::ALL {
        let buf = BufferManager::with_policy(PolicyKind::Spatial(criterion), 8);
        assert_eq!(buf.policy_name(), criterion.short_name());
        assert_eq!(buf.candidate_size(), None);
    }
}

#[test]
fn policy_kinds_serialize_roundtrip() {
    let kinds = [
        PolicyKind::Lru,
        PolicyKind::Random { seed: 99 },
        PolicyKind::TwoQ,
        PolicyKind::LruK { k: 5 },
        PolicyKind::Spatial(SpatialCriterion::EntryOverlap),
        PolicyKind::Slru {
            candidate_fraction: 0.25,
            criterion: SpatialCriterion::Area,
        },
        PolicyKind::Asb,
        PolicyKind::AsbWith(AsbParams {
            overflow_fraction: 0.3,
            initial_candidate_fraction: 0.5,
            step_fraction: 0.02,
            criterion: SpatialCriterion::Margin,
        }),
        PolicyKind::Arena,
        PolicyKind::ArenaWith(ArenaParams {
            decay: 0.1,
            share: 0.01,
            roster: Roster::Lean,
        }),
    ];
    let mut seen = Vec::new();
    for kind in kinds {
        // The JSON text parses back to the kind's own `Value`, and no two
        // kinds render alike, so a configuration names its policy exactly.
        let json = serde_json::to_string(&kind).expect("serialize");
        let value = serde_json::from_str(&json).expect("parse");
        assert_eq!(value, serde::Serialize::serialize(&kind), "{json}");
        assert!(!seen.contains(&value), "{json} names two kinds");
        seen.push(value);
        // Every listed kind passes its constructor's parameter checks.
        kind.build(64);
    }
}

/// The identical trace through the same policy gives identical statistics —
/// determinism that the experiment harness relies on.
#[test]
fn runs_are_deterministic() {
    let (_, ids) = build_disk(50);
    let trace: Vec<(usize, u64)> = (0..2000u64)
        .map(|i| (((i * 31 + i * i % 7) % 50) as usize, i / 9))
        .collect();
    for policy in [
        PolicyKind::Random { seed: 5 },
        PolicyKind::Asb,
        PolicyKind::LruK { k: 2 },
        PolicyKind::TwoQ,
        PolicyKind::Arena,
    ] {
        let a = misses(policy, 12, &trace, &ids);
        let b = misses(policy, 12, &trace, &ids);
        assert_eq!(a, b, "{policy:?} must be deterministic");
    }
}

// ---------------------------------------------------------------------------
// ASB adaptation invariants (paper §4.2), under arbitrary access sequences
// and under injected faults.
// ---------------------------------------------------------------------------

/// The paper's sizing rules, recomputed independently of the policy code.
fn asb_bounds(capacity: usize) -> (usize, usize, usize) {
    let overflow_cap = ((capacity as f64 * 0.2).round() as usize).min(capacity - 1);
    let main_cap = capacity - overflow_cap;
    let step = ((main_cap as f64 * 0.01).round() as usize).max(1);
    (main_cap, overflow_cap, step)
}

/// Asserts the per-access ASB invariants over one trace; returns the final
/// candidate size. `prev` threads the candidate size across calls.
fn check_asb_invariants(
    buf: &asb::buffer::BufferManager,
    capacity: usize,
    prev: &mut Option<usize>,
    prev_overflow: &mut Vec<PageId>,
) -> Result<(), TestCaseError> {
    let (main_cap, overflow_cap, step) = asb_bounds(capacity);
    let c = buf.candidate_size().expect("ASB exposes a candidate size");
    prop_assert!(
        (1..=main_cap).contains(&c),
        "candidate size {c} outside [1, {main_cap}]"
    );
    if let Some(p) = *prev {
        let delta = c.abs_diff(p);
        prop_assert!(
            delta <= step,
            "candidate moved by {delta} > step {step} in one access"
        );
    }
    *prev = Some(c);

    let (overflow, cap) = buf.overflow_state().expect("ASB exposes its overflow");
    prop_assert_eq!(cap, overflow_cap, "overflow capacity drifted");
    prop_assert!(
        overflow.len() <= overflow_cap,
        "overflow holds {} > cap {}",
        overflow.len(),
        overflow_cap
    );
    // FIFO shape: surviving pages keep their relative order, and pages new
    // to the overflow only ever appear behind all survivors.
    let survivors: Vec<PageId> = prev_overflow
        .iter()
        .copied()
        .filter(|id| overflow.contains(id))
        .collect();
    prop_assert!(
        overflow.starts_with(&survivors),
        "overflow violated FIFO order: {prev_overflow:?} -> {overflow:?}"
    );
    *prev_overflow = overflow;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The candidate set stays within the paper's bounds and never moves by
    /// more than one adaptation step per access; the overflow buffer never
    /// exceeds its 20% capacity and behaves as a FIFO.
    #[test]
    fn asb_adaptation_invariants_hold(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 5usize..30,
    ) {
        let (mut disk, ids) = build_disk(40);
        let mut buf = BufferManager::with_policy(PolicyKind::Asb, capacity);
        let mut prev = None;
        let mut prev_overflow = Vec::new();
        for &(slot, q) in &trace {
            buf.fetch(&mut disk, ids[slot], AccessContext::query(QueryId::new(q)))
                .expect("read");
            check_asb_invariants(&buf, capacity, &mut prev, &mut prev_overflow)?;
        }
    }

    /// The same invariants hold while the store injects transient faults,
    /// corruption and latency spikes: robustness must not bend the paper's
    /// adaptation rules.
    #[test]
    fn asb_invariants_survive_injected_faults(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..300),
        capacity in 5usize..30,
        fault_seed in 0u64..1000,
    ) {
        use asb::storage::{FaultConfig, FaultyStore, RetryPolicy, StorageError};
        let (disk, ids) = build_disk(40);
        let mut store = FaultyStore::new(disk, FaultConfig::chaos(fault_seed, 0.1));
        let mut buf = BufferManager::with_policy(PolicyKind::Asb, capacity);
        buf.set_retry_policy(RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 0.1,
            backoff_multiplier: 2.0,
        });
        let mut prev = None;
        let mut prev_overflow = Vec::new();
        for &(slot, q) in &trace {
            match buf.fetch(&mut store, ids[slot], AccessContext::query(QueryId::new(q))) {
                Ok(page) => prop_assert!(page.verify_checksum(), "corrupt page served"),
                Err(StorageError::RetriesExhausted { .. }) => {} // give-up is allowed
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
            }
            check_asb_invariants(&buf, capacity, &mut prev, &mut prev_overflow)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Expert-arena mixer laws (multiplicative weights over a policy roster),
// under arbitrary access sequences.
// ---------------------------------------------------------------------------

/// Runs one trace through an arena buffer and returns the final buffer —
/// callers inspect `arena_state()` / `retained_history()` / `stats()`.
fn arena_run(
    params: ArenaParams,
    capacity: usize,
    trace: &[(usize, u64)],
    ids: &[asb::storage::PageId],
) -> BufferManager {
    let (mut disk, _) = build_disk(ids.len() as u64);
    let mut buf = BufferManager::with_policy(PolicyKind::ArenaWith(params), capacity);
    for &(slot, q) in trace {
        buf.fetch(&mut disk, ids[slot], AccessContext::query(QueryId::new(q)))
            .expect("read");
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every trace the expert weights form a probability vector —
    /// strictly positive and summing to one — and the reported leader is
    /// the argmax of the weights (lowest index on ties).
    #[test]
    fn arena_weights_are_normalized_and_leader_is_argmax(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 2usize..24,
        lean in 0u8..2,
    ) {
        let (_, ids) = build_disk(40);
        let params = ArenaParams {
            roster: if lean == 1 { Roster::Lean } else { Roster::Full },
            ..ArenaParams::default()
        };
        let state = arena_run(params, capacity, &trace, &ids)
            .arena_state()
            .expect("arena exposes its state");
        let weights = state.weights();
        let sum: f64 = weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        prop_assert!(weights.iter().all(|&w| w > 0.0), "non-positive weight in {weights:?}");
        let argmax = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(state.leader, argmax, "leader is not the weight argmax");
    }

    /// With decay and share both zero the weights never move, so the
    /// leader stays expert zero forever and the arena's evictions are
    /// bit-identical to running that expert alone: same misses on every
    /// trace. (Lean roster's expert zero is plain LRU.)
    #[test]
    fn arena_with_zero_decay_is_its_first_expert(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..400),
        capacity in 2usize..24,
    ) {
        let (_, ids) = build_disk(40);
        let params = ArenaParams { decay: 0.0, share: 0.0, roster: Roster::Lean };
        let buf = arena_run(params, capacity, &trace, &ids);
        let state = buf.arena_state().expect("arena state");
        prop_assert_eq!(state.leader, 0, "zero-decay leader moved");
        prop_assert_eq!(state.switches, 0, "zero-decay arena switched authority");
        let lru = misses(PolicyKind::Lru, capacity, &trace, &ids);
        prop_assert_eq!(buf.stats().misses, lru, "zero-decay arena diverged from LRU");
    }

    /// Ghost memory stays bounded: every expert's ghost cache holds at
    /// most `capacity` pages (ISSUE bound: 1x buffer capacity per expert),
    /// and the unified `retained_history` count — ghosts plus the
    /// mirrored/simulated policies' own history — stays within the
    /// documented 3x-roster-capacity envelope.
    #[test]
    fn arena_ghost_memory_is_bounded(
        trace in prop::collection::vec((0usize..60, 0u64..10), 1..500),
        capacity in 2usize..20,
        lean in 0u8..2,
    ) {
        let (_, ids) = build_disk(60);
        let roster = if lean == 1 { Roster::Lean } else { Roster::Full };
        let params = ArenaParams { roster, ..ArenaParams::default() };
        let buf = arena_run(params, capacity, &trace, &ids);
        let state = buf.arena_state().expect("arena state");
        for e in &state.experts {
            prop_assert!(
                e.ghost_len <= capacity,
                "expert {} ghost cache holds {} > capacity {capacity}",
                e.label,
                e.ghost_len
            );
        }
        let bound = 3 * roster.kinds().len() * capacity;
        let retained = buf.retained_history();
        prop_assert!(
            retained <= bound,
            "retained history {retained} exceeds bound {bound}"
        );
    }
}

// ---------------------------------------------------------------------------
// Belady's OPT: the floor under every policy.
// ---------------------------------------------------------------------------

/// A trace of `accesses` alone: OPT reads no page metadata.
fn bare_trace(accesses: Vec<(u64, u64)>) -> Trace {
    Trace {
        label: String::new(),
        pages: Vec::new().into(),
        accesses,
    }
}

fn distinct_pages(trace: &Trace) -> u64 {
    let pages: HashSet<u64> = trace.accesses.iter().map(|&(p, _)| p).collect();
    pages.len() as u64
}

/// The four committed traces, by file stem.
fn golden_traces() -> Vec<(&'static str, Trace)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    ["mainland", "world", "phase_mainland", "phase_world"]
        .into_iter()
        .map(|name| {
            let trace = Trace::load(dir.join(format!("{name}.trace")));
            (name, trace.unwrap_or_else(|e| panic!("{name}: {e}")))
        })
        .collect()
}

/// Bélády's own example: the reference string whose FIFO misses grow with
/// the buffer (9 at 3 frames, 10 at 4) costs OPT 7 and 6.
#[test]
fn opt_on_beladys_string() {
    let string = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
    let trace = bare_trace(string.iter().map(|&p| (p, 0)).collect());
    assert_eq!(trace.opt_misses(3), 7);
    assert_eq!(trace.opt_misses(4), 6);
}

/// No policy misses less than OPT on the committed traces, and a buffer
/// that holds every page leaves OPT only the compulsory misses. The counts
/// agree with an independent model of Belady's algorithm run over the
/// same files.
#[test]
fn opt_is_a_floor_on_the_committed_traces() {
    let expected = [
        ("mainland", 56, 49),
        ("world", 25, 22),
        ("phase_mainland", 149, 72),
        ("phase_world", 113, 26),
    ];
    for ((name, trace), (want_name, at_12, compulsory)) in golden_traces().into_iter().zip(expected)
    {
        assert_eq!(name, want_name);
        assert_eq!(trace.opt_misses(12), at_12, "{name}: OPT at 12 frames");
        let distinct = distinct_pages(&trace);
        assert_eq!(distinct, compulsory, "{name}: distinct pages");
        for capacity in [distinct as usize, distinct as usize + 5] {
            assert_eq!(trace.opt_misses(capacity), distinct, "{name} at {capacity}");
        }
        for capacity in [4, 12] {
            let opt = trace.opt_misses(capacity);
            for (label, policy) in policies() {
                let misses = trace.replay(policy, capacity).expect("replay").stats.misses;
                assert!(
                    opt <= misses,
                    "{name}: {label} missed {misses} < OPT {opt} at {capacity} frames"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// OPT is a floor under every policy on arbitrary traces too, and
    /// never below the compulsory misses.
    #[test]
    fn opt_is_a_floor_on_random_traces(
        trace in prop::collection::vec((0usize..40, 0u64..10), 1..300),
        capacity in 1usize..30,
    ) {
        let (_, ids) = build_disk(40);
        let bare = bare_trace(trace.iter().map(|&(slot, q)| (slot as u64, q)).collect());
        let opt = bare.opt_misses(capacity);
        prop_assert!(opt >= distinct_pages(&bare));
        for (label, policy) in policies() {
            let m = misses(policy, capacity, &trace, &ids);
            prop_assert!(opt <= m, "{}: {} misses < OPT {}", label, m, opt);
        }
    }
}
