//! Reference-model differential test for the buffer.
//!
//! A deliberately naive write-back cache — a `HashMap` of frames, a `Vec`
//! for the replacement order, a `HashMap` standing in for the disk; no
//! guards, no shards, no WAL, no retries — is driven in lockstep with a
//! [`BufferManager`] and a one-shard [`ShardedBuffer`] under random
//! fetch / write-through / write-buffered / flush / free / poison
//! sequences. After every step the three must agree on what a read
//! returned (or how it failed) and whether it hit, on the resident set and
//! dirty count, on the counters, and on the contents of the backing store.
//!
//! The model knows four victim rules: LRU, FIFO, CLOCK (a hand sweeping
//! the order, clearing reference bits) and the ranked rule: the smallest
//! key among the first pages of the LRU order, the earliest on ties. The
//! first proptest runs `Lru`, `Fifo`, `Clock`, `LruT` and `LruP`; the two
//! class policies follow the ranked rule over every page, keyed by type
//! rank or priority ("lowest class first, LRU within a class"). Every slot
//! has a fixed page kind (object, data, or a directory page at level 2 or
//! 3) and two fixed entry rectangles, chosen so that the area, entry-area,
//! margin, entry-margin and entry-overlap orders of the slots all differ
//! and each holds ties. The second proptest holds SLRU 25 % and 50 % (the
//! row's fraction of the frames are candidates) and `Spatial` under all
//! five criteria (every frame is) to the ranked rule, at capacities where
//! SLRU 25 % has at least two candidates.
//!
//! `Poison` is in-memory rot (`poison_frame`). The model's rule for it: a
//! rotten *clean* frame is as good as absent — the next read of it misses
//! and re-reads the store; a rotten *dirty* frame is stuck — it cannot be
//! read, flushed or evicted (each attempt is a counted detection and a
//! typed failure) until the page is rewritten or freed.

use asb::buffer::{BufferManager, PolicyKind, ShardedBuffer};
use asb::geom::{Rect, SpatialCriterion, SpatialStats};
use asb::storage::{AccessContext, DiskManager, Page, PageId, PageMeta, PageStore, StorageError};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;

const SLOTS: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch(usize),
    WriteThrough(usize, u8),
    WriteBuffered(usize, u8),
    Flush,
    Free(usize),
    Poison(usize),
}

/// How an operation fails, in the model and (classified) in the pools.
#[derive(Debug, PartialEq)]
enum Fault {
    NotFound(usize),
    /// The dirty frame of this slot failed its checksum.
    DirtyRot(usize),
}

#[derive(Clone, Copy)]
struct Frame {
    byte: u8,
    dirty: bool,
    rotten: bool,
}

impl Frame {
    /// What every write leaves behind: fresh bytes, so no rot.
    fn written(byte: u8, dirty: bool) -> Frame {
        Frame {
            byte,
            dirty,
            rotten: false,
        }
    }
}

/// What the ranked rule orders slots by.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Key {
    /// A spatial criterion of the slot's page.
    Crit(SpatialCriterion),
    /// Object 0, data 1, directory 2.
    TypeRank,
    /// Object 0, otherwise the level (data 1, directories 2 and 3).
    Priority,
}

/// How the model picks a victim.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Rule {
    #[default]
    Lru,
    Fifo,
    Clock,
    /// The smallest `key` among the first `fraction` of the frames' worth
    /// of slots in LRU order (rounded, at least one), as `SlruPolicy::new`
    /// sizes its candidates; a fraction of 1 makes every slot a candidate.
    Ranked {
        key: Key,
        fraction: f64,
    },
}

/// The ranked rule over every resident slot.
const fn lowest(key: Key) -> Rule {
    Rule::Ranked { key, fraction: 1.0 }
}

/// Each policy under test and the rule it must follow here.
const POLICIES: [(PolicyKind, Rule); 5] = [
    (PolicyKind::Lru, Rule::Lru),
    (PolicyKind::Fifo, Rule::Fifo),
    (PolicyKind::Clock, Rule::Clock),
    (PolicyKind::LruT, lowest(Key::TypeRank)),
    (PolicyKind::LruP, lowest(Key::Priority)),
];

/// The spatial policies and their rule.
const SPATIAL_POLICIES: [(PolicyKind, Rule); 7] = [
    (
        PolicyKind::PAPER_SLRU,
        Rule::Ranked {
            key: Key::Crit(SpatialCriterion::Area),
            fraction: 0.25,
        },
    ),
    (
        PolicyKind::Slru {
            candidate_fraction: 0.5,
            criterion: SpatialCriterion::Area,
        },
        Rule::Ranked {
            key: Key::Crit(SpatialCriterion::Area),
            fraction: 0.5,
        },
    ),
    (
        PolicyKind::Spatial(SpatialCriterion::Area),
        lowest(Key::Crit(SpatialCriterion::Area)),
    ),
    (
        PolicyKind::Spatial(SpatialCriterion::EntryArea),
        lowest(Key::Crit(SpatialCriterion::EntryArea)),
    ),
    (
        PolicyKind::Spatial(SpatialCriterion::Margin),
        lowest(Key::Crit(SpatialCriterion::Margin)),
    ),
    (
        PolicyKind::Spatial(SpatialCriterion::EntryMargin),
        lowest(Key::Crit(SpatialCriterion::EntryMargin)),
    ),
    (
        PolicyKind::Spatial(SpatialCriterion::EntryOverlap),
        lowest(Key::Crit(SpatialCriterion::EntryOverlap)),
    ),
];

/// The reference: one victim rule over a write-back cache, nothing else.
#[derive(Default)]
struct Model {
    rule: Rule,
    capacity: usize,
    /// Resident frames by slot.
    frames: HashMap<usize, Frame>,
    /// Resident slots with their reference bits: least recently used first
    /// (LRU and the ranked rule), first admitted first (FIFO), the slot
    /// under the hand first (CLOCK).
    order: Vec<(usize, bool)>,
    /// The backing store: live slots → payload byte.
    disk: HashMap<usize, u8>,
    hits: u64,
    misses: u64,
    evicted: u64,
    writebacks: u64,
    corruptions: u64,
    failed_evictions: u64,
    give_ups: u64,
}

impl Model {
    /// The next victim. CLOCK's hand passes referenced slots, clearing
    /// their bits, and the sweep stands even if the eviction then fails.
    fn victim(&mut self) -> usize {
        let (key, candidates) = match self.rule {
            Rule::Ranked { key, fraction } => (
                Some(key),
                ((self.capacity as f64 * fraction).round() as usize).max(1),
            ),
            Rule::Lru | Rule::Fifo | Rule::Clock => (None, 1),
        };
        while self.rule == Rule::Clock && self.order[0].1 {
            let (slot, _) = self.order.remove(0);
            self.order.push((slot, false));
        }
        let rank = |slot: usize| key.map_or(0.0, |key| rank(key, slot));
        // `min_by` keeps the first of equal elements: the earliest slot.
        let (slot, _) = (self.order.iter().take(candidates))
            .min_by(|a, b| rank(a.0).total_cmp(&rank(b.0)))
            .expect("a full buffer has a victim");
        *slot
    }

    fn forget(&mut self, slot: usize) {
        self.order.retain(|&(s, _)| s != slot);
    }

    fn admit(&mut self, slot: usize, byte: u8, dirty: bool) -> Result<(), Fault> {
        if self.frames.len() >= self.capacity {
            let victim = self.victim();
            let frame = self.frames[&victim];
            if frame.dirty && frame.rotten {
                self.corruptions += 1;
                self.failed_evictions += 1;
                return Err(Fault::DirtyRot(victim));
            }
            if frame.dirty {
                self.disk.insert(victim, frame.byte);
                self.writebacks += 1;
            }
            self.frames.remove(&victim);
            self.forget(victim);
            self.evicted += 1;
        }
        self.frames.insert(slot, Frame::written(byte, dirty));
        self.order.push((slot, false));
        Ok(())
    }

    /// `Ok((payload, hit))`, or how the read failed.
    fn fetch(&mut self, slot: usize) -> Result<(u8, bool), Fault> {
        match self.frames.get(&slot).copied() {
            Some(frame) if !frame.rotten => {
                self.hits += 1;
                let at = self.order.iter().position(|&(s, _)| s == slot).unwrap();
                match self.rule {
                    Rule::Lru | Rule::Ranked { .. } => {
                        let entry = self.order.remove(at);
                        self.order.push(entry);
                    }
                    Rule::Fifo => {}
                    Rule::Clock => self.order[at].1 = true,
                }
                return Ok((frame.byte, true));
            }
            Some(frame) => {
                self.corruptions += 1;
                if frame.dirty {
                    self.misses += 1;
                    self.give_ups += 1;
                    return Err(Fault::DirtyRot(slot));
                }
                self.frames.remove(&slot);
                self.forget(slot);
            }
            None => {}
        }
        self.misses += 1;
        let Some(&byte) = self.disk.get(&slot) else {
            self.give_ups += 1;
            return Err(Fault::NotFound(slot));
        };
        self.admit(slot, byte, false)?;
        Ok((byte, false))
    }

    fn write_through(&mut self, slot: usize, byte: u8) {
        self.disk.insert(slot, byte);
        if let Some(frame) = self.frames.get_mut(&slot) {
            *frame = Frame::written(byte, false);
        }
    }

    fn write_buffered(&mut self, slot: usize, byte: u8) -> Result<(), Fault> {
        match self.frames.get_mut(&slot) {
            Some(frame) => {
                *frame = Frame::written(byte, true);
                Ok(())
            }
            None => self.admit(slot, byte, true),
        }
    }

    /// The slots left dirty because their frame is rotten, ascending.
    fn flush(&mut self) -> Vec<usize> {
        let mut stuck = Vec::new();
        for (&slot, frame) in self.frames.iter_mut().filter(|(_, f)| f.dirty) {
            if frame.rotten {
                self.corruptions += 1;
                stuck.push(slot);
                continue;
            }
            self.disk.insert(slot, frame.byte);
            frame.dirty = false;
            self.writebacks += 1;
        }
        stuck.sort_unstable();
        stuck
    }

    fn free(&mut self, slot: usize) {
        self.disk.remove(&slot);
        self.frames.remove(&slot);
        self.forget(slot);
    }

    /// Whether a frame was there to poison. `poison_frame` flips the
    /// payload's first byte, so poisoning a rotten frame restores it.
    fn poison(&mut self, slot: usize) -> bool {
        self.frames
            .get_mut(&slot)
            .map(|frame| frame.rotten ^= true)
            .is_some()
    }

    fn dirty(&self) -> usize {
        self.frames.values().filter(|f| f.dirty).count()
    }
}

/// Maps a pool error onto the model's vocabulary.
fn fault(ids: &[PageId], err: StorageError) -> Fault {
    let slot = |id| ids.iter().position(|&i| i == id).expect("known page");
    match err {
        StorageError::PageNotFound(id) => Fault::NotFound(slot(id)),
        StorageError::DirtyFrameCorrupt { id, .. } => Fault::DirtyRot(slot(id)),
        other => panic!("error outside the model: {other:?}"),
    }
}

/// The slots a flush left behind, ascending.
fn stuck(ids: &[PageId], flushed: Result<(), StorageError>) -> Vec<usize> {
    match flushed {
        Ok(()) => Vec::new(),
        Err(StorageError::FlushIncomplete { failures }) => failures
            .into_iter()
            .map(|(_, err)| match fault(ids, *err) {
                Fault::DirtyRot(slot) => slot,
                other => panic!("flush failure outside the model: {other:?}"),
            })
            .collect(),
        Err(other) => panic!("error outside the model: {other:?}"),
    }
}

/// The kind of `slot`'s page. Each kind is held by four slots, spread
/// so that no kind lines up with a geometry parameter.
#[derive(Clone, Copy)]
enum Kind {
    Object,
    Data,
    Directory(u8),
}

fn kind(slot: usize) -> Kind {
    [
        Kind::Object,
        Kind::Data,
        Kind::Directory(2),
        Kind::Directory(3),
    ][(slot + slot / 4) % 4]
}

/// The two entries of `slot`'s page: `[0, a] × [0, 1]` and
/// `[0, c] × [0, b]`. Area `max(a, c)·b`, entry area `a + c·b`, margin
/// `2(max(a, c) + b)`, entry margin `2(a + 1 + c + b)`, entry overlap
/// `min(a, c)`: small integers, so every criterion is exact and tied
/// between slots, and `slot_orders_differ_between_criteria` holds.
fn entries(slot: usize) -> [Rect; 2] {
    let a = (1 + slot % 4) as f64;
    let b = (1 + slot / 4 % 3) as f64;
    let c = (1 + slot * 3 % 5) as f64;
    [Rect::new(0.0, 0.0, a, 1.0), Rect::new(0.0, 0.0, c, b)]
}

/// `slot`'s value under `key`: smaller is evicted first.
fn rank(key: Key, slot: usize) -> f64 {
    match (key, kind(slot)) {
        (Key::Crit(c), _) => meta(slot).stats.criterion(c),
        (Key::TypeRank | Key::Priority, Kind::Object) => 0.0,
        (Key::TypeRank | Key::Priority, Kind::Data) => 1.0,
        (Key::TypeRank, Kind::Directory(_)) => 2.0,
        (Key::Priority, Kind::Directory(level)) => f64::from(level),
    }
}

fn meta(slot: usize) -> PageMeta {
    let stats = SpatialStats::from_rects(&entries(slot));
    match kind(slot) {
        Kind::Object => PageMeta::object(stats),
        Kind::Data => PageMeta::data(stats),
        Kind::Directory(level) => PageMeta::directory(level, stats),
    }
}

fn page(ids: &[PageId], slot: usize, byte: u8) -> Page {
    Page::new(ids[slot], meta(slot), Bytes::from(vec![byte])).expect("page")
}

fn build_disk() -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..SLOTS)
        .map(|i| disk.allocate(meta(i), Bytes::from(vec![i as u8])).unwrap())
        .collect();
    (disk, ids)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0usize..SLOTS;
    prop_oneof![
        6 => slot.clone().prop_map(Op::Fetch),
        2 => (slot.clone(), 100u8..=255).prop_map(|(s, b)| Op::WriteThrough(s, b)),
        3 => (slot.clone(), 100u8..=255).prop_map(|(s, b)| Op::WriteBuffered(s, b)),
        1 => Just(Op::Flush),
        1 => slot.clone().prop_map(Op::Free),
        2 => slot.prop_map(Op::Poison),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn manager_and_one_shard_pool_match_the_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..250),
        capacity in 1usize..9,
    ) {
        for (kind, rule) in POLICIES {
            lockstep(kind, rule, &ops, capacity)
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
        }
    }

    #[test]
    fn spatial_policies_match_the_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..250),
        capacity in 6usize..13,
    ) {
        for (kind, rule) in SPATIAL_POLICIES {
            lockstep(kind, rule, &ops, capacity)
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
        }
    }
}

/// Two criteria that ordered the slots alike would pick the same victims,
/// and a mix-up between them would pass unseen: every pair of criteria
/// orders some two slots oppositely.
#[test]
fn slot_orders_differ_between_criteria() {
    for (i, &c) in SpatialCriterion::ALL.iter().enumerate() {
        for &d in &SpatialCriterion::ALL[i + 1..] {
            let (c, d) = (Key::Crit(c), Key::Crit(d));
            let opposed = (0..SLOTS)
                .any(|s| (0..SLOTS).any(|t| rank(c, s) < rank(c, t) && rank(d, s) > rank(d, t)));
            assert!(opposed, "{c:?} and {d:?} order the slots alike");
        }
    }
}

/// Drives `kind` in a manager and a one-shard pool beside the model
/// following `rule`, checking agreement after every operation.
fn lockstep(
    kind: PolicyKind,
    rule: Rule,
    ops: &[Op],
    capacity: usize,
) -> Result<(), TestCaseError> {
    let ctx = AccessContext::default();
    let (mut disk, ids) = build_disk();
    let mut manager = BufferManager::with_policy(kind, capacity);
    let pool = ShardedBuffer::new(build_disk().0, kind, capacity, 1);
    let mut model = Model {
        rule,
        capacity,
        disk: (0..SLOTS).map(|i| (i, i as u8)).collect(),
        ..Model::default()
    };

    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Fetch(slot) => {
                let id = ids[slot];
                let hits_before = manager.stats().hits;
                let seq = manager
                    .fetch(&mut disk, id, ctx)
                    .map(|g| (g.payload[0], manager.stats().hits > hits_before))
                    .map_err(|e| fault(&ids, e));
                let pooled = pool
                    .fetch_classified(id, ctx)
                    .map(|out| (out.guard.payload[0], out.hit))
                    .map_err(|e| fault(&ids, e));
                let expected = model.fetch(slot);
                prop_assert_eq!(&seq, &expected, "step {}: {:?}", step, op);
                prop_assert_eq!(&pooled, &expected, "step {}: {:?}", step, op);
            }
            // Writes to a freed page are not part of the model.
            Op::WriteThrough(slot, _) | Op::WriteBuffered(slot, _)
                if !model.disk.contains_key(&slot) => {}
            Op::WriteThrough(slot, byte) => {
                manager
                    .write_through(&mut disk, page(&ids, slot, byte))
                    .unwrap();
                pool.write(page(&ids, slot, byte)).unwrap();
                model.write_through(slot, byte);
            }
            Op::WriteBuffered(slot, byte) => {
                let seq = manager.write_buffered(&mut disk, page(&ids, slot, byte));
                let pooled = pool.write_buffered(page(&ids, slot, byte));
                let expected = model.write_buffered(slot, byte);
                prop_assert_eq!(&seq.map_err(|e| fault(&ids, e)), &expected, "step {}", step);
                prop_assert_eq!(
                    &pooled.map_err(|e| fault(&ids, e)),
                    &expected,
                    "step {}",
                    step
                );
            }
            Op::Flush => {
                let expected = model.flush();
                prop_assert_eq!(stuck(&ids, manager.flush(&mut disk)), &expected[..]);
                prop_assert_eq!(stuck(&ids, pool.flush()), &expected[..], "step {}", step);
            }
            Op::Free(slot) if !model.disk.contains_key(&slot) => {}
            Op::Free(slot) => {
                manager.free_through(&mut disk, ids[slot]).unwrap();
                pool.free(ids[slot]).unwrap();
                model.free(slot);
            }
            Op::Poison(slot) => {
                let expected = model.poison(slot);
                prop_assert_eq!(manager.poison_frame(ids[slot]), expected, "step {}", step);
                prop_assert_eq!(pool.poison_frame(ids[slot]), expected, "step {}", step);
            }
        }

        for (slot, &id) in ids.iter().enumerate() {
            let resident = model.frames.contains_key(&slot);
            prop_assert_eq!(
                manager.contains(id),
                resident,
                "step {}: slot {}",
                step,
                slot
            );
            prop_assert_eq!(pool.contains(id), resident, "step {}: slot {}", step, slot);
            let stored = model.disk.get(&slot).copied();
            prop_assert_eq!(disk.peek(id).ok().map(|p| p.payload[0]), stored);
            let pooled = pool.with_store(|s| s.peek(id).ok().map(|p| p.payload[0]));
            prop_assert_eq!(pooled.unwrap(), stored, "step {}: slot {}", step, slot);
        }
        prop_assert_eq!(manager.dirty_count(), model.dirty(), "step {}", step);
        prop_assert_eq!(pool.dirty_count(), model.dirty(), "step {}", step);
        let stats = manager.stats();
        prop_assert_eq!(stats, pool.stats(), "step {}", step);
        prop_assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.writebacks),
            (model.hits, model.misses, model.evicted, model.writebacks),
            "step {}: {:?}",
            step,
            op
        );
        prop_assert_eq!(
            (stats.corruptions, stats.failed_evictions, stats.give_ups),
            (model.corruptions, model.failed_evictions, model.give_ups),
            "step {}: {:?}",
            step,
            op
        );
    }
    Ok(())
}
