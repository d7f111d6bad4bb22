//! Reference-model differential test for the buffer.
//!
//! A deliberately naive LRU write-back cache — a `HashMap` of frames, a
//! `Vec` for recency, a `HashMap` standing in for the disk; no guards, no
//! shards, no WAL, no retries — is driven in lockstep with a
//! [`BufferManager`] and a one-shard [`ShardedBuffer`] under random
//! fetch / write-through / write-buffered / flush / free sequences. After
//! every step the three must agree on what a read returned and whether it
//! hit, on the resident set and dirty count, on the counters, and on the
//! contents of the backing store.

use asb::buffer::{BufferManager, PolicyKind, ShardedBuffer};
use asb::geom::SpatialStats;
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
}

/// The reference: LRU replacement over a write-back cache, nothing else.
#[derive(Default)]
struct Model {
    capacity: usize,
    /// Resident frames: slot → (payload byte, dirty).
    frames: HashMap<usize, (u8, bool)>,
    /// Resident slots, least recently used first.
    lru: Vec<usize>,
    /// The backing store: live slots → payload byte.
    disk: HashMap<usize, u8>,
    hits: u64,
    misses: u64,
    evicted: u64,
    writebacks: u64,
}

impl Model {
    fn admit(&mut self, slot: usize, byte: u8, dirty: bool) {
        if self.frames.len() >= self.capacity {
            let victim = self.lru.remove(0);
            if let Some((byte, true)) = self.frames.remove(&victim) {
                self.disk.insert(victim, byte);
                self.writebacks += 1;
            }
            self.evicted += 1;
        }
        self.frames.insert(slot, (byte, dirty));
        self.lru.push(slot);
    }

    /// `Some((payload, hit))`, or `None` when the page does not exist.
    fn fetch(&mut self, slot: usize) -> Option<(u8, bool)> {
        if let Some(&(byte, _)) = self.frames.get(&slot) {
            self.hits += 1;
            self.lru.retain(|&s| s != slot);
            self.lru.push(slot);
            return Some((byte, true));
        }
        self.misses += 1;
        let byte = *self.disk.get(&slot)?;
        self.admit(slot, byte, false);
        Some((byte, false))
    }

    fn write_through(&mut self, slot: usize, byte: u8) {
        self.disk.insert(slot, byte);
        if let Some(frame) = self.frames.get_mut(&slot) {
            *frame = (byte, false);
        }
    }

    fn write_buffered(&mut self, slot: usize, byte: u8) {
        match self.frames.get_mut(&slot) {
            Some(frame) => *frame = (byte, true),
            None => self.admit(slot, byte, true),
        }
    }

    fn flush(&mut self) {
        for (&slot, frame) in self.frames.iter_mut().filter(|(_, f)| f.1) {
            self.disk.insert(slot, frame.0);
            frame.1 = false;
            self.writebacks += 1;
        }
    }

    fn free(&mut self, slot: usize) {
        self.disk.remove(&slot);
        self.frames.remove(&slot);
        self.lru.retain(|&s| s != slot);
    }

    fn dirty(&self) -> usize {
        self.frames.values().filter(|f| f.1).count()
    }
}

fn meta() -> PageMeta {
    PageMeta::data(SpatialStats::EMPTY)
}

fn page(id: PageId, byte: u8) -> Page {
    Page::new(id, meta(), Bytes::from(vec![byte])).expect("page")
}

fn build_disk() -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..SLOTS)
        .map(|i| disk.allocate(meta(), Bytes::from(vec![i as u8])).unwrap())
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
        1 => slot.prop_map(Op::Free),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn manager_and_one_shard_pool_match_the_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..250),
        capacity in 1usize..9,
    ) {
        let ctx = AccessContext::default();
        let (mut disk, ids) = build_disk();
        let mut manager = BufferManager::with_policy(PolicyKind::Lru, capacity);
        let pool = ShardedBuffer::new(build_disk().0, PolicyKind::Lru, capacity, 1);
        let mut model = Model {
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
                        .map(|g| (g.payload[0], manager.stats().hits > hits_before));
                    let pooled = pool.fetch_classified(id, ctx).map(|(g, hit)| (g.payload[0], hit));
                    match model.fetch(slot) {
                        Some(expected) => {
                            prop_assert_eq!(seq, Ok(expected), "step {}: {:?}", step, op);
                            prop_assert_eq!(pooled, Ok(expected), "step {}: {:?}", step, op);
                        }
                        None => {
                            prop_assert_eq!(seq, Err(StorageError::PageNotFound(id)));
                            prop_assert_eq!(pooled, Err(StorageError::PageNotFound(id)));
                        }
                    }
                }
                // Writes to a freed page are not part of the model.
                Op::WriteThrough(slot, _) | Op::WriteBuffered(slot, _)
                    if !model.disk.contains_key(&slot) => {}
                Op::WriteThrough(slot, byte) => {
                    manager.write_through(&mut disk, page(ids[slot], byte)).unwrap();
                    pool.write(page(ids[slot], byte)).unwrap();
                    model.write_through(slot, byte);
                }
                Op::WriteBuffered(slot, byte) => {
                    manager.write_buffered(&mut disk, page(ids[slot], byte)).unwrap();
                    pool.write_buffered(page(ids[slot], byte)).unwrap();
                    model.write_buffered(slot, byte);
                }
                Op::Flush => {
                    manager.flush(&mut disk).unwrap();
                    pool.flush().unwrap();
                    model.flush();
                }
                Op::Free(slot) if !model.disk.contains_key(&slot) => {}
                Op::Free(slot) => {
                    manager.free_through(&mut disk, ids[slot]).unwrap();
                    pool.free(ids[slot]).unwrap();
                    model.free(slot);
                }
            }

            for (slot, &id) in ids.iter().enumerate() {
                let resident = model.frames.contains_key(&slot);
                prop_assert_eq!(manager.contains(id), resident, "step {}: slot {}", step, slot);
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
                "step {}: {:?}", step, op
            );
        }
    }
}
