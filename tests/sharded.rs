//! Multi-threaded integration tests for the lock-striped buffer pool,
//! exercised through the umbrella crate the way applications see it.
//!
//! Two families:
//!
//! * a stress test over **every** replacement policy — invariants that must
//!   hold for any interleaving (bounded residency, consistent accounting,
//!   no lost writes);
//! * determinism tests — with one shard and one thread the pool reproduces
//!   the sequential [`BufferManager`]'s counts bit for bit, request by
//!   request and batch by batch.

use asb::buffer::{
    ArenaParams, AsbParams, BufferManager, PolicyKind, Roster, ShardedBuffer, SpatialCriterion,
};
use asb::geom::{Rect, SpatialStats};
use asb::storage::{AccessContext, DiskManager, Page, PageId, PageMeta, PageStore, QueryId};
use bytes::Bytes;

const PAGES: u64 = 200;
const CAPACITY: usize = 32;
const SHARDS: usize = 4;
const THREADS: usize = 4;

/// Every policy the buffer core offers, one of each `PolicyKind` variant,
/// in one place: the match below stops compiling when a variant is added
/// without a row here, rather than letting it go untested.
fn all_policies() -> Vec<PolicyKind> {
    let policies = vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::LruT,
        PolicyKind::LruP,
        PolicyKind::TwoQ,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::PAPER_SLRU,
        PolicyKind::Asb,
        PolicyKind::AsbWith(AsbParams {
            criterion: SpatialCriterion::Margin,
            ..AsbParams::default()
        }),
        PolicyKind::Arena,
        PolicyKind::ArenaWith(ArenaParams {
            roster: Roster::Lean,
            ..ArenaParams::default()
        }),
    ];
    for policy in &policies {
        match policy {
            PolicyKind::Lru
            | PolicyKind::Fifo
            | PolicyKind::Clock
            | PolicyKind::LruT
            | PolicyKind::LruP
            | PolicyKind::TwoQ
            | PolicyKind::LruK { .. }
            | PolicyKind::Spatial(_)
            | PolicyKind::Slru { .. }
            | PolicyKind::Asb
            | PolicyKind::AsbWith(_)
            | PolicyKind::Arena
            | PolicyKind::ArenaWith(_) => {}
        }
    }
    policies
}

fn build_disk() -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..PAGES)
        .map(|i| {
            let side = 1.0 + (i % 13) as f64;
            let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
            disk.allocate(meta, Bytes::from(vec![i as u8]))
                .expect("allocate")
        })
        .collect();
    disk.reset_stats();
    (disk, ids)
}

/// Runs a mixed read/write load from several threads and checks the
/// invariants that must survive any interleaving.
#[test]
fn stress_every_policy_preserves_invariants() {
    for policy in all_policies() {
        let (disk, ids) = build_disk();
        let pool = ShardedBuffer::new(disk, policy, CAPACITY, SHARDS);

        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let pool = pool.clone();
                let ids = &ids;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let slot = ((t * 31 + i * 17) % PAGES) as usize;
                        let ctx = AccessContext::query(QueryId::new((t << 32) | (i / 8)));
                        let page = pool.fetch(ids[slot], ctx).expect("read");
                        assert_eq!(page.id, ids[slot]);
                        // Each thread rewrites only its own residue class,
                        // so the final payloads are schedule-independent.
                        if slot as u64 % THREADS as u64 == t && i % 5 == 0 {
                            let page = Page::new(
                                page.id,
                                page.meta,
                                Bytes::from(vec![slot as u8, t as u8]),
                            )
                            .expect("page");
                            pool.write(page).expect("write");
                        }
                    }
                });
            }
        });

        let stats = pool.stats();
        assert!(
            pool.resident() <= CAPACITY,
            "{policy:?}: {} resident pages exceed capacity {CAPACITY}",
            pool.resident()
        );
        assert_eq!(
            stats.hits + stats.misses,
            stats.logical_reads,
            "{policy:?}: accounting must balance"
        );
        assert_eq!(stats.logical_reads, (THREADS * 500) as u64, "{policy:?}");
        assert!(
            stats.evictions > 0,
            "{policy:?}: the trace must overflow the buffer"
        );

        // No lost writes: every page some thread rewrote must read back
        // with that thread's payload, from the pool and from the store.
        let Ok(mut disk) = pool.try_into_store() else {
            panic!("sole handle with no guards must take the store back");
        };
        for (slot, id) in ids.iter().enumerate() {
            let owner = (slot % THREADS) as u8;
            let page = disk
                .read(*id, AccessContext::default())
                .expect("page survives");
            if page.payload.len() == 2 {
                assert_eq!(
                    page.payload.as_ref(),
                    &[slot as u8, owner],
                    "lost write on {id:?}"
                );
            } else {
                assert_eq!(
                    page.payload.as_ref(),
                    &[slot as u8],
                    "corrupted page {id:?}"
                );
            }
        }
    }
}

/// With one shard, the pool is the sequential buffer manager behind a
/// mutex: a single-threaded trace must produce identical statistics and
/// identical physical I/O.
#[test]
fn single_shard_replays_identically_to_sequential_buffer() {
    for policy in all_policies() {
        // Sequential reference: BufferManager::fetch over a disk.
        let (mut disk, ids) = build_disk();
        let mut seq = BufferManager::with_policy(policy, CAPACITY);
        let trace: Vec<(usize, u64)> = (0..3_000u64)
            .map(|i| (((i * 29 + i / 64) % PAGES) as usize, i / 8))
            .collect();
        for &(slot, q) in &trace {
            seq.fetch(&mut disk, ids[slot], AccessContext::query(QueryId::new(q)))
                .expect("read");
        }
        let seq_io = disk.stats();

        // Same trace through a one-shard pool.
        let (disk, ids) = build_disk();
        let pool = ShardedBuffer::new(disk, policy, CAPACITY, 1);
        for &(slot, q) in &trace {
            pool.fetch(ids[slot], AccessContext::query(QueryId::new(q)))
                .expect("read");
        }

        assert_eq!(
            pool.stats(),
            seq.stats(),
            "{policy:?}: buffer statistics must match"
        );
        assert_eq!(
            pool.io_stats().reads,
            seq_io.reads,
            "{policy:?}: physical reads must match"
        );
    }
}

/// On four shards, `fetch_batch` is its documented contract and nothing
/// more, for every policy. Two models run beside the pool, batch by batch,
/// on a trace with repeats and evictions:
///
/// * **The written-out contract**, over one bare [`BufferManager`] per
///   shard, split like the pool's capacity and all over one disk, through
///   public API only: first occurrences that `contains()` reports resident
///   are fetched first and their guards held, then the remaining ids are
///   fetched in input order. Hit flags, every shard's statistics and the
///   disk's `IoStats` must agree. Each batch holds a pair of consecutive
///   pages, so the random/sequential split of the reads pins their input
///   order: a pool that resolved shard by shard would read the pair out of
///   order. LRU-K, ASB and the arena (whose experts include both) are left
///   out of this one: they rank by the buffer's logical clock, which the
///   pool advances once per probe before admitting any miss, so a batch's
///   admissions tie where the one-at-a-time fetches order them (the caveat
///   `fetch_batch` documents).
/// * **The shard split**, for every policy: one one-shard pool per shard,
///   each fed its shard's ids of the batch in input order. Hit flags and
///   every shard's statistics must agree, and the reads must add up. The
///   one-shard batch is pinned clock-exactly to the manager's probe and
///   admit primitives by a unit test next to the pool, which is what
///   holds the clock-ranking policies here.
#[test]
fn four_shard_batches_replay_identically_to_the_written_out_contract() {
    let by_arrival = |p: &PolicyKind| {
        !matches!(
            p,
            PolicyKind::LruK { .. }
                | PolicyKind::Asb
                | PolicyKind::AsbWith(_)
                | PolicyKind::Arena
                | PolicyKind::ArenaWith(_)
        )
    };
    for policy in all_policies() {
        let (mut disk, ids) = build_disk();
        let (pool_disk, _) = build_disk();
        let pool = ShardedBuffer::new(pool_disk, policy, CAPACITY, SHARDS);
        let capacities = pool.per_shard(BufferManager::capacity);
        let written_out = by_arrival(&policy);
        let mut shards: Vec<BufferManager> = (capacities.iter())
            .map(|&frames| BufferManager::with_policy(policy, frames))
            .collect();
        let split: Vec<ShardedBuffer<DiskManager>> = (capacities.iter())
            .map(|&frames| ShardedBuffer::new(build_disk().0, policy, frames, 1))
            .collect();

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |span: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % span) as usize
        };
        let mut repeat_hits = 0u64;
        for b in 0..300u64 {
            // Six skewed picks (a hot eighth of the pages gets 70 % of
            // them), two consecutive pages anywhere, and two forced repeats
            // of earlier slots.
            let mut batch: Vec<PageId> = (0..6)
                .map(|_| {
                    let span = if next(10) < 7 { PAGES / 8 } else { PAGES };
                    ids[next(span)]
                })
                .collect();
            let pair = next(PAGES - 1);
            batch.extend([ids[pair], ids[pair + 1], batch[0], batch[3]]);
            let ctx = AccessContext::query(QueryId::new(b));

            let mut expected: Vec<Option<bool>> = vec![None; batch.len()];
            let mut guards = Vec::with_capacity(batch.len());
            let mut seen = std::collections::HashSet::new();
            for (i, &id) in batch.iter().enumerate() {
                let seq = &mut shards[pool.shard_of(id)];
                if written_out && seen.insert(id) && seq.contains(id) {
                    guards.push(seq.fetch(&mut disk, id, ctx).expect("read"));
                    expected[i] = Some(true);
                }
            }
            for (i, &id) in batch.iter().enumerate() {
                if written_out && expected[i].is_none() {
                    let seq = &mut shards[pool.shard_of(id)];
                    let hits = seq.stats().hits;
                    guards.push(seq.fetch(&mut disk, id, ctx).expect("read"));
                    expected[i] = Some(seq.stats().hits > hits);
                }
            }

            let mut split_flags: Vec<Option<bool>> = vec![None; batch.len()];
            let mut split_served = Vec::new();
            for (s, twin) in split.iter().enumerate() {
                let mine: Vec<usize> = (0..batch.len())
                    .filter(|&i| pool.shard_of(batch[i]) == s)
                    .collect();
                let sub: Vec<PageId> = mine.iter().map(|&i| batch[i]).collect();
                for (&i, slot) in mine.iter().zip(twin.fetch_batch(&sub, ctx)) {
                    split_flags[i] = slot.as_ref().ok().map(|out| out.hit);
                    split_served.push(slot);
                }
            }
            if !written_out {
                expected = split_flags.clone();
            }
            repeat_hits += u64::from(expected[8] == Some(true));

            let served = pool.fetch_batch(&batch, ctx);
            let flags: Vec<Option<bool>> = served
                .iter()
                .map(|slot| slot.as_ref().ok().map(|out| out.hit))
                .collect();
            assert_eq!(flags, expected, "{policy:?}: hit flags of batch {b}");
            assert_eq!(flags, split_flags, "{policy:?}: shard split of batch {b}");
            for (slot, &id) in served.iter().zip(&batch) {
                assert_eq!(slot.as_ref().expect("read").guard.id, id);
            }
            drop((guards, served, split_served));
            let by_shard = pool.per_shard(BufferManager::stats);
            let split_stats: Vec<_> = split.iter().map(ShardedBuffer::stats).collect();
            assert_eq!(
                by_shard, split_stats,
                "{policy:?}: shard split statistics after batch {b}"
            );
            let split_reads: u64 = split.iter().map(|twin| twin.io_stats().reads).sum();
            assert_eq!(pool.io_stats().reads, split_reads, "{policy:?}: batch {b}");
            if written_out {
                let model: Vec<_> = shards.iter().map(BufferManager::stats).collect();
                assert_eq!(
                    by_shard, model,
                    "{policy:?}: shard statistics after batch {b}"
                );
                assert_eq!(
                    pool.io_stats(),
                    disk.stats(),
                    "{policy:?}: store reads after batch {b}"
                );
            }
        }
        let io = pool.io_stats();
        assert!(
            io.sequential_reads > 0 && io.random_reads > 0,
            "{policy:?}: {io:?}"
        );
        let stats = pool.stats();
        assert!(stats.evictions > 0, "{policy:?}: the trace must evict");
        assert!(repeat_hits > 0, "{policy:?}: repeats must classify as hits");
        assert_eq!(stats.pin_overflows, 0, "{policy:?}: batches fit the pool");
        assert_eq!(pool.live_guards(), 0);
    }
}

/// A batch of 4 096 ids over 200 pages, so mostly repeats, on a pool large
/// enough that no admission evicts: `fetch_batch` must then be exactly the
/// same `fetch_classified` calls in input order. Each repeat classifies as
/// the hit it is sequentially, and the pool's `BufferStats` and the
/// store's reads equal those of a twin pool fed one id at a time.
#[test]
fn large_batches_classify_every_repeat_as_its_sequential_hit() {
    for policy in [PolicyKind::Lru, PolicyKind::Asb] {
        for shards in [1, SHARDS] {
            let twin = || ShardedBuffer::new(build_disk().0, policy, 2 * PAGES as usize, shards);
            let (pool, seq) = (twin(), twin());
            let ids = build_disk().1;
            let ctx = AccessContext::query(QueryId::new(1));
            // A warm quarter, so first occurrences both hit and miss.
            for &id in ids.iter().step_by(4) {
                pool.fetch(id, ctx).expect("read");
                seq.fetch(id, ctx).expect("read");
            }
            let batch: Vec<PageId> = (0..4_096u64)
                .map(|i| ids[((i * 7_919 + i * i) % PAGES) as usize])
                .collect();
            let expected: Vec<bool> = batch
                .iter()
                .map(|&id| seq.fetch_classified(id, ctx).expect("read").hit)
                .collect();
            let served = pool.fetch_batch(&batch, ctx);
            let flags: Vec<bool> = served
                .iter()
                .map(|s| s.as_ref().expect("read").hit)
                .collect();
            assert_eq!(flags, expected, "{policy:?} on {shards} shards: hit flags");
            drop(served);
            assert_eq!(pool.stats(), seq.stats(), "{policy:?} on {shards} shards");
            assert_eq!(
                pool.io_stats(),
                seq.io_stats(),
                "{policy:?} on {shards} shards"
            );
            // Every repeat hits; first occurrences both hit and miss.
            let distinct = batch
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            let hits = flags.iter().filter(|&&hit| hit).count();
            assert!(batch.len() - distinct < hits && hits < batch.len());
            assert_eq!((pool.stats().evictions, pool.live_guards()), (0, 0));
        }
    }
}
