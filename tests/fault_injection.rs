//! Fault-injection suite: the buffer stack under a misbehaving store.
//!
//! The fault schedule is a pure function of the `FaultyStore` seed, so
//! every failure here is reproducible by re-running with the same seed.
//! CI sweeps `ASB_FAULT_SEED` over a fixed matrix; locally the suite runs
//! with seed 1 unless the variable is set. On failure, the chaos-matrix
//! test writes the offending trace to `target/fault-artifacts/` so the
//! run can be replayed offline (`trace replay <file> --fault-rate ...`).

use asb::buffer::{BufferManager, BufferStats, PolicyKind, ShardedBuffer};
use asb::exp::Trace;
use asb::geom::{Rect, SpatialStats};
use asb::storage::{
    AccessContext, DiskManager, FaultConfig, FaultyStore, Page, PageId, PageMeta, PageStore,
    QueryId, StorageError,
};
use asb::workload::{DatasetKind, QuerySetSpec, Scale};
use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;

mod common;

/// Seed of the fault schedule, overridable for the CI matrix.
fn fault_seed() -> u64 {
    std::env::var("ASB_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn build_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            let r = Rect::new(0.0, 0.0, (i % 7) as f64 + 0.5, (i % 3) as f64 + 0.5);
            disk.allocate(
                PageMeta::data(SpatialStats::from_rects(&[r])),
                Bytes::from(vec![i as u8; 16]),
            )
            .expect("allocate")
        })
        .collect();
    (disk, ids)
}

fn ctx(q: u64) -> AccessContext {
    AccessContext::query(QueryId::new(q))
}

/// Transient read faults are absorbed by the retry loop: the caller sees
/// correct pages, only the `retries` counter betrays the turbulence.
#[test]
fn transient_faults_are_transparent_to_readers() {
    let (disk, ids) = build_disk(16);
    let mut store = FaultyStore::new(disk, FaultConfig::transient(fault_seed(), 0.3));
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
    buf.set_retry_attempts(12);
    for (i, &id) in ids.iter().enumerate().cycle().take(200) {
        let page = buf.fetch(&mut store, id, ctx(i as u64)).expect("read");
        assert_eq!(page.id, id);
        assert!(page.verify_checksum());
    }
    let stats = buf.stats();
    assert_eq!(stats.logical_reads, 200);
    assert!(
        stats.retries > 0,
        "a 30% fault rate over 200 reads must trigger retries"
    );
    assert!(store.fault_stats().read_faults > 0);
}

/// Corrupted payloads are detected by checksum, counted, and refetched —
/// the caller never observes damaged bytes.
#[test]
fn corruption_is_detected_and_refetched() {
    let (disk, ids) = build_disk(16);
    let mut store = FaultyStore::new(disk, FaultConfig::corrupting(fault_seed(), 0.3));
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
    buf.set_retry_attempts(12);
    for (i, &id) in ids.iter().enumerate().cycle().take(200) {
        let page = buf.fetch(&mut store, id, ctx(i as u64)).expect("read");
        assert!(
            page.verify_checksum(),
            "corrupted payload served to the caller"
        );
        assert_eq!(
            page.payload,
            store.inner().peek(id).expect("peek").payload,
            "served payload differs from the disk image"
        );
    }
    assert!(store.fault_stats().corruptions > 0, "rate 0.3 must corrupt");
    assert!(buf.stats().corruptions > 0, "buffer must count detections");
}

/// A frame poisoned *in the pool* (bit rot in memory) is evicted and
/// refetched on the next access instead of being served.
#[test]
fn poisoned_resident_frame_is_refetched_not_served() {
    let (mut disk, ids) = build_disk(8);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
    let clean = buf.fetch(&mut disk, ids[0], ctx(0)).expect("read");
    assert!(buf.poison_frame(ids[0]), "frame is resident");
    let healed = buf.fetch(&mut disk, ids[0], ctx(1)).expect("read");
    assert!(healed.verify_checksum());
    assert_eq!(healed.payload, clean.payload);
    let stats = buf.stats();
    assert_eq!(stats.corruptions, 1);
    assert_eq!(stats.misses, 2, "the poisoned hit degrades to a miss");
}

/// The three read paths a poisoned frame can be reached through:
/// `BufferManager::fetch`, `ShardedBuffer::fetch` and `fetch_batch`.
enum FrontEnd {
    Manager(Box<BufferManager>, DiskManager),
    Pool(ShardedBuffer<DiskManager>),
}

impl FrontEnd {
    /// Reads `ids` — one `fetch` per id, or one `fetch_batch` over all of
    /// them (pools only) — and returns the payloads that were served.
    fn read(&mut self, ids: &[PageId], batched: bool) -> Vec<Bytes> {
        let intact = |page: &Page| {
            assert!(page.verify_checksum(), "corrupt page served");
            page.payload.clone()
        };
        match self {
            FrontEnd::Manager(buf, disk) => ids
                .iter()
                .map(|&id| intact(&buf.fetch(disk, id, ctx(0)).expect("read")))
                .collect(),
            FrontEnd::Pool(pool) if batched => pool
                .fetch_batch(ids, ctx(0))
                .iter()
                .map(|slot| intact(&slot.as_ref().expect("slot").guard))
                .collect(),
            FrontEnd::Pool(pool) => ids
                .iter()
                .map(|&id| intact(&pool.fetch(id, ctx(0)).expect("read")))
                .collect(),
        }
    }

    fn poison(&mut self, id: PageId) -> bool {
        match self {
            FrontEnd::Manager(buf, _) => buf.poison_frame(id),
            FrontEnd::Pool(pool) => pool.poison_frame(id),
        }
    }

    fn stats(&self) -> BufferStats {
        match self {
            FrontEnd::Manager(buf, _) => buf.stats(),
            FrontEnd::Pool(pool) => pool.stats(),
        }
    }

    fn resident(&self) -> usize {
        match self {
            FrontEnd::Manager(buf, _) => buf.resident(),
            FrontEnd::Pool(pool) => pool.resident(),
        }
    }

    fn physical_reads(&self) -> u64 {
        match self {
            FrontEnd::Manager(_, disk) => disk.stats().reads,
            FrontEnd::Pool(pool) => pool.io_stats().reads,
        }
    }
}

/// Pool size and page population of the poisoned-frame matrix; the first
/// four pages are warmed, so `ids[40]` is cold.
const POISON_CAPACITY: usize = 16;
const POISON_PAGES: u64 = 64;

/// One cell of the matrix below: warm the pool, poison `ids[1]`, read
/// `access`, then churn the pool.
fn assert_poison_is_detected_at_once(
    label: &str,
    mut pool: FrontEnd,
    access: &[PageId],
    batched: bool,
) {
    let (_, ids) = build_disk(POISON_PAGES);
    let stored = |id: PageId| Bytes::from(vec![id.raw() as u8; 16]);
    pool.read(&ids[..4], false);
    let (warm, warm_reads) = (pool.stats(), pool.physical_reads());
    assert!(pool.poison(ids[1]), "{label}: target is resident");

    for (&id, payload) in access.iter().zip(pool.read(access, batched)) {
        assert_eq!(payload, stored(id), "{label}: {id} served wrong bytes");
    }
    let stats = pool.stats();
    assert_eq!(stats.corruptions, 1, "{label}");
    assert_eq!(stats.hits + stats.misses, stats.logical_reads, "{label}");
    let reads = warm.logical_reads + access.len() as u64;
    assert_eq!(stats.logical_reads, reads, "{label}");
    // Exactly the rotten frame was re-read: its first access after the
    // poisoning missed, a repeat of it in the same batch hit.
    let cold = access.iter().filter(|&&id| id == ids[40]).count() as u64;
    assert_eq!(stats.misses, warm.misses + 1 + cold, "{label}");
    assert_eq!(pool.physical_reads(), warm_reads + 1 + cold, "{label}");

    // Fill the pool and evict through it: nothing panics, every page is
    // still served intact, and the frame count balances — every miss
    // admitted one frame, every eviction and the one discard removed one.
    // (That the policy also forgot the discarded page is the twin test's
    // job, below.)
    for round in 0..2 {
        for (&id, payload) in ids.iter().zip(pool.read(&ids, false)) {
            assert_eq!(payload, stored(id), "{label}: round {round}");
        }
    }
    let stats = pool.stats();
    assert!(stats.evictions > 0, "{label}: the fill must evict");
    assert_eq!(stats.corruptions, 1, "{label}");
    assert_eq!(
        pool.resident() as u64,
        stats.misses - stats.evictions - stats.corruptions,
        "{label}: a frame was lost or a phantom victim evicted"
    );
    assert_eq!(pool.resident(), POISON_CAPACITY, "{label}");
}

/// Detection bound = 1 access, for every policy on every front end: the
/// access right after a frame rots is served the store's bytes, never the
/// poisoned copy; it costs one counted miss and one physical read; and the
/// policy's bookkeeping survives the out-of-band removal — the pool is
/// then filled and churned, and every frame the counters say exists does.
#[test]
fn poisoned_frame_is_detected_on_the_next_access_on_every_front_end() {
    let (_, ids) = build_disk(POISON_PAGES);
    let (target, warm, cold) = (ids[1], ids[2], ids[40]);
    for (name, kind) in common::policies() {
        let manager = Box::new(BufferManager::with_policy(kind, POISON_CAPACITY));
        assert_poison_is_detected_at_once(
            &format!("{name} via manager"),
            FrontEnd::Manager(manager, build_disk(POISON_PAGES).0),
            &[target],
            false,
        );
        for shards in [1, 4] {
            let pool = || {
                let disk = build_disk(POISON_PAGES).0;
                FrontEnd::Pool(ShardedBuffer::new(disk, kind, POISON_CAPACITY, shards))
            };
            let label = format!("{name} via {shards}-shard");
            assert_poison_is_detected_at_once(&format!("{label} fetch"), pool(), &[target], false);
            for (place, batch) in [
                ("first", [target, warm, cold]),
                ("last", [warm, cold, target]),
                ("repeated", [target, warm, target]),
            ] {
                let label = format!("{label} batch, poisoned page {place}");
                assert_poison_is_detected_at_once(&label, pool(), &batch, true);
            }
        }
    }
}

/// What "the bookkeeping survives" means exactly: discarding a rotten frame
/// leaves every policy where the sanctioned removal, `invalidate`, leaves
/// it. One pool poisons a warm page and its twin invalidates it; from the
/// re-fetch on, every access of a stream with reuse classifies the same on
/// both. (The churn above cannot see a policy that kept the discarded
/// page's entry — victims pass an `evictable` filter, so a stale entry is
/// skipped, not evicted — but it ranks the healed page by its old position,
/// and this stream notices.)
#[test]
fn discarding_a_rotten_frame_is_an_invalidate_to_every_policy() {
    let (_, ids) = build_disk(POISON_PAGES);
    for (name, kind) in common::policies() {
        let mut twins: Vec<_> = [true, false]
            .into_iter()
            .map(|poison| {
                let (mut disk, _) = build_disk(POISON_PAGES);
                let mut buf = BufferManager::with_policy(kind, POISON_CAPACITY);
                for &id in &ids[..4] {
                    drop(buf.fetch(&mut disk, id, ctx(0)).expect("warm"));
                }
                if poison {
                    assert!(buf.poison_frame(ids[1]));
                } else {
                    buf.invalidate(ids[1]);
                }
                (buf, disk)
            })
            .collect();
        // The healed page; 14 cold pages, which fill the pool and evict two
        // of the warm four; the healed page again; then 600 reads over 24
        // pages (capacity 16).
        let mut rng = StdRng::seed_from_u64(fault_seed());
        let stream = [1]
            .into_iter()
            .chain(4..18)
            .chain([1])
            .chain((0..600).map(|_| rng.gen_range(0..24usize)));
        for (step, slot) in stream.enumerate() {
            let hit: Vec<bool> = twins
                .iter_mut()
                .map(|(buf, disk)| {
                    let hits = buf.stats().hits;
                    drop(buf.fetch(disk, ids[slot], ctx(step as u64)).expect("read"));
                    buf.stats().hits > hits
                })
                .collect();
            assert_eq!(hit[0], hit[1], "{name}: step {step}, page {slot}");
        }
        let (healed, invalidated) = (twins[0].0.stats(), twins[1].0.stats());
        assert_eq!(healed.corruptions, 1, "{name}");
        let healed = BufferStats {
            corruptions: 0,
            ..healed
        };
        assert_eq!(healed, invalidated, "{name}");
    }
}

/// Rot in a *dirty* frame must not be healed by dropping it: the store
/// copy is stale, so the refetch that heals a clean frame would silently
/// lose the buffered write. The read fails with a typed, non-transient
/// error and the frame stays — on the manager and on the pool.
#[test]
fn poisoned_dirty_frame_is_kept_and_the_read_fails() {
    let update = |id| {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        Page::new(id, meta, Bytes::from_static(b"buffered write")).expect("page")
    };
    let check = |err: StorageError, stats: BufferStats, id: PageId| {
        assert!(
            matches!(err, StorageError::DirtyFrameCorrupt { id: rotten, .. } if rotten == id),
            "got {err:?}"
        );
        assert!(!err.is_transient());
        assert_eq!((stats.corruptions, stats.give_ups), (1, 1));
        assert_eq!(stats.hits + stats.misses, stats.logical_reads);
    };

    let (mut disk, ids) = build_disk(8);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
    drop(buf.fetch(&mut disk, ids[0], ctx(0)).expect("read"));
    buf.write_buffered(&mut disk, update(ids[0]))
        .expect("write");
    assert!(buf.poison_frame(ids[0]));
    let err = buf.fetch(&mut disk, ids[0], ctx(1)).unwrap_err();
    check(err, buf.stats(), ids[0]);
    assert!(buf.contains(ids[0]));
    assert_eq!(buf.dirty_count(), 1, "the buffered write is still pending");

    let pool = ShardedBuffer::new(build_disk(8).0, PolicyKind::Lru, 8, 2);
    pool.write_buffered(update(ids[0])).expect("write");
    assert!(pool.poison_frame(ids[0]));
    let err = pool.fetch(ids[0], ctx(0)).unwrap_err();
    check(err, pool.stats(), ids[0]);
    // In a batch the rotten page fails its own slot only, as a give-up
    // (so the serving layer quarantines it instead of retrying).
    let slots = pool.fetch_batch(&[ids[1], ids[0], ids[2]], ctx(1));
    let err = slots[1].as_ref().expect_err("rotten slot");
    assert!(err.id == ids[0] && err.is_give_up() && !err.is_transient());
    assert!(slots[0].is_ok() && slots[2].is_ok());
    drop(slots);
    assert!(
        pool.fetch_resident(ids[0], ctx(2)).is_none(),
        "never served"
    );
    assert!(pool.contains(ids[0]));
    assert_eq!(pool.dirty_count(), 1);
    // Rewriting the page replaces the rotten frame.
    pool.write_buffered(update(ids[0])).expect("rewrite");
    let healed = pool.fetch(ids[0], ctx(3)).expect("healed");
    assert_eq!(healed.payload.as_ref(), b"buffered write");
}

/// Write-back stores no rot: `flush` lists a poisoned dirty frame in
/// `FlushIncomplete` and evicting it fails like a failed write-back —
/// either way the store keeps its last good copy.
#[test]
fn poisoned_dirty_frame_is_never_written_back() {
    let (mut disk, ids) = build_disk(8);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    for &id in &ids[..2] {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let page = Page::new(id, meta, Bytes::from_static(b"buffered write")).expect("page");
        buf.write_buffered(&mut disk, page).expect("write");
    }
    assert!(buf.poison_frame(ids[0]));

    let err = buf.flush(&mut disk).unwrap_err();
    let StorageError::FlushIncomplete { failures } = err else {
        panic!("expected FlushIncomplete, got {err:?}");
    };
    let failed: Vec<PageId> = failures.iter().map(|(id, _)| *id).collect();
    assert_eq!(failed, vec![ids[0]], "only the rotten frame is left behind");
    assert_eq!(buf.dirty_count(), 1);
    assert_eq!(
        disk.peek(ids[1]).expect("peek").payload.as_ref(),
        b"buffered write",
        "its healthy sibling was flushed"
    );

    // ids[0] is also the LRU victim: admitting a third page cannot evict it.
    let err = buf.fetch(&mut disk, ids[2], ctx(0)).unwrap_err();
    assert!(matches!(err, StorageError::DirtyFrameCorrupt { id, .. } if id == ids[0]));
    let stats = buf.stats();
    assert_eq!((stats.failed_evictions, stats.evictions), (1, 0));
    assert!(buf.contains(ids[0]) && buf.dirty_count() == 1);
    let on_disk = disk.peek(ids[0]).expect("peek");
    assert!(on_disk.verify_checksum(), "the store never saw the rot");
    assert_eq!(on_disk.payload.as_ref(), &[0u8; 16]);
}

/// When the store never recovers, the retry loop gives up with a typed
/// error that names the page and the spent budget — not a panic.
#[test]
fn hopeless_faults_surface_a_typed_give_up() {
    let (disk, ids) = build_disk(4);
    let mut store = FaultyStore::new(disk, FaultConfig::transient(fault_seed(), 1.0));
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    buf.set_retry_attempts(3);
    let err = buf.fetch(&mut store, ids[0], ctx(0)).unwrap_err();
    match err {
        StorageError::RetriesExhausted { id, attempts, last } => {
            assert_eq!(id, ids[0]);
            assert_eq!(attempts, 3);
            assert!(last.is_transient());
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(
        buf.stats().retries,
        2,
        "two re-attempts after the first try"
    );

    // A budget of zero still makes the one attempt, and never a retry.
    buf.set_retry_attempts(0);
    let reads_before = store.fault_stats().read_faults;
    let err = buf.fetch(&mut store, ids[1], ctx(1)).unwrap_err();
    assert!(matches!(
        err,
        StorageError::RetriesExhausted { attempts: 1, .. }
    ));
    assert_eq!(store.fault_stats().read_faults, reads_before + 1);
    assert_eq!(buf.stats().retries, 2, "no further re-attempt");
}

/// Permanently failed pages report `DeviceFailed` immediately — no retry
/// budget is wasted on a dead device.
#[test]
fn permanent_failures_are_not_retried() {
    let (disk, ids) = build_disk(4);
    let mut store = FaultyStore::new(disk, FaultConfig::reliable());
    store.mark_permanent(ids[1]);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    let err = buf.fetch(&mut store, ids[1], ctx(0)).unwrap_err();
    assert_eq!(err, StorageError::DeviceFailed(ids[1]));
    assert_eq!(buf.stats().retries, 0);
    // Healing restores the page.
    store.heal(ids[1]);
    assert!(buf.fetch(&mut store, ids[1], ctx(1)).is_ok());
}

/// Satellite regression: a dirty victim whose write-back fails must stay
/// resident (and dirty), and the eviction must not be recorded as
/// completed. After the store recovers, the eviction succeeds.
#[test]
fn failed_writeback_keeps_victim_resident_and_uncounted() {
    let (disk, ids) = build_disk(8);
    let mut store = FaultyStore::new(disk, FaultConfig::reliable());
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    buf.set_retry_attempts(1);

    // Make page A resident and dirty via a buffered write.
    let dirty = asb::storage::Page::new(
        ids[0],
        PageMeta::data(SpatialStats::EMPTY),
        Bytes::from_static(b"dirty-a"),
    )
    .expect("page");
    buf.write_buffered(&mut store, dirty)
        .expect("buffered write");
    buf.fetch(&mut store, ids[1], ctx(0)).expect("fill");
    assert_eq!(buf.dirty_count(), 1);

    // Now every write fails: evicting A (the LRU victim) cannot complete.
    store.set_config(FaultConfig {
        write_transient: 1.0,
        ..FaultConfig::transient(fault_seed(), 0.0)
    });
    let err = buf.fetch(&mut store, ids[2], ctx(1)).unwrap_err();
    assert!(
        matches!(
            &err,
            StorageError::RetriesExhausted { id, last, .. }
                if *id == ids[0] && matches!(**last, StorageError::TransientWrite(w) if w == ids[0])
        ),
        "got {err:?}"
    );
    let stats = buf.stats();
    assert_eq!(stats.failed_evictions, 1);
    assert_eq!(stats.evictions, 0, "no completed eviction may be recorded");
    assert!(buf.contains(ids[0]), "victim must stay resident");
    assert_eq!(buf.dirty_count(), 1, "victim must stay dirty");

    // Store recovers: the same access now evicts cleanly and serves C.
    store.set_config(FaultConfig::reliable());
    let page = buf.fetch(&mut store, ids[2], ctx(2)).expect("read");
    assert_eq!(page.id, ids[2]);
    let stats = buf.stats();
    assert_eq!(stats.failed_evictions, 1);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.writebacks, 1);
    assert_eq!(
        store.inner().peek(ids[0]).expect("peek").payload,
        Bytes::from_static(b"dirty-a"),
        "the recovered write-back must have landed on disk"
    );
}

/// The fault schedule is a pure function of (seed, op index): two stores
/// with the same seed inject identically, different seeds differ.
#[test]
fn fault_schedules_are_seed_deterministic() {
    let seed = fault_seed();
    let run = |seed: u64| {
        let (disk, ids) = build_disk(8);
        let mut store = FaultyStore::new(disk, FaultConfig::chaos(seed, 0.25));
        let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
        buf.set_retry_attempts(16);
        for (i, &id) in ids.iter().enumerate().cycle().take(120) {
            let _ = buf.fetch(&mut store, id, ctx(i as u64));
        }
        (store.fault_stats(), buf.stats())
    };
    assert_eq!(run(seed), run(seed));
    assert_ne!(
        run(seed).0,
        run(seed ^ 0xdead_beef).0,
        "different seeds must produce different schedules"
    );
}

/// End-to-end: a recorded workload replayed under chaos faults returns
/// only correct payloads, with zero panics, across all policies.
#[test]
fn replayed_workload_survives_chaos() {
    let trace = Trace::record(
        DatasetKind::Mainland,
        Scale::Tiny,
        7,
        QuerySetSpec::uniform_windows(33),
        80,
    )
    .expect("record");
    for policy in [
        PolicyKind::Lru,
        PolicyKind::LruK { k: 2 },
        PolicyKind::PAPER_SLRU,
        PolicyKind::Asb,
    ] {
        let disk = trace.build_disk().expect("disk");
        let mut store = FaultyStore::new(disk, FaultConfig::chaos(fault_seed(), 0.1));
        let mut buf = BufferManager::with_policy(policy, 8);
        buf.set_retry_attempts(10);
        trace
            .drive_reads(|_, id, ctx| match buf.fetch(&mut store, id, ctx) {
                Ok(page) => {
                    let pristine = store.inner().peek(id)?;
                    assert_eq!(
                        page.payload, pristine.payload,
                        "{policy:?}: corruption served"
                    );
                    Ok(())
                }
                Err(StorageError::RetriesExhausted { .. }) => Ok(()),
                Err(other) => Err(other),
            })
            .expect("fault replay");
        let stats = buf.stats();
        assert_eq!(
            stats.logical_reads,
            trace.accesses.len() as u64,
            "{policy:?}: accesses lost"
        );
        assert!(
            stats.retries > 0 || store.fault_stats().read_faults == 0,
            "{policy:?}: injected faults went unretried"
        );
    }
}

/// The sharded pool under multi-threaded chaos: every served page is
/// intact, counters stay consistent, zero panics. On failure the workload
/// trace is written to `target/fault-artifacts/` for offline replay.
#[test]
fn sharded_pool_survives_multithreaded_chaos() {
    let seed = fault_seed();
    let trace = Trace::record(
        DatasetKind::Mainland,
        Scale::Tiny,
        7,
        QuerySetSpec::uniform_windows(33),
        80,
    )
    .expect("record");
    let disk = trace.build_disk().expect("disk");
    let store = FaultyStore::new(disk, FaultConfig::chaos(seed, 0.08));
    let pool = ShardedBuffer::new(store, PolicyKind::Asb, 16, 4);
    pool.set_retry_attempts(16);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    let pool = pool.clone();
                    let accesses = &trace.accesses;
                    s.spawn(move || {
                        let mut give_ups = 0u64;
                        for &(p, q) in accesses.iter().skip(t).step_by(4) {
                            let id = PageId::new(p);
                            match pool.fetch(id, ctx(q | ((t as u64) << 48))) {
                                Ok(page) => {
                                    assert!(page.verify_checksum(), "corrupt page served");
                                    assert_eq!(page.id, id);
                                }
                                Err(
                                    StorageError::RetriesExhausted { .. }
                                    | StorageError::DeviceFailed(_),
                                ) => give_ups += 1,
                                Err(other) => panic!("unexpected error: {other:?}"),
                            }
                        }
                        give_ups
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .sum::<u64>()
        })
    }));

    match result {
        Ok(give_ups) => {
            let stats = pool.stats();
            assert_eq!(
                stats.logical_reads,
                trace.accesses.len() as u64,
                "every access must be accounted"
            );
            assert_eq!(stats.hits + stats.misses, stats.logical_reads);
            // Give-ups are tolerable under chaos; silent loss is not.
            assert!(give_ups <= trace.accesses.len() as u64 / 10);
        }
        Err(payload) => {
            // Preserve the reproducer before failing the test.
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fault-artifacts");
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join(format!("chaos-seed-{seed}.trace"));
            let _ = trace.save(&path);
            eprintln!(
                "sharded chaos run panicked; trace saved to {} \
                 (replay: trace replay {} --fault-seed {seed} --fault-rate 0.08)",
                path.display(),
                path.display()
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// The batched fetch contract retries transient faults *per page*: with a
/// generous policy every slot of every batch comes back `Ok`, and only the
/// pool's `retries` counter records the turbulence. No batch is poisoned
/// by a sibling page's transient fault.
#[test]
fn batched_fetch_retries_transients_per_page() {
    let (disk, ids) = build_disk(12);
    let store = FaultyStore::new(disk, FaultConfig::transient(fault_seed(), 0.3));
    let pool = ShardedBuffer::new(store, PolicyKind::Lru, 8, 2);
    pool.set_retry_attempts(12);
    for round in 0..40u64 {
        let outcomes = pool.fetch_batch(&ids, ctx(round));
        assert_eq!(outcomes.len(), ids.len());
        for (slot, &id) in outcomes.iter().zip(&ids) {
            let guard = &slot
                .as_ref()
                .expect("transient faults must be absorbed by per-page retries")
                .guard;
            assert_eq!(guard.id, id);
            assert!(guard.verify_checksum());
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 40 * ids.len() as u64);
    assert_eq!(stats.hits + stats.misses, stats.logical_reads);
    assert!(
        stats.retries > 0,
        "a 30% fault rate over 480 batched reads must trigger retries"
    );
    assert_eq!(
        stats.give_ups, 0,
        "retries exhausted under a 12-attempt policy"
    );
}

/// Give-ups are typed *per slot*: pages marked permanently failed come back
/// as `Err` slots carrying the failing page's id and a give-up error, while
/// sibling slots in the same batch succeed untouched.
#[test]
fn batched_fetch_fails_per_slot_not_per_batch() {
    let (disk, ids) = build_disk(12);
    let store = FaultyStore::new(disk, FaultConfig::reliable());
    store.mark_permanent(ids[3]);
    store.mark_permanent(ids[7]);
    let pool = ShardedBuffer::new(store, PolicyKind::Lru, 8, 2);
    let batch: Vec<PageId> = ids[..10].to_vec();
    let outcomes = pool.fetch_batch(&batch, ctx(1));
    assert_eq!(outcomes.len(), batch.len());
    for (slot, &id) in outcomes.iter().zip(&batch) {
        if id == ids[3] || id == ids[7] {
            let err = slot
                .as_ref()
                .expect_err("permanently failed page must fail");
            assert_eq!(err.id, id, "failure attributed to the failing page");
            assert!(
                err.is_give_up(),
                "device failure is a typed give-up: {err:?}"
            );
            assert!(!err.is_transient());
        } else {
            let served = slot
                .as_ref()
                .expect("healthy sibling slots must not be poisoned by a failing page");
            assert_eq!(served.guard.id, id);
            assert!(!served.hit, "cold pool: every delivered slot is a miss");
            assert!(served.guard.verify_checksum());
        }
    }
    drop(outcomes);
    let stats = pool.stats();
    assert_eq!(stats.give_ups, 2, "one give-up per failed slot");
    assert_eq!(stats.logical_reads, batch.len() as u64);
}

/// Satellite 1 end to end: a pool-shared `FaultyStore` can be poisoned and
/// healed mid-run through `with_store` (`mark_permanent`/`heal` take
/// `&self`). A resident copy keeps serving across the device failure; only
/// a refetch after eviction observes it, and healing restores the page.
#[test]
fn pool_shared_store_poison_and_heal_mid_run() {
    let (disk, ids) = build_disk(8);
    let store = FaultyStore::new(disk, FaultConfig::reliable());
    let pool = ShardedBuffer::new(store, PolicyKind::Lru, 2, 1);
    drop(pool.fetch(ids[2], ctx(0)).expect("warm read"));
    pool.with_store(|s| s.mark_permanent(ids[2]))
        .expect("no guards live");
    // The buffered copy is untouched by the device failure.
    drop(
        pool.fetch(ids[2], ctx(1))
            .expect("resident copy still serves"),
    );
    // Evict it (capacity 2, single shard, LRU): two fresh pages push it out.
    drop(pool.fetch(ids[0], ctx(2)).expect("read"));
    drop(pool.fetch(ids[1], ctx(3)).expect("read"));
    let err = pool
        .fetch(ids[2], ctx(4))
        .expect_err("refetch hits the dead device");
    assert!(matches!(err, StorageError::DeviceFailed(id) if id == ids[2]));
    pool.with_store(|s| s.heal(ids[2])).expect("no guards live");
    let healed = pool.fetch(ids[2], ctx(5)).expect("healed page reads again");
    assert!(healed.verify_checksum());
    drop(healed);
    assert_eq!(pool.stats().give_ups, 1);
}
