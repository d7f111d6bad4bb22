//! Deterministic-schedule model checking for the sharded buffer pool.
//!
//! Each test wraps a small 2–3-thread scenario in [`schedule::explore`],
//! which reruns it under many seed-derived thread schedules and checks an
//! invariant in every one. Two build modes:
//!
//! * `RUSTFLAGS="--cfg asb_schedule" cargo test --test interleave` — the
//!   `asb_core::sync` facade compiles to the cooperative scheduler, every
//!   lock acquisition becomes a scheduling point, and each scenario is
//!   required to cover at least 1000 *distinct* fine-grained interleavings
//!   (`Report::controlled == true`).
//! * plain `cargo test --test interleave` — the facade compiles to real
//!   locks; the explorer still runs and still permutes threads at
//!   spawn/join boundaries, but asserts only the invariants, not coverage.
//!
//! Either way the exploration is a pure function of the seed: the same seed
//! replays the same schedules in the same order (`Report::digest`), so a
//! failure printed by CI is reproducible locally, and the failing pick
//! sequence is written to `target/schedule-artifacts/`.

use asb::buffer::{BufferManager, PolicyKind, ShardedBuffer};
use asb::geom::SpatialStats;
use asb::storage::{
    AccessContext, ConcurrentPageStore, DiskManager, FaultConfig, FaultyStore, IoStats, Page,
    PageId, PageMeta, PageStore, QueryId, Result, SharedWal, StorageError, Wal, WalConfig,
    WalRecord,
};
use bytes::Bytes;
use schedule::sync as ssync;
use schedule::{explore, thread, ExploreConfig, Report};
use std::collections::HashMap;

fn meta() -> PageMeta {
    PageMeta::data(SpatialStats::EMPTY)
}

fn page(id: PageId, tag: u8) -> Page {
    Page::new(id, meta(), Bytes::from(vec![tag])).unwrap()
}

fn disk_with_pages(n: usize) -> (DiskManager, Vec<PageId>) {
    let mut d = DiskManager::new();
    let ids = (0..n)
        .map(|i| d.allocate(meta(), Bytes::from(vec![i as u8])).unwrap())
        .collect();
    d.reset_stats();
    (d, ids)
}

/// Runs `scenario` under the exploration budget appropriate for the build
/// mode: a one-run probe decides whether the facade compiled to the
/// scheduler, then the real exploration either demands >= 1000 distinct
/// fine-grained schedules (controlled build) or settles for a short sweep
/// of whole-thread permutations (plain build, where sync points don't
/// yield and the schedule space is tiny).
fn explore_scenario<F>(name: &'static str, seed: u64, scenario: F) -> Report
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let probe = ExploreConfig {
        target_distinct: 1,
        max_schedules: 1,
        ..ExploreConfig::new(name, seed)
    };
    let controlled = explore(&probe, scenario.clone()).controlled;
    let cfg = if controlled {
        ExploreConfig::new(name, seed) // 1000 distinct schedules, 4000-run budget
    } else {
        ExploreConfig {
            target_distinct: 40,
            max_schedules: 48,
            ..ExploreConfig::new(name, seed)
        }
    };
    let report = explore(&cfg, scenario);
    if report.controlled {
        assert!(
            report.distinct_schedules >= 1000,
            "scenario {name}: only {} distinct schedules explored \
             (the scenario needs more scheduling points)",
            report.distinct_schedules
        );
    }
    // `explore` already panics on a cyclic union graph; assert here too so
    // the invariant is visible at the scenario level and survives refactors
    // of the explorer's internal check.
    assert!(
        report.lock_graph.cycle().is_none(),
        "scenario {name}: lock-acquisition union graph has a cycle: {:?}",
        report.lock_graph
    );
    report
}

// ---------------------------------------------------------------------------
// Scenario 1: statistics accounting across shards.
// ---------------------------------------------------------------------------

/// Two threads read overlapping page sets routed across both shards. In
/// every interleaving the per-shard counters must add up: no stat update
/// may be lost, and physical reads must equal misses exactly (capacity
/// covers all pages, so each page is fetched once by whichever thread
/// arrives first and hit by the other).
fn stats_scenario() {
    let (disk, ids) = disk_with_pages(8);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 2);

    let a = pool.clone();
    let ids_a = ids.clone();
    let ta = thread::spawn(move || {
        for (i, &id) in ids_a[..6].iter().enumerate() {
            a.fetch(id, AccessContext::query(QueryId::new(i as u64)))
                .unwrap();
        }
    });
    let b = pool.clone();
    let ids_b = ids.clone();
    let tb = thread::spawn(move || {
        for (i, &id) in ids_b[2..].iter().enumerate() {
            b.fetch(id, AccessContext::query(QueryId::new(100 + i as u64)))
                .unwrap();
        }
    });
    ta.join();
    tb.join();

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 12, "a read was lost");
    assert_eq!(
        stats.hits + stats.misses,
        stats.logical_reads,
        "hit/miss accounting diverged from logical reads"
    );
    // Two threads can miss on the same page concurrently; the shard lock
    // serializes the misses, so the second finds the frame and hits.
    assert_eq!(
        pool.io_stats().reads,
        stats.misses,
        "every counted miss must be exactly one physical read"
    );
    assert!(pool.resident() <= pool.capacity());
    assert_eq!(pool.live_guards(), 0, "every guard must have been dropped");
}

#[test]
fn concurrent_reads_never_lose_stat_updates() {
    explore_scenario("stats-not-lost", 0x5747_5f4c_4f53_5431, stats_scenario);
}

// ---------------------------------------------------------------------------
// Scenario 2: guard pin balance.
// ---------------------------------------------------------------------------

/// Three threads repeatedly fetch and drop a read guard on the same frame.
/// While any thread's guard is live, direct store access must be refused
/// with a typed error, and after all threads finish the live-guard count
/// must be exactly zero — proven by direct access succeeding again.
fn guard_balance_scenario() {
    let mut disk = DiskManager::new();
    let id = disk
        .allocate(meta(), Bytes::from_static(b"pinned"))
        .unwrap();
    let shared = ShardedBuffer::new(disk, PolicyKind::Lru, 4, 1);
    drop(shared.fetch(id, AccessContext::default()).unwrap()); // make the frame resident

    let handles: Vec<_> = (0..3)
        .map(|_| {
            let s = shared.clone();
            thread::spawn(move || {
                for _ in 0..4 {
                    let guard = s.fetch(id, AccessContext::default()).unwrap();
                    assert_eq!(guard.payload.as_ref(), b"pinned");
                    // This thread's own guard is live, so the count the
                    // gate reports can never be below one.
                    let err = s.with_store(|_| ()).unwrap_err();
                    assert!(
                        matches!(err, StorageError::GuardsOutstanding(n) if n >= 1),
                        "direct store access must be refused while guards live: {err:?}"
                    );
                    drop(guard);
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }

    assert_eq!(
        shared.live_guards(),
        0,
        "guard count must return to exactly zero after balanced use"
    );
    shared.with_store(|_| ()).unwrap();
}

#[test]
fn balanced_guard_use_never_leaks_pins() {
    explore_scenario(
        "guard-balance",
        0x5049_4e5f_424c_414e,
        guard_balance_scenario,
    );
}

/// One thread holds a read guard on a frame while another churns enough
/// pages through a one-shard, two-frame pool that every admission needs a
/// victim. The pinned frame must never be evicted out from under the
/// guard: its payload stays intact in every interleaving. Guards are
/// `!Send`, so the holder fetches, waits out the churn and checks the
/// page all on its own stack.
fn guard_eviction_scenario() {
    let (disk, ids) = disk_with_pages(8);
    // One shard, two frames: the churn constantly needs a victim and the
    // only other frame is pinned.
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
    let pinned = ids[0];

    let churn = pool.clone();
    let cids = ids.clone();
    let tc = thread::spawn(move || {
        for (i, &id) in cids[1..].iter().enumerate() {
            churn
                .fetch(id, AccessContext::query(QueryId::new(i as u64)))
                .unwrap();
        }
    });
    let holder = pool.clone();
    let th = thread::spawn(move || {
        let guard = holder.fetch(pinned, AccessContext::default()).unwrap();
        assert_eq!(guard.payload.as_ref(), &[0u8]);
        // Probe while the churn runs: each probe takes the shard lock, so
        // the schedules interleave it with the churn's evictions.
        for _ in 0..3 {
            assert!(holder.contains(pinned), "a pinned frame was evicted");
        }
        tc.join();
        assert!(holder.contains(pinned), "a pinned frame was evicted");
        assert_eq!(
            guard.payload.as_ref(),
            &[0u8],
            "the pinned frame must survive eviction churn"
        );
    });
    th.join();

    assert_eq!(pool.live_guards(), 0);
    assert!(pool.resident() <= pool.capacity());
}

#[test]
fn read_guards_pin_frames_against_concurrent_eviction() {
    explore_scenario(
        "guard-eviction",
        0x4755_5244_5f45_5649,
        guard_eviction_scenario,
    );
}

/// A holder pins pages of a 2-shard, 4-frame SLRU 25 % pool (two frames
/// and one candidate per shard) and drops each guard while a churner fills
/// both shards, so guard drops race evictions. An eviction that reads a
/// live-guard count of zero names its victim without checking pins; that
/// is sound only because a guard releases its pin before its live-guard
/// tick. `evict_one` debug-asserts that its victim is unpinned, so a drop
/// in the other order fails here, and a held page must stay resident.
fn guard_drop_scenario() {
    let (disk, ids) = disk_with_pages(10);
    let pool = ShardedBuffer::new(disk, PolicyKind::PAPER_SLRU, 4, 2);

    let holder = pool.clone();
    let held = ids[..4].to_vec();
    let th = thread::spawn(move || {
        for (i, &id) in held.iter().enumerate() {
            let ctx = AccessContext::query(QueryId::new(i as u64));
            let guard = holder.fetch(id, ctx).unwrap();
            assert!(holder.contains(id), "a pinned frame was evicted");
            assert_eq!(guard.payload.as_ref(), &[i as u8]);
            drop(guard);
        }
    });
    let churn = pool.clone();
    let cids = ids[4..].to_vec();
    let tc = thread::spawn(move || {
        for (i, &id) in cids.iter().enumerate() {
            churn
                .fetch(id, AccessContext::query(QueryId::new(100 + i as u64)))
                .unwrap();
        }
    });
    th.join();
    tc.join();

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 10, "a read was lost");
    assert_eq!(pool.io_stats().reads, stats.misses);
    assert!(pool.resident() <= pool.capacity());
    assert_eq!(pool.live_guards(), 0);
}

#[test]
fn guard_drops_racing_evictions_never_free_a_pinned_frame() {
    explore_scenario("guard-drop", 0x4452_4f50_5f45_5649, guard_drop_scenario);
}

// ---------------------------------------------------------------------------
// Scenario 3: concurrent misses on one page.
// ---------------------------------------------------------------------------

/// Three threads miss on the same non-resident page at once. Whatever the
/// interleaving, the concurrent misses must cost exactly one store read:
/// the first thread through the shard lock reads and admits the page, and
/// every later one finds it resident and hits. The page is never evicted
/// (capacity covers the working set), so the count is exact, not a bound.
fn one_page_scenario() {
    let (disk, ids) = disk_with_pages(4);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 4, 2);
    let hot = ids[0];

    let handles: Vec<_> = (0..3u64)
        .map(|t| {
            let p = pool.clone();
            thread::spawn(move || {
                let guard = p.fetch(hot, AccessContext::query(QueryId::new(t))).unwrap();
                assert_eq!(guard.payload.as_ref(), &[0u8]);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 3);
    assert_eq!(
        pool.io_stats().reads,
        1,
        "concurrent misses on one page must cost exactly one store read"
    );
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 2),
        "the page misses once; readers that found it resident count as hits"
    );
    assert_eq!(pool.live_guards(), 0);
}

#[test]
fn concurrent_misses_are_deduplicated_to_one_store_read() {
    explore_scenario("one-page-misses", 0x534e_474c_5f46_4c54, one_page_scenario);
}

/// Two threads fetch page 0 of a one-shard, one-frame pool while a third
/// churns pages 1–3 through the same frame, so page 0's admission can be
/// evicted between any two of its readers. Whatever the interleaving,
/// every counted miss is exactly one store read: no miss is ever served
/// from a copy another request fetched.
fn miss_is_a_read_scenario() {
    let (disk, ids) = disk_with_pages(4);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 1, 1);

    let mut handles: Vec<_> = (0..2u64)
        .map(|t| {
            let p = pool.clone();
            let id = ids[0];
            thread::spawn(move || {
                let guard = p.fetch(id, AccessContext::query(QueryId::new(t))).unwrap();
                assert_eq!(guard.payload.as_ref(), &[0u8]);
            })
        })
        .collect();
    let churn = pool.clone();
    let cids = ids.clone();
    handles.push(thread::spawn(move || {
        for (i, &id) in cids[1..].iter().enumerate() {
            churn
                .fetch(id, AccessContext::query(QueryId::new(10 + i as u64)))
                .unwrap();
        }
    }));
    for h in handles {
        h.join();
    }

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 5);
    assert_eq!(
        pool.io_stats().reads,
        stats.misses,
        "every counted miss must be exactly one store read"
    );
    assert_eq!(pool.live_guards(), 0);
}

#[test]
fn every_counted_miss_is_one_store_read() {
    explore_scenario(
        "miss-is-a-read",
        0x4d49_5353_5f52_4541,
        miss_is_a_read_scenario,
    );
}

// ---------------------------------------------------------------------------
// Scenarios 4–7: write-ahead ordering, observed from inside the store.
// ---------------------------------------------------------------------------

/// A [`DiskManager`] wrapper that asserts, on *every* store write, that the
/// shared WAL already holds an image of the exact page content being
/// written. Placed under a pool, it turns the "log before write-back"
/// protocol into a checkable invariant at the only place it can be
/// violated: the moment data hits the store.
struct WalOrderProbe {
    disk: DiskManager,
    wal: SharedWal,
}

impl WalOrderProbe {
    fn assert_logged(&self, page: &Page) {
        let (records, _) = self.wal.lock().scan();
        let logged = records.iter().any(|rec| {
            matches!(rec, WalRecord::Image { page: img, .. }
                if img.id == page.id && img.payload == page.payload)
        });
        assert!(
            logged,
            "WAL image must precede store write for {:?}",
            page.id
        );
    }
}

impl PageStore for WalOrderProbe {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.disk.read(id, ctx)
    }

    fn write(&mut self, pg: Page) -> Result<()> {
        self.assert_logged(&pg);
        self.disk.write(pg)
    }

    fn allocate(&mut self, m: PageMeta, payload: Bytes) -> Result<PageId> {
        self.disk.allocate(m, payload)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.disk.free(id)
    }

    fn page_count(&self) -> usize {
        self.disk.page_count()
    }
}

impl ConcurrentPageStore for WalOrderProbe {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.disk.read_shared(id, ctx)
    }

    fn io_stats(&self) -> IoStats {
        self.disk.io_stats()
    }

    fn reset_io_stats(&self) {
        self.disk.reset_io_stats()
    }
}

/// Two threads issue buffered writes into a pool whose shards hold a single
/// frame each, so nearly every write evicts a dirty predecessor and
/// write-back races with logging; each thread then writes one of its pages
/// through with a fresh payload. The probe asserts WAL-before-store on
/// each of those write-backs, the write-throughs and the explicit flushes.
fn wal_order_scenario() {
    let (disk, ids) = disk_with_pages(8);
    let wal = Wal::shared(WalConfig::default());
    let probe = WalOrderProbe {
        disk,
        wal: wal.clone(),
    };
    // capacity == shards: one frame per shard, maximal dirty-eviction churn.
    let pool = ShardedBuffer::new(probe, PolicyKind::Lru, 2, 2);
    pool.attach_wal(wal.clone());

    let wa = pool.clone();
    let ids_a = ids.clone();
    let ta = thread::spawn(move || {
        for (i, &id) in ids_a[..4].iter().enumerate() {
            wa.write_buffered(page(id, 10 + i as u8)).unwrap();
        }
        wa.write(page(ids_a[0], 30)).unwrap();
    });
    let wb = pool.clone();
    let ids_b = ids.clone();
    let tb = thread::spawn(move || {
        for (i, &id) in ids_b[4..].iter().enumerate() {
            wb.write_buffered(page(id, 20 + i as u8)).unwrap();
        }
        wb.write(page(ids_b[4], 40)).unwrap();
        wb.flush().unwrap();
    });
    ta.join();
    tb.join();

    pool.flush().unwrap();
    pool.with_store(|probe| {
        for (i, &id) in ids.iter().enumerate() {
            let tag = match i {
                0 => 30,
                4 => 40,
                1..4 => 10 + i as u8,
                _ => 20 + (i - 4) as u8,
            };
            assert_eq!(
                probe.disk.peek(id).unwrap().payload.as_ref(),
                &[tag],
                "write to {id:?} was lost"
            );
        }
    })
    .unwrap();
}

#[test]
fn dirty_evictions_always_log_before_store_write() {
    explore_scenario(
        "wal-before-store",
        0x5741_4c5f_4f52_4452,
        wal_order_scenario,
    );
}

/// The deliberately-broken mutation: the store write happens *before* the
/// WAL append (the protocol with its two halves swapped). The probe must
/// catch it under every schedule, and the failure must surface through
/// `explore` as a plain panic so `#[should_panic]` composes.
fn broken_write_scenario() {
    let mut disk = DiskManager::new();
    let id = disk.allocate(meta(), Bytes::from_static(b"v1")).unwrap();
    let wal = Wal::shared(WalConfig::default());
    let mut probe = WalOrderProbe {
        disk,
        wal: wal.clone(),
    };
    let broken = page(id, 0xBB);
    let t = thread::spawn(move || {
        // The mutation under test: write-back first, log second. The probe
        // inside `write` must reject it.
        probe.write(broken.clone()).unwrap();
        wal.lock().append_image(&broken).unwrap();
    });
    t.join();
}

#[test]
#[should_panic(expected = "WAL image must precede store write")]
fn store_write_before_wal_append_is_caught() {
    let cfg = ExploreConfig {
        target_distinct: 8,
        max_schedules: 8,
        ..ExploreConfig::new("broken-wal-order", 0x4252_4f4b_454e_0001)
    };
    explore(&cfg, broken_write_scenario);
}

/// A checkpoint races with a concurrent flush and more buffered writes.
/// Afterwards the WAL is replayed onto a snapshot of the store taken
/// *as-is* (dirty frames unflushed — a simulated crash): every page must
/// come back at its last logged image. If any interleaving let the
/// checkpoint record a redo horizon above a still-dirty frame's first
/// image, recovery would skip that image and this check would see stale
/// data.
fn checkpoint_scenario() {
    let (disk, ids) = disk_with_pages(6);
    let wal = Wal::shared(WalConfig::default());
    let probe = WalOrderProbe {
        disk,
        wal: wal.clone(),
    };
    let pool = ShardedBuffer::new(probe, PolicyKind::Lru, 6, 2);
    pool.attach_wal(wal.clone());
    for (i, &id) in ids[..4].iter().enumerate() {
        pool.write_buffered(page(id, 10 + i as u8)).unwrap();
    }

    let writer = pool.clone();
    let wids = ids.clone();
    let ta = thread::spawn(move || {
        writer.write_buffered(page(wids[4], 50)).unwrap();
        writer.flush().unwrap();
        // This frame stays dirty past the end of the scenario: the last
        // checkpoint's horizon must still cover it.
        writer.write_buffered(page(wids[5], 60)).unwrap();
    });
    let ck = pool.clone();
    let tb = thread::spawn(move || {
        ck.checkpoint().unwrap();
        ck.checkpoint().unwrap();
    });
    // A reader keeps both shards busy while the flush and the checkpoints
    // race, widening the interleaving space without touching the invariant.
    let reader = pool.clone();
    let rids = ids.clone();
    let tc = thread::spawn(move || {
        for (i, &id) in rids[..4].iter().enumerate() {
            reader
                .fetch(id, AccessContext::query(QueryId::new(200 + i as u64)))
                .unwrap();
        }
    });
    ta.join();
    tb.join();
    tc.join();

    assert_recovery_matches_last_images(&pool, &wal, &ids);
}

#[test]
fn checkpoint_horizon_never_abandons_a_dirty_frame() {
    explore_scenario(
        "checkpoint-horizon",
        0x434b_5054_5f48_5a4e,
        checkpoint_scenario,
    );
}

/// Replays the WAL onto an as-is snapshot of the store (dirty frames
/// unflushed — a simulated crash) and checks that every logged page comes
/// back at its last logged image. Shared tail of the checkpoint and
/// eviction scenarios: both race write-back against the redo horizon.
fn assert_recovery_matches_last_images(
    pool: &ShardedBuffer<WalOrderProbe>,
    wal: &SharedWal,
    ids: &[PageId],
) {
    let (records, _) = wal.lock().scan();
    let mut last_image: HashMap<PageId, Page> = HashMap::new();
    for rec in &records {
        if let WalRecord::Image { page, .. } = rec {
            last_image.insert(page.id, page.clone());
        }
    }
    let mut snapshot = pool
        .with_store(|probe| MapStore::snapshot_of(&probe.disk, ids))
        .unwrap();
    wal.lock().recover_into(&mut snapshot).unwrap();
    for (id, img) in &last_image {
        assert_eq!(
            snapshot.get(*id).payload,
            img.payload,
            "recovery must restore {id:?} to its last logged image — \
             a checkpoint horizon abandoned a dirty frame"
        );
    }
}

/// Dirty evictions race a checkpoint and fresh buffered writes. Every
/// frame of a two-shard, four-frame pool starts dirty, and a reader's cold
/// fetches must evict them: eviction is the one partial drain of the dirty
/// set, writing a victim back under its shard lock before the frame leaves
/// the set the checkpoint's horizon is taken over. So in every
/// interleaving (a) the WAL-before-store probe holds on each eviction
/// write-back, (b) a crash replay onto the as-is store restores every page
/// to its last logged image, and (c) at least one dirty frame was evicted.
fn eviction_scenario() {
    let (disk, ids) = disk_with_pages(16);
    let wal = Wal::shared(WalConfig::default());
    let probe = WalOrderProbe {
        disk,
        wal: wal.clone(),
    };
    let pool = ShardedBuffer::new(probe, PolicyKind::Lru, 4, 2);
    pool.attach_wal(wal.clone());
    // Per shard: two pages start dirty, two more are the reader's cold
    // fetches (which must evict both), one is the writer's.
    let mut by_shard = vec![Vec::new(); 2];
    for &id in &ids {
        by_shard[pool.shard_of(id)].push(id);
    }
    assert!(by_shard.iter().all(|s| s.len() >= 5), "skewed routing");
    for (s, pages) in by_shard.iter().enumerate() {
        for (i, &id) in pages[..2].iter().enumerate() {
            pool.write_buffered(page(id, 100 + (2 * s + i) as u8))
                .unwrap();
        }
    }
    assert_eq!(pool.dirty_count(), pool.capacity(), "every frame dirty");

    let reader = pool.clone();
    let cold: Vec<PageId> = (2..4)
        .flat_map(|i| [by_shard[0][i], by_shard[1][i]])
        .collect();
    let tr = thread::spawn(move || {
        for (i, &id) in cold.iter().enumerate() {
            reader
                .fetch(id, AccessContext::query(QueryId::new(300 + i as u64)))
                .unwrap();
        }
    });
    let ck = pool.clone();
    let tc = thread::spawn(move || {
        ck.checkpoint().unwrap();
    });
    let writer = pool.clone();
    let fresh = [by_shard[0][4], by_shard[1][4]];
    let tw = thread::spawn(move || {
        writer.write_buffered(page(fresh[0], 150)).unwrap();
        writer.write_buffered(page(fresh[1], 160)).unwrap();
    });
    tr.join();
    tc.join();
    tw.join();

    assert_recovery_matches_last_images(&pool, &wal, &ids);
    let stats = pool.stats();
    assert!(
        stats.writebacks >= 1 && stats.evictions >= 1,
        "the reader's cold fetches must evict a dirty frame: {stats:?}"
    );
}

#[test]
fn dirty_evictions_respect_the_checkpoint_horizon() {
    explore_scenario("eviction-horizon", 0x4556_4943_545f_484e, eviction_scenario);
}

/// Minimal in-memory [`PageStore`] used as the crash-recovery target: it
/// starts as a verbatim snapshot of the disk (including unflushed staleness)
/// and receives the WAL replay.
struct MapStore {
    pages: HashMap<PageId, Page>,
    next_id: u64,
}

impl MapStore {
    fn snapshot_of(disk: &DiskManager, ids: &[PageId]) -> Self {
        let pages = ids
            .iter()
            .map(|&id| (id, disk.peek(id).unwrap().clone()))
            .collect();
        MapStore {
            pages,
            next_id: ids.iter().map(|id| id.raw()).max().unwrap_or(0) + 1,
        }
    }

    fn get(&self, id: PageId) -> &Page {
        self.pages.get(&id).unwrap()
    }
}

impl PageStore for MapStore {
    fn read(&mut self, id: PageId, _ctx: AccessContext) -> Result<Page> {
        self.pages
            .get(&id)
            .cloned()
            .ok_or(StorageError::PageNotFound(id))
    }

    fn write(&mut self, pg: Page) -> Result<()> {
        self.pages.insert(pg.id, pg);
        Ok(())
    }

    fn allocate(&mut self, m: PageMeta, payload: Bytes) -> Result<PageId> {
        let id = PageId::new(self.next_id);
        self.next_id += 1;
        self.pages.insert(id, Page::new(id, m, payload)?);
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.pages
            .remove(&id)
            .map(|_| ())
            .ok_or(StorageError::PageNotFound(id))
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }
}

// ---------------------------------------------------------------------------
// Determinism of the explorer itself.
// ---------------------------------------------------------------------------

#[test]
fn same_seed_replays_the_same_schedules() {
    let cfg = ExploreConfig {
        target_distinct: 64,
        max_schedules: 128,
        artifact_dir: None,
        ..ExploreConfig::new("determinism", 0x5345_4544_0000_0001)
    };
    let a = explore(&cfg, stats_scenario);
    let b = explore(&cfg, stats_scenario);
    assert_eq!(
        a, b,
        "two explorations with the same seed must run identical schedules"
    );

    let other = explore(
        &ExploreConfig {
            seed: cfg.seed ^ 0xFFFF,
            ..cfg.clone()
        },
        stats_scenario,
    );
    assert_ne!(
        a.digest, other.digest,
        "a different seed should explore a different schedule sequence"
    );
}

#[test]
fn page_id_routing_matches_between_runs() {
    // The schedule explorer relies on scenarios being pure functions of
    // their inputs; shard routing is the one hash involved, so pin down
    // that it is deterministic (no RandomState sneaking in).
    let (disk, ids) = disk_with_pages(16);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 16, 2);
    for &id in &ids {
        pool.fetch(id, AccessContext::default()).unwrap();
    }
    let first = pool.per_shard(BufferManager::stats);
    let (disk, _) = disk_with_pages(16);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 16, 2);
    for &id in &ids {
        pool.fetch(id, AccessContext::default()).unwrap();
    }
    assert_eq!(first, pool.per_shard(BufferManager::stats));
}

// ---------------------------------------------------------------------------
// Scenario 9: expert-arena mixer under 2-shard concurrency.
// ---------------------------------------------------------------------------

/// Two threads hammer overlapping page sets through a 2-shard Arena pool
/// with eviction pressure (12 pages, 8-frame pool → 4 frames per shard).
/// Whatever the interleaving, each shard's mixer must end in a lawful
/// state: weights strictly positive and summing to one, the leader the
/// argmax weight, every expert's ghost cache bounded by the shard
/// capacity, and the pool-wide retained history within the documented
/// `3 × roster × capacity` bound. The usual pool invariants (no lost
/// reads, no leaked guards) must hold too.
fn arena_scenario() {
    let (disk, ids) = disk_with_pages(12);
    let pool = ShardedBuffer::new(disk, PolicyKind::Arena, 8, 2);

    let a = pool.clone();
    let ids_a = ids.clone();
    let ta = thread::spawn(move || {
        for (i, &id) in ids_a[..9].iter().enumerate() {
            a.fetch(id, AccessContext::query(QueryId::new(i as u64)))
                .unwrap();
        }
    });
    let b = pool.clone();
    let ids_b = ids.clone();
    let tb = thread::spawn(move || {
        for (i, &id) in ids_b[3..].iter().enumerate() {
            b.fetch(id, AccessContext::query(QueryId::new(100 + i as u64)))
                .unwrap();
        }
    });
    ta.join();
    tb.join();

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 18, "a read was lost");
    assert_eq!(stats.hits + stats.misses, stats.logical_reads);
    assert!(pool.resident() <= pool.capacity());
    assert_eq!(pool.live_guards(), 0, "every guard must have been dropped");

    let shard_caps: Vec<usize> = vec![4, 4]; // 8 frames split over 2 shards
    let states = pool.per_shard(|shard| shard.policy().arena_state());
    assert_eq!(states.len(), 2);
    let mut roster_len = 0;
    for (shard, (state, cap)) in states.iter().zip(&shard_caps).enumerate() {
        let state = state
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard}: Arena pool must expose a mixer state"));
        roster_len = state.experts.len();
        let sum: f64 = state.weights().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "shard {shard}: weights sum to {sum}, not 1"
        );
        assert!(
            state.weights().iter().all(|&w| w > 0.0),
            "shard {shard}: fixed-share must keep every weight positive"
        );
        let argmax = state
            .weights()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(
            state.leader, argmax,
            "shard {shard}: leader must be the argmax weight"
        );
        for e in &state.experts {
            assert!(
                e.ghost_len <= *cap,
                "shard {shard}: expert {} ghost cache {} exceeds shard capacity {cap}",
                e.label,
                e.ghost_len
            );
        }
    }
    let retained: usize = pool
        .per_shard(|shard| shard.policy().retained_history())
        .into_iter()
        .sum();
    assert!(
        retained <= 3 * roster_len * pool.capacity(),
        "retained history {retained} exceeds the documented 3*roster*capacity bound"
    );
}

#[test]
fn arena_mixer_state_is_lawful_under_concurrency() {
    explore_scenario("arena-mixer", 0x4152_454e_415f_4d58, arena_scenario);
}

// ---------------------------------------------------------------------------
// Scenario 10: batched fetches (the serving front end's access pattern).
// ---------------------------------------------------------------------------

/// Two threads issue overlapping `fetch_batch` calls — with duplicate ids
/// inside one batch — against a 2-shard pool under eviction pressure (10
/// pages, 6 frames). The batched path must behave exactly like the
/// sequential one in every interleaving: every id gets its response (one
/// outcome per id, in input order), every guard is returned and dropped
/// (pin balance restored), and no accounting is lost (hits + misses equals
/// logical reads; each counted miss is exactly one physical read, because
/// a batch holds its shards from its first probe until it returns).
/// Between its batches thread b also calls `with_store`, which locks every
/// shard in ascending order, so the union lock graph holds both multi-shard
/// acquisitions: a batch taking its shards in any other order is a cycle.
fn batch_scenario() {
    let (disk, ids) = disk_with_pages(10);
    let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 6, 2);

    let a = pool.clone();
    let ids_a = ids.clone();
    let ta = thread::spawn(move || {
        // Two batches; the second repeats an id within the batch.
        for (q, slots) in [vec![0, 1, 2, 3, 4], vec![2, 7, 2, 8]]
            .into_iter()
            .enumerate()
        {
            let batch: Vec<PageId> = slots.iter().map(|&s| ids_a[s]).collect();
            let outcomes = a.fetch_batch(&batch, AccessContext::query(QueryId::new(q as u64)));
            assert_eq!(outcomes.len(), batch.len(), "a response was lost");
            for (slot_result, &slot) in outcomes.iter().zip(&slots) {
                let guard = &slot_result
                    .as_ref()
                    .expect("healthy store: no slot may fail")
                    .guard;
                assert_eq!(guard.id, ids_a[slot], "responses must stay in input order");
                assert_eq!(guard.payload.as_ref(), &[slot as u8]);
            }
        }
    });
    let b = pool.clone();
    let ids_b = ids.clone();
    let tb = thread::spawn(move || {
        let first: Vec<PageId> = ids_b[3..9].to_vec();
        let second = vec![ids_b[9], ids_b[0], ids_b[9]];
        for (q, batch) in [first, second].into_iter().enumerate() {
            if q > 0 {
                // Refused while thread a holds a guard; only its locks matter.
                let _ = b.with_store(|_| ());
            }
            let outcomes =
                b.fetch_batch(&batch, AccessContext::query(QueryId::new(100 + q as u64)));
            assert_eq!(outcomes.len(), batch.len(), "a response was lost");
            for (slot_result, &id) in outcomes.iter().zip(&batch) {
                let guard = &slot_result
                    .as_ref()
                    .expect("healthy store: no slot may fail")
                    .guard;
                assert_eq!(guard.id, id, "responses must stay in input order");
            }
        }
    });
    ta.join();
    tb.join();

    let stats = pool.stats();
    assert_eq!(stats.logical_reads, 18, "a batched read was lost");
    assert_eq!(
        stats.hits + stats.misses,
        stats.logical_reads,
        "hit/miss accounting diverged from logical reads"
    );
    assert_eq!(
        pool.io_stats().reads,
        stats.misses,
        "every counted miss must be exactly one physical read"
    );
    assert!(pool.resident() <= pool.capacity());
    assert_eq!(
        pool.live_guards(),
        0,
        "every batch guard must have been dropped — pin balance restored"
    );
}

#[test]
fn batched_fetches_preserve_pool_invariants_under_concurrency() {
    explore_scenario("batch-serve", 0x4241_5443_485f_5356, batch_scenario);
}

// ---------------------------------------------------------------------------
// Scenario 11: the serve loop's reads against a permanently dead page.
// ---------------------------------------------------------------------------

/// Two threads drive the serve loop's read pattern against one pool with
/// one permanently dead page: each round, a batched fetch of each of two
/// four-page partitions (the dead page is in partition 0), then a
/// resident-only read of every page. In every interleaving: each failed
/// slot is a give-up typed to its own page, the dead page is never
/// resident, the pool's give-up count equals the failed slots callers saw,
/// hit/miss accounting covers every logical read, every store read is a
/// counted miss, and no pin leaks.
fn dead_page_scenario() {
    let (disk, ids) = disk_with_pages(8);
    let store = FaultyStore::new(disk, FaultConfig::reliable());
    store.mark_permanent(ids[1]);
    let pool = ShardedBuffer::new(store, PolicyKind::Lru, 8, 2);
    let err_slots = std::sync::Arc::new(ssync::AtomicU64::new(0));

    let worker = |t: u64| {
        let pool = pool.clone();
        let ids = ids.clone();
        let err_slots = err_slots.clone();
        move || {
            for round in 0..5u64 {
                let ctx = AccessContext::query(QueryId::new(t * 100 + round));
                for pages in ids.chunks(4) {
                    let outcomes = pool.fetch_batch(pages, ctx);
                    assert_eq!(outcomes.len(), pages.len(), "a slot was lost");
                    for (slot, &id) in outcomes.iter().zip(pages) {
                        match slot {
                            Ok(served) => assert_eq!(served.guard.id, id),
                            Err(e) => {
                                assert_eq!(e.id, id, "failure typed to the wrong page");
                                assert!(e.is_give_up(), "dead page must be a give-up");
                                err_slots.fetch_add(1, ssync::Ordering::SeqCst);
                            }
                        }
                    }
                }
                // Resident-only reads never consult the store, so the dead
                // page yields `None`, not an error.
                for &id in &ids {
                    if let Some(guard) = pool.fetch_resident(id, ctx) {
                        assert_eq!(guard.id, id);
                        assert_ne!(id, ids[1], "the dead page was admitted");
                    }
                }
            }
        }
    };
    let ta = thread::spawn(worker(0));
    let tb = thread::spawn(worker(1));
    ta.join();
    tb.join();

    let stats = pool.stats();
    assert_eq!(
        stats.hits + stats.misses,
        stats.logical_reads,
        "hit/miss accounting diverged from logical reads"
    );
    assert_eq!(
        stats.give_ups,
        err_slots.load(ssync::Ordering::SeqCst),
        "give-up accounting must match the failures callers observed"
    );
    assert!(pool.io_stats().reads <= stats.misses);
    assert_eq!(pool.live_guards(), 0, "pin balance restored");
}

#[test]
fn dead_page_reads_keep_pool_invariants_under_concurrency() {
    explore_scenario("dead-page-serve", 0x4445_4144_5f50_4147, dead_page_scenario);
}

// ---------------------------------------------------------------------------
// Scenario 8: the union lock graph catches inversions no schedule can
// deadlock on.
// ---------------------------------------------------------------------------

/// Two workers take a shard-stand-in mutex and a store-stand-in rwlock in
/// opposite orders — but strictly one after the other (joined in between),
/// so no single schedule can ever deadlock. Only the union of the
/// lock-acquisition graphs across schedules exposes the inversion; the
/// explorer must panic with a lock-order cycle and write a seed-bearing
/// artifact.
fn sequential_inversion_scenario() {
    let shard = std::sync::Arc::new(ssync::Mutex::new(0u32));
    let store = std::sync::Arc::new(ssync::RwLock::new(0u32));

    let (s1, t1) = (std::sync::Arc::clone(&shard), std::sync::Arc::clone(&store));
    thread::spawn(move || {
        let _shard = s1.lock();
        let _store = t1.write();
    })
    .join();

    let (s2, t2) = (std::sync::Arc::clone(&shard), std::sync::Arc::clone(&store));
    thread::spawn(move || {
        let _store = t2.write();
        let _shard = s2.lock();
    })
    .join();
}

#[test]
#[should_panic(expected = "lock-order cycle")]
fn union_lock_graph_flags_sequential_inversion() {
    // Not `explore_scenario`: the explorer panics before returning a
    // report, and the plain-build sweep budget is all this fixture needs.
    explore(
        &ExploreConfig {
            target_distinct: 40,
            max_schedules: 48,
            artifact_dir: Some(std::path::PathBuf::from(
                "target/schedule-artifacts/interleave-fixture",
            )),
            ..ExploreConfig::new("sequential-inversion", 0x1217)
        },
        sequential_inversion_scenario,
    );
}
