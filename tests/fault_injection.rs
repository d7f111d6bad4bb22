//! Fault-injection suite: the buffer stack under a misbehaving store.
//!
//! The fault schedule is a pure function of the `FaultyStore` seed, so
//! every failure here is reproducible by re-running with the same seed.
//! CI sweeps `ASB_FAULT_SEED` over a fixed matrix; locally the suite runs
//! with seed 1 unless the variable is set. On failure, the chaos-matrix
//! test writes the offending trace to `target/fault-artifacts/` so the
//! run can be replayed offline (`trace replay <file> --fault-rate ...`).

use asb::buffer::{BufferManager, PolicyKind, ShardedBuffer, SpatialCriterion};
use asb::exp::Trace;
use asb::geom::{Rect, SpatialStats};
use asb::storage::{
    AccessContext, DiskManager, FaultConfig, FaultyStore, PageId, PageMeta, PageStore, QueryId,
    RetryPolicy, StorageError,
};
use asb::workload::{DatasetKind, QuerySetSpec, Scale};
use bytes::Bytes;
use std::path::Path;

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
    buf.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        base_backoff_ms: 0.1,
        backoff_multiplier: 2.0,
    });
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
    assert!(buf.simulated_backoff_ms() > 0.0, "retries accrue backoff");
    assert!(store.fault_stats().read_faults > 0);
}

/// Corrupted payloads are detected by checksum, counted, and refetched —
/// the caller never observes damaged bytes.
#[test]
fn corruption_is_detected_and_refetched() {
    let (disk, ids) = build_disk(16);
    let mut store = FaultyStore::new(disk, FaultConfig::corrupting(fault_seed(), 0.3));
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);
    buf.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        ..RetryPolicy::default()
    });
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

/// When the store never recovers, the retry loop gives up with a typed
/// error that names the page and the spent budget — not a panic.
#[test]
fn hopeless_faults_surface_a_typed_give_up() {
    let (disk, ids) = build_disk(4);
    let mut store = FaultyStore::new(disk, FaultConfig::transient(fault_seed(), 1.0));
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    buf.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 0.5,
        backoff_multiplier: 2.0,
    });
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
    buf.set_retry_policy(RetryPolicy {
        max_attempts: 0,
        base_backoff_ms: 1.0,
        backoff_multiplier: 2.0,
    });
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
    buf.set_retry_policy(RetryPolicy::none());

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
        buf.set_retry_policy(RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        });
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
        PolicyKind::Slru {
            candidate_fraction: 0.25,
            criterion: SpatialCriterion::Area,
        },
        PolicyKind::Asb,
    ] {
        let out = trace
            .replay_with_faults(
                policy,
                8,
                FaultConfig::chaos(fault_seed(), 0.1),
                RetryPolicy {
                    max_attempts: 10,
                    ..RetryPolicy::default()
                },
            )
            .expect("fault replay");
        assert_eq!(out.wrong_payloads, 0, "{policy:?}: corruption served");
        assert_eq!(
            out.stats.logical_reads,
            trace.accesses.len() as u64,
            "{policy:?}: accesses lost"
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
    pool.set_retry_policy(RetryPolicy {
        max_attempts: 16,
        base_backoff_ms: 0.1,
        backoff_multiplier: 2.0,
    });

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
    pool.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        base_backoff_ms: 0.1,
        backoff_multiplier: 2.0,
    });
    for round in 0..40u64 {
        let outcomes = pool.fetch_batch(&ids, ctx(round));
        assert_eq!(outcomes.len(), ids.len());
        for (slot, &id) in outcomes.iter().zip(&ids) {
            let (guard, _hit) = slot
                .as_ref()
                .expect("transient faults must be absorbed by per-page retries");
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
            let (guard, hit) = slot
                .as_ref()
                .expect("healthy sibling slots must not be poisoned by a failing page");
            assert_eq!(guard.id, id);
            assert!(!hit, "cold pool: every delivered slot is a miss");
            assert!(guard.verify_checksum());
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
