//! Crash-recovery suite: the WAL-attached write-back buffer under
//! simulated process kills.
//!
//! The umbrella test sweeps **every** durable I/O point of a golden-trace
//! workload — in both clean-kill and torn-write variants — and asserts
//! that recovery restores exactly the committed prefix of the crash-free
//! run (an update is committed once its WAL image append survived). The
//! crash schedule is a pure function of the workload seed, so every
//! failure is reproducible; CI sweeps `ASB_CRASH_SEED` over a fixed
//! matrix. Locally the sweep covers a 250-access prefix of each trace;
//! set `ASB_CRASH_FULL=1` for the full trace. On divergence the trace
//! and surviving WAL bytes land in `target/crash-artifacts/` so the run
//! can be replayed offline (`trace crash <file> --seed ...`).
//!
//! The hand-picked scenarios below pin the two repair behaviours the
//! sweep relies on: a torn page image in the store is rewritten from the
//! WAL, and a torn record at the WAL tail is detected by its checksum
//! and discarded rather than replayed.

use asb::buffer::{BufferManager, PolicyKind};
use asb::exp::{crash_sweep, CrashConfig, Trace};
use asb::geom::{Rect, SpatialStats};
use asb::storage::{
    AccessContext, CrashClock, CrashMode, CrashPlan, CrashableStore, DiskManager, Page, PageId,
    PageMeta, PageStore, QueryId, StorageError, Wal, WalConfig,
};
use bytes::Bytes;
use std::path::{Path, PathBuf};

/// Seed of the crash-point workload, overridable for the CI matrix.
fn crash_seed() -> u64 {
    std::env::var("ASB_CRASH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Access-prefix limit: short locally, the whole trace under
/// `ASB_CRASH_FULL=1` (CI's release-mode matrix).
fn access_limit() -> Option<usize> {
    if std::env::var("ASB_CRASH_FULL").is_ok() {
        None
    } else {
        Some(250)
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn artifact_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/crash-artifacts")
}

fn sweep_database(name: &str) {
    let trace = Trace::load(golden_dir().join(format!("{name}.trace"))).expect("load trace");
    let config = CrashConfig {
        policy: PolicyKind::Asb,
        capacity: 12,
        update_every: 4,
        checkpoint_interval: 16,
        seed: crash_seed(),
        max_accesses: access_limit(),
        artifact_dir: Some(artifact_dir()),
    };
    let report = crash_sweep(&trace, &config).expect("golden run");
    assert!(report.updates > 0, "{name}: workload must issue updates");
    assert!(
        report.checkpoints > 0,
        "{name}: auto-checkpointing must fire"
    );
    assert!(
        report.torn_tails_dropped > 0,
        "{name}: torn WAL tails must be exercised and discarded"
    );
    assert!(report.images_redone > 0, "{name}: recovery must redo work");
    assert_eq!(
        report.sweeps_run,
        report.crash_points * 2,
        "{name}: every crash point runs in clean and torn variants"
    );
    assert!(
        report.holds(),
        "{name} seed={}: {} of {} crash points diverged; first: {}",
        config.seed,
        report.divergences.len(),
        report.sweeps_run,
        report.divergences[0]
    );
}

/// Every kill point of the mainland golden trace recovers to the
/// committed prefix.
#[test]
fn mainland_crash_sweep_recovers_the_committed_prefix() {
    sweep_database("mainland");
}

/// Every kill point of the world golden trace recovers to the committed
/// prefix.
#[test]
fn world_crash_sweep_recovers_the_committed_prefix() {
    sweep_database("world");
}

fn build_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            let r = Rect::new(0.0, 0.0, (i % 5) as f64 + 0.5, (i % 3) as f64 + 0.5);
            disk.allocate(
                PageMeta::data(SpatialStats::from_rects(&[r])),
                Bytes::from(vec![i as u8; 16]),
            )
            .expect("allocate")
        })
        .collect();
    (disk, ids)
}

fn meta_of(store: &CrashableStore<DiskManager>, id: PageId) -> PageMeta {
    store.inner().peek(id).expect("page exists").meta
}

/// A kill mid-store-write leaves a torn page (checksum mismatch); the
/// WAL image logged before the write-back repairs it on recovery.
#[test]
fn torn_write_back_is_repaired_from_the_wal() {
    let (disk, ids) = build_disk(4);
    // Event 0 is the WAL image append, event 1 the store write: kill
    // during the write so the log survives but the page is torn.
    let clock = CrashClock::with_plan(CrashPlan {
        kill_at: 1,
        mode: CrashMode::Torn,
    });
    let mut store = CrashableStore::new(disk, clock.clone());
    let wal = Wal::shared_with_clock(WalConfig::default(), clock);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    buf.attach_wal(wal.clone());

    let page =
        Page::new(ids[0], meta_of(&store, ids[0]), Bytes::from(vec![0xAB; 16])).expect("page");
    let err = buf
        .write_through(&mut store, page)
        .expect_err("the kill must surface");
    assert!(matches!(err, StorageError::Crashed), "got: {err}");
    let torn = store.inner().peek(ids[0]).expect("page exists");
    assert!(
        !torn.verify_checksum(),
        "the interrupted write must leave a torn page"
    );

    let mut disk = store.into_inner();
    let report = wal.lock().recover_into(&mut disk).expect("recovery");
    assert_eq!(report.images_redone, 1);
    let healed = disk.peek(ids[0]).expect("page exists");
    assert!(healed.verify_checksum(), "recovery restores the image");
    assert_eq!(healed.payload.as_ref(), &[0xAB; 16][..]);

    // Idempotence: a second recovery pass redoes the same images onto an
    // already-consistent store and changes nothing.
    let again = wal.lock().recover_into(&mut disk).expect("second recovery");
    assert_eq!(again.images_redone, report.images_redone);
    assert_eq!(
        disk.peek(ids[0]).expect("page").payload.as_ref(),
        &[0xAB; 16][..]
    );
}

/// A kill mid-WAL-append leaves a torn record at the tail; recovery must
/// detect it by checksum and discard it — the half-written update was
/// never committed, so nothing may be replayed from it.
#[test]
fn torn_wal_tail_is_discarded_not_replayed() {
    let (disk, ids) = build_disk(4);
    // First update via write-through claims events 0 (WAL append) and 1
    // (store write); the second update's WAL append is event 2 — kill
    // inside it, producing a torn tail record.
    let clock = CrashClock::with_plan(CrashPlan {
        kill_at: 2,
        mode: CrashMode::Torn,
    });
    let mut store = CrashableStore::new(disk, clock.clone());
    let wal = Wal::shared_with_clock(WalConfig::default(), clock);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 2);
    buf.attach_wal(wal.clone());

    let meta = meta_of(&store, ids[0]);
    let committed = Page::new(ids[0], meta, Bytes::from(vec![1u8; 16])).expect("page");
    buf.write_through(&mut store, committed).expect("write");

    let doomed = Page::new(ids[0], meta, Bytes::from(vec![2u8; 16])).expect("page");
    let err = buf
        .write_buffered(&mut store, doomed)
        .expect_err("the kill must surface");
    assert!(matches!(err, StorageError::Crashed), "got: {err}");

    let mut disk = store.into_inner();
    let report = wal.lock().recover_into(&mut disk).expect("recovery");
    assert!(
        report.torn_tail_dropped,
        "the half-written record must be detected as torn"
    );
    assert_eq!(report.images_redone, 1, "only the committed image replays");
    let page = disk.peek(ids[0]).expect("page");
    assert!(page.verify_checksum(), "consistent after recovery");
    assert_eq!(
        page.payload.as_ref(),
        &[1u8; 16][..],
        "the uncommitted update must NOT reappear"
    );
}

/// A clean kill before anything durable happened recovers to the initial
/// state: the empty-log path of recovery must be a no-op, not an error.
#[test]
fn recovery_of_an_empty_log_is_a_no_op() {
    let (mut disk, ids) = build_disk(2);
    let wal = Wal::shared(WalConfig::default());
    let report = wal.lock().recover_into(&mut disk).expect("recovery");
    assert_eq!(report.records_scanned, 0);
    assert_eq!(report.images_redone, 0);
    for &id in &ids {
        assert!(disk.peek(id).expect("page").verify_checksum(), "intact");
    }
}

/// After the kill fires, every further durable operation fails with
/// `Crashed` — the simulated process stays dead until recovery runs on a
/// fresh stack.
#[test]
fn a_dead_process_rejects_all_io() {
    let (disk, ids) = build_disk(2);
    let clock = CrashClock::with_plan(CrashPlan {
        kill_at: 0,
        mode: CrashMode::Clean,
    });
    let mut store = CrashableStore::new(disk, clock.clone());
    let meta = store.inner().peek(ids[0]).expect("page").meta;
    let page = Page::new(ids[0], meta, Bytes::from(vec![9u8; 16])).expect("page");
    assert!(matches!(
        store.write(page.clone()),
        Err(StorageError::Crashed)
    ));
    assert!(clock.is_dead());
    assert!(matches!(store.write(page), Err(StorageError::Crashed)));
    assert!(matches!(
        store.read(ids[0], AccessContext::query(QueryId::new(0))),
        Err(StorageError::Crashed)
    ));
}
