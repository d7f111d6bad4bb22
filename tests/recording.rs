//! `RecordingStore` behaviour: toggling, draining, and the placement
//! rule its module docs prescribe — the recorder sits *below* the index
//! and *above* the disk, never above a buffer, so the log captures the
//! full logical access sequence rather than only the buffer's misses —
//! and the order a trace keeps its recorded updates in.

use asb::buffer::{BufferManager, PolicyKind};
use asb::exp::{crash_sweep, CrashConfig, Trace};
use asb::geom::{Rect, SpatialItem, SpatialStats};
use asb::rtree::{RTree, RTreeConfig};
use asb::storage::{
    AccessContext, DiskManager, PageId, PageMeta, PageOp, PageStore, QueryId, RecordingStore,
    StorageError,
};
use bytes::Bytes;

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

fn ctx(q: u64) -> AccessContext {
    AccessContext::query(QueryId::new(q))
}

/// The recording toggle brackets the workload of interest: reads made
/// while recording is off (bulk load, warm-up) never enter the log, and
/// re-enabling resumes logging without losing what came before.
#[test]
fn toggling_brackets_the_recorded_window() {
    let (disk, ids) = build_disk(6);
    let mut store = RecordingStore::new(disk);
    assert!(store.is_recording(), "recording starts enabled");

    store.set_recording(false);
    for (i, &id) in ids.iter().enumerate() {
        store.read(id, ctx(i as u64)).expect("warm-up read");
    }
    assert_eq!(store.log_len(), 0, "warm-up reads are not logged");

    store.set_recording(true);
    store.read(ids[2], ctx(100)).expect("read");
    store.set_recording(false);
    store.read(ids[3], ctx(101)).expect("read");
    store.set_recording(true);
    store.read(ids[4], ctx(102)).expect("read");

    let log = store.take_log();
    assert_eq!(
        log,
        vec![(ids[2], QueryId::new(100)), (ids[4], QueryId::new(102)),],
        "only reads inside the recording window appear, in order"
    );
}

/// `take_log` drains: two drains never return the same access twice, so
/// a long run can be captured in chunks.
#[test]
fn draining_the_log_captures_in_chunks() {
    let (disk, ids) = build_disk(4);
    let mut store = RecordingStore::new(disk);
    store.read(ids[0], ctx(0)).expect("read");
    store.read(ids[1], ctx(1)).expect("read");
    let first = store.take_log();
    assert_eq!(first.len(), 2);
    assert_eq!(store.log_len(), 0, "the drain empties the log");

    store.read(ids[2], ctx(2)).expect("read");
    let second = store.take_log();
    assert_eq!(second, vec![(ids[2], QueryId::new(2))]);
    assert!(store.take_log().is_empty(), "nothing is returned twice");
}

/// Placement matters: a recorder *below* a buffer sees only the misses,
/// which is exactly why traces are recorded unbuffered. This test pins
/// the failure mode the module docs warn about — re-reading a resident
/// page leaves no trace in an under-buffer log.
#[test]
fn a_recorder_below_a_buffer_sees_only_misses() {
    let (disk, ids) = build_disk(8);
    let mut store = RecordingStore::new(disk);
    let mut buf = BufferManager::with_policy(PolicyKind::Lru, 4);

    // Touch two pages, then re-touch them while still resident.
    for (q, &id) in [ids[0], ids[1], ids[0], ids[1], ids[0]].iter().enumerate() {
        buf.fetch(&mut store, id, ctx(q as u64)).expect("read");
    }
    let stats = buf.stats();
    assert_eq!(stats.logical_reads, 5);
    assert_eq!(stats.misses, 2);

    let log = store.take_log();
    assert_eq!(
        log.len() as u64,
        stats.misses,
        "the under-buffer recorder logged only the physical reads"
    );
    assert_eq!(
        log.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![ids[0], ids[1]],
        "hits left no trace — 3 of 5 logical accesses are missing"
    );
}

/// Updates before, between and after the reads come out of `drive`,
/// the text format and a replay in recorded order; what models reads
/// only (`drive_reads`, OPT, the crash sweep) refuses them.
#[test]
fn updates_keep_their_recorded_order() {
    let meta = PageMeta::data(SpatialStats::EMPTY);
    let (p0, p1, p2) = (PageId::new(0), PageId::new(1), PageId::new(2));
    let mut t = Trace {
        label: "written".into(),
        pages: vec![(0, meta), (1, meta)].into(),
        accesses: vec![(0, 1), (1, 1), (0, 2)],
        updates: vec![
            (
                0,
                PageOp::Write(p1, PageMeta::directory(2, SpatialStats::EMPTY)),
            ),
            (2, PageOp::Alloc(p2, meta)),
            (3, PageOp::Free(p0)),
        ],
    };
    let mut seen = Vec::new();
    t.drive(|i, op| {
        seen.push(match op {
            PageOp::Read(id, q) => format!("{i}: a {} {}", id.raw(), q.raw()),
            PageOp::Write(id, meta) => format!("{i}: w {} {}", id.raw(), meta.level),
            PageOp::Alloc(id, _) => format!("{i}: n {}", id.raw()),
            PageOp::Free(id) => format!("{i}: f {}", id.raw()),
        });
        Ok(())
    })
    .unwrap();
    let order = [
        "0: w 1 2", "1: a 0 1", "2: a 1 1", "3: n 2", "4: a 0 2", "5: f 0",
    ];
    assert_eq!(seen, order);
    let text = t.to_text();
    let kinds: String = text.lines().skip(4).map(|l| &l[..1]).collect();
    assert_eq!(
        (kinds.as_str(), text.contains("accesses 6\n")),
        ("ppwaanaf", true)
    );
    assert_eq!(Trace::from_text(&text), Ok(t.clone()));

    let out = t.replay(PolicyKind::Lru, 2).unwrap();
    assert_eq!((out.stats.logical_reads, out.io.writes), (3, 2));
    let refused = |e: Option<StorageError>| matches!(e, Some(StorageError::InvalidInput { .. }));
    assert!(refused(t.drive_reads(|_, _, _| Ok(())).err()));
    assert!(refused(t.opt_misses(2).err()));
    assert!(refused(crash_sweep(&t, &CrashConfig::default()).err()));

    t.updates[1].1 = PageOp::Alloc(PageId::new(7), meta);
    let mismatch = StorageError::AllocationMismatch {
        recorded: PageId::new(7),
        replayed: p2,
    };
    assert_eq!(t.replay(PolicyKind::Lru, 2), Err(mismatch));
}

/// A replay rebuilds the live pages only, so after deletes that freed
/// pages an allocation would hand out another page than the recorded
/// run's: recording on such a disk is refused before the workload runs.
#[test]
fn recording_after_deletes_that_freed_pages_is_refused() {
    let disk = Trace::recorder(DiskManager::new());
    let mut tree = RTree::with_config(disk, RTreeConfig::small()).unwrap();
    let item = |i: u64| SpatialItem::new(i, Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0));
    (0..30).try_for_each(|i| tree.insert(item(i))).unwrap();
    (0..25).for_each(|i| assert!(tree.delete(i, &item(i).mbr).unwrap()));
    assert!(
        tree.store().inner().free_slots() > 0,
        "the deletes freed pages"
    );
    let mut ran = false;
    let got = Trace::record_on("after deletes".into(), &mut tree, RTree::store, |t| {
        ran = true;
        t.insert(item(40))
    });
    assert!(
        matches!(&got, Err(StorageError::InvalidInput { reason }) if reason.contains("freed slots")),
        "{got:?}"
    );
    assert!(!ran, "refused before the workload runs");
}
