//! Multi-threaded integration tests for the coarse (one-shard) pool.

use asb::buffer::sync::Counter;
use asb::buffer::{PolicyKind, ShardedBuffer};
use asb::geom::SpatialStats;
use asb::storage::{AccessContext, DiskManager, PageId, PageMeta, PageStore, QueryId};
use bytes::Bytes;
use std::sync::Arc;

fn build_disk(pages: u64) -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..pages)
        .map(|i| {
            disk.allocate(
                PageMeta::data(SpatialStats::EMPTY),
                Bytes::from(vec![i as u8]),
            )
            .expect("allocate")
        })
        .collect();
    (disk, ids)
}

#[test]
fn concurrent_readers_see_consistent_pages() {
    let (disk, ids) = build_disk(64);
    // The buffer covers the working set, so after warm-up every access
    // hits regardless of thread interleaving (a smaller buffer would make
    // the hit count schedule-dependent: 8 threads striding over 64 pages
    // is a cyclic scan, the classic zero-hit adversary).
    let shared = ShardedBuffer::new(disk, PolicyKind::Asb, 64, 1);
    let total = Arc::new(Counter::default());

    std::thread::scope(|scope| {
        for t in 0..8 {
            let shared = shared.clone();
            let ids = ids.clone();
            let total = Arc::clone(&total);
            scope.spawn(move || {
                for i in 0..250u64 {
                    let slot = ((t * 13 + i * 7) % ids.len() as u64) as usize;
                    let page = shared
                        .fetch(ids[slot], AccessContext::query(QueryId::new(t * 1000 + i)))
                        .expect("read");
                    assert_eq!(page.payload.as_ref(), &[slot as u8][..]);
                    total.incr();
                }
            });
        }
    });

    assert_eq!(total.get(), 8 * 250);
    let stats = shared.stats();
    assert_eq!(stats.logical_reads, 8 * 250);
    assert_eq!(stats.hits + stats.misses, stats.logical_reads);
    // Exactly one cold miss, and one store read, per page: threads that
    // ask for the same cold page at the same moment are serialized by the
    // shard lock, and all but the one that brought it in count as hits.
    assert_eq!(stats.misses, 64);
    assert_eq!(stats.hits, stats.logical_reads - 64);
    assert_eq!(shared.io_stats().reads, 64);
}

#[test]
fn concurrent_writers_and_readers_stay_coherent() {
    let (disk, ids) = build_disk(32);
    let shared = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 1);

    std::thread::scope(|scope| {
        // Writers stamp pages with a marker byte; readers verify that any
        // observed payload is a valid stamp (original or any writer's).
        for w in 0..2u8 {
            let shared = shared.clone();
            let ids = ids.clone();
            scope.spawn(move || {
                for round in 0..100usize {
                    let slot = (round * 5 + w as usize) % ids.len();
                    let page = asb::storage::Page::new(
                        ids[slot],
                        PageMeta::data(SpatialStats::EMPTY),
                        Bytes::from(vec![200 + w]),
                    )
                    .expect("page");
                    shared.write(page).expect("write");
                }
            });
        }
        for r in 0..4u64 {
            let shared = shared.clone();
            let ids = ids.clone();
            scope.spawn(move || {
                for i in 0..200u64 {
                    let slot = ((r * 11 + i * 3) % ids.len() as u64) as usize;
                    let page = shared
                        .fetch(ids[slot], AccessContext::query(QueryId::new(i)))
                        .expect("read");
                    let b = page.payload[0];
                    assert!(
                        b == slot as u8 || b == 200 || b == 201,
                        "torn or stale payload: {b} at slot {slot}"
                    );
                }
            });
        }
    });
}
