//! The RAII page-access API in one tour: read guards pin frames, write
//! guards stage mutations, and the [`BufferPool`] trait lets the same code
//! drive a coarse one-shard [`ShardedBuffer`] and a lock-striped one
//! interchangeably.
//!
//! ```text
//! cargo run --release --example page_guards
//! ```

use asb::buffer::{BufferPool, PolicyKind, ShardedBuffer};
use asb::geom::SpatialStats;
use asb::storage::{AccessContext, DiskManager, PageId, PageMeta, PageStore, QueryId};
use bytes::Bytes;

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

/// Written against the [`BufferPool`] trait: the same access pattern works
/// at any shard count (and against any decorator of the pool).
fn tour(pool: &dyn BufferPool, ids: &[PageId], label: &str) {
    // A read guard pins its frame for exactly as long as it lives; the
    // page bytes are reached through Deref, no copy handed out.
    let guard = pool
        .fetch(ids[0], AccessContext::query(QueryId::new(1)))
        .expect("fetch");
    println!(
        "{label}: read page {} -> payload {:?}",
        guard.id, guard.payload
    );
    assert_eq!(pool.live_guards(), 1);
    drop(guard); // unpin: eviction may take the frame again

    // A write guard stages a mutation; nothing is visible until commit(),
    // which marks the frame dirty in one step (write-back happens on
    // eviction, flush, or via the background flusher).
    let mut w = pool
        .fetch_mut(ids[1], AccessContext::query(QueryId::new(2)))
        .expect("fetch_mut");
    w.set_payload(Bytes::from_static(b"updated"))
        .expect("stage payload");
    w.commit().expect("commit");
    assert_eq!(pool.dirty_count(), 1);

    let again = pool
        .fetch(ids[1], AccessContext::query(QueryId::new(3)))
        .expect("re-read");
    assert_eq!(again.payload.as_ref(), b"updated");
    drop(again);

    pool.flush().expect("flush");
    let stats = pool.stats();
    println!(
        "{label}: {} logical reads, {} hits, {} dirty after flush, {} live guards\n",
        stats.logical_reads,
        stats.hits,
        pool.dirty_count(),
        pool.live_guards()
    );
}

fn main() {
    let (disk, ids) = build_disk(16);
    let coarse = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 1);
    tour(&coarse, &ids, "1 shard ");

    let (disk, ids) = build_disk(16);
    let sharded = ShardedBuffer::new(disk, PolicyKind::Asb, 8, 4);
    tour(&sharded, &ids, "4 shards");

    // Direct store access is gated on guard quiescence: while any guard is
    // live the pool refuses to hand out the store, with a typed error.
    let guard = sharded
        .fetch(ids[0], AccessContext::default())
        .expect("fetch");
    let refused = sharded.with_store(|_| ());
    println!("with_store while a guard lives -> {refused:?}");
    drop(guard);
    sharded.with_store(|_| ()).expect("quiescent now");
    println!("with_store after dropping it   -> Ok(())");
}
