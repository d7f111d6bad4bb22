//! The trait surface of the thread-safe buffer pool.
//!
//! [`ShardedBuffer`](crate::ShardedBuffer) is the one pool; [`BufferPool`]
//! captures its guard-based access API as an object-safe trait so
//! experiment drivers, the serving engine and replay harnesses take
//! `&dyn BufferPool` and a decorator (a tracing or timing wrapper) can
//! stand in for the pool.

use crate::guard::{PageReadGuard, PageWriteGuard};
use crate::manager::BufferStats;
use crate::policies::ArenaState;
use asb_storage::{AccessContext, IoStats, PageError, PageId, Result};

/// The result of a classified read: the pinned guard plus whether the
/// request was served from the buffer (`hit`) or had to reach the backing
/// store. Serving front ends use the flag to attribute per-session hit
/// rates without reverse-engineering them from pool-wide statistics.
#[derive(Debug)]
pub struct FetchOutcome {
    /// The pinned read guard, exactly as [`BufferPool::fetch`] returns it
    /// (and, like it, `!Send`).
    pub guard: PageReadGuard,
    /// `true` when the page was served from a resident frame; `false` when
    /// this request's own fetch brought the page in.
    pub hit: bool,
}

/// One slot of a [`BufferPool::fetch_batch`] result: the classified guard,
/// or the typed per-page failure. There is no batch-wide error — a page
/// that cannot be served fails only its own slot.
pub type PageFetchResult = std::result::Result<FetchOutcome, PageError>;

/// A cloneable, thread-safe buffer pool handing out RAII page guards.
///
/// All methods take `&self` — implementations do their own locking. The
/// guard contract is shared: a [`PageReadGuard`] pins its frame against
/// eviction until dropped, and a [`PageWriteGuard`] publishes edits
/// through the pool's buffered-write path (WAL image first, frame
/// dirtied, `rec_lsn` stamped) on commit or drop.
pub trait BufferPool {
    /// Reads a page, returning a pinned read guard. A miss fetches from
    /// the backing store; transient faults are retried under the pool's
    /// retry policy.
    fn fetch(&self, id: PageId, ctx: AccessContext) -> Result<PageReadGuard>;

    /// [`fetch`](BufferPool::fetch), additionally reporting whether the
    /// request was a buffer hit. Accounting is identical to `fetch` — the
    /// flag mirrors the hit/miss the pool's statistics recorded for this
    /// request.
    fn fetch_classified(&self, id: PageId, ctx: AccessContext) -> Result<FetchOutcome>;

    /// Reads a batch of pages, returning one *independent* result per id
    /// in input order: a failing page fails its own slot with a typed
    /// [`PageError`] and never aborts its siblings.
    ///
    /// The batch probes the first occurrence of every id (pinning the
    /// resident ones as hits), then resolves the misses and the repeated
    /// ids in input order, holding every shard it touches throughout: no
    /// other request runs on those shards between the two phases, so each
    /// miss the batch counts is read by the batch. Per-request accounting
    /// equals issuing the same `fetch_classified` calls in input order
    /// whenever no admission in the batch evicts a later batch member;
    /// under eviction pressure a probe-phase hit is pinned before an
    /// earlier sibling's admission could have evicted it, so the batch can
    /// count a hit where the sequential order counts a miss (see
    /// [`ShardedBuffer::fetch_batch`](crate::ShardedBuffer::fetch_batch)).
    fn fetch_batch(&self, ids: &[PageId], ctx: AccessContext) -> Vec<PageFetchResult>;

    /// Serves `id` from buffer-resident state only: a hit pins and
    /// returns the frame; a miss is counted in the pool's statistics and
    /// returns `None` without touching the backing store. It is the read
    /// for a caller that must not wait on the store, where a miss degrades
    /// instead of burning retry budget.
    fn fetch_resident(&self, id: PageId, ctx: AccessContext) -> Option<PageReadGuard>;

    /// Number of independently locked shards.
    fn shard_count(&self) -> usize;

    /// The shard that serves `id`. Batching front ends group page requests
    /// by shard so each group's store latency can be charged to one
    /// simulated I/O channel.
    fn shard_of(&self, id: PageId) -> usize;

    /// Physical I/O statistics of the backing store, including its
    /// simulated-time clock (`IoStats::simulated_ms`). Latency harnesses
    /// difference this around a batch to convert store activity into
    /// simulated service time.
    fn io_stats(&self) -> IoStats;

    /// Reads a page for modification. Edits are private to the guard
    /// until committed; dropping it uncommitted discards them.
    fn fetch_mut(&self, id: PageId, ctx: AccessContext) -> Result<PageWriteGuard>;

    /// Writes every dirty frame back to the backing store.
    fn flush(&self) -> Result<()>;

    /// Buffer statistics snapshot (summed over shards, if any).
    fn stats(&self) -> BufferStats;

    /// Number of dirty frames currently buffered.
    fn dirty_count(&self) -> usize;

    /// Number of page guards currently alive against this pool.
    fn live_guards(&self) -> u64;

    /// Total pool capacity in pages.
    fn capacity(&self) -> usize;

    /// Drops every buffered page and resets buffer statistics.
    fn clear(&self);

    /// Expert-arena snapshots, one per shard (each shard mixes
    /// independently). Entries are `None` for non-arena policies, so the
    /// result doubles as a "which shards mix?" probe.
    fn arena_states(&self) -> Vec<Option<ArenaState>>;
}

impl<S: asb_storage::ConcurrentPageStore + 'static> BufferPool for crate::ShardedBuffer<S> {
    fn fetch(&self, id: PageId, ctx: AccessContext) -> Result<PageReadGuard> {
        crate::ShardedBuffer::fetch(self, id, ctx)
    }

    fn fetch_classified(&self, id: PageId, ctx: AccessContext) -> Result<FetchOutcome> {
        crate::ShardedBuffer::fetch_classified(self, id, ctx)
    }

    fn fetch_batch(&self, ids: &[PageId], ctx: AccessContext) -> Vec<PageFetchResult> {
        crate::ShardedBuffer::fetch_batch(self, ids, ctx)
    }

    fn fetch_resident(&self, id: PageId, ctx: AccessContext) -> Option<PageReadGuard> {
        crate::ShardedBuffer::fetch_resident(self, id, ctx)
    }

    fn shard_count(&self) -> usize {
        crate::ShardedBuffer::shard_count(self)
    }

    fn shard_of(&self, id: PageId) -> usize {
        crate::ShardedBuffer::shard_of(self, id)
    }

    fn io_stats(&self) -> IoStats {
        crate::ShardedBuffer::io_stats(self)
    }

    fn fetch_mut(&self, id: PageId, ctx: AccessContext) -> Result<PageWriteGuard> {
        crate::ShardedBuffer::fetch_mut(self, id, ctx)
    }

    fn flush(&self) -> Result<()> {
        crate::ShardedBuffer::flush(self)
    }

    fn stats(&self) -> BufferStats {
        crate::ShardedBuffer::stats(self)
    }

    fn dirty_count(&self) -> usize {
        crate::ShardedBuffer::dirty_count(self)
    }

    fn live_guards(&self) -> u64 {
        crate::ShardedBuffer::live_guards(self)
    }

    fn capacity(&self) -> usize {
        crate::ShardedBuffer::capacity(self)
    }

    fn clear(&self) {
        crate::ShardedBuffer::clear(self)
    }

    fn arena_states(&self) -> Vec<Option<ArenaState>> {
        self.per_shard(|shard| shard.policy().arena_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::disk_with_pages;
    use crate::policy::PolicyKind;
    use crate::ShardedBuffer;
    use bytes::Bytes;

    /// A driver written once against the trait, exercised over the coarse
    /// (1-shard) and the striped pool.
    fn drive(pool: &dyn BufferPool, ids: &[PageId]) {
        for &id in ids {
            let guard = pool.fetch(id, AccessContext::default()).unwrap();
            assert_eq!(guard.id, id);
        }
        // Everything is resident now: classified fetches must report hits,
        // and a batch (with a repeat) must classify every id as a hit too.
        let out = pool
            .fetch_classified(ids[0], AccessContext::default())
            .unwrap();
        assert!(out.hit);
        drop(out);
        let batch: Vec<PageId> = ids.iter().chain([&ids[0]]).copied().collect();
        let outcomes = pool.fetch_batch(&batch, AccessContext::default());
        assert_eq!(outcomes.len(), batch.len());
        for (slot, &id) in outcomes.iter().zip(&batch) {
            let outcome = slot.as_ref().expect("healthy store: no slot may fail");
            assert_eq!(outcome.guard.id, id);
            assert!(outcome.hit);
        }
        drop(outcomes);
        // Everything is resident, so the degraded read path serves it too.
        let resident = pool
            .fetch_resident(ids[1], AccessContext::default())
            .expect("resident page must be served without the store");
        assert_eq!(resident.id, ids[1]);
        drop(resident);
        // Shard routing is total and stable over the declared shard count.
        assert!(pool.shard_count() >= 1);
        for &id in ids {
            assert!(pool.shard_of(id) < pool.shard_count());
            assert_eq!(pool.shard_of(id), pool.shard_of(id));
        }
        assert!(pool.io_stats().reads as usize >= 1);
        let mut w = pool.fetch_mut(ids[0], AccessContext::default()).unwrap();
        w.set_payload(Bytes::from_static(b"trait")).unwrap();
        w.commit().unwrap();
        assert_eq!(pool.dirty_count(), 1);
        pool.flush().unwrap();
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.live_guards(), 0);
        assert!(pool.stats().logical_reads >= ids.len() as u64);
        assert!(pool.capacity() > 0);
        // Non-arena pools report no mixing units.
        assert!(pool.arena_states().iter().all(|s| s.is_none()));
        pool.clear();
        assert_eq!(pool.stats().logical_reads, 0);
    }

    #[test]
    fn batch_with_repeats_classifies_like_sequential_fetches() {
        let (disk, ids) = disk_with_pages(6);
        let sharded = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 2);
        let batch = vec![ids[0], ids[1], ids[0]];
        let outcomes = sharded.fetch_batch(&batch, AccessContext::default());
        let hit = |i: usize| {
            outcomes[i]
                .as_ref()
                .expect("healthy store: no slot may fail")
                .hit
        };
        assert!(!hit(0), "cold id must classify as a miss");
        assert!(!hit(1), "cold id must classify as a miss");
        assert!(hit(2), "repeat must see the first occurrence's admission");
        let stats = sharded.stats();
        assert_eq!(stats.logical_reads, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn coarse_and_striped_pools_serve_the_same_trait_driver() {
        for shards in [1, 2] {
            let (disk, ids) = disk_with_pages(8);
            let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 8, shards);
            assert_eq!(BufferPool::shard_count(&pool), shards);
            drive(&pool, &ids);
        }
    }
}
