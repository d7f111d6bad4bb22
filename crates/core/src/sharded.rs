//! Lock-striped, parallel-serving buffer pool.
//!
//! This is the one thread-safe pool. The buffer is striped across `N`
//! independent *shards*: each shard owns its own frame table, replacement
//! policy and statistics, and a page id is deterministically routed to
//! exactly one shard. `N = 1` is the coarse pool: one mutex serializes
//! every fetch. Requests for pages in different shards proceed in
//! parallel; the backing store sits behind a reader-writer lock and is
//! only read-locked on a miss (via [`ConcurrentPageStore::read_shared`]),
//! so misses from different shards also overlap.
//!
//! Reads hand out RAII [`PageReadGuard`]s. A read is one acquisition of
//! its shard's lock around [`BufferManager`]'s own read — probe, and on a
//! miss the store read and admission — and the lock is released before
//! the caller ever touches the page bytes: the guard's pin (not the lock)
//! is what keeps the frame resident. Concurrent misses on the *same* page
//! therefore cost one store read: the shard lock serializes them, and the
//! second reader finds the frame. Every miss a fetch counts is exactly one
//! store read (on a fault-free store), under every interleaving; which
//! requests hit still depends on the schedule — only a single-threaded
//! trace is count-exact. Holding the lock across the read is cheap because every
//! store here is in memory.
//!
//! # Reproduction guarantee
//!
//! With `shards = 1` and a single-threaded access trace, the pool runs the
//! exact same probe/fetch/admit primitives as a sequential
//! [`BufferManager`] ([`BufferManager::fetch`]), so hit, miss and eviction
//! counts are bit-identical to the paper's measurement vehicle. With more
//! shards each shard is a smaller, independent buffer of the same policy;
//! the paper's self-tuning applies per shard.
//!
//! # Lock order
//!
//! `shard mutex → store lock`, everywhere. A thread never holds two shard
//! locks — with one exception: [`ShardedBuffer::checkpoint`] and the
//! guard-gated [`ShardedBuffer::with_store`] lock *all* shards in
//! ascending index order (a fixed total order, so no cycle). Allocation
//! is two-phase (store write lock to obtain the id, release, then shard
//! lock to admit), so no cycle exists. The shared WAL mutex is only ever
//! taken while holding a shard lock and is never held across a store
//! operation.

use crate::guard::{PageReadGuard, PageWriteGuard, WriteSink};
use crate::manager::{BufferManager, BufferStats, StoreIo};
use crate::policies::ArenaState;
use crate::policy::PolicyKind;
use crate::sync::{AtomicU64, Mutex, Ordering, RwLock};
use asb_storage::{
    AccessContext, ConcurrentPageStore, IoStats, Lsn, Page, PageError, PageId, PageMeta, PageStore,
    Result, RetryPolicy, SharedWal, StorageError,
};
use bytes::Bytes;
use std::sync::Arc;

/// SplitMix64 finalizer: a fast, well-mixing hash of a page id.
///
/// Deterministic by construction (never a seeded `RandomState`), so shard
/// assignment — and therefore every per-shard statistic — is reproducible
/// across runs and platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Inner<S> {
    store: RwLock<S>,
    shards: Vec<Mutex<BufferManager>>,
    /// Commits that failed inside a [`PageWriteGuard`] drop (where no
    /// error can be returned); see
    /// [`write_drop_failures`](ShardedBuffer::write_drop_failures).
    write_drop_failures: Arc<AtomicU64>,
}

/// Per-operation [`StoreIo`] over the pool's store lock: fetches take the
/// shared lock (misses overlap), write-backs take the exclusive lock. The
/// caller already holds the owning shard's mutex, so `shard → store` lock
/// order is preserved.
struct PoolIo<'a, S>(&'a RwLock<S>);

impl<S: ConcurrentPageStore> StoreIo for PoolIo<'_, S> {
    fn fetch(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.0.read().read_shared(id, ctx)
    }

    fn store(&mut self, page: &Page) -> Result<()> {
        self.0.write().write(page.clone())
    }
}

/// [`WriteSink`] half of a [`PageWriteGuard`]: commits publish through the
/// owning shard's buffered-write path (WAL image first, frame dirtied,
/// `rec_lsn` stamped).
struct ShardSink<S: ConcurrentPageStore> {
    inner: Arc<Inner<S>>,
    shard: usize,
}

impl<S: ConcurrentPageStore> WriteSink for ShardSink<S> {
    fn commit(&self, page: Page) -> Result<()> {
        let mut buf = self.inner.shards[self.shard].lock();
        buf.write_buffered(&mut PoolIo(&self.inner.store), page)
    }
}

/// A cloneable, thread-safe, lock-striped buffer pool.
///
/// Cloning the handle shares the same pool. All operations take `&self`;
/// page ids are routed to shards by a deterministic hash, so two threads
/// touching different shards never contend.
///
/// ```
/// use asb_core::{PolicyKind, ShardedBuffer};
/// use asb_geom::SpatialStats;
/// use asb_storage::{AccessContext, DiskManager, PageMeta, PageStore};
///
/// let mut disk = DiskManager::new();
/// let id = disk
///     .allocate(PageMeta::data(SpatialStats::EMPTY), bytes::Bytes::from_static(b"hi"))
///     .unwrap();
/// disk.reset_stats();
///
/// let pool = ShardedBuffer::new(disk, PolicyKind::Asb, 64, 4);
/// let reader = pool.clone();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         for _ in 0..10 {
///             let page = reader.fetch(id, AccessContext::default()).unwrap();
///             assert_eq!(page.id, id); // the guard derefs to the page
///         }
///     });
/// });
/// assert_eq!(pool.stats().logical_reads, 10);
/// assert_eq!(pool.io_stats().reads, 1); // one miss, nine hits
/// ```
pub struct ShardedBuffer<S: ConcurrentPageStore> {
    inner: Arc<Inner<S>>,
}

impl<S: ConcurrentPageStore> Clone for ShardedBuffer<S> {
    fn clone(&self) -> Self {
        ShardedBuffer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: ConcurrentPageStore> std::fmt::Debug for ShardedBuffer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBuffer")
            .field("shards", &self.shard_count())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S: ConcurrentPageStore> ShardedBuffer<S> {
    /// Creates a pool of `capacity` total pages striped over `shards`
    /// shards, each running its own instance of `kind`.
    ///
    /// The capacity is split as evenly as possible (the first
    /// `capacity % shards` shards get one extra page).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `capacity < shards` (every shard needs at
    /// least one page to serve the page it is currently loading).
    pub fn new(store: S, kind: PolicyKind, capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded buffer needs at least one shard");
        assert!(
            capacity >= shards,
            "capacity ({capacity}) must be at least one page per shard ({shards})"
        );
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| {
                Mutex::new(BufferManager::with_policy(
                    kind,
                    base + usize::from(i < extra),
                ))
            })
            .collect();
        ShardedBuffer {
            inner: Arc::new(Inner {
                store: RwLock::new(store),
                shards,
                write_drop_failures: Arc::new(AtomicU64::new(0)),
            }),
        }
    }

    /// The shard that serves `id` (splitmix64 of the raw page id, modulo
    /// the shard count — a stable, uniform routing). Public so batching
    /// front ends can group page requests by shard before fetching.
    pub fn shard_of(&self, id: PageId) -> usize {
        (splitmix64(id.raw()) % self.inner.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Total pool capacity in pages (sum over shards).
    pub fn capacity(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Reads a page, returning a pinned [`PageReadGuard`]; the shard lock
    /// is released before the guard is handed out, so holding a guard
    /// never blocks other readers.
    ///
    /// The whole read — probe, and on a miss the store read (under a
    /// *shared* store lock, so misses in different shards overlap) and the
    /// admission — runs under the shard lock, so N simultaneous misses on
    /// one page cost exactly one physical read. Transient store faults are
    /// retried under each shard's [`RetryPolicy`], and a frame that fails
    /// its checksum is never served: a clean one is discarded and
    /// re-fetched, a dirty one fails the read (see
    /// [`BufferManager::fetch`]).
    pub fn fetch(&self, id: PageId, ctx: AccessContext) -> Result<PageReadGuard> {
        self.fetch_classified(id, ctx).map(|(guard, _)| guard)
    }

    /// [`fetch`](ShardedBuffer::fetch), additionally reporting whether the
    /// request was a buffer hit. The flag mirrors what the shard's
    /// statistics recorded for this request: `true` when the page was
    /// served from a resident frame, `false` when this request's own fetch
    /// brought the page in (or failed to).
    pub fn fetch_classified(
        &self,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<(PageReadGuard, bool)> {
        let mut buf = self.inner.shards[self.shard_of(id)].lock();
        buf.fetch_classified(&mut PoolIo(&self.inner.store), id, ctx)
    }

    /// Reads a batch of pages, returning one *independent* result per id
    /// in input order: a failing page fails its own slot with a typed
    /// [`PageError`] and never aborts its siblings (the partial-failure
    /// contract the serving layer's graceful degradation is built on).
    ///
    /// The batch runs in two phases. *Probe:* the first occurrence of every
    /// id is probed, shard by shard under a single shard-lock acquisition
    /// each; a resident page is pinned and classified a hit there and
    /// then. *Resolve:* the remaining slots are served in input order — a
    /// first occurrence that missed is completed under its shard lock
    /// (served as a hit if a concurrent request admitted the page since
    /// the probe, else read and admitted), and an id repeated within the
    /// batch runs a full
    /// [`fetch_classified`](ShardedBuffer::fetch_classified) after its
    /// first occurrence has resolved (so the repeat classifies as the hit
    /// it would have been sequentially; a repeat of a failed id
    /// re-attempts and accrues its own accounting).
    ///
    /// Accounting equals issuing the same `fetch_classified` calls in
    /// input order **whenever no admission in the batch evicts a later
    /// batch member**. Under eviction pressure it can differ: a
    /// probe-phase hit is pinned before an earlier sibling's admission
    /// could have evicted it, so the batch may count a hit (and choose a
    /// different victim) where the sequential order counts a miss. The
    /// shard's logical clock also runs ahead: every probe advances it
    /// before the first miss is admitted, so a policy that ranks by
    /// timestamp (LRU-K, ASB's overflow comparison) sees the batch's
    /// admissions tie where one-at-a-time fetches would order them.
    pub fn fetch_batch(
        &self,
        ids: &[PageId],
        ctx: AccessContext,
    ) -> Vec<std::result::Result<(PageReadGuard, bool), PageError>> {
        type Slot = std::result::Result<(PageReadGuard, bool), PageError>;
        let mut out: Vec<Option<Slot>> = (0..ids.len()).map(|_| None).collect();
        // First occurrences probe in the batched phase; repeats resolve
        // afterwards through the sequential path so their probe sees the
        // first occurrence's admission.
        let mut seen = std::collections::HashSet::new();
        let mut deferred = vec![false; ids.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.inner.shards.len()];
        for (i, &id) in ids.iter().enumerate() {
            if seen.insert(id) {
                by_shard[self.shard_of(id)].push(i);
            } else {
                deferred[i] = true;
            }
        }
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut buf = self.inner.shards[shard].lock();
            for &i in idxs {
                match buf.probe(ids[i], ctx) {
                    Ok(Some(guard)) => out[i] = Some(Ok((guard, true))),
                    Ok(None) => {}
                    Err(e) => out[i] = Some(Err(PageError::new(ids[i], e))),
                }
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            let slot = if deferred[i] {
                self.fetch_classified(id, ctx)
            } else {
                let mut buf = self.inner.shards[self.shard_of(id)].lock();
                match buf.pin_resident(id, ctx) {
                    Ok(Some(guard)) => Ok((guard, true)),
                    Ok(None) => buf
                        .read_miss(&mut PoolIo(&self.inner.store), id, ctx)
                        .map(|guard| (guard, false)),
                    Err(e) => Err(e),
                }
            };
            out[i] = Some(slot.map_err(|e| PageError::new(id, e)));
        }
        // invariant: the resolve loop above fills every slot the probe
        // pass left empty, so no `None` survives to this point.
        out.into_iter()
            .map(|o| o.expect("outcome filled"))
            .collect()
    }

    /// Serves `id` from buffer-resident state only: a hit pins and returns
    /// the frame; a miss is counted in the shard's statistics and returns
    /// `None` **without touching the backing store** (no retry). The
    /// serving layer uses this behind an open circuit
    /// breaker, where the store is presumed down and a miss must degrade
    /// instead of burning retry budget. A resident frame that fails its
    /// checksum is a miss here too: it is never served, whether the probe
    /// could discard it (clean) or had to keep it (dirty).
    pub fn fetch_resident(&self, id: PageId, ctx: AccessContext) -> Option<PageReadGuard> {
        let probed = self.inner.shards[self.shard_of(id)].lock().probe(id, ctx);
        probed.ok().flatten()
    }

    /// Reads a page for modification, returning a [`PageWriteGuard`].
    ///
    /// Edits stay private to the guard until
    /// [`commit`](PageWriteGuard::commit) (or drop, best-effort) publishes
    /// them through the shard's buffered-write path — WAL image first,
    /// then the frame is dirtied and its `rec_lsn` stamped, exactly like
    /// [`write_buffered`](ShardedBuffer::write_buffered).
    pub fn fetch_mut(&self, id: PageId, ctx: AccessContext) -> Result<PageWriteGuard>
    where
        S: 'static,
    {
        let shard = self.shard_of(id);
        let (page, token) = self.fetch(id, ctx)?.into_parts();
        Ok(PageWriteGuard::new(
            page,
            token,
            Box::new(ShardSink {
                inner: Arc::clone(&self.inner),
                shard,
            }),
            Arc::clone(&self.inner.write_drop_failures),
        ))
    }

    /// Writes a page through its shard (write-through: the store is updated
    /// under the exclusive lock, any resident copy is refreshed).
    pub fn write(&self, page: Page) -> Result<()> {
        let mut shard = self.inner.shards[self.shard_of(page.id)].lock();
        shard.write_through(&mut PoolIo(&self.inner.store), page)
    }

    /// Writes a page into its shard only, deferring the store write to
    /// eviction or [`flush`](ShardedBuffer::flush) (write-back caching).
    pub fn write_buffered(&self, page: Page) -> Result<()> {
        let mut shard = self.inner.shards[self.shard_of(page.id)].lock();
        shard.write_buffered(&mut PoolIo(&self.inner.store), page)
    }

    /// Writes every dirty frame in every shard back to the store. Every
    /// shard is attempted even if an earlier one fails; per-page failures
    /// are aggregated across shards into one
    /// [`StorageError::FlushIncomplete`], and failed frames stay resident
    /// and dirty in their shard.
    pub fn flush(&self) -> Result<()> {
        let mut failures = Vec::new();
        for shard in &self.inner.shards {
            match shard.lock().flush(&mut PoolIo(&self.inner.store)) {
                Ok(()) => {}
                Err(StorageError::FlushIncomplete { failures: f }) => failures.extend(f),
                Err(e) => return Err(e),
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushIncomplete { failures })
        }
    }

    /// Attaches one shared write-ahead log to every shard: all buffered
    /// writes across the pool append to the same log, forming one global
    /// LSN sequence (see `BufferManager::attach_wal`).
    ///
    /// Do **not** enable per-shard auto-checkpointing on a pool — a shard's
    /// local dirty set does not bound its siblings' redo work. Use
    /// [`checkpoint`](ShardedBuffer::checkpoint), which snapshots all
    /// shards.
    pub fn attach_wal(&self, wal: SharedWal) {
        for shard in &self.inner.shards {
            shard.lock().attach_wal(wal.clone());
        }
    }

    /// Appends one pool-wide fuzzy checkpoint to the shared WAL.
    ///
    /// All shard locks are taken in ascending index order (one of the two
    /// places the pool holds more than one shard lock — a fixed total
    /// order, so deadlock-free) to compute the minimum `rec_lsn` over
    /// *every* dirty frame in the pool; the checkpoint record is appended
    /// through shard 0 while the snapshot is still held, so no write can
    /// slip under the recorded horizon.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let redo = guards.iter().filter_map(|g| g.min_rec_lsn()).min();
        guards[0].checkpoint_from(redo)
    }

    /// Number of dirty frames across all shards.
    pub fn dirty_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().dirty_count())
            .sum()
    }

    /// Number of page guards currently alive against this pool.
    pub fn live_guards(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().live_guards())
            .sum()
    }

    /// Commits that failed inside a [`PageWriteGuard`] drop, where no
    /// error can be returned. Non-zero means edits were lost — prefer
    /// explicit [`PageWriteGuard::commit`] on paths that must observe
    /// failures.
    pub fn write_drop_failures(&self) -> u64 {
        // relaxed-ok: monotonic telemetry, polled after writers quiesce.
        self.inner.write_drop_failures.load(Ordering::Relaxed)
    }

    /// Sets the retry policy applied to transient store faults in every
    /// shard.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        for shard in &self.inner.shards {
            shard.lock().set_retry_policy(retry);
        }
    }

    /// Allocates a page in the store and admits it to its shard.
    ///
    /// Two-phase: the store write lock is released before the shard lock is
    /// taken (the id decides the shard, and the id only exists after
    /// allocation), preserving the pool's `shard → store` lock order.
    pub fn allocate(&self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        let id = self.inner.store.write().allocate(meta, payload.clone())?;
        let page = Page::new(id, meta, payload)?;
        // lock-order-ok: the store write lock is a temporary released at
        // the end of the allocate statement; see the two-phase doc above.
        let mut shard = self.inner.shards[self.shard_of(id)].lock();
        shard.admit_new(page, &mut PoolIo(&self.inner.store))?;
        Ok(id)
    }

    /// Frees a page in the store and drops any buffered copy.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut shard = self.inner.shards[self.shard_of(id)].lock();
        let mut store = self.inner.store.write();
        shard.free_through(&mut *store, id)
    }

    /// Whether `id` is currently buffered (no access is recorded).
    pub fn contains(&self, id: PageId) -> bool {
        self.inner.shards[self.shard_of(id)].lock().contains(id)
    }

    /// Damages the resident copy of `id` in its shard, returning whether a
    /// frame was poisoned — test support, see
    /// [`BufferManager::poison_frame`].
    pub fn poison_frame(&self, id: PageId) -> bool {
        self.inner.shards[self.shard_of(id)].lock().poison_frame(id)
    }

    /// Number of currently resident pages across all shards.
    pub fn resident(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().resident()).sum()
    }

    /// Pool-wide statistics: the sum of every shard's snapshot.
    ///
    /// Shards are snapshotted one at a time, so under concurrent load the
    /// sum is a consistent total only once the pool is quiescent.
    pub fn stats(&self) -> BufferStats {
        self.shard_stats().into_iter().sum()
    }

    /// Per-shard statistics snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<BufferStats> {
        self.inner.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Current ASB candidate-set size per shard (`None` entries for
    /// policies without that notion).
    pub fn shard_candidate_sizes(&self) -> Vec<Option<usize>> {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().candidate_size())
            .collect()
    }

    /// Expert-arena snapshot per shard (`None` entries for non-arena
    /// policies). Each shard runs its own independent arena, so weights
    /// and leaders can differ across shards.
    pub fn shard_arena_states(&self) -> Vec<Option<ArenaState>> {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().arena_state())
            .collect()
    }

    /// History records retained for non-resident pages, summed across
    /// shards (unified definition: LRU-K HIST, 2Q ghosts, arena ghost
    /// caches).
    pub fn retained_history(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().retained_history())
            .sum()
    }

    /// Drops every buffered page and resets buffer statistics in all
    /// shards. Store I/O statistics are separate — call
    /// [`reset_io_stats`](ShardedBuffer::reset_io_stats) to clear those too.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.lock().clear();
        }
    }

    /// Physical I/O statistics of the backing store.
    pub fn io_stats(&self) -> IoStats {
        self.inner.store.read().io_stats()
    }

    /// Resets the backing store's I/O statistics.
    pub fn reset_io_stats(&self) {
        self.inner.store.read().reset_io_stats()
    }

    /// Number of live pages in the backing store.
    pub fn page_count(&self) -> usize {
        self.inner.store.read().page_count()
    }

    /// Runs `f` with exclusive access to the backing store — an escape
    /// hatch for bulk operations (never call pool methods from inside `f`;
    /// that would take the store lock ahead of a shard lock).
    ///
    /// Fails with [`StorageError::GuardsOutstanding`] while any page guard
    /// is alive: a guard holds a pin the pool is contracted to honour, and
    /// `f` could mutate the store out from under it. The check is
    /// race-free — all shard locks are held (ascending order, as in
    /// [`checkpoint`](ShardedBuffer::checkpoint)) while the live-guard
    /// count is read *and* while `f` runs, and creating a guard requires
    /// its shard's lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut S) -> R) -> Result<R> {
        let shards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let live: u64 = shards.iter().map(|g| g.live_guards()).sum();
        if live > 0 {
            return Err(StorageError::GuardsOutstanding(live));
        }
        Ok(f(&mut self.inner.store.write()))
    }

    /// Unwraps the pool into its backing store, if this is the last handle
    /// and no page guard is alive (a guard pins a frame of this pool; see
    /// [`with_store`](ShardedBuffer::with_store)).
    pub fn try_into_store(self) -> std::result::Result<S, Self> {
        {
            let shards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
            if shards.iter().map(|g| g.live_guards()).sum::<u64>() > 0 {
                drop(shards);
                return Err(self);
            }
        }
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.store.into_inner()),
            Err(inner) => Err(ShardedBuffer { inner }),
        }
    }
}

/// The pool is itself a [`PageStore`], so index structures (e.g.
/// `RTree<ShardedBuffer<DiskManager>>`) can run on a shared pool: give each
/// thread its own clone of the handle and its own index view.
impl<S: ConcurrentPageStore> PageStore for ShardedBuffer<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        ShardedBuffer::fetch(self, id, ctx).map(PageReadGuard::into_page)
    }

    fn write(&mut self, page: Page) -> Result<()> {
        ShardedBuffer::write(self, page)
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        ShardedBuffer::allocate(self, meta, payload)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        ShardedBuffer::free(self, id)
    }

    fn page_count(&self) -> usize {
        ShardedBuffer::page_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;
    use asb_storage::{DiskManager, QueryId, StorageError};
    use std::thread;

    fn meta() -> PageMeta {
        PageMeta::data(SpatialStats::EMPTY)
    }

    fn disk_with_pages(n: usize) -> (DiskManager, Vec<PageId>) {
        let mut d = DiskManager::new();
        let ids = (0..n)
            .map(|i| d.allocate(meta(), Bytes::from(vec![i as u8])).unwrap())
            .collect();
        d.reset_stats();
        (d, ids)
    }

    /// A deterministic page-access trace with skewed locality.
    fn trace(ids: &[PageId], len: usize) -> Vec<(PageId, QueryId)> {
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|i| {
                let hot = rng() % 10 < 7;
                let span = if hot { ids.len() / 8 + 1 } else { ids.len() };
                (
                    ids[(rng() % span as u64) as usize],
                    QueryId::new(i as u64 / 4),
                )
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let (disk, ids) = disk_with_pages(64);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 32, 5);
        for &id in &ids {
            let a = pool.shard_of(id);
            let b = pool.shard_of(id);
            assert_eq!(a, b);
            assert!(a < 5);
        }
    }

    #[test]
    fn capacity_splits_evenly_with_remainder_first() {
        let (disk, _) = disk_with_pages(1);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 10, 4);
        let caps: Vec<usize> = pool
            .inner
            .shards
            .iter()
            .map(|s| s.lock().capacity())
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(pool.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one page per shard")]
    fn undersized_capacity_panics() {
        let (disk, _) = disk_with_pages(1);
        let _ = ShardedBuffer::new(disk, PolicyKind::Lru, 3, 4);
    }

    #[test]
    fn single_shard_matches_sequential_buffer_exactly() {
        let (mut disk_a, ids) = disk_with_pages(128);
        let accesses = trace(&ids, 4_000);

        let mut sequential = BufferManager::with_policy(PolicyKind::Asb, 24);
        for &(id, q) in &accesses {
            sequential
                .fetch(&mut disk_a, id, AccessContext::query(q))
                .unwrap();
        }

        let (disk_b, _) = disk_with_pages(128);
        let pool = ShardedBuffer::new(disk_b, PolicyKind::Asb, 24, 1);
        for &(id, q) in &accesses {
            pool.fetch(id, AccessContext::query(q)).unwrap();
        }

        assert_eq!(pool.stats(), sequential.stats());
        assert_eq!(pool.io_stats().reads, disk_a.stats().reads);
    }

    /// The clock-exact form of the `fetch_batch` contract, over the
    /// manager's own primitives: probe every first occurrence, then per
    /// remaining slot read + admit (a first-occurrence miss) or fetch (a
    /// repeat). The timestamp-ranking policies (ASB, LRU-K) cannot be
    /// pinned through `BufferManager`'s public API — `tests/sharded.rs`
    /// covers the others that way — so they are pinned here.
    #[test]
    fn single_shard_batches_match_probe_then_resolve_exactly() {
        for kind in [PolicyKind::Asb, PolicyKind::LruK { k: 2 }] {
            let (mut disk, ids) = disk_with_pages(128);
            let mut seq = BufferManager::with_policy(kind, 24);
            let (pool_disk, _) = disk_with_pages(128);
            let pool = ShardedBuffer::new(pool_disk, kind, 24, 1);
            for (b, chunk) in trace(&ids, 3_000).chunks(10).enumerate() {
                let ctx = AccessContext::query(QueryId::new(b as u64));
                let batch: Vec<PageId> = chunk.iter().map(|&(id, _)| id).collect();
                let first = |i: usize| !batch[..i].contains(&batch[i]);
                let mut slots: Vec<_> = (0..batch.len())
                    .map(|i| {
                        first(i)
                            .then(|| seq.probe(batch[i], ctx).unwrap())
                            .flatten()
                    })
                    .collect();
                let mut hits: Vec<bool> = slots.iter().map(Option::is_some).collect();
                for i in 0..batch.len() {
                    if slots[i].is_none() && first(i) {
                        slots[i] = Some(seq.read_miss(&mut disk, batch[i], ctx).unwrap());
                    } else if slots[i].is_none() {
                        let before = seq.stats().hits;
                        slots[i] = Some(seq.fetch(&mut disk, batch[i], ctx).unwrap());
                        hits[i] = seq.stats().hits > before;
                    }
                }
                let served = pool.fetch_batch(&batch, ctx);
                let flags: Vec<bool> = served.iter().map(|s| s.as_ref().unwrap().1).collect();
                assert_eq!(flags, hits, "{kind:?}: hit flags of batch {b}");
                drop((slots, served));
                assert_eq!(pool.stats(), seq.stats(), "{kind:?}: after batch {b}");
            }
            assert!(seq.stats().evictions > 0 && seq.stats().hits > 0);
            assert_eq!(pool.io_stats().reads, disk.stats().reads);
        }
    }

    #[test]
    fn parallel_reads_preserve_accounting_invariants() {
        let (disk, ids) = disk_with_pages(96);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 32, 4);
        thread::scope(|s| {
            for t in 0..4u64 {
                let pool = pool.clone();
                let ids = ids.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let id = ids[((t * 31 + i * 7) % ids.len() as u64) as usize];
                        let page = pool
                            .fetch(id, AccessContext::query(QueryId::new(i)))
                            .unwrap();
                        assert_eq!(page.id, id);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.logical_reads, 2_000);
        assert_eq!(stats.hits + stats.misses, stats.logical_reads);
        assert!(pool.resident() <= pool.capacity());
        // Every miss reads the store under its shard lock, so even under
        // eviction pressure each counted miss is exactly one read.
        assert_eq!(pool.io_stats().reads, stats.misses);
        assert_eq!(pool.live_guards(), 0);
    }

    #[test]
    fn concurrent_misses_on_one_page_cost_one_store_read() {
        let (disk, ids) = disk_with_pages(1);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 2);
        let id = ids[0];
        thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    let page = pool.fetch(id, AccessContext::default()).unwrap();
                    assert_eq!(page.id, id);
                });
            }
        });
        assert_eq!(
            pool.io_stats().reads,
            1,
            "eight concurrent readers of one non-resident page must coalesce \
             into exactly one physical read"
        );
        assert_eq!(pool.stats().logical_reads, 8);
        // The reader that brought the page in is the one miss; the seven
        // that took the shard lock after it are hits.
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 7);
    }

    #[test]
    fn guards_pin_frames_against_eviction() {
        let (disk, ids) = disk_with_pages(8);
        // Capacity 2 over 1 shard: churning 7 other pages must evict
        // everything except the guarded frame.
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
        let guard = pool.fetch(ids[0], AccessContext::default()).unwrap();
        assert_eq!(pool.live_guards(), 1);
        for &id in &ids[1..] {
            pool.fetch(id, AccessContext::default()).unwrap();
        }
        assert!(
            pool.contains(ids[0]),
            "a guarded frame must survive eviction churn"
        );
        assert_eq!(guard.payload.as_ref(), &[0]);
        drop(guard);
        assert_eq!(pool.live_guards(), 0);
    }

    #[test]
    fn with_store_is_gated_on_live_guards() {
        let (disk, ids) = disk_with_pages(4);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 4, 2);
        let guard = pool.fetch(ids[0], AccessContext::default()).unwrap();
        assert_eq!(
            pool.with_store(|s| s.page_count()).unwrap_err(),
            StorageError::GuardsOutstanding(1)
        );
        let pool = pool.try_into_store().expect_err("guard keeps pool intact");
        drop(guard);
        assert_eq!(pool.with_store(|s| s.page_count()).unwrap(), 4);
        let disk = pool.try_into_store().expect("no guards, sole handle");
        assert_eq!(disk.page_count(), 4);
    }

    #[test]
    fn write_guard_commits_through_the_buffered_path() {
        let (disk, ids) = disk_with_pages(4);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 4, 2);
        let mut guard = pool.fetch_mut(ids[0], AccessContext::default()).unwrap();
        guard.set_payload(Bytes::from_static(b"edited")).unwrap();
        guard.commit().unwrap();
        assert_eq!(pool.dirty_count(), 1, "commit dirties, does not write out");
        let read = pool.fetch(ids[0], AccessContext::default()).unwrap();
        assert_eq!(read.payload.as_ref(), b"edited");
        drop(read);
        pool.flush().unwrap();
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.write_drop_failures(), 0);
    }

    #[test]
    fn discarded_write_guard_changes_nothing() {
        let (disk, ids) = disk_with_pages(2);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
        let mut guard = pool.fetch_mut(ids[0], AccessContext::default()).unwrap();
        guard.set_payload(Bytes::from_static(b"oops")).unwrap();
        guard.discard();
        assert_eq!(pool.dirty_count(), 0);
        let read = pool.fetch(ids[0], AccessContext::default()).unwrap();
        assert_eq!(read.payload.as_ref(), &[0]);
    }

    /// The `fetch_batch` contract, both sides: equal to the sequential
    /// order when no admission in the batch evicts a later batch member,
    /// and the minimal case where it is not.
    #[test]
    fn batch_equals_sequential_unless_an_admission_evicts_a_later_member() {
        // LRU, 2 frames, resident {x, y} with x the least recently used.
        let run = |order: [usize; 2], batched: bool| {
            let (disk, ids) = disk_with_pages(3);
            let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
            let ctx = AccessContext::default();
            for &id in &ids[..2] {
                pool.fetch(id, ctx).unwrap();
            }
            let before = pool.stats();
            let batch = order.map(|i| ids[i]);
            let hits: Vec<bool> = if batched {
                let slots = pool.fetch_batch(&batch, ctx);
                slots.into_iter().map(|slot| slot.unwrap().1).collect()
            } else {
                let one = |&id| pool.fetch_classified(id, ctx).unwrap().1;
                batch.iter().map(one).collect()
            };
            let after = pool.stats();
            (hits, after.hits - before.hits, after.evictions)
        };
        let (x, z) = (0, 2);
        // [x, z]: z's admission evicts y, not a batch member — equal.
        assert_eq!(run([x, z], true), (vec![true, false], 1, 1));
        assert_eq!(run([x, z], true), run([x, z], false));
        // [z, x]: sequentially z's admission evicts x (the LRU frame), so
        // x misses; batched, x was probed — hit and pinned — before z was
        // admitted, so y is evicted instead.
        assert_eq!(run([z, x], true), (vec![false, true], 1, 1));
        assert_eq!(run([z, x], false), (vec![false, false], 0, 2));
    }

    #[test]
    fn writes_are_visible_across_handles_and_threads() {
        let (disk, ids) = disk_with_pages(16);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 16, 4);
        thread::scope(|s| {
            for (t, chunk) in ids.chunks(4).enumerate() {
                let pool = pool.clone();
                let chunk = chunk.to_vec();
                s.spawn(move || {
                    for &id in &chunk {
                        let payload = Bytes::from(vec![t as u8 + 100]);
                        pool.write(Page::new(id, meta(), payload).unwrap()).unwrap();
                    }
                });
            }
        });
        for (t, chunk) in ids.chunks(4).enumerate() {
            for &id in chunk {
                let got = pool.fetch(id, AccessContext::default()).unwrap();
                assert_eq!(
                    got.payload.as_ref(),
                    &[t as u8 + 100],
                    "lost write to {id:?}"
                );
            }
        }
    }

    #[test]
    fn allocate_and_free_route_to_the_owning_shard() {
        let (disk, _) = disk_with_pages(0);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 8, 2);
        let id = pool.allocate(meta(), Bytes::from_static(b"fresh")).unwrap();
        assert!(pool.contains(id), "allocated page must be admitted");
        assert_eq!(
            pool.fetch(id, AccessContext::default())
                .unwrap()
                .payload
                .as_ref(),
            b"fresh"
        );
        pool.free(id).unwrap();
        assert!(!pool.contains(id));
        assert_eq!(
            pool.fetch(id, AccessContext::default()).unwrap_err(),
            StorageError::PageNotFound(id)
        );
    }

    #[test]
    fn clear_and_reset_io_stats_start_a_fresh_measurement() {
        let (disk, ids) = disk_with_pages(32);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 16, 4);
        for &id in &ids {
            pool.fetch(id, AccessContext::default()).unwrap();
        }
        assert!(pool.io_stats().reads > 0);
        pool.clear();
        pool.reset_io_stats();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), BufferStats::default());
        assert_eq!(pool.io_stats(), IoStats::default());
    }

    #[test]
    fn pool_flush_aggregates_failures_across_shards() {
        use asb_storage::{FaultConfig, FaultyStore};
        let (disk, ids) = disk_with_pages(16);
        let store = FaultyStore::new(disk, FaultConfig::reliable());
        let pool = ShardedBuffer::new(store, PolicyKind::Lru, 16, 4);
        for (i, &id) in ids.iter().enumerate() {
            pool.write_buffered(Page::new(id, meta(), Bytes::from(vec![i as u8])).unwrap())
                .unwrap();
        }
        // Fail two pages routed to different shards.
        let (a, b) = {
            let mut picked: Vec<PageId> = Vec::new();
            for &id in &ids {
                if picked
                    .iter()
                    .all(|&p| pool.shard_of(p) != pool.shard_of(id))
                {
                    picked.push(id);
                }
                if picked.len() == 2 {
                    break;
                }
            }
            (picked[0], picked[1])
        };
        pool.with_store(|s| {
            s.mark_permanent(a);
            s.mark_permanent(b);
        })
        .unwrap();
        let err = pool.flush().unwrap_err();
        let StorageError::FlushIncomplete { failures } = err else {
            panic!("expected FlushIncomplete, got {err:?}");
        };
        let mut failed: Vec<PageId> = failures.iter().map(|(id, _)| *id).collect();
        failed.sort_unstable();
        let mut expected = vec![a, b];
        expected.sort_unstable();
        assert_eq!(failed, expected, "failures from every shard are collected");
        assert_eq!(pool.dirty_count(), 2);
        // Every healthy page reached the store despite the failing shards.
        pool.with_store(|s| {
            for (i, &id) in ids.iter().enumerate() {
                if id != a && id != b {
                    assert_eq!(s.inner().peek(id).unwrap().payload.as_ref(), &[i as u8]);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn pool_checkpoint_covers_every_shards_dirty_frames() {
        use asb_storage::{Wal, WalConfig, WalRecord};
        let (disk, ids) = disk_with_pages(16);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 16, 4);
        let wal = Wal::shared(WalConfig::default());
        pool.attach_wal(wal.clone());
        for (i, &id) in ids.iter().enumerate() {
            pool.write_buffered(Page::new(id, meta(), Bytes::from(vec![i as u8])).unwrap())
                .unwrap();
        }
        let ckpt = pool.checkpoint().unwrap();
        let (records, _) = wal.lock().scan();
        let Some(WalRecord::Checkpoint { lsn, redo_from }) = records.last() else {
            panic!("checkpoint record must be last");
        };
        assert_eq!(*lsn, ckpt);
        assert_eq!(
            *redo_from,
            Lsn(0),
            "the horizon is the pool-wide oldest dirty image, not one shard's"
        );
        assert_eq!(pool.stats().checkpoints, 1);
        assert_eq!(pool.stats().wal_appends, ids.len() as u64);
        // After a full flush the next checkpoint points past the log head.
        pool.flush().unwrap();
        pool.checkpoint().unwrap();
        let (records, _) = wal.lock().scan();
        let Some(WalRecord::Checkpoint { redo_from, .. }) = records.last() else {
            panic!("checkpoint record must be last");
        };
        assert_eq!(redo_from.0, ids.len() as u64 + 1);
    }

    #[test]
    fn try_into_store_returns_the_disk_when_unique() {
        let (disk, ids) = disk_with_pages(4);
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 4, 2);
        let other = pool.clone();
        let pool = pool.try_into_store().expect_err("second handle alive");
        drop(other);
        let disk = pool.try_into_store().expect("last handle");
        assert_eq!(disk.page_count(), ids.len());
    }
}
