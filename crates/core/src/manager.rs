use crate::guard::{PageReadGuard, PinToken};
use crate::order::IdMap;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::pool::FetchOutcome;
use crate::sync::Counter;
use asb_storage::{
    page_checksum, AccessContext, Lsn, Page, PageId, PageMeta, PageStore, Result, SharedWal,
    StorageError,
};
use bytes::Bytes;
use serde::Serialize;
use std::sync::Arc;

/// Logical access statistics of a [`BufferManager`].
///
/// The buffer is a write-back cache: reads miss into the store, and
/// buffered writes ([`BufferManager::write_buffered`]) only mark a frame
/// dirty, deferring the store write to eviction or flush. On a fault-free
/// read-only workload `misses` equals the number of physical disk reads
/// caused through this buffer — the paper's "number of disk accesses",
/// under any interleaving of a pool's threads — but on faulty stores
/// retried fetches re-read without re-counting a miss, so physical reads
/// can exceed `misses`. The robustness counters
/// (`retries`, `corruptions`, `failed_evictions`) stay zero on a
/// fault-free store, and the durability counters (`wal_appends`,
/// `checkpoints`) stay zero unless a write-ahead log is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BufferStats {
    /// Total page requests served.
    pub logical_reads: u64,
    /// Requests satisfied from the buffer.
    pub hits: u64,
    /// Requests that had to read the underlying store.
    pub misses: u64,
    /// Pages dropped to make room.
    pub evictions: u64,
    /// Transient store failures absorbed by re-attempting the operation.
    pub retries: u64,
    /// Checksum mismatches detected (in fetched copies or resident frames).
    pub corruptions: u64,
    /// Evictions abandoned because the victim's write-back failed; the
    /// victim stays resident and `evictions` is *not* incremented.
    pub failed_evictions: u64,
    /// Dirty pages successfully written back (evictions and flushes).
    pub writebacks: u64,
    /// Page images appended to the attached write-ahead log.
    pub wal_appends: u64,
    /// Checkpoint records appended to the attached write-ahead log.
    pub checkpoints: u64,
    /// Page fetches that failed permanently and were surfaced to the
    /// caller: the retry budget was exhausted on a transient fault, or the
    /// error was non-transient to begin with (e.g. a permanent device
    /// failure). One count per failed request — the per-page give-up slots
    /// of a partial-failure `fetch_batch` each count once.
    pub give_ups: u64,
    /// Admissions skipped because every frame was pinned by a live guard.
    /// The operation still succeeds — a read is served from the fetched
    /// copy without caching it, a buffered write falls back to writing
    /// through — so a transiently pin-saturated buffer degrades instead
    /// of failing. Persistently non-zero means the pool is undersized for
    /// the number of concurrently held guards.
    pub pin_overflows: u64,
    /// Expert-arena only: number of times eviction authority moved to a
    /// different expert ([`PolicyKind::Arena`]). Zero for every other
    /// policy.
    pub authority_switches: u64,
    /// Expert-arena only: counterfactual (ghost-cache) misses of the best
    /// expert in hindsight. `misses - best_expert_misses` is the arena's
    /// cumulative regret (possibly negative — the mix can beat every
    /// individual expert). Zero for every other policy.
    pub best_expert_misses: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; zero when nothing was read yet.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.hits as f64 / self.logical_reads as f64
        }
    }
}

impl std::ops::Add for BufferStats {
    type Output = BufferStats;

    fn add(self, rhs: BufferStats) -> BufferStats {
        BufferStats {
            logical_reads: self.logical_reads + rhs.logical_reads,
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            retries: self.retries + rhs.retries,
            corruptions: self.corruptions + rhs.corruptions,
            failed_evictions: self.failed_evictions + rhs.failed_evictions,
            writebacks: self.writebacks + rhs.writebacks,
            wal_appends: self.wal_appends + rhs.wal_appends,
            checkpoints: self.checkpoints + rhs.checkpoints,
            give_ups: self.give_ups + rhs.give_ups,
            pin_overflows: self.pin_overflows + rhs.pin_overflows,
            authority_switches: self.authority_switches + rhs.authority_switches,
            best_expert_misses: self.best_expert_misses + rhs.best_expert_misses,
        }
    }
}

impl std::ops::AddAssign for BufferStats {
    fn add_assign(&mut self, rhs: BufferStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for BufferStats {
    /// Sums per-shard snapshots into pool-wide statistics (used by the
    /// sharded buffer pool).
    fn sum<I: Iterator<Item = BufferStats>>(iter: I) -> BufferStats {
        iter.fold(BufferStats::default(), |acc, s| acc + s)
    }
}

/// The I/O surface a [`BufferManager`] needs from its backing store: fetch a
/// page on a miss, write a page back on a dirty eviction or flush.
///
/// Every [`PageStore`] is a `StoreIo`; the sharded pool supplies an adapter
/// that takes its store lock per operation.
pub trait StoreIo {
    /// Fetches a page from the backing store.
    fn fetch(&mut self, id: PageId, ctx: AccessContext) -> Result<Page>;

    /// Writes a page back to the backing store.
    fn store(&mut self, page: &Page) -> Result<()>;
}

impl<S: PageStore> StoreIo for S {
    fn fetch(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.read(id, ctx)
    }

    fn store(&mut self, page: &Page) -> Result<()> {
        self.write(page.clone())
    }
}

/// The error for a dirty frame whose payload no longer matches its
/// recorded checksum.
fn dirty_rot(page: &Page) -> StorageError {
    StorageError::DirtyFrameCorrupt {
        id: page.id,
        expected: page.checksum(),
        actual: page_checksum(&page.payload),
    }
}

struct Frame {
    page: Page,
    /// Pin count, shared with every live [`PageReadGuard`] on this frame.
    /// Increments happen while the buffer is mutably borrowed (under the
    /// shard lock in a pool); decrements are lock-free guard drops. The
    /// eviction scan also runs under the mutable borrow, so a frame it
    /// observes unpinned cannot gain a pin before the eviction completes.
    pins: Arc<Counter>,
    /// The frame holds changes not yet written to the backing store.
    dirty: bool,
    /// LSN of the oldest WAL image covering unwritten changes of this
    /// frame; `None` when clean or when no WAL is attached. Checkpoints
    /// take the minimum over dirty frames as their redo horizon.
    rec_lsn: Option<Lsn>,
}

/// A buffer (page cache) of fixed capacity with a pluggable replacement
/// policy.
///
/// The manager does not own a disk; compose it with any
/// [`PageStore`] via [`fetch`](BufferManager::fetch) /
/// [`write_through`](BufferManager::write_through), or hold the pair as a
/// [`PageFile`]. Reads hand out RAII [`PageReadGuard`]s: the guard
/// pins the frame (excluding it from eviction) until dropped, and derefs
/// to the page. Writes come in two flavours:
/// [`write_through`](BufferManager::write_through) updates the store
/// immediately, while [`write_buffered`](BufferManager::write_buffered)
/// only marks the frame dirty and defers the store write to eviction or
/// [`flush`](BufferManager::flush) (write-back caching). With a
/// write-ahead log attached ([`attach_wal`](BufferManager::attach_wal)),
/// every write appends a full-page image to the log *before* the buffer
/// or store changes, so a crash between dirtying and write-back loses
/// nothing (see `asb_storage::Wal`).
///
/// ```
/// use asb_core::{BufferManager, PolicyKind};
/// use asb_geom::SpatialStats;
/// use asb_storage::{AccessContext, DiskManager, PageMeta, PageStore};
///
/// let mut disk = DiskManager::new();
/// let id = disk
///     .allocate(PageMeta::data(SpatialStats::EMPTY), bytes::Bytes::from_static(b"hello"))
///     .unwrap();
/// disk.reset_stats();
///
/// let mut buf = BufferManager::with_policy(PolicyKind::Asb, 8);
/// for _ in 0..10 {
///     let page = buf.fetch(&mut disk, id, AccessContext::default()).unwrap();
///     assert_eq!(page.payload.as_ref(), b"hello");
/// }
/// // One physical read; nine buffer hits.
/// assert_eq!(disk.stats().reads, 1);
/// assert_eq!(buf.stats().hits, 9);
/// ```
pub struct BufferManager {
    policy: Box<dyn ReplacementPolicy + Send>,
    kind: PolicyKind,
    capacity: usize,
    frames: IdMap<PageId, Frame>,
    stats: BufferStats,
    tick: u64,
    /// Tries a transient store fault gets, the first included (≥ 1).
    retry_attempts: u32,
    /// Optional write-ahead log making buffered writes durable.
    wal: Option<SharedWal>,
    /// Append a checkpoint automatically every N image appends (`None`
    /// disables). Only meaningful for a buffer owning its WAL exclusively;
    /// shards of a pool must checkpoint pool-wide instead.
    checkpoint_interval: Option<u64>,
    /// Image appends since the last checkpoint (for the auto-interval).
    appends_since_checkpoint: u64,
    /// Guards handed out by this buffer that are still alive. Shared with
    /// every [`PinToken`], which decrements it lock-free on drop; pools
    /// sum this across shards to gate their escape hatches.
    live_guards: Arc<Counter>,
}

impl std::fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferManager")
            .field("policy", &self.kind.label())
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BufferManager {
    /// Creates a buffer of `capacity` pages using the given policy.
    ///
    /// # Panics
    /// Panics if `capacity == 0`; a zero-page buffer cannot hold the page it
    /// is currently serving.
    pub fn with_policy(kind: PolicyKind, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be at least one page");
        BufferManager {
            policy: kind.build(capacity),
            kind,
            capacity,
            frames: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            stats: BufferStats::default(),
            tick: 0,
            retry_attempts: Self::RETRY_ATTEMPTS,
            wal: None,
            checkpoint_interval: None,
            appends_since_checkpoint: 0,
            live_guards: Arc::default(),
        }
    }

    /// Number of [`PageReadGuard`]s (and write guards derived from them)
    /// handed out by this buffer that have not been dropped yet.
    pub fn live_guards(&self) -> u64 {
        self.live_guards.get()
    }

    /// The policy this buffer was built with.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The replacement policy, for its introspection: ASB's candidate set,
    /// retained history, the arena's state.
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &*self.policy
    }

    /// Buffer capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Whether `id` is currently buffered (no access is recorded).
    pub fn contains(&self, id: PageId) -> bool {
        self.frames.contains_key(&id)
    }

    /// Access statistics so far. For the expert arena
    /// ([`PolicyKind::Arena`]) the policy-owned counters
    /// (`authority_switches`, `best_expert_misses`) are merged into the
    /// snapshot; they stay zero for every other policy.
    pub fn stats(&self) -> BufferStats {
        let mut stats = self.stats;
        if let Some(arena) = self.policy.arena_state() {
            stats.authority_switches = arena.switches;
            stats.best_expert_misses = arena.best_expert_misses();
        }
        stats
    }

    /// Resets the access statistics (pages stay resident).
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// Sets how many tries a transient store fault gets, the first
    /// included (four by default); `0` means one, as does `1`.
    pub fn set_retry_attempts(&mut self, attempts: u32) {
        self.retry_attempts = attempts.max(1);
    }

    /// Attaches a write-ahead log: from now on every write (buffered or
    /// through) appends a full-page image to `wal` before the buffer or
    /// store changes, making buffered writes crash-durable.
    ///
    /// Attach *before* dirtying frames — changes buffered earlier were
    /// never logged, so no recovery can restore them. The shards of a
    /// `ShardedBuffer` all share one log (see `ShardedBuffer::attach_wal`).
    pub fn attach_wal(&mut self, wal: SharedWal) {
        self.wal = Some(wal);
    }

    /// Appends a checkpoint automatically after every `interval` image
    /// appends (`None` disables). Only for a buffer that owns its WAL
    /// exclusively: a shard of a pool must never checkpoint alone, because
    /// its local dirty set does not bound the redo work of its siblings.
    pub fn set_checkpoint_interval(&mut self, interval: Option<u64>) {
        self.checkpoint_interval = match interval {
            Some(0) => None,
            other => other,
        };
    }

    /// The minimum `rec_lsn` over dirty frames: the LSN redo must start
    /// from for this buffer's unwritten changes. `None` when no dirty
    /// frame carries a logged change.
    pub(crate) fn min_rec_lsn(&self) -> Option<Lsn> {
        self.frames
            .values()
            .filter(|f| f.dirty)
            .filter_map(|f| f.rec_lsn)
            .min()
    }

    /// Appends a fuzzy checkpoint to the attached WAL and prunes log
    /// segments that no longer bound recovery. The checkpoint does **not**
    /// flush: it records where redo must start (the minimum `rec_lsn`
    /// over dirty frames, or the log's next LSN when nothing is dirty).
    ///
    /// Fails with [`StorageError::WalUnavailable`] when no WAL is
    /// attached.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.checkpoint_from(None)
    }

    /// [`checkpoint`](BufferManager::checkpoint) with an explicit redo
    /// horizon. A buffer pool passes the minimum `rec_lsn` across **all**
    /// its shards, since they share one log and one recovery.
    pub(crate) fn checkpoint_from(&mut self, redo_override: Option<Lsn>) -> Result<Lsn> {
        let wal = self.wal.clone().ok_or(StorageError::WalUnavailable)?;
        let mut wal = wal.lock();
        let redo_from = redo_override
            .or_else(|| self.min_rec_lsn())
            .unwrap_or_else(|| wal.next_lsn());
        let lsn = wal.append_checkpoint(redo_from)?;
        wal.prune_before(redo_from);
        self.stats.checkpoints += 1;
        self.appends_since_checkpoint = 0;
        Ok(lsn)
    }

    /// Appends `page`'s image to the attached WAL (no-op without one),
    /// returning the image's LSN.
    fn wal_append(&mut self, page: &Page) -> Result<Option<Lsn>> {
        let Some(wal) = self.wal.clone() else {
            return Ok(None);
        };
        let lsn = wal.lock().append_image(page)?;
        self.stats.wal_appends += 1;
        self.appends_since_checkpoint += 1;
        Ok(Some(lsn))
    }

    /// Runs the auto-interval checkpoint if one is due.
    fn maybe_auto_checkpoint(&mut self) -> Result<()> {
        if let Some(interval) = self.checkpoint_interval {
            if self.wal.is_some() && self.appends_since_checkpoint >= interval {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Number of resident frames holding changes not yet written back.
    pub fn dirty_count(&self) -> usize {
        self.frames.values().filter(|f| f.dirty).count()
    }

    /// Damages the resident copy of `id` (payload altered, recorded checksum
    /// preserved), returning whether a frame was poisoned. Test support for
    /// the fault-injection suite: a poisoned frame must be detected on its
    /// next access instead of being served.
    pub fn poison_frame(&mut self, id: PageId) -> bool {
        let Some(frame) = self.frames.get_mut(&id) else {
            return false;
        };
        frame.page = frame.page.damaged();
        true
    }

    /// Reads a page through the buffer, fetching from `io` on a miss, and
    /// returns an RAII [`PageReadGuard`]: the frame stays pinned (excluded
    /// from eviction) until the guard drops, and the guard derefs to the
    /// page.
    ///
    /// This is the single read path of the buffer — each shard of the
    /// sharded pool runs it under its shard lock — so hit/miss/eviction
    /// accounting is identical no matter how the backing store is reached.
    ///
    /// Robustness semantics:
    /// * a resident frame whose payload no longer matches its checksum is
    ///   never served: a clean one is discarded and re-fetched, a dirty one
    ///   (the only copy of its changes) stays put and the read fails with
    ///   [`StorageError::DirtyFrameCorrupt`],
    /// * a fetched copy failing its checksum, and any transient store
    ///   error, is retried up to the buffer's attempt budget; an exhausted
    ///   budget surfaces as [`StorageError::RetriesExhausted`].
    pub fn fetch<IO: StoreIo + ?Sized>(
        &mut self,
        io: &mut IO,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<PageReadGuard> {
        self.fetch_classified(io, id, ctx).map(|out| out.guard)
    }

    /// [`fetch`](BufferManager::fetch), additionally reporting whether the
    /// request was a hit: [`probe`](BufferManager::probe), then on a miss
    /// [`read_miss`](BufferManager::read_miss).
    pub(crate) fn fetch_classified<IO: StoreIo + ?Sized>(
        &mut self,
        io: &mut IO,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<FetchOutcome> {
        if let Some(guard) = self.probe(id, ctx)? {
            return Ok(FetchOutcome { guard, hit: true });
        }
        let guard = self.read_miss(io, id, ctx)?;
        Ok(FetchOutcome { guard, hit: false })
    }

    /// First half of a read: records the access and serves a hit from the
    /// resident frame, or counts the miss and returns `Ok(None)` (a corrupt
    /// *clean* resident copy is discarded and becomes a counted miss; a
    /// corrupt *dirty* one fails the read, see
    /// [`discard_rotten`](BufferManager::discard_rotten)).
    pub(crate) fn probe(
        &mut self,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<Option<PageReadGuard>> {
        self.stats.logical_reads += 1;
        self.tick += 1;
        if let Some(frame) = self.frames.get(&id) {
            if frame.page.verify_checksum() {
                self.stats.hits += 1;
                self.policy.on_hit(&frame.page, ctx, self.tick);
                return Ok(Some(
                    self.guard(frame.page.clone(), Arc::clone(&frame.pins)),
                ));
            }
            // The resident copy rotted in memory: a counted miss, which
            // re-fetches a clean copy unless the frame has to stay.
            self.stats.misses += 1;
            return self.discard_rotten(id).map(|()| None);
        }
        self.stats.misses += 1;
        Ok(None)
    }

    /// The mismatch branch of [`probe`](BufferManager::probe): the frame
    /// of `id` failed its checksum. A clean frame is dropped — the store
    /// holds the same bytes, the caller re-fetches them. A **dirty** frame
    /// is the only copy of its unwritten changes: dropping it would
    /// silently serve the stale store copy in its place, so it stays
    /// resident and dirty and the read fails with the non-transient
    /// [`StorageError::DirtyFrameCorrupt`] (counted as a give-up).
    fn discard_rotten(&mut self, id: PageId) -> Result<()> {
        self.stats.corruptions += 1;
        if let Some(frame) = self.frames.get(&id).filter(|f| f.dirty) {
            let err = dirty_rot(&frame.page);
            self.stats.give_ups += 1;
            return Err(err);
        }
        self.frames.remove(&id);
        self.policy.on_remove(id);
        Ok(())
    }

    /// Second half of a read whose access [`probe`](BufferManager::probe)
    /// counted as a miss: fetches the page, retrying transient faults, and
    /// admits it.
    pub(crate) fn read_miss<IO: StoreIo + ?Sized>(
        &mut self,
        io: &mut IO,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<PageReadGuard> {
        let page = self.fetch_with_retry(io, id, ctx)?;
        self.admit_fetched(page, ctx, io)
    }

    /// Admits a fetched page (evicting if needed) and pins it.
    ///
    /// If every frame is pinned by a live guard, the page is served
    /// *unbuffered* instead of failing: the guard owns a copy of the
    /// fetched page, so correctness does not require residency — the copy
    /// just is not cached for the next reader. Counted in
    /// [`BufferStats::pin_overflows`].
    fn admit_fetched<IO: StoreIo + ?Sized>(
        &mut self,
        page: Page,
        ctx: AccessContext,
        io: &mut IO,
    ) -> Result<PageReadGuard> {
        let admitted = self.admit_or_overflow(page.clone(), ctx, false, None, io)?;
        debug_assert!(!admitted || self.frames.contains_key(&page.id));
        // Served unbuffered, the token counts toward `live_guards` but pins
        // no frame, so the buffer's eviction is unaffected by the guard.
        let pins = match self.frames.get(&page.id) {
            Some(frame) if admitted => Arc::clone(&frame.pins),
            _ => Arc::default(),
        };
        Ok(self.guard(page, pins))
    }

    /// A read guard over `page` holding `pins`, its frame's pin count.
    fn guard(&self, page: Page, pins: Arc<Counter>) -> PageReadGuard {
        PageReadGuard::new(page, PinToken::new(pins, Arc::clone(&self.live_guards)))
    }

    /// Fetches `id`, retrying transient failures up to the attempt budget. A
    /// delivered copy that fails its checksum counts a corruption and is
    /// retried like a transient fault; a fetch that fails for good counts
    /// a give-up (see [`BufferStats::give_ups`]).
    fn fetch_with_retry<IO: StoreIo + ?Sized>(
        &mut self,
        io: &mut IO,
        id: PageId,
        ctx: AccessContext,
    ) -> Result<Page> {
        let fetched = self.with_retry(id, |stats| {
            let page = io.fetch(id, ctx)?;
            if page.verify_checksum() {
                return Ok(page);
            }
            stats.corruptions += 1;
            Err(StorageError::ChecksumMismatch {
                id,
                expected: page.checksum(),
                actual: page_checksum(&page.payload),
            })
        });
        if fetched.is_err() {
            self.stats.give_ups += 1;
        }
        fetched
    }

    /// Writes `page` back, retrying transient failures up to the attempt
    /// budget.
    fn store_with_retry<IO: StoreIo + ?Sized>(&mut self, io: &mut IO, page: &Page) -> Result<()> {
        self.with_retry(page.id, |_| io.store(page))
    }

    /// Default attempt budget: one try plus up to three retries.
    const RETRY_ATTEMPTS: u32 = 4;

    /// The one bounded-retry loop of the buffer: runs `op` (handed the
    /// statistics, to count what it detects) until it succeeds or fails
    /// non-transiently. Every transient failure but the last of the
    /// attempt budget adds to `retries`; the last one surfaces as
    /// [`StorageError::RetriesExhausted`]. The store is simulated, so a
    /// retry waits for nothing and is charged nothing beyond its I/O.
    fn with_retry<T>(
        &mut self,
        id: PageId,
        mut op: impl FnMut(&mut BufferStats) -> Result<T>,
    ) -> Result<T> {
        let budget = self.retry_attempts;
        let mut failed = 0u32;
        loop {
            let err = match op(&mut self.stats) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if !err.is_transient() {
                return Err(err);
            }
            failed += 1;
            if failed >= budget {
                return Err(StorageError::RetriesExhausted {
                    id,
                    attempts: failed,
                    last: Box::new(err),
                });
            }
            self.stats.retries += 1;
        }
    }

    /// Writes a dirty frame's page back — after verifying it: a frame that
    /// rotted while dirty must never reach the store, where its recorded
    /// checksum would make the damage permanent. A mismatch fails like a
    /// permanent write-back failure, so the caller keeps the frame
    /// resident and dirty.
    fn write_back_verified<IO: StoreIo + ?Sized>(
        &mut self,
        io: &mut IO,
        page: &Page,
    ) -> Result<()> {
        if !page.verify_checksum() {
            self.stats.corruptions += 1;
            return Err(dirty_rot(page));
        }
        self.store_with_retry(io, page)
    }

    /// Writes a page through the buffer: the underlying store is updated,
    /// and a resident copy (if any) is refreshed along with the policy's
    /// view of the page's metadata. Transient write faults are retried.
    /// With a WAL attached the page image is logged before the store
    /// write, so a torn store write is repairable by redo.
    pub fn write_through<IO: StoreIo + ?Sized>(&mut self, io: &mut IO, page: Page) -> Result<()> {
        self.wal_append(&page)?;
        self.store_with_retry(io, &page)?;
        if let Some(frame) = self.frames.get_mut(&page.id) {
            frame.page = page.clone();
            frame.dirty = false;
            frame.rec_lsn = None;
            self.policy.on_update(&page);
        }
        self.maybe_auto_checkpoint()
    }

    /// Writes a page into the buffer only, deferring the store write to
    /// eviction or [`flush`](BufferManager::flush) (write-back caching).
    ///
    /// The frame is marked dirty; evicting it later performs the write-back,
    /// and a failed write-back leaves the page resident (see
    /// [`BufferStats::failed_evictions`]); `io` is only used if admission
    /// must evict. With a WAL attached the page image is appended *before*
    /// the frame is dirtied (WAL-before-write-back): the append is the
    /// commit point, and a crash any time after it cannot lose the update.
    pub fn write_buffered<IO: StoreIo + ?Sized>(&mut self, io: &mut IO, page: Page) -> Result<()> {
        let lsn = self.wal_append(&page)?;
        if let Some(frame) = self.frames.get_mut(&page.id) {
            frame.page = page.clone();
            frame.dirty = true;
            // The oldest unwritten change keeps its LSN: redo must start
            // there, not at the latest image.
            frame.rec_lsn = frame.rec_lsn.or(lsn);
            self.policy.on_update(&page);
            return self.maybe_auto_checkpoint();
        }
        self.tick += 1;
        if !self.admit_or_overflow(page.clone(), AccessContext::default(), true, lsn, io)? {
            // Every frame is pinned: fall back to writing through. The WAL
            // image is already appended (the commit point is unchanged);
            // the store write makes the update durable without needing a
            // resident dirty frame.
            self.store_with_retry(io, &page)?;
        }
        self.maybe_auto_checkpoint()
    }

    /// Writes every dirty frame back to the store (in page-id order, for
    /// determinism), clearing the dirty marks. Every frame is verified
    /// against its checksum first — a rotted dirty frame is never written.
    /// Transient faults are retried. A permanent failure does **not**
    /// abort the flush: every dirty frame is attempted, failed ones stay
    /// resident and dirty, and the failures surface as one aggregated
    /// [`StorageError::FlushIncomplete`] naming every failed page.
    pub fn flush<IO: StoreIo + ?Sized>(&mut self, io: &mut IO) -> Result<()> {
        let mut dirty: Vec<PageId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort_unstable();
        self.write_back(io, dirty)
    }

    /// Writes the frames of `ids` back in the given order, attempting
    /// every one, and aggregates the failures.
    fn write_back<IO: StoreIo + ?Sized>(&mut self, io: &mut IO, ids: Vec<PageId>) -> Result<()> {
        let mut failures = Vec::new();
        for id in ids {
            let Some(page) = self.frames.get(&id).map(|f| f.page.clone()) else {
                continue;
            };
            match self.write_back_verified(io, &page) {
                Ok(()) => {
                    self.stats.writebacks += 1;
                    if let Some(frame) = self.frames.get_mut(&id) {
                        frame.dirty = false;
                        frame.rec_lsn = None;
                    }
                }
                Err(e) => failures.push((id, Box::new(e))),
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushIncomplete { failures })
        }
    }

    /// Allocates a page in `inner` and admits it to the buffer (a freshly
    /// created page is about to be used, so caching it is the common case).
    pub fn allocate_through<S: PageStore>(
        &mut self,
        inner: &mut S,
        meta: PageMeta,
        payload: Bytes,
    ) -> Result<PageId> {
        let id = inner.allocate(meta, payload.clone())?;
        self.admit_new(Page::new(id, meta, payload)?, inner)?;
        Ok(id)
    }

    /// Admits a page that was just allocated in the backing store.
    ///
    /// The sharded pool allocates under the store lock, releases it, and
    /// then admits under the owning shard's lock — this is the second phase,
    /// of which [`allocate_through`] is the one-call form; `io` serves a
    /// dirty victim's write-back.
    ///
    /// [`allocate_through`]: BufferManager::allocate_through
    pub(crate) fn admit_new<IO: StoreIo + ?Sized>(
        &mut self,
        page: Page,
        io: &mut IO,
    ) -> Result<()> {
        self.tick += 1;
        // The page is already durable in the store; if every frame is
        // pinned it simply is not cached.
        self.admit_or_overflow(page, AccessContext::default(), false, None, io)?;
        Ok(())
    }

    /// Frees a page in `inner` and drops any buffered copy.
    pub fn free_through<S: PageStore>(&mut self, inner: &mut S, id: PageId) -> Result<()> {
        inner.free(id)?;
        self.invalidate(id);
        Ok(())
    }

    /// Drops a buffered copy without touching the underlying store.
    /// No-op if the page is not resident.
    pub fn invalidate(&mut self, id: PageId) {
        if self.frames.remove(&id).is_some() {
            self.policy.on_remove(id);
        }
    }

    /// Drops every buffered page and resets statistics — the paper clears
    /// the buffer before each query set. Dirty frames are discarded without
    /// a write-back; call [`flush`](BufferManager::flush) first to keep
    /// deferred writes. The policy hears the removals in page-id order,
    /// as `flush` writes: a policy that remembers evicted pages (2Q's
    /// ghost queue) keeps them in that order.
    pub fn clear(&mut self) {
        let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.frames.remove(&id);
            self.policy.on_remove(id);
        }
        self.reset_stats();
    }

    /// [`admit_frame`](BufferManager::admit_frame), except that a buffer
    /// whose every frame is pinned by a live guard is *not* an error:
    /// the admission is skipped, [`BufferStats::pin_overflows`] counts it,
    /// and `Ok(false)` tells the caller to serve its copy unbuffered (or
    /// write through). Pins are transient in the common case — concurrent
    /// readers in a small shard — so refusing the whole operation would
    /// turn a momentary overlap into a spurious failure.
    fn admit_or_overflow<IO: StoreIo + ?Sized>(
        &mut self,
        page: Page,
        ctx: AccessContext,
        dirty: bool,
        rec_lsn: Option<Lsn>,
        io: &mut IO,
    ) -> Result<bool> {
        match self.admit_frame(page, ctx, dirty, rec_lsn, io) {
            Ok(()) => Ok(true),
            Err(StorageError::AllPagesPinned) => {
                self.stats.pin_overflows += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn admit_frame<IO: StoreIo + ?Sized>(
        &mut self,
        page: Page,
        ctx: AccessContext,
        dirty: bool,
        rec_lsn: Option<Lsn>,
        io: &mut IO,
    ) -> Result<()> {
        if self.frames.len() >= self.capacity {
            self.evict_one(ctx, io)?;
        }
        self.policy.on_insert(&page, ctx, self.tick);
        self.frames.insert(
            page.id,
            Frame {
                page,
                pins: Arc::default(),
                dirty,
                rec_lsn,
            },
        );
        Ok(())
    }

    /// Evicts one page. A dirty victim is verified and written back first;
    /// if it fails its checksum or the write-back fails, the victim stays
    /// resident, the policy keeps its bookkeeping for the page, and the
    /// eviction is recorded as *failed* rather than completed.
    fn evict_one<IO: StoreIo + ?Sized>(&mut self, ctx: AccessContext, io: &mut IO) -> Result<()> {
        // Pin loads are race-free here: new pins require this same mutable
        // borrow (the shard lock in a pool), and concurrent guard drops
        // only ever *decrease* a count — a frame observed unpinned stays
        // evictable. For the same reason no live guard means no pinned
        // frame: a guard releases its pin before its live-guard tick.
        let unpinned = |f: &Frame| f.pins.get() == 0;
        let victim = if self.live_guards() == 0 {
            self.policy.select_victim_unpinned(ctx)
        } else if self.frames.values().any(unpinned) {
            let frames = &self.frames;
            (self.policy).select_victim(ctx, &|id| frames.get(&id).is_some_and(unpinned))
        } else {
            None
        };
        let victim = victim.ok_or(StorageError::AllPagesPinned)?;
        debug_assert!(
            self.frames.get(&victim).is_some_and(unpinned),
            "policy returned a non-evictable victim"
        );
        if let Some(page) = self
            .frames
            .get(&victim)
            .filter(|f| f.dirty)
            .map(|f| f.page.clone())
        {
            if let Err(e) = self.write_back_verified(io, &page) {
                self.stats.failed_evictions += 1;
                return Err(e);
            }
            self.stats.writebacks += 1;
            if let Some(frame) = self.frames.get_mut(&victim) {
                frame.dirty = false;
            }
        }
        self.frames.remove(&victim);
        self.policy.on_remove(victim);
        self.stats.evictions += 1;
        Ok(())
    }
}

/// A page store with an optional [`BufferManager`] in front of it.
///
/// This is what index structures hold: every node access goes through the
/// one `match` on the buffer below, so attaching, detaching or swapping a
/// buffer (or its policy) never changes index code.
#[derive(Debug)]
pub struct PageFile<S> {
    store: S,
    buffer: Option<BufferManager>,
}

impl<S: PageStore> PageFile<S> {
    /// Wraps `store`, unbuffered.
    pub fn new(store: S) -> Self {
        PageFile {
            store,
            buffer: None,
        }
    }

    /// Reads page `id` and hands it to `f`. With a buffer attached the
    /// frame stays pinned exactly as long as `f` runs; without one `f`
    /// sees the store's copy. Neither path clones the page for the caller.
    pub fn read<R>(
        &mut self,
        id: PageId,
        ctx: AccessContext,
        f: impl FnOnce(&Page) -> Result<R>,
    ) -> Result<R> {
        match &mut self.buffer {
            Some(buf) => f(&*buf.fetch(&mut self.store, id, ctx)?),
            None => f(&self.store.read(id, ctx)?),
        }
    }

    /// Writes `page` (write-through when buffered).
    pub fn write(&mut self, page: Page) -> Result<()> {
        match &mut self.buffer {
            Some(buf) => buf.write_through(&mut self.store, page),
            None => self.store.write(page),
        }
    }

    /// Allocates a page (admitting it to the buffer, if any).
    pub fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        match &mut self.buffer {
            Some(buf) => buf.allocate_through(&mut self.store, meta, payload),
            None => self.store.allocate(meta, payload),
        }
    }

    /// Frees a page (dropping any buffered copy).
    pub fn free(&mut self, id: PageId) -> Result<()> {
        match &mut self.buffer {
            Some(buf) => buf.free_through(&mut self.store, id),
            None => self.store.free(id),
        }
    }

    /// Attaches (or replaces) the buffer.
    pub fn set_buffer(&mut self, buffer: BufferManager) {
        self.buffer = Some(buffer);
    }

    /// Detaches and returns the buffer, if any.
    pub fn take_buffer(&mut self) -> Option<BufferManager> {
        self.buffer.take()
    }

    /// The attached buffer.
    pub fn buffer(&self) -> Option<&BufferManager> {
        self.buffer.as_ref()
    }

    /// Mutable access to the attached buffer.
    pub fn buffer_mut(&mut self) -> Option<&mut BufferManager> {
        self.buffer.as_mut()
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the backing store (bypasses the buffer — callers
    /// must [`BufferManager::invalidate`] any page they mutate this way).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Unwraps into the backing store, dropping the buffer.
    pub fn into_store(self) -> S {
        self.store
    }
}

/// Test fixture: a fresh disk of `n` data pages of the one byte `i`.
#[cfg(test)]
pub(crate) fn disk_with_pages(n: usize) -> (asb_storage::DiskManager, Vec<PageId>) {
    let mut disk = asb_storage::DiskManager::new();
    let meta = PageMeta::data(asb_geom::SpatialStats::EMPTY);
    let ids = (0..n)
        .map(|i| disk.allocate(meta, Bytes::from(vec![i as u8])).unwrap())
        .collect();
    disk.reset_stats();
    (disk, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;
    use asb_storage::DiskManager;

    fn meta() -> PageMeta {
        PageMeta::data(SpatialStats::EMPTY)
    }

    fn setup(capacity: usize, pages: usize) -> (DiskManager, BufferManager, Vec<PageId>) {
        let (disk, ids) = disk_with_pages(pages);
        let buffer = BufferManager::with_policy(PolicyKind::Lru, capacity);
        (disk, buffer, ids)
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    #[test]
    fn hit_avoids_disk_access() {
        let (mut disk, mut buf, ids) = setup(4, 2);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(disk.stats().reads, 1);
        let s = buf.stats();
        assert_eq!((s.logical_reads, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let (mut disk, mut buf, ids) = setup(3, 10);
        for &id in &ids {
            buf.fetch(&mut disk, id, ctx()).unwrap();
            assert!(buf.resident() <= 3);
        }
        assert_eq!(buf.stats().evictions, 7);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut disk, mut buf, ids) = setup(2, 3);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        buf.fetch(&mut disk, ids[1], ctx()).unwrap();
        buf.fetch(&mut disk, ids[0], ctx()).unwrap(); // touch 0
        buf.fetch(&mut disk, ids[2], ctx()).unwrap(); // evicts 1
        assert!(buf.contains(ids[0]));
        assert!(!buf.contains(ids[1]));
        assert!(buf.contains(ids[2]));
    }

    #[test]
    fn guarded_pages_survive_eviction() {
        let (mut disk, mut buf, ids) = setup(2, 4);
        let pinned = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        for &id in &ids[1..] {
            buf.fetch(&mut disk, id, ctx()).unwrap();
        }
        assert!(buf.contains(ids[0]), "pinned page must not be evicted");
        assert_eq!(pinned.id, ids[0]);
        assert_eq!(buf.live_guards(), 1);
        drop(pinned);
        assert_eq!(buf.live_guards(), 0);
    }

    #[test]
    fn all_pinned_serves_unbuffered() {
        let (mut disk, mut buf, ids) = setup(2, 3);
        let _g0 = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        let _g1 = buf.fetch(&mut disk, ids[1], ctx()).unwrap();
        // Every frame is pinned: the read still succeeds, served from the
        // fetched copy without caching it (pins keep their frames).
        let g2 = buf.fetch(&mut disk, ids[2], ctx()).unwrap();
        assert_eq!(g2.id, ids[2]);
        assert!(!buf.contains(ids[2]), "overflow read must not be cached");
        assert!(buf.contains(ids[0]) && buf.contains(ids[1]));
        assert_eq!(buf.stats().pin_overflows, 1);
        assert_eq!(buf.live_guards(), 3);
    }

    #[test]
    fn guard_pins_nest() {
        let (mut disk, mut buf, ids) = setup(1, 2);
        let g1 = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        let g2 = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(buf.live_guards(), 2);
        drop(g1);
        // One guard still lives: the frame stays pinned, and the buffer is
        // full, so another fetch is served unbuffered instead of evicting.
        drop(buf.fetch(&mut disk, ids[1], ctx()).unwrap());
        assert!(buf.contains(ids[0]), "pinned page must survive overflow");
        assert!(!buf.contains(ids[1]), "overflow read must not be cached");
        assert_eq!(buf.stats().pin_overflows, 1);
        drop(g2);
        buf.fetch(&mut disk, ids[1], ctx()).unwrap();
        assert!(!buf.contains(ids[0]), "unpinned page becomes evictable");
        assert_eq!(buf.live_guards(), 0);
    }

    #[test]
    fn write_through_updates_resident_copy() {
        let (mut disk, mut buf, ids) = setup(2, 1);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        let updated = Page::new(ids[0], meta(), Bytes::from_static(b"xyz")).unwrap();
        buf.write_through(&mut disk, updated).unwrap();
        let got = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(got.payload.as_ref(), b"xyz");
        // Still a hit: only the original miss touched the disk for reads.
        assert_eq!(disk.stats().reads, 1);
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"xyz");
    }

    #[test]
    fn clear_empties_buffer_and_stats() {
        let (mut disk, mut buf, ids) = setup(4, 3);
        for &id in &ids {
            buf.fetch(&mut disk, id, ctx()).unwrap();
        }
        buf.clear();
        assert_eq!(buf.resident(), 0);
        assert_eq!(buf.stats(), BufferStats::default());
        // Pages must be re-fetched afterwards.
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(buf.stats().misses, 1);
    }

    /// Sends the `on_remove` calls it hears, in order.
    struct RemovalLog(std::sync::mpsc::Sender<PageId>);

    impl ReplacementPolicy for RemovalLog {
        fn on_insert(&mut self, _: &Page, _: AccessContext, _: u64) {}
        fn on_hit(&mut self, _: &Page, _: AccessContext, _: u64) {}
        fn on_remove(&mut self, id: PageId) {
            self.0.send(id).unwrap();
        }
        fn select_victim(
            &mut self,
            _: AccessContext,
            _: &dyn Fn(PageId) -> bool,
        ) -> Option<PageId> {
            None
        }
    }

    #[test]
    fn clear_removes_in_page_id_order() {
        let (mut disk, mut buf, ids) = setup(64, 64);
        // Admit in a scrambled order so neither admission nor hash order
        // is ascending by accident.
        for i in 0..64 {
            buf.fetch(&mut disk, ids[(i * 37) % 64], ctx()).unwrap();
        }
        let (log, removed) = std::sync::mpsc::channel();
        buf.policy = Box::new(RemovalLog(log));
        buf.clear();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(removed.try_iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn free_through_invalidates() {
        let (mut disk, mut buf, ids) = setup(4, 2);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        buf.free_through(&mut disk, ids[0]).unwrap();
        assert!(!buf.contains(ids[0]));
        assert!(buf.fetch(&mut disk, ids[0], ctx()).is_err());
    }

    #[test]
    fn allocate_through_admits_page() {
        let (mut disk, mut buf, _) = setup(4, 0);
        let id = buf
            .allocate_through(&mut disk, meta(), Bytes::from_static(b"new"))
            .unwrap();
        assert!(buf.contains(id));
        // Reading it back is a hit.
        buf.fetch(&mut disk, id, ctx()).unwrap();
        assert_eq!(buf.stats().hits, 1);
        assert_eq!(disk.stats().reads, 0);
    }

    #[test]
    fn page_file_is_transparent() {
        let (mut disk, _, ids) = setup(1, 3);
        let raw: Vec<Page> = ids
            .iter()
            .map(|&id| disk.read(id, ctx()).unwrap())
            .collect();
        let mut file = PageFile::new(disk);
        for buffered in [false, true] {
            if buffered {
                file.set_buffer(BufferManager::with_policy(PolicyKind::Lru, 2));
            }
            for (i, &id) in ids.iter().enumerate() {
                let got = file.read(id, ctx(), |p| Ok(p.clone())).unwrap();
                assert_eq!(got, raw[i]);
            }
        }
        assert_eq!(file.buffer().unwrap().stats().misses, 3);
        assert_eq!(file.store().page_count(), 3);
    }

    #[test]
    fn hit_ratio_math() {
        let s = BufferStats {
            logical_reads: 10,
            hits: 7,
            misses: 3,
            ..BufferStats::default()
        };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn stats_sum_includes_robustness_counters() {
        let a = BufferStats {
            retries: 2,
            corruptions: 1,
            failed_evictions: 1,
            writebacks: 3,
            ..BufferStats::default()
        };
        let b = BufferStats {
            retries: 1,
            ..BufferStats::default()
        };
        let sum: BufferStats = [a, b].into_iter().sum();
        assert_eq!(sum.retries, 3);
        assert_eq!(sum.corruptions, 1);
        assert_eq!(sum.failed_evictions, 1);
        assert_eq!(sum.writebacks, 3);
    }

    #[test]
    fn poisoned_frame_is_refetched_not_served() {
        let (mut disk, mut buf, ids) = setup(4, 1);
        let clean = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert!(buf.poison_frame(ids[0]));
        let again = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(*again, *clean, "the served copy must be the clean one");
        let s = buf.stats();
        assert_eq!(s.corruptions, 1);
        assert_eq!(s.misses, 2, "the poisoned hit degrades to a miss");
        assert_eq!(s.evictions, 0, "corruption discard is not an eviction");
        assert_eq!(disk.stats().reads, 2);
    }

    /// The bug this pins: a dirty frame that rotted used to be dropped and
    /// re-fetched like a clean one — the read came back `Ok` with the
    /// *old* store payload and the buffered write was gone.
    #[test]
    fn poisoned_dirty_frame_fails_the_read_and_keeps_the_write() {
        let (mut disk, mut buf, ids) = setup(4, 1);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        let update = Page::new(ids[0], meta(), Bytes::from_static(b"new")).unwrap();
        buf.write_buffered(&mut disk, update.clone()).unwrap();
        assert!(buf.poison_frame(ids[0]));
        let err = buf.fetch(&mut disk, ids[0], ctx()).unwrap_err();
        assert!(
            matches!(err, StorageError::DirtyFrameCorrupt { id, expected, .. }
                if id == ids[0] && expected == update.checksum()),
            "got {err:?}"
        );
        assert!(!err.is_transient());
        assert!(buf.contains(ids[0]), "the only copy of the write stays");
        assert_eq!(buf.dirty_count(), 1, "and stays dirty");
        let s = buf.stats();
        assert_eq!((s.logical_reads, s.hits, s.misses), (2, 0, 2));
        assert_eq!((s.corruptions, s.give_ups), (1, 1));
        assert_eq!(disk.stats().reads, 1, "the stale store copy is not read");
        // Rewriting the page replaces the rotten frame: the pool heals.
        buf.write_buffered(&mut disk, update).unwrap();
        let healed = buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        assert_eq!(healed.payload.as_ref(), b"new");
    }

    /// The other half of the bug: `flush` and dirty eviction used to hand
    /// a rotted dirty frame to the store, recorded checksum and all — a
    /// store copy that can never verify again.
    #[test]
    fn poisoned_dirty_frame_is_never_written_back() {
        let (mut disk, mut buf, ids) = setup(1, 2);
        let update = Page::new(ids[0], meta(), Bytes::from_static(b"new")).unwrap();
        buf.write_buffered(&mut disk, update).unwrap();
        assert!(buf.poison_frame(ids[0]));

        let err = buf.flush(&mut disk).unwrap_err();
        let StorageError::FlushIncomplete { failures } = err else {
            panic!("expected FlushIncomplete, got {err:?}");
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, ids[0]);
        assert!(matches!(
            *failures[0].1,
            StorageError::DirtyFrameCorrupt { .. }
        ));

        // Evicting it (capacity 1) fails exactly like a failed write-back.
        let err = buf.fetch(&mut disk, ids[1], ctx()).unwrap_err();
        assert!(matches!(err, StorageError::DirtyFrameCorrupt { id, .. } if id == ids[0]));
        let s = buf.stats();
        assert_eq!((s.failed_evictions, s.evictions, s.writebacks), (1, 0, 0));
        assert_eq!(s.corruptions, 2, "flush and the eviction each detect it");
        assert!(buf.contains(ids[0]) && !buf.contains(ids[1]));
        assert_eq!(buf.dirty_count(), 1);
        let stored = disk.peek(ids[0]).unwrap();
        assert!(stored.verify_checksum(), "the store never saw the rot");
        assert_eq!(stored.payload.as_ref(), &[0]);
    }

    #[test]
    fn write_buffered_defers_and_flush_writes_back() {
        let (mut disk, mut buf, ids) = setup(4, 1);
        buf.fetch(&mut disk, ids[0], ctx()).unwrap();
        let updated = Page::new(ids[0], meta(), Bytes::from_static(b"deferred")).unwrap();
        buf.write_buffered(&mut disk, updated).unwrap();
        assert_eq!(buf.dirty_count(), 1);
        assert_ne!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"deferred");
        buf.flush(&mut disk).unwrap();
        assert_eq!(buf.dirty_count(), 0);
        assert_eq!(buf.stats().writebacks, 1);
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"deferred");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut disk, mut buf, ids) = setup(1, 2);
        let updated = Page::new(ids[0], meta(), Bytes::from_static(b"dirty")).unwrap();
        buf.write_buffered(&mut disk, updated).unwrap();
        // Admitting another page evicts the dirty one, writing it back.
        buf.fetch(&mut disk, ids[1], ctx()).unwrap();
        assert!(!buf.contains(ids[0]));
        assert_eq!(buf.stats().writebacks, 1);
        assert_eq!(buf.stats().evictions, 1);
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"dirty");
    }

    #[test]
    fn non_transient_write_back_errors_are_not_retried() {
        use asb_storage::{FaultConfig, FaultyStore};
        let (disk, mut buf, ids) = setup(2, 1);
        let mut store = FaultyStore::new(disk, FaultConfig::reliable());
        let page = Page::new(ids[0], meta(), Bytes::from_static(b"doomed")).unwrap();
        buf.write_buffered(&mut store, page).unwrap();
        store.mark_permanent(ids[0]);
        let err = buf.flush(&mut store).unwrap_err();
        let StorageError::FlushIncomplete { failures } = err else {
            panic!("expected FlushIncomplete, got {err:?}");
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, ids[0]);
        assert_eq!(
            *failures[0].1,
            StorageError::DeviceFailed(ids[0]),
            "the permanent failure passes through unwrapped and unretried"
        );
        assert_eq!(buf.stats().retries, 0);
    }

    #[test]
    fn default_retry_budget_is_four_attempts() {
        use asb_storage::{FaultConfig, FaultyStore};
        let (disk, mut buf, ids) = setup(2, 1);
        let mut store = FaultyStore::new(disk, FaultConfig::transient(1, 1.0));
        let err = buf.fetch(&mut store, ids[0], ctx()).unwrap_err();
        let StorageError::RetriesExhausted { id, attempts, last } = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!((id, attempts), (ids[0], 4));
        assert!(last.is_transient());
        assert_eq!(buf.stats().retries, 3, "one try plus three retries");
        assert_eq!(store.fault_stats().read_faults, 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = BufferManager::with_policy(PolicyKind::Lru, 0);
    }

    #[test]
    fn flush_attempts_every_frame_and_aggregates_failures() {
        use asb_storage::{FaultConfig, FaultyStore};
        let (disk, mut buf, ids) = setup(8, 4);
        let mut store = FaultyStore::new(disk, FaultConfig::reliable());
        for (i, &id) in ids.iter().enumerate() {
            let page = Page::new(id, meta(), Bytes::from(vec![0xf0 + i as u8])).unwrap();
            buf.write_buffered(&mut store, page).unwrap();
        }
        store.mark_permanent(ids[1]);
        store.mark_permanent(ids[2]);
        let err = buf.flush(&mut store).unwrap_err();
        let StorageError::FlushIncomplete { failures } = err else {
            panic!("expected FlushIncomplete, got {err:?}");
        };
        let failed: Vec<PageId> = failures.iter().map(|(id, _)| *id).collect();
        assert_eq!(failed, vec![ids[1], ids[2]], "both failed pages named");
        // The healthy frames were written back despite the failures...
        assert_eq!(buf.stats().writebacks, 2);
        assert_eq!(
            store.inner().peek(ids[0]).unwrap().payload.as_ref(),
            &[0xf0]
        );
        assert_eq!(
            store.inner().peek(ids[3]).unwrap().payload.as_ref(),
            &[0xf3]
        );
        // ...and the failed ones stay resident and dirty for a later retry.
        assert_eq!(buf.dirty_count(), 2);
        store.heal(ids[1]);
        store.heal(ids[2]);
        buf.flush(&mut store).unwrap();
        assert_eq!(buf.dirty_count(), 0);
        assert_eq!(
            store.inner().peek(ids[2]).unwrap().payload.as_ref(),
            &[0xf2]
        );
    }

    #[test]
    fn buffered_writes_append_to_the_wal_before_the_store_changes() {
        use asb_storage::{Wal, WalConfig, WalRecord};
        let (mut disk, mut buf, ids) = setup(4, 2);
        let wal = Wal::shared(WalConfig::default());
        buf.attach_wal(wal.clone());
        let page = Page::new(ids[0], meta(), Bytes::from_static(b"logged")).unwrap();
        buf.write_buffered(&mut disk, page.clone()).unwrap();
        // The image is durable in the log while the store is still stale.
        assert_ne!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"logged");
        let (records, torn) = wal.lock().scan();
        assert_eq!(torn, 0);
        assert_eq!(
            records,
            vec![WalRecord::Image {
                lsn: asb_storage::Lsn(0),
                page
            }]
        );
        assert_eq!(buf.stats().wal_appends, 1);
        assert_eq!(buf.min_rec_lsn(), Some(asb_storage::Lsn(0)));
        // Write-back clears the redo horizon.
        buf.flush(&mut disk).unwrap();
        assert_eq!(buf.min_rec_lsn(), None);
    }

    #[test]
    fn rec_lsn_keeps_the_oldest_unwritten_image() {
        use asb_storage::{Wal, WalConfig};
        let (mut disk, mut buf, ids) = setup(4, 1);
        buf.attach_wal(Wal::shared(WalConfig::default()));
        for round in 0..3u8 {
            let page = Page::new(ids[0], meta(), Bytes::from(vec![round])).unwrap();
            buf.write_buffered(&mut disk, page).unwrap();
        }
        // Three images logged, but redo must start at the first one.
        assert_eq!(buf.stats().wal_appends, 3);
        assert_eq!(buf.min_rec_lsn(), Some(asb_storage::Lsn(0)));
    }

    #[test]
    fn checkpoint_records_the_dirty_horizon_and_counts() {
        use asb_storage::{Wal, WalConfig, WalRecord};
        let (mut disk, mut buf, ids) = setup(4, 2);
        let wal = Wal::shared(WalConfig::default());
        buf.attach_wal(wal.clone());
        // Nothing dirty: the checkpoint's horizon is the log head.
        let first = buf.checkpoint().unwrap();
        buf.write_buffered(
            &mut disk,
            Page::new(ids[0], meta(), Bytes::from_static(b"a")).unwrap(),
        )
        .unwrap();
        let second = buf.checkpoint().unwrap();
        let (records, _) = wal.lock().scan();
        assert_eq!(
            records[0],
            WalRecord::Checkpoint {
                lsn: first,
                redo_from: asb_storage::Lsn(0)
            },
            "an all-clean checkpoint's horizon is the log head"
        );
        assert_eq!(
            records[2],
            WalRecord::Checkpoint {
                lsn: second,
                redo_from: asb_storage::Lsn(1)
            },
            "a dirty frame pins the horizon at its rec_lsn"
        );
        assert_eq!(buf.stats().checkpoints, 2);
    }

    #[test]
    fn checkpoint_without_wal_is_a_typed_error() {
        let (_, mut buf, _) = setup(2, 0);
        assert_eq!(buf.checkpoint().unwrap_err(), StorageError::WalUnavailable);
    }

    #[test]
    fn auto_checkpoint_interval_fires_every_n_appends() {
        use asb_storage::{Wal, WalConfig};
        let (mut disk, mut buf, ids) = setup(8, 4);
        buf.attach_wal(Wal::shared(WalConfig::default()));
        buf.set_checkpoint_interval(Some(3));
        for round in 0..9u8 {
            let id = ids[round as usize % ids.len()];
            let page = Page::new(id, meta(), Bytes::from(vec![round])).unwrap();
            buf.write_buffered(&mut disk, page).unwrap();
        }
        assert_eq!(buf.stats().wal_appends, 9);
        assert_eq!(buf.stats().checkpoints, 3);
        // Interval zero disables.
        buf.set_checkpoint_interval(Some(0));
        for round in 0..4u8 {
            let page = Page::new(ids[0], meta(), Bytes::from(vec![round])).unwrap();
            buf.write_buffered(&mut disk, page).unwrap();
        }
        assert_eq!(buf.stats().checkpoints, 3);
    }

    #[test]
    fn write_through_logs_an_image_for_torn_write_repair() {
        use asb_storage::{Wal, WalConfig};
        let (mut disk, mut buf, ids) = setup(4, 1);
        let wal = Wal::shared(WalConfig::default());
        buf.attach_wal(wal.clone());
        let page = Page::new(ids[0], meta(), Bytes::from_static(b"through")).unwrap();
        buf.write_through(&mut disk, page).unwrap();
        assert_eq!(buf.stats().wal_appends, 1);
        assert_eq!(wal.lock().stats().image_appends, 1);
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), b"through");
    }
}
