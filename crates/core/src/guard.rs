//! RAII page guards: the buffer's read/write access tokens.
//!
//! A [`PageReadGuard`] is handed out by the `fetch` family and represents
//! one pin on the underlying frame: while any guard for a page is alive,
//! the frame cannot be evicted. The pin is a pair of shared atomic
//! counters (the frame's pin count and the pool's live-guard count), so
//! dropping a guard releases the pin without taking any lock — shard locks
//! are released before user code ever touches the page bytes, and drop is
//! wait-free.
//!
//! A [`PageWriteGuard`] additionally carries a private working copy of the
//! page and a commit sink back into the owning pool. Mutations edit the
//! working copy; [`commit`](PageWriteGuard::commit) publishes it through
//! the pool's buffered-write path, which appends the WAL image first,
//! marks the frame dirty and stamps its `rec_lsn` — the same
//! WAL-before-dirty protocol as `write_buffered`. Dropping a guard
//! without `commit` discards its edits.
//!
//! Pin increments happen under the owning shard's lock (guards are only
//! created by the buffer while it is mutably borrowed); decrements are
//! lock-free. The eviction scan reads the pin count under the same shard
//! lock, so a frame observed unpinned there is genuinely evictable: no new
//! pin can appear without the lock.
//!
//! A pin belongs to the thread that fetched it: [`PinToken`] is `!Send`
//! and `!Sync`, and so are both guards and every type holding one
//! (`FetchOutcome`, `PageFetchResult`). Handing a guard to another thread
//! — `thread::spawn`, a scoped thread, a channel, a `JoinHandle` — is a
//! compile error (see [`PageReadGuard`]).

use crate::sync::Counter;
use asb_storage::{Page, Result};
use bytes::Bytes;
use std::marker::PhantomData;
use std::sync::Arc;

/// One pin on a buffered frame plus one tick of the pool's live-guard
/// count. Construction pins (under the owning buffer's borrow); drop
/// unpins without locking. Tokens stay sound even if the frame is
/// invalidated or the pool cleared while they are live: the counters are
/// shared, so the decrement is never lost and never misdirected.
#[derive(Debug)]
pub(crate) struct PinToken {
    pins: Arc<Counter>,
    live: Arc<Counter>,
    /// Zero-sized `!Send + !Sync` marker: the pin stays on its thread.
    _local: PhantomData<*const ()>,
}

impl PinToken {
    /// Pins: increments both counters. Called while the owning buffer is
    /// mutably borrowed (i.e. under the shard lock), which is what makes
    /// the eviction scan's unpinned-check race-free.
    pub(crate) fn new(pins: Arc<Counter>, live: Arc<Counter>) -> Self {
        pins.incr();
        live.incr();
        PinToken {
            pins,
            live,
            _local: PhantomData,
        }
    }
}

impl Drop for PinToken {
    fn drop(&mut self) {
        // Pin first, live count second. An eviction that reads a live count
        // of zero under the shard lock skips the per-frame pin check, which
        // is sound only if every pin is already gone by then; the reverse
        // order would open a window where a pinned frame looks free.
        self.pins.decr();
        self.live.decr();
    }
}

/// Shared read access to a buffered page; the frame stays pinned (never
/// evicted) until the guard drops.
///
/// The guard owns a copy of the page (payloads are cheaply-cloned
/// [`Bytes`]), so it stays valid even across pool operations that touch
/// the frame; the pin's job is residency, not aliasing.
///
/// The guard is `!Send`: the pin stays on the thread that fetched it. The
/// page itself may travel:
///
/// ```
/// use asb_core::{PolicyKind, ShardedBuffer};
/// use asb_geom::SpatialStats;
/// use asb_storage::{AccessContext, DiskManager, PageMeta, PageStore};
///
/// let mut disk = DiskManager::new();
/// let id = disk.allocate(PageMeta::data(SpatialStats::EMPTY), bytes::Bytes::new())?;
/// let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
/// let guard = pool.fetch(id, AccessContext::default())?;
/// let page = guard.into_page(); // unpins
/// std::thread::spawn(move || drop(page)).join().unwrap();
/// # Ok::<(), asb_storage::StorageError>(())
/// ```
///
/// The guard may not:
///
/// ```compile_fail
/// use asb_core::{PolicyKind, ShardedBuffer};
/// use asb_geom::SpatialStats;
/// use asb_storage::{AccessContext, DiskManager, PageMeta, PageStore};
///
/// let mut disk = DiskManager::new();
/// let id = disk.allocate(PageMeta::data(SpatialStats::EMPTY), bytes::Bytes::new())?;
/// let pool = ShardedBuffer::new(disk, PolicyKind::Lru, 2, 1);
/// let guard = pool.fetch(id, AccessContext::default())?;
/// std::thread::spawn(move || drop(guard)).join().unwrap(); // `*const ()` cannot be sent
/// # Ok::<(), asb_storage::StorageError>(())
/// ```
#[derive(Debug)]
pub struct PageReadGuard {
    page: Page,
    token: PinToken,
}

impl PageReadGuard {
    pub(crate) fn new(page: Page, token: PinToken) -> Self {
        PageReadGuard { page, token }
    }

    /// The guarded page.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// Consumes the guard (releasing the pin) and returns the page.
    pub fn into_page(self) -> Page {
        self.page
    }

    /// Splits into the page and the still-held pin (for upgrading into a
    /// write guard without unpinning in between).
    pub(crate) fn into_parts(self) -> (Page, PinToken) {
        (self.page, self.token)
    }
}

impl std::ops::Deref for PageReadGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.page
    }
}

/// The pool-side half of a write guard: publishes the edited page through
/// the pool's buffered-write path (WAL append, dirty mark, `rec_lsn`).
pub(crate) trait WriteSink: Send + Sync {
    fn commit(&self, page: Page) -> Result<()>;
}

/// Exclusive read-modify-write access to a buffered page.
///
/// Mutations edit a private working copy; nothing is visible to other
/// sessions until [`commit`](PageWriteGuard::commit) publishes it through
/// the pool (WAL image first, then the frame is dirtied and its `rec_lsn`
/// stamped). Dropping a guard without `commit` discards its edits.
pub struct PageWriteGuard {
    page: Page,
    touched: bool,
    sink: Box<dyn WriteSink>,
    _token: PinToken,
}

impl PageWriteGuard {
    pub(crate) fn new(page: Page, token: PinToken, sink: Box<dyn WriteSink>) -> Self {
        PageWriteGuard {
            page,
            touched: false,
            sink,
            _token: token,
        }
    }

    /// The current (possibly edited, not yet committed) page.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// Replaces the payload, recomputing the checksum.
    pub fn set_payload(&mut self, payload: Bytes) -> Result<()> {
        self.page = Page::new(self.page.id, self.page.meta, payload)?;
        self.touched = true;
        Ok(())
    }

    /// Publishes the edits through the pool's buffered-write path and
    /// releases the guard. No-op (still releasing) if nothing was edited.
    pub fn commit(self) -> Result<()> {
        if self.touched {
            self.sink.commit(self.page)
        } else {
            Ok(())
        }
    }
}

impl std::ops::Deref for PageWriteGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.page
    }
}

impl std::fmt::Debug for PageWriteGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageWriteGuard")
            .field("page", &self.page.id)
            .field("touched", &self.touched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;
    use asb_storage::{PageId, PageMeta};

    fn page(raw: u64, tag: u8) -> Page {
        Page::new(
            PageId::new(raw),
            PageMeta::data(SpatialStats::EMPTY),
            Bytes::from(vec![tag]),
        )
        .expect("page")
    }

    fn counters() -> (Arc<Counter>, Arc<Counter>) {
        (Arc::default(), Arc::default())
    }

    #[test]
    fn token_balances_both_counters() {
        let (pins, live) = counters();
        {
            let _a = PinToken::new(Arc::clone(&pins), Arc::clone(&live));
            let _b = PinToken::new(Arc::clone(&pins), Arc::clone(&live));
            assert_eq!(pins.get(), 2);
            assert_eq!(live.get(), 2);
        }
        assert_eq!(pins.get(), 0);
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn read_guard_derefs_to_the_page() {
        let (pins, live) = counters();
        let g = PageReadGuard::new(page(3, 7), PinToken::new(pins, Arc::clone(&live)));
        assert_eq!(g.id, PageId::new(3));
        assert_eq!(g.payload.as_ref(), &[7]);
        assert_eq!(g.page().id, PageId::new(3));
        let p = g.into_page();
        assert_eq!(p.payload.as_ref(), &[7]);
        assert_eq!(live.get(), 0);
    }

    struct Recording(Arc<crate::sync::Mutex<Vec<Page>>>);
    impl WriteSink for Recording {
        fn commit(&self, page: Page) -> Result<()> {
            self.0.lock().push(page);
            Ok(())
        }
    }

    fn write_guard(sink_log: &Arc<crate::sync::Mutex<Vec<Page>>>) -> PageWriteGuard {
        let (pins, live) = counters();
        PageWriteGuard::new(
            page(5, 1),
            PinToken::new(pins, live),
            Box::new(Recording(Arc::clone(sink_log))),
        )
    }

    #[test]
    fn untouched_write_guard_commits_nothing() {
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        drop(write_guard(&log));
        write_guard(&log).commit().expect("commit");
        assert!(log.lock().is_empty());
    }

    #[test]
    fn edited_write_guard_publishes_on_commit_only() {
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut g = write_guard(&log);
        g.set_payload(Bytes::from_static(&[8])).expect("payload");
        drop(g);
        assert!(log.lock().is_empty(), "drop discards");
        let mut g = write_guard(&log);
        g.set_payload(Bytes::from_static(&[9])).expect("payload");
        g.commit().expect("commit");
        let committed = log.lock();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].payload.as_ref(), &[9]);
    }
}
