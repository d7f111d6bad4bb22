//! A page-store decorator that records the logical access sequence.
//!
//! [`RecordingStore`] appends `(page, query)` to an in-memory log on every
//! read, which is exactly the information a replacement policy sees: replaying
//! the log against a buffer reproduces the original run's hits, misses and
//! physical I/O bit-for-bit. The trace facility in `asb-exp` uses it to
//! capture experiment workloads into portable trace files.
//!
//! Recording sits *below* a buffer (the buffer's misses would otherwise hide
//! logical accesses), so wrap the disk, not the buffered store, and place the
//! wrapper directly under the index: `RTree<RecordingStore<DiskManager>>`.

use bytes::Bytes;

use crate::sync::{Flag, Mutex};

use crate::page::{Page, PageId};
use crate::store::{AccessContext, ConcurrentPageStore, PageStore, QueryId};
use crate::{IoStats, PageMeta};

/// A [`PageStore`] decorator logging every read as `(page, query)`.
pub struct RecordingStore<S> {
    inner: S,
    log: Mutex<Vec<(PageId, QueryId)>>,
    enabled: Flag,
}

impl<S> RecordingStore<S> {
    /// Wrap `inner`; recording starts enabled.
    pub fn new(inner: S) -> Self {
        RecordingStore {
            inner,
            log: Mutex::new(Vec::new()),
            enabled: Flag::new(true),
        }
    }

    /// Turn recording on or off (e.g. off while bulk-loading, on for the
    /// workload of interest).
    pub fn set_recording(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether reads are currently being logged.
    pub fn is_recording(&self) -> bool {
        self.enabled.get()
    }

    /// Drain the log, leaving it empty.
    pub fn take_log(&self) -> Vec<(PageId, QueryId)> {
        std::mem::take(&mut *self.log.lock())
    }

    /// Number of accesses recorded so far.
    pub fn log_len(&self) -> usize {
        self.log.lock().len()
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the recorder (and any unread log).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn record(&self, id: PageId, ctx: AccessContext) {
        if self.enabled.get() {
            self.log.lock().push((id, ctx.query));
        }
    }
}

impl<S: PageStore> PageStore for RecordingStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        self.record(id, ctx);
        self.inner.read(id, ctx)
    }

    fn write(&mut self, page: Page) -> crate::Result<()> {
        self.inner.write(page)
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> crate::Result<PageId> {
        self.inner.allocate(meta, payload)
    }

    fn free(&mut self, id: PageId) -> crate::Result<()> {
        self.inner.free(id)
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for RecordingStore<S> {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        self.record(id, ctx);
        self.inner.read_shared(id, ctx)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskManager;
    use asb_geom::SpatialStats;

    fn store_with_pages(n: usize) -> (RecordingStore<DiskManager>, Vec<PageId>) {
        let mut disk = DiskManager::new();
        let ids = (0..n)
            .map(|i| {
                disk.allocate(
                    PageMeta::data(SpatialStats::EMPTY),
                    Bytes::from(vec![i as u8; 8]),
                )
                .expect("allocate")
            })
            .collect();
        (RecordingStore::new(disk), ids)
    }

    #[test]
    fn reads_are_logged_in_order() {
        let (mut store, ids) = store_with_pages(3);
        let q = QueryId::new(5);
        store.read(ids[2], AccessContext::query(q)).expect("read");
        store
            .read(ids[0], AccessContext::query(q.next()))
            .expect("read");
        assert_eq!(store.take_log(), vec![(ids[2], q), (ids[0], q.next())]);
        assert_eq!(store.log_len(), 0, "take_log drains");
    }

    #[test]
    fn disabling_recording_suppresses_the_log() {
        let (store, ids) = store_with_pages(2);
        store.set_recording(false);
        store
            .read_shared(ids[0], AccessContext::default())
            .expect("read");
        assert!(!store.is_recording());
        assert_eq!(store.log_len(), 0);
        store.set_recording(true);
        store
            .read_shared(ids[1], AccessContext::default())
            .expect("read");
        assert_eq!(store.log_len(), 1);
    }

    #[test]
    fn writes_and_allocations_are_not_logged() {
        let (mut store, ids) = store_with_pages(1);
        let page = store.read(ids[0], AccessContext::default()).expect("read");
        store.write(page).expect("write");
        store
            .allocate(PageMeta::data(SpatialStats::EMPTY), Bytes::new())
            .expect("allocate");
        assert_eq!(store.log_len(), 1, "only the read is in the log");
    }
}
