//! A page-store decorator that records the logical access sequence.
//!
//! [`RecordingStore`] logs every read, with the query it served, and every
//! write, allocation and free ([`PageOp`]), which is exactly the information
//! a replacement policy sees: replaying the log against a buffer reproduces
//! the original run's hits, misses and physical I/O bit-for-bit. The trace
//! facility in `asb-exp` uses it to capture experiment workloads into
//! portable trace files.
//!
//! Recording sits *below* a buffer (the buffer's misses would otherwise hide
//! logical accesses), so wrap the disk, not the buffered store, and place the
//! wrapper directly under the index: `RTree<RecordingStore<DiskManager>>`.

use bytes::Bytes;

use crate::sync::{Flag, Mutex};

use crate::page::{Page, PageId};
use crate::store::{AccessContext, PageStore, QueryId};
use crate::PageMeta;

/// A page operation, as [`RecordingStore`] logs it: a read with the query
/// it served, or a successful write, allocation or free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageOp {
    /// A read of the page on behalf of the query.
    Read(PageId, QueryId),
    /// A write of the page, with the metadata it was written with.
    Write(PageId, PageMeta),
    /// An allocation that handed out the page, with its metadata.
    Alloc(PageId, PageMeta),
    /// A free of the page.
    Free(PageId),
}

/// What a [`RecordingStore`] logged: the reads as `(page, query)`, 16 bytes
/// each, and every other [`PageOp`] with the number of reads before it.
pub type RecordingLog = (Vec<(PageId, QueryId)>, Vec<(usize, PageOp)>);

/// A [`PageStore`] decorator logging every read and every successful
/// write, allocation and free, in order ([`RecordingLog`]).
pub struct RecordingStore<S> {
    inner: S,
    log: Mutex<RecordingLog>,
    enabled: Flag,
}

impl<S> RecordingStore<S> {
    /// Wrap `inner`; recording starts enabled.
    pub fn new(inner: S) -> Self {
        RecordingStore {
            inner,
            log: Mutex::new(RecordingLog::default()),
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

    /// Drain the log, leaving it empty, and return its reads.
    pub fn take_log(&self) -> Vec<(PageId, QueryId)> {
        self.take_record().0
    }

    /// Drain the log, leaving it empty, and return all of it.
    pub fn take_record(&self) -> RecordingLog {
        std::mem::take(&mut *self.log.lock())
    }

    /// Number of reads recorded so far.
    pub fn log_len(&self) -> usize {
        self.log.lock().0.len()
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the recorder (and any unread log).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn record(&self, op: PageOp) {
        if self.enabled.get() {
            let (reads, updates) = &mut *self.log.lock();
            match op {
                PageOp::Read(id, query) => reads.push((id, query)),
                op => updates.push((reads.len(), op)),
            }
        }
    }
}

impl<S: PageStore> PageStore for RecordingStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        self.record(PageOp::Read(id, ctx.query));
        self.inner.read(id, ctx)
    }

    fn write(&mut self, page: Page) -> crate::Result<()> {
        let op = PageOp::Write(page.id, page.meta);
        self.inner.write(page)?;
        self.record(op);
        Ok(())
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> crate::Result<PageId> {
        let id = self.inner.allocate(meta, payload)?;
        self.record(PageOp::Alloc(id, meta));
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> crate::Result<()> {
        self.inner.free(id)?;
        self.record(PageOp::Free(id));
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{disk::disk_with_pages, DiskManager, StorageError};

    fn store_with_pages(n: usize) -> (RecordingStore<DiskManager>, Vec<PageId>) {
        let (disk, ids) = disk_with_pages(n);
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
        let (mut store, ids) = store_with_pages(2);
        store.set_recording(false);
        store.read(ids[0], AccessContext::default()).expect("read");
        assert!(!store.is_recording());
        assert_eq!(store.log_len(), 0);
        store.set_recording(true);
        store.read(ids[1], AccessContext::default()).expect("read");
        assert_eq!(store.log_len(), 1);
    }

    #[test]
    fn writes_allocations_and_frees_are_logged_beside_the_reads() {
        let (mut store, ids) = store_with_pages(1);
        let page = store.read(ids[0], AccessContext::default()).expect("read");
        let meta = page.meta;
        store.write(page).expect("write");
        let fresh = store.allocate(meta, Bytes::new()).expect("allocate");
        assert_eq!(
            store.free(PageId::new(9)),
            Err(StorageError::PageNotFound(PageId::new(9)))
        );
        store.free(ids[0]).expect("free");
        assert_eq!(store.log_len(), 1, "only the read is a read");
        let logged = [
            PageOp::Write(ids[0], meta),
            PageOp::Alloc(fresh, meta),
            PageOp::Free(ids[0]),
        ];
        let (reads, updates) = store.take_record();
        assert_eq!(reads, [(ids[0], QueryId::new(0))]);
        let why = "in order, after the read; the failed free is not logged";
        assert_eq!(updates, logged.map(|op| (1, op)), "{why}");
    }
}
