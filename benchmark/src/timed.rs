//! Span-recording wrappers for the two seams the code under test exposes
//! as traits: the page store below a buffer ([`TimedStore`]) and the buffer
//! pool below the serving engine ([`TimedPool`]). Both forward every call
//! unchanged; the traced run pays for them, the timed run never sees them.

use crate::span::Tracer;
use asb_core::{
    ArenaState, BufferPool, BufferStats, FetchOutcome, PageFetchResult, PageReadGuard,
    PageWriteGuard,
};
use asb_storage::{
    AccessContext, ConcurrentPageStore, IoStats, Page, PageId, PageMeta, PageStore, QueryId, Result,
};
use bytes::Bytes;
use std::sync::{Arc, Mutex};

/// A [`PageStore`] that records one span per read, write, allocate and free.
pub struct TimedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TimedStore { inner, tracer }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for TimedStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("store.read", || inner.read(id, ctx))
    }

    fn write(&mut self, page: Page) -> Result<()> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("store.write", || inner.write(page))
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("store.allocate", || inner.allocate(meta, payload))
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("store.free", || inner.free(id))
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for TimedStore<S> {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.tracer
            .span("store.read", || self.inner.read_shared(id, ctx))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

/// One call into a pool: the page ids asked for together, and for whom.
pub type PoolCall = (Vec<PageId>, QueryId);

/// A [`BufferPool`] that records one span per page-delivering call, and
/// the calls themselves: the logical page trace of whatever drives it,
/// with its batch boundaries.
pub struct TimedPool<P> {
    inner: P,
    tracer: Arc<Tracer>,
    log: Mutex<Vec<PoolCall>>,
}

impl<P> TimedPool<P> {
    pub fn new(inner: P, tracer: Arc<Tracer>) -> Self {
        TimedPool {
            inner,
            tracer,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The calls made through this pool, in order.
    pub fn into_log(self) -> Vec<PoolCall> {
        self.log
            .into_inner()
            .expect("log mutex poisoned: a traced call panicked")
    }

    fn record(&self, ids: &[PageId], ctx: AccessContext) {
        self.log
            .lock()
            .expect("log mutex poisoned: a traced call panicked")
            .push((ids.to_vec(), ctx.query));
    }
}

impl<P: BufferPool> BufferPool for TimedPool<P> {
    fn fetch(&self, id: PageId, ctx: AccessContext) -> Result<PageReadGuard> {
        self.record(&[id], ctx);
        self.tracer.span("pool.fetch", || self.inner.fetch(id, ctx))
    }

    fn fetch_classified(&self, id: PageId, ctx: AccessContext) -> Result<FetchOutcome> {
        self.record(&[id], ctx);
        self.tracer
            .span("pool.fetch", || self.inner.fetch_classified(id, ctx))
    }

    fn fetch_batch(&self, ids: &[PageId], ctx: AccessContext) -> Vec<PageFetchResult> {
        self.record(ids, ctx);
        self.tracer
            .span("pool.fetch_batch", || self.inner.fetch_batch(ids, ctx))
    }

    fn fetch_resident(&self, id: PageId, ctx: AccessContext) -> Option<PageReadGuard> {
        self.tracer
            .span("pool.fetch_resident", || self.inner.fetch_resident(id, ctx))
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, id: PageId) -> usize {
        self.inner.shard_of(id)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn fetch_mut(&self, id: PageId, ctx: AccessContext) -> Result<PageWriteGuard> {
        self.tracer
            .span("pool.fetch_mut", || self.inner.fetch_mut(id, ctx))
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> BufferStats {
        self.inner.stats()
    }

    fn dirty_count(&self) -> usize {
        self.inner.dirty_count()
    }

    fn live_guards(&self) -> u64 {
        self.inner.live_guards()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn clear(&self) {
        self.inner.clear()
    }

    fn arena_states(&self) -> Vec<Option<ArenaState>> {
        self.inner.arena_states()
    }
}
