use crate::{IoStats, Page, PageId, PageMeta, Result};
use bytes::Bytes;
use serde::Serialize;

/// Identifier of the query a page access belongs to.
///
/// The paper (Section 2.2) treats two accesses as *correlated* "if they
/// belong to the same query"; LRU-K collapses correlated accesses into one
/// history entry. The experiment harness bumps the query id once per
/// executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct QueryId(u64);

impl QueryId {
    /// A query id from its raw counter value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        QueryId(raw)
    }

    /// The raw counter value.
    #[inline]
    pub const fn raw(&self) -> u64 {
        self.0
    }

    /// The next query id.
    #[inline]
    pub fn next(&self) -> QueryId {
        QueryId(self.0 + 1)
    }
}

/// Context accompanying a page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// The query issuing the access (for correlated-reference detection).
    pub query: QueryId,
}

impl AccessContext {
    /// Context for an access belonging to query `q`.
    #[inline]
    pub const fn query(q: QueryId) -> Self {
        AccessContext { query: q }
    }
}

impl Default for AccessContext {
    fn default() -> Self {
        AccessContext {
            query: QueryId::new(0),
        }
    }
}

/// A store of fixed-size pages.
///
/// Implemented by the simulated [`DiskManager`](crate::DiskManager) and by
/// the buffer manager in `asb-core`; index structures are generic over this
/// trait and therefore oblivious to whether a buffer is present.
pub trait PageStore {
    /// Reads a page. A buffering implementation may satisfy the read from
    /// memory; the disk counts it as a physical access.
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page>;

    /// Writes (replaces) an existing page.
    fn write(&mut self, page: Page) -> Result<()>;

    /// Allocates a fresh page with the given metadata and payload, returning
    /// its id.
    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId>;

    /// Frees a page. Reading a freed page fails with
    /// [`StorageError::PageNotFound`](crate::StorageError::PageNotFound).
    fn free(&mut self, id: PageId) -> Result<()>;

    /// Number of live (allocated, not freed) pages.
    fn page_count(&self) -> usize;
}

/// A [`PageStore`] whose read path is safe to drive from several threads at
/// once through a shared reference.
///
/// The sharded buffer pool in `asb-core` keeps one store behind a
/// reader-writer lock and serves buffer misses from many shards in
/// parallel; that only works when a read needs no exclusive access. An
/// implementation keeps its access counters behind interior mutability so
/// [`read_shared`](ConcurrentPageStore::read_shared) can count physical
/// accesses without `&mut self`.
///
/// Implemented by [`DiskManager`](crate::DiskManager); wrappers that merely
/// delegate (buffers, tracing stores) can forward all three methods.
pub trait ConcurrentPageStore: PageStore + Send + Sync {
    /// Reads a page through a shared reference. Counts exactly like
    /// [`PageStore::read`]; the two must be indistinguishable in the
    /// statistics they record.
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> Result<Page>;

    /// Current physical I/O statistics.
    fn io_stats(&self) -> IoStats;

    /// Resets the I/O statistics (and any sequential-read tracking) through
    /// a shared reference, so buffer pools can expose a reset without
    /// exclusive store access.
    fn reset_io_stats(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_next_increments() {
        let q = QueryId::new(7);
        assert_eq!(q.next(), QueryId::new(8));
        assert_eq!(q.raw(), 7);
    }

    #[test]
    fn default_context_is_query_zero() {
        assert_eq!(AccessContext::default().query, QueryId::new(0));
    }
}
