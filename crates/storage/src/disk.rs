use crate::sync::Mutex;
use crate::{
    AccessContext, ConcurrentPageStore, Page, PageId, PageMeta, PageStore, Result, StorageError,
    PAGE_SIZE,
};
use bytes::Bytes;
use serde::Serialize;

/// Simulated cost of a random page access in milliseconds. The paper's
/// introduction motivates buffering with "the time to access a randomly
/// chosen page stored on a hard disk requires still about 10 ms" ([7]):
/// seek plus rotation.
const RANDOM_READ_MS: f64 = 10.0;

/// Simulated cost of reading the page adjacent to the previous one, in
/// milliseconds: transfer-dominated, roughly an order of magnitude cheaper.
/// Together the two constants turn access counts into the simulated I/O
/// time behind the *random vs sequential I/O* distinction the paper lists
/// as future work.
const SEQUENTIAL_READ_MS: f64 = 0.5;

/// Physical I/O statistics of a [`DiskManager`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct IoStats {
    /// Total physical page reads (the paper's "disk accesses").
    pub reads: u64,
    /// Reads whose page id directly follows the previously read page.
    pub sequential_reads: u64,
    /// Reads that required a seek (i.e. not sequential).
    pub random_reads: u64,
    /// Total physical page writes.
    pub writes: u64,
    /// Simulated I/O time in milliseconds: 10 ms per random read, 0.5 ms
    /// per sequential one.
    pub simulated_ms: f64,
}

/// Access counters of a [`DiskManager`], updated on every physical access.
///
/// Kept behind a mutex (not alongside the slot vector) so that the *read*
/// path can count accesses through `&self`: the sharded buffer pool serves
/// misses from several threads under a shared store lock.
#[derive(Debug, Default)]
struct IoState {
    stats: IoStats,
    last_read: Option<PageId>,
}

/// An in-memory simulated disk.
///
/// Pages live in a dense slot vector; freed slots are recycled via a free
/// list. Every [`read`](PageStore::read) is counted as one physical disk
/// access and classified as sequential (id follows the previously read id)
/// or random.
#[derive(Debug, Default)]
pub struct DiskManager {
    slots: Vec<Option<Page>>,
    free: Vec<u64>,
    live: usize,
    io: Mutex<IoState>,
}

impl DiskManager {
    /// Creates an empty disk.
    pub fn new() -> Self {
        DiskManager::default()
    }

    /// Current physical I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.io.lock().stats
    }

    /// Resets the I/O statistics (the paper clears buffers and counters
    /// before each query set "to increase the comparability of the
    /// results").
    pub fn reset_stats(&self) {
        *self.io.lock() = IoState::default();
    }

    /// Reads a page *without* counting a physical access. Test and
    /// validation helpers use this to inspect the disk image.
    pub fn peek(&self, id: PageId) -> Result<&Page> {
        self.slots
            .get(id.raw() as usize)
            .and_then(|s| s.as_ref())
            .ok_or(StorageError::PageNotFound(id))
    }

    /// Iterates over all live pages (no access counting).
    pub fn iter_pages(&self) -> impl Iterator<Item = &Page> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    fn record_read(&self, id: PageId) {
        let mut io = self.io.lock();
        io.stats.reads += 1;
        let sequential = io.last_read.is_some_and(|prev| id.is_successor_of(&prev));
        if sequential {
            io.stats.sequential_reads += 1;
            io.stats.simulated_ms += SEQUENTIAL_READ_MS;
        } else {
            io.stats.random_reads += 1;
            io.stats.simulated_ms += RANDOM_READ_MS;
        }
        io.last_read = Some(id);
    }
}

impl PageStore for DiskManager {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.read_shared(id, ctx)
    }

    fn write(&mut self, page: Page) -> Result<()> {
        if page.payload.len() > PAGE_SIZE {
            return Err(StorageError::PageOverflow {
                id: page.id,
                len: page.payload.len(),
            });
        }
        let slot = self
            .slots
            .get_mut(page.id.raw() as usize)
            .ok_or(StorageError::PageNotFound(page.id))?;
        if slot.is_none() {
            return Err(StorageError::PageNotFound(page.id));
        }
        *slot = Some(page);
        self.io.lock().stats.writes += 1;
        Ok(())
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        let raw = match self.free.pop() {
            Some(raw) => raw,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u64
            }
        };
        let id = PageId::new(raw);
        let page = Page::new(id, meta, payload)?;
        self.slots[raw as usize] = Some(page);
        self.live += 1;
        self.io.lock().stats.writes += 1;
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        let slot = self
            .slots
            .get_mut(id.raw() as usize)
            .ok_or(StorageError::PageNotFound(id))?;
        if slot.take().is_none() {
            return Err(StorageError::PageNotFound(id));
        }
        self.free.push(id.raw());
        self.live -= 1;
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.live
    }
}

impl ConcurrentPageStore for DiskManager {
    fn read_shared(&self, id: PageId, _ctx: AccessContext) -> Result<Page> {
        let page = self
            .slots
            .get(id.raw() as usize)
            .and_then(|s| s.as_ref())
            .cloned()
            .ok_or(StorageError::PageNotFound(id))?;
        self.record_read(id);
        Ok(page)
    }

    fn io_stats(&self) -> IoStats {
        self.stats()
    }

    fn reset_io_stats(&self) {
        self.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;

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

    #[test]
    fn allocate_read_roundtrip() {
        let (mut d, ids) = disk_with_pages(3);
        let p = d.read(ids[1], AccessContext::default()).unwrap();
        assert_eq!(p.id, ids[1]);
        assert_eq!(p.payload.as_ref(), &[1u8]);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn read_missing_page_fails() {
        let (mut d, _) = disk_with_pages(1);
        let err = d
            .read(PageId::new(99), AccessContext::default())
            .unwrap_err();
        assert_eq!(err, StorageError::PageNotFound(PageId::new(99)));
        // Failed reads are not counted as disk accesses.
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn write_replaces_payload() {
        let (mut d, ids) = disk_with_pages(1);
        let page = Page::new(ids[0], meta(), Bytes::from_static(b"new")).unwrap();
        d.write(page).unwrap();
        assert_eq!(d.peek(ids[0]).unwrap().payload.as_ref(), b"new");
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn write_to_freed_page_fails() {
        let (mut d, ids) = disk_with_pages(1);
        d.free(ids[0]).unwrap();
        let page = Page::new(ids[0], meta(), Bytes::new()).unwrap();
        assert!(d.write(page).is_err());
    }

    #[test]
    fn free_recycles_slots() {
        let (mut d, ids) = disk_with_pages(2);
        assert_eq!(d.page_count(), 2);
        d.free(ids[0]).unwrap();
        assert_eq!(d.page_count(), 1);
        let new_id = d.allocate(meta(), Bytes::new()).unwrap();
        assert_eq!(new_id, ids[0], "freed slot should be recycled");
        assert_eq!(d.page_count(), 2);
    }

    #[test]
    fn double_free_fails() {
        let (mut d, ids) = disk_with_pages(1);
        d.free(ids[0]).unwrap();
        assert!(d.free(ids[0]).is_err());
    }

    #[test]
    fn sequential_reads_are_detected() {
        let (mut d, ids) = disk_with_pages(4);
        let ctx = AccessContext::default();
        d.read(ids[0], ctx).unwrap(); // random (first access)
        d.read(ids[1], ctx).unwrap(); // sequential
        d.read(ids[2], ctx).unwrap(); // sequential
        d.read(ids[0], ctx).unwrap(); // random (backwards)
        let s = d.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.sequential_reads, 2);
        assert_eq!(s.random_reads, 2);
    }

    #[test]
    fn simulated_time_charges_random_and_sequential_reads() {
        let (mut d, ids) = disk_with_pages(2);
        let ctx = AccessContext::default();
        d.read(ids[0], ctx).unwrap(); // random: 10 ms
        d.read(ids[1], ctx).unwrap(); // sequential: 0.5 ms
        assert_eq!(d.stats().simulated_ms, 10.5);
    }

    #[test]
    fn reset_stats_clears_sequential_tracking() {
        let (mut d, ids) = disk_with_pages(2);
        let ctx = AccessContext::default();
        d.read(ids[0], ctx).unwrap();
        d.reset_stats();
        d.read(ids[1], ctx).unwrap(); // would be sequential, but tracking reset
        assert_eq!(d.stats().random_reads, 1);
        assert_eq!(d.stats().sequential_reads, 0);
    }

    #[test]
    fn shared_reads_count_like_exclusive_reads() {
        let (mut d, ids) = disk_with_pages(3);
        let ctx = AccessContext::default();
        d.read(ids[0], ctx).unwrap();
        let exclusive = d.stats();
        d.reset_stats();
        d.read_shared(ids[0], ctx).unwrap();
        assert_eq!(
            d.stats(),
            exclusive,
            "read and read_shared must count identically"
        );
    }

    #[test]
    fn shared_reads_from_many_threads_lose_no_counts() {
        let (d, ids) = disk_with_pages(8);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let d = &d;
                let ids = &ids;
                scope.spawn(move || {
                    for i in 0..100usize {
                        let id = ids[(t + i) % ids.len()];
                        let page = d.read_shared(id, AccessContext::default()).unwrap();
                        assert_eq!(page.id, id);
                    }
                });
            }
        });
        let s = d.stats();
        assert_eq!(s.reads, 400);
        assert_eq!(s.sequential_reads + s.random_reads, 400);
    }

    #[test]
    fn iter_pages_skips_freed() {
        let (mut d, ids) = disk_with_pages(3);
        d.free(ids[1]).unwrap();
        let live: Vec<_> = d.iter_pages().map(|p| p.id).collect();
        assert_eq!(live, vec![ids[0], ids[2]]);
    }
}
