//! Object pages: the third page category of the paper (Fig. 1).
//!
//! "Object pages storing the exact representation of spatial objects" are
//! what the type-based LRU drops first. [`ObjectStore`] packs serialized
//! object payloads into pages of type [`PageType::Object`] on any
//! [`PageStore`], and resolves object ids back to their page — so query
//! pipelines can charge the I/O of fetching exact representations through
//! the same buffer as the index pages.

use crate::{AccessContext, Page, PageId, PageMeta, PageStore, Result, StorageError, PAGE_SIZE};
use asb_geom::{Rect, SpatialStats};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

/// Per-object record header: id (8) + MBR (32) + payload length (4).
const RECORD_HEADER: usize = 44;
/// Page header: record count (2) + reserved (6).
const OBJECT_PAGE_HEADER: usize = 8;

/// A spatial object to be stored: id, MBR, and its exact representation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// Application-level object id (matching the index entry).
    pub id: u64,
    /// The object's MBR.
    pub mbr: Rect,
    /// Serialized exact representation (vertices etc.). Only its size and
    /// bytes matter to the storage layer.
    pub payload: Bytes,
}

impl ObjectRecord {
    /// Bytes this record occupies inside a page.
    fn stored_size(&self) -> usize {
        RECORD_HEADER + self.payload.len()
    }
}

/// Packs object records into object pages and maps ids to pages.
///
/// Records are packed first-fit in insertion order; a record never spans
/// pages, so each payload is limited to
/// `PAGE_SIZE − OBJECT_PAGE_HEADER − RECORD_HEADER` bytes.
///
/// ```
/// use asb_geom::Rect;
/// use asb_storage::{AccessContext, DiskManager, ObjectRecord, ObjectStore};
///
/// let mut disk = DiskManager::new();
/// let records = vec![ObjectRecord {
///     id: 7,
///     mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
///     payload: bytes::Bytes::from_static(b"exact geometry"),
/// }];
/// let store = ObjectStore::build(&mut disk, &records).unwrap();
/// let rec = store.fetch(&mut disk, 7, AccessContext::default()).unwrap();
/// assert_eq!(rec.payload.as_ref(), b"exact geometry");
/// ```
#[derive(Debug, Default)]
pub struct ObjectStore {
    directory: HashMap<u64, PageId>,
    pages: Vec<PageId>,
}

impl ObjectStore {
    /// Maximum payload size a single object record may carry.
    pub const MAX_PAYLOAD: usize = PAGE_SIZE - OBJECT_PAGE_HEADER - RECORD_HEADER;

    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Packs `records` into object pages allocated from `store`. Records
    /// are grouped in the given order (callers typically pass them in
    /// spatial order, e.g. the R-tree's leaf order, so object pages have
    /// coherent MBRs for the spatial replacement criteria).
    pub fn build<S: PageStore>(store: &mut S, records: &[ObjectRecord]) -> Result<Self> {
        let mut out = ObjectStore::new();
        let mut batch: Vec<&ObjectRecord> = Vec::new();
        let mut used = OBJECT_PAGE_HEADER;
        for rec in records {
            if rec.payload.len() > Self::MAX_PAYLOAD {
                return Err(StorageError::PageOverflow {
                    id: PageId::new(u64::MAX),
                    len: rec.payload.len(),
                });
            }
            if used + rec.stored_size() > PAGE_SIZE {
                out.flush_batch(store, &batch)?;
                batch.clear();
                used = OBJECT_PAGE_HEADER;
            }
            used += rec.stored_size();
            batch.push(rec);
        }
        if !batch.is_empty() {
            out.flush_batch(store, &batch)?;
        }
        Ok(out)
    }

    fn flush_batch<S: PageStore>(&mut self, store: &mut S, batch: &[&ObjectRecord]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(PAGE_SIZE);
        buf.put_u16_le(batch.len() as u16);
        buf.put_bytes(0, 6);
        let mut mbrs = Vec::with_capacity(batch.len());
        for rec in batch {
            buf.put_u64_le(rec.id);
            buf.put_f64_le(rec.mbr.min.x);
            buf.put_f64_le(rec.mbr.min.y);
            buf.put_f64_le(rec.mbr.max.x);
            buf.put_f64_le(rec.mbr.max.y);
            buf.put_u32_le(rec.payload.len() as u32);
            buf.put_slice(&rec.payload);
            mbrs.push(rec.mbr);
        }
        let meta = PageMeta::object(SpatialStats::from_rects(&mbrs));
        let id = store.allocate(meta, buf.freeze())?;
        for rec in batch {
            self.directory.insert(rec.id, id);
        }
        self.pages.push(id);
        Ok(())
    }

    /// The page holding object `id`, if stored.
    pub fn page_of(&self, id: u64) -> Option<PageId> {
        self.directory.get(&id).copied()
    }

    /// All object pages, in allocation order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Reads object `id`'s exact representation through `store` (one page
    /// access, counted like any other).
    pub fn fetch<S: PageStore>(
        &self,
        store: &mut S,
        id: u64,
        ctx: AccessContext,
    ) -> Result<ObjectRecord> {
        let page_id = self
            .page_of(id)
            .ok_or(StorageError::PageNotFound(PageId::new(u64::MAX)))?;
        let page = store.read(page_id, ctx)?;
        decode_object_page(&page)?
            .into_iter()
            .find(|r| r.id == id)
            .ok_or_else(|| StorageError::Corrupt {
                id: page_id,
                reason: format!("object {id} missing from its directory page"),
            })
    }
}

/// Decodes all records of an object page.
pub fn decode_object_page(page: &Page) -> Result<Vec<ObjectRecord>> {
    let corrupt = |reason: &str| StorageError::Corrupt {
        id: page.id,
        reason: reason.to_string(),
    };
    let mut buf = page.payload.clone();
    if buf.remaining() < OBJECT_PAGE_HEADER {
        return Err(corrupt("object page shorter than its header"));
    }
    let count = buf.get_u16_le() as usize;
    buf.advance(6);
    // The count is the page's claim; what is left of it bounds the records.
    let mut out = Vec::with_capacity(count.min(buf.remaining() / RECORD_HEADER));
    for _ in 0..count {
        if buf.remaining() < RECORD_HEADER {
            return Err(corrupt("truncated object record header"));
        }
        let id = buf.get_u64_le();
        let x0 = buf.get_f64_le();
        let y0 = buf.get_f64_le();
        let x1 = buf.get_f64_le();
        let y1 = buf.get_f64_le();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(corrupt("truncated object payload"));
        }
        let payload = buf.copy_to_bytes(len);
        out.push(ObjectRecord {
            id,
            mbr: Rect::new(x0, y0, x1, y1),
            payload,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskManager;

    fn record(id: u64, size: usize) -> ObjectRecord {
        ObjectRecord {
            id,
            mbr: Rect::new(id as f64, 0.0, id as f64 + 1.0, 1.0),
            payload: Bytes::from(vec![id as u8; size]),
        }
    }

    #[test]
    fn build_and_fetch_roundtrip() {
        let mut disk = DiskManager::new();
        let records: Vec<ObjectRecord> = (0..50).map(|i| record(i, 100)).collect();
        let store = ObjectStore::build(&mut disk, &records).unwrap();
        assert_eq!(store.len(), 50);
        for rec in &records {
            let got = store
                .fetch(&mut disk, rec.id, AccessContext::default())
                .unwrap();
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn records_pack_multiple_per_page() {
        let mut disk = DiskManager::new();
        let records: Vec<ObjectRecord> = (0..40).map(|i| record(i, 56)).collect();
        let store = ObjectStore::build(&mut disk, &records).unwrap();
        // 100 bytes each incl. header -> ~20 per 2 KiB page -> 2 pages.
        assert_eq!(store.pages().len(), 2, "{:?}", store.pages());
    }

    #[test]
    fn big_records_get_their_own_pages() {
        let mut disk = DiskManager::new();
        let records = vec![record(1, 1500), record(2, 1500)];
        let store = ObjectStore::build(&mut disk, &records).unwrap();
        assert_eq!(store.pages().len(), 2);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut disk = DiskManager::new();
        let records = vec![record(1, ObjectStore::MAX_PAYLOAD + 1)];
        assert!(ObjectStore::build(&mut disk, &records).is_err());
    }

    #[test]
    fn max_payload_fits_exactly() {
        let mut disk = DiskManager::new();
        let records = vec![record(1, ObjectStore::MAX_PAYLOAD)];
        let store = ObjectStore::build(&mut disk, &records).unwrap();
        let got = store.fetch(&mut disk, 1, AccessContext::default()).unwrap();
        assert_eq!(got.payload.len(), ObjectStore::MAX_PAYLOAD);
    }

    #[test]
    fn object_pages_have_object_type_and_stats() {
        let mut disk = DiskManager::new();
        let records: Vec<ObjectRecord> = (0..5).map(|i| record(i, 64)).collect();
        let store = ObjectStore::build(&mut disk, &records).unwrap();
        let page = disk.peek(store.pages()[0]).unwrap();
        assert_eq!(page.meta.page_type, crate::PageType::Object);
        assert_eq!(page.meta.level, 0);
        assert_eq!(page.meta.stats.entry_count, 5);
        assert!(page.meta.stats.mbr.is_some());
    }

    #[test]
    fn unknown_object_fails() {
        let mut disk = DiskManager::new();
        let store = ObjectStore::build(&mut disk, &[record(1, 10)]).unwrap();
        assert!(store
            .fetch(&mut disk, 99, AccessContext::default())
            .is_err());
        assert_eq!(store.page_of(99), None);
    }

    #[test]
    fn empty_store() {
        let mut disk = DiskManager::new();
        let store = ObjectStore::build(&mut disk, &[]).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.pages().len(), 0);
        assert_eq!(disk.page_count(), 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        let meta = PageMeta::object(SpatialStats::EMPTY);
        let page = Page::new(PageId::new(0), meta, Bytes::from_static(b"xy")).unwrap();
        assert!(decode_object_page(&page).is_err());
        // Claimed count larger than actual content.
        let mut buf = BytesMut::new();
        buf.put_u16_le(5);
        buf.put_bytes(0, 6);
        let page = Page::new(PageId::new(0), meta, buf.freeze()).unwrap();
        assert!(decode_object_page(&page).is_err());
    }
}
