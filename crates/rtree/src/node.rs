//! The on-page codec: [`NodeView`] reads a node in place, [`Node`] is the
//! owned form the write path edits and encodes.

use crate::config::{DIR_ENTRY_SIZE, LEAF_ENTRY_SIZE};
use asb_geom::{mbr_of, Point, Rect, SpatialStats};
use asb_storage::{Page, PageId, PageMeta, PageType, StorageError, PAGE_HEADER_SIZE};
use bytes::Bytes;
use std::slice::ChunksExact;

/// An entry of a directory (inner) node: the MBR of a child node plus its
/// page id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirEntry {
    /// MBR covering everything below `child`.
    pub mbr: Rect,
    /// The child node's page.
    pub child: PageId,
}

/// An entry of a data (leaf) node: the MBR of one spatial object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// The object's MBR.
    pub mbr: Rect,
    /// Application-level object identifier.
    pub object_id: u64,
    /// Page id of the object page holding the exact representation
    /// (0 when objects are not materialized, as in the paper's tree-only
    /// measurements).
    pub object_page: u64,
}

/// The level-dependent entry list of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A leaf (data page) with object entries.
    Leaf(Vec<LeafEntry>),
    /// An inner node (directory page) with child entries.
    Dir(Vec<DirEntry>),
}

/// An R\*-tree node decoded from (or about to be encoded to) one page.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Level in the tree: 1 for leaves, parents of leaves 2, and so on.
    pub level: u8,
    /// The node's entries.
    pub kind: NodeKind,
}

impl Node {
    /// Creates an empty leaf.
    pub fn new_leaf() -> Self {
        Node {
            level: 1,
            kind: NodeKind::Leaf(Vec::new()),
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Dir(v) => v.len(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The MBRs of all entries.
    pub fn entry_mbrs(&self) -> Vec<Rect> {
        match &self.kind {
            NodeKind::Leaf(v) => v.iter().map(|e| e.mbr).collect(),
            NodeKind::Dir(v) => v.iter().map(|e| e.mbr).collect(),
        }
    }

    /// The node's MBR (`None` when empty).
    pub fn mbr(&self) -> Option<Rect> {
        match &self.kind {
            NodeKind::Leaf(v) => mbr_of(v.iter().map(|e| e.mbr)),
            NodeKind::Dir(v) => mbr_of(v.iter().map(|e| e.mbr)),
        }
    }

    /// Directory entries; panics on a leaf (internal invariant violations
    /// only — levels are checked on decode).
    pub fn dir_entries(&self) -> &[DirEntry] {
        match &self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries() on a leaf node"),
        }
    }

    /// Mutable directory entries; panics on a leaf.
    pub fn dir_entries_mut(&mut self) -> &mut Vec<DirEntry> {
        match &mut self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries_mut() on a leaf node"),
        }
    }

    /// Page metadata for this node: type and level for LRU-T / LRU-P, plus
    /// the spatial statistics the spatial policies evaluate.
    pub fn page_meta(&self) -> PageMeta {
        let stats = SpatialStats::from_rects(&self.entry_mbrs());
        match self.kind {
            NodeKind::Leaf(_) => PageMeta::data(stats),
            NodeKind::Dir(_) => PageMeta::directory(self.level, stats),
        }
    }

    /// Serializes the node into a page payload.
    ///
    /// Layout: `[type_tag u8][level u8][count u16 LE][reserved u32]` header,
    /// then fixed-size entries (40 bytes per directory entry, 48 per leaf
    /// entry — the paper's fan-outs on a 2 KiB page). The buffer is sized
    /// once and each entry is written into its own chunk at a fixed stride:
    /// the mirror of [`NodeView`]'s reader.
    pub fn encode(&self) -> Bytes {
        let (tag, entry_size) = match self.kind {
            NodeKind::Leaf(_) => (PageType::Data, LEAF_ENTRY_SIZE),
            NodeKind::Dir(_) => (PageType::Directory, DIR_ENTRY_SIZE),
        };
        let mut buf = vec![0u8; PAGE_HEADER_SIZE + self.len() * entry_size];
        let (header, body) = buf.split_at_mut(PAGE_HEADER_SIZE);
        header[0] = tag.tag();
        header[1] = self.level;
        header[2..4].copy_from_slice(&(self.len() as u16).to_le_bytes());
        // Bytes 4..8 are reserved and stay zero.
        match &self.kind {
            NodeKind::Leaf(entries) => {
                for (chunk, e) in body.chunks_exact_mut(LEAF_ENTRY_SIZE).zip(entries) {
                    put_rect(chunk, &e.mbr);
                    put_u64(chunk, 32, e.object_id);
                    put_u64(chunk, 40, e.object_page);
                }
            }
            NodeKind::Dir(entries) => {
                for (chunk, e) in body.chunks_exact_mut(DIR_ENTRY_SIZE).zip(entries) {
                    put_rect(chunk, &e.mbr);
                    put_u64(chunk, 32, e.child.raw());
                }
            }
        }
        Bytes::from(buf)
    }

    /// Decodes an owned copy of a node from a page, for the write path to
    /// edit: [`NodeView::parse`], then [`NodeView::to_node`], and an entry
    /// with a non-finite coordinate is [`StorageError::Corrupt`] too (the
    /// R\* heuristics sort, sum and compare coordinates).
    pub fn decode(page: &Page) -> Result<Node, StorageError> {
        Node::from_view(page.id, NodeView::parse(page)?)
    }

    /// [`Node::decode`] of page `id`, already parsed into `view`.
    pub(crate) fn from_view(id: PageId, view: NodeView<'_>) -> Result<Node, StorageError> {
        let node = view.to_node();
        let finite = match &node.kind {
            NodeKind::Leaf(v) => v.iter().all(|e| e.mbr.is_finite()),
            NodeKind::Dir(v) => v.iter().all(|e| e.mbr.is_finite()),
        };
        if finite {
            Ok(node)
        } else {
            Err(corrupt(id, "entry with a non-finite coordinate"))
        }
    }
}

/// Writes `v` little-endian at byte `at` of `chunk`, as [`u64_at`] reads it.
#[inline]
fn put_u64(chunk: &mut [u8], at: usize, v: u64) {
    chunk[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Writes `r` into the first 32 bytes of `chunk`, as [`rect_at`] reads it.
#[inline]
fn put_rect(chunk: &mut [u8], r: &Rect) {
    for (i, v) in [r.min.x, r.min.y, r.max.x, r.max.y].into_iter().enumerate() {
        put_u64(chunk, 8 * i, v.to_bits());
    }
}

/// A node read in place on its page: the header is checked once, and the
/// entries are read from the page's bytes as they are iterated. Nothing is
/// copied or allocated; this is what every query reads.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    level: u8,
    /// Exactly the header's `count` entries: no header, no trailing bytes.
    bytes: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Checks `page`'s header: a data page sits at level 1, a directory
    /// page at level ≥ 2, and the `count` entries fit in the payload
    /// (bytes past them are ignored). Anything else is
    /// [`StorageError::Corrupt`].
    pub fn parse(page: &'a Page) -> Result<NodeView<'a>, StorageError> {
        let corrupt = |reason: &str| corrupt(page.id, reason);
        let bytes: &'a [u8] = &page.payload;
        if bytes.len() < PAGE_HEADER_SIZE {
            return Err(corrupt("payload shorter than the header"));
        }
        let (level, count) = (bytes[1], u16::from_le_bytes([bytes[2], bytes[3]]) as usize);
        let (entry_size, truncated) = match PageType::from_tag(bytes[0]) {
            Some(PageType::Data) if level != 1 => return Err(corrupt("data page with level != 1")),
            Some(PageType::Data) => (LEAF_ENTRY_SIZE, "truncated leaf entries"),
            Some(PageType::Directory) if level < 2 => {
                return Err(corrupt("directory page with level < 2"))
            }
            Some(PageType::Directory) => (DIR_ENTRY_SIZE, "truncated directory entries"),
            _ => return Err(corrupt("not an index page")),
        };
        match bytes[PAGE_HEADER_SIZE..].get(..count * entry_size) {
            Some(bytes) => Ok(NodeView { level, bytes }),
            None => Err(corrupt(truncated)),
        }
    }

    /// Level in the tree: 1 exactly for leaves.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        let entry_size = if self.level == 1 {
            LEAF_ENTRY_SIZE
        } else {
            DIR_ENTRY_SIZE
        };
        self.bytes.len() / entry_size
    }

    /// The entries, read from the page at a fixed stride as they are
    /// iterated.
    #[inline]
    pub fn entries(
        &self,
    ) -> ViewEntries<
        impl Iterator<Item = LeafEntry> + Clone + 'a,
        impl Iterator<Item = DirEntry> + Clone + 'a,
    > {
        if self.level == 1 {
            ViewEntries::Leaf(Entries(self.bytes.chunks_exact(LEAF_ENTRY_SIZE), leaf_at))
        } else {
            ViewEntries::Dir(Entries(self.bytes.chunks_exact(DIR_ENTRY_SIZE), dir_at))
        }
    }

    /// An owned copy of the node.
    pub fn to_node(&self) -> Node {
        let kind = match self.entries() {
            ViewEntries::Leaf(entries) => NodeKind::Leaf(entries.collect()),
            ViewEntries::Dir(entries) => NodeKind::Dir(entries.collect()),
        };
        Node {
            level: self.level,
            kind,
        }
    }
}

/// The entries of a [`NodeView`] by the node's kind: an iterator of
/// [`LeafEntry`] or of [`DirEntry`] values.
pub enum ViewEntries<L, D> {
    /// A data page's object entries.
    Leaf(L),
    /// A directory page's child entries.
    Dir(D),
}

/// Entries read in place by `F`, one fixed-size chunk of the page each.
#[derive(Clone)]
struct Entries<'a, F>(ChunksExact<'a, u8>, F);

impl<E, F: Fn(&[u8]) -> E> Iterator for Entries<'_, F> {
    type Item = E;
    #[inline]
    fn next(&mut self) -> Option<E> {
        self.0.next().map(&self.1)
    }
    #[inline]
    fn nth(&mut self, n: usize) -> Option<E> {
        self.0.nth(n).map(&self.1)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// A [`StorageError::Corrupt`] for page `id`.
pub(crate) fn corrupt(id: PageId, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        id,
        reason: reason.into(),
    }
}

// The two entry readers run once per entry of every page a query reads.
// They are `#[inline]` fn items, not closures in `entries`, so that they
// inline into a caller in another crate however that crate is split into
// codegen units: as closures, removing one unused derive from `asb-serve`
// moved them out of line and cost `serve_browse` 20 % per read (2-core
// x86-64).

/// The leaf entry in `bytes`, as `Node::encode` wrote it.
#[inline]
fn leaf_at(bytes: &[u8]) -> LeafEntry {
    LeafEntry {
        mbr: rect_at(bytes),
        object_id: u64_at(bytes, 32),
        object_page: u64_at(bytes, 40),
    }
}

/// The directory entry in `bytes`, as `Node::encode` wrote it.
#[inline]
fn dir_at(bytes: &[u8]) -> DirEntry {
    DirEntry {
        mbr: rect_at(bytes),
        child: PageId::new(u64_at(bytes, 32)),
    }
}

/// The little-endian `u64` at byte `at` of `bytes`.
#[inline]
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap_or_default())
}

/// The rectangle in the first 32 bytes of `bytes`, as [`put_rect`] wrote it.
#[inline]
fn rect_at(bytes: &[u8]) -> Rect {
    let coord = |i: usize| f64::from_bits(u64_at(bytes, 8 * i));
    Rect {
        min: Point::new(coord(0), coord(1)),
        max: Point::new(coord(2), coord(3)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_storage::PAGE_SIZE;

    fn leaf_with(n: usize) -> Node {
        let entries = (0..n)
            .map(|i| LeafEntry {
                mbr: Rect::new(i as f64, 0.0, i as f64 + 0.5, 1.0),
                object_id: i as u64,
                object_page: 0,
            })
            .collect();
        Node {
            level: 1,
            kind: NodeKind::Leaf(entries),
        }
    }

    fn dir_with(n: usize) -> Node {
        let entries = (0..n)
            .map(|i| DirEntry {
                mbr: Rect::new(i as f64, -1.0, i as f64 + 2.0, 3.0),
                child: PageId::new(100 + i as u64),
            })
            .collect();
        Node {
            level: 2,
            kind: NodeKind::Dir(entries),
        }
    }

    fn roundtrip(node: &Node) -> Node {
        let payload = node.encode();
        let page = Page::new(PageId::new(1), node.page_meta(), payload).unwrap();
        Node::decode(&page).unwrap()
    }

    #[test]
    fn leaf_roundtrip() {
        let n = leaf_with(7);
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn dir_roundtrip() {
        let n = dir_with(5);
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn empty_nodes_roundtrip() {
        assert_eq!(roundtrip(&Node::new_leaf()), Node::new_leaf());
        assert_eq!(roundtrip(&dir_with(0)), dir_with(0));
    }

    #[test]
    fn full_fanout_fits_in_a_page() {
        let leaf = leaf_with(42);
        assert!(leaf.encode().len() <= PAGE_SIZE);
        let dir = dir_with(51);
        assert!(dir.encode().len() <= PAGE_SIZE);
        assert_eq!(roundtrip(&dir).len(), 51);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let n = leaf_with(3);
        let mbr = n.mbr().unwrap();
        for r in n.entry_mbrs() {
            assert!(mbr.contains(&r));
        }
        assert_eq!(Node::new_leaf().mbr(), None);
    }

    #[test]
    fn page_meta_reflects_kind_and_level() {
        let leaf = leaf_with(2);
        assert_eq!(leaf.page_meta().page_type, PageType::Data);
        assert_eq!(leaf.page_meta().level, 1);
        let dir = dir_with(2);
        assert_eq!(dir.page_meta().page_type, PageType::Directory);
        assert_eq!(dir.page_meta().level, 2);
        // Stats are computed over entry MBRs.
        assert_eq!(leaf.page_meta().stats.entry_count, 2);
    }

    /// `Node::encode` as first written: six `BytesMut::put_*` calls per
    /// entry, each extending the buffer.
    fn encode_with_put(node: &Node) -> Bytes {
        use bytes::{BufMut, BytesMut};
        let put_rect = |buf: &mut BytesMut, r: &Rect| {
            for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
                buf.put_f64_le(v);
            }
        };
        let (tag, entry_size) = if node.is_leaf() {
            (PageType::Data, LEAF_ENTRY_SIZE)
        } else {
            (PageType::Directory, DIR_ENTRY_SIZE)
        };
        let mut buf = BytesMut::with_capacity(PAGE_HEADER_SIZE + node.len() * entry_size);
        buf.put_u8(tag.tag());
        buf.put_u8(node.level);
        buf.put_u16_le(node.len() as u16);
        buf.put_u32_le(0);
        match &node.kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    put_rect(&mut buf, &e.mbr);
                    buf.put_u64_le(e.object_id);
                    buf.put_u64_le(e.object_page);
                }
            }
            NodeKind::Dir(entries) => {
                for e in entries {
                    put_rect(&mut buf, &e.mbr);
                    buf.put_u64_le(e.child.raw());
                }
            }
        }
        buf.freeze()
    }

    /// Throughput tripwire (release mode, run by CI with `--ignored`): every
    /// R\*-tree write encodes a node, so the encoder must stay a fixed-stride
    /// fill of an exactly sized buffer, ≥ 3× the `BytesMut` encoder it
    /// replaced (as written: ≈ 6.5× over full and bulk-filled leaves and
    /// directories, 2-core x86-64). A ratio on one machine, no absolute
    /// time; the bytes must be equal too.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn encode_is_fixed_stride() {
        use std::hint::black_box;
        use std::time::Instant;
        let nodes = [leaf_with(42), dir_with(51), leaf_with(29), dir_with(35)];
        for n in &nodes {
            assert_eq!(n.encode(), encode_with_put(n));
        }
        let median_batch = |encode: fn(&Node) -> Bytes| {
            let mut batches: Vec<_> = (0..31)
                .map(|_| {
                    #[allow(clippy::disallowed_methods)] // a timing test measures time
                    let start = Instant::now();
                    for _ in 0..200 {
                        for n in &nodes {
                            black_box(encode(black_box(n)));
                        }
                    }
                    start.elapsed()
                })
                .collect();
            batches.sort_unstable();
            batches[15].as_secs_f64()
        };
        let ratio = median_batch(encode_with_put) / median_batch(Node::encode);
        assert!(
            ratio >= 3.0,
            "Node::encode is only {ratio:.1}x the BytesMut encoder (need >= 3x)"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let page = Page::new(PageId::new(9), meta, Bytes::from_static(b"nonsense")).unwrap();
        assert!(matches!(
            Node::decode(&page),
            Err(StorageError::Corrupt { .. })
        ));
        let short = Page::new(PageId::new(9), meta, Bytes::from_static(b"ab")).unwrap();
        assert!(Node::decode(&short).is_err());
    }

    #[test]
    fn decode_rejects_wrong_level() {
        // A data page claiming level 3.
        let mut node = leaf_with(1);
        node.level = 3;
        let page = Page::new(PageId::new(2), node.page_meta(), node.encode()).unwrap();
        assert!(Node::decode(&page).is_err());
    }

    #[test]
    fn decode_rejects_truncated_entries() {
        let node = leaf_with(3);
        let full = node.encode();
        let truncated = full.slice(0..full.len() - 8);
        let page = Page::new(PageId::new(3), node.page_meta(), truncated).unwrap();
        assert!(Node::decode(&page).is_err());
    }
}
