//! B⁺-tree node pages and their codec.

use asb_geom::{Point, Rect, SpatialStats};
use asb_storage::{Page, PageId, PageMeta, PageType, StorageError, PAGE_HEADER_SIZE, PAGE_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Sentinel for "no page" in the leaf chaining pointer.
const NO_PAGE: u64 = u64::MAX;

/// A B⁺-tree key: the z-order value of a point plus the object id as a
/// tie-breaker, making keys unique even for co-located objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Z-order (Morton) value of the quantized location.
    pub z: u64,
    /// Object id (tie-breaker).
    pub id: u64,
}

impl Key {
    /// The smallest possible key.
    pub const MIN: Key = Key { z: 0, id: 0 };
    /// The largest possible key.
    pub const MAX: Key = Key {
        z: u64::MAX,
        id: u64::MAX,
    };
}

/// A leaf entry: key plus the exact point location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZLeafEntry {
    /// The entry's key.
    pub key: Key,
    /// Exact location of the object.
    pub location: Point,
}

/// Size of a serialized leaf entry: key (16) + point (16).
const LEAF_ENTRY_SIZE: usize = 32;
/// Size of a serialized inner entry: min key (16) + child (8) + MBR (32).
const INNER_ENTRY_SIZE: usize = 56;

/// Maximum entries in a leaf page (header 8 + next pointer 8).
pub(crate) const LEAF_CAPACITY: usize = (PAGE_SIZE - PAGE_HEADER_SIZE - 8) / LEAF_ENTRY_SIZE;
/// Maximum entries (children) in an inner page.
pub(crate) const INNER_CAPACITY: usize = (PAGE_SIZE - PAGE_HEADER_SIZE) / INNER_ENTRY_SIZE;

/// An inner-node entry: the minimum key of the child subtree, the child
/// page, and a (conservative) MBR of everything below it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InnerEntry {
    pub min_key: Key,
    pub child: PageId,
    pub mbr: Rect,
}

/// A decoded B⁺-tree node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ZNode {
    Leaf {
        next: Option<PageId>,
        entries: Vec<ZLeafEntry>,
    },
    Inner {
        level: u8,
        entries: Vec<InnerEntry>,
    },
}

impl ZNode {
    pub fn level(&self) -> u8 {
        match self {
            ZNode::Leaf { .. } => 1,
            ZNode::Inner { level, .. } => *level,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ZNode::Leaf { entries, .. } => entries.len(),
            ZNode::Inner { entries, .. } => entries.len(),
        }
    }

    /// Maximum entries a node of this kind holds.
    pub fn capacity(&self) -> usize {
        match self {
            ZNode::Leaf { .. } => LEAF_CAPACITY,
            ZNode::Inner { .. } => INNER_CAPACITY,
        }
    }

    /// Moves the upper half of the entries into a new node of the same
    /// kind and level, which inherits a leaf's `next` link (the caller
    /// links this leaf to the new one once it has a page).
    pub fn split_off_upper_half(&mut self) -> ZNode {
        match self {
            ZNode::Leaf { next, entries } => ZNode::Leaf {
                next: *next,
                entries: entries.split_off(entries.len() / 2),
            },
            ZNode::Inner { level, entries } => ZNode::Inner {
                level: *level,
                entries: entries.split_off(entries.len() / 2),
            },
        }
    }

    /// Smallest key in the subtree rooted here (nodes are never empty
    /// except an empty tree's root leaf).
    pub fn min_key(&self) -> Option<Key> {
        match self {
            ZNode::Leaf { entries, .. } => entries.first().map(|e| e.key),
            ZNode::Inner { entries, .. } => entries.first().map(|e| e.min_key),
        }
    }

    /// Page metadata. The entry rectangles driving the spatial criteria
    /// are the z-cells of leaf entries (computed by the tree layer and
    /// passed in) or the child MBRs of inner entries.
    pub fn page_meta(&self, entry_rects: &[Rect]) -> PageMeta {
        let stats = SpatialStats::from_rects(entry_rects);
        match self {
            ZNode::Leaf { .. } => PageMeta::data(stats),
            ZNode::Inner { level, .. } => PageMeta::directory((*level).max(2), stats),
        }
    }

    pub fn encode(&self) -> Bytes {
        match self {
            ZNode::Leaf { next, entries } => {
                let mut buf =
                    BytesMut::with_capacity(PAGE_HEADER_SIZE + 8 + entries.len() * LEAF_ENTRY_SIZE);
                buf.put_u8(PageType::Data.tag());
                buf.put_u8(1);
                buf.put_u16_le(entries.len() as u16);
                buf.put_u32_le(0);
                buf.put_u64_le(next.map_or(NO_PAGE, |p| p.raw()));
                for e in entries {
                    buf.put_u64_le(e.key.z);
                    buf.put_u64_le(e.key.id);
                    buf.put_f64_le(e.location.x);
                    buf.put_f64_le(e.location.y);
                }
                buf.freeze()
            }
            ZNode::Inner { level, entries } => {
                let mut buf =
                    BytesMut::with_capacity(PAGE_HEADER_SIZE + entries.len() * INNER_ENTRY_SIZE);
                buf.put_u8(PageType::Directory.tag());
                buf.put_u8(*level);
                buf.put_u16_le(entries.len() as u16);
                buf.put_u32_le(0);
                for e in entries {
                    buf.put_u64_le(e.min_key.z);
                    buf.put_u64_le(e.min_key.id);
                    buf.put_u64_le(e.child.raw());
                    buf.put_f64_le(e.mbr.min.x);
                    buf.put_f64_le(e.mbr.min.y);
                    buf.put_f64_le(e.mbr.max.x);
                    buf.put_f64_le(e.mbr.max.y);
                }
                buf.freeze()
            }
        }
    }

    pub fn decode(page: &Page) -> Result<ZNode, StorageError> {
        let corrupt = |reason: &str| StorageError::Corrupt {
            id: page.id,
            reason: reason.to_string(),
        };
        let mut buf = page.payload.clone();
        if buf.remaining() < PAGE_HEADER_SIZE {
            return Err(corrupt("z-btree page shorter than its header"));
        }
        let tag = buf.get_u8();
        let level = buf.get_u8();
        let count = buf.get_u16_le() as usize;
        let _reserved = buf.get_u32_le();
        match PageType::from_tag(tag) {
            Some(PageType::Data) => {
                if buf.remaining() < 8 + count * LEAF_ENTRY_SIZE {
                    return Err(corrupt("truncated leaf"));
                }
                let raw_next = buf.get_u64_le();
                let next = (raw_next != NO_PAGE).then(|| PageId::new(raw_next));
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let z = buf.get_u64_le();
                    let id = buf.get_u64_le();
                    let x = buf.get_f64_le();
                    let y = buf.get_f64_le();
                    entries.push(ZLeafEntry {
                        key: Key { z, id },
                        location: Point::new(x, y),
                    });
                }
                Ok(ZNode::Leaf { next, entries })
            }
            Some(PageType::Directory) => {
                if level < 2 {
                    return Err(corrupt("inner node below level 2"));
                }
                if buf.remaining() < count * INNER_ENTRY_SIZE {
                    return Err(corrupt("truncated inner node"));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let z = buf.get_u64_le();
                    let id = buf.get_u64_le();
                    let child = PageId::new(buf.get_u64_le());
                    let x0 = buf.get_f64_le();
                    let y0 = buf.get_f64_le();
                    let x1 = buf.get_f64_le();
                    let y1 = buf.get_f64_le();
                    entries.push(InnerEntry {
                        min_key: Key { z, id },
                        child,
                        mbr: Rect::new(x0, y0, x1, y1),
                    });
                }
                Ok(ZNode::Inner { level, entries })
            }
            _ => Err(corrupt("not a z-btree page")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        assert_eq!(LEAF_CAPACITY, 63);
        assert_eq!(INNER_CAPACITY, 36);
    }

    fn leaf() -> ZNode {
        ZNode::Leaf {
            next: Some(PageId::new(77)),
            entries: (0..5)
                .map(|i| ZLeafEntry {
                    key: Key { z: i * 100, id: i },
                    location: Point::new(i as f64, i as f64 * 2.0),
                })
                .collect(),
        }
    }

    fn inner() -> ZNode {
        ZNode::Inner {
            level: 3,
            entries: (0..4)
                .map(|i| InnerEntry {
                    min_key: Key { z: i * 1000, id: 0 },
                    child: PageId::new(i + 10),
                    mbr: Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                })
                .collect(),
        }
    }

    fn roundtrip(node: &ZNode) -> ZNode {
        let rects = vec![Rect::new(0.0, 0.0, 1.0, 1.0); node.len()];
        let page = Page::new(PageId::new(1), node.page_meta(&rects), node.encode()).unwrap();
        ZNode::decode(&page).unwrap()
    }

    #[test]
    fn leaf_roundtrip() {
        let n = leaf();
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn inner_roundtrip() {
        let n = inner();
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let n = ZNode::Leaf {
            next: None,
            entries: vec![],
        };
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn key_ordering_is_z_major() {
        assert!(Key { z: 1, id: 999 } < Key { z: 2, id: 0 });
        assert!(Key { z: 1, id: 1 } < Key { z: 1, id: 2 });
        assert!(Key::MIN < Key { z: 0, id: 1 });
        assert!(Key { z: u64::MAX, id: 0 } < Key::MAX);
    }

    #[test]
    fn full_pages_fit() {
        let n = ZNode::Leaf {
            next: None,
            entries: (0..LEAF_CAPACITY as u64)
                .map(|i| ZLeafEntry {
                    key: Key { z: i, id: i },
                    location: Point::ORIGIN,
                })
                .collect(),
        };
        assert!(n.encode().len() <= PAGE_SIZE);
        let n = ZNode::Inner {
            level: 2,
            entries: (0..INNER_CAPACITY as u64)
                .map(|i| InnerEntry {
                    min_key: Key { z: i, id: 0 },
                    child: PageId::new(i),
                    mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
                })
                .collect(),
        };
        assert!(n.encode().len() <= PAGE_SIZE);
    }

    #[test]
    fn decode_rejects_garbage() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let page = Page::new(PageId::new(1), meta, Bytes::from_static(b"zz")).unwrap();
        assert!(ZNode::decode(&page).is_err());
    }
}
