//! The disk-based B⁺-tree over z-order keys.

use crate::node::{InnerEntry, Key, ZLeafEntry, ZNode, INNER_CAPACITY, LEAF_CAPACITY};
use crate::ranges::z_ranges;
use asb_core::{BufferManager, BufferStats, PageFile};
use asb_geom::curve::{z_order_inverse, CurveGrid};
use asb_geom::{mbr_of, Point, Query, Rect};
use asb_storage::{
    AccessContext, DiskManager, Page, PageId, PageStore, QueryId, Result, StorageError,
};

/// Configuration of a [`ZBTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZConfig {
    /// Quantization grid resolution in bits per dimension.
    pub grid_bits: u32,
    /// Split-depth budget of the window-query range decomposition.
    pub split_depth: u32,
    /// Target leaf fill during bulk loading.
    pub bulk_leaf_fill: usize,
    /// Target inner fill during bulk loading.
    pub bulk_inner_fill: usize,
}

impl Default for ZConfig {
    fn default() -> Self {
        ZConfig {
            grid_bits: 16,
            split_depth: 10,
            bulk_leaf_fill: (LEAF_CAPACITY as f64 * 0.7) as usize,
            bulk_inner_fill: (INNER_CAPACITY as f64 * 0.7) as usize,
        }
    }
}

impl ZConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.grid_bits == 0 || self.grid_bits > 32 {
            return Err("grid_bits must be in 1..=32".into());
        }
        if self.split_depth == 0 || self.split_depth > 2 * self.grid_bits {
            return Err("split_depth must be in 1..=2*grid_bits".into());
        }
        if self.bulk_leaf_fill < 2 || self.bulk_leaf_fill > LEAF_CAPACITY {
            return Err("bulk_leaf_fill out of range".into());
        }
        if self.bulk_inner_fill < 2 || self.bulk_inner_fill > INNER_CAPACITY {
            return Err("bulk_inner_fill out of range".into());
        }
        Ok(())
    }
}

/// Structural statistics of a [`ZBTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZBTreeStats {
    /// Inner (directory) pages.
    pub inner_pages: usize,
    /// Leaf (data) pages.
    pub leaf_pages: usize,
    /// Height (1 = the root is a leaf).
    pub height: u8,
    /// Stored entries.
    pub entries: usize,
}

enum InsertOutcome {
    /// Subtree absorbed the entry; `(min_key, mbr)` after the insert.
    Ok(Key, Rect),
    /// Subtree split; the original node kept `(min_key, mbr)` and a new
    /// right sibling `(min_key, page, mbr)` must be added to the parent.
    Split {
        left: (Key, Rect),
        right: (Key, PageId, Rect),
    },
}

enum DeleteOutcome {
    NotFound,
    /// Entry removed; `(min_key, mbr, len)` of the child after removal (the
    /// parent uses `len` to detect underflow).
    Removed {
        min_key: Option<Key>,
        mbr: Option<Rect>,
        len: usize,
    },
}

/// A disk-based B⁺-tree over z-order values of point locations.
///
/// ```
/// use asb_geom::{Point, Rect};
/// use asb_storage::DiskManager;
/// use asb_zbtree::ZBTree;
///
/// let bounds = Rect::new(0.0, 0.0, 1.0, 1.0);
/// let points: Vec<(u64, Point)> =
///     (0..100).map(|i| (i, Point::new(i as f64 / 100.0, 0.5))).collect();
/// let mut tree = ZBTree::bulk_load(DiskManager::new(), bounds, &points).unwrap();
///
/// // Centers-in-window semantics: a point index.
/// let hits = tree.window_query(Rect::new(0.0, 0.0, 0.099, 1.0)).unwrap();
/// assert_eq!(hits.len(), 10);
/// tree.validate().unwrap();
/// ```
pub struct ZBTree<S: PageStore = DiskManager> {
    file: PageFile<S>,
    config: ZConfig,
    grid: CurveGrid,
    root: PageId,
    height: u8,
    len: usize,
    next_query: u64,
}

impl<S: PageStore> std::fmt::Debug for ZBTree<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZBTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("len", &self.len)
            .finish()
    }
}

impl<S: PageStore> ZBTree<S> {
    /// Creates an empty tree over the data space `bounds`.
    pub fn new(store: S, bounds: Rect) -> Result<Self> {
        Self::with_config(store, bounds, ZConfig::default())
    }

    /// Creates an empty tree with a custom configuration.
    pub fn with_config(mut store: S, bounds: Rect, config: ZConfig) -> Result<Self> {
        config.validate().map_err(|reason| StorageError::Corrupt {
            id: PageId::new(0),
            reason,
        })?;
        let grid = CurveGrid::new(bounds, config.grid_bits);
        let root_node = ZNode::Leaf {
            next: None,
            entries: Vec::new(),
        };
        let root = store.allocate(root_node.page_meta(&[]), root_node.encode())?;
        Ok(ZBTree {
            file: PageFile::new(store),
            config,
            grid,
            root,
            height: 1,
            len: 0,
            next_query: 0,
        })
    }

    /// Bulk-loads from `(id, location)` pairs (sorted internally).
    pub fn bulk_load(store: S, bounds: Rect, points: &[(u64, Point)]) -> Result<Self> {
        Self::bulk_load_with(store, bounds, ZConfig::default(), points)
    }

    /// Bulk-loads with a custom configuration.
    pub fn bulk_load_with(
        store: S,
        bounds: Rect,
        config: ZConfig,
        points: &[(u64, Point)],
    ) -> Result<Self> {
        let mut tree = Self::with_config(store, bounds, config)?;
        if points.is_empty() {
            return Ok(tree);
        }
        let mut entries: Vec<ZLeafEntry> = points
            .iter()
            .map(|&(id, location)| ZLeafEntry {
                key: tree.key_of(id, &location),
                location,
            })
            .collect();
        entries.sort_by_key(|e| e.key);
        entries.dedup_by_key(|e| e.key);

        // Free the placeholder root; build leaves then inner levels.
        // Chunk sizes are evened out so the tail chunk never falls below
        // the minimum fill the validator (and deletion) relies on.
        tree.free_node(tree.root)?;
        let leaf_chunks = even_chunks(
            entries.len(),
            config.bulk_leaf_fill,
            LEAF_CAPACITY / 2,
            LEAF_CAPACITY,
        );
        let mut leaf_slices = Vec::with_capacity(leaf_chunks.len());
        let mut offset = 0usize;
        for size in leaf_chunks {
            leaf_slices.push(&entries[offset..offset + size]);
            offset += size;
        }
        let mut leaf_ids = Vec::with_capacity(leaf_slices.len());
        let mut level_entries: Vec<InnerEntry> = Vec::new();
        for chunk in &leaf_slices {
            let node = ZNode::Leaf {
                next: None,
                entries: chunk.to_vec(),
            };
            let id = tree.alloc_node(&node)?;
            leaf_ids.push(id);
            level_entries.push(InnerEntry {
                min_key: chunk[0].key,
                child: id,
                mbr: tree.leaf_mbr(chunk),
            });
        }
        // Link the leaf chain (rewrite with next pointers).
        for (i, chunk) in leaf_slices.iter().enumerate() {
            let next = leaf_ids.get(i + 1).copied();
            let node = ZNode::Leaf {
                next,
                entries: chunk.to_vec(),
            };
            tree.write_node(leaf_ids[i], &node)?;
        }
        let mut level = 1u8;
        while level_entries.len() > 1 {
            level += 1;
            let sizes = even_chunks(
                level_entries.len(),
                config.bulk_inner_fill,
                INNER_CAPACITY / 2,
                INNER_CAPACITY,
            );
            let mut next_level = Vec::new();
            let mut offset = 0usize;
            for size in sizes {
                let chunk = &level_entries[offset..offset + size];
                offset += size;
                let node = ZNode::Inner {
                    level,
                    entries: chunk.to_vec(),
                };
                let id = tree.alloc_node(&node)?;
                next_level.push(InnerEntry {
                    min_key: chunk[0].min_key,
                    child: id,
                    mbr: mbr_of(chunk.iter().map(|e| e.mbr)).expect("non-empty chunk"),
                });
            }
            level_entries = next_level;
        }
        tree.root = level_entries[0].child;
        tree.height = level;
        tree.len = entries.len();
        Ok(tree)
    }

    /// Attaches (or replaces) the buffer.
    pub fn set_buffer(&mut self, buffer: BufferManager) {
        self.file.set_buffer(buffer);
    }

    /// Detaches and returns the buffer.
    pub fn take_buffer(&mut self) -> Option<BufferManager> {
        self.file.take_buffer()
    }

    /// Buffer statistics, if attached.
    pub fn buffer_stats(&self) -> Option<BufferStats> {
        self.file.buffer().map(|b| b.stats())
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        self.file.store()
    }

    /// Mutable access to the backing store.
    pub fn store_mut(&mut self) -> &mut S {
        self.file.store_mut()
    }

    /// Live pages in the backing store.
    pub fn page_count(&self) -> usize {
        self.file.store().page_count()
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The quantization grid.
    pub fn grid(&self) -> &CurveGrid {
        &self.grid
    }

    /// The key a `(id, location)` pair indexes under.
    pub fn key_of(&self, id: u64, location: &Point) -> Key {
        Key {
            z: self.grid.z_key(location),
            id,
        }
    }

    /// The grid cell (rectangle) a z-value addresses — the paper's
    /// "entries" of a z-value B-tree page.
    pub fn cell_of(&self, z: u64) -> Rect {
        let (x32, y32) = z_order_inverse(z);
        let shift = self.grid.shift();
        let gx = (x32 >> shift) as f64;
        let gy = (y32 >> shift) as f64;
        let bounds = self.grid.bounds();
        let cells = (1u64 << self.config.grid_bits) as f64;
        let cw = bounds.width() / cells;
        let ch = bounds.height() / cells;
        Rect::new(
            bounds.min.x + gx * cw,
            bounds.min.y + gy * ch,
            bounds.min.x + (gx + 1.0) * cw,
            bounds.min.y + (gy + 1.0) * ch,
        )
    }

    // ---- page I/O --------------------------------------------------------

    fn ctx(&self) -> AccessContext {
        AccessContext::query(QueryId::new(self.next_query))
    }

    fn read_node(&mut self, id: PageId) -> Result<ZNode> {
        let ctx = self.ctx();
        self.file.read(id, ctx, ZNode::decode)
    }

    fn entry_rects(&self, node: &ZNode) -> Vec<Rect> {
        match node {
            ZNode::Leaf { entries, .. } => entries.iter().map(|e| self.cell_of(e.key.z)).collect(),
            ZNode::Inner { entries, .. } => entries.iter().map(|e| e.mbr).collect(),
        }
    }

    fn leaf_mbr(&self, entries: &[ZLeafEntry]) -> Rect {
        mbr_of(entries.iter().map(|e| self.cell_of(e.key.z))).expect("leaf_mbr of a non-empty leaf")
    }

    fn node_mbr(&self, node: &ZNode) -> Option<Rect> {
        let rects = self.entry_rects(node);
        mbr_of(rects)
    }

    fn write_node(&mut self, id: PageId, node: &ZNode) -> Result<()> {
        let rects = self.entry_rects(node);
        let page = Page::new(id, node.page_meta(&rects), node.encode())?;
        self.file.write(page)
    }

    fn alloc_node(&mut self, node: &ZNode) -> Result<PageId> {
        let rects = self.entry_rects(node);
        self.file.allocate(node.page_meta(&rects), node.encode())
    }

    fn free_node(&mut self, id: PageId) -> Result<()> {
        self.file.free(id)
    }

    // ---- insertion -------------------------------------------------------

    /// Inserts `(id, location)`. Inserting an existing `(id, location)` key
    /// updates the stored location (upsert semantics).
    pub fn insert(&mut self, id: u64, location: Point) -> Result<()> {
        self.next_query += 1;
        let entry = ZLeafEntry {
            key: self.key_of(id, &location),
            location,
        };
        let root = self.root;
        match self.insert_rec(root, entry)? {
            InsertOutcome::Ok(..) => {}
            InsertOutcome::Split { left, right } => {
                let new_root = ZNode::Inner {
                    level: self.height + 1,
                    entries: vec![
                        InnerEntry {
                            min_key: left.0,
                            child: root,
                            mbr: left.1,
                        },
                        InnerEntry {
                            min_key: right.0,
                            child: right.1,
                            mbr: right.2,
                        },
                    ],
                };
                self.root = self.alloc_node(&new_root)?;
                self.height += 1;
            }
        }
        Ok(())
    }

    fn insert_rec(&mut self, node_id: PageId, entry: ZLeafEntry) -> Result<InsertOutcome> {
        match self.read_node(node_id)? {
            ZNode::Leaf { next, mut entries } => {
                match entries.binary_search_by_key(&entry.key, |e| e.key) {
                    Ok(pos) => {
                        // Upsert: same (z, id) key.
                        entries[pos] = entry;
                    }
                    Err(pos) => {
                        entries.insert(pos, entry);
                        self.len += 1;
                    }
                }
                if entries.len() <= LEAF_CAPACITY {
                    let node = ZNode::Leaf { next, entries };
                    let mbr = self.node_mbr(&node).expect("non-empty leaf");
                    let min = node.min_key().expect("non-empty leaf");
                    self.write_node(node_id, &node)?;
                    return Ok(InsertOutcome::Ok(min, mbr));
                }
                // Split.
                let right_entries = entries.split_off(entries.len() / 2);
                let right = ZNode::Leaf {
                    next,
                    entries: right_entries,
                };
                let right_id = self.alloc_node(&right)?;
                let left = ZNode::Leaf {
                    next: Some(right_id),
                    entries,
                };
                self.write_node(node_id, &left)?;
                Ok(InsertOutcome::Split {
                    left: (
                        left.min_key().expect("non-empty"),
                        self.node_mbr(&left).expect("non-empty"),
                    ),
                    right: (
                        right.min_key().expect("non-empty"),
                        right_id,
                        self.node_mbr(&right).expect("non-empty"),
                    ),
                })
            }
            ZNode::Inner { level, mut entries } => {
                let idx = match entries.binary_search_by_key(&entry.key, |e| e.min_key) {
                    Ok(i) => i,
                    Err(0) => 0, // key below every min: descend leftmost
                    Err(i) => i - 1,
                };
                let child = entries[idx].child;
                match self.insert_rec(child, entry)? {
                    InsertOutcome::Ok(min, mbr) => {
                        entries[idx].min_key = min;
                        entries[idx].mbr = mbr;
                    }
                    InsertOutcome::Split { left, right } => {
                        entries[idx].min_key = left.0;
                        entries[idx].mbr = left.1;
                        entries.insert(
                            idx + 1,
                            InnerEntry {
                                min_key: right.0,
                                child: right.1,
                                mbr: right.2,
                            },
                        );
                    }
                }
                if entries.len() <= INNER_CAPACITY {
                    let node = ZNode::Inner { level, entries };
                    let min = node.min_key().expect("non-empty inner");
                    let mbr = self.node_mbr(&node).expect("non-empty inner");
                    self.write_node(node_id, &node)?;
                    return Ok(InsertOutcome::Ok(min, mbr));
                }
                let right_entries = entries.split_off(entries.len() / 2);
                let right = ZNode::Inner {
                    level,
                    entries: right_entries,
                };
                let right_id = self.alloc_node(&right)?;
                let left = ZNode::Inner { level, entries };
                self.write_node(node_id, &left)?;
                Ok(InsertOutcome::Split {
                    left: (
                        left.min_key().expect("non-empty"),
                        self.node_mbr(&left).expect("non-empty"),
                    ),
                    right: (
                        right.min_key().expect("non-empty"),
                        right_id,
                        self.node_mbr(&right).expect("non-empty"),
                    ),
                })
            }
        }
    }

    // ---- deletion --------------------------------------------------------

    /// Removes `(id, location)`. Returns `true` if the key was present.
    pub fn delete(&mut self, id: u64, location: &Point) -> Result<bool> {
        self.next_query += 1;
        let key = self.key_of(id, location);
        let root = self.root;
        let found = matches!(self.delete_rec(root, key)?, DeleteOutcome::Removed { .. });
        if found {
            self.len -= 1;
            // Collapse the root while it is an inner node with one child.
            loop {
                match self.read_node(self.root)? {
                    ZNode::Inner { entries, .. } if entries.len() == 1 => {
                        let old = self.root;
                        self.root = entries[0].child;
                        self.height -= 1;
                        self.free_node(old)?;
                    }
                    _ => break,
                }
            }
        }
        Ok(found)
    }

    fn delete_rec(&mut self, node_id: PageId, key: Key) -> Result<DeleteOutcome> {
        match self.read_node(node_id)? {
            ZNode::Leaf { next, mut entries } => {
                let Ok(pos) = entries.binary_search_by_key(&key, |e| e.key) else {
                    return Ok(DeleteOutcome::NotFound);
                };
                entries.remove(pos);
                let node = ZNode::Leaf { next, entries };
                let outcome = DeleteOutcome::Removed {
                    min_key: node.min_key(),
                    mbr: self.node_mbr(&node),
                    len: node.len(),
                };
                self.write_node(node_id, &node)?;
                Ok(outcome)
            }
            ZNode::Inner { level, mut entries } => {
                let idx = match entries.binary_search_by_key(&key, |e| e.min_key) {
                    Ok(i) => i,
                    Err(0) => return Ok(DeleteOutcome::NotFound),
                    Err(i) => i - 1,
                };
                let child = entries[idx].child;
                let DeleteOutcome::Removed { min_key, mbr, len } = self.delete_rec(child, key)?
                else {
                    return Ok(DeleteOutcome::NotFound);
                };
                match (min_key, mbr) {
                    (Some(min), Some(m)) => {
                        entries[idx].min_key = min;
                        entries[idx].mbr = m;
                    }
                    _ => {
                        // Child is empty: drop it entirely.
                        self.free_node(child)?;
                        entries.remove(idx);
                    }
                }
                // Rebalance an underfull (non-empty) child.
                let child_present = min_key.is_some();
                if child_present && len < self.min_fill_of_child(level) {
                    self.rebalance(&mut entries, idx)?;
                }
                let node = ZNode::Inner { level, entries };
                let outcome = DeleteOutcome::Removed {
                    min_key: node.min_key(),
                    mbr: self.node_mbr(&node),
                    len: node.len(),
                };
                self.write_node(node_id, &node)?;
                Ok(outcome)
            }
        }
    }

    fn min_fill_of_child(&self, parent_level: u8) -> usize {
        if parent_level == 2 {
            LEAF_CAPACITY / 2
        } else {
            INNER_CAPACITY / 2
        }
    }

    /// Borrows from or merges with a sibling of the underfull child at
    /// `entries[idx]`, updating `entries` in place.
    fn rebalance(&mut self, entries: &mut Vec<InnerEntry>, idx: usize) -> Result<()> {
        if entries.len() < 2 {
            return Ok(()); // only child: nothing to rebalance with (root path)
        }
        // Prefer the right sibling; fall back to the left one.
        let (left_idx, right_idx) = if idx + 1 < entries.len() {
            (idx, idx + 1)
        } else {
            (idx - 1, idx)
        };
        let left_id = entries[left_idx].child;
        let right_id = entries[right_idx].child;
        let left_node = self.read_node(left_id)?;
        let right_node = self.read_node(right_id)?;

        match (left_node, right_node) {
            (
                ZNode::Leaf {
                    next: lnext,
                    entries: mut le,
                },
                ZNode::Leaf {
                    entries: mut re, ..
                },
            ) => {
                if le.len() + re.len() <= LEAF_CAPACITY {
                    // Merge right into left; left inherits right's chain link.
                    let rnext = {
                        // lnext currently points at right; right.next is what
                        // we need. Re-read is avoided: decode again above
                        // moved it, so re-fetch right's next from the page.
                        match self.read_node(right_id)? {
                            ZNode::Leaf { next, .. } => next,
                            _ => unreachable!("sibling levels match"),
                        }
                    };
                    le.append(&mut re);
                    let merged = ZNode::Leaf {
                        next: rnext,
                        entries: le,
                    };
                    entries[left_idx].min_key = merged.min_key().expect("non-empty merge");
                    entries[left_idx].mbr = self.node_mbr(&merged).expect("non-empty merge");
                    self.write_node(left_id, &merged)?;
                    self.free_node(right_id)?;
                    entries.remove(right_idx);
                } else if le.len() < re.len() {
                    // Borrow the first entry of the right sibling.
                    le.push(re.remove(0));
                    let l = ZNode::Leaf {
                        next: lnext,
                        entries: le,
                    };
                    let rnext = match self.read_node(right_id)? {
                        ZNode::Leaf { next, .. } => next,
                        _ => unreachable!(),
                    };
                    let r = ZNode::Leaf {
                        next: rnext,
                        entries: re,
                    };
                    self.update_pair(entries, left_idx, right_idx, &l, &r)?;
                    self.write_node(left_id, &l)?;
                    self.write_node(right_id, &r)?;
                } else {
                    // Borrow the last entry of the left sibling.
                    re.insert(0, le.pop().expect("left sibling non-empty"));
                    let l = ZNode::Leaf {
                        next: lnext,
                        entries: le,
                    };
                    let rnext = match self.read_node(right_id)? {
                        ZNode::Leaf { next, .. } => next,
                        _ => unreachable!(),
                    };
                    let r = ZNode::Leaf {
                        next: rnext,
                        entries: re,
                    };
                    self.update_pair(entries, left_idx, right_idx, &l, &r)?;
                    self.write_node(left_id, &l)?;
                    self.write_node(right_id, &r)?;
                }
            }
            (
                ZNode::Inner {
                    level,
                    entries: mut le,
                },
                ZNode::Inner {
                    entries: mut re, ..
                },
            ) => {
                if le.len() + re.len() <= INNER_CAPACITY {
                    le.append(&mut re);
                    let merged = ZNode::Inner { level, entries: le };
                    entries[left_idx].min_key = merged.min_key().expect("non-empty merge");
                    entries[left_idx].mbr = self.node_mbr(&merged).expect("non-empty merge");
                    self.write_node(left_id, &merged)?;
                    self.free_node(right_id)?;
                    entries.remove(right_idx);
                } else if le.len() < re.len() {
                    le.push(re.remove(0));
                    let l = ZNode::Inner { level, entries: le };
                    let r = ZNode::Inner { level, entries: re };
                    self.update_pair(entries, left_idx, right_idx, &l, &r)?;
                    self.write_node(left_id, &l)?;
                    self.write_node(right_id, &r)?;
                } else {
                    re.insert(0, le.pop().expect("left sibling non-empty"));
                    let l = ZNode::Inner { level, entries: le };
                    let r = ZNode::Inner { level, entries: re };
                    self.update_pair(entries, left_idx, right_idx, &l, &r)?;
                    self.write_node(left_id, &l)?;
                    self.write_node(right_id, &r)?;
                }
            }
            _ => unreachable!("siblings are on the same level"),
        }
        Ok(())
    }

    fn update_pair(
        &self,
        entries: &mut [InnerEntry],
        left_idx: usize,
        right_idx: usize,
        l: &ZNode,
        r: &ZNode,
    ) -> Result<()> {
        entries[left_idx].min_key = l.min_key().expect("non-empty");
        entries[left_idx].mbr = self.node_mbr(l).expect("non-empty");
        entries[right_idx].min_key = r.min_key().expect("non-empty");
        entries[right_idx].mbr = self.node_mbr(r).expect("non-empty");
        Ok(())
    }

    // ---- queries ---------------------------------------------------------

    /// Finds the leaf that would hold `key` and returns its page id. Every
    /// step descends at least one level, so a hostile child pointer ends
    /// the walk as [`StorageError::Corrupt`] instead of a loop.
    fn find_leaf(&mut self, key: Key) -> Result<PageId> {
        let mut node_id = self.root;
        let mut parent_level = None;
        loop {
            let node = self.read_node(node_id)?;
            if parent_level.is_some_and(|above| node.level() >= above) {
                return Err(corrupt(node_id, "child level not below its parent's"));
            }
            match node {
                ZNode::Leaf { .. } => return Ok(node_id),
                ZNode::Inner { level, entries } => {
                    let idx = match entries.binary_search_by_key(&key, |e| e.min_key) {
                        Ok(i) => i,
                        Err(0) => 0,
                        Err(i) => i - 1,
                    };
                    let Some(entry) = entries.get(idx) else {
                        return Err(corrupt(node_id, "inner node without entries"));
                    };
                    parent_level = Some(level);
                    node_id = entry.child;
                }
            }
        }
    }

    /// All entries with keys in `[lo, hi]`, via the leaf chain. A chain
    /// that reaches a non-leaf, or visits more leaves than the store holds
    /// pages, is [`StorageError::Corrupt`].
    fn scan_range(&mut self, lo: Key, hi: Key, out: &mut Vec<ZLeafEntry>) -> Result<()> {
        let mut leaf_id = Some(self.find_leaf(lo)?);
        let mut budget = self.page_count();
        while let Some(id) = leaf_id {
            if budget == 0 {
                return Err(corrupt(id, "leaf chain longer than the store"));
            }
            budget -= 1;
            let ZNode::Leaf { next, entries } = self.read_node(id)? else {
                return Err(corrupt(id, "leaf chain reached a non-leaf"));
            };
            for e in &entries {
                if e.key > hi {
                    return Ok(());
                }
                if e.key >= lo {
                    out.push(*e);
                }
            }
            leaf_id = next;
        }
        Ok(())
    }

    /// Executes a query. Window queries return all objects whose *location*
    /// lies inside the window (point-index semantics); point queries return
    /// objects located exactly at the query point.
    pub fn execute(&mut self, query: &Query) -> Result<Vec<u64>> {
        self.next_query += 1;
        let mut out = Vec::new();
        match query {
            Query::Point(p) => {
                if !self.grid.bounds().contains_point(p) {
                    return Ok(out);
                }
                let z = self.grid.z_key(p);
                let mut hits = Vec::new();
                self.scan_range(Key { z, id: 0 }, Key { z, id: u64::MAX }, &mut hits)?;
                out.extend(hits.iter().filter(|e| e.location == *p).map(|e| e.key.id));
            }
            Query::Window(w) => {
                let ranges = z_ranges(&self.grid, w, self.config.split_depth);
                let mut hits = Vec::new();
                for (lo, hi) in ranges {
                    hits.clear();
                    self.scan_range(
                        Key { z: lo, id: 0 },
                        Key {
                            z: hi,
                            id: u64::MAX,
                        },
                        &mut hits,
                    )?;
                    out.extend(
                        hits.iter()
                            .filter(|e| w.contains_point(&e.location))
                            .map(|e| e.key.id),
                    );
                }
            }
        }
        Ok(out)
    }

    /// Window query: ids of all objects whose location lies in `window`.
    pub fn window_query(&mut self, window: Rect) -> Result<Vec<u64>> {
        self.execute(&Query::Window(window))
    }

    /// Structural statistics.
    pub fn stats(&mut self) -> Result<ZBTreeStats> {
        self.next_query += 1;
        let mut inner_pages = 0usize;
        let mut leaf_pages = 0usize;
        let mut entries_total = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match self.read_node(id)? {
                ZNode::Leaf { entries, .. } => {
                    leaf_pages += 1;
                    entries_total += entries.len();
                }
                ZNode::Inner { entries, .. } => {
                    inner_pages += 1;
                    stack.extend(entries.iter().map(|e| e.child));
                }
            }
        }
        Ok(ZBTreeStats {
            inner_pages,
            leaf_pages,
            height: self.height,
            entries: entries_total,
        })
    }

    /// Checks every structural invariant: sorted unique keys, correct
    /// `min_key` annotations, child MBR containment, leaf-chain order,
    /// fill factors, and the entry count.
    pub fn validate(&mut self) -> Result<()> {
        self.next_query += 1;
        // Recursive structure check, collecting leaves in key order.
        let mut leaves_in_order = Vec::new();
        let mut total = 0usize;
        let root = self.root;
        let root_node = self.read_node(root)?;
        if root_node.level() != self.height {
            return Err(corrupt(root, "root level != height"));
        }
        self.validate_rec(
            root,
            self.height,
            None,
            true,
            &mut leaves_in_order,
            &mut total,
        )?;
        if total != self.len {
            return Err(corrupt(
                root,
                format!(
                    "entry count mismatch: leaves hold {total}, tree records {}",
                    self.len
                ),
            ));
        }
        // Leaf chain must equal the in-order leaf sequence; one that runs
        // past it is wrong already, and may be a cycle.
        let mut chained = Vec::new();
        let mut cursor = Some(*leaves_in_order.first().unwrap_or(&root));
        while let Some(id) = cursor {
            if chained.len() > leaves_in_order.len() {
                return Err(corrupt(id, "leaf chain longer than the tree's leaves"));
            }
            chained.push(id);
            match self.read_node(id)? {
                ZNode::Leaf { next, .. } => cursor = next,
                _ => return Err(corrupt(id, "leaf chain reached a non-leaf")),
            }
        }
        if !leaves_in_order.is_empty() && chained != leaves_in_order {
            return Err(corrupt(root, "leaf chain disagrees with tree order"));
        }
        Ok(())
    }

    fn validate_rec(
        &mut self,
        node_id: PageId,
        expected_level: u8,
        expected_min: Option<Key>,
        is_root: bool,
        leaves: &mut Vec<PageId>,
        total: &mut usize,
    ) -> Result<Option<Rect>> {
        let node = self.read_node(node_id)?;
        if node.level() != expected_level {
            return Err(corrupt(node_id, "level mismatch"));
        }
        if let (Some(expected), Some(actual)) = (expected_min, node.min_key()) {
            if expected != actual {
                return Err(corrupt(node_id, "min_key annotation mismatch"));
            }
        }
        match node {
            ZNode::Leaf { entries, .. } => {
                if !is_root && entries.len() < LEAF_CAPACITY / 2 {
                    return Err(corrupt(
                        node_id,
                        format!("underfull leaf: {}", entries.len()),
                    ));
                }
                if entries.len() > LEAF_CAPACITY {
                    return Err(corrupt(node_id, "overfull leaf"));
                }
                for w in entries.windows(2) {
                    if w[0].key >= w[1].key {
                        return Err(corrupt(node_id, "leaf keys out of order"));
                    }
                }
                for e in &entries {
                    if self.grid.z_key(&e.location) != e.key.z {
                        return Err(corrupt(node_id, "entry z-value disagrees with location"));
                    }
                }
                *total += entries.len();
                leaves.push(node_id);
                Ok(mbr_of(entries.iter().map(|e| self.cell_of(e.key.z))))
            }
            ZNode::Inner { entries, .. } => {
                if !is_root && entries.len() < INNER_CAPACITY / 2 {
                    return Err(corrupt(node_id, "underfull inner node"));
                }
                if is_root && entries.len() < 2 {
                    return Err(corrupt(node_id, "inner root with < 2 children"));
                }
                for w in entries.windows(2) {
                    if w[0].min_key >= w[1].min_key {
                        return Err(corrupt(node_id, "inner keys out of order"));
                    }
                }
                let mut whole: Option<Rect> = None;
                for e in &entries {
                    let child_mbr = self.validate_rec(
                        e.child,
                        expected_level - 1,
                        Some(e.min_key),
                        false,
                        leaves,
                        total,
                    )?;
                    if let Some(m) = child_mbr {
                        if !e.mbr.contains(&m) {
                            return Err(corrupt(
                                e.child,
                                "child MBR annotation does not contain the subtree",
                            ));
                        }
                        whole = Some(whole.map_or(m, |w| w.union(&m)));
                    }
                }
                Ok(whole)
            }
        }
    }
}

/// A structural error at page `id`.
fn corrupt(id: PageId, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        id,
        reason: reason.into(),
    }
}

/// Splits `len` elements into chunks of roughly `target` while keeping
/// every chunk within `[min, max]` where arithmetically possible (a single
/// chunk below `min` remains only for `len < min`, the root-only case).
fn even_chunks(len: usize, target: usize, min: usize, max: usize) -> Vec<usize> {
    debug_assert!(len > 0 && min <= target && target <= max);
    let mut k = len.div_ceil(target);
    if len >= min {
        k = k.min(len / min);
    }
    k = k.max(len.div_ceil(max)).max(1);
    let base = len / k;
    let extra = len % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_core::PolicyKind;

    fn bounds() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    fn scatter(n: u64) -> Vec<(u64, Point)> {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|i| (i, Point::new(rng(), rng()))).collect()
    }

    fn brute(points: &[(u64, Point)], w: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = points
            .iter()
            .filter(|(_, p)| w.contains_point(p))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn even_chunks_respect_bounds() {
        for len in 1..500usize {
            let sizes = even_chunks(len, 44, 31, 63);
            assert_eq!(sizes.iter().sum::<usize>(), len);
            for &s in &sizes {
                assert!(s <= 63, "len={len}: chunk {s} too big");
                if len >= 31 {
                    assert!(s >= 31, "len={len}: chunk {s} too small");
                }
            }
        }
    }

    #[test]
    fn empty_tree() {
        let mut t = ZBTree::new(DiskManager::new(), bounds()).unwrap();
        assert!(t.is_empty());
        assert_eq!(
            t.window_query(Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(),
            vec![]
        );
        t.validate().unwrap();
    }

    #[test]
    fn insert_then_window_query_matches_brute_force() {
        let points = scatter(2000);
        let mut t = ZBTree::new(DiskManager::new(), bounds()).unwrap();
        for &(id, p) in &points {
            t.insert(id, p).unwrap();
        }
        t.validate().unwrap();
        assert!(t.height() >= 2);
        for w in [
            Rect::new(0.0, 0.0, 0.25, 0.25),
            Rect::new(0.4, 0.1, 0.9, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.99, 0.99, 0.999, 0.999),
        ] {
            let mut got = t.window_query(w).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&points, &w), "window {w:?}");
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let points = scatter(3000);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        t.validate().unwrap();
        let w = Rect::new(0.2, 0.3, 0.6, 0.7);
        let mut got = t.window_query(w).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&points, &w));
    }

    #[test]
    fn point_query_exact_location() {
        let points = scatter(500);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        let (id, p) = points[123];
        assert!(t.execute(&Query::Point(p)).unwrap().contains(&id));
        assert_eq!(
            t.execute(&Query::Point(Point::new(2.0, 2.0))).unwrap(),
            vec![]
        );
    }

    #[test]
    fn delete_removes_and_rebalances() {
        let points = scatter(2000);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        for (i, &(id, p)) in points.iter().enumerate().take(1500) {
            assert!(t.delete(id, &p).unwrap(), "entry {id}");
            if i % 100 == 0 {
                t.validate().unwrap();
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 500);
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(t.window_query(w).unwrap().len(), 500);
    }

    #[test]
    fn delete_everything_collapses_to_empty_root() {
        let points = scatter(800);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        for &(id, p) in &points {
            assert!(t.delete(id, &p).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
        assert_eq!(t.page_count(), 1, "only the empty root leaf remains");
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut t = ZBTree::new(DiskManager::new(), bounds()).unwrap();
        t.insert(1, Point::new(0.5, 0.5)).unwrap();
        assert!(!t.delete(2, &Point::new(0.5, 0.5)).unwrap());
        assert!(!t.delete(1, &Point::new(0.1, 0.1)).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_same_key_does_not_grow() {
        let mut t = ZBTree::new(DiskManager::new(), bounds()).unwrap();
        t.insert(7, Point::new(0.5, 0.5)).unwrap();
        t.insert(7, Point::new(0.5, 0.5)).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mixed_insert_delete_stays_valid() {
        let points = scatter(1200);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points[..800]).unwrap();
        for i in 0..400 {
            t.insert(points[800 + i].0, points[800 + i].1).unwrap();
            let (id, p) = points[i * 2];
            assert!(t.delete(id, &p).unwrap());
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 800);
    }

    #[test]
    fn buffered_zbtree_gives_identical_answers() {
        let points = scatter(1500);
        let mut plain = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        let mut buffered = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        buffered.set_buffer(BufferManager::with_policy(PolicyKind::Asb, 12));
        for i in 0..25u64 {
            let x = (i as f64 * 0.37) % 0.8;
            let w = Rect::new(x, x / 2.0, x + 0.15, x / 2.0 + 0.15);
            let mut a = plain.window_query(w).unwrap();
            let mut b = buffered.window_query(w).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert!(buffered.buffer_stats().unwrap().hits > 0);
    }

    #[test]
    fn cell_of_inverts_z_key() {
        let t = ZBTree::new(DiskManager::new(), bounds()).unwrap();
        let p = Point::new(0.3, 0.7);
        let z = t.grid().z_key(&p);
        let cell = t.cell_of(z);
        assert!(cell.contains_point(&p), "cell {cell:?} must contain {p:?}");
        // Cell size is 1/2^16 of the unit square in each dimension.
        assert!((cell.width() - 1.0 / 65536.0).abs() < 1e-12);
    }

    #[test]
    fn pages_carry_spatial_stats() {
        let points = scatter(500);
        let t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        let mut dir = 0;
        let mut data = 0;
        for page in t.store().iter_pages() {
            match page.meta.page_type {
                asb_storage::PageType::Directory => dir += 1,
                asb_storage::PageType::Data => data += 1,
                _ => panic!("unexpected page type"),
            }
            assert!(page.meta.stats.entry_count > 0);
            assert!(page.meta.stats.mbr.is_some());
        }
        assert!(dir >= 1 && data > 1);
    }

    #[test]
    fn stats_report_structure() {
        let points = scatter(3000);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        let s = t.stats().unwrap();
        assert_eq!(s.entries, 3000);
        assert_eq!(s.inner_pages + s.leaf_pages, t.page_count());
        assert!(s.height >= 2);
    }
}
