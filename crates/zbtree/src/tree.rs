//! The disk-based B⁺-tree over z-order keys.

use crate::node::{InnerEntry, Key, ZLeafEntry, ZNode, INNER_CAPACITY, LEAF_CAPACITY};
use crate::ranges::z_ranges;
use asb_core::{BufferManager, BufferStats, PageFile};
use asb_geom::curve::{z_order_inverse, CurveGrid};
use asb_geom::{mbr_of, Point, Query, Rect};
use asb_storage::{
    even_chunks, AccessContext, DiskManager, Page, PageId, PageStore, QueryId, Result, StorageError,
};

/// Quantization grid resolution in bits per dimension.
const GRID_BITS: u32 = 16;
/// Split-depth budget of the window-query range decomposition.
const SPLIT_DEPTH: u32 = 10;
/// Target leaf fill during bulk loading (70 % of a page).
const BULK_LEAF_FILL: usize = LEAF_CAPACITY * 7 / 10;
/// Target inner fill during bulk loading (70 % of a page).
const BULK_INNER_FILL: usize = INNER_CAPACITY * 7 / 10;

const _: () = assert!(GRID_BITS >= 1 && GRID_BITS <= 32);
const _: () = assert!(SPLIT_DEPTH >= 1 && SPLIT_DEPTH <= 2 * GRID_BITS);
const _: () = assert!(BULK_LEAF_FILL >= 2 && BULK_LEAF_FILL <= LEAF_CAPACITY);
const _: () = assert!(BULK_INNER_FILL >= 2 && BULK_INNER_FILL <= INNER_CAPACITY);

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
    pub fn new(mut store: S, bounds: Rect) -> Result<Self> {
        let grid = CurveGrid::new(bounds, GRID_BITS);
        let root_node = ZNode::Leaf {
            next: None,
            entries: Vec::new(),
        };
        let root = store.allocate(root_node.page_meta(&[]), root_node.encode())?;
        Ok(ZBTree {
            file: PageFile::new(store),
            grid,
            root,
            height: 1,
            len: 0,
            next_query: 0,
        })
    }

    /// Bulk-loads from `(id, location)` pairs (sorted internally).
    pub fn bulk_load(store: S, bounds: Rect, points: &[(u64, Point)]) -> Result<Self> {
        let mut tree = Self::new(store, bounds)?;
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
            BULK_LEAF_FILL,
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
                BULK_INNER_FILL,
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
        let cells = (1u64 << GRID_BITS) as f64;
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

    /// Reads the node its parent (a root: the tree's height) places at
    /// `level`. A node at another level, or an inner node without entries,
    /// is corrupt, so every descent moves one level down and ends at a leaf.
    fn read_node_at(&mut self, id: PageId, level: u8) -> Result<ZNode> {
        let node = self.read_node(id)?;
        if node.level() != level {
            return Err(corrupt(
                id,
                format!(
                    "node at level {} where its parent puts level {level}",
                    node.level()
                ),
            ));
        }
        if matches!(&node, ZNode::Inner { entries, .. } if entries.is_empty()) {
            return Err(corrupt(id, "inner node without entries"));
        }
        Ok(node)
    }

    /// The entry naming the non-empty node `node` at page `id` in its
    /// parent: its smallest key and its MBR.
    fn entry_of(&self, id: PageId, node: &ZNode) -> InnerEntry {
        InnerEntry {
            min_key: node.min_key().expect("non-empty node"),
            child: id,
            mbr: self.node_mbr(node).expect("non-empty node"),
        }
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
        let (left, split) = self.insert_rec(root, self.height, entry)?;
        if let Some(right) = split {
            let new_root = ZNode::Inner {
                level: self.height + 1,
                entries: vec![left, right],
            };
            self.root = self.alloc_node(&new_root)?;
            self.height += 1;
        }
        Ok(())
    }

    /// Inserts `entry` below the node at `node_id`, which sits at `level`.
    /// Returns the node's entry for its parent and, if it split, the entry
    /// of its new right sibling.
    fn insert_rec(
        &mut self,
        node_id: PageId,
        level: u8,
        entry: ZLeafEntry,
    ) -> Result<(InnerEntry, Option<InnerEntry>)> {
        let mut node = self.read_node_at(node_id, level)?;
        match &mut node {
            ZNode::Leaf { entries, .. } => {
                match entries.binary_search_by_key(&entry.key, |e| e.key) {
                    // Upsert: same (z, id) key.
                    Ok(pos) => entries[pos] = entry,
                    Err(pos) => {
                        entries.insert(pos, entry);
                        self.len += 1;
                    }
                }
            }
            ZNode::Inner { entries, .. } => {
                let idx = child_index(entries, entry.key);
                let (child, split) = self.insert_rec(entries[idx].child, level - 1, entry)?;
                entries[idx] = child;
                if let Some(sibling) = split {
                    entries.insert(idx + 1, sibling);
                }
            }
        }
        if node.len() <= node.capacity() {
            self.write_node(node_id, &node)?;
            return Ok((self.entry_of(node_id, &node), None));
        }
        let right = node.split_off_upper_half();
        let right_id = self.alloc_node(&right)?;
        if let ZNode::Leaf { next, .. } = &mut node {
            *next = Some(right_id);
        }
        self.write_node(node_id, &node)?;
        Ok((
            self.entry_of(node_id, &node),
            Some(self.entry_of(right_id, &right)),
        ))
    }

    // ---- deletion --------------------------------------------------------

    /// Removes `(id, location)`. Returns `true` if the key was present.
    pub fn delete(&mut self, id: u64, location: &Point) -> Result<bool> {
        self.next_query += 1;
        let key = self.key_of(id, location);
        let root = self.root;
        let outcome = self.delete_rec(root, self.height, key)?;
        let found = matches!(outcome, DeleteOutcome::Removed { .. });
        if found {
            self.len -= 1;
            // Collapse the root while it is an inner node with one child.
            loop {
                match self.read_node_at(self.root, self.height)? {
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

    /// Removes `key` below the node at `node_id`, which sits at `level`.
    fn delete_rec(&mut self, node_id: PageId, level: u8, key: Key) -> Result<DeleteOutcome> {
        let mut node = self.read_node_at(node_id, level)?;
        match &mut node {
            ZNode::Leaf { entries, .. } => {
                let Ok(pos) = entries.binary_search_by_key(&key, |e| e.key) else {
                    return Ok(DeleteOutcome::NotFound);
                };
                entries.remove(pos);
            }
            ZNode::Inner { entries, .. } => {
                let idx = match entries.binary_search_by_key(&key, |e| e.min_key) {
                    Ok(i) => i,
                    Err(0) => return Ok(DeleteOutcome::NotFound),
                    Err(i) => i - 1,
                };
                let child = entries[idx].child;
                let DeleteOutcome::Removed { min_key, mbr, len } =
                    self.delete_rec(child, level - 1, key)?
                else {
                    return Ok(DeleteOutcome::NotFound);
                };
                match (min_key, mbr) {
                    (Some(min), Some(m)) => {
                        entries[idx].min_key = min;
                        entries[idx].mbr = m;
                        // Rebalance an underfull (non-empty) child.
                        if len < min_fill(level - 1) {
                            self.rebalance(entries, idx, level - 1)?;
                        }
                    }
                    _ => {
                        // Child is empty: drop it entirely.
                        self.free_node(child)?;
                        entries.remove(idx);
                    }
                }
            }
        }
        let outcome = DeleteOutcome::Removed {
            min_key: node.min_key(),
            mbr: self.node_mbr(&node),
            len: node.len(),
        };
        self.write_node(node_id, &node)?;
        Ok(outcome)
    }

    /// Merges the underfull child at `entries[idx]`, which sits at `level`,
    /// with a sibling, or moves one entry across when the two do not fit
    /// one page; updates `entries` in place. Each sibling is read once.
    fn rebalance(&mut self, entries: &mut Vec<InnerEntry>, idx: usize, level: u8) -> Result<()> {
        if entries.len() < 2 {
            return Ok(()); // only child: nothing to rebalance with (root path)
        }
        // Prefer the right sibling; fall back to the left one.
        let (left_idx, right_idx) = if idx + 1 < entries.len() {
            (idx, idx + 1)
        } else {
            (idx - 1, idx)
        };
        let (left_id, right_id) = (entries[left_idx].child, entries[right_idx].child);
        let mut left = self.read_node_at(left_id, level)?;
        let mut right = self.read_node_at(right_id, level)?;
        let capacity = left.capacity();
        let merged = match (&mut left, &mut right) {
            (
                ZNode::Leaf { next, entries: le },
                ZNode::Leaf {
                    next: rnext,
                    entries: re,
                },
            ) => {
                let merged = redistribute(le, re, capacity);
                if merged {
                    // Left inherits right's chain link.
                    *next = *rnext;
                }
                merged
            }
            (ZNode::Inner { entries: le, .. }, ZNode::Inner { entries: re, .. }) => {
                redistribute(le, re, capacity)
            }
            _ => return Err(corrupt(right_id, "siblings of different kinds")),
        };
        entries[left_idx] = self.entry_of(left_id, &left);
        self.write_node(left_id, &left)?;
        if merged {
            self.free_node(right_id)?;
            entries.remove(right_idx);
        } else {
            entries[right_idx] = self.entry_of(right_id, &right);
            self.write_node(right_id, &right)?;
        }
        Ok(())
    }

    // ---- queries ---------------------------------------------------------

    /// Finds the leaf that would hold `key` and returns its page id. Every
    /// step descends one level ([`Self::read_node_at`]), so a hostile child
    /// pointer ends the walk as [`StorageError::Corrupt`] instead of a loop.
    fn find_leaf(&mut self, key: Key) -> Result<PageId> {
        let (mut node_id, mut level) = (self.root, self.height);
        loop {
            match self.read_node_at(node_id, level)? {
                ZNode::Leaf { .. } => return Ok(node_id),
                ZNode::Inner { entries, .. } => {
                    node_id = entries[child_index(&entries, key)].child;
                    level -= 1;
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
                let ranges = z_ranges(&self.grid, w, SPLIT_DEPTH);
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
        let mut stack = vec![(self.root, self.height)];
        while let Some((id, level)) = stack.pop() {
            match self.read_node_at(id, level)? {
                ZNode::Leaf { entries, .. } => {
                    leaf_pages += 1;
                    entries_total += entries.len();
                }
                ZNode::Inner { entries, .. } => {
                    inner_pages += 1;
                    stack.extend(entries.iter().map(|e| (e.child, level - 1)));
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
        let node = self.read_node_at(node_id, expected_level)?;
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

/// The child of an inner node whose subtree would hold `key`: the last
/// entry whose minimum is at most `key`, the leftmost for a key below all.
fn child_index(entries: &[InnerEntry], key: Key) -> usize {
    match entries.binary_search_by_key(&key, |e| e.min_key) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    }
}

/// The fewest entries a non-root node at `level` may hold.
fn min_fill(level: u8) -> usize {
    if level == 1 {
        LEAF_CAPACITY / 2
    } else {
        INNER_CAPACITY / 2
    }
}

/// Evens out the entries of two siblings, `left` before `right`, whose
/// nodes hold `capacity` entries. If both fit one node, `right` is appended
/// to `left` and `true` (merged) returned; otherwise the longer list gives
/// its entry nearest the boundary to the shorter one.
fn redistribute<T>(left: &mut Vec<T>, right: &mut Vec<T>, capacity: usize) -> bool {
    if left.len() + right.len() <= capacity {
        left.append(right);
        return true;
    }
    if left.len() < right.len() {
        left.push(right.remove(0));
    } else if let Some(last) = left.pop() {
        right.insert(0, last);
    }
    false
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

    /// A delete on a height-3 tree reads the root-to-leaf path and then the
    /// root once more (4 pages); one that rebalances the leaf also reads its
    /// two siblings, each once: 6 pages.
    #[test]
    fn leaf_rebalance_reads_each_sibling_once() {
        let points = scatter(2000);
        let mut t = ZBTree::bulk_load(DiskManager::new(), bounds(), &points).unwrap();
        assert_eq!(t.height(), 3);
        let mut reads = Vec::new();
        for &(id, p) in &points {
            let before = t.store().stats().reads;
            assert!(t.delete(id, &p).unwrap());
            reads.push(t.store().stats().reads - before);
            if reads.last() != Some(&4) {
                break;
            }
        }
        // The first delete that did more than walk the path rebalanced a
        // leaf; the tree is still three levels tall.
        assert_eq!(reads.last(), Some(&6), "delete {} of the run", reads.len());
        assert_eq!(t.height(), 3);
        t.validate().unwrap();
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
