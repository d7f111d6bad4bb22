//! The disk-based R\*-tree.

use crate::config::RTreeConfig;
use crate::node::{corrupt, DirEntry, LeafEntry, Node, NodeKind, NodeView, ViewEntries};
use crate::search::Search;
use crate::split::{
    choose_least_enlargement, choose_least_overlap, rstar_split, take_reinsert_victims,
};
use asb_core::{BufferManager, BufferStats, PageFile};
use asb_geom::{HasMbr, Point, Query, Rect};
use asb_storage::{
    even_chunks, AccessContext, DiskManager, Page, PageId, PageStore, QueryId, Result, StorageError,
};

impl HasMbr for DirEntry {
    fn mbr(&self) -> Rect {
        self.mbr
    }
}

impl HasMbr for LeafEntry {
    fn mbr(&self) -> Rect {
        self.mbr
    }
}

/// An object to be indexed: its MBR and an application-level id
/// (re-export of [`asb_geom::SpatialItem`]).
pub type RTreeItem = asb_geom::SpatialItem;

/// Structural statistics of a tree (computed by [`RTree::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of directory pages.
    pub directory_pages: usize,
    /// Number of data (leaf) pages.
    pub data_pages: usize,
    /// Height of the tree (root level; 1 = the root is a leaf).
    pub height: u8,
    /// Number of indexed objects.
    pub objects: usize,
}

impl TreeStats {
    /// Total pages of the tree.
    pub fn total_pages(&self) -> usize {
        self.directory_pages + self.data_pages
    }

    /// Fraction of pages that are directory pages (the paper reports 2.84 %
    /// and 2.87 % for its two databases).
    pub fn directory_fraction(&self) -> f64 {
        self.directory_pages as f64 / self.total_pages() as f64
    }
}

/// The structural identity of a tree, detached from its page store.
///
/// A snapshot plus a store handle reconstructs a working tree view
/// ([`RTree::attach`]). The intended use is concurrent serving on a shared
/// buffer pool: build (or bulk-load) a tree once, take its [`snapshot`],
/// move the store into an `asb_core::ShardedBuffer`, and give every serving
/// thread its own `RTree` attached to a clone of the pool handle. As long
/// as no thread mutates the structure (insert/delete), all views stay
/// consistent.
///
/// [`snapshot`]: RTree::snapshot
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSnapshot {
    root: PageId,
    height: u8,
    len: usize,
    config: RTreeConfig,
}

impl TreeSnapshot {
    /// The root page of the snapshotted tree — the entry point for
    /// external traversals (e.g. a serving front end expanding nodes
    /// itself to batch page requests across sessions).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Height of the snapshotted tree (1 = the root is a leaf).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Number of items in the snapshotted tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshotted tree was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

enum AnyEntry {
    Leaf(LeafEntry),
    Dir(DirEntry),
}

impl AnyEntry {
    fn mbr(&self) -> Rect {
        match self {
            AnyEntry::Leaf(e) => e.mbr,
            AnyEntry::Dir(e) => e.mbr,
        }
    }
}

/// A disk-based R\*-tree over any [`PageStore`], optionally reading through
/// a [`BufferManager`].
///
/// Every node access is one page request; with a buffer attached, requests
/// go through it and the buffer's miss count is the paper's "number of disk
/// accesses". Each query (and each update operation) gets a fresh
/// [`QueryId`] so LRU-K can collapse correlated references.
///
/// ```
/// use asb_geom::{Rect, SpatialItem};
/// use asb_rtree::RTree;
/// use asb_storage::DiskManager;
///
/// let items: Vec<SpatialItem> = (0..500)
///     .map(|i| {
///         let x = (i % 25) as f64;
///         let y = (i / 25) as f64;
///         SpatialItem::new(i, Rect::new(x, y, x + 0.5, y + 0.5))
///     })
///     .collect();
/// let mut tree = RTree::bulk_load(DiskManager::new(), &items).unwrap();
///
/// let hits = tree.window_query(Rect::new(0.0, 0.0, 3.0, 3.0)).unwrap();
/// assert_eq!(hits.len(), 16); // the 4x4 corner of the grid
/// tree.validate().unwrap();
/// ```
pub struct RTree<S: PageStore = DiskManager> {
    file: PageFile<S>,
    config: RTreeConfig,
    root: PageId,
    height: u8,
    len: usize,
    next_query: u64,
}

impl<S: PageStore> std::fmt::Debug for RTree<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("len", &self.len)
            .field("buffered", &self.file.buffer().is_some())
            .finish()
    }
}

impl<S: PageStore> RTree<S> {
    /// Creates an empty tree (a single empty leaf page) in `store`.
    pub fn new(store: S) -> Result<Self> {
        Self::with_config(store, RTreeConfig::default())
    }

    /// Creates an empty tree with a custom configuration.
    pub fn with_config(mut store: S, config: RTreeConfig) -> Result<Self> {
        config.validate().map_err(invalid)?;
        let root_node = Node::new_leaf();
        let root = store.allocate(root_node.page_meta(), root_node.encode())?;
        Ok(RTree {
            file: PageFile::new(store),
            config,
            root,
            height: 1,
            len: 0,
            next_query: 0,
        })
    }

    /// Bulk-loads a tree from `items` using the STR (sort-tile-recursive)
    /// algorithm with the default configuration.
    pub fn bulk_load(store: S, items: &[RTreeItem]) -> Result<Self> {
        Self::bulk_load_with(store, RTreeConfig::default(), items)
    }

    /// Bulk-loads with a custom configuration.
    pub fn bulk_load_with(mut store: S, config: RTreeConfig, items: &[RTreeItem]) -> Result<Self> {
        config.validate().map_err(invalid)?;
        if let Some(item) = items.iter().find(|it| !it.mbr.is_finite()) {
            return Err(non_finite(item));
        }
        if items.is_empty() {
            return Self::with_config(store, config);
        }

        // Level 1: tile items into leaves.
        let leaf_entries: Vec<LeafEntry> = items
            .iter()
            .map(|it| LeafEntry {
                mbr: it.mbr,
                object_id: it.id,
                object_page: 0,
            })
            .collect();
        let tiles = str_tiles(
            leaf_entries,
            config.bulk_leaf_fill,
            config.leaf_min,
            config.leaf_max,
        );
        let mut level_entries: Vec<DirEntry> = Vec::with_capacity(tiles.len());
        for tile in tiles {
            let node = Node {
                level: 1,
                kind: NodeKind::Leaf(tile),
            };
            let id = store.allocate(node.page_meta(), node.encode())?;
            level_entries.push(DirEntry {
                mbr: node.mbr().expect("non-empty tile"),
                child: id,
            });
        }

        // Upper levels until a single node remains.
        let mut level = 1u8;
        while level_entries.len() > 1 {
            level += 1;
            let tiles = str_tiles(
                level_entries,
                config.bulk_dir_fill,
                config.dir_min,
                config.dir_max,
            );
            let mut next = Vec::with_capacity(tiles.len());
            for tile in tiles {
                let node = Node {
                    level,
                    kind: NodeKind::Dir(tile),
                };
                let id = store.allocate(node.page_meta(), node.encode())?;
                next.push(DirEntry {
                    mbr: node.mbr().expect("non-empty tile"),
                    child: id,
                });
            }
            level_entries = next;
        }

        let root = level_entries[0].child;
        Ok(RTree {
            file: PageFile::new(store),
            config,
            root,
            height: level,
            len: items.len(),
            next_query: 0,
        })
    }

    /// Attaches (or replaces) a buffer through which all node reads and
    /// writes are routed.
    pub fn set_buffer(&mut self, buffer: BufferManager) {
        self.file.set_buffer(buffer);
    }

    /// Detaches and returns the buffer, if any.
    pub fn take_buffer(&mut self) -> Option<BufferManager> {
        self.file.take_buffer()
    }

    /// The attached buffer.
    pub fn buffer(&self) -> Option<&BufferManager> {
        self.file.buffer()
    }

    /// Mutable access to the attached buffer.
    pub fn buffer_mut(&mut self) -> Option<&mut BufferManager> {
        self.file.buffer_mut()
    }

    /// Buffer statistics, if a buffer is attached.
    pub fn buffer_stats(&self) -> Option<BufferStats> {
        self.file.buffer().map(|b| b.stats())
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        self.file.store()
    }

    /// Mutable access to the backing store (e.g. to reset
    /// [`DiskManager`] I/O statistics between experiments).
    pub fn store_mut(&mut self) -> &mut S {
        self.file.store_mut()
    }

    /// Number of live pages in the backing store (for a store dedicated to
    /// this tree: the tree's page count, the quantity the paper sizes
    /// buffers against).
    pub fn page_count(&self) -> usize {
        self.file.store().page_count()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (the paper's US-mainland tree has height 4).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Captures the tree's structural identity (root, height, length,
    /// configuration) so the store can be re-wrapped and re-attached — see
    /// [`TreeSnapshot`].
    pub fn snapshot(&self) -> TreeSnapshot {
        TreeSnapshot {
            root: self.root,
            height: self.height,
            len: self.len,
            config: self.config,
        }
    }

    /// Consumes the tree and returns its backing store (e.g. to move a
    /// bulk-loaded disk into a shared buffer pool).
    pub fn into_store(self) -> S {
        self.file.into_store()
    }

    /// Reconstructs a tree view over `store` from a [`TreeSnapshot`].
    ///
    /// The store must contain the pages the snapshot was taken over
    /// (typically: the same store, or a buffer pool wrapping it). The view
    /// starts with no buffer attached and query counter 0; concurrent views
    /// should space their counters out with
    /// [`seed_query_counter`](RTree::seed_query_counter).
    pub fn attach(store: S, snapshot: TreeSnapshot) -> Self {
        RTree {
            file: PageFile::new(store),
            config: snapshot.config,
            root: snapshot.root,
            height: snapshot.height,
            len: snapshot.len,
            next_query: 0,
        }
    }

    /// Sets the query counter to `base`.
    ///
    /// Query ids tag accesses for correlated-reference detection (LRU-K).
    /// Threads serving from separate views of one shared pool should use
    /// disjoint ranges (e.g. `t * 1 << 32`) so accesses from different
    /// threads are never treated as the same query.
    pub fn seed_query_counter(&mut self, base: u64) {
        self.next_query = base;
    }

    // ---- page I/O ------------------------------------------------------

    fn ctx(&self) -> AccessContext {
        AccessContext::query(QueryId::new(self.next_query))
    }

    fn read_node(&mut self, id: PageId) -> Result<Node> {
        let ctx = self.ctx();
        self.file.read(id, ctx, Node::decode)
    }

    /// Reads the node its parent (a root: the tree's height) places at
    /// `level`; a node at another level is corrupt, so every descent moves
    /// one level down and ends at a leaf.
    pub(crate) fn read_node_at(&mut self, id: PageId, level: u8) -> Result<Node> {
        self.read_view_at(id, level, |view| Node::from_view(id, view))
    }

    /// [`read_node_at`](Self::read_node_at) that hands `f` the node's view
    /// on its page instead of an owned copy: what a step reads, and does not
    /// edit, costs no allocation.
    fn read_view_at<R>(
        &mut self,
        id: PageId,
        level: u8,
        f: impl FnOnce(NodeView<'_>) -> Result<R>,
    ) -> Result<R> {
        let ctx = self.ctx();
        self.file.read(id, ctx, |page| {
            let view = NodeView::parse(page)?;
            if view.level() != level {
                return Err(corrupt(
                    id,
                    format!("expected level {level}, found {}", view.level()),
                ));
            }
            f(view)
        })
    }

    fn write_node(&mut self, id: PageId, node: &Node) -> Result<()> {
        self.file
            .write(Page::new(id, node.page_meta(), node.encode())?)
    }

    fn alloc_node(&mut self, node: &Node) -> Result<PageId> {
        self.file.allocate(node.page_meta(), node.encode())
    }

    fn free_node(&mut self, id: PageId) -> Result<()> {
        self.file.free(id)
    }

    // ---- queries ---------------------------------------------------------

    /// Runs `search` to completion, one page at a time: the query's
    /// page-reference string is the sequence of its `wants(1)` answers.
    /// Each page is fed as a view of the pinned frame (or of the store's
    /// page, unbuffered); a page the search refuses is corrupt.
    fn run(&mut self, mut search: Search) -> Result<Search> {
        self.next_query += 1;
        let ctx = self.ctx();
        while let Some(&id) = search.wants(1).first() {
            self.file.read(id, ctx, |page| {
                let view = NodeView::parse(page)?;
                search.feed(|_| Some(view));
                Ok(())
            })?;
            if search.pruned() {
                return Err(corrupt(id, "node is not one level below its parent"));
            }
        }
        Ok(search)
    }

    /// Executes a point or window query, returning the matching object ids.
    pub fn execute(&mut self, query: &Query) -> Result<Vec<u64>> {
        Ok(self.run(Search::window(self.root, *query))?.into_results())
    }

    /// Point query: all objects whose MBR contains `p`.
    pub fn point_query(&mut self, p: Point) -> Result<Vec<u64>> {
        self.execute(&Query::Point(p))
    }

    /// Window query: all objects whose MBR intersects `window`.
    pub fn window_query(&mut self, window: Rect) -> Result<Vec<u64>> {
        self.execute(&Query::Window(window))
    }

    /// The `k` nearest objects to `p` by MBR distance (best-first search).
    /// Returns `(object_id, distance)` pairs ordered by ascending distance.
    pub fn nearest_neighbors(&mut self, p: Point, k: usize) -> Result<Vec<(u64, f64)>> {
        Ok(self.run(Search::nearest(self.root, p, k))?.into_neighbors())
    }

    // ---- insertion -------------------------------------------------------

    /// Inserts an object using the full R\* algorithm (ChooseSubtree,
    /// forced reinsertion, margin-driven split). An item with a non-finite
    /// coordinate is refused as [`StorageError::InvalidInput`] before
    /// anything is read or written.
    pub fn insert(&mut self, item: RTreeItem) -> Result<()> {
        if !item.mbr.is_finite() {
            return Err(non_finite(&item));
        }
        self.next_query += 1;
        let entry = LeafEntry {
            mbr: item.mbr,
            object_id: item.id,
            object_page: 0,
        };
        let mut reinserted = 0u64; // bitmask: level l already reinserted
        let mut pending: Vec<(AnyEntry, u8)> = vec![(AnyEntry::Leaf(entry), 1)];
        while let Some((entry, level)) = pending.pop() {
            self.insert_from_root(entry, level, &mut reinserted, &mut pending)?;
        }
        self.len += 1;
        Ok(())
    }

    fn insert_from_root(
        &mut self,
        entry: AnyEntry,
        target_level: u8,
        reinserted: &mut u64,
        pending: &mut Vec<(AnyEntry, u8)>,
    ) -> Result<()> {
        let root = self.root;
        let (_, split) =
            self.insert_rec(root, self.height, entry, target_level, reinserted, pending)?;
        if let Some(sibling) = split {
            // Grow a new root above the old one.
            let old_root_node = self.read_node(root)?;
            let old_entry = DirEntry {
                mbr: old_root_node.mbr().expect("split root is non-empty"),
                child: root,
            };
            let new_root = Node {
                level: self.height + 1,
                kind: NodeKind::Dir(vec![old_entry, sibling]),
            };
            self.root = self.alloc_node(&new_root)?;
            self.height += 1;
        }
        Ok(())
    }

    /// Recursive insertion below the node at `node_id`, which sits at
    /// `level`; returns the subtree's new MBR and, if the node split, the
    /// directory entry for the new sibling.
    fn insert_rec(
        &mut self,
        node_id: PageId,
        level: u8,
        entry: AnyEntry,
        target_level: u8,
        reinserted: &mut u64,
        pending: &mut Vec<(AnyEntry, u8)>,
    ) -> Result<(Rect, Option<DirEntry>)> {
        let mut node = self.read_node_at(node_id, level)?;
        debug_assert!(level >= target_level);
        if level == target_level {
            match (entry, &mut node.kind) {
                (AnyEntry::Leaf(e), NodeKind::Leaf(v)) => v.push(e),
                (AnyEntry::Dir(e), NodeKind::Dir(v)) => v.push(e),
                _ => return Err(corrupt(node_id, "entry kind does not match node level")),
            }
        } else {
            let rect = entry.mbr();
            let entries = node.dir_entries();
            // R*: children that are leaves -> minimize overlap enlargement;
            // higher levels -> minimize area enlargement.
            let idx = if node.level == 2 {
                choose_least_overlap(entries, &rect)
            } else {
                choose_least_enlargement(entries, &rect)
            };
            let child = entries[idx].child;
            let (child_mbr, split) =
                self.insert_rec(child, level - 1, entry, target_level, reinserted, pending)?;
            node.dir_entries_mut()[idx].mbr = child_mbr;
            if let Some(sibling) = split {
                node.dir_entries_mut().push(sibling);
            }
        }

        if node.len() > self.config.max_for(node.level) {
            return self.handle_overflow(node_id, node, reinserted, pending);
        }
        let mbr = node.mbr().expect("non-empty after insert");
        self.write_node(node_id, &node)?;
        Ok((mbr, None))
    }

    fn handle_overflow(
        &mut self,
        node_id: PageId,
        mut node: Node,
        reinserted: &mut u64,
        pending: &mut Vec<(AnyEntry, u8)>,
    ) -> Result<(Rect, Option<DirEntry>)> {
        let level = node.level;
        let level_bit = 1u64 << level.min(63);
        let is_root = node_id == self.root;
        let p = self
            .config
            .reinsert_count
            .min(node.len() - self.config.min_for(level));

        if !is_root && *reinserted & level_bit == 0 && p > 0 {
            // Forced reinsertion: remove the p entries farthest from the
            // node's center and queue them for reinsertion at this level.
            // `pending` is popped from the back, so the victims go on
            // farthest first and come back closest first ("close reinsert").
            *reinserted |= level_bit;
            match &mut node.kind {
                NodeKind::Leaf(entries) => {
                    for v in take_reinsert_victims(entries, p).into_iter().rev() {
                        pending.push((AnyEntry::Leaf(v), level));
                    }
                }
                NodeKind::Dir(entries) => {
                    for v in take_reinsert_victims(entries, p).into_iter().rev() {
                        pending.push((AnyEntry::Dir(v), level));
                    }
                }
            }
            let mbr = node.mbr().expect("entries remain after reinsertion");
            self.write_node(node_id, &node)?;
            return Ok((mbr, None));
        }

        // Split.
        let min_fill = self.config.min_for(level);
        let (first_node, second_node) = match node.kind {
            NodeKind::Leaf(entries) => {
                let split = rstar_split(entries, min_fill);
                (
                    Node {
                        level,
                        kind: NodeKind::Leaf(split.first),
                    },
                    Node {
                        level,
                        kind: NodeKind::Leaf(split.second),
                    },
                )
            }
            NodeKind::Dir(entries) => {
                let split = rstar_split(entries, min_fill);
                (
                    Node {
                        level,
                        kind: NodeKind::Dir(split.first),
                    },
                    Node {
                        level,
                        kind: NodeKind::Dir(split.second),
                    },
                )
            }
        };
        let first_mbr = first_node.mbr().expect("non-empty split half");
        let second_mbr = second_node.mbr().expect("non-empty split half");
        self.write_node(node_id, &first_node)?;
        let sibling_id = self.alloc_node(&second_node)?;
        Ok((
            first_mbr,
            Some(DirEntry {
                mbr: second_mbr,
                child: sibling_id,
            }),
        ))
    }

    // ---- deletion --------------------------------------------------------

    /// Removes the object `(id, mbr)`. Returns `true` if it was found.
    ///
    /// Underfull nodes along the deletion path are dissolved and their
    /// entries reinserted (the R-tree CondenseTree step); the root shrinks
    /// when it has a single child.
    pub fn delete(&mut self, id: u64, mbr: &Rect) -> Result<bool> {
        self.next_query += 1;
        let mut orphans: Vec<(AnyEntry, u8)> = Vec::new();
        let root = self.root;
        let found = self
            .delete_rec(root, self.height, id, mbr, &mut orphans)?
            .is_some();
        if !found {
            debug_assert!(orphans.is_empty());
            return Ok(false);
        }
        self.len -= 1;

        // Reinsert orphaned entries at their original levels.
        let mut reinserted = u64::MAX; // no forced reinsertion during condense
        while let Some((entry, level)) = orphans.pop() {
            let mut pending = Vec::new();
            self.insert_from_root(entry, level, &mut reinserted, &mut pending)?;
            orphans.extend(pending);
        }

        // Shrink the root while it is a directory with a single child.
        loop {
            let only_child = self.read_view_at(self.root, self.height, |view| {
                Ok(match view.entries() {
                    ViewEntries::Dir(mut children) if view.len() == 1 => {
                        children.next().map(|e| e.child)
                    }
                    _ => None,
                })
            })?;
            let Some(child) = only_child else { break };
            let old_root = self.root;
            self.root = child;
            self.height -= 1;
            self.free_node(old_root)?;
        }
        Ok(true)
    }

    /// Deletes below the node at `node_id`, which sits at `level`. Returns
    /// `Some(new_mbr)` if the entry was deleted inside this subtree (`None`
    /// for the MBR when the subtree became empty — only possible at the
    /// root).
    ///
    /// The search reads every page as a view: only the leaf that holds the
    /// object, the directories on its path and a dissolved child become
    /// owned nodes. The pages read, and their order, are those of a search
    /// that decodes every page.
    fn delete_rec(
        &mut self,
        node_id: PageId,
        level: u8,
        id: u64,
        mbr: &Rect,
        orphans: &mut Vec<(AnyEntry, u8)>,
    ) -> Result<Option<Option<Rect>>> {
        if level == 1 {
            let edited = self.read_view_at(node_id, level, |view| {
                let ViewEntries::Leaf(mut entries) = view.entries() else {
                    return Ok(None);
                };
                let Some(pos) = entries.position(|e| e.object_id == id && e.mbr == *mbr) else {
                    return Ok(None);
                };
                let mut node = Node::from_view(node_id, view)?;
                if let NodeKind::Leaf(entries) = &mut node.kind {
                    entries.remove(pos);
                }
                Ok(Some(node))
            })?;
            let Some(node) = edited else {
                return Ok(None);
            };
            let new_mbr = node.mbr();
            self.write_node(node_id, &node)?;
            return Ok(Some(new_mbr));
        }

        // Directory node: try every child whose MBR intersects the target.
        let candidates: Vec<(usize, PageId)> = self.read_view_at(node_id, level, |view| {
            let ViewEntries::Dir(entries) = view.entries() else {
                return Ok(Vec::new());
            };
            Ok(entries
                .enumerate()
                .filter(|(_, e)| e.mbr.intersects(mbr))
                .map(|(i, e)| (i, e.child))
                .collect())
        })?;
        let mut hit: Option<(usize, PageId, Option<Rect>)> = None;
        for (i, child) in candidates {
            if let Some(child_mbr) = self.delete_rec(child, level - 1, id, mbr, orphans)? {
                hit = Some((i, child, child_mbr));
                break;
            }
        }
        let Some((idx, child, child_mbr)) = hit else {
            return Ok(None);
        };

        let mut node = self.read_node_at(node_id, level)?;
        let child_level = level - 1;
        let min_fill = self.config.min_for(child_level);
        let dissolved = self.read_view_at(child, child_level, |view| {
            if view.len() < min_fill {
                Node::from_view(child, view).map(Some)
            } else {
                Ok(None)
            }
        })?;
        if let Some(child_node) = dissolved {
            // CondenseTree: dissolve the underfull child, orphan its
            // entries for reinsertion at their original level.
            match child_node.kind {
                NodeKind::Leaf(es) => {
                    orphans.extend(es.into_iter().map(|e| (AnyEntry::Leaf(e), child_level)));
                }
                NodeKind::Dir(es) => {
                    orphans.extend(es.into_iter().map(|e| (AnyEntry::Dir(e), child_level)));
                }
            }
            self.free_node(child)?;
            node.dir_entries_mut().remove(idx);
        } else {
            node.dir_entries_mut()[idx].mbr = child_mbr.expect("non-underfull child is non-empty");
        }
        let new_mbr = node.mbr();
        self.write_node(node_id, &node)?;
        Ok(Some(new_mbr))
    }

    // ---- introspection ----------------------------------------------------

    /// Visits every node of the tree depth-first, in one query scope.
    fn for_each_node(
        &mut self,
        mut visit: impl FnMut(&mut Self, PageId, Node) -> Result<()>,
    ) -> Result<()> {
        self.next_query += 1;
        let mut stack = vec![(self.root, self.height)];
        while let Some((id, level)) = stack.pop() {
            let node = self.read_node_at(id, level)?;
            if let NodeKind::Dir(entries) = &node.kind {
                stack.extend(entries.iter().map(|e| (e.child, level - 1)));
            }
            visit(self, id, node)?;
        }
        Ok(())
    }

    /// Traverses the tree and returns structural statistics.
    ///
    /// Reads go through the normal access path (and are therefore counted);
    /// call this outside measurement windows.
    pub fn stats(&mut self) -> Result<TreeStats> {
        let mut stats = TreeStats {
            directory_pages: 0,
            data_pages: 0,
            height: self.height,
            objects: 0,
        };
        self.for_each_node(|_, _, node| {
            match &node.kind {
                NodeKind::Dir(_) => stats.directory_pages += 1,
                NodeKind::Leaf(entries) => {
                    stats.data_pages += 1;
                    stats.objects += entries.len();
                }
            }
            Ok(())
        })?;
        Ok(stats)
    }

    /// Checks every structural invariant of the tree:
    ///
    /// * node levels decrease by exactly one per step, leaves at level 1;
    /// * directory entry MBRs equal their child node's MBR exactly;
    /// * non-root nodes respect the min/max fan-out, the root has ≥ 1 entry
    ///   (≥ 2 if it is a directory);
    /// * the recorded object count matches the leaves;
    /// * page metadata (type, level, spatial statistics) matches content.
    ///
    /// Reads go through the normal access path; call outside measurement
    /// windows (e.g. from tests).
    pub fn validate(&mut self) -> Result<()> {
        self.next_query += 1;
        let root = self.root;
        let root_node = self.read_node_at(root, self.height)?;
        if self.height > 1 && root_node.len() < 2 {
            return Err(corrupt(root, "directory root with fewer than 2 entries"));
        }
        let mut objects = 0usize;
        // (page, expected level, expected exact MBR or None for the root)
        let mut stack: Vec<(PageId, u8, Option<Rect>)> = vec![(root, self.height, None)];
        while let Some((id, level, expected_mbr)) = stack.pop() {
            let node = self.read_node_at(id, level)?;
            if id != root {
                let min = self.config.min_for(level);
                if node.len() < min {
                    return Err(corrupt(
                        id,
                        format!("underfull node: {} < {min}", node.len()),
                    ));
                }
            }
            if node.len() > self.config.max_for(level) {
                return Err(corrupt(id, "overfull node"));
            }
            if let Some(expected) = expected_mbr {
                let actual = node
                    .mbr()
                    .ok_or_else(|| corrupt(id, "non-root node without entries"))?;
                if actual != expected {
                    return Err(corrupt(id, "parent entry MBR differs from child MBR"));
                }
            }
            match &node.kind {
                NodeKind::Dir(entries) => {
                    for e in entries {
                        stack.push((e.child, level - 1, Some(e.mbr)));
                    }
                }
                NodeKind::Leaf(entries) => {
                    objects += entries.len();
                }
            }
        }
        if objects != self.len {
            return Err(corrupt(
                root,
                format!(
                    "object count mismatch: leaves hold {objects}, tree records {}",
                    self.len
                ),
            ));
        }
        Ok(())
    }

    /// The page ids of the last `n` leaves under the right spine, last
    /// first: the chaos harness's deterministic poison targets. STR bulk
    /// loading tiles space in sort order, so these are the *last* tiles, and
    /// poisoning them prunes one tile's objects rather than a subtree (the
    /// first tiles sit in the workload's hottest region and would degrade
    /// most requests). Fewer than `n` when the last parent of leaves has
    /// fewer children; empty for a root-only tree. The walk reads through
    /// `read_node_at`, so a spine that loops or holds an empty directory is
    /// `Corrupt`.
    pub fn last_leaf_ids(&mut self, n: usize) -> Result<Vec<PageId>> {
        self.next_query += 1;
        let (mut id, mut level) = (self.root, self.height);
        loop {
            let NodeKind::Dir(entries) = self.read_node_at(id, level)?.kind else {
                return Ok(Vec::new());
            };
            if level == 2 {
                return Ok(entries.iter().rev().take(n).map(|e| e.child).collect());
            }
            let last = entries
                .last()
                .ok_or_else(|| corrupt(id, "directory without entries"))?;
            (id, level) = (last.child, level - 1);
        }
    }

    /// Rewrites the `object_page` pointer of every leaf entry using
    /// `resolver` (typically [`ObjectStore::page_of`]), connecting the
    /// index to the object pages of the paper's storage architecture.
    ///
    /// Entries whose id the resolver does not know keep pointer 0
    /// (= no exact representation stored).
    ///
    /// [`ObjectStore::page_of`]: asb_storage::ObjectStore::page_of
    pub fn assign_object_pages<F>(&mut self, resolver: F) -> Result<()>
    where
        F: Fn(u64) -> Option<PageId>,
    {
        self.for_each_node(|tree, id, mut node| {
            let NodeKind::Leaf(entries) = &mut node.kind else {
                return Ok(());
            };
            for e in entries.iter_mut() {
                e.object_page = resolver(e.object_id).map_or(0, |p| p.raw());
            }
            tree.write_node(id, &node)
        })
    }

    /// Executes a query and additionally reads the object page of every
    /// matching entry through the buffer — the full access path of the
    /// paper's storage architecture (directory pages → data pages → object
    /// pages), which is what makes the *type-based* LRU meaningful.
    ///
    /// Each distinct object page is read at most once per query. Returns
    /// the matching object ids.
    pub fn execute_fetching_objects(&mut self, query: &Query) -> Result<Vec<u64>> {
        let mut search = self.run(Search::window(self.root, *query))?;
        let mut object_pages = search.take_object_pages();
        object_pages.sort_unstable();
        object_pages.dedup();
        let ctx = self.ctx();
        for raw in object_pages {
            self.file.read(PageId::new(raw), ctx, |_| Ok(()))?;
        }
        Ok(search.into_results())
    }

    /// The root page id (used by the spatial join).
    pub(crate) fn root_id(&self) -> PageId {
        self.root
    }

    /// Starts a new query scope (used by multi-tree operations).
    pub(crate) fn begin_query(&mut self) {
        self.next_query += 1;
    }
}

/// Caller input the tree refuses before writing anything.
fn invalid(reason: impl Into<String>) -> StorageError {
    StorageError::InvalidInput {
        reason: reason.into(),
    }
}

/// The refusal of an item with a non-finite coordinate: the R\*
/// heuristics sort, sum and compare coordinates, and a stored ∞ or NaN
/// would spread into every MBR above it.
fn non_finite(item: &RTreeItem) -> StorageError {
    invalid(format!("item {} has a non-finite coordinate", item.id))
}

/// Sort-tile-recursive partitioning: returns chunks of ~`fill` entries
/// (never fewer than `min`, never more than `max`), tiled by x then y.
fn str_tiles<E: HasMbr>(mut entries: Vec<E>, fill: usize, min: usize, max: usize) -> Vec<Vec<E>> {
    let n = entries.len();
    if n <= fill {
        return vec![entries];
    }
    let node_count = n.div_ceil(fill);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = slice_count * fill;
    entries.sort_by(|a, b| {
        let (ca, cb) = (a.mbr().center(), b.mbr().center());
        ca.x.partial_cmp(&cb.x).expect("finite coordinates")
    });
    let mut tiles = Vec::with_capacity(node_count);
    let mut rest = entries;
    // Distribute entries evenly over the vertical slices, then evenly over
    // the tiles within each slice, so no tile ends up underfull.
    for slice_len in even_chunks(n, slice_size, min, usize::MAX / 2) {
        let mut slice: Vec<E> = rest.drain(..slice_len).collect();
        slice.sort_by(|a, b| {
            let (ca, cb) = (a.mbr().center(), b.mbr().center());
            ca.y.partial_cmp(&cb.y).expect("finite coordinates")
        });
        for tile_len in even_chunks(slice.len(), fill, min, max) {
            tiles.push(slice.drain(..tile_len).collect());
        }
    }
    debug_assert!(rest.is_empty());
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_core::PolicyKind;

    fn item(id: u64, x: f64, y: f64) -> RTreeItem {
        RTreeItem::new(id, Rect::new(x, y, x + 1.0, y + 1.0))
    }

    /// A deterministic scatter of n items.
    fn scatter(n: u64) -> Vec<RTreeItem> {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| item(i, rng() * 1000.0, rng() * 1000.0))
            .collect()
    }

    fn tiny_tree(items: &[RTreeItem]) -> RTree<DiskManager> {
        let mut tree = RTree::with_config(DiskManager::new(), RTreeConfig::small()).unwrap();
        for &it in items {
            tree.insert(it).unwrap();
        }
        tree
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let mut tree = RTree::new(DiskManager::new()).unwrap();
        assert!(tree.is_empty());
        assert_eq!(
            tree.window_query(Rect::new(0.0, 0.0, 10.0, 10.0)).unwrap(),
            vec![]
        );
        assert_eq!(tree.point_query(Point::new(1.0, 1.0)).unwrap(), vec![]);
        tree.validate().unwrap();
    }

    #[test]
    fn insert_then_query_finds_objects() {
        let mut tree = tiny_tree(&[item(1, 0.0, 0.0), item(2, 10.0, 10.0), item(3, 0.5, 0.5)]);
        let mut hits = tree.window_query(Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 3]);
        assert_eq!(tree.point_query(Point::new(10.5, 10.5)).unwrap(), vec![2]);
        tree.validate().unwrap();
    }

    /// Forced reinsertion is the R\* paper's "close reinsert": the victim
    /// closest to the overflowing node's center is reinserted first.
    #[test]
    fn forced_reinsertion_reinserts_the_closest_victim_first() {
        let mut tree = tiny_tree(&scatter(40));
        let leaf_id = tree.read_node(tree.root).unwrap().dir_entries()[0].child;
        let mut leaf = tree.read_node_at(leaf_id, 1).unwrap();
        let NodeKind::Leaf(entries) = &mut leaf.kind else {
            panic!("level 1 is a leaf");
        };
        while entries.len() <= tree.config.max_for(1) {
            let d = 50.0 * entries.len() as f64;
            let mbr = Rect::new(d, d, d + 1.0, d + 1.0);
            entries.push(LeafEntry { mbr, ..entries[0] });
        }
        let victims = take_reinsert_victims(&mut entries.clone(), tree.config.reinsert_count);
        let mut pending = Vec::new();
        tree.handle_overflow(leaf_id, leaf, &mut 0, &mut pending)
            .unwrap();
        let popped = std::iter::from_fn(|| pending.pop()).map(|(e, _)| e.mbr());
        assert_eq!(
            popped.collect::<Vec<_>>(),
            victims.iter().map(|v| v.mbr).collect::<Vec<_>>()
        );
    }

    #[test]
    fn insertion_splits_grow_the_tree() {
        let items = scatter(200);
        let mut tree = tiny_tree(&items);
        assert!(tree.height() >= 2, "200 items with fan-out 8 must split");
        assert_eq!(tree.len(), 200);
        tree.validate().unwrap();
        // Every item is findable.
        for it in &items {
            let hits = tree.window_query(it.mbr).unwrap();
            assert!(hits.contains(&it.id), "object {} lost", it.id);
        }
    }

    #[test]
    fn insertion_matches_brute_force_on_window_queries() {
        let items = scatter(300);
        let mut tree = tiny_tree(&items);
        let windows = [
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(500.0, 500.0, 600.0, 800.0),
            Rect::new(-10.0, -10.0, -1.0, -1.0),
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
        ];
        for w in windows {
            let mut got = tree.window_query(w).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = items
                .iter()
                .filter(|it| it.mbr.intersects(&w))
                .map(|it| it.id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {w:?}");
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = scatter(500);
        let mut tree =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        tree.validate().unwrap();
        let w = Rect::new(100.0, 100.0, 400.0, 300.0);
        let mut got = tree.window_query(w).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = items
            .iter()
            .filter(|it| it.mbr.intersects(&w))
            .map(|it| it.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_fill_factor_is_respected() {
        let items = scatter(2000);
        let mut tree = RTree::bulk_load(DiskManager::new(), &items).unwrap();
        let stats = tree.stats().unwrap();
        assert_eq!(stats.objects, 2000);
        // ~2000 / 29 ≈ 69 leaves.
        assert!(
            stats.data_pages >= 65 && stats.data_pages <= 75,
            "{stats:?}"
        );
        tree.validate().unwrap();
    }

    #[test]
    fn bulk_load_of_empty_and_single() {
        let mut tree = RTree::bulk_load(DiskManager::new(), &[]).unwrap();
        assert!(tree.is_empty());
        tree.validate().unwrap();
        let mut tree = RTree::bulk_load(DiskManager::new(), &[item(7, 1.0, 1.0)]).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.point_query(Point::new(1.5, 1.5)).unwrap(), vec![7]);
        tree.validate().unwrap();
    }

    #[test]
    fn delete_removes_and_condenses() {
        let items = scatter(150);
        let mut tree = tiny_tree(&items);
        for it in items.iter().take(120) {
            assert!(
                tree.delete(it.id, &it.mbr).unwrap(),
                "object {} not found",
                it.id
            );
            tree.validate().unwrap();
        }
        assert_eq!(tree.len(), 30);
        for it in items.iter().skip(120) {
            assert!(tree.window_query(it.mbr).unwrap().contains(&it.id));
        }
        for it in items.iter().take(120) {
            assert!(!tree.window_query(it.mbr).unwrap().contains(&it.id));
        }
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut tree = tiny_tree(&[item(1, 0.0, 0.0)]);
        assert!(!tree.delete(99, &Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap());
        assert!(!tree.delete(1, &Rect::new(5.0, 5.0, 6.0, 6.0)).unwrap());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let items = scatter(60);
        let mut tree = tiny_tree(&items);
        for it in &items {
            assert!(tree.delete(it.id, &it.mbr).unwrap());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
        assert_eq!(
            tree.window_query(Rect::new(0.0, 0.0, 1e4, 1e4)).unwrap(),
            vec![]
        );
    }

    #[test]
    fn nearest_neighbors_are_correct() {
        let items = scatter(200);
        let mut tree = tiny_tree(&items);
        let p = Point::new(500.0, 500.0);
        let got = tree.nearest_neighbors(p, 5).unwrap();
        assert_eq!(got.len(), 5);
        // Distances are non-decreasing.
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Compare against brute force.
        let mut want: Vec<(u64, f64)> = items
            .iter()
            .map(|it| (it.id, it.mbr.min_dist(&p)))
            .collect();
        want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let got_dists: Vec<f64> = got.iter().map(|g| g.1).collect();
        let want_dists: Vec<f64> = want.iter().take(5).map(|g| g.1).collect();
        assert_eq!(got_dists, want_dists);
    }

    #[test]
    fn buffered_tree_gives_identical_answers() {
        let items = scatter(400);
        let mut plain =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        let mut buffered =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        buffered.set_buffer(BufferManager::with_policy(PolicyKind::Asb, 16));
        for i in 0..50u64 {
            let x = (i as f64 * 17.0) % 900.0;
            let w = Rect::new(x, x / 2.0, x + 60.0, x / 2.0 + 60.0);
            let mut a = plain.window_query(w).unwrap();
            let mut b = buffered.window_query(w).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let stats = buffered.buffer_stats().unwrap();
        assert!(stats.hits > 0, "repeated root accesses must hit");
    }

    #[test]
    fn buffer_reduces_disk_reads() {
        let items = scatter(400);
        let mut tree =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        tree.store_mut().reset_stats();
        let queries: Vec<Rect> = (0..40)
            .map(|i| {
                let x = (i as f64 * 23.0) % 800.0;
                Rect::new(x, x, x + 50.0, x + 50.0)
            })
            .collect();
        for &w in &queries {
            tree.window_query(w).unwrap();
        }
        let unbuffered = tree.store().stats().reads;
        tree.store_mut().reset_stats();
        tree.set_buffer(BufferManager::with_policy(
            PolicyKind::Lru,
            tree.page_count() / 2 + 1,
        ));
        for &w in &queries {
            tree.window_query(w).unwrap();
        }
        let buffered = tree.store().stats().reads;
        assert!(
            buffered < unbuffered,
            "buffered {buffered} should be below unbuffered {unbuffered}"
        );
    }

    #[test]
    fn stats_report_paper_like_shape() {
        let items = scatter(3000);
        let mut tree = RTree::bulk_load(DiskManager::new(), &items).unwrap();
        let stats = tree.stats().unwrap();
        assert_eq!(stats.total_pages(), tree.page_count());
        // Directory pages are a small fraction (paper: ~2.9%).
        assert!(stats.directory_fraction() < 0.10, "{stats:?}");
    }

    #[test]
    fn mixed_insert_delete_stays_valid() {
        let items = scatter(250);
        let mut tree = tiny_tree(&items[..200]);
        for i in 0..50 {
            tree.insert(items[200 + i]).unwrap();
            let victim = &items[i * 3];
            assert!(tree.delete(victim.id, &victim.mbr).unwrap());
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 200);
    }

    #[test]
    fn object_pages_are_fetched_through_the_buffer() {
        use asb_storage::{ObjectRecord, ObjectStore};
        use bytes::Bytes;
        let items = scatter(300);
        let mut disk = DiskManager::new();
        let records: Vec<ObjectRecord> = items
            .iter()
            .map(|it| ObjectRecord {
                id: it.id,
                mbr: it.mbr,
                payload: Bytes::from(vec![1u8; 80]),
            })
            .collect();
        let objects = ObjectStore::build(&mut disk, &records).unwrap();
        let mut tree = RTree::bulk_load_with(disk, RTreeConfig::small(), &items).unwrap();
        tree.assign_object_pages(|id| objects.page_of(id)).unwrap();

        let w = Rect::new(100.0, 100.0, 400.0, 400.0);
        tree.store_mut().reset_stats();
        let without = {
            let r = tree.window_query(w).unwrap();
            (r.len(), tree.store().stats().reads)
        };
        tree.store_mut().reset_stats();
        let with = {
            let r = tree.execute_fetching_objects(&Query::Window(w)).unwrap();
            (r.len(), tree.store().stats().reads)
        };
        assert_eq!(with.0, without.0, "object fetching must not change answers");
        assert!(with.1 > without.1, "object pages must cost extra reads");
        tree.validate().unwrap();
    }

    #[test]
    fn unassigned_object_pages_cost_nothing() {
        let items = scatter(100);
        let mut tree =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        let w = Rect::new(0.0, 0.0, 500.0, 500.0);
        tree.store_mut().reset_stats();
        let a = tree.window_query(w).unwrap();
        let plain_reads = tree.store().stats().reads;
        tree.store_mut().reset_stats();
        let b = tree.execute_fetching_objects(&Query::Window(w)).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(tree.store().stats().reads, plain_reads);
    }

    #[test]
    fn snapshot_attach_roundtrip_preserves_answers() {
        let items = scatter(300);
        let mut tree =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        let w = Rect::new(100.0, 100.0, 400.0, 400.0);
        let mut want = tree.window_query(w).unwrap();
        want.sort_unstable();

        let snap = tree.snapshot();
        let store = tree.into_store();
        let mut view = RTree::attach(store, snap);
        view.seed_query_counter(1 << 32);
        let mut got = view.window_query(w).unwrap();
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(view.len(), 300);
        view.validate().unwrap();
    }

    #[test]
    fn concurrent_views_on_a_sharded_pool_answer_identically() {
        use asb_core::ShardedBuffer;
        let items = scatter(500);
        let tree = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        let snap = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), PolicyKind::Asb, 32, 4);

        let windows: Vec<Rect> = (0..24)
            .map(|i| {
                let x = (i as f64 * 37.0) % 900.0;
                Rect::new(x, x / 3.0, x + 80.0, x / 3.0 + 80.0)
            })
            .collect();
        let mut expected: Vec<Vec<u64>> = windows
            .iter()
            .map(|w| {
                let mut ids: Vec<u64> = items
                    .iter()
                    .filter(|it| it.mbr.intersects(w))
                    .map(|it| it.id)
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        expected.sort();

        std::thread::scope(|s| {
            for t in 0..3u64 {
                let pool = pool.clone();
                let windows = windows.clone();
                let expected = expected.clone();
                s.spawn(move || {
                    let mut view = RTree::attach(pool, snap);
                    view.seed_query_counter(t << 32);
                    let mut got: Vec<Vec<u64>> = windows
                        .iter()
                        .map(|&w| {
                            let mut ids = view.window_query(w).unwrap();
                            ids.sort_unstable();
                            ids
                        })
                        .collect();
                    got.sort();
                    assert_eq!(got, expected);
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, stats.logical_reads);
        assert!(stats.hits > 0, "shared pool must produce hits across views");
    }

    #[test]
    fn str_tiles_have_bounded_size() {
        let items = scatter(1000);
        let tiles = str_tiles(items, 29, 16, 42);
        assert!(tiles.iter().all(|t| t.len() <= 29 && !t.is_empty()));
        let total: usize = tiles.iter().map(|t| t.len()).sum();
        assert_eq!(total, 1000);
    }
}
