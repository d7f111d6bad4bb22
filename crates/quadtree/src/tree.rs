//! The disk-based bucket MX-CIF quadtree.

use crate::node::{containing_quadrant, quadrants, QuadEntry, QuadNode, CHILDREN, PAGE_CAPACITY};
use asb_core::{BufferManager, BufferStats, PageFile};
use asb_geom::{Query, Rect, SpatialItem};
use asb_storage::{
    AccessContext, DiskManager, Page, PageId, PageStore, QueryId, Result, StorageError,
};

/// Structural parameters of a [`QuadTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadConfig {
    /// Maximum depth of the quadtree (root = depth 0).
    pub max_depth: u8,
    /// Entries a leaf holds before it splits (defaults to one page's worth).
    pub bucket_capacity: usize,
}

impl Default for QuadConfig {
    fn default() -> Self {
        QuadConfig {
            max_depth: 12,
            bucket_capacity: PAGE_CAPACITY,
        }
    }
}

impl QuadConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.max_depth == 0 || self.max_depth > 24 {
            return Err("max_depth must be in 1..=24".into());
        }
        if self.bucket_capacity < 2 {
            return Err("bucket capacity must be at least 2".into());
        }
        Ok(())
    }
}

/// Structural statistics of a quadtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeStats {
    /// Primary pages of internal nodes.
    pub internal_nodes: usize,
    /// Primary pages of leaves.
    pub leaf_nodes: usize,
    /// Continuation (overflow-chain) pages.
    pub chain_pages: usize,
    /// Deepest populated level.
    pub max_depth_used: u8,
    /// Stored objects.
    pub objects: usize,
}

impl QuadTreeStats {
    /// Total pages.
    pub fn total_pages(&self) -> usize {
        self.internal_nodes + self.leaf_nodes + self.chain_pages
    }
}

/// A disk-based bucket MX-CIF quadtree over any [`PageStore`], optionally
/// reading through a [`BufferManager`] — the same measurement stack as the
/// R\*-tree.
///
/// ```
/// use asb_geom::{Rect, SpatialItem};
/// use asb_quadtree::QuadTree;
/// use asb_storage::DiskManager;
///
/// let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
/// let mut tree = QuadTree::new(DiskManager::new(), bounds).unwrap();
/// tree.insert(SpatialItem::new(1, Rect::new(10.0, 10.0, 12.0, 12.0))).unwrap();
/// tree.insert(SpatialItem::new(2, Rect::new(80.0, 80.0, 81.0, 81.0))).unwrap();
///
/// let hits = tree.window_query(Rect::new(0.0, 0.0, 50.0, 50.0)).unwrap();
/// assert_eq!(hits, vec![1]);
/// ```
pub struct QuadTree<S: PageStore = DiskManager> {
    file: PageFile<S>,
    config: QuadConfig,
    bounds: Rect,
    root: PageId,
    len: usize,
    next_query: u64,
}

impl<S: PageStore> std::fmt::Debug for QuadTree<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuadTree")
            .field("root", &self.root)
            .field("len", &self.len)
            .field("bounds", &self.bounds)
            .finish()
    }
}

impl<S: PageStore> QuadTree<S> {
    /// Creates an empty quadtree over the data space `bounds`.
    pub fn new(store: S, bounds: Rect) -> Result<Self> {
        Self::with_config(store, bounds, QuadConfig::default())
    }

    /// Creates an empty quadtree with a custom configuration.
    pub fn with_config(mut store: S, bounds: Rect, config: QuadConfig) -> Result<Self> {
        config.validate().map_err(|reason| StorageError::Corrupt {
            id: PageId::new(0),
            reason,
        })?;
        if !(bounds.width() > 0.0 && bounds.height() > 0.0) {
            return Err(StorageError::Corrupt {
                id: PageId::new(0),
                reason: "quadtree bounds must have positive extent".into(),
            });
        }
        let root_node = QuadNode::new_leaf(0);
        let root = store.allocate(root_node.page_meta(config.max_depth), root_node.encode())?;
        Ok(QuadTree {
            file: PageFile::new(store),
            config,
            bounds,
            root,
            len: 0,
            next_query: 0,
        })
    }

    /// Bulk construction by repeated insertion (the quadtree's shape is
    /// insertion-order independent for fixed data, unlike the R-tree's).
    pub fn build(store: S, bounds: Rect, items: &[SpatialItem]) -> Result<Self> {
        let mut tree = Self::new(store, bounds)?;
        for it in items {
            tree.insert(*it)?;
        }
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

    /// Stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The data space.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    // ---- page I/O ------------------------------------------------------

    fn ctx(&self) -> AccessContext {
        AccessContext::query(QueryId::new(self.next_query))
    }

    fn read_node(&mut self, id: PageId) -> Result<QuadNode> {
        let ctx = self.ctx();
        self.file.read(id, ctx, QuadNode::decode)
    }

    fn write_node(&mut self, id: PageId, node: &QuadNode) -> Result<()> {
        let page = Page::new(id, node.page_meta(self.config.max_depth), node.encode())?;
        self.file.write(page)
    }

    fn alloc_node(&mut self, node: &QuadNode) -> Result<PageId> {
        self.file
            .allocate(node.page_meta(self.config.max_depth), node.encode())
    }

    fn free_node(&mut self, id: PageId) -> Result<()> {
        self.file.free(id)
    }

    /// Reads the primary page of the node its parent placed at `depth`. A
    /// page at another depth, or past `max_depth`, is corrupt, so every
    /// descent moves one level down and ends within `max_depth` levels.
    fn read_node_at(&mut self, id: PageId, depth: u8) -> Result<QuadNode> {
        let node = self.read_node(id)?;
        if node.depth != depth || depth > self.config.max_depth {
            return Err(StorageError::Corrupt {
                id,
                reason: format!(
                    "node at depth {} where its parent puts depth {depth} (max {})",
                    node.depth, self.config.max_depth
                ),
            });
        }
        Ok(node)
    }

    /// Reads the node at `primary`, which its parent placed at `depth`,
    /// with its continuation chain: the primary page, the entries of every
    /// page of the chain, and the chain's page ids after the primary. A
    /// continuation page with children or at another depth is corrupt, and
    /// so is a chain longer than the store has pages: a cycle ends there.
    fn read_chain(
        &mut self,
        primary: PageId,
        depth: u8,
    ) -> Result<(QuadNode, Vec<QuadEntry>, Vec<PageId>)> {
        let corrupt = |id, reason: &str| StorageError::Corrupt {
            id,
            reason: reason.to_string(),
        };
        let head = self.read_node_at(primary, depth)?;
        let mut entries = head.entries.clone();
        let mut chain = Vec::new();
        let mut next = head.next;
        while let Some(id) = next {
            // The primary, `chain` and `id` itself.
            if chain.len() + 2 > self.page_count() {
                return Err(corrupt(primary, "continuation chain longer than the store"));
            }
            let cont = self.read_node(id)?;
            if cont.is_internal() {
                return Err(corrupt(id, "continuation page with children"));
            }
            if cont.depth != depth {
                return Err(corrupt(id, "continuation page at another depth"));
            }
            entries.extend_from_slice(&cont.entries);
            next = cont.next;
            chain.push(id);
        }
        Ok((head, entries, chain))
    }

    /// Rewrites a node's entry list, reusing / extending / shrinking the
    /// continuation chain as needed.
    fn write_chain(
        &mut self,
        primary: PageId,
        depth: u8,
        children: [Option<PageId>; CHILDREN],
        entries: &[QuadEntry],
        old_chain: &[PageId],
    ) -> Result<()> {
        let mut chunks: Vec<&[QuadEntry]> = entries.chunks(PAGE_CAPACITY).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let needed = chunks.len() - 1;
        // Allocate any additional chain pages first (so links can be set).
        let mut chain: Vec<PageId> = old_chain[..old_chain.len().min(needed)].to_vec();
        while chain.len() < needed {
            let placeholder = QuadNode::new_leaf(depth);
            chain.push(self.alloc_node(&placeholder)?);
        }
        for &surplus in &old_chain[old_chain.len().min(needed)..] {
            self.free_node(surplus)?;
        }
        // Primary page.
        let head = QuadNode {
            depth,
            children,
            next: chain.first().copied(),
            entries: chunks[0].to_vec(),
        };
        self.write_node(primary, &head)?;
        // Continuation pages (no children).
        for (i, chunk) in chunks[1..].iter().enumerate() {
            let cont = QuadNode {
                depth,
                children: [None; CHILDREN],
                next: chain.get(i + 1).copied(),
                entries: chunk.to_vec(),
            };
            self.write_node(chain[i], &cont)?;
        }
        Ok(())
    }

    // ---- updates ---------------------------------------------------------

    /// Inserts an object. The object's MBR must lie inside the tree bounds.
    pub fn insert(&mut self, item: SpatialItem) -> Result<()> {
        if !self.bounds.contains(&item.mbr) {
            return Err(StorageError::Corrupt {
                id: self.root,
                reason: format!("object {} outside the quadtree bounds", item.id),
            });
        }
        self.next_query += 1;
        let entry = QuadEntry {
            mbr: item.mbr,
            object_id: item.id,
        };
        let mut node_id = self.root;
        let mut cell = self.bounds;
        let mut depth = 0u8;
        loop {
            let node = self.read_node_at(node_id, depth)?;
            if node.is_internal() {
                match containing_quadrant(&cell, &entry.mbr) {
                    Some(q) => {
                        let quad_cell = quadrants(&cell)[q];
                        match node.children[q] {
                            Some(child) => {
                                node_id = child;
                                cell = quad_cell;
                                depth += 1;
                            }
                            None => {
                                // Create the missing child leaf and place
                                // the entry there.
                                let child_node = QuadNode {
                                    depth: depth + 1,
                                    children: [None; CHILDREN],
                                    next: None,
                                    entries: vec![entry],
                                };
                                let child = self.alloc_node(&child_node)?;
                                let mut head = node;
                                head.children[q] = Some(child);
                                self.write_node(node_id, &head)?;
                                break;
                            }
                        }
                    }
                    None => {
                        // Straddler: stays on this internal node.
                        let (head, mut entries, chain) = self.read_chain(node_id, depth)?;
                        entries.push(entry);
                        self.write_chain(node_id, depth, head.children, &entries, &chain)?;
                        break;
                    }
                }
            } else {
                let (_, mut entries, chain) = self.read_chain(node_id, depth)?;
                entries.push(entry);
                // Leaf: append; split on overflow, keeping the straddlers.
                let (children, local) = self.partition(cell, depth, entries)?;
                self.write_chain(node_id, depth, children, &local, &chain)?;
                break;
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Lays out `entries` on the node at `depth` covering `cell`: returns
    /// its children and the entries it keeps. Entries that fit one bucket,
    /// or a node at `max_depth`, all stay: a leaf. Otherwise they are sorted
    /// into the quadrants of `cell`, one child subtree is built per
    /// non-empty quadrant, and only the straddlers stay. Children are
    /// allocated before the node that names them.
    fn partition(
        &mut self,
        cell: Rect,
        depth: u8,
        entries: Vec<QuadEntry>,
    ) -> Result<([Option<PageId>; CHILDREN], Vec<QuadEntry>)> {
        if entries.len() <= self.config.bucket_capacity || depth >= self.config.max_depth {
            return Ok(([None; CHILDREN], entries));
        }
        let quads = quadrants(&cell);
        let mut groups: [Vec<QuadEntry>; CHILDREN] = Default::default();
        let mut local = Vec::new();
        for e in entries {
            match containing_quadrant(&cell, &e.mbr) {
                Some(q) => groups[q].push(e),
                None => local.push(e),
            }
        }
        let mut children = [None; CHILDREN];
        for (q, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                children[q] = Some(self.build_subtree(quads[q], depth + 1, group)?);
            }
        }
        Ok((children, local))
    }

    /// Builds a fresh subtree for `entries` within `cell`.
    fn build_subtree(&mut self, cell: Rect, depth: u8, entries: Vec<QuadEntry>) -> Result<PageId> {
        let (children, local) = self.partition(cell, depth, entries)?;
        let node_id = self.alloc_node(&QuadNode::new_leaf(depth))?;
        self.write_chain(node_id, depth, children, &local, &[])?;
        Ok(node_id)
    }

    /// Removes the object `(id, mbr)`. Returns `true` if it was found.
    ///
    /// Emptied nodes are not merged back (the standard MX-CIF trade-off);
    /// chains shrink as entries leave.
    pub fn delete(&mut self, id: u64, mbr: &Rect) -> Result<bool> {
        self.next_query += 1;
        let mut node_id = self.root;
        let mut cell = self.bounds;
        let mut depth = 0u8;
        loop {
            let node = self.read_node_at(node_id, depth)?;
            let descend = if node.is_internal() {
                containing_quadrant(&cell, mbr)
            } else {
                None
            };
            match descend {
                Some(q) => match node.children[q] {
                    Some(child) => {
                        cell = quadrants(&cell)[q];
                        node_id = child;
                        depth += 1;
                    }
                    None => return Ok(false),
                },
                None => {
                    let (head, mut entries, chain) = self.read_chain(node_id, depth)?;
                    let Some(pos) = entries
                        .iter()
                        .position(|e| e.object_id == id && e.mbr == *mbr)
                    else {
                        return Ok(false);
                    };
                    entries.remove(pos);
                    self.write_chain(node_id, depth, head.children, &entries, &chain)?;
                    self.len -= 1;
                    return Ok(true);
                }
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Executes a point or window query.
    pub fn execute(&mut self, query: &Query) -> Result<Vec<u64>> {
        self.next_query += 1;
        let region = query.region();
        let mut results = Vec::new();
        let mut stack = vec![(self.root, self.bounds, 0u8)];
        while let Some((id, cell, depth)) = stack.pop() {
            if !cell.intersects(&region) {
                continue;
            }
            let (head, entries, _) = self.read_chain(id, depth)?;
            let hits = entries.iter().filter(|e| query.matches(&e.mbr));
            results.extend(hits.map(|e| e.object_id));
            let quads = quadrants(&cell);
            for (q, child) in head.children.iter().enumerate() {
                if let Some(c) = child {
                    stack.push((*c, quads[q], depth + 1));
                }
            }
        }
        Ok(results)
    }

    /// Window query: all objects whose MBR intersects `window`.
    pub fn window_query(&mut self, window: Rect) -> Result<Vec<u64>> {
        self.execute(&Query::Window(window))
    }

    /// Traverses the tree and returns structural statistics.
    pub fn stats(&mut self) -> Result<QuadTreeStats> {
        self.next_query += 1;
        let mut stats = QuadTreeStats {
            internal_nodes: 0,
            leaf_nodes: 0,
            chain_pages: 0,
            max_depth_used: 0,
            objects: 0,
        };
        let mut stack = vec![(self.root, 0u8)];
        while let Some((id, depth)) = stack.pop() {
            let (node, entries, chain) = self.read_chain(id, depth)?;
            stats.max_depth_used = stats.max_depth_used.max(depth);
            stats.objects += entries.len();
            stats.chain_pages += chain.len();
            if node.is_internal() {
                stats.internal_nodes += 1;
            } else {
                stats.leaf_nodes += 1;
            }
            stack.extend(node.children.iter().flatten().map(|&c| (c, depth + 1)));
        }
        Ok(stats)
    }

    /// Checks the structural invariants: every entry lies inside its node's
    /// cell; entries on internal nodes straddle their center lines; depths
    /// are consistent; the object count matches.
    pub fn validate(&mut self) -> Result<()> {
        self.next_query += 1;
        let corrupt = |id: PageId, reason: String| StorageError::Corrupt { id, reason };
        let mut objects = 0usize;
        let mut stack = vec![(self.root, self.bounds, 0u8)];
        while let Some((id, cell, depth)) = stack.pop() {
            let (node, entries, _) = self.read_chain(id, depth)?;
            let internal = node.is_internal();
            for e in &entries {
                if !cell.contains(&e.mbr) {
                    return Err(corrupt(
                        id,
                        format!("entry {} outside its cell", e.object_id),
                    ));
                }
                if internal && containing_quadrant(&cell, &e.mbr).is_some() {
                    return Err(corrupt(
                        id,
                        format!("entry {} on an internal node but fits a child", e.object_id),
                    ));
                }
            }
            objects += entries.len();
            let quads = quadrants(&cell);
            for (q, child) in node.children.iter().enumerate() {
                if let Some(c) = child {
                    stack.push((*c, quads[q], depth + 1));
                }
            }
        }
        if objects != self.len {
            return Err(corrupt(
                self.root,
                format!(
                    "object count mismatch: nodes hold {objects}, tree records {}",
                    self.len
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Rect {
        Rect::new(0.0, 0.0, 1024.0, 1024.0)
    }

    fn scatter(n: u64) -> Vec<SpatialItem> {
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let x = rng() * 1000.0;
                let y = rng() * 1000.0;
                let w = rng() * 8.0;
                let h = rng() * 8.0;
                SpatialItem::new(i, Rect::new(x, y, x + w, y + h))
            })
            .collect()
    }

    fn tiny_config() -> QuadConfig {
        QuadConfig {
            max_depth: 8,
            bucket_capacity: 8,
        }
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let mut t = QuadTree::new(DiskManager::new(), bounds()).unwrap();
        assert!(t.is_empty());
        assert_eq!(
            t.window_query(Rect::new(0.0, 0.0, 500.0, 500.0)).unwrap(),
            vec![]
        );
        t.validate().unwrap();
    }

    #[test]
    fn rejects_degenerate_bounds() {
        assert!(QuadTree::new(DiskManager::new(), Rect::new(0.0, 0.0, 0.0, 5.0)).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_objects() {
        let mut t = QuadTree::new(DiskManager::new(), bounds()).unwrap();
        let item = SpatialItem::new(1, Rect::new(-5.0, 0.0, 1.0, 1.0));
        assert!(t.insert(item).is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn insert_and_query_matches_brute_force() {
        let items = scatter(500);
        let mut t = QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        for &it in &items {
            t.insert(it).unwrap();
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 500);
        for w in [
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(400.0, 200.0, 700.0, 600.0),
            Rect::new(0.0, 0.0, 1024.0, 1024.0),
            Rect::new(1010.0, 1010.0, 1020.0, 1020.0),
        ] {
            let mut got = t.window_query(w).unwrap();
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
    fn no_duplicates_in_answers() {
        let items = scatter(300);
        let mut t = QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        for &it in &items {
            t.insert(it).unwrap();
        }
        let mut got = t.window_query(Rect::new(0.0, 0.0, 1024.0, 1024.0)).unwrap();
        let before = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(before, got.len(), "MX-CIF must not duplicate objects");
        assert_eq!(got.len(), 300);
    }

    #[test]
    fn splits_create_internal_nodes() {
        let items = scatter(400);
        let mut t = QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        for &it in &items {
            t.insert(it).unwrap();
        }
        let stats = t.stats().unwrap();
        assert!(stats.internal_nodes > 0, "{stats:?}");
        assert!(stats.leaf_nodes > 1);
        assert_eq!(stats.objects, 400);
        assert_eq!(stats.total_pages(), t.page_count());
    }

    #[test]
    fn straddlers_stay_on_internal_nodes() {
        let mut t = QuadTree::with_config(
            DiskManager::new(),
            bounds(),
            QuadConfig {
                max_depth: 8,
                bucket_capacity: 4,
            },
        )
        .unwrap();
        // Objects crossing the root's center lines.
        for i in 0..10u64 {
            let r = Rect::centered_square(asb_geom::Point::new(512.0, 512.0), 4.0 + i as f64);
            t.insert(SpatialItem::new(i, r)).unwrap();
        }
        // Plus clustered objects to force a split.
        for i in 10..40u64 {
            let x = 10.0 + (i as f64) * 3.0;
            t.insert(SpatialItem::new(i, Rect::new(x, 10.0, x + 1.0, 11.0)))
                .unwrap();
        }
        t.validate().unwrap();
        // All 40 retrievable.
        assert_eq!(t.window_query(bounds()).unwrap().len(), 40);
    }

    #[test]
    fn point_concentration_builds_chains() {
        // Identical points cannot be separated by splitting: once max depth
        // is reached they chain.
        let mut t = QuadTree::with_config(
            DiskManager::new(),
            bounds(),
            QuadConfig {
                max_depth: 3,
                bucket_capacity: 4,
            },
        )
        .unwrap();
        for i in 0..200u64 {
            t.insert(SpatialItem::new(i, Rect::new(1.0, 1.0, 1.5, 1.5)))
                .unwrap();
        }
        t.validate().unwrap();
        let stats = t.stats().unwrap();
        assert!(stats.chain_pages > 0, "{stats:?}");
        assert_eq!(
            t.window_query(Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap().len(),
            200
        );
    }

    #[test]
    fn delete_removes_and_shrinks_chains() {
        let items = scatter(300);
        let mut t = QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        for &it in &items {
            t.insert(it).unwrap();
        }
        for it in &items[..200] {
            assert!(t.delete(it.id, &it.mbr).unwrap(), "object {}", it.id);
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 100);
        for it in &items[..200] {
            assert!(!t.window_query(it.mbr).unwrap().contains(&it.id));
        }
        for it in &items[200..] {
            assert!(t.window_query(it.mbr).unwrap().contains(&it.id));
        }
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut t = QuadTree::new(DiskManager::new(), bounds()).unwrap();
        t.insert(SpatialItem::new(1, Rect::new(1.0, 1.0, 2.0, 2.0)))
            .unwrap();
        assert!(!t.delete(2, &Rect::new(1.0, 1.0, 2.0, 2.0)).unwrap());
        assert!(!t.delete(1, &Rect::new(5.0, 5.0, 6.0, 6.0)).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn buffered_quadtree_gives_identical_answers() {
        use asb_core::PolicyKind;
        let items = scatter(400);
        let mut plain = QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        let mut buffered =
            QuadTree::with_config(DiskManager::new(), bounds(), tiny_config()).unwrap();
        for &it in &items {
            plain.insert(it).unwrap();
            buffered.insert(it).unwrap();
        }
        buffered.set_buffer(BufferManager::with_policy(PolicyKind::Asb, 16));
        for i in 0..30u64 {
            let x = (i as f64 * 31.0) % 900.0;
            let w = Rect::new(x, x / 2.0, x + 80.0, x / 2.0 + 80.0);
            let mut a = plain.window_query(w).unwrap();
            let mut b = buffered.window_query(w).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert!(buffered.buffer_stats().unwrap().hits > 0);
    }

    #[test]
    fn pages_report_meaningful_meta() {
        let items = scatter(300);
        let mut disk = DiskManager::new();
        let mut t =
            QuadTree::with_config(std::mem::take(&mut disk), bounds(), tiny_config()).unwrap();
        for &it in &items {
            t.insert(it).unwrap();
        }
        let mut dir_pages = 0;
        let mut data_pages = 0;
        for page in t.store().iter_pages() {
            match page.meta.page_type {
                asb_storage::PageType::Directory => dir_pages += 1,
                asb_storage::PageType::Data => data_pages += 1,
                asb_storage::PageType::Object => panic!("no object pages here"),
            }
            if page.meta.stats.entry_count > 0 {
                assert!(page.meta.stats.mbr.is_some());
            }
        }
        assert!(dir_pages > 0 && data_pages > 0);
    }
}
