//! R-tree spatial join by synchronized traversal.
//!
//! The EDBT 2002 paper lists "the influence of the strategies on updates and
//! spatial joins" as future work; this module supplies the join operator the
//! `ablate-join` experiment of `asb-exp` uses. The algorithm is the classic
//! synchronized depth-first traversal: a pair of nodes is expanded only if
//! their MBRs intersect, and trees of different heights are handled by
//! descending the taller tree alone until levels align.

use crate::node::NodeKind;
use crate::tree::RTree;
use asb_storage::{PageStore, Result, StorageError};

/// Computes all pairs `(id_a, id_b)` of objects from `a` and `b` whose MBRs
/// intersect.
///
/// Both trees' page accesses go through their respective buffers (if
/// attached), so the join exercises replacement policies on two page streams
/// at once. One query scope is opened per tree for the whole join (the join
/// is a single "query" for correlation purposes). A node without entries, or
/// not one level below the node that named it (a root: at the tree's
/// height), is [`Corrupt`](asb_storage::StorageError::Corrupt).
///
/// ```
/// use asb_geom::{Rect, SpatialItem};
/// use asb_rtree::{spatial_join, RTree};
/// use asb_storage::DiskManager;
///
/// let roads = vec![SpatialItem::new(1, Rect::new(0.0, 0.0, 10.0, 1.0))];
/// let cities = vec![
///     SpatialItem::new(10, Rect::new(2.0, 0.0, 3.0, 3.0)),
///     SpatialItem::new(11, Rect::new(20.0, 20.0, 21.0, 21.0)),
/// ];
/// let mut a = RTree::bulk_load(DiskManager::new(), &roads).unwrap();
/// let mut b = RTree::bulk_load(DiskManager::new(), &cities).unwrap();
/// assert_eq!(spatial_join(&mut a, &mut b).unwrap(), vec![(1, 10)]);
/// ```
pub fn spatial_join<S: PageStore, T: PageStore>(
    a: &mut RTree<S>,
    b: &mut RTree<T>,
) -> Result<Vec<(u64, u64)>> {
    if a.is_empty() || b.is_empty() {
        return Ok(Vec::new());
    }
    a.begin_query();
    b.begin_query();
    let mut out = Vec::new();
    // Pairs of (page, the level its parent or its tree's height implies).
    let mut stack = vec![((a.root_id(), a.height()), (b.root_id(), b.height()))];
    while let Some(((pa, la), (pb, lb))) = stack.pop() {
        let na = a.read_node_at(pa, la)?;
        let nb = b.read_node_at(pb, lb)?;
        for (node, id) in [(&na, pa), (&nb, pb)] {
            if node.is_empty() {
                return Err(StorageError::Corrupt {
                    id,
                    reason: "node without entries in a spatial join".into(),
                });
            }
        }
        match (&na.kind, &nb.kind) {
            (NodeKind::Leaf(ea), NodeKind::Leaf(eb)) => {
                // A nested loop is fine at page granularity (≤ 42 × 42).
                for x in ea {
                    for y in eb {
                        if x.mbr.intersects(&y.mbr) {
                            out.push((x.object_id, y.object_id));
                        }
                    }
                }
            }
            (NodeKind::Dir(ea), _) if la > lb => {
                // Descend the taller side only.
                let nb_mbr = nb.mbr().expect("checked non-empty on read");
                for x in ea {
                    if x.mbr.intersects(&nb_mbr) {
                        stack.push(((x.child, la - 1), (pb, lb)));
                    }
                }
            }
            (_, NodeKind::Dir(eb)) if lb > la => {
                let na_mbr = na.mbr().expect("checked non-empty on read");
                for y in eb {
                    if y.mbr.intersects(&na_mbr) {
                        stack.push(((pa, la), (y.child, lb - 1)));
                    }
                }
            }
            (NodeKind::Dir(ea), NodeKind::Dir(eb)) => {
                for x in ea {
                    for y in eb {
                        if x.mbr.intersects(&y.mbr) {
                            stack.push(((x.child, la - 1), (y.child, lb - 1)));
                        }
                    }
                }
            }
            // Levels were checked on read and are equal here; level 1 is
            // exactly the leaf level.
            _ => unreachable!("level bookkeeping guarantees aligned kinds"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::tree::RTreeItem;
    use asb_geom::Rect;
    use asb_storage::DiskManager;

    fn grid(n: usize, offset: f64, start_id: u64) -> Vec<RTreeItem> {
        let mut out = Vec::new();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            let x = (i % side) as f64 * 3.0 + offset;
            let y = (i / side) as f64 * 3.0 + offset;
            out.push(RTreeItem::new(
                start_id + i as u64,
                Rect::new(x, y, x + 2.0, y + 2.0),
            ));
        }
        out
    }

    fn brute_force(a: &[RTreeItem], b: &[RTreeItem]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for x in a {
            for y in b {
                if x.mbr.intersects(&y.mbr) {
                    out.push((x.id, y.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn join_matches_brute_force() {
        let items_a = grid(120, 0.0, 0);
        let items_b = grid(80, 1.5, 1000);
        let mut a =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_a).unwrap();
        let mut b =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_b).unwrap();
        let mut got = spatial_join(&mut a, &mut b).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute_force(&items_a, &items_b));
        assert!(!got.is_empty());
    }

    #[test]
    fn join_with_disjoint_layers_is_empty() {
        let items_a = grid(50, 0.0, 0);
        let items_b = grid(50, 10_000.0, 1000);
        let mut a =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_a).unwrap();
        let mut b =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_b).unwrap();
        assert_eq!(spatial_join(&mut a, &mut b).unwrap(), vec![]);
        // Only the two roots are read.
        assert_eq!(a.store().stats().reads + b.store().stats().reads, 2);
    }

    #[test]
    fn join_handles_different_heights() {
        let items_a = grid(400, 0.0, 0); // taller tree
        let items_b = grid(9, 0.5, 5000); // single leaf
        let mut a =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_a).unwrap();
        let mut b =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_b).unwrap();
        assert!(a.height() > b.height());
        let mut got = spatial_join(&mut a, &mut b).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute_force(&items_a, &items_b));
    }

    #[test]
    fn join_with_empty_tree_is_empty() {
        let items_a = grid(50, 0.0, 0);
        let mut a =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items_a).unwrap();
        let mut b = RTree::with_config(DiskManager::new(), RTreeConfig::small()).unwrap();
        assert_eq!(spatial_join(&mut a, &mut b).unwrap(), vec![]);
    }
}
