//! Property-based tests over the core invariants.

use asb::buffer::{BufferManager, PolicyKind, SpatialCriterion};
use asb::geom::{Point, Query, Rect, SpatialItem, SpatialStats};
use asb::rtree::{DirEntry, LeafEntry, Node, NodeKind, NodeView, RTree, RTreeConfig, ViewEntries};
use asb::storage::{AccessContext, DiskManager, Page, PageId, PageStore, QueryId, PAGE_SIZE};
use bytes::Bytes;
use proptest::prelude::*;

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..50.0, 0.0f64..50.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn point_strategy() -> impl Strategy<Value = Point> {
    (-100.0f64..1100.0, -100.0f64..1100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Encodes `node`, appends as much of `trailing` as the page holds, and
/// checks that the view of that page reads back exactly `node`.
fn view_reads_back(node: &Node, trailing: &[u8]) -> Result<(), TestCaseError> {
    let mut payload = node.encode().to_vec();
    let room = PAGE_SIZE - payload.len();
    payload.extend_from_slice(&trailing[..trailing.len().min(room)]);
    let page = Page::new(PageId::new(3), node.page_meta(), Bytes::from(payload)).unwrap();
    let view = NodeView::parse(&page).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
    prop_assert_eq!(view.level(), node.level);
    match (view.entries(), &node.kind) {
        (ViewEntries::Leaf(got), NodeKind::Leaf(want)) => {
            prop_assert_eq!(&got.collect::<Vec<_>>(), want);
        }
        (ViewEntries::Dir(got), NodeKind::Dir(want)) => {
            prop_assert_eq!(&got.collect::<Vec<_>>(), want);
        }
        _ => prop_assert!(false, "the view changed the node's kind"),
    }
    prop_assert_eq!(&view.to_node(), node);
    Ok(())
}

/// Any `f64`: arbitrary bit patterns (mostly huge, tiny or NaN), the
/// special values, and small integers, so that equal, touching and nested
/// coordinates come up often.
fn any_f64() -> impl Strategy<Value = f64> {
    let specials = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    prop_oneof![
        1 => (0u64..=u64::MAX).prop_map(f64::from_bits),
        2 => (0usize..specials.len()).prop_map(move |i| specials[i]),
        2 => (0u64..8).prop_map(|v| v as f64 - 3.0),
    ]
}

/// A rectangle with any coordinates, corners not normalized.
fn any_rect() -> impl Strategy<Value = Rect> {
    (any_f64(), any_f64(), any_f64(), any_f64()).prop_map(|(a, b, c, d)| Rect {
        min: Point::new(a, b),
        max: Point::new(c, d),
    })
}

/// `overlap_area` as first written: two early returns.
fn overlap_area_branchy(a: &Rect, b: &Rect) -> f64 {
    let w = a.max.x.min(b.max.x) - a.min.x.max(b.min.x);
    if w <= 0.0 {
        return 0.0;
    }
    let h = a.max.y.min(b.max.y) - a.min.y.max(b.min.y);
    if h <= 0.0 {
        return 0.0;
    }
    w * h
}

/// Every bit of `node`: level, kind, and each entry's coordinates and ids.
fn node_bits(node: &Node) -> Vec<u64> {
    let rect = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
    let mut bits = vec![u64::from(node.level), u64::from(node.is_leaf())];
    match &node.kind {
        NodeKind::Leaf(v) => v.iter().for_each(|e| {
            bits.extend(rect(&e.mbr));
            bits.extend([e.object_id, e.object_page]);
        }),
        NodeKind::Dir(v) => v.iter().for_each(|e| {
            bits.extend(rect(&e.mbr));
            bits.push(e.child.raw());
        }),
    }
    bits
}

proptest! {
    // An extent is NaN only when both rectangles put NaN (or both ∞) in
    // the same coordinate: rare enough per case to need many cases.
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// `overlap_area` gives the bits of the branchy formula on every input,
    /// NaN, ±∞, ±0, subnormal and unnormalized corners included.
    #[test]
    fn overlap_area_is_the_branchy_formula_bit_for_bit(a in any_rect(), b in any_rect()) {
        prop_assert_eq!(a.overlap_area(&b).to_bits(), overlap_area_branchy(&a, &b).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Union covers both operands and is commutative & idempotent.
    #[test]
    fn union_laws(a in rect_strategy(), b in rect_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        prop_assert_eq!(u, b.union(&a));
        prop_assert_eq!(a.union(&a), a);
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    /// Intersection is symmetric, contained in both, and consistent with
    /// `intersects` / `overlap_area`.
    #[test]
    fn intersection_laws(a in rect_strategy(), b in rect_strategy()) {
        match a.intersection(&b) {
            Some(i) => {
                prop_assert!(a.intersects(&b));
                prop_assert!(a.contains(&i) && b.contains(&i));
                prop_assert!((i.area() - a.overlap_area(&b)).abs() < 1e-9);
                prop_assert_eq!(Some(i), b.intersection(&a));
            }
            None => {
                prop_assert!(!a.intersects(&b));
                prop_assert_eq!(a.overlap_area(&b), 0.0);
            }
        }
    }

    /// Enlargement is non-negative and zero exactly under containment.
    #[test]
    fn enlargement_laws(a in rect_strategy(), b in rect_strategy()) {
        let e = a.enlargement(&b);
        prop_assert!(e >= -1e-9);
        if a.contains(&b) {
            prop_assert!(e.abs() < 1e-9);
        }
    }

    /// min_dist is zero iff the point is inside (closed semantics).
    #[test]
    fn min_dist_laws(r in rect_strategy(), p in point_strategy()) {
        let d = r.min_dist(&p);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(d == 0.0, r.contains_point(&p));
    }

    /// Z-order keys are a bijection on the grid.
    #[test]
    fn z_order_bijection(x in 0u32..=u32::MAX, y in 0u32..=u32::MAX) {
        use asb::geom::curve::{z_order, z_order_inverse};
        prop_assert_eq!(z_order_inverse(z_order(x, y)), (x, y));
    }

    /// The view reads back every bit the encoder wrote, whatever the
    /// coordinates (NaN payloads included) and ids.
    #[test]
    fn encode_and_view_round_trip_any_node(
        rects in prop::collection::vec(any_rect(), 0..=51),
        ids in prop::collection::vec(0u64..=u64::MAX, 51),
        level in 2u8..=255,
    ) {
        let leaf = Node {
            level: 1,
            kind: NodeKind::Leaf(rects.iter().take(42).zip(&ids).map(|(&mbr, &id)| LeafEntry {
                mbr,
                object_id: id,
                object_page: !id,
            }).collect()),
        };
        let dir = Node {
            level,
            kind: NodeKind::Dir(rects.iter().zip(&ids).map(|(&mbr, &id)| DirEntry {
                mbr,
                child: PageId::new(id),
            }).collect()),
        };
        for node in [leaf, dir] {
            let page = Page::new(PageId::new(3), node.page_meta(), node.encode()).unwrap();
            let view = NodeView::parse(&page).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(node_bits(&view.to_node()), node_bits(&node));
        }
    }

    /// Page spatial statistics: the page MBR covers all entries and the
    /// criteria are monotone under adding an entry.
    #[test]
    fn spatial_stats_monotone(rects in prop::collection::vec(rect_strategy(), 1..20),
                              extra in rect_strategy()) {
        let base = SpatialStats::from_rects(&rects);
        let mut grown = rects.clone();
        grown.push(extra);
        let bigger = SpatialStats::from_rects(&grown);
        for c in SpatialCriterion::ALL {
            prop_assert!(bigger.criterion(c) + 1e-9 >= base.criterion(c), "{c}");
        }
        let mbr = base.mbr.unwrap();
        for r in &rects {
            prop_assert!(mbr.contains(r));
        }
    }

    /// The parser's one law: a view of an encoded node reads back exactly
    /// its level, kind and entries, from an empty node to full fan-out
    /// (42 data / 51 directory entries), whatever bytes follow the last
    /// entry.
    #[test]
    fn node_view_reads_back_what_encode_wrote(
        entries in prop::collection::vec((rect_strategy(), 0u64..u64::MAX), 51),
        len in prop_oneof![0usize..=51, Just(0usize), Just(51usize)],
        level in 2u8..=255,
        trailing in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let leaf = entries
            .iter()
            .take(len.min(42))
            .map(|&(mbr, id)| LeafEntry { mbr, object_id: id, object_page: id.rotate_left(17) })
            .collect();
        view_reads_back(&Node { level: 1, kind: NodeKind::Leaf(leaf) }, &trailing)?;
        let dir = entries
            .iter()
            .take(len)
            .map(|&(mbr, id)| DirEntry { mbr, child: PageId::new(id) })
            .collect();
        view_reads_back(&Node { level, kind: NodeKind::Dir(dir) }, &trailing)?;
    }
}

/// The on-page layout, byte for byte, for one leaf and one directory:
/// an 8-byte header (tag, level, count LE, 4 reserved), then per entry the
/// MBR as four `f64` LE (min x, min y, max x, max y) and the ids as `u64`
/// LE.
#[test]
fn node_encoding_is_pinned_byte_for_byte() {
    let leaf = Node {
        level: 1,
        kind: NodeKind::Leaf(vec![LeafEntry {
            mbr: Rect::new(1.0, 2.0, 3.0, 4.0),
            object_id: 5,
            object_page: 0x0102_0304_0506_0708,
        }]),
    };
    #[rustfmt::skip]
    let leaf_bytes: &[u8] = &[
        2, 1, 1, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
        0, 0, 0, 0, 0, 0, 0, 0x40,
        0, 0, 0, 0, 0, 0, 0x08, 0x40,
        0, 0, 0, 0, 0, 0, 0x10, 0x40,
        5, 0, 0, 0, 0, 0, 0, 0,
        8, 7, 6, 5, 4, 3, 2, 1,
    ];
    let dir = Node {
        level: 3,
        kind: NodeKind::Dir(vec![
            DirEntry {
                mbr: Rect::new(-1.5, 0.5, 8.0, f64::INFINITY),
                child: PageId::new(0x0a0b),
            },
            DirEntry {
                mbr: Rect::new(0.0, 0.0, 0.0, 0.0),
                child: PageId::new(u64::MAX),
            },
        ]),
    };
    #[rustfmt::skip]
    let dir_bytes: &[u8] = &[
        1, 3, 2, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0xf8, 0xbf,
        0, 0, 0, 0, 0, 0, 0xe0, 0x3f,
        0, 0, 0, 0, 0, 0, 0x20, 0x40,
        0, 0, 0, 0, 0, 0, 0xf0, 0x7f,
        0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    ];
    assert_eq!(&leaf.encode()[..], leaf_bytes);
    assert_eq!(&dir.encode()[..], dir_bytes);
}

/// Strategy for a mixed insert/delete/query op sequence.
#[derive(Debug, Clone)]
enum Op {
    Insert(Rect),
    DeleteNth(usize),
    Window(Rect),
    Point(Point),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => rect_strategy().prop_map(Op::Insert),
        1 => (0usize..500).prop_map(Op::DeleteNth),
        1 => rect_strategy().prop_map(Op::Window),
        1 => point_strategy().prop_map(Op::Point),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The R*-tree stays structurally valid and agrees with a brute-force
    /// model under arbitrary interleavings of inserts, deletes and queries.
    #[test]
    fn rtree_matches_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut tree = RTree::with_config(DiskManager::new(), RTreeConfig::small()).unwrap();
        let mut model: Vec<SpatialItem> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert(mbr) => {
                    tree.insert(SpatialItem::new(next_id, mbr)).unwrap();
                    model.push(SpatialItem::new(next_id, mbr));
                    next_id += 1;
                }
                Op::DeleteNth(n) => {
                    if !model.is_empty() {
                        let victim = model.remove(n % model.len());
                        prop_assert!(tree.delete(victim.id, &victim.mbr).unwrap());
                    }
                }
                Op::Window(w) => {
                    let mut got = tree.window_query(w).unwrap();
                    got.sort_unstable();
                    let mut want: Vec<u64> = model.iter()
                        .filter(|it| it.mbr.intersects(&w)).map(|it| it.id).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Point(p) => {
                    let mut got = tree.point_query(p).unwrap();
                    got.sort_unstable();
                    let mut want: Vec<u64> = model.iter()
                        .filter(|it| it.mbr.contains_point(&p)).map(|it| it.id).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
        }
        tree.validate().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(tree.len(), model.len());
    }
}

/// All policies to fuzz below.
fn fuzz_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::LruT,
        PolicyKind::LruP,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::Spatial(SpatialCriterion::EntryOverlap),
        PolicyKind::Slru {
            candidate_fraction: 0.3,
            criterion: SpatialCriterion::Margin,
        },
        PolicyKind::Asb,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Buffer-of-any-policy transparency: an arbitrary read trace through a
    /// buffer returns exactly the pages the raw disk returns, never exceeds
    /// capacity, and keeps its counters consistent.
    #[test]
    fn buffers_are_transparent_caches(
        accesses in prop::collection::vec((0usize..60, 0u64..20), 1..400),
        capacity in 1usize..24,
    ) {
        // A little disk of 60 pages with varying spatial stats.
        let mut disk = DiskManager::new();
        let mut ids = Vec::new();
        for i in 0..60u64 {
            let r = Rect::new(0.0, 0.0, (i % 13) as f64 + 0.5, (i % 7) as f64 + 0.5);
            let meta = asb::storage::PageMeta::data(SpatialStats::from_rects(&[r]));
            ids.push(disk.allocate(meta, bytes::Bytes::from(vec![i as u8])).unwrap());
        }
        for policy in fuzz_policies() {
            let mut buf = BufferManager::with_policy(policy, capacity);
            for &(slot, query) in &accesses {
                let id = ids[slot];
                let ctx = AccessContext::query(QueryId::new(query));
                let page = buf.fetch(&mut disk, id, ctx).unwrap();
                prop_assert_eq!(page.id, id);
                prop_assert_eq!(page.payload.as_ref(), &[slot as u8][..]);
                prop_assert!(buf.resident() <= capacity);
            }
            let s = buf.stats();
            prop_assert_eq!(s.hits + s.misses, s.logical_reads);
            prop_assert_eq!(s.logical_reads, accesses.len() as u64);
        }
    }

    /// ASB-specific invariants under arbitrary traces: candidate size stays
    /// in [1, main capacity] and no ghost history accumulates.
    #[test]
    fn asb_invariants(
        accesses in prop::collection::vec((0usize..80, 0u64..10), 1..500),
        capacity in 2usize..30,
    ) {
        let mut disk = DiskManager::new();
        let mut ids = Vec::new();
        for i in 0..80u64 {
            let r = Rect::new(0.0, 0.0, (i % 17) as f64 + 0.5, 1.0);
            let meta = asb::storage::PageMeta::data(SpatialStats::from_rects(&[r]));
            ids.push(disk.allocate(meta, bytes::Bytes::new()).unwrap());
        }
        let mut buf = BufferManager::with_policy(PolicyKind::Asb, capacity);
        let main_cap = capacity - ((capacity as f64 * 0.2).round() as usize).min(capacity - 1);
        for &(slot, query) in &accesses {
            buf.fetch(&mut disk, ids[slot], AccessContext::query(QueryId::new(query)))
                .unwrap();
            let c = buf.policy().candidate_size().unwrap();
            prop_assert!(c >= 1 && c <= main_cap, "candidate {c} vs main {main_cap}");
            prop_assert_eq!(buf.policy().retained_history(), 0);
        }
    }

    /// A window query through a buffered tree equals the query on the bare
    /// tree for arbitrary windows (tree built once per case).
    #[test]
    fn buffered_queries_equal_unbuffered(
        windows in prop::collection::vec(rect_strategy(), 1..30),
        capacity in 4usize..40,
    ) {
        let items: Vec<SpatialItem> = (0..300u64)
            .map(|i| {
                let x = (i as f64 * 37.0) % 950.0;
                let y = (i as f64 * 91.0) % 950.0;
                SpatialItem::new(i, Rect::new(x, y, x + 10.0, y + 10.0))
            })
            .collect();
        let mut plain =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        let mut buffered =
            RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).unwrap();
        buffered.set_buffer(BufferManager::with_policy(PolicyKind::Asb, capacity));
        for w in windows {
            let mut a = plain.execute(&Query::Window(w)).unwrap();
            let mut b = buffered.execute(&Query::Window(w)).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
