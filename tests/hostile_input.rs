//! Hostile input: one seeded mutator, five decoders, and the walkers of all
//! three trees over pages that decode but lie.
//!
//! Whatever arrives from outside the process — a trace file, a page of a
//! damaged store — is decoded into `Ok` or a typed error: never a panic,
//! and never an allocation sized by a count the input merely claims. The
//! WAL has its own such tests (`asb-storage`,
//! `scan_of_arbitrary_bytes_never_panics_and_recovers_nothing`); this file
//! covers `Trace::from_text` and the four page codecs with one mutator:
//! arbitrary bytes, a valid encoding with k ∈ 1..=8 flipped bytes, and a
//! valid encoding cut at every length. A page that decodes can still point
//! anywhere, so the tree walkers get forged pages of their own: each must
//! end in `StorageError::Corrupt` (a served request: `Outcome::Degraded`),
//! never a panic or a loop.

use asb::buffer::{PolicyKind, ShardedBuffer};
use asb::exp::Trace;
use asb::geom::{Point, Rect, SpatialItem, SpatialStats};
use asb::quadtree::{QuadNode, QuadTree};
use asb::rtree::{
    spatial_join, DirEntry, LeafEntry, Node, NodeKind, NodeView, RTree, RTreeConfig, ViewEntries,
};
use asb::serve::{serve, Outcome, ServeConfig};
use asb::storage::{
    decode_object_page, DiskManager, ObjectRecord, ObjectStore, Page, PageId, PageMeta, PageStore,
    PageType, StorageError, PAGE_SIZE,
};
use asb::workload::{Dataset, DatasetKind, Request, Scale};
use asb::zbtree::ZBTree;
use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// cell was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the size of every request on the way.
struct Noting;

fn note(size: usize) {
    // A thread that is shutting down has nothing left to measure.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only reads and writes a `Cell<usize>`
// thread-local with a const initialiser and no destructor, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static NOTING: Noting = Noting;

/// Runs `decode` on `input` (its verdict is the decoder's business; getting
/// here without a panic is the test) and holds every allocation it made to
/// a small multiple of the input: what a decoder builds is bounded by what
/// it was given, whatever counts the bytes claim.
fn decode_bounded(what: &str, decode: &dyn Fn(&[u8]), input: &[u8]) {
    LARGEST.set(0);
    decode(input);
    let (largest, bound) = (LARGEST.get(), 64 * input.len() + 4096);
    assert!(
        largest <= bound,
        "{what}: {} input bytes made the decoder allocate {largest} at once (bound {bound})",
        input.len()
    );
}

/// The one mutator. `valid` are encodings the decoder accepts; `max_len`
/// bounds the arbitrary inputs.
fn assault(what: &str, seed: u64, valid: &[Vec<u8>], max_len: usize, decode: &dyn Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..=max_len);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        decode_bounded(what, decode, &bytes);
    }
    for encoding in valid {
        assert!(!encoding.is_empty(), "{what}: nothing to mutate");
        for k in 1..=8 {
            for _ in 0..100 {
                let mut damaged = encoding.clone();
                for _ in 0..k {
                    let at = rng.gen_range(0..damaged.len());
                    damaged[at] ^= rng.gen_range(1..=255u8);
                }
                decode_bounded(what, decode, &damaged);
            }
        }
        for len in 0..=encoding.len() {
            decode_bounded(what, decode, &encoding[..len]);
        }
    }
}

fn page_at(id: PageId, bytes: &[u8]) -> Page {
    let meta = PageMeta::data(SpatialStats::EMPTY);
    Page::new(id, meta, Bytes::from(bytes.to_vec())).expect("at most a page")
}

fn page_of(bytes: &[u8]) -> Page {
    page_at(PageId::new(7), bytes)
}

/// The payload of the first page of each of `types` on `disk`.
fn first_payloads(disk: &DiskManager, types: &[PageType]) -> Vec<Vec<u8>> {
    let first = |t: &PageType| {
        let page = disk.iter_pages().find(|p| p.meta.page_type == *t);
        page.expect("a page of every type").payload.to_vec()
    };
    types.iter().map(first).collect()
}

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42)
}

const INDEX_PAGES: [PageType; 2] = [PageType::Directory, PageType::Data];

#[test]
fn trace_text_is_parsed_or_refused() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut valid = Vec::new();
    for name in ["mainland", "world"] {
        let trace = Trace::load(golden.join(format!("{name}.trace"))).expect("golden trace");
        let text = trace.to_text();
        assert_eq!(Trace::from_text(&text), Ok(trace), "{name}: round trip");
        valid.push(text.into_bytes());
    }
    // A file reaches the parser through `read_to_string`, so as UTF-8.
    let parse = |bytes: &[u8]| drop(Trace::from_text(&String::from_utf8_lossy(bytes)));
    assault("Trace::from_text", 1, &valid, 4 * PAGE_SIZE, &parse);
}

#[test]
fn rtree_pages_are_decoded_or_refused() {
    let tree = RTree::bulk_load(DiskManager::new(), dataset().items()).expect("bulk load");
    let valid = first_payloads(tree.store(), &INDEX_PAGES);
    for payload in &valid {
        NodeView::parse(&page_of(payload)).expect("a real R*-tree page");
    }
    // The view is what queries read, so every entry is walked; the owned
    // decode must give the same verdict and the same node.
    let decode = |bytes: &[u8]| {
        let page = page_of(bytes);
        let view = NodeView::parse(&page);
        if let Ok(view) = view {
            let walked = match view.entries() {
                ViewEntries::Leaf(entries) => {
                    entries.map(|e| e.object_id).fold(0, u64::wrapping_add)
                }
                ViewEntries::Dir(entries) => {
                    entries.map(|e| e.child.raw()).fold(0, u64::wrapping_add)
                }
            };
            std::hint::black_box(walked);
        }
        assert_eq!(Node::decode(&page), view.map(|v| v.to_node()));
    };
    assault("NodeView::parse", 2, &valid, PAGE_SIZE, &decode);
}

#[test]
fn quadtree_pages_are_decoded_or_refused() {
    let dataset = dataset();
    let tree = QuadTree::build(DiskManager::new(), dataset.bounds(), dataset.items())
        .expect("quadtree build");
    let valid = first_payloads(tree.store(), &INDEX_PAGES);
    for payload in &valid {
        QuadNode::decode(&page_of(payload)).expect("a real quadtree page");
    }
    let decode = |bytes: &[u8]| drop(QuadNode::decode(&page_of(bytes)));
    assault("QuadNode::decode", 3, &valid, PAGE_SIZE, &decode);
}

#[test]
fn object_pages_are_decoded_or_refused() {
    let dataset = dataset();
    let records: Vec<ObjectRecord> = dataset
        .items()
        .iter()
        .map(|it| ObjectRecord {
            id: it.id,
            mbr: it.mbr,
            payload: Bytes::from(vec![0u8; dataset.payload_len(it.id)]),
        })
        .collect();
    let mut disk = DiskManager::new();
    ObjectStore::build(&mut disk, &records).expect("object pages");
    let valid = first_payloads(&disk, &[PageType::Object]);
    assert!(!decode_object_page(&page_of(&valid[0]))
        .expect("a real object page")
        .is_empty());
    let decode = |bytes: &[u8]| drop(decode_object_page(&page_of(bytes)));
    assault("decode_object_page", 4, &valid, PAGE_SIZE, &decode);
}

/// `ZNode` is private to its crate; the way to its decoder is a tree whose
/// store page was overwritten. The probe is an empty one-page tree:
/// `validate` decodes the root first, and whatever the decoder lets through
/// is at most a foreign root for `validate` to complain about.
#[test]
fn zbtree_pages_are_decoded_or_refused() {
    let dataset = dataset();
    let centers: Vec<(u64, Point)> = dataset
        .items()
        .iter()
        .map(|it| (it.id, it.mbr.center()))
        .collect();
    let bounds: Rect = dataset.bounds();
    let mut tree = ZBTree::bulk_load(DiskManager::new(), bounds, &centers).expect("bulk load");
    tree.validate().expect("every real z-B+-tree page decodes");
    let valid = first_payloads(tree.store(), &INDEX_PAGES);

    let decode = |bytes: &[u8]| {
        let mut probe = ZBTree::new(DiskManager::new(), bounds).expect("empty tree");
        let root = probe.store().iter_pages().next().expect("root page").id;
        let hostile = page_at(root, bytes);
        probe
            .store_mut()
            .write(hostile)
            .expect("overwrite the root");
        drop(probe.validate());
    };
    assault("ZNode::decode", 5, &valid, PAGE_SIZE, &decode);
}

/// An empty z-B⁺-tree leaf page chained to `next`, laid out as
/// `ZNode::encode` writes it: type tag, level, entry count, four reserved
/// bytes, then the `next` pointer (all ones for none).
fn zleaf(next: Option<PageId>) -> Vec<u8> {
    let mut bytes = vec![PageType::Data.tag(), 1, 0, 0, 0, 0, 0, 0];
    let next = next.map_or(u64::MAX, |id| id.raw());
    bytes.extend_from_slice(&next.to_le_bytes());
    bytes
}

/// A z-B⁺-tree inner page at `level` over `children`; every entry has key
/// zero and the unit square as its MBR.
fn zinner(level: u8, children: &[PageId]) -> Vec<u8> {
    let mut bytes = vec![PageType::Directory.tag(), level];
    bytes.extend_from_slice(&(children.len() as u16).to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    for child in children {
        bytes.extend_from_slice(&[0; 16]); // min key: z, id
        bytes.extend_from_slice(&child.raw().to_le_bytes());
        for c in [0.0f64, 0.0, 1.0, 1.0] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    bytes
}

fn unit() -> Rect {
    Rect::new(0.0, 0.0, 1.0, 1.0)
}

/// An empty z-B⁺-tree over the unit square plus one spare page; `forge`
/// gets the root's and the spare's ids and returns their new payloads.
fn forged_zbtree(forge: impl FnOnce(PageId, PageId) -> [Vec<u8>; 2]) -> ZBTree {
    let mut tree = ZBTree::new(DiskManager::new(), unit()).expect("empty tree");
    let root = tree.store().iter_pages().next().expect("root page").id;
    let meta = PageMeta::data(SpatialStats::EMPTY);
    let store = tree.store_mut();
    let spare = store.allocate(meta, Bytes::new()).expect("spare page");
    let [root_bytes, spare_bytes] = forge(root, spare);
    for (id, bytes) in [(root, root_bytes), (spare, spare_bytes)] {
        store.write(page_at(id, &bytes)).expect("forge a page");
    }
    tree
}

/// Runs `walk` on its own thread and returns its result, failing the test
/// if it panics or is still running after five seconds. The thread is
/// never joined: joining a walk that loops would hang the test with it.
fn terminates<T: Send + 'static>(walk: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(walk());
    });
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("the walk did not terminate"),
        Err(RecvTimeoutError::Disconnected) => panic!("the walk panicked"),
    }
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, got: asb::storage::Result<T>) {
    assert!(
        matches!(got, Err(StorageError::Corrupt { .. })),
        "{what}: expected a Corrupt error, got {got:?}"
    );
}

#[test]
fn zbtree_inner_page_without_entries_is_corrupt() {
    let got = terminates(|| {
        let mut tree = forged_zbtree(|_, _| [zinner(2, &[]), zleaf(None)]);
        tree.window_query(unit())
    });
    assert_corrupt("window query", got);
}

#[test]
fn zbtree_child_not_below_its_parent_is_corrupt() {
    let got = terminates(|| {
        let mut tree = forged_zbtree(|root, _| [zinner(2, &[root]), zleaf(None)]);
        tree.window_query(unit())
    });
    assert_corrupt("window query", got);
}

#[test]
fn zbtree_leaf_chain_into_an_inner_page_is_corrupt() {
    let got = terminates(|| {
        let mut tree = forged_zbtree(|root, spare| [zleaf(Some(spare)), zinner(2, &[root])]);
        tree.window_query(unit())
    });
    assert_corrupt("window query", got);
}

#[test]
fn zbtree_leaf_chain_cycle_is_corrupt() {
    let (query, validate) = terminates(|| {
        let mut tree = forged_zbtree(|root, _| [zleaf(Some(root)), zleaf(None)]);
        (tree.window_query(unit()), tree.validate())
    });
    assert_corrupt("window query", query);
    assert_corrupt("validate", validate);
}

/// An R\*-tree directory page at `level` over `children`, each entry with
/// the unit square as its MBR.
fn rdir(level: u8, children: &[PageId]) -> Vec<u8> {
    let entries = children
        .iter()
        .map(|&child| DirEntry { mbr: unit(), child })
        .collect();
    let node = Node {
        level,
        kind: NodeKind::Dir(entries),
    };
    node.encode().to_vec()
}

/// An R\*-tree leaf page holding `objects`, each on the unit square.
fn rleaf(objects: &[u64]) -> Vec<u8> {
    let entries = objects
        .iter()
        .map(|&object_id| LeafEntry {
            mbr: unit(),
            object_id,
            object_page: 0,
        })
        .collect();
    let node = Node {
        level: 1,
        kind: NodeKind::Leaf(entries),
    };
    node.encode().to_vec()
}

/// A one-object R\*-tree (height 1) plus `N - 1` spare pages; `forge` gets
/// the root's and the spares' ids and returns their new payloads.
fn forged_rtree<const N: usize>(forge: impl FnOnce([PageId; N]) -> [Vec<u8>; N]) -> RTree {
    let mut tree = RTree::new(DiskManager::new()).expect("empty tree");
    tree.insert(SpatialItem::new(1, unit()))
        .expect("one object");
    let root = tree.snapshot().root();
    let meta = PageMeta::data(SpatialStats::EMPTY);
    let store = tree.store_mut();
    let ids: [PageId; N] = std::array::from_fn(|i| match i {
        0 => root,
        _ => store.allocate(meta, Bytes::new()).expect("spare page"),
    });
    for (id, bytes) in ids.into_iter().zip(forge(ids)) {
        store.write(page_at(id, &bytes)).expect("forge a page");
    }
    tree
}

#[test]
fn rtree_directory_naming_itself_is_corrupt() {
    let (window, nearest, join) = terminates(|| {
        let looped = || forged_rtree(|[root]| [rdir(2, &[root])]);
        let mut tree = looped();
        let window = tree.window_query(unit());
        let nearest = tree.nearest_neighbors(Point::new(0.5, 0.5), 1);
        let join = spatial_join(&mut looped(), &mut looped());
        (window, nearest, join)
    });
    assert_corrupt("window query", window);
    assert_corrupt("nearest neighbours", nearest);
    assert_corrupt("spatial join", join);
}

#[test]
fn rtree_children_of_mixed_levels_are_corrupt_and_degrade_a_served_join() {
    // The root's two children sit at levels 1 and 2: a join pairs them.
    let forged =
        || forged_rtree(|[_, leaf, dir]| [rdir(2, &[leaf, dir]), rleaf(&[1]), rdir(2, &[leaf])]);
    let (window, served) = terminates(move || {
        let window = forged().window_query(unit());
        let tree = forged();
        let snapshot = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), PolicyKind::Lru, 8, 1);
        let sessions = [vec![Request::Join(unit())]];
        (
            window,
            serve(&pool, &snapshot, &sessions, &ServeConfig::default()),
        )
    });
    assert_corrupt("window query", window);
    let responses = served.expect("serve").responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outcome, Outcome::Degraded);
}

#[test]
fn rtree_empty_node_in_a_spatial_join_is_corrupt() {
    let items: Vec<SpatialItem> = (0..60)
        .map(|i| SpatialItem::new(i, Rect::new(0.0, 0.0, 1.0, 1.0)))
        .collect();
    let got = terminates(move || {
        let mut tall = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items)
            .expect("bulk load");
        assert!(tall.height() > 1);
        let mut emptied = forged_rtree(|[_]| [rleaf(&[])]);
        spatial_join(&mut tall, &mut emptied)
    });
    assert_corrupt("spatial join", got);
}

/// An empty quadtree page at `depth` with these `children` and `next`
/// continuation pointer.
fn qnode(depth: u8, children: [Option<PageId>; 4], next: Option<PageId>) -> QuadNode {
    QuadNode {
        depth,
        children,
        next,
        entries: Vec::new(),
    }
}

/// An empty quadtree over the unit square plus one spare page; `forge`
/// gets the root's and the spare's ids and returns their new nodes.
fn forged_quadtree(forge: impl FnOnce(PageId, PageId) -> [QuadNode; 2]) -> QuadTree {
    let mut tree = QuadTree::new(DiskManager::new(), unit()).expect("empty tree");
    let root = tree.store().iter_pages().next().expect("root page").id;
    let meta = PageMeta::data(SpatialStats::EMPTY);
    let store = tree.store_mut();
    let spare = store.allocate(meta, Bytes::new()).expect("spare page");
    for (id, node) in [root, spare].into_iter().zip(forge(root, spare)) {
        store
            .write(page_at(id, &node.encode()))
            .expect("forge a page");
    }
    tree
}

/// Runs a window query over the corner the cells shrink toward, `stats`,
/// `validate` and an insert into that corner, each on a fresh forgery,
/// and asserts that each ends in `Corrupt` for the reason `why`.
fn assert_quad_walks_corrupt(forge: fn(PageId, PageId) -> [QuadNode; 2], why: &str) {
    let results = terminates(move || {
        let corner = Rect::new(0.0, 0.0, 0.01, 0.01);
        let tree = || forged_quadtree(forge);
        [
            ("window query", tree().window_query(corner).map(drop)),
            ("stats", tree().stats().map(drop)),
            ("validate", tree().validate()),
            ("insert", tree().insert(SpatialItem::new(1, corner))),
        ]
    });
    for (what, got) in results {
        assert!(
            matches!(&got, Err(StorageError::Corrupt { reason, .. }) if reason.contains(why)),
            "{what}: expected a Corrupt error for {why:?}, got {got:?}"
        );
    }
}

#[test]
fn quadtree_chain_cycle_is_corrupt() {
    assert_quad_walks_corrupt(
        |root, spare| {
            [
                qnode(0, [None; 4], Some(spare)),
                qnode(0, [None; 4], Some(root)),
            ]
        },
        "longer than the store",
    );
}

#[test]
fn quadtree_child_naming_its_parent_is_corrupt() {
    assert_quad_walks_corrupt(
        |root, _| {
            [
                qnode(0, [Some(root), None, None, None], None),
                qnode(1, [None; 4], None),
            ]
        },
        "where its parent puts depth 1",
    );
}

/// The chain loops back too; the reason pins that the children check, not the
/// length bound, stops it.
#[test]
fn quadtree_continuation_page_with_children_is_corrupt() {
    assert_quad_walks_corrupt(
        |root, spare| {
            [
                qnode(0, [None; 4], Some(spare)),
                qnode(0, [Some(root), None, None, None], Some(root)),
            ]
        },
        "continuation page with children",
    );
}

/// The chain loops back too; the reason pins that the depth check, not the
/// length bound, stops it.
#[test]
fn quadtree_continuation_page_at_another_depth_is_corrupt() {
    assert_quad_walks_corrupt(
        |root, spare| {
            [
                qnode(0, [None; 4], Some(spare)),
                qnode(1, [None; 4], Some(root)),
            ]
        },
        "continuation page at another depth",
    );
}
