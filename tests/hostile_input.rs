//! Hostile input: one seeded mutator, five decoders, and the walkers of all
//! three trees over pages that decode but lie.
//!
//! Whatever arrives from outside the process — a trace file, a page of a
//! damaged store — is decoded into `Ok` or a typed error: never a panic,
//! and never an allocation sized by a count the input merely claims. The
//! WAL has its own such tests (`asb-storage`,
//! `scan_of_arbitrary_bytes_never_panics_and_recovers_nothing`); this file
//! covers `Trace::from_text` (update records included, and their replay)
//! and the four page codecs with one mutator:
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
    decode_object_page, DiskManager, ObjectRecord, ObjectStore, Page, PageId, PageMeta, PageOp,
    PageStore, PageType, StorageError, PAGE_SIZE,
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
    valid.push(written_trace().to_text().into_bytes());
    // A file reaches the parser through `read_to_string`, so as UTF-8.
    let parse = |bytes: &[u8]| drop(Trace::from_text(&String::from_utf8_lossy(bytes)));
    assault("Trace::from_text", 1, &valid, 4 * PAGE_SIZE, &parse);
}

/// A page id is bounded by the header's page count: a lone `p 1000000`
/// line used to make the rebuilt disk allocate a million gap slots, and an
/// id near 2^40 exhausted memory. A catalogue with a gap that did not come
/// from a file is refused by the rebuild, at the first page off `0..n`.
#[test]
fn trace_page_ids_are_bounded_by_the_header() {
    let text =
        |raw: u64| format!("asb-trace v1\nlabel x\npages 1\naccesses 0\np {raw} 1 0 3 0.5 1 0\n");
    for raw in [1, 1_000_000, (1 << 40) - 1] {
        let err = Trace::from_text(&text(raw)).unwrap_err();
        let says = "line 5: page id not below the header's page count";
        assert!(err.starts_with(says), "{raw}: {err}");
    }
    let mut trace = Trace::from_text(&text(0)).expect("well-formed");
    let meta = trace.pages[0].1;
    trace.pages = vec![(0, meta), (1 << 40, meta)].into();
    let mismatch = StorageError::AllocationMismatch {
        recorded: PageId::new(1 << 40),
        replayed: PageId::new(1),
    };
    assert_eq!(trace.replay(PolicyKind::Lru, 2).map(drop), Err(mismatch));
}

/// A small recording that writes, allocates and frees: splits and
/// condensing on `RTreeConfig::small()`.
fn written_trace() -> Trace {
    let config = RTreeConfig::small();
    let mut tree = RTree::with_config(Trace::recorder(DiskManager::new()), config).unwrap();
    let item = |i: u64| {
        let (x, y) = ((i * 37 % 100) as f64, (i * 61 % 100) as f64);
        SpatialItem::new(i, Rect::new(x, y, x + 2.0, y + 2.0))
    };
    for i in 0..30 {
        tree.insert(item(i)).unwrap();
    }
    let trace = Trace::record_on("written".into(), &mut tree, RTree::store, |t| {
        (30..40).try_for_each(|i| t.insert(item(i)))?;
        (0..25).try_for_each(|i| t.delete(i, &item(i).mbr).map(drop))
    })
    .unwrap();
    let has = |kind: fn(&PageOp) -> bool| trace.updates.iter().any(|(_, op)| kind(op));
    assert!(has(|op| matches!(op, PageOp::Write(..))));
    assert!(has(|op| matches!(op, PageOp::Alloc(..))));
    assert!(has(|op| matches!(op, PageOp::Free(..))));
    trace
}

/// The update records: a bad id or bad metadata is refused by the parser,
/// and a replay refuses, as a typed error, an allocation the rebuilt disk
/// does not hand out and a write or free of a page that is not there.
#[test]
fn trace_updates_are_parsed_or_refused_and_replayed_or_refused() {
    let text = |lines: &[&str]| {
        let (n, body) = (lines.len(), lines.join("\n"));
        let pages = "p 0 1 0 3 0.5 1 0\np 1 1 0 3 0.5 1 0";
        format!("asb-trace v1\nlabel x\npages 2\naccesses {n}\n{pages}\n{body}\n")
    };
    for (line, says) in [
        ("w x 1 0 3 0.5 1 0", "bad page id"),
        ("n -1 1 0 3 0.5 1 0", "bad page id"),
        ("f 1.5", "bad page id"),
        ("f", "malformed free record"),
        ("f 1 2", "malformed free record"),
        ("w 0 9 0 3 0.5 1 0", "unknown page type"),
        ("w 0 1 300 3 0.5 1 0", "bad level"),
        ("n 2 1 0 3 x 1 0", "bad area sum"),
        ("n 2 1 0 3 0.5 1 0 mbr 0 0 y 1", "bad mbr x1"),
        ("w 0 1 0 3 0.5 1", "malformed page record"),
        ("n 2 1 0 3 0.5 1 0 mbr 0 0 1", "malformed page record"),
    ] {
        let err = Trace::from_text(&text(&[line])).unwrap_err();
        assert!(
            err.starts_with("line 7: ") && err.contains(says),
            "{line}: {err}"
        );
    }
    let replay = |lines: &[&str]| {
        let trace = Trace::from_text(&text(lines)).expect("well-formed");
        trace.replay(PolicyKind::Lru, 2).map(|out| out.io.writes)
    };
    // The rebuilt disk of pages 0 and 1 hands out page 2 next.
    let fine = [
        "w 1 1 0 4 0.5 1 0",
        "n 2 1 0 3 0.5 1 0",
        "a 2 1",
        "f 2",
        "f 0",
    ];
    assert_eq!(replay(&fine), Ok(2));
    let mismatch = StorageError::AllocationMismatch {
        recorded: PageId::new(7),
        replayed: PageId::new(2),
    };
    assert_eq!(replay(&["n 7 1 0 3 0.5 1 0"]), Err(mismatch));
    let absent = |raw| Err(StorageError::PageNotFound(PageId::new(raw)));
    assert_eq!(replay(&["f 9"]), absent(9));
    assert_eq!(replay(&["f 0", "f 0"]), absent(0));
    assert_eq!(replay(&["f 0", "a 0 1"]), absent(0));
    assert_eq!(replay(&["w 5 1 0 3 0.5 1 0"]), absent(5));
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
        // The owned decode also refuses an entry with a non-finite
        // coordinate, which the view reads as it is.
        let owned = view.ok().map(|v| v.to_node());
        let finite = owned.filter(|n| n.entry_mbrs().iter().all(Rect::is_finite));
        assert_eq!(Node::decode(&page).ok(), finite);
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

/// Overwrites every page of `store` whose metadata puts it at `level` with
/// `forge(root)`, where `root` is the one page at the top level.
fn forge_level(store: &mut DiskManager, level: u8, forge: impl Fn(PageId) -> Vec<u8>) {
    let top = store
        .iter_pages()
        .map(|p| p.meta.level)
        .max()
        .expect("pages");
    assert!(top > level, "the tree must stand above level {level}");
    let root = store.iter_pages().find(|p| p.meta.level == top);
    let root = root.expect("a root").id;
    let victims: Vec<PageId> = store
        .iter_pages()
        .filter(|p| p.meta.level == level)
        .map(|p| p.id)
        .collect();
    for id in victims {
        store
            .write(page_at(id, &forge(root)))
            .expect("forge a page");
    }
}

/// A root that names itself as its child, and a three-level tree whose
/// level-2 pages name the root: both are refused by every write path and
/// whole-tree walk, where a descent that does not check levels recurses
/// until the stack overflows.
#[test]
fn zbtree_writes_refuse_a_child_at_the_wrong_level() {
    let self_named = || forged_zbtree(|root, _| [zinner(2, &[root]), zleaf(None)]);
    let tall = || {
        let points: Vec<(u64, Point)> = (0..2000u64)
            .map(|i| {
                (
                    i,
                    Point::new((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0),
                )
            })
            .collect();
        let mut tree = ZBTree::bulk_load(DiskManager::new(), unit(), &points).expect("bulk load");
        assert_eq!(tree.height(), 3);
        forge_level(tree.store_mut(), 2, |root| zinner(2, &[root]));
        tree
    };
    for forged in [self_named as fn() -> ZBTree, tall] {
        let results = terminates(move || {
            let at = Point::new(0.0, 0.0);
            [
                ("insert", forged().insert(0, at)),
                ("delete", forged().delete(0, &at).map(drop)),
                ("stats", forged().stats().map(drop)),
            ]
        });
        for (what, got) in results {
            assert_corrupt(what, got);
        }
    }
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

/// The R\*-tree twin of `zbtree_writes_refuse_a_child_at_the_wrong_level`,
/// with `assign_object_pages` beside `stats` as the second whole-tree walk.
#[test]
fn rtree_writes_refuse_a_child_at_the_wrong_level() {
    let self_named = || forged_rtree(|[root]| [rdir(2, &[root])]);
    let tall = || {
        let items: Vec<SpatialItem> = (0..100).map(|i| SpatialItem::new(i, unit())).collect();
        let mut tree = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items)
            .expect("bulk load");
        assert_eq!(tree.height(), 3);
        forge_level(tree.store_mut(), 2, |root| rdir(2, &[root]));
        tree
    };
    for forged in [self_named as fn() -> RTree, tall] {
        let results = terminates(move || {
            [
                ("insert", forged().insert(SpatialItem::new(500, unit()))),
                ("delete", forged().delete(1, &unit()).map(drop)),
                ("stats", forged().stats().map(drop)),
                (
                    "assign object pages",
                    forged().assign_object_pages(|_| None),
                ),
            ]
        });
        for (what, got) in results {
            assert_corrupt(what, got);
        }
    }
}

/// Overwrites the first coordinate (min x) of each listed entry of an
/// encoded R\*-tree page, entries `stride` bytes apart, with NaN.
fn nan_corners(
    mut page: Vec<u8>,
    stride: usize,
    entries: impl IntoIterator<Item = usize>,
) -> Vec<u8> {
    for i in entries {
        let at = 8 + i * stride;
        page[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    }
    page
}

/// A bulk-loaded three-level R\*-tree of 100 objects on the unit square
/// (`RTreeConfig::small()`), with every page at `level` overwritten by
/// `forge`.
fn rtree_forged_at(level: u8, forge: impl Fn(PageId) -> Vec<u8>) -> RTree {
    let items: Vec<SpatialItem> = (0..100).map(|i| SpatialItem::new(i, unit())).collect();
    let mut tree =
        RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).expect("bulk load");
    assert_eq!(tree.height(), 3);
    forge_level(tree.store_mut(), level, forge);
    tree
}

/// ChooseSubtree and the split sort and sum coordinates, so the write
/// path's decode refuses an entry with a non-finite one: a full root leaf
/// with NaN on every other entry (one insert splits it), and a root
/// directory with one NaN child MBR (ChooseSubtree reads it).
#[test]
fn rtree_insert_refuses_entries_with_non_finite_coordinates() {
    let leaf = || {
        let objects: Vec<u64> = (0..42).collect();
        forged_rtree(|[_]| [nan_corners(rleaf(&objects), 48, (0..42).step_by(2))])
    };
    let dir = || {
        let items: Vec<SpatialItem> = (0..20).map(|i| SpatialItem::new(i, unit())).collect();
        let mut tree = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items)
            .expect("bulk load");
        assert_eq!(tree.height(), 2);
        let root = tree.snapshot().root();
        let page = tree.store().iter_pages().find(|p| p.id == root);
        let bytes = page.expect("the root").payload.to_vec();
        let forged = page_at(root, &nan_corners(bytes, 40, [1]));
        tree.store_mut().write(forged).expect("forge the root");
        tree
    };
    for forged in [leaf as fn() -> RTree, dir] {
        let got = terminates(move || forged().insert(SpatialItem::new(500, unit())));
        assert_corrupt("insert", got);
    }
}

/// An item with an infinite or NaN coordinate is the caller's error, not
/// the store's: `insert` and bulk load refuse it as `InvalidInput` before
/// a page is written, and the tree stays writable. Stored, an ∞ would
/// spread into every MBR above its leaf and make each later decode of
/// those pages `Corrupt`.
#[test]
fn rtree_refuses_non_finite_items_before_writing() {
    let items: Vec<SpatialItem> = (0..100)
        .map(|i| SpatialItem::new(i, Rect::new(i as f64, 0.0, i as f64 + 0.5, 1.0)))
        .collect();
    let mut tree =
        RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).expect("bulk load");
    assert!(tree.height() >= 2);
    let pages = |tree: &RTree| -> Vec<Page> { tree.store().iter_pages().cloned().collect() };
    let before = pages(&tree);
    let bad = [
        Rect {
            min: Point::new(f64::INFINITY, 0.0),
            max: Point::new(f64::INFINITY, 1.0),
        },
        Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(1.0, f64::NAN),
        },
        Rect {
            min: Point::new(f64::NEG_INFINITY, 0.0),
            max: Point::new(1.0, 1.0),
        },
    ];
    for (i, mbr) in bad.into_iter().enumerate() {
        let item = SpatialItem::new(1_000 + i as u64, mbr);
        let refused =
            |got: asb::storage::Result<_>| matches!(got, Err(StorageError::InvalidInput { .. }));
        assert!(refused(tree.insert(item).map(|_| ())), "insert {mbr:?}");
        let mut with_bad = items.clone();
        with_bad.insert(50, item);
        let loaded = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &with_bad);
        assert!(refused(loaded.map(|_| ())), "bulk load {mbr:?}");
    }
    assert_eq!(tree.len(), 100);
    assert!(pages(&tree) == before, "a refused insert wrote a page");

    let more =
        (0..40).map(|i| SpatialItem::new(200 + i, Rect::new(i as f64, 2.0, i as f64 + 1.0, 3.0)));
    for item in more {
        tree.insert(item).expect("a later insert");
    }
    for item in &items[..40] {
        assert_eq!(tree.delete(item.id, &item.mbr), Ok(true), "a later delete");
    }
    tree.validate().expect("the tree stays valid");
    assert_eq!(tree.stats().expect("stats").objects, 100);
}

/// `delete` searches pages as views and decodes only the nodes it edits
/// or dissolves; a forged page on its path is `Corrupt` all the same: a
/// truncated leaf, a leaf whose header claims level 2, a leaf where a
/// level-2 directory belongs, and an underfull leaf that holds the object
/// beside an entry with a NaN coordinate (condensing it would orphan that
/// entry into ChooseSubtree).
#[test]
fn rtree_delete_refuses_forged_pages_on_its_path() {
    let forgeries: [fn() -> RTree; 4] = [
        || {
            rtree_forged_at(1, |_| {
                let leaf = rleaf(&[1, 2, 3]);
                leaf[..leaf.len() - 8].to_vec()
            })
        },
        || {
            rtree_forged_at(1, |_| {
                let mut leaf = rleaf(&[1, 2]);
                leaf[1] = 2;
                leaf
            })
        },
        || rtree_forged_at(2, |_| rleaf(&[1, 2])),
        || rtree_forged_at(1, |_| nan_corners(rleaf(&[1, 2]), 48, [1])),
    ];
    for forged in forgeries {
        let got = terminates(move || forged().delete(1, &unit()));
        assert_corrupt("delete", got);
    }
}

/// The chaos harness's poison targets come from a walk down the right
/// spine. A root that names itself and a root without entries are both
/// `Corrupt` there: an unchecked walk loops on the first and panics on the
/// second.
#[test]
fn rtree_forged_spine_is_corrupt_for_the_last_leaf_walk() {
    let forgeries: [fn(PageId, u8) -> Vec<u8>; 2] = [
        |root, height| rdir(height, &[root]),
        |_, height| rdir(height, &[]),
    ];
    for forge in forgeries {
        let (intact, forged) = terminates(move || {
            let items: Vec<SpatialItem> = (0..100).map(|i| SpatialItem::new(i, unit())).collect();
            let mut tree = RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items)
                .expect("bulk load");
            assert!(tree.height() >= 3);
            let intact = tree.last_leaf_ids(2);
            let root = tree.snapshot().root();
            let page = page_at(root, &forge(root, tree.height()));
            tree.store_mut().write(page).expect("forge the root");
            (intact, tree.last_leaf_ids(2))
        });
        assert_eq!(intact.expect("an intact spine").len(), 2);
        assert_corrupt("last leaf ids", forged);
    }
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
