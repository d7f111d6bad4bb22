//! Hostile input: one seeded mutator, five decoders.
//!
//! Whatever arrives from outside the process — a trace file, a page of a
//! damaged store — is decoded into `Ok` or a typed error: never a panic,
//! and never an allocation sized by a count the input merely claims. The
//! WAL has its own such tests (`asb-storage`,
//! `scan_of_arbitrary_bytes_never_panics_and_recovers_nothing`); this file
//! covers `Trace::from_text` and the four page codecs with one mutator:
//! arbitrary bytes, a valid encoding with k ∈ 1..=8 flipped bytes, and a
//! valid encoding cut at every length.

use asb::exp::Trace;
use asb::geom::{Point, Rect, SpatialStats};
use asb::quadtree::{QuadNode, QuadTree};
use asb::rtree::{Node, RTree};
use asb::storage::{
    decode_object_page, DiskManager, ObjectRecord, ObjectStore, Page, PageId, PageMeta, PageStore,
    PageType, PAGE_SIZE,
};
use asb::workload::{Dataset, DatasetKind, Scale};
use asb::zbtree::ZBTree;
use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

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
        Node::decode(&page_of(payload)).expect("a real R*-tree page");
    }
    let decode = |bytes: &[u8]| drop(Node::decode(&page_of(bytes)));
    assault("Node::decode", 2, &valid, PAGE_SIZE, &decode);
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
