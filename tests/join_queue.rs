//! Cost tripwire for the pair queue of `Search::join` (a timing ratio, so
//! `#[ignore]`d and run in release):
//!
//! ```text
//! cargo test --release --test join_queue -- --ignored
//! ```
//!
//! A join pops `FRONTIER_LIMIT / 2` pairs off the front of its queue per
//! round and pushes the children of each to the back. Popping by shifting
//! the whole queue made a round cost the queue's length: the same join over
//! four times the area then cost 3.5× as much per round. The test joins two
//! windows of a grid of overlapping squares, indexed with the small fan-out
//! so that a pair is cheap and the queue long (about 8 400 and 34 700 pairs
//! at most), and holds the cost per round, hence per popped pair, of the
//! larger window to at most 1.5× that of the smaller.
//!
//! Beside it, a deterministic count (tier-1): a join reads each asked node
//! once per round, so over a whole join the `feed` closure runs exactly as
//! often as `wants` named pages, not twice per queued pair.

use asb::geom::{Point, Rect, SpatialItem};
use asb::rtree::{NodeView, RTree, RTreeConfig, Search};
use asb::serve::FRONTIER_LIMIT;
use asb::storage::{DiskManager, PageId};
use asb::workload::{Dataset, DatasetKind, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Squares per side of the grid; each overlaps its eight neighbours.
const SIDE: u32 = 300;

fn grid_tree() -> RTree<DiskManager> {
    let items: Vec<SpatialItem> = (0..SIDE * SIDE)
        .map(|i| {
            let (x, y) = (f64::from(i % SIDE) * 0.75, f64::from(i / SIDE) * 0.75);
            SpatialItem::new(u64::from(i), Rect::new(x, y, x + 1.0, y + 1.0))
        })
        .collect();
    RTree::bulk_load_with(DiskManager::new(), RTreeConfig::small(), &items).expect("bulk load")
}

/// Seconds per round of one join of `region`, and its pair count.
fn seconds_per_round(disk: &DiskManager, root: PageId, region: Rect) -> (f64, u64) {
    let mut search = Search::join(root, region);
    let mut rounds = 0u32;
    #[allow(clippy::disallowed_methods)] // a timing test measures time
    let start = Instant::now();
    while !search.done() {
        black_box(search.wants(FRONTIER_LIMIT));
        search.feed(|id| NodeView::parse(disk.peek(id).ok()?).ok());
        rounds += 1;
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds / f64::from(rounds), search.into_results()[0])
}

#[test]
#[ignore = "timing: run in release mode"]
fn join_cost_per_pair_does_not_grow_with_the_queue() {
    let tree = grid_tree();
    let (disk, root) = (tree.store(), tree.snapshot().root());
    let middle = f64::from(SIDE) * 0.75 / 2.0;
    let square = |half: f64| Rect::new(middle - half, middle - half, middle + half, middle + half);
    let (small, large) = (square(40.0), square(80.0));
    // Best of three, the two alternated.
    let (mut best_small, mut best_large) = (f64::INFINITY, f64::INFINITY);
    let mut counts = (0, 0);
    for _ in 0..3 {
        let (s, n) = seconds_per_round(disk, root, small);
        let (l, m) = seconds_per_round(disk, root, large);
        (best_small, best_large, counts) = (best_small.min(s), best_large.min(l), (n, m));
    }
    assert!(
        counts.1 > 3 * counts.0,
        "the larger window must join about four times the pairs: {counts:?}"
    );
    let ratio = best_large / best_small;
    println!(
        "per round: {:.0} ns at 1x, {:.0} ns at 4x the area ({ratio:.2}x)",
        best_small * 1e9,
        best_large * 1e9
    );
    assert!(
        ratio <= 1.5,
        "a round costs {ratio:.2}x at four times the queue"
    );
}

/// Brute force: unordered pairs of distinct objects that both meet
/// `region` and each other.
fn brute_join_count(items: &[SpatialItem], region: &Rect) -> u64 {
    let inside: Vec<&Rect> = items
        .iter()
        .map(|x| &x.mbr)
        .filter(|m| m.intersects(region))
        .collect();
    let mut count = 0;
    for (i, x) in inside.iter().enumerate() {
        count += inside[i + 1..].iter().filter(|y| x.intersects(y)).count() as u64;
    }
    count
}

#[test]
fn a_join_reads_each_asked_node_once_per_round() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Small, 7);
    let tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    let b = dataset.bounds();
    let (w, h) = (b.max.x - b.min.x, b.max.y - b.min.y);
    let center = Point::new(b.min.x + w * 0.45, b.min.y + h * 0.55);
    let region = Rect::centered_square(center, w.min(h) * 0.3);

    let mut search = Search::join(tree.snapshot().root(), region);
    let (mut asked, mut reads, mut rounds) = (0u64, 0u64, 0u64);
    while !search.done() {
        asked += search.wants(FRONTIER_LIMIT).len() as u64;
        search.feed(|id| {
            reads += 1;
            NodeView::parse(tree.store().peek(id).ok()?).ok()
        });
        rounds += 1;
    }
    assert!(!search.pruned());
    let pairs = search.into_results()[0];
    assert_eq!(pairs, brute_join_count(dataset.items(), &region));
    assert_eq!(reads, asked, "node reads over {rounds} rounds");
    // Taken from the join that read both nodes of every taken pair (2 326
    // reads here): the same pages are named, and the same pairs found.
    assert_eq!((asked, pairs), (1_175, 3_403));
}
