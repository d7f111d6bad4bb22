//! Properties of `asb_rtree::Search`, the one R\*-tree query traversal,
//! driven from outside the way its two real drivers do it: `RTree` one
//! page at a time, `asb-serve` in slices of `FRONTIER_LIMIT`.
//!
//! * the answer does not depend on the slice width (window result set,
//!   k-NN list including the order of equidistant neighbours, join count);
//! * at width 1 the pages a driver is asked for are, in order, exactly the
//!   pages `RTree::execute` / `nearest_neighbors` read;
//! * an undelivered page costs its subtree, never a fabricated result, and
//!   the search says so.

use asb::geom::{Point, Query, Rect, SpatialItem};
use asb::rtree::{NodeView, RTree, RTreeConfig, Search};
use asb::storage::{AccessContext, DiskManager, Page, PageId, PageStore, QueryId, RecordingStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WIDTHS: [usize; 4] = [1, 3, 8, usize::MAX];

type Store = RecordingStore<DiskManager>;

/// Unit squares on a coarse integer grid: plenty of equidistant objects.
fn items_strategy() -> impl Strategy<Value = Vec<SpatialItem>> {
    prop::collection::vec((0u32..24, 0u32..24), 1..260).prop_map(|cells| {
        cells
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let (x, y) = (x as f64, y as f64);
                SpatialItem::new(i as u64, Rect::new(x, y, x + 1.0, y + 1.0))
            })
            .collect()
    })
}

fn region_strategy() -> impl Strategy<Value = Rect> {
    (0u32..24, 0u32..24, 0u32..12, 0u32..12)
        .prop_map(|(x, y, w, h)| Rect::new(x as f64, y as f64, (x + w) as f64, (y + h) as f64))
}

fn point_strategy() -> impl Strategy<Value = Point> {
    (0u32..26, 0u32..26).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

fn bulk_load(items: &[SpatialItem]) -> RTree<Store> {
    let store = RecordingStore::new(DiskManager::new());
    store.set_recording(false);
    RTree::bulk_load_with(store, RTreeConfig::small(), items).expect("bulk load")
}

/// Runs `search` to completion in slices of `width`, reading the asked
/// pages from `store` and feeding views of them; `lost`, if asked for, is
/// never delivered. Returns the finished search and every page it asked
/// for, in order.
fn drive(
    store: &mut Store,
    mut search: Search,
    width: usize,
    lost: Option<PageId>,
) -> (Search, Vec<PageId>) {
    let ctx = AccessContext::query(QueryId::new(0));
    let mut asked_log = Vec::new();
    loop {
        let asked = search.wants(width).to_vec();
        if asked.is_empty() {
            break;
        }
        assert!(asked.len() <= width.max(2), "slice wider than asked for");
        let pages: BTreeMap<PageId, Page> = asked
            .iter()
            .filter(|&&id| Some(id) != lost)
            .map(|&id| (id, store.read(id, ctx).expect("read")))
            .collect();
        search.feed(|id| {
            pages
                .get(&id)
                .map(|page| NodeView::parse(page).expect("parse"))
        });
        asked_log.extend(asked);
    }
    assert!(search.done());
    (search, asked_log)
}

fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

/// The pages `op` reads from the tree's store, in order.
fn pages_read(tree: &mut RTree<Store>, op: impl FnOnce(&mut RTree<Store>)) -> Vec<PageId> {
    tree.store().set_recording(true);
    op(tree);
    tree.store().set_recording(false);
    let log = tree.store().take_log();
    log.into_iter().map(|(page, _)| page).collect()
}

fn brute_join_count(items: &[SpatialItem], region: &Rect) -> u64 {
    let mut count = 0;
    for (i, x) in items.iter().enumerate() {
        for y in &items[i + 1..] {
            if x.mbr.intersects(region) && y.mbr.intersects(region) && x.mbr.intersects(&y.mbr) {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same answer at every slice width, and that answer is the tree's.
    #[test]
    fn answers_do_not_depend_on_the_slice_width(
        items in items_strategy(),
        region in region_strategy(),
        point in point_strategy(),
        k in 1usize..12,
    ) {
        let mut tree = bulk_load(&items);
        let root = tree.snapshot().root();
        let window = sorted(tree.window_query(region).unwrap());
        let want: Vec<u64> = items.iter()
            .filter(|it| it.mbr.intersects(&region)).map(|it| it.id).collect();
        prop_assert_eq!(&window, &want);
        let neighbors = tree.nearest_neighbors(point, k).unwrap();
        let join = brute_join_count(&items, &region);

        for width in WIDTHS {
            let store = tree.store_mut();
            let (s, _) = drive(store, Search::window(root, Query::Window(region)), width, None);
            prop_assert!(!s.pruned());
            prop_assert_eq!(&sorted(s.into_results()), &window, "window, width {}", width);

            let (s, _) = drive(store, Search::nearest(root, point, k), width, None);
            prop_assert!(!s.pruned());
            prop_assert_eq!(&s.into_neighbors(), &neighbors, "k-NN, width {}", width);

            let (s, _) = drive(store, Search::join(root, region), width, None);
            prop_assert!(!s.pruned());
            prop_assert_eq!(s.into_results(), vec![join], "join, width {}", width);
        }
    }

    /// Width 1 *is* the tree's own traversal: same pages, same order.
    #[test]
    fn width_one_reads_the_pages_the_tree_reads(
        items in items_strategy(),
        region in region_strategy(),
        point in point_strategy(),
        k in 1usize..12,
    ) {
        let mut tree = bulk_load(&items);
        let root = tree.snapshot().root();
        for query in [Query::Window(region), Query::Point(point)] {
            let direct = pages_read(&mut tree, |t| { t.execute(&query).unwrap(); });
            let mut asked = Vec::new();
            let sliced = pages_read(&mut tree, |t| {
                asked = drive(t.store_mut(), Search::window(root, query), 1, None).1;
            });
            prop_assert_eq!(&sliced, &direct, "{:?}", query);
            prop_assert_eq!(&asked, &direct);
        }
        let direct = pages_read(&mut tree, |t| { t.nearest_neighbors(point, k).unwrap(); });
        let sliced = pages_read(&mut tree, |t| {
            drive(t.store_mut(), Search::nearest(root, point, k), 1, None);
        });
        prop_assert_eq!(sliced, direct);
    }

    /// Losing a page loses its subtree and nothing else: the answer is
    /// made of true results only, and the search reports the pruning.
    #[test]
    fn an_undelivered_page_prunes_and_says_so(
        items in items_strategy(),
        region in region_strategy(),
        point in point_strategy(),
        k in 1usize..12,
        pick in 0usize..10_000,
        width_pick in 0usize..WIDTHS.len(),
    ) {
        let mut tree = bulk_load(&items);
        let root = tree.snapshot().root();
        let width = WIDTHS[width_pick];
        let store = tree.store_mut();

        let (exact, asked) = drive(store, Search::window(root, Query::Window(region)), width, None);
        let exact = exact.into_results();
        let lost = asked[pick % asked.len()];
        let (s, _) = drive(store, Search::window(root, Query::Window(region)), width, Some(lost));
        prop_assert!(s.pruned());
        let partial = s.into_results();
        prop_assert!(partial.len() <= exact.len());
        prop_assert!(partial.iter().all(|id| exact.contains(id)));

        let (_, asked) = drive(store, Search::nearest(root, point, k), width, None);
        let lost = asked[pick % asked.len()];
        let (s, _) = drive(store, Search::nearest(root, point, k), width, Some(lost));
        prop_assert!(s.pruned());
        let partial = s.into_neighbors();
        prop_assert!(partial.len() <= k);
        prop_assert!(partial.windows(2).all(|w| w[0].1 <= w[1].1));
        for (id, dist) in partial {
            prop_assert_eq!(items[id as usize].mbr.min_dist(&point), dist);
        }

        let (exact, asked) = drive(store, Search::join(root, region), width, None);
        let lost = asked[pick % asked.len()];
        let (s, _) = drive(store, Search::join(root, region), width, Some(lost));
        prop_assert!(s.pruned());
        prop_assert!(s.into_results()[0] <= exact.into_results()[0]);
    }
}
