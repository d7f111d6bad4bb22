//! Cross-crate integration tests: dataset → R*-tree → buffer → queries.

use asb::buffer::{BufferManager, PolicyKind, SpatialCriterion};
use asb::geom::Query;
use asb::rtree::{RTree, RTreeItem};
use asb::storage::DiskManager;
use asb::workload::{Dataset, DatasetKind, QueryKind, QuerySetSpec, Scale};

fn all_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::LruT,
        PolicyKind::LruP,
        PolicyKind::TwoQ,
        PolicyKind::LruK { k: 2 },
        PolicyKind::LruK { k: 3 },
        PolicyKind::LruK { k: 5 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::Spatial(SpatialCriterion::EntryArea),
        PolicyKind::Spatial(SpatialCriterion::Margin),
        PolicyKind::Spatial(SpatialCriterion::EntryMargin),
        PolicyKind::Spatial(SpatialCriterion::EntryOverlap),
        PolicyKind::PAPER_SLRU,
        PolicyKind::Slru {
            candidate_fraction: 0.5,
            criterion: SpatialCriterion::Area,
        },
        PolicyKind::Asb,
    ]
}

fn brute_force(items: &[RTreeItem], q: &Query) -> Vec<u64> {
    let mut ids: Vec<u64> = items
        .iter()
        .filter(|it| q.matches(&it.mbr))
        .map(|it| it.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Every policy, same tree, same queries: identical answers, bounded
/// buffer, and exactly `misses` physical reads.
#[test]
fn every_policy_is_transparent_and_bounded() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 5);
    let queries: Vec<Query> = {
        let mut v = QuerySetSpec::uniform_windows(33).generate(&dataset, 120, 1);
        v.extend(QuerySetSpec::identical_points().generate(&dataset, 120, 2));
        v.extend(
            QuerySetSpec::intensified(QueryKind::Window { ex: 100 }).generate(&dataset, 120, 3),
        );
        v
    };
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| brute_force(dataset.items(), q))
        .collect();

    for policy in all_policies() {
        let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
        let capacity = (tree.page_count() / 20).max(4);
        tree.set_buffer(BufferManager::with_policy(policy, capacity));
        tree.store_mut().reset_stats();
        for (q, want) in queries.iter().zip(&expected) {
            let mut got = tree.execute(q).expect("query");
            got.sort_unstable();
            assert_eq!(&got, want, "{policy:?} changed query answers");
        }
        let disk = tree.store().stats();
        let buf = tree.take_buffer().expect("buffer attached");
        let stats = buf.stats();
        assert!(
            buf.resident() <= capacity,
            "{policy:?} overflowed the buffer"
        );
        assert_eq!(stats.hits + stats.misses, stats.logical_reads, "{policy:?}");
        assert_eq!(
            stats.misses, disk.reads,
            "{policy:?}: misses must equal disk reads"
        );
        assert!(stats.hits > 0, "{policy:?} should hit at least the root");
    }
}

/// Insertion-built and bulk-loaded trees answer queries identically.
#[test]
fn insertion_and_bulk_load_agree() {
    let dataset = Dataset::generate(DatasetKind::World, Scale::Tiny, 6);
    let items = &dataset.items()[..600];
    let mut bulk = RTree::bulk_load(DiskManager::new(), items).expect("bulk");
    let mut incremental = RTree::new(DiskManager::new()).expect("empty tree");
    for &it in items {
        incremental.insert(it).expect("insert");
    }
    incremental.validate().expect("incremental tree valid");
    bulk.validate().expect("bulk tree valid");
    for q in QuerySetSpec::uniform_windows(33).generate(&dataset, 60, 4) {
        let mut a = bulk.execute(&q).expect("bulk query");
        let mut b = incremental.execute(&q).expect("incremental query");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

/// The paper's structural claims hold for the synthetic mainland database:
/// fan-outs 51/42 and a small directory fraction (paper: 2.84%).
#[test]
fn tree_shape_matches_the_paper() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Small, 42);
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    assert_eq!(tree.config().dir_max, 51);
    assert_eq!(tree.config().leaf_max, 42);
    let stats = tree.stats().expect("stats");
    assert!(
        stats.directory_fraction() < 0.06,
        "directory fraction {:.3} should be small (paper: 0.028)",
        stats.directory_fraction()
    );
    assert_eq!(stats.objects, dataset.items().len());
}

/// Updates through a buffered tree keep the tree valid and the buffer
/// coherent (reads after deletes never see stale entries).
#[test]
fn buffered_updates_stay_coherent() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 8);
    let items = dataset.items();
    let mut tree = RTree::bulk_load(DiskManager::new(), &items[..1200]).expect("bulk load");
    tree.set_buffer(BufferManager::with_policy(PolicyKind::Asb, 24));

    // Delete a third, insert fresh objects, interleaved with queries.
    for (i, victim) in items[..400].iter().enumerate() {
        assert!(
            tree.delete(victim.id, &victim.mbr).expect("delete"),
            "object {}",
            victim.id
        );
        let newcomer = items[1200 + i];
        tree.insert(newcomer).expect("insert");
        if i % 37 == 0 {
            let got = tree.window_query(victim.mbr).expect("query");
            assert!(!got.contains(&victim.id), "deleted object resurfaced");
            let got = tree.window_query(newcomer.mbr).expect("query");
            assert!(got.contains(&newcomer.id), "fresh object missing");
        }
    }
    tree.validate()
        .expect("tree stays valid under buffered updates");
    assert_eq!(tree.len(), 1200);
}

/// Clearing the buffer between query sets (the paper's protocol) really
/// resets the measurement: a repeated identical set costs the same.
#[test]
fn cleared_buffers_make_runs_repeatable() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 12);
    let queries = QuerySetSpec::uniform_windows(100).generate(&dataset, 150, 5);
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk");
    tree.set_buffer(BufferManager::with_policy(PolicyKind::LruK { k: 2 }, 16));

    let run = |tree: &mut RTree<DiskManager>| {
        tree.buffer_mut().expect("buffer").clear();
        tree.store_mut().reset_stats();
        for q in &queries {
            tree.execute(q).expect("query");
        }
        tree.store().stats().reads
    };
    let first = run(&mut tree);
    let second = run(&mut tree);
    // LRU-K retains history across the clear (by design, it outlives
    // residency), so eviction decisions may differ marginally between
    // runs — but the paper's protocol (clear pages and counters) keeps
    // measurements comparable.
    let drift = (second as f64 - first as f64).abs() / first as f64;
    assert!(drift < 0.05, "runs drifted {drift:.3}: {first} vs {second}");

    // Without retained state (plain LRU), repetition is exact.
    tree.set_buffer(BufferManager::with_policy(PolicyKind::Lru, 16));
    let first = run(&mut tree);
    let second = run(&mut tree);
    assert_eq!(first, second, "LRU runs must repeat exactly");
}

/// A buffer as large as the tree converges to zero misses after warm-up.
#[test]
fn full_size_buffer_absorbs_everything() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 3);
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk");
    let pages = tree.page_count();
    tree.set_buffer(BufferManager::with_policy(PolicyKind::Lru, pages));
    let queries = QuerySetSpec::uniform_windows(33).generate(&dataset, 300, 9);
    for q in &queries {
        tree.execute(q).expect("query");
    }
    tree.store_mut().reset_stats();
    for q in &queries {
        tree.execute(q).expect("query");
    }
    assert_eq!(
        tree.store().stats().reads,
        0,
        "warm full-size buffer must not miss"
    );
}

/// LRU-K's ghost history grows with evictions; ASB's does not — the
/// paper's memory argument for the adaptable spatial buffer.
#[test]
fn memory_overhead_matches_the_papers_argument() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 21);
    let queries = QuerySetSpec::uniform_windows(33).generate(&dataset, 400, 2);
    let mut retained = std::collections::HashMap::new();
    for policy in [PolicyKind::LruK { k: 2 }, PolicyKind::Asb, PolicyKind::Lru] {
        let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
        tree.set_buffer(BufferManager::with_policy(policy, 12));
        for q in &queries {
            tree.execute(q).expect("query");
        }
        let buf = tree.take_buffer().expect("buffer");
        retained.insert(policy.label(), buf.policy().retained_history());
    }
    assert!(retained["LRU-2"] > 0, "LRU-2 must retain ghost history");
    assert_eq!(
        retained["ASB"], 0,
        "ASB must not retain history for evicted pages"
    );
    assert_eq!(retained["LRU"], 0);
}
