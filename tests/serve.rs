//! Integration tests for the batched serving front end (`asb-serve`),
//! exercised through the umbrella crate the way applications see it.
//!
//! Three families:
//!
//! * **determinism** — the full serve loop (request order, per-session
//!   statistics, histogram contents) is a pure function of its seeds:
//!   same seed, bit-for-bit equal outcome;
//! * **query equivalence** — a served request answers exactly what the
//!   direct R\*-tree operation answers (windows via `window_query`, k-NN
//!   via `nearest_neighbors`, joins via brute force over the dataset);
//! * **shard independence** — request results do not depend on the shard
//!   count (the one-shard batched path itself is pinned against its
//!   written-out contract in `tests/sharded.rs`).

use asb::buffer::{PolicyKind, ShardedBuffer};
use asb::rtree::RTree;
use asb::serve::{serve, ServeConfig, ServeOutcome};
use asb::storage::DiskManager;
use asb::workload::{
    session_requests, Dataset, DatasetKind, Request, RequestMix, Scale, SessionSpec,
};

const SEED: u64 = 7;
const CAPACITY: usize = 24;

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Mainland, Scale::Tiny, SEED)
}

fn streams(dataset: &Dataset, sessions: usize, steps: usize) -> Vec<Vec<Request>> {
    (0..sessions as u64)
        .map(|i| {
            session_requests(
                dataset,
                SessionSpec::default(),
                RequestMix::browsing(),
                steps,
                SEED + i,
            )
        })
        .collect()
}

/// Serves `sessions` through a fresh sharded pool over a fresh tree.
fn serve_sharded(dataset: &Dataset, sessions: &[Vec<Request>], shards: usize) -> ServeOutcome {
    let tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    let snapshot = tree.snapshot();
    let pool = ShardedBuffer::new(tree.into_store(), PolicyKind::Asb, CAPACITY, shards);
    serve(&pool, &snapshot, sessions, &ServeConfig::default()).expect("serve")
}

#[test]
fn same_seed_serves_bit_for_bit_identically() {
    let dataset = dataset();
    let sessions = streams(&dataset, 24, 6);
    let a = serve_sharded(&dataset, &sessions, 4);
    let b = serve_sharded(&dataset, &sessions, 4);
    // ServeOutcome derives PartialEq over everything: response order,
    // latencies, per-session stats and raw histogram buckets.
    assert_eq!(a, b);
    assert_eq!(a.report.requests, 24 * 6);
    assert!(!a.report.histogram.is_empty());
    assert!(a.report.p50_ticks <= a.report.p99_ticks);
    assert!(a.report.p99_ticks <= a.report.p999_ticks);
}

#[test]
fn request_results_do_not_depend_on_shard_count() {
    let dataset = dataset();
    let sessions = streams(&dataset, 12, 5);
    let one = serve_sharded(&dataset, &sessions, 1);
    let four = serve_sharded(&dataset, &sessions, 4);
    // Timing (and thus completion order) may differ across shard counts,
    // but every request's answer must not.
    let key = |o: &ServeOutcome| {
        let mut v: Vec<_> = o
            .responses
            .iter()
            .map(|r| (r.session, r.seq, r.kind, r.results.clone()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&one), key(&four));
}

/// Brute-force window-restricted self-join: unordered pairs of distinct
/// dataset objects that both intersect the region and each other.
fn brute_join_count(dataset: &Dataset, region: &asb::geom::Rect) -> u64 {
    let items = dataset.items();
    let mut count = 0u64;
    for (i, x) in items.iter().enumerate() {
        if !x.mbr.intersects(region) {
            continue;
        }
        for y in &items[i + 1..] {
            if y.mbr.intersects(region) && x.mbr.intersects(&y.mbr) {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn served_answers_match_direct_queries() {
    let dataset = dataset();
    // One session: its responses are directly comparable to running the
    // same requests against the tree, one at a time.
    let sessions = streams(&dataset, 1, 40);
    let outcome = serve_sharded(&dataset, &sessions, 2);
    assert_eq!(outcome.responses.len(), 40);

    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    let mut kinds_seen = std::collections::BTreeSet::new();
    for resp in &outcome.responses {
        kinds_seen.insert(resp.kind);
        match &sessions[0][resp.seq] {
            Request::Window(region) => {
                let mut direct = tree.window_query(*region).expect("window query");
                direct.sort_unstable();
                assert_eq!(resp.results, direct, "window seq {}", resp.seq);
            }
            Request::Nearest(p, k) => {
                let direct = tree.nearest_neighbors(*p, *k).expect("knn");
                let ids: Vec<u64> = direct.iter().map(|&(id, _)| id).collect();
                // The engine mirrors the tree's best-first heap exactly,
                // so even the order of equidistant neighbours matches.
                assert_eq!(resp.results, ids, "knn seq {}", resp.seq);
            }
            Request::Join(region) => {
                assert_eq!(
                    resp.results,
                    vec![brute_join_count(&dataset, region)],
                    "join seq {}",
                    resp.seq
                );
            }
        }
    }
    // The browsing mix must actually have exercised all three kinds.
    assert_eq!(
        kinds_seen.into_iter().collect::<Vec<_>>(),
        vec!["join", "nearest", "window"]
    );
}
