//! End-to-end degradation tests: the serving path over a faulty store.
//!
//! The committed chaos matrix (`BENCH_chaos.json`, held current by
//! `tests/golden_trace.rs`) covers the full seed × profile grid; this
//! suite keeps a reduced matrix and exercises the pieces the matrix only
//! observes in aggregate: outcome labelling on the fault-free path, the
//! subset guarantee behind "degraded ≠ incorrect", quarantine of
//! permanently dead pages, and mid-run poison/heal through the
//! pool-shared store.

use asb::buffer::{PolicyKind, ShardedBuffer};
use asb::rtree::RTree;
use asb::serve::{
    bench_sessions, chaos_sweep, last_leaf_ids, serve, ChaosConfig, Outcome, ServeConfig,
};
use asb::storage::{DiskManager, FaultConfig, FaultyStore, PageId};
use asb::workload::{Dataset, DatasetKind, Request, Scale};

const SESSIONS: usize = 16;
const REQUESTS: usize = 4;

fn fixture() -> (Dataset, Vec<Vec<Request>>) {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
    let streams = bench_sessions(&dataset, 7, SESSIONS, REQUESTS);
    (dataset, streams)
}

/// Like [`fixture`], but on the world atlas, whose broad leaf tiles make
/// the poisoned right-spine leaves reachable even by a small workload —
/// the fixture for the quarantine and heal tests.
fn poisoned_fixture() -> (Dataset, Vec<Vec<Request>>) {
    let dataset = Dataset::generate(DatasetKind::World, Scale::Tiny, 42);
    let streams = bench_sessions(&dataset, 1, 32, REQUESTS);
    (dataset, streams)
}

/// Builds a serving pool over a [`FaultyStore`] wrapping the dataset's
/// R-tree, optionally poisoning the `poison` last leaves of the tree's
/// right spine — the same deterministic choice the chaos harness makes
/// ([`last_leaf_ids`]). Returns the pool, the tree snapshot, and the
/// poisoned ids.
fn build_pool(
    dataset: &Dataset,
    fault: FaultConfig,
    poison: usize,
) -> (
    ShardedBuffer<FaultyStore<DiskManager>>,
    asb::rtree::TreeSnapshot,
    Vec<PageId>,
) {
    let tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    let pages = tree.page_count() as u64;
    let snapshot = tree.snapshot();
    let mut inner = tree.into_store();
    let poisoned = last_leaf_ids(&mut inner, snapshot.root(), poison).expect("leaf walk");
    let store = FaultyStore::new(inner, fault);
    for &id in &poisoned {
        store.mark_permanent(id);
    }
    let capacity = ((pages as f64 * 0.85).round() as usize).max(8);
    (
        ShardedBuffer::new(store, PolicyKind::Asb, capacity, 4),
        snapshot,
        poisoned,
    )
}

/// Is `sub` a multiset subset of `sup`? Both sides are sorted response
/// vectors, so a single forward pass suffices.
fn multiset_subset(sub: &[u64], sup: &[u64]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|x| it.any(|y| y == x))
}

/// A fault-free run labels every response `Exact` and leaves every
/// degradation counter at zero — the machinery is invisible until faults
/// appear.
#[test]
fn fault_free_serving_is_all_exact() {
    let (dataset, streams) = fixture();
    let (pool, snapshot, _) = build_pool(&dataset, FaultConfig::reliable(), 0);
    let outcome = serve(&pool, &snapshot, &streams, &ServeConfig::default()).expect("serve");
    assert_eq!(outcome.report.requests, (SESSIONS * REQUESTS) as u64);
    assert!(outcome
        .responses
        .iter()
        .all(|r| r.outcome == Outcome::Exact));
    assert_eq!(outcome.report.degraded_requests, 0);
    assert_eq!(outcome.report.deadline_exceeded, 0);
    assert_eq!(outcome.report.breaker_opens, 0);
    assert_eq!(outcome.report.quarantined_pages, 0);
    assert_eq!(pool.stats().give_ups, 0);
}

/// Under brown-outs and a tight deadline, requests are force-completed as
/// `DeadlineExceeded` — but every answer delivered, exact or partial, is
/// a subset of the fault-free reference. Degraded, never incorrect.
#[test]
fn tight_deadlines_degrade_but_never_fabricate() {
    let (dataset, streams) = fixture();

    let (ref_pool, snapshot, _) = build_pool(&dataset, FaultConfig::reliable(), 0);
    let reference = serve(&ref_pool, &snapshot, &streams, &ServeConfig::default()).expect("serve");
    assert!(reference
        .responses
        .iter()
        .all(|r| r.outcome == Outcome::Exact));

    let (pool, snapshot, _) = build_pool(&dataset, FaultConfig::brownout(1, 0.3), 0);
    let cfg = ServeConfig {
        deadline_ticks: 200_000,
        ..ServeConfig::default()
    };
    let outcome = serve(&pool, &snapshot, &streams, &cfg).expect("serve");
    assert_eq!(
        outcome.report.requests, reference.report.requests,
        "every request completes, deadline or not"
    );
    assert!(
        outcome.report.deadline_exceeded > 0,
        "a 120ms-spike brown-out against a 200k-tick budget must trip deadlines"
    );
    let by_key: std::collections::BTreeMap<_, _> = reference
        .responses
        .iter()
        .map(|r| ((r.session, r.seq), r))
        .collect();
    for r in &outcome.responses {
        let reference = by_key[&(r.session, r.seq)];
        match r.outcome {
            Outcome::Exact => assert_eq!(r.results, reference.results),
            Outcome::Degraded | Outcome::DeadlineExceeded => match r.kind {
                "window" => assert!(
                    multiset_subset(&r.results, &reference.results),
                    "partial window answer fabricated a result"
                ),
                "join" => assert!(r.results[0] <= reference.results[0]),
                "nearest" => assert!(r.results.len() <= reference.results.len()),
                other => panic!("unknown request kind {other:?}"),
            },
        }
    }
}

/// Permanently dead pages trip the give-up path into quarantine: the run
/// completes every request, counts typed give-ups, quarantines the dead
/// pages, and never fabricates an answer around them.
#[test]
fn poisoned_pages_are_quarantined_not_retried_forever() {
    let (dataset, streams) = poisoned_fixture();
    let (pool, snapshot, poisoned) = build_pool(&dataset, FaultConfig::reliable(), 2);
    assert_eq!(poisoned.len(), 2);
    let outcome = serve(&pool, &snapshot, &streams, &ServeConfig::default()).expect("serve");
    assert_eq!(
        outcome.report.requests,
        streams.iter().map(Vec::len).sum::<usize>() as u64
    );
    let give_ups = pool.stats().give_ups;
    assert!(give_ups > 0, "dead pages must surface as typed give-ups");
    assert!(
        outcome.report.quarantined_pages > 0,
        "give-ups on permanently dead pages must quarantine them"
    );
    assert!(
        outcome.report.quarantined_pages <= poisoned.len() as u64,
        "only the poisoned pages may be quarantined"
    );
    assert!(
        outcome.report.degraded_requests > 0,
        "requests touching dead subtrees must be marked degraded"
    );
}

/// Healing the store mid-run through the pool-shared reference restores
/// exact service: the same pool, reused after `with_store(heal)`, serves
/// a second pass with no degradation at all.
#[test]
fn healing_the_store_restores_exact_service() {
    let (dataset, streams) = poisoned_fixture();
    let (pool, snapshot, poisoned) = build_pool(&dataset, FaultConfig::reliable(), 2);

    let degraded = serve(&pool, &snapshot, &streams, &ServeConfig::default()).expect("serve");
    assert!(degraded.report.degraded_requests > 0);

    pool.with_store(|store| {
        for &id in &poisoned {
            store.heal(id);
        }
    })
    .expect("no guards outstanding between serve calls");

    let give_ups_before = pool.stats().give_ups;
    let healed = serve(&pool, &snapshot, &streams, &ServeConfig::default()).expect("serve");
    assert!(
        healed.responses.iter().all(|r| r.outcome == Outcome::Exact),
        "healed store must serve every answer exactly"
    );
    assert_eq!(healed.report.degraded_requests, 0);
    assert_eq!(healed.report.quarantined_pages, 0);
    assert_eq!(
        pool.stats().give_ups,
        give_ups_before,
        "no further give-ups after healing"
    );
}

/// A reduced seed × profile matrix of the full chaos harness stays green
/// in `cargo test`: zero wrong answers, bit-for-bit determinism, every
/// request completed.
#[test]
fn reduced_chaos_matrix_is_green() {
    let cfg = ChaosConfig {
        sessions: 12,
        requests_per_session: 3,
        ..ChaosConfig::default()
    };
    let sweep = chaos_sweep(&[1, 1337], &["transient", "brownout"], &cfg).expect("sweep");
    assert_eq!(sweep.cells.len(), 8, "2 dbs x 2 seeds x 2 profiles");
    for c in &sweep.cells {
        let key = format!("{}/{}/seed={}", c.db, c.profile, c.seed);
        assert_eq!(c.requests, 36, "{key}: every request completes");
        assert_eq!(c.wrong_answers, 0, "{key}: degraded != incorrect");
        assert!(c.deterministic, "{key}: same-seed runs must agree");
        assert_eq!(
            c.exact + c.degraded + c.deadline_exceeded,
            c.requests,
            "{key}: outcome counters must partition the requests"
        );
    }
}
