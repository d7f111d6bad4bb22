//! A simulated interactive map server, now a thin wrapper over the
//! [`asb::serve`] crate: many closed-loop sessions issue pan/zoom window
//! queries, k-NN lookups and window-restricted spatial joins against one
//! shared, lock-striped buffer pool, and the serving engine batches each
//! round's page requests per shard ([`asb::buffer::BufferPool::fetch_batch`]).
//!
//! Latency is measured on the storage layer's simulated clock (1 tick =
//! 1 µs), so the percentiles printed here are bit-for-bit reproducible —
//! the instrument behind the committed `BENCH_serve.json`, which the tier-1
//! test `committed_serve_bench_is_current` writes and holds current.
//! The example races several policies over identical session streams and
//! prints the latency/throughput comparison.
//!
//! ```text
//! cargo run --release --example map_server
//! ```

use asb::buffer::{PolicyKind, ShardedBuffer};
use asb::rtree::RTree;
use asb::serve::{bench_sessions, serve, ServeConfig};
use asb::storage::DiskManager;
use asb::workload::{Dataset, DatasetKind, Scale};

const SESSIONS: usize = 128;
const REQUESTS_PER_SESSION: usize = 8;
const SHARDS: usize = 4;
const SEED: u64 = 42;

fn main() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, SEED);
    let streams = bench_sessions(&dataset, SEED, SESSIONS, REQUESTS_PER_SESSION);
    let requests: usize = streams.iter().map(Vec::len).sum();

    let policies = [
        PolicyKind::Lru,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Asb,
        PolicyKind::Arena,
    ];

    println!(
        "map server: {SESSIONS} concurrent sessions, {requests} requests total \
         (window / k-NN / join), one pool of {SHARDS} shards\n"
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "policy", "p50 [us]", "p99 [us]", "p999 [us]", "req/s", "hit ratio"
    );

    for policy in policies {
        let tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
        let buffer_pages = (tree.page_count() * 17 / 20).max(2 * SHARDS);
        let snapshot = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), policy, buffer_pages, SHARDS);
        pool.reset_io_stats();

        let cfg = ServeConfig {
            seed: SEED,
            ..ServeConfig::default()
        };
        let outcome = serve(&pool, &snapshot, &streams, &cfg).expect("serve loop");
        let r = &outcome.report;
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10.0} {:>9.1}%",
            policy.label(),
            r.p50_ticks,
            r.p99_ticks,
            r.p999_ticks,
            r.throughput_rps,
            100.0 * r.hit_rate,
        );
    }

    println!(
        "\n(all sessions of a policy share one pool, so pages faulted in by one session \
         are buffer hits for the others; latencies are simulated ticks, not wall time)"
    );
}
