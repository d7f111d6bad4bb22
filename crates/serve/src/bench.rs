//! The serving benchmark behind `BENCH_serve.json`.
//!
//! One deterministic mixed-request serving run per `(golden database,
//! policy)` pair: the same seeded sessions replayed through LRU, ASB and
//! the expert arena on a sharded pool. Latency is simulated ticks, so the
//! whole benchmark is a pure function of the configuration constants and
//! regenerates byte for byte on any machine. Its one writer is the tier-1
//! test `committed_serve_bench_is_current`, which holds the acceptance bars
//! and byte-compares the committed file;
//! `ASB_BLESS_GOLDEN=1 cargo test --test golden_trace -- --test-threads 1`
//! rewrites it.

use crate::engine::{serve, ServeConfig};
use asb_core::{PolicyKind, ShardedBuffer};
use asb_exp::GOLDEN_DBS;
use asb_rtree::RTree;
use asb_storage::{DiskManager, Result};
use asb_workload::{session_requests, Dataset, Request, RequestMix, Scale, SessionSpec};
use serde::Serialize;

/// Seed of the benchmark workload and serve loop.
pub const SERVE_BENCH_SEED: u64 = 42;
/// Concurrent sessions per benchmark run.
pub const SERVE_BENCH_SESSIONS: usize = 128;
/// Requests per session.
pub const SERVE_BENCH_REQUESTS: usize = 8;
/// Buffer capacity of the serving pool, as a fraction of the tree's page
/// count (the paper sizes buffers relative to the tree, and an absolute
/// capacity cannot exercise replacement on both golden databases at once
/// — their trees differ 3× in size).
pub const SERVE_BENCH_BUFFER_FRAC: f64 = 0.85;
/// Shard count of the serving pool.
pub const SERVE_BENCH_SHARDS: usize = 4;
/// The policies every benchmark run compares.
pub const SERVE_BENCH_POLICIES: [PolicyKind; 3] =
    [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::Arena];

/// Frames of a serving pool of `shards` shards over a tree of `tree_pages`
/// pages: [`SERVE_BENCH_BUFFER_FRAC`] of the tree, at least two per shard.
pub fn serve_capacity(tree_pages: usize, shards: usize) -> usize {
    ((tree_pages as f64 * SERVE_BENCH_BUFFER_FRAC).round() as usize).max(2 * shards)
}

/// One `(database, policy)` serving-benchmark row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeBenchEntry {
    /// Database name (`"mainland"` / `"world"`).
    pub db: String,
    /// Policy label (`"LRU"` / `"ASB"` / `"ARENA"`).
    pub policy: String,
    /// Tree size in pages.
    pub tree_pages: usize,
    /// Buffer capacity in pages ([`SERVE_BENCH_BUFFER_FRAC`] of the tree).
    pub capacity: usize,
    /// Requests completed.
    pub requests: u64,
    /// Batched rounds executed.
    pub rounds: u64,
    /// Median latency in simulated ticks (µs).
    pub p50_ticks: u64,
    /// 99th-percentile latency in ticks.
    pub p99_ticks: u64,
    /// 99.9th-percentile latency in ticks.
    pub p999_ticks: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Pool-wide hit rate of the run, in `[0, 1]`.
    pub hit_rate: f64,
    /// Requests that completed degraded (0 on the fault-free benchmark).
    pub degraded_requests: u64,
    /// Requests force-completed past their deadline (0 when fault-free).
    pub deadline_exceeded: u64,
    /// Distinct pages quarantined during the run (0 when fault-free).
    pub quarantined_pages: u64,
}

/// The full serving benchmark: configuration header plus one row per
/// `(database, policy)` pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeBench {
    /// Seed the sessions and serve loop were generated from.
    pub seed: u64,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Buffer capacity as a fraction of each tree's page count.
    pub buffer_frac: f64,
    /// Pool shard count.
    pub shards: usize,
    /// Mean think time between a session's requests, in ticks.
    pub think_ticks: u64,
    /// Benchmark rows, databases outer, policies inner.
    pub entries: Vec<ServeBenchEntry>,
}

/// The benchmark's session streams for one dataset: the browsing request
/// mix, one seeded stream per session.
pub fn bench_sessions(
    dataset: &Dataset,
    seed: u64,
    sessions: usize,
    steps: usize,
) -> Vec<Vec<Request>> {
    (0..sessions as u64)
        .map(|i| {
            session_requests(
                dataset,
                SessionSpec::default(),
                RequestMix::browsing(),
                steps,
                seed.wrapping_add(i.wrapping_mul(0x00C0_FFEE)),
            )
        })
        .collect()
}

/// Runs the serving benchmark: the seeded browsing sessions on both
/// golden databases, served through LRU, ASB and the default expert arena
/// on a sharded pool.
pub fn serve_bench() -> Result<ServeBench> {
    let (seed, shards) = (SERVE_BENCH_SEED, SERVE_BENCH_SHARDS);
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let mut entries = Vec::new();
    for (name, db) in GOLDEN_DBS {
        let dataset = Dataset::generate(db, Scale::Tiny, seed);
        let streams = bench_sessions(&dataset, seed, SERVE_BENCH_SESSIONS, SERVE_BENCH_REQUESTS);
        for policy in SERVE_BENCH_POLICIES {
            let tree = RTree::bulk_load(DiskManager::new(), dataset.items())?;
            let tree_pages = tree.page_count();
            let capacity = serve_capacity(tree_pages, shards);
            let snapshot = tree.snapshot();
            let pool = ShardedBuffer::new(tree.into_store(), policy, capacity, shards);
            pool.reset_io_stats();
            let outcome = serve(&pool, &snapshot, &streams, &cfg)?;
            let r = outcome.report;
            entries.push(ServeBenchEntry {
                db: name.to_string(),
                policy: policy.label(),
                tree_pages,
                capacity,
                requests: r.requests,
                rounds: r.rounds,
                p50_ticks: r.p50_ticks,
                p99_ticks: r.p99_ticks,
                p999_ticks: r.p999_ticks,
                throughput_rps: r.throughput_rps,
                hit_rate: r.hit_rate,
                degraded_requests: r.degraded_requests,
                deadline_exceeded: r.deadline_exceeded,
                quarantined_pages: r.quarantined_pages,
            });
        }
    }
    Ok(ServeBench {
        seed,
        sessions: SERVE_BENCH_SESSIONS,
        requests_per_session: SERVE_BENCH_REQUESTS,
        buffer_frac: SERVE_BENCH_BUFFER_FRAC,
        shards,
        think_ticks: cfg.think_ticks,
        entries,
    })
}
