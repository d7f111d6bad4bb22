//! # asb-serve — batched multi-session spatial serving front end
//!
//! The serving layer the EDBT 2002 reproduction grows toward: many
//! concurrent map sessions (pan/zoom window queries, k-NN lookups,
//! window-restricted spatial self-joins — [`asb_workload::session_requests`])
//! answered by one shared buffer pool, with requests *batched per shard*
//! through [`asb_core::BufferPool::fetch_batch`] instead of fetched one
//! page at a time.
//!
//! Everything runs on the storage layer's simulated clock: a round's cost
//! is the slowest shard's simulated store time plus fixed per-page and
//! per-round overheads, and a request's latency is completion tick minus
//! arrival tick — queueing delay included. No wall time is read anywhere,
//! so a run is a pure function of its seeds: [`ServeReport`] is a fold over
//! the run's [`Response`]s, and its latency percentiles (p50/p99/p999, each
//! rounded up to a log-scale bucket by [`percentile()`]) are bit-for-bit
//! reproducible on any machine, which is what lets `BENCH_serve.json` live
//! in the repository as a reviewable benchmark result that a tier-1 test
//! regenerates and compares byte for byte.
//!
//! ```text
//! cargo run --release -p asb-serve --bin serve -- run
//! ASB_BLESS_GOLDEN=1 cargo test --test golden_trace -- --test-threads 1
//! ```
//!
//! The first command serves one configuration interactively. The second
//! re-blesses `BENCH_serve.json` and `BENCH_chaos.json` (with every other
//! committed artifact) after an intentional change: the tier-1 currency
//! tests are their only writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod chaos;
mod degrade;
mod engine;
mod percentile;

pub use bench::{
    bench_sessions, serve_bench, serve_capacity, ServeBench, ServeBenchEntry,
    SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_POLICIES, SERVE_BENCH_REQUESTS, SERVE_BENCH_SEED,
    SERVE_BENCH_SESSIONS, SERVE_BENCH_SHARDS,
};
pub use chaos::{
    chaos_sweep, check_chaos, default_chaos_bench, ChaosBench, ChaosCell, FaultProfile,
    CHAOS_DEADLINE_TICKS, CHAOS_FAULT_PROFILES, CHAOS_SEEDS, DEGRADED_RATE_CEILING,
    P999_INFLATION_CEILING,
};
pub use degrade::{Outcome, QUARANTINE_HEAL_TICKS};
pub use engine::{
    serve, Response, ServeConfig, ServeOutcome, ServeReport, FRONTIER_LIMIT, HIT_TICKS,
    ROUND_OVERHEAD_TICKS,
};
pub use percentile::{percentile, RELATIVE_ERROR, SUB_BUCKETS};
