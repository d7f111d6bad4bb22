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
//! so a run is a pure function of its seeds: the latency percentiles in
//! [`ServeReport`] (p50/p99/p999 out of a fixed-bucket log-scale
//! [`LatencyHistogram`]) are bit-for-bit reproducible on any machine,
//! which is what lets `BENCH_serve.json` live in the repository as a
//! reviewable benchmark result that a tier-1 test regenerates and compares
//! byte for byte.
//!
//! ```text
//! cargo run --release -p asb-serve --bin serve -- run
//! cargo run --release -p asb-serve --bin serve -- bench --json BENCH_serve.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod chaos;
mod degrade;
mod engine;
mod histogram;

pub use bench::{
    bench_sessions, default_serve_bench, serve_bench, ServeBench, ServeBenchEntry,
    SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_POLICIES, SERVE_BENCH_REQUESTS, SERVE_BENCH_SEED,
    SERVE_BENCH_SESSIONS, SERVE_BENCH_SHARDS,
};
pub use chaos::{
    chaos_sweep, check_chaos, default_chaos_bench, last_leaf_ids, ChaosBench, ChaosCell,
    ChaosConfig, CHAOS_DEADLINE_TICKS, CHAOS_FAULT_PROFILES, CHAOS_SEEDS, DEGRADED_RATE_CEILING,
    P999_INFLATION_CEILING,
};
pub use degrade::{BreakerConfig, BreakerState, CircuitBreaker, Outcome, Quarantine};
pub use engine::{
    serve, Response, ServeConfig, ServeOutcome, ServeReport, SessionStats, HIT_TICKS,
    ROUND_OVERHEAD_TICKS,
};
pub use histogram::{LatencyHistogram, BUCKET_COUNT, RELATIVE_ERROR, SUB_BUCKETS};
