//! The replacement benchmark behind `BENCH_replacement.json`.
//!
//! One deterministic phase-change workload per golden database, replayed
//! through LRU, ASB and the expert arena at a fixed capacity, each row
//! measured against Belady's OPT on the same reference string. Everything
//! is a pure function of the configuration constants, so the file is a
//! reviewable benchmark result, not a snapshot of one developer's run.
//! Its one writer is the tier-1 test `committed_replacement_bench_is_current`,
//! which holds the acceptance bars and byte-compares the committed file;
//! `ASB_BLESS_GOLDEN=1 cargo test --test golden_trace -- --test-threads 1`
//! rewrites it.

use crate::trace::Trace;
use asb_core::PolicyKind;
use asb_storage::Result;
use asb_workload::{DatasetKind, PhasedWorkload, Scale};
use serde::Serialize;

/// The two golden databases every committed benchmark trajectory runs on,
/// as `(label, kind)` pairs — the labels appear verbatim in the committed
/// JSON files (`BENCH_replacement.json`, `BENCH_serve.json`).
pub const GOLDEN_DBS: [(&str, DatasetKind); 2] = [
    ("mainland", DatasetKind::Mainland),
    ("world", DatasetKind::World),
];

/// Buffer capacity (pages) used for every benchmark replay.
const BENCH_CAPACITY: usize = 12;
/// Seed of the benchmark workloads.
const BENCH_SEED: u64 = 42;
/// Queries per phase of the adversarial workload.
const BENCH_QUERIES_PER_PHASE: usize = 80;

/// One `(database, policy)` benchmark row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchEntry {
    /// Database name (`"mainland"` / `"world"`).
    pub db: String,
    /// Policy label (`"LRU"` / `"ASB"` / `"ARENA"`).
    pub policy: String,
    /// Logical page reads of the replay.
    pub logical_reads: u64,
    /// Buffer misses (physical reads on a fault-free store).
    pub misses: u64,
    /// Misses above Belady's OPT on the same reference string
    /// ([`Trace::opt_misses`]): what the policy leaves on the table.
    pub vs_opt: i64,
    /// Hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Cumulative regret versus the best expert in hindsight (misses
    /// minus the best expert's ghost misses; can be negative). Zero for
    /// non-arena policies, which track no counterfactuals.
    pub regret: i64,
    /// Number of arena authority switches (zero for non-arena policies).
    pub authority_switches: u64,
}

/// The full benchmark: configuration header plus one row per
/// `(database, policy)` pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplacementBench {
    /// Workload label (phases included), e.g.
    /// `"phase-change[U-W-33+INT-P+ID-W+IND-W-100+U-P]"`.
    pub workload: String,
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Buffer capacity in pages.
    pub capacity: usize,
    /// Queries per phase.
    pub queries_per_phase: usize,
    /// Benchmark rows, databases outer, policies inner.
    pub entries: Vec<BenchEntry>,
}

/// Runs the replacement benchmark: the adversarial phase-change workload
/// on both golden databases, replayed through LRU, ASB and the default
/// expert arena.
pub fn replacement_bench() -> Result<ReplacementBench> {
    let workload = PhasedWorkload::adversarial(BENCH_QUERIES_PER_PHASE);
    let policies = [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::Arena];
    let mut entries = Vec::new();
    for (name, db) in GOLDEN_DBS {
        let trace = Trace::record_phased(db, Scale::Tiny, BENCH_SEED, &workload)?;
        let outcomes = Trace::replay_all(&policies.map(|policy| (&trace, policy, BENCH_CAPACITY)))?;
        let opt = trace.opt_misses(BENCH_CAPACITY)? as i64;
        for (policy, out) in policies.into_iter().zip(outcomes) {
            // `BufferStats` carries the arena's two counters (zero for every
            // other policy): the switches, and the ghost misses of the best
            // expert, which the arena's own misses are measured against.
            let regret = match policy {
                PolicyKind::Arena => out.stats.misses as i64 - out.stats.best_expert_misses as i64,
                _ => 0,
            };
            entries.push(BenchEntry {
                db: name.to_string(),
                policy: policy.label(),
                logical_reads: out.stats.logical_reads,
                misses: out.stats.misses,
                vs_opt: out.stats.misses as i64 - opt,
                hit_rate: out.stats.hit_ratio(),
                regret,
                authority_switches: out.stats.authority_switches,
            });
        }
    }
    Ok(ReplacementBench {
        workload: workload.label(),
        seed: BENCH_SEED,
        capacity: BENCH_CAPACITY,
        queries_per_phase: BENCH_QUERIES_PER_PHASE,
        entries,
    })
}
