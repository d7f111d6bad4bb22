//! The replacement benchmark behind `BENCH_replacement.json`.
//!
//! One deterministic phase-change workload per golden database, replayed
//! through LRU, ASB and the expert arena at a fixed capacity. Everything
//! is a pure function of the configuration constants, so running
//! `probe --bench-json` on any machine regenerates the committed file
//! byte-for-byte — the file is a reviewable benchmark result, not a
//! snapshot of one developer's run.

use crate::trace::Trace;
use asb_core::PolicyKind;
use asb_storage::Result;
use asb_workload::{DatasetKind, PhasedWorkload, Scale};
use serde::{Deserialize, Serialize};

/// The two golden databases every committed benchmark trajectory runs on,
/// as `(label, kind)` pairs — the labels appear verbatim in the committed
/// JSON files (`BENCH_replacement.json`, `BENCH_serve.json`).
pub const GOLDEN_DBS: [(&str, DatasetKind); 2] = [
    ("mainland", DatasetKind::Mainland),
    ("world", DatasetKind::World),
];

/// Buffer capacity (pages) used for every benchmark replay.
pub const BENCH_CAPACITY: usize = 12;
/// Seed of the benchmark workloads.
pub const BENCH_SEED: u64 = 42;
/// Queries per phase of the adversarial workload.
pub const BENCH_QUERIES_PER_PHASE: usize = 80;

/// One `(database, policy)` benchmark row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Database name (`"mainland"` / `"world"`).
    pub db: String,
    /// Policy label (`"LRU"` / `"ASB"` / `"ARENA"`).
    pub policy: String,
    /// Logical page reads of the replay.
    pub logical_reads: u64,
    /// Buffer misses (physical reads on a fault-free store).
    pub misses: u64,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
pub fn replacement_bench(
    seed: u64,
    capacity: usize,
    queries_per_phase: usize,
) -> Result<ReplacementBench> {
    let workload = PhasedWorkload::adversarial(queries_per_phase);
    let policies = [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::Arena];
    let mut entries = Vec::new();
    for (name, db) in GOLDEN_DBS {
        let trace = Trace::record_phased(db, Scale::Tiny, seed, &workload)?;
        let outcomes = Trace::replay_all(&policies.map(|policy| (&trace, policy, capacity)))?;
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
                hit_rate: out.stats.hit_ratio(),
                regret,
                authority_switches: out.stats.authority_switches,
            });
        }
    }
    Ok(ReplacementBench {
        workload: workload.label(),
        seed,
        capacity,
        queries_per_phase,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_is_reproducible_and_arena_beats_asb() {
        let a = replacement_bench(BENCH_SEED, BENCH_CAPACITY, BENCH_QUERIES_PER_PHASE).unwrap();
        let b = replacement_bench(BENCH_SEED, BENCH_CAPACITY, BENCH_QUERIES_PER_PHASE).unwrap();
        assert_eq!(a, b, "benchmark must be a pure function of its config");
        assert_eq!(a.entries.len(), 6);
        for db in ["mainland", "world"] {
            let row = |policy: &str| {
                a.entries
                    .iter()
                    .find(|e| e.db == db && e.policy == policy)
                    .unwrap()
            };
            let (lru, asb, arena) = (row("LRU"), row("ASB"), row("ARENA"));
            assert_eq!(lru.logical_reads, asb.logical_reads);
            assert_eq!(lru.logical_reads, arena.logical_reads);
            // The acceptance bar: the arena strictly beats plain ASB on
            // both committed phase-change workloads.
            assert!(
                arena.misses < asb.misses,
                "{db}: arena {} vs asb {}",
                arena.misses,
                asb.misses
            );
            assert!(arena.regret.unsigned_abs() <= 32, "{db}: {}", arena.regret);
            assert!(arena.authority_switches > 0);
            assert_eq!(lru.regret, 0);
            assert_eq!(asb.authority_switches, 0);
        }
    }
}
