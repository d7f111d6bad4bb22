//! The chaos-serve harness behind `BENCH_chaos.json`.
//!
//! [`chaos_sweep`] replays the golden serving scenarios through a
//! [`FaultyStore`] across a seed × fault-profile matrix and audits three
//! guarantees per cell:
//!
//! 1. **Zero wrong answers.** Every response is checked against a
//!    fault-free reference run of the same sessions: an
//!    [`Outcome::Exact`](crate::Outcome::Exact) response must equal the
//!    reference bit-for-bit, and a degraded or deadline-exceeded response
//!    must be a *subset* of it (window: result-multiset subset; join:
//!    count lower bound; k-NN: no more than the reference count, ids
//!    drawn from the real object population). Degraded is allowed;
//!    incorrect is not.
//! 2. **Bit-for-bit determinism.** Each cell runs twice from identical
//!    seeds; the two [`ServeOutcome`]s — responses, counters, latencies —
//!    must be equal.
//! 3. **Bounded tail inflation.** The cell's p999 may not exceed the
//!    fault-free reference p999 by more than [`P999_INFLATION_CEILING`]×.
//!
//! Everything runs on the simulated clock, so the committed
//! `BENCH_chaos.json` regenerates byte-for-byte on any machine; a tier-1
//! test (`committed_chaos_bench_is_current`) holds a fresh sweep to these
//! guarantees ([`check_chaos`]) and compares it with the file byte for
//! byte. That test is the file's only writer, under `ASB_BLESS_GOLDEN=1`.

use crate::bench::{bench_sessions, serve_capacity, SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_SEED};
use crate::degrade::Outcome;
use crate::engine::{serve, ServeConfig, ServeOutcome};
use asb_core::{PolicyKind, ShardedBuffer};
use asb_exp::GOLDEN_DBS;
use asb_rtree::RTree;
use asb_storage::{DiskManager, FaultConfig, FaultyStore, Result};
use asb_workload::{Dataset, Scale};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Seeds of the committed chaos matrix (one column per seed).
pub const CHAOS_SEEDS: [u64; 4] = [1, 7, 1337, 424242];

/// A named fault profile: its fault schedule for a `(seed, rate)`.
pub type FaultProfile = (&'static str, fn(u64, f64) -> FaultConfig);

/// Fault profiles of the committed chaos matrix (one row per profile).
pub const CHAOS_FAULT_PROFILES: [FaultProfile; 4] = [
    ("transient", FaultConfig::transient),
    ("corrupting", FaultConfig::corrupting),
    ("chaos", FaultConfig::chaos),
    ("brownout", FaultConfig::brownout),
];

/// Gate: at most this fraction of a cell's requests may complete
/// non-exact (degraded + deadline-exceeded). Generous on purpose — the
/// gate exists to catch a *collapse* of the serving path (e.g. a
/// quarantine that never releases a healed page), not to pin exact
/// degradation counts, which the byte-for-byte baseline diff already does.
pub const DEGRADED_RATE_CEILING: f64 = 0.5;

/// Gate: a cell's p999 may not exceed its fault-free reference p999 by
/// more than this factor. Brown-outs inject 120 ms spikes against a
/// ~10 ms store, so an order of magnitude of inflation is legitimate;
/// unbounded queueing collapse is not.
pub const P999_INFLATION_CEILING: f64 = 30.0;

/// Per-request deadline of the chaos scenarios, in ticks. Tight enough
/// that brown-out tails actually trip it (exercising
/// [`Outcome::DeadlineExceeded`](crate::Outcome::DeadlineExceeded)),
/// comfortably above fault-free tails so the reference run never does.
pub const CHAOS_DEADLINE_TICKS: u64 = 400_000;

/// Concurrent sessions per cell.
const CHAOS_SESSIONS: usize = 64;

/// Requests per session.
const CHAOS_REQUESTS_PER_SESSION: usize = 6;

/// Pool shard count.
const CHAOS_SHARDS: usize = 4;

/// Fault rate handed to every profile constructor.
const CHAOS_FAULT_RATE: f64 = 0.08;

/// Replacement policy of the serving pool.
const CHAOS_POLICY: PolicyKind = PolicyKind::Asb;

/// Pages marked permanently failed before each faulty run — the last
/// leaves of the tree's right spine (see [`RTree::last_leaf_ids`]), chosen so
/// the blast radius is one tile's objects rather than a whole subtree —
/// exercising give-up typing and quarantine end to end.
const CHAOS_POISONED_PAGES: usize = 2;

/// One `(database, profile, seed)` cell of the chaos matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosCell {
    /// Database name (`"mainland"` / `"world"`).
    pub db: String,
    /// Fault profile name (see [`CHAOS_FAULT_PROFILES`]).
    pub profile: String,
    /// Seed of the cell's sessions and fault schedule.
    pub seed: u64,
    /// Requests completed (every request completes — nothing aborts).
    pub requests: u64,
    /// Responses that completed [`Outcome::Exact`] (every wanted page
    /// served; whether they match the fault-free reference is
    /// [`wrong_answers`](Self::wrong_answers)' audit).
    pub exact: u64,
    /// Responses explicitly marked degraded.
    pub degraded: u64,
    /// Responses force-completed past their deadline.
    pub deadline_exceeded: u64,
    /// Distinct pages quarantined during the run.
    pub quarantined_pages: u64,
    /// Typed fetch give-ups recorded by the buffer pool.
    pub give_ups: u64,
    /// Median latency in ticks.
    pub p50_ticks: u64,
    /// 99.9th-percentile latency in ticks.
    pub p999_ticks: u64,
    /// The fault-free reference run's p999, in ticks.
    pub ref_p999_ticks: u64,
    /// Responses that violated the correctness audit (exact mismatch, or
    /// a degraded answer that was not a subset of the reference). Always
    /// 0 in a green sweep — committed so a regression is diffable.
    pub wrong_answers: u64,
    /// Whether the two same-seed runs of this cell were bit-for-bit
    /// identical, degradation counters included.
    pub deterministic: bool,
}

/// The full chaos sweep: configuration header plus one cell per
/// `(database, profile, seed)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosBench {
    /// Concurrent sessions per cell.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Buffer capacity as a fraction of the tree's page count.
    pub buffer_frac: f64,
    /// Pool shard count.
    pub shards: usize,
    /// Fault rate of every profile.
    pub fault_rate: f64,
    /// Replacement policy label of the serving pool.
    pub policy: String,
    /// Per-request deadline in ticks.
    pub deadline_ticks: u64,
    /// Pages poisoned permanently before each faulty run.
    pub poisoned_pages: usize,
    /// Matrix cells: databases outer, then seeds, then profiles.
    pub cells: Vec<ChaosCell>,
}

/// Runs one serve pass: fresh tree, store wrapped in a [`FaultyStore`]
/// with `fault` (the reliable schedule for references),
/// [`CHAOS_POISONED_PAGES`] leaf pages poisoned permanently, sharded pool
/// on top. Returns the outcome plus the pool's give-up count.
fn run_once(
    dataset: &Dataset,
    streams: &[Vec<asb_workload::Request>],
    serve_cfg: &ServeConfig,
    fault: FaultConfig,
    poison: bool,
) -> Result<(ServeOutcome, u64)> {
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items())?;
    let capacity = serve_capacity(tree.page_count(), CHAOS_SHARDS);
    let poison_ids = if poison {
        tree.last_leaf_ids(CHAOS_POISONED_PAGES)?
    } else {
        Vec::new()
    };
    let snapshot = tree.snapshot();
    let store = FaultyStore::new(tree.into_store(), fault);
    for &id in &poison_ids {
        store.mark_permanent(id);
    }
    let pool = ShardedBuffer::new(store, CHAOS_POLICY, capacity, CHAOS_SHARDS);
    pool.reset_io_stats();
    let outcome = serve(&pool, &snapshot, streams, serve_cfg)?;
    let give_ups = pool.stats().give_ups;
    Ok((outcome, give_ups))
}

/// Audits every chaos response against the fault-free reference run:
/// exact responses must match bit-for-bit; degraded and deadline-exceeded
/// responses must be subsets (window: result multiset; join: count lower
/// bound; k-NN: no more results than the reference, ids from the real
/// object population). Returns the number of violations — 0 in a green
/// cell.
fn audit_responses(
    chaos: &ServeOutcome,
    reference: &ServeOutcome,
    valid_ids: &BTreeSet<u64>,
) -> u64 {
    let by_key: BTreeMap<(usize, usize), &crate::engine::Response> = reference
        .responses
        .iter()
        .map(|r| ((r.session, r.seq), r))
        .collect();
    let mut wrong = 0u64;
    for r in &chaos.responses {
        let Some(reference) = by_key.get(&(r.session, r.seq)) else {
            wrong += 1;
            continue;
        };
        let ok = match r.outcome {
            Outcome::Exact => r.results == reference.results,
            Outcome::Degraded | Outcome::DeadlineExceeded => {
                match r.kind {
                    // Both sides sorted: two-pointer multiset inclusion.
                    "window" => {
                        let mut it = reference.results.iter();
                        r.results.iter().all(|x| it.any(|y| y == x))
                    }
                    "join" => {
                        r.results.len() == 1
                            && reference.results.len() == 1
                            && r.results[0] <= reference.results[0]
                    }
                    "nearest" => {
                        r.results.len() <= reference.results.len()
                            && r.results.iter().all(|id| valid_ids.contains(id))
                    }
                    _ => false,
                }
            }
        };
        if !ok {
            wrong += 1;
        }
    }
    // Every reference request must have been answered — a vanished
    // response is as wrong as a fabricated one.
    wrong + (reference.responses.len() as u64).saturating_sub(chaos.responses.len() as u64)
}

/// Runs the chaos matrix: for every golden database and every
/// `seed × profile` cell, one fault-free reference run plus two identical
/// faulty runs (the determinism probe), each audited for wrong answers.
/// Nothing aborts: a cell's failures surface as counters in its
/// [`ChaosCell`], which [`check_chaos`] gates.
pub fn chaos_sweep(seeds: &[u64], profiles: &[FaultProfile]) -> Result<ChaosBench> {
    let mut cells = Vec::new();
    for (name, db) in GOLDEN_DBS {
        let dataset = Dataset::generate(db, Scale::Tiny, SERVE_BENCH_SEED);
        let valid_ids: BTreeSet<u64> = dataset.items().iter().map(|i| i.id).collect();
        for &seed in seeds {
            let streams =
                bench_sessions(&dataset, seed, CHAOS_SESSIONS, CHAOS_REQUESTS_PER_SESSION);
            let serve_cfg = ServeConfig {
                seed,
                deadline_ticks: CHAOS_DEADLINE_TICKS,
                ..ServeConfig::default()
            };
            let (reference, _) = run_once(
                &dataset,
                &streams,
                &serve_cfg,
                FaultConfig::reliable(),
                false,
            )?;
            for &(profile, schedule) in profiles {
                let fault = schedule(seed, CHAOS_FAULT_RATE);
                let (first, give_ups) = run_once(&dataset, &streams, &serve_cfg, fault, true)?;
                let (second, _) = run_once(&dataset, &streams, &serve_cfg, fault, true)?;
                let deterministic = first == second;
                let wrong_answers = audit_responses(&first, &reference, &valid_ids);
                let r = &first.report;
                cells.push(ChaosCell {
                    db: name.to_string(),
                    profile: profile.to_string(),
                    seed,
                    requests: r.requests,
                    exact: first
                        .responses
                        .iter()
                        .filter(|x| x.outcome == Outcome::Exact)
                        .count() as u64,
                    degraded: r.degraded_requests,
                    deadline_exceeded: r.deadline_exceeded,
                    quarantined_pages: r.quarantined_pages,
                    give_ups,
                    p50_ticks: r.p50_ticks,
                    p999_ticks: r.p999_ticks,
                    ref_p999_ticks: reference.report.p999_ticks,
                    wrong_answers,
                    deterministic,
                });
            }
        }
    }
    Ok(ChaosBench {
        sessions: CHAOS_SESSIONS,
        requests_per_session: CHAOS_REQUESTS_PER_SESSION,
        buffer_frac: SERVE_BENCH_BUFFER_FRAC,
        shards: CHAOS_SHARDS,
        fault_rate: CHAOS_FAULT_RATE,
        policy: CHAOS_POLICY.label().to_string(),
        deadline_ticks: CHAOS_DEADLINE_TICKS,
        poisoned_pages: CHAOS_POISONED_PAGES,
        cells,
    })
}

/// Runs [`chaos_sweep`] with the committed `BENCH_chaos.json` matrix:
/// [`CHAOS_SEEDS`] × [`CHAOS_FAULT_PROFILES`] on both golden databases.
pub fn default_chaos_bench() -> Result<ChaosBench> {
    chaos_sweep(&CHAOS_SEEDS, &CHAOS_FAULT_PROFILES)
}

/// The sweep's own invariants. Returns one human-readable violation per
/// failed check (empty = green), for every cell:
///
/// * every request completes (`sessions × requests_per_session` of the
///   header), and exact + degraded + deadline-exceeded partition them;
/// * zero wrong answers and bit-for-bit determinism;
/// * non-exact rate (degraded + deadline-exceeded) at most
///   [`DEGRADED_RATE_CEILING`];
/// * p999 at most [`P999_INFLATION_CEILING`] × the cell's fault-free
///   reference p999.
pub fn check_chaos(sweep: &ChaosBench) -> Vec<String> {
    let mut violations = Vec::new();
    let issued = (sweep.sessions * sweep.requests_per_session) as u64;
    for c in &sweep.cells {
        let key = format!("{}/{}/seed={}", c.db, c.profile, c.seed);
        if c.requests != issued {
            violations.push(format!(
                "{key}: {} of {issued} requests completed",
                c.requests
            ));
        }
        if c.exact + c.degraded + c.deadline_exceeded != c.requests {
            violations.push(format!(
                "{key}: exact {} + degraded {} + deadline {} do not partition {} requests",
                c.exact, c.degraded, c.deadline_exceeded, c.requests
            ));
        }
        if c.wrong_answers != 0 {
            violations.push(format!(
                "{key}: {} wrong answer(s) — degraded is allowed, incorrect is not",
                c.wrong_answers
            ));
        }
        if !c.deterministic {
            violations.push(format!("{key}: same-seed runs were not bit-for-bit equal"));
        }
        if c.requests > 0 {
            let non_exact = (c.degraded + c.deadline_exceeded) as f64 / c.requests as f64;
            if non_exact > DEGRADED_RATE_CEILING {
                violations.push(format!(
                    "{key}: non-exact rate {:.3} exceeds ceiling {:.3}",
                    non_exact, DEGRADED_RATE_CEILING
                ));
            }
        }
        let limit = c.ref_p999_ticks as f64 * P999_INFLATION_CEILING;
        if c.p999_ticks as f64 > limit {
            violations.push(format!(
                "{key}: p999 {} ticks exceeds {}x the fault-free reference ({} ticks)",
                c.p999_ticks, P999_INFLATION_CEILING, c.ref_p999_ticks
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const ISSUED: u64 = (CHAOS_SESSIONS * CHAOS_REQUESTS_PER_SESSION) as u64;

    fn cell(db: &str, profile: &str, seed: u64) -> ChaosCell {
        ChaosCell {
            db: db.into(),
            profile: profile.into(),
            seed,
            requests: ISSUED,
            exact: ISSUED - 10,
            degraded: 8,
            deadline_exceeded: 2,
            quarantined_pages: 2,
            give_ups: 5,
            p50_ticks: 50_000,
            p999_ticks: 400_000,
            ref_p999_ticks: 150_000,
            wrong_answers: 0,
            deterministic: true,
        }
    }

    fn bench_with(cells: Vec<ChaosCell>) -> ChaosBench {
        ChaosBench {
            sessions: CHAOS_SESSIONS,
            requests_per_session: CHAOS_REQUESTS_PER_SESSION,
            buffer_frac: SERVE_BENCH_BUFFER_FRAC,
            shards: CHAOS_SHARDS,
            fault_rate: CHAOS_FAULT_RATE,
            policy: CHAOS_POLICY.label(),
            deadline_ticks: CHAOS_DEADLINE_TICKS,
            poisoned_pages: CHAOS_POISONED_PAGES,
            cells,
        }
    }

    #[test]
    fn gate_passes_clean_cells_and_flags_each_failure_mode() {
        let clean = cell("mainland", "chaos", 7);
        assert!(check_chaos(&bench_with(vec![clean.clone()])).is_empty());
        let flags = |edit: &dyn Fn(&mut ChaosCell), needle: &str| {
            let mut c = clean.clone();
            edit(&mut c);
            let v = check_chaos(&bench_with(vec![c]));
            assert!(v.iter().any(|m| m.contains(needle)), "{needle}: {v:?}");
        };
        flags(
            &|c| {
                c.requests -= 1;
                c.exact -= 1;
            },
            "requests completed",
        );
        flags(&|c| c.exact -= 1, "do not partition");
        flags(&|c| c.wrong_answers = 3, "wrong answer");
        flags(&|c| c.deterministic = false, "bit-for-bit");
        flags(
            &|c| {
                c.degraded = ISSUED / 2 + 1;
                c.exact = ISSUED - c.degraded - c.deadline_exceeded;
            },
            "non-exact rate",
        );
        flags(&|c| c.p999_ticks = 150_000 * 31, "p999");
    }

    #[test]
    fn single_cell_sweep_is_green_and_deterministic() {
        let sweep = chaos_sweep(&[7], &[("chaos", FaultConfig::chaos)]).unwrap();
        assert_eq!(sweep.cells.len(), 2, "one cell per golden database");
        assert_eq!(check_chaos(&sweep), Vec::<String>::new());
    }
}
