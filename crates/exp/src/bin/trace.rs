//! `trace` — record and replay access traces.
//!
//! ```text
//! trace record --out PATH [--db 1|2] [--scale tiny|small|medium|large|paper]
//!              [--seed S] [--set NAME] [--queries N] [--phased N]
//! trace replay PATH [--policy NAME] [--capacity N]
//!              [--shards M] [--fault-seed S] [--fault-rate R] [--weights PATH]
//! trace crash PATH [--policy NAME] [--capacity N] [--seed S]
//!             [--update-every K] [--checkpoint-interval N]
//!             [--max-accesses N] [--artifacts DIR]
//! ```
//!
//! `--policy NAME` is anything `PolicyKind::from_name` accepts: a figure
//! label in any case (`lru`, `lru-t`, `2q`, `a`, `asb`, `arena`, …),
//! `lru-<k>`, or `slru` for SLRU 25 %.
//!
//! `record` runs one workload unbuffered and writes its logical access
//! sequence; `--phased N` records the adversarial phase-change workload
//! (N queries per phase) instead of a single query set. `replay` pushes a
//! recorded trace through a pool of M shards (default 1 — the sequential
//! buffer, bit for bit) and prints the resulting statistics; on one shard
//! also ASB's candidate-set range and, for the arena, the expert
//! scoreboard, and `--weights PATH` dumps the full per-access weight
//! trajectory as CSV (replays are deterministic, so the dump is bit-for-bit
//! reproducible).
//! With `--fault-rate R` (a probability in [0, 1]; 0, the default, replays
//! fault-free) the replay runs against a fault-injecting store
//! (chaos profile: transient faults, corruption, latency spikes) under
//! the default retry policy and additionally reports what was injected
//! and absorbed.
//!
//! `crash` turns the trace into a deterministic read/update workload
//! (seed-derived update selection) on a WAL-attached write-back buffer,
//! then kills the simulated process at **every** durable I/O point — in
//! both clean and torn variants — and verifies that recovery restores
//! exactly the committed prefix of the crash-free run. Exits non-zero on
//! any divergence, dumping the trace and surviving WAL to `--artifacts`.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_exp::{crash_sweep, CrashConfig, Trace};
use asb_storage::{FaultConfig, RetryPolicy};
use asb_workload::{DatasetKind, PhasedWorkload, QuerySetSpec, Scale};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("record") => record(args),
        Some("replay") => replay(args),
        Some("crash") => crash(args),
        Some("--help") | Some("-h") | None => {
            println!(
                "trace — record and replay access traces\n\n\
                 Usage:\n  trace record --out PATH [--db 1|2] [--scale NAME] [--seed S] \
                 [--set NAME] [--queries N]\n  trace replay PATH [--policy NAME] \
                 [--capacity N] [--shards M] [--fault-seed S] [--fault-rate R]\n  \
                 trace crash PATH [--policy NAME] [--capacity N] [--seed S] \
                 [--update-every K] [--checkpoint-interval N] [--max-accesses N] \
                 [--artifacts DIR]"
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?} (try --help)")),
    }
}

fn record(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut out = None;
    let mut db = DatasetKind::Mainland;
    let mut scale = Scale::Tiny;
    let mut seed = 42u64;
    let mut set = "U-W-33".to_string();
    let mut queries = 200usize;
    let mut phased = None;
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => out = Some(next()?),
            "--phased" => {
                phased = Some(
                    next()?
                        .parse::<usize>()
                        .map_err(|e| format!("bad phase size: {e}"))?,
                );
            }
            "--db" => {
                db = match next()?.as_str() {
                    "1" => DatasetKind::Mainland,
                    "2" => DatasetKind::World,
                    o => return Err(format!("unknown db {o}")),
                }
            }
            "--scale" => {
                let v = next()?;
                scale = Scale::from_name(&v).ok_or(format!("unknown scale {v}"))?;
            }
            "--seed" => seed = next()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--set" => set = next()?,
            "--queries" => {
                queries = next()?.parse().map_err(|e| format!("bad count: {e}"))?;
            }
            o => return Err(format!("unknown argument {o}")),
        }
    }
    let out = out.ok_or("record needs --out PATH")?;
    let trace = if let Some(per_phase) = phased {
        let workload = PhasedWorkload::adversarial(per_phase);
        Trace::record_phased(db, scale, seed, &workload).map_err(|e| e.to_string())?
    } else {
        let spec = QuerySetSpec::from_name(&set).ok_or(format!("unknown query set {set}"))?;
        Trace::record(db, scale, seed, spec, queries).map_err(|e| e.to_string())?
    };
    trace.save(&out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "# recorded {} accesses over {} pages ({}) to {out}",
        trace.accesses.len(),
        trace.pages.len(),
        trace.label
    );
    Ok(())
}

fn replay(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut path = None;
    let mut policy = PolicyKind::Asb;
    let mut capacity = 32usize;
    let mut shards = 1usize;
    let mut fault_seed = 1u64;
    let mut fault_rate = 0.0f64;
    let mut weights_out: Option<String> = None;
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--weights" => weights_out = Some(next()?),
            "--policy" => {
                let v = next()?;
                policy = PolicyKind::from_name(&v).ok_or(format!("unknown policy {v}"))?;
            }
            "--capacity" => capacity = parse_capacity(&next()?)?,
            "--shards" => {
                shards = next()?.parse().map_err(|e| format!("bad shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--fault-seed" => {
                fault_seed = next()?.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--fault-rate" => {
                fault_rate = next()?.parse().map_err(|e| format!("bad rate: {e}"))?;
                if !(0.0..=1.0).contains(&fault_rate) {
                    return Err(format!("--fault-rate must be in [0, 1], got {fault_rate}"));
                }
            }
            o if path.is_none() && !o.starts_with('-') => path = Some(arg),
            o => return Err(format!("unknown argument {o}")),
        }
    }
    if shards > capacity {
        return Err(format!(
            "--shards ({shards}) must not exceed --capacity ({capacity}): every shard needs a page"
        ));
    }
    let path = path.ok_or("replay needs a trace file path")?;
    let trace = Trace::load(&path)?;
    eprintln!(
        "# {path}: {} ({} pages, {} accesses)",
        trace.label,
        trace.pages.len(),
        trace.accesses.len()
    );
    if fault_rate > 0.0 {
        let out = trace
            .replay_with_faults(
                policy,
                capacity,
                FaultConfig::chaos(fault_seed, fault_rate),
                RetryPolicy::default(),
            )
            .map_err(|e| e.to_string())?;
        println!(
            "policy={policy:?} capacity={capacity} faults=chaos(seed={fault_seed}, rate={fault_rate})\n\
             logical={} hits={} misses={} retries={} corruptions={} give_ups={} wrong_payloads={}\n\
             injected: read_faults={} write_faults={} corruptions={} spikes={}",
            out.stats.logical_reads,
            out.stats.hits,
            out.stats.misses,
            out.stats.retries,
            out.stats.corruptions,
            out.give_ups,
            out.wrong_payloads,
            out.fault_stats.read_faults,
            out.fault_stats.write_faults,
            out.fault_stats.corruptions,
            out.fault_stats.latency_spikes,
        );
        return Ok(());
    }
    // One shard is the sequential buffer, bit for bit (`tests/golden_trace.rs`),
    // and the only pool with *a* trajectory: several shards adapt and mix
    // each on its own. The trajectories are sampled here, from the replay's
    // own pool: the candidate-set size after every access, the arena weights
    // only when a dump was asked for.
    let disk = trace.build_disk().map_err(|e| e.to_string())?;
    let pool = ShardedBuffer::new(disk, policy, capacity, shards);
    let sole_arena = || {
        pool.shard_arena_states()
            .pop()
            .filter(|_| shards == 1)
            .flatten()
    };
    let mut candidates: Vec<usize> = Vec::new();
    let mut weights: Vec<Vec<f64>> = Vec::new();
    let step = |_, id, ctx| {
        drop(pool.fetch(id, ctx)?);
        if shards == 1 {
            candidates.extend(pool.shard_candidate_sizes()[0]);
        }
        if weights_out.is_some() {
            weights.extend(sole_arena().map(|a| a.weights()));
        }
        Ok(())
    };
    trace.drive(step).map_err(|e| e.to_string())?;
    let (stats, io, arena) = (pool.stats(), pool.io_stats(), sole_arena());
    println!(
        "policy={policy:?} capacity={capacity} shards={}\n\
         logical={} hits={} misses={} hit%={:.2} physical_reads={} random={} sequential={} sim_ms={:.1}",
        shards,
        stats.logical_reads,
        stats.hits,
        stats.misses,
        100.0 * stats.hit_ratio(),
        io.reads,
        io.random_reads,
        io.sequential_reads,
        io.simulated_ms,
    );
    if let Some(&last) = candidates.last() {
        let max = candidates.iter().max().copied().unwrap_or(0);
        let min = candidates.iter().min().copied().unwrap_or(0);
        println!("candidate set: final={last} min={min} max={max}");
    }
    if let Some(arena) = &arena {
        println!(
            "arena: leader={} switches={} regret={} best_expert_misses={}",
            arena.experts[arena.leader].label,
            arena.switches,
            arena.regret(),
            arena.best_expert_misses(),
        );
        for e in &arena.experts {
            println!(
                "  expert {:<8} weight={:.4} ghost_misses={} ghost_len={}",
                e.label, e.weight, e.ghost_misses, e.ghost_len
            );
        }
    }
    if let Some(path) = weights_out {
        let Some(arena) = arena.filter(|_| !weights.is_empty()) else {
            return Err(format!("--weights needs an arena replay, got {policy:?}"));
        };
        let labels: Vec<&str> = arena.experts.iter().map(|e| e.label.as_str()).collect();
        let mut csv = format!("access,{}\n", labels.join(","));
        for (i, row) in weights.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|w| format!("{w}")).collect();
            csv.push_str(&format!("{i},{}\n", cells.join(",")));
        }
        std::fs::write(&path, csv).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "# wrote {} weight rows ({} experts) to {path}",
            weights.len(),
            labels.len()
        );
    }
    Ok(())
}

fn crash(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut path = None;
    let mut config = CrashConfig::default();
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--policy" => {
                let v = next()?;
                config.policy = PolicyKind::from_name(&v).ok_or(format!("unknown policy {v}"))?;
            }
            "--capacity" => config.capacity = parse_capacity(&next()?)?,
            "--seed" => config.seed = next()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--update-every" => {
                config.update_every = next()?.parse().map_err(|e| format!("bad count: {e}"))?;
            }
            "--checkpoint-interval" => {
                config.checkpoint_interval =
                    next()?.parse().map_err(|e| format!("bad interval: {e}"))?;
            }
            "--max-accesses" => {
                config.max_accesses = Some(next()?.parse().map_err(|e| format!("bad count: {e}"))?);
            }
            "--artifacts" => config.artifact_dir = Some(next()?.into()),
            o if path.is_none() && !o.starts_with('-') => path = Some(arg),
            o => return Err(format!("unknown argument {o}")),
        }
    }
    let path = path.ok_or("crash needs a trace file path")?;
    let trace = Trace::load(&path)?;
    eprintln!(
        "# {path}: {} ({} pages, {} accesses)",
        trace.label,
        trace.pages.len(),
        trace.accesses.len()
    );
    let report = crash_sweep(&trace, &config).map_err(|e| e.to_string())?;
    println!(
        "policy={:?} capacity={} seed={} update_every={} checkpoint_interval={}\n\
         crash_points={} sweeps={} updates={} checkpoints={} torn_tails_dropped={} images_redone={}",
        config.policy,
        config.capacity,
        config.seed,
        config.update_every,
        config.checkpoint_interval,
        report.crash_points,
        report.sweeps_run,
        report.updates,
        report.checkpoints,
        report.torn_tails_dropped,
        report.images_redone,
    );
    if report.holds() {
        println!("recovery == committed prefix at every crash point: OK");
        Ok(())
    } else {
        for d in report.divergences.iter().take(10) {
            eprintln!("DIVERGENCE {d}");
        }
        Err(format!(
            "{} of {} crash points diverged from the committed prefix",
            report.divergences.len(),
            report.sweeps_run
        ))
    }
}

/// Parses a buffer capacity in pages, which must be at least one.
fn parse_capacity(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) => Err("--capacity must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("bad capacity: {e}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
