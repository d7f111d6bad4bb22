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
//! recorded trace, writes included, through a pool of M shards (default 1
//! — the sequential buffer, bit for bit) and prints the resulting
//! statistics, for a read-only trace with the misses of Belady's OPT at the
//! same capacity and `vs_opt`, the replay's misses minus OPT's; on one
//! shard also ASB's candidate-set range and, for the arena, the expert
//! scoreboard (each expert's ghost misses, also against OPT), and
//! `--weights PATH` (arena on one shard) dumps the full per-entry weight
//! trajectory as CSV (replays are deterministic, so the dump is bit-for-bit
//! reproducible).
//! `--fault-rate R` (a probability in [0, 1]; 0, the default, is
//! fault-free) injects chaos faults (transient faults, corruption, latency
//! spikes) below the same pool, under the default retry policy, and adds
//! one line of what was injected and absorbed. Every served page is checked
//! against the trace's disk image; a wrong payload exits non-zero.
//!
//! `crash` turns the trace into a deterministic read/update workload
//! (seed-derived update selection) on a WAL-attached write-back buffer,
//! then kills the simulated process at **every** durable I/O point — in
//! both clean and torn variants — and verifies that recovery restores
//! exactly the committed prefix of the crash-free run. Exits non-zero on
//! any divergence, dumping the trace and surviving WAL to `--artifacts`.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_exp::cli::{self, Args};
use asb_exp::{crash_sweep, CrashConfig, Trace};
use asb_storage::{AccessContext, FaultConfig, FaultyStore, PageOp, StorageError};
use asb_workload::{DatasetKind, PhasedWorkload, QuerySetSpec, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(|mut args| match args.next().as_deref() {
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
    })
}

fn record(mut args: Args) -> Result<(), String> {
    let mut out = None;
    let mut db = DatasetKind::Mainland;
    let mut scale = Scale::Tiny;
    let mut seed = 42u64;
    let mut set = QuerySetSpec::uniform_windows(33);
    let mut queries = 200usize;
    let mut phased = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value(&arg)?),
            "--phased" => phased = Some(args.positive(&arg)?),
            "--db" => db = args.db(&arg)?,
            "--scale" => scale = args.scale(&arg)?,
            "--seed" => seed = args.parse(&arg)?,
            "--set" => set = args.set(&arg)?,
            "--queries" => queries = args.positive(&arg)?,
            o => return Err(cli::unknown(o)),
        }
    }
    let out = out.ok_or("record needs --out PATH")?;
    let trace = if let Some(per_phase) = phased {
        let workload = PhasedWorkload::adversarial(per_phase);
        Trace::record_phased(db, scale, seed, &workload).map_err(|e| e.to_string())?
    } else {
        Trace::record(db, scale, seed, set, queries).map_err(|e| e.to_string())?
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

fn replay(mut args: Args) -> Result<(), String> {
    let mut path = None;
    let mut policy = PolicyKind::Asb;
    let mut capacity = 32usize;
    let mut shards = 1usize;
    let mut fault_seed = 1u64;
    let mut fault_rate = 0.0f64;
    let mut weights_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--weights" => weights_out = Some(args.value(&arg)?),
            "--policy" => policy = args.policy(&arg)?,
            "--capacity" => capacity = args.positive(&arg)?,
            "--shards" => shards = args.positive(&arg)?,
            "--fault-seed" => fault_seed = args.parse(&arg)?,
            "--fault-rate" => {
                fault_rate = args.parse(&arg)?;
                if !(0.0..=1.0).contains(&fault_rate) {
                    return Err(format!("--fault-rate must be in [0, 1], got {fault_rate}"));
                }
            }
            o if path.is_none() && !o.starts_with('-') => path = Some(arg),
            o => return Err(cli::unknown(o)),
        }
    }
    cli::check_shards(shards, capacity)?;
    let one_arena = shards == 1 && matches!(policy, PolicyKind::Arena | PolicyKind::ArenaWith(_));
    if weights_out.is_some() && !one_arena {
        let label = policy.label();
        let got = format!("--policy arena on one shard, got --policy {label} --shards {shards}");
        return Err(format!("--weights samples one arena: it needs {got}"));
    }
    let trace = load(path, "replay")?;
    let (faults, chaos) = if fault_rate > 0.0 {
        let chaos = format!(" faults=chaos(seed={fault_seed}, rate={fault_rate})");
        (FaultConfig::chaos(fault_seed, fault_rate), chaos)
    } else {
        (FaultConfig::reliable(), String::new())
    };
    // One pool for every replay. A reliable store passes the disk through
    // unchanged; one shard is the sequential buffer, bit for bit
    // (`tests/golden_trace.rs`), and the only pool with *a* trajectory,
    // sampled from the pool itself. Every served page is checked against
    // the payload the replay gave it.
    let disk = trace.build_disk().map_err(|e| e.to_string())?;
    let pool = ShardedBuffer::new(FaultyStore::new(disk, faults), policy, capacity, shards);
    let sole_arena = || {
        pool.per_shard(|shard| shard.policy().arena_state())
            .pop()
            .filter(|_| shards == 1)
            .flatten()
    };
    let mut candidates: Vec<usize> = Vec::new();
    let mut weights: Vec<Vec<f64>> = Vec::new();
    let mut wrong_payloads = 0u64;
    let step = |_, op| {
        let served = match op {
            PageOp::Read(id, q) => pool.fetch(id, AccessContext::query(q)).map(|page| {
                wrong_payloads += u64::from(page.payload != Trace::payload(id.raw()));
            }),
            PageOp::Write(id, meta) => Trace::page(id, meta).and_then(|page| pool.write(page)),
            PageOp::Alloc(id, meta) => (pool.allocate(meta, Trace::payload(id.raw())))
                .and_then(|replayed| Trace::check_alloc(id, replayed)),
            PageOp::Free(id) => pool.free(id),
        };
        match served {
            // A give-up: counted in the pool's statistics, the replay goes on.
            Err(StorageError::RetriesExhausted { .. } | StorageError::DeviceFailed(_)) => {}
            other => other?,
        }
        if shards == 1 {
            candidates.extend(pool.per_shard(|shard| shard.policy().candidate_size())[0]);
        }
        if weights_out.is_some() {
            weights.extend(sole_arena().map(|a| a.weights()));
        }
        Ok(())
    };
    trace.drive(step).map_err(|e| e.to_string())?;
    let (stats, io, arena) = (pool.stats(), pool.io_stats(), sole_arena());
    println!(
        "policy={policy:?} capacity={capacity} shards={shards}{chaos}\n\
         logical={} hits={} misses={} hit%={:.2} physical_reads={} random={} sequential={} sim_ms={:.1}",
        stats.logical_reads,
        stats.hits,
        stats.misses,
        100.0 * stats.hit_ratio(),
        io.reads,
        io.random_reads,
        io.sequential_reads,
        io.simulated_ms,
    );
    if fault_rate > 0.0 {
        let injected = pool
            .with_store(|s| s.fault_stats())
            .map_err(|e| e.to_string())?;
        println!(
            "retries={} corruptions={} give_ups={} wrong_payloads={wrong_payloads} \
             injected: read_faults={} write_faults={} corruptions={} spikes={}",
            stats.retries,
            stats.corruptions,
            stats.give_ups,
            injected.read_faults,
            injected.write_faults,
            injected.corruptions,
            injected.latency_spikes,
        );
    }
    // OPT models reads only.
    let opt = trace.opt_misses(capacity).ok().map(|opt| opt as i64);
    if let Some(opt) = opt {
        println!("opt_misses={opt} vs_opt={}", stats.misses as i64 - opt);
    }
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
            let vs_opt = opt.map_or(String::new(), |opt| {
                format!(" vs_opt={}", e.ghost_misses as i64 - opt)
            });
            println!(
                "  expert {:<8} weight={:.4} ghost_misses={} ghost_len={}{vs_opt}",
                e.label, e.weight, e.ghost_misses, e.ghost_len
            );
        }
    }
    if let (Some(path), Some(arena)) = (weights_out, arena) {
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
    if wrong_payloads > 0 {
        return Err(format!("{wrong_payloads} wrong payload(s) served"));
    }
    Ok(())
}

fn crash(mut args: Args) -> Result<(), String> {
    let mut path = None;
    let mut config = CrashConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => config.policy = args.policy(&arg)?,
            "--capacity" => config.capacity = args.positive(&arg)?,
            "--seed" => config.seed = args.parse(&arg)?,
            "--update-every" => config.update_every = args.positive(&arg)? as u64,
            "--checkpoint-interval" => config.checkpoint_interval = args.parse(&arg)?,
            "--max-accesses" => config.max_accesses = Some(args.positive(&arg)?),
            "--artifacts" => config.artifact_dir = Some(args.value(&arg)?.into()),
            o if path.is_none() && !o.starts_with('-') => path = Some(arg),
            o => return Err(cli::unknown(o)),
        }
    }
    let trace = load(path, "crash")?;
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

/// Loads the trace at `path`, the one positional argument of `sub`.
fn load(path: Option<String>, sub: &str) -> Result<Trace, String> {
    let path = path.ok_or(format!("{sub} needs a trace file path"))?;
    let trace = Trace::load(&path)?;
    eprintln!(
        "# {path}: {} ({} pages, {} accesses)",
        trace.label,
        trace.pages.len(),
        trace.accesses.len()
    );
    Ok(trace)
}
