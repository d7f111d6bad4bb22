//! `serve` — the batched multi-session serving front end.
//!
//! ```text
//! serve run   [--db 1|2] [--policy NAME] [--sessions N]
//!             [--requests N] [--capacity N] [--shards N] [--seed N]
//! serve bench --json PATH
//! serve chaos --json PATH
//! ```
//!
//! `run` serves one seeded multi-session workload and prints the latency
//! percentiles, throughput and hit rate — the interactive way to poke at
//! a configuration. `--policy NAME` takes what `PolicyKind::from_name`
//! accepts (`lru`, `lru-2`, `a`, `slru`, `asb`, `arena`, …).
//!
//! `bench --json PATH` runs the full deterministic serving benchmark
//! (LRU/ASB/ARENA on both golden databases) and writes it as JSON — this
//! regenerates the repo's committed `BENCH_serve.json` byte-for-byte.
//!
//! `chaos --json PATH` runs the chaos matrix (4 seeds × 4 fault profiles
//! on both golden databases over a `FaultyStore`) and writes
//! `BENCH_chaos.json` byte-for-byte.
//!
//! Both committed files are held current by tier-1 tests
//! (`committed_serve_bench_is_current`, `committed_chaos_bench_is_current`):
//! after an intentional change, rerun the writer, commit the file and say
//! why the numbers moved.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_rtree::RTree;
use asb_serve::{
    bench_sessions, default_chaos_bench, default_serve_bench, serve, ServeConfig,
    SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_REQUESTS, SERVE_BENCH_SEED, SERVE_BENCH_SESSIONS,
    SERVE_BENCH_SHARDS,
};
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some("bench") => bench(args),
        Some("chaos") => chaos(args),
        Some(o) => {
            eprintln!("error: unknown command {o} (expected `run`, `bench` or `chaos`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: serve run [options] | serve bench --json PATH | serve chaos --json PATH"
            );
            ExitCode::FAILURE
        }
    }
}

/// Parses `--json PATH` for the bench-style commands.
fn json_arg(mut it: impl Iterator<Item = String>) -> Result<String, String> {
    let mut json: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = Some(it.next().ok_or("--json needs a value")?),
            o => return Err(format!("unknown argument {o}")),
        }
    }
    json.ok_or_else(|| "requires --json PATH".to_string())
}

fn run(mut it: impl Iterator<Item = String>) -> ExitCode {
    let mut db = DatasetKind::Mainland;
    let mut policy = PolicyKind::Arena;
    let mut sessions = SERVE_BENCH_SESSIONS;
    let mut requests = SERVE_BENCH_REQUESTS;
    // 0 = auto: the benchmark's buffer fraction of the tree's page count.
    let mut capacity = 0usize;
    let mut shards = SERVE_BENCH_SHARDS;
    let mut seed = SERVE_BENCH_SEED;
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--db" => {
                    db = match next()?.as_str() {
                        "1" => DatasetKind::Mainland,
                        "2" => DatasetKind::World,
                        o => return Err(format!("unknown db {o}")),
                    }
                }
                "--policy" => {
                    let v = next()?;
                    policy = PolicyKind::from_name(&v).ok_or(format!("unknown policy {v}"))?;
                }
                "--sessions" => sessions = next()?.parse().map_err(|e| format!("{e}"))?,
                "--requests" => requests = next()?.parse().map_err(|e| format!("{e}"))?,
                "--capacity" => capacity = next()?.parse().map_err(|e| format!("{e}"))?,
                "--shards" => shards = next()?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => seed = next()?.parse().map_err(|e| format!("{e}"))?,
                o => return Err(format!("unknown argument {o}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if sessions == 0 || requests == 0 || shards == 0 {
        eprintln!("error: --sessions/--requests/--shards must be at least 1");
        return ExitCode::FAILURE;
    }

    let dataset = Dataset::generate(db, Scale::Tiny, seed);
    let streams = bench_sessions(&dataset, seed, sessions, requests);
    let tree = match RTree::bulk_load(DiskManager::new(), dataset.items()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: bulk load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pages = tree.page_count();
    if capacity == 0 {
        capacity = ((pages as f64 * SERVE_BENCH_BUFFER_FRAC).round() as usize).max(2 * shards);
    }
    let snapshot = tree.snapshot();
    let pool = ShardedBuffer::new(tree.into_store(), policy, capacity, shards);
    pool.reset_io_stats();
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let outcome = match serve(&pool, &snapshot, &streams, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &outcome.report;
    println!(
        "# db={db:?} policy={} sessions={sessions} requests/session={requests} \
         tree_pages={pages} capacity={capacity} shards={shards} seed={seed}",
        policy.label()
    );
    println!(
        "requests={} rounds={} batched_pages={} duration={:.1}ms",
        r.requests,
        r.rounds,
        r.batched_pages,
        r.duration_ticks as f64 / 1e3
    );
    println!(
        "latency p50={} p99={} p999={} ticks (1 tick = 1 simulated us)",
        r.p50_ticks, r.p99_ticks, r.p999_ticks
    );
    println!(
        "throughput={:.0} req/s hit_rate={:.1}%",
        r.throughput_rps,
        100.0 * r.hit_rate
    );
    println!(
        "degraded={} deadline_exceeded={} breaker_opens={} quarantined_pages={}",
        r.degraded_requests, r.deadline_exceeded, r.breaker_opens, r.quarantined_pages
    );
    ExitCode::SUCCESS
}

/// `bench` and `chaos`: runs `run`, writes its result to the `--json` path
/// as pretty JSON plus a newline — byte for byte what the tier-1 currency
/// tests regenerate — and prints one summary line per row.
fn write_json<T: serde::Serialize>(
    command: &str,
    it: impl Iterator<Item = String>,
    run: fn() -> asb_storage::Result<T>,
    print_rows: fn(&T),
) -> ExitCode {
    let written = json_arg(it).and_then(|path| {
        let result = run().map_err(|e| format!("failed: {e}"))?;
        let out = serde_json::to_string_pretty(&result).expect("serialize");
        std::fs::write(&path, out + "\n").map_err(|e| format!("{path}: {e}"))?;
        print_rows(&result);
        println!("# wrote {path}");
        Ok(())
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {command} {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(it: impl Iterator<Item = String>) -> ExitCode {
    write_json("bench", it, default_serve_bench, |bench| {
        for e in &bench.entries {
            println!(
                "# serve {}/{:<6} p50={:<6} p99={:<6} p999={:<6} rps={:<8.0} hit%={:.1}",
                e.db,
                e.policy,
                e.p50_ticks,
                e.p99_ticks,
                e.p999_ticks,
                e.throughput_rps,
                100.0 * e.hit_rate,
            );
        }
    })
}

fn chaos(it: impl Iterator<Item = String>) -> ExitCode {
    write_json("chaos", it, default_chaos_bench, |sweep| {
        for c in &sweep.cells {
            println!(
                "# chaos {}/{:<10} seed={:<6} exact={:<3} degraded={:<3} deadline={:<3} \
                 breaker_opens={:<2} quarantined={:<2} p999={} (ref {}) wrong={} det={}",
                c.db,
                c.profile,
                c.seed,
                c.exact,
                c.degraded,
                c.deadline_exceeded,
                c.breaker_opens,
                c.quarantined_pages,
                c.p999_ticks,
                c.ref_p999_ticks,
                c.wrong_answers,
                c.deterministic,
            );
        }
    })
}
