//! `serve` — the batched multi-session serving front end.
//!
//! ```text
//! serve run [--db 1|2] [--policy NAME] [--sessions N]
//!           [--requests N] [--capacity N] [--shards N] [--seed N]
//! ```
//!
//! `run` serves one seeded multi-session workload and prints the latency
//! percentiles, throughput and hit rate — the interactive way to poke at
//! a configuration. `--policy NAME` takes what `PolicyKind::from_name`
//! accepts (`lru`, `lru-2`, `a`, `slru`, `asb`, `arena`, …). A pool that
//! cannot exist (`--shards 0`, or fewer `--capacity` pages than shards) is
//! refused with an `error:` line and exit status 1.
//!
//! The committed `BENCH_serve.json` and `BENCH_chaos.json` have one writer,
//! the tier-1 tests that hold them current: re-bless them with
//! `ASB_BLESS_GOLDEN=1 cargo test --test golden_trace -- --test-threads 1`.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_rtree::RTree;
use asb_serve::{
    bench_sessions, serve, ServeConfig, SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_REQUESTS,
    SERVE_BENCH_SEED, SERVE_BENCH_SESSIONS, SERVE_BENCH_SHARDS,
};
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some(o) => {
            eprintln!("error: unknown command {o} (expected `run`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: serve run [options]");
            ExitCode::FAILURE
        }
    }
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
    if capacity != 0 && capacity < shards {
        eprintln!(
            "error: --shards ({shards}) must not exceed --capacity ({capacity}): \
             every shard needs a page"
        );
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
