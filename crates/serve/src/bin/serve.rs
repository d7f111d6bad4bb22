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
//! accepts (`lru`, `lru-2`, `a`, `slru`, `asb`, `arena`, …). Counts must be
//! at least 1, and a pool that cannot exist (fewer `--capacity` pages than
//! shards) is refused, with an `error:` line and exit status 1.
//!
//! The committed `BENCH_serve.json` and `BENCH_chaos.json` have one writer,
//! the tier-1 tests that hold them current: re-bless them with
//! `ASB_BLESS_GOLDEN=1 cargo test --test golden_trace -- --test-threads 1`.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_exp::cli::{self, Args};
use asb_rtree::RTree;
use asb_serve::{
    bench_sessions, serve, serve_capacity, ServeConfig, SERVE_BENCH_REQUESTS, SERVE_BENCH_SEED,
    SERVE_BENCH_SESSIONS, SERVE_BENCH_SHARDS,
};
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(|mut args| match args.next().as_deref() {
        Some("run") => run(args),
        Some(o) => Err(format!("unknown command {o} (expected `run`)")),
        None => Err("usage: serve run [options]".into()),
    })
}

fn run(mut args: Args) -> Result<(), String> {
    let mut db = DatasetKind::Mainland;
    let mut policy = PolicyKind::Arena;
    let mut sessions = SERVE_BENCH_SESSIONS;
    let mut requests = SERVE_BENCH_REQUESTS;
    // None: the benchmark's buffer fraction of the tree's page count.
    let mut capacity = None;
    let mut shards = SERVE_BENCH_SHARDS;
    let mut seed = SERVE_BENCH_SEED;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--db" => db = args.db(&arg)?,
            "--policy" => policy = args.policy(&arg)?,
            "--sessions" => sessions = args.positive(&arg)?,
            "--requests" => requests = args.positive(&arg)?,
            "--capacity" => capacity = Some(args.positive(&arg)?),
            "--shards" => shards = args.positive(&arg)?,
            "--seed" => seed = args.parse(&arg)?,
            o => return Err(cli::unknown(o)),
        }
    }

    let dataset = Dataset::generate(db, Scale::Tiny, seed);
    let streams = bench_sessions(&dataset, seed, sessions, requests);
    let tree = RTree::bulk_load(DiskManager::new(), dataset.items())
        .map_err(|e| format!("bulk load failed: {e}"))?;
    let pages = tree.page_count();
    let capacity = capacity.unwrap_or_else(|| serve_capacity(pages, shards));
    cli::check_shards(shards, capacity)?;
    let snapshot = tree.snapshot();
    let pool = ShardedBuffer::new(tree.into_store(), policy, capacity, shards);
    pool.reset_io_stats();
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let outcome =
        serve(&pool, &snapshot, &streams, &cfg).map_err(|e| format!("serve loop failed: {e}"))?;
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
        "degraded={} deadline_exceeded={} quarantined_pages={}",
        r.degraded_requests, r.deadline_exceeded, r.quarantined_pages
    );
    Ok(())
}
