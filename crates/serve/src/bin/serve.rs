//! `serve` — the batched multi-session serving front end.
//!
//! ```text
//! serve run   [--db 1|2] [--policy NAME] [--sessions N]
//!             [--requests N] [--capacity N] [--shards N] [--seed N]
//! serve bench --json PATH [--check BASELINE]
//! serve chaos --json PATH [--check BASELINE]
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
//! With `--check BASELINE` the fresh run is additionally gated against a
//! committed baseline: any p99 more than 5 % over the baseline (or any
//! missing/incomparable row) prints a violation and exits non-zero.
//!
//! `chaos --json PATH` runs the chaos matrix (4 seeds × 4 fault profiles
//! on both golden databases over a `FaultyStore`) and writes
//! `BENCH_chaos.json` byte-for-byte. With `--check BASELINE` the sweep is
//! gated: wrong answers, lost determinism, a non-exact rate over the
//! ceiling or unbounded p999 inflation fail the gate.
//!
//! Exit codes for both gates: 0 = pass, 1 = gate violation, 2 = the
//! baseline itself is unusable (unreadable/malformed JSON, or missing a
//! row/cell the current run produced — regenerate and commit it).

use asb_core::{PolicyKind, ShardedBuffer};
use asb_rtree::RTree;
use asb_serve::{
    bench_sessions, check_chaos, check_regression, default_chaos_bench, default_serve_bench,
    missing_baseline_rows, missing_chaos_cells, serve, ChaosBench, ServeBench, ServeConfig,
    P99_TOLERANCE, SERVE_BENCH_BUFFER_FRAC, SERVE_BENCH_REQUESTS, SERVE_BENCH_SEED,
    SERVE_BENCH_SESSIONS, SERVE_BENCH_SHARDS,
};
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, Scale};
use std::process::ExitCode;

/// Exit status for an unusable baseline (vs 1 for a genuine gate
/// failure): unreadable or malformed JSON, or a baseline missing keys the
/// current run produced.
const EXIT_BAD_BASELINE: u8 = 2;

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
                "usage: serve run [options] | serve bench --json PATH [--check BASELINE] \
                 | serve chaos --json PATH [--check BASELINE]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Parses `--json PATH [--check BASELINE]` for the bench-style commands.
fn json_check_args(
    mut it: impl Iterator<Item = String>,
) -> Result<(String, Option<String>), String> {
    let mut json: Option<String> = None;
    let mut check: Option<String> = None;
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--json" => json = Some(next()?),
            "--check" => check = Some(next()?),
            o => return Err(format!("unknown argument {o}")),
        }
    }
    let json = json.ok_or_else(|| "requires --json PATH".to_string())?;
    Ok((json, check))
}

/// Loads and parses a committed baseline, mapping every failure to a
/// message naming the path (the caller exits with
/// [`EXIT_BAD_BASELINE`]). A serde error names the missing key.
fn load_baseline<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
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

fn bench(it: impl Iterator<Item = String>) -> ExitCode {
    let (path, check) = match json_check_args(it) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bench {e}");
            return ExitCode::FAILURE;
        }
    };

    let bench = match default_serve_bench() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = serde_json::to_string_pretty(&bench).expect("serialize benchmark");
    if let Err(e) = std::fs::write(&path, out + "\n") {
        eprintln!("error: {path}: {e}");
        return ExitCode::FAILURE;
    }
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
    println!("# wrote {path}");

    if let Some(baseline_path) = check {
        let baseline: ServeBench = match load_baseline(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: baseline unusable: {e}");
                return ExitCode::from(EXIT_BAD_BASELINE);
            }
        };
        let missing = missing_baseline_rows(&bench, &baseline);
        if !missing.is_empty() {
            for m in &missing {
                eprintln!("stale baseline: {m}");
            }
            eprintln!("regenerate with: serve bench --json {baseline_path}");
            return ExitCode::from(EXIT_BAD_BASELINE);
        }
        let violations = check_regression(&bench, &baseline, P99_TOLERANCE);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("regression: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("# regression gate passed against {baseline_path}");
    }
    ExitCode::SUCCESS
}

fn chaos(it: impl Iterator<Item = String>) -> ExitCode {
    let (path, check) = match json_check_args(it) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: chaos {e}");
            return ExitCode::FAILURE;
        }
    };

    let sweep = match default_chaos_bench() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: chaos sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = serde_json::to_string_pretty(&sweep).expect("serialize sweep");
    if let Err(e) = std::fs::write(&path, out + "\n") {
        eprintln!("error: {path}: {e}");
        return ExitCode::FAILURE;
    }
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
    println!("# wrote {path}");

    if let Some(baseline_path) = check {
        let baseline: ChaosBench = match load_baseline(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: baseline unusable: {e}");
                return ExitCode::from(EXIT_BAD_BASELINE);
            }
        };
        let missing = missing_chaos_cells(&sweep, &baseline);
        if !missing.is_empty() {
            for m in &missing {
                eprintln!("stale baseline: {m}");
            }
            eprintln!("regenerate with: serve chaos --json {baseline_path}");
            return ExitCode::from(EXIT_BAD_BASELINE);
        }
        let violations = check_chaos(&sweep, &baseline);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("chaos gate: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("# chaos gate passed against {baseline_path}");
    }
    ExitCode::SUCCESS
}
