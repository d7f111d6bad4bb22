//! `serve` refuses what it cannot run: a pool with fewer pages than shards,
//! and the benchmark writers it no longer has (the committed `BENCH_*.json`
//! files are written by the tier-1 tests alone). Each prints `error: …` and
//! exits 1 instead of panicking in the buffer (exit 101).

use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// Runs `serve` with `args` and asserts the clean refusal.
fn assert_refused(args: &[&str]) {
    let out = Command::new(SERVE)
        .args(args)
        .output()
        .expect("spawn serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{args:?}: no `error:` line in {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn run_refuses_more_shards_than_pages() {
    assert_refused(&["run", "--capacity", "1", "--shards", "4"]);
    assert_refused(&["run", "--shards", "0"]);
}

#[test]
fn the_benchmark_writers_are_gone() {
    assert_refused(&["bench", "--json", "x"]);
    assert_refused(&["chaos", "--json", "x"]);
}
