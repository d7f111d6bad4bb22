//! `serve` refuses what it cannot run: a zero count, a pool with fewer
//! pages than shards, a flag it cannot read, and the benchmark writers it
//! no longer has (the committed `BENCH_*.json` files are written by the
//! tier-1 tests alone). Each prints `error: …` and exits 1 instead of
//! panicking in the buffer (exit 101).

use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// Runs `serve` with `args` and asserts the clean refusal, with an
/// `error:` line that contains `says`.
fn assert_refused(args: &[&str], says: &str) {
    let out = Command::new(SERVE)
        .args(args)
        .output()
        .expect("spawn serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was {stderr}");
    let said = |l: &str| l.starts_with("error: ") && l.contains(says);
    assert!(stderr.lines().any(said), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn run_refuses_more_shards_than_pages() {
    let args = ["run", "--capacity", "1", "--shards", "4"];
    assert_refused(&args, "every shard needs a page");
    for flag in ["--sessions", "--requests", "--capacity", "--shards"] {
        assert_refused(&["run", flag, "0"], &format!("{flag} must be at least 1"));
    }
}

#[test]
fn run_refuses_a_flag_it_cannot_read() {
    assert_refused(&["run", "--seed"], "--seed needs a value");
    assert_refused(&["run", "--sessions", "x"], r#"bad --sessions "x": "#);
    assert_refused(&["run", "--db", "3"], "unknown db 3");
}

#[test]
fn the_benchmark_writers_are_gone() {
    assert_refused(&["bench", "--json", "x"], "unknown command bench");
    assert_refused(&["chaos", "--json", "x"], "unknown command chaos");
}
