//! Numeric arguments that no pool can honour are refused at parse time:
//! the binaries print `error: …` and exit 1 instead of panicking deep in
//! the buffer (exit 101) or silently running a different experiment.

use std::process::Command;

const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const PROBE: &str = env!("CARGO_BIN_EXE_probe");

fn golden_trace() -> String {
    format!(
        "{}/../../tests/golden/mainland.trace",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Runs `bin` with `args` and asserts the clean refusal.
fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{args:?}: no `error:` line in {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn trace_refuses_a_zero_capacity() {
    let trace = golden_trace();
    assert_refused(TRACE, &["replay", &trace, "--capacity", "0"]);
    assert_refused(TRACE, &["crash", &trace, "--capacity", "0"]);
}

#[test]
fn trace_refuses_a_shard_count_no_pool_can_have() {
    let trace = golden_trace();
    assert_refused(
        TRACE,
        &["replay", &trace, "--capacity", "3", "--shards", "5"],
    );
    assert_refused(TRACE, &["replay", &trace, "--shards", "0"]);
}

/// `FaultConfig` rates are probabilities: NaN used to fail `rate > 0.0` and
/// replay fault-free, and rates outside [0, 1] were taken as given.
#[test]
fn trace_refuses_a_fault_rate_outside_the_unit_interval() {
    let trace = golden_trace();
    for rate in ["NaN", "-0.5", "1.5", "inf"] {
        assert_refused(TRACE, &["replay", &trace, "--fault-rate", rate]);
    }
}

/// `--update-every 0` used to be clamped to 1 while the summary printed 0.
#[test]
fn trace_refuses_a_zero_update_interval() {
    assert_refused(TRACE, &["crash", &golden_trace(), "--update-every", "0"]);
}

#[test]
fn probe_refuses_a_buffer_fraction_outside_the_unit_interval() {
    for frac in ["1e30", "-1", "0", "NaN"] {
        assert_refused(PROBE, &["--scale", "tiny", "--frac", frac]);
    }
}

/// `BENCH_replacement.json` is written by its tier-1 test alone.
#[test]
fn probe_has_no_benchmark_writer() {
    assert_refused(PROBE, &["--bench-json", "x"]);
}

/// `probe` prints replays only; it runs no live multi-threaded pool.
#[test]
fn probe_has_no_sharded_live_run() {
    let out = Command::new(PROBE)
        .args(["--shards", "2"])
        .output()
        .expect("spawn binary");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "error: unknown argument --shards"
    );
}
