//! Numeric arguments that no pool can honour are refused at parse time:
//! the binaries print `error: …` and exit 1 instead of panicking deep in
//! the buffer (exit 101) or silently running a different experiment.

use asb_core::PolicyKind;
use asb_exp::{moving_churn, Trace};
use asb_rtree::RTree;
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, QuerySetSpec, Scale};
use std::process::Command;

const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const PROBE: &str = env!("CARGO_BIN_EXE_probe");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn golden(name: &str) -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    format!("{dir}/../../tests/golden/{name}.trace")
}

/// Runs `bin` with `args` and asserts the clean refusal, with an `error:`
/// line that contains `says`.
fn assert_refused(bin: &str, args: &[&str], says: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was {stderr}");
    let said = |l: &str| l.starts_with("error: ") && l.contains(says);
    assert!(stderr.lines().any(said), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// The refusals of the shared flag reader, in every binary that takes the
/// flag: a missing value, an unparsable number, a third database, and an
/// object-window query set other than `ID-W` (`U-W` used to run U-P's
/// point queries under its own name).
#[test]
fn every_front_end_refuses_an_unreadable_flag() {
    let t = &golden("mainland");
    let missing = "needs a value";
    let cases: [(&str, &[&str], &str); 16] = [
        (REPRO, &["--seed"], missing),
        (PROBE, &["--seed"], missing),
        (TRACE, &["record", "--out"], missing),
        (TRACE, &["replay", t, "--capacity"], missing),
        (TRACE, &["crash", t, "--capacity"], missing),
        (REPRO, &["--seed", "x"], r#"bad --seed "x": "#),
        (REPRO, &["--figure", "x"], r#"bad --figure "x": "#),
        (PROBE, &["--frac", "x"], r#"bad --frac "x": "#),
        (TRACE, &["record", "--queries", "x"], "bad --queries"),
        (TRACE, &["replay", t, "--shards", "-1"], "bad --shards"),
        (TRACE, &["replay", t, "--fault-seed", "x"], "--fault-seed"),
        (TRACE, &["crash", t, "--seed", "x"], "bad --seed"),
        (PROBE, &["--db", "3"], "unknown db 3"),
        (TRACE, &["record", "--db", "3"], "unknown db 3"),
        (PROBE, &["--set", "U-W"], "unknown query set U-W"),
        (TRACE, &["record", "--set", "S-W"], "unknown query set S-W"),
    ];
    for (bin, args, says) in cases {
        assert_refused(bin, args, says);
    }
}

#[test]
fn trace_refuses_a_zero_capacity() {
    let trace = golden("mainland");
    let says = "--capacity must be at least 1";
    assert_refused(TRACE, &["replay", &trace, "--capacity", "0"], says);
    assert_refused(TRACE, &["crash", &trace, "--capacity", "0"], says);
}

#[test]
fn trace_refuses_a_shard_count_no_pool_can_have() {
    let trace = golden("mainland");
    let args = ["replay", &trace, "--capacity", "3", "--shards", "5"];
    assert_refused(TRACE, &args, "every shard needs a page");
    let says = "--shards must be at least 1";
    assert_refused(TRACE, &["replay", &trace, "--shards", "0"], says);
}

/// `FaultConfig` rates are probabilities: NaN used to fail `rate > 0.0` and
/// replay fault-free, and rates outside [0, 1] were taken as given.
#[test]
fn trace_refuses_a_fault_rate_outside_the_unit_interval() {
    let trace = golden("mainland");
    for rate in ["NaN", "-0.5", "1.5", "inf"] {
        let args = ["replay", &trace, "--fault-rate", rate];
        assert_refused(TRACE, &args, "--fault-rate must be in [0, 1]");
    }
}

/// `--update-every 0` used to be clamped to 1 while the summary printed 0.
#[test]
fn trace_refuses_a_zero_update_interval() {
    let args = ["crash", &golden("mainland"), "--update-every", "0"];
    assert_refused(TRACE, &args, "--update-every must be at least 1");
}

/// A zero count used to run an empty workload and exit 0: `record` wrote
/// an empty trace, `crash` swept no crash point and reported OK.
#[test]
fn trace_refuses_a_zero_workload() {
    let trace = golden("mainland");
    let flags: [&[&str]; 3] = [
        &["record", "--queries"],
        &["record", "--phased"],
        &["crash", &trace, "--max-accesses"],
    ];
    for args in flags {
        let says = format!("{} must be at least 1", args[args.len() - 1]);
        assert_refused(TRACE, &[args, &["0"]].concat(), &says);
    }
}

#[test]
fn probe_refuses_a_buffer_fraction_outside_the_unit_interval() {
    for frac in ["1e30", "-1", "0", "NaN"] {
        let args = ["--scale", "tiny", "--frac", frac];
        assert_refused(PROBE, &args, "--frac must be in (0, 1]");
    }
}

/// `BENCH_replacement.json` is written by its tier-1 test alone.
#[test]
fn probe_has_no_benchmark_writer() {
    assert_refused(PROBE, &["--bench-json", "x"], "unknown argument");
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

/// On the committed mainland phase trace at 12 frames, `trace replay`
/// carries `BENCH_replacement.json`'s ASB `vs_opt`, 74, and the arena
/// scoreboard's LRU row its LRU `vs_opt`, 77.
#[test]
fn replay_prints_the_benchmarks_distance_to_opt() {
    let trace = golden("phase_mainland");
    for (policy, line) in [
        ("asb", "\nopt_misses=149 vs_opt=74\n"),
        (
            "arena",
            "\n  expert LRU      weight=0.2254 ghost_misses=226 ghost_len=12 vs_opt=77\n",
        ),
    ] {
        let args = ["replay", &trace, "--policy", policy, "--capacity", "12"];
        let out = Command::new(TRACE).args(args).output().expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(line), "{line:?} in {stdout}");
    }
}

/// A fault replay runs on the same pool as every other replay: it prints
/// what the store injected and the buffer absorbed, and honours `--shards`
/// and `--weights`, which it used to ignore.
#[test]
fn faulty_replay_reports_faults_on_the_one_replay_pool() {
    let trace = golden("mainland");
    let replay = |extra: &[&str]| {
        let out = Command::new(TRACE)
            .args(["replay", &trace, "--fault-rate", "0.05"])
            .args(extra)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = replay(&[]);
    for line in [
        "logical=274 hits=219 misses=55 ",
        "retries=11 corruptions=3 give_ups=0 wrong_payloads=0 ",
        "injected: read_faults=8 write_faults=0 corruptions=3 spikes=4\n",
    ] {
        assert!(stdout.contains(line), "{line:?} in {stdout}");
    }
    let stdout = replay(&["--shards", "4"]);
    assert!(
        stdout.starts_with("policy=Asb capacity=32 shards=4 "),
        "{stdout}"
    );
    assert!(stdout.contains(" wrong_payloads=0 "), "{stdout}");

    let csv = format!("{}/faulty_arena_weights.csv", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&csv);
    replay(&["--policy", "arena", "--capacity", "12", "--weights", &csv]);
    let weights = std::fs::read_to_string(&csv).expect("weights CSV under faults");
    assert!(weights.starts_with("access,"), "{weights}");
    assert_eq!(weights.lines().count(), 1 + 274, "one row per access");
}

/// `--weights` samples the one arena of a one-shard replay: another
/// policy, or more shards, is refused before the replay runs.
#[test]
fn trace_refuses_weights_without_one_arena() {
    let csv = &format!("{}/w.csv", env!("CARGO_TARGET_TMPDIR"));
    let says = "--weights samples one arena: it needs --policy arena on one shard";
    for [policy, shards] in [["lru", "1"], ["arena", "2"]] {
        let flags = ["--policy", policy, "--shards", shards, "--weights", csv];
        let replay = ["replay", &golden("mainland")];
        assert_refused(TRACE, &[&replay[..], &flags].concat(), says);
    }
}

/// A trace that writes replays its writes, allocations and frees through
/// `trace replay`'s pool, and on one shard that is `Trace::replay`, number
/// for number. OPT models reads only, so no `vs_opt` is printed; an
/// allocation the rebuilt disk does not hand out is refused.
#[test]
fn replay_of_a_written_trace_is_the_sequential_replay() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
    let (items, dir) = (dataset.items(), env!("CARGO_TARGET_TMPDIR"));
    let queries = QuerySetSpec::uniform_windows(100).generate(&dataset, 40, 7);
    let mut tree = RTree::bulk_load(Trace::recorder(DiskManager::new()), items).unwrap();
    let churn = |t: &mut RTree<_>| moving_churn(t, items, &queries).map(drop);
    let trace = Trace::record_on("moving".into(), &mut tree, RTree::store, churn).unwrap();
    assert!(!trace.updates.is_empty());
    let path = format!("{dir}/written.trace");
    trace.save(&path).unwrap();
    for policy in ["lru", "asb", "arena"] {
        let args = ["replay", &path, "--policy", policy, "--capacity", "12"];
        let out = Command::new(TRACE).args(args).output().expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let kind = PolicyKind::from_name(policy).unwrap();
        let (s, io) = trace.replay(kind, 12).map(|r| (r.stats, r.io)).unwrap();
        let want = format!(
            "\nlogical={} hits={} misses={} hit%={:.2} physical_reads={} random={} sequential={} sim_ms={:.1}\n",
            s.logical_reads, s.hits, s.misses, 100.0 * s.hit_ratio(), io.reads,
            io.random_reads, io.sequential_reads, io.simulated_ms,
        );
        assert!(stdout.contains(&want), "{want:?} in {stdout}");
        assert!(!stdout.contains("vs_opt"), "{stdout}");
    }
    let path = format!("{dir}/misallocating.trace");
    let text = "asb-trace v1\nlabel x\npages 1\naccesses 1\np 0 1 0 0 0 0 0\nn 7 1 0 0 0 0 0\n";
    std::fs::write(&path, text).unwrap();
    let says = "replayed allocation got page P1, the recorded run got P7";
    assert_refused(TRACE, &["replay", &path], says);
}
