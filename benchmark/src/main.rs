//! Paper-scale wall-clock benchmark for the asb workspace.
//!
//! ```text
//! asb-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--reps N] [--smoke] [--out DIR]
//! asb-benchmark compare BASE.json NEW.json
//! ```
//!
//! `run` measures one workload per process (peak RSS is per workload);
//! without `--workload` it re-executes itself once per workload. With
//! `--trace 0` (the default) it prints the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! answer disagreed with the oracle. See `README.md` beside this package.

mod compare;
mod fixture;
#[cfg(test)]
mod harness_tests;
mod layers;
mod report;
mod span;
mod stats;
mod timed;
mod workload;

use fixture::{Fixture, Size};
use report::{Metric, RunResult};
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{run_on_fixture, timed_reps, Rep, Workload};

/// Set-ups per untraced paper-size run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Options {
    workload: Option<Workload>,
    seed: u64,
    /// Wall seconds of timed reps to aim for (at least two reps run).
    seconds: f64,
    trace: bool,
    /// Exact rep count, overriding `seconds`.
    reps: Option<usize>,
    size: Size,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: asb-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--reps N] [--smoke] [--out DIR]\n       asb-benchmark compare BASE.json NEW.json\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        reps: None,
        size: Size::Paper,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.size = Size::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reps" => {
                let reps: usize = value.parse().map_err(|_| bad())?;
                if reps == 0 {
                    return Err(bad());
                }
                opts.reps = Some(reps);
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    // A smoke run is one rep: it checks answers, not timings.
    if opts.size == Size::Smoke {
        opts.reps = opts.reps.or(Some(1));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => match opts.workload {
                Some(w) => run_workload(w, &opts),
                None => run_all(&args[1..], &opts),
            },
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        _ => usage(),
    }
}

/// Runs every workload, each in a process of its own, then merges what
/// they wrote under `--out` into `results.json`.
fn run_all(args: &[String], opts: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut failed = false;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name()])
            .status()
            .expect("re-execute the benchmark for one workload");
        failed |= !status.success();
    }
    if let Some(dir) = &opts.out {
        if let Err(e) = report::merge_results(dir, &Workload::ALL.map(Workload::name)) {
            eprintln!(
                "error: cannot write {}: {e}",
                dir.join("results.json").display()
            );
            failed = true;
        }
    }
    ExitCode::from(u8::from(failed))
}

fn run_workload(workload: Workload, opts: &Options) -> ExitCode {
    let result = if opts.trace {
        let (mut fx, _) = Fixture::build(workload, opts.size, opts.seed);
        layers::measure_layers(&mut fx, opts)
    } else {
        // Several set-ups, so `setup_s` is a median; the last one is used.
        let setups = if opts.size == Size::Paper && opts.reps.is_none() {
            SETUPS
        } else {
            1
        };
        let mut setup_s = Vec::new();
        let mut fx = None;
        for _ in 0..setups {
            drop(fx.take());
            let (built, seconds) = Fixture::build(workload, opts.size, opts.seed);
            setup_s.push(seconds);
            fx = Some(built);
        }
        measure_end_to_end(&mut fx.expect("at least one set-up"), setup_s, opts)
    };
    result.print();
    if let Some(dir) = &opts.out {
        if let Err(e) = result.write(dir) {
            eprintln!("error: cannot write under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    ExitCode::from(exit_status(&result))
}

/// Non-zero when an operation failed, an answer disagreed with the oracle,
/// or a count differed between reps.
fn exit_status(result: &RunResult) -> u8 {
    u8::from(!result.correct)
}

/// The untraced run: an LRU reference pass, then timed reps on a cold
/// buffer each; timing metrics are medians over the reps, counts must be
/// identical on every rep.
fn measure_end_to_end(fx: &mut Fixture, setup_s: Vec<f64>, opts: &Options) -> RunResult {
    let lru = run_on_fixture(fx, asb_core::PolicyKind::Lru, None);
    let reps = timed_reps(fx, opts.seconds, opts.reps);
    let counts = reps[0].counts;
    let deterministic = reps.iter().all(|r| r.counts == counts);
    if !deterministic {
        eprintln!("error: counts differ between reps of one run");
    }
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + lru.failed;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum::<u64>() + lru.attempted;

    let per_rep = |f: &dyn Fn(&Rep) -> f64| Summary::of(reps.iter().map(f).collect());
    let metrics = vec![
        Metric::new("setup_s", "s", Summary::of(setup_s)),
        Metric::new(
            "ops_per_s",
            "1/s",
            per_rep(&|r| r.attempted as f64 / (r.wall_ns() as f64 / 1e9)),
        ),
        Metric::new(
            "ns_per_read",
            "ns",
            per_rep(&|r| r.wall_ns() as f64 / r.counts.buffer.logical_reads as f64),
        ),
        Metric::new("op_p50_us", "us", per_rep(&|r| r.latency_us(50.0))),
        Metric::new("op_p99_us", "us", per_rep(&|r| r.latency_us(99.0))),
        Metric::single("disk_accesses", "count", counts.disk_reads as f64),
        Metric::single(
            "lru_read_ratio",
            "ratio",
            lru.counts.disk_reads as f64 / counts.disk_reads as f64,
        ),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    println!(
        "# {}: tree {} pages, buffer {} frames, {} ops/rep, {:.1} reads/op, hit rate {:.4}, \
         p99.9 {:.1} us, LRU disk accesses {}",
        fx.workload.name(),
        fx.tree_pages,
        fx.capacity,
        reps[0].attempted,
        counts.buffer.logical_reads as f64 / reps[0].attempted as f64,
        counts.buffer.hit_ratio(),
        stats::median(&reps.iter().map(|r| r.latency_us(99.9)).collect::<Vec<_>>()),
        lru.counts.disk_reads,
    );
    RunResult {
        workload: fx.workload.name(),
        section: "end_to_end",
        attempted,
        failed,
        correct: failed == 0 && deterministic,
        metrics,
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
