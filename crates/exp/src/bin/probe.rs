//! `probe` — inspect one experiment cell in detail.
//!
//! ```text
//! probe [--scale S] [--seed N] [--db 1|2] [--frac F] [--set NAME]
//! ```
//!
//! Prints, for every policy, the disk accesses, hit ratio and I/O split of
//! the chosen query set — the raw numbers behind the figures, useful when
//! calibrating the synthetic workloads against the paper's described
//! behaviour.
//!
//! The per-policy cells are replays of one recording of the query set
//! (`Lab::eval`).

use asb_core::{PolicyKind, SpatialCriterion};
use asb_exp::{ExperimentCell, Lab};
use asb_workload::{DatasetKind, QuerySetSpec, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut db = DatasetKind::Mainland;
    let mut frac = 0.047f64;
    let mut set = "INT-P".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--scale" => {
                    let v = next()?;
                    scale = Scale::from_name(&v).ok_or(format!("unknown scale {v}"))?;
                }
                "--seed" => seed = next()?.parse().map_err(|e| format!("{e}"))?,
                "--db" => {
                    db = match next()?.as_str() {
                        "1" => DatasetKind::Mainland,
                        "2" => DatasetKind::World,
                        o => return Err(format!("unknown db {o}")),
                    }
                }
                "--frac" => {
                    frac = next()?.parse().map_err(|e| format!("{e}"))?;
                    if !(frac > 0.0 && frac <= 1.0) {
                        return Err(format!("--frac must be in (0, 1], got {frac}"));
                    }
                }
                "--set" => {
                    let v = next()?;
                    set = v.clone();
                    QuerySetSpec::from_name(&v).ok_or(format!("unknown query set {v}"))?;
                }
                o => return Err(format!("unknown argument {o}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let spec = QuerySetSpec::from_name(&set).expect("validated above");

    let mut lab = Lab::new(scale, seed);
    let pages = match lab.tree_pages(db) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: bulk load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let buffer_pages = ((pages as f64 * frac).round() as usize).max(4);
    println!(
        "# db={db:?} scale={scale:?} pages={pages} buffer={frac} (= {buffer_pages} pages) \
         set={set}"
    );
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::LruT,
        PolicyKind::LruP,
        PolicyKind::TwoQ,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::Slru {
            candidate_fraction: 0.25,
            criterion: SpatialCriterion::Area,
        },
        PolicyKind::Asb,
        PolicyKind::Arena,
    ];
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "policy", "accesses", "logical", "hit%", "random", "seq", "sim[ms]", "gain%"
    );
    let cells = policies.map(|policy| ExperimentCell::new(db, policy, frac, spec));
    let results = match lab.eval(&cells) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = results[0]; // cells[0] is LRU, the paper's baseline
    for (p, r) in policies.iter().zip(&results) {
        println!(
            "{:<10} {:>9} {:>9} {:>7.1} {:>9} {:>9} {:>9.0} {:>8.1}",
            p.label(),
            r.disk_accesses,
            r.logical_reads,
            100.0 * r.hits as f64 / r.logical_reads as f64,
            r.io.random_reads,
            r.io.sequential_reads,
            r.io.simulated_ms,
            r.gain_over(&base),
        );
    }
    ExitCode::SUCCESS
}
