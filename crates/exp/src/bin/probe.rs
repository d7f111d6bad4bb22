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
//! (`Lab::eval`). `vs_opt` is a policy's disk accesses minus the misses of
//! Belady's OPT on that recording at the same frames (`Trace::opt_misses`),
//! printed on the last line.

use asb_core::{PolicyKind, SpatialCriterion};
use asb_exp::cli::{self, Args};
use asb_exp::{ExperimentCell, Lab};
use asb_workload::{DatasetKind, QueryKind, QuerySetSpec, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::main(probe)
}

fn probe(mut args: Args) -> Result<(), String> {
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut db = DatasetKind::Mainland;
    let mut frac = 0.047f64;
    let mut set = QuerySetSpec::intensified(QueryKind::Point);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.scale(&arg)?,
            "--seed" => seed = args.parse(&arg)?,
            "--db" => db = args.db(&arg)?,
            "--frac" => {
                frac = args.parse(&arg)?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(format!("--frac must be in (0, 1], got {frac}"));
                }
            }
            "--set" => set = args.set(&arg)?,
            o => return Err(cli::unknown(o)),
        }
    }

    let mut lab = Lab::new(scale, seed);
    let (pages, buffer_pages) = lab
        .tree_pages(db)
        .and_then(|pages| Ok((pages, lab.buffer_pages(db, frac)?)))
        .map_err(|e| format!("bulk load failed: {e}"))?;
    println!(
        "# db={db:?} scale={scale:?} pages={pages} buffer={frac} (= {buffer_pages} pages) \
         set={}",
        set.name()
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
        PolicyKind::PAPER_SLRU,
        PolicyKind::Asb,
        PolicyKind::Arena,
    ];
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "policy", "accesses", "logical", "hit%", "random", "seq", "sim[ms]", "gain%", "vs_opt"
    );
    let cells = policies.map(|policy| ExperimentCell::new(db, policy, frac, set));
    let (results, opt) = lab
        .eval(&cells)
        .and_then(|r| Ok((r, lab.recording(db, set)?.opt_misses(buffer_pages)?)))
        .map_err(|e| format!("experiment failed: {e}"))?;
    let base = results[0]; // cells[0] is LRU, the paper's baseline
    for (p, r) in policies.iter().zip(&results) {
        println!(
            "{:<10} {:>9} {:>9} {:>7.1} {:>9} {:>9} {:>9.0} {:>8.1} {:>7}",
            p.label(),
            r.disk_accesses,
            r.logical_reads,
            100.0 * r.hits as f64 / r.logical_reads as f64,
            r.io.random_reads,
            r.io.sequential_reads,
            r.io.simulated_ms,
            r.gain_over(&base),
            r.disk_accesses as i64 - opt as i64,
        );
    }
    println!("{:<10} {opt:>9}", "OPT");
    Ok(())
}
