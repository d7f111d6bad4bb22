//! Shared helpers for the asb Criterion benchmarks.
//!
//! The benches have a dual job: Criterion measures the *runtime* of the
//! reproduction machinery, and — because the paper's deliverables are
//! tables, not wall-clock times — every figure bench first **prints the
//! regenerated table** (once, outside the measurement loop). Run
//! `cargo bench` and read the tables from stdout; the Criterion numbers
//! tell you what a full reproduction pass costs.

use asb_core::{BufferManager, PolicyKind};
use asb_exp::FigureTable;
use asb_rtree::RTree;
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, Scale};

/// The scale benches run at. Small keeps a full `cargo bench` in minutes
/// while preserving every qualitative effect; bump to `Medium` to match
/// `repro`'s default output.
pub const BENCH_SCALE: Scale = Scale::Small;

/// The seed benches run with (same default as `repro`).
pub const BENCH_SEED: u64 = 42;

/// Prints regenerated figure tables to stdout (once per bench).
pub fn print_tables(tables: &[FigureTable]) {
    for t in tables {
        println!("{}", t.render_text());
    }
}

/// Builds a bulk-loaded mainland tree with an attached buffer — the common
/// fixture of the micro and ablation benches.
pub fn buffered_tree(
    scale: Scale,
    policy: PolicyKind,
    buffer_frac: f64,
) -> (RTree<DiskManager>, Dataset) {
    let dataset = Dataset::generate(DatasetKind::Mainland, scale, BENCH_SEED);
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    let pages = ((tree.page_count() as f64 * buffer_frac).round() as usize).max(8);
    tree.set_buffer(BufferManager::with_policy(policy, pages));
    (tree, dataset)
}

/// Verdict of [`scaling_gate`]: run the 4-thread scaling assertion, or
/// skip it with a printable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingGate {
    /// The comparison is meaningful on this run — assert it.
    Assert,
    /// The comparison would be noise — print the reason instead. The line
    /// always starts with `skipped:` so logs can be grepped for it.
    Skip(String),
}

/// Decides whether the concurrency bench's headline claim — the sharded
/// pool out-serves its one-shard configuration at 4 threads — can be asserted.
///
/// It cannot when fewer than 4 cores are available (threads never truly
/// overlap, so the striped pool has no parallelism to win with) or on a
/// `--test` smoke run (the trace is too short for stable timings). Both
/// cases must be *visibly* skipped: a silent pass on a 2-core CI runner
/// looks identical to a real win.
pub fn scaling_gate(smoke: bool, cores: usize) -> ScalingGate {
    if cores < 4 {
        ScalingGate::Skip(format!(
            "skipped: insufficient cores ({cores} available, 4 needed for the threads to overlap)"
        ))
    } else if smoke {
        ScalingGate::Skip(
            "skipped: smoke run (trace too short for stable throughput timings)".into(),
        )
    } else {
        ScalingGate::Assert
    }
}

#[cfg(test)]
mod tests {
    use super::{scaling_gate, ScalingGate};

    #[test]
    fn full_run_with_enough_cores_asserts() {
        assert_eq!(scaling_gate(false, 4), ScalingGate::Assert);
        assert_eq!(scaling_gate(false, 64), ScalingGate::Assert);
    }

    #[test]
    fn too_few_cores_skips_with_explicit_line() {
        for cores in [1usize, 2, 3] {
            match scaling_gate(false, cores) {
                ScalingGate::Skip(reason) => {
                    assert!(
                        reason.starts_with("skipped: insufficient cores"),
                        "reason {reason:?} must lead with the greppable marker"
                    );
                    assert!(
                        reason.contains(&format!("{cores} available")),
                        "reason {reason:?} must name the core count"
                    );
                }
                ScalingGate::Assert => panic!("{cores} cores must not assert the 4-thread claim"),
            }
        }
    }

    #[test]
    fn smoke_run_skips_even_on_big_machines() {
        match scaling_gate(true, 64) {
            ScalingGate::Skip(reason) => assert!(reason.starts_with("skipped:")),
            ScalingGate::Assert => panic!("smoke runs must not assert throughput claims"),
        }
    }

    #[test]
    fn insufficient_cores_dominates_smoke_mode() {
        // A 2-core smoke run reports the core shortfall, the condition
        // that would also break a full run on the same machine.
        match scaling_gate(true, 2) {
            ScalingGate::Skip(reason) => {
                assert!(reason.starts_with("skipped: insufficient cores"))
            }
            ScalingGate::Assert => panic!("2-core smoke run must skip"),
        }
    }
}
