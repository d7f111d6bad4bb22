//! Parallel experiment runner.
//!
//! Every experiment cell — one `(database, policy, buffer fraction, query
//! set)` combination — is a pure function of its query set's recorded
//! reference string, the policy and the buffer capacity. The one [`Lab`]
//! records each `(database, query set)` first; worker threads then replay
//! the shared recordings, so fanning cells across threads changes wall-clock
//! time only: the figures produced are identical to a sequential run
//! (asserted by the tests), and no worker builds a tree of its own.
//!
//! Work is distributed by an atomic cursor over the cell list, so slow
//! cells (large buffers, window queries) do not leave threads idle behind a
//! static partition.

use crate::lab::{Lab, RunResult};
use asb_core::PolicyKind;
use asb_storage::sync::{AtomicUsize, Mutex, Ordering};
use asb_storage::Result;
use asb_workload::{DatasetKind, QuerySetSpec};

/// One experiment cell: the coordinates of a single figure data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentCell {
    /// Database the tree is built from (paper: DB 1 / DB 2).
    pub db: DatasetKind,
    /// Replacement policy under test.
    pub policy: PolicyKind,
    /// Buffer size as a fraction of the tree's page count.
    pub frac: f64,
    /// Query-set family to replay.
    pub spec: QuerySetSpec,
}

/// Runs every cell on `lab` and returns results in cell order.
///
/// The query sets are recorded on the calling thread (once each, unless
/// `lab` already holds them); `threads` workers then replay them, pulling
/// cells from a shared queue. Results are deterministic whatever `threads`
/// is.
///
/// # Errors
/// Returns the first storage error raised while recording, else the first
/// raised by any cell (in cell order); remaining cells may or may not have
/// run.
///
/// # Panics
/// Panics if `threads == 0`, or if a worker thread panics (experiment
/// failures propagate rather than producing partial figures).
pub fn run_cells(
    lab: &mut Lab,
    threads: usize,
    cells: &[ExperimentCell],
) -> Result<Vec<RunResult>> {
    assert!(threads >= 1, "need at least one worker thread");
    let jobs = cells
        .iter()
        .map(|c| {
            let trace = lab.recording(c.db, c.spec)?;
            Ok((trace, c.policy, lab.buffer_pages(c.db, c.frac)?))
        })
        .collect::<Result<Vec<_>>>()?;

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunResult>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(jobs.len()) {
            s.spawn(|| loop {
                // relaxed-ok: the cursor only hands out unique indices;
                // the scope join (not the counter) publishes results.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((trace, policy, buffer_pages)) = jobs.get(i) else {
                    break;
                };
                *slots[i].lock() = Some(RunResult::of(trace, *policy, *buffer_pages));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("every cell computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_workload::Scale;

    fn cells() -> Vec<ExperimentCell> {
        use asb_workload::QueryKind;
        let specs = [
            QuerySetSpec::intensified(QueryKind::Point),
            QuerySetSpec::uniform_windows(100),
        ];
        let policies = [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::LruK { k: 2 }];
        let mut out = Vec::new();
        for spec in specs {
            for policy in policies {
                out.push(ExperimentCell {
                    db: DatasetKind::Mainland,
                    policy,
                    frac: 0.03,
                    spec,
                });
            }
        }
        out
    }

    #[test]
    fn parallel_results_equal_sequential_results() {
        let cells = cells();
        let mut lab = Lab::new(Scale::Tiny, 42);
        let sequential = run_cells(&mut lab, 1, &cells).unwrap();
        let parallel = run_cells(&mut lab, 3, &cells).unwrap();
        assert_eq!(parallel, sequential);
        // And a cell run by a worker is the cell the lab itself runs.
        for (c, r) in cells.iter().zip(&parallel) {
            assert_eq!(lab.run(c.db, c.policy, c.frac, c.spec).unwrap(), *r);
        }
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells = cells();
        let results = run_cells(&mut Lab::new(Scale::Tiny, 42), 2, &cells).unwrap();
        assert_eq!(results.len(), cells.len());
        // LRU is its own baseline: gain over itself is zero.
        let lru = results[0];
        assert_eq!(lru.gain_over(&lru), 0.0);
    }
}
