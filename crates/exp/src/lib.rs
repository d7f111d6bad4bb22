//! # asb-exp — experiment harness for the EDBT 2002 reproduction
//!
//! One function per data figure of the paper (Figures 4–9, 12–14; Figures
//! 1–3 and 10–11 are illustrations). Each figure function returns
//! [`FigureTable`]s — the same rows/series the paper plots — rendered as
//! aligned text tables or JSON.
//!
//! The measurement protocol follows Section 3 of the paper:
//!
//! * trees are bulk-loaded once per database; buffers are **cleared before
//!   each query set** ("in order to increase the comparability of the
//!   results");
//! * buffer sizes are **relative** to the tree's page count
//!   (0.3 %–4.7 %);
//! * the number of queries per set is chosen "so that the number of disk
//!   accesses was about 10 to 20 times higher than the buffer size in the
//!   case of the largest buffer investigated";
//! * results are reported as **relative performance**: the gain of policy X
//!   over LRU is `accesses(LRU) / accesses(X) − 1`.
//!
//! Every tabulated number is a cell — a recorded reference string, a policy
//! and a buffer size — replayed by the one loop ([`Trace::drive`]) under
//! the one evaluator ([`Lab::eval`], parallel over [`Trace::replay_all`]).
//! [`Lab`] caches runs so figures sharing a (policy, buffer, query-set)
//! combination do not recompute it, and exposes the raw [`RunResult`]s for
//! EXPERIMENTS.md bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod crash;
mod ext;
mod figures;
mod lab;
mod report;
mod trace;

pub use bench::{replacement_bench, BenchEntry, ReplacementBench, GOLDEN_DBS};
pub use crash::{crash_sweep, CrashConfig, CrashDivergence, CrashSweepReport};
pub use ext::{extension, EXTENSIONS};
pub use figures::{figure, FIGURE_IDS};
pub use lab::{ExperimentCell, Lab, RunResult, BUFFER_FRACS, LARGEST_BUFFER_FRAC};
pub use report::{FigureTable, Series};
pub use trace::{FaultReplayOutcome, ReplayOutcome, Trace};
