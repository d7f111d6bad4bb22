//! Adversarial phase-change workloads.
//!
//! The paper's query sets are *stationary*: one distribution family per
//! run, so a policy tuned for that family never pays for its bias. A
//! phase-change workload concatenates several families back to back —
//! every boundary invalidates whatever regularity the previous phase
//! rewarded (spatial locality, reference skew, scan order), which is
//! exactly the regime a regret-minimizing policy mixer must survive: the
//! best expert *in hindsight* changes identity mid-trace.

use crate::dataset::Dataset;
use crate::queryset::{QueryKind, QuerySetSpec};
use asb_geom::Query;
use serde::Serialize;

/// A named concatenation of query-set phases.
///
/// Each phase is a `(spec, queries)` pair; [`PhasedWorkload::generate`]
/// materializes the phases in order against one dataset, deterministically
/// from a seed, and reports the phase boundaries so evaluations can
/// attribute misses to regimes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhasedWorkload {
    /// Display name, e.g. `"phase-change"`.
    pub name: String,
    /// The phases in execution order.
    pub phases: Vec<(QuerySetSpec, usize)>,
}

impl PhasedWorkload {
    /// The default adversarial workload: five phases that alternate
    /// between broad uniform scans, heavily skewed point access,
    /// object-identical windows and data-independent windows. Each
    /// boundary flips which page property predicts the next reuse, so no
    /// single fixed policy ranks victims well across the whole trace.
    pub fn adversarial(queries_per_phase: usize) -> Self {
        PhasedWorkload {
            name: "phase-change".into(),
            phases: vec![
                (QuerySetSpec::uniform_windows(33), queries_per_phase),
                (
                    QuerySetSpec::intensified(QueryKind::Point),
                    queries_per_phase,
                ),
                (QuerySetSpec::identical_windows(), queries_per_phase),
                (
                    QuerySetSpec::independent(QueryKind::Window { ex: 100 }),
                    queries_per_phase,
                ),
                (QuerySetSpec::uniform_points(), queries_per_phase),
            ],
        }
    }

    /// Total query count across all phases.
    pub fn total_queries(&self) -> usize {
        self.phases.iter().map(|&(_, n)| n).sum()
    }

    /// Query indices at which each phase *ends* (exclusive), cumulative.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut acc = 0;
        self.phases
            .iter()
            .map(|&(_, n)| {
                acc += n;
                acc
            })
            .collect()
    }

    /// Materializes the workload against `dataset`. Every phase draws
    /// from its own derived seed (`seed` xor the phase index), so phases
    /// of the same family in different positions differ, yet the whole
    /// trace is reproducible from one seed.
    pub fn generate(&self, dataset: &Dataset, seed: u64) -> Vec<Query> {
        let mut queries = Vec::with_capacity(self.total_queries());
        for (i, &(spec, n)) in self.phases.iter().enumerate() {
            queries.extend(spec.generate(dataset, n, seed ^ (i as u64).wrapping_mul(0x9E37_79B9)));
        }
        queries
    }

    /// A provenance label naming every phase, e.g.
    /// `"phase-change[U-W-33+INT-P+ID-W+IND-W-100+U-P]"`.
    pub fn label(&self) -> String {
        let names: Vec<String> = self.phases.iter().map(|(s, _)| s.name()).collect();
        format!("{}[{}]", self.name, names.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, Scale};

    #[test]
    fn generation_is_deterministic_and_sized() {
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
        let w = PhasedWorkload::adversarial(20);
        assert_eq!(w.total_queries(), 100);
        assert_eq!(w.boundaries(), vec![20, 40, 60, 80, 100]);
        let a = w.generate(&d, 7);
        let b = w.generate(&d, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_ne!(a, w.generate(&d, 8));
    }

    #[test]
    fn labels_name_every_phase() {
        assert_eq!(
            PhasedWorkload::adversarial(10).label(),
            "phase-change[U-W-33+INT-P+ID-W+IND-W-100+U-P]"
        );
    }

    #[test]
    fn repeated_phases_draw_distinct_queries() {
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
        let skewed = QuerySetSpec::intensified(QueryKind::Point);
        let w = PhasedWorkload {
            name: "thrash".into(),
            phases: vec![
                (skewed, 30),
                (QuerySetSpec::uniform_windows(33), 30),
                (skewed, 30),
            ],
        };
        let qs = w.generate(&d, 3);
        // Phase 0 and phase 2 share a spec but not a derived seed.
        assert_ne!(qs[0..30], qs[60..90]);
    }
}
