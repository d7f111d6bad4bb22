//! Sanity checks of the figure harness at small scale: the qualitative
//! claims the paper makes must already hold for the synthetic workloads.
//!
//! Shape-level (not value-level) assertions only — absolute gains depend on
//! scale, but who-wins-where is the reproduction target.

use asb::buffer::{PolicyKind, SpatialCriterion};
use asb::exp::{ExperimentCell, Lab};
use asb::workload::{DatasetKind, Distribution, QueryKind, QuerySetSpec, Scale};

fn small_lab() -> Lab {
    Lab::new(Scale::Small, 42)
}

/// The headline claim: ASB never loses to LRU ("the I/O cost increases for
/// none of the investigated query distributions"). The fast smoke; the
/// claim is tested where the paper stated it by `asb_vs_lru_at_paper_scale`.
#[test]
fn asb_never_loses_to_lru() {
    let mut lab = small_lab();
    let sets = [
        QuerySetSpec::uniform_points(),
        QuerySetSpec::uniform_windows(33),
        QuerySetSpec::identical_windows(),
        QuerySetSpec::similar(QueryKind::Window { ex: 33 }),
        QuerySetSpec::intensified(QueryKind::Point),
        QuerySetSpec::intensified(QueryKind::Window { ex: 33 }),
        QuerySetSpec::independent(QueryKind::Point),
    ];
    for db in [DatasetKind::Mainland, DatasetKind::World] {
        for spec in sets {
            let gain = lab.gain(db, PolicyKind::Asb, 0.047, spec).unwrap();
            assert!(
                gain > -2.0,
                "ASB lost to LRU on {db:?}/{} ({gain:.1}%)",
                spec.name()
            );
        }
    }
}

/// The headline where the paper stated it: trees of 58 336 and 20 478 pages,
/// buffers of 0.6 % and 4.7 %, the twelve query sets of Figure 13. ASB beats
/// LRU on every set outside the intensified family; inside it, it stays
/// within 7 % and loses in exactly the [`KNOWN_LOSSES`] — so a fix and a
/// regression both show here (EXPERIMENTS.md § Paper-scale spot check).
/// The expert arena, replayed on the same recordings, beats LRU in all 48
/// cells.
#[test]
#[ignore = "paper scale (minutes): cargo test --release --test experiments -- --ignored"]
fn asb_vs_lru_at_paper_scale() {
    /// The open gap of ROADMAP item 2: database 1's intensified cells, where
    /// LRU-2 gains 15–17 %. (ASB: −4.5 %, −0.8 % and −6.1 %.)
    const KNOWN_LOSSES: [(DatasetKind, &str, f64); 3] = [
        (DatasetKind::Mainland, "INT-P", 0.006),
        (DatasetKind::Mainland, "INT-P", 0.047),
        (DatasetKind::Mainland, "INT-W-33", 0.047),
    ];
    let w = |ex| QueryKind::Window { ex };
    let sets = [
        QuerySetSpec::uniform_points(),
        QuerySetSpec::uniform_windows(333),
        QuerySetSpec::uniform_windows(33),
        QuerySetSpec::identical_points(),
        QuerySetSpec::identical_windows(),
        QuerySetSpec::similar(QueryKind::Point),
        QuerySetSpec::similar(w(333)),
        QuerySetSpec::similar(w(33)),
        QuerySetSpec::intensified(QueryKind::Point),
        QuerySetSpec::intensified(w(33)),
        QuerySetSpec::independent(QueryKind::Point),
        QuerySetSpec::independent(w(33)),
    ];
    // LRU's cell, then ASB's and the arena's, per (database, buffer,
    // query set).
    let mut cells = Vec::new();
    for db in [DatasetKind::Mainland, DatasetKind::World] {
        for frac in [0.006, 0.047] {
            for spec in sets {
                for policy in [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::Arena] {
                    cells.push(ExperimentCell::new(db, policy, frac, spec));
                }
            }
        }
    }
    let runs = Lab::new(Scale::Paper, 42).eval(&cells).unwrap();
    let mut losses = Vec::new();
    for (trio, run) in cells.chunks(3).zip(runs.chunks(3)) {
        let ExperimentCell { db, frac, spec, .. } = trio[0];
        let cell = format!("{db:?}/{} @ {frac}", spec.name());
        let arena = run[2].gain_over(&run[0]);
        assert!(arena > 0.0, "the arena lost to LRU on {cell} ({arena:.1}%)");
        let gain = run[1].gain_over(&run[0]);
        if spec.dist != Distribution::Intensified {
            assert!(gain > 0.0, "ASB lost to LRU on {cell} ({gain:.1}%)");
            continue;
        }
        assert!(gain > -7.0, "ASB lost to LRU on {cell} by {gain:.1}%");
        if gain <= 0.0 {
            losses.push((db, spec.name(), frac));
        }
    }
    let known = KNOWN_LOSSES.map(|(db, set, frac)| (db, set.to_string(), frac));
    assert_eq!(losses, known, "the intensified cells ASB loses to LRU");
}

/// Figure 7's claim: the spatial policy A is the clear winner for uniform
/// query distributions.
#[test]
fn spatial_a_wins_on_uniform() {
    let mut lab = small_lab();
    let a = PolicyKind::Spatial(SpatialCriterion::Area);
    for spec in [
        QuerySetSpec::uniform_points(),
        QuerySetSpec::uniform_windows(100),
    ] {
        let gain = lab.gain(DatasetKind::Mainland, a, 0.047, spec).unwrap();
        assert!(
            gain > 5.0,
            "A should win on {} (got {gain:.1}%)",
            spec.name()
        );
        let lru2 = lab
            .gain(
                DatasetKind::Mainland,
                PolicyKind::LruK { k: 2 },
                0.047,
                spec,
            )
            .unwrap();
        assert!(
            gain > lru2,
            "A ({gain:.1}%) should beat LRU-2 ({lru2:.1}%) on uniform"
        );
    }
}

/// Figure 9's claim: A is inferior under the intensified distribution
/// ("areas of intensified interest are not characterized by large page
/// areas") while LRU-2 keeps a solid gain.
#[test]
fn spatial_a_collapses_on_intensified() {
    let mut lab = small_lab();
    let spec = QuerySetSpec::intensified(QueryKind::Point);
    let a = lab
        .gain(
            DatasetKind::Mainland,
            PolicyKind::Spatial(SpatialCriterion::Area),
            0.047,
            spec,
        )
        .unwrap();
    let lru2 = lab
        .gain(
            DatasetKind::Mainland,
            PolicyKind::LruK { k: 2 },
            0.047,
            spec,
        )
        .unwrap();
    assert!(a < 0.0, "A should lose on INT-P (got {a:.1}%)");
    assert!(lru2 > 5.0, "LRU-2 should gain on INT-P (got {lru2:.1}%)");
}

/// Figure 12's claim: the static combination pulls A toward LRU — losses
/// shrink, and SLRU 25% is closer to LRU than SLRU 50%.
#[test]
fn slru_moderates_spatial_extremes() {
    let mut lab = small_lab();
    let crit = SpatialCriterion::Area;
    let a = PolicyKind::Spatial(crit);
    let slru25 = PolicyKind::Slru {
        candidate_fraction: 0.25,
        criterion: crit,
    };
    let slru50 = PolicyKind::Slru {
        candidate_fraction: 0.5,
        criterion: crit,
    };

    // Where A loses (intensified), both SLRUs must do better than A.
    let spec = QuerySetSpec::intensified(QueryKind::Point);
    let ga = lab.gain(DatasetKind::Mainland, a, 0.047, spec).unwrap();
    let g25 = lab
        .gain(DatasetKind::Mainland, slru25, 0.047, spec)
        .unwrap();
    let g50 = lab
        .gain(DatasetKind::Mainland, slru50, 0.047, spec)
        .unwrap();
    assert!(
        g25 > ga && g50 > ga,
        "SLRU must soften A's loss: A={ga:.1} 25%={g25:.1} 50%={g50:.1}"
    );
    // The paper: "In the most cases, the performance loss has become a
    // (slight) performance gain. These observations especially hold for
    // ... 25%". Pointwise ordering between 25% and 50% is not guaranteed,
    // but the stronger LRU influence must not lose to LRU outright.
    assert!(
        g25 > -2.0,
        "SLRU 25% must stay near or above LRU ({g25:.1}%)"
    );

    // Where A wins big (uniform), SLRU keeps part of the gain.
    let spec = QuerySetSpec::uniform_windows(100);
    let ga = lab.gain(DatasetKind::Mainland, a, 0.047, spec).unwrap();
    let g25 = lab
        .gain(DatasetKind::Mainland, slru25, 0.047, spec)
        .unwrap();
    assert!(
        g25 > 0.0 && g25 < ga + 1.0,
        "SLRU shifts A toward LRU: A={ga:.1} 25%={g25:.1}"
    );
}

/// Figure 5's claim: K barely matters — LRU-2, LRU-3 and LRU-5 perform
/// alike ("no significant difference").
#[test]
fn lru_k_is_insensitive_to_k() {
    let mut lab = small_lab();
    let spec = QuerySetSpec::identical_points();
    let g2 = lab
        .gain(
            DatasetKind::Mainland,
            PolicyKind::LruK { k: 2 },
            0.047,
            spec,
        )
        .unwrap();
    let g3 = lab
        .gain(
            DatasetKind::Mainland,
            PolicyKind::LruK { k: 3 },
            0.047,
            spec,
        )
        .unwrap();
    let g5 = lab
        .gain(
            DatasetKind::Mainland,
            PolicyKind::LruK { k: 5 },
            0.047,
            spec,
        )
        .unwrap();
    assert!((g2 - g3).abs() < 6.0, "LRU-2 {g2:.1} vs LRU-3 {g3:.1}");
    assert!((g2 - g5).abs() < 6.0, "LRU-2 {g2:.1} vs LRU-5 {g5:.1}");
}

/// Figure 14's claim: the candidate set shrinks in the intensified phase
/// and grows in the uniform phase.
#[test]
fn asb_retunes_across_phases() {
    let mut lab = small_lab();
    let specs = [
        QuerySetSpec::intensified(QueryKind::Window { ex: 33 }),
        QuerySetSpec::uniform_windows(33),
    ];
    let trace = lab
        .candidate_trace(DatasetKind::Mainland, 0.047, &specs)
        .unwrap();
    let bounds = lab.phase_boundaries(DatasetKind::Mainland, &specs).unwrap();
    let phase_avg = |range: std::ops::Range<usize>| {
        let slice = &trace[range];
        slice.iter().map(|&(_, s)| s as f64).sum::<f64>() / slice.len() as f64
    };
    // Compare the settled halves of each phase.
    let int_avg = phase_avg(bounds[0] / 2..bounds[0]);
    let uni_avg = phase_avg((bounds[0] + bounds[1]) / 2..bounds[1]);
    assert!(
        uni_avg > int_avg,
        "candidate set should grow from INT ({int_avg:.1}) to U ({uni_avg:.1})"
    );
}
