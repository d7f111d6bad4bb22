//! One function per data figure of the paper.

use crate::ext::gain_vs_lru;
use crate::lab::{ExperimentCell, Lab, RunResult, BUFFER_FRACS};
use crate::report::{FigureTable, Series};
use asb_core::{PolicyKind, SpatialCriterion};
use asb_storage::Result;
use asb_workload::{DatasetKind, QueryKind, QuerySetSpec};

/// The data figures of the paper (4–9 are the policy studies, 12–14 the
/// combination studies; 1–3 and 10–11 are illustrations with no data).
pub const FIGURE_IDS: [u8; 9] = [4, 5, 6, 7, 8, 9, 12, 13, 14];

const DB_BOTH: [(DatasetKind, &str); 2] = [
    (DatasetKind::Mainland, "database 1"),
    (DatasetKind::World, "database 2"),
];

/// The two buffer sizes most figures contrast.
const SMALL_LARGE: [(f64, &str); 2] = [(0.006, "0.6% buffer"), (0.047, "4.7% buffer")];

fn w(ex: u32) -> QueryKind {
    QueryKind::Window { ex }
}

/// `*-P, *-W-1000, *-W-333, *-W-100, *-W-33` for one distribution.
fn family(make: fn(QueryKind) -> QuerySetSpec) -> Vec<QuerySetSpec> {
    let mut sets = vec![make(QueryKind::Point)];
    for ex in [1000, 333, 100, 33] {
        sets.push(make(w(ex)));
    }
    sets
}

fn uniform_family() -> Vec<QuerySetSpec> {
    family(|k| QuerySetSpec {
        dist: asb_workload::Distribution::Uniform,
        kind: k,
    })
}

fn intensified_family() -> Vec<QuerySetSpec> {
    family(QuerySetSpec::intensified)
}

/// The cross-family sample used when a figure spans all distributions.
fn mixed_sets() -> Vec<QuerySetSpec> {
    vec![
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
    ]
}

/// The points of one series: per set, `metric(run, base)` over the cells of
/// `[base, policy]`, all of them in one `eval`.
fn versus(
    lab: &mut Lab,
    db: DatasetKind,
    pair: [PolicyKind; 2],
    frac: f64,
    sets: &[QuerySetSpec],
    metric: fn(&RunResult, &RunResult) -> f64,
) -> Result<Vec<(String, f64)>> {
    let cells: Vec<_> = sets
        .iter()
        .flat_map(|&s| pair.map(|p| ExperimentCell::new(db, p, frac, s)))
        .collect();
    Ok(std::iter::zip(sets, lab.eval(&cells)?.chunks(2))
        .map(|(s, run)| (s.name(), metric(&run[1], &run[0])))
        .collect())
}

fn gain_series(
    lab: &mut Lab,
    kind: DatasetKind,
    policy: PolicyKind,
    frac: f64,
    sets: &[QuerySetSpec],
    name: &str,
) -> Result<Series> {
    let pair = [PolicyKind::Lru, policy];
    Ok(Series {
        name: name.to_string(),
        points: versus(lab, kind, pair, frac, sets, RunResult::gain_over)?,
    })
}

/// Figure 4: gain of LRU-P over LRU — both databases, uniform and
/// intensified families, all five buffer sizes.
pub fn fig4(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let mut tables = Vec::new();
    for (db, db_name) in DB_BOTH {
        for (sets, dist_name) in [
            (uniform_family(), "uniform"),
            (intensified_family(), "intensified"),
        ] {
            let mut series = Vec::with_capacity(BUFFER_FRACS.len());
            for &frac in &BUFFER_FRACS {
                series.push(gain_series(
                    lab,
                    db,
                    PolicyKind::LruP,
                    frac,
                    &sets,
                    &format!("{:.1}%", frac * 100.0),
                )?);
            }
            tables.push(FigureTable {
                id: "fig4".into(),
                title: format!("LRU-P gain vs LRU, {dist_name} distribution, {db_name}"),
                x_label: "query set".into(),
                y_label: "gain vs LRU [%]".into(),
                series,
            });
        }
    }
    Ok(tables)
}

/// One table per database of `dbs` and buffer of [`SMALL_LARGE`], one series
/// per policy: gains over LRU on `sets` — the shape of Figures 5, 7–9, 12
/// and 13.
fn gain_tables(
    lab: &mut Lab,
    id: &str,
    title: &str,
    dbs: &[(DatasetKind, &str)],
    policies: &[(PolicyKind, &str)],
    sets: &[QuerySetSpec],
) -> Result<Vec<FigureTable>> {
    let mut tables = Vec::new();
    for &(db, db_name) in dbs {
        for (frac, frac_name) in SMALL_LARGE {
            let mut series = Vec::new();
            for &(p, name) in policies {
                series.push(gain_series(lab, db, p, frac, sets, name)?);
            }
            tables.push(FigureTable {
                id: id.into(),
                title: format!("{title}, {db_name}, {frac_name}"),
                x_label: "query set".into(),
                y_label: "gain vs LRU [%]".into(),
                series,
            });
        }
    }
    Ok(tables)
}

/// Figure 5: gain of LRU-K (K = 2, 3, 5) over LRU on database 1.
pub fn fig5(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let policies = [
        (PolicyKind::LruK { k: 2 }, "LRU-2"),
        (PolicyKind::LruK { k: 3 }, "LRU-3"),
        (PolicyKind::LruK { k: 5 }, "LRU-5"),
    ];
    let title = "LRU-K gain vs LRU";
    gain_tables(lab, "fig5", title, &DB_BOTH[..1], &policies, &mixed_sets())
}

/// Figure 6: the five spatial criteria relative to criterion A (A = 100 %),
/// database 1, 0.3 % and 4.7 % buffers.
pub fn fig6(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let sets = mixed_sets();
    let mut tables = Vec::new();
    for &(frac, frac_name) in &[(0.003, "0.3% buffer"), (0.047, "4.7% buffer")] {
        let mut series = Vec::new();
        for &c in SpatialCriterion::ALL.iter() {
            let pair = [SpatialCriterion::Area, c].map(PolicyKind::Spatial);
            let db = DatasetKind::Mainland;
            let points = versus(lab, db, pair, frac, &sets, RunResult::relative_to)?;
            series.push(Series {
                name: c.short_name().into(),
                points,
            });
        }
        tables.push(FigureTable {
            id: "fig6".into(),
            title: format!("Spatial criteria, accesses relative to A, database 1, {frac_name}"),
            x_label: "query set".into(),
            y_label: "disk accesses relative to A [%]".into(),
            series,
        });
    }
    Ok(tables)
}

/// The three contenders of Figures 7–9.
fn contenders() -> [(PolicyKind, &'static str); 3] {
    [
        (PolicyKind::LruP, "LRU-P"),
        (PolicyKind::Spatial(SpatialCriterion::Area), "A"),
        (PolicyKind::LruK { k: 2 }, "LRU-2"),
    ]
}

/// Figure 7: LRU-P vs A vs LRU-2, uniform distribution.
pub fn fig7(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let title = "Gain vs LRU, uniform distribution";
    gain_tables(
        lab,
        "fig7",
        title,
        &DB_BOTH,
        &contenders(),
        &uniform_family(),
    )
}

/// Figure 8: identical and similar distributions.
pub fn fig8(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let mut sets = vec![
        QuerySetSpec::identical_points(),
        QuerySetSpec::identical_windows(),
    ];
    sets.extend(family(QuerySetSpec::similar));
    let title = "Gain vs LRU, identical & similar distributions";
    gain_tables(lab, "fig8", title, &DB_BOTH, &contenders(), &sets)
}

/// Figure 9: independent and intensified distributions.
pub fn fig9(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let mut sets = family(QuerySetSpec::independent);
    sets.extend(intensified_family());
    let title = "Gain vs LRU, independent & intensified distributions";
    gain_tables(lab, "fig9", title, &DB_BOTH, &contenders(), &sets)
}

/// Figure 12: pure A vs the static combinations SLRU 50 % and SLRU 25 %.
pub fn fig12(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let policies = [
        (PolicyKind::Spatial(SpatialCriterion::Area), "A"),
        (
            PolicyKind::Slru {
                candidate_fraction: 0.5,
                criterion: SpatialCriterion::Area,
            },
            "SLRU 50%",
        ),
        (PolicyKind::PAPER_SLRU, "SLRU 25%"),
    ];
    let title = "Static candidate sets";
    gain_tables(lab, "fig12", title, &DB_BOTH[..1], &policies, &mixed_sets())
}

/// Belady's OPT's gain over LRU on `sets`: the ceiling over every other
/// series of a gain table.
fn opt_series(lab: &mut Lab, db: DatasetKind, frac: f64, sets: &[QuerySetSpec]) -> Result<Series> {
    let frames = lab.buffer_pages(db, frac)?;
    let lru_cells: Vec<_> = sets
        .iter()
        .map(|&s| ExperimentCell::new(db, PolicyKind::Lru, frac, s))
        .collect();
    let lru = lab.eval(&lru_cells)?;
    let mut points = Vec::with_capacity(sets.len());
    for (&s, lru) in sets.iter().zip(lru) {
        let opt = lab.recording(db, s)?.opt_misses(frames)?;
        points.push((s.name(), gain_vs_lru(lru.disk_accesses, opt)));
    }
    Ok(Series {
        name: "OPT".into(),
        points,
    })
}

/// Figure 13: A, SLRU 25 %, ASB and LRU-2 against LRU on both databases,
/// with Belady's OPT as the ceiling.
pub fn fig13(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let policies = [
        (PolicyKind::Spatial(SpatialCriterion::Area), "A"),
        (PolicyKind::PAPER_SLRU, "SLRU"),
        (PolicyKind::Asb, "ASB"),
        (PolicyKind::LruK { k: 2 }, "LRU-2"),
    ];
    let title = "A, SLRU, ASB, LRU-2 vs LRU";
    let sets = mixed_sets();
    let mut tables = Vec::new();
    // One database at a time, while the lab still holds its recordings.
    for db in DB_BOTH {
        let mut pair = gain_tables(lab, "fig13", title, &[db], &policies, &sets)?;
        for (table, (frac, _)) in pair.iter_mut().zip(SMALL_LARGE) {
            table.series.push(opt_series(lab, db.0, frac, &sets)?);
        }
        tables.extend(pair);
    }
    Ok(tables)
}

/// Figure 14: candidate-set size over a concatenated INT-W-33 ∥ U-W-33 ∥
/// S-W-33 workload, sampled and bucket-averaged.
pub fn fig14(lab: &mut Lab) -> Result<Vec<FigureTable>> {
    let specs = [
        QuerySetSpec::intensified(w(33)),
        QuerySetSpec::uniform_windows(33),
        QuerySetSpec::similar(w(33)),
    ];
    let frac = 0.047;
    let trace = lab.candidate_trace(DatasetKind::Mainland, frac, &specs)?;
    let bounds = lab.phase_boundaries(DatasetKind::Mainland, &specs)?;
    // Average the trace into ~60 buckets to keep the table readable.
    let buckets = 60usize.min(trace.len().max(1));
    let per = trace.len().div_ceil(buckets).max(1);
    let mut points = Vec::new();
    for chunk in trace.chunks(per) {
        let idx = chunk[0].0;
        let avg = chunk.iter().map(|&(_, s)| s as f64).sum::<f64>() / chunk.len() as f64;
        let phase = match bounds.iter().position(|&b| idx < b) {
            Some(0) => "INT",
            Some(1) => "U",
            _ => "S",
        };
        points.push((format!("q{idx} [{phase}]"), avg));
    }
    Ok(vec![FigureTable {
        id: "fig14".into(),
        title: "ASB candidate-set size, mixed workload INT-W-33 | U-W-33 | S-W-33, database 1, 4.7% buffer"
            .into(),
        x_label: "query index [phase]".into(),
        y_label: "candidate-set size [pages]".into(),
        series: vec![Series { name: "candidate set".into(), points }],
    }])
}

/// Runs one figure by id (one of [`FIGURE_IDS`]).
///
/// # Panics
/// Panics if `id` names an illustration figure with no data (1–3, 10, 11);
/// storage or query failures during the runs are returned as errors.
pub fn figure(id: u8, lab: &mut Lab) -> Result<Vec<FigureTable>> {
    match id {
        4 => fig4(lab),
        5 => fig5(lab),
        6 => fig6(lab),
        7 => fig7(lab),
        8 => fig8(lab),
        9 => fig9(lab),
        12 => fig12(lab),
        13 => fig13(lab),
        14 => fig14(lab),
        other => panic!("figure {other} has no data (illustrations: 1-3, 10, 11)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_workload::Scale;

    #[test]
    fn family_names_are_ordered() {
        let names: Vec<String> = uniform_family().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["U-P", "U-W-1000", "U-W-333", "U-W-100", "U-W-33"]);
    }

    #[test]
    fn fig14_trace_has_three_phases() {
        let mut lab = Lab::new(Scale::Tiny, 7);
        let tables = fig14(&mut lab).unwrap();
        assert_eq!(tables.len(), 1);
        let points = &tables[0].series[0].points;
        assert!(points.iter().any(|(l, _)| l.contains("[INT]")));
        assert!(points.iter().any(|(l, _)| l.contains("[U]")));
        assert!(points.iter().any(|(l, _)| l.contains("[S]")));
    }

    #[test]
    fn fig6_baseline_is_100_percent() {
        let mut lab = Lab::new(Scale::Tiny, 7);
        let tables = fig6(&mut lab).unwrap();
        for t in &tables {
            let a = t
                .series
                .iter()
                .find(|s| s.name == "A")
                .expect("A series present");
            for (x, v) in &a.points {
                assert!((v - 100.0).abs() < 1e-9, "{x}: A must be its own baseline");
            }
        }
    }

    #[test]
    fn fig13_opt_gains_at_least_every_policy() {
        let mut lab = Lab::new(Scale::Tiny, 7);
        let tables = fig13(&mut lab).unwrap();
        assert_eq!(tables.len(), 4);
        for t in &tables {
            let (opt, policies) = t.series.split_last().expect("series");
            assert_eq!(opt.name, "OPT");
            for s in policies {
                for ((x, gain), (_, ceiling)) in s.points.iter().zip(&opt.points) {
                    assert!(gain <= ceiling, "{}: {} {x} above OPT", t.title, s.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn illustration_figures_panic() {
        let mut lab = Lab::new(Scale::Tiny, 7);
        let _ = figure(10, &mut lab);
    }
}
