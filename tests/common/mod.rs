//! Helpers shared by more than one integration-test file.

use asb::buffer::{ArenaParams, AsbParams, PolicyKind, Roster, SpatialCriterion};

/// One row per [`PolicyKind`] variant and parameterisation the study uses.
/// The first five rows predate the others; new rows are appended so the
/// old ones keep their relative order in `golden/expected.json`.
pub fn policies() -> Vec<(&'static str, PolicyKind)> {
    let mut rows = vec![
        ("lru", PolicyKind::Lru),
        ("lru-2", PolicyKind::LruK { k: 2 }),
        ("slru", PolicyKind::PAPER_SLRU),
        ("asb", PolicyKind::Asb),
        ("arena", PolicyKind::Arena),
        ("fifo", PolicyKind::Fifo),
        ("clock", PolicyKind::Clock),
        ("lru-t", PolicyKind::LruT),
        ("lru-p", PolicyKind::LruP),
        ("2q", PolicyKind::TwoQ),
        ("lru-3", PolicyKind::LruK { k: 3 }),
    ];
    rows.extend(SpatialCriterion::ALL.map(|c| (c.short_name(), PolicyKind::Spatial(c))));
    rows.extend([
        (
            "slru-50",
            PolicyKind::Slru {
                candidate_fraction: 0.5,
                criterion: SpatialCriterion::Area,
            },
        ),
        (
            "asb-margin",
            PolicyKind::AsbWith(AsbParams {
                overflow_fraction: 0.3,
                initial_candidate_fraction: 0.5,
                step_fraction: 0.1,
                criterion: SpatialCriterion::Margin,
            }),
        ),
        (
            "arena-lean",
            PolicyKind::ArenaWith(ArenaParams {
                decay: 0.05,
                roster: Roster::Lean,
                ..ArenaParams::default()
            }),
        ),
    ]);
    rows
}
