//! The paper's query-set families (Section 3.1).

use crate::dataset::Dataset;
use asb_geom::{Point, Query, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Point queries or window queries of a given relative extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum QueryKind {
    /// Point queries.
    Point,
    /// Window queries; `ex` is "the reciprocal value of the extension of
    /// the query windows in one dimension": the window's x-extension is
    /// `1/ex` of the data space's x-extension (same for y). The paper uses
    /// ex ∈ {33, 100, 333, 1000}.
    Window {
        /// Reciprocal window extent.
        ex: u32,
    },
    /// Windows that keep the size of the selected database object
    /// (only used by the *identical* distribution's `ID-W` set).
    ObjectWindow,
}

/// The five distribution families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Distribution {
    /// `U-*`: query anchors uniform over the whole data space, including
    /// parts storing no objects.
    Uniform,
    /// `ID-*`: a random selection of objects stored in the database.
    Identical,
    /// `S-*`: random places (cities/towns) — functionally dependent on the
    /// data, like combining two layers of a map.
    Similar,
    /// `INT-*`: places weighted by the square root of their population.
    Intensified,
    /// `IND-*`: like similar, but with x-coordinates flipped, making query
    /// and data distributions independent.
    Independent,
}

impl Distribution {
    /// Paper prefix ("U", "ID", "S", "INT", "IND").
    pub fn prefix(&self) -> &'static str {
        match self {
            Distribution::Uniform => "U",
            Distribution::Identical => "ID",
            Distribution::Similar => "S",
            Distribution::Intensified => "INT",
            Distribution::Independent => "IND",
        }
    }
}

/// A query-set specification: distribution × query kind.
///
/// `generate` materializes the set deterministically from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct QuerySetSpec {
    /// The anchor distribution.
    pub dist: Distribution,
    /// Point or window queries.
    pub kind: QueryKind,
}

impl QuerySetSpec {
    /// `U-P`: uniformly distributed point queries.
    pub fn uniform_points() -> Self {
        QuerySetSpec {
            dist: Distribution::Uniform,
            kind: QueryKind::Point,
        }
    }

    /// `U-W-ex`: uniformly distributed window queries.
    pub fn uniform_windows(ex: u32) -> Self {
        QuerySetSpec {
            dist: Distribution::Uniform,
            kind: QueryKind::Window { ex },
        }
    }

    /// `ID-P`: point queries at stored objects.
    pub fn identical_points() -> Self {
        QuerySetSpec {
            dist: Distribution::Identical,
            kind: QueryKind::Point,
        }
    }

    /// `ID-W`: window queries that are stored objects' MBRs.
    pub fn identical_windows() -> Self {
        QuerySetSpec {
            dist: Distribution::Identical,
            kind: QueryKind::ObjectWindow,
        }
    }

    /// `S-P` / `S-W-ex`.
    pub fn similar(kind: QueryKind) -> Self {
        QuerySetSpec {
            dist: Distribution::Similar,
            kind,
        }
    }

    /// `INT-P` / `INT-W-ex`.
    pub fn intensified(kind: QueryKind) -> Self {
        QuerySetSpec {
            dist: Distribution::Intensified,
            kind,
        }
    }

    /// `IND-P` / `IND-W-ex`.
    pub fn independent(kind: QueryKind) -> Self {
        QuerySetSpec {
            dist: Distribution::Independent,
            kind,
        }
    }

    /// The paper's name for the set, e.g. `"U-W-33"`, `"INT-P"`, `"ID-W"`.
    pub fn name(&self) -> String {
        match self.kind {
            QueryKind::Point => format!("{}-P", self.dist.prefix()),
            QueryKind::Window { ex } => format!("{}-W-{}", self.dist.prefix(), ex),
            QueryKind::ObjectWindow => format!("{}-W", self.dist.prefix()),
        }
    }

    /// Parses a paper name back into its spec: the inverse of
    /// [`name`](QuerySetSpec::name). Only `ID-W` names object windows, so
    /// `U-W`, `S-W`, `INT-W` and `IND-W` are refused.
    pub fn from_name(name: &str) -> Option<Self> {
        let (prefix, rest) = name.split_once('-')?;
        let dist = [
            Distribution::Uniform,
            Distribution::Identical,
            Distribution::Similar,
            Distribution::Intensified,
            Distribution::Independent,
        ]
        .into_iter()
        .find(|d| d.prefix() == prefix)?;
        let kind = match rest {
            "P" => QueryKind::Point,
            "W" if dist == Distribution::Identical => QueryKind::ObjectWindow,
            w => QueryKind::Window {
                ex: w.strip_prefix("W-")?.parse().ok()?,
            },
        };
        Some(QuerySetSpec { dist, kind })
    }

    /// Generates `count` queries against `dataset`, deterministically from
    /// `seed`.
    pub fn generate(&self, dataset: &Dataset, count: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ED_2702_0000_0000);
        let bounds = dataset.bounds();
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            queries.push(self.generate_one(dataset, &bounds, &mut rng));
        }
        queries
    }

    fn generate_one(&self, dataset: &Dataset, bounds: &Rect, rng: &mut StdRng) -> Query {
        let anchor = match self.dist {
            Distribution::Uniform => Point::new(
                bounds.min.x + rng.gen::<f64>() * bounds.width(),
                bounds.min.y + rng.gen::<f64>() * bounds.height(),
            ),
            Distribution::Identical => {
                let items = dataset.items();
                let it = items[rng.gen_range(0..items.len())];
                // For ID-W the object itself is the window (handled below);
                // for ID-P the anchor is the object's center.
                if self.kind == QueryKind::ObjectWindow {
                    return Query::Window(it.mbr);
                }
                it.mbr.center()
            }
            Distribution::Similar => {
                let places = dataset.places();
                places[rng.gen_range(0..places.len())].location
            }
            Distribution::Intensified => {
                // Rejection sampling proportional to sqrt(population).
                let places = dataset.places();
                let max_weight = places
                    .iter()
                    .map(|p| p.population.sqrt())
                    .fold(0.0_f64, f64::max);
                loop {
                    let p = &places[rng.gen_range(0..places.len())];
                    if rng.gen::<f64>() * max_weight <= p.population.sqrt() {
                        break p.location;
                    }
                }
            }
            Distribution::Independent => {
                let places = dataset.places();
                let p = places[rng.gen_range(0..places.len())].location;
                p.flip_x(bounds.min.x, bounds.max.x)
            }
        };
        match self.kind {
            QueryKind::Point => Query::Point(anchor),
            QueryKind::Window { ex } => {
                let w = bounds.width() / ex as f64;
                let h = bounds.height() / ex as f64;
                // Keep the window inside the data space (clamp the center).
                let cx = anchor
                    .x
                    .clamp(bounds.min.x + w / 2.0, bounds.max.x - w / 2.0);
                let cy = anchor
                    .y
                    .clamp(bounds.min.y + h / 2.0, bounds.max.y - h / 2.0);
                Query::Window(Rect::centered(Point::new(cx, cy), w, h))
            }
            QueryKind::ObjectWindow => {
                // Only reachable for non-Identical distributions if
                // misconfigured; degrade to a point query on the anchor.
                Query::Point(anchor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, Scale};

    fn dataset() -> Dataset {
        Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42)
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(QuerySetSpec::uniform_points().name(), "U-P");
        assert_eq!(QuerySetSpec::uniform_windows(33).name(), "U-W-33");
        assert_eq!(QuerySetSpec::identical_windows().name(), "ID-W");
        assert_eq!(
            QuerySetSpec::intensified(QueryKind::Window { ex: 1000 }).name(),
            "INT-W-1000"
        );
        assert_eq!(QuerySetSpec::independent(QueryKind::Point).name(), "IND-P");
    }

    #[test]
    fn names_parse_back_to_their_spec() {
        // Every distribution x every kind the figures, benches and phase
        // workloads draw from (a superset of the sets they actually use).
        let kinds = [QueryKind::Point]
            .into_iter()
            .chain([1000, 333, 100, 33].map(|ex| QueryKind::Window { ex }));
        for kind in kinds {
            for make in [
                QuerySetSpec::similar,
                QuerySetSpec::intensified,
                QuerySetSpec::independent,
            ] {
                let s = make(kind);
                assert_eq!(QuerySetSpec::from_name(&s.name()), Some(s));
            }
            for dist in [Distribution::Uniform, Distribution::Identical] {
                let s = QuerySetSpec { dist, kind };
                assert_eq!(QuerySetSpec::from_name(&s.name()), Some(s));
            }
        }
        let s = QuerySetSpec::identical_windows();
        assert_eq!(QuerySetSpec::from_name(&s.name()), Some(s));
        // Only the identical distribution has object windows.
        for bad in [
            "", "U", "X-P", "U-Q", "U-W-", "U-W-x", "INT-W33", "U-W", "S-W", "INT-W", "IND-W",
        ] {
            assert_eq!(QuerySetSpec::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d = dataset();
        let a = QuerySetSpec::uniform_windows(100).generate(&d, 50, 7);
        let b = QuerySetSpec::uniform_windows(100).generate(&d, 50, 7);
        assert_eq!(a, b);
        let c = QuerySetSpec::uniform_windows(100).generate(&d, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn window_extent_is_one_over_ex() {
        let d = dataset();
        for q in QuerySetSpec::uniform_windows(33).generate(&d, 20, 3) {
            let Query::Window(w) = q else {
                panic!("expected windows")
            };
            assert!((w.width() - 1.0 / 33.0).abs() < 1e-12);
            assert!((w.height() - 1.0 / 33.0).abs() < 1e-12);
            assert!(d.bounds().contains(&w), "window must stay inside the space");
        }
    }

    #[test]
    fn identical_windows_are_object_mbrs() {
        let d = dataset();
        for q in QuerySetSpec::identical_windows().generate(&d, 50, 5) {
            let Query::Window(w) = q else {
                panic!("expected windows")
            };
            assert!(
                d.items().iter().any(|it| it.mbr == w),
                "window {w:?} is not a stored object"
            );
        }
    }

    #[test]
    fn identical_points_hit_objects() {
        let d = dataset();
        for q in QuerySetSpec::identical_points().generate(&d, 50, 5) {
            let Query::Point(p) = q else {
                panic!("expected points")
            };
            assert!(
                d.items().iter().any(|it| it.mbr.contains_point(&p)),
                "point {p:?} does not hit any object"
            );
        }
    }

    #[test]
    fn similar_queries_are_at_places() {
        let d = dataset();
        for q in QuerySetSpec::similar(QueryKind::Point).generate(&d, 30, 9) {
            let Query::Point(p) = q else { panic!() };
            assert!(d.places().iter().any(|pl| pl.location == p));
        }
    }

    #[test]
    fn intensified_is_more_skewed_than_similar() {
        let d = dataset();
        let n = 4000;
        let mut by_pop: Vec<_> = d.places().to_vec();
        by_pop.sort_by(|a, b| b.population.partial_cmp(&a.population).unwrap());
        let top_places: Vec<Point> = by_pop.iter().take(20).map(|p| p.location).collect();
        let count_top = |queries: &[Query]| {
            queries
                .iter()
                .filter(|q| {
                    let Query::Point(p) = q else { return false };
                    top_places.contains(p)
                })
                .count()
        };
        let similar = QuerySetSpec::similar(QueryKind::Point).generate(&d, n, 1);
        let intensified = QuerySetSpec::intensified(QueryKind::Point).generate(&d, n, 1);
        assert!(
            count_top(&intensified) > 2 * count_top(&similar),
            "intensified {} vs similar {}",
            count_top(&intensified),
            count_top(&similar)
        );
    }

    #[test]
    fn independent_queries_are_flipped_places() {
        let d = dataset();
        for q in QuerySetSpec::independent(QueryKind::Point).generate(&d, 30, 2) {
            let Query::Point(p) = q else { panic!() };
            let back = p.flip_x(0.0, 1.0);
            // Un-flipping is only exact up to floating-point rounding.
            assert!(d
                .places()
                .iter()
                .any(|pl| { (pl.location.x - back.x).abs() < 1e-12 && pl.location.y == back.y }));
        }
    }

    #[test]
    fn uniform_covers_empty_space_too() {
        // Some uniform anchors must fall outside the mainland (ocean).
        let d = dataset();
        let queries = QuerySetSpec::uniform_points().generate(&d, 500, 3);
        let misses = queries
            .iter()
            .filter(|q| {
                let Query::Point(p) = q else { return false };
                !d.items().iter().any(|it| it.mbr.min_dist(p) < 0.02)
            })
            .count();
        assert!(
            misses > 0,
            "uniform queries should also hit object-free areas"
        );
    }
}
