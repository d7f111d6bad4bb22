//! Synthetic spatial databases standing in for the paper's two datasets.

use asb_geom::{Point, Rect, SpatialItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution as _, Normal};
use serde::Serialize;

/// Which of the paper's two databases to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetKind {
    /// Database 1: geographic features of a mainland (GNIS-like) —
    /// clustered points and small extended objects inside one irregular
    /// continent outline.
    Mainland,
    /// Database 2: a world atlas — several continents covering ~30 % of the
    /// data space, mixing line features (thin MBRs) and area features.
    World,
}

/// Dataset size presets. Relative buffer sizes (the paper's 0.3 %–4.7 %)
/// make results comparable across scales; the paper itself argues "because
/// of using relative buffer sizes, the results … should hold for the case of
/// larger databases and buffers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scale {
    /// ~2 000 objects — unit tests and doctests.
    Tiny,
    /// ~20 000 objects — quick experiments and CI.
    Small,
    /// ~120 000 objects — the default for reproducing the figures.
    Medium,
    /// ~480 000 objects — closer to the paper's database sizes.
    Large,
    /// The paper's sizes (1 641 079 / 572 694 objects). Slow to build.
    Paper,
}

impl Scale {
    /// Parses a preset name as the command lines spell it: the variant
    /// name in lower case (`"tiny"` … `"paper"`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            "large" => Scale::Large,
            "paper" => Scale::Paper,
            _ => return None,
        })
    }

    /// Number of objects for the given dataset kind (database 2 has ~35 %
    /// of database 1's objects, mirroring the paper).
    pub fn objects(&self, kind: DatasetKind) -> usize {
        let mainland = match self {
            Scale::Tiny => 2_000,
            Scale::Small => 20_000,
            Scale::Medium => 120_000,
            Scale::Large => 480_000,
            Scale::Paper => 1_641_079,
        };
        match kind {
            DatasetKind::Mainland => mainland,
            DatasetKind::World => {
                if *self == Scale::Paper {
                    572_694
                } else {
                    (mainland as f64 * 0.35) as usize
                }
            }
        }
    }

    /// Number of places (cities) accompanying the dataset.
    pub fn places(&self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Small => 1_000,
            Scale::Medium => 4_000,
            Scale::Large => 10_000,
            Scale::Paper => 20_000,
        }
    }
}

/// A populated place (city/town), the unit of the similar, intensified and
/// independent query distributions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Place {
    /// Location of the place.
    pub location: Point,
    /// Population (Zipf-distributed; query weighting uses its square root).
    pub population: f64,
}

/// A synthetic spatial database plus the metadata the query generators need.
///
/// ```
/// use asb_workload::{Dataset, DatasetKind, QuerySetSpec, Scale};
///
/// let db = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
/// assert_eq!(db.items().len(), 2_000);
/// assert!(!db.places().is_empty());
///
/// // Query sets are derived deterministically from the dataset.
/// let queries = QuerySetSpec::uniform_windows(33).generate(&db, 100, 7);
/// assert_eq!(queries.len(), 100);
/// assert_eq!(queries, QuerySetSpec::uniform_windows(33).generate(&db, 100, 7));
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    bounds: Rect,
    items: Vec<SpatialItem>,
    places: Vec<Place>,
}

/// The data space. A unit square keeps window-extent arithmetic (1/ex of
/// the space) trivial.
const BOUNDS: Rect = Rect {
    min: Point::new(0.0, 0.0),
    max: Point::new(1.0, 1.0),
};

impl Dataset {
    /// Generates a dataset deterministically from `seed`.
    pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let n = scale.objects(kind);
        let regions = match kind {
            DatasetKind::Mainland => vec![Blob::mainland()],
            DatasetKind::World => Blob::continents(),
        };
        let clusters = make_clusters(&mut rng, &regions, n);
        let items = make_items(&mut rng, kind, &clusters, &regions, n);
        let places = make_places(&mut rng, &clusters, &regions, scale.places());
        Dataset {
            kind,
            scale,
            seed,
            bounds: BOUNDS,
            items,
            places,
        }
    }

    /// The dataset kind.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The dataset scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The data space (always the unit square).
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The spatial objects.
    pub fn items(&self) -> &[SpatialItem] {
        &self.items
    }

    /// The accompanying places list.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Deterministic simulated size, in bytes, of the *exact
    /// representation* of object `id` — what an object page would store
    /// (paper, Fig. 1). Point features are small (a coordinate pair plus
    /// attributes); extended features carry vertex lists with a heavy-ish
    /// tail, mirroring real polyline/polygon data.
    pub fn payload_len(&self, id: u64) -> usize {
        let item = &self.items[id as usize % self.items.len()];
        let mut h = id ^ self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        if item.mbr.area() == 0.0 && item.mbr.margin() == 0.0 {
            // Point feature: fixed small record.
            24 + (h % 17) as usize
        } else {
            // Extended feature: 16 bytes per vertex, 4..120 vertices with a
            // heavy tail.
            let tail = 4 + (h % 32) + ((h >> 8) % 8) * ((h >> 16) % 12);
            16 * (tail as usize).min(120)
        }
    }
}

/// An elliptic blob with an irregular, deterministic boundary — one
/// continent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Blob {
    center: Point,
    rx: f64,
    ry: f64,
    /// Phase of the boundary wobble (varies the coastline per continent).
    phase: f64,
    /// Relative weight when distributing objects over continents.
    weight: f64,
}

impl Blob {
    fn mainland() -> Blob {
        Blob {
            center: Point::new(0.5, 0.48),
            rx: 0.40,
            ry: 0.30,
            phase: 1.7,
            weight: 1.0,
        }
    }

    /// A handful of continents covering roughly a third of the space,
    /// biased towards the west half so the x-flip of the independent
    /// distribution lands mostly on water.
    fn continents() -> Vec<Blob> {
        vec![
            Blob {
                center: Point::new(0.22, 0.70),
                rx: 0.16,
                ry: 0.14,
                phase: 0.3,
                weight: 0.30,
            },
            Blob {
                center: Point::new(0.30, 0.35),
                rx: 0.10,
                ry: 0.17,
                phase: 2.1,
                weight: 0.20,
            },
            Blob {
                center: Point::new(0.55, 0.62),
                rx: 0.11,
                ry: 0.10,
                phase: 4.0,
                weight: 0.22,
            },
            Blob {
                center: Point::new(0.62, 0.28),
                rx: 0.09,
                ry: 0.09,
                phase: 5.2,
                weight: 0.13,
            },
            Blob {
                center: Point::new(0.84, 0.52),
                rx: 0.07,
                ry: 0.10,
                phase: 0.9,
                weight: 0.11,
            },
            Blob {
                center: Point::new(0.86, 0.16),
                rx: 0.05,
                ry: 0.05,
                phase: 3.3,
                weight: 0.04,
            },
        ]
    }

    /// Irregular radius multiplier in direction `theta` (the "coastline").
    fn radius_at(&self, theta: f64) -> f64 {
        1.0 + 0.18 * (3.0 * theta + self.phase).sin()
            + 0.09 * (7.0 * theta + 2.0 * self.phase).sin()
    }

    /// Whether `p` lies on this continent.
    pub(crate) fn contains(&self, p: &Point) -> bool {
        let dx = (p.x - self.center.x) / self.rx;
        let dy = (p.y - self.center.y) / self.ry;
        let r = (dx * dx + dy * dy).sqrt();
        if r == 0.0 {
            return true;
        }
        let theta = dy.atan2(dx);
        r <= self.radius_at(theta)
    }

    /// A uniformly random point inside the blob (rejection sampling).
    fn sample_inside(&self, rng: &mut StdRng) -> Point {
        loop {
            let p = Point::new(
                self.center.x + (rng.gen::<f64>() * 2.0 - 1.0) * self.rx * 1.3,
                self.center.y + (rng.gen::<f64>() * 2.0 - 1.0) * self.ry * 1.3,
            );
            if self.contains(&p) && BOUNDS.contains_point(&p) {
                return p;
            }
        }
    }
}

fn land_contains(regions: &[Blob], p: &Point) -> bool {
    regions.iter().any(|b| b.contains(p))
}

#[derive(Debug, Clone, Copy)]
struct Cluster {
    center: Point,
    sigma: f64,
    weight: f64,
    /// Metro cores: compact, object-dense city centers that host the
    /// top-population places. Geographically tiny (their pages fit any
    /// buffer) yet dense (their pages have small MBRs) — the paper's
    /// "areas of intensified interest".
    is_metro: bool,
}

/// Population clusters: where both the objects and the places concentrate.
///
/// Besides the organic Zipf-weighted clusters, a few *metro cores* are
/// planted: each receives ~1 % of the objects within a very small radius.
fn make_clusters(rng: &mut StdRng, regions: &[Blob], n: usize) -> Vec<Cluster> {
    let count = ((n as f64).sqrt() / 3.0).ceil().max(8.0) as usize;
    let total_region_weight: f64 = regions.iter().map(|b| b.weight).sum();
    let pick_blob = |rng: &mut StdRng| {
        let mut pick = rng.gen::<f64>() * total_region_weight;
        for b in regions {
            pick -= b.weight;
            if pick <= 0.0 {
                return *b;
            }
        }
        regions[regions.len() - 1]
    };
    let mut clusters = Vec::with_capacity(count + METRO_COUNT);
    let mut organic_weight = 0.0;
    for i in 0..count {
        let blob = pick_blob(rng);
        let center = blob.sample_inside(rng);
        // Zipf-ish cluster weights: a few large regions, many hamlets.
        let weight = 1.0 / (i as f64 + 1.0).powf(0.8);
        organic_weight += weight;
        let sigma = blob.rx.min(blob.ry) * (0.04 + rng.gen::<f64>() * 0.12);
        clusters.push(Cluster {
            center,
            sigma,
            weight,
            is_metro: false,
        });
    }
    for _ in 0..METRO_COUNT {
        let blob = pick_blob(rng);
        let center = blob.sample_inside(rng);
        clusters.push(Cluster {
            center,
            sigma: 0.003,
            weight: organic_weight * 0.012,
            is_metro: true,
        });
    }
    clusters
}

/// Number of planted metro cores.
const METRO_COUNT: usize = 3;

fn pick_cluster<'a>(rng: &mut StdRng, clusters: &'a [Cluster], total: f64) -> &'a Cluster {
    let mut pick = rng.gen::<f64>() * total;
    for c in clusters {
        pick -= c.weight;
        if pick <= 0.0 {
            return c;
        }
    }
    clusters.last().expect("clusters are never empty")
}

fn make_items(
    rng: &mut StdRng,
    kind: DatasetKind,
    clusters: &[Cluster],
    regions: &[Blob],
    n: usize,
) -> Vec<SpatialItem> {
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let mut items = Vec::with_capacity(n);
    // A third of the objects scatter uniformly over land ("rural"
    // features); the rest follow the clusters.
    let scattered_share = 0.33;
    for id in 0..n as u64 {
        let center = if rng.gen::<f64>() < scattered_share {
            sample_on_land(rng, regions)
        } else {
            let c = pick_cluster(rng, clusters, total_weight);
            let normal_x = Normal::new(c.center.x, c.sigma).expect("finite sigma");
            let normal_y = Normal::new(c.center.y, c.sigma).expect("finite sigma");
            let mut tries = 0;
            loop {
                let p = Point::new(normal_x.sample(rng), normal_y.sample(rng));
                if land_contains(regions, &p) && BOUNDS.contains_point(&p) {
                    break p;
                }
                tries += 1;
                if tries > 64 {
                    break c.center;
                }
            }
        };
        let mbr = sample_extent(rng, kind, center);
        items.push(SpatialItem::new(id, mbr));
    }
    items
}

fn sample_on_land(rng: &mut StdRng, regions: &[Blob]) -> Point {
    let total: f64 = regions.iter().map(|b| b.weight).sum();
    let mut pick = rng.gen::<f64>() * total;
    for b in regions {
        pick -= b.weight;
        if pick <= 0.0 {
            return b.sample_inside(rng);
        }
    }
    regions[regions.len() - 1].sample_inside(rng)
}

/// Object footprints. Database 1 mixes points (GNIS is point-heavy) with
/// small extended objects; database 2 mixes line features (thin, elongated
/// MBRs) with area features.
fn sample_extent(rng: &mut StdRng, kind: DatasetKind, center: Point) -> Rect {
    let roll: f64 = rng.gen();
    let (w, h) = match kind {
        DatasetKind::Mainland => {
            if roll < 0.7 {
                (0.0, 0.0) // point feature
            } else {
                // Extended feature with a heavy-ish tail, capped small.
                let s = 0.0004 * (1.0 / (1.0 - rng.gen::<f64>() * 0.98)).min(20.0);
                (s * (0.5 + rng.gen::<f64>()), s * (0.5 + rng.gen::<f64>()))
            }
        }
        DatasetKind::World => {
            let s = 0.0008 * (1.0 / (1.0 - rng.gen::<f64>() * 0.98)).min(25.0);
            if roll < 0.55 {
                // Line feature: elongated thin MBR.
                if rng.gen::<bool>() {
                    (s * 4.0, s * 0.3)
                } else {
                    (s * 0.3, s * 4.0)
                }
            } else {
                // Area feature.
                (s * (0.5 + rng.gen::<f64>()), s * (0.5 + rng.gen::<f64>()))
            }
        }
    };
    Rect::centered(center, w, h)
}

/// Places concentrate in the clusters; populations follow a Zipf law **per
/// cluster**, scaled by the cluster's weight, so the biggest cities sit in
/// the heaviest (= densest) clusters. This correlation is what makes the
/// intensified distribution adversarial for spatial replacement, exactly as
/// the paper explains: "areas of intensified interest are not characterized
/// by large page areas; typically, the opposite case occurs" — dense areas
/// have small pages.
fn make_places(
    rng: &mut StdRng,
    clusters: &[Cluster],
    regions: &[Blob],
    count: usize,
) -> Vec<Place> {
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let mut cities_in_cluster = vec![0usize; clusters.len()];
    let mut places = Vec::with_capacity(count);
    for _ in 0..count {
        let (idx, c) = {
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut chosen = clusters.len() - 1;
            for (i, c) in clusters.iter().enumerate() {
                pick -= c.weight;
                if pick <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            (chosen, &clusters[chosen])
        };
        let normal_x = Normal::new(c.center.x, c.sigma * 1.5).expect("finite sigma");
        let normal_y = Normal::new(c.center.y, c.sigma * 1.5).expect("finite sigma");
        let mut location = c.center;
        for _ in 0..64 {
            let p = Point::new(normal_x.sample(rng), normal_y.sample(rng));
            if land_contains(regions, &p) && BOUNDS.contains_point(&p) {
                location = p;
                break;
            }
        }
        // Zipf population per cluster, scaled by the cluster's weight: the
        // heaviest cluster's first city is the metropolis.
        cities_in_cluster[idx] += 1;
        let local_rank = cities_in_cluster[idx] as f64;
        // Metro places are the big cities; everywhere else populations are
        // small towns. The rank^2 decay makes the square-root query
        // weighting of the intensified distribution harmonic (1/rank), so
        // the metro cores carry the bulk of the intensified query mass —
        // concentrated enough that LRU caches their (few, small) pages
        // while the spatial policy keeps evicting them: the paper's
        // "areas of intensified interest" effect. Populations are clamped
        // to at least one inhabitant.
        let base = if c.is_metro { 8_000_000.0 } else { 80_000.0 };
        let population = (base / local_rank.powi(2)).max(1.0);
        places.push(Place {
            location,
            population,
        });
    }
    places
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
        let b = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
        assert_eq!(a.items(), b.items());
        assert_eq!(a.places(), b.places());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 1);
        let b = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 2);
        assert_ne!(a.items(), b.items());
    }

    #[test]
    fn scale_names_are_the_lower_case_variant_names() {
        for scale in [
            Scale::Tiny,
            Scale::Small,
            Scale::Medium,
            Scale::Large,
            Scale::Paper,
        ] {
            let name = format!("{scale:?}").to_lowercase();
            assert_eq!(Scale::from_name(&name), Some(scale));
        }
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn object_counts_match_scale() {
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 7);
        assert_eq!(d.items().len(), Scale::Tiny.objects(DatasetKind::Mainland));
        assert_eq!(d.places().len(), Scale::Tiny.places());
        let w = Dataset::generate(DatasetKind::World, Scale::Tiny, 7);
        assert_eq!(w.items().len(), Scale::Tiny.objects(DatasetKind::World));
        assert!(w.items().len() < d.items().len());
    }

    #[test]
    fn items_stay_inside_bounds_envelope() {
        for kind in [DatasetKind::Mainland, DatasetKind::World] {
            let d = Dataset::generate(kind, Scale::Tiny, 3);
            for it in d.items() {
                let c = it.mbr.center();
                assert!(
                    d.bounds().contains_point(&c),
                    "{kind:?}: center {c:?} outside"
                );
            }
        }
    }

    #[test]
    fn mainland_leaves_ocean_margins_empty() {
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Small, 11);
        // Corners of the unit square are ocean: no object centers there.
        let corner = Rect::new(0.0, 0.0, 0.04, 0.04);
        let in_corner = d
            .items()
            .iter()
            .filter(|it| corner.contains_point(&it.mbr.center()))
            .count();
        assert_eq!(in_corner, 0, "ocean corner should be empty");
    }

    #[test]
    fn world_covers_a_minority_of_the_space() {
        // Monte-Carlo estimate of land coverage: must be well below half,
        // so the x-flip of the independent query set mostly misses land.
        let regions = Blob::continents();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        let total = 20_000;
        for _ in 0..total {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            if land_contains(&regions, &p) {
                hits += 1;
            }
        }
        let coverage = hits as f64 / total as f64;
        assert!(coverage > 0.15 && coverage < 0.45, "coverage {coverage}");
    }

    #[test]
    fn world_flip_mostly_misses_land() {
        // The defining property for Figure 9: flipping x of land points
        // lands on water more often than not.
        let d = Dataset::generate(DatasetKind::World, Scale::Tiny, 9);
        let regions = Blob::continents();
        let flipped_on_land = d
            .places()
            .iter()
            .filter(|pl| {
                let f = pl.location.flip_x(0.0, 1.0);
                land_contains(&regions, &f)
            })
            .count();
        let frac = flipped_on_land as f64 / d.places().len() as f64;
        assert!(
            frac < 0.5,
            "flipped-on-land fraction {frac} should be a minority"
        );
    }

    #[test]
    fn populations_are_zipf_like() {
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 13);
        let pops: Vec<f64> = d.places().iter().map(|p| p.population).collect();
        let max = pops.iter().copied().fold(0.0_f64, f64::max);
        let min = pops.iter().copied().fold(f64::INFINITY, f64::min);
        // Strongly skewed (Zipf-like): orders of magnitude between the
        // metropolis and the smallest hamlet.
        assert!(max > 50.0 * min, "max {max} vs min {min}");
    }

    #[test]
    fn objects_are_clustered_not_uniform() {
        // Chi-square-ish check: split the space into a 10x10 grid; the
        // occupancy variance of a clustered distribution is far above the
        // uniform expectation.
        let d = Dataset::generate(DatasetKind::Mainland, Scale::Small, 17);
        let mut counts = [0usize; 100];
        for it in d.items() {
            let c = it.mbr.center();
            let gx = (c.x * 10.0).min(9.0) as usize;
            let gy = (c.y * 10.0).min(9.0) as usize;
            counts[gy * 10 + gx] += 1;
        }
        let n = d.items().len() as f64;
        let mean = n / 100.0;
        let var: f64 = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / 100.0;
        // Uniform data would have var ≈ mean (Poisson); clusters inflate it.
        assert!(var > 4.0 * mean, "variance {var} vs mean {mean}");
    }

    #[test]
    fn extended_objects_are_small_relative_to_space() {
        let d = Dataset::generate(DatasetKind::World, Scale::Tiny, 23);
        for it in d.items() {
            assert!(it.mbr.width() < 0.15, "object too wide: {:?}", it.mbr);
            assert!(it.mbr.height() < 0.15);
        }
    }
}
