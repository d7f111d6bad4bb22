//! Extension experiments beyond the paper's figures.
//!
//! The paper grounds its page-entry notion in three access methods (R-tree,
//! quadtree, z-value B-tree) and a three-tier page taxonomy (directory /
//! data / object pages), but evaluates only the R\*-tree's tree pages.
//! These experiments close that gap:
//!
//! * [`ext_object_pages`] — the full access path including object pages,
//!   which is where the *type-based* LRU's third category finally matters;
//! * [`ext_cross_sam`] — the same replacement policies on the quadtree and
//!   the z-order B⁺-tree, testing the paper's implicit claim that spatial
//!   replacement criteria generalize across spatial access methods;
//! * [`ext_moving_objects`] — continuously moving objects.
//!
//! The `ablate-*` experiments cover what the paper names as future work:
//! the influence of ASB's two fixed parameters ([`ablate_overflow`],
//! [`ablate_step`]), random against sequential I/O ([`ablate_io`]), and the
//! influence of the strategies on spatial joins and updates
//! ([`ablate_join`], [`ablate_updates`]).
//!
//! Every experiment is a function of `(scale, seed)` alone and is reached
//! through [`EXTENSIONS`] — `repro --ext NAME --scale S --seed N`. Each
//! records its reference string once, on an unbuffered index, and replays
//! it per policy ([`Trace`]); the two update workloads ([`moving_churn`],
//! [`update_churn`]) record their writes with their reads.

use crate::lab::{Lab, LARGEST_BUFFER_FRAC};
use crate::report::{FigureTable, Series};
use crate::trace::Trace;
use asb_core::{AsbParams, PolicyKind, SpatialCriterion};
use asb_geom::{Point, Query, Rect, SpatialItem};
use asb_quadtree::QuadTree;
use asb_rtree::{spatial_join, RTree};
use asb_storage::{
    DiskManager, ObjectRecord, ObjectStore, PageStore, RecordingStore, Result, StorageError,
};
use asb_workload::{Dataset, DatasetKind, QueryKind, QuerySetSpec, Scale};
use asb_zbtree::ZBTree;
use bytes::Bytes;

/// LRU (always first: it is the baseline) and the three informed policies
/// the extensions compare against it.
const CONTENDERS: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::LruK { k: 2 },
    PolicyKind::Spatial(SpatialCriterion::Area),
    PolicyKind::Asb,
];

/// [`CONTENDERS`] plus LRU-T, whose "drop object pages first" rule object
/// pages make observable. LRU-P is left out: it ranks only directory
/// levels differently from LRU-T, and no replay here evicts a directory
/// page (see [`ext_object_pages`]), so its column would repeat LRU-T's.
const OBJECT_PAGE_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Lru,
    PolicyKind::LruT,
    PolicyKind::LruK { k: 2 },
    PolicyKind::Spatial(SpatialCriterion::Area),
    PolicyKind::Asb,
];

/// The paper's gain of a run over LRU's, from their disk reads, in percent.
pub(crate) fn gain_vs_lru(lru_reads: u64, reads: u64) -> f64 {
    (lru_reads as f64 / reads as f64 - 1.0) * 100.0
}

/// The buffer of the object-page, cross-SAM and moving-object experiments:
/// 4.7 % of `pages`, at least 8 frames.
fn largest_buffer(pages: usize) -> usize {
    ((pages as f64) * LARGEST_BUFFER_FRAC).round().max(8.0) as usize
}

/// Replays `trace` through each of `policies` — LRU first — at `capacity`
/// frames: one gain over LRU per policy.
fn gains_vs_lru(trace: &Trace, capacity: usize, policies: &[PolicyKind]) -> Result<Vec<f64>> {
    let jobs: Vec<_> = policies.iter().map(|&p| (trace, p, capacity)).collect();
    let outcomes = Trace::replay_all(&jobs)?;
    let reads: Vec<u64> = outcomes.iter().map(|out| out.io.reads).collect();
    Ok(reads.iter().map(|&r| gain_vs_lru(reads[0], r)).collect())
}

fn query_sets() -> Vec<QuerySetSpec> {
    vec![
        QuerySetSpec::uniform_windows(33),
        QuerySetSpec::identical_points(),
        QuerySetSpec::similar(QueryKind::Window { ex: 100 }),
        QuerySetSpec::intensified(QueryKind::Point),
    ]
}

/// Gain vs LRU when every query also fetches the object pages of its
/// results — the paper's full storage architecture (Fig. 1) in action.
///
/// With object pages in the access stream, LRU-T's "drop object pages
/// first" rule becomes observable. LRU-P would add nothing: at tiny, small
/// and medium scale neither it nor LRU-T evicts a single directory page on
/// any of the four query sets (there is always an object or data page to
/// drop first), and directory levels are the only pages the two rank
/// differently, so their columns were equal.
fn ext_object_pages(scale: Scale, seed: u64) -> Result<FigureTable> {
    let dataset = Dataset::generate(DatasetKind::Mainland, scale, seed);
    // Build object pages in item (≈ spatial) order, then the tree on top of
    // the same simulated disk, then connect the leaf entries.
    let mut disk = DiskManager::new();
    let records: Vec<ObjectRecord> = dataset
        .items()
        .iter()
        .map(|it| ObjectRecord {
            id: it.id,
            mbr: it.mbr,
            payload: Bytes::from(vec![0u8; dataset.payload_len(it.id)]),
        })
        .collect();
    let objects = ObjectStore::build(&mut disk, &records)?;
    let mut tree = RTree::bulk_load(Trace::recorder(disk), dataset.items())?;
    tree.assign_object_pages(|id| objects.page_of(id))?;

    let buffer_pages = largest_buffer(tree.page_count());
    let mut series = OBJECT_PAGE_POLICIES.map(|policy| Series {
        name: policy.label(),
        points: Vec::new(),
    });
    for spec in query_sets() {
        let queries = spec.generate(&dataset, 1200, seed ^ 0xB0B0);
        let trace = Trace::record_on(spec.name(), &mut tree, RTree::store, |t| {
            queries
                .iter()
                .try_for_each(|q| t.execute_fetching_objects(q).map(drop))
        })?;
        let gains = gains_vs_lru(&trace, buffer_pages, &OBJECT_PAGE_POLICIES)?;
        for (s, gain) in series.iter_mut().zip(gains) {
            s.points.push((spec.name(), gain));
        }
    }
    Ok(FigureTable {
        id: "ext-object-pages".into(),
        title: format!(
            "Full access path incl. object pages, database 1, 4.7% buffer, scale {scale:?}"
        ),
        x_label: "query set".into(),
        y_label: "gain vs LRU [%]".into(),
        series: series.into(),
    })
}

/// Records U-W-33 on `sam` once and replays it through the [`CONTENDERS`]
/// at a buffer of 4.7 % of its pages: one gain over LRU per contender.
fn sam_gains<T>(
    mut sam: T,
    store: fn(&T) -> &RecordingStore<DiskManager>,
    execute: fn(&mut T, &Query) -> Result<Vec<u64>>,
    queries: &[Query],
) -> Result<Vec<f64>> {
    let buffer = largest_buffer(store(&sam).page_count());
    let trace = Trace::record_on("U-W-33".into(), &mut sam, store, |t| {
        queries.iter().try_for_each(|q| execute(t, q).map(drop))
    })?;
    gains_vs_lru(&trace, buffer, &CONTENDERS)
}

/// Gain vs LRU of the spatial policy A, LRU-2 and ASB on three different
/// spatial access methods over the same dataset and uniform window queries.
fn ext_cross_sam(scale: Scale, seed: u64) -> Result<FigureTable> {
    let dataset = Dataset::generate(DatasetKind::Mainland, scale, seed);
    let queries = QuerySetSpec::uniform_windows(33).generate(&dataset, 1500, seed ^ 0x5A11);
    let centers: Vec<(u64, Point)> = dataset
        .items()
        .iter()
        .map(|it| (it.id, it.mbr.center()))
        .collect();
    let disk = || Trace::recorder(DiskManager::new());

    let rtree = RTree::bulk_load(disk(), dataset.items())?;
    let rtree_points = sam_gains(rtree, RTree::store, RTree::execute, &queries)?;
    // Quadtree (same MBR data).
    let quad = QuadTree::build(disk(), dataset.bounds(), dataset.items())?;
    let quad_points = sam_gains(quad, QuadTree::store, QuadTree::execute, &queries)?;
    // Z-order B+-tree (indexes object centers; same windows,
    // point-in-window semantics).
    let zb = ZBTree::bulk_load(disk(), dataset.bounds(), &centers)?;
    let zb_points = sam_gains(zb, ZBTree::store, ZBTree::execute, &queries)?;

    // One series per contender but the baseline, one x-position per SAM.
    let mut series = Vec::new();
    for (i, policy) in CONTENDERS.iter().enumerate().skip(1) {
        let points = vec![
            ("R*-tree".to_string(), rtree_points[i]),
            ("Quadtree".to_string(), quad_points[i]),
            ("Z-B+tree".to_string(), zb_points[i]),
        ];
        series.push(Series {
            name: policy.label(),
            points,
        });
    }
    Ok(FigureTable {
        id: "ext-cross-sam".into(),
        title: format!(
            "Replacement policies across spatial access methods, U-W-33, 4.7% buffers, scale {scale:?}"
        ),
        x_label: "spatial access method".into(),
        y_label: "gain vs LRU [%]".into(),
        series,
    })
}

/// Database 1 and the 400 U-W-100 queries of both update experiments.
fn update_inputs(scale: Scale, seed: u64) -> (Dataset, Vec<Query>) {
    let dataset = Dataset::generate(DatasetKind::Mainland, scale, seed);
    let queries = QuerySetSpec::uniform_windows(100).generate(&dataset, 400, seed ^ 0x30B1);
    (dataset, queries)
}

/// Records `churn` once on an unbuffered R\*-tree over `items` and replays
/// it through the [`CONTENDERS`] at `frames(its pages)`: per contender the
/// first `rows.len()` of gain over LRU, disk reads and disk writes.
fn churn_series(
    items: &[SpatialItem],
    frames: fn(usize) -> usize,
    rows: &[&str],
    churn: impl FnOnce(&mut RTree<RecordingStore<DiskManager>>) -> Result<()>,
) -> Result<Vec<Series>> {
    let mut tree = RTree::bulk_load(Trace::recorder(DiskManager::new()), items)?;
    let trace = Trace::record_on("churn".into(), &mut tree, RTree::store, churn)?;
    let frames = frames(trace.pages.len());
    let outcomes = Trace::replay_all(&CONTENDERS.map(|policy| (&trace, policy, frames)))?;
    let series = std::iter::zip(CONTENDERS, &outcomes).map(|(policy, out)| {
        let io = out.io;
        let gain = gain_vs_lru(outcomes[0].io.reads, io.reads);
        let values = [gain, io.reads as f64, io.writes as f64];
        let points = std::iter::zip(rows, values).map(|(row, v)| (row.to_string(), v));
        Series {
            name: policy.label(),
            points: points.collect(),
        }
    });
    Ok(series.collect())
}

/// Future work 3: continuously moving objects. A fraction of the objects
/// moves every round (delete + re-insert at the new location) while window
/// queries keep arriving; policies are compared on total disk reads.
fn ext_moving_objects(scale: Scale, seed: u64) -> Result<FigureTable> {
    let (dataset, queries) = update_inputs(scale, seed);
    let items = dataset.items();
    let series = churn_series(items, largest_buffer, &["moving", "reads"], |tree| {
        moving_churn(tree, items, &queries).map(drop)
    })?;
    Ok(FigureTable {
        id: "ext-moving".into(),
        title: format!(
            "Moving-object workload (updates + queries), database 1, 4.7% buffer, scale {scale:?}"
        ),
        x_label: "metric".into(),
        y_label: "gain vs LRU [%] / raw reads".into(),
        series,
    })
}

/// The workload of `repro --ext moving` on a `tree` of all `items`: per
/// query eight objects moved before the query runs. A move deletes the
/// object where it is (an error if it is not there) and re-inserts it at
/// the mirror image of that place, shifted right by one of seven steps.
/// Returns the number of moves that relocated their object.
pub fn moving_churn<S: PageStore>(
    tree: &mut RTree<S>,
    items: &[SpatialItem],
    queries: &[Query],
) -> Result<usize> {
    let mut current: Vec<Rect> = items.iter().map(|it| it.mbr).collect();
    let (mut mover, mut moves) = (0usize, 0usize);
    for (round, q) in queries.iter().enumerate() {
        for k in 0..8usize {
            let idx = (mover + k * 131) % items.len();
            let (id, at) = (items[idx].id, current[idx]);
            let step = 0.002 + 0.004 * ((round + k) % 7) as f64;
            let mirror = at.flip_x(0.0, 1.0);
            let moved = Rect::new(
                (mirror.min.x + step).min(0.999),
                mirror.min.y,
                (mirror.max.x + step).min(1.0),
                mirror.max.y,
            );
            if !tree.delete(id, &at)? {
                return Err(StorageError::InvalidInput {
                    reason: format!("moving object {id} is not at {at:?}"),
                });
            }
            tree.insert(SpatialItem::new(id, moved))?;
            moves += usize::from(moved != at);
            current[idx] = moved;
        }
        mover = (mover + 1009) % items.len();
        tree.execute(q)?;
    }
    Ok(moves)
}

/// Gain of ASB over LRU on database 1 at the 4.7 % buffer: one row per
/// parameter setting, one column per query set.
fn asb_sweep(
    scale: Scale,
    seed: u64,
    id: &str,
    knob: &str,
    sets: &[QuerySetSpec],
    settings: &[(String, AsbParams)],
) -> Result<FigureTable> {
    let mut lab = Lab::new(scale, seed);
    let mut series = Vec::new();
    for &spec in sets {
        let mut points = Vec::new();
        for (label, params) in settings {
            let gain = lab.gain(
                DatasetKind::Mainland,
                PolicyKind::AsbWith(*params),
                LARGEST_BUFFER_FRAC,
                spec,
            )?;
            points.push((label.clone(), gain));
        }
        series.push(Series {
            name: spec.name(),
            points,
        });
    }
    Ok(FigureTable {
        id: id.into(),
        title: format!("ASB {knob}, database 1, 4.7% buffer, scale {scale:?}"),
        x_label: knob.into(),
        y_label: "gain vs LRU [%]".into(),
        series,
    })
}

/// Future work 1: the size of ASB's overflow buffer, which the paper fixes
/// at 20 % of the buffer. 5 settings (5 – 40 %) × 3 query sets.
fn ablate_overflow(scale: Scale, seed: u64) -> Result<FigureTable> {
    let settings = [0.05, 0.1, 0.2, 0.3, 0.4].map(|overflow_fraction| {
        (
            format!("{:.0}%", overflow_fraction * 100.0),
            AsbParams {
                overflow_fraction,
                ..AsbParams::default()
            },
        )
    });
    asb_sweep(
        scale,
        seed,
        "ablate-overflow",
        "overflow share",
        &[
            QuerySetSpec::uniform_windows(33),
            QuerySetSpec::intensified(QueryKind::Point),
            QuerySetSpec::similar(QueryKind::Window { ex: 33 }),
        ],
        &settings,
    )
}

/// Future work 1, continued: ASB's adaptation step, which the paper fixes
/// at 1 % of the main buffer. 5 settings (0.5 – 10 %) × 2 query sets. A
/// step is at least one frame, so every setting that rounds to one frame
/// or less is the same policy — 0.5 % to 5 % of Small's 27 main frames.
fn ablate_step(scale: Scale, seed: u64) -> Result<FigureTable> {
    let settings = [0.005, 0.01, 0.02, 0.05, 0.1].map(|step_fraction| {
        (
            format!("{:.1}%", step_fraction * 100.0),
            AsbParams {
                step_fraction,
                ..AsbParams::default()
            },
        )
    });
    asb_sweep(
        scale,
        seed,
        "ablate-step",
        "adaptation step",
        &[
            QuerySetSpec::uniform_windows(33),
            QuerySetSpec::intensified(QueryKind::Point),
        ],
        &settings,
    )
}

/// Random against sequential physical reads, and the simulated disk time
/// they add up to, on U-W-33 at the 4.7 % buffer. 4 metrics × 4 policies.
fn ablate_io(scale: Scale, seed: u64) -> Result<FigureTable> {
    let mut lab = Lab::new(scale, seed);
    let mut series = Vec::new();
    for policy in CONTENDERS {
        let io = lab
            .run(
                DatasetKind::Mainland,
                policy,
                LARGEST_BUFFER_FRAC,
                QuerySetSpec::uniform_windows(33),
            )?
            .io;
        let seq_share = 100.0 * io.sequential_reads as f64 / io.reads.max(1) as f64;
        series.push(Series {
            name: policy.label(),
            points: vec![
                ("random".into(), io.random_reads as f64),
                ("sequential".into(), io.sequential_reads as f64),
                ("seq share [%]".into(), seq_share),
                ("sim I/O [ms]".into(), io.simulated_ms),
            ],
        });
    }
    Ok(FigureTable {
        id: "ablate-io".into(),
        title: format!(
            "Random vs sequential I/O, database 1, U-W-33, 4.7% buffer, scale {scale:?}"
        ),
        x_label: "metric".into(),
        y_label: "page reads / share of reads / simulated disk time".into(),
        series,
    })
}

/// The 2 % buffer of the join and update ablations, in frames.
fn two_percent_of(pages: usize) -> usize {
    (pages / 50).max(8)
}

/// Future work 2a: a spatial join of database 1 with database 2, each tree
/// behind its own 2 % buffer: disk reads per tree and the number of result
/// pairs, which no policy may change. 3 metrics × 4 policies. The join is
/// run once, unbuffered; each tree's share of it is a reference string of
/// its own.
fn ablate_join(scale: Scale, seed: u64) -> Result<FigureTable> {
    let layer = |kind| -> Result<_> {
        let dataset = Dataset::generate(kind, scale, seed);
        let tree = RTree::bulk_load(Trace::recorder(DiskManager::new()), dataset.items())?;
        let pages = Trace::catalogue(tree.store().inner());
        tree.store().set_recording(true);
        Ok((tree, pages))
    };
    let (mut a, pages_a) = layer(DatasetKind::Mainland)?;
    let (mut b, pages_b) = layer(DatasetKind::World)?;
    let pairs = spatial_join(&mut a, &mut b)?.len();
    let mut sides = Vec::new();
    for (name, tree, pages) in [("reads A", a, pages_a), ("reads B", b, pages_b)] {
        let frames = two_percent_of(tree.page_count());
        let trace = Trace::capture("join".into(), pages, tree.store());
        let jobs = CONTENDERS.map(|policy| (&trace, policy, frames));
        sides.push((name, Trace::replay_all(&jobs)?));
    }
    let mut series = Vec::new();
    for (i, policy) in CONTENDERS.iter().enumerate() {
        let mut points: Vec<_> = sides
            .iter()
            .map(|(name, outcomes)| (name.to_string(), outcomes[i].io.reads as f64))
            .collect();
        points.push(("pairs".into(), pairs as f64));
        series.push(Series {
            name: policy.label(),
            points,
        });
    }
    Ok(FigureTable {
        id: "ablate-join".into(),
        title: format!("Spatial join, database 1 x database 2, 2% buffers, scale {scale:?}"),
        x_label: "metric".into(),
        y_label: "disk reads per tree / result pairs".into(),
        series,
    })
}

/// The workload of `repro --ext ablate-updates` on a `tree` of the first
/// half of `items`: 400 rounds of delete, insert, query, inverse updates.
pub fn update_churn<S: PageStore>(
    tree: &mut RTree<S>,
    items: &[SpatialItem],
    queries: &[Query],
) -> Result<()> {
    let half = items.len() / 2;
    for i in 0..400usize {
        let old = items[i * 3 % half];
        let fresh = items[half + i];
        tree.delete(old.id, &old.mbr)?;
        tree.insert(fresh)?;
        tree.execute(&queries[i % queries.len()])?;
        tree.insert(old)?;
        tree.delete(fresh.id, &fresh.mbr)?;
    }
    Ok(())
}

/// Future work 2b: insert/delete churn interleaved with U-W-100 queries on
/// database 1 behind a 2 % write-through buffer, so no policy may change
/// the writes. 3 metrics × 4 policies. Dataset and query stream are those
/// of [`ext_moving_objects`]: the two update experiments differ in their
/// update pattern and buffer size only.
fn ablate_updates(scale: Scale, seed: u64) -> Result<FigureTable> {
    let (dataset, queries) = update_inputs(scale, seed);
    let items = dataset.items();
    let rows = ["gain [%]", "reads", "writes"];
    let series = churn_series(&items[..items.len() / 2], two_percent_of, &rows, |tree| {
        update_churn(tree, items, &queries)
    })?;
    Ok(FigureTable {
        id: "ablate-updates".into(),
        title: format!("Update churn + U-W-100 queries, database 1, 2% buffer, scale {scale:?}"),
        x_label: "metric".into(),
        y_label: "gain vs LRU [%] / disk reads / disk writes".into(),
        series,
    })
}

type Extension = fn(Scale, u64) -> Result<FigureTable>;

/// Every extension experiment — one table from `(scale, seed)` — under the
/// name `repro --ext` takes for it.
pub const EXTENSIONS: [(&str, Extension); 8] = [
    ("object-pages", ext_object_pages),
    ("cross-sam", ext_cross_sam),
    ("moving", ext_moving_objects),
    ("ablate-overflow", ablate_overflow),
    ("ablate-step", ablate_step),
    ("ablate-io", ablate_io),
    ("ablate-join", ablate_join),
    ("ablate-updates", ablate_updates),
];

/// Runs the extension experiment registered as `name`, or all of them for
/// `"all"`. `Ok(None)` means the name is unknown; a storage or query
/// failure during a known experiment is an `Err`.
pub fn extension(name: &str, scale: Scale, seed: u64) -> Result<Option<Vec<FigureTable>>> {
    let tables = EXTENSIONS
        .iter()
        .filter(|(known, _)| name == "all" || name == *known)
        .map(|(_, run)| run(scale, seed))
        .collect::<Result<Vec<_>>>()?;
    Ok((!tables.is_empty()).then_some(tables))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of the row labelled `x`, one per series.
    fn row(table: &FigureTable, x: &str) -> Vec<f64> {
        table
            .series
            .iter()
            .map(|s| {
                let point = s.points.iter().find(|(label, _)| label == x);
                point
                    .unwrap_or_else(|| panic!("{} has no row {x}", table.id))
                    .1
            })
            .collect()
    }

    fn assert_shape(table: &FigureTable, rows: usize, columns: usize) {
        assert_eq!(table.series.len(), columns, "{} columns", table.id);
        for s in &table.series {
            assert_eq!(s.points.len(), rows, "{} rows of {}", table.id, s.name);
        }
    }

    #[test]
    fn object_pages_experiment_runs() {
        let table = ext_object_pages(Scale::Tiny, 5).unwrap();
        assert_eq!(table.series.len(), 5);
        // LRU baseline is zero by construction.
        for (_, v) in &table.series[0].points {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn cross_sam_experiment_runs() {
        let table = ext_cross_sam(Scale::Tiny, 5).unwrap();
        assert_shape(&table, 3, 3);
    }

    /// An R\*-tree over `items` behind a `policy` buffer of `frames(its pages)`.
    fn buffered(items: &[SpatialItem], policy: PolicyKind, frames: fn(usize) -> usize) -> RTree {
        let mut tree = RTree::bulk_load(DiskManager::new(), items).unwrap();
        let frames = frames(tree.page_count());
        tree.set_buffer(asb_core::BufferManager::with_policy(policy, frames));
        tree.store_mut().reset_stats();
        tree
    }

    /// The table's ASB column is the churn run live behind an ASB buffer.
    #[test]
    fn moving_objects_experiment_runs() {
        let table = ext_moving_objects(Scale::Tiny, 5).unwrap();
        assert_shape(&table, 2, 4);

        let (dataset, queries) = update_inputs(Scale::Tiny, 5);
        let mut tree = buffered(dataset.items(), PolicyKind::Asb, largest_buffer);
        let moves = moving_churn(&mut tree, dataset.items(), &queries).unwrap();
        assert_eq!(tree.store().stats().reads as f64, row(&table, "reads")[3]);
        assert_eq!(moves, 8 * 400, "every scheduled move relocates its object");
        tree.validate().unwrap();
        assert_eq!(tree.len(), dataset.items().len(), "moves keep every object");
    }

    #[test]
    fn default_parameter_rows_are_plain_asb() {
        let overflow = ablate_overflow(Scale::Tiny, 5).unwrap();
        let step = ablate_step(Scale::Tiny, 5).unwrap();
        assert_shape(&overflow, 5, 3);
        assert_shape(&step, 5, 2);

        let mut lab = Lab::new(Scale::Tiny, 5);
        let mut asb = |name: &str| {
            lab.gain(
                DatasetKind::Mainland,
                PolicyKind::Asb,
                LARGEST_BUFFER_FRAC,
                QuerySetSpec::from_name(name).unwrap(),
            )
            .unwrap()
        };
        let plain = [asb("U-W-33"), asb("INT-P"), asb("S-W-33")];
        assert_eq!(row(&overflow, "20%"), plain);
        assert_eq!(row(&step, "1.0%"), plain[..2]);
    }

    #[test]
    fn io_mix_splits_every_read_into_random_or_sequential() {
        let table = ablate_io(Scale::Tiny, 5).unwrap();
        assert_shape(&table, 4, 4);
        let mut lab = Lab::new(Scale::Tiny, 5);
        let reads = CONTENDERS.map(|policy| {
            let spec = QuerySetSpec::uniform_windows(33);
            lab.run(DatasetKind::Mainland, policy, LARGEST_BUFFER_FRAC, spec)
                .unwrap()
                .disk_accesses as f64
        });
        let split: Vec<f64> = std::iter::zip(row(&table, "random"), row(&table, "sequential"))
            .map(|(random, sequential)| random + sequential)
            .collect();
        assert_eq!(split, reads);
    }

    #[test]
    fn join_replay_matches_the_live_buffered_join() {
        let table = ablate_join(Scale::Tiny, 5).unwrap();
        assert_shape(&table, 3, 4);
        let layer = |kind, policy| {
            let dataset = Dataset::generate(kind, Scale::Tiny, 5);
            buffered(dataset.items(), policy, two_percent_of)
        };
        for (series, policy) in table.series.iter().zip(CONTENDERS) {
            let mut a = layer(DatasetKind::Mainland, policy);
            let mut b = layer(DatasetKind::World, policy);
            let pairs = spatial_join(&mut a, &mut b).unwrap();
            assert!(!pairs.is_empty());
            let live = [a.store().stats().reads, b.store().stats().reads].map(|r| r as f64);
            let row: Vec<f64> = series.points.iter().map(|(_, v)| *v).collect();
            assert_eq!(row, [live[0], live[1], pairs.len() as f64], "{policy:?}");
        }
    }

    #[test]
    fn update_churn_writes_are_policy_independent_and_leave_a_valid_tree() {
        let table = ablate_updates(Scale::Tiny, 5).unwrap();
        assert_shape(&table, 3, 4);
        let writes = row(&table, "writes");
        assert!(writes[0] > 0.0);
        assert_eq!(writes, [writes[0]; 4], "write-through: policy-blind");
        assert_eq!(row(&table, "gain [%]")[0], 0.0, "LRU is the baseline");

        let (dataset, queries) = update_inputs(Scale::Tiny, 5);
        let (items, half) = (dataset.items(), dataset.items().len() / 2);
        let mut tree = buffered(&items[..half], PolicyKind::Asb, two_percent_of);
        update_churn(&mut tree, items, &queries).unwrap();
        assert_eq!(tree.store().stats().writes as f64, writes[3]);
        assert_eq!(tree.store().stats().reads as f64, row(&table, "reads")[3]);
        tree.validate().unwrap();
        assert_eq!(tree.len(), half, "churn is net zero");
    }

    #[test]
    fn extension_dispatch() {
        let one = extension("ablate-io", Scale::Tiny, 1).unwrap().unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].id, "ablate-io");
        assert!(extension("nope", Scale::Tiny, 1).unwrap().is_none());
        let all = extension("all", Scale::Tiny, 1).unwrap().unwrap();
        assert_eq!(all.len(), EXTENSIONS.len());
    }
}
