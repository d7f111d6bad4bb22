//! The benchmark's inputs: the paper-scale tree, each workload's operation
//! stream, and the oracle answers every timed answer is checked against.
//!
//! **What `--seed` does.** The database (dataset → bulk-loaded tree) and
//! each workload's *multiset* of operations are fixed; the seed decides
//! where in the (cyclic) stream a run starts ([`rotate_runs`]). Replacement
//! is all about order — where the cold start falls, what is resident when a
//! page is asked for, which page is the victim, when the WAL checkpoints —
//! so every seed is a different run for every layer under test, while the
//! work per operation (reads per query, result sizes) is the same on every
//! seed. That keeps the run-to-run spread the machine's, not the workload's:
//! a fresh pan/zoom walk per seed moves reads/op by ±15 % (which places it
//! happens to visit), a fresh dataset moves `thrash_window`'s by as much,
//! and even a full shuffle of the same operations moves ASB's CPU cost per
//! read by ±15 % (its candidate set tunes itself along a different path).

use crate::workload::Workload;
use asb_geom::{Point, Query, Rect, SpatialItem};
use asb_rtree::{RTree, TreeSnapshot};
use asb_storage::{DiskManager, PageStore};
use asb_workload::{
    session, session_requests, Dataset, DatasetKind, PhasedWorkload, QueryKind, QuerySetSpec,
    Request, RequestMix, Scale, SessionSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed of the dataset and of every master operation stream.
pub const MASTER_SEED: u64 = 42;
/// Concurrent sessions of `serve_browse`; one wave is one request of each.
pub const SERVE_SESSIONS: usize = 16;
/// Two consecutive operations further apart than this (centre to centre,
/// data space is the unit square) belong to different locality runs: the
/// largest pan step is 0.004, a jump lands on a random place.
const JUMP_DISTANCE: f64 = 0.01;

/// Problem size. Operation counts are constants, never sized by wall time,
/// so every count the benchmark reports is exact and repeatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The paper's operating point: 1 641 079 objects, a 58 336-page tree.
    Paper,
    /// `--smoke`: 20 000 objects, a twentieth of the operations; seconds.
    Smoke,
}

impl Size {
    fn scale(self) -> Scale {
        match self {
            Size::Paper => Scale::Paper,
            Size::Smoke => Scale::Small,
        }
    }

    /// Operations per rep, from the paper-size count.
    fn ops(self, paper: usize) -> usize {
        match self {
            Size::Paper => paper,
            Size::Smoke => paper / 20,
        }
    }
}

/// The small-viewport pan/zoom user of `pan_fit` and `serve_browse`: the
/// default `SessionSpec` viewports (up to 16 % of the map wide) read
/// thousands of pages per request at paper scale.
fn small_viewport() -> SessionSpec {
    SessionSpec {
        jump_probability: 0.02,
        zoom_probability: 0.10,
        initial_half: 0.002,
        min_half: 0.001,
        max_half: 0.004,
        pan_step: 0.5,
    }
}

/// One workload's operation stream.
pub enum Ops {
    /// One query per operation (`pan_fit`, `thrash_window`, `arena_phase`).
    Queries(Vec<Query>),
    /// `waves[w][s]` is the single-request stream session `s` submits in
    /// wave `w`; one `serve()` call answers a whole wave.
    Waves(Vec<Vec<Vec<Request>>>),
    /// Delete the item, re-insert it, run the window: three operations.
    Cycles(Vec<(SpatialItem, Query)>),
}

/// Everything a rep needs, built (and timed as `setup_s`) by [`Fixture::build`].
pub struct Fixture {
    pub workload: Workload,
    /// The run's `--seed`: the stream's rotation, and the serve loop's seed.
    pub seed: u64,
    /// The bulk-loaded store (empty while a rep has it).
    pub disk: DiskManager,
    pub snapshot: TreeSnapshot,
    pub tree_pages: usize,
    /// Buffer frames: the workload's fraction of `tree_pages`.
    pub capacity: usize,
    pub ops: Ops,
    /// Oracle answer hash per checked operation: per query, per
    /// `(wave, session)`, per cycle's window.
    pub expect: Vec<u64>,
    /// Wall time and page reads of the oracle's unbuffered tree walk over
    /// the query operations — the reference `rtree.walk_self_ns_per_read`
    /// is derived from.
    pub oracle_ns: u64,
    pub oracle_reads: u64,
}

/// FNV-1a over a result list, the oracle's fingerprint of one answer.
pub fn hash_ids(ids: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for byte in id.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Fingerprint of a query answer as a set.
pub fn hash_set(mut ids: Vec<u64>) -> u64 {
    ids.sort_unstable();
    hash_ids(&ids)
}

/// Reorders `ops` by `seed`, keeping locality runs and phases intact: the
/// stream is cut wherever two neighbours are further apart than
/// [`JUMP_DISTANCE`] or a phase ends, and each phase's runs are rotated so
/// that a seed-chosen run comes first. The multiset of operations is
/// unchanged.
pub fn rotate_runs<T>(
    ops: Vec<T>,
    phase_ends: &[usize],
    center: impl Fn(&T) -> Point,
    seed: u64,
) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0DE2);
    let mut phases: Vec<Vec<Vec<T>>> = vec![Vec::new()];
    let mut prev: Option<Point> = None;
    for (i, op) in ops.into_iter().enumerate() {
        let c = center(&op);
        if phase_ends.contains(&i) {
            phases.push(Vec::new());
            prev = None;
        }
        let runs = phases.last_mut().expect("at least one phase");
        if prev.is_none_or(|p| p.distance(&c) > JUMP_DISTANCE) {
            runs.push(Vec::new());
        }
        runs.last_mut().expect("a run was just opened").push(op);
        prev = Some(c);
    }
    let mut out = Vec::new();
    for mut runs in phases {
        let first = rng.gen_range(0..runs.len());
        runs.rotate_left(first);
        out.extend(runs.into_iter().flatten());
    }
    out
}

fn request_center(r: &Request) -> Point {
    match r {
        Request::Window(w) | Request::Join(w) => w.center(),
        Request::Nearest(p, _) => *p,
    }
}

/// A copy of a bulk-loaded store (pages share their payload bytes).
/// `update_mix` mutates its tree, so each rep starts from a fresh copy.
pub fn clone_disk(src: &DiskManager) -> DiskManager {
    let mut out = DiskManager::new();
    for page in src.iter_pages() {
        let id = out
            .allocate(page.meta, page.payload.clone())
            .expect("page copied from a valid store");
        assert_eq!(id, page.id, "a bulk-loaded store has no free slots");
    }
    out.reset_stats();
    out
}

impl Fixture {
    /// Generates the dataset, bulk-loads the tree, builds the operation
    /// stream for `seed` and computes the oracle answers on the unbuffered
    /// tree. Returns the fixture and the wall seconds all of it took.
    pub fn build(workload: Workload, size: Size, seed: u64) -> (Fixture, f64) {
        let started = Instant::now();
        let dataset = Dataset::generate(DatasetKind::Mainland, size.scale(), MASTER_SEED);
        let mut tree =
            RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load the dataset");
        let tree_pages = tree.page_count();
        let capacity = ((tree_pages as f64 * workload.buffer_fraction()).round() as usize)
            .max(2 * workload.shards());
        let ops = build_ops(workload, size, &dataset, seed);

        let reads_before = tree.store().stats().reads;
        let mut oracle_ns = 0u64;
        let mut timed_query = |tree: &mut RTree, q: &Query| {
            let t = Instant::now();
            let ids = tree.execute(q).expect("oracle query");
            oracle_ns += t.elapsed().as_nanos() as u64;
            hash_set(ids)
        };
        let expect: Vec<u64> = match &ops {
            Ops::Queries(queries) => queries.iter().map(|q| timed_query(&mut tree, q)).collect(),
            // The object set is invariant under delete + re-insert, so the
            // pre-update tree answers every cycle's window.
            Ops::Cycles(cycles) => cycles
                .iter()
                .map(|(_, q)| timed_query(&mut tree, q))
                .collect(),
            Ops::Waves(waves) => waves
                .iter()
                .flatten()
                .map(|stream| direct_answer(&mut tree, dataset.items(), &stream[0]))
                .collect(),
        };
        let oracle_reads = match &ops {
            Ops::Waves(_) => 0,
            _ => tree.store().stats().reads - reads_before,
        };

        let snapshot = tree.snapshot();
        let disk = tree.into_store();
        disk.reset_stats();
        let fixture = Fixture {
            workload,
            seed,
            disk,
            snapshot,
            tree_pages,
            capacity,
            ops,
            expect,
            oracle_ns,
            oracle_reads,
        };
        (fixture, started.elapsed().as_secs_f64())
    }

    /// Operations one rep attempts.
    pub fn ops_per_rep(&self) -> u64 {
        match &self.ops {
            Ops::Queries(q) => q.len() as u64,
            Ops::Waves(w) => (w.len() * SERVE_SESSIONS) as u64,
            Ops::Cycles(c) => 3 * c.len() as u64,
        }
    }
}

fn build_ops(workload: Workload, size: Size, dataset: &Dataset, seed: u64) -> Ops {
    let query_center = |q: &Query| q.region().center();
    match workload {
        Workload::PanFit => {
            let master = session(dataset, small_viewport(), size.ops(10_000), MASTER_SEED);
            Ops::Queries(rotate_runs(master, &[], query_center, seed))
        }
        Workload::ThrashWindow => {
            let master = QuerySetSpec::similar(QueryKind::Window { ex: 333 }).generate(
                dataset,
                size.ops(4_000),
                MASTER_SEED,
            );
            Ops::Queries(rotate_runs(master, &[], query_center, seed))
        }
        Workload::ArenaPhase => {
            let phased = PhasedWorkload::adversarial(size.ops(220));
            let master = phased.generate(dataset, MASTER_SEED);
            Ops::Queries(rotate_runs(
                master,
                &phased.boundaries(),
                query_center,
                seed,
            ))
        }
        Workload::ServeBrowse => {
            let waves = size.ops(1_000);
            let sessions: Vec<Vec<Request>> = (0..SERVE_SESSIONS as u64)
                .map(|s| {
                    let master = session_requests(
                        dataset,
                        small_viewport(),
                        RequestMix::browsing(),
                        waves,
                        MASTER_SEED.wrapping_add(s.wrapping_mul(0x00C0_FFEE)),
                    );
                    rotate_runs(master, &[], request_center, seed.wrapping_add(s))
                })
                .collect();
            Ops::Waves(
                (0..waves)
                    .map(|w| sessions.iter().map(|s| vec![s[w].clone()]).collect())
                    .collect(),
            )
        }
        Workload::UpdateMix => {
            let cycles = size.ops(2_000);
            let windows = QuerySetSpec::similar(QueryKind::Window { ex: 1000 }).generate(
                dataset,
                cycles,
                MASTER_SEED,
            );
            let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 0x0DD_17E45);
            let items = dataset.items();
            let master: Vec<(SpatialItem, Query)> = windows
                .into_iter()
                .map(|w| (items[rng.gen_range(0..items.len())], w))
                .collect();
            Ops::Cycles(rotate_runs(master, &[], |(_, w)| query_center(w), seed))
        }
    }
}

/// The direct-tree answer to a serve request, fingerprinted the way a
/// `Response.results` is: window ids sorted, k-NN ids by ascending
/// distance, join as the single pair count.
fn direct_answer(tree: &mut RTree, items: &[SpatialItem], request: &Request) -> u64 {
    match request {
        Request::Window(w) => hash_set(tree.window_query(*w).expect("oracle window")),
        Request::Nearest(p, k) => {
            let best = tree.nearest_neighbors(*p, *k).expect("oracle k-NN");
            hash_ids(&best.iter().map(|&(id, _)| id).collect::<Vec<_>>())
        }
        Request::Join(region) => {
            // Unordered pairs of distinct objects that both intersect the
            // region and each other (`tests/serve.rs` does the same by
            // brute force over the whole dataset).
            let inside: Vec<Rect> = tree
                .window_query(*region)
                .expect("oracle join window")
                .into_iter()
                .map(|id| {
                    let item = items[id as usize];
                    assert_eq!(item.id, id, "dataset ids are positions");
                    item.mbr
                })
                .collect();
            let mut pairs = 0u64;
            for (i, a) in inside.iter().enumerate() {
                pairs += inside[i + 1..].iter().filter(|b| a.intersects(b)).count() as u64;
            }
            hash_ids(&[pairs])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_keeps_runs_phases_and_the_multiset() {
        // Two phases; inside each, runs of near neighbours.
        let xs = [0.10, 0.101, 0.102, 0.50, 0.501, 0.90, 0.30, 0.301, 0.70];
        let ops: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
        let center = |op: &(usize, f64)| Point::new(op.1, 0.5);
        let a = rotate_runs(ops.clone(), &[6], center, 1);
        assert_eq!(a, rotate_runs(ops.clone(), &[6], center, 1), "same seed");
        let mut orders = std::collections::HashSet::new();
        for seed in 0..20 {
            let s = rotate_runs(ops.clone(), &[6], center, seed);
            orders.insert(s.iter().map(|op| op.0).collect::<Vec<_>>());
            let mut sorted = s.clone();
            sorted.sort_by_key(|op| op.0);
            assert_eq!(sorted, ops, "same multiset");
            // Phase one's operations stay ahead of phase two's.
            assert!(s[..6].iter().all(|op| op.0 < 6));
            // Runs stay contiguous and in their original inner order.
            for run in [&[0usize, 1, 2][..], &[3, 4], &[6, 7]] {
                let at = s.iter().position(|op| op.0 == run[0]).unwrap();
                let got: Vec<usize> = s[at..at + run.len()].iter().map(|op| op.0).collect();
                assert_eq!(got, run);
            }
        }
        // Three runs in phase one, two in phase two: up to six orders.
        assert!(orders.len() > 3, "seeds must pick different starts");
    }

    #[test]
    fn hashes_tell_answers_apart() {
        assert_eq!(hash_set(vec![3, 1, 2]), hash_ids(&[1, 2, 3]));
        assert_ne!(hash_ids(&[1, 2, 3]), hash_ids(&[1, 2, 4]));
        assert_ne!(hash_ids(&[]), hash_ids(&[0]));
    }

    #[test]
    fn a_cloned_disk_holds_the_same_pages() {
        let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 7);
        let tree = RTree::bulk_load(DiskManager::new(), dataset.items()).unwrap();
        let disk = tree.into_store();
        let copy = clone_disk(&disk);
        assert_eq!(copy.page_count(), disk.page_count());
        assert!(disk
            .iter_pages()
            .zip(copy.iter_pages())
            .all(|(a, b)| a == b));
        assert_eq!(copy.stats().writes, 0, "copying is not workload I/O");
    }
}
