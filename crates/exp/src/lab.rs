//! The experiment laboratory: tree harnesses, recordings, run cache,
//! measurement rules. No buffer is ever put above a tree here: each
//! `(database, query set)` is walked once over a recording disk, and every
//! `(policy, buffer size)` cell replays that reference string ([`Trace`]).
//! [`Lab::eval`] is the one way a cell is computed: recordings are made on
//! the calling thread, the replays fan out over [`Trace::replay_all`].

use crate::trace::Trace;
use asb_core::{BufferManager, PolicyKind};
use asb_geom::Query;
use asb_rtree::RTree;
use asb_storage::{DiskManager, IoStats, PageMeta, RecordingStore, Result};
use asb_workload::{Dataset, DatasetKind, QuerySetSpec, Scale};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The relative buffer sizes of the paper's experiments (0.3 %–4.7 %,
/// roughly doubling).
pub const BUFFER_FRACS: [f64; 5] = [0.003, 0.006, 0.012, 0.024, 0.047];

/// The largest investigated buffer, which calibrates query-set sizes.
pub const LARGEST_BUFFER_FRAC: f64 = 0.047;

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

impl ExperimentCell {
    /// The cell of `policy` behind a buffer of `frac` of `db`'s tree, on `spec`.
    pub fn new(db: DatasetKind, policy: PolicyKind, frac: f64, spec: QuerySetSpec) -> Self {
        ExperimentCell {
            db,
            policy,
            frac,
            spec,
        }
    }

    fn key(&self) -> String {
        let (db, policy, frac) = (self.db, self.policy, self.frac);
        format!("{db:?}|{policy:?}|{frac}|{}", self.spec.name())
    }
}

/// Result of running one query set through one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RunResult {
    /// Physical page reads — the paper's "number of disk accesses".
    pub disk_accesses: u64,
    /// Logical page requests issued by the queries.
    pub logical_reads: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Physical I/O classified by the simulated disk.
    pub io: IoStats,
    /// Buffer capacity used, in pages.
    pub buffer_pages: usize,
}

impl RunResult {
    /// The paper's performance gain of this run over a baseline:
    /// `|accesses(base)| / |accesses(self)| − 1`, in percent.
    pub fn gain_over(&self, base: &RunResult) -> f64 {
        (base.disk_accesses as f64 / self.disk_accesses as f64 - 1.0) * 100.0
    }

    /// Accesses relative to a baseline, in percent (`base` = 100 %).
    pub fn relative_to(&self, base: &RunResult) -> f64 {
        self.disk_accesses as f64 / base.disk_accesses as f64 * 100.0
    }
}

struct TreeHarness {
    tree: RTree<RecordingStore<DiskManager>>,
    dataset: Dataset,
    /// The tree is never written after its bulk load, so all its recordings
    /// share one page catalogue.
    catalogue: Arc<[(u64, PageMeta)]>,
}

impl TreeHarness {
    fn build(kind: DatasetKind, scale: Scale, seed: u64) -> Result<Self> {
        let dataset = Dataset::generate(kind, scale, seed);
        let tree = RTree::bulk_load(Trace::recorder(DiskManager::new()), dataset.items())?;
        let catalogue = Trace::capture(String::new(), tree.store()).pages;
        Ok(TreeHarness {
            tree,
            dataset,
            catalogue,
        })
    }
}

/// A laboratory bound to one `(scale, seed)`: builds trees lazily, caches
/// query sets, recordings and run results, and implements the paper's
/// measurement protocol.
pub struct Lab {
    scale: Scale,
    seed: u64,
    harnesses: HashMap<DatasetKind, TreeHarness>,
    query_sets: HashMap<(DatasetKind, String), Vec<Query>>,
    /// Recordings of the database recorded last; see [`Lab::recording`].
    recordings: HashMap<(DatasetKind, String), Arc<Trace>>,
    runs: HashMap<String, RunResult>,
}

impl Lab {
    /// Creates a lab for the given scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Lab {
            scale,
            seed,
            harnesses: HashMap::new(),
            query_sets: HashMap::new(),
            recordings: HashMap::new(),
            runs: HashMap::new(),
        }
    }

    /// The configured scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Page count of the (lazily built) tree for `kind`.
    pub fn tree_pages(&mut self, kind: DatasetKind) -> Result<usize> {
        Ok(self.harness(kind)?.catalogue.len())
    }

    fn harness(&mut self, kind: DatasetKind) -> Result<&mut TreeHarness> {
        if !self.harnesses.contains_key(&kind) {
            let h = TreeHarness::build(kind, self.scale, self.seed)?;
            self.harnesses.insert(kind, h);
        }
        Ok(self
            .harnesses
            .get_mut(&kind)
            .expect("harness was just inserted"))
    }

    /// The queries of a set (generated once, shared by every policy so all
    /// runs see the identical sequence).
    pub fn queries(&mut self, kind: DatasetKind, spec: QuerySetSpec) -> Result<Vec<Query>> {
        let key = (kind, spec.name());
        if let Some(q) = self.query_sets.get(&key) {
            return Ok(q.clone());
        }
        let count = self.calibrate_count(kind, spec)?;
        let seed = self.seed;
        let h = self.harness(kind)?;
        let queries = spec.generate(&h.dataset, count, seed ^ 0x0051_5e75);
        self.query_sets.insert(key, queries.clone());
        Ok(queries)
    }

    /// Implements the paper's sizing rule: enough queries that the largest
    /// buffer sees ~15× its size in disk accesses. Estimated from a probe
    /// of 32 queries against the unbuffered tree.
    fn calibrate_count(&mut self, kind: DatasetKind, spec: QuerySetSpec) -> Result<usize> {
        let seed = self.seed;
        let target = 15.0 * self.tree_pages(kind)? as f64 * LARGEST_BUFFER_FRAC;
        let h = self.harness(kind)?;
        let probe = spec.generate(&h.dataset, 32, seed ^ 0xCA11_B0B0);
        h.tree.store().inner().reset_stats();
        for q in &probe {
            h.tree.execute(q)?;
        }
        let per_query = h.tree.store().inner().stats().reads as f64 / probe.len() as f64;
        // A buffer absorbs roughly half the accesses of the unbuffered run;
        // aim a bit high rather than low.
        let count = (target / (per_query.max(1.0) * 0.4)).ceil() as usize;
        Ok(count.clamp(300, 30_000))
    }

    /// Buffer capacity in pages for a relative buffer size on `kind`'s tree.
    pub(crate) fn buffer_pages(&mut self, kind: DatasetKind, frac: f64) -> Result<usize> {
        Ok(((self.tree_pages(kind)? as f64 * frac).round() as usize).max(4))
    }

    /// The reference string of one query set: recorded on first use by
    /// walking the unbuffered tree once. Recordings are kept for one database
    /// at a time (figures finish one database before they start the other),
    /// which bounds what a paper-scale lab holds beside its two trees.
    pub(crate) fn recording(
        &mut self,
        kind: DatasetKind,
        spec: QuerySetSpec,
    ) -> Result<Arc<Trace>> {
        let key = (kind, spec.name());
        if let Some(r) = self.recordings.get(&key) {
            return Ok(Arc::clone(r));
        }
        let queries = self.queries(kind, spec)?;
        let label = format!(
            "{kind:?} {:?} seed={} set={} queries={}",
            self.scale,
            self.seed,
            key.1,
            queries.len()
        );
        let h = self.harness(kind)?;
        let mut trace =
            Trace::record_on(label, &mut h.tree, RTree::store, RTree::execute, &queries)?;
        debug_assert_eq!(trace.pages, h.catalogue, "the lab's trees are read-only");
        trace.pages = Arc::clone(&h.catalogue);
        let trace = Arc::new(trace);
        self.recordings.retain(|(db, _), _| *db == kind);
        self.recordings.insert(key, Arc::clone(&trace));
        Ok(trace)
    }

    /// Evaluates `cells`, results in cell order — a pure function of the
    /// cells, whatever the lab has cached and however many workers replay.
    /// What is not cached yet is recorded on the calling thread, replayed
    /// in parallel ([`Trace::replay_all`]) and cached.
    ///
    /// # Errors
    /// The first storage error raised while recording, else the first
    /// raised by a replay.
    pub fn eval(&mut self, cells: &[ExperimentCell]) -> Result<Vec<RunResult>> {
        self.eval_on(crate::trace::workers(), cells)
    }

    /// [`Lab::eval`] on an explicit number of replay threads.
    fn eval_on(&mut self, workers: usize, cells: &[ExperimentCell]) -> Result<Vec<RunResult>> {
        let keys: Vec<String> = cells.iter().map(ExperimentCell::key).collect();
        let mut seen = HashSet::new();
        let mut missing: Vec<(&String, &ExperimentCell)> = std::iter::zip(&keys, cells)
            .filter(|(key, _)| !self.runs.contains_key(*key) && seen.insert(*key))
            .collect();
        // The lab holds one database's recordings at a time, so a database
        // is finished before the next one starts.
        while let Some(&(_, &ExperimentCell { db, .. })) = missing.first() {
            let (batch, rest): (Vec<_>, Vec<_>) =
                missing.into_iter().partition(|(_, c)| c.db == db);
            missing = rest;
            let mut jobs = Vec::with_capacity(batch.len());
            for (_, c) in &batch {
                let frames = self.buffer_pages(db, c.frac)?;
                jobs.push((self.recording(db, c.spec)?, c.policy, frames));
            }
            let outcomes = Trace::replay_all_on(workers, &jobs)?;
            for (((key, _), (_, _, buffer_pages)), out) in batch.into_iter().zip(jobs).zip(outcomes)
            {
                let result = RunResult {
                    disk_accesses: out.io.reads,
                    logical_reads: out.stats.logical_reads,
                    hits: out.stats.hits,
                    io: out.io,
                    buffer_pages,
                };
                self.runs.insert(key.clone(), result);
            }
        }
        Ok(keys.iter().map(|key| self.runs[key]).collect())
    }

    /// Runs (or returns the cached result of) one experiment cell.
    pub fn run(
        &mut self,
        kind: DatasetKind,
        policy: PolicyKind,
        frac: f64,
        spec: QuerySetSpec,
    ) -> Result<RunResult> {
        Ok(self.eval(&[ExperimentCell::new(kind, policy, frac, spec)])?[0])
    }

    /// Gain of `policy` over plain LRU in percent (positive = fewer disk
    /// accesses than LRU), the paper's headline metric.
    pub fn gain(
        &mut self,
        kind: DatasetKind,
        policy: PolicyKind,
        frac: f64,
        spec: QuerySetSpec,
    ) -> Result<f64> {
        let base = self.run(kind, PolicyKind::Lru, frac, spec)?;
        let run = self.run(kind, policy, frac, spec)?;
        Ok(run.gain_over(&base))
    }

    /// Runs a concatenation of query sets through one ASB buffer and
    /// samples the candidate-set size after every query — the paper's
    /// Figure 14 trace.
    pub fn candidate_trace(
        &mut self,
        kind: DatasetKind,
        frac: f64,
        specs: &[QuerySetSpec],
    ) -> Result<Vec<(usize, usize)>> {
        let mut accesses = Vec::new();
        for spec in specs {
            accesses.extend_from_slice(&self.recording(kind, *spec)?.accesses);
        }
        let buffer_pages = self.buffer_pages(kind, frac)?;
        let phases = Trace {
            label: format!("{kind:?} {:?} candidate trace", self.scale),
            pages: Arc::clone(&self.harness(kind)?.catalogue),
            accesses,
        };
        let mut disk = phases.build_disk()?;
        let mut mgr = BufferManager::with_policy(PolicyKind::Asb, buffer_pages);
        let mut samples = Vec::new();
        phases.drive(|i, id, ctx| {
            drop(mgr.fetch(&mut disk, id, ctx)?);
            // A query ends where the next access carries another query id.
            let next = phases.accesses.get(i + 1).map(|&(_, q)| q);
            if next != Some(ctx.query.raw()) {
                let size = mgr.candidate_size().expect("ASB has a candidate set");
                samples.push((samples.len(), size));
            }
            Ok(())
        })?;
        Ok(samples)
    }

    /// Phase boundaries (query indices) for a concatenated trace.
    pub fn phase_boundaries(
        &mut self,
        kind: DatasetKind,
        specs: &[QuerySetSpec],
    ) -> Result<Vec<usize>> {
        let mut bounds = Vec::with_capacity(specs.len());
        let mut acc = 0usize;
        for spec in specs {
            acc += self.queries(kind, *spec)?.len();
            bounds.push(acc);
        }
        Ok(bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> Lab {
        Lab::new(Scale::Tiny, 42)
    }

    fn cells() -> Vec<ExperimentCell> {
        use asb_workload::QueryKind;
        let specs = [
            QuerySetSpec::intensified(QueryKind::Point),
            QuerySetSpec::uniform_windows(100),
        ];
        let policies = [PolicyKind::Lru, PolicyKind::Asb, PolicyKind::LruK { k: 2 }];
        let mut out = Vec::new();
        let buffers = [
            (DatasetKind::Mainland, 0.03),
            (DatasetKind::World, 0.2),
            (DatasetKind::Mainland, 0.3),
        ];
        for (db, frac) in buffers {
            for spec in specs {
                for policy in policies {
                    out.push(ExperimentCell::new(db, policy, frac, spec));
                }
            }
        }
        out
    }

    /// `eval` is a pure function of the cells: shuffled (databases
    /// interleaved), with duplicates, on one worker or three, on a cold or
    /// a warm cache, every cell's result is what cell-by-cell `Lab::run`
    /// gives.
    #[test]
    fn eval_equals_cell_by_cell_runs_whatever_the_order_workers_and_cache() {
        let mut cells = cells();
        let n = cells.len();
        for i in 0..n {
            cells.swap(i, (i * 7 + 3) % n);
        }
        cells.extend_from_within(2..5);
        let mut one_by_one = lab();
        let alone: Vec<RunResult> = cells
            .iter()
            .map(|c| one_by_one.run(c.db, c.policy, c.frac, c.spec).unwrap())
            .collect();
        for workers in [1, 3] {
            let mut lab = lab();
            assert_eq!(lab.eval_on(workers, &cells).unwrap(), alone, "cold");
            assert_eq!(lab.runs.len(), n, "one cache entry per distinct cell");
            assert_eq!(lab.eval_on(workers, &cells).unwrap(), alone, "warm");
            assert_eq!(lab.eval_on(workers, &cells[3..9]).unwrap(), alone[3..9]);
        }
        let mut lab = lab();
        assert_eq!(lab.eval(&cells).unwrap(), alone, "the machine's workers");
        assert!(lab.eval(&[]).unwrap().is_empty());
    }

    #[test]
    fn bigger_buffers_mean_fewer_accesses() {
        let mut lab = lab();
        let spec = QuerySetSpec::uniform_windows(33);
        // The tiny tree has ~70 pages; pick fractions that produce clearly
        // different buffer sizes (the paper's 0.3%/4.7% both round to the
        // 4-page floor at this scale).
        let small = lab
            .run(DatasetKind::Mainland, PolicyKind::Lru, 0.05, spec)
            .unwrap();
        let large = lab
            .run(DatasetKind::Mainland, PolicyKind::Lru, 0.5, spec)
            .unwrap();
        assert!(large.buffer_pages > small.buffer_pages);
        assert!(large.disk_accesses < small.disk_accesses);
    }

    #[test]
    fn gain_of_lru_over_itself_is_zero() {
        let mut lab = lab();
        let spec = QuerySetSpec::uniform_points();
        let g = lab
            .gain(DatasetKind::Mainland, PolicyKind::Lru, 0.02, spec)
            .unwrap();
        assert_eq!(g, 0.0);
    }

    #[test]
    fn query_volume_respects_the_papers_rule() {
        let mut lab = lab();
        let spec = QuerySetSpec::uniform_windows(33);
        let r = lab
            .run(
                DatasetKind::Mainland,
                PolicyKind::Lru,
                LARGEST_BUFFER_FRAC,
                spec,
            )
            .unwrap();
        // "about 10 to 20 times higher than the buffer size" — allow slack
        // for the calibration heuristic (clamping dominates at tiny scale).
        assert!(
            r.disk_accesses as f64 >= 5.0 * r.buffer_pages as f64,
            "accesses {} vs buffer {}",
            r.disk_accesses,
            r.buffer_pages
        );
    }

    #[test]
    fn candidate_trace_is_dense_and_bounded() {
        let mut lab = lab();
        let specs = [
            QuerySetSpec::uniform_windows(33),
            QuerySetSpec::intensified(asb_workload::QueryKind::Window { ex: 33 }),
        ];
        let trace = lab
            .candidate_trace(DatasetKind::Mainland, 0.047, &specs)
            .unwrap();
        let bounds = lab.phase_boundaries(DatasetKind::Mainland, &specs).unwrap();
        assert_eq!(trace.len(), *bounds.last().unwrap());
        let pages = lab.tree_pages(DatasetKind::Mainland).unwrap();
        let main_cap = (pages as f64 * 0.047).round() as usize; // upper bound
        for &(_, size) in &trace {
            assert!(size >= 1 && size <= main_cap);
        }
    }
}
