//! Access-trace record & replay.
//!
//! A [`Trace`] is the *logical* page-access sequence of one experiment
//! run: the disk image's page metadata plus every `(page, query)` read the
//! index issued. A read-only index asks for the same pages in the same
//! order whatever buffer sits above it, so one recorded run can be replayed
//! bit-for-bit through *any* policy, buffer size or shard count: the same
//! hits, misses, physical I/O and ASB candidate-set trajectory come back
//! as from the live buffered run (`tests/golden_trace.rs`,
//! `replay_equals_a_live_buffered_run_on_every_access_method`: every policy,
//! all three access methods, whole `BufferStats` and `IoStats`). Every
//! read-only experiment of this crate therefore records once and replays
//! per policy, and committed traces are a regression harness for the whole
//! buffer stack. A write changes the page catalogue mid-stream, which a
//! trace does not model: update workloads run live.
//!
//! Traces serialize to a line-oriented text format (stable, diffable,
//! dependency-free):
//!
//! ```text
//! asb-trace v1
//! label Mainland Tiny seed=42 set=U-W-33 queries=120
//! pages 71
//! accesses 1543
//! p <raw> <type-tag> <level> <entries> <area> <margin> <overlap> [mbr <x0> <y0> <x1> <y1>]
//! ...
//! a <page-raw> <query-raw>
//! ...
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip formatting, so a
//! parse–print cycle is lossless.

use asb_core::{ArenaState, BufferManager, BufferStats, PolicyKind, ShardedBuffer};
use asb_geom::{Query, Rect, SpatialStats};
use asb_rtree::RTree;
use asb_storage::{
    AccessContext, DiskManager, FaultConfig, FaultStats, FaultyStore, IoStats, PageId, PageMeta,
    PageStore, PageType, QueryId, RecordingStore, Result, RetryPolicy, StorageError,
};
use asb_workload::{Dataset, DatasetKind, PhasedWorkload, QuerySetSpec, Scale};
use bytes::Bytes;
use std::sync::Arc;

/// A recorded access trace: page catalogue plus logical read sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Free-form provenance line (database, scale, seed, query set).
    pub label: String,
    /// `(raw page id, metadata)` of every live page, sorted by id. Shared:
    /// every trace recorded over one read-only index has the same catalogue.
    pub pages: Arc<[(u64, PageMeta)]>,
    /// `(raw page id, raw query id)` of every logical read, in order.
    pub accesses: Vec<(u64, u64)>,
}

/// Outcome of replaying a trace through one buffer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Buffer statistics of the replay.
    pub stats: BufferStats,
    /// Physical I/O the simulated disk observed.
    pub io: IoStats,
    /// Physical page reads — the paper's "disk accesses".
    pub physical_reads: u64,
    /// ASB candidate-set size after every access (empty for non-ASB
    /// policies; in sharded replays only populated for one shard).
    pub candidate_trajectory: Vec<usize>,
    /// Arena expert weights after every access, in roster order (empty
    /// for non-arena policies; in sharded replays only populated for one
    /// shard). Replays are deterministic, so two replays of the same
    /// trace produce bit-identical trajectories.
    pub weight_trajectory: Vec<Vec<f64>>,
    /// Final arena snapshot (`None` for non-arena policies; in sharded
    /// replays only populated for one shard).
    pub arena: Option<ArenaState>,
}

/// Outcome of replaying a trace against a fault-injecting store.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReplayOutcome {
    /// Buffer statistics of the replay (retries/corruptions included).
    pub stats: BufferStats,
    /// What the fault layer injected.
    pub fault_stats: FaultStats,
    /// Accesses that exhausted their retry budget or hit a dead page.
    pub give_ups: u64,
    /// Successful accesses whose payload did not match the disk image
    /// (must stay zero: corruption may cost retries, never correctness).
    pub wrong_payloads: u64,
}

impl Trace {
    /// Records the logical access sequence of one workload: builds the
    /// R\*-tree for `db` at `scale`, generates `queries` queries from
    /// `spec` (with the lab's query-seed derivation) and executes them
    /// unbuffered, logging every page read.
    pub fn record(
        db: DatasetKind,
        scale: Scale,
        seed: u64,
        spec: QuerySetSpec,
        queries: usize,
    ) -> Result<Trace> {
        Trace::record_with(db, scale, seed, &spec.name(), |dataset, qseed| {
            spec.generate(dataset, queries, qseed)
        })
    }

    /// Records the logical access sequence of a phase-change workload:
    /// like [`Trace::record`], but the queries come from a
    /// [`PhasedWorkload`] — several query-set families concatenated so
    /// the best replacement policy changes identity mid-trace.
    pub fn record_phased(
        db: DatasetKind,
        scale: Scale,
        seed: u64,
        workload: &PhasedWorkload,
    ) -> Result<Trace> {
        Trace::record_with(db, scale, seed, &workload.label(), |dataset, qseed| {
            workload.generate(dataset, qseed)
        })
    }

    /// A recording disk that logs nothing until it is switched on: building
    /// an index is not workload.
    pub fn recorder(disk: DiskManager) -> RecordingStore<DiskManager> {
        let store = RecordingStore::new(disk);
        store.set_recording(false);
        store
    }

    /// The one recorder: drains the reads `store` has logged into a trace
    /// over the page catalogue of the disk below it.
    pub fn capture(label: String, store: &RecordingStore<DiskManager>) -> Trace {
        let mut pages: Vec<(u64, PageMeta)> = store
            .inner()
            .iter_pages()
            .map(|p| (p.id.raw(), p.meta))
            .collect();
        pages.sort_unstable_by_key(|&(raw, _)| raw);
        let log = store.take_log();
        Trace {
            label,
            pages: pages.into(),
            accesses: log.iter().map(|(p, q)| (p.raw(), q.raw())).collect(),
        }
    }

    /// Runs `queries` through `execute` on `index` with the recorder below
    /// it (`store`) switched on for exactly that long, and returns the
    /// reference string.
    pub(crate) fn record_on<T>(
        label: String,
        index: &mut T,
        store: fn(&T) -> &RecordingStore<DiskManager>,
        execute: fn(&mut T, &Query) -> Result<Vec<u64>>,
        queries: &[Query],
    ) -> Result<Trace> {
        store(index).set_recording(true);
        for q in queries {
            execute(index, q)?;
        }
        store(index).set_recording(false);
        Ok(Trace::capture(label, store(index)))
    }

    /// Behind both `record` entry points: `queries` turns the dataset and
    /// the derived query seed into the query list, `set` names it.
    fn record_with(
        db: DatasetKind,
        scale: Scale,
        seed: u64,
        set: &str,
        queries: impl FnOnce(&Dataset, u64) -> Vec<Query>,
    ) -> Result<Trace> {
        let dataset = Dataset::generate(db, scale, seed);
        let mut tree = RTree::bulk_load(Trace::recorder(DiskManager::new()), dataset.items())?;
        let qs = queries(&dataset, seed ^ 0x0051_5e75);
        let label = format!(
            "{db:?} {scale:?} seed={seed} set={set} queries={}",
            qs.len()
        );
        Trace::record_on(label, &mut tree, RTree::store, RTree::execute, &qs)
    }

    /// Rebuilds a simulated disk holding exactly the traced pages (same
    /// ids — physical adjacency, and hence the sequential-read split, is
    /// preserved). Payloads are synthetic: replacement decisions depend
    /// only on page metadata, never on payload bytes.
    pub fn build_disk(&self) -> Result<DiskManager> {
        let mut disk = DiskManager::new();
        let mut next = 0u64;
        let mut gaps = Vec::new();
        for &(raw, meta) in self.pages.iter() {
            while next < raw {
                gaps.push(disk.allocate(PageMeta::data(SpatialStats::EMPTY), Bytes::new())?);
                next += 1;
            }
            let id = disk.allocate(meta, Bytes::from(raw.to_le_bytes().to_vec()))?;
            debug_assert_eq!(id.raw(), raw, "trace page ids must rebuild densely");
            next = raw + 1;
        }
        for id in gaps {
            disk.free(id)?;
        }
        disk.reset_stats();
        Ok(disk)
    }

    /// Replays the trace through a sequential [`BufferManager`].
    pub fn replay_sequential(&self, policy: PolicyKind, capacity: usize) -> Result<ReplayOutcome> {
        let mut disk = self.build_disk()?;
        let mut mgr = BufferManager::with_policy(policy, capacity);
        let mut trajectory = Vec::new();
        let mut weights = Vec::new();
        for &(p, q) in &self.accesses {
            let id = PageId::new(p);
            let ctx = AccessContext::query(QueryId::new(q));
            let page = mgr.fetch(&mut disk, id, ctx)?;
            debug_assert_eq!(page.id, id);
            if let Some(c) = mgr.candidate_size() {
                trajectory.push(c);
            }
            if let Some(state) = mgr.arena_state() {
                weights.push(state.weights());
            }
        }
        let io = disk.stats();
        Ok(ReplayOutcome {
            stats: mgr.stats(),
            io,
            physical_reads: io.reads,
            candidate_trajectory: trajectory,
            weight_trajectory: weights,
            arena: mgr.arena_state(),
        })
    }

    /// Replays the trace through a [`ShardedBuffer`] pool (single-threaded,
    /// so the outcome is deterministic; with one shard it must equal
    /// [`Trace::replay_sequential`] exactly).
    pub fn replay_sharded(
        &self,
        policy: PolicyKind,
        capacity: usize,
        shards: usize,
    ) -> Result<ReplayOutcome> {
        let disk = self.build_disk()?;
        let pool = ShardedBuffer::new(disk, policy, capacity, shards);
        let mut trajectory = Vec::new();
        let mut weights = Vec::new();
        for &(p, q) in &self.accesses {
            let page = pool.fetch(PageId::new(p), AccessContext::query(QueryId::new(q)))?;
            debug_assert_eq!(page.id.raw(), p);
            if shards == 1 {
                if let Some(Some(c)) = pool.shard_candidate_sizes().first() {
                    trajectory.push(*c);
                }
                if let Some(Some(state)) = pool.shard_arena_states().first() {
                    weights.push(state.weights());
                }
            }
        }
        let io = pool.io_stats();
        let arena = if shards == 1 {
            pool.shard_arena_states().into_iter().flatten().next()
        } else {
            None
        };
        Ok(ReplayOutcome {
            stats: pool.stats(),
            io,
            physical_reads: io.reads,
            candidate_trajectory: trajectory,
            weight_trajectory: weights,
            arena,
        })
    }

    /// Replays the trace against a fault-injecting store under a retry
    /// policy. Transient faults must be absorbed (at worst surfacing as a
    /// typed give-up); every successfully returned page is checked against
    /// the pristine disk image.
    pub fn replay_with_faults(
        &self,
        policy: PolicyKind,
        capacity: usize,
        fault: FaultConfig,
        retry: RetryPolicy,
    ) -> Result<FaultReplayOutcome> {
        let mut store = FaultyStore::new(self.build_disk()?, fault);
        let mut mgr = BufferManager::with_policy(policy, capacity);
        mgr.set_retry_policy(retry);
        let mut give_ups = 0u64;
        let mut wrong_payloads = 0u64;
        for &(p, q) in &self.accesses {
            let id = PageId::new(p);
            let ctx = AccessContext::query(QueryId::new(q));
            match mgr.fetch(&mut store, id, ctx) {
                Ok(page) => {
                    if page.payload != store.inner().peek(id)?.payload {
                        wrong_payloads += 1;
                    }
                }
                Err(StorageError::RetriesExhausted { .. } | StorageError::DeviceFailed(_)) => {
                    give_ups += 1
                }
                Err(other) => return Err(other),
            }
        }
        Ok(FaultReplayOutcome {
            stats: mgr.stats(),
            fault_stats: store.fault_stats(),
            give_ups,
            wrong_payloads,
        })
    }

    /// Serializes the trace to its text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("asb-trace v1\n");
        out.push_str(&format!("label {}\n", self.label));
        out.push_str(&format!("pages {}\n", self.pages.len()));
        out.push_str(&format!("accesses {}\n", self.accesses.len()));
        for &(raw, meta) in self.pages.iter() {
            out.push_str(&format!(
                "p {raw} {} {} {} {} {} {}",
                meta.page_type.tag(),
                meta.level,
                meta.stats.entry_count,
                meta.stats.entry_area_sum,
                meta.stats.entry_margin_sum,
                meta.stats.entry_overlap,
            ));
            if let Some(mbr) = meta.stats.mbr {
                out.push_str(&format!(
                    " mbr {} {} {} {}",
                    mbr.min.x, mbr.min.y, mbr.max.x, mbr.max.y
                ));
            }
            out.push('\n');
        }
        for &(p, q) in &self.accesses {
            out.push_str(&format!("a {p} {q}\n"));
        }
        out
    }

    /// Parses a trace from its text format.
    ///
    /// # Errors
    /// Returns a human-readable description of the first malformed line.
    pub fn from_text(text: &str) -> std::result::Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let magic = lines
            .next()
            .map(|(_, s)| s.trim())
            .ok_or("truncated trace: expected header")?;
        if magic != "asb-trace v1" {
            return Err(format!("not an asb-trace v1 file (got {magic:?})"));
        }
        let label = lines
            .next()
            .map(|(_, s)| s.trim())
            .and_then(|s| s.strip_prefix("label "))
            .ok_or("missing label line")?
            .to_string();
        let mut parse_count = |key: &str| -> std::result::Result<usize, String> {
            lines
                .next()
                .map(|(_, s)| s.trim())
                .and_then(|s| s.strip_prefix(key))
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| format!("missing or bad {key} line"))
        };
        let n_pages = parse_count("pages")?;
        let n_accesses = parse_count("accesses")?;

        let mut pages = Vec::with_capacity(n_pages);
        let mut accesses = Vec::with_capacity(n_accesses);
        for (n, raw_line) in lines {
            let line = raw_line.trim();
            if line.is_empty() {
                continue;
            }
            let tok: Vec<&str> = line.split_whitespace().collect();
            let bad = |why: &str| format!("line {}: {why}: {line:?}", n + 1);
            match tok[0] {
                "p" => {
                    let has_mbr = match tok.len() {
                        8 => false,
                        13 if tok[8] == "mbr" => true,
                        _ => return Err(bad("malformed page record")),
                    };
                    let num = |i: usize, what: &str| -> std::result::Result<f64, String> {
                        tok[i].parse::<f64>().map_err(|_| bad(what))
                    };
                    let raw = tok[1].parse::<u64>().map_err(|_| bad("bad page id"))?;
                    let tag = tok[2].parse::<u8>().map_err(|_| bad("bad type tag"))?;
                    let level = tok[3].parse::<u8>().map_err(|_| bad("bad level"))?;
                    let entry_count = tok[4].parse::<u32>().map_err(|_| bad("bad entry count"))?;
                    let entry_area_sum = num(5, "bad area sum")?;
                    let entry_margin_sum = num(6, "bad margin sum")?;
                    let entry_overlap = num(7, "bad overlap")?;
                    let mbr = if has_mbr {
                        Some(Rect::new(
                            num(9, "bad mbr x0")?,
                            num(10, "bad mbr y0")?,
                            num(11, "bad mbr x1")?,
                            num(12, "bad mbr y1")?,
                        ))
                    } else {
                        None
                    };
                    let page_type =
                        PageType::from_tag(tag).ok_or_else(|| bad("unknown page type"))?;
                    pages.push((
                        raw,
                        PageMeta {
                            page_type,
                            level,
                            stats: SpatialStats {
                                mbr,
                                entry_count,
                                entry_area_sum,
                                entry_margin_sum,
                                entry_overlap,
                            },
                        },
                    ));
                }
                "a" => {
                    if tok.len() != 3 {
                        return Err(bad("malformed access record"));
                    }
                    let p = tok[1].parse().map_err(|_| bad("bad page id"))?;
                    let q = tok[2].parse().map_err(|_| bad("bad query id"))?;
                    accesses.push((p, q));
                }
                other => return Err(bad(&format!("unknown record {other:?}"))),
            }
        }
        if pages.len() != n_pages {
            return Err(format!(
                "header claims {n_pages} pages, found {}",
                pages.len()
            ));
        }
        if accesses.len() != n_accesses {
            return Err(format!(
                "header claims {n_accesses} accesses, found {}",
                accesses.len()
            ));
        }
        Ok(Trace {
            label,
            pages: pages.into(),
            accesses,
        })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a trace from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::result::Result<Trace, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Trace::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_workload::QueryKind;

    fn tiny_trace() -> Trace {
        Trace::record(
            DatasetKind::Mainland,
            Scale::Tiny,
            7,
            QuerySetSpec::uniform_windows(33),
            60,
        )
        .unwrap()
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let t = tiny_trace();
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
        // And stable: a second print of the parse is byte-identical.
        assert_eq!(parsed.to_text(), t.to_text());
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("asb-trace v2\nlabel x\npages 0\naccesses 0\n").is_err());
        let t = tiny_trace();
        let mut text = t.to_text();
        text.push_str("z 1 2\n");
        assert!(Trace::from_text(&text).is_err());
    }

    #[test]
    fn build_disk_reconstructs_ids_and_meta() {
        let t = tiny_trace();
        let disk = t.build_disk().unwrap();
        assert_eq!(disk.page_count(), t.pages.len());
        for &(raw, meta) in t.pages.iter() {
            let page = disk.peek(PageId::new(raw)).unwrap();
            assert_eq!(page.meta, meta);
            assert!(page.verify_checksum());
        }
    }

    #[test]
    fn sequential_and_one_shard_replays_agree() {
        let t = tiny_trace();
        for policy in [PolicyKind::Lru, PolicyKind::Asb] {
            let seq = t.replay_sequential(policy, 8).unwrap();
            let sharded = t.replay_sharded(policy, 8, 1).unwrap();
            assert_eq!(sharded.stats, seq.stats, "{policy:?}");
            assert_eq!(sharded.physical_reads, seq.physical_reads, "{policy:?}");
            assert_eq!(
                sharded.candidate_trajectory, seq.candidate_trajectory,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn asb_replay_reports_a_dense_candidate_trajectory() {
        let t = tiny_trace();
        let out = t.replay_sequential(PolicyKind::Asb, 12).unwrap();
        assert_eq!(out.candidate_trajectory.len(), t.accesses.len());
        assert!(out.candidate_trajectory.iter().all(|&c| c >= 1));
        let lru = t.replay_sequential(PolicyKind::Lru, 12).unwrap();
        assert!(lru.candidate_trajectory.is_empty());
    }

    #[test]
    fn arena_replay_is_deterministic_and_shard_agnostic() {
        let t = tiny_trace();
        let a = t.replay_sequential(PolicyKind::Arena, 8).unwrap();
        let b = t.replay_sequential(PolicyKind::Arena, 8).unwrap();
        assert_eq!(a, b, "arena replay must be bit-for-bit reproducible");
        assert_eq!(a.weight_trajectory.len(), t.accesses.len());

        let sharded = t.replay_sharded(PolicyKind::Arena, 8, 1).unwrap();
        assert_eq!(sharded.stats, a.stats, "one-shard arena drifted");
        assert_eq!(sharded.weight_trajectory, a.weight_trajectory);
        assert_eq!(sharded.arena, a.arena);

        let arena = a.arena.expect("arena snapshot");
        assert!(arena.accesses > 0);
        assert_eq!(a.stats.authority_switches, arena.switches);
        assert_eq!(a.stats.best_expert_misses, arena.best_expert_misses());
        // Non-arena replays report no arena data at all.
        let lru = t.replay_sequential(PolicyKind::Lru, 8).unwrap();
        assert!(lru.weight_trajectory.is_empty());
        assert!(lru.arena.is_none());
    }

    #[test]
    fn faulty_replay_stays_correct() {
        let t = Trace::record(
            DatasetKind::Mainland,
            Scale::Tiny,
            7,
            QuerySetSpec::intensified(QueryKind::Point),
            60,
        )
        .unwrap();
        let out = t
            .replay_with_faults(
                PolicyKind::Asb,
                8,
                FaultConfig::chaos(99, 0.05),
                RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(out.wrong_payloads, 0, "corruption must never be served");
        assert!(out.stats.retries > 0 || out.fault_stats.read_faults == 0);
        // The clean outcome is unchanged by the detour through faults.
        let clean = t.replay_sequential(PolicyKind::Asb, 8).unwrap();
        assert_eq!(out.stats.logical_reads, clean.stats.logical_reads);
    }
}
