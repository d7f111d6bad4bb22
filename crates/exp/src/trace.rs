//! Access-trace record & replay.
//!
//! A [`Trace`] is the *logical* page-access sequence of one experiment
//! run: the disk image's page metadata plus every `(page, query)` read the
//! index issued. A read-only index asks for the same pages in the same
//! order whatever buffer sits above it, so one recorded run can be replayed
//! bit-for-bit through *any* policy, buffer size or shard count: the same
//! hits, misses and physical I/O come back as from the live buffered run
//! (`tests/golden_trace.rs`,
//! `replay_equals_a_live_buffered_run_on_every_access_method`: every policy,
//! all three access methods, whole `BufferStats` and `IoStats`). Every
//! read-only experiment of this crate therefore records once and replays
//! per policy, and committed traces are a regression harness for the whole
//! buffer stack. A write changes the page catalogue mid-stream, which a
//! trace does not model: update workloads run live.
//!
//! [`Trace::drive`] is the one loop that issues the recorded reads; every
//! replay is a pool of the caller's choosing plus a step closure. Whoever
//! wants more than counters — a candidate-set trajectory, arena weights, a
//! victim stream — samples its own pool inside that step, at its own rate.
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

use crate::lab::Lab;
use asb_core::{BufferManager, BufferStats, PolicyKind};
use asb_geom::{Query, Rect, SpatialStats};
use asb_storage::sync::{Counter, Mutex};
use asb_storage::{
    AccessContext, DiskManager, IoStats, PageId, PageMeta, PageStore, PageType, QueryId,
    RecordingStore, Result,
};
use asb_workload::{DatasetKind, PhasedWorkload, QuerySetSpec, Scale};
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Buffer statistics of the replay.
    pub stats: BufferStats,
    /// Physical I/O the simulated disk observed; `io.reads` is the paper's
    /// "disk accesses".
    pub io: IoStats,
}

/// Replay threads of [`Trace::replay_all`]: what the machine offers.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Trace {
    /// Records the logical access sequence of one workload: `queries`
    /// queries from `spec`, walked once over the unbuffered R\*-tree of a
    /// fresh [`Lab`] for `(scale, seed)`, so the queries and the label are
    /// the lab's own.
    pub fn record(
        db: DatasetKind,
        scale: Scale,
        seed: u64,
        spec: QuerySetSpec,
        queries: usize,
    ) -> Result<Trace> {
        Lab::new(scale, seed).record(db, &spec.name(), |dataset, qseed| {
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
        Lab::new(scale, seed).record(db, &workload.label(), |dataset, qseed| {
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

    /// Drains the reads `store` has logged into a trace over the page
    /// catalogue of the disk below it.
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

    /// The one loop: hands every recorded read to `step`, in order, as
    /// `(index, page, context)`, and stops at the first error `step` returns.
    pub fn drive(
        &self,
        mut step: impl FnMut(usize, PageId, AccessContext) -> Result<()>,
    ) -> Result<()> {
        for (i, &(p, q)) in self.accesses.iter().enumerate() {
            step(i, PageId::new(p), AccessContext::query(QueryId::new(q)))?;
        }
        Ok(())
    }

    /// Replays the trace through a sequential [`BufferManager`] — one
    /// experiment cell.
    pub fn replay(&self, policy: PolicyKind, capacity: usize) -> Result<ReplayOutcome> {
        let mut disk = self.build_disk()?;
        let mut mgr = BufferManager::with_policy(policy, capacity);
        self.drive(|_, id, ctx| mgr.fetch(&mut disk, id, ctx).map(drop))?;
        Ok(ReplayOutcome {
            stats: mgr.stats(),
            io: disk.stats(),
        })
    }

    /// Misses of Belady's OPT on the trace at `capacity` frames: on a miss
    /// with every frame taken, the resident page whose next use lies
    /// farthest ahead is evicted; pages never used again go first, ties
    /// broken by page id. No replacement policy misses less, so
    /// `replay(policy, capacity).stats.misses - opt_misses(capacity)` is
    /// what `policy` leaves on the table.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn opt_misses(&self, capacity: usize) -> u64 {
        assert!(capacity > 0, "OPT needs at least one frame");
        // One backward pass: the index of the next access to each access's
        // page, `usize::MAX` for never.
        let mut next_use = vec![usize::MAX; self.accesses.len()];
        let mut later: HashMap<u64, usize> = HashMap::new();
        for (i, &(page, _)) in self.accesses.iter().enumerate().rev() {
            next_use[i] = later.insert(page, i).unwrap_or(usize::MAX);
        }
        // Residents keyed by (next use, page): the last one is the victim.
        let mut by_next_use: BTreeSet<(usize, u64)> = BTreeSet::new();
        let mut resident: HashMap<u64, usize> = HashMap::new();
        let mut misses = 0;
        for (i, &(page, _)) in self.accesses.iter().enumerate() {
            match resident.insert(page, next_use[i]) {
                Some(was) => {
                    by_next_use.remove(&(was, page));
                }
                None => {
                    misses += 1;
                    if resident.len() > capacity {
                        if let Some((_, victim)) = by_next_use.pop_last() {
                            resident.remove(&victim);
                        }
                    }
                }
            }
            by_next_use.insert((next_use[i], page));
        }
        misses
    }

    /// The one evaluator: [`Trace::replay`] of every `(trace, policy,
    /// capacity)` job, outcomes in job order. A replay is a pure function
    /// of its job, so the worker count — what the machine offers — moves
    /// wall-clock time only.
    ///
    /// # Errors
    /// The first storage error in job order; later jobs may or may not
    /// have run.
    pub fn replay_all<T>(jobs: &[(T, PolicyKind, usize)]) -> Result<Vec<ReplayOutcome>>
    where
        T: std::ops::Deref<Target = Trace> + Sync,
    {
        Trace::replay_all_on(workers(), jobs)
    }

    /// [`Trace::replay_all`] on `workers` threads, the calling one included.
    /// Jobs are handed out by an atomic cursor, so a slow cell (a large
    /// buffer, the arena) does not leave threads idle behind a static
    /// partition.
    ///
    /// # Panics
    /// Panics if a worker panics: a failed experiment propagates rather
    /// than producing a partial table.
    pub(crate) fn replay_all_on<T>(
        workers: usize,
        jobs: &[(T, PolicyKind, usize)],
    ) -> Result<Vec<ReplayOutcome>>
    where
        T: std::ops::Deref<Target = Trace> + Sync,
    {
        let next = Counter::default();
        let slots: Vec<Mutex<Option<Result<ReplayOutcome>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.incr() as usize;
            let Some((trace, policy, capacity)) = jobs.get(i) else {
                break;
            };
            *slots[i].lock() = Some(trace.replay(*policy, *capacity));
        };
        std::thread::scope(|s| {
            for _ in 1..workers.min(jobs.len()) {
                s.spawn(work);
            }
            work();
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("every job ran"))
            .collect()
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

        // The header counts are claims checked at the end, not allocation
        // sizes: a four-line file may claim 2^64 − 1 pages.
        let mut pages = Vec::new();
        let mut accesses = Vec::new();
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
                    // `build_disk` rebuilds ids densely in this order.
                    if pages.last().is_some_and(|&(prev, _)| raw <= prev) {
                        return Err(bad("page ids must be strictly increasing"));
                    }
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
    use asb_storage::StorageError;
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

    fn point_trace() -> Trace {
        Trace::record(
            DatasetKind::Mainland,
            Scale::Tiny,
            7,
            QuerySetSpec::intensified(QueryKind::Point),
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
        // Page records out of id order: a duplicate used to replay with page
        // 1 silently given page 0's metadata, a swap to fail as `page P0 not
        // found`.
        let page = |raw: u64| format!("p {raw} 1 0 3 0.5 1 0\n");
        let header = "asb-trace v1\nlabel x\npages 2\naccesses 0\n";
        for [a, b] in [[0, 0], [1, 0]] {
            let err = Trace::from_text(&format!("{header}{}{}", page(a), page(b))).unwrap_err();
            assert!(
                err.starts_with("line 6: page ids must be strictly increasing"),
                "{err}"
            );
        }
        let sorted = format!("{header}{}{}", page(0), page(1));
        assert!(Trace::from_text(&sorted).is_ok());
    }

    /// The header is a claim, not an allocation size: these four-line files
    /// used to abort with `capacity overflow` instead of naming the mismatch.
    #[test]
    fn from_text_checks_the_header_counts_instead_of_allocating_them() {
        for (pages, accesses) in [(u64::MAX, 0), (0, 1u64 << 60)] {
            let text = format!("asb-trace v1\nlabel x\npages {pages}\naccesses {accesses}\n");
            let err = Trace::from_text(&text).unwrap_err();
            assert!(err.contains("header claims"), "{err}");
        }
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
    fn drive_visits_every_access_once_in_order_and_stops_at_the_first_error() {
        let t = tiny_trace();
        let mut seen = Vec::new();
        t.drive(|i, id, ctx| {
            assert_eq!(i, seen.len(), "indices count up from zero");
            seen.push((id.raw(), ctx.query.raw()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, t.accesses);

        let mut steps = 0;
        let stopped = t.drive(|i, id, _| {
            steps += 1;
            if i == 5 {
                return Err(StorageError::PageNotFound(id));
            }
            Ok(())
        });
        let fifth = PageId::new(t.accesses[5].0);
        assert_eq!(stopped, Err(StorageError::PageNotFound(fifth)));
        assert_eq!(steps, 6, "nothing runs after the failing step");
    }

    /// The arena's two counters in `BufferStats` are its state's, and on a
    /// fault-free store the arena sees exactly the buffer's misses — so
    /// `misses − best_expert_misses` is `ArenaState::regret` (what
    /// `replacement_bench` tabulates).
    #[test]
    fn arena_counters_in_the_stats_are_the_arena_states() {
        let t = tiny_trace();
        let mut disk = t.build_disk().unwrap();
        let mut mgr = BufferManager::with_policy(PolicyKind::Arena, 8);
        t.drive(|_, id, ctx| mgr.fetch(&mut disk, id, ctx).map(drop))
            .unwrap();
        let stats = mgr.stats();
        let arena = mgr.policy().arena_state().expect("arena snapshot");
        assert_eq!(stats, t.replay(PolicyKind::Arena, 8).unwrap().stats);
        assert!(arena.accesses > 0);
        assert_eq!(stats.authority_switches, arena.switches);
        assert_eq!(stats.best_expert_misses, arena.best_expert_misses());
        assert_eq!(stats.misses, arena.misses);
        let lru = t.replay(PolicyKind::Lru, 8).unwrap().stats;
        assert_eq!((lru.authority_switches, lru.best_expert_misses), (0, 0));
    }

    /// Whatever the worker count and however the jobs are ordered or
    /// repeated, every job's outcome is its own sequential replay.
    #[test]
    fn replay_all_is_a_pure_function_of_each_job() {
        let (a, b) = (tiny_trace(), point_trace());
        let jobs = [
            (&a, PolicyKind::Lru, 8),
            (&b, PolicyKind::Asb, 6),
            (&a, PolicyKind::Arena, 8),
            (&a, PolicyKind::Lru, 8),
            (&b, PolicyKind::LruK { k: 2 }, 12),
        ];
        let alone: Vec<_> = jobs
            .iter()
            .map(|&(t, policy, capacity)| t.replay(policy, capacity).unwrap())
            .collect();
        for workers in [1, 3, 8] {
            assert_eq!(Trace::replay_all_on(workers, &jobs).unwrap(), alone);
        }
        assert_eq!(Trace::replay_all(&jobs).unwrap(), alone);
        assert!(Trace::replay_all(&jobs[..0]).unwrap().is_empty());
    }
}
