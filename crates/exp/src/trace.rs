//! Access-trace record & replay.
//!
//! A [`Trace`] is the *logical* page-access sequence of one experiment
//! run: the disk's page metadata when recording started, then every read
//! the index issued and every write, allocation and free, in order. An
//! index makes the same calls whatever buffer sits above it, so one
//! recording replays bit-for-bit through *any* policy, buffer size or
//! shard count: the same hits, misses and physical I/O come
//! back as from the live buffered run (`tests/golden_trace.rs`,
//! `replay_equals_a_live_buffered_run_on_every_access_method`: every policy,
//! all three access methods and both update churns, whole `BufferStats` and
//! `IoStats`). Every experiment of this crate therefore records once and
//! replays per policy, and committed traces are a regression harness for the
//! whole buffer stack. Replayed payloads are synthetic ([`Trace::payload`]).
//!
//! [`Trace::drive`] is the one loop that issues the recorded entries, each a
//! [`PageOp`]; every replay is a pool of the caller's choosing plus a step
//! closure. Whoever wants more than counters — a candidate-set trajectory,
//! arena weights, a victim stream — samples its own pool inside that step,
//! at its own rate. What models reads only (OPT, the crash sweep, Fig. 14's
//! trajectory) refuses a trace that holds updates ([`Trace::reads_only`]).
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
//! w|n <raw> <type-tag> ... (a write | an allocation: a `p` line's fields)
//! f <raw>                   (a free)
//! ...
//! ```
//!
//! `accesses` counts the `a`, `w`, `n` and `f` lines, which keep their
//! recorded order. Floats are written with Rust's shortest-roundtrip
//! formatting, so a parse–print cycle is lossless.

use crate::lab::Lab;
use asb_core::{BufferManager, BufferStats, PolicyKind};
use asb_geom::{Rect, SpatialStats};
use asb_storage::sync::{Counter, Mutex};
use asb_storage::{
    AccessContext, DiskManager, IoStats, Page, PageId, PageMeta, PageOp, PageStore, PageType,
    QueryId, RecordingStore, Result, StorageError,
};
use asb_workload::{DatasetKind, PhasedWorkload, QuerySetSpec, Scale};
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A recorded access trace: page catalogue plus logical access sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Free-form provenance line (database, scale, seed, query set).
    pub label: String,
    /// `(raw page id, metadata)` of every live page when recording started,
    /// sorted by id. Shared: every trace recorded over one read-only index
    /// has the same catalogue.
    pub pages: Arc<[(u64, PageMeta)]>,
    /// `(raw page id, raw query id)` of every logical read, in order.
    pub accesses: Vec<(u64, u64)>,
    /// Every write, allocation and free, in order, each with the number of
    /// reads recorded before it; empty for a read-only workload.
    pub updates: Vec<(usize, PageOp)>,
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

    /// The page catalogue of `disk` as it stands: where a trace starts.
    pub(crate) fn catalogue(disk: &DiskManager) -> Arc<[(u64, PageMeta)]> {
        disk.iter_pages().map(|p| (p.id.raw(), p.meta)).collect()
    }

    /// Drains what `store` has logged into a trace that starts from `pages`,
    /// the [`Trace::catalogue`] taken when the recording was switched on.
    pub(crate) fn capture(
        label: String,
        pages: Arc<[(u64, PageMeta)]>,
        store: &RecordingStore<DiskManager>,
    ) -> Trace {
        let (reads, updates) = store.take_record();
        let accesses = reads.iter().map(|(p, q)| (p.raw(), q.raw())).collect();
        Trace {
            label,
            pages,
            accesses,
            updates,
        }
    }

    /// Runs `run` on `index` with the recorder below it (`store`) switched
    /// on for exactly that long, and returns the reference string, over the
    /// catalogue as it stood before `run`.
    ///
    /// # Errors
    /// The first error of `run`, or `InvalidInput` before it on a disk with
    /// freed slots, where a replay's allocations would hand out other pages.
    pub fn record_on<T>(
        label: String,
        index: &mut T,
        store: fn(&T) -> &RecordingStore<DiskManager>,
        run: impl FnOnce(&mut T) -> Result<()>,
    ) -> Result<Trace> {
        let disk = store(index).inner();
        if disk.free_slots() > 0 {
            let reason = format!("{label}: a disk with freed slots cannot be replayed");
            return Err(StorageError::InvalidInput { reason });
        }
        let pages = Trace::catalogue(disk);
        store(index).set_recording(true);
        run(index)?;
        store(index).set_recording(false);
        Ok(Trace::capture(label, pages, store(index)))
    }

    /// The payload of replayed page `raw`: its id. Replacement decisions
    /// depend only on page metadata, never on payload bytes.
    pub fn payload(raw: u64) -> Bytes {
        Bytes::from(raw.to_le_bytes().to_vec())
    }

    /// Rebuilds a simulated disk holding exactly the catalogued pages (same
    /// ids — physical adjacency, and hence the sequential-read split, is
    /// preserved), with synthetic payloads.
    ///
    /// # Errors
    /// [`StorageError::AllocationMismatch`] for a catalogue that is not the
    /// ids `0..n` in order: a disk without freed slots, which every
    /// recording starts from and [`Trace::from_text`] checks.
    pub fn build_disk(&self) -> Result<DiskManager> {
        let mut disk = DiskManager::new();
        for &(raw, meta) in self.pages.iter() {
            let id = disk.allocate(meta, Trace::payload(raw))?;
            Trace::check_alloc(PageId::new(raw), id)?;
        }
        disk.reset_stats();
        Ok(disk)
    }

    /// Every recorded entry in recorded order: the reads as
    /// [`PageOp::Read`], each update after the reads recorded before it.
    fn entries(&self) -> impl Iterator<Item = PageOp> + '_ {
        let read = |&(p, q)| PageOp::Read(PageId::new(p), QueryId::new(q));
        let (mut reads, mut done) = (self.accesses.iter().map(read), 0);
        let mut updates = self.updates.iter().peekable();
        std::iter::from_fn(move || match updates.next_if(|&&(at, _)| at <= done) {
            Some(&(_, op)) => Some(op),
            None => (reads.next().inspect(|_| done += 1)).or_else(|| updates.next().map(|u| u.1)),
        })
    }

    /// The one loop: hands every recorded entry to `step`, in recorded
    /// order, with its index, and stops at the first error `step` returns.
    pub fn drive(&self, mut step: impl FnMut(usize, PageOp) -> Result<()>) -> Result<()> {
        self.entries()
            .enumerate()
            .try_for_each(|(i, op)| step(i, op))
    }

    /// The reads, for whatever models reads only: refuses a trace that
    /// holds updates.
    pub fn reads_only(&self) -> Result<&[(u64, u64)]> {
        let label = &self.label;
        let reason = format!("{label}: holds page updates, which only a replay models");
        let reads = self.updates.is_empty().then_some(&self.accesses[..]);
        reads.ok_or(StorageError::InvalidInput { reason })
    }

    /// [`Trace::drive`] for whatever models reads only: checks
    /// [`Trace::reads_only`], then hands `step` each `(index, page, context)`.
    pub fn drive_reads(
        &self,
        mut step: impl FnMut(usize, PageId, AccessContext) -> Result<()>,
    ) -> Result<()> {
        for (i, &(p, q)) in self.reads_only()?.iter().enumerate() {
            step(i, PageId::new(p), AccessContext::query(QueryId::new(q)))?;
        }
        Ok(())
    }

    /// Page `id` as a replay writes it: `meta` over [`Trace::payload`].
    pub fn page(id: PageId, meta: PageMeta) -> Result<Page> {
        Page::new(id, meta, Trace::payload(id.raw()))
    }

    /// Checks a replayed allocation against the recorded one: another page
    /// is [`StorageError::AllocationMismatch`].
    pub fn check_alloc(recorded: PageId, replayed: PageId) -> Result<()> {
        let mismatch = StorageError::AllocationMismatch { recorded, replayed };
        (recorded == replayed).then_some(()).ok_or(mismatch)
    }

    /// Replays the trace through a sequential [`BufferManager`] — one
    /// experiment cell. Writes go through the buffer to the disk; the first
    /// storage error, [`StorageError::AllocationMismatch`] included, stops it.
    pub fn replay(&self, policy: PolicyKind, capacity: usize) -> Result<ReplayOutcome> {
        let mut disk = self.build_disk()?;
        let mut mgr = BufferManager::with_policy(policy, capacity);
        self.drive(|_, op| match op {
            PageOp::Read(id, q) => mgr.fetch(&mut disk, id, AccessContext::query(q)).map(drop),
            PageOp::Write(id, meta) => mgr.write_through(&mut disk, Trace::page(id, meta)?),
            PageOp::Alloc(id, meta) => {
                let replayed = mgr.allocate_through(&mut disk, meta, Trace::payload(id.raw()))?;
                Trace::check_alloc(id, replayed)
            }
            PageOp::Free(id) => mgr.free_through(&mut disk, id),
        })?;
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
    /// A trace that holds updates is refused ([`Trace::reads_only`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn opt_misses(&self, capacity: usize) -> Result<u64> {
        let accesses = self.reads_only()?;
        assert!(capacity > 0, "OPT needs at least one frame");
        // One backward pass: the index of the next access to each access's
        // page, `usize::MAX` for never.
        let mut next_use = vec![usize::MAX; accesses.len()];
        let mut later: HashMap<u64, usize> = HashMap::new();
        for (i, &(page, _)) in accesses.iter().enumerate().rev() {
            next_use[i] = later.insert(page, i).unwrap_or(usize::MAX);
        }
        // Residents keyed by (next use, page): the last one is the victim.
        let mut by_next_use: BTreeSet<(usize, u64)> = BTreeSet::new();
        let mut resident: HashMap<u64, usize> = HashMap::new();
        let mut misses = 0;
        for (i, &(page, _)) in accesses.iter().enumerate() {
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
        Ok(misses)
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
        let entries = self.accesses.len() + self.updates.len();
        out.push_str(&format!("accesses {entries}\n"));
        for &(raw, meta) in self.pages.iter() {
            out.push_str(&format!("p {}\n", page_text(raw, meta)));
        }
        for op in self.entries() {
            out.push_str(&match op {
                PageOp::Read(id, q) => format!("a {} {}\n", id.raw(), q.raw()),
                PageOp::Write(id, meta) => format!("w {}\n", page_text(id.raw(), meta)),
                PageOp::Alloc(id, meta) => format!("n {}\n", page_text(id.raw(), meta)),
                PageOp::Free(id) => format!("f {}\n", id.raw()),
            });
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
        let (mut pages, mut accesses, mut updates) = (Vec::new(), Vec::new(), Vec::new());
        for (n, raw_line) in lines {
            let line = raw_line.trim();
            if line.is_empty() {
                continue;
            }
            let tok: Vec<&str> = line.split_whitespace().collect();
            let bad = |why: &str| format!("line {}: {why}: {line:?}", n + 1);
            let page_op = |op: fn(PageId, PageMeta) -> PageOp| {
                let (raw, meta) = parse_page(&tok[1..]).map_err(bad)?;
                Ok::<_, String>((accesses.len(), op(PageId::new(raw), meta)))
            };
            match tok[0] {
                "p" => {
                    let (raw, meta) = parse_page(&tok[1..]).map_err(bad)?;
                    // `build_disk` rebuilds the ids `0..pages` in this order.
                    if pages.last().is_some_and(|&(prev, _)| raw <= prev) {
                        return Err(bad("page ids must be strictly increasing"));
                    }
                    if raw >= n_pages as u64 {
                        return Err(bad("page id not below the header's page count"));
                    }
                    pages.push((raw, meta));
                }
                "a" => {
                    if tok.len() != 3 {
                        return Err(bad("malformed access record"));
                    }
                    let p = tok[1].parse().map_err(|_| bad("bad page id"))?;
                    let q = tok[2].parse().map_err(|_| bad("bad query id"))?;
                    accesses.push((p, q));
                }
                "w" => updates.push(page_op(PageOp::Write)?),
                "n" => updates.push(page_op(PageOp::Alloc)?),
                "f" => {
                    let raw = match tok[1..] {
                        [raw] => raw.parse().map_err(|_| bad("bad page id"))?,
                        _ => return Err(bad("malformed free record")),
                    };
                    updates.push((accesses.len(), PageOp::Free(PageId::new(raw))));
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
        if accesses.len() + updates.len() != n_accesses {
            return Err(format!(
                "header claims {n_accesses} accesses, found {}",
                accesses.len() + updates.len()
            ));
        }
        Ok(Trace {
            label,
            pages: pages.into(),
            accesses,
            updates,
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

/// `<raw> <type-tag> <level> <entries> <area> <margin> <overlap> [mbr <x0>
/// <y0> <x1> <y1>]`: a page and its metadata, the fields of `p`, `w` and
/// `n` lines.
fn page_text(raw: u64, meta: PageMeta) -> String {
    let s = meta.stats;
    let mut out = format!(
        "{raw} {} {} {} {} {} {}",
        meta.page_type.tag(),
        meta.level,
        s.entry_count,
        s.entry_area_sum,
        s.entry_margin_sum,
        s.entry_overlap,
    );
    if let Some(mbr) = s.mbr {
        out.push_str(&format!(
            " mbr {} {} {} {}",
            mbr.min.x, mbr.min.y, mbr.max.x, mbr.max.y
        ));
    }
    out
}

/// Parses the tokens of [`page_text`]; the error says which field is bad.
fn parse_page(tok: &[&str]) -> std::result::Result<(u64, PageMeta), &'static str> {
    let has_mbr = match tok.len() {
        7 => false,
        12 if tok[7] == "mbr" => true,
        _ => return Err("malformed page record"),
    };
    let num = |i: usize, what| tok[i].parse::<f64>().map_err(|_| what);
    let raw = tok[0].parse::<u64>().map_err(|_| "bad page id")?;
    let tag = tok[1].parse::<u8>().map_err(|_| "bad type tag")?;
    let level = tok[2].parse::<u8>().map_err(|_| "bad level")?;
    let entry_count = tok[3].parse::<u32>().map_err(|_| "bad entry count")?;
    let stats = SpatialStats {
        entry_count,
        entry_area_sum: num(4, "bad area sum")?,
        entry_margin_sum: num(5, "bad margin sum")?,
        entry_overlap: num(6, "bad overlap")?,
        mbr: match has_mbr {
            true => Some(Rect::new(
                num(8, "bad mbr x0")?,
                num(9, "bad mbr y0")?,
                num(10, "bad mbr x1")?,
                num(11, "bad mbr y1")?,
            )),
            false => None,
        },
    };
    let page_type = PageType::from_tag(tag).ok_or("unknown page type")?;
    let meta = PageMeta {
        page_type,
        level,
        stats,
    };
    Ok((raw, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_storage::StorageError;
    use asb_workload::QueryKind;

    fn recorded(spec: QuerySetSpec) -> Trace {
        Trace::record(DatasetKind::Mainland, Scale::Tiny, 7, spec, 60).unwrap()
    }

    fn tiny_trace() -> Trace {
        recorded(QuerySetSpec::uniform_windows(33))
    }

    fn point_trace() -> Trace {
        recorded(QuerySetSpec::intensified(QueryKind::Point))
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
        t.drive_reads(|i, id, ctx| {
            assert_eq!(i, seen.len(), "indices count up from zero");
            seen.push((id.raw(), ctx.query.raw()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, t.accesses);

        let mut steps = 0;
        let stopped = t.drive_reads(|i, id, _| {
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
        t.drive_reads(|_, id, ctx| mgr.fetch(&mut disk, id, ctx).map(drop))
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
