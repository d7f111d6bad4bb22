//! Deterministic cooperative scheduler for model-checking concurrent code.
//!
//! This crate is the engine behind the workspace's `asb_schedule` build
//! mode: the sync facade in `asb-storage` (re-exported as `asb_core::sync`)
//! compiles to the [`sync`] primitives defined here, and a test scenario
//! run under [`explore`] has every lock acquisition and atomic operation
//! turned into a *scheduling point*. Only one controlled thread runs at a
//! time; at every scheduling point the explorer picks which runnable thread
//! proceeds, so repeated runs enumerate bounded thread interleavings —
//! a loom-style model checker small enough to live in-tree and built from
//! nothing but `std`.
//!
//! # How control works
//!
//! [`explore`] runs a scenario closure once per *schedule*. Each run spawns
//! the closure on a fresh controlled root thread; the closure spawns more
//! controlled threads with [`thread::spawn`]. Controlled threads park at
//! every scheduling point (spawn, lock acquire, atomic op, join, exit) and
//! the explorer — holding a seeded deterministic PRNG — picks the next
//! thread among those that are *runnable* (not blocked on a held lock, a
//! busy rwlock, or an unfinished join target). The sequence of picks is the
//! schedule; its hash identifies the interleaving, and exploration stops
//! once a target number of distinct schedules has been observed (or a
//! budget of runs is exhausted).
//!
//! Determinism: schedule `i` of an exploration seeded `s` draws every pick
//! from `splitmix64(s, i)`. The same seed explores the same schedules in
//! the same order, so a failure reproduces exactly — the failing pick
//! sequence is also written to an artifact file for CI to upload.
//!
//! # Outside an exploration
//!
//! Every primitive here falls back to plain `std` behaviour when the
//! current thread is not controlled (no thread-local scheduler context), so
//! a workspace compiled with `--cfg asb_schedule` still runs its ordinary
//! tests correctly — only threads spawned inside [`explore`] are scheduled.
//!
//! Deadlocks are detected (no runnable thread while some are still blocked)
//! and reported as a panic carrying the schedule trace.
//!
//! # Lock-order checking
//!
//! Every run also records a *lock-acquisition graph*: a node per lock
//! (kind + deterministic per-run registration index), an edge `a -> b`
//! whenever a thread acquires `b` while holding `a`. [`explore`] unions
//! the graph across all schedules it runs and panics if the union is
//! cyclic — catching lock-order inversions whose two halves never ran
//! close enough together to deadlock in any single explored schedule.
//! The offending edges, each tagged with the iteration (and derived rng
//! seed) that first produced it, are written to the artifact directory as
//! `{name}-seed{seed}-lockcycle.txt`. The per-exploration union is
//! returned on [`Report::lock_graph`]; [`lock_graph`] exposes the
//! process-wide union.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The scheduler is built from the std primitives the workspace bans.
#![allow(clippy::disallowed_types)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};

/// SplitMix64 step: the deterministic PRNG driving schedule choices.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a choice trace: the schedule's identity hash.
fn fnv1a(trace: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in trace {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Source of unique ids for model-tracked locks.
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_lock_id() -> u64 {
    NEXT_LOCK_ID.fetch_add(1, StdOrdering::Relaxed)
}

/// Kind of a model-tracked lock, distinguished in the acquisition graph so
/// a cycle report names the primitive involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockKind {
    /// A [`sync::Mutex`].
    Mutex,
    /// A [`sync::RwLock`] (reader and writer acquisitions share the node).
    RwLock,
}

/// One lock in the acquisition graph: its kind plus its registration index
/// within the run. The index counts lock *creations* on controlled threads
/// (plus lazy registrations at first grant, for locks built outside the
/// scenario), so it is a pure function of the scenario — unlike the
/// process-global lock id, which shifts when tests run in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockNode {
    /// Which primitive this node stands for.
    pub kind: LockKind,
    /// Deterministic per-run registration index.
    pub index: u64,
}

impl std::fmt::Display for LockNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            LockKind::Mutex => write!(f, "M{}", self.index),
            LockKind::RwLock => write!(f, "R{}", self.index),
        }
    }
}

/// Union lock-acquisition graph of an exploration: an edge `a -> b` means
/// some explored schedule acquired `b` while holding `a`. Each edge carries
/// the iteration that first recorded it, so a cycle report points at
/// concrete reproducible schedules. A cycle in the *union* is a lock-order
/// inversion even when no single schedule deadlocked — the two halves of
/// the inversion may live in schedules that never overlapped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockGraph {
    edges: BTreeMap<(LockNode, LockNode), u64>,
}

impl LockGraph {
    /// Iterates `(held, acquired, first_iteration)` edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (LockNode, LockNode, u64)> + '_ {
        self.edges.iter().map(|(&(a, b), &it)| (a, b, it))
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finds a directed cycle, if one exists. Returns the node sequence
    /// `[n0, n1, ..., n0]` (first node repeated to close the loop), picking
    /// deterministically (DFS in node order) when several cycles exist.
    pub fn cycle(&self) -> Option<Vec<LockNode>> {
        fn dfs(
            n: LockNode,
            adj: &BTreeMap<LockNode, Vec<LockNode>>,
            color: &mut BTreeMap<LockNode, u8>,
            stack: &mut Vec<LockNode>,
        ) -> Option<Vec<LockNode>> {
            color.insert(n, 1);
            stack.push(n);
            for &m in adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                match color.get(&m).copied().unwrap_or(0) {
                    0 => {
                        if let Some(c) = dfs(m, adj, color, stack) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let pos = stack.iter().position(|&x| x == m).unwrap_or(0);
                        let mut cyc = stack[pos..].to_vec();
                        cyc.push(m);
                        return Some(cyc);
                    }
                    _ => {}
                }
            }
            stack.pop();
            color.insert(n, 2);
            None
        }
        let mut adj: BTreeMap<LockNode, Vec<LockNode>> = BTreeMap::new();
        for &(a, b) in self.edges.keys() {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default();
        }
        let mut color: BTreeMap<LockNode, u8> = adj.keys().map(|&n| (n, 0u8)).collect();
        let mut stack = Vec::new();
        let nodes: Vec<LockNode> = adj.keys().copied().collect();
        for n in nodes {
            if color.get(&n).copied() == Some(0) {
                if let Some(c) = dfs(n, &adj, &mut color, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// Process-wide union of every completed exploration's (acyclic) lock
/// graph, keyed by `LockNode`. Explorations that panicked on a cycle are
/// *not* merged, so one failing scenario cannot poison the view other
/// tests see.
static GLOBAL_GRAPH: StdMutex<BTreeMap<(LockNode, LockNode), u64>> = StdMutex::new(BTreeMap::new());

/// Snapshot of the process-wide union lock graph accumulated by every
/// [`explore`] call so far. Diagnostic: node indices are per-run, so the
/// union is only meaningful across scenarios that build their locks in the
/// same order (as the workspace's pool scenarios do). Per-scenario
/// acyclicity is what [`explore`] itself enforces.
pub fn lock_graph() -> LockGraph {
    LockGraph {
        edges: GLOBAL_GRAPH
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
    }
}

/// The graph node of lock `id`, assigning the next per-run index if the
/// lock has none yet.
fn lock_node(st: &mut State, id: u64, kind: LockKind) -> LockNode {
    if let Some(&node) = st.lock_nodes.get(&id) {
        return node;
    }
    let node = LockNode {
        kind,
        index: st.next_node,
    };
    st.next_node += 1;
    st.lock_nodes.insert(id, node);
    node
}

/// Registers a lock created on a controlled thread, assigning its
/// deterministic per-run node index. No-op off controlled threads (such
/// locks are registered lazily at first grant instead).
fn register_lock(id: u64, kind: LockKind) {
    if let Some(ctx) = current_ctx() {
        let mut st = ctx.shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        lock_node(&mut st, id, kind);
    }
}

/// Records a grant of lock `id` to thread `tid` in the acquisition graph:
/// adds `held -> id` edges for everything the thread holds, then pushes
/// `id` onto its held stack.
fn note_acquire(st: &mut State, tid: usize, id: u64, kind: LockKind) {
    let node = lock_node(st, id, kind);
    let held = st.held[tid].clone();
    for h in held {
        if h != id {
            if let Some(&hn) = st.lock_nodes.get(&h) {
                st.edges.insert((hn, node));
            }
        }
    }
    st.held[tid].push(id);
}

/// Removes one held occurrence of `id` from thread `tid`'s stack (guards
/// can drop out of acquisition order, so this is a search, not a pop).
fn note_release(st: &mut State, tid: usize, id: u64) {
    if let Some(held) = st.held.get_mut(tid) {
        if let Some(pos) = held.iter().rposition(|&h| h == id) {
            held.remove(pos);
        }
    }
}

/// Why a parked thread cannot run yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocker {
    /// Wants a mutex.
    Lock(u64),
    /// Wants shared access to a rwlock.
    Read(u64),
    /// Wants exclusive access to a rwlock.
    Write(u64),
    /// Waiting for thread `tid` to finish.
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a pure scheduling point; can run whenever picked.
    Ready,
    /// Parked waiting for a resource.
    Blocked(Blocker),
    /// Currently executing (at most one thread at a time).
    Running,
    /// Body returned (or panicked); never scheduled again.
    Done,
}

#[derive(Debug, Default)]
struct LockState {
    writer: bool,
    readers: usize,
}

struct State {
    threads: Vec<Status>,
    locks: HashMap<u64, LockState>,
    /// Index of the thread currently Running, if any.
    running: Option<usize>,
    /// The schedule so far: which thread was picked at each step.
    trace: Vec<u32>,
    /// Scheduling points contributed by sync primitives (not by
    /// spawn/join/exit). Zero means the facade compiled to real locks.
    sync_points: u64,
    /// First panic payload raised by a controlled thread.
    panic: Option<Box<dyn Any + Send>>,
    /// Graph bookkeeping: each lock's node.
    lock_nodes: HashMap<u64, LockNode>,
    /// Lock ids each thread currently holds, in acquisition order.
    held: Vec<Vec<u64>>,
    /// Next per-run [`LockNode`] index to hand out.
    next_node: u64,
    /// Held-while-acquiring edges recorded during this run.
    edges: BTreeSet<(LockNode, LockNode)>,
}

struct Shared {
    m: StdMutex<State>,
    cv: Condvar,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            m: StdMutex::new(State {
                threads: Vec::new(),
                locks: HashMap::new(),
                running: None,
                trace: Vec::new(),
                sync_points: 0,
                panic: None,
                lock_nodes: HashMap::new(),
                held: Vec::new(),
                next_node: 0,
                edges: BTreeSet::new(),
            }),
            cv: Condvar::new(),
        })
    }
}

/// Per-thread scheduler handle (present only on controlled threads).
#[derive(Clone)]
struct Ctx {
    shared: Arc<Shared>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

impl Ctx {
    /// Parks the calling thread at a scheduling point and blocks until the
    /// explorer picks it again. `status` is `Ready` for a pure yield or
    /// `Blocked` when a resource is wanted — the explorer performs the
    /// grant bookkeeping before waking the thread.
    fn park(&self, status: Status, is_sync_point: bool) {
        let mut st = self.shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        st.threads[self.tid] = status;
        st.running = None;
        if is_sync_point {
            st.sync_points += 1;
        }
        self.shared.cv.notify_all();
        while st.threads[self.tid] != Status::Running {
            st = self
                .shared
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Releases a model lock (mutex or rwlock-writer). Never blocks.
    fn release_write(&self, id: u64) {
        let mut st = self.shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(l) = st.locks.get_mut(&id) {
            l.writer = false;
        }
        note_release(&mut st, self.tid, id);
        self.shared.cv.notify_all();
    }

    /// Releases one shared (reader) hold of a model rwlock. Never blocks.
    fn release_read(&self, id: u64) {
        let mut st = self.shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(l) = st.locks.get_mut(&id) {
            l.readers = l.readers.saturating_sub(1);
        }
        note_release(&mut st, self.tid, id);
        self.shared.cv.notify_all();
    }
}

/// Marks the calling thread's next action as a scheduling point if it is
/// controlled; no-op otherwise.
fn yield_point() {
    if let Some(ctx) = current_ctx() {
        ctx.park(Status::Ready, true);
    }
}

/// Registers and starts a controlled thread running `f`. The thread parks
/// immediately and runs only when the explorer schedules it.
fn spawn_controlled<T, F>(shared: &Arc<Shared>, slot: Arc<StdMutex<Option<T>>>, f: F) -> usize
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let tid = {
        let mut st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        st.threads.push(Status::Ready);
        st.held.push(Vec::new());
        st.threads.len() - 1
    };
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let ctx = Ctx {
            shared: Arc::clone(&shared),
            tid,
        };
        CTX.with(|c| *c.borrow_mut() = Some(ctx));
        // Wait to be scheduled for the first time.
        {
            let mut st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
            while st.threads[tid] != Status::Running {
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let mut st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok(value) => {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            }
            Err(payload) => {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
        }
        st.threads[tid] = Status::Done;
        st.running = None;
        shared.cv.notify_all();
    });
    tid
}

/// Whether a parked thread could run right now.
fn is_runnable(st: &State, tid: usize) -> bool {
    match st.threads[tid] {
        Status::Ready => true,
        Status::Blocked(Blocker::Lock(id)) | Status::Blocked(Blocker::Write(id)) => {
            match st.locks.get(&id) {
                Some(l) => !l.writer && l.readers == 0,
                None => true,
            }
        }
        Status::Blocked(Blocker::Read(id)) => match st.locks.get(&id) {
            Some(l) => !l.writer,
            None => true,
        },
        Status::Blocked(Blocker::Join(target)) => st.threads[target] == Status::Done,
        Status::Running | Status::Done => false,
    }
}

/// Runs one schedule to completion: repeatedly waits for the running
/// thread to park, then picks and grants the next runnable thread.
fn drive_schedule(shared: &Arc<Shared>, mut rng: u64) -> Result<Vec<u32>, Box<dyn Any + Send>> {
    loop {
        let mut st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        while st.running.is_some() {
            st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = st.panic.take() {
            return Err(payload);
        }
        let runnable: Vec<usize> = (0..st.threads.len())
            .filter(|&t| is_runnable(&st, t))
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().all(|&t| t == Status::Done) {
                return Ok(std::mem::take(&mut st.trace));
            }
            let blocked: Vec<usize> = (0..st.threads.len())
                .filter(|&t| matches!(st.threads[t], Status::Blocked(_)))
                .collect();
            return Err(Box::new(format!(
                "deadlock: threads {blocked:?} blocked with no runnable thread (trace: {:?})",
                st.trace
            )));
        }
        let pick = runnable[(splitmix64(&mut rng) % runnable.len() as u64) as usize];
        // Grant the resource the picked thread was waiting for, recording
        // the acquisition in the lock graph.
        match st.threads[pick] {
            Status::Blocked(Blocker::Lock(id)) => {
                st.locks.entry(id).or_default().writer = true;
                note_acquire(&mut st, pick, id, LockKind::Mutex);
            }
            Status::Blocked(Blocker::Write(id)) => {
                st.locks.entry(id).or_default().writer = true;
                note_acquire(&mut st, pick, id, LockKind::RwLock);
            }
            Status::Blocked(Blocker::Read(id)) => {
                st.locks.entry(id).or_default().readers += 1;
                note_acquire(&mut st, pick, id, LockKind::RwLock);
            }
            _ => {}
        }
        st.trace.push(pick as u32);
        st.threads[pick] = Status::Running;
        st.running = Some(pick);
        shared.cv.notify_all();
    }
}

/// Exploration parameters. See [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Scenario name (used in artifact file names and failure messages).
    pub name: &'static str,
    /// Base seed: the whole exploration is a pure function of it.
    pub seed: u64,
    /// Stop once this many *distinct* schedules have been observed.
    pub target_distinct: usize,
    /// Hard budget of schedule runs (bounds wall-clock time even when the
    /// schedule space is smaller than `target_distinct`).
    pub max_schedules: usize,
    /// Where to write the failing-schedule artifact (`None` disables).
    pub artifact_dir: Option<std::path::PathBuf>,
}

impl ExploreConfig {
    /// Defaults sized for CI: 1000 distinct schedules, 4000-run budget,
    /// artifacts under `target/schedule-artifacts/`.
    pub fn new(name: &'static str, seed: u64) -> Self {
        ExploreConfig {
            name,
            seed,
            target_distinct: 1000,
            max_schedules: 4000,
            artifact_dir: Some(std::path::PathBuf::from("target/schedule-artifacts")),
        }
    }
}

/// What an exploration did. Returned by [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Schedule runs executed.
    pub schedules_run: usize,
    /// Distinct schedules (unique pick sequences) observed.
    pub distinct_schedules: usize,
    /// Whether sync primitives contributed scheduling points. `false`
    /// means the facade compiled to real locks (no `--cfg asb_schedule`):
    /// runs are still deterministic whole-thread permutations, but
    /// fine-grained interleavings were not explored.
    pub controlled: bool,
    /// Order-sensitive digest of every schedule hash: two explorations
    /// with the same seed must produce the same digest.
    pub digest: u64,
    /// Union lock-acquisition graph over every explored schedule. Always
    /// acyclic here — a cycle panics inside [`explore`] instead of
    /// returning. Bit-for-bit deterministic per seed.
    pub lock_graph: LockGraph,
}

/// Explores bounded interleavings of `scenario`, which must spawn its
/// concurrent work through [`thread::spawn`].
///
/// The scenario runs once per schedule on a fresh controlled thread; any
/// panic (assertion failure, deadlock report) aborts the exploration,
/// writes the failing schedule to the artifact directory, and re-raises the
/// panic on the calling thread — so `#[should_panic]` tests compose.
///
/// # Panics
/// Re-raises the first scenario panic, and panics on detected deadlock.
pub fn explore<F>(cfg: &ExploreConfig, scenario: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario = Arc::new(scenario);
    let mut distinct: HashSet<u64> = HashSet::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut runs = 0usize;
    let mut controlled = false;
    let mut union: BTreeMap<(LockNode, LockNode), u64> = BTreeMap::new();
    for iteration in 0..cfg.max_schedules {
        if distinct.len() >= cfg.target_distinct {
            break;
        }
        let shared = Shared::new();
        let slot = Arc::new(StdMutex::new(None::<()>));
        let body = Arc::clone(&scenario);
        spawn_controlled(&shared, slot, move || body());
        let mut seed = cfg.seed ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut seed);
        let outcome = drive_schedule(&shared, seed);
        runs += 1;
        let mut st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
        if st.sync_points > 0 {
            controlled = true;
        }
        let run_edges = std::mem::take(&mut st.edges);
        drop(st);
        for e in run_edges {
            union.entry(e).or_insert(iteration as u64);
        }
        match outcome {
            Ok(trace) => {
                let h = fnv1a(&trace);
                distinct.insert(h);
                digest = digest.rotate_left(5) ^ h;
            }
            Err(payload) => {
                let trace = {
                    let st = shared.m.lock().unwrap_or_else(PoisonError::into_inner);
                    st.trace.clone()
                };
                write_artifact(cfg, iteration, &trace, &payload);
                resume_unwind(payload);
            }
        }
    }
    let lock_graph = LockGraph { edges: union };
    if let Some(cycle) = lock_graph.cycle() {
        write_cycle_artifact(cfg, &lock_graph, &cycle);
        let pretty: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
        panic!(
            "lock-order cycle in scenario `{}` (seed {}): {} — the union of {} \
             held-while-acquiring edges across {} schedules is cyclic; see the \
             lockcycle artifact for per-edge first iterations",
            cfg.name,
            cfg.seed,
            pretty.join(" -> "),
            lock_graph.len(),
            runs
        );
    }
    {
        let mut g = GLOBAL_GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        for (edge, it) in &lock_graph.edges {
            g.entry(*edge).or_insert(*it);
        }
    }
    Report {
        schedules_run: runs,
        distinct_schedules: distinct.len(),
        controlled,
        digest,
        lock_graph,
    }
}

/// Writes the union-graph cycle report (scenario, seed, cycle, every edge
/// with the iteration that first recorded it) so CI can upload it.
/// Best-effort, like [`write_artifact`].
fn write_cycle_artifact(cfg: &ExploreConfig, graph: &LockGraph, cycle: &[LockNode]) {
    let Some(dir) = &cfg.artifact_dir else { return };
    let pretty: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
    let mut body = format!(
        "scenario: {}\nseed: {}\nlock-order cycle: {}\n\nunion edges (held -> acquired, \
         first recorded at iteration; that iteration's rng seed is listed for replay):\n",
        cfg.name,
        cfg.seed,
        pretty.join(" -> ")
    );
    for (a, b, it) in graph.edges() {
        let mut s = cfg.seed ^ it.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s);
        body.push_str(&format!("  {a} -> {b}  (iteration {it}, rng seed {s})\n"));
    }
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("{}-seed{}-lockcycle.txt", cfg.name, cfg.seed)),
        body,
    );
}

/// Writes the failing schedule (seed, iteration, pick trace, message) so CI
/// can upload it as an artifact. Best-effort: IO errors are ignored —
/// the panic that is about to propagate matters more.
fn write_artifact(
    cfg: &ExploreConfig,
    iteration: usize,
    trace: &[u32],
    payload: &Box<dyn Any + Send>,
) {
    let Some(dir) = &cfg.artifact_dir else { return };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    let body = format!(
        "scenario: {}\nseed: {}\niteration: {}\nschedule (thread picked at each step): {:?}\npanic: {}\n\nreproduce: rerun the same test with the same seed; \
         schedule {iteration} of this exploration is the failing interleaving.\n",
        cfg.name, cfg.seed, iteration, trace, msg
    );
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!(
            "{}-seed{}-iter{}.txt",
            cfg.name, cfg.seed, iteration
        )),
        body,
    );
}

pub mod sync {
    //! Scheduler-aware synchronization primitives.
    //!
    //! API-compatible with the `parking_lot` shim (`lock()` returns the
    //! guard directly, no poisoning) plus the std atomics the workspace
    //! uses. On a controlled thread every acquisition and atomic operation
    //! is a scheduling point; elsewhere they behave exactly like the real
    //! primitives.

    use super::{
        current_ctx, fresh_lock_id, register_lock, yield_point, Blocker, Ctx, LockKind, Status,
    };
    use std::sync::PoisonError;

    pub use std::sync::atomic::Ordering;

    /// Tells the explorer the calling thread wants `blocker`; returns once
    /// granted. No-op off controlled threads.
    fn acquire(ctx: &Option<Ctx>, blocker: Blocker) {
        if let Some(ctx) = ctx {
            ctx.park(Status::Blocked(blocker), true);
        }
    }

    /// Model-release bookkeeping attached to a guard; runs after the real
    /// guard unlocks (field order in the guard structs guarantees this).
    struct Release {
        ctx: Option<Ctx>,
        id: u64,
        shared_mode: bool,
    }

    impl Drop for Release {
        fn drop(&mut self) {
            if let Some(ctx) = &self.ctx {
                if self.shared_mode {
                    ctx.release_read(self.id);
                } else {
                    ctx.release_write(self.id);
                }
            }
        }
    }

    /// A mutual-exclusion lock that doubles as a model-checker scheduling
    /// point. `lock()` never returns a poison error.
    #[derive(Debug)]
    pub struct Mutex<T: ?Sized> {
        id: u64,
        inner: std::sync::Mutex<T>,
    }

    // Manual impl: a derived Default would zero the id, aliasing every
    // default-constructed mutex to one model lock (false self-deadlocks).
    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    /// Guard returned by [`Mutex::lock`].
    pub struct MutexGuard<'a, T: ?Sized> {
        guard: std::sync::MutexGuard<'a, T>,
        _release: Release,
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<T> Mutex<T> {
        /// Creates a mutex protecting `value`. On a controlled thread the
        /// lock is registered in the run's acquisition graph.
        pub fn new(value: T) -> Self {
            let id = fresh_lock_id();
            register_lock(id, LockKind::Mutex);
            Mutex {
                id,
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the protected value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock; on a controlled thread this is a scheduling
        /// point and the model grants exclusivity before the real lock is
        /// taken (uncontended by construction).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let ctx = current_ctx();
            acquire(&ctx, Blocker::Lock(self.id));
            MutexGuard {
                guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
                _release: Release {
                    ctx,
                    id: self.id,
                    shared_mode: false,
                },
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// A reader-writer lock that doubles as a model-checker scheduling
    /// point. Accessors never return poison errors.
    #[derive(Debug)]
    pub struct RwLock<T: ?Sized> {
        id: u64,
        inner: std::sync::RwLock<T>,
    }

    // Manual impl for the same reason as `Mutex`: the id must be fresh.
    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    /// Guard returned by [`RwLock::read`].
    pub struct RwLockReadGuard<'a, T: ?Sized> {
        guard: std::sync::RwLockReadGuard<'a, T>,
        _release: Release,
    }

    impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    /// Guard returned by [`RwLock::write`].
    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        guard: std::sync::RwLockWriteGuard<'a, T>,
        _release: Release,
    }

    impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<T> RwLock<T> {
        /// Creates a lock protecting `value`. On a controlled thread the
        /// lock is registered in the run's acquisition graph.
        pub fn new(value: T) -> Self {
            let id = fresh_lock_id();
            register_lock(id, LockKind::RwLock);
            RwLock {
                id,
                inner: std::sync::RwLock::new(value),
            }
        }

        /// Consumes the lock, returning the protected value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared read access (a scheduling point; runnable while
        /// no writer holds the model lock, so reads overlap).
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let ctx = current_ctx();
            acquire(&ctx, Blocker::Read(self.id));
            RwLockReadGuard {
                guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
                _release: Release {
                    ctx,
                    id: self.id,
                    shared_mode: true,
                },
            }
        }

        /// Acquires exclusive write access (a scheduling point; runnable
        /// only when no reader or writer holds the model lock).
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let ctx = current_ctx();
            acquire(&ctx, Blocker::Write(self.id));
            RwLockWriteGuard {
                guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
                _release: Release {
                    ctx,
                    id: self.id,
                    shared_mode: false,
                },
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    macro_rules! scheduled_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Scheduler-aware atomic: every operation is a scheduling
            /// point on a controlled thread, then delegates to `std`.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates an atomic with the given initial value.
                pub fn new(v: $prim) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                /// Atomic load (a scheduling point on controlled threads).
                pub fn load(&self, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.load(order)
                }

                /// Atomic store (a scheduling point on controlled threads).
                pub fn store(&self, v: $prim, order: Ordering) {
                    yield_point();
                    self.inner.store(v, order)
                }

                /// Mutable access without synchronization.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    scheduled_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    scheduled_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

    impl AtomicU64 {
        /// Atomic add returning the previous value (a scheduling point on
        /// controlled threads).
        pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            yield_point();
            self.inner.fetch_add(v, order)
        }

        /// Atomic subtract returning the previous value (a scheduling
        /// point on controlled threads).
        pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
            yield_point();
            self.inner.fetch_sub(v, order)
        }
    }
}

pub mod thread {
    //! Controlled thread spawning for [`explore`](super::explore) scenarios.

    use super::{current_ctx, spawn_controlled, Blocker, Status};
    use std::sync::{Arc, Mutex as StdMutex, PoisonError};

    /// Handle to a spawned thread; see [`spawn`].
    pub struct JoinHandle<T> {
        slot: Arc<StdMutex<Option<T>>>,
        /// Set when the thread is scheduler-controlled.
        target: Option<usize>,
        /// Set when the thread is a plain std thread (no active explorer).
        std_handle: Option<std::thread::JoinHandle<()>>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread and returns its result.
        ///
        /// # Panics
        /// Panics if the joined thread panicked (mirroring
        /// `std::thread::JoinHandle::join().unwrap()`).
        pub fn join(self) -> T {
            if let Some(target) = self.target {
                let ctx = current_ctx()
                    .expect("controlled JoinHandle joined from an uncontrolled thread");
                ctx.park(Status::Blocked(Blocker::Join(target)), false);
            } else if let Some(h) = self.std_handle {
                h.join().expect("joined thread panicked");
            }
            self.slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("joined thread panicked")
        }
    }

    /// Spawns `f`. Inside an [`explore`](super::explore) scenario the new
    /// thread is scheduler-controlled (it parks at every scheduling point);
    /// outside one this is a plain `std::thread::spawn`.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(StdMutex::new(None));
        match current_ctx() {
            Some(ctx) => {
                let tid = spawn_controlled(&ctx.shared, Arc::clone(&slot), f);
                JoinHandle {
                    slot,
                    target: Some(tid),
                    std_handle: None,
                }
            }
            None => {
                let their_slot = Arc::clone(&slot);
                let h = std::thread::spawn(move || {
                    let v = f();
                    *their_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                });
                JoinHandle {
                    slot,
                    target: None,
                    std_handle: Some(h),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Mutex, Ordering, RwLock};
    use super::*;

    fn quick(name: &'static str, seed: u64) -> ExploreConfig {
        ExploreConfig {
            name,
            seed,
            target_distinct: 50,
            max_schedules: 400,
            artifact_dir: None,
        }
    }

    #[test]
    fn default_constructed_locks_are_distinct_model_locks() {
        // Regression: a derived Default once gave every default-built lock
        // id 0, so holding one while taking another looked like a
        // self-deadlock to the model.
        let report = explore(&quick("default-lock-ids", 11), || {
            let a: Mutex<u32> = Mutex::default();
            let b: Mutex<u32> = Mutex::default();
            let l: RwLock<u32> = RwLock::default();
            let ga = a.lock();
            let gb = b.lock();
            let gl = l.read();
            assert_eq!(*ga + *gb + *gl, 0);
        });
        assert!(report.schedules_run > 0);
    }

    #[test]
    fn primitives_work_outside_exploration() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        let a = AtomicU64::new(0);
        a.fetch_add(3, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        let h = thread::spawn(|| 7);
        assert_eq!(h.join(), 7);
    }

    #[test]
    fn counter_increments_are_never_lost() {
        let report = explore(&quick("counter", 42), || {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        for _ in 0..5 {
                            *n.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*n.lock(), 10);
        });
        assert!(report.schedules_run > 0);
        assert!(report.distinct_schedules >= 1);
    }

    #[test]
    fn same_seed_same_schedules() {
        fn run() -> Report {
            explore(&quick("digest", 7), || {
                let n = Arc::new(Mutex::new(0u64));
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let n = Arc::clone(&n);
                        thread::spawn(move || {
                            *n.lock() += i;
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
            })
        }
        let a = run();
        let b = run();
        assert_eq!(a, b, "exploration must be a pure function of the seed");
    }

    #[test]
    fn controlled_mode_explores_many_interleavings() {
        let report = explore(&quick("many", 3), || {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        for _ in 0..8 {
                            *n.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        if report.controlled {
            assert!(
                report.distinct_schedules >= 50,
                "lock-granular control must reach the distinct-schedule target, got {}",
                report.distinct_schedules
            );
        }
    }

    #[test]
    #[should_panic(expected = "lost update")]
    fn broken_invariant_is_caught_and_propagated() {
        explore(&quick("broken", 11), || {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        // Deliberate read-modify-write race modelled at the
                        // application level: read, drop the lock, write.
                        let v = *n.lock();
                        *n.lock() = v + 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*n.lock(), 2, "lost update");
        });
    }

    #[test]
    fn rwlock_readers_overlap_and_writers_exclude() {
        let report = explore(&quick("rw", 5), || {
            let l = Arc::new(RwLock::new(0u64));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let l = Arc::clone(&l);
                    thread::spawn(move || *l.read())
                })
                .collect();
            let w = {
                let l = Arc::clone(&l);
                thread::spawn(move || {
                    *l.write() += 1;
                })
            };
            for r in readers {
                let v = r.join();
                assert!(v == 0 || v == 1);
            }
            w.join();
            assert_eq!(*l.read(), 1);
        });
        assert!(report.schedules_run > 0);
    }

    #[test]
    fn atomics_are_scheduling_points_but_stay_atomic() {
        explore(&quick("atomic", 9), || {
            let a = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let a = Arc::clone(&a);
                    thread::spawn(move || {
                        for _ in 0..4 {
                            a.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(
                a.load(Ordering::SeqCst),
                8,
                "fetch_add must never lose updates"
            );
        });
    }

    #[test]
    fn ordered_foreign_acquisitions_build_a_deterministic_acyclic_graph() {
        fn run() -> Report {
            explore(&quick("ordered-graph", 21), || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(RwLock::new(0u8));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t1 = thread::spawn(move || {
                    let _ga = a2.lock();
                    let _gb = b2.write();
                });
                let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
                let t2 = thread::spawn(move || {
                    let _ga = a3.lock();
                    let _gb = b3.read();
                });
                t1.join();
                t2.join();
            })
        }
        let r1 = run();
        let r2 = run();
        assert_eq!(
            r1, r2,
            "the union graph must be a pure function of the seed"
        );
        assert!(r1.lock_graph.cycle().is_none());
        if r1.controlled {
            let edges: Vec<_> = r1.lock_graph.edges().collect();
            assert_eq!(
                edges,
                vec![(
                    LockNode {
                        kind: LockKind::Mutex,
                        index: 0
                    },
                    LockNode {
                        kind: LockKind::RwLock,
                        index: 1
                    },
                    0
                )],
                "both workers acquire the rwlock while holding the mutex"
            );
        }
    }

    #[test]
    fn sequential_inversion_is_caught_by_the_union_graph() {
        // The two inverted acquisitions run strictly one after the other
        // (joined in between), so no single schedule can deadlock — only
        // the cross-schedule union exposes the cycle.
        let dir = std::env::temp_dir().join("asb-schedule-lockcycle-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ExploreConfig {
            name: "seq-inversion",
            seed: 5,
            target_distinct: 20,
            max_schedules: 60,
            artifact_dir: Some(dir.clone()),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            explore(&cfg, || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _ga = a2.lock();
                    let _gb = b2.lock();
                })
                .join();
                let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _gb = b3.lock();
                    let _ga = a3.lock();
                })
                .join();
            })
        }));
        let payload = outcome.expect_err("the union cycle must fail the exploration");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("lock-order cycle"),
            "expected a lock-order cycle panic, got: {msg}"
        );
        let artifact = dir.join("seq-inversion-seed5-lockcycle.txt");
        let body = std::fs::read_to_string(&artifact)
            .expect("cycle artifact must be written next to schedule artifacts");
        assert!(body.contains("seed: 5"), "artifact must carry the seed");
        assert!(
            body.contains("lock-order cycle:") && body.contains("iteration"),
            "artifact must list the cycle and per-edge first iterations:\n{body}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_lock_graph_unions_completed_explorations() {
        let report = explore(&quick("global-union", 17), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            })
            .join();
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a3.lock();
                let _gb = b3.lock();
            })
            .join();
        });
        if report.controlled {
            assert!(!report.lock_graph.is_empty());
        }
        let global = lock_graph();
        for (a, b, _) in report.lock_graph.edges() {
            assert!(
                global.edges().any(|(ga, gb, _)| (ga, gb) == (a, b)),
                "every per-exploration edge must appear in the global union"
            );
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn lock_order_inversion_is_reported_as_deadlock() {
        explore(
            &ExploreConfig {
                name: "deadlock",
                seed: 1,
                target_distinct: 200,
                max_schedules: 2000,
                artifact_dir: None,
            },
            || {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t1 = thread::spawn(move || {
                    let _ga = a2.lock();
                    let _gb = b2.lock();
                });
                let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
                let t2 = thread::spawn(move || {
                    let _gb = b3.lock();
                    let _ga = a3.lock();
                });
                t1.join();
                t2.join();
            },
        );
    }
}
