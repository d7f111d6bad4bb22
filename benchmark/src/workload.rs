//! The five workloads and the code that runs one rep of each: a fixed
//! operation stream on a fresh, cold buffer, every call timed from outside
//! and every answer checked against the oracle.

use crate::fixture::{clone_disk, hash_ids, hash_set, Fixture, Ops, SERVE_SESSIONS};
use crate::span::Tracer;
use crate::stats::percentile_sorted;
use crate::timed::{PoolCall, TimedPool, TimedStore};
use asb_core::{BufferManager, BufferPool, BufferStats, PolicyKind, ShardedBuffer};
use asb_rtree::RTree;
use asb_serve::{serve, Outcome, ServeConfig};
use asb_storage::{ConcurrentPageStore, Wal, WalConfig};
use std::sync::Arc;
use std::time::Instant;

/// Shards of the `serve_browse` pool.
const SERVE_SHARDS: usize = 4;
/// `update_mix` checkpoints (and prunes the log) every this many appends.
const CHECKPOINT_INTERVAL: u64 = 256;

/// The benchmark's workloads. Names are the contract later changes cite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PanFit,
    ThrashWindow,
    ArenaPhase,
    ServeBrowse,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PanFit,
        Workload::ThrashWindow,
        Workload::ArenaPhase,
        Workload::ServeBrowse,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PanFit => "pan_fit",
            Workload::ThrashWindow => "thrash_window",
            Workload::ArenaPhase => "arena_phase",
            Workload::ServeBrowse => "serve_browse",
            Workload::UpdateMix => "update_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The replacement policy under test.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::ArenaPhase => PolicyKind::Arena,
            _ => PolicyKind::Asb,
        }
    }

    /// Buffer size as a fraction of the tree: the paper's largest (4.7 %)
    /// where the hot set must fit, its middle one (1.2 %) elsewhere.
    pub fn buffer_fraction(self) -> f64 {
        match self {
            Workload::PanFit | Workload::ServeBrowse => 0.047,
            _ => 0.012,
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Workload::ServeBrowse => SERVE_SHARDS,
            _ => 1,
        }
    }
}

/// Exact counts of one rep. Every field must repeat bit-for-bit on every
/// rep of a run — the benchmark's free determinism check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub buffer: BufferStats,
    pub disk_reads: u64,
    pub reads_random: u64,
    pub reads_sequential: u64,
    pub store_writes: u64,
    pub wal_bytes: u64,
    pub wal_appends: u64,
    pub checkpoints: u64,
    pub segments_pruned: u64,
    pub serve_rounds: u64,
    pub serve_batched_pages: u64,
    pub sim_p50_ticks: u64,
    pub sim_p99_ticks: u64,
}

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall-clock latency of each operation (each wave, for `serve_browse`),
    /// ascending.
    pub latencies_ns: Vec<u64>,
    /// Latencies of the delete and insert calls alone (`update_mix`).
    pub delete_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    /// The calls `serve_browse` made into its pool, in order (traced reps).
    pub pool_trace: Vec<PoolCall>,
    pub attempted: u64,
    /// An error, an answer that differs from the oracle's, or a serve
    /// outcome other than `Exact`.
    pub failed: u64,
    pub counts: Counts,
}

impl Rep {
    /// The timed section: the sum of the operation latencies (answer
    /// checking happens between operations and is not in it).
    pub fn wall_ns(&self) -> u64 {
        self.latencies_ns.iter().sum()
    }

    /// The `p`-th percentile operation latency in microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile_sorted(&self.latencies_ns, p) as f64 / 1e3
    }
}

/// Times `f` as one operation: a span when tracing, a latency always.
fn timed_op<R>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let span = tracer.map(|t| {
        t.set_op(op as u32);
        t.enter(name)
    });
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer, span) {
        t.exit(id);
    }
    (out, ns)
}

/// Runs one rep of the fixture's workload under `policy` on a fresh buffer
/// over `store` (the fixture's bulk-loaded disk, possibly wrapped).
/// `update_mix` mutates its tree, so it must be handed a copy, which it
/// validates afterwards; the read-only workloads hand the store back
/// untouched. With a tracer, each operation is a span and `serve_browse`
/// serves through a [`TimedPool`].
pub fn run_rep<S: ConcurrentPageStore + 'static>(
    fx: &Fixture,
    store: S,
    policy: PolicyKind,
    tracer: Option<&Arc<Tracer>>,
) -> (S, Rep) {
    store.reset_io_stats();
    let mut rep = Rep {
        attempted: fx.ops_per_rep(),
        ..Rep::default()
    };
    let (store, io) = match &fx.ops {
        Ops::Queries(queries) => {
            let mut tree = RTree::attach(store, fx.snapshot);
            tree.set_buffer(BufferManager::with_policy(policy, fx.capacity));
            for (i, q) in queries.iter().enumerate() {
                let (answer, ns) = timed_op(tracer, "op.query", i, || tree.execute(q));
                rep.latencies_ns.push(ns);
                rep.failed += u64::from(!answer.is_ok_and(|ids| hash_set(ids) == fx.expect[i]));
            }
            rep.counts.buffer = tree.buffer_stats().expect("buffer attached above");
            let io = tree.store().io_stats();
            (tree.into_store(), io)
        }
        Ops::Cycles(cycles) => {
            let mut tree = RTree::attach(store, fx.snapshot);
            let mut buffer = BufferManager::with_policy(policy, fx.capacity);
            let wal = Wal::shared(WalConfig::default());
            buffer.attach_wal(Arc::clone(&wal));
            buffer.set_checkpoint_interval(Some(CHECKPOINT_INTERVAL));
            tree.set_buffer(buffer);
            for (i, (item, window)) in cycles.iter().enumerate() {
                let (found, ns) =
                    timed_op(tracer, "op.delete", i, || tree.delete(item.id, &item.mbr));
                rep.latencies_ns.push(ns);
                rep.delete_ns.push(ns);
                rep.failed += u64::from(!matches!(found, Ok(true)));
                let (inserted, ns) = timed_op(tracer, "op.insert", i, || tree.insert(*item));
                rep.latencies_ns.push(ns);
                rep.insert_ns.push(ns);
                rep.failed += u64::from(inserted.is_err());
                let (answer, ns) = timed_op(tracer, "op.query", i, || tree.execute(window));
                rep.latencies_ns.push(ns);
                rep.failed += u64::from(!answer.is_ok_and(|ids| hash_set(ids) == fx.expect[i]));
            }
            rep.counts.buffer = tree.buffer_stats().expect("buffer attached above");
            let log = wal.lock().stats();
            rep.counts.wal_bytes = log.bytes_appended;
            rep.counts.wal_appends = log.image_appends;
            rep.counts.checkpoints = log.checkpoint_appends;
            rep.counts.segments_pruned = log.segments_pruned;
            let io = tree.store().io_stats();
            // Untimed: the updated tree must still be a valid R*-tree over
            // the same objects.
            tree.take_buffer();
            let intact = tree.validate().is_ok() && tree.len() == fx.snapshot.len();
            rep.failed += u64::from(!intact);
            (tree.into_store(), io)
        }
        Ops::Waves(waves) => {
            let pool = ShardedBuffer::new(store, policy, fx.capacity, SERVE_SHARDS);
            let cfg = ServeConfig {
                seed: fx.seed,
                think_ticks: 1_000,
                // Far above any fault-free latency: a fired deadline would
                // turn a slow answer into a partial one.
                deadline_ticks: 20_000_000,
                ..ServeConfig::default()
            };
            let timed = tracer.map(|t| TimedPool::new(pool.clone(), Arc::clone(t)));
            let front: &dyn BufferPool = match &timed {
                Some(timed) => timed,
                None => &pool,
            };
            let mut sim_latencies = Vec::new();
            for (w, wave) in waves.iter().enumerate() {
                let (outcome, ns) = timed_op(tracer, "op.wave", w, || {
                    serve(front, &fx.snapshot, wave, &cfg)
                });
                rep.latencies_ns.push(ns);
                let Ok(outcome) = outcome else {
                    rep.failed += SERVE_SESSIONS as u64;
                    continue;
                };
                rep.counts.serve_rounds += outcome.report.rounds;
                rep.counts.serve_batched_pages += outcome.report.batched_pages;
                let mut exact = 0;
                for r in &outcome.responses {
                    sim_latencies.push(r.latency);
                    let expected = fx.expect[w * SERVE_SESSIONS + r.session];
                    exact +=
                        u64::from(r.outcome == Outcome::Exact && hash_ids(&r.results) == expected);
                }
                rep.failed += SERVE_SESSIONS as u64 - exact;
            }
            sim_latencies.sort_unstable();
            rep.counts.sim_p50_ticks = percentile_sorted(&sim_latencies, 50.0);
            rep.counts.sim_p99_ticks = percentile_sorted(&sim_latencies, 99.0);
            rep.counts.buffer = pool.stats();
            if let Some(timed) = timed {
                rep.pool_trace = timed.into_log();
            }
            let io = pool.io_stats();
            let store = pool
                .try_into_store()
                .unwrap_or_else(|_| panic!("the rep holds the pool's last handle"));
            (store, io)
        }
    };
    rep.latencies_ns.sort_unstable();
    rep.counts.disk_reads = io.reads;
    rep.counts.reads_random = io.random_reads;
    rep.counts.reads_sequential = io.sequential_reads;
    rep.counts.store_writes = io.writes;
    (store, rep)
}

/// Runs one rep on the fixture's own disk: directly when untraced, under
/// a [`TimedStore`] when traced. `update_mix` mutates its tree, so it runs
/// on a fresh copy of the disk.
pub fn run_on_fixture(fx: &mut Fixture, policy: PolicyKind, tracer: Option<&Arc<Tracer>>) -> Rep {
    let mutates = matches!(fx.ops, Ops::Cycles(_));
    let disk = if mutates {
        clone_disk(&fx.disk)
    } else {
        std::mem::take(&mut fx.disk)
    };
    let (disk, rep) = match tracer {
        Some(t) => {
            let store = TimedStore::new(disk, Arc::clone(t));
            let (store, rep) = run_rep(fx, store, policy, tracer);
            (store.into_inner(), rep)
        }
        None => run_rep(fx, disk, policy, None),
    };
    if !mutates {
        fx.disk = disk;
    }
    rep
}

/// Runs untraced reps of the fixture's workload until `seconds` of timed
/// operations have accumulated (at least two reps, so their counts can be
/// compared), or exactly `exact` reps.
pub fn timed_reps(fx: &mut Fixture, seconds: f64, exact: Option<usize>) -> Vec<Rep> {
    let policy = fx.workload.policy();
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let done = match exact {
            Some(n) => reps.len() >= n,
            // Stop when half of another rep would already overshoot.
            None => reps.len() >= 2 && timed_s + timed_s / reps.len() as f64 / 2.0 > seconds,
        };
        if done {
            return reps;
        }
        let rep = run_on_fixture(fx, policy, None);
        timed_s += rep.wall_ns() as f64 / 1e9;
        reps.push(rep);
    }
}
