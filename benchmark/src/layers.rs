//! The traced run: per-layer metrics and the attribution table.
//!
//! One rep runs with spans recorded ([`TimedStore`](crate::timed::TimedStore),
//! [`TimedPool`](crate::timed::TimedPool), one span per operation). The
//! workload's logical page trace is then recorded once and **replayed
//! through each layer in isolation** — checksum only, decode only, store
//! read only, the policy alone (through [`ResidentModel`]), the buffer
//! manager alone, the sharded pool alone — which gives a unit cost per
//! layer. Unit costs × the rep's exact counts give the attribution table;
//! what the rows do not explain is reported as `trace.unexplained_share`.

use crate::fixture::{clone_disk, Fixture, Ops};
use crate::report::{Metric, RunResult};
use crate::span::{layer_times, write_json, Span, Tracer};
use crate::stats::{mean, median};
use crate::timed::PoolCall;
use crate::workload::{run_on_fixture, timed_reps, Counts, Rep, Workload};
use crate::Options;
use asb_core::{
    ArenaParams, BufferManager, BufferStats, PolicyKind, ReplacementPolicy, Roster, ShardedBuffer,
};
use asb_geom::{Rect, SpatialCriterion, SpatialStats};
use asb_rtree::{Node, RTree};
use asb_storage::{
    page_checksum, AccessContext, ConcurrentPageStore, DiskManager, Lsn, Page, PageId, PageStore,
    PageType, QueryId, RecordingStore, Wal, WalConfig,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace entries the cheap per-page layers (checksum, decode, store read)
/// replay per batch.
const PAGE_SAMPLE: usize = 20_000;
/// Pages per `fetch_batch` call in the sharded-pool replay (the serving
/// engine's default frontier limit).
const BATCH_PAGES: usize = 8;

/// The policies every traced run prices, by their metric-name key.
fn priced_policies() -> [(&'static str, PolicyKind); 7] {
    [
        ("lru", PolicyKind::Lru),
        ("lru2", PolicyKind::LruK { k: 2 }),
        (
            "slru",
            PolicyKind::Slru {
                candidate_fraction: 0.25,
                criterion: SpatialCriterion::Area,
            },
        ),
        ("spatial_a", PolicyKind::Spatial(SpatialCriterion::Area)),
        ("asb", PolicyKind::Asb),
        (
            "arena_lean",
            PolicyKind::ArenaWith(ArenaParams {
                roster: Roster::Lean,
                ..ArenaParams::default()
            }),
        ),
        ("arena_full", PolicyKind::Arena),
    ]
}

/// A replacement policy driven the way `BufferManager` drives it, with the
/// buffer reduced to a set of resident page ids: what a policy costs, and
/// which pages it keeps, with no store, checksum or frame table around it.
pub struct ResidentModel {
    policy: Box<dyn ReplacementPolicy + Send>,
    resident: HashSet<PageId>,
    capacity: usize,
    tick: u64,
    pub hits: u64,
    pub misses: u64,
}

impl ResidentModel {
    pub fn new(kind: PolicyKind, capacity: usize) -> Self {
        ResidentModel {
            policy: kind.build(capacity),
            resident: HashSet::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// One logical read; returns whether it hit.
    pub fn access(&mut self, page: &Page, ctx: AccessContext) -> bool {
        self.tick += 1;
        if self.resident.contains(&page.id) {
            self.hits += 1;
            self.policy.on_hit(page, ctx, self.tick);
            return true;
        }
        self.misses += 1;
        if self.resident.len() >= self.capacity {
            let resident = &self.resident;
            let victim = self
                .policy
                .select_victim(ctx, &|id| resident.contains(&id))
                .expect("a full buffer with no pins has a victim");
            self.resident.remove(&victim);
            self.policy.on_remove(victim);
        }
        self.policy.on_insert(page, ctx, self.tick);
        self.resident.insert(page.id);
        false
    }
}

/// Median nanoseconds per item of `batch` (which handles `items` items),
/// over as many runs as fit in `budget` (at least three).
fn bench(budget: Duration, items: usize, mut batch: impl FnMut()) -> f64 {
    assert!(items > 0, "a layer replay needs at least one item");
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 64) {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&samples)
}

/// Cost of reading the clock twice, subtracted from per-call timings.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos() as f64)
        })
        .collect();
    median(&samples)
}

/// A policy's cost of a hit and of a miss (victim nomination + `on_remove`
/// once the buffer is full, then `on_insert`), in nanoseconds, driven by
/// the trace at `capacity`. The buffer is filled first (untimed) with the
/// trace's first distinct pages, so misses are evictions; the trace is then
/// replayed from where the filling stopped, for `budget` and until a few
/// misses have been seen.
fn price_policy(
    kind: PolicyKind,
    capacity: usize,
    trace: &[(&Page, AccessContext)],
    budget: Duration,
    overhead_ns: f64,
) -> (f64, f64) {
    let mut model = ResidentModel::new(kind, capacity);
    let mut seen = HashSet::new();
    let mut filled_at = 0;
    for (i, (page, ctx)) in trace.iter().enumerate() {
        if seen.len() >= capacity {
            break;
        }
        if seen.insert(page.id) {
            model.access(page, *ctx);
        }
        filled_at = i + 1;
    }
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let replay = trace[filled_at..].iter().chain(&trace[..filled_at]);
    for (i, (page, ctx)) in replay.enumerate() {
        if i % 64 == 0 && miss_ns.len() >= 16 && started.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let hit = model.access(page, *ctx);
        let ns = (t.elapsed().as_nanos() as f64 - overhead_ns).max(0.0);
        if hit {
            hit_ns.push(ns);
        } else {
            miss_ns.push(ns);
        }
    }
    (mean(&hit_ns), mean(&miss_ns))
}

/// Records the workload's logical page trace under an unbuffered tree.
fn record_trace(fx: &mut Fixture) -> Vec<(PageId, QueryId)> {
    let mutates = matches!(fx.ops, Ops::Cycles(_));
    let disk = if mutates {
        clone_disk(&fx.disk)
    } else {
        std::mem::take(&mut fx.disk)
    };
    let mut tree = RTree::attach(RecordingStore::new(disk), fx.snapshot);
    match &fx.ops {
        Ops::Queries(queries) => {
            for q in queries {
                tree.execute(q).expect("recorded query");
            }
        }
        Ops::Cycles(cycles) => {
            for (item, window) in cycles {
                tree.delete(item.id, &item.mbr).expect("recorded delete");
                tree.insert(*item).expect("recorded insert");
                tree.execute(window).expect("recorded query");
            }
        }
        Ops::Waves(_) => unreachable!("serve_browse's trace is its pool's fetch log"),
    }
    let log = tree.store().take_log();
    if !mutates {
        fx.disk = tree.into_store().into_inner();
        fx.disk.reset_stats();
    }
    log
}

/// Unit costs of every layer, in nanoseconds unless named otherwise.
#[derive(Default)]
struct UnitCosts {
    intersects: f64,
    stats_from_rects: f64,
    checksum: f64,
    disk_read: f64,
    disk_write: f64,
    wal_append: f64,
    wal_checkpoint: f64,
    decode_dir: f64,
    decode_leaf: f64,
    encode: f64,
    /// `(key, kind, hit_ns, evict_ns)` per priced policy.
    policies: Vec<(&'static str, PolicyKind, f64, f64)>,
    manager_hit: f64,
    manager_miss_evict: f64,
    manager_write_through: f64,
    sharded_hit_s1: f64,
    sharded_hit_s4: f64,
    sharded_batch_hit_s4: f64,
    mt2_reads_per_s: f64,
    /// Share of directory pages among the trace's reads.
    dir_share: f64,
}

impl UnitCosts {
    /// `(hit_ns, evict_ns)` of `kind`, which must be a priced policy.
    fn policy(&self, kind: PolicyKind) -> (f64, f64) {
        let &(.., hit, evict) = self
            .policies
            .iter()
            .find(|(_, k, ..)| *k == kind)
            .expect("every workload's policy is priced");
        (hit, evict)
    }

    fn decode_mean(&self) -> f64 {
        self.dir_share * self.decode_dir + (1.0 - self.dir_share) * self.decode_leaf
    }
}

/// Replays the trace through each layer in isolation.
fn price_layers(fx: &mut Fixture, log: &[(PageId, QueryId)], budget: Duration) -> UnitCosts {
    let mut costs = UnitCosts::default();
    let mut scratch = clone_disk(&fx.disk);
    let disk = &fx.disk;
    // Pages the updates allocate after the bulk load are not on the
    // pristine disk; their accesses are left out of the replays.
    let trace: Vec<(&Page, AccessContext)> = log
        .iter()
        .filter_map(|&(id, q)| Some((disk.peek(id).ok()?, AccessContext::query(q))))
        .collect();
    assert!(!trace.is_empty(), "the workload read no page");
    let sample = &trace[..trace.len().min(PAGE_SAMPLE)];
    let is_dir = |p: &Page| p.meta.page_type == PageType::Directory;
    costs.dir_share = trace.iter().filter(|(p, _)| is_dir(p)).count() as f64 / trace.len() as f64;

    // storage
    costs.checksum = bench(budget, sample.len(), || {
        for (p, _) in sample {
            black_box(page_checksum(&p.payload));
        }
    });
    costs.disk_read = bench(budget, sample.len(), || {
        for (p, ctx) in sample {
            black_box(disk.read_shared(p.id, *ctx).expect("page is on the disk"));
        }
    });
    disk.reset_stats();
    costs.disk_write = bench(budget, sample.len(), || {
        for (p, _) in sample {
            scratch
                .write((*p).clone())
                .expect("page exists on the copy");
        }
    });
    (costs.wal_append, costs.wal_checkpoint) = price_wal(sample, budget);

    // rtree, geom
    let dirs: Vec<&Page> = sample
        .iter()
        .map(|(p, _)| *p)
        .filter(|p| is_dir(p))
        .collect();
    let leaves: Vec<&Page> = sample
        .iter()
        .map(|(p, _)| *p)
        .filter(|p| !is_dir(p))
        .collect();
    let decode = |pages: &[&Page]| {
        if pages.is_empty() {
            return 0.0;
        }
        bench(budget, pages.len(), || {
            for p in pages {
                black_box(Node::decode(p).expect("tree page decodes"));
            }
        })
    };
    costs.decode_dir = decode(&dirs);
    costs.decode_leaf = decode(&leaves);
    let nodes: Vec<Node> = sample
        .iter()
        .map(|(p, _)| Node::decode(p).expect("tree page decodes"))
        .collect();
    costs.encode = bench(budget, nodes.len(), || {
        for n in &nodes {
            black_box(n.encode());
        }
    });
    let mbrs: Vec<Vec<Rect>> = nodes.iter().map(Node::entry_mbrs).collect();
    costs.stats_from_rects = bench(budget, mbrs.len(), || {
        for m in &mbrs {
            black_box(SpatialStats::from_rects(m));
        }
    });
    // Each node's entries against its first entry: a mix of outcomes, as
    // in a window query's filter step.
    let tests: usize = mbrs.iter().map(Vec::len).sum();
    costs.intersects = bench(budget, tests, || {
        let mut inside = 0usize;
        for m in &mbrs {
            let probe = m[0];
            inside += m.iter().filter(|r| r.intersects(&probe)).count();
        }
        black_box(inside);
    });

    // core: policies alone
    let overhead = timer_overhead_ns();
    for (key, kind) in priced_policies() {
        let (hit, evict) = price_policy(kind, fx.capacity, &trace, budget, overhead);
        costs.policies.push((key, kind, hit, evict));
    }

    // core: the buffer manager and the sharded pool under LRU, so the
    // policy's share is as close to nothing as it gets.
    let mut distinct = Vec::new();
    let mut seen = HashSet::new();
    for (p, ctx) in &trace {
        if seen.insert(p.id) {
            distinct.push((*p, *ctx));
        }
    }
    let warm = &distinct[..distinct.len().min(fx.capacity)];
    let warm_ids: HashSet<PageId> = warm.iter().map(|(p, _)| p.id).collect();
    let hits: Vec<(&Page, AccessContext)> = sample
        .iter()
        .copied()
        .filter(|(p, _)| warm_ids.contains(&p.id))
        .collect();
    assert!(
        !hits.is_empty(),
        "the first pages of a trace are in its sample"
    );
    let mut manager = BufferManager::with_policy(PolicyKind::Lru, warm.len());
    for (p, ctx) in warm {
        manager
            .fetch(&mut scratch, p.id, *ctx)
            .expect("warm the buffer");
    }
    costs.manager_hit = bench(budget, hits.len(), || {
        for (p, ctx) in &hits {
            black_box(manager.fetch(&mut scratch, p.id, *ctx).expect("hit"));
        }
    });
    assert_eq!(
        manager.stats().misses as usize,
        warm.len(),
        "replay only hit"
    );
    costs.manager_write_through = bench(budget, hits.len(), || {
        for (p, _) in &hits {
            manager
                .write_through(&mut scratch, (*p).clone())
                .expect("write through");
        }
    });
    // Cycling through more distinct pages than frames makes LRU miss (and
    // evict) on every fetch.
    if distinct.len() > 1 {
        let frames = fx.capacity.min(distinct.len() / 2).max(1);
        let cycle = &distinct[..(frames * 2).min(distinct.len())];
        let mut manager = BufferManager::with_policy(PolicyKind::Lru, frames);
        costs.manager_miss_evict = bench(budget, cycle.len(), || {
            for (p, ctx) in cycle {
                black_box(manager.fetch(&mut scratch, p.id, *ctx).expect("miss"));
            }
        });
        assert_eq!(manager.stats().hits, 0, "replay only missed");
    }

    let sharded_hit = |scratch: DiskManager, shards: usize, batched: bool| {
        // Every shard gets room for all warm pages, so none is evicted.
        let pool = ShardedBuffer::new(scratch, PolicyKind::Lru, warm.len() * shards, shards);
        for (p, ctx) in warm {
            pool.fetch(p.id, *ctx).expect("warm the pool");
        }
        let ns = if batched {
            let ids: Vec<PageId> = hits.iter().map(|(p, _)| p.id).collect();
            bench(budget, ids.len(), || {
                for chunk in ids.chunks(BATCH_PAGES) {
                    black_box(pool.fetch_batch(chunk, AccessContext::default()));
                }
            })
        } else {
            bench(budget, hits.len(), || {
                for (p, ctx) in &hits {
                    black_box(pool.fetch(p.id, *ctx).expect("hit"));
                }
            })
        };
        assert_eq!(pool.stats().misses as usize, warm.len(), "replay only hit");
        let scratch = pool
            .try_into_store()
            .unwrap_or_else(|_| panic!("the replay holds the pool's last handle"));
        (scratch, ns)
    };
    (scratch, costs.sharded_hit_s1) = sharded_hit(scratch, 1, false);
    (scratch, costs.sharded_hit_s4) = sharded_hit(scratch, 4, false);
    (scratch, costs.sharded_batch_hit_s4) = sharded_hit(scratch, 4, true);

    // Two threads, each replaying half the trace through one 4-shard pool
    // with the workload's policy and capacity. The arena costs ~100 µs per
    // access, so it gets a shorter trace.
    let take = match fx.workload.policy() {
        PolicyKind::Arena => 4_000,
        _ => 200_000,
    };
    let ids: Vec<(PageId, AccessContext)> = trace
        .iter()
        .take(take)
        .map(|(p, ctx)| (p.id, *ctx))
        .collect();
    let pool = ShardedBuffer::new(scratch, fx.workload.policy(), fx.capacity.max(4), 4);
    let (front, back) = ids.split_at(ids.len() / 2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for half in [front, back] {
            let pool = &pool;
            scope.spawn(move || {
                for &(id, ctx) in half {
                    black_box(pool.fetch(id, ctx).expect("concurrent fetch"));
                }
            });
        }
    });
    costs.mt2_reads_per_s = ids.len() as f64 / started.elapsed().as_secs_f64();
    costs
}

/// `(append_image ns, checkpoint + prune ns)` over the sampled pages, with
/// a checkpoint every 256 appends as in `update_mix`.
fn price_wal(sample: &[(&Page, AccessContext)], budget: Duration) -> (f64, f64) {
    let mut checkpoint_ns = Vec::new();
    let append = bench(budget, sample.len(), || {
        let mut wal = Wal::new(WalConfig::default());
        let mut spent = 0u64;
        for (i, (p, _)) in sample.iter().enumerate() {
            wal.append_image(p).expect("append to an in-memory log");
            if (i + 1) % 256 == 0 {
                let t = Instant::now();
                let redo_from: Lsn = wal.next_lsn();
                wal.append_checkpoint(redo_from).expect("checkpoint");
                wal.prune_before(redo_from);
                spent += t.elapsed().as_nanos() as u64;
            }
        }
        checkpoint_ns.push(spent as f64 / (sample.len() / 256).max(1) as f64);
    });
    let checkpoint = median(&checkpoint_ns);
    // The batch timed the checkpoints too; take them back out.
    let per_append = append - checkpoint / 256.0;
    (per_append.max(0.0), checkpoint)
}

/// Replays the read trace through the buffer alone, with the workload's
/// policy and capacity, and returns its wall time and statistics:
/// `BufferManager::fetch` per access, or for `serve_browse` the 4-shard
/// pool's `fetch_batch` per recorded call (batch boundaries matter: a
/// batch probes its resident pages before it admits its misses).
fn replay_buffer(
    fx: &mut Fixture,
    log: &[(PageId, QueryId)],
    pool_calls: &[PoolCall],
) -> (u64, BufferStats) {
    let mut disk = std::mem::take(&mut fx.disk);
    disk.reset_stats();
    let policy = fx.workload.policy();
    let started = Instant::now();
    let stats = if fx.workload.shards() > 1 {
        let pool = ShardedBuffer::new(disk, policy, fx.capacity, fx.workload.shards());
        for (ids, q) in pool_calls {
            black_box(pool.fetch_batch(ids, AccessContext::query(*q)));
        }
        let stats = pool.stats();
        disk = pool
            .try_into_store()
            .unwrap_or_else(|_| panic!("the replay holds the pool's last handle"));
        stats
    } else {
        let mut manager = BufferManager::with_policy(policy, fx.capacity);
        for &(id, q) in log {
            black_box(
                manager
                    .fetch(&mut disk, id, AccessContext::query(q))
                    .expect("replayed fetch"),
            );
        }
        manager.stats()
    };
    let wall = started.elapsed().as_nanos() as u64;
    fx.disk = disk;
    (wall, stats)
}

/// One row of the attribution table.
struct Row {
    label: &'static str,
    ns: f64,
    /// Sub-rows break a measured row down; they are not summed again.
    sub: bool,
}

fn top(label: &'static str, ns: f64) -> Row {
    Row {
        label,
        ns,
        sub: false,
    }
}

fn sub(label: &'static str, ns: f64) -> Row {
    Row {
        label,
        ns,
        sub: true,
    }
}

/// What the traced rep's spans add up to. Only spans under an operation
/// count: `update_mix` validates its tree after the rep, through the same
/// store.
struct SpanTotals {
    store_ns: f64,
    pool_ns: f64,
    pool_calls: usize,
    /// Operation spans' self time: what is left of them outside the store
    /// and pool spans they caused.
    op_self_ns: f64,
}

fn span_totals(spans: &[Span]) -> SpanTotals {
    let under_op = |prefix: &'static str| {
        spans
            .iter()
            .filter(move |s| s.parent.is_some() && s.name.starts_with(prefix))
    };
    SpanTotals {
        store_ns: under_op("store.").map(Span::duration_ns).sum::<u64>() as f64,
        pool_ns: under_op("pool.").map(Span::duration_ns).sum::<u64>() as f64,
        pool_calls: under_op("pool.").count(),
        op_self_ns: layer_times(spans)
            .iter()
            .filter(|(name, _)| name.starts_with("op."))
            .map(|(_, t)| t.self_ns)
            .sum::<u64>() as f64,
    }
}

fn write_spans(dir: &Path, workload: Workload, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{}.json", workload.name())))?;
    let mut out = std::io::BufWriter::new(file);
    write_json(spans, &mut out)?;
    out.flush()
}

/// The attribution table of one rep: unit costs × the rep's exact counts.
/// `replay_ns` is the wall time of the buffer-only replay (read-only
/// workloads); `update_mix` has none, so its buffer rows are unit costs too.
fn attribution(
    fx: &Fixture,
    counts: &Counts,
    costs: &UnitCosts,
    walk_self: f64,
    op_self_ns: f64,
    replay_ns: Option<u64>,
) -> Vec<Row> {
    let buffer = counts.buffer;
    let (reads, hits, misses) = (
        buffer.logical_reads as f64,
        buffer.hits as f64,
        buffer.misses as f64,
    );
    let (own_hit, own_evict) = costs.policy(fx.workload.policy());
    let (lru_hit, lru_evict) = costs.policy(PolicyKind::Lru);
    let walk = top("rtree walk self (MBR tests, stack)", reads * walk_self);
    let decode_ns = reads * costs.decode_mean();
    // The manager was priced under LRU: take LRU's and the checksum's (and,
    // on a miss, the store's) share back out to get the manager's own.
    let manager_self_ns = hits * (costs.manager_hit - costs.checksum - lru_hit)
        + misses * (costs.manager_miss_evict - costs.checksum - costs.disk_read - lru_evict);
    let buffer_rows = [
        ("storage checksum verify", reads * costs.checksum),
        ("storage store read", misses * costs.disk_read),
        ("core policy callbacks", hits * own_hit + misses * own_evict),
        ("core manager self", manager_self_ns),
    ];
    let mut rows = Vec::new();
    match (&fx.ops, replay_ns) {
        (Ops::Waves(_), Some(replay_ns)) => {
            rows.push(top(
                "serve engine self (traced: wave span - pool spans)",
                op_self_ns,
            ));
            rows.push(sub("rtree Node::decode in the engine", decode_ns));
            rows.push(top("buffer alone (replay of the trace)", replay_ns as f64));
            rows.extend(buffer_rows.map(|(label, ns)| sub(label, ns)));
        }
        (_, Some(replay_ns)) => {
            rows.push(walk);
            rows.push(top("rtree Node::decode", decode_ns));
            rows.push(top("buffer alone (replay of the trace)", replay_ns as f64));
            rows.extend(buffer_rows.map(|(label, ns)| sub(label, ns)));
        }
        (_, None) => {
            let writes = counts.store_writes as f64;
            rows.push(walk);
            rows.push(top("rtree Node::decode", decode_ns));
            rows.extend(buffer_rows.map(|(label, ns)| top(label, ns)));
            rows.extend([
                top("rtree Node::encode", writes * costs.encode),
                top(
                    "geom SpatialStats::from_rects",
                    writes * costs.stats_from_rects,
                ),
                top("storage checksum compute (writes)", writes * costs.checksum),
                top(
                    "core manager write_through (with store write)",
                    writes * costs.manager_write_through,
                ),
                top(
                    "storage WAL append",
                    counts.wal_appends as f64 * costs.wal_append,
                ),
                top(
                    "storage WAL checkpoint + prune",
                    counts.checkpoints as f64 * costs.wal_checkpoint,
                ),
            ]);
        }
    }
    rows
}

/// Prints the table and returns the share of `wall_ns` its rows leave
/// unexplained.
fn print_attribution(workload: Workload, rows: &[Row], wall_ns: f64) -> f64 {
    let explained: f64 = rows.iter().filter(|r| !r.sub).map(|r| r.ns).sum();
    let unexplained_share = 1.0 - explained / wall_ns;
    println!(
        "# {}: attribution of one rep ({:.1} ms end to end, untraced)",
        workload.name(),
        wall_ns / 1e6
    );
    for r in rows {
        let indent = if r.sub { "    " } else { "  " };
        println!(
            "{indent}{:<52} {:>10.2} ms {:>6.1} %",
            r.label,
            r.ns / 1e6,
            100.0 * r.ns / wall_ns
        );
    }
    println!(
        "  {:<52} {:>10.2} ms {:>6.1} %{}",
        "unexplained",
        (wall_ns - explained) / 1e6,
        100.0 * unexplained_share,
        if unexplained_share.abs() > 0.20 {
            "   <- finding: above 20 %"
        } else {
            ""
        }
    );
    unexplained_share
}

fn mean_us(ns: &[u64]) -> f64 {
    mean(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

/// The traced run of one workload.
pub fn measure_layers(fx: &mut Fixture, opts: &Options) -> RunResult {
    let workload = fx.workload;
    let policy = workload.policy();
    let lru = run_on_fixture(fx, PolicyKind::Lru, None);
    // A quarter of the run's seconds of untraced reps; the one with the
    // median wall time is what the traced rep and the table are held to.
    let mut untraced = timed_reps(fx, opts.seconds / 4.0, opts.reps);
    let tracer = Arc::new(Tracer::new());
    let mut traced = run_on_fixture(fx, policy, Some(&tracer));
    let spans = tracer.take();
    let all_reps = || untraced.iter().chain([&lru, &traced]);
    let attempted: u64 = all_reps().map(|r| r.attempted).sum();
    let failed: u64 = all_reps().map(|r| r.failed).sum();
    let mut correct = failed == 0;
    if untraced.iter().any(|r| r.counts != traced.counts) {
        eprintln!("error: counts differ between the traced and the untraced reps");
        correct = false;
    }
    untraced.sort_by_key(Rep::wall_ns);
    let plain = untraced.swap_remove(untraced.len() / 2);
    if let Some(dir) = &opts.out {
        if let Err(e) = write_spans(dir, workload, &spans) {
            eprintln!("error: cannot write the trace under {}: {e}", dir.display());
            correct = false;
        }
    }

    let pool_trace = std::mem::take(&mut traced.pool_trace);
    let log: Vec<(PageId, QueryId)> = match fx.ops {
        Ops::Waves(_) => pool_trace
            .iter()
            .flat_map(|(ids, q)| ids.iter().map(|&id| (id, *q)))
            .collect(),
        _ => record_trace(fx),
    };
    let costs = price_layers(fx, &log, Duration::from_secs_f64(opts.seconds / 40.0));
    let walk_self = if fx.oracle_reads == 0 {
        0.0
    } else {
        (fx.oracle_ns as f64 / fx.oracle_reads as f64 - costs.disk_read - costs.decode_mean())
            .max(0.0)
    };

    // The buffer alone, with the real policy, on the real trace. Its counts
    // must be the end-to-end run's; `update_mix` is left out, because its
    // writes change what is resident and a read-only replay cannot.
    let counts = plain.counts;
    let buffer = counts.buffer;
    let replay_ns = match fx.ops {
        Ops::Cycles(_) => None,
        _ => {
            let (replay_ns, replayed) = replay_buffer(fx, &log, &pool_trace);
            let seen = |b: &BufferStats| (b.logical_reads, b.hits, b.misses);
            if seen(&replayed) != seen(&buffer) {
                eprintln!(
                    "error: the buffer-only replay counted {:?} reads/hits/misses, the run {:?}",
                    seen(&replayed),
                    seen(&buffer)
                );
                correct = false;
            }
            Some(replay_ns)
        }
    };
    let totals = span_totals(&spans);
    let rows = attribution(fx, &counts, &costs, walk_self, totals.op_self_ns, replay_ns);
    let wall = plain.wall_ns() as f64;
    let traced_wall = traced.wall_ns() as f64;
    let unexplained_share = print_attribution(workload, &rows, wall);

    let requests = match fx.ops {
        Ops::Waves(_) => traced.attempted as f64,
        _ => 0.0,
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let count = |name: &str, n: u64| Metric::single(name, "count", n as f64);
    let ns = |name: &str, v: f64| Metric::single(name, "ns", v);
    let mut metrics = vec![
        ns("geom.intersects_ns", costs.intersects),
        ns("geom.stats_from_rects_ns", costs.stats_from_rects),
        ns("storage.checksum_ns", costs.checksum),
        ns("storage.disk_read_ns", costs.disk_read),
        ns("storage.disk_write_ns", costs.disk_write),
        ns("storage.wal_append_ns", costs.wal_append),
        ns("storage.wal_checkpoint_ns", costs.wal_checkpoint),
        Metric::single(
            "storage.store_time_share",
            "ratio",
            totals.store_ns / traced_wall,
        ),
        count("storage.reads_random", counts.reads_random),
        count("storage.reads_sequential", counts.reads_sequential),
        count("storage.store_writes", counts.store_writes),
        count("storage.wal_bytes", counts.wal_bytes),
        count("storage.wal_appends", counts.wal_appends),
        count("storage.checkpoints", counts.checkpoints),
        count("storage.segments_pruned", counts.segments_pruned),
        ns("rtree.decode_dir_ns", costs.decode_dir),
        ns("rtree.decode_leaf_ns", costs.decode_leaf),
        ns("rtree.encode_ns", costs.encode),
        Metric::single(
            "rtree.reads_per_op",
            "count",
            buffer.logical_reads as f64 / plain.attempted as f64,
        ),
        ns("rtree.walk_self_ns_per_read", walk_self),
        Metric::single("rtree.insert_us", "us", mean_us(&plain.insert_ns)),
        Metric::single("rtree.delete_us", "us", mean_us(&plain.delete_ns)),
    ];
    for &(key, _, hit, evict) in &costs.policies {
        metrics.push(ns(&format!("core.policy.{key}.hit_ns"), hit));
        metrics.push(ns(&format!("core.policy.{key}.evict_ns"), evict));
    }
    metrics.extend([
        ns("core.manager.hit_ns", costs.manager_hit),
        ns("core.manager.miss_evict_ns", costs.manager_miss_evict),
        ns("core.manager.write_through_ns", costs.manager_write_through),
        Metric::single("core.manager.hit_rate", "ratio", buffer.hit_ratio()),
        count("core.manager.evictions", buffer.evictions),
        Metric::single(
            "core.manager.gain_vs_lru_pct",
            "%",
            (lru.counts.disk_reads as f64 / counts.disk_reads as f64 - 1.0) * 100.0,
        ),
        ns("core.sharded.fetch_hit_ns.s1", costs.sharded_hit_s1),
        ns("core.sharded.fetch_hit_ns.s4", costs.sharded_hit_s4),
        ns(
            "core.sharded.batch_hit_ns_per_page.s4",
            costs.sharded_batch_hit_s4,
        ),
        Metric::single(
            "core.sharded.mt2_reads_per_s.s4",
            "1/s",
            costs.mt2_reads_per_s,
        ),
        ns(
            "serve.engine.self_ns_per_request",
            ratio(totals.op_self_ns, requests),
        ),
        Metric::single(
            "serve.pool_time_share",
            "ratio",
            totals.pool_ns / traced_wall,
        ),
        count("serve.engine.rounds", counts.serve_rounds),
        Metric::single(
            "serve.engine.pages_per_batch",
            "count",
            ratio(counts.serve_batched_pages as f64, totals.pool_calls as f64),
        ),
        count("serve.sim_p50_ticks", counts.sim_p50_ticks),
        count("serve.sim_p99_ticks", counts.sim_p99_ticks),
        Metric::single(
            "trace.overhead_pct",
            "%",
            (traced_wall / wall - 1.0) * 100.0,
        ),
        Metric::single("trace.unexplained_share", "ratio", unexplained_share),
    ]);
    RunResult {
        workload: workload.name(),
        section: "per_layer",
        attempted,
        failed,
        correct,
        metrics,
    }
}
