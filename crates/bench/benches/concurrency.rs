//! Concurrency benchmarks: the lock-striped [`ShardedBuffer`] against its
//! own coarse one-shard configuration on the same skewed page-access trace.
//!
//! Two views of the same experiment:
//!
//! * a thread-scaling table (1 → 8 threads) printed once, timed directly —
//!   wall-clock to drain a fixed trace split evenly across threads;
//! * criterion timings for the headline configurations.
//!
//! The number that matters: at 4 threads the striped pool must out-serve
//! the one-shard pool, whose single mutex serializes even buffer hits. Whether that
//! claim is actually asserted is decided by [`asb_bench::scaling_gate`]:
//! on machines that cannot overlap 4 threads (or on `--test` smoke runs)
//! it prints an explicit `skipped: ...` line instead of silently passing.

use asb_core::{PolicyKind, ShardedBuffer};
use asb_geom::{Rect, SpatialStats};
use asb_storage::{AccessContext, DiskManager, PageId, PageMeta, PageStore, QueryId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

const PAGES: usize = 2_000;
const CAPACITY: usize = 256;
const SHARDS: usize = 16;

fn fresh_disk() -> (DiskManager, Vec<PageId>) {
    let mut disk = DiskManager::new();
    let ids = (0..PAGES as u64)
        .map(|i| {
            let side = 0.5 + (i % 97) as f64;
            let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
            disk.allocate(meta, Bytes::new()).expect("allocate")
        })
        .collect();
    disk.reset_stats();
    (disk, ids)
}

/// A clustered trace: 80% of accesses go to a hot 10% of pages.
fn trace(ids: &[PageId], len: usize) -> Vec<(PageId, QueryId)> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len as u64)
        .map(|i| {
            let hot = rng() % 10 < 8;
            let slot = if hot {
                rng() % (PAGES as u64 / 10)
            } else {
                rng() % PAGES as u64
            };
            (ids[slot as usize], QueryId::new(i / 8))
        })
        .collect()
}

/// Drains `accesses` split evenly over `threads` workers, all reading
/// through `read`. Returns the wall-clock time of the slowest worker path.
fn drain<F>(accesses: &[(PageId, QueryId)], threads: usize, read: F) -> Duration
where
    F: Fn(PageId, AccessContext) + Sync,
{
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let read = &read;
            s.spawn(move || {
                for &(id, q) in accesses.iter().skip(t).step_by(threads) {
                    read(id, AccessContext::query(q));
                }
            });
        }
    });
    started.elapsed()
}

fn throughput(accesses: usize, elapsed: Duration) -> f64 {
    accesses as f64 / elapsed.as_secs_f64()
}

/// Prints the thread-scaling table and checks the headline claim.
fn scaling_table(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let len = if smoke { 4_000 } else { 200_000 };
    let (disk, ids) = fresh_disk();
    let accesses = trace(&ids, len);
    drop(disk);

    println!(
        "\nconcurrency scaling: {len} reads, {PAGES} pages, capacity {CAPACITY}, \
         {SHARDS} shards\n{:<26} {:>8} {:>14} {:>10}",
        "configuration", "threads", "reads/s", "speedup"
    );

    let mut coarse_4t = 0.0f64;
    let mut sharded_4t = 0.0f64;
    for (shards, policy) in [
        (SHARDS, PolicyKind::Lru),
        (SHARDS, PolicyKind::Asb),
        (1, PolicyKind::Lru),
    ] {
        let mut base = None;
        for threads in [1usize, 2, 4, 8] {
            let (disk, _) = fresh_disk();
            let pool = ShardedBuffer::new(disk, policy, CAPACITY, shards);
            let elapsed = drain(&accesses, threads, |id, ctx| {
                std::hint::black_box(pool.fetch(id, ctx).expect("read"));
            });
            let rate = throughput(len, elapsed);
            let base = *base.get_or_insert(rate);
            if policy == PolicyKind::Lru && threads == 4 {
                if shards == 1 {
                    coarse_4t = rate;
                } else {
                    sharded_4t = rate;
                }
            }
            println!(
                "{:<26} {:>8} {:>14.0} {:>9.2}x",
                format!("sharded/{shards}/{}", policy.label()),
                threads,
                rate,
                rate / base
            );
        }
    }

    println!(
        "4-thread LRU throughput: sharded/{SHARDS} {sharded_4t:.0}/s vs sharded/1 {coarse_4t:.0}/s \
         ({:.2}x)",
        sharded_4t / coarse_4t
    );

    // Miss-path dedup: 8 threads hammer one cold page; the I/O scheduler
    // must collapse the burst into a single store read.
    {
        let (disk, ids) = fresh_disk();
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, CAPACITY, SHARDS);
        let cold = ids[0];
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    std::hint::black_box(pool.fetch(cold, AccessContext::default()).expect("read"));
                });
            }
        });
        let flights = pool.flight_stats();
        println!(
            "single-flight: 8 concurrent misses on one page -> {} store read(s) \
             ({} led, {} joined)",
            pool.io_stats().reads,
            flights.led,
            flights.joined
        );
        assert_eq!(
            pool.io_stats().reads,
            1,
            "duplicate fetch slipped past the scheduler"
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match asb_bench::scaling_gate(smoke, cores) {
        asb_bench::ScalingGate::Assert => assert!(
            sharded_4t > coarse_4t,
            "striped pool must out-serve the one-shard pool at 4 threads"
        ),
        asb_bench::ScalingGate::Skip(reason) => {
            println!("4-thread scaling assertion {reason}");
        }
    }

    // Headline configurations under criterion's timing loop.
    let mut group = c.benchmark_group("concurrency");
    group.sample_size(10);
    for (name, shards, threads) in [
        ("sharded_lru_1t", SHARDS, 1usize),
        ("sharded_lru_4t", SHARDS, 4),
        ("sharded1_lru_1t", 1, 1),
        ("sharded1_lru_4t", 1, 4),
    ] {
        let (disk, _) = fresh_disk();
        let pool = ShardedBuffer::new(disk, PolicyKind::Lru, CAPACITY, shards);
        group.bench_function(name, |b| {
            b.iter(|| {
                drain(&accesses, threads, |id, ctx| {
                    std::hint::black_box(pool.fetch(id, ctx).expect("read"));
                })
            })
        });
    }
    group.finish();
}

criterion_group!(concurrency, scaling_table);
criterion_main!(concurrency);
