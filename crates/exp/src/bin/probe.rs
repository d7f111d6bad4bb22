//! `probe` — inspect one experiment cell in detail.
//!
//! ```text
//! probe [--scale S] [--seed N] [--db 1|2] [--frac F] [--set NAME]
//!       [--shards M]
//! ```
//!
//! Prints, for every policy, the disk accesses, hit ratio and I/O split of
//! the chosen query set — the raw numbers behind the figures, useful when
//! calibrating the synthetic workloads against the paper's described
//! behaviour.
//!
//! The per-policy cells are replays of one recording of the query set
//! (`Lab::eval`). `--shards M` additionally runs the query set live against
//! a sharded buffer pool with M shards, served by as many threads as the
//! machine offers (at least two), and reports the pool-wide statistics.

use asb_core::{PolicyKind, ShardedBuffer, SpatialCriterion};
use asb_exp::{ExperimentCell, Lab};
use asb_rtree::RTree;
use asb_storage::DiskManager;
use asb_workload::{Dataset, DatasetKind, QuerySetSpec, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut db = DatasetKind::Mainland;
    let mut frac = 0.047f64;
    let mut set = "INT-P".to_string();
    let mut shards = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--scale" => {
                    let v = next()?;
                    scale = Scale::from_name(&v).ok_or(format!("unknown scale {v}"))?;
                }
                "--seed" => seed = next()?.parse().map_err(|e| format!("{e}"))?,
                "--db" => {
                    db = match next()?.as_str() {
                        "1" => DatasetKind::Mainland,
                        "2" => DatasetKind::World,
                        o => return Err(format!("unknown db {o}")),
                    }
                }
                "--frac" => {
                    frac = next()?.parse().map_err(|e| format!("{e}"))?;
                    if !(frac > 0.0 && frac <= 1.0) {
                        return Err(format!("--frac must be in (0, 1], got {frac}"));
                    }
                }
                "--set" => {
                    let v = next()?;
                    set = v.clone();
                    QuerySetSpec::from_name(&v).ok_or(format!("unknown query set {v}"))?;
                }
                "--shards" => {
                    shards = next()?.parse().map_err(|e| format!("{e}"))?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                }
                o => return Err(format!("unknown argument {o}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let spec = QuerySetSpec::from_name(&set).expect("validated above");

    let mut lab = Lab::new(scale, seed);
    let pages = match lab.tree_pages(db) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: bulk load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let buffer_pages = ((pages as f64 * frac).round() as usize).max(4);
    println!(
        "# db={db:?} scale={scale:?} pages={pages} buffer={frac} (= {buffer_pages} pages) \
         set={set}"
    );
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::LruT,
        PolicyKind::LruP,
        PolicyKind::TwoQ,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::Slru {
            candidate_fraction: 0.25,
            criterion: SpatialCriterion::Area,
        },
        PolicyKind::Asb,
        PolicyKind::Arena,
    ];
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "policy", "accesses", "logical", "hit%", "random", "seq", "sim[ms]", "gain%"
    );
    let cells = policies.map(|policy| ExperimentCell::new(db, policy, frac, spec));
    let results = match lab.eval(&cells) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = results[0]; // cells[0] is LRU, the paper's baseline
    for (p, r) in policies.iter().zip(&results) {
        println!(
            "{:<10} {:>9} {:>9} {:>7.1} {:>9} {:>9} {:>9.0} {:>8.1}",
            p.label(),
            r.disk_accesses,
            r.logical_reads,
            100.0 * r.hits as f64 / r.logical_reads as f64,
            r.io.random_reads,
            r.io.sequential_reads,
            r.io.simulated_ms,
            r.gain_over(&base),
        );
    }

    if shards > 0 {
        drop(lab); // the live pool below loads trees of its own
        if let Err(e) = sharded_replay(
            &Dataset::generate(db, scale, seed),
            spec,
            seed,
            buffer_pages.max(shards),
            shards,
            std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
        ) {
            eprintln!("error: sharded replay failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Replays the query set against one sharded pool served by several
/// threads and prints the pool-wide statistics.
fn sharded_replay(
    dataset: &Dataset,
    spec: QuerySetSpec,
    seed: u64,
    capacity: usize,
    shards: usize,
    threads: usize,
) -> asb_storage::Result<()> {
    let queries = spec.generate(dataset, 2_000, seed ^ 0x0051_5e75);
    for policy in [PolicyKind::Lru, PolicyKind::Asb] {
        let tree = RTree::bulk_load(DiskManager::new(), dataset.items())?;
        let snap = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), policy, capacity, shards);
        pool.reset_io_stats();
        // A wall-clock throughput probe; the line is labelled `wall=`.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let worker_results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let pool = pool.clone();
                    let queries = &queries;
                    s.spawn(move || -> asb_storage::Result<()> {
                        let mut view = RTree::attach(pool, snap);
                        view.seed_query_counter((t as u64) << 32);
                        for q in queries.iter().skip(t).step_by(threads) {
                            view.execute(q)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Vec<_>>()
        });
        for r in worker_results {
            r?;
        }
        let elapsed = started.elapsed();
        let stats = pool.stats();
        let io = pool.io_stats();
        println!(
            "# sharded replay: policy={} shards={shards} threads={threads} capacity={capacity} \
             logical={} hit%={:.1} disk={} wall={elapsed:.1?}",
            policy.label(),
            stats.logical_reads,
            100.0 * stats.hit_ratio(),
            io.reads,
        );
    }
    Ok(())
}
