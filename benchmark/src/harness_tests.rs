//! Tests of the harness itself, on the `--smoke` fixture (20 000 objects):
//! the wrappers are transparent, the policy model agrees with the buffer
//! manager, a wrong answer fails the run, and the code's metric tables are
//! `BENCHMARK.json`'s.

use crate::fixture::{Fixture, Ops, Size};
use crate::layers::{measure_layers, ResidentModel};
use crate::report::{get, number, RunResult, END_TO_END};
use crate::span::Tracer;
use crate::workload::{run_on_fixture, Workload};
use crate::{exit_status, measure_end_to_end, Options};
use asb_core::{BufferManager, PolicyKind};
use asb_rtree::RTree;
use asb_storage::{AccessContext, RecordingStore};
use serde::Value;
use std::sync::Arc;

fn smoke_options(trace: bool) -> Options {
    Options {
        workload: None,
        seed: 7,
        seconds: 0.2,
        trace,
        reps: Some(2),
        size: Size::Smoke,
        out: None,
    }
}

#[test]
fn timed_store_and_pool_change_no_count_and_no_answer() {
    for workload in Workload::ALL {
        let (mut fx, _) = Fixture::build(workload, Size::Smoke, 7);
        let plain = run_on_fixture(&mut fx, workload.policy(), None);
        let tracer = Arc::new(Tracer::new());
        let traced = run_on_fixture(&mut fx, workload.policy(), Some(&tracer));
        assert_eq!(plain.failed, 0, "{workload:?}");
        assert_eq!(traced.failed, 0, "{workload:?}");
        // BufferStats, IoStats, WAL and serve counts, all at once.
        assert_eq!(plain.counts, traced.counts, "{workload:?}");
        assert!(plain.counts.buffer.logical_reads > 0);

        let spans = tracer.take();
        let ops = spans.iter().filter(|s| s.name.starts_with("op.")).count();
        assert_eq!(ops as u64, traced.latencies_ns.len() as u64);
        // Under an operation: `update_mix` validates its tree afterwards.
        let store_reads = spans
            .iter()
            .filter(|s| s.name == "store.read" && s.parent.is_some())
            .count();
        assert_eq!(store_reads as u64, traced.counts.disk_reads, "{workload:?}");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let pool_spans = spans.iter().any(|s| s.name == "pool.fetch_batch");
        assert_eq!(pool_spans, workload == Workload::ServeBrowse);
        assert_eq!(
            traced.pool_trace.is_empty(),
            workload != Workload::ServeBrowse
        );
    }
}

#[test]
fn resident_model_misses_exactly_like_the_buffer_manager() {
    let (mut fx, _) = Fixture::build(Workload::ThrashWindow, Size::Smoke, 7);
    let Ops::Queries(queries) = &fx.ops else {
        panic!("thrash_window is a query workload")
    };
    let mut tree = RTree::attach(
        RecordingStore::new(std::mem::take(&mut fx.disk)),
        fx.snapshot,
    );
    for q in queries {
        tree.execute(q).unwrap();
    }
    let log = tree.store().take_log();
    let mut disk = tree.into_store().into_inner();
    assert!(
        log.len() > 4 * fx.capacity,
        "the trace must force evictions"
    );

    for kind in [PolicyKind::Lru, PolicyKind::Asb] {
        let mut model = ResidentModel::new(kind, fx.capacity);
        let mut manager = BufferManager::with_policy(kind, fx.capacity);
        for &(id, q) in &log {
            let ctx = AccessContext::query(q);
            let page = disk.peek(id).unwrap().clone();
            let hit = model.access(&page, ctx);
            let before = manager.stats().hits;
            manager.fetch(&mut disk, id, ctx).unwrap();
            assert_eq!(hit, manager.stats().hits > before, "{kind:?} page {id}");
        }
        let stats = manager.stats();
        assert_eq!((model.hits, model.misses), (stats.hits, stats.misses));
        assert!(stats.evictions > 0, "{kind:?} never evicted");
    }
}

#[test]
fn a_corrupted_oracle_hash_fails_the_run() {
    let opts = smoke_options(false);
    let (mut fx, setup_s) = Fixture::build(Workload::PanFit, Size::Smoke, opts.seed);
    let good = measure_end_to_end(&mut fx, vec![setup_s], &opts);
    assert!(good.correct && good.failed == 0);
    assert_eq!(exit_status(&good), 0);

    fx.expect[3] ^= 1;
    let bad = measure_end_to_end(&mut fx, vec![setup_s], &opts);
    // The LRU reference pass and both reps each see the wrong answer.
    assert_eq!(bad.failed, 3);
    assert!(!bad.correct);
    assert_eq!(exit_status(&bad), 1);
}

fn names(result: &RunResult) -> Vec<(String, String)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    let Some(Value::Array(metrics)) = get(benchmark, section) else {
        panic!("BENCHMARK.json has no {section} list")
    };
    metrics
        .iter()
        .map(|m| {
            let text = |key| match get(m, key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section} metric without a {key}: {other:?}"),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// `BENCHMARK.json` is the contract; the code's tables must say the same.
#[test]
fn benchmark_json_declares_what_the_runs_emit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

    let Some(Value::Array(workloads)) = get(&benchmark, "workloads") else {
        panic!("BENCHMARK.json has no workloads list")
    };
    let declared_workloads: Vec<&Value> = workloads.iter().filter_map(|w| get(w, "name")).collect();
    let ours: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::Str(w.name().to_string()))
        .collect();
    assert_eq!(declared_workloads, ours.iter().collect::<Vec<_>>());

    let Some(Value::Array(end_to_end)) = get(&benchmark, "end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list")
    };
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(get(json, "name"), Some(&Value::Str(def.name.to_string())));
        assert_eq!(get(json, "unit"), Some(&Value::Str(def.unit.to_string())));
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(get(json, "better"), Some(&Value::Str(better.to_string())));
        assert_eq!(
            get(json, "bound").and_then(number),
            Some(def.bound),
            "{}",
            def.name
        );
    }

    // Both kinds of run emit exactly the declared metrics, on a read-only
    // workload and on the one that writes.
    for workload in [Workload::ServeBrowse, Workload::UpdateMix] {
        let opts = smoke_options(false);
        let (mut fx, setup_s) = Fixture::build(workload, Size::Smoke, opts.seed);
        let e2e = measure_end_to_end(&mut fx, vec![setup_s], &opts);
        assert!(e2e.correct, "{workload:?}");
        assert_eq!(names(&e2e), declared(&benchmark, "end_to_end"));
        assert!(e2e.metrics.iter().all(|m| m.summary.median > 0.0));

        let layers = measure_layers(&mut fx, &smoke_options(true));
        assert!(layers.correct, "{workload:?}");
        assert_eq!(names(&layers), declared(&benchmark, "per_layer"));
        assert!(layers.metrics.iter().all(|m| m.summary.median.is_finite()));
    }
}
