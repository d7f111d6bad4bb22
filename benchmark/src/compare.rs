//! `compare BASE.json NEW.json`: the before/after table every later change
//! is judged with. Per workload × end-to-end metric it prints the two
//! medians, their ratio with its base, the metric's bound and a verdict.

use crate::report::{get, number, MetricDef, END_TO_END};
use crate::stats::Summary;
use crate::workload::Workload;
use serde::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base's by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// Either side's run-to-run spread (interquartile range over median) is
    /// wider than the bound, so the medians cannot settle the question —
    /// unless every new run reads better than every base run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(def: &MetricDef, base: &Summary, new: &Summary) -> Verdict {
    // Orient both sides so that larger is worse.
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    if base.spread() > def.bound || new.spread() > def.bound {
        let worst_new = new.values.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best_base = base
            .values
            .iter()
            .map(|v| sign * v)
            .fold(f64::MAX, f64::min);
        return if worst_new < best_base {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = sign * (new.median - base.median) / base.median.abs();
    if worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The summary of `workload`'s end-to-end `metric` in a `results.json`.
fn summary_of(results: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let run = get(get(get(results, "workloads")?, workload)?, "end_to_end")?;
    let Value::Array(values) = get(get(get(run, "metrics")?, metric)?, "values")? else {
        return None;
    };
    let values: Option<Vec<f64>> = values.iter().map(number).collect();
    Some(Summary::of(values.filter(|v| !v.is_empty())?))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

pub fn main(base_path: &str, new_path: &str) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<15} {:>6} {:>14} {:>14} {:>9}  {:>6}  verdict",
        "workload", "metric", "unit", "base median", "new median", "new/base", "bound"
    );
    let (mut regressed, mut missing) = (false, false);
    for w in Workload::ALL.map(Workload::name) {
        for def in &END_TO_END {
            let (Some(b), Some(n)) = (
                summary_of(&base, w, def.name),
                summary_of(&new, w, def.name),
            ) else {
                println!("{w:<14} {:<15} missing from one of the files", def.name);
                missing = true;
                continue;
            };
            let v = verdict(def, &b, &n);
            regressed |= v == Verdict::Regressed;
            println!(
                "{w:<14} {:<15} {:>6} {:>14.4} {:>14.4} {:>9.4}  {:>5.1}%  {}",
                def.name,
                def.unit,
                b.median,
                n.median,
                n.median / b.median,
                def.bound * 100.0,
                v.label()
            );
        }
    }
    println!("new/base: the base of every ratio is the base file's median ({base_path})");
    ExitCode::from(if missing { 2 } else { u8::from(regressed) })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "latency",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };

    fn s(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn medians_within_the_bound_are_ok_beyond_it_regressed() {
        let base = s(&[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(&LOWER, &base, &s(&[109.0, 110.0, 108.0])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&LOWER, &base, &s(&[111.0, 112.0, 110.5])),
            Verdict::Regressed
        );
        assert_eq!(verdict(&LOWER, &base, &s(&[50.0, 51.0, 49.0])), Verdict::Ok);
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&HIGHER, &base, &s(&[91.0, 92.0, 90.5])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&HIGHER, &base, &s(&[88.0, 89.0, 87.0])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &base, &s(&[150.0, 151.0, 149.0])),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = s(&[80.0, 100.0, 120.0, 140.0]);
        let base = s(&[100.0, 101.0, 99.0]);
        assert_eq!(verdict(&LOWER, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &noisy, &base), Verdict::Unresolved);
        // Every new run beats every base run: resolved despite the spread.
        assert_eq!(
            verdict(&LOWER, &noisy, &s(&[70.0, 75.0, 79.0])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&HIGHER, &noisy, &s(&[141.0, 150.0, 160.0])),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_counts_compare_by_value() {
        let exact = MetricDef {
            name: "disk_accesses",
            unit: "count",
            higher_is_better: false,
            bound: 0.01,
        };
        assert_eq!(
            verdict(&exact, &Summary::exact(1000.0), &Summary::exact(1010.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&exact, &Summary::exact(1000.0), &Summary::exact(1011.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn summaries_are_read_back_from_a_results_file() {
        let text = r#"{"workloads": {"pan_fit": {"end_to_end": {"attempted": 3, "metrics":
            {"ops_per_s": {"unit": "1/s", "median": 2.0, "values": [1.0, 2, 3.0]}}}}}}"#;
        let results: Value = serde_json::from_str(text).unwrap();
        let s = summary_of(&results, "pan_fit", "ops_per_s").unwrap();
        assert_eq!((s.median, s.values.len()), (2.0, 3));
        assert!(summary_of(&results, "pan_fit", "op_p50_us").is_none());
        assert!(summary_of(&results, "update_mix", "ops_per_s").is_none());
    }
}
