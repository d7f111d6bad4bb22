//! The metric tables (the code's copy of `BENCHMARK.json`, kept equal by a
//! test), and how a run's numbers are printed and written.

use crate::stats::Summary;
use serde::Value;
use std::path::Path;

/// One end-to-end metric: what a user of the system would see.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [MetricDef; 8] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "ns_per_read",
        unit: "ns",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "op_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "disk_accesses",
        unit: "count",
        higher_is_better: false,
        bound: 0.08,
    },
    MetricDef {
        name: "lru_read_ratio",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.03,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// A named, unit-carrying measurement of one run.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }

    /// A single measured or exactly counted value.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Summary::exact(value))
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    /// `"end_to_end"` or `"per_layer"`.
    pub section: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// No failed operation and every count identical on every rep.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunResult {
    /// Prints the metric table and, last, the one-line JSON result the
    /// benchmark contract prescribes.
    pub fn print(&self) {
        println!(
            "{:<44} {:>6} {:>14} {:>14} {:>14} {:>3}  values",
            format!("{} / {}", self.workload, self.section),
            "unit",
            "median",
            "q1",
            "q3",
            "n"
        );
        for m in &self.metrics {
            let s = &m.summary;
            if s.values.len() == 1 {
                println!("  {:<42} {:>6} {:>14.4}", m.name, m.unit, s.median);
                continue;
            }
            let values: Vec<String> = s.values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<42} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}",
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.values.len(),
                values.join(" ")
            );
        }
        println!(
            "  ops_attempted {}  ops_failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value", Value::F64(m.summary.median)),
                    ("unit", Value::Str(m.unit.to_string())),
                ];
                (m.name.clone(), object(fields))
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("values serialize")
        );
    }

    /// The run as the object `results.json` holds per workload and section.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let fields = vec![
                    ("unit", Value::Str(m.unit.to_string())),
                    ("median", Value::F64(s.median)),
                    ("q1", Value::F64(s.q1)),
                    ("q3", Value::F64(s.q3)),
                    ("n", Value::U64(s.values.len() as u64)),
                    (
                        "values",
                        Value::Array(s.values.iter().map(|&v| Value::F64(v)).collect()),
                    ),
                ];
                (m.name.clone(), object(fields))
            })
            .collect();
        object(vec![
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("correct", Value::Bool(self.correct)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// Writes the run to `<dir>/<section>-<workload>.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = serde_json::to_string_pretty(&self.to_value()).expect("values serialize");
        std::fs::write(
            dir.join(format!("{}-{}.json", self.section, self.workload)),
            text,
        )
    }
}

/// Looks up a field of a JSON object.
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// Merges every `<section>-<workload>.json` in `dir` into `dir/results.json`:
/// `{"workloads": {<workload>: {<section>: <run>}}}`.
pub fn merge_results(dir: &Path, workloads: &[&str]) -> std::io::Result<()> {
    let mut merged = Vec::new();
    for w in workloads {
        let mut sections = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let Ok(text) = std::fs::read_to_string(dir.join(format!("{section}-{w}.json"))) else {
                continue;
            };
            let value: Value = serde_json::from_str(&text).map_err(std::io::Error::other)?;
            sections.push((section.to_string(), value));
        }
        if !sections.is_empty() {
            merged.push((w.to_string(), Value::Object(sections)));
        }
    }
    let results = object(vec![("workloads", Value::Object(merged))]);
    let text = serde_json::to_string_pretty(&results).expect("values serialize");
    std::fs::write(dir.join("results.json"), text)
}
