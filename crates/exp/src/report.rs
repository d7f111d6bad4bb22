//! Typed figure tables with text and JSON rendering.

use serde::Serialize;

/// One plotted series: a name (legend entry) and one value per x-position.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Legend label, e.g. `"LRU-2"` or `"buffer 0.6%"`.
    pub name: String,
    /// `(x-label, value)` pairs in plot order.
    pub points: Vec<(String, f64)>,
}

/// A reproduction of one diagram of the paper: labelled series over a
/// shared x-axis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FigureTable {
    /// Figure identity, e.g. `"fig7"`.
    pub id: String,
    /// Human-readable title, e.g. `"Performance gain, uniform distribution,
    /// database 1, 0.6% buffer"`.
    pub title: String,
    /// Meaning of the x axis (usually "query set").
    pub x_label: String,
    /// Meaning of the values (usually "gain vs LRU [%]").
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureTable {
    /// Renders the table as aligned monospace text: rows = x positions,
    /// one column per series.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(out, "   ({}; values: {})", self.x_label, self.y_label);
        if self.series.is_empty() {
            let _ = writeln!(out, "   (no data)");
            return out;
        }
        let x_labels: Vec<&str> = self.series[0]
            .points
            .iter()
            .map(|(x, _)| x.as_str())
            .collect();
        let x_width = x_labels
            .iter()
            .map(|l| l.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_width = self
            .series
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(out, "{:<x_width$}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " | {:>col_width$}", s.name);
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(x_width + self.series.len() * (col_width + 3))
        );
        for (row, x) in x_labels.iter().enumerate() {
            let _ = write!(out, "{x:<x_width$}");
            for s in &self.series {
                match s.points.get(row) {
                    Some((_, v)) => {
                        let _ = write!(out, " | {:>col_width$.1}", v);
                    }
                    None => {
                        let _ = write!(out, " | {:>col_width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        FigureTable {
            id: "fig7".into(),
            title: "demo".into(),
            x_label: "query set".into(),
            y_label: "gain vs LRU [%]".into(),
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![("U-P".into(), 12.5), ("U-W-33".into(), 30.0)],
                },
                Series {
                    name: "LRU-2".into(),
                    points: vec![("U-P".into(), 20.0), ("U-W-33".into(), 1.25)],
                },
            ],
        }
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let text = table().render_text();
        for needle in [
            "fig7", "U-P", "U-W-33", "A", "LRU-2", "12.5", "30.0", "20.0", "1.2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn rows_align_with_first_series() {
        let text = table().render_text();
        let lines: Vec<&str> = text.lines().collect();
        // Header + separator + 2 data rows + 2 title lines.
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn json_roundtrip() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        let back: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t.serialize());
    }

    #[test]
    fn empty_table_renders() {
        let t = FigureTable {
            id: "figX".into(),
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![],
        };
        assert!(t.render_text().contains("no data"));
    }
}
