//! Sweep series in the shape of the paper's Fig. 5 panels.

use serde::{Deserialize, Serialize};

use crate::table::Table;

/// One Fig. 5-style panel: a swept x-axis (e.g. `|R|`) and one y-column
/// per algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSeries {
    /// Panel title, e.g. "Fig 5(a): total revenue vs |R|".
    pub(crate) title: String,
    /// X-axis label, e.g. "|R|".
    pub(crate) x_label: String,
    /// Y-axis label, e.g. "Revenue (×10⁶)".
    pub(crate) y_label: String,
    /// Swept x values.
    pub xs: Vec<f64>,
    /// `(algorithm name, y values)` — each the same length as `xs`.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl SweepSeries {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        xs: Vec<f64>,
    ) -> Self {
        SweepSeries {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            xs,
            columns: Vec::new(),
        }
    }

    /// Add an algorithm's series.
    ///
    /// # Panics
    /// Panics when the column length does not match the x-axis.
    pub fn push_column(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        assert_eq!(
            ys.len(),
            self.xs.len(),
            "series length mismatch with x-axis"
        );
        self.columns.push((name.into(), ys));
    }

    /// The y values of a named column.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ys)| ys.as_slice())
    }

    /// Render as a numeric table (one row per x value).
    pub fn to_table(&self, precision: usize) -> Table {
        let mut headers: Vec<&str> = vec![self.x_label.as_str()];
        headers.extend(self.columns.iter().map(|(n, _)| n.as_str()));
        let mut t = Table::new(format!("{} [{}]", self.title, self.y_label), &headers);
        for (i, &x) in self.xs.iter().enumerate() {
            let mut row = vec![trim_float(x)];
            for (_, ys) in &self.columns {
                row.push(format!("{:.*}", precision, ys[i]));
            }
            t.push_row(row);
        }
        t
    }

    /// Whether `a`'s series dominates `b`'s (every point ≥, within
    /// tolerance) — the harness uses this to check "RamCOM ≥ DemCOM ≥
    /// TOTA" shapes.
    pub fn dominates(&self, a: &str, b: &str, tolerance: f64) -> Option<bool> {
        let ya = self.column(a)?;
        let yb = self.column(b)?;
        Some(ya.iter().zip(yb).all(|(x, y)| x >= &(y - tolerance)))
    }
}

fn trim_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepSeries {
        let mut s = SweepSeries::new(
            "Fig 5(a): total revenue vs |R|",
            "|R|",
            "Revenue (×10⁶)",
            vec![500.0, 1000.0, 2500.0],
        );
        s.push_column("TOTA", vec![1.0, 1.8, 3.0]);
        s.push_column("DemCOM", vec![1.1, 2.0, 3.5]);
        s.push_column("RamCOM", vec![1.2, 2.3, 4.0]);
        s
    }

    #[test]
    fn table_rendering() {
        let t = sample().to_table(2);
        let ascii = t.render_ascii();
        assert!(ascii.contains("|R|"));
        assert!(ascii.contains("500"));
        assert!(ascii.contains("4.00"));
    }

    #[test]
    fn dominance_checks() {
        let s = sample();
        assert_eq!(s.dominates("RamCOM", "DemCOM", 0.0), Some(true));
        assert_eq!(s.dominates("DemCOM", "TOTA", 0.0), Some(true));
        assert_eq!(s.dominates("TOTA", "RamCOM", 0.0), Some(false));
        assert_eq!(s.dominates("TOTA", "missing", 0.0), None);
    }

    #[test]
    fn tolerance_allows_noise() {
        let mut s = SweepSeries::new("t", "x", "y", vec![1.0, 2.0]);
        s.push_column("a", vec![1.0, 1.99]);
        s.push_column("b", vec![1.0, 2.0]);
        assert_eq!(s.dominates("a", "b", 0.05), Some(true));
        assert_eq!(s.dominates("a", "b", 0.001), Some(false));
    }

    #[test]
    fn column_lookup() {
        let s = sample();
        assert_eq!(s.column("TOTA"), Some(&[1.0, 1.8, 3.0][..]));
        assert!(s.column("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_rejected() {
        let mut s = SweepSeries::new("t", "x", "y", vec![1.0]);
        s.push_column("a", vec![1.0, 2.0]);
    }
}
