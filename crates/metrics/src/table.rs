//! Result tables in the shape of the paper's Tables V–VII.

use serde::{Deserialize, Serialize};

/// A simple column-aligned table with a title, rendered as ASCII (for the
/// terminal) or Markdown (for EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the row width does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Convenience for string-slice rows.
    pub fn push(&mut self, row: &[&str]) {
        self.push_row(row.iter().map(|s| s.to_string()).collect());
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Render with aligned ASCII columns.
    pub fn render_ascii(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a Markdown table (with the title as a heading).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Results on RDC10 and RYC10", &["Method", "Rev", "CpR"]);
        t.push(&["OFF", "1.752", "91321"]);
        t.push(&["TOTA", "1.343", "68689"]);
        t
    }

    #[test]
    fn ascii_alignment() {
        let s = sample().render_ascii();
        assert!(s.contains("== Results on RDC10 and RYC10 =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows align: "Rev" column starts at the same offset.
        let header_pos = lines[1].find("Rev").unwrap();
        // lines[2] is the separator; lines[3]/[4] are the data rows.
        assert_eq!(lines[3].find("1.752").unwrap(), header_pos);
        assert_eq!(lines[4].find("1.343").unwrap(), header_pos);
    }

    #[test]
    fn markdown_shape() {
        let md = sample().render_markdown();
        assert!(md.starts_with("### Results"));
        assert!(md.contains("| Method | Rev | CpR |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| TOTA | 1.343 | 68689 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(&["only-one"]);
    }
}
