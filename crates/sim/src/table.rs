//! Plain-text tables for experiment output.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple column-aligned table; what every experiment prints, and what
/// `EXPERIMENTS.md` embeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub columns: Vec<String>,
    /// Rows of cells; `rows[i].len() == columns.len()`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given caption and headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_headers(title: impl Into<String>, headers: &[&str]) -> Self {
        Table::new(title, headers.iter().map(|s| s.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Appends a labelled row of numeric cells formatted to `precision`
    /// decimals.
    pub fn push_numeric_row(&mut self, label: impl Into<String>, values: &[f64], precision: usize) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.push_row(cells);
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column-aligned plain text.
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        writeln!(f, "{}", "-".repeat(header.join("  ").len()))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_headers("Demo", &["rank", "MRSF(P)", "S-EDF(NP)"]);
        t.push_numeric_row("1", &[0.9123, 0.8512], 3);
        t.push_numeric_row("2", &[0.7, 0.6], 3);
        t
    }

    #[test]
    fn rows_align_with_columns() {
        let t = sample();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0], vec!["1", "0.912", "0.851"]);
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn mismatched_row_rejected() {
        let mut t = sample();
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("| rank | MRSF(P) | S-EDF(NP) |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 2 | 0.700 | 0.600 |"));
    }

    #[test]
    fn display_is_column_aligned() {
        let text = sample().to_string();
        assert!(text.contains("== Demo =="));
        assert!(text.lines().count() >= 5);
    }
}
