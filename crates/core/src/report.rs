//! Plain-text table/heatmap rendering for experiment results.
//!
//! Campaign summaries and the remaining experiment drivers render as
//! [`Table`]s, so a run regenerates the same rows/series the paper
//! reports.

use std::fmt::Write as _;

/// A labelled results table (one per figure panel or paper table).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, e.g. `Fig 3b: GridWorld training, server faults`.
    pub(crate) title: String,
    /// Label of the row-key column.
    pub(crate) row_label: String,
    /// Column headers (after the row key).
    pub columns: Vec<String>,
    /// Rows: `(row key, values)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Number formatting precision.
    pub(crate) precision: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        row_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Table {
            title: title.into(),
            row_label: row_label.into(),
            columns,
            rows: Vec::new(),
            precision: 1,
        }
    }

    /// Sets the value precision (digits after the decimal point).
    pub fn with_precision(mut self, precision: usize) -> Self {
        self.precision = precision;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the column count.
    pub fn push_row(&mut self, key: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width must match columns");
        self.rows.push((key.into(), values));
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut key_w = self.row_label.len();
        for (k, _) in &self.rows {
            key_w = key_w.max(k.len());
        }
        let mut col_w: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let fmt_val = |v: f64| format!("{:.*}", self.precision, v);
        for (_, vals) in &self.rows {
            for (w, v) in col_w.iter_mut().zip(vals.iter()) {
                *w = (*w).max(fmt_val(*v).len());
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<key_w$}", self.row_label);
        for (c, w) in self.columns.iter().zip(col_w.iter()) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (k, vals) in &self.rows {
            let _ = write!(out, "{k:<key_w$}");
            for (v, w) in vals.iter().zip(col_w.iter()) {
                let _ = write!(out, "  {:>w$}", fmt_val(*v));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.rows[row].1[col]
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", "BER", vec!["ep0".into(), "ep100".into()]);
        t.push_row("0.1%", vec![98.0, 72.5]);
        t.push_row("1%", vec![90.0, 40.0]);
        t
    }

    #[test]
    fn renders_aligned_text() {
        let s = sample().render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("ep100"));
        assert!(s.contains("72.5"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn value_accessor() {
        assert_eq!(sample().value(1, 0), 90.0);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", "k", vec!["a".into()]);
        t.push_row("r", vec![1.0, 2.0]);
    }
}
