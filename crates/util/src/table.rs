//! Plain-text table rendering for experiment reports.
//!
//! Every `sdbp bench` experiment prints paper-style tables; this module
//! centralizes column alignment so the output stays legible without a
//! third-party dependency.

use std::fmt::Write as _;

/// Column alignment for [`TableWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Align {
    /// Pad on the right (text columns).
    #[default]
    Left,
    /// Pad on the left (numeric columns).
    Right,
}

/// Accumulates rows of strings and renders them as an aligned text table.
///
/// # Examples
///
/// ```
/// use sdbp_util::table::{Align, TableWriter};
///
/// let mut t = TableWriter::new(vec!["program".into(), "MISPs/KI".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["gcc".into(), "11.32".into()]);
/// t.row(vec!["m88ksim".into(), "1.04".into()]);
/// let text = t.render();
/// assert!(text.contains("gcc"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TableWriter {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(headers: &[&str]) -> Self {
        Self::new(headers.iter().map(|s| s.to_string()).collect())
    }

    /// Sets the alignment of column `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a valid column.
    pub fn align(&mut self, idx: usize, align: Align) -> &mut Self {
        self.aligns[idx] = align;
        self
    }

    /// Right-aligns every column except the first (the common numeric-table
    /// shape used by the experiment binaries).
    pub fn numeric(&mut self) -> &mut Self {
        for i in 1..self.aligns.len() {
            self.aligns[i] = Align::Right;
        }
        self
    }

    /// Appends one row.
    ///
    /// Short rows are padded with empty cells; long rows are truncated to the
    /// header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        cells.truncate(self.headers.len());
        self.rows.push(cells);
        self
    }

    /// Appends one row from anything displayable.
    pub fn row_display<I, T>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = T>,
        T: std::fmt::Display,
    {
        self.row(cells.into_iter().map(|c| c.to_string()).collect())
    }

    /// Number of data rows so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table, header first, with a separator rule.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String], aligns: &[Align]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        for _ in 0..pad {
                            out.push(' ');
                        }
                    }
                    Align::Right => {
                        for _ in 0..pad {
                            out.push(' ');
                        }
                        out.push_str(cell);
                    }
                }
            }
            // Trim trailing spaces from left-aligned last columns.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers, &self.aligns);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        for _ in 0..rule_len {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row, &self.aligns);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.953 → "95.3%"`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a signed improvement percentage with one decimal, e.g. `"-2.3%"`.
pub fn pct_signed(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats a float with `digits` decimals.
pub fn fixed(x: f64, digits: usize) -> String {
    let mut s = String::new();
    let _ = write!(s, "{x:.digits$}");
    s
}

/// Formats a count with thousands separators, e.g. `1234567 → "1,234,567"`.
pub fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableWriter::with_columns(&["name", "value"]);
        t.numeric();
        t.row_display(["alpha", "1"]);
        t.row_display(["b", "12345"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Numeric column right-aligned: both rows end at the same column.
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("12345"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TableWriter::with_columns(&["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.num_rows(), 1);
        let text = t.render();
        assert!(text.contains('x'));
    }

    #[test]
    fn long_rows_are_truncated() {
        let mut t = TableWriter::with_columns(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
        let text = t.render();
        assert!(!text.contains('y'));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.953), "95.3%");
        assert_eq!(pct_signed(-0.023), "-2.3%");
        assert_eq!(pct_signed(0.05), "+5.0%");
    }

    #[test]
    fn fixed_formats() {
        assert_eq!(fixed(12.3456, 2), "12.35");
        assert_eq!(fixed(1.0, 0), "1");
    }

    #[test]
    fn grouped_formats() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1000), "1,000");
        assert_eq!(grouped(1234567), "1,234,567");
    }
}
