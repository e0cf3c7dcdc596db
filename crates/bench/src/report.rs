//! Plain-text / markdown table rendering for experiment outputs.

#![deny(clippy::disallowed_types)]

use std::fmt::Write as _;

/// A simple column-aligned table that renders as GitHub-flavoured markdown.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells must match the header.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header width.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&separator, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with a sensible number of significant digits for tables.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_markdown_with_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["alpha".into(), "1".into()]);
        t.add_row(vec!["b".into(), "20000".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| name  | value |"));
        assert!(md.contains("| alpha | 1     |"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("Bad", &["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(4.25159), "4.25");
        assert_eq!(fmt_f64(1234.5), "1234.5");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
    }
}
