//! Aligned ASCII tables and CSV emission for reports and dashboards.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Examples
///
/// ```
/// use ccsim_obs::Table;
///
/// let mut t = Table::new(vec!["workload".into(), "mpki".into()]);
/// t.row(vec!["bfs.kron".into(), "41.8".into()]);
/// let s = t.render();
/// assert!(s.contains("bfs.kron"));
/// assert!(s.starts_with("workload"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table { headers, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<width$}", width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as CSV (comma-separated; cells containing commas are
    /// double-quoted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "long-header".into()]);
        t.row(vec!["wide-cell-content".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in header and row.
        let hpos = lines[0].find("long-header").unwrap();
        let rpos = lines[2].find('1').unwrap();
        assert_eq!(hpos, rpos);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(vec!["h".into()]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
