//! Plain-text table rendering for experiments.
//!
//! Every `exp_*` binary prints its result as a [`Table`]; [`f3`] is the
//! three-decimal format of the fractions the paper-table goldens pin.

use std::fmt;

/// A simple aligned text table, printed by every experiment binary.
///
/// # Example
///
/// ```
/// use cnet_bench::Table;
///
/// let mut t = Table::new(vec!["w", "measured", "paper"]);
/// t.row(vec!["8".into(), "0.333".into(), ">= 1/3".into()]);
/// let s = t.to_string();
/// assert!(s.contains("measured"));
/// assert!(s.contains("0.333"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; it must have as many cells as there are headers.
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "longheader"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines have equal width.
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_and_rule() {
        let t = Table::new(vec!["threads", "Mops/s"]);
        assert_eq!(t.to_string(), "| threads | Mops/s |\n|---------|--------|\n");
    }

    #[test]
    fn columns_align_by_characters_not_bytes() {
        // The paper-table goldens carry `≥`, `ℓ` and `·`: multi-byte
        // characters must pad like one column each.
        let mut t = Table::new(vec!["ℓ", "bound"]);
        t.row(vec!["1".into(), "≥ 1/3".into()]);
        t.row(vec!["12".into(), "d·c".into()]);
        let s = t.to_string();
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 4);
        assert!(widths.iter().all(|&w| w == widths[0]), "{s}");
        assert!(s.contains("| ℓ  | bound |"), "{s}");
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.0 / 3.0), "0.333");
        assert_eq!(f3(0.5), "0.500");
    }
}
