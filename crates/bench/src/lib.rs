//! Shared plumbing for the experiment binaries that regenerate every
//! figure and theorem-table of the paper.
//!
//! Each experiment id from DESIGN.md has a binary (`cargo run --release -p
//! scg-bench --bin <id>`) printing the reproduced artifact. This library
//! holds the host rosters and the plain-text table writer they share.
//! Timing lives in one place only: the seeded benchmark package in
//! `src/bin/benchmark/` (see `BENCHMARK.json` at the repository root).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use scg_core::{CoreError, SuperCayleyGraph};

/// A plain-text table writer (fixed-width columns, markdown-ish rules).
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = h.len();
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                out.push_str("| ");
                out.push_str(cell);
                out.push_str(&" ".repeat(width[c] - cell.len() + 1));
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.header);
        for w in &width {
            out.push('|');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("|\n");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// The emulation-capable hosts at `k = 7` used throughout the theorem
/// tables: `MS(3,2)`, `RS(3,2)`, `Complete-RS(3,2)`, `IS(7)`, `MIS(3,2)`,
/// `RIS(3,2)`, `Complete-RIS(3,2)` plus the `(2,3)` shapes.
///
/// # Errors
///
/// Propagates constructor failures (none for these fixed parameters).
pub fn emulation_hosts_k7() -> Result<Vec<SuperCayleyGraph>, CoreError> {
    Ok(vec![
        SuperCayleyGraph::macro_star(3, 2)?,
        SuperCayleyGraph::macro_star(2, 3)?,
        SuperCayleyGraph::rotation_star(3, 2)?,
        SuperCayleyGraph::complete_rotation_star(3, 2)?,
        SuperCayleyGraph::complete_rotation_star(2, 3)?,
        SuperCayleyGraph::insertion_selection(7)?,
        SuperCayleyGraph::macro_is(3, 2)?,
        SuperCayleyGraph::rotation_is(3, 2)?,
        SuperCayleyGraph::complete_rotation_is(3, 2)?,
    ])
}

/// Every class at its smallest materializable shape (`k = 5`, 120 nodes),
/// including the directed rotator classes.
///
/// # Errors
///
/// Propagates constructor failures (none for these fixed parameters).
pub fn all_class_hosts_k5() -> Result<Vec<SuperCayleyGraph>, CoreError> {
    Ok(vec![
        SuperCayleyGraph::macro_star(2, 2)?,
        SuperCayleyGraph::rotation_star(2, 2)?,
        SuperCayleyGraph::complete_rotation_star(2, 2)?,
        SuperCayleyGraph::macro_rotator(2, 2)?,
        SuperCayleyGraph::rotation_rotator(2, 2)?,
        SuperCayleyGraph::complete_rotation_rotator(2, 2)?,
        SuperCayleyGraph::insertion_selection(5)?,
        SuperCayleyGraph::macro_is(2, 2)?,
        SuperCayleyGraph::rotation_is(2, 2)?,
        SuperCayleyGraph::complete_rotation_is(2, 2)?,
    ])
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into()]);
        let s = t.render();
        assert!(s.contains("| name  | value |"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn rosters_construct() {
        assert_eq!(emulation_hosts_k7().unwrap().len(), 9);
        assert_eq!(all_class_hosts_k5().unwrap().len(), 10);
    }
}
