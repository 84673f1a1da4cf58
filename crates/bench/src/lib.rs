//! The paper's figures and theorem-tables as checked artifacts.
//!
//! [`tables`] measures every figure and table, the `tab_embed` and
//! `tab_chaos` fault sweeps among them, renders the text kept in
//! `results/<id>.txt`, and checks each claim the table makes; `cargo run
//! --release -p scg-bench --bin reproduce` rewrites them all. This library
//! also holds the host rosters and the plain-text table writer shared with
//! the `tab_obs` binary, whose text carries wall-time histograms. Timing lives in one
//! place only: the seeded benchmark package in `src/bin/benchmark/` (see
//! `BENCHMARK.json` at the repository root).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::error::Error;

use scg_core::{CayleyNetwork, ScgClass, StarGraph, SuperCayleyGraph};

pub mod tables;

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

/// Every class at its smallest materializable shape (`k = 5`, 120 nodes),
/// including the directed rotator classes.
///
/// # Errors
///
/// Propagates constructor failures (none for these fixed parameters).
pub fn all_class_hosts_k5() -> Result<Vec<SuperCayleyGraph>, Box<dyn Error>> {
    hosts(
        "MS(2,2) RS(2,2) Complete-RS(2,2) MR(2,2) RR(2,2) Complete-RR(2,2) IS(5) MIS(2,2) \
         RIS(2,2) Complete-RIS(2,2)",
    )
}

/// The super Cayley graphs named as the tables print them: `"MS(3,2) IS(7)"`.
fn hosts(names: &str) -> Result<Vec<SuperCayleyGraph>, Box<dyn Error>> {
    names.split_whitespace().map(host).collect()
}

/// The super Cayley graph named as the tables print it: `"MS(3,2)"`, `"IS(7)"`.
fn host(name: &str) -> Result<SuperCayleyGraph, Box<dyn Error>> {
    let bad = || format!("not a network name: {name}");
    let (abbrev, shape) = name
        .strip_suffix(')')
        .and_then(|s| s.split_once('('))
        .ok_or_else(bad)?;
    let shape: Vec<usize> = shape.split(',').map(str::parse).collect::<Result<_, _>>()?;
    let class = ScgClass::ALL
        .into_iter()
        .find(|c| c.abbrev() == abbrev)
        .ok_or_else(bad)?;
    Ok(match shape[..] {
        [k] if class == ScgClass::InsertionSelection => SuperCayleyGraph::insertion_selection(k)?,
        [l, n] => SuperCayleyGraph::new(class, l, n)?,
        _ => return Err(bad().into()),
    })
}

/// Stars and super Cayley graphs named as the tables print them:
/// `"5-star MS(2,2)"`.
fn nets(names: &str) -> Result<Vec<Box<dyn CayleyNetwork>>, Box<dyn Error>> {
    let net = |name: &str| -> Result<Box<dyn CayleyNetwork>, Box<dyn Error>> {
        Ok(match name.strip_suffix("-star") {
            Some(k) => Box::new(StarGraph::new(k.parse()?)?),
            None => Box::new(host(name)?),
        })
    };
    names.split_whitespace().map(net).collect()
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
        let k5 = all_class_hosts_k5().unwrap();
        let classes: Vec<ScgClass> = k5.iter().map(SuperCayleyGraph::class).collect();
        assert_eq!(classes, ScgClass::ALL);
        for net in &k5 {
            assert_eq!(host(&net.name()).unwrap().name(), net.name());
        }
        assert!(host("XS(2,2)").is_err() && host("MS(2)").is_err());
    }
}
