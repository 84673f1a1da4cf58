//! `scg-analyze`: the workspace's in-tree static-analysis pass.
//!
//! Four PRs in, the codebase has real invariants that generic tooling
//! cannot see: routing must go through the cached
//! [`materialize`](https://docs.rs/scg-core)/`RoutePlan` path instead of
//! rebuilding topology ad hoc; symbol arithmetic on `S_k` permutations
//! (the paper's alphabet is exactly `k = nl + 1` symbols, §2.1) must not
//! truncate through `as` casts; and the fault-tolerance story audited in
//! the fault-injection PR assumes library code returns `Result`s rather
//! than panicking. This crate turns those review-folklore rules into a
//! CI-enforced contract:
//!
//! * a hand-rolled, span-accurate Rust [`lexer`] (string/char/raw-string/
//!   byte-string/nested-comment/shebang aware — no `syn`, matching the
//!   workspace's vendored-everything policy);
//! * a [`syntax`] pass that brace-matches the token stream into an item
//!   tree — `mod`/`impl`/`fn` spans, `unsafe` blocks, `extern` blocks,
//!   and `#[cfg(test)]` regions — so rules and the driver share one
//!   structural view instead of per-rule line heuristics;
//! * the [`rules`] engine — `SCG001` (no panicking constructs), `SCG002`
//!   (no topology-cache bypass), `SCG003` (no lossy narrow-int `as` casts
//!   in `perm`/`core`/`graph`), `SCG004` (atomic orderings need `// ord:`
//!   justifications), `SCG005` (no `let _ =` discards or never-read `_`
//!   bindings), `SCG006` (`unsafe` blocks need adjacent `// SAFETY:`
//!   justifications), `SCG007` (extern "C" results must be checked),
//!   `SCG009` (no blocking calls under a live lock guard in the serve
//!   crate) — plus `SCG000` suppression hygiene;
//! * the [`callgraph`] pass — per-function panic/call summaries resolved
//!   through per-file `use` maps and the workspace dependency graph, then
//!   a reachability sweep (`SCG008`) proving the wire-decode and routing
//!   entry points cannot reach an unaudited panic;
//! * the [`driver`] that walks library sources, exempts test-gated code,
//!   and resolves justified `// scg-allow(SCG00x): reason` comments;
//! * an incremental [`cache`] (content-hash keyed) so the CI deny gate
//!   only re-analyzes files that actually changed;
//! * [`report`] rendering: rustc-style text plus a JSON artifact built on
//!   the shared [`scg_obs::json`] model and re-validated through its
//!   parser.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p scg-analyze -- --deny
//! ```
//!
//! # Examples
//!
//! ```
//! use scg_analyze::driver::{analyze_source, Analysis};
//! use scg_analyze::rules::{FileInfo, RuleId};
//!
//! let info = FileInfo {
//!     rel_path: "crates/perm/src/x.rs".to_string(),
//!     crate_name: "perm".to_string(),
//! };
//! let mut analysis = Analysis::default();
//! analyze_source("fn f(x: usize) -> u8 { x as u8 }", &info, &mut analysis);
//! assert_eq!(analysis.count(RuleId::Scg003), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod callgraph;
pub mod driver;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;
