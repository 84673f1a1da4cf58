//! Prototype communication tasks on star graphs and super Cayley graphs:
//! the multinode broadcast (MNB) and total exchange (TE) of Corollaries 2
//! and 3.
//!
//! Both tasks run on *any* [`CayleyNetwork`](scg_core::CayleyNetwork), so
//! the same code measures the star graph baseline and each super Cayley
//! host, exposing the degree-versus-distance trade-off the corollaries
//! quantify:
//!
//! * MNB: `Θ(N · log log N / log N)` on the star/IS,
//!   `Θ(N · √(log log N / log N))` on MS/Complete-RS/MIS/Complete-RIS with
//!   `l = Θ(n)` — both optimal for their degree ([`mnb_all_port`],
//!   [`mnb_sdc`]);
//! * TE: `Θ(N)` vs `Θ(N · √(log N / log log N))` ([`te_all_port`],
//!   [`te_sdc`]).
//!
//! The SDC implementations are **strictly optimal**: `N − 1` steps for the
//! MNB (a Hamiltonian-generator-word relay) and `Σ_w dist(w)` for the TE
//! (translated shortest paths), reproducing the Mišić–Jovanović constants
//! the paper invokes.
//!
//! # Examples
//!
//! ```
//! use scg_core::StarGraph;
//! use scg_comm::mnb_all_port;
//!
//! # fn main() -> Result<(), scg_comm::CommError> {
//! let star = StarGraph::new(5)?;
//! let report = mnb_all_port(&star, 1_000)?;
//! assert!(report.steps >= report.lower_bound);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;
mod mnb;
mod snb;
mod te;

pub use error::CommError;
pub use mnb::{mnb_all_port, mnb_sdc, verify_sdc_relay, MnbReport};
pub use snb::{gather_all_port, scatter_all_port, snb_all_port, SnbReport};
pub use te::{te_all_port, te_sdc, te_single_port, TeReport};
