//! Communication models, emulation schedules, and a network simulator for
//! super Cayley graphs (§3–§4 of the paper).
//!
//! * [`SdcReport`] — single-dimension-communication emulation costs
//!   (Theorems 1–3: slowdown 3 on `MS`/`Complete-RS`, 2 on `IS`, 4 on
//!   `MIS`/`Complete-RIS`);
//! * [`AllPortSchedule`] — conflict-free pipelined schedules emulating one
//!   all-port star step (Theorems 4–5, Figure 1), with validation,
//!   link-utilization statistics and an ASCII rendering of the Figure 1
//!   grid;
//! * [`SyncSim`] — a synchronous store-and-forward link-level simulator
//!   (all-port / single-port) with a shortest-path [`TableRouter`] (one
//!   `N`-entry table translated by left multiplication when fault-free,
//!   the `N × N` survivor table under faults), used by
//!   the `scg-comm` crate to measure multinode-broadcast and total-exchange
//!   completion times. Supports mid-run fail-stop fault injection *and
//!   repair* with bounded retries, exponential backoff, per-packet TTLs,
//!   and live-lock detection, so degraded networks report drops instead
//!   of hanging;
//! * [`run_chaos`] — the self-healing emulator loop: replays a seeded
//!   [`FaultSchedule`](scg_graph::FaultSchedule) against live traffic,
//!   refreshing the [`TableRouter`] in place on every fault-set epoch
//!   change, and reports per-event MTTR plus windowed delivered-ratio
//!   degradation curves ([`ChaosReport`]).
//!
//! # Examples
//!
//! ```
//! use scg_core::SuperCayleyGraph;
//! use scg_emu::AllPortSchedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 1b: emulating a 16-star on MS(5,3) takes max(2n, l+1) = 6
//! // steps and keeps the links ~93% busy.
//! let host = SuperCayleyGraph::macro_star(5, 3)?;
//! let schedule = scg_emu::AllPortSchedule::build(&host)?;
//! assert_eq!(schedule.makespan(), 6);
//! assert!(schedule.utilization() > 0.92);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;
mod healing;
#[cfg(feature = "obs")]
mod obs_hooks;
mod schedule;
mod sdc;
mod sim;
mod traffic;

pub use error::EmuError;
pub use healing::{run_chaos, ChaosConfig, ChaosReport, CurveSample, EventRecovery};
pub use schedule::{AllPortSchedule, DimSchedule, ScheduledHop};
pub use sdc::{pipelined_dimension_cost, PipelinedCost, SdcReport};
pub use sim::{NextHop, Packet, PortModel, Router, SimStats, SyncSim, TableRouter, NO_HINT};
pub use traffic::TrafficSummary;
