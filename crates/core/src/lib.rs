//! Super Cayley graphs: the network classes, generator algebra, and routing
//! of *Routing and Embeddings in Super Cayley Graphs* (Yeh, Varvarigos &
//! Lee, PaCT 1999).
//!
//! A **super Cayley graph** is a Cayley graph over the symmetric group `S_k`
//! (`k = nl + 1`) whose generators come in two kinds, mirroring the moves of
//! the *ball-arrangement game* with `l` boxes of `n` balls plus one outside
//! ball:
//!
//! * **nucleus generators** permute the leftmost `n + 1` symbols (the
//!   outside ball and the leftmost box);
//! * **super generators** permute whole super-symbols (move boxes).
//!
//! This crate implements:
//!
//! * the generator algebra ([`Generator`]): transpositions `T_i`, exchanges
//!   `T_{i,j}`, insertions `I_i`, selections `I_i^{-1}`, swaps `S_{n,i}`,
//!   rotations `R^i_n`;
//! * the ten network classes of §2.2 ([`SuperCayleyGraph`], [`ScgClass`])
//!   and the classic Cayley references ([`StarGraph`], [`BubbleSortGraph`],
//!   [`TranspositionNetwork`]);
//! * non-Cayley guest topologies ([`hypercube`], [`mesh`], [`linear_array`],
//!   [`ring`]);
//! * optimal star-graph routing ([`star_route`], [`star_distance`]) and the
//!   Theorem 1/2/3/6/7 generator expansions, compiled once per network into
//!   a [`RoutePlan`] ([`RoutePlan::star_link`], [`RoutePlan::tn_link`]),
//!   that carry star and transposition-network algorithms onto super
//!   Cayley graphs;
//! * exact BFS routing ([`bfs_route`]) and measured property reports
//!   ([`NetworkReport`]).
//!
//! # Examples
//!
//! Route between two nodes of a macro-star network by emulating the optimal
//! star route (Theorem 1 guarantees a slowdown of at most 3):
//!
//! ```
//! use scg_core::{apply_path, scg_route, SuperCayleyGraph};
//! use scg_perm::Perm;
//!
//! # fn main() -> Result<(), scg_core::CoreError> {
//! let ms = SuperCayleyGraph::macro_star(3, 2)?;
//! let from = Perm::from_symbols(&[7, 6, 5, 4, 3, 2, 1])?;
//! let to = Perm::identity(7);
//! let path = scg_route(&ms, &from, &to)?;
//! assert_eq!(apply_path(&from, &path)?, to);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod classes;
mod classic;
mod error;
mod generator;
mod network;
#[cfg(feature = "obs")]
mod obs_hooks;
mod report;
mod routing;
mod topology;

pub use classes::{
    apply_path, BubbleSortGraph, NucleusKind, ScgClass, StarGraph, SuperCayleyGraph, SuperKind,
    TranspositionNetwork,
};
pub use classic::{hypercube, linear_array, mesh, ring};
pub use error::CoreError;
pub use generator::Generator;
pub use network::CayleyNetwork;
pub use report::NetworkReport;
pub use routing::{
    bfs_route, bubble_distance, bubble_sort_sequence, rotator_sort_sequence, route_batch,
    route_faulty, scg_route, scg_route_faulty_with, star_diameter, star_dimension_parts,
    star_distance, star_distance_between, star_route, star_sort_sequence, tn_distance,
    tn_sort_sequence, BatchState, FaultScratch, PackedPair, RouteBuf, RoutePlan, RoutedPath,
    MAX_FAULT_DEGREE, MIN_PAIRS_PER_THREAD,
};
pub use topology::{
    materialize, route_plan, Materialized, ShardedTopology, TopologyCache, DEFAULT_NET_CAP,
    SMALL_NET_CAP,
};
