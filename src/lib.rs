//! **supercayley** — a reproduction of *Routing and Embeddings in Super
//! Cayley Graphs* (Chi-Hsiang Yeh, Emmanouel A. Varvarigos, Hua Lee;
//! PaCT 1999, LNCS 1662, pp. 151–166) as a Rust library suite.
//!
//! Super Cayley graphs are communication-efficient interconnection networks
//! derived from the *ball-arrangement game*: `l` boxes of `n` balls plus
//! one outside ball, rearranged by *nucleus* moves (the leftmost box + the
//! outside ball) and *super* moves (whole boxes). The game's
//! state-transition graph is a Cayley graph over `S_{nl+1}`, and different
//! move sets yield the ten network classes of the paper: macro-star,
//! rotation-star, complete-rotation-star, macro-rotator, rotation-rotator,
//! complete-rotation-rotator, insertion-selection, macro-IS, rotation-IS
//! and complete-rotation-IS networks.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`perm`] | `scg-perm` | permutations, ranking, enumeration |
//! | [`graph`] | `scg-graph` | CSR graphs, BFS metrics, Moore bounds, subgraph search |
//! | [`bag`] | `scg-bag` | the ball-arrangement game itself |
//! | [`core`] | `scg-core` | generator algebra, the ten classes, routing (Thms 1–3, 6–7 expansions) |
//! | [`embed`] | `scg-embed` | validated embeddings: stars, TNs, trees, hypercubes, meshes (§5) |
//! | [`emu`] | `scg-emu` | SDC/all-port emulation, Figure 1 schedules (Thms 4–5), simulator |
//! | [`comm`] | `scg-comm` | multinode broadcast and total exchange (Corollaries 2–3) |
//! | [`obs`] | `scg-obs` | zero-dependency metrics registry, snapshots, event tracing |
//! | [`serve`] | `scg-serve` | epoll routing daemon: binary wire protocol, sharded caches, SLOs |
//!
//! # Quickstart
//!
//! ```
//! use supercayley::core::{apply_path, route_plan, CayleyNetwork, SuperCayleyGraph};
//! use supercayley::perm::Perm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a macro-star network MS(3,2): 3 boxes of 2 balls, 7! nodes.
//! let ms = SuperCayleyGraph::macro_star(3, 2)?;
//! assert_eq!(ms.num_nodes(), 5040);
//!
//! // Route between two nodes by emulating the optimal star-graph route
//! // through the network's compiled plan, the one source of fault-free
//! // routes; Theorem 1 bounds the cost at 3x the star distance.
//! let from: Perm = "7 6 5 4 3 2 1".parse()?;
//! let to = Perm::identity(7);
//! let path = route_plan(&ms)?.route(&from, &to)?;
//! assert_eq!(apply_path(&from, &path)?, to);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

/// Permutation substrate (`scg-perm`).
pub mod perm {
    pub use scg_perm::*;
}

/// Graph substrate (`scg-graph`).
pub mod graph {
    pub use scg_graph::*;
}

/// The ball-arrangement game (`scg-bag`).
pub mod bag {
    pub use scg_bag::*;
}

/// Networks, generators, and routing (`scg-core`).
pub mod core {
    pub use scg_core::*;
}

/// Embeddings (`scg-embed`).
pub mod embed {
    pub use scg_embed::*;
}

/// Emulation and simulation (`scg-emu`).
pub mod emu {
    pub use scg_emu::*;
}

/// Communication tasks (`scg-comm`).
pub mod comm {
    pub use scg_comm::*;
}

/// Metrics and event tracing (`scg-obs`).
///
/// Always available as a library; the workspace's *instrumentation hooks*
/// (cache, routing, simulator, and fault-audit metrics feeding
/// [`obs::Registry::global`]) are additionally compiled in when the
/// `obs` cargo feature is enabled.
pub mod obs {
    pub use scg_obs::*;
}

/// The routing daemon (`scg-serve`): a zero-dependency epoll event loop
/// serving routes over a length-prefixed binary protocol on Unix-domain
/// and TCP sockets, with per-shard topology caches, live fault
/// ingestion, and latency SLOs (the `scg-serve` binary starts one).
pub mod serve {
    pub use scg_serve::*;
}
