//! The arena-backed embedding IR: one representation for every guest
//! topology.
//!
//! An [`EmbeddingIr`] maps a *program* graph (the guest) into a *target*
//! graph (the host): each program node gets a target node, and each
//! program edge gets a *hyperpath* — a walk through target nodes — stored
//! as a range into one shared flat arena. The two sides are addressed by
//! typed `u32` handles ([`PNode`]/[`PEdge`] program side, [`TNode`]/
//! [`TEdge`] target side), so an embedding is three flat vectors rather
//! than a `Vec` of per-edge `Vec`s; building, auditing, composing and
//! re-embedding all walk contiguous memory.
//!
//! Construction always validates (arena offsets well-formed, hyperpath
//! endpoints match the node map, consecutive hops target-adjacent), so an
//! `EmbeddingIr` is a *certificate*: the [`EmbedAudit`] metrics it reports
//! are facts about a checked object. The legacy
//! [`Embedding`](crate::Embedding) type is a thin compatibility view over
//! this IR.
//!
//! Fault awareness comes for free from the flat layout:
//! [`EmbeddingIr::reembed`] copies hyperpaths that survive a fault set
//! verbatim and re-routes only the crossing ones through a caller-supplied
//! router (survivor-graph BFS by default, the plan-cache detour search via
//! [`reembed_scg`]).
//!
//! The shape follows the starlight router's program/target embedding
//! arenas (see DESIGN.md §2); the paper mappings are Theorems 1–3/6–7 and
//! Corollaries 4–6.

use std::sync::Arc;

use scg_core::{
    route_faulty, route_plan, CoreError, FaultScratch, Materialized, RoutePlan, SuperCayleyGraph,
};
use scg_graph::{DenseGraph, FaultSet, NodeId, SurvivorView};
use scg_perm::cast::{len_u32, rank_u32};
use scg_perm::{PackedPerm, Perm};

use crate::error::EmbedError;

/// A program-side (guest) node handle: an index into the guest graph's
/// node range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNode(u32);

/// A program-side (guest) edge handle: an index in the guest's CSR edge
/// order — the same order the legacy `edge_path(e)` API uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PEdge(u32);

/// A target-side (host) node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TNode(u32);

/// A target-side (host) edge handle: an index in the host's CSR edge
/// order, usable directly into [`EmbeddingIr::link_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TEdge(u32);

macro_rules! handle_impl {
    ($name:ident) => {
        impl $name {
            /// Wraps a raw index.
            #[must_use]
            pub fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw index, widened for slice addressing.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

handle_impl!(PNode);
handle_impl!(PEdge);
handle_impl!(TNode);
handle_impl!(TEdge);

/// An arena-backed embedding of a program (guest) graph into a target
/// (host) graph.
///
/// Layout: `node_map[p]` is the target node of program node `p`;
/// `path_arena[path_offsets[e] .. path_offsets[e + 1]]` is the hyperpath
/// of program edge `e` (both endpoints included, a single node when the
/// endpoints coincide). `path_offsets` has one entry per program edge plus
/// a terminating length, so hyperpath access is two loads and a slice.
///
/// # Examples
///
/// ```
/// use scg_embed::{hypercube_into_tn, Embedding};
///
/// # fn main() -> Result<(), scg_embed::EmbedError> {
/// let ir = hypercube_into_tn(5, 1_000)?.into_ir();
/// let audit = ir.audit();
/// assert_eq!(audit.dilation, 1);
/// assert_eq!(audit.load, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingIr {
    guest: Arc<DenseGraph>,
    host: Arc<DenseGraph>,
    node_map: Vec<NodeId>,
    path_arena: Vec<NodeId>,
    path_offsets: Vec<u32>,
}

/// The four paper metrics plus the aggregates the bench tables report,
/// computed in one pass over the arena by [`EmbeddingIr::audit`].
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedAudit {
    /// Most program nodes mapped onto a single target node.
    pub load: usize,
    /// `|V_target| / |V_program|`.
    pub expansion: f64,
    /// Longest hyperpath, in target links.
    pub dilation: usize,
    /// Most hyperpaths crossing a single directed target link.
    pub congestion: usize,
    /// Mean hyperpath length, in target links.
    pub mean_path_length: f64,
    /// Total target links traversed across all hyperpaths.
    pub total_hops: usize,
}

impl EmbeddingIr {
    /// Builds and validates an IR from its flat parts.
    ///
    /// `path_offsets` must have `guest.num_edges() + 1` entries, start at
    /// zero, be monotone, and end at `path_arena.len()`; every hyperpath
    /// must be non-empty, start and end on its edge's mapped endpoints,
    /// and walk target adjacencies.
    ///
    /// # Errors
    ///
    /// * [`EmbedError::InvalidMap`] — map or offset table malformed;
    /// * [`EmbedError::InvalidPath`] — a hyperpath is empty, has wrong
    ///   endpoints, or leaves the target's adjacency.
    pub fn from_parts(
        guest: impl Into<Arc<DenseGraph>>,
        host: impl Into<Arc<DenseGraph>>,
        node_map: Vec<NodeId>,
        path_arena: Vec<NodeId>,
        path_offsets: Vec<u32>,
    ) -> Result<Self, EmbedError> {
        let (guest, host) = (guest.into(), host.into());
        if node_map.len() != guest.num_nodes() {
            return Err(EmbedError::InvalidMap {
                reason: "node map length differs from guest order",
            });
        }
        if node_map.iter().any(|&h| h as usize >= host.num_nodes()) {
            return Err(EmbedError::InvalidMap {
                reason: "node map target out of host range",
            });
        }
        if path_offsets.len() != guest.num_edges() + 1 {
            return Err(EmbedError::InvalidMap {
                reason: "one path per guest edge required",
            });
        }
        if path_offsets.first() != Some(&0) {
            return Err(EmbedError::InvalidMap {
                reason: "path offsets must start at zero",
            });
        }
        if path_offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(EmbedError::InvalidMap {
                reason: "path offsets must be strictly increasing (no empty hyperpaths)",
            });
        }
        if path_offsets.last().copied().unwrap_or(0) as usize != path_arena.len() {
            return Err(EmbedError::InvalidMap {
                reason: "path arena length differs from final offset",
            });
        }
        for (e, (u, v)) in guest.edges().enumerate() {
            let seg = &path_arena[path_offsets[e] as usize..path_offsets[e + 1] as usize];
            let ok = seg[0] == node_map[u as usize]
                && seg[seg.len() - 1] == node_map[v as usize]
                && seg
                    .windows(2)
                    .all(|w| host.edge_index(w[0], w[1]).is_some());
            if !ok {
                return Err(EmbedError::InvalidPath { guest_edge: e });
            }
        }
        Ok(EmbeddingIr {
            guest,
            host,
            node_map,
            path_arena,
            path_offsets,
        })
    }

    /// Starts an [`IrBuilder`] for the given program/target pair.
    #[must_use]
    pub fn builder(
        guest: impl Into<Arc<DenseGraph>>,
        host: impl Into<Arc<DenseGraph>>,
    ) -> IrBuilder {
        IrBuilder::new(guest, host)
    }

    /// The program (guest) graph.
    #[must_use]
    pub fn guest(&self) -> &DenseGraph {
        &self.guest
    }

    /// The target (host) graph.
    #[must_use]
    pub fn host(&self) -> &DenseGraph {
        &self.host
    }

    /// The shared program graph handle.
    #[must_use]
    pub fn guest_arc(&self) -> &Arc<DenseGraph> {
        &self.guest
    }

    /// The shared target graph handle.
    #[must_use]
    pub fn host_arc(&self) -> &Arc<DenseGraph> {
        &self.host
    }

    /// Number of program nodes.
    #[must_use]
    pub fn num_program_nodes(&self) -> usize {
        self.node_map.len()
    }

    /// Number of program edges (= number of hyperpaths).
    #[must_use]
    pub fn num_program_edges(&self) -> usize {
        self.path_offsets.len() - 1
    }

    /// The program → target node map, in raw id form.
    #[must_use]
    pub fn node_map(&self) -> &[NodeId] {
        &self.node_map
    }

    /// The target node of program node `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn target(&self, p: PNode) -> TNode {
        TNode(self.node_map[p.index()])
    }

    /// All program edge handles, in guest CSR order.
    pub fn program_edges(&self) -> impl Iterator<Item = PEdge> {
        (0..len_u32(self.num_program_edges())).map(PEdge)
    }

    /// The hyperpath of program edge `e`: the full target-node walk, both
    /// endpoints included.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn hyperpath(&self, e: PEdge) -> &[NodeId] {
        self.hyperpath_at(e.index())
    }

    /// [`EmbeddingIr::hyperpath`] by raw edge index (the legacy
    /// `edge_path(e)` addressing).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn hyperpath_at(&self, e: usize) -> &[NodeId] {
        &self.path_arena[self.path_offsets[e] as usize..self.path_offsets[e + 1] as usize]
    }

    /// The target edge handle of the directed host link `u → v`, if it
    /// exists.
    #[must_use]
    pub fn host_link(&self, u: TNode, v: TNode) -> Option<TEdge> {
        self.host.edge_index(u.0, v.0).map(|e| TEdge(len_u32(e)))
    }

    /// Most program nodes mapped onto a single target node.
    #[must_use]
    pub fn load(&self) -> usize {
        let mut count = vec![0usize; self.host.num_nodes()];
        for &h in &self.node_map {
            count[h as usize] += 1;
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// `|V_target| / |V_program|`.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.host.num_nodes() as f64 / self.guest.num_nodes() as f64
    }

    /// Longest hyperpath, in target links.
    #[must_use]
    pub fn dilation(&self) -> usize {
        self.path_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize - 1)
            .max()
            .unwrap_or(0)
    }

    /// Mean hyperpath length, in target links.
    #[must_use]
    pub fn mean_path_length(&self) -> f64 {
        let edges = self.num_program_edges();
        if edges == 0 {
            return 0.0;
        }
        let total = self.path_arena.len() - edges;
        total as f64 / edges as f64
    }

    /// Most hyperpaths crossing a single directed target link.
    #[must_use]
    pub fn congestion(&self) -> usize {
        self.congestion_filtered(|_| true)
    }

    /// Congestion counting only the program edges accepted by `filter`
    /// (guest CSR edge order) — the paper's per-dimension congestion.
    #[must_use]
    pub fn congestion_filtered(&self, filter: impl Fn(usize) -> bool) -> usize {
        let mut count = vec![0usize; self.host.num_edges()];
        for e in 0..self.num_program_edges() {
            if !filter(e) {
                continue;
            }
            for w in self.hyperpath_at(e).windows(2) {
                let link = self
                    .host
                    .edge_index(w[0], w[1])
                    .expect("validated at construction"); // scg-allow(SCG001): from_parts rejects hyperpaths that are not host walks
                count[link] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// Per-target-link traffic counts, indexed by host CSR edge order
    /// (i.e. by [`TEdge::index`]).
    #[must_use]
    pub fn link_traffic(&self) -> Vec<usize> {
        let mut count = vec![0usize; self.host.num_edges()];
        for e in 0..self.num_program_edges() {
            for w in self.hyperpath_at(e).windows(2) {
                // scg-allow(SCG001): from_parts rejects hyperpaths that are not host walks
                count[self.host.edge_index(w[0], w[1]).expect("validated")] += 1;
            }
        }
        count
    }

    /// The generic auditor: all metrics in one pass over the arena.
    #[must_use]
    pub fn audit(&self) -> EmbedAudit {
        let mut node_count = vec![0usize; self.host.num_nodes()];
        for &h in &self.node_map {
            node_count[h as usize] += 1;
        }
        let mut link_count = vec![0usize; self.host.num_edges()];
        let mut dilation = 0usize;
        let mut total_hops = 0usize;
        for e in 0..self.num_program_edges() {
            let seg = self.hyperpath_at(e);
            dilation = dilation.max(seg.len() - 1);
            total_hops += seg.len() - 1;
            for w in seg.windows(2) {
                let link = self
                    .host
                    .edge_index(w[0], w[1])
                    .expect("validated at construction"); // scg-allow(SCG001): from_parts rejects hyperpaths that are not host walks
                link_count[link] += 1;
            }
        }
        let edges = self.num_program_edges();
        EmbedAudit {
            load: node_count.into_iter().max().unwrap_or(0),
            expansion: self.expansion(),
            dilation,
            congestion: link_count.into_iter().max().unwrap_or(0),
            mean_path_length: if edges == 0 {
                0.0
            } else {
                total_hops as f64 / edges as f64
            },
            total_hops,
        }
    }

    /// Composes two embeddings — program → mid (`self`) and mid → target
    /// (`inner`) — by zero-copy hyperpath splicing: the composed arena is
    /// sized exactly in a first pass, then filled with slice copies from
    /// `inner`'s arena. No per-edge path vectors are allocated.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::Unsupported`] if `inner`'s program graph is
    /// not structurally equal to `self`'s target graph, and propagates
    /// validation failures.
    pub fn compose(&self, inner: &EmbeddingIr) -> Result<EmbeddingIr, EmbedError> {
        if *inner.guest != *self.host {
            return Err(EmbedError::Unsupported {
                reason: "composition requires inner.guest == outer.host".into(),
            });
        }
        let edges = self.num_program_edges();
        // Pass 1: the exact composed arena length. Each mid hop of length
        // n splices in an inner hyperpath of n+1 nodes sharing one
        // junction node with its predecessor.
        let mut total = 0usize;
        for e in 0..edges {
            let seg = self.hyperpath_at(e);
            total += 1;
            for w in seg.windows(2) {
                let mid = self
                    .host
                    .edge_index(w[0], w[1])
                    .expect("validated at construction"); // scg-allow(SCG001): from_parts rejects hyperpaths that are not host walks
                total += inner.hyperpath_at(mid).len() - 1;
            }
        }
        // Pass 2: fill. Exactly three vectors are allocated (map, arena,
        // offsets), none of them per edge — see tests/alloc_free_compose.rs.
        let node_map: Vec<NodeId> = self
            .node_map
            .iter()
            .map(|&m| inner.node_map[m as usize])
            .collect();
        let mut arena: Vec<NodeId> = Vec::with_capacity(total);
        let mut offsets: Vec<u32> = Vec::with_capacity(edges + 1);
        offsets.push(0);
        for e in 0..edges {
            let seg = self.hyperpath_at(e);
            arena.push(inner.node_map[seg[0] as usize]);
            for w in seg.windows(2) {
                let mid = self
                    .host
                    .edge_index(w[0], w[1])
                    .expect("validated at construction"); // scg-allow(SCG001): from_parts rejects hyperpaths that are not host walks
                let spliced = inner.hyperpath_at(mid);
                arena.extend_from_slice(&spliced[1..]);
            }
            offsets.push(len_u32(arena.len()));
        }
        EmbeddingIr::from_parts(
            self.guest.clone(),
            inner.host.clone(),
            node_map,
            arena,
            offsets,
        )
    }

    /// Fault-aware re-embedding: keeps the node map, copies hyperpaths
    /// untouched by `view`'s fault set verbatim, and re-routes only the
    /// crossing ones along shortest survivor paths.
    ///
    /// # Errors
    ///
    /// * [`EmbedError::Unsupported`] — `view` is not over this target
    ///   graph;
    /// * [`EmbedError::MappedNodeFailed`] — a fault hit a node carrying a
    ///   program node (re-embedding cannot move the map);
    /// * [`EmbedError::ReembedDisconnected`] — the survivors no longer
    ///   connect some hyperpath's endpoints.
    pub fn reembed(&self, view: &SurvivorView<'_>) -> Result<EmbeddingIr, EmbedError> {
        self.reembed_with(view, |src, dst| view.shortest_path(src, dst))
    }

    /// [`EmbeddingIr::reembed`] with a caller-supplied router for the
    /// crossing hyperpaths. `reroute(src, dst)` must return a full node
    /// path (endpoints inclusive) avoiding `view`'s faults, or `None` when
    /// it cannot; the returned path is re-validated (liveness, endpoints,
    /// adjacency via [`EmbeddingIr::from_parts`]) so a buggy router cannot
    /// forge a certificate.
    ///
    /// # Errors
    ///
    /// As [`EmbeddingIr::reembed`]; additionally
    /// [`EmbedError::InvalidPath`] if `reroute` returns a dead or
    /// wrong-endpoint path.
    pub fn reembed_with(
        &self,
        view: &SurvivorView<'_>,
        mut reroute: impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
    ) -> Result<EmbeddingIr, EmbedError> {
        if *view.graph() != *self.host {
            return Err(EmbedError::Unsupported {
                reason: "survivor view is not over this embedding's host".into(),
            });
        }
        for (p, &t) in self.node_map.iter().enumerate() {
            if !view.is_alive(t) {
                return Err(EmbedError::MappedNodeFailed {
                    program_node: p,
                    host_node: t,
                });
            }
        }
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::reembed_timer();
        let mut arena: Vec<NodeId> = Vec::with_capacity(self.path_arena.len());
        let mut offsets: Vec<u32> = Vec::with_capacity(self.path_offsets.len());
        offsets.push(0);
        let mut rerouted = 0usize;
        for e in 0..self.num_program_edges() {
            let seg = self.hyperpath_at(e);
            if view.path_is_live(seg) {
                arena.extend_from_slice(seg);
            } else {
                let (src, dst) = (seg[0], seg[seg.len() - 1]);
                let fresh =
                    reroute(src, dst).ok_or(EmbedError::ReembedDisconnected { guest_edge: e })?;
                if !view.path_is_live(&fresh)
                    || fresh.first() != Some(&src)
                    || fresh.last() != Some(&dst)
                {
                    return Err(EmbedError::InvalidPath { guest_edge: e });
                }
                rerouted += 1;
                arena.extend_from_slice(&fresh);
            }
            offsets.push(len_u32(arena.len()));
        }
        #[cfg(feature = "obs")]
        crate::obs_hooks::reembed_done(rerouted as u64);
        #[cfg(not(feature = "obs"))]
        let _ = rerouted; // scg-allow(SCG005): feature-gated use; discards a counter, not a Result
        EmbeddingIr::from_parts(
            self.guest.clone(),
            self.host.clone(),
            self.node_map.clone(),
            arena,
            offsets,
        )
    }

    /// Multi-fault re-embedding with load rebalancing: where
    /// [`EmbeddingIr::reembed`] refuses to continue when a fault hits a
    /// *mapped* host node, this variant **remaps** each orphaned program
    /// node onto a live host — the nearest one (host-graph BFS distance
    /// from the dead host), preferring lightly-loaded hosts, ties broken
    /// by lowest id — and then re-routes every hyperpath whose endpoints
    /// moved or whose walk crosses a fault. Surviving hyperpaths are still
    /// copied verbatim, so an undisturbed region of the embedding is
    /// byte-identical before and after.
    ///
    /// Remap candidates are drawn from the BFS ball around the dead host
    /// in the *full* host graph (physical proximity survives the fault);
    /// liveness and routing use the survivor view only.
    ///
    /// # Errors
    ///
    /// * [`EmbedError::Unsupported`] — `view` is not over this target
    ///   graph;
    /// * [`EmbedError::NoLiveHost`] — every host node is dead;
    /// * [`EmbedError::ReembedDisconnected`] /
    ///   [`EmbedError::InvalidPath`] — as [`EmbeddingIr::reembed_with`].
    pub fn reembed_rebalanced(
        &self,
        view: &SurvivorView<'_>,
        mut reroute: impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
    ) -> Result<ReembedReport, EmbedError> {
        if *view.graph() != *self.host {
            return Err(EmbedError::Unsupported {
                reason: "survivor view is not over this embedding's host".into(),
            });
        }
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::reembed_timer();
        // Current per-host load, maintained across remaps so simultaneous
        // orphans spread out instead of piling onto one survivor.
        let mut load = vec![0u32; self.host.num_nodes()];
        for &h in &self.node_map {
            load[h as usize] += 1;
        }
        let mut node_map = self.node_map.clone();
        let mut remapped = 0usize;
        for (p, host_slot) in node_map.iter_mut().enumerate() {
            let dead = *host_slot;
            if view.is_alive(dead) {
                continue;
            }
            load[dead as usize] -= 1;
            let dist = self.host.bfs_distances(dead);
            let new_host = (0..self.host.num_nodes() as NodeId)
                .filter(|&h| view.is_alive(h))
                .min_by_key(|&h| (dist[h as usize], load[h as usize], h))
                .ok_or(EmbedError::NoLiveHost { program_node: p })?;
            load[new_host as usize] += 1;
            *host_slot = new_host;
            remapped += 1;
        }
        // Re-route every hyperpath that moved or crosses a fault; copy the
        // rest verbatim.
        let mut arena: Vec<NodeId> = Vec::with_capacity(self.path_arena.len());
        let mut offsets: Vec<u32> = Vec::with_capacity(self.path_offsets.len());
        offsets.push(0);
        let mut rerouted = 0usize;
        for (e, (gu, gv)) in self.guest.edges().enumerate() {
            let seg = self.hyperpath_at(e);
            let (src, dst) = (node_map[gu as usize], node_map[gv as usize]);
            if seg[0] == src && seg[seg.len() - 1] == dst && view.path_is_live(seg) {
                arena.extend_from_slice(seg);
            } else if src == dst {
                // Both endpoints collapsed onto one host: a single-node
                // hyperpath, no routing needed.
                rerouted += 1;
                arena.push(src);
            } else {
                let fresh =
                    reroute(src, dst).ok_or(EmbedError::ReembedDisconnected { guest_edge: e })?;
                if !view.path_is_live(&fresh)
                    || fresh.first() != Some(&src)
                    || fresh.last() != Some(&dst)
                {
                    return Err(EmbedError::InvalidPath { guest_edge: e });
                }
                rerouted += 1;
                arena.extend_from_slice(&fresh);
            }
            offsets.push(len_u32(arena.len()));
        }
        #[cfg(feature = "obs")]
        crate::obs_hooks::rebalance_done(remapped as u64, rerouted as u64);
        let ir = EmbeddingIr::from_parts(
            self.guest.clone(),
            self.host.clone(),
            node_map,
            arena,
            offsets,
        )?;
        Ok(ReembedReport {
            ir,
            remapped,
            rerouted,
        })
    }
}

/// Result of a rebalancing re-embedding
/// ([`EmbeddingIr::reembed_rebalanced`]): the new certificate plus how
/// much of the old embedding had to move.
#[derive(Debug, Clone)]
pub struct ReembedReport {
    /// The re-validated embedding.
    pub ir: EmbeddingIr,
    /// Program nodes moved to a new live host.
    pub remapped: usize,
    /// Hyperpaths re-routed (the rest were copied verbatim).
    pub rerouted: usize,
}

/// Routes `src → dst` (node ids, i.e. label ranks) around `faults` with
/// [`route_faulty`] and replays the generator hops on the packed labels,
/// returning the node-id walk inclusive of both endpoints. A self-route
/// yields the single-node path `[src]`.
fn route_faulty_ids(
    plan: &RoutePlan,
    faults: &FaultSet,
    src: NodeId,
    dst: NodeId,
    scratch: &mut FaultScratch,
) -> Result<Vec<NodeId>, CoreError> {
    let k = plan.degree_k();
    let from = Perm::from_rank(k, u64::from(src))?;
    let to = Perm::from_rank(k, u64::from(dst))?;
    let routed = route_faulty(plan, faults, &from, &to, scratch)?;
    let mut path = Vec::with_capacity(routed.len() + 1);
    path.push(src);
    let mut cur = PackedPerm::pack(&from)?;
    for g in routed.hops {
        cur = g.apply_packed(cur, k);
        path.push(rank_u32(cur.rank(k)?));
    }
    Ok(path)
}

/// Fault-aware re-embedding over a super Cayley host using the compiled
/// plan cache: crossing hyperpaths are re-routed by
/// [`route_faulty`] (emulation route → masked-generator detour →
/// survivor BFS), so re-embedding shares the detour machinery and metric
/// hooks of fault-tolerant routing.
///
/// # Errors
///
/// * [`EmbedError::Unsupported`] — `mat` does not materialize this
///   embedding's host graph;
/// * otherwise as [`EmbeddingIr::reembed`].
pub fn reembed_scg(
    ir: &EmbeddingIr,
    net: &SuperCayleyGraph,
    mat: &Materialized,
    faults: &FaultSet,
) -> Result<EmbeddingIr, EmbedError> {
    if **mat.graph() != *ir.host() {
        return Err(EmbedError::Unsupported {
            reason: "materialized network does not match the embedding host".into(),
        });
    }
    let plan = route_plan(net)?;
    let view = SurvivorView::new(mat.graph(), faults);
    let mut scratch = FaultScratch::new();
    ir.reembed_with(&view, |src, dst| {
        route_faulty_ids(&plan, faults, src, dst, &mut scratch).ok()
    })
}

/// Rebalancing re-embedding over a super Cayley host: like
/// [`reembed_scg`], but faults on *mapped* host nodes are healed by
/// remapping the orphaned program nodes onto nearby live hosts
/// ([`EmbeddingIr::reembed_rebalanced`]), with crossing hyperpaths
/// re-routed through the same fault-tolerant plan-cache router.
///
/// # Errors
///
/// * [`EmbedError::Unsupported`] — `mat` does not materialize this
///   embedding's host graph;
/// * otherwise as [`EmbeddingIr::reembed_rebalanced`].
pub fn reembed_scg_rebalanced(
    ir: &EmbeddingIr,
    net: &SuperCayleyGraph,
    mat: &Materialized,
    faults: &FaultSet,
) -> Result<ReembedReport, EmbedError> {
    if **mat.graph() != *ir.host() {
        return Err(EmbedError::Unsupported {
            reason: "materialized network does not match the embedding host".into(),
        });
    }
    let plan = route_plan(net)?;
    let view = SurvivorView::new(mat.graph(), faults);
    let mut scratch = FaultScratch::new();
    ir.reembed_rebalanced(&view, |src, dst| {
        route_faulty_ids(&plan, faults, src, dst, &mut scratch).ok()
    })
}

/// Incremental builder for an [`EmbeddingIr`]: set the node map, then
/// record each program edge's hyperpath hop by hop straight into the
/// shared arena — no per-edge vectors.
///
/// Hyperpaths must be recorded in guest CSR edge order (the order
/// `DenseGraph::edges` yields); [`IrBuilder::finish`] validates the whole
/// record.
#[derive(Debug, Clone)]
pub struct IrBuilder {
    guest: Arc<DenseGraph>,
    host: Arc<DenseGraph>,
    node_map: Vec<NodeId>,
    path_arena: Vec<NodeId>,
    path_offsets: Vec<u32>,
}

impl IrBuilder {
    /// Starts a builder for the given program/target pair.
    #[must_use]
    pub fn new(guest: impl Into<Arc<DenseGraph>>, host: impl Into<Arc<DenseGraph>>) -> Self {
        let guest = guest.into();
        let edges = guest.num_edges();
        let mut path_offsets = Vec::with_capacity(edges + 1);
        path_offsets.push(0);
        IrBuilder {
            guest,
            host: host.into(),
            node_map: Vec::new(),
            path_arena: Vec::with_capacity(2 * edges),
            path_offsets,
        }
    }

    /// Sets the full program → target node map.
    #[must_use]
    pub fn node_map(mut self, map: Vec<NodeId>) -> Self {
        self.node_map = map;
        self
    }

    /// Opens the next program edge's hyperpath at `start`.
    pub fn begin_path(&mut self, start: NodeId) {
        self.path_arena.push(start);
    }

    /// Appends one hop to the open hyperpath.
    pub fn push_hop(&mut self, next: NodeId) {
        self.path_arena.push(next);
    }

    /// Closes the open hyperpath.
    pub fn end_path(&mut self) {
        self.path_offsets.push(len_u32(self.path_arena.len()));
    }

    /// Records a complete hyperpath in one call.
    pub fn push_path(&mut self, path: &[NodeId]) {
        self.path_arena.extend_from_slice(path);
        self.path_offsets.push(len_u32(self.path_arena.len()));
    }

    /// Validates and returns the finished IR.
    ///
    /// # Errors
    ///
    /// As [`EmbeddingIr::from_parts`].
    pub fn finish(self) -> Result<EmbeddingIr, EmbedError> {
        EmbeddingIr::from_parts(
            self.guest,
            self.host,
            self.node_map,
            self.path_arena,
            self.path_offsets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scg_core::{linear_array, materialize, ring, SMALL_NET_CAP};
    use scg_perm::{Perm, XorShift64};

    fn ring_identity_ir() -> EmbeddingIr {
        let g = ring(5);
        let mut b = IrBuilder::new(g.clone(), g).node_map((0..5).collect());
        let pairs: Vec<(NodeId, NodeId)> = ring(5).edges().collect();
        for (u, v) in pairs {
            b.begin_path(u);
            b.push_hop(v);
            b.end_path();
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_roundtrip_and_handles() {
        let ir = ring_identity_ir();
        assert_eq!(ir.num_program_nodes(), 5);
        assert_eq!(ir.num_program_edges(), 10);
        assert_eq!(ir.target(PNode::new(3)), TNode::new(3));
        let e = PEdge::new(0);
        assert_eq!(ir.hyperpath(e).len(), 2);
        let (u, v) = (ir.hyperpath(e)[0], ir.hyperpath(e)[1]);
        let link = ir.host_link(TNode::new(u), TNode::new(v)).unwrap();
        assert_eq!(ir.link_traffic()[link.index()], 1);
    }

    #[test]
    fn audit_matches_individual_metrics() {
        let ir = ring_identity_ir();
        let a = ir.audit();
        assert_eq!(a.load, ir.load());
        assert_eq!(a.dilation, ir.dilation());
        assert_eq!(a.congestion, ir.congestion());
        assert!((a.expansion - ir.expansion()).abs() < 1e-12);
        assert!((a.mean_path_length - ir.mean_path_length()).abs() < 1e-12);
        assert_eq!(a.total_hops, 10);
    }

    #[test]
    fn malformed_offsets_rejected() {
        let g = linear_array(2);
        // Offsets not starting at zero.
        let bad = EmbeddingIr::from_parts(
            g.clone(),
            g.clone(),
            vec![0, 1],
            vec![0, 1, 1, 0],
            vec![1, 2, 4],
        );
        assert!(matches!(bad, Err(EmbedError::InvalidMap { .. })));
        // Empty hyperpath (equal consecutive offsets).
        let bad2 =
            EmbeddingIr::from_parts(g.clone(), g.clone(), vec![0, 1], vec![0, 1], vec![0, 2, 2]);
        assert!(matches!(bad2, Err(EmbedError::InvalidMap { .. })));
        // Arena length disagrees with the final offset.
        let bad3 = EmbeddingIr::from_parts(
            g.clone(),
            g.clone(),
            vec![0, 1],
            vec![0, 1, 1, 0, 0],
            vec![0, 2, 4],
        );
        assert!(matches!(bad3, Err(EmbedError::InvalidMap { .. })));
        // Well-formed offsets, wrong endpoint.
        let bad4 =
            EmbeddingIr::from_parts(g.clone(), g, vec![0, 1], vec![0, 1, 0, 1], vec![0, 2, 4]);
        assert!(matches!(
            bad4,
            Err(EmbedError::InvalidPath { guest_edge: 1 })
        ));
    }

    #[test]
    fn fault_route_ids_walk_live_host_links() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut rng = XorShift64::new(41);
        let faults = FaultSet::random_nodes(mat.num_nodes(), 2, &[], &mut rng);
        let mut scratch = FaultScratch::new();
        for _ in 0..10 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let (src, dst) = (mat.node_id(&from).unwrap(), mat.node_id(&to).unwrap());
            if faults.node_failed(src) || faults.node_failed(dst) {
                continue;
            }
            let path = route_faulty_ids(&plan, &faults, src, dst, &mut scratch).unwrap();
            assert_eq!(path[0], src);
            assert_eq!(*path.last().unwrap(), dst);
            // Every hop is a live materialized link.
            for w in path.windows(2) {
                assert!(!faults.blocks(w[0], w[1]));
                assert!(
                    (0..mat.node_degree()).any(|g| mat.neighbor_id(w[0], g) == w[1]),
                    "hop is not a host link"
                );
            }
        }
    }

    #[test]
    fn fault_route_ids_self_route_is_the_single_node_path() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let uid = mat.node_id(&Perm::identity(5)).unwrap();
        assert_eq!(
            route_faulty_ids(&plan, &FaultSet::new(), uid, uid, &mut FaultScratch::new()).unwrap(),
            vec![uid]
        );
    }

    #[test]
    fn reembed_copies_live_paths_verbatim() {
        let g = ring(6);
        let ir = {
            let mut b = IrBuilder::new(g.clone(), g.clone()).node_map((0..6).collect());
            let pairs: Vec<(NodeId, NodeId)> = g.edges().collect();
            for (u, v) in pairs {
                b.push_path(&[u, v]);
            }
            b.finish().unwrap()
        };
        let faults = FaultSet::new();
        let view = SurvivorView::new(ir.host(), &faults);
        let re = ir.reembed(&view).unwrap();
        assert_eq!(re.audit(), ir.audit());
    }

    #[test]
    fn reembed_rejects_faulted_mapped_node() {
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_node(2);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        assert!(matches!(
            ir.reembed(&view),
            Err(EmbedError::MappedNodeFailed {
                program_node: 2,
                host_node: 2
            })
        ));
    }

    #[test]
    fn reembed_reroutes_cut_links() {
        // Identity ring embedding; cut one directed link and reembed: the
        // crossing hyperpath must be re-routed the long way round.
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_link(0, 1);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        let re = ir.reembed(&view).unwrap();
        assert_eq!(re.node_map(), ir.node_map());
        // The 0 → 1 hyperpath now takes the 4-hop reverse walk.
        let cut = ring(5).edges().position(|(u, v)| u == 0 && v == 1).unwrap();
        assert_eq!(re.hyperpath_at(cut), &[0, 4, 3, 2, 1]);
        assert_eq!(re.audit().dilation, 4);
        // All other hyperpaths are untouched.
        for e in 0..ir.num_program_edges() {
            if e != cut {
                assert_eq!(re.hyperpath_at(e), ir.hyperpath_at(e));
            }
        }
    }

    #[test]
    fn rebalanced_reembed_remaps_dead_hosts() {
        // Identity ring embedding; kill mapped host 2. Plain reembed
        // refuses; the rebalancing variant moves guest node 2 to a live
        // neighbor and re-routes its incident hyperpaths.
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_node(2);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        assert!(matches!(
            ir.reembed(&view),
            Err(EmbedError::MappedNodeFailed { .. })
        ));
        let r = ir
            .reembed_rebalanced(&view, |s, d| view.shortest_path(s, d))
            .unwrap();
        assert_eq!(r.remapped, 1);
        assert!(r.rerouted >= 2, "both incident edges move");
        let new_host = r.ir.node_map()[2];
        assert_ne!(new_host, 2);
        assert!(view.is_alive(new_host));
        // Nearest live host to 2 on the 5-ring is a direct neighbor.
        assert!(new_host == 1 || new_host == 3);
        // Every hyperpath is live and untouched ones are verbatim.
        for e in 0..r.ir.num_program_edges() {
            assert!(view.path_is_live(r.ir.hyperpath_at(e)));
        }
    }

    #[test]
    fn rebalanced_reembed_spreads_load() {
        // Ring of 6, identity embedding; kill hosts 2 and 3 at once. The
        // two orphans must land on different live hosts (load balancing),
        // not both on the same survivor.
        let g = ring(6);
        let ir = {
            let mut b = IrBuilder::new(g.clone(), g.clone()).node_map((0..6).collect());
            let pairs: Vec<(NodeId, NodeId)> = g.edges().collect();
            for (u, v) in pairs {
                b.push_path(&[u, v]);
            }
            b.finish().unwrap()
        };
        let mut faults = FaultSet::new();
        faults.fail_node(2);
        faults.fail_node(3);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        let r = ir
            .reembed_rebalanced(&view, |s, d| view.shortest_path(s, d))
            .unwrap();
        assert_eq!(r.remapped, 2);
        let (h2, h3) = (r.ir.node_map()[2], r.ir.node_map()[3]);
        assert!(view.is_alive(h2) && view.is_alive(h3));
        assert_ne!(h2, h3, "orphans spread over distinct survivors");
        assert!(r.ir.load() <= 2);
        for e in 0..r.ir.num_program_edges() {
            assert!(view.path_is_live(r.ir.hyperpath_at(e)));
        }
    }

    #[test]
    fn rebalanced_reembed_with_no_mapped_faults_matches_reembed() {
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_link(0, 1);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        let plain = ir.reembed(&view).unwrap();
        let r = ir
            .reembed_rebalanced(&view, |s, d| view.shortest_path(s, d))
            .unwrap();
        assert_eq!(r.remapped, 0);
        assert_eq!(r.rerouted, 1);
        assert_eq!(r.ir.node_map(), plain.node_map());
        for e in 0..plain.num_program_edges() {
            assert_eq!(r.ir.hyperpath_at(e), plain.hyperpath_at(e));
        }
    }

    #[test]
    fn rebalanced_reembed_reports_no_live_host() {
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        for u in 0..5 {
            faults.fail_node(u);
        }
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        let r = ir.reembed_rebalanced(&view, |s, d| view.shortest_path(s, d));
        assert!(matches!(r, Err(EmbedError::NoLiveHost { program_node: 0 })));
    }

    #[test]
    fn reembed_with_rejects_forged_paths() {
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_link(0, 1);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        // A router that returns the (dead) original path verbatim.
        let forged = ir.reembed_with(&view, |src, dst| Some(vec![src, dst]));
        assert!(matches!(forged, Err(EmbedError::InvalidPath { .. })));
    }

    #[test]
    fn reembed_disconnected_reports_edge() {
        let ir = ring_identity_ir();
        let mut faults = FaultSet::new();
        faults.fail_link(0, 1);
        let host = ir.host_arc().clone();
        let view = SurvivorView::new(&host, &faults);
        let r = ir.reembed_with(&view, |_, _| None);
        assert!(matches!(
            r,
            Err(EmbedError::ReembedDisconnected { guest_edge: _ })
        ));
    }
}
