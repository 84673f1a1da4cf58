//! Fail-stop fault model: failed nodes and directed links, survivor views,
//! and exact connectivity audits.
//!
//! The paper's networks inherit the star/rotator property that (vertex)
//! connectivity equals node degree, so they tolerate up to `degree − 1`
//! arbitrary fail-stop failures without disconnecting the survivors. This
//! module supplies the machinery to check that computationally:
//!
//! * [`FaultSet`] — a set of failed nodes and failed directed links, with a
//!   seeded random sampler ([`FaultSet::random_nodes`],
//!   [`FaultSet::random_links`]);
//! * [`SurvivorView`] — a zero-copy view of a [`DenseGraph`] that filters
//!   failed nodes and links out of every neighbor scan;
//! * [`SurvivorView::vertex_connectivity`] /
//!   [`SurvivorView::edge_connectivity`] — exact Menger-style audits via
//!   unit-capacity max-flow with BFS augmenting paths;
//! * [`SurvivorView::component_census`] — how the survivor graph shatters
//!   once the fault budget is exceeded.
//!
//! The model is fail-stop, but no longer static: faults can be *repaired*
//! ([`FaultSet::repair_node`], [`FaultSet::repair_link`]) and merged
//! ([`FaultSet::merge`]), and every mutation bumps a monotonically
//! increasing [`FaultSet::epoch`] so routing-table consumers can detect
//! staleness without diffing sets. Timed fault/repair sequences (flapping
//! links, correlated region faults) live in the [`chaos`](crate::chaos)
//! module.
//!
//! # Examples
//!
//! ```
//! use scg_graph::{FaultSet, SurvivorView, DenseGraph};
//!
//! // An undirected 6-ring has connectivity 2 ...
//! let ring = DenseGraph::from_neighbor_fn(6, |u| vec![(u + 1) % 6, (u + 5) % 6]);
//! assert_eq!(scg_graph::vertex_connectivity(&ring), 2);
//!
//! // ... so one failed node leaves the survivors connected ...
//! let mut faults = FaultSet::new();
//! faults.fail_node(3);
//! assert!(SurvivorView::new(&ring, &faults).is_strongly_connected());
//!
//! // ... and two failures can shatter it.
//! faults.fail_node(0);
//! let census = SurvivorView::new(&ring, &faults).component_census();
//! assert_eq!(census.sizes, vec![2, 2]);
//! ```

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use scg_perm::cast::len_u32;
use scg_perm::XorShift64;

use crate::{DenseGraph, Dist, NodeId, UNREACHABLE};

/// A set of fail-stop faults: failed nodes and failed directed links.
///
/// A failed node blocks every link into and out of it; a failed link `(u,
/// v)` blocks only that direction (fail the antiparallel link too, or use
/// [`FaultSet::fail_link_undirected`], to model an undirected cable cut).
///
/// Every mutation that changes the set bumps [`FaultSet::epoch`], a
/// monotone counter that lets derived state (next-hop tables, plan-cache
/// entries) detect that it was built against an older version of *this*
/// fault set, and draws a fresh process-wide [`FaultSet::stamp`], which
/// identifies the contents across *all* sets. Equality compares the
/// faults only, never the epoch or the stamp.
#[derive(Debug, Clone, Default)]
pub struct FaultSet {
    nodes: HashSet<NodeId>,
    links: HashSet<(NodeId, NodeId)>,
    epoch: u64,
    stamp: u64,
}

impl PartialEq for FaultSet {
    fn eq(&self, other: &Self) -> bool {
        // Epoch and stamp are staleness cursors, not part of the value: two
        // sets holding the same faults are equal however they got there.
        self.nodes == other.nodes && self.links == other.links
    }
}

/// The last stamp handed out; stamp 0 is left to new sets nothing has
/// changed, all of which are empty.
static LAST_STAMP: AtomicU64 = AtomicU64::new(0);

/// A stamp no set has carried before.
fn fresh_stamp() -> u64 {
    // ord: Relaxed — the counter only has to hand out distinct values; it
    // publishes no other data.
    LAST_STAMP.fetch_add(1, Ordering::Relaxed) + 1
}

impl Eq for FaultSet {}

impl FaultSet {
    /// An empty fault set at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// The mutation epoch: starts at 0 and increments on every call that
    /// actually changes the set (fail, repair, merge, clear). Consumers
    /// that bake this set into derived state (e.g. a survivor next-hop
    /// table) can remember the epoch they built against and compare.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The content stamp: 0 for a new set nothing has changed, otherwise
    /// a value drawn from one process-wide counter by the last call that
    /// changed (or sampled) the set. A clone keeps its stamp (its contents are equal at
    /// that moment), so equal stamps imply equal contents, across every
    /// `FaultSet` in the process. Derived state keyed by the stamp — such
    /// as a fault router's prefilter — can never be stale.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Records that a mutation did (or did not) change the set: bumps the
    /// epoch and draws a fresh stamp. Returns `changed`.
    fn touched(&mut self, changed: bool) -> bool {
        if changed {
            self.epoch += 1;
            self.stamp = fresh_stamp();
        }
        changed
    }

    /// Marks node `u` failed. Returns whether it was previously alive.
    pub fn fail_node(&mut self, u: NodeId) -> bool {
        let changed = self.nodes.insert(u);
        self.touched(changed)
    }

    /// Repairs node `u`. Returns whether it was failed.
    pub fn repair_node(&mut self, u: NodeId) -> bool {
        let changed = self.nodes.remove(&u);
        self.touched(changed)
    }

    /// Marks the directed link `u → v` failed. Returns whether it was
    /// previously alive.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) -> bool {
        let changed = self.links.insert((u, v));
        self.touched(changed)
    }

    /// Repairs the directed link `u → v`. Returns whether it was failed.
    pub fn repair_link(&mut self, u: NodeId, v: NodeId) -> bool {
        let changed = self.links.remove(&(u, v));
        self.touched(changed)
    }

    /// Marks both `u → v` and `v → u` failed (an undirected cable cut).
    pub fn fail_link_undirected(&mut self, u: NodeId, v: NodeId) {
        let changed = self.links.insert((u, v)) | self.links.insert((v, u));
        self.touched(changed);
    }

    /// Repairs both `u → v` and `v → u` (undoes an undirected cable cut).
    pub fn repair_link_undirected(&mut self, u: NodeId, v: NodeId) {
        let changed = self.links.remove(&(u, v)) | self.links.remove(&(v, u));
        self.touched(changed);
    }

    /// Unions `other`'s faults into this set. Returns whether anything new
    /// was added (the epoch bumps once if so).
    pub fn merge(&mut self, other: &FaultSet) -> bool {
        let (n0, l0) = (self.nodes.len(), self.links.len());
        self.nodes.extend(other.nodes.iter().copied());
        self.links.extend(other.links.iter().copied());
        let changed = self.nodes.len() != n0 || self.links.len() != l0;
        self.touched(changed)
    }

    /// Whether node `u` is failed.
    #[must_use]
    pub fn node_failed(&self, u: NodeId) -> bool {
        self.nodes.contains(&u)
    }

    /// Whether the directed link `u → v` itself is failed (endpoint health
    /// not considered; most callers want [`FaultSet::blocks`]).
    #[must_use]
    pub fn link_failed(&self, u: NodeId, v: NodeId) -> bool {
        self.links.contains(&(u, v))
    }

    /// Whether a hop `u → v` is unusable: the link is failed or either
    /// endpoint is a failed node.
    #[must_use]
    pub fn blocks(&self, u: NodeId, v: NodeId) -> bool {
        self.node_failed(u) || self.node_failed(v) || self.link_failed(u, v)
    }

    /// Number of failed nodes.
    #[must_use]
    pub fn num_failed_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of explicitly failed directed links (links blocked only
    /// because an endpoint died are not counted).
    #[must_use]
    pub fn num_failed_links(&self) -> usize {
        self.links.len()
    }

    /// Whether no fault has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// The failed nodes, sorted ascending.
    #[must_use]
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// The failed links, sorted ascending, with antiparallel pairs
    /// collapsed: a cut recorded by [`FaultSet::fail_link_undirected`]
    /// (both directions failed) is reported once as `(min, max)`, matching
    /// how it was failed, while a one-way cut keeps its direction. Use
    /// [`FaultSet::failed_links_directed`] for the raw directed set.
    #[must_use]
    pub fn failed_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .links
            .iter()
            .copied()
            .filter(|&(u, v)| u <= v || !self.links.contains(&(v, u)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Every explicitly failed directed link, sorted ascending — an
    /// undirected cut appears as both of its directions.
    #[must_use]
    pub fn failed_links_directed(&self) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self.links.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Forgets all faults (bumps the epoch if anything was recorded).
    pub fn clear(&mut self) {
        let changed = !self.is_empty();
        self.nodes.clear();
        self.links.clear();
        self.touched(changed);
    }

    /// Samples `count` distinct failed nodes uniformly from
    /// `0..num_nodes`, never picking a node listed in `exclude` (e.g. the
    /// source and destination of a route under test).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` candidate nodes exist.
    #[must_use]
    pub fn random_nodes(
        num_nodes: usize,
        count: usize,
        exclude: &[NodeId],
        rng: &mut XorShift64,
    ) -> FaultSet {
        let excluded: HashSet<NodeId> = exclude.iter().copied().collect();
        assert!(
            count <= num_nodes.saturating_sub(excluded.len()),
            "cannot sample {count} failed nodes from {num_nodes} candidates"
        );
        let mut set = FaultSet::new();
        while set.nodes.len() < count {
            let u = rng.gen_range(num_nodes) as NodeId;
            if !excluded.contains(&u) {
                set.nodes.insert(u);
            }
        }
        set.stamp = fresh_stamp();
        set
    }

    /// Samples `count` distinct failed directed links uniformly from the
    /// links of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has fewer than `count` directed links.
    #[must_use]
    pub fn random_links(graph: &DenseGraph, count: usize, rng: &mut XorShift64) -> FaultSet {
        let m = graph.num_edges();
        assert!(count <= m, "cannot sample {count} failed links from {m}");
        let mut set = FaultSet::new();
        let mut picked = HashSet::new();
        while picked.len() < count {
            let e = rng.gen_range(m);
            if picked.insert(e) {
                let (u, v) = graph.edge_endpoints(e);
                set.links.insert((u, v));
            }
        }
        set.stamp = fresh_stamp();
        set
    }
}

/// Census of the (weakly) connected components of a survivor graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentCensus {
    /// Component sizes, largest first. Empty iff no node survives.
    pub sizes: Vec<usize>,
}

impl ComponentCensus {
    /// Number of components.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 if no node survives).
    #[must_use]
    pub fn largest(&self) -> usize {
        self.sizes.first().copied().unwrap_or(0)
    }

    /// Total surviving nodes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }
}

/// A read-only view of a [`DenseGraph`] with a [`FaultSet`] applied: failed
/// nodes disappear and blocked links are filtered out of every neighbor
/// scan. No CSR data is copied — the view borrows the graph and the faults.
#[derive(Debug, Clone, Copy)]
pub struct SurvivorView<'a> {
    graph: &'a DenseGraph,
    faults: &'a FaultSet,
}

impl<'a> SurvivorView<'a> {
    /// Creates a view of `graph` under `faults`.
    #[must_use]
    pub fn new(graph: &'a DenseGraph, faults: &'a FaultSet) -> Self {
        SurvivorView { graph, faults }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &'a DenseGraph {
        self.graph
    }

    /// The applied faults.
    #[must_use]
    pub fn faults(&self) -> &'a FaultSet {
        self.faults
    }

    /// Whether node `u` survives.
    #[must_use]
    pub fn is_alive(&self, u: NodeId) -> bool {
        !self.faults.node_failed(u)
    }

    /// Number of surviving nodes.
    #[must_use]
    pub fn num_live_nodes(&self) -> usize {
        (0..self.graph.num_nodes())
            .filter(|&u| self.is_alive(u as NodeId))
            .count()
    }

    /// The surviving nodes, ascending.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.graph.num_nodes() as NodeId).filter(move |&u| self.is_alive(u))
    }

    /// Surviving out-neighbors of `u` (empty if `u` itself is failed).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let alive = self.is_alive(u);
        self.graph
            .out_neighbors(u)
            .iter()
            .copied()
            .filter(move |&v| alive && !self.faults.blocks(u, v))
    }

    /// BFS distances from `src` over surviving out-links; failed and
    /// unreachable nodes get [`UNREACHABLE`]. A failed `src` reaches
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Dist> {
        let n = self.graph.num_nodes();
        assert!((src as usize) < n, "source out of range");
        let mut dist = vec![UNREACHABLE; n];
        if !self.is_alive(src) {
            return dist;
        }
        let mut queue = VecDeque::new();
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for v in self.out_neighbors(u) {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether an explicit node path survives intact: every node on it is
    /// alive and every consecutive hop is unblocked. An empty path is not
    /// live; a single-node path is live iff its node is. Hops are *not*
    /// checked for host adjacency — pair with a validated path (e.g. an
    /// embedding hyperpath) when adjacency matters.
    #[must_use]
    pub fn path_is_live(&self, path: &[NodeId]) -> bool {
        match path {
            [] => false,
            [u] => self.is_alive(*u),
            _ => self.is_alive(path[0]) && path.windows(2).all(|w| !self.faults.blocks(w[0], w[1])),
        }
    }

    /// A shortest surviving path `src → dst` (inclusive), or `None` if no
    /// fault-free path exists.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    #[must_use]
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = self.graph.num_nodes();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "node out of range"
        );
        if !self.is_alive(src) || !self.is_alive(dst) {
            return None;
        }
        let mut parent = vec![NodeId::MAX; n];
        let mut queue = VecDeque::new();
        parent[src as usize] = src;
        queue.push_back(src);
        'bfs: while let Some(u) = queue.pop_front() {
            for v in self.out_neighbors(u) {
                if parent[v as usize] == NodeId::MAX {
                    parent[v as usize] = u;
                    if v == dst {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if parent[dst as usize] == NodeId::MAX && dst != src {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Whether every surviving node can reach and be reached from every
    /// other surviving node (strong connectivity of the survivor graph).
    /// Vacuously true when at most one node survives.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::audit_timer("strong_connectivity");
        let Some(root) = self.live_nodes().next() else {
            return true;
        };
        let live = self.num_live_nodes();
        let forward = self.bfs_distances(root);
        if self
            .live_nodes()
            .filter(|&u| forward[u as usize] != UNREACHABLE)
            .count()
            != live
        {
            return false;
        }
        // Reverse reachability: BFS over surviving in-links.
        let n = self.graph.num_nodes();
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (u, v) in self.graph.edges() {
            if !self.faults.blocks(u, v) {
                rev[v as usize].push(u);
            }
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([root]);
        seen[root as usize] = true;
        let mut reached = 1usize;
        while let Some(v) = queue.pop_front() {
            for &u in &rev[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    reached += 1;
                    queue.push_back(u);
                }
            }
        }
        reached == live
    }

    /// Census of the weakly connected components of the survivor graph
    /// (links treated as undirected), sizes largest first.
    #[must_use]
    pub fn component_census(&self) -> ComponentCensus {
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::audit_timer("component_census");
        let n = self.graph.num_nodes();
        let mut undirected: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (u, v) in self.graph.edges() {
            if !self.faults.blocks(u, v) {
                undirected[u as usize].push(v);
                undirected[v as usize].push(u);
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut sizes = Vec::new();
        for start in self.live_nodes() {
            if comp[start as usize] != usize::MAX {
                continue;
            }
            let id = sizes.len();
            let mut size = 0usize;
            comp[start as usize] = id;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in &undirected[u as usize] {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = id;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        ComponentCensus { sizes }
    }

    /// Exact vertex connectivity of the survivor graph: the minimum number
    /// of surviving nodes whose removal destroys strong connectivity
    /// (`num_live − 1` for complete survivor graphs, 0 when at most one
    /// node survives or the survivors are already disconnected).
    ///
    /// Computed Menger-style: unit node capacities via node splitting, one
    /// BFS-augmenting max-flow per candidate pair. Sources range over one
    /// fixed survivor and its neighborhood, which is sufficient because a
    /// minimum cut of size `κ ≤ δ` cannot swallow a node *and* its whole
    /// neighborhood.
    #[must_use]
    pub fn vertex_connectivity(&self) -> usize {
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::audit_timer("vertex_connectivity");
        let live: Vec<NodeId> = self.live_nodes().collect();
        if live.len() <= 1 {
            return 0;
        }
        // Split net: in(u) = 2u, out(u) = 2u + 1; internal caps 1,
        // link caps effectively infinite.
        let n = self.graph.num_nodes();
        let inf = len_u32(live.len());
        let mut net = FlowNet::new(2 * n);
        for &u in &live {
            net.add_edge(2 * u as usize, 2 * u as usize + 1, 1);
        }
        for (u, v) in self.graph.edges() {
            if !self.faults.blocks(u, v) {
                net.add_edge(2 * u as usize + 1, 2 * v as usize, inf);
            }
        }
        let v0 = live[0];
        let mut sources: Vec<NodeId> = vec![v0];
        for v in self.out_neighbors(v0) {
            if !sources.contains(&v) {
                sources.push(v);
            }
        }
        for (u, v) in self.graph.edges() {
            if v == v0 && !self.faults.blocks(u, v) && !sources.contains(&u) {
                sources.push(u);
            }
        }
        let mut best = live.len() - 1;
        for &s in &sources {
            for &t in &live {
                if t == s || best == 0 {
                    continue;
                }
                for (a, b) in [(s, t), (t, s)] {
                    let direct = self.graph.edge_index(a, b).is_some() && !self.faults.blocks(a, b);
                    if !direct {
                        let flow = net.max_flow(2 * a as usize + 1, 2 * b as usize, len_u32(best))
                            as usize;
                        best = best.min(flow);
                    }
                }
            }
        }
        best
    }

    /// Exact edge connectivity of the survivor graph: the minimum number of
    /// surviving directed links whose removal destroys strong connectivity.
    /// Unit link capacities, BFS-augmenting max-flow, one fixed survivor
    /// flowed against every other in both directions.
    #[must_use]
    pub fn edge_connectivity(&self) -> usize {
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::audit_timer("edge_connectivity");
        let live: Vec<NodeId> = self.live_nodes().collect();
        if live.len() <= 1 {
            return 0;
        }
        let mut net = FlowNet::new(self.graph.num_nodes());
        let mut degree_bound = usize::MAX;
        for &u in &live {
            let out = self.out_neighbors(u).count();
            degree_bound = degree_bound.min(out);
            for v in self.out_neighbors(u) {
                net.add_edge(u as usize, v as usize, 1);
            }
        }
        let v0 = live[0] as usize;
        let mut best = degree_bound;
        for &t in &live[1..] {
            if best == 0 {
                break;
            }
            best = best.min(net.max_flow(v0, t as usize, len_u32(best)) as usize);
            best = best.min(net.max_flow(t as usize, v0, len_u32(best)) as usize);
        }
        best
    }
}

/// Exact vertex connectivity of `g` (no faults applied); see
/// [`SurvivorView::vertex_connectivity`].
#[must_use]
pub fn vertex_connectivity(g: &DenseGraph) -> usize {
    let faults = FaultSet::new();
    SurvivorView::new(g, &faults).vertex_connectivity()
}

/// Exact edge connectivity of `g` (no faults applied); see
/// [`SurvivorView::edge_connectivity`].
#[must_use]
pub fn edge_connectivity(g: &DenseGraph) -> usize {
    let faults = FaultSet::new();
    SurvivorView::new(g, &faults).edge_connectivity()
}

/// A small unit-ish capacity flow network with BFS augmenting paths
/// (Edmonds–Karp). Flow values in this module are bounded by the node
/// degree, so the augmentation count stays tiny.
#[derive(Debug, Clone)]
struct FlowNet {
    adj: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<u32>,
    orig: Vec<u32>,
}

impl FlowNet {
    fn new(num_nodes: usize) -> Self {
        FlowNet {
            adj: vec![Vec::new(); num_nodes],
            to: Vec::new(),
            cap: Vec::new(),
            orig: Vec::new(),
        }
    }

    /// Adds a directed edge `u → v` with the given capacity (plus the
    /// zero-capacity residual partner at index `^1`).
    fn add_edge(&mut self, u: usize, v: usize, capacity: u32) {
        self.adj[u].push(self.to.len());
        self.to.push(v);
        self.cap.push(capacity);
        self.orig.push(capacity);
        self.adj[v].push(self.to.len());
        self.to.push(u);
        self.cap.push(0);
        self.orig.push(0);
    }

    /// Max flow `s → t`, stopping early once `bound` is reached (the caller
    /// only cares whether the flow is below its current best cut).
    fn max_flow(&mut self, s: usize, t: usize, bound: u32) -> u32 {
        self.cap.copy_from_slice(&self.orig);
        let mut flow = 0u32;
        let mut parent_edge = vec![usize::MAX; self.adj.len()];
        while flow < bound {
            parent_edge.iter_mut().for_each(|e| *e = usize::MAX);
            let mut queue = VecDeque::from([s]);
            parent_edge[s] = usize::MAX - 1; // visited marker for the source
            let mut found = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &e in &self.adj[u] {
                    let v = self.to[e];
                    if self.cap[e] > 0 && parent_edge[v] == usize::MAX && v != s {
                        parent_edge[v] = e;
                        if v == t {
                            found = true;
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !found {
                break;
            }
            // Bottleneck along the path, then augment.
            let mut bottleneck = u32::MAX;
            let mut v = t;
            while v != s {
                let e = parent_edge[v];
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = parent_edge[v];
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1];
            }
            flow += bottleneck;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected_ring(n: usize) -> DenseGraph {
        DenseGraph::from_neighbor_fn(n, |u| {
            vec![(u + 1) % n as NodeId, (u + n as NodeId - 1) % n as NodeId]
        })
    }

    fn complete(n: usize) -> DenseGraph {
        DenseGraph::from_neighbor_fn(n, |u| {
            (0..n as NodeId).filter(|&v| v != u).collect::<Vec<_>>()
        })
    }

    #[test]
    fn fault_set_basics() {
        let mut f = FaultSet::new();
        assert!(f.is_empty());
        assert!(f.fail_node(3));
        assert!(!f.fail_node(3));
        f.fail_link(0, 1);
        assert!(f.node_failed(3));
        assert!(f.link_failed(0, 1));
        assert!(!f.link_failed(1, 0));
        assert!(f.blocks(0, 1));
        assert!(f.blocks(3, 0), "failed node blocks its out-links");
        assert!(f.blocks(0, 3), "failed node blocks its in-links");
        assert!(!f.blocks(1, 2));
        assert_eq!(f.failed_nodes(), vec![3]);
        assert_eq!(f.failed_links(), vec![(0, 1)]);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn epoch_bumps_only_on_change() {
        let mut f = FaultSet::new();
        assert_eq!(f.epoch(), 0);
        assert!(f.fail_node(3));
        assert_eq!(f.epoch(), 1);
        assert!(!f.fail_node(3), "re-failing is a no-op");
        assert_eq!(f.epoch(), 1);
        assert!(f.fail_link(0, 1));
        assert_eq!(f.epoch(), 2);
        assert!(f.repair_link(0, 1));
        assert_eq!(f.epoch(), 3);
        assert!(!f.repair_link(0, 1), "re-repairing is a no-op");
        assert_eq!(f.epoch(), 3);
        assert!(f.repair_node(3));
        assert_eq!(f.epoch(), 4);
        f.clear();
        assert_eq!(f.epoch(), 4, "clearing an empty set is a no-op");
        f.fail_link_undirected(2, 5);
        assert_eq!(f.epoch(), 5, "an undirected cut is one mutation");
        f.repair_link_undirected(2, 5);
        assert_eq!(f.epoch(), 6);
    }

    #[test]
    fn equality_ignores_epoch() {
        let mut a = FaultSet::new();
        a.fail_node(1);
        a.repair_node(1);
        a.fail_node(1);
        let mut b = FaultSet::new();
        b.fail_node(1);
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b);
    }

    #[test]
    fn stamps_track_contents_across_sets() {
        let mut a = FaultSet::new();
        assert_eq!(a.stamp(), 0, "a new set is unstamped");
        a.fail_node(1);
        let s1 = a.stamp();
        assert_ne!(s1, 0, "a change draws a stamp");
        assert!(!a.fail_node(1));
        assert_eq!(a.stamp(), s1, "a no-op keeps the stamp");
        let clone = a.clone();
        assert_eq!(clone.stamp(), s1, "a clone keeps the stamp");
        // Same epoch, same fault count, different contents: different stamps.
        let mut b = FaultSet::new();
        b.fail_node(2);
        assert_eq!(
            (a.epoch(), a.num_failed_nodes()),
            (b.epoch(), b.num_failed_nodes())
        );
        assert_ne!(a.stamp(), b.stamp());
        a.fail_link(0, 1);
        assert_ne!(a.stamp(), s1, "a mutation changes the stamp");
        assert_eq!(clone.stamp(), s1, "the clone is not touched");
        let mut rng = XorShift64::new(3);
        let (x, y) = (
            FaultSet::random_nodes(50, 3, &[], &mut rng),
            FaultSet::random_nodes(50, 3, &[], &mut rng),
        );
        assert_ne!(x.stamp(), y.stamp(), "sampled sets are stamped");
    }

    #[test]
    fn repair_restores_liveness() {
        let mut f = FaultSet::new();
        f.fail_node(2);
        f.fail_link(0, 1);
        assert!(f.blocks(0, 1));
        assert!(f.repair_node(2));
        assert!(!f.node_failed(2));
        assert!(f.repair_link(0, 1));
        assert!(!f.blocks(0, 1));
        assert!(f.is_empty());
    }

    #[test]
    fn merge_unions_and_bumps_once() {
        let mut a = FaultSet::new();
        a.fail_node(1);
        a.fail_link(0, 1);
        let mut b = FaultSet::new();
        b.fail_node(1); // overlap
        b.fail_node(2);
        b.fail_link_undirected(3, 4);
        let e = a.epoch();
        assert!(a.merge(&b));
        assert_eq!(a.epoch(), e + 1);
        assert_eq!(a.failed_nodes(), vec![1, 2]);
        assert!(a.link_failed(0, 1) && a.link_failed(3, 4) && a.link_failed(4, 3));
        // Merging a subset changes nothing.
        assert!(!a.merge(&b));
        assert_eq!(a.epoch(), e + 1);
    }

    #[test]
    fn failed_links_collapses_undirected_cuts() {
        let mut f = FaultSet::new();
        f.fail_link_undirected(5, 2); // recorded as (5,2) + (2,5)
        f.fail_link(7, 3); // one-way, direction preserved
        assert_eq!(f.failed_links(), vec![(2, 5), (7, 3)]);
        assert_eq!(f.failed_links_directed(), vec![(2, 5), (5, 2), (7, 3)]);
        assert_eq!(f.num_failed_links(), 3, "directed count is unchanged");
    }

    #[test]
    fn random_nodes_respects_exclusions() {
        let mut rng = XorShift64::new(1);
        for _ in 0..20 {
            let f = FaultSet::random_nodes(10, 4, &[0, 9], &mut rng);
            assert_eq!(f.num_failed_nodes(), 4);
            assert!(!f.node_failed(0));
            assert!(!f.node_failed(9));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn random_nodes_rejects_oversized_requests() {
        let mut rng = XorShift64::new(2);
        let _ = FaultSet::random_nodes(5, 5, &[0], &mut rng);
    }

    #[test]
    fn random_links_picks_real_links() {
        let g = undirected_ring(8);
        let mut rng = XorShift64::new(3);
        let f = FaultSet::random_links(&g, 5, &mut rng);
        assert_eq!(f.num_failed_links(), 5);
        for (u, v) in f.failed_links() {
            assert!(g.edge_index(u, v).is_some());
        }
    }

    #[test]
    fn survivor_view_filters_neighbors() {
        let g = undirected_ring(6);
        let mut f = FaultSet::new();
        f.fail_node(1);
        f.fail_link(0, 5);
        let view = SurvivorView::new(&g, &f);
        assert_eq!(view.num_live_nodes(), 5);
        assert_eq!(view.out_neighbors(0).count(), 0); // 1 dead, 0→5 cut
        assert_eq!(view.out_neighbors(5).collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(view.out_neighbors(1).count(), 0, "dead node has no links");
    }

    #[test]
    fn survivor_bfs_and_paths_avoid_faults() {
        let g = undirected_ring(8);
        let mut f = FaultSet::new();
        f.fail_node(1); // forces the long way round from 0 to 2
        let view = SurvivorView::new(&g, &f);
        let d = view.bfs_distances(0);
        assert_eq!(d[2], 6);
        assert_eq!(d[1], UNREACHABLE);
        let path = view.shortest_path(0, 2).unwrap();
        assert_eq!(path.len(), 7);
        assert!(!path.contains(&1));
        assert_eq!(view.shortest_path(0, 1), None);
    }

    #[test]
    fn path_liveness_tracks_faults() {
        let g = undirected_ring(6);
        let mut f = FaultSet::new();
        let view = SurvivorView::new(&g, &f);
        assert!(!view.path_is_live(&[]));
        assert!(view.path_is_live(&[3]));
        assert!(view.path_is_live(&[0, 1, 2]));
        f.fail_node(1);
        let view = SurvivorView::new(&g, &f);
        assert!(!view.path_is_live(&[0, 1, 2]), "interior node died");
        assert!(!view.path_is_live(&[1]), "failed singleton");
        assert!(view.path_is_live(&[2, 3, 4]));
        f.fail_link(3, 4);
        let view = SurvivorView::new(&g, &f);
        assert!(!view.path_is_live(&[2, 3, 4]), "directed link cut");
        assert!(view.path_is_live(&[4, 3, 2]), "reverse direction still up");
    }

    #[test]
    fn strong_connectivity_and_census() {
        let g = undirected_ring(6);
        let mut f = FaultSet::new();
        assert!(SurvivorView::new(&g, &f).is_strongly_connected());
        f.fail_node(0);
        assert!(SurvivorView::new(&g, &f).is_strongly_connected());
        f.fail_node(3);
        let view = SurvivorView::new(&g, &f);
        assert!(!view.is_strongly_connected());
        let census = view.component_census();
        assert_eq!(census.sizes, vec![2, 2]);
        assert_eq!(census.num_components(), 2);
        assert_eq!(census.largest(), 2);
        assert_eq!(census.total(), 4);
    }

    #[test]
    fn directed_cycle_is_strongly_connected_until_cut() {
        let g = DenseGraph::from_neighbor_fn(5, |u| vec![(u + 1) % 5]);
        let mut f = FaultSet::new();
        assert!(SurvivorView::new(&g, &f).is_strongly_connected());
        f.fail_link(2, 3);
        let view = SurvivorView::new(&g, &f);
        assert!(!view.is_strongly_connected());
        // Weakly the survivors are still one component.
        assert_eq!(view.component_census().sizes, vec![5]);
    }

    #[test]
    fn connectivity_of_reference_graphs() {
        assert_eq!(vertex_connectivity(&undirected_ring(7)), 2);
        assert_eq!(edge_connectivity(&undirected_ring(7)), 2);
        let dir = DenseGraph::from_neighbor_fn(6, |u| vec![(u + 1) % 6]);
        assert_eq!(vertex_connectivity(&dir), 1);
        assert_eq!(edge_connectivity(&dir), 1);
        assert_eq!(vertex_connectivity(&complete(5)), 4);
        assert_eq!(edge_connectivity(&complete(5)), 4);
    }

    #[test]
    fn connectivity_of_disconnected_graph_is_zero() {
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        assert_eq!(vertex_connectivity(&g), 0);
        assert_eq!(edge_connectivity(&g), 0);
    }

    #[test]
    fn connectivity_drops_under_faults() {
        let g = undirected_ring(8);
        let mut f = FaultSet::new();
        f.fail_link_undirected(0, 1);
        let view = SurvivorView::new(&g, &f);
        assert_eq!(view.edge_connectivity(), 1);
        assert_eq!(view.vertex_connectivity(), 1);
        f.fail_node(4);
        let view = SurvivorView::new(&g, &f);
        // 0–1 cut plus node 4 gone: the ring is now a path, still weakly
        // one piece but no longer 2-connected.
        assert_eq!(view.vertex_connectivity(), 0);
    }

    #[test]
    fn vertex_connectivity_matches_a_known_cut() {
        // Two triangles joined by a single articulation node 2.
        let g = DenseGraph::from_edges(
            5,
            [
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (2, 4),
                (4, 2),
                (3, 4),
                (4, 3),
            ],
        )
        .unwrap();
        assert_eq!(vertex_connectivity(&g), 1);
        // Edge-wise the cut must sever both bridge links out of node 2.
        assert_eq!(edge_connectivity(&g), 2);
    }

    #[test]
    fn hypercube_connectivity_equals_degree() {
        // Q3: 8 nodes, degree 3, κ = λ = 3.
        let g =
            DenseGraph::from_neighbor_fn(8, |u| (0..3).map(|b| u ^ (1 << b)).collect::<Vec<_>>());
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 3);
    }
}
