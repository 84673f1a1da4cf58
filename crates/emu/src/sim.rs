//! A synchronous, link-level, store-and-forward network simulator with
//! fail-stop fault injection.
//!
//! Time advances in unit steps; every directed link transmits at most one
//! packet per step. Under the **all-port** model a node feeds all its
//! outgoing links simultaneously; under the **single-port** model it feeds
//! one per step (round-robin over non-empty queues). This is the machinery
//! the MNB/TE experiments (Corollaries 2–3) run on.
//!
//! The simulator keeps one occupancy bit per link queue (by CSR edge id),
//! set while the queue holds a packet, and a step walks only the set bits
//! in increasing edge id — the same (node, slot) order a scan of every
//! link would take. A step therefore costs O(occupied links +
//! transmissions), plus one word per 64 links, not O(N·d). The `N·d`
//! link FIFOs are linked lists through one shared flight slab, which holds
//! at most the peak number of packets in flight; a transmission moves a
//! slab index, not the flight.
//!
//! Faults can be injected *and repaired* mid-run ([`SyncSim::fail_node`],
//! [`SyncSim::repair_node`], link variants, or a whole seeded
//! [`FaultSchedule`] via [`SyncSim::apply_chaos`]) without resetting the
//! statistics. Packets queued on a dead link are *retried* — the router
//! is re-consulted with the dead slots masked, up to
//! [`SyncSim::with_retry_limit`] times per packet. With
//! [`SyncSim::with_backoff`] a packet that finds no live route parks
//! under bounded exponential backoff instead of dropping immediately, so
//! it can outlive a transient fault; deliveries that survived at least
//! one fault-time retry are kept separate in [`SimStats::recovered`].
//! Exhausted budgets still count as drops, so degradation shows up in
//! [`SimStats`] (`dropped`, `retried`, [`SimStats::delivered_ratio`])
//! instead of as a hang. The [`TableRouter`] carries the fault-set epoch
//! it was built against ([`TableRouter::is_stale`]) and can be rebuilt in
//! place, reusing its allocations, with
//! [`TableRouter::refresh_with_faults`].
//!
//! Fault-free, on a Cayley graph of `S_k` with rank node ids, the
//! [`TableRouter`] keeps one `N`-entry table toward the identity and
//! translates every lookup by left multiplication (one packed compose and
//! rank), so its memory is linear in `N`; with faults, symmetry breaks and
//! it builds the `N × N` survivor table. Each queued packet carries the
//! translated state as a [`Router::next_hop_hinted`] hint, so the compose
//! and rank happen once, at injection, and every later hop is two table
//! reads.

use std::collections::VecDeque;

use scg_graph::{ChaosEvent, DenseGraph, FaultSchedule, FaultSet, NodeId, UNREACHABLE};
use scg_perm::{factorial, PackedPerm, MAX_PACKED_DEGREE};

use crate::error::EmuError;

/// Port model: how many links a node may drive per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortModel {
    /// All incident links simultaneously.
    AllPort,
    /// One outgoing link per step.
    SinglePort,
}

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Caller-defined tag (e.g. a broadcast id).
    pub payload: u64,
}

/// A routing decision for a packet at a node.
///
/// This replaces the old convention where a single `Option::None` (and,
/// inside [`TableRouter`], a single `u8::MAX` sentinel) meant both "at the
/// destination" and "no route exists" — the two outcomes now travel as
/// distinct variants, so unreachable packets surface as
/// [`EmuError::Unreachable`] or counted drops rather than phantom
/// deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextHop {
    /// The packet is at its destination.
    Deliver,
    /// Forward through the given local out-slot.
    Forward(usize),
    /// The router knows no route to the destination.
    Unreachable,
}

/// The routing hint that carries no information (see
/// [`Router::next_hop_hinted`]). No node count reaches it: `N ≤ 12! < 2³²`.
pub const NO_HINT: u32 = u32::MAX;

/// Chooses the outgoing link for a packet at a node.
pub trait Router {
    /// The routing decision for `packet` at node `at`. `Forward(slot)`
    /// indexes into `graph.out_neighbors(at)`.
    fn next_hop(&self, at: NodeId, packet: &Packet) -> NextHop;

    /// [`next_hop`](Router::next_hop) with a per-packet hint, which is
    /// [`NO_HINT`] or what this router returned for the same packet at the
    /// previous node; the decision must equal `next_hop`'s. Returns the
    /// decision plus the hint for the node at the far end of the chosen
    /// slot ([`NO_HINT`] when there is none). The simulator keeps the hint
    /// in each queued packet and clears it on a fault-time reroute. The
    /// default ignores the hint.
    fn next_hop_hinted(&self, at: NodeId, packet: &Packet, _hint: u32) -> (NextHop, u32) {
        (self.next_hop(at, packet), NO_HINT)
    }

    /// Fault-time re-consultation: `dead(slot)` reports slots that are
    /// currently unusable. The default deflects to the first live slot when
    /// the preferred one is dead (bounded by the simulator's retry limit
    /// and TTL), and reports [`NextHop::Unreachable`] when every slot is
    /// dead. Routers with better knowledge (e.g. alternative shortest
    /// slots) may override.
    fn reroute(
        &self,
        at: NodeId,
        packet: &Packet,
        degree: usize,
        dead: &dyn Fn(usize) -> bool,
    ) -> NextHop {
        match self.next_hop(at, packet) {
            NextHop::Forward(slot) if dead(slot) => (0..degree)
                .find(|&alt| !dead(alt))
                .map_or(NextHop::Unreachable, NextHop::Forward),
            hop => hop,
        }
    }
}

/// One entry of the [`TableRouter`] next-hop table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableSlot {
    /// Out-slot toward the destination.
    Toward(u8),
    /// This node *is* the destination.
    Destination,
    /// No (surviving) route to the destination.
    Unreachable,
}

/// The tie-break shared by both tables: among the `candidates` shortest
/// out-slots of `u` toward `dst`, in slot order, the one to take.
fn tie_break(u: usize, dst: usize, candidates: usize) -> usize {
    let h = u
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(dst.wrapping_mul(0x85EB_CA6B));
    modulo(h, candidates)
}

/// `h % c`. Every routing decision takes one, so each small `c` gets its
/// own arm: a constant divisor compiles to a multiply, where `h % c` is a
/// 64-bit divide.
fn modulo(h: usize, c: usize) -> usize {
    macro_rules! by_constant {
        ($($c:literal)*) => {
            match c {
                1 => 0,
                $($c => h % $c,)*
                c => h % c,
            }
        };
    }
    by_constant!(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// Reusable build buffers for [`TableRouter::refresh_with_faults`]: the
/// surviving reverse CSR, per-destination BFS state, and the tie-break
/// candidate list. Kept inside the router so repeated refreshes during a
/// chaos run allocate nothing after the first build.
#[derive(Debug, Clone, Default)]
struct RefreshScratch {
    rev_offsets: Vec<u32>,
    rev_ids: Vec<NodeId>,
    cursor: Vec<u32>,
    dist: Vec<u32>,
    queue: VecDeque<NodeId>,
    candidates: Vec<usize>,
}

impl RefreshScratch {
    /// Fills the surviving reverse adjacency of `graph` under `faults`, for
    /// BFS *toward* each destination, in CSR form (offsets + one flat id
    /// array): two buffers total instead of one list per node, and each
    /// node's predecessors are contiguous for the BFS scans. The two-pass
    /// count-then-fill keeps predecessors in `edges()` order.
    fn reverse_csr(&mut self, graph: &DenseGraph, faults: &FaultSet) {
        let n = graph.num_nodes();
        let Self {
            rev_offsets,
            rev_ids,
            cursor,
            ..
        } = self;
        rev_offsets.clear();
        rev_offsets.resize(n + 1, 0);
        for (u, v) in graph.edges() {
            if !faults.blocks(u, v) {
                rev_offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        rev_ids.clear();
        rev_ids.resize(rev_offsets[n] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&rev_offsets[..n]);
        for (u, v) in graph.edges() {
            if !faults.blocks(u, v) {
                let c = &mut cursor[v as usize];
                rev_ids[*c as usize] = u;
                *c += 1;
            }
        }
    }

    /// BFS toward `dst` over the reverse CSR built by
    /// [`reverse_csr`](Self::reverse_csr): fills `dist` with every node's
    /// distance to `dst` ([`UNREACHABLE`] if it has none).
    fn bfs_toward(&mut self, dst: usize) {
        let Self {
            rev_offsets,
            rev_ids,
            dist,
            queue,
            ..
        } = self;
        let rev = |v: usize| &rev_ids[rev_offsets[v] as usize..rev_offsets[v + 1] as usize];
        dist.clear();
        dist.resize(rev_offsets.len() - 1, UNREACHABLE);
        dist[dst] = 0;
        queue.clear();
        queue.push_back(dst as NodeId);
        while let Some(v) = queue.pop_front() {
            for &u in rev(v as usize) {
                if dist[u as usize] == UNREACHABLE {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
    }

    /// One destination's column of the survivor table: a
    /// [`bfs_toward`](Self::bfs_toward) `dst`, then at every node the
    /// [`tie_break`] pick among its shortest live out-slots. `column[u]` is
    /// the decision at `u`; it must arrive filled with
    /// [`TableSlot::Unreachable`].
    fn fill_column(
        &mut self,
        graph: &DenseGraph,
        faults: &FaultSet,
        dst: usize,
        column: &mut [TableSlot],
    ) {
        self.bfs_toward(dst);
        let Self {
            dist, candidates, ..
        } = self;
        let n = graph.num_nodes();
        column[dst] = TableSlot::Destination;
        for u in 0..n {
            if u == dst || dist[u] == UNREACHABLE {
                continue;
            }
            let outs = graph.out_neighbors(u as NodeId);
            candidates.clear();
            candidates.extend(
                outs.iter()
                    .enumerate()
                    .filter(|&(_, &v)| {
                        !faults.blocks(u as NodeId, v)
                            && dist[v as usize] != UNREACHABLE
                            && dist[v as usize] + 1 == dist[u]
                    })
                    .map(|(slot, _)| slot),
            );
            debug_assert!(!candidates.is_empty());
            column[u] = TableSlot::Toward(candidates[tie_break(u, dst, candidates.len())] as u8);
        }
    }
}

/// The fault-free table of a Cayley graph on `S_k` whose node ids are
/// lexicographic ranks: one `N`-entry table toward the identity, shared by
/// every destination.
///
/// Left multiplication by `dst⁻¹` is an automorphism, so the shortest
/// out-links of `u` toward `dst` are those of `x = dst⁻¹ ∘ u` toward the
/// identity, generator for generator. A lookup is one packed compose and
/// rank, then the generator mask at `x` mapped through `u`'s own slot
/// order. A packet can carry `x` from hop to hop: along generator `g_s`
/// it becomes `rank(label(x) ∘ g_s)`, one entry of `next_rank`, so a
/// hinted lookup costs two table reads and no compose or rank.
#[derive(Debug, Clone, Default)]
struct CayleyTable {
    k: usize,
    degree: usize,
    /// `labels[u]` = the permutation of rank `u`.
    labels: Vec<PackedPerm>,
    /// `inv_labels[u]` = `labels[u]⁻¹`.
    inv_labels: Vec<PackedPerm>,
    /// `gen_to_slot[u * degree + s]` = the out-slot of `u` that follows
    /// generator `s` (the out-lists are sorted, so slot `s` is not
    /// generator `s` in general).
    gen_to_slot: Vec<u8>,
    /// `toward_identity[x]` = bit `s` set iff generator `s` starts a
    /// shortest path from `x` to the identity; 0 for the identity itself
    /// and for nodes that cannot reach it.
    toward_identity: Vec<u64>,
    /// `next_rank[x * degree + s]` = `rank(label(x) ∘ g_s)`, the node
    /// generator `s` leads to from `x`.
    next_rank: Vec<u32>,
}

impl CayleyTable {
    /// Rebuilds the table in place if `graph` is the Cayley graph of `S_k`
    /// under rank labels with generators `g_s = label(out_neighbors(0)[s])`,
    /// checked link by link: every `rank(label(u) ∘ g_s)` must be an
    /// out-neighbor of `u`, each generator on its own slot (parallel links
    /// take successive slots). Returns `None`, leaving the table unusable,
    /// when any check fails or the degree exceeds 64 (one `u64` mask).
    /// `faults` must be empty.
    fn rebuild(
        &mut self,
        graph: &DenseGraph,
        faults: &FaultSet,
        scratch: &mut RefreshScratch,
    ) -> Option<()> {
        let n = graph.num_nodes();
        let k = (1..=MAX_PACKED_DEGREE).find(|&k| factorial(k) == n as u64)?;
        let degree = graph.out_degree(0);
        if degree > 64 {
            return None;
        }
        let mut gens = [PackedPerm::identity(); 64];
        for (g, &r) in gens.iter_mut().zip(graph.out_neighbors(0)) {
            *g = PackedPerm::from_rank(k, u64::from(r)).ok()?;
        }
        let gens = &gens[..degree];
        self.k = k;
        self.degree = degree;
        self.labels.clear();
        for r in 0..n as u64 {
            self.labels.push(PackedPerm::from_rank(k, r).ok()?);
        }
        self.inv_labels.clear();
        self.inv_labels
            .extend(self.labels.iter().map(|p| p.inverse()));
        self.gen_to_slot.clear();
        self.next_rank.clear();
        for (u, label) in self.labels.iter().enumerate() {
            let outs = graph.out_neighbors(u as NodeId);
            if outs.len() != degree {
                return None;
            }
            let mut used = 0u64;
            for g in gens {
                let v = NodeId::try_from(label.compose(*g).rank(k).ok()?).ok()?;
                let mut slot = outs.partition_point(|&w| w < v);
                while slot < degree && outs[slot] == v && used & (1 << slot) != 0 {
                    slot += 1;
                }
                if outs.get(slot) != Some(&v) {
                    return None;
                }
                used |= 1 << slot;
                self.gen_to_slot.push(u8::try_from(slot).ok()?);
                self.next_rank.push(v);
            }
        }
        // One reverse BFS to the identity.
        scratch.reverse_csr(graph, faults);
        scratch.bfs_toward(0);
        let dist = &scratch.dist;
        self.toward_identity.clear();
        for x in 0..n {
            let outs = graph.out_neighbors(x as NodeId);
            let row = &self.gen_to_slot[x * degree..(x + 1) * degree];
            let mut mask = 0u64;
            if dist[x] != UNREACHABLE {
                for (s, &slot) in row.iter().enumerate() {
                    let d = dist[outs[usize::from(slot)] as usize];
                    if d != UNREACHABLE && d + 1 == dist[x] {
                        mask |= 1 << s;
                    }
                }
            }
            self.toward_identity.push(mask);
        }
        Some(())
    }

    /// `rank(dst⁻¹ ∘ u)`: one packed compose and rank.
    fn relative(&self, u: usize, dst: usize) -> Option<usize> {
        let x = self.inv_labels[dst].compose(self.labels[u]).rank(self.k);
        x.ok().and_then(|x| usize::try_from(x).ok())
    }

    /// The slot `u` forwards on toward `dst`, given `x = rank(dst⁻¹ ∘ u)`
    /// with `u ≠ dst`, plus the generator mask at `x`; `None` if `x`
    /// cannot reach the identity.
    fn forward(&self, u: usize, dst: usize, x: usize) -> Option<(usize, u64)> {
        let row = &self.gen_to_slot[u * self.degree..(u + 1) * self.degree];
        let (all, mut slots) = (self.toward_identity[x], 0u64);
        let mut gens = all;
        while gens != 0 {
            slots |= 1 << row[gens.trailing_zeros() as usize];
            gens &= gens - 1;
        }
        if slots == 0 {
            return None;
        }
        for _ in 0..tie_break(u, dst, slots.count_ones() as usize) {
            slots &= slots - 1;
        }
        Some((slots.trailing_zeros() as usize, all))
    }

    /// The decision at `u` toward `dst`, identical to the full table's.
    fn next_hop(&self, u: usize, dst: usize) -> NextHop {
        if u == dst {
            return NextHop::Deliver;
        }
        match self.relative(u, dst).and_then(|x| self.forward(u, dst, x)) {
            Some((slot, _)) => NextHop::Forward(slot),
            None => NextHop::Unreachable,
        }
    }

    /// [`next_hop`](Self::next_hop) given the hint `x = rank(dst⁻¹ ∘ u)`
    /// (computed when it is [`NO_HINT`]), plus the far end's hint.
    fn next_hop_hinted(&self, u: usize, dst: usize, hint: u32) -> (NextHop, u32) {
        if u == dst {
            return (NextHop::Deliver, NO_HINT);
        }
        // NO_HINT, like any value past the table, fails the check.
        let x = match hint as usize {
            x if x < self.toward_identity.len() => x,
            _ => match self.relative(u, dst) {
                Some(x) => x,
                None => return (NextHop::Unreachable, NO_HINT),
            },
        };
        debug_assert_eq!(Some(x), self.relative(u, dst), "stale hint at {u} → {dst}");
        let Some((slot, mut gens)) = self.forward(u, dst, x) else {
            return (NextHop::Unreachable, NO_HINT);
        };
        // The generator behind `slot`; parallel links share a far end, so
        // any of them gives the same hint.
        let row = &self.gen_to_slot[u * self.degree..(u + 1) * self.degree];
        while gens != 0 {
            let s = gens.trailing_zeros() as usize;
            if usize::from(row[s]) == slot {
                return (NextHop::Forward(slot), self.next_rank[x * self.degree + s]);
            }
            gens &= gens - 1;
        }
        (NextHop::Forward(slot), NO_HINT)
    }
}

/// Shortest-path table router. Ties are broken by a deterministic hash of
/// `(node, destination)` so traffic spreads over equally short links.
///
/// Without faults, on a Cayley graph of `S_k` whose node ids are
/// lexicographic ranks (every materialized super Cayley network), the
/// router keeps one `N`-entry table toward the identity and answers each
/// lookup with one packed compose and rank (left multiplication by
/// `dst⁻¹` is an automorphism). A [hinted](Router::next_hop_hinted)
/// lookup takes that rank from the packet instead and returns the next
/// node's from an `N × d` table, so a packet pays the compose and rank
/// once, at injection, and two table reads per hop after that. The
/// structure is checked link by link,
/// not assumed; any other graph, and any non-empty fault set, gets the
/// full `N × N` survivor table, built by one BFS per destination. Both
/// tables make the same decision for every `(node, destination)`.
///
/// [`TableRouter::new_with_faults`] builds the table over the survivor
/// graph, so routes avoid a known fault set entirely; the router remembers
/// the [`FaultSet::epoch`] it was built at, so consumers can detect
/// staleness with [`TableRouter::is_stale`] and rebuild in place — reusing
/// every allocation — with [`TableRouter::refresh_with_faults`].
#[derive(Debug, Clone)]
pub struct TableRouter {
    degree_cap: usize,
    /// Answers lookups when `translated` is set. Kept across faulty
    /// refreshes, so returning to an empty fault set reuses its buffers.
    cayley: CayleyTable,
    /// Whether `cayley` answers lookups instead of `slots`.
    translated: bool,
    /// `slots[dst * n + u]` = decision at `u` for destination `dst`; empty
    /// until a build needs the full table.
    slots: Vec<TableSlot>,
    n: usize,
    /// The fault-set epoch the table was last built against.
    built_epoch: u64,
    scratch: RefreshScratch,
}

impl TableRouter {
    /// Builds the router over the fault-free graph: the translated
    /// identity and hint tables when the graph is a rank-labelled Cayley
    /// graph of `S_k` (`O(N·d)` time and memory), else the full `N × N` table
    /// (`O(N·E)` time, `N²` entries).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if some out-degree exceeds 256
    /// (slots are stored in a `u8`).
    pub fn new(graph: &DenseGraph) -> Result<Self, EmuError> {
        Self::new_with_faults(graph, &FaultSet::new())
    }

    /// Builds the next-hop table over the survivor graph of `faults`:
    /// failed nodes and blocked links never appear in a route, and
    /// destinations cut off by the faults are marked unreachable.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if some out-degree exceeds 256.
    pub fn new_with_faults(graph: &DenseGraph, faults: &FaultSet) -> Result<Self, EmuError> {
        let mut router = TableRouter {
            degree_cap: 0,
            cayley: CayleyTable::default(),
            translated: false,
            slots: Vec::new(),
            n: 0,
            built_epoch: 0,
            scratch: RefreshScratch::default(),
        };
        router.refresh_with_faults(graph, faults)?;
        Ok(router)
    }

    /// Rebuilds the table in place against a new fault set, reusing the
    /// slot array, the translated table and all internal build buffers
    /// (zero allocations once they reached their high-water size). This
    /// is the self-healing path: call it whenever
    /// [`TableRouter::is_stale`] reports the fault set moved past the
    /// table. An empty fault set goes back to the translated table.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if some out-degree exceeds 256.
    pub fn refresh_with_faults(
        &mut self,
        graph: &DenseGraph,
        faults: &FaultSet,
    ) -> Result<(), EmuError> {
        let n = graph.num_nodes();
        let degree_cap = (0..n)
            .map(|u| graph.out_degree(u as NodeId))
            .max()
            .unwrap_or(0);
        // `TableSlot::Toward` stores the out-slot as a `u8`. With the old
        // `u8::MAX`-sentinel encoding retired by `NextHop`, all 256 slot
        // values are valid, so only degrees beyond 256 are rejected.
        if degree_cap > usize::from(u8::MAX) + 1 {
            return Err(EmuError::SimOutOfRange {
                reason: "out-degree too large for u8 slot table",
            });
        }
        self.translated = faults.is_empty()
            && self
                .cayley
                .rebuild(graph, faults, &mut self.scratch)
                .is_some();
        if !self.translated {
            Self::build_full(graph, faults, &mut self.slots, &mut self.scratch);
        }
        self.degree_cap = degree_cap;
        self.n = n;
        self.built_epoch = faults.epoch();
        Ok(())
    }

    /// The full survivor table: fills `slots` (resized to `n²`) with one
    /// BFS column per live destination.
    fn build_full(
        graph: &DenseGraph,
        faults: &FaultSet,
        slots: &mut Vec<TableSlot>,
        scratch: &mut RefreshScratch,
    ) {
        let n = graph.num_nodes();
        scratch.reverse_csr(graph, faults);
        slots.clear();
        slots.resize(n * n, TableSlot::Unreachable);
        for (dst, column) in slots.chunks_exact_mut(n.max(1)).enumerate() {
            // A failed destination's whole column stays Unreachable.
            if !faults.node_failed(dst as NodeId) {
                scratch.fill_column(graph, faults, dst, column);
            }
        }
    }

    /// The largest out-degree seen when building the table.
    #[must_use]
    pub fn degree_cap(&self) -> usize {
        self.degree_cap
    }

    /// The [`FaultSet::epoch`] the table was last built against.
    #[must_use]
    pub fn built_epoch(&self) -> u64 {
        self.built_epoch
    }

    /// Whether `faults` has moved past the epoch this table was built at —
    /// the staleness signal driving the self-healing refresh.
    #[must_use]
    pub fn is_stale(&self, faults: &FaultSet) -> bool {
        faults.epoch() != self.built_epoch
    }
}

impl Router for TableRouter {
    fn next_hop(&self, at: NodeId, packet: &Packet) -> NextHop {
        if self.translated {
            return self.cayley.next_hop(at as usize, packet.dst as usize);
        }
        match self.slots[packet.dst as usize * self.n + at as usize] {
            TableSlot::Toward(s) => NextHop::Forward(s as usize),
            TableSlot::Destination => NextHop::Deliver,
            TableSlot::Unreachable => NextHop::Unreachable,
        }
    }

    /// The translated table reads and returns `x = rank(dst⁻¹ ∘ at)`, a
    /// function of the node and the destination alone, so a hint stays
    /// valid across refreshes; the survivor table ignores it.
    fn next_hop_hinted(&self, at: NodeId, packet: &Packet, hint: u32) -> (NextHop, u32) {
        if self.translated {
            return self
                .cayley
                .next_hop_hinted(at as usize, packet.dst as usize, hint);
        }
        (self.next_hop(at, packet), NO_HINT)
    }
}

/// Statistics of a completed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Steps until the run settled (all packets delivered or dropped, or a
    /// live-lock was detected).
    pub steps: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Total link transmissions (packet-hops).
    pub transmissions: u64,
    /// Most transmissions carried by any single directed link.
    pub max_link_traffic: u64,
    /// Packets dropped: retry budget exhausted, TTL expired, node died
    /// under them, or no surviving route existed.
    pub dropped: u64,
    /// Fault-time router re-consultations (a packet may be retried several
    /// times).
    pub retried: u64,
    /// Delivered packets that survived at least one fault-time retry —
    /// traffic that hit a fault and was healed, kept separate so
    /// [`SimStats::delivered_ratio`] under churn can be decomposed into
    /// clean and repaired deliveries.
    pub recovered: u64,
    /// Packets still queued when the run bailed out on a live-lock.
    pub undelivered: u64,
    /// Whether the run ended because no packet made progress for a full
    /// round rather than because traffic drained.
    pub livelocked: bool,
}

impl SimStats {
    /// Fraction of terminated packets that were delivered:
    /// `delivered / (delivered + dropped + undelivered)` (1.0 for an empty
    /// run). The observable degradation curve of a faulty network.
    #[must_use]
    pub fn delivered_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped + self.undelivered;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

/// A queued packet plus its fault-handling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flight {
    packet: Packet,
    /// Remaining hops before the packet is dropped.
    ttl: u32,
    /// Fault retries consumed so far.
    retries: u32,
    /// The router's hint for the far end of the link the packet is queued
    /// on ([`Router::next_hop_hinted`]); [`NO_HINT`] after a reroute.
    hint: u32,
    /// Earliest cycle the next fault-time retry may fire (exponential
    /// backoff); 0 means no backoff pending.
    not_before: u64,
}

/// The end of a list in [`LinkQueues`].
const NIL: u32 = u32::MAX;

/// One FIFO per directed link (CSR edge id), all threaded through one
/// shared slab of flights: queue `e` is the singly linked list from
/// `head[e]` to `tail[e]` through `next`, and freed slots go on a free
/// list that is reused before the slab grows. The slab therefore holds at
/// most the peak number of packets in flight, whatever the link count.
///
/// A slot is either on one queue, on the free list, or *detached* (held
/// by the caller between [`pop_slot`](Self::pop_slot) and
/// [`push_slot`](Self::push_slot) or [`remove`](Self::remove)).
#[derive(Debug, Clone)]
struct LinkQueues {
    head: Vec<u32>,
    tail: Vec<u32>,
    flights: Vec<Flight>,
    next: Vec<u32>,
    /// Head of the free list, threaded through `next`.
    free: u32,
}

impl LinkQueues {
    fn new(links: usize) -> Self {
        LinkQueues {
            head: vec![NIL; links],
            tail: vec![NIL; links],
            flights: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    fn is_empty(&self, e: usize) -> bool {
        self.head[e] == NIL
    }

    /// Queue `e`'s flights, front first.
    #[cfg(any(test, feature = "obs"))]
    fn iter(&self, e: usize) -> impl Iterator<Item = &Flight> + '_ {
        let link = |i: u32| (i != NIL).then_some(i);
        std::iter::successors(link(self.head[e]), move |&i| link(self.next[i as usize]))
            .map(|i| &self.flights[i as usize])
    }

    fn flight(&self, i: u32) -> &Flight {
        &self.flights[i as usize]
    }

    fn flight_mut(&mut self, i: u32) -> &mut Flight {
        &mut self.flights[i as usize]
    }

    /// Stores `flight` in a detached slot, reusing a freed one if any.
    fn insert(&mut self, flight: Flight) -> Result<u32, EmuError> {
        if self.free != NIL {
            let i = self.free;
            self.free = self.next[i as usize];
            self.flights[i as usize] = flight;
            return Ok(i);
        }
        let i = u32::try_from(self.flights.len())
            .ok()
            .filter(|&i| i != NIL)
            .ok_or(EmuError::SimOutOfRange {
                reason: "more packets in flight than the flight slab indexes",
            })?;
        self.flights.push(flight);
        self.next.push(NIL);
        Ok(i)
    }

    /// Appends the detached slot `i` to queue `e`.
    fn push_slot(&mut self, e: usize, i: u32) {
        self.next[i as usize] = NIL;
        match self.tail[e] {
            NIL => self.head[e] = i,
            t => self.next[t as usize] = i,
        }
        self.tail[e] = i;
    }

    /// Detaches queue `e`'s head slot.
    fn pop_slot(&mut self, e: usize) -> Option<u32> {
        let i = self.head[e];
        if i == NIL {
            return None;
        }
        self.head[e] = self.next[i as usize];
        if self.head[e] == NIL {
            self.tail[e] = NIL;
        }
        Some(i)
    }

    /// Frees the detached slot `i`, returning its flight.
    fn remove(&mut self, i: u32) -> Flight {
        self.next[i as usize] = self.free;
        self.free = i;
        self.flights[i as usize]
    }

    /// Detaches all of queue `e` as a chain for [`pop_chain`](Self::pop_chain).
    fn take(&mut self, e: usize) -> u32 {
        let chain = self.head[e];
        self.head[e] = NIL;
        self.tail[e] = NIL;
        chain
    }

    /// Detaches the first slot of a chain from [`take`](Self::take).
    fn pop_chain(&self, chain: &mut u32) -> Option<u32> {
        let i = *chain;
        if i == NIL {
            return None;
        }
        *chain = self.next[i as usize];
        Some(i)
    }

    /// Empties queue `e`, freeing its slots; returns how many it held.
    fn clear(&mut self, e: usize) -> u64 {
        let mut chain = self.take(e);
        let mut freed = 0;
        while let Some(i) = self.pop_chain(&mut chain) {
            self.remove(i);
            freed += 1;
        }
        freed
    }
}

/// The synchronous store-and-forward simulator.
#[derive(Debug, Clone)]
pub struct SyncSim<'a> {
    graph: &'a DenseGraph,
    model: PortModel,
    /// FIFO per directed link (CSR edge index), in one flight slab.
    queues: LinkQueues,
    /// Bit `e` set iff queue `e` is non-empty.
    occupied: Vec<u64>,
    /// `edge_owner[e]` = the node whose out-edge `e` is.
    edge_owner: Vec<NodeId>,
    /// Round-robin pointer per node (single-port fairness).
    rr: Vec<usize>,
    link_traffic: Vec<u64>,
    /// The largest entry of `link_traffic`.
    max_link_traffic: u64,
    faults: FaultSet,
    ttl_limit: u32,
    retry_limit: u32,
    /// Backoff base delay in cycles; 0 disables backoff (a packet with no
    /// live alternative drops immediately, the pre-chaos behavior).
    backoff_base: u32,
    /// Backoff delay ceiling in cycles.
    backoff_cap: u32,
    /// Current cycle (cumulative across `step`/`run` calls).
    now: u64,
    delivered: u64,
    transmissions: u64,
    dropped: u64,
    retried: u64,
    recovered: u64,
    /// Flights currently parked in backoff (recomputed every step).
    waiting: u64,
    in_flight: u64,
    /// Transmissions of the current step as (far end, detached slab
    /// slot), kept between steps so a step allocates nothing once it
    /// reached its high-water size.
    arrivals: Vec<(NodeId, u32)>,
}

impl<'a> SyncSim<'a> {
    /// Creates an empty simulator over `graph` with no faults, unlimited
    /// TTL, and a retry limit equal to the largest out-degree.
    #[must_use]
    pub fn new(graph: &'a DenseGraph, model: PortModel) -> Self {
        let retry_limit = (0..graph.num_nodes())
            .map(|u| graph.out_degree(u as NodeId))
            .max()
            .unwrap_or(0) as u32;
        let edge_owner = (0..graph.num_nodes() as NodeId)
            .flat_map(|u| graph.edge_range(u).map(move |_| u))
            .collect();
        SyncSim {
            graph,
            model,
            queues: LinkQueues::new(graph.num_edges()),
            occupied: vec![0; graph.num_edges().div_ceil(64)],
            edge_owner,
            rr: vec![0; graph.num_nodes()],
            link_traffic: vec![0; graph.num_edges()],
            max_link_traffic: 0,
            faults: FaultSet::new(),
            ttl_limit: u32::MAX,
            retry_limit,
            backoff_base: 0,
            backoff_cap: 0,
            now: 0,
            delivered: 0,
            transmissions: 0,
            dropped: 0,
            retried: 0,
            recovered: 0,
            waiting: 0,
            in_flight: 0,
            arrivals: Vec::new(),
        }
    }

    /// Sets the per-packet TTL: a packet is dropped once it has traversed
    /// `ttl` links without reaching its destination. `u32::MAX` (the
    /// default) disables the limit.
    #[must_use]
    pub fn with_ttl(mut self, ttl: u32) -> Self {
        self.ttl_limit = ttl;
        self
    }

    /// Sets how many times a packet stuck on a dead link may re-consult
    /// the router before it is dropped.
    #[must_use]
    pub fn with_retry_limit(mut self, retries: u32) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Enables bounded exponential backoff for packets with no live route:
    /// instead of dropping immediately, a retried packet with every
    /// candidate slot dead waits `min(base << (retries − 1), cap)` cycles
    /// before the next router re-consultation — riding out transient
    /// faults until a repair (or a refreshed table) restores a route. The
    /// retry limit still bounds the total number of re-consultations, so
    /// permanent unreachability still terminates as a drop. `base = 0`
    /// restores the immediate-drop policy.
    #[must_use]
    pub fn with_backoff(mut self, base: u32, cap: u32) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// The current cycle (cumulative across `step` and `run` calls).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The faults injected so far.
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// A snapshot of the statistics so far, usable mid-run (`steps` is the
    /// cumulative cycle count, `undelivered` the packets still queued).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        SimStats {
            steps: self.now,
            delivered: self.delivered,
            transmissions: self.transmissions,
            max_link_traffic: self.max_link_traffic,
            dropped: self.dropped,
            retried: self.retried,
            recovered: self.recovered,
            undelivered: self.in_flight,
            livelocked: false,
        }
    }

    /// Whether any packet is queued on a currently-dead slot — the
    /// "traffic still stranded" half of the self-healing health check.
    #[must_use]
    pub fn any_dead_queued(&self) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        self.occupied_edges().any(|e| self.edge_dead(e))
    }

    /// Fails node `u` (fail-stop): the node stops forwarding, every link
    /// touching it goes dead, and all packets currently queued at the node
    /// are lost. Returns the number of packets lost.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if `u` is out of range.
    pub fn fail_node(&mut self, u: NodeId) -> Result<u64, EmuError> {
        if u as usize >= self.graph.num_nodes() {
            return Err(EmuError::SimOutOfRange {
                reason: "failed node out of range",
            });
        }
        self.faults.fail_node(u);
        let mut lost = 0u64;
        for e in self.graph.edge_range(u) {
            lost += self.queues.clear(e);
            self.mark_empty(e);
        }
        self.dropped += lost;
        self.in_flight -= lost;
        #[cfg(feature = "obs")]
        crate::obs_hooks::dropped(lost);
        Ok(lost)
    }

    /// Fails the directed link `u → v`. Packets already queued on it stay
    /// put and are retried (and eventually dropped) on subsequent steps.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if `u → v` is not a link of the
    /// graph.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) -> Result<(), EmuError> {
        if (u as usize) >= self.graph.num_nodes() || self.graph.edge_index(u, v).is_none() {
            return Err(EmuError::SimOutOfRange {
                reason: "failed link does not exist",
            });
        }
        self.faults.fail_link(u, v);
        Ok(())
    }

    /// Repairs node `u`: it resumes forwarding and its links come back up
    /// (unless individually failed). Packets lost while it was down stay
    /// counted as drops — statistics are never rewritten. Returns whether
    /// the node was actually down. Usable mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if `u` is out of range.
    pub fn repair_node(&mut self, u: NodeId) -> Result<bool, EmuError> {
        if u as usize >= self.graph.num_nodes() {
            return Err(EmuError::SimOutOfRange {
                reason: "repaired node out of range",
            });
        }
        Ok(self.faults.repair_node(u))
    }

    /// Repairs the directed link `u → v`; queued packets on it resume
    /// transmitting on the next step. Usable mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if `u → v` is not a link of the
    /// graph.
    pub fn repair_link(&mut self, u: NodeId, v: NodeId) -> Result<bool, EmuError> {
        if (u as usize) >= self.graph.num_nodes() || self.graph.edge_index(u, v).is_none() {
            return Err(EmuError::SimOutOfRange {
                reason: "repaired link does not exist",
            });
        }
        Ok(self.faults.repair_link(u, v))
    }

    /// Fails the cable `u ↔ v` (both directions).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if neither direction is a link
    /// of the graph.
    pub fn fail_link_undirected(&mut self, u: NodeId, v: NodeId) -> Result<(), EmuError> {
        self.check_cable(u, v)?;
        self.faults.fail_link_undirected(u, v);
        Ok(())
    }

    /// Repairs the cable `u ↔ v` (both directions).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if neither direction is a link
    /// of the graph.
    pub fn repair_link_undirected(&mut self, u: NodeId, v: NodeId) -> Result<(), EmuError> {
        self.check_cable(u, v)?;
        self.faults.repair_link_undirected(u, v);
        Ok(())
    }

    fn check_cable(&self, u: NodeId, v: NodeId) -> Result<(), EmuError> {
        let n = self.graph.num_nodes();
        let exists = (u as usize) < n
            && (v as usize) < n
            && (self.graph.edge_index(u, v).is_some() || self.graph.edge_index(v, u).is_some());
        if exists {
            Ok(())
        } else {
            Err(EmuError::SimOutOfRange {
                reason: "cable does not exist",
            })
        }
    }

    /// Applies every [`FaultSchedule`] event due at the current cycle to
    /// the live simulator (node deaths drop their queued packets, repairs
    /// restore liveness) and returns how many events fired. Each applied
    /// event bumps `scg_chaos_events_total{kind=…}` under the `obs`
    /// feature.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if an event names a node or
    /// link outside the graph.
    pub fn apply_chaos(&mut self, schedule: &mut FaultSchedule) -> Result<usize, EmuError> {
        let due = schedule.drain_due(self.now);
        for te in due {
            self.apply_event(te.event)?;
        }
        Ok(due.len())
    }

    /// Applies one chaos event to the live simulator, bumping
    /// `scg_chaos_events_total{kind=…}` under the `obs` feature.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SimOutOfRange`] if the event names a node or
    /// link outside the graph.
    pub fn apply_event(&mut self, event: ChaosEvent) -> Result<(), EmuError> {
        #[cfg(feature = "obs")]
        crate::obs_hooks::chaos_event(event.kind());
        match event {
            ChaosEvent::FailNode(u) => {
                self.fail_node(u)?;
            }
            ChaosEvent::RepairNode(u) => {
                self.repair_node(u)?;
            }
            ChaosEvent::FailLink(u, v) => self.fail_link(u, v)?,
            ChaosEvent::RepairLink(u, v) => {
                self.repair_link(u, v)?;
            }
            ChaosEvent::FailLinkUndirected(u, v) => self.fail_link_undirected(u, v)?,
            ChaosEvent::RepairLinkUndirected(u, v) => self.repair_link_undirected(u, v)?,
        }
        Ok(())
    }

    /// Injects a packet at `at`, routing it immediately (a packet already at
    /// its destination is counted delivered without any transmission).
    ///
    /// # Errors
    ///
    /// * [`EmuError::SimOutOfRange`] — `at` or the destination is out of
    ///   range, `at` is a failed node, or the router's slot is invalid;
    /// * [`EmuError::Unreachable`] — the router reports no route from `at`
    ///   to the destination.
    pub fn inject(
        &mut self,
        at: NodeId,
        packet: Packet,
        router: &impl Router,
    ) -> Result<(), EmuError> {
        let n = self.graph.num_nodes();
        if at as usize >= n || packet.dst as usize >= n {
            return Err(EmuError::SimOutOfRange {
                reason: "inject node out of range",
            });
        }
        if self.faults.node_failed(at) {
            return Err(EmuError::SimOutOfRange {
                reason: "inject at failed node",
            });
        }
        match router.next_hop_hinted(at, &packet, NO_HINT) {
            (NextHop::Deliver, _) => {
                self.delivered += 1;
                #[cfg(feature = "obs")]
                crate::obs_hooks::delivered(0);
            }
            (NextHop::Forward(slot), hint) => {
                if slot >= self.graph.out_degree(at) {
                    return Err(EmuError::SimOutOfRange {
                        reason: "router slot out of range",
                    });
                }
                let base = self.edge_base(at);
                let i = self.queues.insert(Flight {
                    packet,
                    ttl: self.ttl_limit,
                    retries: 0,
                    hint,
                    not_before: 0,
                })?;
                self.push(base + slot, i);
                self.in_flight += 1;
                #[cfg(feature = "obs")]
                crate::obs_hooks::injected();
            }
            (NextHop::Unreachable, _) => {
                #[cfg(feature = "obs")]
                crate::obs_hooks::unreachable();
                return Err(EmuError::Unreachable {
                    node: at,
                    dst: packet.dst,
                });
            }
        }
        Ok(())
    }

    fn edge_base(&self, u: NodeId) -> usize {
        self.graph.edge_range(u).start
    }

    /// Appends the detached slab slot `i` to queue `e`, marking it
    /// occupied.
    fn push(&mut self, e: usize, i: u32) {
        self.queues.push_slot(e, i);
        self.occupied[e / 64] |= 1 << (e % 64);
    }

    /// Clears queue `e`'s occupancy bit; the queue must be empty.
    fn mark_empty(&mut self, e: usize) {
        debug_assert!(self.queues.is_empty(e));
        self.occupied[e / 64] &= !(1 << (e % 64));
    }

    /// The lowest occupied edge id at or after `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.occupied.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.occupied.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The occupied edge ids, in increasing order.
    fn occupied_edges(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_occupied(0), |&e| self.next_occupied(e + 1))
    }

    /// Packets currently queued.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Whether the local out-slot `slot` of node `u` is currently dead.
    fn slot_dead(&self, u: NodeId, slot: usize) -> bool {
        let v = self.graph.out_neighbors(u)[slot];
        self.faults.blocks(u, v)
    }

    /// Whether edge `e` is currently dead.
    fn edge_dead(&self, e: usize) -> bool {
        let u = self.edge_owner[e];
        self.slot_dead(u, e - self.edge_base(u))
    }

    /// Retry phase: drain every queue sitting on a dead link, re-consult
    /// the router with the dead slots masked, and relocate, park (backoff),
    /// or drop each packet.
    fn retry_dead_queues(&mut self, router: &impl Router) -> Result<(), EmuError> {
        self.waiting = 0;
        if self.faults.is_empty() {
            return Ok(());
        }
        // The walk reads the bitmap live. A drained queue is only refilled
        // by its own parked flights (behind the cursor) or by relocations
        // to live slots (skipped), so each dead queue is drained once.
        let mut cursor = 0;
        while let Some(e) = self.next_occupied(cursor) {
            cursor = e + 1;
            let u = self.edge_owner[e];
            // A failed node's queues were already dropped by fail_node.
            if self.faults.node_failed(u) || !self.edge_dead(e) {
                continue;
            }
            let deg = self.graph.out_degree(u);
            let base = self.edge_base(u);
            // Take the backlog so parked flights can be pushed back onto
            // the same (dead) queue without being re-examined.
            let mut backlog = self.queues.take(e);
            self.mark_empty(e);
            while let Some(i) = self.queues.pop_chain(&mut backlog) {
                if self.queues.flight(i).not_before > self.now {
                    self.waiting += 1;
                    self.push(e, i);
                    continue;
                }
                self.in_flight -= 1;
                if self.queues.flight(i).retries >= self.retry_limit {
                    self.queues.remove(i);
                    self.dropped += 1;
                    #[cfg(feature = "obs")]
                    crate::obs_hooks::dropped(1);
                    continue;
                }
                let flight = self.queues.flight_mut(i);
                flight.retries += 1;
                // The packet leaves this link, so its far end changes.
                flight.hint = NO_HINT;
                let flight = *flight;
                self.retried += 1;
                #[cfg(feature = "obs")]
                crate::obs_hooks::retried();
                let hop = {
                    let faults = &self.faults;
                    let graph = self.graph;
                    let dead = move |s: usize| faults.blocks(u, graph.out_neighbors(u)[s]);
                    router.reroute(u, &flight.packet, deg, &dead)
                };
                match hop {
                    NextHop::Deliver => {
                        self.queues.remove(i);
                        self.delivered += 1;
                        self.recovered += 1;
                        #[cfg(feature = "obs")]
                        crate::obs_hooks::delivered(u64::from(self.ttl_limit - flight.ttl));
                    }
                    NextHop::Forward(s) if s < deg && !self.slot_dead(u, s) => {
                        self.push(base + s, i);
                        self.in_flight += 1;
                    }
                    NextHop::Forward(s) if s >= deg => {
                        return Err(EmuError::SimOutOfRange {
                            reason: "router slot out of range",
                        });
                    }
                    // Rerouted onto another dead slot or unreachable: the
                    // packet has nowhere live to go. With backoff enabled
                    // it parks and waits for a repair (the retry limit
                    // still bounds total attempts); without, it drops
                    // immediately.
                    NextHop::Forward(_) | NextHop::Unreachable => {
                        if self.backoff_base > 0 {
                            let exp = flight.retries.saturating_sub(1).min(20);
                            let delay = (u64::from(self.backoff_base) << exp)
                                .clamp(1, u64::from(self.backoff_cap).max(1));
                            self.queues.flight_mut(i).not_before = self.now + delay;
                            self.waiting += 1;
                            self.push(e, i);
                            self.in_flight += 1;
                        } else {
                            self.queues.remove(i);
                            self.dropped += 1;
                            #[cfg(feature = "obs")]
                            crate::obs_hooks::dropped(1);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Detaches the next transmittable flight of queue `e`, dropping
    /// TTL-exhausted heads (they do not consume link capacity).
    fn pop_transmittable(&mut self, e: usize) -> Option<u32> {
        let mut sent = None;
        while let Some(i) = self.queues.pop_slot(e) {
            self.in_flight -= 1;
            if self.queues.flight(i).ttl == 0 {
                self.queues.remove(i);
                self.dropped += 1;
                #[cfg(feature = "obs")]
                crate::obs_hooks::dropped(1);
                continue;
            }
            sent = Some(i);
            break;
        }
        if self.queues.is_empty(e) {
            self.mark_empty(e);
        }
        sent
    }

    /// Sends the next transmittable flight on out-slot `slot` of `u`
    /// (edge `base + slot`) and returns its far end and detached slot.
    fn transmit(&mut self, u: NodeId, base: usize, slot: usize) -> Option<(NodeId, u32)> {
        let i = self.pop_transmittable(base + slot)?;
        let traffic = &mut self.link_traffic[base + slot];
        *traffic += 1;
        self.max_link_traffic = self.max_link_traffic.max(*traffic);
        self.queues.flight_mut(i).ttl -= 1;
        Some((self.graph.out_neighbors(u)[slot], i))
    }

    /// Runs one synchronous step; returns the number of packets moved.
    ///
    /// # Errors
    ///
    /// Propagates router slot violations.
    pub fn step(&mut self, router: &impl Router) -> Result<u64, EmuError> {
        #[cfg(feature = "obs")]
        let delivered_before = self.delivered;
        self.now += 1;
        self.retry_dead_queues(router)?;
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        // Without faults no slot is dead; a dead one (a failed node's
        // included) never transmits.
        let faulty = !self.faults.is_empty();
        let mut cursor = 0;
        while let Some(e) = self.next_occupied(cursor) {
            let u = self.edge_owner[e];
            let base = self.edge_base(u);
            match self.model {
                PortModel::AllPort => {
                    cursor = e + 1;
                    let slot = e - base;
                    if !(faulty && self.slot_dead(u, slot)) {
                        arrivals.extend(self.transmit(u, base, slot));
                    }
                }
                PortModel::SinglePort => {
                    let deg = self.graph.out_degree(u);
                    cursor = base + deg;
                    let start = self.rr[u as usize];
                    for off in 0..deg {
                        let slot = (start + off) % deg;
                        if faulty && self.slot_dead(u, slot) {
                            continue;
                        }
                        if let Some(arrival) = self.transmit(u, base, slot) {
                            arrivals.push(arrival);
                            self.rr[u as usize] = (slot + 1) % deg;
                            break;
                        }
                    }
                }
            }
        }
        let moved = arrivals.len() as u64;
        self.transmissions += moved;
        for (v, i) in arrivals.drain(..) {
            let flight = self.queues.flight(i);
            match router.next_hop_hinted(v, &flight.packet, flight.hint) {
                (NextHop::Deliver, _) => {
                    let flight = self.queues.remove(i);
                    self.delivered += 1;
                    self.recovered += u64::from(flight.retries > 0);
                    #[cfg(feature = "obs")]
                    crate::obs_hooks::delivered(u64::from(self.ttl_limit - flight.ttl));
                }
                (NextHop::Forward(slot), hint) => {
                    if slot >= self.graph.out_degree(v) {
                        return Err(EmuError::SimOutOfRange {
                            reason: "router slot out of range",
                        });
                    }
                    // Queue even if the slot is currently dead: the retry
                    // phase of the next step re-consults the router.
                    self.queues.flight_mut(i).hint = hint;
                    let base = self.edge_base(v);
                    self.push(base + slot, i);
                    self.in_flight += 1;
                }
                // Mid-flight unreachability is fault-induced; count the
                // drop rather than poisoning the whole run.
                (NextHop::Unreachable, _) => {
                    self.queues.remove(i);
                    self.dropped += 1;
                    #[cfg(feature = "obs")]
                    crate::obs_hooks::dropped(1);
                }
            }
        }
        self.arrivals = arrivals;
        #[cfg(feature = "obs")]
        self.obs_record_step(moved, self.delivered - delivered_before);
        Ok(moved)
    }

    /// Per-cycle metric readings (compiled only with the `obs` feature).
    #[cfg(feature = "obs")]
    fn obs_record_step(&self, moved: u64, delivered_delta: u64) {
        // Empty queues have length 0, so the occupied ones hold the peak.
        let queue_peak = self
            .occupied_edges()
            .map(|e| self.queues.iter(e).count())
            .max()
            .unwrap_or(0);
        crate::obs_hooks::step(
            moved,
            delivered_delta,
            self.in_flight,
            i64::try_from(queue_peak).unwrap_or(i64::MAX),
        );
    }

    /// Runs until every packet is delivered or dropped, returning
    /// statistics. Bails out early — with [`SimStats::livelocked`] set —
    /// when traffic stops making progress: either a true fixed point
    /// (nothing moved, nothing retried, nothing dropped for a full step) or
    /// a delivery drought longer than `num_nodes + in_flight` steps
    /// (packets circulating without ever terminating).
    ///
    /// # Errors
    ///
    /// * [`EmuError::SimOutOfRange`] — router misbehavior;
    /// * [`EmuError::InvalidSchedule`] — `max_steps` elapsed with packets
    ///   still in flight (bound blowout).
    pub fn run(&mut self, router: &impl Router, max_steps: u64) -> Result<SimStats, EmuError> {
        let mut steps = 0u64;
        let mut drought = 0u64;
        let mut livelocked = false;
        while self.in_flight > 0 {
            if steps >= max_steps {
                return Err(EmuError::InvalidSchedule {
                    reason: format!(
                        "{} packets undelivered after {max_steps} steps",
                        self.in_flight
                    ),
                });
            }
            let before = (self.delivered, self.dropped, self.retried);
            let moved = self.step(router)?;
            steps += 1;
            let terminated = (self.delivered, self.dropped) != (before.0, before.1);
            // A flight parked in backoff counts as progress: it is waiting
            // out a known-bounded delay (each expiry consumes a retry, so
            // total parked time is finite), not circulating.
            drought = if terminated || self.waiting > 0 {
                0
            } else {
                drought + 1
            };
            let fixed_point = moved == 0
                && self.waiting == 0
                && (self.delivered, self.dropped, self.retried) == before;
            let drought_limit = self.graph.num_nodes() as u64 + self.in_flight + 1;
            if self.in_flight > 0 && (fixed_point || drought > drought_limit) {
                livelocked = true;
                break;
            }
        }
        #[cfg(feature = "obs")]
        crate::obs_hooks::run_done(steps, livelocked, self.in_flight);
        Ok(SimStats {
            steps,
            delivered: self.delivered,
            transmissions: self.transmissions,
            max_link_traffic: self.max_link_traffic,
            dropped: self.dropped,
            retried: self.retried,
            recovered: self.recovered,
            undelivered: self.in_flight,
            livelocked,
        })
    }

    /// Per-link transmission counts so far (CSR edge order).
    #[must_use]
    pub fn link_traffic(&self) -> &[u64] {
        &self.link_traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scg_core::{materialize, CayleyNetwork, SuperCayleyGraph, DEFAULT_NET_CAP};
    use scg_perm::{Perm, XorShift64};

    fn ring(n: usize) -> DenseGraph {
        DenseGraph::from_neighbor_fn(n, |u| {
            vec![(u + 1) % n as NodeId, (u + n as NodeId - 1) % n as NodeId]
        })
    }

    fn pkt(src: NodeId, dst: NodeId) -> Packet {
        Packet {
            src,
            dst,
            payload: 0,
        }
    }

    #[test]
    fn table_router_routes_shortest() {
        let g = ring(8);
        let r = TableRouter::new(&g).unwrap();
        let p = pkt(0, 3);
        // From 0 toward 3: slot leading to node 1 (forward around the ring).
        let NextHop::Forward(slot) = r.next_hop(0, &p) else {
            panic!("expected a forwarding decision")
        };
        assert_eq!(g.out_neighbors(0)[slot], 1);
        assert_eq!(r.next_hop(3, &p), NextHop::Deliver);
    }

    #[test]
    fn table_router_reports_unreachable() {
        // 0 → 1, and 2 is isolated from them.
        let g = DenseGraph::from_edges(3, [(0, 1), (1, 0)]).unwrap();
        let r = TableRouter::new(&g).unwrap();
        assert_eq!(r.next_hop(0, &pkt(0, 2)), NextHop::Unreachable);
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        assert!(matches!(
            sim.inject(0, pkt(0, 2), &r),
            Err(EmuError::Unreachable { node: 0, dst: 2 })
        ));
    }

    #[test]
    fn survivor_router_avoids_faults() {
        let g = ring(8);
        let mut faults = FaultSet::new();
        faults.fail_node(1);
        let r = TableRouter::new_with_faults(&g, &faults).unwrap();
        // 0 → 2 must go the long way (via 7) since node 1 is dead.
        let NextHop::Forward(slot) = r.next_hop(0, &pkt(0, 2)) else {
            panic!("2 is still reachable")
        };
        assert_eq!(g.out_neighbors(0)[slot], 7);
        // The dead node itself is unreachable as a destination.
        assert_eq!(r.next_hop(0, &pkt(0, 1)), NextHop::Unreachable);
    }

    #[test]
    fn single_packet_takes_distance_steps() {
        let g = ring(8);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(0, pkt(0, 3), &r).unwrap();
        let stats = sim.run(&r, 100).unwrap();
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.transmissions, 3);
        assert_eq!(stats.dropped, 0);
        assert!(!stats.livelocked);
        assert!((stats.delivered_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn all_port_beats_single_port_under_fanout() {
        let g = ring(6);
        let r = TableRouter::new(&g).unwrap();
        // Node 0 sends to both neighbors; all-port: 1 step, single-port: 2.
        let mk = |model| {
            let mut sim = SyncSim::new(&g, model);
            for dst in [1u32, 5] {
                sim.inject(0, pkt(0, dst), &r).unwrap();
            }
            sim.run(&r, 100).unwrap().steps
        };
        assert_eq!(mk(PortModel::AllPort), 1);
        assert_eq!(mk(PortModel::SinglePort), 2);
    }

    #[test]
    fn link_capacity_is_one_per_step() {
        let g = ring(6);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        // Two packets from 0 to 2 must serialize on the 0→1 link.
        for _ in 0..2 {
            sim.inject(0, pkt(0, 2), &r).unwrap();
        }
        let stats = sim.run(&r, 100).unwrap();
        assert_eq!(stats.steps, 3); // second packet starts one step late
        assert_eq!(stats.max_link_traffic, 2);
    }

    #[test]
    fn injection_at_destination_counts_delivered() {
        let g = ring(4);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(2, pkt(2, 2), &r).unwrap();
        assert_eq!(sim.in_flight(), 0);
        let stats = sim.run(&r, 10).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn run_detects_step_blowout() {
        let g = ring(8);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(0, pkt(0, 4), &r).unwrap();
        assert!(sim.run(&r, 2).is_err());
    }

    #[test]
    fn mid_run_link_fault_rerouted_with_updated_table() {
        let g = ring(8);
        let stale = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(0, pkt(0, 2), &stale).unwrap();
        // Kill the link the packet is queued on, then run with a
        // survivor-rebuilt table (the fault was detected and tables
        // refreshed): the retry re-consults it and the packet goes the
        // long way round (6 hops via 7) instead of being lost.
        sim.fail_link(0, 1).unwrap();
        let fresh = TableRouter::new_with_faults(&g, sim.faults()).unwrap();
        let stats = sim.run(&fresh, 100).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
        assert!(stats.retried >= 1);
        assert!(stats.steps > 2, "the detour is longer than the direct path");
    }

    #[test]
    fn stale_router_deflection_drops_after_retry_budget() {
        let g = ring(8);
        let stale = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(0, pkt(0, 2), &stale).unwrap();
        sim.fail_link(0, 1).unwrap();
        // With the stale table, deflection bounces 0 ↔ 7 (7's route to 2
        // re-enters the dead link), so the retry budget caps the bouncing
        // and the packet is dropped instead of spinning forever.
        let stats = sim.run(&stale, 1_000).unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
        assert!(stats.retried >= 1);
        assert!(!stats.livelocked);
    }

    #[test]
    fn node_fault_drops_queued_packets() {
        let g = ring(8);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(3, pkt(3, 5), &r).unwrap();
        let lost = sim.fail_node(3).unwrap();
        assert_eq!(lost, 1);
        assert_eq!(sim.in_flight(), 0);
        let stats = sim.run(&r, 10).unwrap();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
        assert!((stats.delivered_ratio() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn retry_limit_bounds_fault_retries() {
        let g = ring(4);
        let r = TableRouter::new(&g).unwrap();
        // Retry limit 0: the first dead-slot encounter drops the packet.
        let mut sim = SyncSim::new(&g, PortModel::AllPort).with_retry_limit(0);
        sim.inject(0, pkt(0, 1), &r).unwrap();
        sim.fail_link(0, 1).unwrap();
        let stats = sim.run(&r, 10).unwrap();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.retried, 0);
    }

    #[test]
    fn ttl_expiry_drops_packets() {
        let g = ring(8);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort).with_ttl(2);
        sim.inject(0, pkt(0, 4), &r).unwrap(); // distance 4 > ttl 2
        sim.inject(0, pkt(0, 2), &r).unwrap(); // distance 2 fits exactly
        let stats = sim.run(&r, 100).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 1);
        assert!((stats.delivered_ratio() - 0.5).abs() < f64::EPSILON);
    }

    /// A router that keeps every packet circling the ring forever.
    struct Spinner;
    impl Router for Spinner {
        fn next_hop(&self, _at: NodeId, _packet: &Packet) -> NextHop {
            NextHop::Forward(0)
        }
    }

    #[test]
    fn undeliverable_traffic_reports_livelock_instead_of_spinning() {
        let g = ring(6);
        let table = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.inject(0, pkt(0, 3), &table).unwrap();
        // Drive the sim with a router that never delivers: run() must bail
        // out with a live-lock report long before max_steps.
        let stats = sim.run(&Spinner, 1_000_000).unwrap();
        assert!(stats.livelocked);
        assert_eq!(stats.undelivered, 1);
        assert_eq!(stats.delivered, 0);
        assert!(stats.steps < 100);
        assert!(stats.delivered_ratio() < f64::EPSILON);
    }

    #[test]
    fn degree_minus_one_faults_still_deliver_with_survivor_router() {
        // Ring connectivity is 2, so 1 arbitrary node fault keeps the
        // survivors connected and a survivor-table router delivers 100%.
        let g = ring(10);
        let mut faults = FaultSet::new();
        faults.fail_node(4);
        let r = TableRouter::new_with_faults(&g, &faults).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        sim.fail_node(4).unwrap();
        let mut injected = 0u64;
        for src in [0u32, 2, 7] {
            for dst in [3u32, 8, 9] {
                sim.inject(src, pkt(src, dst), &r).unwrap();
                injected += 1;
            }
        }
        let stats = sim.run(&r, 1_000).unwrap();
        assert_eq!(stats.delivered, injected);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn delivered_ratio_is_one_for_zero_packet_run() {
        // Regression: 0 delivered / 0 terminated must read as a perfect
        // run (1.0), never 0/0 = NaN.
        let g = ring(6);
        let r = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, PortModel::AllPort);
        let stats = sim.run(&r, 100).unwrap();
        assert_eq!(stats.delivered + stats.dropped + stats.undelivered, 0);
        assert!(stats.delivered_ratio().is_finite());
        assert!((stats.delivered_ratio() - 1.0).abs() < f64::EPSILON);
    }

    /// The ten classes of Table II at `k = nl + 1`.
    fn ten_classes(l: usize, n: usize) -> Vec<SuperCayleyGraph> {
        vec![
            SuperCayleyGraph::macro_star(l, n).unwrap(),
            SuperCayleyGraph::rotation_star(l, n).unwrap(),
            SuperCayleyGraph::complete_rotation_star(l, n).unwrap(),
            SuperCayleyGraph::macro_rotator(l, n).unwrap(),
            SuperCayleyGraph::rotation_rotator(l, n).unwrap(),
            SuperCayleyGraph::complete_rotation_rotator(l, n).unwrap(),
            SuperCayleyGraph::insertion_selection(n * l + 1).unwrap(),
            SuperCayleyGraph::macro_is(l, n).unwrap(),
            SuperCayleyGraph::rotation_is(l, n).unwrap(),
            SuperCayleyGraph::complete_rotation_is(l, n).unwrap(),
        ]
    }

    /// The full `N × N` table over the fault-free `graph`, built by the
    /// code that serves faulty refreshes.
    fn full_table(graph: &DenseGraph) -> TableRouter {
        let mut r = TableRouter::new(graph).unwrap();
        r.translated = false;
        TableRouter::build_full(graph, &FaultSet::new(), &mut r.slots, &mut r.scratch);
        r
    }

    fn assert_same_decisions(a: &TableRouter, b: &TableRouter, n: usize, name: &str) {
        for dst in 0..n as NodeId {
            let p = pkt(0, dst);
            for u in 0..n as NodeId {
                assert_eq!(a.next_hop(u, &p), b.next_hop(u, &p), "{name}: {u} → {dst}");
            }
        }
    }

    /// Every table walk from every node reaches every destination in its
    /// BFS distance.
    fn assert_routes_shortest(g: &DenseGraph, r: &TableRouter) {
        let n = g.num_nodes() as NodeId;
        for src in 0..n {
            let dist = g.bfs_distances(src);
            for dst in 0..n {
                let (mut at, mut hops) = (src, 0);
                while let NextHop::Forward(slot) = r.next_hop(at, &pkt(src, dst)) {
                    at = g.out_neighbors(at)[slot];
                    hops += 1;
                }
                assert_eq!(r.next_hop(at, &pkt(src, dst)), NextHop::Deliver);
                assert_eq!((at, hops), (dst, dist[dst as usize]), "{src} → {dst}");
            }
        }
    }

    #[test]
    fn translated_table_matches_full_table_on_ten_k5_classes_and_is6() {
        let mut nets = ten_classes(2, 2);
        nets.push(SuperCayleyGraph::insertion_selection(6).unwrap());
        for net in nets {
            let mat = materialize(&net, DEFAULT_NET_CAP).unwrap();
            let g = mat.graph();
            let r = TableRouter::new(g).unwrap();
            assert!(r.translated && r.slots.is_empty(), "{}", net.name());
            assert_same_decisions(&r, &full_table(g), g.num_nodes(), &net.name());
        }
    }

    #[test]
    fn translated_table_matches_per_destination_bfs_on_ms32() {
        let mat = materialize(
            &SuperCayleyGraph::macro_star(3, 2).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let n = g.num_nodes();
        let r = TableRouter::new(g).unwrap();
        assert!(r.translated);
        let faults = FaultSet::new();
        let mut scratch = RefreshScratch::default();
        scratch.reverse_csr(g, &faults);
        let mut column = vec![TableSlot::Unreachable; n];
        let mut rng = XorShift64::new(0x5C67);
        for _ in 0..64 {
            let dst = rng.gen_range(n);
            column.fill(TableSlot::Unreachable);
            scratch.fill_column(g, &faults, dst, &mut column);
            for (u, &slot) in column.iter().enumerate() {
                let want = match slot {
                    TableSlot::Toward(s) => NextHop::Forward(usize::from(s)),
                    TableSlot::Destination => NextHop::Deliver,
                    TableSlot::Unreachable => NextHop::Unreachable,
                };
                assert_eq!(
                    r.next_hop(u as NodeId, &pkt(0, dst as NodeId)),
                    want,
                    "{u} → {dst}"
                );
            }
        }
    }

    /// Every `(u, dst)` pair of all ten classes at `k = 7` (25.4 M pairs
    /// each, ~1 min in release), plus the hinted walk of every pair on
    /// MS(3,2): run with `--ignored`.
    #[test]
    #[ignore = "exhaustive k = 7 sweep; run in release with --ignored"]
    fn translated_table_matches_full_table_exhaustive_k7() {
        for (i, net) in ten_classes(3, 2).into_iter().enumerate() {
            let mat = materialize(&net, DEFAULT_NET_CAP).unwrap();
            let g = mat.graph();
            let r = TableRouter::new(g).unwrap();
            assert!(r.translated, "{}", net.name());
            let full = full_table(g);
            assert_same_decisions(&r, &full, g.num_nodes(), &net.name());
            if i == 0 {
                // The full table's decisions are plain `next_hop`'s, as
                // just checked, and cost one read each.
                assert_hinted_walks(g, &r, &full, &net.name());
            }
        }
    }

    /// Walks every `(src, dst)` pair with `r`'s hinted lookup, feeding
    /// each returned hint back in: at every node the decision must equal
    /// `plain`'s `next_hop`, and the walk must deliver after exactly the
    /// BFS distance.
    fn assert_hinted_walks(g: &DenseGraph, r: &TableRouter, plain: &TableRouter, name: &str) {
        let n = g.num_nodes() as NodeId;
        for src in 0..n {
            let dist = g.bfs_distances(src);
            for dst in 0..n {
                let p = pkt(src, dst);
                let (mut at, mut hint, mut hops) = (src, NO_HINT, 0);
                loop {
                    let (hop, far_hint) = r.next_hop_hinted(at, &p, hint);
                    assert_eq!(hop, plain.next_hop(at, &p), "{name}: {src} → {dst} at {at}");
                    let NextHop::Forward(slot) = hop else { break };
                    at = g.out_neighbors(at)[slot];
                    hint = far_hint;
                    hops += 1;
                }
                assert_eq!(
                    (at, hops),
                    (dst, dist[dst as usize]),
                    "{name}: {src} → {dst}"
                );
            }
        }
    }

    #[test]
    fn hinted_walks_match_next_hop_on_ten_k5_classes_and_is6() {
        let mut nets = ten_classes(2, 2);
        nets.push(SuperCayleyGraph::insertion_selection(6).unwrap());
        for net in nets {
            let mat = materialize(&net, DEFAULT_NET_CAP).unwrap();
            let g = mat.graph();
            let r = TableRouter::new(g).unwrap();
            assert!(r.translated, "{}", net.name());
            assert_hinted_walks(g, &r, &r, &net.name());
        }
    }

    /// A [`TableRouter`] seen through `next_hop` alone: the default
    /// hinted lookup, so every decision starts from a cleared hint.
    struct Unhinted<'a>(&'a TableRouter);
    impl Router for Unhinted<'_> {
        fn next_hop(&self, at: NodeId, packet: &Packet) -> NextHop {
            self.0.next_hop(at, packet)
        }
    }

    /// Flights queued in `sim` that carry a hint.
    fn hinted_flights(sim: &SyncSim<'_>) -> usize {
        sim.occupied_edges()
            .flat_map(|e| sim.queues.iter(e))
            .filter(|f| f.hint != NO_HINT)
            .count()
    }

    #[test]
    fn hints_stay_valid_across_translated_survivor_translated_refreshes() {
        let mat = materialize(
            &SuperCayleyGraph::macro_star(2, 2).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let n = g.num_nodes();
        let mut router = TableRouter::new(g).unwrap();
        let mut hinted = SyncSim::new(g, PortModel::AllPort).with_backoff(1, 4);
        let mut cleared = hinted.clone();
        // Three permutation rounds at once keep the queues deep across
        // both refreshes.
        let mut rng = XorShift64::new(0x41A7);
        for round in 0..3 {
            let mut dst: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut dst);
            for (u, &v) in dst.iter().enumerate() {
                let p = Packet {
                    src: u as NodeId,
                    dst: v,
                    payload: round,
                };
                hinted.inject(u as NodeId, p, &router).unwrap();
                cleared.inject(u as NodeId, p, &Unhinted(&router)).unwrap();
            }
        }
        // Cycle 1 cuts the cable under the longest queue, whose packets
        // retry with the stale translated table; cycle 2 refreshes to the
        // survivor table, and cycle 4 repairs the cable and goes back to
        // translation.
        let e = hinted
            .occupied_edges()
            .max_by_key(|&e| hinted.queues.iter(e).count())
            .unwrap();
        let u = hinted.edge_owner[e];
        let cut = (u, g.out_neighbors(u)[e - hinted.edge_base(u)]);
        let mut carried = 0;
        for cycle in 0..7 {
            for sim in [&mut hinted, &mut cleared] {
                match cycle {
                    1 => sim.fail_link_undirected(cut.0, cut.1).unwrap(),
                    4 => sim.repair_link_undirected(cut.0, cut.1).unwrap(),
                    _ => {}
                }
            }
            if cycle == 2 || cycle == 4 {
                router.refresh_with_faults(g, hinted.faults()).unwrap();
                assert_eq!(router.translated, cycle == 4);
                if cycle == 4 {
                    carried = hinted_flights(&hinted);
                }
            }
            let moved = hinted.step(&router).unwrap();
            assert_eq!(moved, cleared.step(&Unhinted(&router)).unwrap());
            assert_eq!(hinted.stats(), cleared.stats(), "cycle {cycle}");
            assert_eq!(hinted.link_traffic(), cleared.link_traffic());
        }
        assert!(carried > 0, "no hint outlived the survivor table");
        let stats = hinted.run(&router, 1_000).unwrap();
        assert_eq!(stats, cleared.run(&Unhinted(&router), 1_000).unwrap());
        assert_eq!(stats.delivered + stats.dropped, 3 * n as u64);
        assert!(stats.retried > 0);
    }

    /// Queue `e`'s payloads, front first.
    fn payloads(q: &LinkQueues, e: usize) -> Vec<u64> {
        q.iter(e).map(|f| f.packet.payload).collect()
    }

    #[test]
    fn link_queues_match_a_vecdeque_model() {
        let links = 37;
        let mut q = LinkQueues::new(links);
        let mut model: Vec<VecDeque<Flight>> = vec![VecDeque::new(); links];
        let mut rng = XorShift64::new(0x51AB);
        let (mut next_id, mut peak) = (0u64, 0usize);
        let flight = |payload| Flight {
            packet: Packet {
                src: 0,
                dst: 1,
                payload,
            },
            ttl: 0,
            retries: 0,
            hint: NO_HINT,
            not_before: 0,
        };
        for _ in 0..6_000 {
            let e = rng.gen_range(links);
            match rng.gen_range(8) {
                // Push: injection or forwarding.
                0..=3 => {
                    let i = q.insert(flight(next_id)).unwrap();
                    q.push_slot(e, i);
                    model[e].push_back(flight(next_id));
                    next_id += 1;
                }
                // Pop: a transmission.
                4 | 5 => {
                    assert_eq!(q.pop_slot(e).map(|i| q.remove(i)), model[e].pop_front());
                }
                // A node failure empties the queue.
                6 => {
                    assert_eq!(q.clear(e), model[e].len() as u64);
                    model[e].clear();
                }
                // The retry phase: take the queue, then park each flight
                // back on it, move it to another link, or drop it.
                _ => {
                    let mut chain = q.take(e);
                    let backlog = std::mem::take(&mut model[e]);
                    for want in backlog {
                        let i = q.pop_chain(&mut chain).unwrap();
                        assert_eq!(*q.flight(i), want);
                        match rng.gen_range(3) {
                            0 => {
                                q.push_slot(e, i);
                                model[e].push_back(want);
                            }
                            1 => {
                                let f = rng.gen_range(links);
                                q.push_slot(f, i);
                                model[f].push_back(want);
                            }
                            _ => assert_eq!(q.remove(i), want),
                        }
                    }
                    assert_eq!(q.pop_chain(&mut chain), None);
                }
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            peak = peak.max(live);
            for (f, want) in model.iter().enumerate() {
                assert_eq!(q.is_empty(f), want.is_empty());
                let want: Vec<u64> = want.iter().map(|f| f.packet.payload).collect();
                assert_eq!(payloads(&q, f), want, "link {f}");
            }
            // The slab grows only when every slot holds a live flight.
            assert_eq!(q.flights.len(), peak);
        }
        assert!(peak > 20, "the model never built up a backlog");
    }

    #[test]
    fn repeated_rounds_reuse_the_flight_slab() {
        let mat = materialize(
            &SuperCayleyGraph::macro_star(2, 2).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let n = g.num_nodes();
        let r = TableRouter::new(g).unwrap();
        let mut dst: Vec<NodeId> = (0..n as NodeId).collect();
        XorShift64::new(0x5AB).shuffle(&mut dst);
        let mut sim = SyncSim::new(g, PortModel::AllPort);
        let mut slab = None;
        for _ in 0..4 {
            for (u, &v) in dst.iter().enumerate() {
                sim.inject(u as NodeId, pkt(u as NodeId, v), &r).unwrap();
            }
            let stats = sim.run(&r, 100).unwrap();
            assert_eq!(stats.undelivered, 0);
            let len = sim.queues.flights.len();
            assert!(len <= n, "{len} slots for {n} packets");
            assert_eq!(*slab.get_or_insert(len), len);
        }
    }

    #[test]
    fn modulo_matches_the_remainder() {
        let mut rng = XorShift64::new(0x7B1E);
        for _ in 0..2_000 {
            let h = rng.next_u64() as usize;
            for c in 1..=64 {
                assert_eq!(modulo(h, c), h % c, "{h} % {c}");
            }
        }
        assert_eq!(tie_break(5, 9, 7), (5 * 0x9E37_79B9 + 9 * 0x85EB_CA6B) % 7);
    }

    #[test]
    fn non_cayley_graphs_fall_back_to_full_table() {
        // Rings of 3! and 4! nodes have the right size but not the links.
        for n in [6, 24] {
            let g = ring(n);
            let r = TableRouter::new(&g).unwrap();
            assert!(!r.translated, "ring({n})");
            assert_routes_shortest(&g, &r);
        }
        // MS(2,2) with two node ids swapped is still a Cayley graph, but
        // not under rank labels.
        let mat = materialize(
            &SuperCayleyGraph::macro_star(2, 2).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let swap = |v: NodeId| match v {
            3 => 77,
            77 => 3,
            v => v,
        };
        let h = DenseGraph::from_neighbor_fn(g.num_nodes(), |u| {
            g.out_neighbors(swap(u)).iter().map(|&v| swap(v)).collect()
        });
        let r = TableRouter::new(&h).unwrap();
        assert!(!r.translated);
        assert_routes_shortest(&h, &r);
        // MS(2,2) with one link rewired, for every link of a few nodes:
        // the stray neighbor sorts just below the link it replaces.
        for u in 0..8 {
            let outs = g.out_neighbors(u);
            for i in 0..outs.len() {
                let stray = outs[i].wrapping_sub(1);
                if stray >= g.num_nodes() as NodeId || stray == u || outs.contains(&stray) {
                    continue;
                }
                let h = DenseGraph::from_neighbor_fn(g.num_nodes(), |w| {
                    let mut outs = g.out_neighbors(w).to_vec();
                    if w == u {
                        outs[i] = stray;
                    }
                    outs
                });
                let r = TableRouter::new(&h).unwrap();
                assert!(!r.translated, "link {i} of node {u} rewired");
            }
        }
    }

    #[test]
    fn faults_use_survivor_table_and_repair_restores_translation() {
        let mat = materialize(
            &SuperCayleyGraph::macro_star(2, 2).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let n = g.num_nodes();
        let fresh = TableRouter::new(g).unwrap();
        let mut r = fresh.clone();
        let cut = g.out_neighbors(0)[0];
        let mut faults = FaultSet::new();
        faults.fail_node(7);
        faults.fail_link_undirected(0, cut);
        r.refresh_with_faults(g, &faults).unwrap();
        assert!(!r.translated && r.slots.len() == n * n);
        assert_same_decisions(
            &r,
            &TableRouter::new_with_faults(g, &faults).unwrap(),
            n,
            "faulty",
        );
        assert_eq!(r.next_hop(0, &pkt(0, 7)), NextHop::Unreachable);
        // Survivor routes avoid the dead node and the cut cable.
        for src in (0..n as NodeId).filter(|&u| u != 7) {
            let dst = (src + 60) % n as NodeId;
            let mut at = src;
            while let NextHop::Forward(slot) = r.next_hop(at, &pkt(src, dst)) {
                let next = g.out_neighbors(at)[slot];
                assert!(
                    !faults.blocks(at, next),
                    "{src} → {dst} crosses {at} → {next}"
                );
                at = next;
            }
            assert!(at == dst || dst == 7, "{src} → {dst} stopped at {at}");
        }
        faults.repair_node(7);
        faults.repair_link_undirected(0, cut);
        assert!(faults.is_empty());
        r.refresh_with_faults(g, &faults).unwrap();
        assert!(r.translated);
        assert_same_decisions(&r, &fresh, n, "repaired");
    }

    /// The fault-free simulator at `k = 8`, where the full table would
    /// need 3.2 GB: one packet per node to its image under a seeded
    /// permutation, all delivered over shortest paths
    /// (`dist(u, v) = dist(e, u⁻¹ ∘ v)`, one BFS from the identity).
    #[test]
    fn is8_permutation_round_delivers_on_shortest_paths() {
        let mat = materialize(
            &SuperCayleyGraph::insertion_selection(8).unwrap(),
            DEFAULT_NET_CAP,
        )
        .unwrap();
        let g = mat.graph();
        let n = g.num_nodes();
        assert_eq!(n, 40_320);
        let r = TableRouter::new(g).unwrap();
        assert!(r.translated && r.slots.is_empty());
        let labels: Vec<Perm> = (0..n as u64)
            .map(|x| Perm::from_rank(8, x).unwrap())
            .collect();
        let d0 = g.bfs_distances(0);
        let mut dst: Vec<NodeId> = (0..n as NodeId).collect();
        XorShift64::new(0x1508).shuffle(&mut dst);
        let hops: u64 = dst
            .iter()
            .enumerate()
            .map(|(u, &v)| {
                let x = labels[u].inverse().compose(&labels[v as usize]).rank();
                u64::from(d0[x as usize])
            })
            .sum();
        let mut sim = SyncSim::new(g, PortModel::AllPort);
        for (u, &v) in dst.iter().enumerate() {
            sim.inject(u as NodeId, pkt(u as NodeId, v), &r).unwrap();
        }
        // The round takes 10 steps; a wrong table fails fast instead of
        // circling until the live-lock check.
        let stats = sim.run(&r, 100).unwrap();
        assert_eq!(stats.delivered, n as u64);
        assert_eq!((stats.dropped, stats.undelivered), (0, 0));
        assert!(!stats.livelocked);
        assert_eq!(stats.transmissions, hops);
    }
}
