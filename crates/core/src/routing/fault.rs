//! Fault-tolerant routing on packed labels: the paper's emulation route
//! with detour search and a survivor-graph BFS fallback.
//!
//! Super Cayley graphs inherit the star/rotator property that connectivity
//! equals degree, so any `degree − 1` fail-stop faults leave the survivors
//! connected and [`route_faulty`] is total on them (for `k ≥ 10` up to a
//! bound on the fallback search). The router is layered
//! by cost:
//!
//! 1. walk the fault-free emulation route of [`RoutePlan::route`] —
//!    `O(path)` generator applications, no search (planning rides the
//!    plan's bit-packed `u64` star-sort kernel);
//! 2. at the first faulted hop, *detour*: re-expand from the failure point
//!    with the faulted generator masked, preferring an alternative whose
//!    replanned suffix is verified fault-free (bounded by `2 × degree`
//!    detour attempts);
//! 3. as the last resort, breadth-first search over the survivor graph —
//!    complete up to [`DEFAULT_NET_CAP`] reached nodes, so on every
//!    network of `k ≤ 9` — and convert the node path back to generators.
//!
//! That search is the crate's one label BFS: [`bfs_route`] runs it with
//! no faults and the caller's cap.
//!
//! Nothing is materialized. A node is its label as one
//! [`PackedPerm`] word, a link is one [`Generator::apply_packed`], arrival
//! is a word compare, and a node id is the label's Lehmer rank — the id
//! the materialized graph gives it, so a [`FaultSet`] over ids applies
//! unchanged. Ranks are taken only for the exact fault check, and only
//! when a hop's words hit the caller's [`FaultScratch`] prefilter. Node
//! ids are `u32`, so networks up to `k = 12` ([`MAX_FAULT_DEGREE`]) are
//! served.
//!
//! The result is a [`RoutedPath`] report — the generator sequence plus how
//! much fault handling it took — rather than a bare generator list.
//!
//! [`bfs_route`]: crate::bfs_route

use std::cell::RefCell;
use std::collections::HashSet;

use scg_graph::{FaultSet, NodeId};
use scg_perm::cast::{len_u32, rank_u32};
use scg_perm::{factorial, PackedPerm, Perm};

use crate::classes::SuperCayleyGraph;
use crate::error::CoreError;
use crate::generator::Generator;
use crate::routing::plan::{RouteBuf, RoutePlan};
use crate::topology::{Materialized, DEFAULT_NET_CAP};

/// The largest permutation degree [`route_faulty`] serves: node ids are
/// `u32` ranks, and `12! < 2³² < 13!`.
pub const MAX_FAULT_DEGREE: usize = 12;

/// A fault-aware route and the effort it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedPath {
    /// The generator sequence from source to destination; every traversed
    /// link avoids the fault set.
    pub hops: Vec<Generator>,
    /// Faulted-hop encounters that were resolved by local detour search.
    pub detours: usize,
    /// Whether the survivor-graph BFS fallback produced (part of) the
    /// route.
    pub fallback_used: bool,
}

impl RoutedPath {
    /// Number of hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route is empty (source equals destination).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Caller-owned reusable state for [`route_faulty`]: the fault prefilter,
/// the plan buffers and the fallback BFS's visited set and queue. After
/// warm-up a route allocates only its result.
///
/// One scratch may serve any number of plans and fault sets. The
/// prefilter is rebuilt when the fault set's [`FaultSet::stamp`] or the
/// degree changes; equal stamps imply equal contents, so a reused scratch
/// is never stale.
#[derive(Debug, Default)]
pub struct FaultScratch {
    filter: Prefilter,
    pending: RouteBuf,
    spare: RouteBuf,
    bfs: Bfs,
}

impl FaultScratch {
    /// An empty scratch; buffers grow on first use and keep their
    /// capacity.
    #[must_use]
    pub fn new() -> Self {
        FaultScratch::default()
    }
}

/// A one-hash bitset over the packed words of every failed node and of the
/// tail of every failed directed link. A hop whose two words both miss
/// cannot be blocked, so it needs no rank and no hash-set lookup.
#[derive(Debug, Default)]
struct Prefilter {
    /// `(stamp, k)` of the fault set the bits were built from.
    key: Option<(u64, usize)>,
    bits: Vec<u64>,
    /// `64 − log2(bit count)`: keeps the top bits of the product.
    shift: u32,
}

impl Prefilter {
    /// Fibonacci hashing multiplier (`2⁶⁴ / φ`).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Rebuilds the bits for `faults` at degree `k`, unless they were
    /// built from the same stamp and degree.
    fn prepare(&mut self, faults: &FaultSet, k: usize) -> Result<(), CoreError> {
        let key = (faults.stamp(), k);
        if self.key == Some(key) {
            return Ok(());
        }
        let ids: Vec<NodeId> = faults
            .failed_nodes()
            .into_iter()
            .chain(faults.failed_links_directed().into_iter().map(|(u, _)| u))
            .collect();
        // 128 bits per entry keep the filter sparse: a word of a live node
        // hits with probability at most 1/128, about one needless exact
        // check per three ~20-hop routes.
        let bits = (ids.len() * 128).next_power_of_two().max(64);
        self.shift = 64 - bits.trailing_zeros();
        self.bits.clear();
        self.bits.resize(bits / 64, 0);
        let nodes = factorial(k);
        for id in ids {
            // An id outside `0..k!` names no node, so it blocks no hop.
            if u64::from(id) < nodes {
                let w = PackedPerm::from_rank(k, u64::from(id))?.word();
                let h = self.hash(w);
                self.bits[h >> 6] |= 1 << (h & 63);
            }
        }
        self.key = Some(key);
        Ok(())
    }

    #[inline]
    fn hash(&self, w: u64) -> usize {
        (w.wrapping_mul(Self::MUL) >> self.shift) as usize
    }

    /// Whether `w` may be a failed node or the tail of a failed link.
    #[inline]
    fn hits(&self, w: PackedPerm) -> bool {
        let h = self.hash(w.word());
        self.bits[h >> 6] >> (h & 63) & 1 != 0
    }
}

/// Routes `from → to` on the network of `plan` while avoiding `faults`,
/// entirely on packed labels.
///
/// Tries the paper's emulation route first; on the first faulted hop it
/// searches for a detour (alternative generator at the failure point with
/// the faulted one masked, replanned suffix preferred fault-free) and,
/// after `2 × degree` faulted-hop encounters — or when no verified-clean
/// detour exists and every local alternative is exhausted — falls back to
/// breadth-first search over the survivor graph, which succeeds whenever
/// the survivors still connect the endpoints.
///
/// When no detour fires (`detours == 0 && !fallback_used`) the path *is*
/// the emulation route, so its length obeys the paper's dilation bound.
///
/// The plan is passed in rather than looked up, so a caller that owns a
/// per-shard [`TopologyCache`](crate::TopologyCache) resolves it through
/// *its* cache; callers without one pass the process-wide
/// [`route_plan`](crate::route_plan). `scratch` carries the prefilter and
/// buffers between calls (see [`FaultScratch`]).
///
/// # Errors
///
/// * [`CoreError::TooLarge`] — the network has `k > 12`
///   ([`MAX_FAULT_DEGREE`]), so its node ids do not fit `u32`; or the
///   fallback search reached more than [`DEFAULT_NET_CAP`] nodes without
///   finding `to` (only possible for `k ≥ 10`);
/// * [`CoreError::DegreeMismatch`] — label degrees do not match the
///   network;
/// * [`CoreError::NoRoute`] — an endpoint is failed, or the faults
///   disconnect `to` from `from` in the survivor graph.
pub fn route_faulty(
    plan: &RoutePlan,
    faults: &FaultSet,
    from: &Perm,
    to: &Perm,
    scratch: &mut FaultScratch,
) -> Result<RoutedPath, CoreError> {
    let result = walk(plan, faults, from, to, scratch);
    #[cfg(feature = "obs")]
    match &result {
        Ok(path) => crate::obs_hooks::route_faulty_done(
            plan.name(),
            path.len(),
            path.detours,
            path.fallback_used,
        ),
        Err(CoreError::NoRoute) => crate::obs_hooks::route_faulty_no_route(plan.name()),
        Err(_) => {}
    }
    result
}

/// [`route_faulty`] with a per-thread [`FaultScratch`], under the
/// signature of the id-space router it replaced. `net` and `mat` are not
/// consulted: the label walk needs neither.
///
/// # Errors
///
/// As [`route_faulty`].
pub fn scg_route_faulty_with(
    plan: &RoutePlan,
    _net: &SuperCayleyGraph,
    _mat: &Materialized,
    from: &Perm,
    to: &Perm,
    faults: &FaultSet,
) -> Result<RoutedPath, CoreError> {
    thread_local! {
        static SCRATCH: RefCell<FaultScratch> = RefCell::new(FaultScratch::new());
    }
    SCRATCH.with(|scratch| route_faulty(plan, faults, from, to, &mut scratch.borrow_mut()))
}

/// The faults one search or walk avoids, at the network's degree: the
/// exact set behind its prefilter.
struct Survivors<'a> {
    faults: &'a FaultSet,
    filter: &'a Prefilter,
    k: usize,
}

impl Survivors<'_> {
    /// The node id of a label: its Lehmer rank.
    #[inline]
    fn id(&self, w: PackedPerm) -> Result<NodeId, CoreError> {
        Ok(rank_u32(w.rank(self.k)?))
    }

    /// Whether `w` may be a failed node or the tail of a failed link.
    #[inline]
    fn hits(&self, w: PackedPerm) -> bool {
        self.filter.hits(w)
    }

    /// Whether node `w` is failed.
    fn node_failed(&self, w: PackedPerm) -> Result<bool, CoreError> {
        Ok(self.hits(w) && self.faults.node_failed(self.id(w)?))
    }

    /// Whether the hop `u → v` is blocked: exact, but ranked only when a
    /// word hits the prefilter. Walks carry each node's hit instead (see
    /// [`exact_blocked`](Self::exact_blocked)), hashing it once.
    #[inline]
    fn blocked(&self, u: PackedPerm, v: PackedPerm) -> Result<bool, CoreError> {
        Ok((self.hits(u) || self.hits(v)) && self.exact_blocked(u, v)?)
    }

    /// The exact check behind a prefilter hit.
    #[cold]
    fn exact_blocked(&self, u: PackedPerm, v: PackedPerm) -> Result<bool, CoreError> {
        Ok(self.faults.blocks(self.id(u)?, self.id(v)?))
    }
}

/// What every step of one walk reads: the plan, the faults, the
/// destination and its inverse.
struct Walk<'a> {
    plan: &'a RoutePlan,
    live: Survivors<'a>,
    dst: PackedPerm,
    dst_inv: PackedPerm,
}

impl Walk<'_> {
    /// Replans `from → dst` into `buf` (the plan's packed star-sort over
    /// `dst⁻¹ ∘ from`).
    fn replan(&self, from: PackedPerm, buf: &mut RouteBuf) {
        buf.clear();
        self.plan
            .route_packed(self.dst_inv.compose(from).word(), buf);
        #[cfg(feature = "obs")]
        crate::obs_hooks::route_planned(self.plan.name(), buf.len());
    }

    /// Whether walking `hops` from `start` stays on live nodes and links.
    fn is_clean(&self, start: PackedPerm, hops: &[Generator]) -> Result<bool, CoreError> {
        let (mut cur, mut cur_hit) = (start, self.live.hits(start));
        for &g in hops {
            let v = g.apply_packed(cur, self.live.k);
            let v_hit = self.live.hits(v);
            if (cur_hit || v_hit) && self.live.exact_blocked(cur, v)? {
                return Ok(false);
            }
            (cur, cur_hit) = (v, v_hit);
        }
        Ok(true)
    }
}

/// Refuses degrees whose node ids do not fit `u32`.
fn check_fault_degree(k: usize) -> Result<(), CoreError> {
    if k > MAX_FAULT_DEGREE {
        return Err(CoreError::TooLarge {
            num_nodes: factorial(k),
            cap: factorial(MAX_FAULT_DEGREE),
        });
    }
    Ok(())
}

/// The routing core behind [`route_faulty`], without the metric hooks.
fn walk(
    plan: &RoutePlan,
    faults: &FaultSet,
    from: &Perm,
    to: &Perm,
    scratch: &mut FaultScratch,
) -> Result<RoutedPath, CoreError> {
    let k = plan.degree_k();
    check_fault_degree(k)?;
    plan.check_degrees(from, to)?;
    let FaultScratch {
        filter,
        pending,
        spare,
        bfs,
    } = scratch;
    filter.prepare(faults, k)?;
    let src = PackedPerm::pack(from)?;
    let dst = PackedPerm::pack(to)?;
    let cx = Walk {
        plan,
        live: Survivors { faults, filter, k },
        dst,
        dst_inv: dst.inverse(),
    };
    if cx.live.node_failed(src)? || cx.live.node_failed(dst)? {
        return Err(CoreError::NoRoute);
    }
    let gens = plan.generators();
    let detour_budget = 2 * gens.len();

    // The pending plan is a reusable buffer walked by cursor; detour
    // replans rewrite it in place, so the steady-state path allocates
    // nothing beyond the result vector.
    cx.replan(src, pending);
    let mut hops = Vec::with_capacity(pending.len());
    let mut detours = 0usize;
    let (mut cur, mut cur_hit) = (src, cx.live.hits(src));
    // `pending[..pos]` is walked and clean; it joins `hops` in one copy
    // when the walk leaves this plan.
    let mut pos = 0usize;

    while cur != dst {
        let Some(&g) = pending.hops().get(pos) else {
            // Plan exhausted short of the destination (cannot happen for a
            // correct emulation plan): let BFS finish the job.
            hops.extend_from_slice(pending.hops());
            return bfs.complete(&cx, cur, hops, detours);
        };
        let v = g.apply_packed(cur, k);
        let v_hit = cx.live.hits(v);
        if !((cur_hit || v_hit) && cx.live.exact_blocked(cur, v)?) {
            pos += 1;
            (cur, cur_hit) = (v, v_hit);
            continue;
        }
        hops.extend_from_slice(&pending.hops()[..pos]);

        // Faulted hop. Out of budget → guaranteed fallback.
        if detours >= detour_budget {
            return bfs.complete(&cx, cur, hops, detours);
        }
        detours += 1;

        // Detour search: alternative generators at the failure point with
        // the faulted one masked. Prefer one whose replanned suffix is
        // verified fault-free; otherwise take any live alternative and
        // keep walking (the budget caps repeated encounters).
        let mut clean: Option<usize> = None;
        let mut live: Option<usize> = None;
        for (ai, &alt) in gens.iter().enumerate() {
            if alt == g {
                continue;
            }
            let w = alt.apply_packed(cur, k);
            if cx.live.blocked(cur, w)? {
                continue;
            }
            if live.is_none() {
                live = Some(ai);
            }
            cx.replan(w, spare);
            if cx.is_clean(w, spare.hops())? {
                clean = Some(ai);
                break;
            }
        }
        let ai = match (clean, live) {
            (Some(ai), _) => {
                // The verified-clean suffix is still in `spare`.
                std::mem::swap(pending, spare);
                ai
            }
            (None, Some(ai)) => {
                cx.replan(gens[ai].apply_packed(cur, k), pending);
                ai
            }
            // Every out-link of `cur` is dead; only BFS can tell whether
            // the survivors still connect (they do not, from here — the
            // error is NoRoute).
            (None, None) => return bfs.complete(&cx, cur, hops, detours),
        };
        pos = 0;
        hops.push(gens[ai]);
        cur = gens[ai].apply_packed(cur, k);
        cur_hit = cx.live.hits(cur);
    }
    hops.extend_from_slice(&pending.hops()[..pos]);
    Ok(RoutedPath {
        hops,
        detours,
        fallback_used: false,
    })
}

/// [`bfs_route`](crate::bfs_route)'s search: a shortest path `from → to`
/// over the links `gens` make at degree `k`, with no faults, reaching at
/// most `cap` nodes. Degrees must already match.
///
/// # Errors
///
/// * [`CoreError::TooLarge`] — `k > 12` ([`MAX_FAULT_DEGREE`]), or more
///   than `cap` nodes were reached without finding `to`;
/// * [`CoreError::NoRoute`] — `to` is unreachable from `from`.
pub(super) fn fault_free_bfs(
    gens: &[Generator],
    k: usize,
    from: &Perm,
    to: &Perm,
    cap: u64,
) -> Result<Vec<Generator>, CoreError> {
    check_fault_degree(k)?;
    let faults = FaultSet::new();
    let mut filter = Prefilter::default();
    filter.prepare(&faults, k)?;
    let live = Survivors {
        faults: &faults,
        filter: &filter,
        k,
    };
    let (src, dst) = (PackedPerm::pack(from)?, PackedPerm::pack(to)?);
    let mut hops = Vec::new();
    Bfs::default().find(gens, &live, src, dst, cap, &mut hops)?;
    Ok(hops)
}

/// The most nodes one fallback search may reach before it gives up with
/// [`CoreError::TooLarge`]. Above `9! = 362 880`, so on networks of
/// `k ≤ 9` every search runs to the end; on larger ones it bounds the
/// time and memory a cut-off destination can cost.
const FALLBACK_CAP: u64 = DEFAULT_NET_CAP;

/// Visits a finished search may leave allocated in the scratch; a larger
/// search gives the rest back.
const FALLBACK_RETAIN: usize = 1 << 16;

/// One BFS visit: a node's word, the queue index of the node it was
/// reached from, and the generator slot of that hop.
#[derive(Debug, Clone, Copy)]
struct Visit {
    word: PackedPerm,
    parent: u32,
    slot: u32,
}

/// Survivor BFS over labels. The queue is never popped, so it doubles as
/// the parent tree.
#[derive(Debug, Default)]
struct Bfs {
    visited: HashSet<NodeId>,
    queue: Vec<Visit>,
    /// One node's neighbours as `(id, slot, word)`, reused across
    /// expansions.
    nbrs: Vec<(NodeId, u32, PackedPerm)>,
}

impl Bfs {
    /// Finishes a route at `src` with a shortest survivor path to
    /// `cx.dst`, reaching at most [`FALLBACK_CAP`] nodes, appended to the
    /// `hops` walked so far.
    fn complete(
        &mut self,
        cx: &Walk<'_>,
        src: PackedPerm,
        mut hops: Vec<Generator>,
        detours: usize,
    ) -> Result<RoutedPath, CoreError> {
        let gens = cx.plan.generators();
        self.find(gens, &cx.live, src, cx.dst, FALLBACK_CAP, &mut hops)?;
        Ok(RoutedPath {
            hops,
            detours,
            fallback_used: true,
        })
    }

    /// Appends a shortest path `src → dst` over the links of `gens` that
    /// `live` leaves up to `hops`.
    ///
    /// Neighbours are expanded in ascending id, and a hop is named by the
    /// lowest generator slot that makes it: the order of the materialized
    /// graph's sorted CSR, so the path is the one a BFS over it finds.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooLarge`] — more than `cap` nodes were reached
    ///   without finding `dst`;
    /// * [`CoreError::NoRoute`] — the survivors do not connect `dst` to
    ///   `src`.
    fn find(
        &mut self,
        gens: &[Generator],
        live: &Survivors<'_>,
        src: PackedPerm,
        dst: PackedPerm,
        cap: u64,
        hops: &mut Vec<Generator>,
    ) -> Result<(), CoreError> {
        let found = self.explore(gens, live, src, dst, cap);
        if let Ok(Some(mut at)) = found {
            let start = hops.len();
            while at != 0 {
                let v = self.queue[at];
                hops.push(gens[v.slot as usize]);
                at = v.parent as usize;
            }
            hops[start..].reverse();
        }
        self.visited.clear();
        self.visited.shrink_to(FALLBACK_RETAIN);
        self.queue.clear();
        self.queue.shrink_to(FALLBACK_RETAIN);
        found?.map(|_| ()).ok_or(CoreError::NoRoute)
    }

    /// Runs the search; returns the queue index of `dst`, if reached.
    fn explore(
        &mut self,
        gens: &[Generator],
        live: &Survivors<'_>,
        src: PackedPerm,
        dst: PackedPerm,
        cap: u64,
    ) -> Result<Option<usize>, CoreError> {
        let Bfs {
            visited,
            queue,
            nbrs,
        } = self;
        visited.insert(live.id(src)?);
        queue.push(Visit {
            word: src,
            parent: 0,
            slot: 0,
        });
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            nbrs.clear();
            for (slot, g) in gens.iter().enumerate() {
                let w = g.apply_packed(u.word, live.k);
                nbrs.push((live.id(w)?, len_u32(slot), w));
            }
            // Stable: among equal ids the lowest slot stays first.
            nbrs.sort_by_key(|&(id, ..)| id);
            for &(id, slot, w) in nbrs.iter() {
                if live.blocked(u.word, w)? || !visited.insert(id) {
                    continue;
                }
                queue.push(Visit {
                    word: w,
                    parent: len_u32(head),
                    slot,
                });
                if w == dst {
                    return Ok(Some(queue.len() - 1));
                }
                if queue.len() as u64 > cap {
                    return Err(CoreError::TooLarge {
                        num_nodes: factorial(live.k),
                        cap,
                    });
                }
            }
            head += 1;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::apply_path;
    use crate::network::CayleyNetwork;
    use crate::routing::star_distance_between;
    use crate::topology::{materialize, route_plan, SMALL_NET_CAP};
    use scg_perm::XorShift64;

    /// Replays `hops` from `src` through the materialized transition
    /// tables.
    fn walk(mat: &Materialized, net: &SuperCayleyGraph, src: NodeId, hops: &[Generator]) -> NodeId {
        let mut cur = src;
        for g in hops {
            let gi = net.generators().iter().position(|h| h == g).unwrap();
            cur = mat.neighbor_id(cur, gi);
        }
        cur
    }

    /// The ten classes at `k = 5`, the directed rotator classes included.
    fn ten_classes_k5() -> Vec<SuperCayleyGraph> {
        vec![
            SuperCayleyGraph::macro_star(2, 2).unwrap(),
            SuperCayleyGraph::rotation_star(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_star(2, 2).unwrap(),
            SuperCayleyGraph::macro_rotator(2, 2).unwrap(),
            SuperCayleyGraph::rotation_rotator(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_rotator(2, 2).unwrap(),
            SuperCayleyGraph::insertion_selection(5).unwrap(),
            SuperCayleyGraph::macro_is(2, 2).unwrap(),
            SuperCayleyGraph::rotation_is(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_is(2, 2).unwrap(),
        ]
    }

    /// With no faults the walk follows the emulation route and stops at
    /// its first arrival at `to`. An emulation route need not be simple:
    /// on the rotator and MIS/RIS classes some pass `to` before their last
    /// hop (MR(2,2) routes one pair as `I_3 I_2 I_2`, and `I_2` is an
    /// involution), so there the walk is a strict prefix of it.
    #[test]
    fn fault_free_routing_matches_emulation_route() {
        let mut scratch = FaultScratch::new();
        let mut rng = XorShift64::new(17);
        let faults = FaultSet::new();
        for net in ten_classes_k5() {
            let plan = route_plan(&net).unwrap();
            for _ in 0..20 {
                let from = Perm::random(5, &mut rng);
                let to = Perm::random(5, &mut rng);
                let routed = route_faulty(&plan, &faults, &from, &to, &mut scratch).unwrap();
                let full = plan.route(&from, &to).unwrap();
                let first = (0..=full.len())
                    .find(|&i| apply_path(&from, &full[..i]).unwrap() == to)
                    .unwrap();
                assert_eq!(routed.hops, full[..first], "{}", net.name());
                assert_eq!(routed.detours, 0);
                assert!(!routed.fallback_used);
                assert_eq!(apply_path(&from, &routed.hops).unwrap(), to);
            }
        }
    }

    /// `bfs_route` runs the fallback search with no faults: from three
    /// seeded sources to all 120 destinations of each `k = 5` class, its
    /// length is the materialized graph's BFS distance and its path
    /// arrives.
    #[test]
    fn bfs_route_matches_materialized_distances_on_ten_k5_classes() {
        let mut rng = XorShift64::new(53);
        for net in ten_classes_k5() {
            let mat = materialize(&net, SMALL_NET_CAP).unwrap();
            for _ in 0..3 {
                let src = rng.gen_range(mat.num_nodes()) as NodeId;
                let dist = mat.graph().bfs_distances(src);
                let from = mat.node_label(src).unwrap();
                for dst in 0..mat.num_nodes() as NodeId {
                    let to = mat.node_label(dst).unwrap();
                    let path = crate::bfs_route(&net, &from, &to, SMALL_NET_CAP).unwrap();
                    assert_eq!(
                        path.len() as u32,
                        dist[dst as usize],
                        "{} {src}->{dst}",
                        net.name()
                    );
                    assert_eq!(apply_path(&from, &path).unwrap(), to);
                }
            }
        }
    }

    #[test]
    fn routes_avoid_faults_and_arrive() {
        let net = SuperCayleyGraph::insertion_selection(5).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut scratch = FaultScratch::new();
        let mut rng = XorShift64::new(23);
        let degree = mat.node_degree();
        for trial in 0..12 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let src = mat.node_id(&from).unwrap();
            let dst = mat.node_id(&to).unwrap();
            let mut seeded = XorShift64::new(1000 + trial);
            let faults =
                FaultSet::random_nodes(mat.num_nodes(), degree - 1, &[src, dst], &mut seeded);
            let routed = route_faulty(&plan, &faults, &from, &to, &mut scratch).unwrap();
            // The walk reaches the destination without touching a fault.
            let mut cur = src;
            for g in &routed.hops {
                let v = walk(&mat, &net, cur, std::slice::from_ref(g));
                assert!(!faults.blocks(cur, v));
                cur = v;
            }
            assert_eq!(cur, dst);
            assert_eq!(apply_path(&from, &routed.hops).unwrap(), to);
        }
    }

    #[test]
    fn clean_routes_obey_the_dilation_bound() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut scratch = FaultScratch::new();
        let mut rng = XorShift64::new(29);
        let faults = FaultSet::random_nodes(120, 1, &[], &mut rng);
        let mut clean_seen = 0;
        for _ in 0..40 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let (src, dst) = (from.rank() as NodeId, to.rank() as NodeId);
            if faults.node_failed(src) || faults.node_failed(dst) {
                continue;
            }
            let routed = route_faulty(&plan, &faults, &from, &to, &mut scratch).unwrap();
            if routed.detours == 0 && !routed.fallback_used {
                clean_seen += 1;
                assert!(
                    routed.len() as u32
                        <= plan.star_dilation() as u32 * star_distance_between(&from, &to)
                );
            }
        }
        assert!(clean_seen > 0, "some pairs must route clean past one fault");
    }

    #[test]
    fn failed_endpoint_is_no_route() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let plan = route_plan(&net).unwrap();
        let from = Perm::identity(5);
        let to = Perm::from_rank(5, 77).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(77);
        assert!(matches!(
            route_faulty(&plan, &faults, &from, &to, &mut FaultScratch::new()),
            Err(CoreError::NoRoute)
        ));
    }

    #[test]
    fn survivor_walk_agrees_with_label_walk() {
        // The id-space walk and the label-space walk are the same route.
        let net = SuperCayleyGraph::complete_rotation_star(2, 2).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut scratch = FaultScratch::new();
        let mut rng = XorShift64::new(31);
        let faults = FaultSet::random_nodes(mat.num_nodes(), 2, &[], &mut rng);
        for _ in 0..10 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let (src, dst) = (mat.node_id(&from).unwrap(), mat.node_id(&to).unwrap());
            if faults.node_failed(src) || faults.node_failed(dst) {
                continue;
            }
            let routed = route_faulty(&plan, &faults, &from, &to, &mut scratch).unwrap();
            assert_eq!(walk(&mat, &net, src, &routed.hops), dst);
        }
    }

    #[test]
    fn degrees_above_twelve_are_refused_as_too_large() {
        let net = SuperCayleyGraph::insertion_selection(13).unwrap();
        let plan = route_plan(&net).unwrap();
        let id = Perm::identity(13);
        assert_eq!(
            route_faulty(&plan, &FaultSet::new(), &id, &id, &mut FaultScratch::new()),
            Err(CoreError::TooLarge {
                num_nodes: factorial(13),
                cap: factorial(12),
            })
        );
    }

    #[test]
    fn label_walk_serves_k12_without_materializing() {
        // 12! nodes: far beyond any materialization cap, routed on labels.
        let net = SuperCayleyGraph::insertion_selection(12).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut rng = XorShift64::new(37);
        let from = Perm::random(12, &mut rng);
        let to = Perm::random(12, &mut rng);
        let clean = plan.route(&from, &to).unwrap();
        // Fail the first node the clean route visits.
        let mut faults = FaultSet::new();
        faults.fail_node(clean[0].apply(&from).unwrap().rank() as NodeId);
        let routed = route_faulty(&plan, &faults, &from, &to, &mut FaultScratch::new()).unwrap();
        assert!(routed.detours > 0);
        assert_eq!(apply_path(&from, &routed.hops).unwrap(), to);
    }
}
