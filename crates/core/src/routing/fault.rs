//! Fault-tolerant routing: the paper's emulation route with detour search
//! and a survivor-graph BFS fallback.
//!
//! Super Cayley graphs inherit the star/rotator property that connectivity
//! equals degree, so any `degree − 1` fail-stop faults leave the survivors
//! connected and [`scg_route_faulty_with`] is total on them. The router is
//! layered by cost:
//!
//! 1. walk the fault-free emulation plan of [`scg_route`] — `O(path)` table
//!    lookups, no search (planning rides [`RoutePlan::route_into`] and its
//!    bit-packed `u64` star-sort kernel);
//! 2. at the first faulted hop, *detour*: re-expand from the failure point
//!    with the faulted generator masked, preferring an alternative whose
//!    replanned suffix is verified fault-free (bounded by `2 × degree`
//!    detour attempts);
//! 3. as the guaranteed last resort, breadth-first search over the
//!    survivor graph ([`SurvivorView`]) and convert the node path back to
//!    generators.
//!
//! The result is a [`RoutedPath`] report — the generator sequence plus how
//! much fault handling it took — rather than a bare generator list.
//!
//! [`scg_route`]: crate::scg_route

use scg_graph::{FaultSet, NodeId, SurvivorView};
use scg_perm::Perm;

use crate::classes::SuperCayleyGraph;
use crate::error::CoreError;
use crate::generator::Generator;
use crate::network::CayleyNetwork;
use crate::routing::plan::{RouteBuf, RoutePlan};
use crate::topology::Materialized;

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

/// The slot index of `g` in the host's generator list (= the out-slot of
/// the materialized graph and transition tables).
fn gen_index(net: &SuperCayleyGraph, g: Generator) -> Result<usize, CoreError> {
    net.generators()
        .iter()
        .position(|&h| h == g)
        .ok_or(CoreError::NoRoute)
}

/// Whether walking `plan` from node `start` stays entirely on live nodes
/// and links.
fn plan_is_clean(
    net: &SuperCayleyGraph,
    mat: &Materialized,
    faults: &FaultSet,
    start: NodeId,
    plan: &[Generator],
) -> Result<bool, CoreError> {
    let mut cur = start;
    for &g in plan {
        let v = mat.neighbor_id(cur, gen_index(net, g)?);
        if faults.blocks(cur, v) {
            return Ok(false);
        }
        cur = v;
    }
    Ok(true)
}

/// Survivor-graph BFS from `cur` to `dst`, converted back to generators.
fn survivor_fallback(
    net: &SuperCayleyGraph,
    mat: &Materialized,
    faults: &FaultSet,
    cur: NodeId,
    dst: NodeId,
    hops: &mut Vec<Generator>,
) -> Result<(), CoreError> {
    let view = SurvivorView::new(mat.graph(), faults);
    let path = view.shortest_path(cur, dst).ok_or(CoreError::NoRoute)?;
    for pair in path.windows(2) {
        let (u, v) = (pair[0], pair[1]);
        let gi = (0..mat.node_degree())
            .find(|&g| mat.neighbor_id(u, g) == v)
            .ok_or(CoreError::NoRoute)?;
        hops.push(net.generators()[gi]);
    }
    Ok(())
}

/// Routes `from → to` on a super Cayley graph while avoiding `faults`,
/// walking the compiled `plan` of `net`.
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
/// per-shard [`TopologyCache`](crate::TopologyCache) (one per core, no
/// global lock on the hot path) resolves it through *its* cache; callers
/// without one pass the process-wide [`route_plan`](crate::route_plan).
///
/// # Errors
///
/// * [`CoreError::DegreeMismatch`] — label degrees do not match the
///   network;
/// * [`CoreError::NoRoute`] — an endpoint is failed, or the faults
///   disconnect `to` from `from` in the survivor graph.
pub fn scg_route_faulty_with(
    plan: &RoutePlan,
    net: &SuperCayleyGraph,
    mat: &Materialized,
    from: &Perm,
    to: &Perm,
    faults: &FaultSet,
) -> Result<RoutedPath, CoreError> {
    let result = route_faulty_inner(plan, net, mat, from, to, faults);
    #[cfg(feature = "obs")]
    match &result {
        Ok(path) => crate::obs_hooks::route_faulty_done(
            &net.name(),
            path.len(),
            path.detours,
            path.fallback_used,
        ),
        Err(CoreError::NoRoute) => crate::obs_hooks::route_faulty_no_route(&net.name()),
        Err(_) => {}
    }
    result
}

/// Replans `from → to` into `buf` and mirrors the metric footprint of a
/// public [`scg_route`](crate::scg_route) call, so instrumented sweeps see
/// the same per-plan hop histograms they did when the faulty router
/// composed the public API.
fn replan_into(
    net: &SuperCayleyGraph,
    plan: &RoutePlan,
    from: &Perm,
    to: &Perm,
    buf: &mut RouteBuf,
) -> Result<(), CoreError> {
    plan.route_into(from, to, buf)?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::route_planned(&net.name(), buf.len());
    #[cfg(not(feature = "obs"))]
    let _ = net; // scg-allow(SCG005): feature-gated parameter use; discards a reference, not a Result
    Ok(())
}

/// The uninstrumented routing core behind [`scg_route_faulty_with`].
fn route_faulty_inner(
    compiled: &RoutePlan,
    net: &SuperCayleyGraph,
    mat: &Materialized,
    from: &Perm,
    to: &Perm,
    faults: &FaultSet,
) -> Result<RoutedPath, CoreError> {
    let src = mat.node_id(from)?;
    let dst = mat.node_id(to)?;
    if faults.node_failed(src) || faults.node_failed(dst) {
        return Err(CoreError::NoRoute);
    }
    let degree = mat.node_degree();
    let detour_budget = 2 * degree;

    let mut hops = Vec::new();
    let mut detours = 0usize;
    let mut cur = src;
    let mut cur_label = *from;
    // The pending plan is a reusable buffer walked by cursor; detour
    // replans rewrite it in place, so the steady-state path allocates
    // nothing beyond the result vector.
    let mut pending = compiled.new_buf();
    let mut scratch = compiled.new_buf();
    replan_into(net, compiled, from, to, &mut pending)?;
    let mut pos = 0usize;

    while cur != dst {
        let Some(&g) = pending.hops().get(pos) else {
            // Plan exhausted short of the destination (cannot happen for a
            // correct emulation plan): let BFS finish the job.
            let mut path = RoutedPath {
                hops,
                detours,
                fallback_used: true,
            };
            survivor_fallback(net, mat, faults, cur, dst, &mut path.hops)?;
            return Ok(path);
        };
        pos += 1;
        let gi = gen_index(net, g)?;
        let v = mat.neighbor_id(cur, gi);
        if !faults.blocks(cur, v) {
            hops.push(g);
            cur = v;
            cur_label = g.apply(&cur_label)?;
            continue;
        }

        // Faulted hop. Out of budget → guaranteed fallback.
        if detours >= detour_budget {
            let mut path = RoutedPath {
                hops,
                detours,
                fallback_used: true,
            };
            survivor_fallback(net, mat, faults, cur, dst, &mut path.hops)?;
            return Ok(path);
        }
        detours += 1;

        // Detour search: alternative generators at the failure point with
        // the faulted one masked. Prefer one whose replanned suffix is
        // verified fault-free; otherwise take any live alternative and
        // keep walking (the budget caps repeated encounters).
        let mut clean: Option<usize> = None;
        let mut live: Option<usize> = None;
        for ai in 0..degree {
            if ai == gi {
                continue;
            }
            let w = mat.neighbor_id(cur, ai);
            if faults.blocks(cur, w) {
                continue;
            }
            if live.is_none() {
                live = Some(ai);
            }
            let w_label = net.generators()[ai].apply(&cur_label)?;
            replan_into(net, compiled, &w_label, to, &mut scratch)?;
            if plan_is_clean(net, mat, faults, w, scratch.hops())? {
                clean = Some(ai);
                break;
            }
        }
        let step = match (clean, live) {
            (Some(ai), _) => {
                // The verified-clean suffix is still in `scratch`.
                std::mem::swap(&mut pending, &mut scratch);
                pos = 0;
                Some(ai)
            }
            (None, Some(ai)) => {
                let alt = net.generators()[ai];
                replan_into(net, compiled, &alt.apply(&cur_label)?, to, &mut pending)?;
                pos = 0;
                Some(ai)
            }
            (None, None) => None,
        };
        match step {
            Some(ai) => {
                let alt = net.generators()[ai];
                hops.push(alt);
                cur = mat.neighbor_id(cur, ai);
                cur_label = alt.apply(&cur_label)?;
            }
            None => {
                // Every out-link of `cur` is dead; only BFS can tell us
                // whether the survivors still connect (they do not, from
                // here — the error is NoRoute).
                let mut path = RoutedPath {
                    hops,
                    detours,
                    fallback_used: true,
                };
                survivor_fallback(net, mat, faults, cur, dst, &mut path.hops)?;
                return Ok(path);
            }
        }
    }
    Ok(RoutedPath {
        hops,
        detours,
        fallback_used: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::apply_path;
    use crate::routing::{scg_route, star_distance_between};
    use crate::topology::{materialize, route_plan, SMALL_NET_CAP};
    use scg_perm::XorShift64;

    fn walk(mat: &Materialized, net: &SuperCayleyGraph, src: NodeId, hops: &[Generator]) -> NodeId {
        let mut cur = src;
        for &g in hops {
            let gi = gen_index(net, g).unwrap();
            cur = mat.neighbor_id(cur, gi);
        }
        cur
    }

    #[test]
    fn fault_free_routing_matches_emulation_route() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut rng = XorShift64::new(17);
        let faults = FaultSet::new();
        for _ in 0..20 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let routed = scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults).unwrap();
            assert_eq!(routed.hops, scg_route(&net, &from, &to).unwrap());
            assert_eq!(routed.detours, 0);
            assert!(!routed.fallback_used);
            assert_eq!(apply_path(&from, &routed.hops).unwrap(), to);
        }
    }

    #[test]
    fn routes_avoid_faults_and_arrive() {
        let net = SuperCayleyGraph::insertion_selection(5).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
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
            let routed = scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults).unwrap();
            // The walk reaches the destination without touching a fault.
            let mut cur = src;
            for &g in &routed.hops {
                let v = mat.neighbor_id(cur, gen_index(&net, g).unwrap());
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
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut rng = XorShift64::new(29);
        let faults = FaultSet::random_nodes(mat.num_nodes(), 1, &[], &mut rng);
        let mut clean_seen = 0;
        for _ in 0..40 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let (src, dst) = (mat.node_id(&from).unwrap(), mat.node_id(&to).unwrap());
            if faults.node_failed(src) || faults.node_failed(dst) {
                continue;
            }
            let routed = scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults).unwrap();
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
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let from = Perm::identity(5);
        let to = Perm::from_rank(5, 77).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(mat.node_id(&to).unwrap());
        assert!(matches!(
            scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults),
            Err(CoreError::NoRoute)
        ));
    }

    #[test]
    fn survivor_walk_agrees_with_label_walk() {
        // The id-space walk and the label-space walk are the same route.
        let net = SuperCayleyGraph::complete_rotation_star(2, 2).unwrap();
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut rng = XorShift64::new(31);
        let faults = FaultSet::random_nodes(mat.num_nodes(), 2, &[], &mut rng);
        for _ in 0..10 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let (src, dst) = (mat.node_id(&from).unwrap(), mat.node_id(&to).unwrap());
            if faults.node_failed(src) || faults.node_failed(dst) {
                continue;
            }
            let routed = scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults).unwrap();
            assert_eq!(walk(&mat, &net, src, &routed.hops), dst);
        }
    }
}
