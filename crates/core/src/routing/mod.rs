//! Routing: optimal star-graph routing, emulation-based routing on super
//! Cayley graphs, and exact BFS routing for validation.
//!
//! One router serves every super Cayley class: the network's compiled
//! [`RoutePlan`] (one expansion arena, one packed star-sort kernel), with
//! [`scg_route`] and [`route_batch`] as thin wrappers over it and
//! [`route_faulty`] as the single fault-aware entry.

mod expand;
mod fault;
mod plan;
mod sort;
mod star_route;

pub use expand::star_dimension_parts;
pub use fault::{route_faulty, scg_route_faulty_with, FaultScratch, RoutedPath, MAX_FAULT_DEGREE};
pub use plan::{BatchState, PackedPair, RouteBuf, RoutePlan};
pub use sort::{
    bubble_distance, bubble_sort_sequence, rotator_sort_sequence, tn_distance, tn_sort_sequence,
};
pub use star_route::{
    star_diameter, star_distance, star_distance_between, star_route, star_sort_sequence,
};

use std::collections::HashMap;

use scg_perm::Perm;

use crate::classes::SuperCayleyGraph;
use crate::error::CoreError;
use crate::generator::Generator;
use crate::network::CayleyNetwork;
use crate::topology::route_plan;

/// Routes `from → to` on a super Cayley graph by emulating the optimal
/// star-graph route (each star link expands per Theorems 1–3).
///
/// The resulting path length is at most `star_dilation() ×
/// star_distance(from, to)`; it is not necessarily a shortest path in the
/// host, but it is within the constant factor the paper proves.
///
/// Works on all ten classes — the rotator-nucleus classes route via the
/// insertion-cycle realization of transpositions (`T_x = I_{x-1}^{x-2}∘I_x`),
/// an extension beyond the paper's stated theorems.
///
/// Link expansions come from the network's compiled [`RoutePlan`] (shared
/// through the process-wide cache, compiled on first use). Callers routing
/// many pairs should hold the plan and a [`RouteBuf`] directly — see
/// [`route_plan`](crate::route_plan) — or use [`route_batch`]; this
/// convenience wrapper allocates the returned vector.
///
/// # Errors
///
/// * [`CoreError::DegreeMismatch`] — label degrees do not match the network.
pub fn scg_route(
    net: &SuperCayleyGraph,
    from: &Perm,
    to: &Perm,
) -> Result<Vec<Generator>, CoreError> {
    let plan = route_plan(net)?;
    let mut buf = plan.new_buf();
    plan.route_into(from, to, &mut buf)?;
    #[cfg(feature = "obs")]
    crate::obs_hooks::route_planned(&net.name(), buf.len());
    Ok(buf.into_hops())
}

/// Minimum number of pairs a [`route_batch`] worker thread must have
/// before fanning out to it pays off.
///
/// A scoped-thread spawn plus join costs on the order of 50 µs; a routed
/// pair costs ~100–200 ns through the packed lanes, so a thread needs a
/// few thousand pairs before the spawn amortizes. Below this floor
/// `route_batch` shrinks the thread count (down to running entirely on
/// the caller's thread), which fixed the small-batch regression where
/// `batch_par` measured *slower* than `batch_seq` on 512-pair batches.
pub const MIN_PAIRS_PER_THREAD: usize = 2048;

/// Routes every `(from, to)` pair in parallel over `threads` scoped OS
/// threads, returning the paths in input order.
///
/// Each thread shares the network's compiled [`RoutePlan`] and drives its
/// chunk through [`RoutePlan::route_chunk`]: per-pair routing state is a
/// packed `u64` lane in a reused [`BatchState`] (structure-of-arrays, so
/// the pack pass vectorizes), and hop emission reuses one
/// [`RouteBuf`] — no per-pair planning or allocation beyond the returned
/// vectors. `threads` is clamped to `1..=pairs.len()`, and small batches
/// skip the fan-out entirely: spawning a scoped thread costs tens of
/// microseconds while a routed pair costs ~100–200 ns, so below
/// [`MIN_PAIRS_PER_THREAD`] pairs per thread the spawn overhead swamps
/// the win and the batch runs on fewer threads (down to the caller's
/// thread alone). Results are identical to routing each pair with
/// [`scg_route`], for every chunking and thread count.
///
/// # Errors
///
/// * [`CoreError::DegreeMismatch`] — any label's degree does not match the
///   network (the first failing pair in input order is reported).
pub fn route_batch(
    net: &SuperCayleyGraph,
    pairs: &[(Perm, Perm)],
    threads: usize,
) -> Result<Vec<Vec<Generator>>, CoreError> {
    let plan = route_plan(net)?;
    let mut out: Vec<Vec<Generator>> = vec![Vec::new(); pairs.len()];
    if pairs.is_empty() {
        return Ok(out);
    }
    // Adaptive small-batch threshold: never fan out to more threads than
    // the batch can amortize (see MIN_PAIRS_PER_THREAD).
    let threads = threads
        .clamp(1, pairs.len())
        .min((pairs.len() / MIN_PAIRS_PER_THREAD).max(1));
    let chunk = pairs.len().div_ceil(threads);
    let mut errors: Vec<Option<CoreError>> = vec![None; pairs.len().div_ceil(chunk)];
    std::thread::scope(|scope| {
        for ((pair_chunk, out_chunk), err_slot) in pairs
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .zip(errors.iter_mut())
        {
            let plan = &plan;
            scope.spawn(move || {
                let mut state = plan.new_batch_state();
                if let Err(e) = plan.route_chunk(pair_chunk, out_chunk, &mut state) {
                    *err_slot = Some(e);
                }
            });
        }
    });
    if let Some(e) = errors.into_iter().flatten().next() {
        return Err(e);
    }
    #[cfg(feature = "obs")]
    for path in &out {
        crate::obs_hooks::route_planned(&net.name(), path.len());
    }
    Ok(out)
}

/// Exact shortest-path routing by breadth-first search over labels.
///
/// Works on any network (including the directed rotator classes) but costs
/// up to `O(k! · degree)` time and memory; `cap` bounds the number of nodes
/// that may be expanded.
///
/// # Errors
///
/// * [`CoreError::DegreeMismatch`] — label degrees do not match the network;
/// * [`CoreError::TooLarge`] — more than `cap` nodes were expanded;
/// * [`CoreError::NoRoute`] — `to` is unreachable from `from` (possible only
///   in directed classes if the generator set does not generate `S_k`).
pub fn bfs_route(
    net: &impl CayleyNetwork,
    from: &Perm,
    to: &Perm,
    cap: u64,
) -> Result<Vec<Generator>, CoreError> {
    let k = net.degree_k();
    for p in [from, to] {
        if p.degree() != k {
            return Err(CoreError::DegreeMismatch {
                expected: k,
                found: p.degree(),
            });
        }
    }
    if from == to {
        return Ok(Vec::new());
    }
    let gens = net.generators();
    // Generator application is pure position rearrangement, so it is right
    // multiplication by the generator's image of the identity:
    // `g.apply(u) = u ∘ g.apply(id)`. Precomputing those images turns the
    // inner loop into `compose_into` on one scratch permutation — no
    // generator dispatch and no fresh Perm per edge visit.
    let id = Perm::identity(k);
    let gen_perms = gens
        .iter()
        .map(|g| g.apply(&id))
        .collect::<Result<Vec<Perm>, _>>()?;
    let mut scratch = id;
    let mut prev: HashMap<Perm, (Perm, usize)> = HashMap::new();
    let mut frontier = vec![*from];
    let mut expanded = 0u64;
    prev.insert(*from, (*from, usize::MAX));
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for u in frontier {
            expanded += 1;
            if expanded > cap {
                return Err(CoreError::TooLarge {
                    num_nodes: expanded,
                    cap,
                });
            }
            for (gi, gen_perm) in gen_perms.iter().enumerate() {
                u.compose_into(gen_perm, &mut scratch);
                let v = scratch;
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(v) {
                    e.insert((u, gi));
                    if v == *to {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = v;
                        while cur != *from {
                            let (p, gi) = prev[&cur];
                            path.push(gens[gi]);
                            cur = p;
                        }
                        path.reverse();
                        return Ok(path);
                    }
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    Err(CoreError::NoRoute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{apply_path, SuperCayleyGraph};
    use scg_perm::XorShift64;

    #[test]
    fn scg_route_reaches_destination() {
        let mut rng = XorShift64::new(7);
        let hosts = [
            SuperCayleyGraph::macro_star(3, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(),
            SuperCayleyGraph::rotation_star(3, 2).unwrap(),
            SuperCayleyGraph::insertion_selection(7).unwrap(),
            SuperCayleyGraph::macro_is(3, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_is(3, 2).unwrap(),
            SuperCayleyGraph::rotation_is(3, 2).unwrap(),
        ];
        for host in &hosts {
            for _ in 0..20 {
                let from = Perm::random(7, &mut rng);
                let to = Perm::random(7, &mut rng);
                let path = scg_route(host, &from, &to).unwrap();
                assert_eq!(apply_path(&from, &path).unwrap(), to, "{}", host.name());
                let dilation = route_plan(host).unwrap().star_dilation();
                assert!(path.len() as u32 <= dilation as u32 * star_distance_between(&from, &to));
            }
        }
    }

    #[test]
    fn scg_route_path_uses_only_host_generators(/* links must exist */) {
        let host = SuperCayleyGraph::macro_is(2, 3).unwrap();
        let from = Perm::from_symbols(&[7, 6, 5, 4, 3, 2, 1]).unwrap();
        let to = Perm::identity(7);
        for g in scg_route(&host, &from, &to).unwrap() {
            assert!(
                host.generators().contains(&g),
                "{g} is not a generator of {}",
                host.name()
            );
        }
    }

    #[test]
    fn bfs_route_is_shortest_on_star() {
        let star = crate::classes::StarGraph::new(5).unwrap();
        let mut rng = XorShift64::new(11);
        for _ in 0..10 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let path = bfs_route(&star, &from, &to, 1_000_000).unwrap();
            assert_eq!(path.len() as u32, star_distance_between(&from, &to));
            assert_eq!(apply_path(&from, &path).unwrap(), to);
        }
    }

    #[test]
    fn routing_on_directed_rotator_classes() {
        let mr = SuperCayleyGraph::macro_rotator(2, 2).unwrap();
        let from = Perm::identity(5);
        let to = Perm::from_symbols(&[2, 3, 1, 4, 5]).unwrap();
        // Exact BFS and the insertion-cycle emulation both reach the target;
        // BFS is never longer.
        let bfs = bfs_route(&mr, &from, &to, 1_000_000).unwrap();
        assert_eq!(apply_path(&from, &bfs).unwrap(), to);
        let emu = scg_route(&mr, &from, &to).unwrap();
        assert_eq!(apply_path(&from, &emu).unwrap(), to);
        assert!(bfs.len() <= emu.len());
        for g in &emu {
            assert!(mr.generators().contains(g));
        }
    }

    #[test]
    fn bfs_route_cap_enforced() {
        // With cap = 1 only `from` is expanded: its neighbours are reached,
        // anything farther trips the cap.
        let star = crate::classes::StarGraph::new(6).unwrap();
        let mut rng = XorShift64::new(3);
        let from = Perm::random(6, &mut rng);
        let mut to = Perm::random(6, &mut rng);
        while star_distance_between(&from, &to) < 2 {
            to = Perm::random(6, &mut rng);
        }
        assert!(matches!(
            bfs_route(&star, &from, &to, 1),
            Err(CoreError::TooLarge {
                num_nodes: 2,
                cap: 1
            })
        ));
        let t3 = Generator::transposition(3);
        let next = t3.apply(&from).unwrap();
        assert_eq!(bfs_route(&star, &from, &next, 1).unwrap(), vec![t3]);
    }

    #[test]
    fn emulated_routes_are_within_dilation_of_bfs() {
        // Sanity: emulation-based routing is never better than exact BFS and
        // never worse than dilation × star distance.
        let host = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let mut rng = XorShift64::new(5);
        for _ in 0..10 {
            let from = Perm::random(5, &mut rng);
            let to = Perm::random(5, &mut rng);
            let emu_len = scg_route(&host, &from, &to).unwrap().len();
            let bfs_len = bfs_route(&host, &from, &to, 1_000_000).unwrap().len();
            assert!(bfs_len <= emu_len);
        }
    }
}
