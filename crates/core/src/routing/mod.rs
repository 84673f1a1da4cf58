//! Routing: optimal star-graph routing, emulation-based routing on super
//! Cayley graphs, and exact BFS routing for validation.
//!
//! Each job has one entry:
//!
//! * **a fault-free pair** — the network's compiled [`RoutePlan`] (one
//!   expansion arena, one packed star-sort kernel), held through
//!   [`route_plan`](crate::route_plan): [`RoutePlan::route`] returns the
//!   hops, [`RoutePlan::route_into`] writes them into a reused
//!   [`RouteBuf`], [`RoutePlan::route_chunk`] routes a slice of pairs,
//!   and [`RoutePlan::pack_labels`] with [`RoutePlan::star_sort_links`]
//!   route raw wire labels link by link;
//! * **a pair around faults** — [`route_faulty`];
//! * **an exact shortest path** — [`bfs_route`], the fault router's
//!   label search run with no faults;
//! * **the star graph itself** — [`star_route`], the paper's optimal
//!   `S_k` algorithm and the reference the tests check plans against.

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

use scg_perm::Perm;

use crate::error::CoreError;
use crate::generator::Generator;
use crate::network::CayleyNetwork;

/// Exact shortest-path routing by breadth-first search over labels.
///
/// Works on any network (including the directed rotator classes) but costs
/// up to `O(k! · degree)` time and memory; `cap` bounds the number of nodes
/// the search may reach. It is [`route_faulty`]'s fallback search with no
/// faults, so node ids are `u32` ranks and `k ≤ 12`
/// ([`MAX_FAULT_DEGREE`]).
///
/// # Errors
///
/// * [`CoreError::DegreeMismatch`] — label degrees do not match the network;
/// * [`CoreError::TooLarge`] — the network has `k > 12`, or more than `cap`
///   nodes were reached without finding `to`;
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
    fault::fault_free_bfs(net.generators(), k, from, to, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{apply_path, SuperCayleyGraph};
    use crate::topology::route_plan;
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
                let plan = route_plan(host).unwrap();
                let path = plan.route(&from, &to).unwrap();
                assert_eq!(apply_path(&from, &path).unwrap(), to, "{}", host.name());
                let dilation = plan.star_dilation();
                assert!(path.len() as u32 <= dilation as u32 * star_distance_between(&from, &to));
            }
        }
    }

    #[test]
    fn scg_route_path_uses_only_host_generators(/* links must exist */) {
        let host = SuperCayleyGraph::macro_is(2, 3).unwrap();
        let from = Perm::from_symbols(&[7, 6, 5, 4, 3, 2, 1]).unwrap();
        let to = Perm::identity(7);
        for g in route_plan(&host).unwrap().route(&from, &to).unwrap() {
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
        let emu = route_plan(&mr).unwrap().route(&from, &to).unwrap();
        assert_eq!(apply_path(&from, &emu).unwrap(), to);
        assert!(bfs.len() <= emu.len());
        for g in &emu {
            assert!(mr.generators().contains(g));
        }
    }

    #[test]
    fn bfs_route_cap_enforced() {
        // The cap counts reached nodes: with cap = 1 only `from` fits, so
        // the first other node reached trips it unless it is `to`.
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
                num_nodes: 720,
                cap: 1
            })
        ));
        // `from` and its five neighbours fit a cap of 6.
        let t3 = Generator::transposition(3);
        let next = t3.apply(&from).unwrap();
        assert_eq!(bfs_route(&star, &from, &next, 6).unwrap(), vec![t3]);
    }

    #[test]
    fn bfs_route_refuses_degrees_above_twelve() {
        let star = crate::classes::StarGraph::new(13).unwrap();
        let (from, to) = (Perm::identity(13), Perm::from_rank(13, 1).unwrap());
        assert!(matches!(
            bfs_route(&star, &from, &to, 1_000),
            Err(CoreError::TooLarge {
                cap: 479_001_600,
                ..
            })
        ));
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
            let emu_len = route_plan(&host).unwrap().route(&from, &to).unwrap().len();
            let bfs_len = bfs_route(&host, &from, &to, 1_000_000).unwrap().len();
            assert!(bfs_len <= emu_len);
        }
    }
}
