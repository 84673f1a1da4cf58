//! Cross-crate randomized tests: random inputs flowing through the whole
//! pipeline (perm → core → embed/emu/comm). Driven by the vendored
//! deterministic PRNG (the workspace builds offline, so `proptest` is not
//! available).

use supercayley::core::{
    apply_path, materialize, route_plan, CayleyNetwork, Generator, SuperCayleyGraph, SMALL_NET_CAP,
};
use supercayley::emu::{AllPortSchedule, NextHop, Packet, PortModel, Router, SyncSim, TableRouter};
use supercayley::perm::{factorial, Perm, XorShift64};

fn host_for(pick: u8) -> SuperCayleyGraph {
    match pick % 6 {
        0 => SuperCayleyGraph::macro_star(3, 2).unwrap(),
        1 => SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(),
        2 => SuperCayleyGraph::rotation_star(3, 2).unwrap(),
        3 => SuperCayleyGraph::insertion_selection(7).unwrap(),
        4 => SuperCayleyGraph::macro_is(3, 2).unwrap(),
        _ => SuperCayleyGraph::complete_rotation_is(3, 2).unwrap(),
    }
}

/// Routing works between arbitrary node pairs on every emulation-capable
/// host, stays within the dilation bound, and uses only listed links.
#[test]
fn routing_pipeline() {
    let mut rng = XorShift64::new(61);
    for pick in 0u8..6 {
        let host = host_for(pick);
        let plan = route_plan(&host).unwrap();
        let dilation = plan.star_dilation();
        for _ in 0..8 {
            let from = Perm::from_rank(7, rng.gen_range_u64(factorial(7))).unwrap();
            let to = Perm::from_rank(7, rng.gen_range_u64(factorial(7))).unwrap();
            let path = plan.route(&from, &to).unwrap();
            assert_eq!(apply_path(&from, &path).unwrap(), to);
            for g in &path {
                assert!(
                    host.generators().contains(g),
                    "{} not in {}",
                    g,
                    host.name()
                );
            }
            let star_d = supercayley::core::star_distance_between(&from, &to) as usize;
            assert!(path.len() <= dilation * star_d);
        }
    }
}

/// The all-port schedule emulates EVERY dimension correctly from an
/// arbitrary start node (walking hops in time order).
#[test]
fn schedule_correct_from_any_node() {
    let mut rng = XorShift64::new(62);
    for pick in 0u8..6 {
        let host = host_for(pick);
        if matches!(
            host.class(),
            supercayley::core::ScgClass::RotationStar | supercayley::core::ScgClass::RotationIs
        ) {
            // No all-port theorem for RS/RIS; covered by build-level tests.
            continue;
        }
        let schedule = AllPortSchedule::build(&host).unwrap();
        for _ in 0..4 {
            let u = Perm::from_rank(7, rng.gen_range_u64(factorial(7))).unwrap();
            for dim in schedule.dims() {
                let mut hops = dim.hops.to_vec();
                hops.sort_by_key(|h| h.time);
                let mut cur = u;
                for h in &hops {
                    cur = schedule.links()[h.link].apply(&cur).unwrap();
                }
                let direct = Generator::transposition(dim.dimension).apply(&u).unwrap();
                assert_eq!(cur, direct, "{} dim {}", host.name(), dim.dimension);
            }
        }
    }
}

/// Simulated packets between random pairs arrive in exactly the
/// BFS-distance number of steps when alone in the network.
#[test]
fn lone_packet_takes_shortest_path() {
    let mut rng = XorShift64::new(63);
    for pick in 0u8..3 {
        let host = match pick {
            0 => SuperCayleyGraph::macro_star(2, 2).unwrap(),
            1 => SuperCayleyGraph::insertion_selection(5).unwrap(),
            _ => SuperCayleyGraph::complete_rotation_is(2, 2).unwrap(),
        };
        let mat = materialize(&host, SMALL_NET_CAP).unwrap();
        let graph = mat.graph();
        let router = TableRouter::new(graph).unwrap();
        for _ in 0..16 {
            let (src, dst) = (rng.gen_range(120) as u32, rng.gen_range(120) as u32);
            let mut sim = SyncSim::new(graph, PortModel::AllPort);
            sim.inject(
                src,
                Packet {
                    src,
                    dst,
                    payload: 0,
                },
                &router,
            )
            .unwrap();
            let stats = sim.run(&router, 10_000).unwrap();
            let d = u64::from(graph.bfs_distances(src)[dst as usize]);
            assert_eq!(stats.steps, d);
            // Router is consistent with adjacency.
            if src != dst {
                let NextHop::Forward(slot) = router.next_hop(
                    src,
                    &Packet {
                        src,
                        dst,
                        payload: 0,
                    },
                ) else {
                    panic!("distinct connected pair must forward");
                };
                assert!(slot < graph.out_degree(src));
            }
        }
    }
}

/// Embedding-by-label round trip: the path of every guest edge in the
/// star→MS embedding is exactly the Theorem-1 expansion applied to the
/// source label.
#[test]
fn embedding_paths_match_expansions() {
    let star = supercayley::core::StarGraph::new(5).unwrap();
    let host = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let ce = supercayley::embed::CayleyEmbedding::build(&star, &host, SMALL_NET_CAP).unwrap();
    let emb = ce.embedding();
    let edges: Vec<_> = emb.guest().edges().collect();
    let mut rng = XorShift64::new(64);
    for _ in 0..32 {
        let e_idx = rng.gen_range(edges.len());
        let (u, v) = edges[e_idx];
        let path = emb.edge_path(e_idx);
        assert_eq!(path[0], emb.node_map()[u as usize]);
        assert_eq!(*path.last().unwrap(), emb.node_map()[v as usize]);
        assert!(path.len() <= 4); // dilation 3
    }
}
