//! Cross-crate checks of the compiled route planner: chunked routing
//! equals per-pair routing, and every planned route respects the Theorem 1–3
//! dilation bound. (Plan lookups are checked against the star emulation
//! that builds them inside `scg-core`.)

use supercayley::core::{
    apply_path, route_plan, star_diameter, star_distance_between, CayleyNetwork, CoreError,
    Generator, SuperCayleyGraph,
};
use supercayley::perm::{Perm, XorShift64};

fn all_classes_small() -> Vec<SuperCayleyGraph> {
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

/// `route_chunk` over a whole pair list returns exactly the routes
/// `RoutePlan::route` gives each pair, in input order.
#[test]
fn route_chunk_equals_sequential_routing() {
    let mut rng = XorShift64::new(0x9A7E);
    for net in all_classes_small() {
        let plan = route_plan(&net).unwrap();
        let k = net.degree_k();
        let pairs: Vec<(Perm, Perm)> = (0..64)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        let mut out = vec![Vec::new(); pairs.len()];
        plan.route_chunk(&pairs, &mut out, &mut plan.new_batch_state())
            .unwrap();
        for (route, (from, to)) in out.iter().zip(&pairs) {
            assert_eq!(route, &plan.route(from, to).unwrap(), "{}", net.name());
        }
    }
}

/// Packed batch routing is a pure function of the pairs: the same seeded
/// pairs split into chunks of 64, 10 and 1, all through one reused
/// `BatchState`, route to the paths sequential `route_into` gives. A
/// degree-mismatched last pair comes back as that pair's error, and no
/// `out` slot of its chunk is written.
#[test]
fn route_chunk_output_is_independent_of_chunking() {
    let mut rng = XorShift64::new(0xC4053);
    let mut nets = all_classes_small();
    nets.push(SuperCayleyGraph::macro_star(4, 2).unwrap());
    for net in nets {
        let plan = route_plan(&net).unwrap();
        let k = net.degree_k();
        let mut pairs: Vec<(Perm, Perm)> = (0..64)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        let mut buf = plan.new_buf();
        let reference: Vec<Vec<Generator>> = pairs
            .iter()
            .map(|(from, to)| {
                plan.route_into(from, to, &mut buf).unwrap();
                buf.hops().to_vec()
            })
            .collect();
        let mut state = plan.new_batch_state();
        for chunk in [64, 10, 1] {
            let mut out = vec![Vec::new(); pairs.len()];
            for (pair_chunk, out_chunk) in pairs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                plan.route_chunk(pair_chunk, out_chunk, &mut state).unwrap();
            }
            assert_eq!(out, reference, "{} chunk={chunk}", net.name());
        }
        pairs[63].1 = Perm::identity(k + 1);
        let mut out = vec![Vec::new(); pairs.len()];
        assert_eq!(
            plan.route_chunk(&pairs, &mut out, &mut state),
            Err(CoreError::DegreeMismatch {
                expected: k,
                found: k + 1
            }),
            "{}",
            net.name()
        );
        assert!(out.iter().all(Vec::is_empty), "{}", net.name());
    }
}

/// Every planned route walks `from` to `to` and obeys the paper's bound:
/// at most `star_dilation × star_distance(from, to)` hops (hence at most
/// `star_dilation × star_diameter` anywhere).
#[test]
fn planned_routes_arrive_within_the_dilation_bound() {
    let mut rng = XorShift64::new(0xB0CD);
    for net in all_classes_small() {
        let plan = route_plan(&net).unwrap();
        let k = net.degree_k();
        let mut buf = plan.new_buf();
        for _ in 0..50 {
            let from = Perm::random(k, &mut rng);
            let to = Perm::random(k, &mut rng);
            plan.route_into(&from, &to, &mut buf).unwrap();
            assert_eq!(apply_path(&from, buf.hops()).unwrap(), to, "{}", net.name());
            let bound = plan.star_dilation() as u32 * star_distance_between(&from, &to);
            assert!(
                buf.len() as u32 <= bound,
                "{}: {} hops > bound {bound}",
                net.name(),
                buf.len()
            );
            assert!(buf.len() as u32 <= plan.star_dilation() as u32 * star_diameter(k));
        }
    }
}

/// The planner works on networks far too large to materialize: `MS(6,2)`
/// has `13!` ≈ 6.2 billion nodes, yet plans compile in `O(k²)` and routes
/// still verify by label walking.
#[test]
fn plans_route_networks_too_large_to_materialize() {
    let big = SuperCayleyGraph::macro_star(6, 2).unwrap();
    let plan = route_plan(&big).unwrap();
    let mut rng = XorShift64::new(0xFEED);
    let mut buf = plan.new_buf();
    for _ in 0..20 {
        let from = Perm::random(13, &mut rng);
        let to = Perm::random(13, &mut rng);
        plan.route_into(&from, &to, &mut buf).unwrap();
        assert_eq!(apply_path(&from, buf.hops()).unwrap(), to);
        for g in buf.hops() {
            assert!(
                big.generators().contains(g),
                "route uses a non-generator {g}"
            );
        }
    }
}

/// Plans for the same network are shared: two lookups return the same arena.
#[test]
fn plan_cache_shares_one_arena_per_network() {
    let net = SuperCayleyGraph::rotation_is(2, 2).unwrap();
    let a = route_plan(&net).unwrap();
    let b = route_plan(&net).unwrap();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    // And a same-shape network of a different class gets a different plan.
    let other = route_plan(&SuperCayleyGraph::macro_is(2, 2).unwrap()).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&a, &other));
}

/// Mixed-degree pairs are rejected without panicking, chunks included;
/// an empty chunk routes.
#[test]
fn degree_mismatches_surface_as_errors() {
    let plan = route_plan(&SuperCayleyGraph::macro_star(2, 2).unwrap()).unwrap();
    let bad = Perm::identity(7);
    let good = Perm::identity(5);
    assert!(plan.route(&bad, &good).is_err());
    let mut state = plan.new_batch_state();
    let pairs = vec![(good, good), (bad, good)];
    let mut out = vec![Vec::new(); 2];
    assert!(plan.route_chunk(&pairs, &mut out, &mut state).is_err());
    assert_eq!(plan.route_chunk(&[], &mut [], &mut state), Ok(()));
}
