//! Cross-crate checks of the compiled route planner: batch routing equals
//! sequential routing, and every planned route respects the Theorem 1–3
//! dilation bound. (Plan lookups are checked against the star emulation
//! that builds them inside `scg-core`.)

use supercayley::core::{
    apply_path, route_batch, route_plan, scg_route, star_diameter, star_distance_between,
    CayleyNetwork, CoreError, Generator, SuperCayleyGraph, MIN_PAIRS_PER_THREAD,
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

/// `route_batch` at any requested thread count returns exactly the routes
/// sequential `scg_route` produces, in input order.
#[test]
fn route_batch_equals_sequential_routing() {
    let mut rng = XorShift64::new(0x9A7E);
    for net in all_classes_small() {
        let k = net.degree_k();
        let pairs: Vec<(Perm, Perm)> = (0..64)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        for threads in [1, 3, 8] {
            let batch = route_batch(&net, &pairs, threads).unwrap();
            assert_eq!(batch.len(), pairs.len());
            for (route, (from, to)) in batch.iter().zip(&pairs) {
                assert_eq!(
                    route,
                    &scg_route(&net, from, to).unwrap(),
                    "{} threads={threads}",
                    net.name()
                );
            }
        }
    }
}

/// Packed batch routing is a pure function of the pairs: seeded pair sets
/// route to byte-identical paths whatever the thread count, with
/// sequential `route_into` on a held plan as the reference. `route_batch`
/// gives each thread at least `MIN_PAIRS_PER_THREAD` pairs, so the 64-pair
/// sets on the `k = 5` classes run on the caller's thread at every thread
/// count. The `2 * MIN_PAIRS_PER_THREAD + 1`-pair sets on MS(2,2) and
/// MS(4,2) fan out to two threads (chunks of 2 049 and 2 048 pairs) at 2
/// and 3 threads; there a degree-mismatched pair in the last chunk must
/// come back as the batch's error.
#[test]
fn route_batch_output_is_independent_of_chunking_and_threads() {
    let mut rng = XorShift64::new(0xC4053);
    let fan_out = 2 * MIN_PAIRS_PER_THREAD + 1;
    let mut inputs: Vec<(SuperCayleyGraph, usize, &[usize])> = all_classes_small()
        .into_iter()
        .map(|net| (net, 64, &[64, 10, 1][..]))
        .collect();
    inputs.push((
        SuperCayleyGraph::macro_star(2, 2).unwrap(),
        fan_out,
        &[1, 2, 3],
    ));
    inputs.push((
        SuperCayleyGraph::macro_star(4, 2).unwrap(),
        fan_out,
        &[1, 2, 3],
    ));
    for (net, n, thread_counts) in inputs {
        let plan = route_plan(&net).unwrap();
        let k = net.degree_k();
        let mut pairs: Vec<(Perm, Perm)> = (0..n)
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
        for &threads in thread_counts {
            assert_eq!(
                route_batch(&net, &pairs, threads).unwrap(),
                reference,
                "{} n={n} threads={threads}",
                net.name()
            );
        }
        if n == fan_out {
            pairs[n - 1].1 = Perm::identity(k + 1);
            assert_eq!(
                route_batch(&net, &pairs, 2),
                Err(CoreError::DegreeMismatch {
                    expected: k,
                    found: k + 1
                }),
                "{}",
                net.name()
            );
        }
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

/// Mixed-degree pairs are rejected without panicking, batch included.
#[test]
fn degree_mismatches_surface_as_errors() {
    let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let bad = Perm::identity(7);
    let good = Perm::identity(5);
    assert!(scg_route(&net, &bad, &good).is_err());
    let pairs = vec![(good, good), (bad, good)];
    assert!(route_batch(&net, &pairs, 2).is_err());
    let empty: Vec<(Perm, Perm)> = Vec::new();
    assert_eq!(
        route_batch(&net, &empty, 4).unwrap(),
        Vec::<Vec<Generator>>::new()
    );
}
