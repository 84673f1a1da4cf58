//! Randomized tests for generator algebra and routing. Driven by the
//! vendored deterministic PRNG (the workspace builds offline, so `proptest`
//! is not available).

use scg_core::{
    apply_path, star_distance, star_distance_between, star_route, star_sort_sequence,
    CayleyNetwork, Generator, RoutePlan, SuperCayleyGraph,
};
use scg_perm::{factorial, Perm, XorShift64};

fn rand_perm(k: usize, rng: &mut XorShift64) -> Perm {
    Perm::from_rank(k, rng.gen_range_u64(factorial(k))).expect("rank in range")
}

/// Small (l, n) pairs for super Cayley hosts with k = nl + 1 <= 9.
const SHAPES: [(usize, usize); 5] = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)];

#[test]
fn star_route_is_optimal_and_correct() {
    let mut rng = XorShift64::new(71);
    for _ in 0..64 {
        let k = 2 + rng.gen_range(7);
        let from = rand_perm(k, &mut rng);
        let to = rand_perm(k, &mut rng);
        let path = star_route(&from, &to);
        assert_eq!(apply_path(&from, &path).unwrap(), to);
        assert_eq!(path.len() as u32, star_distance_between(&from, &to));
        // Triangle inequality against any midpoint label via sort sequences.
        assert!(star_distance(&from) <= star_distance(&to) + path.len() as u32);
    }
}

#[test]
fn sort_sequence_uses_only_star_generators() {
    let mut rng = XorShift64::new(72);
    for _ in 0..64 {
        let k = 2 + rng.gen_range(7);
        let p = rand_perm(k, &mut rng);
        for g in star_sort_sequence(&p) {
            assert!(matches!(g, Generator::Transposition { .. }));
        }
    }
}

#[test]
fn star_expansion_commutes_with_any_start() {
    let mut rng = XorShift64::new(73);
    for (l, n) in SHAPES {
        let k = l * n + 1;
        for _ in 0..4 {
            let u = rand_perm(k, &mut rng);
            for host in [
                SuperCayleyGraph::macro_star(l, n).unwrap(),
                SuperCayleyGraph::complete_rotation_star(l, n).unwrap(),
                SuperCayleyGraph::macro_is(l, n).unwrap(),
                SuperCayleyGraph::rotation_is(l, n).unwrap(),
            ] {
                let plan = RoutePlan::build(&host).unwrap();
                for j in 2..=k {
                    let seq = plan.star_link(j).unwrap();
                    assert_eq!(
                        apply_path(&u, seq).unwrap(),
                        Generator::transposition(j).apply(&u).unwrap(),
                        "host {} link {}",
                        host.name(),
                        j
                    );
                }
            }
        }
    }
}

#[test]
fn scg_route_endpoint_and_bound() {
    let mut rng = XorShift64::new(74);
    for (l, n) in SHAPES {
        let k = l * n + 1;
        let host = SuperCayleyGraph::macro_star(l, n).unwrap();
        let plan = RoutePlan::build(&host).unwrap();
        let dilation = plan.star_dilation();
        for _ in 0..8 {
            let from = rand_perm(k, &mut rng);
            let to = rand_perm(k, &mut rng);
            let path = plan.route(&from, &to).unwrap();
            assert_eq!(apply_path(&from, &path).unwrap(), to);
            assert!(path.len() as u32 <= dilation as u32 * star_distance_between(&from, &to));
            // Every link on the path is a defined host generator.
            for g in &path {
                assert!(host.generators().contains(g));
            }
        }
    }
}

#[test]
fn tn_expansion_correct_for_random_pairs() {
    let mut rng = XorShift64::new(75);
    for host_pick in 0usize..4 {
        let host = match host_pick {
            0 => SuperCayleyGraph::macro_star(3, 2).unwrap(),
            1 => SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(),
            2 => SuperCayleyGraph::macro_is(3, 2).unwrap(),
            _ => SuperCayleyGraph::insertion_selection(7).unwrap(),
        };
        let k = host.degree_k();
        let plan = RoutePlan::build(&host).unwrap();
        for _ in 0..16 {
            let u = rand_perm(k, &mut rng);
            let i = 1 + rng.gen_range(k - 1);
            let j = i + 1 + rng.gen_range(k - i);
            let seq = plan.tn_link(i, j).unwrap();
            assert_eq!(
                apply_path(&u, seq).unwrap(),
                Generator::exchange(i, j).apply(&u).unwrap(),
                "host {} pair ({}, {})",
                host.name(),
                i,
                j
            );
        }
    }
}
