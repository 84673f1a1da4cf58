//! Differential harness for the bit-packed permutation kernel: every
//! [`PackedPerm`] operation is raced against the [`Perm`] reference —
//! exhaustively over whole symmetric groups where feasible (`k ≤ 7`),
//! by seeded random sweep at the larger packed degrees (`k = 9..=16`),
//! and through the routing stack, where the packed star-sort must emit
//! byte-identical hop sequences to the legacy expansion on all ten
//! `k = 5` classes and on seeded `k = 9` / `k = 13` shapes.

use supercayley::core::{
    route_plan, star_route, CayleyNetwork, Generator, ScgClass, SuperCayleyGraph,
};
use supercayley::perm::{PackedPerm, Perm, Permutations, XorShift64, MAX_PACKED_DEGREE};

fn packed_group(k: usize) -> Vec<(Perm, PackedPerm)> {
    Permutations::lexicographic(k)
        .map(|p| (p, PackedPerm::pack(&p).unwrap()))
        .collect()
}

/// Compose agrees with the reference on every ordered pair of `S_k` for
/// `k ≤ 5` (14 400 pairs at `k = 5`, trivially fewer below).
#[test]
fn compose_matches_perm_on_all_pairs_up_to_s5() {
    for k in 1..=5 {
        for (a, pa) in &packed_group(k) {
            for (b, pb) in &packed_group(k) {
                assert_eq!(
                    pa.compose(*pb),
                    PackedPerm::pack(&a.compose(b)).unwrap(),
                    "k={k}: {a} ∘ {b}"
                );
            }
        }
    }
}

/// Compose agrees with the reference on every ordered pair of `S_6`
/// (518 400 pairs).
#[test]
fn compose_matches_perm_on_all_pairs_of_s6() {
    let group = packed_group(6);
    for (a, pa) in &group {
        for (b, pb) in &group {
            assert_eq!(
                pa.compose(*pb),
                PackedPerm::pack(&a.compose(b)).unwrap(),
                "{a} ∘ {b}"
            );
        }
    }
}

/// Compose agrees with the reference on every ordered pair of `S_7`
/// (25 401 600 pairs). The left operands are split over scoped threads by
/// their lexicographic index so the sweep stays in the repo's debug-mode
/// test budget; the pair coverage is exhaustive regardless of the split.
#[test]
fn compose_matches_perm_on_all_pairs_of_s7() {
    let group = packed_group(7);
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let chunk = group.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for lefts in group.chunks(chunk) {
            let group = &group;
            scope.spawn(move || {
                for (a, pa) in lefts {
                    for (b, pb) in group {
                        assert_eq!(
                            pa.compose(*pb),
                            PackedPerm::pack(&a.compose(b)).unwrap(),
                            "{a} ∘ {b}"
                        );
                    }
                }
            });
        }
    });
}

/// Inverse, generator application (all star links `T_2..T_k`), and the
/// rank/unrank round-trip agree with the reference on every element of
/// `S_k` for `k ≤ 7` (5 913 permutations, each through every unary op).
#[test]
fn unary_ops_match_perm_on_every_element_up_to_s7() {
    for k in 1..=7 {
        for (p, packed) in &packed_group(k) {
            assert_eq!(
                packed.inverse(),
                PackedPerm::pack(&p.inverse()).unwrap(),
                "k={k}: {p} inverse"
            );
            assert_eq!(packed.rank(k).unwrap(), p.rank(), "k={k}: {p} rank");
            assert_eq!(
                PackedPerm::from_rank(k, p.rank()).unwrap(),
                *packed,
                "k={k}: rank {} unrank",
                p.rank()
            );
            for i in 2..=k {
                assert_eq!(
                    Generator::transposition(i).apply_packed(*packed, k),
                    PackedPerm::pack(&p.swapped(1, i).unwrap()).unwrap(),
                    "k={k}: {p} along T_{i}"
                );
            }
        }
    }
}

/// The seen-symbols rank agrees with the reference on every element of
/// `S_8` (40 320 permutations), and lexicographic enumeration order is
/// rank order.
#[test]
fn rank_matches_perm_on_every_element_of_s8() {
    for (i, p) in Permutations::lexicographic(8).enumerate() {
        let packed = PackedPerm::pack(&p).unwrap();
        assert_eq!(packed.rank(8).unwrap(), p.rank(), "{p} rank");
        assert_eq!(p.rank(), i as u64, "{p} enumeration order");
        assert_eq!(PackedPerm::from_rank(8, p.rank()).unwrap(), packed);
    }
}

/// Seeded random sweep of the degrees exhaustion cannot reach: at every
/// `k` in `9..=16`, compose, inverse, generator application, and the
/// rank/unrank round-trip agree with the reference (`16! ≈ 2·10¹³` still
/// fits the `u64` rank domain).
#[test]
fn random_sweeps_match_perm_at_degrees_9_to_16() {
    let mut rng = XorShift64::new(0x9ACED);
    for k in 9..=MAX_PACKED_DEGREE {
        for _ in 0..200 {
            let a = Perm::random(k, &mut rng);
            let b = Perm::random(k, &mut rng);
            let (pa, pb) = (PackedPerm::pack(&a).unwrap(), PackedPerm::pack(&b).unwrap());
            assert_eq!(
                pa.compose(pb),
                PackedPerm::pack(&a.compose(&b)).unwrap(),
                "k={k}: {a} ∘ {b}"
            );
            assert_eq!(
                pa.inverse(),
                PackedPerm::pack(&a.inverse()).unwrap(),
                "k={k}: {a} inverse"
            );
            let i = 2 + (rng.next_u64() as usize) % (k - 1);
            assert_eq!(
                Generator::transposition(i).apply_packed(pa, k),
                PackedPerm::pack(&a.swapped(1, i).unwrap()).unwrap(),
                "k={k}: {a} along T_{i}"
            );
            assert_eq!(pa.rank(k).unwrap(), a.rank(), "k={k}: {a} rank");
            assert_eq!(
                PackedPerm::from_rank(k, a.rank()).unwrap(),
                pa,
                "k={k}: rank {} unrank",
                a.rank()
            );
        }
    }
}

/// `Generator::apply_packed` is `Generator::apply` on the word: every
/// generator of the ten classes at `k = 5` and at `k = 7` (both box
/// shapes), and of `IS(8)`, applied to every label of its group.
#[test]
fn apply_packed_matches_apply_on_every_label() {
    let mut hosts = vec![SuperCayleyGraph::insertion_selection(8).unwrap()];
    for class in ScgClass::ALL {
        if class == ScgClass::InsertionSelection {
            hosts.push(SuperCayleyGraph::insertion_selection(5).unwrap());
            hosts.push(SuperCayleyGraph::insertion_selection(7).unwrap());
        } else {
            for (l, n) in [(2, 2), (3, 2), (2, 3)] {
                hosts.push(SuperCayleyGraph::new(class, l, n).unwrap());
            }
        }
    }
    for net in &hosts {
        let k = net.degree_k();
        for (u, pu) in packed_group(k) {
            for &g in net.generators() {
                assert_eq!(
                    g.apply_packed(pu, k),
                    PackedPerm::pack(&g.apply(&u).unwrap()).unwrap(),
                    "{}: {g} on {u}",
                    net.name()
                );
            }
        }
    }
}

/// The packed `route_into` emits hop sequences byte-identical to the
/// legacy path — the optimal star route expanded link by link through the
/// plan's precompiled slices — on **every ordered pair** of `S_5` labels,
/// on **all ten** `k = 5` classes (144 000 routed pairs), and on 512
/// seeded pairs per host on the `k = 9` and `k = 13` shapes.
#[test]
fn route_into_is_byte_identical_to_legacy_on_all_ten_k5_classes() {
    let hosts = [
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
    ];
    let labels: Vec<Perm> = Permutations::lexicographic(5).collect();
    let all_pairs: Vec<(Perm, Perm)> = labels
        .iter()
        .flat_map(|from| labels.iter().map(move |to| (*from, *to)))
        .collect();
    for net in &hosts {
        assert_route_into_matches_star_route_expansion(net, &all_pairs);
    }
    let large = [
        SuperCayleyGraph::macro_star(4, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_star(4, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(9).unwrap(),
        SuperCayleyGraph::macro_is(4, 2).unwrap(),
        SuperCayleyGraph::macro_star(6, 2).unwrap(),
    ];
    for net in &large {
        let k = net.degree_k();
        let mut rng = XorShift64::new(0xB52 + k as u64);
        let pairs: Vec<(Perm, Perm)> = (0..512)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        assert_route_into_matches_star_route_expansion(net, &pairs);
    }
}

fn assert_route_into_matches_star_route_expansion(net: &SuperCayleyGraph, pairs: &[(Perm, Perm)]) {
    let plan = route_plan(net).unwrap();
    let mut buf = plan.new_buf();
    let mut legacy: Vec<Generator> = Vec::new();
    for (from, to) in pairs {
        plan.route_into(from, to, &mut buf).unwrap();
        legacy.clear();
        for g in star_route(from, to) {
            let Generator::Transposition { i } = g else {
                unreachable!("star routes consist of transpositions")
            };
            legacy.extend_from_slice(plan.star_link(i as usize).unwrap());
        }
        assert_eq!(
            buf.hops(),
            legacy.as_slice(),
            "{}: {from} -> {to}",
            net.name()
        );
    }
}
