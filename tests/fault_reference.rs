//! Differential check of the label-space fault router against the
//! id-space router it replaced, kept here frozen as the reference.
//!
//! The reference walks materialized node ids: it scans the generator list
//! for each hop's slot, steps through the transition tables, and falls
//! back to BFS over `SurvivorView`'s sorted CSR. `route_faulty` walks
//! packed labels and materializes nothing. Both must return the same
//! `RoutedPath` (hops, detour count, fallback flag), or both `NoRoute`, on
//! every pair of all ten classes at k = 5 under seeded node-and-link fault
//! sets heavy enough to force detours, fallbacks and refusals, and on
//! sampled pairs at k = 7.

use supercayley::core::{
    route_faulty, route_plan, CayleyNetwork, CoreError, FaultScratch, Generator, Materialized,
    RouteBuf, RoutePlan, RoutedPath, SuperCayleyGraph, DEFAULT_NET_CAP, SMALL_NET_CAP,
};
use supercayley::graph::{FaultSet, NodeId, SurvivorView};
use supercayley::perm::{Perm, XorShift64};

/// The reference: the id-space router, as it stood before the label walk
/// replaced it (metric hooks left out).
mod reference {
    use super::*;

    fn gen_index(net: &SuperCayleyGraph, g: Generator) -> Result<usize, CoreError> {
        net.generators()
            .iter()
            .position(|&h| h == g)
            .ok_or(CoreError::NoRoute)
    }

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

    pub fn route_faulty_inner(
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
        let mut pending = compiled.new_buf();
        let mut scratch: RouteBuf = compiled.new_buf();
        compiled.route_into(from, to, &mut pending)?;
        let mut pos = 0usize;

        while cur != dst {
            let Some(&g) = pending.hops().get(pos) else {
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
                compiled.route_into(&w_label, to, &mut scratch)?;
                if plan_is_clean(net, mat, faults, w, scratch.hops())? {
                    clean = Some(ai);
                    break;
                }
            }
            let step = match (clean, live) {
                (Some(ai), _) => {
                    std::mem::swap(&mut pending, &mut scratch);
                    pos = 0;
                    Some(ai)
                }
                (None, Some(ai)) => {
                    let alt = net.generators()[ai];
                    compiled.route_into(&alt.apply(&cur_label)?, to, &mut pending)?;
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
}

/// All ten classes of Table II at k = nl + 1 = 5.
fn ten_classes() -> Vec<SuperCayleyGraph> {
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

/// Seeded fault set `seed` of a family of six: `degree + seed` faults,
/// failed nodes and failed directed links in shares that vary with the
/// seed, so detours, fallbacks and refusals all occur.
fn fault_set(mat: &Materialized, seed: u64) -> FaultSet {
    let total = mat.node_degree() + seed as usize;
    let nodes = total * (1 + seed as usize % 3) / 4;
    let mut rng = XorShift64::new(0xD1FF_0000 + seed);
    let mut faults = FaultSet::random_nodes(mat.num_nodes(), nodes, &[], &mut rng);
    faults.merge(&FaultSet::random_links(
        mat.graph(),
        total - nodes,
        &mut rng,
    ));
    faults
}

/// Outcome tallies over one comparison run.
#[derive(Default)]
struct Tally {
    detoured: usize,
    fallback: usize,
    refused: usize,
}

/// Routes `(from, to)` both ways under `faults` and asserts they agree.
fn agree(
    net: &SuperCayleyGraph,
    mat: &Materialized,
    plan: &RoutePlan,
    faults: &FaultSet,
    (from, to): (&Perm, &Perm),
    scratch: &mut FaultScratch,
    tally: &mut Tally,
) {
    let want = reference::route_faulty_inner(plan, net, mat, from, to, faults);
    let got = route_faulty(plan, faults, from, to, scratch);
    assert_eq!(got, want, "{}: {from} -> {to}", net.name());
    match want {
        Ok(path) => {
            tally.detoured += usize::from(path.detours > 0);
            tally.fallback += usize::from(path.fallback_used);
        }
        Err(CoreError::NoRoute) => tally.refused += 1,
        Err(e) => panic!("{}: reference failed with {e}", net.name()),
    }
}

/// Every ordered pair of each class × the six fault sets.
fn every_k5_pair_agrees(classes: &[SuperCayleyGraph]) {
    let labels: Vec<Perm> = (0..120).map(|r| Perm::from_rank(5, r).unwrap()).collect();
    let mut scratch = FaultScratch::new();
    let mut tally = Tally::default();
    for net in classes {
        let mat = supercayley::core::materialize(net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(net).unwrap();
        for seed in 0..6 {
            let faults = fault_set(&mat, seed);
            for from in &labels {
                for to in &labels {
                    agree(
                        net,
                        &mat,
                        &plan,
                        &faults,
                        (from, to),
                        &mut scratch,
                        &mut tally,
                    );
                }
            }
        }
    }
    assert!(tally.detoured > 0 && tally.fallback > 0 && tally.refused > 0);
}

// Two halves of the ten classes, so the harness can run them in parallel.
#[test]
fn label_walk_matches_the_id_walk_on_every_pair_of_classes_1_to_5() {
    every_k5_pair_agrees(&ten_classes()[..5]);
}

#[test]
fn label_walk_matches_the_id_walk_on_every_pair_of_classes_6_to_10() {
    every_k5_pair_agrees(&ten_classes()[5..]);
}

#[test]
fn label_walk_matches_the_id_walk_on_sampled_k7_pairs() {
    let mut scratch = FaultScratch::new();
    for net in [
        SuperCayleyGraph::macro_star(3, 2).unwrap(),
        SuperCayleyGraph::rotation_rotator(3, 2).unwrap(),
    ] {
        let mat = supercayley::core::materialize(&net, DEFAULT_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let mut tally = Tally::default();
        for seed in 0..6 {
            let faults = fault_set(&mat, seed);
            let mut rng = XorShift64::new(0x7A11 + seed);
            for _ in 0..400 {
                let from = Perm::random(7, &mut rng);
                let to = Perm::random(7, &mut rng);
                agree(
                    &net,
                    &mat,
                    &plan,
                    &faults,
                    (&from, &to),
                    &mut scratch,
                    &mut tally,
                );
            }
        }
        assert!(tally.detoured > 0 && tally.refused > 0, "{}", net.name());
    }
}

#[test]
fn a_reused_scratch_is_never_stale() {
    // Two sets at the same epoch with the same fault count but different
    // contents: a scratch that routed under the first must route under
    // the second exactly as a fresh one does.
    let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
    let plan = route_plan(&net).unwrap();
    let (mut a, mut b) = (FaultSet::new(), FaultSet::new());
    a.fail_node(7);
    a.fail_link(0, 1);
    b.fail_node(64);
    b.fail_link(3, 9);
    assert_eq!(
        (a.epoch(), a.num_failed_nodes()),
        (b.epoch(), b.num_failed_nodes())
    );
    let labels: Vec<Perm> = (0..120).map(|r| Perm::from_rank(5, r).unwrap()).collect();
    let mut reused = FaultScratch::new();
    let mut differs = false;
    for from in &labels {
        for to in &labels {
            let under_a = route_faulty(&plan, &a, from, to, &mut reused);
            let under_b = route_faulty(&plan, &b, from, to, &mut reused);
            let fresh = route_faulty(&plan, &b, from, to, &mut FaultScratch::new());
            assert_eq!(under_b, fresh, "{from} -> {to}");
            differs |= under_a != under_b;
        }
    }
    assert!(
        differs,
        "the two fault sets must route some pair differently"
    );
}
