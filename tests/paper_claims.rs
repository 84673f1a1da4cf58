//! End-to-end checks of the paper's headline claims, exercised through the
//! public facade API (each claim crosses at least two crates). The claims
//! printed in the paper's tables are checked with the tables themselves,
//! by `crates/bench/tests/reproduce.rs`.

use supercayley::comm::{mnb_sdc, te_sdc};
use supercayley::core::{CayleyNetwork, NetworkReport, StarGraph, SuperCayleyGraph};
use supercayley::graph::SearchBudget;

const CAP: u64 = 50_000;

/// Corollary 2 (SDC flavor): the strictly optimal MNB takes exactly
/// N − 1 = k! − 1 steps.
#[test]
fn mnb_sdc_strictly_optimal() {
    let star4 = StarGraph::new(4).unwrap();
    let r = mnb_sdc(&star4, CAP, &mut SearchBudget::new(100_000_000)).unwrap();
    assert_eq!(r.steps, 23);
}

/// Corollary 3 (SDC flavor): TE optimum is the distance sum, and the
/// low-degree host pays more than the star on the same node count.
#[test]
fn te_tradeoff_shape() {
    let star = te_sdc(&StarGraph::new(5).unwrap(), CAP).unwrap();
    let ms = te_sdc(&SuperCayleyGraph::macro_star(2, 2).unwrap(), CAP).unwrap();
    let is5 = te_sdc(&SuperCayleyGraph::insertion_selection(5).unwrap(), CAP).unwrap();
    assert!(star.steps < ms.steps, "low degree costs time");
    assert!(
        is5.steps <= star.steps,
        "IS(5) has higher degree than the 5-star"
    );
}

/// Theorem 1/2/3 corollary, observed per-route: every routed hop count
/// stays within `star_dilation × star_distance`, the same bound the
/// observability sweep (`tab_obs`) histograms against. Fixed-seed pair
/// samples on one class per dilation constant.
#[test]
fn routed_hops_respect_dilation_bounds() {
    use supercayley::core::{materialize, route_plan, star_distance_between, SMALL_NET_CAP};
    for net in [
        SuperCayleyGraph::macro_star(2, 2).unwrap(), // dilation 3
        SuperCayleyGraph::rotation_star(2, 2).unwrap(), // dilation 3
        SuperCayleyGraph::insertion_selection(5).unwrap(), // dilation 2
        SuperCayleyGraph::macro_is(2, 2).unwrap(),   // dilation 4
    ] {
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let plan = route_plan(&net).unwrap();
        let dilation = plan.star_dilation() as u32;
        let mut rng = supercayley::perm::XorShift64::new(0xD11A);
        for _ in 0..50 {
            let s = rng.gen_range(mat.num_nodes()) as supercayley::graph::NodeId;
            let d = rng.gen_range(mat.num_nodes()) as supercayley::graph::NodeId;
            let from = mat.node_label(s).unwrap();
            let to = mat.node_label(d).unwrap();
            let path = plan.route(&from, &to).unwrap();
            assert!(
                path.len() as u32 <= dilation * star_distance_between(&from, &to),
                "{}: {s}->{d} took {} hops",
                net.name(),
                path.len()
            );
        }
    }
}

/// All ten classes construct, are vertex-transitive, and their game view
/// solves scrambles back to sorted (spanning bag + core + graph).
#[test]
fn ten_classes_game_roundtrip() {
    let mut rng = supercayley::perm::XorShift64::new(3);
    for class in supercayley::core::ScgClass::ALL {
        let net = if class == supercayley::core::ScgClass::InsertionSelection {
            SuperCayleyGraph::insertion_selection(5).unwrap()
        } else {
            SuperCayleyGraph::new(class, 2, 2).unwrap()
        };
        let report = NetworkReport::measure(&net, CAP).unwrap();
        assert!(report.transitive_check, "{}", net.name());
        let game = supercayley::bag::BagGame::new(net);
        let c = game.scramble(15, &mut rng);
        let sol = game.solve(&c).unwrap();
        assert!(game.replay(&c, &sol).unwrap().is_solved());
    }
}
