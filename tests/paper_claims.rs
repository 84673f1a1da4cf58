//! End-to-end checks of the paper's headline claims, exercised through the
//! public facade API (each claim crosses at least two crates).

use supercayley::comm::{mnb_sdc, te_sdc};
use supercayley::core::{star_diameter, CayleyNetwork, NetworkReport, StarGraph, SuperCayleyGraph};
use supercayley::embed::CayleyEmbedding;
use supercayley::emu::{AllPortSchedule, SdcReport};
use supercayley::graph::SearchBudget;

const CAP: u64 = 50_000;

/// Theorem 1: slowdown 3 on MS and Complete-RS, embodied both as SDC
/// slowdown and star-embedding dilation.
#[test]
fn theorem_1_slowdown_3() {
    for host in [
        SuperCayleyGraph::macro_star(3, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(),
    ] {
        assert_eq!(SdcReport::measure(&host).unwrap().worst_slowdown, 3);
        let star = StarGraph::new(7).unwrap();
        let ce = CayleyEmbedding::build(&star, &host, CAP).unwrap();
        assert_eq!(ce.embedding().dilation(), 3);
        assert_eq!(ce.embedding().load(), 1);
        // Congestion max(2n, l) = 4, per-dimension <= 2.
        assert_eq!(ce.embedding().congestion(), 4);
        assert!(ce.max_dimension_congestion() <= 2);
    }
}

/// Theorems 2 and 3: slowdowns 2 (IS) and 4 (MIS / Complete-RIS).
#[test]
fn theorems_2_3_slowdowns() {
    let is7 = SuperCayleyGraph::insertion_selection(7).unwrap();
    assert_eq!(SdcReport::measure(&is7).unwrap().worst_slowdown, 2);
    for host in [
        SuperCayleyGraph::macro_is(3, 2).unwrap(),
        SuperCayleyGraph::complete_rotation_is(3, 2).unwrap(),
    ] {
        assert_eq!(SdcReport::measure(&host).unwrap().worst_slowdown, 4);
    }
}

/// Theorem 4 + Figure 1: all-port slowdown max(2n, l+1); the Figure 1b
/// instance is 93%-utilized and fully busy through step 5.
#[test]
fn theorem_4_and_figure_1() {
    let fig1b = AllPortSchedule::build(&SuperCayleyGraph::macro_star(5, 3).unwrap()).unwrap();
    assert_eq!(fig1b.makespan(), 6);
    assert_eq!(fig1b.fully_used_through(), 5);
    assert!((fig1b.utilization() - 39.0 / 42.0).abs() < 1e-12);
    let fig1a = AllPortSchedule::build(&SuperCayleyGraph::macro_star(4, 3).unwrap()).unwrap();
    assert_eq!(fig1a.makespan(), 6); // max(2·3, 4+1)
}

/// Theorem 6: TN dilation 5 (l = 2) and 7 (l >= 3) — measured on the
/// validated embedding, not just the expansion table.
#[test]
fn theorem_6_tn_dilations() {
    let tn = supercayley::core::TranspositionNetwork::new(7).unwrap();
    let l2 = SuperCayleyGraph::macro_star(2, 3).unwrap();
    let ce2 = CayleyEmbedding::build(&tn, &l2, CAP).unwrap();
    assert_eq!(ce2.embedding().dilation(), 5);
    let l3 = SuperCayleyGraph::macro_star(3, 2).unwrap();
    let ce3 = CayleyEmbedding::build(&tn, &l3, CAP).unwrap();
    assert_eq!(ce3.embedding().dilation(), 7);
}

/// The star diameter formula ⌊3(k−1)/2⌋ and vertex transitivity, through
/// the materialized-graph pipeline.
#[test]
fn star_reference_properties() {
    for k in 4..=6 {
        let r = NetworkReport::measure(&StarGraph::new(k).unwrap(), CAP).unwrap();
        assert_eq!(r.diameter, star_diameter(k));
        assert!(r.transitive_check);
        assert!(r.diameter >= r.moore_bound);
    }
}

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
    use supercayley::core::{
        materialize, route_plan, scg_route, star_distance_between, SMALL_NET_CAP,
    };
    for net in [
        SuperCayleyGraph::macro_star(2, 2).unwrap(), // dilation 3
        SuperCayleyGraph::rotation_star(2, 2).unwrap(), // dilation 3
        SuperCayleyGraph::insertion_selection(5).unwrap(), // dilation 2
        SuperCayleyGraph::macro_is(2, 2).unwrap(),   // dilation 4
    ] {
        let mat = materialize(&net, SMALL_NET_CAP).unwrap();
        let dilation = route_plan(&net).unwrap().star_dilation() as u32;
        let mut rng = supercayley::perm::XorShift64::new(0xD11A);
        for _ in 0..50 {
            let s = rng.gen_range(mat.num_nodes()) as supercayley::graph::NodeId;
            let d = rng.gen_range(mat.num_nodes()) as supercayley::graph::NodeId;
            let from = mat.node_label(s).unwrap();
            let to = mat.node_label(d).unwrap();
            let path = scg_route(&net, &from, &to).unwrap();
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
