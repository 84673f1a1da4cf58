//! Error types across the workspace: every public error variant renders a
//! meaningful message and carries its source chain (C-GOOD-ERR).

use std::error::Error as _;

use supercayley::bag::BagGame;
use supercayley::comm::CommError;
use supercayley::core::{route_plan, CoreError, SuperCayleyGraph};
use supercayley::embed::EmbedError;
use supercayley::emu::{AllPortSchedule, EmuError};
use supercayley::graph::{GraphError, SearchBudget};
use supercayley::perm::{Perm, PermError};

#[test]
fn perm_errors_render() {
    let e = Perm::from_symbols(&[1, 1]).unwrap_err();
    assert!(matches!(e, PermError::NotAPermutation { symbol: 1 }));
    assert!(e.to_string().contains("not a permutation"));
    let e = Perm::from_rank(3, 99).unwrap_err();
    assert!(e.to_string().contains("99"));
    let e = Perm::from_symbols(&[]).unwrap_err();
    assert!(e.to_string().contains("degree"));
    let e = Perm::identity(4).swapped(0, 2).unwrap_err();
    assert!(e.to_string().contains("position 0"));
}

#[test]
fn packed_degree_rejection_is_typed_and_pinned() {
    // The packed kernel refuses k > 16 with a typed error, never a panic
    // or a silent truncation; routing a pair surfaces the same error,
    // wrapped, while the plan itself still builds and serves link lookups.
    let e = supercayley::perm::PackedPerm::pack(&Perm::identity(17)).unwrap_err();
    assert!(matches!(
        e,
        PermError::PackedDegreeOutOfRange { degree: 17 }
    ));
    assert_eq!(
        e.to_string(),
        "degree 17 exceeds the packed-kernel limit 16"
    );

    let is17 = SuperCayleyGraph::insertion_selection(17).unwrap();
    let plan = route_plan(&is17).unwrap();
    assert_eq!(plan.star_link(17).unwrap().len(), 2);
    let (from, to) = (Perm::identity(17), Perm::from_rank(17, 12_345).unwrap());
    let mut buf = plan.new_buf();
    let refused = |r: Result<(), CoreError>| {
        matches!(
            r,
            Err(CoreError::Perm(PermError::PackedDegreeOutOfRange {
                degree: 17
            }))
        )
    };
    assert!(refused(plan.route_into(&from, &to, &mut buf)));
    let (mut out, mut state) = (vec![Vec::new()], plan.new_batch_state());
    let chunk = plan.route_chunk(&[(from, to)], &mut out, &mut state);
    assert!(refused(chunk));
    assert!(out[0].is_empty(), "a refused chunk writes no route");
}

#[test]
fn core_errors_render_and_chain() {
    let e = SuperCayleyGraph::macro_star(1, 2).unwrap_err();
    assert!(e.to_string().contains("l=1"));
    let bad = supercayley::core::Generator::transposition(9)
        .apply(&Perm::identity(4))
        .unwrap_err();
    let wrapped = CoreError::from(bad);
    assert!(wrapped.to_string().contains("permutation error"));
    assert!(wrapped.source().is_some(), "source chain preserved");
    let ms = SuperCayleyGraph::macro_star(4, 3).unwrap(); // 13! nodes
    let e = supercayley::core::NetworkReport::measure(&ms, 10).unwrap_err();
    assert!(e.to_string().contains("exceeds"));
}

#[test]
fn graph_errors_render() {
    let g = supercayley::graph::DenseGraph::from_edges(2, [(0, 9)]).unwrap_err();
    assert!(matches!(g, GraphError::NodeOutOfRange { node: 0 | 9, .. }));
    assert!(g.to_string().contains("out of range"));
    assert_eq!(
        GraphError::BudgetExhausted.to_string(),
        "search budget exhausted"
    );
    assert!(GraphError::NotATree.to_string().contains("tree"));
}

#[test]
fn embed_errors_render_and_chain() {
    let tree = supercayley::graph::complete_binary_tree(5);
    let host = supercayley::graph::complete_binary_tree(2);
    let e = supercayley::graph::embed_tree(&tree, &host, 0, 0, &mut SearchBudget::new(10));
    // Tree larger than host: embeds nowhere → Ok(None), not an error.
    assert!(e.unwrap().is_none());
    let wrapped = EmbedError::from(GraphError::BudgetExhausted);
    assert!(wrapped.source().is_some());
    assert!(wrapped.to_string().contains("graph error"));
    let inconclusive = EmbedError::SearchInconclusive;
    assert!(inconclusive.to_string().contains("budget"));
}

#[test]
fn oversized_embed_hosts_are_refused_structurally() {
    // The materialization cap is checked before any search or host build,
    // and the refusal carries the numbers, not a stringly-typed message.
    let e = supercayley::embed::linear_array_into_star(9, 1_000, &mut SearchBudget::new(10))
        .unwrap_err();
    assert!(matches!(
        e,
        EmbedError::HostTooLarge {
            guest: "linear-array",
            k: 9,
            num_nodes: 362_880,
            cap: 1_000,
        }
    ));
    assert_eq!(
        e.to_string(),
        "linear-array embedding needs the 9-symbol host materialized (362880 nodes) \
         but the cap is 1000 nodes"
    );

    // tree_into_star materializes under DEFAULT_NET_CAP (10^6): 10! exceeds it.
    let e = supercayley::embed::tree_into_star(2, 10, &mut SearchBudget::new(10)).unwrap_err();
    assert!(matches!(
        e,
        EmbedError::HostTooLarge {
            guest: "tree",
            k: 10,
            num_nodes: 3_628_800,
            ..
        }
    ));
    assert_eq!(
        e.to_string(),
        "tree embedding needs the 10-symbol host materialized (3628800 nodes) \
         but the cap is 1000000 nodes"
    );
}

#[test]
fn emu_errors_render() {
    let e = AllPortSchedule::paper_form(&SuperCayleyGraph::macro_star(6, 3).unwrap()).unwrap_err();
    let EmuError::InvalidSchedule { reason } = &e else {
        panic!("expected InvalidSchedule");
    };
    assert!(reason.contains("l=6"));
    assert!(e.to_string().contains("invalid schedule"));
}

#[test]
fn comm_errors_render_and_chain() {
    // TE on a network too large for the cap.
    let ms = SuperCayleyGraph::macro_star(3, 2).unwrap();
    let e = supercayley::comm::te_sdc(&ms, 10).unwrap_err();
    assert!(matches!(e, CommError::Core(_)));
    assert!(e.source().is_some());
    // Relay verification rejects a bogus witness.
    let star = supercayley::core::StarGraph::new(4).unwrap();
    let bogus: Vec<u32> = (0..24).rev().collect(); // doesn't start at 0
    let e = supercayley::comm::verify_sdc_relay(&star, &bogus).unwrap_err();
    assert!(e.to_string().contains("identity"));
}

#[test]
fn bag_solver_propagates_caps() {
    let game = BagGame::new(SuperCayleyGraph::macro_star(2, 2).unwrap());
    let mut rng = supercayley::perm::XorShift64::new(1);
    let c = game.scramble(10, &mut rng);
    let e = game.solve_optimal(&c, 1).unwrap_err();
    assert!(matches!(e, CoreError::TooLarge { .. }) || matches!(e, CoreError::NoRoute));
}
