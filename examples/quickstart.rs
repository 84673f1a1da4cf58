//! Quickstart: build super Cayley networks, inspect their topology, and
//! route packets by star-graph emulation.
//!
//! Run with `cargo run --example quickstart`.

use supercayley::core::{
    apply_path, route_plan, scg_route, star_distance_between, CayleyNetwork, NetworkReport,
    SuperCayleyGraph,
};
use supercayley::perm::Perm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's flagship class: the macro-star network MS(l, n) with
    // k = nl + 1 symbols. MS(3,2) has 7! = 5040 nodes of degree 4.
    let ms = SuperCayleyGraph::macro_star(3, 2)?;
    println!("network      : {}", ms.name());
    println!("nodes        : {}", ms.num_nodes());
    println!("degree       : {}", ms.node_degree());
    println!(
        "generators   : {:?}",
        ms.generators()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );

    // Measured topological properties (diameter, mean distance, Moore bound).
    let report = NetworkReport::measure(&ms, 10_000)?;
    println!(
        "diameter     : {} (Moore bound {})",
        report.diameter, report.moore_bound
    );
    println!("mean distance: {:.3}", report.mean_distance);

    // Routing: emulate the optimal star-graph route (Theorem 1: each star
    // link costs at most 3 host links).
    let from: Perm = "7 6 5 4 3 2 1".parse()?;
    let to = Perm::identity(7);
    let path = scg_route(&ms, &from, &to)?;
    println!("\nroute {} -> {}:", from, to);
    println!(
        "  {} host hops for star distance {} (slowdown bound {})",
        path.len(),
        star_distance_between(&from, &to),
        route_plan(&ms)?.star_dilation(),
    );
    print!("  path:");
    for g in &path {
        print!(" {g}");
    }
    println!();
    assert_eq!(apply_path(&from, &path)?, to);
    println!("  endpoint verified.");

    // The same API covers all ten classes.
    for net in [
        SuperCayleyGraph::rotation_star(3, 2)?,
        SuperCayleyGraph::complete_rotation_star(3, 2)?,
        SuperCayleyGraph::insertion_selection(7)?,
        SuperCayleyGraph::macro_is(3, 2)?,
        SuperCayleyGraph::macro_rotator(3, 2)?,
    ] {
        println!(
            "{:<18} degree {:<2} ({})",
            net.name(),
            net.node_degree(),
            if net.is_inverse_closed() {
                "undirected"
            } else {
                "directed"
            }
        );
    }
    Ok(())
}
