//! Fault tolerance: audit connectivity, fail nodes and links, and route
//! around them — the connectivity-equals-degree property in action.
//!
//! Run with `cargo run --release --example fault_routing`.

use supercayley::core::{
    materialize, route_faulty, route_plan, CayleyNetwork, FaultScratch, SuperCayleyGraph,
    SMALL_NET_CAP,
};
use supercayley::graph::{vertex_connectivity, FaultSet, SurvivorView};
use supercayley::perm::{Perm, XorShift64};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The macro-star network MS(2,2): 5! = 120 nodes, 3 distinct neighbors
    // per node — so connectivity 3, and any 2 failures are survivable.
    let ms = SuperCayleyGraph::macro_star(2, 2)?;
    let mat = materialize(&ms, SMALL_NET_CAP)?;
    let kappa = vertex_connectivity(mat.graph());
    println!("network         : {}", ms.name());
    println!("connectivity    : {kappa} (max-flow audit)");

    // The fault-free emulation route between two nodes.
    let from: Perm = "5 4 3 2 1".parse()?;
    let to = Perm::identity(5);
    let clean = route_plan(&ms)?.route(&from, &to)?;
    println!("fault-free route: {} hops", clean.len());

    // Fail the first link of that route, plus a random node elsewhere
    // (degree − 1 = 2 faults total — the worst case the theory covers).
    let src = mat.node_id(&from)?;
    let first_gen = ms.generators().iter().position(|g| *g == clean[0]).unwrap();
    let first_hop = mat.neighbor_id(src, first_gen);
    let mut faults = FaultSet::new();
    faults.fail_link(src, first_hop);
    let mut rng = XorShift64::new(99);
    loop {
        let n = rng.gen_range(mat.num_nodes()) as u32;
        if n != src && n != mat.node_id(&to)? {
            faults.fail_node(n);
            break;
        }
    }
    println!(
        "injected faults : link {src} → {first_hop}, node {:?}",
        faults.failed_nodes()
    );

    // The survivors are still strongly connected...
    let view = SurvivorView::new(mat.graph(), &faults);
    println!(
        "survivors       : strongly connected = {}",
        view.is_strongly_connected()
    );

    // ...and the fault-aware router, walking the network's compiled plan,
    // detours around the dead link.
    let compiled = route_plan(&ms)?;
    let routed = route_faulty(&compiled, &faults, &from, &to, &mut FaultScratch::new())?;
    println!(
        "fault-aware     : {} hops, {} detour(s), fallback = {}",
        routed.len(),
        routed.detours,
        routed.fallback_used
    );
    Ok(())
}
