//! Experiment `tab_faults`: graceful degradation under fail-stop node
//! faults. For every Table II class (k = 5, 120 nodes) and every fault
//! count `0 .. degree`, audits survivor connectivity and measures
//!
//! * the delivered ratio of the link-level simulator with *stale* routing
//!   tables (built fault-free, deflection retries only) vs *refreshed*
//!   survivor tables;
//! * the `scg_route_faulty_with` curves: mean stretch over the survivor-graph
//!   shortest path, detour and fallback counts.
//!
//! Connectivity equals the graph degree (Cayley-graph fault tolerance), so
//! every row with `faults < degree` must stay connected and the refreshed
//! router must deliver 100%.

use scg_bench::{all_class_hosts_k5, f3, Table};
use scg_core::{materialize, route_plan, scg_route_faulty_with, CayleyNetwork, SMALL_NET_CAP};
use scg_emu::{Packet, PortModel, SyncSim, TableRouter};
use scg_graph::{FaultSet, NodeId, SurvivorView};
use scg_perm::XorShift64;

const PAIRS: usize = 40;

fn main() {
    println!("== Fault sweep: delivered ratio and stretch, 0..degree node faults ==\n");
    let mut t = Table::new(&[
        "network",
        "deg",
        "faults",
        "connected",
        "stale dlvr",
        "stale retry",
        "fresh dlvr",
        "stretch",
        "detours",
        "fallbacks",
    ]);
    for net in all_class_hosts_k5().expect("k=5 classes") {
        let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
        let graph = mat.graph();
        // Graph-theoretic degree: distinct neighbors (IS-family duplicates
        // I_2), uniform by vertex-transitivity.
        let degree = {
            let mut v = graph.out_neighbors(0).to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let stale = TableRouter::new(graph).expect("small degrees");
        let plan = route_plan(&net).expect("plan compiles");
        for f in 0..degree {
            let mut rng = XorShift64::new(0xFA57 + f as u64);
            let faults = FaultSet::random_nodes(mat.num_nodes(), f, &[], &mut rng);
            let view = SurvivorView::new(graph, &faults);
            let connected = view.is_strongly_connected();

            // Sampled live pairs, shared by all three measurements.
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(PAIRS);
            while pairs.len() < PAIRS {
                let s = rng.gen_range(mat.num_nodes()) as NodeId;
                let d = rng.gen_range(mat.num_nodes()) as NodeId;
                if s != d && view.is_alive(s) && view.is_alive(d) {
                    pairs.push((s, d));
                }
            }

            let run = |router: &TableRouter| {
                let mut sim = SyncSim::new(graph, PortModel::AllPort);
                for &node in &faults.failed_nodes() {
                    sim.fail_node(node).expect("fault in range");
                }
                for &(s, d) in &pairs {
                    let pkt = Packet {
                        src: s,
                        dst: d,
                        payload: 0,
                    };
                    if sim.inject(s, pkt, router).is_err() {
                        // Unreachable under this router: an undeliverable
                        // sample counts against the ratio as a drop.
                    }
                }
                let injected = sim.in_flight();
                let stats = sim.run(router, 1_000_000).expect("bounded run");
                let lost_at_inject = PAIRS as u64 - injected.min(PAIRS as u64);
                let total = stats.delivered + stats.dropped + stats.undelivered + lost_at_inject;
                let ratio = if total == 0 {
                    1.0
                } else {
                    stats.delivered as f64 / total as f64
                };
                (ratio, stats.retried)
            };
            let (stale_ratio, stale_retried) = run(&stale);
            let fresh = TableRouter::new_with_faults(graph, &faults).expect("small degrees");
            let (fresh_ratio, _) = run(&fresh);

            // scg_route_faulty_with curves over the same pairs.
            let (mut stretch_sum, mut stretch_n) = (0.0f64, 0u32);
            let (mut detours, mut fallbacks) = (0u32, 0u32);
            for &(s, d) in &pairs {
                let from = mat.node_label(s).expect("rank in range");
                let to = mat.node_label(d).expect("rank in range");
                let Ok(routed) = scg_route_faulty_with(&plan, &net, &mat, &from, &to, &faults)
                else {
                    continue; // disconnected pair (only possible if !connected)
                };
                let dist = view.bfs_distances(s)[d as usize];
                if dist > 0 && dist != scg_graph::UNREACHABLE {
                    stretch_sum += routed.len() as f64 / f64::from(dist);
                    stretch_n += 1;
                }
                detours += routed.detours as u32;
                fallbacks += u32::from(routed.fallback_used);
            }
            t.row(&[
                net.name(),
                degree.to_string(),
                f.to_string(),
                if connected { "yes".into() } else { "NO".into() },
                f3(stale_ratio),
                stale_retried.to_string(),
                f3(fresh_ratio),
                f3(stretch_sum / f64::from(stretch_n.max(1))),
                detours.to_string(),
                fallbacks.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!("\nConnectivity = degree: every sweep stays connected below degree faults,");
    println!("refreshed tables deliver 100%, and stale-table deflection degrades gracefully");
    println!("(drops, never hangs). Stretch is vs the survivor-graph shortest path.");
}
