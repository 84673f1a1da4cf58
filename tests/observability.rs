//! Observability layer: behavior-neutrality, goldens, and hook coverage.
//!
//! The load-bearing guarantee of the `obs` feature is that it *records*
//! and never *decides*: compiling the hooks in must not change a single
//! simulator or routing outcome. A single test binary cannot toggle its
//! own features, so [`sim_stats_match_golden_with_and_without_obs`] pins
//! the full [`SimStats`] of a fixed-seed faulty run to hard-coded golden
//! values; CI runs the suite both with `--features obs` and without, and
//! the same constants must hold on both legs.
//!
//! The routing-metrics golden drives a fixed-seed `scg_route` sweep on
//! MS(2,2) and RS(2,2) through a *local* [`Registry`] (the global one is
//! shared across concurrently running tests) and compares the text
//! exposition byte-for-byte against `tests/golden/route_metrics.txt`.

use supercayley::core::{
    materialize, route_plan, scg_route, star_distance_between, CayleyNetwork, ScgClass,
    SuperCayleyGraph, SMALL_NET_CAP,
};
use supercayley::emu::{Packet, PortModel, SimStats, SyncSim, TableRouter};
use supercayley::graph::{FaultSet, NodeId, SurvivorView};
use supercayley::obs::{Registry, Snapshot};
use supercayley::perm::XorShift64;

/// Same inclusive upper edges the `obs`-feature routing hooks use.
const HOPS_BOUNDS: [u64; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];

/// A fixed-seed faulty simulation on MS(2,2): 3 dead nodes, 30 packets
/// between live fixed-seed pairs, survivor-table routing. Everything the
/// run does is a pure function of the seed.
fn fixed_faulty_run() -> SimStats {
    let net = SuperCayleyGraph::macro_star(2, 2).expect("MS(2,2) constructs");
    let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
    let mut rng = XorShift64::new(0x0B5_CAFE);
    let faults = FaultSet::random_nodes(mat.num_nodes(), 3, &[], &mut rng);
    let view = SurvivorView::new(mat.graph(), &faults);
    let router = TableRouter::new_with_faults(mat.graph(), &faults).expect("small degrees");
    let mut sim = SyncSim::new(mat.graph(), PortModel::AllPort);
    for &node in &faults.failed_nodes() {
        sim.fail_node(node).expect("fault in range");
    }
    let mut injected = 0_u64;
    while injected < 30 {
        let s = rng.gen_range(mat.num_nodes()) as NodeId;
        let d = rng.gen_range(mat.num_nodes()) as NodeId;
        if s != d && view.is_alive(s) && view.is_alive(d) {
            let pkt = Packet {
                src: s,
                dst: d,
                payload: injected,
            };
            sim.inject(s, pkt, &router).expect("live pair routable");
            injected += 1;
        }
    }
    sim.run(&router, 10_000).expect("bounded run")
}

/// The golden stats for [`fixed_faulty_run`]. CI runs this test with and
/// without `--features obs`; both legs must reproduce these constants
/// exactly, which is the machine-checked statement that instrumentation
/// never perturbs simulation behavior.
#[test]
fn sim_stats_match_golden_with_and_without_obs() {
    let golden = SimStats {
        steps: 8,
        delivered: 30,
        transmissions: 166,
        max_link_traffic: 3,
        dropped: 0,
        retried: 0,
        recovered: 0,
        undelivered: 0,
        livelocked: false,
    };
    let stats = fixed_faulty_run();
    assert_eq!(stats, golden, "actual stats: {stats:?}");
    // And the run is replayable: same seed, same everything.
    assert_eq!(fixed_faulty_run(), golden);
}

/// Regression: a run with no packets must report a perfect delivery
/// ratio, not NaN from 0/0.
#[test]
fn delivered_ratio_of_empty_run_is_one() {
    let net = SuperCayleyGraph::macro_star(2, 2).expect("MS(2,2) constructs");
    let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
    let router = TableRouter::new(mat.graph()).expect("small degrees");
    let mut sim = SyncSim::new(mat.graph(), PortModel::AllPort);
    let stats = sim.run(&router, 100).expect("empty run settles");
    assert_eq!(stats.delivered + stats.dropped + stats.undelivered, 0);
    assert!((stats.delivered_ratio() - 1.0).abs() < f64::EPSILON);

    // The pure-arithmetic corner, independent of any simulator.
    let zero = SimStats {
        steps: 0,
        delivered: 0,
        transmissions: 0,
        max_link_traffic: 0,
        dropped: 0,
        retried: 0,
        recovered: 0,
        undelivered: 0,
        livelocked: false,
    };
    assert!((zero.delivered_ratio() - 1.0).abs() < f64::EPSILON);
    assert!(zero.delivered_ratio().is_finite());
}

/// Fixed-seed `scg_route` sweep on MS(2,2) and RS(2,2), recorded into a
/// local registry. Every hop count is cross-checked against the Theorem 1
/// dilation bound while the histograms fill.
fn route_sweep_snapshot() -> Snapshot {
    let reg = Registry::new();
    for net in [
        SuperCayleyGraph::macro_star(2, 2).expect("MS(2,2) constructs"),
        SuperCayleyGraph::new(ScgClass::RotationStar, 2, 2).expect("RS(2,2) constructs"),
    ] {
        let name = net.name();
        let labels = [("network", name.as_str())];
        let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
        let dilation = route_plan(&net).expect("plan compiles").star_dilation() as u32;
        let requests = reg.counter("route_requests_total", &labels);
        let hops = reg.histogram("route_hops", &labels, &HOPS_BOUNDS);
        let mut rng = XorShift64::new(0x60_1D);
        for _ in 0..64 {
            let s = rng.gen_range(mat.num_nodes()) as NodeId;
            let d = rng.gen_range(mat.num_nodes()) as NodeId;
            if s == d {
                continue;
            }
            let from = mat.node_label(s).expect("rank in range");
            let to = mat.node_label(d).expect("rank in range");
            let path = scg_route(&net, &from, &to).expect("route exists");
            assert!(
                path.len() as u32 <= dilation * star_distance_between(&from, &to),
                "{name}: {s}->{d} exceeded the dilation bound"
            );
            requests.inc();
            hops.observe(path.len() as u64);
        }
    }
    reg.snapshot()
}

/// The sweep's text exposition must match the checked-in golden
/// byte-for-byte — any drift in routing, ranking, the PRNG, or the
/// exposition format trips this.
#[test]
fn routing_metrics_match_golden_snapshot() {
    let snap = route_sweep_snapshot();
    let actual = snap.to_text();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/route_metrics.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).expect("golden path writable");
    }
    let golden = include_str!("golden/route_metrics.txt");
    assert_eq!(
        actual, golden,
        "rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
    // The snapshot must also survive its own JSON encoding.
    let back = Snapshot::from_json(&snap.to_json()).expect("exporter output parses");
    assert_eq!(back, snap);
}

/// With the hooks compiled in, routing and simulation leave visible
/// footprints in the global registry. Deltas are `>=` because other
/// tests in this binary share the process-wide registry.
#[cfg(feature = "obs")]
#[test]
fn hooks_populate_global_registry() {
    let reg = Registry::global();
    let net = SuperCayleyGraph::macro_star(2, 2).expect("MS(2,2) constructs");
    let name = net.name();
    let labels = [("network", name.as_str())];
    let misses_before = reg
        .counter("scg_topology_cache_misses_total", &labels)
        .get();
    let runs_before = reg.counter("scg_sim_runs_total", &[]).get();
    let delivered_before = reg.counter("scg_sim_delivered_total", &[]).get();

    let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
    let router = TableRouter::new(mat.graph()).expect("small degrees");
    let mut sim = SyncSim::new(mat.graph(), PortModel::AllPort);
    let pkt = Packet {
        src: 0,
        dst: (mat.num_nodes() - 1) as NodeId,
        payload: 7,
    };
    sim.inject(0, pkt, &router).expect("connected network");
    let stats = sim.run(&router, 1_000).expect("bounded run");
    assert_eq!(stats.delivered, 1);

    assert!(
        reg.counter("scg_topology_cache_misses_total", &labels)
            .get()
            > misses_before
            || reg.counter("scg_topology_cache_hits_total", &labels).get() > 0,
        "materialization left no cache footprint"
    );
    assert!(reg.counter("scg_sim_runs_total", &[]).get() > runs_before);
    assert!(reg.counter("scg_sim_delivered_total", &[]).get() > delivered_before);
}

/// The route planner leaves its own footprint: a build-time histogram
/// sample plus cache hit/miss counters, and repeated `scg_route` calls on
/// a warm plan only move the hit counter.
#[cfg(feature = "obs")]
#[test]
fn planner_hooks_populate_global_registry() {
    let reg = Registry::global();
    let net = SuperCayleyGraph::rotation_rotator(2, 2).expect("RR(2,2) constructs");
    let name = net.name();
    let labels = [("network", name.as_str())];
    let hits = reg.counter("scg_route_plan_cache_hits_total", &labels);
    let misses = reg.counter("scg_route_plan_cache_misses_total", &labels);
    let hits_before = hits.get();

    let mut rng = XorShift64::new(0x0B5);
    let from = supercayley::perm::Perm::random(5, &mut rng);
    let to = supercayley::perm::Perm::random(5, &mut rng);
    // First call may build (miss) or reuse a plan another test compiled;
    // either way it must count exactly one lookup.
    scg_route(&net, &from, &to).expect("route");
    scg_route(&net, &from, &to).expect("route");
    let hits_after = hits.get();
    let misses_after = misses.get();
    assert!(
        hits_after - hits_before >= 1,
        "second scg_route call did not hit the plan cache"
    );
    assert!(
        misses_after >= 1,
        "some call must have compiled RR(2,2)'s plan"
    );
    // A miss implies a recorded build duration. Same decade edges the
    // core timer hooks use.
    const MICROS_BOUNDS: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    let build = reg.histogram("scg_route_plan_build_micros", &labels, &MICROS_BOUNDS);
    assert!(build.count() >= misses_after, "plan build went untimed");
}

/// The global event trace records `sim.run.end` spans when the hooks are
/// live.
#[cfg(feature = "obs")]
#[test]
fn trace_records_run_end_events() {
    let net = SuperCayleyGraph::macro_star(2, 2).expect("MS(2,2) constructs");
    let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
    let router = TableRouter::new(mat.graph()).expect("small degrees");
    let mut sim = SyncSim::new(mat.graph(), PortModel::AllPort);
    sim.inject(
        0,
        Packet {
            src: 0,
            dst: 1,
            payload: 0,
        },
        &router,
    )
    .expect("connected network");
    sim.run(&router, 1_000).expect("bounded run");
    let trace = supercayley::obs::EventTrace::global();
    assert!(
        trace.events().iter().any(|e| e.name == "sim.run.end"),
        "no sim.run.end event in the global trace"
    );
}

/// Behavior-neutrality for the serving stack: the daemon's reply bytes
/// are a pure function of the request sequence, independent of the `obs`
/// feature (which only *mirrors* the server-local registry into the
/// global one). Every reply here is compared byte-for-byte against
/// frames re-encoded from feature-independent expectations — the
/// in-process router's hops, the known fault epoch, the typed refusal.
/// CI runs this on both legs; a single diverging byte fails one of them.
/// (`METRICS` bodies are excluded: histogram contents are timing-
/// dependent on *any* leg, so they are checked structurally instead.)
#[test]
fn serve_replies_are_byte_identical_across_obs_legs() {
    use supercayley::perm::Perm;
    use supercayley::serve::wire::{encode_reply, BatchItem, ErrCode};
    use supercayley::serve::{spawn, Client, Config, NetId, Reply, Request};

    let sock = std::env::temp_dir().join(format!("scg-obs-serve-{}.sock", std::process::id()));
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("daemon spawns");
    let net_id = NetId {
        class: ScgClass::MacroStar,
        levels: 2,
        box_size: 2,
    };
    let net = net_id.to_net().expect("MS(2,2) constructs");
    let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
    let mut rng = XorShift64::new(0x0B5_5EED);
    let k = net.degree_k();
    let mut client = Client::connect_uds(&sock).expect("connect");

    // Fixed-seed pairs; expected hops from the in-process router, which
    // compiles identically on both legs (the hooks only observe).
    let pairs: Vec<(Perm, Perm)> = (0..8)
        .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
        .collect();
    let expect_frame = |reply: &Reply| encode_reply(reply);
    let recv_frame = |client: &mut Client| -> Vec<u8> {
        client
            .recv_with(|ftype, payload| {
                let mut frame = ((payload.len() + 2) as u32).to_le_bytes().to_vec();
                frame.push(1);
                frame.push(ftype);
                frame.extend_from_slice(payload);
                frame
            })
            .expect("reply frame")
    };

    let (from, to) = pairs[0];
    client
        .send(&Request::Route {
            net: net_id,
            from,
            to,
        })
        .expect("send route");
    assert_eq!(
        recv_frame(&mut client),
        expect_frame(&Reply::RouteOk {
            flags: 0,
            hops: scg_route(&net, &from, &to).expect("route"),
        }),
        "ROUTE reply bytes diverged"
    );

    client
        .send(&Request::RouteBatch {
            net: net_id,
            pairs: pairs.clone(),
        })
        .expect("send batch");
    assert_eq!(
        recv_frame(&mut client),
        expect_frame(&Reply::RouteBatchOk(
            pairs
                .iter()
                .map(|(f, t)| BatchItem {
                    status: 0,
                    flags: 0,
                    hops: scg_route(&net, f, t).expect("route"),
                })
                .collect(),
        )),
        "ROUTE_BATCH reply bytes diverged"
    );

    // One fault: epoch advances 0 -> 1 deterministically; routing to the
    // dead destination refuses with empty detail.
    let victim = pairs[1].1;
    let victim_node = mat.node_id(&victim).expect("node id");
    client
        .send(&Request::FaultReport {
            net: net_id,
            events: vec![supercayley::graph::ChaosEvent::FailNode(victim_node)],
        })
        .expect("send fault");
    assert_eq!(
        recv_frame(&mut client),
        expect_frame(&Reply::FaultOk {
            applied: 1,
            epoch: 1,
        }),
        "FAULT_REPORT reply bytes diverged"
    );
    client
        .send(&Request::Route {
            net: net_id,
            from: Perm::identity(k),
            to: victim,
        })
        .expect("send refused route");
    assert_eq!(
        recv_frame(&mut client),
        expect_frame(&Reply::Error {
            code: ErrCode::NoRoute,
            detail: String::new(),
        }),
        "typed-refusal bytes diverged"
    );

    // METRICS is structurally checked only (histogram contents are
    // timing-dependent regardless of feature leg).
    let text = client.metrics(false).expect("metrics");
    assert!(text.contains("scg_serve_routes_total 9"));
    assert!(text.contains("scg_serve_route_refused_total 1"));
    server.shutdown();
}
