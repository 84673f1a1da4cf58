//! The traced run: per-layer costs timed from the benchmark's own files
//! by calling each layer's public functions, the twin and accounting
//! checks, and the workloads' client-side spans.
//!
//! Nothing inside the program is instrumented; a layer's cost is the cost
//! of calling its entry point on the inputs the workloads send.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scg_core::{
    scg_route_faulty_with, Generator, Materialized, RoutePlan, SuperCayleyGraph, DEFAULT_NET_CAP,
};
use scg_emu::{Packet, PortModel, Router, SyncSim, TableRouter};
use scg_graph::{ChaosEvent, NodeId};
use scg_perm::{PackedPerm, Perm, XorShift64};
use scg_serve::wire::{
    decode_request, encode_request, peek_frame, FrameStatus, FrameType, HEADER_LEN,
};
use scg_serve::{Client, FaultJournal, Request, ServeMetrics, ShardCore};

use crate::harness::{measure, timer_overhead_ns, Cell, Measured};
use crate::json::{self, Json};
use crate::loadgen::Frame;
use crate::serve::{self, sub_seed, Degraded};
use crate::stats::Summary;
use crate::{sim, sys, trace_workload, wrong, Workload};

/// Batch frames the layer cells cycle (a prefix of the workload pool).
const LAYER_BATCH_FRAMES: usize = 32;
/// Degraded frames per phase the shard cell sweeps.
const LAYER_DEGRADED_FRAMES: usize = 4;
/// Pairs per phase the fault-routing cell sweeps.
const LAYER_FAULT_PAIRS: usize = 1_024;
/// Length of the daemon-CPU and generator-lateness probes.
const PROBE: Duration = Duration::from_secs(2);

/// What the traced run hands back for the result line.
#[derive(Debug, Default)]
pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
}

/// The `(ver, ftype, payload)` of a pre-encoded request frame.
fn framed(bytes: &[u8]) -> (u8, u8, &[u8]) {
    match peek_frame(bytes) {
        FrameStatus::Frame {
            ver,
            ftype,
            start,
            end,
        } => (ver, ftype, &bytes[start..end]),
        other => panic!("a pool frame does not frame: {other:?}"),
    }
}

fn fresh_shard() -> ShardCore {
    ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()))
}

/// A peer that answers each request of `frames` (in order, cycled) with
/// that frame's reference reply: the socket cost of the same exchange
/// without the daemon.
fn echo(mut peer: UnixStream, frames: &[Frame]) {
    let mut buf = vec![0u8; frames.iter().map(|f| f.request.len()).max().unwrap_or(0)];
    for f in frames.iter().cycle() {
        let req = &mut buf[..f.request.len()];
        if peer.read_exact(req).is_err() || peer.write_all(&f.reply).is_err() {
            return; // the client hung up: the cell is done
        }
    }
}

/// Every input the cells read, built before anything is timed.
struct Inputs {
    singles: Vec<Frame>,
    single_pairs: Vec<(Perm, Perm)>,
    batches: Vec<Frame>,
    batch_pairs: Vec<(Perm, Perm)>,
    degraded: Degraded,
    net9: SuperCayleyGraph,
    plan9: RoutePlan,
    plan_ms22: RoutePlan,
    plan_rs22: RoutePlan,
    twin_pairs: Vec<(Perm, Perm)>,
    packed9: Vec<(PackedPerm, PackedPerm)>,
    packed7: Vec<PackedPerm>,
    mat7: Materialized,
    router7: TableRouter,
    rounds: Vec<sim::Round>,
    lookups: Vec<(NodeId, Packet)>,
}

fn decode_pairs(frames: &[Frame]) -> Vec<(Perm, Perm)> {
    frames
        .iter()
        .flat_map(|f| {
            let (ver, ftype, payload) = framed(&f.request);
            match decode_request(ver, ftype, payload) {
                Ok(Request::Route { from, to, .. }) => vec![(from, to)],
                Ok(Request::RouteBatch { pairs, .. }) => pairs,
                _ => Vec::new(),
            }
        })
        .collect()
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let e = |e: scg_core::CoreError| e.to_string();
    let singles = serve::single_frames(seed, serve::SINGLE_POOL)?;
    let batches = serve::batch_frames(seed, LAYER_BATCH_FRAMES, serve::BATCH_PAIRS)?;
    let net9 = serve::CLEAN_NET.to_net().map_err(|c| format!("{c:?}"))?;
    let mut rng = XorShift64::new(sub_seed(seed, 7));
    let pack = |p: &Perm| PackedPerm::pack(p).map_err(|e| e.to_string());
    let packed9 = (0..1_024)
        .map(|_| {
            Ok((
                pack(&Perm::random(9, &mut rng))?,
                pack(&Perm::random(9, &mut rng))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let packed7 = (0..1_024)
        .map(|_| pack(&Perm::random(7, &mut rng)))
        .collect::<Result<_, String>>()?;
    let twin_pairs = (0..4_096)
        .map(|_| (Perm::random(5, &mut rng), Perm::random(5, &mut rng)))
        .collect();
    let mat7 = Materialized::build(&sim::network()?, DEFAULT_NET_CAP).map_err(e)?;
    let n = mat7.num_nodes();
    let lookups = (0..4_096)
        .map(|_| {
            let at = rng.gen_range(n) as NodeId;
            let dst = rng.gen_range(n) as NodeId;
            (
                at,
                Packet {
                    src: at,
                    dst,
                    payload: 0,
                },
            )
        })
        .collect();
    Ok(Inputs {
        single_pairs: decode_pairs(&singles),
        batch_pairs: decode_pairs(&batches),
        singles,
        batches,
        degraded: serve::degraded(seed, serve::PHASES, serve::DEGRADED_FRAMES)?,
        plan9: RoutePlan::build(&net9).map_err(e)?,
        net9,
        plan_ms22: RoutePlan::build(&SuperCayleyGraph::macro_star(2, 2).map_err(e)?).map_err(e)?,
        plan_rs22: RoutePlan::build(&SuperCayleyGraph::rotation_star(2, 2).map_err(e)?)
            .map_err(e)?,
        twin_pairs,
        packed9,
        packed7,
        router7: TableRouter::new(mat7.graph()).map_err(|e| e.to_string())?,
        rounds: sim::rounds(mat7.graph(), mat7.degree_k(), seed)?,
        mat7,
        lookups,
    })
}

/// `f` over the next `n` items of `items`, cycling.
fn cycling<'a, T>(items: &'a [T], mut f: impl FnMut(&'a T) + 'a) -> impl FnMut(usize) + 'a {
    let mut i = 0usize;
    move |n| {
        for _ in 0..n {
            f(&items[i % items.len()]);
            i += 1;
        }
    }
}

fn route_cell<'a>(name: &'static str, plan: &'a RoutePlan, pairs: &'a [(Perm, Perm)]) -> Cell<'a> {
    let mut buf = plan.new_buf();
    Cell::new(
        name,
        "ns",
        1.0,
        cycling(pairs, move |(f, t)| {
            plan.route_into(f, t, &mut buf).expect("route_into");
            black_box(buf.len());
        }),
    )
}

/// A cell feeding pre-framed requests to its own fresh shard.
fn shard_cell<'a>(name: &'static str, per_call: f64, frames: &'a [Frame]) -> Cell<'a> {
    let mut shard = fresh_shard();
    let mut out = Vec::with_capacity(1 << 16);
    Cell::new(
        name,
        "ns",
        per_call,
        cycling(frames, move |f| {
            let (ver, ftype, payload) = framed(&f.request);
            out.clear();
            shard.handle_frame(ver, ftype, payload, &mut out);
            black_box(&out);
        }),
    )
}

/// A blocking round trip per call through the daemon, each reply checked
/// against its reference.
fn rtt_cell<'a>(
    name: &'static str,
    unit: &'static str,
    c: Client,
    frames: &'a [Frame],
) -> Cell<'a> {
    let mut c = c;
    Cell::new(
        name,
        unit,
        1.0,
        cycling(frames, move |f| {
            c.send_raw(&f.request).expect("daemon send");
            let ok = c
                .recv_with(|_, payload| payload == &f.reply[HEADER_LEN..])
                .expect("daemon reply");
            assert!(ok, "daemon reply differs from its reference");
        }),
    )
}

/// A blocking round trip per call through an echo peer with the same
/// request and reply sizes.
fn echo_cell<'a>(
    name: &'static str,
    unit: &'static str,
    s: UnixStream,
    frames: &'a [Frame],
) -> Cell<'a> {
    let mut s = s;
    let mut buf = Vec::new();
    Cell::new(
        name,
        unit,
        1.0,
        cycling(frames, move |f| {
            buf.resize(f.reply.len(), 0);
            s.write_all(&f.request).expect("echo write");
            s.read_exact(&mut buf).expect("echo read");
        }),
    )
}

/// Injects one round into `sim`; returns the nanoseconds it took.
fn inject_round(sim: &mut SyncSim<'_>, router: &TableRouter, round: &sim::Round) -> f64 {
    let t = Instant::now();
    for (u, &v) in round.dst.iter().enumerate() {
        let p = Packet {
            src: u as NodeId,
            dst: v,
            payload: 0,
        };
        sim.inject(u as NodeId, p, router).expect("inject");
    }
    t.elapsed().as_nanos() as f64
}

/// Every timed cell, in one list (the harness shuffles their samples).
fn cells<'a>(
    inp: &'a Inputs,
    clients: (Client, Client),
    echoes: (UnixStream, UnixStream),
    phase_shards: Vec<ShardCore>,
    fault_entries: &'a [(usize, &'a (Perm, Perm))],
    degraded_entries: &'a [(usize, &'a Frame)],
) -> Vec<Cell<'a>> {
    let d = &inp.degraded;
    let pairs = serve::BATCH_PAIRS as f64;
    let mut chunk_out: Vec<Vec<Generator>> = vec![Vec::new(); serve::BATCH_PAIRS];
    let mut bstate = inp.plan9.new_batch_state();
    let mut batch_chunks = inp.batch_pairs.chunks(serve::BATCH_PAIRS).cycle();
    let mut phase_shards = phase_shards;
    let mut reply = Vec::with_capacity(1 << 16);
    let mut report_shard = fresh_shard();
    // Alternate failing and repairing one node, so every report changes
    // the fault set.
    let reports = [ChaosEvent::FailNode(1), ChaosEvent::RepairNode(1)].map(|ev| {
        encode_request(&Request::FaultReport {
            net: serve::DEGRADED_NET,
            events: vec![ev],
        })
    });
    let mut out = Vec::new();
    let mut inject_sim = SyncSim::new(inp.mat7.graph(), PortModel::AllPort);
    let mut step_sim = SyncSim::new(inp.mat7.graph(), PortModel::AllPort);
    let (mut inject_round_i, mut step_round_i) = (0usize, 0usize);
    let rounds = &inp.rounds;
    let router = &inp.router7;
    vec![
        Cell::new(
            "perm.packed.compose_ns",
            "ns",
            1.0,
            cycling(&inp.packed9, |&(a, b)| {
                black_box(black_box(a).compose(black_box(b)));
            }),
        ),
        Cell::new(
            "perm.packed.inverse_ns",
            "ns",
            1.0,
            cycling(&inp.packed9, |&(a, _)| {
                black_box(black_box(a).inverse());
            }),
        ),
        Cell::new(
            "perm.packed.rank_ns",
            "ns",
            1.0,
            cycling(&inp.packed7, |&p| {
                black_box(black_box(p).rank(7).ok());
            }),
        ),
        route_cell("core.plan.route_into_ns", &inp.plan9, &inp.single_pairs),
        route_cell("core.plan.twin_ms22_ns", &inp.plan_ms22, &inp.twin_pairs),
        route_cell("core.plan.twin_rs22_ns", &inp.plan_rs22, &inp.twin_pairs),
        Cell::new("core.plan.build_us", "us", 1.0, |n| {
            for _ in 0..n {
                black_box(RoutePlan::build(&inp.net9).ok());
            }
        }),
        Cell::new(
            "core.batch.route_chunk_ns_per_pair",
            "ns",
            pairs,
            move |n| {
                for chunk in batch_chunks.by_ref().take(n) {
                    chunk_out.iter_mut().for_each(Vec::clear);
                    inp.plan9
                        .route_chunk(chunk, &mut chunk_out, &mut bstate)
                        .expect("route_chunk");
                    black_box(&chunk_out);
                }
            },
        ),
        // One call sweeps every sampled pair of every phase, so each
        // sample covers the same mix of clean, detoured and fallback
        // routes.
        Cell::new(
            "core.fault.route_ns",
            "ns",
            fault_entries.len() as f64,
            move |n| {
                for _ in 0..n {
                    for &(p, (f, t)) in fault_entries {
                        let faults = &d.phases[p].faults;
                        black_box(
                            scg_route_faulty_with(&d.plan, &d.net, &d.mat, f, t, faults).ok(),
                        );
                    }
                }
            },
        ),
        Cell::new("core.topology.materialize_ms", "ms", 1.0, move |n| {
            for _ in 0..n {
                black_box(Materialized::build(&d.net, DEFAULT_NET_CAP).ok());
            }
        }),
        Cell::new(
            "serve.wire.peek_frame_ns",
            "ns",
            1.0,
            cycling(&inp.singles, |f| {
                black_box(peek_frame(black_box(&f.request)));
            }),
        ),
        Cell::new(
            "serve.wire.decode_route_ns",
            "ns",
            1.0,
            cycling(&inp.singles, |f| {
                let (ver, ftype, payload) = framed(&f.request);
                black_box(decode_request(ver, ftype, payload).ok());
            }),
        ),
        Cell::new(
            "serve.wire.decode_batch_ns_per_pair",
            "ns",
            pairs,
            cycling(&inp.batches, |f| {
                let (ver, ftype, payload) = framed(&f.request);
                black_box(decode_request(ver, ftype, payload).ok());
            }),
        ),
        shard_cell("serve.shard.route_frame_ns", 1.0, &inp.singles),
        shard_cell("serve.shard.batch_frame_ns_per_pair", pairs, &inp.batches),
        Cell::new(
            "serve.shard.degraded_frame_ns_per_pair",
            "ns",
            (degraded_entries.len() * serve::DEGRADED_PAIRS) as f64,
            move |n| {
                for _ in 0..n {
                    for &(p, f) in degraded_entries {
                        let (ver, ftype, payload) = framed(&f.request);
                        reply.clear();
                        phase_shards[p].handle_frame(ver, ftype, payload, &mut reply);
                        assert!(
                            reply == f.reply,
                            "shard degraded reply differs from its reference"
                        );
                    }
                }
            },
        ),
        Cell::new("serve.shard.fault_report_us", "us", 1.0, {
            let mut i = 0usize;
            move |n| {
                for _ in 0..n {
                    let (ver, ftype, payload) = framed(&reports[i % 2]);
                    out.clear();
                    report_shard.handle_frame(ver, ftype, payload, &mut out);
                    assert_eq!(
                        out.get(5),
                        Some(&(FrameType::FaultOk as u8)),
                        "fault report refused"
                    );
                    i += 1;
                }
            }
        }),
        rtt_cell("serve.rtt.route_ns", "ns", clients.0, &inp.singles),
        rtt_cell("serve.rtt.batch_us", "us", clients.1, &inp.batches),
        echo_cell("sys.uds.echo_route_ns", "ns", echoes.0, &inp.singles),
        echo_cell("sys.uds.echo_batch_us", "us", echoes.1, &inp.batches),
        Cell::new("emu.table.build_ms", "ms", 1.0, |n| {
            for _ in 0..n {
                black_box(TableRouter::new(inp.mat7.graph()).ok());
            }
        }),
        Cell::new(
            "emu.table.next_hop_ns",
            "ns",
            1.0,
            cycling(&inp.lookups, move |(at, p)| {
                black_box(router.next_hop(*at, p));
            }),
        ),
        Cell::self_timed("emu.sim.inject_ns", "ns", move |n| {
            let (mut ns, mut units) = (0.0, 0.0);
            for _ in 0..n {
                let r = &rounds[inject_round_i % rounds.len()];
                ns += inject_round(&mut inject_sim, router, r);
                units += r.dst.len() as f64;
                inject_sim.run(router, 10_000).expect("round drains");
                inject_round_i += 1;
            }
            (ns, units)
        }),
        Cell::self_timed("emu.sim.step_us", "us", move |n| {
            let (mut ns, mut steps) = (0.0, 0.0);
            for _ in 0..n {
                let r = &rounds[step_round_i % rounds.len()];
                inject_round(&mut step_sim, router, r);
                let t = Instant::now();
                let st = step_sim.run(router, 10_000).expect("round drains");
                ns += t.elapsed().as_nanos() as f64;
                steps += st.steps as f64;
                step_round_i += 1;
            }
            (ns, steps)
        }),
    ]
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// One accounting row: round trip = shard service + socket echo +
/// residual, all per frame in `unit`.
struct Row {
    frame: &'static str,
    unit: &'static str,
    rtt: Summary,
    shard: Summary,
    /// Shard cell units (ns per pair) to one frame in `unit`.
    scale: f64,
    echo: Summary,
}

impl Row {
    fn residual(&self) -> f64 {
        self.rtt.median - self.shard.median * self.scale - self.echo.median
    }

    fn spread(&self) -> f64 {
        self.rtt.spread() + self.shard.spread() * self.scale + self.echo.spread()
    }

    /// Shard plus echo may not exceed the round trip beyond the spread:
    /// if they do, a measurement is broken.
    fn holds(&self) -> bool {
        self.shard.median * self.scale + self.echo.median <= self.rtt.median + self.spread()
    }
}

/// The layer budget, the checks, then each workload's traced leg.
pub fn traced(
    workloads: &[Workload],
    seed: u64,
    dur: Duration,
    dir: &Path,
) -> Result<Traced, String> {
    let inp = inputs(seed)?;
    let d = &inp.degraded;
    let hops_per_route = {
        let mut buf = inp.plan9.new_buf();
        let mut total = 0usize;
        for (f, t) in &inp.single_pairs {
            inp.plan9
                .route_into(f, t, &mut buf)
                .map_err(|e| e.to_string())?;
            total += buf.len();
        }
        total as f64 / inp.single_pairs.len() as f64
    };
    // Table memory before the cells run, so no freed pages blur it.
    let table_mem_mb = {
        let before = sys::rss_mb();
        let router = TableRouter::new(inp.mat7.graph()).map_err(|e| e.to_string())?;
        let after = sys::rss_mb();
        drop(router);
        after - before
    };

    // Shards holding each degraded phase's faults, checked against the
    // client-side fault mirror.
    let mut phase_shards = Vec::with_capacity(d.phases.len());
    for p in 0..d.phases.len() {
        let mut s = fresh_shard();
        for earlier in &d.phases[..=p] {
            let (ver, ftype, payload) = framed(&earlier.report.request);
            let mut out = Vec::new();
            s.handle_frame(ver, ftype, payload, &mut out);
            if out != earlier.report.reply {
                return Err(wrong(format!(
                    "phase {p} shard disagrees with the fault mirror"
                )));
            }
        }
        phase_shards.push(s);
    }
    let fault_entries: Vec<(usize, &(Perm, Perm))> = d
        .phases
        .iter()
        .enumerate()
        .flat_map(|(p, ph)| {
            ph.pairs
                .iter()
                .take(LAYER_FAULT_PAIRS)
                .map(move |pr| (p, pr))
        })
        .collect();
    let degraded_entries: Vec<(usize, &Frame)> = d
        .phases
        .iter()
        .enumerate()
        .flat_map(|(p, ph)| {
            ph.frames
                .iter()
                .take(LAYER_DEGRADED_FRAMES)
                .map(move |f| (p, f))
        })
        .collect();

    let (server, _conn) = serve::daemon(dir)?;
    let connect = || Client::connect_uds(server.uds_path()).map_err(|e| e.to_string());
    let clients = (connect()?, connect()?);
    let (route_end, route_peer) = UnixStream::pair().map_err(|e| e.to_string())?;
    let (batch_end, batch_peer) = UnixStream::pair().map_err(|e| e.to_string())?;
    let measured: Vec<Measured> = std::thread::scope(|scope| {
        scope.spawn(|| echo(route_peer, &inp.singles));
        scope.spawn(|| echo(batch_peer, &inp.batches));
        let mut cells = cells(
            &inp,
            clients,
            (route_end, batch_end),
            phase_shards,
            &fault_entries,
            &degraded_entries,
        );
        let m = measure(&mut cells, sub_seed(seed, 9));
        // Dropping the cells closes the echo pairs, which ends the peers.
        drop(cells);
        m
    });
    server.shutdown();

    let cell = |name: &str| {
        measured
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary)
            .ok_or_else(|| format!("no cell {name}"))
    };
    let median = |name: &str| cell(name).map(|s| s.median);

    // Probes: the shard's CPU share under the batch loop, and the
    // generator's lateness at the fixed single-request rate.
    let batch_probe = serve::measure_batch(&inp.batches, PROBE, dir, None)?;
    let single_probe = serve::measure_single(&inp.singles, PROBE, dir, None)?;

    // Twin check: MS(2,2) and RS(2,2) have one generator set, so their
    // routing costs must agree within the combined spread.
    let (ms, rs) = (
        cell("core.plan.twin_ms22_ns")?,
        cell("core.plan.twin_rs22_ns")?,
    );
    let twin_ok = (ms.median - rs.median).abs() <= ms.spread() + rs.spread();
    println!(
        "twin check: MS(2,2) {:.2} ns vs RS(2,2) {:.2} ns (spreads {:.2}, {:.2}): {}",
        ms.median,
        rs.median,
        ms.spread(),
        rs.spread(),
        if twin_ok { "agree" } else { "DISAGREE" }
    );

    let rows = [
        Row {
            frame: "ROUTE",
            unit: "ns",
            rtt: cell("serve.rtt.route_ns")?,
            shard: cell("serve.shard.route_frame_ns")?,
            scale: 1.0,
            echo: cell("sys.uds.echo_route_ns")?,
        },
        Row {
            frame: "ROUTE_BATCH",
            unit: "us",
            rtt: cell("serve.rtt.batch_us")?,
            shard: cell("serve.shard.batch_frame_ns_per_pair")?,
            scale: serve::BATCH_PAIRS as f64 / 1e3,
            echo: cell("sys.uds.echo_batch_us")?,
        },
    ];
    println!("accounting, medians per frame (spread = summed p10..p90 widths):");
    for r in &rows {
        println!(
            "  {:<12} rtt {:>10.2} {u} = shard {:>10.2} {u} + echo {:>10.2} {u} + residual {:>10.2} {u}  spread {:.2}{}",
            r.frame,
            r.rtt.median,
            r.shard.median * r.scale,
            r.echo.median,
            r.residual(),
            r.spread(),
            if r.holds() { "" } else { "  BROKEN" },
            u = r.unit,
        );
    }
    let accounting_ok = rows.iter().all(Row::holds);

    let o = d.outcome;
    let mut metrics: Vec<(String, f64)> = measured
        .iter()
        .map(|m| (m.name.to_string(), m.summary.median))
        .collect();
    metrics.extend([
        ("core.plan.hops_per_route".to_string(), hops_per_route),
        (
            "core.fault.detour_share".to_string(),
            share(o.detoured, o.pairs()),
        ),
        (
            "core.fault.fallback_share".to_string(),
            share(o.fallback, o.pairs()),
        ),
        (
            "core.fault.refused_share".to_string(),
            share(o.refused, o.pairs()),
        ),
        (
            "serve.shard.encode_ns_per_pair".to_string(),
            median("serve.shard.batch_frame_ns_per_pair")?
                - median("serve.wire.decode_batch_ns_per_pair")?
                - median("core.batch.route_chunk_ns_per_pair")?,
        ),
        ("serve.loop.residual_ns".to_string(), rows[0].residual()),
        (
            "serve.loop.residual_batch_us".to_string(),
            rows[1].residual(),
        ),
        (
            "serve.daemon.cpu_share".to_string(),
            batch_probe.daemon_cpu_share,
        ),
        ("emu.table.mem_mb".to_string(), table_mem_mb),
        ("loadgen.late_p99_us".to_string(), single_probe.late_p99_us),
        (
            "loadgen.client_cpu_share".to_string(),
            single_probe.client_cpu_share,
        ),
    ]);

    // The workloads' traced legs.
    let mut legs = Vec::new();
    for &w in workloads {
        let (spans, overhead) = trace_workload(w, seed, dur, dir)?;
        let path = dir.join(format!("trace-{}.jsonl", w.name()));
        let mut text = String::new();
        for s in &spans.spans {
            text.push_str(&format!(
                "{{\"id\":{},\"due_ns\":{},\"written_ns\":{},\"read_ns\":{}}}\n",
                s.id, s.due, s.written, s.read
            ));
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: {} spans in {}, tracing overhead on p50 {overhead:+.3} us",
            w.name(),
            spans.spans.len(),
            path.display()
        );
        legs.push((w, overhead, spans.spans.len()));
    }
    // Over several traced workloads, the largest overhead and every span;
    // each workload's own pair goes to `layers.json`.
    let overhead = legs
        .iter()
        .map(|l| l.1)
        .max_by(f64::total_cmp)
        .unwrap_or(f64::NAN);
    let spans: usize = legs.iter().map(|l| l.2).sum();
    metrics.push(("trace.overhead_p50_us".to_string(), overhead));
    metrics.push(("trace.spans".to_string(), spans as f64));

    write_layers_json(
        dir,
        seed,
        &measured,
        &metrics,
        &legs,
        twin_ok,
        accounting_ok,
    )?;
    for (name, value) in &metrics {
        println!("  {name:<42} {value:>14.4}");
    }
    if !twin_ok {
        return Err("twin check failed: MS(2,2) and RS(2,2) route at different costs".to_string());
    }
    if !accounting_ok {
        return Err("accounting check failed: shard + echo exceed the round trip".to_string());
    }
    Ok(Traced {
        metrics,
        attempted: (spans as u64).max(1),
    })
}

fn write_layers_json(
    dir: &Path,
    seed: u64,
    measured: &[Measured],
    metrics: &[(String, f64)],
    legs: &[(Workload, f64, usize)],
    twin_ok: bool,
    accounting_ok: bool,
) -> Result<(), String> {
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let cells = measured
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("calls_per_sample", Json::Num(m.calls_per_sample as f64)),
                ("samples", Json::Num(m.summary.samples as f64)),
                ("median", Json::Num(m.summary.median)),
                ("p10", Json::Num(m.summary.p10)),
                ("p90", Json::Num(m.summary.p90)),
                ("mad", Json::Num(m.summary.mad)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("seed", Json::Num(seed as f64)),
        (
            "stamp",
            obj(sys::env_stamp()
                .into_iter()
                .map(|(k, v)| (k, Json::Str(v)))
                .collect()),
        ),
        ("timer_overhead_ns", Json::Num(timer_overhead_ns())),
        ("cells", Json::Arr(cells)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|(name, v)| (name.as_str(), Json::Num(*v)))
                .collect()),
        ),
        (
            "workloads",
            obj(legs
                .iter()
                .map(|(w, overhead, n)| {
                    let leg = obj(vec![
                        ("overhead_p50_us", Json::Num(*overhead)),
                        ("spans", Json::Num(*n as f64)),
                    ]);
                    (w.name(), leg)
                })
                .collect()),
        ),
        (
            "checks",
            obj(vec![
                ("twin", Json::Bool(twin_ok)),
                ("accounting", Json::Bool(accounting_ok)),
            ]),
        ),
    ]);
    let path = dir.join("layers.json");
    std::fs::write(&path, json::render(&doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
