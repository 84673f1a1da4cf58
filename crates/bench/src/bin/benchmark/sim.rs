//! sim_k7: one-packet-per-node permutation rounds through the
//! synchronous simulator on `MS(3,2)` with the all-pairs table router.

use std::time::{Duration, Instant};

use scg_core::{Materialized, SuperCayleyGraph, DEFAULT_NET_CAP};
use scg_emu::{Packet, PortModel, SyncSim, TableRouter};
use scg_graph::{DenseGraph, NodeId};
use scg_perm::{Perm, XorShift64};

use crate::loadgen::Spans;
use crate::serve::sub_seed;
use crate::stats::{latency_us, Fnv, TAIL};
use crate::{wrong, Measurement};

/// Distinct seeded rounds, cycled during the measurement: enough that
/// their p90 has more than ten rounds beyond it.
pub const ROUNDS: usize = 128;
/// A round needs tens of steps; this only bounds a broken router.
const MAX_STEPS: u64 = 10_000;

pub fn network() -> Result<SuperCayleyGraph, String> {
    SuperCayleyGraph::macro_star(3, 2).map_err(|e| e.to_string())
}

/// The set-up a user of the simulator pays: materialize the network and
/// build its next-hop table.
pub fn build() -> Result<(Materialized, TableRouter), String> {
    let mat = Materialized::build(&network()?, DEFAULT_NET_CAP).map_err(|e| e.to_string())?;
    let router = TableRouter::new(mat.graph()).map_err(|e| e.to_string())?;
    Ok((mat, router))
}

/// One round: every node sends one packet to its image under a seeded
/// permutation, with the link transmissions shortest-path routing must
/// make.
#[derive(Debug, Clone)]
pub struct Round {
    pub dst: Vec<NodeId>,
    pub hops: u64,
}

/// The seeded rounds with their expected transmission counts. Node ids
/// are lexicographic ranks and generators act on the right, so
/// `dist(u, v) = dist(e, u⁻¹ ∘ v)` with `e` the identity, rank 0; that
/// oracle is checked against plain BFS from a few sources first.
pub fn rounds(graph: &DenseGraph, k: usize, seed: u64) -> Result<Vec<Round>, String> {
    let n = graph.num_nodes();
    let labels: Vec<Perm> = (0..n as u64)
        .map(|r| Perm::from_rank(k, r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let inverses: Vec<Perm> = labels.iter().map(Perm::inverse).collect();
    let d0 = graph.bfs_distances(0);
    let dist = |u: usize, v: usize| d0[inverses[u].compose(&labels[v]).rank() as usize];
    let mut rng = XorShift64::new(sub_seed(seed, 5));
    for _ in 0..4 {
        let s = rng.gen_range(n);
        let bfs = graph.bfs_distances(s as NodeId);
        for _ in 0..64 {
            let v = rng.gen_range(n);
            if bfs[v] != dist(s, v) {
                return Err(wrong(format!(
                    "distance oracle disagrees with BFS on {s} -> {v}"
                )));
            }
        }
    }
    Ok((0..ROUNDS)
        .map(|_| {
            let mut dst: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut dst);
            let hops = dst
                .iter()
                .enumerate()
                .map(|(u, &v)| u64::from(dist(u, v as usize)))
                .sum();
            Round { dst, hops }
        })
        .collect())
}

pub fn rounds_hash(rounds: &[Round]) -> u64 {
    let mut h = Fnv::new();
    for r in rounds {
        for &v in &r.dst {
            h.feed(&v.to_le_bytes());
        }
    }
    h.0
}

/// Runs rounds back to back for `dur` on one simulator, checking each:
/// every packet delivered, none dropped, and exactly the shortest-path
/// transmission count.
///
/// A round is deterministic work, so host interference can only slow it:
/// each distinct round is timed by its fastest repetition. The rate is
/// the packets of every round that ran over the sum of their best times;
/// `p50_us` (and the printed p90) are quantiles of the best times.
pub fn measure(
    graph: &DenseGraph,
    router: &TableRouter,
    rounds: &[Round],
    dur: Duration,
    mut spans: Option<&mut Spans>,
) -> Result<Measurement, String> {
    let mut sim = SyncSim::new(graph, PortModel::AllPort);
    let mut best = vec![u64::MAX; rounds.len()];
    let (mut packets, mut hops_total) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut r = 0usize;
    while t0.elapsed() < dur {
        let round = &rounds[r % rounds.len()];
        let before = sim.stats();
        let start = Instant::now();
        for (u, &v) in round.dst.iter().enumerate() {
            let packet = Packet {
                src: u as NodeId,
                dst: v,
                payload: r as u64,
            };
            sim.inject(u as NodeId, packet, router)
                .map_err(|e| format!("inject: {e}"))?;
        }
        let after = sim
            .run(router, MAX_STEPS)
            .map_err(|e| format!("run: {e}"))?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let end = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let delivered = after.delivered - before.delivered;
        let hops = after.transmissions - before.transmissions;
        if delivered != round.dst.len() as u64 || after.dropped != 0 || after.livelocked {
            return Err(wrong(format!(
                "round {r}: {delivered} of {} packets delivered, {} dropped",
                round.dst.len(),
                after.dropped
            )));
        }
        if hops != round.hops {
            return Err(wrong(format!(
                "round {r}: {hops} link transmissions, shortest paths need {}",
                round.hops
            )));
        }
        let slot = &mut best[r % rounds.len()];
        *slot = (*slot).min(ns);
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(t0, end - ns, end - ns, end);
        }
        packets += delivered;
        hops_total += hops;
        r += 1;
    }
    let (mut times, mut best_packets) = (Vec::new(), 0u64);
    for (round, &ns) in rounds.iter().zip(&best).filter(|(_, &ns)| ns != u64::MAX) {
        times.push(ns);
        best_packets += round.dst.len() as u64;
    }
    let best_s = times.iter().sum::<u64>() as f64 / 1e9;
    // A round that loses a packet aborts above, so every injected packet
    // was delivered.
    Ok(Measurement {
        attempted: packets,
        pairs_per_s: best_packets as f64 / best_s,
        p50_us: latency_us(&mut times, 0.5),
        tail_us: latency_us(&mut times, TAIL),
        delivered_ratio: 1.0,
        notes: vec![format!(
            "{r} rounds, {packets} packets, {:.2} hops/packet",
            hops_total as f64 / packets.max(1) as f64
        )],
        ..Measurement::default()
    })
}

/// One cold set-up, seconds.
pub fn setup_once() -> Result<f64, String> {
    let t = Instant::now();
    let built = build()?;
    let s = t.elapsed().as_secs_f64();
    drop(built);
    Ok(s)
}
