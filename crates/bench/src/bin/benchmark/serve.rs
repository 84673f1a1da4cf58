//! The three daemon workloads: seeded request pools with their reference
//! replies, and the loops that drive them through an in-process
//! `scg_serve` daemon with one shard over one Unix-domain connection.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scg_core::{
    apply_path, scg_route_faulty_with, CayleyNetwork, CoreError, Materialized, RoutePlan, ScgClass,
    SuperCayleyGraph, DEFAULT_NET_CAP,
};
use scg_graph::{ChaosEvent, ChaosSpec, FaultSchedule, FaultSet, NodeId, SurvivorView, TimedEvent};
use scg_obs::{MetricValue, Snapshot};
use scg_perm::{Perm, XorShift64};
use scg_serve::wire::{
    decode_reply, encode_reply, encode_request, peek_frame, BatchItem, FrameStatus, FLAG_DETOURED,
    FLAG_FALLBACK,
};
use scg_serve::{spawn, Config, ErrCode, NetId, Reply, Request, RunningServer};

use crate::loadgen::{closed_loop, open_loop, Conn, Frame, Outcome, Record, Spans, Tally, WINDOW};
use crate::stats::{quantile_us, rate, Fnv, Windowed, TAIL};
use crate::{wrong, Measurement};

/// `MS(4,2)`: `k = 9`, 362 880 nodes — the clean workloads' network. Its
/// plan is built per daemon; it is never materialized.
pub const CLEAN_NET: NetId = NetId {
    class: ScgClass::MacroStar,
    levels: 4,
    box_size: 2,
};

/// `MS(3,2)`: `k = 7`, 5 040 nodes — small enough to materialize for
/// fault-aware routing, and a graph distinct from the other `l = 3`
/// classes.
pub const DEGRADED_NET: NetId = NetId {
    class: ScgClass::MacroStar,
    levels: 3,
    box_size: 2,
};

pub const BATCH_FRAMES: usize = 256;
pub const BATCH_PAIRS: usize = 512;
pub const BATCH_WINDOW: usize = 8;

pub const SINGLE_POOL: usize = 4_096;
/// The fixed open-loop rate `p50_us` is read at.
pub const SINGLE_RATE: f64 = 100_000.0;
/// Requests in flight while serve_single measures capacity.
pub const SINGLE_WINDOW: usize = 32;
/// Open-loop and closed-loop slices of serve_single, each.
pub const SINGLE_SEGMENTS: usize = 8;
/// A serve_single run whose generator ran later than this at p99, even in
/// its best window, measured the client, not the daemon, and is reported
/// invalid. Judging the best window, as the latency metrics do, keeps a
/// host stall of the client thread from voiding a run whose windows
/// between stalls are sound.
pub const MAX_LATE_P99_US: f64 = 50.0;

pub const PHASES: usize = 10;
pub const DEGRADED_FRAMES: usize = 64;
pub const DEGRADED_PAIRS: usize = 256;
pub const DEGRADED_WINDOW: usize = 4;

/// Share of a measurement spent warming the daemon before timing.
const WARMUP_SHARE: f64 = 0.05;

/// A seed stream per purpose, so adding a draw to one pool never shifts
/// another.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn random_pairs(k: usize, count: usize, rng: &mut XorShift64) -> Vec<(Perm, Perm)> {
    (0..count)
        .map(|_| (Perm::random(k, rng), Perm::random(k, rng)))
        .collect()
}

fn net_of(id: NetId) -> Result<SuperCayleyGraph, String> {
    id.to_net().map_err(|e| format!("{id:?}: {e:?}"))
}

/// Routes every pair on the clean plan and checks each path with
/// `apply_path`.
fn clean_items(
    plan: &RoutePlan,
    pairs: &[(Perm, Perm)],
) -> Result<(Vec<BatchItem>, Outcome), String> {
    let mut outcome = Outcome::default();
    let mut items = Vec::with_capacity(pairs.len());
    for (from, to) in pairs {
        let hops = plan
            .route(from, to)
            .map_err(|e| format!("reference route: {e}"))?;
        if apply_path(from, &hops).map_err(|e| e.to_string())? != *to {
            return Err(wrong(format!(
                "reference route {from} -> {to} misses its destination"
            )));
        }
        outcome.delivered += 1;
        outcome.hops += hops.len() as u64;
        items.push(BatchItem {
            status: 0,
            flags: 0,
            hops,
        });
    }
    Ok((items, outcome))
}

/// The first `count` frames of the seeded `ROUTE_BATCH` pool on
/// [`CLEAN_NET`], `pairs` pairs each ([`BATCH_PAIRS`] in the workload).
pub fn batch_frames(seed: u64, count: usize, pairs: usize) -> Result<Vec<Frame>, String> {
    let net = net_of(CLEAN_NET)?;
    let plan = RoutePlan::build(&net).map_err(|e| e.to_string())?;
    let mut rng = XorShift64::new(sub_seed(seed, 1));
    (0..count)
        .map(|_| {
            let pairs = random_pairs(net.degree_k(), pairs, &mut rng);
            let (items, outcome) = clean_items(&plan, &pairs)?;
            Ok(Frame {
                request: encode_request(&Request::RouteBatch {
                    net: CLEAN_NET,
                    pairs,
                }),
                reply: encode_reply(&Reply::RouteBatchOk(items)),
                outcome,
            })
        })
        .collect()
}

/// The first `count` frames of the seeded single-`ROUTE` pool on
/// [`CLEAN_NET`].
pub fn single_frames(seed: u64, count: usize) -> Result<Vec<Frame>, String> {
    let net = net_of(CLEAN_NET)?;
    let plan = RoutePlan::build(&net).map_err(|e| e.to_string())?;
    let mut rng = XorShift64::new(sub_seed(seed, 2));
    random_pairs(net.degree_k(), count, &mut rng)
        .into_iter()
        .map(|(from, to)| {
            let (mut items, outcome) = clean_items(&plan, &[(from, to)])?;
            let hops = items.pop().map(|i| i.hops).unwrap_or_default();
            Ok(Frame {
                request: encode_request(&Request::Route {
                    net: CLEAN_NET,
                    from,
                    to,
                }),
                reply: encode_reply(&Reply::RouteOk { flags: 0, hops }),
                outcome,
            })
        })
        .collect()
}

/// One degraded phase: its schedule events and their fault report (as
/// first sent, on a fault-free daemon's way through the phases), the fault
/// set the daemon must hold after it, and the batch pool routed against
/// that set.
#[derive(Debug)]
pub struct Phase {
    pub events: Vec<ChaosEvent>,
    pub report: Frame,
    pub faults: FaultSet,
    pub pairs: Vec<(Perm, Perm)>,
    pub frames: Vec<Frame>,
}

/// The degraded workload's inputs, with the pool-wide outcome counts.
#[derive(Debug)]
pub struct Degraded {
    pub net: SuperCayleyGraph,
    pub plan: RoutePlan,
    pub mat: Materialized,
    pub phases: Vec<Phase>,
    /// The events that take the last phase's faults back to the first's,
    /// so the phases can be cycled on one daemon.
    pub reset: Vec<ChaosEvent>,
    pub outcome: Outcome,
}

/// The seeded fault schedule: a mixed random lifecycle over ten phase
/// "cycles", plus one permanent node fault at phase 0 so every phase runs
/// the fault-aware path. Repairs due after the last phase never fire.
/// Transient faults last a fixed three phases: random repair delays
/// would make the count of failed nodes, and so the share of refused
/// pairs, vary from seed to seed by more than a regression worth
/// catching.
fn schedule(mat: &Materialized, seed: u64) -> FaultSchedule {
    let spec = ChaosSpec {
        horizon: PHASES as u64,
        permanent_node_faults: 4,
        transient_node_faults: 12,
        link_flaps: 12,
        region_faults: 2,
        region_radius: 1,
        repair_after: (3, 3),
        exclude: Vec::new(),
    };
    let random = FaultSchedule::random(mat.graph(), &spec, sub_seed(seed, 3));
    let mut rng = XorShift64::new(sub_seed(seed, 4));
    let first = rng.gen_range(mat.num_nodes()) as NodeId;
    let mut events = vec![TimedEvent {
        at: 0,
        event: ChaosEvent::FailNode(first),
    }];
    events.extend_from_slice(random.events());
    FaultSchedule::from_events(events)
}

fn gen_slot(net: &SuperCayleyGraph, g: scg_core::Generator) -> Result<usize, String> {
    net.generators()
        .iter()
        .position(|&h| h == g)
        .ok_or_else(|| format!("generator {g:?} is not a link of {}", net.name()))
}

/// Reference outcome of one degraded pair, with its proof: a delivered
/// path reaches `to` and crosses no failed node or link; a refusal has a
/// failed endpoint or no survivor path at all.
fn degraded_item(
    d: (&SuperCayleyGraph, &RoutePlan, &Materialized),
    faults: &FaultSet,
    from: &Perm,
    to: &Perm,
    outcome: &mut Outcome,
) -> Result<BatchItem, String> {
    let (net, plan, mat) = d;
    let src = mat.node_id(from).map_err(|e| e.to_string())?;
    let dst = mat.node_id(to).map_err(|e| e.to_string())?;
    match scg_route_faulty_with(plan, net, mat, from, to, faults) {
        Ok(routed) => {
            if apply_path(from, &routed.hops).map_err(|e| e.to_string())? != *to {
                return Err(wrong(format!(
                    "degraded route {from} -> {to} misses its destination"
                )));
            }
            if faults.node_failed(src) {
                return Err(wrong(format!("degraded route starts at failed node {src}")));
            }
            let mut cur = src;
            for &g in &routed.hops {
                let next = mat.neighbor_id(cur, gen_slot(net, g)?);
                if faults.blocks(cur, next) {
                    return Err(wrong(format!(
                        "degraded route crosses failed hop {cur} -> {next}"
                    )));
                }
                cur = next;
            }
            let mut flags = 0;
            if routed.detours > 0 {
                flags |= FLAG_DETOURED;
                outcome.detoured += 1;
            }
            if routed.fallback_used {
                flags |= FLAG_FALLBACK;
                outcome.fallback += 1;
            }
            outcome.delivered += 1;
            outcome.hops += routed.hops.len() as u64;
            Ok(BatchItem {
                status: 0,
                flags,
                hops: routed.hops,
            })
        }
        Err(CoreError::NoRoute) => {
            let justified = faults.node_failed(src)
                || faults.node_failed(dst)
                || SurvivorView::new(mat.graph(), faults)
                    .shortest_path(src, dst)
                    .is_none();
            if !justified {
                return Err(wrong(format!(
                    "refusal of {from} -> {to} has a survivor path"
                )));
            }
            outcome.refused += 1;
            Ok(BatchItem {
                status: ErrCode::NoRoute as u8,
                flags: 0,
                hops: Vec::new(),
            })
        }
        Err(e) => Err(format!("reference degraded route: {e}")),
    }
}

/// The degraded pools: `phases` phases (at most [`PHASES`]) of
/// `frames_per_phase` frames each. Smaller calls give prefixes of the
/// full pools.
pub fn degraded(seed: u64, phases: usize, frames_per_phase: usize) -> Result<Degraded, String> {
    let net = net_of(DEGRADED_NET)?;
    let plan = RoutePlan::build(&net).map_err(|e| e.to_string())?;
    let mat = Materialized::build(&net, DEFAULT_NET_CAP).map_err(|e| e.to_string())?;
    let schedule = schedule(&mat, seed).events().to_vec();
    let mut faults = FaultSet::new();
    let mut total = Outcome::default();
    let mut out = Vec::with_capacity(phases);
    for p in 0..phases.min(PHASES) {
        let events: Vec<ChaosEvent> = schedule
            .iter()
            .filter(|e| e.at == p as u64)
            .map(|e| e.event)
            .collect();
        let report = report_frame(&events, &mut faults)?;
        let mut rng = XorShift64::new(sub_seed(seed, 100 + p as u64));
        let pairs = random_pairs(net.degree_k(), frames_per_phase * DEGRADED_PAIRS, &mut rng);
        let mut frames = Vec::with_capacity(frames_per_phase);
        for chunk in pairs.chunks(DEGRADED_PAIRS) {
            let mut outcome = Outcome::default();
            let items = chunk
                .iter()
                .map(|(f, t)| degraded_item((&net, &plan, &mat), &faults, f, t, &mut outcome))
                .collect::<Result<Vec<_>, _>>()?;
            total.add(&outcome);
            frames.push(Frame {
                request: encode_request(&Request::RouteBatch {
                    net: DEGRADED_NET,
                    pairs: chunk.to_vec(),
                }),
                reply: encode_reply(&Reply::RouteBatchOk(items)),
                outcome,
            });
        }
        out.push(Phase {
            events,
            report,
            faults: faults.clone(),
            pairs,
            frames,
        });
    }
    let reset = match (out.last(), out.first()) {
        (Some(last), Some(first)) => transition(&last.faults, &first.faults),
        _ => Vec::new(),
    };
    Ok(Degraded {
        net,
        plan,
        mat,
        phases: out,
        reset,
        outcome: total,
    })
}

/// A `FAULT_REPORT` of `events` on [`DEGRADED_NET`], with the reply a
/// daemon holding `mirror` must give; applies the events to `mirror`.
pub fn report_frame(events: &[ChaosEvent], mirror: &mut FaultSet) -> Result<Frame, String> {
    let applied = events.iter().filter(|ev| ev.apply(mirror)).count();
    Ok(Frame {
        request: encode_request(&Request::FaultReport {
            net: DEGRADED_NET,
            events: events.to_vec(),
        }),
        reply: encode_reply(&Reply::FaultOk {
            applied: u32::try_from(applied).map_err(|e| e.to_string())?,
            epoch: mirror.epoch(),
        }),
        outcome: Outcome::default(),
    })
}

/// The events that turn fault set `from` into `to`, each changing one
/// fault.
fn transition(from: &FaultSet, to: &FaultSet) -> Vec<ChaosEvent> {
    let mut events: Vec<ChaosEvent> = from
        .failed_nodes()
        .into_iter()
        .filter(|&u| !to.node_failed(u))
        .map(ChaosEvent::RepairNode)
        .collect();
    events.extend(
        to.failed_nodes()
            .into_iter()
            .filter(|&u| !from.node_failed(u))
            .map(ChaosEvent::FailNode),
    );
    events.extend(
        from.failed_links_directed()
            .into_iter()
            .filter(|&(u, v)| !to.link_failed(u, v))
            .map(|(u, v)| ChaosEvent::RepairLink(u, v)),
    );
    events.extend(
        to.failed_links_directed()
            .into_iter()
            .filter(|&(u, v)| !from.link_failed(u, v))
            .map(|(u, v)| ChaosEvent::FailLink(u, v)),
    );
    events
}

/// FNV-1a over every request byte of a pool, in order.
pub fn pool_hash<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> u64 {
    let mut h = Fnv::new();
    for f in frames {
        h.feed(&f.request);
    }
    h.0
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

/// A fresh one-shard daemon on a socket under `dir`, and a connection to
/// it.
pub fn daemon(dir: &Path) -> Result<(RunningServer, Conn), String> {
    // ord: Relaxed — a unique-name counter publishes nothing else.
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = dir.join(format!("bench-{}-{n}.sock", std::process::id()));
    let server = spawn(Config {
        uds_path: path,
        tcp: false,
        shards: 1,
    })
    .map_err(|e| format!("spawn daemon: {e}"))?;
    let conn = Conn::connect(server.uds_path()).map_err(|e| format!("connect: {e}"))?;
    Ok((server, conn))
}

/// Requests of each kind the client sent, and the outcomes it checked:
/// what the daemon's own `METRICS` counters must say.
#[derive(Debug, Default)]
pub struct Expected {
    pub route: u64,
    pub route_batch: u64,
    pub fault_report: u64,
    pub outcome: Outcome,
}

fn counter(snap: &Snapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .filter(|m| label.is_none_or(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v)))
        .map(|m| match m.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Scrapes `METRICS` and requires the daemon's counts to equal the
/// client's.
pub fn check_daemon_counts(conn: &mut Conn, want: &Expected) -> Result<(), String> {
    let raw = conn.request_raw(&encode_request(&Request::Metrics { json: true }))?;
    let FrameStatus::Frame {
        ver,
        ftype,
        start,
        end,
    } = peek_frame(&raw)
    else {
        return Err("METRICS reply does not frame".to_string());
    };
    let Ok(Reply::MetricsOk(body)) = decode_reply(ver, ftype, &raw[start..end]) else {
        return Err("METRICS reply is not METRICS_OK".to_string());
    };
    let snap = Snapshot::from_json(&body).map_err(|e| format!("METRICS JSON: {e}"))?;
    let req = "scg_serve_requests_total";
    let checks = [
        (
            "route requests",
            counter(&snap, req, Some(("kind", "route"))),
            want.route,
        ),
        (
            "batch requests",
            counter(&snap, req, Some(("kind", "route_batch"))),
            want.route_batch,
        ),
        (
            "fault reports",
            counter(&snap, req, Some(("kind", "fault_report"))),
            want.fault_report,
        ),
        (
            "routes",
            counter(&snap, "scg_serve_routes_total", None),
            want.outcome.delivered,
        ),
        (
            "refusals",
            counter(&snap, "scg_serve_route_refused_total", None),
            want.outcome.refused,
        ),
        (
            "detours",
            counter(&snap, "scg_serve_route_detoured_total", None),
            want.outcome.detoured,
        ),
        (
            "fallbacks",
            counter(&snap, "scg_serve_route_fallback_total", None),
            want.outcome.fallback,
        ),
    ];
    for (what, daemon, client) in checks {
        if daemon != client {
            return Err(wrong(format!(
                "daemon counts {daemon} {what}, the client {client}"
            )));
        }
    }
    Ok(())
}

/// Shard-thread and client-thread CPU seconds, and wall seconds, summed
/// over the measured slices of a run.
#[derive(Debug, Default)]
struct CpuTime {
    wall: f64,
    shard: f64,
    client: f64,
}

impl CpuTime {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (wall, shard, client) = (
            Instant::now(),
            crate::sys::threads_cpu_s("scg-serve-shard"),
            crate::sys::this_thread_cpu_s(),
        );
        let out = f();
        self.wall += wall.elapsed().as_secs_f64();
        self.shard += crate::sys::threads_cpu_s("scg-serve-shard") - shard;
        self.client += crate::sys::this_thread_cpu_s() - client;
        out
    }

    /// (shard, client) CPU seconds per wall second.
    fn shares(&self) -> (f64, f64) {
        (self.shard / self.wall, self.client / self.wall)
    }
}

fn warmup(dur: Duration) -> Duration {
    dur.mul_f64(WARMUP_SHARE).max(Duration::from_millis(50))
}

/// serve_batch: a closed loop of [`BATCH_WINDOW`] `ROUTE_BATCH` frames.
pub fn measure_batch(
    frames: &[Frame],
    dur: Duration,
    dir: &Path,
    spans: Option<&mut Spans>,
) -> Result<Measurement, String> {
    let (server, mut conn) = daemon(dir)?;
    let warm = closed_loop(&mut conn, frames, BATCH_WINDOW, warmup(dur), Record::Rate)?;
    let mut cpu = CpuTime::default();
    let run =
        cpu.time(|| closed_loop(&mut conn, frames, BATCH_WINDOW, dur, Record::latency(spans)))?;
    let (daemon_cpu_share, client_cpu_share) = cpu.shares();
    let mut total = warm.tally.clone();
    total.add(&run.tally);
    check_daemon_counts(
        &mut conn,
        &Expected {
            route_batch: total.sent,
            outcome: total.outcome,
            ..Expected::default()
        },
    )?;
    server.shutdown();
    Ok(Measurement {
        pairs_per_s: rate(&[&run.windows]),
        p50_us: quantile_us(&[&run.windows], 0.5),
        tail_us: quantile_us(&[&run.windows], TAIL),
        notes: vec![format!(
            "{} frames of {BATCH_PAIRS} pairs, {:.2} hops/pair",
            run.tally.sent,
            run.tally.outcome.hops as f64 / run.tally.outcome.delivered.max(1) as f64
        )],
        delivered_ratio: total.delivered_ratio(),
        attempted: total.sent,
        failed: total.failed,
        daemon_cpu_share,
        client_cpu_share,
        ..Measurement::default()
    })
}

/// serve_single: [`SINGLE_SEGMENTS`] pairs of slices, each an open loop
/// at [`SINGLE_RATE`] for the latency metrics, then a closed loop of
/// [`SINGLE_WINDOW`] requests in flight for the capacity. Alternating
/// them spreads both over the whole run, so a slow spell of the host
/// weighs on both alike.
pub fn measure_single(
    frames: &[Frame],
    dur: Duration,
    dir: &Path,
    mut spans: Option<&mut Spans>,
) -> Result<Measurement, String> {
    let (server, mut conn) = daemon(dir)?;
    let mut total = Tally::default();
    let warm = open_loop(&mut conn, frames, SINGLE_RATE, warmup(dur), Record::Rate)?;
    total.add(&warm.tally);
    let slice = dur.div_f64(2.0 * SINGLE_SEGMENTS as f64);
    let (mut fixed, mut capacity) = (Windowed::new(WINDOW), Windowed::new(WINDOW));
    let (mut late, mut fixed_sent) = (Windowed::new(WINDOW), 0);
    let mut cpu = CpuTime::default();
    for _ in 0..SINGLE_SEGMENTS {
        let record = Record::latency(spans.as_deref_mut());
        let open = cpu.time(|| open_loop(&mut conn, frames, SINGLE_RATE, slice, record))?;
        total.add(&open.tally);
        fixed_sent += open.tally.sent;
        late.absorb(open.late);
        fixed.absorb(open.windows);
        let closed = closed_loop(&mut conn, frames, SINGLE_WINDOW, slice, Record::Rate)?;
        total.add(&closed.tally);
        capacity.absorb(closed.windows);
    }
    let (daemon_cpu_share, client_cpu_share) = cpu.shares();
    check_daemon_counts(
        &mut conn,
        &Expected {
            route: total.sent,
            outcome: total.outcome,
            ..Expected::default()
        },
    )?;
    server.shutdown();
    let late_p99_us = quantile_us(&[&late], 0.99);
    let mut notes = vec![format!(
        "{fixed_sent} requests at {SINGLE_RATE:.0}/s, generator late p99 {late_p99_us:.1} us in its best window"
    )];
    if late_p99_us > MAX_LATE_P99_US {
        notes.push(format!(
            "INVALID: generator lateness p99 {late_p99_us:.1} us > {MAX_LATE_P99_US} us"
        ));
    }
    Ok(Measurement {
        pairs_per_s: rate(&[&capacity]),
        p50_us: quantile_us(&[&fixed], 0.5),
        tail_us: quantile_us(&[&fixed], TAIL),
        delivered_ratio: total.delivered_ratio(),
        attempted: total.sent,
        failed: total.failed,
        late_p99_us,
        daemon_cpu_share,
        client_cpu_share,
        notes,
    })
}

/// serve_degraded: one daemon cycles through the ten phases, a window
/// per visit. A visit sends the phase's fault report (after the last
/// phase, the report that resets the faults to the first phase's), then
/// runs its batch pool with [`DEGRADED_WINDOW`] frames in flight. The
/// host slows this workload's routing to about half for seconds at a
/// time; cycling gives every phase a window in every second of the run,
/// so each phase meets the host's fast spells.
pub fn measure_degraded(
    d: &Degraded,
    dur: Duration,
    dir: &Path,
    mut spans: Option<&mut Spans>,
) -> Result<Measurement, String> {
    let (server, mut conn) = daemon(dir)?;
    let mut total = Tally::default();
    let mut reports = Tally::default();
    let mut phases: Vec<(Windowed, Tally)> = d
        .phases
        .iter()
        .map(|_| (Windowed::new(WINDOW), Tally::default()))
        .collect();
    let mut cpu = CpuTime::default();
    let mut mirror = FaultSet::new();
    let cycle = WINDOW * d.phases.len() as u32;
    let cycles = (dur.as_secs_f64() / cycle.as_secs_f64()).floor().max(1.0);
    let visit = dur.div_f64(cycles * d.phases.len() as f64);
    for c in 0..cycles as usize {
        for (p, (phase, (windows, tally))) in d.phases.iter().zip(&mut phases).enumerate() {
            let events = if c > 0 && p == 0 {
                &d.reset
            } else {
                &phase.events
            };
            conn.exchange(&report_frame(events, &mut mirror)?, &mut reports)?;
            if mirror != phase.faults {
                return Err(format!("the fault mirror left phase {p}'s faults"));
            }
            let record = Record::latency(spans.as_deref_mut());
            let run =
                cpu.time(|| closed_loop(&mut conn, &phase.frames, DEGRADED_WINDOW, visit, record))?;
            total.add(&run.tally);
            tally.add(&run.tally);
            windows.absorb(run.windows);
        }
    }
    if reports.failed > 0 {
        return Err("a fault report was refused".to_string());
    }
    check_daemon_counts(
        &mut conn,
        &Expected {
            route_batch: total.sent,
            fault_report: reports.sent,
            outcome: total.outcome,
            ..Expected::default()
        },
    )?;
    server.shutdown();
    let (daemon_cpu_share, client_cpu_share) = cpu.shares();
    let windows: Vec<&Windowed> = phases.iter().map(|(w, _)| w).collect();
    // Each phase is an equal slice of time, so the run's delivered share
    // is the mean of the phases' shares; weighting by pairs sent would
    // let the host's speed during each phase move it.
    let ratios: Vec<f64> = phases.iter().map(|(_, t)| t.delivered_ratio()).collect();
    let o = total.outcome;
    Ok(Measurement {
        pairs_per_s: rate(&windows),
        p50_us: quantile_us(&windows, 0.5),
        tail_us: quantile_us(&windows, TAIL),
        notes: vec![format!(
            "{} pairs: {} delivered ({} detoured, {} fallback), {} refused",
            o.pairs(),
            o.delivered,
            o.detoured,
            o.fallback,
            o.refused
        )],
        delivered_ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        attempted: total.sent + reports.sent,
        failed: total.failed,
        daemon_cpu_share,
        client_cpu_share,
        ..Measurement::default()
    })
}

/// One cold set-up of a serve workload: spawn the daemon, then the first
/// good reply on the workload's network (for serve_degraded, after the
/// first fault report, which materializes the network). Seconds.
pub fn setup_once(first: &[Frame], dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let (server, mut conn) = daemon(dir)?;
    let mut tally = Tally::default();
    for frame in first {
        conn.exchange(frame, &mut tally)?;
    }
    let s = t.elapsed().as_secs_f64();
    server.shutdown();
    if tally.failed > 0 {
        return Err("set-up request failed".to_string());
    }
    Ok(s)
}
