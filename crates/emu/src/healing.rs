//! The self-healing emulator loop: a [`SyncSim`] run that rides out a
//! [`FaultSchedule`] while traffic flows.
//!
//! Every cycle, [`run_chaos`] applies the schedule events that are due,
//! refreshes the [`TableRouter`] in place whenever the fault-set epoch
//! moved past the table ([`TableRouter::is_stale`] →
//! [`TableRouter::refresh_with_faults`]), injects fresh random traffic,
//! and steps the simulator — packets caught on dead links retry with the
//! simulator's bounded exponential backoff. Alongside the usual
//! [`SimStats`] it measures what the static fault audits cannot:
//!
//! * **MTTR** — for every degrading event, the cycles until the network is
//!   *healthy* again (router rebuilt against the current epoch and no
//!   packet stranded on a dead slot);
//! * **degradation curves** — windowed delivered-per-terminated ratios
//!   (×1000 fixed point), showing the dip and recovery around each event.
//!
//! Runs are deterministic: the same graph, schedule, and config replay to
//! byte-identical reports (pinned by `tests/faults.rs`).

use scg_graph::{DenseGraph, FaultSchedule, NodeId};
use scg_perm::XorShift64;

use crate::error::EmuError;
use crate::sim::{Packet, PortModel, SimStats, SyncSim, TableRouter};

/// Configuration of a [`run_chaos`] self-healing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Port model for the underlying [`SyncSim`].
    pub model: PortModel,
    /// Fresh random packets injected per cycle while injection is open.
    pub inject_per_cycle: usize,
    /// Injection stops after this cycle (the run then drains). 0 means
    /// "one cycle past the schedule horizon".
    pub inject_until: u64,
    /// Hard cycle cap; the run reports (not errors) if traffic is still
    /// queued when it hits.
    pub max_cycles: u64,
    /// Exponential backoff `(base, cap)` in cycles for packets with no
    /// live route; `(0, 0)` disables backoff.
    pub backoff: (u32, u32),
    /// Per-packet fault-retry budget.
    pub retry_limit: u32,
    /// Degradation-curve sample window in cycles.
    pub window: u64,
    /// Traffic seed (source/destination draws).
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            model: PortModel::AllPort,
            inject_per_cycle: 2,
            inject_until: 0,
            max_cycles: 4096,
            backoff: (1, 32),
            retry_limit: 8,
            window: 16,
            seed: 0x5C9_CA05,
        }
    }
}

/// Recovery record for one degrading schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecovery {
    /// Cycle the event fired.
    pub at: u64,
    /// Event label (see `ChaosEvent::kind`).
    pub kind: &'static str,
    /// First cycle at which the network was healthy again; `None` if it
    /// never recovered within the run.
    pub healthy_at: Option<u64>,
}

impl EventRecovery {
    /// Mean-time-to-recovery in cycles (`healthy_at − at`), if recovered.
    #[must_use]
    pub fn mttr(&self) -> Option<u64> {
        self.healthy_at.map(|h| h.saturating_sub(self.at))
    }
}

/// One degradation-curve sample: the delivered share of packets that
/// terminated inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveSample {
    /// Last cycle of the window.
    pub cycle: u64,
    /// Packets delivered in the window.
    pub delivered: u64,
    /// Packets dropped in the window.
    pub dropped: u64,
}

impl CurveSample {
    /// Delivered / terminated in ×1000 fixed point (1000 for an idle
    /// window — no terminations means no observed degradation).
    #[must_use]
    pub fn delivered_x1000(&self) -> u64 {
        (self.delivered * 1000)
            .checked_div(self.delivered + self.dropped)
            .unwrap_or(1000)
    }
}

/// Report of a completed [`run_chaos`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Final simulator statistics (`steps` = total cycles).
    pub stats: SimStats,
    /// Packets injected.
    pub injected: u64,
    /// Injection attempts rejected because the destination was
    /// unreachable at the time (not counted against delivery).
    pub rejected: u64,
    /// In-place router refreshes performed.
    pub refreshes: u64,
    /// Schedule events applied.
    pub events_applied: u64,
    /// Per-degrading-event recovery records, in firing order.
    pub recoveries: Vec<EventRecovery>,
    /// Windowed delivered-ratio samples.
    pub curve: Vec<CurveSample>,
    /// Whether all traffic terminated before `max_cycles`.
    pub drained: bool,
}

impl ChaosReport {
    /// The worst MTTR over all recovered events; `None` if no degrading
    /// event fired or some event never recovered.
    #[must_use]
    pub fn mttr_max(&self) -> Option<u64> {
        if self.recoveries.is_empty() || self.recoveries.iter().any(|r| r.healthy_at.is_none()) {
            return None;
        }
        self.recoveries.iter().filter_map(EventRecovery::mttr).max()
    }

    /// The lowest windowed delivered ratio (×1000) observed — the depth of
    /// the degradation dip.
    #[must_use]
    pub fn curve_min_x1000(&self) -> u64 {
        self.curve
            .iter()
            .map(CurveSample::delivered_x1000)
            .min()
            .unwrap_or(1000)
    }
}

/// Runs the self-healing loop: replay `schedule` against live traffic on
/// `graph`, refreshing the routing table whenever the fault epoch moves,
/// until traffic drains (or `max_cycles`). The schedule cursor is
/// consumed; pass a fresh or [`FaultSchedule::reset`] schedule.
///
/// # Errors
///
/// * [`EmuError::SimOutOfRange`] — a schedule event names a node or link
///   outside `graph`, or the graph degree exceeds the table router's cap.
pub fn run_chaos(
    graph: &DenseGraph,
    schedule: &mut FaultSchedule,
    config: &ChaosConfig,
) -> Result<ChaosReport, EmuError> {
    let mut router = TableRouter::new(graph)?;
    let mut sim = SyncSim::new(graph, config.model)
        .with_retry_limit(config.retry_limit)
        .with_backoff(config.backoff.0, config.backoff.1);
    let mut rng = XorShift64::new(config.seed);
    let inject_until = if config.inject_until == 0 {
        schedule.horizon() + 1
    } else {
        config.inject_until
    };
    let n = graph.num_nodes();
    let mut report = ChaosReport {
        stats: sim.stats(),
        injected: 0,
        rejected: 0,
        refreshes: 0,
        events_applied: 0,
        recoveries: Vec::new(),
        curve: Vec::new(),
        drained: false,
    };
    // Indices into `report.recoveries` still waiting for a healthy cycle.
    let mut open: Vec<usize> = Vec::new();
    let mut window_base = (0u64, 0u64); // (delivered, dropped) at window start
    loop {
        let now = sim.now();
        if now >= config.max_cycles {
            break;
        }
        let done_injecting = now >= inject_until;
        if done_injecting && sim.in_flight() == 0 && schedule.is_exhausted() {
            report.drained = true;
            break;
        }
        // 1. Chaos events due this cycle.
        for te in schedule.drain_due(now) {
            sim.apply_event(te.event)?;
            report.events_applied += 1;
            if te.event.is_fault() {
                open.push(report.recoveries.len());
                report.recoveries.push(EventRecovery {
                    at: now,
                    kind: te.event.kind(),
                    healthy_at: None,
                });
            }
        }
        // 2. Self-healing: rebuild the table in place when stale.
        if router.is_stale(sim.faults()) {
            router.refresh_with_faults(graph, sim.faults())?;
            report.refreshes += 1;
        }
        // 3. Fresh traffic between random live endpoints.
        if !done_injecting {
            for _ in 0..config.inject_per_cycle {
                let src = rng.gen_range(n) as NodeId;
                let dst = rng.gen_range(n) as NodeId;
                if sim.faults().node_failed(src) {
                    report.rejected += 1;
                    continue;
                }
                let packet = Packet {
                    src,
                    dst,
                    payload: report.injected,
                };
                match sim.inject(src, packet, &router) {
                    Ok(()) => report.injected += 1,
                    Err(EmuError::Unreachable { .. }) => report.rejected += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        // 4. One synchronous step.
        sim.step(&router)?;
        // 5. Health check: table current and no packet stranded on a dead
        // slot. MTTR for every open event closes at the first healthy
        // cycle.
        if !open.is_empty() && !router.is_stale(sim.faults()) && !sim.any_dead_queued() {
            for idx in open.drain(..) {
                report.recoveries[idx].healthy_at = Some(sim.now());
                #[cfg(feature = "obs")]
                crate::obs_hooks::recovered_after(
                    sim.now().saturating_sub(report.recoveries[idx].at),
                );
            }
        }
        // 6. Degradation curve sampling.
        if sim.now().is_multiple_of(config.window.max(1)) {
            let s = sim.stats();
            report.curve.push(CurveSample {
                cycle: sim.now(),
                delivered: s.delivered - window_base.0,
                dropped: s.dropped - window_base.1,
            });
            window_base = (s.delivered, s.dropped);
        }
    }
    report.stats = sim.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Router;
    use scg_graph::FaultSet;

    fn ring(n: usize) -> DenseGraph {
        DenseGraph::from_neighbor_fn(n, |u| {
            vec![(u + 1) % n as NodeId, (u + n as NodeId - 1) % n as NodeId]
        })
    }

    #[test]
    fn fault_then_repair_recovers_with_finite_mttr() {
        let g = ring(12);
        let mut schedule = FaultSchedule::fault_then_repair(5, 8, 40);
        let report = run_chaos(&g, &mut schedule, &ChaosConfig::default()).unwrap();
        assert!(report.drained, "traffic drained");
        assert_eq!(report.events_applied, 2);
        assert_eq!(report.recoveries.len(), 1, "one degrading event");
        let mttr = report.mttr_max().expect("recovered");
        assert!(mttr >= 1, "healing is not instantaneous");
        assert!(report.refreshes >= 2, "fault and repair each refresh");
        // Everything injected either delivered or (a few, caught mid-frame
        // on the dying node) dropped; the overall ratio stays high.
        let s = &report.stats;
        assert_eq!(s.delivered + s.dropped, report.injected);
        assert!(s.delivered_ratio() > 0.9, "ratio {}", s.delivered_ratio());
    }

    #[test]
    fn chaos_runs_replay_deterministically() {
        let g = ring(10);
        let spec = scg_graph::ChaosSpec {
            horizon: 60,
            permanent_node_faults: 1,
            transient_node_faults: 1,
            link_flaps: 1,
            ..scg_graph::ChaosSpec::default()
        };
        let config = ChaosConfig::default();
        let mut s1 = FaultSchedule::random(&g, &spec, 99);
        let mut s2 = FaultSchedule::random(&g, &spec, 99);
        let a = run_chaos(&g, &mut s1, &config).unwrap();
        let b = run_chaos(&g, &mut s2, &config).unwrap();
        assert_eq!(a, b, "same seed, same report");
    }

    #[test]
    fn backoff_parks_packets_until_repair() {
        // Cut both links of node 1's only route to 2... use a line-like
        // scenario on a ring: isolate the destination by cutting both its
        // cables, then splice them back. With backoff the packet waits out
        // the outage instead of dropping.
        let g = ring(6);
        let mut events = Vec::new();
        for (u, v) in [(1u32, 2u32), (2, 3)] {
            events.push(scg_graph::TimedEvent {
                at: 1,
                event: scg_graph::ChaosEvent::FailLinkUndirected(u, v),
            });
            events.push(scg_graph::TimedEvent {
                at: 12,
                event: scg_graph::ChaosEvent::RepairLinkUndirected(u, v),
            });
        }
        let mut schedule = FaultSchedule::from_events(events);
        let config = ChaosConfig {
            inject_per_cycle: 0,
            inject_until: 1,
            backoff: (1, 8),
            retry_limit: 32,
            ..ChaosConfig::default()
        };
        // Inject one packet headed for the soon-to-be-isolated node 2
        // before the cut, then let the loop handle the outage.
        let mut router = TableRouter::new(&g).unwrap();
        let mut sim = SyncSim::new(&g, config.model)
            .with_retry_limit(config.retry_limit)
            .with_backoff(config.backoff.0, config.backoff.1);
        sim.inject(
            0,
            Packet {
                src: 0,
                dst: 2,
                payload: 0,
            },
            &router,
        )
        .unwrap();
        while sim.in_flight() > 0 && sim.now() < 100 {
            sim.apply_chaos(&mut schedule).unwrap();
            if router.is_stale(sim.faults()) {
                router.refresh_with_faults(&g, sim.faults()).unwrap();
            }
            sim.step(&router).unwrap();
        }
        let s = sim.stats();
        assert_eq!(s.delivered, 1, "packet survived the outage");
        assert_eq!(s.dropped, 0);
        assert_eq!(s.recovered, 1, "counted as a repaired delivery");
        assert!(s.retried >= 1);
    }

    #[test]
    fn router_refresh_matches_fresh_build() {
        let g = ring(9);
        let mut faults = FaultSet::new();
        faults.fail_node(4);
        faults.fail_link_undirected(7, 8);
        let mut refreshed = TableRouter::new(&g).unwrap();
        refreshed.refresh_with_faults(&g, &faults).unwrap();
        let fresh = TableRouter::new_with_faults(&g, &faults).unwrap();
        let p = |dst| Packet {
            src: 0,
            dst,
            payload: 0,
        };
        for u in 0..9u32 {
            for dst in 0..9u32 {
                assert_eq!(
                    refreshed.next_hop(u, &p(dst)),
                    fresh.next_hop(u, &p(dst)),
                    "{u} → {dst}"
                );
            }
        }
        assert_eq!(refreshed.built_epoch(), faults.epoch());
        assert!(!refreshed.is_stale(&faults));
        faults.fail_node(2);
        assert!(refreshed.is_stale(&faults));
    }
}
