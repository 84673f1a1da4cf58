//! `obs`-feature hooks: topology-cache and routing metrics.
//!
//! Compiled only with the `obs` cargo feature. Hooks are record-only —
//! they never branch on metric state, so routing decisions and cache
//! behavior are identical with and without the feature. Families are
//! labeled by network name (`network="MS(2,2)"`), so the per-class
//! histograms the golden tests pin down come straight from here.

use scg_obs::{EventTrace, Registry, Timer};

/// Wall-time bucket bounds in microseconds: 1 µs .. 10 s, decades.
const MICROS_BOUNDS: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Hop-count bucket bounds: tight low end (paper dilations are single
/// digits at k = 5), powers of two above.
pub(crate) const HOPS_BOUNDS: [u64; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];

/// Cache hit for `network` on the shared [`TopologyCache`](crate::TopologyCache).
pub(crate) fn cache_hit(network: &str) {
    Registry::global()
        .counter("scg_topology_cache_hits_total", &[("network", network)])
        .inc();
}

/// Cache miss for `network` (a build follows).
pub(crate) fn cache_miss(network: &str) {
    Registry::global()
        .counter("scg_topology_cache_misses_total", &[("network", network)])
        .inc();
}

/// `n` entries dropped by [`TopologyCache::clear`](crate::TopologyCache::clear).
pub(crate) fn cache_evicted(n: u64) {
    Registry::global()
        .counter("scg_topology_cache_evictions_total", &[])
        .add(n);
}

/// Times one [`Materialized::build`](crate::Materialized::build) into
/// `scg_topology_materialize_micros` and leaves a trace event with the
/// node count.
pub(crate) fn materialize_timer(network: &str, nodes: u64) -> Timer {
    EventTrace::global().record(
        "topology.materialize",
        &[("nodes", i64::try_from(nodes).unwrap_or(i64::MAX))],
    );
    Timer::new(Registry::global().histogram(
        "scg_topology_materialize_micros",
        &[("network", network)],
        &MICROS_BOUNDS,
    ))
}

/// Plan-cache hit for `network`: a compiled [`RoutePlan`](crate::RoutePlan)
/// was served from the shared cache.
pub(crate) fn plan_cache_hit(network: &str) {
    Registry::global()
        .counter("scg_route_plan_cache_hits_total", &[("network", network)])
        .inc();
}

/// Plan-cache miss for `network` (a compile follows).
pub(crate) fn plan_cache_miss(network: &str) {
    Registry::global()
        .counter("scg_route_plan_cache_misses_total", &[("network", network)])
        .inc();
}

/// Times one [`RoutePlan::build`](crate::RoutePlan::build) into
/// `scg_route_plan_build_micros` and leaves a trace event.
pub(crate) fn plan_build_timer(network: &str) -> Timer {
    EventTrace::global().record("route.plan_build", &[]);
    Timer::new(Registry::global().histogram(
        "scg_route_plan_build_micros",
        &[("network", network)],
        &MICROS_BOUNDS,
    ))
}

/// One fault-free emulation route planned by
/// [`scg_route`](crate::scg_route): records the request and its hop count.
pub(crate) fn route_planned(network: &str, hops: usize) {
    let labels = [("network", network)];
    let reg = Registry::global();
    reg.counter("scg_route_requests_total", &labels).inc();
    reg.histogram("scg_route_plan_hops", &labels, &HOPS_BOUNDS)
        .observe(hops as u64);
}

/// One completed [`route_faulty`](crate::route_faulty) call:
/// records hops, detour encounters, and fallback use per network class.
pub(crate) fn route_faulty_done(network: &str, hops: usize, detours: usize, fallback: bool) {
    let labels = [("network", network)];
    let reg = Registry::global();
    reg.counter("scg_route_faulty_requests_total", &labels)
        .inc();
    reg.histogram("scg_route_faulty_hops", &labels, &HOPS_BOUNDS)
        .observe(hops as u64);
    reg.counter("scg_route_detours_total", &labels)
        .add(detours as u64);
    if fallback {
        reg.counter("scg_route_fallbacks_total", &labels).inc();
        EventTrace::global().record(
            "route.fallback",
            &[("hops", i64::try_from(hops).unwrap_or(i64::MAX))],
        );
    }
}

/// A routing attempt that ended in [`CoreError::NoRoute`](crate::CoreError).
pub(crate) fn route_faulty_no_route(network: &str) {
    Registry::global()
        .counter("scg_route_no_route_total", &[("network", network)])
        .inc();
}
