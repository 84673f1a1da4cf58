//! Per-shard request handling: one [`ShardCore`] per event-loop thread,
//! owning a shard-local [`TopologyCache`] and per-network fault state.
//!
//! Connections are pinned to shards, so the hot path — decode, plan
//! lookup, packed batch routing, streaming reply encode — touches no
//! lock any other core is using. Vertex-transitivity makes this sharding
//! free: routing needs no shared per-source state, so shards never
//! coordinate except on *fault* events, which are rare and flow through
//! the append-only [`FaultJournal`] (an atomic length check per loop
//! iteration; the mutex is locked only when the journal actually grew).
//!
//! A `ROUTE` frame on a network the shard already holds, fault-free, goes
//! from frame bytes to reply bytes: [`route_payload`] frames the payload
//! in place, [`RoutePlan::pack_labels`] validates and packs the two
//! labels into one relative word, and [`RoutePlan::star_sort_links`]
//! visits the star-sort's moves, each copying one star link's expansion
//! pre-encoded per network. No `Perm`, hop vector or allocation is made.
//! Everything else — a network's first frame, a network holding faults
//! (detours and the survivor fallback of [`route_faulty`]), any malformed
//! frame or error — takes the decoded path ([`decode_request`]), whose
//! clean branch writes the same bytes through the same packer and visitor.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scg_core::{
    route_faulty, CoreError, FaultScratch, Generator, PackedPair, RoutePlan, TopologyCache,
    MAX_FAULT_DEGREE,
};
use scg_graph::{ChaosEvent, FaultSet};
use scg_perm::{factorial, Perm};

use crate::metrics::ServeMetrics;
use crate::wire::{
    begin_frame, decode_request, encode_error_into, end_frame, route_payload, ErrCode, FrameType,
    NetId, Request, FLAG_DETOURED, FLAG_FALLBACK, WIRE_VERSION,
};

/// The cross-shard fault log: every `FAULT_REPORT` is appended here so
/// shards that serve *other* connections of the same network converge on
/// the same fault view.
///
/// The hot path never locks this: each shard compares its private cursor
/// against the atomic length once per loop iteration and takes the mutex
/// only on growth (fault events are many orders of magnitude rarer than
/// route requests).
#[derive(Debug, Default)]
pub struct FaultJournal {
    len: AtomicUsize,
    events: Mutex<Vec<(NetId, ChaosEvent)>>,
}

impl FaultJournal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> FaultJournal {
        FaultJournal::default()
    }

    /// The current length — a relaxed load, the cheap "anything new?"
    /// check.
    #[must_use]
    pub fn len(&self) -> usize {
        // A reader observing it stale catches up one loop iteration
        // later; the mutex inside drain_since/append_and_drain orders
        // the event data itself.
        // ord: Relaxed — monotonic watermark only.
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no events were ever reported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events `seen..` (the tail this reader has not applied yet), plus
    /// the new cursor.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned by a panicking reporter.
    #[must_use]
    pub fn drain_since(&self, seen: usize) -> (Vec<(NetId, ChaosEvent)>, usize) {
        let events = self.events.lock().expect("fault journal lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        (events.get(seen..).unwrap_or(&[]).to_vec(), events.len())
    }

    /// Atomically catches up (returns the foreign tail `seen..`) and
    /// appends this shard's own `new` events, so the caller misses no
    /// interleaved foreign event and never re-applies its own.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned by a panicking reporter.
    #[must_use]
    pub fn append_and_drain(
        &self,
        seen: usize,
        net: NetId,
        new: &[ChaosEvent],
    ) -> (Vec<(NetId, ChaosEvent)>, usize) {
        let mut events = self.events.lock().expect("fault journal lock"); // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        let foreign = events.get(seen..).unwrap_or(&[]).to_vec();
        events.extend(new.iter().map(|&ev| (net, ev)));
        let len = events.len();
        // Publication of the data itself is ordered by the mutex.
        // ord: Relaxed — the atomic is only the lock-free growth hint.
        self.len.store(len, Ordering::Relaxed);
        (foreign, len)
    }
}

/// Everything a shard knows about one network.
#[derive(Debug)]
struct NetState {
    plan: Arc<RoutePlan>,
    faults: FaultSet,
    /// Degraded routing's prefilter and buffers, reused across frames.
    scratch: FaultScratch,
    /// Reusable per-pair hop buffers for batch routing (capacity
    /// persists across frames).
    batch_out: Vec<Vec<Generator>>,
    /// Every star link's expansion pre-encoded as reply hop bytes: `T_j`
    /// spans `star_wire[star_wire_at[j - 2]..star_wire_at[j - 1]]`.
    star_wire: Vec<u8>,
    star_wire_at: Vec<usize>,
}

impl NetState {
    /// Appends the `ROUTE_OK` frame of a clean route: each move of the
    /// star-sort copies its link's pre-encoded bytes, then the hop count
    /// is patched in. Returns the hop count.
    fn write_clean_route(&self, pair: PackedPair, out: &mut Vec<u8>) -> usize {
        let at = begin_frame(out, FrameType::RouteOk);
        out.push(0); // flags: clean path
        let count_at = out.len();
        out.extend_from_slice(&[0, 0]);
        self.plan.star_sort_links(pair, |j| {
            out.extend_from_slice(
                &self.star_wire[self.star_wire_at[j - 2]..self.star_wire_at[j - 1]],
            );
        });
        let hops = (out.len() - count_at - 2) / 3;
        out[count_at..count_at + 2].copy_from_slice(&(hops as u16).to_le_bytes());
        end_frame(out, at);
        hops
    }
}

/// What handling one frame asks of the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameEffects {
    /// The frame appended fault events to the journal: poke the other
    /// shards' wake pipes so they converge without waiting for traffic.
    pub journal_grew: bool,
}

/// One shard's request-handling state (no I/O — the server's event loop
/// feeds it complete frames and owns the sockets).
#[derive(Debug)]
pub struct ShardCore {
    cache: TopologyCache,
    nets: HashMap<NetId, NetState>,
    metrics: Arc<ServeMetrics>,
    journal: Arc<FaultJournal>,
    seen: usize,
    /// The `obs` mirror of `req_route`, resolved on the first ROUTE so the
    /// clean path does no registry lookup.
    #[cfg(feature = "obs")]
    route_mirror: std::cell::OnceCell<Arc<scg_obs::Counter>>,
}

impl ShardCore {
    /// A fresh shard over its own empty topology cache.
    #[must_use]
    pub fn new(metrics: Arc<ServeMetrics>, journal: Arc<FaultJournal>) -> ShardCore {
        ShardCore {
            cache: TopologyCache::new(),
            nets: HashMap::new(),
            metrics,
            journal,
            seen: 0,
            #[cfg(feature = "obs")]
            route_mirror: std::cell::OnceCell::new(),
        }
    }

    /// Applies any journal events this shard has not seen yet. Cheap when
    /// idle (one relaxed load); called once per event-loop iteration.
    pub fn sync_faults(&mut self) {
        if self.journal.len() <= self.seen {
            return;
        }
        let (tail, len) = self.journal.drain_since(self.seen);
        self.seen = len;
        for (net_id, ev) in tail {
            if let Some(state) = self.nets.get_mut(&net_id) {
                ev.apply(&mut state.faults);
            }
            // Unknown networks need nothing now — resolve_in replays the
            // full journal when the network is first seen.
        }
    }

    /// Handles one well-framed request (header already validated by
    /// [`crate::wire::peek_frame`]), appending reply frames to `out`.
    ///
    /// A `ROUTE` frame on a resolved, fault-free network whose labels
    /// pack is answered from frame bytes to reply bytes; anything else
    /// (first sight of a network, faults, any error) takes the decoded
    /// path, which gives the same bytes and counters.
    pub fn handle_frame(
        &mut self,
        ver: u8,
        ftype: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> FrameEffects {
        let started = Instant::now();
        if ver == WIRE_VERSION && ftype == FrameType::Route as u8 && self.route_wire(payload, out) {
            self.metrics.route_micros.observe(elapsed_micros(&started));
            return FrameEffects::default();
        }
        let req = match decode_request(ver, ftype, payload) {
            Ok(req) => req,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "request did not decode");
                return FrameEffects::default();
            }
        };
        match req {
            Request::Route { net, from, to } => {
                self.count_route_request();
                self.handle_route(net, &from, &to, out);
                self.metrics.route_micros.observe(elapsed_micros(&started));
                FrameEffects::default()
            }
            Request::RouteBatch { net, pairs } => {
                self.metrics.req_batch.inc();
                #[cfg(feature = "obs")]
                mirror_request("route_batch");
                self.handle_batch(net, &pairs, out);
                self.metrics.batch_micros.observe(elapsed_micros(&started));
                FrameEffects::default()
            }
            Request::FaultReport { net, events } => {
                self.metrics.req_fault.inc();
                #[cfg(feature = "obs")]
                mirror_request("fault_report");
                self.handle_fault_report(net, &events, out)
            }
            Request::Metrics { json } => {
                self.metrics.req_metrics.inc();
                #[cfg(feature = "obs")]
                mirror_request("metrics");
                let snap = self.metrics.snapshot();
                let body = if json { snap.to_json() } else { snap.to_text() };
                let at = begin_frame(out, FrameType::MetricsOk);
                out.extend_from_slice(body.as_bytes());
                end_frame(out, at);
                FrameEffects::default()
            }
        }
    }

    fn count_route_request(&self) {
        self.metrics.req_route.inc();
        #[cfg(feature = "obs")]
        self.route_mirror
            .get_or_init(|| {
                scg_obs::Registry::global()
                    .counter("scg_serve_requests_total", &[("kind", "route")])
            })
            .inc();
    }

    /// The wire-to-wire ROUTE: answers and returns `true` when the
    /// payload frames, names a network this shard already holds without
    /// faults, and carries labels that pack at its degree. Otherwise
    /// touches nothing and returns `false`.
    fn route_wire(&self, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let Ok(req) = route_payload(payload) else {
            return false;
        };
        let Some(state) = self.nets.get(&req.net) else {
            return false;
        };
        if !state.faults.is_empty() {
            return false;
        }
        let Ok(pair) = state.plan.pack_labels(req.from, req.to) else {
            return false;
        };
        self.count_route_request();
        let hops = state.write_clean_route(pair, out);
        self.metrics.routes.inc();
        self.metrics.hops.observe(hops as u64);
        true
    }

    fn handle_route(&mut self, net_id: NetId, from: &Perm, to: &Perm, out: &mut Vec<u8>) {
        match self.route_one(net_id, from, to, out) {
            Ok(hops) => {
                self.metrics.routes.inc();
                self.metrics.hops.observe(hops as u64);
            }
            Err(code) => {
                if code == ErrCode::NoRoute {
                    self.metrics.refused.inc();
                }
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
            }
        }
    }

    /// Routes one pair, degraded-aware, appending its `ROUTE_OK` frame.
    /// Returns the hop count.
    fn route_one(
        &mut self,
        net_id: NetId,
        from: &Perm,
        to: &Perm,
        out: &mut Vec<u8>,
    ) -> Result<usize, ErrCode> {
        let state = resolve_in(&mut self.nets, &self.cache, &self.journal, net_id)?;
        if state.faults.is_empty() {
            let pair = state
                .plan
                .pack_labels(from.symbols(), to.symbols())
                .map_err(map_core_err)?;
            return Ok(state.write_clean_route(pair, out));
        }
        let routed = route_faulty(&state.plan, &state.faults, from, to, &mut state.scratch)
            .map_err(map_core_err)?;
        let mut flags = 0u8;
        if routed.detours > 0 {
            flags |= FLAG_DETOURED;
            self.metrics.detoured.inc();
        }
        if routed.fallback_used {
            flags |= FLAG_FALLBACK;
            self.metrics.fallback.inc();
        }
        let at = begin_frame(out, FrameType::RouteOk);
        out.push(flags);
        out.extend_from_slice(&(routed.hops.len() as u16).to_le_bytes());
        for &g in &routed.hops {
            push_generator(out, g);
        }
        end_frame(out, at);
        Ok(routed.hops.len())
    }

    fn handle_batch(&mut self, net_id: NetId, pairs: &[(Perm, Perm)], out: &mut Vec<u8>) {
        self.metrics.batch_pairs.observe(pairs.len() as u64);
        let state = match resolve_in(&mut self.nets, &self.cache, &self.journal, net_id) {
            Ok(state) => state,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
                return;
            }
        };
        // The wire format guarantees uniform degree within a batch; a
        // degree mismatch against the network fails the whole frame.
        if pairs
            .first()
            .is_some_and(|(f, _)| f.degree() != state.plan.degree_k())
        {
            self.metrics.inc_error(ErrCode::DegreeMismatch);
            encode_error_into(
                out,
                ErrCode::DegreeMismatch,
                "batch degree != network degree",
            );
            return;
        }
        let at = begin_frame(out, FrameType::RouteBatchOk);
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        if state.faults.is_empty() {
            // Hot path: the packed SoA lanes of route_chunk, one pass over
            // the whole frame, reusing the shard's hop buffers.
            if state.batch_out.len() < pairs.len() {
                state.batch_out.resize(pairs.len(), Vec::new());
            }
            for slot in &mut state.batch_out[..pairs.len()] {
                slot.clear();
            }
            let mut bstate = state.plan.new_batch_state();
            match state
                .plan
                .route_chunk(pairs, &mut state.batch_out[..pairs.len()], &mut bstate)
            {
                Ok(()) => {
                    for hops in &state.batch_out[..pairs.len()] {
                        self.metrics.routes.inc();
                        self.metrics.hops.observe(hops.len() as u64);
                        out.push(0); // status: ok
                        out.push(0); // flags: clean path
                        out.extend_from_slice(&(hops.len() as u16).to_le_bytes());
                        for &g in hops {
                            push_generator(out, g);
                        }
                    }
                }
                Err(e) => {
                    // Uniform-degree frames make per-pair failure
                    // impossible here; fail the frame with the typed code
                    // instead of a half-written reply.
                    out.truncate(at);
                    let code = map_core_err(e);
                    self.metrics.inc_error(code);
                    encode_error_into(out, code, "batch routing failed");
                    return;
                }
            }
        } else {
            // Degraded: pair-by-pair fault-aware routing with per-item
            // statuses (refusals do not fail the frame).
            for (from, to) in pairs {
                match route_faulty(&state.plan, &state.faults, from, to, &mut state.scratch) {
                    Ok(routed) => {
                        self.metrics.routes.inc();
                        self.metrics.hops.observe(routed.hops.len() as u64);
                        let mut flags = 0u8;
                        if routed.detours > 0 {
                            flags |= FLAG_DETOURED;
                            self.metrics.detoured.inc();
                        }
                        if routed.fallback_used {
                            flags |= FLAG_FALLBACK;
                            self.metrics.fallback.inc();
                        }
                        out.push(0);
                        out.push(flags);
                        out.extend_from_slice(&(routed.hops.len() as u16).to_le_bytes());
                        for &g in &routed.hops {
                            push_generator(out, g);
                        }
                    }
                    Err(e) => {
                        let code = map_core_err(e);
                        if code == ErrCode::NoRoute {
                            self.metrics.refused.inc();
                        }
                        out.push(code as u8);
                    }
                }
            }
        }
        end_frame(out, at);
    }

    fn handle_fault_report(
        &mut self,
        net_id: NetId,
        events: &[ChaosEvent],
        out: &mut Vec<u8>,
    ) -> FrameEffects {
        let state = match resolve_in(&mut self.nets, &self.cache, &self.journal, net_id) {
            Ok(state) => state,
            Err(code) => {
                self.metrics.inc_error(code);
                encode_error_into(out, code, "");
                return FrameEffects::default();
            }
        };
        // Refuse the whole report before anything is journaled: degraded
        // routing names nodes by `u32` rank, so it serves k ≤ 12, and
        // every id must name a node of this network.
        let k = state.plan.degree_k();
        let nodes = factorial(k);
        let names_nodes = |ev: &ChaosEvent| {
            let (u, v) = ev.wire_args();
            u64::from(u) < nodes && u64::from(v) < nodes
        };
        let refusal = if k > MAX_FAULT_DEGREE {
            Some((
                ErrCode::TooLarge,
                "network too large for fault-aware routing",
            ))
        } else if !events.iter().all(names_nodes) {
            Some((ErrCode::Malformed, "fault report names a node id >= k!"))
        } else {
            None
        };
        if let Some((code, why)) = refusal {
            self.metrics.inc_error(code);
            encode_error_into(out, code, why);
            return FrameEffects::default();
        }
        // Catch up on foreign events and publish ours under one lock so
        // no interleaving is lost, then apply both locally.
        let (foreign, len) = self.journal.append_and_drain(self.seen, net_id, events);
        self.seen = len;
        for (fid, ev) in foreign {
            if let Some(fstate) = self.nets.get_mut(&fid) {
                ev.apply(&mut fstate.faults);
            }
        }
        let state = self
            .nets
            .get_mut(&net_id)
            // scg-allow(SCG001): resolve_in above inserted the entry; absence is unreachable
            .expect("net state resolved above");
        let mut applied = 0u32;
        for ev in events {
            if ev.apply(&mut state.faults) {
                applied += 1;
            }
        }
        self.metrics.fault_events.add(u64::from(applied));
        let at = begin_frame(out, FrameType::FaultOk);
        out.extend_from_slice(&applied.to_le_bytes());
        out.extend_from_slice(&state.faults.epoch().to_le_bytes());
        end_frame(out, at);
        FrameEffects {
            journal_grew: !events.is_empty(),
        }
    }
}

fn elapsed_micros(started: &Instant) -> u64 {
    // A histogram sample: saturate rather than fail on a clock anomaly.
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Network-state lookup/insert over split borrows (callers hold
/// `&cache`/`&journal` and `&mut nets` simultaneously, which a `&mut
/// self` method could not express).
fn resolve_in<'a>(
    nets: &'a mut HashMap<NetId, NetState>,
    cache: &TopologyCache,
    journal: &FaultJournal,
    id: NetId,
) -> Result<&'a mut NetState, ErrCode> {
    match nets.entry(id) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let plan = cache
                .route_plan(&id.to_net()?)
                .map_err(|_| ErrCode::BadNetwork)?;
            let mut faults = FaultSet::new();
            // Catch up on every fault this network accumulated before this
            // shard first saw it (reports may have landed on other shards).
            let (all, _len) = journal.drain_since(0);
            for (net_id, ev) in all {
                if net_id == id {
                    ev.apply(&mut faults);
                }
            }
            let mut star_wire = Vec::new();
            let mut star_wire_at = vec![0];
            for j in 2..=plan.degree_k() {
                for &g in plan.star_link(j).map_err(|_| ErrCode::BadNetwork)? {
                    push_generator(&mut star_wire, g);
                }
                star_wire_at.push(star_wire.len());
            }
            Ok(e.insert(NetState {
                plan,
                faults,
                scratch: FaultScratch::new(),
                batch_out: Vec::new(),
                star_wire,
                star_wire_at,
            }))
        }
    }
}

fn map_core_err(e: CoreError) -> ErrCode {
    match e {
        CoreError::DegreeMismatch { .. } => ErrCode::DegreeMismatch,
        CoreError::NoRoute => ErrCode::NoRoute,
        CoreError::TooLarge { .. } => ErrCode::TooLarge,
        _ => ErrCode::BadNetwork,
    }
}

/// The server-side streaming twin of the wire module's generator codec
/// (encodes straight into the connection's reply buffer without building
/// a [`crate::wire::Reply`]).
fn push_generator(out: &mut Vec<u8>, g: Generator) {
    let (tag, a, b) = match g {
        Generator::Transposition { i } => (0, i, 0),
        Generator::Exchange { i, j } => (1, i, j),
        Generator::Insertion { i } => (2, i, 0),
        Generator::Selection { i } => (3, i, 0),
        Generator::Swap { n, i } => (4, n, i),
        Generator::Rotation { n, i } => (5, n, i),
    };
    out.extend_from_slice(&[tag, a, b]);
}

#[cfg(feature = "obs")]
fn mirror_request(kind: &'static str) {
    scg_obs::Registry::global()
        .counter("scg_serve_requests_total", &[("kind", kind)])
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_request, peek_frame, FrameStatus, Reply, WIRE_VERSION};
    use scg_core::{apply_path, CayleyNetwork, ScgClass};

    fn ms22() -> NetId {
        NetId {
            class: ScgClass::MacroStar,
            levels: 2,
            box_size: 2,
        }
    }

    fn shard() -> ShardCore {
        ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()))
    }

    /// Feeds one encoded request frame through `handle_frame` and decodes
    /// the single reply frame it produces.
    fn exchange(core: &mut ShardCore, req: &Request) -> Reply {
        let frame = encode_request(req);
        let mut out = Vec::new();
        match peek_frame(&frame) {
            FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } => {
                let _fx = core.handle_frame(ver, ftype, &frame[start..end], &mut out);
            }
            other => panic!("request did not frame: {other:?}"),
        }
        match peek_frame(&out) {
            FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } => {
                let reply =
                    crate::wire::decode_reply(ver, ftype, &out[start..end]).expect("reply decodes");
                assert_eq!(end, out.len(), "exactly one reply frame");
                reply
            }
            other => panic!("reply did not frame: {other:?}"),
        }
    }

    #[test]
    fn journal_append_and_drain_interleaves() {
        let j = FaultJournal::new();
        assert!(j.is_empty());
        let ev = ChaosEvent::from_wire(0, 3, 0).expect("fail-node event");
        // Shard A publishes two events.
        let (foreign, cur_a) = j.append_and_drain(0, ms22(), &[ev, ev]);
        assert!(foreign.is_empty());
        assert_eq!(cur_a, 2);
        assert_eq!(j.len(), 2);
        // Shard B appends one and picks up A's two in the same lock hold.
        let (foreign, cur_b) = j.append_and_drain(0, ms22(), &[ev]);
        assert_eq!(foreign.len(), 2);
        assert_eq!(cur_b, 3);
        // A catches up on B's tail only.
        let (tail, cur) = j.drain_since(cur_a);
        assert_eq!(tail.len(), 1);
        assert_eq!(cur, 3);
    }

    #[test]
    fn route_and_batch_replies_reach_destination() {
        let mut core = shard();
        let net = ms22().to_net().expect("MS(2,2) constructs");
        let k = net.degree_k();
        let from = Perm::identity(k);
        let rev: Vec<u8> = (1..=k as u8).rev().collect();
        let to = Perm::from_symbols(&rev).expect("reversal is a permutation");
        let reply = exchange(
            &mut core,
            &Request::Route {
                net: ms22(),
                from,
                to,
            },
        );
        match reply {
            Reply::RouteOk { flags, hops } => {
                assert_eq!(flags, 0, "clean network routes without detours");
                assert_eq!(apply_path(&from, &hops).expect("hops apply"), to);
            }
            other => panic!("expected RouteOk, got {other:?}"),
        }
        let pairs = vec![(from, to), (to, from)];
        let reply = exchange(
            &mut core,
            &Request::RouteBatch {
                net: ms22(),
                pairs: pairs.clone(),
            },
        );
        match reply {
            Reply::RouteBatchOk(items) => {
                assert_eq!(items.len(), 2);
                for (item, (f, t)) in items.iter().zip(&pairs) {
                    assert_eq!(item.status, 0);
                    assert_eq!(apply_path(f, &item.hops).expect("hops apply"), *t);
                }
            }
            other => panic!("expected RouteBatchOk, got {other:?}"),
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn clean_routes_mirror_into_the_global_registry() {
        let global =
            scg_obs::Registry::global().counter("scg_serve_requests_total", &[("kind", "route")]);
        let before = global.get();
        let mut core = shard();
        // The first route resolves the network on the decoded path; the
        // other 19 are answered wire to wire, and must be mirrored too.
        for _ in 0..20 {
            let req = Request::Route {
                net: ms22(),
                from: Perm::identity(5),
                to: Perm::from_rank(5, 77).expect("rank in range"),
            };
            assert!(matches!(exchange(&mut core, &req), Reply::RouteOk { .. }));
        }
        assert!(global.get() - before >= 20);
    }

    #[test]
    fn routes_above_the_packed_degree_get_typed_error_frames() {
        // IS(17) resolves and compiles a plan, but routing a pair needs
        // k <= 16: ROUTE and ROUTE_BATCH are both answered with a typed
        // error frame, not a panic or a dropped connection.
        let mut core = shard();
        let is17 = NetId {
            class: ScgClass::InsertionSelection,
            levels: 1,
            box_size: 16,
        };
        let from = Perm::identity(17);
        let to = Perm::from_rank(17, 12_345).expect("rank in range");
        for req in [
            Request::Route {
                net: is17,
                from,
                to,
            },
            Request::RouteBatch {
                net: is17,
                pairs: vec![(from, to), (to, from)],
            },
        ] {
            match exchange(&mut core, &req) {
                Reply::Error { code, .. } => assert_eq!(code, ErrCode::BadNetwork),
                other => panic!("expected an Error reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_and_unknown_frames_get_typed_errors() {
        let mut core = shard();
        let mut out = Vec::new();
        // Bad version.
        let _fx = core.handle_frame(99, 0x01, &[], &mut out);
        // Unknown type.
        let _fx = core.handle_frame(WIRE_VERSION, 0x77, &[], &mut out);
        // Truncated ROUTE payload.
        let _fx = core.handle_frame(WIRE_VERSION, 0x01, &[0, 2], &mut out);
        let mut codes = Vec::new();
        let mut rest: &[u8] = &out;
        while let FrameStatus::Frame {
            ver,
            ftype,
            start,
            end,
        } = peek_frame(rest)
        {
            match crate::wire::decode_reply(ver, ftype, &rest[start..end]) {
                Ok(Reply::Error { code, .. }) => codes.push(code),
                other => panic!("expected Error reply, got {other:?}"),
            }
            rest = &rest[end..];
        }
        assert_eq!(
            codes,
            vec![
                ErrCode::BadVersion,
                ErrCode::BadFrameType,
                ErrCode::Malformed
            ]
        );
    }

    #[test]
    fn fault_reports_propagate_between_shards() {
        let journal = Arc::new(FaultJournal::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut a = ShardCore::new(Arc::clone(&metrics), Arc::clone(&journal));
        let mut b = ShardCore::new(Arc::clone(&metrics), Arc::clone(&journal));
        let ev = ChaosEvent::from_wire(0, 1, 0).expect("fail-node event");
        let req = Request::FaultReport {
            net: ms22(),
            events: vec![ev],
        };
        match exchange(&mut a, &req) {
            Reply::FaultOk { applied, epoch } => {
                assert_eq!(applied, 1);
                assert!(epoch > 0);
            }
            other => panic!("expected FaultOk, got {other:?}"),
        }
        // B reports the same event: resolve_in replays the journal, so the
        // duplicate changes nothing (applied == 0) — proof B saw A's fault.
        match exchange(&mut b, &req) {
            Reply::FaultOk { applied, .. } => assert_eq!(applied, 0),
            other => panic!("expected FaultOk, got {other:?}"),
        }
        // A's idle-loop sync of B's duplicate event is a no-op.
        a.sync_faults();
        // A degraded batch on B still delivers or refuses per item — never
        // panics, and the reply stays well-formed.
        let net = ms22().to_net().expect("MS(2,2) constructs");
        let k = net.degree_k();
        let rev: Vec<u8> = (1..=k as u8).rev().collect();
        let pairs = vec![(
            Perm::identity(k),
            Perm::from_symbols(&rev).expect("reversal is a permutation"),
        )];
        match exchange(&mut b, &Request::RouteBatch { net: ms22(), pairs }) {
            Reply::RouteBatchOk(items) => {
                assert_eq!(items.len(), 1);
                assert!(items[0].status == 0 || items[0].status == ErrCode::NoRoute as u8);
            }
            other => panic!("expected RouteBatchOk, got {other:?}"),
        }
    }

    #[test]
    fn metrics_request_serves_local_registry() {
        let mut core = shard();
        match exchange(&mut core, &Request::Metrics { json: false }) {
            Reply::MetricsOk(body) => {
                assert!(body.contains("scg_serve_requests_total"));
                assert!(body.contains("scg_serve_slo_route_p99_target_micros"));
            }
            other => panic!("expected MetricsOk, got {other:?}"),
        }
        match exchange(&mut core, &Request::Metrics { json: true }) {
            Reply::MetricsOk(body) => assert!(body.trim_start().starts_with('{')),
            other => panic!("expected MetricsOk, got {other:?}"),
        }
    }
}
