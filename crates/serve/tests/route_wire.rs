//! Differential test of the daemon's wire-to-wire ROUTE path: every reply
//! a [`ShardCore`] writes for a ROUTE frame must equal, byte for byte, the
//! reply of the decoded path frozen below — `decode_request`, then
//! `RoutePlan::route` on a fault-free network or `route_faulty` on a
//! faulty one, then the streaming reply encoder — and the shard's
//! counters must read what that path tallies. Clean routes cover all ten
//! classes at k = 5, MS(4,2) at k = 9 and IS(16); malformed frames cover
//! every way a payload can fail, on a shard that already holds the
//! network and on one that does not.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use scg_core::{
    route_faulty, route_plan, CayleyNetwork, CoreError, FaultScratch, Generator, ScgClass,
};
use scg_graph::{ChaosEvent, FaultSet};
use scg_obs::Histogram;
use scg_perm::{Perm, XorShift64};
use scg_serve::metrics::HOPS_BOUNDS;
use scg_serve::wire::{
    begin_frame, decode_request, encode_error_into, encode_request, end_frame, FrameType,
    FLAG_DETOURED, FLAG_FALLBACK, WIRE_VERSION,
};
use scg_serve::{ErrCode, FaultJournal, NetId, Request, ServeMetrics, ShardCore};

const ROUTE: u8 = FrameType::Route as u8;

const ALL_CODES: [ErrCode; 9] = [
    ErrCode::BadVersion,
    ErrCode::BadFrameType,
    ErrCode::Malformed,
    ErrCode::FrameTooLarge,
    ErrCode::BadNetwork,
    ErrCode::DegreeMismatch,
    ErrCode::NoRoute,
    ErrCode::TooLarge,
    ErrCode::BadCount,
];

/// What the daemon's route counters should read.
#[derive(Default)]
struct Tally {
    req_route: u64,
    routes: u64,
    refused: u64,
    detoured: u64,
    fallback: u64,
    hops: Vec<u64>,
    errors: BTreeMap<u16, u64>,
}

/// The decoded ROUTE path, frozen.
#[derive(Default)]
struct Reference {
    faults: HashMap<NetId, FaultSet>,
    scratch: FaultScratch,
    tally: Tally,
}

fn map_core_err(e: CoreError) -> ErrCode {
    match e {
        CoreError::DegreeMismatch { .. } => ErrCode::DegreeMismatch,
        CoreError::NoRoute => ErrCode::NoRoute,
        CoreError::TooLarge { .. } => ErrCode::TooLarge,
        _ => ErrCode::BadNetwork,
    }
}

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

impl Reference {
    fn error(&mut self, code: ErrCode) {
        *self.tally.errors.entry(code as u16).or_default() += 1;
    }

    fn route(
        &mut self,
        id: NetId,
        from: &Perm,
        to: &Perm,
    ) -> Result<(u8, Vec<Generator>), ErrCode> {
        let plan = route_plan(&id.to_net()?).map_err(|_| ErrCode::BadNetwork)?;
        match self.faults.get(&id) {
            Some(faults) if !faults.is_empty() => {
                let routed = route_faulty(&plan, faults, from, to, &mut self.scratch)
                    .map_err(map_core_err)?;
                let mut flags = 0;
                if routed.detours > 0 {
                    flags |= FLAG_DETOURED;
                }
                if routed.fallback_used {
                    flags |= FLAG_FALLBACK;
                }
                Ok((flags, routed.hops))
            }
            _ => Ok((0, plan.route(from, to).map_err(map_core_err)?)),
        }
    }

    fn answer(&mut self, ver: u8, ftype: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let (net, from, to) = match decode_request(ver, ftype, payload) {
            Ok(Request::Route { net, from, to }) => (net, from, to),
            Ok(other) => panic!("not a ROUTE request: {other:?}"),
            Err(code) => {
                self.error(code);
                encode_error_into(&mut out, code, "request did not decode");
                return out;
            }
        };
        self.tally.req_route += 1;
        match self.route(net, &from, &to) {
            Ok((flags, hops)) => {
                self.tally.routes += 1;
                self.tally.hops.push(hops.len() as u64);
                if flags & FLAG_DETOURED != 0 {
                    self.tally.detoured += 1;
                }
                if flags & FLAG_FALLBACK != 0 {
                    self.tally.fallback += 1;
                }
                let at = begin_frame(&mut out, FrameType::RouteOk);
                out.push(flags);
                out.extend_from_slice(&(hops.len() as u16).to_le_bytes());
                for &g in &hops {
                    push_generator(&mut out, g);
                }
                end_frame(&mut out, at);
            }
            Err(code) => {
                if code == ErrCode::NoRoute {
                    self.tally.refused += 1;
                }
                self.error(code);
                encode_error_into(&mut out, code, "");
            }
        }
        out
    }
}

/// A shard and the frozen reference, fed the same frames.
struct Diff {
    shard: ShardCore,
    metrics: Arc<ServeMetrics>,
    reference: Reference,
    frames: usize,
}

impl Diff {
    fn new() -> Diff {
        let metrics = Arc::new(ServeMetrics::new());
        Diff {
            shard: ShardCore::new(Arc::clone(&metrics), Arc::new(FaultJournal::new())),
            metrics,
            reference: Reference::default(),
            frames: 0,
        }
    }

    fn check_frame(&mut self, ver: u8, ftype: u8, payload: &[u8], what: &str) {
        let mut got = Vec::new();
        let _fx = self.shard.handle_frame(ver, ftype, payload, &mut got);
        let want = self.reference.answer(ver, ftype, payload);
        assert_eq!(got, want, "{what}: payload {payload:?}");
        self.frames += 1;
    }

    fn check(&mut self, payload: &[u8], what: &str) {
        self.check_frame(WIRE_VERSION, ROUTE, payload, what);
    }

    fn check_route(&mut self, net: NetId, from: Perm, to: Perm) {
        let frame = encode_request(&Request::Route { net, from, to });
        self.check(&frame[6..], &format!("{net:?} {from} -> {to}"));
    }

    /// Applies fault events to both sides.
    fn report(&mut self, net: NetId, events: Vec<ChaosEvent>) {
        let faults = self.reference.faults.entry(net).or_default();
        for ev in &events {
            ev.apply(faults);
        }
        let frame = encode_request(&Request::FaultReport { net, events });
        let mut out = Vec::new();
        let _fx = self.shard.handle_frame(
            WIRE_VERSION,
            FrameType::FaultReport as u8,
            &frame[6..],
            &mut out,
        );
        assert_eq!(out[5], FrameType::FaultOk as u8, "fault report refused");
    }

    /// The shard's route counters equal the reference's tally.
    fn check_counters(&self) {
        let m = &self.metrics;
        let t = &self.reference.tally;
        assert!(self.frames > 0);
        assert_eq!(m.req_route.get(), t.req_route, "requests{{kind=route}}");
        assert_eq!(m.routes.get(), t.routes, "routes");
        assert_eq!(m.refused.get(), t.refused, "refused");
        assert_eq!(m.detoured.get(), t.detoured, "detoured");
        assert_eq!(m.fallback.get(), t.fallback, "fallback");
        assert_eq!(m.route_micros.count(), t.req_route, "route_micros count");
        let hops = Histogram::with_bounds(&HOPS_BOUNDS);
        for &h in &t.hops {
            hops.observe(h);
        }
        assert_eq!(m.hops.bucket_counts(), hops.bucket_counts(), "hop buckets");
        assert_eq!(m.hops.sum(), hops.sum(), "hop sum");
        for code in ALL_CODES {
            let got = m
                .registry()
                .counter("scg_serve_errors_total", &[("code", code.as_str())])
                .get();
            let want = t.errors.get(&(code as u16)).copied().unwrap_or(0);
            assert_eq!(got, want, "errors{{code={}}}", code.as_str());
        }
    }
}

fn net(class: ScgClass, levels: u8, box_size: u8) -> NetId {
    NetId {
        class,
        levels,
        box_size,
    }
}

fn ms22() -> NetId {
    net(ScgClass::MacroStar, 2, 2)
}

/// The ten classes at k = 5: `IS(5)` and every two-level class with
/// boxes of two.
fn k5_nets() -> Vec<NetId> {
    ScgClass::ALL
        .iter()
        .map(|&class| match class {
            ScgClass::InsertionSelection => net(class, 1, 4),
            _ => net(class, 2, 2),
        })
        .collect()
}

fn class_index(class: ScgClass) -> u8 {
    ScgClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class listed") as u8
}

/// A ROUTE payload from raw parts: descriptor, then each label with its
/// own length byte.
fn payload(desc: [u8; 3], from: &[u8], to: &[u8]) -> Vec<u8> {
    let mut p = desc.to_vec();
    p.push(from.len() as u8);
    p.extend_from_slice(from);
    p.push(to.len() as u8);
    p.extend_from_slice(to);
    p
}

fn desc(id: NetId) -> [u8; 3] {
    [class_index(id.class), id.levels, id.box_size]
}

#[test]
fn clean_routes_are_byte_identical_to_the_decoded_path() {
    let mut nets = k5_nets();
    nets.push(net(ScgClass::MacroStar, 4, 2));
    nets.push(net(ScgClass::InsertionSelection, 1, 15));
    let mut diff = Diff::new();
    let mut rng = XorShift64::new(0x5EED_2024);
    for id in nets {
        let k = id.to_net().expect("network constructs").degree_k();
        // The first frame resolves the network on the decoded path; the
        // rest go wire to wire.
        for _ in 0..96 {
            diff.check_route(id, Perm::random(k, &mut rng), Perm::random(k, &mut rng));
        }
        let u = Perm::random(k, &mut rng);
        diff.check_route(id, u, u);
        diff.check_route(id, Perm::identity(k), u);
    }
    diff.check_counters();
}

#[test]
fn malformed_route_frames_get_the_decoded_paths_errors() {
    let id = ms22();
    let good: Vec<u8> = vec![3, 1, 5, 2, 4];
    let ident: Vec<u8> = vec![1, 2, 3, 4, 5];
    let mut bad_labels: Vec<(Vec<u8>, &str)> = vec![
        (vec![0, 1, 2, 3, 4], "symbol 0"),
        (vec![1, 2, 3, 4, 6], "symbol above k"),
        (vec![1, 2, 3, 4, 255], "symbol 255"),
        (vec![1, 2, 3, 3, 5], "repeated symbol"),
        (vec![], "empty label"),
    ];
    bad_labels.push(((1..=21).collect(), "degree above MAX_DEGREE"));
    let is17 = net(ScgClass::InsertionSelection, 1, 16);
    let id17: Vec<u8> = (1..=17).collect();
    let full = payload(desc(id), &good, &ident);
    let mut trailing = full.clone();
    trailing.push(0);

    // A fresh shard and one that already holds MS(2,2).
    for warm in [false, true] {
        let mut diff = Diff::new();
        if warm {
            diff.check(&full, "warm-up");
        }
        for (bad, what) in &bad_labels {
            diff.check(&payload(desc(id), bad, &ident), &format!("from: {what}"));
            diff.check(&payload(desc(id), &ident, bad), &format!("to: {what}"));
        }
        diff.check(&payload(desc(id), &good[..4], &ident), "from of degree 4");
        diff.check(&payload(desc(id), &ident, &good[..4]), "to of degree 4");
        diff.check(&payload(desc(id), &[1, 2, 3], &[1, 2, 3]), "both degree 3");
        let seven: Vec<u8> = (1..=7).rev().collect();
        diff.check(&payload(desc(id), &seven, &seven), "both degree 7");
        diff.check(&payload(desc(is17), &id17, &id17), "IS(17)");
        diff.check(&payload(desc(is17), &good, &ident), "IS(17), k = 5 labels");
        diff.check(&trailing, "trailing byte");
        for cut in 0..full.len() {
            diff.check(&full[..cut], &format!("truncated to {cut}"));
        }
        // The descriptor's class index is checked before the labels,
        // its parameters only after them.
        for (bad, what) in &bad_labels {
            for d in [[10, 2, 2], [255, 0, 0]] {
                diff.check(&payload(d, bad, &ident), &format!("bad class + {what}"));
            }
            let d = [class_index(ScgClass::MacroStar), 0, 0];
            diff.check(&payload(d, bad, &ident), &format!("MS(0,0) + {what}"));
        }
        diff.check(&payload([10, 2, 2], &good, &ident), "bad class");
        let d = [class_index(ScgClass::MacroStar), 0, 0];
        diff.check(&payload(d, &good, &ident), "MS(0,0)");
        diff.check(&payload(d, &[1], &[1]), "MS(0,0), k = 1 labels");
        // Other versions and types never take the ROUTE path.
        diff.check_frame(2, ROUTE, &full, "version 2");
        diff.check_frame(WIRE_VERSION, 0x81, &full, "ROUTE_OK as a request");
        diff.check(&full, "still served");
        diff.check_counters();
    }
}

#[test]
fn a_network_holding_faults_takes_the_degraded_path() {
    let id = ms22();
    let mut diff = Diff::new();
    let mut rng = XorShift64::new(0xFA17);
    let mut route_some = |diff: &mut Diff, n: usize| {
        for _ in 0..n {
            diff.check_route(id, Perm::random(5, &mut rng), Perm::random(5, &mut rng));
        }
    };
    route_some(&mut diff, 16);
    diff.report(
        id,
        vec![
            ChaosEvent::FailNode(7),
            ChaosEvent::FailNode(42),
            ChaosEvent::FailLinkUndirected(0, 1),
        ],
    );
    route_some(&mut diff, 256);
    let victim = Perm::from_rank(5, 42).expect("rank in range");
    diff.check_route(id, Perm::identity(5), victim);
    diff.report(
        id,
        vec![
            ChaosEvent::RepairNode(7),
            ChaosEvent::RepairNode(42),
            ChaosEvent::RepairLinkUndirected(0, 1),
        ],
    );
    route_some(&mut diff, 32);
    diff.check_route(id, Perm::identity(5), victim);
    diff.check_counters();
    assert!(diff.metrics.refused.get() > 0, "no pair was refused");
    assert!(diff.metrics.detoured.get() > 0, "no pair was detoured");
}
