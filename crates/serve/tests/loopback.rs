//! Integration tests for the serving stack: seeded wire-protocol round
//! trips over every frame type, adversarial framing (truncation,
//! oversize, garbage — typed errors, never panics), and a live daemon
//! driven over its loopback Unix-domain and TCP listeners.

use scg_core::{apply_path, route_plan, CayleyNetwork, ScgClass};
use scg_graph::ChaosEvent;
use scg_perm::{Perm, XorShift64};
use scg_serve::wire::{
    decode_reply, decode_request, encode_reply, encode_request, peek_frame, BatchItem, ErrCode,
    FrameStatus, FrameType, MAX_FRAME_LEN,
};
use scg_serve::{spawn, Client, Config, NetId, Reply, Request};

fn test_sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("scg-loopback-{tag}-{}.sock", std::process::id()))
}

fn ms22() -> NetId {
    NetId {
        class: ScgClass::MacroStar,
        levels: 2,
        box_size: 2,
    }
}

fn seeded_requests(seed: u64) -> Vec<Request> {
    let mut rng = XorShift64::new(seed);
    let net = ms22();
    let k = 5;
    let mut perm = |k: usize| Perm::random(k, &mut rng);
    vec![
        Request::Route {
            net,
            from: perm(k),
            to: perm(k),
        },
        Request::RouteBatch {
            net,
            pairs: (0..17).map(|_| (perm(k), perm(k))).collect(),
        },
        Request::FaultReport {
            net,
            events: vec![
                ChaosEvent::FailNode(7),
                ChaosEvent::RepairNode(7),
                ChaosEvent::FailLinkUndirected(1, 2),
                ChaosEvent::RepairLinkUndirected(1, 2),
            ],
        },
        Request::Metrics { json: false },
        Request::Metrics { json: true },
    ]
}

fn seeded_replies(seed: u64) -> Vec<Reply> {
    let mut rng = XorShift64::new(seed);
    let hops = route_plan(&ms22().to_net().expect("net"))
        .expect("plan")
        .route(&Perm::random(5, &mut rng), &Perm::identity(5))
        .expect("route");
    vec![
        Reply::RouteOk {
            flags: 1,
            hops: hops.clone(),
        },
        Reply::RouteBatchOk(vec![
            BatchItem {
                status: 0,
                flags: 2,
                hops,
            },
            BatchItem {
                status: ErrCode::NoRoute as u16 as u8,
                flags: 0,
                hops: Vec::new(),
            },
        ]),
        Reply::FaultOk {
            applied: 3,
            epoch: 42,
        },
        Reply::MetricsOk("scg_serve_routes_total 9\n".to_string()),
        Reply::Error {
            code: ErrCode::Malformed,
            detail: "because".to_string(),
        },
    ]
}

/// Every request and reply frame type survives encode → frame → decode
/// byte-for-byte, across seeds.
#[test]
fn every_frame_type_round_trips_seeded() {
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0001, u64::MAX / 7] {
        for req in seeded_requests(seed) {
            let bytes = encode_request(&req);
            let FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } = peek_frame(&bytes)
            else {
                panic!("encoded request did not frame: {req:?}");
            };
            assert_eq!(end, bytes.len(), "trailing bytes after {req:?}");
            let back = decode_request(ver, ftype, &bytes[start..end]).expect("decodes");
            assert_eq!(back, req);
        }
        for reply in seeded_replies(seed) {
            let bytes = encode_reply(&reply);
            let FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } = peek_frame(&bytes)
            else {
                panic!("encoded reply did not frame: {reply:?}");
            };
            assert_eq!(end, bytes.len(), "trailing bytes after {reply:?}");
            let back = decode_reply(ver, ftype, &bytes[start..end]).expect("decodes");
            assert_eq!(back, reply);
        }
    }
}

/// Truncating a valid frame at every boundary either asks for more bytes
/// or decodes to a typed error — never a panic, never a bogus success.
#[test]
fn truncated_frames_are_typed_errors_or_incomplete() {
    for req in seeded_requests(0xACED) {
        let bytes = encode_request(&req);
        for cut in 0..bytes.len() {
            match peek_frame(&bytes[..cut]) {
                FrameStatus::NeedMore => {}
                FrameStatus::Frame { .. } => {
                    panic!("truncation to {cut} bytes framed anyway for {req:?}")
                }
                FrameStatus::BadLength(_) | FrameStatus::Http => {
                    panic!("truncation to {cut} bytes misclassified for {req:?}")
                }
            }
            // Feeding the truncated payload straight to the decoder (as
            // if the length prefix had lied) must stay total.
            if cut > 6 {
                let _ignored = decode_request(bytes[4], bytes[5], &bytes[6..cut]);
            }
        }
    }
}

/// Oversized and garbage length prefixes are rejected before any payload
/// is buffered; random byte soup never panics the decoders.
#[test]
fn oversized_and_garbage_frames_never_panic() {
    // Length prefix beyond the frame cap.
    let mut oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[1, 1]);
    assert!(matches!(
        peek_frame(&oversized),
        FrameStatus::BadLength(l) if l == MAX_FRAME_LEN + 1
    ));
    // Length too short to hold even the version and type bytes.
    let mut runt = 1u32.to_le_bytes().to_vec();
    runt.extend_from_slice(&[1, 1]);
    assert!(matches!(peek_frame(&runt), FrameStatus::BadLength(1)));
    // Seeded byte soup through every decoder entry point.
    let mut rng = XorShift64::new(0xF00D);
    for _ in 0..2000 {
        let len = (rng.gen_range(64)) + 1;
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
        match peek_frame(&soup) {
            FrameStatus::Frame {
                ver, ftype, start, ..
            } => {
                let _ignored = decode_request(ver, ftype, &soup[start..]);
                let _ignored = decode_reply(ver, ftype, &soup[start..]);
            }
            FrameStatus::NeedMore | FrameStatus::BadLength(_) | FrameStatus::Http => {}
        }
    }
    // Bad version and bad frame type come back as the right codes.
    let mut bad_ver = encode_request(&Request::Metrics { json: false });
    bad_ver[4] = 9;
    let FrameStatus::Frame {
        ver, ftype, start, ..
    } = peek_frame(&bad_ver)
    else {
        panic!("framed")
    };
    assert_eq!(
        decode_request(ver, ftype, &bad_ver[start..]),
        Err(ErrCode::BadVersion)
    );
    let mut bad_type = encode_request(&Request::Metrics { json: false });
    bad_type[5] = 0x77;
    let FrameStatus::Frame {
        ver, ftype, start, ..
    } = peek_frame(&bad_type)
    else {
        panic!("framed")
    };
    assert_eq!(
        decode_request(ver, ftype, &bad_type[start..]),
        Err(ErrCode::BadFrameType)
    );
}

/// One daemon, the whole protocol: route parity with the in-process
/// router, batches, live faults with detours and refusals, typed errors
/// on a surviving connection, metrics on both expositions, and a TCP
/// leg returning byte-identical routes to the UDS leg.
#[test]
fn daemon_serves_full_protocol_over_loopback() {
    let sock = test_sock("full");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: true,
        shards: 2,
    })
    .expect("spawn");
    let net_id = ms22();
    let net = net_id.to_net().expect("net");
    let k = net.degree_k();
    let mut rng = XorShift64::new(0xD157);
    let mut client = Client::connect_uds(&sock).expect("connect uds");

    // Single routes match the in-process router's delivery guarantee.
    for _ in 0..16 {
        let (from, to) = (Perm::random(k, &mut rng), Perm::random(k, &mut rng));
        let reply = client
            .request(&Request::Route {
                net: net_id,
                from,
                to,
            })
            .expect("route");
        let Reply::RouteOk { flags, hops } = reply else {
            panic!("expected RouteOk, got {reply:?}");
        };
        assert_eq!(flags, 0, "clean path must not set degraded flags");
        assert_eq!(apply_path(&from, &hops).expect("apply"), to);
        let direct = route_plan(&net)
            .expect("plan")
            .route(&from, &to)
            .expect("route");
        assert_eq!(hops, direct, "daemon route differs from the plan's route");
    }

    // Batches deliver every pair; sustained traffic does not stall.
    for round in 0..50 {
        let pairs: Vec<(Perm, Perm)> = (0..64)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        let reply = client
            .request(&Request::RouteBatch {
                net: net_id,
                pairs: pairs.clone(),
            })
            .expect("batch");
        let Reply::RouteBatchOk(items) = reply else {
            panic!("round {round}: expected RouteBatchOk, got {reply:?}");
        };
        assert_eq!(items.len(), pairs.len());
        for (item, (from, to)) in items.iter().zip(&pairs) {
            assert_eq!(item.status, 0);
            assert_eq!(apply_path(from, &item.hops).expect("apply"), *to);
        }
    }

    // A typed error leaves the connection usable.
    let mut unknown = encode_request(&Request::Metrics { json: false });
    unknown[5] = 0x66;
    client.send_raw(&unknown).expect("send raw");
    match client.recv().expect("error reply") {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::BadFrameType),
        other => panic!("expected Error, got {other:?}"),
    }
    let text = client.metrics(false).expect("metrics after error");
    assert!(text.contains("scg_serve_errors_total{code=\"bad_frame_type\"} 1"));
    assert!(text.contains("scg_serve_slo_route_p99_target_micros 5000"));
    let json = client.metrics(true).expect("metrics json");
    let snap = scg_obs::Snapshot::from_json(&json).expect("snapshot parses");
    assert!(snap.quantile("scg_serve_route_micros", 500).is_some());

    // Live faults: killing a destination's node forces refusal; other
    // destinations keep routing (possibly detoured / via fallback).
    let victim = Perm::random(k, &mut rng);
    let mat = scg_core::materialize(&net, scg_core::SMALL_NET_CAP).expect("materialize");
    let victim_node = mat.node_id(&victim).expect("node id");
    match client
        .request(&Request::FaultReport {
            net: net_id,
            events: vec![ChaosEvent::FailNode(victim_node)],
        })
        .expect("fault report")
    {
        Reply::FaultOk { applied, epoch } => {
            assert_eq!(applied, 1);
            assert!(epoch > 0);
        }
        other => panic!("expected FaultOk, got {other:?}"),
    }
    let from = Perm::identity(k);
    match client
        .request(&Request::Route {
            net: net_id,
            from,
            to: victim,
        })
        .expect("route to victim")
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::NoRoute),
        other => panic!("expected NoRoute for a dead destination, got {other:?}"),
    }
    // Fault state is shared across shards: a second connection (pinned
    // round-robin to the other shard) sees the same refusal.
    let mut other_client = Client::connect_uds(&sock).expect("connect 2");
    match other_client
        .request(&Request::Route {
            net: net_id,
            from,
            to: victim,
        })
        .expect("route on other shard")
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::NoRoute),
        other => panic!("expected NoRoute on second shard, got {other:?}"),
    }
    // Non-victim destinations still deliver.
    let mut delivered = 0;
    for _ in 0..32 {
        let to = Perm::random(k, &mut rng);
        if to == victim {
            continue;
        }
        match client
            .request(&Request::Route {
                net: net_id,
                from,
                to,
            })
            .expect("degraded route")
        {
            Reply::RouteOk { hops, .. } => {
                assert_eq!(apply_path(&from, &hops).expect("apply"), to);
                delivered += 1;
            }
            Reply::Error { code, .. } => assert_eq!(code, ErrCode::NoRoute),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(delivered >= 24, "only {delivered}/32 delivered degraded");

    // Repair restores the clean path on both shards.
    client
        .request(&Request::FaultReport {
            net: net_id,
            events: vec![ChaosEvent::RepairNode(victim_node)],
        })
        .expect("repair");
    for c in [&mut client, &mut other_client] {
        match c
            .request(&Request::Route {
                net: net_id,
                from,
                to: victim,
            })
            .expect("post-repair route")
        {
            Reply::RouteOk { hops, .. } => {
                assert_eq!(apply_path(&from, &hops).expect("apply"), victim);
            }
            other => panic!("expected RouteOk after repair, got {other:?}"),
        }
    }

    // TCP returns byte-identical route replies to UDS.
    let addr = server.tcp_addr().expect("tcp enabled");
    let mut tcp = Client::connect_tcp(addr).expect("connect tcp");
    let (from, to) = (Perm::random(k, &mut rng), Perm::random(k, &mut rng));
    let req = Request::Route {
        net: net_id,
        from,
        to,
    };
    let via_uds = client.request(&req).expect("uds");
    let via_tcp = tcp.request(&req).expect("tcp");
    assert_eq!(
        encode_reply(&via_uds),
        encode_reply(&via_tcp),
        "UDS and TCP replies differ"
    );

    server.shutdown();
    assert!(!sock.exists(), "socket not unlinked on shutdown");
}

/// A `FAULT_REPORT` naming any node id `>= k!` is refused whole as
/// `Malformed`: none of its events is applied, not even the valid ones.
#[test]
fn fault_reports_naming_no_node_are_refused_whole() {
    let sock = test_sock("badid");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    let mut client = Client::connect_uds(&sock).expect("connect");
    // MS(2,2) has 5! = 120 nodes: ids 0..120.
    for events in [
        vec![ChaosEvent::FailNode(3), ChaosEvent::FailNode(120)],
        vec![ChaosEvent::FailLink(3, u32::MAX)],
    ] {
        match client
            .request(&Request::FaultReport {
                net: ms22(),
                events,
            })
            .expect("fault report")
        {
            Reply::Error { code, .. } => assert_eq!(code, ErrCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // Node 3 was not failed: the route to it is clean.
    let (from, to) = (Perm::identity(5), Perm::from_rank(5, 3).expect("rank"));
    match client
        .request(&Request::Route {
            net: ms22(),
            from,
            to,
        })
        .expect("route")
    {
        Reply::RouteOk { flags, hops } => {
            assert_eq!(flags, 0);
            assert_eq!(apply_path(&from, &hops).expect("apply"), to);
        }
        other => panic!("expected a clean RouteOk, got {other:?}"),
    }
    assert!(client
        .metrics(false)
        .expect("metrics")
        .contains("scg_serve_errors_total{code=\"malformed\"} 2"));
    server.shutdown();
}

/// Degraded routing names nodes by `u32` rank, so fault reports are
/// served up to k = 12 (no materialization) and refused as `TooLarge`
/// from k = 13.
#[test]
fn fault_reports_are_served_to_k12_and_refused_above() {
    let sock = test_sock("toolarge");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    let mut client = Client::connect_uds(&sock).expect("connect");
    let is = |k: u8| NetId {
        class: ScgClass::InsertionSelection,
        levels: 1,
        box_size: k - 1,
    };
    match client
        .request(&Request::FaultReport {
            net: is(13),
            events: vec![ChaosEvent::FailNode(0)],
        })
        .expect("k = 13 report")
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::TooLarge),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // At k = 12, fail the first node of a clean route; the daemon detours.
    let mut rng = XorShift64::new(0x12);
    let (from, to) = (Perm::random(12, &mut rng), Perm::random(12, &mut rng));
    let clean = route_plan(&is(12).to_net().expect("net"))
        .expect("plan")
        .route(&from, &to)
        .expect("route");
    let first = clean[0].apply(&from).expect("apply");
    let node = u32::try_from(first.rank()).expect("12! fits u32");
    match client
        .request(&Request::FaultReport {
            net: is(12),
            events: vec![ChaosEvent::FailNode(node)],
        })
        .expect("k = 12 report")
    {
        Reply::FaultOk { applied, .. } => assert_eq!(applied, 1),
        other => panic!("expected FaultOk, got {other:?}"),
    }
    match client
        .request(&Request::Route {
            net: is(12),
            from,
            to,
        })
        .expect("degraded route")
    {
        Reply::RouteOk { flags, hops } => {
            assert_ne!(flags, 0, "the route must report its detour");
            assert_eq!(apply_path(&from, &hops).expect("apply"), to);
        }
        other => panic!("expected RouteOk, got {other:?}"),
    }
    server.shutdown();
}

/// A destination cut off on IS(12) — its every neighbour failed — would
/// send the survivor search over the whole 12!-node component. The search
/// stops after a million reached nodes, so the daemon answers `TooLarge`
/// in bounded time and memory and keeps serving.
#[test]
fn a_cut_off_destination_at_k12_is_refused_in_bounded_time() {
    let sock = test_sock("cutoff");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    let mut client = Client::connect_uds(&sock).expect("connect");
    let net = NetId {
        class: ScgClass::InsertionSelection,
        levels: 1,
        box_size: 11,
    };
    let mut rng = XorShift64::new(0xC0);
    let (from, to) = (Perm::random(12, &mut rng), Perm::random(12, &mut rng));
    let rank = |p: &Perm| u32::try_from(p.rank()).expect("12! fits u32");
    let events = net
        .to_net()
        .expect("net")
        .generators()
        .iter()
        .map(|g| ChaosEvent::FailNode(rank(&g.apply(&to).expect("apply"))))
        .collect();
    match client
        .request(&Request::FaultReport { net, events })
        .expect("report")
    {
        Reply::FaultOk { applied, .. } => assert!(applied > 0),
        other => panic!("expected FaultOk, got {other:?}"),
    }
    let started = std::time::Instant::now();
    match client
        .request(&Request::Route { net, from, to })
        .expect("route to a cut-off node")
    {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::TooLarge),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took.as_secs() < 60, "bounded search took {took:?}");
    // The shard is free again: a route that avoids the faults is served.
    match client
        .request(&Request::Route {
            net,
            from,
            to: from,
        })
        .expect("trivial route")
    {
        Reply::RouteOk { hops, .. } => assert!(hops.is_empty()),
        other => panic!("expected RouteOk, got {other:?}"),
    }
    server.shutdown();
}

/// A batch mixing degrees is refused as one typed frame error, and an
/// empty-batch encoding attempt is rejected by the decoder.
#[test]
fn degree_mismatch_batches_get_one_typed_error() {
    let sock = test_sock("mismatch");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    let mut client = Client::connect_uds(&sock).expect("connect");
    // MS(2,2) has degree k = 5; send k = 7 labels.
    let reply = client
        .request(&Request::RouteBatch {
            net: ms22(),
            pairs: vec![(Perm::identity(7), Perm::identity(7))],
        })
        .expect("send");
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, ErrCode::DegreeMismatch),
        other => panic!("expected DegreeMismatch, got {other:?}"),
    }
    // The connection survives the refusal.
    assert!(client
        .metrics(false)
        .expect("metrics")
        .contains("scg_serve"));
    server.shutdown();
}

/// `FrameType::from_u8` and `ErrCode::from_u16` agree with the frame
/// constants used on the wire.
#[test]
fn frame_type_and_err_code_tables_are_stable() {
    for (b, t) in [
        (0x01, FrameType::Route),
        (0x02, FrameType::RouteBatch),
        (0x03, FrameType::FaultReport),
        (0x04, FrameType::Metrics),
        (0x81, FrameType::RouteOk),
        (0x82, FrameType::RouteBatchOk),
        (0x83, FrameType::FaultOk),
        (0x84, FrameType::MetricsOk),
        (0xFF, FrameType::Error),
    ] {
        assert_eq!(FrameType::from_u8(b), Some(t));
    }
    assert_eq!(FrameType::from_u8(0x05), None);
    for code in [
        ErrCode::BadVersion,
        ErrCode::BadFrameType,
        ErrCode::Malformed,
        ErrCode::FrameTooLarge,
        ErrCode::BadNetwork,
        ErrCode::DegreeMismatch,
        ErrCode::NoRoute,
        ErrCode::TooLarge,
        ErrCode::BadCount,
    ] {
        assert_eq!(ErrCode::from_u16(code as u16), Some(code));
        assert!(!code.as_str().is_empty());
    }
}

/// The reply bytes the daemon owes a clean ROUTE: the in-process
/// router's hops, encoded.
fn clean_route_reply(net: NetId, from: &Perm, to: &Perm) -> Vec<u8> {
    let hops = route_plan(&net.to_net().expect("net"))
        .expect("plan")
        .route(from, to)
        .expect("route");
    encode_reply(&Reply::RouteOk { flags: 0, hops })
}

/// Reads exactly one frame off a blocking stream, header included.
fn read_frame(s: &mut impl std::io::Read) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    s.read_exact(&mut frame).expect("length field");
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    s.read_exact(&mut frame[4..]).expect("frame body");
    frame
}

/// Seeded ROUTE frames on MS(2,2) with the replies they are owed.
fn route_exchanges(seed: u64, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| {
            let (from, to) = (Perm::random(5, &mut rng), Perm::random(5, &mut rng));
            let req = Request::Route {
                net: ms22(),
                from,
                to,
            };
            (encode_request(&req), clean_route_reply(ms22(), &from, &to))
        })
        .collect()
}

/// Frames that arrive together are all answered, in order; a frame that
/// arrives in two pieces, split at any byte, is answered once whole.
#[test]
fn pipelined_and_split_route_frames_are_answered_in_order() {
    use std::io::{Read, Write};
    let sock = test_sock("pipeline");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    let mut s = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let batch = route_exchanges(0x32, 32);
    let burst: Vec<u8> = batch.iter().flat_map(|(req, _)| req.clone()).collect();
    s.write_all(&burst).expect("send 32 frames at once");
    for (i, (_, reply)) in batch.iter().enumerate() {
        assert_eq!(&read_frame(&mut s), reply, "reply {i} of the burst");
    }
    let (req, reply) = &route_exchanges(0x5B, 1)[0];
    for cut in 1..req.len() {
        s.write_all(&req[..cut]).expect("first piece");
        // Give the daemon time to read the piece on its own.
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.write_all(&req[cut..]).expect("second piece");
        assert_eq!(&read_frame(&mut s), reply, "frame split at byte {cut}");
    }
    s.set_nonblocking(true).expect("nonblocking");
    let mut extra = [0u8; 1];
    assert!(
        matches!(s.read(&mut extra), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the daemon sent more than one reply per frame"
    );
    server.shutdown();
}

/// A client that sends a frame and shuts down its write half gets the
/// reply, then EOF.
#[test]
fn a_half_closed_client_gets_its_reply_then_eof() {
    use std::io::{Read, Write};
    let sock = test_sock("halfclose");
    let server = spawn(Config {
        uds_path: sock.clone(),
        tcp: false,
        shards: 1,
    })
    .expect("spawn");
    for (req, reply) in route_exchanges(0x4A1F, 4) {
        let mut s = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        s.write_all(&req).expect("send");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("reply, then EOF");
        assert_eq!(got, reply);
    }
    server.shutdown();
}
