//! The binary wire protocol: length-prefixed, versioned, little-endian.
//!
//! Every frame is
//!
//! ```text
//! [len: u32 LE][ver: u8][type: u8][payload: len − 2 bytes]
//! ```
//!
//! where `len` counts everything after the length field (so `len ≥ 2`) and
//! is capped at [`MAX_FRAME_LEN`] for inbound frames. Malformed input of
//! any shape — truncated, oversized, unknown version or type, garbage
//! payload — decodes to a typed [`ErrCode`], never a panic (the decoder is
//! total over arbitrary bytes; see `crates/serve/tests/wire.rs`).
//!
//! ## Frame types
//!
//! | code | frame | payload |
//! |------|-------|---------|
//! | 0x01 | `ROUTE` | net(3) · perm `from` · perm `to` |
//! | 0x02 | `ROUTE_BATCH` | net(3) · `count: u32` · `k: u8` · count × (k from-symbols · k to-symbols) |
//! | 0x03 | `FAULT_REPORT` | net(3) · `count: u32` · count × (`kind: u8` · `u: u32` · `v: u32`) |
//! | 0x04 | `METRICS` | empty, or `format: u8` (0 text, 1 JSON) |
//! | 0x81 | `ROUTE_OK` | `flags: u8` · `hop_count: u16` · hops × 3 |
//! | 0x82 | `ROUTE_BATCH_OK` | `count: u32` · count × (`status: u8` [· `flags: u8` · `hop_count: u16` · hops × 3]) |
//! | 0x83 | `FAULT_OK` | `applied: u32` · `epoch: u64` |
//! | 0x84 | `METRICS_OK` | UTF-8 body |
//! | 0xFF | `ERROR` | `code: u16` · UTF-8 detail |
//!
//! A *net descriptor* is 3 bytes: the [`ScgClass`] index into
//! [`ScgClass::ALL`], then `l`, then `n`. A *perm* is `k: u8` followed by
//! `k` 1-based symbol bytes. A *hop* is `tag · a · b` with tags
//! 0 `T_a`, 1 `T_{a,b}`, 2 `I_a`, 3 `I_a⁻¹`, 4 `S_{a,b}`, 5 `R^b_a`
//! (unused operands zero). Fault-event kinds are
//! [`ChaosEvent::kind_code`].

use scg_core::{Generator, ScgClass, SuperCayleyGraph};
use scg_graph::ChaosEvent;
use scg_perm::Perm;

/// Protocol version carried by every frame.
pub const WIRE_VERSION: u8 = 1;

/// Maximum accepted inbound frame body (`len` field value): 1 MiB.
/// Anything larger gets a [`ErrCode::FrameTooLarge`] reply and the
/// connection is closed (the stream offset can no longer be trusted).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Maximum pairs in one `ROUTE_BATCH` frame. At the maximum degree this
/// keeps request frames near 128 KiB and bounds the reply the server must
/// queue for one inbound frame.
pub const MAX_BATCH_PAIRS: u32 = 4096;

/// Bytes of framing before the payload: length field + version + type.
pub const HEADER_LEN: usize = 6;

/// Frame type codes (requests `0x01..`, replies `0x81..`, `0xFF` error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Single route request.
    Route = 0x01,
    /// Batched route request.
    RouteBatch = 0x02,
    /// Fault/repair event report.
    FaultReport = 0x03,
    /// Metrics scrape.
    Metrics = 0x04,
    /// Successful single route.
    RouteOk = 0x81,
    /// Successful batch.
    RouteBatchOk = 0x82,
    /// Fault report acknowledged.
    FaultOk = 0x83,
    /// Metrics payload.
    MetricsOk = 0x84,
    /// Typed error reply.
    Error = 0xFF,
}

impl FrameType {
    /// Decodes a frame-type byte; `None` is the
    /// [`ErrCode::BadFrameType`] path.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<FrameType> {
        match b {
            0x01 => Some(FrameType::Route),
            0x02 => Some(FrameType::RouteBatch),
            0x03 => Some(FrameType::FaultReport),
            0x04 => Some(FrameType::Metrics),
            0x81 => Some(FrameType::RouteOk),
            0x82 => Some(FrameType::RouteBatchOk),
            0x83 => Some(FrameType::FaultOk),
            0x84 => Some(FrameType::MetricsOk),
            0xFF => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// Typed error codes carried by `ERROR` replies (and, as `u8`, by
/// per-item batch statuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// Unknown protocol version byte.
    BadVersion = 1,
    /// Unknown frame-type byte.
    BadFrameType = 2,
    /// Payload did not parse (truncated field, bad symbols, …).
    Malformed = 3,
    /// Frame length exceeds [`MAX_FRAME_LEN`]; the connection closes.
    FrameTooLarge = 4,
    /// Net descriptor names no valid network (bad class index or
    /// parameters).
    BadNetwork = 5,
    /// A permutation's degree does not match the network's.
    DegreeMismatch = 6,
    /// No route: a failed endpoint, or faults disconnect the pair.
    NoRoute = 7,
    /// The network is too large for the operation: fault reports and
    /// degraded routing serve `k ≤ 12` (node ids are `u32` ranks).
    TooLarge = 8,
    /// Batch pair count is zero or exceeds [`MAX_BATCH_PAIRS`].
    BadCount = 9,
}

impl ErrCode {
    /// Decodes an error-code word (as received in an `ERROR` reply).
    #[must_use]
    pub fn from_u16(w: u16) -> Option<ErrCode> {
        match w {
            1 => Some(ErrCode::BadVersion),
            2 => Some(ErrCode::BadFrameType),
            3 => Some(ErrCode::Malformed),
            4 => Some(ErrCode::FrameTooLarge),
            5 => Some(ErrCode::BadNetwork),
            6 => Some(ErrCode::DegreeMismatch),
            7 => Some(ErrCode::NoRoute),
            8 => Some(ErrCode::TooLarge),
            9 => Some(ErrCode::BadCount),
            _ => None,
        }
    }

    /// Stable label for metrics and logs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::BadVersion => "bad_version",
            ErrCode::BadFrameType => "bad_frame_type",
            ErrCode::Malformed => "malformed",
            ErrCode::FrameTooLarge => "frame_too_large",
            ErrCode::BadNetwork => "bad_network",
            ErrCode::DegreeMismatch => "degree_mismatch",
            ErrCode::NoRoute => "no_route",
            ErrCode::TooLarge => "too_large",
            ErrCode::BadCount => "bad_count",
        }
    }
}

/// `ROUTE_OK` flag bit: at least one detour fired (degraded mode).
pub const FLAG_DETOURED: u8 = 1;
/// `ROUTE_OK` flag bit: the survivor-BFS fallback produced the route.
pub const FLAG_FALLBACK: u8 = 2;

/// The 3-byte network descriptor: class index into [`ScgClass::ALL`],
/// levels `l`, box size `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId {
    /// The network class.
    pub class: ScgClass,
    /// Levels `l`.
    pub levels: u8,
    /// Box size `n`.
    pub box_size: u8,
}

impl NetId {
    /// The descriptor for a constructed network.
    #[must_use]
    pub fn of(net: &SuperCayleyGraph) -> NetId {
        // Class parameters are validated ≤ small bounds at construction,
        // so the u8 narrowing is lossless.
        NetId {
            class: net.class(),
            levels: net.levels() as u8,
            box_size: net.box_size() as u8,
        }
    }

    /// Builds the network this descriptor names.
    ///
    /// # Errors
    ///
    /// [`ErrCode::BadNetwork`] if the parameters are invalid for the
    /// class.
    pub fn to_net(self) -> Result<SuperCayleyGraph, ErrCode> {
        SuperCayleyGraph::new(
            self.class,
            usize::from(self.levels),
            usize::from(self.box_size),
        )
        .map_err(|_| ErrCode::BadNetwork)
    }

    fn encode(self, out: &mut Vec<u8>) {
        let idx = ScgClass::ALL
            .iter()
            .position(|&c| c == self.class)
            .unwrap_or_default();
        // ALL has 10 entries, the index fits a byte.
        out.push(idx as u8);
        out.push(self.levels);
        out.push(self.box_size);
    }

    fn decode(r: &mut Reader<'_>) -> Result<NetId, ErrCode> {
        let idx = r.u8()?;
        let levels = r.u8()?;
        let box_size = r.u8()?;
        let class = *ScgClass::ALL
            .get(usize::from(idx))
            .ok_or(ErrCode::BadNetwork)?;
        Ok(NetId {
            class,
            levels,
            box_size,
        })
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Route one pair.
    Route {
        /// Target network.
        net: NetId,
        /// Source label.
        from: Perm,
        /// Destination label.
        to: Perm,
    },
    /// Route a batch of pairs of uniform degree `k`.
    RouteBatch {
        /// Target network.
        net: NetId,
        /// The pairs.
        pairs: Vec<(Perm, Perm)>,
    },
    /// Apply fault/repair events to the server's view of a network.
    FaultReport {
        /// Target network.
        net: NetId,
        /// The events, in order.
        events: Vec<ChaosEvent>,
    },
    /// Scrape the server's metrics registry.
    Metrics {
        /// `true` for the JSON exposition, `false` for text.
        json: bool,
    },
}

/// A `ROUTE` payload framed but not decoded: the network descriptor and
/// the two labels' symbol bytes, borrowed from the frame. It frames
/// exactly as [`decode_request`] does (which builds its `Route` from
/// one), but checks no symbol: a caller that routes from the bytes
/// validates them while packing them
/// (`scg_core::RoutePlan::pack_labels`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePayload<'a> {
    /// Target network.
    pub net: NetId,
    /// Source label: `k` 1-based symbols, unchecked.
    pub from: &'a [u8],
    /// Destination label: `k` 1-based symbols, unchecked.
    pub to: &'a [u8],
}

/// Frames a `ROUTE` payload: net descriptor, then `from` and `to` as
/// length-prefixed symbol runs, then nothing.
///
/// # Errors
///
/// [`ErrCode::BadNetwork`] for a class index outside [`ScgClass::ALL`]
/// (the first check after the descriptor's three bytes, as in
/// [`decode_request`]); [`ErrCode::Malformed`] for truncation or
/// trailing bytes.
pub fn route_payload(payload: &[u8]) -> Result<RoutePayload<'_>, ErrCode> {
    let mut r = Reader::new(payload);
    let net = NetId::decode(&mut r)?;
    let from = label(&mut r)?;
    let to = label(&mut r)?;
    r.finish()?;
    Ok(RoutePayload { net, from, to })
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Successful single route.
    RouteOk {
        /// [`FLAG_DETOURED`] | [`FLAG_FALLBACK`].
        flags: u8,
        /// The generator hops.
        hops: Vec<Generator>,
    },
    /// Successful batch; items are in request order.
    RouteBatchOk(
        /// Per-pair outcomes.
        Vec<BatchItem>,
    ),
    /// Fault report acknowledged.
    FaultOk {
        /// Events that changed the fault set.
        applied: u32,
        /// The network's fault epoch after ingestion.
        epoch: u64,
    },
    /// Metrics payload.
    MetricsOk(
        /// The exposition body.
        String,
    ),
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrCode,
        /// Human-readable detail (may be empty).
        detail: String,
    },
}

/// One pair's outcome inside a `ROUTE_BATCH_OK` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// `0` for success, else the [`ErrCode`] as `u8`.
    pub status: u8,
    /// [`FLAG_DETOURED`] | [`FLAG_FALLBACK`] (zero unless degraded).
    pub flags: u8,
    /// The generator hops (empty on failure).
    pub hops: Vec<Generator>,
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor; every read is total (no
/// panics, no partial state on failure).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ErrCode> {
        let end = self.pos.checked_add(n).ok_or(ErrCode::Malformed)?;
        let s = self.buf.get(self.pos..end).ok_or(ErrCode::Malformed)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ErrCode> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ErrCode> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ErrCode> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ErrCode> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    fn finish(self) -> Result<(), ErrCode> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ErrCode::Malformed) // trailing garbage
        }
    }
}

fn encode_perm(out: &mut Vec<u8>, p: &Perm) {
    // Degree ≤ MAX_DEGREE = 20 fits a byte.
    out.push(p.degree() as u8);
    for pos in 1..=p.degree() {
        out.push(p.symbol_at(pos));
    }
}

/// A perm's symbol run (`k: u8`, then `k` bytes), unchecked.
fn label<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], ErrCode> {
    let k = usize::from(r.u8()?);
    r.take(k)
}

fn decode_perm(symbols: &[u8]) -> Result<Perm, ErrCode> {
    Perm::from_symbols(symbols).map_err(|_| ErrCode::Malformed)
}

/// Encodes one hop as the 3-byte `tag · a · b` triple.
fn encode_generator(out: &mut Vec<u8>, g: Generator) {
    let (tag, a, b) = match g {
        Generator::Transposition { i } => (0, i, 0),
        Generator::Exchange { i, j } => (1, i, j),
        Generator::Insertion { i } => (2, i, 0),
        Generator::Selection { i } => (3, i, 0),
        Generator::Swap { n, i } => (4, n, i),
        Generator::Rotation { n, i } => (5, n, i),
    };
    out.push(tag);
    out.push(a);
    out.push(b);
}

fn decode_generator(r: &mut Reader<'_>) -> Result<Generator, ErrCode> {
    let tag = r.u8()?;
    let a = r.u8()?;
    let b = r.u8()?;
    match tag {
        0 => Ok(Generator::Transposition { i: a }),
        1 => Ok(Generator::Exchange { i: a, j: b }),
        2 => Ok(Generator::Insertion { i: a }),
        3 => Ok(Generator::Selection { i: a }),
        4 => Ok(Generator::Swap { n: a, i: b }),
        5 => Ok(Generator::Rotation { n: a, i: b }),
        _ => Err(ErrCode::Malformed),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Opens a frame in `out`: writes the header with a zero length field and
/// returns the offset to patch. Close with [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>, ftype: FrameType) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, ftype as u8]);
    at
}

/// Closes a frame opened at `at`: patches the length field to cover
/// everything appended since (version and type included).
///
/// # Panics
///
/// Panics if `at` does not point at a frame header previously written by
/// [`begin_frame`] on this buffer (a caller bug, not a wire condition).
pub fn end_frame(out: &mut [u8], at: usize) {
    let body = out.len() - at - 4;
    // Frames the server emits are bounded by MAX_BATCH_PAIRS; u32 holds.
    let len = (body as u32).to_le_bytes();
    out[at..at + 4].copy_from_slice(&len);
}

/// What the start of a read buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// Not enough bytes yet for a verdict — keep reading.
    NeedMore,
    /// One complete frame: version byte, type byte, and the payload's
    /// byte range within the buffer. Consume `HEADER_LEN + payload
    /// length` bytes.
    Frame {
        /// Version byte as received.
        ver: u8,
        /// Frame-type byte as received.
        ftype: u8,
        /// Payload start offset (= [`HEADER_LEN`]).
        start: usize,
        /// Payload end offset.
        end: usize,
    },
    /// The declared length is over [`MAX_FRAME_LEN`] or under the 2-byte
    /// minimum: reply [`ErrCode::FrameTooLarge`] / [`ErrCode::Malformed`]
    /// and close — framing is unrecoverable.
    BadLength(
        /// The declared `len` field value.
        u32,
    ),
    /// The buffer starts with `GET ` — an HTTP client (e.g. `curl
    /// /metrics`). Hand off to the HTTP fallback.
    Http,
}

/// Examines the start of a connection's read buffer for one frame.
///
/// Total over arbitrary bytes; never panics. The `GET ` prefix is
/// unambiguous: read as a length field it is `0x20544547` ≈ 542 M, far
/// over [`MAX_FRAME_LEN`], so no binary frame starts that way.
#[must_use]
pub fn peek_frame(buf: &[u8]) -> FrameStatus {
    if buf.first().copied() == Some(b'G') {
        if buf.len() < 4 {
            return FrameStatus::NeedMore;
        }
        if &buf[..4] == b"GET " {
            return FrameStatus::Http;
        }
    }
    if buf.len() < HEADER_LEN {
        return FrameStatus::NeedMore;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return FrameStatus::BadLength(len);
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return FrameStatus::NeedMore;
    }
    FrameStatus::Frame {
        ver: buf[4],
        ftype: buf[5],
        start: HEADER_LEN,
        end: total,
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

/// Encodes a request as one complete frame.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let ftype = match req {
        Request::Route { .. } => FrameType::Route,
        Request::RouteBatch { .. } => FrameType::RouteBatch,
        Request::FaultReport { .. } => FrameType::FaultReport,
        Request::Metrics { .. } => FrameType::Metrics,
    };
    let at = begin_frame(&mut out, ftype);
    match req {
        Request::Route { net, from, to } => {
            net.encode(&mut out);
            encode_perm(&mut out, from);
            encode_perm(&mut out, to);
        }
        Request::RouteBatch { net, pairs } => {
            net.encode(&mut out);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            let k = pairs.first().map_or(0, |(f, _)| f.degree() as u8);
            out.push(k);
            for (f, t) in pairs {
                for p in [f, t] {
                    for pos in 1..=p.degree() {
                        out.push(p.symbol_at(pos));
                    }
                }
            }
        }
        Request::FaultReport { net, events } => {
            net.encode(&mut out);
            out.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for ev in events {
                let (u, v) = ev.wire_args();
                out.push(ev.kind_code());
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Metrics { json } => {
            out.push(u8::from(*json));
        }
    }
    end_frame(&mut out, at);
    out
}

/// Decodes the payload of a request frame whose header
/// ([`peek_frame`]) already passed length checks.
///
/// # Errors
///
/// Every malformation maps to a typed [`ErrCode`]; the decoder never
/// panics on any byte sequence.
pub fn decode_request(ver: u8, ftype: u8, payload: &[u8]) -> Result<Request, ErrCode> {
    if ver != WIRE_VERSION {
        return Err(ErrCode::BadVersion);
    }
    let ftype = FrameType::from_u8(ftype).ok_or(ErrCode::BadFrameType)?;
    if ftype == FrameType::Route {
        // Every non-descriptor fault of a ROUTE payload is `Malformed`,
        // so framing first and checking symbols after gives the same code.
        let p = route_payload(payload)?;
        return Ok(Request::Route {
            net: p.net,
            from: decode_perm(p.from)?,
            to: decode_perm(p.to)?,
        });
    }
    let mut r = Reader::new(payload);
    let req = match ftype {
        FrameType::RouteBatch => {
            let net = NetId::decode(&mut r)?;
            let count = r.u32()?;
            if count == 0 || count > MAX_BATCH_PAIRS {
                return Err(ErrCode::BadCount);
            }
            let k = usize::from(r.u8()?);
            let mut pairs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let from = decode_perm(r.take(k)?)?;
                let to = decode_perm(r.take(k)?)?;
                pairs.push((from, to));
            }
            Request::RouteBatch { net, pairs }
        }
        FrameType::FaultReport => {
            let net = NetId::decode(&mut r)?;
            let count = r.u32()?;
            // 9 bytes per event; the frame length cap already bounds the
            // count, this check just refuses absurd declared counts early.
            if count as usize > payload.len() {
                return Err(ErrCode::Malformed);
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let kind = r.u8()?;
                let u = r.u32()?;
                let v = r.u32()?;
                events.push(ChaosEvent::from_wire(kind, u, v).ok_or(ErrCode::Malformed)?);
            }
            Request::FaultReport { net, events }
        }
        FrameType::Metrics => {
            let json = match r.take(1) {
                Ok(b) => b[0] == 1,
                Err(_) => false, // empty payload defaults to text
            };
            Request::Metrics { json }
        }
        // A reply type sent as a request (ROUTE returned above).
        _ => return Err(ErrCode::BadFrameType),
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Reply codec
// ---------------------------------------------------------------------------

/// Appends an `ERROR` frame to `out`.
pub fn encode_error_into(out: &mut Vec<u8>, code: ErrCode, detail: &str) {
    let at = begin_frame(out, FrameType::Error);
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(detail.as_bytes());
    end_frame(out, at);
}

/// Encodes a reply as one complete frame (the client-side / test-side
/// mirror of the server's streaming encoders).
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        Reply::RouteOk { flags, hops } => {
            let at = begin_frame(&mut out, FrameType::RouteOk);
            out.push(*flags);
            out.extend_from_slice(&(hops.len() as u16).to_le_bytes());
            for &g in hops {
                encode_generator(&mut out, g);
            }
            end_frame(&mut out, at);
        }
        Reply::RouteBatchOk(items) => {
            let at = begin_frame(&mut out, FrameType::RouteBatchOk);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                out.push(item.status);
                if item.status == 0 {
                    out.push(item.flags);
                    out.extend_from_slice(&(item.hops.len() as u16).to_le_bytes());
                    for &g in &item.hops {
                        encode_generator(&mut out, g);
                    }
                }
            }
            end_frame(&mut out, at);
        }
        Reply::FaultOk { applied, epoch } => {
            let at = begin_frame(&mut out, FrameType::FaultOk);
            out.extend_from_slice(&applied.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            end_frame(&mut out, at);
        }
        Reply::MetricsOk(body) => {
            let at = begin_frame(&mut out, FrameType::MetricsOk);
            out.extend_from_slice(body.as_bytes());
            end_frame(&mut out, at);
        }
        Reply::Error { code, detail } => encode_error_into(&mut out, *code, detail),
    }
    out
}

/// Decodes the payload of a reply frame.
///
/// # Errors
///
/// [`ErrCode`] on any malformation — total over arbitrary bytes.
pub fn decode_reply(ver: u8, ftype: u8, payload: &[u8]) -> Result<Reply, ErrCode> {
    if ver != WIRE_VERSION {
        return Err(ErrCode::BadVersion);
    }
    let ftype = FrameType::from_u8(ftype).ok_or(ErrCode::BadFrameType)?;
    let mut r = Reader::new(payload);
    let reply = match ftype {
        FrameType::RouteOk => {
            let flags = r.u8()?;
            let n = usize::from(r.u16()?);
            let mut hops = Vec::with_capacity(n);
            for _ in 0..n {
                hops.push(decode_generator(&mut r)?);
            }
            Reply::RouteOk { flags, hops }
        }
        FrameType::RouteBatchOk => {
            let count = r.u32()? as usize;
            // 1 byte minimum per item.
            if count > payload.len() {
                return Err(ErrCode::Malformed);
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let status = r.u8()?;
                let (flags, hops) = if status == 0 {
                    let flags = r.u8()?;
                    let n = usize::from(r.u16()?);
                    let mut hops = Vec::with_capacity(n);
                    for _ in 0..n {
                        hops.push(decode_generator(&mut r)?);
                    }
                    (flags, hops)
                } else {
                    (0, Vec::new())
                };
                items.push(BatchItem {
                    status,
                    flags,
                    hops,
                });
            }
            Reply::RouteBatchOk(items)
        }
        FrameType::FaultOk => {
            let applied = r.u32()?;
            let epoch = r.u64()?;
            Reply::FaultOk { applied, epoch }
        }
        FrameType::MetricsOk => {
            let body = String::from_utf8(r.take(payload.len())?.to_vec())
                .map_err(|_| ErrCode::Malformed)?;
            Reply::MetricsOk(body)
        }
        FrameType::Error => {
            let code = ErrCode::from_u16(r.u16()?).ok_or(ErrCode::Malformed)?;
            let rest = payload.len() - 2;
            let detail =
                String::from_utf8(r.take(rest)?.to_vec()).map_err(|_| ErrCode::Malformed)?;
            Reply::Error { code, detail }
        }
        _ => return Err(ErrCode::BadFrameType), // request type sent as reply
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_frame_states() {
        assert_eq!(peek_frame(&[]), FrameStatus::NeedMore);
        assert_eq!(peek_frame(&[9, 0, 0]), FrameStatus::NeedMore);
        assert_eq!(peek_frame(b"GE"), FrameStatus::NeedMore);
        assert_eq!(peek_frame(b"GET /metrics HTTP/1.1"), FrameStatus::Http);
        assert_eq!(peek_frame(&[1, 0, 0, 0, 1, 1]), FrameStatus::BadLength(1));
        let big = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert_eq!(
            peek_frame(&[big[0], big[1], big[2], big[3], 1, 1]),
            FrameStatus::BadLength(MAX_FRAME_LEN + 1)
        );
        // A complete minimal frame.
        assert_eq!(
            peek_frame(&[2, 0, 0, 0, WIRE_VERSION, 0x04, 0xAA]),
            FrameStatus::Frame {
                ver: WIRE_VERSION,
                ftype: 0x04,
                start: HEADER_LEN,
                end: HEADER_LEN
            }
        );
    }

    #[test]
    fn begin_end_frame_patches_length() {
        let mut out = Vec::new();
        let at = begin_frame(&mut out, FrameType::FaultOk);
        out.extend_from_slice(&[1, 2, 3]);
        end_frame(&mut out, at);
        assert_eq!(out[..4], 5u32.to_le_bytes());
        assert_eq!(out[4], WIRE_VERSION);
        assert_eq!(out[5], FrameType::FaultOk as u8);
    }

    #[test]
    fn decoders_are_total_over_short_payloads() {
        // Every prefix of a valid frame's payload decodes to a typed
        // error, not a panic.
        let req = Request::Route {
            net: NetId {
                class: ScgClass::MacroStar,
                levels: 2,
                box_size: 2,
            },
            from: Perm::identity(5),
            to: Perm::identity(5),
        };
        let frame = encode_request(&req);
        let payload = &frame[HEADER_LEN..];
        for cut in 0..payload.len() {
            assert!(decode_request(WIRE_VERSION, 0x01, &payload[..cut]).is_err());
        }
        assert!(decode_request(WIRE_VERSION, 0x01, payload).is_ok());
    }
}
