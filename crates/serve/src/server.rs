//! The daemon: listeners, acceptor, and per-shard epoll event loops.
//!
//! Thread layout: one acceptor thread polls the UDS (and optional TCP)
//! listeners and hands accepted sockets to shards round-robin; each
//! shard thread runs its own [`Poller`] over its pinned connections and
//! a wake pipe. A connection lives its whole life on one shard, so the
//! request path — [`ShardCore::handle_frame`] — shares no lock with the
//! other shards (the fault journal is the sole, cold exception).
//!
//! Wakes are one-byte writes to a `UnixStream` pair registered in the
//! shard's poller: the acceptor pokes a shard when its inbox gains a
//! socket, and a shard pokes its peers when a `FAULT_REPORT` grows the
//! journal, so fault convergence does not wait for unrelated traffic.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use crate::conn::{Connection, Stream};
use crate::epoll::{Poller, Readiness, EPOLLIN};
use crate::metrics::ServeMetrics;
use crate::shard::{FaultJournal, FrameEffects, ShardCore};
use crate::wire::{self, peek_frame, ErrCode, FrameStatus, MAX_FRAME_LEN};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path of the Unix-domain listener socket (unlinked on shutdown).
    pub uds_path: PathBuf,
    /// Whether to also listen on TCP (`127.0.0.1`, ephemeral port).
    pub tcp: bool,
    /// Shard (event-loop thread) count; `0` = one per available core.
    pub shards: usize,
}

impl Config {
    /// A UDS-only config with auto shard count.
    #[must_use]
    pub fn new(uds_path: impl Into<PathBuf>) -> Config {
        Config {
            uds_path: uds_path.into(),
            tcp: false,
            shards: 0,
        }
    }
}

/// Handle to a running daemon; dropping it shuts the daemon down.
#[derive(Debug)]
pub struct RunningServer {
    uds_path: PathBuf,
    tcp_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    wakes: Vec<UnixStream>,
    threads: Vec<JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
}

impl RunningServer {
    /// The UDS listener path.
    #[must_use]
    pub fn uds_path(&self) -> &Path {
        &self.uds_path
    }

    /// The TCP listener address, when TCP was enabled.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The server's metrics registry (shared with every shard).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Number of shard event-loop threads.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.wakes.len()
    }

    /// Stops every thread, joins them, and unlinks the UDS socket.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        // ord: SeqCst — shutdown is cold; strongest order costs nothing.
        self.stop.store(true, Ordering::SeqCst);
        for wake in &mut self.wakes {
            // Best-effort poke; a dead shard already exited its loop.
            drop(wake.write(&[1]));
        }
        for t in self.threads.drain(..) {
            // A panicked shard already printed its message; joining the
            // corpse is still the right cleanup.
            drop(t.join());
        }
        drop(fs::remove_file(&self.uds_path));
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_inner();
        }
    }
}

/// Per-shard handoff state shared with the acceptor.
struct Inbox {
    sockets: Mutex<Vec<Stream>>,
    wake: Mutex<UnixStream>,
}

impl Inbox {
    fn push(&self, s: Stream) {
        // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        self.sockets.lock().expect("inbox lock").push(s);
        self.poke();
    }

    fn poke(&self) {
        // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        drop(self.wake.lock().expect("wake lock").write(&[1]));
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Socket binding or epoll creation failures.
pub fn spawn(config: Config) -> io::Result<RunningServer> {
    let shard_count = if config.shards == 0 {
        thread::available_parallelism().map_or(1, usize::from)
    } else {
        config.shards
    };
    // A stale socket file from a dead server would fail the bind.
    drop(fs::remove_file(&config.uds_path));
    let uds = UnixListener::bind(&config.uds_path)?;
    uds.set_nonblocking(true)?;
    let tcp = if config.tcp {
        let l = TcpListener::bind("127.0.0.1:0")?;
        l.set_nonblocking(true)?;
        Some(l)
    } else {
        None
    };
    let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;

    let metrics = Arc::new(ServeMetrics::new());
    let journal = Arc::new(FaultJournal::new());
    let stop = Arc::new(AtomicBool::new(false));

    let mut inboxes = Vec::with_capacity(shard_count);
    let mut wake_rxs = Vec::with_capacity(shard_count);
    let mut wake_txs = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let (tx, rx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        wake_txs.push(tx.try_clone()?);
        wake_rxs.push(rx);
        inboxes.push(Arc::new(Inbox {
            sockets: Mutex::new(Vec::new()),
            wake: Mutex::new(tx),
        }));
    }

    let mut threads = Vec::with_capacity(shard_count + 1);
    for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
        let poller = Poller::new()?;
        let core = ShardCore::new(Arc::clone(&metrics), Arc::clone(&journal));
        let inbox = Arc::clone(&inboxes[i]);
        // Fault wakes go to every *other* shard.
        let peers: Vec<Arc<Inbox>> = inboxes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, b)| Arc::clone(b))
            .collect();
        let stop = Arc::clone(&stop);
        let metrics = Arc::clone(&metrics);
        threads.push(
            thread::Builder::new()
                .name(format!("scg-serve-shard-{i}"))
                .spawn(move || shard_loop(core, poller, wake_rx, inbox, peers, stop, metrics))?,
        );
    }
    {
        let poller = Poller::new()?;
        let stop = Arc::clone(&stop);
        let inboxes = inboxes.clone();
        threads.push(
            thread::Builder::new()
                .name("scg-serve-accept".into())
                .spawn(move || accept_loop(poller, uds, tcp, inboxes, stop))?,
        );
    }

    Ok(RunningServer {
        uds_path: config.uds_path,
        tcp_addr,
        stop,
        wakes: wake_txs,
        threads,
        metrics,
    })
}

const TOKEN_UDS: u64 = u64::MAX - 1;
const TOKEN_TCP: u64 = u64::MAX - 2;
const TOKEN_WAKE: u64 = u64::MAX;

fn accept_loop(
    mut poller: Poller,
    uds: UnixListener,
    tcp: Option<TcpListener>,
    inboxes: Vec<Arc<Inbox>>,
    stop: Arc<AtomicBool>,
) {
    if poller.add(uds.as_raw_fd(), TOKEN_UDS, EPOLLIN).is_err() {
        return;
    }
    if let Some(l) = &tcp {
        if poller.add(l.as_raw_fd(), TOKEN_TCP, EPOLLIN).is_err() {
            return;
        }
    }
    let mut rr = 0usize;
    let mut events = Vec::new();
    // ord: SeqCst — cold flag, checked at most ten times a second.
    while !stop.load(Ordering::SeqCst) {
        if poller.wait_into(100, &mut events).is_err() {
            break;
        }
        for ev in &events {
            match ev.token {
                TOKEN_UDS => {
                    // Accept until WouldBlock (or a racing close) errors out.
                    while let Ok((s, _)) = uds.accept() {
                        if s.set_nonblocking(true).is_err() {
                            continue;
                        }
                        inboxes[rr % inboxes.len()].push(Stream::Unix(s));
                        rr = rr.wrapping_add(1);
                    }
                }
                TOKEN_TCP => {
                    if let Some(l) = &tcp {
                        while let Ok((s, _)) = l.accept() {
                            if s.set_nodelay(true).is_err() || s.set_nonblocking(true).is_err() {
                                continue;
                            }
                            inboxes[rr % inboxes.len()].push(Stream::Tcp(s));
                            rr = rr.wrapping_add(1);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[allow(clippy::needless_pass_by_value)] // thread entry point owns its state
fn shard_loop(
    mut core: ShardCore,
    mut poller: Poller,
    mut wake_rx: UnixStream,
    inbox: Arc<Inbox>,
    peers: Vec<Arc<Inbox>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
) {
    if poller
        .add(wake_rx.as_raw_fd(), TOKEN_WAKE, EPOLLIN)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut events: Vec<Readiness> = Vec::new();
    // ord: SeqCst — cold flag, checked at most ten times a second.
    while !stop.load(Ordering::SeqCst) {
        if poller.wait_into(100, &mut events).is_err() {
            break;
        }
        // Drain the wake pipe (its only job is ending the epoll_wait).
        if events.iter().any(|e| e.token == TOKEN_WAKE) {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        // Adopt newly accepted sockets (checked every iteration: a wake
        // can coalesce with a racing handoff).
        // scg-allow(SCG001): documented panic — poisoned by another panicking thread only
        let adopted = std::mem::take(&mut *inbox.sockets.lock().expect("inbox lock"));
        for stream in adopted {
            let conn = Connection::new(stream);
            let token = conn.fd() as u64;
            if poller.add(conn.fd(), token, conn.interest()).is_err() {
                continue; // fd died between accept and registration
            }
            match conn.transport() {
                "uds" => metrics.conns_uds.inc(),
                _ => metrics.conns_tcp.inc(),
            }
            metrics.open_conns.add(1);
            conns.insert(token, conn);
        }
        // Converge on faults reported through other shards.
        core.sync_faults();
        for &ev in &events {
            if ev.token == TOKEN_WAKE {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut drop_conn = ev.closed();
            let mut eof = false;
            if !drop_conn && ev.readable() {
                match conn.fill() {
                    Ok(outcome) => eof = outcome.eof,
                    Err(_) => drop_conn = true,
                }
            }
            if !drop_conn {
                drop_conn = !service(conn, &mut core, &peers, &metrics);
            }
            if !drop_conn && eof {
                conn.close_after_flush = true;
                drop_conn = conn.queued() == 0;
            }
            if !drop_conn && conn.close_after_flush && conn.queued() == 0 {
                drop_conn = true;
            }
            if drop_conn {
                let fd = conn.fd();
                poller.remove(fd);
                conns.remove(&ev.token);
                metrics.open_conns.add(-1);
            } else if let Some(interest) = conn.interest_change() {
                if poller.modify(conn.fd(), ev.token, interest).is_err() {
                    conns.remove(&ev.token);
                    metrics.open_conns.add(-1);
                }
            }
        }
    }
    // Unregister what's left so the epoll fd drops clean.
    for conn in conns.values() {
        poller.remove(conn.fd());
        metrics.open_conns.add(-1);
    }
}

/// Parses and answers everything currently actionable on `conn`:
/// processes frames until the buffer runs dry or backpressure trips,
/// flushing between rounds. Returns `false` when the connection hit an
/// I/O error and must be dropped.
fn service(
    conn: &mut Connection,
    core: &mut ShardCore,
    peers: &[Arc<Inbox>],
    metrics: &Arc<ServeMetrics>,
) -> bool {
    loop {
        let fx = process_read_buf(conn, core, metrics);
        if fx.journal_grew {
            for peer in peers {
                peer.poke();
            }
        }
        if conn.flush().is_err() {
            return false;
        }
        if conn.update_throttle() {
            metrics.backpressure_stalls.inc();
        }
        if conn.peak_queue as i64 > metrics.queue_peak.get() {
            metrics.queue_peak.set(conn.peak_queue as i64);
        }
        if conn.throttled() {
            return true; // resume when EPOLLOUT drains the queue
        }
        // Only a complete binary frame justifies another round; HTTP and
        // bad-length states were already answered by process_read_buf,
        // and NeedMore (including partial HTTP headers) waits for bytes.
        if conn.close_after_flush
            || !matches!(peek_frame(conn.unparsed()), FrameStatus::Frame { .. })
        {
            return true;
        }
    }
}

/// Consumes complete frames (or a complete HTTP request) from the front
/// of the read buffer, appending replies to the write queue.
fn process_read_buf(
    conn: &mut Connection,
    core: &mut ShardCore,
    metrics: &Arc<ServeMetrics>,
) -> FrameEffects {
    let mut agg = FrameEffects::default();
    loop {
        if conn.throttled() || conn.close_after_flush {
            break;
        }
        match peek_frame(conn.unparsed()) {
            FrameStatus::NeedMore => break,
            FrameStatus::Http => {
                handle_http(conn, metrics);
                break;
            }
            FrameStatus::BadLength(len) => {
                // Framing is unrecoverable: typed error, then close once
                // it flushes.
                let code = if len > MAX_FRAME_LEN {
                    ErrCode::FrameTooLarge
                } else {
                    ErrCode::Malformed
                };
                metrics.inc_error(code);
                let (_, out) = conn.frame_io();
                wire::encode_error_into(out, code, "unrecoverable frame length");
                conn.note_queued();
                conn.consume(conn.unparsed().len());
                conn.close_after_flush = true;
                break;
            }
            FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } => {
                let (unparsed, out) = conn.frame_io();
                let fx = core.handle_frame(ver, ftype, &unparsed[start..end], out);
                agg.journal_grew |= fx.journal_grew;
                conn.note_queued();
                conn.consume(end);
            }
        }
    }
    agg
}

/// Minimal HTTP/1.0-style fallback for `curl`: `GET /metrics` (add
/// `?json=1` for the JSON exposition) and `GET /healthz`. One response,
/// then close.
fn handle_http(conn: &mut Connection, metrics: &Arc<ServeMetrics>) {
    conn.http = true;
    let Some(head_end) = find_crlf_crlf(conn.unparsed()) else {
        if conn.unparsed().len() > 16 * 1024 {
            conn.consume(conn.unparsed().len());
            conn.close_after_flush = true;
        }
        return; // headers still arriving
    };
    metrics.req_http.inc();
    let head = String::from_utf8_lossy(&conn.unparsed()[..head_end]).into_owned();
    conn.consume(head_end + 4);
    let path = head.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        p if p == "/metrics" || p.starts_with("/metrics?") => {
            let snap = metrics.snapshot();
            if p.contains("json") {
                ("200 OK", snap.to_json())
            } else {
                ("200 OK", snap.to_text())
            }
        }
        "/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let reply = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.queue(reply.as_bytes());
    conn.close_after_flush = true;
}

fn find_crlf_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_reply, encode_request, NetId, Reply, Request};
    use scg_core::{apply_path, CayleyNetwork, ScgClass};
    use scg_perm::Perm;
    use std::io::{BufRead, BufReader};

    fn temp_sock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("scg-serve-{}-{tag}.sock", std::process::id()))
    }

    fn ms22() -> NetId {
        NetId {
            class: ScgClass::MacroStar,
            levels: 2,
            box_size: 2,
        }
    }

    fn read_one_frame(s: &mut impl Read) -> Reply {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let FrameStatus::Frame {
                ver,
                ftype,
                start,
                end,
            } = peek_frame(&buf)
            {
                return decode_reply(ver, ftype, &buf[start..end]).expect("reply decodes");
            }
            let n = s.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed before a full reply");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn serves_routes_http_and_shutdown_over_both_transports() {
        let path = temp_sock("unit");
        let server = spawn(Config {
            uds_path: path.clone(),
            tcp: true,
            shards: 2,
        })
        .expect("spawn");
        let net = ms22().to_net().expect("MS(2,2)");
        let k = net.degree_k();
        let from = Perm::identity(k);
        let rev: Vec<u8> = (1..=k as u8).rev().collect();
        let to = Perm::from_symbols(&rev).expect("perm");
        let req = encode_request(&Request::Route {
            net: ms22(),
            from,
            to,
        });

        // UDS leg.
        let mut uds = UnixStream::connect(&path).expect("connect uds");
        uds.write_all(&req).expect("send");
        match read_one_frame(&mut uds) {
            Reply::RouteOk { hops, .. } => {
                assert_eq!(apply_path(&from, &hops).expect("apply"), to);
            }
            other => panic!("expected RouteOk, got {other:?}"),
        }

        // TCP leg, same frame bytes.
        let addr = server.tcp_addr().expect("tcp enabled");
        let mut tcp = std::net::TcpStream::connect(addr).expect("connect tcp");
        tcp.write_all(&req).expect("send");
        match read_one_frame(&mut tcp) {
            Reply::RouteOk { hops, .. } => {
                assert_eq!(apply_path(&from, &hops).expect("apply"), to);
            }
            other => panic!("expected RouteOk, got {other:?}"),
        }

        // HTTP fallback on the same listener.
        let mut http = UnixStream::connect(&path).expect("connect http");
        http.write_all(b"GET /metrics HTTP/1.1\r\nHost: scg\r\n\r\n")
            .expect("send http");
        let mut reader = BufReader::new(http);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(status.starts_with("HTTP/1.1 200"), "got {status:?}");
        let mut body = String::new();
        reader.read_to_string(&mut body).expect("body to close");
        assert!(body.contains("scg_serve_requests_total"));
        assert!(body.contains("scg_serve_slo_route_p50_target_micros"));

        // Unrecoverable framing: typed error, then the server closes.
        let mut bad = UnixStream::connect(&path).expect("connect bad");
        bad.write_all(&[0xFF; 8]).expect("send garbage");
        match read_one_frame(&mut bad) {
            Reply::Error { code, .. } => assert_eq!(code, ErrCode::FrameTooLarge),
            other => panic!("expected Error, got {other:?}"),
        }
        let mut rest = Vec::new();
        bad.read_to_end(&mut rest).expect("server closes");
        assert!(rest.is_empty());

        server.shutdown();
        assert!(!path.exists(), "socket unlinked on shutdown");
    }
}
