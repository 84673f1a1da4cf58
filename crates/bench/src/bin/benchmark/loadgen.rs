//! The load generator: one nonblocking Unix-domain connection driven by
//! epoll (closed loop) or by a spin-paced schedule (open loop), framing
//! replies with `wire::peek_frame` and byte-comparing each one against
//! the reference reply computed before timing.
//!
//! Reads and writes are both nonblocking and interleaved, so the client
//! keeps draining replies while its own sends are stalled. A blocking
//! client that writes a whole window before reading deadlocks once the
//! daemon stops reading a connection whose write queue passed
//! `conn::HIGH_WATER` (see the `big_frames_complete` test).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use scg_serve::epoll::{Poller, EPOLLIN, EPOLLOUT};
use scg_serve::wire::{peek_frame, FrameStatus, FrameType};

use crate::stats::Windowed;
use crate::wrong;

/// Give up on a connection that makes no progress for this long: a hang
/// becomes a failed run, not a stuck benchmark.
pub const STALL: Duration = Duration::from_secs(10);

/// The daemon workloads' rate and latency window: a tenth of a second
/// holds hundreds of replies even on serve_degraded, and is short enough
/// to fall between the host's disturbances.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Room kept free in the read buffer for one `read`.
const READ_CHUNK: usize = 1 << 16;

/// Route outcomes carried by one reply (or summed over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub delivered: u64,
    pub refused: u64,
    pub detoured: u64,
    pub fallback: u64,
    pub hops: u64,
}

impl Outcome {
    pub fn add(&mut self, o: &Outcome) {
        self.delivered += o.delivered;
        self.refused += o.refused;
        self.detoured += o.detoured;
        self.fallback += o.fallback;
        self.hops += o.hops;
    }

    pub fn pairs(&self) -> u64 {
        self.delivered + self.refused
    }
}

/// One pre-encoded request and the exact reply bytes it must get back.
#[derive(Debug, Clone)]
pub struct Frame {
    pub request: Vec<u8>,
    pub reply: Vec<u8>,
    pub outcome: Outcome,
}

/// What a driving loop saw, over every request it sent.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Requests that got an `ERROR` frame or no reply.
    pub failed: u64,
    /// Route pairs those failed requests carried, so that a failed
    /// 512-pair frame weighs 512 pairs against the delivered share.
    pub failed_pairs: u64,
    /// Outcomes of the replies that matched their reference.
    pub outcome: Outcome,
}

impl Tally {
    pub fn add(&mut self, t: &Tally) {
        self.sent += t.sent;
        self.failed += t.failed;
        self.failed_pairs += t.failed_pairs;
        self.outcome.add(&t.outcome);
    }

    /// A request of `frame` got an `ERROR` frame or no reply.
    fn fail(&mut self, frame: &Frame) {
        self.failed += 1;
        self.failed_pairs += frame.outcome.pairs();
    }

    /// Delivered pairs over every pair attempted, failed requests'
    /// pairs included.
    pub fn delivered_ratio(&self) -> f64 {
        self.outcome.delivered as f64 / (self.outcome.pairs() + self.failed_pairs).max(1) as f64
    }
}

/// One client-side span: a request's due (or enqueue) time, when its last
/// byte reached the kernel, and when its reply was read, in ns from the
/// recorder's creation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub due: u64,
    pub written: u64,
    pub read: u64,
}

/// A span recorder capped at `cap` spans. A workload runs several loops;
/// their spans share one clock and one id sequence.
#[derive(Debug)]
pub struct Spans {
    cap: usize,
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn with_cap(cap: usize) -> Spans {
        Spans {
            cap,
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::with_capacity(cap),
        }
    }

    /// Records the next request; its times are ns from `t0`.
    pub fn record(&mut self, t0: Instant, due: u64, written: u64, read: u64) {
        let base =
            u64::try_from(t0.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id: self.next_id,
                due: base.saturating_add(due),
                written: base.saturating_add(written),
                read: base.saturating_add(read),
            });
        }
        self.next_id += 1;
    }
}

/// What a loop keeps per reply beyond the per-second pair counts.
#[derive(Debug)]
pub enum Record<'a> {
    /// Rates only: the capacity loops answer hundreds of thousands of
    /// requests a second, and their latencies would swell this process.
    Rate,
    Latency,
    /// Latency, plus a span per request up to the recorder's cap.
    Spans(&'a mut Spans),
}

impl<'a> Record<'a> {
    /// `Spans` when a recorder is given, else `Latency`.
    pub fn latency(spans: Option<&'a mut Spans>) -> Record<'a> {
        spans.map_or(Record::Latency, Record::Spans)
    }
}

/// A request on the wire: its frame, when it was due, and the absolute
/// stream offset of its last byte (to date its write).
#[derive(Debug, Clone, Copy)]
struct Pending {
    frame: usize,
    due: u64,
    end: u64,
    written: u64,
}

/// A nonblocking client connection with user-space read and write
/// buffers. Unparsed reply bytes are `rbuf[rpos..rend]`.
pub struct Conn {
    stream: UnixStream,
    poller: Poller,
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Bytes handed to the kernel over the connection's life.
    written: u64,
    /// Bytes appended to `wbuf` over the connection's life.
    queued: u64,
    interest: u32,
}

impl Conn {
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(stream.as_raw_fd(), 0, EPOLLIN)?;
        Ok(Conn {
            stream,
            poller,
            rbuf: vec![0; READ_CHUNK * 4],
            rpos: 0,
            rend: 0,
            wbuf: Vec::with_capacity(1 << 16),
            wpos: 0,
            written: 0,
            queued: 0,
            interest: EPOLLIN,
        })
    }

    /// Queues bytes; returns the stream offset just past them.
    fn queue(&mut self, bytes: &[u8]) -> u64 {
        self.wbuf.extend_from_slice(bytes);
        self.queued += bytes.len() as u64;
        self.queued
    }

    /// Writes queued bytes until the kernel stops taking them.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads until the kernel has nothing more; returns whether any byte
    /// arrived. A closed connection is an error.
    fn fill(&mut self) -> io::Result<bool> {
        let mut got = false;
        loop {
            // Keep room for a whole chunk: move the unparsed tail to the
            // front, or grow when the tail itself is that large.
            if self.rbuf.len() - self.rend < READ_CHUNK {
                self.rbuf.copy_within(self.rpos..self.rend, 0);
                self.rend -= self.rpos;
                self.rpos = 0;
                if self.rbuf.len() - self.rend < READ_CHUNK {
                    self.rbuf.resize(self.rbuf.len() * 2, 0);
                }
            }
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ));
                }
                Ok(n) => {
                    self.rend += n;
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply frame in the read buffer, consumed.
    fn next_reply(&mut self) -> Result<Option<&[u8]>, String> {
        match peek_frame(&self.rbuf[self.rpos..self.rend]) {
            FrameStatus::NeedMore => Ok(None),
            FrameStatus::Frame { end, .. } => {
                let at = self.rpos;
                self.rpos += end;
                Ok(Some(&self.rbuf[at..at + end]))
            }
            other => Err(wrong(format!("unframeable reply bytes: {other:?}"))),
        }
    }

    /// Blocks up to `timeout` for readability (and writability while
    /// bytes are queued).
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let want = if self.wpos < self.wbuf.len() {
            EPOLLIN | EPOLLOUT
        } else {
            EPOLLIN
        };
        if want != self.interest {
            self.poller.modify(self.stream.as_raw_fd(), 0, want)?;
            self.interest = want;
        }
        let ms = i32::try_from(timeout.as_millis())
            .unwrap_or(i32::MAX)
            .max(1);
        self.poller.wait(ms).map(|_| ())
    }

    /// One request, one checked reply, blocking: the set-up probes and the
    /// fault reports use this.
    pub fn exchange(&mut self, frame: &Frame, tally: &mut Tally) -> Result<(), String> {
        tally.sent += 1;
        let reply = self.request_raw(&frame.request)?;
        check_reply(&reply, frame, tally, 0)
    }

    /// The raw reply to one request, blocking.
    pub fn request_raw(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        self.queue(request);
        let deadline = Instant::now() + STALL;
        loop {
            self.flush().map_err(|e| format!("send: {e}"))?;
            self.fill().map_err(|e| format!("recv: {e}"))?;
            if let Some(reply) = self.next_reply()? {
                return Ok(reply.to_vec());
            }
            if Instant::now() > deadline {
                return Err("no reply within the stall limit".to_string());
            }
            self.wait(Duration::from_millis(100))
                .map_err(|e| format!("poll: {e}"))?;
        }
    }
}

/// Checks one reply against its reference: an `ERROR` frame counts the
/// request failed; any other difference is a wrong answer and aborts.
pub fn check_reply(reply: &[u8], frame: &Frame, tally: &mut Tally, id: u64) -> Result<(), String> {
    if reply == frame.reply.as_slice() {
        tally.outcome.add(&frame.outcome);
        Ok(())
    } else if reply.get(5) == Some(&(FrameType::Error as u8)) {
        tally.fail(frame);
        Ok(())
    } else {
        Err(wrong(format!(
            "reply to request {id} differs from its reference ({} bytes vs {} expected)",
            reply.len(),
            frame.reply.len()
        )))
    }
}

fn now_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a closed or open loop measured.
#[derive(Debug)]
pub struct LoopStats {
    /// Route pairs answered per window, and per reply its latency: reply
    /// read minus due (open loop) or enqueue time (closed loop).
    pub windows: Windowed,
    /// Per request, by the window it was written in: its write minus its
    /// due time.
    pub late: Windowed,
    pub tally: Tally,
}

/// Shared bookkeeping of the two loops.
struct Driver<'a> {
    frames: &'a [Frame],
    inflight: VecDeque<Pending>,
    unwritten: usize,
    stats: LoopStats,
    t0: Instant,
    next_id: u64,
    record: Record<'a>,
}

impl<'a> Driver<'a> {
    fn new(frames: &'a [Frame], record: Record<'a>) -> Driver<'a> {
        Driver {
            frames,
            inflight: VecDeque::new(),
            unwritten: 0,
            stats: LoopStats {
                windows: Windowed::new(WINDOW),
                late: Windowed::new(WINDOW),
                tally: Tally::default(),
            },
            t0: Instant::now(),
            next_id: 0,
            record,
        }
    }

    fn send(&mut self, conn: &mut Conn, frame: usize, due: u64) {
        let end = conn.queue(&self.frames[frame].request);
        self.inflight.push_back(Pending {
            frame,
            due,
            end,
            written: 0,
        });
        self.unwritten += 1;
        self.stats.tally.sent += 1;
    }

    /// Flushes, then dates the writes of requests whose last byte left.
    fn flush(&mut self, conn: &mut Conn) -> Result<(), String> {
        conn.flush().map_err(|e| format!("send: {e}"))?;
        if self.unwritten > 0 {
            let now = now_ns(self.t0);
            let first = self.inflight.len() - self.unwritten;
            for p in self.inflight.iter_mut().skip(first) {
                if p.end > conn.written {
                    break;
                }
                p.written = now;
                if !matches!(self.record, Record::Rate) {
                    self.stats.late.add_latency(now, now.saturating_sub(p.due));
                }
                self.unwritten -= 1;
            }
        }
        Ok(())
    }

    /// Reads and checks every complete reply; returns how many arrived.
    fn receive(&mut self, conn: &mut Conn) -> Result<usize, String> {
        conn.fill().map_err(|e| format!("recv: {e}"))?;
        let mut n = 0;
        while let Some(reply) = conn.next_reply()? {
            let now = now_ns(self.t0);
            let p = self
                .inflight
                .pop_front()
                .ok_or("a reply arrived with no request in flight")?;
            let id = self.next_id;
            self.next_id += 1;
            let before = self.stats.tally.outcome.pairs();
            check_reply(reply, &self.frames[p.frame], &mut self.stats.tally, id)?;
            let pairs = self.stats.tally.outcome.pairs() - before;
            self.stats.windows.add_work(now, pairs);
            if !matches!(self.record, Record::Rate) {
                self.stats
                    .windows
                    .add_latency(now, now.saturating_sub(p.due));
            }
            if let Record::Spans(spans) = &mut self.record {
                spans.record(self.t0, p.due, p.written, now);
            }
            n += 1;
        }
        Ok(n)
    }

    /// Stops the clock for the rates, then waits for every outstanding
    /// reply; one still missing after [`STALL`] counts as failed.
    fn finish(mut self, conn: &mut Conn, sent_until: u64) -> Result<LoopStats, String> {
        self.stats.windows.close(sent_until);
        self.stats.late.close(sent_until);
        let deadline = Instant::now() + STALL;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.flush(conn)?;
            if self.receive(conn)? == 0 {
                conn.wait(Duration::from_millis(10))
                    .map_err(|e| format!("poll: {e}"))?;
            }
        }
        for p in &self.inflight {
            self.stats.tally.fail(&self.frames[p.frame]);
        }
        Ok(self.stats)
    }
}

/// Keeps `window` requests in flight, cycling `frames`, for `dur`.
/// Latency runs from when a request was queued.
pub fn closed_loop(
    conn: &mut Conn,
    frames: &[Frame],
    window: usize,
    dur: Duration,
    record: Record<'_>,
) -> Result<LoopStats, String> {
    let mut d = Driver::new(frames, record);
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let mut next = 0;
    let mut last_progress = Instant::now();
    loop {
        let now = now_ns(d.t0);
        if now >= dur_ns {
            return d.finish(conn, now);
        }
        while d.inflight.len() < window {
            d.send(conn, next % frames.len(), now_ns(d.t0));
            next += 1;
        }
        d.flush(conn)?;
        if d.receive(conn)? > 0 {
            last_progress = Instant::now();
        } else {
            if last_progress.elapsed() > STALL {
                return Err(format!(
                    "closed loop stalled with {} in flight",
                    d.inflight.len()
                ));
            }
            conn.wait(Duration::from_millis(50))
                .map_err(|e| format!("poll: {e}"))?;
        }
    }
}

/// Sends `frames` (cycled) at `rate` requests per second for `dur`,
/// whatever the replies do. The thread spins between due times: sleeping
/// would add the timer slack to every request. Latency runs from each
/// request's due time, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    conn: &mut Conn,
    frames: &[Frame],
    rate: f64,
    dur: Duration,
    record: Record<'_>,
) -> Result<LoopStats, String> {
    let mut d = Driver::new(frames, record);
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let period = 1e9 / rate;
    let mut next: u64 = 0;
    let mut last_progress = Instant::now();
    loop {
        let now = now_ns(d.t0);
        if now >= dur_ns {
            return d.finish(conn, dur_ns);
        }
        let mut due = (next as f64 * period) as u64;
        while due <= now {
            d.send(conn, usize::try_from(next).unwrap_or(0) % frames.len(), due);
            next += 1;
            due = (next as f64 * period) as u64;
        }
        d.flush(conn)?;
        if d.receive(conn)? > 0 || d.inflight.is_empty() {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            return Err(format!(
                "open loop stalled with {} in flight",
                d.inflight.len()
            ));
        }
        std::hint::spin_loop();
    }
}
