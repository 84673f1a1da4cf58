//! Per-connection state: nonblocking reads into a frame buffer, a
//! *bounded* write queue with backpressure, and the interest-bit logic
//! that ties the two to epoll.
//!
//! Frames are consumed from the front of the read buffer by advancing an
//! offset, not by shifting bytes; the buffer resets when it empties and
//! compacts only when a read needs the room. Replies are appended straight
//! to the write queue ([`Connection::frame_io`]). A steady-state wake
//! therefore costs one `read`, one `write` and no allocation:
//! [`Connection::fill`] stops at the first short read, and the caller
//! re-arms epoll only when [`Connection::interest_change`] reports new
//! bits. Epoll is level-triggered, so bytes or an EOF left in the kernel
//! after a short read come back on the next wake.
//!
//! Backpressure contract: a connection never buffers unboundedly. When a
//! peer stops draining replies and the write queue climbs past
//! [`HIGH_WATER`], the shard drops `EPOLLIN` interest — the server stops
//! *reading* that connection, the kernel socket buffer fills, and the
//! client's own sends eventually block. Reading resumes once the queue
//! drains below [`LOW_WATER`]. Slow consumers therefore throttle
//! themselves without stalling the shard or growing the heap.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

use crate::epoll::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{HEADER_LEN, MAX_FRAME_LEN};

/// Stop reading a connection whose write queue exceeds this many bytes.
pub const HIGH_WATER: usize = 256 * 1024;
/// Resume reading once the write queue drains below this many bytes.
pub const LOW_WATER: usize = 64 * 1024;

/// The read buffer's starting size, and so the most one `read` takes
/// while the buffer is small.
const READ_CHUNK: usize = 16 * 1024;
/// The read buffer doubles up to this size, twice the largest frame, so
/// a full buffer always holds a whole frame for the parser to consume.
const READ_CAP: usize = 2 * (HEADER_LEN + MAX_FRAME_LEN as usize);

/// Either transport, unified behind `Read`/`Write`/`AsRawFd`.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    /// The transport label for metrics.
    #[must_use]
    pub fn transport(&self) -> &'static str {
        match self {
            Stream::Tcp(_) => "tcp",
            Stream::Unix(_) => "uds",
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// What one `fill` pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Bytes appended to the read buffer.
    pub bytes: usize,
    /// Whether the peer closed its write half (EOF).
    pub eof: bool,
}

/// One client connection owned by one shard.
#[derive(Debug)]
pub struct Connection {
    stream: Stream,
    /// Inbound bytes: `read_buf[read_pos..read_end]` is unparsed. The
    /// vector is fully initialized, so reads land in it directly.
    read_buf: Vec<u8>,
    read_pos: usize,
    read_end: usize,
    /// Outbound bytes not yet accepted by the kernel. `write_pos` marks
    /// the flushed prefix; the buffer compacts opportunistically instead
    /// of shifting on every write.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Set once the peer should be dropped after the queue drains
    /// (HTTP responses, unrecoverable framing errors).
    pub close_after_flush: bool,
    /// Whether this connection switched to the HTTP fallback.
    pub http: bool,
    /// Largest queue depth seen, for the peak gauge.
    pub peak_queue: usize,
    /// Throttle latch: set at [`HIGH_WATER`], cleared below [`LOW_WATER`]
    /// (hysteresis, so interest bits do not flap at the boundary).
    latched: bool,
    /// The interest bits epoll last armed for this connection.
    armed: u32,
}

impl Connection {
    /// Wraps an accepted nonblocking stream.
    #[must_use]
    pub fn new(stream: Stream) -> Connection {
        let mut conn = Connection {
            stream,
            read_buf: vec![0; READ_CHUNK],
            read_pos: 0,
            read_end: 0,
            write_buf: Vec::with_capacity(4096),
            write_pos: 0,
            close_after_flush: false,
            http: false,
            peak_queue: 0,
            latched: false,
            armed: 0,
        };
        conn.armed = conn.interest();
        conn
    }

    /// The raw fd, for epoll registration.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The transport label for metrics.
    #[must_use]
    pub fn transport(&self) -> &'static str {
        self.stream.transport()
    }

    /// Bytes queued and not yet written to the kernel.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the write queue is past [`HIGH_WATER`] (or still latched
    /// above [`LOW_WATER`]) — the shard should not read more requests
    /// from this peer.
    #[must_use]
    pub fn throttled(&self) -> bool {
        self.latched || self.queued() >= HIGH_WATER
    }

    /// Advances the throttle latch after queue/flush activity. Returns
    /// `true` exactly when the connection *newly* stalled (for the
    /// backpressure counter).
    pub fn update_throttle(&mut self) -> bool {
        if !self.latched && self.queued() >= HIGH_WATER {
            self.latched = true;
            return true;
        }
        if self.latched && self.queued() < LOW_WATER {
            self.latched = false;
        }
        false
    }

    /// The epoll interest bits matching the connection's state:
    /// `EPOLLOUT` iff bytes are queued, `EPOLLIN` unless throttled.
    #[must_use]
    pub fn interest(&self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if !self.throttled() {
            bits |= EPOLLIN;
        }
        if self.queued() > 0 {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// The new interest bits when they differ from what epoll last
    /// armed (and records them as armed), else `None`: the caller issues
    /// `epoll_ctl` only on a change.
    pub fn interest_change(&mut self) -> Option<u32> {
        let bits = self.interest();
        if bits == self.armed {
            return None;
        }
        self.armed = bits;
        Some(bits)
    }

    /// Reads what the kernel holds into the read buffer, ending at the
    /// first short read (the socket is drained), at `WouldBlock`, at EOF,
    /// or when the queue throttles the connection. A read that fills the
    /// buffer makes room and reads again, until the buffer holds
    /// `READ_CAP` unparsed bytes.
    ///
    /// # Errors
    ///
    /// Propagates real socket errors; `WouldBlock` ends the pass
    /// normally.
    pub fn fill(&mut self) -> io::Result<ReadOutcome> {
        let mut outcome = ReadOutcome {
            bytes: 0,
            eof: false,
        };
        loop {
            if self.throttled() {
                break; // stop consuming; interest() already drops EPOLLIN
            }
            if self.read_end == self.read_buf.len() && !self.make_room() {
                break; // a whole frame is buffered; parse before reading on
            }
            match self.stream.read(&mut self.read_buf[self.read_end..]) {
                Ok(0) => {
                    outcome.eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_end += n;
                    outcome.bytes += n;
                    if self.read_end < self.read_buf.len() {
                        break; // short read: nothing more is waiting
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(outcome)
    }

    /// Frees space after the unparsed bytes of a full buffer: moves them
    /// to the front, or doubles the buffer up to `READ_CAP`. Returns
    /// `false` when the buffer is at its cap and all unparsed.
    fn make_room(&mut self) -> bool {
        if self.read_pos > 0 {
            self.read_buf.copy_within(self.read_pos..self.read_end, 0);
            self.read_end -= self.read_pos;
            self.read_pos = 0;
            return true;
        }
        if self.read_buf.len() >= READ_CAP {
            return false;
        }
        let len = (2 * self.read_buf.len()).min(READ_CAP);
        self.read_buf.resize(len, 0);
        true
    }

    /// The inbound bytes not yet consumed.
    #[must_use]
    pub fn unparsed(&self) -> &[u8] {
        &self.read_buf[self.read_pos..self.read_end]
    }

    /// Consumes `n` parsed bytes from the front of the unparsed bytes.
    pub fn consume(&mut self, n: usize) {
        self.read_pos = (self.read_pos + n).min(self.read_end);
        if self.read_pos == self.read_end {
            self.read_pos = 0;
            self.read_end = 0;
        }
    }

    /// The unparsed bytes and the write queue at once, so a frame is
    /// answered straight from the one into the other. Call
    /// [`Connection::note_queued`] after appending.
    pub fn frame_io(&mut self) -> (&[u8], &mut Vec<u8>) {
        (
            &self.read_buf[self.read_pos..self.read_end],
            &mut self.write_buf,
        )
    }

    /// Records the queue depth after replies were appended.
    pub fn note_queued(&mut self) {
        self.peak_queue = self.peak_queue.max(self.queued());
    }

    /// Queues reply bytes (bounded by the backpressure contract: callers
    /// stop *generating* replies once [`Connection::throttled`] trips,
    /// because the shard stops reading requests).
    pub fn queue(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
        self.note_queued();
    }

    /// Writes queued bytes until the kernel stops accepting them.
    /// Returns whether the queue fully drained.
    ///
    /// # Errors
    ///
    /// Propagates real socket errors; `WouldBlock` ends the pass
    /// normally.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Compact: drop the flushed prefix when it dominates the buffer
        // (amortized O(1) per byte), or reset entirely once drained.
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 32 * 1024 {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(self.queued() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Connection, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        (Connection::new(Stream::Unix(a)), b)
    }

    #[test]
    fn fill_reads_until_would_block() {
        let (mut conn, mut peer) = pair();
        peer.write_all(b"hello frames").unwrap();
        let out = conn.fill().unwrap();
        assert_eq!(out.bytes, 12);
        assert!(!out.eof);
        assert_eq!(conn.unparsed(), b"hello frames");
        conn.consume(6);
        assert_eq!(conn.unparsed(), b"frames");
        drop(peer);
        assert!(conn.fill().unwrap().eof);
    }

    #[test]
    fn fill_compacts_and_grows_the_read_buffer() {
        let (mut conn, mut peer) = pair();
        let sent: Vec<u8> = (0..3 * READ_CHUNK).map(|i| (i % 251) as u8).collect();
        let first = READ_CHUNK - 1000;
        peer.write_all(&sent[..first]).unwrap();
        assert_eq!(conn.fill().unwrap().bytes, first);
        conn.consume(first - 10);
        // The next read fills the buffer's last 1000 bytes, so fill moves
        // the 10 unparsed bytes plus those to the front and reads on.
        let second = first + 5000;
        peer.write_all(&sent[first..second]).unwrap();
        assert_eq!(conn.fill().unwrap().bytes, 5000);
        assert_eq!(conn.unparsed(), &sent[first - 10..second]);
        // Unconsumed bytes beyond the buffer's size grow it.
        peer.write_all(&sent[second..]).unwrap();
        assert_eq!(conn.fill().unwrap().bytes, sent.len() - second);
        assert_eq!(conn.unparsed(), &sent[first - 10..]);
        assert!(conn.interest_change().is_none(), "interest bits unchanged");
        conn.consume(conn.unparsed().len());
        assert!(conn.unparsed().is_empty());
    }

    #[test]
    fn interest_tracks_queue_and_throttle() {
        let (mut conn, _peer) = pair();
        assert_eq!(conn.interest() & EPOLLIN, EPOLLIN);
        assert_eq!(conn.interest() & EPOLLOUT, 0);
        assert_eq!(conn.interest_change(), None, "armed at creation");
        conn.queue(&[0u8; 10]);
        assert_eq!(conn.interest() & EPOLLOUT, EPOLLOUT);
        assert_eq!(conn.interest_change(), Some(conn.interest()));
        assert_eq!(conn.interest_change(), None, "re-armed only on a change");
        let big = vec![0u8; HIGH_WATER];
        conn.queue(&big);
        assert!(conn.throttled());
        assert_eq!(conn.interest() & EPOLLIN, 0, "throttled drops EPOLLIN");
        assert!(conn.peak_queue >= HIGH_WATER);
    }

    #[test]
    fn throttle_latch_has_hysteresis() {
        let (mut conn, _peer) = pair();
        let big = vec![0u8; HIGH_WATER];
        conn.queue(&big);
        assert!(conn.update_throttle(), "first trip counts as a stall");
        assert!(!conn.update_throttle(), "still stalled, not a new stall");
        // Drain to between LOW and HIGH water: still latched.
        conn.write_buf.truncate(LOW_WATER + 1);
        assert!(!conn.update_throttle());
        assert!(conn.throttled(), "latch holds above LOW_WATER");
        // Below LOW_WATER the latch releases.
        conn.write_buf.truncate(LOW_WATER - 1);
        assert!(!conn.update_throttle());
        assert!(!conn.throttled());
        assert_eq!(conn.interest() & EPOLLIN, EPOLLIN, "reading resumes");
    }

    #[test]
    fn flush_drains_into_peer() {
        let (mut conn, mut peer) = pair();
        peer.set_nonblocking(false).unwrap();
        conn.queue(b"abc");
        assert!(conn.flush().unwrap());
        let mut got = [0u8; 3];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"abc");
        assert_eq!(conn.queued(), 0);
    }

    #[test]
    fn bounded_queue_survives_slow_peer() {
        // Queue far more than the socket buffer holds: flush makes
        // partial progress, the rest stays queued (bounded by the
        // caller's backpressure), and draining the peer lets a second
        // flush finish.
        let (mut conn, mut peer) = pair();
        let payload = vec![7u8; 1024 * 1024];
        conn.queue(&payload);
        let drained = conn.flush().unwrap();
        assert!(!drained, "a 1 MiB burst cannot fit a socket buffer");
        assert!(conn.queued() > 0);
        peer.set_nonblocking(false).unwrap();
        let mut sink = vec![0u8; payload.len()];
        let mut got = 0;
        while got < sink.len() {
            let n = peer.read(&mut sink[got..]).unwrap();
            got += n;
            // Interleave flushes as the peer drains.
            conn.flush().unwrap();
        }
        assert!(sink.iter().all(|&b| b == 7));
    }
}
