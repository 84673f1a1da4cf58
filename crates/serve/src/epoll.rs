//! A minimal hand-rolled epoll binding — the only FFI in the workspace.
//!
//! Zero-dependency idiom: three syscall wrappers (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`) declared directly against the libc that
//! `std` already links, plus a safe [`Poller`] that owns the epoll fd and
//! an event buffer. Tokens are caller-chosen `u64`s (the `data` field of
//! `epoll_event`), which is how the shard loops map readiness back to
//! connection slots without a lookup table.

use std::io;
use std::os::unix::io::RawFd;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never subscribed.
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`); always reported, never subscribed.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// The kernel's `struct epoll_event`. x86-64 packs it (12 bytes); other
/// Linux targets keep natural alignment — matching glibc's declaration.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification: the token registered for the fd and the
/// event mask the kernel reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The `u64` the fd was registered with.
    pub token: u64,
    /// `EPOLLIN | EPOLLOUT | EPOLLERR | EPOLLHUP | EPOLLRDHUP` bits.
    pub events: u32,
}

impl Readiness {
    /// Whether the fd is readable (or the peer hung up, which reads as
    /// EOF).
    #[must_use]
    pub fn readable(self) -> bool {
        self.events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
    }

    /// Whether the fd is writable.
    #[must_use]
    pub fn writable(self) -> bool {
        self.events & EPOLLOUT != 0
    }

    /// Whether the kernel reported an error or hangup.
    #[must_use]
    pub fn closed(self) -> bool {
        self.events & (EPOLLERR | EPOLLHUP) != 0
    }
}

/// A safe epoll instance: owns the epoll fd, registers level-triggered
/// interest, and copies readiness out of the kernel buffer.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    /// The kernel's record buffer, allocated once.
    records: Box<[EpollEvent]>,
    ready: Vec<Readiness>,
}

const MAX_EVENTS: usize = 256;

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` error (fd exhaustion, …).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 touches no caller memory.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            records: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS].into_boxed_slice(),
            ready: Vec::with_capacity(MAX_EVENTS),
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest bits under `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error (already registered, bad fd, …).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest bits of a registered fd.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters an fd. Harmless if the fd was already closed (the
    /// kernel auto-removes closed fds).
    pub fn remove(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; EPOLL_CTL_DEL ignores the event but old
        // kernels require a non-null pointer.
        if let Err(_already_gone) = cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })
        {
            // The kernel auto-removes closed fds; nothing to undo.
        }
    }

    /// Blocks up to `timeout_ms` (−1 = forever) and returns the ready
    /// set. An empty slice means the timeout elapsed.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` error; `EINTR` is retried internally.
    pub fn wait(&mut self, timeout_ms: i32) -> io::Result<&[Readiness]> {
        let mut ready = std::mem::take(&mut self.ready);
        let waited = self.wait_into(timeout_ms, &mut ready);
        self.ready = ready;
        waited?;
        Ok(&self.ready)
    }

    /// [`Poller::wait`] into a caller-owned buffer (cleared first), so an
    /// event loop can keep using the poller while it walks the ready set
    /// and reuse one buffer for every wake.
    ///
    /// # Errors
    ///
    /// As [`Poller::wait`].
    pub fn wait_into(&mut self, timeout_ms: i32, ready: &mut Vec<Readiness>) -> io::Result<()> {
        ready.clear();
        let cap = MAX_EVENTS as i32;
        let n = loop {
            // SAFETY: `records` holds MAX_EVENTS records and outlives the call.
            let r = unsafe { epoll_wait(self.epfd, self.records.as_mut_ptr(), cap, timeout_ms) };
            if r >= 0 {
                break r as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.records[..n] {
            // Copy out of the (possibly packed) kernel record.
            let (events, data) = (ev.events, ev.data);
            ready.push(Readiness {
                token: data,
                events,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own epfd and close it exactly once.
        // scg-allow(SCG007): Drop cannot surface an error; ownership rules out double-close
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poller_reports_readability() {
        let mut poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        poller.add(rx.as_raw_fd(), 42, EPOLLIN).unwrap();
        assert!(poller.wait(0).unwrap().is_empty(), "nothing ready yet");
        tx.write_all(b"x").unwrap();
        let ready = poller.wait(1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 42);
        assert!(ready[0].readable());
        assert!(!ready[0].writable());
        poller.remove(rx.as_raw_fd());
        assert!(poller.wait(0).unwrap().is_empty(), "removed fd is silent");
    }

    #[test]
    fn modify_switches_interest() {
        let mut poller = Poller::new().unwrap();
        let (tx, mut _rx) = UnixStream::pair().unwrap();
        poller.add(tx.as_raw_fd(), 7, EPOLLIN).unwrap();
        assert!(poller.wait(0).unwrap().is_empty());
        // An idle socket with buffer space is immediately writable.
        poller
            .modify(tx.as_raw_fd(), 7, EPOLLIN | EPOLLOUT)
            .unwrap();
        let ready = poller.wait(1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert!(ready[0].writable());
    }
}
