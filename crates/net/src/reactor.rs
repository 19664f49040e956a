//! A hand-rolled readiness poller over Linux `epoll`, in the same
//! offline-vendored spirit as the WAL and the frame codec: no `mio`, no
//! `libc` crate — the three `epoll` syscall wrappers are declared
//! `extern "C"` and linked through glibc, which `std` already pulls in.
//!
//! The poller is level-triggered on purpose. Edge-triggered epoll requires
//! every handler to loop until `EWOULDBLOCK` or risk losing wakeups;
//! level-triggered lets the reactor read *bounded* amounts per readiness
//! event (fairness across connections — a firehose peer cannot monopolise
//! the loop) and simply get woken again if bytes remain.
//!
//! [`Waker`] is the classic self-pipe trick, built on
//! `UnixStream::pair()` so no raw `pipe2` declaration is needed: the
//! read end is registered with the poller under a reserved token, and any
//! thread can interrupt a blocking [`Poller::wait`] by writing one byte to
//! the other end. This is what makes stop/drain latency independent of the
//! poll interval — the old thread-per-connection server could only notice
//! a stop flag at its idle-poll cadence.

use bargain_common::{Error, Result};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// The epoll constants and calls we use (x86-64/aarch64 glibc values; these
// are stable ABI).
const EPOLLIN: u32 = 0x0001;
const EPOLLOUT: u32 = 0x0004;
const EPOLLERR: u32 = 0x0008;
const EPOLLHUP: u32 = 0x0010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel ABI
/// packs this struct (no padding between `events` and `data`); on other
/// 64-bit targets it is naturally aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// What a registered fd is ready for (or has suffered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup: the fd is dead or half-closed by the peer.
    pub hangup: bool,
}

/// Which readiness to watch for a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// The peer's half-close (`EPOLLRDHUP`) is watched only together with
    /// readability: it is level-triggered, so on a connection the loop has
    /// stopped reading — it saw the end of the stream and still owes
    /// replies — it would fire on every wait with nothing to read, which
    /// the loop takes for a dead peer. Without it only `EPOLLERR` and
    /// `EPOLLHUP` (always reported) can fire there: the peer is truly gone.
    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

fn last_os_error(what: &str) -> Error {
    Error::Io(format!("{what}: {}", io::Error::last_os_error()))
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> Result<Poller> {
        // SAFETY: plain syscall wrapper; no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error("epoll_create1"));
        }
        Ok(Poller { epfd })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest, "epoll_ctl(ADD)")
    }

    /// Changes the interest set of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest, "epoll_ctl(MOD)")
    }

    /// Removes `fd` from the poller. Harmless if the fd is already gone
    /// (closing an fd removes it from every epoll set automatically).
    pub fn deregister(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` outlives the call; DEL ignores the event but old
        // kernels demand a non-null pointer.
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest, what: &str) -> Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a valid, live epoll_event for the duration of the
        // call.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error(what));
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses, or a signal interrupts the wait (returned as zero events,
    /// like a timeout — callers just loop).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> Result<()> {
        events.clear();
        const CAP: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        let timeout_ms = timeout.map_or(-1i32, |d| {
            i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(0)
        });
        // SAFETY: `raw` is a live buffer of CAP epoll_events.
        let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(Error::Io(format!("epoll_wait: {e}")));
        }
        for ev in raw.iter().take(n as usize) {
            // A packed struct's fields must be copied out before use.
            let mask = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: mask & EPOLLIN != 0,
                writable: mask & EPOLLOUT != 0,
                hangup: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd we own.
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for a blocking [`Poller::wait`]: the read half is
/// registered with the poller, and [`WakerHandle::wake`] writes one byte to
/// the write half from any thread — unless a wake is already pending.
#[derive(Debug)]
pub(crate) struct Waker {
    /// Held by the reactor; registered with the poller.
    reader: UnixStream,
    shared: Arc<WakeShared>,
}

#[derive(Debug)]
struct WakeShared {
    writer: UnixStream,
    /// Set by the first `wake` after a drain, cleared by [`Waker::drain`]:
    /// while it is set a byte is in the pipe (or about to be), so further
    /// wakes skip the `write` and a burst of them costs one syscall pair.
    armed: AtomicBool,
}

impl Waker {
    pub fn new() -> Result<Waker> {
        let (reader, writer) = UnixStream::pair().map_err(Error::from)?;
        reader.set_nonblocking(true).map_err(Error::from)?;
        writer.set_nonblocking(true).map_err(Error::from)?;
        let armed = AtomicBool::new(false);
        Ok(Waker {
            reader,
            shared: Arc::new(WakeShared { writer, armed }),
        })
    }

    pub fn reader_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// A handle that can wake the reactor from another thread.
    pub fn handle(&self) -> WakerHandle {
        WakerHandle(Arc::clone(&self.shared))
    }

    /// Consumes the pending byte, then disarms — *before* the loop looks at
    /// what the wakers published: a waker that still finds the flag set
    /// published before that look, one that finds it clear writes a fresh
    /// byte. Only the arming wake writes, so one `read` empties the pipe.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while matches!((&self.reader).read(&mut buf), Ok(n) if n == buf.len()) {}
        self.shared.armed.store(false, Ordering::SeqCst);
    }
}

/// Clonable wake handle for other threads and the public `stop` path.
#[derive(Debug, Clone)]
pub(crate) struct WakerHandle(Arc<WakeShared>);

impl WakerHandle {
    /// Publish first, then wake: the loop looks after it disarms.
    pub fn wake(&self) {
        if !self.0.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.0.writer).write(&[1u8]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn poller_sees_listener_accept_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no connection yet");

        let _client = TcpStream::connect(addr).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener should be accept-ready: {events:?}"
        );
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.reader_fd(), u64::MAX, Interest::READ)
            .unwrap();
        let handle = waker.handle();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake should interrupt long before the timeout"
        );
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        waker.drain();
        t.join().unwrap();
    }

    #[test]
    fn a_burst_of_wakes_is_one_byte_and_the_next_wake_after_a_drain_writes_again() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.reader_fd(), 3, Interest::READ)
            .unwrap();
        let handle = waker.handle();
        let mut events = Vec::new();
        for round in 0..3 {
            for _ in 0..100 {
                handle.clone().wake();
            }
            let mut byte = [0u8; 8];
            assert_eq!((&waker.reader).read(&mut byte).unwrap(), 1, "round {round}");
            assert!(
                (&waker.reader).read(&mut byte).is_err(),
                "pipe holds one byte"
            );
            waker.drain();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert!(events.is_empty(), "drained: level-triggered wait is quiet");
        }
        handle.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    fn writable_interest_fires_for_a_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(
                client.as_raw_fd(),
                1,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "fresh socket should be writable: {events:?}"
        );
    }
}
