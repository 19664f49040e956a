//! The readiness-driven event loop both TCP servers run: one thread owns
//! the listener, a wakeup pipe, and every connection, all registered
//! non-blocking with the epoll [`Poller`]. This module is the connection
//! I/O half — accept, the incremental [`FrameDecoder`] feed, the reply
//! queue and its vectored flush, interest refresh, write-buffer
//! backpressure, the stall sweep, and the [`Waker`]-driven stop/drain —
//! and exists once. What a decoded message *means* is the [`Service`] on
//! top: [`crate::server`] starts each request on the thread that pumps its
//! connection, [`crate::certifier`] certifies inline on the loop thread.
//!
//! **Who may write a socket.** The loop owns the read side outright. The
//! write side is the connection's [`WriteHalf`]: the socket and the reply
//! queue behind one lock, on an `Arc` a service may hand to another thread.
//! Whoever holds that lock is the only writer, and a frame is written only
//! if nothing is queued ahead of it ([`WriteHalf::send_now`]) — otherwise,
//! or for whatever a non-blocking `write` did not take, it joins the queue
//! in order and the loop flushes it on `EPOLLOUT`. Bytes of two frames
//! therefore never interleave and no thread ever blocks on a socket.
//!
//! A frame may also be *held* ([`WriteHalf::hold`]): kept whole at the
//! head of an otherwise empty queue, to leave in the same `writev` as the
//! next frame sent or queued on the connection, or with the loop's next
//! flush of it, whichever comes first. At most [`MAX_IOVECS`] frames are
//! held, and never so many bytes that the queue would reach the
//! write-buffer cap. Held frames count as pending bytes, so a connection
//! holding one is neither reaped nor idle; `kill` discards them with the
//! rest of the queue.

use crate::codec::Message;
use crate::frame::{FrameDecoder, HEADER_LEN, PUSH_ID};
use crate::reactor::{Interest, Poller, Waker, WakerHandle};
use crate::server::NetServerConfig;
use bargain_common::{Error, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-readiness-event read budget: bounded so one firehose connection
/// cannot monopolise the loop; level-triggered epoll re-arms for the
/// remainder.
const READ_CHUNK: usize = 64 * 1024;
const READS_PER_EVENT: usize = 4;
/// Max `IoSlice`s per vectored flush (well under any IOV_MAX).
const MAX_IOVECS: usize = 64;
/// The loop stops reading a connection that has this many decoded requests
/// waiting for their turn (one read event may overshoot) and resumes below
/// half of it; TCP backpressure then holds the rest at the sender. Without
/// the bound a client that pipelines faster than the cluster executes grows
/// the queue without limit, even while it reads every reply.
const MAX_QUEUED_REQUESTS: usize = 1024;
/// Reading resumes when fewer than this many requests are queued; whoever
/// takes the queue below it off the loop thread tells the loop.
pub(crate) const RESUME_QUEUED_REQUESTS: usize = MAX_QUEUED_REQUESTS / 2;

/// What the two servers put on top of the shared loop. Every hook runs on
/// the loop thread, so none may block on a socket.
pub(crate) trait Service {
    /// Per-connection service state, kept in [`Conn::data`].
    type Conn;

    /// A connection was accepted; `core.conns` still holds only the older
    /// ones. Returns the newcomer's state, which may keep a clone of `half`
    /// to answer from other threads.
    fn accepted(
        &mut self,
        core: &mut Core<Self::Conn>,
        token: u64,
        half: &Arc<WriteHalf>,
    ) -> Self::Conn;

    /// The messages one readiness event decoded from `conn`, in arrival
    /// order. Replies go through [`Conn::enqueue_reply`]; the loop flushes
    /// them in one vectored write at the end of the iteration.
    fn messages(&mut self, conn: &mut Conn<Self::Conn>, msgs: Vec<(u64, Message)>);

    /// Once per iteration, after the readiness events. The service pushes
    /// onto `dirty` the token of every connection it gave output to.
    fn turn(&mut self, core: &mut Core<Self::Conn>, draining: bool, dirty: &mut Vec<u64>);

    /// After `conn` flushed, while it is open and under its write-buffer
    /// cap: start whatever it has queued.
    fn dispatch(&mut self, _conn: &mut Conn<Self::Conn>) {}

    /// What this connection still owes, read in one step: other threads
    /// may be starting its next request while the loop looks.
    fn load(_conn: &Self::Conn) -> Load {
        Load::default()
    }

    /// Whether nothing dispatched is still out; drain waits for it.
    fn quiesced(&self) -> bool {
        true
    }

    /// Bytes the loop just read from, or wrote to, a socket.
    fn transferred(&self, _read: usize, _written: usize) {}
}

/// A connection's unfinished work, as its service reports it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Load {
    /// Work of this connection is executing off the loop thread (it will
    /// produce output later, so the connection must stay).
    pub busy: bool,
    /// Decoded requests waiting for their turn.
    pub queued: usize,
}

/// Stops a running loop from any thread: sets the flag and writes the
/// wakeup pipe, so drain starts immediately rather than at the next tick.
pub(crate) struct Stopper {
    pub flag: Arc<AtomicBool>,
    pub waker: WakerHandle,
}

impl Stopper {
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// Encodes `msg` as one reply frame, in one buffer. Only an over-size
/// payload can fail to encode; it degrades to an error reply, which is
/// small by construction.
pub(crate) fn encode_reply(request_id: u64, msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + 64);
    if let Err(e) = msg.append_frame(&mut frame, request_id) {
        let _ = Message::Err(e).append_frame(&mut frame, request_id);
    }
    frame
}

/// How [`WriteHalf::send_now`] or [`WriteHalf::hold`] disposed of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sent {
    /// Every byte is in the socket.
    Direct,
    /// Held back, whole, to leave with the next frame or flush.
    Held,
    /// All or part of it waits in the queue: the loop must flush it.
    Queued,
    /// The connection is gone; the frame was discarded.
    Dead,
}

/// The reply queue of a connection.
struct OutQueue {
    /// Encoded reply frames not yet written, oldest first.
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames.front()` already written.
    offset: usize,
    /// Total unwritten bytes across `frames`.
    bytes: usize,
    /// How many of `frames` are held: when it is not 0, it is all of them,
    /// none written yet, and nothing waits for the socket.
    held: usize,
    /// Last write progress (write-stall detection while replies pend).
    last_progress: Instant,
    /// The loop closed the connection: discard what arrives late.
    dead: bool,
}

impl OutQueue {
    /// Writes as much of the queue as the socket accepts, held frames
    /// included, vectoring up to [`MAX_IOVECS`] frames per syscall and
    /// counting each write in `writes`. Returns `false` if the connection
    /// died.
    fn flush(&mut self, mut stream: &TcpStream, writes: &AtomicU64) -> bool {
        self.held = 0;
        while !self.frames.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.frames.len().min(MAX_IOVECS));
            for (i, frame) in self.frames.iter().take(MAX_IOVECS).enumerate() {
                let start = if i == 0 { self.offset } else { 0 };
                slices.push(IoSlice::new(&frame[start..]));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return false,
                Ok(mut n) => {
                    writes.fetch_add(1, Ordering::Relaxed);
                    self.last_progress = Instant::now();
                    self.bytes -= n;
                    while n > 0 {
                        let front_left = self.frames.front().map_or(0, Vec::len) - self.offset;
                        if n >= front_left {
                            n -= front_left;
                            self.frames.pop_front();
                            self.offset = 0;
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// The part of a connection other threads may hold: its socket and reply
/// queue behind one lock (see the module docs for the write rule), plus the
/// two facts about the connection whoever finishes its work must know. The
/// loop reads the socket without the lock; nobody else reads it.
pub(crate) struct WriteHalf {
    stream: TcpStream,
    out: Mutex<OutQueue>,
    /// Peer closed its write side (or framing broke): read no more.
    read_closed: AtomicBool,
    /// Flush pending replies, then close.
    closing: AtomicBool,
    /// Socket writes that carried bytes, shared by every connection of one
    /// loop ([`Core::writes`]).
    writes: Arc<AtomicU64>,
}

impl WriteHalf {
    fn new(stream: TcpStream, writes: Arc<AtomicU64>) -> WriteHalf {
        WriteHalf {
            stream,
            out: Mutex::new(OutQueue {
                frames: VecDeque::new(),
                offset: 0,
                bytes: 0,
                held: 0,
                last_progress: Instant::now(),
                dead: false,
            }),
            read_closed: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            writes,
        }
    }

    /// Queues `frame` behind whatever is pending, held frames included; the
    /// loop flushes it at the end of its iteration.
    pub fn enqueue(&self, frame: Vec<u8>) {
        let mut out = self.out.lock();
        if !out.dead {
            out.held = 0;
            out.bytes += frame.len();
            out.frames.push_back(frame);
        }
    }

    /// The one write operation for threads other than the loop: writes
    /// `frame` now, with any held frames ahead of it in the same `writev`,
    /// if nothing else is queued ahead of it, and queues it — or the rest
    /// after a partial write — otherwise. Never blocks. On [`Sent::Queued`]
    /// the caller must tell the loop, which alone can wait for the socket;
    /// a write error also reads as queued, and the loop meets the same
    /// error when it flushes.
    pub fn send_now(&self, frame: Vec<u8>) -> Sent {
        self.send(frame, None)
    }

    /// [`WriteHalf::send_now`], except that `frame` is held back, whole, to
    /// leave with the next frame or the loop's next flush, if nothing but
    /// held frames is queued, fewer than [`MAX_IOVECS`] are held, and the
    /// queue stays under `cap` bytes with it. Whoever holds a frame must
    /// know of a later event that releases it.
    pub fn hold(&self, frame: Vec<u8>, cap: usize) -> Sent {
        self.send(frame, Some(cap))
    }

    fn send(&self, frame: Vec<u8>, hold_under: Option<usize>) -> Sent {
        let mut out = self.out.lock();
        if out.dead {
            return Sent::Dead;
        }
        let nothing_ahead = out.frames.len() == out.held;
        out.bytes += frame.len();
        out.frames.push_back(frame);
        if nothing_ahead {
            if hold_under.is_some_and(|cap| out.held < MAX_IOVECS && out.bytes < cap) {
                out.held += 1;
                return Sent::Held;
            }
            out.flush(&self.stream, &self.writes);
        }
        if out.frames.is_empty() {
            Sent::Direct
        } else {
            Sent::Queued
        }
    }

    /// Flushes the queue, held frames included. Returns whether the
    /// connection is alive, the bytes written, and the bytes left.
    fn flush(&self) -> (bool, usize, usize) {
        let mut out = self.out.lock();
        let before = out.bytes;
        let alive = out.flush(&self.stream, &self.writes);
        (alive, before - out.bytes, out.bytes)
    }

    /// Unwritten reply bytes, held ones included: what the write-buffer cap
    /// bounds.
    pub fn pending_bytes(&self) -> usize {
        self.out.lock().bytes
    }

    /// The loop is done with the connection. A thread still holding the
    /// half keeps the descriptor open, so the socket is shut down for the
    /// peer to see the close at once; late frames are discarded, and
    /// `closing` tells that thread to start nothing more.
    fn kill(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let mut out = self.out.lock();
        out.dead = true;
        out.frames.clear();
        out.bytes = 0;
        out.held = 0;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    pub fn read_closed(&self) -> bool {
        self.read_closed.load(Ordering::SeqCst)
    }

    pub fn closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }
}

/// One connection's I/O state plus the service's own (`data`).
pub(crate) struct Conn<D> {
    half: Arc<WriteHalf>,
    pub token: u64,
    decoder: FrameDecoder,
    interest: Interest,
    /// Last byte received (read-stall detection while mid-frame).
    last_rx: Instant,
    pub data: D,
}

impl<D> Conn<D> {
    pub fn enqueue_reply(&mut self, request_id: u64, msg: &Message) {
        self.half.enqueue(encode_reply(request_id, msg));
    }

    /// Answer with `msg`, then close once it has flushed.
    pub fn close_after(&mut self, request_id: u64, msg: &Message) {
        self.enqueue_reply(request_id, msg);
        self.half.read_closed.store(true, Ordering::SeqCst);
        self.set_closing();
    }

    pub fn closing(&self) -> bool {
        self.half.closing()
    }

    /// Flush pending replies, then close; no new work starts.
    pub fn set_closing(&mut self) {
        self.half.closing.store(true, Ordering::SeqCst);
    }

    /// Flushes as much pending output as the socket accepts. Returns
    /// `false` if the connection died.
    pub fn flush_out(&mut self) -> bool {
        self.half.flush().0
    }
}

/// The loop's own state: sockets, poller, stop flag.
pub(crate) struct Core<D> {
    poller: Poller,
    waker: Waker,
    listener: Option<TcpListener>,
    pub conns: HashMap<u64, Conn<D>>,
    next_token: u64,
    stop: Arc<AtomicBool>,
    /// Timeouts, tick, drain grace and the write-buffer cap. The frontend
    /// passes its own; the certifier service runs with the defaults.
    config: NetServerConfig,
    /// Set when the stop flag is first observed; the force-close deadline.
    drain_deadline: Option<Instant>,
    /// Socket writes that carried bytes, over every connection.
    writes: Arc<AtomicU64>,
    /// Socket reads that brought bytes, over every connection.
    reads: Arc<AtomicU64>,
}

impl<D> Core<D> {
    /// Binds `addr` (port 0 for OS-assigned) and registers the listener
    /// and the wakeup pipe. Returns the loop state, the address actually
    /// bound, and the handle that stops the loop.
    pub fn bind(addr: &str, config: NetServerConfig) -> Result<(Core<D>, SocketAddr, Stopper)> {
        let listener = TcpListener::bind(addr).map_err(Error::from)?;
        listener.set_nonblocking(true).map_err(Error::from)?;
        let addr = listener.local_addr().map_err(Error::from)?;
        let waker = Waker::new()?;
        let stopper = Stopper {
            flag: Arc::new(AtomicBool::new(false)),
            waker: waker.handle(),
        };
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.reader_fd(), TOKEN_WAKER, Interest::READ)?;
        let core = Core {
            poller,
            waker,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            stop: Arc::clone(&stopper.flag),
            config,
            drain_deadline: None,
            writes: Arc::default(),
            reads: Arc::default(),
        };
        Ok((core, addr, stopper))
    }

    /// The count of socket writes that carried bytes, by any thread, over
    /// every connection of this loop.
    pub fn writes(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.writes)
    }

    /// The count of socket reads that brought bytes, over every connection
    /// of this loop.
    pub fn reads(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.reads)
    }

    /// Runs `service` until a stop has been requested and drained.
    pub fn run<S: Service<Conn = D>>(mut self, mut service: S) -> Result<()> {
        let mut events = Vec::new();
        let mut read_buf = vec![0u8; READ_CHUNK];
        loop {
            let timeout = if self.drain_deadline.is_some() {
                // Draining: tick fast so quiescence is noticed promptly
                // even if a completion's wake raced the previous drain.
                Duration::from_millis(10)
            } else {
                self.config.poll_interval
            };
            self.poller.wait(&mut events, Some(timeout))?;

            // Tokens whose connection needs a flush / dispatch / interest
            // refresh this iteration.
            let mut dirty: Vec<u64> = Vec::new();

            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(&mut service),
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        if ev.hangup && !ev.readable {
                            self.close_conn(token);
                            continue;
                        }
                        // A peer that hung up after sending is answered:
                        // the reads below consume what it sent, over as
                        // many events as that takes, and the one that
                        // returns 0 stops the reading.
                        if ev.readable {
                            self.read_ready(token, &mut read_buf, &mut service);
                        }
                        dirty.push(token);
                    }
                }
            }

            let draining = self.check_stop();
            service.turn(&mut self, draining, &mut dirty);
            if draining {
                dirty.extend(self.conns.keys().copied());
            }

            // Dispatch, then flush: replies enqueued by several
            // completions (or several inline handlers) in this iteration
            // leave in one vectored write per connection.
            dirty.sort_unstable();
            dirty.dedup();
            for token in dirty {
                self.service_conn(token, draining, &mut service);
            }

            self.sweep(draining);

            if draining && self.drain_complete(service.quiesced()) {
                return Ok(());
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready<S: Service<Conn = D>>(&mut self, service: &mut S) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.stop.load(Ordering::SeqCst) {
                        continue; // accepted only to close: we are draining
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = Interest::READ;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, interest)
                        .is_err()
                    {
                        continue;
                    }
                    let half = Arc::new(WriteHalf::new(stream, Arc::clone(&self.writes)));
                    let data = service.accepted(self, token, &half);
                    self.conns.insert(
                        token,
                        Conn {
                            half,
                            token,
                            decoder: FrameDecoder::new(),
                            interest,
                            last_rx: Instant::now(),
                            data,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Reads whatever the socket has (bounded per event), feeds the
    /// incremental decoder, and hands the decoded messages to the service.
    fn read_ready<S: Service<Conn = D>>(&mut self, token: u64, buf: &mut [u8], service: &mut S) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.half.read_closed() || conn.closing() {
            return;
        }
        let mut frames = Vec::new();
        let mut budget = READS_PER_EVENT;
        while budget > 0 {
            budget -= 1;
            match (&conn.half.stream).read(buf) {
                Ok(0) => {
                    conn.half.read_closed.store(true, Ordering::SeqCst);
                    break;
                }
                Ok(n) => {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                    conn.last_rx = Instant::now();
                    service.transferred(n, 0);
                    if let Err(e) = conn.decoder.feed(&buf[..n], &mut frames) {
                        // Framing is lost: report once and close after the
                        // error flushes (the id of the broken frame is
                        // unknowable, so the report is a push). No new
                        // work after a fatal reply.
                        conn.close_after(PUSH_ID, &Message::Err(e));
                        return;
                    }
                    if n < buf.len() {
                        break; // drained the socket
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => budget += 1,
                Err(_) => {
                    conn.half.read_closed.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        if frames.is_empty() {
            return;
        }
        let mut msgs = Vec::with_capacity(frames.len());
        let mut undecodable = None;
        for frame in frames {
            match Message::decode(frame.kind, &frame.payload) {
                Ok(msg) => msgs.push((frame.request_id, msg)),
                Err(e) => {
                    undecodable = Some((frame.request_id, e));
                    break;
                }
            }
        }
        if !msgs.is_empty() {
            service.messages(conn, msgs);
        }
        if let (Some((request_id, e)), false) = (undecodable, conn.closing()) {
            // A well-framed but undecodable payload: the peer's codec
            // disagrees with ours, so framing trust is gone.
            conn.close_after(request_id, &Message::Err(e));
        }
    }

    /// Flushes pending replies, lets the service dispatch, refreshes epoll
    /// interest, and reaps the connection if it is finished.
    fn service_conn<S: Service<Conn = D>>(&mut self, token: u64, draining: bool, service: &mut S) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let cap = self.config.max_conn_write_buffer;

        // Flush before dispatching, so write progress releases
        // backpressure within the same iteration.
        let (alive, written, left) = conn.half.flush();
        service.transferred(0, written);
        if !alive {
            self.close_conn(token);
            return;
        }

        // No new work for a connection that is going away, is past its
        // write-buffer cap (backpressure), or belongs to a draining server.
        let (closing, read_closed) = (conn.closing(), conn.half.read_closed());
        if !closing && !draining && left < cap {
            service.dispatch(conn);
        }

        // A connection is done when it will never produce output again: a
        // drain reads no more requests, so from its start that is any
        // connection with nothing in flight, queued or unflushed. The flags
        // above were published before this look at the load, and whoever
        // finishes work off the loop writes its reply before it clears
        // `busy` and reads the flags after: if the connection looks busy
        // here that thread tells the loop, and if it does not, its reply is
        // already counted in `pending`.
        let load = S::load(&conn.data);
        let pending = conn.half.pending_bytes();
        let idle = (read_closed || draining) && load.queued == 0;
        let finished = !load.busy && pending == 0 && (closing || idle);
        if finished {
            self.close_conn(token);
            return;
        }

        // Reading stops at the request-queue bound and resumes below half.
        let backlog = if conn.interest.readable {
            MAX_QUEUED_REQUESTS
        } else {
            RESUME_QUEUED_REQUESTS
        };
        let want = Interest {
            readable: !read_closed
                && !closing
                && !draining
                && pending < cap
                && load.queued < backlog,
            writable: pending > 0,
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.half.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Observes the stop flag; on the first observation closes the
    /// listener and arms the force-close deadline.
    fn check_stop(&mut self) -> bool {
        if !self.stop.load(Ordering::SeqCst) {
            return false;
        }
        if self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + self.config.shutdown_grace);
            if let Some(listener) = self.listener.take() {
                self.poller.deregister(listener.as_raw_fd());
            }
        }
        true
    }

    /// True when every connection is gone (or the grace deadline forces
    /// the issue) and the service has nothing dispatched still out.
    fn drain_complete(&mut self, quiesced: bool) -> bool {
        let deadline = self.drain_deadline.expect("draining");
        if Instant::now() >= deadline {
            // Grace expired: force-close everything still open. Work still
            // out finishes where it runs and its results are discarded.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.close_conn(token);
            }
            return true;
        }
        // Done once every socket is closed and everything dispatched has
        // come back, so per-connection state unwinds through the normal
        // path rather than being dropped inside a channel.
        self.conns.is_empty() && quiesced
    }

    /// Periodic housekeeping: stall detection. During drain, quiescent
    /// connections are reaped by `service_conn` and stalled ones by the
    /// grace deadline.
    fn sweep(&mut self, draining: bool) {
        if draining {
            return;
        }
        let now = Instant::now();
        let config = &self.config;
        let doomed: Vec<u64> = self
            .conns
            .values()
            .filter(|conn| {
                let read_stalled = config.read_timeout.is_some_and(|t| {
                    conn.decoder.mid_frame() && now.duration_since(conn.last_rx) > t
                });
                // Unflushed output means `EPOLLOUT` is armed: only those
                // connections' queues are looked into. Held frames do not
                // wait for the socket.
                let write_stalled = conn.interest.writable
                    && config.write_timeout.is_some_and(|t| {
                        let out = conn.half.out.lock();
                        out.frames.len() > out.held && now.duration_since(out.last_progress) > t
                    });
                read_stalled || write_stalled
            })
            .map(|conn| conn.token)
            .collect();
        for token in doomed {
            self.close_conn(token);
        }
    }

    /// Drops the connection — whatever state the service kept in it — and
    /// closes its socket, whoever else still holds the write half.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.half.stream.as_raw_fd());
            conn.half.kill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: the half under test on a non-blocking
    /// socket, as the loop accepts them, and its peer.
    fn pair() -> (WriteHalf, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (WriteHalf::new(stream, Arc::default()), peer)
    }

    #[test]
    fn write_half_writes_directly_queues_in_order_and_discards_when_dead() {
        let (half, mut peer) = pair();

        // Nothing queued: the frame goes straight to the socket.
        assert_eq!(half.send_now(b"one".to_vec()), Sent::Direct);
        assert_eq!(half.pending_bytes(), 0);

        // Something queued (an inline reply the loop has not flushed yet):
        // the frame goes behind it, though the socket would take it.
        half.enqueue(b"two".to_vec());
        assert_eq!(half.send_now(b"three".to_vec()), Sent::Queued);
        assert_eq!(half.pending_bytes(), 8);
        assert_eq!(half.flush(), (true, 8, 0));

        // More than the socket takes, with the peer not reading: the
        // written part is gone, the remainder stays at the head with its
        // offset, and a later frame queues behind it.
        let big: Vec<u8> = (0..16usize << 20).map(|i| (i % 251) as u8).collect();
        assert_eq!(half.send_now(big.clone()), Sent::Queued);
        let left = half.pending_bytes();
        assert!(0 < left && left < big.len(), "{left} of {} left", big.len());
        {
            let out = half.out.lock();
            assert_eq!((out.frames.len(), out.offset), (1, big.len() - left));
        }
        assert_eq!(half.send_now(b"tail".to_vec()), Sent::Queued);
        assert_eq!(half.pending_bytes(), left + 4);

        // The peer reads while the queue is flushed, as the loop would on
        // `EPOLLOUT`: every byte arrives once, in order.
        let expected = [b"onetwothree".as_slice(), &big, b"tail"].concat();
        let wanted = expected.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; wanted];
            peer.read_exact(&mut got).unwrap();
            (got, peer)
        });
        while half.pending_bytes() > 0 {
            assert!(half.flush().0);
            std::thread::yield_now();
        }
        let (got, mut peer) = reader.join().unwrap();
        assert!(got == expected, "the byte stream is the frames in order");

        // A dead half discards, and the peer sees the close although this
        // side still holds the descriptor.
        half.kill();
        assert_eq!(half.send_now(b"late".to_vec()), Sent::Dead);
        half.enqueue(b"later".to_vec());
        assert_eq!(half.pending_bytes(), 0);
        assert!(half.closing());
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0);
    }

    /// What the peer has received so far, without waiting for more.
    fn received(peer: &mut TcpStream) -> Vec<u8> {
        std::thread::sleep(Duration::from_millis(20));
        peer.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let _ = peer.read_to_end(&mut got);
        peer.set_nonblocking(false).unwrap();
        got
    }

    #[test]
    fn held_frames_leave_together_with_the_next_frame_or_flush() {
        let (half, mut peer) = pair();
        let writes = || half.writes.load(Ordering::Relaxed);

        // Held frames count as pending but stay off the wire; the next
        // frame sent takes them along in one write.
        assert_eq!(half.hold(b"one".to_vec(), 1 << 20), Sent::Held);
        assert_eq!(half.hold(b"two".to_vec(), 1 << 20), Sent::Held);
        assert_eq!(half.pending_bytes(), 6);
        assert_eq!(received(&mut peer), b"");
        assert_eq!(half.send_now(b"three".to_vec()), Sent::Direct);
        assert_eq!((half.pending_bytes(), writes()), (0, 1));
        assert_eq!(received(&mut peer), b"onetwothree");

        // A frame queued behind held ones (an inline answer) releases them
        // to the loop's flush, in order.
        assert_eq!(half.hold(b"four".to_vec(), 1 << 20), Sent::Held);
        half.enqueue(b"five".to_vec());
        assert_eq!(half.hold(b"six".to_vec(), 1 << 20), Sent::Queued);
        assert_eq!(half.flush(), (true, 11, 0));
        assert_eq!(received(&mut peer), b"fourfivesix");

        // The loop's flush releases held frames by themselves.
        assert_eq!(half.hold(b"seven".to_vec(), 1 << 20), Sent::Held);
        assert_eq!(half.flush(), (true, 5, 0));
        assert_eq!(received(&mut peer), b"seven");

        // At most `MAX_IOVECS` frames are held: the next goes with them.
        for _ in 0..MAX_IOVECS {
            assert_eq!(half.hold(b"h".to_vec(), 1 << 20), Sent::Held);
        }
        let before = writes();
        assert_eq!(half.hold(b"!".to_vec(), 1 << 20), Sent::Direct);
        assert_eq!(writes() - before, 2, "64 iovecs a write");
        let expected = [vec![b'h'; MAX_IOVECS], b"!".to_vec()].concat();
        assert_eq!(received(&mut peer), expected);

        // A frame that would bring the queue to the cap is written.
        assert_eq!(half.hold(b"abc".to_vec(), 7), Sent::Held);
        assert_eq!(half.hold(b"defg".to_vec(), 7), Sent::Direct);
        assert_eq!(received(&mut peer), b"abcdefg");

        // A killed half discards held frames with the rest.
        assert_eq!(half.hold(b"lost".to_vec(), 1 << 20), Sent::Held);
        half.kill();
        assert_eq!(half.pending_bytes(), 0);
        assert_eq!(half.hold(b"late".to_vec(), 1 << 20), Sent::Dead);
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0);
    }
}
