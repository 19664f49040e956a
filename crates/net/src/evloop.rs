//! The readiness-driven event loop both TCP servers run: one thread owns
//! the listener, a wakeup pipe, and every connection, all registered
//! non-blocking with the epoll [`Poller`]. This module is the connection
//! I/O half — accept, the incremental [`FrameDecoder`] feed, the reply
//! queue and its vectored flush, interest refresh, write-buffer
//! backpressure, the stall sweep, and the [`Waker`]-driven stop/drain —
//! and exists once. What a decoded message *means* is the [`Service`] on
//! top: [`crate::server`] submits transactions to the cluster and queues
//! the blocking requests for its admin pool, [`crate::certifier`] certifies
//! inline on the loop thread.

use crate::codec::Message;
use crate::frame::{encode_frame, FrameDecoder, PUSH_ID};
use crate::reactor::{Interest, Poller, Waker, WakerHandle};
use crate::server::NetServerConfig;
use bargain_common::{Error, Result};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// What the two servers put on top of the shared loop. Every hook runs on
/// the loop thread, so none may block on a socket.
pub(crate) trait Service {
    /// Per-connection service state, kept in [`Conn::data`].
    type Conn;

    /// A connection was accepted; `core.conns` still holds only the older
    /// ones. Returns the newcomer's state.
    fn accepted(&mut self, core: &mut Core<Self::Conn>) -> Self::Conn;

    /// The messages one readiness event decoded from `conn`, in arrival
    /// order. Replies go through [`Conn::enqueue_reply`]; the loop flushes
    /// them in one vectored write at the end of the iteration.
    fn messages(&mut self, conn: &mut Conn<Self::Conn>, msgs: Vec<(u64, Message)>);

    /// Whether the service holds finished work it has not announced yet.
    /// The next wait then polls without blocking, and [`Service::turn`]
    /// sees `idle` if nothing else arrived: such work never sits across a
    /// timed wait.
    fn holds_output(&self) -> bool {
        false
    }

    /// Once per iteration, after the readiness events: `idle` means the
    /// wait returned none. The service pushes onto `dirty` the token of
    /// every connection it gave output to.
    fn turn(
        &mut self,
        core: &mut Core<Self::Conn>,
        idle: bool,
        draining: bool,
        dirty: &mut Vec<u64>,
    );

    /// After `conn` flushed, while it is open and under its write-buffer
    /// cap: start whatever it has queued.
    fn dispatch(&mut self, _conn: &mut Conn<Self::Conn>) {}

    /// Whether work of this connection is executing off the loop thread
    /// (it will produce output later, so the connection must stay).
    fn busy(_conn: &Self::Conn) -> bool {
        false
    }

    /// Whether this connection has requests waiting to be dispatched.
    fn queued(_conn: &Self::Conn) -> bool {
        false
    }

    /// Whether nothing dispatched is still out; drain waits for it.
    fn quiesced(&self) -> bool {
        true
    }

    /// Bytes the loop just read from, or wrote to, a socket.
    fn transferred(&self, _read: usize, _written: usize) {}
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

/// Encodes `msg` as one reply frame. Only an over-size payload can fail to
/// encode; it degrades to an error reply, which is small by construction.
pub(crate) fn encode_reply(request_id: u64, msg: &Message) -> Vec<u8> {
    encode_frame(msg.kind(), request_id, &msg.encode())
        .or_else(|e| {
            let err = Message::Err(e);
            encode_frame(err.kind(), request_id, &err.encode())
        })
        .unwrap_or_default()
}

/// One connection's I/O state plus the service's own (`data`).
pub(crate) struct Conn<D> {
    stream: TcpStream,
    pub token: u64,
    decoder: FrameDecoder,
    /// Encoded reply frames not yet written, oldest first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    out_offset: usize,
    /// Total unwritten bytes across `out`.
    out_bytes: usize,
    /// Peer closed its write side (or framing broke): read no more.
    pub read_closed: bool,
    /// Flush pending replies, then close.
    pub closing: bool,
    interest: Interest,
    last_activity: Instant,
    /// Last byte received (read-stall detection while mid-frame).
    last_rx: Instant,
    /// Last write progress (write-stall detection while replies pend).
    last_tx_progress: Instant,
    pub data: D,
}

impl<D> Conn<D> {
    pub fn enqueue_reply(&mut self, request_id: u64, msg: &Message) {
        self.enqueue_frame(encode_reply(request_id, msg));
    }

    pub fn enqueue_frame(&mut self, frame: Vec<u8>) {
        self.out_bytes += frame.len();
        self.out.push_back(frame);
    }

    /// Answer with `msg`, then close once it has flushed.
    pub fn close_after(&mut self, request_id: u64, msg: &Message) {
        self.enqueue_reply(request_id, msg);
        self.read_closed = true;
        self.closing = true;
    }

    /// Flushes as much pending output as the socket accepts, vectoring up
    /// to [`MAX_IOVECS`] queued frames per syscall. Returns `false` if the
    /// connection died.
    pub fn flush_out(&mut self) -> bool {
        while !self.out.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.out.len().min(MAX_IOVECS));
            for (i, frame) in self.out.iter().take(MAX_IOVECS).enumerate() {
                let start = if i == 0 { self.out_offset } else { 0 };
                slices.push(IoSlice::new(&frame[start..]));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => return false,
                Ok(mut n) => {
                    self.last_tx_progress = Instant::now();
                    self.out_bytes -= n;
                    while n > 0 {
                        let front_left = self.out.front().map_or(0, Vec::len) - self.out_offset;
                        if n >= front_left {
                            n -= front_left;
                            self.out.pop_front();
                            self.out_offset = 0;
                        } else {
                            self.out_offset += n;
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
        };
        Ok((core, addr, stopper))
    }

    /// Runs `service` until a stop has been requested and drained.
    pub fn run<S: Service<Conn = D>>(mut self, mut service: S) -> Result<()> {
        let mut events = Vec::new();
        let mut read_buf = vec![0u8; READ_CHUNK];
        loop {
            let timeout = if service.holds_output() {
                Duration::ZERO
            } else if self.drain_deadline.is_some() {
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
                        if ev.readable {
                            self.read_ready(token, &mut read_buf, &mut service);
                        }
                        if ev.hangup {
                            // Consume what the peer sent before hanging
                            // up (done above), then stop reading.
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.read_closed = true;
                            }
                        }
                        dirty.push(token);
                    }
                }
            }

            let draining = self.check_stop();
            service.turn(&mut self, events.is_empty(), draining, &mut dirty);
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

            self.sweep::<S>(draining);

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
                    let data = service.accepted(self);
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            token,
                            decoder: FrameDecoder::new(),
                            out: VecDeque::new(),
                            out_offset: 0,
                            out_bytes: 0,
                            read_closed: false,
                            closing: false,
                            interest,
                            last_activity: now,
                            last_rx: now,
                            last_tx_progress: now,
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
        if conn.read_closed || conn.closing {
            return;
        }
        let mut frames = Vec::new();
        let mut budget = READS_PER_EVENT;
        while budget > 0 {
            budget -= 1;
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
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
                    conn.read_closed = true;
                    break;
                }
            }
        }
        if frames.is_empty() {
            return;
        }
        conn.last_activity = Instant::now();
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
        if let (Some((request_id, e)), false) = (undecodable, conn.closing) {
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
        let unwritten = conn.out_bytes;
        let alive = conn.flush_out();
        service.transferred(0, unwritten - conn.out_bytes);
        if !alive {
            self.close_conn(token);
            return;
        }

        // No new work for a connection that is going away, is past its
        // write-buffer cap (backpressure), or belongs to a draining server.
        if !conn.closing && !draining && conn.out_bytes < cap {
            service.dispatch(conn);
        }

        // A connection is done when it will never produce output again.
        let finished = conn.out.is_empty()
            && !S::busy(&conn.data)
            && (conn.closing || (conn.read_closed && !S::queued(&conn.data)));
        if finished {
            self.close_conn(token);
            return;
        }

        let want = Interest {
            readable: !conn.read_closed && !conn.closing && !draining && conn.out_bytes < cap,
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
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

    /// Periodic housekeeping: idle reaping and stall detection. During
    /// drain, quiescent connections are reaped by `service_conn` and
    /// stalled ones by the grace deadline.
    fn sweep<S: Service<Conn = D>>(&mut self, draining: bool) {
        if draining {
            return;
        }
        let now = Instant::now();
        let config = &self.config;
        let doomed: Vec<u64> = self
            .conns
            .values()
            .filter(|conn| {
                let idle_expired = config.idle_timeout.is_some_and(|idle| {
                    now.duration_since(conn.last_activity) > idle
                        && !S::busy(&conn.data)
                        && !S::queued(&conn.data)
                        && conn.out.is_empty()
                });
                let read_stalled = config.read_timeout.is_some_and(|t| {
                    conn.decoder.mid_frame() && now.duration_since(conn.last_rx) > t
                });
                let write_stalled = config.write_timeout.is_some_and(|t| {
                    !conn.out.is_empty() && now.duration_since(conn.last_tx_progress) > t
                });
                idle_expired || read_stalled || write_stalled
            })
            .map(|conn| conn.token)
            .collect();
        for token in doomed {
            self.close_conn(token);
        }
    }

    /// Drops the connection: its socket, and whatever state the service
    /// kept in it.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}
