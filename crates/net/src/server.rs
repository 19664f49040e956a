//! The frontend server: hosts a [`Cluster`] behind a TCP listener and
//! serves the session protocol to remote clients.
//!
//! # Architecture: client → reactor → replica → client's socket
//!
//! One **reactor thread** owns every socket's read side (the connection
//! I/O half lives in [`crate::evloop`]). Every request is started by the
//! thread that pumps its connection (`pump`). A [`Message::Run`] is
//! submitted to the cluster — routing is a lock and an enqueue — and the
//! replica thread that finishes the transaction encodes the reply, writes
//! it to the client's socket through the connection's shared write half,
//! and starts the connection's next queued `Run` itself. Only the reactor
//! starts the other requests. It answers `OpenSession`, `Prepare`, `Stats`
//! and `FetchHistory` inline: the SQL parser bounds what a `Prepare` costs
//! (`bargain_sql::MAX_SQL_BYTES`, `MAX_EXPR_DEPTH`), and a `History` reply
//! is one page of at most [`crate::codec::CATCH_UP_RECORDS`] records, the
//! page the certifier service answers with too. `Ddl` and `JoinRequest` go
//! to the cluster with their reply as the sink, as a `Run` does: the last
//! replica to apply the DDL, or the donor that exports the snapshot, writes
//! the answer. Every request's reply is one kind of sink, `Reply`, and no
//! thread parks on a request. The one wait left on the reactor is the
//! certifier lock a `FetchHistory` takes, which every replica thread takes
//! per update: one group commit at most.
//!
//! A settled request does not go back through the reactor: it wakes for
//! requests, and is *nudged* only for what another thread cannot do —
//! reply bytes the socket did not take (arm `EPOLLOUT`), a non-`Run`
//! request at the head of the queue, a connection to reap, a drain.
//!
//! Nor does a reply leave on its own while its connection has more work
//! queued. A reply whose connection's next queued request is a `Run` is
//! *held* in the write half (`evloop::WriteHalf::hold`) — unless the server is
//! stopping, the connection is closing, or bytes already wait for the
//! socket — and the `pump` that settled it starts that `Run` next. Held
//! frames leave in order, in one `writev`, with whichever comes first: the
//! first later reply that has no `Run` queued behind it, any frame queued
//! after them (a `Pong`, an inline answer, the rest of a full socket), or
//! the reactor's next flush of the connection. Every started `Run` settles
//! its reply exactly once, abandoned or not, and a `pump` that does not
//! start the `Run` (stop, closing) nudges the reactor, whose flush releases
//! them: a held reply always has a later event that sends it. The hold's
//! bounds are the ones the write half has anyway: at most 64 frames (one
//! `writev`'s worth), and never so many bytes that the queue reaches
//! `max_conn_write_buffer`.
//!
//! # Pipelining
//!
//! Every frame carries a `request_id` (protocol v2), so one connection may
//! have many requests in flight; replies echo the id and may complete out
//! of order *across* connections. Within a connection, requests execute
//! **serially in arrival order** (one request at a time): pipelining
//! removes the client's round-trip wait, not the per-session ordering —
//! which keeps a pipelined connection byte-equivalent to the same requests
//! issued one at a time (the differential oracle in `proptest_pipeline`).
//! The replies of a deep pipeline leave in batches (see above): the client
//! reads a batch in one `read` ([`crate::Connection`]) and writes the
//! requests it refills its window with in one `send`, so a window of 16
//! requests costs a few system calls a side, not two per request.
//! `Hello`/`Ping`/`StopServer` are answered on arrival, so heartbeats never
//! queue behind a transaction.
//!
//! # Backpressure
//!
//! A connection's write queue is capped (`max_conn_write_buffer`). A peer
//! that stops reading its replies fills the cap, and the reactor then
//! stops reading from — and nobody starts work for — *that connection
//! only*; every socket is non-blocking, so a stalled client can never
//! head-of-line-block other connections, the reactor or a replica thread.
//! The queue of decoded requests is bounded too
//! (1 024 of them, see `evloop`): past it the reactor stops
//! reading the connection and TCP holds the rest at the sender.
//!
//! # Overload shedding
//!
//! `max_inflight` bounds concurrently executing transactions. Past the
//! bound the server answers [`Message::Run`] with [`Error::Unavailable`]
//! carrying a `retry-after` marker instead of queueing: a saturated
//! middleware that queues unboundedly converts overload into timeouts for
//! *everyone*, while shedding keeps admitted transactions fast and tells
//! the shed clients exactly how to behave (back off and retry).
//!
//! # Shutdown
//!
//! [`NetServer::request_stop`] (or a client's [`Message::StopServer`]) sets
//! the flag and writes the wakeup pipe, so the reactor notices at once. It
//! closes the listener and stops reading; a connection with nothing in
//! flight, queued or unflushed is closed at once (an idle client, a peer
//! stalled mid-frame), the others once their requests in the cluster have
//! settled and their replies flushed, and whatever remains (unflushed
//! laggards, requests queued behind the drain) is force-closed at the
//! `shutdown_grace` deadline. [`NetServer::wait`] then joins the reactor
//! and drains the cluster — [`Cluster::drain`] lets in-flight transactions
//! finish and joins all runtime threads.

use crate::codec::{history_page, Message};
use crate::evloop::{
    encode_reply, Conn, Core, Load, Sent, Service, Stopper, WriteHalf, RESUME_QUEUED_REQUESTS,
};
use crate::reactor::WakerHandle;
use bargain_cluster::{committed, Cluster, Session};
use bargain_common::{Error, Result, TableSet, TemplateId};
use bargain_sql::TransactionTemplate;
use bargain_storage::Snapshot;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the frontend server.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// How long a connection may sit **mid-frame** (header or payload
    /// partially received) without delivering another byte before the
    /// server closes it. `None` tolerates stalled senders forever.
    pub read_timeout: Option<Duration>,
    /// How long a connection's pending replies may make **no write
    /// progress** (peer not draining its socket) before the server closes
    /// it. `None` tolerates stalled readers forever (the write-buffer cap
    /// still bounds memory).
    pub write_timeout: Option<Duration>,
    /// The reactor's housekeeping tick: stall sweeps run at this cadence.
    /// Stop/drain does *not* wait for a tick — it rides the wakeup pipe.
    pub poll_interval: Duration,
    /// Admission bound: transactions concurrently executing in the
    /// cluster. A [`Message::Run`] past the bound is shed with
    /// [`Error::Unavailable`] (`retry-after` marker) instead of queued.
    /// `None` admits everything.
    pub max_inflight: Option<u64>,
    /// How long the drain lets in-flight work finish and replies flush
    /// before force-closing the remaining connections.
    pub shutdown_grace: Duration,
    /// Per-connection cap on buffered reply bytes. Past the cap the
    /// reactor stops reading from (and dispatching for) that connection
    /// until the peer drains its socket.
    pub max_conn_write_buffer: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            poll_interval: Duration::from_millis(100),
            max_inflight: None,
            shutdown_grace: Duration::from_secs(5),
            max_conn_write_buffer: 1 << 20,
        }
    }
}

struct Shared {
    cluster: Cluster,
    addr: SocketAddr,
    hub: Arc<Hub>,
}

/// What the reactor and the reply sinks share. On an `Arc` of its own:
/// sinks hold it on replica threads, and must not hold `Shared`
/// ([`NetServer::wait`] unwraps that to drain the cluster).
struct Hub {
    stop: Arc<AtomicBool>,
    /// `NetServerConfig::max_inflight` and `max_conn_write_buffer`.
    max_inflight: Option<u64>,
    write_cap: usize,
    /// Transactions submitted and not yet answered.
    inflight: AtomicU64,
    /// Reply sinks not yet settled (counted even for connections that died
    /// in the meantime, so drain can wait for every session to unwind).
    outstanding: AtomicUsize,
    /// Where other threads point the reactor at a connection, and how they
    /// wake it.
    nudges: Sender<u64>,
    wake: WakerHandle,
    counters: Counters,
}

impl Hub {
    /// Sends reply frames, in order, from whatever thread produced them.
    /// With `hold`, each may be held back to leave with the next
    /// ([`WriteHalf::hold`]): the caller knows of a later reply or a nudge
    /// that releases it.
    fn reply(&self, conn: &ClientConn, frames: impl IntoIterator<Item = Vec<u8>>, hold: bool) {
        let c = &self.counters;
        let mut queued = false;
        for frame in frames {
            let sent = if hold {
                conn.half.hold(frame, self.write_cap)
            } else {
                conn.half.send_now(frame)
            };
            let counter = match sent {
                Sent::Direct => &c.replies_direct,
                Sent::Held => {
                    c.replies_held.fetch_add(1, Relaxed);
                    &c.replies_direct
                }
                Sent::Queued => {
                    queued = true;
                    &c.replies_queued
                }
                Sent::Dead => continue,
            };
            counter.fetch_add(1, Relaxed);
        }
        // Only the reactor can wait for the socket to drain.
        if queued {
            self.nudge(conn.token);
        }
    }

    /// Tells the reactor to look at connection `token`.
    fn nudge(&self, token: u64) {
        self.counters.loop_nudges.fetch_add(1, Relaxed);
        // A send fails only once the reactor is gone (shutdown).
        let _ = self.nudges.send(token);
        self.wake.wake();
    }
}

/// Counters of a running frontend server, read with [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Reply frames a replica (or submitting) thread handed to the socket
    /// without waking the reactor: written whole at once, or held to leave
    /// in the same write as a later frame. A held reply counts here and in
    /// `replies_held`, whichever write then carries it.
    pub replies_direct: u64,
    /// Of `replies_direct`, the frames held back while the connection had
    /// a `Run` queued behind them.
    pub replies_held: u64,
    /// Reply frames queued, whole or in part, for the reactor to flush: the
    /// socket was full or other output was ahead of them.
    pub replies_queued: u64,
    /// Socket writes (`writev` calls) that carried reply bytes, by any
    /// thread. Against the replies it says how many left together.
    pub reply_writes: u64,
    /// Socket reads that brought request bytes, all by the reactor.
    /// Against the requests it says how many arrived together.
    pub request_reads: u64,
    /// Times another thread woke the reactor for a connection: unflushed
    /// bytes, a non-`Run` request next in line, a connection to reap, a
    /// drain. Against the transaction count it says how often a finished
    /// transaction still cost the reactor a wake-up.
    pub loop_nudges: u64,
    /// Transactions shed by the `max_inflight` admission bound.
    pub shed: u64,
}

/// [`NetServerStats`] as the threads update it. The counters publish no
/// other data, so every access is `Relaxed`.
#[derive(Default)]
struct Counters {
    replies_direct: AtomicU64,
    replies_held: AtomicU64,
    replies_queued: AtomicU64,
    /// The event loop's count ([`Core::writes`]).
    reply_writes: Arc<AtomicU64>,
    /// The event loop's count ([`Core::reads`]).
    request_reads: Arc<AtomicU64>,
    loop_nudges: AtomicU64,
    shed: AtomicU64,
}

/// The per-connection execution state. It sits in the connection's `exec`
/// slot; the [`pump`] that starts a request takes it out for that long, so
/// at most one thread holds it at a time.
#[derive(Default)]
struct ConnExec {
    session: Option<Session>,
    templates: HashMap<TemplateId, (Arc<TransactionTemplate>, TableSet)>,
}

/// A running frontend server. Dropping the handle does *not* stop the
/// server; call [`NetServer::stop`] (or send [`Message::StopServer`] from a
/// client and call [`NetServer::wait`]).
pub struct NetServer {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    stopper: Stopper,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and serves
    /// `cluster` with default timeouts.
    pub fn start(addr: &str, cluster: Cluster) -> Result<NetServer> {
        Self::start_with_config(addr, cluster, NetServerConfig::default())
    }

    /// Binds `addr` and serves `cluster` with explicit timeouts.
    pub fn start_with_config(
        addr: &str,
        cluster: Cluster,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        let (core, addr, stopper) = Core::bind(addr, config.clone())?;
        let (nudges, nudged) = unbounded();
        let hub = Arc::new(Hub {
            stop: Arc::clone(&stopper.flag),
            max_inflight: config.max_inflight,
            write_cap: config.max_conn_write_buffer,
            inflight: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            nudges,
            wake: stopper.waker.clone(),
            counters: Counters {
                reply_writes: core.writes(),
                request_reads: core.reads(),
                ..Counters::default()
            },
        });
        let shared = Arc::new(Shared { cluster, addr, hub });
        let frontend = Frontend {
            shared: Arc::clone(&shared),
            nudged,
        };
        let reactor = std::thread::Builder::new()
            .name("bargain-net-reactor".into())
            .spawn(move || {
                if let Err(e) = core.run(frontend) {
                    eprintln!("bargain-net reactor failed: {e}");
                }
            })
            .map_err(Error::from)?;
        Ok(NetServer {
            shared,
            reactor,
            stopper,
        })
    }

    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The served cluster, for in-process administration — elasticity
    /// (join/decommission) and stats — alongside the remote traffic.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// The server's counters so far.
    #[must_use]
    pub fn stats(&self) -> NetServerStats {
        let c = &self.shared.hub.counters;
        NetServerStats {
            replies_direct: c.replies_direct.load(Relaxed),
            replies_held: c.replies_held.load(Relaxed),
            replies_queued: c.replies_queued.load(Relaxed),
            reply_writes: c.reply_writes.load(Relaxed),
            request_reads: c.request_reads.load(Relaxed),
            loop_nudges: c.loop_nudges.load(Relaxed),
            shed: c.shed.load(Relaxed),
        }
    }

    /// Asks the server to stop without blocking: the stop flag is set and
    /// the reactor is woken through the event loop's wakeup pipe, so drain
    /// starts immediately rather than at the next poll tick.
    pub fn request_stop(&self) {
        self.stopper.request();
    }

    /// Blocks until the server has stopped (via [`NetServer::request_stop`]
    /// or a client's [`Message::StopServer`]), then joins the reactor and
    /// drains the cluster. Idle connections close when the drain starts,
    /// and the reactor force-closes any connection still open at the
    /// `shutdown_grace` deadline, so a peer that stops reading cannot hang
    /// the shutdown.
    pub fn wait(self) {
        let _ = self.reactor.join();
        // The unwrap cannot fail in practice: the reactor, the one other
        // holder, has been joined, and reply sinks still out on replica
        // threads hold none. If it somehow does, the cluster's threads die
        // with the process instead of draining.
        if let Ok(shared) = Arc::try_unwrap(self.shared) {
            shared.cluster.drain();
        }
    }

    /// Graceful shutdown: [`NetServer::request_stop`] then
    /// [`NetServer::wait`].
    pub fn stop(self) {
        self.request_stop();
        self.wait();
    }
}

/// A connection as every thread that works for it sees it: the reactor
/// (which keeps it as the connection's service state), and the reply sink
/// of its request in the cluster.
struct ClientConn {
    token: u64,
    half: Arc<WriteHalf>,
    work: Mutex<Work>,
}

/// What a connection has to do and what it is doing, behind the
/// connection's own lock. Never held across a call into the cluster.
struct Work {
    /// Decoded requests awaiting their turn.
    queue: VecDeque<(u64, Message)>,
    /// `None` while a [`pump`] is starting a request.
    exec: Option<ConnExec>,
    /// A request of this connection is in the cluster: its reply sink has
    /// not settled.
    out: bool,
}

/// The frontend service on the shared event loop (see [`crate::evloop`]):
/// control messages are answered on arrival, everything else is started
/// by the [`pump`].
struct Frontend {
    shared: Arc<Shared>,
    nudged: Receiver<u64>,
}

impl Service for Frontend {
    type Conn = Arc<ClientConn>;

    fn accepted(
        &mut self,
        _core: &mut Core<Self::Conn>,
        token: u64,
        half: &Arc<WriteHalf>,
    ) -> Self::Conn {
        Arc::new(ClientConn {
            token,
            half: Arc::clone(half),
            work: Mutex::new(Work {
                queue: VecDeque::new(),
                exec: Some(ConnExec::default()),
                out: false,
            }),
        })
    }

    fn messages(&mut self, conn: &mut Conn<Self::Conn>, msgs: Vec<(u64, Message)>) {
        for (request_id, msg) in msgs {
            if conn.closing() {
                break; // no new work after a fatal reply
            }
            // Control messages are answered inline on the loop thread:
            // heartbeats and handshakes never queue behind transactions.
            match msg {
                Message::Hello => {
                    let reply = Message::HelloAck {
                        replicas: self.shared.cluster.replicas() as u32,
                        mode: self.shared.cluster.mode(),
                    };
                    conn.enqueue_reply(request_id, &reply);
                }
                Message::Ping => conn.enqueue_reply(request_id, &Message::Pong),
                Message::StopServer => {
                    self.shared.hub.stop.store(true, Ordering::SeqCst);
                    conn.close_after(request_id, &Message::Ack);
                }
                msg => conn.data.work.lock().queue.push_back((request_id, msg)),
            }
        }
    }

    /// Nudges: each marks its connection for this iteration's flush,
    /// dispatch and reap.
    fn turn(&mut self, _core: &mut Core<Self::Conn>, _draining: bool, dirty: &mut Vec<u64>) {
        while let Ok(token) = self.nudged.try_recv() {
            dirty.push(token);
        }
    }

    fn dispatch(&mut self, conn: &mut Conn<Self::Conn>) {
        let shared = &self.shared;
        pump(&shared.hub, &conn.data, Some(&shared.cluster));
    }

    fn load(conn: &Self::Conn) -> Load {
        let work = conn.work.lock();
        Load {
            busy: work.exec.is_none() || work.out,
            queued: work.queue.len(),
        }
    }

    fn quiesced(&self) -> bool {
        self.shared.hub.outstanding.load(Ordering::SeqCst) == 0
    }
}

/// Starts the head of the connection's queue, one request at a time — the
/// serial in-order execution the differential proptest checks — until one
/// is in the cluster or nothing may start. Whoever leaves the connection
/// idle calls it: the reactor after it queued requests or flushed
/// (`cluster` is its handle), and the reply sink of a settled request, on
/// whatever thread settled it (`cluster` is `None`).
///
/// A `Run` starts on the calling thread ([`submit_txn`]); anything else
/// only the reactor starts ([`start`]), in arrival order relative to the
/// `Run`s. Any other thread nudges the reactor for it, as it does for
/// whatever else only the reactor can do (reap, drain). The wake-up rule
/// that makes this safe: the reactor publishes `closing`, `read_closed` and
/// the stop flag *before* it reads the connection's load, and a sink
/// clears `out` *before* the pump reads them — so of the two, at least one
/// sees the other's write, and an idle connection is never left with
/// nobody looking.
///
/// The connection's lock is not held while a request starts: its sink may
/// settle, and pump again, inside the call that starts it — an inline
/// answer, a refusal inside `Session::submit`, a DDL the replicas applied
/// before the call returned. `exec` is out of its slot for that long, which
/// makes that nested pump return at once, and the loop here goes on to the
/// next request: a long queue of refusals iterates, it does not recurse.
fn pump(hub: &Arc<Hub>, conn: &Arc<ClientConn>, cluster: Option<&Cluster>) {
    // The reactor looks at the connection itself when its own pump returns.
    let tell_reactor = || {
        if cluster.is_none() {
            hub.nudge(conn.token);
        }
    };
    loop {
        // Past the write-buffer cap nothing starts; whoever queued those
        // bytes told the reactor, which pumps once they have drained.
        if conn.half.pending_bytes() >= hub.write_cap {
            return;
        }
        let mut work = conn.work.lock();
        if work.out || work.exec.is_none() {
            return;
        }
        if conn.half.closing() || hub.stop.load(Ordering::SeqCst) {
            drop(work);
            tell_reactor();
            return;
        }
        let head = work.queue.front();
        let Some(run) = head.map(|(_, msg)| matches!(msg, Message::Run { .. })) else {
            // Idle and empty: a half-closed connection has been answered
            // in full and is the reactor's to reap.
            drop(work);
            if conn.half.read_closed() {
                tell_reactor();
            }
            return;
        };
        let admin = match cluster {
            _ if run => None,
            Some(cluster) => Some(cluster),
            None => {
                drop(work);
                tell_reactor();
                return;
            }
        };
        let (request_id, msg) = work.queue.pop_front().expect("the head was there");
        let mut exec = work.exec.take().unwrap_or_default();
        work.out = true;
        // The reactor stops reading at the queue bound: tell it when the
        // backlog falls to where it resumes.
        let resume = work.queue.len() + 1 == RESUME_QUEUED_REQUESTS;
        drop(work);
        if resume {
            tell_reactor();
        }

        let reply = Reply::new(hub, conn, request_id);
        match admin {
            None => submit_txn(&mut exec, msg, reply),
            Some(cluster) => start(cluster, &mut exec, msg, reply),
        }
        let mut work = conn.work.lock();
        work.exec = Some(exec);
        if work.out {
            return; // in the cluster: its sink pumps when it settles
        }
        // Else the sink has settled already, inside the call that started
        // the request, and its own pump found `exec` gone: the next request
        // is ours.
    }
}

/// Starts a request that is not a `Run`, on the reactor. `Ddl` and
/// `JoinRequest` go to the cluster with `reply` as their sink; the others
/// are answered here, with what the reactor may wait for: the parser's
/// bounded work, the front door's lock, the certifier's lock (one group
/// commit at most). `Hello`/`Ping`/`StopServer` were answered on arrival
/// ([`Frontend::messages`]); any other kind is a protocol error.
fn start(cluster: &Cluster, exec: &mut ConnExec, msg: Message, reply: Reply) {
    let answer = match msg {
        Message::Ddl { sql } => {
            return cluster.execute_ddl_with(&sql, move |done| {
                reply.settle(done.map_or_else(Message::Err, |()| Message::Ack));
            });
        }
        Message::JoinRequest { chunk_bytes } => {
            // Clamp the requested granularity: big enough to amortize the
            // frame envelope, small enough that a chunk always fits a frame
            // (MAX_FRAME_LEN is 64 MiB) with room to spare.
            let chunk_bytes = (chunk_bytes as usize).clamp(4 * 1024, 16 * 1024 * 1024);
            return cluster.export_snapshot_with(chunk_bytes, move |snapshot| {
                snapshot_stream(reply, snapshot);
            });
        }
        Message::OpenSession => {
            let session = cluster.connect();
            let client = session.client().0;
            exec.session = Some(session);
            Message::SessionOpened { client }
        }
        Message::Prepare { name, sqls } => {
            let sql_refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
            match cluster.prepare_template(&name, &sql_refs) {
                Ok((template, table_set)) => {
                    let id = template.id;
                    exec.templates.insert(id, (template, table_set));
                    Message::Prepared { template: id }
                }
                Err(e) => Message::Err(e),
            }
        }
        Message::Stats => match cluster.stats() {
            Ok(s) => Message::StatsReply {
                routed: s.routed,
                commits: s.commits,
                aborts: s.aborts,
                v_system: s.v_system,
                certifier_up: s.certifier_up,
                certifier_downs: s.certifier_downs,
            },
            Err(e) => Message::Err(e),
        },
        Message::FetchHistory { after } => {
            history_page(after, |after, max| cluster.certified_page(after, max))
        }
        other => Message::Err(Error::Protocol(format!(
            "unexpected message kind {} on a frontend connection",
            other.kind()
        ))),
    };
    reply.settle(answer);
}

/// Answers a [`Message::JoinRequest`] on the donor's thread: one
/// [`Message::SnapshotChunk`] per exported chunk, then the self-checksummed
/// manifest in [`Message::SnapshotDone`], all under the request's id. What
/// the socket does not take waits in the connection's write queue, so a
/// slow joiner stalls only its own connection. An export refused (no donor
/// up, cluster draining) is one error frame.
fn snapshot_stream(reply: Reply, snapshot: Result<Snapshot>) {
    let snapshot = match snapshot {
        Ok(snapshot) => snapshot,
        Err(e) => return reply.settle(Message::Err(e)),
    };
    let id = reply.request_id;
    let chunks = snapshot
        .chunks
        .into_iter()
        .zip(0..)
        .map(|(data, index)| encode_reply(id, &Message::SnapshotChunk { index, data }));
    reply.hub.reply(&reply.conn, chunks, false);
    let manifest = snapshot.manifest.encode();
    reply.settle(Message::SnapshotDone { manifest });
}

/// A request's reply, owed to `conn`: the one reply sink. It settles exactly
/// once, from `Drop`, on whichever thread lets go of it — the reactor for
/// an inline answer or a refusal, a replica thread for a transaction, a DDL
/// or a snapshot (no blocking, no panic, no `Arc<Shared>` there): with the
/// answer left in it, or — the cluster abandoned the transaction and
/// dropped the sink uncalled — with an error, without which `quiesced()`
/// would hang the drain. Settling writes the reply to the client's socket,
/// releases the admission slot of a `Run`, and starts the connection's next
/// request.
struct Reply {
    hub: Arc<Hub>,
    conn: Arc<ClientConn>,
    request_id: u64,
    answer: Option<Message>,
    /// It holds a slot of the `max_inflight` bound (a `Run`'s).
    admitted: bool,
}

impl Reply {
    fn new(hub: &Arc<Hub>, conn: &Arc<ClientConn>, request_id: u64) -> Reply {
        hub.outstanding.fetch_add(1, Ordering::SeqCst);
        Reply {
            hub: Arc::clone(hub),
            conn: Arc::clone(conn),
            request_id,
            answer: None,
            admitted: false,
        }
    }

    /// Takes one slot of the `max_inflight` bound, or sheds.
    fn admit(&mut self) -> Result<()> {
        let hub = &self.hub;
        let prev = hub.inflight.fetch_add(1, Ordering::SeqCst);
        if let Some(bound) = hub.max_inflight.filter(|bound| prev >= *bound) {
            hub.inflight.fetch_sub(1, Ordering::SeqCst);
            hub.counters.shed.fetch_add(1, Relaxed);
            return Err(Error::Unavailable(format!(
                "overloaded: {prev} transactions in flight, bound is {bound} (retry-after)"
            )));
        }
        self.admitted = true;
        Ok(())
    }

    /// Leaves the answer for `Drop` to send.
    fn settle(mut self, answer: Message) {
        self.answer = Some(answer);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        let answer = self.answer.take().unwrap_or_else(|| {
            let why = "transaction abandoned: replica or cluster shut down";
            Message::Err(Error::Protocol(why.into()))
        });
        let (hub, conn) = (&self.hub, &self.conn);
        // Held while a `Run` is queued behind it: the pump below starts that
        // `Run`, whose reply releases this one, or it tells the reactor,
        // whose flush does.
        let hold = !hub.stop.load(Ordering::SeqCst)
            && !conn.half.closing()
            && matches!(
                conn.work.lock().queue.front(),
                Some((_, Message::Run { .. }))
            );
        // The reply before `out` clears: the reactor reaps a connection it
        // finds idle with nothing unflushed.
        hub.reply(conn, [encode_reply(self.request_id, &answer)], hold);
        if self.admitted {
            hub.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        hub.outstanding.fetch_sub(1, Ordering::SeqCst);
        conn.work.lock().out = false;
        pump(hub, conn, None);
    }
}

/// Submits a [`Message::Run`] to the cluster from whatever thread pumps the
/// connection: `reply` settles on the replica thread that finishes it, or
/// here if it never gets there (no session, unknown template, shed).
fn submit_txn(exec: &mut ConnExec, run: Message, mut reply: Reply) {
    let refuse = |reply: Reply, why: String| reply.settle(Message::Err(Error::Protocol(why)));
    let Message::Run {
        template,
        params,
        idem,
    } = run
    else {
        return refuse(reply, "not a transaction".into());
    };
    let Some(session) = exec.session.as_mut() else {
        return refuse(reply, "no session open; send OpenSession first".into());
    };
    let Some((template, table_set)) = exec.templates.get(&template) else {
        return refuse(
            reply,
            format!("unknown template {template}; prepare it first"),
        );
    };
    if let Err(e) = reply.admit() {
        return reply.settle(Message::Err(e));
    }
    session.submit(template, table_set.clone(), params, idem, move |result| {
        reply.settle(match committed(result) {
            Ok((outcome, results)) => Message::TxnReply { outcome, results },
            Err(e) => Message::Err(e),
        });
    });
}
