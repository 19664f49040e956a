//! The frontend server: hosts a [`Cluster`] behind a TCP listener and
//! serves the session protocol to remote clients.
//!
//! # Architecture: client → reactor → replica → client's socket
//!
//! One **reactor thread** owns every socket's read side (the connection
//! I/O half lives in [`crate::evloop`]). It submits a [`Message::Run`] to
//! the cluster inline — routing is a lock and an enqueue — and the replica
//! thread that finishes the transaction encodes the reply, writes it to the
//! client's socket through the connection's shared write half, and starts
//! the connection's next queued `Run` itself (`pump`). A finished
//! transaction does not go back through the reactor: the reactor wakes for
//! requests, and is *nudged* only for what a replica thread cannot do —
//! reply bytes the socket did not take (arm `EPOLLOUT`), a non-`Run`
//! request at the head of the queue, a connection to reap, a drain. No
//! thread parks on a transaction. The rare requests that *block* on the
//! cluster (`Prepare`, `Ddl`, `CatchUp`, `JoinRequest`, …) run on a
//! two-thread **admin pool**, so the reactor never blocks on a socket or a
//! cluster round trip.
//!
//! # Pipelining
//!
//! Every frame carries a `request_id` (protocol v2), so one connection may
//! have many requests in flight; replies echo the id and may complete out
//! of order *across* connections. Within a connection, requests execute
//! **serially in arrival order** (one transaction or one pool job at a
//! time): pipelining removes the client's round-trip wait, not the
//! per-session ordering — which keeps a pipelined connection
//! byte-equivalent to the same requests issued one at a time (the
//! differential oracle in `proptest_pipeline`). `Hello`/`Ping`/`StopServer`
//! are answered inline, so heartbeats never queue behind a transaction.
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
//! stalled mid-frame), the others once their in-flight transactions and
//! pool jobs have finished and their replies flushed, and whatever remains
//! (unflushed laggards, requests queued behind the drain) is force-closed
//! at the `shutdown_grace` deadline.
//! [`NetServer::wait`] then joins the pool and drains the cluster —
//! [`Cluster::drain`] lets in-flight transactions finish and joins all
//! runtime threads.

use crate::codec::Message;
use crate::evloop::{
    encode_reply, Conn, Core, Load, Sent, Service, Stopper, WriteHalf, RESUME_QUEUED_REQUESTS,
};
use crate::reactor::WakerHandle;
use bargain_cluster::{committed, Cluster, Session};
use bargain_common::{Error, Result, TableSet, TemplateId};
use bargain_sql::TransactionTemplate;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
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

/// Threads of the admin pool: the requests that block on the cluster. Two,
/// so a snapshot export does not stall every `Prepare` behind it.
const POOL_THREADS: usize = 2;

struct Shared {
    cluster: Cluster,
    addr: SocketAddr,
    hub: Arc<Hub>,
}

/// What the reactor, the pool and the reply sinks share. On an `Arc` of its
/// own: sinks hold it on replica threads, and must not hold `Shared`
/// ([`NetServer::wait`] unwraps that to drain the cluster).
struct Hub {
    stop: Arc<AtomicBool>,
    /// `NetServerConfig::max_inflight` and `max_conn_write_buffer`.
    max_inflight: Option<u64>,
    write_cap: usize,
    /// Transactions submitted and not yet answered.
    inflight: AtomicU64,
    /// Transactions submitted and jobs dispatched that have not settled
    /// (counted even for connections that died in the meantime, so drain
    /// can wait for every session to unwind).
    outstanding: AtomicUsize,
    completions: Completions,
    counters: Counters,
}

impl Hub {
    /// Sends a reply frame from whatever thread produced it.
    fn reply(&self, conn: &ClientConn, frame: Vec<u8>) {
        match conn.half.send_now(frame) {
            Sent::Direct => {
                self.counters.replies_direct.fetch_add(1, Relaxed);
            }
            // Only the reactor can wait for the socket to drain.
            Sent::Queued => {
                self.counters.replies_queued.fetch_add(1, Relaxed);
                self.nudge(conn.token);
            }
            Sent::Dead => {}
        }
    }

    /// Tells the reactor to look at connection `token`.
    fn nudge(&self, token: u64) {
        self.counters.loop_nudges.fetch_add(1, Relaxed);
        self.completions.push(Completion { token, job: None });
    }
}

/// Counters of a running frontend server, read with [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Reply frames a replica (or submitting) thread wrote to the socket
    /// whole, without the reactor.
    pub replies_direct: u64,
    /// Reply frames queued, whole or in part, for the reactor to flush: the
    /// socket was full or other output was ahead of them.
    pub replies_queued: u64,
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
    replies_queued: AtomicU64,
    loop_nudges: AtomicU64,
    shed: AtomicU64,
}

/// The per-connection execution state. It sits in the connection's `exec`
/// slot; whoever starts work takes it out — a [`pump`] for the length of a
/// submission, a pool [`Job`] until its [`Completion`] brings it back — so
/// at most one thread holds it at a time.
#[derive(Default)]
struct ConnExec {
    session: Option<Session>,
    templates: HashMap<TemplateId, (Arc<TransactionTemplate>, TableSet)>,
}

struct Job {
    token: u64,
    /// A run of the connection's queued non-`Run` requests, executed in
    /// order on one pool thread.
    msgs: Vec<(u64, Message)>,
    exec: ConnExec,
}

/// What other threads tell the reactor about connection `token`: a finished
/// pool job (`exec` returns, with the encoded reply frames in request
/// order), or, with no job, a nudge — the connection needs something only
/// the reactor can do. Transaction replies never travel here.
struct Completion {
    token: u64,
    job: Option<(ConnExec, Vec<Vec<u8>>)>,
}

/// How completions reach the reactor from other threads: push, then wake.
struct Completions {
    tx: Sender<Completion>,
    wake: WakerHandle,
}

impl Completions {
    /// `false` when the reactor is gone (shutdown).
    fn push(&self, completion: Completion) -> bool {
        let sent = self.tx.send(completion).is_ok();
        self.wake.wake();
        sent
    }
}

/// A running frontend server. Dropping the handle does *not* stop the
/// server; call [`NetServer::stop`] (or send [`Message::StopServer`] from a
/// client and call [`NetServer::wait`]).
pub struct NetServer {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let (completions_tx, completions_rx) = unbounded::<Completion>();
        let hub = Arc::new(Hub {
            stop: Arc::clone(&stopper.flag),
            max_inflight: config.max_inflight,
            write_cap: config.max_conn_write_buffer,
            inflight: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            completions: Completions {
                tx: completions_tx,
                wake: stopper.waker.clone(),
            },
            counters: Counters::default(),
        });
        let shared = Arc::new(Shared { cluster, addr, hub });

        let mut worker_handles = Vec::with_capacity(POOL_THREADS);
        for i in 0..POOL_THREADS {
            let shared = Arc::clone(&shared);
            let jobs_rx = jobs_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bargain-net-worker-{i}"))
                .spawn(move || worker_loop(&shared, &jobs_rx))
                .map_err(Error::from)?;
            worker_handles.push(handle);
        }
        drop(jobs_rx);

        let frontend = Frontend {
            shared: Arc::clone(&shared),
            jobs_tx,
            completions_rx,
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
            reactor: Some(reactor),
            workers: worker_handles,
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
            replies_queued: c.replies_queued.load(Relaxed),
            loop_nudges: c.loop_nudges.load(Relaxed),
            shed: c.shed.load(Relaxed),
        }
    }

    /// Transactions shed so far by the `max_inflight` admission bound.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.stats().shed
    }

    /// Asks the server to stop without blocking: the stop flag is set and
    /// the reactor is woken through the event loop's wakeup pipe, so drain
    /// starts immediately rather than at the next poll tick.
    pub fn request_stop(&self) {
        self.stopper.request();
    }

    /// Blocks until the server has stopped (via [`NetServer::request_stop`]
    /// or a client's [`Message::StopServer`]), then joins the reactor and
    /// pool threads and drains the cluster. Idle connections close when the
    /// drain starts, and the reactor force-closes any connection still open
    /// at the `shutdown_grace` deadline, so a peer that stops reading cannot
    /// hang the shutdown.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor owned the job channel's only sender; its exit closed
        // the channel, which is what terminates the pool.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The unwrap cannot fail in practice: every thread holding a clone
        // has been joined, and reply sinks still out on replica threads
        // hold none. If it somehow does, the cluster's threads die with
        // the process instead of draining.
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
/// of its transaction in flight.
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
    /// `None` while a pool job holds it, or a [`pump`] that is submitting.
    exec: Option<ConnExec>,
    /// A transaction of this connection is at a replica (or on its way).
    txn_out: bool,
}

/// The frontend service on the shared event loop (see [`crate::evloop`]):
/// control messages are answered inline, a [`Message::Run`] is submitted to
/// the cluster by the [`pump`], everything else is executed on the admin
/// pool.
struct Frontend {
    shared: Arc<Shared>,
    jobs_tx: Sender<Job>,
    completions_rx: Receiver<Completion>,
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
                txn_out: false,
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

    /// Completions: a finished pool job's reply frames are queued and its
    /// per-connection state restored (those for connections that died in
    /// the meantime just drop the session); a nudge only marks its
    /// connection for this iteration's flush, dispatch and reap.
    fn turn(&mut self, core: &mut Core<Self::Conn>, _draining: bool, dirty: &mut Vec<u64>) {
        while let Ok(Completion { token, job }) = self.completions_rx.try_recv() {
            if job.is_some() {
                self.shared.hub.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            let Some(conn) = core.conns.get_mut(&token) else {
                continue;
            };
            if let Some((exec, frames)) = job {
                // Frames before `exec`: the `Run` behind this job starts
                // only once `exec` is back, so its reply queues behind them.
                for frame in frames {
                    conn.enqueue_frame(frame);
                }
                conn.data.work.lock().exec = Some(exec);
            }
            dirty.push(token);
        }
    }

    fn dispatch(&mut self, conn: &mut Conn<Self::Conn>) {
        if !pump(&self.shared.hub, &conn.data, Some(&self.jobs_tx)) {
            // The pool is gone (shutdown): the connection can do no more.
            conn.set_closing();
        }
    }

    fn load(conn: &Self::Conn) -> Load {
        let work = conn.work.lock();
        Load {
            busy: work.exec.is_none() || work.txn_out,
            queued: work.queue.len(),
        }
    }

    fn quiesced(&self) -> bool {
        self.shared.hub.outstanding.load(Ordering::SeqCst) == 0
    }
}

/// Starts the head of the connection's queue, one thing at a time — the
/// serial in-order execution the differential proptest checks — until
/// something is running or nothing may start. Whoever leaves the connection
/// idle calls it: the reactor after it queued requests or flushed
/// (`jobs` is its sender to the admin pool), and the reply sink of a
/// finished transaction, on a replica thread (`jobs` is `None`).
///
/// A `Run` is submitted to the cluster right here, on the calling thread. A
/// run of other requests goes out as one pool job, in arrival order relative
/// to the `Run`s — from the reactor; any other thread nudges the reactor, as
/// it does for whatever else only the reactor can do (reap, drain). The
/// wake-up rule that makes this safe: the reactor publishes `closing`,
/// `read_closed` and the stop flag *before* it reads the connection's load,
/// and a sink clears `txn_out` *before* the pump reads them — so of the two,
/// at least one sees the other's write, and an idle connection is never left
/// with nobody looking.
///
/// The connection's lock is not held across the submission: a refusal's
/// sink runs (and an abandoned one drops) inside `Session::submit`, on this
/// thread, and pumps again. `exec` is out of its slot for that long, which
/// makes that nested pump return at once, and the loop here goes on to the
/// next request: a long queue of refusals iterates, it does not recurse.
///
/// Returns `false` when the admin pool is gone.
fn pump(hub: &Arc<Hub>, conn: &Arc<ClientConn>, jobs: Option<&Sender<Job>>) -> bool {
    let not_run = |(_, msg): &(u64, Message)| !matches!(msg, Message::Run { .. });
    // The reactor looks at the connection itself when its own pump returns.
    let tell_reactor = || {
        if jobs.is_none() {
            hub.nudge(conn.token);
        }
    };
    loop {
        // Past the write-buffer cap nothing starts; whoever queued those
        // bytes told the reactor, which pumps once they have drained.
        if conn.half.pending_bytes() >= hub.write_cap {
            return true;
        }
        let mut work = conn.work.lock();
        if work.txn_out || work.exec.is_none() {
            return true;
        }
        if conn.half.closing() || hub.stop.load(Ordering::SeqCst) {
            drop(work);
            tell_reactor();
            return true;
        }
        let others = work.queue.iter().take_while(|m| not_run(m)).count();
        if others > 0 {
            let Some(jobs) = jobs else {
                drop(work);
                tell_reactor();
                return true;
            };
            let job = Job {
                token: conn.token,
                msgs: work.queue.drain(..others).collect(),
                exec: work.exec.take().unwrap_or_default(),
            };
            hub.outstanding.fetch_add(1, Ordering::SeqCst);
            let Err(SendError(job)) = jobs.send(job) else {
                return true;
            };
            hub.outstanding.fetch_sub(1, Ordering::SeqCst);
            work.exec = Some(job.exec);
            return false;
        }
        let Some(run) = work.queue.pop_front() else {
            // Idle and empty: a half-closed connection has been answered
            // in full and is the reactor's to reap.
            drop(work);
            if conn.half.read_closed() {
                tell_reactor();
            }
            return true;
        };
        let mut exec = work.exec.take().unwrap_or_default();
        work.txn_out = true;
        // The reactor stops reading at the queue bound: tell it when the
        // backlog falls to where it resumes.
        let resume = work.queue.len() + 1 == RESUME_QUEUED_REQUESTS;
        drop(work);
        if resume {
            tell_reactor();
        }

        let request_id = run.0;
        let refused = submit_txn(hub, conn, &mut exec, run).err();
        let mut work = conn.work.lock();
        work.exec = Some(exec);
        if let Some(e) = refused {
            // It never reached the cluster (no session, unknown template,
            // shed): answered here, and the next request is up.
            work.txn_out = false;
            drop(work);
            hub.reply(conn, encode_reply(request_id, &Message::Err(e)));
        } else if work.txn_out {
            return true; // at a replica: its sink pumps when it finishes
        }
        // Else the sink has run already (a refusal, inside `submit`) and
        // its own pump found `exec` gone: the next request is ours.
    }
}

fn worker_loop(shared: &Arc<Shared>, jobs_rx: &Receiver<Job>) {
    while let Ok(mut job) = jobs_rx.recv() {
        let mut frames = Vec::with_capacity(job.msgs.len());
        for (request_id, msg) in job.msgs.drain(..) {
            // A snapshot bootstrap is the one request answered with a
            // *stream* of frames (chunks then the manifest), all tagged
            // with the request's id. They ride the connection's write
            // queue, so reactor backpressure paces the transfer to the
            // joiner's read speed.
            let replies = if let Message::JoinRequest { chunk_bytes } = msg {
                snapshot_stream(shared, chunk_bytes)
            } else {
                vec![handle_request(shared, msg, &mut job.exec)]
            };
            frames.extend(replies.iter().map(|reply| encode_reply(request_id, reply)));
        }
        let completion = Completion {
            token: job.token,
            job: Some((job.exec, frames)),
        };
        if !shared.hub.completions.push(completion) {
            return; // reactor gone: shutdown
        }
    }
}

/// Executes one blocking request against the cluster, on a pool thread.
/// `Hello`/`Ping`/`StopServer` are answered and `Run` is submitted on the
/// submitting thread ([`Frontend::messages`], [`pump`]) and never reach the
/// pool; if a routing change ever sent one here it would get the
/// protocol error below, not silence.
fn handle_request(shared: &Arc<Shared>, msg: Message, exec: &mut ConnExec) -> Message {
    match msg {
        Message::OpenSession => {
            let s = shared.cluster.connect();
            let client = s.client().0;
            exec.session = Some(s);
            Message::SessionOpened { client }
        }
        Message::Ddl { sql } => match shared.cluster.execute_ddl(&sql) {
            Ok(()) => Message::Ack,
            Err(e) => Message::Err(e),
        },
        Message::Prepare { name, sqls } => {
            let sql_refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
            match shared.cluster.prepare_template(&name, &sql_refs) {
                Ok((template, table_set)) => {
                    let id = template.id;
                    exec.templates.insert(id, (template, table_set));
                    Message::Prepared { template: id }
                }
                Err(e) => Message::Err(e),
            }
        }
        Message::Stats => match shared.cluster.stats() {
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
        Message::CatchUp { after } => match shared.cluster.certified_since(after) {
            Ok(records) => Message::History { records },
            Err(e) => Message::Err(e),
        },
        other => Message::Err(Error::Protocol(format!(
            "unexpected message kind {} on a frontend connection",
            other.kind()
        ))),
    }
}

/// Builds the reply stream for a [`Message::JoinRequest`]: one
/// [`Message::SnapshotChunk`] per exported chunk, then the self-checksummed
/// manifest in [`Message::SnapshotDone`]. Any export failure (no donor up,
/// cluster draining) collapses to a single error frame.
fn snapshot_stream(shared: &Arc<Shared>, chunk_bytes: u32) -> Vec<Message> {
    // Clamp the requested granularity: big enough to amortize the frame
    // envelope, small enough that a chunk always fits a frame
    // (MAX_FRAME_LEN is 64 MiB) with room to spare.
    let chunk_bytes = (chunk_bytes as usize).clamp(4 * 1024, 16 * 1024 * 1024);
    match shared.cluster.export_snapshot(chunk_bytes) {
        Ok(snapshot) => {
            let mut msgs = Vec::with_capacity(snapshot.chunks.len() + 1);
            for (index, data) in snapshot.chunks.into_iter().enumerate() {
                msgs.push(Message::SnapshotChunk {
                    index: index as u32,
                    data,
                });
            }
            msgs.push(Message::SnapshotDone {
                manifest: snapshot.manifest.encode(),
            });
            msgs
        }
        Err(e) => vec![Message::Err(e)],
    }
}

/// A transaction's reply, owed to `conn`. It travels into the cluster inside
/// the reply sink and is settled exactly once, from `Drop` (on a replica
/// thread: no blocking, no panic, no `Arc<Shared>`): with the answer left in
/// it, or — the cluster abandoned the transaction and dropped the sink
/// uncalled — with an error, without which `quiesced()` would hang the
/// drain. Settling writes the reply to the client's socket, releases the
/// admission slot, and starts the connection's next request.
struct RunReply {
    hub: Arc<Hub>,
    conn: Arc<ClientConn>,
    request_id: u64,
    answer: Option<Message>,
}

impl RunReply {
    /// Takes one slot of the `max_inflight` bound, or sheds.
    fn admit(hub: &Arc<Hub>, conn: &Arc<ClientConn>, request_id: u64) -> Result<RunReply> {
        let prev = hub.inflight.fetch_add(1, Ordering::SeqCst);
        if let Some(bound) = hub.max_inflight.filter(|bound| prev >= *bound) {
            hub.inflight.fetch_sub(1, Ordering::SeqCst);
            hub.counters.shed.fetch_add(1, Relaxed);
            return Err(Error::Unavailable(format!(
                "overloaded: {prev} transactions in flight, bound is {bound} (retry-after)"
            )));
        }
        hub.outstanding.fetch_add(1, Ordering::SeqCst);
        Ok(RunReply {
            hub: Arc::clone(hub),
            conn: Arc::clone(conn),
            request_id,
            answer: None,
        })
    }

    /// Leaves the answer for `Drop` to send.
    fn settle(mut self, answer: Message) {
        self.answer = Some(answer);
    }
}

impl Drop for RunReply {
    fn drop(&mut self) {
        let answer = self.answer.take().unwrap_or_else(|| {
            let why = "transaction abandoned: replica or cluster shut down";
            Message::Err(Error::Protocol(why.into()))
        });
        let (hub, conn) = (&self.hub, &self.conn);
        // The reply before `txn_out` clears: the reactor reaps a connection
        // it finds idle with nothing unflushed.
        hub.reply(conn, encode_reply(self.request_id, &answer));
        hub.inflight.fetch_sub(1, Ordering::SeqCst);
        hub.outstanding.fetch_sub(1, Ordering::SeqCst);
        conn.work.lock().txn_out = false;
        pump(hub, conn, None);
    }
}

/// Submits a [`Message::Run`] to the cluster from whatever thread pumps the
/// connection; its reply leaves through a [`RunReply`]. An error means it
/// never got there (no session, unknown template, shed) and the caller
/// answers.
fn submit_txn(
    hub: &Arc<Hub>,
    conn: &Arc<ClientConn>,
    exec: &mut ConnExec,
    (request_id, run): (u64, Message),
) -> Result<()> {
    let Message::Run {
        template,
        params,
        idem,
    } = run
    else {
        return Err(Error::Protocol("not a transaction".into()));
    };
    let session = exec
        .session
        .as_mut()
        .ok_or_else(|| Error::Protocol("no session open; send OpenSession first".into()))?;
    let (template, table_set) = exec
        .templates
        .get(&template)
        .ok_or_else(|| Error::Protocol(format!("unknown template {template}; prepare it first")))?;
    let reply = RunReply::admit(hub, conn, request_id)?;
    let sink = move |result| {
        reply.settle(match committed(result) {
            Ok((outcome, results)) => Message::TxnReply { outcome, results },
            Err(e) => Message::Err(e),
        });
    };
    session.submit(template, table_set.clone(), params, idem, sink);
    Ok(())
}
