//! The frontend server: hosts a [`Cluster`] behind a TCP listener and
//! serves the session protocol to remote clients.
//!
//! # Architecture: a readiness-driven reactor
//!
//! One **reactor thread** owns every socket: the listener, a wakeup pipe,
//! and all client connections, registered non-blocking with a hand-rolled
//! epoll poller (see [`crate::reactor`]). Per connection the reactor keeps
//! a read-side incremental frame decoder ([`crate::frame::FrameDecoder`] —
//! partial frames resume across readiness events) and a write-side queue
//! of encoded reply frames flushed with vectored writes, so replies that
//! complete close together leave in one syscall (the same batching idea as
//! the WAL's group commit). A small **worker pool** executes
//! Session/cluster requests off the reactor thread; the reactor never
//! blocks on a socket or a transaction.
//!
//! # Pipelining
//!
//! Every frame carries a `request_id` (protocol v2), so one connection may
//! have many requests in flight; replies echo the id and may complete out
//! of order *across* connections. Within a connection, requests execute
//! **serially in arrival order** (one worker job per connection at a
//! time): pipelining removes the client's round-trip wait, not the
//! per-session ordering — which is exactly what keeps a pipelined
//! connection byte-equivalent to the same requests issued one at a time
//! (the differential oracle in `proptest_pipeline` checks this).
//! `Hello`/`Ping`/`StopServer` are answered inline on the reactor thread,
//! so heartbeats keep flowing even while a connection's transactions are
//! queued behind a worker.
//!
//! # Backpressure
//!
//! A connection's write queue is capped (`max_conn_write_buffer`). A peer
//! that stops reading its replies fills the cap, and the reactor then
//! stops reading from — and stops dispatching for — *that connection
//! only*; every socket is non-blocking, so a stalled client can never
//! head-of-line-block other connections or the reactor thread.
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
//! Stop is wired through the event loop: [`NetServer::request_stop`] (or a
//! client's [`Message::StopServer`]) sets the flag and writes the wakeup
//! pipe, so the reactor notices immediately — not at the next idle-poll
//! tick like the old thread-per-connection server. The reactor then closes
//! the listener, stops reading, lets in-flight worker jobs finish and
//! their replies flush, and force-closes whatever remains (half-open
//! peers, unflushed laggards) at the `shutdown_grace` deadline. Afterwards
//! [`NetServer::wait`] joins the workers and drains the cluster —
//! [`Cluster::drain`] flushes the certifier (and its WAL) and joins all
//! runtime threads.

use crate::codec::Message;
use crate::evloop::{encode_reply, Conn, Core, Service, Stopper};
use crate::reactor::WakerHandle;
use bargain_cluster::{Cluster, Session};
use bargain_common::{Error, IdemKey, Result, TableSet, TemplateId};
use bargain_sql::TransactionTemplate;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// The reactor's housekeeping tick: idle/stall sweeps run at this
    /// cadence. Stop/drain does *not* wait for a tick — it rides the
    /// wakeup pipe.
    pub poll_interval: Duration,
    /// Admission bound: transactions concurrently executing in the
    /// cluster. A [`Message::Run`] past the bound is shed with
    /// [`Error::Unavailable`] (`retry-after` marker) instead of queued.
    /// `None` admits everything.
    pub max_inflight: Option<u64>,
    /// Connections idle longer than this are closed (the client
    /// reconnects transparently; see `RemoteSession`). `None` keeps idle
    /// connections forever.
    pub idle_timeout: Option<Duration>,
    /// How long the drain lets in-flight work finish and replies flush
    /// before force-closing the remaining connections.
    pub shutdown_grace: Duration,
    /// Worker threads executing Session/cluster requests. Concurrency
    /// across connections is `min(workers, connections)`; within one
    /// connection requests always run serially.
    pub workers: usize,
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
            idle_timeout: None,
            shutdown_grace: Duration::from_secs(5),
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8)),
            max_conn_write_buffer: 1 << 20,
        }
    }
}

struct Shared {
    cluster: Cluster,
    stop: Arc<AtomicBool>,
    config: NetServerConfig,
    addr: SocketAddr,
    inflight: AtomicU64,
    shed: AtomicU64,
}

/// The per-connection state the *workers* need: the cluster session and
/// the prepared templates. Shuttled by value between the reactor and the
/// pool inside [`Job`]/[`Completion`] — the connection's empty `exec` slot
/// guarantees at most one job holds it at a time, so no lock is needed.
#[derive(Default)]
struct ConnExec {
    session: Option<Session>,
    templates: HashMap<TemplateId, (Arc<TransactionTemplate>, TableSet)>,
}

struct Job {
    token: u64,
    /// The connection's queued `(request_id, message)` pairs, executed in
    /// order on one worker. Batching keeps the completion→waker→dispatch
    /// handoff off the critical path between pipelined requests while
    /// preserving per-connection serial execution.
    msgs: Vec<(u64, Message)>,
    exec: ConnExec,
}

struct Completion {
    token: u64,
    exec: ConnExec,
    /// One encoded reply frame per request in the job, in order.
    frames: Vec<Vec<u8>>,
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
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            cluster,
            stop: Arc::clone(&stopper.flag),
            config,
            addr,
            inflight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });

        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let (completions_tx, completions_rx) = unbounded::<Completion>();

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let jobs_rx = jobs_rx.clone();
            let completions_tx = completions_tx.clone();
            let wake = stopper.waker.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bargain-net-worker-{i}"))
                .spawn(move || worker_loop(&shared, &jobs_rx, &completions_tx, &wake))
                .map_err(Error::from)?;
            worker_handles.push(handle);
        }
        drop(jobs_rx);
        drop(completions_tx);

        let frontend = Frontend {
            shared: Arc::clone(&shared),
            jobs_tx,
            completions_rx,
            outstanding_jobs: 0,
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

    /// Transactions shed so far by the `max_inflight` admission bound.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.load(Ordering::SeqCst)
    }

    /// Asks the server to stop without blocking: the stop flag is set and
    /// the reactor is woken through the event loop's wakeup pipe, so drain
    /// starts immediately rather than at the next poll tick.
    pub fn request_stop(&self) {
        self.stopper.request();
    }

    /// Blocks until the server has stopped (via [`NetServer::request_stop`]
    /// or a client's [`Message::StopServer`]), then joins the reactor and
    /// worker threads and drains the cluster. The reactor force-closes any
    /// connection still open at the `shutdown_grace` deadline, so a
    /// half-open peer cannot hang the shutdown.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor owned the job channel's only sender; its exit closed
        // the channel, which is what terminates the workers.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The unwrap cannot fail in practice: every thread holding a clone
        // has been joined. If it somehow does, the cluster's threads die
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

/// Upper bound on requests bundled into one worker job. Bounds reply
/// latency for the head of a very deep pipeline and keeps a single
/// connection from monopolizing a worker indefinitely.
const MAX_JOB_BATCH: usize = 32;

/// The frontend's per-connection state on the event loop.
struct FrontConn {
    /// Decoded requests awaiting their turn on the worker pool.
    queue: VecDeque<(u64, Message)>,
    /// One worker job at a time: `None` exactly while a job holds it.
    exec: Option<ConnExec>,
}

/// The frontend service on the shared event loop (see [`crate::evloop`]):
/// control messages are answered inline, everything else is queued per
/// connection and executed on the worker pool.
struct Frontend {
    shared: Arc<Shared>,
    jobs_tx: Sender<Job>,
    completions_rx: Receiver<Completion>,
    /// Jobs dispatched to the pool whose completions have not come back
    /// yet (counted even for connections that died in the meantime, so
    /// drain can wait for every session to unwind).
    outstanding_jobs: usize,
}

impl Service for Frontend {
    type Conn = FrontConn;

    fn accepted(&mut self, _core: &mut Core<FrontConn>) -> FrontConn {
        FrontConn {
            queue: VecDeque::new(),
            exec: Some(ConnExec::default()),
        }
    }

    fn messages(&mut self, conn: &mut Conn<FrontConn>, msgs: Vec<(u64, Message)>) {
        for (request_id, msg) in msgs {
            if conn.closing {
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
                    self.shared.stop.store(true, Ordering::SeqCst);
                    conn.close_after(request_id, &Message::Ack);
                }
                msg => conn.data.queue.push_back((request_id, msg)),
            }
        }
    }

    /// Worker completions: restore per-connection exec state and queue the
    /// reply frames. Replies for connections that died while their job ran
    /// just drop the session.
    fn turn(
        &mut self,
        core: &mut Core<FrontConn>,
        _idle: bool,
        _draining: bool,
        dirty: &mut Vec<u64>,
    ) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            self.outstanding_jobs = self.outstanding_jobs.saturating_sub(1);
            if let Some(conn) = core.conns.get_mut(&completion.token) {
                conn.data.exec = Some(completion.exec);
                for frame in completion.frames {
                    conn.enqueue_frame(frame);
                }
                dirty.push(completion.token);
            }
        }
    }

    /// The whole queue (bounded) goes out as ONE job: a pipelined burst
    /// pays the channel/waker handoff once, not once per request, while
    /// the worker still executes it serially in order — the equivalence
    /// invariant the differential proptest checks.
    fn dispatch(&mut self, conn: &mut Conn<FrontConn>) {
        if conn.data.queue.is_empty() {
            return;
        }
        let Some(exec) = conn.data.exec.take() else {
            return;
        };
        let take = conn.data.queue.len().min(MAX_JOB_BATCH);
        let msgs: Vec<(u64, Message)> = conn.data.queue.drain(..take).collect();
        let token = conn.token;
        match self.jobs_tx.send(Job { token, msgs, exec }) {
            Ok(()) => self.outstanding_jobs += 1,
            // Worker pool is gone (shutdown): the connection can do no
            // more work.
            Err(SendError(job)) => {
                conn.data.exec = Some(job.exec);
                conn.closing = true;
            }
        }
    }

    fn busy(conn: &FrontConn) -> bool {
        conn.exec.is_none()
    }

    fn queued(conn: &FrontConn) -> bool {
        !conn.queue.is_empty()
    }

    fn quiesced(&self) -> bool {
        self.outstanding_jobs == 0
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    jobs_rx: &Receiver<Job>,
    completions_tx: &Sender<Completion>,
    wake: &WakerHandle,
) {
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
        let sent = completions_tx.send(Completion {
            token: job.token,
            exec: job.exec,
            frames,
        });
        if sent.is_err() {
            return; // reactor gone: shutdown
        }
        wake.wake();
    }
}

/// Executes one request against the cluster. `Hello`/`Ping`/`StopServer`
/// are answered inline on the reactor ([`Frontend::messages`]) and never
/// reach the pool; if a routing change ever sent one here it would get the
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
        Message::Run {
            template,
            params,
            idem,
        } => match run_txn(shared, exec, template, params, idem) {
            Ok(reply) => reply,
            Err(e) => Message::Err(e),
        },
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

/// RAII admission token: holds one slot of the `max_inflight` bound.
struct Admission<'a>(&'a AtomicU64);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn admit(shared: &Shared) -> Result<Admission<'_>> {
    let bound = match shared.config.max_inflight {
        Some(bound) => bound,
        None => {
            shared.inflight.fetch_add(1, Ordering::SeqCst);
            return Ok(Admission(&shared.inflight));
        }
    };
    let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if prev >= bound {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.shed.fetch_add(1, Ordering::SeqCst);
        return Err(Error::Unavailable(format!(
            "overloaded: {prev} transactions in flight, bound is {bound} (retry-after)"
        )));
    }
    Ok(Admission(&shared.inflight))
}

fn run_txn(
    shared: &Shared,
    exec: &mut ConnExec,
    template: TemplateId,
    params: Vec<Vec<bargain_common::Value>>,
    idem: Option<IdemKey>,
) -> Result<Message> {
    let session = exec
        .session
        .as_mut()
        .ok_or_else(|| Error::Protocol("no session open; send OpenSession first".into()))?;
    let (template, table_set) = exec
        .templates
        .get(&template)
        .ok_or_else(|| Error::Protocol(format!("unknown template {template}; prepare it first")))?;
    let _slot = admit(shared)?;
    let (outcome, results) =
        session.run_prepared_keyed(template, table_set.clone(), params, idem)?;
    Ok(Message::TxnReply { outcome, results })
}
