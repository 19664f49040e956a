//! The frontend server: hosts a [`Cluster`] behind a TCP listener and
//! serves the session protocol to remote clients.
//!
//! # Architecture: reactor → replica → reactor
//!
//! One **reactor thread** owns every socket (the connection I/O half lives
//! in [`crate::evloop`]). It submits a [`Message::Run`] to the cluster
//! inline — routing is a lock and an enqueue — and the replica thread that
//! finishes the transaction encodes the reply, pushes it onto the
//! completions channel and kicks the waker. No thread parks on a
//! transaction. The rare requests that *block* on the cluster (`Prepare`,
//! `Ddl`, `CatchUp`, `JoinRequest`, …) run on a two-thread **admin pool**,
//! so the reactor never blocks on a socket or a cluster round trip.
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
//! [`NetServer::request_stop`] (or a client's [`Message::StopServer`]) sets
//! the flag and writes the wakeup pipe, so the reactor notices at once. It
//! closes the listener, stops reading, lets in-flight transactions and pool
//! jobs finish and their replies flush, and force-closes whatever remains
//! (half-open peers, unflushed laggards) at the `shutdown_grace` deadline.
//! [`NetServer::wait`] then joins the pool and drains the cluster —
//! [`Cluster::drain`] flushes the certifier (and its WAL) and joins all
//! runtime threads.

use crate::codec::Message;
use crate::evloop::{encode_reply, Conn, Core, Service, Stopper};
use crate::reactor::WakerHandle;
use bargain_cluster::{committed, Cluster, Session};
use bargain_common::{Error, Result, TableSet, TemplateId};
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
            max_conn_write_buffer: 1 << 20,
        }
    }
}

/// Threads of the admin pool: the requests that block on the cluster. Two,
/// so a snapshot export does not stall every `Prepare` behind it.
const POOL_THREADS: usize = 2;

struct Shared {
    cluster: Cluster,
    stop: Arc<AtomicBool>,
    config: NetServerConfig,
    addr: SocketAddr,
    /// Transactions submitted and not yet answered. On an `Arc` of its own:
    /// reply sinks hold it on replica threads, and must not hold `Shared`
    /// ([`NetServer::wait`] unwraps that to drain the cluster).
    inflight: Arc<AtomicU64>,
    shed: AtomicU64,
}

/// The per-connection execution state. It sits in the connection's `exec`
/// slot, where the reactor submits transactions from; a pool [`Job`] takes
/// it along and its [`Completion`] brings it back, so at most one thread
/// holds it at a time and no lock is needed.
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

/// What comes back to the reactor for a connection: a finished pool job
/// (`exec` returns) or a finished or abandoned transaction (`exec` never
/// left), with the encoded reply frames in request order.
struct Completion {
    token: u64,
    exec: Option<ConnExec>,
    frames: Vec<Vec<u8>>,
}

/// How completions reach the reactor from other threads: push, then wake.
#[derive(Clone)]
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
        let shared = Arc::new(Shared {
            cluster,
            stop: Arc::clone(&stopper.flag),
            config,
            addr,
            inflight: Arc::new(AtomicU64::new(0)),
            shed: AtomicU64::new(0),
        });

        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let (completions_tx, completions_rx) = unbounded::<Completion>();
        let completions = Completions {
            tx: completions_tx,
            wake: stopper.waker.clone(),
        };

        let mut worker_handles = Vec::with_capacity(POOL_THREADS);
        for i in 0..POOL_THREADS {
            let shared = Arc::clone(&shared);
            let jobs_rx = jobs_rx.clone();
            let completions = completions.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bargain-net-worker-{i}"))
                .spawn(move || worker_loop(&shared, &jobs_rx, &completions))
                .map_err(Error::from)?;
            worker_handles.push(handle);
        }
        drop(jobs_rx);

        let frontend = Frontend {
            shared: Arc::clone(&shared),
            jobs_tx,
            completions,
            completions_rx,
            outstanding: 0,
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
    /// pool threads and drains the cluster. The reactor force-closes any
    /// connection still open at the `shutdown_grace` deadline, so a
    /// half-open peer cannot hang the shutdown.
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

/// The frontend's per-connection state on the event loop.
struct FrontConn {
    /// Decoded requests awaiting their turn.
    queue: VecDeque<(u64, Message)>,
    /// `None` exactly while a pool job holds it.
    exec: Option<ConnExec>,
    /// A transaction of this connection is at a replica.
    txn_out: bool,
}

/// The frontend service on the shared event loop (see [`crate::evloop`]):
/// control messages are answered inline, a [`Message::Run`] is submitted to
/// the cluster inline, everything else is executed on the admin pool.
struct Frontend {
    shared: Arc<Shared>,
    jobs_tx: Sender<Job>,
    /// Cloned into every transaction's reply sink.
    completions: Completions,
    completions_rx: Receiver<Completion>,
    /// Transactions submitted and jobs dispatched whose completions have
    /// not come back yet (counted even for connections that died in the
    /// meantime, so drain can wait for every session to unwind).
    outstanding: usize,
}

impl Service for Frontend {
    type Conn = FrontConn;

    fn accepted(&mut self, _core: &mut Core<FrontConn>) -> FrontConn {
        FrontConn {
            queue: VecDeque::new(),
            exec: Some(ConnExec::default()),
            txn_out: false,
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

    /// Completions: restore per-connection state and queue the reply
    /// frames. Those for connections that died in the meantime just drop
    /// the session.
    fn turn(
        &mut self,
        core: &mut Core<FrontConn>,
        _idle: bool,
        _draining: bool,
        dirty: &mut Vec<u64>,
    ) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            self.outstanding = self.outstanding.saturating_sub(1);
            if let Some(conn) = core.conns.get_mut(&completion.token) {
                match completion.exec {
                    Some(exec) => conn.data.exec = Some(exec),
                    None => conn.data.txn_out = false,
                }
                for frame in completion.frames {
                    conn.enqueue_frame(frame);
                }
                dirty.push(completion.token);
            }
        }
    }

    /// Starts the head of the connection's queue, one thing at a time — the
    /// serial in-order execution the differential proptest checks. A `Run`
    /// is submitted to the cluster right here; a run of other requests goes
    /// out as one pool job, in arrival order relative to the `Run`s.
    fn dispatch(&mut self, conn: &mut Conn<FrontConn>) {
        let not_run = |(_, msg): &(u64, Message)| !matches!(msg, Message::Run { .. });
        while !conn.data.txn_out && conn.data.exec.is_some() {
            let queue = &mut conn.data.queue;
            let others = queue.iter().take_while(|m| not_run(m)).count();
            if others > 0 {
                let job = Job {
                    token: conn.token,
                    msgs: queue.drain(..others).collect(),
                    exec: conn.data.exec.take().unwrap_or_default(),
                };
                match self.jobs_tx.send(job) {
                    Ok(()) => self.outstanding += 1,
                    // The pool is gone (shutdown): the connection can do
                    // no more work.
                    Err(SendError(job)) => {
                        conn.data.exec = Some(job.exec);
                        conn.closing = true;
                    }
                }
                return;
            }
            let (Some(exec), Some(run)) = (conn.data.exec.as_mut(), queue.pop_front()) else {
                return;
            };
            let request_id = run.0;
            match submit_txn(&self.shared, exec, &self.completions, conn.token, run) {
                Ok(()) => {
                    conn.data.txn_out = true;
                    self.outstanding += 1;
                }
                // Refused before it reached the cluster: answered inline
                // (flushed next iteration), and the next request is up.
                Err(e) => conn.enqueue_reply(request_id, &Message::Err(e)),
            }
        }
    }

    fn busy(conn: &FrontConn) -> bool {
        conn.exec.is_none() || conn.txn_out
    }

    fn queued(conn: &FrontConn) -> bool {
        !conn.queue.is_empty()
    }

    fn quiesced(&self) -> bool {
        self.outstanding == 0
    }
}

fn worker_loop(shared: &Arc<Shared>, jobs_rx: &Receiver<Job>, completions: &Completions) {
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
            exec: Some(job.exec),
            frames,
        };
        if !completions.push(completion) {
            return; // reactor gone: shutdown
        }
    }
}

/// Executes one blocking request against the cluster, on a pool thread.
/// `Hello`/`Ping`/`StopServer` are answered and `Run` is submitted on the
/// reactor ([`Frontend::messages`], [`Frontend::dispatch`]) and never reach
/// the pool; if a routing change ever sent one here it would get the
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

/// A transaction's reply, owed to connection `token`. It travels into the
/// cluster inside the reply sink and is settled exactly once, from `Drop`
/// (on a replica thread: no blocking, no panic, no `Arc<Shared>`): with the
/// answer left in it, or — the cluster abandoned the transaction and
/// dropped the sink uncalled — with an error, without which `quiesced()`
/// would hang the drain. Settling releases the admission slot.
struct RunReply {
    token: u64,
    request_id: u64,
    completions: Completions,
    inflight: Arc<AtomicU64>,
    answer: Option<Message>,
}

impl RunReply {
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
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.completions.push(Completion {
            token: self.token,
            exec: None,
            frames: vec![encode_reply(self.request_id, &answer)],
        });
    }
}

/// Takes one slot of the `max_inflight` bound, or sheds.
fn admit(shared: &Shared) -> Result<Arc<AtomicU64>> {
    let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
    match shared.config.max_inflight {
        Some(bound) if prev >= bound => {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.shed.fetch_add(1, Ordering::SeqCst);
            Err(Error::Unavailable(format!(
                "overloaded: {prev} transactions in flight, bound is {bound} (retry-after)"
            )))
        }
        _ => Ok(Arc::clone(&shared.inflight)),
    }
}

/// Submits a [`Message::Run`] to the cluster from the loop thread; its
/// reply arrives as a [`Completion`] for `token`. An error means it never
/// got there (no session, unknown template, shed) and the caller answers
/// inline.
fn submit_txn(
    shared: &Shared,
    exec: &mut ConnExec,
    completions: &Completions,
    token: u64,
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
    let reply = RunReply {
        token,
        request_id,
        completions: completions.clone(),
        inflight: admit(shared)?,
        answer: None,
    };
    let sink = move |result| {
        reply.settle(match committed(result) {
            Ok((outcome, results)) => Message::TxnReply { outcome, results },
            Err(e) => Message::Err(e),
        });
    };
    session.submit(template, table_set.clone(), params, idem, sink);
    Ok(())
}
