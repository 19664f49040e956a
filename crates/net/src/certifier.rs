//! The certifier as a network service: host the certification/durability
//! component in its own process (the paper's deployment separates the
//! certifier from the replicas), plus the cluster-side link that connects a
//! [`bargain_cluster::Cluster`] to it.
//!
//! Protocol (certifier endpoint, message kinds 15–16 and 20–26):
//!
//! - On connect, the cluster sends [`Message::FetchHistory`] once and
//!   fast-forwards its replicas through the returned commit history.
//! - Thereafter the cluster streams [`Message::Certify`] and
//!   [`Message::Applied`] requests; the server pushes
//!   [`Message::RefreshFor`], [`Message::Decision`], and
//!   [`Message::GlobalCommitFor`] deliveries, each tagged with the replica
//!   it addresses (the TCP link carries what the in-process runtime carries
//!   on per-replica channels).
//! - [`Message::Ping`] is answered with [`Message::Pong`]: the link pings
//!   when its request stream is idle, and a certifier that stops answering
//!   within the heartbeat deadline is declared down.
//!
//! The link is *pipelined by construction*: the writer streams certify
//! traffic without waiting for round trips, and the split reader matches
//! deliveries by the protocol's own ordering (refreshes before their
//! decision). Direct request/reply exchanges — history fetches, pings, the
//! stop ack — additionally carry the v2 frame `request_id` tag, echoed by
//! the server, so they interleave safely with the push stream.
//!
//! The service side decodes, steps and queues: every certifier decision —
//! which requests form a group commit, who receives each refresh, when a
//! global commit is due, what a refused request is answered — is
//! `bargain_core::Certifier::step`'s, the same step the runtime's
//! in-process certifier and the simulator run. The service owns the socket,
//! the batch counters and the frames that are no certifier input (`Ping`,
//! `FetchHistory`, `StopServer`).
//!
//! # Fault tolerance
//!
//! The cluster side splits its socket: a writer (the `CertifierLink::serve`
//! thread) streams requests while a dedicated reader thread drains
//! deliveries and hands each straight to its replica's queue
//! ([`CertifierDeliveries`]), so neither direction can block the other and
//! no third thread forwards. The reader's socket deadline doubles as the
//! failure detector: if no frame — decision, refresh, or pong — arrives
//! within `heartbeat_timeout`, the link is declared down in bounded time
//! even against a peer that is hung rather than dead.
//!
//! On failure the writer joins the reader, then delivers
//! [`CertifierDelivery::Down`]; the runtime sweeps (aborts) every
//! certifying transaction and sheds new updates at the load balancer.
//! Joining first is what puts every decision the reader delivered ahead of
//! the sweep on its replica's queue. The link then reconnects with backoff,
//! fetches the commits it may have missed ([`Message::FetchHistory`] with
//! the last version it saw a decision for), delivers them as
//! [`CertifierDelivery::Resync`] refreshes and then
//! [`CertifierDelivery::Up`], both before the next reader starts.
//!
//! Exactly-once across the outage hinges on one fencing rule: a certify
//! request enqueued *before* its replica processed the sweep belongs to an
//! aborted transaction and must never reach the certifier (if it committed,
//! its origin — which discarded the tentative writes — could never apply
//! the commit, leaving a version gap). The sweep acknowledgement
//! (`CertifierRequest::SweepAck`) travels the same FIFO request channel as
//! the certify traffic, so the link discards every certify request from a
//! replica until that replica's acknowledgement of the current failure
//! epoch arrives, and forwards everything after it.

use crate::codec::Message;
use crate::conn::{ConnectPolicy, Connection};
use crate::evloop::{Conn, Core, Service, Stopper, WriteHalf};
use crate::frame::{encode_frame, PUSH_ID};
use crate::server::NetServerConfig;
use bargain_cluster::{CertifierDeliveries, CertifierDelivery, CertifierLink, CertifierRequest};
use bargain_common::{Error, ReplicaId, Result, Version};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, CertifyDecision, LogRecord};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr};
use std::path::PathBuf;
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Construction parameters for a certifier service process.
#[derive(Debug, Clone)]
pub struct CertifierServerConfig {
    /// Replica count of the cluster this certifier serves (must match the
    /// cluster's `ClusterConfig::replicas`).
    pub replicas: usize,
    /// Enables eager global-commit accounting (match the cluster's mode).
    pub eager: bool,
    /// When set, the commit WAL lives inside this directory (laid out by
    /// [`Certifier::open`]) and is replayed on start — durability lives
    /// with this process, exactly as in the in-process deployment.
    pub wal_dir: Option<PathBuf>,
}

impl Default for CertifierServerConfig {
    fn default() -> Self {
        CertifierServerConfig {
            replicas: 3,
            eager: false,
            wal_dir: None,
        }
    }
}

/// Counters of a running certifier service, read with
/// [`CertifierServer::stats`]. `batches` against `certify_frames` is how
/// far batching adapted to the load: equal when every request arrived
/// alone, far apart under a burst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifierServerStats {
    /// `Certify` frames received.
    pub certify_frames: u64,
    /// Batches those frames were certified in (one group commit each).
    pub batches: u64,
    /// The most frames certified as one batch.
    pub largest_batch: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed because a newer one arrived.
    pub superseded: u64,
    /// Bytes read from cluster connections.
    pub bytes_in: u64,
    /// Bytes written to cluster connections.
    pub bytes_out: u64,
}

/// [`CertifierServerStats`] as the service thread updates it. The thread
/// is the only writer and the counters publish no other data, so every
/// access is `Relaxed`.
#[derive(Default)]
struct Counters {
    certify_frames: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    accepted: AtomicU64,
    superseded: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A running certifier service on the event loop it shares with
/// [`crate::server::NetServer`]. It serves one cluster connection at a time (the
/// certifier is a singleton component) and the newest one wins: when a
/// cluster reconnects — or restarts — the connection it left behind is
/// closed, and the newcomer re-fetches the durable history and resumes.
pub struct CertifierServer {
    addr: SocketAddr,
    stopper: Stopper,
    counters: Arc<Counters>,
    handle: Option<JoinHandle<()>>,
}

impl CertifierServer {
    /// Binds `addr` (port 0 for OS-assigned) and starts serving.
    pub fn start(addr: &str, config: CertifierServerConfig) -> Result<CertifierServer> {
        let mut certifier =
            Certifier::open(replica_ids(config.replicas), config.wal_dir.as_deref())?;
        certifier.set_eager(config.eager);

        let (core, addr, stopper) = Core::bind(addr, NetServerConfig::default())?;
        let counters = Arc::new(Counters::default());
        let service = CertifierService {
            certifier,
            stop: Arc::clone(&stopper.flag),
            counters: Arc::clone(&counters),
        };
        let handle = std::thread::Builder::new()
            .name("bargain-certifier-net".into())
            .spawn(move || {
                if let Err(e) = core.run(service) {
                    eprintln!("bargain-net certifier service failed: {e}");
                }
            })
            .map_err(Error::from)?;
        Ok(CertifierServer {
            addr,
            stopper,
            counters,
            handle: Some(handle),
        })
    }

    /// The address the service actually bound.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's counters so far.
    #[must_use]
    pub fn stats(&self) -> CertifierServerStats {
        let c = &*self.counters;
        CertifierServerStats {
            certify_frames: c.certify_frames.load(Relaxed),
            batches: c.batches.load(Relaxed),
            largest_batch: c.largest_batch.load(Relaxed),
            accepted: c.accepted.load(Relaxed),
            superseded: c.superseded.load(Relaxed),
            bytes_in: c.bytes_in.load(Relaxed),
            bytes_out: c.bytes_out.load(Relaxed),
        }
    }

    /// Asks the service to stop without blocking; the request rides the
    /// event loop's wakeup pipe, so drain starts immediately.
    pub fn request_stop(&self) {
        self.stopper.request();
    }

    /// Blocks until the service thread exits (after
    /// [`CertifierServer::request_stop`] or a client's
    /// [`Message::StopServer`]).
    pub fn wait(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: request stop, then wait.
    pub fn stop(self) {
        self.request_stop();
        self.wait();
    }
}

fn replica_ids(n: usize) -> Vec<ReplicaId> {
    (0..n as u32).map(ReplicaId).collect()
}

/// The certifier on the shared event loop: it steps the certifier inline on
/// the loop thread over what one readiness event decoded, so a burst of
/// `Certify` frames is group-committed (`bargain_core::certifier` has the
/// cut and order rules), and queues the outputs on the connection before
/// any frame that arrived later is answered.
struct CertifierService {
    certifier: Certifier,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl CertifierService {
    /// Steps the certifier over `inputs` and queues what it produced on
    /// `conn`, in the step's order: the link takes a decision as proof that
    /// its commit's refreshes, written ahead of it, have arrived. A log that
    /// fails to flush ends the connection.
    fn step(&mut self, conn: &mut Conn<()>, inputs: Vec<Input>) {
        let step = match self.certifier.step(inputs) {
            Ok(step) => step,
            Err(e) => return conn.close_after(PUSH_ID, &Message::Err(e)),
        };
        let c = &self.counters;
        for &frames in &step.batches {
            c.certify_frames.fetch_add(frames as u64, Relaxed);
            c.batches.fetch_add(1, Relaxed);
            c.largest_batch.fetch_max(frames as u64, Relaxed);
        }
        for (to, delivery) in step.out {
            conn.enqueue_reply(PUSH_ID, &delivery_frame(to, delivery));
        }
    }

    /// Answers a frame that is no certifier input, echoing its request's id
    /// (deliveries answer no single request and carry [`PUSH_ID`]).
    fn answer(&mut self, conn: &mut Conn<()>, request_id: u64, msg: Message) {
        match msg {
            Message::Ping => conn.enqueue_reply(request_id, &Message::Pong),
            Message::FetchHistory { after } => {
                let reply = match self.certifier.certified_since(after) {
                    Ok(records) => Message::History { records },
                    Err(e) => Message::Err(e),
                };
                conn.enqueue_reply(request_id, &reply);
            }
            Message::StopServer => {
                self.stop.store(true, Ordering::SeqCst);
                conn.close_after(request_id, &Message::Ack);
            }
            other => conn.close_after(
                request_id,
                &Message::Err(Error::Protocol(format!(
                    "unexpected message kind {} on a certifier connection",
                    other.kind()
                ))),
            ),
        }
    }
}

/// The frame that carries `delivery` to replica `to`.
fn delivery_frame(to: ReplicaId, delivery: Delivery) -> Message {
    match delivery {
        Delivery::Refresh(refresh) => Message::RefreshFor { to, refresh },
        Delivery::Decision(decision) => Message::Decision {
            origin: to,
            decision,
        },
        Delivery::GlobalCommit(txn) => Message::GlobalCommitFor { origin: to, txn },
    }
}

impl Service for CertifierService {
    type Conn = ();

    /// The newest cluster connection supersedes: a half-open predecessor
    /// (partition without FIN) would otherwise hold the singleton service
    /// until its read deadline while the reconnecting link waits. What the
    /// old connection was still owed is durable, so the newcomer's
    /// `FetchHistory` resync covers it whether or not this flush arrives.
    fn accepted(&mut self, core: &mut Core<()>, _token: u64, _half: &Arc<WriteHalf>) {
        self.counters.accepted.fetch_add(1, Relaxed);
        // Dropping a connection closes its socket (this service never
        // shares a write half), which also removes it from the poller.
        for (_, mut conn) in core.conns.drain() {
            conn.flush_out();
            self.counters.superseded.fetch_add(1, Relaxed);
        }
    }

    fn messages(&mut self, conn: &mut Conn<()>, msgs: Vec<(u64, Message)>) {
        let mut inputs = Vec::new();
        for (request_id, msg) in msgs {
            inputs.push(match msg {
                Message::Certify(req) => Input::Certify(req),
                Message::Applied { replica, version } => Input::Applied { replica, version },
                // Any other frame may depend on decisions queued before it:
                // step over what came first, then answer.
                other => {
                    self.step(conn, std::mem::take(&mut inputs));
                    if !conn.closing() {
                        self.answer(conn, request_id, other);
                    }
                    if conn.closing() {
                        return; // no new work after a fatal reply
                    }
                    continue;
                }
            });
        }
        self.step(conn, inputs);
    }

    /// A stopping service closes its connection once what is queued on it
    /// has flushed.
    fn turn(&mut self, core: &mut Core<()>, draining: bool, dirty: &mut Vec<u64>) {
        if draining {
            for conn in core.conns.values_mut() {
                conn.set_closing();
                dirty.push(conn.token);
            }
        }
    }

    fn transferred(&self, read: usize, written: usize) {
        self.counters.bytes_in.fetch_add(read as u64, Relaxed);
        self.counters.bytes_out.fetch_add(written as u64, Relaxed);
    }
}

// ----------------------------------------------------------------------
// Cluster-side link
// ----------------------------------------------------------------------

/// Heartbeat/failure-detection tuning for [`RemoteCertifierLink`].
#[derive(Debug, Clone)]
pub struct CertifierLinkConfig {
    /// Idle gap on the request stream after which the link sends a
    /// [`Message::Ping`].
    pub heartbeat_interval: Duration,
    /// Delivery-stream deadline: if no frame (pong included) arrives within
    /// this window, the peer is declared down. Must exceed
    /// `heartbeat_interval` or a healthy idle link flaps.
    pub heartbeat_timeout: Duration,
    /// Sleep between reconnect rounds once the policy's attempts inside a
    /// round are exhausted.
    pub reconnect_pause: Duration,
}

impl Default for CertifierLinkConfig {
    fn default() -> Self {
        CertifierLinkConfig {
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(2),
            reconnect_pause: Duration::from_millis(100),
        }
    }
}

/// The cluster side of the TCP certifier transport: pass it to
/// [`bargain_cluster::Cluster::start_with_certifier_link`] to run against a
/// [`CertifierServer`] in another process. Survives certifier restarts and
/// link failures: see the module docs for the down/resync/up protocol.
pub struct RemoteCertifierLink {
    addr: String,
    policy: ConnectPolicy,
    config: CertifierLinkConfig,
    conn: Option<Connection>,
    max_seen: Version,
}

impl RemoteCertifierLink {
    /// Connects to a certifier service with the default policy.
    pub fn connect(addr: &str) -> Result<RemoteCertifierLink> {
        Self::connect_with(addr, &ConnectPolicy::default())
    }

    /// Connects with an explicit retry/backoff policy.
    pub fn connect_with(addr: &str, policy: &ConnectPolicy) -> Result<RemoteCertifierLink> {
        Self::connect_with_config(addr, policy, CertifierLinkConfig::default())
    }

    /// Connects with explicit retry/backoff and heartbeat tuning.
    pub fn connect_with_config(
        addr: &str,
        policy: &ConnectPolicy,
        config: CertifierLinkConfig,
    ) -> Result<RemoteCertifierLink> {
        let conn = Connection::connect(addr, policy)?;
        Ok(RemoteCertifierLink {
            addr: addr.to_owned(),
            policy: policy.clone(),
            config,
            conn: Some(conn),
            max_seen: Version::ZERO,
        })
    }

    fn fetch_history(conn: &mut Connection, after: Version) -> Result<Vec<LogRecord>> {
        match conn.call(&Message::FetchHistory { after })? {
            Message::History { records } => Ok(records),
            other => Err(Error::Protocol(format!(
                "expected History, got message kind {}",
                other.kind()
            ))),
        }
    }

    /// Reconnects with backoff, harvesting queued requests into `buffer` so
    /// a concurrent [`CertifierRequest::Shutdown`] (e.g. `Cluster::drain`
    /// while the certifier is away) still tears the link down promptly.
    /// Returns `None` when a shutdown was harvested.
    fn reconnect(
        &self,
        requests: &Receiver<CertifierRequest>,
        buffer: &mut VecDeque<CertifierRequest>,
    ) -> Option<Connection> {
        loop {
            while let Ok(req) = requests.try_recv() {
                if matches!(req, CertifierRequest::Shutdown) {
                    return None;
                }
                buffer.push_back(req);
            }
            match Connection::connect(self.addr.as_str(), &self.policy) {
                Ok(conn) => return Some(conn),
                Err(_) => std::thread::sleep(self.config.reconnect_pause),
            }
        }
    }
}

/// What processing one request against the writer produced.
enum Flow {
    Continue,
    /// The transport failed mid-send: declare the link down.
    Down,
    /// Graceful shutdown was requested.
    Stop,
}

/// The most the link's writer gathers before it sends: one read of the
/// service's loop.
const MAX_BURST_BYTES: usize = 64 * 1024;

/// Appends `msg`'s frame to the burst the writer sends next.
fn push_frame(burst: &mut Vec<u8>, msg: &Message) -> Flow {
    match encode_frame(msg.kind(), PUSH_ID, &msg.encode()) {
        Ok(frame) => burst.extend_from_slice(&frame),
        Err(_) => return Flow::Down,
    }
    Flow::Continue
}

/// Forwards one harvested request into `burst`, enforcing the sweep fence:
/// certify traffic from a replica is dropped until that replica has
/// acknowledged the current failure epoch (`acked[replica] == epoch`).
fn forward_request(
    burst: &mut Vec<u8>,
    req: CertifierRequest,
    epoch: u64,
    acked: &mut HashMap<u32, u64>,
) -> Flow {
    match req {
        CertifierRequest::Certify(r) => {
            if acked.get(&r.replica.0).copied().unwrap_or(0) != epoch {
                // Enqueued before the replica processed the sweep: its
                // transaction was aborted, so certifying it now could
                // commit writes its origin can no longer apply.
                return Flow::Continue;
            }
            push_frame(burst, &Message::Certify(r))
        }
        CertifierRequest::Applied { replica, version } => {
            push_frame(burst, &Message::Applied { replica, version })
        }
        CertifierRequest::SweepAck { replica, epoch } => {
            acked.insert(replica.0, epoch);
            Flow::Continue
        }
        // Membership belongs to the remote certification service: this
        // link cannot change it, so joins and decommissions are refused.
        // (`Cluster::join_replica` guards earlier; this keeps a direct
        // sender honest too.)
        CertifierRequest::Join { reply, .. } => {
            let _ = reply.send(Err(Error::Unavailable(
                "join refused: membership belongs to the remote certification service".into(),
            )));
            Flow::Continue
        }
        CertifierRequest::Leave { ack, .. } => {
            let _ = ack.send(Err(Error::Unavailable(
                "decommission refused: membership belongs to the remote certification service"
                    .into(),
            )));
            Flow::Continue
        }
        CertifierRequest::History { reply, .. } => {
            let _ = reply.send(Err(Error::Unavailable(
                "history is served at connection time by the remote certifier link".into(),
            )));
            Flow::Continue
        }
        CertifierRequest::Shutdown => Flow::Stop,
    }
}

impl CertifierLink for RemoteCertifierLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| Error::Protocol("certifier link already serving".into()))?;
        let records = Self::fetch_history(conn, Version::ZERO)?;
        // The cluster replays these before the link serves: they are the
        // floor for any post-reconnect resync.
        if let Some(last) = records.last() {
            self.max_seen = last.commit_version;
        }
        Ok(records)
    }

    fn serve(
        mut self: Box<Self>,
        requests: Receiver<CertifierRequest>,
        deliveries: CertifierDeliveries,
    ) {
        let mut conn = self.conn.take();
        // Highest commit version whose decision frame arrived; advanced by
        // the reader, read by the writer only after the reader has been
        // joined. Decisions are sent after their commit's refresh fan-out,
        // so everything at or below this version has been fully delivered.
        let max_seen = Arc::new(AtomicU64::new(self.max_seen.0));
        // Failure epoch: bumped each time the link is declared down.
        let mut epoch: u64 = 0;
        // Per-replica sweep acknowledgements (replica -> acked epoch).
        let mut acked: HashMap<u32, u64> = HashMap::new();
        // Requests harvested while reconnecting, flushed (fence applied)
        // once the link is back.
        let mut buffer: VecDeque<CertifierRequest> = VecDeque::new();

        'link: loop {
            let mut writer = match conn.take() {
                Some(c) => c,
                None => match self.reconnect(&requests, &mut buffer) {
                    Some(c) => c,
                    None => break 'link, // shutdown while down
                },
            };

            if epoch > 0 {
                // Resynchronize: fetch commits certified while the link was
                // down (or whose deliveries died with the old socket) and
                // replay them to every replica before resuming admission.
                // No reader runs yet, so nothing is delivered in between.
                let after = Version(max_seen.load(Ordering::SeqCst));
                match Self::fetch_history(&mut writer, after) {
                    Ok(records) => {
                        if let Some(last) = records.last() {
                            max_seen.store(last.commit_version.0, Ordering::SeqCst);
                        }
                        if !records.is_empty() {
                            deliveries.send(CertifierDelivery::Resync { records });
                        }
                        deliveries.send(CertifierDelivery::Up);
                    }
                    Err(_) => {
                        // Lost the race with another failure (e.g. a
                        // partition that lets TCP connect but kills the
                        // first round trip): pause, then reconnect. Down
                        // was already announced for this epoch, so don't
                        // announce it again.
                        std::thread::sleep(self.config.reconnect_pause);
                        continue 'link;
                    }
                }
            }

            // Split the socket: this thread writes requests, a dedicated
            // reader drains deliveries and hands each to its replica. The
            // reader's deadline is the failure detector; on any exit it
            // shuts the socket down so the writer notices even while idle.
            let reader_conn = writer.stream().try_clone().ok().and_then(|s| {
                Connection::from_stream(
                    s,
                    Some(self.config.heartbeat_timeout),
                    self.policy.write_timeout,
                )
                .ok()
            });
            let Some(mut reader) = reader_conn else {
                // Could not split: treat as a transport failure.
                epoch += 1;
                deliveries.send(CertifierDelivery::Down { epoch });
                continue 'link;
            };
            let reader_handle = {
                let deliveries = deliveries.clone();
                let max_seen = Arc::clone(&max_seen);
                std::thread::Builder::new()
                    .name("bargain-certlink-read".into())
                    .spawn(move || {
                        loop {
                            let (to, delivery) = match reader.recv() {
                                Ok(Message::Decision { origin, decision }) => {
                                    if let CertifyDecision::Commit { commit_version, .. } =
                                        &decision
                                    {
                                        max_seen.store(commit_version.0, Ordering::SeqCst);
                                    }
                                    (origin, Delivery::Decision(decision))
                                }
                                Ok(Message::RefreshFor { to, refresh }) => {
                                    (to, Delivery::Refresh(refresh))
                                }
                                Ok(Message::GlobalCommitFor { origin, txn }) => {
                                    (origin, Delivery::GlobalCommit(txn))
                                }
                                // Heartbeat answer: its arrival already
                                // reset the read deadline.
                                Ok(Message::Pong) => continue,
                                // Unexpected frame, checksum failure, read
                                // deadline expiry, or dead connection: the
                                // link is done delivering on this socket.
                                Ok(_) | Err(_) => break,
                            };
                            deliveries.send(CertifierDelivery::Deliver { to, delivery });
                        }
                        let _ = reader.stream().shutdown(Shutdown::Both);
                    })
                    .expect("spawn certifier link reader")
            };

            // Requests harvested while the link was away go first, then
            // live traffic; idle gaps become heartbeats. Frames gather in
            // `burst` while more requests are already queued and leave in
            // one write just before this thread would block, so requests
            // issued together reach the service as one read and are
            // certified as one batch.
            let mut flow = Flow::Continue;
            let mut burst = Vec::new();
            while matches!(flow, Flow::Continue) {
                let queued = (burst.len() < MAX_BURST_BYTES)
                    .then(|| buffer.pop_front().or_else(|| requests.try_recv().ok()))
                    .flatten();
                flow = match queued {
                    Some(req) => forward_request(&mut burst, req, epoch, &mut acked),
                    None if writer.stream().write_all(&burst).is_err() => Flow::Down,
                    None => {
                        burst.clear();
                        match requests.recv_timeout(self.config.heartbeat_interval) {
                            Ok(req) => forward_request(&mut burst, req, epoch, &mut acked),
                            Err(RecvTimeoutError::Timeout) => {
                                push_frame(&mut burst, &Message::Ping)
                            }
                            Err(RecvTimeoutError::Disconnected) => Flow::Stop,
                        }
                    }
                };
            }
            if matches!(flow, Flow::Stop) {
                // Everything forwarded before the shutdown request still goes.
                let _ = writer.stream().write_all(&burst);
            }

            // Tear this socket down and join the reader: every decision it
            // delivered is on its replica's queue before Down puts the sweep
            // there, so replicas process them before the sweep.
            let _ = writer.stream().shutdown(Shutdown::Both);
            let _ = reader_handle.join();

            if matches!(flow, Flow::Stop) {
                break 'link;
            }
            epoch += 1;
            deliveries.send(CertifierDelivery::Down { epoch });
        }
    }
}
