//! The certifier as a network service: host the certification/durability
//! component in its own process (the paper's deployment separates the
//! certifier from the replicas), plus the cluster-side link that connects a
//! [`bargain_cluster::Cluster`] to it.
//!
//! Protocol (certifier endpoint, message kinds 2, 15–16 and 20–27):
//!
//! - The cluster introduces itself on every connection with
//!   [`Message::HelloAck`]: its replica count and consistency mode, which
//!   the service is not configured with. The first introduction installs
//!   members `0..replicas` and, in the eager mode, the global-commit
//!   accounting; the same introduction again changes nothing (a reconnect
//!   must not reset eager credit). A different one, one naming 0 replicas
//!   or more than [`MAX_REPLICAS`], and any [`Message::Certify`],
//!   [`Message::Applied`] or [`Message::ReplicaHello`] before the first
//!   introduction are refused with `Err(Protocol)` and the connection is
//!   closed; the next connection is served as before.
//! - On connect, the cluster reads the commit history with
//!   [`crate::bootstrap::fetch_history`] and fast-forwards its replicas
//!   through it. Each [`Message::FetchHistory`] is answered with one page
//!   of at most [`crate::codec::CATCH_UP_RECORDS`] records, the same page
//!   the frontend answers a joining node with, so a log of any length
//!   arrives in frames under the cap; the reader stops at the first short
//!   page, which is exact here because nothing else certifies while the
//!   link is fetching.
//! - Thereafter the cluster streams [`Message::Certify`] and
//!   [`Message::Applied`] requests; the server pushes
//!   [`Message::RefreshFor`], [`Message::Decision`], and
//!   [`Message::GlobalCommitFor`] deliveries, each tagged with the replica
//!   it addresses (the TCP link carries what the in-process runtime carries
//!   on per-replica channels).
//! - [`Message::Ping`] is answered with [`Message::Pong`]: the link pings
//!   when nothing has arrived for a heartbeat interval, and a certifier
//!   that stops answering within the heartbeat deadline is declared down.
//!
//! The link is *pipelined by construction*: the replica threads write
//! certify traffic without waiting for round trips, and the link's thread
//! matches deliveries by the protocol's own ordering (refreshes before
//! their decision). Direct request/reply exchanges — history fetches,
//! pings, the stop ack — additionally carry the v2 frame `request_id` tag,
//! echoed by the server, so they interleave safely with the push stream.
//!
//! The service side decodes, steps and queues: every certifier decision —
//! which requests form a group commit, who receives each refresh, when a
//! global commit is due, what a refused request is answered — is
//! `bargain_core::Certifier::step`'s, the same step the runtime's
//! in-process certifier and the simulator run. The service owns the socket,
//! the batch counters and the frames that are no certifier input (`Ping`,
//! `FetchHistory`, `StopServer`). A [`Message::ReplicaHello`] is the
//! certifier's `Input::Hello`.
//!
//! # Fault tolerance
//!
//! The cluster side is one thread plus a lock. A replica thread that hands
//! over a request writes its frame itself, with one `write_all` under the
//! link's lock (or, while the link is down, leaves it there to be sent on
//! reconnect). The link's one thread, `bargain-certlink`, reads: one
//! `read` takes whatever burst of deliveries has arrived, a frame decoder
//! keeps what a read split, and each delivery goes straight to its
//! replica's queue ([`CertifierDeliveries`]). Its read deadline is the
//! failure detector: after a heartbeat interval with nothing received it
//! pings, and if no frame — decision, refresh, or pong — arrives within
//! `heartbeat_timeout`, the link is declared down in bounded time even
//! against a peer that is hung rather than dead. A failed write shuts the
//! socket down, which the reading thread notices.
//!
//! The link thread never waits for the lock while a replica may be blocked
//! writing to its socket: it pings only if the lock is free, and it shuts
//! the socket down before it takes the lock. A replica blocked writing to
//! a peer that is itself blocked writing deliveries to us would otherwise
//! never be let go. A write blocked for `heartbeat_timeout` fails, which
//! bounds the ping's own write too.
//!
//! On failure the link thread shuts the socket down, bumps the failure
//! epoch and clears the write side under the lock, then delivers
//! [`CertifierDelivery::Down`]; the runtime sweeps (aborts) every
//! certifying transaction and sheds new updates at the load balancer.
//! Every decision it read before is already on its replica's queue, ahead
//! of the sweep: the same thread delivered it. The link then reconnects
//! with backoff, fetches the commits it may have missed (the history above
//! the last version it saw a decision for), delivers them as
//! [`CertifierDelivery::Resync`] refreshes and then
//! [`CertifierDelivery::Up`], and only then sends what was held and
//! installs the new write side. What was held includes each replica's
//! re-introduction: handling the sweep, a replica reports its `V_local`
//! ([`CertifierRequest::Hello`], sent as [`Message::ReplicaHello`]), which
//! credits it in the eager accounting for every commit it holds — the
//! `Applied` reports that died with the old socket, or every credit a
//! restarted certifier's recovery reset.
//!
//! Exactly-once across the outage hinges on one fencing rule: a certify
//! request handed over *before* its replica processed the sweep belongs to
//! an aborted transaction and must never reach the certifier (if it
//! committed, its origin — which discarded the tentative writes — could
//! never apply the commit, leaving a version gap). A replica acknowledges
//! the sweep (`CertifierRequest::SweepAck`) on the thread that hands over
//! its certify requests, so the link drops every certify request from a
//! replica until that replica's acknowledgement of the current failure
//! epoch has arrived, and writes everything after it.

use crate::bootstrap::fetch_history;
use crate::codec::{history_page, unexpected, Message};
use crate::conn::{ConnectPolicy, Connection};
use crate::evloop::{Conn, Core, Service, Stopper, WriteHalf};
use crate::frame::{Frame, FrameDecoder, PUSH_ID};
use crate::server::NetServerConfig;
use bargain_cluster::{CertifierDeliveries, CertifierDelivery, CertifierLink, CertifierRequest};
use bargain_common::{ConsistencyMode, Error, ReplicaId, Result, Version};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, CertifyDecision, LogRecord};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Construction parameters for a certifier service process. The replica
/// set and the consistency mode are not among them: the service learns
/// both from the cluster's introduction (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct CertifierServerConfig {
    /// When set, the commit WAL lives inside this directory (laid out by
    /// [`Certifier::open`]) and is replayed on start — durability lives
    /// with this process, exactly as in the in-process deployment.
    pub wal_dir: Option<PathBuf>,
}

/// The most replicas an introduction may name: each commit fans out one
/// refresh per member, so the bound caps what one frame can make the
/// service do.
pub const MAX_REPLICAS: u32 = 1_024;

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
        let certifier = Certifier::open(Vec::new(), config.wal_dir.as_deref())?;

        let (core, addr, stopper) = Core::bind(addr, NetServerConfig::default())?;
        let counters = Arc::new(Counters::default());
        let service = CertifierService {
            certifier,
            introduced: None,
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

/// The certifier on the shared event loop: it steps the certifier inline on
/// the loop thread over what one readiness event decoded, so a burst of
/// `Certify` frames is group-committed (`bargain_core::certifier` has the
/// cut and order rules), and queues the outputs on the connection before
/// any frame that arrived later is answered.
struct CertifierService {
    certifier: Certifier,
    /// The replica count and mode the cluster introduced itself with;
    /// `None` until it has.
    introduced: Option<(u32, ConsistencyMode)>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl CertifierService {
    /// Steps the certifier over `inputs` and queues what it produced on
    /// `conn`, in the step's order: the link takes a decision as proof that
    /// its commit's refreshes, written ahead of it, have arrived. A log that
    /// fails to flush ends the connection, and so does certifier input
    /// before the cluster's introduction: there is no membership to
    /// certify for.
    fn step(&mut self, conn: &mut Conn<()>, inputs: Vec<Input>) {
        if self.introduced.is_none() && !inputs.is_empty() {
            let why = "certifier input before the cluster's introduction";
            return conn.close_after(PUSH_ID, &Message::Err(Error::Protocol(why.into())));
        }
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

    /// Takes the cluster's introduction: the first joins members
    /// `0..replicas` and installs the mode's eager accounting, the same one
    /// again changes nothing (it must not reset eager credit), and any other
    /// is refused.
    fn introduce(&mut self, replicas: u32, mode: ConsistencyMode) -> Result<()> {
        let introduction = Some((replicas, mode));
        if self.introduced.is_none() && (1..=MAX_REPLICAS).contains(&replicas) {
            let join = |r| Input::Join {
                replica: ReplicaId(r),
                after: Version::ZERO,
            };
            self.certifier.step((0..replicas).map(join))?;
            self.certifier.set_eager(mode == ConsistencyMode::Eager);
            self.introduced = introduction;
        }
        if self.introduced == introduction {
            return Ok(());
        }
        Err(Error::Protocol(format!(
            "introduction of {replicas} replicas in {mode:?} refused: a cluster has 1 to \
             {MAX_REPLICAS}, and the service keeps the first introduction it took ({:?})",
            self.introduced
        )))
    }

    /// Answers a frame that is no certifier input, echoing its request's id
    /// (deliveries answer no single request and carry [`PUSH_ID`]).
    fn answer(&mut self, conn: &mut Conn<()>, request_id: u64, msg: Message) {
        match msg {
            Message::HelloAck { replicas, mode } => {
                if let Err(e) = self.introduce(replicas, mode) {
                    conn.close_after(request_id, &Message::Err(e));
                }
            }
            Message::Ping => conn.enqueue_reply(request_id, &Message::Pong),
            Message::FetchHistory { after } => {
                let reply = history_page(after, |after, max| {
                    self.certifier.certified_page(after, max)
                });
                conn.enqueue_reply(request_id, &reply);
            }
            Message::StopServer => {
                self.stop.store(true, Ordering::SeqCst);
                conn.close_after(request_id, &Message::Ack);
            }
            other => {
                let refused = unexpected("a certifier request", &other);
                conn.close_after(request_id, &Message::Err(refused));
            }
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
                Message::ReplicaHello { replica, v_local } => Input::Hello { replica, v_local },
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
    /// Gap with nothing received after which the link sends a
    /// [`Message::Ping`].
    pub heartbeat_interval: Duration,
    /// Silence deadline: if no frame (pong included) arrives within this
    /// window, or a write blocks this long, the peer is declared down.
    /// Must exceed `heartbeat_interval` or a healthy idle link flaps.
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
    /// What the replica threads write under; the link thread waits for it
    /// only while no replica can be blocked writing to its socket.
    state: Mutex<LinkState>,
}

/// The part of the link that the threads asking and the link thread share.
#[derive(Default)]
struct LinkState {
    /// The connection `connect*` made and the last version its history
    /// fetch returned: the link thread starts on it.
    first: Option<(Connection, Version)>,
    /// The live socket's write side; `None` while the link is down.
    write: Option<TcpStream>,
    /// Failure epoch: bumped each time the link is declared down.
    epoch: u64,
    /// Per-replica sweep acknowledgements (replica -> acked epoch).
    acked: HashMap<u32, u64>,
    /// Requests handed over while the link is down, written once it is
    /// back.
    held: Vec<Message>,
    /// What [`LinkState::write_or_shut`] encodes into, kept across calls so
    /// that a frame reuses the room the ones before it grew.
    encoded: Vec<u8>,
    /// A shutdown was requested: the link thread stops.
    stopped: bool,
}

impl LinkState {
    /// Writes `msgs` to the live socket, if there is one, in one
    /// `write_all`, every frame encoded into one buffer. A failure shuts
    /// the socket down, so the link thread, reading it, declares the link
    /// down.
    fn write_or_shut(&mut self, msgs: &[Message]) {
        let Some(mut stream) = self.write.as_ref() else {
            return;
        };
        self.encoded.clear();
        let encoded = msgs
            .iter()
            .try_for_each(|m| m.append_frame(&mut self.encoded, PUSH_ID));
        if encoded.is_err() || stream.write_all(&self.encoded).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
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
            state: Mutex::new(LinkState {
                first: Some((conn, Version::ZERO)),
                ..LinkState::default()
            }),
        })
    }

    /// Reconnects with backoff until a connection is made, or returns
    /// `None` once a shutdown was requested.
    fn reconnect(&self) -> Option<Connection> {
        loop {
            if self.state.lock().stopped {
                return None;
            }
            match Connection::connect(self.addr.as_str(), &self.policy) {
                Ok(conn) => return Some(conn),
                Err(_) => std::thread::sleep(self.config.reconnect_pause),
            }
        }
    }

    /// Reads `stream` and delivers every delivery frame until the link
    /// fails: end of stream, a read error, a frame that fails to decode or
    /// is no delivery, or `heartbeat_timeout` with nothing received. It
    /// starts with what the connection read ahead: `decoder` and `frames`.
    /// One read takes whatever burst has arrived; a frame split across
    /// reads waits in the decoder. Every read deadline (`heartbeat_interval`
    /// of silence) sends a ping, if the lock is free: its holder may be a
    /// replica blocked writing to a peer that waits for this thread to
    /// read.
    fn read(
        &self,
        mut stream: &TcpStream,
        mut decoder: FrameDecoder,
        mut frames: Vec<Frame>,
        deliveries: &CertifierDeliveries,
        max_seen: &mut Version,
    ) {
        let mut buf = vec![0u8; 64 * 1024];
        let mut heard = Instant::now();
        loop {
            for frame in frames.drain(..) {
                let (to, delivery) = match Message::decode(frame.kind, &frame.payload) {
                    Ok(Message::Decision { origin, decision }) => {
                        if let CertifyDecision::Commit { commit_version, .. } = &decision {
                            *max_seen = *commit_version;
                        }
                        (origin, Delivery::Decision(decision))
                    }
                    Ok(Message::RefreshFor { to, refresh }) => (to, Delivery::Refresh(refresh)),
                    Ok(Message::GlobalCommitFor { origin, txn }) => {
                        (origin, Delivery::GlobalCommit(txn))
                    }
                    // A heartbeat answer: its arrival was the point.
                    Ok(Message::Pong) => continue,
                    Ok(_) | Err(_) => return,
                };
                deliveries.send(CertifierDelivery::Deliver { to, delivery });
            }
            let n = match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    if heard.elapsed() >= self.config.heartbeat_timeout {
                        return;
                    }
                    if let Some(mut state) = self.state.try_lock() {
                        state.write_or_shut(&[Message::Ping]);
                    }
                    continue;
                }
                Err(_) => return,
            };
            heard = Instant::now();
            if decoder.feed(&buf[..n], &mut frames).is_err() {
                return;
            }
        }
    }
}

impl CertifierLink for RemoteCertifierLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        let (conn, floor) = self
            .state
            .get_mut()
            .first
            .as_mut()
            .ok_or_else(|| Error::Protocol("certifier link already serving".into()))?;
        let records = fetch_history(conn, Version::ZERO)?;
        // The cluster replays these before the link serves: they are the
        // floor for any post-reconnect resync.
        if let Some(last) = records.last() {
            *floor = last.commit_version;
        }
        Ok(records)
    }

    /// Writes the request's frame under the lock, or holds it while the
    /// link is down. Certify traffic from a replica is dropped until that
    /// replica has acknowledged the current failure epoch.
    fn request(&self, request: CertifierRequest) {
        let mut state = self.state.lock();
        let msg = match request {
            CertifierRequest::Certify(req) => {
                if state.acked.get(&req.replica.0).copied().unwrap_or(0) != state.epoch {
                    // Handed over before its replica processed the sweep:
                    // its transaction was aborted, so certifying it now
                    // could commit writes its origin can no longer apply.
                    return;
                }
                Message::Certify(req)
            }
            CertifierRequest::Applied { replica, version } => Message::Applied { replica, version },
            CertifierRequest::Hello { replica, v_local } => {
                Message::ReplicaHello { replica, v_local }
            }
            CertifierRequest::SweepAck { replica, epoch } => {
                state.acked.insert(replica.0, epoch);
                return;
            }
            CertifierRequest::Shutdown => {
                state.stopped = true;
                if let Some(write) = state.write.take() {
                    let _ = write.shutdown(Shutdown::Both);
                }
                return;
            }
        };
        if state.write.is_some() {
            state.write_or_shut(&[msg]);
        } else {
            state.held.push(msg);
        }
    }

    fn serve(&self, deliveries: CertifierDeliveries) {
        let (replicas, mode) = deliveries.introduction();
        let introduction = Message::HelloAck { replicas, mode };
        let first = self.state.lock().first.take();
        // Highest commit version whose decision frame arrived. Decisions
        // are sent after their commit's refresh fan-out, so everything at
        // or below it has been fully delivered.
        let mut max_seen = first.as_ref().map_or(Version::ZERO, |(_, floor)| *floor);
        let mut next = first.map(|(conn, _)| conn);
        loop {
            // Every connection after the first follows an outage.
            let outage = next.is_none();
            let Some(mut conn) = next.take().or_else(|| self.reconnect()) else {
                return;
            };
            // A peer that hangs fails the resync fetch, and any write it
            // stops draining, as it would fail the delivery stream.
            let deadline = Some(self.config.heartbeat_timeout);
            let _ = conn.stream().set_read_timeout(deadline);
            let _ = conn.stream().set_write_timeout(deadline);
            // The service takes no certifier input before the cluster's
            // introduction, so it goes first, ahead of what was held. If
            // the first connection read pushes ahead, it holds the frame,
            // and the fetch or the handover below writes it; a write that
            // fails fails them.
            let _ = conn.send(&introduction);
            if outage {
                // Resynchronize: fetch commits certified while the link was
                // down (or whose deliveries died with the old socket) and
                // replay them to every replica before admitting updates.
                match fetch_history(&mut conn, max_seen) {
                    Ok(records) => {
                        if let Some(last) = records.last() {
                            max_seen = last.commit_version;
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
                        // was already announced for this epoch.
                        std::thread::sleep(self.config.reconnect_pause);
                        continue;
                    }
                }
            }

            // Install the write side, sending what was held first, then
            // read until the link fails, starting with what the history
            // fetch read ahead. The handover writes the introduction if the
            // connection still holds it; a failed write is a failed link.
            if let Ok((stream, decoder, frames)) = conn.into_parts() {
                let ticks = stream.set_read_timeout(Some(self.config.heartbeat_interval));
                if let (Ok(write), Ok(())) = (stream.try_clone(), ticks) {
                    let mut state = self.state.lock();
                    if state.stopped {
                        return;
                    }
                    state.write = Some(write);
                    let held = std::mem::take(&mut state.held);
                    state.write_or_shut(&held);
                    drop(state);
                    self.read(&stream, decoder, frames, &deliveries, &mut max_seen);
                }
                // Down: shut the socket first, so a replica blocked writing
                // to it lets go of the lock. Every decision read above is on
                // its replica's queue ahead of the sweep that Down puts there.
                let _ = stream.shutdown(Shutdown::Both);
            }
            let epoch = {
                let mut state = self.state.lock();
                if state.stopped {
                    return;
                }
                state.write = None;
                state.epoch += 1;
                state.epoch
            };
            deliveries.send(CertifierDelivery::Down { epoch });
        }
    }
}
