//! The threaded runtime: replica threads fed by mailboxes, behind the
//! shared front door ([`crate::front`]) and the certifier's request port.
//!
//! Topology (one mailbox per replica thread, a FIFO queue through which a
//! refresh does not wake an idle replica, see [`crate::mailbox`]; `Front`
//! and the in-process certifier are mutexes, not threads):
//!
//! ```text
//! submitter ──Front::submit──▶ ToReplica::Txn ──▶ replica threads
//!    ▲        (route + enqueue under the lock)       │      │
//!    └─────sink(result)◀── Front::complete ──────────┘      │ Certify/Applied
//!          (reply after the lock)                           ▼
//!     replica mailboxes ◀──ToReplica::Certifier─── certifier lock, taken
//!        (every replica)    (delivered under it)   by the replica thread
//! ```
//!
//! All protocol logic lives in the `bargain-core` state machines; the
//! threads only move messages and execute statements.
//!
//! Certification has one request path: the replicas hand every
//! [`CertifierRequest`] to one port, on their own thread. The in-process
//! certifier *is* that port: a pending list in front of
//! `Mutex<Certifier>`. A request is pushed onto the list; then the thread
//! takes the certifier lock (blocking), steps over everything pending
//! (`Certifier::step`, whose cut rule forms the group commits), puts every
//! output on its addressee's queue *while still holding the lock*, and
//! releases. The [`Cluster`] handle's joins, decommissions and history
//! reads are calls on the same certifier, under the same lock, on the
//! caller's thread. Requests pushed while another
//! thread certifies and flushes go out together in the next holder's step,
//! which is the group commit; a thread that finds the list empty has had
//! its request stepped by an earlier holder. Delivering under the lock keeps
//! every replica queue in step order. Lock order: certifier, then the
//! replica registry; nothing takes the certifier lock while it holds the
//! front door or the registry.
//!
//! A [`CertifierLink`] — `bargain-net`'s TCP link, a test's fake — is the
//! same kind of port: [`CertifierLink::request`] runs on the replica thread
//! that asks (the TCP link writes the request's frame there, under its
//! lock), and the link's one thread, `bargain-certlink`, runs
//! [`CertifierLink::serve`], handing what the service sends to
//! [`CertifierDeliveries`]. No channel lies between a replica and a link.
//! Membership and history then belong to the remote service, and the
//! handle refuses joins, decommissions and history reads.

use crate::front::{Front, FrontDoor};
use crate::mailbox::{Mail, Mailbox};
use crate::session::Session;
use bargain_common::{
    ConsistencyMode, Error, ReplicaId, Result, TableSet, TemplateId, TxnId, Version,
};
use bargain_core::certifier::{Delivery, Input, Step};
use bargain_core::{
    Certifier, CertifyRequest, FinishAction, LoadBalancer, LogRecord, Proxy, ProxyEvent, Refresh,
    RoutedTxn, StartDecision, StatementOutcome, TxnOutcome, JOIN_LAG_BOUND,
};
use bargain_sql::{execute_ddl, parse, QueryResult, Statement, TransactionTemplate};
use bargain_storage::{Engine, Snapshot};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The replica mailbox registry, shared by the front door (and through it
/// the certifier's deliveries) and the [`Cluster`] handle. Indexed by
/// `ReplicaId::index()`; slots are only ever appended (a decommissioned
/// replica's mailbox stays in place, closed), so an id assigned once stays
/// valid for the cluster's lifetime. Taken after the front door's or the
/// certifier's lock when both are held.
pub(crate) type ReplicaTxs = Arc<Mutex<Vec<Arc<Mailbox<ToReplica>>>>>;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of database replicas (threads).
    pub replicas: usize,
    /// The consistency configuration.
    pub mode: ConsistencyMode,
    /// When set, the certifier's commit log lives inside this directory
    /// (`certifier.wal`, laid out by `bargain_core::Certifier::open`) and
    /// survives shutdown. On start the log is replayed:
    /// the certifier recovers its version counter and conflict history, and
    /// every replica engine fast-forwards through the certified writesets
    /// before serving. This is the paper's durability story — replicas run
    /// log-forcing off, the certifier's log is the one durable commit
    /// history — so restarting with the same `wal_dir` (and the same
    /// `setup`) resumes exactly where the last run committed.
    pub wal_dir: Option<std::path::PathBuf>,
    /// **Inert: read by nothing.** It partitioned the certifier's index
    /// and log by table, which saved 0.1 µs per transaction in memory and
    /// cost 1.4–3.3× over `FileLog`s, and was deleted (EXPERIMENTS.md, "One
    /// log"); every count decided identically, so ignoring it changes no
    /// decision. The field stays only because `e2e/src/deploy.rs`, a
    /// benchmark file this workspace may not edit, names it; ROADMAP item
    /// 4(e) lists it for deletion by the next change allowed to edit that
    /// file.
    #[doc(hidden)]
    pub shards: usize,
    /// **Inert: read by nothing.** It selected a worker-thread execution
    /// mode of the certifier that measured slower than this one in every
    /// configuration and was deleted (EXPERIMENTS.md, "One certifier"); both
    /// modes decided identically, so ignoring it changes no decision. The
    /// field stays only because `e2e/src/deploy.rs`, a benchmark file this
    /// workspace may not edit, names it; ROADMAP item 4(e) lists it for
    /// deletion by the next change allowed to edit that file.
    pub parallel_certifier: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            wal_dir: None,
            shards: 1,
            parallel_certifier: false,
        }
    }
}

/// A snapshot of cluster-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Transactions routed by the load balancer.
    pub routed: u64,
    /// Committed transactions observed by the load balancer.
    pub commits: u64,
    /// Aborted transactions observed by the load balancer.
    pub aborts: u64,
    /// Transactions whose outcome is unknown: their certification request
    /// was in flight when the certifier link failed, so they may have
    /// committed. Counted in neither `commits` nor `aborts`; the client
    /// learns the outcome by retrying under the same idempotency key.
    pub in_doubt: u64,
    /// The system version (`V_system`) at the load balancer.
    pub v_system: Version,
    /// Whether the link to the certification service is currently healthy
    /// (always `true` for the in-process certifier).
    pub certifier_up: bool,
    /// How many times the certifier link has been declared down.
    pub certifier_downs: u64,
    /// Certify requests the in-process certifier stepped. 0 behind a
    /// certifier link, whose service counts its own
    /// (`bargain-net`'s `CertifierServerStats`), and over the wire, which
    /// does not carry it.
    pub certified: u64,
    /// The group commits those requests went out in, one log flush each:
    /// against `certified`, how far batching adapted to the load.
    pub certify_batches: u64,
}

/// What the in-process certifier's steps certified, summed from
/// [`Step::batches`].
#[derive(Default)]
struct Certified {
    requests: AtomicU64,
    batches: AtomicU64,
}

impl Certified {
    fn count(&self, step: &Step) {
        let requests: usize = step.batches.iter().sum();
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        self.batches
            .fetch_add(step.batches.len() as u64, Ordering::Relaxed);
    }

    /// Requests and batches so far.
    fn read(&self) -> (u64, u64) {
        let requests = self.requests.load(Ordering::Relaxed);
        (requests, self.batches.load(Ordering::Relaxed))
    }
}

pub(crate) enum ToReplica {
    Txn {
        routed: RoutedTxn,
        template: Arc<TransactionTemplate>,
    },
    /// What the certifier sends this replica.
    Certifier(Delivery),
    /// The certifier link went down (failure epoch attached): abort every
    /// certifying transaction — its outcome is unknowable until the link
    /// recovers — and acknowledge the sweep back through the certifier
    /// port so the link can tell pre-sweep requests (to be discarded) from
    /// post-sweep ones (to be forwarded after reconnect).
    CertifierLost {
        epoch: u64,
    },
    Ddl(Arc<DdlFanIn>),
    /// Export a consistent snapshot of this replica's engine (it is the
    /// donor for a join). Runs on the replica thread, so the engine is
    /// quiescent for the duration — the checkpoint is trivially consistent.
    ExportSnapshot {
        chunk_bytes: usize,
        done: SnapshotSink,
    },
    /// Report the replica's current applied version (`V_local`); the join
    /// protocol polls this against `V_system` for the lag-bound admission
    /// check. Answered in mailbox order, i.e. after every refresh queued
    /// before the probe has been applied.
    Probe {
        reply: Sender<Version>,
    },
    Shutdown,
}

/// A refresh may wait for an idle replica's next wake-up: whatever runs
/// there next is queued behind it. Everything else is work to do now.
impl Mail for ToReplica {
    fn lazy(&self) -> bool {
        matches!(self, ToReplica::Certifier(Delivery::Refresh(_)))
    }
}

/// Where the outcome of a request the replicas answer goes.
type Done<T> = Box<dyn FnOnce(Result<T>) + Send>;

/// A DDL statement on its way to every replica. Each replica applies it
/// and lets go; whoever lets go last — the last replica to apply it, or the
/// caller if the replicas were quicker — updates the catalog mirror and
/// settles, from `Drop`, so a statement a dead replica's queue dropped
/// settles too.
pub(crate) struct DdlFanIn {
    stmt: Statement,
    catalog: Arc<Mutex<Engine>>,
    /// Replicas it was sent to, and those that applied it.
    sent: AtomicUsize,
    applied: AtomicUsize,
    /// The first error a replica met.
    error: Mutex<Option<Error>>,
    done: Mutex<Option<Done<()>>>,
}

impl DdlFanIn {
    fn apply(&self, engine: &mut Engine) {
        match execute_ddl(engine, &self.stmt) {
            Ok(()) => {
                self.applied.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.error.lock().get_or_insert(e);
            }
        }
    }
}

impl Drop for DdlFanIn {
    fn drop(&mut self) {
        let result = match self.error.get_mut().take() {
            Some(e) => Err(e),
            None if self.applied.get_mut() != self.sent.get_mut() => Err(shut_down()),
            None => execute_ddl(&mut self.catalog.lock(), &self.stmt),
        };
        if let Some(done) = self.done.get_mut().take() {
            done(result);
        }
    }
}

/// Where an exported snapshot goes: called on the donor's thread, or —
/// dropped uncalled, because no replica was up or the donor's thread is
/// gone with the request queued — with a refusal, from `Drop`.
pub(crate) struct SnapshotSink(Option<Done<Snapshot>>);

impl SnapshotSink {
    fn settle(mut self, snapshot: Snapshot) {
        if let Some(done) = self.0.take() {
            done(Ok(snapshot));
        }
    }
}

impl Drop for SnapshotSink {
    fn drop(&mut self) {
        if let Some(done) = self.0.take() {
            let why = "snapshot refused: no replica available (retry-after)";
            done(Err(Error::Unavailable(why.into())));
        }
    }
}

/// A message to the certification service (replica → certifier). Public so
/// that alternative certifier transports — notably `bargain-net`'s TCP link
/// to a certifier running in another process — can consume the cluster's
/// certification traffic.
pub enum CertifierRequest {
    /// Certify an update transaction's writeset.
    Certify(CertifyRequest),
    /// A replica reports having applied the given version (drives the eager
    /// configuration's global-commit accounting).
    Applied {
        /// The reporting replica.
        replica: ReplicaId,
        /// The version it has applied.
        version: Version,
    },
    /// A replica acknowledges the link-loss sweep of the given epoch. A
    /// replica hands its requests over in program order, so every certify
    /// request it handed over *before* this marker belonged to a
    /// transaction the sweep aborted: the link discards those instead of
    /// replaying them after reconnecting (replaying one could commit writes
    /// whose origin copy is gone, leaving a version gap at the origin
    /// replica).
    SweepAck {
        /// The acknowledging replica.
        replica: ReplicaId,
        /// The failure epoch being acknowledged.
        epoch: u64,
    },
    /// A replica re-introduces itself after the link-loss sweep: it has
    /// applied every commit up to `v_local`. The eager configuration's
    /// global-commit accounting credits it for those, which replaces the
    /// `Applied` reports lost with the link (or, across a certifier
    /// restart, every credit the recovery reset).
    Hello {
        /// The reporting replica.
        replica: ReplicaId,
        /// Its `V_local`.
        v_local: Version,
    },
    /// Flush pending work and stop serving.
    Shutdown,
}

/// A message the certification service delivers back to the cluster, tagged
/// with the replica it is addressed to.
pub enum CertifierDelivery {
    /// A refresh, decision or global commit for replica `to`.
    Deliver {
        /// The addressee.
        to: ReplicaId,
        /// What it receives.
        delivery: Delivery,
    },
    /// The transport declared the certification service unreachable
    /// (heartbeat expiry or send failure). A link delivers it only once
    /// every decision it received before the failure has been delivered, so
    /// each replica processes those *before* the sweep this triggers.
    Down {
        /// Monotone failure epoch (first failure is epoch 1).
        epoch: u64,
    },
    /// The transport reconnected and finished resynchronizing: new update
    /// traffic may be admitted again.
    Up,
    /// Commits certified while the link was down (or whose deliveries were
    /// lost with the old connection), fetched from the service's durable
    /// history on reconnect. The runtime replays them as refreshes to
    /// *every* replica — origins included, since the sweep aborted their
    /// local copies — and replicas ignore versions they already applied.
    Resync {
        /// The missed commit records, in commit order.
        records: Vec<LogRecord>,
    },
}

/// A transport to a certification service the runtime does not host.
/// `bargain-net` provides a TCP implementation, so the certifier can run
/// outside the cluster's process (the paper's deployment: middleware
/// components on separate machines); tests can provide in-process fakes.
pub trait CertifierLink: Send + Sync {
    /// Fetches the service's durable commit history once, before the
    /// replica threads start: the cluster replays it to fast-forward every
    /// replica engine from its `setup` checkpoint.
    fn history(&mut self) -> Result<Vec<LogRecord>>;

    /// Hands the service one request, on the thread that asks: a replica
    /// thread, or for [`CertifierRequest::Shutdown`] the thread that stops
    /// the cluster. It waits for no answer; answers arrive through
    /// [`CertifierLink::serve`].
    fn request(&self, request: CertifierRequest);

    /// Serves what the service sends until [`CertifierRequest::Shutdown`]
    /// is requested, handing it to `deliveries` in the order it arrives.
    /// Runs on the link's one thread, `bargain-certlink`.
    fn serve(&self, deliveries: CertifierDeliveries);
}

/// Where a [`CertifierLink`] hands what the certification service sends.
/// Each call delivers on the calling thread, straight into the replica
/// queues, so deliveries made in program order reach each replica in that
/// order.
#[derive(Clone)]
pub struct CertifierDeliveries {
    front: Arc<Front>,
}

impl CertifierDeliveries {
    /// What the cluster introduces itself to its certification service
    /// with: its replica count and its consistency mode, the membership and
    /// the accounting the service certifies for. Both stay fixed behind a
    /// link, which refuses joins and decommissions.
    #[must_use]
    pub fn introduction(&self) -> (u32, ConsistencyMode) {
        let mode = self.front.door.lock().lb.mode();
        (self.front.replica_txs.lock().len() as u32, mode)
    }

    /// Delivers one message: a refresh, decision or global commit to its
    /// addressee; a link loss as a sweep on every replica, then the load
    /// balancer's shedding; a recovery to the load balancer; a resync as
    /// one refresh per record to every replica. Returns how many messages
    /// replica queues took (a replica whose thread is gone takes none).
    pub fn send(&self, delivery: CertifierDelivery) -> usize {
        let front = &self.front;
        match delivery {
            CertifierDelivery::Deliver { to, delivery } => {
                usize::from(front.send(to, ToReplica::Certifier(delivery)))
            }
            CertifierDelivery::Down { epoch } => {
                let swept = front.broadcast(|| ToReplica::CertifierLost { epoch });
                front.door.lock().lb.mark_certifier_down();
                swept
            }
            CertifierDelivery::Up => {
                front.door.lock().lb.mark_certifier_up();
                0
            }
            CertifierDelivery::Resync { records } => records
                .iter()
                .map(|rec| front.broadcast(|| refresh(rec)))
                .sum(),
        }
    }
}

/// Options governing a replica join ([`Cluster::join_replica`]).
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Admission rule ([`LoadBalancer::admits`]): the joiner is marked
    /// routable once `V_system - V_joiner <= lag_bound`. `0` demands exact
    /// catch-up (may chase a moving target under heavy write traffic); the
    /// default, [`JOIN_LAG_BOUND`], bounds the worst-case extra
    /// start-requirement wait a freshly routed transaction can observe.
    pub lag_bound: u64,
    /// Snapshot chunk size shipped from the donor.
    pub chunk_bytes: usize,
    /// How long the admission poll may run before giving up. On timeout
    /// the joiner stays attached and subscribed (it keeps catching up) but
    /// unadmitted; a later [`Cluster::admit_replica`] can finish the job.
    pub admit_timeout: Duration,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            lag_bound: JOIN_LAG_BOUND,
            chunk_bytes: bargain_storage::DEFAULT_CHUNK_BYTES,
            admit_timeout: Duration::from_secs(30),
        }
    }
}

/// Handle to a running in-process replicated database cluster.
pub struct Cluster {
    front: Arc<Front>,
    port: Arc<dyn CertifierPort>,
    /// A catalog-only engine mirroring the replicas' DDL, used to resolve
    /// table-sets for ad-hoc transactions.
    catalog_engine: Arc<Mutex<Engine>>,
    next_client: Arc<AtomicU64>,
    next_template: Arc<AtomicU32>,
    /// Live replica count (joins increment, decommissions decrement).
    replicas: AtomicUsize,
    /// The in-process certifier; `None` behind a certifier link, whose
    /// service owns membership and history.
    local: Option<Arc<LocalCertifier>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Cluster {
    /// Starts a cluster with empty databases.
    #[must_use]
    pub fn start(config: ClusterConfig) -> Cluster {
        Self::start_with_setup(config, |_| Ok(()))
    }

    /// Starts a cluster, running `setup` (DDL + initial load) on every
    /// replica's engine before the threads spin up. All replicas must be
    /// set up identically; `setup` runs once per replica, concurrently,
    /// and nowhere else.
    pub fn start_with_setup(
        config: ClusterConfig,
        setup: impl Fn(&mut Engine) -> Result<()> + Sync,
    ) -> Cluster {
        Self::start_inner(config, setup, None)
    }

    /// Starts a cluster whose certification service lives behind `link` —
    /// typically in another process, reached over TCP via `bargain-net`.
    /// Durability (the commit WAL) belongs to the remote service, so
    /// `config.wal_dir` is ignored; the link's [`CertifierLink::history`]
    /// supplies the durable history the replicas fast-forward through.
    pub fn start_with_certifier_link(
        config: ClusterConfig,
        setup: impl Fn(&mut Engine) -> Result<()> + Sync,
        link: Box<dyn CertifierLink>,
    ) -> Cluster {
        Self::start_inner(config, setup, Some(link))
    }

    fn start_inner(
        config: ClusterConfig,
        setup: impl Fn(&mut Engine) -> Result<()> + Sync,
        link: Option<Box<dyn CertifierLink>>,
    ) -> Cluster {
        assert!(config.replicas >= 1, "need at least one replica");
        let replica_ids: Vec<ReplicaId> = (0..config.replicas as u32).map(ReplicaId).collect();

        // The certification service: the certifier itself over its
        // (possibly durable) log, or the caller's link to one. Its commit
        // history fast-forwards every replica engine from its checkpoint
        // (the `setup` state) to the durable version.
        let mut service = match link {
            Some(link) => Service::Link(link),
            None => {
                let mut certifier = Certifier::open(replica_ids.clone(), config.wal_dir.as_deref())
                    .expect("certifier log opens and replays");
                certifier.set_eager(config.mode == ConsistencyMode::Eager);
                Service::Local(Box::new(certifier))
            }
        };
        let history = match &mut service {
            Service::Link(link) => link.history(),
            Service::Local(certifier) => certifier.certified_since(Version::ZERO),
        }
        .expect("the certifier serves its history");
        let engines = build_engines(config.replicas, &setup, &history);

        // The catalog mirror only ever answers `.catalog()` and mirrors DDL:
        // it gets the replicas' schema (same `TableId`s) and none of the
        // rows, not a fourth run of `setup`'s initial load.
        let mut catalog_engine = Engine::new();
        for (_, schema) in engines[0].catalog().iter() {
            catalog_engine
                .create_table(schema.clone())
                .expect("a replica's schema is valid");
        }

        let mailboxes: Vec<_> = (0..config.replicas)
            .map(|_| Arc::new(Mailbox::new()))
            .collect();
        let n_tables = catalog_engine.catalog().len();
        let lb = LoadBalancer::new(config.mode, replica_ids.clone(), n_tables);
        let front = Arc::new(Front {
            door: Mutex::new(FrontDoor::new(lb)),
            replica_txs: Arc::new(Mutex::new(mailboxes.clone())),
        });
        let mut handles = Vec::new();

        // The service's port: the in-process certifier, or the link, which
        // serves what the service sends on a thread of its own.
        let (port, local): (Arc<dyn CertifierPort>, _) = match service {
            Service::Link(link) => {
                let link = Arc::new(link);
                let serving = Arc::clone(&link);
                let deliveries = CertifierDeliveries {
                    front: Arc::clone(&front),
                };
                handles.push(
                    std::thread::Builder::new()
                        .name("bargain-certlink".into())
                        .spawn(move || serving.serve(deliveries))
                        .expect("spawn certifier link thread"),
                );
                (link, None)
            }
            Service::Local(certifier) => {
                let local = Arc::new(LocalCertifier {
                    pending: Mutex::new(Vec::new()),
                    certifier: std::sync::Mutex::new(*certifier),
                    front: Arc::clone(&front),
                    certified: Certified::default(),
                });
                (local.clone(), Some(local))
            }
        };

        // Replica threads.
        for (i, (engine, mailbox)) in engines.into_iter().zip(mailboxes).enumerate() {
            let proxy = Proxy::new(replica_ids[i], config.mode, engine);
            handles.push(
                spawn_replica(
                    proxy,
                    config.mode,
                    mailbox,
                    Arc::clone(&front),
                    Arc::clone(&port),
                )
                .expect("spawn replica thread"),
            );
        }

        Cluster {
            front,
            port,
            catalog_engine: Arc::new(Mutex::new(catalog_engine)),
            next_client: Arc::new(AtomicU64::new(0)),
            next_template: Arc::new(AtomicU32::new(1 << 20)),
            replicas: AtomicUsize::new(config.replicas),
            local,
            handles: Mutex::new(handles),
        }
    }

    /// Opens a client session. Each session is one consistency session
    /// (the scope of the `Session` configuration's guarantee).
    #[must_use]
    pub fn connect(&self) -> Session {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        Session::new(
            id,
            Arc::clone(&self.front),
            Arc::clone(&self.catalog_engine),
            Arc::clone(&self.next_template),
        )
    }

    /// Executes DDL on every replica (and the catalog mirror). DDL is not
    /// transactional; run it before issuing transactions that use the
    /// table. [`Cluster::execute_ddl_with`] plus a channel.
    pub fn execute_ddl(&self, sql: &str) -> Result<()> {
        ask(|reply| {
            self.execute_ddl_with(sql, move |result| {
                let _ = reply.send(result);
            });
            true
        })?
    }

    /// Executes DDL on every replica, then on the catalog mirror, without
    /// waiting: `done` gets the outcome on the thread of the last replica
    /// to apply it — or on this one, for a statement that does not parse or
    /// replicas quicker than this call — so it may neither block nor panic.
    /// A replica whose thread dies with the statement queued makes it fail.
    pub fn execute_ddl_with(&self, sql: &str, done: impl FnOnce(Result<()>) + Send + 'static) {
        let stmt = match parse(sql) {
            Ok(stmt) => stmt,
            Err(e) => return done(Err(e)),
        };
        let ddl = Arc::new(DdlFanIn {
            stmt,
            catalog: Arc::clone(&self.catalog_engine),
            sent: AtomicUsize::new(0),
            applied: AtomicUsize::new(0),
            error: Mutex::new(None),
            done: Mutex::new(Some(Box::new(done))),
        });
        // Enqueued under the front door's lock: every replica sees the DDL
        // before any transaction routed after this call.
        let sent = {
            let _door = self.front.door.lock();
            self.front.broadcast(|| ToReplica::Ddl(Arc::clone(&ddl)))
        };
        // Set before this handle lets go, and after the lock: the last
        // holder settles, and `done` may route a transaction.
        ddl.sent.store(sent, Ordering::Relaxed);
    }

    /// Current cluster-wide counters.
    pub fn stats(&self) -> Result<ClusterStats> {
        let door = self.front.door.lock();
        let s = door.lb.stats();
        let local = self.local.as_ref();
        let (certified, certify_batches) = local.map_or((0, 0), |local| local.certified.read());
        Ok(ClusterStats {
            routed: s.routed,
            commits: s.commits,
            aborts: s.aborts,
            in_doubt: s.in_doubt,
            v_system: door.lb.v_system(),
            certifier_up: door.lb.certifier_is_up(),
            certifier_downs: s.certifier_downs,
            certified,
            certify_batches,
        })
    }

    /// Number of live replicas (joins increment it, decommissions decrement).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas.load(Ordering::Acquire)
    }

    /// The cluster's consistency configuration.
    #[must_use]
    pub fn mode(&self) -> ConsistencyMode {
        self.front.door.lock().lb.mode()
    }

    /// Allocates a fresh, cluster-unique [`TemplateId`] (used by network
    /// frontends to rewrite per-connection template ids into the cluster's
    /// global namespace).
    #[must_use]
    pub fn allocate_template_id(&self) -> TemplateId {
        TemplateId(self.next_template.fetch_add(1, Ordering::Relaxed))
    }

    /// Prepares a transaction template under a fresh cluster-wide id and
    /// statically extracts its table-set against the catalog mirror. This
    /// is the registration path for remotely prepared statements: the
    /// client's per-connection ids are rewritten into the cluster's global
    /// template namespace.
    pub fn prepare_template(
        &self,
        name: &str,
        sqls: &[&str],
    ) -> Result<(Arc<TransactionTemplate>, TableSet)> {
        let id = self.allocate_template_id();
        let template = TransactionTemplate::new(id, name, sqls)?;
        let table_set = template.table_set(self.catalog_engine.lock().catalog())?;
        Ok((Arc::new(template), table_set))
    }

    /// Exports a consistent snapshot from the least-loaded up replica (the
    /// donor), suitable for bootstrapping a joiner — locally via
    /// [`Cluster::join_replica`], or remotely by shipping the chunks over
    /// the wire (`bargain-net`'s bootstrap path).
    /// [`Cluster::export_snapshot_with`] plus a channel.
    pub fn export_snapshot(&self, chunk_bytes: usize) -> Result<Snapshot> {
        ask(|reply| {
            self.export_snapshot_with(chunk_bytes, move |snapshot| {
                let _ = reply.send(snapshot);
            });
            true
        })?
    }

    /// [`Cluster::export_snapshot`] without waiting: the donor's thread
    /// exports and hands the snapshot to `done`, which may neither block
    /// nor panic. With no replica up, or a donor whose thread is gone,
    /// `done` gets `Err(Unavailable)`.
    pub fn export_snapshot_with(
        &self,
        chunk_bytes: usize,
        done: impl FnOnce(Result<Snapshot>) + Send + 'static,
    ) {
        let done = SnapshotSink(Some(Box::new(done)));
        let donor = self.front.door.lock().lb.least_loaded_up();
        // Sent outside the registry's lock: a donor whose thread is gone
        // hands the request back, and `done` refuses from `Drop`.
        let mailbox =
            donor.and_then(|donor| self.front.replica_txs.lock().get(donor.index()).cloned());
        if let Some(mailbox) = mailbox {
            let _ = mailbox.send(ToReplica::ExportSnapshot { chunk_bytes, done });
        }
    }

    /// Every certified commit record strictly above `after`: the catch-up
    /// feed a remote joiner replays on top of its snapshot. Refused
    /// (`Err(Unavailable)`) behind a remote certifier link.
    pub fn certified_since(&self, after: Version) -> Result<Vec<LogRecord>> {
        self.certified_page(after, usize::MAX)
    }

    /// The first `max` records of [`Cluster::certified_since`]: one page of
    /// the feed, the next starting at its last record. Waits for the
    /// certifier lock, so for one group commit at most.
    pub fn certified_page(&self, after: Version, max: usize) -> Result<Vec<LogRecord>> {
        self.local("history")?.history(after, max)
    }

    /// Adds a new replica to the running cluster: snapshot-ship bootstrap
    /// from the least-loaded donor, live catch-up through the refresh
    /// fan-out, and lag-bound admission.
    ///
    /// The sequence (no global pause at any step):
    /// 1. a donor exports a consistent checkpoint at version `V`;
    /// 2. the joiner imports it and its thread starts;
    /// 3. the certifier adds the joiner to the refresh membership and
    ///    replays the certified records above `V` (overlap with the live
    ///    fan-out is deduplicated by the joiner's proxy);
    /// 4. the load balancer learns the replica, still unroutable;
    /// 5. once `V_system - V_joiner <= lag_bound` the joiner is marked up
    ///    and starts taking transactions.
    ///
    /// Returns the new replica's id. Refused behind a remote certifier link
    /// (membership belongs to the remote service).
    pub fn join_replica(&self, opts: &JoinOptions) -> Result<ReplicaId> {
        let local = self.local("join")?;
        // 1. Snapshot from a donor.
        let snapshot = self.export_snapshot(opts.chunk_bytes)?;
        let snapshot_version = snapshot.manifest.version;
        // 2. Import into a fresh engine and start the replica thread. The
        //    id is allocated under the registry lock (id = slot index), and
        //    the subscription below races with nothing: until the certifier
        //    learns the id, no traffic targets the new slot.
        let engine = Engine::import_snapshot(&snapshot.manifest, &snapshot.chunks)?;
        let (replica, mailbox) = {
            let mut txs = self.front.replica_txs.lock();
            let replica = ReplicaId(txs.len() as u32);
            let mailbox = Arc::new(Mailbox::new());
            txs.push(Arc::clone(&mailbox));
            (replica, mailbox)
        };
        let mode = self.mode();
        let proxy = Proxy::new(replica, mode, engine);
        let handle = spawn_replica(
            proxy,
            mode,
            mailbox,
            Arc::clone(&self.front),
            Arc::clone(&self.port),
        )
        .map_err(|e| Error::Protocol(format!("spawn joiner thread: {e}")))?;
        self.handles.lock().push(handle);
        self.replicas.fetch_add(1, Ordering::AcqRel);
        // 3. Subscribe to the fan-out and replay the catch-up records. Any
        //    commit certified after this point reaches the joiner as a live
        //    refresh; anything at or below the reply is in the records (or
        //    the snapshot) — the proxy deduplicates the overlap.
        for rec in local.join(replica, snapshot_version)? {
            self.front.send(replica, refresh(&rec));
        }
        // 4. The load balancer learns the replica (still down/unroutable).
        self.front.door.lock().lb.add_replica(replica);
        // 5. Poll until the joiner is within the lag bound, then admit.
        let deadline = Instant::now() + opts.admit_timeout;
        loop {
            let v_joiner = self.probe_replica(replica)?;
            if self.front.door.lock().lb.admits(v_joiner, opts.lag_bound) {
                break;
            }
            if Instant::now() >= deadline {
                // The joiner stays attached and subscribed — it keeps
                // catching up — but is not admitted.
                return Err(Error::Unavailable(format!(
                    "join admission timed out: joiner at v{} lags v{} beyond bound {} (retry-after)",
                    v_joiner.0, self.stats()?.v_system.0, opts.lag_bound
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        self.admit_replica(replica)?;
        Ok(replica)
    }

    /// Marks a caught-up joiner routable (step 5 of [`Cluster::join_replica`];
    /// public so a join that timed out waiting for the lag bound can be
    /// finished later).
    pub fn admit_replica(&self, replica: ReplicaId) -> Result<()> {
        let mut door = self.front.door.lock();
        if door.lb.knows_replica(replica) {
            door.lb.mark_up(replica);
        }
        Ok(())
    }

    /// The applied version (`V_local`) of one replica, observed after every
    /// refresh queued before the probe.
    fn probe_replica(&self, replica: ReplicaId) -> Result<Version> {
        ask(|reply| self.front.send(replica, ToReplica::Probe { reply }))
    }

    /// Removes a replica from the running cluster without losing any
    /// acknowledged commit:
    /// 1. the load balancer stops routing to it and waits for its in-flight
    ///    transactions to complete (the per-replica drain);
    /// 2. the certifier drops it from the refresh membership (eager commits
    ///    it alone was blocking complete);
    /// 3. the load balancer forgets it and its thread shuts down.
    ///
    /// Refused when the replica is unknown, is up and the only replica up
    /// ([`LoadBalancer::may_leave`]), the cluster is draining, or
    /// membership belongs to a remote certification service.
    pub fn decommission_replica(&self, replica: ReplicaId) -> Result<()> {
        let local = self.local("decommission")?;
        // 1. Per-replica drain: stop routing, wait out in-flight work.
        //    Refreshes keep flowing so transactions parked on a start
        //    requirement still finish.
        let in_flight = self.front.door.lock().drain_replica(replica)?;
        if let Some(wait) = in_flight {
            wait.recv().map_err(|_| shut_down())?;
        }
        // 2. Leave the refresh membership. Every acked commit is already
        //    durable at the certifier, so cutting the fan-out loses nothing.
        local.leave(replica);
        // 3. Forget the replica and stop its thread, in one step under the
        //    lock: no transaction can be routed in between.
        {
            let mut door = self.front.door.lock();
            door.detach(replica);
            self.front.send(replica, ToReplica::Shutdown);
        }
        self.replicas.fetch_sub(1, Ordering::AcqRel);
        Ok(())
    }

    /// Gracefully stops the cluster: new transactions are rejected with
    /// [`Error::Unavailable`]-style aborts, every in-flight transaction runs
    /// to completion (a commit is in the certifier's log before it is
    /// announced), a certifier link forwards what it was sent, and all
    /// threads are joined. This is the SIGTERM path network servers use;
    /// [`Cluster::shutdown`] remains the abrupt variant that abandons
    /// in-flight work.
    pub fn drain(self) {
        let in_flight = self.front.door.lock().begin_drain();
        if let Some(wait) = in_flight {
            let _ = wait.recv();
        }
        self.stop_threads();
    }

    /// Stops all threads. In-flight transactions are abandoned.
    pub fn shutdown(self) {
        let abandoned = self.front.door.lock().stop();
        drop(abandoned);
        self.stop_threads();
    }

    /// The in-process certifier, or the refusal of `what` behind a
    /// certifier link.
    fn local(&self, what: &str) -> Result<&LocalCertifier> {
        self.local.as_deref().ok_or_else(|| {
            Error::Unavailable(format!(
                "{what} refused: the remote certification service owns membership and history"
            ))
        })
    }

    /// Tells every replica and a certifier link to stop, and joins them.
    fn stop_threads(self) {
        self.front.broadcast(|| ToReplica::Shutdown);
        self.port.request(CertifierRequest::Shutdown);
        for h in self.handles.into_inner() {
            let _ = h.join();
        }
    }
}

/// Where a cluster's certifier runs.
enum Service {
    /// In this process, over its own (possibly durable) log.
    Local(Box<Certifier>),
    /// Behind a link, typically in another process.
    Link(Box<dyn CertifierLink>),
}

/// Builds one engine per replica, each on a thread of its own: `setup`
/// makes the checkpoint, then the durable `history` is replayed on top. A
/// panic on any of them is re-raised here with its own message.
fn build_engines(
    replicas: usize,
    setup: &(impl Fn(&mut Engine) -> Result<()> + Sync),
    history: &[LogRecord],
) -> Vec<Engine> {
    let max_table = history
        .iter()
        .flat_map(|rec| rec.writeset.entries())
        .map(|e| e.table.index())
        .max();
    let build = || {
        let mut engine = Engine::new();
        setup(&mut engine).expect("cluster setup succeeds");
        // DDL is not logged: the schema checkpoint is the `setup` closure.
        // Catch a schema/history mismatch here with an actionable message
        // instead of a bounds panic deep in the storage engine.
        let n_tables = engine.catalog().len();
        if let Some(max) = max_table {
            assert!(
                max < n_tables,
                "recovery: the durable history writes table #{max} but the \
                 schema has only {n_tables} table(s); recreate the schema with \
                 `Cluster::start_with_setup` (the same `setup` as the previous run) \
                 so the certified writesets can be replayed"
            );
        }
        for rec in history {
            engine
                .apply_refresh(rec.writeset.as_ref(), rec.commit_version)
                .expect("recovery replays the certified history in order");
        }
        engine
    };
    std::thread::scope(|scope| {
        let builders: Vec<_> = (0..replicas).map(|_| scope.spawn(build)).collect();
        builders
            .into_iter()
            .map(|b| {
                b.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// A certified record replayed at a replica.
fn refresh(rec: &LogRecord) -> ToReplica {
    ToReplica::Certifier(Delivery::Refresh(Refresh::from(rec)))
}

fn shut_down() -> Error {
    Error::Protocol("cluster is shut down".into())
}

/// Hands `send` a reply channel and waits for the answer: the round trips
/// that remain are with threads that do the work asked for.
fn ask<T>(send: impl FnOnce(Sender<T>) -> bool) -> Result<T> {
    let (reply, answer) = unbounded();
    if !send(reply) {
        return Err(shut_down());
    }
    answer.recv().map_err(|_| shut_down())
}

// ----------------------------------------------------------------------
// Thread main loops
// ----------------------------------------------------------------------

fn spawn_replica(
    proxy: Proxy,
    mode: ConsistencyMode,
    mailbox: Arc<Mailbox<ToReplica>>,
    front: Arc<Front>,
    port: Arc<dyn CertifierPort>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("bargain-replica-{}", proxy.replica().index()))
        .spawn(move || {
            // However this thread ends — shutdown, a panic — its mailbox
            // refuses later sends and what it had in flight is abandoned,
            // not left to hang. What was queued is dropped last, outside
            // every lock: a DDL fan-in or snapshot sink settles from `Drop`,
            // and its `done` may route a transaction.
            struct Gone(Arc<Front>, Arc<Mailbox<ToReplica>>, ReplicaId);
            impl Drop for Gone {
                fn drop(&mut self) {
                    let queued = self.1.close();
                    self.0.replica_gone(self.2);
                    drop(queued);
                }
            }
            let _gone = Gone(Arc::clone(&front), Arc::clone(&mailbox), proxy.replica());
            let mut replica = Replica {
                proxy,
                front,
                port,
                eager: mode == ConsistencyMode::Eager,
                running: HashMap::new(),
            };
            // Background GC cadence: vacuum the version chains every so
            // many messages processed.
            let mut since_gc: u32 = 0;
            let mut batch = VecDeque::new();
            loop {
                mailbox.take(replica.idle(), &mut batch);
                while let Some(msg) = batch.pop_front() {
                    since_gc += 1;
                    if since_gc >= 4_096 {
                        since_gc = 0;
                        replica.proxy.engine_mut().gc();
                    }
                    if !replica.handle(msg) {
                        return;
                    }
                }
            }
        })
}

/// One replica thread's state: the proxy and what it needs to answer.
struct Replica {
    proxy: Proxy,
    front: Arc<Front>,
    port: Arc<dyn CertifierPort>,
    /// The mode is `Eager`, so this replica is never idle.
    eager: bool,
    /// Statement count and results so far of every transaction here.
    running: HashMap<TxnId, (usize, Vec<QueryResult>)>,
}

impl Replica {
    /// Whether a refresh may wait for this replica's next wake-up: no
    /// transaction of its own needs one applied, and no other replica's
    /// commit waits for its acknowledgement, as an eager global commit
    /// does for every replica's.
    fn idle(&self) -> bool {
        !self.eager && self.proxy.is_idle()
    }

    /// Processes one message; `false` stops the thread.
    fn handle(&mut self, msg: ToReplica) -> bool {
        match msg {
            ToReplica::Txn { routed, template } => {
                let txn = routed.txn;
                self.proxy.register_template(Arc::clone(&template));
                self.running
                    .insert(txn, (template.statements.len(), Vec::new()));
                match self.proxy.start(routed).expect("start accepts") {
                    StartDecision::Started { .. } => self.run_txn(txn),
                    StartDecision::Delayed { .. } => {}
                }
            }
            ToReplica::Certifier(Delivery::Refresh(refresh)) => {
                let events = self.proxy.on_refresh(refresh).expect("refresh applies");
                self.handle_events(events);
            }
            ToReplica::Certifier(Delivery::Decision(decision)) => {
                match self.proxy.on_decision(decision) {
                    Ok(events) => self.handle_events(events),
                    // A decision for a transaction the certifier-loss sweep
                    // already aborted: its commit, if any, reaches this
                    // replica through the reconnect resync instead.
                    Err(Error::NoSuchTransaction(_)) => {}
                    Err(e) => panic!("decision failed: {e}"),
                }
            }
            ToReplica::Certifier(Delivery::GlobalCommit(txn)) => {
                match self.proxy.on_global_commit(txn) {
                    Ok(outcome) => self.finished(outcome),
                    // Stale global-commit notification for a swept transaction.
                    Err(Error::NoSuchTransaction(_) | Error::Protocol(_)) => {}
                    Err(e) => panic!("global commit failed: {e}"),
                }
            }
            ToReplica::CertifierLost { epoch } => {
                let outcomes = self.proxy.abort_certifying(
                    "certifier unavailable: link down, outcome unknown (retry-after)",
                );
                for outcome in outcomes {
                    self.settle(outcome, true);
                }
                let replica = self.proxy.replica();
                self.port
                    .request(CertifierRequest::SweepAck { replica, epoch });
                self.port.request(CertifierRequest::Hello {
                    replica,
                    v_local: self.proxy.version(),
                });
            }
            ToReplica::Ddl(ddl) => ddl.apply(self.proxy.engine_mut()),
            ToReplica::ExportSnapshot { chunk_bytes, done } => {
                done.settle(self.proxy.engine().export_snapshot(chunk_bytes));
            }
            ToReplica::Probe { reply } => {
                let _ = reply.send(self.proxy.version());
            }
            ToReplica::Shutdown => return false,
        }
        true
    }

    /// A transaction reached its outcome: account for it at the front door
    /// and reply.
    fn finished(&mut self, outcome: TxnOutcome) {
        self.settle(outcome, false);
    }

    /// Hands a finished transaction's outcome and results to the front
    /// door; an `in_doubt` one is counted apart from commits and aborts.
    fn settle(&mut self, outcome: TxnOutcome, in_doubt: bool) {
        let (_, results) = self.running.remove(&outcome.txn).unwrap_or_default();
        self.front.complete(outcome, results, in_doubt);
    }

    /// Executes all statements of a started transaction, then finishes it.
    fn run_txn(&mut self, txn: TxnId) {
        let n = self.running.get(&txn).map_or(0, |(n, _)| *n);
        for i in 0..n {
            match self.proxy.execute_statement(txn, i) {
                Ok(StatementOutcome::Ok(qr)) => {
                    if let Some((_, results)) = self.running.get_mut(&txn) {
                        results.push(qr);
                    }
                }
                Ok(StatementOutcome::EarlyAborted(outcome)) => return self.finished(outcome),
                Err(e) => {
                    if let Ok(outcome) = self.proxy.client_abort(txn, &e.to_string()) {
                        self.finished(outcome);
                    }
                    return;
                }
            }
        }
        match self.proxy.finish(txn) {
            Ok(FinishAction::ReadOnlyCommitted(outcome)) => self.finished(outcome),
            Ok(FinishAction::NeedsCertification(req)) => {
                self.port.request(CertifierRequest::Certify(req));
            }
            Err(e) => panic!("finish failed: {e}"),
        }
    }

    fn handle_events(&mut self, events: Vec<ProxyEvent>) {
        for ev in events {
            match ev {
                ProxyEvent::TxnStarted { txn, .. } => self.run_txn(txn),
                ProxyEvent::TxnFinished(outcome) => self.finished(outcome),
                ProxyEvent::AwaitingGlobal { .. } => {}
                ProxyEvent::CommitApplied { version } => {
                    self.port.request(CertifierRequest::Applied {
                        replica: self.proxy.replica(),
                        version,
                    });
                }
            }
        }
    }
}

/// Where replicas hand certification requests, each on its own thread (see
/// the module docs).
trait CertifierPort: Send + Sync {
    /// Hands over one request. A port nothing serves any more drops it.
    fn request(&self, request: CertifierRequest);
}

/// A [`CertifierLink`] is a port as it is.
impl CertifierPort for Box<dyn CertifierLink> {
    fn request(&self, request: CertifierRequest) {
        (**self).request(request);
    }
}

/// The in-process certifier, certifying on the thread that hands a request
/// over.
struct LocalCertifier {
    /// Inputs handed over and not stepped yet.
    pending: Mutex<Vec<Input>>,
    /// A `std` mutex for its poisoning: after a step panicked (its log
    /// failed to flush), every later request fails instead of certifying
    /// over a log that lost commits.
    certifier: std::sync::Mutex<Certifier>,
    front: Arc<Front>,
    certified: Certified,
}

impl LocalCertifier {
    /// Takes the certifier lock, steps over everything pending and then
    /// `input`, and puts every output on its addressee's queue; returns
    /// with the lock still held.
    fn step(&self, input: Option<Input>) -> std::sync::MutexGuard<'_, Certifier> {
        let mut certifier = self
            .certifier
            .lock()
            .expect("an earlier step failed to flush its log");
        let mut inputs = std::mem::take(&mut *self.pending.lock());
        inputs.extend(input);
        if !inputs.is_empty() {
            let step = certifier.step(inputs).expect("the certifier log flushes");
            self.certified.count(&step);
            for (to, delivery) in step.out {
                self.front.send(to, ToReplica::Certifier(delivery));
            }
        }
        certifier
    }

    /// Queues `input`, then steps: if another thread took it in the
    /// meantime, its step certified it and there is nothing left to do.
    fn push(&self, input: Input) {
        self.pending.lock().push(input);
        drop(self.step(None));
    }

    /// Adds `replica` to the refresh fan-out — crediting it, under Eager,
    /// for every pending commit at or below `after`, which its snapshot
    /// holds — and returns the certified records above `after`. They are
    /// read under the step's lock, so they cover every commit the joiner is
    /// not sent as a refresh; the proxy deduplicates the overlap.
    fn join(&self, replica: ReplicaId, after: Version) -> Result<Vec<LogRecord>> {
        self.step(Some(Input::Join { replica, after }))
            .certified_since(after)
    }

    /// Drops `replica` from the refresh fan-out: no refresh targets it
    /// after this returns.
    fn leave(&self, replica: ReplicaId) {
        drop(self.step(Some(Input::Leave { replica })));
    }

    /// A page of the certified records above `after`. It steps nothing:
    /// whoever pushed what is pending steps it.
    fn history(&self, after: Version, max: usize) -> Result<Vec<LogRecord>> {
        let mut certifier = self
            .certifier
            .lock()
            .map_err(|_| Error::Protocol("the certifier log failed to flush".into()))?;
        certifier.certified_page(after, max)
    }
}

impl CertifierPort for LocalCertifier {
    fn request(&self, request: CertifierRequest) {
        match request {
            CertifierRequest::Certify(req) => self.push(Input::Certify(req)),
            CertifierRequest::Applied { replica, version } => {
                self.push(Input::Applied { replica, version });
            }
            CertifierRequest::Hello { replica, v_local } => {
                self.push(Input::Hello { replica, v_local });
            }
            // The in-process certifier never declares itself down, so a
            // sweep acknowledgement has nothing to fence; and a request is
            // stepped before the call that handed it over returns, so a
            // shutdown has nothing left to flush.
            CertifierRequest::SweepAck { .. } | CertifierRequest::Shutdown => {}
        }
    }
}
