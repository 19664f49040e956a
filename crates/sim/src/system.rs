//! The full-system simulation: clients, load balancer, certifier, and
//! replicas exchanging protocol messages over a modelled network, with
//! replica CPUs and the certifier as queueing resources.
//!
//! Message flow (one transaction):
//!
//! ```text
//! client ──issue──▶ LB ──route──▶ proxy ▷ (version wait) ▷ statements*
//!    ▲                              │ read-only: local commit ──────────┐
//!    │                              └ update: writeset ──▶ certifier    │
//!    │                                         decision ◀── (WAL force) │
//!    │                    (sync wait, ordered apply, commit)            │
//!    │          eager only: all replicas applied ─▶ global commit       │
//!    └───────────────────────── ack ◀── LB ◀── outcome ◀────────────────┘
//!                                      refreshes ──▶ other replicas
//! ```
//!
//! The certifier runs as it runs in the live hosts: every certify batch,
//! applied report, restart hello, join and drain goes through
//! `bargain_core::Certifier::step`, and one function (`certify_step`)
//! schedules what it sends. The simulator adds only what a host owns: the
//! cost model (service time, network delay), process epochs and the fault
//! gates that drop messages to crashed or decommissioned replicas.
//!
//! Every run is deterministic given [`SimConfig::seed`] and doubles as a
//! consistency check: begins and client-visible acks stream into a
//! [`ConsistencyChecker`] and the report carries the violation count for
//! the mode's claimed guarantee (zero for every mode except `Baseline`,
//! which claims nothing and demonstrably delivers stale reads).

use crate::cost::CostModel;
use crate::fault::{FaultKind, FaultPlan};
use crate::kernel::{EventQueue, Resource, SimTime, MS};
use crate::metrics::{SimReport, TxnRecord};
use bargain_common::{
    ClientId, ConsistencyMode, Error, ReplicaId, TableSet, TemplateId, TxnId, Version,
};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{
    Certifier, CertifyDecision, CertifyRequest, ConsistencyChecker, LoadBalancer, Proxy,
    ProxyEvent, Refresh, RoutedTxn, StartDecision, TxnOutcome, TxnRequest,
};
use bargain_sql::TransactionTemplate;
use bargain_storage::{Engine, SnapshotManifest};
use bargain_workloads::{ClientContext, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Chunk granularity for join-bootstrap snapshot exports: small enough
/// that a workload-sized snapshot spans several chunks (so chunk-level
/// corruption faults land inside the stream), large enough to keep export
/// overhead negligible.
const JOIN_CHUNK_BYTES: usize = 64 * 1024;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Consistency configuration under test.
    pub mode: ConsistencyMode,
    /// Number of database replicas.
    pub replicas: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// RNG seed (fixes the entire run).
    pub seed: u64,
    /// Warm-up interval (virtual ms) excluded from measurement.
    pub warmup_ms: u64,
    /// Measurement interval (virtual ms).
    pub measure_ms: u64,
    /// The cost model.
    pub costs: CostModel,
    /// Whether to stream events into the consistency checker.
    pub check_consistency: bool,
    /// Load-balancer routing policy (ablation; default least connections).
    pub routing: bargain_core::RoutingPolicy,
    /// Whether proxies perform early certification (ablation; default on).
    pub early_certification: bool,
    /// Faults to inject during the run (default: none).
    pub faults: FaultPlan,
    /// Admission lag bound for a joining replica (versions): after its
    /// snapshot import and catch-up replay, a joiner becomes routable only
    /// once the certifier's commit version is within this many versions of
    /// its own. Mirrors `JoinOptions::lag_bound` in the live cluster.
    pub join_lag_bound: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: ConsistencyMode::LazyFine,
            replicas: 4,
            clients: 32,
            seed: 42,
            warmup_ms: 2_000,
            measure_ms: 10_000,
            costs: CostModel::default(),
            check_consistency: true,
            routing: bargain_core::RoutingPolicy::LeastConnections,
            early_certification: true,
            faults: FaultPlan::default(),
            join_lag_bound: 64,
        }
    }
}

/// Which per-replica service lane a job runs on: the multi-worker query
/// lane, or the single "apply lane" on which commits and refresh writesets
/// are applied sequentially in global order (mirroring the prototype's
/// sequential refresh application).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Worker,
    Apply,
}

enum ReplicaJob {
    Stmt { txn: TxnId, stmt_idx: usize },
    RoCommit { txn: TxnId },
    Decision { decision: CertifyDecision },
    RefreshApply { refresh: Refresh },
}

enum Event {
    ClientIssue {
        client: usize,
    },
    ArriveAtReplica {
        routed: RoutedTxn,
    },
    ReplicaDone {
        replica: usize,
        lane: Lane,
        job: ReplicaJob,
        /// Replica life this job belongs to; completions from before a
        /// crash are discarded.
        epoch: u32,
    },
    ArriveAtCertifier {
        req: CertifyRequest,
    },
    CertifierDone {
        /// The group-committed batch that was in service: all requests are
        /// certified in arrival order with a single WAL force.
        batch: Vec<CertifyRequest>,
        /// Certifier life this service belongs to; a stale epoch means the
        /// certifier crashed mid-service and the batch must be replayed.
        epoch: u32,
    },
    DecisionAtReplica {
        replica: usize,
        decision: CertifyDecision,
    },
    RefreshAtReplica {
        replica: usize,
        refresh: Refresh,
    },
    AppliedAtCertifier {
        replica: ReplicaId,
        version: Version,
        /// Certifier life the report was addressed to; stale reports are
        /// dropped (recovery hellos re-credit them).
        epoch: u32,
    },
    GlobalCommitAtReplica {
        replica: usize,
        txn: TxnId,
    },
    OutcomeAtLb {
        outcome: TxnOutcome,
    },
    AckAtClient {
        outcome: TxnOutcome,
    },
    PruneTick,
    GcTick,
    /// An injected fault fires.
    Fault(FaultKind),
    /// The crashed certifier restarts and recovers from its log.
    CertifierRestart,
    /// A crashed replica restarts.
    ReplicaRestart {
        replica: usize,
    },
    /// A replica fetches the certified history it missed and re-enters it
    /// into its ordered apply queue (post-crash / post-drop catch-up).
    ResyncReplica {
        replica: usize,
    },
    /// An injected network slowdown window ends.
    NetCalm {
        extra_us: SimTime,
    },
    /// A joining replica (re)starts its snapshot fetch: pick a live donor,
    /// export, and put the transfer on the wire.
    JoinFetch {
        join: usize,
    },
    /// A joiner's snapshot transfer completes (the bytes as they arrived —
    /// possibly corrupted in flight; import verifies every chunk checksum).
    SnapshotAtJoiner {
        join: usize,
        manifest: SnapshotManifest,
        chunks: Vec<Vec<u8>>,
    },
    /// Admission poll for a bootstrapped joiner: routable once its lag is
    /// inside the bound, otherwise another catch-up round and re-check.
    AdmitCheck {
        replica: usize,
    },
    /// Drain poll for a decommissioning replica: removed from membership
    /// once its last in-flight transaction completes.
    DrainCheck {
        replica: usize,
    },
}

/// Progress of one injected [`FaultKind::ReplicaJoin`].
///
/// The joiner's [`ReplicaId`] is assigned only when its snapshot imports
/// successfully: it is then `ReplicaId(proxies.len())`, preserving the
/// simulator's invariant that a replica's id equals its index in the proxy
/// vector (decommissioned replicas stay in the vector as tombstones, so
/// positions never shift).
struct JoinState {
    /// One-shot: crash the donor mid-transfer on the next fetch.
    donor_crash: bool,
    /// One-shot: corrupt a chunk of the next transfer.
    corrupt_chunk: bool,
    /// Set once the joiner's snapshot has imported (the fetch is over).
    done: bool,
}

#[derive(Default)]
struct TxnTrack {
    client: usize,
    template: TemplateId,
    n_stmts: usize,
    issued_at: SimTime,
    arrived_at: SimTime,
    started_at: SimTime,
    queries_done_at: SimTime,
    decision_at: SimTime,
    local_commit_at: SimTime,
    version_us: SimTime,
    queries_us: SimTime,
    certify_us: SimTime,
    sync_us: SimTime,
    commit_us: SimTime,
    global_us: SimTime,
    is_update: bool,
    aborted: bool,
}

struct Sim<'w> {
    cfg: SimConfig,
    workload: &'w dyn Workload,
    queue: EventQueue<Event>,
    rng: SmallRng,
    lb: LoadBalancer,
    certifier: Certifier,
    proxies: Vec<Proxy>,
    replica_res: Vec<Resource<ReplicaJob>>,
    apply_res: Vec<Resource<ReplicaJob>>,
    /// The certifier serves one *batch* at a time (group commit): requests
    /// arriving while a batch is in service accumulate in `cert_wait` and
    /// are served together when the batch completes, sharing one WAL force.
    cert_res: Resource<Vec<CertifyRequest>>,
    /// Certify requests that arrived while the certifier was busy, forming
    /// the next group-commit batch.
    cert_wait: Vec<CertifyRequest>,
    clients: Vec<ClientContext>,
    tracks: HashMap<TxnId, TxnTrack>,
    template_tables: HashMap<TemplateId, TableSet>,
    stmt_is_update: HashMap<TemplateId, Vec<bool>>,
    checker: ConsistencyChecker,
    records: Vec<TxnRecord>,
    measure_start: SimTime,
    end_time: SimTime,
    /// Whether the certifier process is up.
    cert_up: bool,
    /// Certifier life counter; bumped at each crash to invalidate in-flight
    /// service completions and applied reports.
    cert_epoch: u32,
    /// Certification requests that survived a certifier crash (queued or
    /// mid-service — their effects had not happened yet) or arrived while
    /// it was down; replayed after recovery.
    cert_inbox: Vec<CertifyRequest>,
    /// Per-replica process liveness.
    replica_up: Vec<bool>,
    /// Per-replica life counters; bumped at each crash.
    replica_epoch: Vec<u32>,
    /// Outstanding injected refresh-drop budgets per replica.
    drop_refreshes: Vec<u32>,
    /// Per-replica "decommissioned" flags: a gone replica is out of the
    /// membership for good (unlike a crash, nothing restarts it) and
    /// messages addressed to it are silently moot.
    replica_gone: Vec<bool>,
    /// Per-replica drain-in-progress flags (decommission requested, last
    /// in-flight transactions completing).
    draining: Vec<bool>,
    /// The workload's transaction templates, kept so a joining replica's
    /// proxy can be built mid-run.
    templates: Vec<Arc<TransactionTemplate>>,
    /// Progress of injected replica joins.
    joins: Vec<JoinState>,
    /// Extra per-message latency from active injected slowdown windows.
    net_extra_us: SimTime,
    n_faults: u64,
    n_cert_crashes: u64,
    n_replica_crashes: u64,
    n_refreshes_dropped: u64,
    n_resyncs: u64,
    n_joins: u64,
    n_leaves: u64,
    n_bootstrap_retries: u64,
}

/// Runs one simulation and returns its report.
pub fn simulate(workload: &dyn Workload, cfg: &SimConfig) -> SimReport {
    let mut sim = Sim::build(workload, cfg.clone());
    sim.run();
    sim.report()
}

impl<'w> Sim<'w> {
    fn build(workload: &'w dyn Workload, cfg: SimConfig) -> Self {
        assert!(cfg.replicas >= 1, "need at least one replica");
        assert!(cfg.clients >= 1, "need at least one client");
        for f in &cfg.faults.events {
            match f.kind {
                FaultKind::ReplicaCrash { replica, .. }
                | FaultKind::DropRefreshes { replica, .. }
                | FaultKind::ReplicaLeave { replica } => {
                    assert!(
                        replica < cfg.replicas,
                        "fault plan targets replica {replica}, cluster has {}",
                        cfg.replicas
                    );
                }
                _ => {}
            }
        }
        let replica_ids: Vec<ReplicaId> = (0..cfg.replicas as u32).map(ReplicaId).collect();

        // Build one engine per replica with identical initial state.
        let templates: Vec<Arc<_>> = workload.templates().into_iter().map(Arc::new).collect();
        let mut proxies = Vec::with_capacity(cfg.replicas);
        let mut n_tables = 0;
        let mut template_tables = HashMap::new();
        let mut stmt_is_update = HashMap::new();
        for &rid in &replica_ids {
            let mut engine = Engine::new();
            workload
                .install(&mut engine)
                .expect("workload installs cleanly");
            n_tables = engine.catalog().len();
            if template_tables.is_empty() {
                for t in &templates {
                    template_tables.insert(
                        t.id,
                        t.table_set(engine.catalog())
                            .expect("template tables resolve"),
                    );
                    stmt_is_update
                        .insert(t.id, t.statements.iter().map(|s| s.is_update()).collect());
                }
            }
            let mut proxy = Proxy::new(rid, cfg.mode, engine);
            proxy.set_early_certification(cfg.early_certification);
            for t in &templates {
                proxy.register_template(Arc::clone(t));
            }
            proxies.push(proxy);
        }

        let mut lb = LoadBalancer::new(cfg.mode, replica_ids.clone(), n_tables);
        lb.set_policy(cfg.routing);
        for (tid, ts) in &template_tables {
            lb.register_template(*tid, ts.clone());
        }
        let mut certifier = Certifier::new(replica_ids);
        certifier.set_eager(cfg.mode == ConsistencyMode::Eager);

        let replica_res = (0..cfg.replicas)
            .map(|_| Resource::new(cfg.costs.replica_workers))
            .collect();
        // The apply "lane": either the shared worker pool (faithful — refresh
        // application contends with statement execution inside the DBMS) or
        // a dedicated single server (ablation).
        let apply_res = (0..cfg.replicas).map(|_| Resource::new(1)).collect();
        let clients = (0..cfg.clients as u64)
            .map(|i| ClientContext::new(cfg.seed, ClientId(i)))
            .collect();

        let measure_start = cfg.warmup_ms * MS;
        let end_time = (cfg.warmup_ms + cfg.measure_ms) * MS;
        let rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0xA24B_AED4_963E_E407));
        let n_replicas = cfg.replicas;
        Sim {
            cfg,
            workload,
            queue: EventQueue::new(),
            rng,
            lb,
            certifier,
            proxies,
            replica_res,
            apply_res,
            cert_res: Resource::new(1),
            cert_wait: Vec::new(),
            clients,
            tracks: HashMap::new(),
            template_tables,
            stmt_is_update,
            checker: ConsistencyChecker::new(),
            records: Vec::new(),
            measure_start,
            end_time,
            cert_up: true,
            cert_epoch: 0,
            cert_inbox: Vec::new(),
            replica_up: vec![true; n_replicas],
            replica_epoch: vec![0; n_replicas],
            drop_refreshes: vec![0; n_replicas],
            replica_gone: vec![false; n_replicas],
            draining: vec![false; n_replicas],
            templates,
            joins: Vec::new(),
            net_extra_us: 0,
            n_faults: 0,
            n_cert_crashes: 0,
            n_replica_crashes: 0,
            n_refreshes_dropped: 0,
            n_resyncs: 0,
            n_joins: 0,
            n_leaves: 0,
            n_bootstrap_retries: 0,
        }
    }

    fn run(&mut self) {
        // Stagger client start-up over the first 50 virtual ms.
        for c in 0..self.cfg.clients {
            let jitter = self.rng.gen_range(0..50 * MS);
            self.queue
                .schedule_at(jitter, Event::ClientIssue { client: c });
        }
        self.queue.schedule(500 * MS, Event::PruneTick);
        self.queue.schedule(2_000 * MS, Event::GcTick);
        let faults: Vec<_> = self.cfg.faults.events.clone();
        for f in faults {
            self.queue.schedule_at(f.at_ms * MS, Event::Fault(f.kind));
        }
        while let Some((t, ev)) = self.queue.pop() {
            if t >= self.end_time {
                break;
            }
            self.handle(ev);
        }
    }

    fn report(&mut self) -> SimReport {
        let (violations, strict) = if self.cfg.check_consistency {
            (
                self.checker.violations_for(self.cfg.mode).len(),
                self.checker.strong_violations().len(),
            )
        } else {
            (0, 0)
        };
        let mut report = SimReport::from_records(
            self.cfg.mode,
            self.cfg.replicas,
            self.cfg.clients,
            self.cfg.measure_ms * MS,
            &self.records,
            violations,
            strict,
        );
        for p in &self.proxies {
            let s = p.stats();
            report.certifier_aborts += s.certifier_aborts;
            report.early_aborts += s.early_aborts_statement + s.early_aborts_refresh;
        }
        report.faults_injected = self.n_faults;
        report.certifier_crashes = self.n_cert_crashes;
        report.replica_crashes = self.n_replica_crashes;
        report.refreshes_dropped = self.n_refreshes_dropped;
        report.resyncs = self.n_resyncs;
        report.replicas_joined = self.n_joins;
        report.replicas_left = self.n_leaves;
        report.bootstrap_retries = self.n_bootstrap_retries;
        if self.cfg.check_consistency && !self.cfg.faults.is_empty() {
            // The headline durability property: every acknowledged commit
            // version must still be in the certifier's durable history.
            let durable: HashSet<Version> = self
                .certifier
                .certified_since(Version::ZERO)
                .expect("certifier log replays")
                .into_iter()
                .map(|r| r.commit_version)
                .collect();
            report.lost_acked_commits = self
                .checker
                .lost_acked_commits(|v| durable.contains(&v))
                .len();
        }
        report
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn apply_lane(&self) -> Lane {
        if self.cfg.costs.dedicated_apply_lane {
            Lane::Apply
        } else {
            Lane::Worker
        }
    }

    fn net_delay(&mut self, payload_bytes: usize) -> SimTime {
        let jitter = if self.cfg.costs.net_jitter_us > 0 {
            self.rng.gen_range(0..=self.cfg.costs.net_jitter_us)
        } else {
            0
        };
        self.cfg.costs.net_latency_us
            + jitter
            + self.cfg.costs.transfer_cost(payload_bytes)
            + self.net_extra_us
    }

    fn offer_replica(&mut self, replica: usize, lane: Lane, job: ReplicaJob, duration: SimTime) {
        let res = match lane {
            Lane::Worker => &mut self.replica_res[replica],
            Lane::Apply => &mut self.apply_res[replica],
        };
        let epoch = self.replica_epoch[replica];
        if let Some((job, d)) = res.offer(job, duration) {
            self.queue.schedule(
                d,
                Event::ReplicaDone {
                    replica,
                    lane,
                    job,
                    epoch,
                },
            );
        }
    }

    fn replica_complete(&mut self, replica: usize, lane: Lane) {
        let res = match lane {
            Lane::Worker => &mut self.replica_res[replica],
            Lane::Apply => &mut self.apply_res[replica],
        };
        let epoch = self.replica_epoch[replica];
        if let Some((job, d)) = res.complete() {
            self.queue.schedule(
                d,
                Event::ReplicaDone {
                    replica,
                    lane,
                    job,
                    epoch,
                },
            );
        }
    }

    fn send_outcome(&mut self, outcome: TxnOutcome) {
        let d = self.net_delay(0);
        self.queue.schedule(d, Event::OutcomeAtLb { outcome });
    }

    fn on_started(&mut self, replica: usize, txn: TxnId, snapshot: Version) {
        let now = self.queue.now();
        let first_cost = {
            let track = self.tracks.get_mut(&txn).expect("tracked");
            track.started_at = now;
            track.version_us = now.saturating_sub(track.arrived_at);
            let flags = &self.stmt_is_update[&track.template];
            self.cfg.costs.stmt_cost(replica, flags[0])
        };
        if self.cfg.check_consistency {
            self.checker.record_snapshot(txn, snapshot);
        }
        self.offer_replica(
            replica,
            Lane::Worker,
            ReplicaJob::Stmt { txn, stmt_idx: 0 },
            first_cost,
        );
    }

    fn handle_proxy_events(&mut self, replica: usize, events: Vec<ProxyEvent>) {
        let now = self.queue.now();
        for ev in events {
            match ev {
                ProxyEvent::TxnStarted { txn, snapshot } => {
                    self.on_started(replica, txn, snapshot);
                }
                ProxyEvent::TxnFinished(outcome) => {
                    if outcome.committed {
                        if let Some(track) = self.tracks.get_mut(&outcome.txn) {
                            track.local_commit_at = now;
                            track.commit_us = self.cfg.costs.commit_us;
                            track.sync_us = now
                                .saturating_sub(track.decision_at)
                                .saturating_sub(self.cfg.costs.commit_us);
                        }
                    } else if let Some(track) = self.tracks.get_mut(&outcome.txn) {
                        track.aborted = true;
                    }
                    self.send_outcome(outcome);
                }
                ProxyEvent::AwaitingGlobal { txn } => {
                    if let Some(track) = self.tracks.get_mut(&txn) {
                        track.local_commit_at = now;
                        track.commit_us = self.cfg.costs.commit_us;
                        track.sync_us = now
                            .saturating_sub(track.decision_at)
                            .saturating_sub(self.cfg.costs.commit_us);
                    }
                }
                ProxyEvent::CommitApplied { version } => {
                    let d = self.net_delay(0);
                    let rid = self.proxies[replica].replica();
                    let epoch = self.cert_epoch;
                    self.queue.schedule(
                        d,
                        Event::AppliedAtCertifier {
                            replica: rid,
                            version,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::ClientIssue { client } => self.on_client_issue(client),
            Event::ArriveAtReplica { routed } => self.on_arrive_at_replica(routed),
            Event::ReplicaDone {
                replica,
                lane,
                job,
                epoch,
            } => {
                // A completion from a previous replica life: the crash wiped
                // the work it describes. Drop it entirely (the crash also
                // reset the resource's service accounting).
                if epoch != self.replica_epoch[replica] {
                    return;
                }
                self.on_replica_done(replica, lane, job);
            }
            Event::ArriveAtCertifier { req } => {
                if !self.cert_up {
                    self.cert_inbox.push(req);
                    return;
                }
                if self.cert_res.in_service() > 0 {
                    // A batch is in service: join the next one (group
                    // commit adaptivity — the batch grows with the load).
                    self.cert_wait.push(req);
                    return;
                }
                let cost = self.cfg.costs.certification_cost();
                let epoch = self.cert_epoch;
                if let Some((batch, d)) = self.cert_res.offer(vec![req], cost) {
                    self.queue
                        .schedule(d, Event::CertifierDone { batch, epoch });
                }
            }
            Event::CertifierDone { batch, epoch } => {
                // Crashed mid-service: the batch's effects never happened
                // (certification is atomic at completion). The batch parks
                // for replay at recovery — or, when the restart beat this
                // completion, is re-delivered to the recovered certifier.
                if epoch != self.cert_epoch {
                    if self.cert_up {
                        for req in batch {
                            self.queue.schedule(0, Event::ArriveAtCertifier { req });
                        }
                    } else {
                        self.cert_inbox.extend(batch);
                    }
                    return;
                }
                self.on_certifier_done(batch);
            }
            Event::DecisionAtReplica { replica, decision } => {
                if !self.replica_up[replica] {
                    // The origin crashed while the decision was in flight.
                    // Its commit (if any) is in the durable history; the
                    // restart resync will apply it as a refresh.
                    return;
                }
                self.on_decision_at_replica(replica, decision);
            }
            Event::RefreshAtReplica { replica, refresh } => {
                if self.replica_gone[replica] {
                    // Decommissioned, not crashed: a refresh still in flight
                    // to it is moot, not lost.
                    return;
                }
                if !self.replica_up[replica] {
                    self.n_refreshes_dropped += 1;
                    return;
                }
                if self.drop_refreshes[replica] > 0 {
                    self.drop_refreshes[replica] -= 1;
                    self.n_refreshes_dropped += 1;
                    // The gap stalls ordered application; schedule a resync
                    // to repair it (modelling the prototype's gap-detection
                    // timeout).
                    self.queue
                        .schedule(50 * MS, Event::ResyncReplica { replica });
                    return;
                }
                let cost = self
                    .cfg
                    .costs
                    .refresh_cost(replica, refresh.writeset.as_ref());
                let lane = self.apply_lane();
                self.offer_replica(replica, lane, ReplicaJob::RefreshApply { refresh }, cost);
            }
            Event::AppliedAtCertifier {
                replica,
                version,
                epoch,
            } => {
                // Reports addressed to a crashed certifier life are lost;
                // the recovery hello re-credits everything the replica has
                // applied, so dropping is safe (and crediting twice would
                // be too — the certifier's applied sets are idempotent).
                if !self.cert_up || epoch != self.cert_epoch {
                    return;
                }
                self.certify_step(vec![Input::Applied { replica, version }]);
            }
            Event::GlobalCommitAtReplica { replica, txn } => {
                if !self.replica_up[replica] {
                    return;
                }
                let now = self.queue.now();
                // The origin may have crashed after local commit: the txn
                // was converted to an ambiguous abort and is no longer
                // awaiting the global ack. The notification is then moot.
                if let Ok(outcome) = self.proxies[replica].on_global_commit(txn) {
                    if let Some(track) = self.tracks.get_mut(&txn) {
                        track.global_us = now.saturating_sub(track.local_commit_at);
                    }
                    self.send_outcome(outcome);
                }
            }
            Event::OutcomeAtLb { outcome } => {
                self.lb.on_outcome(&outcome);
                let d = self.net_delay(0);
                self.queue.schedule(d, Event::AckAtClient { outcome });
            }
            Event::AckAtClient { outcome } => self.on_ack_at_client(outcome),
            Event::PruneTick => {
                // Decommissioned replicas are frozen at their final version
                // and must not pin the certifier's history floor.
                let floor = self
                    .proxies
                    .iter()
                    .enumerate()
                    .filter(|&(r, _)| !self.replica_gone[r])
                    .map(|(_, p)| p.min_snapshot_bound())
                    .min()
                    .unwrap_or(Version::ZERO);
                self.certifier.prune(floor);
                self.queue.schedule(500 * MS, Event::PruneTick);
            }
            Event::GcTick => {
                // Background version-chain garbage collection, as a real
                // MVCC engine's vacuum would run. Modelled as free (it
                // executes off the transaction path).
                for (r, p) in self.proxies.iter_mut().enumerate() {
                    if !self.replica_gone[r] {
                        p.engine_mut().gc();
                    }
                }
                self.queue.schedule(2_000 * MS, Event::GcTick);
            }
            Event::Fault(kind) => self.on_fault(kind),
            Event::CertifierRestart => self.on_certifier_restart(),
            Event::ReplicaRestart { replica } => self.on_replica_restart(replica),
            Event::ResyncReplica { replica } => self.on_resync_replica(replica),
            Event::NetCalm { extra_us } => {
                self.net_extra_us = self.net_extra_us.saturating_sub(extra_us);
            }
            Event::JoinFetch { join } => self.on_join_fetch(join),
            Event::SnapshotAtJoiner {
                join,
                manifest,
                chunks,
            } => self.on_snapshot_at_joiner(join, manifest, chunks),
            Event::AdmitCheck { replica } => self.on_admit_check(replica),
            Event::DrainCheck { replica } => self.on_drain_check(replica),
        }
    }

    // ------------------------------------------------------------------
    // Faults and recovery
    // ------------------------------------------------------------------

    fn on_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CertifierCrash { down_ms } => {
                if !self.cert_up {
                    return; // already down; crashing twice is a no-op
                }
                self.n_faults += 1;
                self.n_cert_crashes += 1;
                self.cert_up = false;
                // Invalidate in-flight service completions and applied
                // reports addressed to the dead process.
                self.cert_epoch += 1;
                // Requests queued, mid-service, or waiting for the next
                // batch had no effects yet; they are retried against the
                // recovered certifier (clients are still waiting on their
                // decisions).
                let parked = self.cert_res.drain();
                self.cert_inbox.extend(parked.into_iter().flatten());
                let waiting = std::mem::take(&mut self.cert_wait);
                self.cert_inbox.extend(waiting);
                self.checker.record_fault("certifier crash");
                self.queue.schedule(down_ms * MS, Event::CertifierRestart);
            }
            FaultKind::ReplicaCrash { replica, down_ms } => {
                if !self.replica_up[replica] {
                    return;
                }
                self.n_faults += 1;
                self.n_replica_crashes += 1;
                self.replica_up[replica] = false;
                self.replica_epoch[replica] += 1;
                let rid = self.proxies[replica].replica();
                self.lb.mark_down(rid);
                self.checker
                    .record_fault(format!("replica {replica} crash"));
                // Wipe the CPU queues; their completion events carry the old
                // epoch and will be discarded.
                let _ = self.replica_res[replica].drain();
                let _ = self.apply_res[replica].drain();
                // In-flight transactions die with the process. The proxy
                // reports them (including ambiguous aborts for transactions
                // past local commit but awaiting the global ack) so clients
                // unblock and the load balancer frees its slots.
                for outcome in self.proxies[replica].crash() {
                    if let Some(track) = self.tracks.get_mut(&outcome.txn) {
                        track.aborted = true;
                    }
                    self.send_outcome(outcome);
                }
                self.queue
                    .schedule(down_ms * MS, Event::ReplicaRestart { replica });
            }
            FaultKind::DropRefreshes { replica, count } => {
                self.n_faults += 1;
                self.drop_refreshes[replica] += count;
                self.checker
                    .record_fault(format!("drop {count} refreshes to replica {replica}"));
            }
            FaultKind::DelayNet {
                extra_us,
                duration_ms,
            } => {
                self.n_faults += 1;
                self.net_extra_us += extra_us;
                self.checker.record_fault("network slowdown");
                self.queue
                    .schedule(duration_ms * MS, Event::NetCalm { extra_us });
            }
            FaultKind::ReplicaJoin {
                donor_crash,
                corrupt_chunk,
            } => {
                self.n_faults += 1;
                self.joins.push(JoinState {
                    donor_crash,
                    corrupt_chunk,
                    done: false,
                });
                let join = self.joins.len() - 1;
                self.checker.record_fault(format!("join {join} requested"));
                self.on_join_fetch(join);
            }
            FaultKind::ReplicaLeave { replica } => {
                if replica >= self.proxies.len()
                    || self.replica_gone[replica]
                    || self.draining[replica]
                {
                    return; // already gone or already on its way out
                }
                let rid = self.proxies[replica].replica();
                // Refuse to drain the last routable replica — the real
                // cluster classifies this as a refused decommission.
                let others_routable = (0..self.proxies.len()).any(|r| {
                    r != replica
                        && !self.replica_gone[r]
                        && self.lb.knows_replica(self.proxies[r].replica())
                        && self.lb.is_up(self.proxies[r].replica())
                });
                if !others_routable {
                    return;
                }
                self.n_faults += 1;
                self.draining[replica] = true;
                // Stop new routes; in-flight transactions run to completion
                // (their outcomes release the LB slots the drain waits on).
                self.lb.mark_down(rid);
                self.checker
                    .record_fault(format!("replica {replica} decommission requested"));
                self.queue.schedule(MS, Event::DrainCheck { replica });
            }
        }
    }

    fn on_certifier_restart(&mut self) {
        // Rebuild commit history, version counter, and eager bookkeeping
        // from the durable log — the paper's recovery story: the certifier's
        // WAL is the one durable commit history in the system.
        let replayed = self.certifier.recover().expect("certifier log replays");
        self.cert_up = true;
        self.checker.record_fault("certifier restart");
        // Eager: live replicas — joiners included; decommissioned ones are
        // down — re-introduce themselves so the rebuilt (empty) applied sets
        // re-credit everything already applied. Crediting is idempotent, so
        // overlap with in-flight reports or a later replica-restart hello is
        // harmless.
        let hellos = (0..self.proxies.len())
            .filter(|&r| self.replica_up[r])
            .map(|r| Input::Hello {
                replica: self.proxies[r].replica(),
                v_local: self.proxies[r].version(),
            })
            .collect();
        self.certify_step(hellos);
        // Requests that survived the crash re-arrive once replay finishes
        // (recovery time scales with log length).
        let delay = self.cfg.costs.cert_recovery_cost(replayed);
        for req in std::mem::take(&mut self.cert_inbox) {
            self.queue.schedule(delay, Event::ArriveAtCertifier { req });
        }
    }

    fn on_replica_restart(&mut self, replica: usize) {
        if self.replica_gone[replica] {
            return; // decommissioned while it was down; nothing comes back
        }
        self.replica_up[replica] = true;
        self.replica_epoch[replica] += 1;
        let rid = self.proxies[replica].replica();
        // Routing to a still-recovering replica is safe — start
        // requirements park transactions until it catches up — it only
        // costs latency, never correctness.
        self.lb.mark_up(rid);
        self.checker
            .record_fault(format!("replica {replica} restart"));
        if self.cert_up {
            let v_local = self.proxies[replica].version();
            self.certify_step(vec![Input::Hello {
                replica: rid,
                v_local,
            }]);
        }
        let delay = self.cfg.costs.replica_recovery_base_us;
        self.queue.schedule(delay, Event::ResyncReplica { replica });
    }

    fn on_resync_replica(&mut self, replica: usize) {
        if self.replica_gone[replica] || !self.replica_up[replica] {
            return; // crashed again (or decommissioned) before the resync ran
        }
        if !self.cert_up {
            // The certified history lives at the certifier; retry shortly.
            self.queue
                .schedule(5 * MS, Event::ResyncReplica { replica });
            return;
        }
        self.n_resyncs += 1;
        // The missed suffix re-enters the ordered apply queue as refreshes.
        // Duplicates (from refreshes still in flight) are ignored by the
        // proxy's duplicate-refresh guard.
        let after = self.proxies[replica].version();
        let missed = self.certifier.certified_since(after);
        for rec in missed.expect("certifier log replays") {
            self.send_refresh(replica, Refresh::from(&rec));
        }
    }

    // ------------------------------------------------------------------
    // Elasticity: replica join (snapshot-ship bootstrap) and decommission
    // ------------------------------------------------------------------

    /// Starts (or restarts) a joiner's snapshot fetch: pick the least-
    /// loaded routable donor, export its consistent checkpoint, and put
    /// the transfer on the wire. The injected one-shot failure knobs fire
    /// here, each consuming itself so the retry runs clean.
    fn on_join_fetch(&mut self, join: usize) {
        if self.joins[join].done {
            return;
        }
        // Donor selection mirrors the live cluster's: the least-loaded
        // routable replica (crashed and draining replicas are marked down,
        // so they are never chosen).
        let Some(donor_rid) = self.lb.least_loaded_up() else {
            // No live donor right now; the joiner keeps knocking.
            self.queue.schedule(10 * MS, Event::JoinFetch { join });
            return;
        };
        let donor = donor_rid.index();
        let snapshot = self.proxies[donor]
            .engine()
            .export_snapshot(JOIN_CHUNK_BYTES);
        let transfer = self.net_delay(snapshot.manifest.total_bytes as usize);
        if self.joins[join].donor_crash {
            self.joins[join].donor_crash = false;
            self.n_bootstrap_retries += 1;
            self.checker
                .record_fault(format!("join donor {donor} crashes mid-snapshot"));
            // The donor dies halfway through the stream — a real crash,
            // with all the usual consequences for its own traffic. The
            // joiner notices the dead stream and refetches from the next
            // donor; nothing of the partial transfer is kept.
            self.queue.schedule(
                transfer / 2,
                Event::Fault(FaultKind::ReplicaCrash {
                    replica: donor,
                    down_ms: 200,
                }),
            );
            self.queue
                .schedule(transfer / 2 + 5 * MS, Event::JoinFetch { join });
            return;
        }
        let mut chunks = snapshot.chunks;
        if self.joins[join].corrupt_chunk {
            self.joins[join].corrupt_chunk = false;
            // Flip one bit in the middle of the middle chunk: the per-chunk
            // CRC verification at import must reject the whole transfer.
            let mid = chunks.len() / 2;
            if let Some(chunk) = chunks.get_mut(mid) {
                let at = chunk.len() / 2;
                if let Some(byte) = chunk.get_mut(at) {
                    *byte ^= 0x40;
                }
            }
        }
        self.queue.schedule(
            transfer,
            Event::SnapshotAtJoiner {
                join,
                manifest: snapshot.manifest,
                chunks,
            },
        );
    }

    /// A snapshot transfer lands at the joiner: verify and import it,
    /// stand the replica up (known to the membership but *not* routable),
    /// and start the catch-up / admission loop.
    fn on_snapshot_at_joiner(
        &mut self,
        join: usize,
        manifest: SnapshotManifest,
        chunks: Vec<Vec<u8>>,
    ) {
        if self.joins[join].done {
            return;
        }
        let engine = match Engine::import_snapshot(&manifest, &chunks) {
            Ok(engine) => engine,
            Err(_) => {
                // A chunk failed its checksum: the torn transfer is
                // rejected wholesale and refetched from another donor —
                // the same restart-from-scratch policy as the TCP
                // bootstrap.
                self.n_bootstrap_retries += 1;
                self.checker
                    .record_fault(format!("join {join} snapshot rejected (checksum)"));
                self.queue.schedule(5 * MS, Event::JoinFetch { join });
                return;
            }
        };
        self.joins[join].done = true;
        let replica = self.proxies.len();
        let rid = ReplicaId(replica as u32);
        let mut proxy = Proxy::new(rid, self.cfg.mode, engine);
        proxy.set_early_certification(self.cfg.early_certification);
        for t in &self.templates {
            proxy.register_template(Arc::clone(t));
        }
        self.proxies.push(proxy);
        self.replica_res
            .push(Resource::new(self.cfg.costs.replica_workers));
        self.apply_res.push(Resource::new(1));
        self.replica_up.push(true);
        self.replica_epoch.push(0);
        self.drop_refreshes.push(0);
        self.replica_gone.push(false);
        self.draining.push(false);
        // Membership order matters: into the refresh fan-out first (no
        // commit certified from here on can be missed; the joiner is
        // credited for what its snapshot holds), then into the routing set
        // *marked down* — the joiner serves nothing until the admission
        // check passes.
        self.certify_step(vec![Input::Join {
            replica: rid,
            after: manifest.version,
        }]);
        self.lb.add_replica(rid);
        self.checker.record_fault(format!(
            "replica {replica} bootstrapped at v{}",
            manifest.version.0
        ));
        // Catch-up: replay the certified suffix after the snapshot's cut,
        // then poll for admission.
        self.queue.schedule(0, Event::ResyncReplica { replica });
        self.queue.schedule(5 * MS, Event::AdmitCheck { replica });
    }

    /// Admission poll: the joiner becomes routable once the certifier's
    /// commit version is within `join_lag_bound` of its own — the same
    /// admission rule as the live cluster's join protocol.
    fn on_admit_check(&mut self, replica: usize) {
        if self.replica_gone[replica] || !self.replica_up[replica] {
            return;
        }
        let rid = self.proxies[replica].replica();
        if self.lb.is_up(rid) {
            return; // already admitted
        }
        let lag = self
            .certifier
            .version()
            .0
            .saturating_sub(self.proxies[replica].version().0);
        if lag <= self.cfg.join_lag_bound {
            self.lb.mark_up(rid);
            self.n_joins += 1;
            self.checker
                .record_fault(format!("replica {replica} admitted (lag {lag})"));
        } else {
            // Another catch-up round, then re-check.
            self.queue.schedule(0, Event::ResyncReplica { replica });
            self.queue.schedule(10 * MS, Event::AdmitCheck { replica });
        }
    }

    /// Drain poll for a decommissioning replica: the leave completes once
    /// its last in-flight transaction has released its routing slot — no
    /// acknowledged work is cut short, nothing new arrives.
    fn on_drain_check(&mut self, replica: usize) {
        if self.replica_gone[replica] {
            return;
        }
        let rid = self.proxies[replica].replica();
        if self.lb.active_on(rid) > 0 {
            self.queue.schedule(MS, Event::DrainCheck { replica });
            return;
        }
        // Drained: out of the routing set and the refresh fan-out. Under
        // the eager mode, shrinking the membership can complete pending
        // global commits (the leaver's ack is no longer awaited).
        self.lb.remove_replica(rid);
        self.certify_step(vec![Input::Leave { replica: rid }]);
        self.draining[replica] = false;
        self.replica_gone[replica] = true;
        self.replica_up[replica] = false;
        // Invalidate whatever is still queued on its lanes; the proxy
        // stays in the vector as a tombstone so indices never shift.
        self.replica_epoch[replica] += 1;
        let _ = self.replica_res[replica].drain();
        let _ = self.apply_res[replica].drain();
        self.n_leaves += 1;
        self.checker
            .record_fault(format!("replica {replica} decommissioned"));
    }

    fn on_client_issue(&mut self, client: usize) {
        let now = self.queue.now();
        let ctx = &mut self.clients[client];
        let (template, params) = self.workload.next_transaction(ctx);
        let request = TxnRequest {
            client: ctx.client,
            session: ctx.session,
            template,
            params,
            // Simulated clients never retry an in-doubt transaction (a
            // lost ack is a lost client in the model), so they carry no
            // idempotency keys.
            idem: None,
        };
        let session = ctx.session;
        let routed = match self.lb.route(request) {
            Ok(routed) => routed,
            Err(_) => {
                // Every replica is down. Back off and retry; nothing was
                // recorded, so the checker holds no obligation for this
                // attempt.
                self.queue.schedule(10 * MS, Event::ClientIssue { client });
                return;
            }
        };
        let n_stmts = self.stmt_is_update[&template].len();
        self.tracks.insert(
            routed.txn,
            TxnTrack {
                client,
                template,
                n_stmts,
                issued_at: now,
                ..TxnTrack::default()
            },
        );
        if self.cfg.check_consistency {
            self.checker.record_issue(
                routed.txn,
                session,
                Some(self.template_tables[&template].clone()),
            );
        }
        // client → LB → replica: two network hops plus LB processing.
        let d = self.net_delay(0) + self.cfg.costs.lb_route_us + self.net_delay(0);
        self.queue.schedule(d, Event::ArriveAtReplica { routed });
    }

    fn on_arrive_at_replica(&mut self, routed: RoutedTxn) {
        let now = self.queue.now();
        let replica = routed.replica.index();
        let txn = routed.txn;
        if !self.replica_up[replica] {
            // The target crashed while the transaction was in flight; the
            // load balancer moves it to a live replica (same id, same start
            // requirement).
            match self.lb.reroute(&routed) {
                Ok(moved) => {
                    let d = self.net_delay(0);
                    self.queue
                        .schedule(d, Event::ArriveAtReplica { routed: moved });
                }
                Err(_) => {
                    // No live replica at all: abort back to the client.
                    if let Some(track) = self.tracks.get_mut(&txn) {
                        track.aborted = true;
                    }
                    self.send_outcome(TxnOutcome {
                        txn,
                        client: routed.client,
                        session: routed.session,
                        replica: routed.replica,
                        committed: false,
                        commit_version: None,
                        observed_version: Version::ZERO,
                        tables_written: Vec::new(),
                        abort_reason: Some("no replica available".to_owned()),
                    });
                }
            }
            return;
        }
        if let Some(track) = self.tracks.get_mut(&txn) {
            track.arrived_at = now;
        }
        match self.proxies[replica].start(routed).expect("start accepts") {
            StartDecision::Started { snapshot } => self.on_started(replica, txn, snapshot),
            StartDecision::Delayed { .. } => {
                // Parked: ProxyEvent::TxnStarted will fire from a later
                // refresh application (the synchronization start delay).
            }
        }
    }

    fn on_replica_done(&mut self, replica: usize, lane: Lane, job: ReplicaJob) {
        let now = self.queue.now();
        match job {
            ReplicaJob::Stmt { txn, stmt_idx } => {
                // The transaction may have been early-aborted while this
                // statement was queued or in flight.
                let alive = self.tracks.get(&txn).map(|t| !t.aborted).unwrap_or(false);
                if alive {
                    match self.proxies[replica].execute_statement(txn, stmt_idx) {
                        Ok(bargain_core::StatementOutcome::Ok(_)) => {
                            let track = self.tracks.get_mut(&txn).expect("tracked");
                            if stmt_idx + 1 < track.n_stmts {
                                let cost = {
                                    let flags = &self.stmt_is_update[&track.template];
                                    self.cfg.costs.stmt_cost(replica, flags[stmt_idx + 1])
                                };
                                self.offer_replica(
                                    replica,
                                    Lane::Worker,
                                    ReplicaJob::Stmt {
                                        txn,
                                        stmt_idx: stmt_idx + 1,
                                    },
                                    cost,
                                );
                            } else {
                                track.queries_done_at = now;
                                track.queries_us = now.saturating_sub(track.started_at);
                                self.finish_txn(replica, txn);
                            }
                        }
                        Ok(bargain_core::StatementOutcome::EarlyAborted(outcome)) => {
                            self.tracks.get_mut(&txn).expect("tracked").aborted = true;
                            self.send_outcome(outcome);
                        }
                        Err(Error::NoSuchTransaction(_)) => {
                            // Aborted between scheduling and execution.
                        }
                        Err(e) => panic!("statement execution failed: {e}"),
                    }
                }
            }
            ReplicaJob::RoCommit { txn } => match self.proxies[replica].finish(txn) {
                Ok(bargain_core::FinishAction::ReadOnlyCommitted(outcome)) => {
                    let track = self.tracks.get_mut(&txn).expect("tracked");
                    track.commit_us = now.saturating_sub(track.queries_done_at);
                    track.local_commit_at = now;
                    self.send_outcome(outcome);
                }
                Ok(bargain_core::FinishAction::NeedsCertification(_)) => {
                    unreachable!("RoCommit scheduled only for read-only transactions")
                }
                Err(Error::NoSuchTransaction(_)) => {}
                Err(e) => panic!("read-only commit failed: {e}"),
            },
            ReplicaJob::Decision { decision } => {
                match self.proxies[replica].on_decision(decision) {
                    Ok(events) => self.handle_proxy_events(replica, events),
                    Err(_) => {
                        // The replica crashed and restarted while its own
                        // certification was in flight: the transaction's
                        // state died in the crash, but its commit version is
                        // in the durable history. Resync fills the gap so
                        // ordered application can proceed.
                        self.queue.schedule(MS, Event::ResyncReplica { replica });
                    }
                }
            }
            ReplicaJob::RefreshApply { refresh } => {
                let events = self.proxies[replica]
                    .on_refresh(refresh)
                    .expect("refresh applies");
                self.handle_proxy_events(replica, events);
            }
        }
        self.replica_complete(replica, lane);
    }

    fn finish_txn(&mut self, replica: usize, txn: TxnId) {
        if self.proxies[replica].is_read_only(txn).unwrap_or(false) {
            let cost = self.cfg.costs.at_replica(replica, self.cfg.costs.commit_us);
            self.offer_replica(replica, Lane::Worker, ReplicaJob::RoCommit { txn }, cost);
            return;
        }
        self.tracks.get_mut(&txn).expect("tracked").is_update = true;
        match self.proxies[replica].finish(txn).expect("finish accepts") {
            bargain_core::FinishAction::NeedsCertification(req) => {
                let d = self.net_delay(req.writeset.payload_bytes());
                self.queue.schedule(d, Event::ArriveAtCertifier { req });
            }
            bargain_core::FinishAction::ReadOnlyCommitted(_) => {
                unreachable!("is_read_only was false")
            }
        }
    }

    fn on_certifier_done(&mut self, batch: Vec<CertifyRequest>) {
        self.certify_step(batch.into_iter().map(Input::Certify).collect());
        let epoch = self.cert_epoch;
        if let Some((batch, d)) = self.cert_res.complete() {
            // Only reachable if something was queued inside the resource;
            // batching bypasses that queue, but stay correct regardless.
            self.queue
                .schedule(d, Event::CertifierDone { batch, epoch });
        } else if !self.cert_wait.is_empty() {
            // Serve everything that accumulated while the last batch was in
            // service as the next group-committed batch: per-request
            // certification work, one shared WAL force.
            let next = std::mem::take(&mut self.cert_wait);
            let cost = self.cfg.costs.certification_batch_cost(next.len());
            if let Some((batch, d)) = self.cert_res.offer(next, cost) {
                self.queue
                    .schedule(d, Event::CertifierDone { batch, epoch });
            }
        }
    }

    /// Steps the certifier over `inputs` and puts what it sends on the
    /// network, each message after its own delay. A commit's decision draws
    /// its delay before its refreshes do, so it is scheduled first.
    fn certify_step(&mut self, inputs: Vec<Input>) {
        let step = self.certifier.step(inputs).expect("a memory log flushes");
        let mut refreshes = Vec::new();
        for (to, delivery) in step.out {
            let replica = to.index();
            let event = match delivery {
                Delivery::Refresh(refresh) => {
                    refreshes.push((replica, refresh));
                    continue;
                }
                Delivery::Decision(decision) => Event::DecisionAtReplica { replica, decision },
                Delivery::GlobalCommit(txn) => Event::GlobalCommitAtReplica { replica, txn },
            };
            let d = self.net_delay(0);
            self.queue.schedule(d, event);
            for (replica, refresh) in refreshes.drain(..) {
                self.send_refresh(replica, refresh);
            }
        }
    }

    fn send_refresh(&mut self, replica: usize, refresh: Refresh) {
        let d = self.net_delay(refresh.writeset.payload_bytes());
        self.queue
            .schedule(d, Event::RefreshAtReplica { replica, refresh });
    }

    fn on_decision_at_replica(&mut self, replica: usize, decision: CertifyDecision) {
        let now = self.queue.now();
        match &decision {
            CertifyDecision::Commit { txn, .. } => {
                if let Some(track) = self.tracks.get_mut(txn) {
                    track.decision_at = now;
                    track.certify_us = now.saturating_sub(track.queries_done_at);
                }
                let cost = self.cfg.costs.at_replica(replica, self.cfg.costs.commit_us);
                let lane = self.apply_lane();
                self.offer_replica(replica, lane, ReplicaJob::Decision { decision }, cost);
            }
            // Duplicate and Refused are unreachable here (simulated clients
            // carry no idempotency keys, and the prune floor stays below
            // every snapshot) but handled uniformly for completeness: the
            // proxy reports the original outcome or the abort.
            CertifyDecision::Abort { txn, .. }
            | CertifyDecision::Duplicate { txn, .. }
            | CertifyDecision::Refused { txn, .. } => {
                if let Some(track) = self.tracks.get_mut(txn) {
                    track.decision_at = now;
                    track.certify_us = now.saturating_sub(track.queries_done_at);
                }
                // The transaction may have been lost to a crash-restart
                // while the abort was in flight; it is already reported.
                if let Ok(events) = self.proxies[replica].on_decision(decision) {
                    self.handle_proxy_events(replica, events);
                }
            }
        }
    }

    fn on_ack_at_client(&mut self, outcome: TxnOutcome) {
        let now = self.queue.now();
        let Some(track) = self.tracks.remove(&outcome.txn) else {
            return;
        };
        if self.cfg.check_consistency && outcome.committed {
            self.checker.record_ack_with_tables(
                outcome.txn,
                outcome.commit_version,
                outcome.tables_written.clone(),
            );
        }
        if now >= self.measure_start {
            self.records.push(TxnRecord {
                template: track.template,
                committed: outcome.committed,
                is_update: track.is_update,
                issued_at: track.issued_at,
                response_us: now.saturating_sub(track.issued_at),
                version_us: track.version_us,
                queries_us: track.queries_us,
                certify_us: track.certify_us,
                sync_us: track.sync_us,
                commit_us: track.commit_us,
                global_us: track.global_us,
            });
        }
        // Closed loop: think, then issue the next transaction.
        let think_ms = self.workload.mean_think_time_ms();
        let think = (self.clients[track.client].exp_ms(think_ms) * MS as f64) as SimTime;
        self.queue.schedule(
            think,
            Event::ClientIssue {
                client: track.client,
            },
        );
    }
}
