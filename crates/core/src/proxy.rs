//! The replica proxy: start-delay enforcement, statement execution,
//! writeset extraction, globally ordered application of commits and
//! refreshes, and early certification.
//!
//! The proxy intercepts all requests to the local DBMS. Its central
//! invariant is that the local engine moves through the certifier's global
//! version sequence **densely and in order**: every certified transaction —
//! whether it executed here (local commit) or elsewhere (refresh writeset) —
//! is applied exactly at its global commit version. Out-of-order arrivals
//! are buffered in an ordered apply queue and drained contiguously; the
//! waiting this induces before a local commit can apply is the paper's
//! *sync* stage.
//!
//! Start-delay enforcement implements the lazy consistency techniques: a
//! routed transaction whose `start_requirement` exceeds the replica's
//! `V_local` is parked until enough refreshes have been applied — the
//! paper's *synchronization start delay* (the `version` stage).
//!
//! Early certification (hidden-deadlock avoidance, paper §IV): after each
//! update statement the proxy checks the transaction's partial writeset
//! against *pending* (received but not yet applied) refresh writesets, and
//! when a refresh arrives it checks it against the partial writesets of
//! executing local transactions; conflicting local transactions abort
//! immediately. In the paper's prototype this prevents deadlocks between
//! refresh writers and local lock holders inside the standalone DBMS; our
//! multiversion engine buffers writes without locks, so here the mechanism
//! only saves doomed work — the certifier would abort those transactions
//! anyway — but we reproduce it faithfully, including its abort accounting.

use crate::messages::{
    CertifyDecision, CertifyRequest, Refresh, RoutedTxn, StartDecision, TxnOutcome,
};
use bargain_common::{
    ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, Result, SessionId, TemplateId, TxnId,
    Value, Version, WriteSet,
};
use bargain_sql::{QueryResult, TransactionTemplate};
use bargain_storage::{Engine, TxnHandle};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Counters the proxy maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Transactions started immediately.
    pub immediate_starts: u64,
    /// Transactions whose start was delayed for synchronization.
    pub delayed_starts: u64,
    /// Read-only transactions committed locally.
    pub ro_commits: u64,
    /// Update transactions committed locally (after certification).
    pub update_commits: u64,
    /// Refresh writesets applied.
    pub refreshes_applied: u64,
    /// Aborts decided by the certifier.
    pub certifier_aborts: u64,
    /// Early-certification aborts (statement-time check against pending
    /// refreshes).
    pub early_aborts_statement: u64,
    /// Early-certification aborts (refresh-arrival check against executing
    /// transactions).
    pub early_aborts_refresh: u64,
    /// Refreshes ignored because the replica had already applied that
    /// version (duplicate deliveries during post-crash re-synchronization).
    pub duplicate_refreshes_ignored: u64,
    /// Local transactions answered as duplicates by the certifier (client
    /// retries of already-committed transactions): their tentative writes
    /// were discarded and the original outcome reported.
    pub duplicate_commits: u64,
    /// Certifying transactions aborted because the certifier link was lost
    /// while their decision was outstanding.
    pub certifier_lost_aborts: u64,
    /// Times [`Proxy::crash`] was invoked.
    pub crashes: u64,
}

/// What happened when the host asked the proxy to run one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// The statement executed.
    Ok(QueryResult),
    /// Early certification detected a conflict with a pending refresh
    /// writeset; the transaction was aborted and this is its final outcome.
    EarlyAborted(TxnOutcome),
}

/// What happened when the host asked the proxy to finish a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum FinishAction {
    /// The transaction was read-only: committed locally, ack the client now.
    ReadOnlyCommitted(TxnOutcome),
    /// The transaction wrote data: forward this request to the certifier
    /// and wait for the decision.
    NeedsCertification(CertifyRequest),
}

/// Asynchronous events the proxy produces while absorbing refreshes and
/// decisions. The host turns these into messages/timers.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyEvent {
    /// A previously delayed transaction has started (its synchronization
    /// start delay ended); the host should begin executing its statements.
    TxnStarted {
        /// The transaction.
        txn: TxnId,
        /// Snapshot it reads at.
        snapshot: Version,
    },
    /// A transaction finished with this outcome (commit or abort); ack the
    /// client via the load balancer.
    TxnFinished(TxnOutcome),
    /// Eager mode: a local update transaction committed locally and now
    /// awaits global commit; the outcome will be released by
    /// [`Proxy::on_global_commit`].
    AwaitingGlobal {
        /// The transaction.
        txn: TxnId,
    },
    /// Eager mode: this replica applied the commit with this version
    /// (local or refresh); the host must notify the certifier.
    CommitApplied {
        /// The applied global version.
        version: Version,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    Executing,
    Certifying,
}

struct ActiveTxn {
    handle: TxnHandle,
    client: ClientId,
    session: SessionId,
    template: TemplateId,
    params: Vec<Vec<Value>>,
    snapshot: Version,
    phase: TxnPhase,
    idem: Option<IdemKey>,
}

enum PendingApply {
    Refresh {
        /// The certified writeset, shared with the certifier (no copy).
        writeset: Arc<WriteSet>,
    },
    LocalCommit {
        txn: TxnId,
    },
}

/// The per-replica proxy state machine, owning the local storage engine.
pub struct Proxy {
    replica: ReplicaId,
    mode: ConsistencyMode,
    engine: Engine,
    templates: HashMap<TemplateId, Arc<TransactionTemplate>>,
    /// Transactions parked until the replica reaches their start
    /// requirement (FIFO among those that become ready together).
    waiting: VecDeque<RoutedTxn>,
    active: HashMap<TxnId, ActiveTxn>,
    /// Global-order apply queue keyed by commit version.
    pending: BTreeMap<Version, PendingApply>,
    /// Eager mode: locally committed update transactions awaiting the
    /// certifier's global-commit notification.
    awaiting_global: HashMap<TxnId, TxnOutcome>,
    early_certification: bool,
    stats: ProxyStats,
}

impl Proxy {
    /// A proxy for `replica` running in `mode`, wrapping `engine`.
    #[must_use]
    pub fn new(replica: ReplicaId, mode: ConsistencyMode, engine: Engine) -> Self {
        Proxy {
            replica,
            mode,
            engine,
            templates: HashMap::new(),
            waiting: VecDeque::new(),
            active: HashMap::new(),
            pending: BTreeMap::new(),
            awaiting_global: HashMap::new(),
            early_certification: true,
            stats: ProxyStats::default(),
        }
    }

    /// Enables or disables early certification (hidden-deadlock avoidance;
    /// on by default). Disabling it lets doomed transactions run to the
    /// certifier before aborting — the paper's design includes it, and the
    /// ablation bench quantifies what it saves.
    pub fn set_early_certification(&mut self, enabled: bool) {
        self.early_certification = enabled;
    }

    /// Registers a transaction template the proxy can execute.
    pub fn register_template(&mut self, template: Arc<TransactionTemplate>) {
        self.templates.insert(template.id, template);
    }

    /// This replica's id.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// `V_local`: the replica's current database version.
    #[must_use]
    pub fn version(&self) -> Version {
        self.engine.version()
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// Direct access to the wrapped engine (loading, inspection in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Shared access to the wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Reclaims the version history no open transaction can observe
    /// ([`Engine::gc`]). Every host calls it after each message the
    /// replica handles, so history is collected in commit order as it
    /// becomes unobservable, with no pass to wait for. Returns the number
    /// of versions removed.
    pub fn collect(&mut self) -> usize {
        self.engine.gc()
    }

    /// Number of transactions parked waiting for synchronization.
    #[must_use]
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// A safe lower bound for pruning certifier history: no current or
    /// future certification request from this replica can carry a snapshot
    /// below this version.
    #[must_use]
    pub fn min_snapshot_bound(&self) -> Version {
        self.engine
            .min_active_snapshot()
            .unwrap_or_else(|| self.engine.version())
            .min(self.engine.version())
    }

    /// Number of buffered, not-yet-applicable entries in the apply queue.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether no transaction is active, parked on its start requirement or
    /// waiting for its commit to apply here: a host may then put off
    /// applying refreshes until the next transaction arrives, since that
    /// one is queued behind them.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.waiting.is_empty() && self.pending.is_empty()
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Admits a routed transaction. If the replica has reached the start
    /// requirement the transaction begins immediately; otherwise it is
    /// parked and will surface later as [`ProxyEvent::TxnStarted`].
    pub fn start(&mut self, routed: RoutedTxn) -> Result<StartDecision> {
        if !self.templates.contains_key(&routed.template) {
            return Err(Error::Protocol(format!(
                "unregistered template {}",
                routed.template
            )));
        }
        if self.engine.version().covers(routed.start_requirement) {
            self.stats.immediate_starts += 1;
            let snapshot = self.begin_active(routed);
            Ok(StartDecision::Started { snapshot })
        } else {
            self.stats.delayed_starts += 1;
            let decision = StartDecision::Delayed {
                required: routed.start_requirement,
                current: self.engine.version(),
            };
            self.waiting.push_back(routed);
            Ok(decision)
        }
    }

    fn begin_active(&mut self, routed: RoutedTxn) -> Version {
        let handle = self.engine.begin();
        let snapshot = self.engine.version();
        self.active.insert(
            routed.txn,
            ActiveTxn {
                handle,
                client: routed.client,
                session: routed.session,
                template: routed.template,
                params: routed.params,
                snapshot,
                phase: TxnPhase::Executing,
                idem: routed.idem,
            },
        );
        snapshot
    }

    /// Executes the `stmt_idx`-th statement of the transaction's template.
    ///
    /// After an update statement, performs the statement-time early
    /// certification check against pending refresh writesets.
    pub fn execute_statement(&mut self, txn: TxnId, stmt_idx: usize) -> Result<StatementOutcome> {
        // Field by field, so the engine can be written to while the
        // statement and its parameters stay borrowed where they are.
        let a = self
            .active
            .get(&txn)
            .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))?;
        if a.phase != TxnPhase::Executing {
            return Err(Error::Protocol(format!(
                "execute_statement on non-executing txn {txn}"
            )));
        }
        let handle = a.handle;
        let template = self.templates.get(&a.template).expect("checked at start");
        let stmt = template.statements.get(stmt_idx).ok_or_else(|| {
            Error::Protocol(format!(
                "template {} has no statement {stmt_idx}",
                a.template
            ))
        })?;
        let params = a.params.get(stmt_idx).map_or(&[][..], Vec::as_slice);
        let result = stmt.execute(&mut self.engine, handle, params)?;

        if stmt.is_update() && self.early_certification {
            // Early certification: do my writes-so-far collide with a
            // certified-but-not-yet-applied refresh writeset?
            let partial = self.engine.partial_writeset(handle)?;
            let conflicts = self.pending.values().any(|p| match p {
                PendingApply::Refresh { writeset } => partial.conflicts_with(writeset),
                PendingApply::LocalCommit { .. } => false,
            });
            if conflicts {
                self.stats.early_aborts_statement += 1;
                let outcome =
                    self.abort_active(txn, "early certification: pending refresh conflict")?;
                return Ok(StatementOutcome::EarlyAborted(outcome));
            }
        }
        Ok(StatementOutcome::Ok(result))
    }

    /// Whether the (active) transaction has written nothing so far.
    pub fn is_read_only(&self, txn: TxnId) -> Result<bool> {
        let a = self.active_txn(txn)?;
        self.engine.is_read_only(a.handle)
    }

    /// Declares the transaction's statements complete. Read-only
    /// transactions commit locally and immediately; update transactions
    /// produce a certification request for the host to forward.
    pub fn finish(&mut self, txn: TxnId) -> Result<FinishAction> {
        let (handle, snapshot, idem) = {
            let a = self.active_txn(txn)?;
            if a.phase != TxnPhase::Executing {
                return Err(Error::Protocol(format!(
                    "finish on non-executing txn {txn}"
                )));
            }
            (a.handle, a.snapshot, a.idem)
        };
        if self.engine.is_read_only(handle)? {
            self.engine.commit_read_only(handle)?;
            let a = self.active.remove(&txn).expect("present");
            self.stats.ro_commits += 1;
            return Ok(FinishAction::ReadOnlyCommitted(TxnOutcome {
                txn,
                client: a.client,
                session: a.session,
                replica: self.replica,
                committed: true,
                commit_version: None,
                observed_version: snapshot,
                tables_written: vec![],
                abort_reason: None,
            }));
        }
        let writeset = self.engine.take_writeset(handle)?;
        self.active_txn_mut(txn)?.phase = TxnPhase::Certifying;
        Ok(FinishAction::NeedsCertification(CertifyRequest {
            txn,
            replica: self.replica,
            snapshot,
            writeset,
            idem,
        }))
    }

    /// Absorbs the certifier's decision for a local transaction.
    pub fn on_decision(&mut self, decision: CertifyDecision) -> Result<Vec<ProxyEvent>> {
        match decision {
            CertifyDecision::Commit {
                txn,
                commit_version,
            } => {
                {
                    let a = self.active_txn(txn)?;
                    if a.phase != TxnPhase::Certifying {
                        return Err(Error::Protocol(format!(
                            "commit decision for non-certifying txn {txn}"
                        )));
                    }
                }
                self.pending
                    .insert(commit_version, PendingApply::LocalCommit { txn });
                self.drain()
            }
            CertifyDecision::Abort { txn, .. } => {
                self.stats.certifier_aborts += 1;
                let outcome = self.abort_active(txn, "certification conflict")?;
                Ok(vec![ProxyEvent::TxnFinished(outcome)])
            }
            CertifyDecision::Refused { txn, reason } => {
                let outcome = self.abort_active(txn, &reason)?;
                Ok(vec![ProxyEvent::TxnFinished(outcome)])
            }
            CertifyDecision::Duplicate {
                txn,
                commit_version,
                ..
            } => {
                // The client retried a transaction that already committed.
                // The retry's tentative writes must be *discarded* — the
                // original's writes are already in the global sequence and
                // reach this replica as a local commit or refresh — and the
                // client is told the truth: committed, at the original
                // version. (The outcome carries no row results; a client
                // that receives it already lost the original's results to
                // the network, and re-reading is its own transaction.)
                let a = self
                    .active
                    .remove(&txn)
                    .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))?;
                let tables = self.engine.partial_writeset(a.handle)?.tables();
                self.engine.abort(a.handle)?;
                self.stats.duplicate_commits += 1;
                Ok(vec![ProxyEvent::TxnFinished(TxnOutcome {
                    txn,
                    client: a.client,
                    session: a.session,
                    replica: self.replica,
                    committed: true,
                    commit_version: Some(commit_version),
                    observed_version: commit_version,
                    tables_written: tables,
                    abort_reason: None,
                })])
            }
        }
    }

    /// Absorbs a refresh writeset from the certifier.
    ///
    /// Refreshes at or below the replica's current version are ignored:
    /// they are duplicate deliveries from post-crash re-synchronization
    /// (the replay of certified history can race refreshes already in
    /// flight), and applying them twice would corrupt the version sequence.
    pub fn on_refresh(&mut self, refresh: Refresh) -> Result<Vec<ProxyEvent>> {
        let mut events = Vec::new();
        if refresh.commit_version <= self.engine.version() {
            self.stats.duplicate_refreshes_ignored += 1;
            return Ok(events);
        }
        // Early certification, arrival-time check: abort executing local
        // transactions whose partial writesets collide with this certified
        // writeset.
        let conflicting: Vec<TxnId> = if !self.early_certification {
            Vec::new()
        } else {
            self.active
                .iter()
                .filter(|(_, a)| a.phase == TxnPhase::Executing)
                .filter(|(_, a)| {
                    self.engine
                        .partial_writeset(a.handle)
                        .map(|ws| ws.conflicts_with(&refresh.writeset))
                        .unwrap_or(false)
                })
                .map(|(&txn, _)| txn)
                .collect()
        };
        for txn in conflicting {
            self.stats.early_aborts_refresh += 1;
            let outcome =
                self.abort_active(txn, "early certification: arriving refresh conflict")?;
            events.push(ProxyEvent::TxnFinished(outcome));
        }
        self.pending.insert(
            refresh.commit_version,
            PendingApply::Refresh {
                writeset: refresh.writeset,
            },
        );
        events.extend(self.drain()?);
        Ok(events)
    }

    /// Aborts an executing transaction on behalf of the client or host
    /// (e.g. a statement failed), returning the abort outcome to relay.
    pub fn client_abort(&mut self, txn: TxnId, reason: &str) -> Result<TxnOutcome> {
        self.abort_active(txn, reason)
    }

    /// The certifier link was lost: every transaction whose certification
    /// request may have vanished in flight is aborted with an ambiguous
    /// outcome (the client retries under its idempotency key, so a request
    /// that in fact committed is answered with the original outcome rather
    /// than applied twice). Executing transactions are untouched — their
    /// requests have not been sent yet and will queue until the link
    /// recovers.
    pub fn abort_certifying(&mut self, reason: &str) -> Vec<TxnOutcome> {
        let mut certifying: Vec<TxnId> = self
            .active
            .iter()
            .filter(|(_, a)| a.phase == TxnPhase::Certifying)
            .map(|(&txn, _)| txn)
            .collect();
        certifying.sort_unstable();
        let mut outcomes = Vec::with_capacity(certifying.len());
        for txn in certifying {
            self.stats.certifier_lost_aborts += 1;
            outcomes.push(
                self.abort_active(txn, reason)
                    .expect("certifying txn aborts"),
            );
        }
        outcomes
    }

    /// Eager mode: the certifier reports the transaction is globally
    /// committed; the withheld outcome is released for the client.
    pub fn on_global_commit(&mut self, txn: TxnId) -> Result<TxnOutcome> {
        self.awaiting_global
            .remove(&txn)
            .ok_or_else(|| Error::Protocol(format!("txn {txn} not awaiting global commit")))
    }

    /// Simulates a replica process crash and restart.
    ///
    /// The engine survives at `V_local` (it is the replica's durable
    /// checkpoint — the paper runs replicas with log-forcing off and
    /// recovers them from the certifier's log, so everything at or below
    /// `V_local` is recoverable state, and everything volatile is lost):
    ///
    /// - executing and certifying transactions are rolled back,
    /// - parked (start-delayed) transactions are dropped,
    /// - buffered out-of-order refreshes are discarded (re-synchronization
    ///   re-fetches them from the certifier),
    /// - withheld eager outcomes are forgotten (their writes are already
    ///   durable globally; the client receives an ambiguous abort).
    ///
    /// Returns one synthetic aborted [`TxnOutcome`] per lost in-flight
    /// transaction so the host can release clients and routing slots. After
    /// this returns, the host must re-synchronize the replica by feeding
    /// `Certifier::certified_since(V_local)` through [`Self::on_refresh`].
    pub fn crash(&mut self) -> Vec<TxnOutcome> {
        self.stats.crashes += 1;
        let mut outcomes = Vec::new();
        let mut active: Vec<TxnId> = self.active.keys().copied().collect();
        active.sort_unstable();
        for txn in active {
            let outcome = self
                .abort_active(txn, "replica crash")
                .expect("active txn aborts");
            outcomes.push(outcome);
        }
        while let Some(routed) = self.waiting.pop_front() {
            outcomes.push(TxnOutcome {
                txn: routed.txn,
                client: routed.client,
                session: routed.session,
                replica: self.replica,
                committed: false,
                commit_version: None,
                observed_version: Version::ZERO,
                tables_written: vec![],
                abort_reason: Some("replica crash".to_owned()),
            });
        }
        self.pending.clear();
        // Withheld eager outcomes: the commits are durable at the certifier
        // and applied locally, but the global-commit ack will never be
        // matched here again. The client gets an ambiguous abort (the
        // standard in-doubt answer after losing a server mid-commit).
        let mut withheld: Vec<TxnId> = self.awaiting_global.keys().copied().collect();
        withheld.sort_unstable();
        for txn in withheld {
            let o = self.awaiting_global.remove(&txn).expect("present");
            outcomes.push(TxnOutcome {
                committed: false,
                commit_version: None,
                tables_written: vec![],
                abort_reason: Some("replica crash before global commit ack".to_owned()),
                ..o
            });
        }
        outcomes
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn active_txn(&self, txn: TxnId) -> Result<&ActiveTxn> {
        self.active
            .get(&txn)
            .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))
    }

    fn active_txn_mut(&mut self, txn: TxnId) -> Result<&mut ActiveTxn> {
        self.active
            .get_mut(&txn)
            .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))
    }

    fn abort_active(&mut self, txn: TxnId, reason: &str) -> Result<TxnOutcome> {
        let a = self
            .active
            .remove(&txn)
            .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))?;
        self.engine.abort(a.handle)?;
        Ok(TxnOutcome {
            txn,
            client: a.client,
            session: a.session,
            replica: self.replica,
            committed: false,
            commit_version: None,
            observed_version: a.snapshot,
            tables_written: vec![],
            abort_reason: Some(reason.to_owned()),
        })
    }

    /// Applies every contiguously applicable entry of the ordered apply
    /// queue, then wakes parked transactions whose requirement is met.
    fn drain(&mut self) -> Result<Vec<ProxyEvent>> {
        let mut events = Vec::new();
        loop {
            let next = self.engine.version().next();
            let Some(apply) = self.pending.remove(&next) else {
                break;
            };
            match apply {
                PendingApply::Refresh { writeset } => {
                    self.engine.apply_refresh(writeset.as_ref(), next)?;
                    self.stats.refreshes_applied += 1;
                    if self.mode == ConsistencyMode::Eager {
                        events.push(ProxyEvent::CommitApplied { version: next });
                    }
                }
                PendingApply::LocalCommit { txn } => {
                    let a = self
                        .active
                        .remove(&txn)
                        .ok_or_else(|| Error::NoSuchTransaction(format!("{txn}")))?;
                    let tables = self.engine.partial_writeset(a.handle)?.tables();
                    self.engine.commit_at(a.handle, next)?;
                    self.stats.update_commits += 1;
                    let outcome = TxnOutcome {
                        txn,
                        client: a.client,
                        session: a.session,
                        replica: self.replica,
                        committed: true,
                        commit_version: Some(next),
                        observed_version: next,
                        tables_written: tables,
                        abort_reason: None,
                    };
                    if self.mode == ConsistencyMode::Eager {
                        self.awaiting_global.insert(txn, outcome);
                        events.push(ProxyEvent::CommitApplied { version: next });
                        events.push(ProxyEvent::AwaitingGlobal { txn });
                    } else {
                        events.push(ProxyEvent::TxnFinished(outcome));
                    }
                }
            }
        }
        // Wake parked transactions whose synchronization delay has ended.
        let version = self.engine.version();
        let mut still_waiting = VecDeque::new();
        while let Some(routed) = self.waiting.pop_front() {
            if version.covers(routed.start_requirement) {
                let txn = routed.txn;
                let snapshot = self.begin_active(routed);
                events.push(ProxyEvent::TxnStarted { txn, snapshot });
            } else {
                still_waiting.push_back(routed);
            }
        }
        self.waiting = still_waiting;
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::TableId;
    use bargain_sql::{execute_ddl, parse};

    const T_READ: u32 = 0;
    const T_WRITE: u32 = 1;
    const T_RW: u32 = 2;

    fn make_engine() -> Engine {
        let mut e = Engine::new();
        execute_ddl(
            &mut e,
            &parse("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)").unwrap(),
        )
        .unwrap();
        let t = e.resolve_table("acct").unwrap();
        e.load_rows(
            t,
            (1..=10i64)
                .map(|i| vec![Value::Int(i), Value::Int(100)])
                .collect(),
        )
        .unwrap();
        e
    }

    fn make_proxy(mode: ConsistencyMode) -> Proxy {
        let mut p = Proxy::new(ReplicaId(0), mode, make_engine());
        p.register_template(Arc::new(
            TransactionTemplate::new(
                TemplateId(T_READ),
                "read",
                &["SELECT * FROM acct WHERE id = ?"],
            )
            .unwrap(),
        ));
        p.register_template(Arc::new(
            TransactionTemplate::new(
                TemplateId(T_WRITE),
                "write",
                &["UPDATE acct SET bal = ? WHERE id = ?"],
            )
            .unwrap(),
        ));
        p.register_template(Arc::new(
            TransactionTemplate::new(
                TemplateId(T_RW),
                "rw",
                &[
                    "SELECT * FROM acct WHERE id = ?",
                    "UPDATE acct SET bal = ? WHERE id = ?",
                ],
            )
            .unwrap(),
        ));
        p
    }

    fn routed(txn: u64, template: u32, params: Vec<Vec<Value>>, req: u64) -> RoutedTxn {
        RoutedTxn {
            txn: TxnId(txn),
            client: ClientId(1),
            session: SessionId(1),
            template: TemplateId(template),
            params,
            replica: ReplicaId(0),
            start_requirement: Version(req),
            idem: None,
        }
    }

    fn refresh(version: u64, key: i64) -> Refresh {
        let mut ws = WriteSet::new();
        ws.push(
            TableId(0),
            Value::Int(key),
            bargain_common::WriteOp::Update(vec![Value::Int(key), Value::Int(0)]),
        );
        Refresh {
            origin: ReplicaId(1),
            txn: TxnId(999),
            commit_version: Version(version),
            writeset: Arc::new(ws),
        }
    }

    #[test]
    fn read_only_transaction_full_path() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        let r = routed(1, T_READ, vec![vec![Value::Int(3)]], 0);
        assert_eq!(
            p.start(r).unwrap(),
            StartDecision::Started {
                snapshot: Version::ZERO
            }
        );
        let out = p.execute_statement(TxnId(1), 0).unwrap();
        match out {
            StatementOutcome::Ok(QueryResult::Rows(rows)) => {
                assert_eq!(rows[0][1], Value::Int(100));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p.finish(TxnId(1)).unwrap() {
            FinishAction::ReadOnlyCommitted(out) => {
                assert!(out.committed);
                assert_eq!(out.commit_version, None);
                assert_eq!(out.observed_version, Version::ZERO);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.stats().ro_commits, 1);
    }

    #[test]
    fn update_transaction_commits_through_certification() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        let r = routed(1, T_WRITE, vec![vec![Value::Int(42), Value::Int(3)]], 0);
        p.start(r).unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        let req = match p.finish(TxnId(1)).unwrap() {
            FinishAction::NeedsCertification(req) => req,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(req.snapshot, Version::ZERO);
        assert_eq!(req.writeset.len(), 1);
        let events = p
            .on_decision(CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(1),
            })
            .unwrap();
        assert_eq!(events.len(), 1);
        match &events[0] {
            ProxyEvent::TxnFinished(out) => {
                assert!(out.committed);
                assert_eq!(out.commit_version, Some(Version(1)));
                assert_eq!(out.tables_written, vec![TableId(0)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.version(), Version(1));
    }

    #[test]
    fn certifier_abort_rolls_back() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(42), Value::Int(3)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.finish(TxnId(1)).unwrap();
        let events = p
            .on_decision(CertifyDecision::Abort {
                txn: TxnId(1),
                conflicting_version: Version(1),
            })
            .unwrap();
        match &events[0] {
            ProxyEvent::TxnFinished(out) => {
                assert!(!out.committed);
                assert!(out.abort_reason.is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.version(), Version::ZERO);
        assert_eq!(p.stats().certifier_aborts, 1);
    }

    #[test]
    fn start_delay_until_refresh_applies() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // Requirement v2: replica is at v0, so the txn parks.
        let d = p
            .start(routed(1, T_READ, vec![vec![Value::Int(5)]], 2))
            .unwrap();
        assert_eq!(
            d,
            StartDecision::Delayed {
                required: Version(2),
                current: Version::ZERO
            }
        );
        assert_eq!(p.waiting_count(), 1);
        // Refresh v1 is not enough.
        let ev = p.on_refresh(refresh(1, 1)).unwrap();
        assert!(ev.is_empty());
        assert_eq!(p.waiting_count(), 1);
        // Refresh v2 wakes the transaction with snapshot v2.
        let ev = p.on_refresh(refresh(2, 2)).unwrap();
        assert_eq!(
            ev,
            vec![ProxyEvent::TxnStarted {
                txn: TxnId(1),
                snapshot: Version(2)
            }]
        );
        assert_eq!(p.stats().delayed_starts, 1);
        // Reads observe the refreshed state.
        let out = p.execute_statement(TxnId(1), 0).unwrap();
        assert!(matches!(out, StatementOutcome::Ok(_)));
    }

    #[test]
    fn out_of_order_refreshes_buffer_and_apply_contiguously() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.on_refresh(refresh(2, 2)).unwrap();
        p.on_refresh(refresh(3, 3)).unwrap();
        assert_eq!(p.version(), Version::ZERO);
        assert_eq!(p.pending_count(), 2);
        p.on_refresh(refresh(1, 1)).unwrap();
        assert_eq!(p.version(), Version(3));
        assert_eq!(p.pending_count(), 0);
        assert_eq!(p.stats().refreshes_applied, 3);
    }

    #[test]
    fn duplicate_refresh_is_silently_ignored() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.on_refresh(refresh(1, 1)).unwrap();
        // Re-delivery (e.g. post-crash re-synchronization racing an
        // in-flight refresh) is dropped without touching the engine.
        let ev = p.on_refresh(refresh(1, 1)).unwrap();
        assert!(ev.is_empty());
        assert_eq!(p.version(), Version(1));
        assert_eq!(p.stats().duplicate_refreshes_ignored, 1);
        assert_eq!(p.stats().refreshes_applied, 1);
    }

    #[test]
    fn duplicate_refresh_does_not_trigger_early_aborts() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.on_refresh(refresh(1, 5)).unwrap();
        // A local txn writes key 5; a duplicate of the already-applied
        // refresh (same key) must not early-abort it.
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(0), Value::Int(5)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        let ev = p.on_refresh(refresh(1, 5)).unwrap();
        assert!(ev.is_empty());
        assert_eq!(p.stats().early_aborts_refresh, 0);
        assert!(p.finish(TxnId(1)).is_ok());
    }

    #[test]
    fn crash_aborts_in_flight_and_preserves_v_local() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.on_refresh(refresh(1, 1)).unwrap();
        // Executing txn.
        p.start(routed(
            2,
            T_WRITE,
            vec![vec![Value::Int(9), Value::Int(2)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(2), 0).unwrap();
        // Parked txn (requirement beyond V_local).
        p.start(routed(3, T_READ, vec![vec![Value::Int(1)]], 5))
            .unwrap();
        // Buffered out-of-order refresh (gap at v2).
        p.on_refresh(refresh(3, 3)).unwrap();
        assert_eq!(p.pending_count(), 1);

        let outcomes = p.crash();
        let mut lost: Vec<TxnId> = outcomes.iter().map(|o| o.txn).collect();
        lost.sort_unstable();
        assert_eq!(lost, vec![TxnId(2), TxnId(3)]);
        assert!(outcomes.iter().all(|o| !o.committed));
        assert!(outcomes
            .iter()
            .all(|o| o.abort_reason.as_deref() == Some("replica crash")));
        // The engine checkpoint survives; volatile state is gone.
        assert_eq!(p.version(), Version(1));
        assert_eq!(p.pending_count(), 0);
        assert_eq!(p.waiting_count(), 0);
        assert_eq!(p.stats().crashes, 1);
    }

    #[test]
    fn crash_then_resync_applies_missed_suffix() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.on_refresh(refresh(1, 1)).unwrap();
        p.on_refresh(refresh(3, 3)).unwrap(); // buffered, lost in the crash
        p.crash();
        assert_eq!(p.version(), Version(1));
        // Re-synchronization: certified_since(V_local) re-delivers v2, v3.
        p.on_refresh(refresh(2, 2)).unwrap();
        p.on_refresh(refresh(3, 3)).unwrap();
        assert_eq!(p.version(), Version(3));
        assert_eq!(p.pending_count(), 0);
    }

    #[test]
    fn crash_converts_withheld_eager_outcomes_into_ambiguous_aborts() {
        let mut p = make_proxy(ConsistencyMode::Eager);
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(1), Value::Int(2)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.finish(TxnId(1)).unwrap();
        p.on_decision(CertifyDecision::Commit {
            txn: TxnId(1),
            commit_version: Version(1),
        })
        .unwrap();
        // Committed locally, waiting for the global-commit notification.
        let outcomes = p.crash();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].committed);
        assert!(outcomes[0]
            .abort_reason
            .as_deref()
            .unwrap()
            .contains("global commit"));
        // The write itself is durable: it was applied at v1 before the crash.
        assert_eq!(p.version(), Version(1));
        assert!(p.on_global_commit(TxnId(1)).is_err());
    }

    #[test]
    fn local_commit_waits_for_refresh_gap_sync_stage() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(1), Value::Int(5)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.finish(TxnId(1)).unwrap();
        // Certifier says: commit at v2 (someone else got v1).
        let ev = p
            .on_decision(CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(2),
            })
            .unwrap();
        // Cannot apply yet: v1 has not arrived. This wait is the sync stage.
        assert!(ev.is_empty());
        assert_eq!(p.version(), Version::ZERO);
        // v1 arrives: both apply, in order.
        let ev = p.on_refresh(refresh(1, 9)).unwrap();
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            ProxyEvent::TxnFinished(out) => {
                assert_eq!(out.commit_version, Some(Version(2)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.version(), Version(2));
    }

    #[test]
    fn early_certification_statement_check() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // Buffer a refresh that cannot apply yet (gap at v1): writes key 5.
        p.on_refresh(refresh(2, 5)).unwrap();
        assert_eq!(p.pending_count(), 1);
        // A local txn updates the same key 5 -> statement-time early abort.
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(0), Value::Int(5)]],
            0,
        ))
        .unwrap();
        let out = p.execute_statement(TxnId(1), 0).unwrap();
        match out {
            StatementOutcome::EarlyAborted(out) => {
                assert!(!out.committed);
                assert!(out.abort_reason.unwrap().contains("early certification"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.stats().early_aborts_statement, 1);
    }

    #[test]
    fn early_certification_refresh_arrival_check() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // Local txn writes key 5 and is still executing.
        p.start(routed(
            1,
            T_RW,
            vec![vec![Value::Int(5)], vec![Value::Int(0), Value::Int(5)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.execute_statement(TxnId(1), 1).unwrap();
        // A refresh writing key 5 arrives: the local txn aborts immediately.
        let ev = p.on_refresh(refresh(1, 5)).unwrap();
        let aborted = ev.iter().any(
            |e| matches!(e, ProxyEvent::TxnFinished(out) if !out.committed && out.txn == TxnId(1)),
        );
        assert!(aborted, "expected early abort, got {ev:?}");
        assert_eq!(p.stats().early_aborts_refresh, 1);
        // The refresh still applied.
        assert_eq!(p.version(), Version(1));
    }

    #[test]
    fn refresh_does_not_abort_disjoint_or_certifying_txns() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // Txn writing key 7 (disjoint from refresh key 5).
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(0), Value::Int(7)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        // Txn writing key 5 but already in certification phase.
        p.start(routed(
            2,
            T_WRITE,
            vec![vec![Value::Int(0), Value::Int(5)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(2), 0).unwrap();
        p.finish(TxnId(2)).unwrap();

        let ev = p.on_refresh(refresh(1, 5)).unwrap();
        assert!(
            !ev.iter()
                .any(|e| matches!(e, ProxyEvent::TxnFinished(o) if !o.committed)),
            "no early aborts expected, got {ev:?}"
        );
        assert_eq!(p.stats().early_aborts_refresh, 0);
    }

    #[test]
    fn eager_mode_withholds_outcome_until_global_commit() {
        let mut p = make_proxy(ConsistencyMode::Eager);
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(1), Value::Int(2)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.finish(TxnId(1)).unwrap();
        let ev = p
            .on_decision(CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(1),
            })
            .unwrap();
        assert_eq!(
            ev,
            vec![
                ProxyEvent::CommitApplied {
                    version: Version(1)
                },
                ProxyEvent::AwaitingGlobal { txn: TxnId(1) },
            ]
        );
        // Not released yet.
        let out = p.on_global_commit(TxnId(1)).unwrap();
        assert!(out.committed);
        assert_eq!(out.commit_version, Some(Version(1)));
        // Double release is an error.
        assert!(p.on_global_commit(TxnId(1)).is_err());
    }

    #[test]
    fn eager_refresh_reports_commit_applied() {
        let mut p = make_proxy(ConsistencyMode::Eager);
        let ev = p.on_refresh(refresh(1, 1)).unwrap();
        assert_eq!(
            ev,
            vec![ProxyEvent::CommitApplied {
                version: Version(1)
            }]
        );
    }

    #[test]
    fn lazy_refresh_does_not_report_commit_applied() {
        let mut p = make_proxy(ConsistencyMode::LazyFine);
        let ev = p.on_refresh(refresh(1, 1)).unwrap();
        assert!(ev.is_empty());
    }

    #[test]
    fn snapshot_is_local_version_at_actual_start() {
        let mut p = make_proxy(ConsistencyMode::Session);
        p.on_refresh(refresh(1, 1)).unwrap();
        // Requirement v1 already met: starts at snapshot v1.
        let d = p
            .start(routed(1, T_READ, vec![vec![Value::Int(2)]], 1))
            .unwrap();
        assert_eq!(
            d,
            StartDecision::Started {
                snapshot: Version(1)
            }
        );
    }

    #[test]
    fn unregistered_template_rejected() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        let r = RoutedTxn {
            template: TemplateId(99),
            ..routed(1, T_READ, vec![], 0)
        };
        assert!(p.start(r).is_err());
    }

    #[test]
    fn disabling_early_certification_skips_both_checks() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.set_early_certification(false);
        // Statement-time check: pending refresh on key 5, local write to 5.
        p.on_refresh(refresh(2, 5)).unwrap(); // gap at v1: stays pending
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(0), Value::Int(5)]],
            0,
        ))
        .unwrap();
        let out = p.execute_statement(TxnId(1), 0).unwrap();
        assert!(
            matches!(out, StatementOutcome::Ok(_)),
            "statement-time early abort must be disabled"
        );
        // Arrival-time check: refresh writing key 5 arrives while txn 1
        // still executes — no abort either.
        let ev = p.on_refresh(refresh(1, 5)).unwrap();
        assert!(
            !ev.iter()
                .any(|e| matches!(e, ProxyEvent::TxnFinished(o) if !o.committed)),
            "arrival-time early abort must be disabled: {ev:?}"
        );
        assert_eq!(p.stats().early_aborts_statement, 0);
        assert_eq!(p.stats().early_aborts_refresh, 0);
        // The doomed transaction is still caught by the certifier path
        // later (simulated by an abort decision).
        p.finish(TxnId(1)).unwrap();
        let ev = p
            .on_decision(CertifyDecision::Abort {
                txn: TxnId(1),
                conflicting_version: Version(2),
            })
            .unwrap();
        assert!(matches!(&ev[0], ProxyEvent::TxnFinished(o) if !o.committed));
    }

    #[test]
    fn multiple_waiters_wake_in_fifo_order() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        p.start(routed(1, T_READ, vec![vec![Value::Int(1)]], 1))
            .unwrap();
        p.start(routed(2, T_READ, vec![vec![Value::Int(1)]], 1))
            .unwrap();
        p.start(routed(3, T_READ, vec![vec![Value::Int(1)]], 2))
            .unwrap();
        let ev = p.on_refresh(refresh(1, 1)).unwrap();
        let started: Vec<TxnId> = ev
            .iter()
            .filter_map(|e| match e {
                ProxyEvent::TxnStarted { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![TxnId(1), TxnId(2)]);
        assert_eq!(p.waiting_count(), 1);
    }

    #[test]
    fn duplicate_decision_discards_writes_and_reports_original_commit() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // The retry executes locally (writing bal=7 to row 3)...
        p.start(routed(
            5,
            T_WRITE,
            vec![vec![Value::Int(7), Value::Int(3)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(5), 0).unwrap();
        p.finish(TxnId(5)).unwrap();
        // ...but the certifier recognizes the idempotency key: the original
        // already committed at v1 (and reaches this replica as a refresh).
        let ev = p
            .on_decision(CertifyDecision::Duplicate {
                txn: TxnId(5),
                original: TxnId(2),
                commit_version: Version(1),
            })
            .unwrap();
        match &ev[..] {
            [ProxyEvent::TxnFinished(out)] => {
                assert!(out.committed);
                assert_eq!(out.commit_version, Some(Version(1)));
                assert_eq!(out.observed_version, Version(1));
                assert_eq!(out.tables_written, vec![TableId(0)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.stats().duplicate_commits, 1);
        // The retry's own writes were discarded, not applied: V_local is
        // still 0 until the original's refresh arrives.
        assert_eq!(p.version(), Version::ZERO);
        let ev = p.on_refresh(refresh(1, 3)).unwrap();
        assert!(ev.is_empty());
        assert_eq!(p.version(), Version(1));
    }

    #[test]
    fn abort_certifying_leaves_executing_txns_alone() {
        let mut p = make_proxy(ConsistencyMode::LazyCoarse);
        // Txn 1 is certifying, txn 2 still executing.
        p.start(routed(
            1,
            T_WRITE,
            vec![vec![Value::Int(1), Value::Int(1)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(1), 0).unwrap();
        p.finish(TxnId(1)).unwrap();
        p.start(routed(
            2,
            T_WRITE,
            vec![vec![Value::Int(2), Value::Int(2)]],
            0,
        ))
        .unwrap();
        p.execute_statement(TxnId(2), 0).unwrap();
        let outcomes = p.abort_certifying("certifier unavailable: link lost (retry-after)");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].txn, TxnId(1));
        assert!(!outcomes[0].committed);
        assert_eq!(p.stats().certifier_lost_aborts, 1);
        // Txn 2 can still finish and certify once the link is back.
        assert!(matches!(
            p.finish(TxnId(2)).unwrap(),
            FinishAction::NeedsCertification(_)
        ));
    }
}
