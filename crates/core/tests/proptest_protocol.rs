//! Property-based protocol test: a randomized "chaos network" delivers
//! refreshes and decisions in arbitrary orders and with arbitrary delays,
//! replays a replica's missed suffix (its own commits included) as a
//! resync does, and sweeps a replica as a certifier-link loss does. The
//! protocol must still (a) keep every replica's state identical once
//! messages drain, (b) commit exactly the certified transactions, (c)
//! uphold strong consistency, and (d) answer every request exactly once,
//! leaving every proxy idle. It runs under the coarse-grained
//! configuration and under Eager, where applied commits are reported back
//! to the certifier and global commits are delivered too.

use bargain_common::{
    ClientId, ConsistencyMode, Error, ReplicaId, Row, SessionId, TableId, TemplateId, TxnId, Value,
    Version,
};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{
    Certifier, CertifyDecision, ConsistencyChecker, FinishAction, LoadBalancer, Proxy, ProxyEvent,
    Refresh, RoutedTxn, StartDecision, StatementOutcome, TxnOutcome, TxnRequest,
};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

const N_REPLICAS: usize = 3;
const KEYS: i64 = 6;
const T_WRITE: TemplateId = TemplateId(0);
const T_READ: TemplateId = TemplateId(1);

fn make_proxy(id: u32, mode: ConsistencyMode) -> Proxy {
    let mut e = Engine::new();
    bargain_sql::execute_ddl(
        &mut e,
        &bargain_sql::parse("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap(),
    )
    .unwrap();
    e.load_rows(
        TableId(0),
        (0..KEYS)
            .map(|k| vec![Value::Int(k), Value::Int(0)])
            .collect(),
    )
    .unwrap();
    let mut p = Proxy::new(ReplicaId(id), mode, e);
    p.register_template(Arc::new(
        TransactionTemplate::new(T_WRITE, "w", &["UPDATE t SET v = ? WHERE id = ?"]).unwrap(),
    ));
    p.register_template(Arc::new(
        TransactionTemplate::new(T_READ, "r", &["SELECT * FROM t WHERE id = ?"]).unwrap(),
    ));
    p
}

/// An undelivered message.
enum Msg {
    Certifier { to: usize, delivery: Delivery },
    Outcome { outcome: TxnOutcome },
}

/// One scripted client action.
#[derive(Debug, Clone)]
enum Action {
    /// Issue a transaction: `write=true` updates `key`, else reads it.
    Issue { write: bool, key: i64, val: i64 },
    /// Deliver the `n % pending`-th undelivered message.
    Deliver { n: u8 },
    /// Send replica `r % N_REPLICAS` everything certified above its
    /// `V_local` as refreshes, its own commits included, as a resync does.
    Resync { r: u8 },
    /// Lose replica `r % N_REPLICAS`'s certifier link: sweep its
    /// certifying transactions, then resync it, as the runtime does.
    Sweep { r: u8 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (any::<bool>(), 0..KEYS, 1..100i64)
            .prop_map(|(write, key, val)| Action::Issue { write, key, val }),
        5 => any::<u8>().prop_map(|n| Action::Deliver { n }),
        1 => any::<u8>().prop_map(|r| Action::Resync { r }),
        1 => any::<u8>().prop_map(|r| Action::Sweep { r }),
    ]
}

struct Harness {
    mode: ConsistencyMode,
    lb: LoadBalancer,
    certifier: Certifier,
    proxies: Vec<Proxy>,
    pending: VecDeque<Msg>,
    checker: ConsistencyChecker,
    issued: Vec<TxnId>,
    /// How many answers each transaction got.
    answers: HashMap<TxnId, u32>,
    /// Transactions a sweep answered "outcome unknown"; their decisions
    /// and global commits may still arrive and find nothing.
    swept: HashSet<TxnId>,
    /// Update transactions acknowledged committed, at their versions.
    committed: HashMap<TxnId, Version>,
}

impl Harness {
    fn new(mode: ConsistencyMode) -> Self {
        let replica_ids: Vec<ReplicaId> = (0..N_REPLICAS as u32).map(ReplicaId).collect();
        let mut lb = LoadBalancer::new(mode, replica_ids.clone(), 1);
        lb.register_template(T_WRITE, [TableId(0)].into_iter().collect());
        lb.register_template(T_READ, [TableId(0)].into_iter().collect());
        let mut certifier = Certifier::new(replica_ids);
        certifier.set_eager(mode == ConsistencyMode::Eager);
        Harness {
            mode,
            lb,
            certifier,
            proxies: (0..N_REPLICAS as u32)
                .map(|id| make_proxy(id, mode))
                .collect(),
            pending: VecDeque::new(),
            checker: ConsistencyChecker::new(),
            issued: Vec::new(),
            answers: HashMap::new(),
            swept: HashSet::new(),
            committed: HashMap::new(),
        }
    }

    /// Steps the (single, ordered) certifier synchronously; its outputs
    /// become undelivered messages.
    fn step(&mut self, input: Input) {
        for (to, delivery) in self.certifier.step([input]).unwrap().out {
            let to = to.index();
            self.pending.push_back(Msg::Certifier { to, delivery });
        }
    }

    fn handle_events(&mut self, replica: usize, events: Vec<ProxyEvent>) {
        for ev in events {
            match ev {
                ProxyEvent::TxnStarted { txn, snapshot } => {
                    self.checker.record_snapshot(txn, snapshot);
                    self.run_statements(replica, txn);
                }
                ProxyEvent::TxnFinished(outcome) => {
                    self.pending.push_back(Msg::Outcome { outcome });
                }
                ProxyEvent::AwaitingGlobal { .. } => {}
                ProxyEvent::CommitApplied { version } => {
                    let replica = ReplicaId(replica as u32);
                    self.step(Input::Applied { replica, version });
                }
            }
        }
    }

    fn run_statements(&mut self, replica: usize, txn: TxnId) {
        match self.proxies[replica].execute_statement(txn, 0).unwrap() {
            StatementOutcome::Ok(_) => {}
            StatementOutcome::EarlyAborted(outcome) => {
                self.pending.push_back(Msg::Outcome { outcome });
                return;
            }
        }
        match self.proxies[replica].finish(txn).unwrap() {
            FinishAction::ReadOnlyCommitted(outcome) => {
                self.pending.push_back(Msg::Outcome { outcome });
            }
            FinishAction::NeedsCertification(req) => self.step(Input::Certify(req)),
        }
    }

    fn issue(&mut self, write: bool, key: i64, val: i64) {
        let client = ClientId(self.issued.len() as u64 % 4);
        let (template, params) = if write {
            (T_WRITE, vec![vec![Value::Int(val), Value::Int(key)]])
        } else {
            (T_READ, vec![vec![Value::Int(key)]])
        };
        let routed: RoutedTxn = self
            .lb
            .route(TxnRequest {
                client,
                session: SessionId(client.0),
                template,
                params,
                idem: None,
            })
            .unwrap();
        self.checker
            .record_issue(routed.txn, SessionId(client.0), None);
        let replica = routed.replica.index();
        let txn = routed.txn;
        self.issued.push(txn);
        match self.proxies[replica].start(routed).unwrap() {
            StartDecision::Started { snapshot } => {
                self.checker.record_snapshot(txn, snapshot);
                self.run_statements(replica, txn);
            }
            StartDecision::Delayed { .. } => {}
        }
    }

    fn resync(&mut self, replica: usize) {
        let after = self.proxies[replica].version();
        for rec in self.certifier.certified_since(after).unwrap() {
            let delivery = Delivery::Refresh(Refresh::from(&rec));
            self.pending.push_back(Msg::Certifier {
                to: replica,
                delivery,
            });
        }
    }

    fn sweep(&mut self, replica: usize) {
        for outcome in self.proxies[replica].abort_certifying("link lost") {
            self.swept.insert(outcome.txn);
            self.pending.push_back(Msg::Outcome { outcome });
        }
        self.resync(replica);
    }

    fn deliver(&mut self, n: u8) {
        if self.pending.is_empty() {
            return;
        }
        let mut idx = n as usize % self.pending.len();
        // A commit's decision and its global commit travel one link in
        // order: the global commit waits for the decision.
        if let Msg::Certifier {
            to,
            delivery: Delivery::GlobalCommit(txn),
        } = self.pending[idx]
        {
            let decision = self.pending.iter().position(|m| {
                matches!(m, Msg::Certifier {
                    to: t,
                    delivery: Delivery::Decision(CertifyDecision::Commit { txn: d, .. }),
                } if *t == to && *d == txn)
            });
            idx = decision.unwrap_or(idx);
        }
        let msg = self.pending.remove(idx).expect("index in range");
        match msg {
            Msg::Certifier { to, delivery } => {
                let events = match delivery {
                    Delivery::Refresh(refresh) => self.proxies[to].on_refresh(refresh).unwrap(),
                    Delivery::Decision(decision) => {
                        let txn = match decision {
                            CertifyDecision::Commit { txn, .. }
                            | CertifyDecision::Abort { txn, .. }
                            | CertifyDecision::Duplicate { txn, .. }
                            | CertifyDecision::Refused { txn, .. } => txn,
                        };
                        match self.proxies[to].on_decision(decision) {
                            Ok(events) => events,
                            Err(Error::NoSuchTransaction(_)) if self.swept.contains(&txn) => {
                                Vec::new()
                            }
                            Err(e) => panic!("decision for {txn}: {e}"),
                        }
                    }
                    Delivery::GlobalCommit(txn) => {
                        assert_eq!(self.mode, ConsistencyMode::Eager);
                        match self.proxies[to].on_global_commit(txn) {
                            Ok(outcome) => self.pending.push_back(Msg::Outcome { outcome }),
                            Err(e) => assert!(self.swept.contains(&txn), "{e}"),
                        }
                        Vec::new()
                    }
                };
                self.handle_events(to, events);
            }
            Msg::Outcome { outcome } => {
                self.lb.on_outcome(&outcome);
                *self.answers.entry(outcome.txn).or_default() += 1;
                if outcome.committed {
                    if let Some(v) = outcome.commit_version {
                        self.committed.insert(outcome.txn, v);
                    }
                    self.checker.record_ack_with_tables(
                        outcome.txn,
                        outcome.commit_version,
                        outcome.tables_written.clone(),
                    );
                }
            }
        }
    }

    fn drain(&mut self) {
        // Deliver everything still in flight (in FIFO order, which is one
        // valid schedule).
        while !self.pending.is_empty() {
            self.deliver(0);
        }
    }

    fn run(&mut self, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Issue { write, key, val } => self.issue(write, key, val),
                Action::Deliver { n } => self.deliver(n),
                Action::Resync { r } => self.resync(r as usize % N_REPLICAS),
                Action::Sweep { r } => self.sweep(r as usize % N_REPLICAS),
            }
        }
        self.drain();
    }

    fn check(&mut self) {
        // (a) All replicas converge to the certifier's version and to
        //     identical row states.
        let v = self.certifier.version();
        for p in &self.proxies {
            prop_assert_eq!(p.version(), v, "replica lagging after drain");
        }
        let mut states = self.proxies.iter_mut().map(|p| {
            let e = p.engine_mut();
            let txn = e.begin();
            let rows: Vec<(Value, Row)> = e.scan(txn, TableId(0)).unwrap();
            e.commit_read_only(txn).unwrap();
            rows
        });
        let reference = states.next().unwrap();
        for rows in states {
            prop_assert_eq!(&rows, &reference, "replica state diverged");
        }

        // (b) Exactly the certified transactions committed: each one is
        //     acknowledged committed at its version, or its request was
        //     swept and answered "outcome unknown".
        let log = self.certifier.certified_since(Version::ZERO).unwrap();
        prop_assert_eq!(log.len() as u64, v.0);
        for rec in &log {
            match self.committed.get(&rec.txn) {
                Some(&at) => prop_assert_eq!(at, rec.commit_version),
                None => prop_assert!(self.swept.contains(&rec.txn), "{} unacked", rec.txn),
            }
        }
        prop_assert_eq!(
            self.committed.len(),
            log.len() - {
                let logged: HashSet<TxnId> = log.iter().map(|r| r.txn).collect();
                self.swept.intersection(&logged).count()
            }
        );

        // (c) Strong consistency (both configurations are strong).
        let violations = self.checker.strong_violations();
        prop_assert!(violations.is_empty(), "violations: {:?}", violations);

        // (d) Every request answered exactly once, nothing left waiting.
        for txn in &self.issued {
            prop_assert_eq!(
                self.answers.get(txn).copied(),
                Some(1),
                "answers to {}",
                txn
            );
        }
        prop_assert_eq!(self.answers.len(), self.issued.len());
        for p in &self.proxies {
            prop_assert!(p.is_idle(), "replica {} not idle", p.replica());
        }
    }
}

/// Cases per run; `PROPTEST_CASES` widens the sweep.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn chaos_schedules_preserve_convergence_and_strong_consistency(
        actions in proptest::collection::vec(action_strategy(), 1..150)
    ) {
        let mut h = Harness::new(ConsistencyMode::LazyCoarse);
        h.run(actions);
        h.check();
    }

    #[test]
    fn eager_chaos_schedules_answer_every_request_once(
        actions in proptest::collection::vec(action_strategy(), 1..150)
    ) {
        let mut h = Harness::new(ConsistencyMode::Eager);
        h.run(actions);
        h.check();
    }
}
