//! Property-based protocol test: a randomized "chaos network" delivers
//! refreshes and decisions in arbitrary orders and with arbitrary delays,
//! and the protocol must still (a) keep every replica's state identical
//! once messages drain, (b) commit exactly the certified transactions, and
//! (c) uphold strong consistency for the coarse-grained configuration.

use bargain_common::{
    ClientId, ConsistencyMode, ReplicaId, SessionId, TableId, TemplateId, TxnId, Value, Version,
};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{
    Certifier, ConsistencyChecker, FinishAction, LoadBalancer, Proxy, ProxyEvent, RoutedTxn,
    StartDecision, StatementOutcome, TxnOutcome, TxnRequest,
};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

const N_REPLICAS: usize = 3;
const KEYS: i64 = 6;
const T_WRITE: TemplateId = TemplateId(0);
const T_READ: TemplateId = TemplateId(1);

fn make_proxy(id: u32) -> Proxy {
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
    let mut p = Proxy::new(ReplicaId(id), ConsistencyMode::LazyCoarse, e);
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
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (any::<bool>(), 0..KEYS, 1..100i64)
            .prop_map(|(write, key, val)| Action::Issue { write, key, val }),
        5 => any::<u8>().prop_map(|n| Action::Deliver { n }),
    ]
}

struct Harness {
    lb: LoadBalancer,
    certifier: Certifier,
    proxies: Vec<Proxy>,
    pending: VecDeque<Msg>,
    checker: ConsistencyChecker,
    issued: u64,
    committed_updates: u64,
    acked: u64,
}

impl Harness {
    fn new() -> Self {
        let replica_ids: Vec<ReplicaId> = (0..N_REPLICAS as u32).map(ReplicaId).collect();
        let mut lb = LoadBalancer::new(ConsistencyMode::LazyCoarse, replica_ids.clone(), 1);
        lb.register_template(T_WRITE, [TableId(0)].into_iter().collect());
        lb.register_template(T_READ, [TableId(0)].into_iter().collect());
        Harness {
            lb,
            certifier: Certifier::new(replica_ids),
            proxies: (0..N_REPLICAS as u32).map(make_proxy).collect(),
            pending: VecDeque::new(),
            checker: ConsistencyChecker::new(),
            issued: 0,
            committed_updates: 0,
            acked: 0,
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
                ProxyEvent::AwaitingGlobal { .. } | ProxyEvent::CommitApplied { .. } => {}
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
            FinishAction::NeedsCertification(req) => {
                // Certification is synchronous at the (single, ordered)
                // certifier; its outputs become undelivered messages.
                for (to, delivery) in self.certifier.step([Input::Certify(req)]).unwrap().out {
                    let to = to.index();
                    self.pending.push_back(Msg::Certifier { to, delivery });
                }
            }
        }
    }

    fn issue(&mut self, write: bool, key: i64, val: i64) {
        self.issued += 1;
        let client = ClientId(self.issued % 4);
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
        match self.proxies[replica].start(routed).unwrap() {
            StartDecision::Started { snapshot } => {
                self.checker.record_snapshot(txn, snapshot);
                self.run_statements(replica, txn);
            }
            StartDecision::Delayed { .. } => {}
        }
    }

    fn deliver(&mut self, n: u8) {
        if self.pending.is_empty() {
            return;
        }
        let idx = n as usize % self.pending.len();
        let msg = self.pending.remove(idx).expect("index in range");
        match msg {
            Msg::Certifier { to, delivery } => {
                let events = match delivery {
                    Delivery::Refresh(refresh) => self.proxies[to].on_refresh(refresh),
                    Delivery::Decision(decision) => self.proxies[to].on_decision(decision),
                    Delivery::GlobalCommit(_) => unreachable!("LazyCoarse is not eager"),
                };
                self.handle_events(to, events.unwrap());
            }
            Msg::Outcome { outcome } => {
                self.lb.on_outcome(&outcome);
                if outcome.committed {
                    self.acked += 1;
                    if outcome.commit_version.is_some() {
                        self.committed_updates += 1;
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chaos_schedules_preserve_convergence_and_strong_consistency(
        actions in proptest::collection::vec(action_strategy(), 1..150)
    ) {
        let mut h = Harness::new();
        for a in actions {
            match a {
                Action::Issue { write, key, val } => h.issue(write, key, val),
                Action::Deliver { n } => h.deliver(n),
            }
        }
        h.drain();

        // (a) All replicas converge to the certifier's version and to
        //     identical row states.
        let v = h.certifier.version();
        for p in &h.proxies {
            prop_assert_eq!(p.version(), v, "replica lagging after drain");
        }
        let reference: Vec<(Value, Vec<Value>)> = {
            let e = h.proxies[0].engine_mut();
            let txn = e.begin();
            let rows = e.scan(txn, TableId(0)).unwrap();
            e.commit_read_only(txn).unwrap();
            rows
        };
        for p in h.proxies.iter_mut().skip(1) {
            let e = p.engine_mut();
            let txn = e.begin();
            let rows = e.scan(txn, TableId(0)).unwrap();
            e.commit_read_only(txn).unwrap();
            prop_assert_eq!(&rows, &reference, "replica state diverged");
        }

        // (b) The version counter counts exactly the committed updates.
        prop_assert_eq!(v, Version(h.committed_updates));

        // (c) Strong consistency for the coarse-grained configuration.
        let violations = h.checker.strong_violations();
        prop_assert!(violations.is_empty(), "violations: {:?}", violations);
    }
}
