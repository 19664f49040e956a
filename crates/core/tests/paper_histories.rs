//! The three example histories of paper §II, executed through the real
//! middleware (proxies + certifier), demonstrating the paper's distinction
//! between strong consistency and isolation levels.

use bargain_common::{
    ClientId, ConsistencyMode, ReplicaId, SessionId, TableId, TemplateId, TxnId, Value, Version,
};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{
    Certifier, CertifyDecision, CertifyRequest, FinishAction, Proxy, ProxyEvent, Refresh,
    RoutedTxn, StartDecision, StatementOutcome,
};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;
use std::sync::Arc;

const T_READ_XY_WRITE_X: TemplateId = TemplateId(0);
const T_READ_XY_WRITE_Y: TemplateId = TemplateId(1);
const T_READ_X: TemplateId = TemplateId(2);
const T_WRITE_X: TemplateId = TemplateId(3);

fn make_proxy(id: u32) -> Proxy {
    let mut e = Engine::new();
    bargain_sql::execute_ddl(
        &mut e,
        &bargain_sql::parse("CREATE TABLE reg (k INT PRIMARY KEY, v INT NOT NULL)").unwrap(),
    )
    .unwrap();
    // X is row 0, Y is row 1; both start at 0.
    e.load_rows(
        TableId(0),
        vec![
            vec![Value::Int(0), Value::Int(0)],
            vec![Value::Int(1), Value::Int(0)],
        ],
    )
    .unwrap();
    let mut p = Proxy::new(ReplicaId(id), ConsistencyMode::LazyCoarse, e);
    let t = |tid, name, sqls: &[&str]| Arc::new(TransactionTemplate::new(tid, name, sqls).unwrap());
    p.register_template(t(
        T_READ_XY_WRITE_X,
        "rxy_wx",
        &[
            "SELECT v FROM reg WHERE k = 0",
            "SELECT v FROM reg WHERE k = 1",
            "UPDATE reg SET v = 1 WHERE k = 0",
        ],
    ));
    p.register_template(t(
        T_READ_XY_WRITE_Y,
        "rxy_wy",
        &[
            "SELECT v FROM reg WHERE k = 0",
            "SELECT v FROM reg WHERE k = 1",
            "UPDATE reg SET v = 1 WHERE k = 1",
        ],
    ));
    p.register_template(t(T_READ_X, "rx", &["SELECT v FROM reg WHERE k = 0"]));
    p.register_template(t(T_WRITE_X, "wx", &["UPDATE reg SET v = 1 WHERE k = 0"]));
    p
}

fn routed(txn: u64, template: TemplateId, replica: u32, requirement: Version) -> RoutedTxn {
    RoutedTxn {
        txn: TxnId(txn),
        client: ClientId(txn),
        session: SessionId(txn),
        template,
        params: vec![vec![]; 3],
        replica: ReplicaId(replica),
        start_requirement: requirement,
        idem: None,
    }
}

/// Steps `certifier` over one request: its decision and the refreshes sent
/// ahead of it, each with its addressee.
fn certify(
    certifier: &mut Certifier,
    req: CertifyRequest,
) -> (CertifyDecision, Vec<(ReplicaId, Refresh)>) {
    let origin = req.replica;
    let mut refreshes = Vec::new();
    for (to, delivery) in certifier.step([Input::Certify(req)]).unwrap().out {
        match delivery {
            Delivery::Refresh(refresh) => refreshes.push((to, refresh)),
            Delivery::Decision(decision) if to == origin => return (decision, refreshes),
            other => panic!("{to} sent {other:?}"),
        }
    }
    panic!("no decision for the request")
}

fn read_value(out: StatementOutcome) -> i64 {
    match out {
        StatementOutcome::Ok(r) => r.rows().unwrap()[0][0].as_int().unwrap(),
        StatementOutcome::EarlyAborted(_) => panic!("unexpected early abort"),
    }
}

/// H1: T1 commits W(X=1) on Rep1; T2 then starts on Rep2 *before the
/// refresh arrives* and reads X=0. Serializable (equivalent order T2,T1)
/// but NOT strongly consistent — the anomaly the paper's techniques
/// prevent. We reproduce it by giving T2 no start requirement (Baseline
/// behaviour).
#[test]
fn h1_stale_read_without_start_requirement() {
    let mut rep1 = make_proxy(0);
    let mut rep2 = make_proxy(1);
    let mut certifier = Certifier::new(vec![ReplicaId(0), ReplicaId(1)]);

    // T1 on Rep1.
    rep1.start(routed(1, T_WRITE_X, 0, Version::ZERO)).unwrap();
    rep1.execute_statement(TxnId(1), 0).unwrap();
    let FinishAction::NeedsCertification(req) = rep1.finish(TxnId(1)).unwrap() else {
        panic!("update txn");
    };
    let (decision, _refreshes) = certify(&mut certifier, req);
    let ev = rep1.on_decision(decision).unwrap();
    assert!(matches!(&ev[0], ProxyEvent::TxnFinished(o) if o.committed));

    // T2 on Rep2, refresh not yet delivered, no start requirement.
    rep2.start(routed(2, T_READ_X, 1, Version::ZERO)).unwrap();
    let x = read_value(rep2.execute_statement(TxnId(2), 0).unwrap());
    assert_eq!(x, 0, "H1: T2 reads the stale X — not strongly consistent");
}

/// H2: the same flow with the coarse-grained start requirement (v1): T2 is
/// delayed until the refresh applies and reads X=1 — strong consistency.
#[test]
fn h2_strong_consistency_with_start_requirement() {
    let mut rep1 = make_proxy(0);
    let mut rep2 = make_proxy(1);
    let mut certifier = Certifier::new(vec![ReplicaId(0), ReplicaId(1)]);

    rep1.start(routed(1, T_WRITE_X, 0, Version::ZERO)).unwrap();
    rep1.execute_statement(TxnId(1), 0).unwrap();
    let FinishAction::NeedsCertification(req) = rep1.finish(TxnId(1)).unwrap() else {
        panic!("update txn");
    };
    let (decision, refreshes) = certify(&mut certifier, req);
    rep1.on_decision(decision).unwrap();
    let [(ReplicaId(1), refresh)] = &refreshes[..] else {
        panic!("one refresh, to Rep2: {refreshes:?}");
    };

    // T2 arrives tagged with V_system = v1 (LazyCoarse): delayed.
    let d = rep2.start(routed(2, T_READ_X, 1, Version(1))).unwrap();
    assert!(matches!(d, StartDecision::Delayed { .. }));
    // The refresh lands; T2 wakes at snapshot v1.
    let ev = rep2.on_refresh(refresh.clone()).unwrap();
    assert!(matches!(
        ev[0],
        ProxyEvent::TxnStarted {
            snapshot: Version(1),
            ..
        }
    ));
    let x = read_value(rep2.execute_statement(TxnId(2), 0).unwrap());
    assert_eq!(x, 1, "H2: T2 observes T1's committed write");
}

/// H3: T1 reads X,Y and writes X; T2 (concurrent, other replica) reads X,Y
/// and writes Y. Both read the latest committed values (0,0) and both
/// commit — the history is strongly consistent and snapshot isolated but
/// not serializable (classic write skew). GSI permits it, exactly as the
/// paper states.
#[test]
fn h3_write_skew_commits_under_gsi_and_strong_consistency() {
    let mut rep1 = make_proxy(0);
    let mut rep2 = make_proxy(1);
    let mut certifier = Certifier::new(vec![ReplicaId(0), ReplicaId(1)]);

    // Both transactions start concurrently at the latest state (v0).
    rep1.start(routed(1, T_READ_XY_WRITE_X, 0, Version::ZERO))
        .unwrap();
    rep2.start(routed(2, T_READ_XY_WRITE_Y, 1, Version::ZERO))
        .unwrap();
    for stmt in 0..3 {
        let a = rep1.execute_statement(TxnId(1), stmt).unwrap();
        let b = rep2.execute_statement(TxnId(2), stmt).unwrap();
        if stmt < 2 {
            assert_eq!(read_value(a), 0, "T1 reads latest committed");
            assert_eq!(read_value(b), 0, "T2 reads latest committed");
        }
    }
    let FinishAction::NeedsCertification(r1) = rep1.finish(TxnId(1)).unwrap() else {
        panic!()
    };
    let FinishAction::NeedsCertification(r2) = rep2.finish(TxnId(2)).unwrap() else {
        panic!()
    };
    // Disjoint writesets (X vs Y): both certify.
    let (d1, refreshes1) = certify(&mut certifier, r1);
    let (d2, refreshes2) = certify(&mut certifier, r2);
    assert!(matches!(d1, CertifyDecision::Commit { .. }));
    assert!(
        matches!(d2, CertifyDecision::Commit { .. }),
        "H3 must commit under GSI — it is strongly consistent and snapshot \
         isolated, though not serializable"
    );
    rep1.on_decision(d1).unwrap();
    // Rep2 must apply T1's refresh (v1) before committing T2 at v2 —
    // the global order interleaves them.
    let ev = rep2.on_decision(d2).unwrap();
    assert!(ev.is_empty(), "T2 waits for v1 in the global order");
    let [(ReplicaId(1), refresh1)] = &refreshes1[..] else {
        panic!("T1's one refresh goes to Rep2: {refreshes1:?}");
    };
    assert!(matches!(&refreshes2[..], [(ReplicaId(0), _)]));
    let ev = rep2.on_refresh(refresh1.clone()).unwrap();
    assert!(
        ev.iter()
            .any(|e| matches!(e, ProxyEvent::TxnFinished(o) if o.committed)),
        "T2 commits at v2 after v1 applies"
    );
    assert_eq!(certifier.version(), Version(2));
}
