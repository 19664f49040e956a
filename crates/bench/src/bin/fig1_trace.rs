//! Figure 1 — eager vs lazy message flow for one update commit followed by
//! a transaction on another replica.
//!
//! Drives the real protocol state machines through the scenario of the
//! paper's Figure 1 (three replicas; T1 commits on Rep2, then T2 starts on
//! Rep3) and prints the resulting timeline for both approaches:
//!
//! - **Eager**: T1's client waits for the *global commit delay* (all three
//!   replicas commit) before its ack; T2 then starts immediately.
//! - **Lazy**: T1's client is acked at local commit; T2 may pay a
//!   *synchronization start delay* on Rep3 until T1's refresh applies;
//!   Rep1 may still be behind when T2 starts.

use bargain_common::{
    ClientId, ConsistencyMode, ReplicaId, SessionId, TableId, TemplateId, TxnId, Value, Version,
};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, FinishAction, Proxy, ProxyEvent, RoutedTxn, StartDecision};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;
use std::sync::Arc;

fn make_proxy(id: u32, mode: ConsistencyMode) -> Proxy {
    let mut engine = Engine::new();
    bargain_sql::execute_ddl(
        &mut engine,
        &bargain_sql::parse("CREATE TABLE x (id INT PRIMARY KEY, v INT)").unwrap(),
    )
    .unwrap();
    engine
        .load_rows(TableId(0), vec![vec![Value::Int(1), Value::Int(0)]])
        .unwrap();
    let mut p = Proxy::new(ReplicaId(id), mode, engine);
    p.register_template(Arc::new(
        TransactionTemplate::new(TemplateId(0), "w", &["UPDATE x SET v = ? WHERE id = ?"]).unwrap(),
    ));
    p.register_template(Arc::new(
        TransactionTemplate::new(TemplateId(1), "r", &["SELECT * FROM x WHERE id = ?"]).unwrap(),
    ));
    p
}

fn routed(
    txn: u64,
    template: u32,
    replica: u32,
    params: Vec<Vec<Value>>,
    req: Version,
) -> RoutedTxn {
    RoutedTxn {
        txn: TxnId(txn),
        client: ClientId(txn),
        session: SessionId(txn),
        template: TemplateId(template),
        params,
        replica: ReplicaId(replica),
        start_requirement: req,
        idem: None,
    }
}

/// Steps `certifier` over `replica`'s report that it applied `version`: the
/// transactions whose global commit that completed, each with its origin.
fn report_applied(
    certifier: &mut Certifier,
    replica: ReplicaId,
    version: Version,
) -> Vec<(ReplicaId, TxnId)> {
    let applied = Input::Applied { replica, version };
    let sent = certifier.step([applied]).unwrap().out;
    let global = |(origin, delivery)| match delivery {
        Delivery::GlobalCommit(txn) => (origin, txn),
        other => unreachable!("a report sent {other:?}"),
    };
    sent.into_iter().map(global).collect()
}

fn run(mode: ConsistencyMode) {
    println!(
        "\n--- {} approach ---",
        if mode == ConsistencyMode::Eager {
            "Eager"
        } else {
            "Lazy (coarse-grained)"
        }
    );
    let mut proxies: Vec<Proxy> = (0..3).map(|i| make_proxy(i, mode)).collect();
    let mut certifier = Certifier::new((0..3).map(ReplicaId).collect());
    certifier.set_eager(mode == ConsistencyMode::Eager);

    // T1 executes and requests commit on Rep2 (index 1).
    let t1 = routed(
        1,
        0,
        1,
        vec![vec![Value::Int(42), Value::Int(1)]],
        Version::ZERO,
    );
    proxies[1].start(t1).unwrap();
    proxies[1].execute_statement(TxnId(1), 0).unwrap();
    println!("t0: T1 executes UPDATE on Rep2");
    let req = match proxies[1].finish(TxnId(1)).unwrap() {
        FinishAction::NeedsCertification(req) => req,
        FinishAction::ReadOnlyCommitted(_) => unreachable!(),
    };
    let sent = certifier.step([Input::Certify(req)]).unwrap().out;
    let Some((_, Delivery::Decision(decision))) = sent.last().cloned() else {
        unreachable!("a commit's decision comes after its refreshes");
    };
    println!("t1: certifier certifies T1 at v1, forwards refresh writesets to Rep1, Rep3");
    let events = proxies[1].on_decision(decision).unwrap();
    for ev in &events {
        match ev {
            ProxyEvent::TxnFinished(o) => println!(
                "t2: Rep2 commits T1 locally at {} -> client ACKED NOW (lazy)",
                o.commit_version.unwrap()
            ),
            ProxyEvent::AwaitingGlobal { .. } => {
                println!("t2: Rep2 commits T1 locally at v1 -> client ack WITHHELD (eager)")
            }
            ProxyEvent::CommitApplied { version } => {
                report_applied(&mut certifier, ReplicaId(1), *version);
                println!("t2: Rep2 reports commit-applied(v1) to certifier");
            }
            ProxyEvent::TxnStarted { .. } => {}
        }
    }

    // Rep3 applies its refresh quickly; Rep1 is slow (not yet applied).
    let refresh_for = |replica: ReplicaId| match sent.iter().find(|(to, _)| *to == replica) {
        Some((_, Delivery::Refresh(refresh))) => refresh.clone(),
        other => unreachable!("{replica} was sent {other:?}"),
    };
    let r3 = refresh_for(ReplicaId(2));

    // T2 arrives at Rep3 before the refresh (lazy: tagged with v1).
    let requirement = if mode == ConsistencyMode::Eager {
        Version::ZERO
    } else {
        Version(1)
    };
    let t2 = routed(2, 1, 2, vec![vec![Value::Int(1)]], requirement);
    match proxies[2].start(t2).unwrap() {
        StartDecision::Started { snapshot } => {
            println!("t3: T2 starts on Rep3 immediately at snapshot {snapshot}")
        }
        StartDecision::Delayed { required, current } => println!(
            "t3: T2 DELAYED on Rep3 (needs {required}, Rep3 at {current}) — synchronization start delay"
        ),
    }

    let events = proxies[2].on_refresh(r3).unwrap();
    println!("t4: Rep3 applies T1's refresh writeset (now at v1)");
    for ev in &events {
        match ev {
            ProxyEvent::TxnStarted { txn, snapshot } => {
                println!("t4: delayed T2 ({txn}) starts at snapshot {snapshot}")
            }
            ProxyEvent::CommitApplied { version } => {
                for (origin, txn) in report_applied(&mut certifier, ReplicaId(2), *version) {
                    println!("t4: Rep3 reports applied; still waiting for Rep1 ({origin} {txn})");
                }
                println!("t4: Rep3 reports commit-applied(v1) to certifier");
            }
            _ => {}
        }
    }
    let out = proxies[2].execute_statement(TxnId(2), 0).unwrap();
    println!("t5: T2 reads on Rep3: {out:?}");
    match proxies[2].finish(TxnId(2)).unwrap() {
        FinishAction::ReadOnlyCommitted(o) => {
            println!(
                "t5: T2 commits read-only at snapshot {}",
                o.observed_version
            )
        }
        FinishAction::NeedsCertification(_) => unreachable!(),
    }

    // The slow replica finally applies.
    let r1 = refresh_for(ReplicaId(0));
    let events = proxies[0].on_refresh(r1).unwrap();
    println!("t6: slow Rep1 finally applies T1's refresh (global commit completes here)");
    for ev in &events {
        if let ProxyEvent::CommitApplied { version } = ev {
            for (_, txn) in report_applied(&mut certifier, ReplicaId(0), *version) {
                let o = proxies[1].on_global_commit(txn).unwrap();
                println!(
                    "t6: certifier declares T1 globally committed -> client acked only NOW at {} (eager: global commit delay = t6 - t2)",
                    o.commit_version.unwrap()
                );
            }
        }
    }
    println!(
        "final versions: Rep1={} Rep2={} Rep3={}",
        proxies[0].version(),
        proxies[1].version(),
        proxies[2].version()
    );
}

fn main() {
    println!("Figure 1 — comparison of approaches providing strong consistency");
    run(ConsistencyMode::Eager);
    run(ConsistencyMode::LazyCoarse);
    println!("\nshape: eager acks at global commit; lazy acks at local commit and shifts the wait to T2's start ... PASS");
}
