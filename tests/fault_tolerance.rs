//! Fault-tolerance integration tests: certifier crash-recovery from its
//! write-ahead log and replica state reconstruction from certified history
//! (the crash-recovery failure model of paper §IV).

use bargain::common::{ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain::core::certifier::{Delivery, Input};
use bargain::core::{Certifier, CertifyDecision, CertifyRequest, CommitLog, FileLog, MemoryLog};
use bargain::sql::{execute_ddl, parse};
use bargain::storage::Engine;

fn ws(key: i64, val: i64) -> WriteSet {
    let mut w = WriteSet::new();
    w.push(
        TableId(0),
        Value::Int(key),
        WriteOp::Update(vec![Value::Int(key), Value::Int(val)]),
    );
    w
}

fn req(txn: u64, snapshot: Version, w: WriteSet) -> CertifyRequest {
    CertifyRequest {
        txn: TxnId(txn),
        replica: ReplicaId(0),
        snapshot,
        writeset: w,
        idem: None,
    }
}

/// Steps `certifier` over `inputs` and returns what it sent, each with its
/// addressee.
fn step(
    certifier: &mut Certifier,
    inputs: impl IntoIterator<Item = Input>,
) -> Vec<(ReplicaId, Delivery)> {
    certifier.step(inputs).expect("the log flushes").out
}

/// Steps `certifier` over one request and returns the decision sent to its
/// origin, after checking that a commit's refreshes went to every other
/// replica and that nothing else was sent.
fn certify(certifier: &mut Certifier, req: CertifyRequest) -> CertifyDecision {
    let mut out = step(certifier, [Input::Certify(req)]);
    let Some((ReplicaId(0), Delivery::Decision(decision))) = out.pop() else {
        panic!("the step ends with no decision to replica 0: {out:?}");
    };
    let refreshed: Vec<_> = out
        .iter()
        .map(|(to, delivery)| (*to, matches!(delivery, Delivery::Refresh(_))))
        .collect();
    let committed = matches!(decision, CertifyDecision::Commit { .. });
    assert_eq!(
        refreshed,
        if committed {
            vec![(ReplicaId(1), true)]
        } else {
            vec![]
        }
    );
    decision
}

/// Steps `certifier` over one eager report and returns the global commits
/// it completed, each with its addressee.
fn report(certifier: &mut Certifier, input: Input) -> Vec<(ReplicaId, TxnId)> {
    step(certifier, [input])
        .into_iter()
        .map(|(to, delivery)| match delivery {
            Delivery::GlobalCommit(txn) => (to, txn),
            other => panic!("a report sent {other:?}"),
        })
        .collect()
}

#[test]
fn certifier_recovers_from_file_log_after_crash() {
    let dir = std::env::temp_dir().join(format!("bargain-ft-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("certifier-crash.wal");
    let _ = std::fs::remove_file(&path);

    // First life: certify 20 transactions, then "crash" (drop everything).
    {
        let log = FileLog::open(&path).unwrap();
        let mut certifier = Certifier::with_log(vec![ReplicaId(0), ReplicaId(1)], Box::new(log));
        for i in 0..20u64 {
            let snapshot = certifier.version();
            let d = certify(&mut certifier, req(i, snapshot, ws(i as i64, 1)));
            assert!(matches!(d, CertifyDecision::Commit { .. }));
        }
        assert_eq!(certifier.version(), Version(20));
    }

    // Second life: recover from the log.
    let log = FileLog::open(&path).unwrap();
    let mut certifier = Certifier::with_log(vec![ReplicaId(0), ReplicaId(1)], Box::new(log));
    let recovered = certifier.recover().unwrap();
    assert_eq!(recovered, 20);
    assert_eq!(certifier.version(), Version(20));

    // Conflict detection works against recovered history: a transaction
    // whose snapshot predates a recovered commit on the same row aborts.
    let d = certify(&mut certifier, req(100, Version(5), ws(7, 9)));
    assert!(
        matches!(d, CertifyDecision::Abort { .. }),
        "recovered history must still catch conflicts"
    );
    // And fresh disjoint work commits, continuing the version sequence.
    let d = certify(&mut certifier, req(101, Version(20), ws(999, 1)));
    assert_eq!(
        d,
        CertifyDecision::Commit {
            txn: TxnId(101),
            commit_version: Version(21)
        }
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crashed_replica_rebuilds_from_certified_history() {
    // A recovering (or newly provisioned) replica replays the certifier's
    // log as refresh transactions and converges to the same state as a
    // replica that was up the whole time.
    let mut log = MemoryLog::new();
    let mut certifier =
        Certifier::with_log(vec![ReplicaId(0), ReplicaId(1)], Box::new(MemoryLog::new()));

    let make_engine = || {
        let mut e = Engine::new();
        execute_ddl(
            &mut e,
            &parse("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap(),
        )
        .unwrap();
        e.load_rows(
            TableId(0),
            (0..50i64)
                .map(|i| vec![Value::Int(i), Value::Int(0)])
                .collect(),
        )
        .unwrap();
        e
    };
    let mut live = make_engine();

    // 50 committed updates applied at the live replica and logged.
    for i in 0..50u64 {
        let snapshot = certifier.version();
        let d = certify(
            &mut certifier,
            req(i, snapshot, ws((i % 50) as i64, i as i64)),
        );
        let CertifyDecision::Commit { commit_version, .. } = d else {
            panic!("expected commit");
        };
        let w = ws((i % 50) as i64, i as i64);
        live.apply_refresh(&w, commit_version).unwrap();
        log.append(&bargain::core::LogRecord {
            commit_version,
            txn: TxnId(i),
            origin: ReplicaId(0),
            idem: None,
            writeset: std::sync::Arc::new(w),
        })
        .unwrap();
    }

    // The crashed replica comes back empty and replays the log.
    let mut recovering = make_engine();
    for record in log.replay().unwrap() {
        recovering
            .apply_refresh(record.writeset.as_ref(), record.commit_version)
            .unwrap();
    }

    assert_eq!(recovering.version(), live.version());
    // Byte-for-byte state agreement on every row.
    let t = TableId(0);
    let txn_a = live.begin();
    let txn_b = recovering.begin();
    let rows_a = live.scan(txn_a, t).unwrap();
    let rows_b = recovering.scan(txn_b, t).unwrap();
    assert_eq!(rows_a, rows_b);
}

#[test]
fn eager_counters_rebuild_conservatively_on_recovery() {
    // Global-commit accounting is rebuilt from the log with zero applied
    // credits: recovery cannot know which replicas already applied a
    // version, so each surviving replica re-reports its V_local (a
    // "hello"), and origins must tolerate duplicate global-commit
    // notifications.
    let mut certifier = Certifier::new(vec![ReplicaId(0), ReplicaId(1)]);
    certifier.set_eager(true);
    let d = certify(&mut certifier, req(1, Version::ZERO, ws(1, 1)));
    let CertifyDecision::Commit { commit_version, .. } = d else {
        panic!("expected commit");
    };
    // Both replicas applied v1 and the global commit completed pre-crash.
    let applied = |replica| Input::Applied {
        replica,
        version: commit_version,
    };
    assert!(report(&mut certifier, applied(ReplicaId(0))).is_empty());
    assert_eq!(
        report(&mut certifier, applied(ReplicaId(1))),
        [(ReplicaId(0), TxnId(1))]
    );
    // Crash + recovery: the pending counter is rebuilt at zero credits.
    certifier.recover().unwrap();
    // Hellos from the (already current) replicas re-complete it; the
    // duplicate notification for the origin is re-issued and the origin's
    // proxy drops it.
    let hello = |replica| Input::Hello {
        replica,
        v_local: commit_version,
    };
    assert!(report(&mut certifier, hello(ReplicaId(0))).is_empty());
    assert_eq!(
        report(&mut certifier, hello(ReplicaId(1))),
        [(ReplicaId(0), TxnId(1))]
    );
}
