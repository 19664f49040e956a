//! Online elasticity integration tests: replicas join a live cluster via
//! snapshot-ship bootstrap and leave via per-replica drain, with real
//! threads, real channels, and real traffic in flight.

use bargain_cluster::{Cluster, ClusterConfig, JoinOptions};
use bargain_common::{ConsistencyMode, Error, ReplicaId, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn accounts_cluster(replicas: usize, mode: ConsistencyMode) -> Cluster {
    let cluster = Cluster::start(ClusterConfig {
        replicas,
        mode,
        ..ClusterConfig::default()
    });
    cluster
        .execute_ddl("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL)")
        .unwrap();
    let mut s = cluster.connect();
    for i in 1..=10 {
        s.run_sql(&[(
            "INSERT INTO accounts (id, balance) VALUES (?, ?)",
            vec![Value::Int(i), Value::Int(100)],
        )])
        .unwrap();
    }
    cluster
}

#[test]
fn replica_joins_and_becomes_the_sole_survivor() {
    // The strongest data-integrity check available: join a replica, then
    // decommission every original one. All subsequent reads are served by
    // the joiner alone — its snapshot+catch-up state must be complete.
    for mode in [
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Eager,
        ConsistencyMode::Session,
    ] {
        let cluster = accounts_cluster(3, mode);
        let mut s = cluster.connect();
        s.run_sql_with_retry(
            &[(
                "UPDATE accounts SET balance = ? WHERE id = ?",
                vec![Value::Int(777), Value::Int(5)],
            )],
            8,
        )
        .unwrap();

        let joiner = cluster.join_replica(&JoinOptions::default()).unwrap();
        assert_eq!(joiner, ReplicaId(3), "{mode}");
        assert_eq!(cluster.replicas(), 4, "{mode}");

        for r in 0..3u32 {
            cluster.decommission_replica(ReplicaId(r)).unwrap();
        }
        assert_eq!(cluster.replicas(), 1, "{mode}");

        // Pre-join state (snapshot) and post-join writes both visible.
        let (_, results) = s
            .run_sql(&[(
                "SELECT balance FROM accounts WHERE id = ?",
                vec![Value::Int(5)],
            )])
            .unwrap();
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(777), "{mode}");

        // The joiner also takes writes.
        s.run_sql_with_retry(
            &[(
                "UPDATE accounts SET balance = ? WHERE id = ?",
                vec![Value::Int(888), Value::Int(6)],
            )],
            8,
        )
        .unwrap();
        let (_, results) = s
            .run_sql(&[(
                "SELECT balance FROM accounts WHERE id = ?",
                vec![Value::Int(6)],
            )])
            .unwrap();
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(888), "{mode}");
        cluster.shutdown();
    }
}

#[test]
fn replica_joins_under_live_write_traffic() {
    // Counter-increment writers hammer the cluster while a replica joins;
    // every acknowledged commit must survive, and the joiner must serve
    // reads after admission.
    for mode in [ConsistencyMode::LazyFine, ConsistencyMode::Eager] {
        let cluster = Arc::new(accounts_cluster(3, mode));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut s = cluster.connect();
                let mut committed = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    s.run_sql_with_retry(
                        &[(
                            "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
                            vec![Value::Int(1)],
                        )],
                        10_000,
                    )
                    .unwrap();
                    committed += 1;
                }
                committed
            }));
        }

        // Join mid-traffic.
        let joiner = cluster.join_replica(&JoinOptions::default()).unwrap();
        assert_eq!(joiner, ReplicaId(3), "{mode}");

        // Let traffic run a little on the grown cluster, then stop.
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let total: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert!(total > 0);

        // Decommission the originals so the counter read below can only be
        // served by the joiner: zero lost acked commits, end to end.
        for r in 0..3u32 {
            cluster.decommission_replica(ReplicaId(r)).unwrap();
        }
        let mut s = cluster.connect();
        let (_, results) = s
            .run_sql(&[(
                "SELECT balance FROM accounts WHERE id = ?",
                vec![Value::Int(1)],
            )])
            .unwrap();
        assert_eq!(
            results[0].rows().unwrap()[0][0],
            Value::Int(100 + total),
            "{mode}: joiner lost acked commits"
        );
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still shared"),
        }
    }
}

#[test]
fn loaded_decommission_loses_nothing() {
    // Writers in flight while a replica is drained and detached: every
    // acknowledged commit survives on the remaining replicas.
    let cluster = Arc::new(accounts_cluster(3, ConsistencyMode::LazyFine));
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for _ in 0..4 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut s = cluster.connect();
            let mut committed = 0i64;
            while !stop.load(Ordering::Relaxed) {
                s.run_sql_with_retry(
                    &[(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
                        vec![Value::Int(2)],
                    )],
                    10_000,
                )
                .unwrap();
                committed += 1;
            }
            committed
        }));
    }

    cluster.decommission_replica(ReplicaId(0)).unwrap();
    assert_eq!(cluster.replicas(), 2);

    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let total: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(total > 0);

    let mut s = cluster.connect();
    let (_, results) = s
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id = ?",
            vec![Value::Int(2)],
        )])
        .unwrap();
    assert_eq!(
        results[0].rows().unwrap()[0][0],
        Value::Int(100 + total),
        "decommission lost acked commits"
    );
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn eager_join_completes_pending_global_commits() {
    // Eager mode is the delicate join: pending commits at or below the
    // snapshot version must not wait for the joiner (it never replays
    // them), and commits above it must count the joiner's apply. Hammer
    // with eager writers across a join and require exact accounting.
    let cluster = Arc::new(accounts_cluster(2, ConsistencyMode::Eager));
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for t in 0..3 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut s = cluster.connect();
            let mut committed = 0i64;
            while !stop.load(Ordering::Relaxed) {
                s.run_sql_with_retry(
                    &[(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
                        vec![Value::Int(3 + t)],
                    )],
                    10_000,
                )
                .unwrap();
                committed += 1;
            }
            committed
        }));
    }
    let a = cluster.join_replica(&JoinOptions::default()).unwrap();
    let b = cluster.join_replica(&JoinOptions::default()).unwrap();
    assert_eq!((a, b), (ReplicaId(2), ReplicaId(3)));
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for j in joins {
        assert!(j.join().unwrap() > 0);
    }
    // Every writer's ack required all-replica application: the cluster is
    // not wedged and still serves strong reads.
    let mut s = cluster.connect();
    let (_, results) = s
        .run_sql(&[("SELECT COUNT(*) FROM accounts", vec![])])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(10));
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn decommission_refusals_are_classified() {
    let cluster = accounts_cluster(2, ConsistencyMode::LazyFine);
    // Unknown replica: a protocol error, not retryable.
    let err = cluster.decommission_replica(ReplicaId(9)).unwrap_err();
    assert!(matches!(err, Error::Protocol(_)), "{err}");
    // Draining down to one replica is allowed...
    cluster.decommission_replica(ReplicaId(0)).unwrap();
    // ...but removing the last routable replica is refused with the
    // retry-after class of error (Unavailable), not a protocol error.
    let err = cluster.decommission_replica(ReplicaId(1)).unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "{err}");
    assert!(err.to_string().contains("retry-after"), "{err}");
    // Decommissioning the same replica twice: unknown the second time.
    let err = cluster.decommission_replica(ReplicaId(0)).unwrap_err();
    assert!(matches!(err, Error::Protocol(_)), "{err}");
    cluster.shutdown();
}

#[test]
fn snapshot_and_history_helpers_serve_remote_bootstrap() {
    // The building blocks `bargain-net` ships over the wire: a consistent
    // snapshot from a donor plus the certified records above its version.
    let cluster = accounts_cluster(2, ConsistencyMode::LazyFine);
    let snapshot = cluster.export_snapshot(1024).unwrap();
    assert!(!snapshot.chunks.is_empty());
    snapshot
        .manifest
        .verify_chunk(0, &snapshot.chunks[0])
        .unwrap();

    // Writes after the snapshot appear in the history feed above V.
    let mut s = cluster.connect();
    s.run_sql_with_retry(
        &[(
            "UPDATE accounts SET balance = ? WHERE id = ?",
            vec![Value::Int(1), Value::Int(1)],
        )],
        8,
    )
    .unwrap();
    let records = cluster.certified_since(snapshot.manifest.version).unwrap();
    assert!(!records.is_empty());
    assert!(records
        .iter()
        .all(|r| r.commit_version > snapshot.manifest.version));
    cluster.shutdown();
}

#[test]
fn join_admission_respects_lag_bound_zero() {
    // lag_bound = 0 demands exact catch-up; on an idle cluster that is
    // immediate, and the joiner must then serve the freshest version.
    let cluster = accounts_cluster(2, ConsistencyMode::LazyCoarse);
    let opts = JoinOptions {
        lag_bound: 0,
        ..JoinOptions::default()
    };
    let joiner = cluster.join_replica(&opts).unwrap();
    assert_eq!(joiner, ReplicaId(2));
    assert_eq!(cluster.replicas(), 3);
    cluster.shutdown();
}

/// Starts `writers` sessions, each incrementing its own row in a closed
/// loop until `stop` is set or a transaction fails, and waits until every
/// one of them has committed a few times — so whatever the caller does
/// next finds all of them mid-transaction. Each thread returns its acked
/// commits and the error that ended its loop, if one did.
fn live_writers(
    cluster: &Cluster,
    writers: i64,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<(i64, Option<Error>)>> {
    let started = Arc::new(std::sync::Barrier::new(writers as usize + 1));
    let joins = (1..=writers)
        .map(|id| {
            let mut s = cluster.connect();
            let (started, stop) = (Arc::clone(&started), Arc::clone(stop));
            std::thread::spawn(move || {
                let mut acked = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    match s.run_sql(&[(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
                        vec![Value::Int(id)],
                    )]) {
                        Ok(_) => acked += 1,
                        Err(e) => {
                            if acked < 5 {
                                started.wait(); // fail the test, don't hang it
                            }
                            return (acked, Some(e));
                        }
                    }
                    if acked == 5 {
                        started.wait();
                    }
                }
                (acked, None)
            })
        })
        .collect();
    started.wait();
    joins
}

/// Asserts row `id` holds its initial 100 plus `acked` increments.
fn assert_balance(cluster: &Cluster, id: i64, acked: i64, what: &str) {
    let (_, results) = cluster
        .connect()
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id = ?",
            vec![Value::Int(id)],
        )])
        .unwrap();
    let balance = &results[0].rows().unwrap()[0][0];
    assert_eq!(*balance, Value::Int(100 + acked), "{what} (row {id})");
}

#[test]
fn drain_finishes_the_transactions_in_flight_and_refuses_the_rest() {
    // The certifier log is durable here so a second life can count what
    // the first one acknowledged.
    let dir = std::env::temp_dir().join(format!("bargain-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = || {
        Cluster::start_with_setup(
            ClusterConfig {
                replicas: 3,
                mode: ConsistencyMode::LazyFine,
                wal_dir: Some(dir.clone()),
                ..ClusterConfig::default()
            },
            |engine| {
                let ddl = "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL)";
                bargain_sql::execute_ddl(engine, &bargain_sql::parse(ddl)?)?;
                let accounts = engine.resolve_table("accounts")?;
                engine.load_rows(
                    accounts,
                    (1..=8)
                        .map(|i| vec![Value::Int(i), Value::Int(100)])
                        .collect(),
                )
            },
        )
    };

    let cluster = start();
    let writers = live_writers(&cluster, 8, &Arc::new(AtomicBool::new(false)));
    // Eight sessions are mid-transaction. `drain` returns only once every
    // thread of the cluster has been joined.
    cluster.drain();
    let mut acked = Vec::new();
    for w in writers {
        let (n, refusal) = w.join().unwrap();
        // A transaction in flight at the drain completed (never abandoned);
        // the first one submitted after it was refused as retryable.
        assert!(
            matches!(&refusal, Some(Error::Unavailable(why)) if why.contains("draining")),
            "a session's loop ended with {refusal:?}"
        );
        acked.push(n);
    }

    let cluster = start();
    for (i, n) in acked.iter().enumerate() {
        assert_balance(
            &cluster,
            i as i64 + 1,
            *n,
            "drain lost or invented a commit",
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decommissions_racing_eight_live_writers_lose_nothing() {
    // Routing and decommission meet at one lock instead of one thread's
    // queue: with eight writers submitting throughout, two replicas in a
    // row are drained and detached, no writer ever sees an error, and
    // every ack is in the surviving replica.
    let cluster = accounts_cluster(3, ConsistencyMode::LazyCoarse);
    let stop = Arc::new(AtomicBool::new(false));
    let writers = live_writers(&cluster, 8, &stop);
    cluster.decommission_replica(ReplicaId(1)).unwrap();
    cluster.decommission_replica(ReplicaId(0)).unwrap();
    assert_eq!(cluster.replicas(), 1);
    assert!(matches!(
        cluster.decommission_replica(ReplicaId(2)),
        Err(Error::Unavailable(_))
    ));
    stop.store(true, Ordering::Relaxed);
    for (i, w) in writers.into_iter().enumerate() {
        let (acked, failure) = w.join().unwrap();
        assert!(failure.is_none(), "writer {i} failed: {failure:?}");
        assert_balance(&cluster, i as i64 + 1, acked, "decommission lost an ack");
    }
    assert_eq!(cluster.stats().unwrap().aborts, 0);
    cluster.shutdown();
}
