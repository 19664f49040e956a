//! A replica that runs no transaction may put off applying refreshes, but
//! not past the next transaction it gets, and not at all where a commit
//! waits on it. One session's updates all run on replica 0 (least
//! connections breaks ties by replica order), so replicas 1 and 2 only
//! ever receive refreshes: they must still hold every write once the
//! origin is gone, and under Eager they must apply each one promptly,
//! because the global commit needs every replica's acknowledgement.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, ReplicaId, Row, Value, Version};
use bargain_storage::DEFAULT_CHUNK_BYTES;
use std::sync::mpsc;
use std::time::Duration;

fn kv_cluster(mode: ConsistencyMode) -> Cluster {
    let cluster = Cluster::start(ClusterConfig {
        replicas: 3,
        mode,
        ..ClusterConfig::default()
    });
    cluster
        .execute_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
        .unwrap();
    cluster
}

#[test]
fn idle_replicas_hold_every_write_once_the_origin_is_gone() {
    const UPDATES: i64 = 150;
    for mode in [ConsistencyMode::LazyCoarse, ConsistencyMode::LazyFine] {
        let cluster = kv_cluster(mode);
        let mut writer = cluster.connect();
        for k in 0..UPDATES {
            let (outcome, _) = writer
                .run_sql(&[(
                    "INSERT INTO kv (k, v) VALUES (?, ?)",
                    vec![Value::Int(k), Value::Int(7 * k)],
                )])
                .unwrap();
            assert_eq!(outcome.replica, ReplicaId(0), "{mode}: update {k}");
        }
        assert_eq!(
            cluster.stats().unwrap().v_system,
            Version(UPDATES as u64),
            "{mode}"
        );

        // Every commit is durable at the certifier, so the origin can go;
        // what it wrote now lives only in the refreshes sent to 1 and 2.
        cluster.decommission_replica(ReplicaId(0)).unwrap();

        // A snapshot is taken on an idle donor's thread after every
        // refresh queued ahead of the request.
        let snapshot = cluster.export_snapshot(DEFAULT_CHUNK_BYTES).unwrap();
        assert_eq!(snapshot.manifest.version, Version(UPDATES as u64), "{mode}");

        let mut reader = cluster.connect();
        for k in 0..UPDATES {
            let (outcome, results) = reader
                .run_sql(&[("SELECT v FROM kv WHERE k = ?", vec![Value::Int(k)])])
                .unwrap();
            assert_ne!(outcome.replica, ReplicaId(0), "{mode}");
            let rows = results[0].rows().unwrap();
            assert_eq!(rows, [Row::from([Value::Int(7 * k)])], "{mode}: key {k}");
        }
        let (_, results) = reader.run_sql(&[("SELECT k FROM kv", vec![])]).unwrap();
        assert_eq!(results[0].rows().unwrap().len(), UPDATES as usize, "{mode}");
        assert_eq!(
            cluster.stats().unwrap().v_system,
            Version(UPDATES as u64),
            "{mode}"
        );
        cluster.shutdown();
    }
}

#[test]
fn eager_commits_do_not_wait_on_an_idle_replica() {
    const UPDATES: i64 = 200;
    let cluster = kv_cluster(ConsistencyMode::Eager);
    let mut writer = cluster.connect();
    let (done_tx, done) = mpsc::channel();
    let load = std::thread::spawn(move || {
        for k in 0..UPDATES {
            let result = writer.run_sql(&[(
                "INSERT INTO kv (k, v) VALUES (?, ?)",
                vec![Value::Int(k), Value::Int(k)],
            )]);
            if let Err(e) = result {
                let _ = done_tx.send(Err(format!("update {k}: {e}")));
                return;
            }
        }
        let _ = done_tx.send(Ok(()));
    });
    match done.recv_timeout(Duration::from_secs(10)) {
        Ok(result) => result.unwrap(),
        Err(_) => panic!("{UPDATES} eager updates did not finish in 10 s"),
    }
    load.join().unwrap();
    assert_eq!(cluster.stats().unwrap().v_system, Version(UPDATES as u64));
    cluster.shutdown();
}
