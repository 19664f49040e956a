//! The certification order oracle, held against whatever carries requests
//! from the replicas to the in-process certifier. A closed-loop load of
//! concurrent sessions, each updating a row of its own, must see every
//! update commit, the commit versions come out exactly 1..=N (no gap, no
//! duplicate), each session read its own previous write back, and the load
//! finish under a deadline, so a request stranded on its way to the
//! certifier or back fails the test instead of hanging it. Over a durable
//! log the same load must group-commit (fewer log flushes than
//! certifications), and a restart must replay all N commits.

use bargain_cluster::{Cluster, ClusterConfig, Session};
use bargain_common::{ConsistencyMode, Value, Version};
use bargain_workloads::{MicroBenchmark, Workload};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SESSIONS: i64 = 8;
const UPDATES: i64 = 300;
const N: u64 = (SESSIONS * UPDATES) as u64;
const DEADLINE: Duration = Duration::from_secs(120);

const READ: &str = "SELECT val FROM bench0 WHERE pk = ?";
const WRITE: &str = "UPDATE bench0 SET val = ? WHERE pk = ?";

fn start(mode: ConsistencyMode, wal_dir: Option<&Path>) -> Cluster {
    let workload = MicroBenchmark::small(1.0);
    Cluster::start_with_setup(
        ClusterConfig {
            replicas: REPLICAS,
            mode,
            wal_dir: wal_dir.map(Path::to_path_buf),
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
    )
}

/// Session `s` owns row `pk = s + 1`, which the workload loads with
/// `val = 7 * pk`, and sets it to 0, 1, …, `UPDATES - 1`, each transaction
/// first reading the value the session's previous one wrote. Returns the
/// commit versions.
fn own_row(mut session: Session, s: i64) -> Result<Vec<Version>, String> {
    let pk = s + 1;
    let mut last = 7 * pk;
    let mut versions = Vec::new();
    for i in 0..UPDATES {
        let (outcome, results) = session
            .run_sql(&[
                (READ, vec![Value::Int(pk)]),
                (WRITE, vec![Value::Int(i), Value::Int(pk)]),
            ])
            .map_err(|e| format!("session {s}, update {i}: {e}"))?;
        let read = results[0].rows().and_then(|rows| rows.first()?.first());
        if read != Some(&Value::Int(last)) {
            return Err(format!(
                "session {s}, update {i}: read {read:?}, its own last write was {last}"
            ));
        }
        let version = outcome
            .commit_version
            .ok_or_else(|| format!("session {s}, update {i}: committed with no version"))?;
        versions.push(version);
        last = i;
    }
    Ok(versions)
}

/// Runs every session on its own thread; panics unless all of them finish
/// by the deadline with every update committed and the versions dense.
fn run_load(cluster: &Cluster) {
    let (done_tx, done) = mpsc::channel();
    for s in 0..SESSIONS {
        let session = cluster.connect();
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(own_row(session, s));
        });
    }
    let deadline = Instant::now() + DEADLINE;
    let mut versions = Vec::new();
    for _ in 0..SESSIONS {
        let left = deadline.saturating_duration_since(Instant::now());
        match done.recv_timeout(left) {
            Ok(Ok(own)) => versions.extend(own),
            Ok(Err(why)) => panic!("{why}"),
            Err(_) => panic!("a session did not finish in {DEADLINE:?}: a request was stranded"),
        }
    }
    versions.sort_unstable();
    let dense: Vec<Version> = (1..=N).map(Version).collect();
    assert!(versions == dense, "commit versions are not exactly 1..={N}");
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.commits, N);
    assert_eq!(stats.certified, N);
    assert!(stats.certify_batches >= 1 && stats.certify_batches <= N);
}

#[test]
fn every_update_commits_once_in_a_dense_order_in_every_mode() {
    for mode in [
        ConsistencyMode::Eager,
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Session,
    ] {
        let cluster = start(mode, None);
        run_load(&cluster);
        cluster.shutdown();
    }
}

#[test]
fn a_durable_log_group_commits_and_a_restart_replays_every_commit() {
    let dir = std::env::temp_dir().join(format!("bargain-certify-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cluster = start(ConsistencyMode::LazyFine, Some(&dir));
    run_load(&cluster);
    let stats = cluster.stats().unwrap();
    assert!(
        stats.certify_batches < stats.certified,
        "{} certifications in {} log flushes: nothing was group-committed",
        stats.certified,
        stats.certify_batches
    );
    cluster.shutdown();

    let cluster = start(ConsistencyMode::LazyFine, Some(&dir));
    let replayed: Vec<Version> = cluster
        .certified_since(Version::ZERO)
        .unwrap()
        .iter()
        .map(|rec| rec.commit_version)
        .collect();
    assert!(
        replayed == (1..=N).map(Version).collect::<Vec<_>>(),
        "the restart replayed {} records, not 1..={N}",
        replayed.len()
    );
    let mut session = cluster.connect();
    for pk in 1..=SESSIONS {
        let (_, results) = session.run_sql(&[(READ, vec![Value::Int(pk)])]).unwrap();
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(UPDATES - 1));
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
