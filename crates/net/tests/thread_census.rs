//! A census of the process's threads while a load runs, from
//! `/proc/self/task/*/{comm,schedstat}`: the per-transaction path is
//! reactor → replica → reactor, so there is no load-balancer thread to find
//! and the admin pool does not run; certification runs on no thread of its
//! own in process (the replica threads certify), and behind a certifier
//! service on the link's writer and reader alone. Alone in their file, one
//! at a time, so that no other test's server shares the process.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Value};
use bargain_net::{
    CertifierServer, CertifierServerConfig, NetServer, RemoteCertifierLink, RemoteSession,
};
use bargain_workloads::{MicroBenchmark, Workload};
use std::sync::{Mutex, MutexGuard};

/// Held for a whole census: every thread a test starts is joined before it
/// lets go.
fn alone() -> MutexGuard<'static, ()> {
    static CENSUS: Mutex<()> = Mutex::new(());
    CENSUS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(name, on-CPU nanoseconds)` of every thread of this process.
fn threads() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(schedstat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let on_cpu = schedstat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse().ok())
            .expect("schedstat starts with the on-CPU time");
        out.push((comm.trim_end().to_owned(), on_cpu));
    }
    out
}

fn pool_cpu_ns(threads: &[(String, u64)]) -> u64 {
    let pool = threads
        .iter()
        .filter(|(name, _)| name.starts_with("bargain-net-wor"));
    pool.map(|(_, ns)| ns).sum()
}

#[test]
fn reads_cross_no_load_balancer_thread_and_never_run_on_the_pool() {
    let _alone = alone();
    let workload = MicroBenchmark::small(0.0);
    let setup_workload = workload.clone();
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| setup_workload.install(engine),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let mut session = RemoteSession::connect(&server.local_addr().to_string()).unwrap();
    let read = session
        .prepare("get", &["SELECT val FROM bench0 WHERE pk = ?"])
        .unwrap();
    session.run(read, vec![vec![Value::Int(1)]]).unwrap();

    let before = threads();
    let named = |prefix: &str| before.iter().filter(|(n, _)| n.starts_with(prefix)).count();
    // The kernel cuts names to 15 bytes.
    assert_eq!(named("bargain-lb"), 0, "{before:?}");
    assert_eq!(named("bargain-net-rea"), 1, "{before:?}");
    assert_eq!(named("bargain-net-wor"), 2, "{before:?}");
    assert_eq!(named("bargain-replica"), 3, "{before:?}");
    assert_eq!(named("bargain-certifi"), 0, "{before:?}");

    for key in 0..500 {
        let (outcome, _) = session
            .run(read, vec![vec![Value::Int(key % 50 + 1)]])
            .unwrap();
        assert!(outcome.committed);
    }
    let pool_ns = pool_cpu_ns(&threads()) - pool_cpu_ns(&before);
    assert!(
        pool_ns < 1_000_000,
        "500 reads put {pool_ns} ns of CPU on the admin pool"
    );
    drop(session);
    server.stop();
}

/// Behind a certifier service the link's writer and reader are the
/// cluster's only certification threads: the reader hands each delivery to
/// its replica itself.
#[test]
fn the_split_deployment_certifies_on_the_link_threads_alone() {
    let _alone = alone();
    let workload = MicroBenchmark::small(1.0);
    let setup_workload = workload.clone();
    let certifier =
        CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
    let link = RemoteCertifierLink::connect(&certifier.local_addr().to_string()).unwrap();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| setup_workload.install(engine),
        Box::new(link),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let mut session = RemoteSession::connect(&server.local_addr().to_string()).unwrap();
    let update = session
        .prepare("set", &["UPDATE bench0 SET val = ? WHERE pk = ?"])
        .unwrap();
    for key in 1..=20 {
        let (outcome, _) = session
            .run(update, vec![vec![Value::Int(key), Value::Int(key)]])
            .unwrap();
        assert!(outcome.committed);
    }

    let census = threads();
    // Stopped before anything is asserted, so a failed census leaves no
    // thread behind to fail the other test too.
    drop(session);
    server.stop();
    certifier.stop();
    let named = |prefix: &str| census.iter().filter(|(n, _)| n.starts_with(prefix)).count();
    assert_eq!(named("bargain-certlin"), 2, "{census:?}");
    assert_eq!(named("bargain-certdis"), 0, "{census:?}");
    // The service's loop; no certifier thread runs in the cluster.
    assert_eq!(named("bargain-certifi"), 1, "{census:?}");
    assert_eq!(named("bargain-replica"), 3, "{census:?}");
}
