//! A census of the process's threads, from `/proc/self/task/*/comm`:
//! `NetServer::start` adds one thread, the reactor, and every request a
//! client sends runs on the reactor or on a replica thread, so there is no
//! admin pool and no load-balancer thread to find; certification runs on no
//! thread of its own in process (the replica threads certify), and behind a
//! certifier service on the link's one thread alone. Alone in their
//! file, one at a time, so that no other test's server shares the process.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Value};
use bargain_net::{
    bootstrap_engine, BootstrapConfig, CertifierServer, CertifierServerConfig, NetServer,
    RemoteCertifierLink, RemoteSession,
};
use bargain_workloads::{MicroBenchmark, Workload};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held for a whole census: every thread a test starts is joined before it
/// lets go.
fn alone() -> MutexGuard<'static, ()> {
    static CENSUS: Mutex<()> = Mutex::new(());
    CENSUS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// This thread's name as the kernel keeps it: cut to 15 bytes.
fn my_name() -> String {
    let name = std::thread::current().name().unwrap_or_default().to_owned();
    name.chars().take(15).collect()
}

/// The name of every thread of this process, once every thread this one
/// spawned has named itself: a new thread carries its spawner's name until
/// it sets its own. One still carrying this thread's name after 5 s is
/// unnamed, and stays in the census under that name.
fn threads() -> Vec<String> {
    let me = my_name();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut names = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
            let dir = task.expect("task entry").path();
            // A thread may exit between the listing and the read.
            if let Ok(comm) = std::fs::read_to_string(dir.join("comm")) {
                names.push(comm.trim_end().to_owned());
            }
        }
        if names.iter().filter(|n| **n == me).count() <= 1 || Instant::now() > deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The threads this test and what it runs started between two censuses,
/// sorted by name: the `bargain-*` ones, and unnamed ones, which carry this
/// thread's name. The harness's threads for the other tests are neither.
fn added(before: &[String], after: &[String]) -> Vec<String> {
    let me = my_name();
    let mut left: Vec<&String> = before.iter().collect();
    let mut added: Vec<String> = Vec::new();
    for name in after {
        match left.iter().position(|n| *n == name) {
            Some(i) => {
                left.swap_remove(i);
            }
            None if name.starts_with("bargain") || *name == me => added.push(name.clone()),
            None => {}
        }
    }
    added.sort();
    added
}

fn micro_cluster(update_ratio: f64) -> Cluster {
    let workload = MicroBenchmark::small(update_ratio);
    Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
    )
}

#[test]
fn net_server_start_adds_one_thread_the_reactor() {
    let _alone = alone();
    let cluster = micro_cluster(0.0);
    let before = threads();
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let census = threads();
    server.stop();
    assert_eq!(added(&before, &census), ["bargain-net-rea"], "{census:?}");
}

/// After a session has sent every request there is but `Hello`, `Ping` and
/// `StopServer` — `OpenSession`, `Prepare`, `Stats`, `Ddl`, `Run`s, and a
/// bootstrap's `JoinRequest` and `FetchHistory` — the process runs the reactor,
/// the replicas and the client, and nothing else.
#[test]
fn every_request_runs_on_the_reactor_or_a_replica_thread() {
    let _alone = alone();
    let before = threads();
    let server = NetServer::start("127.0.0.1:0", micro_cluster(0.0)).unwrap();
    let addr = server.local_addr().to_string();
    let mut session = RemoteSession::connect(&addr).unwrap();
    let read = session
        .prepare("get", &["SELECT val FROM bench0 WHERE pk = ?"])
        .unwrap();
    session.stats().unwrap();
    session
        .execute_ddl("CREATE TABLE extra (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for key in 0..500 {
        let (outcome, _) = session
            .run(read, vec![vec![Value::Int(key % 50 + 1)]])
            .unwrap();
        assert!(outcome.committed);
    }
    let booted = bootstrap_engine(&[addr], &BootstrapConfig::default()).unwrap();
    assert!(booted.engine.catalog().resolve("extra").is_ok());

    let census = threads();
    drop(session);
    server.stop();
    let expected = [
        "bargain-net-rea",
        "bargain-replica",
        "bargain-replica",
        "bargain-replica",
    ];
    assert_eq!(added(&before, &census), expected, "{census:?}");
}

/// Behind a certifier service the link's one thread is the cluster's only
/// certification thread: it reads, and hands each delivery to its replica
/// itself, while the replica threads write their own requests.
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
    // thread behind to fail the other tests too.
    drop(session);
    server.stop();
    certifier.stop();
    let named = |prefix: &str| census.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(named("bargain-certlin"), 1, "{census:?}");
    assert_eq!(named("bargain-certdis"), 0, "{census:?}");
    // The service's loop; no certifier thread runs in the cluster.
    assert_eq!(named("bargain-certifi"), 1, "{census:?}");
    assert_eq!(named("bargain-replica"), 3, "{census:?}");
    assert_eq!(named("bargain-net-wor"), 0, "{census:?}");
}
