//! The certifier service learns the replica set and the consistency mode
//! from the cluster it serves, not from a configuration of its own: a
//! cluster whose membership or mode differs from the service's defaults
//! still commits behind it.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{
    ConsistencyMode, Error, ReplicaId, Result, TableId, TxnId, Value, Version, WriteOp, WriteSet,
};
use bargain_core::CertifyRequest;
use bargain_net::{
    CertifierServer, CertifierServerConfig, ConnectPolicy, Connection, Message, RemoteCertifierLink,
};
use bargain_storage::Engine;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn table(engine: &mut Engine) -> Result<()> {
    bargain_sql::execute_ddl(
        engine,
        &bargain_sql::parse("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)")?,
    )
}

/// An Eager commit completes only once every member applied it, so a
/// service that counts a replica the cluster lacks, or keeps no eager
/// accounting at all, never completes one.
#[test]
fn a_two_replica_eager_cluster_commits_behind_a_default_certifier_service() {
    let service = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
    let link = RemoteCertifierLink::connect(&service.local_addr().to_string()).unwrap();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::Eager,
            ..ClusterConfig::default()
        },
        table,
        Box::new(link),
    );
    let mut session = cluster.connect();
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let insert = "INSERT INTO t (id, v) VALUES (?, ?)";
        let _ = done.send(session.run_sql(&[(insert, vec![Value::Int(1), Value::Int(1)])]));
    });
    let (outcome, _) = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the insert is answered within 10 s")
        .unwrap();
    assert!(outcome.committed, "{:?}", outcome.abort_reason);
    cluster.shutdown();
    service.stop();
}

fn introduction(replicas: u32) -> Message {
    Message::HelloAck {
        replicas,
        mode: ConsistencyMode::Eager,
    }
}

/// Sends `msgs`, then a ping, and returns every frame pushed before the
/// pong: the service answers frames in arrival order.
fn exchange(conn: &mut Connection, msgs: &[Message]) -> Vec<Message> {
    for msg in msgs {
        conn.send(msg).unwrap();
    }
    let ping = conn.next_request_id();
    conn.send_with_id(ping, &Message::Ping).unwrap();
    let mut pushed = Vec::new();
    loop {
        match conn.recv_tagged().unwrap() {
            (id, Message::Pong) if id == ping => return pushed,
            (_, msg) => pushed.push(msg),
        }
    }
}

/// A reconnecting cluster introduces itself again. The same introduction
/// changes nothing, so the credit an `Applied` gave before it still counts;
/// a different one is refused with the connection.
#[test]
fn a_repeated_introduction_keeps_eager_credit_and_a_different_one_is_refused() {
    let service = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
    let addr = service.local_addr().to_string();
    let connect = || Connection::connect(&addr, &ConnectPolicy::default()).unwrap();
    let applied = |replica| Message::Applied {
        replica: ReplicaId(replica),
        version: Version(1),
    };

    let mut first = connect();
    let mut writeset = WriteSet::new();
    writeset.push(TableId(0), Value::Int(1), WriteOp::Delete);
    let certify = Message::Certify(CertifyRequest {
        txn: TxnId(7),
        replica: ReplicaId(0),
        snapshot: Version::ZERO,
        writeset: Arc::new(writeset),
        idem: None,
    });
    let pushed = exchange(&mut first, &[introduction(2), certify, applied(0)]);
    assert_eq!(pushed.len(), 2, "one refresh and the decision: {pushed:?}");
    drop(first);

    let mut differing = connect();
    differing.send(&introduction(3)).unwrap();
    let reply = differing.recv();
    assert!(
        matches!(reply, Ok(Message::Err(Error::Protocol(_)))),
        "{reply:?}"
    );

    let mut again = connect();
    assert_eq!(
        exchange(&mut again, &[introduction(2), applied(1)]),
        [Message::GlobalCommitFor {
            origin: ReplicaId(0),
            txn: TxnId(7),
        }]
    );
    service.stop();
}
