//! A replica's re-introduction over the certifier endpoint: after a link
//! loss the link writes each replica's `ReplicaHello` once it is back, and
//! after the certifier restarts over its log — every commit it recovers
//! pending again with no replica credited — those frames complete what
//! was pending. And what the link's history fetch reads ahead of the
//! history reaches the replicas.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{
    ConsistencyMode, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet,
};
use bargain_core::{CertifyDecision, CertifyRequest, Refresh};
use bargain_net::frame::{encode_frame, read_frame};
use bargain_net::{
    CertifierServer, CertifierServerConfig, ConnectPolicy, Connection, Message, RemoteCertifierLink,
};
use bargain_workloads::{MicroBenchmark, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn service(dir: &std::path::Path) -> (CertifierServer, Connection) {
    let service = CertifierServer::start(
        "127.0.0.1:0",
        CertifierServerConfig {
            wal_dir: Some(dir.to_path_buf()),
        },
    )
    .unwrap();
    let addr = service.local_addr().to_string();
    let mut conn = Connection::connect(&addr, &ConnectPolicy::default()).unwrap();
    let introduction = Message::HelloAck {
        replicas: 3,
        mode: ConsistencyMode::Eager,
    };
    conn.send(&introduction).unwrap();
    (service, conn)
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

fn hello(replica: u32) -> Message {
    Message::ReplicaHello {
        replica: ReplicaId(replica),
        v_local: Version(1),
    }
}

#[test]
fn after_a_certifier_restart_the_replicas_hello_completes_a_pending_eager_commit() {
    let dir = std::env::temp_dir().join(format!("bargain-net-hello-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Replica 0 commits v1; replicas 0 and 1 report it applied, replica 2's
    // report never arrives.
    let (first, mut conn) = service(&dir);
    let mut writeset = WriteSet::new();
    writeset.push(
        TableId(0),
        Value::Int(1),
        WriteOp::Insert(vec![Value::Int(1)]),
    );
    let certify = Message::Certify(CertifyRequest {
        txn: TxnId(7),
        replica: ReplicaId(0),
        snapshot: Version::ZERO,
        writeset,
        idem: None,
    });
    let pushed = exchange(&mut conn, &[certify]);
    assert!(
        pushed.iter().any(|msg| matches!(
            msg,
            Message::Decision {
                decision: CertifyDecision::Commit { .. },
                ..
            }
        )),
        "{pushed:?}"
    );
    let applied = |replica| Message::Applied {
        replica: ReplicaId(replica),
        version: Version(1),
    };
    assert_eq!(exchange(&mut conn, &[applied(0), applied(1)]), []);
    drop(conn);
    first.stop();

    // The restarted certifier credits nobody until each replica says hello.
    let (second, mut conn) = service(&dir);
    assert_eq!(exchange(&mut conn, &[hello(0), hello(1)]), []);
    assert_eq!(
        exchange(&mut conn, &[hello(2)]),
        [Message::GlobalCommitFor {
            origin: ReplicaId(0),
            txn: TxnId(7),
        }]
    );
    // A hello repeated is no second global commit.
    assert_eq!(exchange(&mut conn, &[hello(2)]), []);
    drop(conn);
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads `stream` until a `FetchHistory` arrives, answers it with an empty
/// history, and returns the frames read before it.
fn answer_history(stream: &mut TcpStream) -> Vec<Message> {
    let mut before = Vec::new();
    loop {
        let (kind, id, payload) = read_frame(stream).unwrap();
        match Message::decode(kind, &payload).unwrap() {
            Message::FetchHistory { .. } => {
                let reply = Message::History {
                    records: Vec::new(),
                };
                let frame = encode_frame(reply.kind(), id, &reply.encode()).unwrap();
                stream.write_all(&frame).unwrap();
                return before;
            }
            msg => before.push(msg),
        }
    }
}

/// A fake certifier service drops the link's first connection once it has
/// served the start's history fetch. When the link is back and has fetched
/// the history again, every replica's hello follows, with its `V_local`.
#[test]
fn a_link_that_comes_back_writes_each_replicas_hello() {
    const REPLICAS: u32 = 3;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (said, hellos) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut first, _) = listener.accept().unwrap();
        answer_history(&mut first);
        drop(first);
        let (mut second, _) = listener.accept().unwrap();
        answer_history(&mut second);
        let mut seen = BTreeMap::new();
        while seen.len() < REPLICAS as usize {
            let (kind, id, payload) = read_frame(&mut second).unwrap();
            match Message::decode(kind, &payload).unwrap() {
                Message::ReplicaHello { replica, v_local } => {
                    seen.insert(replica.0, v_local);
                }
                Message::Ping => {
                    let frame = encode_frame(Message::Pong.kind(), id, &[]).unwrap();
                    second.write_all(&frame).unwrap();
                }
                other => panic!("unexpected frame before the hellos: {other:?}"),
            }
        }
        let _ = said.send(seen);
        // Hold the connection until the cluster stops.
        let _ = read_frame(&mut second);
    });

    let workload = MicroBenchmark::small(0.1);
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: REPLICAS as usize,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(RemoteCertifierLink::connect(&addr).unwrap()),
    );
    let seen = hellos
        .recv_timeout(Duration::from_secs(10))
        .expect("every replica says hello once the link is back");
    let expected: BTreeMap<u32, Version> = (0..REPLICAS).map(|r| (r, Version::ZERO)).collect();
    assert_eq!(seen, expected);
    cluster.shutdown();
}

/// A fake certifier service writes the history page and two pushes behind
/// it in one write: a decision (for a transaction the replica does not
/// know, which it ignores) and a refresh. The link's history fetch reads
/// all three at once; the pushes must still reach the replica, and the
/// refresh's row shows there.
#[test]
fn pushes_read_with_the_last_history_page_reach_their_replica() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, id, payload) = read_frame(&mut stream).unwrap();
        let fetch = Message::decode(kind, &payload).unwrap();
        assert!(matches!(fetch, Message::FetchHistory { .. }), "{fetch:?}");
        let mut writeset = WriteSet::new();
        writeset.push(
            TableId(0),
            Value::Int(1),
            WriteOp::Insert(vec![Value::Int(1), Value::Int(42)]),
        );
        let frames = [
            (
                id,
                Message::History {
                    records: Vec::new(),
                },
            ),
            (
                0,
                Message::Decision {
                    origin: ReplicaId(0),
                    decision: CertifyDecision::Abort {
                        txn: TxnId(99),
                        conflicting_version: Version(1),
                    },
                },
            ),
            (
                0,
                Message::RefreshFor {
                    to: ReplicaId(0),
                    refresh: Refresh {
                        origin: ReplicaId(1),
                        txn: TxnId(98),
                        commit_version: Version(1),
                        writeset: Arc::new(writeset),
                    },
                },
            ),
        ];
        let bytes: Vec<u8> = frames
            .iter()
            .flat_map(|(id, msg)| encode_frame(msg.kind(), *id, &msg.encode()).unwrap())
            .collect();
        stream.write_all(&bytes).unwrap();
        // Answer heartbeats until the cluster stops.
        while let Ok((kind, id, _)) = read_frame(&mut stream) {
            if kind == Message::Ping.kind() {
                let frame = encode_frame(Message::Pong.kind(), id, &[]).unwrap();
                if stream.write_all(&frame).is_err() {
                    return;
                }
            }
        }
    });

    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 1,
            ..ClusterConfig::default()
        },
        |engine| {
            let ddl = "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)";
            bargain_sql::execute_ddl(engine, &bargain_sql::parse(ddl)?)
        },
        Box::new(RemoteCertifierLink::connect(&addr).unwrap()),
    );
    let mut session = cluster.connect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, results) = session
            .run_sql(&[("SELECT v FROM t WHERE id = ?", vec![Value::Int(1)])])
            .unwrap();
        if results[0].rows().unwrap() == [vec![Value::Int(42)]] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the refresh read with the history never reached the replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(session);
    cluster.shutdown();
}
