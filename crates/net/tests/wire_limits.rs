//! What happens at the frame cap (`MAX_FRAME_LEN`, 64 MiB), on both
//! endpoints: a reply too large for one frame is answered with an error,
//! once, and a certifier log larger than one frame still reaches a
//! restarting split cluster, a page at a time. And what the certifier
//! endpoint refuses: an introduction it cannot learn its membership from,
//! and a writeset naming one row twice; and a writeset of 40 000 rows,
//! which it takes in its stride.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{
    ConsistencyMode, Error, ReplicaId, Result, Row, TableId, TxnId, Value, Version, WriteOp,
    WriteSet,
};
use bargain_core::certifier::Input;
use bargain_core::{Certifier, CertifyDecision, CertifyRequest};
use bargain_net::certifier::MAX_REPLICAS;
use bargain_net::frame::{encode_frame, MAX_FRAME_LEN, PUSH_ID};
use bargain_net::{CertifierServer, CertifierServerConfig, NetServer, RemoteCertifierLink};
use bargain_net::{ConnectPolicy, Connection, Message, RemoteSession};
use bargain_storage::Engine;
use std::io::Write;
use std::sync::Arc;

fn blob_table(engine: &mut Engine) -> Result<()> {
    bargain_sql::execute_ddl(
        engine,
        &bargain_sql::parse("CREATE TABLE blob (id INT PRIMARY KEY, body TEXT NOT NULL)")?,
    )
}

/// A `SELECT` of one 1 MiB text column, 65 times over, has a 65 MiB reply:
/// the server sends `Err(Codec)` in its place. That error is the answer —
/// the session does not take it for a lost reply and run the transaction
/// again.
#[test]
fn a_run_whose_reply_is_over_the_frame_cap_gets_its_error_and_runs_once() {
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        blob_table,
    );
    let server = NetServer::start("127.0.0.1:0", cluster).expect("bind loopback");
    let mut session = RemoteSession::connect(&server.local_addr().to_string()).unwrap();
    let body = "x".repeat(1 << 20);
    session
        .run_sql(&[(
            "INSERT INTO blob (id, body) VALUES (?, ?)",
            vec![Value::Int(1), Value::Text(body)],
        )])
        .unwrap();

    let columns = vec!["body"; 65].join(", ");
    let select = format!("SELECT {columns} FROM blob WHERE id = ?");
    let routed = session.stats().unwrap().routed;
    let got = session.run_sql(&[(select.as_str(), vec![Value::Int(1)])]);
    assert!(matches!(got, Err(Error::Codec(_))), "{got:?}");
    assert_eq!(
        session.stats().unwrap().routed - routed,
        1,
        "the oversized reply's transaction ran more than once"
    );

    // The session serves on.
    let (outcome, results) = session
        .run_sql(&[("SELECT id FROM blob WHERE id = ?", vec![Value::Int(1)])])
        .unwrap();
    assert!(outcome.committed);
    assert_eq!(results[0].rows().unwrap(), &[Row::from([Value::Int(1)])]);
    drop(session);
    server.stop();
}

/// Records of about 60 KiB: a page of 1 024 stays under the frame cap, and
/// 1 150 of them are over it.
const RECORDS: u64 = 1_150;
const BODY_BYTES: usize = 60 * 1024;

/// A durable split deployment restarts over a certifier log larger than
/// one frame: the cluster starts, and an Eager update commits at the next
/// version, which it can only do once every replica has applied every
/// logged commit before it.
#[test]
fn a_durable_split_cluster_starts_over_a_log_larger_than_a_frame() {
    let dir = std::env::temp_dir().join(format!("bargain-net-wide-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let replicas = vec![ReplicaId(0), ReplicaId(1)];
    {
        let mut certifier = Certifier::open(replicas.clone(), Some(&dir)).unwrap();
        let body = "y".repeat(BODY_BYTES);
        for batch in (1..=RECORDS).collect::<Vec<_>>().chunks(64) {
            let inputs = batch.iter().map(|&i| {
                let mut writeset = WriteSet::new();
                let row = vec![Value::Int(i as i64), Value::Text(body.clone())];
                writeset.push(
                    TableId(0),
                    Value::Int(i as i64),
                    WriteOp::Insert(row.into()),
                );
                Input::Certify(CertifyRequest {
                    txn: TxnId(i),
                    replica: ReplicaId(0),
                    snapshot: Version(i - 1),
                    writeset: Arc::new(writeset),
                    idem: None,
                })
            });
            certifier.step(inputs).unwrap();
        }
        assert_eq!(certifier.version(), Version(RECORDS));
    }
    let log_bytes = std::fs::metadata(dir.join("certifier.wal")).unwrap().len();
    assert!(log_bytes > u64::from(MAX_FRAME_LEN), "{log_bytes}");

    let service = CertifierServer::start(
        "127.0.0.1:0",
        CertifierServerConfig {
            wal_dir: Some(dir.clone()),
        },
    )
    .unwrap();
    let link = RemoteCertifierLink::connect(&service.local_addr().to_string()).unwrap();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: replicas.len(),
            mode: ConsistencyMode::Eager,
            ..ClusterConfig::default()
        },
        blob_table,
        Box::new(link),
    );
    let mut session = cluster.connect();
    let (outcome, _) = session
        .run_sql(&[(
            "UPDATE blob SET body = ? WHERE id = ?",
            vec![Value::Text("z".into()), Value::Int(RECORDS as i64)],
        )])
        .unwrap();
    assert!(outcome.committed, "{:?}", outcome.abort_reason);
    assert_eq!(outcome.commit_version, Some(Version(RECORDS + 1)));
    let (_, results) = session
        .run_sql(&[("SELECT id FROM blob WHERE id = ?", vec![Value::Int(1)])])
        .unwrap();
    assert_eq!(results[0].rows().unwrap(), &[Row::from([Value::Int(1)])]);

    drop(session);
    cluster.shutdown();
    service.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

fn introduction(replicas: u32) -> Message {
    Message::HelloAck {
        replicas,
        mode: ConsistencyMode::LazyFine,
    }
}

fn certify_from_replica_0() -> Message {
    let mut writeset = WriteSet::new();
    writeset.push(TableId(0), Value::Int(1), WriteOp::Delete);
    Message::Certify(CertifyRequest {
        txn: TxnId(1),
        replica: ReplicaId(0),
        snapshot: Version::ZERO,
        writeset: Arc::new(writeset),
        idem: None,
    })
}

/// One frame carrying `msg`.
fn frame(msg: &Message) -> Vec<u8> {
    encode_frame(msg.kind(), PUSH_ID, &msg.encode()).unwrap()
}

/// A `Certify` frame whose writeset names one row twice.
fn certify_naming_one_row_twice() -> Vec<u8> {
    let certify = certify_from_replica_0();
    let mut payload = certify.encode();
    // The writeset ends the payload: u32 count, then one entry of
    // u32 table | u8 tag | i64 key | u8 op.
    let entry = payload.split_off(payload.len() - 14);
    let count = payload.len() - 4;
    assert_eq!(payload[count..], 1u32.to_le_bytes());
    payload[count..].copy_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&entry);
    payload.extend_from_slice(&entry);
    encode_frame(certify.kind(), PUSH_ID, &payload).unwrap()
}

fn protocol(e: &Error) -> bool {
    matches!(e, Error::Protocol(_))
}

/// Sends `frames` to a fresh certifier service and expects an error that
/// `refused_as` accepts, and the close. Then the service serves the next
/// connection: a cluster of two introduces itself, and its first commit
/// fans out to replica 1 alone.
fn refused_and_the_next_connection_is_served(frames: &[Vec<u8>], refused_as: fn(&Error) -> bool) {
    let service = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
    let addr = service.local_addr().to_string();
    let mut refused = Connection::connect(&addr, &ConnectPolicy::default()).unwrap();
    refused.stream().write_all(&frames.concat()).unwrap();
    let reply = refused.recv();
    assert!(
        matches!(&reply, Ok(Message::Err(e)) if refused_as(e)),
        "{reply:?}"
    );
    let closed = refused.recv();
    assert!(
        matches!(closed, Err(Error::ConnectionClosed(_))),
        "{closed:?}"
    );

    let mut next = Connection::connect(&addr, &ConnectPolicy::default()).unwrap();
    next.send(&introduction(2)).unwrap();
    next.send(&certify_from_replica_0()).unwrap();
    let Ok(Message::RefreshFor { to, .. }) = next.recv() else {
        panic!("a commit from replica 0 refreshes replica 1 first");
    };
    assert_eq!(to, ReplicaId(1));
    let decision = next.recv();
    assert!(
        matches!(
            decision,
            Ok(Message::Decision {
                decision: CertifyDecision::Commit { .. },
                ..
            })
        ),
        "{decision:?}"
    );
    service.stop();
}

#[test]
fn an_introduction_naming_no_replicas_is_refused() {
    refused_and_the_next_connection_is_served(&[frame(&introduction(0))], protocol);
}

#[test]
fn an_introduction_naming_more_replicas_than_the_bound_is_refused() {
    refused_and_the_next_connection_is_served(&[frame(&introduction(MAX_REPLICAS + 1))], protocol);
}

#[test]
fn a_certify_before_any_introduction_is_refused() {
    refused_and_the_next_connection_is_served(&[frame(&certify_from_replica_0())], protocol);
}

/// Two entries for one row are not coalesced on the way in: no encoder
/// writes them, so the frame is refused as undecodable.
#[test]
fn a_certify_naming_one_row_twice_is_refused_as_a_codec_error() {
    refused_and_the_next_connection_is_served(
        &[frame(&introduction(2)), certify_naming_one_row_twice()],
        |e| matches!(e, Error::Codec(_)),
    );
}

const KV_ROWS: i64 = 40_000;

fn kv_table(engine: &mut Engine) -> Result<()> {
    bargain_sql::execute_ddl(
        engine,
        &bargain_sql::parse("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")?,
    )?;
    let rows = (0..KV_ROWS).map(|k| vec![Value::Int(k), Value::Int(0)]);
    engine.load_rows(TableId(0), rows.collect())
}

/// One transaction updating 40 000 rows commits behind a split certifier,
/// and the link stays up. Decoding a writeset cost a scan of the entries
/// so far for every entry: the service's loop sat in one such decode past
/// the link's failure detector, the link went down, and the client heard
/// "outcome unknown" for an update that had committed.
#[test]
fn a_40_000_row_update_commits_behind_a_split_certifier_with_the_link_up() {
    let service = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
    let link = RemoteCertifierLink::connect(&service.local_addr().to_string()).unwrap();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        kv_table,
        Box::new(link),
    );
    let mut session = cluster.connect();
    let (outcome, _) = session
        .run_sql(&[("UPDATE kv SET v = v + 1", vec![])])
        .unwrap();
    assert!(outcome.committed, "{:?}", outcome.abort_reason);
    let (_, results) = session
        .run_sql(&[(
            "SELECT v FROM kv WHERE k = ?",
            vec![Value::Int(KV_ROWS - 1)],
        )])
        .unwrap();
    assert_eq!(results[0].rows().unwrap(), &[Row::from([Value::Int(1)])]);
    assert_eq!(cluster.stats().unwrap().certifier_downs, 0);
    drop(session);
    cluster.shutdown();
    service.stop();
}
