//! Ragged and hostile bytes against a real `NetServer`: the reactor reads
//! frames off a socket however TCP cuts them, so a session's `Run` frames
//! written in arbitrary pieces must get exactly the replies the same bytes
//! get written at once. Bytes that frame nothing close that connection
//! alone: another connection open beside it is still served, and so is a
//! new one, from the state the ragged one left.

mod common;

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, TemplateId, Value};
use bargain_net::frame::{encode_frame, MAGIC};
use bargain_net::{Connection, Message, NetServer};
use common::{prepare, run};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const ROWS: i64 = 4;
const UPDATE: &str = "UPDATE t SET v = v + ? WHERE id = ?";
const READ: &str = "SELECT v FROM t WHERE id = ?";

/// `(update?, row, delta)` per transaction: few rows, so updates meet.
fn txns_strategy() -> impl Strategy<Value = Vec<(bool, i64, i64)>> {
    proptest::collection::vec((any::<bool>(), 0..ROWS, 1..100i64), 1..16)
}

/// A one-replica server over `t`: every transaction of a connection runs
/// where the one before it did, so the replies depend on nothing but the
/// bytes.
fn start() -> NetServer {
    let cluster = Cluster::start(ClusterConfig {
        replicas: 1,
        mode: ConsistencyMode::LazyFine,
        ..ClusterConfig::default()
    });
    cluster
        .execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let mut admin = cluster.connect();
    for id in 0..ROWS {
        let row = vec![Value::Int(id), Value::Int(0)];
        admin
            .run_sql(&[("INSERT INTO t (id, v) VALUES (?, ?)", row)])
            .unwrap();
    }
    drop(admin);
    NetServer::start("127.0.0.1:0", cluster).expect("bind loopback")
}

/// A raw socket to `server` and a framed reader over the same connection.
fn connect(server: &NetServer) -> (TcpStream, Connection) {
    let raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let reader = raw.try_clone().unwrap();
    let reader = Connection::from_stream(reader, Some(Duration::from_secs(5)), None).unwrap();
    (raw, reader)
}

/// A connection to `server` with its session open and both templates
/// prepared (templates belong to the connection that prepared them).
fn session(server: &NetServer) -> (TcpStream, Connection, TemplateId, TemplateId) {
    let (raw, mut conn) = connect(server);
    conn.call(&Message::Hello).unwrap();
    conn.call(&Message::OpenSession).unwrap();
    let (update, read) = (prepare(&mut conn, UPDATE), prepare(&mut conn, READ));
    (raw, conn, update, read)
}

/// One `Run` frame per transaction, the `i`-th under request id `1000 + i`.
fn run_bytes(txns: &[(bool, i64, i64)], update: TemplateId, read: TemplateId) -> Vec<u8> {
    let runs = txns.iter().map(|&(is_update, row, delta)| {
        if is_update {
            run(update, vec![Value::Int(delta), Value::Int(row)])
        } else {
            run(read, vec![Value::Int(row)])
        }
    });
    runs.zip(1000u64..)
        .flat_map(|(msg, id)| encode_frame(msg.kind(), id, &msg.encode()).unwrap())
        .collect()
}

/// The `count` replies, each with its request id, in arrival order.
fn replies(conn: &mut Connection, count: usize) -> Vec<(u64, Message)> {
    (0..count)
        .map(|_| conn.recv_tagged().expect("every request is answered"))
        .collect()
}

/// Reads until the server closes `conn`; it may say why first.
fn closed(conn: &mut Connection) -> bool {
    loop {
        match conn.recv() {
            Ok(Message::Err(_)) => continue,
            Ok(other) => panic!("unexpected frame before the close: {other:?}"),
            Err(e) => return !matches!(e, bargain_common::Error::Timeout(_)),
        }
    }
}

proptest! {
    #[test]
    fn run_frames_cut_anywhere_get_the_replies_of_one_write(
        txns in txns_strategy(),
        cuts in proptest::collection::vec(any::<u64>(), 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 22..64),
    ) {
        let count = txns.len();

        // The reference: one write_all.
        let reference = start();
        let (mut raw, mut conn, update, read) = session(&reference);
        raw.write_all(&run_bytes(&txns, update, read)).unwrap();
        let expected = replies(&mut conn, count);
        prop_assert!(
            expected.iter().all(|(_, m)| matches!(m, Message::TxnReply { outcome, .. } if outcome.committed)),
            "{:?}", expected
        );
        reference.stop();

        // The same bytes in pieces, each flushed before the next.
        let server = start();
        let (mut raw, mut conn, update, read) = session(&server);
        let stream = run_bytes(&txns, update, read);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| (c % stream.len() as u64) as usize).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut from = 0;
        for to in cuts {
            raw.write_all(&stream[from..to]).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_micros(200));
            from = to;
        }
        prop_assert_eq!(replies(&mut conn, count), expected);

        // Bytes that frame nothing close this connection, and only it.
        let (_, mut beside) = connect(&server);
        prop_assert!(matches!(beside.call(&Message::Hello), Ok(Message::HelloAck { .. })));
        let mut garbage = garbage;
        if garbage[..4] == MAGIC.to_le_bytes() {
            garbage[0] ^= 0xFF;
        }
        raw.write_all(&garbage).unwrap();
        prop_assert!(closed(&mut conn), "garbage left the connection open");
        prop_assert!(matches!(beside.call(&Message::Ping), Ok(Message::Pong)));

        // A new connection reads what the ragged session wrote.
        let (_, mut fresh, _, read) = session(&server);
        for row in 0..ROWS {
            let sum: i64 = txns.iter().filter(|t| t.0 && t.1 == row).map(|t| t.2).sum();
            let got = match fresh.call(&run(read, vec![Value::Int(row)])) {
                Ok(Message::TxnReply { results, .. }) => results[0].rows().unwrap()[0][0].clone(),
                other => panic!("read not served: {other:?}"),
            };
            prop_assert_eq!(got, Value::Int(sum), "row {}", row);
        }
        server.stop();
    }
}
