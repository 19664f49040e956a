//! Hostile and ragged bytes against a real `CertifierServer`: the service
//! reads frames off a socket however TCP cuts them, so `Certify` frames
//! written in arbitrary pieces must be decided exactly as the same frames
//! written at once. Bytes that frame nothing close that connection alone,
//! and the service goes on to serve the next one, even one that replaces
//! a connection stopped mid-frame.

use bargain_common::{
    ConsistencyMode, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet,
};
use bargain_core::{CertifyDecision, CertifyRequest};
use bargain_net::frame::{encode_frame, MAGIC, PUSH_ID};
use bargain_net::{CertifierServer, CertifierServerConfig, Connection, Message};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const REPLICAS: u32 = 3;

/// `(replica, keys written)` per request: few keys, so some conflict.
fn requests_strategy() -> impl Strategy<Value = Vec<(u32, Vec<i64>)>> {
    proptest::collection::vec(
        (0..REPLICAS, proptest::collection::vec(0..6i64, 1..3)),
        1..12,
    )
}

/// The bytes of one `Certify` frame per request, all at snapshot 0.
fn certify_frames(requests: &[(u32, Vec<i64>)]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .enumerate()
        .map(|(i, (replica, keys))| {
            let mut writeset = WriteSet::new();
            for &key in keys {
                let row = vec![Value::Int(key), Value::Int(i as i64)];
                writeset.push(TableId(0), Value::Int(key), WriteOp::Update(row.into()));
            }
            let msg = Message::Certify(CertifyRequest {
                txn: TxnId(i as u64 + 1),
                replica: ReplicaId(*replica),
                snapshot: Version::ZERO,
                writeset: Arc::new(writeset),
                idem: None,
            });
            encode_frame(msg.kind(), PUSH_ID, &msg.encode()).unwrap()
        })
        .collect()
}

/// The bytes of the cluster's introduction, which comes before any
/// `Certify`.
fn introduction() -> Vec<u8> {
    let msg = Message::HelloAck {
        replicas: REPLICAS,
        mode: ConsistencyMode::LazyFine,
    };
    encode_frame(msg.kind(), PUSH_ID, &msg.encode()).unwrap()
}

fn start() -> CertifierServer {
    let config = CertifierServerConfig::default();
    CertifierServer::start("127.0.0.1:0", config).expect("certifier binds")
}

/// A raw socket to `server` and a framed reader over the same connection.
fn connect(server: &CertifierServer) -> (TcpStream, Connection) {
    let raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let reader = raw.try_clone().unwrap();
    let reader = Connection::from_stream(reader, Some(Duration::from_secs(5)), None).unwrap();
    (raw, reader)
}

/// What the service sent for `count` certify frames, in order: each
/// decision with its origin, and each refresh's addressee and version.
fn answers(conn: &mut Connection, count: usize) -> Vec<String> {
    let mut seen = Vec::new();
    let mut decided = 0;
    while decided < count {
        seen.push(match conn.recv().expect("every certify is answered") {
            Message::Decision { origin, decision } => {
                decided += 1;
                format!("{origin:?} {decision:?}")
            }
            Message::RefreshFor { to, refresh } => format!("{to:?} {:?}", refresh.commit_version),
            other => panic!("unexpected answer {other:?}"),
        });
    }
    seen
}

/// Reads until the service closes `conn`; it may say why first.
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
    fn certify_frames_cut_anywhere_are_decided_as_if_sent_whole(
        requests in requests_strategy(),
        cuts in proptest::collection::vec(any::<u64>(), 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 22..64),
        stop_at in any::<u64>(),
    ) {
        let frames = certify_frames(&requests);
        let stream: Vec<u8> = [introduction(), frames.concat()].concat();

        // The reference: one write_all.
        let reference = start();
        let (mut raw, mut conn) = connect(&reference);
        raw.write_all(&stream).unwrap();
        let expected = answers(&mut conn, frames.len());
        reference.stop();

        // The same bytes in pieces, each flushed before the next.
        let server = start();
        let (mut raw, mut conn) = connect(&server);
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
        prop_assert_eq!(answers(&mut conn, frames.len()), expected);

        // Bytes that frame nothing close this connection.
        let mut garbage = garbage;
        if garbage[..4] == MAGIC.to_le_bytes() {
            garbage[0] ^= 0xFF;
        }
        raw.write_all(&garbage).unwrap();
        prop_assert!(closed(&mut conn), "garbage left the connection open");

        // A connection stopped mid-frame is replaced by a newer one, which
        // the service serves from the state the first one left.
        let (mut stalled, mut stalled_conn) = connect(&server);
        prop_assert!(matches!(stalled_conn.call(&Message::Ping), Ok(Message::Pong)));
        let frame = &frames[0];
        stalled.write_all(&frame[..1 + (stop_at % (frame.len() as u64 - 1)) as usize]).unwrap();
        let (_, mut fresh) = connect(&server);
        let committed = match fresh.call(&Message::FetchHistory { after: Version::ZERO }) {
            Ok(Message::History { records }) => records.len() as u64,
            other => panic!("history not served: {other:?}"),
        };
        let decisions = expected.iter().filter(|a| a.contains("Commit")).count() as u64;
        prop_assert_eq!(committed, decisions);
        fresh.send(&Message::Certify(CertifyRequest {
            txn: TxnId(1_000),
            replica: ReplicaId(0),
            snapshot: Version(committed),
            writeset: {
                let mut ws = WriteSet::new();
                ws.push(TableId(0), Value::Int(99), WriteOp::Delete);
                Arc::new(ws)
            },
            idem: None,
        })).unwrap();
        let decision = loop {
            match fresh.recv().expect("the newest connection is served") {
                Message::Decision { decision, .. } => break decision,
                Message::RefreshFor { .. } => {}
                other => panic!("unexpected answer {other:?}"),
            }
        };
        prop_assert!(
            matches!(decision, CertifyDecision::Commit { commit_version, .. }
                if commit_version == Version(committed + 1)),
            "{decision:?}"
        );
        prop_assert!(closed(&mut stalled_conn), "the superseded connection stayed open");
        server.stop();
    }
}
