//! The request path, asserted by counts rather than times: a pipelined
//! client that refills its window as it pops replies holds the requests it
//! sends while replies it has read remain, and writes them in one `send`,
//! so the reactor reads them in one `recv`. [`NetServer::stats`] counts the
//! reads that brought request bytes (`request_reads`). Run it in release, as
//! the window runs at the server's speed.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Value};
use bargain_net::{Message, NetServer};
use bargain_workloads::{MicroBenchmark, Workload};
mod common;
use common::{prepare, raw_session, run};

/// A connection keeps 16 `Run`s outstanding, reads and updates in turn,
/// and sends the next one after each reply it pops: the benchmark's closed
/// loop. Replies leave the server in batches, so requests must arrive in
/// batches too; one write per request reads about one request per `recv`.
#[test]
fn a_refilled_window_arrives_in_few_reads() {
    const TXNS: u64 = 4_000;
    const WINDOW: u64 = 16;
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (mut conn, read) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
    let update = prepare(&mut conn, "UPDATE bench0 SET val = ? WHERE pk = ?");

    let before = server.stats();
    let (mut sent, mut answered) = (0, 0);
    while answered < TXNS {
        while sent < TXNS && sent - answered < WINDOW {
            sent += 1;
            let key = Value::Int((sent % 40 + 1) as i64);
            let msg = if sent % 2 == 0 {
                run(update, vec![Value::Int(sent as i64), key])
            } else {
                run(read, vec![key])
            };
            conn.send_with_id(sent, &msg).unwrap();
        }
        match conn.recv_tagged() {
            Ok((id, Message::TxnReply { outcome, .. })) => {
                answered += 1;
                assert_eq!(id, answered, "reply order");
                assert!(outcome.committed, "request {id}");
            }
            other => panic!("request {}: got {other:?}", answered + 1),
        }
    }
    let reads = server.stats().request_reads - before.request_reads;
    eprintln!("{TXNS} requests in {reads} reads");
    assert!(
        TXNS >= 10 * reads,
        "{TXNS} requests took {reads} reads: requests left one write each"
    );
    drop(conn);
    server.stop();
}
