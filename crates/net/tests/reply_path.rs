//! The reply path, asserted by counts rather than times: a finished
//! transaction's reply leaves from the replica thread and that thread starts
//! the connection's next `Run`, so the reactor is woken by requests and is
//! *nudged* only for what a replica thread cannot do.
//! [`NetServer::stats`] counts both.

use bargain_cluster::{CertifierDelivery, CertifierLink, CertifierRequest, Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Error, TemplateId, Value};
use bargain_net::frame::{encode_frame, FrameDecoder};
use bargain_net::{Connection, Message, NetServer, NetServerStats, RemoteSession};
use bargain_workloads::{MicroBenchmark, Workload};
mod common;
use common::{raw_session, run};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn micro_server() -> (NetServer, String) {
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The server's counters once `ready` holds (or after thirty seconds, for
/// the caller's assertion to fail on): a reply is counted after it is written,
/// so the client that read it can be a moment ahead of the count.
fn stats_when(server: &NetServer, ready: impl Fn(&NetServerStats) -> bool) -> NetServerStats {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if ready(&stats) || Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// At depth 1 the reactor learns that a transaction finished when the next
/// request arrives: every reply is written by the thread that produced it,
/// and nobody wakes the reactor for it.
#[test]
fn sequential_reads_are_answered_without_waking_the_reactor() {
    let (server, addr) = micro_server();
    let mut session = RemoteSession::connect(&addr).unwrap();
    let read = session
        .prepare("get", &["SELECT val FROM bench0 WHERE pk = ?"])
        .unwrap();
    let before = server.stats();
    for key in 0..500 {
        let (outcome, _) = session
            .run(read, vec![vec![Value::Int(key % 50 + 1)]])
            .unwrap();
        assert!(outcome.committed);
    }
    let after = stats_when(&server, |s| s.replies_direct - before.replies_direct >= 500);
    assert!(
        after.replies_direct - before.replies_direct >= 500,
        "{before:?} -> {after:?}"
    );
    assert!(
        after.loop_nudges - before.loop_nudges <= 5,
        "{before:?} -> {after:?}"
    );
    drop(session);
    server.stop();
}

/// Two connections, 16 requests outstanding on each: whoever finishes a
/// transaction starts the connection's next one, in arrival order, and the
/// reactor is nudged for a small share of them at most.
#[test]
fn windowed_mixed_load_keeps_order_and_rarely_nudges_the_reactor() {
    const TXNS: usize = 2_000;
    let (server, addr) = micro_server();
    let clients: Vec<_> = (0..2i64)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut session = RemoteSession::connect(&addr).unwrap();
                let read = session
                    .prepare("get", &["SELECT val FROM bench0 WHERE pk = ?"])
                    .unwrap();
                let update = session
                    .prepare("set", &["UPDATE bench0 SET val = ? WHERE pk = ?"])
                    .unwrap();
                // The two connections update disjoint rows (odd / even), so
                // nothing conflicts and nothing is retried.
                let calls: Vec<_> = (0..TXNS as i64)
                    .map(|i| {
                        let key = Value::Int(2 * (i % 40) + k + 1);
                        if i % 2 == 0 {
                            (update, vec![vec![Value::Int(i), key]])
                        } else {
                            (read, vec![vec![key]])
                        }
                    })
                    .collect();
                let mut last_commit = None;
                for (i, result) in session.run_pipelined(&calls, 16).into_iter().enumerate() {
                    let (outcome, _) = result.unwrap_or_else(|e| panic!("transaction {i}: {e}"));
                    assert!(outcome.committed, "transaction {i}");
                    if let Some(version) = outcome.commit_version {
                        assert!(Some(version) > last_commit, "transaction {i}: commit order");
                        last_commit = Some(version);
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let stats = stats_when(&server, |s| s.replies_direct >= 2 * TXNS as u64);
    assert!(stats.replies_direct >= 2 * TXNS as u64, "{stats:?}");
    assert!(
        stats.loop_nudges < 2 * TXNS as u64 / 10,
        "the reactor was woken for finished transactions: {stats:?}"
    );
    server.stop();
}

/// Two threads write one socket — replica threads the transaction replies,
/// the reactor the `Pong`s and whatever a full socket left over — and a
/// client that starts reading only once the socket is full, and then reads
/// slower than the server answers, in chunks of random size, forces the
/// partial writes. The byte stream must
/// still be whole frames, each checksum valid, with the replies in request
/// order.
#[test]
fn a_slow_reader_in_random_chunks_sees_whole_frames_in_request_order() {
    const RUNS: u64 = 5_000;
    const ROWS: i64 = 16;
    let cluster = Cluster::start(ClusterConfig {
        replicas: 2,
        mode: ConsistencyMode::LazyCoarse,
        ..ClusterConfig::default()
    });
    cluster
        .execute_ddl("CREATE TABLE wide (id INT PRIMARY KEY, grp INT, data TEXT)")
        .unwrap();
    let mut admin = cluster.connect();
    for id in 0..ROWS {
        let row = vec![Value::Int(id), Value::Int(1), Value::Text("w".repeat(200))];
        admin
            .run_sql(&[("INSERT INTO wide (id, grp, data) VALUES (?, ?, ?)", row)])
            .unwrap();
    }
    drop(admin);
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let addr = server.local_addr().to_string();

    let (conn, wide) = raw_session(&addr, "SELECT * FROM wide WHERE grp = ?");
    let mut reader = conn.stream().try_clone().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Ids: `Run`s are 1_000_000 + i, every tenth request also sends a
    // `Ping` 2_000_000 + i.
    let mut writer = conn.stream().try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        for i in 0..RUNS {
            let msg = run(wide, vec![Value::Int(1)]);
            let mut bytes = encode_frame(msg.kind(), 1_000_000 + i, &msg.encode()).unwrap();
            if i % 10 == 0 {
                let ping = Message::Ping;
                bytes.extend(encode_frame(ping.kind(), 2_000_000 + i, &ping.encode()).unwrap());
            }
            writer.write_all(&bytes).unwrap();
        }
    });

    // The first read waits until the server has run into the full socket.
    let stalled = stats_when(&server, |s| s.replies_queued > 0);
    assert!(
        stalled.replies_queued > 0,
        "the socket never filled: {stalled:?}"
    );
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut decoder = FrameDecoder::new();
    let (mut runs, mut pongs) = (0u64, 0u64);
    let mut buf = [0u8; 4096];
    let mut frames = Vec::new();
    while runs < RUNS || pongs < RUNS / 10 {
        let want = 1 + (next() % 4096) as usize;
        let n = reader.read(&mut buf[..want]).expect("reply stream");
        assert!(n > 0, "server closed after {runs} replies");
        decoder
            .feed(&buf[..n], &mut frames)
            .expect("whole, checksum-valid frames");
        for frame in frames.drain(..) {
            match Message::decode(frame.kind, &frame.payload).expect("decodable reply") {
                Message::TxnReply { outcome, results } => {
                    assert_eq!(frame.request_id, 1_000_000 + runs, "reply order");
                    assert!(outcome.committed);
                    assert_eq!(results[0].rows().unwrap().len(), ROWS as usize);
                    runs += 1;
                }
                Message::Pong => {
                    assert_eq!(frame.request_id, 2_000_000 + 10 * pongs, "pong order");
                    pongs += 1;
                }
                other => panic!("unexpected reply kind {}", other.kind()),
            }
        }
        if next() % 8 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    assert!(!decoder.mid_frame(), "the stream ends on a frame boundary");
    sender.join().unwrap();

    let stats = server.stats();
    assert!(
        stats.replies_queued > 0,
        "the partial-write path never ran: {stats:?}"
    );
    assert!(stats.replies_direct > 0, "{stats:?}");
    drop((conn, reader));
    server.stop();
}

/// Pipelines `count` copies of `msg` from a writer thread and returns the
/// replies, which must carry the request ids in order.
fn pipeline(conn: &mut Connection, msg: &Message, count: u64) -> Vec<Message> {
    let mut writer = conn.stream().try_clone().unwrap();
    let payload = msg.encode();
    let kind = msg.kind();
    let sender = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        for chunk in 0..count.div_ceil(1_000) {
            bytes.clear();
            for id in chunk * 1_000..count.min((chunk + 1) * 1_000) {
                bytes.extend(encode_frame(kind, 1 + id, &payload).unwrap());
            }
            writer.write_all(&bytes).unwrap();
        }
    });
    let replies = (0..count)
        .map(|id| {
            let (reply_id, reply) = conn.recv_tagged().expect("every request is answered");
            assert_eq!(reply_id, 1 + id, "reply order");
            reply
        })
        .collect();
    sender.join().unwrap();
    replies
}

/// A certification service that is down from the start and stays down: the
/// load balancer refuses every transaction, and a refusal's sink runs on
/// the submitting thread, inside `Session::submit`. Its loop runs on the
/// link thread, behind a channel that `request` feeds.
struct DownLink(
    crossbeam::channel::Sender<CertifierRequest>,
    crossbeam::channel::Receiver<CertifierRequest>,
);

impl DownLink {
    fn new() -> DownLink {
        let (to_loop, requests) = crossbeam::channel::unbounded();
        DownLink(to_loop, requests)
    }
}

impl CertifierLink for DownLink {
    fn history(&mut self) -> bargain_common::Result<Vec<bargain_core::LogRecord>> {
        Ok(Vec::new())
    }

    fn request(&self, request: CertifierRequest) {
        let _ = self.0.send(request);
    }

    fn serve(&self, deliveries: bargain_cluster::CertifierDeliveries) {
        let requests = &self.1;
        let _ = deliveries.send(CertifierDelivery::Down { epoch: 1 });
        for request in requests.iter() {
            if matches!(request, CertifierRequest::Shutdown) {
                return;
            }
        }
    }
}

/// Refusals are answered on the thread that submits — before the cluster
/// (an unknown template) or inside it (the load balancer refuses: its sink
/// runs within `submit` and pumps the connection again). A deep queue of
/// them must iterate: a pump that recursed per request would overflow the
/// stack of whatever thread it ran on.
#[test]
fn a_deep_queue_of_refusals_is_answered_in_order_without_recursion() {
    const REQUESTS: u64 = 50_000;
    let protocol_error = |reply: &Message, needle: &str| match reply {
        Message::Err(Error::Protocol(why)) => why.contains(needle),
        _ => false,
    };

    // Refused before the cluster: no such template.
    let (server, addr) = micro_server();
    let (mut conn, known) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
    let unknown = TemplateId(known.0 + 1_000);
    let replies = pipeline(&mut conn, &run(unknown, vec![Value::Int(1)]), REQUESTS);
    assert!(replies
        .iter()
        .all(|reply| protocol_error(reply, "unknown template")));
    // The connection still works.
    let reply = conn.call(&run(known, vec![Value::Int(1)])).unwrap();
    assert!(matches!(reply, Message::TxnReply { outcome, .. } if outcome.committed));
    drop(conn);
    server.stop();

    // Refused inside the cluster, by the load balancer: the certifier is
    // down. (The other refusals — the cluster draining, no replica up —
    // leave `Front::submit` through the same arm.)
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::LazyCoarse,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(DownLink::new()),
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.stats().unwrap().certifier_up {
        assert!(Instant::now() < deadline, "the link never reported down");
        std::thread::sleep(Duration::from_millis(1));
    }
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let addr = server.local_addr().to_string();
    let (mut conn, read) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
    let replies = pipeline(&mut conn, &run(read, vec![Value::Int(1)]), REQUESTS);
    let refused = |reply: &Message| match reply {
        Message::Err(Error::Unavailable(why)) => why.contains("certifier unavailable"),
        _ => false,
    };
    assert!(replies.iter().all(refused));
    assert_eq!(server.cluster().stats().unwrap().routed, 0);
    drop(conn);
    server.stop();
}
