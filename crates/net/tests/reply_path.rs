//! The reply path, asserted by counts rather than times: a finished
//! transaction's reply leaves from the replica thread and that thread starts
//! the connection's next `Run`, so the reactor is woken by requests and is
//! *nudged* only for what a replica thread cannot do.
//! [`NetServer::stats`] counts both. The bursts below check the order: every
//! reply of a pipelined burst arrives exactly once, in request order,
//! whatever ends the burst.

use bargain_cluster::{CertifierDelivery, CertifierLink, CertifierRequest, Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Error, TemplateId, Value};
use bargain_net::frame::{encode_frame, FrameDecoder};
use bargain_net::{Connection, Message, NetServer, NetServerConfig, NetServerStats, RemoteSession};
use bargain_workloads::{MicroBenchmark, Workload};
mod common;
use common::{prepare, raw_session, run};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// A raw session on a micro-benchmark server with two templates prepared: a
/// point read and a point update.
fn read_update_session(addr: &str) -> (Connection, TemplateId, TemplateId) {
    let (mut conn, read) = raw_session(addr, "SELECT val FROM bench0 WHERE pk = ?");
    let update = prepare(&mut conn, "UPDATE bench0 SET val = ? WHERE pk = ?");
    (conn, read, update)
}

/// `count` pipelined `Run`s with ids `1..=count`, reads and updates in turn,
/// followed by `tail`, as the bytes of one write.
fn burst(read: TemplateId, update: TemplateId, count: u64, tail: &[(u64, Message)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 1..=count {
        let key = Value::Int((id % 40 + 1) as i64);
        let msg = if id % 2 == 0 {
            run(update, vec![Value::Int(id as i64), key])
        } else {
            run(read, vec![key])
        };
        bytes.extend(encode_frame(msg.kind(), id, &msg.encode()).unwrap());
    }
    for (id, msg) in tail {
        bytes.extend(encode_frame(msg.kind(), *id, &msg.encode()).unwrap());
    }
    bytes
}

/// Writes `bytes` from a thread of its own, so that neither side's socket
/// buffer can stall the reader; then runs `after` on the stream.
fn send_from_thread(
    conn: &Connection,
    bytes: Vec<u8>,
    after: impl FnOnce(&TcpStream) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let mut writer = conn.stream().try_clone().unwrap();
    std::thread::spawn(move || {
        if writer.write_all(&bytes).is_ok() {
            after(&writer);
        }
    })
}

/// Reads the replies to a burst's `Run`s: each exactly once, in request
/// order, each a committed transaction.
fn expect_runs(conn: &mut Connection, count: u64) {
    for id in 1..=count {
        match conn.recv_tagged() {
            Ok((reply_id, Message::TxnReply { outcome, .. })) => {
                assert_eq!(reply_id, id, "reply order");
                assert!(outcome.committed, "request {id}");
            }
            other => panic!("request {id}: expected a transaction reply, got {other:?}"),
        }
    }
}

const BURST: u64 = 500;

/// A burst ended by a `Run` the submitting thread refuses (its template is
/// unknown): the burst's replies come first, in order, then the refusal,
/// and the connection goes on working.
#[test]
fn a_burst_ended_by_a_refused_run_is_answered_in_order() {
    let (server, addr) = micro_server();
    let (mut conn, read, update) = read_update_session(&addr);
    let unknown = TemplateId(read.0.max(update.0) + 1_000);
    let tail = [(BURST + 1, run(unknown, vec![Value::Int(1)]))];
    let sender = send_from_thread(&conn, burst(read, update, BURST, &tail), |_| {});
    expect_runs(&mut conn, BURST);
    match conn.recv_tagged() {
        Ok((id, Message::Err(Error::Protocol(why)))) => {
            assert_eq!(id, BURST + 1);
            assert!(why.contains("unknown template"), "{why}");
        }
        other => panic!("expected the refusal, got {other:?}"),
    }
    sender.join().unwrap();
    let reply = conn.call(&run(read, vec![Value::Int(1)])).unwrap();
    assert!(matches!(reply, Message::TxnReply { outcome, .. } if outcome.committed));
    drop(conn);
    server.stop();
}

/// A burst ended by requests the reactor answers (`Prepare`, `Stats`): they
/// wait for the burst, and their answers follow its replies in order.
#[test]
fn a_burst_ended_by_requests_the_reactor_answers_is_answered_in_order() {
    let (server, addr) = micro_server();
    let (mut conn, read, update) = read_update_session(&addr);
    let prepare = Message::Prepare {
        name: "late".into(),
        sqls: vec!["SELECT val FROM bench0 WHERE pk = ?".into()],
    };
    let tail = [(BURST + 1, prepare), (BURST + 2, Message::Stats)];
    let sender = send_from_thread(&conn, burst(read, update, BURST, &tail), |_| {});
    expect_runs(&mut conn, BURST);
    let prepared = conn.recv_tagged().unwrap();
    assert!(
        matches!(prepared, (id, Message::Prepared { .. }) if id == BURST + 1),
        "{prepared:?}"
    );
    match conn.recv_tagged().unwrap() {
        (id, Message::StatsReply { routed, .. }) => {
            assert_eq!(id, BURST + 2);
            assert!(routed >= BURST, "{routed} routed");
        }
        other => panic!("expected the stats, got {other:?}"),
    }
    sender.join().unwrap();
    drop(conn);
    server.stop();
}

/// A client that half-closes its write side after a burst gets every reply,
/// in order, and then the server's close.
#[test]
fn a_burst_then_a_half_close_is_answered_in_full_before_the_close() {
    let (server, addr) = micro_server();
    let (mut conn, read, update) = read_update_session(&addr);
    let bytes = burst(read, update, BURST, &[]);
    let sender = send_from_thread(&conn, bytes, |stream| {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    });
    expect_runs(&mut conn, BURST);
    let end = conn.recv_tagged();
    assert!(
        matches!(end, Err(Error::ConnectionClosed(_))),
        "expected the close, got {end:?}"
    );
    sender.join().unwrap();
    server.stop();
}

/// `NetServer::stop` in the middle of a long burst: every reply that
/// arrives is the next in request order, each exactly once, then the
/// connection closes — and neither the close nor the stop waits much past
/// `shutdown_grace`.
#[test]
fn a_stop_in_the_middle_of_a_burst_answers_a_prefix_in_order_then_closes() {
    const RUNS: u64 = 20_000;
    let grace = Duration::from_secs(1);
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
    );
    let config = NetServerConfig {
        shutdown_grace: grace,
        ..NetServerConfig::default()
    };
    let server = NetServer::start_with_config("127.0.0.1:0", cluster, config).unwrap();
    let addr = server.local_addr().to_string();
    let (mut conn, read, update) = read_update_session(&addr);
    let sender = send_from_thread(&conn, burst(read, update, RUNS, &[]), |_| {});

    let mut answered = 0;
    let mut stopped = None;
    loop {
        if answered == 200 && stopped.is_none() {
            server.request_stop();
            stopped = Some(Instant::now());
        }
        match conn.recv_tagged() {
            Ok((id, reply)) => {
                answered += 1;
                assert_eq!(id, answered, "each reply once, in request order");
                assert!(
                    matches!(reply, Message::TxnReply { .. } | Message::Err(_)),
                    "request {id}: {reply:?}"
                );
            }
            Err(e) => {
                assert!(
                    matches!(e, Error::ConnectionClosed(_) | Error::Io(_)),
                    "the connection closes cleanly: {e:?}"
                );
                break;
            }
        }
    }
    let stopped = stopped.expect("the stop was requested");
    let closed = stopped.elapsed();
    assert!(answered >= 200, "{answered} replies");
    assert!(answered < RUNS, "the stop came after the whole burst");
    assert!(
        closed < grace + Duration::from_secs(3),
        "closed {closed:?} after the stop"
    );
    server.wait();
    let waited = stopped.elapsed();
    assert!(
        waited < grace + Duration::from_secs(5),
        "stopped {waited:?} after the request"
    );
    sender.join().unwrap();
}

/// The windowed load's shape (2 connections, 16 requests outstanding on
/// each): a reply with a `Run` queued behind it is held, and leaves in one
/// write with a later one. The replies take at most three writes for every
/// four.
#[test]
fn windowed_replies_leave_together() {
    const TXNS: u64 = 2_000;
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
                for (i, result) in session.run_pipelined(&calls, 16).into_iter().enumerate() {
                    let (outcome, _) = result.unwrap_or_else(|e| panic!("transaction {i}: {e}"));
                    assert!(outcome.committed, "transaction {i}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let stats = stats_when(&server, |s| s.replies_direct + s.replies_queued >= 2 * TXNS);
    eprintln!("{stats:?}");
    let replies = stats.replies_direct + stats.replies_queued;
    assert!(replies >= 2 * TXNS, "{stats:?}");
    assert!(stats.replies_held > 0, "{stats:?}");
    assert!(
        4 * stats.reply_writes <= 3 * replies,
        "replies left one write each: {stats:?}"
    );
    server.stop();
}
