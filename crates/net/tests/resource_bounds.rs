//! What a misbehaving client can cost the server process: memory for
//! requests it pipelines faster than they execute, descriptors for
//! connections it abandons mid-transaction. Both are measured process-wide
//! (`/proc/self`), so the tests live in their own binary and take turns.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Value};
use bargain_net::frame::encode_frame;
use bargain_net::{Message, NetServer};
use bargain_workloads::{MicroBenchmark, Workload};
mod common;
use common::{raw_session, run};
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One test at a time: each reads a process-wide gauge.
static TURN: Mutex<()> = Mutex::new(());

fn micro_server() -> (NetServer, String) {
    let workload = MicroBenchmark::small(0.0);
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

/// Resident set size of this process, in kB.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:"));
    let kb = line.and_then(|l| l.split_whitespace().nth(1));
    kb.and_then(|kb| kb.parse().ok()).expect("VmRSS in kB")
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// One connection sends requests far faster than they execute — while
/// reading every reply, so the write-buffer cap never engages. The queue of
/// decoded requests is bounded: the reactor stops reading the connection
/// and TCP holds the flood at the sender, instead of the server buffering
/// all of it (190 B per request, without limit).
#[test]
fn a_request_flood_is_held_at_the_sender_not_buffered_in_the_server() {
    // The bound shows as soon as the sender is well ahead of execution; an
    // unoptimised build executes several times slower, so it gets a shorter
    // flood (still 45 MB of queue without the bound) to finish in the same
    // time.
    const REQUESTS: u64 = if cfg!(debug_assertions) {
        250_000
    } else {
        1_000_000
    };
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (server, addr) = micro_server();
    let (mut conn, read) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
    conn.stream()
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    let mut writer = conn.stream().try_clone().unwrap();
    writer.set_write_timeout(None).unwrap();
    let sender = std::thread::spawn(move || {
        let before = rss_kb();
        let mut peak = before;
        let mut bytes = Vec::new();
        for chunk in 0..REQUESTS / 1_000 {
            bytes.clear();
            for id in chunk * 1_000..(chunk + 1) * 1_000 {
                let msg = run(read, vec![Value::Int((id % 100) as i64 + 1)]);
                bytes.extend(encode_frame(msg.kind(), 1 + id, &msg.encode()).unwrap());
            }
            writer.write_all(&bytes).unwrap();
            peak = peak.max(rss_kb());
        }
        (before, peak)
    });

    for id in 0..REQUESTS {
        let (reply_id, reply) = conn.recv_tagged().expect("every request is answered");
        assert_eq!(reply_id, 1 + id, "reply order");
        assert!(
            matches!(&reply, Message::TxnReply { outcome, .. } if outcome.committed),
            "request {id}: kind {}",
            reply.kind()
        );
    }
    let (before, peak) = sender.join().unwrap();
    assert!(
        peak - before < 32 * 1024,
        "RSS grew from {before} kB to {peak} kB while the flood was sent"
    );
    drop(conn);
    server.stop();
}

/// A thousand clients connect, start a transaction and vanish without
/// reading. The replica thread that finishes each transaction holds that
/// connection's write half when the reactor drops the connection: the
/// socket must close all the same, the late reply be discarded, and the
/// descriptor freed.
#[test]
fn abandoned_connections_leak_no_descriptor() {
    const CYCLES: i64 = 1_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (server, addr) = micro_server();
    let baseline = open_descriptors();
    for cycle in 0..CYCLES {
        let (mut conn, update) = raw_session(&addr, "UPDATE bench0 SET val = ? WHERE pk = ?");
        let set = run(update, vec![Value::Int(cycle), Value::Int(cycle % 100 + 1)]);
        conn.send(&set).unwrap();
        // Dropped here without reading: the transaction is in flight.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while open_descriptors() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open_descriptors(), baseline, "descriptors leaked");

    // Later clients are served, and every abandoned update was executed.
    let (mut conn, read) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
    let reply = conn.call(&run(read, vec![Value::Int(1)]));
    assert!(matches!(reply, Ok(Message::TxnReply { outcome, .. }) if outcome.committed));
    drop(conn);
    let commits = || server.cluster().stats().unwrap().commits;
    while commits() < CYCLES as u64 + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(commits(), CYCLES as u64 + 1);
    server.stop();
}
