//! End-to-end tests over real loopback TCP: a cluster served by
//! [`NetServer`], driven by concurrent [`RemoteSession`] clients, with the
//! paper's consistency definitions checked on the client side of the wire —
//! the strongest evidence the wire protocol preserves the guarantees the
//! in-process runtime provides.

use bargain_cluster::{committed, CertifierLink, Cluster, ClusterConfig, Session};
use bargain_common::{
    ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, SessionId, TableId, TableSet, TxnId,
    Value, Version, WriteOp, WriteSet,
};
use bargain_core::{CertifyDecision, CertifyRequest, ConsistencyChecker};
use bargain_net::bootstrap::catch_up;
use bargain_net::codec::CATCH_UP_RECORDS;
use bargain_net::frame::encode_frame;
use bargain_net::{
    CertifierLinkConfig, CertifierServer, CertifierServerConfig, ChaosProxy, ConnectPolicy,
    Connection, Message, NetFaultKind, NetFaultPlan, NetServer, RemoteCertifierLink, RemoteSession,
};
use bargain_workloads::{ClientContext, MicroBenchmark, RemoteDriver, TxnDriver, Workload};
mod common;
use common::{prepare, raw_session, run};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Starts a cluster pre-loaded with the reduced micro-benchmark and serves
/// it on an OS-assigned loopback port.
fn micro_server(mode: ConsistencyMode, replicas: usize) -> (NetServer, String, MicroBenchmark) {
    let workload = MicroBenchmark::small(0.3);
    let setup_workload = workload.clone();
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas,
            mode,
            ..ClusterConfig::default()
        },
        move |engine| setup_workload.install(engine),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr, workload)
}

/// The micro-benchmark's template→table mapping: template `2i`/`2i+1`
/// touches `bench{i}`, and DDL order assigns `bench{i}` `TableId(i)`.
fn micro_table_set(template: bargain_common::TemplateId) -> TableSet {
    [TableId(template.0 / 2)].into_iter().collect()
}

/// Runs `clients` concurrent closed-loop clients over TCP, `txns_each`
/// committed transactions per client, recording every issue/snapshot/ack on
/// a shared client-side checker, and asserts zero violations of the
/// guarantee `mode` claims.
fn run_micro_over_tcp(mode: ConsistencyMode, clients: u64, txns_each: usize) {
    let (server, addr, workload) = micro_server(mode, 3);
    let workload = Arc::new(workload);
    let checker = Arc::new(Mutex::new(ConsistencyChecker::new()));
    let placeholder_ids = Arc::new(AtomicU64::new(1));

    let mut handles = Vec::new();
    for k in 0..clients {
        let addr = addr.clone();
        let workload = Arc::clone(&workload);
        let checker = Arc::clone(&checker);
        let placeholder_ids = Arc::clone(&placeholder_ids);
        handles.push(std::thread::spawn(move || {
            let session = RemoteSession::connect(&addr).expect("client connects");
            let mut driver = RemoteDriver::new(session);
            driver
                .register(&workload.templates())
                .expect("templates prepare remotely");
            let mut ctx = ClientContext::new(100 + k, ClientId(k));
            let mut commits = 0u64;
            for _ in 0..txns_each {
                let (template, params) = workload.next_transaction(&mut ctx);
                // Retry certification conflicts; each attempt is its own
                // transaction with its own consistency obligation.
                for attempt in 0.. {
                    let placeholder = TxnId(placeholder_ids.fetch_add(1, Ordering::SeqCst));
                    checker.lock().unwrap().record_issue(
                        placeholder,
                        SessionId(k),
                        Some(micro_table_set(template)),
                    );
                    match driver.run(template, params.clone()) {
                        Ok((outcome, _results)) => {
                            let mut c = checker.lock().unwrap();
                            match outcome.commit_version {
                                // Committed update: its commit version is a
                                // snapshot the system vouches for.
                                Some(v) => {
                                    c.record_snapshot(placeholder, v);
                                    c.record_ack_with_tables(
                                        placeholder,
                                        Some(v),
                                        outcome.tables_written.clone(),
                                    );
                                }
                                // Read-only: the observed version is the
                                // genuine snapshot it was served.
                                None => {
                                    c.record_snapshot(placeholder, outcome.observed_version);
                                    c.record_ack(placeholder, None);
                                }
                            }
                            commits += 1;
                            break;
                        }
                        // Aborted attempt: no snapshot recorded, so the
                        // checker imposes no obligation on it.
                        Err(e) if e.is_retryable() && attempt < 20 => {}
                        Err(e) => panic!("unexpected error over TCP: {e}"),
                    }
                }
            }
            commits
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        total,
        clients * txns_each as u64,
        "every transaction eventually commits"
    );
    assert!(total >= 200, "acceptance floor: at least 200 transactions");

    let c = checker.lock().unwrap();
    assert!(
        !c.acked_commit_versions().is_empty(),
        "workload must contain committed updates for the check to bite"
    );
    let violations = c.violations_for(mode);
    assert!(
        violations.is_empty(),
        "{mode}: {} consistency violations over TCP, first: {:?}",
        violations.len(),
        violations.first()
    );
    drop(c);
    server.stop();
}

#[test]
fn micro_over_tcp_lazy_coarse_is_strongly_consistent() {
    run_micro_over_tcp(ConsistencyMode::LazyCoarse, 4, 60);
}

#[test]
fn micro_over_tcp_lazy_fine_is_strongly_consistent() {
    run_micro_over_tcp(ConsistencyMode::LazyFine, 4, 60);
}

#[test]
fn killed_connection_mid_transaction_leaves_cluster_serving() {
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyCoarse, 3);
    let policy = ConnectPolicy::default();

    // Victim 1: dies mid-frame — a half-written Run leaves the server
    // blocked on the frame body until the close delivers EOF.
    {
        let mut conn = Connection::connect(addr.as_str(), &policy).unwrap();
        assert!(matches!(
            conn.call(&Message::Hello).unwrap(),
            Message::HelloAck { .. }
        ));
        conn.call(&Message::OpenSession).unwrap();
        let frame = encode_frame(Message::Stats.kind(), 1, &Message::Stats.encode()).unwrap();
        let mut stream = conn.stream();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.flush().unwrap();
        // Dropped here: connection killed with a torn frame in flight.
    }

    // Victim 2: dies mid-transaction — sends a complete Run and vanishes
    // before reading the reply, so the server's answer hits a dead socket.
    {
        let mut conn = Connection::connect(addr.as_str(), &policy).unwrap();
        conn.call(&Message::Hello).unwrap();
        conn.call(&Message::OpenSession).unwrap();
        let template = match conn
            .call(&Message::Prepare {
                name: "victim.update".into(),
                sqls: vec!["UPDATE bench0 SET val = ? WHERE pk = ?".into()],
            })
            .unwrap()
        {
            Message::Prepared { template } => template,
            other => panic!("expected Prepared, got kind {}", other.kind()),
        };
        conn.send(&Message::Run {
            template,
            params: vec![vec![Value::Int(4242), Value::Int(1)]],
            idem: None,
        })
        .unwrap();
        // Dropped here without recv: the transaction is in flight.
    }

    // The cluster must keep serving fresh sessions, including reads of the
    // row the vanished client may have written.
    let mut survivor = RemoteSession::connect(&addr).expect("fresh session after kills");
    let read = survivor
        .prepare("survivor.read", &["SELECT val FROM bench0 WHERE pk = ?"])
        .unwrap();
    let write = survivor
        .prepare(
            "survivor.update",
            &["UPDATE bench0 SET val = ? WHERE pk = ?"],
        )
        .unwrap();
    for round in 0..5 {
        let (outcome, _) = survivor
            .run(write, vec![vec![Value::Int(round), Value::Int(2)]])
            .unwrap();
        assert!(outcome.committed);
        let (_, results) = survivor.run(read, vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(round));
    }
    server.stop();
}

#[test]
fn stop_server_drains_cluster_and_refuses_new_connections() {
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyCoarse, 2);
    let mut session = RemoteSession::connect(&addr).unwrap();
    let update = session
        .prepare("touch", &["UPDATE bench0 SET val = ? WHERE pk = ?"])
        .unwrap();
    let (outcome, _) = session
        .run(update, vec![vec![Value::Int(7), Value::Int(1)]])
        .unwrap();
    assert!(outcome.committed);

    session.stop_server().expect("graceful stop acknowledged");
    server.wait(); // joins the acceptor and drains the cluster

    let refused = RemoteSession::connect_with(
        &addr,
        &ConnectPolicy {
            max_attempts: 1,
            ..ConnectPolicy::default()
        },
    );
    assert!(refused.is_err(), "stopped server must not accept sessions");
}

/// A client connected but idle when the server stops owes the drain
/// nothing: `stop()` closes its connection at once instead of waiting out
/// `shutdown_grace` (5 s by default), and the client sees the close.
#[test]
fn stop_with_an_idle_client_connected_returns_at_once() {
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyCoarse, 2);
    let mut session = RemoteSession::connect(&addr).unwrap();
    let insert = session
        .prepare(
            "insert",
            &["INSERT INTO bench0 (pk, val, pad) VALUES (?, ?, ?)"],
        )
        .unwrap();
    let row = vec![Value::Int(1_000), Value::Int(1), Value::Text("idle".into())];
    let (outcome, _) = session.run(insert, vec![row]).unwrap();
    assert!(outcome.committed);

    let stopping = Instant::now();
    server.stop();
    let took = stopping.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "stop() took {took:?} with an idle client connected"
    );
    assert!(session.ping().is_err(), "the idle connection was closed");
}

#[test]
fn remote_certifier_process_split_preserves_strong_consistency() {
    // The paper's deployment: certification and durability in their own
    // process, replicas reaching it over TCP. The cluster runs with a
    // RemoteCertifierLink instead of the in-process certifier. Under
    // Eager, every replica reports what it applied over the link and each
    // commit's global-commit notice comes back over it.
    for mode in [ConsistencyMode::LazyCoarse, ConsistencyMode::Eager] {
        let config = CertifierServerConfig::default();
        let certifier = CertifierServer::start("127.0.0.1:0", config).expect("certifier binds");
        let link = RemoteCertifierLink::connect(&certifier.local_addr().to_string())
            .expect("link connects");

        let workload = MicroBenchmark::small(0.5);
        let setup_workload = workload.clone();
        let cluster = Cluster::start_with_certifier_link(
            ClusterConfig {
                replicas: 3,
                mode,
                ..ClusterConfig::default()
            },
            move |engine| setup_workload.install(engine),
            Box::new(link),
        );

        // Hidden-channel round trips: agent A commits through the remote
        // certifier, agent B must immediately observe the write.
        let mut agent_a = cluster.connect();
        let mut agent_b = cluster.connect();
        for round in 1..=30 {
            agent_a
                .run_sql_with_retry(
                    &[(
                        "UPDATE bench1 SET val = ? WHERE pk = ?",
                        vec![Value::Int(round), Value::Int(5)],
                    )],
                    8,
                )
                .unwrap();
            let (_, results) = agent_b
                .run_sql(&[("SELECT val FROM bench1 WHERE pk = ?", vec![Value::Int(5)])])
                .unwrap();
            assert_eq!(
                results[0].rows().unwrap()[0][0],
                Value::Int(round),
                "{mode}: remote certification must not weaken strong consistency"
            );
        }
        cluster.shutdown();
        certifier.stop();
    }
}

/// A client that replays an idempotency key the dedup window has already
/// evicted gets a non-retryable error for that transaction alone, in both
/// deployments: the certifier keeps answering everyone else and the link to
/// a remote certifier stays up. (The refusal used to panic the in-process
/// certifier thread, after which no update was ever answered again, and to
/// drop the remote certifier's connection, aborting every client's
/// certifying transactions with an invitation to retry.)
#[test]
fn stale_idempotency_key_is_refused_to_its_transaction_alone() {
    for split in [false, true] {
        let workload = MicroBenchmark::small(0.5);
        let setup = move |engine: &mut bargain_storage::Engine| workload.install(engine);
        let config = ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyCoarse,
            ..ClusterConfig::default()
        };
        let (cluster, certifier) = if split {
            let certifier =
                CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
            let link = RemoteCertifierLink::connect(&certifier.local_addr().to_string()).unwrap();
            let cluster = Cluster::start_with_certifier_link(config, setup, Box::new(link));
            (cluster, Some(certifier))
        } else {
            (Cluster::start_with_setup(config, setup), None)
        };
        let (template, tables) = cluster
            .prepare_template("keyed", &["UPDATE bench0 SET val = ? WHERE pk = ?"])
            .unwrap();
        // Waits at most 5 s for the answer, so a certifier that stopped
        // answering fails the test instead of hanging it.
        let update = |session: &mut Session, val: u64, idem: Option<IdemKey>| {
            let (tx, rx) = crossbeam::channel::unbounded();
            let params = vec![vec![Value::Int(val as i64), Value::Int(1)]];
            session.submit(&template, tables.clone(), params, idem, move |result| {
                let _ = tx.send(result);
            });
            let result = rx.recv_timeout(Duration::from_secs(5));
            committed(result.expect("the update is answered within 5 s"))
        };

        // 66 keyed updates under one nonce: the window of 64 evicts seqs 1
        // and 2.
        let mut keyed = cluster.connect();
        for seq in 1..=66 {
            let key = IdemKey { client: 7, seq };
            update(&mut keyed, seq, Some(key)).expect("a fresh key commits");
        }
        let stale = update(&mut keyed, 1, Some(IdemKey { client: 7, seq: 1 })).unwrap_err();
        assert!(
            matches!(&stale, Error::SqlExecution(why) if why.contains("stale idempotency key")),
            "split {split}: {stale:?}"
        );
        assert!(!stale.is_retryable(), "split {split}: {stale:?}");

        let mut other = cluster.connect();
        update(&mut other, 1000, None).expect("a later update from another session commits");
        assert_eq!(cluster.stats().unwrap().certifier_downs, 0, "split {split}");
        cluster.shutdown();
        if let Some(certifier) = certifier {
            certifier.stop();
        }
    }
}

#[test]
fn cluster_restart_refetches_history_from_remote_certifier() {
    // Durability lives with the certifier process: a cluster that restarts
    // (fresh replicas, empty engines except static data) fast-forwards
    // through the certifier's history and serves the committed state.
    let dir = std::env::temp_dir().join(format!(
        "bargain-net-cert-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let certifier = CertifierServer::start(
        "127.0.0.1:0",
        CertifierServerConfig {
            wal_dir: Some(dir.clone()),
        },
    )
    .unwrap();
    let cert_addr = certifier.local_addr().to_string();
    let workload = MicroBenchmark::small(0.5);

    let start_cluster = |addr: &str| {
        let setup_workload = workload.clone();
        Cluster::start_with_certifier_link(
            ClusterConfig {
                replicas: 2,
                mode: ConsistencyMode::LazyCoarse,
                ..ClusterConfig::default()
            },
            move |engine| setup_workload.install(engine),
            Box::new(RemoteCertifierLink::connect(addr).unwrap()),
        )
    };

    let cluster = start_cluster(&cert_addr);
    let mut s = cluster.connect();
    s.run_sql(&[(
        "UPDATE bench0 SET val = ? WHERE pk = ?",
        vec![Value::Int(31337), Value::Int(9)],
    )])
    .unwrap();
    cluster.shutdown();

    // New cluster process, same certifier: the acked commit must be there.
    let cluster = start_cluster(&cert_addr);
    let mut s = cluster.connect();
    let (_, results) = s
        .run_sql(&[("SELECT val FROM bench0 WHERE pk = ?", vec![Value::Int(9)])])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(31337));
    cluster.shutdown();
    certifier.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_updates_through_remote_certifier_never_wait_out_a_poll_tick() {
    // One update at a time is the case the old blocking serve loop got
    // wrong: a lone `Certify` was certified at once, but its decision was
    // released only when a 100 ms idle poll timed out. On the event loop a
    // decision is queued in the turn that certified it, so 200 sequential
    // updates take milliseconds each, not 200 poll ticks.
    let certifier = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default())
        .expect("certifier binds");
    let link =
        RemoteCertifierLink::connect(&certifier.local_addr().to_string()).expect("link connects");
    let workload = MicroBenchmark::small(0.5);
    let setup_workload = workload.clone();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| setup_workload.install(engine),
        Box::new(link),
    );
    let mut session = cluster.connect();
    let started = Instant::now();
    for round in 1..=200 {
        let (outcome, _) = session
            .run_sql(&[(
                "UPDATE bench0 SET val = ? WHERE pk = ?",
                vec![Value::Int(round), Value::Int(3)],
            )])
            .unwrap();
        assert!(outcome.committed);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 sequential updates took {elapsed:?}: a decision waited on a timer"
    );
    // Batching follows the load: requests that arrive alone are certified
    // alone.
    let stats = certifier.stats();
    assert_eq!(stats.certify_frames, 200);
    assert_eq!(stats.batches, stats.certify_frames);
    assert_eq!(stats.largest_batch, 1);
    cluster.shutdown();
    certifier.stop();
}

#[test]
fn certify_burst_is_batched_and_answered_in_commit_order() {
    const FRAMES: u64 = 100;
    let certifier = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default())
        .expect("certifier binds");
    let mut raw = TcpStream::connect(certifier.local_addr()).expect("raw connect");

    // The cluster's introduction, then 100 non-conflicting certify
    // requests from 3 replicas, one write.
    let hello = Message::HelloAck {
        replicas: 3,
        mode: ConsistencyMode::LazyCoarse,
    };
    let mut burst = encode_frame(hello.kind(), 0, &hello.encode()).unwrap();
    for i in 0..FRAMES {
        let mut writeset = WriteSet::new();
        let key = Value::Int(i as i64);
        writeset.push(
            TableId(0),
            key.clone(),
            WriteOp::Update(vec![key, Value::Int(7)].into()),
        );
        let msg = Message::Certify(CertifyRequest {
            txn: TxnId(i + 1),
            replica: ReplicaId((i % 3) as u32),
            snapshot: Version::ZERO,
            writeset: Arc::new(writeset),
            idem: None,
        });
        burst.extend(encode_frame(msg.kind(), 0, &msg.encode()).unwrap());
    }
    raw.write_all(&burst).unwrap();

    // With no further input the service must answer all of them: per
    // commit a refresh for each of the two other replicas, then the
    // decision; commits in version order.
    let mut replies =
        Connection::from_stream(raw, Some(Duration::from_secs(10)), None).expect("wrap stream");
    let mut refreshes_at = std::collections::HashMap::new();
    for expected in 1..=FRAMES {
        loop {
            match replies.recv().expect("every certify is answered") {
                Message::RefreshFor { refresh, .. } => {
                    *refreshes_at.entry(refresh.commit_version).or_insert(0) += 1;
                }
                Message::Decision { origin, decision } => {
                    let CertifyDecision::Commit {
                        txn,
                        commit_version,
                    } = decision
                    else {
                        panic!("disjoint writesets must commit, got {decision:?}");
                    };
                    assert_eq!(commit_version, Version(expected), "commit order");
                    assert_eq!(txn, TxnId(expected), "arrival order");
                    assert_eq!(origin, ReplicaId(((expected - 1) % 3) as u32));
                    assert_eq!(
                        refreshes_at.get(&commit_version),
                        Some(&2),
                        "both refreshes of a commit precede its decision"
                    );
                    break;
                }
                other => panic!("unexpected delivery {other:?}"),
            }
        }
    }

    let stats = certifier.stats();
    assert_eq!(stats.certify_frames, FRAMES);
    assert!(
        stats.batches < FRAMES,
        "a burst decoded together must be certified together: {stats:?}"
    );
    assert!(
        stats.largest_batch > 1 && stats.largest_batch <= 64,
        "{stats:?}"
    );
    assert_eq!(stats.bytes_in, burst.len() as u64);
    // The loop counts the bytes it wrote once the write has returned, which
    // can be after this side has read them.
    let deadline = Instant::now() + Duration::from_secs(5);
    while certifier.stats().bytes_out == 0 {
        assert!(Instant::now() < deadline, "no bytes_out counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    certifier.stop();
}

#[test]
fn newest_certifier_connection_supersedes_a_half_open_one() {
    let certifier = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default())
        .expect("certifier binds");
    let addr = certifier.local_addr().to_string();

    // A peer that went silent without closing (what a partition without
    // FIN leaves behind) holds the service's one connection. The ping
    // proves it was accepted and is being served before it goes idle.
    let mut squatter = Connection::connect(addr.as_str(), &ConnectPolicy::default()).unwrap();
    assert!(matches!(squatter.call(&Message::Ping), Ok(Message::Pong)));

    // The reconnecting link must not queue behind it.
    let started = Instant::now();
    let mut link = RemoteCertifierLink::connect(&addr).expect("link connects");
    let history = link
        .history()
        .expect("history served to the newest connection");
    assert!(history.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the link waited {:?} behind a half-open connection",
        started.elapsed()
    );

    // The old socket was closed, not leaked.
    squatter
        .stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(squatter.stream().read(&mut [0u8; 1]).unwrap(), 0);
    let stats = certifier.stats();
    assert_eq!((stats.accepted, stats.superseded), (2, 1));
    certifier.stop();
}

/// One connection writes `Prepare, Run, Run, Stats, Run, Prepare, Run,
/// FetchHistory, Ddl, Prepare, Run, JoinRequest, Run` in a single
/// `write_all`. `Run`s and the other requests take different paths through
/// the server, yet the replies come back in request order with the right
/// ids, and each request saw the effects of the ones before it: the `Stats`
/// counts the updates ahead of it, the `FetchHistory` returns exactly the
/// commits made before it, the `Run` after the `Ddl` writes the new table,
/// and the snapshot stream imports at the version reached before it.
#[test]
fn mixed_pipeline_of_runs_and_requests_is_answered_in_request_order() {
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyFine, 3);
    let mut conn = Connection::connect(addr.as_str(), &ConnectPolicy::default()).unwrap();
    conn.call(&Message::Hello).unwrap();
    conn.call(&Message::OpenSession).unwrap();
    // Template ids come from one cluster-wide counter: learn where it is,
    // so the pipelined `Run`s can name templates not prepared yet.
    let probe = Message::Prepare {
        name: "probe".into(),
        sqls: vec!["SELECT val FROM bench0 WHERE pk = ?".into()],
    };
    let Message::Prepared { template: probe } = conn.call(&probe).unwrap() else {
        panic!("expected Prepared");
    };
    let (update, read, insert) = (
        bargain_common::TemplateId(probe.0 + 1),
        bargain_common::TemplateId(probe.0 + 2),
        bargain_common::TemplateId(probe.0 + 3),
    );
    let Message::StatsReply {
        commits: commits_before,
        v_system: v_before,
        ..
    } = conn.call(&Message::Stats).unwrap()
    else {
        panic!("expected StatsReply");
    };
    let version = |commits: u64| Version(v_before.0 + commits);

    let set = |val: i64| Message::Run {
        template: update,
        params: vec![vec![Value::Int(val), Value::Int(1)]],
        idem: None,
    };
    let get = Message::Run {
        template: read,
        params: vec![vec![Value::Int(1)]],
        idem: None,
    };
    let requests = [
        Message::Prepare {
            name: "set".into(),
            sqls: vec!["UPDATE bench0 SET val = ? WHERE pk = ?".into()],
        },
        set(11),
        set(12),
        Message::Stats,
        set(13),
        Message::Prepare {
            name: "get".into(),
            sqls: vec!["SELECT val FROM bench0 WHERE pk = ?".into()],
        },
        get.clone(),
        Message::FetchHistory { after: v_before },
        Message::Ddl {
            sql: "CREATE TABLE extra (id INT PRIMARY KEY, v INT)".into(),
        },
        Message::Prepare {
            name: "put".into(),
            sqls: vec!["INSERT INTO extra (id, v) VALUES (?, ?)".into()],
        },
        Message::Run {
            template: insert,
            params: vec![vec![Value::Int(1), Value::Int(14)]],
            idem: None,
        },
        Message::JoinRequest { chunk_bytes: 4096 },
        get,
    ];
    let mut burst = Vec::new();
    for (i, msg) in requests.iter().enumerate() {
        burst.extend(encode_frame(msg.kind(), 101 + i as u64, &msg.encode()).unwrap());
    }
    conn.stream().write_all(&burst).unwrap();

    // One reply per request, except the `JoinRequest`'s: a stream of frames
    // under its id.
    let last = 100 + requests.len() as u64;
    let mut replies: Vec<(u64, Message)> = Vec::new();
    while replies.last().is_none_or(|(id, _)| *id != last) {
        replies.push(conn.recv_tagged().unwrap());
    }
    let mut ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
    ids.dedup();
    assert_eq!(ids, (101..=last).collect::<Vec<u64>>());
    let answers: Vec<&Message> = replies
        .iter()
        .filter(|(id, _)| *id != 112)
        .map(|(_, msg)| msg)
        .collect();
    let committed_at = |msg: &Message| match msg {
        Message::TxnReply { outcome, .. } if outcome.committed => outcome.commit_version,
        other => panic!("expected a commit, got {other:?}"),
    };
    assert!(matches!(answers[0], Message::Prepared { template } if *template == update));
    assert_eq!(committed_at(answers[1]), Some(version(1)));
    assert_eq!(committed_at(answers[2]), Some(version(2)));
    // The `Stats` sits between the second and third update.
    assert!(
        matches!(answers[3], Message::StatsReply { commits, .. } if *commits == commits_before + 2)
    );
    assert_eq!(committed_at(answers[4]), Some(version(3)));
    assert!(matches!(answers[5], Message::Prepared { template } if *template == read));
    let Message::TxnReply { results, .. } = answers[6] else {
        panic!("expected TxnReply, got kind {}", answers[6].kind());
    };
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(13));
    // The `FetchHistory` returns the three updates before it, and nothing
    // else.
    let Message::History { records } = answers[7] else {
        panic!("expected History, got {:?}", answers[7]);
    };
    let caught_up: Vec<Version> = records.iter().map(|rec| rec.commit_version).collect();
    assert_eq!(caught_up, vec![version(1), version(2), version(3)]);
    assert_eq!(answers[8], &Message::Ack);
    assert!(matches!(answers[9], Message::Prepared { template } if *template == insert));
    assert_eq!(committed_at(answers[10]), Some(version(4)));
    let Message::TxnReply { results, .. } = answers[11] else {
        panic!("expected TxnReply, got kind {}", answers[11].kind());
    };
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(13));

    // The snapshot stream: chunks in index order, then the manifest, at the
    // version the insert reached, with the new table in it.
    let mut chunks = Vec::new();
    let mut manifest = None;
    for (_, msg) in replies.iter().filter(|(id, _)| *id == 112) {
        assert!(manifest.is_none(), "a frame after SnapshotDone");
        match msg {
            Message::SnapshotChunk { index, data } => {
                assert_eq!(*index as usize, chunks.len());
                chunks.push(data.clone());
            }
            Message::SnapshotDone { manifest: bytes } => {
                manifest = Some(bargain_storage::SnapshotManifest::decode(bytes).unwrap());
            }
            other => panic!("unexpected frame in the snapshot stream: {other:?}"),
        }
    }
    let manifest = manifest.expect("the stream ends with SnapshotDone");
    assert_eq!(manifest.version, version(4));
    let engine = bargain_storage::Engine::import_snapshot(&manifest, &chunks).unwrap();
    assert_eq!(engine.version(), version(4));
    assert!(engine.catalog().resolve("extra").is_ok());
    drop(conn);
    server.stop();
}

/// One `Prepare` frame carries 100 000 nested parentheses, 200 kB of SQL:
/// it gets an error reply, and the same connection then prepares and runs a
/// transaction. (The parser recursed once per parenthesis, and this frame
/// overflowed the stack of the server thread that parsed it, which aborted
/// the server's process.)
#[test]
fn a_prepare_of_100_000_parentheses_is_refused_and_the_connection_serves_on() {
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyFine, 3);
    let mut conn = Connection::connect(addr.as_str(), &ConnectPolicy::default()).unwrap();
    conn.call(&Message::Hello).unwrap();
    conn.call(&Message::OpenSession).unwrap();
    let (open, close) = ("(".repeat(100_000), ")".repeat(100_000));
    let deep = Message::Prepare {
        name: "deep".into(),
        sqls: vec![format!("SELECT val FROM bench0 WHERE pk = {open}1{close}")],
    };
    let refused = conn.call(&deep);
    assert!(matches!(refused, Err(Error::SqlParse(_))), "{refused:?}");

    let read = prepare(&mut conn, "SELECT val FROM bench0 WHERE pk = ?");
    let reply = conn.call(&run(read, vec![Value::Int(1)])).unwrap();
    assert!(matches!(reply, Message::TxnReply { outcome, .. } if outcome.committed));
    drop(conn);
    server.stop();
}

/// A `FetchHistory` reply carries at most `CATCH_UP_RECORDS` records, the
/// oldest first, so what the reactor reads and encodes for one is bounded;
/// the bootstrap client's `catch_up` repeats rounds until a reply comes
/// back short, and gets to `V_system`.
#[test]
fn catch_up_replies_are_capped_and_repeated_rounds_reach_v_system() {
    let (server, addr, workload) = micro_server(ConsistencyMode::LazyFine, 3);
    let mut writer = server.cluster().connect();
    for i in 0..CATCH_UP_RECORDS as i64 + 100 {
        let set = vec![Value::Int(i), Value::Int(i % 50 + 1)];
        writer
            .run_sql(&[("UPDATE bench0 SET val = ? WHERE pk = ?", set)])
            .unwrap();
    }
    let v_system = server.cluster().stats().unwrap().v_system;

    let mut conn = Connection::connect(addr.as_str(), &ConnectPolicy::default()).unwrap();
    let first = conn.call(&Message::FetchHistory {
        after: Version::ZERO,
    });
    let Ok(Message::History { records }) = first else {
        panic!("expected History, got {first:?}");
    };
    let versions: Vec<u64> = records.iter().map(|rec| rec.commit_version.0).collect();
    assert_eq!(
        versions,
        (1..=CATCH_UP_RECORDS as u64).collect::<Vec<u64>>()
    );

    // An engine at the setup's state replays the whole feed.
    let mut engine = bargain_storage::Engine::new();
    workload.install(&mut engine).unwrap();
    let from = engine.version();
    let applied = catch_up(&mut conn, &mut engine).unwrap();
    assert_eq!(engine.version(), v_system);
    assert_eq!(applied as u64, v_system.0 - from.0);
    assert!(applied > CATCH_UP_RECORDS);
    drop(conn);
    server.stop();
}

/// A certifier "service" that answers a replica's first certify request
/// with a refresh no engine can apply, which kills that replica's thread
/// with the update still in flight on it. Its loop runs on the link thread,
/// behind a channel that `request` feeds.
struct PoisonedLink(
    crossbeam::channel::Sender<bargain_cluster::CertifierRequest>,
    crossbeam::channel::Receiver<bargain_cluster::CertifierRequest>,
);

impl PoisonedLink {
    fn new() -> PoisonedLink {
        let (to_loop, requests) = crossbeam::channel::unbounded();
        PoisonedLink(to_loop, requests)
    }
}

impl CertifierLink for PoisonedLink {
    fn history(&mut self) -> bargain_common::Result<Vec<bargain_core::LogRecord>> {
        Ok(Vec::new())
    }

    fn request(&self, request: bargain_cluster::CertifierRequest) {
        let _ = self.0.send(request);
    }

    fn serve(&self, deliveries: bargain_cluster::CertifierDeliveries) {
        let requests = &self.1;
        for request in requests.iter() {
            match request {
                bargain_cluster::CertifierRequest::Step(
                    bargain_core::certifier::Input::Certify(req),
                ) => {
                    let mut writeset = WriteSet::new();
                    writeset.push(TableId(9_999), Value::Int(1), WriteOp::Delete);
                    let refresh = bargain_core::Refresh {
                        origin: ReplicaId(u32::MAX),
                        txn: TxnId(u64::MAX),
                        commit_version: Version(1),
                        writeset: Arc::new(writeset),
                    };
                    let _ = deliveries.send(bargain_cluster::CertifierDelivery::Deliver {
                        to: req.replica,
                        delivery: bargain_core::certifier::Delivery::Refresh(refresh),
                    });
                }
                bargain_cluster::CertifierRequest::Shutdown => return,
                _ => {}
            }
        }
    }
}

/// A replica dies with a client's transaction in flight: the cluster drops
/// that transaction's reply sink uncalled. The client must still get an
/// answer (an error), the server must keep serving on the other replicas,
/// and `NetServer::stop` must return within the grace bound — neither the
/// reactor's `quiesced()` nor `Cluster::drain` may wait for the dead
/// replica.
#[test]
fn transaction_abandoned_by_a_dead_replica_is_answered_and_stop_stays_bounded() {
    let workload = MicroBenchmark::small(0.3);
    let setup_workload = workload.clone();
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyCoarse,
            ..ClusterConfig::default()
        },
        move |engine| setup_workload.install(engine),
        Box::new(PoisonedLink::new()),
    );
    let server = NetServer::start("127.0.0.1:0", cluster).unwrap();
    let addr = server.local_addr().to_string();
    let mut session = RemoteSession::connect(&addr).unwrap();
    let update = session
        .prepare("set", &["UPDATE bench0 SET val = ? WHERE pk = ?"])
        .unwrap();
    let read = session
        .prepare("get", &["SELECT val FROM bench0 WHERE pk = ?"])
        .unwrap();

    let lost = session.run(update, vec![vec![Value::Int(5), Value::Int(1)]]);
    let Err(bargain_common::Error::Protocol(why)) = lost else {
        panic!("expected the abandoned transaction's error, got {lost:?}");
    };
    assert!(why.contains("abandoned"), "{why}");

    // Reads need no certifier and are routed around the dead replica.
    for _ in 0..20 {
        let (outcome, _) = session.run(read, vec![vec![Value::Int(1)]]).unwrap();
        assert!(outcome.committed);
    }
    let stats = server.cluster().stats().unwrap();
    assert_eq!((stats.routed, stats.commits, stats.aborts), (21, 20, 1));

    drop(session);
    let stopping = Instant::now();
    server.stop();
    assert!(
        stopping.elapsed() < Duration::from_secs(2),
        "stop waited for the dead replica: {:?}",
        stopping.elapsed()
    );
}

/// A client may send everything it has, half-close, and read until the
/// server closes: every request that arrived before the hang-up is owed its
/// reply, and the connection is reaped only once it is idle and empty. (The
/// loop used to take the level-triggered `EPOLLRDHUP` of a connection it
/// had stopped reading for a dead peer, and closed it with its queue and
/// its transaction in flight: 0 of 50 replies, the update committed and its
/// acknowledgement thrown away.)
#[test]
fn half_closed_connection_gets_every_reply_it_is_owed() {
    const ROUNDS: u64 = 20;
    const REQUESTS: u64 = 50;
    let (server, addr, _workload) = micro_server(ConsistencyMode::LazyCoarse, 3);
    let commits = |conn: &mut Connection| match conn.call(&Message::Stats).unwrap() {
        Message::StatsReply { commits, .. } => commits,
        other => panic!("expected StatsReply, got kind {}", other.kind()),
    };
    let mut updates_acked = 0;
    let mut commits_before = None;
    for round in 0..ROUNDS {
        let (mut conn, read) = raw_session(&addr, "SELECT val FROM bench0 WHERE pk = ?");
        let update = prepare(&mut conn, "UPDATE bench0 SET val = ? WHERE pk = ?");
        commits_before.get_or_insert_with(|| commits(&mut conn));

        // 49 reads and, in the middle, one update: the transaction most
        // likely to be in flight or queued when the hang-up is seen.
        let mut burst = Vec::new();
        for i in 0..REQUESTS {
            let msg = if i == REQUESTS / 2 {
                run(update, vec![Value::Int(round as i64), Value::Int(7)])
            } else {
                run(read, vec![Value::Int(i as i64 % 20 + 1)])
            };
            burst.extend(encode_frame(msg.kind(), 1000 + i, &msg.encode()).unwrap());
        }
        conn.stream().write_all(&burst).unwrap();
        conn.stream().shutdown(std::net::Shutdown::Write).unwrap();

        let mut answered = Vec::new();
        let closed = loop {
            match conn.recv_tagged() {
                Ok((id, Message::TxnReply { outcome, .. })) => {
                    assert!(outcome.committed, "round {round}, request {id}");
                    updates_acked += u64::from(outcome.commit_version.is_some());
                    answered.push(id);
                }
                Ok((id, other)) => panic!("request {id} answered with kind {}", other.kind()),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(closed, bargain_common::Error::ConnectionClosed(_)),
            "the server closes once everything is answered, got {closed:?}"
        );
        assert_eq!(
            answered,
            (1000..1000 + REQUESTS).collect::<Vec<u64>>(),
            "round {round}: every request answered, in request order"
        );
    }
    assert_eq!(updates_acked, ROUNDS);

    // Every acknowledged update is a commit the cluster counted.
    let mut conn = Connection::connect(addr.as_str(), &ConnectPolicy::default()).unwrap();
    conn.call(&Message::Hello).unwrap();
    let commits_after = commits(&mut conn);
    let reads = ROUNDS * (REQUESTS - 1);
    assert_eq!(commits_after - commits_before.unwrap(), ROUNDS + reads);
    drop(conn);
    server.stop();
}

/// Waits up to `within` for the cluster's view of its certifier to read
/// `up`, and returns how long that took.
fn await_certifier_up(cluster: &Cluster, up: bool, within: Duration) -> Duration {
    let started = Instant::now();
    while cluster.stats().unwrap().certifier_up != up {
        assert!(
            started.elapsed() < within,
            "certifier_up never read {up} within {within:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    started.elapsed()
}

/// The link's failure detector, held at both ends: a link with nothing to
/// send must keep itself alive on heartbeats alone, and a certifier that
/// hangs (every chunk held a full second, so no frame arrives in time)
/// must be declared down in bounded time, come back once it answers again,
/// and lose no exactly-once guarantee on the way. A partitioned link must
/// not hold up the cluster's drain.
#[test]
fn an_idle_split_link_stays_up_and_a_hung_certifier_is_declared_down() {
    const BURST_AT_MS: u64 = 2_000;
    const BURST_MS: u64 = 1_500;
    let link_config = CertifierLinkConfig {
        heartbeat_interval: Duration::from_millis(80),
        heartbeat_timeout: Duration::from_millis(400),
        reconnect_pause: Duration::from_millis(50),
    };
    let certifier = CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default())
        .expect("certifier binds");
    let start = |plan: NetFaultPlan| {
        let proxy = ChaosProxy::start(&certifier.local_addr().to_string(), plan).unwrap();
        let link = RemoteCertifierLink::connect_with_config(
            &proxy.local_addr().to_string(),
            &ConnectPolicy::default(),
            link_config.clone(),
        )
        .expect("link connects");
        let workload = MicroBenchmark::small(0.5);
        let cluster = Cluster::start_with_certifier_link(
            ClusterConfig {
                replicas: 3,
                mode: ConsistencyMode::LazyFine,
                ..ClusterConfig::default()
            },
            move |engine| workload.install(engine),
            Box::new(link),
        );
        (proxy, cluster)
    };
    let hung = NetFaultPlan::none().with(
        BURST_AT_MS,
        NetFaultKind::LatencyBurst {
            extra_us: 1_000_000,
            duration_ms: BURST_MS,
        },
    );
    let began = Instant::now();
    let (proxy, cluster) = start(hung);
    let mut session = cluster.connect();
    let increment = "UPDATE bench0 SET val = val + 1 WHERE pk = ?";
    let read = |session: &mut Session| {
        let (_, results) = session
            .run_sql(&[("SELECT val FROM bench0 WHERE pk = ?", vec![Value::Int(4)])])
            .unwrap();
        match results[0].rows().unwrap()[0][0] {
            Value::Int(val) => val,
            ref other => panic!("val is an INT, read {other:?}"),
        }
    };

    // Idle: heartbeats alone keep the link up.
    std::thread::sleep(Duration::from_millis(1_500));
    assert_eq!(
        cluster.stats().unwrap().certifier_downs,
        0,
        "an idle link flapped"
    );
    let (outcome, _) = session
        .run_sql(&[(increment, vec![Value::Int(4)])])
        .unwrap();
    assert!(outcome.committed, "{:?}", outcome.abort_reason);
    let before = read(&mut session);

    // Hung: declared down within a second of the burst's start.
    let burst = Duration::from_millis(BURST_AT_MS);
    std::thread::sleep(burst.saturating_sub(began.elapsed()));
    let down_after = await_certifier_up(&cluster, false, Duration::from_secs(1));
    assert!(down_after < Duration::from_secs(1), "{down_after:?}");

    // Back once the certifier answers again; a keyed increment retried
    // across whatever is left of the outage applies once.
    let healed = Duration::from_millis(BURST_AT_MS + BURST_MS);
    std::thread::sleep(healed.saturating_sub(began.elapsed()));
    await_certifier_up(&cluster, true, Duration::from_secs(5));
    let (template, tables) = cluster.prepare_template("incr", &[increment]).unwrap();
    let key = IdemKey {
        client: 0xB0B,
        seq: 1,
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut keyed = || loop {
        let params = vec![vec![Value::Int(4)]];
        match session.run_prepared_keyed(&template, tables.clone(), params, Some(key)) {
            Ok((outcome, _)) => break outcome.commit_version,
            Err(e) if e.is_retryable() && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("the keyed increment failed: {e}"),
        }
    };
    let first = keyed();
    assert!(first.is_some());
    assert_eq!(keyed(), first, "a replayed key reports its first commit");
    let after = read(&mut session);
    assert_eq!(after, before + 1, "the keyed increment applied once");
    cluster.shutdown();
    proxy.stop();

    // Partitioned: the drain does not wait for the link.
    let partition = NetFaultPlan::none().with(300, NetFaultKind::Partition { duration_ms: 5_000 });
    let (proxy, cluster) = start(partition);
    await_certifier_up(&cluster, false, Duration::from_secs(2));
    let draining = Instant::now();
    cluster.drain();
    assert!(
        draining.elapsed() < Duration::from_secs(2),
        "the drain took {:?}",
        draining.elapsed()
    );
    proxy.stop();
    certifier.stop();
}
