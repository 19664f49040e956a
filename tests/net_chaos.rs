//! End-to-end network fault tolerance: the full middleware stack — remote
//! clients, frontend server, cluster runtime, certifier — driven through a
//! fault-injecting TCP proxy ([`bargain::net::ChaosProxy`]) under
//! seed-derived schedules of partitions, latency bursts, frame corruption,
//! connection kills, and mid-frame truncation.
//!
//! The invariants, checked from the client side of the wire:
//!
//! - **No lost acks**: every increment acknowledged as committed is in the
//!   final state.
//! - **No duplicate applications**: no logical transaction's effect
//!   appears twice, no matter how many times its wire request was retried
//!   (exactly-once via durable idempotency keys).
//! - **Strong consistency**: the paper's guarantee, asserted by
//!   [`ConsistencyChecker`] over every acknowledged commit and read
//!   snapshot — zero violations under chaos.
//!
//! The detector workload is a ledger of per-client counters incremented by
//! `UPDATE ledger SET val = val + 1 WHERE id = ?`: a lost commit makes the
//! final value fall short of the acks, a duplicated one makes it overshoot.

use bargain::cluster::{Cluster, ClusterConfig};
use bargain::common::{
    ConsistencyMode, Error, IdemKey, SessionId, TableId, TableSet, TxnId, Value, Version,
};
use bargain::core::ConsistencyChecker;
use bargain::net::{
    CertifierLinkConfig, CertifierServer, CertifierServerConfig, ChaosProxy, ConnectPolicy,
    Connection, Message, NetFaultKind, NetFaultPlan, NetServer, NetServerConfig,
    RemoteCertifierLink, RemoteSession,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LEDGER_DDL: &str = "CREATE TABLE ledger (id INT PRIMARY KEY, val INT)";
/// A second table, for the transactions whose writeset spans two.
const LEDGER2_DDL: &str = "CREATE TABLE ledger2 (id INT PRIMARY KEY, val INT)";
const PAIR_INCR: [&str; 2] = [
    "UPDATE ledger SET val = val + 1 WHERE id = ?",
    "UPDATE ledger2 SET val = val + 1 WHERE id = ?",
];

/// A connect policy tuned for chaos: fast, bounded, plenty of attempts so
/// a partition shorter than the retry budget is always survivable.
fn chaos_policy() -> ConnectPolicy {
    ConnectPolicy {
        max_attempts: 12,
        initial_backoff: Duration::from_millis(15),
        max_backoff: Duration::from_millis(200),
        max_total: Some(Duration::from_secs(10)),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ConnectPolicy::default()
    }
}

/// Milliseconds after the proxy starts by which every fault of `plan` has
/// fired and every window it opened has closed. A corruption or truncation
/// fires on the next chunk after its time, which a heartbeat brings.
fn plan_end_ms(plan: &NetFaultPlan) -> u64 {
    let end = |at_ms, kind| match kind {
        NetFaultKind::Partition { duration_ms }
        | NetFaultKind::LatencyBurst { duration_ms, .. } => at_ms + duration_ms,
        _ => at_ms,
    };
    plan.events
        .iter()
        .map(|e| end(e.at_ms, e.kind))
        .max()
        .unwrap_or(0)
}

/// Starts a cluster with a ledger of `rows` zeroed counters and serves it
/// over TCP.
fn ledger_server(mode: ConsistencyMode, replicas: usize, rows: i64) -> (NetServer, String) {
    let cluster = Cluster::start(ClusterConfig {
        replicas,
        mode,
        ..ClusterConfig::default()
    });
    cluster.execute_ddl(LEDGER_DDL).expect("ledger DDL");
    {
        let mut admin = cluster.connect();
        for id in 0..rows {
            admin
                .run_sql(&[(
                    "INSERT INTO ledger (id, val) VALUES (?, ?)",
                    vec![Value::Int(id), Value::Int(0)],
                )])
                .expect("seed ledger row");
        }
    }
    let server = NetServer::start("127.0.0.1:0", cluster).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Reads one ledger counter through a *direct* (chaos-free) connection.
fn read_counter(session: &mut RemoteSession, id: i64) -> i64 {
    let (_, results) = session
        .run_sql(&[("SELECT val FROM ledger WHERE id = ?", vec![Value::Int(id)])])
        .expect("final read");
    match results[0].rows().expect("rows")[0][0] {
        Value::Int(v) => v,
        ref other => panic!("expected Int, got {other:?}"),
    }
}

/// What one chaos client observed: increments acknowledged committed, and
/// increments whose outcome stayed in doubt after exhausting retries.
struct ClientTally {
    acked: i64,
    in_doubt: i64,
}

/// One closed-loop client driving `txns` increments of its own ledger row
/// through the chaos proxy, with a read of its row every third transaction
/// (so the consistency checker sees snapshots, and monotonicity of its own
/// counter is asserted online).
#[allow(clippy::too_many_arguments)]
fn chaos_client(
    proxy_addr: &str,
    k: i64,
    txns: usize,
    spacing: Duration,
    checker: &Mutex<ConsistencyChecker>,
    placeholder_ids: &AtomicU64,
) -> ClientTally {
    let ledger_tables: TableSet = [TableId(0)].into_iter().collect();
    let mut session =
        RemoteSession::connect_with(proxy_addr, &chaos_policy()).expect("client connects");
    let incr = session
        .prepare(
            "chaos.incr",
            &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
        )
        .expect("prepare increment");
    let read = session
        .prepare("chaos.read", &["SELECT val FROM ledger WHERE id = ?"])
        .expect("prepare read");

    let mut tally = ClientTally {
        acked: 0,
        in_doubt: 0,
    };
    for t in 0..txns {
        std::thread::sleep(spacing);
        // Increment. Conflict-free by construction (each client owns its
        // row), so definitive aborts should not happen; transport errors
        // that survive RemoteSession's own exactly-once retry loop are
        // recorded as in-doubt and abandoned.
        let placeholder = TxnId(placeholder_ids.fetch_add(1, Ordering::SeqCst));
        checker.lock().unwrap().record_issue(
            placeholder,
            SessionId(k as u64),
            Some(ledger_tables.clone()),
        );
        match session.run(incr, vec![vec![Value::Int(k)]]) {
            Ok((outcome, _)) => {
                assert!(outcome.committed);
                let v = outcome.commit_version.expect("update commits at a version");
                let mut c = checker.lock().unwrap();
                c.record_snapshot(placeholder, v);
                c.record_ack_with_tables(placeholder, Some(v), outcome.tables_written.clone());
                tally.acked += 1;
            }
            Err(Error::Timeout(_))
            | Err(Error::ConnectionClosed(_))
            | Err(Error::Io(_))
            | Err(Error::Codec(_)) => {
                // Outcome unknown even after replays: the increment may or
                // may not be in the final state.
                tally.in_doubt += 1;
            }
            Err(Error::Unavailable(reason)) if reason.contains("retry-after") => {
                // Shed after the retry budget: definitively not committed.
            }
            Err(e) => panic!("client {k} txn {t}: unexpected error: {e}"),
        }

        // Periodic read: a strongly consistent snapshot must show at least
        // this client's own acknowledged increments.
        if t % 3 == 2 {
            let placeholder = TxnId(placeholder_ids.fetch_add(1, Ordering::SeqCst));
            checker.lock().unwrap().record_issue(
                placeholder,
                SessionId(k as u64),
                Some(ledger_tables.clone()),
            );
            // A failed read carries no obligation; any transport error was
            // already chased by the session's retry loop.
            if let Ok((outcome, results)) = session.run(read, vec![vec![Value::Int(k)]]) {
                let mut c = checker.lock().unwrap();
                c.record_snapshot(placeholder, outcome.observed_version);
                c.record_ack(placeholder, None);
                drop(c);
                let seen = match results[0].rows().expect("rows")[0][0] {
                    Value::Int(v) => v,
                    ref other => panic!("expected Int, got {other:?}"),
                };
                assert!(
                    seen >= tally.acked,
                    "client {k}: read {seen} but {} increments were already acked — \
                     a strongly consistent snapshot lost acknowledged commits",
                    tally.acked
                );
            }
        }
    }
    tally
}

/// The headline sweep: one seeded chaos schedule end to end.
fn run_chaos_schedule(mode: ConsistencyMode, seed: u64) {
    const CLIENTS: i64 = 3;
    const TXNS: usize = 12;
    const HORIZON_MS: u64 = 1_000;

    let (server, server_addr) = ledger_server(mode, 3, CLIENTS);
    let plan = NetFaultPlan::random(seed, HORIZON_MS);
    assert!(!plan.is_empty(), "seeded plans always inject something");
    let proxy = ChaosProxy::start(&server_addr, plan).expect("proxy starts");
    let proxy_addr = proxy.local_addr().to_string();

    let checker = Arc::new(Mutex::new(ConsistencyChecker::new()));
    let placeholder_ids = Arc::new(AtomicU64::new(1));
    let mut handles = Vec::new();
    for k in 0..CLIENTS {
        let proxy_addr = proxy_addr.clone();
        let checker = Arc::clone(&checker);
        let placeholder_ids = Arc::clone(&placeholder_ids);
        handles.push(std::thread::spawn(move || {
            chaos_client(
                &proxy_addr,
                k,
                TXNS,
                Duration::from_millis(70),
                &checker,
                &placeholder_ids,
            )
        }));
    }
    let tallies: Vec<ClientTally> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    proxy.stop();

    // Verify through a direct, chaos-free connection.
    let mut reader = RemoteSession::connect(&server_addr).expect("direct read session");
    let mut total_acked = 0;
    for (k, tally) in tallies.iter().enumerate() {
        let v = read_counter(&mut reader, k as i64);
        assert!(
            v >= tally.acked,
            "seed {seed} {mode}: client {k} acked {} increments but the ledger shows {v} \
             — an acknowledged commit was lost",
            tally.acked
        );
        assert!(
            v <= tally.acked + tally.in_doubt,
            "seed {seed} {mode}: client {k} ledger shows {v}, more than acked {} plus \
             in-doubt {} — a retried transaction was applied twice",
            tally.acked,
            tally.in_doubt
        );
        total_acked += tally.acked;
    }
    assert!(
        total_acked > 0,
        "seed {seed} {mode}: chaos must not starve the workload completely"
    );

    let c = checker.lock().unwrap();
    let violations = c.violations_for(mode);
    assert!(
        violations.is_empty(),
        "seed {seed} {mode}: {} consistency violations under chaos, first: {:?}",
        violations.len(),
        violations.first()
    );
    drop(c);
    server.stop();
}

#[test]
fn chaos_seed_sweep_lazy_coarse() {
    for seed in 0..10 {
        run_chaos_schedule(ConsistencyMode::LazyCoarse, seed);
    }
}

#[test]
fn chaos_seed_sweep_lazy_fine() {
    for seed in 10..20 {
        run_chaos_schedule(ConsistencyMode::LazyFine, seed);
    }
}

/// Polls the cluster's view of certifier health until it matches `want`.
fn await_certifier_health(cluster: &Cluster, want: bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let up = cluster.stats().expect("stats").certifier_up;
        if up == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for certifier_up == {want} ({what})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Idempotency across a certifier crash-restart: a commit acknowledged
/// before the crash is deduplicated when its key is replayed against the
/// recovered certifier — the retry reports the *original* commit version
/// and the counter moves exactly once. Also exercises the failure-detector
/// round trip the load balancer sees: `certifier_up` flips false on the
/// outage (heartbeat/connection deadline) and back to true after the
/// restart, with updates shed (`retry-after`) in between. A second keyed
/// commit writes two tables in one transaction: neither half of its
/// increment may apply twice.
#[test]
fn certifier_restart_deduplicates_replayed_idempotency_key() {
    let dir = std::env::temp_dir().join(format!(
        "bargain-chaos-cert-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cert_config = CertifierServerConfig {
        wal_dir: Some(dir.clone()),
    };
    let certifier = CertifierServer::start("127.0.0.1:0", cert_config.clone()).unwrap();
    let cert_addr = certifier.local_addr().to_string();

    let link = RemoteCertifierLink::connect_with_config(
        &cert_addr,
        &chaos_policy(),
        CertifierLinkConfig {
            heartbeat_interval: Duration::from_millis(80),
            heartbeat_timeout: Duration::from_millis(400),
            reconnect_pause: Duration::from_millis(50),
        },
    )
    .expect("link connects");
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: 2,
            mode: ConsistencyMode::LazyCoarse,
            ..ClusterConfig::default()
        },
        |_| Ok(()),
        Box::new(link),
    );
    cluster.execute_ddl(LEDGER_DDL).unwrap();
    cluster.execute_ddl(LEDGER2_DDL).unwrap();
    let (template, table_set) = cluster
        .prepare_template(
            "restart.incr",
            &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
        )
        .unwrap();
    let (pair, pair_tables) = cluster
        .prepare_template("restart.incr_pair", &PAIR_INCR)
        .unwrap();
    let mut session = cluster.connect();
    session
        .run_sql(&[
            (
                "INSERT INTO ledger (id, val) VALUES (?, ?)",
                vec![Value::Int(0), Value::Int(0)],
            ),
            (
                "INSERT INTO ledger (id, val) VALUES (?, ?)",
                vec![Value::Int(1), Value::Int(0)],
            ),
            (
                "INSERT INTO ledger2 (id, val) VALUES (?, ?)",
                vec![Value::Int(1), Value::Int(0)],
            ),
        ])
        .unwrap();

    // Commit once under an explicit idempotency key.
    let key = IdemKey {
        client: 0xB0B,
        seq: 7,
    };
    let (outcome, _) = session
        .run_prepared_keyed(
            &template,
            table_set.clone(),
            vec![vec![Value::Int(0)]],
            Some(key),
        )
        .expect("original commit");
    let original_version = outcome.commit_version.expect("committed at a version");
    // And once more over two tables (row 1 of each), under its own key.
    let pair_key = IdemKey {
        client: 0xB0B,
        seq: 9,
    };
    let pair_params = vec![vec![Value::Int(1)], vec![Value::Int(1)]];
    let (outcome, _) = session
        .run_prepared_keyed(
            &pair,
            pair_tables.clone(),
            pair_params.clone(),
            Some(pair_key),
        )
        .expect("original two-table commit");
    let pair_version = outcome.commit_version.expect("committed at a version");

    // Crash the certifier process. The link's failure detector must flip
    // the cluster's health view, and updates must be shed with an explicit
    // retry-after while it is down. The stop itself rides the service's
    // wakeup pipe: with the link connected and idle it must not wait out a
    // poll tick.
    let stopping = Instant::now();
    certifier.stop();
    assert!(
        stopping.elapsed() < Duration::from_millis(50),
        "stopping an idle connected certifier took {:?}",
        stopping.elapsed()
    );
    await_certifier_health(&cluster, false, "after certifier stop");
    let err = session
        .run_prepared_keyed(
            &template,
            table_set.clone(),
            vec![vec![Value::Int(0)]],
            Some(IdemKey {
                client: 0xB0B,
                seq: 8,
            }),
        )
        .expect_err("updates are shed while the certifier is down");
    match &err {
        Error::Unavailable(reason) => assert!(
            reason.contains("retry-after"),
            "shed reason must carry the retry-after marker, got: {reason}"
        ),
        other => panic!("expected Unavailable while down, got {other:?}"),
    }

    // Restart on the same port with the same WAL: recovery rebuilds the
    // idempotency index from the durable log.
    let certifier = CertifierServer::start(&cert_addr, cert_config).expect("restart on same port");
    await_certifier_health(&cluster, true, "after certifier restart");

    // Replay the original key, as a client whose ack was lost would. The
    // recovered certifier must answer with the original commit — not
    // apply the increment a second time.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut replay = |template, tables: &TableSet, params: &[Vec<Value>], key| loop {
        match session.run_prepared_keyed(template, tables.clone(), params.to_vec(), Some(key)) {
            Ok((outcome, _)) => break outcome,
            Err(Error::Unavailable(reason)) if reason.contains("retry-after") => {
                assert!(Instant::now() < deadline, "replay never admitted");
                std::thread::sleep(Duration::from_millis(30));
            }
            Err(e) => panic!("replay failed: {e}"),
        }
    };
    let replayed = replay(&template, &table_set, &[vec![Value::Int(0)]], key);
    assert_eq!(
        replayed.commit_version,
        Some(original_version),
        "the replay must report the original commit, not a new one"
    );
    let replayed = replay(&pair, &pair_tables, &pair_params, pair_key);
    assert_eq!(
        replayed.commit_version,
        Some(pair_version),
        "the replay must report the original two-table commit"
    );

    let (_, results) = session
        .run_sql(&[("SELECT val FROM ledger WHERE id = ?", vec![Value::Int(0)])])
        .unwrap();
    assert_eq!(
        results[0].rows().unwrap()[0][0],
        Value::Int(1),
        "the increment must be applied exactly once across the restart"
    );
    let (_, results) = session
        .run_sql(&[
            ("SELECT val FROM ledger WHERE id = ?", vec![Value::Int(1)]),
            ("SELECT val FROM ledger2 WHERE id = ?", vec![Value::Int(1)]),
        ])
        .unwrap();
    for half in &results {
        assert_eq!(
            half.rows().unwrap()[0][0],
            Value::Int(1),
            "neither half of the two-table increment may apply twice"
        );
    }

    cluster.drain();
    certifier.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos on the *certifier link*: partitions and kills between the cluster
/// and its certification service. Swept transactions (aborted with
/// "outcome unknown" when the link drops) are retried under their original
/// idempotency keys, so the certifier's dedup — not client guesswork —
/// decides whether the increment already happened. Exactly-once must hold:
/// every counter equals its acknowledged increments, no more, no less.
/// Every other transaction increments a second table's counter too, in the
/// same writeset: both halves must equal their acks.
#[test]
fn certifier_link_chaos_is_exactly_once() {
    for seed in [21u64, 22, 23] {
        const CLIENTS: i64 = 3;
        const TXNS: u64 = 12;

        let certifier =
            CertifierServer::start("127.0.0.1:0", CertifierServerConfig::default()).unwrap();
        let plan = NetFaultPlan::random(seed, 1_200);
        let plan_end = Duration::from_millis(plan_end_ms(&plan));
        let proxy = ChaosProxy::start(&certifier.local_addr().to_string(), plan).unwrap();
        // No later than the proxy's clock.
        let proxy_started = Instant::now();
        let link_config = CertifierLinkConfig {
            heartbeat_interval: Duration::from_millis(80),
            heartbeat_timeout: Duration::from_millis(400),
            reconnect_pause: Duration::from_millis(50),
        };
        let quiet = plan_end + link_config.heartbeat_timeout;
        let link = RemoteCertifierLink::connect_with_config(
            &proxy.local_addr().to_string(),
            &chaos_policy(),
            link_config,
        )
        .expect("link through chaos proxy");
        let cluster = Cluster::start_with_certifier_link(
            ClusterConfig {
                replicas: 3,
                mode: ConsistencyMode::LazyCoarse,
                ..ClusterConfig::default()
            },
            |_| Ok(()),
            Box::new(link),
        );
        cluster.execute_ddl(LEDGER_DDL).unwrap();
        cluster.execute_ddl(LEDGER2_DDL).unwrap();
        let (template, table_set) = cluster
            .prepare_template(
                "linkchaos.incr",
                &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
            )
            .unwrap();
        let (pair, pair_tables) = cluster
            .prepare_template("linkchaos.incr_pair", &PAIR_INCR)
            .unwrap();
        {
            let mut admin = cluster.connect();
            for id in 0..CLIENTS {
                admin
                    .run_sql(&[
                        (
                            "INSERT INTO ledger (id, val) VALUES (?, ?)",
                            vec![Value::Int(id), Value::Int(0)],
                        ),
                        (
                            "INSERT INTO ledger2 (id, val) VALUES (?, ?)",
                            vec![Value::Int(id), Value::Int(0)],
                        ),
                    ])
                    .unwrap();
            }
        }

        let mut handles = Vec::new();
        for k in 0..CLIENTS {
            let mut session = cluster.connect();
            let single = (Arc::clone(&template), table_set.clone());
            let pair = (Arc::clone(&pair), pair_tables.clone());
            handles.push(std::thread::spawn(move || {
                let mut acked = 0i64;
                let mut acked_pairs = 0i64;
                for seq in 1..=TXNS {
                    std::thread::sleep(Duration::from_millis(60));
                    // One logical transaction = one key, held across every
                    // retry until the outcome is definitive.
                    let key = IdemKey {
                        client: 0xC0DE_0000 + k as u64,
                        seq,
                    };
                    let is_pair = seq % 2 == 0;
                    let (template, table_set) = if is_pair { &pair } else { &single };
                    let params = vec![vec![Value::Int(k)]; template.statements.len()];
                    let deadline = Instant::now() + Duration::from_secs(15);
                    loop {
                        match session.run_prepared_keyed(
                            template,
                            table_set.clone(),
                            params.clone(),
                            Some(key),
                        ) {
                            Ok((outcome, _)) => {
                                assert!(outcome.committed);
                                acked += 1;
                                acked_pairs += i64::from(is_pair);
                                break;
                            }
                            Err(Error::Unavailable(reason)) if reason.contains("retry-after") => {
                                assert!(
                                    Instant::now() < deadline,
                                    "client {k} seq {seq}: outage never healed"
                                );
                                std::thread::sleep(Duration::from_millis(30));
                            }
                            Err(e) => panic!("client {k} seq {seq}: unexpected error: {e}"),
                        }
                    }
                }
                (acked, acked_pairs)
            }));
        }
        let (acked, acked_pairs): (Vec<i64>, Vec<i64>) =
            handles.into_iter().map(|h| h.join().unwrap()).unzip();
        // The clients may finish before the plan's last fault: a link that
        // drops after the health wait sheds the reads below. So the reads
        // wait until every fault has fired and its outage has had a
        // heartbeat deadline to show, then for the link to be up.
        std::thread::sleep(quiet.saturating_sub(proxy_started.elapsed()));
        await_certifier_health(&cluster, true, "after link chaos");

        let mut reader = cluster.connect();
        for k in 0..CLIENTS {
            let (_, results) = reader
                .run_sql(&[("SELECT val FROM ledger WHERE id = ?", vec![Value::Int(k)])])
                .unwrap();
            assert_eq!(
                results[0].rows().unwrap()[0][0],
                Value::Int(acked[k as usize]),
                "seed {seed}: client {k} must see exactly its acked increments — \
                 sweeps + idempotent replay must neither lose nor duplicate"
            );
            let (_, results) = reader
                .run_sql(&[("SELECT val FROM ledger2 WHERE id = ?", vec![Value::Int(k)])])
                .unwrap();
            assert_eq!(
                results[0].rows().unwrap()[0][0],
                Value::Int(acked_pairs[k as usize]),
                "seed {seed}: client {k}: the second half of the two-table increments"
            );
        }

        cluster.drain();
        proxy.stop();
        certifier.stop();
    }
}

/// Overload shedding: with the admission bound at one in-flight
/// transaction and four hammering clients, the server must shed (with the
/// retry-after marker the client retry loop honors) and still lose or
/// duplicate nothing.
#[test]
fn overload_shedding_sheds_and_loses_nothing() {
    const CLIENTS: i64 = 4;
    const TXNS: i64 = 15;

    let cluster = Cluster::start(ClusterConfig {
        replicas: 2,
        mode: ConsistencyMode::LazyCoarse,
        ..ClusterConfig::default()
    });
    cluster.execute_ddl(LEDGER_DDL).unwrap();
    {
        let mut admin = cluster.connect();
        for id in 0..CLIENTS {
            admin
                .run_sql(&[(
                    "INSERT INTO ledger (id, val) VALUES (?, ?)",
                    vec![Value::Int(id), Value::Int(0)],
                )])
                .unwrap();
        }
    }
    let server = NetServer::start_with_config(
        "127.0.0.1:0",
        cluster,
        NetServerConfig {
            max_inflight: Some(1),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut handles = Vec::new();
    for k in 0..CLIENTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let policy = ConnectPolicy {
                max_attempts: 40,
                initial_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(30),
                ..ConnectPolicy::default()
            };
            let mut session = RemoteSession::connect_with(&addr, &policy).unwrap();
            let incr = session
                .prepare(
                    "shed.incr",
                    &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
                )
                .unwrap();
            for _ in 0..TXNS {
                // RemoteSession retries retry-after sheds internally.
                let (outcome, _) = session.run(incr, vec![vec![Value::Int(k)]]).unwrap();
                assert!(outcome.committed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        server.stats().shed > 0,
        "four hammering clients against a one-transaction bound must shed"
    );
    let mut reader = RemoteSession::connect(&addr).unwrap();
    for k in 0..CLIENTS {
        assert_eq!(
            read_counter(&mut reader, k),
            TXNS,
            "every shed-then-retried increment lands exactly once"
        );
    }
    server.stop();
}

/// `NetServer::stop` must complete even while a connect storm is racing
/// the acceptor and a half-open peer sits blocked mid-frame (the shutdown
/// watchdog force-closes it after the grace period).
#[test]
fn drain_races_connect_storm_and_half_open_peer() {
    let cluster = Cluster::start(ClusterConfig {
        replicas: 2,
        mode: ConsistencyMode::LazyCoarse,
        ..ClusterConfig::default()
    });
    cluster.execute_ddl(LEDGER_DDL).unwrap();
    let server = NetServer::start_with_config(
        "127.0.0.1:0",
        cluster,
        NetServerConfig {
            poll_interval: Duration::from_millis(20),
            shutdown_grace: Duration::from_millis(300),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Half-open peer: a valid header promising a payload that never
    // arrives. The reactor's incremental decoder parks mid-frame; only the
    // drain deadline (or the mid-frame stall sweep) can reclaim it.
    let mut half_open = std::net::TcpStream::connect(&addr).unwrap();
    {
        use std::io::Write;
        let msg = bargain::net::Message::Stats;
        let frame =
            bargain::net::frame::encode_frame(msg.kind(), 1, &msg.encode()).expect("encode frame");
        half_open.write_all(&frame[..frame.len() - 2]).unwrap();
        half_open.flush().unwrap();
        // Kept open: no EOF for the server to notice.
    }

    // Connect storm racing the stop.
    let stop_storm = Arc::new(AtomicBool::new(false));
    let storm = {
        let addr = addr.clone();
        let stop_storm = Arc::clone(&stop_storm);
        std::thread::spawn(move || {
            let mut attempts = 0;
            while !stop_storm.load(Ordering::SeqCst) && attempts < 500 {
                attempts += 1;
                if let Ok(mut s) = RemoteSession::connect_with(
                    &addr,
                    &ConnectPolicy {
                        max_attempts: 1,
                        read_timeout: Some(Duration::from_millis(200)),
                        ..ConnectPolicy::default()
                    },
                ) {
                    let _ = s.ping();
                }
                // Raw connects that never speak the protocol.
                let _ = std::net::TcpStream::connect(&addr);
            }
        })
    };

    std::thread::sleep(Duration::from_millis(100));
    let stopped_at = Instant::now();
    server.stop();
    // The waker pipe makes stop latency independent of the poll interval:
    // the reactor observes the flag immediately, closes the listener, and
    // force-closes the half-open peer at the 300ms drain deadline. The
    // budget below is grace + worker/cluster teardown slack — far tighter
    // than the old thread-per-connection bound, which had to wait out idle
    // poll cadences on every blocked connection.
    assert!(
        stopped_at.elapsed() < Duration::from_secs(3),
        "stop must be bounded by the shutdown grace (waker-interrupted \
         reactor), not hang on half-open peers or the connect storm"
    );
    stop_storm.store(true, Ordering::SeqCst);
    storm.join().unwrap();
    drop(half_open);
}

/// The heartbeat surface end to end: a remote client's ping round-trips
/// through the frontend, and version floors survive it (sanity that Ping
/// frames coexist with the session protocol on one connection).
#[test]
fn ping_coexists_with_transactions_on_one_connection() {
    let (server, addr) = ledger_server(ConsistencyMode::LazyFine, 2, 1);
    let mut session = RemoteSession::connect(&addr).unwrap();
    let incr = session
        .prepare(
            "ping.incr",
            &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
        )
        .unwrap();
    for _ in 0..5 {
        session.ping().expect("pong");
        let (outcome, _) = session.run(incr, vec![vec![Value::Int(0)]]).unwrap();
        assert!(outcome.committed);
        assert!(outcome.commit_version.unwrap() > Version::ZERO);
    }
    session.ping().expect("pong after transactions");
    assert_eq!(read_counter(&mut session, 0), 5);
    server.stop();
}

/// Backpressure isolation: a slow reader that pipelines a burst of
/// fat-reply requests and then never reads a byte must not
/// head-of-line-block other connections or the reactor thread. The
/// reactor caps the stalled connection's reply queue
/// (`max_conn_write_buffer`) and parks it — stops reading from and
/// dispatching for that connection only — while everyone else keeps
/// committing at full speed.
#[test]
fn slow_reader_cannot_head_of_line_block_other_connections() {
    // ~12.8 MiB of replies against a 64 KiB server-side cap: the slow
    // connection is guaranteed to park long before the burst is served.
    const STALLED_REQUESTS: usize = 400;
    const HEALTHY_CLIENTS: i64 = 2;
    const HEALTHY_TXNS: i64 = 50;

    let cluster = Cluster::start(ClusterConfig {
        replicas: 2,
        mode: ConsistencyMode::LazyCoarse,
        ..ClusterConfig::default()
    });
    cluster.execute_ddl(LEDGER_DDL).unwrap();
    cluster
        .execute_ddl("CREATE TABLE blob (id INT PRIMARY KEY, data TEXT)")
        .unwrap();
    {
        let mut admin = cluster.connect();
        for id in 0..HEALTHY_CLIENTS {
            admin
                .run_sql(&[(
                    "INSERT INTO ledger (id, val) VALUES (?, ?)",
                    vec![Value::Int(id), Value::Int(0)],
                )])
                .expect("seed ledger row");
        }
        admin
            .run_sql(&[(
                "INSERT INTO blob (id, data) VALUES (?, ?)",
                vec![Value::Int(0), Value::Text("x".repeat(32 * 1024))],
            )])
            .expect("seed blob row");
    }
    let server = NetServer::start_with_config(
        "127.0.0.1:0",
        cluster,
        NetServerConfig {
            poll_interval: Duration::from_millis(20),
            // Tight reply-queue cap: the stalled connection parks after a
            // couple of 32 KiB replies instead of buffering the whole
            // burst in server memory.
            max_conn_write_buffer: 64 * 1024,
            // Long stall budget: this test is about backpressure, not the
            // write-stall sweep reaping the connection mid-test.
            write_timeout: Some(Duration::from_secs(60)),
            shutdown_grace: Duration::from_millis(300),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // The slow reader: handshake, prepare a fat-reply template, pipeline
    // the burst of tagged requests, then go silent without reading a
    // single reply byte.
    let policy = chaos_policy();
    let mut slow = Connection::connect(addr.as_str(), &policy).unwrap();
    match slow.call(&Message::Hello).unwrap() {
        Message::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    match slow.call(&Message::OpenSession).unwrap() {
        Message::SessionOpened { .. } => {}
        other => panic!("expected SessionOpened, got {other:?}"),
    }
    let fat = match slow
        .call(&Message::Prepare {
            name: "slow.fat_read".into(),
            sqls: vec!["SELECT data FROM blob WHERE id = ?".into()],
        })
        .unwrap()
    {
        Message::Prepared { template } => template,
        other => panic!("expected Prepared, got {other:?}"),
    };
    for _ in 0..STALLED_REQUESTS {
        let id = slow.next_request_id();
        slow.send_with_id(
            id,
            &Message::Run {
                template: fat,
                params: vec![vec![Value::Int(0)]],
                idem: None,
            },
        )
        .expect("pipelined burst send");
    }
    // From here on the slow reader neither reads nor writes.

    // Healthy clients on their own connections must make normal progress
    // while the slow reader sits parked against the write-buffer cap.
    let healthy_start = Instant::now();
    let mut handles = Vec::new();
    for k in 0..HEALTHY_CLIENTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut session = RemoteSession::connect(&addr).unwrap();
            let incr = session
                .prepare(
                    "slow.incr",
                    &["UPDATE ledger SET val = val + 1 WHERE id = ?"],
                )
                .unwrap();
            for _ in 0..HEALTHY_TXNS {
                let (outcome, _) = session.run(incr, vec![vec![Value::Int(k)]]).unwrap();
                assert!(outcome.committed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        healthy_start.elapsed() < Duration::from_secs(20),
        "healthy clients must not be head-of-line-blocked by a parked slow reader"
    );

    // The reactor thread itself is still responsive: a fresh connection's
    // heartbeat answers promptly (Ping is handled inline on the reactor,
    // so a wedged loop could not fake this).
    let mut prober = RemoteSession::connect(&addr).unwrap();
    let probe_at = Instant::now();
    prober
        .ping()
        .expect("heartbeat while slow reader is parked");
    assert!(
        probe_at.elapsed() < Duration::from_secs(1),
        "reactor heartbeat must stay prompt with a parked connection"
    );
    for k in 0..HEALTHY_CLIENTS {
        assert_eq!(
            read_counter(&mut prober, k),
            HEALTHY_TXNS,
            "every healthy increment lands despite the stalled neighbour"
        );
    }

    // Drain force-closes the parked connection (undrained replies and
    // all) at the grace deadline instead of waiting for it to read.
    let stopped_at = Instant::now();
    server.stop();
    assert!(
        stopped_at.elapsed() < Duration::from_secs(3),
        "stop must not wait on a slow reader's unflushed replies"
    );
    drop(slow);
}
