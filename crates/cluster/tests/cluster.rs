//! Live-cluster integration tests: real threads, real channels, real SQL.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Value};
use std::sync::Arc;

fn accounts_cluster(replicas: usize, mode: ConsistencyMode) -> Cluster {
    let cluster = Cluster::start(ClusterConfig {
        replicas,
        mode,
        ..ClusterConfig::default()
    });
    cluster
        .execute_ddl("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL)")
        .unwrap();
    cluster
        .execute_ddl("CREATE TABLE audit (id INT PRIMARY KEY, note TEXT NOT NULL)")
        .unwrap();
    let mut s = cluster.connect();
    for i in 1..=10 {
        s.run_sql(&[(
            "INSERT INTO accounts (id, balance) VALUES (?, ?)",
            vec![Value::Int(i), Value::Int(100)],
        )])
        .unwrap();
    }
    cluster
}

#[test]
fn insert_then_read_from_other_session() {
    for mode in ConsistencyMode::PAPER_MODES {
        let cluster = accounts_cluster(3, mode);
        let mut writer = cluster.connect();
        let mut reader = cluster.connect();
        writer
            .run_sql(&[(
                "UPDATE accounts SET balance = ? WHERE id = ?",
                vec![Value::Int(777), Value::Int(5)],
            )])
            .unwrap();
        if mode.is_strongly_consistent() {
            // Strong consistency: the very next transaction from ANY
            // session must see the committed balance, on every attempt.
            for _ in 0..20 {
                let (_, results) = reader
                    .run_sql(&[(
                        "SELECT balance FROM accounts WHERE id = ?",
                        vec![Value::Int(5)],
                    )])
                    .unwrap();
                assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(777), "{mode}");
            }
        }
        cluster.shutdown();
    }
}

#[test]
fn strong_consistency_across_many_write_read_pairs() {
    // The hidden-channel scenario of the paper's introduction: agent A
    // commits, "notifies" agent B (returns here), and B must observe the
    // write — repeatedly, across an 4-replica cluster where reads land on
    // different replicas.
    for mode in [
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Eager,
    ] {
        let cluster = accounts_cluster(4, mode);
        let mut agent_a = cluster.connect();
        let mut agent_b = cluster.connect();
        for round in 0..60 {
            agent_a
                .run_sql_with_retry(
                    &[(
                        "UPDATE accounts SET balance = ? WHERE id = ?",
                        vec![Value::Int(round), Value::Int(3)],
                    )],
                    8,
                )
                .unwrap();
            let (_, results) = agent_b
                .run_sql(&[(
                    "SELECT balance FROM accounts WHERE id = ?",
                    vec![Value::Int(3)],
                )])
                .unwrap();
            assert_eq!(
                results[0].rows().unwrap()[0][0],
                Value::Int(round),
                "{mode}: stale read at round {round}"
            );
        }
        cluster.shutdown();
    }
}

#[test]
fn session_consistency_sees_own_writes() {
    let cluster = accounts_cluster(4, ConsistencyMode::Session);
    let mut s = cluster.connect();
    for round in 0..40 {
        s.run_sql_with_retry(
            &[(
                "UPDATE accounts SET balance = ? WHERE id = ?",
                vec![Value::Int(round), Value::Int(7)],
            )],
            8,
        )
        .unwrap();
        let (_, results) = s
            .run_sql(&[(
                "SELECT balance FROM accounts WHERE id = ?",
                vec![Value::Int(7)],
            )])
            .unwrap();
        assert_eq!(
            results[0].rows().unwrap()[0][0],
            Value::Int(round),
            "session must see its own write at round {round}"
        );
    }
    cluster.shutdown();
}

#[test]
fn concurrent_writers_conflict_and_retry() {
    let cluster = Arc::new(accounts_cluster(3, ConsistencyMode::LazyFine));
    let mut joins = Vec::new();
    // 8 threads increment the same counter row 25 times each; first
    // committer wins, losers retry. The final balance must be exactly
    // 100 + 8*25.
    for _ in 0..8 {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut s = cluster.connect();
            for _ in 0..25 {
                s.run_sql_with_retry(
                    &[(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
                        vec![Value::Int(1)],
                    )],
                    1_000,
                )
                .unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut s = cluster.connect();
    let (_, results) = s
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id = ?",
            vec![Value::Int(1)],
        )])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(100 + 8 * 25));
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.commits as i64 - 11, 8 * 25); // 10 loads + 1 read are extra
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn read_only_transactions_do_not_advance_versions() {
    let cluster = accounts_cluster(2, ConsistencyMode::LazyCoarse);
    let before = cluster.stats().unwrap().v_system;
    let mut s = cluster.connect();
    for _ in 0..10 {
        s.run_sql(&[("SELECT COUNT(*) FROM accounts", vec![])])
            .unwrap();
    }
    let after = cluster.stats().unwrap().v_system;
    assert_eq!(before, after);
    cluster.shutdown();
}

#[test]
fn multi_statement_transaction_is_atomic() {
    let cluster = accounts_cluster(3, ConsistencyMode::LazyFine);
    let mut s = cluster.connect();
    // Transfer: both legs commit together.
    s.run_sql_with_retry(
        &[
            (
                "UPDATE accounts SET balance = balance - ? WHERE id = ?",
                vec![Value::Int(30), Value::Int(1)],
            ),
            (
                "UPDATE accounts SET balance = balance + ? WHERE id = ?",
                vec![Value::Int(30), Value::Int(2)],
            ),
        ],
        8,
    )
    .unwrap();
    let (_, results) = s
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id < 3 ORDER BY id",
            vec![],
        )])
        .unwrap();
    let rows = results[0].rows().unwrap();
    assert_eq!(rows[0][0], Value::Int(70));
    assert_eq!(rows[1][0], Value::Int(130));
    cluster.shutdown();
}

#[test]
fn failed_statement_aborts_whole_transaction() {
    let cluster = accounts_cluster(2, ConsistencyMode::LazyCoarse);
    let mut s = cluster.connect();
    // Second statement inserts a duplicate key: the whole txn aborts.
    let err = s.run_sql(&[
        (
            "UPDATE accounts SET balance = ? WHERE id = ?",
            vec![Value::Int(0), Value::Int(9)],
        ),
        (
            "INSERT INTO accounts (id, balance) VALUES (?, ?)",
            vec![Value::Int(1), Value::Int(0)],
        ),
    ]);
    assert!(err.is_err());
    // The first statement's effect must not be visible.
    let (_, results) = s
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id = ?",
            vec![Value::Int(9)],
        )])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(100));
    cluster.shutdown();
}

#[test]
fn single_replica_cluster_works() {
    let cluster = accounts_cluster(1, ConsistencyMode::Eager);
    let mut s = cluster.connect();
    s.run_sql(&[(
        "UPDATE accounts SET balance = ? WHERE id = ?",
        vec![Value::Int(5), Value::Int(1)],
    )])
    .unwrap();
    let (_, results) = s
        .run_sql(&[(
            "SELECT balance FROM accounts WHERE id = ?",
            vec![Value::Int(1)],
        )])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(5));
    cluster.shutdown();
}

#[test]
fn workload_setup_and_mixed_load_runs() {
    use bargain_workloads::{ClientContext, TpcwMix, TpcwWorkload, Workload};
    let workload = TpcwWorkload::small(TpcwMix::Shopping);
    let w2 = workload.clone();
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |e| w2.install(e),
    );
    let templates: Vec<Arc<_>> = workload.templates().into_iter().map(Arc::new).collect();
    let mut joins = Vec::new();
    let cluster = Arc::new(cluster);
    for t in 0..4u64 {
        let cluster = Arc::clone(&cluster);
        let templates = templates.clone();
        let workload = workload.clone();
        joins.push(std::thread::spawn(move || {
            let mut session = cluster.connect();
            let mut ctx = ClientContext::new(77, bargain_common::ClientId(t));
            let mut committed = 0;
            for _ in 0..100 {
                let (tid, params) = workload.next_transaction(&mut ctx);
                let tmpl = templates.iter().find(|x| x.id == tid).unwrap();
                match session.run_template(tmpl, params) {
                    Ok(_) => committed += 1,
                    Err(e) if e.is_retryable() => {}
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            }
            committed
        }));
    }
    let total: i32 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(total > 350, "only {total}/400 committed");
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

/// `setup` (DDL and the initial load) runs once per replica: the catalog
/// mirror takes its schema from a replica and loads no rows.
#[test]
fn setup_runs_once_per_replica_and_the_mirror_resolves_its_tables() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let cluster = Cluster::start_with_setup(
        ClusterConfig {
            replicas: 3,
            ..ClusterConfig::default()
        },
        move |engine| {
            counted.fetch_add(1, Ordering::SeqCst);
            for ddl in [
                "CREATE TABLE first (id INT PRIMARY KEY, v INT NOT NULL)",
                "CREATE TABLE second (id INT PRIMARY KEY, v INT NOT NULL)",
            ] {
                let stmt = bargain_sql::parse(ddl)?;
                bargain_sql::execute_ddl(engine, &stmt)?;
            }
            let second = engine.resolve_table("second")?;
            engine.load_rows(second, vec![vec![Value::Int(1), Value::Int(41)]])
        },
    );
    assert_eq!(runs.load(Ordering::SeqCst), 3);
    // Table-sets are extracted against the mirror: both tables resolve, to
    // the ids the replicas use, and DDL after boot still reaches it.
    cluster
        .execute_ddl("CREATE TABLE third (id INT PRIMARY KEY, v INT NOT NULL)")
        .unwrap();
    let mut s = cluster.connect();
    s.run_sql(&[
        (
            "UPDATE second SET v = v + 1 WHERE id = ?",
            vec![Value::Int(1)],
        ),
        (
            "INSERT INTO third (id, v) VALUES (?, ?)",
            vec![Value::Int(1), Value::Int(1)],
        ),
    ])
    .unwrap();
    let (_, results) = s
        .run_sql(&[("SELECT v FROM second WHERE id = ?", vec![Value::Int(1)])])
        .unwrap();
    assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(42));
    cluster.shutdown();
}

/// The hidden-channel harness on local sessions: four writer/reader pairs
/// (eight threads) over three replicas. Writer A commits an update and
/// hands `(key, value)` to reader B over a channel — a channel the database
/// cannot see. Returns, per pair, how many of B's reads missed the value
/// they were handed, and whether B ever saw a key's value go backwards.
fn hidden_channel_rounds(mode: ConsistencyMode, rounds: i64) -> Vec<(usize, bool)> {
    const PAIRS: i64 = 4;
    let cluster = Arc::new(accounts_cluster(3, mode));
    let mut readers = Vec::new();
    let mut writers = Vec::new();
    for pair in 0..PAIRS {
        let (hand_over, handed) = std::sync::mpsc::channel::<(i64, i64)>();
        // Each pair owns two rows, so writers never conflict.
        let keys = [1 + 2 * pair, 2 + 2 * pair];
        let mut a = cluster.connect();
        writers.push(std::thread::spawn(move || {
            for round in 1..=rounds {
                let key = keys[(round % 2) as usize];
                a.run_sql(&[(
                    "UPDATE accounts SET balance = ? WHERE id = ?",
                    vec![Value::Int(1_000 + round), Value::Int(key)],
                )])
                .unwrap();
                hand_over.send((key, 1_000 + round)).unwrap();
            }
        }));
        let mut b = cluster.connect();
        readers.push(std::thread::spawn(move || {
            let mut last_seen = std::collections::HashMap::new();
            let (mut misses, mut went_back) = (0, false);
            for (key, value) in handed {
                let (_, results) = b
                    .run_sql(&[(
                        "SELECT balance FROM accounts WHERE id = ?",
                        vec![Value::Int(key)],
                    )])
                    .unwrap();
                let Value::Int(seen) = results[0].rows().unwrap()[0][0] else {
                    panic!("balance is an integer");
                };
                // A writes increasing values and may already be ahead.
                misses += usize::from(seen < value);
                let last = last_seen.insert(key, seen).unwrap_or(seen);
                went_back |= seen < last;
            }
            (misses, went_back)
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    let observed = readers.into_iter().map(|r| r.join().unwrap()).collect();
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
    observed
}

#[test]
fn hidden_channel_between_local_sessions_never_reads_stale_under_lazy_modes() {
    for mode in [ConsistencyMode::LazyFine, ConsistencyMode::LazyCoarse] {
        for (pair, (misses, went_back)) in hidden_channel_rounds(mode, 5_000).iter().enumerate() {
            assert_eq!(*misses, 0, "{mode}: pair {pair} read stale data");
            assert!(!went_back, "{mode}: pair {pair} saw a value go backwards");
        }
    }
}

#[test]
fn hidden_channel_under_session_mode_keeps_each_session_monotone() {
    // Session consistency promises B nothing about A's commits; it does
    // promise that B's own snapshots never go backwards.
    for (pair, (_, went_back)) in hidden_channel_rounds(ConsistencyMode::Session, 5_000)
        .iter()
        .enumerate()
    {
        assert!(!went_back, "pair {pair} saw a value go backwards");
    }
}

/// `Session::submit`: the sink runs on the replica thread that finished the
/// transaction, *after* the front door recorded the outcome — so whoever
/// the reply reaches, the next transaction they cause is routed with a
/// start requirement that covers this commit.
#[test]
fn submit_sink_runs_on_the_replica_thread_after_the_outcome_is_recorded() {
    let cluster = Arc::new(accounts_cluster(3, ConsistencyMode::LazyFine));
    let mut session = cluster.connect();
    let template = Arc::new(
        bargain_sql::TransactionTemplate::new(
            cluster.allocate_template_id(),
            "bump",
            &["UPDATE accounts SET balance = balance + 1 WHERE id = ?"],
        )
        .unwrap(),
    );
    let table_set: bargain_common::TableSet = [bargain_common::TableId(0)].into_iter().collect();
    let (seen_tx, seen) = std::sync::mpsc::channel();
    for _ in 0..200 {
        let (cluster, seen_tx) = (Arc::clone(&cluster), seen_tx.clone());
        session.submit(
            &template,
            table_set.clone(),
            vec![vec![Value::Int(3)]],
            None,
            move |(outcome, _)| {
                let on = std::thread::current().name().map(str::to_owned);
                let v_system = cluster.stats().unwrap().v_system;
                drop(cluster); // before the test thread may try to unwrap it
                seen_tx.send((outcome, v_system, on)).unwrap();
            },
        );
        // One transaction at a time per session.
        let (outcome, v_system, on) = seen.recv().unwrap();
        assert!(outcome.committed, "{:?}", outcome.abort_reason);
        assert!(v_system >= outcome.commit_version.unwrap());
        assert!(on.is_some_and(|name| name.starts_with("bargain-replica-")));
    }
    drop(seen_tx);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}
