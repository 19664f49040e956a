//! A live replica keeps its version history bounded on its own: its thread
//! collects after every message it handles, so a stream of updates over a
//! few keys leaves each replica near one version per key, in every
//! consistency mode, with no pass and no call from outside.

use bargain_cluster::{Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, ReplicaId, Value};

const REPLICAS: u32 = 3;
const KEYS: i64 = 8;
const UPDATES: i64 = 3_000;
/// How often the replicas are counted.
const EVERY: i64 = 250;
/// Versions a replica may hold beyond one per key: those of a transaction
/// still open when it is counted.
const SLACK: usize = KEYS as usize;

#[test]
fn replicas_keep_about_one_version_per_key() {
    for mode in [
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Eager,
    ] {
        let cluster = Cluster::start(ClusterConfig {
            replicas: REPLICAS as usize,
            mode,
            ..ClusterConfig::default()
        });
        cluster
            .execute_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
            .unwrap();
        let mut session = cluster.connect();
        for k in 0..KEYS {
            session
                .run_sql(&[(
                    "INSERT INTO kv (k, v) VALUES (?, ?)",
                    vec![Value::Int(k), Value::Int(0)],
                )])
                .unwrap();
        }
        for i in 1..=UPDATES {
            let (outcome, _) = session
                .run_sql(&[(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    vec![Value::Int(i), Value::Int(i % KEYS)],
                )])
                .unwrap();
            assert!(outcome.is_committed_update(), "{mode}: update {i}");
            if i % EVERY == 0 {
                for r in 0..REPLICAS {
                    let versions = cluster.replica_versions(ReplicaId(r)).unwrap();
                    assert!(
                        versions <= KEYS as usize + SLACK,
                        "{mode}: replica {r} holds {versions} versions of {KEYS} keys after {i} updates"
                    );
                }
            }
        }
        cluster.shutdown();
    }
}
