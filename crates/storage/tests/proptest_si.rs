//! Property-based tests for the storage engine's snapshot-isolation
//! semantics, validated against a simple reference model.

use bargain_common::{Error, TableId, Value, Version};
use bargain_storage::{Column, ColumnType, Engine, TableSchema, TxnHandle};
use proptest::prelude::*;
use std::collections::HashMap;

const KEYS: i64 = 8;

fn engine() -> (Engine, TableId) {
    let mut e = Engine::new();
    let t = e
        .create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                ],
                0,
            )
            .unwrap(),
        )
        .unwrap();
    e.load_rows(
        t,
        (0..KEYS)
            .map(|k| vec![Value::Int(k), Value::Int(0)])
            .collect(),
    )
    .unwrap();
    (e, t)
}

/// One step of the randomized transaction script. Indices are taken modulo
/// the live transaction count so arbitrary u8s always address something.
#[derive(Debug, Clone)]
enum Op {
    Begin,
    Read { txn: u8, key: i64 },
    Write { txn: u8, key: i64, val: i64 },
    Commit { txn: u8 },
    Abort { txn: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Begin),
        4 => (any::<u8>(), 0..KEYS).prop_map(|(txn, key)| Op::Read { txn, key }),
        4 => (any::<u8>(), 0..KEYS, 1..1_000i64)
            .prop_map(|(txn, key, val)| Op::Write { txn, key, val }),
        2 => any::<u8>().prop_map(|txn| Op::Commit { txn }),
        1 => any::<u8>().prop_map(|txn| Op::Abort { txn }),
    ]
}

/// Reference model of one SI transaction: the committed state it snapshot,
/// its own writes, and the keys it wrote.
struct ModelTxn {
    snapshot_state: HashMap<i64, i64>,
    snapshot_version: Version,
    writes: HashMap<i64, i64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads always observe the transaction's snapshot overlaid with its
    /// own writes; commit succeeds iff no written key was committed by
    /// another transaction after the snapshot; committed state evolves
    /// exactly as the model predicts.
    #[test]
    fn engine_matches_si_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (mut e, t) = engine();
        let mut committed: HashMap<i64, i64> = (0..KEYS).map(|k| (k, 0)).collect();
        let mut committed_at: HashMap<i64, Version> = HashMap::new();
        let mut version = Version::ZERO;

        let mut live: Vec<(TxnHandle, ModelTxn)> = Vec::new();

        for op in ops {
            match op {
                Op::Begin => {
                    let h = e.begin();
                    live.push((h, ModelTxn {
                        snapshot_state: committed.clone(),
                        snapshot_version: version,
                        writes: HashMap::new(),
                    }));
                }
                Op::Read { txn, key } => {
                    if live.is_empty() { continue; }
                    let i = txn as usize % live.len();
                    let (h, model) = &live[i];
                    let got = e.get(*h, t, &Value::Int(key)).unwrap()
                        .map(|r| r[1].as_int().unwrap());
                    let want = model.writes.get(&key)
                        .or_else(|| model.snapshot_state.get(&key))
                        .copied();
                    prop_assert_eq!(got, want, "read of key {} diverged", key);
                }
                Op::Write { txn, key, val } => {
                    if live.is_empty() { continue; }
                    let i = txn as usize % live.len();
                    let (h, model) = &mut live[i];
                    e.update(*h, t, &Value::Int(key),
                             vec![Value::Int(key), Value::Int(val)]).unwrap();
                    model.writes.insert(key, val);
                }
                Op::Commit { txn } => {
                    if live.is_empty() { continue; }
                    let i = txn as usize % live.len();
                    let (h, model) = live.remove(i);
                    let conflict = model.writes.keys().any(|k| {
                        committed_at.get(k).copied().unwrap_or(Version::ZERO)
                            > model.snapshot_version
                    });
                    let result = e.commit_standalone(h);
                    if model.writes.is_empty() {
                        prop_assert!(result.is_ok(), "read-only commit must succeed");
                    } else if conflict {
                        prop_assert!(
                            matches!(result, Err(Error::CertificationConflict(_))),
                            "expected first-committer-wins abort"
                        );
                    } else {
                        let v = result.unwrap();
                        version = v;
                        for (k, val) in model.writes {
                            committed.insert(k, val);
                            committed_at.insert(k, v);
                        }
                    }
                }
                Op::Abort { txn } => {
                    if live.is_empty() { continue; }
                    let i = txn as usize % live.len();
                    let (h, _) = live.remove(i);
                    e.abort(h).unwrap();
                }
            }
        }

        // Final committed state agrees with the model.
        let check = e.begin();
        for (k, want) in &committed {
            let got = e.get(check, t, &Value::Int(*k)).unwrap()
                .map(|r| r[1].as_int().unwrap());
            prop_assert_eq!(got, Some(*want));
        }
        prop_assert_eq!(e.version(), version);
    }

    /// GC never changes what any snapshot at or above the horizon can read.
    #[test]
    fn gc_preserves_visible_state(
        updates in proptest::collection::vec((0..KEYS, 1..100i64), 1..60),
    ) {
        let (mut e, t) = engine();
        for (k, v) in &updates {
            let txn = e.begin();
            e.update(txn, t, &Value::Int(*k), vec![Value::Int(*k), Value::Int(*v)]).unwrap();
            e.commit_standalone(txn).unwrap();
        }
        // Snapshot the full visible state at the current version.
        let reader = e.begin();
        let before = e.scan(reader, t).unwrap();
        e.commit_read_only(reader).unwrap();

        let removed = e.gc();
        prop_assert!(removed <= updates.len());

        let reader = e.begin();
        let after = e.scan(reader, t).unwrap();
        prop_assert_eq!(before, after, "GC changed visible state");
    }

    /// Refresh application is deterministic: two engines fed the same
    /// certified writesets converge to identical state.
    #[test]
    fn refresh_replay_converges(
        updates in proptest::collection::vec((0..KEYS, 1..100i64), 1..60),
    ) {
        use bargain_common::{WriteOp, WriteSet};
        let (mut a, t) = engine();
        let (mut b, _) = engine();
        for (i, (k, v)) in updates.iter().enumerate() {
            let mut ws = WriteSet::new();
            ws.push(t, Value::Int(*k), WriteOp::Update(vec![Value::Int(*k), Value::Int(*v)].into()));
            let ver = Version(i as u64 + 1);
            a.apply_refresh(&ws, ver).unwrap();
            b.apply_refresh(&ws, ver).unwrap();
        }
        let (ta, tb) = (a.begin(), b.begin());
        prop_assert_eq!(a.scan(ta, t).unwrap(), b.scan(tb, t).unwrap());
        prop_assert_eq!(a.version(), b.version());
    }
}
