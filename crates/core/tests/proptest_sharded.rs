//! Differential property test: the certifier's partitioning is
//! unobservable.
//!
//! A certifier with N shards must be *observationally identical* to the
//! same certifier with one: same commit/abort/duplicate decisions, same
//! commit versions (the sequencer keeps the global order total), same
//! refresh fan-out, same stats, and the same durable record sequence after
//! any interleaving of certification, pruning, and crash-recovery. This
//! test drives random schedules — including protocol-conformant
//! idempotency-key retries — through [`Certifier`] at N ∈ {2, 4, 8} and
//! at N = 1 as the oracle, asserting equality at every step.
//! (`proptest_certifier.rs` holds every N, 1 included, to a naive model;
//! this one compares the refreshes field by field and the stats.)
//!
//! Writesets span 8 tables, so at N=8 every table lives on its own shard
//! and multi-table transactions exercise the cross-shard handshake heavily.

use bargain_common::{IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::{Certifier, CertifyDecision, CertifyRequest};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const CLIENTS: u64 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Certify a writeset over `keys` at a snapshot `lag` versions behind
    /// `V_commit` (clamped to the pruned floor). `client` is `Some` for a
    /// keyed (exactly-once) transaction.
    Certify {
        keys: Vec<u8>,
        lag: u8,
        client: Option<u64>,
    },
    /// Re-issue the most recent keyed request of `client` verbatim (same
    /// key, same writeset) — the protocol-conformant retry after a lost
    /// acknowledgement.
    Replay { client: u64 },
    /// Prune up to `amount` versions of history.
    Prune { amount: u8 },
    /// Crash every certifier and rebuild each from its log(s).
    Recover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        7 => (proptest::collection::vec(0u8..24, 1..5), 0u8..16, proptest::option::of(0..CLIENTS))
            .prop_map(|(keys, lag, client)| Op::Certify { keys, lag, client }),
        2 => (0..CLIENTS).prop_map(|client| Op::Replay { client }),
        2 => (1u8..8).prop_map(|amount| Op::Prune { amount }),
        1 => Just(Op::Recover),
    ]
}

/// Keys spread over 8 tables: at N=8 each table is its own partition.
fn ws_of(keys: &[u8]) -> WriteSet {
    let mut w = WriteSet::new();
    for &k in keys {
        w.push(
            TableId(u32::from(k) % 8),
            Value::Int(i64::from(k)),
            WriteOp::Update(vec![Value::Int(i64::from(k)), Value::Int(0)]),
        );
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_certifier_matches_n1_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        let replicas = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut oracle = Certifier::new(replicas.clone());
        let mut sharded: Vec<Certifier> = SHARD_COUNTS
            .iter()
            .map(|&n| Certifier::sharded(replicas.clone(), n))
            .collect();

        let mut txn = 0u64;
        // Per-client idempotency state: next seq, and the last issued keyed
        // request (key + writeset) for conformant replays.
        let mut next_seq = [0u64; CLIENTS as usize];
        let mut last_keyed: Vec<Option<(IdemKey, WriteSet)>> =
            vec![None; CLIENTS as usize];

        for op in ops {
            // The oracle's floor: snapshots below it are invalid.
            let floor = oracle.version().0 - oracle.history_len() as u64;
            let request = match op {
                Op::Certify { keys, lag, client } => {
                    txn += 1;
                    let snapshot = oracle.version().0.saturating_sub(u64::from(lag)).max(floor);
                    let ws = ws_of(&keys);
                    let idem = client.map(|c| {
                        let key = IdemKey { client: 0xC0DE + c, seq: next_seq[c as usize] };
                        next_seq[c as usize] += 1;
                        last_keyed[c as usize] = Some((key, ws.clone()));
                        key
                    });
                    Some(CertifyRequest {
                        txn: TxnId(txn),
                        replica: ReplicaId(txn as u32 % 3),
                        snapshot: Version(snapshot),
                        writeset: ws,
                        idem,
                    })
                }
                Op::Replay { client } => match &last_keyed[client as usize] {
                    Some((key, ws)) => {
                        txn += 1;
                        Some(CertifyRequest {
                            txn: TxnId(txn),
                            replica: ReplicaId(txn as u32 % 3),
                            // A retry re-executes at the current snapshot.
                            snapshot: oracle.version(),
                            writeset: ws.clone(),
                            idem: Some(*key),
                        })
                    }
                    None => None,
                },
                Op::Prune { amount } => {
                    // Prune only what certification no longer needs: the
                    // schedule picks snapshots at most 15 back.
                    let target = oracle
                        .version()
                        .0
                        .saturating_sub(16)
                        .min(floor + u64::from(amount));
                    oracle.prune(Version(target));
                    for s in &mut sharded {
                        s.prune(Version(target));
                    }
                    None
                }
                Op::Recover => {
                    oracle.recover().expect("memory log replays");
                    for s in &mut sharded {
                        s.recover().expect("shard logs replay");
                    }
                    None
                }
            };

            if let Some(req) = request {
                let (want, want_refreshes) =
                    oracle.certify(req.clone()).expect("valid request");
                for (i, s) in sharded.iter_mut().enumerate() {
                    let (got, got_refreshes) =
                        s.certify(req.clone()).expect("valid request");
                    prop_assert_eq!(
                        &got, &want,
                        "decision diverged from oracle at txn {} (N={})",
                        txn, SHARD_COUNTS[i]
                    );
                    prop_assert_eq!(got_refreshes.len(), want_refreshes.len());
                    for (g, w) in got_refreshes.iter().zip(&want_refreshes) {
                        prop_assert_eq!(g.origin, w.origin);
                        prop_assert_eq!(g.txn, w.txn);
                        prop_assert_eq!(g.commit_version, w.commit_version);
                        prop_assert_eq!(&g.writeset, &w.writeset);
                    }
                    // A replay that found its dedup entry consumed no
                    // version anywhere.
                    if matches!(got, CertifyDecision::Duplicate { .. }) {
                        prop_assert_eq!(s.version(), oracle.version());
                    }
                }
            }

            for (i, s) in sharded.iter().enumerate() {
                prop_assert_eq!(
                    s.version(),
                    oracle.version(),
                    "V_commit diverged (N={})",
                    SHARD_COUNTS[i]
                );
                prop_assert_eq!(s.history_len(), oracle.history_len());
                prop_assert_eq!(s.stats(), oracle.stats());
            }
        }

        // The durable global histories are identical: merging the shard
        // logs reproduces the oracle's log record-for-record.
        let want = oracle.certified_since(Version::ZERO).expect("log replays");
        for (i, s) in sharded.iter_mut().enumerate() {
            let got = s.certified_since(Version::ZERO).expect("shard logs replay");
            prop_assert_eq!(got.len(), want.len(), "log length diverged (N={})", SHARD_COUNTS[i]);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.commit_version, w.commit_version);
                prop_assert_eq!(g.txn, w.txn);
                prop_assert_eq!(g.origin, w.origin);
                prop_assert_eq!(g.idem, w.idem);
                prop_assert_eq!(g.writeset.as_ref(), w.writeset.as_ref());
            }
            // Serializable order equivalence: same records, same total
            // order, therefore the same serialization witness.
            prop_assert!(got
                .windows(2)
                .all(|p| p[0].commit_version < p[1].commit_version));
        }
    }
}
