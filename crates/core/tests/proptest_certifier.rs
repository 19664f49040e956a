//! Differential property test: the certifier against a naive model.
//!
//! The certifier — row-version index, retained-commit ring, group-commit
//! buffer, the per-client dedup windows — must be *observationally
//! identical* to the simplest thing that could decide the same way: a list
//! of cloned writesets scanned newest-first, a list of the keys it has
//! certified, one log, and four counters. This test drives random schedules
//! of certify / keyed-replay / prune / recover operations through that
//! [`ShadowModel`] and through the real certifier, and asserts the decision,
//! the commit version, the refresh fan-out, `history_len`, the counters and
//! the whole durable record sequence at every step. Writesets span 8
//! tables.
//!
//! In debug builds the certifier additionally `debug_assert`s its indexed
//! conflict answer against [`Certifier::conflict_linear`] on every single
//! certification, so this test also exercises that oracle continuously.

use bargain_common::{IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::certifier::DEDUP_WINDOW;
use bargain_core::{Certifier, CertifierStats, CertifyDecision, CertifyRequest};
use proptest::prelude::*;
use std::collections::HashMap;

const CLIENTS: u64 = 3;
const REPLICAS: u32 = 3;

/// The naive reference model: the full committed log (for recover), the
/// retained window, a linear newest-first conflict scan, and per client the
/// keys it has certified, and a count of each thing it did.
struct ShadowModel {
    v_commit: u64,
    floor: u64,
    /// Retained writesets; `history[i]` committed at `floor + i + 1`.
    history: Vec<WriteSet>,
    /// Every request ever committed; `log[i]` committed at `i + 1`.
    log: Vec<CertifyRequest>,
    /// Per client, the last [`DEDUP_WINDOW`] certified seqs with their
    /// original transaction and commit version.
    certified: HashMap<u64, Vec<(u64, TxnId, Version)>>,
    /// Counted over the model's lifetime (a crash does not reset them).
    commits: u64,
    aborts: u64,
    duplicates: u64,
    pruned: u64,
}

impl ShadowModel {
    fn new() -> Self {
        ShadowModel {
            v_commit: 0,
            floor: 0,
            history: Vec::new(),
            log: Vec::new(),
            certified: HashMap::new(),
            commits: 0,
            aborts: 0,
            duplicates: 0,
            pruned: 0,
        }
    }

    /// What the certifier's counters must read.
    fn stats(&self) -> CertifierStats {
        CertifierStats {
            commits: self.commits,
            aborts: self.aborts,
            refreshes_sent: self.commits * u64::from(REPLICAS - 1),
            pruned: self.pruned,
            duplicates: self.duplicates,
        }
    }

    /// Remembers a certified key, forgetting the client's lowest seq beyond
    /// the window.
    fn remember(&mut self, key: IdemKey, txn: TxnId, version: Version) {
        let seqs = self.certified.entry(key.client).or_default();
        seqs.push((key.seq, txn, version));
        if seqs.len() > DEDUP_WINDOW {
            seqs.sort_unstable();
            seqs.remove(0);
        }
    }

    /// A remembered key answers with its original outcome; anything else is
    /// certified by a linear scan, newest-first so the reported conflicting
    /// version is the *newest* conflicting committed version.
    fn certify(&mut self, req: &CertifyRequest) -> CertifyDecision {
        let txn = req.txn;
        if let Some(key) = req.idem {
            let seqs = self.certified.get(&key.client);
            if let Some(&(_, original, commit_version)) =
                seqs.and_then(|s| s.iter().find(|e| e.0 == key.seq))
            {
                self.duplicates += 1;
                return CertifyDecision::Duplicate {
                    txn,
                    original,
                    commit_version,
                };
            }
        }
        let first_idx = (req.snapshot.0 - self.floor) as usize;
        for i in (first_idx..self.history.len()).rev() {
            if self.history[i].conflicts_with(&req.writeset) {
                self.aborts += 1;
                return CertifyDecision::Abort {
                    txn,
                    conflicting_version: Version(self.floor + i as u64 + 1),
                };
            }
        }
        self.commits += 1;
        self.v_commit += 1;
        let commit_version = Version(self.v_commit);
        self.history.push(req.writeset.clone());
        self.log.push(req.clone());
        if let Some(key) = req.idem {
            self.remember(key, txn, commit_version);
        }
        CertifyDecision::Commit {
            txn,
            commit_version,
        }
    }

    fn prune(&mut self, floor: u64) {
        while self.floor < floor && !self.history.is_empty() {
            self.history.remove(0);
            self.floor += 1;
            self.pruned += 1;
        }
    }

    fn recover(&mut self) {
        // Recovery replays the whole log: the floor resets, every logged
        // writeset is back in the conflict-check window, and the keys are
        // remembered again in commit order.
        self.floor = 0;
        self.history = self.log.iter().map(|r| r.writeset.clone()).collect();
        self.v_commit = self.log.len() as u64;
        self.certified.clear();
        for i in 0..self.log.len() {
            if let Some(key) = self.log[i].idem {
                self.remember(key, self.log[i].txn, Version(i as u64 + 1));
            }
        }
    }
}

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
    /// Crash the certifier and rebuild from its log.
    Recover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (proptest::collection::vec(0u8..24, 1..5), 0u8..16, proptest::option::of(0..CLIENTS))
            .prop_map(|(keys, lag, client)| Op::Certify { keys, lag, client }),
        2 => (0..CLIENTS).prop_map(|client| Op::Replay { client }),
        2 => (1u8..8).prop_map(|amount| Op::Prune { amount }),
        1 => Just(Op::Recover),
    ]
}

/// Keys spread over 8 tables.
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

/// Cases per run; `PROPTEST_CASES` widens the sweep.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn certifier_matches_the_naive_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let replicas: Vec<ReplicaId> = (0..REPLICAS).map(ReplicaId).collect();
        let mut real = Certifier::new(replicas);
        let mut shadow = ShadowModel::new();
        let mut txn = 0u64;
        // Per client: the next seq, and the last keyed request issued.
        let mut next_seq = [0u64; CLIENTS as usize];
        let mut last_keyed: Vec<Option<(IdemKey, WriteSet)>> = vec![None; CLIENTS as usize];

        for op in ops {
            let request = match op {
                Op::Certify { keys, lag, client } => {
                    let snapshot = shadow
                        .v_commit
                        .saturating_sub(u64::from(lag))
                        .max(shadow.floor);
                    let ws = ws_of(&keys);
                    let idem = client.map(|c| {
                        let key = IdemKey { client: 0xC0DE + c, seq: next_seq[c as usize] };
                        next_seq[c as usize] += 1;
                        last_keyed[c as usize] = Some((key, ws.clone()));
                        key
                    });
                    Some((snapshot, ws, idem))
                }
                // A retry re-executes at the current snapshot.
                Op::Replay { client } => last_keyed[client as usize]
                    .clone()
                    .map(|(key, ws)| (shadow.v_commit, ws, Some(key))),
                Op::Prune { amount } => {
                    // Prune only what certification no longer needs in this
                    // schedule: snapshots are picked at most 15 back.
                    let floor = shadow.v_commit.saturating_sub(16).min(shadow.floor + u64::from(amount));
                    shadow.prune(floor);
                    real.prune(Version(floor));
                    None
                }
                Op::Recover => {
                    shadow.recover();
                    let n = real.recover().expect("memory log replays");
                    prop_assert_eq!(n, shadow.log.len());
                    None
                }
            };

            if let Some((snapshot, writeset, idem)) = request {
                txn += 1;
                let req = CertifyRequest {
                    txn: TxnId(txn),
                    replica: ReplicaId(txn as u32 % REPLICAS),
                    snapshot: Version(snapshot),
                    writeset,
                    idem,
                };
                let expected = shadow.certify(&req);
                let (got, refreshes) = real.certify(req.clone()).expect("valid request");
                prop_assert_eq!(&got, &expected, "decision diverged at txn {}", txn);
                match got {
                    CertifyDecision::Commit { commit_version, .. } => {
                        prop_assert_eq!(refreshes.len(), REPLICAS as usize - 1);
                        for r in &refreshes {
                            prop_assert_eq!(r.origin, req.replica);
                            prop_assert_eq!(r.txn, req.txn);
                            prop_assert_eq!(r.commit_version, commit_version);
                            prop_assert_eq!(r.writeset.as_ref(), &req.writeset);
                        }
                    }
                    CertifyDecision::Abort { .. } | CertifyDecision::Duplicate { .. } => {
                        prop_assert!(refreshes.is_empty());
                    }
                }
            }

            prop_assert_eq!(real.version(), Version(shadow.v_commit));
            prop_assert_eq!(real.history_len(), shadow.history.len());
            prop_assert_eq!(real.stats(), shadow.stats());
            // The durable history is the model's log, record for record.
            let records = real.certified_since(Version::ZERO).expect("log replays");
            prop_assert_eq!(records.len(), shadow.log.len());
            for (i, (rec, want)) in records.iter().zip(&shadow.log).enumerate() {
                prop_assert_eq!(rec.commit_version, Version(i as u64 + 1));
                prop_assert_eq!(rec.txn, want.txn);
                prop_assert_eq!(rec.origin, want.replica);
                prop_assert_eq!(rec.idem, want.idem);
                prop_assert_eq!(rec.writeset.as_ref(), &want.writeset);
            }
        }
    }
}
