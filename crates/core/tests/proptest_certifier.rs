//! Differential property test: the certifier against a naive model.
//!
//! The certifier — row-version index, retained-commit ring, group-commit
//! buffer, the per-client dedup windows, the replica membership and the
//! eager accounting — must be *observationally identical* to the simplest
//! thing that could decide the same way: a list of cloned writesets scanned
//! newest-first, a list of the keys it has certified, one log, a membership
//! list, one applied-set per pending version, and a few counters. This test
//! drives random schedules of certify / keyed-replay / batch / applied /
//! hello / join / leave / history / prune / recover operations through that
//! [`ShadowModel`] and through the real certifier, with eager accounting on
//! or off per case, and asserts at every step what the certifier hands its
//! host to send — each refresh, decision and global commit with the replica
//! it is addressed to, in order — plus `history_len`, the counters and the
//! whole durable record sequence. Writesets span 8 tables.
//!
//! Only [`Real`] knows how a host talks to the certifier; the model and the
//! assertions speak of addressed messages.
//!
//! In debug builds the certifier additionally `debug_assert`s its indexed
//! conflict answer against [`Certifier::conflict_linear`] on every single
//! certification, so this test also exercises that oracle continuously.

use bargain_common::{IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::certifier::{Delivery, Input, DEDUP_WINDOW};
use bargain_core::{
    Certifier, CertifierStats, CertifyDecision, CertifyRequest, LogRecord, Refresh,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const CLIENTS: u64 = 3;
/// Founding members.
const REPLICAS: u32 = 3;
/// Replica ids a join, a leave or an applied report may name: the founders
/// and three that are not members at the start.
const IDS: u32 = 6;

/// One message the certifier hands its host, with its addressee.
#[derive(Debug, Clone, PartialEq)]
enum Sent {
    Refresh {
        to: ReplicaId,
        refresh: Refresh,
    },
    Decision {
        to: ReplicaId,
        decision: CertifyDecision,
    },
    GlobalCommit {
        to: ReplicaId,
        txn: TxnId,
    },
}

/// Eager mode: a commit not yet applied by every member.
struct Pending {
    origin: ReplicaId,
    txn: TxnId,
    applied: Vec<ReplicaId>,
}

/// The naive reference model: the full committed log (for recover), the
/// retained window, a linear newest-first conflict scan, per client the
/// keys it has certified, the membership in join order, the pending eager
/// commits, and a count of each thing it did.
struct ShadowModel {
    v_commit: u64,
    floor: u64,
    /// Retained writesets; `history[i]` committed at `floor + i + 1`.
    history: Vec<WriteSet>,
    /// Every commit, as the log must hold it; `log[i]` is version `i + 1`.
    log: Vec<LogRecord>,
    /// Per client, the last [`DEDUP_WINDOW`] certified seqs with their
    /// original transaction and commit version.
    certified: HashMap<u64, Vec<(u64, TxnId, Version)>>,
    eager: bool,
    /// The replicas a commit fans out to, in the order they joined.
    members: Vec<ReplicaId>,
    /// Eager mode: commit version → who has applied it, until every member
    /// has.
    pending: BTreeMap<u64, Pending>,
    /// Counted over the model's lifetime (a crash does not reset them).
    commits: u64,
    aborts: u64,
    duplicates: u64,
    pruned: u64,
    refreshes_sent: u64,
}

impl ShadowModel {
    fn new(eager: bool) -> Self {
        ShadowModel {
            v_commit: 0,
            floor: 0,
            history: Vec::new(),
            log: Vec::new(),
            certified: HashMap::new(),
            eager,
            members: (0..REPLICAS).map(ReplicaId).collect(),
            pending: BTreeMap::new(),
            commits: 0,
            aborts: 0,
            duplicates: 0,
            pruned: 0,
            refreshes_sent: 0,
        }
    }

    /// What the certifier's counters must read.
    fn stats(&self) -> CertifierStats {
        CertifierStats {
            commits: self.commits,
            aborts: self.aborts,
            refreshes_sent: self.refreshes_sent,
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
    /// version is the *newest* conflicting committed version. A commit
    /// sends its writeset to every member but the origin, in membership
    /// order, and then the decision to the origin.
    fn certify(&mut self, req: &CertifyRequest) -> Vec<Sent> {
        let txn = req.txn;
        let decide = |decision| {
            vec![Sent::Decision {
                to: req.replica,
                decision,
            }]
        };
        if let Some(key) = req.idem {
            let seqs = self.certified.get(&key.client);
            if let Some(&(_, original, commit_version)) =
                seqs.and_then(|s| s.iter().find(|e| e.0 == key.seq))
            {
                self.duplicates += 1;
                return decide(CertifyDecision::Duplicate {
                    txn,
                    original,
                    commit_version,
                });
            }
        }
        let first_idx = (req.snapshot.0 - self.floor) as usize;
        for i in (first_idx..self.history.len()).rev() {
            if self.history[i].conflicts_with(&req.writeset) {
                self.aborts += 1;
                return decide(CertifyDecision::Abort {
                    txn,
                    conflicting_version: Version(self.floor + i as u64 + 1),
                });
            }
        }
        self.commits += 1;
        self.v_commit += 1;
        let commit_version = Version(self.v_commit);
        self.history.push(req.writeset.clone());
        let writeset = Arc::new(req.writeset.clone());
        self.log.push(LogRecord {
            commit_version,
            txn,
            origin: req.replica,
            idem: req.idem,
            writeset: Arc::clone(&writeset),
        });
        if let Some(key) = req.idem {
            self.remember(key, txn, commit_version);
        }
        if self.eager {
            self.pending.insert(
                self.v_commit,
                Pending {
                    origin: req.replica,
                    txn,
                    applied: Vec::new(),
                },
            );
        }
        let mut sent: Vec<Sent> = self
            .members
            .iter()
            .filter(|&&to| to != req.replica)
            .map(|&to| Sent::Refresh {
                to,
                refresh: Refresh {
                    origin: req.replica,
                    txn,
                    commit_version,
                    writeset: Arc::clone(&writeset),
                },
            })
            .collect();
        self.refreshes_sent += sent.len() as u64;
        sent.extend(decide(CertifyDecision::Commit {
            txn,
            commit_version,
        }));
        sent
    }

    /// The global commits of those of `versions` that every member has
    /// applied, in the order given.
    fn complete(&mut self, versions: Vec<u64>) -> Vec<Sent> {
        let mut sent = Vec::new();
        for v in versions {
            let done = self
                .pending
                .get(&v)
                .is_some_and(|p| self.members.iter().all(|m| p.applied.contains(m)));
            if done {
                let p = self.pending.remove(&v).expect("present");
                sent.push(Sent::GlobalCommit {
                    to: p.origin,
                    txn: p.txn,
                });
            }
        }
        sent
    }

    fn credit(&mut self, replica: ReplicaId, version: u64) {
        if let Some(p) = self.pending.get_mut(&version) {
            if !p.applied.contains(&replica) {
                p.applied.push(replica);
            }
        }
    }

    /// A member applied `version`; a non-member's report counts for nothing.
    fn applied(&mut self, replica: ReplicaId, version: u64) -> Vec<Sent> {
        if !self.members.contains(&replica) {
            return Vec::new();
        }
        self.credit(replica, version);
        self.complete(vec![version])
    }

    /// A member has applied everything up to `v_local`.
    fn hello(&mut self, replica: ReplicaId, v_local: u64) -> Vec<Sent> {
        let versions: Vec<u64> = self.pending.range(..=v_local).map(|(&v, _)| v).collect();
        for &v in &versions {
            self.credit(replica, v);
        }
        self.complete(versions)
    }

    /// A replica joins with a snapshot holding everything up to `after`.
    fn join(&mut self, replica: ReplicaId, after: u64) -> Vec<Sent> {
        if !self.members.contains(&replica) {
            self.members.push(replica);
        }
        self.hello(replica, after)
    }

    /// A member leaves: nothing waits on it any more.
    fn leave(&mut self, replica: ReplicaId) -> Vec<Sent> {
        if !self.members.contains(&replica) {
            return Vec::new();
        }
        self.members.retain(|&m| m != replica);
        for p in self.pending.values_mut() {
            p.applied.retain(|&r| r != replica);
        }
        let versions = self.pending.keys().copied().collect();
        self.complete(versions)
    }

    /// Every logged commit above `after`.
    fn history_since(&self, after: u64) -> Vec<LogRecord> {
        self.log.get(after as usize..).unwrap_or_default().to_vec()
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
        // remembered again in commit order. Eager accounting restarts with
        // every logged commit pending and nobody credited.
        self.floor = 0;
        self.history = self
            .log
            .iter()
            .map(|r| r.writeset.as_ref().clone())
            .collect();
        self.v_commit = self.log.len() as u64;
        self.certified.clear();
        self.pending.clear();
        for i in 0..self.log.len() {
            let LogRecord {
                commit_version,
                txn,
                origin,
                idem,
                ..
            } = self.log[i].clone();
            if let Some(key) = idem {
                self.remember(key, txn, commit_version);
            }
            if self.eager {
                let applied = Vec::new();
                self.pending.insert(
                    commit_version.0,
                    Pending {
                        origin,
                        txn,
                        applied,
                    },
                );
            }
        }
    }
}

/// The certifier under test, driven the way a host drives it: every call
/// returns what the host would send, addressed.
struct Real(Certifier);

impl Real {
    fn new(eager: bool) -> Self {
        let mut certifier = Certifier::new((0..REPLICAS).map(ReplicaId).collect());
        certifier.set_eager(eager);
        Real(certifier)
    }

    fn step(&mut self, inputs: Vec<Input>) -> Vec<Sent> {
        let step = self.0.step(inputs).expect("the memory log flushes");
        let sent = |(to, delivery)| match delivery {
            Delivery::Refresh(refresh) => Sent::Refresh { to, refresh },
            Delivery::Decision(decision) => Sent::Decision { to, decision },
            Delivery::GlobalCommit(txn) => Sent::GlobalCommit { to, txn },
        };
        step.out.into_iter().map(sent).collect()
    }

    /// Certifies `reqs` as one run.
    fn certify(&mut self, reqs: Vec<CertifyRequest>) -> Vec<Sent> {
        self.step(reqs.into_iter().map(Input::Certify).collect())
    }

    fn applied(&mut self, replica: ReplicaId, version: Version) -> Vec<Sent> {
        self.step(vec![Input::Applied { replica, version }])
    }

    fn hello(&mut self, replica: ReplicaId, v_local: Version) -> Vec<Sent> {
        self.step(vec![Input::Hello { replica, v_local }])
    }

    fn join(&mut self, replica: ReplicaId, after: Version) -> Vec<Sent> {
        self.step(vec![Input::Join { replica, after }])
    }

    fn leave(&mut self, replica: ReplicaId) -> Vec<Sent> {
        self.step(vec![Input::Leave { replica }])
    }

    fn history(&mut self, after: Version) -> Vec<LogRecord> {
        self.0.certified_since(after).expect("log replays")
    }
}

/// A writeset over `keys`, a snapshot `lag` versions behind `V_commit`
/// (clamped to the pruned floor), and `Some(client)` for a keyed
/// (exactly-once) transaction.
type CertifyArgs = (Vec<u8>, u8, Option<u64>);

#[derive(Debug, Clone)]
enum Op {
    Certify(CertifyArgs),
    /// Re-issue the most recent keyed request of `client` verbatim (same
    /// key, same writeset) — the protocol-conformant retry after a lost
    /// acknowledgement.
    Replay {
        client: u64,
    },
    /// Certify these requests as one run (one group commit).
    Batch(Vec<CertifyArgs>),
    /// `replica` reports it applied the commit `back` versions behind
    /// `V_commit`.
    Applied {
        replica: u32,
        back: u8,
    },
    /// A member (the `member`-th, modulo the membership) reports it has
    /// applied everything up to `back` versions behind `V_commit`.
    Hello {
        member: u8,
        back: u8,
    },
    /// `replica` joins with a snapshot `back` versions behind `V_commit`.
    Join {
        replica: u32,
        back: u8,
    },
    /// `replica` leaves (skipped when it is the last member).
    Leave {
        replica: u32,
    },
    /// Fetch the certified records above `back` versions behind `V_commit`.
    History {
        back: u8,
    },
    /// Prune up to `amount` versions of history.
    Prune {
        amount: u8,
    },
    /// Crash the certifier and rebuild from its log.
    Recover,
}

fn certify_args() -> impl Strategy<Value = CertifyArgs> {
    (
        proptest::collection::vec(0u8..24, 1..5),
        0u8..16,
        proptest::option::of(0..CLIENTS),
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => certify_args().prop_map(Op::Certify),
        2 => (0..CLIENTS).prop_map(|client| Op::Replay { client }),
        1 => proptest::collection::vec(certify_args(), 2..80).prop_map(Op::Batch),
        6 => (0..IDS, 0u8..6).prop_map(|(replica, back)| Op::Applied { replica, back }),
        1 => (any::<u8>(), 0u8..6).prop_map(|(member, back)| Op::Hello { member, back }),
        1 => (0..IDS, 0u8..6).prop_map(|(replica, back)| Op::Join { replica, back }),
        1 => (0..IDS).prop_map(|replica| Op::Leave { replica }),
        1 => (0u8..20).prop_map(|back| Op::History { back }),
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
        eager in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut real = Real::new(eager);
        let mut shadow = ShadowModel::new(eager);
        let mut txn = 0u64;
        // Per client: the next seq, and the last keyed request issued.
        let mut next_seq = [0u64; CLIENTS as usize];
        let mut last_keyed: Vec<Option<(IdemKey, WriteSet)>> = vec![None; CLIENTS as usize];
        let behind = |shadow: &ShadowModel, back: u8| shadow.v_commit.saturating_sub(u64::from(back));

        for op in ops {
            // The requests this op certifies, as (snapshot, writeset, key).
            let mut run = Vec::new();
            let mut fresh = |(keys, lag, client): CertifyArgs, shadow: &ShadowModel| {
                let snapshot = behind(shadow, lag).max(shadow.floor);
                let ws = ws_of(&keys);
                let idem = client.map(|c| {
                    let key = IdemKey { client: 0xC0DE + c, seq: next_seq[c as usize] };
                    next_seq[c as usize] += 1;
                    last_keyed[c as usize] = Some((key, ws.clone()));
                    key
                });
                (snapshot, ws, idem)
            };
            let (expected, got) = match op {
                Op::Certify(args) => {
                    run.push(fresh(args, &shadow));
                    (Vec::new(), Vec::new())
                }
                Op::Batch(batch) => {
                    for args in batch {
                        run.push(fresh(args, &shadow));
                    }
                    (Vec::new(), Vec::new())
                }
                // A retry re-executes at the current snapshot.
                Op::Replay { client } => {
                    if let Some((key, ws)) = last_keyed[client as usize].clone() {
                        run.push((shadow.v_commit, ws, Some(key)));
                    }
                    (Vec::new(), Vec::new())
                }
                Op::Applied { replica, back } => {
                    let (replica, version) = (ReplicaId(replica), behind(&shadow, back));
                    (shadow.applied(replica, version), real.applied(replica, Version(version)))
                }
                Op::Hello { member, back } => {
                    let replica = shadow.members[usize::from(member) % shadow.members.len()];
                    let v_local = behind(&shadow, back);
                    (shadow.hello(replica, v_local), real.hello(replica, Version(v_local)))
                }
                Op::Join { replica, back } => {
                    let (replica, after) = (ReplicaId(replica), behind(&shadow, back));
                    (shadow.join(replica, after), real.join(replica, Version(after)))
                }
                Op::Leave { replica } => {
                    if shadow.members.len() == 1 {
                        continue;
                    }
                    let replica = ReplicaId(replica);
                    (shadow.leave(replica), real.leave(replica))
                }
                Op::History { back } => {
                    let after = behind(&shadow, back);
                    let records = real.history(Version(after));
                    prop_assert_eq!(&records, &shadow.history_since(after), "history above v{}", after);
                    (Vec::new(), Vec::new())
                }
                Op::Prune { amount } => {
                    // Prune only what certification no longer needs in this
                    // schedule: snapshots are picked at most 15 back.
                    let floor = shadow.v_commit.saturating_sub(16).min(shadow.floor + u64::from(amount));
                    shadow.prune(floor);
                    real.0.prune(Version(floor));
                    (Vec::new(), Vec::new())
                }
                Op::Recover => {
                    shadow.recover();
                    let n = real.0.recover().expect("memory log replays");
                    prop_assert_eq!(n, shadow.log.len());
                    (Vec::new(), Vec::new())
                }
            };
            prop_assert_eq!(&got, &expected, "global commits diverged after txn {}", txn);

            if !run.is_empty() {
                let mut reqs = Vec::with_capacity(run.len());
                let mut expected = Vec::new();
                for (snapshot, writeset, idem) in run {
                    txn += 1;
                    let req = CertifyRequest {
                        txn: TxnId(txn),
                        replica: shadow.members[txn as usize % shadow.members.len()],
                        snapshot: Version(snapshot),
                        writeset,
                        idem,
                    };
                    expected.extend(shadow.certify(&req));
                    reqs.push(req);
                }
                let got = real.certify(reqs);
                prop_assert_eq!(&got, &expected, "run diverged ending at txn {}", txn);
            }

            prop_assert_eq!(real.0.version(), Version(shadow.v_commit));
            prop_assert_eq!(real.0.history_len(), shadow.history.len());
            prop_assert_eq!(real.0.stats(), shadow.stats());
            // The durable history is the model's log, record for record.
            let records = real.history(Version::ZERO);
            prop_assert_eq!(&records, &shadow.history_since(0));
        }
    }
}
