//! Seeded crash stress test for the certifier over its file-backed log.
//!
//! A certifier is driven with a stream of mixed keyed/unkeyed batches over
//! a `FileLog`, announcing one batch behind, then the whole process
//! "crashes" mid-stream: one batch is certified and durable but never
//! announced, the certifier is dropped, and a torn partial record is
//! appended to the WAL. A fresh certifier opened over the directory must
//! recover, answer every acknowledged keyed request as a `Duplicate` at its
//! **original** commit version (exactly-once across the crash), and keep
//! certifying — behind where the torn bytes were — with every idempotency
//! key appearing exactly once in the durable history a second restart
//! reads back.

use bargain_common::{IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, CertifyDecision, CertifyRequest, Refresh};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

const CLIENTS: u64 = 4;
const BATCH: usize = 8;
const PRE_CRASH_BATCHES: usize = 16;
const POST_CRASH_BATCHES: usize = 10;
const SEED: u64 = 0x5EED_CE27;

/// xorshift64* — a tiny seeded generator so the schedule is reproducible
/// without pulling the `rand` crate into core's dev-deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The deterministic workload source: batches of mixed keyed/unkeyed
/// requests, remembering every keyed request verbatim for later replay.
struct Workload {
    rng: Rng,
    txn: u64,
    next_seq: [u64; CLIENTS as usize],
    keyed_issued: Vec<CertifyRequest>,
}

impl Workload {
    /// 1–4 rows over 8 tables, keys 0..32 so write-write conflicts and
    /// multi-table transactions both occur often.
    fn random_ws(&mut self) -> WriteSet {
        let mut ws = WriteSet::new();
        for _ in 0..self.rng.below(4) + 1 {
            let k = self.rng.below(32) as i64;
            ws.push(
                TableId((k as u32) % 8),
                Value::Int(k),
                WriteOp::Update(vec![Value::Int(k), Value::Int(0)].into()),
            );
        }
        ws
    }

    fn make_batch(&mut self, version: Version) -> Vec<CertifyRequest> {
        (0..BATCH)
            .map(|_| {
                self.txn += 1;
                let ws = self.random_ws();
                let idem = (self.rng.below(2) == 0).then(|| {
                    let c = self.rng.below(CLIENTS) as usize;
                    let key = IdemKey {
                        client: 0xBEEF + c as u64,
                        seq: self.next_seq[c],
                    };
                    self.next_seq[c] += 1;
                    key
                });
                let req = CertifyRequest {
                    txn: TxnId(self.txn),
                    replica: ReplicaId(self.txn as u32 % 3),
                    snapshot: Version(version.0.saturating_sub(self.rng.below(4))),
                    writeset: Arc::new(ws),
                    idem,
                };
                if req.idem.is_some() {
                    self.keyed_issued.push(req.clone());
                }
                req
            })
            .collect()
    }
}

fn replicas() -> Vec<ReplicaId> {
    vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]
}

/// What a host does at start: open the directory's log and recover.
fn open_certifier(dir: &Path) -> Certifier {
    Certifier::open(replicas(), Some(dir)).expect("certifier log opens and replays")
}

/// Each request's decision, in request order, with the refreshes sent ahead
/// of it and their addressees.
type Certified = Vec<(CertifyDecision, Vec<(ReplicaId, Refresh)>)>;

/// Steps `certifier` over `reqs` as one batch and regroups what it sent per
/// request. No request may be refused: the stream keeps every snapshot in
/// the history and every replayed key in its window.
fn certify(certifier: &mut Certifier, reqs: Vec<CertifyRequest>) -> Certified {
    let origins: Vec<ReplicaId> = reqs.iter().map(|req| req.replica).collect();
    let step = certifier.step(reqs.into_iter().map(Input::Certify));
    let (mut certified, mut refreshes) = (Vec::new(), Vec::new());
    for (to, delivery) in step.expect("the log flushes").out {
        match delivery {
            Delivery::Refresh(refresh) => refreshes.push((to, refresh)),
            Delivery::Decision(CertifyDecision::Refused { reason, .. }) => panic!("{reason}"),
            Delivery::Decision(decision) => {
                assert_eq!(to, origins[certified.len()], "{decision:?}");
                certified.push((decision, std::mem::take(&mut refreshes)));
            }
            Delivery::GlobalCommit(txn) => panic!("lazy certifier completed {txn}"),
        }
    }
    assert_eq!(certified.len(), origins.len());
    certified
}

fn record_acked(
    reqs: &[CertifyRequest],
    results: &[(CertifyDecision, Vec<(ReplicaId, Refresh)>)],
    acked: &mut HashMap<IdemKey, (TxnId, Version)>,
) {
    for (req, (decision, _)) in reqs.iter().zip(results) {
        if let (Some(key), CertifyDecision::Commit { commit_version, .. }) = (req.idem, decision) {
            let prev = acked.insert(key, (req.txn, *commit_version));
            assert!(prev.is_none(), "idempotency key committed twice: {key:?}");
        }
    }
}

#[test]
fn crash_restart_mid_stream_preserves_exactly_once_keyed_commits() {
    let dir = std::env::temp_dir().join(format!("bargain-crash-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut load = Workload {
        rng: Rng(SEED),
        txn: 0,
        next_seq: [0; CLIENTS as usize],
        keyed_issued: Vec::new(),
    };
    // Keyed commits whose batch was *acknowledged* (announced to its
    // clients): these are the exactly-once obligations that must survive
    // the crash.
    let mut acked_commits: HashMap<IdemKey, (TxnId, Version)> = HashMap::new();

    // Phase A: the pre-crash stream, announced one batch behind so that the
    // crash finds a batch certified and flushed but not yet announced.
    let mut certifier = open_certifier(&dir);
    let mut pending: VecDeque<(Vec<CertifyRequest>, Certified)> = VecDeque::new();
    for _ in 0..PRE_CRASH_BATCHES {
        let reqs = load.make_batch(certifier.version());
        let results = certify(&mut certifier, reqs.clone());
        pending.push_back((reqs, results));
        if pending.len() == 2 {
            let (reqs, results) = pending.pop_front().unwrap();
            record_acked(&reqs, &results, &mut acked_commits);
        }
    }

    // Crash: one batch is certified but was never acknowledged. Drop the
    // certifier (the "process" dies; from the client's point of view that
    // batch may or may not have landed), then tear the tail of the WAL — a
    // partial record from an append cut short mid-write.
    let abandoned = pending.len();
    pending.clear();
    assert_eq!(abandoned, 1, "one batch must be in flight at the crash");
    let pre_crash_acks = acked_commits.len();
    assert!(pre_crash_acks > 8, "seed produced too few keyed commits");
    drop(certifier);
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("certifier.wal"))
            .unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
    }

    // Restart: rebuild from the reopened WAL. The torn tail is cut back to
    // the last complete record; replay re-derives V_commit, history, and
    // the dedup windows.
    let mut certifier = open_certifier(&dir);
    let max_acked = acked_commits.values().map(|(_, v)| *v).max().unwrap();
    assert!(certifier.version() >= max_acked, "an acked commit was lost");

    // Exactly-once across the crash: every *acknowledged* keyed commit
    // replays as a Duplicate at its original commit version. Keys from the
    // abandoned batch (or that aborted pre-crash) carry no obligation: a
    // Duplicate (the flush landed), a fresh commit, or a fresh abort are
    // all legitimate — but never a second commit of an acked key, which
    // the final log scan proves.
    let mut replay_txn = 1_000_000u64;
    for req in load.keyed_issued.clone() {
        let key = req.idem.unwrap();
        replay_txn += 1;
        let replay = CertifyRequest {
            txn: TxnId(replay_txn),
            replica: req.replica,
            snapshot: certifier.version(),
            writeset: req.writeset.clone(),
            idem: Some(key),
        };
        let (decision, refreshes) = certify(&mut certifier, vec![replay]).remove(0);
        if let Some(&(orig_txn, orig_version)) = acked_commits.get(&key) {
            match decision {
                CertifyDecision::Duplicate {
                    original,
                    commit_version,
                    ..
                } => {
                    assert_eq!(
                        commit_version, orig_version,
                        "replay of {key:?} returned a different commit version"
                    );
                    assert_eq!(original, orig_txn);
                    assert!(refreshes.is_empty(), "a duplicate must not re-refresh");
                }
                other => panic!("acked keyed commit {key:?} replayed as {other:?}"),
            }
        } else if let CertifyDecision::Commit { commit_version, .. } = decision {
            acked_commits.insert(key, (TxnId(replay_txn), commit_version));
        }
    }

    // Phase B: the recovered certifier keeps serving the stream.
    for _ in 0..POST_CRASH_BATCHES {
        let reqs = load.make_batch(certifier.version());
        let results = certify(&mut certifier, reqs.clone());
        record_acked(&reqs, &results, &mut acked_commits);
    }

    // The durable history, as a second restart reads it from the file — so
    // everything certified after the tear must have been appended where a
    // replay finds it: a strictly increasing version sequence where every
    // idempotency key appears exactly once, at the version the client was
    // told.
    let last = certifier.version();
    drop(certifier);
    let mut certifier = open_certifier(&dir);
    assert_eq!(
        certifier.version(),
        last,
        "commits after the tear were lost"
    );
    let records = certifier.certified_since(Version::ZERO).expect("replays");
    assert!(records
        .windows(2)
        .all(|p| p[0].commit_version < p[1].commit_version));
    let mut seen: HashMap<IdemKey, Version> = HashMap::new();
    for r in &records {
        if let Some(key) = r.idem {
            let prev = seen.insert(key, r.commit_version);
            assert!(prev.is_none(), "{key:?} logged twice: {prev:?} and {r:?}");
        }
    }
    for (key, (_, version)) in &acked_commits {
        assert_eq!(
            seen.get(key),
            Some(version),
            "acked {key:?} missing or at the wrong version in the log"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
