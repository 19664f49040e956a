//! Property-based recovery test: for random certified histories and a
//! random crash point, a certifier recovered from its log is
//! indistinguishable from one that never crashed — same version counter,
//! same rebuilt history, and same decisions for every subsequent request.

use bargain_common::{ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, CertifyDecision, CertifyRequest, FileLog};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const REPLICAS: u32 = 3;

/// A generated update transaction: which rows it writes and which replica
/// originates it. Snapshots are taken at submission time (current
/// `V_commit`), as a live proxy would.
#[derive(Debug, Clone)]
struct GenTxn {
    origin: u32,
    keys: Vec<i64>,
}

fn txn_strategy() -> impl Strategy<Value = GenTxn> {
    (0..REPLICAS, proptest::collection::vec(0..12i64, 1..4))
        .prop_map(|(origin, keys)| GenTxn { origin, keys })
}

fn request(id: u64, t: &GenTxn, snapshot: Version) -> CertifyRequest {
    let mut ws = WriteSet::new();
    for &k in &t.keys {
        ws.push(TableId(0), Value::Int(k), WriteOp::Delete);
    }
    CertifyRequest {
        txn: TxnId(id),
        replica: ReplicaId(t.origin),
        snapshot,
        writeset: ws,
        idem: None,
    }
}

fn new_certifier() -> Certifier {
    Certifier::new((0..REPLICAS).map(ReplicaId).collect())
}

/// Steps `certifier` over one request and returns the decision it sends the
/// request's origin, which must not be a refusal.
fn decide(certifier: &mut Certifier, req: CertifyRequest) -> CertifyDecision {
    let origin = req.replica;
    let mut out = certifier.step([Input::Certify(req)]).unwrap().out;
    match out.pop() {
        Some((to, Delivery::Decision(decision)))
            if to == origin && !matches!(decision, CertifyDecision::Refused { .. }) =>
        {
            decision
        }
        other => panic!("the step ends with no decision to {origin}: {other:?}"),
    }
}

fn decision_version(d: &CertifyDecision) -> Option<Version> {
    match d {
        CertifyDecision::Commit { commit_version, .. }
        | CertifyDecision::Duplicate { commit_version, .. } => Some(*commit_version),
        CertifyDecision::Abort { .. } | CertifyDecision::Refused { .. } => None,
    }
}

proptest! {
    /// Crash the certifier after a random prefix of a random history: the
    /// recovered instance must decide every remaining request exactly as a
    /// never-crashed twin does, and end with identical observable state.
    #[test]
    fn recovered_certifier_is_indistinguishable_from_uncrashed_twin(
        txns in proptest::collection::vec(txn_strategy(), 1..40),
        crash_at in 0..40usize,
    ) {
        let crash_at = crash_at % (txns.len() + 1);
        let mut crashed = new_certifier();
        let mut twin = new_certifier();
        for (i, t) in txns.iter().enumerate() {
            if i == crash_at {
                // recover() wipes volatile state and replays the log —
                // exactly what a process restart does.
                let replayed = crashed.recover().unwrap();
                prop_assert_eq!(replayed as u64, crashed.version().0);
            }
            // Contend: every other transaction reads a slightly stale
            // snapshot so certification aborts actually occur.
            let lag = (i % 2) as u64;
            let snap_a = Version(crashed.version().0.saturating_sub(lag));
            let snap_b = Version(twin.version().0.saturating_sub(lag));
            prop_assert_eq!(snap_a, snap_b);
            let da = decide(&mut crashed, request(i as u64 + 1, t, snap_a));
            let db = decide(&mut twin, request(i as u64 + 1, t, snap_b));
            prop_assert_eq!(decision_version(&da), decision_version(&db),
                "decision diverged at txn {} (crash point {})", i, crash_at);
        }
        if crash_at == txns.len() {
            crashed.recover().unwrap();
        }
        prop_assert_eq!(crashed.version(), twin.version());
        prop_assert_eq!(
            crashed.certified_since(Version::ZERO).unwrap(),
            twin.certified_since(Version::ZERO).unwrap()
        );
    }

    /// Full process death: the history survives only in the file log. A
    /// brand-new certifier over the reopened file recovers the exact
    /// version counter and record sequence.
    #[test]
    fn file_backed_recovery_restores_the_exact_history(
        txns in proptest::collection::vec(txn_strategy(), 1..25),
        case in 0..u32::MAX,
    ) {
        // `case` alone is not unique: it derives from the property's name,
        // so any second run of this property in the process would share it.
        static INVOCATION: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bargain-recovery-{}-{}-{case}",
            std::process::id(),
            INVOCATION.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("certifier.wal");
        let _ = std::fs::remove_file(&path);

        let (before, pre_crash_version) = {
            let mut cert = Certifier::with_log(
                (0..REPLICAS).map(ReplicaId).collect(),
                Box::new(FileLog::open(&path).unwrap()),
            );
            for (i, t) in txns.iter().enumerate() {
                let snap = cert.version();
                decide(&mut cert, request(i as u64 + 1, t, snap));
            }
            // Certifier dropped here: the process is gone.
            (cert.certified_since(Version::ZERO).unwrap(), cert.version())
        };

        let mut recovered = Certifier::with_log(
            (0..REPLICAS).map(ReplicaId).collect(),
            Box::new(FileLog::open(&path).unwrap()),
        );
        let replayed = recovered.recover().unwrap();
        prop_assert_eq!(replayed, before.len());
        prop_assert_eq!(recovered.version(), pre_crash_version);
        prop_assert_eq!(recovered.certified_since(Version::ZERO).unwrap(), before);

        // The recovered instance keeps certifying from where it left off.
        let t = &txns[0];
        let snap = recovered.version();
        let d = decide(&mut recovered, request(txns.len() as u64 + 1, t, snap));
        prop_assert_eq!(decision_version(&d), Some(pre_crash_version.next()));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
