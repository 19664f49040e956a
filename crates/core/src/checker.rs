//! Online checker for the paper's correctness definitions.
//!
//! The paper defines (Definitions 1 and 2):
//!
//! - **Strong consistency**: for any transactions `T_i`, `T_j`, if `T_i`
//!   commits before `T_j` starts, then `T_i` precedes `T_j` in the
//!   equivalent single-copy history — i.e. `T_j` observes `T_i`'s updates.
//! - **Session consistency**: the same, restricted to
//!   `session(T_i) = session(T_j)`.
//!
//! Because the replicated system totally orders update commits with the
//! global version counter, "`T_j` observes `T_i`" reduces to a version
//! comparison, which makes both definitions mechanically checkable from an
//! event stream of *begins* (with the snapshot actually served) and *commit
//! acknowledgements* (with the commit version, in the real-time order the
//! client-visible acks happened).
//!
//! Two strong-consistency checks are provided:
//!
//! - [`ConsistencyChecker::strong_violations`] — the strict version-based
//!   check: every begin's snapshot must cover the newest acked commit. The
//!   eager and lazy **coarse-grained** configurations satisfy this.
//! - [`ConsistencyChecker::strong_violations_tableset`] — the view-based
//!   check underpinning the paper's Theorem 2: a begin's snapshot must
//!   cover the newest acked commit *that wrote a table in the
//!   transaction's table-set*. A transaction current on every table it can
//!   read is view-equivalent to one placed after all acked commits, so this
//!   is still strong consistency. The **fine-grained** configuration
//!   satisfies this (but deliberately not the strict check — that is
//!   exactly where its performance advantage comes from).
//!
//! **When does `T_j` "start"?** The definition's obligation is anchored at
//! the moment `T_j`'s *request enters the system* — the earliest point a
//! hidden channel could have influenced it. A client can only act on `T_i`
//! after receiving `T_i`'s commit acknowledgement, so any causally
//! dependent request is issued after that ack; the paper's mechanism
//! (tagging requests with version requirements at the load balancer) closes
//! exactly this window. Requests already in flight when an unrelated commit
//! is acked carry no obligation to observe it. Hosts therefore record
//! `record_issue` when the request is issued, `record_snapshot` when the
//! transaction's snapshot is later fixed at its replica, and `record_ack`
//! when the commit acknowledgement reaches the client side — all in
//! real-time order. The convenience `record_begin` records issue and
//! snapshot at the same instant (for histories where the distinction does
//! not matter).

use bargain_common::{ConsistencyMode, SessionId, TableId, TableSet, TxnId, Version};
use std::collections::HashMap;

/// A committed transaction as the checker saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedTxn {
    /// The transaction.
    pub txn: TxnId,
    /// Its session.
    pub session: SessionId,
    /// The snapshot version it read at.
    pub snapshot: Version,
    /// Its commit version, if it was a committed update transaction.
    pub commit_version: Option<Version>,
}

/// A violation of the checked guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyViolation {
    /// The transaction that started too stale.
    pub txn: TxnId,
    /// Its session.
    pub session: SessionId,
    /// The snapshot it was served.
    pub snapshot: Version,
    /// The newest version it was obliged to observe.
    pub required: Version,
}

#[derive(Debug, Clone)]
enum Event {
    Issue {
        txn: TxnId,
        session: SessionId,
        /// Tables the transaction may access; `None` = unrestricted.
        table_set: Option<TableSet>,
    },
    Ack {
        session: SessionId,
        commit_version: Option<Version>,
        tables_written: Vec<TableId>,
    },
    /// A fault was injected at this point in the history (crash, restart,
    /// message loss). Faults impose no consistency obligation of their own —
    /// the checks simply run *across* them, which is the point: the
    /// guarantees must hold on histories containing failures.
    Fault { label: String },
}

/// Accumulates issue/snapshot/ack events and checks consistency
/// definitions over them.
#[derive(Debug, Default)]
pub struct ConsistencyChecker {
    events: Vec<Event>,
    sessions: HashMap<TxnId, SessionId>,
    snapshots: HashMap<TxnId, Version>,
    acked: std::collections::HashSet<TxnId>,
    observed: Vec<ObservedTxn>,
}

impl ConsistencyChecker {
    /// An empty checker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `txn` (of `session`) was issued — entered the system —
    /// with the given statically known table-set (`None` = may read
    /// anything). This is the instant the transaction's consistency
    /// obligation is fixed.
    pub fn record_issue(&mut self, txn: TxnId, session: SessionId, table_set: Option<TableSet>) {
        self.sessions.insert(txn, session);
        self.events.push(Event::Issue {
            txn,
            session,
            table_set,
        });
        self.observed.push(ObservedTxn {
            txn,
            session,
            snapshot: Version::ZERO,
            commit_version: None,
        });
    }

    /// Records the snapshot `txn` was eventually served at its replica.
    pub fn record_snapshot(&mut self, txn: TxnId, snapshot: Version) {
        self.snapshots.insert(txn, snapshot);
        if let Some(o) = self.observed.iter_mut().rev().find(|o| o.txn == txn) {
            o.snapshot = snapshot;
        }
    }

    /// Convenience for histories where issue and begin coincide: records
    /// the issue and the snapshot at the same instant.
    pub fn record_begin(&mut self, txn: TxnId, session: SessionId, snapshot: Version) {
        self.record_begin_with_tables(txn, session, snapshot, None);
    }

    /// [`Self::record_begin`] with a table-set.
    pub fn record_begin_with_tables(
        &mut self,
        txn: TxnId,
        session: SessionId,
        snapshot: Version,
        table_set: Option<TableSet>,
    ) {
        self.record_issue(txn, session, table_set);
        self.record_snapshot(txn, snapshot);
    }

    /// Records that `txn`'s commit acknowledgement became visible to the
    /// client. `commit_version` is `Some` for update transactions (with the
    /// tables the transaction wrote), `None` for read-only ones.
    pub fn record_ack(&mut self, txn: TxnId, commit_version: Option<Version>) {
        self.record_ack_with_tables(txn, commit_version, Vec::new());
    }

    /// [`Self::record_ack`] carrying the set of tables written.
    pub fn record_ack_with_tables(
        &mut self,
        txn: TxnId,
        commit_version: Option<Version>,
        tables_written: Vec<TableId>,
    ) {
        let session = self
            .sessions
            .get(&txn)
            .copied()
            .expect("ack for a transaction never begun");
        self.acked.insert(txn);
        self.events.push(Event::Ack {
            session,
            commit_version,
            tables_written,
        });
        if let Some(o) = self.observed.iter_mut().rev().find(|o| o.txn == txn) {
            o.commit_version = commit_version;
        }
    }

    /// Records an injected fault (for diagnostics: violation-free histories
    /// are only interesting evidence when they actually contain faults).
    pub fn record_fault(&mut self, label: impl Into<String>) {
        self.events.push(Event::Fault {
            label: label.into(),
        });
    }

    /// Number of faults recorded in the history.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }))
            .count()
    }

    /// Labels of the recorded faults, in history order.
    #[must_use]
    pub fn fault_labels(&self) -> Vec<String> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Fault { label } => Some(label.clone()),
                _ => None,
            })
            .collect()
    }

    /// Commit versions of every acknowledged update transaction, in ack
    /// order. These are the versions the system promised clients are
    /// durable.
    #[must_use]
    pub fn acked_commit_versions(&self) -> Vec<Version> {
        let mut versions = Vec::new();
        for e in &self.events {
            if let Event::Ack {
                commit_version: Some(v),
                ..
            } = e
            {
                versions.push(*v);
            }
        }
        versions
    }

    /// The durability check: every acknowledged commit must survive every
    /// crash. `is_durable(v)` reports whether commit version `v` exists in
    /// the authoritative post-recovery commit history (the certifier log);
    /// any acked version it rejects is a lost acknowledged commit — the
    /// worst possible failure of a replicated database.
    #[must_use]
    pub fn lost_acked_commits(&self, is_durable: impl Fn(Version) -> bool) -> Vec<Version> {
        self.acked_commit_versions()
            .into_iter()
            .filter(|&v| !is_durable(v))
            .collect()
    }

    /// Transactions observed so far (in begin order).
    #[must_use]
    pub fn observed(&self) -> &[ObservedTxn] {
        &self.observed
    }

    /// Strict strong consistency: every transaction must be served a
    /// snapshot at least as new as the newest commit version acknowledged
    /// (to *any* client) before the transaction was issued.
    #[must_use]
    pub fn strong_violations(&self) -> Vec<ConsistencyViolation> {
        let mut max_acked = Version::ZERO;
        let mut violations = Vec::new();
        for e in &self.events {
            match e {
                Event::Ack {
                    commit_version: Some(v),
                    ..
                } => {
                    if *v > max_acked {
                        max_acked = *v;
                    }
                }
                Event::Ack { .. } | Event::Fault { .. } => {}
                Event::Issue { txn, session, .. } => {
                    let Some(snapshot) = self.snapshots.get(txn) else {
                        continue; // never started: read nothing
                    };
                    if *snapshot < max_acked {
                        violations.push(ConsistencyViolation {
                            txn: *txn,
                            session: *session,
                            snapshot: *snapshot,
                            required: max_acked,
                        });
                    }
                }
            }
        }
        violations
    }

    /// View-based strong consistency (Theorem 2): every begin must carry a
    /// snapshot covering the newest acked commit that wrote any table in
    /// the transaction's table-set. Begins recorded without a table-set are
    /// held to the strict global requirement.
    #[must_use]
    pub fn strong_violations_tableset(&self) -> Vec<ConsistencyViolation> {
        let mut max_acked_global = Version::ZERO;
        let mut max_acked_table: HashMap<TableId, Version> = HashMap::new();
        let mut violations = Vec::new();
        for e in &self.events {
            match e {
                Event::Ack {
                    commit_version: Some(v),
                    tables_written,
                    ..
                } => {
                    if *v > max_acked_global {
                        max_acked_global = *v;
                    }
                    for t in tables_written {
                        let entry = max_acked_table.entry(*t).or_insert(Version::ZERO);
                        if *v > *entry {
                            *entry = *v;
                        }
                    }
                }
                Event::Ack { .. } | Event::Fault { .. } => {}
                Event::Issue {
                    txn,
                    session,
                    table_set,
                } => {
                    let Some(snapshot) = self.snapshots.get(txn) else {
                        continue;
                    };
                    let required = match table_set {
                        None => max_acked_global,
                        Some(ts) => ts
                            .iter()
                            .map(|t| max_acked_table.get(t).copied().unwrap_or(Version::ZERO))
                            .max()
                            .unwrap_or(Version::ZERO),
                    };
                    if *snapshot < required {
                        violations.push(ConsistencyViolation {
                            txn: *txn,
                            session: *session,
                            snapshot: *snapshot,
                            required,
                        });
                    }
                }
            }
        }
        violations
    }

    /// Session consistency: every begin must carry a snapshot at least as
    /// new as the newest commit version acknowledged *to the same session*
    /// before it.
    #[must_use]
    pub fn session_violations(&self) -> Vec<ConsistencyViolation> {
        let mut max_acked: HashMap<SessionId, Version> = HashMap::new();
        let mut violations = Vec::new();
        for e in &self.events {
            match e {
                Event::Ack {
                    session,
                    commit_version: Some(v),
                    ..
                } => {
                    let entry = max_acked.entry(*session).or_insert(Version::ZERO);
                    if *v > *entry {
                        *entry = *v;
                    }
                }
                Event::Ack { .. } | Event::Fault { .. } => {}
                Event::Issue { txn, session, .. } => {
                    let Some(snapshot) = self.snapshots.get(txn) else {
                        continue;
                    };
                    let required = max_acked.get(session).copied().unwrap_or(Version::ZERO);
                    if *snapshot < required {
                        violations.push(ConsistencyViolation {
                            txn: *txn,
                            session: *session,
                            snapshot: *snapshot,
                            required,
                        });
                    }
                }
            }
        }
        violations
    }

    /// Checks that each session's *committed* transactions never observe
    /// snapshots that move backwards in time (part of the session
    /// guarantee: successive transactions receive monotonically increasing
    /// database versions). Aborted transactions are excluded: their
    /// snapshots are never exposed as committed state, and the session
    /// accounting deliberately ignores them.
    #[must_use]
    pub fn monotonic_session_violations(&self) -> Vec<ConsistencyViolation> {
        let mut last: HashMap<SessionId, Version> = HashMap::new();
        let mut violations = Vec::new();
        for e in &self.events {
            if let Event::Issue { txn, session, .. } = e {
                if !self.acked.contains(txn) {
                    continue;
                }
                let Some(snapshot) = self.snapshots.get(txn) else {
                    continue;
                };
                let entry = last.entry(*session).or_insert(Version::ZERO);
                if *snapshot < *entry {
                    violations.push(ConsistencyViolation {
                        txn: *txn,
                        session: *session,
                        snapshot: *snapshot,
                        required: *entry,
                    });
                } else {
                    *entry = *snapshot;
                }
            }
        }
        violations
    }

    /// The violations of the guarantee `mode` *claims* to provide:
    ///
    /// - `Eager`, `LazyCoarse`: strict strong consistency;
    /// - `LazyFine`: view-based (table-set) strong consistency;
    /// - `Session`: session consistency plus per-session monotonicity;
    /// - `Baseline`: nothing.
    #[must_use]
    pub fn violations_for(&self, mode: ConsistencyMode) -> Vec<ConsistencyViolation> {
        match mode {
            ConsistencyMode::Eager | ConsistencyMode::LazyCoarse => self.strong_violations(),
            ConsistencyMode::LazyFine => self.strong_violations_tableset(),
            ConsistencyMode::Session => {
                let mut v = self.session_violations();
                v.extend(self.monotonic_session_violations());
                v
            }
            ConsistencyMode::Baseline => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u64) -> SessionId {
        SessionId(i)
    }

    fn ts(ids: &[u32]) -> TableSet {
        ids.iter().map(|&i| TableId(i)).collect()
    }

    #[test]
    fn strongly_consistent_history_passes() {
        let mut c = ConsistencyChecker::new();
        // H2 of the paper: T1 commits, then T2 starts and sees v1.
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_begin(TxnId(2), s(2), Version(1));
        c.record_ack(TxnId(2), None);
        assert!(c.strong_violations().is_empty());
        assert!(c.session_violations().is_empty());
    }

    #[test]
    fn stale_read_after_foreign_commit_violates_strong_only() {
        let mut c = ConsistencyChecker::new();
        // H1 of the paper: T1 commits at v1 (session 1); T2 (session 2)
        // then starts at v0 — serializable but NOT strongly consistent.
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_begin(TxnId(2), s(2), Version::ZERO);
        c.record_ack(TxnId(2), None);
        let v = c.strong_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].txn, TxnId(2));
        assert_eq!(v[0].snapshot, Version::ZERO);
        assert_eq!(v[0].required, Version(1));
        // Different sessions: session consistency is satisfied.
        assert!(c.session_violations().is_empty());
    }

    #[test]
    fn stale_read_in_same_session_violates_session_too() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_begin(TxnId(2), s(1), Version::ZERO); // own update invisible
        c.record_ack(TxnId(2), None);
        assert_eq!(c.session_violations().len(), 1);
        assert_eq!(c.strong_violations().len(), 1);
    }

    #[test]
    fn concurrent_transactions_do_not_violate() {
        let mut c = ConsistencyChecker::new();
        // T2 begins before T1's ack: overlapping, no obligation.
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_begin(TxnId(2), s(2), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_ack(TxnId(2), None);
        assert!(c.strong_violations().is_empty());
    }

    #[test]
    fn tableset_check_reproduces_table_i_t6() {
        // Table I: commits v1 {A}, v2 {B,C}, v3 {B}, v4 {C}, v5 {B,C};
        // T6 touches only table A and starts at snapshot v1 — fine-grained
        // strong consistency holds even though V_system is 5.
        let (a, b, ccc) = (0u32, 1u32, 2u32);
        let mut c = ConsistencyChecker::new();
        let commits: [(u64, &[u32]); 5] = [
            (1, &[a]),
            (2, &[b, ccc]),
            (3, &[b]),
            (4, &[ccc]),
            (5, &[b, ccc]),
        ];
        for (i, (v, tabs)) in commits.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            c.record_begin_with_tables(txn, s(1), Version(v - 1), Some(ts(tabs)));
            c.record_ack_with_tables(
                txn,
                Some(Version(*v)),
                tabs.iter().map(|&t| TableId(t)).collect(),
            );
        }
        c.record_begin_with_tables(TxnId(6), s(2), Version(1), Some(ts(&[a])));
        c.record_ack(TxnId(6), None);
        // Strict check flags T6 (snapshot 1 < required 5)...
        assert_eq!(c.strong_violations().len(), 1);
        // ...but the view-based check accepts it (table A's newest acked
        // commit is v1).
        assert!(c.strong_violations_tableset().is_empty());
        // Had T6 touched table C it would be required to see v5.
        let mut c2 = ConsistencyChecker::new();
        c2.record_begin_with_tables(TxnId(1), s(1), Version::ZERO, Some(ts(&[ccc])));
        c2.record_ack_with_tables(TxnId(1), Some(Version(1)), vec![TableId(ccc)]);
        c2.record_begin_with_tables(TxnId(2), s(2), Version::ZERO, Some(ts(&[ccc])));
        assert_eq!(c2.strong_violations_tableset().len(), 1);
    }

    #[test]
    fn tableset_check_without_tableset_falls_back_to_global() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack_with_tables(TxnId(1), Some(Version(1)), vec![TableId(0)]);
        c.record_begin(TxnId(2), s(2), Version::ZERO); // no table-set
        assert_eq!(c.strong_violations_tableset().len(), 1);
    }

    #[test]
    fn empty_tableset_begin_never_violates_tableset_check() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack_with_tables(TxnId(1), Some(Version(1)), vec![TableId(0)]);
        c.record_begin_with_tables(TxnId(2), s(2), Version::ZERO, Some(TableSet::empty()));
        assert!(c.strong_violations_tableset().is_empty());
    }

    #[test]
    fn monotonicity_check() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version(5));
        c.record_ack(TxnId(1), None);
        c.record_begin(TxnId(2), s(1), Version(3)); // goes back in time
        c.record_ack(TxnId(2), None);
        assert_eq!(c.monotonic_session_violations().len(), 1);
        // Different session unaffected.
        let mut c2 = ConsistencyChecker::new();
        c2.record_begin(TxnId(1), s(1), Version(5));
        c2.record_begin(TxnId(2), s(2), Version(3));
        assert!(c2.monotonic_session_violations().is_empty());
    }

    #[test]
    fn read_only_acks_impose_no_obligation() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version(4));
        c.record_ack(TxnId(1), None); // read-only at snapshot 4
        c.record_begin(TxnId(2), s(2), Version::ZERO);
        assert!(c.strong_violations().is_empty());
    }

    #[test]
    fn violations_for_mode_dispatch() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack_with_tables(TxnId(1), Some(Version(1)), vec![TableId(0)]);
        c.record_begin_with_tables(TxnId(2), s(2), Version::ZERO, Some(ts(&[1])));
        assert_eq!(c.violations_for(ConsistencyMode::LazyCoarse).len(), 1);
        assert_eq!(c.violations_for(ConsistencyMode::Eager).len(), 1);
        // Fine-grained: T2's table-set {1} is untouched by the v1 commit.
        assert!(c.violations_for(ConsistencyMode::LazyFine).is_empty());
        assert!(c.violations_for(ConsistencyMode::Session).is_empty());
        assert!(c.violations_for(ConsistencyMode::Baseline).is_empty());
    }

    #[test]
    fn faults_are_transparent_to_the_consistency_checks() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_fault("certifier crash");
        c.record_fault("certifier restart");
        // Post-recovery transaction still must observe the acked commit...
        c.record_begin(TxnId(2), s(2), Version(1));
        assert!(c.strong_violations().is_empty());
        assert!(c.session_violations().is_empty());
        assert_eq!(c.fault_count(), 2);
        assert_eq!(
            c.fault_labels(),
            vec!["certifier crash", "certifier restart"]
        );
        // ...and a stale one across the fault is still flagged.
        let mut c2 = ConsistencyChecker::new();
        c2.record_begin(TxnId(1), s(1), Version::ZERO);
        c2.record_ack(TxnId(1), Some(Version(1)));
        c2.record_fault("replica 0 crash");
        c2.record_begin(TxnId(2), s(2), Version::ZERO);
        assert_eq!(c2.strong_violations().len(), 1);
    }

    #[test]
    fn lost_acked_commits_flags_versions_missing_after_recovery() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        c.record_begin(TxnId(2), s(1), Version(1));
        c.record_ack(TxnId(2), Some(Version(2)));
        c.record_begin(TxnId(3), s(1), Version(2));
        c.record_ack(TxnId(3), None); // read-only: no durability obligation
        assert_eq!(c.acked_commit_versions(), vec![Version(1), Version(2)]);
        // Everything durable: nothing lost.
        assert!(c.lost_acked_commits(|_| true).is_empty());
        // Recovery that dropped v2: exactly v2 is reported lost.
        assert_eq!(c.lost_acked_commits(|v| v == Version(1)), vec![Version(2)]);
    }

    #[test]
    fn observed_records_commit_versions() {
        let mut c = ConsistencyChecker::new();
        c.record_begin(TxnId(1), s(1), Version::ZERO);
        c.record_ack(TxnId(1), Some(Version(1)));
        let o = c.observed();
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].commit_version, Some(Version(1)));
    }
}
