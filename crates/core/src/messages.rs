//! Protocol messages exchanged between clients, the load balancer, the
//! replicas' proxies, and the certifier.
//!
//! The hosts (`bargain-sim`, `bargain-cluster`) are responsible for
//! *transporting* these messages; the state machines only produce and
//! consume them.
//!
//! The four that cross a process boundary carry their wire encoding here,
//! as [`Codec`] impls (all integers little-endian; `bargain_common::codec`
//! has the parts):
//!
//! ```text
//! certify:  u64 txn | u32 replica | u64 snapshot | option<idem key> | writeset
//! decision: u8 tag (0=commit,1=abort,2=duplicate,3=refused) | u64 txn
//!             | u64 version (commit/abort) or u64 original | u64 version
//!             or string reason (refused)
//! refresh:  u32 origin | u64 txn | u64 commit_version | writeset
//! outcome:  u64 txn | u64 client | u64 session | u32 replica
//!             | bool committed | option<u64> commit_version
//!             | u64 observed_version | vec<u32> tables_written
//!             | option<string> abort_reason
//! ```

use crate::wal::LogRecord;
use bargain_common::codec::{malformed, Codec, DecodeResult, Reader};
use bargain_common::{
    ClientId, IdemKey, ReplicaId, SessionId, TableId, TemplateId, TxnId, Value, Version, WriteSet,
};
use std::sync::Arc;

/// A client's request to run one transaction (client → load balancer).
///
/// The client names a [`TemplateId`] — a predefined transaction type whose
/// prepared statements and table-set the system knows statically — and
/// supplies the positional parameters for each statement.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnRequest {
    /// Requesting client.
    pub client: ClientId,
    /// The client's session (scope of session consistency).
    pub session: SessionId,
    /// Which transaction template to run.
    pub template: TemplateId,
    /// Parameters for each statement of the template, in statement order.
    pub params: Vec<Vec<Value>>,
    /// Optional idempotency key: a retry of an in-doubt transaction carries
    /// the same key, and the certifier answers with the original outcome
    /// instead of committing the writes a second time.
    pub idem: Option<IdemKey>,
}

/// A transaction routed to a replica (load balancer → proxy).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTxn {
    /// System-wide transaction id assigned by the load balancer.
    pub txn: TxnId,
    /// Originating client and session.
    pub client: ClientId,
    /// Session the transaction belongs to.
    pub session: SessionId,
    /// Template to execute.
    pub template: TemplateId,
    /// Statement parameters.
    pub params: Vec<Vec<Value>>,
    /// Target replica chosen by the load balancer.
    pub replica: ReplicaId,
    /// The minimum local database version the replica must reach before the
    /// transaction may start ([`Version::ZERO`] means "start immediately").
    /// This single field encodes all four consistency configurations.
    pub start_requirement: Version,
    /// Idempotency key carried through from the [`TxnRequest`].
    pub idem: Option<IdemKey>,
}

/// The proxy's answer to "can this transaction start now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDecision {
    /// The replica is current enough; the transaction began at the given
    /// snapshot.
    Started {
        /// The snapshot version the transaction reads at (the replica's
        /// `V_local` at start).
        snapshot: Version,
    },
    /// The replica must first apply more updates; the transaction is queued
    /// and will start (producing [`ProxyEvent::TxnStarted`]) once the
    /// replica reaches the start requirement.
    ///
    /// [`ProxyEvent::TxnStarted`]: crate::proxy::ProxyEvent::TxnStarted
    Delayed {
        /// The version the replica must reach.
        required: Version,
        /// The replica's current version.
        current: Version,
    },
}

/// A request to certify an update transaction (proxy → certifier).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyRequest {
    /// The committing transaction.
    pub txn: TxnId,
    /// Replica hosting the transaction.
    pub replica: ReplicaId,
    /// The snapshot version the transaction read at.
    pub snapshot: Version,
    /// The transaction's complete writeset, shared with the transaction
    /// that wrote it and, once certified, with the log record and the
    /// refreshes.
    pub writeset: Arc<WriteSet>,
    /// Idempotency key, if the client attached one. Recorded durably with
    /// the commit so retries deduplicate across certifier restarts.
    pub idem: Option<IdemKey>,
}

/// The certifier's decision (certifier → originating proxy).
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyDecision {
    /// Commit at the assigned global version.
    Commit {
        /// The transaction.
        txn: TxnId,
        /// Global commit version (the `V_commit` value assigned).
        commit_version: Version,
    },
    /// Abort: the writeset conflicts with a transaction that committed
    /// after `snapshot`.
    Abort {
        /// The transaction.
        txn: TxnId,
        /// The *newest* conflicting committed version: the highest commit
        /// version above `snapshot` that wrote a row the aborted writeset
        /// also writes.
        conflicting_version: Version,
    },
    /// The request's idempotency key matches an already-certified commit:
    /// the client is retrying a transaction whose acknowledgement was lost.
    /// The proxy must *discard* the retry's tentative local writes (the
    /// original's writes are already in the global sequence) and report the
    /// transaction committed at the original version.
    Duplicate {
        /// The retrying transaction (to be discarded).
        txn: TxnId,
        /// The transaction id of the original commit.
        original: TxnId,
        /// The original commit's global version.
        commit_version: Version,
    },
    /// The request was not certified: its snapshot is outside the history
    /// the certifier holds, or its idempotency key has fallen out of the
    /// dedup window, so exactly-once can no longer be proven for it. Only
    /// this transaction is affected; it aborts with `reason`.
    Refused {
        /// The transaction.
        txn: TxnId,
        /// Why, as the client is told it.
        reason: String,
    },
}

/// A certified writeset propagated to a non-originating replica
/// (certifier → proxy), a.k.a. a *refresh transaction*.
#[derive(Debug, Clone, PartialEq)]
pub struct Refresh {
    /// Replica where the transaction originally executed.
    pub origin: ReplicaId,
    /// The committed transaction.
    pub txn: TxnId,
    /// Global commit version; refreshes must be applied in this order.
    pub commit_version: Version,
    /// The writes to install. Shared (not cloned) with the certifier's log
    /// and history: fanning a commit out to N replicas costs N refcount
    /// bumps, not N deep copies of the writeset.
    pub writeset: Arc<WriteSet>,
}

impl From<&LogRecord> for Refresh {
    /// The refresh that replays a logged commit at a replica.
    fn from(rec: &LogRecord) -> Refresh {
        Refresh {
            origin: rec.origin,
            txn: rec.txn,
            commit_version: rec.commit_version,
            writeset: Arc::clone(&rec.writeset),
        }
    }
}

/// Final outcome of a transaction (proxy → load balancer → client).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnOutcome {
    /// The transaction.
    pub txn: TxnId,
    /// Originating client and session (echoed for the load balancer's
    /// bookkeeping).
    pub client: ClientId,
    /// Session the transaction belonged to.
    pub session: SessionId,
    /// Replica that executed the transaction.
    pub replica: ReplicaId,
    /// Whether the transaction committed.
    pub committed: bool,
    /// For committed update transactions: the global commit version.
    pub commit_version: Option<Version>,
    /// The newest database state the client is known to have observed: the
    /// commit version for update transactions, the snapshot for read-only
    /// ones. Drives the load balancer's `V_system` and session accounting.
    pub observed_version: Version,
    /// Tables the transaction actually wrote (for the fine-grained
    /// technique's per-table version accounting). Empty for read-only or
    /// aborted transactions.
    pub tables_written: Vec<TableId>,
    /// Human-readable abort reason, if aborted.
    pub abort_reason: Option<String>,
}

impl TxnOutcome {
    /// Shorthand for "committed and wrote something".
    #[must_use]
    pub fn is_committed_update(&self) -> bool {
        self.committed && self.commit_version.is_some()
    }
}

impl Codec for CertifyRequest {
    fn put(&self, buf: &mut Vec<u8>) {
        self.txn.put(buf);
        self.replica.put(buf);
        self.snapshot.put(buf);
        self.idem.put(buf);
        self.writeset.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(CertifyRequest {
            txn: r.get()?,
            replica: r.get()?,
            snapshot: r.get()?,
            idem: r.get()?,
            writeset: r.get()?,
        })
    }
}

impl Codec for CertifyDecision {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            CertifyDecision::Commit {
                txn,
                commit_version,
            } => {
                buf.push(0);
                txn.put(buf);
                commit_version.put(buf);
            }
            CertifyDecision::Abort {
                txn,
                conflicting_version,
            } => {
                buf.push(1);
                txn.put(buf);
                conflicting_version.put(buf);
            }
            CertifyDecision::Duplicate {
                txn,
                original,
                commit_version,
            } => {
                buf.push(2);
                txn.put(buf);
                original.put(buf);
                commit_version.put(buf);
            }
            CertifyDecision::Refused { txn, reason } => {
                buf.push(3);
                txn.put(buf);
                reason.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let tag: u8 = r.get()?;
        let txn = r.get()?;
        Ok(match tag {
            0 => CertifyDecision::Commit {
                txn,
                commit_version: r.get()?,
            },
            1 => CertifyDecision::Abort {
                txn,
                conflicting_version: r.get()?,
            },
            2 => CertifyDecision::Duplicate {
                txn,
                original: r.get()?,
                commit_version: r.get()?,
            },
            3 => CertifyDecision::Refused {
                txn,
                reason: r.get()?,
            },
            t => return Err(malformed(format!("bad decision tag {t}"))),
        })
    }
}

impl Codec for Refresh {
    fn put(&self, buf: &mut Vec<u8>) {
        self.origin.put(buf);
        self.txn.put(buf);
        self.commit_version.put(buf);
        self.writeset.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Refresh {
            origin: r.get()?,
            txn: r.get()?,
            commit_version: r.get()?,
            writeset: r.get()?,
        })
    }
}

// `#[inline]`: on every reply's path, encoded and decoded from `bargain-net`.
impl Codec for TxnOutcome {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.txn.put(buf);
        self.client.put(buf);
        self.session.put(buf);
        self.replica.put(buf);
        self.committed.put(buf);
        self.commit_version.put(buf);
        self.observed_version.put(buf);
        self.tables_written.put(buf);
        self.abort_reason.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TxnOutcome {
            txn: r.get()?,
            client: r.get()?,
            session: r.get()?,
            replica: r.get()?,
            committed: r.get()?,
            commit_version: r.get()?,
            observed_version: r.get()?,
            tables_written: r.get()?,
            abort_reason: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        let base = TxnOutcome {
            txn: TxnId(1),
            client: ClientId(1),
            session: SessionId(1),
            replica: ReplicaId(0),
            committed: true,
            commit_version: Some(Version(3)),
            observed_version: Version(3),
            tables_written: vec![TableId(0)],
            abort_reason: None,
        };
        assert!(base.is_committed_update());

        let ro = TxnOutcome {
            commit_version: None,
            tables_written: vec![],
            observed_version: Version(2),
            ..base.clone()
        };
        assert!(ro.committed);
        assert!(!ro.is_committed_update());
    }

    #[test]
    fn start_decision_variants() {
        let s = StartDecision::Started {
            snapshot: Version(4),
        };
        assert!(matches!(s, StartDecision::Started { .. }));
        let d = StartDecision::Delayed {
            required: Version(9),
            current: Version(4),
        };
        match d {
            StartDecision::Delayed { required, current } => {
                assert!(required > current);
            }
            StartDecision::Started { .. } => panic!("wrong variant"),
        }
    }
}
