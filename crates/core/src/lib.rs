#![warn(missing_docs)]
//! # bargain-core
//!
//! The paper's primary contribution: a multi-master database replication
//! middleware that guarantees **strong consistency** with **lazy** update
//! propagation.
//!
//! The middleware is built from three sans-io state machines, deliberately
//! free of threads, clocks, and sockets so that the same protocol code runs
//! under the deterministic discrete-event simulator (`bargain-sim`) and the
//! live threaded cluster (`bargain-cluster`):
//!
//! - [`LoadBalancer`] — the client-facing intermediary. Routes transactions
//!   to replicas (least active connections) and tags each request with the
//!   *start requirement*: the minimum database version the replica must
//!   reach before starting the transaction. The start requirement is where
//!   the four consistency configurations differ (see
//!   [`bargain_common::ConsistencyMode`]).
//! - [`Certifier`] — decides whether update transactions commit (writeset
//!   certification against transactions committed since the requester's
//!   snapshot), assigns the global commit order, makes decisions durable in
//!   a write-ahead log, and fans certified writesets out to the other
//!   replicas as *refresh transactions*. In the eager configuration it also
//!   counts per-transaction replica commits to detect global commit. Its
//!   hosts reach it through one sans-io step, [`Certifier::step`], which
//!   returns every refresh, decision and global commit already addressed.
//! - [`Proxy`] — one per replica, wrapping the local storage engine. It
//!   delays transaction start until the start requirement is met, executes
//!   SQL statements, extracts writesets, applies local commits and refresh
//!   writesets in the certifier's global order, and performs *early
//!   certification* to avoid the hidden deadlock problem.
//!
//! [`wal`] is the certifier's commit log (the `CommitLog` trait, an
//! in-memory and a file-backed implementation). The types that cross a
//! process boundary or reach the disk — [`LogRecord`], [`CertifyRequest`],
//! [`CertifyDecision`], [`Refresh`], [`TxnOutcome`] — carry their one byte
//! encoding beside their definition, as `bargain_common::codec::Codec`
//! impls; the log file and the wire protocol share them.
//!
//! The [`checker`] module provides an online checker for the paper's
//! correctness definitions (strong consistency, session consistency, GSI
//! commit-order reads), used heavily by the test suites.

pub mod certifier;
pub mod checker;
pub mod lb;
pub mod messages;
pub mod proxy;
pub mod wal;

pub use certifier::{AnyCertifier, Certifier, CertifierStats};
pub use checker::{ConsistencyChecker, ConsistencyViolation, ObservedTxn};
pub use lb::{LoadBalancer, LoadBalancerStats, RoutingPolicy, JOIN_LAG_BOUND};
pub use messages::{
    CertifyDecision, CertifyRequest, Refresh, RoutedTxn, StartDecision, TxnOutcome, TxnRequest,
};
pub use proxy::{FinishAction, Proxy, ProxyEvent, ProxyStats, StatementOutcome};
pub use wal::{CommitLog, FileLog, LogRecord, MemoryLog};
