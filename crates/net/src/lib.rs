#![warn(missing_docs)]
//! # bargain-net
//!
//! The wire-protocol subsystem: everything needed to run the replication
//! middleware as *real processes* instead of threads in one address space —
//! the deployment the paper actually measured (middleware components and
//! replicas on separate machines of a cluster).
//!
//! Three layers:
//!
//! - [`frame`] + [`codec`] — a length-prefixed, CRC-32-checksummed binary
//!   framing with a versioned header and a per-frame `request_id` tag
//!   (protocol v2: a connection can pipeline many in-flight requests, with
//!   replies matched by id), and the [`Message`] envelope: which messages
//!   exist, their kind bytes, their fields in wire order. The fields'
//!   bytes are each type's one encoding (`bargain_common::codec`), the
//!   same on the certifier's disk and on the wire.
//!   [`frame::FrameDecoder`] is the incremental decode path for
//!   non-blocking sockets: partial frames resume across readiness events.
//! - [`server`] + [`certifier`] — TCP servers, two services on one
//!   readiness-driven event loop (`evloop`: one thread over a hand-rolled
//!   epoll poller, see `reactor`). [`server::NetServer`] hosts a full
//!   cluster node behind the session protocol: the loop submits
//!   transactions, the replica thread that finishes one writes its reply,
//!   and a small pool runs the requests that block;
//!   [`certifier::CertifierServer`] hosts just the
//!   certification/durability component so it can live in its own process,
//!   reached from a cluster via [`certifier::RemoteCertifierLink`].
//! - [`client`] — [`client::RemoteSession`], a drop-in client driver with
//!   the same surface as `bargain_cluster::Session`, plus the bounded
//!   retry/backoff [`conn::ConnectPolicy`]. Retries in-doubt transactions
//!   under durable idempotency keys, so client-visible commits are
//!   exactly-once even across connection failures and server restarts.
//!   [`bootstrap`] is the elasticity counterpart: a joining node streams a
//!   checksummed snapshot plus catch-up feed from a donor frontend
//!   ([`bootstrap::bootstrap_engine`]) and restarts the whole fetch from
//!   another donor on any failure.
//!
//! For testing there is also [`chaos`]: a fault-injecting TCP proxy driven
//! by seed-deterministic schedules ([`chaos::NetFaultPlan`]), used by the
//! end-to-end chaos suite to drive partitions, latency bursts, frame
//! corruption, and mid-frame connection kills through the full stack.
//!
//! ```no_run
//! use bargain_cluster::{Cluster, ClusterConfig};
//! use bargain_net::{NetServer, RemoteSession};
//! use bargain_common::Value;
//!
//! // Process A: serve a cluster on TCP.
//! let cluster = Cluster::start(ClusterConfig::default());
//! let server = NetServer::start("127.0.0.1:7045", cluster).unwrap();
//!
//! // Process B: drive it like a local session.
//! let mut session = RemoteSession::connect("127.0.0.1:7045").unwrap();
//! session.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
//! session
//!     .run_sql(&[("INSERT INTO t (id, v) VALUES (?, ?)", vec![Value::Int(1), Value::Int(10)])])
//!     .unwrap();
//! server.stop();
//! ```

pub mod bootstrap;
pub mod certifier;
pub mod chaos;
pub mod client;
pub mod codec;
pub mod conn;
pub(crate) mod evloop;
pub mod frame;
pub(crate) mod reactor;
pub mod server;

pub use bootstrap::{bootstrap_engine, BootstrapConfig, Bootstrapped};
pub use certifier::{
    CertifierLinkConfig, CertifierServer, CertifierServerConfig, RemoteCertifierLink,
};
pub use chaos::{ChaosProxy, NetFaultEvent, NetFaultKind, NetFaultPlan};
pub use client::RemoteSession;
pub use codec::Message;
pub use conn::{ConnectPolicy, Connection};
pub use server::{NetServer, NetServerConfig, NetServerStats};
