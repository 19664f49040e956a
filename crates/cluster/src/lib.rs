#![warn(missing_docs)]
//! # bargain-cluster
//!
//! A live, threaded in-process deployment of the replicated database: the
//! same `bargain-core` state machines the simulator hosts, but running on
//! real OS threads connected by channels — one thread per replica (proxy +
//! storage engine). The certifier and the load balancer have no thread:
//! the replica threads certify under the certifier's lock, and the load
//! balancer is shared state the submitting thread and the replica threads
//! call under one lock (see `front.rs`).
//!
//! This is the deployment applications embed:
//!
//! ```
//! use bargain_cluster::{Cluster, ClusterConfig};
//! use bargain_common::{ConsistencyMode, Value};
//!
//! let cluster = Cluster::start(ClusterConfig {
//!     replicas: 3,
//!     mode: ConsistencyMode::LazyFine,
//!     ..ClusterConfig::default()
//! });
//! cluster
//!     .execute_ddl("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)")
//!     .unwrap();
//!
//! let mut alice = cluster.connect();
//! alice
//!     .run_sql(&[("INSERT INTO accounts (id, balance) VALUES (?, ?)",
//!                 vec![Value::Int(1), Value::Int(100)])])
//!     .unwrap();
//!
//! // Strong consistency: any later transaction from any session observes
//! // the committed state, whichever replica serves it.
//! let mut bob = cluster.connect();
//! let (_, results) = bob
//!     .run_sql(&[("SELECT balance FROM accounts WHERE id = ?", vec![Value::Int(1)])])
//!     .unwrap();
//! assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(100));
//! cluster.shutdown();
//! ```

mod front;
mod runtime;
mod session;

pub use runtime::{
    CertifierDeliveries, CertifierDelivery, CertifierLink, CertifierRequest, Cluster,
    ClusterConfig, ClusterStats, JoinOptions,
};
pub use session::{abort_error, committed, Session, TxnResult};
