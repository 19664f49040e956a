#![warn(missing_docs)]
//! # bargain-storage
//!
//! An in-memory multiversion storage engine providing **snapshot isolation**,
//! standing in for the standalone DBMS (the paper used Microsoft SQL Server
//! 2008 configured at snapshot isolation) hosted by each replica.
//!
//! The replication middleware needs exactly four capabilities from the local
//! engine, and this crate provides them:
//!
//! 1. **Snapshotted transactions** — a transaction reads the committed state
//!    as of its begin snapshot ([`Engine::begin`]).
//! 2. **Local commit at an assigned global version** — the proxy commits
//!    client transactions at the version chosen by the certifier, in global
//!    order ([`Engine::commit_at`]).
//! 3. **Writeset capture** — the rows a transaction inserted, updated, or
//!    deleted, for certification and propagation
//!    ([`Engine::take_writeset`], [`Engine::partial_writeset`]).
//! 4. **Refresh application** — installing the writeset of a remotely
//!    committed transaction ([`Engine::apply_refresh`]).
//!
//! The engine can also run **standalone** (outside the replicated system)
//! with classic first-committer-wins snapshot isolation
//! ([`Engine::commit_standalone`]); the storage-level property tests use
//! this mode to validate SI semantics in isolation.
//!
//! Version chains are kept per row, newest first. Each table lists, in
//! commit order, the versions that superseded another or deleted a row;
//! once the horizon (the oldest open snapshot) reaches an entry, what it
//! superseded is unobservable. [`Engine::gc`] pops every entry the
//! horizon has passed and prunes those chains, so a host calling it after
//! every message pays for what it reclaims, with no pass over the table.
//!
//! For replica elasticity, [`snapshot`] exports a **consistent checkpoint**
//! of an engine at version `V` (catalog + chains pruned to the live
//! snapshot horizon, chunked and checksummed) and rebuilds an equivalent
//! engine on the joining side ([`snapshot::export`] / [`snapshot::import`]).

pub mod chain;
pub mod engine;
pub mod index;
pub mod schema;
pub mod snapshot;
pub mod table;

pub use chain::{RowVersion, VersionChain};
pub use engine::{Access, Engine, EngineStats, TxnHandle};
pub use index::SecondaryIndex;
pub use schema::{Catalog, Column, ColumnType, TableSchema};
pub use snapshot::{Snapshot, SnapshotManifest, TableMeta, DEFAULT_CHUNK_BYTES};
pub use table::Table;
