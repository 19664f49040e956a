#![warn(missing_docs)]
//! # bargain-common
//!
//! Core vocabulary shared by every crate in the `bargain` workspace: version
//! counters, identifiers, values and rows, writesets, table-sets, consistency
//! modes, and the common error type.
//!
//! The replicated system counts *database versions*: the database starts at
//! version 0 and the version is incremented each time an update transaction
//! is certified to commit. Every replica proceeds through this version
//! sequence, possibly at different speeds ([`Version`]). The consistency
//! techniques of the paper are all expressed as constraints over these
//! version counters.

pub mod codec;
pub mod config;
pub mod crc;
pub mod error;
pub mod ids;
pub mod tableset;
pub mod value;
pub mod writeset;

pub use config::ConsistencyMode;
pub use crc::crc32;
pub use error::{Error, Result};
pub use ids::{ClientId, IdemKey, ReplicaId, SessionId, TableId, TemplateId, TxnId, Version};
pub use tableset::TableSet;
pub use value::{Row, Value};
pub use writeset::{CertifiedWriteSet, KeySet, WriteOp, WriteSet, WriteSetEntry};
