//! The repo's end-to-end benchmark: five workloads against the live TCP
//! deployment, booted in this process. See `README.md` beside this
//! package for the command, the workloads and the metrics.
//!
//! This library is the harness; `main.rs` is the gated run and
//! `../e2e_trace` the per-layer trace, which reuses the harness. Nothing
//! here names `bargain-core`, `bargain-sql` or `bargain-storage`: the
//! harness programs against the surface an application does, so the
//! program's insides can be refactored without touching the gate.

#![warn(missing_docs)]

pub mod args;
pub mod checks;
pub mod client;
pub mod clock;
pub mod deploy;
pub mod report;
pub mod round;
pub mod stats;
pub mod wire;
pub mod workloads;
