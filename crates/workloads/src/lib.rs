#![warn(missing_docs)]
//! # bargain-workloads
//!
//! The two workloads the paper evaluates with, as deterministic generators
//! of transaction-template instances:
//!
//! - [`micro::MicroBenchmark`] — the customized micro-benchmark of §V-B:
//!   four identically shaped tables of 10,000 rows; each transaction reads
//!   or updates one random row of one table; the read/update mix is the
//!   experimental variable.
//! - [`tpcw::TpcwWorkload`] — the TPC-W online-bookstore benchmark of §V-C
//!   with its three mixes (browsing 5%, shopping 20%, ordering 50% update
//!   transactions).
//!
//! Both implement the [`Workload`] trait consumed by the simulator and the
//! live cluster driver. Generation is deterministic given the client
//! context's seed, so simulated experiments are exactly reproducible.

pub mod client;
pub mod driver;
pub mod micro;
pub mod tpcw;

pub use client::ClientContext;
pub use driver::{RemoteDriver, TxnDriver};
pub use micro::MicroBenchmark;
pub use tpcw::{TpcwMix, TpcwWorkload};

use bargain_common::{Result, TemplateId, Value};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;

/// A benchmark workload: schema, initial data, transaction templates, and a
/// generator of template instances.
pub trait Workload: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// `CREATE TABLE` statements, in creation order.
    fn ddl(&self) -> Vec<String>;

    /// The predefined transaction templates.
    fn templates(&self) -> Vec<TransactionTemplate>;

    /// Loads the initial database into an engine (after DDL has run).
    fn populate(&self, engine: &mut Engine) -> Result<()>;

    /// Draws the next transaction for a client: which template to run and
    /// the parameters for each of its statements.
    fn next_transaction(&self, ctx: &mut ClientContext) -> (TemplateId, Vec<Vec<Value>>);

    /// Mean client think time between transactions, in milliseconds
    /// (negative-exponentially distributed; 0 means back-to-back closed
    /// loop).
    fn mean_think_time_ms(&self) -> f64 {
        0.0
    }

    /// Convenience: run DDL then populate.
    fn install(&self, engine: &mut Engine) -> Result<()> {
        for ddl in self.ddl() {
            bargain_sql::execute_ddl(engine, &bargain_sql::parse(&ddl)?)?;
        }
        self.populate(engine)
    }
}
