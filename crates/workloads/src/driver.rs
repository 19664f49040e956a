//! Driving a workload against a deployment: the [`TxnDriver`] abstraction
//! over *where* transactions execute.
//!
//! The generators in this crate produce `(TemplateId, params)` instances;
//! a driver turns them into executed transactions. [`RemoteDriver`] runs
//! them through a `bargain_net::RemoteSession` over TCP, against a cluster
//! running as separate processes. It takes the workload's own template ids
//! and rewrites them into the server's global template namespace at
//! registration.

use bargain_cluster::TxnResult;
use bargain_common::{Result, TemplateId};
use bargain_net::RemoteSession;
use bargain_sql::TransactionTemplate;
use std::collections::HashMap;

/// Executes workload transaction instances against some deployment.
pub trait TxnDriver {
    /// Registers the workload's transaction templates. Must be called once
    /// before [`TxnDriver::run`]; the driver resolves the workload's
    /// template ids however its transport requires.
    fn register(&mut self, templates: &[TransactionTemplate]) -> Result<()>;

    /// Runs one transaction instance (a workload template id plus
    /// per-statement parameters), returning the outcome and per-statement
    /// results on commit, or the abort error.
    fn run(
        &mut self,
        template: TemplateId,
        params: Vec<Vec<bargain_common::Value>>,
    ) -> Result<TxnResult>;
}

/// Drives transactions through a TCP [`RemoteSession`]. The workload's
/// template ids are rewritten to the server-assigned ids at registration.
pub struct RemoteDriver {
    session: RemoteSession,
    remote_ids: HashMap<TemplateId, TemplateId>,
}

impl RemoteDriver {
    /// Wraps a connected remote session.
    #[must_use]
    pub fn new(session: RemoteSession) -> RemoteDriver {
        RemoteDriver {
            session,
            remote_ids: HashMap::new(),
        }
    }

    /// The wrapped remote session.
    pub fn session_mut(&mut self) -> &mut RemoteSession {
        &mut self.session
    }
}

impl TxnDriver for RemoteDriver {
    fn register(&mut self, templates: &[TransactionTemplate]) -> Result<()> {
        for t in templates {
            let sqls: Vec<&str> = t.statements.iter().map(|s| s.sql.as_str()).collect();
            let remote = self.session.prepare(&t.name, &sqls)?;
            self.remote_ids.insert(t.id, remote);
        }
        Ok(())
    }

    fn run(
        &mut self,
        template: TemplateId,
        params: Vec<Vec<bargain_common::Value>>,
    ) -> Result<TxnResult> {
        let remote = *self.remote_ids.get(&template).ok_or_else(|| {
            bargain_common::Error::Protocol(format!("template {template} not registered"))
        })?;
        self.session.run(remote, params)
    }
}
