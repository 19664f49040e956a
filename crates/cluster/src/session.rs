//! Client sessions: the application-facing API of the cluster.

use crate::front::Front;
use bargain_common::{ClientId, Error, IdemKey, Result, SessionId, TableSet, TemplateId, Value};
use bargain_core::{TxnOutcome, TxnRequest};
use bargain_sql::{QueryResult, TransactionTemplate};
use bargain_storage::Engine;
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A committed transaction's outcome and the result of each statement.
pub type TxnResult = (TxnOutcome, Vec<QueryResult>);

/// Maps an abort reason (from a [`TxnOutcome`]) to the error the client
/// API surfaces. Shared by local sessions and the remote (TCP) session
/// driver so both classify aborts identically.
#[must_use]
pub fn abort_error(reason: String) -> Error {
    if reason.contains("certification") {
        Error::CertificationConflict(reason)
    } else if reason.contains("draining")
        || reason.contains("unavailable")
        || reason.contains("overloaded")
        // Transient membership states: every routable replica is down or
        // detached (e.g. mid-elasticity), or a join/decommission was
        // refused with an explicit retry hint. All clear up on their own —
        // retryable, not a SQL error.
        || reason.contains("no replica")
        || reason.contains("retry-after")
    {
        Error::Unavailable(reason)
    } else {
        Error::SqlExecution(reason)
    }
}

/// What a reply sink's [`TxnResult`] means to the client: the result if the
/// transaction committed, else its abort reason as [`abort_error`]
/// classifies it. Shared by the blocking local path and the TCP server.
pub fn committed(result: TxnResult) -> Result<TxnResult> {
    if result.0.committed {
        return Ok(result);
    }
    let reason = result.0.abort_reason;
    Err(abort_error(reason.unwrap_or_else(|| "aborted".to_owned())))
}

/// A client session. One session is one consistency session: under the
/// `Session` configuration, guarantees are scoped to it; under the strong
/// configurations, every session observes every committed transaction.
///
/// Sessions are cheap; open one per logical client. A session issues one
/// transaction at a time (closed loop), mirroring the paper's client model.
pub struct Session {
    client: ClientId,
    session: SessionId,
    front: Arc<Front>,
    catalog_engine: Arc<Mutex<Engine>>,
    next_template: Arc<AtomicU32>,
    /// Ad-hoc statement sequences prepared by this session, keyed by their
    /// joined SQL text.
    cache: HashMap<String, (Arc<TransactionTemplate>, TableSet)>,
}

impl Session {
    pub(crate) fn new(
        id: u64,
        front: Arc<Front>,
        catalog_engine: Arc<Mutex<Engine>>,
        next_template: Arc<AtomicU32>,
    ) -> Session {
        Session {
            client: ClientId(id),
            session: SessionId(id),
            front,
            catalog_engine,
            next_template,
            cache: HashMap::new(),
        }
    }

    /// This session's client id.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Runs one transaction given as a list of `(sql, params)` statements.
    /// The statements are prepared once (per distinct statement list) and
    /// the transaction's table-set is extracted statically, so ad-hoc
    /// transactions get the full fine-grained treatment.
    ///
    /// Returns the outcome and each statement's result on commit; an
    /// [`Error::CertificationConflict`] (retryable) or other error on
    /// abort.
    pub fn run_sql(&mut self, stmts: &[(&str, Vec<Value>)]) -> Result<TxnResult> {
        let key = stmts
            .iter()
            .map(|(sql, _)| *sql)
            .collect::<Vec<_>>()
            .join(";\n");
        if !self.cache.contains_key(&key) {
            let id = TemplateId(self.next_template.fetch_add(1, Ordering::Relaxed));
            let sqls: Vec<&str> = stmts.iter().map(|(sql, _)| *sql).collect();
            let template = TransactionTemplate::new(id, &format!("adhoc.{}", id.0), &sqls)?;
            let table_set = template.table_set(self.catalog_engine.lock().catalog())?;
            self.cache
                .insert(key.clone(), (Arc::new(template), table_set));
        }
        let (template, table_set) = self.cache.get(&key).expect("just inserted").clone();
        let params: Vec<Vec<Value>> = stmts.iter().map(|(_, p)| p.clone()).collect();
        self.run_prepared(&template, table_set, params)
    }

    /// Runs a pre-built transaction template with the given per-statement
    /// parameters (the path benchmarks and workload drivers use).
    pub fn run_template(
        &mut self,
        template: &Arc<TransactionTemplate>,
        params: Vec<Vec<Value>>,
    ) -> Result<TxnResult> {
        let table_set = template.table_set(self.catalog_engine.lock().catalog())?;
        self.run_prepared(template, table_set, params)
    }

    /// Runs a template whose table-set has already been extracted. This is
    /// the raw submission path the TCP server uses after registering a
    /// remotely prepared template.
    pub fn run_prepared(
        &mut self,
        template: &Arc<TransactionTemplate>,
        table_set: TableSet,
        params: Vec<Vec<Value>>,
    ) -> Result<TxnResult> {
        self.run_prepared_keyed(template, table_set, params, None)
    }

    /// [`Session::run_prepared`] with an optional client idempotency key.
    /// A remote client retrying an in-doubt transaction re-submits under
    /// the same key; the certifier answers duplicates with the original
    /// commit instead of applying the writes twice.
    pub fn run_prepared_keyed(
        &mut self,
        template: &Arc<TransactionTemplate>,
        table_set: TableSet,
        params: Vec<Vec<Value>>,
        idem: Option<IdemKey>,
    ) -> Result<TxnResult> {
        let (reply_tx, reply_rx) = unbounded();
        self.submit(template, table_set, params, idem, move |result| {
            let _ = reply_tx.send(result);
        });
        let result = reply_rx.recv().map_err(|_| {
            Error::Protocol("transaction abandoned: replica or cluster shut down".into())
        })?;
        committed(result)
    }

    /// Submits a transaction without waiting for it — the one submission
    /// path; [`Session::run_prepared_keyed`] is this plus a channel. `sink`
    /// receives the outcome (a refusal is a synthetic abort whose reason
    /// [`abort_error`] classifies) on the replica thread that finished it,
    /// or on this thread for a refusal, so it may neither block nor panic;
    /// it is dropped uncalled if the cluster abandons the transaction. The
    /// caller keeps the session to one transaction at a time.
    pub fn submit(
        &mut self,
        template: &Arc<TransactionTemplate>,
        table_set: TableSet,
        params: Vec<Vec<Value>>,
        idem: Option<IdemKey>,
        sink: impl FnOnce(TxnResult) + Send + 'static,
    ) {
        let request = TxnRequest {
            client: self.client,
            session: self.session,
            template: template.id,
            params,
            idem,
        };
        self.front
            .submit(template, table_set, request, Box::new(sink));
    }

    /// Like [`Session::run_sql`], retrying on retryable (certification)
    /// aborts up to `max_retries` times.
    pub fn run_sql_with_retry(
        &mut self,
        stmts: &[(&str, Vec<Value>)],
        max_retries: usize,
    ) -> Result<TxnResult> {
        let mut attempt = 0;
        loop {
            match self.run_sql(stmts) {
                Err(e) if e.is_retryable() && attempt < max_retries => attempt += 1,
                other => return other,
            }
        }
    }
}
