//! The remote session driver: the same open/prepare/run surface as
//! `bargain_cluster::Session`, spoken over TCP.
//!
//! A `RemoteSession` is one connection and one consistency session, so the
//! paper's closed-loop client model carries over unchanged: open one per
//! logical client, issue one transaction at a time. Workload drivers
//! written against `Session` run against `RemoteSession` verbatim (see
//! `bargain_workloads::driver::TxnDriver`).
//!
//! # Exactly-once retry
//!
//! Every [`RemoteSession::run`] call is one *logical* transaction and
//! carries a durable idempotency key (`IdemKey`): a per-session random
//! nonce plus a sequence number that advances per logical transaction, not
//! per wire attempt. When the transport fails mid-call the outcome is
//! *in doubt* — the request may never have arrived, or the commit may have
//! happened and only the acknowledgement died. The session transparently
//! reconnects (re-opening its session and re-preparing its templates) and
//! re-issues the request under the *same* key; the certifier recognizes a
//! replayed key and answers with the original outcome instead of
//! committing the writes twice. The caller sees each logical transaction
//! applied at most once, and exactly once whenever a committed outcome is
//! returned.
//!
//! A shed or swept transaction (an [`Error::Unavailable`] whose reason
//! carries the `retry-after` marker) is also retried here, after a
//! backoff: the server is explicitly saying "try again later".
//!
//! # Pipelining
//!
//! [`RemoteSession::run_pipelined`] keeps up to `depth` logical
//! transactions in flight on the one connection (protocol v2 tags every
//! frame with a `request_id`; replies are matched by id, so they may
//! complete out of order on the wire while this API returns them in input
//! order). The server executes one connection's requests serially in
//! arrival order — pipelining removes the per-request round-trip wait, not
//! the session's ordering — and every in-flight transaction carries its
//! own idempotency key, so the exactly-once reconnect/replay guarantee is
//! the same as for [`RemoteSession::run`].
//!
//! Template ids returned by [`RemoteSession::prepare`] are *virtual*:
//! indices into the session's template list, remapped to server-assigned
//! ids on every (re)connect. Handles stay valid across server restarts.

use crate::codec::Message;
use crate::conn::{ConnectPolicy, Connection};
use bargain_cluster::{ClusterStats, TxnResult};
use bargain_common::{ClientId, ConsistencyMode, Error, IdemKey, Result, TemplateId, Value};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Is this error worth re-issuing the same logical transaction for?
/// `Codec` counts: a corrupted reply frame (chaos, flaky links) means the
/// outcome never arrived intact — in doubt, same as a dead connection.
fn is_indoubt_transport(e: &Error) -> bool {
    matches!(
        e,
        Error::Timeout(_) | Error::ConnectionClosed(_) | Error::Io(_) | Error::Codec(_)
    )
}

/// `Unavailable` with the server's explicit "back off and retry" marker
/// (overload shedding, certifier-outage sweeps/sheds). Other
/// `Unavailable`s — e.g. a draining server — are terminal.
fn is_retry_after(e: &Error) -> bool {
    matches!(e, Error::Unavailable(reason) if reason.contains("retry-after"))
}

/// A client session served by a remote [`crate::server::NetServer`].
pub struct RemoteSession {
    addr: String,
    policy: ConnectPolicy,
    conn: Connection,
    client: ClientId,
    replicas: u32,
    mode: ConsistencyMode,
    /// Prepared templates, by virtual id: `(name, sqls)` for re-preparing
    /// after a reconnect.
    templates: Vec<(String, Vec<String>)>,
    /// Server-assigned id for each virtual id, refreshed on reconnect.
    server_ids: Vec<TemplateId>,
    /// `run_sql` prepare cache, keyed by the joined SQL text. Stores
    /// *virtual* ids, so cached entries survive reconnects.
    cache: HashMap<String, TemplateId>,
    /// Idempotency-key namespace for this logical client.
    nonce: u64,
    /// Next logical-transaction sequence number.
    next_seq: u64,
}

impl RemoteSession {
    /// Connects to a frontend server with the default
    /// [`ConnectPolicy`] and opens a session.
    pub fn connect(addr: &str) -> Result<RemoteSession> {
        Self::connect_with(addr, &ConnectPolicy::default())
    }

    /// Connects with an explicit policy (retry budget, backoff, deadlines)
    /// and opens a session. The handshake validates protocol magic and
    /// version in both directions before any work is accepted.
    pub fn connect_with(addr: &str, policy: &ConnectPolicy) -> Result<RemoteSession> {
        let mut conn = Connection::connect(addr, policy)?;
        let (replicas, mode, client) = Self::handshake(&mut conn)?;
        // The nonce only has to be unique among clients retrying against
        // the same certifier history: clock nanos XOR pid XOR socket port
        // is plenty without pulling in an RNG dependency.
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
            ^ (u64::from(std::process::id()) << 32)
            ^ conn
                .stream()
                .local_addr()
                .map_or(0, |a| u64::from(a.port()) << 16);
        Ok(RemoteSession {
            addr: addr.to_owned(),
            policy: policy.clone(),
            conn,
            client,
            replicas,
            mode,
            templates: Vec::new(),
            server_ids: Vec::new(),
            cache: HashMap::new(),
            nonce,
            next_seq: 1,
        })
    }

    fn handshake(conn: &mut Connection) -> Result<(u32, ConsistencyMode, ClientId)> {
        let (replicas, mode) = match conn.call(&Message::Hello)? {
            Message::HelloAck { replicas, mode } => (replicas, mode),
            other => {
                return Err(Error::Protocol(format!(
                    "expected HelloAck, got message kind {}",
                    other.kind()
                )))
            }
        };
        let client = match conn.call(&Message::OpenSession)? {
            Message::SessionOpened { client } => ClientId(client),
            other => {
                return Err(Error::Protocol(format!(
                    "expected SessionOpened, got message kind {}",
                    other.kind()
                )))
            }
        };
        Ok((replicas, mode, client))
    }

    /// Re-establishes the connection after a transport failure: fresh
    /// socket, fresh cluster session, and every prepared template
    /// re-prepared so the virtual → server id map is current again.
    fn reconnect(&mut self) -> Result<()> {
        let mut conn = Connection::connect(self.addr.as_str(), &self.policy)?;
        let (replicas, mode, client) = Self::handshake(&mut conn)?;
        let mut server_ids = Vec::with_capacity(self.templates.len());
        for (name, sqls) in &self.templates {
            server_ids.push(Self::prepare_on(&mut conn, name, sqls)?);
        }
        self.conn = conn;
        self.replicas = replicas;
        self.mode = mode;
        self.client = client;
        self.server_ids = server_ids;
        Ok(())
    }

    fn prepare_on(conn: &mut Connection, name: &str, sqls: &[String]) -> Result<TemplateId> {
        let msg = Message::Prepare {
            name: name.into(),
            sqls: sqls.to_vec(),
        };
        match conn.call(&msg)? {
            Message::Prepared { template } => Ok(template),
            other => Err(Error::Protocol(format!(
                "expected Prepared, got message kind {}",
                other.kind()
            ))),
        }
    }

    /// The cluster-assigned client id (changes across reconnects; the
    /// idempotency nonce, not this id, identifies the logical client).
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Number of replicas behind the server (from the handshake).
    #[must_use]
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// The cluster's consistency configuration (from the handshake).
    #[must_use]
    pub fn mode(&self) -> ConsistencyMode {
        self.mode
    }

    /// Round-trips a heartbeat frame.
    pub fn ping(&mut self) -> Result<()> {
        match self.conn.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected Pong, got message kind {}",
                other.kind()
            ))),
        }
    }

    /// Executes DDL on every replica of the remote cluster. Not retried:
    /// DDL is not idempotent, so an in-doubt outcome surfaces as an error.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<()> {
        match self.conn.call(&Message::Ddl { sql: sql.into() })? {
            Message::Ack => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected Ack, got message kind {}",
                other.kind()
            ))),
        }
    }

    /// Prepares a transaction template on the server, returning a virtual
    /// template id to pass to [`RemoteSession::run`]. The handle stays
    /// valid across reconnects.
    pub fn prepare(&mut self, name: &str, sqls: &[&str]) -> Result<TemplateId> {
        let sqls: Vec<String> = sqls.iter().map(|s| (*s).to_owned()).collect();
        let server_id = Self::prepare_on(&mut self.conn, name, &sqls)?;
        let virtual_id = TemplateId(self.templates.len() as u32);
        self.templates.push((name.to_owned(), sqls));
        self.server_ids.push(server_id);
        Ok(virtual_id)
    }

    /// Backoff before wire attempt `attempt` (1-based over retries) of a
    /// logical transaction, derived from the connect policy's backoff
    /// parameters.
    fn retry_backoff(&self, attempt: u32) -> Duration {
        self.policy
            .initial_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.policy.max_backoff)
    }

    /// Runs one logical transaction from a previously prepared template,
    /// with exactly-once retry (see the module docs). Aborts come back as
    /// the same error variants the local `Session` surfaces
    /// ([`Error::CertificationConflict`] is retryable as a *new*
    /// transaction, a draining server yields [`Error::Unavailable`], ...).
    pub fn run(&mut self, template: TemplateId, params: Vec<Vec<Value>>) -> Result<TxnResult> {
        let idem = IdemKey {
            client: self.nonce,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let server_id = *self.server_ids.get(template.0 as usize).ok_or_else(|| {
                Error::Protocol(format!("unknown template {template}; prepare it first"))
            })?;
            let msg = Message::Run {
                template: server_id,
                params: params.clone(),
                idem: Some(idem),
            };
            match self.conn.call(&msg) {
                Ok(Message::TxnReply { outcome, results }) => return Ok((outcome, results)),
                Ok(other) => {
                    return Err(Error::Protocol(format!(
                        "expected TxnReply, got message kind {}",
                        other.kind()
                    )))
                }
                Err(e) if is_indoubt_transport(&e) && attempt < max_attempts => {
                    // In doubt: reconnect (bounded by the connect policy)
                    // and replay under the same key. The certifier
                    // deduplicates if the original committed. A failed
                    // reconnect (e.g. mid-partition) is not terminal — the
                    // stale connection fails the next attempt fast, and
                    // the attempt budget bounds the whole loop.
                    std::thread::sleep(self.retry_backoff(attempt));
                    let _ = self.reconnect();
                }
                Err(e) if is_retry_after(&e) && attempt < max_attempts => {
                    // Not admitted (shed) or swept with a known-aborted
                    // outcome: safe to retry after backing off.
                    std::thread::sleep(self.retry_backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs a batch of logical transactions with up to `depth` of them in
    /// flight on this connection at once (pipelined mode; `depth == 1`
    /// degenerates to sequential [`RemoteSession::run`] behavior). Results
    /// come back in input order, one per call, each with the same error
    /// surface as `run`.
    ///
    /// Exactly-once holds per item: every call carries its own idempotency
    /// key, and a transport failure puts *all* in-flight items in doubt —
    /// the session reconnects and replays each unresolved item under its
    /// original key, so the certifier deduplicates anything that already
    /// committed. Shed items (`retry-after`) are retried after a backoff.
    /// Retries are bounded by the connect policy's `max_attempts` per item.
    pub fn run_pipelined(
        &mut self,
        calls: &[(TemplateId, Vec<Vec<Value>>)],
        depth: usize,
    ) -> Vec<Result<TxnResult>> {
        let depth = depth.max(1);
        let max_attempts = self.policy.max_attempts.max(1);
        let keys: Vec<IdemKey> = calls
            .iter()
            .map(|_| {
                let key = IdemKey {
                    client: self.nonce,
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                key
            })
            .collect();
        let mut results: Vec<Option<Result<TxnResult>>> = Vec::new();
        results.resize_with(calls.len(), || None);
        let mut attempts: Vec<u32> = vec![0; calls.len()];
        let mut pending: VecDeque<usize> = (0..calls.len()).collect();
        // request_id -> batch index, for the window currently on the wire.
        let mut inflight: HashMap<u64, usize> = HashMap::new();
        // Consecutive transport recoveries (reset on any progress): bounds
        // the backoff for reconnect storms.
        let mut recoveries: u32 = 0;

        while results.iter().any(Option::is_none) {
            // Fill the window.
            let mut send_failed = false;
            while inflight.len() < depth && !send_failed {
                let Some(i) = pending.pop_front() else { break };
                let Some(server_id) = self.server_ids.get(calls[i].0 .0 as usize).copied() else {
                    results[i] = Some(Err(Error::Protocol(format!(
                        "unknown template {}; prepare it first",
                        calls[i].0
                    ))));
                    continue;
                };
                attempts[i] += 1;
                let id = self.conn.next_request_id();
                let msg = Message::Run {
                    template: server_id,
                    params: calls[i].1.clone(),
                    idem: Some(keys[i]),
                };
                if self.conn.send_with_id(id, &msg).is_ok() {
                    inflight.insert(id, i);
                } else {
                    // The write side died: the item may still have reached
                    // the server — treat it like every other in-flight
                    // in-doubt item.
                    inflight.insert(id, i);
                    send_failed = true;
                }
            }
            if inflight.is_empty() {
                // Everything left was resolved synchronously (e.g. unknown
                // templates).
                continue;
            }

            let transport_err = if send_failed {
                Some(Error::ConnectionClosed("write failed mid-batch".into()))
            } else {
                match self.conn.recv_tagged() {
                    Ok((id, msg)) => {
                        let Some(i) = inflight.remove(&id) else {
                            continue; // push or abandoned id: not ours
                        };
                        recoveries = 0;
                        match msg {
                            Message::TxnReply {
                                outcome,
                                results: r,
                            } => {
                                results[i] = Some(Ok((outcome, r)));
                            }
                            Message::Err(e) if is_retry_after(&e) && attempts[i] < max_attempts => {
                                std::thread::sleep(self.retry_backoff(attempts[i]));
                                pending.push_back(i);
                            }
                            Message::Err(e) => results[i] = Some(Err(e)),
                            other => {
                                results[i] = Some(Err(Error::Protocol(format!(
                                    "expected TxnReply, got message kind {}",
                                    other.kind()
                                ))));
                            }
                        }
                        None
                    }
                    Err(e) if is_indoubt_transport(&e) => Some(e),
                    Err(e) => Some(e),
                }
            };

            if let Some(e) = transport_err {
                // Every in-flight item is now in doubt: requeue those with
                // attempt budget left (their keys make the replay safe),
                // fail the rest, then reconnect.
                recoveries += 1;
                let mut indices: Vec<usize> = inflight.drain().map(|(_, i)| i).collect();
                indices.sort_unstable(); // keep replay in input order
                for i in indices.into_iter().rev() {
                    if attempts[i] < max_attempts {
                        pending.push_front(i);
                    } else {
                        results[i] = Some(Err(e.clone()));
                    }
                }
                if results.iter().any(Option::is_none) {
                    std::thread::sleep(self.retry_backoff(recoveries));
                    let _ = self.reconnect();
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("all items resolved"))
            .collect()
    }

    /// Runs one ad-hoc transaction given as `(sql, params)` statements,
    /// preparing (and caching) a template for each distinct statement list
    /// — the remote analogue of `Session::run_sql`.
    pub fn run_sql(&mut self, stmts: &[(&str, Vec<Value>)]) -> Result<TxnResult> {
        let key = stmts
            .iter()
            .map(|(sql, _)| *sql)
            .collect::<Vec<_>>()
            .join(";\n");
        let template = match self.cache.get(&key) {
            Some(id) => *id,
            None => {
                let sqls: Vec<&str> = stmts.iter().map(|(sql, _)| *sql).collect();
                let id = self.prepare(&format!("adhoc.remote.{}", self.cache.len()), &sqls)?;
                self.cache.insert(key, id);
                id
            }
        };
        let params: Vec<Vec<Value>> = stmts.iter().map(|(_, p)| p.clone()).collect();
        self.run(template, params)
    }

    /// Like [`RemoteSession::run_sql`], retrying on retryable
    /// (certification) aborts up to `max_retries` times. Each retry is a
    /// *new* logical transaction (fresh idempotency key): the previous
    /// attempt aborted definitively, nothing is in doubt.
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

    /// Fetches the remote cluster's counters.
    pub fn stats(&mut self) -> Result<ClusterStats> {
        match self.conn.call(&Message::Stats)? {
            Message::StatsReply {
                routed,
                commits,
                aborts,
                v_system,
                certifier_up,
                certifier_downs,
            } => Ok(ClusterStats {
                routed,
                commits,
                aborts,
                v_system,
                certifier_up,
                certifier_downs,
                // Not on the wire: the certification counters read 0.
                ..ClusterStats::default()
            }),
            other => Err(Error::Protocol(format!(
                "expected StatsReply, got message kind {}",
                other.kind()
            ))),
        }
    }

    /// Asks the server to drain its cluster and exit (the graceful remote
    /// stop), consuming this session. Never retried: replaying a stop
    /// against a *restarted* server would take the new server down too.
    pub fn stop_server(mut self) -> Result<()> {
        match self.conn.call(&Message::StopServer)? {
            Message::Ack => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected Ack, got message kind {}",
                other.kind()
            ))),
        }
    }
}
