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
//! Every call to [`RemoteSession::run`] is one *logical* transaction and
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
//! A reply the server sent is never in doubt: an error frame is the
//! transaction's answer — a reply too large for a frame arrives as
//! `Err(Codec)` in its place, and the transaction ran once. The exception
//! is an [`Error::Unavailable`] whose reason carries the `retry-after`
//! marker (shed, or swept by a certifier outage): the server is explicitly
//! saying "try again later", so the same call is sent again after a
//! backoff.
//!
//! # Pipelining
//!
//! [`RemoteSession::run_pipelined`] keeps up to `depth` logical
//! transactions in flight on the one connection (protocol v2 tags every
//! frame with a `request_id`; replies are matched by id, so they may
//! complete out of order on the wire while this API returns them in input
//! order). The server executes one connection's requests serially in
//! arrival order — pipelining removes the per-request round-trip wait, not
//! the session's ordering. It is the session's one send/receive/replay
//! loop: [`RemoteSession::run`] is that loop over one call.
//!
//! Template ids returned by [`RemoteSession::prepare`] are *virtual*:
//! indices into the session's template list, remapped to server-assigned
//! ids on every (re)connect. Handles stay valid across server restarts.

use crate::codec::{unexpected, Message};
use crate::conn::{ConnectPolicy, Connection};
use bargain_cluster::{ClusterStats, TxnResult};
use bargain_common::{ClientId, ConsistencyMode, Error, IdemKey, Result, TemplateId, Value};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

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
            other => return Err(unexpected("HelloAck", &other)),
        };
        let client = match conn.call(&Message::OpenSession)? {
            Message::SessionOpened { client } => ClientId(client),
            other => return Err(unexpected("SessionOpened", &other)),
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
            other => Err(unexpected("Prepared", &other)),
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
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Executes DDL on every replica of the remote cluster. Not retried:
    /// DDL is not idempotent, so an in-doubt outcome surfaces as an error.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<()> {
        match self.conn.call(&Message::Ddl { sql: sql.into() })? {
            Message::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
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
    /// with exactly-once retry (see the module docs): the pipelined loop
    /// over one call. Aborts come back as the same error variants the local
    /// `Session` surfaces ([`Error::CertificationConflict`] is retryable as
    /// a *new* transaction, a draining server yields
    /// [`Error::Unavailable`], ...).
    pub fn run(&mut self, template: TemplateId, params: Vec<Vec<Value>>) -> Result<TxnResult> {
        self.run_pipelined(&[(template, params)], 1)
            .pop()
            .expect("one result per call")
    }

    /// Runs a batch of logical transactions with up to `depth` of them in
    /// flight on this connection at once. Results come back in input
    /// order, one per call.
    ///
    /// Exactly-once holds per item: every call carries its own idempotency
    /// key, and a transport failure puts *all* in-flight items in doubt —
    /// the session reconnects and replays each unresolved item under its
    /// original key, so the certifier deduplicates anything that already
    /// committed. A reply the server sent is the item's answer, an error
    /// included, unless that error carries `retry-after`: such an item
    /// (shed, or swept with a known-aborted outcome) is sent again after a
    /// backoff. Attempts are bounded by the connect policy's
    /// `max_attempts` per item.
    pub fn run_pipelined(
        &mut self,
        calls: &[(TemplateId, Vec<Vec<Value>>)],
        depth: usize,
    ) -> Vec<Result<TxnResult>> {
        let depth = depth.max(1);
        let max_attempts = self.policy.max_attempts.max(1);
        // Call `i` carries sequence number `first_seq + i` on every attempt.
        let first_seq = self.next_seq;
        self.next_seq += calls.len() as u64;
        let mut results: Vec<Option<Result<TxnResult>>> = Vec::new();
        results.resize_with(calls.len(), || None);
        let mut unresolved = calls.len();
        let mut attempts: Vec<u32> = vec![0; calls.len()];
        let mut pending: VecDeque<usize> = (0..calls.len()).collect();
        // (request_id, call index) for the window currently on the wire.
        let mut inflight: Vec<(u64, usize)> = Vec::with_capacity(depth.min(calls.len()));
        // Consecutive transport recoveries (reset on any progress): bounds
        // the backoff for reconnect storms.
        let mut recoveries: u32 = 0;

        while unresolved > 0 {
            // Fill the window. A call whose write failed may still have
            // reached the server: it is in flight like the others.
            let mut failed = None;
            while inflight.len() < depth && failed.is_none() {
                let Some(i) = pending.pop_front() else { break };
                let (template, params) = &calls[i];
                let Some(&server_id) = self.server_ids.get(template.0 as usize) else {
                    let e = format!("unknown template {template}; prepare it first");
                    results[i] = Some(Err(Error::Protocol(e)));
                    unresolved -= 1;
                    continue;
                };
                attempts[i] += 1;
                let id = self.conn.next_request_id();
                let msg = Message::Run {
                    template: server_id,
                    params: params.clone(),
                    idem: Some(IdemKey {
                        client: self.nonce,
                        seq: first_seq + i as u64,
                    }),
                };
                failed = self.conn.send_with_id(id, &msg).err();
                inflight.push((id, i));
            }
            if inflight.is_empty() {
                continue; // every call left was refused before sending
            }

            let failed = match failed {
                Some(e) => e,
                None => match self.conn.recv_tagged() {
                    Ok((id, msg)) => {
                        let Some(at) = inflight.iter().position(|&(sent, _)| sent == id) else {
                            continue; // push or abandoned id: not ours
                        };
                        let (_, i) = inflight.swap_remove(at);
                        recoveries = 0;
                        let result = match msg {
                            Message::TxnReply { outcome, results } => Ok((outcome, results)),
                            Message::Err(e) if is_retry_after(&e) && attempts[i] < max_attempts => {
                                std::thread::sleep(self.retry_backoff(attempts[i]));
                                pending.push_back(i);
                                continue;
                            }
                            Message::Err(e) => Err(e),
                            other => Err(unexpected("TxnReply", &other)),
                        };
                        results[i] = Some(result);
                        unresolved -= 1;
                        continue;
                    }
                    Err(e) => e,
                },
            };

            // Every in-flight item is now in doubt: requeue those with
            // attempt budget left (their keys make the replay safe), in
            // input order, fail the rest, then reconnect.
            recoveries += 1;
            inflight.sort_unstable_by_key(|&(_, i)| i);
            for (_, i) in inflight.drain(..).rev() {
                if attempts[i] < max_attempts {
                    pending.push_front(i);
                } else {
                    results[i] = Some(Err(failed.clone()));
                    unresolved -= 1;
                }
            }
            if unresolved > 0 {
                // A failed reconnect (e.g. mid-partition) is not terminal:
                // the stale connection fails the next attempt fast, and the
                // attempt budget bounds the whole loop.
                std::thread::sleep(self.retry_backoff(recoveries));
                let _ = self.reconnect();
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
                // Not on the wire: `in_doubt` and the certification
                // counters read 0.
                ..ClusterStats::default()
            }),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// Asks the server to drain its cluster and exit (the graceful remote
    /// stop), consuming this session. Never retried: replaying a stop
    /// against a *restarted* server would take the new server down too.
    pub fn stop_server(mut self) -> Result<()> {
        match self.conn.call(&Message::StopServer)? {
            Message::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }
}
