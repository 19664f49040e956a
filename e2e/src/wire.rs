//! The harness's own wire client: the frames `RemoteSession::run` sends
//! (`Hello`, `OpenSession`, `Prepare`, `Run` with an `IdemKey`), but with
//! many requests outstanding and a latency per request.
//!
//! `RemoteSession::run_pipelined` returns only whole batches, so it cannot
//! give a per-request latency for the saturating workload. Two modes:
//!
//! - [`WireClient::closed_loop`] keeps `window` requests outstanding and
//!   sends the next one when a reply arrives;
//! - [`WireClient::open_loop`] sends on a fixed-interval schedule whatever
//!   the server does, times each request from when it was *due*, and
//!   reports how late the sender ran.
//!
//! It never retries: every reply is one finished operation.

use crate::workloads::Txn;
use bargain_cluster::TxnResult;
use bargain_common::{Error, IdemKey, Result, TemplateId};
use bargain_net::{ConnectPolicy, Connection, Message};
use bargain_workloads::Workload;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A finished request: which template, when it was sent (or due), when
/// its reply arrived, and the reply.
pub struct Done {
    /// The workload's template id.
    pub template: TemplateId,
    /// Send time (closed loop) or due time (open loop).
    pub start: Instant,
    /// When the reply was read.
    pub end: Instant,
    /// The reply; `Err` when the server answered with an error frame.
    pub result: Result<TxnResult>,
}

/// One connection, one consistency session.
pub struct WireClient {
    conn: Connection,
    /// Workload template id → the id the server assigned.
    server_ids: HashMap<TemplateId, TemplateId>,
    nonce: u64,
    next_seq: u64,
}

fn unexpected(what: &str, got: &Message) -> Error {
    Error::Protocol(format!("expected {what}, got message kind {}", got.kind()))
}

/// The policy both client kinds connect with: one attempt, so a refused or
/// failed operation is reported and never silently retried.
#[must_use]
pub fn no_retry() -> ConnectPolicy {
    ConnectPolicy {
        max_attempts: 1,
        ..ConnectPolicy::default()
    }
}

impl WireClient {
    /// Connects, shakes hands and opens the session. `nonce` namespaces
    /// this client's idempotency keys.
    pub fn connect(addr: &str, nonce: u64) -> Result<WireClient> {
        let mut conn = Connection::connect(addr, &no_retry())?;
        match conn.call(&Message::Hello)? {
            Message::HelloAck { .. } => {}
            other => return Err(unexpected("HelloAck", &other)),
        }
        match conn.call(&Message::OpenSession)? {
            Message::SessionOpened { .. } => {}
            other => return Err(unexpected("SessionOpened", &other)),
        }
        Ok(WireClient {
            conn,
            server_ids: HashMap::new(),
            nonce,
            next_seq: 1,
        })
    }

    /// Prepares every template of `workload` on the server.
    pub fn register(&mut self, workload: &dyn Workload) -> Result<()> {
        for t in workload.templates() {
            let msg = Message::Prepare {
                name: t.name.clone(),
                sqls: t.statements.iter().map(|s| s.sql.clone()).collect(),
            };
            match self.conn.call(&msg)? {
                Message::Prepared { template } => self.server_ids.insert(t.id, template),
                other => return Err(unexpected("Prepared", &other)),
            };
        }
        Ok(())
    }

    fn run_message(&mut self, (template, params): Txn) -> Result<Message> {
        let server_id = *self
            .server_ids
            .get(&template)
            .ok_or_else(|| Error::Protocol(format!("template {template} not registered")))?;
        let idem = IdemKey {
            client: self.nonce,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        Ok(Message::Run {
            template: server_id,
            params,
            idem: Some(idem),
        })
    }

    fn reply(msg: Message) -> Result<TxnResult> {
        match msg {
            Message::TxnReply { outcome, results } => Ok((outcome, results)),
            Message::Err(e) => Err(e),
            other => Err(unexpected("TxnReply", &other)),
        }
    }

    /// Runs one transaction and waits for its reply.
    pub fn run(&mut self, txn: Txn) -> Result<TxnResult> {
        let msg = self.run_message(txn)?;
        // `call` already turns an error frame into `Err`.
        Self::reply(self.conn.call(&msg)?)
    }

    /// Keeps `window` requests outstanding until `until`, then lets the
    /// outstanding ones finish. Each finished request goes to `done`.
    /// Returns early on a transport error: the connection is then useless.
    pub fn closed_loop(
        &mut self,
        window: usize,
        until: Instant,
        next: &mut dyn FnMut() -> Txn,
        done: &mut dyn FnMut(Done),
    ) -> Result<()> {
        let mut inflight: HashMap<u64, (TemplateId, Instant)> = HashMap::new();
        loop {
            while inflight.len() < window && Instant::now() < until {
                let txn = next();
                let template = txn.0;
                let msg = self.run_message(txn)?;
                let id = self.conn.next_request_id();
                let start = Instant::now();
                self.conn.send_with_id(id, &msg)?;
                inflight.insert(id, (template, start));
            }
            if inflight.is_empty() {
                return Ok(());
            }
            let (id, msg) = self.conn.recv_tagged()?;
            let end = Instant::now();
            if let Some((template, start)) = inflight.remove(&id) {
                done(Done {
                    template,
                    start,
                    end,
                    result: Self::reply(msg),
                });
            }
        }
    }

    /// Sends `count` requests, the `i`-th due `i * interval` after now,
    /// from this thread, while a second thread reads the replies. Each
    /// finished request goes to `done` with `start` set to its due time,
    /// so a stall is charged to every request it delays. Returns how late
    /// each send ran behind its due time.
    pub fn open_loop(
        &mut self,
        interval: Duration,
        count: usize,
        next: &mut dyn FnMut() -> Txn,
        done: &mut (dyn FnMut(Done) + Send),
    ) -> Result<Vec<Duration>> {
        let policy = no_retry();
        let mut reader = Connection::from_stream(
            self.conn.stream().try_clone()?,
            policy.read_timeout,
            policy.write_timeout,
        )?;
        let (sent_tx, sent_rx) = mpsc::channel::<(u64, TemplateId, Instant)>();
        std::thread::scope(|scope| {
            let receiver = std::thread::Builder::new()
                .name("e2e-receiver".into())
                .spawn_scoped(scope, move || -> Result<()> {
                    let mut due_of: HashMap<u64, (TemplateId, Instant)> = HashMap::new();
                    loop {
                        // The sender notes a request before it writes the
                        // frame, so a reply's note is always in the channel.
                        // With nothing outstanding, wait for the next note;
                        // a closed channel then means the sender is done.
                        if due_of.is_empty() {
                            match sent_rx.recv() {
                                Ok((id, template, due)) => due_of.insert(id, (template, due)),
                                Err(_) => return Ok(()),
                            };
                        }
                        let (id, msg) = reader.recv_tagged()?;
                        let end = Instant::now();
                        while !due_of.contains_key(&id) {
                            match sent_rx.try_recv() {
                                Ok((id, template, due)) => due_of.insert(id, (template, due)),
                                Err(_) => break,
                            };
                        }
                        if let Some((template, start)) = due_of.remove(&id) {
                            done(Done {
                                template,
                                start,
                                end,
                                result: Self::reply(msg),
                            });
                        }
                    }
                })
                .map_err(Error::from)?;

            let origin = Instant::now();
            let mut late = Vec::with_capacity(count);
            let mut send_all = || -> Result<()> {
                for i in 0..count {
                    let due = origin + interval * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let txn = next();
                    let template = txn.0;
                    let msg = self.run_message(txn)?;
                    let id = self.conn.next_request_id();
                    let _ = sent_tx.send((id, template, due));
                    late.push(Instant::now().saturating_duration_since(due));
                    self.conn.send_with_id(id, &msg)?;
                }
                Ok(())
            };
            let sent = send_all();
            drop(sent_tx);
            let received = receiver
                .join()
                .unwrap_or_else(|_| Err(Error::Protocol("receiver thread panicked".into())));
            sent.and(received).map(|()| late)
        })
    }
}
