//! Binary message codec: every protocol message, hand-encoded in the same
//! little-endian style as the certifier's WAL records.
//!
//! The value, writeset, and log-record encodings are *shared* with
//! `bargain-core::wal` — the bytes a writeset occupies on the certifier's
//! disk are exactly the bytes it occupies on the wire. This module adds the
//! envelope types: session traffic (frontend ↔ client driver) and
//! certification traffic (cluster ↔ certifier process).
//!
//! Composite encodings (all integers little-endian):
//!
//! ```text
//! string:       u32 len | utf-8 bytes
//! option<T>:    u8 (0|1) [| T]
//! vec<T>:       u32 count | T*
//! error:        u8 variant tag | string
//! outcome:      u64 txn | u64 client | u64 session | u32 replica
//!               | u8 committed | option<u64> commit_version
//!               | u64 observed_version | vec<u32> tables_written
//!               | option<string> abort_reason
//! query result: u8 tag (0=rows,1=affected) | vec<vec<value>> or u64
//! idem key:     u8 (0|1) [| u64 client | u64 seq]
//! decision:     u8 tag (0=commit,1=abort,2=duplicate) | u64 txn
//!               | u64 version (commit/abort) or u64 original | u64 version
//! refresh:      u32 origin | u64 txn | u64 commit_version | writeset
//! ```
//!
//! Decoding is strict: unknown tags, truncated payloads, and trailing bytes
//! all yield [`Error::Codec`]; nothing panics on malformed input.

use bargain_common::{
    ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, Result, SessionId, TemplateId, TxnId,
    Value, Version,
};
use bargain_core::wal::{read_len, read_value, read_writeset, write_value, write_writeset};
use bargain_core::{CertifyDecision, CertifyRequest, LogRecord, Refresh, TxnOutcome};
use bargain_sql::QueryResult;
use std::io::Read;
use std::sync::Arc;

/// One protocol message. The numeric discriminants are the frame `kind`
/// byte; frontend traffic uses 1–16, certifier traffic 20–26.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: first frame on every connection.
    Hello,
    /// Server → client: handshake reply describing the cluster.
    HelloAck {
        /// Number of replicas behind the frontend.
        replicas: u32,
        /// The cluster's consistency configuration.
        mode: ConsistencyMode,
    },
    /// Client → server: open the connection's client session.
    OpenSession,
    /// Server → client: the session is open.
    SessionOpened {
        /// The cluster-assigned client id.
        client: u64,
    },
    /// Client → server: execute DDL on every replica.
    Ddl {
        /// The `CREATE TABLE` statement.
        sql: String,
    },
    /// Server → client: generic success acknowledgement.
    Ack,
    /// Server → client: the request failed.
    Err(Error),
    /// Client → server: prepare a transaction template.
    Prepare {
        /// Human-readable template name.
        name: String,
        /// The statements' SQL text, in execution order.
        sqls: Vec<String>,
    },
    /// Server → client: the template is registered under this cluster-wide
    /// id.
    Prepared {
        /// Cluster-assigned template id; use it in [`Message::Run`].
        template: TemplateId,
    },
    /// Client → server: run one transaction.
    Run {
        /// A template id from a previous [`Message::Prepared`].
        template: TemplateId,
        /// Parameters for each statement.
        params: Vec<Vec<Value>>,
        /// Optional idempotency key; a retry of an in-doubt transaction
        /// carries the same key so the cluster deduplicates it.
        idem: Option<IdemKey>,
    },
    /// Server → client: the transaction's outcome and per-statement
    /// results (present only on commit).
    TxnReply {
        /// The outcome (committed or aborted).
        outcome: TxnOutcome,
        /// Each statement's result, empty if aborted.
        results: Vec<QueryResult>,
    },
    /// Client → server: fetch cluster counters.
    Stats,
    /// Server → client: the counters.
    StatsReply {
        /// Transactions routed.
        routed: u64,
        /// Commits observed.
        commits: u64,
        /// Aborts observed.
        aborts: u64,
        /// The load balancer's `V_system`.
        v_system: Version,
        /// Whether the certifier link is currently healthy.
        certifier_up: bool,
        /// How many times the certifier link has been declared down.
        certifier_downs: u64,
    },
    /// Client → server: drain the cluster and exit (the SIGTERM-style
    /// remote stop; `std::process::Child::kill` is SIGKILL and would skip
    /// the drain).
    StopServer,
    /// Either direction: liveness probe. The peer must answer with
    /// [`Message::Pong`] promptly; a missed deadline marks the peer down.
    Ping,
    /// Either direction: answer to [`Message::Ping`].
    Pong,
    /// Cluster → certifier: certify an update transaction.
    Certify(CertifyRequest),
    /// Cluster → certifier: a replica applied the given version (eager
    /// global-commit accounting).
    Applied {
        /// The reporting replica.
        replica: ReplicaId,
        /// The version it has applied.
        version: Version,
    },
    /// Certifier → cluster: decision for the origin replica.
    Decision {
        /// Replica that submitted the request.
        origin: ReplicaId,
        /// The commit/abort decision.
        decision: CertifyDecision,
    },
    /// Certifier → cluster: refresh for a non-origin replica.
    RefreshFor {
        /// The replica that must apply it.
        to: ReplicaId,
        /// The refresh transaction.
        refresh: Refresh,
    },
    /// Certifier → cluster: all replicas applied the commit.
    GlobalCommitFor {
        /// Replica hosting the transaction.
        origin: ReplicaId,
        /// The globally committed transaction.
        txn: TxnId,
    },
    /// Cluster → certifier: request the durable commit history after the
    /// given version (version zero at cluster start to fast-forward the
    /// replicas; the last version seen when resyncing after a reconnect).
    FetchHistory {
        /// Return only records with `commit_version > after`.
        after: Version,
    },
    /// Certifier → cluster: the commit history since version zero.
    History {
        /// Certified records in commit order.
        records: Vec<LogRecord>,
    },
    /// Joining node → frontend: request a snapshot bootstrap stream. The
    /// server exports a consistent checkpoint from a donor replica and
    /// answers with one [`Message::SnapshotChunk`] per chunk followed by a
    /// [`Message::SnapshotDone`], all tagged with the request's id. The
    /// stream rides the reactor's write-buffer backpressure: a slow joiner
    /// stalls only its own connection.
    JoinRequest {
        /// Requested chunk granularity in bytes (the server may clamp).
        chunk_bytes: u32,
    },
    /// Frontend → joining node: one snapshot chunk. Chunks arrive in index
    /// order; each is independently checksummed in the manifest, so a torn
    /// or corrupted chunk is detected at import and the joiner restarts the
    /// bootstrap (possibly from a different donor).
    SnapshotChunk {
        /// Position of this chunk in the snapshot stream.
        index: u32,
        /// The chunk bytes.
        data: Vec<u8>,
    },
    /// Frontend → joining node: end of the snapshot stream. The manifest is
    /// shipped in its own self-checksummed encoding
    /// (`bargain_storage::SnapshotManifest`), which the joiner decodes and
    /// uses to verify every received chunk.
    SnapshotDone {
        /// `SnapshotManifest::encode()` bytes.
        manifest: Vec<u8>,
    },
    /// Joining node → frontend: fetch the certified commit records strictly
    /// above `after` (the catch-up feed replayed on top of a snapshot).
    /// Answered with [`Message::History`].
    CatchUp {
        /// Return only records with `commit_version > after`.
        after: Version,
    },
}

// ----------------------------------------------------------------------
// Primitive helpers
// ----------------------------------------------------------------------

fn write_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn read_u8(r: &mut impl Read) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_string(r: &mut impl Read) -> Result<String> {
    let len = read_u32(r)? as usize;
    let bytes = read_len(r, len)?;
    String::from_utf8(bytes).map_err(|e| Error::Codec(format!("bad utf-8 string: {e}")))
}

fn write_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    write_u32(buf, data.len() as u32);
    buf.extend_from_slice(data);
}

fn read_bytes(r: &mut impl Read) -> Result<Vec<u8>> {
    let len = read_u32(r)? as usize;
    read_len(r, len)
}

// ----------------------------------------------------------------------
// Composite helpers
// ----------------------------------------------------------------------

fn write_idem(buf: &mut Vec<u8>, idem: Option<IdemKey>) {
    match idem {
        Some(k) => {
            write_u8(buf, 1);
            write_u64(buf, k.client);
            write_u64(buf, k.seq);
        }
        None => write_u8(buf, 0),
    }
}

fn read_idem(r: &mut impl Read) -> Result<Option<IdemKey>> {
    match read_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(IdemKey {
            client: read_u64(r)?,
            seq: read_u64(r)?,
        })),
        t => Err(Error::Codec(format!("bad idempotency-key tag {t}"))),
    }
}

fn mode_tag(mode: ConsistencyMode) -> u8 {
    match mode {
        ConsistencyMode::Eager => 0,
        ConsistencyMode::LazyCoarse => 1,
        ConsistencyMode::LazyFine => 2,
        ConsistencyMode::Session => 3,
        ConsistencyMode::Baseline => 4,
    }
}

fn mode_from_tag(tag: u8) -> Result<ConsistencyMode> {
    Ok(match tag {
        0 => ConsistencyMode::Eager,
        1 => ConsistencyMode::LazyCoarse,
        2 => ConsistencyMode::LazyFine,
        3 => ConsistencyMode::Session,
        4 => ConsistencyMode::Baseline,
        t => return Err(Error::Codec(format!("bad consistency mode tag {t}"))),
    })
}

fn write_error(buf: &mut Vec<u8>, e: &Error) {
    let (tag, msg) = match e {
        Error::UnknownTable(s) => (0, s),
        Error::UnknownColumn(s) => (1, s),
        Error::TableExists(s) => (2, s),
        Error::DuplicateKey(s) => (3, s),
        Error::SchemaMismatch(s) => (4, s),
        Error::CertificationConflict(s) => (5, s),
        Error::EarlyCertificationConflict(s) => (6, s),
        Error::NoSuchTransaction(s) => (7, s),
        Error::SqlParse(s) => (8, s),
        Error::SqlExecution(s) => (9, s),
        Error::Protocol(s) => (10, s),
        Error::Io(s) => (11, s),
        Error::Codec(s) => (12, s),
        Error::Timeout(s) => (13, s),
        Error::ConnectionClosed(s) => (14, s),
        Error::Unavailable(s) => (15, s),
    };
    write_u8(buf, tag);
    write_string(buf, msg);
}

fn read_error(r: &mut impl Read) -> Result<Error> {
    let tag = read_u8(r)?;
    let msg = read_string(r)?;
    Ok(match tag {
        0 => Error::UnknownTable(msg),
        1 => Error::UnknownColumn(msg),
        2 => Error::TableExists(msg),
        3 => Error::DuplicateKey(msg),
        4 => Error::SchemaMismatch(msg),
        5 => Error::CertificationConflict(msg),
        6 => Error::EarlyCertificationConflict(msg),
        7 => Error::NoSuchTransaction(msg),
        8 => Error::SqlParse(msg),
        9 => Error::SqlExecution(msg),
        10 => Error::Protocol(msg),
        11 => Error::Io(msg),
        12 => Error::Codec(msg),
        13 => Error::Timeout(msg),
        14 => Error::ConnectionClosed(msg),
        15 => Error::Unavailable(msg),
        t => return Err(Error::Codec(format!("bad error tag {t}"))),
    })
}

fn write_params(buf: &mut Vec<u8>, params: &[Vec<Value>]) {
    write_u32(buf, params.len() as u32);
    for stmt in params {
        write_u32(buf, stmt.len() as u32);
        for v in stmt {
            write_value(buf, v);
        }
    }
}

fn read_params(r: &mut impl Read) -> Result<Vec<Vec<Value>>> {
    let n = read_u32(r)? as usize;
    let mut params = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let m = read_u32(r)? as usize;
        let mut stmt = Vec::with_capacity(m.min(4096));
        for _ in 0..m {
            stmt.push(read_value(r)?);
        }
        params.push(stmt);
    }
    Ok(params)
}

fn write_outcome(buf: &mut Vec<u8>, o: &TxnOutcome) {
    write_u64(buf, o.txn.0);
    write_u64(buf, o.client.0);
    write_u64(buf, o.session.0);
    write_u32(buf, o.replica.0);
    write_u8(buf, u8::from(o.committed));
    match o.commit_version {
        Some(v) => {
            write_u8(buf, 1);
            write_u64(buf, v.0);
        }
        None => write_u8(buf, 0),
    }
    write_u64(buf, o.observed_version.0);
    write_u32(buf, o.tables_written.len() as u32);
    for t in &o.tables_written {
        write_u32(buf, t.0);
    }
    match &o.abort_reason {
        Some(s) => {
            write_u8(buf, 1);
            write_string(buf, s);
        }
        None => write_u8(buf, 0),
    }
}

fn read_outcome(r: &mut impl Read) -> Result<TxnOutcome> {
    let txn = TxnId(read_u64(r)?);
    let client = ClientId(read_u64(r)?);
    let session = SessionId(read_u64(r)?);
    let replica = ReplicaId(read_u32(r)?);
    let committed = match read_u8(r)? {
        0 => false,
        1 => true,
        t => return Err(Error::Codec(format!("bad bool tag {t}"))),
    };
    let commit_version = match read_u8(r)? {
        0 => None,
        1 => Some(Version(read_u64(r)?)),
        t => return Err(Error::Codec(format!("bad option tag {t}"))),
    };
    let observed_version = Version(read_u64(r)?);
    let n = read_u32(r)? as usize;
    let mut tables_written = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        tables_written.push(bargain_common::TableId(read_u32(r)?));
    }
    let abort_reason = match read_u8(r)? {
        0 => None,
        1 => Some(read_string(r)?),
        t => return Err(Error::Codec(format!("bad option tag {t}"))),
    };
    Ok(TxnOutcome {
        txn,
        client,
        session,
        replica,
        committed,
        commit_version,
        observed_version,
        tables_written,
        abort_reason,
    })
}

fn write_query_result(buf: &mut Vec<u8>, qr: &QueryResult) {
    match qr {
        QueryResult::Rows(rows) => {
            write_u8(buf, 0);
            write_u32(buf, rows.len() as u32);
            for row in rows {
                write_u32(buf, row.len() as u32);
                for v in row {
                    write_value(buf, v);
                }
            }
        }
        QueryResult::Affected(n) => {
            write_u8(buf, 1);
            write_u64(buf, *n as u64);
        }
    }
}

fn read_query_result(r: &mut impl Read) -> Result<QueryResult> {
    match read_u8(r)? {
        0 => {
            let n = read_u32(r)? as usize;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let m = read_u32(r)? as usize;
                let mut row = Vec::with_capacity(m.min(4096));
                for _ in 0..m {
                    row.push(read_value(r)?);
                }
                rows.push(row);
            }
            Ok(QueryResult::Rows(rows))
        }
        1 => Ok(QueryResult::Affected(read_u64(r)? as usize)),
        t => Err(Error::Codec(format!("bad query result tag {t}"))),
    }
}

fn write_decision(buf: &mut Vec<u8>, d: &CertifyDecision) {
    match d {
        CertifyDecision::Commit {
            txn,
            commit_version,
        } => {
            write_u8(buf, 0);
            write_u64(buf, txn.0);
            write_u64(buf, commit_version.0);
        }
        CertifyDecision::Abort {
            txn,
            conflicting_version,
        } => {
            write_u8(buf, 1);
            write_u64(buf, txn.0);
            write_u64(buf, conflicting_version.0);
        }
        CertifyDecision::Duplicate {
            txn,
            original,
            commit_version,
        } => {
            write_u8(buf, 2);
            write_u64(buf, txn.0);
            write_u64(buf, original.0);
            write_u64(buf, commit_version.0);
        }
    }
}

fn read_decision(r: &mut impl Read) -> Result<CertifyDecision> {
    let tag = read_u8(r)?;
    let txn = TxnId(read_u64(r)?);
    Ok(match tag {
        0 => CertifyDecision::Commit {
            txn,
            commit_version: Version(read_u64(r)?),
        },
        1 => CertifyDecision::Abort {
            txn,
            conflicting_version: Version(read_u64(r)?),
        },
        2 => CertifyDecision::Duplicate {
            txn,
            original: TxnId(read_u64(r)?),
            commit_version: Version(read_u64(r)?),
        },
        t => return Err(Error::Codec(format!("bad decision tag {t}"))),
    })
}

fn write_refresh(buf: &mut Vec<u8>, refresh: &Refresh) {
    write_u32(buf, refresh.origin.0);
    write_u64(buf, refresh.txn.0);
    write_u64(buf, refresh.commit_version.0);
    write_writeset(buf, &refresh.writeset);
}

fn read_refresh(r: &mut impl Read) -> Result<Refresh> {
    Ok(Refresh {
        origin: ReplicaId(read_u32(r)?),
        txn: TxnId(read_u64(r)?),
        commit_version: Version(read_u64(r)?),
        writeset: Arc::new(read_writeset(r)?),
    })
}

fn write_log_record(buf: &mut Vec<u8>, rec: &LogRecord) {
    write_u64(buf, rec.commit_version.0);
    write_u64(buf, rec.txn.0);
    write_u32(buf, rec.origin.0);
    write_idem(buf, rec.idem);
    write_writeset(buf, &rec.writeset);
}

fn read_log_record(r: &mut impl Read) -> Result<LogRecord> {
    Ok(LogRecord {
        commit_version: Version(read_u64(r)?),
        txn: TxnId(read_u64(r)?),
        origin: ReplicaId(read_u32(r)?),
        idem: read_idem(r)?,
        writeset: Arc::new(read_writeset(r)?),
    })
}

// ----------------------------------------------------------------------
// Message encode/decode
// ----------------------------------------------------------------------

impl Message {
    /// The frame `kind` byte identifying this message on the wire.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello => 1,
            Message::HelloAck { .. } => 2,
            Message::OpenSession => 3,
            Message::SessionOpened { .. } => 4,
            Message::Ddl { .. } => 5,
            Message::Ack => 6,
            Message::Err(_) => 7,
            Message::Prepare { .. } => 8,
            Message::Prepared { .. } => 9,
            Message::Run { .. } => 10,
            Message::TxnReply { .. } => 11,
            Message::Stats => 12,
            Message::StatsReply { .. } => 13,
            Message::StopServer => 14,
            Message::Ping => 15,
            Message::Pong => 16,
            Message::Certify(_) => 20,
            Message::Applied { .. } => 21,
            Message::Decision { .. } => 22,
            Message::RefreshFor { .. } => 23,
            Message::GlobalCommitFor { .. } => 24,
            Message::FetchHistory { .. } => 25,
            Message::History { .. } => 26,
            Message::JoinRequest { .. } => 30,
            Message::SnapshotChunk { .. } => 31,
            Message::SnapshotDone { .. } => 32,
            Message::CatchUp { .. } => 33,
        }
    }

    /// Encodes this message's payload (the frame body, excluding the
    /// header).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            Message::Hello
            | Message::OpenSession
            | Message::Ack
            | Message::Stats
            | Message::StopServer
            | Message::Ping
            | Message::Pong => {}
            Message::FetchHistory { after } => write_u64(&mut buf, after.0),
            Message::HelloAck { replicas, mode } => {
                write_u32(&mut buf, *replicas);
                write_u8(&mut buf, mode_tag(*mode));
            }
            Message::SessionOpened { client } => write_u64(&mut buf, *client),
            Message::Ddl { sql } => write_string(&mut buf, sql),
            Message::Err(e) => write_error(&mut buf, e),
            Message::Prepare { name, sqls } => {
                write_string(&mut buf, name);
                write_u32(&mut buf, sqls.len() as u32);
                for s in sqls {
                    write_string(&mut buf, s);
                }
            }
            Message::Prepared { template } => write_u32(&mut buf, template.0),
            Message::Run {
                template,
                params,
                idem,
            } => {
                write_u32(&mut buf, template.0);
                write_params(&mut buf, params);
                write_idem(&mut buf, *idem);
            }
            Message::TxnReply { outcome, results } => {
                write_outcome(&mut buf, outcome);
                write_u32(&mut buf, results.len() as u32);
                for qr in results {
                    write_query_result(&mut buf, qr);
                }
            }
            Message::StatsReply {
                routed,
                commits,
                aborts,
                v_system,
                certifier_up,
                certifier_downs,
            } => {
                write_u64(&mut buf, *routed);
                write_u64(&mut buf, *commits);
                write_u64(&mut buf, *aborts);
                write_u64(&mut buf, v_system.0);
                write_u8(&mut buf, u8::from(*certifier_up));
                write_u64(&mut buf, *certifier_downs);
            }
            Message::Certify(req) => {
                write_u64(&mut buf, req.txn.0);
                write_u32(&mut buf, req.replica.0);
                write_u64(&mut buf, req.snapshot.0);
                write_idem(&mut buf, req.idem);
                write_writeset(&mut buf, &req.writeset);
            }
            Message::Applied { replica, version } => {
                write_u32(&mut buf, replica.0);
                write_u64(&mut buf, version.0);
            }
            Message::Decision { origin, decision } => {
                write_u32(&mut buf, origin.0);
                write_decision(&mut buf, decision);
            }
            Message::RefreshFor { to, refresh } => {
                write_u32(&mut buf, to.0);
                write_refresh(&mut buf, refresh);
            }
            Message::GlobalCommitFor { origin, txn } => {
                write_u32(&mut buf, origin.0);
                write_u64(&mut buf, txn.0);
            }
            Message::History { records } => {
                write_u32(&mut buf, records.len() as u32);
                for rec in records {
                    write_log_record(&mut buf, rec);
                }
            }
            Message::JoinRequest { chunk_bytes } => write_u32(&mut buf, *chunk_bytes),
            Message::SnapshotChunk { index, data } => {
                write_u32(&mut buf, *index);
                write_bytes(&mut buf, data);
            }
            Message::SnapshotDone { manifest } => write_bytes(&mut buf, manifest),
            Message::CatchUp { after } => write_u64(&mut buf, after.0),
        }
        buf
    }

    /// Decodes a message from a frame's `kind` byte and payload. Strict:
    /// unknown kinds, truncated payloads, and trailing bytes are
    /// [`Error::Codec`] errors.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Message> {
        let mut r = payload;
        let res = Self::decode_body(kind, &mut r);
        // How far into the payload decoding got before stopping; reported
        // in errors so a corrupted frame can be located on the wire.
        let offset = payload.len() - r.len();
        let msg = res.map_err(|e| match e {
            // A short read inside a payload slice is a truncated message,
            // not an I/O failure.
            Error::Io(m) => Error::Codec(format!(
                "truncated message (kind {kind}, at byte {offset} of {}): {m}",
                payload.len()
            )),
            Error::Codec(m) => Error::Codec(format!(
                "bad message (kind {kind}, at byte {offset} of {}): {m}",
                payload.len()
            )),
            other => other,
        })?;
        if !r.is_empty() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after message (kind {kind}, payload {} bytes)",
                r.len(),
                payload.len()
            )));
        }
        Ok(msg)
    }

    fn decode_body(kind: u8, r: &mut &[u8]) -> Result<Message> {
        Ok(match kind {
            1 => Message::Hello,
            2 => Message::HelloAck {
                replicas: read_u32(r)?,
                mode: mode_from_tag(read_u8(r)?)?,
            },
            3 => Message::OpenSession,
            4 => Message::SessionOpened {
                client: read_u64(r)?,
            },
            5 => Message::Ddl {
                sql: read_string(r)?,
            },
            6 => Message::Ack,
            7 => Message::Err(read_error(r)?),
            8 => {
                let name = read_string(r)?;
                let n = read_u32(r)? as usize;
                let mut sqls = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    sqls.push(read_string(r)?);
                }
                Message::Prepare { name, sqls }
            }
            9 => Message::Prepared {
                template: TemplateId(read_u32(r)?),
            },
            10 => Message::Run {
                template: TemplateId(read_u32(r)?),
                params: read_params(r)?,
                idem: read_idem(r)?,
            },
            11 => {
                let outcome = read_outcome(r)?;
                let n = read_u32(r)? as usize;
                let mut results = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    results.push(read_query_result(r)?);
                }
                Message::TxnReply { outcome, results }
            }
            12 => Message::Stats,
            13 => Message::StatsReply {
                routed: read_u64(r)?,
                commits: read_u64(r)?,
                aborts: read_u64(r)?,
                v_system: Version(read_u64(r)?),
                certifier_up: match read_u8(r)? {
                    0 => false,
                    1 => true,
                    t => return Err(Error::Codec(format!("bad bool tag {t}"))),
                },
                certifier_downs: read_u64(r)?,
            },
            14 => Message::StopServer,
            15 => Message::Ping,
            16 => Message::Pong,
            20 => Message::Certify(CertifyRequest {
                txn: TxnId(read_u64(r)?),
                replica: ReplicaId(read_u32(r)?),
                snapshot: Version(read_u64(r)?),
                idem: read_idem(r)?,
                writeset: read_writeset(r)?,
            }),
            21 => Message::Applied {
                replica: ReplicaId(read_u32(r)?),
                version: Version(read_u64(r)?),
            },
            22 => Message::Decision {
                origin: ReplicaId(read_u32(r)?),
                decision: read_decision(r)?,
            },
            23 => Message::RefreshFor {
                to: ReplicaId(read_u32(r)?),
                refresh: read_refresh(r)?,
            },
            24 => Message::GlobalCommitFor {
                origin: ReplicaId(read_u32(r)?),
                txn: TxnId(read_u64(r)?),
            },
            25 => Message::FetchHistory {
                after: Version(read_u64(r)?),
            },
            26 => {
                let n = read_u32(r)? as usize;
                let mut records = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    records.push(read_log_record(r)?);
                }
                Message::History { records }
            }
            30 => Message::JoinRequest {
                chunk_bytes: read_u32(r)?,
            },
            31 => Message::SnapshotChunk {
                index: read_u32(r)?,
                data: read_bytes(r)?,
            },
            32 => Message::SnapshotDone {
                manifest: read_bytes(r)?,
            },
            33 => Message::CatchUp {
                after: Version(read_u64(r)?),
            },
            k => return Err(Error::Codec(format!("unknown message kind {k}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{TableId, WriteOp, WriteSet};

    fn round_trip(msg: Message) {
        let payload = msg.encode();
        let back = Message::decode(msg.kind(), &payload).expect("decodes");
        assert_eq!(msg, back);
    }

    #[test]
    fn round_trips_every_variant() {
        let mut ws = WriteSet::new();
        ws.push(
            TableId(2),
            Value::Int(7),
            WriteOp::Update(vec![Value::Int(7), Value::Text("x".into())]),
        );
        round_trip(Message::Hello);
        round_trip(Message::HelloAck {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
        });
        round_trip(Message::OpenSession);
        round_trip(Message::SessionOpened { client: 42 });
        round_trip(Message::Ddl {
            sql: "CREATE TABLE t (id INT PRIMARY KEY)".into(),
        });
        round_trip(Message::Ack);
        round_trip(Message::Err(Error::CertificationConflict("txn 9".into())));
        round_trip(Message::Prepare {
            name: "micro.update".into(),
            sqls: vec!["UPDATE t SET v = ? WHERE id = ?".into()],
        });
        round_trip(Message::Prepared {
            template: TemplateId(17),
        });
        round_trip(Message::Run {
            template: TemplateId(17),
            params: vec![vec![Value::Int(1), Value::Null], vec![]],
            idem: None,
        });
        round_trip(Message::Run {
            template: TemplateId(17),
            params: vec![vec![Value::Int(1)]],
            idem: Some(IdemKey {
                client: 0xDEAD_BEEF,
                seq: 42,
            }),
        });
        round_trip(Message::TxnReply {
            outcome: TxnOutcome {
                txn: TxnId(5),
                client: ClientId(1),
                session: SessionId(1),
                replica: ReplicaId(2),
                committed: true,
                commit_version: Some(Version(9)),
                observed_version: Version(9),
                tables_written: vec![TableId(0), TableId(3)],
                abort_reason: None,
            },
            results: vec![
                QueryResult::Rows(vec![vec![Value::Int(1), Value::Float(2.5)]]),
                QueryResult::Affected(3),
            ],
        });
        round_trip(Message::Stats);
        round_trip(Message::StatsReply {
            routed: 10,
            commits: 8,
            aborts: 2,
            v_system: Version(8),
            certifier_up: true,
            certifier_downs: 1,
        });
        round_trip(Message::StopServer);
        round_trip(Message::Ping);
        round_trip(Message::Pong);
        round_trip(Message::Certify(CertifyRequest {
            txn: TxnId(3),
            replica: ReplicaId(1),
            snapshot: Version(4),
            idem: Some(IdemKey { client: 7, seq: 9 }),
            writeset: ws.clone(),
        }));
        round_trip(Message::Applied {
            replica: ReplicaId(0),
            version: Version(6),
        });
        round_trip(Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Abort {
                txn: TxnId(3),
                conflicting_version: Version(5),
            },
        });
        round_trip(Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Duplicate {
                txn: TxnId(4),
                original: TxnId(3),
                commit_version: Version(6),
            },
        });
        round_trip(Message::RefreshFor {
            to: ReplicaId(2),
            refresh: Refresh {
                origin: ReplicaId(1),
                txn: TxnId(3),
                commit_version: Version(7),
                writeset: Arc::new(ws.clone()),
            },
        });
        round_trip(Message::GlobalCommitFor {
            origin: ReplicaId(0),
            txn: TxnId(11),
        });
        round_trip(Message::FetchHistory { after: Version(12) });
        round_trip(Message::History {
            records: vec![
                LogRecord {
                    commit_version: Version(1),
                    txn: TxnId(1),
                    origin: ReplicaId(0),
                    idem: None,
                    writeset: Arc::new(ws.clone()),
                },
                LogRecord {
                    commit_version: Version(2),
                    txn: TxnId(2),
                    origin: ReplicaId(1),
                    idem: Some(IdemKey {
                        client: 0xC0FFEE,
                        seq: 3,
                    }),
                    writeset: Arc::new(ws),
                },
            ],
        });
        round_trip(Message::JoinRequest {
            chunk_bytes: 256 * 1024,
        });
        round_trip(Message::SnapshotChunk {
            index: 7,
            data: vec![0xAB; 37],
        });
        round_trip(Message::SnapshotChunk {
            index: 0,
            data: Vec::new(),
        });
        round_trip(Message::SnapshotDone {
            manifest: b"BSNP-manifest-bytes".to_vec(),
        });
        round_trip(Message::CatchUp { after: Version(99) });
    }

    #[test]
    fn snapshot_chunk_truncation_errors_not_panics() {
        let msg = Message::SnapshotChunk {
            index: 3,
            data: vec![1, 2, 3, 4, 5],
        };
        let payload = msg.encode();
        for cut in 0..payload.len() {
            assert!(
                Message::decode(msg.kind(), &payload[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn truncation_errors_not_panics() {
        let msg = Message::Prepare {
            name: "t".into(),
            sqls: vec!["SELECT x FROM t".into()],
        };
        let payload = msg.encode();
        for cut in 0..payload.len() {
            assert!(
                Message::decode(msg.kind(), &payload[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn truncation_error_reports_byte_offset() {
        let msg = Message::SessionOpened { client: 7 };
        let payload = msg.encode();
        let err = Message::decode(msg.kind(), &payload[..3]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("kind 4") && text.contains("byte") && text.contains("of 3"),
            "error should name the frame kind and byte offset: {text}"
        );
    }

    /// Counts and lengths are the sender's word. One that promises more
    /// than the payload holds is a decode error — before it is a
    /// reservation: with `ncols` reserved as read, the first payload here
    /// asked for 103 079 215 080 bytes and aborted the process.
    #[test]
    fn counts_and_lengths_beyond_the_payload_error_without_reserving() {
        let mut ws = WriteSet::new();
        ws.push(
            TableId(1),
            Value::Int(2),
            WriteOp::Update(vec![Value::Int(3)]),
        );
        let certify = Message::Certify(CertifyRequest {
            txn: TxnId(1),
            replica: ReplicaId(0),
            snapshot: Version(0),
            idem: None,
            writeset: ws,
        });
        let mut payload = certify.encode();
        // … | u32 ncols | one Int column (9 bytes).
        let ncols = payload.len() - 13;
        assert_eq!(payload[ncols..ncols + 4], 1u32.to_le_bytes());
        payload[ncols..ncols + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let got = Message::decode(certify.kind(), &payload);
        assert!(matches!(got, Err(Error::Codec(_))), "{got:?}");

        let run = Message::Run {
            template: TemplateId(1),
            params: vec![vec![Value::Text("x".into())]],
            idem: None,
        };
        let mut payload = run.encode();
        // u32 template | u32 statements | u32 values | u8 tag | u32 len | "x".
        assert_eq!(payload[13..17], 1u32.to_le_bytes());
        payload[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let got = Message::decode(run.kind(), &payload);
        assert!(matches!(got, Err(Error::Codec(_))), "{got:?}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Ack.encode();
        payload.push(0);
        assert!(matches!(Message::decode(6, &payload), Err(Error::Codec(_))));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(matches!(Message::decode(99, &[]), Err(Error::Codec(_))));
    }
}
