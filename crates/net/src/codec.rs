//! The message envelope: which protocol messages exist, the frame `kind`
//! byte of each, and the fields each carries, in wire order.
//!
//! What a field looks like as bytes is not decided here: every type brings
//! its one encoding ([`bargain_common::codec`], with the impls for the
//! middleware's own types beside them in `bargain_core` and for
//! `QueryResult` in `bargain_sql`), so a writeset or a commit record
//! occupies on the wire exactly the bytes it occupies on the certifier's
//! disk. Two kinds of traffic share the envelope: session traffic (frontend
//! ↔ client driver) and certification traffic (cluster ↔ certifier
//! process). One exchange belongs to both: the certified history, asked
//! for with [`Message::FetchHistory`] and answered, by either endpoint,
//! with one page (`history_page`, at most [`CATCH_UP_RECORDS`] records).
//!
//! Decoding is strict: unknown kinds and tags, truncated payloads, and
//! trailing bytes all yield [`Error::Codec`]; nothing panics on malformed
//! input.

use bargain_common::codec::{malformed, put_bytes, Codec, DecodeResult, Reader};
use bargain_common::{
    ConsistencyMode, Error, IdemKey, ReplicaId, Result, TemplateId, TxnId, Value, Version,
};
use bargain_core::{CertifyDecision, CertifyRequest, LogRecord, Refresh, TxnOutcome};
use bargain_sql::QueryResult;

/// The most records the [`Message::History`] answering one
/// [`Message::FetchHistory`] carries, the oldest first, on either
/// endpoint. A reply this long may have more behind it, from its last
/// record's version on; a shorter one ends the feed.
pub const CATCH_UP_RECORDS: usize = 1024;

/// The answer to [`Message::FetchHistory`] on either endpoint: one page
/// of the certified records above `after`, read by `page(after, max)`.
pub(crate) fn history_page(
    after: Version,
    page: impl FnOnce(Version, usize) -> Result<Vec<LogRecord>>,
) -> Message {
    page(after, CATCH_UP_RECORDS).map_or_else(Message::Err, |records| Message::History { records })
}

/// The error for a reply of another kind than the one `expected`.
pub(crate) fn unexpected(expected: &str, got: &Message) -> Error {
    Error::Protocol(format!(
        "expected {expected}, got message kind {}",
        got.kind()
    ))
}

/// One protocol message. The numeric discriminants are the frame `kind`
/// byte: session traffic uses 1–16, certifier traffic 20–26 and the
/// snapshot bootstrap 30–32. The history exchange (25, 26) serves the
/// certifier and the frontend alike. Kind 27, a replica's re-introduction,
/// is retired: its meaning is [`Message::Applied`]'s, and it decodes as
/// unknown.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: first frame on every connection.
    Hello,
    /// Server → client: handshake reply describing the cluster. Also the
    /// cluster's introduction to its certifier service (cluster → service,
    /// first on every certifier connection), from which the service learns
    /// its membership and mode.
    HelloAck {
        /// Number of replicas behind the frontend (the certifier's members
        /// `0..replicas`).
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
    /// Cluster → certifier: `replica` has applied every commit up to
    /// `version` (eager global-commit accounting). A replica sends one as it
    /// applies each commit, and one with its `V_local` after a certifier
    /// outage, which may have lost the others (across a certifier restart,
    /// every watermark).
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
    /// Cluster → certifier, or joining node → frontend: request one page
    /// of the durable commit history after the given version (version zero
    /// at cluster start to fast-forward the replicas; the last version seen
    /// when resyncing after a reconnect; a snapshot's version for the
    /// catch-up feed replayed on top of it). Answered with
    /// [`Message::History`].
    FetchHistory {
        /// Return only records with `commit_version > after`.
        after: Version,
    },
    /// Answer to [`Message::FetchHistory`]: at most [`CATCH_UP_RECORDS`]
    /// certified records, the oldest first.
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
}

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
        }
    }

    /// Encodes this message's payload (the frame body, excluding the
    /// header): its fields, in the order listed.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends this message to `out` as one frame tagged with
    /// `request_id`, the payload encoded in place
    /// ([`crate::frame::append_frame`]). An over-size payload is refused
    /// and `out` is left as it was.
    pub fn append_frame(&self, out: &mut Vec<u8>, request_id: u64) -> Result<()> {
        crate::frame::append_frame(out, self.kind(), request_id, |buf| {
            self.encode_into(buf);
        })
    }

    /// Appends this message's payload to `buf`, as [`Message::encode`]
    /// returns it.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello
            | Message::OpenSession
            | Message::Ack
            | Message::Stats
            | Message::StopServer
            | Message::Ping
            | Message::Pong => {}
            Message::HelloAck { replicas, mode } => {
                replicas.put(buf);
                mode.put(buf);
            }
            Message::SessionOpened { client } => client.put(buf),
            Message::Ddl { sql } => sql.put(buf),
            Message::Err(e) => e.put(buf),
            Message::Prepare { name, sqls } => {
                name.put(buf);
                sqls.put(buf);
            }
            Message::Prepared { template } => template.put(buf),
            Message::Run {
                template,
                params,
                idem,
            } => {
                template.put(buf);
                params.put(buf);
                idem.put(buf);
            }
            Message::TxnReply { outcome, results } => {
                outcome.put(buf);
                results.put(buf);
            }
            Message::StatsReply {
                routed,
                commits,
                aborts,
                v_system,
                certifier_up,
                certifier_downs,
            } => {
                routed.put(buf);
                commits.put(buf);
                aborts.put(buf);
                v_system.put(buf);
                certifier_up.put(buf);
                certifier_downs.put(buf);
            }
            Message::Certify(req) => req.put(buf),
            Message::Applied { replica, version } => {
                replica.put(buf);
                version.put(buf);
            }
            Message::Decision { origin, decision } => {
                origin.put(buf);
                decision.put(buf);
            }
            Message::RefreshFor { to, refresh } => {
                to.put(buf);
                refresh.put(buf);
            }
            Message::GlobalCommitFor { origin, txn } => {
                origin.put(buf);
                txn.put(buf);
            }
            Message::FetchHistory { after } => after.put(buf),
            Message::History { records } => records.put(buf),
            Message::JoinRequest { chunk_bytes } => chunk_bytes.put(buf),
            Message::SnapshotChunk { index, data } => {
                index.put(buf);
                put_bytes(buf, data);
            }
            Message::SnapshotDone { manifest } => put_bytes(buf, manifest),
        }
    }

    /// Decodes a message from a frame's `kind` byte and payload. Strict:
    /// unknown kinds, truncated payloads, and trailing bytes are
    /// [`Error::Codec`] errors.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Message> {
        let mut r = Reader::new(payload);
        // Where in the payload decoding stopped is reported, so a corrupted
        // frame can be located on the wire.
        Self::decode_body(kind, &mut r)
            .and_then(|msg| r.finish().map(|()| msg))
            .map_err(|e| {
                Error::Codec(format!(
                    "bad message (kind {kind}, at byte {} of {}): {e}",
                    r.position(),
                    payload.len()
                ))
            })
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> DecodeResult<Message> {
        Ok(match kind {
            1 => Message::Hello,
            2 => Message::HelloAck {
                replicas: r.get()?,
                mode: r.get()?,
            },
            3 => Message::OpenSession,
            4 => Message::SessionOpened { client: r.get()? },
            5 => Message::Ddl { sql: r.get()? },
            6 => Message::Ack,
            7 => Message::Err(r.get()?),
            8 => Message::Prepare {
                name: r.get()?,
                sqls: r.get()?,
            },
            9 => Message::Prepared { template: r.get()? },
            10 => Message::Run {
                template: r.get()?,
                params: r.get()?,
                idem: r.get()?,
            },
            11 => Message::TxnReply {
                outcome: r.get()?,
                results: r.get()?,
            },
            12 => Message::Stats,
            13 => Message::StatsReply {
                routed: r.get()?,
                commits: r.get()?,
                aborts: r.get()?,
                v_system: r.get()?,
                certifier_up: r.get()?,
                certifier_downs: r.get()?,
            },
            14 => Message::StopServer,
            15 => Message::Ping,
            16 => Message::Pong,
            20 => Message::Certify(r.get()?),
            21 => Message::Applied {
                replica: r.get()?,
                version: r.get()?,
            },
            22 => Message::Decision {
                origin: r.get()?,
                decision: r.get()?,
            },
            23 => Message::RefreshFor {
                to: r.get()?,
                refresh: r.get()?,
            },
            24 => Message::GlobalCommitFor {
                origin: r.get()?,
                txn: r.get()?,
            },
            25 => Message::FetchHistory { after: r.get()? },
            26 => Message::History { records: r.get()? },
            30 => Message::JoinRequest {
                chunk_bytes: r.get()?,
            },
            31 => Message::SnapshotChunk {
                index: r.get()?,
                data: r.bytes()?.to_vec(),
            },
            32 => Message::SnapshotDone {
                manifest: r.bytes()?.to_vec(),
            },
            k => return Err(malformed(format!("unknown message kind {k}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{ClientId, SessionId, TableId, WriteOp, WriteSet};
    use std::sync::Arc;

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
            WriteOp::Update(vec![Value::Int(7), Value::Text("x".into())].into()),
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
                QueryResult::Rows(vec![vec![Value::Int(1), Value::Float(2.5)].into()]),
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
            writeset: Arc::new(ws.clone()),
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
            WriteOp::Update(vec![Value::Int(3)].into()),
        );
        let certify = Message::Certify(CertifyRequest {
            txn: TxnId(1),
            replica: ReplicaId(0),
            snapshot: Version(0),
            idem: None,
            writeset: Arc::new(ws),
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
        // The retired re-introduction, with the payload it carried.
        let applied = Message::Applied {
            replica: ReplicaId(2),
            version: Version(13),
        };
        let err = Message::decode(27, &applied.encode()).unwrap_err();
        assert!(err.to_string().contains("unknown message kind 27"), "{err}");
    }
}
