//! Property tests for the wire codec: every protocol message round-trips
//! byte-identically through encode → frame → parse → decode, and malformed
//! input (truncation, bit flips, forged headers) yields decode errors —
//! never a panic, never a silently wrong message. The same hostile bytes
//! go to the two other readers of the one codec, snapshot import and log
//! recovery.

use bargain_common::codec::Codec;
use bargain_common::{
    crc32, ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, SessionId, TableId, TemplateId,
    TxnId, Value, Version, WriteOp, WriteSet,
};
use bargain_core::{
    CertifyDecision, CertifyRequest, CommitLog, FileLog, LogRecord, Refresh, TxnOutcome,
};
use bargain_net::frame::{read_frame, write_frame, FrameDecoder};
use bargain_net::Message;
use bargain_sql::QueryResult;
use bargain_storage::{Column, ColumnType, Engine, Snapshot, SnapshotManifest, TableSchema};
use proptest::prelude::*;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,24}".prop_map(Value::Text),
    ]
}

fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value_strategy(), 0..5)
}

fn writeset_strategy() -> impl Strategy<Value = WriteSet> {
    proptest::collection::vec((0..8u32, any::<i64>(), 0..3u8, row_strategy()), 0..6).prop_map(
        |entries| {
            let mut ws = WriteSet::new();
            for (table, key, op, row) in entries {
                let op = match op {
                    0 => WriteOp::Insert(row),
                    1 => WriteOp::Update(row),
                    _ => WriteOp::Delete,
                };
                ws.push(TableId(table), Value::Int(key), op);
            }
            ws
        },
    )
}

fn outcome_strategy() -> impl Strategy<Value = TxnOutcome> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        proptest::collection::vec(0..16u32, 0..4),
        proptest::option::of("[ -~]{0,40}"),
    )
        .prop_map(
            |(txn, client, replica, committed, cv, observed, tables, reason)| TxnOutcome {
                txn: TxnId(txn),
                client: ClientId(client),
                session: SessionId(client),
                replica: ReplicaId(replica),
                committed,
                commit_version: cv.map(Version),
                observed_version: Version(observed),
                tables_written: tables.into_iter().map(TableId).collect(),
                abort_reason: reason,
            },
        )
}

fn query_result_strategy() -> impl Strategy<Value = QueryResult> {
    prop_oneof![
        proptest::collection::vec(row_strategy(), 0..4).prop_map(QueryResult::Rows),
        any::<u32>().prop_map(|n| QueryResult::Affected(n as usize)),
    ]
}

fn error_strategy() -> impl Strategy<Value = Error> {
    ("[ -~]{0,32}", 0..16u8).prop_map(|(s, tag)| match tag {
        0 => Error::UnknownTable(s),
        1 => Error::UnknownColumn(s),
        2 => Error::TableExists(s),
        3 => Error::DuplicateKey(s),
        4 => Error::SchemaMismatch(s),
        5 => Error::CertificationConflict(s),
        6 => Error::EarlyCertificationConflict(s),
        7 => Error::NoSuchTransaction(s),
        8 => Error::SqlParse(s),
        9 => Error::SqlExecution(s),
        10 => Error::Protocol(s),
        11 => Error::Io(s),
        12 => Error::Codec(s),
        13 => Error::Timeout(s),
        14 => Error::ConnectionClosed(s),
        _ => Error::Unavailable(s),
    })
}

fn mode_strategy() -> impl Strategy<Value = ConsistencyMode> {
    prop_oneof![
        Just(ConsistencyMode::Eager),
        Just(ConsistencyMode::LazyCoarse),
        Just(ConsistencyMode::LazyFine),
        Just(ConsistencyMode::Session),
        Just(ConsistencyMode::Baseline),
    ]
}

fn idem_strategy() -> impl Strategy<Value = Option<IdemKey>> {
    proptest::option::of(
        (any::<u64>(), any::<u64>()).prop_map(|(client, seq)| IdemKey { client, seq }),
    )
}

fn refresh_strategy() -> impl Strategy<Value = Refresh> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        writeset_strategy(),
    )
        .prop_map(|(origin, txn, cv, ws)| Refresh {
            origin: ReplicaId(origin),
            txn: TxnId(txn),
            commit_version: Version(cv),
            writeset: Arc::new(ws),
        })
}

fn log_record_strategy() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        idem_strategy(),
        writeset_strategy(),
    )
        .prop_map(|(cv, txn, origin, idem, ws)| LogRecord {
            commit_version: Version(cv),
            txn: TxnId(txn),
            origin: ReplicaId(origin),
            idem,
            writeset: Arc::new(ws),
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Hello),
        (any::<u32>(), mode_strategy())
            .prop_map(|(replicas, mode)| Message::HelloAck { replicas, mode }),
        Just(Message::OpenSession),
        any::<u64>().prop_map(|client| Message::SessionOpened { client }),
        "[ -~]{0,60}".prop_map(|sql| Message::Ddl { sql }),
        Just(Message::Ack),
        error_strategy().prop_map(Message::Err),
        (
            "[a-z.]{1,20}",
            proptest::collection::vec("[ -~]{0,40}".boxed(), 0..4)
        )
            .prop_map(|(name, sqls)| Message::Prepare { name, sqls }),
        any::<u32>().prop_map(|t| Message::Prepared {
            template: TemplateId(t)
        }),
        (
            any::<u32>(),
            proptest::collection::vec(row_strategy(), 0..4),
            idem_strategy()
        )
            .prop_map(|(t, params, idem)| Message::Run {
                template: TemplateId(t),
                params,
                idem
            }),
        (
            outcome_strategy(),
            proptest::collection::vec(query_result_strategy(), 0..3)
        )
            .prop_map(|(outcome, results)| Message::TxnReply { outcome, results }),
        Just(Message::Stats),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(
                |(routed, commits, aborts, v, certifier_up, certifier_downs)| {
                    Message::StatsReply {
                        routed,
                        commits,
                        aborts,
                        v_system: Version(v),
                        certifier_up,
                        certifier_downs,
                    }
                }
            ),
        Just(Message::StopServer),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            idem_strategy(),
            writeset_strategy()
        )
            .prop_map(|(txn, replica, snapshot, idem, ws)| Message::Certify(
                CertifyRequest {
                    txn: TxnId(txn),
                    replica: ReplicaId(replica),
                    snapshot: Version(snapshot),
                    writeset: ws,
                    idem,
                }
            )),
        (any::<u32>(), any::<u64>()).prop_map(|(r, v)| Message::Applied {
            replica: ReplicaId(r),
            version: Version(v)
        }),
        (
            any::<u32>(),
            0..4u8,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            ".{0,24}"
        )
            .prop_map(
                |(origin, tag, txn, v, original, reason)| Message::Decision {
                    origin: ReplicaId(origin),
                    decision: match tag {
                        0 => CertifyDecision::Commit {
                            txn: TxnId(txn),
                            commit_version: Version(v),
                        },
                        1 => CertifyDecision::Abort {
                            txn: TxnId(txn),
                            conflicting_version: Version(v),
                        },
                        2 => CertifyDecision::Duplicate {
                            txn: TxnId(txn),
                            original: TxnId(original),
                            commit_version: Version(v),
                        },
                        _ => CertifyDecision::Refused {
                            txn: TxnId(txn),
                            reason,
                        },
                    },
                }
            ),
        (any::<u32>(), refresh_strategy()).prop_map(|(to, refresh)| Message::RefreshFor {
            to: ReplicaId(to),
            refresh
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(origin, txn)| Message::GlobalCommitFor {
            origin: ReplicaId(origin),
            txn: TxnId(txn)
        }),
        Just(Message::Ping),
        Just(Message::Pong),
        any::<u64>().prop_map(|after| Message::FetchHistory {
            after: Version(after)
        }),
        proptest::collection::vec(log_record_strategy(), 0..4)
            .prop_map(|records| Message::History { records }),
    ]
}

// ----------------------------------------------------------------------
// The other two readers: snapshot import and log recovery
// ----------------------------------------------------------------------

/// A donor's snapshot as one chunk: two tables, a secondary index, and —
/// under an open reader, so that they ship — an update history and a
/// tombstone.
fn donor_snapshot() -> Snapshot {
    let mut e = Engine::new();
    let int = |name| Column::new(name, ColumnType::Int);
    let acct = e
        .create_table(TableSchema::new("acct", vec![int("id"), int("bal")], 0).unwrap())
        .unwrap();
    e.create_index(acct, "bal").unwrap();
    let note = Column::nullable("note", ColumnType::Text);
    let item = e
        .create_table(TableSchema::new("item", vec![int("id"), note], 0).unwrap())
        .unwrap();
    let row = |id, v| vec![Value::Int(id), Value::Int(v)];
    e.load_rows(acct, (1..=4).map(|i| row(i, 100 * i)).collect())
        .unwrap();
    e.load_rows(item, vec![vec![Value::Int(1), Value::Text("héllo".into())]])
        .unwrap();
    let _reader = e.begin_at(Version::ZERO);
    let mut ws = WriteSet::new();
    ws.push(acct, Value::Int(1), WriteOp::Update(row(1, 101)));
    ws.push(acct, Value::Int(2), WriteOp::Delete);
    ws.push(
        item,
        Value::Int(1),
        WriteOp::Update(vec![Value::Int(1), Value::Null]),
    );
    e.apply_refresh(&ws, Version(1)).unwrap();
    e.export_snapshot(usize::MAX)
}

/// Imports `chunks` under a manifest that vouches for them: checksums and
/// length recomputed, as a donor that lies (or a disk that rots under a
/// donor that re-checksums) would ship them. `Ok` or `Err`, never a panic.
fn import_resealed(manifest: &SnapshotManifest, chunks: &[Vec<u8>]) {
    let mut manifest = manifest.clone();
    manifest.chunk_checksums = chunks.iter().map(|c| crc32(c)).collect();
    manifest.total_bytes = chunks.iter().map(|c| c.len() as u64).sum();
    let manifest = SnapshotManifest::decode(&manifest.encode()).expect("resealed manifest");
    let _ = Engine::import_snapshot(&manifest, chunks);
}

/// Opens `image` as a certifier log. Returns how many records recovery
/// kept, or `None` if it refused the file. Never a panic.
fn recover_log(image: &[u8], name: &str) -> Option<usize> {
    let dir = std::env::temp_dir().join(format!("bargain-proptest-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, image).unwrap();
    let kept = FileLog::open(&path).ok().map(|log| log.len());
    std::fs::remove_file(&path).unwrap();
    kept
}

/// `bytes` with the four at `at` overwritten by `u32::MAX`: a count or a
/// length, wherever one lies, now promises what nothing can back.
fn patched(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    out
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    /// Every message survives encode → decode unchanged.
    #[test]
    fn message_round_trips(msg in message_strategy()) {
        let payload = msg.encode();
        let back = Message::decode(msg.kind(), &payload).expect("well-formed payload decodes");
        prop_assert_eq!(msg, back);
    }

    /// Every message survives a full frame round-trip (header + checksum),
    /// with its request-id tag intact.
    #[test]
    fn frame_round_trips(msg in message_strategy(), id in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.kind(), id, &msg.encode()).expect("frame writes");
        let (kind, got_id, payload) = read_frame(&mut wire.as_slice()).expect("frame reads");
        prop_assert_eq!(kind, msg.kind());
        prop_assert_eq!(got_id, id);
        let back = Message::decode(kind, &payload).expect("payload decodes");
        prop_assert_eq!(msg, back);
    }

    /// Truncating an encoded message at any byte yields an error, never a
    /// panic and never a bogus message.
    #[test]
    fn truncated_payloads_error(msg in message_strategy(), cut in any::<u16>()) {
        let payload = msg.encode();
        if payload.is_empty() {
            return;
        }
        let cut = (cut as usize) % payload.len();
        prop_assert!(Message::decode(msg.kind(), &payload[..cut]).is_err());
    }

    /// Flipping any single bit of a framed message is detected: either the
    /// header checks fail or the checksum/decoder rejects the payload. A
    /// flip must never produce a *different valid* message silently.
    #[test]
    fn corrupted_frames_error_or_detect(
        msg in message_strategy(),
        pos in any::<u32>(),
        bit in 0..8u32,
        records in proptest::collection::vec(log_record_strategy(), 1..4),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.kind(), 7, &msg.encode()).expect("frame writes");
        let pos = (pos as usize) % wire.len();
        wire[pos] ^= 1 << bit;
        match read_frame(&mut wire.as_slice()) {
            Err(_) => {} // detected at the framing layer
            Ok((kind, _id, payload)) => {
                // The flip landed somewhere that still parses as a frame
                // (e.g. the kind byte with a matching checksum is
                // impossible — the CRC covers only the payload, so a kind
                // flip *can* slip through framing). The decoder must then
                // either reject it or the checksum guarantees the payload
                // bytes are untouched.
                if let Ok(back) = Message::decode(kind, &payload) {
                    // Only acceptable if the frame is byte-identical in
                    // payload and the flip hit the kind byte such that it
                    // decoded to a structurally valid message. Assert the
                    // payload really is intact (checksum held).
                    prop_assert_eq!(payload, msg.encode());
                    let _ = back;
                }
            }
        }
        // A bit flip dies at the CRC and never reaches the decoder. A sender
        // that lies does: overwrite four payload bytes — a count or a
        // length, wherever one lies — with u32::MAX and frame the result
        // with its own valid checksum. Decoding may fail or yield another
        // message; it may not panic or reserve what the payload cannot back.
        let mut payload = msg.encode();
        if payload.len() >= 4 {
            let at = pos as usize % (payload.len() - 3);
            payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut wire = Vec::new();
            write_frame(&mut wire, msg.kind(), 7, &payload).expect("frame writes");
            let (kind, _id, payload) = read_frame(&mut wire.as_slice()).expect("checksum holds");
            let _ = Message::decode(kind, &payload);
        }

        // The same two lies told to a joiner. A flipped bit dies at the
        // manifest's CRC, or at the chunk's; behind a checksum recomputed
        // over the damage both reach the decoder, and so does the patch.
        let snap = donor_snapshot();
        let sealed = snap.manifest.encode();
        let mut flipped = sealed.clone();
        flipped[pos as usize % sealed.len()] ^= 1 << bit;
        prop_assert!(SnapshotManifest::decode(&flipped).is_err());
        let body = sealed.len() - 4;
        let mut lying = patched(&sealed[..body], pos as usize % (body - 3));
        lying.extend_from_slice(&crc32(&lying).to_le_bytes());
        if let Ok(manifest) = SnapshotManifest::decode(&lying) {
            let _ = Engine::import_snapshot(&manifest, &snap.chunks);
        }
        let stream = &snap.chunks[0];
        let mut flipped = stream.clone();
        flipped[pos as usize % stream.len()] ^= 1 << bit;
        prop_assert!(Engine::import_snapshot(&snap.manifest, &[flipped.clone()]).is_err());
        import_resealed(&snap.manifest, &[flipped]);
        import_resealed(&snap.manifest, &[patched(stream, pos as usize % (stream.len() - 3))]);

        // And to a certifier at start-up. The log has no checksum: damage
        // reads as a torn tail (the records before it survive), as a
        // refusal, or — a flipped bit in a field — as other records.
        let mut log = Vec::new();
        records.iter().for_each(|record| record.put(&mut log));
        prop_assert_eq!(recover_log(&log, "intact.wal"), Some(records.len()));
        let mut flipped = log.clone();
        flipped[pos as usize % log.len()] ^= 1 << bit;
        let _ = recover_log(&flipped, "flipped.wal");
        let _ = recover_log(&patched(&log, pos as usize % (log.len() - 3)), "patched.wal");
    }

    /// Random byte soup never panics the frame reader.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = read_frame(&mut bytes.as_slice());
        // Nor the manifest decoder, bare and behind a magic, a format
        // version and a checksum that hold; nor import, handed the soup as
        // a vouched-for chunk; nor log recovery.
        let _ = SnapshotManifest::decode(&bytes);
        let mut sealed = [b"BSNP\x01\x00".as_slice(), &bytes].concat();
        sealed.extend_from_slice(&crc32(&sealed).to_le_bytes());
        let _ = SnapshotManifest::decode(&sealed);
        import_resealed(&donor_snapshot().manifest, std::slice::from_ref(&bytes));
        let _ = recover_log(&bytes, "soup.wal");
    }

    /// The incremental decoder fed a frame stream in adversarial chunks —
    /// any cut points, including inside the magic, the length field, the
    /// crc, and the request id — yields exactly the frames the one-shot
    /// path yields, in order, tags included.
    #[test]
    fn chunked_decode_matches_one_shot(
        msgs in proptest::collection::vec(message_strategy(), 1..4),
        cuts in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            let id = i as u64 + 1;
            write_frame(&mut wire, msg.kind(), id, &msg.encode()).expect("frame writes");
            expected.push((msg.kind(), id, msg.encode()));
        }
        // Turn the random cut offsets into an ordered partition of the
        // wire bytes.
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut prev = 0;
        for cut in cuts.into_iter().chain(std::iter::once(wire.len())) {
            dec.feed(&wire[prev..cut], &mut out).expect("valid stream decodes");
            prev = cut;
        }
        prop_assert!(!dec.mid_frame(), "stream ends on a frame boundary");
        prop_assert_eq!(out.len(), expected.len());
        for (frame, (kind, id, payload)) in out.iter().zip(&expected) {
            prop_assert_eq!(frame.kind, *kind);
            prop_assert_eq!(frame.request_id, *id);
            prop_assert_eq!(&frame.payload, payload);
        }
    }

    /// One byte at a time is the worst case: header split at every offset,
    /// payload split at every offset. Decode results must be identical to
    /// the one-shot path.
    #[test]
    fn byte_at_a_time_decode_matches_one_shot(msg in message_strategy(), id in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.kind(), id, &msg.encode()).expect("frame writes");
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b), &mut out).expect("valid bytes decode");
        }
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].kind, msg.kind());
        prop_assert_eq!(out[0].request_id, id);
        prop_assert_eq!(&out[0].payload, &msg.encode());
    }

    /// Error classification parity under chunking: corrupt one byte, feed
    /// the result one byte at a time, and the incremental decoder must
    /// fail with *exactly* the error the one-shot reader reports (same
    /// variant, same message — kind and byte counts included). The only
    /// divergence allowed is a corrupted length field promising bytes the
    /// input does not hold: the one-shot path calls that truncation (I/O
    /// error) while the incremental decoder parks mid-frame awaiting more.
    #[test]
    fn chunked_error_classification_matches_one_shot(
        msg in message_strategy(),
        pos in any::<u32>(),
        bit in 0..8u32,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.kind(), 3, &msg.encode()).expect("frame writes");
        let pos = (pos as usize) % wire.len();
        wire[pos] ^= 1 << bit;
        let one_shot = read_frame(&mut wire.as_slice());
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut incremental = Ok(());
        for b in &wire {
            incremental = dec.feed(std::slice::from_ref(b), &mut out);
            if incremental.is_err() {
                break;
            }
        }
        match (one_shot, incremental) {
            (Ok((kind, id, payload)), Ok(())) => {
                prop_assert_eq!(out.len(), 1);
                prop_assert_eq!(out[0].kind, kind);
                prop_assert_eq!(out[0].request_id, id);
                prop_assert_eq!(&out[0].payload, &payload);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (Err(bargain_common::Error::Io(_)), Ok(())) => {
                prop_assert!(dec.mid_frame());
                prop_assert!(out.is_empty());
            }
            (a, b) => prop_assert!(false, "one-shot {a:?} vs incremental {b:?}"),
        }
    }
}
