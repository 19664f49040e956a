//! Golden vectors for wire protocol v2: one pinned frame per message shape.
//!
//! The bytes below were printed by the build that last changed the format
//! on purpose. Encoding a message must give exactly these bytes, and these
//! bytes must decode to exactly that message — a refactor of the codec
//! that moves one byte fails here. The certifier's log image is pinned the
//! same way in `bargain_core::wal`'s tests, the snapshot format in
//! `bargain_storage::snapshot`'s.

use bargain_common::{
    ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, SessionId, TableId, TemplateId, TxnId,
    Value, Version, WriteOp, WriteSet,
};
use bargain_core::{CertifyDecision, CertifyRequest, LogRecord, Refresh, TxnOutcome};
use bargain_net::frame::{encode_frame, read_frame};
use bargain_net::Message;
use bargain_sql::QueryResult;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// `msg`, framed under `request_id`, is `pinned` — and `pinned` is `msg`.
fn check(name: &str, msg: &Message, request_id: u64, pinned: &str) {
    let frame = encode_frame(msg.kind(), request_id, &msg.encode()).expect("fits a frame");
    assert_eq!(hex(&frame), pinned, "{name}: the encoding moved");
    let bytes = unhex(pinned);
    let (kind, id, payload) = read_frame(&mut bytes.as_slice()).expect("pinned frame reads");
    assert_eq!((kind, id), (msg.kind(), request_id), "{name}: header");
    let back = Message::decode(kind, &payload).expect("pinned payload decodes");
    assert_eq!(&back, msg, "{name}: the decoding moved");
}

/// Insert, update and delete of rows holding every value type.
fn writeset() -> WriteSet {
    let mut ws = WriteSet::new();
    ws.push(
        TableId(1),
        Value::Int(7),
        WriteOp::Insert(vec![
            Value::Int(7),
            Value::Text("héllo".into()),
            Value::Null,
            Value::Float(-2.5),
        ]),
    );
    ws.push(
        TableId(2),
        Value::Text("k".into()),
        WriteOp::Update(vec![Value::Text("k".into()), Value::Int(-1)]),
    );
    ws.push(TableId(3), Value::Int(9), WriteOp::Delete);
    ws
}

fn outcome(committed: bool) -> TxnOutcome {
    TxnOutcome {
        txn: TxnId(0x0102_0304_0506_0708),
        client: ClientId(11),
        session: SessionId(12),
        replica: ReplicaId(2),
        committed,
        commit_version: committed.then_some(Version(41)),
        observed_version: Version(41),
        tables_written: if committed {
            vec![TableId(0), TableId(3)]
        } else {
            Vec::new()
        },
        abort_reason: (!committed).then(|| "certification conflict: txn 9".to_string()),
    }
}

#[test]
fn session_frames_are_pinned() {
    check("Hello", &Message::Hello, 1, HELLO);
    check(
        "HelloAck",
        &Message::HelloAck {
            replicas: 3,
            mode: ConsistencyMode::LazyFine,
        },
        1,
        HELLO_ACK,
    );
    check(
        "SessionOpened",
        &Message::SessionOpened { client: 42 },
        2,
        SESSION_OPENED,
    );
    check(
        "Ddl",
        &Message::Ddl {
            sql: "CREATE TABLE t (id INT PRIMARY KEY)".into(),
        },
        3,
        DDL,
    );
    check(
        "Err",
        &Message::Err(Error::Unavailable("draining".into())),
        4,
        ERR,
    );
    check(
        "Prepare",
        &Message::Prepare {
            name: "micro.update".into(),
            sqls: vec![
                "UPDATE t SET v = ? WHERE id = ?".into(),
                "SELECT v FROM t".into(),
            ],
        },
        5,
        PREPARE,
    );
    check(
        "Prepared",
        &Message::Prepared {
            template: TemplateId(17),
        },
        5,
        PREPARED,
    );
    check(
        "Run",
        &Message::Run {
            template: TemplateId(17),
            params: vec![
                vec![
                    Value::Null,
                    Value::Int(-5),
                    Value::Float(1.5),
                    Value::Text("naïve".into()),
                ],
                vec![],
            ],
            idem: Some(IdemKey {
                client: 0xDEAD_BEEF,
                seq: 42,
            }),
        },
        0xAABB_CCDD_0011_2233,
        RUN,
    );
    check(
        "Run without a key",
        &Message::Run {
            template: TemplateId(1),
            params: vec![vec![Value::Int(1)]],
            idem: None,
        },
        6,
        RUN_NO_IDEM,
    );
    check(
        "TxnReply, commit",
        &Message::TxnReply {
            outcome: outcome(true),
            results: vec![
                QueryResult::Rows(vec![
                    vec![Value::Int(1), Value::Float(2.5)],
                    vec![Value::Null, Value::Text("x".into())],
                ]),
                QueryResult::Affected(3),
            ],
        },
        7,
        TXN_REPLY_COMMIT,
    );
    check(
        "TxnReply, abort",
        &Message::TxnReply {
            outcome: outcome(false),
            results: Vec::new(),
        },
        8,
        TXN_REPLY_ABORT,
    );
    check(
        "StatsReply",
        &Message::StatsReply {
            routed: 10,
            commits: 8,
            aborts: 2,
            v_system: Version(8),
            certifier_up: true,
            certifier_downs: 1,
        },
        9,
        STATS_REPLY,
    );
}

#[test]
fn certifier_frames_are_pinned() {
    check(
        "Certify",
        &Message::Certify(CertifyRequest {
            txn: TxnId(3),
            replica: ReplicaId(1),
            snapshot: Version(4),
            writeset: writeset(),
            idem: Some(IdemKey { client: 7, seq: 9 }),
        }),
        0,
        CERTIFY,
    );
    check(
        "Applied",
        &Message::Applied {
            replica: ReplicaId(2),
            version: Version(6),
        },
        0,
        APPLIED,
    );
    check(
        "Decision, commit",
        &Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Commit {
                txn: TxnId(3),
                commit_version: Version(5),
            },
        },
        0,
        DECISION_COMMIT,
    );
    check(
        "Decision, abort",
        &Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Abort {
                txn: TxnId(3),
                conflicting_version: Version(5),
            },
        },
        0,
        DECISION_ABORT,
    );
    check(
        "Decision, duplicate",
        &Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Duplicate {
                txn: TxnId(4),
                original: TxnId(3),
                commit_version: Version(6),
            },
        },
        0,
        DECISION_DUPLICATE,
    );
    check(
        "RefreshFor",
        &Message::RefreshFor {
            to: ReplicaId(2),
            refresh: Refresh {
                origin: ReplicaId(1),
                txn: TxnId(3),
                commit_version: Version(7),
                writeset: Arc::new(writeset()),
            },
        },
        0,
        REFRESH_FOR,
    );
    check(
        "GlobalCommitFor",
        &Message::GlobalCommitFor {
            origin: ReplicaId(0),
            txn: TxnId(11),
        },
        0,
        GLOBAL_COMMIT_FOR,
    );
    check(
        "FetchHistory",
        &Message::FetchHistory { after: Version(12) },
        10,
        FETCH_HISTORY,
    );
    check(
        "History",
        &Message::History {
            records: vec![
                LogRecord {
                    commit_version: Version(1),
                    txn: TxnId(10),
                    origin: ReplicaId(0),
                    idem: None,
                    writeset: Arc::new(writeset()),
                },
                LogRecord {
                    commit_version: Version(2),
                    txn: TxnId(20),
                    origin: ReplicaId(1),
                    idem: Some(IdemKey {
                        client: 0xC0FFEE,
                        seq: 3,
                    }),
                    writeset: Arc::new(WriteSet::new()),
                },
            ],
        },
        10,
        HISTORY,
    );
}

#[test]
fn elasticity_frames_are_pinned() {
    check(
        "JoinRequest",
        &Message::JoinRequest {
            chunk_bytes: 256 * 1024,
        },
        11,
        JOIN_REQUEST,
    );
    check(
        "SnapshotChunk",
        &Message::SnapshotChunk {
            index: 7,
            data: vec![0xAB, 0x00, 0xFF, 0x10],
        },
        11,
        SNAPSHOT_CHUNK,
    );
    check(
        "SnapshotDone",
        &Message::SnapshotDone {
            manifest: b"BSNP-manifest".to_vec(),
        },
        11,
        SNAPSHOT_DONE,
    );
    check(
        "CatchUp",
        &Message::CatchUp { after: Version(99) },
        12,
        CATCH_UP,
    );
}

/// The fourth decision tag, added after the vectors above were pinned: a
/// request the certifier refused, answered to its origin alone.
#[test]
fn refused_decision_is_pinned() {
    check(
        "Decision, refused",
        &Message::Decision {
            origin: ReplicaId(1),
            decision: CertifyDecision::Refused {
                txn: TxnId(4),
                reason: "stale key".into(),
            },
        },
        0,
        DECISION_REFUSED,
    );
}

const HELLO: &str = "4247414e020100000000000000000100000000000000";
const HELLO_ACK: &str = "4247414e020205000000e1ec8c6f01000000000000000300000002";
const SESSION_OPENED: &str = "4247414e020408000000f7a1940d02000000000000002a00000000000000";
const DDL: &str = "\
    4247414e0205270000004e2ec47d030000000000000023000000435245415445205441424c45207420286964\
    20494e54205052494d415259204b455929";
const ERR: &str = "4247414e02070d000000848183e204000000000000000f08000000647261696e696e67";
const PREPARE: &str = "\
    4247414e02084a0000009e71f93305000000000000000c0000006d6963726f2e757064617465020000001f00\
    00005550444154452074205345542076203d203f205748455245206964203d203f0f00000053454c45435420\
    762046524f4d2074";
const PREPARED: &str = "4247414e020904000000e6efe1c9050000000000000011000000";
const RUN: &str = "\
    4247414e020a3f000000ef6bbe7d33221100ddccbbaa1100000002000000040000000001fbffffffffffffff\
    02000000000000f83f03060000006e61c3af76650000000001efbeadde000000002a00000000000000";
const RUN_NO_IDEM: &str =
    "4247414e020a16000000cafde535060000000000000001000000010000000100000001010000000000000000";
const TXN_REPLY_COMMIT: &str = "\
    4247414e020b6e00000085bd6044070000000000000008070605040302010b000000000000000c0000000000\
    0000020000000101290000000000000029000000000000000200000000000000030000000002000000000200\
    0000020000000101000000000000000200000000000004400200000000030100000078010300000000000000";
const TXN_REPLY_ABORT: &str = "\
    4247414e020b50000000843fd319080000000000000008070605040302010b000000000000000c0000000000\
    0000020000000000290000000000000000000000011d00000063657274696669636174696f6e20636f6e666c\
    6963743a2074786e203900000000";
const STATS_REPLY: &str = "\
    4247414e020d2900000062c7e98909000000000000000a000000000000000800000000000000020000000000\
    00000800000000000000010100000000000000";
const CERTIFY: &str = "\
    4247414e021485000000fa8eca9d000000000000000003000000000000000100000004000000000000000107\
    0000000000000009000000000000000300000001000000010700000000000000000400000001070000000000\
    0000030600000068c3a96c6c6f000200000000000004c00200000003010000006b010200000003010000006b\
    01ffffffffffffffff0300000001090000000000000002";
const APPLIED: &str = "4247414e02150c000000775181510000000000000000020000000600000000000000";
const DECISION_COMMIT: &str =
    "4247414e02161500000083fcf6bf0000000000000000010000000003000000000000000500000000000000";
const DECISION_ABORT: &str =
    "4247414e021615000000c03750380000000000000000010000000103000000000000000500000000000000";
const DECISION_DUPLICATE: &str = "\
    4247414e02161d0000007519947e000000000000000001000000020400000000000000030000000000000006\
    00000000000000";
const REFRESH_FOR: &str = "\
    4247414e021778000000db830ae8000000000000000002000000010000000300000000000000070000000000\
    000003000000010000000107000000000000000004000000010700000000000000030600000068c3a96c6c6f\
    000200000000000004c00200000003010000006b010200000003010000006b01ffffffffffffffff03000000\
    01090000000000000002";
const GLOBAL_COMMIT_FOR: &str =
    "4247414e02180c00000039dabf260000000000000000000000000b00000000000000";
const FETCH_HISTORY: &str = "4247414e02190800000026ca8d320a000000000000000c00000000000000";
const HISTORY: &str = "\
    4247414e021aa2000000a88bc17c0a000000000000000200000001000000000000000a000000000000000000\
    00000003000000010000000107000000000000000004000000010700000000000000030600000068c3a96c6c\
    6f000200000000000004c00200000003010000006b010200000003010000006b01ffffffffffffffff030000\
    0001090000000000000002020000000000000014000000000000000100000001eeffc0000000000003000000\
    0000000000000000";
const JOIN_REQUEST: &str = "4247414e021e04000000181a28450b0000000000000000000400";
const SNAPSHOT_CHUNK: &str = "4247414e021f0c0000000852fe9f0b000000000000000700000004000000ab00ff10";
const SNAPSHOT_DONE: &str =
    "4247414e022011000000cf9829c00b000000000000000d00000042534e502d6d616e6966657374";
const CATCH_UP: &str = "4247414e0221080000003178463b0c000000000000006300000000000000";
const DECISION_REFUSED: &str =
    "4247414e02161a000000047617d3000000000000000001000000030400000000000000090000007374616c65206b6579";
