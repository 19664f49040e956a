//! What a large writeset costs on the way in, whoever wrote its bytes: a
//! decode sorts its entries once, so a frame, a log record or a history
//! page of n entries costs O(n log n), never a scan of the entries so far
//! for each entry. Both tests take 200 000 entries written in descending
//! key order; the bound is for a release build (CI runs them so), and a
//! debug build only has to stay far from quadratic.

use bargain_common::codec::{Codec, Reader};
use bargain_common::{
    IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet, WriteSetEntry,
};
use bargain_core::{CommitLog, FileLog};
use std::time::{Duration, Instant};

const ENTRIES: i64 = 200_000;

const BOUND: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(20)
} else {
    Duration::from_secs(1)
};

/// A writeset's bytes with its entries in descending key order: the
/// encoding of the entry list, which is the writeset's encoding.
fn descending_writeset() -> Vec<u8> {
    let entries: Vec<WriteSetEntry> = (0..ENTRIES)
        .rev()
        .map(|k| WriteSetEntry {
            table: TableId(0),
            key: Value::Int(k),
            op: WriteOp::Update(vec![Value::Int(k), Value::Int(1)].into()),
        })
        .collect();
    let mut bytes = Vec::new();
    entries.put(&mut bytes);
    bytes
}

fn assert_sorted(ws: &WriteSet) {
    assert_eq!(ws.len(), ENTRIES as usize);
    let keys = ws.entries().iter().map(|e| e.key.as_int().unwrap());
    assert!(keys.eq(0..ENTRIES), "entries out of key order");
}

#[test]
fn a_writeset_written_in_descending_key_order_decodes_in_n_log_n() {
    let bytes = descending_writeset();
    let start = Instant::now();
    let ws: WriteSet = Reader::new(&bytes).get().unwrap();
    let took = start.elapsed();
    assert!(took < BOUND, "decoding {ENTRIES} entries took {took:?}");
    assert_sorted(&ws);
}

#[test]
fn a_log_holding_that_writeset_reopens_in_n_log_n() {
    let dir = std::env::temp_dir().join(format!("bargain-writeset-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("certifier.wal");
    // One log record: u64 commit_version | u64 txn | u32 origin | idem |
    // writeset.
    let mut record = Vec::new();
    Version(1).put(&mut record);
    TxnId(1).put(&mut record);
    ReplicaId(0).put(&mut record);
    None::<IdemKey>.put(&mut record);
    record.extend_from_slice(&descending_writeset());
    std::fs::write(&path, &record).unwrap();

    let start = Instant::now();
    let mut log = FileLog::open(&path).unwrap();
    let took = start.elapsed();
    assert!(
        took < BOUND,
        "reopening a {ENTRIES}-entry log took {took:?}"
    );
    assert_eq!(log.len(), 1);
    let records = log.replay().unwrap();
    assert_eq!(records[0].commit_version, Version(1));
    assert_sorted(&records[0].writeset);
    let _ = std::fs::remove_dir_all(&dir);
}
