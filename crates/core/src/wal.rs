//! The certifier's write-ahead log.
//!
//! Following the Tashkent design the paper adopts, durability is enforced
//! *at the certifier*, not at the replicas: replicas run with log-forcing
//! off, and the certifier persists every commit decision before announcing
//! it. After a crash the certifier replays its log to rebuild the commit
//! history and version counter, and replicas re-sync from the certified
//! writesets.
//!
//! Two implementations are provided: [`MemoryLog`] (for simulation and
//! tests) and [`FileLog`] (a real append-only file of back-to-back binary
//! records — no length prefix, no checksum — forced to disk with one fsync
//! per append or group commit).

use bargain_common::codec::{Codec, DecodeError, DecodeResult, Reader};
use bargain_common::{Error, IdemKey, ReplicaId, Result, TxnId, Version, WriteSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// One durable commit decision.
///
/// The writeset is behind an [`Arc`]: the same committed writeset is shared
/// by the log, the certifier's in-memory conflict history, and every
/// [`Refresh`](crate::messages::Refresh) fanned out to the replicas, so a
/// commit costs reference-count bumps rather than deep clones.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Global commit version assigned.
    pub commit_version: Version,
    /// The committed transaction.
    pub txn: TxnId,
    /// Replica the transaction executed on. Needed to rebuild the eager
    /// configuration's global-commit accounting after a certifier crash.
    pub origin: ReplicaId,
    /// The client's idempotency key, if one was attached. Persisted so the
    /// retry-deduplication map survives certifier restarts.
    pub idem: Option<IdemKey>,
    /// Its writeset (shared with the history and the refresh fan-out).
    pub writeset: Arc<WriteSet>,
}

/// A record's bytes, in the log file and inside a `History` frame alike
/// (all integers little-endian; `bargain_common::codec` has the parts):
///
/// ```text
/// record:   u64 commit_version | u64 txn_id | u32 origin
///             | u8 has_idem [| u64 idem_client | u64 idem_seq] | writeset
/// ```
impl Codec for LogRecord {
    fn put(&self, buf: &mut Vec<u8>) {
        self.commit_version.put(buf);
        self.txn.put(buf);
        self.origin.put(buf);
        self.idem.put(buf);
        self.writeset.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(LogRecord {
            commit_version: r.get()?,
            txn: r.get()?,
            origin: r.get()?,
            idem: r.get()?,
            writeset: r.get()?,
        })
    }
}

/// Abstraction over the certifier's durable log.
pub trait CommitLog: Send {
    /// Durably appends a commit decision. Must not return before the record
    /// is durable (to the implementation's chosen durability level).
    fn append(&mut self, record: &LogRecord) -> Result<()>;

    /// Durably appends a group of commit decisions with a single durability
    /// point (group commit): none of the records may be considered durable
    /// until the call returns, and implementations should amortize their
    /// force-to-disk cost across the whole batch. The default forwards to
    /// [`CommitLog::append`] per record.
    fn append_batch(&mut self, records: &[LogRecord]) -> Result<()> {
        for record in records {
            self.append(record)?;
        }
        Ok(())
    }

    /// Reads back every record, in append order (crash recovery).
    fn replay(&mut self) -> Result<Vec<LogRecord>>;

    /// Number of records appended over this log's lifetime.
    fn len(&self) -> usize;

    /// Whether the log holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory log: durable only for the process lifetime. Used by the
/// simulator (durability cost is modelled as virtual time, not real I/O)
/// and by unit tests.
#[derive(Debug, Default)]
pub struct MemoryLog {
    records: Vec<LogRecord>,
}

impl MemoryLog {
    /// An empty in-memory log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommitLog for MemoryLog {
    fn append(&mut self, record: &LogRecord) -> Result<()> {
        self.records.push(record.clone());
        Ok(())
    }

    fn replay(&mut self) -> Result<Vec<LogRecord>> {
        Ok(self.records.clone())
    }

    fn len(&self) -> usize {
        self.records.len()
    }
}

/// A file-backed append-only log: [`LogRecord`]s back to back, nothing
/// between them.
pub struct FileLog {
    file: File,
    path: std::path::PathBuf,
    count: usize,
}

impl FileLog {
    /// Opens (or creates) a log file, counting existing records.
    ///
    /// A torn tail (crash mid-append) is cut off the file here, durably,
    /// before anything is appended: the handle appends at the end of the
    /// file, and a record written behind torn bytes would be unreadable —
    /// lost, or misparsed — at the next open.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let (records, complete) = Self::read_all(path)?;
        if complete < file.metadata()?.len() {
            file.set_len(complete)?;
            file.sync_data()?;
        }
        Ok(FileLog {
            file,
            path: path.to_path_buf(),
            count: records.len(),
        })
    }

    /// Every complete record in the file, and the byte offset where the
    /// last of them ends. The file is read whole: recovery keeps every
    /// record in memory anyway, and the encoded bytes are the smaller copy.
    fn read_all(path: &Path) -> Result<(Vec<LogRecord>, u64)> {
        let bytes = std::fs::read(path)?;
        let mut reader = Reader::new(&bytes);
        let mut records = Vec::new();
        let mut complete = 0;
        while !reader.is_empty() {
            match reader.get() {
                Ok(record) => {
                    records.push(record);
                    complete = reader.position();
                }
                // A torn tail truncates to the last complete record: the
                // decision was never announced, so dropping it is safe.
                Err(DecodeError::Truncated { .. }) => break,
                Err(e) => {
                    let at = reader.position();
                    return Err(Error::Codec(format!("{}, byte {at}: {e}", path.display())));
                }
            }
        }
        Ok((records, complete as u64))
    }
}

impl CommitLog for FileLog {
    fn append(&mut self, record: &LogRecord) -> Result<()> {
        let mut buf = Vec::with_capacity(64);
        record.put(&mut buf);
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.count += 1;
        Ok(())
    }

    /// Group commit: all records are encoded into one buffer, written with
    /// one syscall, and forced with one fsync.
    fn append_batch(&mut self, records: &[LogRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(64 * records.len());
        for record in records {
            record.put(&mut buf);
        }
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.count += records.len();
        Ok(())
    }

    fn replay(&mut self) -> Result<Vec<LogRecord>> {
        Ok(Self::read_all(&self.path)?.0)
    }

    fn len(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{IdemKey, ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};

    fn sample(version: u64) -> LogRecord {
        let mut ws = WriteSet::new();
        ws.push(
            TableId(1),
            Value::Int(version as i64),
            WriteOp::Insert(vec![Value::Int(1), Value::Text("héllo".into()), Value::Null].into()),
        );
        ws.push(TableId(2), Value::Text("k".into()), WriteOp::Delete);
        ws.push(
            TableId(3),
            Value::Int(9),
            WriteOp::Update(vec![Value::Float(2.5)].into()),
        );
        LogRecord {
            commit_version: Version(version),
            txn: TxnId(version * 10),
            origin: ReplicaId(version as u32 % 3),
            // Exercise both the keyed and unkeyed encodings.
            idem: (version % 2 == 1).then_some(IdemKey {
                client: 0xC0FFEE ^ version,
                seq: version,
            }),
            writeset: Arc::new(ws),
        }
    }

    #[test]
    fn memory_log_roundtrip() {
        let mut log = MemoryLog::new();
        assert!(log.is_empty());
        log.append(&sample(1)).unwrap();
        log.append(&sample(2)).unwrap();
        assert_eq!(log.len(), 2);
        let replayed = log.replay().unwrap();
        assert_eq!(replayed, vec![sample(1), sample(2)]);
    }

    #[test]
    fn file_log_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(&sample(1)).unwrap();
            log.append(&sample(2)).unwrap();
            log.append(&sample(3)).unwrap();
            assert_eq!(log.len(), 3);
        }
        // Reopen: recovery counts and replays all records.
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 3);
        let replayed = log.replay().unwrap();
        assert_eq!(replayed, vec![sample(1), sample(2), sample(3)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_log_append_after_reopen() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(&sample(1)).unwrap();
        }
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(&sample(2)).unwrap();
            let replayed = log.replay().unwrap();
            assert_eq!(replayed.len(), 2);
            assert_eq!(replayed[1], sample(2));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_complete_record() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(&sample(1)).unwrap();
            log.append(&sample(2)).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let mut log = FileLog::open(&path).unwrap();
        let replayed = log.replay().unwrap();
        assert_eq!(
            replayed,
            vec![sample(1)],
            "only the complete record survives"
        );
        // The log remains appendable after recovery.
        log.append(&sample(3)).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_writeset_record() {
        let rec = LogRecord {
            commit_version: Version(5),
            txn: TxnId(7),
            origin: ReplicaId(2),
            idem: None,
            writeset: Arc::new(WriteSet::new()),
        };
        let mut log = MemoryLog::new();
        log.append(&rec).unwrap();
        assert_eq!(log.replay().unwrap(), vec![rec]);
    }

    #[test]
    fn file_log_batch_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.wal");
        let _ = std::fs::remove_file(&path);
        let records: Vec<LogRecord> = (1..=5).map(sample).collect();
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append_batch(&records).unwrap();
            assert_eq!(log.len(), 5);
            // A batch append and a single append interleave correctly.
            log.append(&sample(6)).unwrap();
            assert_eq!(log.len(), 6);
        }
        let mut log = FileLog::open(&path).unwrap();
        let replayed = log.replay().unwrap();
        assert_eq!(replayed.len(), 6);
        assert_eq!(&replayed[..5], &records[..]);
        assert_eq!(replayed[5], sample(6));
    }

    #[test]
    fn empty_batch_append_is_a_no_op() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty-batch.wal");
        let _ = std::fs::remove_file(&path);
        let mut log = FileLog::open(&path).unwrap();
        log.append_batch(&[]).unwrap();
        assert_eq!(log.len(), 0);
        assert!(log.replay().unwrap().is_empty());
    }

    #[test]
    fn torn_write_at_every_byte_boundary_recovers_a_prefix() {
        // A crash can tear the tail record at ANY byte. Whatever the cut,
        // recovery must yield an exact prefix of the appended records and
        // never error or hallucinate a record — and what is appended after
        // the recovery must survive the next one: the torn bytes leave the
        // file, or the new records sit unreadable behind them (before the
        // truncation in `open`, no cut inside a record gave back both).
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-sweep.wal");
        let _ = std::fs::remove_file(&path);
        let originals = vec![sample(1), sample(2), sample(3)];
        let encoded = |records: &[LogRecord]| {
            let mut buf = Vec::new();
            records.iter().for_each(|r| r.put(&mut buf));
            buf
        };
        {
            let mut log = FileLog::open(&path).unwrap();
            for r in &originals {
                log.append(r).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, encoded(&originals));
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut log = FileLog::open(&path).unwrap();
            let replayed = log.replay().unwrap();
            assert_eq!(log.len(), replayed.len(), "cut {cut}");
            assert!(
                replayed.len() <= originals.len(),
                "cut {cut}: more records than were written"
            );
            assert_eq!(
                replayed,
                originals[..replayed.len()],
                "cut {cut}: recovered records must be an exact prefix"
            );
            // The full tail is only recovered with the full file.
            assert!(replayed.len() < originals.len() || cut == bytes.len());

            let mut expected = replayed;
            expected.extend([sample(7), sample(8)]);
            log.append(&expected[expected.len() - 2]).unwrap();
            log.append(&expected[expected.len() - 1]).unwrap();
            drop(log);
            let mut log = FileLog::open(&path).unwrap();
            assert_eq!(log.replay().unwrap(), expected, "cut {cut}: after the tear");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                encoded(&expected),
                "cut {cut}: the file is what a log that was never torn holds"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The bytes of a three-record `certifier.wal` — insert, update and
    /// delete entries with every value type, a keyed and an unkeyed record,
    /// an empty writeset — printed by the build that last changed the
    /// format on purpose. Appending the records must write exactly this
    /// file, and this file must replay to exactly these records.
    const GOLDEN_LOG: &str = "\
        01000000000000000a000000000000000000000001eeffc000000000000300000000000000010000\
        00010000000107000000000000000004000000010700000000000000030600000068c3a96c6c6f00\
        0200000000000004c002000000000000001400000000000000010000000002000000020000000301\
        0000006b010200000003010000006b01ffffffffffffffff03000000010900000000000000020300\
        0000000000001e00000000000000020000000000000000";

    #[test]
    fn golden_log_image_is_pinned() {
        let mut inserts = WriteSet::new();
        inserts.push(
            TableId(1),
            Value::Int(7),
            WriteOp::Insert(
                vec![
                    Value::Int(7),
                    Value::Text("héllo".into()),
                    Value::Null,
                    Value::Float(-2.5),
                ]
                .into(),
            ),
        );
        let mut changes = WriteSet::new();
        changes.push(
            TableId(2),
            Value::Text("k".into()),
            WriteOp::Update(vec![Value::Text("k".into()), Value::Int(-1)].into()),
        );
        changes.push(TableId(3), Value::Int(9), WriteOp::Delete);
        let record = |version: u64, idem, writeset| LogRecord {
            commit_version: Version(version),
            txn: TxnId(version * 10),
            origin: ReplicaId(version as u32 - 1),
            idem,
            writeset: Arc::new(writeset),
        };
        let key = IdemKey {
            client: 0xC0FFEE,
            seq: 3,
        };
        let records = vec![
            record(1, Some(key), inserts),
            record(2, None, changes),
            record(3, None, WriteSet::new()),
        ];
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let pinned: Vec<u8> = (0..GOLDEN_LOG.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_LOG[i..i + 2], 16).unwrap())
            .collect();

        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(&records[0]).unwrap();
            log.append_batch(&records[1..]).unwrap();
        }
        assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN_LOG);

        std::fs::write(&path, &pinned).unwrap();
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.replay().unwrap(), records);
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), pinned, "nothing was torn");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_on_empty_file_is_an_empty_log() {
        let dir = std::env::temp_dir().join(format!("bargain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.wal");
        std::fs::write(&path, b"").unwrap();
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 0);
        assert!(log.is_empty());
        assert!(log.replay().unwrap().is_empty());
        // Still appendable.
        log.append(&sample(1)).unwrap();
        assert_eq!(log.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
