//! Transaction writesets.
//!
//! A writeset records the set of rows a transaction inserted, updated, or
//! deleted, keyed by `(table, primary key)`. Writesets serve three purposes
//! in the system:
//!
//! 1. **Certification** — the certifier commits a transaction only if its
//!    writeset does not write-conflict with the writesets of transactions
//!    that committed since the transaction's snapshot was taken.
//! 2. **Propagation** — the certified writeset is forwarded to the other
//!    replicas as a *refresh transaction* and applied there in global commit
//!    order.
//! 3. **Early certification** — a replica's proxy checks partial writesets
//!    of in-flight local transactions against pending refresh writesets to
//!    avoid the hidden deadlock problem.

use crate::ids::{TableId, Version};
use crate::value::{Row, Value};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The operation a writeset entry performs on its row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WriteOp {
    /// Insert a new row (full after-image, including the key column).
    Insert(Row),
    /// Replace an existing row with this after-image.
    Update(Row),
    /// Delete the row.
    Delete,
}

impl WriteOp {
    /// Short tag used in traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WriteOp::Insert(_) => "insert",
            WriteOp::Update(_) => "update",
            WriteOp::Delete => "delete",
        }
    }

    /// The row's after-image; `None` for a delete.
    #[must_use]
    pub fn row(&self) -> Option<&Row> {
        match self {
            WriteOp::Insert(row) | WriteOp::Update(row) => Some(row),
            WriteOp::Delete => None,
        }
    }
}

/// One modified row inside a writeset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteSetEntry {
    /// Table the row belongs to.
    pub table: TableId,
    /// Primary-key value of the modified row.
    pub key: Value,
    /// The modification (after-image or delete).
    pub op: WriteOp,
}

/// The complete set of writes performed by one transaction.
///
/// Entries are kept in execution order; a later write to the same
/// `(table, key)` supersedes an earlier one when the writeset is applied, so
/// [`WriteSet::push`] coalesces them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteSet {
    entries: Vec<WriteSetEntry>,
}

impl WriteSet {
    /// Creates an empty writeset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the transaction wrote nothing (read-only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct rows written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries in execution order.
    #[must_use]
    pub fn entries(&self) -> &[WriteSetEntry] {
        &self.entries
    }

    /// Records a write, coalescing with an earlier write to the same row.
    ///
    /// Coalescing rules preserve the net effect: `insert` then `update`
    /// stays an `insert` (of the new image); `insert` then `delete` removes
    /// the entry entirely; `delete` then `insert` is an `update` (the row
    /// existed before the transaction, so a later `delete` must still
    /// delete it); `update`/`delete` of a pre-existing row keeps the latest
    /// op.
    pub fn push(&mut self, table: TableId, key: Value, op: WriteOp) {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.table == table && e.key == key)
        {
            match (&existing.op, op) {
                // Row born in this txn: keep it an insert with the new image.
                (WriteOp::Insert(_), WriteOp::Update(row)) => {
                    existing.op = WriteOp::Insert(row);
                }
                // Row born and killed in this txn: no externally visible write.
                (WriteOp::Insert(_), WriteOp::Delete) => {
                    let t = existing.table;
                    let k = existing.key.clone();
                    self.entries.retain(|e| !(e.table == t && e.key == k));
                }
                // Row killed and reborn in this txn: it pre-existed, so the
                // net effect is an update, not a birth a delete could cancel.
                (WriteOp::Delete, WriteOp::Insert(row)) => {
                    existing.op = WriteOp::Update(row);
                }
                (_, new_op) => existing.op = new_op,
            }
        } else {
            self.entries.push(WriteSetEntry { table, key, op });
        }
    }

    /// Returns `true` if the two writesets *write-conflict*: they both write
    /// some row `(table, key)`.
    #[must_use]
    pub fn conflicts_with(&self, other: &WriteSet) -> bool {
        if self.entries.is_empty() || other.entries.is_empty() {
            return false;
        }
        // Probe the smaller set against a hash of the larger one.
        let (small, large) = if self.entries.len() <= other.entries.len() {
            (self, other)
        } else {
            (other, self)
        };
        let keys: HashSet<(TableId, &Value)> =
            large.entries.iter().map(|e| (e.table, &e.key)).collect();
        small
            .entries
            .iter()
            .any(|e| keys.contains(&(e.table, &e.key)))
    }

    /// A hashed view of the rows this writeset touches, built once and
    /// probed many times.
    ///
    /// [`WriteSet::conflicts_with`] hashes one side on *every* call, which
    /// is wasteful when the same writeset is checked repeatedly — the
    /// proxy's early-certification path probes each pending refresh
    /// writeset after every update statement. Callers on such paths build
    /// the [`KeySet`] once and use [`WriteSet::conflicts_with_keys`].
    #[must_use]
    pub fn key_set(&self) -> KeySet {
        let mut keys: HashMap<TableId, HashSet<Value>> = HashMap::new();
        for e in &self.entries {
            keys.entry(e.table).or_default().insert(e.key.clone());
        }
        KeySet {
            len: self.entries.len(),
            keys,
        }
    }

    /// Returns `true` if this writeset write-conflicts with the writeset
    /// summarized by `keys` (see [`WriteSet::key_set`]). Equivalent to
    /// [`WriteSet::conflicts_with`] against the originating writeset, but
    /// with no per-call hashing.
    #[must_use]
    pub fn conflicts_with_keys(&self, keys: &KeySet) -> bool {
        if keys.is_empty() {
            return false;
        }
        self.entries.iter().any(|e| keys.contains(e.table, &e.key))
    }

    /// The set of distinct tables this writeset touches, sorted.
    #[must_use]
    pub fn tables(&self) -> Vec<TableId> {
        let mut t: Vec<TableId> = self.entries.iter().map(|e| e.table).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Returns `true` if this writeset writes the given row.
    #[must_use]
    pub fn writes_row(&self, table: TableId, key: &Value) -> bool {
        self.entries
            .iter()
            .any(|e| e.table == table && &e.key == key)
    }

    /// Total number of bytes of row data carried (rough transfer-size proxy
    /// used by the simulator's network model).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        fn value_bytes(v: &Value) -> usize {
            match v {
                Value::Null => 1,
                Value::Int(_) => 8,
                Value::Float(_) => 8,
                Value::Text(s) => s.len(),
            }
        }
        self.entries
            .iter()
            .map(|e| {
                8 + value_bytes(&e.key)
                    + match &e.op {
                        WriteOp::Insert(r) | WriteOp::Update(r) => {
                            r.iter().map(value_bytes).sum::<usize>()
                        }
                        WriteOp::Delete => 0,
                    }
            })
            .sum()
    }
}

/// The hashed row keys of one writeset (see [`WriteSet::key_set`]).
///
/// Owns clones of the key values so it can outlive borrows of the source
/// writeset — the proxy stores one per pending refresh for the lifetime of
/// the refresh's stay in the ordered apply queue.
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    len: usize,
    keys: HashMap<TableId, HashSet<Value>>,
}

impl KeySet {
    /// Whether the originating writeset wrote the given row.
    #[must_use]
    pub fn contains(&self, table: TableId, key: &Value) -> bool {
        self.keys.get(&table).is_some_and(|s| s.contains(key))
    }

    /// Number of distinct rows in the originating writeset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the originating writeset was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A writeset certified to commit at a given global version: the unit the
/// certifier forwards to replicas ("refresh transaction").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertifiedWriteSet {
    /// The global version this commit produces; replicas must apply refresh
    /// transactions in increasing `commit_version` order.
    pub commit_version: Version,
    /// The writes to apply.
    pub writeset: WriteSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32) -> TableId {
        TableId(id)
    }

    #[test]
    fn empty_writeset_is_read_only() {
        let ws = WriteSet::new();
        assert!(ws.is_empty());
        assert_eq!(ws.len(), 0);
        assert!(!ws.conflicts_with(&WriteSet::new()));
    }

    #[test]
    fn push_and_tables() {
        let mut ws = WriteSet::new();
        ws.push(t(1), Value::Int(5), WriteOp::Delete);
        ws.push(t(0), Value::Int(9), WriteOp::Insert(vec![Value::Int(9)]));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.tables(), vec![t(0), t(1)]);
        assert!(ws.writes_row(t(1), &Value::Int(5)));
        assert!(!ws.writes_row(t(1), &Value::Int(6)));
    }

    #[test]
    fn coalesce_update_update() {
        let mut ws = WriteSet::new();
        ws.push(
            t(0),
            Value::Int(1),
            WriteOp::Update(vec![Value::Int(1), Value::Int(10)]),
        );
        ws.push(
            t(0),
            Value::Int(1),
            WriteOp::Update(vec![Value::Int(1), Value::Int(20)]),
        );
        assert_eq!(ws.len(), 1);
        assert_eq!(
            ws.entries()[0].op,
            WriteOp::Update(vec![Value::Int(1), Value::Int(20)])
        );
    }

    #[test]
    fn coalesce_insert_then_update_stays_insert() {
        let mut ws = WriteSet::new();
        ws.push(
            t(0),
            Value::Int(1),
            WriteOp::Insert(vec![Value::Int(1), Value::Int(10)]),
        );
        ws.push(
            t(0),
            Value::Int(1),
            WriteOp::Update(vec![Value::Int(1), Value::Int(20)]),
        );
        assert_eq!(ws.len(), 1);
        assert_eq!(
            ws.entries()[0].op,
            WriteOp::Insert(vec![Value::Int(1), Value::Int(20)])
        );
    }

    #[test]
    fn coalesce_insert_then_delete_vanishes() {
        let mut ws = WriteSet::new();
        ws.push(t(0), Value::Int(1), WriteOp::Insert(vec![Value::Int(1)]));
        ws.push(t(0), Value::Int(1), WriteOp::Delete);
        assert!(ws.is_empty());
    }

    #[test]
    fn coalesce_update_then_delete_keeps_delete() {
        let mut ws = WriteSet::new();
        ws.push(t(0), Value::Int(1), WriteOp::Update(vec![Value::Int(1)]));
        ws.push(t(0), Value::Int(1), WriteOp::Delete);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.entries()[0].op, WriteOp::Delete);
    }

    #[test]
    fn coalesce_delete_insert_delete_keeps_delete() {
        // The row existed before the transaction: deleting it, inserting it
        // again and deleting that must leave a delete, not an empty
        // writeset that lets the committed row show through.
        let mut ws = WriteSet::new();
        ws.push(t(0), Value::Int(1), WriteOp::Delete);
        ws.push(t(0), Value::Int(1), WriteOp::Insert(vec![Value::Int(1)]));
        assert_eq!(ws.entries()[0].op, WriteOp::Update(vec![Value::Int(1)]));
        ws.push(t(0), Value::Int(1), WriteOp::Delete);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.entries()[0].op, WriteOp::Delete);
    }

    #[test]
    fn conflict_same_row() {
        let mut a = WriteSet::new();
        a.push(t(0), Value::Int(1), WriteOp::Delete);
        let mut b = WriteSet::new();
        b.push(t(0), Value::Int(1), WriteOp::Update(vec![Value::Int(1)]));
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn no_conflict_different_row_or_table() {
        let mut a = WriteSet::new();
        a.push(t(0), Value::Int(1), WriteOp::Delete);
        let mut b = WriteSet::new();
        b.push(t(0), Value::Int(2), WriteOp::Delete);
        let mut c = WriteSet::new();
        c.push(t(1), Value::Int(1), WriteOp::Delete);
        assert!(!a.conflicts_with(&b));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn conflict_is_symmetric_with_asymmetric_sizes() {
        let mut big = WriteSet::new();
        for i in 0..100 {
            big.push(t(0), Value::Int(i), WriteOp::Delete);
        }
        let mut small = WriteSet::new();
        small.push(t(0), Value::Int(50), WriteOp::Delete);
        assert!(big.conflicts_with(&small));
        assert!(small.conflicts_with(&big));
    }

    #[test]
    fn payload_bytes_counts_rows() {
        let mut ws = WriteSet::new();
        ws.push(
            t(0),
            Value::Int(1),
            WriteOp::Insert(vec![Value::Int(1), Value::Text("abcd".into())]),
        );
        // 8 (entry) + 8 (key) + 8 (int col) + 4 (text col)
        assert_eq!(ws.payload_bytes(), 28);
    }
}
