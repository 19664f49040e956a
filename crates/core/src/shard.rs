//! A certifier shard, and the static assignment of tables to shards.
//!
//! The [`Certifier`](crate::Certifier) partitions its conflict-check state
//! by table: every table belongs to exactly one [`Shard`], which keeps the
//! row-version index over the rows of its tables, the retained commits that
//! touched them, a commit log, and the group-commit buffer in front of that
//! log. A shard decides nothing: it answers "who last wrote these rows of
//! mine above this snapshot?" ([`Shard::prepare`]) and installs what the
//! sequencer committed ([`Shard::apply`]). Everything that must be decided
//! in one total order — commit versions, the history floor, the dedup
//! windows, membership — lives at the sequencer.

use crate::wal::{CommitLog, LogRecord};
use bargain_common::{Result, TableId, Value, Version, WriteSet};
use std::collections::{HashMap, VecDeque};

/// The static table → shard assignment. Involved-shard lists are always
/// returned in ascending partition id, the one order in which the
/// cross-shard handshake visits shards.
#[derive(Debug, Clone, Copy)]
pub struct PartitionMap {
    n_shards: usize,
}

impl PartitionMap {
    /// A map distributing tables over `n_shards` partitions (round-robin by
    /// table id).
    #[must_use]
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one certifier shard");
        PartitionMap { n_shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning `table`.
    #[must_use]
    pub fn shard_of_table(&self, table: TableId) -> usize {
        table.index() % self.n_shards
    }

    /// The shards a writeset involves, ascending, deduplicated. An empty
    /// writeset is anchored at shard 0 so its (vacuous) commit still has a
    /// durable home and the merged log stays dense.
    #[must_use]
    pub fn shards_of(&self, writeset: &WriteSet) -> Vec<usize> {
        if writeset.is_empty() {
            return vec![0];
        }
        let mut shards: Vec<usize> = writeset
            .entries()
            .iter()
            .map(|e| self.shard_of_table(e.table))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// Counters of how certification spread over the shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardingStats {
    /// Commit/abort decisions that involved exactly one shard.
    pub single_partition: u64,
    /// Decisions that ran the cross-shard handshake.
    pub cross_partition: u64,
    /// Durable records appended per shard (a cross-partition commit counts
    /// at every involved shard).
    pub per_shard_records: Vec<u64>,
}

/// One certifier shard. Retained entries are full [`LogRecord`]s with
/// explicit commit versions: a shard's view of the global sequence is
/// sparse.
pub(crate) struct Shard {
    me: usize,
    partition: PartitionMap,
    row_index: HashMap<TableId, HashMap<Value, Version>>,
    pub(crate) history: VecDeque<LogRecord>,
    pub(crate) log: Box<dyn CommitLog>,
    /// Commits buffered since the last group-commit flush.
    unflushed: Vec<LogRecord>,
}

impl Shard {
    pub(crate) fn new(me: usize, partition: PartitionMap, log: Box<dyn CommitLog>) -> Self {
        Shard {
            me,
            partition,
            row_index: HashMap::new(),
            history: VecDeque::new(),
            log,
            unflushed: Vec::new(),
        }
    }

    fn owns(&self, table: TableId) -> bool {
        self.partition.shard_of_table(table) == self.me
    }

    /// Certify-prepare: the newest retained commit above `snapshot` that
    /// wrote one of the writeset rows *this shard owns*.
    pub(crate) fn prepare(&self, snapshot: Version, writeset: &WriteSet) -> Option<Version> {
        writeset
            .entries()
            .iter()
            .filter(|e| self.owns(e.table))
            .filter_map(|e| self.row_index.get(&e.table)?.get(&e.key).copied())
            .filter(|&last_writer| last_writer > snapshot)
            .max()
    }

    /// The linear-scan answer to the same question as [`Shard::prepare`],
    /// over whole writesets instead of owned rows: the newest retained
    /// commit above `floor` that conflicts with `writeset`.
    pub(crate) fn scan(&self, floor: Version, writeset: &WriteSet) -> Option<Version> {
        self.history
            .iter()
            .rev()
            .take_while(|rec| rec.commit_version > floor)
            .find(|rec| rec.writeset.conflicts_with(writeset))
            .map(|rec| rec.commit_version)
    }

    /// Commit-apply: index the owned rows, retain the record, and buffer it
    /// for the next log flush (recovery installs what the log already
    /// holds, and skips the buffer).
    pub(crate) fn apply(&mut self, record: &LogRecord, buffer: bool) {
        for row in record.writeset.entries() {
            if self.owns(row.table) {
                self.row_index
                    .entry(row.table)
                    .or_default()
                    .insert(row.key.clone(), record.commit_version);
            }
        }
        self.history.push_back(record.clone());
        if buffer {
            self.unflushed.push(record.clone());
        }
    }

    /// Drops retained entries at or below `floor`, keeping the row index
    /// exact: a row is evicted only while the pruned entry is still its
    /// last writer (a newer retained entry that rewrote the row keeps its
    /// newer version in the index).
    pub(crate) fn prune_below(&mut self, floor: Version) {
        let mut pruned_any = false;
        while self
            .history
            .front()
            .is_some_and(|e| e.commit_version <= floor)
        {
            let entry = self.history.pop_front().expect("front checked");
            for row in entry.writeset.entries() {
                if let Some(rows) = self.row_index.get_mut(&row.table) {
                    if rows.get(&row.key) == Some(&entry.commit_version) {
                        rows.remove(&row.key);
                    }
                }
            }
            pruned_any = true;
        }
        if pruned_any {
            self.row_index.retain(|_, rows| !rows.is_empty());
        }
    }

    /// Forgets everything but the log (recovery reinstalls from it).
    pub(crate) fn reset(&mut self) {
        self.row_index.clear();
        self.history.clear();
        self.unflushed.clear();
    }

    /// Whether commits wait in the group-commit buffer.
    pub(crate) fn dirty(&self) -> bool {
        !self.unflushed.is_empty()
    }

    /// Group commit: appends the buffered records with one durability
    /// point.
    pub(crate) fn flush(&mut self) -> Result<()> {
        let records = std::mem::take(&mut self.unflushed);
        self.log.append_batch(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::WriteOp;

    fn ws(rows: &[(u32, i64)]) -> WriteSet {
        let mut w = WriteSet::new();
        for &(table, key) in rows {
            w.push(
                TableId(table),
                Value::Int(key),
                WriteOp::Update(vec![Value::Int(key), Value::Int(0)]),
            );
        }
        w
    }

    #[test]
    fn partition_map_is_sorted_and_deduplicated() {
        let p = PartitionMap::new(4);
        // Entry order reversed and interleaved: the involved list is still
        // ascending — the handshake's one order, regardless of how the
        // transaction named its tables.
        let shards = p.shards_of(&ws(&[(7, 1), (5, 1), (6, 2), (2, 1)]));
        assert_eq!(shards, vec![1, 2, 3]);
        let single = p.shards_of(&ws(&[(5, 1), (1, 2), (9, 3)]));
        assert_eq!(single, vec![1], "all tables ≡ 1 (mod 4): one shard");
        assert_eq!(p.shards_of(&WriteSet::new()), vec![0]);
    }
}
