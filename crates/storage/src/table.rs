//! A versioned table: primary-key ordered map of version chains.

use crate::chain::{RowVersion, VersionChain};
use crate::index::SecondaryIndex;
use crate::schema::TableSchema;
use bargain_common::{Row, Value, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// One table's data: every row keyed by primary key, each key holding its
/// full version chain, plus any secondary indexes. The `BTreeMap` gives
/// deterministic, ordered scans.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<Value, VersionChain>,
    indexes: Vec<SecondaryIndex>,
    /// The keys a collection can do anything for: those whose chain holds
    /// more than one version or ends in a tombstone. A chain of one live
    /// version -- every key of a freshly loaded table -- is never in it.
    due: BTreeSet<Value>,
}

impl Table {
    /// An empty table with the given schema.
    #[must_use]
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: BTreeMap::new(),
            indexes: Vec::new(),
            due: BTreeSet::new(),
        }
    }

    /// Creates a secondary index over the column at `column`, back-filling
    /// it from every stored version. Idempotent per column.
    pub fn create_index(&mut self, column: usize) {
        if self.indexes.iter().any(|i| i.column == column) {
            return;
        }
        let mut idx = SecondaryIndex::new(column);
        for (pk, chain) in &self.rows {
            for value in chain.versions().filter_map(|v| v.value(column)) {
                idx.insert(value.clone(), pk.clone());
            }
        }
        self.indexes.push(idx);
    }

    /// Whether a secondary index covers `column`.
    #[must_use]
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.iter().any(|i| i.column == column)
    }

    /// Candidate primary keys whose indexed `column` value lies in
    /// `[lo, hi]`, ascending, or `None` if the column is not indexed.
    /// Candidates must be re-validated at the reader's snapshot (the index
    /// spans all versions).
    #[must_use]
    pub fn index_candidates<'a, 'b>(
        &'a self,
        column: usize,
        lo: Option<&'b Value>,
        hi: Option<&'b Value>,
    ) -> Option<impl Iterator<Item = &'a Value> + use<'a, 'b>> {
        self.indexes
            .iter()
            .find(|i| i.column == column)
            .map(|i| i.candidates(lo, hi))
    }

    /// The table's schema.
    #[must_use]
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Point read at a snapshot.
    #[must_use]
    pub fn get(&self, key: &Value, snapshot: Version) -> Option<&Row> {
        self.rows.get(key).and_then(|c| c.read_at(snapshot))
    }

    /// The newest committed version of a row key, regardless of snapshot.
    /// Used by first-committer-wins validation.
    #[must_use]
    pub fn latest_commit_of(&self, key: &Value) -> Option<Version> {
        self.rows.get(key).and_then(|c| c.latest_commit())
    }

    /// Whether the key's newest version is a live row.
    #[must_use]
    pub fn live_at_head(&self, key: &Value) -> bool {
        self.rows
            .get(key)
            .map(|c| c.live_at_head())
            .unwrap_or(false)
    }

    /// Installs a version (live row or tombstone) committed at `version`.
    pub fn install(&mut self, key: Value, data: Option<Row>, version: Version) {
        if let Some(row) = &data {
            for idx in &mut self.indexes {
                idx.insert(row[idx.column].clone(), key.clone());
            }
        }
        match self.rows.get_mut(&key) {
            Some(chain) => {
                chain.install(version, data);
                self.due.insert(key);
            }
            None => {
                if data.is_none() {
                    self.due.insert(key.clone());
                }
                self.rows
                    .insert(key, VersionChain::with_initial(version, data));
            }
        }
    }

    /// Ordered scan of all rows live at `snapshot`.
    pub fn scan_at(&self, snapshot: Version) -> impl Iterator<Item = (&Value, &Row)> {
        self.rows
            .iter()
            .filter_map(move |(k, c)| c.read_at(snapshot).map(|r| (k, r)))
    }

    /// Ordered range scan (`lo..=hi` on the primary key) of rows live at
    /// `snapshot`.
    pub fn range_at<'a>(
        &'a self,
        lo: &Value,
        hi: &Value,
        snapshot: Version,
    ) -> impl Iterator<Item = (&'a Value, &'a Row)> {
        self.rows
            .range::<Value, _>((Bound::Included(lo), Bound::Included(hi)))
            .filter_map(move |(k, c)| c.read_at(snapshot).map(|r| (k, r)))
    }

    /// Iterates over every key's version chain in key order. Snapshot
    /// export walks this to ship the table's full (pruned) history.
    pub fn chains(&self) -> impl Iterator<Item = (&Value, &VersionChain)> {
        self.rows.iter()
    }

    /// The column positions carrying a secondary index, in creation order.
    #[must_use]
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(|i| i.column).collect()
    }

    /// Number of distinct keys with any version history (live or dead).
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of rows live at `snapshot`.
    #[must_use]
    pub fn live_count(&self, snapshot: Version) -> usize {
        self.scan_at(snapshot).count()
    }

    /// Total stored versions across all chains (memory proxy).
    #[must_use]
    pub fn version_count(&self) -> usize {
        self.rows.values().map(|c| c.len()).sum()
    }

    /// Prunes version history unobservable at or after `horizon`, drops
    /// fully dead keys, and takes out the index entries whose last
    /// justifying version went. Visits only the keys that can have
    /// something to drop. Returns versions removed.
    pub fn gc(&mut self, horizon: Version) -> usize {
        let (rows, indexes) = (&mut self.rows, &mut self.indexes);
        let mut removed = 0;
        self.due.retain(|key| {
            let chain = rows.get_mut(key).expect("a due key has a chain");
            let dropped = chain.gc_take(horizon);
            removed += dropped.len();
            for idx in indexes.iter_mut() {
                let column = idx.column;
                for value in dropped.iter().filter_map(|v| v.value(column)) {
                    let held = |v: &RowVersion| v.value(column) == Some(value);
                    if !chain.versions().any(held) {
                        idx.remove(value, key);
                    }
                }
            }
            if chain.is_empty() {
                rows.remove(key);
                return false;
            }
            chain.len() > 1 || !chain.live_at_head()
        });
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            0,
        )
        .unwrap()
    }

    fn row(id: i64, v: i64) -> Row {
        vec![Value::Int(id), Value::Int(v)]
    }

    #[test]
    fn install_and_get() {
        let mut t = Table::new(schema());
        t.install(Value::Int(1), Some(row(1, 10)), Version(1));
        assert_eq!(t.get(&Value::Int(1), Version(1)), Some(&row(1, 10)));
        assert_eq!(t.get(&Value::Int(1), Version(0)), None);
        assert_eq!(t.get(&Value::Int(2), Version(9)), None);
    }

    #[test]
    fn scan_is_key_ordered_and_snapshotted() {
        let mut t = Table::new(schema());
        t.install(Value::Int(3), Some(row(3, 30)), Version(1));
        t.install(Value::Int(1), Some(row(1, 10)), Version(1));
        t.install(Value::Int(2), Some(row(2, 20)), Version(2));
        let at1: Vec<i64> = t
            .scan_at(Version(1))
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        assert_eq!(at1, vec![1, 3]);
        let at2: Vec<i64> = t
            .scan_at(Version(2))
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        assert_eq!(at2, vec![1, 2, 3]);
    }

    #[test]
    fn range_scan() {
        let mut t = Table::new(schema());
        for i in 1..=5 {
            t.install(Value::Int(i), Some(row(i, i * 10)), Version(1));
        }
        let keys: Vec<i64> = t
            .range_at(&Value::Int(2), &Value::Int(4), Version(1))
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![2, 3, 4]);
    }

    #[test]
    fn counts_and_gc() {
        let mut t = Table::new(schema());
        t.install(Value::Int(1), Some(row(1, 10)), Version(1));
        t.install(Value::Int(1), Some(row(1, 11)), Version(2));
        t.install(Value::Int(2), Some(row(2, 20)), Version(1));
        t.install(Value::Int(2), None, Version(3)); // delete
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.version_count(), 4);
        assert_eq!(t.live_count(Version(1)), 2);
        assert_eq!(t.live_count(Version(3)), 1);

        let removed = t.gc(Version(3));
        // key 1: version at v1 pruned; key 2: both versions dead.
        assert_eq!(removed, 3);
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.get(&Value::Int(1), Version(3)), Some(&row(1, 11)));
    }

    #[test]
    fn gc_visits_only_keys_with_something_to_drop() {
        let mut t = Table::new(schema());
        t.create_index(1);
        for i in 1..=3 {
            t.install(Value::Int(i), Some(row(i, 7)), Version::ZERO);
        }
        assert!(t.due.is_empty(), "a fresh load leaves nothing to collect");
        t.install(Value::Int(1), Some(row(1, 8)), Version(1));
        t.install(Value::Int(2), None, Version(2));
        t.install(Value::Int(9), None, Version(2)); // a tombstone with no past
        assert_eq!(t.due.len(), 3);

        // Horizon 1: key 1's old version goes, with its index entry; key 2
        // still shows its row to snapshot 1, key 9's tombstone is too new.
        assert_eq!(t.gc(Version(1)), 1);
        assert_eq!(t.due.len(), 2);
        let under_7 = |t: &Table| -> Vec<Value> {
            let seven = Value::Int(7);
            let pks = t.index_candidates(1, Some(&seven), Some(&seven)).unwrap();
            pks.cloned().collect()
        };
        assert_eq!(under_7(&t), vec![Value::Int(2), Value::Int(3)]);

        assert_eq!(t.gc(Version(2)), 3);
        assert!(t.due.is_empty());
        assert_eq!(under_7(&t), vec![Value::Int(3)]);
        assert_eq!((t.key_count(), t.version_count()), (2, 2));
    }

    #[test]
    fn latest_commit_and_liveness() {
        let mut t = Table::new(schema());
        t.install(Value::Int(1), Some(row(1, 10)), Version(4));
        assert_eq!(t.latest_commit_of(&Value::Int(1)), Some(Version(4)));
        assert!(t.live_at_head(&Value::Int(1)));
        t.install(Value::Int(1), None, Version(6));
        assert_eq!(t.latest_commit_of(&Value::Int(1)), Some(Version(6)));
        assert!(!t.live_at_head(&Value::Int(1)));
        assert_eq!(t.latest_commit_of(&Value::Int(9)), None);
    }
}
