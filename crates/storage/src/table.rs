//! A versioned table: primary-key ordered map of version chains.

use crate::chain::VersionChain;
use crate::index::SecondaryIndex;
use crate::schema::TableSchema;
use bargain_common::{Error, Result, Row, Value, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::mem;
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

    /// A table holding `chains`, whose keys must be ascending and
    /// distinct, with a secondary index over each column list of
    /// `indexes`. The map,
    /// the set of keys a collection is due to visit and every index are
    /// built in one pass each from sorted input, with no search per key.
    #[must_use]
    pub(crate) fn from_chains(
        schema: TableSchema,
        chains: Vec<(Value, VersionChain)>,
        indexes: &[Vec<usize>],
    ) -> Self {
        debug_assert!(chains.windows(2).all(|w| w[0].0 < w[1].0));
        let due = chains
            .iter()
            .filter(|(_, chain)| is_due(chain))
            .map(|(key, _)| key.clone())
            .collect();
        let mut table = Table {
            schema,
            rows: chains.into_iter().collect(),
            indexes: Vec::new(),
            due,
        };
        for columns in indexes {
            table.create_index_on(columns);
        }
        table
    }

    /// Loads `rows` as live rows committed at version 0, all or none: a
    /// row that does not fit the schema, a key twice in the batch or a key
    /// the table holds already refuses the batch and leaves the table as
    /// it was. The rows are checked and sorted by key, and the table is
    /// rebuilt in one pass ([`Table::from_chains`]) from its own chains
    /// and the batch's.
    pub(crate) fn load(&mut self, rows: Vec<Row>) -> Result<()> {
        for row in &rows {
            self.schema.check_row(row)?;
        }
        let mut keyed: Vec<(Value, Row)> = rows
            .into_iter()
            .map(|row| (self.schema.key_of(&row), row))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(pair) = keyed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(refused(&self.schema.name, &pair[0].0, "twice in one load"));
        }
        if let Some((key, _)) = keyed.iter().find(|(key, _)| self.rows.contains_key(key)) {
            return Err(refused(&self.schema.name, key, "already in the table"));
        }
        let mut chains: Vec<(Value, VersionChain)> =
            mem::take(&mut self.rows).into_iter().collect();
        chains.extend(keyed.into_iter().map(|(key, row)| (key, loaded(row))));
        chains.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let indexes = self.index_columns();
        *self = Table::from_chains(self.schema.clone(), chains, &indexes);
        Ok(())
    }

    /// Creates a secondary index over the column at `column`, built from
    /// every stored version. Idempotent per column.
    pub fn create_index(&mut self, column: usize) {
        self.create_index_on(&[column]);
    }

    /// Creates a secondary index over `columns` -- one, or a group column
    /// then an order column -- built from every stored version. Idempotent
    /// per column list.
    pub(crate) fn create_index_on(&mut self, columns: &[usize]) {
        if !self.indexes.iter().any(|i| i.columns() == columns) {
            let index = SecondaryIndex::build(columns, self.rows.iter());
            self.indexes.push(index);
        }
    }

    /// Whether a secondary index leads with `column`.
    #[must_use]
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.iter().any(|i| i.columns()[0] == column)
    }

    /// Candidate primary keys whose `column` value lies in `[lo, hi]`,
    /// ascending, from the first index leading with `column`, or `None` if
    /// there is none. Candidates must be re-validated at the reader's
    /// snapshot (the index spans all versions).
    #[must_use]
    pub fn index_candidates<'a, 'b>(
        &'a self,
        column: usize,
        lo: Option<&'b Value>,
        hi: Option<&'b Value>,
    ) -> Option<impl Iterator<Item = &'a Value> + use<'a, 'b>> {
        self.indexes
            .iter()
            .find(|i| i.columns()[0] == column)
            .map(|i| i.candidates(lo, hi))
    }

    /// The rows live at `snapshot` whose `group` column holds `value`, in
    /// order of their `order` column then key (`.rev()` for descending),
    /// from the index over `[group, order]`; `None` if there is none. An
    /// entry yields its row only if the visible version still carries
    /// that group value and that order value, so each row comes once.
    #[must_use]
    pub(crate) fn ordered_group<'a, 'b>(
        &'a self,
        [group, order]: [usize; 2],
        value: &'b Value,
        snapshot: Version,
    ) -> Option<impl DoubleEndedIterator<Item = (&'a Value, &'a Row)> + use<'a, 'b>> {
        let index = self
            .indexes
            .iter()
            .find(|i| i.columns() == [group, order])?;
        Some(index.group(value).filter_map(move |(at, pk)| {
            let row = self.get(pk, snapshot)?;
            (row[group] == *value && row[order] == *at).then_some((pk, row))
        }))
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
                idx.insert(row, &key);
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

    /// The leading column of each secondary index, in creation order.
    #[must_use]
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(|i| i.columns()[0]).collect()
    }

    /// The columns of each secondary index, in creation order.
    #[must_use]
    pub fn index_columns(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|i| i.columns().to_vec()).collect()
    }

    /// The secondary indexes, in creation order.
    #[must_use]
    pub(crate) fn indexes(&self) -> &[SecondaryIndex] {
        &self.indexes
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
                idx.forget(key, &dropped, chain);
            }
            if chain.is_empty() {
                rows.remove(key);
                return false;
            }
            is_due(chain)
        });
        removed
    }
}

/// Whether a collection can do anything for `chain`: it holds more than
/// one version or ends in a tombstone.
fn is_due(chain: &VersionChain) -> bool {
    chain.len() > 1 || !chain.live_at_head()
}

/// The error refusing a load of `key` into `table`.
fn refused(table: &str, key: &Value, why: &str) -> Error {
    Error::DuplicateKey(format!("{table}: load of key {key} {why}"))
}

/// The chain of a row loaded outside a transaction: one live version at 0.
fn loaded(row: Row) -> VersionChain {
    VersionChain::with_initial(Version::ZERO, Some(row))
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
