//! Secondary indexes.
//!
//! A secondary index maps `(column value, primary key)` pairs to speed up
//! equality and range lookups on non-key columns. Because the engine is
//! multiversion, the index is maintained *inclusively*: an entry is added
//! for every column value any installed version ever had, and lookups
//! re-validate candidates against the reader's snapshot (fetch the row's
//! visible version, then re-check the column value). Stale entries are
//! removed when garbage collection drops the versions that justified them.
//!
//! This is the classic "index points to the key, visibility decided by the
//! version chain" design used by multiversion engines; it keeps index
//! maintenance cheap on the write path (pure insertion) at the cost of a
//! re-check on the read path.

use crate::chain::VersionChain;
use bargain_common::Value;
use std::collections::BTreeSet;
use std::ops::Bound;

/// A secondary index over one column of a table.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    /// Index of the covered column within the table's schema.
    pub column: usize,
    /// `(column value, primary key)` pairs, deduplicated.
    entries: BTreeSet<(Value, Value)>,
}

impl SecondaryIndex {
    /// An empty index over `column`.
    #[must_use]
    pub fn new(column: usize) -> Self {
        SecondaryIndex {
            column,
            entries: BTreeSet::new(),
        }
    }

    /// An index over `column` of `chains`, one entry for each value a
    /// version of a key carries: the pairs are sorted once and the set is
    /// built from them in bulk, with no search per entry.
    pub(crate) fn build<'a>(
        column: usize,
        chains: impl Iterator<Item = (&'a Value, &'a VersionChain)>,
    ) -> Self {
        let mut entries: Vec<(Value, Value)> = chains
            .flat_map(|(pk, chain)| {
                let values = chain.versions().filter_map(move |v| v.value(column));
                values.map(move |value| (value.clone(), pk.clone()))
            })
            .collect();
        entries.sort_unstable();
        entries.dedup();
        SecondaryIndex {
            column,
            entries: entries.into_iter().collect(),
        }
    }

    /// Records that some version of row `pk` carries `value` in the covered
    /// column.
    pub fn insert(&mut self, value: Value, pk: Value) {
        self.entries.insert((value, pk));
    }

    /// Removes the entry for `(value, pk)` (GC path: the last version
    /// carrying this value is gone).
    pub fn remove(&mut self, value: &Value, pk: &Value) {
        self.entries.remove(&(value.clone(), pk.clone()));
    }

    /// Primary keys of candidate rows whose indexed value lies in
    /// `[lo, hi]` (either bound optional), ascending and without
    /// duplicates, borrowed from the index. Candidates must be re-validated
    /// against the reader's snapshot.
    pub fn candidates<'a, 'b>(
        &'a self,
        lo: Option<&'b Value>,
        hi: Option<&'b Value>,
    ) -> impl Iterator<Item = &'a Value> + use<'a, 'b> {
        let lower = match lo {
            Some(v) => Bound::Included((v.clone(), Value::Null)),
            None => Bound::Unbounded,
        };
        // `Value::Text` is the maximum-ranked type, so no key sits above
        // every `(hi, pk)`: scan while the column value is at most `hi`.
        let mut in_range = Some(
            self.entries
                .range((lower, Bound::Unbounded))
                .take_while(move |(value, _)| hi.is_none_or(|hi| value <= hi))
                .map(|(_, pk)| pk),
        );
        // One value's entries are in key order and distinct already, so an
        // equality is walked lazily and a reader that stops early pays for
        // what it took. A true range interleaves the keys of several values.
        let mut sorted = Vec::new();
        if lo.is_none() || lo != hi {
            sorted.extend(in_range.take().into_iter().flatten());
            sorted.sort_unstable();
            sorted.dedup();
        }
        in_range.into_iter().flatten().chain(sorted)
    }

    /// Number of entries (including stale ones awaiting GC).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SecondaryIndex {
        fn pks(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<Value> {
            self.candidates(lo, hi).cloned().collect()
        }
    }

    fn idx_with(pairs: &[(i64, i64)]) -> SecondaryIndex {
        let mut idx = SecondaryIndex::new(1);
        for (v, pk) in pairs {
            idx.insert(Value::Int(*v), Value::Int(*pk));
        }
        idx
    }

    #[test]
    fn equality_candidates() {
        let idx = idx_with(&[(5, 1), (5, 2), (7, 3), (3, 4)]);
        let got = idx.pks(Some(&Value::Int(5)), Some(&Value::Int(5)));
        assert_eq!(got, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn range_candidates() {
        let idx = idx_with(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        let got = idx.pks(Some(&Value::Int(2)), Some(&Value::Int(3)));
        assert_eq!(got, vec![Value::Int(20), Value::Int(30)]);
        let open_lo = idx.pks(None, Some(&Value::Int(2)));
        assert_eq!(open_lo, vec![Value::Int(10), Value::Int(20)]);
        let open_hi = idx.pks(Some(&Value::Int(3)), None);
        assert_eq!(open_hi, vec![Value::Int(30), Value::Int(40)]);
    }

    #[test]
    fn duplicate_values_across_versions_dedup_by_pk() {
        let mut idx = idx_with(&[(5, 1)]);
        idx.insert(Value::Int(5), Value::Int(1)); // same version value again
        assert_eq!(idx.len(), 1);
        idx.insert(Value::Int(6), Value::Int(1)); // row changed value: both kept
        assert_eq!(idx.len(), 2);
        let got = idx.pks(Some(&Value::Int(5)), Some(&Value::Int(6)));
        assert_eq!(got, vec![Value::Int(1)]); // deduped candidate list
    }

    #[test]
    fn remove_drops_entry() {
        let mut idx = idx_with(&[(5, 1), (5, 2)]);
        idx.remove(&Value::Int(5), &Value::Int(1));
        assert_eq!(
            idx.pks(Some(&Value::Int(5)), Some(&Value::Int(5))),
            vec![Value::Int(2)]
        );
        assert!(!idx.is_empty());
    }

    #[test]
    fn mixed_type_values_order_consistently() {
        let mut idx = SecondaryIndex::new(0);
        idx.insert(Value::Text("b".into()), Value::Int(1));
        idx.insert(Value::Text("a".into()), Value::Int(2));
        let got = idx.pks(
            Some(&Value::Text("a".into())),
            Some(&Value::Text("a".into())),
        );
        assert_eq!(got, vec![Value::Int(2)]);
    }
}
