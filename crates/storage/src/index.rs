//! Secondary indexes.
//!
//! A secondary index covers one column of a table, or two: a *group*
//! column `a` and an *order* column `b`. It maps `(a, b, primary key)`
//! entries (`(a, primary key)` over one column) to speed up equality and
//! range lookups on non-key columns, and over two columns to answer
//! `WHERE a = const ORDER BY b LIMIT n` without a sort: one group's
//! entries are in `(b, primary key)` order, the order a stable sort by `b`
//! over key order gives, so a walk of the group, forwards or backwards,
//! hands out rows in `ORDER BY b` or `ORDER BY b DESC` order and can stop
//! after `n` of them.
//!
//! Because the engine is multiversion, the index is maintained
//! *inclusively*: an entry is added for every value pair any installed
//! version ever had, and lookups re-validate candidates against the
//! reader's snapshot (fetch the row's visible version, then re-check the
//! covered values). Stale entries are removed when garbage collection
//! drops the versions that justified them.
//!
//! This is the classic "index points to the key, visibility decided by the
//! version chain" design used by multiversion engines; it keeps index
//! maintenance cheap on the write path (pure insertion) at the cost of a
//! re-check on the read path.

use crate::chain::{RowVersion, VersionChain};
use bargain_common::Value;
use std::collections::BTreeSet;
use std::ops::Bound;

/// The middle part of an entry: the order column's value in a two-column
/// index, `Low` in a one-column one. `High` sorts after every value and
/// only bounds a search, as `Low` does one group's start.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Order {
    Low,
    At(Value),
    High,
}

/// `(group value, order value, primary key)`.
type Entry = (Value, Order, Value);

/// A secondary index over one column of a table, or over a group column
/// and an order column.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryIndex {
    /// Positions of the covered columns within the table's schema: one,
    /// or the group column then the order column.
    columns: Vec<usize>,
    /// One entry for each value pair some version of a key carries,
    /// deduplicated.
    entries: BTreeSet<Entry>,
}

impl SecondaryIndex {
    /// An index over `columns` (one, or a group column then an order
    /// column) of `chains`, one entry for each value pair a version of a
    /// key carries. The set's `FromIterator` sorts the entries once,
    /// drops repeats and builds the tree in bulk, with no search per entry.
    pub(crate) fn build<'a>(
        columns: &[usize],
        chains: impl Iterator<Item = (&'a Value, &'a VersionChain)>,
    ) -> Self {
        assert!(
            (1..=2).contains(&columns.len()),
            "an index covers one or two columns"
        );
        let mut index = SecondaryIndex {
            columns: columns.to_vec(),
            entries: BTreeSet::new(),
        };
        index.entries = chains
            .flat_map(|(pk, chain)| chain.versions().map(move |v| (pk, v)))
            .filter_map(|(pk, v)| Some(index.entry(v.data.as_ref()?, pk)))
            .collect();
        index
    }

    /// The covered columns: one, or the group column then the order column.
    #[must_use]
    pub(crate) fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// The entry a version of row `pk` carrying `row` justifies.
    fn entry(&self, row: &[Value], pk: &Value) -> Entry {
        let order = match self.columns.get(1) {
            Some(&column) => Order::At(row[column].clone()),
            None => Order::Low,
        };
        (row[self.columns[0]].clone(), order, pk.clone())
    }

    /// Whether `a` and `b` carry the same values in the covered columns.
    fn same_entry(&self, a: &[Value], b: &[Value]) -> bool {
        self.columns.iter().all(|&column| a[column] == b[column])
    }

    /// Records that some version of row `pk` carries `row`.
    pub(crate) fn insert(&mut self, row: &[Value], pk: &Value) {
        self.entries.insert(self.entry(row, pk));
    }

    /// Takes out the entries of row `pk` that the `dropped` versions
    /// justified and no version left in `chain` does (GC path).
    pub(crate) fn forget(&mut self, pk: &Value, dropped: &[RowVersion], chain: &VersionChain) {
        for row in dropped.iter().filter_map(|v| v.data.as_ref()) {
            let mut kept = chain.versions().filter_map(|v| v.data.as_ref());
            if !kept.any(|kept| self.same_entry(kept, row)) {
                self.entries.remove(&self.entry(row, pk));
            }
        }
    }

    /// Primary keys of candidate rows whose group column value lies in
    /// `[lo, hi]` (either bound optional), ascending and without
    /// duplicates, borrowed from the index. Candidates must be re-validated
    /// against the reader's snapshot.
    pub fn candidates<'a, 'b>(
        &'a self,
        lo: Option<&'b Value>,
        hi: Option<&'b Value>,
    ) -> impl Iterator<Item = &'a Value> + use<'a, 'b> {
        let lower = match lo {
            Some(v) => Bound::Included((v.clone(), Order::Low, Value::Null)),
            None => Bound::Unbounded,
        };
        let mut in_range = Some(
            self.entries
                .range((lower, Bound::Unbounded))
                .take_while(move |(value, _, _)| hi.is_none_or(|hi| value <= hi))
                .map(|(_, _, pk)| pk),
        );
        // One value's entries in a one-column index are in key order and
        // distinct already, so an equality is walked lazily and a reader
        // that stops early pays for what it took. A true range interleaves
        // the keys of several values, a group of a two-column index orders
        // them by its order column and may hold a key more than once.
        let mut sorted = Vec::new();
        if lo.is_none() || lo != hi || self.columns.len() > 1 {
            sorted.extend(in_range.take().into_iter().flatten());
            sorted.sort_unstable();
            sorted.dedup();
        }
        in_range.into_iter().flatten().chain(sorted)
    }

    /// The `(order value, primary key)` entries of `group` in a two-column
    /// index, ascending; `.rev()` walks them descending. A key may appear
    /// under several order values, one for each its versions carried:
    /// candidates must be re-validated against the reader's snapshot.
    pub(crate) fn group<'a>(
        &'a self,
        group: &Value,
    ) -> impl DoubleEndedIterator<Item = (&'a Value, &'a Value)> + use<'a> {
        let bound = |order| (group.clone(), order, Value::Null);
        let range = (
            Bound::Included(bound(Order::Low)),
            Bound::Excluded(bound(Order::High)),
        );
        self.entries
            .range(range)
            .filter_map(|(_, order, pk)| match order {
                Order::At(value) => Some((value, pk)),
                Order::Low | Order::High => None,
            })
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

        /// Records that row `pk` carries `value` in column 1.
        fn add(&mut self, value: Value, pk: Value) {
            self.insert(&[pk.clone(), value], &pk);
        }
    }

    fn idx_with(pairs: &[(i64, i64)]) -> SecondaryIndex {
        let mut idx = SecondaryIndex::build(&[1], std::iter::empty());
        for (v, pk) in pairs {
            idx.add(Value::Int(*v), Value::Int(*pk));
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
        idx.add(Value::Int(5), Value::Int(1)); // same version value again
        assert_eq!(idx.len(), 1);
        idx.add(Value::Int(6), Value::Int(1)); // row changed value: both kept
        assert_eq!(idx.len(), 2);
        let got = idx.pks(Some(&Value::Int(5)), Some(&Value::Int(6)));
        assert_eq!(got, vec![Value::Int(1)]); // deduped candidate list
    }

    #[test]
    fn forget_drops_entry() {
        let mut idx = idx_with(&[(5, 1), (5, 2)]);
        let dropped = RowVersion {
            begin: bargain_common::Version(1),
            data: Some(vec![Value::Int(1), Value::Int(5)].into()),
        };
        idx.forget(&Value::Int(1), &[dropped], &VersionChain::default());
        assert_eq!(
            idx.pks(Some(&Value::Int(5)), Some(&Value::Int(5))),
            vec![Value::Int(2)]
        );
        assert!(!idx.is_empty());
    }

    #[test]
    fn mixed_type_values_order_consistently() {
        let mut idx = idx_with(&[]);
        idx.add(Value::Text("b".into()), Value::Int(1));
        idx.add(Value::Text("a".into()), Value::Int(2));
        let got = idx.pks(
            Some(&Value::Text("a".into())),
            Some(&Value::Text("a".into())),
        );
        assert_eq!(got, vec![Value::Int(2)]);
    }

    /// A group of a two-column index is walked in `(order value, key)`
    /// order either way, every entry of the group and none beside it; as
    /// a one-column index it gives the group's keys ascending, once each.
    #[test]
    fn a_group_walks_in_order_value_then_key_order() {
        let mut idx = SecondaryIndex::build(&[1, 2], std::iter::empty());
        for (pk, group, order) in [(1, 5, 30), (2, 5, 10), (3, 5, 30), (4, 6, 0), (5, 4, 99)] {
            idx.insert(
                &[Value::Int(pk), Value::Int(group), Value::Int(order)],
                &Value::Int(pk),
            );
        }
        // Row 3 once carried order value 20 too.
        idx.insert(
            &[Value::Int(3), Value::Int(5), Value::Int(20)],
            &Value::Int(3),
        );
        let walk = |desc: bool| -> Vec<(i64, i64)> {
            let five = Value::Int(5);
            let entries: Vec<_> = if desc {
                idx.group(&five).rev().collect()
            } else {
                idx.group(&five).collect()
            };
            entries
                .into_iter()
                .map(|(o, pk)| (o.as_int().unwrap(), pk.as_int().unwrap()))
                .collect()
        };
        assert_eq!(walk(false), [(10, 2), (20, 3), (30, 1), (30, 3)]);
        assert_eq!(walk(true), [(30, 3), (30, 1), (20, 3), (10, 2)]);
        assert_eq!(idx.group(&Value::Int(7)).count(), 0);
        let five = Some(&Value::Int(5));
        assert_eq!(idx.pks(five, five), [1, 2, 3].map(Value::Int));
    }
}
