//! Differential properties for version collection: a table collected to a
//! rising horizon against a naive reference that keeps every chain in
//! full and prunes it with a walk of its own. Histories mix updates,
//! deletes, re-inserts after a delete, tombstones of keys that never held
//! a row, and rows carried by secondary indexes.

use bargain_common::{Row, Value, Version};
use bargain_storage::{Column, ColumnType, Table, TableSchema};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Keys are drawn from `0..KEYS`, so histories revisit them.
const KEYS: i64 = 16;

/// Indexed values are drawn from `0..VALUES`, so keys share them.
const VALUES: i64 = 4;

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("a", ColumnType::Int),
            Column::new("b", ColumnType::Int),
        ],
        0,
    )
    .unwrap()
}

fn row(rng: &mut SmallRng, key: i64) -> Row {
    let mut value = || Value::Int(rng.gen_range(0..VALUES));
    vec![Value::Int(key), value(), value()].into()
}

/// Every version of every key, newest first, as installed: `None` data is
/// a tombstone.
type Chains = BTreeMap<i64, Vec<(Version, Option<Row>)>>;

/// What a collection at `horizon` leaves of `chain`, by the definition:
/// the versions above the horizon, and the newest at or below it, which
/// every snapshot from the horizon on reads until a newer one; nothing if
/// that is all there is and it is a tombstone.
fn naive_gc(chain: &[(Version, Option<Row>)], horizon: Version) -> Vec<(Version, Option<Row>)> {
    let mut kept: Vec<_> = chain
        .iter()
        .filter(|(v, _)| *v > horizon)
        .cloned()
        .collect();
    if let Some(newest) = chain.iter().find(|(v, _)| *v <= horizon) {
        kept.push(newest.clone());
    }
    match kept.as_slice() {
        [(v, None)] if *v <= horizon => Vec::new(),
        _ => kept,
    }
}

/// The reference collected to `horizon`; returns the versions it dropped.
fn naive_collect(reference: &mut Chains, horizon: Version) -> usize {
    let mut dropped = 0;
    reference.retain(|_, chain| {
        let kept = naive_gc(chain, horizon);
        dropped += chain.len() - kept.len();
        *chain = kept;
        !chain.is_empty()
    });
    dropped
}

/// The `(value, key)` pairs an index over `column` must hold: one for each
/// value a stored live version carries.
fn naive_entries(reference: &Chains, column: usize) -> BTreeSet<(i64, i64)> {
    let mut entries = BTreeSet::new();
    for (&key, chain) in reference {
        for row in chain.iter().filter_map(|(_, data)| data.as_ref()) {
            entries.insert((row[column].as_int().unwrap(), key));
        }
    }
    entries
}

/// The `(value, key)` pairs the table's index over `column` hands out.
fn entries(table: &Table, column: usize) -> BTreeSet<(i64, i64)> {
    let mut entries = BTreeSet::new();
    for value in 0..VALUES {
        let v = Value::Int(value);
        let pks = table.index_candidates(column, Some(&v), Some(&v)).unwrap();
        entries.extend(pks.map(|pk| (value, pk.as_int().unwrap())));
    }
    entries
}

/// Everything the table stores, in the reference's shape.
fn stored(table: &Table) -> Chains {
    table
        .chains()
        .map(|(key, chain)| {
            let versions = chain.versions().map(|v| (v.begin, v.data.clone()));
            (key.as_int().unwrap(), versions.collect())
        })
        .collect()
}

/// The table holds exactly what the reference holds: every chain, the key
/// and version counts, and every index entry.
fn assert_same(table: &Table, reference: &Chains, indexed: &[usize]) {
    assert_eq!(stored(table), *reference, "chains");
    assert_eq!(table.key_count(), reference.len(), "key_count");
    let versions: usize = reference.values().map(Vec::len).sum();
    assert_eq!(table.version_count(), versions, "version_count");
    for &column in indexed {
        assert_eq!(
            entries(table, column),
            naive_entries(reference, column),
            "index on column {column}"
        );
    }
}

/// The table reads as the reference does at every snapshot in `snapshots`,
/// holds the same keys and index entries, and no more versions.
fn assert_reads_same(
    table: &Table,
    reference: &Chains,
    indexed: &[usize],
    snapshots: std::ops::RangeInclusive<u64>,
) {
    for s in snapshots.map(Version) {
        for key in 0..KEYS {
            let expect = reference.get(&key).and_then(|chain| {
                let visible = chain.iter().find(|(v, _)| *v <= s)?;
                visible.1.as_ref()
            });
            assert_eq!(table.get(&Value::Int(key), s), expect, "get {key} at {s}");
        }
    }
    assert_eq!(table.key_count(), reference.len(), "key_count");
    let versions: usize = reference.values().map(Vec::len).sum();
    assert!(table.version_count() <= versions, "version_count");
    for &column in indexed {
        assert_eq!(
            entries(table, column),
            naive_entries(reference, column),
            "index on column {column}"
        );
    }
}

/// One commit at `version`: one to three distinct keys, each written as
/// its state allows. A live key is updated or deleted, a deleted one
/// re-inserted, an absent one inserted or given a tombstone with no past.
fn commit(rng: &mut SmallRng, table: &mut Table, reference: &mut Chains, version: Version) {
    let mut keys: Vec<i64> = (0..KEYS).collect();
    let writes = rng.gen_range(1..=3usize);
    for i in 0..writes {
        let at = rng.gen_range(i..keys.len());
        keys.swap(i, at);
        let key = keys[i];
        let head = reference.get(&key).and_then(|chain| chain.first());
        let data = match head {
            Some((_, Some(_))) if rng.gen_bool(0.4) => None,
            None if rng.gen_bool(0.3) => None,
            _ => Some(row(rng, key)),
        };
        table.install(Value::Int(key), data.clone(), version);
        reference.entry(key).or_default().insert(0, (version, data));
    }
}

/// A table with an index over a random subset of its non-key columns.
fn table_for(rng: &mut SmallRng) -> (Table, Vec<usize>) {
    let mut table = Table::new(schema());
    let indexed: Vec<usize> = (1..=2).filter(|_| rng.gen_bool(0.6)).collect();
    for &column in &indexed {
        table.create_index(column);
    }
    (table, indexed)
}

proptest! {
    /// Rounds of commits, then a rise of the horizon and collections to
    /// it: the table then holds exactly what the reference's own walk
    /// keeps, and each collection removed what the walk dropped.
    #[test]
    fn collection_keeps_what_a_full_walk_keeps(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut table, indexed) = table_for(&mut rng);
        let mut reference = Chains::new();
        let (mut version, mut horizon) = (0u64, Version::ZERO);
        for _ in 0..rng.gen_range(1..12) {
            for _ in 0..rng.gen_range(0..10) {
                version += 1;
                commit(&mut rng, &mut table, &mut reference, Version(version));
            }
            horizon = Version(rng.gen_range(horizon.0..=version));
            let expect = naive_collect(&mut reference, horizon);
            assert_eq!(table.gc(horizon), expect, "versions removed to {horizon}");
            assert_same(&table, &reference, &indexed);
            assert_eq!(table.gc(horizon), 0, "a second collection");
        }
    }

    /// A collection at each rise of the horizon and after every commit
    /// that follows, as a replica runs them: the table reads as the uncollected
    /// reference does at every snapshot from the horizon on, holds the
    /// same keys and index entries, and no more versions than the
    /// reference's walk keeps.
    #[test]
    fn interleaved_collection_reads_as_a_full_walk(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut table, indexed) = table_for(&mut rng);
        let mut reference = Chains::new();
        let (mut version, mut horizon) = (0u64, Version::ZERO);
        for _ in 0..rng.gen_range(1..12) {
            horizon = Version(rng.gen_range(horizon.0..=version));
            table.gc(horizon);
            for _ in 0..rng.gen_range(0..10) {
                version += 1;
                commit(&mut rng, &mut table, &mut reference, Version(version));
                table.gc(horizon);
            }
            naive_collect(&mut reference, horizon);
            assert_reads_same(&table, &reference, &indexed, horizon.0..=version);
        }
    }
}
