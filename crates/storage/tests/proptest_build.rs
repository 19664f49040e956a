//! Differential properties for the ways a table is filled without a
//! transaction: a batch `load_rows` against loading the same rows one at a
//! time, and `import(export(e))` against `e` itself. Both sides are read
//! through every public read path of a table: scans and point reads at
//! every observable snapshot, index candidates over random ranges, and the
//! key and version counts.

use bargain_common::{Row, TableId, Value, Version, WriteOp, WriteSet};
use bargain_storage::{Column, ColumnType, Engine, TableSchema, DEFAULT_CHUNK_BYTES};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Keys are drawn from `0..KEYS`, so histories revisit them.
const KEYS: i64 = 48;

/// `id` (the key), a small int, a nullable text and a float: few distinct
/// values, so index entries share values and ranges cross several.
fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("n", ColumnType::Int),
            Column::nullable("s", ColumnType::Text),
            Column::new("f", ColumnType::Float),
        ],
        0,
    )
    .unwrap()
}

const COLUMNS: [&str; 4] = ["id", "n", "s", "f"];

fn value_of(rng: &mut SmallRng, column: usize) -> Value {
    match column {
        0 => Value::Int(rng.gen_range(0..KEYS)),
        1 => Value::Int(rng.gen_range(-2..4)),
        2 if rng.gen_bool(0.2) => Value::Null,
        2 => Value::Text(["", "a", "ab", "b"][rng.gen_range(0..4usize)].to_owned()),
        _ => Value::Float(f64::from(rng.gen_range(-2..3i32)) / 2.0),
    }
}

fn row(rng: &mut SmallRng, key: i64) -> Row {
    let mut row = vec![Value::Int(key)];
    row.extend((1..COLUMNS.len()).map(|c| value_of(rng, c)));
    row.into()
}

/// A random subset of the columns, each indexed.
fn indexed_columns(rng: &mut SmallRng) -> Vec<usize> {
    (0..COLUMNS.len()).filter(|_| rng.gen_bool(0.5)).collect()
}

fn engine_with(indexed: &[usize]) -> (Engine, TableId) {
    let mut e = Engine::new();
    let t = e.create_table(schema()).unwrap();
    for &c in indexed {
        e.create_index(t, COLUMNS[c]).unwrap();
    }
    (e, t)
}

/// `keys` in a random order.
fn shuffled(rng: &mut SmallRng, mut keys: Vec<i64>) -> Vec<i64> {
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// An optional bound for `column`'s index range.
fn bound(rng: &mut SmallRng, column: usize) -> Option<Value> {
    rng.gen_bool(0.8).then(|| value_of(rng, column))
}

/// Asserts that table `t` reads the same on both engines at every snapshot
/// in `snapshots`, through every read path, `probes` random index ranges
/// per indexed column included.
fn assert_same_table(
    rng: &mut SmallRng,
    a: &Engine,
    b: &Engine,
    t: TableId,
    snapshots: std::ops::RangeInclusive<u64>,
    probes: usize,
) {
    let (ta, tb) = (a.table(t).unwrap(), b.table(t).unwrap());
    assert_eq!(ta.schema(), tb.schema());
    assert_eq!(ta.indexed_columns(), tb.indexed_columns());
    assert_eq!(ta.key_count(), tb.key_count(), "key_count");
    assert_eq!(ta.version_count(), tb.version_count(), "version_count");
    for s in snapshots.map(Version) {
        let scan = |t: &bargain_storage::Table| -> Vec<(Value, Row)> {
            t.scan_at(s).map(|(k, r)| (k.clone(), r.clone())).collect()
        };
        assert_eq!(scan(ta), scan(tb), "scan_at {s}");
        for key in (-1..=KEYS).map(Value::Int) {
            assert_eq!(ta.get(&key, s), tb.get(&key, s), "get {key} at {s}");
        }
    }
    for column in ta.indexed_columns() {
        for _ in 0..probes {
            let (lo, hi) = (bound(rng, column), bound(rng, column));
            let candidates = |t: &bargain_storage::Table| -> Vec<Value> {
                let pks = t.index_candidates(column, lo.as_ref(), hi.as_ref());
                pks.expect("indexed").cloned().collect()
            };
            assert_eq!(
                candidates(ta),
                candidates(tb),
                "index on {} over [{lo:?}, {hi:?}]",
                COLUMNS[column]
            );
        }
    }
}

/// One commit's worth of random writes: inserts of absent keys, updates
/// and deletes of live ones, each key at most once.
fn random_writes(rng: &mut SmallRng, e: &Engine, t: TableId) -> WriteSet {
    let table = e.table(t).unwrap();
    let mut ws = WriteSet::new();
    let mut touched = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let key = rng.gen_range(0..KEYS);
        if touched.contains(&key) {
            continue;
        }
        touched.push(key);
        let op = if table.get(&Value::Int(key), e.version()).is_none() {
            WriteOp::Insert(row(rng, key))
        } else if rng.gen_bool(0.3) {
            WriteOp::Delete
        } else {
            WriteOp::Update(row(rng, key))
        };
        ws.push(t, Value::Int(key), op);
    }
    ws
}

/// Applies `commits` random commits to `e`, opening a reader at a random
/// version now and then and collecting garbage between some of them.
/// Returns the readers still open.
fn random_history(
    rng: &mut SmallRng,
    e: &mut Engine,
    t: TableId,
    commits: u64,
) -> Vec<bargain_storage::TxnHandle> {
    let mut readers = Vec::new();
    for _ in 0..commits {
        let ws = random_writes(rng, e, t);
        let next = Version(e.version().0 + 1);
        e.apply_refresh(&ws, next).unwrap();
        if rng.gen_bool(0.1) {
            let at = rng.gen_range(0..=e.version().0);
            readers.push(e.begin_at(Version(at)));
        }
        if rng.gen_bool(0.1) {
            e.gc();
        }
    }
    readers
}

proptest! {
    /// One `load_rows` of a batch in random key order fills the table
    /// exactly as loading its rows one at a time does, indexes created
    /// before or after the load, into an empty table or one that already
    /// holds rows and history.
    #[test]
    fn a_batch_load_equals_loading_one_row_at_a_time(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let indexed = indexed_columns(&mut rng);
        let index_first = rng.gen_bool(0.5);
        let (mut batch, t) = engine_with(if index_first { &indexed } else { &[] });
        let (mut single, _) = engine_with(if index_first { &indexed } else { &[] });

        // What the table holds before the batch: nothing, or loaded rows
        // and some history over them.
        let mut taken = Vec::new();
        if rng.gen_bool(0.5) {
            let first: Vec<i64> = (0..KEYS).filter(|_| rng.gen_bool(0.3)).collect();
            let rows: Vec<Row> = first.iter().map(|&k| row(&mut rng, k)).collect();
            batch.load_rows(t, rows.clone()).unwrap();
            single.load_rows(t, rows).unwrap();
            for _ in 0..rng.gen_range(0..6u64) {
                let ws = random_writes(&mut rng, &batch, t);
                let next = Version(batch.version().0 + 1);
                batch.apply_refresh(&ws, next).unwrap();
                single.apply_refresh(&ws, next).unwrap();
            }
            let table = batch.table(t).unwrap();
            taken = table.chains().map(|(k, _)| k.clone()).collect();
        }

        let free: Vec<i64> = (0..KEYS)
            .filter(|k| !taken.contains(&Value::Int(*k)) && rng.gen_bool(0.6))
            .collect();
        let rows: Vec<Row> = shuffled(&mut rng, free)
            .into_iter()
            .map(|k| row(&mut rng, k))
            .collect();
        batch.load_rows(t, rows.clone()).unwrap();
        for r in rows {
            single.load_rows(t, vec![r]).unwrap();
        }
        if !index_first {
            for &c in &indexed {
                batch.create_index(t, COLUMNS[c]).unwrap();
                single.create_index(t, COLUMNS[c]).unwrap();
            }
        }
        let version = batch.version().0;
        assert_same_table(&mut rng, &batch, &single, t, 0..=version, 16);
    }

    /// A snapshot import rebuilds the engine it was exported from: every
    /// read at every snapshot an open reader can still take agrees, and so
    /// do the chains, the indexes and what a later commit and collection
    /// make of both.
    #[test]
    fn import_of_export_equals_the_engine(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let indexed = indexed_columns(&mut rng);
        let (mut e, t) = engine_with(&indexed);
        let first: Vec<i64> = (0..KEYS).filter(|_| rng.gen_bool(0.5)).collect();
        let rows: Vec<Row> = shuffled(&mut rng, first)
            .into_iter()
            .map(|k| row(&mut rng, k))
            .collect();
        e.load_rows(t, rows).unwrap();
        let commits = rng.gen_range(0..24u64);
        let readers = random_history(&mut rng, &mut e, t, commits);

        let chunk = if rng.gen_bool(0.5) {
            DEFAULT_CHUNK_BYTES
        } else {
            rng.gen_range(1..64usize)
        };
        let snap = e.export_snapshot(chunk);
        let mut imported = Engine::import_snapshot(&snap.manifest, &snap.chunks).unwrap();
        assert_eq!(imported.version(), e.version());

        // The export ships the chains pruned to the open readers' horizon;
        // a collection here prunes the donor's own to the same.
        e.gc();
        let horizon = snap.manifest.horizon.0;
        let version = e.version().0;
        assert_same_table(&mut rng, &e, &imported, t, horizon..=version, 16);
        let chains = |e: &Engine| -> Vec<(Value, bargain_storage::VersionChain)> {
            let table = e.table(t).unwrap();
            table.chains().map(|(k, c)| (k.clone(), c.clone())).collect()
        };
        assert_eq!(chains(&e), chains(&imported), "every shipped version");

        // Both go on alike: the same commits, then a collection with no
        // reader open, leave the same chains and indexes.
        for reader in readers {
            e.abort(reader).unwrap();
        }
        for _ in 0..rng.gen_range(0..6u64) {
            let ws = random_writes(&mut rng, &e, t);
            let next = Version(e.version().0 + 1);
            e.apply_refresh(&ws, next).unwrap();
            imported.apply_refresh(&ws, next).unwrap();
        }
        assert_eq!(e.gc(), imported.gc(), "versions collected");
        let version = e.version().0;
        assert_same_table(&mut rng, &e, &imported, t, version..=version, 16);
        assert_eq!(chains(&e), chains(&imported), "chains after a collection");
    }
}
