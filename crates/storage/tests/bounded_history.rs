//! Version history stays bounded with no collection pass: a host that
//! calls `Engine::gc` after every transaction, as a replica does after
//! every message, keeps each key to its newest version at or below the
//! horizon plus what was installed above it. That holds through 200 000
//! updates of 1 000 keys with the TPC-W shopping-cart pattern (a row
//! inserted, then deleted), and through bulk writesets of hundreds of rows
//! each, with up to four open snapshots holding the horizon back. CI runs
//! it in release.

use bargain_common::{Row, TableId, Value, Version};
use bargain_storage::{Column, ColumnType, Engine, TableSchema, TxnHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const KEYS: i64 = 1_000;
/// Steps between two new snapshots; at most `READERS` stay open, so the
/// horizon lags the newest version by up to `READERS * EVERY` steps.
const EVERY: u64 = 16;
const READERS: usize = 4;
/// Steps a cart line lives before its delete.
const CART_LIFE: u64 = 5;

fn table(e: &mut Engine, name: &str) -> TableId {
    let schema = TableSchema::new(
        name,
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        0,
    )
    .unwrap();
    e.create_table(schema).unwrap()
}

fn row(id: i64, v: i64) -> Row {
    vec![Value::Int(id), Value::Int(v)].into()
}

/// An engine with an indexed `item` table of `KEYS` loaded rows and an
/// empty `cart_line` table.
fn engine() -> (Engine, [TableId; 2]) {
    let mut e = Engine::new();
    let item = table(&mut e, "item");
    let cart = table(&mut e, "cart_line");
    e.create_index(item, "v").unwrap();
    e.load_rows(item, (0..KEYS).map(|k| row(k, 0)).collect())
        .unwrap();
    (e, [item, cart])
}

/// Stored versions and keys with any history, across `tables`.
fn counts(e: &Engine, tables: [TableId; 2]) -> (usize, usize) {
    tables.iter().fold((0, 0), |(v, k), &t| {
        let t = e.table(t).unwrap();
        (v + t.version_count(), k + t.key_count())
    })
}

/// The rotating readers that hold the horizon back, and what was installed
/// above it.
#[derive(Default)]
struct Horizon {
    readers: VecDeque<TxnHandle>,
    /// Installs of each commit, oldest first, as long as it is above the
    /// horizon, and their sum.
    above: VecDeque<(Version, usize)>,
    installs_above: usize,
}

impl Horizon {
    /// Opens a reader every `EVERY` steps, closing the oldest beyond
    /// `READERS`.
    fn rotate(&mut self, e: &mut Engine, step: u64) {
        if step.is_multiple_of(EVERY) {
            self.readers.push_back(e.begin());
            if self.readers.len() > READERS {
                e.abort(self.readers.pop_front().unwrap()).unwrap();
            }
        }
    }

    /// Accounts for a commit of `writes` installs at `version`, collects,
    /// and checks that every stored version beyond one per key was
    /// installed above the horizon. Returns the versions collected.
    fn committed(
        &mut self,
        e: &mut Engine,
        tables: [TableId; 2],
        version: Version,
        writes: usize,
        step: u64,
    ) -> usize {
        self.above.push_back((version, writes));
        self.installs_above += writes;
        let removed = e.gc();
        let horizon = e.min_active_snapshot().unwrap_or(e.version());
        while self.above.front().is_some_and(|&(v, _)| v <= horizon) {
            self.installs_above -= self.above.pop_front().unwrap().1;
        }
        let (versions, keys) = counts(e, tables);
        assert!(
            versions <= keys + self.installs_above,
            "step {step}: {versions} versions, {keys} keys, {} installs above {horizon}",
            self.installs_above
        );
        removed
    }

    /// Closes every reader; one collection then leaves each key one live
    /// version and nothing listed.
    fn close(&mut self, e: &mut Engine, tables: [TableId; 2]) -> usize {
        for reader in self.readers.drain(..) {
            e.abort(reader).unwrap();
        }
        let removed = e.gc();
        for t in tables {
            assert_eq!(e.table(t).unwrap().next_due(), None, "a backlog is left");
        }
        removed
    }
}

#[test]
fn history_stays_bounded_without_a_pass() {
    // A debug build runs a tenth of the steps.
    const UPDATES: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    let mut rng = SmallRng::seed_from_u64(42);
    let (mut e, tables) = engine();
    let [item, cart] = tables;
    let mut horizon = Horizon::default();
    let mut lines: VecDeque<(u64, i64)> = VecDeque::new();
    let mut removed = 0;
    for step in 0..UPDATES {
        horizon.rotate(&mut e, step);
        let txn = e.begin();
        let key = rng.gen_range(0..KEYS);
        e.update(txn, item, &Value::Int(key), row(key, rng.gen_range(0..8)))
            .unwrap();
        let mut writes = 1;
        if step.is_multiple_of(2) {
            let line = KEYS + step as i64;
            e.insert(txn, cart, row(line, 1)).unwrap();
            lines.push_back((step, line));
            writes += 1;
        }
        if lines.front().is_some_and(|&(at, _)| at + CART_LIFE <= step) {
            let (_, line) = lines.pop_front().unwrap();
            e.delete(txn, cart, &Value::Int(line)).unwrap();
            writes += 1;
        }
        let version = e.commit_standalone(txn).unwrap();
        removed += horizon.committed(&mut e, tables, version, writes, step);
    }

    // The last cart lines go and the readers close: what they held back
    // is reclaimed at once.
    let txn = e.begin();
    for (_, line) in lines.drain(..) {
        e.delete(txn, cart, &Value::Int(line)).unwrap();
    }
    e.commit_standalone(txn).unwrap();
    removed += horizon.close(&mut e, tables);
    let live = tables.map(|t| e.table(t).unwrap().live_count(e.version()));
    assert_eq!(live, [KEYS as usize, 0]);
    assert_eq!(
        counts(&e, tables),
        (KEYS as usize, KEYS as usize),
        "one live version per key"
    );
    assert!(removed as u64 >= UPDATES, "{removed} versions removed");
}

/// Each commit updates `BULK` rows, as a bulk `UPDATE` does: a collection
/// after each has to reclaim as many versions as the commit installs, or
/// the history grows with every step.
#[test]
fn bulk_writesets_stay_bounded() {
    const BULK: i64 = 256;
    const COMMITS: u64 = if cfg!(debug_assertions) { 100 } else { 1_000 };
    let mut rng = SmallRng::seed_from_u64(43);
    let (mut e, tables) = engine();
    let [item, _] = tables;
    let mut horizon = Horizon::default();
    let mut removed = 0;
    for step in 0..COMMITS {
        horizon.rotate(&mut e, step);
        let txn = e.begin();
        let first = rng.gen_range(0..KEYS - BULK);
        for key in first..first + BULK {
            e.update(txn, item, &Value::Int(key), row(key, rng.gen_range(0..8)))
                .unwrap();
        }
        let version = e.commit_standalone(txn).unwrap();
        removed += horizon.committed(&mut e, tables, version, BULK as usize, step);
    }
    removed += horizon.close(&mut e, tables);
    assert_eq!(counts(&e, tables), (KEYS as usize, KEYS as usize));
    assert_eq!(
        removed as u64,
        COMMITS * BULK as u64,
        "every superseded version"
    );
}
