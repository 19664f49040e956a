//! Property-based tests for the core vocabulary types: writeset coalescing
//! semantics, conflict symmetry, table-set algebra, and value ordering.

use bargain_common::codec::{Codec, DecodeError, Reader};
use bargain_common::{TableId, TableSet, Value, WriteOp, WriteSet, WriteSetEntry};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum RawWrite {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn raw_write() -> impl Strategy<Value = RawWrite> {
    prop_oneof![
        (0..10i64, any::<i64>()).prop_map(|(k, v)| RawWrite::Insert(k, v)),
        (0..10i64, any::<i64>()).prop_map(|(k, v)| RawWrite::Update(k, v)),
        (0..10i64).prop_map(RawWrite::Delete),
    ]
}

/// Applies a raw write sequence to a model of "net effect on each key":
/// `Some(row)` = row present with image, `None` = deleted, absent = never
/// touched or insert+delete cancelled.
fn net_effect(ops: &[RawWrite]) -> HashMap<i64, Option<i64>> {
    // Track whether the row was born inside this txn to model the
    // insert+delete cancellation.
    let mut state: HashMap<i64, (bool, Option<i64>)> = HashMap::new();
    for op in ops {
        match op {
            RawWrite::Insert(k, v) => {
                let born = !state.contains_key(k) || state[k].1.is_none();
                let e = state.entry(*k).or_insert((true, None));
                if e.1.is_none() {
                    *e = (born, Some(*v));
                } else {
                    *e = (e.0, Some(*v));
                }
            }
            RawWrite::Update(k, v) => {
                let e = state.entry(*k).or_insert((false, None));
                e.1 = Some(*v);
            }
            RawWrite::Delete(k) => {
                match state.get(k).copied() {
                    Some((true, _)) => {
                        // Born and killed inside the txn: no visible write.
                        state.remove(k);
                    }
                    _ => {
                        state.insert(*k, (false, None));
                    }
                }
            }
        }
    }
    state.into_iter().map(|(k, (_, v))| (k, v)).collect()
}

/// Converts a raw sequence into WriteSet pushes (mirroring how the engine
/// records writes).
fn to_writeset(ops: &[RawWrite]) -> WriteSet {
    let mut ws = WriteSet::new();
    let t = TableId(0);
    for op in ops {
        match op {
            RawWrite::Insert(k, v) => ws.push(
                t,
                Value::Int(*k),
                WriteOp::Insert(vec![Value::Int(*k), Value::Int(*v)].into()),
            ),
            RawWrite::Update(k, v) => ws.push(
                t,
                Value::Int(*k),
                WriteOp::Update(vec![Value::Int(*k), Value::Int(*v)].into()),
            ),
            RawWrite::Delete(k) => ws.push(t, Value::Int(*k), WriteOp::Delete),
        }
    }
    ws
}

/// Filters a raw sequence so it is *engine-legal* w.r.t. a universe where
/// no keys pre-exist: update/delete only of keys currently live inside the
/// transaction, insert only of keys not currently live.
fn legalize(ops: Vec<RawWrite>) -> Vec<RawWrite> {
    let mut live: BTreeSet<i64> = BTreeSet::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            RawWrite::Insert(k, v) => {
                if live.insert(k) {
                    out.push(RawWrite::Insert(k, v));
                }
            }
            RawWrite::Update(k, v) => {
                if live.contains(&k) {
                    out.push(RawWrite::Update(k, v));
                }
            }
            RawWrite::Delete(k) => {
                if live.remove(&k) {
                    out.push(RawWrite::Delete(k));
                }
            }
        }
    }
    out
}

/// The naive writeset: entries in arrival order, each push a linear scan
/// for the row it coalesces with, under the same rules as
/// [`WriteSet::push`].
#[derive(Debug, Default)]
struct NaiveWriteSet {
    entries: Vec<WriteSetEntry>,
}

impl NaiveWriteSet {
    fn push(&mut self, table: TableId, key: Value, op: WriteOp) {
        let Some(i) = self
            .entries
            .iter()
            .position(|e| e.table == table && e.key == key)
        else {
            self.entries.push(WriteSetEntry { table, key, op });
            return;
        };
        let existing = &mut self.entries[i];
        match (&existing.op, op) {
            (WriteOp::Insert(_), WriteOp::Update(row)) => existing.op = WriteOp::Insert(row),
            (WriteOp::Insert(_), WriteOp::Delete) => {
                self.entries.remove(i);
            }
            (WriteOp::Delete, WriteOp::Insert(row)) => existing.op = WriteOp::Update(row),
            (_, new_op) => existing.op = new_op,
        }
    }

    fn writes_row(&self, table: TableId, key: &Value) -> bool {
        self.entries
            .iter()
            .any(|e| e.table == table && &e.key == key)
    }

    fn tables(&self) -> Vec<TableId> {
        let set: BTreeSet<TableId> = self.entries.iter().map(|e| e.table).collect();
        set.into_iter().collect()
    }

    fn conflicts_with(&self, other: &NaiveWriteSet) -> bool {
        self.entries
            .iter()
            .any(|a| other.writes_row(a.table, &a.key))
    }
}

/// One push: a table, a key and an op on that row.
type Push = (TableId, Value, WriteOp);

const TABLES: u32 = 3;
/// Every row a push can name: three tables of eight keys.
const ROWS: usize = TABLES as usize * 8;

/// The rows pushes name: integer keys and a few text keys, over three
/// tables, so rows meet often and keys of both types sort together.
fn row_key(k: u8) -> Value {
    match k {
        0..=5 => Value::Int(i64::from(k)),
        6 => Value::Text("a".into()),
        _ => Value::Text("b".into()),
    }
}

fn one_push() -> impl Strategy<Value = Vec<Push>> {
    (0..TABLES, 0..8u8, 0..3u8, any::<i64>()).prop_map(|(t, k, kind, v)| {
        let key = row_key(k);
        let row = vec![key.clone(), Value::Int(v)];
        let op = match kind {
            0 => WriteOp::Insert(row.into()),
            1 => WriteOp::Update(row.into()),
            _ => WriteOp::Delete,
        };
        vec![(TableId(t), key, op)]
    })
}

/// Insert, update, delete and insert again, all on one row.
fn chain() -> impl Strategy<Value = Vec<Push>> {
    (0..TABLES, 0..8u8, any::<i64>()).prop_map(|(t, k, v)| {
        let key = row_key(k);
        let row = |n: i64| vec![key.clone(), Value::Int(v.wrapping_add(n))];
        vec![
            (TableId(t), key.clone(), WriteOp::Insert(row(0).into())),
            (TableId(t), key.clone(), WriteOp::Update(row(1).into())),
            (TableId(t), key.clone(), WriteOp::Delete),
            (TableId(t), key.clone(), WriteOp::Insert(row(2).into())),
        ]
    })
}

fn pushes() -> impl Strategy<Value = Vec<Push>> {
    proptest::collection::vec(prop_oneof![4 => one_push(), 1 => chain()], 0..24)
        .prop_map(|groups| groups.into_iter().flatten().collect())
}

fn build(pushes: &[Push]) -> (WriteSet, NaiveWriteSet) {
    let mut ws = WriteSet::new();
    let mut naive = NaiveWriteSet::default();
    for (t, k, op) in pushes {
        ws.push(*t, k.clone(), op.clone());
        naive.push(*t, k.clone(), op.clone());
    }
    (ws, naive)
}

/// Entries as a set: one per row, so a map from the row.
fn as_set(entries: &[WriteSetEntry]) -> BTreeMap<(TableId, Value), WriteOp> {
    let set: BTreeMap<_, _> = entries
        .iter()
        .map(|e| ((e.table, e.key.clone()), e.op.clone()))
        .collect();
    assert_eq!(set.len(), entries.len(), "two entries for one row");
    set
}

fn encoded(v: &impl Codec) -> Vec<u8> {
    let mut buf = Vec::new();
    v.put(&mut buf);
    buf
}

proptest! {
    /// A writeset built by any push sequence over several tables holds the
    /// entries the naive arrival-order writeset holds, answers `writes_row`,
    /// `tables` and `conflicts_with` as it does, and comes back from its
    /// encoding, or from its entries encoded in any order, as the same set.
    #[test]
    fn writeset_matches_the_naive_arrival_order_model(
        a in pushes(),
        b in pushes(),
        shuffle in proptest::collection::vec(any::<u64>(), ROWS),
    ) {
        let (wa, na) = build(&a);
        let (wb, nb) = build(&b);
        let want = as_set(&na.entries);
        prop_assert_eq!(as_set(wa.entries()), want.clone());
        for t in 0..TABLES {
            for k in 0..8 {
                let key = row_key(k);
                prop_assert_eq!(
                    wa.writes_row(TableId(t), &key),
                    na.writes_row(TableId(t), &key)
                );
            }
        }
        prop_assert_eq!(wa.tables(), na.tables());
        prop_assert_eq!(wa.conflicts_with(&wb), na.conflicts_with(&nb));
        prop_assert_eq!(wb.conflicts_with(&wa), na.conflicts_with(&nb));

        let decoded: WriteSet = Reader::new(&encoded(&wa)).get().expect("decodes");
        prop_assert_eq!(as_set(decoded.entries()), want.clone());
        let mut keyed: Vec<(u64, WriteSetEntry)> =
            shuffle.iter().copied().zip(na.entries.iter().cloned()).collect();
        keyed.sort_by_key(|(s, _)| *s);
        let shuffled: Vec<WriteSetEntry> = keyed.into_iter().map(|(_, e)| e).collect();
        let decoded: WriteSet = Reader::new(&encoded(&shuffled)).get().expect("decodes");
        prop_assert_eq!(as_set(decoded.entries()), want);

        // Kept in key order: strictly increasing, one entry per row, and
        // a table's entries or a row's entry are the slices a reader takes.
        prop_assert!(wa
            .entries()
            .windows(2)
            .all(|w| (w[0].table, &w[0].key) < (w[1].table, &w[1].key)));
        prop_assert_eq!(&decoded, &wa);
        for t in 0..TABLES {
            let table = TableId(t);
            let naive: Vec<_> = want
                .iter()
                .filter(|((t, _), _)| *t == table)
                .map(|(row, op)| (row.clone(), op.clone()))
                .collect();
            let got: Vec<_> = wa
                .table_entries(table)
                .iter()
                .map(|e| ((e.table, e.key.clone()), e.op.clone()))
                .collect();
            prop_assert_eq!(got, naive);
            for k in 0..8 {
                let key = row_key(k);
                prop_assert_eq!(
                    wa.row_entry(table, &key).map(|e| &e.op),
                    want.get(&(table, key.clone()))
                );
            }
        }
        // A decode naming one row twice is refused, whichever op each says.
        if let Some(first) = shuffled.first() {
            let mut twice = shuffled.clone();
            twice.push(WriteSetEntry { op: WriteOp::Delete, ..first.clone() });
            let got = Reader::new(&encoded(&twice)).get::<WriteSet>();
            prop_assert!(matches!(got, Err(DecodeError::Malformed(_))), "{:?}", got);
        }
    }

    /// Coalescing in WriteSet preserves the net effect of any legal write
    /// sequence starting from "no rows exist".
    #[test]
    fn writeset_coalescing_preserves_net_effect(
        raw in proptest::collection::vec(raw_write(), 0..40)
    ) {
        let ops = legalize(raw);
        let ws = to_writeset(&ops);
        let model = net_effect(&ops);
        // Every model entry with a visible effect appears in the writeset
        // with the matching op; cancelled rows are absent.
        let visible: HashMap<i64, Option<i64>> = model
            .into_iter()
            .collect();
        prop_assert_eq!(ws.len(), visible.len(), "entry count mismatch");
        for e in ws.entries() {
            let k = e.key.as_int().unwrap();
            let want = visible.get(&k).expect("unexpected writeset entry");
            match (&e.op, want) {
                (WriteOp::Insert(row), Some(v)) | (WriteOp::Update(row), Some(v)) => {
                    prop_assert_eq!(row[1].as_int().unwrap(), *v);
                }
                (WriteOp::Delete, None) => {}
                other => prop_assert!(false, "mismatched op {:?}", other),
            }
        }
    }

    /// Conflict detection is symmetric and equivalent to key-set
    /// intersection.
    #[test]
    fn conflicts_symmetric_and_exact(
        a in proptest::collection::vec((0..2u32, 0..20i64), 0..30),
        b in proptest::collection::vec((0..2u32, 0..20i64), 0..30),
    ) {
        let build = |pairs: &[(u32, i64)]| {
            let mut ws = WriteSet::new();
            for (t, k) in pairs {
                ws.push(TableId(*t), Value::Int(*k), WriteOp::Delete);
            }
            ws
        };
        let wa = build(&a);
        let wb = build(&b);
        let keys_a: BTreeSet<(u32, i64)> = a.iter().copied().collect();
        let keys_b: BTreeSet<(u32, i64)> = b.iter().copied().collect();
        let expect = keys_a.intersection(&keys_b).next().is_some();
        prop_assert_eq!(wa.conflicts_with(&wb), expect);
        prop_assert_eq!(wb.conflicts_with(&wa), expect);
    }

    /// TableSet behaves exactly like a BTreeSet<u32> under build / insert /
    /// contains / union / intersects.
    #[test]
    fn tableset_is_a_set(
        xs in proptest::collection::vec(0..50u32, 0..30),
        ys in proptest::collection::vec(0..50u32, 0..30),
    ) {
        let ts_x: TableSet = xs.iter().map(|&i| TableId(i)).collect();
        let ts_y: TableSet = ys.iter().map(|&i| TableId(i)).collect();
        let set_x: BTreeSet<u32> = xs.iter().copied().collect();
        let set_y: BTreeSet<u32> = ys.iter().copied().collect();

        prop_assert_eq!(ts_x.len(), set_x.len());
        for i in 0..50u32 {
            prop_assert_eq!(ts_x.contains(TableId(i)), set_x.contains(&i));
        }
        prop_assert_eq!(
            ts_x.intersects(&ts_y),
            set_x.intersection(&set_y).next().is_some()
        );
        prop_assert_eq!(
            ts_x.is_subset_of(&ts_y),
            set_x.is_subset(&set_y)
        );
        let mut u = ts_x.clone();
        u.extend(&ts_y);
        let union: BTreeSet<u32> = set_x.union(&set_y).copied().collect();
        prop_assert_eq!(u.len(), union.len());
        // Iteration order is ascending.
        let order: Vec<u32> = ts_x.iter().map(|t| t.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(order, sorted);
    }

    /// Value ordering is a total order (antisymmetric + transitive on
    /// sampled triples) and equal values hash equally.
    #[test]
    fn value_order_total_and_hash_consistent(
        a in value_strategy(), b in value_strategy(), c in value_strategy()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity on this triple.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Hash consistency with equality.
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9..1.0e9f64).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Text),
        (0..edge_values().len()).prop_map(|i| edge_values()[i].clone()),
    ]
}

/// Numbers where an `Int` and a `Float` are easy to compare wrongly: both
/// sides of ±2^53 (where `i64 as f64` starts to round) and of ±2^63, the
/// signed zeros, the infinities and NaN of both signs.
fn edge_values() -> Vec<Value> {
    let p53 = 1i64 << 53;
    let mut out = Vec::new();
    for base in [p53, -p53] {
        for d in -2..=2 {
            out.push(Value::Int(base + d));
            out.push(Value::Float((base + 2 * d) as f64));
        }
        out.push(Value::Float(base as f64 + 0.5 * base.signum() as f64));
    }
    for f in [
        0.0,
        -0.0,
        0.5,
        -0.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        -(i64::MIN as f64),
        i64::MIN as f64,
        1e19,
        -1e19,
    ] {
        out.push(Value::Float(f));
    }
    out.extend([0, 1, -1, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1].map(Value::Int));
    out
}

fn hash_of(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut s = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

/// Every triple of edge numbers: the order is antisymmetric and
/// transitive, and equal values hash equally.
#[test]
fn value_order_is_total_around_the_edges_of_exact_conversion() {
    use std::cmp::Ordering;
    let vals = edge_values();
    for a in &vals {
        for b in &vals {
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
            }
            for c in &vals {
                if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                    assert_ne!(a.cmp(c), Ordering::Greater, "{a:?} <= {b:?} <= {c:?}");
                }
            }
        }
    }
}

/// `Int(2^53)` and `Float(2^53)` are one value and `Int(2^53 + 1)` another,
/// whatever order a set meets them in.
#[test]
fn a_set_keeps_the_same_two_numbers_in_every_insertion_order() {
    let p53 = 1i64 << 53;
    let vals = [
        Value::Int(p53),
        Value::Float(p53 as f64),
        Value::Int(p53 + 1),
    ];
    let want = BTreeSet::from([Value::Int(p53), Value::Int(p53 + 1)]);
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let set: BTreeSet<Value> = order.iter().map(|&i| vals[i].clone()).collect();
        assert_eq!(set, want, "inserted in order {order:?}");
    }
}
