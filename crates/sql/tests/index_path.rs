//! Tests for the secondary-index access path: CREATE INDEX DDL, planner
//! selection, snapshot correctness, own-writes visibility, and a
//! differential of every access path against a naive reference.

use bargain_common::{Error, Row, Value};
use bargain_sql::{execute, execute_ddl, parse, QueryResult};
use bargain_storage::{Engine, Table, TxnHandle, VersionChain};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn setup(indexed: bool) -> Engine {
    let mut e = Engine::new();
    execute_ddl(
        &mut e,
        &parse("CREATE TABLE item (id INT PRIMARY KEY, subject INT NOT NULL, cost INT NOT NULL)")
            .unwrap(),
    )
    .unwrap();
    if indexed {
        execute_ddl(
            &mut e,
            &parse("CREATE INDEX item_subject ON item (subject)").unwrap(),
        )
        .unwrap();
        execute_ddl(
            &mut e,
            &parse("CREATE INDEX item_cost ON item (cost)").unwrap(),
        )
        .unwrap();
    }
    let t = e.resolve_table("item").unwrap();
    e.load_rows(
        t,
        (1..=200i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 10), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
    e
}

fn query(e: &mut Engine, sql: &str, params: &[Value]) -> Vec<i64> {
    let txn = e.begin();
    let r = execute(e, txn, &parse(sql).unwrap(), params).unwrap();
    e.commit_read_only(txn).unwrap();
    r.rows()
        .unwrap()
        .iter()
        .map(|row| row[0].as_int().unwrap())
        .collect()
}

#[test]
fn create_index_parses_and_registers() {
    let mut e = setup(true);
    let t = e.resolve_table("item").unwrap();
    assert!(e.is_indexed(t, 1).unwrap());
    assert!(e.is_indexed(t, 2).unwrap());
    assert!(!e.is_indexed(t, 0).unwrap());
    // Idempotent.
    execute_ddl(
        &mut e,
        &parse("CREATE INDEX again ON item (subject)").unwrap(),
    )
    .unwrap();
    assert!(e.is_indexed(t, 1).unwrap());
    // Unknown column fails.
    assert!(execute_ddl(&mut e, &parse("CREATE INDEX bad ON item (nope)").unwrap()).is_err());
}

#[test]
fn a_two_column_index_names_two_known_columns() {
    let mut e = setup(false);
    let t = e.resolve_table("item").unwrap();
    for sql in [
        "CREATE INDEX bad ON item (subject, nope)",
        "CREATE INDEX bad ON item (nope, cost)",
    ] {
        let refused = execute_ddl(&mut e, &parse(sql).unwrap());
        assert!(matches!(refused, Err(Error::UnknownColumn(_))), "{sql}");
    }
    assert!(e.create_index_on(t, &["id", "subject", "cost"]).is_err());
    assert!(e.create_index_on(t, &[]).is_err());
    assert!(!e.is_indexed(t, 1).unwrap());
    execute_ddl(
        &mut e,
        &parse("CREATE INDEX item_subject_cost ON item (subject, cost)").unwrap(),
    )
    .unwrap();
    assert!(e.has_index_on(t, &[1, 2]).unwrap());
    assert!(!e.has_index_on(t, &[1]).unwrap());
    // It serves lookups on its leading column too.
    assert!(e.is_indexed(t, 1).unwrap());
}

#[test]
fn indexed_and_scanned_queries_agree() {
    let mut with = setup(true);
    let mut without = setup(false);
    for sql in [
        "SELECT id FROM item WHERE subject = ? ORDER BY id",
        "SELECT id FROM item WHERE subject = ? AND cost > 100 ORDER BY id",
        "SELECT id FROM item WHERE cost >= ? AND cost <= ? ORDER BY id",
        "SELECT id FROM item WHERE cost < ? ORDER BY id",
        "SELECT id FROM item WHERE subject = ? AND id > 100 ORDER BY id",
    ] {
        let params: Vec<Value> = (0..parse(sql).unwrap().param_count())
            .map(|i| Value::Int(3 + i as i64 * 100))
            .collect();
        assert_eq!(
            query(&mut with, sql, &params),
            query(&mut without, sql, &params),
            "index/scan divergence for {sql}"
        );
    }
}

#[test]
fn index_respects_snapshots() {
    let mut e = setup(true);
    // An open reader pins the old state.
    let reader = e.begin();
    // A writer moves item 5 from subject 5 to subject 9 and commits.
    let writer = e.begin();
    execute(
        &mut e,
        writer,
        &parse("UPDATE item SET subject = 9 WHERE id = 5").unwrap(),
        &[],
    )
    .unwrap();
    e.commit_standalone(writer).unwrap();

    // The reader's indexed query still sees the old subject.
    let r = execute(
        &mut e,
        reader,
        &parse("SELECT id FROM item WHERE subject = ? ORDER BY id").unwrap(),
        &[Value::Int(5)],
    )
    .unwrap();
    let ids: Vec<i64> = r
        .rows()
        .unwrap()
        .iter()
        .map(|x| x[0].as_int().unwrap())
        .collect();
    assert!(
        ids.contains(&5),
        "reader must still see item 5 under subject 5"
    );

    // A fresh transaction sees the move.
    let fresh = e.begin();
    let r = execute(
        &mut e,
        fresh,
        &parse("SELECT id FROM item WHERE subject = ? ORDER BY id").unwrap(),
        &[Value::Int(5)],
    )
    .unwrap();
    let ids: Vec<i64> = r
        .rows()
        .unwrap()
        .iter()
        .map(|x| x[0].as_int().unwrap())
        .collect();
    assert!(
        !ids.contains(&5),
        "fresh reader must not see item 5 under subject 5"
    );
}

#[test]
fn index_sees_own_uncommitted_writes() {
    let mut e = setup(true);
    let txn = e.begin();
    execute(
        &mut e,
        txn,
        &parse("INSERT INTO item (id, subject, cost) VALUES (?, ?, ?)").unwrap(),
        &[Value::Int(999), Value::Int(7), Value::Int(1)],
    )
    .unwrap();
    execute(
        &mut e,
        txn,
        &parse("DELETE FROM item WHERE id = 7").unwrap(), // had subject 7
        &[],
    )
    .unwrap();
    let r = execute(
        &mut e,
        txn,
        &parse("SELECT id FROM item WHERE subject = ? ORDER BY id").unwrap(),
        &[Value::Int(7)],
    )
    .unwrap();
    let ids: Vec<i64> = r
        .rows()
        .unwrap()
        .iter()
        .map(|x| x[0].as_int().unwrap())
        .collect();
    assert!(ids.contains(&999), "own insert visible through index path");
    assert!(!ids.contains(&7), "own delete hides the row");
}

#[test]
fn index_survives_gc() {
    let mut e = setup(true);
    // Churn item 1's subject several times, then GC.
    for s in [91, 92, 93] {
        let txn = e.begin();
        execute(
            &mut e,
            txn,
            &parse("UPDATE item SET subject = ? WHERE id = 1").unwrap(),
            &[Value::Int(s)],
        )
        .unwrap();
        e.commit_standalone(txn).unwrap();
    }
    let removed = gc_checked(&mut e, 0..=600);
    assert!(removed > 0);
    // Stale index entries are gone: old-subject lookups no longer return 1,
    // the current subject does.
    assert_eq!(
        query(
            &mut e,
            "SELECT id FROM item WHERE subject = ?",
            &[Value::Int(93)]
        ),
        vec![1]
    );
    assert!(query(
        &mut e,
        "SELECT id FROM item WHERE subject = ?",
        &[Value::Int(92)]
    )
    .is_empty());

    // A reader pins the horizon, so a collection drops nothing of what is
    // written after it started; the collection after it has left drops it
    // all, although nothing was written in between.
    let reader = e.begin();
    for sql in [
        "UPDATE item SET subject = 94 WHERE id = 1",
        "DELETE FROM item WHERE id = 2",
    ] {
        let txn = e.begin();
        execute(&mut e, txn, &parse(sql).unwrap(), &[]).unwrap();
        e.commit_standalone(txn).unwrap();
    }
    assert_eq!(gc_checked(&mut e, 0..=600), 0);
    e.commit_read_only(reader).unwrap();
    // Item 1's version under subject 93, item 2's row and its tombstone.
    assert_eq!(gc_checked(&mut e, 0..=600), 3);
    assert_eq!(gc_checked(&mut e, 0..=600), 0);
    let t = e.resolve_table("item").unwrap();
    assert_eq!(e.table(t).unwrap().key_count(), 199);
    assert_eq!(e.table(t).unwrap().version_count(), 199);
    assert!(query(
        &mut e,
        "SELECT id FROM item WHERE subject = ?",
        &[Value::Int(93)]
    )
    .is_empty());
}

/// The filter is evaluated in one place for all three access paths, so an
/// error in it surfaces on each. The primary-key path used to swallow it:
/// the `SELECT` returned no rows and the `UPDATE` silently did nothing.
#[test]
fn filter_errors_surface_on_every_access_path() {
    let mut e = Engine::new();
    for ddl in [
        "CREATE TABLE t (id INT PRIMARY KEY, s INT NOT NULL, name TEXT NOT NULL)",
        "CREATE INDEX t_s ON t (s)",
    ] {
        execute_ddl(&mut e, &parse(ddl).unwrap()).unwrap();
    }
    let t = e.resolve_table("t").unwrap();
    e.load_rows(
        t,
        vec![vec![Value::Int(1), Value::Int(5), Value::Text("x".into())]],
    )
    .unwrap();
    let txn = e.begin();
    for sql in [
        "SELECT * FROM t WHERE s = 5 AND name + 1 > 0",
        "SELECT * FROM t WHERE name + 1 > 0",
        "SELECT * FROM t WHERE id = 1 AND name + 1 > 0",
        "UPDATE t SET s = 6 WHERE id = 1 AND name + 1 > 0",
    ] {
        assert_eq!(
            execute(&mut e, txn, &parse(sql).unwrap(), &[]),
            Err(Error::SqlExecution("Add not defined for text".into())),
            "{sql}"
        );
    }
}

// ---------------------------------------------------------------------
// Differential oracle: the executor and the storage read paths against a
// naive reference that knows nothing about access paths, indexes or
// version chains.
// ---------------------------------------------------------------------

/// One row of the oracle's table, `(id, subject, cost, tag)`. `subject`
/// and `cost` are indexed on one of the two engines, `tag` on neither;
/// `subject` and `tag` are duplicate-heavy.
type R = [i64; 4];
/// What a transaction sees, as the naive model tracks it.
type State = BTreeMap<i64, R>;
const COLS: [&str; 4] = ["id", "subject", "cost", "tag"];

/// A committed or own write. Kind 0 inserts `row` (refused when the key
/// is visible), 1 replaces the row with `row`'s id, 2 deletes it.
#[derive(Debug, Clone, Copy)]
struct Write {
    kind: u8,
    row: R,
}

/// One filter per access path the executor can take.
#[derive(Debug, Clone, Copy)]
enum Filter {
    All,
    Pk(i64),
    Subject(i64),
    CostFrom(i64),
    CostBelow(i64),
    CostBetween(i64, i64),
    Tag(i64),
    PkAndTag(i64, i64),
    SubjectAndCostAbove(i64, i64),
    /// Constants on the left: `? = subject AND ? < cost`.
    Mirrored(i64, i64),
}

impl Filter {
    fn sql(self) -> (&'static str, Vec<i64>) {
        match self {
            Filter::All => ("", vec![]),
            Filter::Pk(k) => (" WHERE id = ?", vec![k]),
            Filter::Subject(s) => (" WHERE subject = ?", vec![s]),
            Filter::CostFrom(x) => (" WHERE cost >= ?", vec![x]),
            Filter::CostBelow(y) => (" WHERE cost < ?", vec![y]),
            Filter::CostBetween(x, y) => (" WHERE cost >= ? AND cost <= ?", vec![x, y]),
            Filter::Tag(t) => (" WHERE tag = ?", vec![t]),
            Filter::PkAndTag(k, t) => (" WHERE id = ? AND tag = ?", vec![k, t]),
            Filter::SubjectAndCostAbove(s, x) => (" WHERE subject = ? AND cost > ?", vec![s, x]),
            Filter::Mirrored(s, x) => (" WHERE ? = subject AND ? < cost", vec![s, x]),
        }
    }

    fn matches(self, r: &R) -> bool {
        match self {
            Filter::All => true,
            Filter::Pk(k) => r[0] == k,
            Filter::Subject(s) => r[1] == s,
            Filter::CostFrom(x) => r[2] >= x,
            Filter::CostBelow(y) => r[2] < y,
            Filter::CostBetween(x, y) => r[2] >= x && r[2] <= y,
            Filter::Tag(t) => r[3] == t,
            Filter::PkAndTag(k, t) => r[0] == k && r[3] == t,
            Filter::SubjectAndCostAbove(s, x) | Filter::Mirrored(s, x) => r[1] == s && r[2] > x,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Proj {
    Star,
    CostId,
    Count,
    SumCost,
    MinCost,
}

#[derive(Debug, Clone, Copy)]
struct Query {
    proj: Proj,
    filter: Filter,
    /// Column position and whether descending.
    order: Option<(usize, bool)>,
    limit: Option<usize>,
}

impl Query {
    fn sql(&self) -> (String, Vec<i64>) {
        let proj = match self.proj {
            Proj::Star => "*",
            Proj::CostId => "cost, id",
            Proj::Count => "COUNT(*)",
            Proj::SumCost => "SUM(cost)",
            Proj::MinCost => "MIN(cost)",
        };
        let (filter, params) = self.filter.sql();
        let mut sql = format!("SELECT {proj} FROM item{filter}");
        if let Some((col, desc)) = self.order {
            sql += &format!(" ORDER BY {}{}", COLS[col], if desc { " DESC" } else { "" });
        }
        if let Some(n) = self.limit {
            sql += &format!(" LIMIT {n}");
        }
        (sql, params)
    }
}

fn ints(v: &[i64]) -> Vec<Value> {
    v.iter().map(|&i| Value::Int(i)).collect()
}

/// The reference: every visible row, filtered, stably sorted, reversed for
/// DESC, truncated, projected.
fn reference(visible: &State, q: &Query) -> Vec<Row> {
    let mut rows: Vec<R> = visible
        .values()
        .copied()
        .filter(|r| q.filter.matches(r))
        .collect();
    if let Some((col, desc)) = q.order {
        rows.sort_by_key(|r| r[col]);
        if desc {
            rows.reverse();
        }
    }
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    match q.proj {
        Proj::Star => rows.iter().map(|r| ints(r).into()).collect(),
        Proj::CostId => rows.iter().map(|r| ints(&[r[2], r[0]]).into()).collect(),
        Proj::Count => vec![ints(&[rows.len() as i64]).into()],
        Proj::SumCost => vec![ints(&[rows.iter().map(|r| r[2]).sum()]).into()],
        Proj::MinCost => vec![vec![rows
            .iter()
            .map(|r| r[2])
            .min()
            .map_or(Value::Null, Value::Int)]
        .into()],
    }
}

/// The same table on two engines, one with both indexes and one with
/// none, driven in lockstep: every statement must give the same answer on
/// both before it is compared with the reference.
struct Twin {
    with: Engine,
    without: Engine,
}
type Txns = (TxnHandle, TxnHandle);

impl Twin {
    fn new(initial: &State) -> Twin {
        Twin::indexed(initial, &["subject", "cost"])
    }

    /// `with` carries an index over each column list of `indexes`, in
    /// that order.
    fn indexed(initial: &State, indexes: &[&str]) -> Twin {
        let build = |indexes: &[&str]| {
            let mut e = Engine::new();
            let ddl = "CREATE TABLE item (id INT PRIMARY KEY, subject INT NOT NULL, \
                       cost INT NOT NULL, tag INT NOT NULL)";
            execute_ddl(&mut e, &parse(ddl).unwrap()).unwrap();
            for (i, columns) in indexes.iter().enumerate() {
                let ddl = format!("CREATE INDEX item_{i} ON item ({columns})");
                execute_ddl(&mut e, &parse(&ddl).unwrap()).unwrap();
            }
            let t = e.resolve_table("item").unwrap();
            e.load_rows(t, initial.values().map(|r| ints(r)).collect())
                .unwrap();
            e
        };
        Twin {
            with: build(indexes),
            without: build(&[]),
        }
    }

    fn begin(&mut self) -> Txns {
        (self.with.begin(), self.without.begin())
    }

    fn run(&mut self, t: Txns, sql: &str, params: &[i64]) -> Result<QueryResult, Error> {
        let stmt = parse(sql).unwrap();
        let params = ints(params);
        let with = execute(&mut self.with, t.0, &stmt, &params);
        let without = execute(&mut self.without, t.1, &stmt, &params);
        assert_eq!(with, without, "index/scan divergence for {sql} {params:?}");
        with
    }

    /// Applies one write inside `t` and to the model of what `t` sees.
    fn write(&mut self, t: Txns, visible: &mut State, w: Write) {
        let [id, subject, cost, tag] = w.row;
        let present = visible.contains_key(&id);
        match w.kind {
            0 => {
                let sql = "INSERT INTO item (id, subject, cost, tag) VALUES (?, ?, ?, ?)";
                let r = self.run(t, sql, &w.row);
                if present {
                    assert!(matches!(r, Err(Error::DuplicateKey(_))), "{r:?}");
                } else {
                    assert_eq!(r, Ok(QueryResult::Affected(1)));
                    visible.insert(id, w.row);
                }
            }
            1 => {
                let sql = "UPDATE item SET subject = ?, cost = ?, tag = ? WHERE id = ?";
                let r = self.run(t, sql, &[subject, cost, tag, id]);
                assert_eq!(r, Ok(QueryResult::Affected(present as usize)));
                if present {
                    visible.insert(id, w.row);
                }
            }
            _ => {
                let r = self.run(t, "DELETE FROM item WHERE id = ?", &[id]);
                assert_eq!(r, Ok(QueryResult::Affected(present as usize)));
                visible.remove(&id);
            }
        }
    }

    fn check(&mut self, t: Txns, visible: &State, q: &Query) {
        let (sql, params) = q.sql();
        let got = self.run(t, &sql, &params);
        assert_eq!(
            got,
            Ok(QueryResult::Rows(reference(visible, q))),
            "{sql} {params:?}"
        );
    }

    fn gc(&mut self) {
        // Every value a committed row can carry in either indexed column.
        gc_checked(&mut self.with, 0..=60);
        gc_checked(&mut self.without, 0..=60);
    }
}

/// Collects garbage and holds the result to what a full walk of every
/// chain of `item` leaves, and each of its indexes to one rebuilt from the
/// surviving versions (compared value by value over `domain`). Returns
/// what `Engine::gc` returned.
fn gc_checked(e: &mut Engine, domain: std::ops::RangeInclusive<i64>) -> usize {
    let t = e.resolve_table("item").unwrap();
    let horizon = e.min_active_snapshot().unwrap_or(e.version());
    let mut expect: Vec<(Value, VersionChain)> = Vec::new();
    let mut dropped = 0;
    for (k, chain) in e.table(t).unwrap().chains() {
        let mut chain = chain.clone();
        dropped += chain.gc(horizon);
        if !chain.is_empty() {
            expect.push((k.clone(), chain));
        }
    }
    let removed = e.gc();
    assert_eq!(removed, dropped);
    let table = e.table(t).unwrap();
    assert_eq!(table.key_count(), expect.len());
    assert_eq!(
        table.version_count(),
        expect.iter().map(|(_, c)| c.len()).sum::<usize>()
    );
    assert!(table.chains().eq(expect.iter().map(|(k, c)| (k, c))));

    let mut rebuilt = Table::new(table.schema().clone());
    for col in table.indexed_columns() {
        rebuilt.create_index(col);
    }
    for (k, chain) in table.chains() {
        for v in chain.versions().rev() {
            rebuilt.install(k.clone(), v.data.clone(), v.begin);
        }
    }
    for col in table.indexed_columns() {
        for v in domain.clone().map(Value::Int) {
            let entries = |t: &Table| {
                let pks = t.index_candidates(col, Some(&v), Some(&v)).unwrap();
                pks.into_iter()
                    .map(|pk| pk.to_owned())
                    .collect::<Vec<Value>>()
            };
            assert_eq!(entries(table), entries(&rebuilt), "column {col}, value {v}");
        }
    }
    removed
}

/// What a read costs, as counts: a statement examines the rows its walk
/// hands it and copies the rows it returns. Before the read path borrowed
/// its rows, each of these statements copied all 400 candidates (three
/// times over) whatever it returned.
#[test]
fn reads_copy_what_they_return() {
    // 800 rows, 400 under each subject; `cost` is duplicate-heavy.
    let mut visible: State = (1..=800i64).map(|i| (i, [i, i % 2, i % 7, 0])).collect();
    let mut twin = Twin::new(&visible);
    let subject = |order, limit, proj| Query {
        proj,
        filter: Filter::Subject(1),
        order,
        limit,
    };
    let first_20 = subject(None, Some(20), Proj::Star);
    let top_20 = subject(Some((2, true)), Some(20), Proj::Star);
    let count = subject(None, None, Proj::Count);

    let t = twin.begin();
    let mut cost = |q: &Query| {
        let before = twin.with.stats();
        twin.check(t, &visible, q);
        let after = twin.with.stats();
        (after.reads - before.reads, after.copied - before.copied)
    };
    assert_eq!(cost(&first_20), (20, 20));
    assert_eq!(cost(&top_20), (400, 20));
    assert_eq!(cost(&count), (400, 0));

    // With own writes in the way -- a row born into the range, one moved
    // out of it, one moved into it, one deleted from it -- the answers are
    // still the reference's.
    for w in [
        Write {
            kind: 0,
            row: [1000, 1, 6, 0],
        },
        Write {
            kind: 1,
            row: [3, 0, 3, 0],
        },
        Write {
            kind: 1,
            row: [4, 1, 6, 0],
        },
        Write {
            kind: 2,
            row: [5, 0, 0, 0],
        },
    ] {
        twin.write(t, &mut visible, w);
    }
    for q in [first_20, top_20, count] {
        twin.check(t, &visible, &q);
    }
}

fn any_write() -> impl Strategy<Value = Write> {
    (0..3u8, 1..=40i64, 0..5i64, 0..=20i64, 0..3i64).prop_map(|(kind, id, subject, cost, tag)| {
        Write {
            kind,
            row: [id, subject, cost * 3, tag],
        }
    })
}

fn any_filter() -> impl Strategy<Value = Filter> {
    (0..10u8, 1..=40i64, 0..5i64, 0..62i64, 0..62i64, 0..3i64).prop_map(
        |(kind, id, subject, x, y, tag)| match kind {
            0 => Filter::All,
            1 => Filter::Pk(id),
            2 => Filter::Subject(subject),
            3 => Filter::CostFrom(x),
            4 => Filter::CostBelow(y),
            5 => Filter::CostBetween(x.min(y), x.max(y)),
            6 => Filter::Tag(tag),
            7 => Filter::PkAndTag(id, tag),
            8 => Filter::SubjectAndCostAbove(subject, x),
            _ => Filter::Mirrored(subject, x),
        },
    )
}

fn any_query() -> impl Strategy<Value = Query> {
    (0..5u8, any_filter(), 0..7u8, 0..5u8).prop_map(|(proj, filter, order, limit)| Query {
        proj: [
            Proj::Star,
            Proj::CostId,
            Proj::Count,
            Proj::SumCost,
            Proj::MinCost,
        ][proj as usize],
        filter,
        order: [
            None,
            None,
            Some((1, false)),
            Some((1, true)),
            Some((3, false)),
            Some((3, true)),
            Some((2, true)),
        ][order as usize],
        limit: [None, Some(0), Some(1), Some(5), Some(100)][limit as usize],
    })
}

/// Cases per run; `PROPTEST_CASES` widens the sweep.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// After any committed history with a collection in the middle, and
    /// with any own writes on top, every query on every access path -- and
    /// `UPDATE … WHERE` / `DELETE … WHERE` -- answers as the reference
    /// does, with and without indexes; one reader is pinned across the
    /// collection, one starts after it.
    #[test]
    fn reads_and_writes_match_naive_reference(
        phases in proptest::collection::vec(proptest::collection::vec(any_write(), 0..12), 3),
        pin in any::<bool>(),
        own in proptest::collection::vec(any_write(), 0..8),
        queries in proptest::collection::vec(any_query(), 1..10),
        dml in (any::<bool>(), any_filter(), 0..5i64),
    ) {
        let mut committed: State = (1..=30i64).map(|i| (i, [i, i % 5, (i % 20) * 3, i % 3])).collect();
        let mut twin = Twin::new(&committed);
        let mut readers: Vec<(Txns, State)> = Vec::new();
        for (i, phase) in phases.iter().enumerate() {
            for w in phase {
                let t = twin.begin();
                twin.write(t, &mut committed, *w);
                twin.with.commit_standalone(t.0).unwrap();
                twin.without.commit_standalone(t.1).unwrap();
            }
            if i == 0 && pin {
                readers.push((twin.begin(), committed.clone()));
            }
            if i == 1 {
                twin.gc();
            }
        }
        readers.push((twin.begin(), committed.clone()));
        twin.gc();

        for (t, mut visible) in readers {
            for w in &own {
                twin.write(t, &mut visible, *w);
            }
            for q in &queries {
                twin.check(t, &visible, q);
            }

            let (delete, filter, subject) = dml;
            let (clause, mut params) = filter.sql();
            let hit: Vec<i64> = visible.values().filter(|r| filter.matches(r)).map(|r| r[0]).collect();
            let sql = if delete {
                format!("DELETE FROM item{clause}")
            } else {
                params.insert(0, subject);
                format!("UPDATE item SET subject = ?, cost = cost + 3{clause}")
            };
            prop_assert_eq!(twin.run(t, &sql, &params), Ok(QueryResult::Affected(hit.len())));
            for id in hit {
                if delete {
                    visible.remove(&id);
                } else {
                    let r = visible.get_mut(&id).unwrap();
                    r[1] = subject;
                    r[2] += 3;
                }
            }
            let star = |filter| Query { proj: Proj::Star, filter, order: None, limit: None };
            twin.check(t, &visible, &star(Filter::All));
            twin.check(t, &visible, &star(Filter::CostFrom(0)));
            for s in 0..5 {
                twin.check(t, &visible, &star(Filter::Subject(s)));
            }
            twin.with.abort(t.0).unwrap();
            twin.without.abort(t.1).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Ordered groups: `WHERE subject = ? [AND …] ORDER BY b [DESC] LIMIT n`,
// TPC-W New Products' shape, against the same reference.
// ---------------------------------------------------------------------

/// The index sets the ordered-group oracle runs `with` under: one-column
/// indexes only; two-column ones alone, which also serve lookups on their
/// group column; and both kinds.
const ORDERED_CONFIGS: &[&[&str]] = &[
    &["subject", "cost"],
    &["subject, tag", "subject, cost"],
    &["subject", "cost", "subject, tag"],
];

/// What an ordered group walk costs: a two-column index hands out one
/// group's rows in the order wanted, so the walk examines the rows up to
/// the last one returned and no more; a transaction that has written the
/// table takes the general path, which examines the whole group.
#[test]
fn an_ordered_group_walk_examines_what_it_returns() {
    // 800 rows, 400 under each subject; `cost` is duplicate-heavy.
    let mut visible: State = (1..=800i64).map(|i| (i, [i, i % 2, i % 7, 0])).collect();
    let mut twin = Twin::indexed(&visible, &["subject", "subject, cost"]);
    let query = |filter, desc| Query {
        proj: Proj::Star,
        filter,
        order: Some((2, desc)),
        limit: Some(20),
    };
    // Where the 20th match sits in the group's walk.
    let reach = |visible: &State, q: &Query| -> u64 {
        let mut group: Vec<R> = visible.values().copied().filter(|r| r[1] == 1).collect();
        group.sort_by_key(|r| r[2]);
        if q.order.is_some_and(|(_, desc)| desc) {
            group.reverse();
        }
        let matches = group
            .iter()
            .enumerate()
            .filter(|(_, r)| q.filter.matches(r));
        matches.map(|(i, _)| i as u64 + 1).nth(19).unwrap()
    };

    fn cost(twin: &mut Twin, t: Txns, visible: &State, q: &Query) -> (u64, u64) {
        let before = twin.with.stats();
        twin.check(t, visible, q);
        let after = twin.with.stats();
        (after.reads - before.reads, after.copied - before.copied)
    }
    let t = twin.begin();
    for desc in [true, false] {
        let top_20 = query(Filter::Subject(1), desc);
        assert_eq!(cost(&mut twin, t, &visible, &top_20), (20, 20));
        let above_3 = query(Filter::SubjectAndCostAbove(1, 3), desc);
        let examined = reach(&visible, &above_3);
        assert_eq!(cost(&mut twin, t, &visible, &above_3), (examined, 20));
    }
    assert!(reach(&visible, &query(Filter::SubjectAndCostAbove(1, 3), false)) > 200);

    let born = Write {
        kind: 0,
        row: [1000, 1, 6, 0],
    };
    twin.write(t, &mut visible, born);
    let top_20 = query(Filter::Subject(1), true);
    assert_eq!(cost(&mut twin, t, &visible, &top_20), (401, 20));
}

/// A group of `subject`, possibly narrowed by `cost`, ordered by the
/// tie-heavy `tag` or by `cost`, either way, with a limit below or above
/// the group's size (about six rows).
fn any_ordered_query() -> impl Strategy<Value = Query> {
    (0..3u8, 0..3u8, 0..5i64, 0..62i64, 0..4u8, 0..5u8).prop_map(
        |(proj, filter, subject, x, order, limit)| Query {
            proj: [Proj::Star, Proj::CostId, Proj::Count][proj as usize],
            filter: match filter {
                0 => Filter::Subject(subject),
                1 => Filter::SubjectAndCostAbove(subject, x),
                _ => Filter::Mirrored(subject, x),
            },
            order: Some([(3, false), (3, true), (2, false), (2, true)][order as usize]),
            limit: Some([1, 3, 5, 20, 100][limit as usize]),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Under any committed history -- rows moving between groups and
    /// changing their order value, many ties -- with collections at any
    /// point and a reader pinned across them, every ordered group query
    /// answers as the reference does, before and after the reader writes
    /// the table itself.
    #[test]
    fn ordered_groups_match_naive_reference(
        phases in proptest::collection::vec(proptest::collection::vec(any_write(), 0..12), 4),
        collect in proptest::collection::vec(any::<bool>(), 4),
        pin in 0..5usize,
        own in proptest::collection::vec(any_write(), 0..6),
        queries in proptest::collection::vec(any_ordered_query(), 1..8),
    ) {
        for indexes in ORDERED_CONFIGS {
            let mut committed: State =
                (1..=30i64).map(|i| (i, [i, i % 5, (i % 20) * 3, i % 3])).collect();
            let mut twin = Twin::indexed(&committed, indexes);
            let mut readers: Vec<(Txns, State)> = Vec::new();
            for (i, phase) in phases.iter().enumerate() {
                for w in phase {
                    let t = twin.begin();
                    twin.write(t, &mut committed, *w);
                    twin.with.commit_standalone(t.0).unwrap();
                    twin.without.commit_standalone(t.1).unwrap();
                }
                if i == pin {
                    readers.push((twin.begin(), committed.clone()));
                }
                if collect[i] {
                    twin.gc();
                }
            }
            readers.push((twin.begin(), committed.clone()));
            for (t, mut visible) in readers {
                for q in &queries {
                    twin.check(t, &visible, q);
                }
                for w in &own {
                    twin.write(t, &mut visible, *w);
                }
                for q in &queries {
                    twin.check(t, &visible, q);
                }
                twin.with.abort(t.0).unwrap();
                twin.without.abort(t.1).unwrap();
            }
        }
    }
}
