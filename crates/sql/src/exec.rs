//! Statement execution over the storage engine.
//!
//! Execution happens inside an open storage transaction: reads observe the
//! transaction's snapshot (plus its own writes) and writes are buffered in
//! the transaction's writeset, exactly what the replication proxy needs to
//! extract partial writesets for early certification.

use crate::ast::{AggregateFunc, BinaryOp, Expr, OrderDirection, SelectCols, Statement};
use bargain_common::codec::{malformed, Codec, DecodeResult, Reader};
use bargain_common::{Error, Result, Row, TableId, Value};
use bargain_storage::{Access, Column, Engine, TableSchema, TxnHandle};
use std::borrow::Cow;
use std::iter;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows returned by a `SELECT` (projection applied).
    Rows(Vec<Row>),
    /// Number of rows affected by an `INSERT`/`UPDATE`/`DELETE`.
    Affected(usize),
}

impl QueryResult {
    /// The rows, if this was a `SELECT`.
    #[must_use]
    pub fn rows(&self) -> Option<&[Row]> {
        match self {
            QueryResult::Rows(r) => Some(r),
            QueryResult::Affected(_) => None,
        }
    }

    /// The affected-row count, if this was DML.
    #[must_use]
    pub fn affected(&self) -> Option<usize> {
        match self {
            QueryResult::Affected(n) => Some(*n),
            QueryResult::Rows(_) => None,
        }
    }
}

/// On the wire: `u8 tag (0=rows,1=affected) | vec<vec<value>> or u64`.
/// (`#[inline]`: on every reply's path, called from `bargain-net`.)
impl Codec for QueryResult {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            QueryResult::Rows(rows) => {
                buf.push(0);
                rows.put(buf);
            }
            QueryResult::Affected(n) => {
                buf.push(1);
                (*n as u64).put(buf);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        match r.get::<u8>()? {
            0 => Ok(QueryResult::Rows(r.get()?)),
            1 => Ok(QueryResult::Affected(r.get::<u64>()? as usize)),
            t => Err(malformed(format!("bad query result tag {t}"))),
        }
    }
}

/// Executes DDL (`CREATE TABLE`) directly against the engine, outside any
/// transaction. DDL is run identically at every replica before transaction
/// processing starts.
pub fn execute_ddl(engine: &mut Engine, stmt: &Statement) -> Result<()> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            let cols: Vec<Column> = columns
                .iter()
                .map(|(n, ty, nullable)| Column {
                    name: n.clone(),
                    ty: *ty,
                    nullable: *nullable,
                })
                .collect();
            let pk = cols
                .iter()
                .position(|c| &c.name == primary_key)
                .ok_or_else(|| {
                    Error::SqlParse(format!("PRIMARY KEY ({primary_key}) is not a column"))
                })?;
            let schema = TableSchema::new(name, cols, pk)?;
            engine.create_table(schema)?;
            Ok(())
        }
        Statement::CreateIndex { table, columns, .. } => {
            let t = engine.resolve_table(table)?;
            let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
            engine.create_index_on(t, &columns)?;
            Ok(())
        }
        other => Err(Error::SqlExecution(format!(
            "not a DDL statement: {other:?}"
        ))),
    }
}

/// Executes a DML/query statement inside transaction `txn` with the given
/// positional parameters.
pub fn execute(
    engine: &mut Engine,
    txn: TxnHandle,
    stmt: &Statement,
    params: &[Value],
) -> Result<QueryResult> {
    let need = stmt.param_count();
    if params.len() < need {
        return Err(Error::SqlExecution(format!(
            "statement expects {need} parameters, got {}",
            params.len()
        )));
    }
    match stmt {
        Statement::CreateTable { .. } | Statement::CreateIndex { .. } => Err(Error::SqlExecution(
            "DDL must go through execute_ddl".into(),
        )),
        Statement::Select {
            cols,
            table,
            filter,
            order_by,
            limit,
        } => {
            let table_id = engine.resolve_table(table)?;
            let schema = engine.catalog().schema(table_id)?.clone();
            let limit = limit.map_or(usize::MAX, |n| n as usize);
            let order = match order_by {
                Some((col, dir)) => Some((schema.column_index(col)?, *dir == OrderDirection::Desc)),
                None => None,
            };
            let mut rows: Vec<&Row> = Vec::new();
            let walk = Walk {
                filter,
                params,
                order,
                limit,
            };
            let sorted = for_each_match(engine, txn, table_id, &schema, walk, &mut |row| {
                rows.push(row);
            })?;
            if let (Some((idx, desc)), false) = (order, sorted) {
                rows.sort_by(|a, b| a[idx].cmp(&b[idx]));
                if desc {
                    rows.reverse();
                }
            }
            rows.truncate(limit);
            // Only what is returned is handed out: whole rows (the stored
            // images, shared), the named columns, or nothing for a count
            // or an aggregate.
            let copied = match cols {
                SelectCols::Star | SelectCols::Columns(_) => rows.len(),
                SelectCols::CountStar | SelectCols::Aggregate { .. } => 0,
            };
            let projected = match cols {
                SelectCols::Star => rows.into_iter().cloned().collect(),
                SelectCols::CountStar => {
                    vec![Row::from([Value::Int(rows.len() as i64)])]
                }
                SelectCols::Aggregate { func, column } => {
                    let idx = schema.column_index(column)?;
                    vec![Row::from([aggregate(*func, rows.iter().map(|r| &r[idx]))?])]
                }
                SelectCols::Columns(names) => {
                    let idxs: Vec<usize> = names
                        .iter()
                        .map(|n| schema.column_index(n))
                        .collect::<Result<_>>()?;
                    rows.into_iter()
                        .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
                        .collect()
                }
            };
            engine.note_copied(copied);
            Ok(QueryResult::Rows(projected))
        }
        Statement::Insert {
            table,
            columns,
            values,
        } => {
            let table_id = engine.resolve_table(table)?;
            let schema = engine.catalog().schema(table_id)?.clone();
            let mut row: Row = iter::repeat_n(Value::Null, schema.arity()).collect();
            let slots = Arc::get_mut(&mut row).expect("a row just built is not shared");
            for (col, expr) in columns.iter().zip(values) {
                let idx = schema.column_index(col)?;
                slots[idx] = eval(expr, None, params)?.into_owned();
            }
            engine.insert(txn, table_id, row)?;
            Ok(QueryResult::Affected(1))
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let table_id = engine.resolve_table(table)?;
            let schema = engine.catalog().schema(table_id)?.clone();
            let matches = matching_rows(engine, txn, table_id, &schema, filter, params)?;
            let mut affected = 0;
            for old in matches {
                // The one copy: the new image, built from the borrowed old.
                let mut new: Row = old.iter().cloned().collect();
                let values = Arc::get_mut(&mut new).expect("a row just built is not shared");
                for (col, expr) in sets {
                    let idx = schema.column_index(col)?;
                    values[idx] = eval(expr, Some((&schema, &old)), params)?.into_owned();
                }
                let key = schema.key_of(&old);
                engine.update(txn, table_id, &key, new)?;
                affected += 1;
            }
            Ok(QueryResult::Affected(affected))
        }
        Statement::Delete { table, filter } => {
            let table_id = engine.resolve_table(table)?;
            let schema = engine.catalog().schema(table_id)?.clone();
            let matches = matching_rows(engine, txn, table_id, &schema, filter, params)?;
            let mut affected = 0;
            for row in matches {
                let key = schema.key_of(&row);
                engine.delete(txn, table_id, &key)?;
                affected += 1;
            }
            Ok(QueryResult::Affected(affected))
        }
    }
}

/// What a statement walks a table for: the rows that satisfy `filter`,
/// wanted in `order` (a column position and whether descending), of which
/// the first `limit` are the answer.
struct Walk<'s> {
    filter: &'s Option<Expr>,
    params: &'s [Value],
    order: Option<(usize, bool)>,
    limit: usize,
}

/// Hands `on_match` each row of `table_id` the transaction sees that
/// satisfies the walk's filter, borrowed from the engine, and returns
/// whether they came in the walk's order; otherwise they come in
/// primary-key order. The walk is the narrowest the filter and order
/// allow -- a primary-key point; a group of a two-column index in its
/// order column's order, when the filter fixes the group column and the
/// order is on the other, unless the transaction wrote the table (its own
/// writes merge by key); a secondary-index range (a superset); else every
/// row -- and the whole filter is evaluated here, on the borrowed row,
/// whichever it was. The walk stops after `limit` matches when the rows
/// need no sort, since those are the answer.
fn for_each_match<'e>(
    engine: &'e mut Engine,
    txn: TxnHandle,
    table_id: TableId,
    schema: &TableSchema,
    walk: Walk<'_>,
    on_match: &mut dyn FnMut(&'e Row),
) -> Result<bool> {
    let Walk {
        filter,
        params,
        order,
        limit,
    } = walk;
    let (key, lo, hi, group);
    let mut access = Access::All;
    if let Some(f) = filter {
        if let Some(key_expr) = pk_equality(f, &schema.columns[schema.pk].name) {
            key = eval(key_expr, None, params)?;
            access = Access::Key(&key);
        } else {
            let constraints = index_constraints(f);
            if let Some((columns, value, desc)) =
                ordered_group(engine, txn, table_id, schema, &constraints, order)?
            {
                group = eval(value, None, params)?;
                access = Access::Ordered {
                    columns,
                    value: &group,
                    desc,
                };
            } else {
                // A conjunct constrains an indexed column to a constant range.
                for c in constraints {
                    let Ok(column) = schema.column_index(&c.column) else {
                        continue;
                    };
                    if engine.is_indexed(table_id, column)? {
                        lo = c.lo.map(|e| eval(e, None, params)).transpose()?;
                        hi = c.hi.map(|e| eval(e, None, params)).transpose()?;
                        access = Access::Index {
                            column,
                            lo: lo.as_deref(),
                            hi: hi.as_deref(),
                        };
                        break;
                    }
                }
            }
        }
    }
    let sorted = matches!(access, Access::Ordered { .. });
    let enough = if order.is_none() || sorted {
        limit
    } else {
        usize::MAX
    };
    let mut matched = 0;
    engine.visit(txn, table_id, access, &mut |_, row| {
        if let Some(f) = filter {
            if !matches_filter(f, schema, row, params)? {
                return Ok(ControlFlow::Continue(()));
            }
        }
        on_match(row);
        matched += 1;
        Ok(if matched < enough {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        })
    })?;
    Ok(sorted)
}

/// The `[group, order]` columns of a two-column index whose groups hold
/// the rows an equality conjunct fixes in the `order` wanted, with the
/// conjunct's constant and the direction; `None` if there is no such
/// index or the transaction has written the table.
fn ordered_group<'f>(
    engine: &Engine,
    txn: TxnHandle,
    table_id: TableId,
    schema: &TableSchema,
    constraints: &[IndexConstraint<'f>],
    order: Option<(usize, bool)>,
) -> Result<Option<([usize; 2], &'f Expr, bool)>> {
    let Some((column, desc)) = order else {
        return Ok(None);
    };
    if engine.wrote(txn, table_id)? {
        return Ok(None);
    }
    for c in constraints {
        let (Some(value), Some(_), Ok(group)) = (c.lo, c.hi, schema.column_index(&c.column)) else {
            continue;
        };
        if engine.has_index_on(table_id, &[group, column])? {
            return Ok(Some(([group, column], value, desc)));
        }
    }
    Ok(None)
}

/// The matching rows, for `UPDATE` and `DELETE`: the engine is written to
/// next, so each is held by its shared image rather than borrowed.
fn matching_rows(
    engine: &mut Engine,
    txn: TxnHandle,
    table_id: TableId,
    schema: &TableSchema,
    filter: &Option<Expr>,
    params: &[Value],
) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let walk = Walk {
        filter,
        params,
        order: None,
        limit: usize::MAX,
    };
    for_each_match(engine, txn, table_id, schema, walk, &mut |row| {
        rows.push(row.clone());
    })?;
    engine.note_copied(rows.len());
    Ok(rows)
}

/// A per-column range constraint extracted from a filter's AND-conjuncts:
/// `lo <= column <= hi` with constant bound expressions. Strict bounds
/// (`<`, `>`) are widened to inclusive — the index path only needs a
/// superset, the residual filter removes the boundary rows.
struct IndexConstraint<'a> {
    column: String,
    lo: Option<&'a Expr>,
    hi: Option<&'a Expr>,
}

/// Extracts index-usable constraints from the top-level AND tree, equality
/// constraints first (they prune hardest).
fn index_constraints(filter: &Expr) -> Vec<IndexConstraint<'_>> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<IndexConstraint<'a>>) {
        match e {
            Expr::Binary {
                op: BinaryOp::And,
                lhs,
                rhs,
            } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Binary { op, lhs, rhs } => {
                let (column, bound, op) = match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Column(c), b) if is_constant(b) => (c.clone(), b, *op),
                    // Mirror `const OP col` to `col OP' const`.
                    (b, Expr::Column(c)) if is_constant(b) => {
                        let flipped = match op {
                            BinaryOp::Lt => BinaryOp::Gt,
                            BinaryOp::Le => BinaryOp::Ge,
                            BinaryOp::Gt => BinaryOp::Lt,
                            BinaryOp::Ge => BinaryOp::Le,
                            other => *other,
                        };
                        (c.clone(), b, flipped)
                    }
                    _ => return,
                };
                let (lo, hi) = match op {
                    BinaryOp::Eq => (Some(bound), Some(bound)),
                    BinaryOp::Gt | BinaryOp::Ge => (Some(bound), None),
                    BinaryOp::Lt | BinaryOp::Le => (None, Some(bound)),
                    _ => return,
                };
                out.push(IndexConstraint { column, lo, hi });
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(filter, &mut out);
    // Equality constraints first.
    out.sort_by_key(|c| !(c.lo.is_some() && c.hi.is_some()));
    out
}

/// If `filter` is a conjunction containing `pk = <param-free-of-columns>`,
/// returns that key expression (enabling a point lookup).
fn pk_equality<'a>(filter: &'a Expr, pk_name: &str) -> Option<&'a Expr> {
    match filter {
        Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), e) if c == pk_name && is_constant(e) => Some(e),
            (e, Expr::Column(c)) if c == pk_name && is_constant(e) => Some(e),
            _ => None,
        },
        Expr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => pk_equality(lhs, pk_name).or_else(|| pk_equality(rhs, pk_name)),
        _ => None,
    }
}

/// Whether an expression references no columns (evaluable before row
/// access).
fn is_constant(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Column(_) => false,
        Expr::Binary { lhs, rhs, .. } => is_constant(lhs) && is_constant(rhs),
    }
}

fn matches_filter(
    filter: &Expr,
    schema: &TableSchema,
    row: &[Value],
    params: &[Value],
) -> Result<bool> {
    Ok(truthy(eval(filter, Some((schema, row)), params)?.as_ref()))
}

/// SQL truthiness: NULL and 0 are false.
fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Text(s) => !s.is_empty(),
    }
}

/// Evaluates an expression. `row` supplies column bindings; `None` forbids
/// column references (INSERT values, point-lookup keys). A literal, a
/// parameter or a column is lent as it stands; only an operator's result
/// is a new value.
pub fn eval<'a>(
    expr: &'a Expr,
    row: Option<(&TableSchema, &'a [Value])>,
    params: &'a [Value],
) -> Result<Cow<'a, Value>> {
    match expr {
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        Expr::Param(i) => params
            .get(*i)
            .map(Cow::Borrowed)
            .ok_or_else(|| Error::SqlExecution(format!("missing parameter {i}"))),
        Expr::Column(name) => match row {
            Some((schema, r)) => Ok(Cow::Borrowed(&r[schema.column_index(name)?])),
            None => Err(Error::SqlExecution(format!(
                "column reference '{name}' not allowed here"
            ))),
        },
        Expr::Binary { op, lhs, rhs } => {
            let a = eval(lhs, row, params)?;
            let b = eval(rhs, row, params)?;
            apply_binary(*op, &a, &b).map(Cow::Owned)
        }
    }
}

fn apply_binary(op: BinaryOp, a: &Value, b: &Value) -> Result<Value> {
    use BinaryOp::*;
    // SQL three-valued logic collapsed to two: comparisons with NULL are
    // false, arithmetic with NULL is NULL.
    match op {
        And => Ok(Value::Int((truthy(a) && truthy(b)) as i64)),
        Or => Ok(Value::Int((truthy(a) || truthy(b)) as i64)),
        Eq | Ne | Lt | Le | Gt | Ge => {
            if a.is_null() || b.is_null() {
                return Ok(Value::Int(0));
            }
            let ord = a.cmp(b);
            let res = match op {
                Eq => ord.is_eq(),
                Ne => ord.is_ne(),
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Int(res as i64))
        }
        Add | Sub => {
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(match op {
                    Add => x.wrapping_add(*y),
                    _ => x.wrapping_sub(*y),
                })),
                _ => {
                    let (x, y) = (
                        a.as_float().ok_or_else(|| type_err(op, a))?,
                        b.as_float().ok_or_else(|| type_err(op, b))?,
                    );
                    Ok(Value::Float(match op {
                        Add => x + y,
                        _ => x - y,
                    }))
                }
            }
        }
    }
}

fn type_err(op: BinaryOp, v: &Value) -> Error {
    Error::SqlExecution(format!("{op:?} not defined for {}", v.type_name()))
}

/// Computes an aggregate over the column values; NULLs are skipped (SQL
/// semantics). An empty input yields NULL for MIN/MAX/AVG and 0 for SUM.
fn aggregate<'a>(func: AggregateFunc, values: impl Iterator<Item = &'a Value>) -> Result<Value> {
    let vals: Vec<&Value> = values.filter(|v| !v.is_null()).collect();
    match func {
        AggregateFunc::Min => Ok(vals.iter().min().copied().cloned().unwrap_or(Value::Null)),
        AggregateFunc::Max => Ok(vals.iter().max().copied().cloned().unwrap_or(Value::Null)),
        AggregateFunc::Sum | AggregateFunc::Avg => {
            if vals.is_empty() {
                return Ok(if func == AggregateFunc::Sum {
                    Value::Int(0)
                } else {
                    Value::Null
                });
            }
            let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int && func == AggregateFunc::Sum {
                let mut acc = 0i64;
                for v in &vals {
                    acc = acc.wrapping_add(v.as_int().expect("checked"));
                }
                return Ok(Value::Int(acc));
            }
            let mut acc = 0.0f64;
            for v in &vals {
                acc += v.as_float().ok_or_else(|| {
                    Error::SqlExecution(format!("cannot aggregate {} values", v.type_name()))
                })?;
            }
            Ok(Value::Float(if func == AggregateFunc::Avg {
                acc / vals.len() as f64
            } else {
                acc
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn setup() -> (Engine, TxnHandle) {
        let mut e = Engine::new();
        execute_ddl(
            &mut e,
            &parse("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL, name TEXT NULL)").unwrap(),
        )
        .unwrap();
        let txn = e.begin();
        for i in 1..=5i64 {
            execute(
                &mut e,
                txn,
                &parse("INSERT INTO t (id, v, name) VALUES (?, ?, ?)").unwrap(),
                &[
                    Value::Int(i),
                    Value::Int(i * 10),
                    Value::Text(format!("row{i}")),
                ],
            )
            .unwrap();
        }
        e.commit_standalone(txn).unwrap();
        let txn = e.begin();
        (e, txn)
    }

    fn q(e: &mut Engine, txn: TxnHandle, sql: &str, params: &[Value]) -> QueryResult {
        execute(e, txn, &parse(sql).unwrap(), params).unwrap()
    }

    #[test]
    fn point_select() {
        let (mut e, txn) = setup();
        let r = q(
            &mut e,
            txn,
            "SELECT v FROM t WHERE id = ?",
            &[Value::Int(3)],
        );
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(30)].into()]));
    }

    #[test]
    fn select_star_and_projection() {
        let (mut e, txn) = setup();
        let r = q(&mut e, txn, "SELECT * FROM t WHERE id = 1", &[]);
        assert_eq!(
            r.rows().unwrap()[0],
            vec![Value::Int(1), Value::Int(10), Value::Text("row1".into())].into()
        );
        let r = q(&mut e, txn, "SELECT name, id FROM t WHERE id = 1", &[]);
        assert_eq!(
            r.rows().unwrap()[0],
            vec![Value::Text("row1".into()), Value::Int(1)].into()
        );
    }

    #[test]
    fn scan_with_predicate() {
        let (mut e, txn) = setup();
        let r = q(
            &mut e,
            txn,
            "SELECT id FROM t WHERE v > 20 AND v <= 40",
            &[],
        );
        let ids: Vec<i64> = r
            .rows()
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn order_by_and_limit() {
        let (mut e, txn) = setup();
        let r = q(&mut e, txn, "SELECT id FROM t ORDER BY v DESC LIMIT 2", &[]);
        let ids: Vec<i64> = r
            .rows()
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![5, 4]);
    }

    #[test]
    fn count_star() {
        let (mut e, txn) = setup();
        let r = q(&mut e, txn, "SELECT COUNT(*) FROM t WHERE v >= 30", &[]);
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(3)].into()]));
    }

    #[test]
    fn update_point_and_arith() {
        let (mut e, txn) = setup();
        let r = q(
            &mut e,
            txn,
            "UPDATE t SET v = v + 5 WHERE id = ?",
            &[Value::Int(2)],
        );
        assert_eq!(r, QueryResult::Affected(1));
        let r = q(&mut e, txn, "SELECT v FROM t WHERE id = 2", &[]);
        assert_eq!(r.rows().unwrap()[0][0], Value::Int(25));
    }

    #[test]
    fn update_scan_many() {
        let (mut e, txn) = setup();
        let r = q(&mut e, txn, "UPDATE t SET v = 0 WHERE v > 20", &[]);
        assert_eq!(r, QueryResult::Affected(3));
        let r = q(&mut e, txn, "SELECT COUNT(*) FROM t WHERE v = 0", &[]);
        assert_eq!(r.rows().unwrap()[0][0], Value::Int(3));
    }

    #[test]
    fn delete_rows() {
        let (mut e, txn) = setup();
        let r = q(&mut e, txn, "DELETE FROM t WHERE id = 1", &[]);
        assert_eq!(r, QueryResult::Affected(1));
        let r = q(&mut e, txn, "SELECT COUNT(*) FROM t", &[]);
        assert_eq!(r.rows().unwrap()[0][0], Value::Int(4));
    }

    #[test]
    fn insert_defaults_null_and_respects_nullability() {
        let (mut e, txn) = setup();
        // name omitted -> NULL, allowed (nullable)
        let r = q(&mut e, txn, "INSERT INTO t (id, v) VALUES (9, 90)", &[]);
        assert_eq!(r, QueryResult::Affected(1));
        // v omitted -> NULL in NOT NULL column: error
        let err = execute(
            &mut e,
            txn,
            &parse("INSERT INTO t (id) VALUES (10)").unwrap(),
            &[],
        );
        assert!(matches!(err, Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn null_comparisons_are_false() {
        let (mut e, txn) = setup();
        q(&mut e, txn, "INSERT INTO t (id, v) VALUES (9, 90)", &[]);
        // name is NULL for row 9; equality with NULL never matches.
        let r = q(&mut e, txn, "SELECT id FROM t WHERE name = 'row1'", &[]);
        assert_eq!(r.rows().unwrap().len(), 1);
        let r = q(&mut e, txn, "SELECT id FROM t WHERE name <> 'row1'", &[]);
        // 4 non-null non-matching rows; NULL row excluded.
        assert_eq!(r.rows().unwrap().len(), 4);
    }

    #[test]
    fn missing_params_rejected() {
        let (mut e, txn) = setup();
        let err = execute(
            &mut e,
            txn,
            &parse("SELECT * FROM t WHERE id = ?").unwrap(),
            &[],
        );
        assert!(matches!(err, Err(Error::SqlExecution(_))));
    }

    #[test]
    fn unknown_table_and_column() {
        let (mut e, txn) = setup();
        assert!(matches!(
            execute(&mut e, txn, &parse("SELECT * FROM nope").unwrap(), &[]),
            Err(Error::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&mut e, txn, &parse("SELECT nope FROM t").unwrap(), &[]),
            Err(Error::UnknownColumn(_))
        ));
    }

    #[test]
    fn ddl_through_execute_is_rejected() {
        let (mut e, txn) = setup();
        let err = execute(
            &mut e,
            txn,
            &parse("CREATE TABLE x (id INT PRIMARY KEY)").unwrap(),
            &[],
        );
        assert!(err.is_err());
    }

    #[test]
    fn pk_equality_detection() {
        let f = parse("SELECT * FROM t WHERE id = ? AND v > 3").unwrap();
        match f {
            Statement::Select {
                filter: Some(f), ..
            } => {
                assert!(pk_equality(&f, "id").is_some());
                assert!(pk_equality(&f, "v").is_none()); // v > 3 is not equality
            }
            other => panic!("wrong: {other:?}"),
        }
        // pk = column is not constant: no point lookup.
        let f = parse("SELECT * FROM t WHERE id = v").unwrap();
        match f {
            Statement::Select {
                filter: Some(f), ..
            } => {
                assert!(pk_equality(&f, "id").is_none());
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn writes_feed_the_writeset() {
        let (mut e, txn) = setup();
        q(&mut e, txn, "UPDATE t SET v = 1 WHERE id = 1", &[]);
        q(&mut e, txn, "DELETE FROM t WHERE id = 2", &[]);
        let ws = e.partial_writeset(txn).unwrap();
        assert_eq!(ws.len(), 2);
        assert!(ws.writes_row(bargain_common::TableId(0), &Value::Int(1)));
        assert!(ws.writes_row(bargain_common::TableId(0), &Value::Int(2)));
    }
}
