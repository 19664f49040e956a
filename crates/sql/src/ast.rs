//! Abstract syntax for the supported SQL subset.

use bargain_common::Value;
use bargain_storage::ColumnType;

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
}

impl BinaryOp {
    /// Whether this operator yields a boolean.
    #[must_use]
    pub fn is_predicate(self) -> bool {
        !matches!(self, BinaryOp::Add | BinaryOp::Sub)
    }
}

/// An expression: literals, column references, parameters, and binary
/// operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A reference to a column of the statement's (single) table.
    Column(String),
    /// The `n`-th positional `?` parameter (0-based).
    Param(usize),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Number of parameters referenced in this expression.
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            Expr::Param(i) => i + 1,
            Expr::Binary { lhs, rhs, .. } => lhs.param_count().max(rhs.param_count()),
            _ => 0,
        }
    }
}

/// An aggregate function over one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFunc {
    /// `SUM(col)`
    Sum,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `AVG(col)`
    Avg,
}

/// The projection of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols {
    /// `SELECT *`
    Star,
    /// `SELECT COUNT(*)`
    CountStar,
    /// `SELECT SUM(col)` / `MIN` / `MAX` / `AVG`
    Aggregate {
        /// The aggregate function.
        func: AggregateFunc,
        /// The aggregated column.
        column: String,
    },
    /// `SELECT a, b, c`
    Columns(Vec<String>),
}

/// Sort direction for `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderDirection {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE INDEX name ON table (col)` or `… (group_col, order_col)`
    CreateIndex {
        /// Index name (informational).
        name: String,
        /// Table to index.
        table: String,
        /// Columns to index: one, or a group column then an order column.
        columns: Vec<String>,
    },
    /// `CREATE TABLE name (col type [null], ..., PRIMARY KEY (col))`
    CreateTable {
        /// Table name.
        name: String,
        /// Columns: `(name, type, nullable)`.
        columns: Vec<(String, ColumnType, bool)>,
        /// Name of the primary-key column.
        primary_key: String,
    },
    /// `SELECT ... FROM table [WHERE ...] [ORDER BY col [DESC]] [LIMIT n]`
    Select {
        /// Projection.
        cols: SelectCols,
        /// Table name.
        table: String,
        /// Optional filter predicate.
        filter: Option<Expr>,
        /// Optional sort column and direction.
        order_by: Option<(String, OrderDirection)>,
        /// Optional row limit.
        limit: Option<u64>,
    },
    /// `INSERT INTO table (cols) VALUES (exprs)`
    Insert {
        /// Table name.
        table: String,
        /// Target column names.
        columns: Vec<String>,
        /// Value expressions, positionally matching `columns`.
        values: Vec<Expr>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE ...]`
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Optional filter predicate.
        filter: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE ...]`
    Delete {
        /// Table name.
        table: String,
        /// Optional filter predicate.
        filter: Option<Expr>,
    },
}

impl Statement {
    /// The single table this statement touches, or `None` for DDL (which is
    /// outside the replicated transaction path).
    #[must_use]
    pub fn table_name(&self) -> Option<&str> {
        match self {
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => None,
            Statement::Select { table, .. }
            | Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => Some(table),
        }
    }

    /// Whether the statement can modify data.
    #[must_use]
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. }
        )
    }

    /// Number of `?` parameters the statement expects.
    #[must_use]
    pub fn param_count(&self) -> usize {
        fn opt(e: &Option<Expr>) -> usize {
            e.as_ref().map(Expr::param_count).unwrap_or(0)
        }
        match self {
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => 0,
            Statement::Select { filter, .. } => opt(filter),
            Statement::Insert { values, .. } => {
                values.iter().map(Expr::param_count).max().unwrap_or(0)
            }
            Statement::Update { sets, filter, .. } => sets
                .iter()
                .map(|(_, e)| e.param_count())
                .max()
                .unwrap_or(0)
                .max(opt(filter)),
            Statement::Delete { filter, .. } => opt(filter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_nested() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            lhs: Box::new(Expr::Binary {
                op: BinaryOp::Eq,
                lhs: Box::new(Expr::Column("a".into())),
                rhs: Box::new(Expr::Param(0)),
            }),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Gt,
                lhs: Box::new(Expr::Column("b".into())),
                rhs: Box::new(Expr::Param(2)),
            }),
        };
        assert_eq!(e.param_count(), 3);
        assert_eq!(Expr::Lit(Value::Int(1)).param_count(), 0);
    }

    #[test]
    fn statement_classification() {
        let sel = Statement::Select {
            cols: SelectCols::Star,
            table: "t".into(),
            filter: None,
            order_by: None,
            limit: None,
        };
        assert!(!sel.is_update());
        assert_eq!(sel.table_name(), Some("t"));

        let del = Statement::Delete {
            table: "t".into(),
            filter: Some(Expr::Param(0)),
        };
        assert!(del.is_update());
        assert_eq!(del.param_count(), 1);
    }

    #[test]
    fn predicate_classification() {
        assert!(BinaryOp::Eq.is_predicate());
        assert!(BinaryOp::And.is_predicate());
        assert!(!BinaryOp::Add.is_predicate());
    }
}
