#![warn(missing_docs)]
//! # bargain-sql
//!
//! A small SQL front-end over the [`bargain_storage`] engine: tokenizer,
//! recursive-descent parser, executor, and prepared statements.
//!
//! The subset implemented is the subset the paper's environment needs —
//! *automated* workloads made of predefined transactions, each a fixed
//! sequence of **prepared statements** parameterised with `?` placeholders:
//!
//! - `CREATE TABLE t (col TYPE [NULL], ..., PRIMARY KEY (col))`
//! - `SELECT cols | * | COUNT(*) FROM t [WHERE expr] [ORDER BY col [DESC]] [LIMIT n]`
//! - `INSERT INTO t (cols) VALUES (exprs)`
//! - `UPDATE t SET col = expr, ... [WHERE expr]`
//! - `DELETE FROM t [WHERE expr]`
//!
//! Single-table statements only (the replication path is agnostic to query
//! shape; see DESIGN.md).
//!
//! ## Static table-set extraction
//!
//! The crucial piece for the paper's **fine-grained** technique is
//! [`Statement::table_name`] / [`TableSetExtractor`]: given the prepared
//! statements of a transaction template, the set of tables the transaction
//! can touch is known *before execution*, and the load balancer uses it to
//! compute the minimum replica version the transaction must observe.

pub mod ast;
pub mod exec;
pub mod parser;
pub mod prepared;
pub mod token;

pub use ast::{AggregateFunc, BinaryOp, Expr, OrderDirection, SelectCols, Statement};
pub use exec::{execute, execute_ddl, QueryResult};
pub use parser::{parse, MAX_EXPR_DEPTH, MAX_SQL_BYTES};
pub use prepared::{PreparedStatement, TableSetExtractor, TransactionTemplate};
