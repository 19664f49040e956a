//! Prepared statements, transaction templates, and static table-set
//! extraction.
//!
//! In the automated environments the paper targets (e-commerce middle
//! tiers), applications issue a *predefined* set of transactions, each a
//! fixed sequence of prepared statements. The tables a statement touches
//! are syntactically evident, so the set of tables a whole transaction may
//! access — its **table-set** — is known statically. The table-set is a
//! superset of the transaction's data-set; synchronizing a replica on just
//! the table-set before start preserves strong consistency (paper §III-C,
//! Theorem 2).

use crate::ast::Statement;
use crate::exec::{execute, QueryResult};
use crate::parser::{parse, MAX_SQL_BYTES};
use bargain_common::{Error, Result, TableSet, TemplateId, Value};
use bargain_storage::{Catalog, Engine, TxnHandle};

/// A parsed, reusable statement.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedStatement {
    /// Original SQL text (for tracing).
    pub sql: String,
    /// Parsed form.
    pub stmt: Statement,
}

impl PreparedStatement {
    /// Parses `sql` once for repeated execution.
    pub fn prepare(sql: &str) -> Result<Self> {
        Ok(PreparedStatement {
            sql: sql.to_owned(),
            stmt: parse(sql)?,
        })
    }

    /// Executes with positional parameters inside `txn`.
    pub fn execute(
        &self,
        engine: &mut Engine,
        txn: TxnHandle,
        params: &[Value],
    ) -> Result<QueryResult> {
        execute(engine, txn, &self.stmt, params)
    }

    /// The table this statement touches (`None` for DDL).
    #[must_use]
    pub fn table_name(&self) -> Option<&str> {
        self.stmt.table_name()
    }

    /// Whether the statement can modify data.
    #[must_use]
    pub fn is_update(&self) -> bool {
        self.stmt.is_update()
    }

    /// Number of `?` parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.stmt.param_count()
    }
}

/// Resolves statement table names against a catalog to produce
/// [`TableSet`]s.
#[derive(Debug, Clone, Copy)]
pub struct TableSetExtractor<'a> {
    catalog: &'a Catalog,
}

impl<'a> TableSetExtractor<'a> {
    /// An extractor over `catalog`.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        TableSetExtractor { catalog }
    }

    /// The table-set of a sequence of statements: the union of each
    /// statement's referenced table.
    pub fn table_set(&self, statements: &[PreparedStatement]) -> Result<TableSet> {
        let mut set = TableSet::empty();
        for s in statements {
            if let Some(name) = s.table_name() {
                set.insert(self.catalog.resolve(name)?);
            }
        }
        Ok(set)
    }
}

/// A predefined transaction type: a named, fixed sequence of prepared
/// statements. Clients tag their transaction requests with the template's
/// [`TemplateId`] so the load balancer can look up the statically extracted
/// table-set (paper §IV-B).
#[derive(Debug, Clone)]
pub struct TransactionTemplate {
    /// Identifier clients send with each transaction request.
    pub id: TemplateId,
    /// Human-readable name (e.g. `"tpcw.buy_confirm"`).
    pub name: String,
    /// The statements, in execution order.
    pub statements: Vec<PreparedStatement>,
}

impl TransactionTemplate {
    /// Builds a template by preparing each SQL string. More than
    /// [`MAX_SQL_BYTES`] of SQL in all is refused with [`Error::SqlParse`].
    pub fn new(id: TemplateId, name: &str, sqls: &[&str]) -> Result<Self> {
        let bytes: usize = sqls.iter().map(|s| s.len()).sum();
        if bytes > MAX_SQL_BYTES {
            return Err(Error::SqlParse(format!(
                "template of {bytes} bytes of SQL; the limit is {MAX_SQL_BYTES}"
            )));
        }
        let statements = sqls
            .iter()
            .map(|s| PreparedStatement::prepare(s))
            .collect::<Result<Vec<_>>>()?;
        Ok(TransactionTemplate {
            id,
            name: name.to_owned(),
            statements,
        })
    }

    /// Statically extracts this template's table-set against a catalog.
    pub fn table_set(&self, catalog: &Catalog) -> Result<TableSet> {
        TableSetExtractor::new(catalog).table_set(&self.statements)
    }

    /// Whether any statement can modify data.
    #[must_use]
    pub fn is_update(&self) -> bool {
        self.statements.iter().any(PreparedStatement::is_update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_ddl;
    use bargain_common::TableId;

    fn catalog3() -> Engine {
        let mut e = Engine::new();
        for name in ["a", "b", "c"] {
            execute_ddl(
                &mut e,
                &parse(&format!("CREATE TABLE {name} (id INT PRIMARY KEY, v INT)")).unwrap(),
            )
            .unwrap();
        }
        e
    }

    #[test]
    fn prepared_statement_roundtrip() {
        let p = PreparedStatement::prepare("SELECT * FROM a WHERE id = ?").unwrap();
        assert_eq!(p.table_name(), Some("a"));
        assert!(!p.is_update());
        assert_eq!(p.param_count(), 1);

        let u = PreparedStatement::prepare("UPDATE a SET v = ? WHERE id = ?").unwrap();
        assert!(u.is_update());
        assert_eq!(u.param_count(), 2);
    }

    #[test]
    fn prepared_execute() {
        let mut e = catalog3();
        let txn = e.begin();
        let ins = PreparedStatement::prepare("INSERT INTO a (id, v) VALUES (?, ?)").unwrap();
        ins.execute(&mut e, txn, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        let sel = PreparedStatement::prepare("SELECT v FROM a WHERE id = ?").unwrap();
        let r = sel.execute(&mut e, txn, &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows().unwrap()[0][0], Value::Int(2));
    }

    #[test]
    fn table_set_extraction_unions_statements() {
        let e = catalog3();
        let tmpl = TransactionTemplate::new(
            TemplateId(1),
            "mixed",
            &[
                "SELECT * FROM a WHERE id = ?",
                "UPDATE b SET v = ? WHERE id = ?",
                "SELECT * FROM a WHERE id = ?", // duplicate table
            ],
        )
        .unwrap();
        let ts = tmpl.table_set(e.catalog()).unwrap();
        assert_eq!(ts, TableSet::from_iter([TableId(0), TableId(1)]));
        assert!(tmpl.is_update());
    }

    #[test]
    fn read_only_template() {
        let e = catalog3();
        let tmpl = TransactionTemplate::new(TemplateId(2), "ro", &["SELECT * FROM c WHERE id = ?"])
            .unwrap();
        assert!(!tmpl.is_update());
        let ts = tmpl.table_set(e.catalog()).unwrap();
        assert_eq!(ts, TableSet::from_iter([TableId(2)]));
    }

    #[test]
    fn unknown_table_in_template_errors_at_extraction() {
        let e = catalog3();
        let tmpl = TransactionTemplate::new(TemplateId(3), "bad", &["SELECT * FROM zzz"]).unwrap();
        assert!(tmpl.table_set(e.catalog()).is_err());
    }

    #[test]
    fn bad_sql_fails_at_prepare_time() {
        assert!(TransactionTemplate::new(TemplateId(4), "bad", &["SELEKT"]).is_err());
    }

    #[test]
    fn a_template_is_bounded_by_its_text_in_all() {
        // Each statement is under the bound; all of them together are not.
        let one = format!("SELECT * FROM a WHERE id = 1{}", " + 1".repeat(100));
        let many = vec![one.as_str(); 1 + MAX_SQL_BYTES / one.len()];
        assert!(TransactionTemplate::new(TemplateId(5), "ok", &many[1..]).is_ok());
        let Err(Error::SqlParse(why)) = TransactionTemplate::new(TemplateId(5), "big", &many)
        else {
            panic!("a template past the bound must be refused");
        };
        assert!(why.contains("bytes"), "{why}");
    }
}
