//! The customized micro-benchmark (paper §V-B).
//!
//! Database: 4 tables of 10,000 records each; each table has an integer
//! primary key, an integer field, and a 100-character text field. The
//! workload has one read template and one update template per table; each
//! transaction retrieves or updates one random record from one table.
//! Transactions are issued back-to-back (no think time) in a closed loop.

use crate::client::ClientContext;
use crate::Workload;
use bargain_common::{Result, Row, TemplateId, Value};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;

/// The configurable micro-benchmark.
#[derive(Debug, Clone)]
pub struct MicroBenchmark {
    /// Number of tables (paper: 4).
    pub tables: usize,
    /// Rows per table (paper: 10,000).
    pub rows_per_table: usize,
    /// Fraction of update transactions in `[0, 1]` (the experimental
    /// variable of Figure 3).
    pub update_ratio: f64,
    /// Width of the text payload column (paper: 100 characters).
    pub payload_chars: usize,
    /// If set, updates target only the first `hot_tables` tables (reads
    /// stay uniform over all tables). `None` = updates uniform too. Used by
    /// the granularity ablation: with update-free tables, the fine-grained
    /// technique can start read transactions on them with no delay at all
    /// (paper §III-C).
    pub hot_tables: Option<usize>,
    /// Mean client think time in ms (paper: 0 — back-to-back closed loop).
    pub think_time_ms: f64,
    /// Zipf exponent for key selection (0 = uniform, as in the paper;
    /// higher values concentrate accesses on hot keys — used by the
    /// contention ablation to drive certification-conflict rates).
    pub key_skew: f64,
}

impl Default for MicroBenchmark {
    fn default() -> Self {
        MicroBenchmark {
            tables: 4,
            rows_per_table: 10_000,
            update_ratio: 0.25,
            payload_chars: 100,
            hot_tables: None,
            think_time_ms: 0.0,
            key_skew: 0.0,
        }
    }
}

impl MicroBenchmark {
    /// A paper-scale benchmark with the given update ratio.
    #[must_use]
    pub fn with_update_ratio(update_ratio: f64) -> Self {
        MicroBenchmark {
            update_ratio,
            ..Self::default()
        }
    }

    /// A reduced-scale instance for fast tests.
    #[must_use]
    pub fn small(update_ratio: f64) -> Self {
        MicroBenchmark {
            tables: 4,
            rows_per_table: 100,
            update_ratio,
            payload_chars: 16,
            hot_tables: None,
            think_time_ms: 0.0,
            key_skew: 0.0,
        }
    }

    fn table_name(i: usize) -> String {
        format!("bench{i}")
    }

    /// The read template for table `i` has id `2*i`; the update template
    /// has id `2*i + 1`.
    #[must_use]
    pub fn read_template(i: usize) -> TemplateId {
        TemplateId((2 * i) as u32)
    }

    /// See [`MicroBenchmark::read_template`].
    #[must_use]
    pub fn update_template(i: usize) -> TemplateId {
        TemplateId((2 * i + 1) as u32)
    }
}

impl Workload for MicroBenchmark {
    fn name(&self) -> &str {
        "micro"
    }

    fn ddl(&self) -> Vec<String> {
        (0..self.tables)
            .map(|i| {
                format!(
                    "CREATE TABLE {} (pk INT PRIMARY KEY, val INT NOT NULL, pad TEXT NOT NULL)",
                    Self::table_name(i)
                )
            })
            .collect()
    }

    fn templates(&self) -> Vec<TransactionTemplate> {
        let mut out = Vec::with_capacity(self.tables * 2);
        for i in 0..self.tables {
            let t = Self::table_name(i);
            out.push(
                TransactionTemplate::new(
                    Self::read_template(i),
                    &format!("micro.read.{t}"),
                    &[&format!("SELECT * FROM {t} WHERE pk = ?")],
                )
                .expect("static SQL parses"),
            );
            out.push(
                TransactionTemplate::new(
                    Self::update_template(i),
                    &format!("micro.update.{t}"),
                    &[&format!("UPDATE {t} SET val = ? WHERE pk = ?")],
                )
                .expect("static SQL parses"),
            );
        }
        out
    }

    fn populate(&self, engine: &mut Engine) -> Result<()> {
        let pad: String = "x".repeat(self.payload_chars);
        for i in 0..self.tables {
            let table = engine.resolve_table(&Self::table_name(i))?;
            let rows = (1..=self.rows_per_table as i64)
                .map(|pk| Row::from([Value::Int(pk), Value::Int(pk * 7), Value::Text(pad.clone())]))
                .collect();
            engine.load_rows(table, rows)?;
        }
        Ok(())
    }

    fn next_transaction(&self, ctx: &mut ClientContext) -> (TemplateId, Vec<Vec<Value>>) {
        let key = ctx.zipf_key(self.rows_per_table as u64, self.key_skew);
        if ctx.flip(self.update_ratio) {
            let span = self.hot_tables.unwrap_or(self.tables).clamp(1, self.tables);
            let table = ctx.rng().gen_range(0..span);
            let new_val = ctx.uniform_key(1_000_000);
            (
                Self::update_template(table),
                vec![vec![Value::Int(new_val), Value::Int(key)]],
            )
        } else {
            let table = ctx.rng().gen_range(0..self.tables);
            (Self::read_template(table), vec![vec![Value::Int(key)]])
        }
    }

    fn mean_think_time_ms(&self) -> f64 {
        self.think_time_ms
    }
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::ClientId;
    use bargain_sql::execute;

    #[test]
    fn install_creates_and_fills_tables() {
        let w = MicroBenchmark::small(0.5);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        assert_eq!(e.catalog().len(), 4);
        let t0 = e.resolve_table("bench0").unwrap();
        assert_eq!(
            e.table(t0)
                .unwrap()
                .live_count(bargain_common::Version::ZERO),
            100
        );
    }

    #[test]
    fn templates_have_singleton_table_sets() {
        let w = MicroBenchmark::small(0.5);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        for (i, tmpl) in w.templates().iter().enumerate() {
            let ts = tmpl.table_set(e.catalog()).unwrap();
            assert_eq!(ts.len(), 1, "template {i} should touch one table");
        }
    }

    #[test]
    fn update_ratio_zero_generates_only_reads() {
        let w = MicroBenchmark::small(0.0);
        let mut ctx = ClientContext::new(1, ClientId(1));
        for _ in 0..200 {
            let (tid, _) = w.next_transaction(&mut ctx);
            assert_eq!(tid.0 % 2, 0, "template {tid} is an update");
        }
    }

    #[test]
    fn update_ratio_one_generates_only_updates() {
        let w = MicroBenchmark::small(1.0);
        let mut ctx = ClientContext::new(1, ClientId(1));
        for _ in 0..200 {
            let (tid, _) = w.next_transaction(&mut ctx);
            assert_eq!(tid.0 % 2, 1, "template {tid} is a read");
        }
    }

    #[test]
    fn intermediate_ratio_is_roughly_respected() {
        let w = MicroBenchmark::small(0.25);
        let mut ctx = ClientContext::new(42, ClientId(1));
        let n = 10_000;
        let updates = (0..n)
            .filter(|_| w.next_transaction(&mut ctx).0 .0 % 2 == 1)
            .count();
        let frac = updates as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "update fraction {frac}");
    }

    #[test]
    fn generated_transactions_execute() {
        let w = MicroBenchmark::small(0.5);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        let templates = w.templates();
        let mut ctx = ClientContext::new(3, ClientId(1));
        for _ in 0..100 {
            let (tid, params) = w.next_transaction(&mut ctx);
            let tmpl = templates.iter().find(|t| t.id == tid).unwrap();
            let txn = e.begin();
            for (stmt, p) in tmpl.statements.iter().zip(&params) {
                let r = execute(&mut e, txn, &stmt.stmt, p).unwrap();
                if !stmt.is_update() {
                    assert_eq!(r.rows().unwrap().len(), 1, "read must hit a row");
                }
            }
            e.commit_standalone(txn).unwrap();
        }
        assert!(e.version() > bargain_common::Version::ZERO);
    }
}
