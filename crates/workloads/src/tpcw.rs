//! The TPC-W online-bookstore workload (paper §V-C).
//!
//! TPC-W models an online bookstore driven by emulated browsers. The paper
//! uses its three standard mixes, which differ in the fraction of update
//! transactions: **browsing** (5% updates), **shopping** (20%), and
//! **ordering** (50%). Client think time between consecutive requests is
//! negative-exponentially distributed.
//!
//! The schema and the twelve transaction templates below are a faithful
//! single-table-statement rendering of the TPC-W web interactions (the
//! replication middleware under study is agnostic to intra-statement query
//! complexity; what matters is each transaction's *table-set* and
//! *writeset*, which this rendering preserves — see DESIGN.md).

use crate::client::ClientContext;
use crate::Workload;
use bargain_common::{Result, TemplateId, Value};
use bargain_sql::TransactionTemplate;
use bargain_storage::Engine;

/// The three TPC-W transaction mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpcwMix {
    /// 5% update transactions.
    Browsing,
    /// 20% update transactions (the most representative mix).
    Shopping,
    /// 50% update transactions (the most update-intensive mix).
    Ordering,
}

impl TpcwMix {
    /// All mixes, in the paper's order.
    pub const ALL: [TpcwMix; 3] = [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering];

    /// Label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TpcwMix::Browsing => "browsing",
            TpcwMix::Shopping => "shopping",
            TpcwMix::Ordering => "ordering",
        }
    }

    /// Nominal update-transaction fraction.
    #[must_use]
    pub fn update_fraction(self) -> f64 {
        match self {
            TpcwMix::Browsing => 0.05,
            TpcwMix::Shopping => 0.20,
            TpcwMix::Ordering => 0.50,
        }
    }

    /// Per-template weights (indexed by the `T_*` constants), derived from
    /// the TPC-W interaction mixes.
    fn weights(self) -> [f64; 12] {
        match self {
            // home, new_prod, best_sell, detail, search_req, search_res,
            // order_inq, | cart, register, buy_req, buy_conf, admin
            TpcwMix::Browsing => [
                29.0, 11.0, 11.0, 21.0, 12.0, 11.0, 0.55, //
                2.60, 0.82, 0.75, 0.69, 0.19,
            ],
            TpcwMix::Shopping => [
                16.0, 5.0, 5.0, 17.0, 20.0, 16.2, 0.80, //
                13.5, 1.30, 2.60, 1.50, 1.10,
            ],
            TpcwMix::Ordering => [
                9.12, 0.46, 0.46, 12.35, 14.53, 12.53, 0.55, //
                13.86, 12.86, 12.73, 10.18, 0.37,
            ],
        }
    }
}

// Template ids (stable across the workspace's benches and tests).
/// Home interaction (read-only).
pub const T_HOME: TemplateId = TemplateId(0);
/// New-products listing (read-only).
pub const T_NEW_PRODUCTS: TemplateId = TemplateId(1);
/// Best-sellers listing (read-only).
pub const T_BEST_SELLERS: TemplateId = TemplateId(2);
/// Product detail page (read-only).
pub const T_PRODUCT_DETAIL: TemplateId = TemplateId(3);
/// Search request (read-only).
pub const T_SEARCH_REQUEST: TemplateId = TemplateId(4);
/// Search result by author (read-only).
pub const T_SEARCH_RESULT: TemplateId = TemplateId(5);
/// Order inquiry/display (read-only).
pub const T_ORDER_INQUIRY: TemplateId = TemplateId(6);
/// Add to shopping cart (update).
pub const T_SHOPPING_CART: TemplateId = TemplateId(7);
/// Customer registration (update).
pub const T_CUSTOMER_REG: TemplateId = TemplateId(8);
/// Buy request (update).
pub const T_BUY_REQUEST: TemplateId = TemplateId(9);
/// Buy confirm (update; the heaviest transaction).
pub const T_BUY_CONFIRM: TemplateId = TemplateId(10);
/// Admin confirm: item update (update).
pub const T_ADMIN_CONFIRM: TemplateId = TemplateId(11);

/// Scale and mix configuration.
#[derive(Debug, Clone)]
pub struct TpcwWorkload {
    /// Which mix to generate.
    pub mix: TpcwMix,
    /// Number of items (paper/TPC-W standard: 10,000; default reduced for
    /// simulation speed — absolute scale does not affect protocol shape).
    pub items: usize,
    /// Number of pre-loaded customers.
    pub customers: usize,
    /// Number of pre-loaded shopping carts (must be ≥ the number of
    /// concurrent clients; each client uses cart `client % carts + 1`).
    pub carts: usize,
    /// Number of pre-loaded orders (with 3 order lines each).
    pub orders: usize,
    /// Mean think time in ms (negative exponential; see EXPERIMENTS.md on
    /// the scaling of the paper's think time to simulated capacity).
    pub think_time_ms: f64,
}

impl TpcwWorkload {
    /// A workload at default scale for the given mix.
    #[must_use]
    pub fn new(mix: TpcwMix) -> Self {
        TpcwWorkload {
            mix,
            items: 1_000,
            customers: 1_440,
            carts: 4_096,
            orders: 500,
            think_time_ms: 100.0,
        }
    }

    /// A reduced-scale instance for fast tests.
    #[must_use]
    pub fn small(mix: TpcwMix) -> Self {
        TpcwWorkload {
            mix,
            items: 50,
            customers: 20,
            carts: 64,
            orders: 10,
            think_time_ms: 0.0,
        }
    }

    const SUBJECTS: u64 = 24;

    fn authors(&self) -> usize {
        (self.items / 4).max(1)
    }

    fn cart_of(&self, ctx: &ClientContext) -> i64 {
        (ctx.client.0 % self.carts as u64) as i64 + 1
    }
}

impl Workload for TpcwWorkload {
    fn name(&self) -> &str {
        "tpcw"
    }

    fn ddl(&self) -> Vec<String> {
        [
            "CREATE TABLE country (co_id INT PRIMARY KEY, co_name TEXT NOT NULL)",
            "CREATE TABLE address (addr_id INT PRIMARY KEY, addr_street TEXT NOT NULL, \
             addr_co_id INT NOT NULL)",
            "CREATE TABLE customer (c_id INT PRIMARY KEY, c_uname TEXT NOT NULL, \
             c_discount FLOAT NOT NULL, c_balance FLOAT NOT NULL, c_addr_id INT NOT NULL)",
            "CREATE TABLE author (a_id INT PRIMARY KEY, a_fname TEXT NOT NULL, \
             a_lname TEXT NOT NULL)",
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT NOT NULL, \
             i_a_id INT NOT NULL, i_subject INT NOT NULL, i_cost FLOAT NOT NULL, \
             i_stock INT NOT NULL, i_pub_date INT NOT NULL)",
            "CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT NOT NULL, \
             o_date INT NOT NULL, o_total FLOAT NOT NULL, o_status TEXT NOT NULL)",
            "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT NOT NULL, \
             ol_i_id INT NOT NULL, ol_qty INT NOT NULL)",
            "CREATE TABLE cc_xacts (cx_o_id INT PRIMARY KEY, cx_type TEXT NOT NULL, \
             cx_amount FLOAT NOT NULL)",
            "CREATE TABLE shopping_cart (sc_id INT PRIMARY KEY, sc_time INT NOT NULL, \
             sc_total FLOAT NOT NULL)",
            "CREATE TABLE shopping_cart_line (scl_id INT PRIMARY KEY, scl_sc_id INT NOT NULL, \
             scl_i_id INT NOT NULL, scl_qty INT NOT NULL)",
            // Secondary indexes backing the non-primary-key access paths
            // of the web interactions (as the TPC-W schema prescribes).
            // `item_subject_date` serves New Products: it walks one
            // subject's items newest first and stops at the 20th, where
            // `item_subject` alone hands out every item of the subject to
            // be sorted.
            "CREATE INDEX item_subject ON item (i_subject)",
            "CREATE INDEX item_subject_date ON item (i_subject, i_pub_date)",
            "CREATE INDEX item_author ON item (i_a_id)",
            "CREATE INDEX orders_customer ON orders (o_c_id)",
            "CREATE INDEX order_line_order ON order_line (ol_o_id)",
            "CREATE INDEX order_line_item ON order_line (ol_i_id)",
            "CREATE INDEX cart_line_cart ON shopping_cart_line (scl_sc_id)",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
    }

    fn templates(&self) -> Vec<TransactionTemplate> {
        let t = |id, name, sqls: &[&str]| {
            TransactionTemplate::new(id, name, sqls).expect("static SQL parses")
        };
        vec![
            t(
                T_HOME,
                "tpcw.home",
                &[
                    "SELECT * FROM customer WHERE c_id = ?",
                    "SELECT * FROM item WHERE i_id = ?",
                ],
            ),
            t(
                T_NEW_PRODUCTS,
                "tpcw.new_products",
                &["SELECT * FROM item WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT 20"],
            ),
            t(
                T_BEST_SELLERS,
                "tpcw.best_sellers",
                &[
                    "SELECT * FROM order_line WHERE ol_i_id = ? LIMIT 20",
                    "SELECT * FROM item WHERE i_id = ?",
                ],
            ),
            t(
                T_PRODUCT_DETAIL,
                "tpcw.product_detail",
                &[
                    "SELECT * FROM item WHERE i_id = ?",
                    "SELECT * FROM author WHERE a_id = ?",
                ],
            ),
            t(
                T_SEARCH_REQUEST,
                "tpcw.search_request",
                &["SELECT * FROM item WHERE i_subject = ? LIMIT 20"],
            ),
            t(
                T_SEARCH_RESULT,
                "tpcw.search_result",
                &[
                    "SELECT * FROM author WHERE a_id = ?",
                    "SELECT * FROM item WHERE i_a_id = ? LIMIT 20",
                ],
            ),
            t(
                T_ORDER_INQUIRY,
                "tpcw.order_inquiry",
                &[
                    "SELECT * FROM orders WHERE o_c_id = ? LIMIT 10",
                    "SELECT * FROM order_line WHERE ol_o_id = ? LIMIT 10",
                ],
            ),
            t(
                T_SHOPPING_CART,
                "tpcw.shopping_cart",
                &[
                    "UPDATE shopping_cart SET sc_time = ?, sc_total = sc_total + ? WHERE sc_id = ?",
                    "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) \
                     VALUES (?, ?, ?, ?)",
                ],
            ),
            t(
                T_CUSTOMER_REG,
                "tpcw.customer_registration",
                &[
                    "INSERT INTO address (addr_id, addr_street, addr_co_id) VALUES (?, ?, ?)",
                    "INSERT INTO customer (c_id, c_uname, c_discount, c_balance, c_addr_id) \
                     VALUES (?, ?, ?, ?, ?)",
                ],
            ),
            t(
                T_BUY_REQUEST,
                "tpcw.buy_request",
                &[
                    "SELECT * FROM customer WHERE c_id = ?",
                    "UPDATE shopping_cart SET sc_time = ? WHERE sc_id = ?",
                ],
            ),
            t(
                T_BUY_CONFIRM,
                "tpcw.buy_confirm",
                &[
                    "INSERT INTO orders (o_id, o_c_id, o_date, o_total, o_status) \
                     VALUES (?, ?, ?, ?, 'pending')",
                    "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
                    "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
                    "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
                    "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount) VALUES (?, 'VISA', ?)",
                    "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?",
                    "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?",
                ],
            ),
            t(
                T_ADMIN_CONFIRM,
                "tpcw.admin_confirm",
                &["UPDATE item SET i_cost = ?, i_pub_date = ? WHERE i_id = ?"],
            ),
        ]
    }

    fn populate(&self, engine: &mut Engine) -> Result<()> {
        let load = |e: &mut Engine, name: &str, rows: Vec<Vec<Value>>| -> Result<()> {
            let t = e.resolve_table(name)?;
            e.load_rows(t, rows)
        };
        load(
            engine,
            "country",
            (1..=92i64)
                .map(|i| vec![Value::Int(i), Value::Text(format!("country{i}"))])
                .collect(),
        )?;
        load(
            engine,
            "address",
            (1..=self.customers as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text(format!("{i} Main St")),
                        Value::Int(i % 92 + 1),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "customer",
            (1..=self.customers as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text(format!("user{i}")),
                        Value::Float((i % 50) as f64 / 100.0),
                        Value::Float(0.0),
                        Value::Int(i),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "author",
            (1..=self.authors() as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text(format!("First{i}")),
                        Value::Text(format!("Last{i}")),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "item",
            (1..=self.items as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text(format!("The Art of Item {i}")),
                        Value::Int(i % self.authors() as i64 + 1),
                        Value::Int(i % Self::SUBJECTS as i64 + 1),
                        Value::Float(10.0 + (i % 90) as f64),
                        Value::Int(100),
                        Value::Int(20_000_000 + i),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "orders",
            (1..=self.orders as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(i % self.customers as i64 + 1),
                        Value::Int(20_080_101),
                        Value::Float(99.0),
                        Value::Text("shipped".into()),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "order_line",
            (0..self.orders as i64 * 3)
                .map(|n| {
                    vec![
                        Value::Int(n + 1),
                        Value::Int(n / 3 + 1),
                        Value::Int(n % self.items as i64 + 1),
                        Value::Int(n % 5 + 1),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "cc_xacts",
            (1..=self.orders as i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text("VISA".into()),
                        Value::Float(99.0),
                    ]
                })
                .collect(),
        )?;
        load(
            engine,
            "shopping_cart",
            (1..=self.carts as i64)
                .map(|i| vec![Value::Int(i), Value::Int(0), Value::Float(0.0)])
                .collect(),
        )?;
        // shopping_cart_line starts empty: lines are created by the
        // shopping-cart interaction and drained by buy-confirm.
        Ok(())
    }

    fn next_transaction(&self, ctx: &mut ClientContext) -> (TemplateId, Vec<Vec<Value>>) {
        let weights = self.mix.weights();
        let pick = ctx.pick_weighted(&weights);
        let items = self.items as u64;
        let customers = self.customers as u64;
        let authors = self.authors() as u64;
        let cart = self.cart_of(ctx);
        match pick {
            0 => (
                T_HOME,
                vec![
                    vec![Value::Int(ctx.uniform_key(customers))],
                    vec![Value::Int(ctx.uniform_key(items))],
                ],
            ),
            1 => (
                T_NEW_PRODUCTS,
                vec![vec![Value::Int(ctx.uniform_key(Self::SUBJECTS))]],
            ),
            2 => (
                T_BEST_SELLERS,
                vec![
                    vec![Value::Int(ctx.uniform_key(items))],
                    vec![Value::Int(ctx.uniform_key(items))],
                ],
            ),
            3 => (
                T_PRODUCT_DETAIL,
                vec![
                    vec![Value::Int(ctx.uniform_key(items))],
                    vec![Value::Int(ctx.uniform_key(authors))],
                ],
            ),
            4 => (
                T_SEARCH_REQUEST,
                vec![vec![Value::Int(ctx.uniform_key(Self::SUBJECTS))]],
            ),
            5 => {
                let a = ctx.uniform_key(authors);
                (
                    T_SEARCH_RESULT,
                    vec![vec![Value::Int(a)], vec![Value::Int(a)]],
                )
            }
            6 => (
                T_ORDER_INQUIRY,
                vec![
                    vec![Value::Int(ctx.uniform_key(customers))],
                    vec![Value::Int(ctx.uniform_key(self.orders.max(1) as u64))],
                ],
            ),
            7 => {
                let scl = ctx.fresh_id();
                let item = ctx.uniform_key(items);
                let qty = ctx.uniform_key(5);
                (
                    T_SHOPPING_CART,
                    vec![
                        vec![
                            Value::Int(20_080_101),
                            Value::Float(qty as f64 * 10.0),
                            Value::Int(cart),
                        ],
                        vec![
                            Value::Int(scl),
                            Value::Int(cart),
                            Value::Int(item),
                            Value::Int(qty),
                        ],
                    ],
                )
            }
            8 => {
                let c = ctx.fresh_id();
                let addr = ctx.fresh_id();
                (
                    T_CUSTOMER_REG,
                    vec![
                        vec![
                            Value::Int(addr),
                            Value::Text(format!("{addr} New St")),
                            Value::Int(ctx.uniform_key(92)),
                        ],
                        vec![
                            Value::Int(c),
                            Value::Text(format!("newuser{c}")),
                            Value::Float(0.1),
                            Value::Float(0.0),
                            Value::Int(addr),
                        ],
                    ],
                )
            }
            9 => (
                T_BUY_REQUEST,
                vec![
                    vec![Value::Int(ctx.uniform_key(customers))],
                    vec![Value::Int(20_080_102), Value::Int(cart)],
                ],
            ),
            10 => {
                let o = ctx.fresh_id();
                let (ol1, ol2, ol3) = (ctx.fresh_id(), ctx.fresh_id(), ctx.fresh_id());
                let item = ctx.uniform_key(items);
                let c = ctx.uniform_key(customers);
                (
                    T_BUY_CONFIRM,
                    vec![
                        vec![
                            Value::Int(o),
                            Value::Int(c),
                            Value::Int(20_080_103),
                            Value::Float(123.0),
                        ],
                        vec![
                            Value::Int(ol1),
                            Value::Int(o),
                            Value::Int(item),
                            Value::Int(1),
                        ],
                        vec![
                            Value::Int(ol2),
                            Value::Int(o),
                            Value::Int(ctx.uniform_key(items)),
                            Value::Int(2),
                        ],
                        vec![
                            Value::Int(ol3),
                            Value::Int(o),
                            Value::Int(ctx.uniform_key(items)),
                            Value::Int(1),
                        ],
                        vec![Value::Int(o), Value::Float(123.0)],
                        vec![Value::Int(1), Value::Int(item)],
                        vec![Value::Int(cart)],
                    ],
                )
            }
            _ => (
                T_ADMIN_CONFIRM,
                vec![vec![
                    Value::Float(15.0),
                    Value::Int(20_080_104),
                    Value::Int(ctx.uniform_key(items)),
                ]],
            ),
        }
    }

    fn mean_think_time_ms(&self) -> f64 {
        self.think_time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::ClientId;
    use bargain_sql::execute;

    #[test]
    fn install_populates_all_tables() {
        let w = TpcwWorkload::small(TpcwMix::Shopping);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        assert_eq!(e.catalog().len(), 10);
        let items = e.resolve_table("item").unwrap();
        assert_eq!(
            e.table(items)
                .unwrap()
                .live_count(bargain_common::Version::ZERO),
            50
        );
    }

    #[test]
    fn table_sets_are_static_and_correct() {
        let w = TpcwWorkload::small(TpcwMix::Shopping);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        let templates = w.templates();
        let buy_confirm = templates.iter().find(|t| t.id == T_BUY_CONFIRM).unwrap();
        let ts = buy_confirm.table_set(e.catalog()).unwrap();
        // orders, order_line, cc_xacts, item, shopping_cart_line
        assert_eq!(ts.len(), 5);
        let admin = templates.iter().find(|t| t.id == T_ADMIN_CONFIRM).unwrap();
        assert_eq!(admin.table_set(e.catalog()).unwrap().len(), 1);
        let home = templates.iter().find(|t| t.id == T_HOME).unwrap();
        assert!(!home.is_update());
        assert!(buy_confirm.is_update());
    }

    #[test]
    fn mix_update_fractions_roughly_match() {
        for mix in TpcwMix::ALL {
            let w = TpcwWorkload::small(mix);
            let mut ctx = ClientContext::new(11, ClientId(1));
            let n = 20_000;
            let updates = (0..n)
                .filter(|_| w.next_transaction(&mut ctx).0 .0 >= T_SHOPPING_CART.0)
                .count();
            let frac = updates as f64 / n as f64;
            let want = mix.update_fraction();
            assert!(
                (frac - want).abs() < 0.02,
                "{}: update fraction {frac}, want ~{want}",
                mix.label()
            );
        }
    }

    #[test]
    fn thousands_of_generated_transactions_execute_cleanly() {
        let w = TpcwWorkload::small(TpcwMix::Ordering);
        let mut e = Engine::new();
        w.install(&mut e).unwrap();
        let templates = w.templates();
        // Two interleaving-free clients; standalone SI commits.
        for client in 0..2u64 {
            let mut ctx = ClientContext::new(5, ClientId(client));
            for _ in 0..500 {
                let (tid, params) = w.next_transaction(&mut ctx);
                let tmpl = templates.iter().find(|t| t.id == tid).unwrap();
                assert_eq!(tmpl.statements.len(), params.len(), "{}", tmpl.name);
                let txn = e.begin();
                for (stmt, p) in tmpl.statements.iter().zip(&params) {
                    execute(&mut e, txn, &stmt.stmt, p)
                        .unwrap_or_else(|err| panic!("{}: {err}", tmpl.name));
                }
                e.commit_standalone(txn)
                    .unwrap_or_else(|err| panic!("{}: {err}", tmpl.name));
            }
        }
        assert!(e.version() > bargain_common::Version::ZERO);
    }

    /// A joiner built from a donor's snapshot has the donor's indexes and
    /// answers New Products as the donor does: the same rows, from the
    /// same number of rows examined -- 20, not the subject's ≈ 80 items.
    #[test]
    fn a_joiner_answers_new_products_as_its_donor_does() {
        let w = TpcwWorkload {
            items: 2_000,
            ..TpcwWorkload::small(TpcwMix::Shopping)
        };
        let mut donor = Engine::new();
        w.install(&mut donor).unwrap();
        let templates = w.templates();
        let mut ctx = ClientContext::new(3, ClientId(0));
        // An open reader keeps the history of what runs after it, new
        // publication dates among it, in the snapshot.
        let reader = donor.begin();
        for _ in 0..2_000 {
            let (tid, params) = w.next_transaction(&mut ctx);
            let tmpl = templates.iter().find(|t| t.id == tid).unwrap();
            let txn = donor.begin();
            for (stmt, p) in tmpl.statements.iter().zip(&params) {
                execute(&mut donor, txn, &stmt.stmt, p).unwrap();
            }
            donor.commit_standalone(txn).unwrap();
        }
        let snapshot = donor.export_snapshot(64 * 1024);
        let mut joiner = Engine::import_snapshot(&snapshot.manifest, &snapshot.chunks).unwrap();
        for (id, _) in donor.catalog().iter() {
            let indexes = |e: &Engine| e.table(id).unwrap().index_columns();
            assert_eq!(indexes(&donor), indexes(&joiner));
        }

        let new_products = templates.iter().find(|t| t.id == T_NEW_PRODUCTS).unwrap();
        let stmt = &new_products.statements[0].stmt;
        let answer = |e: &mut Engine, subject: i64| {
            let before = e.stats().reads;
            let txn = e.begin();
            let rows = execute(e, txn, stmt, &[Value::Int(subject)]).unwrap();
            e.commit_read_only(txn).unwrap();
            (rows, e.stats().reads - before)
        };
        for subject in 1..=TpcwWorkload::SUBJECTS as i64 {
            let (rows, examined) = answer(&mut donor, subject);
            assert_eq!(rows.rows().unwrap().len(), 20, "subject {subject}");
            assert_eq!(examined, 20, "subject {subject}");
            assert_eq!(answer(&mut joiner, subject), (rows, examined));
        }
        donor.abort(reader).unwrap();
    }

    #[test]
    fn param_counts_match_templates() {
        let w = TpcwWorkload::new(TpcwMix::Browsing);
        let templates = w.templates();
        let mut ctx = ClientContext::new(2, ClientId(9));
        for _ in 0..2000 {
            let (tid, params) = w.next_transaction(&mut ctx);
            let tmpl = templates.iter().find(|t| t.id == tid).unwrap();
            for (stmt, p) in tmpl.statements.iter().zip(&params) {
                assert!(
                    p.len() >= stmt.param_count(),
                    "{}: statement wants {} params, got {}",
                    tmpl.name,
                    stmt.param_count(),
                    p.len()
                );
            }
        }
    }

    #[test]
    fn mix_labels_and_fractions() {
        assert_eq!(TpcwMix::Browsing.label(), "browsing");
        assert_eq!(TpcwMix::Shopping.update_fraction(), 0.20);
        assert_eq!(TpcwMix::Ordering.update_fraction(), 0.50);
    }
}
