//! The five workloads: what each generates, how it is deployed and driven,
//! and why it is in the benchmark.
//!
//! The program under test receives only generated transactions; the seed
//! is an argument of the benchmark and reaches nothing but
//! `ClientContext::new`.

use bargain_common::{TemplateId, Value};
use bargain_workloads::tpcw::{T_ADMIN_CONFIRM, T_BUY_CONFIRM, T_PRODUCT_DETAIL};
use bargain_workloads::{ClientContext, MicroBenchmark, TpcwMix, TpcwWorkload, Workload};
use std::sync::Arc;

/// One generated transaction: the workload's template id and the
/// parameters of each statement.
pub type Txn = (TemplateId, Vec<Vec<Value>>);

/// Connections, and load-generating threads, per deployment (`nproc` = 2
/// on the box the benchmark was sized on).
pub const CONNECTIONS: usize = 2;

/// Workload names, in the order an interleaved schedule runs them.
pub const NAMES: [&str; 5] = [
    "micro_read",
    "micro_update",
    "micro_update_split",
    "tpcw_shopping",
    "micro_mixed_sat",
];

/// The write-then-read pair of the hidden-channel check.
pub struct Probe {
    /// The update connection A commits, carrying `marker`.
    pub write: fn(marker: i64) -> Txn,
    /// The read connection B issues right after A's reply.
    pub read: fn() -> Txn,
    /// Column of the first result's first row that must equal `marker`.
    pub column: usize,
}

/// A workload of the benchmark.
pub struct Spec {
    /// Its name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark: which layers do the work.
    pub why: &'static str,
    /// The generator, schema and initial data.
    pub workload: Arc<dyn Workload>,
    /// Certification behind `CertifierServer` + `RemoteCertifierLink`
    /// (the paper's deployment) instead of the in-process thread.
    pub split_certifier: bool,
    /// Requests each connection keeps outstanding. 1 is
    /// `RemoteSession::run`, one at a time; more goes through the
    /// harness's own wire client.
    pub window: usize,
    /// The hidden-channel check's transactions.
    pub probe: Probe,
}

const MICRO_ROWS: usize = 10_000;
const TPCW_ITEMS: usize = 10_000;
/// The row the hidden-channel check writes and reads.
const PROBE_KEY: i64 = 7;

fn micro(update_ratio: f64) -> Arc<dyn Workload> {
    // Paper scale: 4 tables x 10 000 rows, 100-character pad.
    let w = MicroBenchmark::with_update_ratio(update_ratio);
    assert_eq!((w.tables, w.rows_per_table), (4, MICRO_ROWS));
    Arc::new(w)
}

const MICRO_PROBE: Probe = Probe {
    write: |marker| {
        (
            MicroBenchmark::update_template(1),
            vec![vec![Value::Int(marker), Value::Int(PROBE_KEY)]],
        )
    },
    read: || {
        (
            MicroBenchmark::read_template(1),
            vec![vec![Value::Int(PROBE_KEY)]],
        )
    },
    column: 1, // bench1.val
};

const TPCW_PROBE: Probe = Probe {
    write: |marker| {
        (
            T_ADMIN_CONFIRM,
            vec![vec![
                Value::Float(15.0),
                Value::Int(marker),
                Value::Int(PROBE_KEY),
            ]],
        )
    },
    read: || {
        (
            T_PRODUCT_DETAIL,
            vec![vec![Value::Int(PROBE_KEY)], vec![Value::Int(1)]],
        )
    },
    column: 6, // item.i_pub_date
};

/// Looks a workload up by name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "micro_read" => Spec {
            name: "micro_read",
            why:
                "point reads only: wire codec, reactor-worker handoff, routing and the SQL/storage \
                  read path do all the work; certifier, WAL and refresh do none",
            workload: micro(0.0),
            split_certifier: false,
            window: 1,
            probe: MICRO_PROBE,
        },
        "micro_update" => Spec {
            name: "micro_update",
            why:
                "updates only, in-process certifier: finish, certify, decision, refresh fan-out to \
                  2 replicas and refresh apply carry the latency over the same net path",
            workload: micro(1.0),
            split_certifier: false,
            window: 1,
            probe: MICRO_PROBE,
        },
        "micro_update_split" => Spec {
            name: "micro_update_split",
            why: "the same update stream with certification behind CertifierServer over TCP, the \
                  paper's deployment: isolates the certifier link and its blocking serve loop",
            workload: micro(1.0),
            split_certifier: true,
            window: 1,
            probe: MICRO_PROBE,
        },
        "tpcw_shopping" => Spec {
            name: "tpcw_shopping",
            why: "TPC-W shopping mix, 20 % updates, multi-statement templates and index lookups: \
                  sql and storage dominate, readers and writers share replicas",
            workload: Arc::new(TpcwWorkload {
                items: TPCW_ITEMS,
                customers: 14_400,
                orders: 5_000,
                think_time_ms: 0.0,
                ..TpcwWorkload::new(TpcwMix::Shopping)
            }),
            split_certifier: false,
            window: 1,
            probe: TPCW_PROBE,
        },
        "micro_mixed_sat" => Spec {
            name: "micro_mixed_sat",
            why:
                "50 % updates with 16 requests outstanding per connection: the only workload that \
                  saturates the server, so batching and anything parallel show as capacity",
            workload: micro(0.5),
            split_certifier: false,
            window: 16,
            probe: MICRO_PROBE,
        },
        _ => return None,
    };
    Some(spec)
}

/// Moves `key` (1-based, over an even-sized range) to the nearest key of
/// connection `conn`'s half: connection 0 owns the odd keys, 1 the even.
fn own_half(key: &mut Value, conn: usize) {
    if let Value::Int(k) = key {
        *k = (*k - 1) / 2 * 2 + 1 + conn as i64;
    }
}

impl Spec {
    /// Draws connection `conn`'s next transaction.
    ///
    /// Rows that two connections could both update are split between
    /// them, so that certification never aborts: the benchmark measures
    /// the cost of committing, not of contention, and an abort is a failed
    /// operation the harness never retries. A connection's own requests
    /// run serially at the server, so they cannot conflict either.
    /// Everything else the generators write is already private to a
    /// client (its cart, its fresh ids).
    pub fn next(&self, ctx: &mut ClientContext, conn: usize) -> Txn {
        let (template, mut params) = self.workload.next_transaction(ctx);
        if self.workload.name() == "micro" {
            if template.0 % 2 == 1 {
                // UPDATE benchN SET val = ? WHERE pk = ?
                own_half(&mut params[0][1], conn);
            }
        } else if template == T_BUY_CONFIRM {
            // The first order line's item is the one whose stock drops.
            own_half(&mut params[1][2], conn);
            own_half(&mut params[5][1], conn);
        } else if template == T_ADMIN_CONFIRM {
            own_half(&mut params[0][2], conn);
        }
        (template, params)
    }
}
