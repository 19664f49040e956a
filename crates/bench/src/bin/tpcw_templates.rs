//! What each TPC-W template costs on one storage engine, with no network,
//! certifier or replica around it: loads TPC-W (shopping mix) at the
//! scale of the end-to-end benchmark's `tpcw_shopping`, runs generated
//! transactions back to back as standalone snapshot-isolation
//! transactions, and prints each template's runs, mean µs, rows examined
//! per run (what the engine handed its readers, `EngineStats::reads`) and
//! share of all execution time. Garbage is collected every 1 000 transactions,
//! outside the timed sections, as a replica's own collection would.
//!
//! ```text
//! cargo run --release -p bargain-bench --bin tpcw_templates [transactions] [seed]
//! ```
//!
//! The defaults are 200 000 transactions and seed 1.

use bargain_common::ClientId;
use bargain_storage::Engine;
use bargain_workloads::{ClientContext, TpcwMix, TpcwWorkload, Workload};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Client contexts drawn from in turn: each has its own shopping cart.
const CLIENTS: u64 = 8;

#[derive(Default)]
struct Cost {
    runs: u64,
    failed: u64,
    time: Duration,
    /// Rows examined.
    reads: u64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: u64| {
        args.next()
            .map_or(default, |a| a.parse().expect("a whole number"))
    };
    let (transactions, seed) = (arg(200_000), arg(1));
    let workload = TpcwWorkload {
        items: 10_000,
        customers: 14_400,
        orders: 5_000,
        think_time_ms: 0.0,
        ..TpcwWorkload::new(TpcwMix::Shopping)
    };
    let mut engine = Engine::new();
    let loading = Instant::now();
    workload.install(&mut engine).expect("TPC-W loads");
    let loaded = loading.elapsed();

    let templates: HashMap<_, _> = workload
        .templates()
        .into_iter()
        .map(|t| (t.id, t))
        .collect();
    let mut ctxs: Vec<ClientContext> = (0..CLIENTS)
        .map(|c| ClientContext::new(seed, ClientId(c)))
        .collect();
    let mut costs: HashMap<&str, Cost> = HashMap::new();
    let mut collecting = Duration::ZERO;
    for n in 0..transactions {
        let ctx = &mut ctxs[(n % CLIENTS) as usize];
        let (id, params) = workload.next_transaction(ctx);
        let template = &templates[&id];
        let reads = engine.stats().reads;
        let started = Instant::now();
        let txn = engine.begin();
        let ran = template
            .statements
            .iter()
            .zip(&params)
            .try_for_each(|(stmt, params)| stmt.execute(&mut engine, txn, params).map(drop));
        let committed = match ran {
            Ok(()) if template.is_update() => engine.commit_standalone(txn).map(drop),
            Ok(()) => engine.commit_read_only(txn),
            Err(e) => engine.abort(txn).and(Err(e)),
        };
        let cost = costs.entry(&template.name).or_default();
        cost.time += started.elapsed();
        cost.reads += engine.stats().reads - reads;
        cost.runs += 1;
        cost.failed += u64::from(committed.is_err());
        if n % 1_000 == 999 {
            let started = Instant::now();
            engine.gc();
            collecting += started.elapsed();
        }
    }

    let total: Duration = costs.values().map(|c| c.time).sum();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "tpcw_templates: {transactions} transactions, seed {seed}, nproc {nproc}; load {:.1} ms, \
         collection {:.1} ms",
        loaded.as_secs_f64() * 1e3,
        collecting.as_secs_f64() * 1e3
    );
    println!(
        "  {:<26} {:>8} {:>7} {:>10} {:>9} {:>7}",
        "template", "runs", "failed", "mean_us", "rows/run", "share"
    );
    let mut rows: Vec<_> = costs.into_iter().collect();
    rows.sort_by_key(|(_, cost)| std::cmp::Reverse(cost.time));
    for (name, cost) in &rows {
        println!(
            "  {name:<26} {:>8} {:>7} {:>10.2} {:>9.1} {:>6.1}%",
            cost.runs,
            cost.failed,
            cost.time.as_secs_f64() * 1e6 / cost.runs as f64,
            cost.reads as f64 / cost.runs as f64,
            100.0 * cost.time.as_secs_f64() / total.as_secs_f64()
        );
    }
    println!(
        "  {:<26} {transactions:>8} {:>7} {:>10.2} {:>9.1} {:>6.1}%",
        "all",
        rows.iter().map(|(_, c)| c.failed).sum::<u64>(),
        total.as_secs_f64() * 1e6 / transactions as f64,
        rows.iter().map(|(_, c)| c.reads).sum::<u64>() as f64 / transactions as f64,
        100.0
    );
}
