//! Figure 3 — micro-benchmark throughput vs update-transaction ratio.
//!
//! Paper setup: 4 tables × 10,000 rows; each transaction reads or updates
//! one random row; 8 replicas; closed loop, no think time; the X axis
//! sweeps the update ratio from 0% to 100%.
//!
//! Expected shape (paper §V-B): all configurations coincide at 0% updates;
//! throughput falls as the update ratio rises; Eager sits well below the
//! three lazy configurations (≈40% at ≥25% updates in the paper); LazyFine
//! tracks Session, with LazyCoarse marginally (≈5%) behind.

use bargain_bench::{fig_config, print_table, report_row, shape_check};
use bargain_common::ConsistencyMode;
use bargain_sim::simulate;
use bargain_workloads::MicroBenchmark;

fn main() {
    let replicas = 8;
    let clients = 64; // 8 clients/replica (see EXPERIMENTS.md on scaling)
    let ratios = [0.0, 0.25, 0.5, 0.75, 1.0];

    let mut tps: Vec<Vec<f64>> = Vec::new(); // [ratio][mode]
    for &ratio in &ratios {
        let workload = MicroBenchmark::with_update_ratio(ratio);
        let mut rows = Vec::new();
        let mut per_mode = Vec::new();
        for mode in ConsistencyMode::PAPER_MODES {
            let report = simulate(&workload, &fig_config(mode, replicas, clients));
            assert_eq!(
                report.violations, 0,
                "{mode} violated its consistency guarantee"
            );
            assert_eq!(report.unanswered, 0, "{mode} left requests unanswered");
            per_mode.push(report.tps);
            rows.push(report_row(&report));
        }
        tps.push(per_mode);
        print_table(
            &format!(
                "Figure 3 — micro-benchmark, {}% updates",
                (ratio * 100.0) as u32
            ),
            &[
                "config",
                "TPS",
                "resp_ms",
                "sync_ms",
                "aborts",
                "violations",
            ],
            &rows,
        );
    }

    // Shape checks against the paper.
    println!();
    let idx = |m: ConsistencyMode| {
        ConsistencyMode::PAPER_MODES
            .iter()
            .position(|&x| x == m)
            .unwrap()
    };
    let (coarse, fine, session, eager) = (
        idx(ConsistencyMode::LazyCoarse),
        idx(ConsistencyMode::LazyFine),
        idx(ConsistencyMode::Session),
        idx(ConsistencyMode::Eager),
    );
    let mut ok = true;
    // Quick runs use short measurement intervals; tolerate more noise.
    let (tight, loose) = if bargain_bench::quick() {
        (0.20, 0.25)
    } else {
        (0.05, 0.10)
    };
    let ro = &tps[0];
    let ro_max = ro.iter().cloned().fold(f64::MIN, f64::max);
    let ro_min = ro.iter().cloned().fold(f64::MAX, f64::min);
    ok &= shape_check(
        "0% updates: all four configurations coincide",
        (ro_max - ro_min) / ro_max < tight,
    );
    for (i, &ratio) in ratios.iter().enumerate().skip(1) {
        ok &= shape_check(
            &format!(
                "{}% updates: Eager below every lazy configuration",
                (ratio * 100.0) as u32
            ),
            tps[i][eager] < tps[i][coarse]
                && tps[i][eager] < tps[i][fine]
                && tps[i][eager] < tps[i][session],
        );
        ok &= shape_check(
            &format!(
                "{}% updates: LazyFine within 5% of Session",
                (ratio * 100.0) as u32
            ),
            (tps[i][fine] - tps[i][session]).abs() / tps[i][session] < tight,
        );
        ok &= shape_check(
            &format!(
                "{}% updates: LazyCoarse within 10% of Session",
                (ratio * 100.0) as u32
            ),
            (tps[i][coarse] - tps[i][session]).abs() / tps[i][session] < loose,
        );
    }
    ok &= shape_check(
        "throughput decreases as update ratio rises (lazy modes)",
        tps[0][fine] > tps[2][fine] && tps[2][fine] > tps[4][fine],
    );
    std::process::exit(if ok { 0 } else { 1 });
}
