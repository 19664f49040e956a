//! Figure 5 — TPC-W throughput and response time with scaled load.
//!
//! The load (number of emulated-browser clients) scales with the number of
//! replicas: 100 clients/replica for the browsing mix, 80 for shopping, 50
//! for ordering (paper §V-C-1). One panel pair (throughput, response time)
//! per mix, replicas 1–8.
//!
//! Expected shapes (paper): browsing scales near-linearly (~7x at 8
//! replicas) for every configuration with negligible differences; shopping
//! scales ~5x for the lazy configurations with Eager ~30% slower at 8
//! replicas; ordering scales ~3x for the lazy configurations while Eager
//! barely scales and its response time grows with the replica count.
//!
//! Usage: `fig5 [--mix browsing|shopping|ordering]` (default: all three).

use bargain_bench::{fig_config, print_table, shape_check};
use bargain_common::ConsistencyMode;
use bargain_sim::{simulate, SimReport};
use bargain_workloads::{TpcwMix, TpcwWorkload};

fn clients_per_replica(mix: TpcwMix) -> usize {
    match mix {
        TpcwMix::Browsing => 100,
        TpcwMix::Shopping => 80,
        TpcwMix::Ordering => 50,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only: Option<TpcwMix> = args
        .iter()
        .position(|a| a == "--mix")
        .and_then(|i| args.get(i + 1))
        .map(|m| match m.as_str() {
            "browsing" => TpcwMix::Browsing,
            "shopping" => TpcwMix::Shopping,
            "ordering" => TpcwMix::Ordering,
            other => panic!("unknown mix: {other}"),
        });
    let replica_counts: Vec<usize> = if bargain_bench::quick() {
        vec![1, 2, 4, 8]
    } else {
        (1..=8).collect()
    };

    let mut all_ok = true;
    for mix in TpcwMix::ALL {
        if let Some(only) = only {
            if only != mix {
                continue;
            }
        }
        let mut workload = TpcwWorkload::new(mix);
        workload.carts = 8 * clients_per_replica(mix) + 16;
        // reports[mode][replica_idx]
        let mut reports: Vec<Vec<SimReport>> = Vec::new();
        for mode in ConsistencyMode::PAPER_MODES {
            let mut per_replicas = Vec::new();
            for &n in &replica_counts {
                let clients = clients_per_replica(mix) * n;
                let report = simulate(&workload, &fig_config(mode, n, clients));
                assert_eq!(
                    report.violations,
                    0,
                    "{mode} violated its guarantee ({} mix, {n} replicas)",
                    mix.label()
                );
                assert_eq!(report.unanswered, 0, "{mode} left requests unanswered");
                per_replicas.push(report);
            }
            reports.push(per_replicas);
        }

        for (title, value) in [("throughput (TPS)", 0usize), ("response time (ms)", 1usize)] {
            let mut rows = Vec::new();
            for (mi, mode) in ConsistencyMode::PAPER_MODES.iter().enumerate() {
                let mut row = vec![mode.label().to_owned()];
                for (ri, _) in replica_counts.iter().enumerate() {
                    let r = &reports[mi][ri];
                    row.push(if value == 0 {
                        format!("{:.0}", r.tps)
                    } else {
                        format!("{:.1}", r.avg_response_ms)
                    });
                }
                rows.push(row);
            }
            let mut headers: Vec<String> = vec!["config".into()];
            headers.extend(replica_counts.iter().map(|n| format!("{n}r")));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(
                &format!(
                    "Figure 5 — TPC-W {} mix, {title} (scaled load)",
                    mix.label()
                ),
                &header_refs,
                &rows,
            );
        }

        // Shape checks.
        let idx = |m: ConsistencyMode| {
            ConsistencyMode::PAPER_MODES
                .iter()
                .position(|&x| x == m)
                .unwrap()
        };
        let last = replica_counts.len() - 1;
        let fine = &reports[idx(ConsistencyMode::LazyFine)];
        let session = &reports[idx(ConsistencyMode::Session)];
        let eager = &reports[idx(ConsistencyMode::Eager)];
        let speedup = |r: &Vec<SimReport>| r[last].tps / r[0].tps;
        match mix {
            TpcwMix::Browsing => {
                all_ok &= shape_check(
                    "browsing: all configurations scale together (eager within 15% of fine)",
                    eager[last].tps > fine[last].tps * 0.85,
                );
                all_ok &= shape_check(
                    &format!(
                        "browsing: near-linear scaling for lazy (got {:.1}x at {} replicas)",
                        speedup(fine),
                        replica_counts[last]
                    ),
                    speedup(fine) > 0.7 * replica_counts[last] as f64,
                );
            }
            TpcwMix::Shopping => {
                all_ok &= shape_check(
                    &format!(
                        "shopping: lazy scales well (got {:.1}x at {} replicas)",
                        speedup(fine),
                        replica_counts[last]
                    ),
                    speedup(fine) > 0.5 * replica_counts[last] as f64,
                );
                all_ok &= shape_check(
                    "shopping: eager clearly slower than lazy at max replicas",
                    eager[last].tps < fine[last].tps * 0.9,
                );
                all_ok &= shape_check(
                    "shopping: LazyFine matches Session (within 10%)",
                    (fine[last].tps - session[last].tps).abs() / session[last].tps < 0.10,
                );
            }
            TpcwMix::Ordering => {
                all_ok &= shape_check(
                    &format!(
                        "ordering: lazy still scales (got {:.1}x at {} replicas)",
                        speedup(fine),
                        replica_counts[last]
                    ),
                    speedup(fine) > 0.3 * replica_counts[last] as f64,
                );
                all_ok &= shape_check(
                    "ordering: eager clearly below lazy at max replicas",
                    eager[last].tps < fine[last].tps * 0.85,
                );
                // "ESC can barely scale its performance": beyond the middle
                // of the sweep, adding replicas buys eager almost nothing.
                let mid = replica_counts.len() / 2;
                all_ok &= shape_check(
                    &format!(
                        "ordering: eager plateaus ({}r within 15% of {}r)",
                        replica_counts[last], replica_counts[mid]
                    ),
                    eager[last].tps <= eager[mid].tps * 1.15,
                );
                all_ok &= shape_check(
                    "ordering: eager response time grows with replicas",
                    eager[last].avg_response_ms > eager[0].avg_response_ms,
                );
            }
        }
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
