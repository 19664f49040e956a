//! Figure 6 — TPC-W synchronization delay under scaled load.
//!
//! "Synchronization delay" is the synchronization *start* delay for the
//! three lazy configurations and the *global commit* delay for Eager.
//! Panels: (a) shopping mix, (b) ordering mix; replicas 1–8.
//!
//! Expected shape (paper §V-C-1): the eager global commit delay dominates
//! and grows with the replica count; the lazy start delays stay small —
//! LazyFine at or below LazyCoarse, Session comparable — and are a small
//! fraction of total response time.

use bargain_bench::{fig_config, print_table, shape_check};
use bargain_common::ConsistencyMode;
use bargain_sim::{simulate, SimReport};
use bargain_workloads::{TpcwMix, TpcwWorkload};

fn main() {
    let replica_counts: Vec<usize> = if bargain_bench::quick() {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };
    let mut all_ok = true;

    for (mix, clients_per_replica) in [(TpcwMix::Shopping, 80), (TpcwMix::Ordering, 50)] {
        let mut workload = TpcwWorkload::new(mix);
        workload.carts = 8 * clients_per_replica + 16;
        let mut delays: Vec<Vec<f64>> = Vec::new(); // [mode][replica_idx]
        let mut rows = Vec::new();
        for mode in ConsistencyMode::PAPER_MODES {
            let mut per_replica = Vec::new();
            let mut row = vec![mode.label().to_owned()];
            for &n in &replica_counts {
                let report: SimReport =
                    simulate(&workload, &fig_config(mode, n, clients_per_replica * n));
                assert_eq!(report.violations, 0, "{mode} violated its guarantee");
                assert_eq!(report.unanswered, 0, "{mode} left requests unanswered");
                per_replica.push(report.avg_sync_delay_ms);
                row.push(format!("{:.2}", report.avg_sync_delay_ms));
            }
            delays.push(per_replica);
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["config".into()];
        headers.extend(replica_counts.iter().map(|n| format!("{n}r")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "Figure 6 — TPC-W {} mix, synchronization delay (ms, scaled load)",
                mix.label()
            ),
            &header_refs,
            &rows,
        );

        let idx = |m: ConsistencyMode| {
            ConsistencyMode::PAPER_MODES
                .iter()
                .position(|&x| x == m)
                .unwrap()
        };
        let last = replica_counts.len() - 1;
        let eager = &delays[idx(ConsistencyMode::Eager)];
        let coarse = &delays[idx(ConsistencyMode::LazyCoarse)];
        let fine = &delays[idx(ConsistencyMode::LazyFine)];
        all_ok &= shape_check(
            &format!(
                "{}: eager global delay exceeds every lazy start delay at max replicas",
                mix.label()
            ),
            eager[last] > coarse[last] && eager[last] > fine[last],
        );
        all_ok &= shape_check(
            &format!(
                "{}: eager global delay grows with replica count",
                mix.label()
            ),
            eager[last] > eager[0],
        );
        all_ok &= shape_check(
            &format!(
                "{}: fine-grained start delay <= coarse-grained (with slack)",
                mix.label()
            ),
            fine[last] <= coarse[last] * 1.25 + 0.2,
        );
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
