//! Figure 7 — TPC-W response time with a *fixed* load (replication used to
//! reduce response time rather than to scale throughput).
//!
//! The client population is constant regardless of the replica count: 80
//! clients for the shopping mix, 50 for ordering (paper §V-C-2); replicas
//! sweep 1–8.
//!
//! Expected shape (paper): for the lazy configurations response time
//! gradually decreases and flattens once enough replicas absorb the load;
//! for Eager it *increases* with the replica count in the ordering mix —
//! more replicas mean a higher global commit delay, since every update
//! waits for the slowest of them.

use bargain_bench::{fig_config, print_table, shape_check};
use bargain_common::ConsistencyMode;
use bargain_sim::simulate;
use bargain_workloads::{TpcwMix, TpcwWorkload};

fn main() {
    let replica_counts: Vec<usize> = if bargain_bench::quick() {
        vec![1, 2, 4, 8]
    } else {
        (1..=8).collect()
    };
    let mut all_ok = true;

    // The fixed load is chosen to overload a 1-replica cluster (as in the
    // paper, where one replica served the full client population at ~4x its
    // comfortable load), so that added replicas visibly reduce response
    // time. See EXPERIMENTS.md for the capacity scaling.
    for (mix, clients) in [(TpcwMix::Shopping, 320), (TpcwMix::Ordering, 200)] {
        let mut workload = TpcwWorkload::new(mix);
        workload.carts = clients + 16;
        let mut rt: Vec<Vec<f64>> = Vec::new(); // [mode][replica_idx]
        let mut rows = Vec::new();
        for mode in ConsistencyMode::PAPER_MODES {
            let mut per_replica = Vec::new();
            let mut row = vec![mode.label().to_owned()];
            for &n in &replica_counts {
                let report = simulate(&workload, &fig_config(mode, n, clients));
                assert_eq!(report.violations, 0, "{mode} violated its guarantee");
                assert_eq!(report.unanswered, 0, "{mode} left requests unanswered");
                per_replica.push(report.avg_response_ms);
                row.push(format!("{:.1}", report.avg_response_ms));
            }
            rt.push(per_replica);
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["config".into()];
        headers.extend(replica_counts.iter().map(|n| format!("{n}r")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "Figure 7 — TPC-W {} mix, response time (ms, fixed load of {clients} clients)",
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
        let fine = &rt[idx(ConsistencyMode::LazyFine)];
        let coarse = &rt[idx(ConsistencyMode::LazyCoarse)];
        let eager = &rt[idx(ConsistencyMode::Eager)];
        all_ok &= shape_check(
            &format!(
                "{}: lazy response time decreases as replicas are added",
                mix.label()
            ),
            fine[last] < fine[0] * 0.8 && coarse[last] < coarse[0] * 0.8,
        );
        all_ok &= shape_check(
            &format!(
                "{}: eager responds slower than lazy at max replicas",
                mix.label()
            ),
            eager[last] > fine[last],
        );
        if mix == TpcwMix::Ordering {
            // Once the initial overload is absorbed, each added replica
            // *raises* eager's response time (the global commit delay is
            // set by the slowest of more replicas): the curve climbs well
            // above its minimum by 8 replicas.
            let eager_min = eager.iter().cloned().fold(f64::MAX, f64::min);
            all_ok &= shape_check(
                "ordering: eager response time climbs with replicas past its minimum",
                eager[last] > eager_min * 1.5,
            );
        }
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
