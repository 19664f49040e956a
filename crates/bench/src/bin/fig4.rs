//! Figure 4 — micro-benchmark latency breakdown per transaction stage.
//!
//! Two panels: (a) the 25% update mix, (b) the 100% update mix. Stages are
//! the paper's: `version` (synchronization start delay), `queries`,
//! `certify`, `sync` (ordered-apply wait), `commit`, and `global` (eager's
//! global commit delay).
//!
//! Expected shape (paper §V-B): lazy configurations pay small start
//! delays, with LazyFine's at or below LazyCoarse's; Eager starts
//! immediately but pays a `global` delay an order of magnitude above the
//! lazy synchronization delays; all stage costs grow from the 25% to the
//! 100% mix.

use bargain_bench::{fig_config, print_table, shape_check};
use bargain_common::ConsistencyMode;
use bargain_sim::{simulate, StageBreakdown};
use bargain_workloads::MicroBenchmark;

fn main() {
    let replicas = 8;
    let clients = 64;
    let mut ok = true;

    for (panel, ratio) in [
        ("4(a) — 25% update mix", 0.25),
        ("4(b) — 100% update mix", 1.0),
    ] {
        let workload = MicroBenchmark::with_update_ratio(ratio);
        let mut rows = Vec::new();
        let mut breakdowns: Vec<(ConsistencyMode, StageBreakdown)> = Vec::new();
        for mode in ConsistencyMode::PAPER_MODES {
            let report = simulate(&workload, &fig_config(mode, replicas, clients));
            assert_eq!(report.violations, 0, "{mode} violated its guarantee");
            assert_eq!(report.unanswered, 0, "{mode} left requests unanswered");
            let b = report.breakdown_all;
            rows.push(vec![
                mode.label().to_owned(),
                format!("{:.2}", b.version_ms),
                format!("{:.2}", b.queries_ms),
                format!("{:.2}", b.certify_ms),
                format!("{:.2}", b.sync_ms),
                format!("{:.2}", b.commit_ms),
                format!("{:.2}", b.global_ms),
                format!("{:.2}", b.total_ms()),
            ]);
            breakdowns.push((mode, b));
        }
        print_table(
            &format!("Figure {panel} — latency breakdown (ms per stage)"),
            &[
                "config", "version", "queries", "certify", "sync", "commit", "global", "total",
            ],
            &rows,
        );

        let get = |m: ConsistencyMode| {
            breakdowns
                .iter()
                .find(|(mode, _)| *mode == m)
                .map(|(_, b)| *b)
                .unwrap()
        };
        let eager = get(ConsistencyMode::Eager);
        let coarse = get(ConsistencyMode::LazyCoarse);
        let fine = get(ConsistencyMode::LazyFine);
        ok &= shape_check(
            &format!("{panel}: Eager has zero start delay but a global stage"),
            eager.version_ms < 0.01 && eager.global_ms > 0.0,
        );
        if ratio < 0.5 {
            // Paper §V-B on the 25% mix: "the latency for [Eager] is
            // therefore 36% more than the latency for the other
            // configurations".
            ok &= shape_check(
                &format!("{panel}: Eager total latency >=20% above LazyCoarse (paper: +36%)"),
                eager.total_ms() > 1.20 * coarse.total_ms(),
            );
            ok &= shape_check(
                &format!("{panel}: Eager's global delay exceeds lazy start delays"),
                eager.global_ms > coarse.version_ms && eager.global_ms > fine.version_ms,
            );
        } else {
            // Paper §V-B on the 100% mix: the global commit delay is "an
            // order of magnitude higher than the synchronization latency of
            // the other configurations".
            ok &= shape_check(
                &format!("{panel}: Eager's global delay dwarfs lazy start delays (>=3x)"),
                eager.global_ms > 3.0 * coarse.version_ms
                    && eager.global_ms > 3.0 * fine.version_ms,
            );
        }
        ok &= shape_check(
            &format!("{panel}: LazyFine start delay <= LazyCoarse (with slack)"),
            fine.version_ms <= coarse.version_ms * 1.25 + 0.2,
        );
        ok &= shape_check(
            &format!("{panel}: lazy configurations have no global stage"),
            coarse.global_ms == 0.0 && fine.global_ms == 0.0,
        );
    }

    // Cross-panel: certification/sync/commit load grows with update share.
    std::process::exit(if ok { 0 } else { 1 });
}
