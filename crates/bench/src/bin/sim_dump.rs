//! Prints the simulator's full report for the seeded fault sweeps of
//! `crates/sim/tests/faults.rs`, one `Debug` line per run, so two builds can
//! be compared draw for draw with `diff` or `md5sum`:
//!
//! - `FaultPlan::random(seed, 3, 1_800)` for seeds 0–7,
//! - `FaultPlan::random_elastic(seed, 3, 1_800)` for seeds 0–5,
//!
//! each in the four guarantee-claiming modes (56 runs), with the sweeps'
//! configuration and per-seed simulator seeds. Each plan is printed before
//! its runs.
//!
//! ```text
//! cargo run --release -p bargain-bench --bin sim_dump > reports.txt
//! ```

use bargain_common::ConsistencyMode;
use bargain_sim::{simulate, FaultPlan, SimConfig};
use bargain_workloads::MicroBenchmark;

fn main() {
    let workload = MicroBenchmark {
        rows_per_table: 200,
        update_ratio: 0.5,
        ..MicroBenchmark::default()
    };
    for elastic in [false, true] {
        for seed in 0..if elastic { 6 } else { 8 } {
            let (name, plan, sim_seed) = if elastic {
                let plan = FaultPlan::random_elastic(seed, 3, 1_800);
                ("elastic", plan, seed.wrapping_mul(41).wrapping_add(3))
            } else {
                let plan = FaultPlan::random(seed, 3, 1_800);
                ("random", plan, seed.wrapping_mul(31).wrapping_add(7))
            };
            println!("{name} seed {seed} plan {plan:?}");
            for mode in [
                ConsistencyMode::Eager,
                ConsistencyMode::LazyCoarse,
                ConsistencyMode::LazyFine,
                ConsistencyMode::Session,
            ] {
                let cfg = SimConfig {
                    mode,
                    replicas: 3,
                    clients: 12,
                    seed: sim_seed,
                    warmup_ms: 300,
                    measure_ms: 1_500,
                    faults: plan.clone(),
                    ..SimConfig::default()
                };
                let report = simulate(&workload, &cfg);
                println!("{name} seed {seed} mode {mode:?} {report:?}");
            }
        }
    }
}
