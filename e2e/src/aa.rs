//! `e2e --aa N`: does the benchmark agree with itself?
//!
//! Two sets, A and B, of `N` runs of the same code, each run a child
//! process with a seed of its own, as a driver would make them. The runs
//! alternate A, B, A, B and go through the five workloads in turn, so a
//! slow minute on the shared cores is spread over both sets and every
//! workload instead of sinking one. For each workload and metric the
//! check prints both medians, the quartile distance of each set and of
//! both together as a share of the median, and the relative difference of
//! the medians; it fails when
//! a difference or a spread exceeds the metric's bound in
//! `BENCHMARK.json`.

use bargain_e2e::args::Args;
use bargain_e2e::report::{bounds, parse_metrics};
use bargain_e2e::stats::{median, quartile_spread};
use bargain_e2e::workloads::NAMES;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's metrics, or why there are none.
fn child(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {}: {stderr}", out.status));
    }
    match stdout.lines().last().and_then(parse_metrics) {
        Some((true, metrics)) => Ok(metrics),
        _ => Err(format!("{workload} seed {seed}: no result line")),
    }
}

pub fn run(n: usize, args: &Args) -> ExitCode {
    let bounds = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => bounds(&text),
        Err(e) => {
            eprintln!("e2e --aa: BENCHMARK.json (run from the repo root): {e}");
            return ExitCode::from(2);
        }
    };
    // (workload, metric) -> [values of set A, values of set B]
    let mut values: BTreeMap<(&str, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut seed = 0;
    for i in 0..n {
        for set in 0..2 {
            for workload in NAMES {
                seed += 1;
                match child(workload, seed, args.seconds) {
                    Ok(metrics) => {
                        for (metric, value) in metrics {
                            values.entry((workload, metric)).or_default()[set].push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("e2e --aa: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                eprintln!(
                    "e2e --aa: pair {}/{n}, set {}: {workload} done",
                    i + 1,
                    ["A", "B"][set]
                );
            }
        }
    }

    println!(
        "{:<19} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "iqr A+B", "diff", "bound"
    );
    let mut ok = true;
    for workload in NAMES {
        for (metric, bound) in &bounds {
            let Some([a, b]) = values.get(&(workload, metric.clone())) else {
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (quartile_spread(a), quartile_spread(b));
            let both = quartile_spread(&[a.as_slice(), b.as_slice()].concat());
            let diff = (mb - ma).abs() / ma;
            // The spread of set-up time is not held to its bound: a boot
            // is too short for that on shared cores. Its medians are.
            let steady = metric == "setup_s" || sa.max(sb) <= *bound;
            let pass = diff <= *bound && steady;
            ok &= pass;
            println!(
                "{workload:<19} {metric:<15} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                sa * 100.0,
                sb * 100.0,
                both * 100.0,
                diff * 100.0,
                bound * 100.0,
                if pass { "" } else { "  FAIL" }
            );
        }
    }
    if ok {
        println!("A/A: every difference and spread is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED");
        ExitCode::FAILURE
    }
}
