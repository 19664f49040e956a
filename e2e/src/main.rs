//! `e2e`: the gated run of one workload, and the A/A self-check.
//!
//! One run boots the workload's deployment five times: two boot-and-stop
//! cycles, then three rounds, each on a fresh deployment (boot, warm-up,
//! measured window, stop). The windows are cut into slices of a tenth of a
//! second, and a metric's value is that of the fastest tenth of the three
//! rounds' slices (see `round.rs` for why); set-up time is the fastest of
//! the five boots.

mod aa;

use bargain_e2e::args::{self, Args};
use bargain_e2e::checks;
use bargain_e2e::client::ClientLog;
use bargain_e2e::deploy::Deployment;
use bargain_e2e::report::{result_line, Metric};
use bargain_e2e::round::{self, fastest_tenth, measure, whole, Metrics, Slice};
use bargain_e2e::stats::median;
use bargain_e2e::workloads::{spec, Spec, NAMES};
use std::process::ExitCode;
use std::time::Duration;

/// Measured rounds per run.
const ROUNDS: usize = 3;
/// Boot-and-stop cycles before the first round. A process's first boot is
/// 10-25 % slower than its later ones; with these, `setup_s` never rests
/// on it.
const EXTRA_BOOTS: usize = 2;
/// Warm-up before each measured window: connection caches, the allocator
/// and the replicas' version chains reach their steady state.
const WARMUP: Duration = Duration::from_millis(1000);

fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

fn totals(logs: &[ClientLog]) -> (u64, u64, u64, Vec<String>) {
    let mut failures = Vec::new();
    let (mut attempted, mut failed, mut disorder) = (0, 0, 0);
    for log in logs {
        attempted += log.attempted;
        failed += log.failed;
        disorder += log.order_violations;
        failures.extend(log.failures.iter().cloned());
    }
    (attempted, failed, disorder, failures)
}

/// Runs one workload and prints its metrics. `Err` is a failed output
/// check: no metrics line is printed for it.
fn gated(spec: &Spec, args: &Args) -> Result<(), String> {
    let window = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
    let boot = || Deployment::boot(spec, args.mode, args.seed).map_err(|e| format!("boot: {e}"));
    let mut setups = Vec::new();
    let mut logs: Vec<ClientLog> = Vec::new();
    for _ in 0..EXTRA_BOOTS {
        let dep = boot()?;
        setups.push(dep.setup.as_secs_f64());
        logs.extend(dep.stop());
    }

    // Every round's slices, pooled; and each round as a whole, for the
    // report.
    let mut slices: Vec<Slice> = Vec::new();
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut round_trips = 0;
    for round in 0..ROUNDS {
        let mut dep = boot()?;
        setups.push(dep.setup.as_secs_f64());
        let w = measure(&mut dep.clients, spec, WARMUP, window, || ());
        slices.extend(round::slices(&dep.clients.logs, &w));
        rounds.push(whole(&dep.clients.logs, &w));
        let checked = if round + 1 == ROUNDS {
            checks::hidden_channel(&mut dep.clients, spec).and_then(|n| {
                round_trips = n;
                checks::accounting(&dep)
            })
        } else {
            checks::accounting(&dep)
        };
        logs.extend(dep.stop());
        checked?;
    }

    let (attempted, failed, disorder, failures) = totals(&logs);
    if disorder > 0 {
        return Err(format!(
            "{disorder} commit versions did not increase on their connection"
        ));
    }
    if rounds.iter().any(|r| r.commits == 0) {
        return Err(format!("a round committed nothing: {failures:?}"));
    }
    let run = fastest_tenth(&slices);
    // The fastest boot for the same reason as the fastest slices: a boot
    // can only be slowed by a neighbour, never sped up, and work moved into
    // set-up slows the fastest boot as much as any other. Single boots
    // spread 30 % here and their median 17 %, the fastest of five 3-6 %.
    let setup = min_median_max(&setups);

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{}: {ROUNDS} rounds x {:.2} s window, seed {}, nproc {nproc}, mode {}",
        spec.name,
        window.as_secs_f64(),
        args.seed,
        args.mode.label()
    );
    println!("  why: {}", spec.why);
    println!(
        "  metric          unit    value         (whole rounds: min .. median .. max); value = \
         fastest tenth of {} slices",
        slices.len()
    );
    let column = |f: fn(&Metrics) -> f64| min_median_max(&rounds.iter().map(f).collect::<Vec<_>>());
    for (name, unit, value, (min, med, max)) in [
        ("tput_tps", "1/s", run.tput_tps, column(|r| r.tput_tps)),
        ("p50_us", "us", run.p50_us, column(|r| r.p50_us)),
        (
            "cpu_us_per_txn",
            "us",
            run.cpu_us_per_txn,
            column(|r| r.cpu_us_per_txn),
        ),
    ] {
        println!("  {name:<15} {unit:<7} {value:<13.3} ({min:.3} .. {med:.3} .. {max:.3})");
    }
    println!(
        "  {:<15} {:<7} {:<13.5} (fastest of {} boots; median {:.5}, slowest {:.5})",
        "setup_s",
        "s",
        setup.0,
        setups.len(),
        setup.1,
        setup.2
    );
    println!(
        "  operations: {attempted} attempted, {failed} failed; checks: {round_trips} hidden-channel \
         round trips, accounting exact on {ROUNDS} rounds, commit order per connection"
    );
    for why in failures.iter().take(3) {
        println!("  failure: {why}");
    }
    println!(
        "{}",
        result_line(
            true,
            attempted,
            failed,
            &[
                Metric::new("tput_tps", run.tput_tps, "1/s"),
                Metric::new("p50_us", run.p50_us, "us"),
                Metric::new("cpu_us_per_txn", run.cpu_us_per_txn, "us"),
                Metric::new("setup_s", setup.0, "s"),
            ],
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return aa::run(n, &args);
    }
    if args.trace {
        eprintln!("e2e: --trace 1 is the e2e_trace binary's; run.sh dispatches to it");
        return ExitCode::from(2);
    }
    let Some(spec) = spec(&args.workload) else {
        eprintln!(
            "e2e: unknown workload {:?}; one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    match gated(&spec, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {}: check failed: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}
