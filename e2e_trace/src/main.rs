//! `e2e_trace`: the per-layer numbers of one workload, all of them taken
//! from outside the program.
//!
//! 1. *Live traced round.* One untraced and one traced round back to back,
//!    each on a fresh deployment like a round of the gated run. The traced
//!    one keeps the clients' spans and reads `/proc/self/task/*` and the
//!    cluster's counters at the two ends of its window. The throughput
//!    difference between the two is the tracing overhead.
//! 2. *Open-loop ladder* (`micro_mixed_sat`): the traced deployment driven
//!    on a schedule at 25/50/75 % of the throughput just measured.
//! 3. *Inline stage replay*: the workload's first 20 000 transactions
//!    through the layers' public functions, single-threaded.
//! 4. *Start-delay probe* (`micro_mixed_sat`): coarse against fine.
//!
//! Nothing here is gated: a per-layer number says where to look, the
//! end-to-end metrics of `e2e` say whether a change counts.

mod adapter;
mod inline;
mod live;
mod probe;
mod spans;

use bargain_e2e::args::{self, Args};
use bargain_e2e::checks;
use bargain_e2e::client::ClientLog;
use bargain_e2e::deploy::Deployment;
use bargain_e2e::report::{result_line, Metric};
use bargain_e2e::round::{measure, spans_within, whole};
use bargain_e2e::workloads::{spec, Spec, NAMES};
use spans::Span;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// As in the gated run.
const WARMUP: Duration = Duration::from_millis(1000);
/// Transactions of the inline replay whose spans go into `trace.json`
/// (every one of them goes into the metrics).
const INLINE_WRITTEN: u64 = 2_000;

/// Every per-layer metric, with its unit, in report order: the list
/// `BENCHMARK.json` carries. A metric whose layer does not run on a
/// workload (`net.certifier.*` outside the split deployment, `core.wal.*`
/// without updates, the ladder and the probe outside `micro_mixed_sat`)
/// prints `n/a` in the table and 0 in the result line.
const PER_LAYER: [(&str, &str); 52] = [
    ("net.client.p99_us", "us"),
    ("net.client.p99_beyond", "count"),
    ("net.client.p999_us", "us"),
    ("net.client.p999_beyond", "count"),
    ("net.client.read_p50_us", "us"),
    ("net.client.update_p50_us", "us"),
    ("net.client.cpu_us", "us"),
    ("net.server.reactor_cpu_us", "us"),
    ("net.server.reactor_runq_us", "us"),
    ("net.server.worker_cpu_us", "us"),
    ("net.server.worker_runq_us", "us"),
    ("cluster.lb_cpu_us", "us"),
    ("cluster.lb_runq_us", "us"),
    ("cluster.replica_cpu_us", "us"),
    ("cluster.replica_runq_us", "us"),
    ("cluster.certifier_cpu_us", "us"),
    ("cluster.certifier_runq_us", "us"),
    ("net.certifier.server_cpu_us", "us"),
    ("net.certifier.server_runq_us", "us"),
    ("host.ctx_switches_per_txn", "count"),
    ("host.rss_end_mb", "MB"),
    ("host.rss_growth_kb_per_kcommit", "kB"),
    ("cluster.abort_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("net.client.open_p50_us.r25", "us"),
    ("net.client.open_p50_us.r50", "us"),
    ("net.client.open_p50_us.r75", "us"),
    ("net.client.open_late_us.r75", "us"),
    ("net.codec.request_us", "us"),
    ("net.codec.reply_us", "us"),
    ("net.codec.request_bytes", "B"),
    ("net.codec.reply_bytes", "B"),
    ("core.lb.route_us", "us"),
    ("core.proxy.start_us", "us"),
    ("sql.exec_us", "us"),
    ("storage.read_us", "us"),
    ("storage.write_us", "us"),
    ("storage.refresh_apply_us", "us"),
    ("core.proxy.finish_us", "us"),
    ("core.certifier.certify_us", "us"),
    ("common.writeset.bytes", "B"),
    ("core.wal.append_flush_us", "us"),
    ("core.wal.append_flush_b16_us", "us"),
    ("core.wal.bytes_per_commit", "B"),
    ("core.proxy.decision_us", "us"),
    ("core.proxy.refresh_us", "us"),
    ("inline.total_us", "us"),
    ("cluster.handoff_us", "us"),
    ("core.proxy.raw_extra_us.fine", "us"),
    ("core.proxy.raw_extra_us.coarse", "us"),
    ("live.tput_tps", "1/s"),
    ("live.p50_us", "us"),
];

/// Where build outputs go, which is inside the checkout and ignored by
/// git: the scratch WAL and `trace.json` go there too.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    )
}

/// The traced window's client spans, named after their templates.
fn client_spans(spec: &Spec, logs: &[ClientLog], t0: Instant, t1: Instant) -> Vec<Span> {
    let names: HashMap<_, _> = spec
        .workload
        .templates()
        .into_iter()
        .map(|t| (t.id, t.name))
        .collect();
    let mut out = Vec::new();
    for (conn, log) in logs.iter().enumerate() {
        let one = std::slice::from_ref(log);
        for (seq, span) in spans_within(one, t0, t1).enumerate() {
            out.push(Span {
                name: Cow::Owned(names[&span.template].clone()),
                conn: Some(conn),
                seq: seq as u64,
                parent: None,
                start: span.start,
                end: span.end,
            });
        }
    }
    out
}

fn trace(spec: &Spec, args: &Args) -> Result<(), String> {
    let origin = Instant::now();
    let window = Duration::from_secs_f64(args.seconds as f64 / 3.0);
    let boot = || Deployment::boot(spec, args.mode, args.seed).map_err(|e| format!("boot: {e}"));
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut logs: Vec<ClientLog> = Vec::new();

    // Untraced round.
    let mut dep = boot()?;
    let w = measure(&mut dep.clients, spec, WARMUP, window, || ());
    let untraced = whole(&dep.clients.logs, &w);
    checks::accounting(&dep)?;
    logs.extend(dep.stop());

    // Traced round.
    let mut dep = boot()?;
    let w = measure(&mut dep.clients, spec, WARMUP, window, || {
        live::sample(&dep.servers)
    });
    let traced = whole(&dep.clients.logs, &w);
    if traced.commits == 0 || untraced.commits == 0 {
        return Err("a round committed nothing".into());
    }
    values.extend(live::metrics(
        spec,
        &dep.clients.logs,
        &w,
        &traced,
        &untraced,
    ));
    values.push(("live.tput_tps".into(), traced.tput_tps));
    values.push(("live.p50_us".into(), traced.p50_us));
    let live_spans = client_spans(spec, &dep.clients.logs, w.t0(), w.t1());
    if spec.window > 1 {
        values.extend(live::ladder(&mut dep.clients, spec, traced.tput_tps));
    }
    checks::accounting(&dep)?;
    logs.extend(dep.stop());

    // Inline stage replay.
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (inline_values, inline_spans) = inline::replay(spec, args.seed, &scratch);
    let inline_total = inline_values
        .iter()
        .find(|(name, _)| name == "inline.total_us")
        .map_or(0.0, |(_, v)| *v);
    values.extend(inline_values);
    // Everything between a client and its reply that is not work in a
    // layer: thread handoffs, queues, the socket.
    values.push(("cluster.handoff_us".into(), traced.p50_us - inline_total));

    // Start-delay probe.
    if spec.window > 1 {
        values.extend(probe::start_delay(args.seed, &mut logs)?);
    }

    let written: Vec<Span> = inline_spans
        .into_iter()
        .filter(|s| s.seq < INLINE_WRITTEN)
        .collect();
    let path = scratch.join("trace.json");
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"inline_transactions_written\": {INLINE_WRITTEN}",
        spec.name, args.seed
    );
    spans::write_json(
        &path,
        &header,
        origin,
        &[("live", &live_spans), ("inline", &written)],
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;

    let disorder: u64 = logs.iter().map(|l| l.order_violations).sum();
    if disorder > 0 {
        return Err(format!(
            "{disorder} commit versions did not increase on their connection"
        ));
    }
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{}: per-layer trace, {:.2} s windows, seed {}, nproc {nproc}; {} spans in {}",
        spec.name,
        window.as_secs_f64(),
        args.seed,
        live_spans.len() + written.len(),
        path.display()
    );
    let measured: HashMap<&str, f64> = values.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match measured.get(name) {
            Some(value) => println!("  {name:<34} {unit:<6} {value:.3}"),
            None => println!("  {name:<34} {unit:<6} n/a"),
        }
        metrics.push(Metric::new(
            name,
            measured.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is measured but not in PER_LAYER"
        );
    }
    println!("  operations: {attempted} attempted, {failed} failed");
    println!("{}", result_line(true, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_trace: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!(
            "e2e_trace: unknown workload {:?}; one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    match trace(&spec, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_trace: {}: check failed: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}
