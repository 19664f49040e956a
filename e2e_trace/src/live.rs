//! The live traced round: what the operating system and the cluster's own
//! counters say about a measured window, read from outside the program at
//! the window's two ends, plus the open-loop ladder.

use bargain_cluster::ClusterStats;
use bargain_e2e::client::{ClientLog, Conn};
use bargain_e2e::deploy::{Clients, Servers};
use bargain_e2e::round::{sorted_latencies_us, spans_within, Metrics, Window};
use bargain_e2e::stats::{beyond, percentile};
use bargain_e2e::workloads::{Spec, CONNECTIONS};
use bargain_workloads::ClientContext;
use std::collections::HashMap;
use std::time::Duration;

/// One thread's scheduler accounting, from `/proc/self/task/<tid>/`.
struct ThreadStat {
    /// `comm`: the thread's name, cut to 15 bytes by the kernel.
    comm: String,
    /// `schedstat` field 1: time on a CPU, ns.
    cpu_ns: u64,
    /// `schedstat` field 2: time runnable but waiting for a CPU, ns.
    runq_ns: u64,
    /// `status`: voluntary plus involuntary context switches.
    switches: u64,
}

/// What is read at each end of the traced window.
pub struct Sample {
    threads: HashMap<u32, ThreadStat>,
    rss_kb: u64,
    stats: ClusterStats,
}

/// The number on the `key` line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn threads() -> HashMap<u32, ThreadStat> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap_or_default();
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let schedstat = read("schedstat");
        let mut fields = schedstat.split_whitespace().map(|f| f.parse().unwrap_or(0));
        let status = read("status");
        out.insert(
            tid,
            ThreadStat {
                comm: read("comm").trim_end().to_owned(),
                cpu_ns: fields.next().unwrap_or(0),
                runq_ns: fields.next().unwrap_or(0),
                switches: status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:"),
            },
        );
    }
    out
}

/// Reads everything the traced round reads at a window end.
pub fn sample(servers: &Servers) -> Sample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    Sample {
        threads: threads(),
        rss_kb: status_field(&status, "VmRSS:"),
        stats: servers.stats().unwrap_or_default(),
    }
}

/// A group of threads: the prefixes of their names as the kernel cuts
/// them (15 bytes), the metric their CPU time feeds, and the metric their
/// time waiting for a core feeds.
type ThreadGroup = (&'static [&'static str], &'static str, Option<&'static str>);

/// In the split deployment `bargain-certifi` is the `CertifierServer`'s
/// thread and the cluster's side of certification is the link's threads;
/// otherwise it is the cluster's own certifier thread.
fn thread_groups(split: bool) -> Vec<ThreadGroup> {
    let mut groups: Vec<ThreadGroup> = vec![
        (&["e2e-client-"], "net.client.cpu_us", None),
        (
            &["bargain-net-rea"],
            "net.server.reactor_cpu_us",
            Some("net.server.reactor_runq_us"),
        ),
        (
            &["bargain-net-wor"],
            "net.server.worker_cpu_us",
            Some("net.server.worker_runq_us"),
        ),
        (
            &["bargain-lb"],
            "cluster.lb_cpu_us",
            Some("cluster.lb_runq_us"),
        ),
        (
            &["bargain-replica"],
            "cluster.replica_cpu_us",
            Some("cluster.replica_runq_us"),
        ),
    ];
    let certifier_threads: &[&str] = if split {
        &["bargain-certlin", "bargain-certdis"]
    } else {
        &["bargain-certifi"]
    };
    groups.push((
        certifier_threads,
        "cluster.certifier_cpu_us",
        Some("cluster.certifier_runq_us"),
    ));
    if split {
        groups.push((
            &["bargain-certifi"],
            "net.certifier.server_cpu_us",
            Some("net.certifier.server_runq_us"),
        ));
    }
    groups
}

/// The per-layer metrics of the traced window. Times are µs per committed
/// transaction: busy (`_cpu_us`) and runnable but waiting for one of the
/// cores (`_runq_us`).
pub fn metrics(
    spec: &Spec,
    logs: &[ClientLog],
    window: &Window<Sample>,
    traced: &Metrics,
    untraced: &Metrics,
) -> Vec<(String, f64)> {
    let (before, after) = (&window.before, &window.after);
    let commits = traced.commits.max(1) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();

    let latencies = sorted_latencies_us(spans_within(logs, window.t0(), window.t1()));
    let of_kind = |update: bool| {
        let kind = spans_within(logs, window.t0(), window.t1()).filter(move |s| s.update == update);
        let latencies = sorted_latencies_us(kind);
        (!latencies.is_empty()).then(|| percentile(&latencies, 0.5))
    };
    out.push(("net.client.p99_us".into(), percentile(&latencies, 0.99)));
    out.push((
        "net.client.p99_beyond".into(),
        beyond(&latencies, 0.99) as f64,
    ));
    out.push(("net.client.p999_us".into(), percentile(&latencies, 0.999)));
    out.push((
        "net.client.p999_beyond".into(),
        beyond(&latencies, 0.999) as f64,
    ));
    out.extend(of_kind(false).map(|p50| ("net.client.read_p50_us".into(), p50)));
    out.extend(of_kind(true).map(|p50| ("net.client.update_p50_us".into(), p50)));

    let mut switches = 0;
    let delta = |tid: &u32, now: &ThreadStat, field: fn(&ThreadStat) -> u64| {
        field(now).saturating_sub(before.threads.get(tid).map_or(0, field))
    };
    for (tid, now) in &after.threads {
        switches += delta(tid, now, |t| t.switches);
    }
    for (prefixes, cpu_metric, runq_metric) in thread_groups(spec.split_certifier) {
        let (mut cpu_ns, mut runq_ns) = (0, 0);
        for (tid, now) in &after.threads {
            if prefixes.iter().any(|p| now.comm.starts_with(p)) {
                cpu_ns += delta(tid, now, |t| t.cpu_ns);
                runq_ns += delta(tid, now, |t| t.runq_ns);
            }
        }
        out.push((cpu_metric.into(), cpu_ns as f64 / 1e3 / commits));
        if let Some(runq_metric) = runq_metric {
            out.push((runq_metric.into(), runq_ns as f64 / 1e3 / commits));
        }
    }

    out.push((
        "host.ctx_switches_per_txn".into(),
        switches as f64 / commits,
    ));
    out.push(("host.rss_end_mb".into(), after.rss_kb as f64 / 1024.0));
    out.push((
        "host.rss_growth_kb_per_kcommit".into(),
        (after.rss_kb as f64 - before.rss_kb as f64) / (commits / 1000.0),
    ));
    let aborts = (after.stats.aborts - before.stats.aborts) as f64;
    let finished = aborts + (after.stats.commits - before.stats.commits) as f64;
    out.push(("cluster.abort_share".into(), aborts / finished.max(1.0)));
    out.push((
        "trace.overhead_pct".into(),
        (untraced.tput_tps - traced.tput_tps) / untraced.tput_tps * 100.0,
    ));
    out
}

/// Shares of the measured closed-loop throughput the ladder offers.
const LADDER: [(f64, &str); 3] = [(0.25, "r25"), (0.50, "r50"), (0.75, "r75")];
/// How long each step of the ladder sends for.
const STEP: Duration = Duration::from_millis(1500);

/// The open-loop ladder, on the running deployment: each connection sends
/// its half of the offered rate on a fixed-interval schedule whatever the
/// server does, and a request's latency counts from when it was due.
pub fn ladder(clients: &mut Clients, spec: &Spec, tput_tps: f64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (share, label) in LADDER {
        let per_conn = tput_tps * share / CONNECTIONS as f64;
        let interval = Duration::from_secs_f64(1.0 / per_conn);
        let count = (per_conn * STEP.as_secs_f64()) as usize;
        let send = |c: usize, conn: &mut Conn, ctx: &mut ClientContext, log: &mut ClientLog| {
            let Conn::Wire(client) = conn else {
                panic!("the ladder needs the wire client");
            };
            let mut from_due = Vec::with_capacity(count);
            let late = client
                .open_loop(interval, count, &mut || spec.next(ctx, c), &mut |done| {
                    from_due.push((done.end - done.start).as_secs_f64() * 1e6);
                    log.record(&done);
                })
                .expect("open loop runs");
            (from_due, late)
        };
        let (results, ()) = clients.on_threads(send, || ());
        let mut from_due: Vec<f64> = results
            .iter()
            .flat_map(|(l, _)| l.iter().copied())
            .collect();
        from_due.sort_by(f64::total_cmp);
        out.push((
            format!("net.client.open_p50_us.{label}"),
            percentile(&from_due, 0.5),
        ));
        if label == "r75" {
            let late: Vec<f64> = results
                .iter()
                .flat_map(|(_, late)| late.iter().map(|d| d.as_secs_f64() * 1e6))
                .collect();
            out.push((
                "net.client.open_late_us.r75".into(),
                late.iter().sum::<f64>() / late.len().max(1) as f64,
            ));
        }
    }
    out
}
