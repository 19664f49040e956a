//! One measured round on a booted deployment: warm-up, then a window in
//! which every connection runs its closed loop on a thread of its own; and
//! the reduction of a window to numbers.
//!
//! # Why the numbers are those of the fastest slices
//!
//! The box this benchmark runs on shares its two cores. Measured here: a
//! fixed single-threaded computation varies by ±20 % from one quarter
//! second to the next; the host takes a core away for 3-4 ms at a time,
//! up to half of the time in a bad minute; whole-window throughput of
//! identical runs spread 30-40 %. All of that only ever *slows* the
//! program. So a window is cut into slices of a tenth of a second, and a
//! run's numbers are those of its **fastest tenth of slices**: the slices
//! in which the box let the program run. Work the program does in every
//! slice, and anything that happens more than ten times a second, is in
//! them; a rare long pause is not, and shows in the trace's tail
//! percentiles instead. The whole-window numbers are printed beside them.

use crate::client::{ClientLog, Conn, Span};
use crate::clock::process_cpu;
use crate::deploy::Clients;
use crate::stats::{median, percentile};
use crate::workloads::Spec;
use bargain_workloads::ClientContext;
use std::time::{Duration, Instant};

/// Length of a tick: the process CPU clock is read at every tick of the
/// window, and a slice is a whole number of ticks.
const TICK: Duration = Duration::from_millis(100);
/// A slice is made long enough to hold about this many commits, so that
/// its median latency means something. The 18 txn/s workload therefore
/// gets one slice per window.
const SLICE_COMMITS: usize = 100;

/// The measured window: its ticks with the process CPU clock at each, and
/// what `sample` returned at its two ends.
pub struct Window<T> {
    /// Tick times from the start of the window (end of warm-up) to its
    /// end, with `process_cpu()` at each.
    pub ticks: Vec<(Instant, Duration)>,
    /// `sample()` when the window opened.
    pub before: T,
    /// `sample()` when it closed.
    pub after: T,
}

impl<T> Window<T> {
    /// Start of the window.
    pub fn t0(&self) -> Instant {
        self.ticks[0].0
    }

    /// End of the window.
    pub fn t1(&self) -> Instant {
        self.ticks[self.ticks.len() - 1].0
    }
}

/// Runs every connection's closed loop for `warmup + window`, reading the
/// process CPU clock on this thread at every tick of the window and
/// calling `sample` when the window opens and when it closes. The client
/// threads are named `e2e-client-N`.
pub fn measure<T>(
    clients: &mut Clients,
    spec: &Spec,
    warmup: Duration,
    window: Duration,
    sample: impl Fn() -> T,
) -> Window<T> {
    let t0 = Instant::now() + warmup;
    let t1 = t0 + window;
    let drive = |c: usize, conn: &mut Conn, ctx: &mut ClientContext, log: &mut ClientLog| {
        conn.closed_loop(spec.window, t1, &mut || spec.next(ctx, c), log);
    };
    clients
        .on_threads(drive, || {
            std::thread::sleep(t0.saturating_duration_since(Instant::now()));
            let before = sample();
            let mut ticks = vec![(Instant::now(), process_cpu())];
            let mut due = t0;
            while due < t1 {
                due = (due + TICK).min(t1);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                ticks.push((Instant::now(), process_cpu()));
            }
            let after = sample();
            Window {
                ticks,
                before,
                after,
            }
        })
        .1
}

/// What happened between two ticks of a window.
pub struct Slice {
    /// Committed replies that arrived in it.
    pub commits: usize,
    /// `commits` per second of its length.
    pub tput_tps: f64,
    /// Process CPU spent in it.
    pub cpu: Duration,
    /// Send-to-reply latency of each of those commits, µs.
    pub latencies_us: Vec<f64>,
}

/// The committed transactions of every connection that finished inside
/// `[t0, t1]`.
pub fn spans_within(logs: &[ClientLog], t0: Instant, t1: Instant) -> impl Iterator<Item = &Span> {
    logs.iter().flat_map(move |log| spans_of(log, t0, t1))
}

/// Replies arrive in order on a connection, so a log's spans are sorted by
/// their ends.
fn spans_of(log: &ClientLog, t0: Instant, t1: Instant) -> &[Span] {
    let from = log.spans.partition_point(|s| s.end < t0);
    let to = log.spans.partition_point(|s| s.end <= t1);
    &log.spans[from..to]
}

/// Latencies in µs, ascending.
#[must_use]
pub fn sorted_latencies_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    let mut us: Vec<f64> = spans
        .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

fn slice_between(logs: &[ClientLog], from: (Instant, Duration), to: (Instant, Duration)) -> Slice {
    let latencies_us = sorted_latencies_us(spans_within(logs, from.0, to.0));
    Slice {
        commits: latencies_us.len(),
        tput_tps: latencies_us.len() as f64 / (to.0 - from.0).as_secs_f64(),
        cpu: to.1 - from.1,
        latencies_us,
    }
}

/// The numbers of the whole window, taken as one slice.
#[must_use]
pub fn whole<T>(logs: &[ClientLog], window: &Window<T>) -> Metrics {
    let ticks = &window.ticks;
    fastest_tenth(&[slice_between(logs, ticks[0], ticks[ticks.len() - 1])])
}

/// Cuts a window into slices of equally many ticks, as short as holds
/// about [`SLICE_COMMITS`] commits each.
#[must_use]
pub fn slices<T>(logs: &[ClientLog], window: &Window<T>) -> Vec<Slice> {
    let ticks = &window.ticks;
    let intervals = ticks.len() - 1;
    let commits = spans_within(logs, window.t0(), window.t1()).count();
    let per_tick = (commits / intervals).max(1);
    let ticks_per_slice = SLICE_COMMITS.div_ceil(per_tick).min(intervals);
    (0..intervals / ticks_per_slice)
        .map(|i| {
            slice_between(
                logs,
                ticks[i * ticks_per_slice],
                ticks[(i + 1) * ticks_per_slice],
            )
        })
        .collect()
}

/// The end-to-end numbers of a set of slices.
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    /// Committed transactions in the slices the numbers come from.
    pub commits: usize,
    /// Median `tput_tps` of those slices.
    pub tput_tps: f64,
    /// Median latency of the transactions committed in them, µs.
    pub p50_us: f64,
    /// Their process CPU over their commits, µs: the CPU one committed
    /// transaction costs, harness included.
    pub cpu_us_per_txn: f64,
}

/// Reduces slices to the numbers of their fastest tenth: the slices with
/// the highest throughput, and the latency and CPU of the transactions
/// committed in those same slices. Fewer than ten slices have no tenth
/// (the 18 txn/s workload has one slice per round): their numbers are the
/// medians of the slices' own.
#[must_use]
pub fn fastest_tenth(slices: &[Slice]) -> Metrics {
    let mut fastest: Vec<&Slice> = slices.iter().filter(|s| s.commits > 0).collect();
    let tenth = fastest.len() / 10;
    if tenth == 0 {
        let column =
            |f: fn(&Slice) -> f64| median(&fastest.iter().map(|s| f(s)).collect::<Vec<_>>());
        return Metrics {
            commits: fastest.iter().map(|s| s.commits).sum(),
            tput_tps: column(|s| s.tput_tps),
            p50_us: column(|s| percentile(&s.latencies_us, 0.5)),
            cpu_us_per_txn: column(|s| s.cpu.as_secs_f64() * 1e6 / s.commits as f64),
        };
    }
    fastest.sort_by(|a, b| b.tput_tps.total_cmp(&a.tput_tps));
    fastest.truncate(tenth);
    let commits: usize = fastest.iter().map(|s| s.commits).sum();
    let cpu: Duration = fastest.iter().map(|s| s.cpu).sum();
    let mut latencies: Vec<f64> = fastest
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    Metrics {
        commits,
        tput_tps: median(&fastest.iter().map(|s| s.tput_tps).collect::<Vec<_>>()),
        p50_us: percentile(&latencies, 0.5),
        cpu_us_per_txn: cpu.as_secs_f64() * 1e6 / commits as f64,
    }
}
