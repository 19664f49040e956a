//! The start-delay probe: the paper's Fig. 6 quantity, the extra time a
//! read waits before it may start because another client just committed,
//! which the live benchmark cannot otherwise show.
//!
//! Two small deployments of the micro-benchmark whose updates all go to
//! one hot table, `LazyFine` and `LazyCoarse`. Connection A commits an
//! update on the hot table, connection B then reads a *cold* table; that
//! read alternates with one not preceded by a write. Coarse-grained
//! synchronisation makes B wait until its replica has applied A's commit;
//! fine-grained does not, because the cold table did not change.

use bargain_common::{ConsistencyMode, Value};
use bargain_e2e::client::ClientLog;
use bargain_e2e::deploy::Deployment;
use bargain_e2e::stats::median;
use bargain_e2e::workloads::{spec, Spec};
use bargain_workloads::MicroBenchmark;
use std::sync::Arc;
use std::time::Instant;

/// Write-then-read pairs per mode.
const PAIRS: i64 = 2_000;
const HOT_TABLE: usize = 0;
const COLD_TABLE: usize = 2;

fn timed_read(dep: &mut Deployment, key: i64) -> Result<f64, String> {
    let read = (
        MicroBenchmark::read_template(COLD_TABLE),
        vec![vec![Value::Int(key)]],
    );
    let started = Instant::now();
    dep.clients.conns[1]
        .run_logged(read, &mut dep.clients.logs[1])
        .map_err(|e| format!("start-delay probe: read: {e}"))?;
    Ok(started.elapsed().as_secs_f64() * 1e6)
}

/// `core.proxy.raw_extra_us.<fine|coarse>`: median latency of the read
/// after a write minus median latency of the plain read.
pub fn start_delay(seed: u64, logs: &mut Vec<ClientLog>) -> Result<Vec<(String, f64)>, String> {
    let small = MicroBenchmark {
        hot_tables: Some(1),
        ..MicroBenchmark::small(0.5)
    };
    let rows = small.rows_per_table as i64;
    let probe_spec = Spec {
        name: "start_delay_probe",
        workload: Arc::new(small),
        ..spec("micro_update").expect("a built-in workload")
    };
    let mut out = Vec::new();
    for (mode, label) in [
        (ConsistencyMode::LazyFine, "fine"),
        (ConsistencyMode::LazyCoarse, "coarse"),
    ] {
        let mut dep = Deployment::boot(&probe_spec, mode, seed)
            .map_err(|e| format!("start-delay probe: boot: {e}"))?;
        let (mut after_write, mut plain) = (Vec::new(), Vec::new());
        for i in 0..PAIRS {
            let key = i % rows + 1;
            let write = (
                MicroBenchmark::update_template(HOT_TABLE),
                vec![vec![Value::Int(i), Value::Int(key)]],
            );
            let (outcome, _) = dep.clients.conns[0]
                .run_logged(write, &mut dep.clients.logs[0])
                .map_err(|e| format!("start-delay probe: write: {e}"))?;
            if !outcome.committed {
                return Err("start-delay probe: write did not commit".into());
            }
            after_write.push(timed_read(&mut dep, key)?);
            plain.push(timed_read(&mut dep, key)?);
        }
        out.push((
            format!("core.proxy.raw_extra_us.{label}"),
            median(&after_write) - median(&plain),
        ));
        logs.extend(dep.stop());
    }
    Ok(out)
}
