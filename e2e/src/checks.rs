//! Output checks, made outside the measured window on the deployment of
//! a workload's last round while it is still running.
//!
//! The checks inside the window are the client log's own: every reply
//! committed, and each connection's commit versions strictly increasing.

use crate::deploy::{Clients, Deployment};
use crate::workloads::Spec;
use bargain_common::Value;
use std::time::{Duration, Instant};

/// Round trips the hidden-channel check makes when time allows.
const ROUND_TRIPS: i64 = 200;
/// On the split deployment one update takes a tenth of a second, so the
/// check also stops after this long, once it has made `MIN_ROUND_TRIPS`.
const BUDGET: Duration = Duration::from_millis(1500);
const MIN_ROUND_TRIPS: i64 = 10;
/// Above every value a workload writes to the probed column.
const MARKER_BASE: i64 = 2_000_000_000;

/// The paper's strong-consistency guarantee, from outside: connection A
/// commits an update and, as soon as it has the reply, connection B reads
/// the row and must see it. The two connections are different sessions and
/// may be served by different replicas; the only channel between them is
/// this thread, hidden from the system. Returns the round trips made.
pub fn hidden_channel(clients: &mut Clients, spec: &Spec) -> Result<i64, String> {
    let started = Instant::now();
    let (a, b) = clients.conns.split_at_mut(1);
    let (log_a, log_b) = clients.logs.split_at_mut(1);
    let mut made = 0;
    while made < ROUND_TRIPS && (made < MIN_ROUND_TRIPS || started.elapsed() < BUDGET) {
        let marker = MARKER_BASE + made;
        let (outcome, _) = a[0]
            .run_logged((spec.probe.write)(marker), &mut log_a[0])
            .map_err(|e| format!("hidden channel: write failed: {e}"))?;
        if !outcome.committed {
            return Err(format!("hidden channel: write {marker} did not commit"));
        }
        let (_, results) = b[0]
            .run_logged((spec.probe.read)(), &mut log_b[0])
            .map_err(|e| format!("hidden channel: read failed: {e}"))?;
        let seen = results
            .first()
            .and_then(|r| r.rows())
            .and_then(|rows| rows.first())
            .and_then(|row| row.get(spec.probe.column));
        if seen != Some(&Value::Int(marker)) {
            return Err(format!(
                "hidden channel: stale read on round trip {made}: wrote {marker}, read {seen:?}"
            ));
        }
        made += 1;
    }
    Ok(made)
}

/// No lost and no duplicated acknowledged commit: the cluster's version
/// advanced by exactly the update commits the clients were acknowledged
/// since boot, and it counted exactly the aborts they were told of.
pub fn accounting(dep: &Deployment) -> Result<(), String> {
    let stats = dep
        .servers
        .stats()
        .map_err(|e| format!("accounting: stats: {e}"))?;
    let acked: u64 = dep.clients.logs.iter().map(|l| l.acked_updates).sum();
    let aborts: u64 = dep.clients.logs.iter().map(|l| l.aborts_told).sum();
    if stats.v_system.0 != acked {
        return Err(format!(
            "accounting: V_system is {} but clients were acknowledged {acked} update commits",
            stats.v_system.0
        ));
    }
    if stats.aborts != aborts {
        return Err(format!(
            "accounting: cluster counted {} aborts but clients were told of {aborts}",
            stats.aborts
        ));
    }
    Ok(())
}
