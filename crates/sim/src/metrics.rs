//! Measurement: per-transaction records, stage breakdowns, and the final
//! report a simulation produces.

use crate::kernel::SimTime;
use bargain_common::{ConsistencyMode, TemplateId};

/// Per-transaction timing record (microseconds of virtual time).
///
/// The stages follow the paper's latency decomposition (§V-A): read-only
/// transactions have `version` → `queries` → `commit`; update transactions
/// add `certify` → `sync` before `commit` and, under the eager
/// configuration, a final `global` stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnRecord {
    /// Template the transaction instantiated.
    pub template: TemplateId,
    /// Whether the transaction committed.
    pub committed: bool,
    /// Whether it wrote data.
    pub is_update: bool,
    /// When the client issued it.
    pub issued_at: SimTime,
    /// End-to-end response time (issue → commit acknowledgement).
    pub response_us: SimTime,
    /// Synchronization start delay (waiting for the replica to reach the
    /// required version).
    pub version_us: SimTime,
    /// Statement execution (including replica CPU queueing).
    pub queries_us: SimTime,
    /// Round trip to the certifier and its decision service time.
    pub certify_us: SimTime,
    /// Waiting to apply the commit in global order.
    pub sync_us: SimTime,
    /// Local commit service time.
    pub commit_us: SimTime,
    /// Eager only: local commit → global commit acknowledgement.
    pub global_us: SimTime,
}

/// Averaged stage durations in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Mean `version` stage (synchronization start delay).
    pub version_ms: f64,
    /// Mean `queries` stage.
    pub queries_ms: f64,
    /// Mean `certify` stage.
    pub certify_ms: f64,
    /// Mean `sync` stage.
    pub sync_ms: f64,
    /// Mean `commit` stage.
    pub commit_ms: f64,
    /// Mean `global` stage (eager only).
    pub global_ms: f64,
}

impl StageBreakdown {
    /// Sum of all stages.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.version_ms
            + self.queries_ms
            + self.certify_ms
            + self.sync_ms
            + self.commit_ms
            + self.global_ms
    }

    fn from_records<'a>(records: impl Iterator<Item = &'a TxnRecord>) -> StageBreakdown {
        let mut n = 0u64;
        let mut acc = [0u64; 6];
        for r in records {
            n += 1;
            acc[0] += r.version_us;
            acc[1] += r.queries_us;
            acc[2] += r.certify_us;
            acc[3] += r.sync_us;
            acc[4] += r.commit_us;
            acc[5] += r.global_us;
        }
        if n == 0 {
            return StageBreakdown::default();
        }
        let avg = |x: u64| x as f64 / n as f64 / 1_000.0;
        StageBreakdown {
            version_ms: avg(acc[0]),
            queries_ms: avg(acc[1]),
            certify_ms: avg(acc[2]),
            sync_ms: avg(acc[3]),
            commit_ms: avg(acc[4]),
            global_ms: avg(acc[5]),
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Consistency configuration measured.
    pub mode: ConsistencyMode,
    /// Replicas in the cluster.
    pub replicas: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Measurement interval (after warm-up), ms of virtual time.
    pub duration_ms: f64,
    /// Committed transactions inside the measurement interval.
    pub committed: u64,
    /// ... of which updates.
    pub committed_updates: u64,
    /// Aborted transactions inside the measurement interval.
    pub aborted: u64,
    /// Throughput in committed transactions per second.
    pub tps: f64,
    /// Mean response time (ms).
    pub avg_response_ms: f64,
    /// 95th-percentile response time (ms).
    pub p95_response_ms: f64,
    /// Mean synchronization delay (ms): the start delay for the lazy
    /// configurations, the global commit delay for eager (the quantity of
    /// Figure 6).
    pub avg_sync_delay_ms: f64,
    /// Stage breakdown over committed read-only transactions.
    pub breakdown_ro: StageBreakdown,
    /// Stage breakdown over committed update transactions.
    pub breakdown_update: StageBreakdown,
    /// Stage breakdown over all committed transactions.
    pub breakdown_all: StageBreakdown,
    /// Violations of the mode's claimed consistency guarantee (must be 0).
    pub violations: usize,
    /// Violations of the *strict* strong-consistency check, regardless of
    /// what the mode claims. Zero for `Eager`/`LazyCoarse`; may be positive
    /// for `LazyFine` (which is strong in the view-based sense only) and is
    /// routinely positive for `Session`/`Baseline` under contention — the
    /// stale reads the paper's techniques exist to prevent.
    pub strict_stale_starts: usize,
    /// Transactions aborted by the certifier (conflict detected at commit
    /// time, after the full certification round trip).
    pub certifier_aborts: u64,
    /// Transactions aborted by the proxies' early certification (conflict
    /// detected locally against pending refresh writesets, before any
    /// certifier round trip).
    pub early_aborts: u64,
    /// Faults injected during the run (crashes, restarts counted once each
    /// at injection; message drops and delay windows once per event).
    pub faults_injected: u64,
    /// Certifier crashes injected.
    pub certifier_crashes: u64,
    /// Replica crashes injected.
    pub replica_crashes: u64,
    /// Refresh messages lost (dropped by injected network faults or
    /// addressed to a crashed replica).
    pub refreshes_dropped: u64,
    /// Re-synchronization rounds replicas ran to repair crash/drop gaps.
    pub resyncs: u64,
    /// Replicas that joined the cluster mid-run (snapshot-ship bootstrap,
    /// catch-up, admission) and became routable.
    pub replicas_joined: u64,
    /// Replicas decommissioned mid-run (drained, then removed from the
    /// membership).
    pub replicas_left: u64,
    /// Bootstrap attempts a joiner abandoned and restarted from another
    /// donor (donor crash mid-stream, or a snapshot rejected by its
    /// chunk checksums).
    pub bootstrap_retries: u64,
    /// Acknowledged commit versions missing from the certifier's durable
    /// log at the end of the run. Any non-zero value is a lost acked
    /// commit — the headline property says this must be 0 under every
    /// fault schedule.
    pub lost_acked_commits: usize,
    /// Requests still unanswered after the run settles: past the measured
    /// horizon it goes on, with no new requests and no faults, for as long
    /// again as it ran, or until every request is answered. What is open
    /// then was forgotten, not slow. Any non-zero value is a stall.
    pub unanswered: usize,
}

impl SimReport {
    /// Builds the report from raw records collected during measurement.
    #[must_use]
    pub fn from_records(
        mode: ConsistencyMode,
        replicas: usize,
        clients: usize,
        duration_us: SimTime,
        records: &[TxnRecord],
        violations: usize,
        strict_stale_starts: usize,
    ) -> SimReport {
        let committed: Vec<&TxnRecord> = records.iter().filter(|r| r.committed).collect();
        let aborted = records.len() as u64 - committed.len() as u64;
        let committed_updates = committed.iter().filter(|r| r.is_update).count() as u64;
        let duration_s = duration_us as f64 / 1_000_000.0;
        let mut responses: Vec<SimTime> = committed.iter().map(|r| r.response_us).collect();
        responses.sort_unstable();
        let avg_response_ms = if responses.is_empty() {
            0.0
        } else {
            responses.iter().sum::<u64>() as f64 / responses.len() as f64 / 1_000.0
        };
        let p95_response_ms = if responses.is_empty() {
            0.0
        } else {
            responses[(responses.len() - 1) * 95 / 100] as f64 / 1_000.0
        };
        // Figure 6's "synchronization delay": start delay for lazy modes,
        // global commit delay (updates only) for eager.
        let avg_sync_delay_ms = if mode == ConsistencyMode::Eager {
            let updates: Vec<&&TxnRecord> = committed.iter().filter(|r| r.is_update).collect();
            if updates.is_empty() {
                0.0
            } else {
                updates.iter().map(|r| r.global_us).sum::<u64>() as f64
                    / updates.len() as f64
                    / 1_000.0
            }
        } else if committed.is_empty() {
            0.0
        } else {
            committed.iter().map(|r| r.version_us).sum::<u64>() as f64
                / committed.len() as f64
                / 1_000.0
        };
        SimReport {
            mode,
            replicas,
            clients,
            duration_ms: duration_us as f64 / 1_000.0,
            committed: committed.len() as u64,
            committed_updates,
            aborted,
            tps: if duration_s > 0.0 {
                committed.len() as f64 / duration_s
            } else {
                0.0
            },
            avg_response_ms,
            p95_response_ms,
            avg_sync_delay_ms,
            breakdown_ro: StageBreakdown::from_records(
                committed.iter().filter(|r| !r.is_update).copied(),
            ),
            breakdown_update: StageBreakdown::from_records(
                committed.iter().filter(|r| r.is_update).copied(),
            ),
            breakdown_all: StageBreakdown::from_records(committed.iter().copied()),
            violations,
            strict_stale_starts,
            certifier_aborts: 0,
            early_aborts: 0,
            faults_injected: 0,
            certifier_crashes: 0,
            replica_crashes: 0,
            refreshes_dropped: 0,
            resyncs: 0,
            replicas_joined: 0,
            replicas_left: 0,
            bootstrap_retries: 0,
            lost_acked_commits: 0,
            unanswered: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(committed: bool, is_update: bool, response_us: u64) -> TxnRecord {
        TxnRecord {
            template: TemplateId(0),
            committed,
            is_update,
            issued_at: 0,
            response_us,
            version_us: 100,
            queries_us: 2_000,
            certify_us: if is_update { 500 } else { 0 },
            sync_us: if is_update { 300 } else { 0 },
            commit_us: 350,
            global_us: 0,
        }
    }

    #[test]
    fn report_aggregates() {
        let records = vec![
            rec(true, false, 3_000),
            rec(true, true, 5_000),
            rec(false, true, 1_000),
        ];
        let r = SimReport::from_records(
            ConsistencyMode::LazyCoarse,
            4,
            8,
            1_000_000, // 1s
            &records,
            0,
            0,
        );
        assert_eq!(r.committed, 2);
        assert_eq!(r.committed_updates, 1);
        assert_eq!(r.aborted, 1);
        assert!((r.tps - 2.0).abs() < 1e-9);
        assert!((r.avg_response_ms - 4.0).abs() < 1e-9);
        assert!((r.avg_sync_delay_ms - 0.1).abs() < 1e-9);
        assert!((r.breakdown_update.certify_ms - 0.5).abs() < 1e-9);
        assert_eq!(r.breakdown_ro.certify_ms, 0.0);
    }

    #[test]
    fn eager_sync_delay_is_global_stage() {
        let mut u = rec(true, true, 10_000);
        u.global_us = 8_000;
        let records = vec![u, rec(true, false, 2_000)];
        let r = SimReport::from_records(ConsistencyMode::Eager, 4, 8, 1_000_000, &records, 0, 0);
        assert!((r.avg_sync_delay_ms - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_records_do_not_panic() {
        let r = SimReport::from_records(ConsistencyMode::Session, 1, 1, 1_000_000, &[], 0, 0);
        assert_eq!(r.committed, 0);
        assert_eq!(r.tps, 0.0);
        assert_eq!(r.avg_response_ms, 0.0);
    }

    #[test]
    fn p95_is_order_statistic() {
        let records: Vec<TxnRecord> = (1..=100).map(|i| rec(true, false, i * 1_000)).collect();
        let r = SimReport::from_records(ConsistencyMode::Session, 1, 1, 1_000_000, &records, 0, 0);
        assert!((r.p95_response_ms - 95.0).abs() < 1.5);
    }

    #[test]
    fn breakdown_total_sums_stages() {
        let b = StageBreakdown {
            version_ms: 1.0,
            queries_ms: 2.0,
            certify_ms: 3.0,
            sync_ms: 4.0,
            commit_ms: 5.0,
            global_ms: 6.0,
        };
        assert!((b.total_ms() - 21.0).abs() < 1e-9);
    }
}
