//! The calibrated cost model: how much virtual time each physical action
//! costs.
//!
//! Defaults are calibrated to the paper's testbed (2008-era dual-core
//! servers, SQL Server with a warm cache, Gigabit Ethernet): sub-millisecond
//! point statements, a fraction of a millisecond per network hop, and a
//! certifier whose service time is far below a replica's per-transaction
//! cost (the paper stresses the certifier is lightweight). Absolute numbers
//! only shift the curves; the *shapes* the benchmarks reproduce come from
//! the protocol structure and queueing.

use crate::kernel::SimTime;
use bargain_common::WriteSet;

/// Virtual-time costs (microseconds) for every charged action.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Service time of a read statement at a replica.
    pub read_stmt_us: SimTime,
    /// Service time of an update statement at a replica.
    pub update_stmt_us: SimTime,
    /// Service time of a local commit (read-only or update).
    pub commit_us: SimTime,
    /// Base service time of applying one refresh writeset.
    pub refresh_base_us: SimTime,
    /// Additional service time per writeset entry applied.
    pub refresh_entry_us: SimTime,
    /// Certifier service time per certification request.
    pub certify_us: SimTime,
    /// Certifier log-force time per commit decision (durability).
    pub wal_append_us: SimTime,
    /// One-way network latency between any two middleware nodes.
    pub net_latency_us: SimTime,
    /// Uniform jitter added on top of `net_latency_us` (`0..=jitter`).
    pub net_jitter_us: SimTime,
    /// Per-KiB serialization/transfer cost added to messages carrying
    /// writesets.
    pub net_per_kib_us: SimTime,
    /// Load-balancer processing per routed message.
    pub lb_route_us: SimTime,
    /// Base cost of certifier crash recovery (process restart, log open).
    pub cert_recovery_base_us: SimTime,
    /// Per-logged-record cost of replaying the commit log during certifier
    /// recovery.
    pub cert_recovery_record_us: SimTime,
    /// Base cost of a replica restart before it can serve again (its
    /// catch-up refreshes are charged at the normal refresh rates on top).
    pub replica_recovery_base_us: SimTime,
    /// Parallel service slots per replica (worker threads the DBMS runs).
    pub replica_workers: usize,
    /// If `true`, commits and refresh writesets are applied on a dedicated
    /// single-server lane per replica instead of competing with statement
    /// execution for the worker pool. The paper's prototype applies
    /// refreshes sequentially *inside the same DBMS* — they contend with
    /// client statements — so the faithful default is `false`; the
    /// dedicated lane exists for the ablation bench.
    pub dedicated_apply_lane: bool,
    /// Per-replica relative speed factors; service times at replica `i` are
    /// multiplied by `replica_speed[i % len]` (1.0 = nominal). A slightly
    /// heterogeneous default mirrors real clusters and drives the eager
    /// configuration's "slowest replica" delay.
    pub replica_speed: Vec<f64>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_stmt_us: 700,
            update_stmt_us: 1_100,
            commit_us: 350,
            refresh_base_us: 450,
            refresh_entry_us: 90,
            certify_us: 60,
            wal_append_us: 110,
            net_latency_us: 280,
            net_jitter_us: 140,
            net_per_kib_us: 9,
            lb_route_us: 25,
            cert_recovery_base_us: 5_000,
            cert_recovery_record_us: 2,
            replica_recovery_base_us: 8_000,
            replica_workers: 8,
            dedicated_apply_lane: false,
            replica_speed: vec![1.0, 1.08, 0.96, 1.15, 1.02, 0.92, 1.10, 1.05],
        }
    }
}

impl CostModel {
    /// Speed factor of replica `i`.
    #[must_use]
    pub fn speed(&self, replica: usize) -> f64 {
        if self.replica_speed.is_empty() {
            1.0
        } else {
            self.replica_speed[replica % self.replica_speed.len()]
        }
    }

    /// Scales a nominal duration by a replica's speed factor.
    #[must_use]
    pub fn at_replica(&self, replica: usize, nominal: SimTime) -> SimTime {
        ((nominal as f64) * self.speed(replica)).round().max(1.0) as SimTime
    }

    /// Statement service time at a replica.
    #[must_use]
    pub fn stmt_cost(&self, replica: usize, is_update: bool) -> SimTime {
        let nominal = if is_update {
            self.update_stmt_us
        } else {
            self.read_stmt_us
        };
        self.at_replica(replica, nominal)
    }

    /// Refresh application service time at a replica.
    #[must_use]
    pub fn refresh_cost(&self, replica: usize, ws: &WriteSet) -> SimTime {
        let nominal = self.refresh_base_us + self.refresh_entry_us * ws.len() as SimTime;
        self.at_replica(replica, nominal)
    }

    /// Network transfer cost for a message carrying `payload_bytes`.
    #[must_use]
    pub fn transfer_cost(&self, payload_bytes: usize) -> SimTime {
        self.net_per_kib_us * (payload_bytes as SimTime).div_ceil(1024)
    }

    /// Certifier service time for one certification (durability included).
    #[must_use]
    pub fn certification_cost(&self) -> SimTime {
        self.certification_batch_cost(1)
    }

    /// Certifier service time for a group-committed batch of `n`
    /// certifications: per-request certification work plus a *single* WAL
    /// force for the whole batch.
    #[must_use]
    pub fn certification_batch_cost(&self, n: usize) -> SimTime {
        self.certify_us * n as SimTime + self.wal_append_us
    }

    /// Certifier recovery time when its log holds `log_records` records.
    #[must_use]
    pub fn cert_recovery_cost(&self, log_records: usize) -> SimTime {
        self.cert_recovery_base_us + self.cert_recovery_record_us * log_records as SimTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{TableId, Value, WriteOp};

    #[test]
    fn default_is_sane() {
        let c = CostModel::default();
        assert!(c.update_stmt_us > c.read_stmt_us);
        assert!(c.certification_cost() < c.read_stmt_us);
        assert!(c.replica_workers >= 1);
    }

    #[test]
    fn speed_scaling() {
        let c = CostModel {
            replica_speed: vec![1.0, 2.0],
            ..CostModel::default()
        };
        assert_eq!(c.at_replica(0, 100), 100);
        assert_eq!(c.at_replica(1, 100), 200);
        assert_eq!(c.at_replica(2, 100), 100); // wraps
        assert_eq!(c.at_replica(3, 100), 200);
    }

    #[test]
    fn empty_speed_vector_is_nominal() {
        let c = CostModel {
            replica_speed: vec![],
            ..CostModel::default()
        };
        assert_eq!(c.speed(5), 1.0);
        assert_eq!(c.at_replica(5, 100), 100);
    }

    #[test]
    fn refresh_cost_grows_with_writeset() {
        let c = CostModel::default();
        let mut small = WriteSet::new();
        small.push(TableId(0), Value::Int(1), WriteOp::Delete);
        let mut big = WriteSet::new();
        for i in 0..10 {
            big.push(TableId(0), Value::Int(i), WriteOp::Delete);
        }
        assert!(c.refresh_cost(0, &big) > c.refresh_cost(0, &small));
    }

    #[test]
    fn batch_certification_amortizes_the_wal_force() {
        let c = CostModel::default();
        assert_eq!(c.certification_batch_cost(1), c.certification_cost());
        assert_eq!(
            c.certification_batch_cost(8),
            8 * c.certify_us + c.wal_append_us
        );
        assert!(c.certification_batch_cost(8) < 8 * c.certification_cost());
    }

    #[test]
    fn transfer_cost_rounds_up_to_kib() {
        let c = CostModel::default();
        assert_eq!(c.transfer_cost(0), 0);
        assert_eq!(c.transfer_cost(1), c.net_per_kib_us);
        assert_eq!(c.transfer_cost(1024), c.net_per_kib_us);
        assert_eq!(c.transfer_cost(1025), 2 * c.net_per_kib_us);
    }

    #[test]
    fn minimum_cost_is_one_microsecond() {
        let c = CostModel {
            replica_speed: vec![0.0001],
            ..CostModel::default()
        };
        assert_eq!(c.at_replica(0, 1), 1);
    }
}
