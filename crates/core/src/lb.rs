//! The load balancer: client-facing routing plus the version accounting
//! that implements each consistency configuration.
//!
//! The load balancer hides the distributed nature of the cluster. It routes
//! each transaction to the replica with the fewest active transactions (the
//! paper's minimalistic policy — no workload-aware routing) and tags the
//! request with a *start requirement* version:
//!
//! | Mode         | Start requirement                                       |
//! |--------------|---------------------------------------------------------|
//! | `Eager`      | none — replicas are always current when clients are acked |
//! | `LazyCoarse` | `V_system`, the newest version acknowledged to any client |
//! | `LazyFine`   | `max V_t` over the transaction's statically known table-set |
//! | `Session`    | the version last observed by this client's session      |
//! | `Baseline`   | none (GSI only; ablation mode)                          |
//!
//! Per-table versions `V_t` and the session dictionary are maintained from
//! the outcomes replicas report back (Table I of the paper walks through the
//! `V_t` accounting; `lb::tests::table_i_walkthrough` reproduces it).

use crate::messages::{RoutedTxn, TxnOutcome, TxnRequest};
use bargain_common::{
    ConsistencyMode, Error, ReplicaId, Result, SessionId, TableSet, TemplateId, TxnId, Version,
};
use std::collections::HashMap;

/// How far, in versions, a joining replica may lag `V_system` and still be
/// admitted ([`LoadBalancer::admits`]): it bounds the extra start-requirement
/// wait a transaction routed to a fresh joiner can observe.
pub const JOIN_LAG_BOUND: u64 = 64;

/// How the load balancer picks a replica for each transaction. The paper's
/// prototype uses least-active-transactions; the alternatives exist for the
/// routing-policy ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Route to the replica with the fewest active transactions (paper).
    #[default]
    LeastConnections,
    /// Route in strict rotation, ignoring load.
    RoundRobin,
    /// Route pseudo-randomly (deterministic xorshift).
    Random,
}

/// Counters the load balancer maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadBalancerStats {
    /// Transactions routed.
    pub routed: u64,
    /// Committed outcomes observed.
    pub commits: u64,
    /// Aborted outcomes observed.
    pub aborts: u64,
    /// Outcomes nobody knows: transactions whose certification request was
    /// in flight when the certifier link failed. Each may have committed
    /// or not, so it counts as neither a commit nor an abort.
    pub in_doubt: u64,
    /// Times a replica was marked down.
    pub replica_downs: u64,
    /// Transactions re-routed away from a failed replica.
    pub rerouted: u64,
    /// Times the certifier was marked down (link failure detected).
    pub certifier_downs: u64,
    /// Times the certifier was marked up again (link recovered).
    pub certifier_ups: u64,
    /// Transactions refused with `Unavailable` while the certifier was
    /// down (overload-shedding style backpressure instead of queueing
    /// unboundedly behind a dead link).
    pub shed_certifier_down: u64,
}

/// The load balancer state machine.
pub struct LoadBalancer {
    mode: ConsistencyMode,
    replicas: Vec<ReplicaId>,
    /// Active (routed, not yet completed) transactions per replica.
    active: Vec<u32>,
    /// Replicas currently marked failed; routing skips them.
    down: Vec<bool>,
    /// `V_system`: version of the latest transaction committed *and
    /// acknowledged to clients*.
    v_system: Version,
    /// Per-table versions, indexed by `TableId` (fine-grained mode).
    table_versions: Vec<Version>,
    /// Session dictionary: newest version each session has observed.
    sessions: HashMap<SessionId, Version>,
    /// Statically extracted table-sets per transaction template. In the
    /// prototype this dictionary is loaded from the database once at
    /// startup (paper §IV-B); hosts populate it via
    /// [`LoadBalancer::register_template`].
    table_sets: HashMap<TemplateId, TableSet>,
    next_txn: u64,
    /// Whether the certifier link is currently believed healthy. While it
    /// is down, new transactions are refused with `Unavailable` rather than
    /// queued behind a link that may never answer.
    certifier_up: bool,
    policy: RoutingPolicy,
    rr_next: usize,
    rng_state: u64,
    stats: LoadBalancerStats,
}

impl LoadBalancer {
    /// A load balancer for `replicas` running in `mode`, over a database of
    /// `n_tables` tables.
    #[must_use]
    pub fn new(mode: ConsistencyMode, replicas: Vec<ReplicaId>, n_tables: usize) -> Self {
        let n = replicas.len();
        LoadBalancer {
            mode,
            replicas,
            active: vec![0; n],
            down: vec![false; n],
            v_system: Version::ZERO,
            table_versions: vec![Version::ZERO; n_tables],
            sessions: HashMap::new(),
            table_sets: HashMap::new(),
            next_txn: 0,
            certifier_up: true,
            policy: RoutingPolicy::LeastConnections,
            rr_next: 0,
            rng_state: 0x243F_6A88_85A3_08D3,
            stats: LoadBalancerStats::default(),
        }
    }

    /// Selects the routing policy (default: least connections).
    pub fn set_policy(&mut self, policy: RoutingPolicy) {
        self.policy = policy;
    }

    /// The consistency configuration in force.
    #[must_use]
    pub fn mode(&self) -> ConsistencyMode {
        self.mode
    }

    /// Registers a transaction template's statically extracted table-set.
    pub fn register_template(&mut self, template: TemplateId, table_set: TableSet) {
        self.table_sets.insert(template, table_set);
    }

    /// `V_system`.
    #[must_use]
    pub fn v_system(&self) -> Version {
        self.v_system
    }

    /// The recorded version of table `t` (fine-grained accounting).
    #[must_use]
    pub fn table_version(&self, t: bargain_common::TableId) -> Version {
        self.table_versions
            .get(t.index())
            .copied()
            .unwrap_or(Version::ZERO)
    }

    /// The version last observed by `session`.
    #[must_use]
    pub fn session_version(&self, session: SessionId) -> Version {
        self.sessions
            .get(&session)
            .copied()
            .unwrap_or(Version::ZERO)
    }

    /// Number of transactions currently routed to `replica` and not yet
    /// completed.
    #[must_use]
    pub fn active_on(&self, replica: ReplicaId) -> u32 {
        self.active[self.index_of(replica)]
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> LoadBalancerStats {
        self.stats
    }

    /// Marks a replica failed: no new transaction is routed to it until
    /// [`Self::mark_up`]. In-flight slots are released by the abort
    /// outcomes the crashing proxy reports, not here.
    pub fn mark_down(&mut self, replica: ReplicaId) {
        let idx = self.index_of(replica);
        self.down[idx] = true;
        self.stats.replica_downs += 1;
    }

    /// Marks a replica available for routing again. Safe to call before the
    /// replica has fully caught up: consistency is enforced by the start
    /// requirement (a behind replica parks the transaction until its
    /// re-synchronization reaches the required version), so routing to a
    /// recovering replica costs latency, never correctness.
    pub fn mark_up(&mut self, replica: ReplicaId) {
        let idx = self.index_of(replica);
        self.down[idx] = false;
    }

    /// Whether `replica` is currently routable.
    #[must_use]
    pub fn is_up(&self, replica: ReplicaId) -> bool {
        !self.down[self.index_of(replica)]
    }

    /// Marks the certifier unreachable: new transactions are refused with
    /// `Unavailable` until [`Self::mark_certifier_up`]. Fed by the
    /// certifier link's heartbeat failure detector.
    pub fn mark_certifier_down(&mut self) {
        if self.certifier_up {
            self.certifier_up = false;
            self.stats.certifier_downs += 1;
        }
    }

    /// Marks the certifier reachable again (link reconnected and resynced).
    pub fn mark_certifier_up(&mut self) {
        if !self.certifier_up {
            self.certifier_up = true;
            self.stats.certifier_ups += 1;
        }
    }

    /// Whether the certifier link is currently believed healthy.
    #[must_use]
    pub fn certifier_is_up(&self) -> bool {
        self.certifier_up
    }

    /// Number of routable replicas.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.down.iter().filter(|&&d| !d).count()
    }

    fn index_of(&self, replica: ReplicaId) -> usize {
        self.replicas
            .iter()
            .position(|&r| r == replica)
            .expect("unknown replica")
    }

    /// Adds a replica to the routing set, **marked down**: a joining
    /// replica becomes known (so outcome accounting and drain work) before
    /// it is routable. The join protocol calls [`Self::mark_up`] only once
    /// the replica has caught up within the lag bound — the admission
    /// point. Idempotent.
    pub fn add_replica(&mut self, replica: ReplicaId) {
        if self.replicas.contains(&replica) {
            return;
        }
        self.replicas.push(replica);
        self.active.push(0);
        self.down.push(true);
    }

    /// Removes a decommissioned replica from the routing set entirely.
    /// The caller must have drained it first (no new routes + in-flight
    /// complete); any slots still accounted to it are dropped. Unknown
    /// replicas are ignored (decommission + crash can race).
    pub fn remove_replica(&mut self, replica: ReplicaId) {
        if let Some(idx) = self.replicas.iter().position(|&r| r == replica) {
            self.replicas.remove(idx);
            self.active.remove(idx);
            self.down.remove(idx);
        }
    }

    /// The join admission rule, one for every host: a joiner that has
    /// applied up to `v_local` becomes routable once
    /// `V_system - v_local <= lag_bound`.
    #[must_use]
    pub fn admits(&self, v_local: Version, lag_bound: u64) -> bool {
        self.v_system.0.saturating_sub(v_local.0) <= lag_bound
    }

    /// The leave rule, one for every host: `replica` may leave unless it is
    /// unknown (a protocol error) or it is up and no other replica is (a
    /// refusal to retry later). A down replica's leaving lowers no
    /// availability, so it may leave whoever else is up.
    pub fn may_leave(&self, replica: ReplicaId) -> Result<()> {
        if !self.knows_replica(replica) {
            let why = format!("decommission refused: unknown replica {}", replica.index());
            return Err(Error::Protocol(why));
        }
        if self.is_up(replica) && self.up_count() == 1 {
            let why = "decommission refused: last available replica (retry-after)";
            return Err(Error::Unavailable(why.into()));
        }
        Ok(())
    }

    /// Whether `replica` is part of the routing set (up or down).
    #[must_use]
    pub fn knows_replica(&self, replica: ReplicaId) -> bool {
        self.replicas.contains(&replica)
    }

    /// The least-loaded routable replica (ties broken by position), or
    /// `None` when every replica is down. Used to pick a snapshot donor
    /// without disturbing the routing counters.
    #[must_use]
    pub fn least_loaded_up(&self) -> Option<ReplicaId> {
        (0..self.replicas.len())
            .filter(|&i| !self.down[i])
            .min_by_key(|&i| (self.active[i], i))
            .map(|i| self.replicas[i])
    }

    /// Routes a transaction: picks the least-loaded *up* replica, assigns a
    /// [`TxnId`], and computes the start requirement for the current mode.
    /// Fails when every replica is marked down.
    pub fn route(&mut self, req: TxnRequest) -> Result<RoutedTxn> {
        if !self.certifier_up {
            self.stats.shed_certifier_down += 1;
            return Err(Error::Unavailable(
                "certifier unavailable: link down, reconnecting (retry-after)".to_owned(),
            ));
        }
        let start_requirement = self.start_requirement(req.session, req.template)?;
        let idx = self.pick_replica()?;
        self.active[idx] += 1;
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        self.stats.routed += 1;
        Ok(RoutedTxn {
            txn,
            client: req.client,
            session: req.session,
            template: req.template,
            params: req.params,
            replica: self.replicas[idx],
            start_requirement,
            idem: req.idem,
        })
    }

    /// Re-routes a transaction whose assigned replica failed before it
    /// started: moves the routing slot to a currently up replica, keeping
    /// the transaction id and the original start requirement (still valid —
    /// requirements only constrain from below). Fails when no replica is up.
    pub fn reroute(&mut self, routed: &RoutedTxn) -> Result<RoutedTxn> {
        let idx = self.pick_replica()?;
        let old = self.index_of(routed.replica);
        self.active[old] = self.active[old].saturating_sub(1);
        self.active[idx] += 1;
        self.stats.rerouted += 1;
        Ok(RoutedTxn {
            replica: self.replicas[idx],
            ..routed.clone()
        })
    }

    fn pick_replica(&mut self) -> Result<usize> {
        let up: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| !self.down[i])
            .collect();
        if up.is_empty() {
            return Err(Error::Protocol(
                "no replica available: all marked down".to_owned(),
            ));
        }
        Ok(match self.policy {
            // Least active transactions; ties broken by replica order for
            // determinism.
            RoutingPolicy::LeastConnections => *up
                .iter()
                .min_by_key(|&&i| (self.active[i], i))
                .expect("nonempty"),
            RoutingPolicy::RoundRobin => {
                let i = up[self.rr_next % up.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                i
            }
            RoutingPolicy::Random => {
                // xorshift64*: deterministic, seedless routing.
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                up[(x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % up.len()]
            }
        })
    }

    /// The start requirement the current mode dictates for a transaction of
    /// `template` from `session`.
    pub fn start_requirement(&self, session: SessionId, template: TemplateId) -> Result<Version> {
        Ok(match self.mode {
            ConsistencyMode::Eager | ConsistencyMode::Baseline => Version::ZERO,
            ConsistencyMode::LazyCoarse => self.v_system,
            ConsistencyMode::LazyFine => {
                let ts = self.table_sets.get(&template).ok_or_else(|| {
                    Error::Protocol(format!("no table-set registered for template {template}"))
                })?;
                ts.iter()
                    .map(|&t| self.table_version(t))
                    .max()
                    .unwrap_or(Version::ZERO)
            }
            ConsistencyMode::Session => self.session_version(session),
        })
    }

    /// Records a transaction outcome reported by a replica: updates active
    /// counts, `V_system`, per-table versions, and the session dictionary.
    pub fn on_outcome(&mut self, outcome: &TxnOutcome) {
        // A straggler outcome from a replica that has since been
        // decommissioned still carries version/session information; only
        // the slot accounting is gone.
        self.release(outcome.replica);
        if !outcome.committed {
            self.stats.aborts += 1;
            return;
        }
        self.stats.commits += 1;
        if let Some(v) = outcome.commit_version {
            if v > self.v_system {
                self.v_system = v;
            }
            for &t in &outcome.tables_written {
                if t.index() >= self.table_versions.len() {
                    self.table_versions.resize(t.index() + 1, Version::ZERO);
                }
                if v > self.table_versions[t.index()] {
                    self.table_versions[t.index()] = v;
                }
            }
        }
        // Session accounting: the session has now observed at least
        // `observed_version` (commit version for updates, snapshot for
        // read-only transactions), keeping its snapshots monotone.
        let entry = self
            .sessions
            .entry(outcome.session)
            .or_insert(Version::ZERO);
        if outcome.observed_version > *entry {
            *entry = outcome.observed_version;
        }
    }

    /// Records a transaction whose outcome is unknown (see
    /// [`LoadBalancerStats::in_doubt`]): its slot is released, and nothing
    /// else is learnt. If it committed, its version reaches `V_system`
    /// through the client's retry, which the certifier answers with the
    /// original outcome.
    pub fn on_in_doubt(&mut self, outcome: &TxnOutcome) {
        self.release(outcome.replica);
        self.stats.in_doubt += 1;
    }

    /// Frees one routing slot on `replica`, if it is still a member.
    fn release(&mut self, replica: ReplicaId) {
        if let Some(idx) = self.replicas.iter().position(|&r| r == replica) {
            self.active[idx] = self.active[idx].saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{ClientId, TableId};

    fn outcome(
        replica: u32,
        session: u64,
        commit_version: Option<u64>,
        observed: u64,
        tables: &[u32],
    ) -> TxnOutcome {
        TxnOutcome {
            txn: TxnId(0),
            client: ClientId(1),
            session: SessionId(session),
            replica: ReplicaId(replica),
            committed: true,
            commit_version: commit_version.map(Version),
            observed_version: Version(observed),
            tables_written: tables.iter().map(|&t| TableId(t)).collect(),
            abort_reason: None,
        }
    }

    fn request(session: u64, template: u32) -> TxnRequest {
        TxnRequest {
            client: ClientId(session),
            session: SessionId(session),
            template: TemplateId(template),
            params: vec![],
            idem: None,
        }
    }

    fn lb(mode: ConsistencyMode) -> LoadBalancer {
        let mut lb = LoadBalancer::new(mode, (0..3).map(ReplicaId).collect(), 3);
        lb.register_template(TemplateId(0), TableSet::from_iter([TableId(0)]));
        lb.register_template(TemplateId(1), TableSet::from_iter([TableId(1), TableId(2)]));
        lb
    }

    #[test]
    fn least_connections_routing() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        let a = lb.route(request(1, 0)).unwrap();
        let b = lb.route(request(2, 0)).unwrap();
        let c = lb.route(request(3, 0)).unwrap();
        // Round-robins across equally loaded replicas.
        assert_eq!(a.replica, ReplicaId(0));
        assert_eq!(b.replica, ReplicaId(1));
        assert_eq!(c.replica, ReplicaId(2));
        // Completing one on replica 1 makes it least-loaded again.
        lb.on_outcome(&outcome(1, 2, Some(1), 1, &[0]));
        let d = lb.route(request(4, 0)).unwrap();
        assert_eq!(d.replica, ReplicaId(1));
        // Distinct ids.
        assert_ne!(a.txn, b.txn);
    }

    #[test]
    fn coarse_tags_with_v_system() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        assert_eq!(
            lb.route(request(1, 0)).unwrap().start_requirement,
            Version::ZERO
        );
        lb.on_outcome(&outcome(0, 1, Some(7), 7, &[0]));
        assert_eq!(lb.v_system(), Version(7));
        assert_eq!(
            lb.route(request(2, 0)).unwrap().start_requirement,
            Version(7)
        );
    }

    #[test]
    fn eager_and_baseline_never_delay_start() {
        for mode in [ConsistencyMode::Eager, ConsistencyMode::Baseline] {
            let mut lb = lb(mode);
            lb.on_outcome(&outcome(0, 1, Some(9), 9, &[0, 1, 2]));
            assert_eq!(
                lb.route(request(2, 1)).unwrap().start_requirement,
                Version::ZERO
            );
        }
    }

    #[test]
    fn fine_uses_max_table_version_of_table_set() {
        let mut lb = lb(ConsistencyMode::LazyFine);
        // Commit v1 writing table 0; commit v2 writing tables 1,2.
        lb.on_outcome(&outcome(0, 1, Some(1), 1, &[0]));
        lb.on_outcome(&outcome(1, 1, Some(2), 2, &[1, 2]));
        // Template 0 touches table 0 only: requirement v1, not v2.
        assert_eq!(
            lb.route(request(2, 0)).unwrap().start_requirement,
            Version(1)
        );
        // Template 1 touches tables 1,2: requirement v2.
        assert_eq!(
            lb.route(request(3, 1)).unwrap().start_requirement,
            Version(2)
        );
    }

    #[test]
    fn fine_requires_registered_table_set() {
        let mut lb = lb(ConsistencyMode::LazyFine);
        assert!(lb.route(request(1, 99)).is_err());
    }

    #[test]
    fn session_tracks_per_session_versions() {
        let mut lb = lb(ConsistencyMode::Session);
        lb.on_outcome(&outcome(0, 1, Some(5), 5, &[0]));
        lb.on_outcome(&outcome(1, 2, Some(9), 9, &[0]));
        assert_eq!(
            lb.route(request(1, 0)).unwrap().start_requirement,
            Version(5)
        );
        assert_eq!(
            lb.route(request(2, 0)).unwrap().start_requirement,
            Version(9)
        );
        // A session that committed nothing has no requirement.
        assert_eq!(
            lb.route(request(3, 0)).unwrap().start_requirement,
            Version::ZERO
        );
    }

    #[test]
    fn session_observes_read_snapshots_monotonically() {
        let mut lb = lb(ConsistencyMode::Session);
        // Read-only outcome that observed snapshot v6 on some replica.
        lb.on_outcome(&outcome(0, 1, None, 6, &[]));
        assert_eq!(lb.session_version(SessionId(1)), Version(6));
        // An older observation does not move the session backwards.
        lb.on_outcome(&outcome(1, 1, None, 3, &[]));
        assert_eq!(lb.session_version(SessionId(1)), Version(6));
    }

    #[test]
    fn aborted_outcomes_only_release_the_slot() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        let routed = lb.route(request(1, 0)).unwrap();
        assert_eq!(lb.active_on(routed.replica), 1);
        lb.on_outcome(&TxnOutcome {
            committed: false,
            commit_version: None,
            observed_version: Version(4),
            abort_reason: Some("certification".into()),
            ..outcome(0, 1, None, 0, &[])
        });
        assert_eq!(lb.active_on(routed.replica), 0);
        assert_eq!(lb.v_system(), Version::ZERO);
        assert_eq!(lb.session_version(SessionId(1)), Version::ZERO);
        assert_eq!(lb.stats().aborts, 1);
    }

    /// Reproduces Table I of the paper: six update transactions over tables
    /// (A, B, C) = (0, 1, 2), and the database/table versions after each.
    #[test]
    fn table_i_walkthrough() {
        let mut lb = lb(ConsistencyMode::LazyFine);
        let a = 0u32;
        let b = 1u32;
        let c = 2u32;
        // T1 updates {A} at v1.
        lb.on_outcome(&outcome(0, 1, Some(1), 1, &[a]));
        assert_eq!(
            (
                lb.v_system().0,
                lb.table_version(TableId(a)).0,
                lb.table_version(TableId(b)).0,
                lb.table_version(TableId(c)).0
            ),
            (1, 1, 0, 0)
        );
        // T2 updates {B, C} at v2.
        lb.on_outcome(&outcome(0, 1, Some(2), 2, &[b, c]));
        assert_eq!(
            (
                lb.v_system().0,
                lb.table_version(TableId(a)).0,
                lb.table_version(TableId(b)).0,
                lb.table_version(TableId(c)).0
            ),
            (2, 1, 2, 2)
        );
        // T3 updates {B} at v3.
        lb.on_outcome(&outcome(0, 1, Some(3), 3, &[b]));
        assert_eq!((lb.v_system().0, lb.table_version(TableId(b)).0), (3, 3));
        // T4 updates {C} at v4.
        lb.on_outcome(&outcome(0, 1, Some(4), 4, &[c]));
        assert_eq!((lb.v_system().0, lb.table_version(TableId(c)).0), (4, 4));
        // T5 updates {B, C} at v5.
        lb.on_outcome(&outcome(0, 1, Some(5), 5, &[b, c]));
        assert_eq!(
            (
                lb.v_system().0,
                lb.table_version(TableId(a)).0,
                lb.table_version(TableId(b)).0,
                lb.table_version(TableId(c)).0
            ),
            (5, 1, 5, 5)
        );
        // T6 reads/writes table A only: the fine-grained requirement is v1
        // (table A's version), not v5 (the database version) — the paper's
        // key observation.
        assert_eq!(
            lb.start_requirement(SessionId(9), TemplateId(0)).unwrap(),
            Version(1)
        );
    }

    #[test]
    fn round_robin_ignores_load() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        lb.set_policy(RoutingPolicy::RoundRobin);
        let picks: Vec<u32> = (0..6)
            .map(|i| lb.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_routing_is_deterministic_and_spread() {
        let mut a = lb(ConsistencyMode::LazyCoarse);
        a.set_policy(RoutingPolicy::Random);
        let mut b = lb(ConsistencyMode::LazyCoarse);
        b.set_policy(RoutingPolicy::Random);
        let pa: Vec<u32> = (0..50)
            .map(|i| a.route(request(i, 0)).unwrap().replica.0)
            .collect();
        let pb: Vec<u32> = (0..50)
            .map(|i| b.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert_eq!(pa, pb, "seedless xorshift routing must be deterministic");
        for r in 0..3u32 {
            assert!(pa.contains(&r), "replica {r} never chosen in 50 draws");
        }
    }

    #[test]
    fn routing_skips_down_replicas_and_errs_when_none_up() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        lb.mark_down(ReplicaId(0));
        assert!(!lb.is_up(ReplicaId(0)));
        assert_eq!(lb.up_count(), 2);
        // Least-connections now rotates over replicas 1 and 2 only.
        let picks: Vec<u32> = (0..4)
            .map(|i| lb.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert_eq!(picks, vec![1, 2, 1, 2]);
        lb.mark_down(ReplicaId(1));
        lb.mark_down(ReplicaId(2));
        assert!(lb.route(request(9, 0)).is_err());
        // Recovery restores routing.
        lb.mark_up(ReplicaId(0));
        assert_eq!(lb.route(request(10, 0)).unwrap().replica, ReplicaId(0));
        assert_eq!(lb.stats().replica_downs, 3);
    }

    #[test]
    fn round_robin_skips_down_replicas() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        lb.set_policy(RoutingPolicy::RoundRobin);
        lb.mark_down(ReplicaId(1));
        let picks: Vec<u32> = (0..4)
            .map(|i| lb.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn reroute_moves_slot_and_keeps_identity() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        let routed = lb.route(request(1, 0)).unwrap();
        assert_eq!(routed.replica, ReplicaId(0));
        assert_eq!(lb.active_on(ReplicaId(0)), 1);
        lb.mark_down(ReplicaId(0));
        let moved = lb.reroute(&routed).unwrap();
        assert_ne!(moved.replica, ReplicaId(0));
        assert_eq!(moved.txn, routed.txn);
        assert_eq!(moved.start_requirement, routed.start_requirement);
        assert_eq!(lb.active_on(ReplicaId(0)), 0);
        assert_eq!(lb.active_on(moved.replica), 1);
        assert_eq!(lb.stats().rerouted, 1);
        // The moved transaction completes normally.
        lb.on_outcome(&TxnOutcome {
            replica: moved.replica,
            ..outcome(moved.replica.0, 1, Some(1), 1, &[0])
        });
        assert_eq!(lb.active_on(moved.replica), 0);
    }

    #[test]
    fn certifier_down_sheds_new_transactions_until_recovery() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        assert!(lb.certifier_is_up());
        lb.mark_certifier_down();
        lb.mark_certifier_down(); // idempotent: counts once
        assert!(!lb.certifier_is_up());
        let err = lb.route(request(1, 0)).unwrap_err();
        assert!(matches!(err, bargain_common::Error::Unavailable(_)));
        assert!(err.to_string().contains("retry-after"));
        lb.mark_certifier_up();
        assert!(lb.certifier_is_up());
        assert!(lb.route(request(1, 0)).is_ok());
        let s = lb.stats();
        assert_eq!(s.certifier_downs, 1);
        assert_eq!(s.certifier_ups, 1);
        assert_eq!(s.shed_certifier_down, 1);
    }

    #[test]
    fn added_replica_joins_down_and_routes_after_mark_up() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        lb.add_replica(ReplicaId(3));
        lb.add_replica(ReplicaId(3)); // idempotent
        assert!(lb.knows_replica(ReplicaId(3)));
        assert!(!lb.is_up(ReplicaId(3)));
        assert_eq!(lb.up_count(), 3);
        // Not routable until admitted.
        let picks: Vec<u32> = (0..3)
            .map(|i| lb.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert!(!picks.contains(&3));
        // Admission makes it the least-loaded choice.
        lb.mark_up(ReplicaId(3));
        assert_eq!(lb.up_count(), 4);
        assert_eq!(lb.route(request(9, 0)).unwrap().replica, ReplicaId(3));
    }

    #[test]
    fn a_joiner_is_admitted_within_the_lag_bound_of_v_system() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        lb.on_outcome(&outcome(0, 1, Some(100), 100, &[0]));
        assert!(lb.admits(Version(100 - JOIN_LAG_BOUND), JOIN_LAG_BOUND));
        assert!(!lb.admits(Version(99 - JOIN_LAG_BOUND), JOIN_LAG_BOUND));
        assert!(lb.admits(Version(100), 0));
        assert!(!lb.admits(Version(99), 0));
    }

    #[test]
    fn removed_replica_is_forgotten_and_stragglers_are_safe() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        let routed = lb.route(request(1, 0)).unwrap();
        assert_eq!(routed.replica, ReplicaId(0));
        lb.mark_down(ReplicaId(0));
        lb.remove_replica(ReplicaId(0));
        lb.remove_replica(ReplicaId(0)); // idempotent
        assert!(!lb.knows_replica(ReplicaId(0)));
        assert_eq!(lb.up_count(), 2);
        // A straggler outcome from the removed replica still advances
        // version accounting without panicking.
        lb.on_outcome(&outcome(0, 1, Some(7), 7, &[0]));
        assert_eq!(lb.v_system(), Version(7));
        // Routing continues over the survivors.
        let picks: Vec<u32> = (0..4)
            .map(|i| lb.route(request(i, 0)).unwrap().replica.0)
            .collect();
        assert!(picks.iter().all(|&r| r == 1 || r == 2));
    }

    #[test]
    fn an_in_doubt_outcome_is_neither_a_commit_nor_an_abort() {
        let mut lb = lb(ConsistencyMode::LazyCoarse);
        let routed = lb.route(request(1, 0)).unwrap();
        assert_eq!(lb.active_on(routed.replica), 1);
        // What `Proxy::abort_certifying` yields when the certifier link
        // fails with the request in flight: the update may have committed.
        lb.on_in_doubt(&TxnOutcome {
            txn: routed.txn,
            committed: false,
            commit_version: None,
            abort_reason: Some("link down, outcome unknown (retry-after)".into()),
            ..outcome(routed.replica.0, 1, None, 0, &[])
        });
        let stats = lb.stats();
        assert_eq!((stats.commits, stats.aborts, stats.in_doubt), (0, 0, 1));
        assert_eq!(lb.active_on(routed.replica), 0);
        assert_eq!(lb.v_system(), Version::ZERO);
    }

    #[test]
    fn outcome_for_table_beyond_initial_count_grows_accounting() {
        let mut lb = LoadBalancer::new(ConsistencyMode::LazyFine, vec![ReplicaId(0)], 1);
        lb.route(request(1, 0)).ok(); // ignore missing template here
        lb.on_outcome(&outcome(0, 1, Some(1), 1, &[5]));
        assert_eq!(lb.table_version(TableId(5)), Version(1));
        assert_eq!(lb.table_version(TableId(3)), Version::ZERO);
    }
}
