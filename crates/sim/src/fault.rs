//! Declarative, seeded fault plans: *which* failures to inject *when*.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s the simulator injects at
//! fixed points of virtual time. Because the plan is data (not callbacks)
//! and the simulator is deterministic, the same seed and plan always
//! reproduce the same run byte for byte — a failing fault schedule is a
//! permanent, replayable test case.
//!
//! The failure model matches the paper's (§IV): processes fail by crashing
//! (no Byzantine behaviour), the certifier's log survives crashes, replica
//! engines survive at their applied version `V_local` with all volatile
//! state lost, and the network may drop or delay messages but not corrupt
//! them.

/// One kind of injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The certifier process crashes, losing all in-memory state (version
    /// counter, conflict history, eager counters) and every in-flight
    /// certification request. Its durable commit log survives. After
    /// `down_ms` of virtual time it restarts and recovers from the log.
    CertifierCrash {
        /// How long the certifier stays down (virtual ms).
        down_ms: u64,
    },
    /// Replica `replica` crashes: every executing, certifying, parked, and
    /// buffered transaction is lost; the storage engine survives at
    /// `V_local` (the paper runs replicas with log-forcing off — the
    /// certifier's log, not the replica's, is the durable commit history).
    /// After `down_ms` it restarts and re-synchronizes from the certifier.
    ReplicaCrash {
        /// The crashing replica's index.
        replica: usize,
        /// How long it stays down (virtual ms).
        down_ms: u64,
    },
    /// The network silently drops the next `count` refresh messages
    /// addressed to `replica` (modelling message loss on the fan-out path;
    /// the gap is repaired by re-synchronization).
    DropRefreshes {
        /// The victim replica's index.
        replica: usize,
        /// How many consecutive refresh deliveries to drop.
        count: u32,
    },
    /// Every message sent during the next `duration_ms` suffers an extra
    /// `extra_us` of latency (congestion / partial partition). Overlapping
    /// windows stack additively.
    DelayNet {
        /// Additional one-way latency (virtual µs).
        extra_us: u64,
        /// How long the slowdown lasts (virtual ms).
        duration_ms: u64,
    },
    /// A new replica joins the running cluster: it bootstraps from a live
    /// donor's consistent snapshot (chunked and checksummed, exactly like
    /// the TCP snapshot-ship protocol), replays the commits certified after
    /// the snapshot's cut, and is admitted into the routing set only once
    /// its lag behind `V_system` is inside `bargain_core::JOIN_LAG_BOUND`,
    /// the live cluster's admission rule. The two knobs inject
    /// the bootstrap failure modes; each is one-shot, so the *retry* is
    /// exercised too.
    ReplicaJoin {
        /// Crash the donor halfway through the snapshot transfer (a real
        /// crash, counted in `replica_crashes`): the joiner abandons the
        /// stream and restarts the whole fetch from the next live donor.
        donor_crash: bool,
        /// Corrupt one chunk of the transfer in flight: the checksum
        /// verification at import rejects the snapshot wholesale and the
        /// joiner refetches from another donor.
        corrupt_chunk: bool,
    },
    /// Replica `replica` is decommissioned: it is drained (no new
    /// transactions routed; in-flight work completes) and then removed from
    /// the refresh fan-out and the routing set. Acked commits must survive —
    /// the durable history lives at the certifier, not the leaver. A no-op
    /// if the target is the last routable replica, already gone, or already
    /// draining.
    ReplicaLeave {
        /// The leaving replica's index (an initial replica).
        replica: usize,
    },
}

/// A fault scheduled at an absolute point of virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (virtual ms since simulation start).
    pub at_ms: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults (order does not matter; the simulator orders
    /// them by `at_ms`).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults — the default).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a fault, builder style.
    #[must_use]
    pub fn with(mut self, at_ms: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_ms, kind });
        self
    }

    /// The acceptance schedule: crash the certifier once, and each of
    /// `replicas` replicas once, spaced out so recoveries overlap ongoing
    /// load but not each other.
    #[must_use]
    pub fn certifier_and_each_replica_once(
        replicas: usize,
        first_at_ms: u64,
        spacing_ms: u64,
        down_ms: u64,
    ) -> Self {
        let mut plan = FaultPlan::none().with(first_at_ms, FaultKind::CertifierCrash { down_ms });
        for r in 0..replicas {
            plan = plan.with(
                first_at_ms + spacing_ms * (r as u64 + 1),
                FaultKind::ReplicaCrash {
                    replica: r,
                    down_ms,
                },
            );
        }
        plan
    }

    /// A pseudo-random plan derived entirely from `seed`: two to five
    /// faults of mixed kinds over `(20%, 85%)` of `horizon_ms`. Same seed,
    /// same plan — suitable for seed-sweep tests.
    #[must_use]
    pub fn random(seed: u64, replicas: usize, horizon_ms: u64) -> Self {
        // Self-contained xorshift64*: the plan must not consume the
        // simulator's RNG (plans are built before the run and must not
        // perturb it).
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let lo = horizon_ms / 5;
        let hi = horizon_ms * 17 / 20;
        let span = hi.saturating_sub(lo).max(1);
        let n_faults = 2 + (next() % 4) as usize; // 2..=5
        let mut plan = FaultPlan::none();
        for _ in 0..n_faults {
            let at_ms = lo + next() % span;
            let kind = match next() % 4 {
                0 => FaultKind::CertifierCrash {
                    down_ms: 20 + next() % 80,
                },
                1 => FaultKind::ReplicaCrash {
                    replica: (next() % replicas.max(1) as u64) as usize,
                    down_ms: 20 + next() % 120,
                },
                2 => FaultKind::DropRefreshes {
                    replica: (next() % replicas.max(1) as u64) as usize,
                    count: 1 + (next() % 3) as u32,
                },
                _ => FaultKind::DelayNet {
                    extra_us: 500 + next() % 4_500,
                    duration_ms: 50 + next() % 200,
                },
            };
            plan = plan.with(at_ms, kind);
        }
        plan
    }

    /// The elasticity acceptance schedule: one replica joins at
    /// `join_at_ms` (optionally through a donor crash and/or a corrupted
    /// chunk, so the retry path runs), and replica `leave_replica` is
    /// decommissioned at `leave_at_ms`.
    #[must_use]
    pub fn join_then_leave(
        join_at_ms: u64,
        donor_crash: bool,
        corrupt_chunk: bool,
        leave_at_ms: u64,
        leave_replica: usize,
    ) -> Self {
        FaultPlan::none()
            .with(
                join_at_ms,
                FaultKind::ReplicaJoin {
                    donor_crash,
                    corrupt_chunk,
                },
            )
            .with(
                leave_at_ms,
                FaultKind::ReplicaLeave {
                    replica: leave_replica,
                },
            )
    }

    /// A pseudo-random *elastic* plan: always one [`FaultKind::ReplicaJoin`]
    /// (with seed-drawn donor-crash / corrupt-chunk knobs) early in the
    /// window and one [`FaultKind::ReplicaLeave`] later, plus one to three
    /// background faults from the [`FaultPlan::random`] mix. Same seed,
    /// same plan.
    #[must_use]
    pub fn random_elastic(seed: u64, replicas: usize, horizon_ms: u64) -> Self {
        let mut state = seed ^ 0x6C62_272E_07BB_0142;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let lo = horizon_ms / 5;
        let hi = horizon_ms * 17 / 20;
        let span = hi.saturating_sub(lo).max(2);
        // Join in the first half of the window, leave in the second: the
        // joiner is usually admitted (and routable) before the leaver
        // drains, so the membership change overlaps live traffic from both
        // directions.
        let join_at = lo + next() % (span / 2).max(1);
        let leave_at = lo + span / 2 + next() % (span / 2).max(1);
        let mut plan = FaultPlan::none()
            .with(
                join_at,
                FaultKind::ReplicaJoin {
                    donor_crash: next() % 3 == 0,
                    corrupt_chunk: next() % 3 == 0,
                },
            )
            .with(
                leave_at,
                FaultKind::ReplicaLeave {
                    replica: (next() % replicas.max(1) as u64) as usize,
                },
            );
        let n_background = 1 + (next() % 3) as usize; // 1..=3
        for _ in 0..n_background {
            let at_ms = lo + next() % span;
            let kind = match next() % 3 {
                0 => FaultKind::ReplicaCrash {
                    replica: (next() % replicas.max(1) as u64) as usize,
                    down_ms: 20 + next() % 120,
                },
                1 => FaultKind::DropRefreshes {
                    replica: (next() % replicas.max(1) as u64) as usize,
                    count: 1 + (next() % 3) as u32,
                },
                _ => FaultKind::DelayNet {
                    extra_us: 500 + next() % 4_500,
                    duration_ms: 50 + next() % 200,
                },
            };
            plan = plan.with(at_ms, kind);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn builder_appends() {
        let p = FaultPlan::none()
            .with(100, FaultKind::CertifierCrash { down_ms: 50 })
            .with(
                200,
                FaultKind::ReplicaCrash {
                    replica: 1,
                    down_ms: 50,
                },
            );
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.events[0].at_ms, 100);
    }

    #[test]
    fn acceptance_plan_covers_certifier_and_every_replica() {
        let p = FaultPlan::certifier_and_each_replica_once(3, 100, 200, 50);
        assert_eq!(p.events.len(), 4);
        assert!(matches!(
            p.events[0].kind,
            FaultKind::CertifierCrash { down_ms: 50 }
        ));
        let crashed: Vec<usize> = p
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ReplicaCrash { replica, .. } => Some(replica),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, vec![0, 1, 2]);
        // No two faults share a fire time.
        let mut times: Vec<u64> = p.events.iter().map(|e| e.at_ms).collect();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn join_then_leave_plan_has_both_membership_events() {
        let p = FaultPlan::join_then_leave(200, true, false, 900, 1);
        assert_eq!(p.events.len(), 2);
        assert!(matches!(
            p.events[0].kind,
            FaultKind::ReplicaJoin {
                donor_crash: true,
                corrupt_chunk: false,
            }
        ));
        assert!(matches!(
            p.events[1].kind,
            FaultKind::ReplicaLeave { replica: 1 }
        ));
        assert!(p.events[0].at_ms < p.events[1].at_ms);
    }

    #[test]
    fn random_elastic_plans_are_deterministic_with_join_before_leave() {
        let a = FaultPlan::random_elastic(7, 3, 2_000);
        let b = FaultPlan::random_elastic(7, 3, 2_000);
        assert_eq!(a, b);
        assert!((3..=5).contains(&a.events.len()));
        for seed in 0..8u64 {
            let p = FaultPlan::random_elastic(seed, 3, 2_000);
            let join_at = p
                .events
                .iter()
                .find_map(|e| matches!(e.kind, FaultKind::ReplicaJoin { .. }).then_some(e.at_ms))
                .expect("every elastic plan has a join");
            let leave = p
                .events
                .iter()
                .find(|e| matches!(e.kind, FaultKind::ReplicaLeave { .. }))
                .expect("every elastic plan has a leave");
            assert!(join_at < leave.at_ms, "join fires before the leave");
            if let FaultKind::ReplicaLeave { replica } = leave.kind {
                assert!(replica < 3);
            }
        }
        // The one-shot failure knobs must actually come up across a small
        // seed range, or the retry paths go untested.
        let any_donor_crash = (0..16).any(|s| {
            FaultPlan::random_elastic(s, 3, 2_000)
                .events
                .iter()
                .any(|e| {
                    matches!(
                        e.kind,
                        FaultKind::ReplicaJoin {
                            donor_crash: true,
                            ..
                        }
                    )
                })
        });
        let any_corrupt = (0..16).any(|s| {
            FaultPlan::random_elastic(s, 3, 2_000)
                .events
                .iter()
                .any(|e| {
                    matches!(
                        e.kind,
                        FaultKind::ReplicaJoin {
                            corrupt_chunk: true,
                            ..
                        }
                    )
                })
        });
        assert!(any_donor_crash && any_corrupt);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(7, 4, 2_000);
        let b = FaultPlan::random(7, 4, 2_000);
        let c = FaultPlan::random(8, 4, 2_000);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!((2..=5).contains(&a.events.len()));
        for e in &a.events {
            assert!(e.at_ms >= 2_000 / 5 && e.at_ms < 2_000 * 17 / 20);
            if let FaultKind::ReplicaCrash { replica, .. }
            | FaultKind::DropRefreshes { replica, .. } = e.kind
            {
                assert!(replica < 4);
            }
        }
    }
}
