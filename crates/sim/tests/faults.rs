//! Fault-injection simulation tests: determinism of faulty runs and a
//! seeded sweep of random fault schedules across every consistency mode.
//!
//! The headline property these tests enforce: **no schedule of injected
//! faults ever produces a violation of the mode's consistency guarantee or
//! loses an acknowledged commit**.

use bargain_common::ConsistencyMode;
use bargain_sim::{simulate, CostModel, FaultKind, FaultPlan, SimConfig};
use bargain_workloads::MicroBenchmark;

fn faulty_cfg(mode: ConsistencyMode, faults: FaultPlan) -> SimConfig {
    SimConfig {
        mode,
        replicas: 3,
        clients: 12,
        seed: 7,
        warmup_ms: 300,
        measure_ms: 1_500,
        costs: CostModel::default(),
        check_consistency: true,
        faults,
        ..SimConfig::default()
    }
}

fn workload() -> MicroBenchmark {
    MicroBenchmark {
        rows_per_table: 200,
        update_ratio: 0.5,
        ..MicroBenchmark::default()
    }
}

#[test]
fn faulty_run_is_byte_identical_for_same_seed_and_plan() {
    let w = workload();
    let plan = FaultPlan::certifier_and_each_replica_once(3, 500, 300, 60)
        .with(
            700,
            FaultKind::DropRefreshes {
                replica: 1,
                count: 2,
            },
        )
        .with(
            900,
            FaultKind::DelayNet {
                extra_us: 2_000,
                duration_ms: 150,
            },
        );
    let a = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan.clone()));
    let b = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    // The full Debug rendering covers every report field: throughput,
    // latency breakdowns, fault counters, violation counts.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.faults_injected >= 6, "all faults injected");
}

#[test]
fn different_fault_plans_perturb_the_run() {
    let w = workload();
    let calm = simulate(
        &w,
        &faulty_cfg(ConsistencyMode::LazyFine, FaultPlan::none()),
    );
    let plan = FaultPlan::certifier_and_each_replica_once(3, 500, 300, 60);
    let faulty = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(calm.faults_injected, 0);
    assert_eq!(faulty.certifier_crashes, 1);
    assert_eq!(faulty.replica_crashes, 3);
    assert_ne!(
        format!("{calm:?}"),
        format!("{faulty:?}"),
        "faults must leave a trace in the report"
    );
}

#[test]
fn fault_sweep_no_schedule_breaks_consistency_or_loses_acked_commits() {
    // ≥50 seeded schedules: 13 seeds × 4 guarantee-claiming modes. Every
    // run must commit work, uphold its mode's guarantee, and keep every
    // acknowledged commit in the durable history.
    let w = workload();
    let modes = [
        ConsistencyMode::Eager,
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Session,
    ];
    let mut schedules = 0;
    for seed in 0..13u64 {
        let plan = FaultPlan::random(seed, 3, 1_800);
        for mode in modes {
            let mut cfg = faulty_cfg(mode, plan.clone());
            cfg.seed = seed.wrapping_mul(31).wrapping_add(7);
            let r = simulate(&w, &cfg);
            schedules += 1;
            assert!(
                r.committed > 0,
                "{mode} seed {seed}: nothing committed under {plan:?}"
            );
            assert_eq!(
                r.violations, 0,
                "{mode} seed {seed}: consistency violated under {plan:?}"
            );
            assert_eq!(
                r.lost_acked_commits, 0,
                "{mode} seed {seed}: acked commits lost under {plan:?}"
            );
        }
    }
    assert!(schedules >= 50);
}

#[test]
fn certifier_crash_stalls_then_recovers_updates() {
    // With the certifier down for a long window, update certification
    // pauses (requests park at its inbox) and resumes after recovery; the
    // run still commits updates and stays consistent.
    let w = workload();
    let plan = FaultPlan::none().with(600, FaultKind::CertifierCrash { down_ms: 300 });
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(r.certifier_crashes, 1);
    assert!(r.committed_updates > 0, "updates resume after recovery");
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn a_restarted_certifier_hears_from_joined_replicas_too() {
    // Under Eager a commit completes once every member has applied it, and a
    // restarted certifier relearns what each member applied from its hello.
    // A joiner left out of the hellos holds back every commit it applied
    // before the crash, so the join-then-crash run would fall well short of
    // the crash alone.
    let w = workload();
    let crash = FaultKind::CertifierCrash { down_ms: 100 };
    let join = FaultKind::ReplicaJoin {
        donor_crash: false,
        corrupt_chunk: false,
    };
    let eager = |plan| simulate(&w, &faulty_cfg(ConsistencyMode::Eager, plan));
    let crash_only = eager(FaultPlan::none().with(1_000, crash.clone()));
    let joined = eager(FaultPlan::none().with(400, join).with(1_000, crash));
    assert_eq!((joined.replicas_joined, joined.certifier_crashes), (1, 1));
    assert!(
        joined.committed * 10 >= crash_only.committed * 9,
        "join then crash committed {}, the crash alone {}",
        joined.committed,
        crash_only.committed
    );
    assert_eq!(joined.violations, 0);
    assert_eq!(joined.lost_acked_commits, 0);
}

#[test]
fn replica_join_bootstraps_catches_up_and_is_admitted() {
    // A clean join: snapshot-ship from a live donor, catch-up replay,
    // admission into the routing set — all while the closed loop keeps
    // committing. No retry should be needed.
    let w = workload();
    let plan = FaultPlan::none().with(
        500,
        FaultKind::ReplicaJoin {
            donor_crash: false,
            corrupt_chunk: false,
        },
    );
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(r.replicas_joined, 1, "the joiner must be admitted");
    assert_eq!(r.bootstrap_retries, 0);
    assert!(r.committed > 0);
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn join_survives_donor_crash_mid_snapshot() {
    // The donor dies halfway through the stream: the joiner abandons the
    // attempt and restarts the whole fetch from the next live donor. The
    // donor crash is a real crash (counted, recovered from) — and the join
    // still completes.
    let w = workload();
    let plan = FaultPlan::none().with(
        500,
        FaultKind::ReplicaJoin {
            donor_crash: true,
            corrupt_chunk: false,
        },
    );
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(r.replicas_joined, 1, "the retry must succeed");
    assert!(r.bootstrap_retries >= 1, "the first fetch was abandoned");
    assert!(r.replica_crashes >= 1, "the donor really crashed");
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn join_rejects_corrupt_chunk_and_retries() {
    // One chunk of the transfer is corrupted in flight: the import's
    // checksum verification rejects the snapshot wholesale and the joiner
    // refetches — torn state never becomes a serving replica.
    let w = workload();
    let plan = FaultPlan::none().with(
        500,
        FaultKind::ReplicaJoin {
            donor_crash: false,
            corrupt_chunk: true,
        },
    );
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(r.replicas_joined, 1);
    assert!(
        r.bootstrap_retries >= 1,
        "the corrupted transfer must be rejected"
    );
    assert_eq!(r.replica_crashes, 0, "no crash involved this time");
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn replica_leave_drains_cleanly_without_losing_acked_commits() {
    let w = workload();
    let plan = FaultPlan::none().with(600, FaultKind::ReplicaLeave { replica: 2 });
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(r.replicas_left, 1, "the leaver must drain and depart");
    assert!(r.committed > 0, "the remaining replicas keep serving");
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn leave_of_the_last_routable_replica_is_refused() {
    // With a single replica, decommission must be refused (the real
    // cluster classifies this as a refused leave): the cluster keeps
    // serving and nothing departs.
    let w = workload();
    let plan = FaultPlan::none().with(600, FaultKind::ReplicaLeave { replica: 0 });
    let mut cfg = faulty_cfg(ConsistencyMode::LazyFine, plan);
    cfg.replicas = 1;
    let r = simulate(&w, &cfg);
    assert_eq!(r.replicas_left, 0, "the last replica must not leave");
    assert!(r.committed > 0);
    assert_eq!(r.violations, 0);
}

#[test]
fn elastic_run_is_byte_identical_for_same_seed_and_plan() {
    // Join (through a donor crash *and* a corrupted chunk) plus a leave:
    // the full elasticity machinery must stay deterministic.
    let w = workload();
    let plan = FaultPlan::join_then_leave(400, true, true, 1_000, 1);
    let a = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan.clone()));
    let b = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.replicas_joined, 1);
    assert_eq!(a.replicas_left, 1);
    assert!(a.bootstrap_retries >= 2, "both failure knobs fired");
}

#[test]
fn eager_join_through_donor_crash_credits_snapshot_applied_commits() {
    // Regression: an eager joiner's snapshot already contains every commit
    // the donor applied locally — including entries still awaiting global
    // acknowledgement (the donor crash leaves many such pending). The
    // certifier must credit the joiner for those at subscription time,
    // because the joiner will never replay them; without the credit they
    // can never globally commit, their clients hang, throughput collapses,
    // and a later drain of any replica they occupy never completes.
    let w = workload();
    let plan = FaultPlan::join_then_leave(400, true, true, 1_000, 1);
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::Eager, plan));
    assert_eq!(r.replicas_joined, 1);
    assert_eq!(r.replicas_left, 1, "the post-join drain must complete");
    assert!(r.bootstrap_retries >= 2, "both failure knobs fired");
    assert!(
        r.committed > 2_000,
        "throughput must survive the join: only {} commits",
        r.committed
    );
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}

#[test]
fn elastic_fault_sweep_no_schedule_breaks_consistency_or_loses_acked_commits() {
    // Seeded sweep of random *elastic* schedules — a join (sometimes
    // through donor-crash / corrupt-chunk retries), a leave, and
    // background crashes/drops/slowdowns — across every guarantee-claiming
    // mode. The headline property is unchanged: no schedule may violate
    // the mode's guarantee or lose an acknowledged commit.
    let w = workload();
    let modes = [
        ConsistencyMode::Eager,
        ConsistencyMode::LazyCoarse,
        ConsistencyMode::LazyFine,
        ConsistencyMode::Session,
    ];
    for seed in 0..6u64 {
        let plan = FaultPlan::random_elastic(seed, 3, 1_800);
        for mode in modes {
            let mut cfg = faulty_cfg(mode, plan.clone());
            cfg.seed = seed.wrapping_mul(41).wrapping_add(3);
            let r = simulate(&w, &cfg);
            assert!(
                r.committed > 0,
                "{mode} seed {seed}: nothing committed under {plan:?}"
            );
            assert_eq!(
                r.violations, 0,
                "{mode} seed {seed}: consistency violated under {plan:?}"
            );
            assert_eq!(
                r.lost_acked_commits, 0,
                "{mode} seed {seed}: acked commits lost under {plan:?}"
            );
            assert_eq!(
                r.replicas_joined, 1,
                "{mode} seed {seed}: the join never completed under {plan:?}"
            );
        }
    }
}

#[test]
fn dropped_refreshes_are_repaired_by_resync() {
    let w = workload();
    let plan = FaultPlan::none().with(
        500,
        FaultKind::DropRefreshes {
            replica: 2,
            count: 3,
        },
    );
    let r = simulate(&w, &faulty_cfg(ConsistencyMode::LazyFine, plan));
    assert!(r.refreshes_dropped >= 3);
    assert!(r.resyncs >= 1, "a resync repairs the refresh gap");
    assert_eq!(r.violations, 0);
    assert_eq!(r.lost_acked_commits, 0);
}
