//! The certifier link contract, held against a real certifier: a fake
//! [`CertifierLink`] steps a real `Certifier` and drives the runtime
//! through one outage. Its first decision is delivered just ahead of a
//! `Down`; the runtime must hand that decision to its replica before the
//! sweep, then take the resync (every certified record, the one already
//! applied included) and come back up with every replica at the same
//! version.

use bargain_cluster::{CertifierDelivery, CertifierLink, CertifierRequest, Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, ReplicaId, Result, Value, Version};
use bargain_core::certifier::Input;
use bargain_core::{Certifier, LogRecord};
use bargain_workloads::{MicroBenchmark, Workload};
use crossbeam::channel::Receiver;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;

/// A certification service that goes down right after its first decision.
struct OutageLink {
    certifier: Certifier,
}

impl OutageLink {
    fn new() -> OutageLink {
        let replicas = (0..REPLICAS as u32).map(ReplicaId).collect();
        OutageLink {
            certifier: Certifier::new(replicas),
        }
    }
}

impl CertifierLink for OutageLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        self.certifier.certified_since(Version::ZERO)
    }

    fn serve(
        mut self: Box<Self>,
        requests: Receiver<CertifierRequest>,
        deliveries: bargain_cluster::CertifierDeliveries,
    ) {
        let mut outage_done = false;
        for request in requests.iter() {
            let input = match request {
                CertifierRequest::Certify(req) => Input::Certify(req),
                CertifierRequest::Applied { replica, version } => {
                    Input::Applied { replica, version }
                }
                CertifierRequest::Shutdown => return,
                _ => continue,
            };
            let step = self.certifier.step([input]).expect("memory log flushes");
            for (to, delivery) in step.out {
                let _ = deliveries.send(CertifierDelivery::Deliver { to, delivery });
            }
            if outage_done {
                continue;
            }
            outage_done = true;
            // The link fails with the first decision already delivered.
            let _ = deliveries.send(CertifierDelivery::Down { epoch: 1 });
            let mut acked = HashSet::new();
            while acked.len() < REPLICAS {
                match requests.recv() {
                    Ok(CertifierRequest::SweepAck { replica, epoch: 1 }) => {
                        acked.insert(replica);
                    }
                    Ok(CertifierRequest::Shutdown) | Err(_) => return,
                    // Nothing is certified across the sweep.
                    Ok(_) => {}
                }
            }
            let records = self
                .certifier
                .certified_since(Version::ZERO)
                .expect("in memory");
            let _ = deliveries.send(CertifierDelivery::Resync { records });
            let _ = deliveries.send(CertifierDelivery::Up);
        }
    }
}

#[test]
fn a_decision_delivered_before_down_beats_the_sweep_and_resync_leaves_no_gap() {
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: REPLICAS,
            mode: ConsistencyMode::LazyFine,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(OutageLink::new()),
    );
    let update = "UPDATE bench0 SET val = ? WHERE pk = ?";
    let read = "SELECT val FROM bench0 WHERE pk = ?";
    let mut session = cluster.connect();

    let (outcome, _) = session
        .run_sql(&[(update, vec![Value::Int(100), Value::Int(1)])])
        .expect("the first update is answered");
    assert!(
        outcome.committed,
        "the decision lost to the sweep: {:?}",
        outcome.abort_reason
    );
    assert_eq!(outcome.commit_version, Some(Version(1)));

    // Down, every sweep acknowledged, the resync, Up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = cluster.stats().unwrap();
        if stats.certifier_downs == 1 && stats.certifier_up {
            break;
        }
        assert!(Instant::now() < deadline, "the link never came back up");
        std::thread::sleep(Duration::from_millis(1));
    }

    for i in 0..20 {
        let val = 200 + i;
        let (outcome, _) = session
            .run_sql(&[(update, vec![Value::Int(val), Value::Int(1 + i % 10)])])
            .expect("update answered");
        assert!(outcome.committed, "update {i}: {:?}", outcome.abort_reason);
        assert_eq!(outcome.commit_version, Some(Version(2 + i as u64)));
        let (_, results) = session
            .run_sql(&[(read, vec![Value::Int(1 + i % 10)])])
            .expect("read answered");
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(val));
    }
    let stats = cluster.stats().unwrap();
    assert_eq!((stats.certifier_downs, stats.certifier_up), (1, true));
    assert_eq!(stats.v_system, Version(21));
    cluster.shutdown();
}
