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
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;

/// A certification service that goes down right after its first decision.
/// Its loop runs on the link thread, behind a channel that `request` feeds.
struct OutageLink {
    certifier: Mutex<Certifier>,
    to_loop: Sender<CertifierRequest>,
    requests: Receiver<CertifierRequest>,
}

impl OutageLink {
    fn new() -> OutageLink {
        let replicas = (0..REPLICAS as u32).map(ReplicaId).collect();
        let (to_loop, requests) = unbounded();
        OutageLink {
            certifier: Mutex::new(Certifier::new(replicas)),
            to_loop,
            requests,
        }
    }
}

impl CertifierLink for OutageLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        self.certifier
            .get_mut()
            .unwrap()
            .certified_since(Version::ZERO)
    }

    fn request(&self, request: CertifierRequest) {
        let _ = self.to_loop.send(request);
    }

    fn serve(&self, deliveries: bargain_cluster::CertifierDeliveries) {
        let (requests, mut certifier) = (&self.requests, self.certifier.lock().unwrap());
        let mut outage_done = false;
        for request in requests.iter() {
            let input = match request {
                CertifierRequest::Step(input) => input,
                CertifierRequest::Shutdown => return,
                CertifierRequest::SweepAck { .. } => continue,
            };
            let step = certifier.step([input]).expect("memory log flushes");
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
            let records = certifier.certified_since(Version::ZERO).expect("in memory");
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

/// An Eager certification service whose link drops one replica's first
/// `Applied` report — as a report written into a socket that then dies is
/// lost — and goes down with it. Its loop runs on the link thread, behind a
/// channel that `request` feeds.
struct LostReportLink {
    certifier: Mutex<Certifier>,
    to_loop: Sender<CertifierRequest>,
    requests: Receiver<CertifierRequest>,
}

impl LostReportLink {
    fn new() -> LostReportLink {
        let replicas = (0..REPLICAS as u32).map(ReplicaId).collect();
        let mut certifier = Certifier::new(replicas);
        certifier.set_eager(true);
        let (to_loop, requests) = unbounded();
        LostReportLink {
            certifier: Mutex::new(certifier),
            to_loop,
            requests,
        }
    }
}

impl CertifierLink for LostReportLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        Ok(Vec::new())
    }

    fn request(&self, request: CertifierRequest) {
        let _ = self.to_loop.send(request);
    }

    fn serve(&self, deliveries: bargain_cluster::CertifierDeliveries) {
        let (requests, mut certifier) = (&self.requests, self.certifier.lock().unwrap());
        let (mut lost, mut acked) = (false, 0);
        for request in requests.iter() {
            let input = match request {
                CertifierRequest::Step(Input::Applied { .. }) if !lost => {
                    lost = true;
                    let _ = deliveries.send(CertifierDelivery::Down { epoch: 1 });
                    continue;
                }
                CertifierRequest::Step(input) => input,
                CertifierRequest::SweepAck { epoch: 1, .. } => {
                    acked += 1;
                    if acked == REPLICAS {
                        let records = certifier.certified_since(Version::ZERO).expect("in memory");
                        let _ = deliveries.send(CertifierDelivery::Resync { records });
                        let _ = deliveries.send(CertifierDelivery::Up);
                    }
                    continue;
                }
                CertifierRequest::Shutdown => return,
                CertifierRequest::SweepAck { .. } => continue,
            };
            let step = certifier.step([input]).expect("memory log flushes");
            for (to, delivery) in step.out {
                let _ = deliveries.send(CertifierDelivery::Deliver { to, delivery });
            }
        }
    }
}

/// An Eager commit whose global commit waits on a report the link lost is
/// completed once the link is back: handling the sweep, each replica
/// reports its `V_local` again.
#[test]
fn an_eager_commit_whose_applied_report_died_with_the_link_completes_after_it_returns() {
    let workload = MicroBenchmark::small(0.5);
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: REPLICAS,
            mode: ConsistencyMode::Eager,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(LostReportLink::new()),
    );
    let mut session = cluster.connect();
    let (done, outcome) = unbounded();
    std::thread::spawn(move || {
        let update = "UPDATE bench0 SET val = ? WHERE pk = ?";
        let _ = done.send(session.run_sql(&[(update, vec![Value::Int(100), Value::Int(1)])]));
    });
    let (outcome, _) = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the update waits for a global commit that never comes")
        .expect("the update is answered");
    assert!(outcome.committed, "{:?}", outcome.abort_reason);
    assert_eq!(outcome.commit_version, Some(Version(1)));
    // The sweep's reports may complete it before the last sweep ack brings
    // the link up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.stats().unwrap().certifier_up {
        assert!(Instant::now() < deadline, "the link never came back up");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(cluster.stats().unwrap().certifier_downs, 1);
    cluster.shutdown();
}
