//! An update whose certification request was in flight when the certifier
//! link failed has an unknown outcome: the replica's sweep answers it
//! "outcome unknown", and the cluster's counters book it as in doubt, not
//! as an abort, even when, as here, the certifier committed it.

use bargain_cluster::{CertifierDelivery, CertifierLink, CertifierRequest, Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Error, ReplicaId, Result, Value, Version};
use bargain_core::{Certifier, LogRecord};
use bargain_workloads::{MicroBenchmark, Workload};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const REPLICAS: usize = 2;

/// A certification service that commits the first request and goes down
/// before its decision leaves, then resynchronizes every replica with the
/// commit. Its loop runs on the link thread, behind a channel that
/// `request` feeds.
struct LostDecisionLink {
    certifier: Mutex<Certifier>,
    to_loop: Sender<CertifierRequest>,
    requests: Receiver<CertifierRequest>,
}

impl CertifierLink for LostDecisionLink {
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
            if !lost {
                lost = true;
                let _ = deliveries.send(CertifierDelivery::Down { epoch: 1 });
                continue;
            }
            for (to, delivery) in step.out {
                let _ = deliveries.send(CertifierDelivery::Deliver { to, delivery });
            }
        }
    }
}

#[test]
fn a_commit_whose_decision_died_with_the_link_is_in_doubt_not_aborted() {
    let workload = MicroBenchmark::small(0.5);
    let (to_loop, requests) = unbounded();
    let link = LostDecisionLink {
        certifier: Mutex::new(Certifier::new(
            (0..REPLICAS as u32).map(ReplicaId).collect(),
        )),
        to_loop,
        requests,
    };
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: REPLICAS,
            mode: ConsistencyMode::LazyCoarse,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(link),
    );
    let mut session = cluster.connect();
    let update = "UPDATE bench0 SET val = ? WHERE pk = ?";
    match session.run_sql(&[(update, vec![Value::Int(100), Value::Int(1)])]) {
        Err(Error::Unavailable(reason)) => assert!(reason.contains("outcome unknown"), "{reason}"),
        other => panic!("expected an unknown outcome, got {other:?}"),
    }
    let stats = cluster.stats().unwrap();
    assert_eq!((stats.commits, stats.aborts, stats.in_doubt), (0, 0, 1));

    // The resync brings the commit to every replica.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.stats().unwrap().certifier_up {
        assert!(Instant::now() < deadline, "the link never came back up");
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..REPLICAS {
        let (_, results) = session
            .run_sql(&[("SELECT val FROM bench0 WHERE pk = ?", vec![Value::Int(1)])])
            .expect("read answered");
        assert_eq!(results[0].rows().unwrap()[0][0], Value::Int(100));
    }
    let stats = cluster.stats().unwrap();
    assert_eq!((stats.aborts, stats.in_doubt), (0, 1));
    cluster.shutdown();
}
