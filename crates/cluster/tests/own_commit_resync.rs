//! A replica's own commit can reach it twice: as its decision, and as a
//! refresh when a resync replays the certifier's log. A fake
//! [`CertifierLink`] certifies two updates and delivers the second one's
//! decision (v2) ahead of the refresh for v1, so the commit waits behind a
//! gap at its origin; then the link fails and resynchronizes. The sweep
//! answers both clients "outcome unknown" and must leave no commit waiting
//! for a transaction it aborted: the resync's refreshes for v1 and v2 then
//! apply at every replica, the origin included, and the cluster goes on.

use bargain_cluster::{CertifierDelivery, CertifierLink, CertifierRequest, Cluster, ClusterConfig};
use bargain_common::{ConsistencyMode, Error, ReplicaId, Result, Value, Version};
use bargain_core::certifier::{Delivery, Input};
use bargain_core::{Certifier, CertifyDecision, LogRecord};
use bargain_workloads::{MicroBenchmark, Workload};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;

/// An Eager certification service whose loop runs on the link thread,
/// behind a channel that `request` feeds. It records the highest version
/// each replica reports applied.
struct GapLink {
    certifier: Mutex<Certifier>,
    to_loop: Sender<CertifierRequest>,
    requests: Receiver<CertifierRequest>,
    applied: Arc<Mutex<Vec<Version>>>,
}

impl GapLink {
    fn step(&self, certifier: &mut Certifier, input: Input) -> Vec<(ReplicaId, Delivery)> {
        if let Input::Applied { replica, version } = input {
            let mut applied = self.applied.lock().unwrap();
            applied[replica.index()] = applied[replica.index()].max(version);
        }
        certifier.step([input]).expect("memory log flushes").out
    }
}

impl CertifierLink for GapLink {
    fn history(&mut self) -> Result<Vec<LogRecord>> {
        Ok(Vec::new())
    }

    fn request(&self, request: CertifierRequest) {
        let _ = self.to_loop.send(request);
    }

    fn serve(&self, deliveries: bargain_cluster::CertifierDeliveries) {
        let mut certifier = self.certifier.lock().unwrap();
        let deliver = |out: Vec<(ReplicaId, Delivery)>| {
            for (to, delivery) in out {
                let _ = deliveries.send(CertifierDelivery::Deliver { to, delivery });
            }
        };
        // Certify two updates and hold what the certifier sends.
        let mut held = Vec::new();
        while certifier.version() < Version(2) {
            match self.requests.recv() {
                Ok(CertifierRequest::Step(input)) => held.extend(self.step(&mut certifier, input)),
                Ok(CertifierRequest::SweepAck { .. }) => {}
                Ok(CertifierRequest::Shutdown) | Err(_) => return,
            }
        }
        // The decision for v2 arrives; everything else dies with the link.
        held.retain(|(_, delivery)| {
            matches!(
                delivery,
                Delivery::Decision(CertifyDecision::Commit {
                    commit_version: Version(2),
                    ..
                })
            )
        });
        assert_eq!(held.len(), 1, "one decision names v2");
        deliver(held);
        let _ = deliveries.send(CertifierDelivery::Down { epoch: 1 });
        let mut acked = 0;
        while acked < REPLICAS {
            match self.requests.recv() {
                Ok(CertifierRequest::SweepAck { epoch: 1, .. }) => acked += 1,
                Ok(CertifierRequest::Step(input)) => drop(self.step(&mut certifier, input)),
                Ok(CertifierRequest::SweepAck { .. }) => {}
                Ok(CertifierRequest::Shutdown) | Err(_) => return,
            }
        }
        let records = certifier.certified_since(Version::ZERO).expect("in memory");
        let _ = deliveries.send(CertifierDelivery::Resync { records });
        let _ = deliveries.send(CertifierDelivery::Up);
        for request in self.requests.iter() {
            match request {
                CertifierRequest::Step(input) => deliver(self.step(&mut certifier, input)),
                CertifierRequest::SweepAck { .. } => {}
                CertifierRequest::Shutdown => return,
            }
        }
    }
}

/// Runs one update on its own thread and waits for its answer.
fn update(cluster: &Cluster, val: i64, pk: i64) -> Receiver<bargain_common::Result<Version>> {
    let mut session = cluster.connect();
    let (done, answer) = unbounded();
    std::thread::spawn(move || {
        let sql = "UPDATE bench0 SET val = ? WHERE pk = ?";
        let result = session.run_sql(&[(sql, vec![Value::Int(val), Value::Int(pk)])]);
        let _ = done.send(result.map(|(outcome, _)| {
            assert!(outcome.committed, "{:?}", outcome.abort_reason);
            outcome
                .commit_version
                .expect("an update commits at a version")
        }));
    });
    answer
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_swept_commit_waiting_behind_a_gap_is_applied_by_the_resync_everywhere() {
    let workload = MicroBenchmark::small(0.5);
    let mut certifier = Certifier::new((0..REPLICAS as u32).map(ReplicaId).collect());
    certifier.set_eager(true);
    let (to_loop, requests) = unbounded();
    let applied = Arc::new(Mutex::new(vec![Version::ZERO; REPLICAS]));
    let link = GapLink {
        certifier: Mutex::new(certifier),
        to_loop,
        requests,
        applied: Arc::clone(&applied),
    };
    let cluster = Cluster::start_with_certifier_link(
        ClusterConfig {
            replicas: REPLICAS,
            mode: ConsistencyMode::Eager,
            ..ClusterConfig::default()
        },
        move |engine| workload.install(engine),
        Box::new(link),
    );

    // Both requests are in flight together, so the link certifies both.
    let answers = [update(&cluster, 100, 1), update(&cluster, 200, 2)];
    for answer in answers {
        match answer.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(Error::Unavailable(reason))) => {
                assert!(reason.contains("outcome unknown"), "{reason}");
            }
            other => panic!("expected an unknown outcome, got {other:?}"),
        }
    }
    let stats = cluster.stats().unwrap();
    assert_eq!((stats.commits, stats.aborts, stats.in_doubt), (0, 0, 2));

    wait_until("the link never came back up", || {
        let stats = cluster.stats().unwrap();
        stats.certifier_downs == 1 && stats.certifier_up
    });
    wait_until("a replica never applied v1 and v2", || {
        applied.lock().unwrap().iter().all(|&v| v == Version(2))
    });

    // Every replica applies each commit after them: an Eager commit is
    // answered only once all of them have.
    for (i, version) in (3..6).enumerate() {
        let answer = update(&cluster, 300 + i as i64, 3 + i as i64);
        let committed = answer
            .recv_timeout(Duration::from_secs(10))
            .expect("an update after the resync is answered")
            .expect("it commits");
        assert_eq!(committed, Version(version));
    }
    assert!(applied.lock().unwrap().iter().all(|&v| v == Version(5)));
    let stats = cluster.stats().unwrap();
    assert_eq!((stats.commits, stats.aborts, stats.in_doubt), (3, 0, 2));
    cluster.shutdown();
}
