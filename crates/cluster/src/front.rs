//! The cluster's front door: the load balancer as shared state. Routing is
//! 0.2 µs of work, so it has no thread: whoever submits a transaction
//! routes it and the replica thread that finishes it records the outcome,
//! both under one mutex. [`FrontDoor`] is the state behind that mutex and
//! does no I/O — every method takes an event and returns what the caller
//! must send — so it is tested without threads; [`Front`] holds the lock
//! and does the sends.
//!
//! **Lock-order rule: route and enqueue under the lock, reply after it.**
//! Enqueueing under the lock makes route order equal replica-queue order,
//! so a drain or detach is never overtaken by a late transaction. Replying
//! after `on_outcome` ran keeps the ordering strong consistency rests on:
//! `on_outcome(A)` happens-before A's reply happens-before `route(B)`.

use crate::runtime::{ReplicaTxs, ToReplica};
use crate::session::TxnResult;
use bargain_common::{ClientId, Error, ReplicaId, Result, SessionId, TableSet, TxnId, Version};
use bargain_core::{LoadBalancer, RoutedTxn, TxnOutcome, TxnRequest};
use bargain_sql::{QueryResult, TransactionTemplate};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a transaction's result goes. Invoked on the replica thread that
/// finished it (on the submitting thread, for a refusal), so it may neither
/// block nor panic. Dropped uncalled when the transaction is abandoned —
/// its replica's thread is gone or the cluster was shut down abruptly — so
/// a sink that owes someone an answer sends it from `Drop`.
pub(crate) type ReplySink = Box<dyn FnOnce(TxnResult) + Send>;

/// The reply to a transaction that was refused before it ran.
fn refusal(reason: String) -> TxnResult {
    let outcome = TxnOutcome {
        txn: TxnId(u64::MAX),
        client: ClientId(0),
        session: SessionId(0),
        replica: ReplicaId(0),
        committed: false,
        commit_version: None,
        observed_version: Version::ZERO,
        tables_written: vec![],
        abort_reason: Some(reason),
    };
    (outcome, Vec::new())
}

/// What an outcome released, delivered after the lock: the reply, then the
/// drains it completed (its replica's decommission, the cluster's).
pub(crate) struct Released {
    pub sink: Option<ReplySink>,
    pub drained: Vec<Sender<()>>,
}

/// The load balancer, the in-flight reply table and the drain bookkeeping.
pub(crate) struct FrontDoor {
    pub lb: LoadBalancer,
    /// Every transaction in flight: where it runs and where its reply goes.
    replies: HashMap<TxnId, (ReplicaId, ReplySink)>,
    /// Graceful stop: new transactions are refused, in-flight ones finish.
    draining: bool,
    /// Abrupt stop: new and in-flight transactions alike are abandoned.
    stopped: bool,
    /// Fired when the last in-flight transaction of a drain completes.
    drain_ack: Option<Sender<()>>,
    /// Decommission drains waiting for their replica's last transaction.
    replica_drains: HashMap<ReplicaId, Sender<()>>,
}

impl FrontDoor {
    pub fn new(lb: LoadBalancer) -> FrontDoor {
        FrontDoor {
            lb,
            replies: HashMap::new(),
            draining: false,
            stopped: false,
            drain_ack: None,
            replica_drains: HashMap::new(),
        }
    }

    /// Routes a transaction and files its sink. A refusal (draining,
    /// certifier down, no replica up) hands the sink back with the reason
    /// to tell it; a stopped cluster with none, to be dropped uncalled.
    pub fn route(
        &mut self,
        table_set: TableSet,
        request: TxnRequest,
        sink: ReplySink,
    ) -> std::result::Result<RoutedTxn, (ReplySink, Option<String>)> {
        if self.stopped {
            return Err((sink, None));
        }
        if self.draining {
            let why = "cluster is draining: no new transactions";
            return Err((sink, Some(why.into())));
        }
        self.lb.register_template(request.template, table_set);
        match self.lb.route(request) {
            Ok(routed) => {
                self.replies.insert(routed.txn, (routed.replica, sink));
                Ok(routed)
            }
            Err(e) => Err((sink, Some(e.to_string()))),
        }
    }

    /// Records an outcome a replica reported (a straggler from a detached
    /// replica still carries version and session information).
    pub fn complete(&mut self, outcome: &TxnOutcome) -> Released {
        self.lb.on_outcome(outcome);
        let mut released = Released {
            sink: self.replies.remove(&outcome.txn).map(|(_, sink)| sink),
            drained: Vec::new(),
        };
        let on = outcome.replica;
        if self.lb.knows_replica(on) && self.lb.active_on(on) == 0 {
            released.drained.extend(self.replica_drains.remove(&on));
        }
        if self.replies.is_empty() {
            released.drained.extend(self.drain_ack.take());
        }
        released
    }

    /// A replica's thread is gone (it exited, or its queue refused a
    /// transaction): stop routing there and abandon what it had in flight,
    /// counted as aborts, so no drain waits for it. The caller drops the
    /// released sinks uncalled.
    pub fn replica_gone(&mut self, replica: ReplicaId) -> Vec<Released> {
        if self.lb.knows_replica(replica) {
            self.lb.mark_down(replica);
        }
        let on_it = |(txn, (on, _)): (&TxnId, &(ReplicaId, _))| (*on == replica).then_some(*txn);
        let lost: Vec<TxnId> = self.replies.iter().filter_map(on_it).collect();
        let abort = |txn| TxnOutcome {
            txn,
            replica,
            ..refusal("replica gone".into()).0
        };
        lost.into_iter()
            .map(|txn| self.complete(&abort(txn)))
            .collect()
    }

    /// Starts the graceful drain. Returns what to wait on while
    /// transactions are still in flight.
    pub fn begin_drain(&mut self) -> Option<Receiver<()>> {
        self.draining = true;
        if self.replies.is_empty() {
            return None;
        }
        let (ack, wait) = unbounded();
        self.drain_ack = Some(ack);
        Some(wait)
    }

    /// The abrupt stop. Returns the sinks of the abandoned transactions,
    /// for the caller to drop.
    pub fn stop(&mut self) -> Vec<ReplySink> {
        self.stopped = true;
        self.drain_ack = None;
        self.replica_drains.clear();
        self.replies.drain().map(|(_, (_, sink))| sink).collect()
    }

    /// Decommission step 1: stop routing to `replica`. Returns what to
    /// wait on while it still has transactions in flight.
    pub fn drain_replica(&mut self, replica: ReplicaId) -> Result<Option<Receiver<()>>> {
        if self.draining || self.stopped {
            let why = "decommission refused: cluster is draining (retry-after)";
            return Err(Error::Unavailable(why.into()));
        }
        self.lb.may_leave(replica)?;
        self.lb.mark_down(replica);
        if self.lb.active_on(replica) == 0 {
            return Ok(None);
        }
        let (ack, wait) = unbounded();
        self.replica_drains.insert(replica, ack);
        Ok(Some(wait))
    }

    /// Decommission step 3: forget a drained replica. The caller shuts its
    /// thread down while still holding the lock.
    pub fn detach(&mut self, replica: ReplicaId) {
        self.lb.remove_replica(replica);
        self.replica_drains.remove(&replica);
    }
}

/// The front door behind its lock, with the replica mailboxes it feeds.
pub(crate) struct Front {
    pub door: Mutex<FrontDoor>,
    pub replica_txs: ReplicaTxs,
}

impl Front {
    /// Routes and enqueues under the lock; `sink` gets the result on the
    /// replica's thread, or a refusal right here.
    pub fn submit(
        &self,
        template: &Arc<TransactionTemplate>,
        table_set: TableSet,
        request: TxnRequest,
        sink: ReplySink,
    ) {
        let mut door = self.door.lock();
        match door.route(table_set, request, sink) {
            Ok(routed) => {
                let replica = routed.replica;
                let template = Arc::clone(template);
                if !self.send(replica, ToReplica::Txn { routed, template }) {
                    let abandoned = door.replica_gone(replica);
                    drop(door);
                    abandoned.into_iter().for_each(|r| deliver(r, None));
                }
            }
            Err((sink, reason)) => {
                drop(door);
                if let Some(reason) = reason {
                    sink(refusal(reason));
                }
            }
        }
    }

    /// Accounts for a finished transaction under the lock, replies after.
    pub fn complete(&self, outcome: TxnOutcome, results: Vec<QueryResult>) {
        let released = self.door.lock().complete(&outcome);
        deliver(released, Some((outcome, results)));
    }

    /// A replica thread is exiting, for whatever reason.
    pub fn replica_gone(&self, replica: ReplicaId) {
        let abandoned = self.door.lock().replica_gone(replica);
        abandoned.into_iter().for_each(|r| deliver(r, None));
    }

    /// Sends to every replica's mailbox; returns how many took it.
    pub fn broadcast(&self, msg: impl Fn() -> ToReplica) -> usize {
        let txs = self.replica_txs.lock();
        txs.iter()
            .filter(|mailbox| mailbox.send(msg()).is_ok())
            .count()
    }

    /// Sends to one replica's mailbox; `false` if its thread is gone. A
    /// refused message is dropped after the registry's lock.
    pub fn send(&self, replica: ReplicaId, msg: ToReplica) -> bool {
        let refused = match self.replica_txs.lock().get(replica.index()) {
            Some(mailbox) => mailbox.send(msg).err(),
            None => Some(msg),
        };
        refused.is_none()
    }
}

/// Outside the lock: the reply (a sink with no result is dropped
/// uncalled), then the drain acks.
fn deliver(released: Released, result: Option<TxnResult>) {
    if let (Some(sink), Some(result)) = (released.sink, result) {
        sink(result);
    }
    for ack in released.drained {
        let _ = ack.send(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{ConsistencyMode, TemplateId};
    use std::sync::mpsc;

    fn door(replicas: u32) -> FrontDoor {
        let ids = (0..replicas).map(ReplicaId).collect();
        FrontDoor::new(LoadBalancer::new(ConsistencyMode::LazyCoarse, ids, 1))
    }

    fn request() -> TxnRequest {
        TxnRequest {
            client: ClientId(1),
            session: SessionId(1),
            template: TemplateId(7),
            params: vec![],
            idem: None,
        }
    }

    /// Routes one transaction whose sink records the commit version seen.
    fn route(door: &mut FrontDoor, seen: &mpsc::Sender<Option<Version>>) -> RoutedTxn {
        let seen = seen.clone();
        let sink: ReplySink = Box::new(move |(outcome, _)| {
            let _ = seen.send(outcome.commit_version);
        });
        door.route(TableSet::default(), request(), sink)
            .map_err(|(_, why)| why)
            .expect("routable")
    }

    fn commit(routed: &RoutedTxn, version: u64) -> TxnOutcome {
        TxnOutcome {
            txn: routed.txn,
            replica: routed.replica,
            committed: true,
            commit_version: Some(Version(version)),
            observed_version: Version(version),
            ..refusal(String::new()).0
        }
    }

    #[test]
    fn route_complete_drain_ack_in_sequence() {
        let mut door = door(2);
        let (seen_tx, seen) = mpsc::channel();
        let a = route(&mut door, &seen_tx);
        let b = route(&mut door, &seen_tx);
        assert_ne!(a.replica, b.replica, "least connections spreads the two");

        let wait = door.begin_drain().expect("two transactions in flight");
        let Err((_, why)) = door.route(TableSet::default(), request(), Box::new(|_| {})) else {
            panic!("a draining front door routes nothing");
        };
        assert!(why.is_some_and(|why| why.contains("draining")));

        // The first completion releases its sink and nothing else.
        let done = door.complete(&commit(&a, 1));
        assert!(done.sink.is_some() && done.drained.is_empty());
        // on_outcome ran before the sink is handed out: the next start
        // requirement already covers A's commit.
        assert_eq!(door.lb.v_system(), Version(1));
        assert!(wait.try_recv().is_err(), "drain acked with one in flight");

        // The last one also hands out the drain ack, after the sink.
        let done = door.complete(&commit(&b, 2));
        assert_eq!(done.drained.len(), 1);
        deliver(done, Some((commit(&b, 2), Vec::new())));
        assert_eq!(seen.try_recv(), Ok(Some(Version(2))));
        assert_eq!(wait.try_recv(), Ok(()));
        assert!(door.begin_drain().is_none(), "idle: nothing to wait for");
    }

    #[test]
    fn last_routable_replica_is_not_drained() {
        let mut door = door(2);
        assert!(matches!(
            door.drain_replica(ReplicaId(9)),
            Err(Error::Protocol(_))
        ));
        assert!(door
            .drain_replica(ReplicaId(0))
            .expect("one left")
            .is_none());
        let Err(Error::Unavailable(why)) = door.drain_replica(ReplicaId(1)) else {
            panic!("the last routable replica must be refused");
        };
        assert!(why.contains("last available replica"), "{why}");
        let (seen_tx, _seen) = mpsc::channel();
        assert_eq!(route(&mut door, &seen_tx).replica, ReplicaId(1));
    }

    #[test]
    fn a_down_replica_leaves_while_no_other_is_up() {
        let mut door = door(2);
        door.lb.mark_down(ReplicaId(0));
        door.lb.mark_down(ReplicaId(1));
        assert!(door
            .drain_replica(ReplicaId(1))
            .expect("a down replica's leaving lowers no availability")
            .is_none());
        door.detach(ReplicaId(1));
        assert!(!door.lb.knows_replica(ReplicaId(1)));
    }

    #[test]
    fn loaded_replica_drain_waits_for_its_last_outcome() {
        let mut door = door(2);
        let (seen_tx, _seen) = mpsc::channel();
        let a = route(&mut door, &seen_tx);
        let wait = door
            .drain_replica(a.replica)
            .expect("another replica is up")
            .expect("one transaction in flight there");
        let later = route(&mut door, &seen_tx);
        assert_ne!(
            later.replica, a.replica,
            "a draining replica gets no routes"
        );
        assert!(door.complete(&commit(&later, 1)).drained.is_empty());
        deliver(door.complete(&commit(&a, 2)), None);
        assert_eq!(wait.try_recv(), Ok(()));
    }

    #[test]
    fn straggler_outcome_from_a_detached_replica_still_counts() {
        let mut door = door(2);
        let (seen_tx, seen) = mpsc::channel();
        let a = route(&mut door, &seen_tx);
        door.detach(a.replica);
        let done = door.complete(&commit(&a, 5));
        assert!(done.drained.is_empty());
        deliver(done, Some((commit(&a, 5), Vec::new())));
        assert_eq!(seen.try_recv(), Ok(Some(Version(5))));
        assert_eq!(door.lb.v_system(), Version(5));
        assert_eq!(door.lb.stats().commits, 1);
    }

    #[test]
    fn abandoned_and_stopped_sinks_are_dropped_uncalled() {
        let mut door = door(2);
        let (seen_tx, seen) = mpsc::channel();
        let a = route(&mut door, &seen_tx);
        let b = route(&mut door, &seen_tx);
        let wait = door.begin_drain().expect("two in flight");
        let abandoned = door.replica_gone(a.replica);
        assert_eq!(abandoned.len(), 1, "only the gone replica's transaction");
        assert!(abandoned[0].sink.is_some() && abandoned[0].drained.is_empty());
        abandoned.into_iter().for_each(|done| deliver(done, None));
        // The drain no longer waits for the gone replica.
        deliver(door.complete(&commit(&b, 1)), None);
        assert_eq!(wait.try_recv(), Ok(()));
        assert_eq!(
            door.lb.stats().aborts,
            1,
            "the lost transaction is accounted for"
        );

        let mut door = self::door(2);
        let a = route(&mut door, &seen_tx);
        door.replica_gone(a.replica);
        let b = route(&mut door, &seen_tx);
        assert_ne!(b.replica, a.replica, "a gone replica gets no routes");
        assert_eq!(door.stop().len(), 1);
        drop(seen_tx);
        assert!(seen.recv().is_err(), "no sink was called");
        let Err((_, why)) = door.route(TableSet::default(), request(), Box::new(|_| {})) else {
            panic!("a stopped front door routes nothing");
        };
        assert!(why.is_none(), "a stopped cluster drops the sink uncalled");
    }
}
