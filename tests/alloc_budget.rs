//! How many heap allocations an operation costs on the saturated path.
//!
//! A counting global allocator, and the calls a replica makes for one
//! operation, in the live deployment's order and single-threaded: the load
//! balancer's route, the origin proxy's start, statement and finish, one
//! certifier step into a kept [`Step`], the decision at the origin, the
//! refresh at a peer, the outcome at the balancer and a collection at both
//! replicas. The client's parameters are built outside the count.
//!
//! Every committed row image is one allocation shared by the writeset, the
//! certifier's record and each replica's version chain, so applying a
//! refresh to an engine whose chains and collection list have reached
//! their working size allocates nothing. Run it in release:
//!
//! ```text
//! cargo test --release --test alloc_budget -- --nocapture
//! ```

use bargain::common::{ClientId, ConsistencyMode, ReplicaId, SessionId, Value, Version};
use bargain::core::certifier::{Delivery, Input, Step};
use bargain::core::{
    Certifier, FinishAction, LoadBalancer, Proxy, StartDecision, StatementOutcome, TxnOutcome,
    TxnRequest,
};
use bargain::storage::Engine;
use bargain::workloads::{MicroBenchmark, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's allocations (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations per committed single-row update, whole path: 7.0 with one
/// shared image per row, 26.0 when every holder copied it.
const UPDATE_BUDGET: f64 = 10.0;
/// Allocations per single-row point read, whole path: 2.0 with the stored
/// image shared into the result, 5.0 when it was copied.
const READ_BUDGET: f64 = 3.0;

/// Keys the measured operations touch, each once before the count starts.
const KEYS: i64 = 64;
const ROUNDS: i64 = 8;

/// One origin, one peer, the balancer, the certifier and a bare engine
/// that applies every writeset as a refresh.
struct Path {
    lb: LoadBalancer,
    origin: Proxy,
    peer: Proxy,
    certifier: Certifier,
    step: Step,
    refreshed: Engine,
    /// Allocations inside the bare engine's `apply_refresh`.
    refresh_allocs: u64,
}

fn installed(workload: &MicroBenchmark) -> Engine {
    let mut engine = Engine::new();
    workload.install(&mut engine).expect("workload installs");
    engine
}

impl Path {
    fn new(workload: &MicroBenchmark) -> Path {
        let replicas = vec![ReplicaId(0), ReplicaId(1)];
        let mode = ConsistencyMode::LazyFine;
        let mut origin = Proxy::new(replicas[0], mode, installed(workload));
        let mut peer = Proxy::new(replicas[1], mode, installed(workload));
        let n_tables = origin.engine().catalog().len();
        let mut lb = LoadBalancer::new(mode, replicas.clone(), n_tables);
        for template in workload.templates() {
            let table_set = template
                .table_set(origin.engine().catalog())
                .expect("template's tables exist");
            lb.register_template(template.id, table_set);
            let template = Arc::new(template);
            origin.register_template(Arc::clone(&template));
            peer.register_template(template);
        }
        Path {
            lb,
            origin,
            peer,
            certifier: Certifier::new(replicas),
            step: Step::default(),
            refreshed: installed(workload),
            refresh_allocs: 0,
        }
    }

    /// Runs one transaction through every layer; returns its outcome.
    fn run(&mut self, request: TxnRequest) -> TxnOutcome {
        let routed = self.lb.route(request).expect("balancer routes");
        assert_eq!(routed.replica, ReplicaId(0), "an idle balancer picks 0");
        let txn = routed.txn;
        let started = self.origin.start(routed).expect("origin admits");
        assert!(matches!(started, StartDecision::Started { .. }));
        let result = self.origin.execute_statement(txn, 0).expect("executes");
        assert!(matches!(result, StatementOutcome::Ok(_)));
        let outcome = match self.origin.finish(txn).expect("finishes") {
            FinishAction::ReadOnlyCommitted(outcome) => outcome,
            FinishAction::NeedsCertification(request) => {
                self.certifier
                    .step_into([Input::Certify(request)], &mut self.step)
                    .expect("memory log flushes");
                let mut outcome = None;
                for (to, delivery) in self.step.out.drain(..) {
                    match delivery {
                        Delivery::Decision(decision) => {
                            assert_eq!(to, ReplicaId(0));
                            let events = self.origin.on_decision(decision).expect("decides");
                            outcome = events.into_iter().find_map(|e| match e {
                                bargain::core::ProxyEvent::TxnFinished(o) => Some(o),
                                _ => None,
                            });
                        }
                        Delivery::Refresh(refresh) => {
                            assert_eq!(to, ReplicaId(1));
                            let (writeset, version) =
                                (Arc::clone(&refresh.writeset), refresh.commit_version);
                            self.peer.on_refresh(refresh).expect("peer applies");
                            let refreshed = &mut self.refreshed;
                            let (applied, allocs) =
                                counted(|| refreshed.apply_refresh(&writeset, version));
                            applied.expect("bare engine applies");
                            self.refresh_allocs += allocs;
                        }
                        Delivery::GlobalCommit(_) => unreachable!("lazy mode"),
                    }
                }
                outcome.expect("the decision finishes the transaction")
            }
        };
        self.lb.on_outcome(&outcome);
        self.origin.collect();
        self.peer.collect();
        self.refreshed.gc();
        outcome
    }
}

fn request(template: bargain::common::TemplateId, params: Vec<Value>) -> TxnRequest {
    TxnRequest {
        client: ClientId(0),
        session: SessionId(0),
        template,
        params: vec![params],
        idem: None,
    }
}

/// Mean allocations per operation over `ROUNDS` passes of the `KEYS`
/// keys, after one unmeasured pass, and the refresh allocations of the
/// measured passes.
fn measure(path: &mut Path, make: impl Fn(i64, i64) -> TxnRequest) -> (f64, u64) {
    for key in 1..=KEYS {
        assert!(path.run(make(0, key)).committed);
    }
    path.refresh_allocs = 0;
    let mut total = 0;
    for round in 1..=ROUNDS {
        for key in 1..=KEYS {
            let req = make(round, key);
            let (outcome, allocs) = counted(|| path.run(req));
            assert!(outcome.committed);
            total += allocs;
        }
    }
    (total as f64 / (ROUNDS * KEYS) as f64, path.refresh_allocs)
}

#[test]
fn an_operation_stays_within_its_allocation_budget() {
    let workload = MicroBenchmark::small(0.5);
    let mut path = Path::new(&workload);

    let (per_update, refresh_allocs) = measure(&mut path, |round, key| {
        request(
            MicroBenchmark::update_template(1),
            vec![Value::Int(round * 1000 + key), Value::Int(key)],
        )
    });
    let (per_read, _) = measure(&mut path, |_, key| {
        request(MicroBenchmark::read_template(1), vec![Value::Int(key)])
    });
    println!(
        "allocations: {per_update:.2} per committed update, {per_read:.2} per point read, \
         {refresh_allocs} in apply_refresh over {} refreshes",
        ROUNDS * KEYS
    );
    assert_eq!(
        path.certifier.version(),
        Version(((ROUNDS + 1) * KEYS) as u64),
        "every update committed once"
    );
    assert_eq!(
        refresh_allocs, 0,
        "applying a refresh copied row images instead of sharing them"
    );
    assert!(
        per_update <= UPDATE_BUDGET,
        "{per_update:.2} allocations per committed update, budget {UPDATE_BUDGET}"
    );
    assert!(
        per_read <= READ_BUDGET,
        "{per_read:.2} allocations per point read, budget {READ_BUDGET}"
    );
}
