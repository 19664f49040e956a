//! The one file of the benchmark that reaches into `bargain-core`,
//! `bargain-sql` and `bargain-storage`.
//!
//! It pushes one generated transaction at a time, single-threaded, through
//! the layers' public functions in the order the live deployment calls
//! them, timing each call as a child span of the transaction. When
//! `bargain-core` is refactored, this file is the only thing a later
//! benchmark change has to touch; the README lists the functions it calls.

use crate::spans::Recorder;
use bargain_common::{
    ClientId, ConsistencyMode, IdemKey, ReplicaId, SessionId, TableId, TemplateId, Value, WriteOp,
    WriteSet,
};
use bargain_core::{
    AnyCertifier, CommitLog, FileLog, FinishAction, LoadBalancer, LogRecord, Proxy, ProxyEvent,
    StartDecision, StatementOutcome, TxnRequest,
};
use bargain_e2e::workloads::Txn;
use bargain_net::frame::{encode_frame, read_frame};
use bargain_net::Message;
use bargain_sql::QueryResult;
use bargain_storage::Engine;
use bargain_workloads::Workload;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Certified records kept for the WAL stage: `WAL_SINGLE` are appended one
/// per flush, all of them sixteen per flush.
const WAL_RECORDS: usize = 1024;
const WAL_SINGLE: usize = 512;
/// Records per flush in the group-commit measurement.
pub const WAL_BATCH: usize = 16;
/// The replicas vacuum their version chains every this many messages.
const GC_EVERY: u64 = 4096;

/// What one replayed transaction weighed.
pub struct Facts {
    /// Bytes of the `Run` frame.
    pub request_bytes: usize,
    /// Bytes of the `TxnReply` frame.
    pub reply_bytes: usize,
    /// Payload bytes of the writeset, for an update.
    pub writeset_bytes: Option<usize>,
}

/// What the WAL stage measured.
pub struct WalFacts {
    /// Bytes the log grew per record appended.
    pub bytes_per_commit: f64,
}

/// The layers of one origin replica, one peer replica, the load balancer
/// and the certifier, wired by function calls instead of threads.
pub struct Replay {
    lb: LoadBalancer,
    origin: Proxy,
    peer: Proxy,
    certifier: AnyCertifier,
    /// A bare engine that follows the same commit sequence, for the
    /// storage layer's own cost under the same keys.
    bare: Engine,
    /// A second one, which applies every writeset as a refresh.
    refreshed: Engine,
    /// The table each statement of each template reads or writes.
    statement_tables: HashMap<TemplateId, Vec<Option<TableId>>>,
    certified: Vec<LogRecord>,
    seq: u64,
}

fn installed(workload: &dyn Workload) -> Engine {
    let mut engine = Engine::new();
    workload
        .install(&mut engine)
        .expect("workload installs into an empty engine");
    engine
}

/// `Message::encode` -> `encode_frame` -> `read_frame` -> `Message::decode`:
/// what one message costs both ends of a connection, without the socket.
fn over_the_codec(msg: &Message, request_id: u64) -> (Message, usize) {
    let frame = encode_frame(msg.kind(), request_id, &msg.encode()).expect("message fits a frame");
    let (kind, _, payload) = read_frame(&mut frame.as_slice()).expect("own frame reads back");
    let decoded = Message::decode(kind, &payload).expect("own payload decodes");
    (decoded, frame.len())
}

impl Replay {
    /// Builds the layers over `workload`'s schema and initial data, in the
    /// deployment's configuration: `LazyFine`, three replicas, one
    /// sequential certifier shard with an in-memory log.
    pub fn new(workload: &dyn Workload) -> Replay {
        let replicas: Vec<ReplicaId> = (0..3).map(ReplicaId).collect();
        let mode = ConsistencyMode::LazyFine;
        let mut origin = Proxy::new(replicas[0], mode, installed(workload));
        let mut peer = Proxy::new(replicas[1], mode, installed(workload));
        let n_tables = origin.engine().catalog().len();
        let mut lb = LoadBalancer::new(mode, replicas.clone(), n_tables);
        let mut statement_tables = HashMap::new();
        for template in workload.templates() {
            let catalog = origin.engine().catalog();
            let table_set = template
                .table_set(catalog)
                .expect("template's tables exist");
            lb.register_template(template.id, table_set);
            let tables = template
                .statements
                .iter()
                .map(|s| s.table_name().and_then(|name| catalog.resolve(name).ok()))
                .collect();
            statement_tables.insert(template.id, tables);
            let template = Arc::new(template);
            origin.register_template(Arc::clone(&template));
            peer.register_template(template);
        }
        Replay {
            lb,
            origin,
            peer,
            certifier: AnyCertifier::new(replicas, 1, false),
            bare: installed(workload),
            refreshed: installed(workload),
            statement_tables,
            certified: Vec::new(),
            seq: 0,
        }
    }

    /// Pushes one transaction through every layer, one span per call.
    ///
    /// # Panics
    /// If a layer refuses: single-threaded and in order, nothing can
    /// conflict, so a refusal is a bug in the program or in this file.
    pub fn run(&mut self, (template, params): Txn, rec: &mut Recorder) -> Facts {
        self.seq += 1;
        let seq = self.seq;
        if seq.is_multiple_of(GC_EVERY) {
            self.origin.engine_mut().gc();
            self.peer.engine_mut().gc();
            self.bare.gc();
            self.refreshed.gc();
        }

        let request = Message::Run {
            template,
            params,
            idem: Some(IdemKey { client: 0xE2E, seq }),
        };
        let (request, request_bytes) =
            rec.time("net.codec.request", || over_the_codec(&request, seq));
        let Message::Run {
            template,
            params,
            idem,
        } = request
        else {
            unreachable!("a Run decodes to a Run");
        };

        let routed = rec
            .time("core.lb.route", || {
                self.lb.route(TxnRequest {
                    client: ClientId(0),
                    session: SessionId(0),
                    template,
                    params,
                    idem,
                })
            })
            .expect("load balancer routes");
        assert_eq!(
            routed.replica,
            ReplicaId(0),
            "an idle balancer picks the first replica"
        );
        let txn = routed.txn;

        let started = rec
            .time("core.proxy.start", || self.origin.start(routed))
            .expect("proxy admits");
        assert!(
            matches!(started, StartDecision::Started { .. }),
            "the origin has applied every commit"
        );

        let tables = &self.statement_tables[&template];
        let mut results: Vec<QueryResult> = Vec::with_capacity(tables.len());
        for stmt in 0..tables.len() {
            match rec
                .time("sql.exec", || self.origin.execute_statement(txn, stmt))
                .expect("statement executes")
            {
                StatementOutcome::Ok(result) => results.push(result),
                StatementOutcome::EarlyAborted(_) => panic!("nothing is pending to conflict with"),
            }
        }

        let finish = rec
            .time("core.proxy.finish", || self.origin.finish(txn))
            .expect("proxy finishes");
        let (outcome, writeset_bytes) = match finish {
            FinishAction::ReadOnlyCommitted(outcome) => (outcome, None),
            FinishAction::NeedsCertification(request) => {
                let bytes = request.writeset.payload_bytes();
                let (decision, refreshes) = rec
                    .time("core.certifier.certify", || {
                        self.certifier.certify_batch(vec![request])
                    })
                    .expect("certifier decides")
                    .pop()
                    .expect("one decision per request");
                let outcome = rec
                    .time("core.proxy.decision", || self.origin.on_decision(decision))
                    .expect("origin applies its commit")
                    .into_iter()
                    .find_map(|event| match event {
                        ProxyEvent::TxnFinished(outcome) => Some(outcome),
                        _ => None,
                    })
                    .expect("the commit finishes the transaction");
                // Refreshes come in replica order: the first is the peer's.
                let refresh = refreshes.into_iter().next().expect("two other replicas");
                let (writeset, version) = (Arc::clone(&refresh.writeset), refresh.commit_version);
                if self.certified.len() < WAL_RECORDS {
                    self.certified.push(LogRecord {
                        commit_version: version,
                        txn: refresh.txn,
                        origin: refresh.origin,
                        idem,
                        writeset: Arc::clone(&writeset),
                    });
                }
                rec.time("core.proxy.refresh", || self.peer.on_refresh(refresh))
                    .expect("peer applies the refresh");

                self.replay_writes(&writeset, rec);
                rec.time("storage.refresh_apply", || {
                    self.refreshed.apply_refresh(&writeset, version)
                })
                .expect("bare engine applies the refresh");
                (outcome, Some(bytes))
            }
        };
        assert!(outcome.committed, "nothing can conflict");
        self.replay_reads(template, &results, rec);

        rec.time("core.lb.route", || self.lb.on_outcome(&outcome));
        let reply = Message::TxnReply { outcome, results };
        let (_, reply_bytes) = rec.time("net.codec.reply", || over_the_codec(&reply, seq));
        Facts {
            request_bytes,
            reply_bytes,
            writeset_bytes,
        }
    }

    /// The storage layer's share of an update: the same writes on a bare
    /// engine, `begin` / `insert`-`update`-`delete` / `commit_at`.
    fn replay_writes(&mut self, writeset: &WriteSet, rec: &mut Recorder) {
        let entries: Vec<_> = writeset.entries().to_vec();
        let version = self.bare.version().next();
        let bare = &mut self.bare;
        rec.time("storage.write", || {
            let h = bare.begin();
            for e in entries {
                match e.op {
                    WriteOp::Insert(row) => bare.insert(h, e.table, row),
                    WriteOp::Update(row) => bare.update(h, e.table, &e.key, row),
                    WriteOp::Delete => bare.delete(h, e.table, &e.key),
                }
                .expect("bare engine takes the write");
            }
            bare.commit_at(h, version)
        })
        .expect("bare engine commits in order");
    }

    /// The storage layer's share of the reads: every row a `SELECT`
    /// returned, fetched again by primary key (the first column of every
    /// table of both workloads) on the bare engine.
    fn replay_reads(&mut self, template: TemplateId, results: &[QueryResult], rec: &mut Recorder) {
        let keys: Vec<(TableId, &Value)> = self.statement_tables[&template]
            .iter()
            .zip(results)
            .filter_map(|(table, result)| Some(((*table)?, result.rows()?)))
            .flat_map(|(table, rows)| {
                rows.iter()
                    .filter_map(move |row| Some((table, row.first()?)))
            })
            .collect();
        if keys.is_empty() {
            return;
        }
        let bare = &mut self.bare;
        rec.time("storage.read", || {
            let h = bare.begin();
            for (table, key) in keys {
                bare.get(h, table, key).expect("bare engine reads");
            }
            bare.commit_read_only(h)
        })
        .expect("read-only commit");
    }

    /// The durable path no end-to-end workload takes: the first certified
    /// records appended to a `FileLog` in `dir`, one per flush and then
    /// [`WAL_BATCH`] per flush. `None` when the workload certified nothing.
    pub fn wal(&self, dir: &Path, spans: &mut Vec<crate::spans::Span>) -> Option<WalFacts> {
        if self.certified.is_empty() {
            return None;
        }
        let path = dir.join("certifier.wal");
        let _ = std::fs::remove_file(&path);
        let mut log = FileLog::open(&path).expect("WAL opens in the scratch directory");
        let single = &self.certified[..self.certified.len().min(WAL_SINGLE)];
        for (i, record) in single.iter().enumerate() {
            Recorder::new(spans, i as u64)
                .time("core.wal.append_flush", || log.append(record))
                .expect("WAL appends");
        }
        let bytes = std::fs::metadata(&path).expect("WAL exists").len();
        for (i, batch) in self.certified.chunks_exact(WAL_BATCH).enumerate() {
            Recorder::new(spans, i as u64)
                .time("core.wal.append_flush_b16", || log.append_batch(batch))
                .expect("WAL appends a batch");
        }
        drop(log);
        let _ = std::fs::remove_file(&path);
        Some(WalFacts {
            bytes_per_commit: bytes as f64 / single.len() as f64,
        })
    }
}
