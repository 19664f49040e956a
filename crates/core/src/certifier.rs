//! The certifier: global certification, commit ordering, durability, and
//! refresh fan-out.
//!
//! The certifier performs the four tasks the paper assigns it (§IV):
//!
//! (a) it decides whether an update transaction commits — a transaction `T`
//!     commits iff its writeset does not write-conflict with the writesets
//!     of transactions that committed since `T` started;
//! (b) it maintains the total order of committed update transactions by
//!     handing out the `V_commit` counter;
//! (c) it ensures the durability of its decisions through a [`CommitLog`];
//! (d) it forwards the writeset of every committed transaction to the other
//!     replicas as refresh transactions.
//!
//! For the eager configuration it additionally keeps a per-transaction
//! set of replica commits and reports *global commit* once every replica
//! has applied the transaction.
//!
//! # One step under every host
//!
//! [`Certifier::step`] is the whole certifier as its hosts see it — the
//! runtime's in-process certifier (stepped by the replica threads under a
//! lock), `bargain-net`'s `CertifierService` and the simulator:
//! [`Input`]s in (certify requests, applied reports, hellos, joins,
//! leaves), [`Delivery`]s out, each already addressed. It is the only way
//! in: every test and tool drives it too. Besides it, only setup and upkeep
//! change the certifier — the constructors ([`Certifier::new`],
//! [`Certifier::with_log`], [`Certifier::open`]), [`Certifier::set_eager`],
//! [`Certifier::recover`] and [`Certifier::prune`] — and the rest of what
//! is public only reads it. Two rules live here and nowhere else:
//!
//! - *The cut rule.* A maximal run of consecutive `Certify` inputs, at most
//!   [`MAX_CERTIFY_BATCH`] long, is certified and flushed as one group
//!   commit. Any other input certifies the run before it first, so the
//!   membership changes only between batches.
//! - *The order rule.* A commit's refreshes, one per member but the origin
//!   in membership order, come ahead of its decision; global commits come
//!   where their input was.
//!
//! A request the certifier cannot certify — a snapshot outside the history
//! it holds, an idempotency key evicted from the dedup window — is answered
//! to its origin alone with [`CertifyDecision::Refused`] and changes
//! nothing; only a log that fails to flush fails the step. A history fetch
//! ([`Certifier::certified_since`]) is no input: it changes nothing, and a
//! host answers it after stepping over what came before it. A host carries
//! the outputs and owns only its transport, its cost model and its fault
//! gates.
//!
//! # One index over one log
//!
//! [`Certifier`] is a sequencer (the `V_commit` counter, the history floor,
//! the replica membership, the eager accounting, the counters, the
//! per-client dedup windows) over one row-version index, one ring of
//! retained commits, one commit log and the group-commit buffer in front of
//! it. Certification asks the index for the newest commit above the
//! snapshot that wrote one of the writeset's rows (O(|writeset|) probes,
//! independent of history depth); if none did, the next commit version is
//! assigned and the commit installed. `Certifier::conflict_linear` — the
//! pre-index linear scan — is `debug_assert`ed against the indexed answer
//! on every certification, and `tests/proptest_certifier.rs` holds the
//! whole type to a naive model.
//!
//! The committed writeset sits behind an [`Arc`] shared by the history, the
//! [`LogRecord`] and every [`Refresh`], so a commit never deep-copies it.
//!
//! # Durability and recovery
//!
//! [`Certifier::step`] announces no decision before its batch's
//! buffered records are flushed (group commit: one durability point per
//! batch). Recovery replays the log and reinstalls its records in order. A
//! crash can tear the log's last record — [`FileLog::open`] cuts the torn
//! bytes off, the decision was never announced — but an append-only log
//! cannot lose a record from its middle, so a replay whose versions are not
//! dense from 1 is refused as corruption, not truncated.
//!
//! # Exactly-once
//!
//! One dedup window per client, rebuilt from the log in commit order at
//! recovery, so a replay after a certifier restart is answered with the
//! original outcome.

use crate::messages::{CertifyDecision, CertifyRequest, Refresh};
use crate::wal::{CommitLog, FileLog, LogRecord, MemoryLog};
use bargain_common::{Error, ReplicaId, Result, TableId, TxnId, Value, Version, WriteSet};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::RangeBounds;
use std::path::Path;
use std::sync::Arc;

/// The longest run of consecutive [`Input::Certify`] that [`Certifier::step`]
/// certifies as one group commit.
pub const MAX_CERTIFY_BATCH: usize = 64;

/// One input to [`Certifier::step`].
#[derive(Debug)]
pub enum Input {
    /// Certify an update transaction.
    Certify(CertifyRequest),
    /// Eager mode: `replica` applied the commit at `version`.
    Applied {
        /// The reporting replica.
        replica: ReplicaId,
        /// The version it applied.
        version: Version,
    },
    /// Eager mode: `replica` has applied every commit up to `v_local` (it
    /// re-introduces itself after a certifier or replica restart).
    Hello {
        /// The reporting replica.
        replica: ReplicaId,
        /// Its `V_local`.
        v_local: Version,
    },
    /// `replica` joins the fan-out with a snapshot holding every commit up
    /// to `after`, which credits it for those.
    Join {
        /// The joining replica.
        replica: ReplicaId,
        /// Its snapshot's version.
        after: Version,
    },
    /// `replica` leaves the fan-out; nothing waits on it any more.
    Leave {
        /// The departing replica.
        replica: ReplicaId,
    },
}

/// What the certifier sends one replica.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// A commit from elsewhere, to apply in version order.
    Refresh(Refresh),
    /// The decision for one of the replica's own requests.
    Decision(CertifyDecision),
    /// Eager mode: every member applied the replica's transaction.
    GlobalCommit(TxnId),
}

/// What one [`Certifier::step`] produced.
#[derive(Debug, Default)]
pub struct Step {
    /// What to send, each with its addressee, in the order to send it.
    pub out: Vec<(ReplicaId, Delivery)>,
    /// How many requests each group commit of the step certified, in order.
    pub batches: Vec<usize>,
}

/// How many recent certified sequence numbers the exactly-once machinery
/// remembers per client nonce. A client may have at most this many keyed
/// transactions in flight (pipelining window) and still be guaranteed that
/// a replay of any of them after a crash is answered with the original
/// outcome instead of being rejected as stale.
pub const DEDUP_WINDOW: usize = 64;

/// What the dedup window knows about one presented idempotency key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DedupVerdict {
    /// The seq was certified before: answer with the original outcome.
    Duplicate {
        /// The original transaction id.
        txn: TxnId,
        /// The original commit version.
        commit_version: Version,
    },
    /// Never certified (and newer than everything evicted): certify fresh.
    /// This covers both genuinely new seqs and retries of *aborted*
    /// originals, which leave no entry — re-certifying them is correct
    /// because they had no effect.
    Fresh,
    /// The seq is at or below the window's eviction floor: exactly-once
    /// can no longer be proven, so the request must be rejected.
    OutOfWindow {
        /// Entries through this seq have been evicted.
        evicted_through: u64,
    },
}

/// Per-client exactly-once state: the newest [`DEDUP_WINDOW`] certified
/// seqs with their original outcomes, plus the floor below which entries
/// were evicted. A window of one would do for a sequential client; a
/// pipelined one legitimately replays seqs older than its newest certified
/// after a crash.
#[derive(Debug, Clone, Default)]
struct ClientWindow {
    /// seq → (original txn, commit version), at most [`DEDUP_WINDOW`].
    entries: BTreeMap<u64, (TxnId, Version)>,
    /// The highest seq evicted from `entries`, if any.
    evicted: Option<u64>,
}

impl ClientWindow {
    fn lookup(&self, seq: u64) -> DedupVerdict {
        if let Some(&(txn, commit_version)) = self.entries.get(&seq) {
            return DedupVerdict::Duplicate {
                txn,
                commit_version,
            };
        }
        match self.evicted {
            Some(evicted_through) if seq <= evicted_through => {
                DedupVerdict::OutOfWindow { evicted_through }
            }
            _ => DedupVerdict::Fresh,
        }
    }

    /// Records a freshly certified seq, evicting the oldest entry past the
    /// window bound. Deterministic in insertion order, so log replay
    /// rebuilds the identical window.
    fn record(&mut self, seq: u64, txn: TxnId, commit_version: Version) {
        self.entries.insert(seq, (txn, commit_version));
        while self.entries.len() > DEDUP_WINDOW {
            let (oldest, _) = self.entries.pop_first().expect("non-empty window");
            self.evicted = Some(self.evicted.map_or(oldest, |e| e.max(oldest)));
        }
    }
}

/// Counters the certifier maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifierStats {
    /// Update transactions certified to commit.
    pub commits: u64,
    /// Update transactions aborted by certification.
    pub aborts: u64,
    /// Refresh messages produced.
    pub refreshes_sent: u64,
    /// History entries pruned.
    pub pruned: u64,
    /// Certify requests answered from the idempotency map (client retries
    /// of already-committed transactions).
    pub duplicates: u64,
}

struct EagerState {
    origin: ReplicaId,
    txn: TxnId,
    /// Replicas that have applied this commit. A set (not a counter) so
    /// that duplicate reports — re-deliveries, post-crash hellos, resync
    /// re-applications — are idempotent and can never release a global
    /// commit early.
    applied: Vec<ReplicaId>,
}

/// The certifier state machine (see the module docs). One logical instance
/// per cluster (the paper notes it is lightweight and deterministic, hence
/// replicable with the state-machine approach for availability; we model
/// the single logical instance).
pub struct Certifier {
    replicas: Vec<ReplicaId>,
    /// The single commit-version counter: the total commit order.
    v_commit: Version,
    /// Commits at or below this version have been pruned; `history` is
    /// dense between it and `v_commit`.
    history_floor: Version,
    /// Row → the retained commit that last wrote it.
    row_index: HashMap<TableId, HashMap<Value, Version>>,
    /// The retained commits, oldest first.
    history: VecDeque<LogRecord>,
    log: Box<dyn CommitLog>,
    /// Commits buffered since the last group-commit flush.
    unflushed: Vec<LogRecord>,
    /// Exactly-once retry windows, per client nonce. Rebuilt from the log
    /// by [`Certifier::recover`], so deduplication survives restarts.
    dedup: HashMap<u64, ClientWindow>,
    /// Eager-mode accounting: commit version → replicas applied so far.
    eager_pending: BTreeMap<Version, EagerState>,
    eager_enabled: bool,
    stats: CertifierStats,
}

impl Certifier {
    /// A certifier for `replicas` with an in-memory log.
    #[must_use]
    pub fn new(replicas: Vec<ReplicaId>) -> Self {
        Self::with_log(replicas, Box::new(MemoryLog::new()))
    }

    /// A certifier with a caller-provided durable log.
    #[must_use]
    pub fn with_log(replicas: Vec<ReplicaId>, log: Box<dyn CommitLog>) -> Self {
        Certifier {
            replicas,
            v_commit: Version::ZERO,
            history_floor: Version::ZERO,
            row_index: HashMap::new(),
            history: VecDeque::new(),
            log,
            unflushed: Vec::new(),
            dedup: HashMap::new(),
            eager_pending: BTreeMap::new(),
            eager_enabled: false,
            stats: CertifierStats::default(),
        }
    }

    /// The certifier a host deploys: in memory without a `wal_dir`; with
    /// one, over the [`FileLog`] `certifier.wal` inside it, recovered from
    /// whatever it holds.
    ///
    /// A directory holding `shard-*` entries was written by a build that
    /// partitioned the log (`shards` > 1): its commits are not in
    /// `certifier.wal`, so it is refused rather than started empty beside
    /// them.
    pub fn open(replicas: Vec<ReplicaId>, wal_dir: Option<&Path>) -> Result<Self> {
        let Some(dir) = wal_dir else {
            return Ok(Self::new(replicas));
        };
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            if name.to_string_lossy().starts_with("shard-") {
                return Err(Error::Io(format!(
                    "certifier WAL directory {} holds {}: it was written with more than one \
                     certifier shard, which this build cannot read; restart it with the build \
                     that wrote it, or point wal_dir at a new directory",
                    dir.display(),
                    name.to_string_lossy()
                )));
            }
        }
        let log = FileLog::open(&dir.join("certifier.wal"))?;
        let mut certifier = Self::with_log(replicas, Box::new(log));
        certifier.recover()?;
        Ok(certifier)
    }

    /// Enables or disables eager-mode global-commit tracking
    /// ([`Input::Applied`], [`Input::Hello`]). Enabling makes every
    /// retained commit pending with no replica credited — the conservative
    /// state [`Self::recover`] leaves, so the flag may be set before or
    /// after recovery.
    pub fn set_eager(&mut self, enabled: bool) {
        self.eager_enabled = enabled;
        self.eager_pending.clear();
        if enabled {
            for rec in &self.history {
                self.eager_pending.insert(
                    rec.commit_version,
                    EagerState {
                        origin: rec.origin,
                        txn: rec.txn,
                        applied: Vec::new(),
                    },
                );
            }
        }
    }

    /// The latest certified version (`V_commit`).
    #[must_use]
    pub fn version(&self) -> Version {
        self.v_commit
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Number of commit versions retained for conflict checking (the
    /// history is dense between the prune floor and `V_commit`).
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.v_commit.gap_from(self.history_floor) as usize
    }

    /// Runs the certifier over `inputs` in order and returns what to send,
    /// addressed (see the module docs for the cut and order rules). Only a
    /// log that fails to flush is an error; the step's outputs are then
    /// lost with it, and none of its failed batch's decisions is announced.
    pub fn step(&mut self, inputs: impl IntoIterator<Item = Input>) -> Result<Step> {
        let (mut step, mut run) = (Step::default(), Vec::new());
        for input in inputs {
            if !matches!(input, Input::Certify(_)) || run.len() == MAX_CERTIFY_BATCH {
                self.certify_run(&mut run, &mut step)?;
            }
            let completed = match input {
                Input::Certify(req) => {
                    run.push(req);
                    continue;
                }
                // A report from outside the membership (a straggler from a
                // decommissioned replica) must not stand in for a member's
                // credit.
                Input::Applied { replica, .. } if !self.replicas.contains(&replica) => continue,
                Input::Applied { replica, version } => self.credit(replica, version..=version),
                // Replicas apply the commit order densely, so `V_local`
                // names exactly the commits a replica has applied.
                Input::Hello { replica, v_local } => self.credit(replica, ..=v_local),
                // From here every commit fans out to the joiner too. Commits
                // still pending in eager mode wait for it as well: its
                // snapshot credits those up to `after`, its catch-up replay
                // reports the rest.
                Input::Join { replica, after } => {
                    if !self.replicas.contains(&replica) {
                        self.replicas.push(replica);
                    }
                    self.credit(replica, ..=after)
                }
                // The leaver's credit is dropped everywhere, and whatever
                // every remaining member has applied completes.
                Input::Leave { replica } => {
                    let Some(idx) = self.replicas.iter().position(|&r| r == replica) else {
                        continue;
                    };
                    self.replicas.remove(idx);
                    for state in self.eager_pending.values_mut() {
                        state.applied.retain(|&r| r != replica);
                    }
                    let versions: Vec<Version> = self.eager_pending.keys().copied().collect();
                    self.take_globally_committed(&versions)
                }
            };
            let global = completed.into_iter();
            step.out
                .extend(global.map(|(origin, txn)| (origin, Delivery::GlobalCommit(txn))));
        }
        self.certify_run(&mut run, &mut step)?;
        Ok(step)
    }

    /// Certifies `run` as one group commit and queues its outputs on `step`
    /// once the commits are durable.
    fn certify_run(&mut self, run: &mut Vec<CertifyRequest>, step: &mut Step) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        step.batches.push(run.len());
        let decided: Vec<_> = run
            .drain(..)
            .map(|req| (req.replica, self.certify_one(req)))
            .collect();
        self.flush()?;
        for (origin, (decision, refresh)) in decided {
            if let Some(refresh) = refresh {
                for &to in self.replicas.iter().filter(|&&r| r != origin) {
                    step.out.push((to, Delivery::Refresh(refresh.clone())));
                }
            }
            step.out.push((origin, Delivery::Decision(decision)));
        }
        Ok(())
    }

    /// Certifies one request against in-memory state: validate, dedup, probe
    /// the index, then sequence and install. The commit's log record waits
    /// in the group-commit buffer (durability happens at batch end). A
    /// request that fails validation is refused and changes nothing. A
    /// commit comes with its refresh, which the step sends to every other
    /// member.
    fn certify_one(&mut self, req: CertifyRequest) -> (CertifyDecision, Option<Refresh>) {
        let refuse = |reason| {
            let txn = req.txn;
            (CertifyDecision::Refused { txn, reason }, None)
        };
        // The snapshot must be a state the certifier has produced.
        if req.snapshot > self.v_commit {
            return refuse(format!(
                "certify: snapshot {} is in the future of V_commit {}",
                req.snapshot, self.v_commit
            ));
        }
        if req.snapshot < self.history_floor {
            return refuse(format!(
                "certify: snapshot {} is below the pruned history floor {}",
                req.snapshot, self.history_floor
            ));
        }
        // Exactly-once: a retry of an already-certified request is answered
        // with the original outcome instead of committing its writes twice.
        // The certifier is the single serialization point, so this check
        // catches every ordering of original and retry: whichever arrives
        // second sees the first's entry. Aborted originals leave no entry
        // (their retry certifies fresh, which is correct — they had no
        // effect). A pipelined client may replay *any* of its last
        // [`DEDUP_WINDOW`] keyed transactions after a reconnect, not just
        // the newest; only keys evicted from the window are refused.
        if let Some(key) = req.idem {
            let window = self.dedup.get(&key.client);
            match window.map_or(DedupVerdict::Fresh, |w| w.lookup(key.seq)) {
                DedupVerdict::Duplicate {
                    txn,
                    commit_version,
                } => {
                    self.stats.duplicates += 1;
                    return (
                        CertifyDecision::Duplicate {
                            txn: req.txn,
                            original: txn,
                            commit_version,
                        },
                        None,
                    );
                }
                // A conformant client keeps at most DEDUP_WINDOW keyed
                // transactions in flight; a seq below the eviction floor is
                // being replayed out of protocol and exactly-once can no
                // longer be proven for it.
                DedupVerdict::OutOfWindow { evicted_through } => {
                    return refuse(format!(
                        "certify: stale idempotency key {key} (dedup window evicted \
                         through seq {evicted_through})"
                    ));
                }
                DedupVerdict::Fresh => {}
            }
        }
        // The newest retained commit above the snapshot that wrote one of
        // the writeset's rows.
        let conflict = req
            .writeset
            .entries()
            .iter()
            .filter_map(|e| self.row_index.get(&e.table)?.get(&e.key).copied())
            .filter(|&last_writer| last_writer > req.snapshot)
            .max();
        debug_assert_eq!(
            conflict,
            self.conflict_linear(req.snapshot, &req.writeset),
            "row index diverged from the linear-scan oracle"
        );
        if let Some(conflicting_version) = conflict {
            self.stats.aborts += 1;
            return (
                CertifyDecision::Abort {
                    txn: req.txn,
                    conflicting_version,
                },
                None,
            );
        }
        // The writeset is shared by the log record, the history and the
        // refreshes.
        let commit_version = self.v_commit.next();
        let record = LogRecord {
            commit_version,
            txn: req.txn,
            origin: req.replica,
            idem: req.idem,
            writeset: Arc::new(req.writeset),
        };
        self.install(&record);
        if self.eager_enabled {
            self.eager_pending.insert(
                commit_version,
                EagerState {
                    origin: req.replica,
                    txn: req.txn,
                    applied: Vec::new(),
                },
            );
        }
        self.stats.commits += 1;
        let n_targets = self.replicas.iter().filter(|&&r| r != req.replica).count();
        self.stats.refreshes_sent += n_targets as u64;
        let refresh = Refresh::from(&record);
        self.unflushed.push(record);
        (
            CertifyDecision::Commit {
                txn: req.txn,
                commit_version,
            },
            Some(refresh),
        )
    }

    /// Installs a commit in memory: indexes its rows, retains the record,
    /// advances `V_commit` and remembers its idempotency key. Certification
    /// and recovery both go through here, so a replayed log rebuilds exactly
    /// the state that wrote it — each client's window evicts in the order
    /// it did live.
    fn install(&mut self, record: &LogRecord) {
        for row in record.writeset.entries() {
            self.row_index
                .entry(row.table)
                .or_default()
                .insert(row.key.clone(), record.commit_version);
        }
        self.history.push_back(record.clone());
        self.v_commit = record.commit_version;
        if let Some(key) = record.idem {
            self.dedup.entry(key.client).or_default().record(
                key.seq,
                record.txn,
                record.commit_version,
            );
        }
    }

    /// Group commit: appends the buffered records with one durability
    /// point.
    fn flush(&mut self) -> Result<()> {
        let records = std::mem::take(&mut self.unflushed);
        self.log.append_batch(&records)
    }

    /// Reference oracle: the pre-index linear scan, newest-first, over the
    /// retained history. Returns the newest conflicting committed version
    /// above `snapshot`, identically to the indexed path, which is
    /// `debug_assert`ed against this on every certification.
    fn conflict_linear(&self, snapshot: Version, writeset: &WriteSet) -> Option<Version> {
        self.history
            .iter()
            .rev()
            .take_while(|rec| rec.commit_version > snapshot)
            .find(|rec| rec.writeset.conflicts_with(writeset))
            .map(|rec| rec.commit_version)
    }

    /// Removes the pending eager entries among `versions` that every current
    /// replica has applied, returning their `(origin, txn)` in the order
    /// given.
    fn take_globally_committed(&mut self, versions: &[Version]) -> Vec<(ReplicaId, TxnId)> {
        let n = self.replicas.len();
        let mut completed = Vec::new();
        for v in versions {
            if n > 0 && self.eager_pending[v].applied.len() >= n {
                let state = self.eager_pending.remove(v).expect("present");
                completed.push((state.origin, state.txn));
            }
        }
        completed
    }

    /// Credits `replica` with having applied the pending versions in
    /// `versions` (idempotently: a set, not a counter, so re-deliveries and
    /// repeated hellos never release a global commit early) and completes
    /// those every replica has, in version order.
    fn credit(
        &mut self,
        replica: ReplicaId,
        versions: impl RangeBounds<Version>,
    ) -> Vec<(ReplicaId, TxnId)> {
        let mut credited = Vec::new();
        for (&v, state) in self.eager_pending.range_mut(versions) {
            if !state.applied.contains(&replica) {
                state.applied.push(replica);
            }
            credited.push(v);
        }
        self.take_globally_committed(&credited)
    }

    /// Prunes conflict-check history at or below `floor`: safe once every
    /// replica's `V_local` — and hence every possible snapshot — is at
    /// least `floor`. The row index stays exact: a row is evicted only
    /// while the pruned entry is still its last writer (a newer retained
    /// entry that rewrote the row keeps its newer version in the index).
    pub fn prune(&mut self, floor: Version) {
        let new_floor = floor.min(self.v_commit);
        if new_floor <= self.history_floor {
            return;
        }
        self.stats.pruned += new_floor.gap_from(self.history_floor);
        self.history_floor = new_floor;
        while self
            .history
            .front()
            .is_some_and(|e| e.commit_version <= new_floor)
        {
            let entry = self.history.pop_front().expect("front checked");
            for row in entry.writeset.entries() {
                if let Some(rows) = self.row_index.get_mut(&row.table) {
                    if rows.get(&row.key) == Some(&entry.commit_version) {
                        rows.remove(&row.key);
                    }
                }
            }
        }
        self.row_index.retain(|_, rows| !rows.is_empty());
    }

    /// Rebuilds certifier state from its durable log (crash recovery):
    /// replays it and reinstalls every record in order. Returns the number
    /// of records recovered.
    ///
    /// A crash can only shorten an append-only log, so the replayed commit
    /// versions are dense from 1; a replay that is not is refused as
    /// corruption rather than cut at the gap, which would silently drop
    /// announced commits.
    ///
    /// In the eager configuration the global-commit accounting is rebuilt
    /// conservatively: every logged commit becomes pending again with zero
    /// applied replicas, and an [`Input::Hello`] re-credits each
    /// surviving replica for everything it had already applied. Hosts must
    /// tolerate the resulting re-notifications for transactions whose
    /// global commit was already delivered before the crash.
    pub fn recover(&mut self) -> Result<usize> {
        let records = self.log.replay()?;
        for (rec, expected) in records.iter().zip(1u64..) {
            if rec.commit_version != Version(expected) {
                return Err(Error::Codec(format!(
                    "certifier log is not dense: record {expected} carries commit version {}",
                    rec.commit_version
                )));
            }
        }
        self.row_index.clear();
        self.history.clear();
        self.unflushed.clear();
        self.v_commit = Version::ZERO;
        self.history_floor = Version::ZERO;
        self.dedup.clear();
        for rec in &records {
            self.install(rec);
        }
        self.set_eager(self.eager_enabled);
        Ok(self.history_len())
    }

    /// Every logged commit decision with a version strictly above `after`,
    /// in version order. A recovering replica whose engine survived at
    /// `V_local` calls this to fetch exactly the certified writesets it
    /// missed; a replica recovering from scratch passes [`Version::ZERO`].
    ///
    /// When the requested suffix is still within the retained history
    /// (`after >= history_floor`, the common fast-recovery case) it is
    /// served straight from memory — cheap `Arc` clones, no log I/O. Only a
    /// deep recovery reaching below the pruned floor replays the log.
    pub fn certified_since(&mut self, after: Version) -> Result<Vec<LogRecord>> {
        self.certified_page(after, usize::MAX)
    }

    /// The first `max` records of [`Self::certified_since`]: one reply of a
    /// paged catch-up feed, whose next page starts at its last record.
    pub fn certified_page(&mut self, after: Version, max: usize) -> Result<Vec<LogRecord>> {
        if after >= self.history_floor {
            let skip = after.gap_from(self.history_floor) as usize;
            return Ok(self.history.iter().skip(skip).take(max).cloned().collect());
        }
        let mut records = self.log.replay()?;
        records.retain(|rec| rec.commit_version > after);
        records.truncate(max);
        Ok(records)
    }
}

/// Exists only because `e2e_trace/src/adapter.rs`, a benchmark file this
/// workspace may not edit, builds its certifier by this name and calls the
/// two methods below; `_shards` (always 1 there) and `_parallel` selected a
/// partitioning and an execution mode that are gone. ROADMAP item 4(e)
/// lists it for deletion with the next edit there.
#[doc(hidden)]
pub struct AnyCertifier(Certifier);

#[doc(hidden)]
impl AnyCertifier {
    pub fn new(replicas: Vec<ReplicaId>, _shards: usize, _parallel: bool) -> Self {
        AnyCertifier(Certifier::new(replicas))
    }

    /// One [`Certifier::step`] over `reqs`, its outputs regrouped per
    /// request: each decision with the refreshes sent ahead of it, in
    /// membership order. A refused request fails the call.
    pub fn certify_batch(
        &mut self,
        reqs: Vec<CertifyRequest>,
    ) -> Result<Vec<(CertifyDecision, Vec<Refresh>)>> {
        let (mut answers, mut refreshes) = (Vec::with_capacity(reqs.len()), Vec::new());
        for (_, delivery) in self.0.step(reqs.into_iter().map(Input::Certify))?.out {
            match delivery {
                Delivery::Refresh(refresh) => refreshes.push(refresh),
                Delivery::Decision(CertifyDecision::Refused { reason, .. }) => {
                    return Err(Error::Protocol(reason));
                }
                Delivery::Decision(decision) => {
                    answers.push((decision, std::mem::take(&mut refreshes)));
                }
                Delivery::GlobalCommit(_) => unreachable!("only requests were stepped"),
            }
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bargain_common::{IdemKey, TableId, Value, WriteOp};

    fn replicas(n: u32) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId).collect()
    }

    fn ws(table: u32, key: i64) -> WriteSet {
        rows(&[(table, key)])
    }

    /// A writeset over explicit `(table, key)` pairs.
    fn rows(rows: &[(u32, i64)]) -> WriteSet {
        let mut w = WriteSet::new();
        for &(table, key) in rows {
            w.push(
                TableId(table),
                Value::Int(key),
                WriteOp::Update(vec![Value::Int(key)]),
            );
        }
        w
    }

    fn req(txn: u64, replica: u32, snapshot: u64, w: WriteSet) -> CertifyRequest {
        CertifyRequest {
            txn: TxnId(txn),
            replica: ReplicaId(replica),
            snapshot: Version(snapshot),
            writeset: w,
            idem: None,
        }
    }

    fn keyed(mut r: CertifyRequest, client: u64, seq: u64) -> CertifyRequest {
        r.idem = Some(IdemKey { client, seq });
        r
    }

    /// One request's answer as a host sends it: the decision (to the
    /// request's origin) and the refreshes ahead of it, each with its
    /// addressee.
    type Answer = (CertifyDecision, Vec<(ReplicaId, Refresh)>);

    /// Steps `c` over `inputs` — the one way these tests reach it — and
    /// regroups what it sent: each request's answer, in request order, and
    /// the global commits, each with its addressee. On the way it checks
    /// that every decision goes to its request's origin.
    fn step(
        c: &mut Certifier,
        inputs: impl IntoIterator<Item = Input>,
    ) -> (Vec<Answer>, Vec<(ReplicaId, TxnId)>) {
        let inputs: Vec<Input> = inputs.into_iter().collect();
        let origins: Vec<ReplicaId> = inputs
            .iter()
            .filter_map(|input| match input {
                Input::Certify(req) => Some(req.replica),
                _ => None,
            })
            .collect();
        let (mut answers, mut globals, mut refreshes) = (Vec::new(), Vec::new(), Vec::new());
        for (to, delivery) in c.step(inputs).expect("the memory log flushes").out {
            match delivery {
                Delivery::Refresh(refresh) => refreshes.push((to, refresh)),
                Delivery::Decision(decision) => {
                    assert_eq!(Some(&to), origins.get(answers.len()), "{decision:?}");
                    answers.push((decision, std::mem::take(&mut refreshes)));
                }
                Delivery::GlobalCommit(txn) => globals.push((to, txn)),
            }
        }
        assert!(refreshes.is_empty(), "refreshes after the last decision");
        assert_eq!(answers.len(), origins.len(), "one decision per request");
        (answers, globals)
    }

    /// One request through [`step`].
    fn certify(c: &mut Certifier, req: CertifyRequest) -> Answer {
        let (mut answers, globals) = step(c, [Input::Certify(req)]);
        assert!(globals.is_empty());
        answers.pop().expect("one request, one answer")
    }

    /// One input other than a request through [`step`]: the global commits
    /// it completed, each addressed to its origin.
    fn report(c: &mut Certifier, input: Input) -> Vec<(ReplicaId, TxnId)> {
        let (answers, globals) = step(c, [input]);
        assert!(answers.is_empty());
        globals
    }

    fn applied(replica: u32, version: Version) -> Input {
        let replica = ReplicaId(replica);
        Input::Applied { replica, version }
    }

    fn hello(replica: u32, v_local: u64) -> Input {
        let (replica, v_local) = (ReplicaId(replica), Version(v_local));
        Input::Hello { replica, v_local }
    }

    fn join(replica: u32) -> Input {
        let replica = ReplicaId(replica);
        Input::Join {
            replica,
            after: Version::ZERO,
        }
    }

    fn leave(replica: u32) -> Input {
        let replica = ReplicaId(replica);
        Input::Leave { replica }
    }

    /// The addressees of an answer's refreshes, in the order sent.
    fn addressees(refreshes: &[(ReplicaId, Refresh)]) -> Vec<ReplicaId> {
        refreshes.iter().map(|(to, _)| *to).collect()
    }

    fn commit_version(decision: &CertifyDecision) -> Version {
        match decision {
            CertifyDecision::Commit { commit_version, .. } => *commit_version,
            other => panic!("should commit: {other:?}"),
        }
    }

    #[test]
    fn commit_assigns_increasing_versions() {
        let mut c = Certifier::new(replicas(3));
        let (d1, r1) = certify(&mut c, req(1, 0, 0, ws(0, 1)));
        let (d2, r2) = certify(&mut c, req(2, 1, 0, ws(0, 2)));
        assert_eq!(
            d1,
            CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(1)
            }
        );
        assert_eq!(
            d2,
            CertifyDecision::Commit {
                txn: TxnId(2),
                commit_version: Version(2)
            }
        );
        // Refreshes go to all replicas except the origin, in membership
        // order.
        assert_eq!(addressees(&r1), [ReplicaId(1), ReplicaId(2)]);
        assert_eq!(addressees(&r2), [ReplicaId(0), ReplicaId(2)]);
        assert!(r1.iter().all(|(_, r)| r.commit_version == Version(1)));
        assert_eq!(c.version(), Version(2));
    }

    #[test]
    fn conflict_after_snapshot_aborts() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 5))); // commits at v1
                                                 // Same row, snapshot v0 (before v1): conflict.
        let (d, r) = certify(&mut c, req(2, 1, 0, ws(0, 5)));
        assert_eq!(
            d,
            CertifyDecision::Abort {
                txn: TxnId(2),
                conflicting_version: Version(1)
            }
        );
        assert!(r.is_empty());
        assert_eq!(c.version(), Version(1)); // no version consumed
    }

    #[test]
    fn abort_reports_newest_conflicting_version() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 5))); // v1 writes row 5
        certify(&mut c, req(2, 0, 1, ws(0, 5))); // v2 rewrites row 5
        certify(&mut c, req(3, 0, 2, ws(0, 9))); // v3, unrelated row
        let (d, _) = certify(&mut c, req(4, 1, 0, ws(0, 5)));
        assert_eq!(
            d,
            CertifyDecision::Abort {
                txn: TxnId(4),
                conflicting_version: Version(2)
            }
        );
    }

    #[test]
    fn no_conflict_when_snapshot_covers_commit() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 5))); // v1
                                                 // Snapshot v1 already saw the first commit: same row commits fine.
        let (d, _) = certify(&mut c, req(2, 1, 1, ws(0, 5)));
        assert!(matches!(d, CertifyDecision::Commit { .. }));
    }

    #[test]
    fn disjoint_rows_do_not_conflict() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        let (d, _) = certify(&mut c, req(2, 1, 0, ws(0, 2)));
        assert!(matches!(d, CertifyDecision::Commit { .. }));
        let (d, _) = certify(&mut c, req(3, 1, 0, ws(1, 1))); // same key, other table
        assert!(matches!(d, CertifyDecision::Commit { .. }));
    }

    #[test]
    fn batch_matches_sequential_certification() {
        let mut seq = Certifier::new(replicas(3));
        let mut bat = Certifier::new(replicas(3));
        let reqs = vec![
            req(1, 0, 0, ws(0, 1)),
            req(2, 1, 0, ws(0, 2)),
            req(3, 2, 0, ws(0, 1)), // conflicts with the first *in-batch* commit
            req(4, 0, 0, ws(1, 1)),
        ];
        let expected: Vec<_> = reqs.iter().map(|r| certify(&mut seq, r.clone())).collect();
        let (got, globals) = step(&mut bat, reqs.into_iter().map(Input::Certify));
        assert_eq!(expected, got);
        assert!(globals.is_empty());
        assert_eq!(seq.version(), bat.version());
        assert_eq!(seq.stats(), bat.stats());
        // The in-batch conflict really aborted.
        assert!(matches!(got[2].0, CertifyDecision::Abort { .. }));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut c = Certifier::new(replicas(2));
        let sent = c.step([]).unwrap();
        assert!(sent.out.is_empty() && sent.batches.is_empty());
        assert_eq!(c.version(), Version::ZERO);
    }

    #[test]
    fn eager_counts_all_replicas() {
        let mut c = Certifier::new(replicas(3));
        c.set_eager(true);
        let (d, _) = certify(&mut c, req(1, 1, 0, ws(0, 1)));
        let v = commit_version(&d);
        assert!(report(&mut c, applied(1, v)).is_empty()); // origin applied
        assert!(report(&mut c, applied(0, v)).is_empty());
        assert_eq!(report(&mut c, applied(2, v)), [(ReplicaId(1), TxnId(1))]);
        // Counter is consumed.
        assert!(report(&mut c, applied(2, v)).is_empty());
    }

    #[test]
    fn added_replica_receives_fanout_and_counts_toward_eager() {
        let mut c = Certifier::new(replicas(2));
        c.set_eager(true);
        // Before the join: fan-out to 1 target.
        let (_, r1) = certify(&mut c, req(1, 0, 0, ws(0, 1)));
        assert_eq!(addressees(&r1), [ReplicaId(1)]);
        assert!(report(&mut c, join(2)).is_empty());
        assert!(report(&mut c, join(2)).is_empty()); // idempotent
        assert_eq!(c.replicas.len(), 3);
        // After: fan-out to 2, and the eager quorum now includes the joiner.
        let (d, r2) = certify(&mut c, req(2, 0, 1, ws(0, 2)));
        assert_eq!(addressees(&r2), [ReplicaId(1), ReplicaId(2)]);
        let v = commit_version(&d);
        assert!(report(&mut c, applied(0, v)).is_empty());
        assert!(report(&mut c, applied(1, v)).is_empty());
        // The pre-join commit (v1) completes without the joiner's credit
        // only once the joiner replays it — which its catch-up does.
        assert_eq!(report(&mut c, applied(2, v)), [(ReplicaId(0), TxnId(2))]);
    }

    #[test]
    fn pre_join_eager_entry_completes_via_joiner_catchup_credit() {
        let mut c = Certifier::new(replicas(2));
        c.set_eager(true);
        let (d, _) = certify(&mut c, req(1, 0, 0, ws(0, 1)));
        let v = commit_version(&d);
        assert!(report(&mut c, applied(0, v)).is_empty());
        // Join lands between certification and the last apply report: the
        // entry now needs all three credits.
        assert!(report(&mut c, join(2)).is_empty());
        assert!(report(&mut c, applied(1, v)).is_empty());
        // The joiner's catch-up replay of v1 provides the final credit.
        assert_eq!(report(&mut c, applied(2, v)), [(ReplicaId(0), TxnId(1))]);
    }

    #[test]
    fn remove_replica_drops_credit_and_completes_blocked_entries() {
        let mut c = Certifier::new(replicas(3));
        c.set_eager(true);
        let (d, _) = certify(&mut c, req(1, 0, 0, ws(0, 1)));
        let v = commit_version(&d);
        // Replicas 0 and 1 applied; the entry waits only on replica 2.
        assert!(report(&mut c, applied(0, v)).is_empty());
        assert!(report(&mut c, applied(1, v)).is_empty());
        // Decommissioning replica 2 unblocks the global commit.
        assert_eq!(report(&mut c, leave(2)), [(ReplicaId(0), TxnId(1))]);
        assert_eq!(c.replicas, [ReplicaId(0), ReplicaId(1)]);
        // Unknown removal is a no-op.
        assert!(report(&mut c, leave(9)).is_empty());
        // New fan-out excludes the leaver.
        let (_, r) = certify(&mut c, req(2, 0, 1, ws(0, 2)));
        assert_eq!(addressees(&r), [ReplicaId(1)]);
    }

    #[test]
    fn remove_replica_completes_multiple_entries_in_version_order() {
        let mut c = Certifier::new(replicas(2));
        c.set_eager(true);
        let mut versions = Vec::new();
        for i in 1..=3u64 {
            let (d, _) = certify(&mut c, req(i, 0, i - 1, ws(0, i as i64)));
            versions.push(commit_version(&d));
        }
        for &v in &versions {
            assert!(report(&mut c, applied(0, v)).is_empty());
        }
        // Replica 1 leaves: all three entries complete, in version order.
        assert_eq!(
            report(&mut c, leave(1)),
            [
                (ReplicaId(0), TxnId(1)),
                (ReplicaId(0), TxnId(2)),
                (ReplicaId(0), TxnId(3)),
            ]
        );
    }

    #[test]
    fn eager_disabled_ignores_applied_reports() {
        let mut c = Certifier::new(replicas(2));
        let (d, _) = certify(&mut c, req(1, 0, 0, ws(0, 1)));
        let v = commit_version(&d);
        assert!(report(&mut c, applied(0, v)).is_empty());
        assert!(report(&mut c, applied(1, v)).is_empty());
    }

    #[test]
    fn prune_discards_old_history_but_rejects_stale_snapshots() {
        let mut c = Certifier::new(replicas(2));
        for i in 0..10 {
            certify(&mut c, req(i, 0, i, ws(0, i as i64)));
        }
        assert_eq!(c.history_len(), 10);
        c.prune(Version(5));
        assert_eq!(c.history_len(), 5);
        assert_eq!(c.stats().pruned, 5);
        // Snapshot below floor is refused, not mis-certified.
        let (d, r) = certify(&mut c, req(99, 0, 3, ws(0, 99)));
        assert!(matches!(d, CertifyDecision::Refused { .. }), "{d:?}");
        assert!(r.is_empty());
        // Snapshot at floor still works.
        let (d, _) = certify(&mut c, req(100, 0, 5, ws(1, 0)));
        assert!(matches!(d, CertifyDecision::Commit { .. }), "{d:?}");
    }

    #[test]
    fn conflict_detection_survives_pruning() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 1))); // v1
        certify(&mut c, req(2, 0, 1, ws(0, 2))); // v2
        c.prune(Version(1));
        // Snapshot v1, conflicting with v2's row: must still abort.
        let (d, _) = certify(&mut c, req(3, 1, 1, ws(0, 2)));
        assert_eq!(
            d,
            CertifyDecision::Abort {
                txn: TxnId(3),
                conflicting_version: Version(2)
            }
        );
    }

    #[test]
    fn prune_keeps_index_exact_for_rewritten_rows() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 7))); // v1 writes row 7
        certify(&mut c, req(2, 0, 1, ws(0, 7))); // v2 rewrites row 7
                                                 // Pruning v1 must NOT evict row 7: its last writer is v2, which is
                                                 // still retained.
        c.prune(Version(1));
        let (d, _) = certify(&mut c, req(3, 1, 1, ws(0, 7)));
        assert_eq!(
            d,
            CertifyDecision::Abort {
                txn: TxnId(3),
                conflicting_version: Version(2)
            }
        );
        // Pruning v2 as well finally clears the row.
        c.prune(Version(2));
        let (d, _) = certify(&mut c, req(4, 1, 2, ws(0, 7)));
        assert!(matches!(d, CertifyDecision::Commit { .. }));
    }

    #[test]
    fn recovery_replays_log() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        certify(&mut c, req(2, 0, 1, ws(0, 2)));
        // Simulate crash: new certifier over the same (memory) log is not
        // possible here, so recover in place after clobbering state.
        let recovered = c.recover().unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(c.version(), Version(2));
        // Conflict checking works against recovered history.
        let (d, _) = certify(&mut c, req(3, 1, 0, ws(0, 1)));
        assert!(matches!(d, CertifyDecision::Abort { .. }));
    }

    #[test]
    fn certified_since_returns_exactly_the_missed_suffix() {
        let mut c = Certifier::new(replicas(2));
        for i in 1..=5u64 {
            certify(&mut c, req(i, 0, i - 1, ws(0, i as i64)));
        }
        let missed = c.certified_since(Version(3)).unwrap();
        assert_eq!(missed.len(), 2);
        assert_eq!(missed[0].commit_version, Version(4));
        assert_eq!(missed[1].commit_version, Version(5));
        assert!(c.certified_since(Version(5)).unwrap().is_empty());
        assert_eq!(c.certified_since(Version::ZERO).unwrap().len(), 5);
    }

    #[test]
    fn certified_since_ring_and_log_paths_agree() {
        let mut c = Certifier::new(replicas(2));
        for i in 1..=6u64 {
            certify(&mut c, req(i, 0, i - 1, ws(0, i as i64)));
        }
        c.prune(Version(3)); // floor = 3: history holds v4..v6
                             // In-ring request: served from memory.
        let ring = c.certified_since(Version(4)).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].commit_version, Version(5));
        assert_eq!(ring[1].commit_version, Version(6));
        // Below-floor request: falls back to log replay, still exact.
        let deep = c.certified_since(Version(1)).unwrap();
        assert_eq!(deep.len(), 5);
        assert_eq!(deep[0].commit_version, Version(2));
        assert_eq!(deep[4].commit_version, Version(6));
        // The two paths produce identical records on the overlap.
        assert_eq!(&deep[3..], &ring[..]);
    }

    #[test]
    fn log_records_carry_origin() {
        let mut c = Certifier::new(replicas(3));
        certify(&mut c, req(1, 2, 0, ws(0, 1)));
        let recs = c.certified_since(Version::ZERO).unwrap();
        assert_eq!(recs[0].origin, ReplicaId(2));
        assert_eq!(recs[0].txn, TxnId(1));
    }

    #[test]
    fn eager_recovery_rebuilds_pending_and_hellos_complete_them() {
        let mut c = Certifier::new(replicas(3));
        c.set_eager(true);
        // v1 from replica 0, applied everywhere and globally committed
        // before the crash; v2 from replica 1, applied only at replicas 0,1.
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        certify(&mut c, req(2, 1, 1, ws(0, 2)));
        c.recover().unwrap();
        // All replicas were at v2 except replica 2, which reached only v1.
        assert!(report(&mut c, hello(0, 2)).is_empty());
        assert!(report(&mut c, hello(1, 2)).is_empty());
        // v1 completes (already globally committed pre-crash: the host
        // drops the re-notification); v2 still waits for replica 2.
        assert_eq!(report(&mut c, hello(2, 1)), [(ReplicaId(0), TxnId(1))]);
        // Replica 2 later applies v2 via refresh and reports it.
        assert_eq!(
            report(&mut c, applied(2, Version(2))),
            [(ReplicaId(1), TxnId(2))]
        );
    }

    #[test]
    fn duplicate_applied_reports_and_hellos_are_idempotent() {
        let mut c = Certifier::new(replicas(3));
        c.set_eager(true);
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        // The same replica reporting twice counts once.
        assert!(report(&mut c, applied(0, Version(1))).is_empty());
        assert!(report(&mut c, applied(0, Version(1))).is_empty());
        // A hello from a replica that already reported adds nothing.
        assert!(report(&mut c, hello(0, 1)).is_empty());
        assert!(report(&mut c, applied(1, Version(1))).is_empty());
        // Only the genuinely missing third replica completes it.
        assert_eq!(
            report(&mut c, applied(2, Version(1))),
            [(ReplicaId(0), TxnId(1))]
        );
    }

    #[test]
    fn hello_in_lazy_mode_is_a_no_op() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        c.recover().unwrap();
        assert!(report(&mut c, hello(0, 1)).is_empty());
        assert!(report(&mut c, hello(1, 1)).is_empty());
    }

    #[test]
    fn retry_of_committed_txn_is_answered_with_original_outcome() {
        let mut c = Certifier::new(replicas(2));
        let (d, _) = certify(&mut c, keyed(req(1, 0, 0, ws(0, 1)), 42, 0));
        assert_eq!(
            d,
            CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(1)
            }
        );
        // The retry executes on another replica under a different TxnId but
        // carries the same key: no new version, no refreshes, original
        // outcome echoed.
        let (d, r) = certify(&mut c, keyed(req(9, 1, 1, ws(0, 1)), 42, 0));
        assert_eq!(
            d,
            CertifyDecision::Duplicate {
                txn: TxnId(9),
                original: TxnId(1),
                commit_version: Version(1)
            }
        );
        assert!(r.is_empty());
        assert_eq!(c.version(), Version(1));
        assert_eq!(c.stats().duplicates, 1);
        assert_eq!(c.stats().commits, 1);
    }

    #[test]
    fn aborted_original_leaves_no_dedup_entry() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, ws(0, 5))); // v1 writes row 5
                                                 // Keyed request conflicts and aborts: no dedup entry.
        let (d, _) = certify(&mut c, keyed(req(2, 1, 0, ws(0, 5)), 7, 3));
        assert!(matches!(d, CertifyDecision::Abort { .. }));
        // The client's retry (fresh snapshot) certifies normally.
        let (d, _) = certify(&mut c, keyed(req(3, 1, 1, ws(0, 5)), 7, 3));
        assert_eq!(
            d,
            CertifyDecision::Commit {
                txn: TxnId(3),
                commit_version: Version(2)
            }
        );
    }

    #[test]
    fn any_in_window_seq_dedups_not_just_the_newest() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, keyed(req(1, 0, 0, ws(0, 1)), 5, 0));
        certify(&mut c, keyed(req(2, 0, 1, ws(0, 2)), 5, 1));
        // Retrying the current seq dedups...
        let (d, _) = certify(&mut c, keyed(req(3, 1, 2, ws(0, 2)), 5, 1));
        assert!(matches!(d, CertifyDecision::Duplicate { .. }));
        // ...and so does an *older* in-window seq — a pipelined client
        // replaying its whole in-doubt window after a reconnect presents
        // exactly this: seq 0 after seq 1 was already certified.
        let (d, _) = certify(&mut c, keyed(req(4, 1, 2, ws(0, 1)), 5, 0));
        assert_eq!(
            d,
            CertifyDecision::Duplicate {
                txn: TxnId(4),
                original: TxnId(1),
                commit_version: Version(1)
            }
        );
    }

    #[test]
    fn seqs_evicted_from_the_dedup_window_are_rejected() {
        let mut c = Certifier::new(replicas(2));
        // DEDUP_WINDOW + 1 keyed commits on distinct rows: seq 0 falls off
        // the window.
        for i in 0..=(DEDUP_WINDOW as u64) {
            certify(&mut c, keyed(req(i + 1, 0, i, ws(0, i as i64)), 9, i));
        }
        // The newest window's worth still dedups (oldest surviving entry).
        let window = DEDUP_WINDOW as u64;
        let (d, _) = certify(&mut c, keyed(req(200, 1, window, ws(0, 1)), 9, 1));
        assert!(matches!(d, CertifyDecision::Duplicate { .. }));
        // Seq 0 was evicted: exactly-once is unprovable, replay refused.
        let (d, r) = certify(&mut c, keyed(req(201, 1, window, ws(0, 0)), 9, 0));
        assert!(
            matches!(&d, CertifyDecision::Refused { txn: TxnId(201), reason }
                if reason.contains("stale idempotency key")),
            "unexpected decision: {d:?}"
        );
        assert!(r.is_empty());
    }

    #[test]
    fn dedup_map_survives_recovery() {
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, keyed(req(1, 0, 0, ws(0, 1)), 11, 4));
        c.recover().unwrap();
        let (d, _) = certify(&mut c, keyed(req(2, 1, 1, ws(0, 1)), 11, 4));
        assert_eq!(
            d,
            CertifyDecision::Duplicate {
                txn: TxnId(2),
                original: TxnId(1),
                commit_version: Version(1)
            }
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Certifier::new(replicas(3));
        certify(&mut c, req(1, 0, 0, ws(0, 1)));
        certify(&mut c, req(2, 0, 0, ws(0, 1))); // abort
        let s = c.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.refreshes_sent, 2);
    }

    #[test]
    fn empty_writeset_commits_and_stays_dense() {
        let mut c = Certifier::new(replicas(2));
        let (d, _) = certify(&mut c, req(1, 0, 0, WriteSet::new()));
        assert_eq!(
            d,
            CertifyDecision::Commit {
                txn: TxnId(1),
                commit_version: Version(1)
            }
        );
        certify(&mut c, req(2, 0, 1, ws(3, 9)));
        // The vacuous commit is logged like any other, so the log stays
        // dense and recovery keeps everything.
        assert_eq!(c.recover().unwrap(), 2);
        assert_eq!(c.version(), Version(2));
        let recs = c.certified_since(Version::ZERO).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].writeset.is_empty());
    }

    #[test]
    fn recovery_refuses_a_log_that_is_not_dense() {
        // v1, v3: no crash of an append-only log produces this, so it is
        // corruption, and cutting at the gap would drop an announced v3.
        let mut log = MemoryLog::new();
        for v in [1, 3] {
            log.append(&LogRecord {
                commit_version: Version(v),
                txn: TxnId(v),
                origin: ReplicaId(0),
                idem: None,
                writeset: Arc::new(ws(0, v as i64)),
            })
            .unwrap();
        }
        let mut c = Certifier::with_log(replicas(2), Box::new(log));
        let err = c.recover().unwrap_err();
        assert!(
            matches!(&err, Error::Codec(m) if m.contains("not dense") && m.contains("v3")),
            "unexpected error: {err}"
        );
        assert_eq!(c.version(), Version::ZERO, "nothing half-installed");
    }

    #[test]
    fn eager_enabled_after_recovery_finds_every_commit_pending() {
        // `Certifier::open` recovers before the host knows to call
        // `set_eager`: the flag's order against recovery must not matter.
        let mut c = Certifier::new(replicas(2));
        certify(&mut c, req(1, 0, 0, rows(&[(0, 1), (1, 1)])));
        certify(&mut c, req(2, 1, 1, ws(1, 2)));
        c.recover().unwrap();
        c.set_eager(true);
        assert!(report(&mut c, hello(0, 2)).is_empty());
        assert_eq!(
            report(&mut c, hello(1, 2)),
            [(ReplicaId(0), TxnId(1)), (ReplicaId(1), TxnId(2))]
        );
    }

    fn certifies(reqs: Vec<CertifyRequest>) -> Vec<Input> {
        reqs.into_iter().map(Input::Certify).collect()
    }

    #[test]
    fn step_cuts_runs_at_the_cap_and_at_every_other_input() {
        let mut c = Certifier::new(replicas(3));
        let mut inputs = certifies((1..=65).map(|i| req(i, 0, 0, ws(0, i as i64))).collect());
        inputs.push(Input::Leave {
            replica: ReplicaId(2),
        });
        inputs.extend(certifies(vec![req(66, 1, 0, ws(0, 66))]));
        let step = c.step(inputs).unwrap();
        assert_eq!(step.batches, [MAX_CERTIFY_BATCH, 1, 1]);
        // 65 commits reach both other members, the one after the leave one.
        assert_eq!(step.out.len(), 65 * 3 + 2);
        let tail: Vec<_> = step.out[195..]
            .iter()
            .map(|(to, d)| (*to, matches!(d, Delivery::Refresh(_))))
            .collect();
        assert_eq!(tail, [(ReplicaId(0), true), (ReplicaId(1), false)]);
    }

    #[test]
    fn step_refuses_a_request_to_its_origin_alone() {
        let mut c = Certifier::new(replicas(2));
        let inputs = certifies(vec![
            req(1, 0, 0, ws(0, 1)),
            req(2, 1, 7, ws(0, 1)), // a snapshot from the future
            req(3, 0, 0, ws(0, 3)),
        ]);
        let out = c.step(inputs).unwrap().out;
        // One refresh per commit, each ahead of its decision; the refusal
        // sends nothing else, and the others are decided as if it were not
        // there.
        let commit = |txn, v| {
            Delivery::Decision(CertifyDecision::Commit {
                txn: TxnId(txn),
                commit_version: Version(v),
            })
        };
        assert_eq!(out.len(), 5);
        assert!(matches!(out[0], (ReplicaId(1), Delivery::Refresh(_))));
        assert_eq!(out[1], (ReplicaId(0), commit(1, 1)));
        assert!(
            matches!(&out[2], (ReplicaId(1), Delivery::Decision(CertifyDecision::Refused { txn: TxnId(2), reason }))
                if reason.contains("in the future")),
            "{out:?}"
        );
        assert_eq!(out[4], (ReplicaId(0), commit(3, 2)));
        assert_eq!(c.stats().commits, 2);
    }

    #[test]
    fn open_lays_out_one_wal_file_and_recovers_it() {
        let dir = std::env::temp_dir().join(format!("bargain-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Certifier::open(replicas(2), Some(&dir)).unwrap();
        certify(&mut c, req(1, 0, 0, rows(&[(0, 1), (1, 1)])));
        drop(c);
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, ["certifier.wal"]);
        let c = Certifier::open(replicas(2), Some(&dir)).unwrap();
        assert_eq!(c.version(), Version(1));
        std::fs::remove_dir_all(&dir).unwrap();
        // Without a directory: in memory, nothing to recover.
        let c = Certifier::open(replicas(2), None).unwrap();
        assert_eq!(c.version(), Version::ZERO);
    }

    #[test]
    fn open_refuses_a_directory_written_with_several_shards() {
        // What a `shards: 4` deployment of an older build left behind: no
        // flat `certifier.wal`, the commits under `shard-i/`. Starting empty
        // beside them would reassign their commit versions.
        let dir = std::env::temp_dir().join(format!("bargain-open-n4-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        std::fs::write(dir.join("shard-0").join("certifier.wal"), b"").unwrap();
        let err = Certifier::open(replicas(2), Some(&dir))
            .err()
            .expect("refused");
        let msg = err.to_string();
        assert!(matches!(err, Error::Io(_)), "unexpected error: {msg}");
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        assert!(msg.contains("shard-0"), "{msg}");
        assert!(!dir.join("certifier.wal").exists(), "nothing created");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
