//! The certifier fast-path benchmarks backing `BENCH_certifier.json`.
//!
//! Three families, matching the three legs of the certifier hot path:
//!
//! - `certify_history_*` — certification throughput as the retained
//!   conflict-check history deepens (1k / 10k / 100k committed writesets).
//!   The indexed certifier probes O(|writeset|) rows regardless of depth;
//!   the pre-index linear scan degraded with history length.
//! - `fanout_*` — a single certify producing the refresh fan-out for
//!   4 / 16 / 64 replicas with a 32-row writeset. `Arc`'d writesets make
//!   the fan-out O(1) refcount bumps instead of O(replicas × |writeset|)
//!   deep clones.
//! - `wal_*` — durable append cost, one record per fsync vs. one fsync per
//!   64-record group commit.
//!
//! Run with `cargo bench -p bargain-bench --bench certifier_hot_path`.

use bargain_common::{ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::certifier::{Input, Step};
use bargain_core::{Certifier, CertifyRequest};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A single-row writeset updating `key`.
fn ws_one(key: i64) -> WriteSet {
    let mut w = WriteSet::new();
    w.push(
        TableId(0),
        Value::Int(key),
        WriteOp::Update(vec![Value::Int(key), Value::Int(0)]),
    );
    w
}

/// An `n`-row writeset updating keys `start..start + n`.
fn ws_n(start: i64, n: i64) -> WriteSet {
    let mut w = WriteSet::new();
    for k in start..start + n {
        w.push(
            TableId(0),
            Value::Int(k),
            WriteOp::Update(vec![Value::Int(k), Value::Int(0)]),
        );
    }
    w
}

fn req(txn: i64, snapshot: Version, writeset: WriteSet) -> CertifyRequest {
    CertifyRequest {
        txn: TxnId(txn as u64),
        replica: ReplicaId(0),
        snapshot,
        writeset,
        idem: None,
    }
}

/// One step over `reqs`, the certifier's one way in: one group commit of up
/// to 64 requests.
fn certify(cert: &mut Certifier, reqs: impl IntoIterator<Item = CertifyRequest>) -> Step {
    cert.step(reqs.into_iter().map(Input::Certify)).unwrap()
}

/// Certify throughput against a fixed-depth conflict-check history: each
/// iteration commits one fresh row with the *oldest* admissible snapshot
/// (the full retained history is in its conflict window), then prunes one
/// version to hold the depth constant.
fn bench_certify_vs_history_depth(c: &mut Criterion) {
    for depth in [1_000u64, 10_000, 100_000] {
        c.bench_function(&format!("certifier/certify_history_{depth}"), |b| {
            let mut cert = Certifier::new(vec![ReplicaId(0), ReplicaId(1)]);
            let mut key = 0i64;
            for _ in 0..depth {
                key += 1;
                let snapshot = cert.version();
                certify(&mut cert, [req(key, snapshot, ws_one(key))]);
            }
            b.iter(|| {
                key += 1;
                let snapshot = Version(cert.version().0 - depth);
                let out = certify(&mut cert, [req(key, snapshot, ws_one(key))]);
                cert.prune(Version(cert.version().0 - depth));
                black_box(out)
            })
        });
    }
}

/// One certify producing the full refresh fan-out: how much does a commit
/// cost as the cluster widens? (32-row writeset; history held at zero so
/// the conflict check itself is negligible.)
fn bench_refresh_fanout(c: &mut Criterion) {
    for replicas in [4u32, 16, 64] {
        c.bench_function(&format!("certifier/fanout_{replicas}replicas_ws32"), |b| {
            let mut cert = Certifier::new((0..replicas).map(ReplicaId).collect());
            let mut key = 0i64;
            b.iter(|| {
                key += 32;
                let snapshot = cert.version();
                let out = certify(&mut cert, [req(key, snapshot, ws_n(key, 32))]);
                cert.prune(cert.version());
                black_box(out.out.len())
            })
        });
    }
}

/// Durable append: one fsync per record.
fn bench_wal_append_single(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bargain-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    c.bench_function("certifier/wal_append_single_x64", |b| {
        let path = dir.join("single.wal");
        let _ = std::fs::remove_file(&path);
        let mut cert = Certifier::with_log(
            vec![ReplicaId(0), ReplicaId(1)],
            Box::new(bargain_core::FileLog::open(&path).unwrap()),
        );
        let mut key = 0i64;
        b.iter(|| {
            // 64 certifications, each forcing its own record to disk.
            for _ in 0..64 {
                key += 1;
                let snapshot = cert.version();
                black_box(certify(&mut cert, [req(key, snapshot, ws_one(key))]));
            }
            cert.prune(cert.version());
        });
        let _ = std::fs::remove_file(&path);
    });
}

/// Durable append, group commit: the same 64 certifications as
/// `wal_append_single_x64`, but certified as one batch sharing one fsync.
fn bench_wal_append_batch(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bargain-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    c.bench_function("certifier/wal_append_batch_x64", |b| {
        let path = dir.join("batch.wal");
        let _ = std::fs::remove_file(&path);
        let mut cert = Certifier::with_log(
            vec![ReplicaId(0), ReplicaId(1)],
            Box::new(bargain_core::FileLog::open(&path).unwrap()),
        );
        let mut key = 0i64;
        b.iter(|| {
            let reqs: Vec<CertifyRequest> = (0..64)
                .map(|_| {
                    key += 1;
                    req(key, cert.version(), ws_one(key))
                })
                .collect();
            black_box(certify(&mut cert, reqs));
            cert.prune(cert.version());
        });
        let _ = std::fs::remove_file(&path);
    });
}

criterion_group!(
    benches,
    bench_certify_vs_history_depth,
    bench_refresh_fanout,
    bench_wal_append_single,
    bench_wal_append_batch
);
criterion_main!(benches);
