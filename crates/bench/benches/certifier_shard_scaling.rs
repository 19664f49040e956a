//! Shard-count scaling benchmarks backing `BENCH_shards.json`.
//!
//! Two families over the certifier at N ∈ {1, 2, 4, 8} shards:
//!
//! - `shards/mem_n{N}_cross{P}` — pure certification CPU: a 256-txn batch
//!   over 8 tables against N ∈ {1, 2, 4, 8} shards with P% of the batch
//!   cross-partition (each cross txn writes two tables on different
//!   shards). N=1 is the single-certifier baseline; the delta isolates
//!   the partition-map and multi-shard handshake overhead.
//! - `shards/wal_n{N}_x64` — durable group commit: a 64-txn batch where
//!   each involved shard forces its own `FileLog`, flushed in parallel
//!   (one thread per dirty shard). More shards = more, smaller fsyncs —
//!   on one disk that costs about 2× at N = 4.
//!
//! Run with `cargo bench -p bargain-bench --bench certifier_shard_scaling`.

use bargain_common::{ReplicaId, TableId, TxnId, Value, Version, WriteOp, WriteSet};
use bargain_core::{Certifier, CertifyRequest, CommitLog, FileLog};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const TABLES: u32 = 8;

/// A writeset updating one fresh row of `tables.len()` tables.
fn ws(tables: &[u32], key: i64) -> WriteSet {
    let mut w = WriteSet::new();
    for &t in tables {
        w.push(
            TableId(t),
            Value::Int(key),
            WriteOp::Update(vec![Value::Int(key), Value::Int(0)]),
        );
    }
    w
}

/// A `batch`-sized request vector with `cross_pct`% two-table
/// cross-partition writesets, snapshots at the current version.
fn make_batch(
    next_key: &mut i64,
    snapshot: Version,
    batch: usize,
    cross_pct: usize,
) -> Vec<CertifyRequest> {
    (0..batch)
        .map(|i| {
            *next_key += 1;
            let t = (i as u32) % TABLES;
            // Adjacent tables land on different shards for every N > 1.
            let tables: &[u32] = if i * 100 < batch * cross_pct {
                &[t, (t + 1) % TABLES]
            } else {
                &[t]
            };
            CertifyRequest {
                txn: TxnId(*next_key as u64),
                replica: ReplicaId(0),
                snapshot,
                writeset: ws(tables, *next_key),
                idem: None,
            }
        })
        .collect()
}

/// In-memory certification throughput: shard counts × cross-partition mix.
fn bench_mem_scaling(c: &mut Criterion) {
    for n_shards in [1usize, 2, 4, 8] {
        for cross_pct in [0usize, 10, 50] {
            let name = format!("shards/mem_n{n_shards}_cross{cross_pct}_x256");
            c.bench_function(&name, |b| {
                let mut cert = Certifier::sharded(vec![ReplicaId(0), ReplicaId(1)], n_shards);
                let mut key = 0i64;
                b.iter(|| {
                    let reqs = make_batch(&mut key, cert.version(), 256, cross_pct);
                    black_box(cert.certify_batch(reqs).unwrap());
                    cert.prune(cert.version());
                })
            });
        }
    }
}

/// Durable group commit: each involved shard forces its own log, flushed in
/// parallel. Single-partition batch so every shard takes ~batch/N records.
fn bench_wal_scaling(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bargain-bench-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for n_shards in [1usize, 2, 4, 8] {
        let name = format!("shards/wal_n{n_shards}_x64");
        c.bench_function(&name, |b| {
            let logs: Vec<Box<dyn CommitLog>> = (0..n_shards)
                .map(|i| {
                    let path = dir.join(format!("shard-{n_shards}-{i}.wal"));
                    let _ = std::fs::remove_file(&path);
                    Box::new(FileLog::open(&path).unwrap()) as Box<dyn CommitLog>
                })
                .collect();
            let mut cert = Certifier::with_logs(vec![ReplicaId(0), ReplicaId(1)], logs);
            let mut key = 0i64;
            b.iter(|| {
                let reqs = make_batch(&mut key, cert.version(), 64, 0);
                black_box(cert.certify_batch(reqs).unwrap());
                cert.prune(cert.version());
            });
        });
        for i in 0..n_shards {
            let _ = std::fs::remove_file(dir.join(format!("shard-{n_shards}-{i}.wal")));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_mem_scaling, bench_wal_scaling);
criterion_main!(benches);
