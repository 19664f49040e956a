//! The inline stage replay: the workload's first transactions pushed
//! single-threaded through the layers' public functions (see
//! `adapter.rs`), which gives each layer's own cost with no thread
//! handoff, queue or socket in it.

use crate::adapter::{Replay, WAL_BATCH};
use crate::spans::{Recorder, Span};
use bargain_common::ClientId;
use bargain_e2e::stats::median;
use bargain_e2e::workloads::Spec;
use bargain_workloads::ClientContext;
use std::collections::BTreeMap;
use std::path::Path;

/// Transactions replayed.
pub const TRANSACTIONS: u64 = 20_000;

fn micros(span: &Span) -> f64 {
    (span.end - span.start).as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Replays connection 0's stream and reduces the spans to metrics: for
/// each stage the median, over the transactions that run it, of the time
/// the stage took in one transaction. `inline.total_us` is the median of
/// each transaction's total over the stages on its path (the `storage.*`
/// replays are beside the path: `sql.exec` already contains them), so the
/// stage medians need not add up to it.
pub fn replay(spec: &Spec, seed: u64, scratch: &Path) -> (Vec<(String, f64)>, Vec<Span>) {
    let mut layers = Replay::new(spec.workload.as_ref());
    let mut ctx = ClientContext::new(seed, ClientId(0));
    let mut spans: Vec<Span> = Vec::new();
    let (mut request_bytes, mut reply_bytes, mut writeset_bytes) =
        (Vec::new(), Vec::new(), Vec::new());
    for seq in 0..TRANSACTIONS {
        let txn = spec.next(&mut ctx, 0);
        let facts = layers.run(txn, &mut Recorder::new(&mut spans, seq));
        request_bytes.push(facts.request_bytes as f64);
        reply_bytes.push(facts.reply_bytes as f64);
        writeset_bytes.extend(facts.writeset_bytes.map(|b| b as f64));
    }

    // stage -> transaction -> µs
    let mut stages: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
    let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
    for span in &spans {
        *stages
            .entry(&span.name)
            .or_default()
            .entry(span.seq)
            .or_default() += micros(span);
        if !span.name.starts_with("storage.") {
            *totals.entry(span.seq).or_default() += micros(span);
        }
    }
    let mut out: Vec<(String, f64)> = stages
        .iter()
        .map(|(stage, per_txn)| {
            let values: Vec<f64> = per_txn.values().copied().collect();
            (format!("{stage}_us"), median(&values))
        })
        .collect();
    out.push((
        "inline.total_us".into(),
        median(&totals.values().copied().collect::<Vec<f64>>()),
    ));
    out.push(("net.codec.request_bytes".into(), mean(&request_bytes)));
    out.push(("net.codec.reply_bytes".into(), mean(&reply_bytes)));
    if !writeset_bytes.is_empty() {
        out.push(("common.writeset.bytes".into(), mean(&writeset_bytes)));
    }

    let mut wal_spans = Vec::new();
    if let Some(wal) = layers.wal(scratch, &mut wal_spans) {
        let of = |name: &str| -> Vec<f64> {
            wal_spans
                .iter()
                .filter(|s| s.name == name)
                .map(micros)
                .collect()
        };
        out.push((
            "core.wal.append_flush_us".into(),
            median(&of("core.wal.append_flush")),
        ));
        out.push((
            "core.wal.append_flush_b16_us".into(),
            median(&of("core.wal.append_flush_b16")) / WAL_BATCH as f64,
        ));
        out.push(("core.wal.bytes_per_commit".into(), wal.bytes_per_commit));
    }
    spans.extend(wal_spans);
    (out, spans)
}
