//! Spans kept in memory while the trace runs and written to `trace.json`
//! when it ends.

use std::borrow::Cow;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. A transaction's own span has `parent` `None`; the
/// span of a call made for it names the transaction as its parent.
pub struct Span {
    /// Layer and call (`sql.exec`), or the template of a client request.
    pub name: Cow<'static, str>,
    /// Connection, for a client span of the live round.
    pub conn: Option<usize>,
    /// The transaction's sequence number on its connection or in the replay.
    pub seq: u64,
    /// `Some(seq)` for a call made on behalf of transaction `seq`.
    pub parent: Option<u64>,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

/// Times the calls made for one transaction of the inline replay.
pub struct Recorder<'a> {
    spans: &'a mut Vec<Span>,
    seq: u64,
}

impl<'a> Recorder<'a> {
    /// A recorder for transaction `seq`.
    pub fn new(spans: &'a mut Vec<Span>, seq: u64) -> Recorder<'a> {
        Recorder { spans, seq }
    }

    /// Runs `call` and records it as a child span of the transaction.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            conn: None,
            seq: self.seq,
            parent: Some(self.seq),
            start,
            end,
        });
        out
    }
}

/// Writes one JSON object per section, each an array of spans with times
/// in µs since `origin`.
pub fn write_json(
    path: &Path,
    header: &str,
    origin: Instant,
    sections: &[(&str, &[Span])],
) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{{header}")?;
    for (section, spans) in sections {
        write!(w, ",\n\"{section}\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(w, "{sep}{{\"name\": \"{}\", ", s.name)?;
            if let Some(conn) = s.conn {
                write!(w, "\"conn\": {conn}, ")?;
            }
            write!(w, "\"seq\": {}, ", s.seq)?;
            if let Some(parent) = s.parent {
                write!(w, "\"parent\": {parent}, ")?;
            }
            write!(
                w,
                "\"start_us\": {:.3}, \"end_us\": {:.3}}}",
                us(s.start),
                us(s.end)
            )?;
        }
        write!(w, "\n]")?;
    }
    writeln!(w, "}}")?;
    w.flush()
}
