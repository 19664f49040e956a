//! Consistent engine snapshots: the storage half of replica elasticity.
//!
//! A snapshot is a checkpoint of one engine at its current version `V`:
//! the catalog (schemas + each index's columns) plus every row's version chain,
//! pruned to the *live snapshot horizon* — versions no open transaction on
//! the donor can still observe are not shipped ([`VersionChain::gc`] runs
//! on a clone of each chain before encoding). A joining replica imports
//! the snapshot, replays `certified_since(V)` to close the gap, and is
//! then bit-equivalent to any other replica at the same version.
//!
//! # Format
//!
//! The snapshot is a **manifest** plus a sequence of **chunks**. The
//! chunks are one logical byte stream split at `chunk_bytes` boundaries,
//! each independently CRC32-checksummed in the manifest, so a receiver
//! can verify chunks incrementally as they arrive off the wire and
//! re-request exactly the chunk that was torn or corrupted.
//!
//! Everything is little-endian; strings, values, counted sequences and
//! options are [`bargain_common::codec`]'s, as in the certifier's log and
//! on the wire:
//!
//! ```text
//! manifest:  "BSNP" | u16 format version (2)
//!            | u64 snapshot version | u64 gc horizon
//!            | u32 n_tables | table meta*
//!            | u32 n_chunks | u32 crc32 per chunk
//!            | u64 total stream bytes
//!            | u32 crc32 of all preceding manifest bytes
//! table meta: string name | u32 n_columns
//!            | (string name | u8 type tag | u8 nullable)*
//!            | u32 pk column | u32 n_indexes | (u32 n_columns | u32 column*)*
//!            (format 1, still read: u32 n_indexed | u32 indexed column*,
//!            one column per index)
//! stream:    per table, in id order:
//!            u64 n_keys | (value key | u32 n_versions | version*)*
//! version:   u64 begin | u8 has_data [| u32 n_cols | value*]
//!            (oldest first, so import replays installs in commit order)
//! ```

use crate::chain::{RowVersion, VersionChain};
use crate::engine::Engine;
use crate::schema::{Column, ColumnType, TableSchema};
use crate::table::Table;
use bargain_common::codec::{malformed, put_seq, Codec, DecodeResult, Reader};
pub use bargain_common::crc32;
use bargain_common::{Error, Result, Value, Version};

/// Default chunk size: comfortably under the wire's frame cap while big
/// enough that header/syscall overhead amortizes.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Per-table metadata shipped in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// The table's schema.
    pub schema: TableSchema,
    /// Each secondary index's columns (rebuilt on import).
    pub indexes: Vec<Vec<usize>>,
}

/// Describes one snapshot: what version it captures and how to verify the
/// chunk stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotManifest {
    /// The engine version the snapshot captures (`V`): the joiner replays
    /// the certified log strictly after this version.
    pub version: Version,
    /// The GC horizon chains were pruned to (the donor's oldest live
    /// snapshot at export time).
    pub horizon: Version,
    /// Table metadata in id order.
    pub tables: Vec<TableMeta>,
    /// CRC32 (IEEE) of each chunk, in order.
    pub chunk_checksums: Vec<u32>,
    /// Total bytes across all chunks.
    pub total_bytes: u64,
}

/// A complete exported snapshot: manifest + chunk stream.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The manifest.
    pub manifest: SnapshotManifest,
    /// The data chunks, each `<= chunk_bytes` long.
    pub chunks: Vec<Vec<u8>>,
}

// ----------------------------------------------------------------------
// Manifest codec
// ----------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"BSNP";
const FORMAT_VERSION: u16 = 2;

impl Codec for Column {
    fn put(&self, buf: &mut Vec<u8>) {
        self.name.put(buf);
        buf.push(match self.ty {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Text => 2,
        });
        self.nullable.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Column {
            name: r.get()?,
            ty: match r.get::<u8>()? {
                0 => ColumnType::Int,
                1 => ColumnType::Float,
                2 => ColumnType::Text,
                t => return Err(malformed(format!("bad column type tag {t}"))),
            },
            nullable: r.get()?,
        })
    }
}

impl Codec for TableMeta {
    fn put(&self, buf: &mut Vec<u8>) {
        self.schema.name.put(buf);
        self.schema.columns.put(buf);
        (self.schema.pk as u32).put(buf);
        let indexes: Vec<Vec<u32>> = self
            .indexes
            .iter()
            .map(|columns| columns.iter().map(|&c| c as u32).collect())
            .collect();
        indexes.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let schema = get_schema(r)?;
        let indexes: Vec<Vec<u32>> = r.get()?;
        Ok(TableMeta {
            schema,
            indexes: indexes
                .into_iter()
                .map(|columns| columns.into_iter().map(|c| c as usize).collect())
                .collect(),
        })
    }
}

/// A table meta's schema part, the same in both formats.
fn get_schema(r: &mut Reader<'_>) -> DecodeResult<TableSchema> {
    let name: String = r.get()?;
    let columns = r.get()?;
    let pk = r.get::<u32>()? as usize;
    TableSchema::new(&name, columns, pk)
        .map_err(|e| malformed(format!("bad schema for {name}: {e}")))
}

/// Format 1's table metas: one column per index.
fn get_tables_v1(r: &mut Reader<'_>) -> DecodeResult<Vec<TableMeta>> {
    (0..r.count()?)
        .map(|_| {
            let schema = get_schema(r)?;
            let indexed: Vec<u32> = r.get()?;
            let indexes = indexed.into_iter().map(|c| vec![c as usize]).collect();
            Ok(TableMeta { schema, indexes })
        })
        .collect()
}

impl Codec for RowVersion {
    fn put(&self, buf: &mut Vec<u8>) {
        self.begin.put(buf);
        self.data.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(RowVersion {
            begin: r.get()?,
            data: r.get()?,
        })
    }
}

impl SnapshotManifest {
    /// Encodes the manifest (self-checksummed: the final u32 is the CRC32
    /// of everything before it).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(MAGIC);
        FORMAT_VERSION.put(&mut buf);
        self.version.put(&mut buf);
        self.horizon.put(&mut buf);
        self.tables.put(&mut buf);
        self.chunk_checksums.put(&mut buf);
        self.total_bytes.put(&mut buf);
        crc32(&buf).put(&mut buf);
        buf
    }

    /// Decodes and verifies a manifest (magic, format version, trailing
    /// self-CRC).
    pub fn decode(bytes: &[u8]) -> Result<SnapshotManifest> {
        if bytes.len() < 4 + 2 + 4 {
            return Err(Error::Codec("snapshot manifest too short".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let expect: u32 = Reader::new(crc_bytes).get()?;
        let got = crc32(body);
        if got != expect {
            return Err(Error::Codec(format!(
                "snapshot manifest checksum mismatch: stored {expect:#010x}, computed {got:#010x}"
            )));
        }
        let mut r = Reader::new(body);
        Self::decode_body(&mut r)
            .and_then(|manifest| r.finish().map(|()| manifest))
            .map_err(|e| Error::Codec(format!("snapshot manifest: {e}")))
    }

    fn decode_body(r: &mut Reader<'_>) -> DecodeResult<SnapshotManifest> {
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(malformed(format!("bad magic {magic:02x?}")));
        }
        let fv: u16 = r.get()?;
        if fv != 1 && fv != FORMAT_VERSION {
            return Err(malformed(format!("unsupported format version {fv}")));
        }
        Ok(SnapshotManifest {
            version: r.get()?,
            horizon: r.get()?,
            tables: if fv == 1 { get_tables_v1(r)? } else { r.get()? },
            chunk_checksums: r.get()?,
            total_bytes: r.get()?,
        })
    }

    /// Verifies one arrived chunk against its manifest checksum. The wire
    /// and simulator call this per chunk so a torn or corrupted chunk is
    /// rejected (and re-requested) the moment it lands, not at the end of
    /// the transfer.
    pub fn verify_chunk(&self, index: usize, chunk: &[u8]) -> Result<()> {
        let expect = *self.chunk_checksums.get(index).ok_or_else(|| {
            Error::Codec(format!(
                "snapshot chunk {index} out of range ({} chunks)",
                self.chunk_checksums.len()
            ))
        })?;
        let got = crc32(chunk);
        if got != expect {
            return Err(Error::Codec(format!(
                "snapshot chunk {index} checksum mismatch: stored {expect:#010x}, \
                 computed {got:#010x}"
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Export
// ----------------------------------------------------------------------

/// Exports a consistent snapshot of `engine` at its current version.
///
/// Each row's version chain is cloned and pruned with [`VersionChain::gc`]
/// to the donor's oldest live snapshot before encoding — history nobody
/// can observe any more is not shipped (and a fresh joiner opens no
/// transaction below `V` anyway). The byte stream is split into chunks of
/// at most `chunk_bytes` (min 1), each checksummed in the manifest.
#[must_use]
pub fn export(engine: &Engine, chunk_bytes: usize) -> Snapshot {
    let version = engine.version();
    let horizon = engine.min_active_snapshot().unwrap_or(version);
    let mut tables = Vec::new();
    let mut stream = Vec::new();
    for (id, _) in engine.catalog().iter() {
        let table = engine.table(id).expect("catalog table exists");
        tables.push(TableMeta {
            schema: table.schema().clone(),
            indexes: table.index_columns(),
        });
        // Count keys that survive pruning first (dead tombstone chains
        // drop out entirely).
        let mut pruned: Vec<(&Value, VersionChain)> = Vec::new();
        for (key, chain) in table.chains() {
            let mut c = chain.clone();
            c.gc(horizon);
            if !c.is_empty() {
                pruned.push((key, c));
            }
        }
        (pruned.len() as u64).put(&mut stream);
        for (key, chain) in pruned {
            key.put(&mut stream);
            // Oldest first: import replays installs in commit order.
            put_seq(&mut stream, chain.versions().rev());
        }
    }
    let chunk_bytes = chunk_bytes.max(1);
    let total_bytes = stream.len() as u64;
    let mut chunks = Vec::new();
    let mut chunk_checksums = Vec::new();
    for chunk in stream.chunks(chunk_bytes) {
        chunk_checksums.push(crc32(chunk));
        chunks.push(chunk.to_vec());
    }
    Snapshot {
        manifest: SnapshotManifest {
            version,
            horizon,
            tables,
            chunk_checksums,
            total_bytes,
        },
        chunks,
    }
}

// ----------------------------------------------------------------------
// Import
// ----------------------------------------------------------------------

/// Rebuilds an engine from a manifest and its chunks.
///
/// Every chunk is verified against its manifest checksum first
/// ([`Error::Codec`] on any mismatch — the caller re-fetches the bad
/// chunk) and the manifest's stream length against what was delivered;
/// then the catalog, data, and secondary indexes are rebuilt and the
/// engine's version is set to the manifest's snapshot version.
pub fn import(manifest: &SnapshotManifest, chunks: &[Vec<u8>]) -> Result<Engine> {
    if chunks.len() != manifest.chunk_checksums.len() {
        return Err(Error::Codec(format!(
            "snapshot: {} chunks delivered, manifest expects {}",
            chunks.len(),
            manifest.chunk_checksums.len()
        )));
    }
    for (i, chunk) in chunks.iter().enumerate() {
        manifest.verify_chunk(i, chunk)?;
    }
    // `total_bytes` is the donor's word; what was delivered is counted.
    let delivered: usize = chunks.iter().map(Vec::len).sum();
    if delivered as u64 != manifest.total_bytes {
        return Err(Error::Codec(format!(
            "snapshot: stream is {delivered} bytes, manifest expects {}",
            manifest.total_bytes
        )));
    }
    let stream = chunks.concat();

    let mut engine = Engine::new();
    let mut r = Reader::new(&stream);
    install_tables(&mut engine, manifest, &mut r)
        .and_then(|()| r.finish())
        .map_err(|e| Error::Codec(format!("snapshot stream, byte {}: {e}", r.position())))?;
    engine.set_version(manifest.version);
    Ok(engine)
}

/// Builds every table of `manifest` from the chains it reads off `r` and
/// adds it to `engine`. The stream is checked for what a table assumes
/// and [`export`] guarantees: keys ascending, versions ascending within a
/// key, and every row fitting the schema (width, types, nulls) under the
/// key it is shipped with.
fn install_tables(
    engine: &mut Engine,
    manifest: &SnapshotManifest,
    r: &mut Reader<'_>,
) -> DecodeResult<()> {
    for meta in &manifest.tables {
        let schema = &meta.schema;
        let table = &schema.name;
        for columns in &meta.indexes {
            if !(1..=2).contains(&columns.len()) {
                return Err(malformed(format!(
                    "an index of {table} over {} columns",
                    columns.len()
                )));
            }
            if let Some(col) = columns.iter().find(|&&c| c >= schema.arity()) {
                return Err(malformed(format!(
                    "indexed column {col} out of range for {table}"
                )));
            }
        }
        let n_keys: u64 = r.get()?;
        let mut chains: Vec<(Value, VersionChain)> = Vec::new();
        for _ in 0..n_keys {
            let key: Value = r.get()?;
            let versions: Vec<RowVersion> = r.get()?;
            let bad = |what: String| malformed(format!("key {key} of {table}{what}"));
            if versions.is_empty() {
                return Err(bad(" has no versions".into()));
            }
            if chains.last().is_some_and(|(last, _)| *last >= key)
                || versions.windows(2).any(|w| w[0].begin >= w[1].begin)
            {
                return Err(bad(" is out of order".into()));
            }
            for row in versions.iter().filter_map(|v| v.data.as_ref()) {
                if let Err(e) = schema.check_row(row) {
                    return Err(bad(format!(": row width or type: {e}")));
                }
                if row[schema.pk] != key {
                    return Err(bad(format!(": row's key is {}", row[schema.pk])));
                }
            }
            chains.push((key, VersionChain::from_oldest_first(versions)));
        }
        let built = Table::from_chains(schema.clone(), chains, &meta.indexes);
        engine
            .add_table(built)
            .map_err(|e| malformed(format!("cannot recreate table: {e}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TxnHandle;
    use crate::schema::{Column, ColumnType, TableSchema};
    use bargain_common::{Row, TableId, Value, WriteOp, WriteSet};

    fn row(id: i64, v: i64) -> Row {
        vec![Value::Int(id), Value::Int(v)].into()
    }

    fn seeded_engine() -> (Engine, TableId) {
        let mut e = Engine::new();
        let t = e
            .create_table(
                TableSchema::new(
                    "acct",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("bal", ColumnType::Int),
                    ],
                    0,
                )
                .unwrap(),
            )
            .unwrap();
        e.create_index(t, "bal").unwrap();
        e.load_rows(t, (1..=8).map(|i| row(i, 100)).collect())
            .unwrap();
        // Build some version history: updates at v1..v4, a delete at v5,
        // a re-insert at v6.
        for v in 1..=4u64 {
            let mut ws = WriteSet::new();
            ws.push(
                TableId(0),
                Value::Int(1),
                WriteOp::Update(row(1, 100 + v as i64)),
            );
            e.apply_refresh(&ws, Version(v)).unwrap();
        }
        let mut del = WriteSet::new();
        del.push(TableId(0), Value::Int(2), WriteOp::Delete);
        e.apply_refresh(&del, Version(5)).unwrap();
        let mut ins = WriteSet::new();
        ins.push(TableId(0), Value::Int(9), WriteOp::Insert(row(9, 900)));
        e.apply_refresh(&ins, Version(6)).unwrap();
        (e, t)
    }

    /// The canonical equality check: same visible rows at the snapshot
    /// version, same schema, same indexes.
    fn assert_equivalent(a: &Engine, b: &Engine, t: TableId) {
        assert_eq!(a.version(), b.version());
        let at = a.table(t).unwrap();
        let bt = b.table(t).unwrap();
        assert_eq!(at.schema(), bt.schema());
        let av: Vec<_> = at.scan_at(a.version()).collect();
        let bv: Vec<_> = bt.scan_at(b.version()).collect();
        assert_eq!(av, bv);
        assert_eq!(at.index_columns(), bt.index_columns());
    }

    #[test]
    fn round_trip_preserves_state_and_version() {
        let (e, t) = seeded_engine();
        let snap = export(&e, DEFAULT_CHUNK_BYTES);
        assert_eq!(snap.manifest.version, Version(6));
        let imported = import(&snap.manifest, &snap.chunks).unwrap();
        assert_equivalent(&e, &imported, t);
        // The deleted key reads absent; the re-inserted key reads live.
        let bt = imported.table(t).unwrap();
        assert_eq!(bt.get(&Value::Int(2), Version(6)), None);
        assert_eq!(bt.get(&Value::Int(9), Version(6)), Some(&row(9, 900)));
    }

    #[test]
    fn imported_engine_continues_the_version_sequence() {
        let (e, t) = seeded_engine();
        let snap = export(&e, DEFAULT_CHUNK_BYTES);
        let mut imported = import(&snap.manifest, &snap.chunks).unwrap();
        // certified_since(V) replay: the next version applies cleanly.
        let mut ws = WriteSet::new();
        ws.push(t, Value::Int(3), WriteOp::Update(row(3, 333)));
        imported.apply_refresh(&ws, Version(7)).unwrap();
        assert_eq!(imported.version(), Version(7));
        let bt = imported.table(t).unwrap();
        assert_eq!(bt.get(&Value::Int(3), Version(7)), Some(&row(3, 333)));
    }

    #[test]
    fn manifest_round_trips() {
        let (e, _) = seeded_engine();
        let snap = export(&e, 64);
        let bytes = snap.manifest.encode();
        let back = SnapshotManifest::decode(&bytes).unwrap();
        assert_eq!(back, snap.manifest);
    }

    #[test]
    fn manifest_corruption_rejected() {
        let (e, _) = seeded_engine();
        let snap = export(&e, 64);
        let mut bytes = snap.manifest.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = SnapshotManifest::decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "got {err:?}");
    }

    #[test]
    fn corrupt_chunk_rejected_with_its_index() {
        let (e, _) = seeded_engine();
        let mut snap = export(&e, 64);
        assert!(snap.chunks.len() > 2, "want a multi-chunk stream");
        snap.chunks[1][0] ^= 0xFF;
        let err = import(&snap.manifest, &snap.chunks).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("chunk 1") && text.contains("checksum"),
            "error should name the torn chunk: {text}"
        );
        // Per-chunk verification isolates the bad chunk.
        assert!(snap.manifest.verify_chunk(0, &snap.chunks[0]).is_ok());
        assert!(snap.manifest.verify_chunk(1, &snap.chunks[1]).is_err());
    }

    #[test]
    fn missing_chunk_rejected() {
        let (e, _) = seeded_engine();
        let snap = export(&e, 64);
        let short = &snap.chunks[..snap.chunks.len() - 1];
        assert!(import(&snap.manifest, short).is_err());
    }

    /// `total_bytes` is the donor's word. Reserved as read, this manifest —
    /// its CRC valid — killed the test process at the parent commit:
    /// `memory allocation of 70368744177664 bytes failed`.
    #[test]
    fn manifest_that_lies_about_total_bytes_is_an_error_not_a_reservation() {
        let snap = export(&Engine::new(), DEFAULT_CHUNK_BYTES);
        let mut lying = snap.manifest.clone();
        lying.total_bytes = 1 << 46;
        let manifest = SnapshotManifest::decode(&lying.encode()).expect("the CRC holds");
        let err = import(&manifest, &snap.chunks).unwrap_err();
        let text = err.to_string();
        assert!(
            matches!(err, Error::Codec(_))
                && text.contains("is 0 bytes")
                && text.contains("70368744177664"),
            "the error should name both numbers: {text}"
        );
        let (e, _) = seeded_engine();
        let mut snap = export(&e, 64);
        snap.manifest.total_bytes += 1;
        assert!(matches!(
            import(&snap.manifest, &snap.chunks),
            Err(Error::Codec(_))
        ));
    }

    /// A stream the decoder accepts can still break what the install paths
    /// assume — versions in commit order, each key once, rows as wide as
    /// the schema (an index reads `row[column]`). Behind valid checksums
    /// each is an error, not a panic.
    #[test]
    fn streams_that_break_install_order_or_row_width_are_errors() {
        let (e, _) = seeded_engine();
        let manifest = export(&e, DEFAULT_CHUNK_BYTES).manifest;
        let version = |begin, data| RowVersion {
            begin: Version(begin),
            data,
        };
        // What is wrong with the stream, and what the error calls it.
        type Keys = Vec<(i64, Vec<RowVersion>)>;
        let cases: [(&str, &str, Keys); 6] = [
            ("no versions", "no versions", vec![(1, vec![])]),
            (
                "versions descending",
                "out of order",
                vec![(1, vec![version(2, Some(row(1, 1))), version(1, None)])],
            ),
            (
                "a key twice",
                "out of order",
                vec![
                    (1, vec![version(1, Some(row(1, 1)))]),
                    (1, vec![version(2, Some(row(1, 2)))]),
                ],
            ),
            (
                "a row narrower than the indexed column",
                "row width",
                vec![(1, vec![version(1, Some(vec![Value::Int(1)].into()))])],
            ),
            (
                "a value of the wrong type",
                "row width or type",
                vec![(
                    1,
                    vec![version(
                        1,
                        Some(vec![Value::Int(1), Value::Text("x".into())].into()),
                    )],
                )],
            ),
            (
                "a row shipped under another key",
                "row's key is 2",
                vec![(1, vec![version(1, None), version(2, Some(row(2, 1)))])],
            ),
        ];
        for (what, named, keys) in cases {
            let mut stream = Vec::new();
            (keys.len() as u64).put(&mut stream);
            for (key, versions) in keys {
                Value::Int(key).put(&mut stream);
                versions.put(&mut stream);
            }
            let mut manifest = manifest.clone();
            manifest.chunk_checksums = vec![crc32(&stream)];
            manifest.total_bytes = stream.len() as u64;
            match import(&manifest, &[stream]) {
                Err(Error::Codec(text)) => assert!(text.contains(named), "{what}: {text}"),
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn export_prunes_to_live_horizon() {
        let (e, t) = seeded_engine();
        // No open transactions: horizon == version, so key 1 keeps only
        // its newest version and key 2's dead tombstone chain vanishes.
        let snap = export(&e, DEFAULT_CHUNK_BYTES);
        assert_eq!(snap.manifest.horizon, Version(6));
        let imported = import(&snap.manifest, &snap.chunks).unwrap();
        let bt = imported.table(t).unwrap();
        assert_eq!(bt.key_count(), 8); // 9 keys - deleted key 2
                                       // Only the visible image of key 1 shipped.
        let chain_len: usize = bt
            .chains()
            .filter(|(k, _)| **k == Value::Int(1))
            .map(|(_, c)| c.len())
            .sum();
        assert_eq!(chain_len, 1);
        assert_equivalent(&e, &imported, t);
    }

    #[test]
    fn export_respects_open_snapshot_horizon() {
        let (mut e, t) = seeded_engine();
        // A reader pinned at v0 forces full history to ship.
        let reader = e.begin_at(Version::ZERO);
        let snap = export(&e, DEFAULT_CHUNK_BYTES);
        assert_eq!(snap.manifest.horizon, Version::ZERO);
        let imported = import(&snap.manifest, &snap.chunks).unwrap();
        let bt = imported.table(t).unwrap();
        // Key 1's full chain (load + 4 updates) survives, and old
        // snapshots still read the original image.
        assert_eq!(bt.get(&Value::Int(1), Version::ZERO), Some(&row(1, 100)));
        assert_eq!(bt.get(&Value::Int(1), Version(6)), Some(&row(1, 104)));
        assert_eq!(bt.get(&Value::Int(2), Version(4)), Some(&row(2, 100)));
        assert_eq!(bt.get(&Value::Int(2), Version(6)), None);
        e.abort(reader).ok();
    }

    /// Snapshot format 2 of a two-table engine -- a nullable text column, a
    /// float column, a one-column and a two-column secondary index, and
    /// under an open reader an update history and a tombstone -- printed by
    /// the build that last changed the format on purpose: the manifest,
    /// then the stream cut into 48-byte chunks. Exporting the engine must
    /// give exactly these bytes, and these bytes must import to exactly
    /// that engine.
    const GOLDEN_MANIFEST: &str = "\
        42534e50020002000000000000000000000000000000020000000400000061636374020000000200\
        0000696400000300000062616c000000000000010000000100000001000000040000006974656d03\
        000000040000006e6f74650201040000006e616d6502000500000070726963650100010000000100\
        0000020000000000000002000000050000007154d35337799c590ecdb1e1d3994b06154b75c5ed00\
        0000000000009a4b5850";
    /// The same engine without its two-column index, as format 1 wrote it:
    /// it must still import, to the same engine. The stream is the same.
    const GOLDEN_MANIFEST_V1: &str = "\
        42534e50010002000000000000000000000000000000020000000400000061636374020000000200\
        0000696400000300000062616c0000000000000100000001000000040000006974656d0300000004\
        0000006e6f74650201040000006e616d650200050000007072696365010001000000000000000500\
        00007154d35337799c590ecdb1e1d3994b06154b75c5ed0000000000000092eefc46";
    const GOLDEN_CHUNKS: [&str; 5] = [
        "030000000000000001010000000000000002000000000000000000000001020000000101000000000000000164000000",
        "000000000100000000000000010200000001010000000000000001650000000000000001020000000000000002000000",
        "0000000000000000010200000001020000000000000001c8000000000000000100000000000000000103000000000000",
        "000100000002000000000000000102000000010300000000000000012c01000000000000010000000000000003060000",
        "0068c3a96c6c6f010000000000000000000000010300000000030600000068c3a96c6c6f0200000000000004c0",
    ];

    /// The golden engine, with or without its two-column index, and the
    /// open reader holding its history.
    fn golden_engine(two_column: bool) -> (Engine, [TableId; 2], TxnHandle) {
        let mut e = Engine::new();
        let acct = e
            .create_table(
                TableSchema::new(
                    "acct",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("bal", ColumnType::Int),
                    ],
                    0,
                )
                .unwrap(),
            )
            .unwrap();
        e.create_index(acct, "bal").unwrap();
        let item = e
            .create_table(
                TableSchema::new(
                    "item",
                    vec![
                        Column::nullable("note", ColumnType::Text),
                        Column::new("name", ColumnType::Text),
                        Column::new("price", ColumnType::Float),
                    ],
                    1,
                )
                .unwrap(),
            )
            .unwrap();
        if two_column {
            e.create_index_on(item, &["note", "price"]).unwrap();
        }
        e.load_rows(acct, vec![row(1, 100), row(2, 200)]).unwrap();
        e.load_rows(
            item,
            vec![vec![
                Value::Null,
                Value::Text("héllo".into()),
                Value::Float(-2.5),
            ]],
        )
        .unwrap();
        let reader = e.begin_at(Version::ZERO);
        let mut ws = WriteSet::new();
        ws.push(acct, Value::Int(1), WriteOp::Update(row(1, 101)));
        ws.push(acct, Value::Int(2), WriteOp::Delete);
        e.apply_refresh(&ws, Version(1)).unwrap();
        let mut ws = WriteSet::new();
        ws.push(acct, Value::Int(3), WriteOp::Insert(row(3, 300)));
        e.apply_refresh(&ws, Version(2)).unwrap();
        (e, [acct, item], reader)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `manifest` and the golden chunks import to exactly `e`: the same
    /// tables, indexes and every shipped version.
    fn assert_golden_import(e: &Engine, tables: [TableId; 2], manifest: &SnapshotManifest) {
        assert_eq!(
            (manifest.version, manifest.horizon),
            (Version(2), Version::ZERO)
        );
        let pinned: Vec<Vec<u8>> = GOLDEN_CHUNKS.iter().map(|c| unhex(c)).collect();
        let imported = import(manifest, &pinned).unwrap();
        for t in tables {
            assert_equivalent(e, &imported, t);
            let indexes = |e: &Engine| e.table(t).unwrap().indexes().to_vec();
            assert_eq!(indexes(e), indexes(&imported));
            let chains = |e: &Engine| -> Vec<(Value, VersionChain)> {
                let table = e.table(t).unwrap();
                table
                    .chains()
                    .map(|(k, c)| (k.clone(), c.clone()))
                    .collect()
            };
            assert_eq!(chains(e), chains(&imported), "every shipped version");
        }
    }

    #[test]
    fn golden_snapshot_is_pinned() {
        let (mut e, tables, reader) = golden_engine(true);
        let snap = export(&e, 48);
        assert_eq!(hex(&snap.manifest.encode()), GOLDEN_MANIFEST);
        let chunks: Vec<String> = snap.chunks.iter().map(|c| hex(c)).collect();
        assert_eq!(chunks, GOLDEN_CHUNKS);

        let manifest = SnapshotManifest::decode(&unhex(GOLDEN_MANIFEST)).unwrap();
        assert_eq!(manifest, snap.manifest);
        assert_golden_import(&e, tables, &manifest);
        e.abort(reader).unwrap();
    }

    #[test]
    fn golden_format_1_snapshot_still_imports() {
        let (mut e, tables, reader) = golden_engine(false);
        let manifest = SnapshotManifest::decode(&unhex(GOLDEN_MANIFEST_V1)).unwrap();
        assert_eq!(manifest, export(&e, 48).manifest);
        assert_golden_import(&e, tables, &manifest);
        e.abort(reader).unwrap();
    }

    #[test]
    fn empty_engine_round_trips() {
        let e = Engine::new();
        let snap = export(&e, DEFAULT_CHUNK_BYTES);
        assert_eq!(snap.manifest.version, Version::ZERO);
        assert!(snap.chunks.is_empty());
        let imported = import(&snap.manifest, &snap.chunks).unwrap();
        assert_eq!(imported.version(), Version::ZERO);
        assert!(imported.catalog().is_empty());
    }

    #[test]
    fn single_byte_chunks_still_round_trip() {
        let (e, t) = seeded_engine();
        let snap = export(&e, 1);
        assert_eq!(snap.chunks.len() as u64, snap.manifest.total_bytes);
        let imported = import(&snap.manifest, &snap.chunks).unwrap();
        assert_equivalent(&e, &imported, t);
    }
}
