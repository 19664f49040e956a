//! The storage engine: catalog + tables + transaction management.
//!
//! The engine is single-threaded by design (hosts wrap it in a lock or own
//! it inside one simulated replica); all methods take `&mut self` or `&self`
//! and there is no interior mutability.

use crate::schema::{Catalog, TableSchema};
use crate::table::Table;
use bargain_common::{
    Error, Result, Row, TableId, Value, Version, WriteOp, WriteSet, WriteSetEntry,
};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Handle to an open transaction. Obtained from [`Engine::begin`]; becomes
/// invalid after commit or abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle(u64);

#[derive(Debug)]
struct TxnState {
    snapshot: Version,
    /// The buffered writes, `None` until the first. [`Engine::take_writeset`]
    /// shares them, so the certify request and the local commit install
    /// the same row images.
    writes: Option<Arc<WriteSet>>,
}

/// What a transaction that has written nothing has written.
static NO_WRITES: WriteSet = WriteSet::new();

impl TxnState {
    fn writes(&self) -> &WriteSet {
        self.writes.as_deref().unwrap_or(&NO_WRITES)
    }

    fn push(&mut self, table: TableId, key: Value, op: WriteOp) {
        Arc::make_mut(self.writes.get_or_insert_default()).push(table, key, op);
    }
}

/// Counters the engine maintains; used by tests and the simulator's cost
/// model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Update transactions committed locally (client commits, not refresh).
    pub commits: u64,
    /// Transactions aborted (by the caller or by standalone validation).
    pub aborts: u64,
    /// Refresh writesets applied.
    pub refreshes_applied: u64,
    /// Rows examined: handed to a reader by [`Engine::visit`].
    pub reads: u64,
    /// Row images handed out to a reader: the stored image, shared, or
    /// the columns projected from it.
    pub copied: u64,
    /// Row writes buffered.
    pub writes: u64,
}

/// What [`Engine::visit`] walks.
#[derive(Debug, Clone, Copy)]
pub enum Access<'a> {
    /// The row with this primary key.
    Key(&'a Value),
    /// Rows whose indexed `column` lies in `[lo, hi]` (inclusive; `None` =
    /// unbounded), and possibly more: see [`Engine::visit`].
    Index {
        /// Position of the indexed column.
        column: usize,
        /// Lower bound.
        lo: Option<&'a Value>,
        /// Upper bound.
        hi: Option<&'a Value>,
    },
    /// Rows whose `group` column equals `value`, in order of the `order`
    /// column then primary key, descending if `desc`: a walk of the
    /// two-column index over `[group, order]`. Not for a transaction that
    /// has written the table (see [`Engine::wrote`]).
    Ordered {
        /// Positions of the group column and the order column.
        columns: [usize; 2],
        /// The group's value.
        value: &'a Value,
        /// Whether the walk runs from the highest order value down.
        desc: bool,
    },
    /// Every row.
    All,
}

/// Merges committed rows with the transaction's own writes, both in key
/// order: an own write stands in for the committed row of its key.
fn merge<'e>(
    committed: impl Iterator<Item = (&'e Value, &'e Row)>,
    own: &'e [WriteSetEntry],
    visit: &mut dyn FnMut(&'e Value, &'e Row) -> Result<ControlFlow<()>>,
) -> Result<()> {
    let mut own = own.iter().peekable();
    let mut committed = committed.peekable();
    loop {
        let own_next = match (own.peek(), committed.peek()) {
            (Some(e), Some((k, _))) => e.key <= **k,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return Ok(()),
        };
        let (key, row) = if own_next {
            let e = own.next().expect("peeked");
            committed.next_if(|(k, _)| **k == e.key);
            (&e.key, e.op.row())
        } else {
            let (k, row) = committed.next().expect("peeked");
            (k, Some(row))
        };
        if let Some(row) = row {
            if visit(key, row)?.is_break() {
                return Ok(());
            }
        }
    }
}

/// The multiversion storage engine one replica hosts.
#[derive(Debug)]
pub struct Engine {
    catalog: Catalog,
    tables: Vec<Table>,
    version: Version,
    txns: HashMap<u64, TxnState>,
    next_txn: u64,
    stats: EngineStats,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An empty engine at version 0 with an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            catalog: Catalog::new(),
            tables: Vec::new(),
            version: Version::ZERO,
            txns: HashMap::new(),
            next_txn: 0,
            stats: EngineStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Catalog and loading
    // ------------------------------------------------------------------

    /// Creates a table. DDL is not versioned (performed identically at every
    /// replica before transaction processing starts).
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId> {
        self.add_table(Table::new(schema))
    }

    /// Registers `table` under its schema's name, rows and indexes as they
    /// are (snapshot import builds its tables whole).
    pub(crate) fn add_table(&mut self, table: Table) -> Result<TableId> {
        let id = self.catalog.add_table(table.schema().clone())?;
        self.tables.push(table);
        Ok(id)
    }

    /// Creates a secondary index over `column` of `table` (by name),
    /// back-filling from existing data. Idempotent. Like table DDL, index
    /// DDL runs identically at every replica before transaction processing.
    pub fn create_index(&mut self, table: TableId, column: &str) -> Result<usize> {
        Ok(self.create_index_on(table, &[column])?[0])
    }

    /// Creates a secondary index over `columns` of `table` (by name): one
    /// column, or a group column then an order column. Returns their
    /// positions. Idempotent per column list; more columns than two, or
    /// none, or one the table lacks, are refused.
    pub fn create_index_on(&mut self, table: TableId, columns: &[&str]) -> Result<Vec<usize>> {
        let schema = self.catalog.schema(table)?;
        if !(1..=2).contains(&columns.len()) {
            return Err(Error::SchemaMismatch(format!(
                "{}: an index covers one or two columns, not {}",
                schema.name,
                columns.len()
            )));
        }
        let positions = columns
            .iter()
            .map(|column| schema.column_index(column))
            .collect::<Result<Vec<usize>>>()?;
        self.tables[table.index()].create_index_on(&positions);
        Ok(positions)
    }

    /// Whether a secondary index of `table` leads with `column` (by
    /// position).
    pub fn is_indexed(&self, table: TableId, column: usize) -> Result<bool> {
        self.catalog.schema(table)?;
        Ok(self.tables[table.index()].has_index(column))
    }

    /// Whether `table` has a secondary index over exactly `columns` (by
    /// position, in order).
    pub fn has_index_on(&self, table: TableId, columns: &[usize]) -> Result<bool> {
        self.catalog.schema(table)?;
        let indexes = self.tables[table.index()].indexes();
        Ok(indexes.iter().any(|i| i.columns() == columns))
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Resolves a table name.
    pub fn resolve_table(&self, name: &str) -> Result<TableId> {
        self.catalog.resolve(name)
    }

    /// Bulk-loads rows into a table at version 0, before transaction
    /// processing (initial database population). All or none: a bad row or
    /// a duplicate key refuses the batch and leaves the table as it was.
    /// The table is rebuilt in one pass from its own rows and the batch's,
    /// sorted by key. Rows given as [`Row`]s are stored as they are; any
    /// other form is copied into one.
    pub fn load_rows<R: Into<Row>>(&mut self, table: TableId, rows: Vec<R>) -> Result<()> {
        self.catalog.schema(table)?;
        self.tables[table.index()].load(rows.into_iter().map(Into::into).collect())
    }

    // ------------------------------------------------------------------
    // Versions
    // ------------------------------------------------------------------

    /// `V_local`: the newest commit version this engine has applied.
    #[must_use]
    pub fn version(&self) -> Version {
        self.version
    }

    /// Engine statistics.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begins a transaction reading the committed state at the engine's
    /// current version (the local snapshot, as in GSI).
    pub fn begin(&mut self) -> TxnHandle {
        self.begin_at(self.version)
    }

    /// Begins a transaction at an explicit snapshot version (must not exceed
    /// the engine's current version — a replica cannot serve a snapshot it
    /// has not reached).
    pub fn begin_at(&mut self, snapshot: Version) -> TxnHandle {
        assert!(
            snapshot <= self.version,
            "snapshot {snapshot} beyond local version {}",
            self.version
        );
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            id,
            TxnState {
                snapshot,
                writes: None,
            },
        );
        TxnHandle(id)
    }

    fn txn(&self, h: TxnHandle) -> Result<&TxnState> {
        self.txns
            .get(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))
    }

    fn txn_mut(&mut self, h: TxnHandle) -> Result<&mut TxnState> {
        self.txns
            .get_mut(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))
    }

    /// The writes the transaction has buffered so far ("partial writeset"),
    /// used by the proxy's early certification.
    pub fn partial_writeset(&self, h: TxnHandle) -> Result<&WriteSet> {
        Ok(self.txn(h)?.writes())
    }

    /// The full writeset, for shipping to the certifier at commit request
    /// time: shared with the transaction, not copied, so the certifier's
    /// record, the refreshes and the local commit hold the same rows.
    pub fn take_writeset(&self, h: TxnHandle) -> Result<Arc<WriteSet>> {
        Ok(self.txn(h)?.writes.clone().unwrap_or_default())
    }

    /// Whether the transaction has written `table` so far.
    pub fn wrote(&self, h: TxnHandle, table: TableId) -> Result<bool> {
        Ok(!self.txn(h)?.writes().table_entries(table).is_empty())
    }

    /// Whether the transaction is read-only so far.
    pub fn is_read_only(&self, h: TxnHandle) -> Result<bool> {
        Ok(self.txn(h)?.writes().is_empty())
    }

    /// Aborts a transaction, discarding its buffered writes.
    pub fn abort(&mut self, h: TxnHandle) -> Result<()> {
        self.txns
            .remove(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))?;
        self.stats.aborts += 1;
        Ok(())
    }

    /// Commits a read-only transaction (no version advance, no validation).
    pub fn commit_read_only(&mut self, h: TxnHandle) -> Result<()> {
        let state = self
            .txns
            .remove(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))?;
        if !state.writes().is_empty() {
            self.txns.insert(h.0, state);
            return Err(Error::Protocol(
                "commit_read_only on an update transaction".into(),
            ));
        }
        Ok(())
    }

    /// Commits an update transaction at the version assigned by the
    /// certifier. The caller (the proxy) is responsible for invoking commits
    /// and refresh applications in global order: `commit_version` must be
    /// exactly `self.version().next()`.
    pub fn commit_at(&mut self, h: TxnHandle, commit_version: Version) -> Result<()> {
        let state = self
            .txns
            .remove(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))?;
        if commit_version != self.version.next() {
            self.txns.insert(h.0, state);
            return Err(Error::Protocol(format!(
                "commit_at {commit_version} out of order (local version {})",
                self.version
            )));
        }
        self.apply_writes(state.writes(), commit_version);
        self.version = commit_version;
        self.stats.commits += 1;
        Ok(())
    }

    /// Standalone snapshot-isolation commit with first-committer-wins
    /// validation: aborts if any written row was overwritten by a
    /// transaction that committed after this transaction's snapshot.
    ///
    /// Returns the commit version on success. Read-only transactions commit
    /// without advancing the version.
    pub fn commit_standalone(&mut self, h: TxnHandle) -> Result<Version> {
        let state = self
            .txns
            .get(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))?;
        if state.writes().is_empty() {
            self.txns.remove(&h.0);
            return Ok(self.version);
        }
        // First-committer-wins validation.
        let conflict = state.writes().entries().iter().find_map(|e| {
            self.tables[e.table.index()]
                .latest_commit_of(&e.key)
                .filter(|latest| *latest > state.snapshot)
                .map(|latest| (e.table, e.key.clone(), latest, state.snapshot))
        });
        if let Some((table, key, latest, snapshot)) = conflict {
            self.txns.remove(&h.0);
            self.stats.aborts += 1;
            return Err(Error::CertificationConflict(format!(
                "row {table}/{key} written at {latest}, snapshot {snapshot}"
            )));
        }
        let state = self.txns.remove(&h.0).expect("checked above");
        let commit_version = self.version.next();
        self.apply_writes(state.writes(), commit_version);
        self.version = commit_version;
        self.stats.commits += 1;
        Ok(commit_version)
    }

    /// Applies a refresh writeset (a transaction committed at another
    /// replica) at its global commit version, which must be the next version
    /// locally.
    pub fn apply_refresh(&mut self, ws: &WriteSet, commit_version: Version) -> Result<()> {
        if commit_version != self.version.next() {
            return Err(Error::Protocol(format!(
                "refresh {commit_version} out of order (local version {})",
                self.version
            )));
        }
        self.apply_writes(ws, commit_version);
        self.version = commit_version;
        self.stats.refreshes_applied += 1;
        Ok(())
    }

    /// Installs each written row's image itself, shared, not a copy of it.
    fn apply_writes(&mut self, ws: &WriteSet, version: Version) {
        for e in ws.entries() {
            self.tables[e.table.index()].install(e.key.clone(), e.op.row().cloned(), version);
        }
    }

    /// The oldest snapshot any open transaction reads at, or `None` if no
    /// transaction is open. Lower-bounds what version history (here and at
    /// the certifier) must be retained.
    #[must_use]
    pub fn min_active_snapshot(&self) -> Option<Version> {
        self.txns.values().map(|t| t.snapshot).min()
    }

    // ------------------------------------------------------------------
    // Reads and writes (within a transaction)
    // ------------------------------------------------------------------

    /// Point read: the transaction's own uncommitted write wins, otherwise
    /// the committed image at the transaction's snapshot.
    pub fn get(&mut self, h: TxnHandle, table: TableId, key: &Value) -> Result<Option<Row>> {
        let mut found = None;
        self.visit(h, table, Access::Key(key), &mut |_, row| {
            found = Some(row.clone());
            Ok(ControlFlow::Break(()))
        })?;
        self.stats.copied += found.is_some() as u64;
        Ok(found)
    }

    /// The one read path: hands `visit` the rows of `table` visible to the
    /// transaction, in primary-key order, restricted as `access` says, until
    /// it breaks or fails. A row is the committed image at the
    /// transaction's snapshot unless the transaction wrote the key itself:
    /// its own insert or update replaces or adds the row, its own delete
    /// hides it.
    ///
    /// [`Access::Ordered`] hands out its rows in the order column's order
    /// instead, and refuses a transaction that has written the table: it
    /// has no key order to merge the transaction's writes by.
    ///
    /// [`Access::Index`] yields a *superset* of the rows in range: committed
    /// candidates are re-validated against the snapshot but not against the
    /// range, and every row the transaction wrote to the table is offered;
    /// the caller's filter prunes. Rows are lent, not copied, and may be
    /// kept for as long as the engine stays borrowed; whoever copies one
    /// says so with [`Engine::note_copied`].
    pub fn visit<'e>(
        &'e mut self,
        h: TxnHandle,
        table: TableId,
        access: Access<'_>,
        visit: &mut dyn FnMut(&'e Value, &'e Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.catalog.schema(table)?;
        let Engine {
            tables,
            txns,
            stats,
            ..
        } = self;
        let state = txns
            .get(&h.0)
            .ok_or_else(|| Error::NoSuchTransaction(format!("txn {}", h.0)))?;
        let t = &tables[table.index()];
        let writes = state.writes();
        let own = match access {
            Access::Key(k) => writes
                .row_entry(table, k)
                .map_or(&[][..], std::slice::from_ref),
            _ => writes.table_entries(table),
        };
        let snapshot = state.snapshot;
        let mut visit = |k, row| {
            stats.reads += 1;
            visit(k, row)
        };
        match access {
            Access::Key(k) => merge(t.get_at(k, snapshot).into_iter(), own, &mut visit),
            Access::Index { column, lo, hi } => {
                let candidates = t.index_candidates(column, lo, hi).ok_or_else(|| {
                    Error::SqlExecution(format!("{}: no index on column {column}", t.schema().name))
                })?;
                let visible = candidates.filter_map(|k| Some((k, t.get(k, snapshot)?)));
                merge(visible, own, &mut visit)
            }
            Access::Ordered {
                columns,
                value,
                desc,
            } => {
                let name = &t.schema().name;
                if !own.is_empty() {
                    return Err(Error::SqlExecution(format!(
                        "{name}: ordered walk of a table the transaction wrote"
                    )));
                }
                let rows = t.ordered_group(columns, value, snapshot).ok_or_else(|| {
                    Error::SqlExecution(format!("{name}: no index on columns {columns:?}"))
                })?;
                if desc {
                    merge(rows.rev(), own, &mut visit)
                } else {
                    merge(rows, own, &mut visit)
                }
            }
            Access::All => merge(t.scan_at(snapshot), own, &mut visit),
        }
    }

    /// Counts `rows` row images copied out of the engine by a reader.
    pub fn note_copied(&mut self, rows: usize) {
        self.stats.copied += rows as u64;
    }

    /// Full scan of rows visible to the transaction (committed snapshot
    /// overlaid with the transaction's own writes), in key order.
    pub fn scan(&mut self, h: TxnHandle, table: TableId) -> Result<Vec<(Value, Row)>> {
        let mut rows = Vec::new();
        self.visit(h, table, Access::All, &mut |k, row| {
            rows.push((k.clone(), row.clone()));
            Ok(ControlFlow::Continue(()))
        })?;
        self.stats.copied += rows.len() as u64;
        Ok(rows)
    }

    /// Inserts a new row. Fails with [`Error::DuplicateKey`] if the key is
    /// visible to this transaction (concurrent inserts of the same key are
    /// caught later by certification). A [`Row`] is stored as it is; any
    /// other form is copied into one.
    pub fn insert(&mut self, h: TxnHandle, table: TableId, row: impl Into<Row>) -> Result<()> {
        let row = row.into();
        let schema = self.catalog.schema(table)?.clone();
        schema.check_row(&row)?;
        let key = schema.key_of(&row);
        if self.sees(h, table, &key)? {
            return Err(Error::DuplicateKey(format!("{}: {key}", schema.name)));
        }
        self.stats.writes += 1;
        self.txn_mut(h)?.push(table, key, WriteOp::Insert(row));
        Ok(())
    }

    /// Replaces the row with primary key `key` by `row`. Fails if the row is
    /// not visible to the transaction. A [`Row`] is stored as it is; any
    /// other form is copied into one.
    pub fn update(
        &mut self,
        h: TxnHandle,
        table: TableId,
        key: &Value,
        row: impl Into<Row>,
    ) -> Result<()> {
        let row = row.into();
        let schema = self.catalog.schema(table)?.clone();
        schema.check_row(&row)?;
        if schema.key_of(&row) != *key {
            return Err(Error::SchemaMismatch(format!(
                "{}: update changes primary key {key}",
                schema.name
            )));
        }
        if !self.sees(h, table, key)? {
            return Err(Error::SqlExecution(format!(
                "{}: update of non-existent key {key}",
                schema.name
            )));
        }
        self.stats.writes += 1;
        self.txn_mut(h)?
            .push(table, key.clone(), WriteOp::Update(row));
        Ok(())
    }

    /// Deletes the row with primary key `key`. Fails if the row is not
    /// visible to the transaction.
    pub fn delete(&mut self, h: TxnHandle, table: TableId, key: &Value) -> Result<()> {
        self.catalog.schema(table)?;
        if !self.sees(h, table, key)? {
            return Err(Error::SqlExecution(format!(
                "delete of non-existent key {key}"
            )));
        }
        self.stats.writes += 1;
        self.txn_mut(h)?.push(table, key.clone(), WriteOp::Delete);
        Ok(())
    }

    /// Whether the transaction sees a row under `key`, its own writes
    /// included: the row is looked at where it is, not copied out.
    fn sees(&mut self, h: TxnHandle, table: TableId, key: &Value) -> Result<bool> {
        let mut found = false;
        self.visit(h, table, Access::Key(key), &mut |_, _| {
            found = true;
            Ok(ControlFlow::Break(()))
        })?;
        Ok(found)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Reclaims all version history no open transaction can observe, in
    /// commit order within each table ([`Table::gc`]). The horizon is the
    /// oldest open snapshot, or `V_local` with none open. With nothing
    /// listed for collection this looks at each table's list and stops, so
    /// a host calls it after every message it handles. Returns the number
    /// of versions removed.
    pub fn gc(&mut self) -> usize {
        if self.tables.iter().all(|t| t.next_due().is_none()) {
            return 0;
        }
        let horizon = self.min_active_snapshot().unwrap_or(self.version);
        self.tables.iter_mut().map(|t| t.gc(horizon)).sum()
    }

    /// Row versions stored across every table, live rows and tombstones:
    /// what collection keeps bounded.
    #[must_use]
    pub fn version_count(&self) -> usize {
        self.tables.iter().map(Table::version_count).sum()
    }

    /// Direct access to a table (read paths in tests and benches).
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.catalog.schema(id)?;
        Ok(&self.tables[id.index()])
    }

    // ------------------------------------------------------------------
    // Snapshot import plumbing (crate-internal: only `snapshot::import`
    // may bypass the versioned write paths, and only on a fresh engine
    // with no open transactions).
    // ------------------------------------------------------------------

    /// Forces the engine's version to the snapshot's capture version so
    /// replay of `certified_since(V)` continues the sequence.
    pub(crate) fn set_version(&mut self, version: Version) {
        debug_assert!(self.txns.is_empty(), "set_version with open transactions");
        self.version = version;
    }

    /// Exports a consistent snapshot of this engine at its current
    /// version. See [`crate::snapshot::export`].
    #[must_use]
    pub fn export_snapshot(&self, chunk_bytes: usize) -> crate::snapshot::Snapshot {
        crate::snapshot::export(self, chunk_bytes)
    }

    /// Rebuilds an engine from an exported snapshot. See
    /// [`crate::snapshot::import`].
    pub fn import_snapshot(
        manifest: &crate::snapshot::SnapshotManifest,
        chunks: &[Vec<u8>],
    ) -> Result<Engine> {
        crate::snapshot::import(manifest, chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn engine_with_table() -> (Engine, TableId) {
        let mut e = Engine::new();
        let t = e
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("v", ColumnType::Int),
                    ],
                    0,
                )
                .unwrap(),
            )
            .unwrap();
        (e, t)
    }

    fn row(id: i64, v: i64) -> Row {
        vec![Value::Int(id), Value::Int(v)].into()
    }

    #[test]
    fn insert_commit_read_back() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 10)).unwrap();
        assert_eq!(e.commit_standalone(txn).unwrap(), Version(1));

        let txn2 = e.begin();
        assert_eq!(e.get(txn2, t, &Value::Int(1)).unwrap(), Some(row(1, 10)));
        e.commit_read_only(txn2).unwrap();
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 10)).unwrap();
        assert_eq!(e.get(txn, t, &Value::Int(1)).unwrap(), Some(row(1, 10)));
        e.update(txn, t, &Value::Int(1), row(1, 11)).unwrap();
        assert_eq!(e.get(txn, t, &Value::Int(1)).unwrap(), Some(row(1, 11)));
        e.delete(txn, t, &Value::Int(1)).unwrap();
        assert_eq!(e.get(txn, t, &Value::Int(1)).unwrap(), None);
        // insert+delete coalesce: commit is a no-op read-only-equivalent,
        // but writes were recorded then cancelled, so writeset is empty.
        assert!(e.is_read_only(txn).unwrap());
        e.commit_standalone(txn).unwrap();
        assert_eq!(e.version(), Version::ZERO);
    }

    #[test]
    fn snapshot_isolation_hides_concurrent_commit() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();

        let reader = e.begin(); // snapshot v0
        let writer = e.begin();
        e.update(writer, t, &Value::Int(1), row(1, 99)).unwrap();
        e.commit_standalone(writer).unwrap();

        // Reader still sees the old image.
        assert_eq!(e.get(reader, t, &Value::Int(1)).unwrap(), Some(row(1, 10)));
        e.commit_read_only(reader).unwrap();

        // A new transaction sees the new image.
        let late = e.begin();
        assert_eq!(e.get(late, t, &Value::Int(1)).unwrap(), Some(row(1, 99)));
        e.commit_read_only(late).unwrap();
    }

    #[test]
    fn first_committer_wins_aborts_second() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.update(t1, t, &Value::Int(1), row(1, 11)).unwrap();
        e.update(t2, t, &Value::Int(1), row(1, 12)).unwrap();
        e.commit_standalone(t1).unwrap();
        let err = e.commit_standalone(t2).unwrap_err();
        assert!(matches!(err, Error::CertificationConflict(_)));
        // The first commit survived.
        let check = e.begin();
        assert_eq!(e.get(check, t, &Value::Int(1)).unwrap(), Some(row(1, 11)));
    }

    #[test]
    fn disjoint_writes_both_commit() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10), row(2, 20)]).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.update(t1, t, &Value::Int(1), row(1, 11)).unwrap();
        e.update(t2, t, &Value::Int(2), row(2, 22)).unwrap();
        e.commit_standalone(t1).unwrap();
        e.commit_standalone(t2).unwrap();
        assert_eq!(e.version(), Version(2));
    }

    #[test]
    fn write_skew_is_permitted_under_si() {
        // SI (and GSI) famously allow write skew: two transactions read
        // overlapping data and write disjoint rows. Both must commit.
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 1), row(2, 1)]).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        // Each reads both rows, writes the *other* row.
        e.get(t1, t, &Value::Int(1)).unwrap();
        e.get(t1, t, &Value::Int(2)).unwrap();
        e.get(t2, t, &Value::Int(1)).unwrap();
        e.get(t2, t, &Value::Int(2)).unwrap();
        e.update(t1, t, &Value::Int(1), row(1, 0)).unwrap();
        e.update(t2, t, &Value::Int(2), row(2, 0)).unwrap();
        assert!(e.commit_standalone(t1).is_ok());
        assert!(e.commit_standalone(t2).is_ok());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();
        let txn = e.begin();
        assert!(matches!(
            e.insert(txn, t, row(1, 99)),
            Err(Error::DuplicateKey(_))
        ));
    }

    #[test]
    fn concurrent_insert_same_key_certification_conflict() {
        let (mut e, t) = engine_with_table();
        let t1 = e.begin();
        let t2 = e.begin();
        e.insert(t1, t, row(5, 1)).unwrap();
        e.insert(t2, t, row(5, 2)).unwrap(); // allowed: not visible at snapshot
        e.commit_standalone(t1).unwrap();
        assert!(matches!(
            e.commit_standalone(t2),
            Err(Error::CertificationConflict(_))
        ));
    }

    #[test]
    fn update_delete_of_missing_row_fail() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        assert!(e.update(txn, t, &Value::Int(9), row(9, 0)).is_err());
        assert!(e.delete(txn, t, &Value::Int(9)).is_err());
    }

    #[test]
    fn update_cannot_change_pk() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();
        let txn = e.begin();
        assert!(matches!(
            e.update(txn, t, &Value::Int(1), row(2, 10)),
            Err(Error::SchemaMismatch(_))
        ));
    }

    #[test]
    fn commit_at_enforces_global_order() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 1)).unwrap();
        assert!(matches!(
            e.commit_at(txn, Version(5)),
            Err(Error::Protocol(_))
        ));
        // Handle still valid after the failed commit.
        e.commit_at(txn, Version(1)).unwrap();
        assert_eq!(e.version(), Version(1));
    }

    #[test]
    fn apply_refresh_in_order() {
        let (mut e, t) = engine_with_table();
        let mut ws = WriteSet::new();
        ws.push(t, Value::Int(1), WriteOp::Insert(row(1, 10)));
        assert!(matches!(
            e.apply_refresh(&ws, Version(2)),
            Err(Error::Protocol(_))
        ));
        e.apply_refresh(&ws, Version(1)).unwrap();
        assert_eq!(e.version(), Version(1));
        let txn = e.begin();
        assert_eq!(e.get(txn, t, &Value::Int(1)).unwrap(), Some(row(1, 10)));
    }

    #[test]
    fn refresh_interleaves_with_local_commits() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10), row(2, 20)]).unwrap();

        // Local txn starts, then a remote txn commits globally first (v1),
        // then the local txn commits at v2.
        let local = e.begin();
        e.update(local, t, &Value::Int(1), row(1, 11)).unwrap();

        let mut remote = WriteSet::new();
        remote.push(t, Value::Int(2), WriteOp::Update(row(2, 21)));
        e.apply_refresh(&remote, Version(1)).unwrap();
        e.commit_at(local, Version(2)).unwrap();

        let check = e.begin();
        assert_eq!(e.get(check, t, &Value::Int(1)).unwrap(), Some(row(1, 11)));
        assert_eq!(e.get(check, t, &Value::Int(2)).unwrap(), Some(row(2, 21)));
        assert_eq!(e.version(), Version(2));
    }

    #[test]
    fn scan_merges_own_writes() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10), row(3, 30)]).unwrap();
        let txn = e.begin();
        e.insert(txn, t, row(2, 20)).unwrap();
        e.delete(txn, t, &Value::Int(3)).unwrap();
        e.update(txn, t, &Value::Int(1), row(1, 11)).unwrap();
        let rows = e.scan(txn, t).unwrap();
        let got: Vec<(i64, i64)> = rows
            .iter()
            .map(|(k, r)| (k.as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got, vec![(1, 11), (2, 20)]);
    }

    #[test]
    fn abort_discards_writes() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 10)).unwrap();
        e.abort(txn).unwrap();
        assert_eq!(e.version(), Version::ZERO);
        let check = e.begin();
        assert_eq!(e.get(check, t, &Value::Int(1)).unwrap(), None);
        // Handle is dead.
        assert!(e.get(txn, t, &Value::Int(1)).is_err());
    }

    #[test]
    fn begin_at_respects_local_version() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 1)).unwrap();
        e.commit_standalone(txn).unwrap();
        // Snapshot in the past: stale but permitted (GSI local snapshot).
        let old = e.begin_at(Version::ZERO);
        assert_eq!(e.get(old, t, &Value::Int(1)).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "beyond local version")]
    fn begin_at_future_snapshot_panics() {
        let (mut e, _) = engine_with_table();
        e.begin_at(Version(3));
    }

    #[test]
    fn gc_respects_open_snapshots() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();
        let reader = e.begin(); // snapshot 0
        let w = e.begin();
        e.update(w, t, &Value::Int(1), row(1, 11)).unwrap();
        e.commit_standalone(w).unwrap();

        assert_eq!(e.gc(), 0); // reader pins version 0
        assert_eq!(e.get(reader, t, &Value::Int(1)).unwrap(), Some(row(1, 10)));
        e.commit_read_only(reader).unwrap();
        assert_eq!(e.gc(), 1); // old version now collectable
        let check = e.begin();
        assert_eq!(e.get(check, t, &Value::Int(1)).unwrap(), Some(row(1, 11)));
    }

    #[test]
    fn stats_track_operations() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 1)).unwrap();
        e.commit_standalone(txn).unwrap();
        let txn = e.begin();
        e.get(txn, t, &Value::Int(1)).unwrap();
        e.abort(txn).unwrap();
        let s = e.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert!(s.reads >= 1);
        assert!(s.writes >= 1);
    }

    #[test]
    fn read_only_commit_rejects_updates() {
        let (mut e, t) = engine_with_table();
        let txn = e.begin();
        e.insert(txn, t, row(1, 1)).unwrap();
        assert!(matches!(e.commit_read_only(txn), Err(Error::Protocol(_))));
        // Still commitable properly afterwards.
        assert!(e.commit_standalone(txn).is_ok());
    }

    #[test]
    fn a_refused_load_leaves_the_table_as_it_was() {
        let (mut e, t) = engine_with_table();
        e.create_index(t, "v").unwrap();
        let table = |e: &Engine| -> (Vec<(Value, Row)>, Vec<Value>, usize) {
            let t = e.table(t).unwrap();
            let rows = t.scan_at(Version::ZERO);
            let under_10 = t.index_candidates(1, None, Some(&Value::Int(10))).unwrap();
            (
                rows.map(|(k, r)| (k.clone(), r.clone())).collect(),
                under_10.cloned().collect(),
                t.version_count(),
            )
        };
        // Into the empty table, then into one with rows, where a key it
        // holds is refused too.
        for first in [vec![], vec![row(10, 1), row(20, 2)]] {
            let mut refused = vec![
                vec![row(3, 3), row(4, 4), row(3, 5)],       // a key twice
                vec![row(5, 5), vec![Value::Int(6)].into()], // a bad row
                vec![row(9, 9), vec![Value::Null, Value::Int(1)].into()], // a NULL key
            ];
            if !first.is_empty() {
                // A held key among keys below and between the held ones.
                refused.push(vec![row(30, 3), row(7, 7), row(20, 9), row(15, 8)]);
            }
            e.load_rows(t, first).unwrap();
            let before = table(&e);
            for (i, batch) in refused.into_iter().enumerate() {
                assert!(e.load_rows(t, batch).is_err(), "batch {i}");
                assert_eq!(table(&e), before, "batch {i}");
            }
        }
    }

    /// A point read descends the map once for the key as given; the key it
    /// hands out is the stored one, which may be an equal value of another
    /// type, exactly as the one-key range it replaced found it.
    #[test]
    fn a_point_read_finds_a_key_stored_as_an_equal_value_of_another_type() {
        let mut e = Engine::new();
        let columns = vec![
            Column::new("k", ColumnType::Float),
            Column::new("v", ColumnType::Int),
        ];
        let t = e
            .create_table(TableSchema::new("f", columns, 0).unwrap())
            .unwrap();
        let stored = [
            vec![Value::Float(1.5), Value::Int(4)],
            vec![Value::Float(2.0), Value::Int(5)],
            vec![Value::Float(2.5), Value::Int(6)],
        ];
        e.load_rows(t, stored.to_vec()).unwrap();
        let h = e.begin();
        for probe in [
            Value::Int(2),
            Value::Float(2.0),
            Value::Int(3),
            Value::Float(1.5),
        ] {
            let ranged: Vec<(Value, Row)> = e
                .table(t)
                .unwrap()
                .range_at(&probe, &probe, e.version())
                .map(|(k, row)| (k.clone(), row.clone()))
                .collect();
            let mut visited = Vec::new();
            e.visit(h, t, Access::Key(&probe), &mut |k, row| {
                visited.push((k.clone(), row.clone()));
                Ok(ControlFlow::Continue(()))
            })
            .unwrap();
            assert_eq!(visited, ranged, "probe {probe}");
            // Equal is not enough: the key handed out is the stored one.
            for ((got, _), (want, _)) in visited.iter().zip(&ranged) {
                assert_eq!(got.type_name(), want.type_name());
            }
        }
        let found = e.get(h, t, &Value::Int(2)).unwrap().unwrap();
        assert_eq!(found.as_ref(), stored[1].as_slice());
        assert_eq!(e.get(h, t, &Value::Int(3)).unwrap(), None);
    }

    #[test]
    fn load_rows_rejects_duplicates_and_bad_rows() {
        let (mut e, t) = engine_with_table();
        e.load_rows(t, vec![row(1, 10)]).unwrap();
        assert!(e.load_rows(t, vec![row(1, 99)]).is_err());
        assert!(e
            .load_rows(t, vec![vec![Value::Int(2)]]) // wrong arity
            .is_err());
    }
}
