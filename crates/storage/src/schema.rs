//! Table schemas and the catalog.
//!
//! Schemas are created once (at database load time) and replicated
//! identically to every replica, so the catalog itself is not versioned:
//! DDL is outside the replicated transaction path, exactly as in the
//! paper's prototype where the TPC-W schema is loaded before measurement.

use bargain_common::{Error, Result, TableId, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
}

impl ColumnType {
    /// Whether `v` inhabits this type (NULL inhabits every nullable column
    /// and is checked separately).
    #[must_use]
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
        )
    }
}

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (unique within the table, case-insensitive at the SQL
    /// layer which lowercases identifiers before reaching here).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// Whether NULL is admitted.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    #[must_use]
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.to_owned(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    #[must_use]
    pub fn nullable(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.to_owned(),
            ty,
            nullable: true,
        }
    }
}

/// Schema of one table: ordered columns plus the primary-key column index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name (unique in the catalog).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Index into `columns` of the primary-key column.
    pub pk: usize,
}

impl TableSchema {
    /// Builds a schema, validating that the primary key exists, is
    /// non-nullable, and that column names are unique.
    pub fn new(name: &str, columns: Vec<Column>, pk: usize) -> Result<Self> {
        if pk >= columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "table {name}: primary key index {pk} out of range"
            )));
        }
        if columns[pk].nullable {
            return Err(Error::SchemaMismatch(format!(
                "table {name}: primary key column {} must be non-nullable",
                columns[pk].name
            )));
        }
        let mut seen = HashMap::new();
        for c in &columns {
            if seen.insert(c.name.clone(), ()).is_some() {
                return Err(Error::SchemaMismatch(format!(
                    "table {name}: duplicate column {}",
                    c.name
                )));
            }
        }
        Ok(TableSchema {
            name: name.to_owned(),
            columns,
            pk,
        })
    }

    /// Resolves a column name to its index.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validates that `row` matches this schema (arity, types, nullability,
    /// non-null key).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "table {}: row has {} values, schema has {} columns",
                self.name,
                row.len(),
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if v.is_null() {
                if !col.nullable {
                    return Err(Error::SchemaMismatch(format!(
                        "table {}: NULL in non-nullable column {}",
                        self.name, col.name
                    )));
                }
            } else if !col.ty.admits(v) {
                return Err(Error::SchemaMismatch(format!(
                    "table {}: column {} expects {:?}, got {}",
                    self.name,
                    col.name,
                    col.ty,
                    v.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Extracts the primary-key value from a full row.
    #[must_use]
    pub fn key_of(&self, row: &[Value]) -> Value {
        row[self.pk].clone()
    }
}

/// Maps table names to ids and holds every table schema.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schemas: Vec<Arc<TableSchema>>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table, assigning the next [`TableId`].
    pub fn add_table(&mut self, schema: TableSchema) -> Result<TableId> {
        if self.by_name.contains_key(&schema.name) {
            return Err(Error::TableExists(schema.name));
        }
        let id = TableId(self.schemas.len() as u32);
        self.by_name.insert(schema.name.clone(), id);
        self.schemas.push(Arc::new(schema));
        Ok(id)
    }

    /// Resolves a table name.
    pub fn resolve(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    /// Schema of a table by id; cloning the `Arc` shares it.
    pub fn schema(&self, id: TableId) -> Result<&Arc<TableSchema>> {
        self.schemas
            .get(id.index())
            .ok_or_else(|| Error::UnknownTable(format!("table id {}", id.0)))
    }

    /// Number of tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Iterates over `(id, schema)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TableSchema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (TableId(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("payload", ColumnType::Text),
            ],
            0,
        )
        .unwrap()
    }

    #[test]
    fn column_type_admits() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(!ColumnType::Int.admits(&Value::Text("x".into())));
        assert!(ColumnType::Float.admits(&Value::Int(1))); // int widens
        assert!(ColumnType::Float.admits(&Value::Float(1.0)));
        assert!(ColumnType::Text.admits(&Value::Text("x".into())));
        assert!(!ColumnType::Text.admits(&Value::Int(1)));
    }

    #[test]
    fn schema_rejects_bad_pk() {
        let cols = vec![Column::new("id", ColumnType::Int)];
        assert!(TableSchema::new("t", cols.clone(), 5).is_err());
        let nullable_pk = vec![Column::nullable("id", ColumnType::Int)];
        assert!(TableSchema::new("t", nullable_pk, 0).is_err());
    }

    #[test]
    fn schema_rejects_duplicate_columns() {
        let cols = vec![
            Column::new("id", ColumnType::Int),
            Column::new("id", ColumnType::Text),
        ];
        assert!(TableSchema::new("t", cols, 0).is_err());
    }

    #[test]
    fn check_row_validates_shape() {
        let s = two_col("t");
        assert!(s
            .check_row(&[Value::Int(1), Value::Text("x".into())])
            .is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Null]).is_ok()); // nullable
        assert!(s.check_row(&[Value::Null, Value::Null]).is_err()); // NULL pk
        assert!(s.check_row(&[Value::Int(1)]).is_err()); // arity
        assert!(s
            .check_row(&[Value::Text("no".into()), Value::Null])
            .is_err()); // type
    }

    #[test]
    fn key_extraction() {
        let s = two_col("t");
        assert_eq!(s.key_of(&[Value::Int(7), Value::Null]), Value::Int(7));
    }

    #[test]
    fn catalog_add_resolve() {
        let mut c = Catalog::new();
        let a = c.add_table(two_col("a")).unwrap();
        let b = c.add_table(two_col("b")).unwrap();
        assert_eq!(a, TableId(0));
        assert_eq!(b, TableId(1));
        assert_eq!(c.resolve("a").unwrap(), a);
        assert_eq!(c.resolve("b").unwrap(), b);
        assert!(c.resolve("zzz").is_err());
        assert!(c.add_table(two_col("a")).is_err()); // duplicate
        assert_eq!(c.len(), 2);
        assert_eq!(c.schema(a).unwrap().name, "a");
        assert!(c.schema(TableId(9)).is_err());
    }

    #[test]
    fn catalog_iteration_order() {
        let mut c = Catalog::new();
        c.add_table(two_col("x")).unwrap();
        c.add_table(two_col("y")).unwrap();
        let names: Vec<&str> = c.iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
