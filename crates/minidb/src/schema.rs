//! Table and index schema definitions.

use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::key::Key;
use crate::value::{DataType, Value};

/// Identifies a table within a database. Stable for the database lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Identifies an index within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndexId(pub u32);

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (lowercased by the catalog).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULL is rejected.
    pub not_null: bool,
}

impl ColumnDef {
    /// Construct a nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into().to_ascii_lowercase(), ty, not_null: false }
    }

    /// Construct a NOT NULL column.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into().to_ascii_lowercase(), ty, not_null: true }
    }
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table id assigned by the catalog.
    pub id: TableId,
    /// Table name (lowercase).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Position of `column` in the row layout.
    pub fn col_index(&self, column: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(column))
            .ok_or_else(|| DbError::Plan(format!("no column {column} in table {}", self.name)))
    }

    /// Column definition lookup by name.
    pub fn column(&self, column: &str) -> DbResult<&ColumnDef> {
        Ok(&self.columns[self.col_index(column)?])
    }

    /// All column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

/// Schema of one index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSchema {
    /// Index id assigned by the catalog.
    pub id: IndexId,
    /// Index name (lowercase, unique per database).
    pub name: String,
    /// Table this index belongs to.
    pub table: TableId,
    /// Column positions (into the table row) forming the key, in order.
    pub key_columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

impl IndexSchema {
    /// `row`'s key in this index, encoded from the row in place.
    pub fn key(&self, row: &[Value]) -> Key {
        Key::new(self.key_columns.iter().map(|&i| &row[i]))
    }

    /// Do two images of a row carry the same key?
    pub fn same_key(&self, a: &[Value], b: &[Value]) -> bool {
        self.key_columns.iter().all(|&c| a[c] == b[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema {
            id: TableId(1),
            name: "dfm_file".into(),
            columns: vec![
                ColumnDef::not_null("file_id", DataType::BigInt),
                ColumnDef::not_null("FileName", DataType::Varchar),
                ColumnDef::new("unlink_ts", DataType::Timestamp),
            ],
        }
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.col_index("filename").unwrap(), 1);
        assert_eq!(s.col_index("FILENAME").unwrap(), 1);
        assert!(s.col_index("nope").is_err());
    }

    #[test]
    fn column_names_are_lowercased() {
        let s = schema();
        assert_eq!(s.column_names(), vec!["file_id", "filename", "unlink_ts"]);
        assert!(s.column("filename").unwrap().not_null);
        assert!(!s.column("unlink_ts").unwrap().not_null);
    }
}
