//! The catalog: schemas, name resolution, and statistics.
//!
//! Each table's definition — its schema plus its indexes, in creation
//! order — lives in one immutable [`TableMeta`] behind an `Arc`. DDL never
//! edits a `TableMeta`; it installs a new one. A bound statement holds the
//! `Arc` it was resolved against, so executing it touches no catalog, and
//! "is this statement still valid?" after some DDL is a pointer
//! comparison.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, IndexId, IndexSchema, TableId, TableSchema};
use crate::stats::StatsRegistry;

/// Everything a statement needs to know about one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableMeta {
    /// The table's schema.
    pub schema: TableSchema,
    /// Its indexes, in creation order (the order modifications touch them —
    /// relevant to lock-ordering behaviour).
    pub indexes: Vec<IndexSchema>,
}

/// Database catalog. Wrapped in a `RwLock` by the engine.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Catalog {
    tables: HashMap<u32, Arc<TableMeta>>,
    table_names: HashMap<String, u32>,
    /// Index name -> (owning table, index id).
    index_names: HashMap<String, (u32, u32)>,
    next_table: u32,
    next_index: u32,
    /// Optimizer statistics.
    pub stats: StatsRegistry,
}

/// Catalog names are stored lower-case; the parser already lower-cases
/// identifiers, so the usual lookup borrows.
fn lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    /// Register a new table.
    pub fn create_table(&mut self, name: &str, columns: Vec<ColumnDef>) -> DbResult<TableSchema> {
        let lc = name.to_ascii_lowercase();
        if self.table_names.contains_key(&lc) {
            return Err(DbError::AlreadyExists(format!("table {lc}")));
        }
        if columns.is_empty() {
            return Err(DbError::Plan(format!("table {lc} must have columns")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(DbError::Plan(format!("duplicate column {} in {lc}", c.name)));
            }
        }
        self.next_table += 1;
        let schema = TableSchema { id: TableId(self.next_table), name: lc, columns };
        self.adopt_table(schema.clone());
        Ok(schema)
    }

    /// Register a table recovered from the log with its original id.
    pub fn adopt_table(&mut self, schema: TableSchema) {
        self.next_table = self.next_table.max(schema.id.0);
        self.table_names.insert(schema.name.clone(), schema.id.0);
        self.tables.insert(schema.id.0, Arc::new(TableMeta { schema, indexes: Vec::new() }));
    }

    /// Register a new index.
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        key_columns: &[String],
        unique: bool,
    ) -> DbResult<IndexSchema> {
        let lc = name.to_ascii_lowercase();
        if self.index_names.contains_key(&lc) {
            return Err(DbError::AlreadyExists(format!("index {lc}")));
        }
        let tschema = &self.table_meta(table)?.schema;
        let mut cols = Vec::with_capacity(key_columns.len());
        for c in key_columns {
            cols.push(tschema.col_index(c)?);
        }
        if cols.is_empty() {
            return Err(DbError::Plan(format!("index {lc} must have key columns")));
        }
        let id = IndexId(self.next_index + 1);
        let schema = IndexSchema { id, name: lc, table: tschema.id, key_columns: cols, unique };
        self.adopt_index(schema.clone());
        Ok(schema)
    }

    /// Register an index recovered from the log with its original id.
    pub fn adopt_index(&mut self, schema: IndexSchema) {
        self.next_index = self.next_index.max(schema.id.0);
        self.index_names.insert(schema.name.clone(), (schema.table.0, schema.id.0));
        self.edit_table(schema.table, |meta| meta.indexes.push(schema));
    }

    /// Install an edited copy of a table's definition (statements bound to
    /// the old one notice the new pointer and rebind).
    fn edit_table(&mut self, table: TableId, edit: impl FnOnce(&mut TableMeta)) {
        if let Some(slot) = self.tables.get_mut(&table.0) {
            let mut meta = TableMeta::clone(slot);
            edit(&mut meta);
            *slot = Arc::new(meta);
        }
    }

    /// Drop a table and all of its indexes, returning the dropped index ids.
    pub fn drop_table(&mut self, name: &str) -> DbResult<(TableId, Vec<IndexId>)> {
        let meta = self.table_meta(name)?.clone();
        for ix in &meta.indexes {
            self.index_names.remove(&ix.name);
            self.stats.forget_index(ix.id);
        }
        self.tables.remove(&meta.schema.id.0);
        self.table_names.remove(&meta.schema.name);
        self.stats.forget_table(meta.schema.id);
        Ok((meta.schema.id, meta.indexes.iter().map(|ix| ix.id).collect()))
    }

    /// Drop a single index by name.
    pub fn drop_index(&mut self, name: &str) -> DbResult<IndexId> {
        let (table, id) = {
            let ix = self.index(name)?;
            (ix.table, ix.id)
        };
        self.index_names.remove(lower(name).as_ref());
        self.edit_table(table, |meta| meta.indexes.retain(|ix| ix.id != id));
        self.stats.forget_index(id);
        Ok(id)
    }

    /// Resolve a table's definition (schema + indexes) by name.
    pub fn table_meta(&self, name: &str) -> DbResult<&Arc<TableMeta>> {
        self.table_names
            .get(lower(name).as_ref())
            .and_then(|id| self.tables.get(id))
            .ok_or_else(|| DbError::NotFound(format!("table {}", lower(name))))
    }

    /// Resolve a table schema by name.
    pub fn table(&self, name: &str) -> DbResult<&TableSchema> {
        Ok(&self.table_meta(name)?.schema)
    }

    /// Resolve a table's definition by id.
    pub fn table_meta_by_id(&self, id: TableId) -> DbResult<&Arc<TableMeta>> {
        self.tables.get(&id.0).ok_or_else(|| DbError::NotFound(format!("table#{}", id.0)))
    }

    /// Resolve a table schema by id.
    pub fn table_by_id(&self, id: TableId) -> DbResult<&TableSchema> {
        Ok(&self.table_meta_by_id(id)?.schema)
    }

    /// Resolve an index schema by name.
    pub fn index(&self, name: &str) -> DbResult<&IndexSchema> {
        self.index_names
            .get(lower(name).as_ref())
            .and_then(|(table, id)| {
                self.tables.get(table)?.indexes.iter().find(|ix| ix.id.0 == *id)
            })
            .ok_or_else(|| DbError::NotFound(format!("index {}", lower(name))))
    }

    /// Resolve an index schema by id.
    pub fn index_by_id(&self, id: IndexId) -> DbResult<&IndexSchema> {
        self.tables
            .values()
            .flat_map(|meta| &meta.indexes)
            .find(|ix| ix.id == id)
            .ok_or_else(|| DbError::NotFound(format!("index#{}", id.0)))
    }

    /// Index schemas on a table, in creation order.
    pub fn indexes_of(&self, table: TableId) -> &[IndexSchema] {
        self.tables.get(&table.0).map_or(&[], |meta| &meta.indexes)
    }

    /// All table schemas (diagnostics / reconcile).
    pub fn all_tables(&self) -> Vec<&TableSchema> {
        let mut v: Vec<&TableSchema> = self.tables.values().map(|meta| &meta.schema).collect();
        v.sort_by_key(|s| s.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::not_null("id", DataType::BigInt),
            ColumnDef::not_null("name", DataType::Varchar),
        ]
    }

    #[test]
    fn create_and_resolve_table() {
        let mut c = Catalog::default();
        let s = c.create_table("DFM_FILE", cols()).unwrap();
        assert_eq!(s.name, "dfm_file");
        assert_eq!(c.table("dfm_File").unwrap().id, s.id);
        assert!(matches!(c.create_table("dfm_file", cols()), Err(DbError::AlreadyExists(_))));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let mut c = Catalog::default();
        let bad =
            vec![ColumnDef::new("x", DataType::BigInt), ColumnDef::new("X", DataType::Varchar)];
        assert!(c.create_table("t", bad).is_err());
    }

    #[test]
    fn indexes_tracked_per_table_in_creation_order() {
        let mut c = Catalog::default();
        c.create_table("t", cols()).unwrap();
        let i1 = c.create_index("ix_id", "t", &["id".into()], true).unwrap();
        let i2 = c.create_index("ix_name", "t", &["name".into()], false).unwrap();
        let t = c.table("t").unwrap().id;
        let idxs = c.indexes_of(t);
        assert_eq!(idxs.len(), 2);
        assert_eq!(idxs[0].id, i1.id);
        assert_eq!(idxs[1].id, i2.id);
        assert!(idxs[0].unique);
        assert!(!idxs[1].unique);
        assert_eq!(c.index_by_id(i2.id).unwrap().name, "ix_name");
    }

    #[test]
    fn index_on_missing_column_rejected() {
        let mut c = Catalog::default();
        c.create_table("t", cols()).unwrap();
        assert!(c.create_index("ix", "t", &["nope".into()], false).is_err());
    }

    #[test]
    fn drop_table_cascades_indexes() {
        let mut c = Catalog::default();
        c.create_table("t", cols()).unwrap();
        c.create_index("ix_id", "t", &["id".into()], true).unwrap();
        let (_, dropped) = c.drop_table("t").unwrap();
        assert_eq!(dropped.len(), 1);
        assert!(c.table("t").is_err());
        assert!(c.index("ix_id").is_err());
        // Name can be reused.
        c.create_table("t", cols()).unwrap();
    }

    #[test]
    fn adopt_preserves_ids() {
        let mut c = Catalog::default();
        let s = TableSchema { id: TableId(7), name: "t".into(), columns: cols() };
        c.adopt_table(s.clone());
        assert_eq!(c.table("t").unwrap().id, TableId(7));
        // Next created table gets a higher id.
        let s2 = c.create_table("u", cols()).unwrap();
        assert!(s2.id.0 > 7);
    }

    #[test]
    fn ddl_installs_a_new_table_meta_and_leaves_the_old_one_intact() {
        let mut c = Catalog::default();
        c.create_table("t", cols()).unwrap();
        let before = c.table_meta("t").unwrap().clone();
        c.create_index("ix_id", "t", &["id".into()], true).unwrap();
        let after = c.table_meta("t").unwrap().clone();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(before.indexes.is_empty(), "a bound statement's view never changes under it");
        assert_eq!(after.indexes.len(), 1);
        // A copy of the catalog (checkpoint, backup image) shares the metas.
        let image = c.clone();
        assert!(Arc::ptr_eq(image.table_meta("t").unwrap(), &after));
        c.drop_index("ix_id").unwrap();
        assert!(c.table_meta("t").unwrap().indexes.is_empty());
        assert!(c.index("ix_id").is_err());
    }
}
