//! Access-path planning: a miniature cost-based optimizer.
//!
//! The optimizer chooses between a full table scan and an index probe using
//! only catalog statistics — like DB2's optimizer it knows nothing about
//! the *locking* cost of a concurrent workload (paper §4). With default
//! (empty) statistics a table scan looks free, which under concurrency
//! means every statement row-locks the whole table. DLFM's fix — hand-craft
//! the statistics, then bind plans — is reproduced by
//! [`crate::stats::StatsRegistry::set_table_stats`] plus prepared
//! statements that pin the plan at bind time.

use crate::catalog::Catalog;
use crate::error::DbResult;
use crate::schema::{IndexId, TableId};
use crate::sql::ast::{CmpOp, Expr};

/// One bound of an index range scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBound {
    /// Expression producing the bound value (literal or parameter).
    pub value: Expr,
    /// Whether the bound itself is included (`<=`/`>=` vs `<`/`>`).
    pub inclusive: bool,
}

/// How rows of a table will be fetched.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every row.
    FullScan,
    /// Probe one index with equality values on the first `prefix_len` key
    /// columns.
    IndexEq {
        /// Chosen index.
        index: IndexId,
        /// How many leading key columns have equality predicates.
        prefix_len: usize,
        /// For each prefix position, the expression producing the probe
        /// value (literal or parameter).
        probes: Vec<Expr>,
    },
    /// Probe one index with an equality prefix plus a range on the next
    /// key column (e.g. `dbid = ? AND rec_id <= ?`).
    IndexRange {
        /// Chosen index.
        index: IndexId,
        /// Equality probes for the leading key columns (may be empty).
        probes: Vec<Expr>,
        /// Lower bound on the key column after the prefix.
        lo: Option<RangeBound>,
        /// Upper bound on the key column after the prefix.
        hi: Option<RangeBound>,
    },
}

/// A bound plan for one table access.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePlan {
    /// Target table.
    pub table: TableId,
    /// Chosen path.
    pub path: AccessPath,
    /// Estimated cost (arbitrary units; lower is better).
    pub cost: f64,
    /// Estimated rows returned.
    pub est_rows: f64,
    /// Statistics generation the plan was built against; used to detect
    /// stale bound plans after a RUNSTATS.
    pub stats_generation: u64,
}

impl TablePlan {
    /// EXPLAIN-style rendering, e.g. `IXSCAN dfm_file VIA ix_file_name (prefix=1) cost=5.0`.
    pub fn render(&self, catalog: &Catalog) -> String {
        match &self.path {
            AccessPath::FullScan => {
                let t = catalog
                    .table_by_id(self.table)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| format!("table#{}", self.table.0));
                format!("TBSCAN {t} cost={:.1} rows={:.1}", self.cost, self.est_rows)
            }
            AccessPath::IndexEq { index, prefix_len, .. } => {
                let t = catalog
                    .table_by_id(self.table)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| format!("table#{}", self.table.0));
                let i = catalog
                    .index_by_id(*index)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| format!("index#{}", index.0));
                format!(
                    "IXSCAN {t} VIA {i} (prefix={prefix_len}) cost={:.1} rows={:.1}",
                    self.cost, self.est_rows
                )
            }
            AccessPath::IndexRange { index, probes, lo, hi } => {
                let t = catalog
                    .table_by_id(self.table)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| format!("table#{}", self.table.0));
                let i = catalog
                    .index_by_id(*index)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| format!("index#{}", index.0));
                let bounds = match (lo, hi) {
                    (Some(_), Some(_)) => "lo..hi",
                    (Some(_), None) => "lo..",
                    (None, Some(_)) => "..hi",
                    (None, None) => "..",
                };
                format!(
                    "IXRANGE {t} VIA {i} (prefix={}, {bounds}) cost={:.1} rows={:.1}",
                    probes.len(),
                    self.cost,
                    self.est_rows
                )
            }
        }
    }
}

/// Per-page style cost constants (coarse, DB2-flavoured).
const FULL_SCAN_ROW_COST: f64 = 1.0;
/// Fixed cost of descending a B-tree.
const INDEX_PROBE_COST: f64 = 3.0;
/// Cost per row fetched through an index (random access penalty).
const INDEX_ROW_COST: f64 = 2.0;

/// Extract `col = <lit|param>` equality conjuncts from a filter.
/// Returns pairs of (column name, value expression).
pub fn equality_conjuncts(filter: Option<&Expr>) -> Vec<(String, Expr)> {
    let mut out = Vec::new();
    let Some(f) = filter else { return out };
    for c in f.conjuncts() {
        if let Expr::Cmp(l, CmpOp::Eq, r) = c {
            match (l.as_ref(), r.as_ref()) {
                (Expr::Col(name), v @ (Expr::Lit(_) | Expr::Param(_))) => {
                    out.push((name.clone(), v.clone()));
                }
                (v @ (Expr::Lit(_) | Expr::Param(_)), Expr::Col(name)) => {
                    out.push((name.clone(), v.clone()));
                }
                _ => {}
            }
        }
    }
    out
}

/// Extract range conjuncts (`col < v`, `col >= v`, ...) for a column.
/// Returns `(lo, hi)` bounds.
pub fn range_conjuncts(
    filter: Option<&Expr>,
    column: &str,
) -> (Option<RangeBound>, Option<RangeBound>) {
    let mut lo = None;
    let mut hi = None;
    let Some(f) = filter else { return (lo, hi) };
    for c in f.conjuncts() {
        let Expr::Cmp(l, op, r) = c else { continue };
        // Normalise to `col OP value`.
        let (name, value, op) = match (l.as_ref(), r.as_ref()) {
            (Expr::Col(n), v @ (Expr::Lit(_) | Expr::Param(_))) => (n, v.clone(), *op),
            (v @ (Expr::Lit(_) | Expr::Param(_)), Expr::Col(n)) => {
                // `v OP col` flips the comparison.
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                (n, v.clone(), flipped)
            }
            _ => continue,
        };
        if name != column {
            continue;
        }
        match op {
            CmpOp::Lt => hi = Some(RangeBound { value, inclusive: false }),
            CmpOp::Le => hi = Some(RangeBound { value, inclusive: true }),
            CmpOp::Gt => lo = Some(RangeBound { value, inclusive: false }),
            CmpOp::Ge => lo = Some(RangeBound { value, inclusive: true }),
            _ => {}
        }
    }
    (lo, hi)
}

/// Choose the cheapest access path for `table` under `filter`.
pub fn plan_access(
    catalog: &Catalog,
    table_name: &str,
    filter: Option<&Expr>,
) -> DbResult<TablePlan> {
    let schema = catalog.table(table_name)?;
    let table = schema.id;
    let tstats = catalog.stats.table(table);
    let card = tstats.cardinality as f64;
    let generation = catalog.stats.generation;

    // Baseline: full scan.
    let mut best = TablePlan {
        table,
        path: AccessPath::FullScan,
        cost: (card * FULL_SCAN_ROW_COST).max(1.0),
        est_rows: card.max(1.0),
        stats_generation: generation,
    };

    let eqs = equality_conjuncts(filter);

    for ix in catalog.indexes_of(table) {
        // Longest prefix of the index key covered by equality predicates.
        let mut probes = Vec::new();
        for &col_pos in &ix.key_columns {
            let col_name = &schema.columns[col_pos].name;
            match eqs.iter().find(|(c, _)| c == col_name) {
                Some((_, v)) => probes.push(v.clone()),
                None => break,
            }
        }
        let prefix_len = probes.len();
        let istats = catalog.stats.index(ix.id);
        let distinct = (istats.distinct_keys as f64).max(1.0);
        if prefix_len > 0 {
            // Fewer prefix columns ⇒ less selective: discount the
            // distinct-key count geometrically by coverage.
            let coverage = prefix_len as f64 / ix.key_columns.len() as f64;
            let eff_distinct = distinct.powf(coverage).max(1.0);
            let est_rows = (card / eff_distinct)
                .max(if ix.unique && prefix_len == ix.key_columns.len() { 0.0 } else { 1.0 });
            let cost = INDEX_PROBE_COST + est_rows * INDEX_ROW_COST;
            if cost < best.cost {
                best = TablePlan {
                    table,
                    path: AccessPath::IndexEq { index: ix.id, prefix_len, probes: probes.clone() },
                    cost,
                    est_rows,
                    stats_generation: generation,
                };
            }
        }
        // Range on the key column right after the equality prefix.
        if prefix_len < ix.key_columns.len() {
            let range_col = &schema.columns[ix.key_columns[prefix_len]].name;
            let (lo, hi) = range_conjuncts(filter, range_col);
            if lo.is_some() || hi.is_some() {
                // Classic selectivity guesses: 1/3 per open side, 1/4 closed.
                let range_sel = match (&lo, &hi) {
                    (Some(_), Some(_)) => 0.25,
                    _ => 1.0 / 3.0,
                };
                let coverage = prefix_len as f64 / ix.key_columns.len() as f64;
                let eff_distinct = distinct.powf(coverage).max(1.0);
                let est_rows = ((card / eff_distinct) * range_sel).max(1.0);
                let cost = INDEX_PROBE_COST + est_rows * INDEX_ROW_COST;
                if cost < best.cost {
                    best = TablePlan {
                        table,
                        path: AccessPath::IndexRange {
                            index: ix.id,
                            probes: probes.clone(),
                            lo,
                            hi,
                        },
                        cost,
                        est_rows,
                        stats_generation: generation,
                    };
                }
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::default();
        c.create_table(
            "dfm_file",
            vec![
                ColumnDef::not_null("dbid", DataType::BigInt),
                ColumnDef::not_null("filename", DataType::Varchar),
                ColumnDef::not_null("lnk_state", DataType::Integer),
            ],
        )
        .unwrap();
        c.create_index("ix_name", "dfm_file", &["filename".into()], false).unwrap();
        c.create_index("ix_db_state", "dfm_file", &["dbid".into(), "lnk_state".into()], false)
            .unwrap();
        c
    }

    #[test]
    fn fresh_stats_pick_table_scan() {
        // The paper's pathology: never-RUNSTATS'd table looks empty, so the
        // optimizer prefers TBSCAN even though an index matches.
        let c = catalog();
        let f = Expr::col_eq("filename", "f1");
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        assert_eq!(plan.path, AccessPath::FullScan);
    }

    #[test]
    fn hand_crafted_stats_pick_index() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        let ix = c.index("ix_name").unwrap().id;
        c.stats.set_table_stats(t, 1_000_000);
        c.stats.set_index_stats(ix, 1_000_000);
        let f = Expr::col_eq("filename", "f1");
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        match plan.path {
            AccessPath::IndexEq { index, prefix_len, .. } => {
                assert_eq!(index, ix);
                assert_eq!(prefix_len, 1);
            }
            other => panic!("expected index scan, got {other:?}"),
        }
        assert!(plan.cost < 1_000_000.0);
    }

    #[test]
    fn longest_matching_prefix_wins() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        c.stats.set_table_stats(t, 100_000);
        let ix1 = c.index("ix_name").unwrap().id;
        let ix2 = c.index("ix_db_state").unwrap().id;
        c.stats.set_index_stats(ix1, 10); // non-selective
        c.stats.set_index_stats(ix2, 100_000); // very selective
        let f = Expr::And(
            Box::new(Expr::col_eq("dbid", 1)),
            Box::new(Expr::And(
                Box::new(Expr::col_eq("lnk_state", 1)),
                Box::new(Expr::col_eq("filename", "f")),
            )),
        );
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        match plan.path {
            AccessPath::IndexEq { index, prefix_len, .. } => {
                assert_eq!(index, ix2);
                assert_eq!(prefix_len, 2);
            }
            other => panic!("expected ix_db_state, got {other:?}"),
        }
    }

    #[test]
    fn no_filter_means_full_scan() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        c.stats.set_table_stats(t, 1_000_000);
        let plan = plan_access(&c, "dfm_file", None).unwrap();
        assert_eq!(plan.path, AccessPath::FullScan);
    }

    #[test]
    fn equality_extraction_handles_reversed_operands() {
        let f = Expr::Cmp(
            Box::new(Expr::Lit(crate::value::Value::Int(5))),
            CmpOp::Eq,
            Box::new(Expr::Col("dbid".into())),
        );
        let eqs = equality_conjuncts(Some(&f));
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].0, "dbid");
    }

    #[test]
    fn param_probes_are_plannable() {
        // Prepared DLFM statements probe with `filename = ?`.
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        let ix = c.index("ix_name").unwrap().id;
        c.stats.set_table_stats(t, 500_000);
        c.stats.set_index_stats(ix, 500_000);
        let f =
            Expr::Cmp(Box::new(Expr::Col("filename".into())), CmpOp::Eq, Box::new(Expr::Param(0)));
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        assert!(matches!(plan.path, AccessPath::IndexEq { .. }));
    }

    #[test]
    fn range_predicates_pick_index_range() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        c.stats.set_table_stats(t, 1_000_000);
        let ix = c.index("ix_name").unwrap().id;
        c.stats.set_index_stats(ix, 1_000_000);
        let f = Expr::Cmp(
            Box::new(Expr::Col("filename".into())),
            CmpOp::Le,
            Box::new(Expr::Lit(crate::value::Value::str("m"))),
        );
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        match &plan.path {
            AccessPath::IndexRange { index, probes, lo, hi } => {
                assert_eq!(*index, ix);
                assert!(probes.is_empty());
                assert!(lo.is_none());
                assert!(hi.as_ref().unwrap().inclusive);
            }
            other => panic!("expected range scan, got {other:?}"),
        }
        assert!(plan.render(&c).starts_with("IXRANGE"), "{}", plan.render(&c));
    }

    #[test]
    fn eq_prefix_plus_range_prefers_composite_index() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        c.stats.set_table_stats(t, 1_000_000);
        let ix2 = c.index("ix_db_state").unwrap().id;
        c.stats.set_index_stats(ix2, 1_000_000);
        // dbid = ? AND lnk_state < ? : equality prefix 1 + range.
        let f = Expr::And(
            Box::new(Expr::col_eq("dbid", 3)),
            Box::new(Expr::Cmp(
                Box::new(Expr::Col("lnk_state".into())),
                CmpOp::Lt,
                Box::new(Expr::Lit(crate::value::Value::Int(2))),
            )),
        );
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        match &plan.path {
            AccessPath::IndexRange { index, probes, lo, hi } => {
                assert_eq!(*index, ix2);
                assert_eq!(probes.len(), 1);
                assert!(lo.is_none());
                assert!(!hi.as_ref().unwrap().inclusive);
            }
            // An IndexEq on the dbid prefix is also defensible if cheaper;
            // but with these stats the range should win.
            other => panic!("expected range scan, got {other:?}"),
        }
    }

    #[test]
    fn render_mentions_plan_shape() {
        let mut c = catalog();
        let t = c.table("dfm_file").unwrap().id;
        c.stats.set_table_stats(t, 10_000);
        let ix = c.index("ix_name").unwrap().id;
        c.stats.set_index_stats(ix, 10_000);
        let f = Expr::col_eq("filename", "f1");
        let plan = plan_access(&c, "dfm_file", Some(&f)).unwrap();
        let s = plan.render(&c);
        assert!(s.starts_with("IXSCAN"), "{s}");
        assert!(s.contains("ix_name"), "{s}");
        let p2 = plan_access(&c, "dfm_file", None).unwrap();
        assert!(p2.render(&c).starts_with("TBSCAN"));
    }
}
