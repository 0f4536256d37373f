//! BIND: resolve a statement against the catalog once, run it many times.
//!
//! DB2 static SQL is "compiled and bound" once: names, schema and access
//! plan are settled at BIND and a run touches no catalog (paper §3.2.1).
//! [`bind`] does the same for this engine. The result — a [`BoundStmt`] —
//! holds the table's `Arc<TableMeta>`, every column reference as a row
//! ordinal, the pinned plan(s) and the output header; the executor in
//! [`crate::engine`] takes nothing else.
//!
//! A [`Prepared`] is a statement plus its current binding. It is stamped
//! with the catalog's DDL generation: when that has moved, the binding is
//! revalidated before the next run (same `TableMeta` pointer → still good;
//! otherwise rebound, or a clean `NotFound`/`Plan` error when the table or
//! a column is gone), so a stale ordinal or a dropped index id is never
//! executed. Two kinds exist and differ in one rule only:
//!
//! * **static** ([`crate::Database::prepare`]) — the plan is pinned until
//!   an explicit `rebind`, whatever RUNSTATS does (the paper's point);
//! * **dynamic** (text through [`crate::Database::exec`], kept in the
//!   bounded [`StmtCache`]) — additionally replanned when the *statistics*
//!   generation moves, DB2's dynamic-statement-cache rule.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::catalog::{Catalog, TableMeta};
use crate::error::{DbError, DbResult};
use crate::eval::{bind_expr, BoundExpr};
use crate::plan::{plan_access, TablePlan};
use crate::sql::ast::{AggFn, Expr, Projection, SelectItem, SelectStmt, Stmt};

/// One table access, resolved: where the rows come from and which qualify.
#[derive(Debug)]
pub(crate) struct Scan {
    pub meta: Arc<TableMeta>,
    pub filter: Option<BoundExpr>,
    pub plan: Arc<TablePlan>,
}

/// What a SELECT returns for the rows its scan matched.
#[derive(Debug)]
pub(crate) enum Output {
    /// `*`: the rows themselves.
    Star,
    /// One expression per output column.
    Exprs(Vec<BoundExpr>),
    /// Whole-result aggregates: one output row.
    Aggregates(Vec<Aggregate>),
}

#[derive(Debug)]
pub(crate) enum Aggregate {
    CountStar,
    /// Aggregate over the column at this ordinal.
    Column(AggFn, usize),
}

#[derive(Debug)]
pub(crate) struct BoundSelect {
    pub scan: Scan,
    pub for_update: bool,
    pub for_share: bool,
    /// `(ordinal, descending)` per ORDER BY key.
    pub order_by: Vec<(usize, bool)>,
    pub output: Output,
    /// Output header, shared by every result of this statement.
    pub columns: Arc<[String]>,
    pub except: Option<Box<BoundSelect>>,
}

#[derive(Debug)]
pub(crate) enum BoundKind {
    /// DDL and EXPLAIN resolve nothing ahead of time; they run from the AST.
    Ast,
    /// `(ordinal, value)` per supplied column; the rest of the row is NULL.
    Insert {
        meta: Arc<TableMeta>,
        values: Vec<(usize, BoundExpr)>,
    },
    Select(BoundSelect),
    /// `(ordinal, new value)` per SET clause, evaluated against the old row.
    Update {
        scan: Scan,
        sets: Vec<(usize, BoundExpr)>,
    },
    Delete(Scan),
}

/// A statement resolved against the catalog as of `ddl_gen`.
#[derive(Debug)]
pub(crate) struct BoundStmt {
    /// Catalog DDL generation this binding was last found valid at.
    pub ddl_gen: AtomicU64,
    /// Statistics generation its plans were chosen under.
    pub stats_gen: u64,
    pub kind: BoundKind,
}

impl BoundStmt {
    /// The scan whose plan EXPLAIN and the slow-statement log show.
    pub fn main_scan(&self) -> Option<&Scan> {
        match &self.kind {
            BoundKind::Select(sel) => Some(&sel.scan),
            BoundKind::Update { scan, .. } | BoundKind::Delete(scan) => Some(scan),
            BoundKind::Ast | BoundKind::Insert { .. } => None,
        }
    }

    /// Is every table this binding resolved still defined by the very
    /// `TableMeta` it holds? (DDL installs a new one; a catalog restored
    /// from a checkpoint or image shares the old ones.)
    pub fn still_valid(&self, catalog: &Catalog) -> bool {
        let same = |meta: &Arc<TableMeta>| {
            catalog.table_meta(&meta.schema.name).is_ok_and(|now| Arc::ptr_eq(now, meta))
        };
        match &self.kind {
            BoundKind::Ast => true,
            BoundKind::Insert { meta, .. } => same(meta),
            BoundKind::Update { scan, .. } | BoundKind::Delete(scan) => same(&scan.meta),
            BoundKind::Select(sel) => {
                let mut arm = Some(sel);
                while let Some(sel) = arm {
                    if !same(&sel.scan.meta) {
                        return false;
                    }
                    arm = sel.except.as_deref();
                }
                true
            }
        }
    }
}

/// Resolve `stmt` against `catalog`, whose DDL generation is `ddl_gen`.
pub(crate) fn bind(catalog: &Catalog, stmt: &Stmt, ddl_gen: u64) -> DbResult<BoundStmt> {
    let kind = match stmt {
        Stmt::Insert { table, columns, values } => {
            let meta = catalog.table_meta(table)?.clone();
            let schema = &meta.schema;
            let ordinals: Vec<usize> = match columns {
                Some(cols) => {
                    if cols.len() != values.len() {
                        return Err(DbError::Plan(format!(
                            "{} columns but {} values",
                            cols.len(),
                            values.len()
                        )));
                    }
                    cols.iter().map(|c| schema.col_index(c)).collect::<DbResult<_>>()?
                }
                None => {
                    if values.len() != schema.columns.len() {
                        return Err(DbError::Plan(format!(
                            "table {} has {} columns but {} values given",
                            schema.name,
                            schema.columns.len(),
                            values.len()
                        )));
                    }
                    (0..values.len()).collect()
                }
            };
            let values = ordinals
                .into_iter()
                .zip(values)
                .map(|(i, v)| Ok((i, bind_expr(v, None)?)))
                .collect::<DbResult<_>>()?;
            BoundKind::Insert { meta, values }
        }
        Stmt::Select(sel) => BoundKind::Select(bind_select(catalog, sel)?),
        Stmt::Update { table, sets, filter } => {
            let scan = bind_scan(catalog, table, filter.as_ref())?;
            let schema = &scan.meta.schema;
            let sets = sets
                .iter()
                .map(|(col, e)| Ok((schema.col_index(col)?, bind_expr(e, Some(schema))?)))
                .collect::<DbResult<_>>()?;
            BoundKind::Update { scan, sets }
        }
        Stmt::Delete { table, filter } => {
            BoundKind::Delete(bind_scan(catalog, table, filter.as_ref())?)
        }
        Stmt::CreateTable { .. }
        | Stmt::CreateIndex { .. }
        | Stmt::DropTable { .. }
        | Stmt::Explain(_) => BoundKind::Ast,
    };
    Ok(BoundStmt { ddl_gen: AtomicU64::new(ddl_gen), stats_gen: catalog.stats.generation, kind })
}

fn bind_scan(catalog: &Catalog, table: &str, filter: Option<&Expr>) -> DbResult<Scan> {
    let meta = catalog.table_meta(table)?.clone();
    // Resolving the filter first also validates its columns, so the
    // planner never sees a name the table lacks.
    let bound_filter = filter.map(|f| bind_expr(f, Some(&meta.schema))).transpose()?;
    let plan = Arc::new(plan_access(catalog, table, filter)?);
    Ok(Scan { meta, filter: bound_filter, plan })
}

fn bind_select(catalog: &Catalog, sel: &SelectStmt) -> DbResult<BoundSelect> {
    let scan = bind_scan(catalog, &sel.table, sel.filter.as_ref())?;
    let schema = &scan.meta.schema;
    let order_by = sel
        .order_by
        .iter()
        .map(|k| Ok((schema.col_index(&k.column)?, k.desc)))
        .collect::<DbResult<_>>()?;
    let (output, columns): (Output, Vec<String>) = match &sel.projection {
        Projection::Star => (Output::Star, schema.column_names()),
        // Any aggregate makes the whole list aggregates.
        Projection::Items(items) if items.iter().any(|i| !matches!(i, SelectItem::Expr(_))) => {
            let aggs = items
                .iter()
                .map(|item| match item {
                    SelectItem::CountStar => Ok(Aggregate::CountStar),
                    SelectItem::Agg(f, col) => Ok(Aggregate::Column(*f, schema.col_index(col)?)),
                    SelectItem::Expr(_) => Err(DbError::Plan(
                        "plain expressions mixed with aggregates are unsupported".into(),
                    )),
                })
                .collect::<DbResult<_>>()?;
            (Output::Aggregates(aggs), items.iter().map(item_name).collect())
        }
        Projection::Items(items) => {
            let exprs = items
                .iter()
                .map(|item| match item {
                    SelectItem::Expr(e) => bind_expr(e, Some(schema)),
                    _ => unreachable!("aggregate lists take the arm above"),
                })
                .collect::<DbResult<_>>()?;
            (Output::Exprs(exprs), items.iter().map(item_name).collect())
        }
    };
    let except = match &sel.except {
        Some(arm) => Some(Box::new(bind_select(catalog, arm)?)),
        None => None,
    };
    Ok(BoundSelect {
        scan,
        for_update: sel.for_update,
        for_share: sel.for_share,
        order_by,
        output,
        columns: columns.into(),
        except,
    })
}

fn item_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Expr(Expr::Col(c)) => c.clone(),
        SelectItem::Expr(_) => "expr".into(),
        SelectItem::CountStar => "count".into(),
        SelectItem::Agg(AggFn::Count, c) => format!("count_{c}"),
        SelectItem::Agg(AggFn::Min, c) => format!("min_{c}"),
        SelectItem::Agg(AggFn::Max, c) => format!("max_{c}"),
        SelectItem::Agg(AggFn::Sum, c) => format!("sum_{c}"),
    }
}

/// A statement prepared ("bound") against the catalog: names resolved, the
/// access plan chosen and *pinned*, mirroring DB2 static SQL — a later
/// RUNSTATS does not change the plan until the statement is rebound. Cheap
/// to clone; clones share one binding, like the users of one DB2 package.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) shared: Arc<PreparedShared>,
}

#[derive(Debug)]
pub(crate) struct PreparedShared {
    pub sql: Arc<str>,
    pub stmt: Stmt,
    /// Dynamic statements also follow the statistics generation.
    pub dynamic: bool,
    /// The current binding; replaced, never edited, on rebind.
    pub bound: RwLock<Arc<BoundStmt>>,
    /// A statement derived from this one, with the DDL generation it was
    /// derived at (see [`crate::Database::bind_derived`]).
    pub derived: RwLock<Option<(u64, Prepared)>>,
}

impl Prepared {
    pub(crate) fn new(sql: &str, stmt: Stmt, bound: BoundStmt, dynamic: bool) -> Prepared {
        let bound = RwLock::new(Arc::new(bound));
        let derived = RwLock::new(None);
        Prepared {
            shared: Arc::new(PreparedShared { sql: sql.into(), stmt, dynamic, bound, derived }),
        }
    }

    /// Original SQL text.
    pub fn sql(&self) -> &str {
        &self.shared.sql
    }

    /// The parsed statement (for layers — like the datalink engine — that
    /// inspect a statement before running it).
    pub fn stmt(&self) -> &Stmt {
        &self.shared.stmt
    }

    /// The plan bound at prepare time, if the statement has one.
    pub fn plan(&self) -> Option<Arc<TablePlan>> {
        self.shared.bound.read().main_scan().map(|scan| scan.plan.clone())
    }

    /// EXPLAIN-style rendering of the bound plan.
    pub fn explain(&self, db: &crate::Database) -> String {
        match self.plan() {
            Some(plan) => db.render_plan(&plan),
            None => "NO PLAN (DDL or INSERT)".into(),
        }
    }
}

/// Dynamic statements kept per database. A constant: DB2 sizes its package
/// cache in pages, not by workload; 256 texts is several times what the
/// host, the DLFM and its daemons issue between them.
pub const STMT_CACHE_CAPACITY: usize = 256;

/// The dynamic statement cache: text → [`Prepared`], bounded, oldest
/// binding evicted first. Keyed by the FNV-1a hash of the text (the full
/// text is compared on a hit, so a collision is a miss, never a wrong
/// statement).
#[derive(Default)]
pub(crate) struct StmtCache {
    entries: HashMap<u64, Prepared>,
    /// Keys in insertion order.
    order: VecDeque<u64>,
}

impl StmtCache {
    pub fn get(&self, sql: &str) -> Option<Prepared> {
        self.entries.get(&obs::fault::fnv1a(sql)).filter(|p| p.sql() == sql).cloned()
    }

    pub fn insert(&mut self, p: Prepared) {
        let key = obs::fault::fnv1a(p.sql());
        if self.entries.insert(key, p).is_none() {
            self.order.push_back(key);
            if self.order.len() > STMT_CACHE_CAPACITY {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}
