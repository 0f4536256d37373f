//! The database engine: statement execution, locking protocol, logging,
//! crash and restart.
//!
//! Locking protocol (DB2-flavoured):
//!
//! * every read takes a table IS lock plus S locks on the rows it touches;
//!   under cursor stability those S locks are released at statement end;
//! * every write takes a table IX lock plus X row locks held to commit
//!   (strict 2PL);
//! * when **next-key locking** is enabled, index probes additionally S/X
//!   lock the index keys they traverse and modifications X-lock the key and
//!   its *next* key (ARIES/KVL-style), which is what makes concurrent
//!   multi-index DML deadlock-prone (paper §3.2.1);
//! * a full scan row-locks everything it reads — with an UPDATE/DELETE this
//!   means X locks on the whole table's rows, the "havoc" of §4 when the
//!   optimizer picks a table scan.
//!
//! Every statement — text, AST or prepared — is first *bound*
//! ([`crate::bind`]) and then run by the one executor here, which works by
//! reference off the binding: no catalog access, no name resolution and no
//! schema or plan copies on the statement path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

pub use crate::bind::Prepared;
use crate::bind::{
    bind, Aggregate, BoundKind, BoundSelect, BoundStmt, Output, PreparedShared, Scan, StmtCache,
};
use crate::catalog::{Catalog, TableMeta};
use crate::config::DbConfig;
use crate::error::{DbError, DbResult};
use crate::eval::{eval, eval_pred, BoundExpr};
use crate::lock::{LockManager, LockMetrics, LockMode, Res};
use crate::log::Lsn;
use crate::mvcc::{Mvcc, StaleKey};
use crate::plan::{plan_access, AccessPath, TablePlan};
use crate::schema::{ColumnDef, IndexId, IndexSchema, TableId, TableSchema};
use crate::sql::ast::{AggFn, Expr, Stmt};
use crate::sql::parser::parse;
use crate::storage::{IndexData, Storage, TableData};
use crate::txn::{Savepoint, Txn, TxnId, TxnState, UndoOp};
use crate::value::{Row, Value};
use crate::wal::{LogPayload, LogRecord, Wal};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// SELECT result: column names and rows.
    Rows {
        /// Output column names (one header shared by every result of the
        /// statement).
        columns: Arc<[String]>,
        /// Result rows.
        rows: Vec<Row>,
    },
    /// Rows affected by INSERT/UPDATE/DELETE.
    Count(usize),
    /// DDL succeeded.
    Unit,
}

impl ExecResult {
    /// Rows of a SELECT result (empty for other results).
    pub fn rows(self) -> Vec<Row> {
        match self {
            ExecResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        }
    }

    /// Affected-row count (0 for other results).
    pub fn count(&self) -> usize {
        match self {
            ExecResult::Count(n) => *n,
            ExecResult::Rows { rows, .. } => rows.len(),
            ExecResult::Unit => 0,
        }
    }
}

/// One entry of the slow-statement log: a statement that ran over the
/// configured threshold, with the forensics needed to explain *why* — the
/// access plan (with the optimizer's cost/cardinality estimates) and how
/// much of the elapsed time was spent blocked in the lock manager.
#[derive(Debug, Clone)]
pub struct SlowStatement {
    /// SQL text, when the statement came in as text (AST-level execution
    /// has none).
    pub sql: Option<String>,
    /// Total statement wall-clock time, microseconds.
    pub micros: u64,
    /// Portion spent blocked waiting for locks, microseconds.
    pub lock_wait_micros: u64,
    /// EXPLAIN plan text with cost/rows estimates, when the statement has
    /// an access plan.
    pub plan: Option<String>,
    /// Monotonic microseconds since process start (journal clock).
    pub at_micros: u64,
}

impl SlowStatement {
    /// One-line rendering for status surfaces and dumps.
    pub fn render(&self) -> String {
        format!(
            "{}us (lock wait {}us) {} | plan: {}",
            self.micros,
            self.lock_wait_micros,
            self.sql.as_deref().unwrap_or("(ast statement)"),
            self.plan.as_deref().unwrap_or("(none)")
        )
    }
}

/// Slow statements retained per database (oldest evicted first).
pub const SLOW_LOG_CAPACITY: usize = 32;

/// A full backup image of a database: the committed catalog, heaps and
/// index trees, and the LSN redo over it starts at. Produced by
/// [`Database::backup_image`] (and by every checkpoint), consumed by
/// [`Database::restore_image`]; the empty image is what a crash leaves.
#[derive(Clone, Default)]
pub struct DbImage {
    catalog: Catalog,
    tables: Vec<(TableId, TableData)>,
    indexes: Vec<(IndexId, IndexData)>,
    redo_lsn: Lsn,
}

/// `slow_threshold_nanos` value meaning "log nothing".
const SLOW_LOG_OFF: u64 = u64::MAX;

obs::counters! {
    /// Bound-statement counters (the `minidb_stmt_*` metric family).
    struct StmtCounters {
        /// Statements parsed and bound (`prepare`, AST execution, cache misses).
        binds: counter "minidb_stmt_binds_total"
            "Statements parsed and bound (prepare, AST execution, statement-cache misses).",
        /// Text statements served from the dynamic statement cache.
        cache_hits: counter "minidb_stmt_cache_hits_total"
            "Text statements served from the dynamic statement cache (no parse, no plan).",
        /// Bindings replaced because DDL changed a table they resolved.
        rebinds_ddl: counter "minidb_stmt_rebinds_total" {cause = "ddl"}
            "Bindings replaced before a run: DDL changed a table they resolved, or (dynamic statements only) the statistics moved.",
        /// Dynamic bindings replanned because the statistics moved.
        rebinds_stats: counter "minidb_stmt_rebinds_total" {cause = "stats"}
            "Bindings replaced before a run: DDL changed a table they resolved, or (dynamic statements only) the statistics moved.",
    }
}

struct DbInner {
    catalog: RwLock<Catalog>,
    /// Catalog DDL generation: moves whenever a table definition may have
    /// changed — every DDL statement, and every wholesale replacement of
    /// the catalog (restore, crash, restart). Written only under the
    /// catalog write lock ([`Database::catalog_mut`]); a bound statement
    /// stamped with the current value needs no catalog access to run.
    ddl_gen: AtomicU64,
    /// `catalog.stats.generation`, republished after every catalog write so
    /// dynamic statements can notice a statistics change without the lock.
    stats_gen: AtomicU64,
    stmt_cache: Mutex<StmtCache>,
    stmt_counters: StmtCounters,
    storage: Storage,
    lm: LockManager,
    wal: Wal,
    next_txn: AtomicU64,
    online: AtomicBool,
    next_key_locking: AtomicBool,
    checkpoint: Mutex<Option<DbImage>>,
    /// Slow-statement threshold in nanoseconds ([`SLOW_LOG_OFF`] = none);
    /// read by every statement.
    slow_threshold_nanos: AtomicU64,
    slow_log: Mutex<std::collections::VecDeque<SlowStatement>>,
    versions: Mvcc,
}

/// A shared handle to one database. Cheap to clone; thread-safe.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

fn threshold_nanos(t: Option<std::time::Duration>) -> u64 {
    t.map_or(SLOW_LOG_OFF, |d| (d.as_nanos() as u64).min(SLOW_LOG_OFF - 1))
}

impl Database {
    /// Create an empty database with the given configuration.
    pub fn new(config: DbConfig) -> Database {
        Database {
            inner: Arc::new(DbInner {
                catalog: RwLock::new(Catalog::default()),
                ddl_gen: AtomicU64::new(0),
                stats_gen: AtomicU64::new(0),
                stmt_cache: Mutex::new(StmtCache::default()),
                stmt_counters: StmtCounters::default(),
                storage: Storage::default(),
                lm: LockManager::new(
                    config.lock_timeout,
                    config.lock_escalation_threshold,
                    config.lock_list_capacity,
                    config.deadlock_detection,
                ),
                wal: {
                    let wal = Wal::new(config.log_capacity_records, config.log_force_latency);
                    wal.set_group_commit(config.group_commit);
                    wal
                },
                next_txn: AtomicU64::new(1),
                online: AtomicBool::new(true),
                next_key_locking: AtomicBool::new(config.next_key_locking),
                checkpoint: Mutex::new(None),
                slow_threshold_nanos: AtomicU64::new(threshold_nanos(
                    config.slow_statement_threshold,
                )),
                slow_log: Mutex::new(std::collections::VecDeque::new()),
                versions: Mvcc::new(config.mvcc),
            }),
        }
    }

    fn check_online(&self) -> DbResult<()> {
        if self.inner.online.load(AtomicOrdering::Acquire) {
            Ok(())
        } else {
            Err(DbError::Offline)
        }
    }

    /// The one way the catalog is written. `ddl`: table definitions may
    /// have changed, so bound statements must revalidate. Both generations
    /// are published while the write lock is still held, which is what lets
    /// readers trust them after merely taking the read lock.
    fn catalog_mut<R>(&self, ddl: bool, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let mut catalog = self.inner.catalog.write();
        let out = f(&mut catalog);
        if ddl {
            self.inner.ddl_gen.fetch_add(1, AtomicOrdering::Release);
        }
        self.inner.stats_gen.store(catalog.stats.generation, AtomicOrdering::Release);
        out
    }

    /// Replace catalog, heaps and trees with an image's (restore, crash,
    /// restart); the queued history refers to the heaps replaced, and after
    /// a crash the snapshots of the readers it killed go too. The
    /// statistics generation keeps rising across the swap, so "the
    /// statistics a plan was bound under" can never be confused with an
    /// older registry that happens to carry the same number.
    fn install(&self, image: &DbImage, crashed: bool) {
        let mut fresh = image.catalog.clone();
        self.catalog_mut(true, |catalog| {
            fresh.stats.generation = fresh.stats.generation.max(catalog.stats.generation) + 1;
            *catalog = fresh;
        });
        self.inner.storage.install(&image.tables, &image.indexes);
        self.inner.versions.reset(crashed);
    }

    /// A table's definition by id (commit, undo and redo paths, which know
    /// tables by id only).
    fn meta_by_id(&self, table: TableId) -> Option<Arc<TableMeta>> {
        self.inner.catalog.read().table_meta_by_id(table).ok().cloned()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a new transaction.
    pub fn begin(&self) -> Txn {
        let id = TxnId(self.inner.next_txn.fetch_add(1, AtomicOrdering::SeqCst));
        Txn::new(id)
    }

    /// Commit: force the log, release all locks.
    pub fn commit(&self, txn: &mut Txn) -> DbResult<()> {
        self.commit_with(txn, true)
    }

    /// Lazy commit: append the COMMIT record, publish the versions and
    /// release the locks **without** forcing the log. The record hardens
    /// with the next force anyone performs; because the log is sequential
    /// it can be lost only together with everything appended after it —
    /// never while a later forced commit survives — and a lost lazy commit
    /// is simply a loser at [`Database::restart`]. For work an existing
    /// recovery path re-drives (daemon batches, presumed-abort aborts,
    /// chunk commits a later Prepare covers), not for anything a caller
    /// was promised.
    pub fn commit_lazy(&self, txn: &mut Txn) -> DbResult<()> {
        self.commit_with(txn, false)
    }

    /// The one commit body; `force` is the only difference between
    /// [`Database::commit`] and [`Database::commit_lazy`].
    fn commit_with(&self, txn: &mut Txn, force: bool) -> DbResult<()> {
        let mut span = obs::span(obs::Layer::Minidb, "commit");
        self.check_online().inspect_err(|_| span.fail())?;
        txn.check_active().inspect_err(|_| span.fail())?;
        // A read-only transaction needs no log records.
        if !txn.undo.is_empty() {
            let commit_rec = match self.inner.wal.append(txn.id, LogPayload::Commit) {
                Ok(rec) => rec,
                Err(e) => {
                    // The caller has already given the transaction up
                    // (`Session` takes it before calling), so nobody else
                    // will: undo its changes and free its locks here.
                    span.fail();
                    self.rollback(txn);
                    return Err(e);
                }
            };
            // Forced: block until the commit record is durable (one
            // group-commit force may cover many committers). `false` means
            // a simulated crash destroyed our record — the commit must NOT
            // be reported as successful. The receipt carries the
            // append-time crash epoch, so the verdict is exact even across
            // LSN reuse. Lazy: whoever forces next hardens the record.
            if !force {
                self.inner.wal.note_lazy_commit();
            } else if !self.inner.wal.force_up_to(commit_rec) {
                span.fail();
                txn.state = TxnState::Aborted;
                // The crash takes the heap and its chains with it.
                self.inner.versions.release_snapshot(txn);
                self.inner.lm.release_all(txn.id);
                return Err(DbError::Offline);
            }
        }
        // Publish: stamp the written rows' heap images with the commit
        // timestamp. The transaction reads no more, so its own snapshot
        // holds nothing back. A deleted row's slot is reused only once its
        // chain retires.
        let retire = (!txn.undo.is_empty()).then(|| {
            self.inner.versions.release_snapshot(txn);
            let ended = self.end(&txn.undo, Some(txn.id), Vec::new(), false);
            self.inner.wal.settled(txn.id);
            ended
        });
        txn.undo.clear();
        txn.state = TxnState::Committed;
        self.inner.versions.release_snapshot(txn);
        self.inner.lm.release_all(txn.id);
        self.release_held(txn);
        if let Some((watermark, budget)) = retire {
            self.inner.versions.retire_ripe(&self.inner.storage, watermark, budget);
        }
        Ok(())
    }

    /// Roll back the whole transaction and release all locks. Nothing is
    /// logged: with no COMMIT record the transaction is a loser, whose
    /// records redo never reads.
    pub fn rollback(&self, txn: &mut Txn) {
        let (mut stale, mut clean) = (Vec::new(), Vec::new());
        if txn.state == TxnState::Active {
            let ops = txn.drain_all();
            if !ops.is_empty() {
                (stale, clean, _) = self.apply_undo(ops, None);
                self.inner.wal.settled(txn.id);
            }
            txn.state = TxnState::Aborted;
        }
        // The chains go only after the heap is restored, so snapshot
        // readers never resolve a half-undone image.
        self.inner.versions.release_snapshot(txn);
        let (watermark, budget) = self.end(&clean, None, stale, false);
        self.inner.lm.release_all(txn.id);
        self.release_held(txn);
        self.inner.versions.retire_ripe(&self.inner.storage, watermark, budget);
    }

    /// [`Mvcc::end`] over this database's heaps and catalog.
    fn end(
        &self,
        rows: &[UndoOp],
        publish: Option<TxnId>,
        stale: Vec<StaleKey>,
        hold: bool,
    ) -> (u64, usize) {
        let meta_of = |table| self.meta_by_id(table);
        self.inner.versions.end(&self.inner.storage, meta_of, rows, publish, stale, hold)
    }

    /// Free the slots a savepoint rollback emptied, now that the
    /// transaction no longer locks their rows.
    fn release_held(&self, txn: &mut Txn) {
        for (table, rowid) in std::mem::take(&mut txn.held) {
            // Fails only on a table dropped since: no slot left to free.
            let _ = self.inner.storage.with_table_mut(table, |t| t.release(rowid));
        }
    }

    // ------------------------------------------------------------------
    // MVCC: snapshots, commit publication, version GC
    // ------------------------------------------------------------------

    /// Retire all queued history behind the oldest active snapshot — the
    /// full drain for tests and quiesce points (a transaction end retires
    /// only a share bounded by its own writes). Returns the watermark used.
    pub fn mvcc_gc(&self) -> u64 {
        self.inner.versions.gc(&self.inner.storage)
    }

    /// Roll back to a savepoint. Locks are retained (DB2 semantics). The
    /// undo is logged, since the transaction may still commit; should the
    /// log refuse a compensation record (only an injected fault can), the
    /// whole transaction rolls back and the error is returned.
    pub fn rollback_to(&self, txn: &mut Txn, sp: Savepoint) -> DbResult<()> {
        txn.check_active()?;
        let ops = txn.drain_to_savepoint(sp);
        // Rows left with no write are clean again and their chains take
        // the rollback path; the transaction's own snapshot still counts.
        let (stale, clean, logged) = self.apply_undo(ops, Some(&mut *txn));
        self.end(&clean, None, stale, true);
        logged.map_err(|e| {
            self.rollback(txn);
            DbError::RolledBack(e.to_string())
        })?;
        if txn.undo.is_empty() {
            self.inner.wal.settled(txn.id); // no COMMIT will be logged
        }
        Ok(())
    }

    /// Undo writes (newest first): each pops its row's chain top back into
    /// the heap and maintains the indexes from the image undone and the one
    /// restored. In a savepoint rollback (`sp`), each is logged as a
    /// compensation record carrying the restored image, until the log
    /// refuses one: that error is returned beside the index entries to
    /// retire and the rows left clean. The transaction keeps its locks, so
    /// a slot the undo emptied is held until it ends (only those: a live
    /// row's slot is freed once, by its deleter).
    ///
    /// Under MVCC, index entries are never removed here: an entry this
    /// transaction is backing out may coincide with one an older snapshot
    /// still needs (a reused slot or a restored key), so they come back as
    /// stale keys for [`Mvcc::end`].
    fn apply_undo(
        &self,
        ops: Vec<UndoOp>,
        mut sp: Option<&mut Txn>,
    ) -> (Vec<StaleKey>, Vec<UndoOp>, DbResult<()>) {
        let (mut stale, mut clean, mut logged) = (Vec::new(), Vec::new(), Ok(()));
        for (table, rowid) in ops {
            // A table dropped since (DDL is not transactional) has nothing
            // left to restore.
            let Some(meta) = self.meta_by_id(table) else { continue };
            let undone = self.inner.storage.with_table_mut(table, |t| t.undo(rowid));
            let Ok(Some((undone, restored, now_clean))) = undone else { continue };
            for (index_pos, ix) in meta.indexes.iter().enumerate() {
                if let (Some(u), Some(r)) = (&undone, &restored) {
                    if ix.same_key(u, r) {
                        continue;
                    }
                }
                if let Some(r) = &restored {
                    // Fails only on a tree dropped with its table.
                    let key = ix.key(r);
                    let _ = self.inner.storage.with_index_mut(ix.id, |t| t.insert(key, rowid));
                }
                if let Some(u) = &undone {
                    let key = ix.key(u);
                    if self.inner.versions.on {
                        stale.push(StaleKey { meta: meta.clone(), index_pos, key, rowid });
                    } else {
                        // Fails only on a tree dropped with its table.
                        let _ = self.inner.storage.with_index_mut(ix.id, |t| t.remove(&key, rowid));
                    }
                }
            }
            if now_clean {
                clean.push((table, rowid));
            }
            let Some(txn) = sp.as_deref_mut() else { continue };
            if now_clean && restored.is_none() {
                txn.held.push((table, rowid));
            }
            if logged.is_ok() {
                let table = table.0;
                let clr = match (restored, undone.is_some()) {
                    (None, _) => LogPayload::Delete { table, rowid },
                    (Some(row), false) => LogPayload::Insert { table, rowid, row },
                    (Some(new), true) => LogPayload::Update { table, rowid, new },
                };
                logged = self.inner.wal.compensate(txn.id, clr).map(drop);
            }
        }
        (stale, clean, logged)
    }

    // ------------------------------------------------------------------
    // Statement entry points: bind, then run
    // ------------------------------------------------------------------

    /// Execute `sql` inside `txn`. The text is bound through the dynamic
    /// statement cache, so a repeated statement is neither parsed nor
    /// planned again until DDL or a statistics change invalidates it.
    pub fn exec(&self, txn: &mut Txn, sql: &str, params: &[Value]) -> DbResult<ExecResult> {
        let p = self.bind_cached(sql)?;
        self.exec_prepared(txn, &p, params)
    }

    /// Execute an already-parsed statement inside `txn` (for layers that
    /// build statements rather than text). Bound for this one run.
    pub fn execute(&self, txn: &mut Txn, stmt: &Stmt, params: &[Value]) -> DbResult<ExecResult> {
        self.check_online()?;
        let bound = self.bind_now(stmt)?;
        self.run(txn, stmt, &bound, None, params)
    }

    /// Execute a prepared statement with its pinned plan.
    pub fn exec_prepared(
        &self,
        txn: &mut Txn,
        p: &Prepared,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        self.check_online()?;
        let bound = self.current_binding(&p.shared)?;
        self.run(txn, &p.shared.stmt, &bound, Some(&p.shared.sql), params)
    }

    /// Prepare (bind) a static statement: parse, resolve names and pin its
    /// access plan now. RUNSTATS does not change the plan until
    /// [`Database::rebind`].
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        let stmt = parse(sql)?;
        let bound = self.bind_now(&stmt)?;
        Ok(Prepared::new(sql, stmt, bound, false))
    }

    /// Bind `sql` as a dynamic statement through the statement cache: the
    /// handle [`Database::exec`] runs. Layers that must look at a statement
    /// before running it (the host's datalink engine) take the handle, read
    /// [`Prepared::stmt`], and pass it to [`Database::exec_prepared`].
    pub fn bind_cached(&self, sql: &str) -> DbResult<Prepared> {
        self.check_online()?;
        if let Some(p) = self.inner.stmt_cache.lock().get(sql) {
            self.inner.stmt_counters.cache_hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok(p);
        }
        let stmt = parse(sql)?;
        let bound = self.bind_now(&stmt)?;
        let p = Prepared::new(sql, stmt, bound, true);
        self.inner.stmt_cache.lock().insert(p.clone());
        Ok(p)
    }

    /// A statement a layer above derives from `p`'s AST (the host's
    /// datalink probe of an UPDATE or DELETE), bound once as a dynamic
    /// statement and kept with `p`, so every run of `p` reuses it. DDL
    /// derives it again (`derive` may depend on the catalog); a statistics
    /// change replans it, like any dynamic statement.
    pub fn bind_derived(
        &self,
        p: &Prepared,
        derive: impl FnOnce(&Stmt) -> Stmt,
    ) -> DbResult<Prepared> {
        let ddl_gen = self.inner.ddl_gen.load(AtomicOrdering::Acquire);
        if let Some((gen, d)) = &*p.shared.derived.read() {
            if *gen == ddl_gen {
                return Ok(d.clone());
            }
        }
        let stmt = derive(&p.shared.stmt);
        let bound = self.bind_now(&stmt)?;
        let d = Prepared::new(&p.shared.sql, stmt, bound, true);
        *p.shared.derived.write() = Some((ddl_gen, d.clone()));
        Ok(d)
    }

    /// Bind against the catalog as it is now.
    fn bind_now(&self, stmt: &Stmt) -> DbResult<BoundStmt> {
        self.inner.stmt_counters.binds.fetch_add(1, AtomicOrdering::Relaxed);
        let catalog = self.inner.catalog.read();
        bind(&catalog, stmt, self.inner.ddl_gen.load(AtomicOrdering::Acquire))
    }

    /// The binding to run `p` with: its current one when nothing it depends
    /// on has moved (two atomic loads, no catalog access), otherwise a
    /// revalidated or fresh one.
    fn current_binding(&self, p: &PreparedShared) -> DbResult<Arc<BoundStmt>> {
        let bound = p.bound.read().clone();
        let stats_moved =
            p.dynamic && bound.stats_gen != self.inner.stats_gen.load(AtomicOrdering::Acquire);
        let ddl_moved = bound.ddl_gen.load(AtomicOrdering::Relaxed)
            != self.inner.ddl_gen.load(AtomicOrdering::Acquire);
        if stats_moved || ddl_moved {
            self.revalidate(p, bound, stats_moved)
        } else {
            Ok(bound)
        }
    }

    /// Slow path of [`Database::current_binding`]. DDL somewhere in the
    /// catalog leaves a binding valid when its own tables are untouched
    /// (the plan stays pinned); a changed table rebinds, or fails cleanly
    /// when the table or a referenced column is gone.
    #[cold]
    fn revalidate(
        &self,
        p: &PreparedShared,
        bound: Arc<BoundStmt>,
        stats_moved: bool,
    ) -> DbResult<Arc<BoundStmt>> {
        let catalog = self.inner.catalog.read();
        // Generations move only under the catalog write lock.
        let ddl_gen = self.inner.ddl_gen.load(AtomicOrdering::Acquire);
        let valid = bound.still_valid(&catalog);
        if valid && !stats_moved {
            bound.ddl_gen.store(ddl_gen, AtomicOrdering::Relaxed);
            return Ok(bound);
        }
        let fresh = Arc::new(bind(&catalog, &p.stmt, ddl_gen)?);
        let counters = &self.inner.stmt_counters;
        let cause = if valid { &counters.rebinds_stats } else { &counters.rebinds_ddl };
        cause.fetch_add(1, AtomicOrdering::Relaxed);
        *p.bound.write() = fresh.clone();
        Ok(fresh)
    }

    /// Re-bind a prepared statement against the current catalog and
    /// statistics (every clone of it sees the new plan).
    pub fn rebind(&self, p: &Prepared) -> DbResult<()> {
        let fresh = self.bind_now(&p.shared.stmt)?;
        *p.shared.bound.write() = Arc::new(fresh);
        Ok(())
    }

    /// True when the plan was bound against statistics that have since
    /// changed (DLFM checks this to know when to re-apply its hand-crafted
    /// stats and rebind).
    pub fn plan_is_stale(&self, p: &Prepared) -> bool {
        p.plan().is_some_and(|plan| {
            plan.stats_generation != self.inner.stats_gen.load(AtomicOrdering::Acquire)
        })
    }

    /// A table's definition — schema and indexes (public lookup for engine
    /// layers).
    pub fn table_meta(&self, table: &str) -> DbResult<Arc<TableMeta>> {
        Ok(self.inner.catalog.read().table_meta(table)?.clone())
    }

    /// Names of all user tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().all_tables().iter().map(|s| s.name.clone()).collect()
    }

    pub(crate) fn render_plan(&self, plan: &TablePlan) -> String {
        plan.render(&self.inner.catalog.read())
    }

    // ------------------------------------------------------------------
    // The executor: one statement body, driven by a binding
    // ------------------------------------------------------------------

    fn run(
        &self,
        txn: &mut Txn,
        stmt: &Stmt,
        bound: &BoundStmt,
        sql: Option<&Arc<str>>,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        txn.check_active()?;
        txn.statements += 1;
        // Register the SQL for deadlock forensics; reset the per-thread
        // lock-wait accumulator so the slow-statement log can attribute
        // blocked time to this statement alone.
        if let Some(sql) = sql {
            self.inner.lm.set_current_sql(txn.id, sql);
        }
        let _ = crate::lock::take_stmt_lock_wait();
        let slow_nanos = self.inner.slow_threshold_nanos.load(AtomicOrdering::Relaxed);
        let started = (slow_nanos != SLOW_LOG_OFF).then(std::time::Instant::now);
        let result = match &bound.kind {
            BoundKind::Insert { meta, values } => self.exec_insert(txn, meta, values, params),
            BoundKind::Select(sel) => self.exec_select(txn, sel, params),
            BoundKind::Update { scan, sets } => self.exec_update(txn, scan, sets, params),
            BoundKind::Delete(scan) => self.exec_delete(txn, scan, params),
            BoundKind::Ast => match stmt {
                Stmt::CreateTable { name, columns } => self.ddl_create_table(name, columns),
                Stmt::CreateIndex { name, table, columns, unique } => {
                    self.ddl_create_index(name, table, columns, *unique)
                }
                Stmt::DropTable { name } => self.ddl_drop_table(name),
                Stmt::Explain(inner) => self.exec_explain(inner),
                dml => Err(DbError::Internal(format!("no binding for {dml:?}"))),
            },
        };
        // Cursor stability: read locks do not survive the statement.
        self.inner.lm.release_shared(txn.id);
        if let Some(started) = started {
            let elapsed = started.elapsed();
            if elapsed.as_nanos() as u64 >= slow_nanos {
                self.record_slow_statement(txn.id, bound, sql, elapsed);
            }
        }
        result
    }

    /// Append to the slow-statement log (and journal): plan text with the
    /// optimizer's cost/cardinality estimates plus the lock-wait share of
    /// the elapsed time.
    fn record_slow_statement(
        &self,
        txn: TxnId,
        bound: &BoundStmt,
        sql: Option<&Arc<str>>,
        elapsed: std::time::Duration,
    ) {
        let entry = SlowStatement {
            sql: sql.map(|s| s.to_string()),
            micros: elapsed.as_micros() as u64,
            lock_wait_micros: crate::lock::take_stmt_lock_wait(),
            plan: bound.main_scan().map(|scan| self.render_plan(&scan.plan)),
            at_micros: obs::journal::now_micros(),
        };
        obs::journal::record(obs::journal::JournalKind::SlowStatement, txn.0 as i64, || {
            entry.render()
        });
        let mut log = self.inner.slow_log.lock();
        if log.len() >= SLOW_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(entry);
    }

    fn exec_explain(&self, stmt: &Stmt) -> DbResult<ExecResult> {
        Ok(ExecResult::Rows {
            columns: vec!["plan".to_string()].into(),
            rows: vec![vec![Value::Str(self.explain_text(stmt)?)]],
        })
    }

    /// EXPLAIN text for any plannable statement.
    ///
    /// Every DML shape the engine can run gets an answer: SELECT (both
    /// arms when EXCEPT is present), UPDATE, DELETE, and INSERT (which has
    /// no access path, only heap append plus index maintenance — stated
    /// rather than rejected). DDL has no plan and errors clearly.
    fn explain_text(&self, stmt: &Stmt) -> DbResult<String> {
        let catalog = self.inner.catalog.read();
        match stmt {
            Stmt::Select(sel) => {
                let mut text =
                    plan_access(&catalog, &sel.table, sel.filter.as_ref())?.render(&catalog);
                if let Some(e) = &sel.except {
                    let ep = plan_access(&catalog, &e.table, e.filter.as_ref())?;
                    text = format!("{text}\nEXCEPT\n{}", ep.render(&catalog));
                }
                Ok(text)
            }
            Stmt::Update { table, filter, .. } | Stmt::Delete { table, filter } => {
                Ok(plan_access(&catalog, table, filter.as_ref())?.render(&catalog))
            }
            Stmt::Insert { table, .. } => {
                let meta = catalog.table_meta(table)?;
                Ok(format!(
                    "INSERT {} (heap append + {} index maintenance) cost=1.0 rows=1.0",
                    meta.schema.name,
                    meta.indexes.len()
                ))
            }
            Stmt::Explain(inner) => {
                drop(catalog);
                self.explain_text(inner)
            }
            Stmt::CreateTable { .. } | Stmt::CreateIndex { .. } | Stmt::DropTable { .. } => {
                Err(DbError::Plan(
                    "EXPLAIN does not support DDL: CREATE/DROP statements have no access plan"
                        .into(),
                ))
            }
        }
    }

    // ------------------------------------------------------------------
    // DDL (auto-committed in an internal transaction)
    // ------------------------------------------------------------------

    fn ddl_create_table(
        &self,
        name: &str,
        columns: &[(String, crate::value::DataType, bool)],
    ) -> DbResult<ExecResult> {
        let ddl_txn = self.begin();
        let cols: Vec<ColumnDef> = columns
            .iter()
            .map(|(n, t, nn)| ColumnDef { name: n.clone(), ty: *t, not_null: *nn })
            .collect();
        let schema = self.catalog_mut(true, |catalog| catalog.create_table(name, cols))?;
        self.inner.storage.create_table(schema.id);
        self.inner.wal.append(ddl_txn.id, LogPayload::CreateTable { schema })?;
        self.force_ddl(ddl_txn.id)
    }

    fn ddl_create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> DbResult<ExecResult> {
        let ddl_txn = self.begin();
        let schema =
            self.catalog_mut(true, |catalog| catalog.create_index(name, table, columns, unique))?;
        // Backfill from existing rows.
        self.inner.storage.create_index(&schema)?;
        let dup =
            self.inner.storage.with_index(schema.id, |t| t.first_duplicate().map(<[_]>::to_vec))?;
        if let Some(dup) = dup.filter(|_| unique) {
            // Roll the DDL back.
            self.catalog_mut(true, |catalog| catalog.drop_index(&schema.name))?;
            self.inner.storage.drop_index(schema.id);
            return Err(DbError::UniqueViolation {
                index: schema.name.clone(),
                key: format!("{dup:?}"),
            });
        }
        self.inner.wal.append(ddl_txn.id, LogPayload::CreateIndex { schema })?;
        self.force_ddl(ddl_txn.id)
    }

    fn ddl_drop_table(&self, name: &str) -> DbResult<ExecResult> {
        let ddl_txn = self.begin();
        let (tid, idxs) = self.catalog_mut(true, |catalog| catalog.drop_table(name))?;
        self.inner.storage.drop_table(tid);
        for ix in idxs {
            self.inner.storage.drop_index(ix);
        }
        self.inner.wal.append(ddl_txn.id, LogPayload::DropTable { table: tid.0 })?;
        self.force_ddl(ddl_txn.id)
    }

    /// Commit a DDL statement's internal transaction, forced.
    fn force_ddl(&self, txn: TxnId) -> DbResult<ExecResult> {
        let commit_rec = self.inner.wal.append(txn, LogPayload::Commit)?;
        if !self.inner.wal.force_up_to(commit_rec) {
            return Err(DbError::Offline);
        }
        // DDL applies at once: an image taken from here on holds it.
        self.inner.wal.settled(txn);
        Ok(ExecResult::Unit)
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn exec_insert(
        &self,
        txn: &mut Txn,
        meta: &TableMeta,
        values: &[(usize, BoundExpr)],
        params: &[Value],
    ) -> DbResult<ExecResult> {
        // Build the full row in schema order.
        let mut row: Row = vec![Value::Null; meta.schema.columns.len()];
        for (i, v) in values {
            row[*i] = eval(v, &[], params)?.into_owned();
        }
        validate_row(&meta.schema, &row)?;
        self.insert_row(txn, meta, row)?;
        Ok(ExecResult::Count(1))
    }

    /// X-lock an index key and its next key (ARIES/KVL) for an insert or a
    /// delete of `key`. `eof`: also lock the end-of-index marker when `key`
    /// is the largest.
    fn lock_key_and_next(
        &self,
        txn: TxnId,
        table: TableId,
        index: IndexId,
        key: &[Value],
        eof: bool,
    ) -> DbResult<()> {
        let lm = &self.inner.lm;
        lm.lock(txn, Res::Key(table, index, key.to_vec()), LockMode::X)?;
        match self.inner.storage.with_index(index, |t| t.next_key(key))? {
            Some(next) => lm.lock(txn, Res::Key(table, index, next), LockMode::X),
            None if eof => lm.lock(txn, Res::KeyEof(table, index), LockMode::X),
            None => Ok(()),
        }
    }

    /// Insert a validated row: locking, logging, physical apply. The row is
    /// cloned once (for the log) and moved into the heap; each index key is
    /// extracted once and moved into its tree.
    fn insert_row(&self, txn: &mut Txn, meta: &TableMeta, row: Row) -> DbResult<u64> {
        let table = meta.schema.id;
        self.inner.lm.lock(txn.id, Res::Table(table), LockMode::IX)?;
        let keys: Vec<Vec<Value>> = meta.indexes.iter().map(|ix| ix.key(&row)).collect();

        // Key locks, in index-creation order (the order DB2 updates them).
        if self.inner.next_key_locking.load(AtomicOrdering::Relaxed) {
            for (ix, key) in meta.indexes.iter().zip(&keys) {
                self.lock_key_and_next(txn.id, table, ix.id, key, true)?;
            }
        }

        // Physical apply: atomic unique check + mutation under the table's
        // apply mutex.
        let guard = self.inner.storage.write_guard(table)?;
        let _g = guard.lock();
        for (ix, key) in meta.indexes.iter().zip(&keys) {
            if ix.unique && self.unique_clash(table, ix, key, None)? {
                return Err(DbError::UniqueViolation {
                    index: ix.name.clone(),
                    key: render_key(key),
                });
            }
        }
        let rowid = self.inner.storage.with_table_mut(table, |t| t.reserve())?;
        // The row is invisible to others until inserted; the X lock is
        // uncontended but required so later readers block until commit.
        self.inner.lm.lock(txn.id, Res::Row(table, rowid), LockMode::X)?;
        self.inner
            .wal
            .append(txn.id, LogPayload::Insert { table: table.0, rowid, row: row.clone() })?;
        self.inner.storage.with_table_mut(table, |t| t.write(rowid, txn.id.0, Some(row)))?;
        txn.undo.push((table, rowid));
        let entries = meta.indexes.iter().map(|ix| ix.id).zip(keys);
        self.inner.storage.with_indexes_mut(entries, |t, key| {
            t.insert(key, rowid);
        })?;
        Ok(rowid)
    }

    fn exec_select(
        &self,
        txn: &mut Txn,
        sel: &BoundSelect,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        let mut matched =
            self.find_matching(txn, &sel.scan, params, sel.for_update, sel.for_share, true)?;
        if !sel.order_by.is_empty() {
            matched.sort_by(|(_, a), (_, b)| {
                sel.order_by
                    .iter()
                    .map(|&(i, desc)| if desc { b[i].cmp(&a[i]) } else { a[i].cmp(&b[i]) })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let mut rows: Vec<Row> = match &sel.output {
            // Aggregates short-circuit projection (and EXCEPT).
            Output::Aggregates(aggs) => {
                let rows = vec![compute_aggregates(aggs, &matched)?];
                return Ok(ExecResult::Rows { columns: sel.columns.clone(), rows });
            }
            Output::Star => matched.into_iter().map(|(_, row)| row).collect(),
            Output::Exprs(exprs) => matched
                .iter()
                .map(|(_, row)| {
                    exprs.iter().map(|e| Ok(eval(e, row, params)?.into_owned())).collect()
                })
                .collect::<DbResult<_>>()?,
        };
        if let Some(except) = &sel.except {
            let exclude: std::collections::HashSet<Row> =
                self.exec_select(txn, except, params)?.rows().into_iter().collect();
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| !exclude.contains(r) && seen.insert(r.clone()));
        }
        Ok(ExecResult::Rows { columns: sel.columns.clone(), rows })
    }

    fn exec_update(
        &self,
        txn: &mut Txn,
        scan: &Scan,
        sets: &[(usize, BoundExpr)],
        params: &[Value],
    ) -> DbResult<ExecResult> {
        let meta = &*scan.meta;
        let table = meta.schema.id;
        let matched = self.find_matching(txn, scan, params, true, false, true)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mvcc_on = self.inner.versions.on;
        let mut count = 0usize;
        for (rowid, mut new) in matched {
            // Every SET reads the pre-image, which then becomes the new
            // image in place.
            let vals = sets
                .iter()
                .map(|(i, e)| Ok((*i, eval(e, &new, params)?.into_owned())))
                .collect::<DbResult<Vec<_>>>()?;
            let old_keys: Vec<_> = (meta.indexes.iter())
                .filter(|ix| ix.key_columns.iter().any(|c| sets.iter().any(|(i, _)| i == c)))
                .map(|ix| (ix, ix.key(&new)))
                .collect();
            for (i, v) in vals {
                new[i] = v;
            }
            validate_row(&meta.schema, &new)?;
            // The indexes whose entry moves, with the old and new key.
            let moved: Vec<(&IndexSchema, Vec<Value>, Vec<Value>)> = old_keys
                .into_iter()
                .map(|(ix, old_key)| (ix, old_key, ix.key(&new)))
                .filter(|(_, old_key, new_key)| old_key != new_key)
                .collect();
            if nkl {
                for (ix, old_key, new_key) in &moved {
                    self.lock_key_and_next(txn.id, table, ix.id, old_key, false)?;
                    self.lock_key_and_next(txn.id, table, ix.id, new_key, true)?;
                }
            }
            // Physical apply with unique checks.
            let guard = self.inner.storage.write_guard(table)?;
            let _g = guard.lock();
            for (ix, _, new_key) in &moved {
                if ix.unique && self.unique_clash(table, ix, new_key, Some(rowid))? {
                    return Err(DbError::UniqueViolation {
                        index: ix.name.clone(),
                        key: render_key(new_key),
                    });
                }
            }
            // The log takes the after-image; the pre-image moves from the
            // heap onto the row's chain.
            self.inner
                .wal
                .append(txn.id, LogPayload::Update { table: table.0, rowid, new: new.clone() })?;
            let replaced = self
                .inner
                .storage
                .with_table_mut(table, |t| t.write(rowid, txn.id.0, Some(new)))?;
            txn.undo.push((table, rowid));
            for (ix, old_key, new_key) in moved {
                // Under MVCC the old entry stays: snapshot scans still
                // resolve the pre-image through it. Commit queues its
                // removal behind the GC watermark.
                self.inner.storage.with_index_mut(ix.id, |t| {
                    if !mvcc_on {
                        t.remove(&old_key, rowid);
                    }
                    t.insert(new_key, rowid);
                })?;
            }
            if !replaced {
                return Err(DbError::Internal(format!("row {rowid} vanished under its X lock")));
            }
            count += 1;
        }
        Ok(ExecResult::Count(count))
    }

    fn exec_delete(&self, txn: &mut Txn, scan: &Scan, params: &[Value]) -> DbResult<ExecResult> {
        let meta = &*scan.meta;
        let table = meta.schema.id;
        // Row ids only: each image moves from the heap onto its chain.
        let matched = self.find_matching(txn, scan, params, true, false, false)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mvcc_on = self.inner.versions.on;
        let mut count = 0usize;
        for (rowid, _) in matched {
            // The row's keys, read under its X lock, when next-key locking
            // or plain 2PL (which takes the entries out at once) needs them.
            let key_of_row = |row: &Row| meta.indexes.iter().map(|i| i.key(row)).collect();
            let keys: Vec<Vec<Value>> = match nkl || !mvcc_on {
                true => self.inner.storage.with_table(table, |t| t.get(rowid).map(key_of_row))?,
                false => None,
            }
            .unwrap_or_default();
            if nkl {
                // Deleting a key locks it and its next key (ARIES/KVL).
                for (ix, key) in meta.indexes.iter().zip(&keys) {
                    self.lock_key_and_next(txn.id, table, ix.id, key, true)?;
                }
            }
            let guard = self.inner.storage.write_guard(table)?;
            let _g = guard.lock();
            if !self.inner.storage.with_table(table, |t| t.get(rowid).is_some())? {
                continue;
            }
            self.inner.wal.append(txn.id, LogPayload::Delete { table: table.0, rowid })?;
            // The image moves from the heap onto the row's chain.
            self.inner.storage.with_table_mut(table, |t| t.write(rowid, txn.id.0, None))?;
            txn.undo.push((table, rowid));
            // Under MVCC the index entries stay until the GC watermark
            // passes the delete's commit timestamp (queued at commit).
            if !mvcc_on {
                for (ix, key) in meta.indexes.iter().zip(&keys) {
                    self.inner.storage.with_index_mut(ix.id, |t| {
                        t.remove(key, rowid);
                    })?;
                }
            }
            count += 1;
        }
        Ok(ExecResult::Count(count))
    }

    /// Does any *live* heap row other than `exclude` carry `key` in the
    /// unique index `ix`? Under MVCC, index entries can be stale (their
    /// removal is deferred behind the GC watermark), so candidates from the
    /// index are validated against the current heap image. Callers hold the
    /// table's apply mutex.
    fn unique_clash(
        &self,
        table: TableId,
        ix: &IndexSchema,
        key: &[Value],
        exclude: Option<u64>,
    ) -> DbResult<bool> {
        let others = |t: &crate::storage::IndexData| -> Vec<u64> {
            t.get(key).filter(|r| Some(*r) != exclude).collect()
        };
        let rowids = self.inner.storage.with_index(ix.id, others)?;
        if rowids.is_empty() || !self.inner.versions.on {
            return Ok(!rowids.is_empty());
        }
        self.inner.storage.with_table(table, |t| {
            rowids.iter().any(|&r| t.get(r).is_some_and(|row| ix.has_key(row, key)))
        })
    }

    /// Locate rows matching the scan's filter, locking as it goes.
    ///
    /// `for_write` controls row lock mode (X vs S) and the table intent
    /// lock (IX vs IS); `for_share` forces a locking S read even when MVCC
    /// is on (SELECT ... FOR SHARE). A plain read under MVCC is a
    /// **snapshot read** instead: resolved against the transaction's
    /// snapshot timestamp, it takes no table, row or key locks — readers
    /// never wait on writers and never appear in the wait-for graph. Stale
    /// index entries (removal deferred behind the GC watermark) are
    /// harmless there: the visible image is re-checked against the filter,
    /// which subsumes the probe predicate.
    ///
    /// Locking index scans additionally take key locks when next-key
    /// locking is on — note the *order*: index key first, then row;
    /// modifications lock row first, then index keys. Two access paths to
    /// the same data with opposite acquisition orders is exactly the
    /// multi-index deadlock generator of paper §3.2.1.
    ///
    /// A row is examined in place, under its heap latch, and cloned only
    /// when the filter keeps it and the caller wants its image
    /// (`keep_rows`; a delete needs only the row ids).
    fn find_matching(
        &self,
        txn: &mut Txn,
        scan: &Scan,
        params: &[Value],
        for_write: bool,
        for_share: bool,
        keep_rows: bool,
    ) -> DbResult<Vec<(u64, Row)>> {
        let table = scan.meta.schema.id;
        let storage = &self.inner.storage;
        let lm = &self.inner.lm;
        let snapshot = (!for_write && !for_share && self.inner.versions.on)
            .then(|| self.inner.versions.snapshot_for(txn));
        let me = txn.id;
        let nkl = snapshot.is_none() && self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let row_mode = if for_write { LockMode::X } else { LockMode::S };
        if snapshot.is_none() {
            let table_mode = if for_write { LockMode::IX } else { LockMode::IS };
            lm.lock(me, Res::Table(table), table_mode)?;
        }

        let mut scanned = 0u64;
        let mut out: Vec<(u64, Row)> = Vec::new();
        // The image of `rowid` this statement sees, if the filter keeps it.
        let mut visit = |t: &TableData, rowid: u64, out: &mut Vec<(u64, Row)>| -> DbResult<()> {
            let image = match snapshot {
                Some(ts) => t.mvcc_visible(rowid, ts, me.0, &mut scanned),
                None => t.get(rowid),
            };
            let Some(row) = image else { return Ok(()) };
            if scan.filter.as_ref().map_or(Ok(true), |f| eval_pred(f, row, params))? {
                out.push((rowid, if keep_rows { row.clone() } else { Row::new() }));
            }
            Ok(())
        };
        // Candidate rows, grouped under the index key to lock first (when
        // key locks are wanted).
        let mut groups: Vec<(Option<Vec<Value>>, Vec<u64>)> = Vec::new();
        // The index scanned, whose keys are locked.
        let mut probed: Option<IndexId> = None;
        match &scan.plan.path {
            AccessPath::FullScan => {
                // A snapshot visits every slot, as an image does: a
                // committed delete empties the slot while older snapshots
                // must still see the prior image.
                let rowids = storage.with_table(table, |t| match snapshot {
                    Some(_) => (0..t.rows.len() as u64).collect(),
                    None => t.iter().map(|(id, _)| id).collect(),
                })?;
                groups.push((None, rowids));
            }
            AccessPath::IndexEq { index, probes, .. }
            | AccessPath::IndexRange { index, probes, .. } => {
                let prefix: Vec<Value> = probes
                    .iter()
                    .map(|e| probe_value(e, params).cloned())
                    .collect::<DbResult<_>>()?;
                let range = match &scan.plan.path {
                    AccessPath::IndexRange { lo, hi, .. } => {
                        Some((bound_value(lo, params)?, bound_value(hi, params)?))
                    }
                    _ => None,
                };
                storage.with_index(*index, |t| {
                    if nkl {
                        groups
                            .extend(t.scan(&prefix, range).map(|(key, rowids)| {
                                (Some(key.to_vec()), rowids.iter().collect())
                            }));
                    } else {
                        let rowids = t.scan(&prefix, range).flat_map(|(_, rowids)| rowids.iter());
                        groups.push((None, rowids.collect()));
                    }
                })?;
                // Keys to lock come from this index.
                probed = Some(*index);
            }
        }
        for (key, rowids) in groups {
            if snapshot.is_some() {
                storage.with_table(table, |t| {
                    rowids.iter().try_for_each(|&rowid| visit(t, rowid, &mut out))
                })??;
                continue;
            }
            if let (Some(key), Some(index)) = (key, probed) {
                // Key-value lock on the traversed key: S for reads, X for
                // update-bound scans.
                lm.lock(me, Res::Key(table, index, key), row_mode)?;
            }
            for rowid in rowids {
                lm.lock(me, Res::Row(table, rowid), row_mode)?;
                // (Re)validate under the lock: the row may have changed
                // between the index probe and lock acquisition.
                storage.with_table(table, |t| visit(t, rowid, &mut out))??;
            }
        }
        if snapshot.is_some() {
            self.inner.versions.count_read(scanned);
        }
        out.sort_by_key(|(id, _)| *id);
        out.dedup_by_key(|(id, _)| *id);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Statistics / optimizer utilities
    // ------------------------------------------------------------------

    /// RUNSTATS: measure real cardinalities, *overwriting* any hand-crafted
    /// statistics (the paper's hazard).
    pub fn runstats(&self, table: &str) -> DbResult<()> {
        let meta = self.table_meta(table)?;
        let card = self.inner.storage.with_table(meta.schema.id, |t| t.len())? as u64;
        let distinct: Vec<(IndexId, u64)> = meta
            .indexes
            .iter()
            .map(|ix| {
                Ok((ix.id, self.inner.storage.with_index(ix.id, |t| t.distinct_keys())? as u64))
            })
            .collect::<DbResult<_>>()?;
        self.catalog_mut(false, |catalog| {
            catalog.stats.runstats_table(meta.schema.id, card);
            for (ix, distinct) in distinct {
                catalog.stats.runstats_index(ix, distinct);
            }
        });
        Ok(())
    }

    /// Hand-craft table statistics (DLFM's optimizer-influencing utility).
    pub fn set_table_stats(&self, table: &str, cardinality: u64) -> DbResult<()> {
        self.catalog_mut(false, |catalog| {
            let id = catalog.table(table)?.id;
            catalog.stats.set_table_stats(id, cardinality);
            Ok(())
        })
    }

    /// Hand-craft index statistics.
    pub fn set_index_stats(&self, index: &str, distinct_keys: u64) -> DbResult<()> {
        self.catalog_mut(false, |catalog| {
            let id = catalog.index(index)?.id;
            catalog.stats.set_index_stats(id, distinct_keys);
            Ok(())
        })
    }

    /// Whether the table's statistics are currently hand-crafted.
    pub fn stats_hand_crafted(&self, table: &str) -> DbResult<bool> {
        let catalog = self.inner.catalog.read();
        let id = catalog.table(table)?.id;
        Ok(catalog.stats.hand_crafted(id))
    }

    /// Current statistics generation (bumped on every stats change).
    pub fn stats_generation(&self) -> u64 {
        self.inner.stats_gen.load(AtomicOrdering::Acquire)
    }

    // ------------------------------------------------------------------
    // Runtime knobs & metrics
    // ------------------------------------------------------------------

    /// Are reads resolved as lock-free snapshot scans?
    pub fn mvcc(&self) -> bool {
        self.inner.versions.on
    }

    /// Statements resolved as lock-free snapshot reads so far.
    pub fn mvcc_reads_total(&self) -> u64 {
        self.inner.versions.reads()
    }

    /// The GC watermark (oldest active snapshot, else the latest commit) as
    /// of the last retirement step.
    pub fn mvcc_watermark(&self) -> u64 {
        self.inner.versions.watermark()
    }

    /// Latest published commit timestamp.
    pub fn mvcc_commit_ts(&self) -> u64 {
        self.inner.versions.commit_ts()
    }

    /// Snapshot timestamps currently registered (distinct values).
    pub fn mvcc_active_snapshots(&self) -> usize {
        self.inner.versions.active_snapshots()
    }

    /// Rows currently carrying a version chain, across all tables.
    pub fn mvcc_version_chains(&self) -> usize {
        self.inner.storage.version_chains()
    }

    /// Index entries queued for watermark-gated removal.
    pub fn mvcc_pending_unindex(&self) -> usize {
        self.inner.versions.pending_keys()
    }

    /// Toggle next-key locking at runtime (the paper's fix is turning it off).
    pub fn set_next_key_locking(&self, on: bool) {
        self.inner.next_key_locking.store(on, AtomicOrdering::Relaxed);
    }

    /// Current next-key locking setting.
    pub fn next_key_locking(&self) -> bool {
        self.inner.next_key_locking.load(AtomicOrdering::Relaxed)
    }

    /// Change the lock-escalation threshold (`None` disables escalation).
    pub fn set_lock_escalation_threshold(&self, t: Option<usize>) {
        self.inner.lm.set_escalation_threshold(t);
    }

    /// Simulated log-force latency.
    pub fn set_log_force_latency(&self, d: std::time::Duration) {
        self.inner.wal.set_force_latency(d);
    }

    /// Toggle group commit.
    pub fn set_group_commit(&self, on: bool) {
        self.inner.wal.set_group_commit(on);
    }

    /// Is group commit enabled?
    pub fn group_commit(&self) -> bool {
        self.inner.wal.group_commit()
    }

    /// Lock-manager counters.
    pub fn lock_metrics(&self) -> &LockMetrics {
        self.inner.lm.metrics()
    }

    /// Lock-wait latency histogram (microseconds spent blocked in the
    /// lock manager before grant, timeout, or deadlock abort).
    pub fn lock_wait_hist(&self) -> &obs::Histogram {
        self.inner.lm.wait_hist()
    }

    /// WAL force (simulated fsync) latency histogram, in microseconds.
    pub fn wal_force_hist(&self) -> &obs::Histogram {
        self.inner.wal.force_hist()
    }

    /// Histogram of commit records made durable per WAL force
    /// (group-commit batch size).
    pub fn wal_force_batch_hist(&self) -> &obs::Histogram {
        self.inner.wal.batch_hist()
    }

    /// Total WAL forces performed (one simulated fsync each).
    pub fn wal_forces_total(&self) -> u64 {
        self.inner.wal.forces_total()
    }

    /// Total commit records appended to the WAL.
    pub fn wal_commits_total(&self) -> u64 {
        self.inner.wal.commits_total()
    }

    /// Commit records appended by [`Database::commit_lazy`] (a subset of
    /// [`Database::wal_commits_total`]).
    pub fn wal_lazy_commits_total(&self) -> u64 {
        self.inner.wal.lazy_commits_total()
    }

    /// Recent deadlocks captured by the wait-for detector, oldest first:
    /// each names the full cycle, the victim, and what every member held,
    /// requested, and was running.
    pub fn recent_deadlocks(&self) -> Vec<crate::lock::DeadlockReport> {
        self.inner.lm.recent_deadlocks()
    }

    /// Recent statements over the slow-statement threshold, oldest first.
    pub fn recent_slow_statements(&self) -> Vec<SlowStatement> {
        self.inner.slow_log.lock().iter().cloned().collect()
    }

    /// Change the slow-statement threshold at runtime (`None` disables).
    pub fn set_slow_statement_threshold(&self, t: Option<std::time::Duration>) {
        self.inner.slow_threshold_nanos.store(threshold_nanos(t), AtomicOrdering::Relaxed);
    }

    /// Live lock-table summary (grants, waiters, per-transaction totals)
    /// for the status surfaces.
    pub fn lock_table_summary(&self) -> String {
        self.inner.lm.summary_text()
    }

    /// WAL active-window size (records pinned by in-flight transactions).
    pub fn log_active_window(&self) -> usize {
        self.inner.wal.active_window()
    }

    /// Render every `minidb_*` metric into a registry: lock-manager event
    /// counters, the lock-wait / WAL-force latency histograms, WAL force
    /// and commit totals, the group-commit batch-size histogram, and the
    /// active-window gauge. Every embedder (DLFM's local database, the
    /// host database, raw benchmark databases) renders this one block so
    /// scrapers see the same family everywhere.
    pub fn render_metrics(&self, r: &mut obs::Registry) {
        self.lock_metrics().render(r);
        r.histogram(
            "minidb_lock_wait_micros",
            "Time spent blocked in the lock manager before grant, timeout, or deadlock abort.",
            &[],
            self.lock_wait_hist(),
        );
        r.histogram(
            "minidb_wal_force_micros",
            "WAL force (simulated fsync) latency.",
            &[],
            self.wal_force_hist(),
        );
        r.counter(
            "minidb_wal_forces_total",
            "WAL forces performed (one simulated fsync each; group commit batches committers under one force).",
            &[],
            self.wal_forces_total(),
        );
        r.counter(
            "minidb_wal_commits_total",
            "Commit records appended to the WAL.",
            &[],
            self.wal_commits_total(),
        );
        r.counter(
            "minidb_wal_lazy_commits_total",
            "Commit records appended without waiting for a force (hardened by the next one).",
            &[],
            self.wal_lazy_commits_total(),
        );
        r.histogram(
            "minidb_wal_force_batch_commits",
            "Commit records made durable per WAL force (group-commit batch size).",
            &[],
            self.wal_force_batch_hist(),
        );
        r.gauge(
            "minidb_wal_active_window",
            "WAL records pinned by in-flight transactions.",
            &[],
            self.log_active_window() as i64,
        );
        self.inner.versions.render(r);
        r.gauge(
            "minidb_mvcc_gc_watermark",
            "GC watermark as of the last retirement step: the oldest active snapshot, or the latest commit when none is open.",
            &[],
            self.mvcc_watermark() as i64,
        );
        r.gauge(
            "minidb_mvcc_commit_ts",
            "Latest published commit timestamp.",
            &[],
            self.mvcc_commit_ts() as i64,
        );
        r.gauge(
            "minidb_mvcc_snapshots_active",
            "Distinct snapshot timestamps currently pinned by transactions.",
            &[],
            self.mvcc_active_snapshots() as i64,
        );
        r.gauge(
            "minidb_mvcc_version_chains",
            "Rows currently carrying version history.",
            &[],
            self.mvcc_version_chains() as i64,
        );
        r.gauge(
            "minidb_mvcc_pending_unindex",
            "Superseded index entries awaiting watermark-gated removal.",
            &[],
            self.mvcc_pending_unindex() as i64,
        );
        self.inner.stmt_counters.render(r);
        r.gauge(
            "minidb_stmt_cache_entries",
            "Statements held by the dynamic statement cache (bounded).",
            &[],
            self.inner.stmt_cache.lock().len() as i64,
        );
        for (i, st) in self.inner.lm.shard_stats().iter().enumerate() {
            let shard = i.to_string();
            r.counter(
                "minidb_lock_shard_requests_total",
                "Lock requests routed to each lock-table shard.",
                &[("shard", shard.as_str())],
                st.requests,
            );
            r.counter(
                "minidb_lock_shard_contended_total",
                "Requests that enqueued behind an incompatible holder, per shard.",
                &[("shard", shard.as_str())],
                st.contended,
            );
        }
    }

    /// [`Database::render_metrics`] as a standalone Prometheus-text
    /// document — the snapshot provider for a raw database (benchmarks,
    /// the telemetry watchdog).
    pub fn metrics_text(&self) -> String {
        let mut r = obs::Registry::new();
        self.render_metrics(&mut r);
        r.render()
    }

    // ------------------------------------------------------------------
    // Crash / restart / checkpoint
    // ------------------------------------------------------------------

    /// Produce a full backup image of the database: its committed state as
    /// a snapshot reads it. The snapshot, the catalog and the redo LSN are
    /// taken while no commit publishes, so every transaction the snapshot
    /// leaves out wrote from that LSN on; the rows are copied after, while
    /// commits go on, and the history the snapshot holds open is drained
    /// once it is released. A table dropped mid-copy starts the image again.
    pub fn backup_image(&self) -> DbImage {
        loop {
            let mut reader = Txn::default();
            let publish = self.inner.versions.publish_guard();
            let ts = self.inner.versions.snapshot_for(&mut reader);
            let (catalog, redo_lsn) =
                (self.inner.catalog.read().clone(), self.inner.wal.redo_lsn());
            drop(publish);
            let (mut tables, mut indexes) = (Vec::new(), Vec::new());
            let copied = catalog.all_tables().into_iter().try_for_each(|t| {
                let schemas = catalog.indexes_of(t.id);
                let (heap, trees) = self.inner.storage.image_table(t.id, schemas, ts)?;
                tables.push((t.id, heap));
                indexes.extend(schemas.iter().map(|ix| ix.id).zip(trees));
                DbResult::Ok(())
            });
            self.inner.versions.release_snapshot(&mut reader);
            self.mvcc_gc();
            if copied.is_ok() {
                return DbImage { catalog, tables, indexes, redo_lsn };
            }
        }
    }

    /// Replace the database contents from a backup image (point-in-time
    /// restore). Takes a checkpoint so crash recovery resumes from the
    /// restored state.
    pub fn restore_image(&self, image: &DbImage) {
        self.install(image, false);
        // Nothing logged before the restore applies to the restored state.
        if self.inner.wal.force() {
            let redo_lsn = self.inner.wal.durable_lsn() + 1;
            *self.inner.checkpoint.lock() = Some(DbImage { redo_lsn, ..image.clone() });
        }
    }

    /// Take a checkpoint: an image of the committed state, then a force,
    /// so no commit the image holds can be lost with the log's tail.
    pub fn checkpoint(&self) {
        let image = self.backup_image();
        if self.inner.wal.force() {
            *self.inner.checkpoint.lock() = Some(image);
        }
    }

    /// Simulate a crash: lose all volatile state (storage, catalog, the
    /// unforced log tail). Returns the number of log records lost.
    pub fn crash(&self) -> usize {
        self.inner.online.store(false, AtomicOrdering::Release);
        let lost = self.inner.wal.crash();
        self.inner.lm.clear_all();
        // Version history and deferred removals are volatile; snapshots of
        // in-flight readers die with the crash. `commit_ts` is kept so
        // timestamps stay unique across the restart.
        self.install(&DbImage::default(), true);
        lost
    }

    /// Restart after a crash: rebuild from the last checkpoint plus the
    /// durable log (redo of committed transactions only, in LSN order, so
    /// the heap holds each record's before-image when it is redone). A
    /// rolled-back transaction has no COMMIT record and is never redone; a
    /// savepoint rollback's compensation records follow what they undo.
    pub fn restart(&self) -> DbResult<()> {
        let start_lsn = {
            let (cp, empty) = (self.inner.checkpoint.lock(), DbImage::default());
            let image = cp.as_ref().unwrap_or(&empty);
            self.install(image, false);
            image.redo_lsn
        };
        let records = self.inner.wal.records_from(start_lsn);
        let committed: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| matches!(r.payload, LogPayload::Commit))
            .map(|r| r.txn)
            .collect();
        let mut max_txn = 0u64;
        for rec in &records {
            max_txn = max_txn.max(rec.txn);
            self.replay(rec, &committed)?;
        }
        self.inner.next_txn.store(max_txn + 1, AtomicOrdering::SeqCst);
        self.inner.online.store(true, AtomicOrdering::Release);
        Ok(())
    }

    fn replay(&self, rec: &LogRecord, committed: &std::collections::HashSet<u64>) -> DbResult<()> {
        // Redo of committed work only. DDL is auto-committed, so its
        // records always carry a committed txn.
        if !committed.contains(&rec.txn) {
            return Ok(());
        }
        let storage = &self.inner.storage;
        // One redone row change: the heap gives the image it displaces, and
        // the indexes move from its keys to the new image's (a table
        // dropped later in the log has no definition left, and no heap or
        // trees to maintain).
        let redo = |table: u32, rowid: u64, new: Option<&Row>| -> DbResult<()> {
            let Some(meta) = self.meta_by_id(TableId(table)) else { return Ok(()) };
            let old = storage.with_table_mut(meta.schema.id, |t| t.redo(rowid, new.cloned()))?;
            for ix in &meta.indexes {
                if old.as_ref().zip(new).is_some_and(|(old, new)| ix.same_key(old, new)) {
                    continue;
                }
                storage.with_index_mut(ix.id, |t| {
                    if let Some(old) = &old {
                        t.remove(&ix.key(old), rowid);
                    }
                    if let Some(new) = new {
                        t.insert(ix.key(new), rowid);
                    }
                })?;
            }
            Ok(())
        };
        match &rec.payload {
            LogPayload::CreateTable { schema } => {
                self.catalog_mut(true, |catalog| catalog.adopt_table(schema.clone()));
                storage.create_table(schema.id);
            }
            LogPayload::CreateIndex { schema } => {
                self.catalog_mut(true, |catalog| catalog.adopt_index(schema.clone()));
                // Backfill from whatever the heap holds at this point.
                storage.create_index(schema)?;
            }
            LogPayload::DropTable { table } => {
                if let Some(meta) = self.meta_by_id(TableId(*table)) {
                    let (tid, idxs) =
                        self.catalog_mut(true, |catalog| catalog.drop_table(&meta.schema.name))?;
                    storage.drop_table(tid);
                    for ix in idxs {
                        storage.drop_index(ix);
                    }
                }
            }
            LogPayload::Insert { table, rowid, row } => redo(*table, *rowid, Some(row))?,
            LogPayload::Update { table, rowid, new } => redo(*table, *rowid, Some(new))?,
            LogPayload::Delete { table, rowid } => redo(*table, *rowid, None)?,
            LogPayload::Commit => {}
        }
        Ok(())
    }

    /// Is the database online?
    pub fn is_online(&self) -> bool {
        self.inner.online.load(AtomicOrdering::Acquire)
    }
}

fn render_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(", "))
}

/// The value an index probe expression stands for, borrowed: the planner
/// only ever probes with literals and parameters.
fn probe_value<'a>(probe: &'a Expr, params: &'a [Value]) -> DbResult<&'a Value> {
    match probe {
        Expr::Lit(v) => Ok(v),
        Expr::Param(i) => params.get(*i).ok_or(DbError::MissingParam(*i)),
        other => Err(DbError::Internal(format!("index probe is not a constant: {other:?}"))),
    }
}

fn bound_value<'a>(
    bound: &'a Option<crate::plan::RangeBound>,
    params: &'a [Value],
) -> DbResult<crate::storage::ScanBound<'a>> {
    match bound {
        Some(b) => Ok(Some((probe_value(&b.value, params)?, b.inclusive))),
        None => Ok(None),
    }
}

fn validate_row(schema: &TableSchema, row: &[Value]) -> DbResult<()> {
    for (col, v) in schema.columns.iter().zip(row) {
        if v.is_null() && col.not_null {
            return Err(DbError::Constraint(format!(
                "column {} of {} is NOT NULL",
                col.name, schema.name
            )));
        }
        if !v.fits(col.ty) {
            return Err(DbError::Type(format!(
                "value {v} does not fit column {} ({})",
                col.name, col.ty
            )));
        }
    }
    Ok(())
}

fn compute_aggregates(aggs: &[Aggregate], matched: &[(u64, Row)]) -> DbResult<Row> {
    aggs.iter()
        .map(|agg| {
            let (f, i) = match agg {
                Aggregate::CountStar => return Ok(Value::Int(matched.len() as i64)),
                Aggregate::Column(f, i) => (*f, *i),
            };
            let mut vals = matched.iter().map(|(_, r)| &r[i]).filter(|v| !v.is_null());
            Ok(match f {
                AggFn::Count => Value::Int(vals.count() as i64),
                AggFn::Min => vals.min().cloned().unwrap_or(Value::Null),
                AggFn::Max => vals.max().cloned().unwrap_or(Value::Null),
                AggFn::Sum => match vals.next() {
                    None => Value::Null,
                    Some(first) => Value::Int(vals.try_fold(first.as_int()?, |acc, v| {
                        acc.checked_add(v.as_int()?)
                            .ok_or_else(|| DbError::Type("SUM overflow".into()))
                    })?),
                },
            })
        })
        .collect()
}
