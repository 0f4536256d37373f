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

use std::collections::HashMap;
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
use crate::plan::{plan_access, AccessPath, TablePlan};
use crate::schema::{ColumnDef, IndexId, IndexSchema, TableId, TableSchema};
use crate::sql::ast::{AggFn, Expr, Stmt};
use crate::sql::parser::parse;
use crate::storage::{Storage, StorageSnapshot, TableData};
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

/// A full backup image of a database: catalog plus all table/index data.
/// Produced by [`Database::backup_image`], consumed by
/// [`Database::restore_image`].
#[derive(Clone)]
pub struct DbImage {
    catalog: Catalog,
    storage: StorageSnapshot,
}

/// Checkpoint image: catalog + storage at a known LSN.
struct Checkpoint {
    lsn: Lsn,
    catalog: Catalog,
    storage: StorageSnapshot,
}

/// An index entry superseded at commit timestamp `ts`. Snapshot scans may
/// still need it to find the pre-image, so it is removed only once the GC
/// watermark (oldest active snapshot) passes `ts`.
struct PendingUnindex {
    ts: u64,
    /// The table as of enqueue time and the position of the index in it:
    /// its key columns re-extract the live row's key for the resurrection
    /// check at removal time.
    meta: Arc<TableMeta>,
    index_pos: usize,
    key: Vec<Value>,
    rowid: u64,
}

impl PendingUnindex {
    fn index(&self) -> &IndexSchema {
        &self.meta.indexes[self.index_pos]
    }
}

/// Commits between automatic version-GC sweeps.
const GC_COMMIT_INTERVAL: u64 = 64;

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

obs::counters! {
    /// Snapshot-read and version-GC counters (the counting half of the
    /// `minidb_mvcc_*` family; its gauges read live state).
    struct MvccCounters {
        /// Statements resolved as lock-free snapshot reads.
        reads: counter "minidb_mvcc_reads_total" "Statements resolved as lock-free snapshot reads.",
        /// Version-chain entries examined per snapshot statement.
        versions_scanned: histogram "minidb_mvcc_versions_scanned"
            "Version-chain entries examined per snapshot statement.",
        /// Superseded versions reclaimed by GC.
        gc_versions: counter "minidb_mvcc_gc_collected_total" {kind = "versions"}
            "Objects reclaimed by version GC, by kind.",
        /// Version chains GC emptied.
        gc_chains: counter "minidb_mvcc_gc_collected_total" {kind = "chains"}
            "Objects reclaimed by version GC, by kind.",
        /// Superseded index entries GC removed.
        gc_unindexed: counter "minidb_mvcc_gc_collected_total" {kind = "index_entries"}
            "Objects reclaimed by version GC, by kind.",
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
    checkpoint: Mutex<Option<Checkpoint>>,
    /// Slow-statement threshold in nanoseconds ([`SLOW_LOG_OFF`] = none);
    /// read by every statement.
    slow_threshold_nanos: AtomicU64,
    slow_log: Mutex<std::collections::VecDeque<SlowStatement>>,
    // ---- MVCC ---------------------------------------------------------
    mvcc: bool,
    /// Latest fully-published commit timestamp. Monotonic, never reset, so
    /// timestamps stay unique across crash/restart.
    commit_ts: AtomicU64,
    /// Serialises commit publication (timestamp assignment plus version
    /// stamping), so a reader's snapshot never straddles half a commit.
    publish: Mutex<()>,
    /// Active snapshot timestamps, refcounted; the GC watermark is the
    /// smallest key (or `commit_ts` when empty).
    snapshots: Mutex<std::collections::BTreeMap<u64, usize>>,
    /// Superseded index entries awaiting watermark-gated removal.
    pending_unindex: Mutex<Vec<PendingUnindex>>,
    commits_since_gc: AtomicU64,
    mvcc_counters: MvccCounters,
    gc_watermark: AtomicU64,
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
                mvcc: config.mvcc,
                commit_ts: AtomicU64::new(0),
                publish: Mutex::new(()),
                snapshots: Mutex::new(std::collections::BTreeMap::new()),
                pending_unindex: Mutex::new(Vec::new()),
                commits_since_gc: AtomicU64::new(0),
                mvcc_counters: MvccCounters::default(),
                gc_watermark: AtomicU64::new(0),
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

    /// Replace the whole catalog (restore, crash, restart). The statistics
    /// generation keeps rising across the swap, so "the statistics a plan
    /// was bound under" can never be confused with an older registry that
    /// happens to carry the same number.
    fn install_catalog(&self, mut fresh: Catalog) {
        self.catalog_mut(true, |catalog| {
            fresh.stats.generation = fresh.stats.generation.max(catalog.stats.generation) + 1;
            *catalog = fresh;
        });
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
                self.mvcc_txn_cleanup(txn);
                self.inner.lm.release_all(txn.id);
                return Err(DbError::Offline);
            }
        }
        let mvcc_on = self.inner.mvcc;
        // Publish committed versions before any deleted slot can be reused:
        // a reuser must find the chains clean.
        if mvcc_on && !txn.undo.is_empty() {
            self.mvcc_publish_commit(txn);
        }
        // Slots of rows this transaction deleted become reusable only now:
        // until commit they are still X-locked under their old identity.
        for op in &txn.undo {
            if let UndoOp::Delete { table, rowid, .. } = op {
                let _ = self.inner.storage.with_table_mut(*table, |t| t.release_slot(*rowid));
            }
        }
        txn.undo.clear();
        txn.state = TxnState::Committed;
        self.mvcc_txn_cleanup(txn);
        self.inner.lm.release_all(txn.id);
        if mvcc_on
            && self.inner.commits_since_gc.fetch_add(1, AtomicOrdering::Relaxed)
                % GC_COMMIT_INTERVAL
                == GC_COMMIT_INTERVAL - 1
        {
            self.mvcc_gc();
        }
        Ok(())
    }

    /// Roll back the whole transaction and release all locks.
    pub fn rollback(&self, txn: &mut Txn) {
        if txn.state == TxnState::Active {
            let ops = txn.drain_all();
            let had_work = !ops.is_empty();
            self.apply_undo(txn.id, ops);
            if had_work {
                // Abort records are always admitted (terminal).
                let _ = self.inner.wal.append(txn.id, LogPayload::Abort);
            }
            txn.state = TxnState::Aborted;
        }
        // Dirty markers clear only after the heap is restored, so snapshot
        // readers never resolve a half-undone image.
        self.mvcc_txn_cleanup(txn);
        self.inner.lm.release_all(txn.id);
    }

    // ------------------------------------------------------------------
    // MVCC: snapshots, commit publication, version GC
    // ------------------------------------------------------------------

    /// The transaction's snapshot timestamp, assigned at its first snapshot
    /// read and held for the transaction's lifetime (repeatable snapshot).
    /// Registered so the GC watermark cannot advance past it.
    fn snapshot_for(&self, txn: &mut Txn) -> u64 {
        if let Some(ts) = txn.snapshot_ts {
            return ts;
        }
        // Load `commit_ts` while holding the registry lock: the GC also
        // computes its watermark under it, so a snapshot can never register
        // below an already-computed watermark.
        let mut snaps = self.inner.snapshots.lock();
        let ts = self.inner.commit_ts.load(AtomicOrdering::Acquire);
        *snaps.entry(ts).or_insert(0) += 1;
        txn.snapshot_ts = Some(ts);
        ts
    }

    /// Drop the transaction's snapshot registration, if any.
    fn release_snapshot(&self, txn: &mut Txn) {
        if let Some(ts) = txn.snapshot_ts.take() {
            let mut snaps = self.inner.snapshots.lock();
            if let Some(n) = snaps.get_mut(&ts) {
                *n -= 1;
                if *n == 0 {
                    snaps.remove(&ts);
                }
            }
        }
    }

    /// End-of-transaction MVCC bookkeeping: clear any dirty markers the
    /// transaction still holds (rows whose writes were undone, or all rows
    /// on abort) and release its snapshot. Idempotent.
    fn mvcc_txn_cleanup(&self, txn: &mut Txn) {
        for (table, rowid) in std::mem::take(&mut txn.mvcc_touched) {
            let _ =
                self.inner.storage.with_table_mut(table, |t| t.mvcc_clear_dirty(rowid, txn.id.0));
        }
        self.release_snapshot(txn);
    }

    /// Stamp the transaction's writes with a fresh commit timestamp and
    /// queue deferred removals for the index entries its committed state no
    /// longer needs (old keys of updates, keys of deleted rows).
    fn mvcc_publish_commit(&self, txn: &Txn) {
        // Rows written, in first-touch order, each with the pre-images its
        // undo records hold.
        let mut rows: Vec<(TableId, u64, Vec<&Row>)> = Vec::new();
        let mut slot_of: HashMap<(TableId, u64), usize> = HashMap::new();
        for op in &txn.undo {
            let (table, rowid, old) = match op {
                UndoOp::Insert { table, rowid } => (*table, *rowid, None),
                UndoOp::Delete { table, rowid, row } => (*table, *rowid, Some(row)),
                UndoOp::Update { table, rowid, old } => (*table, *rowid, Some(old)),
            };
            let slot = *slot_of.entry((table, rowid)).or_insert_with(|| {
                rows.push((table, rowid, Vec::new()));
                rows.len() - 1
            });
            rows[slot].2.extend(old);
        }
        let mut metas: HashMap<TableId, Option<Arc<TableMeta>>> = HashMap::new();
        let mut queued: Vec<PendingUnindex> = Vec::new();
        let publish = self.inner.publish.lock();
        let ts = self.inner.commit_ts.load(AtomicOrdering::Relaxed) + 1;
        for (table, rowid, olds) in &rows {
            let (table, rowid) = (*table, *rowid);
            let _ = self.inner.storage.with_table_mut(table, |t| t.mvcc_publish(rowid, ts));
            if olds.is_empty() {
                continue;
            }
            let Some(meta) = metas.entry(table).or_insert_with(|| self.meta_by_id(table)) else {
                continue;
            };
            // A pre-image's key is stale unless the committed image still
            // carries it (a later write in this transaction restored it).
            let first = queued.len();
            let _ = self.inner.storage.with_table(table, |t| {
                let committed = t.get(rowid);
                for (index_pos, ix) in meta.indexes.iter().enumerate() {
                    for old in olds {
                        if committed.is_some_and(|now| same_key(ix, old, now)) {
                            continue;
                        }
                        let key = extract_key(ix, old);
                        let dup = queued[first..]
                            .iter()
                            .any(|p| p.index_pos == index_pos && p.key == key);
                        if !dup {
                            queued.push(PendingUnindex {
                                ts,
                                meta: meta.clone(),
                                index_pos,
                                key,
                                rowid,
                            });
                        }
                    }
                }
            });
        }
        if !queued.is_empty() {
            self.inner.pending_unindex.lock().extend(queued);
        }
        self.inner.commit_ts.store(ts, AtomicOrdering::Release);
        drop(publish);
    }

    /// Garbage-collect version chains and apply ripe deferred index-entry
    /// removals behind the oldest active snapshot. Runs automatically every
    /// [`GC_COMMIT_INTERVAL`] commits; callable directly for tests and
    /// quiesce points. Returns the watermark used.
    pub fn mvcc_gc(&self) -> u64 {
        let watermark = {
            let snaps = self.inner.snapshots.lock();
            snaps
                .keys()
                .next()
                .copied()
                .unwrap_or_else(|| self.inner.commit_ts.load(AtomicOrdering::Acquire))
        };
        let ripe: Vec<PendingUnindex> = {
            let mut pending = self.inner.pending_unindex.lock();
            let (ripe, keep) = std::mem::take(&mut *pending)
                .into_iter()
                .partition(|p: &PendingUnindex| p.ts <= watermark);
            *pending = keep;
            ripe
        };
        let mut requeue: Vec<PendingUnindex> = Vec::new();
        for p in ripe {
            let table = p.meta.schema.id;
            // The apply mutex makes the check-and-remove atomic against
            // writers mutating heap + index.
            let guard = self.inner.storage.apply_guard(table);
            let _g = guard.lock();
            // 0 = row gone or key superseded (remove the entry), 1 = the
            // live image carries the key again (entry needed, drop the
            // tombstone), 2 = row mid-write (committed key unknown, retry).
            let verdict = self.inner.storage.with_table(table, |t| {
                if t.mvcc_row_dirty(p.rowid) {
                    return 2u8;
                }
                u8::from(t.get(p.rowid).is_some_and(|row| has_key(p.index(), row, &p.key)))
            });
            match verdict {
                Ok(0) => {
                    let _ = self.inner.storage.with_index_mut(p.index().id, |t| {
                        t.remove(&p.key, p.rowid);
                    });
                    self.inner.mvcc_counters.gc_unindexed.fetch_add(1, AtomicOrdering::Relaxed);
                }
                Ok(2) => requeue.push(p),
                // 1 (resurrected) or the table is gone: drop the tombstone.
                _ => {}
            }
        }
        if !requeue.is_empty() {
            self.inner.pending_unindex.lock().extend(requeue);
        }
        let mut versions = 0u64;
        let mut chains = 0u64;
        for table in self.inner.storage.table_ids() {
            let (v, c) = self
                .inner
                .storage
                .with_table_mut(table, |t| t.mvcc_gc(watermark))
                .unwrap_or((0, 0));
            versions += v;
            chains += c;
        }
        self.inner.mvcc_counters.gc_versions.fetch_add(versions, AtomicOrdering::Relaxed);
        self.inner.mvcc_counters.gc_chains.fetch_add(chains, AtomicOrdering::Relaxed);
        self.inner.gc_watermark.store(watermark, AtomicOrdering::Relaxed);
        watermark
    }

    /// Roll back to a savepoint. Locks are retained (DB2 semantics).
    pub fn rollback_to(&self, txn: &mut Txn, sp: Savepoint) -> DbResult<()> {
        txn.check_active()?;
        let ops = txn.drain_to_savepoint(sp);
        self.apply_undo(txn.id, ops);
        Ok(())
    }

    /// Apply undo operations (newest-first) with compensation log records.
    ///
    /// Under MVCC, index entries are never removed eagerly: an entry this
    /// transaction is backing out may coincide with one an older snapshot
    /// still needs (a reused slot or a restored key), so removals are queued
    /// behind the GC watermark instead.
    fn apply_undo(&self, txn: TxnId, ops: Vec<UndoOp>) {
        for op in ops {
            let (UndoOp::Insert { table, .. }
            | UndoOp::Delete { table, .. }
            | UndoOp::Update { table, .. }) = &op;
            // A table dropped since (DDL is not transactional) has nothing
            // left to restore.
            let Some(meta) = self.meta_by_id(*table) else { continue };
            let table = meta.schema.id;
            match op {
                UndoOp::Insert { rowid, .. } => {
                    let removed = self
                        .inner
                        .storage
                        .with_table_mut(table, |t| t.remove(rowid))
                        .ok()
                        .flatten();
                    let Some(row) = removed else { continue };
                    for (index_pos, ix) in meta.indexes.iter().enumerate() {
                        self.unindex(&meta, index_pos, extract_key(ix, &row), rowid);
                    }
                    let _ = self
                        .inner
                        .wal
                        .append(txn, LogPayload::Delete { table: table.0, rowid, row });
                }
                UndoOp::Delete { rowid, row, .. } => {
                    for ix in &meta.indexes {
                        let key = extract_key(ix, &row);
                        let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                            t.insert(key, rowid);
                        });
                    }
                    let _ = self.inner.wal.append(
                        txn,
                        LogPayload::Insert { table: table.0, rowid, row: row.clone() },
                    );
                    let _ = self.inner.storage.with_table_mut(table, |t| t.put(rowid, row));
                }
                UndoOp::Update { rowid, old, .. } => {
                    let replaced = self
                        .inner
                        .storage
                        .with_table_mut(table, |t| t.replace(rowid, old.clone()))
                        .ok()
                        .flatten();
                    let Some(cur) = replaced else { continue };
                    for (index_pos, ix) in meta.indexes.iter().enumerate() {
                        if same_key(ix, &cur, &old) {
                            continue;
                        }
                        let restored = extract_key(ix, &old);
                        let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                            t.insert(restored, rowid);
                        });
                        self.unindex(&meta, index_pos, extract_key(ix, &cur), rowid);
                    }
                    let _ = self.inner.wal.append(
                        txn,
                        LogPayload::Update { table: table.0, rowid, old: cur, new: old },
                    );
                }
            }
        }
    }

    /// Take an index entry out on a rollback path: at once under plain 2PL,
    /// queued at the current commit horizon under MVCC (see
    /// [`Database::apply_undo`]).
    fn unindex(&self, meta: &Arc<TableMeta>, index_pos: usize, key: Vec<Value>, rowid: u64) {
        if self.inner.mvcc {
            self.inner.pending_unindex.lock().push(PendingUnindex {
                ts: self.inner.commit_ts.load(AtomicOrdering::Acquire),
                meta: meta.clone(),
                index_pos,
                key,
                rowid,
            });
        } else {
            let _ = self.inner.storage.with_index_mut(meta.indexes[index_pos].id, |t| {
                t.remove(&key, rowid);
            });
        }
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
        self.inner.storage.create_index(schema.id);
        // Backfill from existing rows.
        let keys: Vec<(u64, Vec<Value>)> = self.inner.storage.with_table(schema.table, |t| {
            t.iter().map(|(id, r)| (id, extract_key(&schema, r))).collect()
        })?;
        let mut seen = std::collections::HashSet::new();
        if let Some((_, dup)) = keys.iter().find(|(_, key)| unique && !seen.insert(key)) {
            // Roll the DDL back.
            self.catalog_mut(true, |catalog| catalog.drop_index(&schema.name))?;
            self.inner.storage.drop_index(schema.id);
            return Err(DbError::UniqueViolation {
                index: schema.name.clone(),
                key: format!("{dup:?}"),
            });
        }
        self.inner.storage.with_index_mut(schema.id, |t| {
            for (rowid, key) in keys {
                t.insert(key, rowid);
            }
        })?;
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
        let keys: Vec<Vec<Value>> = meta.indexes.iter().map(|ix| extract_key(ix, &row)).collect();

        // Key locks, in index-creation order (the order DB2 updates them).
        if self.inner.next_key_locking.load(AtomicOrdering::Relaxed) {
            for (ix, key) in meta.indexes.iter().zip(&keys) {
                self.lock_key_and_next(txn.id, table, ix.id, key, true)?;
            }
        }

        // Physical apply: atomic unique check + mutation under the table's
        // apply mutex.
        let mvcc_on = self.inner.mvcc;
        let guard = self.inner.storage.apply_guard(table);
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
        let first_touch = self.inner.storage.with_table_mut(table, |t| {
            // Open the version chain under the same write latch as the heap
            // mutation, so readers never see a dirty image without history.
            let first_touch = mvcc_on && t.mvcc_begin_write(rowid, txn.id.0);
            t.put_reserved(rowid, row);
            first_touch
        })?;
        if first_touch {
            txn.mvcc_touched.push((table, rowid));
        }
        let entries = meta.indexes.iter().map(|ix| ix.id).zip(keys);
        self.inner.storage.with_indexes_mut(entries, |t, key| {
            t.insert(key, rowid);
        })?;
        txn.undo.push(UndoOp::Insert { table, rowid });
        Ok(rowid)
    }

    fn exec_select(
        &self,
        txn: &mut Txn,
        sel: &BoundSelect,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        let mut matched =
            self.find_matching(txn, &sel.scan, params, sel.for_update, sel.for_share)?;
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
        let matched = self.find_matching(txn, scan, params, true, false)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mvcc_on = self.inner.mvcc;
        let mut count = 0usize;
        for (rowid, old) in matched {
            let mut new = old.clone();
            for (i, e) in sets {
                new[*i] = eval(e, &old, params)?.into_owned();
            }
            validate_row(&meta.schema, &new)?;
            // The indexes whose entry moves, with the old and new key.
            let moved: Vec<(&IndexSchema, Vec<Value>, Vec<Value>)> = meta
                .indexes
                .iter()
                .filter(|ix| !same_key(ix, &old, &new))
                .map(|ix| (ix, extract_key(ix, &old), extract_key(ix, &new)))
                .collect();
            if nkl {
                for (ix, old_key, new_key) in &moved {
                    self.lock_key_and_next(txn.id, table, ix.id, old_key, false)?;
                    self.lock_key_and_next(txn.id, table, ix.id, new_key, true)?;
                }
            }
            // Physical apply with unique checks.
            let guard = self.inner.storage.apply_guard(table);
            let _g = guard.lock();
            for (ix, _, new_key) in &moved {
                if ix.unique && self.unique_clash(table, ix, new_key, Some(rowid))? {
                    return Err(DbError::UniqueViolation {
                        index: ix.name.clone(),
                        key: render_key(new_key),
                    });
                }
            }
            // The log takes the fetched pre-image; the undo record takes the
            // one the heap gives back (the same, under our X lock).
            self.inner.wal.append(
                txn.id,
                LogPayload::Update { table: table.0, rowid, old, new: new.clone() },
            )?;
            let (first_touch, replaced) = self.inner.storage.with_table_mut(table, |t| {
                let first_touch = mvcc_on && t.mvcc_begin_write(rowid, txn.id.0);
                (first_touch, t.replace(rowid, new))
            })?;
            if first_touch {
                txn.mvcc_touched.push((table, rowid));
            }
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
            let old = replaced.ok_or_else(|| {
                DbError::Internal(format!("row {rowid} vanished under its X lock"))
            })?;
            txn.undo.push(UndoOp::Update { table, rowid, old });
            count += 1;
        }
        Ok(ExecResult::Count(count))
    }

    fn exec_delete(&self, txn: &mut Txn, scan: &Scan, params: &[Value]) -> DbResult<ExecResult> {
        let meta = &*scan.meta;
        let table = meta.schema.id;
        let matched = self.find_matching(txn, scan, params, true, false)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mvcc_on = self.inner.mvcc;
        let mut count = 0usize;
        for (rowid, row) in matched {
            if nkl {
                // Deleting a key locks it and its next key (ARIES/KVL).
                for ix in &meta.indexes {
                    self.lock_key_and_next(txn.id, table, ix.id, &extract_key(ix, &row), true)?;
                }
            }
            let guard = self.inner.storage.apply_guard(table);
            let _g = guard.lock();
            if !self.inner.storage.with_table(table, |t| t.get(rowid).is_some())? {
                continue;
            }
            self.inner.wal.append(txn.id, LogPayload::Delete { table: table.0, rowid, row })?;
            let (first_touch, removed) = self.inner.storage.with_table_mut(table, |t| {
                let first_touch = mvcc_on && t.mvcc_begin_write(rowid, txn.id.0);
                (first_touch, t.remove(rowid))
            })?;
            if first_touch {
                txn.mvcc_touched.push((table, rowid));
            }
            let row = removed.ok_or_else(|| {
                DbError::Internal(format!("row {rowid} vanished under its X lock"))
            })?;
            // Under MVCC the index entries stay until the GC watermark
            // passes the delete's commit timestamp (queued at commit).
            if !mvcc_on {
                for ix in &meta.indexes {
                    let key = extract_key(ix, &row);
                    self.inner.storage.with_index_mut(ix.id, |t| {
                        t.remove(&key, rowid);
                    })?;
                }
            }
            txn.undo.push(UndoOp::Delete { table, rowid, row });
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
        if rowids.is_empty() || !self.inner.mvcc {
            return Ok(!rowids.is_empty());
        }
        self.inner.storage.with_table(table, |t| {
            rowids.iter().any(|&r| t.get(r).is_some_and(|row| has_key(ix, row, key)))
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
    /// when the filter keeps it.
    fn find_matching(
        &self,
        txn: &mut Txn,
        scan: &Scan,
        params: &[Value],
        for_write: bool,
        for_share: bool,
    ) -> DbResult<Vec<(u64, Row)>> {
        let table = scan.meta.schema.id;
        let storage = &self.inner.storage;
        let lm = &self.inner.lm;
        let snapshot =
            (!for_write && !for_share && self.inner.mvcc).then(|| self.snapshot_for(txn));
        let me = txn.id;
        let nkl = snapshot.is_none() && self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let row_mode = if for_write { LockMode::X } else { LockMode::S };
        match snapshot {
            Some(_) => {
                self.inner.mvcc_counters.reads.fetch_add(1, AtomicOrdering::Relaxed);
            }
            None => {
                let table_mode = if for_write { LockMode::IX } else { LockMode::IS };
                lm.lock(me, Res::Table(table), table_mode)?;
            }
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
                out.push((rowid, row.clone()));
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
                // A snapshot unions live heap rows with chain-only rowids:
                // a committed delete empties the slot while older snapshots
                // must still see the prior image.
                let rowids = storage.with_table(table, |t| {
                    let mut ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
                    if snapshot.is_some() {
                        ids.extend(t.mvcc_rowids());
                        ids.sort_unstable();
                        ids.dedup();
                    }
                    ids
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
            self.inner.mvcc_counters.versions_scanned.record(scanned);
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
        self.inner.mvcc
    }

    /// Statements resolved as lock-free snapshot reads so far.
    pub fn mvcc_reads_total(&self) -> u64 {
        self.inner.mvcc_counters.reads()
    }

    /// The GC watermark of the last version-GC sweep.
    pub fn mvcc_watermark(&self) -> u64 {
        self.inner.gc_watermark.load(AtomicOrdering::Relaxed)
    }

    /// Latest published commit timestamp.
    pub fn mvcc_commit_ts(&self) -> u64 {
        self.inner.commit_ts.load(AtomicOrdering::Acquire)
    }

    /// Snapshot timestamps currently registered (distinct values).
    pub fn mvcc_active_snapshots(&self) -> usize {
        self.inner.snapshots.lock().len()
    }

    /// Rows currently carrying a version chain, across all tables.
    pub fn mvcc_version_chains(&self) -> usize {
        self.inner
            .storage
            .table_ids()
            .into_iter()
            .filter_map(|t| self.inner.storage.with_table(t, |t| t.mvcc_chain_count()).ok())
            .sum()
    }

    /// Index entries queued for watermark-gated removal.
    pub fn mvcc_pending_unindex(&self) -> usize {
        self.inner.pending_unindex.lock().len()
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
        self.inner.mvcc_counters.render(r);
        r.gauge(
            "minidb_mvcc_gc_watermark",
            "Oldest-active-snapshot watermark of the last version-GC sweep.",
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

    /// Produce a full backup image of the database (catalog + all data).
    pub fn backup_image(&self) -> DbImage {
        DbImage {
            catalog: self.inner.catalog.read().clone(),
            storage: self.inner.storage.snapshot(),
        }
    }

    /// Replace the database contents from a backup image (point-in-time
    /// restore). Takes a checkpoint so crash recovery resumes from the
    /// restored state.
    pub fn restore_image(&self, image: &DbImage) {
        self.install_catalog(image.catalog.clone());
        self.inner.storage.restore(image.storage.clone());
        // Deferred index removals refer to pre-restore state.
        self.inner.pending_unindex.lock().clear();
        self.checkpoint();
    }

    /// Take a checkpoint: force the log and snapshot catalog + storage.
    pub fn checkpoint(&self) {
        self.inner.wal.force();
        let lsn = self.inner.wal.durable_lsn();
        let catalog = self.inner.catalog.read().clone();
        let storage = self.inner.storage.snapshot();
        *self.inner.checkpoint.lock() = Some(Checkpoint { lsn, catalog, storage });
    }

    /// Simulate a crash: lose all volatile state (storage, catalog, the
    /// unforced log tail). Returns the number of log records lost.
    pub fn crash(&self) -> usize {
        self.inner.online.store(false, AtomicOrdering::Release);
        let lost = self.inner.wal.crash();
        self.inner.storage.clear();
        self.inner.lm.clear_all();
        // Version history and deferred removals are volatile; snapshots of
        // in-flight readers die with the crash. `commit_ts` is kept so
        // timestamps stay unique across the restart.
        self.inner.snapshots.lock().clear();
        self.inner.pending_unindex.lock().clear();
        self.install_catalog(Catalog::default());
        lost
    }

    /// Restart after a crash: rebuild from the last checkpoint plus the
    /// durable log (redo of committed transactions only — aborted work was
    /// already compensated in the log).
    pub fn restart(&self) -> DbResult<()> {
        let start_lsn = {
            let cp = self.inner.checkpoint.lock();
            match cp.as_ref() {
                Some(c) if c.lsn <= self.inner.wal.durable_lsn() => {
                    self.install_catalog(c.catalog.clone());
                    self.inner.storage.restore(c.storage.clone());
                    c.lsn + 1
                }
                _ => {
                    self.install_catalog(Catalog::default());
                    self.inner.storage.clear();
                    0
                }
            }
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
        // Index maintenance of one redone row change: `old`/`new` are the
        // images before and after (a table dropped later in the log has no
        // definition left, and no trees to maintain).
        let reindex =
            |table: u32, rowid: u64, old: Option<&Row>, new: Option<&Row>| -> DbResult<()> {
                let Some(meta) = self.meta_by_id(TableId(table)) else { return Ok(()) };
                for ix in &meta.indexes {
                    if old.zip(new).is_some_and(|(old, new)| same_key(ix, old, new)) {
                        continue;
                    }
                    storage.with_index_mut(ix.id, |t| {
                        if let Some(old) = old {
                            t.remove(&extract_key(ix, old), rowid);
                        }
                        if let Some(new) = new {
                            t.insert(extract_key(ix, new), rowid);
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
                storage.create_index(schema.id);
                // Backfill from whatever the heap holds at this point.
                let keys: Vec<(u64, Vec<Value>)> = storage.with_table(schema.table, |t| {
                    t.iter().map(|(id, r)| (id, extract_key(schema, r))).collect()
                })?;
                storage.with_index_mut(schema.id, |t| {
                    for (rowid, key) in keys {
                        t.insert(key, rowid);
                    }
                })?;
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
            LogPayload::Insert { table, rowid, row } => {
                storage.with_table_mut(TableId(*table), |t| t.put(*rowid, row.clone()))?;
                reindex(*table, *rowid, None, Some(row))?;
            }
            LogPayload::Delete { table, rowid, row } => {
                storage.with_table_mut(TableId(*table), |t| t.remove(*rowid))?;
                reindex(*table, *rowid, Some(row), None)?;
            }
            LogPayload::Update { table, rowid, old, new } => {
                storage.with_table_mut(TableId(*table), |t| {
                    t.replace(*rowid, new.clone());
                })?;
                reindex(*table, *rowid, Some(old), Some(new))?;
            }
            LogPayload::Begin | LogPayload::Commit | LogPayload::Abort => {}
        }
        Ok(())
    }

    /// Is the database online?
    pub fn is_online(&self) -> bool {
        self.inner.online.load(AtomicOrdering::Acquire)
    }
}

/// Extract an index key from a row.
pub fn extract_key(ix: &IndexSchema, row: &[Value]) -> Vec<Value> {
    ix.key_columns.iter().map(|&i| row[i].clone()).collect()
}

/// Do two images of a row carry the same key in `ix`?
fn same_key(ix: &IndexSchema, a: &[Value], b: &[Value]) -> bool {
    ix.key_columns.iter().all(|&c| a[c] == b[c])
}

/// Does `row` carry exactly `key` in `ix`?
fn has_key(ix: &IndexSchema, row: &[Value], key: &[Value]) -> bool {
    ix.key_columns.len() == key.len()
        && ix.key_columns.iter().zip(key).all(|(&c, k)| row.get(c) == Some(k))
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
