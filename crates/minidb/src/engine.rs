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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::catalog::Catalog;
use crate::config::{DbConfig, Isolation};
use crate::error::{DbError, DbResult};
use crate::eval::{eval, eval_pred, eval_standalone};
use crate::lock::{LockManager, LockMetrics, LockMode, Res};
use crate::plan::{plan_access, AccessPath, TablePlan};
use crate::schema::{ColumnDef, IndexId, IndexSchema, TableId, TableSchema};
use crate::sql::ast::{AggFn, Expr, OrderKey, Projection, SelectItem, SelectStmt, Stmt};
use crate::sql::parser::parse;
use crate::stats::StatsRegistry;
use crate::storage::{Storage, StorageSnapshot};
use crate::txn::{Savepoint, Txn, TxnId, TxnState, UndoOp};
use crate::value::{Row, Value};
use crate::wal::{LogPayload, LogRecord, Lsn, Wal};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// SELECT result: column names and rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
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

/// A statement prepared ("bound") against the catalog. The access plan is
/// chosen at prepare time and *pinned*, mirroring DB2 static SQL: a later
/// RUNSTATS does not change the plan until the statement is rebound.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Original SQL text.
    pub sql: String,
    stmt: Stmt,
    plan: Option<TablePlan>,
    /// Plan for the EXCEPT arm of a SELECT, when present.
    except_plan: Option<TablePlan>,
}

impl Prepared {
    /// The plan bound at prepare time, if the statement has one.
    pub fn plan(&self) -> Option<&TablePlan> {
        self.plan.as_ref()
    }

    /// EXPLAIN-style rendering of the bound plan.
    pub fn explain(&self, db: &Database) -> String {
        let catalog = db.inner.catalog.read();
        match &self.plan {
            Some(p) => p.render(&catalog),
            None => "NO PLAN (DDL or INSERT)".into(),
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
    table: TableId,
    index: IndexId,
    /// Key columns of the index at enqueue time, to re-extract the live
    /// row's key for the resurrection check at removal time.
    key_columns: Vec<usize>,
    key: Vec<Value>,
    rowid: u64,
}

/// Commits between automatic version-GC sweeps.
const GC_COMMIT_INTERVAL: u64 = 64;

struct DbInner {
    catalog: RwLock<Catalog>,
    storage: Storage,
    lm: LockManager,
    wal: Wal,
    next_txn: AtomicU64,
    online: AtomicBool,
    isolation: Isolation,
    next_key_locking: AtomicBool,
    checkpoint: Mutex<Option<Checkpoint>>,
    slow_threshold: Mutex<Option<std::time::Duration>>,
    slow_log: Mutex<std::collections::VecDeque<SlowStatement>>,
    // ---- MVCC ---------------------------------------------------------
    mvcc: AtomicBool,
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
    mvcc_reads: AtomicU64,
    mvcc_versions_scanned: obs::Histogram,
    gc_watermark: AtomicU64,
    gc_versions: AtomicU64,
    gc_chains: AtomicU64,
    gc_unindexed: AtomicU64,
}

/// A shared handle to one database. Cheap to clone; thread-safe.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// Create an empty database with the given configuration.
    pub fn new(config: DbConfig) -> Database {
        Database {
            inner: Arc::new(DbInner {
                catalog: RwLock::new(Catalog::default()),
                storage: Storage::default(),
                lm: LockManager::with_shards(
                    config.lock_timeout,
                    config.lock_escalation_threshold,
                    config.lock_list_capacity,
                    config.deadlock_detection,
                    config.lock_shards,
                ),
                wal: {
                    let wal = Wal::new(config.log_capacity_records, config.log_force_latency);
                    wal.set_group_commit(config.group_commit);
                    wal.set_group_commit_wait(config.group_commit_wait);
                    wal
                },
                next_txn: AtomicU64::new(1),
                online: AtomicBool::new(true),
                isolation: config.isolation,
                next_key_locking: AtomicBool::new(config.next_key_locking),
                checkpoint: Mutex::new(None),
                slow_threshold: Mutex::new(config.slow_statement_threshold),
                slow_log: Mutex::new(std::collections::VecDeque::new()),
                mvcc: AtomicBool::new(config.mvcc),
                commit_ts: AtomicU64::new(0),
                publish: Mutex::new(()),
                snapshots: Mutex::new(std::collections::BTreeMap::new()),
                pending_unindex: Mutex::new(Vec::new()),
                commits_since_gc: AtomicU64::new(0),
                mvcc_reads: AtomicU64::new(0),
                mvcc_versions_scanned: obs::Histogram::new(),
                gc_watermark: AtomicU64::new(0),
                gc_versions: AtomicU64::new(0),
                gc_chains: AtomicU64::new(0),
                gc_unindexed: AtomicU64::new(0),
            }),
        }
    }

    /// Create a database with default configuration.
    pub fn new_default() -> Database {
        Database::new(DbConfig::default())
    }

    fn check_online(&self) -> DbResult<()> {
        if self.inner.online.load(AtomicOrdering::Acquire) {
            Ok(())
        } else {
            Err(DbError::Offline)
        }
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
        let mvcc_on = self.inner.mvcc.load(AtomicOrdering::Relaxed);
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
            self.apply_undo(txn.id, &ops);
            if !ops.is_empty() {
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
        // (table, rowid) -> superseded keys from undo old-images.
        type StaleKeys = HashMap<(TableId, u64), Vec<(IndexSchema, Vec<Value>)>>;
        let mut indexes_by_table: HashMap<TableId, Vec<IndexSchema>> = HashMap::new();
        let mut rows: Vec<(TableId, u64)> = Vec::new();
        let mut seen: HashSet<(TableId, u64)> = HashSet::new();
        let mut stale = StaleKeys::new();
        for op in &txn.undo {
            let (table, rowid, old) = match op {
                UndoOp::Insert { table, rowid } => (*table, *rowid, None),
                UndoOp::Delete { table, rowid, row } => (*table, *rowid, Some(row)),
                UndoOp::Update { table, rowid, old } => (*table, *rowid, Some(old)),
            };
            if seen.insert((table, rowid)) {
                rows.push((table, rowid));
            }
            let Some(old) = old else { continue };
            let idxs =
                indexes_by_table.entry(table).or_insert_with(|| self.indexes_of_snapshot(table));
            for ix in idxs.iter() {
                let key = extract_key(ix, old);
                let entries = stale.entry((table, rowid)).or_default();
                if !entries.iter().any(|(e_ix, e_key)| e_ix.id == ix.id && *e_key == key) {
                    entries.push((ix.clone(), key));
                }
            }
        }
        let publish = self.inner.publish.lock();
        let ts = self.inner.commit_ts.load(AtomicOrdering::Relaxed) + 1;
        for &(table, rowid) in &rows {
            let _ = self.inner.storage.with_table_mut(table, |t| t.mvcc_publish(rowid, ts));
        }
        let mut queued: Vec<PendingUnindex> = Vec::new();
        for ((table, rowid), entries) in stale {
            let final_row =
                self.inner.storage.with_table(table, |t| t.get(rowid).cloned()).ok().flatten();
            for (ix, key) in entries {
                // A later write in this transaction restored the key: the
                // committed image still needs its entry.
                if final_row.as_ref().is_some_and(|r| extract_key(&ix, r) == key) {
                    continue;
                }
                queued.push(PendingUnindex {
                    ts,
                    table,
                    index: ix.id,
                    key_columns: ix.key_columns.clone(),
                    key,
                    rowid,
                });
            }
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
            // The apply mutex makes the check-and-remove atomic against
            // writers mutating heap + index.
            let guard = self.inner.storage.apply_guard(p.table);
            let _g = guard.lock();
            // 0 = row gone or key superseded (remove the entry), 1 = the
            // live image carries the key again (entry needed, drop the
            // tombstone), 2 = row mid-write (committed key unknown, retry).
            let verdict = self.inner.storage.with_table(p.table, |t| {
                if t.mvcc_row_dirty(p.rowid) {
                    return 2u8;
                }
                let resurrected = t.get(p.rowid).is_some_and(|row| {
                    p.key_columns.len() == p.key.len()
                        && p.key_columns.iter().zip(&p.key).all(|(&c, k)| row.get(c) == Some(k))
                });
                u8::from(resurrected)
            });
            match verdict {
                Ok(0) => {
                    let _ = self.inner.storage.with_index_mut(p.index, |t| {
                        t.remove(&p.key, p.rowid);
                    });
                    self.inner.gc_unindexed.fetch_add(1, AtomicOrdering::Relaxed);
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
        self.inner.gc_versions.fetch_add(versions, AtomicOrdering::Relaxed);
        self.inner.gc_chains.fetch_add(chains, AtomicOrdering::Relaxed);
        self.inner.gc_watermark.store(watermark, AtomicOrdering::Relaxed);
        watermark
    }

    /// Roll back to a savepoint. Locks are retained (DB2 semantics).
    pub fn rollback_to(&self, txn: &mut Txn, sp: Savepoint) -> DbResult<()> {
        txn.check_active()?;
        let ops = txn.drain_to_savepoint(sp);
        self.apply_undo(txn.id, &ops);
        Ok(())
    }

    /// Apply undo operations (newest-first) with compensation log records.
    ///
    /// Under MVCC, index entries are never removed eagerly: an entry this
    /// transaction is backing out may coincide with one an older snapshot
    /// still needs (a reused slot or a restored key), so removals are queued
    /// behind the GC watermark instead.
    fn apply_undo(&self, txn: TxnId, ops: &[UndoOp]) {
        let mvcc_on = self.inner.mvcc.load(AtomicOrdering::Relaxed);
        for op in ops {
            match op {
                UndoOp::Insert { table, rowid } => {
                    let keys = self.index_keys_for_row(*table, *rowid);
                    let _ = self.inner.storage.with_table_mut(*table, |t| {
                        if let Some(old) = t.remove(*rowid) {
                            let _ = self.inner.wal.append(
                                txn,
                                LogPayload::Delete { table: table.0, rowid: *rowid, row: old },
                            );
                        }
                    });
                    for (ix, key) in keys {
                        if mvcc_on {
                            self.queue_unindex(*table, &ix, key, *rowid);
                        } else {
                            let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                                t.remove(&key, *rowid);
                            });
                        }
                    }
                }
                UndoOp::Delete { table, rowid, row } => {
                    let _ = self.inner.storage.with_table_mut(*table, |t| {
                        t.put(*rowid, row.clone());
                    });
                    let _ = self.inner.wal.append(
                        txn,
                        LogPayload::Insert { table: table.0, rowid: *rowid, row: row.clone() },
                    );
                    let idxs = self.indexes_of_snapshot(*table);
                    for ix in idxs {
                        let key = extract_key(&ix, row);
                        let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                            t.insert(key.clone(), *rowid);
                        });
                    }
                }
                UndoOp::Update { table, rowid, old } => {
                    let idxs = self.indexes_of_snapshot(*table);
                    let _ = self.inner.storage.with_table_mut(*table, |t| {
                        if let Some(cur) = t.replace(*rowid, old.clone()) {
                            let _ = self.inner.wal.append(
                                txn,
                                LogPayload::Update {
                                    table: table.0,
                                    rowid: *rowid,
                                    old: cur.clone(),
                                    new: old.clone(),
                                },
                            );
                            for ix in &idxs {
                                let ck = extract_key(ix, &cur);
                                let ok = extract_key(ix, old);
                                if ck != ok {
                                    let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                                        t.insert(ok.clone(), *rowid);
                                    });
                                    if mvcc_on {
                                        self.queue_unindex(*table, ix, ck, *rowid);
                                    } else {
                                        let _ = self.inner.storage.with_index_mut(ix.id, |t| {
                                            t.remove(&ck, *rowid);
                                        });
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
    }

    /// Index keys currently pointing at a row (for undo of insert).
    fn index_keys_for_row(&self, table: TableId, rowid: u64) -> Vec<(IndexSchema, Vec<Value>)> {
        let row = self.inner.storage.with_table(table, |t| t.get(rowid).cloned()).ok().flatten();
        let Some(row) = row else { return Vec::new() };
        self.indexes_of_snapshot(table)
            .into_iter()
            .map(|ix| {
                let k = extract_key(&ix, &row);
                (ix, k)
            })
            .collect()
    }

    /// Queue a deferred index-entry removal at the current commit horizon
    /// (rollback paths — see [`Database::apply_undo`]).
    fn queue_unindex(&self, table: TableId, ix: &IndexSchema, key: Vec<Value>, rowid: u64) {
        self.inner.pending_unindex.lock().push(PendingUnindex {
            ts: self.inner.commit_ts.load(AtomicOrdering::Acquire),
            table,
            index: ix.id,
            key_columns: ix.key_columns.clone(),
            key,
            rowid,
        });
    }

    fn indexes_of_snapshot(&self, table: TableId) -> Vec<IndexSchema> {
        let catalog = self.inner.catalog.read();
        catalog.indexes_of(table).into_iter().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Parse and execute `sql` inside `txn`.
    pub fn exec(&self, txn: &mut Txn, sql: &str, params: &[Value]) -> DbResult<ExecResult> {
        let stmt = parse(sql)?;
        self.exec_stmt(txn, &stmt, params, None, Some(sql))
    }

    /// Execute an already-parsed statement inside `txn` (used by layers —
    /// like the datalink engine — that inspect and rewrite statements).
    pub fn execute(&self, txn: &mut Txn, stmt: &Stmt, params: &[Value]) -> DbResult<ExecResult> {
        self.exec_stmt(txn, stmt, params, None, None)
    }

    /// Schema of a table (public lookup for engine layers).
    pub fn table_schema(&self, table: &str) -> DbResult<TableSchema> {
        Ok(self.inner.catalog.read().table(table)?.clone())
    }

    /// Names of all user tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().all_tables().iter().map(|s| s.name.clone()).collect()
    }

    /// Prepare (bind) a statement: parse and pin its access plan now.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        let stmt = parse(sql)?;
        let catalog = self.inner.catalog.read();
        let (plan, except_plan) = match &stmt {
            Stmt::Select(sel) => {
                let p = plan_access(&catalog, &sel.table, sel.filter.as_ref())?;
                let ep = match &sel.except {
                    Some(e) => Some(plan_access(&catalog, &e.table, e.filter.as_ref())?),
                    None => None,
                };
                (Some(p), ep)
            }
            Stmt::Update { table, filter, .. } | Stmt::Delete { table, filter } => {
                (Some(plan_access(&catalog, table, filter.as_ref())?), None)
            }
            _ => (None, None),
        };
        Ok(Prepared { sql: sql.to_string(), stmt, plan, except_plan })
    }

    /// Re-bind a prepared statement against current statistics.
    pub fn rebind(&self, p: &mut Prepared) -> DbResult<()> {
        let fresh = self.prepare(&p.sql)?;
        *p = fresh;
        Ok(())
    }

    /// True when the plan was bound against statistics that have since
    /// changed (DLFM checks this to know when to re-apply its hand-crafted
    /// stats and rebind).
    pub fn plan_is_stale(&self, p: &Prepared) -> bool {
        match &p.plan {
            Some(plan) => plan.stats_generation != self.inner.catalog.read().stats.generation,
            None => false,
        }
    }

    /// Execute a prepared statement with its pinned plan.
    pub fn exec_prepared(
        &self,
        txn: &mut Txn,
        p: &Prepared,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        self.exec_stmt(
            txn,
            &p.stmt,
            params,
            p.plan.clone().map(|pl| (pl, p.except_plan.clone())),
            Some(&p.sql),
        )
    }

    fn exec_stmt(
        &self,
        txn: &mut Txn,
        stmt: &Stmt,
        params: &[Value],
        pinned: Option<(TablePlan, Option<TablePlan>)>,
        sql: Option<&str>,
    ) -> DbResult<ExecResult> {
        self.check_online()?;
        txn.check_active()?;
        txn.statements += 1;
        // Register the SQL for deadlock forensics; reset the per-thread
        // lock-wait accumulator so the slow-statement log can attribute
        // blocked time to this statement alone.
        if let Some(sql) = sql {
            self.inner.lm.set_current_sql(txn.id, sql);
        }
        let _ = crate::lock::take_stmt_lock_wait();
        let slow_threshold = *self.inner.slow_threshold.lock();
        let pinned_plan_for_log =
            if slow_threshold.is_some() { pinned.as_ref().map(|(p, _)| p.clone()) } else { None };
        let started = std::time::Instant::now();
        let result = match stmt {
            Stmt::CreateTable { name, columns } => self.ddl_create_table(name, columns),
            Stmt::CreateIndex { name, table, columns, unique } => {
                self.ddl_create_index(name, table, columns, *unique)
            }
            Stmt::DropTable { name } => self.ddl_drop_table(name),
            Stmt::Insert { table, columns, values } => {
                self.exec_insert(txn, table, columns.as_deref(), values, params)
            }
            Stmt::Select(sel) => self.exec_select(txn, sel, params, pinned),
            Stmt::Update { table, sets, filter } => {
                self.exec_update(txn, table, sets, filter.as_ref(), params, pinned.map(|p| p.0))
            }
            Stmt::Delete { table, filter } => {
                self.exec_delete(txn, table, filter.as_ref(), params, pinned.map(|p| p.0))
            }
            Stmt::Explain(inner) => self.exec_explain(inner),
        };
        // Cursor stability: read locks do not survive the statement.
        if self.inner.isolation == Isolation::CursorStability {
            self.inner.lm.release_shared(txn.id);
        }
        if let Some(threshold) = slow_threshold {
            let elapsed = started.elapsed();
            if elapsed >= threshold {
                self.record_slow_statement(txn.id, stmt, sql, elapsed, pinned_plan_for_log);
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
        stmt: &Stmt,
        sql: Option<&str>,
        elapsed: std::time::Duration,
        pinned_plan: Option<TablePlan>,
    ) {
        let lock_wait_micros = crate::lock::take_stmt_lock_wait();
        let plan = {
            let catalog = self.inner.catalog.read();
            let plan = match (pinned_plan, stmt) {
                (Some(p), _) => Some(p),
                (None, Stmt::Select(sel)) => {
                    plan_access(&catalog, &sel.table, sel.filter.as_ref()).ok()
                }
                (None, Stmt::Update { table, filter, .. })
                | (None, Stmt::Delete { table, filter }) => {
                    plan_access(&catalog, table, filter.as_ref()).ok()
                }
                _ => None,
            };
            plan.map(|p| p.render(&catalog))
        };
        let entry = SlowStatement {
            sql: sql.map(str::to_string),
            micros: elapsed.as_micros() as u64,
            lock_wait_micros,
            plan,
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
            columns: vec!["plan".into()],
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
                let schema = catalog.table(table)?;
                let n_idx = catalog.indexes_of(schema.id).len();
                Ok(format!(
                    "INSERT {} (heap append + {n_idx} index maintenance) cost=1.0 rows=1.0",
                    schema.name
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
        let schema = {
            let mut catalog = self.inner.catalog.write();
            catalog.create_table(name, cols)?
        };
        self.inner.storage.create_table(schema.id);
        self.inner.wal.append(ddl_txn.id, LogPayload::CreateTable { schema })?;
        let commit_rec = self.inner.wal.append(ddl_txn.id, LogPayload::Commit)?;
        if !self.inner.wal.force_up_to(commit_rec) {
            return Err(DbError::Offline);
        }
        Ok(ExecResult::Unit)
    }

    fn ddl_create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> DbResult<ExecResult> {
        let ddl_txn = self.begin();
        let schema = {
            let mut catalog = self.inner.catalog.write();
            catalog.create_index(name, table, columns, unique)?
        };
        self.inner.storage.create_index(schema.id);
        // Backfill from existing rows.
        let rows: Vec<(u64, Row)> = self
            .inner
            .storage
            .with_table(schema.table, |t| t.iter().map(|(id, r)| (id, r.clone())).collect())?;
        let mut seen = std::collections::HashSet::new();
        for (rowid, row) in &rows {
            let key = extract_key(&schema, row);
            if unique && !seen.insert(key.clone()) {
                // Roll the DDL back.
                self.inner.catalog.write().drop_index(&schema.name)?;
                self.inner.storage.drop_index(schema.id);
                return Err(DbError::UniqueViolation {
                    index: schema.name.clone(),
                    key: format!("{key:?}"),
                });
            }
            self.inner.storage.with_index_mut(schema.id, |t| {
                t.insert(key.clone(), *rowid);
            })?;
        }
        self.inner.wal.append(ddl_txn.id, LogPayload::CreateIndex { schema })?;
        let commit_rec = self.inner.wal.append(ddl_txn.id, LogPayload::Commit)?;
        if !self.inner.wal.force_up_to(commit_rec) {
            return Err(DbError::Offline);
        }
        Ok(ExecResult::Unit)
    }

    fn ddl_drop_table(&self, name: &str) -> DbResult<ExecResult> {
        let ddl_txn = self.begin();
        let (tid, idxs) = {
            let mut catalog = self.inner.catalog.write();
            catalog.drop_table(name)?
        };
        self.inner.storage.drop_table(tid);
        for ix in idxs {
            self.inner.storage.drop_index(ix);
        }
        self.inner.wal.append(ddl_txn.id, LogPayload::DropTable { table: tid.0 })?;
        let commit_rec = self.inner.wal.append(ddl_txn.id, LogPayload::Commit)?;
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
        table: &str,
        columns: Option<&[String]>,
        values: &[Expr],
        params: &[Value],
    ) -> DbResult<ExecResult> {
        let (schema, indexes) = self.table_meta(table)?;
        // Build the full row in schema order.
        let mut row: Row = vec![Value::Null; schema.columns.len()];
        match columns {
            Some(cols) => {
                if cols.len() != values.len() {
                    return Err(DbError::Plan(format!(
                        "{} columns but {} values",
                        cols.len(),
                        values.len()
                    )));
                }
                for (c, v) in cols.iter().zip(values) {
                    let i = schema.col_index(c)?;
                    row[i] = eval_standalone(v, params)?;
                }
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
                for (i, v) in values.iter().enumerate() {
                    row[i] = eval_standalone(v, params)?;
                }
            }
        }
        self.validate_row(&schema, &row)?;
        self.insert_row(txn, &schema, &indexes, row)?;
        Ok(ExecResult::Count(1))
    }

    /// Insert a validated row: locking, logging, physical apply.
    fn insert_row(
        &self,
        txn: &mut Txn,
        schema: &TableSchema,
        indexes: &[IndexSchema],
        row: Row,
    ) -> DbResult<u64> {
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        self.inner.lm.lock(txn.id, Res::Table(schema.id), LockMode::IX)?;

        // Key locks, in index-creation order (the order DB2 updates them).
        if nkl {
            for ix in indexes {
                let key = extract_key(ix, &row);
                self.inner.lm.lock(txn.id, Res::Key(schema.id, ix.id, key.clone()), LockMode::X)?;
                let next = self.inner.storage.with_index(ix.id, |t| t.next_key(&key))?;
                match next {
                    Some(nk) => {
                        self.inner.lm.lock(txn.id, Res::Key(schema.id, ix.id, nk), LockMode::X)?
                    }
                    None => {
                        self.inner.lm.lock(txn.id, Res::KeyEof(schema.id, ix.id), LockMode::X)?
                    }
                }
            }
        }

        // Physical apply: atomic unique check + mutation under the table's
        // apply mutex.
        let mvcc_on = self.inner.mvcc.load(AtomicOrdering::Relaxed);
        let guard = self.inner.storage.apply_guard(schema.id);
        let _g = guard.lock();
        for ix in indexes {
            if ix.unique {
                let key = extract_key(ix, &row);
                if self.unique_clash(schema.id, ix, &key, None)? {
                    return Err(DbError::UniqueViolation {
                        index: ix.name.clone(),
                        key: render_key(&key),
                    });
                }
            }
        }
        let rowid = self.inner.storage.with_table_mut(schema.id, |t| t.reserve())?;
        // The row is invisible to others until inserted; the X lock is
        // uncontended but required so later readers block until commit.
        self.inner.lm.lock(txn.id, Res::Row(schema.id, rowid), LockMode::X)?;
        self.inner
            .wal
            .append(txn.id, LogPayload::Insert { table: schema.id.0, rowid, row: row.clone() })?;
        let mut first_touch = false;
        self.inner.storage.with_table_mut(schema.id, |t| {
            // Open the version chain under the same write latch as the heap
            // mutation, so readers never see a dirty image without history.
            if mvcc_on {
                first_touch = t.mvcc_begin_write(rowid, txn.id.0);
            }
            t.put_reserved(rowid, row.clone())
        })?;
        if first_touch {
            txn.mvcc_touched.push((schema.id, rowid));
        }
        for ix in indexes {
            let key = extract_key(ix, &row);
            self.inner.storage.with_index_mut(ix.id, |t| {
                t.insert(key.clone(), rowid);
            })?;
        }
        txn.undo.push(UndoOp::Insert { table: schema.id, rowid });
        Ok(rowid)
    }

    fn exec_select(
        &self,
        txn: &mut Txn,
        sel: &SelectStmt,
        params: &[Value],
        pinned: Option<(TablePlan, Option<TablePlan>)>,
    ) -> DbResult<ExecResult> {
        let (pinned_main, pinned_except) = match pinned {
            Some((p, e)) => (Some(p), e),
            None => (None, None),
        };
        let (schema, _) = self.table_meta(&sel.table)?;
        let mut matched = self.find_matching(
            txn,
            &sel.table,
            sel.filter.as_ref(),
            params,
            sel.for_update,
            sel.for_share,
            pinned_main,
        )?;
        sort_rows(&schema, &mut matched, &sel.order_by)?;

        // Aggregates short-circuit projection.
        if let Projection::Items(items) = &sel.projection {
            if items.iter().any(|i| !matches!(i, SelectItem::Expr(_))) {
                let row = compute_aggregates(&schema, items, &matched, params)?;
                return Ok(ExecResult::Rows {
                    columns: items.iter().map(render_item_name).collect(),
                    rows: vec![row],
                });
            }
        }

        let (columns, mut rows) = project(&schema, &sel.projection, &matched, params)?;

        if let Some(except) = &sel.except {
            let sub = self.exec_select(txn, except, params, pinned_except.map(|p| (p, None)))?;
            let exclude: std::collections::HashSet<Row> = sub.rows().into_iter().collect();
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| !exclude.contains(r) && seen.insert(r.clone()));
        }

        Ok(ExecResult::Rows { columns, rows })
    }

    fn exec_update(
        &self,
        txn: &mut Txn,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        params: &[Value],
        pinned: Option<TablePlan>,
    ) -> DbResult<ExecResult> {
        let (schema, indexes) = self.table_meta(table)?;
        let matched = self.find_matching(txn, table, filter, params, true, false, pinned)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mut count = 0usize;
        for (rowid, old) in matched {
            let mut new = old.clone();
            for (col, e) in sets {
                let i = schema.col_index(col)?;
                new[i] = eval(e, &schema, &old, params)?;
            }
            self.validate_row(&schema, &new)?;
            // Key locks for changed index entries.
            if nkl {
                for ix in &indexes {
                    let ok = extract_key(ix, &old);
                    let nk = extract_key(ix, &new);
                    if ok != nk {
                        self.inner.lm.lock(
                            txn.id,
                            Res::Key(schema.id, ix.id, ok.clone()),
                            LockMode::X,
                        )?;
                        let next_of_old =
                            self.inner.storage.with_index(ix.id, |t| t.next_key(&ok))?;
                        if let Some(n) = next_of_old {
                            self.inner.lm.lock(
                                txn.id,
                                Res::Key(schema.id, ix.id, n),
                                LockMode::X,
                            )?;
                        }
                        self.inner.lm.lock(
                            txn.id,
                            Res::Key(schema.id, ix.id, nk.clone()),
                            LockMode::X,
                        )?;
                        let next_of_new =
                            self.inner.storage.with_index(ix.id, |t| t.next_key(&nk))?;
                        match next_of_new {
                            Some(n) => self.inner.lm.lock(
                                txn.id,
                                Res::Key(schema.id, ix.id, n),
                                LockMode::X,
                            )?,
                            None => self.inner.lm.lock(
                                txn.id,
                                Res::KeyEof(schema.id, ix.id),
                                LockMode::X,
                            )?,
                        }
                    }
                }
            }
            // Physical apply with unique checks.
            let mvcc_on = self.inner.mvcc.load(AtomicOrdering::Relaxed);
            let guard = self.inner.storage.apply_guard(schema.id);
            let _g = guard.lock();
            for ix in &indexes {
                if !ix.unique {
                    continue;
                }
                let ok = extract_key(ix, &old);
                let nk = extract_key(ix, &new);
                if ok != nk && self.unique_clash(schema.id, ix, &nk, Some(rowid))? {
                    return Err(DbError::UniqueViolation {
                        index: ix.name.clone(),
                        key: render_key(&nk),
                    });
                }
            }
            self.inner.wal.append(
                txn.id,
                LogPayload::Update {
                    table: schema.id.0,
                    rowid,
                    old: old.clone(),
                    new: new.clone(),
                },
            )?;
            let mut first_touch = false;
            self.inner.storage.with_table_mut(schema.id, |t| {
                if mvcc_on {
                    first_touch = t.mvcc_begin_write(rowid, txn.id.0);
                }
                t.replace(rowid, new.clone())
            })?;
            if first_touch {
                txn.mvcc_touched.push((schema.id, rowid));
            }
            for ix in &indexes {
                let ok = extract_key(ix, &old);
                let nk = extract_key(ix, &new);
                if ok != nk {
                    // Under MVCC the old entry stays: snapshot scans still
                    // resolve the pre-image through it. Commit queues its
                    // removal behind the GC watermark.
                    self.inner.storage.with_index_mut(ix.id, |t| {
                        if !mvcc_on {
                            t.remove(&ok, rowid);
                        }
                        t.insert(nk.clone(), rowid);
                    })?;
                }
            }
            txn.undo.push(UndoOp::Update { table: schema.id, rowid, old });
            count += 1;
        }
        Ok(ExecResult::Count(count))
    }

    fn exec_delete(
        &self,
        txn: &mut Txn,
        table: &str,
        filter: Option<&Expr>,
        params: &[Value],
        pinned: Option<TablePlan>,
    ) -> DbResult<ExecResult> {
        let (schema, indexes) = self.table_meta(table)?;
        let matched = self.find_matching(txn, table, filter, params, true, false, pinned)?;
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let mut count = 0usize;
        for (rowid, row) in matched {
            if nkl {
                // Deleting a key locks it and its next key (ARIES/KVL).
                for ix in &indexes {
                    let key = extract_key(ix, &row);
                    self.inner.lm.lock(
                        txn.id,
                        Res::Key(schema.id, ix.id, key.clone()),
                        LockMode::X,
                    )?;
                    let next = self.inner.storage.with_index(ix.id, |t| t.next_key(&key))?;
                    match next {
                        Some(n) => self.inner.lm.lock(
                            txn.id,
                            Res::Key(schema.id, ix.id, n),
                            LockMode::X,
                        )?,
                        None => self.inner.lm.lock(
                            txn.id,
                            Res::KeyEof(schema.id, ix.id),
                            LockMode::X,
                        )?,
                    }
                }
            }
            let mvcc_on = self.inner.mvcc.load(AtomicOrdering::Relaxed);
            let guard = self.inner.storage.apply_guard(schema.id);
            let _g = guard.lock();
            let existed = self.inner.storage.with_table(schema.id, |t| t.get(rowid).is_some())?;
            if !existed {
                continue;
            }
            self.inner.wal.append(
                txn.id,
                LogPayload::Delete { table: schema.id.0, rowid, row: row.clone() },
            )?;
            let mut first_touch = false;
            self.inner.storage.with_table_mut(schema.id, |t| {
                if mvcc_on {
                    first_touch = t.mvcc_begin_write(rowid, txn.id.0);
                }
                t.remove(rowid)
            })?;
            if first_touch {
                txn.mvcc_touched.push((schema.id, rowid));
            }
            // Under MVCC the index entries stay until the GC watermark
            // passes the delete's commit timestamp (queued at commit).
            if !mvcc_on {
                for ix in &indexes {
                    let key = extract_key(ix, &row);
                    self.inner.storage.with_index_mut(ix.id, |t| {
                        t.remove(&key, rowid);
                    })?;
                }
            }
            txn.undo.push(UndoOp::Delete { table: schema.id, rowid, row });
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
        let rowids = self.inner.storage.with_index(ix.id, |t| t.get(key))?;
        if rowids.is_empty() {
            return Ok(false);
        }
        if !self.inner.mvcc.load(AtomicOrdering::Relaxed) {
            return Ok(rowids.iter().any(|r| Some(*r) != exclude));
        }
        self.inner.storage.with_table(table, |t| {
            rowids.iter().any(|&r| {
                Some(r) != exclude && t.get(r).is_some_and(|row| extract_key(ix, row) == key)
            })
        })
    }

    /// Locate rows matching `filter`, locking as it goes.
    ///
    /// `for_write` controls row lock mode (X vs S) and the table intent
    /// lock (IX vs IS); `for_share` forces a locking S read even when MVCC
    /// is on (SELECT ... FOR SHARE). A plain read under MVCC takes the
    /// lock-free snapshot path instead. Index scans additionally take key
    /// locks when next-key locking is on — note the *order*: index key
    /// first, then row; modifications lock row first, then index keys. Two
    /// access paths to the same data with opposite acquisition orders is
    /// exactly the multi-index deadlock generator of paper §3.2.1.
    #[allow(clippy::too_many_arguments)]
    fn find_matching(
        &self,
        txn: &mut Txn,
        table: &str,
        filter: Option<&Expr>,
        params: &[Value],
        for_write: bool,
        for_share: bool,
        pinned: Option<TablePlan>,
    ) -> DbResult<Vec<(u64, Row)>> {
        let (schema, _) = self.table_meta(table)?;
        if let Some(f) = filter {
            crate::plan::check_columns(&self.inner.catalog.read(), table, f)?;
        }
        let plan = match pinned {
            Some(p) => p,
            None => plan_access(&self.inner.catalog.read(), table, filter)?,
        };
        if !for_write && !for_share && self.inner.mvcc.load(AtomicOrdering::Relaxed) {
            return self.find_matching_snapshot(txn, &schema, filter, params, &plan);
        }
        let nkl = self.inner.next_key_locking.load(AtomicOrdering::Relaxed);
        let table_mode = if for_write { LockMode::IX } else { LockMode::IS };
        let row_mode = if for_write { LockMode::X } else { LockMode::S };
        self.inner.lm.lock(txn.id, Res::Table(schema.id), table_mode)?;

        let mut out = Vec::new();
        match &plan.path {
            AccessPath::FullScan => {
                let rowids: Vec<u64> = self
                    .inner
                    .storage
                    .with_table(schema.id, |t| t.iter().map(|(id, _)| id).collect())?;
                for rowid in rowids {
                    self.inner.lm.lock(txn.id, Res::Row(schema.id, rowid), row_mode)?;
                    let row =
                        self.inner.storage.with_table(schema.id, |t| t.get(rowid).cloned())?;
                    let Some(row) = row else { continue };
                    let keep = match filter {
                        Some(f) => eval_pred(f, &schema, &row, params)?,
                        None => true,
                    };
                    if keep {
                        out.push((rowid, row));
                    }
                }
            }
            AccessPath::IndexEq { index, probes, .. } => {
                let prefix: Vec<Value> =
                    probes.iter().map(|e| eval_standalone(e, params)).collect::<DbResult<_>>()?;
                let hits = self.inner.storage.with_index(*index, |t| t.prefix_scan(&prefix))?;
                for (key, rowids) in hits {
                    if nkl {
                        // Key-value lock on the traversed key: S for reads,
                        // X for update-bound scans.
                        self.inner.lm.lock(
                            txn.id,
                            Res::Key(schema.id, *index, key.clone()),
                            row_mode,
                        )?;
                    }
                    for rowid in rowids {
                        self.inner.lm.lock(txn.id, Res::Row(schema.id, rowid), row_mode)?;
                        let row =
                            self.inner.storage.with_table(schema.id, |t| t.get(rowid).cloned())?;
                        let Some(row) = row else { continue };
                        // Revalidate: the row may have changed between the
                        // index probe and lock acquisition.
                        let keep = match filter {
                            Some(f) => eval_pred(f, &schema, &row, params)?,
                            None => true,
                        };
                        if keep {
                            out.push((rowid, row));
                        }
                    }
                }
                if nkl && self.inner.isolation == Isolation::RepeatableRead && out.is_empty() {
                    // Phantom protection on a miss: lock the next key.
                    let next = self.inner.storage.with_index(*index, |t| t.next_key(&prefix))?;
                    match next {
                        Some(n) => {
                            self.inner.lm.lock(txn.id, Res::Key(schema.id, *index, n), row_mode)?
                        }
                        None => {
                            self.inner.lm.lock(txn.id, Res::KeyEof(schema.id, *index), row_mode)?
                        }
                    }
                }
            }
            AccessPath::IndexRange { index, probes, lo, hi } => {
                let prefix: Vec<Value> =
                    probes.iter().map(|e| eval_standalone(e, params)).collect::<DbResult<_>>()?;
                let lo_v = match lo {
                    Some(b) => Some((eval_standalone(&b.value, params)?, b.inclusive)),
                    None => None,
                };
                let hi_v = match hi {
                    Some(b) => Some((eval_standalone(&b.value, params)?, b.inclusive)),
                    None => None,
                };
                let hits = self.inner.storage.with_index(*index, |t| {
                    t.range_scan(
                        &prefix,
                        lo_v.as_ref().map(|(v, i)| (v, *i)),
                        hi_v.as_ref().map(|(v, i)| (v, *i)),
                    )
                })?;
                for (key, rowids) in hits {
                    if nkl {
                        self.inner.lm.lock(
                            txn.id,
                            Res::Key(schema.id, *index, key.clone()),
                            row_mode,
                        )?;
                    }
                    for rowid in rowids {
                        self.inner.lm.lock(txn.id, Res::Row(schema.id, rowid), row_mode)?;
                        let row =
                            self.inner.storage.with_table(schema.id, |t| t.get(rowid).cloned())?;
                        let Some(row) = row else { continue };
                        let keep = match filter {
                            Some(f) => eval_pred(f, &schema, &row, params)?,
                            None => true,
                        };
                        if keep {
                            out.push((rowid, row));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out.dedup_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Snapshot-read arm of [`Database::find_matching`]: resolve the scan
    /// against the transaction's snapshot timestamp. Takes **no** table,
    /// row, or key locks — readers never wait on writers and never appear
    /// in the wait-for graph. Stale index entries (removal deferred behind
    /// the GC watermark) are harmless: the visible image is re-checked
    /// against the filter, which subsumes the probe predicate.
    fn find_matching_snapshot(
        &self,
        txn: &mut Txn,
        schema: &TableSchema,
        filter: Option<&Expr>,
        params: &[Value],
        plan: &TablePlan,
    ) -> DbResult<Vec<(u64, Row)>> {
        let snapshot = self.snapshot_for(txn);
        let me = txn.id.0;
        self.inner.mvcc_reads.fetch_add(1, AtomicOrdering::Relaxed);
        let mut scanned = 0u64;
        let mut out: Vec<(u64, Row)> = Vec::new();
        let keep_visible =
            |rowid: u64, row: Option<Row>, out: &mut Vec<(u64, Row)>| -> DbResult<()> {
                let Some(row) = row else { return Ok(()) };
                let keep = match filter {
                    Some(f) => eval_pred(f, schema, &row, params)?,
                    None => true,
                };
                if keep {
                    out.push((rowid, row));
                }
                Ok(())
            };
        match &plan.path {
            AccessPath::FullScan => {
                // Union live heap rows with chain-only rowids: a committed
                // delete empties the slot while older snapshots must still
                // see the prior image.
                let visible: Vec<(u64, Row)> = self.inner.storage.with_table(schema.id, |t| {
                    let mut ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
                    ids.extend(t.mvcc_rowids());
                    ids.sort_unstable();
                    ids.dedup();
                    ids.into_iter()
                        .filter_map(|id| {
                            t.mvcc_visible(id, snapshot, me, &mut scanned).map(|r| (id, r.clone()))
                        })
                        .collect()
                })?;
                for (rowid, row) in visible {
                    keep_visible(rowid, Some(row), &mut out)?;
                }
            }
            AccessPath::IndexEq { index, probes, .. } => {
                let prefix: Vec<Value> =
                    probes.iter().map(|e| eval_standalone(e, params)).collect::<DbResult<_>>()?;
                let hits = self.inner.storage.with_index(*index, |t| t.prefix_scan(&prefix))?;
                for (_key, rowids) in hits {
                    for rowid in rowids {
                        let row = self.inner.storage.with_table(schema.id, |t| {
                            t.mvcc_visible(rowid, snapshot, me, &mut scanned).cloned()
                        })?;
                        keep_visible(rowid, row, &mut out)?;
                    }
                }
            }
            AccessPath::IndexRange { index, probes, lo, hi } => {
                let prefix: Vec<Value> =
                    probes.iter().map(|e| eval_standalone(e, params)).collect::<DbResult<_>>()?;
                let lo_v = match lo {
                    Some(b) => Some((eval_standalone(&b.value, params)?, b.inclusive)),
                    None => None,
                };
                let hi_v = match hi {
                    Some(b) => Some((eval_standalone(&b.value, params)?, b.inclusive)),
                    None => None,
                };
                let hits = self.inner.storage.with_index(*index, |t| {
                    t.range_scan(
                        &prefix,
                        lo_v.as_ref().map(|(v, i)| (v, *i)),
                        hi_v.as_ref().map(|(v, i)| (v, *i)),
                    )
                })?;
                for (_key, rowids) in hits {
                    for rowid in rowids {
                        let row = self.inner.storage.with_table(schema.id, |t| {
                            t.mvcc_visible(rowid, snapshot, me, &mut scanned).cloned()
                        })?;
                        keep_visible(rowid, row, &mut out)?;
                    }
                }
            }
        }
        self.inner.mvcc_versions_scanned.record(scanned);
        out.sort_by_key(|(id, _)| *id);
        out.dedup_by_key(|(id, _)| *id);
        Ok(out)
    }

    fn table_meta(&self, table: &str) -> DbResult<(TableSchema, Vec<IndexSchema>)> {
        let catalog = self.inner.catalog.read();
        let schema = catalog.table(table)?.clone();
        let indexes = catalog.indexes_of(schema.id).into_iter().cloned().collect();
        Ok((schema, indexes))
    }

    fn validate_row(&self, schema: &TableSchema, row: &Row) -> DbResult<()> {
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

    // ------------------------------------------------------------------
    // Statistics / optimizer utilities
    // ------------------------------------------------------------------

    /// RUNSTATS: measure real cardinalities, *overwriting* any hand-crafted
    /// statistics (the paper's hazard).
    pub fn runstats(&self, table: &str) -> DbResult<()> {
        let (schema, indexes) = self.table_meta(table)?;
        let card = self.inner.storage.with_table(schema.id, |t| t.len())? as u64;
        let mut catalog = self.inner.catalog.write();
        catalog.stats.runstats_table(schema.id, card);
        for ix in indexes {
            let distinct = self.inner.storage.with_index(ix.id, |t| t.distinct_keys())? as u64;
            catalog.stats.runstats_index(ix.id, distinct);
        }
        Ok(())
    }

    /// Hand-craft table statistics (DLFM's optimizer-influencing utility).
    pub fn set_table_stats(&self, table: &str, cardinality: u64) -> DbResult<()> {
        let id = self.inner.catalog.read().table(table)?.id;
        self.inner.catalog.write().stats.set_table_stats(id, cardinality);
        Ok(())
    }

    /// Hand-craft index statistics.
    pub fn set_index_stats(&self, index: &str, distinct_keys: u64) -> DbResult<()> {
        let id = self.inner.catalog.read().index(index)?.id;
        self.inner.catalog.write().stats.set_index_stats(id, distinct_keys);
        Ok(())
    }

    /// Whether the table's statistics are currently hand-crafted.
    pub fn stats_hand_crafted(&self, table: &str) -> DbResult<bool> {
        let catalog = self.inner.catalog.read();
        let id = catalog.table(table)?.id;
        Ok(catalog.stats.hand_crafted(id))
    }

    /// Current statistics generation (bumped on every stats change).
    pub fn stats_generation(&self) -> u64 {
        self.inner.catalog.read().stats.generation
    }

    /// Read-only access to the statistics registry.
    pub fn with_stats<R>(&self, f: impl FnOnce(&StatsRegistry) -> R) -> R {
        f(&self.inner.catalog.read().stats)
    }

    // ------------------------------------------------------------------
    // Runtime knobs & metrics
    // ------------------------------------------------------------------

    /// Toggle MVCC snapshot reads at runtime. Only safe on a quiesced
    /// database: writers already in flight before enabling have no version
    /// chains, so concurrent snapshot readers could observe their dirty
    /// rows.
    pub fn set_mvcc(&self, on: bool) {
        self.inner.mvcc.store(on, AtomicOrdering::Relaxed);
    }

    /// Are reads resolved as lock-free snapshot scans?
    pub fn mvcc(&self) -> bool {
        self.inner.mvcc.load(AtomicOrdering::Relaxed)
    }

    /// Statements resolved as lock-free snapshot reads so far.
    pub fn mvcc_reads_total(&self) -> u64 {
        self.inner.mvcc_reads.load(AtomicOrdering::Relaxed)
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

    /// Change the lock timeout.
    pub fn set_lock_timeout(&self, d: std::time::Duration) {
        self.inner.lm.set_timeout(d);
    }

    /// Change the lock-escalation threshold (`None` disables escalation).
    pub fn set_lock_escalation_threshold(&self, t: Option<usize>) {
        self.inner.lm.set_escalation_threshold(t);
    }

    /// Change the WAL active-window capacity.
    pub fn set_log_capacity(&self, records: usize) {
        self.inner.wal.set_capacity(records);
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

    /// Change the group-commit leader accumulation window.
    pub fn set_group_commit_wait(&self, d: std::time::Duration) {
        self.inner.wal.set_group_commit_wait(d);
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

    /// Locks currently held by a transaction (diagnostics, Figure 4 trace).
    pub fn locks_held(&self, txn: TxnId) -> usize {
        self.inner.lm.held_count(txn)
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
        *self.inner.slow_threshold.lock() = t;
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
        let lm = self.lock_metrics().snapshot();
        for (kind, value) in [
            ("immediate_grants", lm.immediate_grants),
            ("waits", lm.waits),
            ("deadlocks", lm.deadlocks),
            ("timeouts", lm.timeouts),
            ("escalations", lm.escalations),
            ("acquisitions", lm.acquisitions),
        ] {
            r.counter(
                "minidb_lock_events_total",
                "Lock-manager events by kind (paper section 4).",
                &[("kind", kind)],
                value,
            );
        }
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
        r.counter(
            "minidb_mvcc_reads_total",
            "Statements resolved as lock-free snapshot reads.",
            &[],
            self.mvcc_reads_total(),
        );
        r.histogram(
            "minidb_mvcc_versions_scanned",
            "Version-chain entries examined per snapshot statement.",
            &[],
            &self.inner.mvcc_versions_scanned,
        );
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
        for (kind, value) in [
            ("versions", self.inner.gc_versions.load(AtomicOrdering::Relaxed)),
            ("chains", self.inner.gc_chains.load(AtomicOrdering::Relaxed)),
            ("index_entries", self.inner.gc_unindexed.load(AtomicOrdering::Relaxed)),
        ] {
            r.counter(
                "minidb_mvcc_gc_collected_total",
                "Objects reclaimed by version GC, by kind.",
                &[("kind", kind)],
                value,
            );
        }
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

    /// Number of live rows in a table (diagnostics).
    pub fn table_len(&self, table: &str) -> DbResult<usize> {
        let id = self.inner.catalog.read().table(table)?.id;
        self.inner.storage.with_table(id, |t| t.len())
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
        *self.inner.catalog.write() = image.catalog.clone();
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
        *self.inner.catalog.write() = Catalog::default();
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
                    *self.inner.catalog.write() = c.catalog.clone();
                    self.inner.storage.restore(c.storage.clone());
                    c.lsn + 1
                }
                _ => {
                    *self.inner.catalog.write() = Catalog::default();
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
        // DDL is auto-committed, so its records always carry a committed txn.
        match &rec.payload {
            LogPayload::CreateTable { schema } => {
                if committed.contains(&rec.txn) {
                    self.inner.catalog.write().adopt_table(schema.clone());
                    self.inner.storage.create_table(schema.id);
                }
            }
            LogPayload::CreateIndex { schema } => {
                if committed.contains(&rec.txn) {
                    self.inner.catalog.write().adopt_index(schema.clone());
                    self.inner.storage.create_index(schema.id);
                    // Backfill from whatever the heap holds at this point.
                    let rows: Vec<(u64, Row)> =
                        self.inner.storage.with_table(schema.table, |t| {
                            t.iter().map(|(id, r)| (id, r.clone())).collect()
                        })?;
                    for (rowid, row) in rows {
                        let key = extract_key(schema, &row);
                        self.inner.storage.with_index_mut(schema.id, |t| {
                            t.insert(key.clone(), rowid);
                        })?;
                    }
                }
            }
            LogPayload::DropTable { table } => {
                if committed.contains(&rec.txn) {
                    let name = self
                        .inner
                        .catalog
                        .read()
                        .table_by_id(TableId(*table))
                        .map(|s| s.name.clone());
                    if let Ok(name) = name {
                        let (tid, idxs) = self.inner.catalog.write().drop_table(&name)?;
                        self.inner.storage.drop_table(tid);
                        for ix in idxs {
                            self.inner.storage.drop_index(ix);
                        }
                    }
                }
            }
            LogPayload::Insert { table, rowid, row } => {
                if committed.contains(&rec.txn) {
                    let tid = TableId(*table);
                    self.inner.storage.with_table_mut(tid, |t| t.put(*rowid, row.clone()))?;
                    for ix in self.indexes_of_snapshot(tid) {
                        let key = extract_key(&ix, row);
                        self.inner.storage.with_index_mut(ix.id, |t| {
                            t.insert(key.clone(), *rowid);
                        })?;
                    }
                }
            }
            LogPayload::Delete { table, rowid, row } => {
                if committed.contains(&rec.txn) {
                    let tid = TableId(*table);
                    self.inner.storage.with_table_mut(tid, |t| t.remove(*rowid))?;
                    for ix in self.indexes_of_snapshot(tid) {
                        let key = extract_key(&ix, row);
                        self.inner.storage.with_index_mut(ix.id, |t| {
                            t.remove(&key, *rowid);
                        })?;
                    }
                }
            }
            LogPayload::Update { table, rowid, old, new } => {
                if committed.contains(&rec.txn) {
                    let tid = TableId(*table);
                    self.inner.storage.with_table_mut(tid, |t| {
                        t.replace(*rowid, new.clone());
                    })?;
                    for ix in self.indexes_of_snapshot(tid) {
                        let ok = extract_key(&ix, old);
                        let nk = extract_key(&ix, new);
                        if ok != nk {
                            self.inner.storage.with_index_mut(ix.id, |t| {
                                t.remove(&ok, *rowid);
                                t.insert(nk.clone(), *rowid);
                            })?;
                        }
                    }
                }
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
pub fn extract_key(ix: &IndexSchema, row: &Row) -> Vec<Value> {
    ix.key_columns.iter().map(|&i| row[i].clone()).collect()
}

fn render_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(", "))
}

fn render_item_name(item: &SelectItem) -> String {
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

fn sort_rows(schema: &TableSchema, rows: &mut [(u64, Row)], order_by: &[OrderKey]) -> DbResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let keys: Vec<(usize, bool)> = order_by
        .iter()
        .map(|k| Ok((schema.col_index(&k.column)?, k.desc)))
        .collect::<DbResult<_>>()?;
    rows.sort_by(|(_, a), (_, b)| {
        for &(i, desc) in &keys {
            let ord = a[i].cmp(&b[i]);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

fn project(
    schema: &TableSchema,
    projection: &Projection,
    matched: &[(u64, Row)],
    params: &[Value],
) -> DbResult<(Vec<String>, Vec<Row>)> {
    match projection {
        Projection::Star => {
            Ok((schema.column_names(), matched.iter().map(|(_, r)| r.clone()).collect()))
        }
        Projection::Items(items) => {
            let mut columns = Vec::with_capacity(items.len());
            let mut exprs = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    SelectItem::Expr(e) => {
                        columns.push(render_item_name(item));
                        exprs.push(e.clone());
                    }
                    other => {
                        return Err(DbError::Plan(format!(
                            "aggregate {other:?} mixed with row projection"
                        )))
                    }
                }
            }
            let mut rows = Vec::with_capacity(matched.len());
            for (_, r) in matched {
                let mut out = Vec::with_capacity(exprs.len());
                for e in &exprs {
                    out.push(eval(e, schema, r, params)?);
                }
                rows.push(out);
            }
            Ok((columns, rows))
        }
    }
}

fn compute_aggregates(
    schema: &TableSchema,
    items: &[SelectItem],
    matched: &[(u64, Row)],
    _params: &[Value],
) -> DbResult<Row> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::CountStar => out.push(Value::Int(matched.len() as i64)),
            SelectItem::Agg(f, col) => {
                let i = schema.col_index(col)?;
                let vals: Vec<&Value> =
                    matched.iter().map(|(_, r)| &r[i]).filter(|v| !v.is_null()).collect();
                let v = match f {
                    AggFn::Count => Value::Int(vals.len() as i64),
                    AggFn::Min => vals.iter().min().map(|v| (*v).clone()).unwrap_or(Value::Null),
                    AggFn::Max => vals.iter().max().map(|v| (*v).clone()).unwrap_or(Value::Null),
                    AggFn::Sum => {
                        if vals.is_empty() {
                            Value::Null
                        } else {
                            let mut acc = 0i64;
                            for v in vals {
                                acc = acc
                                    .checked_add(v.as_int()?)
                                    .ok_or_else(|| DbError::Type("SUM overflow".into()))?;
                            }
                            Value::Int(acc)
                        }
                    }
                };
                out.push(v);
            }
            SelectItem::Expr(_) => {
                return Err(DbError::Plan(
                    "plain expressions mixed with aggregates are unsupported".into(),
                ))
            }
        }
    }
    Ok(out)
}
