//! The host database with its datalink engine.
//!
//! [`HostDb`] wraps a [`minidb::Database`] and intercepts every statement
//! that touches a DATALINK column (paper §2): inserts link files, deletes
//! unlink them, updates do both, DROP TABLE deletes the file groups. The
//! host also owns the transaction machinery the DLFM relies on:
//! monotonically increasing transaction ids and recovery ids (§3.3); the
//! presumed-abort coordinator is [`crate::twopc`].
//!
//! Internal bookkeeping lives in two system tables kept transactionally
//! consistent with user data:
//!
//! * `sys_dlcols(tbl, col, grp_id, server_any, access, recovery)` — one row
//!   per DATALINK column (the file group);
//! * `sys_datalinks(tbl, col, server, filename, rec_id)` — one row per
//!   currently linked file, carrying the recovery id the Reconcile and
//!   Restore utilities need.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use dlfm::{AccessControl, DlfmRequest, DlfmResponse, GroupSpec, MAX_BATCH_OPS};
use dlrpc::Connector;
use minidb::sql::ast::{Expr, Projection, SelectItem, SelectStmt, Stmt};
use minidb::{Database, DbConfig, ExecResult, Prepared, Row, Session, Value};
use parking_lot::{Mutex, RwLock};

use crate::coordlog::CoordLog;
use crate::error::{HostError, HostResult};
use crate::participant::{Conns, DlOp, DlfmConn, Vote};
use crate::tokens::{Invalidation, Lookup};
use crate::url::DatalinkUrl;

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// This database's id (embedded in recovery ids).
    pub dbid: i64,
    /// Configuration of the host's own storage engine.
    pub db: DbConfig,
    /// Synchronous phase-2 commit (the paper's conclusion: this must be
    /// true; the `false` mode exists to reproduce the §4 distributed
    /// deadlock).
    pub synchronous_commit: bool,
    /// Maximum idle DLFM connections kept per server for reuse. Sessions
    /// and the indoubt resolver check connections out of this pool instead
    /// of opening a fresh one (under the DLFM's dedicated agent model a
    /// fresh connection gets a whole agent thread pinned to it, for as
    /// long as it stays open); checked-in connections beyond the cap are
    /// closed. `0` disables reuse.
    pub conn_pool_size: usize,
    /// How long a datalink operation may block on an in-progress shard
    /// migration of its prefix before failing.
    pub shard_route_timeout: std::time::Duration,
    /// How long a shard migration waits for transactions pinned to the
    /// pre-migration epoch to finish before giving up.
    pub shard_drain_timeout: std::time::Duration,
    /// Per-transaction autopsy: transactions that run slower than
    /// [`autopsy_slow`](HostConfig::autopsy_slow) (or abort, with
    /// [`autopsy_aborts`](HostConfig::autopsy_aborts)) get their
    /// cross-process span tree and journal slice written as a bundle
    /// under this directory. `None` disables autopsies.
    pub autopsy_dir: Option<std::path::PathBuf>,
    /// Latency threshold above which a finished transaction is autopsied.
    pub autopsy_slow: std::time::Duration,
    /// Autopsy aborted (rolled-back) transactions regardless of latency.
    pub autopsy_aborts: bool,
    /// At most this many autopsies per host (an abort storm must not
    /// fill the disk).
    pub autopsy_max: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            dbid: 1,
            db: DbConfig::default(),
            synchronous_commit: true,
            conn_pool_size: 8,
            shard_route_timeout: std::time::Duration::from_secs(30),
            shard_drain_timeout: std::time::Duration::from_secs(30),
            autopsy_dir: None,
            autopsy_slow: std::time::Duration::from_secs(1),
            autopsy_aborts: true,
            autopsy_max: 16,
        }
    }
}

impl HostConfig {
    /// Fast-timeout variant for tests.
    pub fn for_tests() -> Self {
        HostConfig { dbid: 1, db: DbConfig::for_tests(), ..HostConfig::default() }
    }
}

/// Per-column datalink metadata (one file group per column, paper §3).
#[derive(Debug, Clone)]
pub struct DlColumn {
    /// File-group id.
    pub grp_id: i64,
    /// Access control applied to linked files.
    pub access: AccessControl,
    /// Whether DLFM handles backup/recovery for this group.
    pub recovery: bool,
}

/// The DATALINK columns of one table, by (lower-case) column name.
pub type DlColumns = Arc<[(String, DlColumn)]>;

/// Append a column to its table's list (a new list: readers share the old).
fn add_dl_column(cols: &mut HashMap<String, DlColumns>, table: &str, column: &str, info: DlColumn) {
    let of_table = cols.entry(table.to_ascii_lowercase()).or_default();
    *of_table = of_table.iter().cloned().chain([(column.to_ascii_lowercase(), info)]).collect();
}

/// Options for one DATALINK column at table-creation time.
#[derive(Debug, Clone)]
pub struct DatalinkSpec {
    /// Column name.
    pub column: String,
    /// Access control.
    pub access: AccessControl,
    /// Recovery option ("RECOVERY YES").
    pub recovery: bool,
}

/// Host-side operation counters.
#[derive(Debug, Default)]
pub struct HostMetrics {
    /// Committed transactions.
    pub commits: AtomicU64,
    /// Rolled-back transactions.
    pub rollbacks: AtomicU64,
    /// Two-phase commits (at least one DLFM involved).
    pub twopc_commits: AtomicU64,
    /// Prepare-phase failures (global abort).
    pub prepare_failures: AtomicU64,
    /// LinkFile requests issued.
    pub links: AtomicU64,
    /// UnlinkFile requests issued.
    pub unlinks: AtomicU64,
    /// Statement rounds: flushes of a statement's (or a load piece's)
    /// queued link/unlink operations, one batch per shard (`links +
    /// unlinks` over this is operations per round).
    pub dl_rounds: AtomicU64,
    /// Transactions whose phase 1 rode on their round (an autocommit
    /// statement's or a load piece's) instead of costing a Prepare call of
    /// its own.
    pub unsolicited_votes: AtomicU64,
    /// Indoubt transactions resolved after failures, counting only the
    /// resolutions their participant acknowledged.
    pub indoubts_resolved: AtomicU64,
    /// RPC failures (transport errors or DLFM-side errors) on the commit,
    /// abort, backout, and indoubt-resolution paths, counted so
    /// partial-commit anomalies are visible.
    pub host_rpc_errors: AtomicU64,
    /// Connection-pool checkouts satisfied by an idle pooled connection.
    pub conn_pool_hits: AtomicU64,
    /// Connection-pool checkouts that had to open a fresh connection.
    pub conn_pool_misses: AtomicU64,
    /// Connections retired (dropped instead of pooled) after an RPC error
    /// or because the pool was full.
    pub conn_retired: AtomicU64,
    /// Datalink operations routed through the shard map (ring or override).
    pub shard_routes: AtomicU64,
    /// Routes that had to wait out an in-progress prefix migration.
    pub shard_route_waits: AtomicU64,
    /// Prefix migrations completed.
    pub shard_migrations: AtomicU64,
    /// Link rows moved between shards by migrations.
    pub shard_migrated_rows: AtomicU64,
    /// Phase-2 commit transport failures survived: the commit decision was
    /// already durable, so the error is absorbed (the resolver re-drives
    /// phase 2) instead of surfacing a false abort to the application.
    pub phase2_transport_errors: AtomicU64,
    /// Resolver calls that failed (an unreachable server, a refused or
    /// lost decision); resolution continued past each (liveness fix).
    pub resolver_partial_failures: AtomicU64,
    /// Transaction autopsy bundles written (slow or aborted transactions).
    pub autopsies: AtomicU64,
    /// Telemetry scrapes of attached DLFMs that failed (server down or
    /// mid-restart); fleet views render such shards as absent/DOWN.
    pub telemetry_scrape_errors: AtomicU64,
    /// Access-token cache: hits, misses, entries dropped by cause.
    pub token_cache: Arc<crate::tokens::TokenCacheMetrics>,
}

/// The two `sys_datalinks` statements behind every linked-row write,
/// parsed and planned once per host rather than once per operation.
struct DlStatements {
    ins: Prepared,
    del: Prepared,
}

impl DlStatements {
    fn bind(db: &Database) -> DlStatements {
        let prepare = |sql| db.prepare(sql).expect("sys_datalinks statements always bind");
        DlStatements {
            ins: prepare(
                "INSERT INTO sys_datalinks (tbl, col, server, filename, rec_id) \
                 VALUES (?, ?, ?, ?, ?)",
            ),
            del: prepare("DELETE FROM sys_datalinks WHERE server = ? AND filename = ?"),
        }
    }
}

pub(crate) struct HostInner {
    pub(crate) db: Database,
    dl_stmts: RwLock<Arc<DlStatements>>,
    pub(crate) dlfms: RwLock<HashMap<String, Connector<DlfmRequest, DlfmResponse>>>,
    pub(crate) xid_seq: AtomicI64,
    pub(crate) rec_seq: AtomicI64,
    pub(crate) grp_seq: AtomicI64,
    /// DATALINK columns per (lower-case) table name, in creation order.
    pub(crate) dl_cols: RwLock<HashMap<String, DlColumns>>,
    pub(crate) coord_log: CoordLog,
    /// Transactions open on this host, from `begin` until commit or
    /// rollback returns: the resolver leaves them to their session.
    pub(crate) open_xids: Mutex<HashSet<i64>>,
    pub(crate) sync_commit: AtomicBool,
    pub(crate) metrics: HostMetrics,
    pub(crate) backups: Mutex<Vec<crate::utilities::HostBackup>>,
    /// Idle DLFM connections kept for reuse, per server.
    pub(crate) conn_pool: Mutex<HashMap<String, Vec<DlfmConn>>>,
    /// Placement of link metadata over the attached DLFMs (ROADMAP 2).
    pub(crate) shards: crate::shard::ShardMap,
    /// DLFM-issued access tokens remembered per link (`crate::tokens`).
    pub(crate) tokens: crate::tokens::TokenCache,
    pub(crate) config: HostConfig,
}

fn create_sys_tables(db: &Database) {
    let mut s = Session::new(db);
    s.exec(
        "CREATE TABLE sys_dlcols (tbl VARCHAR NOT NULL, col VARCHAR NOT NULL, \
         grp_id BIGINT NOT NULL, access_ctl INTEGER NOT NULL, recovery INTEGER NOT NULL)",
    )
    .expect("sys table creation");
    s.exec("CREATE UNIQUE INDEX ix_sys_dlcols ON sys_dlcols (tbl, col)")
        .expect("sys index creation");
    s.exec(
        "CREATE TABLE sys_datalinks (tbl VARCHAR NOT NULL, col VARCHAR NOT NULL, \
         server VARCHAR NOT NULL, filename VARCHAR NOT NULL, rec_id BIGINT NOT NULL)",
    )
    .expect("sys table creation");
    s.exec("CREATE UNIQUE INDEX ix_sys_dl_file ON sys_datalinks (server, filename)")
        .expect("sys index creation");
    s.exec("CREATE INDEX ix_sys_dl_tbl ON sys_datalinks (tbl, col)").expect("sys index creation");
    // System tables are hot paths of the datalink engine: make sure the
    // optimizer probes them by index (the DLFM lesson applies here too).
    db.set_table_stats("sys_dlcols", 1_000_000).expect("stats");
    db.set_table_stats("sys_datalinks", 1_000_000).expect("stats");
    db.set_index_stats("ix_sys_dlcols", 1_000_000).expect("stats");
    db.set_index_stats("ix_sys_dl_file", 1_000_000).expect("stats");
    db.set_index_stats("ix_sys_dl_tbl", 1_000_000).expect("stats");
}

/// A shared handle to the host database. Cheap to clone.
#[derive(Clone)]
pub struct HostDb {
    pub(crate) inner: Arc<HostInner>,
}

impl HostDb {
    /// Create a host database.
    pub fn new(config: HostConfig) -> HostDb {
        let db = Database::new(config.db.clone());
        create_sys_tables(&db);
        let metrics = HostMetrics::default();
        HostDb {
            inner: Arc::new(HostInner {
                dl_stmts: RwLock::new(Arc::new(DlStatements::bind(&db))),
                db,
                dlfms: RwLock::new(HashMap::new()),
                xid_seq: AtomicI64::new(1),
                rec_seq: AtomicI64::new(1),
                grp_seq: AtomicI64::new(1),
                dl_cols: RwLock::new(HashMap::new()),
                coord_log: CoordLog::new(),
                open_xids: Mutex::new(HashSet::new()),
                sync_commit: AtomicBool::new(config.synchronous_commit),
                tokens: crate::tokens::TokenCache::new(metrics.token_cache.clone()),
                metrics,
                backups: Mutex::new(Vec::new()),
                conn_pool: Mutex::new(HashMap::new()),
                shards: crate::shard::ShardMap::new(),
                config,
            }),
        }
    }

    /// The bound `sys_datalinks` statements, rebound first if the
    /// statistics they were planned against have changed.
    fn dl_statements(&self) -> Arc<DlStatements> {
        let bound = self.inner.dl_stmts.read().clone();
        if !self.inner.db.plan_is_stale(&bound.del) {
            return bound;
        }
        let fresh = Arc::new(DlStatements::bind(&self.inner.db));
        *self.inner.dl_stmts.write() = fresh.clone();
        fresh
    }

    /// Open an application session.
    pub fn session(&self) -> HostSession {
        HostSession {
            host: self.clone(),
            session: Session::new(&self.inner.db),
            conns: Conns::new(self),
            txn: None,
        }
    }

    /// This host's database id.
    pub fn dbid(&self) -> i64 {
        self.inner.config.dbid
    }

    /// Next transaction id (monotonically increasing, paper §3.3).
    pub fn next_xid(&self) -> i64 {
        self.inner.xid_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Never hand out `xid` or anything below it again.
    pub(crate) fn advance_xid_past(&self, xid: i64) {
        self.inner.xid_seq.fetch_max(xid + 1, Ordering::SeqCst);
    }

    /// Next recovery id: dbid in the high bits, a monotonic timestamp
    /// sequence in the low bits — globally unique and monotonically
    /// increasing per host (paper §3.2).
    pub fn next_rec_id(&self) -> i64 {
        (self.inner.config.dbid << 48) | self.inner.rec_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Current recovery-id watermark: the last id assigned. Everything
    /// `<=` this watermark happened before "now" (used by Backup).
    pub fn current_rec_id(&self) -> i64 {
        (self.inner.config.dbid << 48) | (self.inner.rec_seq.load(Ordering::SeqCst) - 1)
    }

    /// The underlying storage engine (diagnostics and utilities).
    pub fn db(&self) -> &Database {
        &self.inner.db
    }

    /// Host counters.
    pub fn metrics(&self) -> &HostMetrics {
        &self.inner.metrics
    }

    /// The coordinator log (diagnostics).
    pub fn coord_log(&self) -> &CoordLog {
        &self.inner.coord_log
    }

    /// Toggle synchronous phase-2 commit (the §4 ablation knob).
    pub fn set_synchronous_commit(&self, on: bool) {
        self.inner.sync_commit.store(on, Ordering::SeqCst);
    }

    /// Is phase-2 commit synchronous?
    pub fn synchronous_commit(&self) -> bool {
        self.inner.sync_commit.load(Ordering::SeqCst)
    }

    /// Datalink metadata for a column, if it is a DATALINK column.
    pub fn dl_column(&self, table: &str, column: &str) -> Option<DlColumn> {
        let cols = self.dl_columns_of(table);
        cols.iter().find(|(c, _)| c.eq_ignore_ascii_case(column)).map(|(_, info)| info.clone())
    }

    /// All datalink columns of a table (shared, not copied: this runs on
    /// every statement).
    pub fn dl_columns_of(&self, table: &str) -> DlColumns {
        let cols = self.inner.dl_cols.read();
        let found = if table.bytes().any(|b| b.is_ascii_uppercase()) {
            cols.get(&table.to_ascii_lowercase())
        } else {
            cols.get(table)
        };
        found.cloned().unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Crash / restart
    // ------------------------------------------------------------------

    /// Simulate a host crash: the storage engine, the unforced tail of the
    /// coordinator log and the transaction-id counter are lost.
    pub fn crash(&self) {
        self.inner.db.crash();
        self.inner.coord_log.crash();
        self.inner.open_xids.lock().clear();
        self.inner.tokens.clear();
        self.inner.xid_seq.store(1, Ordering::SeqCst);
    }

    /// Restart after a crash: recover storage, reload datalink metadata,
    /// and resolve indoubt sub-transactions at every DLFM (paper §3.3:
    /// "host database restart processing does it").
    ///
    /// Transaction ids resume past every xid the coordinator log names and
    /// every xid a DLFM lists in doubt (the resolver pass), so no id is
    /// handed out twice. Not covered: a DLFM unreachable during restart.
    /// Its in-doubt xids are learnt at the first resolver pass that reaches
    /// it; until then a new transaction may get one of those ids.
    pub fn restart(&self) -> HostResult<()> {
        self.inner.db.restart()?;
        *self.inner.dl_stmts.write() = Arc::new(DlStatements::bind(&self.inner.db));
        self.reload_dl_columns()?;
        // Advance sequences past everything recorded anywhere durable.
        let mut s = Session::new(&self.inner.db);
        let max_rec = s.query_int("SELECT MAX(rec_id) FROM sys_datalinks", &[]).unwrap_or(0);
        let low = max_rec & 0xFFFF_FFFF_FFFF;
        let cur = self.inner.rec_seq.load(Ordering::SeqCst);
        self.inner.rec_seq.store(cur.max(low + 1), Ordering::SeqCst);
        self.advance_xid_past(self.inner.coord_log.max_xid());
        self.resolve_indoubts()?;
        Ok(())
    }

    pub(crate) fn reload_dl_columns(&self) -> HostResult<()> {
        let mut s = Session::new(&self.inner.db);
        let rows = s.query("SELECT tbl, col, grp_id, access_ctl, recovery FROM sys_dlcols", &[])?;
        let mut map = HashMap::new();
        let mut max_grp = 0i64;
        for row in rows {
            let grp_id = row[2].as_int()?;
            max_grp = max_grp.max(grp_id);
            let access = AccessControl::from_code(row[3].as_int()?);
            let info = DlColumn { grp_id, access, recovery: row[4].as_int()? != 0 };
            add_dl_column(&mut map, row[0].as_str()?, row[1].as_str()?, info);
        }
        *self.inner.dl_cols.write() = map;
        let cur = self.inner.grp_seq.load(Ordering::SeqCst);
        self.inner.grp_seq.store(cur.max(max_grp + 1), Ordering::SeqCst);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shard map: hash-partitioned link placement (ROADMAP 2)
    // ------------------------------------------------------------------

    /// The shard map (placement of link metadata over the attached DLFMs).
    pub fn shard_map(&self) -> &crate::shard::ShardMap {
        &self.inner.shards
    }

    /// Enable hash routing over `shards` (each must already be attached).
    /// The ring is fixed from here on; growing the deployment goes through
    /// [`HostDb::migrate_prefix`]. Call before loading data: rows linked
    /// under direct URL routing are not re-homed by enabling the ring.
    pub fn set_shards(&self, shards: &[&str]) -> HostResult<()> {
        for s in shards {
            self.connector_for(s)?;
        }
        if shards.is_empty() {
            return Err(HostError::Usage("set_shards needs at least one shard".into()));
        }
        self.inner.shards.set_shards(&shards.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        self.inner.tokens.clear();
        Ok(())
    }
}

pub(crate) struct HostTxn {
    pub xid: i64,
    /// Shard-map epoch pinned at begin: placement stays stable for the
    /// transaction's lifetime, and migrations drain on it.
    pub epoch: u64,
    pub touched: BTreeSet<String>,
    pub dl_ops: Vec<DlOp>,
    /// The running statement's operations, not sent yet (`flush`).
    pub queued: Vec<DlOp>,
    /// Phase-1 votes that rode on the autocommit statement's round.
    pub votes: Option<Vec<(String, Vote)>>,
    /// When the transaction began (observability clock), for the autopsy
    /// latency threshold.
    pub start_micros: u64,
    /// Trace ids of every statement (and the commit) this transaction
    /// ran: the autopsy assembles the cross-process span tree from them.
    pub trace_ids: BTreeSet<u64>,
}

/// A failed round's error, and the recovery id of the operation it names —
/// one a DLFM refused or the host could not record; `None` when no one
/// operation failed (a batch lost in transit).
pub(crate) type RoundError = (HostError, Option<i64>);

/// A savepoint covering both local data and datalink operations.
pub struct HostSavepoint {
    db_sp: minidb::Savepoint,
    dl_ops_len: usize,
}

/// An application session on the host database.
pub struct HostSession {
    pub(crate) host: HostDb,
    pub(crate) session: Session,
    pub(crate) conns: Conns,
    pub(crate) txn: Option<HostTxn>,
}

impl HostSession {
    /// The host handle.
    pub fn host(&self) -> &HostDb {
        &self.host
    }

    /// Id of the open transaction, if any.
    pub fn xid(&self) -> Option<i64> {
        self.txn.as_ref().map(|t| t.xid)
    }

    // ------------------------------------------------------------------
    // Transactions & 2PC
    // ------------------------------------------------------------------

    /// Begin an explicit transaction.
    pub fn begin(&mut self) -> HostResult<()> {
        if self.txn.is_some() {
            return Err(HostError::Usage("transaction already open".into()));
        }
        self.session.begin()?;
        let xid = self.host.next_xid();
        self.host.inner.open_xids.lock().insert(xid);
        self.txn = Some(HostTxn {
            xid,
            epoch: self.host.inner.shards.begin_txn(),
            touched: BTreeSet::new(),
            dl_ops: Vec::new(),
            queued: Vec::new(),
            votes: None,
            start_micros: obs::journal::now_micros(),
            trace_ids: obs::current_ctx().map(|c| c.trace_id).into_iter().collect(),
        });
        Ok(())
    }

    /// Create a savepoint covering local data and datalink operations.
    pub fn savepoint(&mut self) -> HostResult<HostSavepoint> {
        let txn =
            self.txn.as_ref().ok_or_else(|| HostError::Usage("no transaction open".into()))?;
        Ok(HostSavepoint { db_sp: self.session.savepoint()?, dl_ops_len: txn.dl_ops.len() })
    }

    /// Roll back to a savepoint: local undo plus the [`Self::backout`] of
    /// the datalink operations performed since (§3.2).
    pub fn rollback_to(&mut self, sp: &HostSavepoint) -> HostResult<()> {
        let txn =
            self.txn.as_mut().ok_or_else(|| HostError::Usage("no transaction open".into()))?;
        let (xid, to_undo) = (txn.xid, txn.dl_ops.split_off(sp.dl_ops_len));
        self.backout(xid, &to_undo)?;
        self.session.rollback_to(sp.db_sp)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statement execution with datalink interception
    // ------------------------------------------------------------------

    /// Execute a statement.
    pub fn exec(&mut self, sql: &str) -> HostResult<ExecResult> {
        self.exec_params(sql, &[])
    }

    /// Execute a statement with parameters, routing datalink side effects
    /// to the right DLFMs.
    pub fn exec_params(&mut self, sql: &str, params: &[Value]) -> HostResult<ExecResult> {
        // The statement boundary starts a fresh trace; everything the
        // statement causes — RPC calls, DLFM agent work, minidb activity —
        // carries this trace id.
        let mut span = obs::span_root(obs::Layer::Host, "stmt");
        // Bound through minidb's statement cache: a repeated application
        // statement is neither parsed nor planned again.
        let stmt = self.host.db().bind_cached(sql).inspect_err(|_| span.fail())?;
        let autocommit = self.txn.is_none();
        if autocommit {
            self.begin().inspect_err(|_| span.fail())?;
        }
        // Under an explicit transaction, every statement roots its own
        // trace: the autopsy collects them all.
        if let Some(t) = self.txn.as_mut() {
            t.trace_ids.insert(span.ctx().trace_id);
        }
        let result = self.exec_stmt(&stmt, params, autocommit);
        match result {
            Ok(r) => {
                if autocommit {
                    self.commit().inspect_err(|_| span.fail())?;
                }
                Ok(r)
            }
            Err(e) => {
                span.fail();
                if autocommit || txn_lost(&e) {
                    self.rollback();
                }
                Err(e)
            }
        }
    }

    /// Run one statement: [`Self::intercept`] it, then send what it queued
    /// in one round ([`Self::flush`]); a statement whose round fails is
    /// undone locally too. `vote`: the statement opened the transaction
    /// itself and commits it when it ends (autocommit), so its round
    /// carries the Prepare.
    fn exec_stmt(&mut self, p: &Prepared, params: &[Value], vote: bool) -> HostResult<ExecResult> {
        // Statement atomicity: remember where we started.
        let sp = self.session.savepoint()?;
        let result = self.intercept(p, params)?;
        if let Err((e, _)) = self.flush(vote) {
            if !txn_lost(&e) {
                let _ = self.session.rollback_to(sp);
            }
            return Err(e);
        }
        Ok(result)
    }

    /// The interception half of a statement. One that changes datalink
    /// values queues its link/unlink operations (`queue_*`) and runs its
    /// local DML; sending the queue is [`Self::flush`]'s, once per
    /// statement or once per load piece. The DML depends on no DLFM reply
    /// (shard and recovery id are generated here), so every statement
    /// takes its table's locks before DLFM locks, and one that fails here
    /// has sent nothing and leaves its table and the queue as they were.
    pub(crate) fn intercept(&mut self, p: &Prepared, params: &[Value]) -> HostResult<ExecResult> {
        let queue: fn(&mut Self, &Prepared, &[Value]) -> HostResult<()> = match p.stmt() {
            Stmt::Insert { table, .. } if !self.host.dl_columns_of(table).is_empty() => {
                Self::queue_insert
            }
            Stmt::Delete { table, .. } if !self.host.dl_columns_of(table).is_empty() => {
                Self::queue_delete
            }
            Stmt::Update { table, sets, .. }
                if sets.iter().any(|(c, _)| self.host.dl_column(table, c).is_some()) =>
            {
                Self::queue_update
            }
            Stmt::DropTable { name } if !self.host.dl_columns_of(name).is_empty() => {
                return Err(HostError::Usage(format!(
                    "use HostSession::drop_table to drop {name}: it has DATALINK columns"
                )))
            }
            _ => return Ok(self.session.exec_prepared(p, params)?),
        };
        let (sp, queued) = (self.session.savepoint()?, self.open_txn()?.queued.len());
        let result =
            queue(self, p, params).and_then(|()| Ok(self.session.exec_prepared(p, params)?));
        if let (Err(e), Some(txn)) = (&result, self.txn.as_mut()) {
            txn.queued.truncate(queued);
            if !txn_lost(e) {
                let _ = self.session.rollback_to(sp);
            }
        }
        result
    }

    fn queue_insert(&mut self, p: &Prepared, params: &[Value]) -> HostResult<()> {
        let Stmt::Insert { table, columns, values } = p.stmt() else { unreachable!() };
        // Figure out which value expression feeds each datalink column.
        for (cname, info) in self.host.dl_columns_of(table).iter() {
            let pos = match columns {
                Some(cols) => cols.iter().position(|c| c.eq_ignore_ascii_case(cname)),
                None => self.host.db().table_meta(table)?.schema.col_index(cname).ok(),
            };
            let Some(vexpr) = pos.and_then(|i| values.get(i)) else { continue };
            let v = minidb::eval::eval_standalone(vexpr, params)?;
            if let Value::Str(url) = v {
                self.queue_op(Some((table, cname)), &DatalinkUrl::parse(&url)?, info)?;
            } else if !v.is_null() {
                return Err(HostError::Usage(format!(
                    "datalink column {cname} must be a URL string or NULL"
                )));
            }
        }
        Ok(())
    }

    fn queue_delete(&mut self, p: &Prepared, params: &[Value]) -> HostResult<()> {
        let Stmt::Delete { table, .. } = p.stmt() else { unreachable!() };
        let dl_cols = self.host.dl_columns_of(table);
        let old = self.probe_dl_values(p, &dl_cols, params)?;
        old.iter().try_for_each(|(_, info, url)| self.queue_op(None, url, info))
    }

    fn queue_update(&mut self, p: &Prepared, params: &[Value]) -> HostResult<()> {
        let Stmt::Update { table, sets, .. } = p.stmt() else { unreachable!() };
        // Only the datalink columns being SET participate.
        let dl_cols: Vec<(String, DlColumn)> = sets
            .iter()
            .filter_map(|(c, _)| self.host.dl_column(table, c).map(|i| (c.clone(), i)))
            .collect();
        // Unlink every old value of the updated datalink columns ...
        let old = self.probe_dl_values(p, &dl_cols, params)?;
        old.iter().try_for_each(|(_, info, url)| self.queue_op(None, url, info))?;
        // ... and link the new ones (once, however many rows matched).
        for (cname, new_expr) in sets {
            let Some(info) = self.host.dl_column(table, cname) else { continue };
            let v = minidb::eval::eval_standalone(new_expr, params)?;
            let Value::Str(url) = v else { continue };
            self.queue_op(Some((table, cname)), &DatalinkUrl::parse(&url)?, &info)?;
        }
        Ok(())
    }

    /// Current datalink values of the rows a WHERE clause matches (probe bound once).
    fn probe_dl_values(
        &mut self,
        p: &Prepared,
        dl_cols: &[(String, DlColumn)],
        params: &[Value],
    ) -> HostResult<Vec<(String, DlColumn, DatalinkUrl)>> {
        let probe = self.host.db().bind_derived(p, |stmt| {
            let (Stmt::Update { table, filter, .. } | Stmt::Delete { table, filter }) = stmt else {
                unreachable!()
            };
            let cols = dl_cols.iter().map(|(c, _)| SelectItem::Expr(Expr::Col(c.clone())));
            Stmt::Select(SelectStmt {
                projection: Projection::Items(cols.collect()),
                table: table.clone(),
                filter: filter.clone(),
                order_by: Vec::new(),
                for_update: true,
                for_share: false,
                except: None,
            })
        })?;
        let rows = self.session.exec_prepared(&probe, params)?.rows();
        let mut out = Vec::new();
        for row in rows {
            for ((cname, info), v) in dl_cols.iter().zip(&row) {
                if let Value::Str(url) = v {
                    out.push((cname.clone(), info.clone(), DatalinkUrl::parse(url)?));
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Datalink primitives
    // ------------------------------------------------------------------

    /// Queue a LinkFile (`link`: the table and column it is recorded under)
    /// or an UnlinkFile for the running statement; [`Self::flush`] sends it.
    /// Here is everything about the operation that needs no DLFM: where it
    /// goes, its recovery id, and that no cached token of the path can be
    /// trusted from here on (see `crate::tokens`).
    fn queue_op(
        &mut self,
        link: Option<(&str, &str)>,
        url: &DatalinkUrl,
        info: &DlColumn,
    ) -> HostResult<()> {
        let link = link.map(|(table, column)| (table.to_string(), column.to_string()));
        let shard = self.route(url)?;
        let cause = if link.is_some() { Invalidation::Link } else { Invalidation::Unlink };
        self.host.inner.tokens.invalidate(&url.path, cause);
        let rec_id = self.host.next_rec_id();
        let op = DlOp { link, url: url.clone(), shard, rec_id, grp_id: info.grp_id };
        self.open_txn()?.queued.push(op);
        Ok(())
    }

    /// The host's own record of an operation a DLFM has performed: the
    /// link's `sys_datalinks` row, written or dropped. It follows the
    /// DLFM's answer, so a duplicate link is refused by the DLFM itself.
    fn record_op(&mut self, op: &DlOp) -> HostResult<()> {
        let stmts = self.host.dl_statements();
        let (shard, path) = (Value::str(op.shard.clone()), Value::str(op.url.path.clone()));
        match &op.link {
            Some((table, column)) => self.session.exec_prepared(
                &stmts.ins,
                &[Value::str(table), Value::str(column), shard, path, Value::Int(op.rec_id)],
            )?,
            None => self.session.exec_prepared(&stmts.del, &[shard, path])?,
        };
        Ok(())
    }

    /// Send the queued operations ([`Self::rounds`]), then record what the
    /// DLFMs performed. With `vote` each shard's last batch ends with
    /// `Prepare` — the unsolicited vote — and the votes, one lost in
    /// transit included, are kept for `commit_txn`.
    ///
    /// If a member fails the caller sees its error, and the members that
    /// succeeded (on any shard) are backed out — except with `vote`, where
    /// the whole transaction is about to be aborted and a shard that has
    /// voted no longer has the forward transaction a backout runs in.
    /// A shard counts as touched *before* its first batch is sent (there is
    /// no begin message), so one that fails in transit still gets its
    /// Abort.
    pub(crate) fn flush(&mut self, vote: bool) -> Result<(), RoundError> {
        let Some(txn) = self.txn.as_mut() else { return Ok(()) };
        let ops = std::mem::take(&mut txn.queued);
        if ops.is_empty() {
            return Ok(());
        }
        let xid = txn.xid;
        let shards: BTreeSet<String> = ops.iter().map(|op| op.shard.clone()).collect();
        txn.touched.extend(shards.iter().cloned());
        self.host.inner.metrics.dl_rounds.fetch_add(1, Ordering::Relaxed);

        let (performed, mut failure, votes) =
            self.rounds(xid, &ops, false, vote.then_some(&shards));
        let m = &self.host.inner.metrics;
        for op in &performed {
            let counter = if op.link.is_some() { &m.links } else { &m.unlinks };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        // Second half of the token-cache rule: again after the reply.
        for op in ops.iter().filter(|op| op.link.is_some()) {
            self.host.inner.tokens.invalidate(&op.url.path, Invalidation::Link);
        }
        if failure.is_none() {
            failure =
                performed.iter().find_map(|op| Some((self.record_op(op).err()?, Some(op.rec_id))));
        }
        let Some((e, at)) = failure else {
            let txn = self.txn.as_mut().expect("checked on entry");
            txn.dl_ops.extend(performed.into_iter().cloned());
            txn.votes = vote.then_some(votes);
            return Ok(());
        };
        if vote || txn_lost(&e) {
            return Err((e, at));
        }
        match self.backout(xid, &performed) {
            Ok(()) => Err((e, at)),
            Err(_) => Err((lost(e), at)),
        }
    }

    /// Send `ops` (all of transaction `xid`) to their shards — or, with
    /// `in_backout`, undo them newest first — in rounds of one `Batch` per
    /// shard, each started on every shard before any reply is awaited. A
    /// round carries at most `MAX_BATCH_OPS - 1` operations, leaving room
    /// for the Prepare that, with `vote`, closes the last batch of each of
    /// its shards. Stops after a round in which an operation failed, and
    /// returns the operations performed, the failure and the votes.
    ///
    /// Of a round's failures (one per shard at most) the one returned is
    /// the refusal of the earliest operation — the one a statement at a
    /// time would have met first — naming that operation; a batch lost in
    /// transit names none. It says the transaction is lost if any of them
    /// cost it.
    fn rounds<'o, T: Borrow<DlOp>>(
        &mut self,
        xid: i64,
        ops: &'o [T],
        in_backout: bool,
        vote: Option<&BTreeSet<String>>,
    ) -> (Vec<&'o DlOp>, Option<RoundError>, Vec<(String, Vote)>) {
        let (mut performed, mut votes) = (Vec::new(), Vec::new());
        let size = MAX_BATCH_OPS - 1;
        let rounds: Vec<&'o [T]> =
            if in_backout { ops.rchunks(size).collect() } else { ops.chunks(size).collect() };
        for (n, &round) in rounds.iter().enumerate() {
            let closing = vote.filter(|_| n + 1 == rounds.len());
            let mut batches: BTreeMap<&String, Vec<&DlOp>> = BTreeMap::new();
            batches.extend(closing.into_iter().flatten().map(|shard| (shard, Vec::new())));
            for op in round.iter().map(T::borrow) {
                batches.entry(&op.shard).or_default().push(op);
            }
            if in_backout {
                batches.values_mut().for_each(|ops| ops.reverse());
            }
            let mut failures = Vec::new();
            for (shard, (done, err, vote)) in
                self.conns.round(xid, &batches, in_backout, closing.is_some())
            {
                performed.extend_from_slice(&batches[shard][..done]);
                votes.extend(vote.map(|vote| (shard.clone(), vote)));
                failures.extend(err.map(|err| {
                    let refused = matches!(err, HostError::Dlfm { .. });
                    let at = batches[shard].get(done).filter(|_| refused).map(|op| op.rec_id);
                    (err, at)
                }));
            }
            let lost_any = failures.iter().any(|(err, _)| txn_lost(err));
            let earliest = failures
                .into_iter()
                .min_by_key(|(_, at)| at.unwrap_or(i64::MAX))
                .map(|(err, at)| (if lost_any { lost(err) } else { err }, at));
            if earliest.is_some() {
                return (performed, earliest, votes);
            }
        }
        (performed, None, votes)
    }

    /// Undo `ops` at their DLFMs with `in_backout` requests, newest first,
    /// in the statement round's batches (§3.2). It is not possible to roll
    /// back a rollback: if any backout fails, the transaction is rolled
    /// back everywhere and the failure says so.
    fn backout<T: Borrow<DlOp>>(&mut self, xid: i64, ops: &[T]) -> HostResult<()> {
        let Some((e, _)) = self.rounds(xid, ops, true, None).1 else { return Ok(()) };
        self.rollback();
        Err(lost(e))
    }

    /// The shard serving `url`: the shard map's placement under the
    /// transaction's pinned epoch (the current epoch outside one), or the
    /// URL's server name when hash routing is disabled. May block while the
    /// path's prefix is mid-migration.
    fn route(&self, url: &DatalinkUrl) -> HostResult<String> {
        let host = &self.host.inner;
        let epoch = self.txn.as_ref().map_or_else(|| host.shards.epoch(), |txn| txn.epoch);
        let routed = host
            .shards
            .route(&url.path, epoch, host.config.shard_route_timeout)
            .map_err(|e| HostError::Usage(e.to_string()))?;
        let Some(r) = routed else { return Ok(url.server.clone()) };
        host.metrics.shard_routes.fetch_add(1, Ordering::Relaxed);
        if r.waited {
            host.metrics.shard_route_waits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(r.shard)
    }

    fn open_txn(&mut self) -> HostResult<&mut HostTxn> {
        self.txn
            .as_mut()
            .ok_or_else(|| HostError::Usage("datalink operation outside a transaction".into()))
    }

    // ------------------------------------------------------------------
    // Queries & conveniences
    // ------------------------------------------------------------------

    /// Query rows.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> HostResult<Vec<Row>> {
        Ok(self.exec_params(sql, params)?.rows())
    }

    /// Query one integer.
    pub fn query_int(&mut self, sql: &str, params: &[Value]) -> HostResult<i64> {
        Ok(self.session.query_int(sql, params)?)
    }

    /// The read token of a fully-controlled linked file (applications then
    /// read through the DLFF with it — Figure 3's "direct file access" with
    /// an access token). The DLFM issues it; the host remembers the answer
    /// for as long as the link lasts (`crate::tokens`).
    pub fn read_token(&mut self, url: &str) -> HostResult<String> {
        let url = DatalinkUrl::parse(url)?;
        let shard = self.route(&url)?;
        let epoch = self.host.inner.dlfms.read().get(&shard).map_or(0, Connector::epoch);
        let generation = match self.host.inner.tokens.lookup(&shard, &url.path, epoch) {
            Lookup::Hit(token) => return Ok(token),
            Lookup::Miss { generation } => generation,
        };
        let token = self.conns.issue_token(&shard, &url.path)?;
        self.host.inner.tokens.insert(&shard, &url.path, &token, epoch, generation);
        Ok(token)
    }

    // ------------------------------------------------------------------
    // DDL with datalink columns
    // ------------------------------------------------------------------

    /// CREATE TABLE with datalink column options. Registers one file group
    /// per DATALINK column on every attached DLFM.
    pub fn create_table(&mut self, sql: &str, dl_specs: &[DatalinkSpec]) -> HostResult<()> {
        let stmt = minidb::sql::parser::parse(sql).map_err(HostError::Db)?;
        let Stmt::CreateTable { name, columns } = &stmt else {
            return Err(HostError::Usage("create_table requires a CREATE TABLE".into()));
        };
        self.session.exec_ast(&stmt, &[])?;
        for (cname, ty, _) in columns {
            if *ty != minidb::DataType::Datalink {
                continue;
            }
            let spec = dl_specs.iter().find(|s| s.column.eq_ignore_ascii_case(cname));
            let (access, recovery) = match spec {
                Some(s) => (s.access, s.recovery),
                None => (AccessControl::Full, true),
            };
            let grp_id = self.host.inner.grp_seq.fetch_add(1, Ordering::SeqCst);
            self.session.exec_params(
                "INSERT INTO sys_dlcols (tbl, col, grp_id, access_ctl, recovery) \
                 VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::str(name.clone()),
                    Value::str(cname.clone()),
                    Value::Int(grp_id),
                    Value::Int(access.code()),
                    Value::Int(recovery as i64),
                ],
            )?;
            let info = DlColumn { grp_id, access, recovery };
            add_dl_column(&mut self.host.inner.dl_cols.write(), name, cname, info);
            let spec = GroupSpec {
                grp_id,
                dbid: self.host.dbid(),
                table_name: name.clone(),
                column_name: cname.clone(),
                access,
                recovery,
            };
            for server in self.host.servers() {
                self.conns.register_group(&server, spec.clone())?;
            }
        }
        Ok(())
    }

    /// DROP TABLE with datalink columns: deletes the file groups at every
    /// DLFM inside a dedicated two-phase-committed transaction, then drops
    /// the table (paper §3.5: the unlinking itself is asynchronous).
    pub fn drop_table(&mut self, table: &str) -> HostResult<()> {
        if self.txn.is_some() {
            return Err(HostError::Usage(
                "drop_table must run outside an explicit transaction".into(),
            ));
        }
        let dl_cols = self.host.dl_columns_of(table);
        self.begin()?;
        let result = (|| -> HostResult<()> {
            for (_, info) in dl_cols.iter() {
                let rec_id = self.host.next_rec_id();
                for server in self.host.servers() {
                    // As in `flush`, the participant is recorded before the send.
                    let txn = self.open_txn()?;
                    txn.touched.insert(server.clone());
                    let xid = txn.xid;
                    self.conns.delete_group(&server, xid, info.grp_id, rec_id)?;
                }
            }
            self.session
                .exec_params("DELETE FROM sys_dlcols WHERE tbl = ?", &[Value::str(table)])?;
            self.session
                .exec_params("DELETE FROM sys_datalinks WHERE tbl = ?", &[Value::str(table)])?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.commit()?;
                // The local DDL is auto-committed after the group deletion
                // committed globally.
                self.session.exec_params(&format!("DROP TABLE {table}"), &[])?;
                self.host.inner.dl_cols.write().remove(&table.to_ascii_lowercase());
                Ok(())
            }
            Err(e) => {
                self.rollback();
                Err(e)
            }
        }
    }
}

impl Drop for HostSession {
    fn drop(&mut self) {
        // Then the connections go back to the pool with `conns`.
        self.rollback();
    }
}

/// Did this error cost the transaction? A severe (retryable-class) DLFM
/// error means the DLFM's local database already rolled the
/// sub-transaction back, so the host must roll back the full transaction
/// (paper §3.2); so must a failed backout ([`lost`]).
pub(crate) fn txn_lost(e: &HostError) -> bool {
    match e {
        HostError::Db(db) => db.is_rollback_forced(),
        HostError::Dlfm { txn_rolled_back, .. } => *txn_rolled_back,
        _ => false,
    }
}

/// The error of a statement or savepoint rollback whose backout failed:
/// the transaction is gone, and a DLFM error says so.
fn lost(e: HostError) -> HostError {
    match e {
        HostError::Dlfm { error, .. } => HostError::Dlfm { error, txn_rolled_back: true },
        e => e,
    }
}
