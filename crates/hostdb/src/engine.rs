//! The host database with its datalink engine.
//!
//! [`HostDb`] wraps a [`minidb::Database`] and intercepts every statement
//! that touches a DATALINK column (paper §2): inserts link files, deletes
//! unlink them, updates do both, DROP TABLE deletes the file groups. The
//! host also owns the transaction machinery the DLFM relies on:
//! monotonically increasing transaction ids and recovery ids (§3.3), and
//! the presumed-abort two-phase-commit coordinator (§3.3).
//!
//! Internal bookkeeping lives in two system tables kept transactionally
//! consistent with user data:
//!
//! * `sys_dlcols(tbl, col, grp_id, server_any, access, recovery)` — one row
//!   per DATALINK column (the file group);
//! * `sys_datalinks(tbl, col, server, filename, rec_id)` — one row per
//!   currently linked file, carrying the recovery id the Reconcile and
//!   Restore utilities need.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use dlfm::{
    AccessControl, DlfmError, DlfmRequest, DlfmResponse, GroupSpec, TelemetryKind, MAX_BATCH_OPS,
};
use dlrpc::{ClientConn, Connector};
use minidb::sql::ast::{Expr, Projection, SelectItem, SelectStmt, Stmt};
use minidb::{Database, DbConfig, ExecResult, Prepared, Row, Session, Value};
use parking_lot::{Mutex, RwLock};

use crate::coordlog::{CoordLog, CoordRecord};
use crate::error::{HostError, HostResult};
use crate::tokens::{Invalidation, Lookup};
use crate::url::DatalinkUrl;

/// Connection type to a DLFM.
pub type DlfmConn = ClientConn<DlfmRequest, DlfmResponse>;

/// Process-global registry behind `inproc://name` URLs: in-process DLFM
/// connectors published by whoever hosts the server in this process.
fn inproc_registry() -> &'static Mutex<HashMap<String, Connector<DlfmRequest, DlfmResponse>>> {
    static REGISTRY: std::sync::OnceLock<
        Mutex<HashMap<String, Connector<DlfmRequest, DlfmResponse>>>,
    > = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Publish an in-process DLFM connector under `name`, so
/// [`HostDb::attach_dlfm_url`] can resolve `inproc://name`. Re-publishing
/// a name replaces the previous connector.
pub fn register_inproc(name: &str, connector: Connector<DlfmRequest, DlfmResponse>) {
    inproc_registry().lock().insert(name.to_string(), connector);
}

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
    /// Statement rounds: flushes of a statement's queued link/unlink
    /// operations, one batch per shard (`links + unlinks` over this is
    /// operations per round).
    pub dl_rounds: AtomicU64,
    /// Transactions whose phase 1 rode on their (autocommit) statement's
    /// round instead of costing a Prepare call of its own.
    pub unsolicited_votes: AtomicU64,
    /// Indoubt transactions resolved after failures.
    pub indoubts_resolved: AtomicU64,
    /// RPC failures (transport errors or DLFM-side errors) on the commit,
    /// abort, backout, and indoubt-resolution paths — previously discarded
    /// silently, now counted so partial-commit anomalies are visible.
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
    /// Resolver calls skipped because a server was unreachable; resolution
    /// continued on the remaining servers (liveness fix).
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

struct HostInner {
    db: Database,
    dl_stmts: RwLock<Arc<DlStatements>>,
    dbid: i64,
    dlfms: RwLock<HashMap<String, Connector<DlfmRequest, DlfmResponse>>>,
    xid_seq: AtomicI64,
    rec_seq: AtomicI64,
    grp_seq: AtomicI64,
    /// DATALINK columns per (lower-case) table name, in creation order.
    dl_cols: RwLock<HashMap<String, DlColumns>>,
    coord_log: CoordLog,
    /// Transactions open on this host, from `begin` until commit or
    /// rollback returns: the resolver leaves them to their session.
    open_xids: Mutex<HashSet<i64>>,
    sync_commit: AtomicBool,
    metrics: HostMetrics,
    backups: Mutex<Vec<crate::utilities::HostBackup>>,
    /// Idle DLFM connections kept for reuse, per server.
    conn_pool: Mutex<HashMap<String, Vec<DlfmConn>>>,
    conn_pool_size: usize,
    /// Placement of link metadata over the attached DLFMs (ROADMAP 2).
    shards: crate::shard::ShardMap,
    /// DLFM-issued access tokens remembered per link (`crate::tokens`).
    tokens: crate::tokens::TokenCache,
    shard_route_timeout: std::time::Duration,
    shard_drain_timeout: std::time::Duration,
    autopsy_dir: Option<std::path::PathBuf>,
    autopsy_slow: std::time::Duration,
    autopsy_aborts: bool,
    autopsy_max: u64,
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
    inner: Arc<HostInner>,
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
                dbid: config.dbid,
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
                conn_pool_size: config.conn_pool_size,
                shards: crate::shard::ShardMap::new(),
                shard_route_timeout: config.shard_route_timeout,
                shard_drain_timeout: config.shard_drain_timeout,
                autopsy_dir: config.autopsy_dir,
                autopsy_slow: config.autopsy_slow,
                autopsy_aborts: config.autopsy_aborts,
                autopsy_max: config.autopsy_max,
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

    /// Register a DLFM (file server) under a name used in datalink URLs.
    pub fn attach_dlfm(&self, server: &str, connector: Connector<DlfmRequest, DlfmResponse>) {
        self.inner.dlfms.write().insert(server.to_string(), connector);
        self.inner.tokens.clear();
    }

    /// Register a DLFM by connection URL: `tcp://host:port` and
    /// `unix:///path.sock` dial the wire transport (redialing on broken
    /// sockets), `inproc://name` resolves a connector previously published
    /// with [`register_inproc`]. This is how a host process attaches to a
    /// DLFM it does not host in its own address space.
    pub fn attach_dlfm_url(&self, server: &str, url: &str) -> HostResult<()> {
        let connector = match dlrpc::Endpoint::parse(url)? {
            dlrpc::Endpoint::Inproc(name) => inproc_registry()
                .lock()
                .get(&name)
                .cloned()
                .ok_or_else(|| HostError::Rpc(format!("no in-process DLFM named {name:?}")))?,
            ep => {
                let addr = ep.wire_addr().expect("tcp/unix endpoints have a wire address");
                dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr)
            }
        };
        self.attach_dlfm(server, connector);
        Ok(())
    }

    /// Open an application session.
    pub fn session(&self) -> HostSession {
        HostSession {
            host: self.clone(),
            session: Session::new(&self.inner.db),
            conns: HashMap::new(),
            txn: None,
        }
    }

    /// This host's database id.
    pub fn dbid(&self) -> i64 {
        self.inner.dbid
    }

    /// Next transaction id (monotonically increasing, paper §3.3).
    pub fn next_xid(&self) -> i64 {
        self.inner.xid_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Next recovery id: dbid in the high bits, a monotonic timestamp
    /// sequence in the low bits — globally unique and monotonically
    /// increasing per host (paper §3.2).
    pub fn next_rec_id(&self) -> i64 {
        (self.inner.dbid << 48) | self.inner.rec_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Current recovery-id watermark: the last id assigned. Everything
    /// `<=` this watermark happened before "now" (used by Backup).
    pub fn current_rec_id(&self) -> i64 {
        (self.inner.dbid << 48) | (self.inner.rec_seq.load(Ordering::SeqCst) - 1)
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

    /// Host metrics in Prometheus text format: operation counters, the 2PC
    /// coordinator log (forces vs decisions, group-commit batch sizes), and
    /// the host-local storage engine's commit path.
    pub fn metrics_text(&self) -> String {
        let m = &self.inner.metrics;
        let db = &self.inner.db;
        let coord = &self.inner.coord_log;
        let mut r = obs::Registry::new();
        r.counter(
            "hostdb_commits_total",
            "Committed host transactions.",
            &[],
            m.commits.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_rollbacks_total",
            "Rolled-back host transactions.",
            &[],
            m.rollbacks.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_twopc_commits_total",
            "Two-phase commits.",
            &[],
            m.twopc_commits.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_prepare_failures_total",
            "Prepare-phase failures.",
            &[],
            m.prepare_failures.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_links_total",
            "LinkFile requests issued.",
            &[],
            m.links.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_unlinks_total",
            "UnlinkFile requests issued.",
            &[],
            m.unlinks.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_dl_rounds_total",
            "Statement rounds: one batch of link/unlink operations per shard.",
            &[],
            m.dl_rounds.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_unsolicited_votes_total",
            "Transactions whose phase 1 rode on their autocommit statement's round.",
            &[],
            m.unsolicited_votes.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_indoubts_resolved_total",
            "Indoubt transactions resolved.",
            &[],
            m.indoubts_resolved.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_rpc_errors_total",
            "RPC failures on commit/abort/backout/indoubt paths (possible partial-commit anomalies).",
            &[],
            m.host_rpc_errors.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_conn_pool_hits_total",
            "DLFM connection checkouts served from the idle pool.",
            &[],
            m.conn_pool_hits.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_conn_pool_misses_total",
            "DLFM connection checkouts that opened a fresh connection.",
            &[],
            m.conn_pool_misses.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_conn_retired_total",
            "DLFM connections retired instead of pooled (error or pool full).",
            &[],
            m.conn_retired.load(Ordering::Relaxed),
        );
        r.gauge(
            "hostdb_conn_pool_idle",
            "Idle DLFM connections available for reuse.",
            &[],
            self.conn_pool_idle() as i64,
        );
        self.inner.tokens.render_metrics(&mut r);
        r.counter(
            "hostdb_shard_routes_total",
            "Datalink operations routed through the shard map.",
            &[],
            m.shard_routes.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_shard_route_waits_total",
            "Routes that waited out an in-progress prefix migration.",
            &[],
            m.shard_route_waits.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_shard_migrations_total",
            "Prefix migrations completed.",
            &[],
            m.shard_migrations.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_shard_migrated_rows_total",
            "Link rows moved between shards by migrations.",
            &[],
            m.shard_migrated_rows.load(Ordering::Relaxed),
        );
        r.gauge(
            "hostdb_shard_epoch",
            "Current shard-map epoch (bumped on every placement change).",
            &[],
            self.inner.shards.epoch() as i64,
        );
        r.gauge(
            "hostdb_shard_count",
            "Shards in the hash ring (0 = routing disabled).",
            &[],
            self.inner.shards.shards().len() as i64,
        );
        r.counter(
            "hostdb_phase2_transport_errors_total",
            "Phase-2 transport failures absorbed after a durable commit decision.",
            &[],
            m.phase2_transport_errors.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_resolver_partial_failures_total",
            "Resolver calls skipped for unreachable servers (pass continued).",
            &[],
            m.resolver_partial_failures.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_autopsies_total",
            "Transaction autopsy bundles written (slow or aborted transactions).",
            &[],
            m.autopsies.load(Ordering::Relaxed),
        );
        r.counter(
            "hostdb_telemetry_scrape_errors_total",
            "Failed telemetry scrapes of attached DLFMs (shard down).",
            &[],
            m.telemetry_scrape_errors.load(Ordering::Relaxed),
        );
        r.counter(
            "coordlog_forces_total",
            "Coordinator-log forces (one per leader).",
            &[],
            coord.forces_total(),
        );
        r.counter(
            "coordlog_commit_decisions_total",
            "Commit-decision records appended.",
            &[],
            coord.decisions_total(),
        );
        r.histogram(
            "coordlog_force_batch_decisions",
            "Commit decisions made durable per coordinator-log force.",
            &[],
            coord.batch_hist(),
        );
        // The host-local storage engine renders the full minidb family
        // (the same block DLFM's local database exports).
        db.render_metrics(&mut r);
        // Socket-backed DLFM connectors export the rpc_wire_* family (the
        // reconnect-storm watch rule reads it from this provider).
        for connector in self.inner.dlfms.read().values() {
            connector.render_metrics(&mut r);
        }
        obs::render_recorder_metrics(&mut r);
        obs::render_process_metrics(&mut r);
        obs::render_watch_metrics(&mut r);
        r.render()
    }

    /// Human-readable live status of the coordinator side: attached DLFM
    /// servers, the connection pool, transactions whose phase 2 is still
    /// outstanding, and the host-local lock table (rendered by the
    /// `dlfmtop` example).
    pub fn status_text(&self) -> String {
        let m = &self.inner.metrics;
        let mut out = String::new();
        out.push_str("=== host status ===\n");
        let servers = self.servers();
        out.push_str(&format!(
            "dlfm servers attached: {} ({})\n",
            servers.len(),
            servers.join(", ")
        ));
        out.push_str(&format!(
            "conn pool: {} idle (hits {}, misses {}, retired {})\n",
            self.conn_pool_idle(),
            m.conn_pool_hits.load(Ordering::Relaxed),
            m.conn_pool_misses.load(Ordering::Relaxed),
            m.conn_retired.load(Ordering::Relaxed),
        ));
        out.push_str(&self.inner.tokens.status_line());
        out.push_str(&format!(
            "transactions: {} committed, {} rolled back, {} via 2PC, {} in-doubt resolved\n",
            m.commits.load(Ordering::Relaxed),
            m.rollbacks.load(Ordering::Relaxed),
            m.twopc_commits.load(Ordering::Relaxed),
            m.indoubts_resolved.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "datalink ops: {} links + {} unlinks in {} statement rounds, {} votes rode on a round\n",
            m.links.load(Ordering::Relaxed),
            m.unlinks.load(Ordering::Relaxed),
            m.dl_rounds.load(Ordering::Relaxed),
            m.unsolicited_votes.load(Ordering::Relaxed),
        ));
        let shards = &self.inner.shards;
        let ring = shards.shards();
        if ring.is_empty() {
            out.push_str("shard map: disabled (URL server names route directly)\n");
        } else {
            out.push_str(&format!(
                "shard map: {} shards (epoch {}): {}\n",
                ring.len(),
                shards.epoch(),
                ring.join(", ")
            ));
            out.push_str(&format!(
                "  routes {} ({} waited on migration), migrations {} ({} rows moved)\n",
                m.shard_routes.load(Ordering::Relaxed),
                m.shard_route_waits.load(Ordering::Relaxed),
                m.shard_migrations.load(Ordering::Relaxed),
                m.shard_migrated_rows.load(Ordering::Relaxed),
            ));
            for (prefix, owner, migrating) in shards.overrides() {
                out.push_str(&format!(
                    "  prefix {prefix} -> {owner}{}\n",
                    if migrating { " (migrating)" } else { "" }
                ));
            }
            let inflight = shards.inflight();
            if !inflight.is_empty() {
                let pins: Vec<String> =
                    inflight.iter().map(|(e, n)| format!("epoch {e} x{n}")).collect();
                out.push_str(&format!("  in-flight pins: {}\n", pins.join(", ")));
            }
        }
        let unfinished = self.inner.coord_log.unfinished_commits();
        if unfinished.is_empty() {
            out.push_str("phase-2 outstanding: none\n");
        } else {
            out.push_str(&format!("phase-2 outstanding: {}\n", unfinished.len()));
            for (xid, servers) in unfinished {
                out.push_str(&format!(
                    "  xid#{xid} committed, awaiting end record (servers: {})\n",
                    servers.join(", ")
                ));
            }
        }
        out.push_str(&format!(
            "coordinator log: {} records, {} decisions, {} forces\n",
            self.inner.coord_log.last_lsn(),
            self.inner.coord_log.decisions_total(),
            self.inner.coord_log.forces_total(),
        ));
        out.push_str(&self.inner.db.lock_table_summary());
        out
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

    pub(crate) fn register_dl_column(&self, table: &str, column: &str, info: DlColumn) {
        add_dl_column(&mut self.inner.dl_cols.write(), table, column, info);
    }

    pub(crate) fn forget_dl_columns(&self, table: &str) {
        self.inner.dl_cols.write().remove(&table.to_ascii_lowercase());
    }

    pub(crate) fn connector_for(
        &self,
        server: &str,
    ) -> HostResult<Connector<DlfmRequest, DlfmResponse>> {
        self.inner
            .dlfms
            .read()
            .get(server)
            .cloned()
            .ok_or_else(|| HostError::Usage(format!("no DLFM attached for server {server}")))
    }

    /// Wire-transport instrumentation of `server`'s connector, when it is
    /// socket-backed (`None` for in-process connectors).
    pub fn wire_stats(&self, server: &str) -> Option<Arc<dlrpc::WireStats>> {
        self.inner.dlfms.read().get(server).and_then(|c| c.wire_stats().cloned())
    }

    /// Names of all attached DLFM servers.
    pub fn servers(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.dlfms.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub(crate) fn next_grp_id(&self) -> i64 {
        self.inner.grp_seq.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn backups(&self) -> &Mutex<Vec<crate::utilities::HostBackup>> {
        &self.inner.backups
    }

    pub(crate) fn tokens(&self) -> &crate::tokens::TokenCache {
        &self.inner.tokens
    }

    // ------------------------------------------------------------------
    // Crash / restart / indoubt resolution
    // ------------------------------------------------------------------

    /// Simulate a host crash: the storage engine and the unforced tail of
    /// the coordinator log are lost.
    pub fn crash(&self) {
        self.inner.db.crash();
        self.inner.coord_log.crash();
        self.inner.open_xids.lock().clear();
        self.inner.tokens.clear();
    }

    /// Restart after a crash: recover storage, reload datalink metadata,
    /// and resolve indoubt sub-transactions at every DLFM (paper §3.3:
    /// "host database restart processing does it").
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
        self.resolve_indoubts()?;
        Ok(())
    }

    fn txn_open(&self, xid: i64) -> bool {
        self.inner.open_xids.lock().contains(&xid)
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

    /// Resolve indoubt sub-transactions on every attached DLFM: commit
    /// those with a durable coordinator commit record, abort the rest
    /// (presumed abort). Also re-drives unfinished commits.
    ///
    /// A single unreachable server must not starve resolution on the
    /// others: per-server failures are noted (counted in
    /// `resolver_partial_failures`) and the pass continues. An unfinished
    /// commit's `End` record is appended only once **all** its servers
    /// acked the re-driven phase 2 — ending it earlier would stop the
    /// resolver from ever retrying the servers that failed.
    ///
    /// A transaction still open on this host is skipped: its session owns
    /// the outcome. Its decision may sit in the coordinator log's volatile
    /// tail mid-force (re-driving it could commit what a crash then aborts)
    /// or not be written yet (aborting its prepared participants would let
    /// the commit ack a link that is not there).
    pub fn resolve_indoubts(&self) -> HostResult<usize> {
        let mut resolved = 0usize;
        let mut failed_calls = 0usize;
        // Re-drive commit decisions that never finished phase 2.
        for (xid, servers) in self.inner.coord_log.unfinished_commits() {
            if self.txn_open(xid) {
                continue;
            }
            obs::info!(
                "hostdb::resolver",
                "re-driving unfinished commit for xid {xid} on {} server(s)",
                servers.len()
            );
            let mut all_acked = true;
            for server in &servers {
                let conn = match self.checkout_conn(server) {
                    Ok(conn) => conn,
                    Err(e) => {
                        self.note_rpc_error("re-driven commit", server, &e);
                        all_acked = false;
                        failed_calls += 1;
                        continue;
                    }
                };
                match conn.call(DlfmRequest::Commit { xid }) {
                    Ok(DlfmResponse::Ok) => {
                        self.checkin_conn(server, conn);
                        resolved += 1;
                    }
                    Ok(DlfmResponse::Err(e)) => {
                        self.note_rpc_error("re-driven commit", server, &e);
                        self.checkin_conn(server, conn);
                        all_acked = false;
                        failed_calls += 1;
                    }
                    Ok(other) => {
                        self.note_rpc_error(
                            "re-driven commit",
                            server,
                            &format!("unexpected response {other:?}"),
                        );
                        self.checkin_conn(server, conn);
                        all_acked = false;
                        failed_calls += 1;
                    }
                    // Transport failure: retire the connection.
                    Err(e) => {
                        self.note_rpc_error("re-driven commit", server, &e);
                        all_acked = false;
                        failed_calls += 1;
                    }
                }
            }
            if all_acked {
                self.inner.coord_log.append(CoordRecord::End { xid });
            }
        }
        // Ask each DLFM for its indoubt list and resolve by presumed abort.
        for server in self.servers() {
            let conn = match self.checkout_conn(&server) {
                Ok(conn) => conn,
                Err(e) => {
                    self.note_rpc_error("indoubt listing", &server, &e);
                    failed_calls += 1;
                    continue;
                }
            };
            let resp = match conn.call(DlfmRequest::ListIndoubt) {
                Ok(resp) => resp,
                Err(e) => {
                    // Transport failure: retire the connection, next server.
                    self.note_rpc_error("indoubt listing", &server, &e);
                    failed_calls += 1;
                    continue;
                }
            };
            let mut transport_ok = true;
            if let DlfmResponse::Indoubt(xids) = resp {
                for xid in xids {
                    if self.txn_open(xid) {
                        continue;
                    }
                    let committed = self.inner.coord_log.committed(xid);
                    obs::info!(
                        "hostdb::resolver",
                        "resolving indoubt xid {xid} on {server}: {}",
                        if committed { "commit" } else { "presumed abort" }
                    );
                    let decision = if committed {
                        DlfmRequest::Commit { xid }
                    } else {
                        DlfmRequest::Abort { xid }
                    };
                    match conn.call(decision) {
                        Ok(DlfmResponse::Ok) => {}
                        Ok(DlfmResponse::Err(e)) => {
                            self.note_rpc_error("indoubt resolution", &server, &e)
                        }
                        Ok(other) => self.note_rpc_error(
                            "indoubt resolution",
                            &server,
                            &format!("unexpected response {other:?}"),
                        ),
                        Err(e) => {
                            self.note_rpc_error("indoubt resolution", &server, &e);
                            transport_ok = false;
                            failed_calls += 1;
                        }
                    }
                    resolved += 1;
                    self.inner.metrics.indoubts_resolved.fetch_add(1, Ordering::Relaxed);
                }
            }
            if transport_ok {
                self.checkin_conn(&server, conn);
            }
        }
        if failed_calls > 0 {
            self.inner
                .metrics
                .resolver_partial_failures
                .fetch_add(failed_calls as u64, Ordering::Relaxed);
            obs::warn!(
                "hostdb::resolver",
                "resolution pass continued past {failed_calls} failed call(s)"
            );
        }
        Ok(resolved)
    }

    /// Spawn the indoubt-resolver daemon: polls the DLFMs and resolves
    /// indoubt transactions when they come back up (paper §3.3).
    pub fn spawn_resolver(
        &self,
        interval: std::time::Duration,
        shutdown: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        let host = self.clone();
        std::thread::spawn(move || {
            let slice = std::time::Duration::from_millis(5).min(interval);
            'daemon: loop {
                // Park in small slices so shutdown is prompt even when the
                // resolver interval is long.
                let deadline = std::time::Instant::now() + interval;
                while std::time::Instant::now() < deadline {
                    if shutdown.load(Ordering::SeqCst) {
                        break 'daemon;
                    }
                    std::thread::sleep(slice);
                }
                let _ = host.resolve_indoubts();
            }
        })
    }

    pub(crate) fn fresh_conn(&self, server: &str) -> HostResult<DlfmConn> {
        let connector = self.connector_for(server)?;
        let conn = connector.connect()?;
        match conn.call(DlfmRequest::Connect { dbid: self.inner.dbid })? {
            DlfmResponse::Ok => Ok(conn),
            other => Err(HostError::Rpc(format!("connect failed: {other:?}"))),
        }
    }

    /// Check a connection to `server` out of the pool, opening a fresh one
    /// only when no idle connection is available. Wire-backed connections
    /// are ping-probed first: the peer may have died since checkin, and a
    /// retired conn here lets `fresh_conn` redial the socket instead of
    /// handing the caller a dead multiplexer.
    pub(crate) fn checkout_conn(&self, server: &str) -> HostResult<DlfmConn> {
        while let Some(conn) = self.inner.conn_pool.lock().get_mut(server).and_then(Vec::pop) {
            if conn.is_wire() && conn.ping(std::time::Duration::from_millis(200)).is_err() {
                self.inner.metrics.conn_retired.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.inner.metrics.conn_pool_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(conn);
        }
        self.inner.metrics.conn_pool_misses.fetch_add(1, Ordering::Relaxed);
        self.fresh_conn(server)
    }

    /// Return a connection for reuse. Health-checked with a quick Ping so
    /// a broken connection is retired here instead of poisoning the next
    /// checkout; also retired when the pool is at capacity.
    pub(crate) fn checkin_conn(&self, server: &str, conn: DlfmConn) {
        // Wire-backed connections probe with a transport-level Ping frame
        // (answered by the peer's reader thread, no agent round trip);
        // in-process ones must go through the agent to prove it is alive.
        let probe = std::time::Duration::from_millis(200);
        let healthy = self.inner.conn_pool_size > 0
            && if conn.is_wire() {
                conn.ping(probe).is_ok()
            } else {
                matches!(conn.call_timeout(DlfmRequest::Ping, probe), Ok(DlfmResponse::Ok))
            };
        if healthy {
            let mut pool = self.inner.conn_pool.lock();
            let idle = pool.entry(server.to_string()).or_default();
            if idle.len() < self.inner.conn_pool_size {
                idle.push(conn);
                return;
            }
        }
        self.inner.metrics.conn_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle pooled connections across all servers (gauge).
    pub fn conn_pool_idle(&self) -> usize {
        self.inner.conn_pool.lock().values().map(Vec::len).sum()
    }

    /// Record (and log) an RPC failure on a path that must not abort the
    /// caller — phase-2 commit, abort, backout, indoubt resolution.
    fn note_rpc_error(&self, context: &str, server: &str, err: &dyn std::fmt::Display) {
        self.inner.metrics.host_rpc_errors.fetch_add(1, Ordering::Relaxed);
        obs::warn!("hostdb::rpc", "{context} failed on {server}: {err}");
    }

    /// Did `server` acknowledge with `Ok`? Anything else is noted under
    /// `context` ([`Self::note_rpc_error`]) and reported as not acked.
    fn acked(&self, context: &str, server: &str, reply: &HostResult<DlfmResponse>) -> bool {
        match reply {
            Ok(DlfmResponse::Ok) => return true,
            Ok(DlfmResponse::Err(e)) => self.note_rpc_error(context, server, e),
            Ok(other) => {
                self.note_rpc_error(context, server, &format!("unexpected response {other:?}"))
            }
            Err(e) => self.note_rpc_error(context, server, e),
        }
        false
    }

    // ------------------------------------------------------------------
    // Fleet telemetry: scraping attached DLFMs over the wire
    // ------------------------------------------------------------------

    /// Pull one telemetry document from an attached DLFM over its normal
    /// RPC transport (pooled connection; a fresh dial when the pool is
    /// empty). A transport failure retires the connection and surfaces as
    /// an error — callers render the shard as DOWN rather than crashing.
    pub fn fetch_telemetry(&self, server: &str, kind: TelemetryKind) -> HostResult<String> {
        let result = (|| {
            let conn = self.checkout_conn(server)?;
            match conn.call(DlfmRequest::FetchTelemetry { kind }) {
                Ok(DlfmResponse::Telemetry(text)) => {
                    self.checkin_conn(server, conn);
                    Ok(text)
                }
                Ok(other) => {
                    self.checkin_conn(server, conn);
                    Err(HostError::Rpc(format!("unexpected telemetry response {other:?}")))
                }
                // Transport error: the connection is dead, drop it.
                Err(e) => Err(e.into()),
            }
        })();
        if result.is_err() {
            self.inner.metrics.telemetry_scrape_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Scrape one telemetry document from every attached DLFM. Unreachable
    /// shards yield `None` — fleet views (dlfmtop) render them as DOWN
    /// instead of erroring mid-refresh.
    pub fn fleet_telemetry(&self, kind: TelemetryKind) -> Vec<(String, Option<String>)> {
        let mut out: Vec<(String, Option<String>)> = self
            .servers()
            .into_iter()
            .map(|server| {
                let text = self.fetch_telemetry(&server, kind).ok();
                (server, text)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Estimate the offset of `server`'s observability clock relative to
    /// the local one: read the remote clock over the wire and assume the
    /// reading was taken halfway through the round trip. Each process
    /// timestamps spans with µs since its *own* start, so without this the
    /// merged fleet trace would scatter processes across the timeline.
    pub fn clock_offset_micros(&self, server: &str) -> HostResult<i64> {
        let t0 = obs::journal::now_micros();
        let text = self.fetch_telemetry(server, TelemetryKind::Clock)?;
        let t1 = obs::journal::now_micros();
        let remote: u64 = text
            .trim()
            .parse()
            .map_err(|_| HostError::Rpc(format!("bad clock reading {text:?} from {server}")))?;
        let local_mid = t0 + (t1 - t0) / 2;
        Ok(local_mid as i64 - remote as i64)
    }

    /// Remote per-process span dumps from every attached DLFM, shifted
    /// onto the local clock. Unreachable daemons are skipped (warned, not
    /// fatal); `filter` keeps only spans of the given trace ids.
    fn remote_traces(&self, filter: Option<&BTreeSet<u64>>) -> Vec<obs::ProcessTrace> {
        let mut servers = self.servers();
        servers.sort();
        let mut out = Vec::new();
        for server in servers {
            let scraped = (|| -> HostResult<obs::ProcessTrace> {
                let clock_offset_micros = self.clock_offset_micros(&server)?;
                let dump = self.fetch_telemetry(&server, TelemetryKind::Spans)?;
                let mut spans = obs::parse_span_dump(&dump);
                if let Some(ids) = filter {
                    spans.retain(|s| ids.contains(&s.trace_id));
                }
                Ok(obs::ProcessTrace {
                    name: format!("dlfm[{server}]"),
                    clock_offset_micros,
                    spans,
                })
            })();
            match scraped {
                Ok(t) => out.push(t),
                Err(e) => {
                    obs::warn!("hostdb::fleet", "telemetry scrape of {server} failed: {e}")
                }
            }
        }
        out
    }

    /// Every attached daemon's clock-aligned spans (full ring).
    pub fn fleet_remote_traces(&self) -> Vec<obs::ProcessTrace> {
        self.remote_traces(None)
    }

    /// ONE merged Perfetto/Chrome trace for the whole deployment: the
    /// local span ring and journal, plus every attached daemon's spans
    /// pulled over the telemetry RPC and shifted onto the local timeline.
    /// Daemons that are down are simply absent from the document.
    pub fn fleet_trace(&self) -> String {
        let remotes = self.remote_traces(None);
        obs::merge_chrome_trace(
            &obs::trace::global_ring().snapshot(),
            &obs::journal::snapshot(),
            &remotes,
        )
    }

    /// Build a fleet watchdog: the host's own metrics under provider
    /// `host`, plus one provider per attached DLFM scraped over the
    /// telemetry RPC (an unreachable shard contributes no series that
    /// tick, so rules simply don't see it). Callers append rules — e.g.
    /// [`obs::Rule::skew_quantile`] over `dlfm_commit_micros` to catch one
    /// shard's commit p99 running away from the ring median — then spawn
    /// it. Attach every DLFM *before* building: the provider set is fixed
    /// here.
    pub fn fleet_watchdog(&self, config: obs::WatchConfig) -> obs::Watchdog {
        let host = self.clone();
        let mut w = obs::Watchdog::new(config).provider("host", move || host.metrics_text());
        let host = self.clone();
        w = w.section("host_status", move || host.status_text());
        let mut servers = self.servers();
        servers.sort();
        for server in servers {
            let host = self.clone();
            let name = server.clone();
            w = w.provider(&server, move || {
                host.fetch_telemetry(&name, TelemetryKind::Metrics).unwrap_or_default()
            });
        }
        w
    }

    // ------------------------------------------------------------------
    // Transaction autopsy
    // ------------------------------------------------------------------

    /// Called at the end of every transaction: write an autopsy bundle if
    /// it was slow (or aborted, when configured) — the assembled
    /// cross-process span tree plus the journal slice, so the question
    /// "why was THIS transaction slow" is answerable after the fact
    /// without reproducing it.
    pub(crate) fn maybe_autopsy(
        &self,
        xid: i64,
        start_micros: u64,
        trace_ids: &BTreeSet<u64>,
        aborted: bool,
    ) {
        let Some(root) = &self.inner.autopsy_dir else { return };
        let elapsed = obs::journal::now_micros().saturating_sub(start_micros);
        let slow = elapsed >= self.inner.autopsy_slow.as_micros() as u64;
        let autopsy_abort = aborted && self.inner.autopsy_aborts;
        if !slow && !autopsy_abort {
            return;
        }
        if self.inner.metrics.autopsies.load(Ordering::Relaxed) >= self.inner.autopsy_max {
            return;
        }
        let seq = self.inner.metrics.autopsies.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("autopsy-{seq:04}-xid{xid}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            obs::warn!("hostdb::autopsy", "cannot create {}: {e}", dir.display());
            return;
        }

        // Local spans of this transaction's traces, and the matching
        // remote spans from every reachable daemon (clock-aligned).
        let local: Vec<obs::SpanEvent> = obs::trace::global_ring()
            .snapshot()
            .into_iter()
            .filter(|s| trace_ids.contains(&s.trace_id))
            .collect();
        let remotes = self.remote_traces(Some(trace_ids));
        let journal: Vec<obs::JournalEvent> = obs::journal::snapshot()
            .into_iter()
            .filter(|e| trace_ids.contains(&e.trace_id) || e.txn == xid)
            .collect();

        let outcome = if aborted { "aborted" } else { "slow-commit" };
        let mut report = format!(
            "transaction autopsy\nxid: {xid}\noutcome: {outcome}\nelapsed_micros: {elapsed}\n"
        );
        report.push_str(&format!(
            "slow_threshold_micros: {}\ntraces: {}\n",
            self.inner.autopsy_slow.as_micros(),
            trace_ids.iter().map(|t| format!("{t:016x}")).collect::<Vec<_>>().join(" "),
        ));
        let down: Vec<String> = {
            let mut servers = self.servers();
            servers.sort();
            servers
                .into_iter()
                .filter(|s| !remotes.iter().any(|r| r.name == format!("dlfm[{s}]")))
                .collect()
        };
        report.push_str(&format!(
            "processes: host + {} remote ({} unreachable{})\n\nspan tree:\n{}",
            remotes.len(),
            down.len(),
            if down.is_empty() { String::new() } else { format!(": {}", down.join(" ")) },
            render_span_tree(&local, &remotes),
        ));

        let mut journal_text = String::new();
        for e in &journal {
            journal_text.push_str(&format!(
                "{:>12}us trace={:016x} txn={} {:<14} {}\n",
                e.micros,
                e.trace_id,
                e.txn,
                e.kind.as_str(),
                e.detail
            ));
        }

        let files = [
            ("report.txt", report),
            ("trace.json", obs::merge_chrome_trace(&local, &journal, &remotes)),
            ("journal.txt", journal_text),
        ];
        for (name, content) in files {
            if let Err(e) = std::fs::write(dir.join(name), content) {
                obs::warn!("hostdb::autopsy", "cannot write {name}: {e}");
            }
        }
        obs::warn!(
            "hostdb::autopsy",
            "{outcome} transaction xid {xid} ({elapsed}us): bundle at {}",
            dir.display()
        );
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

    /// The shard owning a datalink for a transaction pinned at `epoch`:
    /// the map's placement when the ring is enabled, otherwise the URL's
    /// own server name (pre-shard behaviour). May block while the path's
    /// prefix is mid-migration.
    pub(crate) fn route_datalink(&self, url: &DatalinkUrl, epoch: u64) -> HostResult<String> {
        let routed = self
            .inner
            .shards
            .route(&url.path, epoch, self.inner.shard_route_timeout)
            .map_err(|e| HostError::Usage(e.to_string()))?;
        match routed {
            Some(r) => {
                self.inner.metrics.shard_routes.fetch_add(1, Ordering::Relaxed);
                if r.waited {
                    self.inner.metrics.shard_route_waits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(r.shard)
            }
            None => Ok(url.server.clone()),
        }
    }

    /// Migrate the link metadata of a path prefix onto shard `to` without
    /// stopping traffic (online reconfiguration v1):
    ///
    /// 1. flip the prefix to *migrating* in the map (epoch bump) — new
    ///    transactions touching it park until the copy settles, while
    ///    transactions begun earlier keep the old placement;
    /// 2. drain those pre-flip transactions;
    /// 3. register every known file group on the target (idempotent — a
    ///    runtime-attached shard has none yet);
    /// 4. copy the prefix's link rows from every other shard
    ///    (`ExportLinks` → `ImportLinks`, then a destructive export only
    ///    after the import acked);
    /// 5. re-home the host's `sys_datalinks` rows;
    /// 6. settle the map and wake parked transactions.
    ///
    /// Returns the number of link rows moved. On any error the map entry
    /// is rolled back to the pre-flip placement; already-imported rows are
    /// harmless duplicates-in-waiting that a retry will skip
    /// (`ImportLinks` is idempotent). Unlinked-history rows stay on their
    /// original shard: only *linked* entries move, which is all routing
    /// needs (history is consulted where the unlink ran).
    pub fn migrate_prefix(&self, prefix: &str, to: &str) -> HostResult<u64> {
        self.connector_for(to)?;
        let prefix = prefix.trim_end_matches('/');
        if prefix.is_empty() {
            return Err(HostError::Usage("cannot migrate the root prefix".into()));
        }
        if !self.inner.shards.enabled() {
            return Err(HostError::Usage(
                "shard routing is not enabled (call set_shards first)".into(),
            ));
        }
        let flip = self
            .inner
            .shards
            .begin_migration(prefix, to)
            .map_err(|e| HostError::Usage(e.to_string()))?;
        obs::info!("hostdb::shard", "migrating prefix {prefix} to {to} (flip epoch {flip})");
        let result = self.run_migration(prefix, to, flip);
        self.inner.tokens.clear();
        match &result {
            Ok(moved) => {
                self.inner.shards.finish_migration(prefix);
                self.inner.metrics.shard_migrations.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.shard_migrated_rows.fetch_add(*moved, Ordering::Relaxed);
                obs::info!("hostdb::shard", "prefix {prefix} now on {to} ({moved} rows moved)");
            }
            Err(e) => {
                self.inner.shards.abort_migration(prefix);
                obs::warn!("hostdb::shard", "migration of {prefix} to {to} failed: {e}");
            }
        }
        result
    }

    fn run_migration(&self, prefix: &str, to: &str, flip: u64) -> HostResult<u64> {
        self.inner
            .shards
            .drain_below(flip, self.inner.shard_drain_timeout)
            .map_err(|e| HostError::Usage(e.to_string()))?;

        // The target may have been attached after CREATE TABLE: make sure
        // it knows every file group before rows referencing them arrive.
        let specs: Vec<GroupSpec> = self
            .inner
            .dl_cols
            .read()
            .iter()
            .flat_map(|(tbl, cols)| cols.iter().map(move |(col, info)| (tbl, col, info)))
            .map(|(tbl, col, info)| GroupSpec {
                grp_id: info.grp_id,
                dbid: self.inner.dbid,
                table_name: tbl.clone(),
                column_name: col.clone(),
                access: info.access,
                recovery: info.recovery,
            })
            .collect();
        let to_conn = self.checkout_conn(to)?;
        for spec in specs {
            match to_conn.call(DlfmRequest::RegisterGroup(spec))? {
                DlfmResponse::Ok => {}
                DlfmResponse::Err(e) => {
                    return Err(HostError::Dlfm { error: e, txn_rolled_back: false })
                }
                other => return Err(HostError::Rpc(format!("unexpected {other:?}"))),
            }
        }

        // Copy from every other shard: the prefix's subtree may span
        // several ring positions (one per directory).
        let mut moved = 0u64;
        for server in self.servers() {
            if server == to {
                continue;
            }
            let from_conn = self.checkout_conn(&server)?;
            let rows = match from_conn
                .call(DlfmRequest::ExportLinks { prefix: prefix.to_string(), remove: false })?
            {
                DlfmResponse::Links(rows) => rows,
                DlfmResponse::Err(e) => {
                    return Err(HostError::Dlfm { error: e, txn_rolled_back: false })
                }
                other => return Err(HostError::Rpc(format!("unexpected {other:?}"))),
            };
            if !rows.is_empty() {
                moved += rows.len() as u64;
                match to_conn.call(DlfmRequest::ImportLinks { entries: rows })? {
                    DlfmResponse::Count(_) => {}
                    DlfmResponse::Err(e) => {
                        return Err(HostError::Dlfm { error: e, txn_rolled_back: false })
                    }
                    other => return Err(HostError::Rpc(format!("unexpected {other:?}"))),
                }
                // Destructive pass only now that the import acked.
                match from_conn
                    .call(DlfmRequest::ExportLinks { prefix: prefix.to_string(), remove: true })?
                {
                    DlfmResponse::Links(_) => {}
                    DlfmResponse::Err(e) => {
                        return Err(HostError::Dlfm { error: e, txn_rolled_back: false })
                    }
                    other => return Err(HostError::Rpc(format!("unexpected {other:?}"))),
                }
            }
            self.checkin_conn(&server, from_conn);
        }
        self.checkin_conn(to, to_conn);

        // Re-home the host's own bookkeeping so Reconcile/Restore keep
        // querying the right server ('0' is '/' + 1: the subtree range).
        // One UPDATE per source server: the equality on `server` lets the
        // (server, filename) index bound the scan to the migrated rows —
        // a bare filename range would full-scan sys_datalinks and convoy
        // with every concurrent link/unlink on the X locks it accretes.
        let mut s = Session::new(&self.inner.db);
        s.begin()?;
        for server in self.servers() {
            if server == to {
                continue;
            }
            s.exec_params(
                "UPDATE sys_datalinks SET server = ? \
                 WHERE server = ? AND filename >= ? AND filename < ?",
                &[
                    Value::str(to),
                    Value::str(server),
                    Value::str(format!("{prefix}/")),
                    Value::str(format!("{prefix}0")),
                ],
            )?;
        }
        s.commit()?;
        Ok(moved)
    }
}

/// Render local + remote spans of one transaction as an indented tree.
/// Cross-process edges come for free: the wire frame carries the parent
/// span id, so a remote agent span's parent IS the host-side rpc span and
/// the stitched tree reads top to bottom through the whole deployment.
fn render_span_tree(local: &[obs::SpanEvent], remotes: &[obs::ProcessTrace]) -> String {
    struct Node {
        process: String,
        layer: String,
        op: String,
        ok: bool,
        start: i64,
        dur_micros: u64,
        span_id: u64,
        parent: u64,
    }
    let mut nodes: Vec<Node> = Vec::new();
    for s in local {
        nodes.push(Node {
            process: "host".into(),
            layer: s.layer.as_str().into(),
            op: s.op.into(),
            ok: s.outcome == obs::Outcome::Ok,
            start: s.start_micros as i64,
            dur_micros: s.duration.as_micros() as u64,
            span_id: s.span_id,
            parent: s.parent_span_id,
        });
    }
    for r in remotes {
        for s in &r.spans {
            nodes.push(Node {
                process: r.name.clone(),
                layer: s.layer.clone(),
                op: s.op.clone(),
                ok: s.ok,
                start: (s.start_micros as i64).saturating_add(r.clock_offset_micros),
                dur_micros: s.dur_micros,
                span_id: s.span_id,
                parent: s.parent_span_id,
            });
        }
    }
    let by_id: HashMap<u64, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.span_id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        match by_id.get(&n.parent) {
            Some(&p) if n.parent != 0 && p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let order = |xs: &mut Vec<usize>, nodes: &[Node]| {
        xs.sort_by_key(|&i| (nodes[i].start, nodes[i].span_id));
    };
    for c in &mut children {
        order(c, &nodes);
    }
    order(&mut roots, &nodes);
    fn render(out: &mut String, nodes: &[Node], children: &[Vec<usize>], i: usize, depth: usize) {
        let n = &nodes[i];
        out.push_str(&format!(
            "{:indent$}[{}/{}] {} {} {}us\n",
            "",
            n.process,
            n.layer,
            n.op,
            if n.ok { "ok" } else { "err" },
            n.dur_micros,
            indent = depth * 2,
        ));
        for &c in &children[i] {
            render(out, nodes, children, c, depth + 1);
        }
    }
    let mut out = String::new();
    for r in roots {
        render(&mut out, &nodes, &children, r, 0);
    }
    if out.is_empty() {
        out.push_str("(no spans retained — ring may have wrapped)\n");
    }
    out
}

/// One datalink operation performed in the current transaction, tracked so
/// savepoint rollback can send the matching `in_backout` request (§3.2).
#[derive(Debug, Clone)]
pub(crate) struct DlOp {
    /// For a link, the (table, column) it is recorded under in
    /// `sys_datalinks`; `None` for an unlink.
    pub link: Option<(String, String)>,
    pub url: DatalinkUrl,
    /// The shard the operation was routed to (the URL's server name when
    /// hash routing is disabled); backout must target the same shard.
    pub shard: String,
    pub rec_id: i64,
    pub grp_id: i64,
}

impl DlOp {
    /// The DLFM request that performs this operation for `xid` — or, with
    /// `in_backout`, undoes it (§3.2).
    fn request(&self, xid: i64, in_backout: bool) -> DlfmRequest {
        let (rec_id, grp_id, filename) = (self.rec_id, self.grp_id, self.url.path.clone());
        if self.link.is_some() {
            DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout }
        } else {
            DlfmRequest::UnlinkFile { xid, rec_id, grp_id, filename, in_backout }
        }
    }
}

/// A DLFM-side error as the statement's error; a severe (retryable-class)
/// one has already cost the DLFM its sub-transaction.
fn dlfm_error(error: DlfmError) -> HostError {
    let txn_rolled_back = matches!(&error, DlfmError::Db { retryable: true, .. });
    HostError::Dlfm { error, txn_rolled_back }
}

/// What a shard's reply to a batch of `ops` operations (plus, when
/// `closing`, the Prepare) says: how many of them it performed, the failure
/// of the member that stopped it, and the vote. A closing batch lost in
/// transit is a vote lost in transit — `commit_txn`'s case, not a failed
/// statement.
fn read_batch_reply(
    ops: usize,
    reply: HostResult<DlfmResponse>,
    closing: bool,
) -> (usize, Option<HostError>, Option<HostResult<DlfmResponse>>) {
    let mut entries = match reply {
        Ok(DlfmResponse::Batch(entries)) => entries.into_iter(),
        // A refused batch fails its first member.
        Ok(other) => vec![other].into_iter(),
        Err(e) if closing => return (0, None, Some(Err(e))),
        Err(e) => return (0, Some(e), None),
    };
    for done in 0..ops {
        let err = match entries.next() {
            Some(DlfmResponse::Ok) => continue,
            Some(DlfmResponse::Err(e)) => dlfm_error(e),
            other => HostError::Rpc(format!("unexpected batch entry {other:?}")),
        };
        return (done, Some(err), None);
    }
    let no_vote = || HostError::Rpc("batch reply has no vote".into());
    (ops, None, closing.then(|| entries.next().ok_or_else(no_vote)))
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
    pub votes: Option<Vec<(String, HostResult<DlfmResponse>)>>,
    /// When the transaction began (observability clock), for the autopsy
    /// latency threshold.
    pub start_micros: u64,
    /// Trace ids of every statement (and the commit) this transaction
    /// ran: the autopsy assembles the cross-process span tree from them.
    pub trace_ids: BTreeSet<u64>,
}

/// A savepoint covering both local data and datalink operations.
pub struct HostSavepoint {
    db_sp: minidb::Savepoint,
    dl_ops_len: usize,
}

/// An application session on the host database.
pub struct HostSession {
    host: HostDb,
    session: Session,
    conns: HashMap<String, DlfmConn>,
    txn: Option<HostTxn>,
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

    /// Commit: presumed-abort two-phase commit across every DLFM this
    /// transaction touched, with the host's own commit in the middle.
    pub fn commit(&mut self) -> HostResult<()> {
        // Child of the statement span under autocommit; a fresh root when
        // the application commits an explicit transaction.
        let mut span = obs::span(obs::Layer::Host, "commit");
        let mut txn = self
            .txn
            .take()
            .ok_or_else(|| HostError::Usage("no transaction open".into()))
            .inspect_err(|_| span.fail())?;
        txn.trace_ids.insert(span.ctx().trace_id);
        let epoch = txn.epoch;
        let (xid, start_micros, trace_ids) = (txn.xid, txn.start_micros, txn.trace_ids.clone());
        let result = self.commit_txn(txn).inspect_err(|_| span.fail());
        self.host.inner.open_xids.lock().remove(&xid);
        // The shard-map pin ends only after the outcome is settled either
        // way: a migration must not move rows this transaction's phase 2
        // may still be writing.
        self.host.inner.shards.end_txn(epoch);
        self.host.maybe_autopsy(xid, start_micros, &trace_ids, result.is_err());
        result
    }

    /// Send each server its request, and only then gather every reply: all
    /// requests are on their way before the first reply is awaited, so N
    /// participants cost the slowest one's service time, not the sum (one
    /// participant is the same code). Every reply is gathered before the
    /// caller decides anything. With `await_reply` off the request is
    /// posted instead — the §4 asynchronous-commit ablation — and reported
    /// as `Ok`: there is no ack to await. What becomes of a connection
    /// whose call failed is the caller's business: 2PC messages retire it
    /// (the next use redials), a statement round keeps it ([`Self::flush`]).
    fn scatter<'a>(
        &mut self,
        sends: impl IntoIterator<Item = (&'a String, DlfmRequest)>,
        await_reply: bool,
    ) -> Vec<(&'a String, HostResult<DlfmResponse>)> {
        let sent: Vec<_> = sends
            .into_iter()
            .map(|(server, req)| {
                let sent = self.conn(server).and_then(|conn| {
                    if await_reply {
                        Ok(Some(conn.start(req)?))
                    } else {
                        conn.post(req)?;
                        Ok(None)
                    }
                });
                (server, sent)
            })
            .collect();
        sent.into_iter()
            .map(|(server, sent)| {
                let reply = sent.and_then(|pending| match pending {
                    Some(call) => Ok(call.wait(None)?),
                    None => Ok(DlfmResponse::Ok),
                });
                (server, reply)
            })
            .collect()
    }

    fn commit_txn(&mut self, mut txn: HostTxn) -> HostResult<()> {
        let xid = txn.xid;

        // Phase 1: every touched DLFM prepares (and forces) concurrently.
        // An autocommit statement already collected the votes: its round
        // ended with the Prepare on every shard (`flush`). An explicit
        // transaction asks now — only the application knows which
        // statement was the last.
        let votes = match txn.votes.take() {
            Some(votes) => {
                self.host.inner.metrics.unsolicited_votes.fetch_add(1, Ordering::Relaxed);
                votes
            }
            None => self
                .scatter(txn.touched.iter().map(|s| (s, DlfmRequest::Prepare { xid })), true)
                .into_iter()
                .map(|(server, vote)| (server.clone(), vote))
                .collect(),
        };
        let mut participants = Vec::new();
        let mut failure = None;
        for (server, vote) in votes {
            let err = match vote {
                Ok(DlfmResponse::Prepared { read_only }) => {
                    if !read_only {
                        participants.push(server);
                    }
                    continue;
                }
                Ok(DlfmResponse::Err(e)) => {
                    HostError::PrepareFailed { server: server.clone(), reason: e.to_string() }
                }
                Ok(other) => HostError::Rpc(format!("unexpected prepare response {other:?}")),
                // Transport failure: the vote is unknown, so it counts as
                // a "no". Skipping the global abort here would leave every
                // participant — including this one, if the prepare never
                // reached it — with an open forward transaction holding
                // locks, parked behind a pooled connection. (A prepare
                // that did land is covered by presumed abort: no commit
                // record exists.) The Abort goes over a fresh connection.
                Err(e) => {
                    self.conns.remove(&server);
                    e
                }
            };
            failure.get_or_insert((server, err));
        }
        if let Some((server, err)) = failure {
            self.host.inner.metrics.prepare_failures.fetch_add(1, Ordering::Relaxed);
            self.global_abort(&txn, &format!("prepare on {server} failed: {err}"));
            return Err(err);
        }

        if participants.is_empty() {
            // Local-only transaction.
            self.session.commit()?;
            self.host.inner.metrics.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        // Decision: force the commit record, then commit locally. One
        // coordinator-log force may cover many concurrent decisions (group
        // commit); `false` means a simulated host crash raced the force,
        // so the decision cannot be claimed durable.
        if !self
            .host
            .inner
            .coord_log
            .append_forced(CoordRecord::Commit { xid, servers: participants.clone() })
        {
            self.global_abort(&txn, &"commit record lost to a host crash before its force");
            return Err(HostError::Db(minidb::DbError::Offline));
        }
        self.session.commit()?;

        // Phase 2, again on every participant at once: synchronous by
        // default — the paper found the commit request *must* be
        // synchronous or distributed deadlocks form (§4).
        //
        // The commit decision is already durable, so NOTHING past this
        // point may surface an error to the application: the transaction
        // IS committed. A transport failure here used to propagate `Err`
        // out of `commit()` — the app saw an abort for a committed
        // transaction and could retry into a double link. Instead, note
        // the error and leave the commit record unfinished so the resolver
        // re-drives phase 2.
        let synchronous = self.host.synchronous_commit();
        let mut all_acked = true;
        let commit = participants.iter().map(|s| (s, DlfmRequest::Commit { xid }));
        for (server, ack) in self.scatter(commit, synchronous) {
            if ack.is_err() {
                self.host.inner.metrics.phase2_transport_errors.fetch_add(1, Ordering::Relaxed);
                self.conns.remove(server);
            }
            // A DLFM-side failure leaves the participant prepared until
            // the resolver re-drives it.
            all_acked &= self.host.acked("phase-2 commit", server, &ack);
        }
        if all_acked {
            self.host.inner.coord_log.append(CoordRecord::End { xid });
        }
        self.host.inner.metrics.commits.fetch_add(1, Ordering::Relaxed);
        self.host.inner.metrics.twopc_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Roll back the open transaction everywhere.
    pub fn rollback(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.abort_everywhere(&txn);
            self.host.inner.open_xids.lock().remove(&txn.xid);
            self.host.inner.shards.end_txn(txn.epoch);
            self.host.maybe_autopsy(txn.xid, txn.start_micros, &txn.trace_ids, true);
        }
    }

    /// The coordinator's own decision to abort (a failed phase 1, a lost
    /// commit record): abort everywhere, with the reason on the log.
    fn global_abort(&mut self, txn: &HostTxn, reason: &dyn std::fmt::Display) {
        obs::warn!("hostdb::twopc", "aborting xid {} globally: {reason}", txn.xid);
        self.abort_everywhere(txn);
    }

    /// Tell every touched DLFM to abort — even already-prepared
    /// participants — and roll back locally (paper §3.3). Counted once.
    fn abort_everywhere(&mut self, txn: &HostTxn) {
        let abort = txn.touched.iter().map(|s| (s, DlfmRequest::Abort { xid: txn.xid }));
        for (server, ack) in self.scatter(abort, true) {
            if ack.is_err() {
                self.conns.remove(server);
            }
            self.host.acked("abort", server, &ack);
        }
        self.session.rollback();
        self.host.inner.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Create a savepoint covering local data and datalink operations.
    pub fn savepoint(&mut self) -> HostResult<HostSavepoint> {
        let txn =
            self.txn.as_ref().ok_or_else(|| HostError::Usage("no transaction open".into()))?;
        Ok(HostSavepoint { db_sp: self.session.savepoint()?, dl_ops_len: txn.dl_ops.len() })
    }

    /// Roll back to a savepoint: local undo plus `in_backout` requests for
    /// the datalink operations performed since (§3.2).
    pub fn rollback_to(&mut self, sp: &HostSavepoint) -> HostResult<()> {
        let (xid, to_undo) = {
            let txn =
                self.txn.as_mut().ok_or_else(|| HostError::Usage("no transaction open".into()))?;
            let to_undo: Vec<DlOp> = txn.dl_ops.split_off(sp.dl_ops_len);
            (txn.xid, to_undo)
        };
        // Undo newest-first; an error here forces full rollback (the paper:
        // "it is not possible to rollback a rollback").
        for op in to_undo.iter().rev() {
            let req = op.request(xid, true);
            let conn = self.conn(&op.shard)?;
            match conn.call(req)? {
                DlfmResponse::Ok => {}
                DlfmResponse::Err(e) => {
                    self.rollback();
                    return Err(HostError::Dlfm { error: e, txn_rolled_back: true });
                }
                other => {
                    self.rollback();
                    return Err(HostError::Rpc(format!("unexpected backout response {other:?}")));
                }
            }
        }
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
                if autocommit || self.txn_lost(&e) {
                    self.rollback();
                }
                Err(e)
            }
        }
    }

    /// Did this error force the loss of the transaction?
    fn txn_lost(&self, e: &HostError) -> bool {
        match e {
            HostError::Db(db) => db.is_rollback_forced(),
            // A severe (retryable-class) DLFM error means the DLFM's local
            // database already rolled the sub-transaction back: the host
            // must roll back the full transaction (paper §3.2).
            HostError::Dlfm { error: DlfmError::Db { retryable, .. }, .. } => *retryable,
            _ => false,
        }
    }

    /// Run one statement. One that changes datalink values first queues
    /// its link/unlink operations (`queue_*`), then runs its local DML,
    /// then sends the queue to the DLFMs in one round ([`Self::flush`]).
    /// The DML depends on no DLFM reply (shard and recovery id are
    /// generated here), so every statement takes its table's locks before
    /// DLFM locks, and one that fails locally has sent nothing. `vote`: the
    /// statement opened the transaction itself and commits it when it ends
    /// (autocommit), so its round carries the Prepare.
    fn exec_stmt(&mut self, p: &Prepared, params: &[Value], vote: bool) -> HostResult<ExecResult> {
        let stmt = p.stmt();
        let queue: fn(&mut Self, &Prepared, &[Value]) -> HostResult<()> = match stmt {
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
        // Statement atomicity: remember where we started.
        let sp = self.session.savepoint()?;
        let result = queue(self, p, params).and_then(|()| {
            let r = self.session.exec_prepared(p, params)?;
            self.flush(vote)?;
            Ok(r)
        });
        if let Err(e) = &result {
            if let Some(txn) = self.txn.as_mut() {
                txn.queued.clear();
            }
            if !self.txn_lost(e) {
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

    fn backout_ops(&mut self, performed: &[DlOp]) {
        let Some(xid) = self.txn.as_ref().map(|t| t.xid) else { return };
        for op in performed.iter().rev() {
            if let Ok(conn) = self.conn(&op.shard) {
                let reply = conn.call(op.request(xid, true)).map_err(HostError::from);
                if reply.is_err() {
                    self.conns.remove(&op.shard);
                }
                self.host.acked("backout", &op.shard, &reply);
            }
        }
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

    /// Send the running statement's queued operations: one `Batch` per
    /// shard, started on every shard before any reply is awaited (more than
    /// a batch's worth takes several such rounds); then record what the
    /// DLFMs performed. With `vote` each shard's last batch ends with
    /// `Prepare` — the unsolicited vote — and the votes, one lost in transit
    /// included, are kept for `commit_txn`.
    ///
    /// If a member fails the caller sees its error, and the members that
    /// succeeded (on any shard) are backed out — except with `vote`, where
    /// the whole transaction is about to be aborted and a shard that has
    /// voted no longer has the forward transaction a backout runs in.
    /// A shard counts as touched *before* its first batch is sent (there is
    /// no begin message), so one that fails in transit still gets its
    /// Abort; a failed statement keeps the connection, so that later uses
    /// fail too instead of continuing on a fresh DLFM session.
    fn flush(&mut self, vote: bool) -> HostResult<()> {
        let Some(txn) = self.txn.as_mut() else { return Ok(()) };
        let ops = std::mem::take(&mut txn.queued);
        if ops.is_empty() {
            return Ok(());
        }
        let xid = txn.xid;
        let shards: BTreeSet<String> = ops.iter().map(|op| op.shard.clone()).collect();
        txn.touched.extend(shards.iter().cloned());
        self.host.inner.metrics.dl_rounds.fetch_add(1, Ordering::Relaxed);

        let mut performed: Vec<DlOp> = Vec::new();
        let mut votes = Vec::new();
        let mut failure: Option<HostError> = None;
        let rounds: Vec<&[DlOp]> = ops.chunks(MAX_BATCH_OPS - 1).collect();
        for (n, round) in rounds.iter().enumerate() {
            let closing = vote && n + 1 == rounds.len();
            let mut per_shard: BTreeMap<&String, Vec<&DlOp>> = BTreeMap::new();
            if closing {
                per_shard.extend(shards.iter().map(|shard| (shard, Vec::new())));
            }
            for op in *round {
                per_shard.entry(&op.shard).or_default().push(op);
            }
            let sends = per_shard.iter().map(|(shard, ops)| {
                let mut members: Vec<_> = ops.iter().map(|op| op.request(xid, false)).collect();
                if closing {
                    members.push(DlfmRequest::Prepare { xid });
                }
                (*shard, DlfmRequest::Batch(members))
            });
            for (shard, reply) in self.scatter(sends, true) {
                let sent = &per_shard[shard];
                let (done, err, ballot) = read_batch_reply(sent.len(), reply, closing);
                for &op in &sent[..done] {
                    let m = &self.host.inner.metrics;
                    let counter = if op.link.is_some() { &m.links } else { &m.unlinks };
                    counter.fetch_add(1, Ordering::Relaxed);
                    performed.push(op.clone());
                }
                votes.extend(ballot.map(|ballot| (shard.clone(), ballot)));
                // A lost sub-transaction outranks an ordinary refusal: the
                // caller must roll everything back.
                if let Some(err) = err {
                    if failure.as_ref().is_none_or(|f| !self.txn_lost(f) && self.txn_lost(&err)) {
                        failure = Some(err);
                    }
                }
            }
            if failure.is_some() {
                break;
            }
        }
        // Second half of the token-cache rule: again after the reply.
        for op in ops.iter().filter(|op| op.link.is_some()) {
            self.host.inner.tokens.invalidate(&op.url.path, Invalidation::Link);
        }
        if failure.is_none() {
            failure = performed.iter().try_for_each(|op| self.record_op(op)).err();
        }
        match failure {
            None => {
                let txn = self.txn.as_mut().expect("checked on entry");
                txn.dl_ops.extend(performed);
                txn.votes = vote.then_some(votes);
                Ok(())
            }
            Some(e) => {
                if !vote && !self.txn_lost(&e) {
                    self.backout_ops(&performed);
                }
                Err(e)
            }
        }
    }

    /// The shard serving `url`: the shard map's placement under the
    /// transaction's pinned epoch (the current epoch outside one), or the
    /// URL's server name when hash routing is disabled.
    fn route(&self, url: &DatalinkUrl) -> HostResult<String> {
        let epoch = match self.txn.as_ref() {
            Some(txn) => txn.epoch,
            None => self.host.inner.shards.epoch(),
        };
        self.host.route_datalink(url, epoch)
    }

    fn open_txn(&mut self) -> HostResult<&mut HostTxn> {
        self.txn
            .as_mut()
            .ok_or_else(|| HostError::Usage("datalink operation outside a transaction".into()))
    }

    /// One plain transactional request (`drop_table`'s DeleteGroup). As in
    /// [`Self::flush`], the participant is recorded before the send.
    fn dl_request(&mut self, server: &str, req: DlfmRequest) -> HostResult<DlfmResponse> {
        self.conn(server)?;
        self.open_txn()?.touched.insert(server.to_string());
        match self.conns[server].call(req)? {
            DlfmResponse::Err(e) => Err(dlfm_error(e)),
            other => Ok(other),
        }
    }

    pub(crate) fn conn(&mut self, server: &str) -> HostResult<&DlfmConn> {
        if !self.conns.contains_key(server) {
            // Reuse an idle pooled connection when one exists; under the
            // DLFM's dedicated agent model a fresh one costs an agent thread
            // pinned to it.
            let conn = self.host.checkout_conn(server)?;
            self.conns.insert(server.to_string(), conn);
        }
        Ok(&self.conns[server])
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
        let conn = self.conn(&shard)?;
        match conn.call(DlfmRequest::IssueToken { filename: url.path.clone() })? {
            DlfmResponse::Token(t) => {
                self.host.inner.tokens.insert(&shard, &url.path, &t, epoch, generation);
                Ok(t)
            }
            DlfmResponse::Err(e) => Err(HostError::Dlfm { error: e, txn_rolled_back: false }),
            other => Err(HostError::Rpc(format!("unexpected {other:?}"))),
        }
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
            let grp_id = self.host.next_grp_id();
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
            self.host.register_dl_column(name, cname, DlColumn { grp_id, access, recovery });
            let spec = GroupSpec {
                grp_id,
                dbid: self.host.dbid(),
                table_name: name.clone(),
                column_name: cname.clone(),
                access,
                recovery,
            };
            for server in self.host.servers() {
                let conn = self.conn(&server)?;
                match conn.call(DlfmRequest::RegisterGroup(spec.clone()))? {
                    DlfmResponse::Ok => {}
                    DlfmResponse::Err(e) => {
                        return Err(HostError::Dlfm { error: e, txn_rolled_back: false })
                    }
                    other => return Err(HostError::Rpc(format!("unexpected {other:?}"))),
                }
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
                    let xid = self.open_txn()?.xid;
                    let resp = self.dl_request(
                        &server,
                        DlfmRequest::DeleteGroup { xid, grp_id: info.grp_id, rec_id },
                    )?;
                    let _ = resp;
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
                self.host.forget_dl_columns(table);
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
        self.rollback();
        // Hand the session's connections back for reuse (each is
        // health-checked at checkin; broken ones are retired).
        for (server, conn) in self.conns.drain() {
            self.host.checkin_conn(&server, conn);
        }
    }
}
