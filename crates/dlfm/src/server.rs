//! The DLFM server: shared state, startup, crash/restart, and the main
//! daemon's accept loop (paper §3.5, Figure 5).
//!
//! Process model: a main daemon accepts connections from host-database
//! agents and pins one child agent to each (or, as a setting, a fixed pool
//! of agents serves them all — `dlrpc::AgentModel`); four service daemons
//! (Copy, Retrieve, Delete-Group, Garbage Collector) run alongside as
//! threads, and two run in-line on their callers: the privileged Chown
//! component on the agent or daemon that asks, the Upcall daemon as the
//! DLFF's handler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

use archive::ArchiveServer;
use crossbeam::channel::{unbounded, Sender};
use dlrpc::{fabric, serve, Connector, ServerHandle};
use filesys::{Dlff, FileSystem};
use minidb::{Database, Session, Value};
use parking_lot::RwLock;

use crate::agent::{self, SessionTable};
use crate::api::{DlfmRequest, DlfmResponse};
use crate::chown::{ChownClient, ChownDaemon};
use crate::config::DlfmConfig;
use crate::daemons;
use crate::meta::{self, Statements, XS_INFLIGHT};
use crate::metrics::DlfmMetrics;
use crate::twopc;

/// Microseconds since the UNIX epoch — the timestamps stored in DLFM
/// metadata (unlink times, group expiry, backup times).
pub fn now_micros() -> i64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as i64).unwrap_or(0)
}

/// State shared by child agents and daemons.
pub struct DlfmShared {
    /// The local "black box" database.
    pub db: Database,
    /// Raw file system of this file server.
    pub fs: Arc<FileSystem>,
    /// The DLFF filter over the file system.
    pub dlff: Arc<Dlff>,
    /// The archive server used for coordinated backup.
    pub archive: Arc<ArchiveServer>,
    /// Authenticated client of the privileged Chown component.
    pub chown: ChownClient,
    /// Configuration.
    pub config: DlfmConfig,
    /// Operation counters.
    pub metrics: Arc<DlfmMetrics>,
    /// Bound SQL statements, swapped atomically on rebind.
    pub stmts: RwLock<Arc<Statements>>,
    /// Per-connection session state, keyed by fabric session id, under
    /// either agent model.
    pub sessions: SessionTable,
    /// Work queue feeding the Delete-Group daemon.
    pub groupd_tx: Sender<(i64, i64)>,
    /// Shutdown flag polled by all daemons.
    pub shutdown: AtomicBool,
    /// Retrieve-daemon work queue.
    pub retrieve_tx: Sender<daemons::RetrieveJob>,
    /// This server's in-process fabric endpoint (the pool and session
    /// gauges of the metrics and status pages read it).
    pub connector: Connector<DlfmRequest, DlfmResponse>,
    /// Socket-listener instrumentation, when the server listens on one.
    pub wire_stats: Option<Arc<dlrpc::WireStats>>,
}

/// Render one telemetry artifact for a `FetchTelemetry` request: metrics
/// and status from the shared state, journal, spans and clock straight
/// from `obs`.
pub fn render_telemetry(shared: &DlfmShared, kind: crate::api::TelemetryKind) -> String {
    use crate::api::TelemetryKind;
    match kind {
        TelemetryKind::Metrics => shared.metrics_text(),
        TelemetryKind::Status => shared.status_text(),
        TelemetryKind::Journal => obs::journal::dump_string(),
        TelemetryKind::Spans => obs::export_span_dump(),
        TelemetryKind::Clock => obs::journal::now_micros().to_string(),
    }
}

impl DlfmShared {
    /// Current bound statements.
    pub fn statements(&self) -> Arc<Statements> {
        self.stmts.read().clone()
    }

    /// Run the statistics guard: re-apply hand-crafted stats and rebind if a
    /// RUNSTATS overwrote them (paper §4). Safe to call from any thread.
    pub fn ensure_plans(&self) {
        if !self.config.hand_craft_stats {
            return;
        }
        let current = self.statements();
        if let Ok(Some(fresh)) = meta::ensure_plans(&self.db, &current, &self.metrics) {
            *self.stmts.write() = Arc::new(fresh);
        }
    }

    /// Is the server shutting down?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Render every DLFM-side metric in Prometheus text format: operation
    /// counters, per-op latency histograms, local-database lock and WAL
    /// statistics, RPC-fabric gauges, daemon queue depths, and process
    /// self-metrics.
    pub fn metrics_text(&self) -> String {
        let mut r = obs::Registry::new();
        let connector = &self.connector;

        self.metrics.render(&mut r);
        self.metrics.op_hists.render(&mut r);
        r.gauge(
            "dlfm_dlff_tokens",
            "Read tokens registered with the file-system filter (one per linked full-control file that was asked for).",
            &[],
            self.dlff.token_count() as i64,
        );
        self.db.render_metrics(&mut r);
        connector.render_metrics(&mut r);
        if let Some(w) = &self.wire_stats {
            w.render(&mut r);
        }

        if let Some(pool) = connector.pool_stats() {
            pool.render(&mut r);
            r.gauge(
                "dlfm_pool_queue_depth",
                "Work no agent has picked up: queued requests (pooled) or connections awaiting their agent (dedicated).",
                &[],
                connector.accept_backlog() as i64,
            );
        }
        r.gauge(
            "dlfm_sessions_active",
            "Connections with live session state in the session table.",
            &[],
            self.sessions.active() as i64,
        );

        r.gauge(
            "dlfm_daemon_queue_depth",
            "Work items queued for a service daemon.",
            &[("daemon", "delete_group")],
            self.groupd_tx.len() as i64,
        );
        r.gauge(
            "dlfm_daemon_queue_depth",
            "Work items queued for a service daemon.",
            &[("daemon", "retrieve")],
            self.retrieve_tx.len() as i64,
        );

        obs::render_metrics(&mut r);

        r.render()
    }

    /// Human-readable live status: the session table, pool and daemon
    /// backlogs, in-doubt transactions, and the local lock table — what an
    /// operator tails while a workload runs (rendered by the `dlfmtop`
    /// example).
    pub fn status_text(&self) -> String {
        let connector = &self.connector;
        let mut out = String::new();
        out.push_str("=== dlfm status ===\n");

        // Agent model + occupancy.
        if let Some(pool) = connector.pool_stats() {
            out.push_str(&format!(
                "agent model: {}: {}/{} agents busy, {} waiting, {} admission rejects\n",
                self.config.agent_model,
                pool.busy(),
                pool.workers(),
                connector.accept_backlog(),
                pool.rejects(),
            ));
        }

        // Session table.
        let sessions = self.sessions.status_lines();
        out.push_str(&format!("sessions: {}\n", sessions.len()));
        for (id, line) in sessions {
            out.push_str(&format!("  session#{id}: {line}\n"));
        }

        // In-doubt (prepared) sub-transactions awaiting the resolver.
        let mut s = Session::new(&self.db);
        match s.query(
            "SELECT dbid, xid FROM dfm_xact WHERE state = ?",
            &[Value::Int(meta::XS_PREPARED)],
        ) {
            Ok(rows) if rows.is_empty() => out.push_str("in-doubt: none\n"),
            Ok(rows) => {
                out.push_str(&format!("in-doubt: {}\n", rows.len()));
                for row in rows {
                    if let (Ok(dbid), Ok(xid)) = (row[0].as_int(), row[1].as_int()) {
                        out.push_str(&format!("  db#{dbid} xid#{xid} PREPARED\n"));
                    }
                }
            }
            Err(e) => out.push_str(&format!("in-doubt: unavailable ({e})\n")),
        }

        // Daemon backlogs.
        out.push_str(&format!(
            "daemon backlogs: delete_group={} retrieve={}\n",
            self.groupd_tx.len(),
            self.retrieve_tx.len()
        ));

        // Local-database lock table, recent deadlocks, slow statements.
        out.push_str(&self.db.lock_table_summary());
        let deadlocks = self.db.recent_deadlocks();
        out.push_str(&format!("recent deadlocks: {}\n", deadlocks.len()));
        for report in deadlocks.iter().rev().take(3) {
            for line in report.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        let slow = self.db.recent_slow_statements();
        out.push_str(&format!("recent slow statements: {}\n", slow.len()));
        for stmt in slow.iter().rev().take(3) {
            out.push_str(&format!("  {}\n", stmt.render()));
        }

        // Flight recorder health.
        out.push_str(&format!(
            "flight recorder: {} events recorded, {} dropped; span ring {} dropped\n",
            obs::journal::recorded(),
            obs::journal::dropped(),
            obs::trace::global_ring().dropped(),
        ));
        out
    }
}

/// A running DLFM instance.
pub struct DlfmServer {
    shared: Arc<DlfmShared>,
    rpc: Option<ServerHandle>,
    wire: Option<dlrpc::WireServer>,
    daemons: Vec<JoinHandle<()>>,
}

impl DlfmServer {
    /// Start a DLFM over the given file server and archive server.
    pub fn start(
        config: DlfmConfig,
        fs: Arc<FileSystem>,
        archive_server: Arc<ArchiveServer>,
    ) -> DlfmServer {
        // A running server always has its flight recorder on; the disarmed
        // fast path only matters for library users who never start one.
        obs::journal::arm();
        let db = Database::new(config.db.clone());
        let mut session = Session::new(&db);
        meta::create_schema(&mut session).expect("DLFM schema creation cannot fail");
        if config.hand_craft_stats {
            meta::hand_craft_stats(&db).expect("hand-crafting stats cannot fail");
        }
        let stmts = Statements::prepare(&db).expect("statement binding cannot fail");

        let dlff = Arc::new(Dlff::new(fs.clone(), &config.dlfm_admin));
        let chown = ChownDaemon::start(fs.clone(), &config.dlfm_admin);
        let (groupd_tx, groupd_rx) = unbounded::<(i64, i64)>();
        let (retrieve_tx, retrieve_rx) = unbounded();

        // The main daemon's fabric, laid out as the agent model says (paper
        // §3.5's child agent per connection, or a pool), and the socket
        // listener bridging remote sessions into it, so agents never see
        // the transport. Both exist before the shared state that holds
        // their endpoint; the agents start serving below.
        let (listener, connector) = fabric(config.agent_model);
        let wire = config.listen.wire_addr().map(|addr| {
            let listener = dlrpc::SocketListener::bind(&addr)
                .unwrap_or_else(|e| panic!("dlfmd cannot bind {addr}: {e}"));
            dlrpc::serve_wire(listener, &connector)
        });

        let shared = Arc::new(DlfmShared {
            db,
            fs,
            dlff: dlff.clone(),
            archive: archive_server,
            chown,
            config,
            metrics: Arc::new(DlfmMetrics::default()),
            stmts: RwLock::new(Arc::new(stmts)),
            sessions: SessionTable::default(),
            groupd_tx,
            shutdown: AtomicBool::new(false),
            retrieve_tx,
            connector,
            wire_stats: wire.as_ref().map(|w| w.wire_stats().clone()),
        });

        // Install the Upcall daemon as the DLFF's handler.
        dlff.set_upcall(Arc::new(daemons::UpcallDaemon::new(&shared)));

        // Service daemons.
        let handles = vec![
            daemons::spawn_copy_daemon(shared.clone()),
            daemons::spawn_group_delete_daemon(shared.clone(), groupd_rx),
            daemons::spawn_gc_daemon(shared.clone()),
            daemons::spawn_retrieve_daemon(shared.clone(), retrieve_rx),
        ];

        // Per-connection state lives in the session table under either
        // agent model.
        let agent_shared = shared.clone();
        let rpc = serve(listener, move || {
            let shared = agent_shared.clone();
            move |event, slot| agent::handle_event(&shared, event, slot)
        });
        DlfmServer { shared, rpc: Some(rpc), wire, daemons: handles }
    }

    /// The socket address the wire listener bound, when `config.listen`
    /// asked for one. `Tcp("host:0")` resolves to the actual port here.
    pub fn listen_addr(&self) -> Option<dlrpc::WireAddr> {
        self.wire.as_ref().map(|w| w.bound_addr().clone())
    }

    /// Server-side wire instrumentation (frames/bytes over the socket
    /// listener), when one is running.
    pub fn wire_stats(&self) -> Option<&Arc<dlrpc::WireStats>> {
        self.shared.wire_stats.as_ref()
    }

    /// Endpoint host databases connect to.
    pub fn connector(&self) -> Connector<DlfmRequest, DlfmResponse> {
        self.shared.connector.clone()
    }

    /// Shared state (tests and benchmarks).
    pub fn shared(&self) -> &Arc<DlfmShared> {
        &self.shared
    }

    /// The local database (diagnostics).
    pub fn db(&self) -> &Database {
        &self.shared.db
    }

    /// Agent threads spawned by the RPC server so far: one per connection
    /// under [`dlrpc::AgentModel::Dedicated`], the fixed worker count under
    /// [`dlrpc::AgentModel::Pooled`]. Benchmarks use this to show the
    /// thread-count difference between the two settings.
    pub fn agents_spawned(&self) -> u64 {
        self.rpc
            .as_ref()
            .map(|h| h.agents_spawned.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Operation counters.
    pub fn metrics(&self) -> &DlfmMetrics {
        &self.shared.metrics
    }

    /// The DLFF filter applications should go through.
    pub fn dlff(&self) -> &Arc<Dlff> {
        &self.shared.dlff
    }

    /// Every DLFM-side metric in Prometheus text format
    /// ([`DlfmShared::metrics_text`]).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// The live status page ([`DlfmShared::status_text`]).
    pub fn status_text(&self) -> String {
        self.shared.status_text()
    }

    /// A `'static` snapshot provider rendering [`DlfmServer::metrics_text`]
    /// — what a telemetry watchdog scrapes without borrowing the server.
    pub fn metrics_provider(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let shared = self.shared.clone();
        move || shared.metrics_text()
    }

    /// A `'static` status-page provider rendering
    /// [`DlfmServer::status_text`] — the incident-bundle section source.
    pub fn status_provider(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let shared = self.shared.clone();
        move || shared.status_text()
    }
}

impl DlfmServer {
    /// Take a local-database checkpoint (bounds restart recovery work).
    pub fn checkpoint(&self) {
        self.shared.db.checkpoint();
    }

    /// Simulate a DLFM crash: the local database loses its volatile state.
    /// (The file system and archive server are separate boxes and survive.)
    pub fn crash(&self) {
        self.shared.db.crash();
    }

    /// Restart after a crash: recover the local database, abort in-flight
    /// chunked transactions (they were never prepared, so presumed abort),
    /// re-apply statistics, rebind plans, and requeue unfinished
    /// delete-group work. Prepared transactions remain indoubt for the host
    /// resolver (paper §3.3).
    pub fn restart(&self) -> Result<(), minidb::DbError> {
        obs::info!("dlfm::server", "restarting after crash: recovering local database");
        self.shared.db.restart()?;
        // Statistics are not logged; re-apply and rebind.
        if self.shared.config.hand_craft_stats {
            meta::hand_craft_stats(&self.shared.db)?;
        }
        *self.shared.stmts.write() = Arc::new(Statements::prepare(&self.shared.db)?);

        let mut session = Session::new(&self.shared.db);
        // Presumed abort for in-flight chunked transactions.
        let inflight = session
            .query("SELECT dbid, xid FROM dfm_xact WHERE state = ?", &[Value::Int(XS_INFLIGHT)])?;
        for row in inflight {
            let dbid = row[0].as_int()?;
            let xid = row[1].as_int()?;
            if let Err(e) = twopc::run_phase2_abort(&self.shared, dbid, xid) {
                // Not silent: the xact row survives, so the next restart
                // (or the host resolver's presumed abort) retries it.
                DlfmMetrics::bump(&self.shared.metrics.phase2_abort_failures);
                obs::warn!(
                    "dlfm::server",
                    "restart abort of in-flight db#{dbid} xid#{xid} failed \
                     (left in-doubt for the resolver): {e}"
                );
            }
        }
        // Resume asynchronous group deletion for committed transactions.
        let pending = session
            .query("SELECT dbid, xid FROM dfm_xact WHERE state = 3 AND groups_deleted > 0", &[])?;
        for row in pending {
            twopc::notify_groupd(&self.shared, row[0].as_int()?, row[1].as_int()?);
        }
        Ok(())
    }
}

impl Drop for DlfmServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Tear the wire bridge down before the fabric so no remote frame
        // races a closing run queue.
        if let Some(mut wire) = self.wire.take() {
            wire.shutdown();
        }
        if let Some(mut rpc) = self.rpc.take() {
            rpc.shutdown();
        }
        for h in self.daemons.drain(..) {
            let _ = h.join();
        }
    }
}
