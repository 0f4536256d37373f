//! DLFM configuration.

use std::time::Duration;

use dlrpc::AgentModel;
use minidb::DbConfig;

/// Which transport the DLFM server listens on.
///
/// `Inproc` keeps the historical behaviour: the server serves only the
/// in-process fabric its `Connector` hands out. The socket variants
/// additionally bridge a real listener into that same fabric, so one
/// server can serve loopback and remote clients at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// In-process fabric only (default; loopback and tests).
    Inproc,
    /// Listen on TCP at `host:port` (`0` picks an ephemeral port).
    Tcp(String),
    /// Listen on a Unix-domain socket at this path.
    Unix(String),
}

impl Transport {
    /// The wire address to bind, if this transport uses a socket.
    pub fn wire_addr(&self) -> Option<dlrpc::WireAddr> {
        match self {
            Transport::Inproc => None,
            Transport::Tcp(a) => Some(dlrpc::WireAddr::Tcp(a.clone())),
            Transport::Unix(p) => Some(dlrpc::WireAddr::Unix(p.clone().into())),
        }
    }
}

/// Tunable DLFM behaviour. Defaults follow the paper's production settings
/// (scaled for laptop experiments where noted).
#[derive(Debug, Clone)]
pub struct DlfmConfig {
    /// Configuration of the local ("black box") database.
    pub db: DbConfig,
    /// Name of the DLFM administrative user that owns fully-controlled
    /// files after takeover.
    pub dlfm_admin: String,
    /// Long-running-transaction chunking: issue a local commit after this
    /// many link/unlink operations in one transaction, marking the
    /// transaction in-flight in the transaction table (paper §4).
    /// `None` disables chunking (every op stays in one local transaction).
    pub chunk_commit_every: Option<usize>,
    /// Delete-group daemon: unlink this many files per local commit
    /// ("we issue commits to local DB2 periodically after processing every
    /// N records", §4).
    pub delete_group_batch: usize,
    /// Backoff between phase-2 commit/abort retries.
    pub commit_retry_backoff: Duration,
    /// Safety valve on phase-2 retries (the paper retries forever; tests
    /// need an eventual stop). Generous by default.
    pub commit_retry_limit: usize,
    /// Poll interval of the background daemons.
    pub daemon_poll_interval: Duration,
    /// Keep the last N backups' worth of unlinked entries and archive
    /// copies (paper §3.5: "policy of keeping last N backups").
    pub backups_retained: usize,
    /// Lifetime of a deleted group before the Garbage Collector removes its
    /// metadata and archive copies, in microseconds of logical time.
    pub group_life_span_micros: i64,
    /// Apply the paper's optimizer fix: hand-craft catalog statistics before
    /// binding the DLFM's SQL statements, and re-apply + rebind when a
    /// RUNSTATS overwrites them (§3.2.1, §4).
    pub hand_craft_stats: bool,
    /// How the RPC fabric lays out its agents: one pinned to each
    /// connection (the paper's process model, default) or a
    /// session-multiplexed worker pool. Either way every connection's state
    /// lives in the session table.
    pub agent_model: AgentModel,
    /// Listen transport: `Inproc` (default) serves only the in-process
    /// fabric; `Tcp`/`Unix` additionally bind a socket listener and bridge
    /// remote sessions into the same agent model.
    pub listen: Transport,
}

impl Default for DlfmConfig {
    fn default() -> Self {
        DlfmConfig {
            db: DbConfig::dlfm_tuned(),
            dlfm_admin: "dlfm_admin".into(),
            chunk_commit_every: Some(1000),
            delete_group_batch: 100,
            commit_retry_backoff: Duration::from_millis(5),
            commit_retry_limit: 10_000,
            daemon_poll_interval: Duration::from_millis(10),
            backups_retained: 2,
            group_life_span_micros: 60_000_000,
            hand_craft_stats: true,
            agent_model: AgentModel::Dedicated,
            listen: Transport::Inproc,
        }
    }
}

/// The stock health-rule set for a DLFM deployment: the pathologies the
/// paper hit in production (§3.2.1, §4, §6), phrased as watchdog rules
/// over the metric families every layer already exports.
pub fn default_watch_rules() -> Vec<obs::Rule> {
    use obs::{Cmp, Rule};
    vec![
        // Phase 2 must never give up: an abandoned sub-transaction means
        // the retry limit was exhausted and a prepared xact is stranded.
        Rule::threshold("phase2-abandoned", "dlfm_phase2_abandoned_total", Cmp::Gt, 0.0),
        // A sustained retry storm is the paper's Figure-4 livelock
        // signature: phase-2 attempts bouncing off local lock timeouts.
        Rule::rate("phase2-retry-storm", "dlfm_phase2_retries_total", Cmp::Gt, 50.0, 2),
        // WAL forces flat while RPC senders sit blocked: commits are
        // queued behind something that is not the log.
        Rule::stall("wal-stall", "minidb_wal_forces_total", "rpc_send_blocked", Cmp::Gt, 0.0, 5),
        // Interval lock-wait p99 over a second: the §6 archive-queue
        // pathology (~9000x wait inflation) as a live signal.
        Rule::quantile("lock-wait-p99", "minidb_lock_wait_micros", 0.99, Cmp::Gt, 1_000_000.0, 2),
        // Process memory runaway (8 GiB).
        Rule::threshold(
            "rss-runaway",
            "process_resident_memory_bytes",
            Cmp::Gt,
            8.0 * 1024.0 * 1024.0 * 1024.0,
        ),
        // Delete-group backlog growing without bound.
        Rule::threshold(
            "delete-group-backlog",
            "dlfm_daemon_queue_depth{daemon=\"delete_group\"}",
            Cmp::Gt,
            10_000.0,
        ),
        // MVCC garbage collection stalled: the watermark stopped advancing
        // while version chains keep piling up — usually a long-running
        // snapshot pinning history that GC cannot reclaim.
        Rule::stall(
            "mvcc-gc-stall",
            "minidb_mvcc_gc_watermark",
            "minidb_mvcc_version_chains",
            Cmp::Gt,
            10_000.0,
            5,
        ),
        // Wire-transport reconnect storm: the host pool redialing the DLFM
        // over and over means the socket (or the server behind it) is
        // flapping — a network partition, a crashing dlfmd, or a listener
        // backlog collapse.
        Rule::rate("wire-reconnect-storm", "rpc_wire_reconnects_total", Cmp::Gt, 5.0, 2),
    ]
}

impl DlfmConfig {
    /// A configuration with *none* of the paper's fixes applied: next-key
    /// locking on, no hand-crafted statistics. Used as the "before" arm of
    /// the ablation experiments.
    pub fn untuned() -> Self {
        DlfmConfig { db: DbConfig::default(), hand_craft_stats: false, ..DlfmConfig::default() }
    }

    /// Fast-timeout variant for tests.
    pub fn for_tests() -> Self {
        let mut c = DlfmConfig::default();
        c.db.lock_timeout = Duration::from_millis(500);
        c.daemon_poll_interval = Duration::from_millis(2);
        c.commit_retry_backoff = Duration::from_millis(1);
        c.group_life_span_micros = 20_000; // 20 ms of wall-clock
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_tuned() {
        let c = DlfmConfig::default();
        assert!(!c.db.next_key_locking, "tuned DLFM disables next-key locking");
        assert!(c.hand_craft_stats);
        assert_eq!(
            c.agent_model,
            AgentModel::Dedicated,
            "the paper's dedicated-agent process model stays the default"
        );
    }

    #[test]
    fn untuned_reverts_the_fixes() {
        let c = DlfmConfig::untuned();
        assert!(c.db.next_key_locking);
        assert!(!c.hand_craft_stats);
    }
}
