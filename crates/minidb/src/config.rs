//! Engine configuration knobs.
//!
//! Every knob here corresponds to a control the DLFM team turned in the
//! paper: next-key locking (§3.2.1/§4), lock escalation and lock-list size
//! (§4), lock timeouts (§4), and the active-log capacity that long-running
//! utility transactions exhaust (§4).

use std::time::Duration;

/// Tunable engine behaviour.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// When true, index inserts and deletes X-lock the *next* key and index
    /// scans lock each key they traverse. Reads are cursor-stability: their
    /// S locks are released at statement end.
    /// DB2's ARIES/KVL behaviour; the paper disables it inside DLFM's local
    /// database to kill the multi-index deadlock storms (§3.2.1, §4).
    pub next_key_locking: bool,
    /// Row locks a single transaction may hold on one table before the
    /// engine escalates to a table lock. `None` disables escalation.
    pub lock_escalation_threshold: Option<usize>,
    /// Total locks across all transactions before new requests fail with
    /// `LockListFull` (after an escalation attempt). Models DB2's LOCKLIST.
    pub lock_list_capacity: usize,
    /// How long a lock request may wait before the requester is rolled back
    /// with `LockTimeout`. The paper settles on 60 s; tests scale it down.
    pub lock_timeout: Duration,
    /// When true, a wait-for-graph cycle check runs each time a request
    /// blocks, and a victim in the cycle is rolled back with `Deadlock`.
    /// DB2 runs such a local detector; distributed deadlocks (through the
    /// host database) are invisible to it and only the timeout breaks them.
    pub deadlock_detection: bool,
    /// Maximum log records pinned by in-flight transactions before writes
    /// fail with `LogFull`.
    pub log_capacity_records: usize,
    /// Simulated latency added to each log force (commit durability cost).
    /// Used by the benchmark harness to model ~1999 disk behaviour.
    pub log_force_latency: Duration,
    /// When true (the default), commits use the leader/follower group-commit
    /// protocol: one log force covers every committer waiting at that
    /// moment. When false each committer performs its own force,
    /// serialised at the simulated log device — the historical behaviour,
    /// kept so E11 can measure the gap.
    pub group_commit: bool,
    /// Statements running at least this long are recorded in the
    /// slow-statement log with their plan text, optimizer cost/cardinality
    /// estimates, and lock-wait breakdown — the paper's RUNSTATS lesson
    /// (a silent table-scan plan) made directly visible. `None` (the
    /// default) disables the log.
    pub slow_statement_threshold: Option<Duration>,
    /// Multi-version concurrency control for reads (default on): read-only
    /// statements resolve against a commit-timestamp snapshot and take no
    /// row/key locks, while DML keeps strict 2PL + next-key locking.
    /// `false` restores the pure-2PL engine (locking reads) — kept as the
    /// comparison/fallback arm. Fixed for the database's lifetime.
    pub mvcc: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            next_key_locking: true,
            lock_escalation_threshold: Some(1000),
            lock_list_capacity: 100_000,
            lock_timeout: Duration::from_secs(60),
            deadlock_detection: true,
            log_capacity_records: 1_000_000,
            log_force_latency: Duration::ZERO,
            group_commit: true,
            slow_statement_threshold: None,
            mvcc: true,
        }
    }
}

impl DbConfig {
    /// The configuration DLFM runs its local database with after applying
    /// the paper's lessons: next-key locking off, escalation effectively
    /// avoided via a high threshold and a large lock list, 60 s timeouts.
    pub fn dlfm_tuned() -> Self {
        DbConfig {
            next_key_locking: false,
            lock_escalation_threshold: Some(10_000),
            lock_list_capacity: 1_000_000,
            lock_timeout: Duration::from_secs(60),
            deadlock_detection: true,
            log_capacity_records: 1_000_000,
            log_force_latency: Duration::ZERO,
            group_commit: true,
            slow_statement_threshold: None,
            mvcc: true,
        }
    }

    /// A configuration convenient for tests: short timeouts so induced
    /// deadlock/timeout scenarios resolve quickly.
    pub fn for_tests() -> Self {
        DbConfig {
            lock_timeout: Duration::from_millis(250),
            log_force_latency: Duration::ZERO,
            ..DbConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_db2_like_behaviour() {
        let c = DbConfig::default();
        assert!(c.next_key_locking);
        assert!(c.deadlock_detection);
        assert_eq!(c.lock_timeout, Duration::from_secs(60));
    }

    #[test]
    fn dlfm_tuning_disables_next_key_locking() {
        let c = DbConfig::dlfm_tuned();
        assert!(!c.next_key_locking);
        assert!(c.lock_escalation_threshold.unwrap() >= 10_000);
    }
}
