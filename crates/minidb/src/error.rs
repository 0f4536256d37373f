//! Error types surfaced by the engine.
//!
//! The distinctions matter to DLFM: a [`DbError::Deadlock`] or
//! [`DbError::LockTimeout`] in the local database forces the *host* database
//! to roll back the whole global transaction (paper §3.2), while
//! [`DbError::LogFull`] is the failure mode long-running load/reconcile
//! utilities hit unless they chunk their commits (paper §4).

use std::fmt;

/// Result alias used throughout the engine.
pub type DbResult<T> = Result<T, DbError>;

/// All errors the engine can report to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The transaction was chosen as a deadlock victim and has been rolled back.
    Deadlock {
        /// Human-readable description of the cycle that was found.
        cycle: String,
    },
    /// A lock request waited longer than the configured lock timeout.
    ///
    /// The requesting transaction is rolled back, mirroring DB2's
    /// `SQLCODE -911 RC 68` behaviour that DLFM relies on to break
    /// distributed deadlocks (paper §4).
    LockTimeout {
        /// Which resource could not be acquired.
        resource: String,
        /// How long the request waited, in milliseconds.
        waited_ms: u64,
    },
    /// A unique-index constraint was violated.
    UniqueViolation {
        /// Name of the violated index.
        index: String,
        /// Rendered key that collided.
        key: String,
    },
    /// The active portion of the write-ahead log is full.
    ///
    /// Raised when a single transaction pins more log records than
    /// [`crate::config::DbConfig::log_capacity_records`] allows.
    LogFull {
        /// Records currently pinned by active transactions.
        pinned: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The per-database lock list is exhausted and escalation is disabled
    /// or itself failed.
    LockListFull {
        /// Locks currently held across all transactions.
        held: usize,
        /// Configured lock-list capacity.
        capacity: usize,
    },
    /// A referenced table, index, or column does not exist.
    NotFound(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// SQL lexing or parsing failed.
    Parse(String),
    /// Statement was parsed but could not be planned (unknown column, type
    /// mismatch in a predicate, wrong arity, ...).
    Plan(String),
    /// A runtime type error (e.g. comparing BIGINT to BLOB).
    Type(String),
    /// Constraint violation other than a unique index (NOT NULL, etc).
    Constraint(String),
    /// Operation is illegal in the current transaction state
    /// (e.g. writing inside an aborted transaction).
    TxnState(String),
    /// The statement references a parameter marker that was not bound.
    MissingParam(usize),
    /// The engine was asked to do something while crashed/offline.
    Offline,
    /// Internal invariant violation; indicates a bug in the engine.
    Internal(String),
    /// Rolled back whole: the log refused a savepoint rollback's compensation record.
    RolledBack(String),
}

impl DbError {
    /// True when the error indicates the transaction has already been
    /// rolled back by the engine (deadlock victim / lock timeout / a
    /// savepoint rollback the log refused).
    ///
    /// DLFM's retry loops key off this: phase-2 commit processing retries
    /// on exactly these errors (paper §3.3 / Figure 4).
    pub fn is_rollback_forced(&self) -> bool {
        matches!(self, Self::Deadlock { .. } | Self::LockTimeout { .. } | Self::RolledBack(_))
    }

    /// True for transient errors that are safe to retry with a fresh
    /// transaction: forced rollbacks and log-full conditions.
    pub fn is_retryable(&self) -> bool {
        self.is_rollback_forced() || matches!(self, DbError::LogFull { .. })
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Deadlock { cycle } => write!(f, "deadlock detected: {cycle}"),
            DbError::LockTimeout { resource, waited_ms } => {
                write!(f, "lock timeout after {waited_ms}ms waiting for {resource}")
            }
            DbError::UniqueViolation { index, key } => {
                write!(f, "unique constraint violated on index {index} for key {key}")
            }
            DbError::LogFull { pinned, capacity } => {
                write!(f, "log full: {pinned} records pinned, capacity {capacity}")
            }
            DbError::LockListFull { held, capacity } => {
                write!(f, "lock list full: {held} of {capacity} locks held")
            }
            DbError::NotFound(what) => write!(f, "not found: {what}"),
            DbError::AlreadyExists(what) => write!(f, "already exists: {what}"),
            DbError::Parse(msg) => write!(f, "parse error: {msg}"),
            DbError::Plan(msg) => write!(f, "planning error: {msg}"),
            DbError::Type(msg) => write!(f, "type error: {msg}"),
            DbError::Constraint(msg) => write!(f, "constraint violation: {msg}"),
            DbError::TxnState(msg) => write!(f, "invalid transaction state: {msg}"),
            DbError::MissingParam(i) => write!(f, "parameter marker ?{i} not bound"),
            DbError::Offline => write!(f, "database is offline (crashed)"),
            DbError::Internal(msg) => write!(f, "internal error: {msg}"),
            DbError::RolledBack(cause) => write!(f, "transaction rolled back: {cause}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_rollback_classification() {
        assert!(DbError::Deadlock { cycle: "t1->t2->t1".into() }.is_rollback_forced());
        assert!(
            DbError::LockTimeout { resource: "row".into(), waited_ms: 60_000 }.is_rollback_forced()
        );
        assert!(!DbError::LogFull { pinned: 10, capacity: 10 }.is_rollback_forced());
        assert!(!DbError::Parse("x".into()).is_rollback_forced());
        assert!(DbError::RolledBack("injected".into()).is_rollback_forced());
    }

    #[test]
    fn retryable_classification() {
        assert!(DbError::LogFull { pinned: 1, capacity: 1 }.is_retryable());
        assert!(DbError::Deadlock { cycle: String::new() }.is_retryable());
        assert!(!DbError::NotFound("t".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = DbError::LockTimeout { resource: "row 7 of dfm_file".into(), waited_ms: 60000 };
        let s = e.to_string();
        assert!(s.contains("60000ms"));
        assert!(s.contains("dfm_file"));
    }
}
