//! Transaction handles, undo records, and statement savepoints.
//!
//! The engine uses strict two-phase locking with in-place updates: forward
//! operations mutate the heap/indexes directly, move the image they
//! displaced onto the row's version chain ([`crate::mvcc`]) and note the
//! row in the undo log. Rollback (full or to a savepoint) pops each row's
//! chain top back into the heap, newest first. Locks are released only at
//! commit/abort — never at statement rollback — matching DB2 semantics the
//! paper's savepoint discussion (§3.2) depends on.

use crate::schema::TableId;

/// Transaction identifier, unique and monotonically increasing per database.
///
/// Monotonicity matters: DLFM stores host transaction ids in its metadata
/// and the paper calls the monotonic property "absolutely essential" (§3.3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One undo record: the row a write displaced an image of. The image
/// itself is the top of the row's version chain.
pub type UndoOp = (TableId, u64);

/// Current state of a transaction handle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Forward processing.
    #[default]
    Active,
    /// Rolled back (terminal).
    Aborted,
    /// Committed (terminal).
    Committed,
}

/// Opaque marker returned by [`Txn::savepoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint(usize);

/// A transaction in progress. Owned by a session; never shared.
#[derive(Debug, Default)]
pub struct Txn {
    /// This transaction's id.
    pub id: TxnId,
    /// Lifecycle state.
    pub state: TxnState,
    /// Undo log, oldest first.
    pub undo: Vec<UndoOp>,
    /// Rows a savepoint rollback left with no write. The transaction keeps
    /// their locks, so a slot it emptied is freed only when it ends.
    pub held: Vec<UndoOp>,
    /// Number of statements executed (diagnostics only).
    pub statements: u64,
    /// MVCC snapshot timestamp, assigned lazily at the first snapshot read
    /// and held for the transaction's lifetime (repeatable snapshot). The
    /// engine registers it with the active-snapshot set so the version GC
    /// watermark cannot advance past it; commit/abort release it.
    pub snapshot_ts: Option<u64>,
}

impl Txn {
    /// Create a fresh active transaction.
    pub fn new(id: TxnId) -> Txn {
        Txn { id, ..Txn::default() }
    }

    /// Record the current undo position as a savepoint.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint(self.undo.len())
    }

    /// Undo records to replay (newest first) to return to `sp`, draining
    /// them from the chain.
    pub fn drain_to_savepoint(&mut self, sp: Savepoint) -> Vec<UndoOp> {
        let mut tail: Vec<UndoOp> = self.undo.split_off(sp.0);
        tail.reverse();
        tail
    }

    /// Drain the entire undo chain (newest first) for a full rollback.
    pub fn drain_all(&mut self) -> Vec<UndoOp> {
        let mut all = std::mem::take(&mut self.undo);
        all.reverse();
        all
    }

    /// Assert the transaction can still perform forward work.
    pub fn check_active(&self) -> crate::error::DbResult<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(crate::error::DbError::TxnState(format!(
                "{} is {:?}, not active",
                self.id, self.state
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savepoint_drains_only_tail() {
        let mut t = Txn::new(TxnId(1));
        t.undo.push((TableId(1), 1));
        let sp = t.savepoint();
        t.undo.push((TableId(1), 2));
        t.undo.push((TableId(1), 3));
        let tail = t.drain_to_savepoint(sp);
        assert_eq!(tail.len(), 2);
        // Newest first.
        assert_eq!(tail[0], (TableId(1), 3));
        assert_eq!(t.undo.len(), 1);
    }

    #[test]
    fn drain_all_reverses() {
        let mut t = Txn::new(TxnId(9));
        for i in 0..4 {
            t.undo.push((TableId(1), i));
        }
        let all = t.drain_all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], (TableId(1), 3));
        assert!(t.undo.is_empty());
    }

    #[test]
    fn check_active_rejects_terminal_states() {
        let mut t = Txn::new(TxnId(2));
        assert!(t.check_active().is_ok());
        t.state = TxnState::Aborted;
        assert!(t.check_active().is_err());
    }
}
