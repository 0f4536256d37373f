//! Transaction handles, undo records, and statement savepoints.
//!
//! The engine uses strict two-phase locking with in-place updates: forward
//! operations mutate the heap/indexes directly and push a logical undo
//! record. Rollback (full or to a savepoint) replays the undo chain in
//! reverse. Locks are released only at commit/abort — never at statement
//! rollback — matching DB2 semantics the paper's savepoint discussion
//! (§3.2) depends on.

use crate::schema::TableId;
use crate::value::Row;

/// Transaction identifier, unique and monotonically increasing per database.
///
/// Monotonicity matters: DLFM stores host transaction ids in its metadata
/// and the paper calls the monotonic property "absolutely essential" (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One logical undo record.
#[allow(missing_docs)] // payload fields are self-describing
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// Undo an insert by deleting the row again.
    Insert { table: TableId, rowid: u64 },
    /// Undo a delete by restoring the row at the same rowid.
    Delete { table: TableId, rowid: u64, row: Row },
    /// Undo an update by restoring the old image.
    Update { table: TableId, rowid: u64, old: Row },
}

impl UndoOp {
    /// The row the record restores.
    pub fn row(&self) -> (TableId, u64) {
        let (UndoOp::Insert { table, rowid }
        | UndoOp::Delete { table, rowid, .. }
        | UndoOp::Update { table, rowid, .. }) = self;
        (*table, *rowid)
    }
}

/// Current state of a transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Forward processing.
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
#[derive(Debug)]
pub struct Txn {
    /// This transaction's id.
    pub id: TxnId,
    /// Lifecycle state.
    pub state: TxnState,
    /// Undo chain, oldest first.
    pub undo: Vec<UndoOp>,
    /// Number of statements executed (diagnostics only).
    pub statements: u64,
    /// MVCC snapshot timestamp, assigned lazily at the first snapshot read
    /// and held for the transaction's lifetime (repeatable snapshot). The
    /// engine registers it with the active-snapshot set so the version GC
    /// watermark cannot advance past it; commit/abort release it.
    pub snapshot_ts: Option<u64>,
    /// Rows whose version chain this transaction holds dirty (first write
    /// per row), handed to retirement at commit/abort — or at a savepoint
    /// rollback that leaves the row with no write.
    pub mvcc_touched: Vec<(TableId, u64)>,
}

impl Txn {
    /// Create a fresh active transaction.
    pub fn new(id: TxnId) -> Txn {
        Txn {
            id,
            state: TxnState::Active,
            undo: Vec::new(),
            statements: 0,
            snapshot_ts: None,
            mvcc_touched: Vec::new(),
        }
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
        t.undo.push(UndoOp::Insert { table: TableId(1), rowid: 1 });
        let sp = t.savepoint();
        t.undo.push(UndoOp::Insert { table: TableId(1), rowid: 2 });
        t.undo.push(UndoOp::Insert { table: TableId(1), rowid: 3 });
        let tail = t.drain_to_savepoint(sp);
        assert_eq!(tail.len(), 2);
        // Newest first.
        match &tail[0] {
            UndoOp::Insert { rowid, .. } => assert_eq!(*rowid, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.undo.len(), 1);
    }

    #[test]
    fn drain_all_reverses() {
        let mut t = Txn::new(TxnId(9));
        for i in 0..4 {
            t.undo.push(UndoOp::Insert { table: TableId(1), rowid: i });
        }
        let all = t.drain_all();
        assert_eq!(all.len(), 4);
        match &all[0] {
            UndoOp::Insert { rowid, .. } => assert_eq!(*rowid, 3),
            other => panic!("unexpected {other:?}"),
        }
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
