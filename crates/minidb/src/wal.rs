//! Write-ahead log with a bounded active window, over the shared log core
//! ([`crate::log`]: group commit, crash epochs, forces).
//!
//! The log provides the two properties DLFM leans on (paper §1, §3.3):
//! *persistence* (a forced record survives a crash) and *recoverability*
//! (replaying committed work reconstructs the database). It also models the
//! failure mode of §4: a long-running transaction pins the active log
//! window; once the window exceeds `capacity` further writes fail with
//! `LogFull`, which is why DLFM chunks utility transactions into periodic
//! local commits. A crash forgets the in-flight transactions, so their
//! records stop pinning the window.
//!
//! Not every commit needs its own force. A *lazy* commit appends its COMMIT
//! record and returns; the record hardens with the next force anyone
//! performs. Because the log is sequential and a force covers every record
//! appended before it, a lazy commit can be lost only together with
//! everything appended after it — never while a later forced commit
//! survives. [`Wal::note_lazy_commit`] only counts them; the mechanism is
//! simply *not* calling `force_up_to`. A checkpoint images the committed
//! state, and redo starts at [`Wal::redo_lsn`] as of that image instead of
//! at the beginning. Records carry after-images only.
//!
//! There are no BEGIN or ABORT records. Redo replays only transactions
//! with a COMMIT record, so a full rollback logs nothing: its transaction
//! is a loser whose records redo never reads, and it only leaves the
//! active window ([`Wal::settled`]). A savepoint rollback's undo is logged
//! as compensation records ([`Wal::compensate`]), because the transaction
//! may still commit and redo must not replay what it undid.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use obs::journal::JournalKind;
use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::log::{Appended, Log, Lsn, Record};
use crate::schema::{IndexSchema, TableSchema};
use crate::txn::TxnId;
use crate::value::Row;

/// Payload of one log record.
#[allow(missing_docs)] // payload fields are self-describing
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LogPayload {
    /// Row inserted: its image.
    Insert { table: u32, rowid: u64, row: Row },
    /// Row deleted. Redo finds the image it removes in the heap.
    Delete { table: u32, rowid: u64 },
    /// Row updated in place: the after-image. Redo finds the before-image
    /// in the heap it overwrites.
    Update { table: u32, rowid: u64, new: Row },
    /// DDL: table created.
    CreateTable { schema: TableSchema },
    /// DDL: index created.
    CreateIndex { schema: IndexSchema },
    /// DDL: table dropped (with its indexes).
    DropTable { table: u32 },
    /// Transaction committed (forced).
    Commit,
}

/// One log record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRecord {
    /// Sequence number, dense from 1.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: u64,
    /// What happened.
    pub payload: LogPayload,
}

impl Record for LogRecord {
    fn is_commit(&self) -> bool {
        matches!(self.payload, LogPayload::Commit)
    }
}

/// First LSN written by each transaction redo may still need, and whether
/// its COMMIT is appended: a committed transaction stays until the engine
/// has published its writes ([`Wal::settled`]), because until then a
/// checkpoint image holds its rows' pre-images.
type Active = HashMap<u64, (Lsn, bool)>;

/// Size of the active window: records that cannot be reclaimed because an
/// in-flight transaction might still need them.
fn window(active: &Active, next_lsn: Lsn) -> usize {
    let oldest = active.values().filter(|(_, committed)| !committed).map(|(lsn, _)| *lsn).min();
    oldest.map_or(0, |oldest| next_lsn.saturating_sub(oldest) as usize)
}

/// The write-ahead log: the log core plus the active window. Everything
/// not defined here — forces, crash, counters — is the core's, reached
/// through `Deref`.
pub struct Wal {
    log: Log<LogRecord, Active>,
    capacity: usize,
    /// Commit records whose committer did not wait for a force.
    lazy_commits: AtomicU64,
}

impl Deref for Wal {
    type Target = Log<LogRecord, Active>;

    fn deref(&self) -> &Self::Target {
        &self.log
    }
}

impl Wal {
    /// New empty log with the given active-window capacity (in records).
    /// Group commit starts enabled.
    pub fn new(capacity: usize, force_latency: Duration) -> Wal {
        Wal {
            log: Log::new(obs::Layer::Minidb, JournalKind::WalForce, force_latency),
            capacity,
            lazy_commits: AtomicU64::new(0),
        }
    }

    /// Append a record for `txn`. Fails with `LogFull` when the active
    /// window would exceed capacity; commit records are always admitted,
    /// so the window can drain.
    pub fn append(&self, txn: TxnId, payload: LogPayload) -> DbResult<Appended> {
        self.append_as(txn, payload, false)
    }

    /// Append a compensation record: the image a savepoint rollback put
    /// back. Admitted past the window, as COMMIT is: refusing it frees
    /// nothing, and redo without it would replay the write it undid.
    pub fn compensate(&self, txn: TxnId, payload: LogPayload) -> DbResult<Appended> {
        self.append_as(txn, payload, true)
    }

    fn append_as(&self, txn: TxnId, payload: LogPayload, admit: bool) -> DbResult<Appended> {
        if obs::fault::fire("minidb.wal.append") {
            return Err(DbError::Internal("injected: wal append I/O error".into()));
        }
        let capacity = self.capacity;
        self.log.append_with(|lsn, active| {
            if let LogPayload::Commit = payload {
                if let Some(entry) = active.get_mut(&txn.0) {
                    entry.1 = true;
                }
            } else {
                let pinned = window(active, lsn);
                if pinned >= capacity && !admit {
                    return Err(DbError::LogFull { pinned, capacity });
                }
                active.entry(txn.0).or_insert((lsn, false));
            }
            Ok(LogRecord { lsn, txn: txn.0, payload })
        })
    }

    /// Redo no longer needs `txn`'s records: its commit is published (an
    /// image holds its writes), all its writes are undone, or it rolled
    /// back (no COMMIT record: redo skips it).
    pub fn settled(&self, txn: TxnId) {
        self.log.update(|active| active.remove(&txn.0));
    }

    /// Where redo over an image of the committed state taken now must
    /// start: the first LSN of the oldest transaction not yet settled, or
    /// the next LSN when there is none.
    pub fn redo_lsn(&self) -> Lsn {
        self.log.read(|records, active| {
            active.values().map(|(lsn, _)| *lsn).min().unwrap_or(records.len() as Lsn + 1)
        })
    }

    /// Count one commit record whose committer returned without forcing.
    pub fn note_lazy_commit(&self) {
        self.lazy_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Commit records appended by lazy commits (a subset of
    /// `commits_total`).
    pub fn lazy_commits_total(&self) -> u64 {
        self.lazy_commits.load(Ordering::Relaxed)
    }

    /// Current size of the active (pinned) window, in records.
    pub fn active_window(&self) -> usize {
        self.log.read(|records, active| window(active, records.len() as Lsn + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(cap: usize) -> Wal {
        Wal::new(cap, Duration::ZERO)
    }

    /// A transaction's first write.
    fn ins() -> LogPayload {
        LogPayload::Insert { table: 1, rowid: 0, row: vec![] }
    }

    #[test]
    fn lsns_are_dense_and_monotonic() {
        let w = wal(100);
        let a = w.append(TxnId(1), ins()).unwrap();
        let b = w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert_eq!(b.lsn, a.lsn + 1);
        assert_eq!(w.last_lsn(), b.lsn);
    }

    #[test]
    fn log_full_when_one_txn_pins_window() {
        let w = wal(5);
        w.append(TxnId(7), ins()).unwrap();
        for i in 0..4 {
            w.append(TxnId(7), LogPayload::Insert { table: 1, rowid: i, row: vec![] }).unwrap();
        }
        let err = w
            .append(TxnId(7), LogPayload::Insert { table: 1, rowid: 99, row: vec![] })
            .unwrap_err();
        assert!(matches!(err, DbError::LogFull { .. }));
        // So is the compensation record of a savepoint rollback ...
        w.compensate(TxnId(7), LogPayload::Delete { table: 1, rowid: 3 }).unwrap();
        // ... and commit, so the window can drain.
        w.append(TxnId(7), LogPayload::Commit).unwrap();
        assert_eq!(w.active_window(), 0);
        // And new transactions can write again.
        w.append(TxnId(8), ins()).unwrap();
    }

    /// A transaction in flight at a crash is gone with it: its records no
    /// longer pin the window, so new transactions can write at once.
    #[test]
    fn crash_unpins_the_active_window() {
        let w = wal(5);
        for i in 0..5 {
            w.append(TxnId(7), LogPayload::Insert { table: 1, rowid: i, row: vec![] }).unwrap();
        }
        assert!(matches!(w.append(TxnId(8), ins()), Err(DbError::LogFull { .. })));
        w.crash();
        assert_eq!(w.active_window(), 0);
        w.append(TxnId(8), ins()).unwrap();
    }

    #[test]
    fn chunked_commits_bound_the_window() {
        let w = wal(10);
        // 100 records in chunks of 5 never trip LogFull.
        for chunk in 0..20u64 {
            let t = TxnId(chunk + 1);
            w.append(t, ins()).unwrap();
            for i in 0..5 {
                w.append(t, LogPayload::Insert { table: 1, rowid: chunk * 5 + i, row: vec![] })
                    .unwrap();
            }
            w.append(t, LogPayload::Commit).unwrap();
        }
        assert_eq!(w.active_window(), 0);
    }

    #[test]
    fn crash_discards_unforced_tail() {
        let w = wal(100);
        w.append(TxnId(1), ins()).unwrap();
        w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert!(w.force());
        w.append(TxnId(2), ins()).unwrap();
        w.append(TxnId(2), LogPayload::Insert { table: 1, rowid: 0, row: vec![] }).unwrap();
        let lost = w.crash();
        assert_eq!(lost, 2);
        assert_eq!(w.last_lsn(), 2);
        let recs = w.records_from(0);
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[1].payload, LogPayload::Commit));
    }

    #[test]
    fn multiple_active_txns_pin_oldest() {
        let w = wal(100);
        w.append(TxnId(1), ins()).unwrap(); // lsn 1
        w.append(TxnId(2), ins()).unwrap(); // lsn 2
        w.append(TxnId(2), LogPayload::Commit).unwrap(); // lsn 3
                                                         // Window measured from txn1's first record.
        assert_eq!(w.active_window(), 3);
        w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert_eq!(w.active_window(), 0);
    }

    #[test]
    fn force_up_to_advances_durability_and_counts() {
        let w = wal(100);
        w.append(TxnId(1), ins()).unwrap();
        let c1 = w.append(TxnId(1), LogPayload::Commit).unwrap();
        w.append(TxnId(2), ins()).unwrap();
        let c2 = w.append(TxnId(2), LogPayload::Commit).unwrap();
        // One force covers both commits (they were both appended already).
        assert!(w.force_up_to(c2));
        assert!(w.durable_lsn() >= c1.lsn);
        assert_eq!(w.forces_total(), 1);
        assert_eq!(w.commits_total(), 2);
        assert_eq!(w.batch_hist().count(), 1);
        assert_eq!(w.batch_hist().max(), 2);
        // Already durable: no new force.
        assert!(w.force_up_to(c1));
        assert_eq!(w.forces_total(), 1);
    }

    /// A crash landing between append and force must report the commit as
    /// lost, even after reused LSNs regrow past it and become durable.
    #[test]
    fn crash_between_append_and_force_reports_loss() {
        for grouped in [true, false] {
            let w = wal(100);
            w.set_group_commit(grouped);
            w.append(TxnId(1), ins()).unwrap();
            let rec = w.append(TxnId(1), LogPayload::Commit).unwrap();
            w.crash();
            w.append(TxnId(2), ins()).unwrap();
            let other = w.append(TxnId(2), LogPayload::Commit).unwrap();
            w.append(TxnId(3), ins()).unwrap();
            assert!(w.force_up_to(other));
            assert!(w.durable_lsn() >= rec.lsn);
            assert!(!w.force_up_to(rec), "lost record acknowledged as durable");
        }
    }

    /// The mirror case: a commit that became durable before the crash must
    /// still be acknowledged afterwards.
    #[test]
    fn durable_record_acked_across_a_crash() {
        for grouped in [true, false] {
            let w = wal(100);
            w.set_group_commit(grouped);
            w.append(TxnId(1), ins()).unwrap();
            let rec = w.append(TxnId(1), LogPayload::Commit).unwrap();
            assert!(w.force());
            w.crash();
            assert!(w.force_up_to(rec), "durable record reported as lost");
        }
    }
}
