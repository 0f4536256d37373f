//! A commit whose COMMIT record cannot be appended (fault point
//! `minidb.wal.append`) must not strand the transaction: by then the
//! session has given the `Txn` up, so the commit itself has to undo the
//! changes and free the locks. Explicit, autocommit and lazy commits share
//! the path. A savepoint rollback whose compensation record cannot be
//! appended takes the whole transaction with it. Undo, publication and
//! slot release have no fault point: `minidb.storage.write` fails only
//! forward writes.
//!
//! The fault registry is process-global, so these tests live in their own
//! binary and serialise on [`FAULTS`].

use std::sync::Mutex;
use std::time::{Duration, Instant};

use minidb::{Database, DbConfig, DbError, Session};
use obs::fault::{self, Trigger};

static FAULTS: Mutex<()> = Mutex::new(());

fn fresh() -> Database {
    let db = Database::new(DbConfig::for_tests());
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (1, 0)").unwrap();
    db
}

fn assert_injected(r: Result<(), DbError>) {
    match r {
        Err(DbError::Internal(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected the injected append error, got {other:?}"),
    }
}

/// The failed transaction updated row 1 and inserted row 2: neither may
/// show, and a second writer must get both rows at once — before the fix it
/// sat out the 250 ms lock timeout and failed with `LockTimeout`.
fn assert_rolled_back_and_unlocked(db: &Database) {
    let started = Instant::now();
    let mut other = Session::new(db);
    assert_eq!(other.query_int("SELECT v FROM t WHERE id = 1", &[]).unwrap(), 0);
    assert_eq!(other.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    other.begin().unwrap();
    other.exec("UPDATE t SET v = 2 WHERE id = 1").unwrap();
    other.exec("INSERT INTO t (id, v) VALUES (2, 2)").unwrap();
    other.commit().unwrap();
    assert!(started.elapsed() < Duration::from_millis(200), "second writer had to wait");
    // The rollback is what recovery sees too.
    db.crash();
    db.restart().unwrap();
    let mut s = Session::new(db);
    assert_eq!(s.query_int("SELECT v FROM t WHERE id = 1", &[]).unwrap(), 2);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
}

fn explicit_txn_failing_at_commit(commit: impl FnOnce(&mut Session) -> Result<(), DbError>) {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (2, 1)").unwrap();
    // The next append is the COMMIT record.
    let guard = fault::install_guarded(1, &[("minidb.wal.append", Trigger::Nth(1))]);
    assert_injected(commit(&mut s));
    drop(guard);
    assert!(!s.in_txn());
    assert_rolled_back_and_unlocked(&db);
}

#[test]
fn explicit_commit_rolls_back_when_the_commit_record_cannot_be_appended() {
    explicit_txn_failing_at_commit(Session::commit);
}

#[test]
fn lazy_commit_rolls_back_when_the_commit_record_cannot_be_appended() {
    explicit_txn_failing_at_commit(Session::commit_lazy);
}

#[test]
fn autocommit_rolls_back_when_the_commit_record_cannot_be_appended() {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    // An autocommit UPDATE of one row appends the Update record, then the
    // COMMIT record: fail the second.
    let guard = fault::install_guarded(1, &[("minidb.wal.append", Trigger::Nth(2))]);
    assert_injected(s.exec("UPDATE t SET v = 1 WHERE id = 1").map(drop));
    drop(guard);
    assert!(!s.in_txn());
    assert_rolled_back_and_unlocked(&db);
}

#[test]
fn a_refused_compensation_record_rolls_the_transaction_back_whole() {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    let sp = s.savepoint().unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (2, 1)").unwrap();
    // The next append is the compensation record of the insert.
    let guard = fault::install_guarded(1, &[("minidb.wal.append", Trigger::Nth(1))]);
    let err = s.rollback_to(sp).unwrap_err();
    drop(guard);
    assert!(matches!(&err, DbError::RolledBack(m) if m.contains("injected")), "got {err:?}");
    assert!(err.is_rollback_forced(), "the error hides that the transaction is gone");
    assert!(!s.in_txn(), "the session kept a transaction minidb rolled back");
    assert_rolled_back_and_unlocked(&db);
}

/// A statement that fails part-way in an explicit transaction is undone
/// back to its own savepoint; should the log refuse that undo, the whole
/// transaction goes, and the error says so.
#[test]
fn a_failed_statement_whose_undo_the_log_refuses_costs_the_transaction() {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (2, 1)").unwrap();
    // Row 1 moves to id 3 (one Update record) before row 2 clashes with
    // it; the statement's undo appends a compensation record next.
    let guard = fault::install_guarded(1, &[("minidb.wal.append", Trigger::Nth(2))]);
    let err = s.exec("UPDATE t SET id = 3 WHERE id <= 2").unwrap_err();
    drop(guard);
    assert!(matches!(&err, DbError::RolledBack(m) if m.contains("injected")), "got {err:?}");
    assert!(!s.in_txn(), "the session kept a transaction minidb rolled back");
    assert_rolled_back_and_unlocked(&db);
}

/// `v` of row 1 through a locking read and a snapshot read, and the
/// version chains left.
fn v_locked_snapshot_chains(db: &Database) -> (i64, i64, usize) {
    let mut s = Session::new(db);
    let locked = s.query_int("SELECT v FROM t WHERE id = 1 FOR SHARE", &[]).unwrap();
    let snapshot = s.query_int("SELECT v FROM t WHERE id = 1", &[]).unwrap();
    (locked, snapshot, db.mvcc_version_chains())
}

#[test]
fn a_rollback_under_a_storage_fault_undoes_every_write() {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 99 WHERE id = 1").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (2, 99)").unwrap();
    let guard = fault::install_guarded(1, &[("minidb.storage.write", Trigger::Always)]);
    s.rollback();
    drop(guard);
    assert_eq!(v_locked_snapshot_chains(&db), (0, 0, 0));
    assert_rolled_back_and_unlocked(&db);
}

#[test]
fn a_savepoint_rollback_and_commit_under_a_storage_fault_complete() {
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 7 WHERE id = 1").unwrap();
    let sp = s.savepoint().unwrap();
    s.exec("UPDATE t SET v = 99 WHERE id = 1").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (2, 99)").unwrap();
    let guard = fault::install_guarded(1, &[("minidb.storage.write", Trigger::Always)]);
    s.rollback_to(sp).unwrap();
    s.commit().unwrap();
    drop(guard);
    assert_eq!(v_locked_snapshot_chains(&db), (7, 7, 0));
    let mut other = Session::new(&db);
    assert_eq!(other.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    // The slot the undone insert emptied is free again, and its key.
    other.exec("INSERT INTO t (id, v) VALUES (2, 2)").unwrap();
    assert_eq!(other.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
}
