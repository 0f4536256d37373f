//! Lazy-commit tests.
//!
//! The contract under test: `commit_lazy()` makes a transaction visible
//! and frees its locks without forcing the log; its COMMIT record hardens
//! with the next force anyone performs, so it can be lost only together
//! with everything appended after it — atomically, and never while a later
//! forced commit survives.

use minidb::{Database, DbConfig, Session, Value};

fn db_with(group_commit: bool) -> Database {
    let db = Database::new(DbConfig { group_commit, ..DbConfig::for_tests() });
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    for id in 1..=3 {
        s.exec_params("INSERT INTO t (id, v) VALUES (?, 0)", &[Value::Int(id)]).unwrap();
    }
    db
}

/// `(id, v)` of every row, by id.
fn rows(db: &Database) -> Vec<(i64, i64)> {
    Session::new(db)
        .query("SELECT id, v FROM t ORDER BY id", &[])
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect()
}

/// One lazy transaction touching several rows: update two, delete one,
/// insert one — enough for a partial replay to show.
fn lazy_multi_row_txn(db: &Database) {
    let mut s = Session::new(db);
    s.begin().unwrap();
    s.exec("UPDATE t SET v = 7 WHERE id = 1").unwrap();
    s.exec("UPDATE t SET v = 7 WHERE id = 2").unwrap();
    s.exec("DELETE FROM t WHERE id = 3").unwrap();
    s.exec("INSERT INTO t (id, v) VALUES (4, 7)").unwrap();
    s.commit_lazy().unwrap();
}

const BEFORE: [(i64, i64); 3] = [(1, 0), (2, 0), (3, 0)];
const AFTER: [(i64, i64); 3] = [(1, 7), (2, 7), (4, 7)];

#[test]
fn lazy_commit_is_visible_frees_locks_and_forces_nothing() {
    for group_commit in [true, false] {
        let db = db_with(group_commit);
        let (forces, commits) = (db.wal_forces_total(), db.wal_commits_total());
        lazy_multi_row_txn(&db);
        assert_eq!(rows(&db), AFTER);
        assert_eq!(db.wal_forces_total(), forces, "a lazy commit performs no force");
        assert_eq!(db.wal_commits_total(), commits + 1, "it still appends a COMMIT record");
        assert_eq!(db.wal_lazy_commits_total(), 1);
        assert!(db.metrics_text().contains("minidb_wal_lazy_commits_total 1"));
        // Its row locks are free at once: another writer gets the same rows
        // without waiting out the (250 ms) lock timeout.
        let started = std::time::Instant::now();
        let mut other = Session::new(&db);
        other.begin().unwrap();
        other.exec("UPDATE t SET v = 8 WHERE id = 1").unwrap();
        other.exec("INSERT INTO t (id, v) VALUES (3, 8)").unwrap();
        other.rollback();
        assert!(started.elapsed() < std::time::Duration::from_millis(200));
        // A read-only lazy commit writes nothing at all.
        let mut reader = Session::new(&db);
        reader.begin().unwrap();
        reader.query("SELECT * FROM t", &[]).unwrap();
        reader.commit_lazy().unwrap();
        assert_eq!(db.wal_commits_total(), commits + 1);
        assert_eq!(db.wal_lazy_commits_total(), 1);
    }
}

#[test]
fn crash_with_no_later_force_loses_a_lazy_commit_atomically() {
    for group_commit in [true, false] {
        let db = db_with(group_commit);
        lazy_multi_row_txn(&db);
        assert!(db.crash() > 0, "the unforced tail is lost");
        db.restart().unwrap();
        // The pre-image, whole: no updated, deleted or inserted row of the
        // lost transaction shows, through heap or index.
        assert_eq!(rows(&db), BEFORE);
        let mut s = Session::new(&db);
        assert!(s.query_opt("SELECT * FROM t WHERE id = 4", &[]).unwrap().is_none());
        assert_eq!(s.query_int("SELECT v FROM t WHERE id = 3", &[]).unwrap(), 0);
        // Nothing of it is left locked either.
        s.exec("INSERT INTO t (id, v) VALUES (4, 1)").unwrap();
    }
}

#[test]
fn a_later_forced_commit_hardens_earlier_lazy_commits() {
    for group_commit in [true, false] {
        let db = db_with(group_commit);
        lazy_multi_row_txn(&db);
        let forces = db.wal_forces_total();
        // Another session, an unrelated row, a forced commit.
        let mut other = Session::new(&db);
        other.begin().unwrap();
        other.exec("INSERT INTO t (id, v) VALUES (9, 9)").unwrap();
        other.commit().unwrap();
        assert_eq!(db.wal_forces_total(), forces + 1, "one force hardened both");
        assert_eq!(db.crash(), 0);
        db.restart().unwrap();
        assert_eq!(rows(&db), [&AFTER[..], &[(9, 9)]].concat());
    }
}

/// A crash rewinds the log, so LSNs are reused: a forced commit that lands
/// on the LSN a lost lazy commit once owned must harden *its own*
/// transaction only, and a lazy commit made after the restart is judged by
/// its own epoch — lost again if nothing forces it, kept if something does.
#[test]
fn verdicts_stay_exact_across_crash_epochs_and_lsn_reuse() {
    for group_commit in [true, false] {
        let db = db_with(group_commit);
        // Epoch 0: a lazy commit, lost.
        lazy_multi_row_txn(&db);
        db.crash();
        db.restart().unwrap();
        // Epoch 1: a forced commit regrows the log over the same LSNs.
        let mut s = Session::new(&db);
        s.exec("UPDATE t SET v = 5 WHERE id = 2").unwrap();
        // ... followed by a lazy one that nothing forces.
        s.begin().unwrap();
        s.exec("UPDATE t SET v = 6 WHERE id = 3").unwrap();
        s.commit_lazy().unwrap();
        drop(s);
        db.crash();
        db.restart().unwrap();
        assert_eq!(rows(&db), [(1, 0), (2, 5), (3, 0)], "forced kept, both lazy ones lost");
        // Epoch 2: lazy, then forced by a later commit — both survive.
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec("UPDATE t SET v = 6 WHERE id = 3").unwrap();
        s.commit_lazy().unwrap();
        s.exec("UPDATE t SET v = 1 WHERE id = 1").unwrap();
        drop(s);
        assert_eq!(db.crash(), 0);
        db.restart().unwrap();
        assert_eq!(rows(&db), [(1, 1), (2, 5), (3, 6)]);
    }
}

/// Lazy commits by many sessions are all covered by one later force, and
/// the batch histogram counts them as hardened by it.
#[test]
fn one_force_covers_every_lazy_commit_before_it() {
    let db = db_with(true);
    let (forces, batches) = (db.wal_forces_total(), db.wal_force_batch_hist().sum());
    for id in 10..20 {
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec_params("INSERT INTO t (id, v) VALUES (?, 1)", &[Value::Int(id)]).unwrap();
        s.commit_lazy().unwrap();
    }
    assert_eq!(db.wal_forces_total(), forces);
    Session::new(&db).exec("INSERT INTO t (id, v) VALUES (20, 1)").unwrap();
    assert_eq!(db.wal_forces_total(), forces + 1);
    assert_eq!(db.wal_force_batch_hist().sum(), batches + 11);
    assert_eq!(db.crash(), 0);
    db.restart().unwrap();
    assert_eq!(rows(&db).len(), 3 + 11);
}
