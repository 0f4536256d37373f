//! Snapshot-isolation tests for the MVCC read path: visibility rules,
//! snapshot stability, version GC, and the deferred index-entry removals
//! that keep old snapshots probe-able. A transaction end retires the
//! history it leaves at once when no other snapshot is open, and queues it
//! behind the watermark otherwise.

use std::thread;

use minidb::{Database, DbConfig, Session, Value};

fn db() -> Database {
    let config = DbConfig::for_tests();
    assert!(config.mvcc, "MVCC must be the default");
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, a VARCHAR, b BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("CREATE INDEX ix_b ON t (b)").unwrap();
    db.set_table_stats("t", 1_000_000).unwrap();
    db.set_index_stats("ix_id", 1_000_000).unwrap();
    db.set_index_stats("ix_b", 1_000_000).unwrap();
    db
}

#[test]
fn no_dirty_reads_for_update_insert_delete() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'old', 10)").unwrap();

    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("UPDATE t SET a = 'new' WHERE id = 1").unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (2, 'ins', 20)").unwrap();

    // A concurrent reader sees only the committed state — without blocking.
    let db2 = db.clone();
    let rows = thread::spawn(move || {
        let mut r = Session::new(&db2);
        r.query("SELECT id, a FROM t", &[]).unwrap()
    })
    .join()
    .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::str("old"));

    w.rollback();
    let mut r = Session::new(&db);
    assert_eq!(r.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
}

#[test]
fn snapshot_is_repeatable_within_a_transaction() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'v1', 10)").unwrap();

    let mut r = Session::new(&db);
    r.begin().unwrap();
    // First read pins the snapshot.
    assert_eq!(r.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("v1"));

    // Another transaction commits a change mid-flight.
    let mut w = Session::new(&db);
    w.exec("UPDATE t SET a = 'v2' WHERE id = 1").unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (2, 'x', 20)").unwrap();

    // The open transaction keeps seeing its snapshot: old value, old count,
    // through both the index probe and the full scan.
    assert_eq!(r.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("v1"));
    assert_eq!(r.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    r.commit().unwrap();

    // A fresh snapshot sees the committed writes.
    let mut r2 = Session::new(&db);
    assert_eq!(r2.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("v2"));
    assert_eq!(r2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
}

#[test]
fn writer_commit_invisible_to_older_snapshot() {
    let db = db();
    let mut s = Session::new(&db);
    for i in 0..5 {
        s.exec_params(
            "INSERT INTO t (id, a, b) VALUES (?, 'seed', ?)",
            &[Value::Int(i), Value::Int(i * 10)],
        )
        .unwrap();
    }

    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 5);

    // A writer deletes a row and commits while the old snapshot is open.
    let mut w = Session::new(&db);
    w.exec("DELETE FROM t WHERE id = 3").unwrap();

    // New sessions see 4 rows; the older snapshot still sees all 5 — the
    // deleted row is resolved from its version chain, and the stale index
    // entry (deferred removal) still routes the probe.
    let mut fresh = Session::new(&db);
    assert_eq!(fresh.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 4);
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 5);
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t WHERE id = 3", &[]).unwrap(), 1);
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t WHERE b = 30", &[]).unwrap(), 1);
    old.commit().unwrap();
}

#[test]
fn own_writes_are_visible_to_the_writing_transaction() {
    let db = db();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'mine', 10)").unwrap();
    assert_eq!(s.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("mine"));
    s.exec("UPDATE t SET a = 'mine2' WHERE id = 1").unwrap();
    assert_eq!(s.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("mine2"));
    s.commit().unwrap();
}

#[test]
fn gc_reclaims_versions_and_stale_index_entries() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();

    // Churn one row under an open snapshot so its chain and the ix_b stale
    // entries accumulate.
    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 10);
    for i in 0..20 {
        s.exec_params("UPDATE t SET b = ? WHERE id = 1", &[Value::Int(100 + i)]).unwrap();
    }
    assert!(db.mvcc_version_chains() >= 1);
    assert!(db.mvcc_pending_unindex() >= 20, "stale ix_b keys queue for deferred removal");
    old.commit().unwrap();

    // No snapshots are active, so GC reclaims everything behind commit_ts.
    let watermark = db.mvcc_gc();
    assert_eq!(watermark, db.mvcc_commit_ts());
    assert_eq!(db.mvcc_pending_unindex(), 0, "ripe tombstones applied");
    assert_eq!(db.mvcc_version_chains(), 0, "fully-superseded chains dropped");
    assert_eq!(db.mvcc_watermark(), watermark);

    // The surviving state is exactly the latest image.
    assert_eq!(s.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 119);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE b = 119", &[]).unwrap(), 1);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE b = 100", &[]).unwrap(), 0);
}

#[test]
fn gc_waits_for_active_snapshots() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();

    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 10);
    let pinned = db.mvcc_commit_ts();

    s.exec("UPDATE t SET b = 20 WHERE id = 1").unwrap();
    s.exec("UPDATE t SET b = 30 WHERE id = 1").unwrap();

    // GC cannot pass the active snapshot; the old version survives.
    let watermark = db.mvcc_gc();
    assert!(watermark <= pinned, "watermark {watermark} must not pass snapshot {pinned}");
    assert_eq!(old.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 10);
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t WHERE b = 10", &[]).unwrap(), 1);
    old.commit().unwrap();

    // Snapshot released: now GC reclaims the history.
    db.mvcc_gc();
    assert_eq!(db.mvcc_active_snapshots(), 0);
    assert_eq!(db.mvcc_version_chains(), 0);
    assert_eq!(s.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 30);
}

#[test]
fn unique_index_tolerates_stale_entries() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();

    // Move the row to a new unique key; the old ix_id entry lingers until
    // GC but must not count as a duplicate (heap-validated check).
    s.exec("UPDATE t SET id = 2 WHERE id = 1").unwrap();
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'y', 20)").unwrap();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);

    // A real duplicate is still rejected.
    let err = s.exec("INSERT INTO t (id, a, b) VALUES (2, 'z', 30)");
    assert!(err.is_err(), "live duplicate key must still violate ix_id");
}

#[test]
fn for_share_blocks_on_uncommitted_writes() {
    // FOR SHARE opts a read back into 2PL: it must conflict with an
    // in-flight writer instead of resolving the snapshot.
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();

    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("UPDATE t SET a = 'y' WHERE id = 1").unwrap();

    let db2 = db.clone();
    let locked = thread::spawn(move || {
        let mut r = Session::new(&db2);
        r.query("SELECT * FROM t WHERE id = 1 FOR SHARE", &[])
    })
    .join()
    .unwrap();
    assert!(locked.is_err(), "FOR SHARE must hit the writer's lock: {locked:?}");

    // The plain read of the same row is served from the snapshot.
    let mut r = Session::new(&db);
    assert_eq!(r.query("SELECT a FROM t WHERE id = 1", &[]).unwrap()[0][0], Value::str("x"));
    w.commit().unwrap();
}

#[test]
fn snapshot_reads_take_no_row_locks() {
    let db = db();
    let mut s = Session::new(&db);
    for i in 0..10 {
        s.exec_params(
            "INSERT INTO t (id, a, b) VALUES (?, 'r', ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }

    let mut r = Session::new(&db);
    r.begin().unwrap();
    assert_eq!(r.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 10);
    assert_eq!(r.query_int("SELECT COUNT(*) FROM t WHERE id = 5", &[]).unwrap(), 1);

    // While the reader's transaction is still open, a writer can update any
    // row — the reader holds no row/key locks that could block it.
    let mut w = Session::new(&db);
    w.exec("UPDATE t SET b = 99 WHERE id = 5").unwrap();
    w.exec("DELETE FROM t WHERE id = 6").unwrap();

    // And the reader's snapshot is unperturbed.
    assert_eq!(r.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 10);
    assert_eq!(r.query_int("SELECT b FROM t WHERE id = 5", &[]).unwrap(), 5);
    r.commit().unwrap();
}

#[test]
fn mvcc_off_falls_back_to_locking_reads() {
    let mut config = DbConfig::for_tests();
    config.mvcc = false;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, a VARCHAR)").unwrap();
    s.exec("INSERT INTO t (id, a) VALUES (1, 'x')").unwrap();

    let before = db.mvcc_reads_total();
    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("UPDATE t SET a = 'y' WHERE id = 1").unwrap();

    let db2 = db.clone();
    let blocked = thread::spawn(move || {
        let mut r = Session::new(&db2);
        r.query("SELECT * FROM t WHERE id = 1", &[])
    })
    .join()
    .unwrap();
    assert!(blocked.is_err(), "2PL arm: plain reads block on writers: {blocked:?}");
    assert_eq!(db.mvcc_reads_total(), before, "no snapshot reads on the 2PL arm");
    w.rollback();
}

/// Queued history: rows with a version chain plus stale index entries.
fn backlog(db: &Database) -> usize {
    db.mvcc_version_chains() + db.mvcc_pending_unindex()
}

#[test]
fn a_commit_with_no_other_snapshot_retires_its_history() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();
    s.exec("INSERT INTO t (id, a, b) VALUES (2, 'y', 20)").unwrap();
    s.exec("UPDATE t SET b = 11 WHERE id = 1").unwrap();
    s.exec("DELETE FROM t WHERE id = 2").unwrap();

    assert_eq!(db.mvcc_pending_unindex(), 0, "no stale key queued");
    assert_eq!(db.mvcc_version_chains(), 0, "no chain left");
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE b = 10", &[]).unwrap(), 0);
    assert_eq!(s.query_int("SELECT id FROM t WHERE b = 11", &[]).unwrap(), 1);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE b = 20", &[]).unwrap(), 0);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 2", &[]).unwrap(), 0);
}

#[test]
fn an_older_snapshot_keeps_the_pre_image_until_it_ends() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();

    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    s.exec("UPDATE t SET b = 20 WHERE id = 1").unwrap();

    // By the old key and by a full scan, the snapshot still finds the
    // pre-image; the new key shows it nothing.
    assert_eq!(old.query_int("SELECT id FROM t WHERE b = 10", &[]).unwrap(), 1);
    assert_eq!(
        old.query("SELECT id, b FROM t", &[]).unwrap(),
        vec![vec![Value::Int(1), Value::Int(10)]]
    );
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t WHERE b = 20", &[]).unwrap(), 0);
    assert_eq!(backlog(&db), 2, "the chain and the stale key wait for the snapshot");
    old.commit().unwrap();

    // The next write's commit retires the backlog with its own history.
    s.exec("UPDATE t SET a = 'z' WHERE id = 1").unwrap();
    assert_eq!(backlog(&db), 0);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE b = 10", &[]).unwrap(), 0);
    assert_eq!(s.query_int("SELECT id FROM t WHERE b = 20", &[]).unwrap(), 1);
}

#[test]
fn each_commit_retires_at_most_twice_its_own_history() {
    let db = db();
    let mut s = Session::new(&db);
    for i in 0..31 {
        s.exec_params(
            "INSERT INTO t (id, a, b) VALUES (?, 'r', ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }
    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 31);
    for i in 1..31 {
        s.exec_params("UPDATE t SET b = b + 100 WHERE id = ?", &[Value::Int(i)]).unwrap();
    }
    assert_eq!(backlog(&db), 60, "30 chains and 30 stale keys");
    old.commit().unwrap();

    // A one-row key move hands over one chain and one stale key: each such
    // commit retires at most twice its undo records plus its chains (4).
    for n in 0..15 {
        let before = backlog(&db);
        s.exec_params("UPDATE t SET b = ? WHERE id = 0", &[Value::Int(1000 + n)]).unwrap();
        let retired = before - backlog(&db);
        assert!((1..=4).contains(&retired), "commit {n} retired {retired} of the backlog");
    }
    assert_eq!(backlog(&db), 0, "gone fifteen commits after the snapshot ended");
}

#[test]
fn a_transactions_own_snapshot_does_not_queue_its_commit() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();
    s.begin().unwrap();
    assert_eq!(s.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 10);
    assert_eq!(db.mvcc_active_snapshots(), 1);
    s.exec("UPDATE t SET b = 20 WHERE id = 1").unwrap();
    s.commit().unwrap();
    assert_eq!(db.mvcc_active_snapshots(), 0);
    assert_eq!(backlog(&db), 0);
}

#[test]
fn rollbacks_leave_no_chain_once_no_snapshot_is_open() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();
    s.exec("INSERT INTO t (id, a, b) VALUES (2, 'y', 20)").unwrap();

    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("UPDATE t SET b = 11 WHERE id = 1").unwrap();
    w.exec("DELETE FROM t WHERE id = 2").unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (3, 'z', 30)").unwrap();
    w.rollback();
    assert_eq!(backlog(&db), 0);

    // A savepoint rollback hands back the rows it leaves with no write.
    w.begin().unwrap();
    w.exec("UPDATE t SET b = 12 WHERE id = 1").unwrap();
    let sp = w.savepoint().unwrap();
    w.exec("UPDATE t SET b = 21 WHERE id = 2").unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (3, 'z', 30)").unwrap();
    w.rollback_to(sp).unwrap();
    assert_eq!(db.mvcc_version_chains(), 1, "only row 1 still carries a write");
    assert_eq!(db.mvcc_pending_unindex(), 0);
    w.commit().unwrap();
    assert_eq!(backlog(&db), 0);

    assert_eq!(s.query_int("SELECT id FROM t WHERE b = 12", &[]).unwrap(), 1);
    assert_eq!(s.query_int("SELECT id FROM t WHERE b = 20", &[]).unwrap(), 2);
    assert_eq!(
        s.query_int("SELECT COUNT(*) FROM t WHERE b = 21 OR b = 30 OR b = 10", &[]).unwrap(),
        0
    );
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
}

#[test]
fn the_watermark_advances_with_commits_and_holds_at_a_pinned_snapshot() {
    let db = db();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 10)").unwrap();
    assert_eq!(db.mvcc_watermark(), db.mvcc_commit_ts());
    s.exec("UPDATE t SET b = 20 WHERE id = 1").unwrap();
    assert_eq!(db.mvcc_watermark(), db.mvcc_commit_ts(), "moves with each commit");

    let mut old = Session::new(&db);
    old.begin().unwrap();
    assert_eq!(old.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 20);
    let pinned = db.mvcc_commit_ts();
    for b in 21..24 {
        s.exec_params("UPDATE t SET b = ? WHERE id = 1", &[Value::Int(b)]).unwrap();
        assert_eq!(db.mvcc_watermark(), pinned, "held at the open snapshot");
    }
    old.commit().unwrap();
    s.exec("UPDATE t SET b = 30 WHERE id = 1").unwrap();
    assert_eq!(db.mvcc_watermark(), db.mvcc_commit_ts());
    assert!(db.mvcc_watermark() > pinned);
}
