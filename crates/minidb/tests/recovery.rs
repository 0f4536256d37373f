//! Crash/restart recovery tests for the storage engine: the persistence
//! and recoverability DLFM outsources to its local database (paper §1).

use minidb::{Database, DbConfig, DbError, Session, Value};

fn fresh() -> Database {
    let db = Database::new(DbConfig::for_tests());
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, v BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("CREATE INDEX ix_name ON t (name)").unwrap();
    db
}

fn count(db: &Database, sql: &str) -> i64 {
    Session::new(db).query_int(sql, &[]).unwrap()
}

#[test]
fn committed_work_survives_crash() {
    let db = fresh();
    let mut s = Session::new(&db);
    for i in 0..10 {
        s.exec_params(
            "INSERT INTO t (id, name, v) VALUES (?, ?, ?)",
            &[Value::Int(i), Value::str(format!("n{i}")), Value::Int(i * 10)],
        )
        .unwrap();
    }
    drop(s);
    let lost = db.crash();
    assert_eq!(lost, 0, "committed work was forced");
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 10);
    // Both heap and indexes recovered: point query through the index.
    let mut s = Session::new(&db);
    let v = s.query_int("SELECT v FROM t WHERE id = 7", &[]).unwrap();
    assert_eq!(v, 70);
}

#[test]
fn uncommitted_work_vanishes() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec_params("INSERT INTO t (id, name, v) VALUES (1, 'a', 0)", &[]).unwrap();
    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id, name, v) VALUES (2, 'b', 0)", &[]).unwrap();
    // No commit: the second insert is volatile.
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1);
    // The lost transaction's locks are gone too: the row can be written.
    let mut s2 = Session::new(&db);
    s2.exec_params("INSERT INTO t (id, name, v) VALUES (2, 'b2', 0)", &[]).unwrap();
}

#[test]
fn updates_and_deletes_replay_correctly() {
    let db = fresh();
    let mut s = Session::new(&db);
    for i in 0..6 {
        s.exec_params("INSERT INTO t (id, name, v) VALUES (?, 'x', 0)", &[Value::Int(i)]).unwrap();
    }
    s.exec("UPDATE t SET v = 99, name = 'upd' WHERE id = 3").unwrap();
    s.exec("DELETE FROM t WHERE id = 1").unwrap();
    drop(s);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 5);
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT v FROM t WHERE id = 3", &[]).unwrap(), 99);
    // Index on the updated column was maintained through replay.
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE name = 'upd'", &[]).unwrap(), 1);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE name = 'x'", &[]).unwrap(), 4);
    assert!(s.query_opt("SELECT * FROM t WHERE id = 1", &[]).unwrap().is_none());
}

#[test]
fn savepoint_rollback_then_commit_replays_net_effect() {
    // Compensation records must keep replay consistent when a committed
    // transaction contains statement-rolled-back work.
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id, name, v) VALUES (1, 'keep', 0)", &[]).unwrap();
    let sp = s.savepoint().unwrap();
    s.exec_params("INSERT INTO t (id, name, v) VALUES (2, 'drop', 0)", &[]).unwrap();
    s.exec("UPDATE t SET v = 5 WHERE id = 1").unwrap();
    s.rollback_to(sp).unwrap();
    s.commit().unwrap();
    drop(s);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1);
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT v FROM t WHERE id = 1", &[]).unwrap(), 0);
}

#[test]
fn checkpoint_then_tail_replay() {
    let db = fresh();
    let mut s = Session::new(&db);
    for i in 0..5 {
        s.exec_params("INSERT INTO t (id, name, v) VALUES (?, 'pre', 0)", &[Value::Int(i)])
            .unwrap();
    }
    db.checkpoint();
    s.exec("DELETE FROM t WHERE id = 0").unwrap();
    for i in 10..13 {
        s.exec_params("INSERT INTO t (id, name, v) VALUES (?, 'post', 0)", &[Value::Int(i)])
            .unwrap();
    }
    drop(s);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 7);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'post'"), 3);
}

/// `v` of row `id`, read in a fresh session.
fn v_of(db: &Database, id: i64) -> i64 {
    Session::new(db).query_int("SELECT v FROM t WHERE id = ?", &[Value::Int(id)]).unwrap()
}

#[test]
fn checkpoint_holds_only_committed_state() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, name, v) VALUES (1, 'a', 0)").unwrap();
    let mut loser = Session::new(&db);
    loser.begin().unwrap();
    loser.exec("UPDATE t SET v = 99, name = 'b' WHERE id = 1").unwrap();
    db.checkpoint();
    db.crash();
    db.restart().unwrap();
    assert_eq!(v_of(&db, 1), 0, "the loser's update survived in the checkpoint image");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'a'"), 1);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'b'"), 0);
}

#[test]
fn checkpoint_before_a_winner_commits_is_redone() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, name, v) VALUES (1, 'a', 0)").unwrap();
    let mut winner = Session::new(&db);
    winner.begin().unwrap();
    winner.exec("UPDATE t SET v = 99, name = 'b' WHERE id = 1").unwrap();
    db.checkpoint();
    winner.commit().unwrap();
    db.crash();
    db.restart().unwrap();
    assert_eq!(v_of(&db, 1), 99, "redo lost a commit whose writes preceded the checkpoint");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'b'"), 1);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'a'"), 0);
}

#[test]
fn backup_image_holds_only_committed_state() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, name, v) VALUES (1, 'a', 0)").unwrap();
    let mut other = Session::new(&db);
    other.begin().unwrap();
    other.exec("UPDATE t SET v = 99, name = 'b' WHERE id = 1").unwrap();
    other.exec("INSERT INTO t (id, name, v) VALUES (2, 'c', 0)").unwrap();
    let image = db.backup_image();
    other.rollback();
    db.restore_image(&image);
    assert_eq!(v_of(&db, 1), 0, "the image captured another session's uncommitted update");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE name = 'b'"), 0);
    // The restored indexes match the restored rows: the key the open
    // transaction held is free again.
    s.exec("INSERT INTO t (id, name, v) VALUES (2, 'c', 0)").unwrap();
}

/// A transaction whose writes all went back to a savepoint commits with no
/// log record: it must stop pinning the log, or the active window grows
/// until every writer hits `LogFull`.
#[test]
fn a_write_rolled_back_to_a_savepoint_stops_pinning_the_log() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    let sp = s.savepoint().unwrap();
    s.exec("INSERT INTO t (id, name, v) VALUES (1, 'a', 0)").unwrap();
    s.rollback_to(sp).unwrap();
    s.commit().unwrap();
    s.exec("INSERT INTO t (id, name, v) VALUES (2, 'b', 0)").unwrap();
    assert_eq!(db.log_active_window(), 0);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1);
}

#[test]
fn ddl_survives_crash() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE extra (k BIGINT NOT NULL)").unwrap();
    s.exec_params("INSERT INTO extra (k) VALUES (42)", &[]).unwrap();
    drop(s);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM extra"), 1);
    // Index created after data existed is rebuilt by replay.
    let mut s = Session::new(&db);
    s.exec("CREATE INDEX ix_extra ON extra (k)").unwrap();
    drop(s);
    db.crash();
    db.restart().unwrap();
    let mut s = Session::new(&db);
    db.set_table_stats("extra", 1_000).unwrap();
    db.set_index_stats("ix_extra", 1_000).unwrap();
    let plan = s.query("EXPLAIN SELECT * FROM extra WHERE k = 42", &[]).unwrap()[0][0]
        .as_str()
        .unwrap()
        .to_string();
    assert!(plan.starts_with("IXSCAN"), "{plan}");
    assert_eq!(s.query_int("SELECT COUNT(*) FROM extra WHERE k = 42", &[]).unwrap(), 1);
}

#[test]
fn drop_table_survives_crash() {
    let db = fresh();
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE doomed (k BIGINT)").unwrap();
    s.exec("DROP TABLE doomed").unwrap();
    drop(s);
    db.crash();
    db.restart().unwrap();
    let mut s = Session::new(&db);
    assert!(matches!(s.query_int("SELECT COUNT(*) FROM doomed", &[]), Err(DbError::NotFound(_))));
    // Name reusable after restart.
    s.exec("CREATE TABLE doomed (k BIGINT)").unwrap();
}

#[test]
fn operations_while_offline_fail_cleanly() {
    let db = fresh();
    db.crash();
    let mut s = Session::new(&db);
    assert!(matches!(s.exec("SELECT COUNT(*) FROM t"), Err(DbError::Offline)));
    db.restart().unwrap();
    s.exec("SELECT COUNT(*) FROM t").unwrap();
}

#[test]
fn repeated_crash_restart_cycles_are_stable() {
    let db = fresh();
    for round in 0..5i64 {
        let mut s = Session::new(&db);
        s.exec_params(
            "INSERT INTO t (id, name, v) VALUES (?, 'r', ?)",
            &[Value::Int(round), Value::Int(round)],
        )
        .unwrap();
        drop(s);
        db.crash();
        db.restart().unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), round + 1);
    }
    // Unique index still enforced after all the cycles.
    let mut s = Session::new(&db);
    assert!(matches!(
        s.exec("INSERT INTO t (id, name, v) VALUES (0, 'dup', 0)"),
        Err(DbError::UniqueViolation { .. })
    ));
}

#[test]
fn backup_image_restore_roundtrip() {
    let db = fresh();
    let mut s = Session::new(&db);
    for i in 0..4 {
        s.exec_params("INSERT INTO t (id, name, v) VALUES (?, 'a', 0)", &[Value::Int(i)]).unwrap();
    }
    let image = db.backup_image();
    s.exec("DELETE FROM t WHERE id >= 2").unwrap();
    s.exec("UPDATE t SET v = 9 WHERE id = 0").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 2);
    drop(s);
    db.restore_image(&image);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 4);
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT v FROM t WHERE id = 0", &[]).unwrap(), 0);
    // Restored state survives a crash (restore checkpoints).
    drop(s);
    db.crash();
    db.restart().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 4);
}

#[test]
fn monotonic_txn_ids_across_restart() {
    // The paper calls host transaction-id monotonicity "absolutely
    // essential"; our engine preserves it across crash/restart.
    let db = fresh();
    // Ids are monotonic with respect to every *durable* record: any id that
    // reached the forced log is never handed out again after a restart.
    // (Ids of transactions whose records were lost with the volatile tail
    // may be reused — their records no longer exist, so no confusion is
    // possible.)
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id, name, v) VALUES (100, 'x', 0)", &[]).unwrap();
    s.rollback();
    // A committed (forced) transaction pins the sequence.
    s.exec_params("INSERT INTO t (id, name, v) VALUES (101, 'y', 0)", &[]).unwrap();
    let durable_floor = db.begin().id.0; // every durable id is below this
    drop(s);
    db.crash();
    db.restart().unwrap();
    let t2 = db.begin();
    // The committed transaction's id was durable_floor - 1; anything at or
    // above durable_floor is collision-free with durable history.
    assert!(
        t2.id.0 >= durable_floor,
        "txn ids must not collide with durable history ({} vs floor {durable_floor})",
        t2.id.0
    );
}
