//! Concurrency tests: isolation, escalation, next-key locking behaviour,
//! and lock-list pressure, exercised through the SQL surface.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use minidb::{Database, DbConfig, DbError, Session, Value};

fn tuned(next_key: bool) -> Database {
    tuned_mvcc(next_key, true)
}

fn tuned_mvcc(next_key: bool, mvcc: bool) -> Database {
    let mut config = DbConfig::for_tests();
    config.next_key_locking = next_key;
    config.mvcc = mvcc;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, a VARCHAR, b BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("CREATE INDEX ix_a ON t (a)").unwrap();
    s.exec("CREATE INDEX ix_b ON t (b)").unwrap();
    db.set_table_stats("t", 1_000_000).unwrap();
    for ix in ["ix_id", "ix_a", "ix_b"] {
        db.set_index_stats(ix, 1_000_000).unwrap();
    }
    db
}

#[test]
fn uncommitted_writes_invisible_to_other_sessions_until_commit() {
    // Pure-2PL arm: a reader blocks on the uncommitted row (strict 2PL, no
    // dirty reads); with the short test timeout it gives up.
    let db = tuned_mvcc(false, false);
    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();

    let db2 = db.clone();
    let r = thread::spawn(move || {
        let mut s = Session::new(&db2);
        s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[])
    });
    let result = r.join().unwrap();
    assert!(matches!(result, Err(DbError::LockTimeout { .. })), "{result:?}");

    w.commit().unwrap();
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[]).unwrap(), 1);
}

#[test]
fn mvcc_reader_skips_uncommitted_write_without_blocking() {
    // MVCC arm of the same scenario: the reader neither blocks nor sees the
    // dirty row — it resolves the snapshot image (empty) immediately.
    let db = tuned(false);
    let mut w = Session::new(&db);
    w.begin().unwrap();
    w.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();

    let db2 = db.clone();
    let r = thread::spawn(move || {
        let mut s = Session::new(&db2);
        s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[])
    });
    assert_eq!(r.join().unwrap().unwrap(), 0);
    assert!(db.mvcc_reads_total() >= 1);

    w.commit().unwrap();
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[]).unwrap(), 1);
}

#[test]
fn readers_do_not_block_readers() {
    let db = tuned(false);
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            let mut s = Session::new(&db);
            for _ in 0..50 {
                s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_unique_inserts_one_winner() {
    // The race the paper closes with the check-flag unique index: two
    // agents inserting the same key concurrently — exactly one wins.
    let db = Arc::new(tuned(false));
    let wins = Arc::new(AtomicU64::new(0));
    let dups = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = db.clone();
        let wins = wins.clone();
        let dups = dups.clone();
        handles.push(thread::spawn(move || {
            let mut s = Session::new(&db);
            for key in 0..50i64 {
                match s
                    .exec_params("INSERT INTO t (id, a, b) VALUES (?, 'c', 0)", &[Value::Int(key)])
                {
                    Ok(_) => {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(DbError::UniqueViolation { .. }) => {
                        dups.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(DbError::LockTimeout { .. }) | Err(DbError::Deadlock { .. }) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = Session::new(&db);
    let n = s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(n as u64, wins.load(Ordering::Relaxed));
    assert!(n <= 50);
}

#[test]
fn next_key_locking_produces_deadlocks_where_off_does_not() {
    // A compact version of experiment E2: two updaters each rewrite the
    // indexed `b` of their own row, twice. Under next-key locking an update
    // locks its old key, its new key and the key after each, so the first
    // round leaves T1 holding {10, 11, 20} and T2 {30, 31, 40}. In the
    // second round T1 moves to 32 and needs the key after it, 40 (T2's);
    // T2 moves to 12 and needs 20 (T1's): the acquisition orders invert, on
    // every run, once both have passed the barrier. Without next-key
    // locking each transaction only locks its own row.
    fn churn(db: &Database) -> u64 {
        let mut s = Session::new(db);
        for (id, b) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            s.exec_params(
                "INSERT INTO t (id, a, b) VALUES (?, 'r', ?)",
                &[Value::Int(id), Value::Int(b)],
            )
            .unwrap();
        }
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = [(1i64, 11i64, 32i64), (3, 31, 12)]
            .into_iter()
            .map(|(id, first, second)| {
                let (db, barrier) = (db.clone(), barrier.clone());
                thread::spawn(move || {
                    let mut s = Session::new(&db);
                    s.begin().unwrap();
                    let set = "UPDATE t SET b = ? WHERE id = ?";
                    s.exec_params(set, &[Value::Int(first), Value::Int(id)]).unwrap();
                    barrier.wait();
                    // The deadlock victim's session has already rolled back.
                    if s.exec_params(set, &[Value::Int(second), Value::Int(id)]).is_ok() {
                        s.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        db.lock_metrics().snapshot().deadlocks
    }
    let with_nkl = churn(&tuned(true));
    let without_nkl = churn(&tuned(false));
    assert_eq!(without_nkl, 0, "no deadlocks without next-key locking");
    assert!(
        with_nkl > 0,
        "shared-keyspace updates under next-key locking should deadlock (got {with_nkl})"
    );
}

#[test]
fn escalation_covers_future_row_locks() {
    let mut config = DbConfig::for_tests();
    config.lock_escalation_threshold = Some(10);
    config.next_key_locking = false;
    // Pure-2PL arm: escalation to a table X lock blocks even readers.
    config.mvcc = false;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    for i in 0..30 {
        s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(i)]).unwrap();
    }
    s.begin().unwrap();
    // Updating everything crosses the threshold and escalates.
    s.exec("UPDATE t SET id = id + 1000 WHERE id >= 0").unwrap();
    assert!(db.lock_metrics().snapshot().escalations >= 1);
    // Another session cannot even read now (table X lock).
    let db2 = db.clone();
    let r = thread::spawn(move || {
        let mut s2 = Session::new(&db2);
        s2.query_int("SELECT COUNT(*) FROM t", &[])
    })
    .join()
    .unwrap();
    assert!(matches!(r, Err(DbError::LockTimeout { .. })));
    s.commit().unwrap();
    let mut s2 = Session::new(&db);
    assert_eq!(s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 30);
}

#[test]
fn mvcc_reader_ignores_escalated_table_lock() {
    // MVCC arm: the same table X escalation does not slow a snapshot
    // reader, which sees the pre-update images.
    let mut config = DbConfig::for_tests();
    config.lock_escalation_threshold = Some(10);
    config.next_key_locking = false;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    for i in 0..30 {
        s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(i)]).unwrap();
    }
    s.begin().unwrap();
    s.exec("UPDATE t SET id = id + 1000 WHERE id >= 0").unwrap();
    assert!(db.lock_metrics().snapshot().escalations >= 1);
    let db2 = db.clone();
    let r = thread::spawn(move || {
        let mut s2 = Session::new(&db2);
        (
            s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(),
            s2.query_int("SELECT COUNT(*) FROM t WHERE id >= 1000", &[]).unwrap(),
        )
    })
    .join()
    .unwrap();
    assert_eq!(r, (30, 0), "snapshot reader sees all pre-update rows");
    s.commit().unwrap();
    let mut s2 = Session::new(&db);
    assert_eq!(s2.query_int("SELECT COUNT(*) FROM t WHERE id >= 1000", &[]).unwrap(), 30);
}

#[test]
fn lock_list_pressure_escalates_even_when_threshold_disabled() {
    // DB2 semantics: a full lock list *forces* escalation regardless of the
    // per-transaction threshold ("lock list size should be set sufficiently
    // large to avoid forced lock escalation", §4).
    let mut config = DbConfig::for_tests();
    config.lock_escalation_threshold = None;
    config.lock_list_capacity = 40;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    for i in 0..60 {
        s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(i)]).unwrap();
    }
    s.begin().unwrap();
    s.exec("UPDATE t SET id = id + 1000 WHERE id >= 0").unwrap();
    assert!(
        db.lock_metrics().snapshot().escalations >= 1,
        "lock-list pressure must force an escalation"
    );
    s.commit().unwrap();
}

#[test]
fn lock_list_pressure_triggers_escalation_when_enabled() {
    let mut config = DbConfig::for_tests();
    // Escalation nominally off by threshold, but the lock list forces it.
    config.lock_escalation_threshold = Some(1_000_000);
    config.lock_list_capacity = 40;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    for i in 0..60 {
        s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(i)]).unwrap();
    }
    s.begin().unwrap();
    s.exec("UPDATE t SET id = id + 1000 WHERE id >= 0").unwrap();
    assert!(db.lock_metrics().snapshot().escalations >= 1);
    s.commit().unwrap();
}

#[test]
fn for_update_blocks_writers_but_for_share_does_not_block_readers() {
    let db = tuned(false);
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();
    s.begin().unwrap();
    s.exec("SELECT * FROM t WHERE id = 1 FOR UPDATE").unwrap();

    // Another reader (plain select) blocks on the X row lock.
    let db2 = db.clone();
    let r = thread::spawn(move || {
        let mut s2 = Session::new(&db2);
        s2.exec("UPDATE t SET b = 1 WHERE id = 1")
    })
    .join()
    .unwrap();
    assert!(matches!(r, Err(DbError::LockTimeout { .. })));
    s.commit().unwrap();
}

#[test]
fn high_contention_mixed_workload_converges() {
    // Smoke: 8 threads hammering 16 rows with mixed ops; every failure must
    // be a classified transient error, and the table stays consistent.
    let db = Arc::new(tuned(false));
    {
        let mut s = Session::new(&db);
        for i in 0..16 {
            s.exec_params("INSERT INTO t (id, a, b) VALUES (?, 'seed', 0)", &[Value::Int(i)])
                .unwrap();
        }
    }
    let mut handles = Vec::new();
    for c in 0..8u64 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            let mut s = Session::new(&db);
            for i in 0..80u64 {
                let id = ((c * 31 + i * 17) % 16) as i64;
                let r = match i % 3 {
                    0 => s.exec_params("UPDATE t SET b = b + 1 WHERE id = ?", &[Value::Int(id)]),
                    1 => s.exec_params("SELECT b FROM t WHERE id = ?", &[Value::Int(id)]),
                    _ => s.exec_params(
                        "UPDATE t SET a = ? WHERE id = ?",
                        &[Value::str(format!("c{c}")), Value::Int(id)],
                    ),
                };
                if let Err(e) = r {
                    assert!(e.is_rollback_forced(), "only transient failures allowed, got {e}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 16);
    // Index and heap agree for every row.
    for i in 0..16 {
        assert_eq!(s.query_int(&format!("SELECT COUNT(*) FROM t WHERE id = {i}"), &[]).unwrap(), 1);
    }
}

#[test]
fn statement_timeout_keeps_transaction_usable_on_other_resources() {
    // A lock timeout rolls back the whole transaction (DB2 -911 style);
    // verify the session is immediately usable for a fresh transaction.
    let db = tuned(false);
    let mut holder = Session::new(&db);
    let mut s = Session::new(&db);
    s.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();
    holder.begin().unwrap();
    holder.exec("UPDATE t SET b = 1 WHERE id = 1").unwrap();

    s.begin().unwrap();
    let err = s.exec("UPDATE t SET b = 2 WHERE id = 1").unwrap_err();
    assert!(err.is_rollback_forced());
    assert!(!s.in_txn(), "forced rollback must close the transaction");
    holder.commit().unwrap();
    // Fresh transaction works.
    s.begin().unwrap();
    s.exec("UPDATE t SET b = 3 WHERE id = 1").unwrap();
    s.commit().unwrap();
    let mut v = Session::new(&db);
    assert_eq!(v.query_int("SELECT b FROM t WHERE id = 1", &[]).unwrap(), 3);
}

#[test]
fn deleted_slot_not_reused_while_delete_uncommitted() {
    // Regression test for the slot-reuse hazard: a deleter holds the row
    // lock; a concurrent insert must NOT land on the freed slot and block
    // behind a foreign identity.
    let db = tuned(false);
    let mut a = Session::new(&db);
    a.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();
    a.begin().unwrap();
    a.exec("DELETE FROM t WHERE id = 1").unwrap();

    // Concurrent insert of a different key must not block.
    let db2 = db.clone();
    let h = thread::spawn(move || {
        let mut b = Session::new(&db2);
        b.exec("INSERT INTO t (id, a, b) VALUES (2, 'y', 0)")
    });
    let r = h.join().unwrap();
    assert!(r.is_ok(), "insert must not contend with the uncommitted delete: {r:?}");
    a.rollback();
    // The aborted delete restored row 1; both rows visible and distinct.
    let mut s = Session::new(&db);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[]).unwrap(), 1);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 2", &[]).unwrap(), 1);
}

#[test]
fn a_slot_emptied_by_a_savepoint_rollback_waits_for_its_transaction() {
    // Locks outlive a savepoint rollback: the undone insert's row stays
    // X-locked until its transaction ends, so a concurrent insert must not
    // land on that slot and queue behind the lock (holding the table's
    // apply mutex all the while).
    for (mvcc, commit) in [(true, true), (true, false), (false, true)] {
        let db = tuned_mvcc(false, mvcc);
        let mut a = Session::new(&db);
        a.begin().unwrap();
        let sp = a.savepoint().unwrap();
        a.exec("INSERT INTO t (id, a, b) VALUES (1, 'x', 0)").unwrap();
        a.rollback_to(sp).unwrap();

        let db2 = db.clone();
        let h = thread::spawn(move || {
            Session::new(&db2).exec("INSERT INTO t (id, a, b) VALUES (2, 'y', 0)")
        });
        let r = h.join().unwrap();
        assert!(r.is_ok(), "mvcc {mvcc}: insert queued behind a savepoint's lock: {r:?}");
        a.exec("INSERT INTO t (id, a, b) VALUES (3, 'z', 0)").unwrap();
        if commit {
            a.commit().unwrap();
        } else {
            a.rollback();
        }
        let mut s = Session::new(&db);
        s.exec("INSERT INTO t (id, a, b) VALUES (4, 'w', 0)").unwrap();
        let want = if commit { 3 } else { 2 };
        assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), want);
        assert_eq!(s.query_int("SELECT COUNT(*) FROM t WHERE id = 1", &[]).unwrap(), 0);
        assert_eq!(db.mvcc_version_chains(), 0, "mvcc {mvcc}: a chain outlived its writer");
    }
}

#[test]
fn range_scans_use_the_index_and_lock_only_matching_rows() {
    let db = tuned(false);
    let mut s = Session::new(&db);
    for i in 0..50 {
        s.exec_params(
            "INSERT INTO t (id, a, b) VALUES (?, 'x', ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }
    // Plan: range over ix_b.
    s.exec("CREATE INDEX ix_b2 ON t (b)").ok();
    let plan = s.query("EXPLAIN SELECT * FROM t WHERE b >= 40 AND b < 45", &[]).unwrap()[0][0]
        .as_str()
        .unwrap()
        .to_string();
    assert!(plan.starts_with("IXRANGE"), "{plan}");
    let rows = s.query("SELECT id FROM t WHERE b >= 40 AND b < 45 ORDER BY id", &[]).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0][0].as_int().unwrap(), 40);

    // A writer holding a row OUTSIDE the range does not block the ranged
    // UPDATE (table scans would have).
    let mut holder = Session::new(&db);
    holder.begin().unwrap();
    holder.exec("UPDATE t SET a = 'h' WHERE id = 0").unwrap();
    let n = s.exec("UPDATE t SET a = 'r' WHERE b >= 40 AND b < 45").unwrap().count();
    assert_eq!(n, 5);
    holder.rollback();
}

#[test]
fn range_bounds_flip_when_column_is_on_the_right() {
    let db = tuned(false);
    let mut s = Session::new(&db);
    for i in 0..10 {
        s.exec_params(
            "INSERT INTO t (id, a, b) VALUES (?, 'x', ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }
    // `5 > b` means `b < 5`.
    let rows = s.query("SELECT id FROM t WHERE 5 > b ORDER BY id", &[]).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[4][0].as_int().unwrap(), 4);
}

/// A row a savepoint rollback left clean, then deleted by the same
/// transaction, frees its slot once at commit: an insert that takes the
/// slot meanwhile must not see it handed out a second time.
#[test]
fn a_slot_freed_at_commit_is_handed_out_once() {
    for mvcc in [true, false] {
        let db = tuned_mvcc(false, mvcc);
        let stop = AtomicBool::new(false);
        let inserted = thread::scope(|scope| {
            let inserter = scope.spawn(|| {
                let mut s = Session::new(&db);
                let mut n = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    s.exec_params("INSERT INTO t (id, a, b) VALUES (?, 'i', 0)", &[Value::Int(n)])
                        .unwrap();
                    n += 1;
                }
                n
            });
            let mut s = Session::new(&db);
            for r in 0..2_000i64 {
                let id = [Value::Int(-1 - r)];
                s.exec_params("INSERT INTO t (id, a, b) VALUES (?, 'r', 0)", &id).unwrap();
                s.begin().unwrap();
                let sp = s.savepoint().unwrap();
                s.exec_params("UPDATE t SET b = 1 WHERE id = ?", &id).unwrap();
                s.rollback_to(sp).unwrap();
                s.exec_params("DELETE FROM t WHERE id = ?", &id).unwrap();
                s.commit().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            inserter.join().unwrap()
        });
        let mut s = Session::new(&db);
        let rows = s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rows, inserted, "mvcc {mvcc}: an insert overwrote a live row");
    }
}
