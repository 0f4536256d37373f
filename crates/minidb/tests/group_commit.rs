//! Group-commit durability tests.
//!
//! The contract under test: `commit()` may not return `Ok` before the
//! transaction's commit LSN is durable, no matter how many committers
//! share a force or when a crash lands — and one leader force must cover
//! many concurrent committers (forces counter < commits counter).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use minidb::{Database, DbConfig, Session, Value};

fn db_with(force_latency: Duration, group_commit: bool) -> Database {
    let config =
        DbConfig { log_force_latency: force_latency, group_commit, ..DbConfig::for_tests() };
    let db = Database::new(config);
    Session::new(&db).exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    db
}

/// Concurrent committers race a crash: every transaction whose `commit()`
/// returned `Ok` must be present after restart. The force latency is long
/// enough that the crash almost always lands mid-force, with committers
/// parked on the group condvar.
#[test]
fn crash_never_loses_an_acknowledged_commit() {
    const THREADS: usize = 8;
    let db = db_with(Duration::from_millis(2), true);
    let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(THREADS + 1));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let db = db.clone();
        let acked = acked.clone();
        let stop = stop.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = Session::new(&db);
            let mut i = 0i64;
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let id = (t as i64) * 1_000_000 + i;
                i += 1;
                if s.begin().is_err() {
                    break;
                }
                if s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(id)]).is_err() {
                    s.rollback();
                    break;
                }
                if s.commit().is_err() {
                    break;
                }
                // Only recorded once commit() acknowledged durability.
                acked.lock().unwrap().push(id);
            }
        }));
    }
    start.wait();
    std::thread::sleep(Duration::from_millis(60));
    db.crash();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    db.restart().unwrap();
    let mut s = Session::new(&db);
    let survivors: HashSet<i64> = s
        .query("SELECT id FROM t", &[])
        .unwrap()
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect();
    let acked = acked.lock().unwrap();
    assert!(!acked.is_empty(), "no commit was acknowledged before the crash");
    for id in acked.iter() {
        assert!(
            survivors.contains(id),
            "transaction {id} was acknowledged as committed but lost in the crash \
             ({} acked, {} survived)",
            acked.len(),
            survivors.len()
        );
    }
}

/// One leader force covers many waiters: with a slow device and many
/// concurrent committers, the forces counter stays strictly below the
/// commits counter, and nothing is lost.
#[test]
fn one_force_covers_multiple_waiters() {
    const THREADS: usize = 8;
    const COMMITS_EACH: usize = 5;
    let db = db_with(Duration::from_millis(5), true);
    let start = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let db = db.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = Session::new(&db);
            start.wait();
            for i in 0..COMMITS_EACH {
                let id = (t * COMMITS_EACH + i) as i64;
                s.begin().unwrap();
                s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(id)]).unwrap();
                s.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let commits = db.wal_commits_total();
    let forces = db.wal_forces_total();
    assert!(commits >= (THREADS * COMMITS_EACH) as u64);
    assert!(
        forces < commits,
        "group commit must batch: forces ({forces}) not below commits ({commits})"
    );
    // Batch sizes are recorded per force and account for every commit.
    assert_eq!(db.wal_force_batch_hist().count(), forces);
    assert_eq!(db.wal_force_batch_hist().sum(), commits);
    let n = Session::new(&db).query_int("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(n as usize, THREADS * COMMITS_EACH);
}

/// With group commit off, every committer pays its own force: the two
/// counters track each other exactly (DDL commits force too).
#[test]
fn serial_mode_forces_once_per_commit() {
    let db = db_with(Duration::ZERO, false);
    let mut s = Session::new(&db);
    for i in 0..5 {
        s.begin().unwrap();
        s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(i)]).unwrap();
        s.commit().unwrap();
    }
    assert_eq!(db.wal_forces_total(), db.wal_commits_total());
}

/// The knob round-trips through `DbConfig` and the runtime setter.
#[test]
fn group_commit_knob_round_trips() {
    let db = db_with(Duration::ZERO, true);
    assert!(db.group_commit());
    db.set_group_commit(false);
    assert!(!db.group_commit());
    db.set_group_commit(true);
    let mut s = Session::new(&db);
    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id) VALUES (?)", &[Value::Int(1)]).unwrap();
    s.commit().unwrap();
    assert!(db.wal_forces_total() >= 1);
}
