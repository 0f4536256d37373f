//! Seeded concurrent snapshot histories. Writers move rows between indexed
//! keys, delete and re-insert rows (so heap slots are reused under new
//! identities), roll back whole transactions and single statements, and
//! now and then drain the version GC; readers pin snapshots and hold them
//! across the writers' commits. Every snapshot read — by unique id, by the
//! moving key, by full scan — must return exactly the committed state as of
//! the reader's snapshot, which a model rebuilds from the commit order.
//!
//! `MINIDB_MVCC_SEEDS` sets how many seeds run (default 4); even seeds run
//! with next-key locking on, odd ones with it off.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use minidb::{Database, DbConfig, DbResult, Row, Session, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WRITERS: i64 = 2;
const READERS: u64 = 2;
/// Row ids writer `w` owns: `w * 100 ..`; ids never move between writers,
/// so a writer's own view of its rows is the committed truth for them.
const ROWS_PER_WRITER: i64 = 6;
/// The indexed column `k` ranges over this few values, so rows keep
/// landing on keys other rows just left.
const KEYS: i64 = 4;
const TXNS_PER_WRITER: usize = 80;
const SNAPSHOTS_PER_READER: usize = 12;

/// Committed state: id → (k, v).
type State = BTreeMap<i64, (i64, i64)>;

/// The database and the commit order as the model sees it: each commit's
/// timestamp with the state it left. Writers commit, and readers pin their
/// snapshots, under the lock — so a timestamp read there is exact.
struct History {
    db: Database,
    log: Mutex<Vec<(u64, State)>>,
}

fn owner(id: i64) -> i64 {
    id / 100
}

/// `base` with writer `w`'s rows replaced by `mine`.
fn with_rows(base: &State, w: i64, mine: &State) -> State {
    let mut state = base.clone();
    state.retain(|id, _| owner(*id) != w);
    state.extend(mine.iter().map(|(id, kv)| (*id, *kv)));
    state
}

/// Open a snapshot in `s`'s transaction and return the committed state it
/// must read. Commits happen under the log lock, so the commit timestamp
/// read there is the snapshot's.
fn pin(h: &History, s: &mut Session) -> (u64, State) {
    let log = h.log.lock().unwrap();
    s.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    let ts = h.db.mvcc_commit_ts();
    let (_, state) = log.iter().rev().find(|(t, _)| *t <= ts).expect("seeded");
    (ts, state.clone())
}

fn state_of(rows: Vec<Row>) -> State {
    rows.iter()
        .map(|r| (r[0].as_int().unwrap(), (r[1].as_int().unwrap(), r[2].as_int().unwrap())))
        .collect()
}

fn setup(seed: u64) -> (History, Vec<State>) {
    let mut config = DbConfig::for_tests();
    config.next_key_locking = seed.is_multiple_of(2);
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("CREATE INDEX ix_k ON t (k)").unwrap();
    db.set_table_stats("t", 1_000_000).unwrap();
    db.set_index_stats("ix_id", 1_000_000).unwrap();
    db.set_index_stats("ix_k", 1_000_000).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut owned = vec![State::new(); WRITERS as usize];
    for w in 0..WRITERS {
        for j in 0..ROWS_PER_WRITER / 2 {
            let (id, k, v) = (w * 100 + j, rng.gen_range(0..KEYS), rng.gen_range(0..1000));
            s.exec_params(
                "INSERT INTO t (id, k, v) VALUES (?, ?, ?)",
                &[Value::Int(id), Value::Int(k), Value::Int(v)],
            )
            .unwrap();
            owned[w as usize].insert(id, (k, v));
        }
    }
    let all: State = owned.iter().flatten().map(|(id, kv)| (*id, *kv)).collect();
    let log = Mutex::new(vec![(db.mvcc_commit_ts(), all)]);
    (History { db, log }, owned)
}

/// One random statement on a row writer `w` owns, applied to `state` when
/// it succeeds.
fn step(s: &mut Session, rng: &mut StdRng, w: i64, state: &mut State) -> DbResult<()> {
    let id = w * 100 + rng.gen_range(0..ROWS_PER_WRITER);
    let (k, v) = (rng.gen_range(0..KEYS), rng.gen_range(0..1000));
    let kv = [Value::Int(k), Value::Int(v), Value::Int(id)];
    let sql = match state.get(&id) {
        None => "INSERT INTO t (k, v, id) VALUES (?, ?, ?)",
        Some(_) if rng.gen_bool(0.3) => {
            s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(id)])?;
            state.remove(&id);
            return Ok(());
        }
        Some(_) => "UPDATE t SET k = ?, v = ? WHERE id = ?",
    };
    s.exec_params(sql, &kv)?;
    state.insert(id, (k, v));
    Ok(())
}

fn writer(h: &History, seed: u64, w: i64, mut mine: State) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919) + w as u64);
    let mut s = Session::new(&h.db);
    for n in 0..TXNS_PER_WRITER {
        let mut next = mine.clone();
        s.begin().unwrap();
        // Sometimes the writer reads first: its own snapshot must not hold
        // its commit back, and must show its own writes over the snapshot.
        let seen = rng.gen_bool(0.3).then(|| pin(h, &mut s));
        // A lock error (deadlock victim, timeout) rolls the transaction
        // back inside the session; the rest of this one is skipped.
        let ok = (0..rng.gen_range(1..4)).all(|_| {
            let undo = rng.gen_bool(0.15).then(|| s.savepoint().unwrap());
            let mut trial = next.clone();
            match (step(&mut s, &mut rng, w, &mut trial), undo) {
                (Err(_), _) => false,
                (Ok(()), Some(sp)) => s.rollback_to(sp).is_ok(),
                (Ok(()), None) => {
                    next = trial;
                    true
                }
            }
        });
        if let (true, Some((ts, seen))) = (ok, &seen) {
            // Its own rows as written, every other row as of the snapshot.
            let what = format!("seed {seed} writer {w} @{ts}");
            check(&mut s, &with_rows(seen, w, &next), &what);
        }
        if ok && rng.gen_bool(0.75) {
            let mut log = h.log.lock().unwrap();
            s.commit().unwrap();
            mine = next;
            let state = with_rows(&log.last().expect("seeded").1, w, &mine);
            log.push((h.db.mvcc_commit_ts(), state));
        } else {
            s.rollback();
        }
        if n % 16 == 15 {
            h.db.mvcc_gc();
        }
    }
}

/// Every way a snapshot can reach the rows must agree with `want`: the
/// full scan, a probe of every key, a probe of every id.
fn check(s: &mut Session, want: &State, what: &str) {
    let mut read = |sql: &str, param: Option<i64>| -> State {
        let params: Vec<Value> = param.into_iter().map(Value::Int).collect();
        state_of(s.query(sql, &params).unwrap())
    };
    assert_eq!(&read("SELECT id, k, v FROM t", None), want, "{what}: full scan");
    for k in 0..KEYS {
        let expect: State =
            want.iter().filter(|(_, kv)| kv.0 == k).map(|(i, kv)| (*i, *kv)).collect();
        assert_eq!(
            read("SELECT id, k, v FROM t WHERE k = ?", Some(k)),
            expect,
            "{what}: probe k = {k}"
        );
    }
    for id in (0..WRITERS).flat_map(|w| (0..ROWS_PER_WRITER).map(move |j| w * 100 + j)) {
        let expect: State = want.get_key_value(&id).map(|(i, kv)| (*i, *kv)).into_iter().collect();
        let got = read("SELECT id, k, v FROM t WHERE id = ?", Some(id));
        assert_eq!(got, expect, "{what}: probe id = {id}");
    }
}

fn reader(h: &History, seed: u64, r: u64) {
    let mut s = Session::new(&h.db);
    for n in 0..SNAPSHOTS_PER_READER {
        s.begin().unwrap();
        let (ts, want) = pin(h, &mut s);
        for round in 0..3 {
            check(
                &mut s,
                &want,
                &format!("seed {seed} reader {r} snapshot {n} @{ts} round {round}"),
            );
            thread::sleep(Duration::from_micros(300));
        }
        s.commit().unwrap();
    }
}

fn run_seed(seed: u64) {
    let (h, owned) = setup(seed);
    thread::scope(|scope| {
        for (w, mine) in owned.into_iter().enumerate() {
            let h = &h;
            scope.spawn(move || writer(h, seed, w as i64, mine));
        }
        for r in 0..READERS {
            let h = &h;
            scope.spawn(move || reader(h, seed, r));
        }
    });
    // Drained and quiescent, a fresh snapshot reads the last commit.
    h.db.mvcc_gc();
    let last = h.log.lock().unwrap().last().expect("seeded").1.clone();
    check(&mut Session::new(&h.db), &last, &format!("seed {seed} after the run"));
}

#[test]
fn snapshot_reads_match_the_committed_history() {
    let seeds: u64 =
        std::env::var("MINIDB_MVCC_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    for seed in 0..seeds {
        run_seed(seed);
    }
}

/// The reused-slot anomaly, deterministically: the slot of a row another
/// transaction deleted must not go to a new row while a snapshot can still
/// read the deleted one — least of all to an insert by the snapshot's own
/// transaction, which reads its own write in that slot.
#[test]
fn a_deleted_slot_waits_for_the_snapshots_that_read_it() {
    let (h, _) = setup(1);
    let mut reader = Session::new(&h.db);
    reader.begin().unwrap();
    let (_, mut want) = pin(&h, &mut reader);
    let mut other = Session::new(&h.db);
    other.exec("DELETE FROM t WHERE id = 0").unwrap();
    reader.exec("INSERT INTO t (id, k, v) VALUES (7, 0, 7)").unwrap();
    want.insert(7, (0, 7));
    check(&mut reader, &want, "a snapshot beside a reused slot");
    reader.commit().unwrap();
}
