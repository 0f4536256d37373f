//! E13 — read-heavy scaling: MVCC snapshot reads vs pure 2PL.
//!
//! The paper's workload is a media library: DLFM's File table is read far
//! more often than it is written (queries, token issuance, upcalls), and
//! under strict 2PL every SELECT queues behind row and key locks. This
//! experiment runs a 95/5 read/write mix against a `media` table and sweeps
//! the client count with MVCC ON (snapshot reads, no row/key locks) vs OFF
//! (locking reads). Expectation: read throughput scales with clients under
//! MVCC while lock waits stay near zero; the 2PL arm burns time in the lock
//! manager as soon as writers touch hot rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bench::{banner, env_num, env_secs, run, JsonArm, Load, Op, Report, Table};
use minidb::{Database, DbConfig, Session, Value};
use rand::Rng;

const ROWS: i64 = 2_000;
const HOT_ROWS: i64 = 100;

struct ArmOutcome {
    report: Report,
    lock_waits: u64,
    /// Lock-wait micros attributed to SELECT statements (the paper's
    /// "reads are free" claim) vs DML, via the per-statement wait counter.
    read_wait_micros: u64,
    write_wait_micros: u64,
    mvcc_reads: u64,
    /// Prometheus text captured before the database is dropped.
    metrics: String,
}

fn build_db(mvcc: bool) -> Database {
    let mut config = DbConfig::dlfm_tuned();
    config.mvcc = mvcc;
    config.lock_timeout = Duration::from_millis(500);
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, plays BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_media_id ON media (id)").unwrap();
    s.exec("CREATE INDEX ix_media_plays ON media (plays)").unwrap();
    db.set_table_stats("media", 1_000_000).unwrap();
    db.set_index_stats("ix_media_id", 1_000_000).unwrap();
    db.set_index_stats("ix_media_plays", 1_000_000).unwrap();
    for id in 0..ROWS {
        s.exec_params(
            "INSERT INTO media (id, title, plays) VALUES (?, ?, 0)",
            &[Value::Int(id), Value::str(format!("clip-{id:05}"))],
        )
        .unwrap();
    }
    db
}

fn run_arm(mvcc: bool, clients: usize, duration: Duration) -> ArmOutcome {
    let db = build_db(mvcc);
    let lock0 = db.lock_metrics().snapshot();
    let mvcc_reads0 = db.mvcc_reads_total();

    let read_wait = AtomicU64::new(0);
    let write_wait = AtomicU64::new(0);
    let report = run(&Load::new(clients, duration, 13), |_| {
        let (mut s, read_wait, write_wait) = (Session::new(&db), &read_wait, &write_wait);
        move |rng| {
            let op = rng.gen_range(0..100u32);
            let (r, waited, done) = if op < 95 {
                // Reads concentrate on a hot slice of the library, the
                // rows writers are hitting at the same time.
                let id = if op < 60 { rng.gen_range(0..HOT_ROWS) } else { rng.gen_range(0..ROWS) };
                let r =
                    s.query("SELECT id, title, plays FROM media WHERE id = ?", &[Value::Int(id)]);
                (r.map(drop), read_wait, Op::Select)
            } else {
                // Writers hit the same hot slice readers camp on. The
                // written value is spread out so ix_media_plays key locks
                // stay per-row: the contention under test is
                // reader-vs-writer, not incidental key collisions.
                let id = rng.gen_range(0..HOT_ROWS);
                let plays = rng.gen_range(0..1_000_000_000i64);
                let r = s.exec_params(
                    "UPDATE media SET plays = ? WHERE id = ?",
                    &[Value::Int(plays), Value::Int(id)],
                );
                (r.map(drop), write_wait, Op::Update)
            };
            waited.fetch_add(minidb::lock::take_stmt_lock_wait(), Ordering::Relaxed);
            r?;
            Ok(done)
        }
    });
    let lock = db.lock_metrics().snapshot().delta(&lock0);
    ArmOutcome {
        report,
        lock_waits: lock.waits,
        read_wait_micros: read_wait.into_inner(),
        write_wait_micros: write_wait.into_inner(),
        mvcc_reads: db.mvcc_reads_total() - mvcc_reads0,
        metrics: db.metrics_text(),
    }
}

fn main() {
    banner(
        "E13",
        "read-heavy media library: MVCC snapshot reads vs 2PL locking reads",
        "reads take no row/key locks under MVCC => read throughput scales with clients and lock waits vanish",
    );
    let duration = env_secs("RUN_SECS", 3.0);
    let max_clients = env_num("CLIENTS", 8).max(1);
    let mut sweep = vec![1usize];
    while *sweep.last().unwrap() < max_clients {
        sweep.push((sweep.last().unwrap() * 2).min(max_clients));
    }
    println!(
        "95/5 read/write mix, {ROWS} rows ({HOT_ROWS} hot), clients {sweep:?}, {duration:?}\n"
    );

    let t = Table::new(&[
        ("clients", 8),
        ("mvcc", 6),
        ("ops/sec", 10),
        ("p50 us", 9),
        ("p95 us", 9),
        ("p99 us", 9),
        ("lock waits", 11),
        ("rd wait us", 12),
        ("wr wait us", 12),
        ("mvcc reads", 11),
    ]);
    let mut arms = Vec::new();
    let mut peak = [0.0f64; 2]; // [2pl, mvcc] best ops/sec across the sweep
    let mut read_wait_at_max = [0u64; 2];
    let mut mvcc_single = 0.0f64;
    let mut mvcc_max = 0.0f64;
    let mut mvcc_metrics = String::new();
    for &clients in &sweep {
        for mvcc in [false, true] {
            let o = run_arm(mvcc, clients, duration);
            let ops_per_sec = o.report.per_sec();
            let r = o.report.latency.report();
            t.row(&[
                &clients.to_string(),
                if mvcc { "ON" } else { "OFF" },
                &format!("{ops_per_sec:.0}"),
                &r.p50.to_string(),
                &r.p95.to_string(),
                &r.p99.to_string(),
                &o.lock_waits.to_string(),
                &o.read_wait_micros.to_string(),
                &o.write_wait_micros.to_string(),
                &o.mvcc_reads.to_string(),
            ]);
            let slot = mvcc as usize;
            peak[slot] = peak[slot].max(ops_per_sec);
            if clients == *sweep.last().unwrap() {
                read_wait_at_max[slot] = o.read_wait_micros;
            }
            if mvcc && clients == 1 {
                mvcc_single = ops_per_sec;
            }
            if mvcc && clients == *sweep.last().unwrap() {
                mvcc_max = ops_per_sec;
                mvcc_metrics = o.metrics.clone();
            }
            arms.push(
                JsonArm::from_hist(
                    format!("{}/{}c", if mvcc { "mvcc" } else { "2pl" }, clients),
                    ops_per_sec,
                    &o.report.latency,
                )
                .with("reads", o.report.selects as f64)
                .with("writes", o.report.updates as f64)
                .with("lock_waits", o.lock_waits as f64)
                .with("read_wait_micros", o.read_wait_micros as f64)
                .with("write_wait_micros", o.write_wait_micros as f64)
                .with("mvcc_reads", o.mvcc_reads as f64),
            );
        }
    }
    let wait_ratio = read_wait_at_max[0] as f64 / read_wait_at_max[1].max(1) as f64;
    let scaling = mvcc_max / mvcc_single.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Throughput can only scale with clients when there are cores to run
    // them; on a single-core host the claim rests on the read-wait ratio.
    let scaling_ok = scaling > 1.5 || (cores == 1 && peak[1] >= peak[0]);
    println!(
        "\nverdict: MVCC read path peaks at {:.0} ops/sec vs {:.0} under 2PL; \
         {}x single-client throughput at {} clients ({cores} cores); \
         read lock-wait micros reduced {:.0}x ({} -> {}) at full load ({}).",
        peak[1],
        peak[0],
        format_args!("{scaling:.1}"),
        sweep.last().unwrap(),
        wait_ratio,
        read_wait_at_max[0],
        read_wait_at_max[1],
        if scaling_ok && wait_ratio >= 10.0 {
            "REPRODUCED"
        } else {
            "inconclusive at this scale — raise RUN_SECS/CLIENTS"
        }
    );
    bench::write_json_summary("E13", "MVCC snapshot reads vs 2PL locking reads", &arms);
    // Dump the full-load MVCC arm: the configuration under study, with the
    // new minidb_mvcc_* / minidb_lock_shard_* families populated.
    bench::dump_metrics(&mvcc_metrics);
}
