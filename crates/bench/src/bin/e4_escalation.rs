//! E4 — lock escalation "brings the system to its knees" (paper §4).
//!
//! "When a DLFM process holds lots of row locks in a metadata table then it
//! may cause the lock escalation to table level lock. The lock escalation
//! for a high traffic table will result in timeouts for other applications.
//! The rollback operations as a result of timeouts in turn add additional
//! workload to the system. We observed that lock escalation in any of the
//! metadata tables usually brings the system to its knees. Within our
//! daemons, we are careful that they commit frequently enough so as to not
//! cause any lock escalation."
//!
//! Setup (at the metadata-table level, like the paper's daemons): a
//! daemon-style transaction updates a large batch of rows with slow
//! per-row work (file-system calls in the real system) while interactive
//! clients do single-row updates on a hot table. Arms:
//!  * big batch + low escalation threshold  => the daemon escalates to a
//!    table X lock and every client stalls/times out;
//!  * same batch, escalation disabled       => clients keep running;
//!  * small batches (frequent commits)      => no escalation, healthy, the
//!    paper's fix.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, env_num, env_secs, per_1k, row};
use minidb::{Database, DbConfig, Session, Value};

const ROWS: i64 = 1600;

fn make_db(threshold: Option<usize>) -> Database {
    let config = DbConfig {
        lock_timeout: Duration::from_millis(250),
        next_key_locking: false,
        lock_escalation_threshold: threshold,
        ..DbConfig::default()
    };
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE meta (id BIGINT NOT NULL, state BIGINT)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_meta ON meta (id)").unwrap();
    s.begin().unwrap();
    for i in 0..ROWS {
        s.exec_params("INSERT INTO meta (id, state) VALUES (?, 0)", &[Value::Int(i)]).unwrap();
    }
    s.commit().unwrap();
    db.set_table_stats("meta", 1_000_000).unwrap();
    db.set_index_stats("ix_meta", 1_000_000).unwrap();
    db
}

/// Daemon: updates `batch` consecutive rows per transaction, 1 ms of
/// (simulated file-system) work per row.
fn spawn_daemon(db: Database, batch: usize, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut s = Session::new(&db);
        let mut cursor = 0i64;
        let mut rows_processed = 0u64;
        while !stop.load(Ordering::SeqCst) {
            if s.begin().is_err() {
                break;
            }
            let mut ok = true;
            for k in 0..batch as i64 {
                let id = (cursor + k) % (ROWS / 2);
                if s.exec_params("UPDATE meta SET state = 1 WHERE id = ?", &[Value::Int(id)])
                    .is_err()
                {
                    ok = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if ok {
                let _ = s.commit();
                rows_processed += batch as u64;
            } else {
                s.rollback();
            }
            cursor = (cursor + batch as i64) % (ROWS / 2);
        }
        rows_processed
    })
}

struct ArmOutcome {
    client_tps: f64,
    timeouts_per_1k: f64,
    escalations: u64,
    /// Prometheus text captured before the arm's database is torn down.
    metrics: String,
}

fn run_arm(
    threshold: Option<usize>,
    batch: usize,
    clients: usize,
    duration: Duration,
) -> ArmOutcome {
    let db = make_db(threshold);
    // Loading the table in one transaction escalates once by itself: count
    // only what the run adds.
    let setup = db.lock_metrics().snapshot().escalations;
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = spawn_daemon(db.clone(), batch, stop.clone());

    let committed = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for c in 0..clients {
        let db = db.clone();
        let stop = stop.clone();
        let committed = committed.clone();
        let timeouts = timeouts.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = Session::new(&db);
            // Clients work on the upper half of the table; the daemon only
            // touches the lower half. With row locks the two never
            // conflict — only a table-level escalation can stall clients.
            let mut n = c as i64;
            while !stop.load(Ordering::SeqCst) {
                n = ROWS / 2 + ((n + 37) % (ROWS / 2));
                match s.exec_params("UPDATE meta SET state = 2 WHERE id = ?", &[Value::Int(n)]) {
                    Ok(_) => {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(minidb::DbError::LockTimeout { .. })
                    | Err(minidb::DbError::Deadlock { .. }) => {
                        timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
            }
        }));
    }
    let t0 = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    let _ = daemon.join();
    let elapsed = t0.elapsed().as_secs_f64();
    let lock = db.lock_metrics().snapshot();
    let committed = committed.load(Ordering::Relaxed);
    ArmOutcome {
        client_tps: committed as f64 / elapsed,
        timeouts_per_1k: per_1k(
            timeouts.load(Ordering::Relaxed),
            (committed + timeouts.load(Ordering::Relaxed)).max(1),
        ),
        escalations: lock.escalations - setup,
        metrics: db.metrics_text(),
    }
}

fn main() {
    banner(
        "E4",
        "lock escalation under a batch-heavy daemon",
        "escalation to a table lock on a hot table collapses concurrent throughput; frequent commits avoid it",
    );
    let duration = env_secs("RUN_SECS", 4.0);
    let clients = env_num("CLIENTS", 8);
    println!(
        "{ROWS}-row hot metadata table; the daemon batch-updates the lower half \
         (1ms of work per row), {clients} clients point-update the upper half \
         (disjoint rows!), {duration:?} per arm\n"
    );

    let w = [26, 10, 16, 18, 13];
    row(&["arm", "batch", "client txns/sec", "client aborts/1k", "escalations"], &w);
    row(&["---", "-----", "---------------", "----------------", "-----------"], &w);
    let arms: [(&str, Option<usize>, usize); 3] = [
        ("threshold 100, batch 600", Some(100), 600),
        ("escalation off, batch 600", None, 600),
        ("threshold 100, batch 25", Some(100), 25),
    ];
    let mut results = Vec::new();
    for (label, threshold, batch) in arms {
        let o = run_arm(threshold, batch, clients, duration);
        row(
            &[
                label,
                &batch.to_string(),
                &format!("{:.0}", o.client_tps),
                &format!("{:.1}", o.timeouts_per_1k),
                &o.escalations.to_string(),
            ],
            &w,
        );
        results.push(o);
    }
    let collapse = &results[0];
    let healthy = &results[1];
    let fixed = &results[2];
    println!(
        "\nverdict: with escalation the clients reach {:.0}% of the row-locking run's \
         throughput ({}); committing every 25 rows avoids escalation entirely \
         ({} escalations) — the paper's fix.",
        100.0 * collapse.client_tps / healthy.client_tps.max(1e-9),
        if collapse.client_tps < healthy.client_tps * 0.5 {
            "REPRODUCED — 'brings the system to its knees'"
        } else {
            "inconclusive at this scale"
        },
        fixed.escalations
    );
    // Dump the escalation-collapse arm: its counters show the pathology.
    bench::dump_metrics(&collapse.metrics);
}
