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

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench::{banner, env_num, env_secs, per_1k, run, Load, Op, Table};
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
/// (simulated file-system) work per row, until `stop`.
fn daemon(db: &Database, batch: usize, stop: &AtomicBool) {
    let mut s = Session::new(db);
    let mut cursor = 0i64;
    while !stop.load(Ordering::SeqCst) {
        let _ = bench::in_txn(&mut s, Op::Update, |s| {
            for k in 0..batch as i64 {
                let id = (cursor + k) % (ROWS / 2);
                s.exec_params("UPDATE meta SET state = 1 WHERE id = ?", &[Value::Int(id)])?;
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        });
        cursor = (cursor + batch as i64) % (ROWS / 2);
    }
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
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        scope.spawn(|| daemon(&db, batch, &stop));
        // Clients work on the upper half of the table; the daemon only
        // touches the lower half. With row locks the two never conflict —
        // only a table-level escalation can stall clients.
        let report = run(&Load::new(clients, duration, 0), |c| {
            let (mut s, mut n) = (Session::new(&db), c as i64);
            move |_| {
                n = ROWS / 2 + ((n + 37) % (ROWS / 2));
                s.exec_params("UPDATE meta SET state = 2 WHERE id = ?", &[Value::Int(n)])?;
                Ok(Op::Update)
            }
        });
        stop.store(true, Ordering::SeqCst);
        report
    });
    let lock = db.lock_metrics().snapshot();
    let aborts = report.forced_rollbacks();
    ArmOutcome {
        client_tps: report.per_sec(),
        timeouts_per_1k: per_1k(aborts, (report.committed() + aborts).max(1)),
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

    let t = Table::new(&[
        ("arm", 26),
        ("batch", 10),
        ("client txns/sec", 16),
        ("client aborts/1k", 18),
        ("escalations", 13),
    ]);
    let arms: [(&str, Option<usize>, usize); 3] = [
        ("threshold 100, batch 600", Some(100), 600),
        ("escalation off, batch 600", None, 600),
        ("threshold 100, batch 25", Some(100), 25),
    ];
    let mut results = Vec::new();
    for (label, threshold, batch) in arms {
        let o = run_arm(threshold, batch, clients, duration);
        t.row(&[
            label,
            &batch.to_string(),
            &format!("{:.0}", o.client_tps),
            &format!("{:.1}", o.timeouts_per_1k),
            &o.escalations.to_string(),
        ]);
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
