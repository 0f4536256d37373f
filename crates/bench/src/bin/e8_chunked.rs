//! E8 — long-running utility transactions and chunked local commits
//! (paper §4).
//!
//! "Load and reconcile utilities tend to run for a long time ... there is
//! potential for running out of system resources such as log file ... we
//! put intelligence in DLFM to recognize such transactions and to do local
//! commit after finishing processing of each piece."
//!
//! We bulk-load N links in ONE host transaction with the DLFM's local log
//! capped, sweeping the chunk size: no chunking must die with LOG FULL;
//! chunk sizes below the capacity must succeed with a bounded active log
//! window. The same mechanism is shown for the Delete-Group daemon's batch
//! size. Chunk commits are lazy: the "log forces" column counts the forces
//! from the first link through the Prepare's ack — one, the Prepare's own,
//! however many chunks there were.

use std::time::Duration;

use bench::{banner, env_num, Stand, Table};
use dlfm::{AccessControl, DbErrorKind, DlfmConfig, DlfmError, DlfmRequest, DlfmResponse};

const LOG_CAPACITY: usize = 800;

struct ArmOutcome {
    ok: bool,
    log_full: bool,
    chunk_commits: u64,
    /// Log forces from the first link through the Prepare (or the failure).
    load_forces: u64,
    peak_window: usize,
    links_done: usize,
    /// Prometheus text captured before the stand is torn down.
    metrics: String,
}

fn run_arm(chunk: Option<usize>, files: usize) -> ArmOutcome {
    let mut config = DlfmConfig {
        chunk_commit_every: chunk,
        daemon_poll_interval: Duration::from_millis(2),
        ..DlfmConfig::default()
    };
    config.db.log_capacity_records = LOG_CAPACITY;
    config.db.lock_timeout = Duration::from_millis(500);
    let stand = Stand::new(config, AccessControl::Partial, false);
    let conn = stand.server.connector().connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap();

    let xid = 77;
    let forces_before = stand.server.db().wal_forces_total();
    let mut peak = 0usize;
    let mut log_full = false;
    let mut links_done = 0usize;
    for i in 0..files {
        let path = format!("/load/f{i:05}");
        stand.fs.create(&path, "loader", b"x").unwrap();
        let resp = conn
            .call(DlfmRequest::LinkFile {
                xid,
                rec_id: 1_000 + i as i64,
                grp_id: stand.grp_id,
                filename: path,
                in_backout: false,
            })
            .unwrap();
        peak = peak.max(stand.server.db().log_active_window());
        match resp {
            DlfmResponse::Ok => links_done += 1,
            DlfmResponse::Err(DlfmError::Db { kind: DbErrorKind::LogFull, .. }) => {
                log_full = true;
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let prepared = !log_full
        && matches!(
            conn.call(DlfmRequest::Prepare { xid }).unwrap(),
            DlfmResponse::Prepared { .. }
        );
    let load_forces = stand.server.db().wal_forces_total() - forces_before;
    let ok = prepared && conn.call(DlfmRequest::Commit { xid }).unwrap() == DlfmResponse::Ok;
    if log_full {
        let _ = conn.call(DlfmRequest::Abort { xid });
    }
    ArmOutcome {
        ok,
        log_full,
        chunk_commits: stand.server.metrics().snapshot().chunk_commits,
        load_forces,
        peak_window: peak,
        links_done,
        metrics: stand.server.metrics_text(),
    }
}

fn main() {
    banner(
        "E8",
        "chunked local commits for long-running utilities",
        "a monolithic load transaction exhausts the log; committing every N records bounds the active window",
    );
    let files = env_num("SCALE", 1) * 1500;
    println!("bulk load of {files} links, DLFM log capacity {LOG_CAPACITY} records\n");

    let t = Table::new(&[
        ("chunk size N", 16),
        ("result", 10),
        ("links done", 12),
        ("chunk commits", 14),
        ("log forces", 11),
        ("peak log win", 14),
        ("capacity", 10),
    ]);
    let mut no_chunk_failed = false;
    let mut chunked_ok = true;
    let mut last_metrics = String::new();
    let mut arms = Vec::new();
    for chunk in [None, Some(1000), Some(250), Some(50), Some(10)] {
        let arm_started = std::time::Instant::now();
        let o = run_arm(chunk, files);
        let arm_elapsed = arm_started.elapsed();
        last_metrics = o.metrics.clone();
        let label = match chunk {
            None => "none (1 txn)".to_string(),
            Some(n) => n.to_string(),
        };
        arms.push(bench::JsonArm {
            label: format!("chunk={label}"),
            ops_per_sec: o.links_done as f64 / arm_elapsed.as_secs_f64().max(1e-9),
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            extra: vec![
                ("ok".into(), if o.ok { 1.0 } else { 0.0 }),
                ("log_full".into(), if o.log_full { 1.0 } else { 0.0 }),
                ("links_done".into(), o.links_done as f64),
                ("chunk_commits".into(), o.chunk_commits as f64),
                ("load_forces".into(), o.load_forces as f64),
                ("peak_log_window".into(), o.peak_window as f64),
            ],
        });
        t.row(&[
            &label,
            if o.ok {
                "OK"
            } else if o.log_full {
                "LOG FULL"
            } else {
                "failed"
            },
            &o.links_done.to_string(),
            &o.chunk_commits.to_string(),
            &o.load_forces.to_string(),
            &o.peak_window.to_string(),
            &LOG_CAPACITY.to_string(),
        ]);
        match chunk {
            None => no_chunk_failed = o.log_full,
            Some(n) if n * 2 < LOG_CAPACITY => chunked_ok &= o.ok && o.peak_window <= LOG_CAPACITY,
            Some(_) => {}
        }
    }
    println!(
        "\nverdict: {}",
        if no_chunk_failed && chunked_ok {
            "REPRODUCED — the monolithic transaction hits LOG FULL; chunked commits keep the \
             active window bounded and the load completes (paper: 'we issue commits to local \
             DB2 periodically after processing every N records')"
        } else {
            "inconclusive — adjust SCALE/LOG capacity"
        }
    );
    bench::write_json_summary("E8", "chunked local commits", &arms);
    bench::dump_metrics(&last_metrics);
}
