//! E11 — group commit: commit throughput vs committer concurrency.
//!
//! The paper's run-time cost is dominated by synchronous commit processing:
//! every link/unlink hardens via a local-database commit at prepare time
//! and again in phase 2 (§3.2.2, §3.3), so DLFM throughput is gated by how
//! fast minidb can force its log. With per-committer forces, N concurrent
//! committers pay N fsyncs where one would do; group commit lets one
//! leader's force cover every committer waiting at that moment.
//!
//! This bench drives a raw `minidb::Database` at a fixed nonzero force
//! latency (`FORCE_MS`, default 1 ms — a fast year-2000 log disk) and
//! sweeps committer concurrency 1→32 in both modes, reporting commit
//! throughput, p50/p95 commit latency, and the forces-vs-commits counters
//! that show the batching directly.
//!
//! Env: `RUN_SECS` per arm (default 1.0), `CLIENTS` caps the thread sweep
//! (default 32), `FORCE_MS` force latency in milliseconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bench::{banner, env_num, env_secs, row, JsonArm};
use minidb::{Database, DbConfig, Session, Value};

struct ArmResult {
    commits: u64,
    elapsed: Duration,
    latency: obs::Histogram,
    forces: u64,
    wal_commits: u64,
    batch_p95: u64,
    metrics: String,
}

impl ArmResult {
    fn per_sec(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }
}

fn run_arm(
    group_commit: bool,
    threads: usize,
    force_latency: Duration,
    run: Duration,
) -> ArmResult {
    let mut config = DbConfig::dlfm_tuned();
    config.log_force_latency = force_latency;
    config.group_commit = group_commit;
    let db = Database::new(config);
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)").unwrap();
    // The DDL itself forced; measure the commit workload from zero.
    let forces0 = db.wal_forces_total();
    let commits0 = db.wal_commits_total();

    let latency = Arc::new(obs::Histogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = db.clone();
        let latency = latency.clone();
        let stop = stop.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = Session::new(&db);
            let mut commits = 0u64;
            let mut i = 0i64;
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let began = Instant::now();
                if s.begin().is_err() {
                    break;
                }
                let id = (t as i64) * 1_000_000 + i;
                i += 1;
                if s.exec_params(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    &[Value::Int(id), Value::Int(0)],
                )
                .is_err()
                {
                    s.rollback();
                    break;
                }
                if s.commit().is_err() {
                    break;
                }
                latency.record_micros(began.elapsed());
                commits += 1;
            }
            commits
        }));
    }
    start.wait();
    let measuring = Instant::now();
    std::thread::sleep(run);
    stop.store(true, Ordering::Relaxed);
    let commits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = measuring.elapsed();
    ArmResult {
        commits,
        elapsed,
        latency: latency.as_ref().clone(),
        forces: db.wal_forces_total() - forces0,
        wal_commits: db.wal_commits_total() - commits0,
        batch_p95: db.wal_force_batch_hist().report().p95,
        metrics: db.metrics_text(),
    }
}

fn main() {
    banner(
        "E11",
        "group commit: one log force covers many committers",
        "synchronous commit processing dominates DLFM cost; per-committer forces pay N fsyncs where one would do",
    );
    let run = env_secs("RUN_SECS", 1.0);
    let max_threads = env_num("CLIENTS", 32);
    let force_ms = env_num("FORCE_MS", 1);
    let force_latency = Duration::from_millis(force_ms as u64);
    println!(
        "force latency {force_ms} ms, {:.2} s per arm, closed-loop single-row insert+commit per thread\n",
        run.as_secs_f64()
    );

    let w = [8, 8, 12, 10, 10, 10, 10, 10];
    row(
        &["mode", "threads", "commits/s", "p50 ms", "p95 ms", "forces", "commits", "batch p95"],
        &w,
    );
    row(
        &["----", "-------", "---------", "------", "------", "------", "-------", "---------"],
        &w,
    );

    let sweep: Vec<usize> =
        [1usize, 2, 4, 8, 16, 32].iter().copied().filter(|&t| t <= max_threads).collect();
    let mut arms = Vec::new();
    let mut speedup_at_8 = None;
    let mut grouped_batches = true;
    let mut grouped_metrics = String::new();
    for &threads in &sweep {
        let mut per_mode = [0.0f64; 2];
        for (slot, grouped) in [(0usize, false), (1usize, true)] {
            let r = run_arm(grouped, threads, force_latency, run);
            per_mode[slot] = r.per_sec();
            let rep = r.latency.report();
            let mode = if grouped { "grouped" } else { "serial" };
            row(
                &[
                    mode,
                    &threads.to_string(),
                    &format!("{:.0}", r.per_sec()),
                    &format!("{:.2}", rep.p50 as f64 / 1000.0),
                    &format!("{:.2}", rep.p95 as f64 / 1000.0),
                    &r.forces.to_string(),
                    &r.wal_commits.to_string(),
                    &r.batch_p95.to_string(),
                ],
                &w,
            );
            arms.push(
                JsonArm::from_hist(format!("{mode}/{threads}thr"), r.per_sec(), &r.latency)
                    .with("threads", threads as f64)
                    .with("wal_forces", r.forces as f64)
                    .with("wal_commits", r.wal_commits as f64),
            );
            if grouped && threads >= 8 {
                grouped_batches &= r.forces < r.wal_commits;
                grouped_metrics = r.metrics;
                println!(
                    "         wal_forces_total {} < commits_total {}: {}",
                    r.forces,
                    r.wal_commits,
                    if r.forces < r.wal_commits { "yes (batched)" } else { "NO" }
                );
            }
        }
        if threads >= 8 && speedup_at_8.is_none() && per_mode[0] > 0.0 {
            speedup_at_8 = Some(per_mode[1] / per_mode[0]);
        }
    }

    match speedup_at_8 {
        Some(x) => println!(
            "\nverdict: {} — grouped/serial throughput at >=8 committers: {x:.1}x \
             (target >=3x), one force covering many commits: {}",
            if x >= 3.0 && grouped_batches { "REPRODUCED" } else { "inconclusive" },
            if grouped_batches { "confirmed" } else { "not observed" }
        ),
        None => println!("\nverdict: inconclusive — raise CLIENTS to at least 8"),
    }

    bench::write_json_summary("E11", "group commit vs serial forces", &arms);
    bench::dump_metrics(&grouped_metrics);
}
