//! E5 — the commit API must be synchronous (paper §4).
//!
//! The paper's scenario, reproduced actor for actor:
//!
//! * T1 commits; its DLFM child agent runs phase-2 commit processing, which
//!   blocks on a lock held by T2's sub-transaction in the DLFM's local
//!   database;
//! * with **asynchronous** commit the host releases T1's application, which
//!   starts T11: T11 X-locks record x in the host database, then issues a
//!   LinkFile request — and "is blocked on message send as the DLFM child
//!   is still doing the commit processing for T1";
//! * T2's host transaction then needs record x and blocks behind T11;
//! * cycle: T1-commit → T2's DLFM lock → T2's host wait on x → T11 → the
//!   busy child agent. No local detector sees it; T1's commit retries time
//!   out "forever"; only the (host) lock timeout finally breaks the cycle.
//!
//! With **synchronous** commit, T11 cannot start until T1's commit has
//! fully finished, so the cycle never forms.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bench::guard::{self, Paired};
use bench::{banner, Table};
use datalinks::Deployment;
use dlfm::AccessControl;
use hostdb::DatalinkSpec;
use minidb::{Session, Value};

struct Outcome {
    /// Did we observe the livelock window (T11 blocked, phase-2 retrying)?
    livelocked: bool,
    /// Phase-2 retries observed during the watch window.
    retries_in_window: u64,
    /// Total wall-clock until every actor finished.
    total: Duration,
    /// Prometheus text captured before the deployment is torn down.
    metrics: String,
    /// Health alerts raised by the telemetry watchdog, if one was armed.
    watch_alerts: u64,
}

fn run_arm(synchronous: bool, watchdog: bool) -> Outcome {
    let mut dlfm_config = dlfm::DlfmConfig::default();
    dlfm_config.db.lock_timeout = Duration::from_millis(300); // DLFM-side timeouts cycle fast
    dlfm_config.commit_retry_backoff = Duration::from_millis(10);
    dlfm_config.daemon_poll_interval = Duration::from_millis(5);
    let mut host_config = hostdb::HostConfig::default();
    host_config.db.lock_timeout = Duration::from_secs(5); // the paper's 60 s, scaled
    host_config.synchronous_commit = synchronous;

    let dep = Deployment::new("fs1", dlfm_config, host_config);
    // WATCHDOG=1 arms the telemetry sampler over this arm with the stock
    // rule set. Only the sync (healthy) arm is gated on zero alerts — the
    // async arm livelocks by design, so its retry storm is a true positive.
    let watch = watchdog.then(|| {
        dep.spawn_watchdog(obs::WatchConfig {
            interval: Duration::from_millis(250),
            rules: dlfm::default_watch_rules(),
            ..Default::default()
        })
    });
    let mut setup = dep.host.session();
    setup
        .create_table(
            "CREATE TABLE media (id BIGINT NOT NULL, clip DATALINK)",
            &[DatalinkSpec {
                column: "clip".into(),
                access: AccessControl::Partial,
                recovery: false,
            }],
        )
        .unwrap();
    setup.exec("CREATE TABLE acct (id BIGINT NOT NULL, bal BIGINT)").unwrap();
    setup.exec("CREATE UNIQUE INDEX ix_acct ON acct (id)").unwrap();
    setup.exec("INSERT INTO acct (id, bal) VALUES (99, 0)").unwrap();
    dep.host.db().set_table_stats("acct", 1_000_000).unwrap();
    dep.host.db().set_index_stats("ix_acct", 1_000_000).unwrap();
    dep.fs.create("/t1", "u", b"").unwrap();
    dep.fs.create("/t11", "u", b"").unwrap();
    drop(setup);

    let started = Instant::now();
    let metrics0 = dep.dlfm.metrics().snapshot();

    // --- Session A: T1 insert+link, left uncommitted for a moment. -------
    let mut a = dep.host.session();
    a.begin().unwrap();
    a.exec_params("INSERT INTO media (id, clip) VALUES (1, ?)", &[Value::str(dep.url("/t1"))])
        .unwrap();
    let t1_xid = a.xid().unwrap();

    // --- T2's DLFM-side lock: an interloper transaction in the DLFM's
    // local database queues for T1's File-table entry; it will be granted
    // the moment T1's prepare commits locally, and then blocks T1's
    // phase-2 commit processing ("T1 is blocked waiting for lock y held by
    // transaction T2"). ----------------------------------------------------
    let dlfm_db = dep.dlfm.db().clone();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let interloper = std::thread::spawn(move || {
        let mut s = Session::new(&dlfm_db);
        s.begin().unwrap();
        // Blocks behind T1's forward-processing lock; FIFO hands it to us
        // right after prepare's local commit.
        s.exec_params(
            "UPDATE dfm_file SET unlink_ts = 1 WHERE link_xid = ?",
            &[Value::Int(t1_xid)],
        )
        .unwrap();
        // Hold T1's phase-2 hostage until "T2" finishes on the host side.
        let _ = release_rx.recv_timeout(Duration::from_secs(30));
        s.rollback();
    });
    std::thread::sleep(Duration::from_millis(50));

    // --- A commits T1. Sync: blocks until phase 2 done. Async: returns
    // after posting the commit; the child agent stays busy retrying. ------
    let (a_tx, a_rx) = mpsc::channel();
    let dep_url = dep.url("/t11");
    let a_thread = std::thread::spawn(move || {
        a.commit().unwrap();
        a_tx.send("t1-committed").unwrap();
        // T11 on the same connection: lock host record x, then a datalink
        // request that must reach the (busy) child agent.
        a.begin().unwrap();
        a.exec("UPDATE acct SET bal = 1 WHERE id = 99").unwrap();
        a_tx.send("t11-holds-x").unwrap();
        a.exec_params("INSERT INTO media (id, clip) VALUES (2, ?)", &[Value::str(dep_url)])
            .unwrap();
        a.commit().unwrap();
        a_tx.send("t11-done").unwrap();
    });

    // --- Session B: T2 needs host record x; when it gets it, "T2"
    // finishes and its DLFM-side lock is released. -------------------------
    let host_b = dep.host.clone();
    let b_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let mut b = host_b.session();
        b.begin().unwrap();
        let r = b.exec("UPDATE acct SET bal = 2 WHERE id = 99");
        match r {
            Ok(_) => {
                let _ = b.commit();
            }
            Err(_) => b.rollback(), // broken by the host lock timeout
        }
        // T2 finished (either way): its DLFM lock goes away.
        let _ = release_tx.send(());
    });

    // --- Watch window: is the system making progress? ---------------------
    std::thread::sleep(Duration::from_millis(1500));
    let metrics_mid = dep.dlfm.metrics().snapshot();
    let mut events = Vec::new();
    while let Ok(e) = a_rx.try_recv() {
        events.push(e);
    }
    let t11_done = events.contains(&"t11-done");
    let retries_in_window = metrics_mid.delta(&metrics0).phase2_retries;
    let livelocked = !t11_done && retries_in_window >= 2;

    // Let everything drain (the host lock timeout breaks the async cycle).
    a_thread.join().unwrap();
    b_thread.join().unwrap();
    interloper.join().unwrap();
    let total = started.elapsed();
    let watch_alerts = watch.as_ref().map(|w| w.alerts()).unwrap_or(0);
    Outcome { livelocked, retries_in_window, total, metrics: dep.dlfm.metrics_text(), watch_alerts }
}

/// The commit loop the journal and watch guards time: 2 000 autocommit
/// inserts into a fresh database (each one commit, i.e. one WAL force —
/// the journaled event on this path when armed), optionally with a 10 ms
/// telemetry sampler scraping the engine's full snapshot. Commits/s.
fn commit_rate(sampled: bool) -> f64 {
    const OPS: i64 = 2_000;
    let db = minidb::Database::new(minidb::DbConfig::dlfm_tuned());
    let _watch = sampled.then(|| {
        let scraped = db.clone();
        obs::Watchdog::new(obs::WatchConfig {
            interval: Duration::from_millis(10),
            rules: dlfm::default_watch_rules(),
            ..Default::default()
        })
        .provider("minidb", move || scraped.metrics_text())
        .spawn()
    });
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE j (id BIGINT NOT NULL, n INTEGER)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_j ON j (id)").unwrap();
    let started = Instant::now();
    for i in 0..OPS {
        s.exec_params("INSERT INTO j (id, n) VALUES (?, 0)", &[Value::Int(i)]).unwrap();
    }
    OPS as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    banner(
        "E5",
        "synchronous vs asynchronous commit API",
        "asynchronous commit forms a distributed deadlock invisible to local detectors; \
         synchronous commit prevents it (and the timeout is the only cure)",
    );
    // Flight-recorder guard: the journal's disarmed fast path is claimed
    // to be one relaxed atomic load. It runs before the scenario arms and
    // the wire guard, which start a `DlfmServer` (that arms the journal).
    let journal = Paired::run(|armed| {
        if armed {
            obs::journal::arm();
        }
        let rate = commit_rate(false);
        obs::journal::disarm();
        rate
    });
    journal.print(
        "e5",
        "journal guard",
        "commits/s",
        ("armed", "disarmed"),
        "the disarmed fast path is one relaxed load",
    );
    // Telemetry-sampler guard: the watchdog samples on its own thread, so
    // the workload should only pay for the counters it already maintains.
    let watch = Paired::run(commit_rate);
    watch.print(
        "e5",
        "watch guard",
        "commits/s",
        ("with a 10 ms sampler", "bare"),
        "scraping runs on the sampler thread",
    );
    let wire = guard::wire_trace();
    wire.print(
        "e5",
        "wire-trace guard",
        "links/s",
        ("propagation on", "propagation off"),
        "stamping is two header fields per frame over loopback TCP",
    );
    wire.gate("e5");
    let watchdog_on = std::env::var("WATCHDOG").as_deref() == Ok("1");
    if watchdog_on {
        println!("WATCHDOG=1: telemetry watchdog armed on the sync arm (must stay silent)\n");
    }
    let t = Table::new(&[
        ("commit mode", 14),
        ("livelock observed", 22),
        ("phase-2 retries", 20),
        ("total time", 14),
    ]);
    let async_outcome = run_arm(false, false);
    t.row(&[
        "ASYNCHRONOUS",
        if async_outcome.livelocked { "YES (cycle formed)" } else { "no" },
        &async_outcome.retries_in_window.to_string(),
        &format!("{:.2}s", async_outcome.total.as_secs_f64()),
    ]);
    let sync_outcome = run_arm(true, watchdog_on);
    t.row(&[
        "SYNCHRONOUS",
        if sync_outcome.livelocked { "YES (cycle formed)" } else { "no" },
        &sync_outcome.retries_in_window.to_string(),
        &format!("{:.2}s", sync_outcome.total.as_secs_f64()),
    ]);
    println!(
        "\nverdict: {}",
        if async_outcome.livelocked
            && !sync_outcome.livelocked
            && sync_outcome.total < async_outcome.total
        {
            "REPRODUCED — async commit livelocks until the host lock timeout fires; \
             sync commit completes promptly (the paper's conclusion)"
        } else {
            "inconclusive — timing-sensitive; re-run"
        }
    );
    let arm = |label: &str, o: &Outcome| bench::JsonArm {
        label: label.to_string(),
        // Scenario completions per second: how quickly all actors drained.
        ops_per_sec: 1.0 / o.total.as_secs_f64().max(1e-9),
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        extra: vec![
            ("livelocked".into(), if o.livelocked { 1.0 } else { 0.0 }),
            ("phase2_retries".into(), o.retries_in_window as f64),
            ("total_secs".into(), o.total.as_secs_f64()),
            ("watch_alerts".into(), o.watch_alerts as f64),
        ],
    };
    let [journal_armed, journal_disarmed] =
        journal.arms("journal_armed", "journal_disarmed", "journal_delta_pct");
    let [watch_sampled, watch_bare] = watch.arms("watch_sampled", "watch_bare", "watch_delta_pct");
    let [wire_on, wire_off] = wire.arms("wire_trace_on", "wire_trace_off", "wire_trace_delta_pct");
    bench::write_json_summary(
        "E5",
        "synchronous vs asynchronous commit API",
        &[
            arm("async", &async_outcome),
            arm("sync", &sync_outcome),
            journal_disarmed,
            journal_armed,
            watch_bare,
            watch_sampled,
            wire_on,
            wire_off,
        ],
    );
    bench::dump_metrics(&sync_outcome.metrics);
    // With WATCHDOG=1 the sync arm is a correctness gate: the healthy arm
    // must not trip any rule (the async arm's alerts are true positives).
    if watchdog_on && sync_outcome.watch_alerts > 0 {
        eprintln!(
            "e5: watchdog raised {} false-positive alert(s) on the healthy sync arm",
            sync_outcome.watch_alerts
        );
        std::process::exit(1);
    }
}
