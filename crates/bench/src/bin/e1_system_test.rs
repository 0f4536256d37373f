//! E1 — the headline system test (paper abstract, §3.2.1, §5).
//!
//! "We were able to run 100-client workload for 24 hours without much
//! deadlock/timeout problem in system test. Also, the system achieves
//! insert rate of 300 per minute and 150 updates per minute."
//!
//! We run the same shape at laptop scale: 100 closed-loop clients through
//! the full host-database stack with all the paper's fixes applied
//! (next-key locking off, hand-crafted statistics, synchronous commit,
//! 60 s — here scaled — timeouts). To land in the neighbourhood of the
//! paper's *absolute* rates we model ~1999 I/O: a per-commit log force
//! latency and per-client think time. The claims under test:
//!
//! 1. long stable run with (nearly) no deadlocks/timeouts;
//! 2. insert rate ≈ 2× update rate (updates do twice the datalink work);
//! 3. rates in the low hundreds per minute with period hardware latencies.

use std::time::Duration;

use bench::drivers::{HostClients, OpMix};
use bench::{banner, env_num, env_secs, run, Load, Table};
use datalinks::Deployment;
use dlfm::AccessControl;
use hostdb::DatalinkSpec;

fn main() {
    banner(
        "E1",
        "100-client system test",
        "stable long run; ~300 inserts/min and ~150 updates/min (1999 hardware)",
    );
    let clients = env_num("CLIENTS", 100);
    let duration = env_secs("RUN_SECS", 30.0);

    // The tuned configuration the paper converged on.
    let mut dlfm_config = dlfm::DlfmConfig::default();
    dlfm_config.db.lock_timeout = Duration::from_secs(6); // 60 s scaled 10x down
                                                          // Model ~1999 hardware: each local log force costs a disk write.
    dlfm_config.db.log_force_latency = Duration::from_millis(10);
    let mut host_config = hostdb::HostConfig::default();
    host_config.db.lock_timeout = Duration::from_secs(6);
    host_config.db.log_force_latency = Duration::from_millis(10);
    // DB2's insert next-key locks are instant-duration; our simplified KVL
    // holds them to commit, which over-penalises the host's concurrent
    // inserts. Turn them off on the host side (the DLFM side is the tuned
    // configuration under test).
    host_config.db.next_key_locking = false;

    let dep = Deployment::new("fs1", dlfm_config, host_config);
    dep.archive.set_latency(Duration::from_millis(2));
    let mut s = dep.host.session();
    s.create_table(
        "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
        &[DatalinkSpec { column: "clip".into(), access: AccessControl::Full, recovery: true }],
    )
    .unwrap();
    // The host database is tuned like the DLFM's: indexed access paths with
    // hand-set statistics (a table-scan plan here would serialise every
    // UPDATE/DELETE on whole-table X locks).
    s.exec("CREATE UNIQUE INDEX ix_media ON media (id)").unwrap();
    dep.host.db().set_table_stats("media", 1_000_000).unwrap();
    dep.host.db().set_index_stats("ix_media", 1_000_000).unwrap();
    drop(s);

    let apps = HostClients::new(&dep.host, &dep.fs, "fs1", OpMix::paper_mix(), 3);
    // Closed-loop interactive applications: the paper's 100 clients were
    // real apps, not open-loop stress generators. An 8 s think time plus
    // the modelled I/O latencies lands the offered load in the paper's
    // regime (~750 txns/min across the fleet).
    let load = Load { think: Duration::from_millis(8_000), ..Load::new(clients, duration, 1) };
    println!("{clients} clients, {:?} measured, think 8s, log force 10ms\n", duration);
    let report = run(&load, |c| apps.client(c));

    // The rule runs past the names here: pad them to its length.
    let t = Table::new(&[("metric              ", 22), ("measured  ", 14), ("paper     ", 14)]);
    t.row(&["inserts/min", &format!("{:.0}", report.inserts_per_min()), "300"]);
    t.row(&["updates/min", &format!("{:.0}", report.updates_per_min()), "150"]);
    t.row(&[
        "insert:update ratio",
        &format!("{:.2}", report.inserts_per_min() / report.updates_per_min().max(1e-9)),
        "2.00",
    ]);
    t.row(&[
        "deadlocks /1k txns",
        &format!("{:.2}", bench::per_1k(report.deadlocks, report.committed())),
        "~0",
    ]);
    t.row(&[
        "timeouts /1k txns",
        &format!("{:.2}", bench::per_1k(report.timeouts, report.committed())),
        "~0",
    ]);
    t.row(&["errors", &report.errors.to_string(), "-"]);
    println!("\nlatency: {}", bench::hist::summary(&report.latency));
    println!("total committed: {}", report.committed());

    let dlfm_metrics = dep.dlfm.metrics().snapshot();
    println!(
        "dlfm: {} links, {} unlinks, {} commits, {} phase-2 retries, {} archived",
        dlfm_metrics.links,
        dlfm_metrics.unlinks,
        dlfm_metrics.commits,
        dlfm_metrics.phase2_retries,
        dlfm_metrics.files_archived
    );
    let stable = bench::per_1k(report.forced_rollbacks(), report.committed()) < 10.0;
    println!(
        "\nverdict: run {} (forced rollbacks {:.2}/1k committed)",
        if stable {
            "STABLE — matches the paper's 'without much deadlock/timeout problem'"
        } else {
            "UNSTABLE"
        },
        bench::per_1k(report.forced_rollbacks(), report.committed())
    );
    let lr = report.latency.report();
    bench::write_json_summary(
        "E1",
        "100-client system test",
        &[bench::JsonArm {
            label: format!("{clients}clients"),
            ops_per_sec: report.per_sec(),
            p50_us: lr.p50,
            p95_us: lr.p95,
            p99_us: lr.p99,
            extra: vec![
                ("inserts_per_min".into(), report.inserts_per_min()),
                ("updates_per_min".into(), report.updates_per_min()),
                ("errors".into(), report.errors as f64),
                ("deadlocks_per_1k".into(), bench::per_1k(report.deadlocks, report.committed())),
                ("timeouts_per_1k".into(), bench::per_1k(report.timeouts, report.committed())),
            ],
        }],
    );
    bench::dump_metrics(&dep.dlfm.metrics_text());
}
