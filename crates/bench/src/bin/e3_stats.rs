//! E3 — hand-crafted optimizer statistics (paper §3.2.1, §4).
//!
//! "When the table size is small, the optimizer could still pick table scan
//! even when an index is available. To ensure that the optimizer always
//! picks the access plan we want, the statistics in the catalog are
//! manually set before DLFM's SQL programs are compiled and bound."
//! And: "issuing a runstats operation by user will overwrite the
//! hand-crafted statistics ... additional logic is put into DLFM to check
//! for changes and re-invoke the utility."
//!
//! Three parts:
//!  (a) plans: what EXPLAIN picks with fresh vs hand-crafted statistics;
//!  (b) throughput + lock traffic of a concurrent link/unlink workload
//!      under table-scan plans vs index plans;
//!  (c) the RUNSTATS hazard: overwrite, detection, re-application, rebind.

use std::time::Duration;

use bench::drivers::{DlfmClients, OpMix};
use bench::{banner, env_num, env_secs, per_1k, run, Load, Stand, Table};
use minidb::Session;

fn main() {
    banner(
        "E3",
        "cost-based optimizer vs hand-crafted statistics",
        "fresh stats => table scans => lock storms; hand-set stats + bound plans fix it",
    );
    let duration = env_secs("RUN_SECS", 4.0);
    let clients = env_num("CLIENTS", 12);

    // ---- (a) plan choice -------------------------------------------------
    println!("--- (a) access plans for the hot File-table probe ---");
    let fresh = Stand::untuned(Duration::from_millis(250));
    // Untuned: statistics were never set; next-key locking stays OFF here so
    // the measured difference is purely the access plan.
    fresh.server.db().set_next_key_locking(false);
    let mut s = Session::new(fresh.server.db());
    let plan = s.query("EXPLAIN SELECT * FROM dfm_file WHERE filename = '/f'", &[]).unwrap()[0][0]
        .to_string();
    println!("fresh statistics:        {plan}");
    let tuned = Stand::tuned(Duration::from_millis(250));
    let mut s = Session::new(tuned.server.db());
    let plan = s.query("EXPLAIN SELECT * FROM dfm_file WHERE filename = '/f'", &[]).unwrap()[0][0]
        .to_string();
    println!("hand-crafted statistics: {plan}");

    // ---- (b) concurrent throughput under each plan -----------------------
    println!("\n--- (b) concurrent link/unlink workload, {clients} clients, {duration:?} ---");
    let t = Table::new(&[
        ("stats", 16),
        ("txns/sec", 12),
        ("rollbacks/1k", 16),
        ("lock waits", 14),
        ("acquisitions", 16),
    ]);
    let mut results = Vec::new();
    for hand_crafted in [false, true] {
        let stand = if hand_crafted {
            Stand::tuned(Duration::from_millis(250))
        } else {
            let s = Stand::untuned(Duration::from_millis(250));
            s.server.db().set_next_key_locking(false); // isolate plan effect
            s
        };
        let apps =
            DlfmClients::new(stand.server.connector(), &stand.fs, stand.grp_id, OpMix::churn());
        let report = run(&Load::new(clients, duration, 5), |c| apps.client(c));
        let lock = stand.server.db().lock_metrics().snapshot();
        let tps = report.per_sec();
        t.row(&[
            if hand_crafted { "hand-crafted" } else { "fresh (TBSCAN)" },
            &format!("{tps:.0}"),
            &format!("{:.2}", per_1k(report.forced_rollbacks(), report.committed())),
            &lock.waits.to_string(),
            &lock.acquisitions.to_string(),
        ]);
        results.push(tps);
    }
    println!("\nindex plans vs table scans: {:.1}x throughput", results[1] / results[0].max(1e-9));

    // ---- (c) the RUNSTATS hazard -----------------------------------------
    println!("\n--- (c) RUNSTATS overwrites the hand-crafted statistics ---");
    let stand = Stand::tuned(Duration::from_millis(250));
    let db = stand.server.db().clone();
    let stmts = stand.server.shared().statements();
    println!("bound plan:                 {}", stmts.sel_linked.explain(&db));
    db.runstats("dfm_file").unwrap();
    println!("user runs RUNSTATS on the (small) File table ...");
    println!("hand-crafted flag now:      {}", db.stats_hand_crafted("dfm_file").unwrap());
    // A rebind *without* the guard would regress to a table scan:
    let naive = db.prepare("SELECT * FROM dfm_file WHERE filename = ?").unwrap();
    println!("naive rebind would pick:    {}", naive.explain(&db));
    db.rebind(&naive).unwrap();
    // The DLFM guard notices, re-applies the statistics, and rebinds:
    stand.server.shared().ensure_plans();
    let stmts = stand.server.shared().statements();
    println!("after DLFM stats guard:     {}", stmts.sel_linked.explain(&db));
    println!("guard re-applications:      {}", stand.server.metrics().snapshot().stats_reapplied);
    println!(
        "\nverdict: {}",
        if results[1] > results[0] {
            "REPRODUCED — index plans beat table scans under concurrency, and the guard restores them after RUNSTATS"
        } else {
            "inconclusive at this scale"
        }
    );
    bench::dump_metrics(&stand.server.metrics_text());
}
