//! E2 — next-key locking ablation (paper §3.2.1, §4).
//!
//! "When multiple insert and/or delete entry operations are being done
//! concurrently, different index may be used by different DLFM processes to
//! access the File table. This results in frequent deadlocks because of the
//! next key locking feature ... Since repeatable read is not really needed
//! by DLFM processes, that feature is turned off."
//!
//! Same churn workload against the DLFM's File table (6 indexes) with
//! next-key locking ON vs OFF. Expectation: ON shows materially more
//! deadlocks/timeouts per 1k transactions and lower throughput; OFF is
//! (nearly) deadlock-free.

use std::time::Duration;

use bench::drivers::{DlfmClients, OpMix};
use bench::{banner, env_num, env_secs, per_1k, run, Load, Stand, Table};

fn run_arm(next_key: bool, clients: usize, duration: Duration) -> (f64, f64, f64, u64, String) {
    let stand = Stand::tuned(Duration::from_millis(250));
    // Isolate the next-key variable; everything else stays tuned.
    stand.server.db().set_next_key_locking(next_key);
    let apps = DlfmClients::new(stand.server.connector(), &stand.fs, stand.grp_id, OpMix::churn());
    let report = run(&Load::new(clients, duration, 11), |c| apps.client(c));
    let lock = stand.server.db().lock_metrics().snapshot();
    (
        report.per_sec(),
        per_1k(report.deadlocks + lock.deadlocks, report.committed()),
        per_1k(report.timeouts, report.committed()),
        lock.deadlocks,
        stand.server.metrics_text(),
    )
}

fn main() {
    banner(
        "E2",
        "next-key locking ablation on the File table",
        "next-key locking + multiple indexes => frequent deadlocks; turning it off removes them",
    );
    let duration = env_secs("RUN_SECS", 5.0);
    let clients_list = [4, env_num("CLIENTS", 16)];

    let t = Table::new(&[
        ("clients", 8),
        ("next-key", 10),
        ("txns/sec", 14),
        ("deadlocks/1k", 18),
        ("timeouts/1k", 18),
        ("lm deadlocks", 14),
    ]);
    let mut on_rate = vec![];
    let mut off_rate = vec![];
    let mut last_metrics = String::new();
    for &clients in &clients_list {
        for next_key in [true, false] {
            let (tps, dl_per_1k, to_per_1k, lm_deadlocks, metrics) =
                run_arm(next_key, clients, duration);
            last_metrics = metrics;
            t.row(&[
                &clients.to_string(),
                if next_key { "ON" } else { "OFF" },
                &format!("{tps:.0}"),
                &format!("{dl_per_1k:.2}"),
                &format!("{to_per_1k:.2}"),
                &lm_deadlocks.to_string(),
            ]);
            if next_key {
                on_rate.push(dl_per_1k + to_per_1k);
            } else {
                off_rate.push(dl_per_1k + to_per_1k);
            }
        }
    }
    let on: f64 = on_rate.iter().sum::<f64>() / on_rate.len() as f64;
    let off: f64 = off_rate.iter().sum::<f64>() / off_rate.len() as f64;
    println!(
        "\nverdict: forced rollbacks with next-key ON = {on:.2}/1k, OFF = {off:.2}/1k \
         ({}; paper: 'deadlocks were eliminated by disabling next key locking')",
        if on > off * 2.0 || (on > 0.5 && off < 0.1) {
            "REPRODUCED"
        } else {
            "inconclusive at this scale — raise RUN_SECS/CLIENTS"
        }
    );
    bench::dump_metrics(&last_metrics);
}
