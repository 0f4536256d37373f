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

use std::sync::Arc;
use std::time::Duration;

use bench::{banner, env_num, env_secs, per_1k, row, Stand};
use workload::{run_dlfm_workload, DlfmWorkloadConfig, IdSource, OpMix};

fn run_arm(next_key: bool, clients: usize, duration: Duration) -> (f64, f64, f64, u64, String) {
    let stand = Stand::tuned(Duration::from_millis(250));
    // Isolate the next-key variable; everything else stays tuned.
    stand.server.db().set_next_key_locking(next_key);
    // Preload some linked files so updates/deletes contend immediately.
    let ids = Arc::new(IdSource::new(1_000));
    let config = DlfmWorkloadConfig {
        clients,
        duration,
        mix: OpMix::churn(),
        seed: 11,
        grp_id: stand.grp_id,
        base_dir: "/wl".into(),
    };
    let report = run_dlfm_workload(&stand.server.connector(), &stand.fs, &config, &ids);
    let lock = stand.server.db().lock_metrics().snapshot();
    (
        report.committed() as f64 / report.elapsed.as_secs_f64(),
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

    let w = [8, 10, 14, 18, 18, 14];
    row(&["clients", "next-key", "txns/sec", "deadlocks/1k", "timeouts/1k", "lm deadlocks"], &w);
    row(&["-------", "--------", "--------", "------------", "-----------", "------------"], &w);
    let mut on_rate = vec![];
    let mut off_rate = vec![];
    let mut last_metrics = String::new();
    for &clients in &clients_list {
        for next_key in [true, false] {
            let (tps, dl_per_1k, to_per_1k, lm_deadlocks, metrics) =
                run_arm(next_key, clients, duration);
            last_metrics = metrics;
            row(
                &[
                    &clients.to_string(),
                    if next_key { "ON" } else { "OFF" },
                    &format!("{tps:.0}"),
                    &format!("{dl_per_1k:.2}"),
                    &format!("{to_per_1k:.2}"),
                    &lm_deadlocks.to_string(),
                ],
                &w,
            );
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
