//! E9 — the Archive table and its deadlocks (paper §3.4).
//!
//! "The main purpose behind the archive table is to avoid contention in the
//! main metadata table, the File table ... Because multiple indexes are
//! defined on the Archive table and size of the Archive table is small
//! (entry gets deleted as soon as it is archived), deadlocks were
//! encountered between child agent and Copy Daemon while accessing the
//! Archive table. Those deadlocks were eliminated by disabling the next key
//! locking feature."
//!
//! We run the copy pipeline hard (clients linking recovery-managed files =
//! child agents inserting into `dfm_archive` in phase 2, the Copy daemon
//! deleting entries as it archives) with next-key locking ON vs OFF and
//! measure the agent↔daemon conflicts and the archive throughput.

use std::time::Duration;

use bench::drivers::{DlfmClients, OpMix};
use bench::{banner, env_num, env_secs, per_1k, run, Load, Stand, Table};
use dlfm::{AccessControl, DlfmConfig};

struct ArmOutcome {
    tps: f64,
    rollbacks_per_1k: f64,
    phase2_retries: u64,
    archived: u64,
    lm_deadlocks: u64,
    lock_waits: u64,
    lock_wait_micros: u64,
    /// Prometheus text captured before the stand is torn down.
    metrics: String,
}

fn run_arm(next_key: bool, mvcc: bool, clients: usize, duration: Duration) -> ArmOutcome {
    let mut config = DlfmConfig::default();
    config.db.lock_timeout = Duration::from_millis(200);
    config.db.mvcc = mvcc;
    // 5 ms poll: the queue accumulates a few entries between drains, so
    // each Copy-daemon pass scans a real batch — the §3.4 interference
    // pattern — instead of degenerating into empty-queue polling.
    config.daemon_poll_interval = Duration::from_millis(5);
    config.commit_retry_backoff = Duration::from_millis(1);
    // Recovery on: every committed link queues an archive copy.
    let stand = Stand::new(config, AccessControl::Full, true);
    stand.server.db().set_next_key_locking(next_key);
    // Insert-heavy: maximum archive-queue traffic.
    let mix = OpMix { insert_pct: 70, update_pct: 0, delete_pct: 10, select_pct: 20 };
    let apps = DlfmClients::new(stand.server.connector(), &stand.fs, stand.grp_id, mix);
    let report = run(&Load::new(clients, duration, 9), |c| apps.client(c));
    // Let the Copy daemon drain what's left.
    std::thread::sleep(Duration::from_millis(300));
    let m = stand.server.metrics().snapshot();
    let lock = stand.server.db().lock_metrics().snapshot();
    ArmOutcome {
        tps: report.per_sec(),
        rollbacks_per_1k: per_1k(report.forced_rollbacks(), report.committed().max(1)),
        phase2_retries: m.phase2_retries,
        archived: m.files_archived,
        lm_deadlocks: lock.deadlocks,
        lock_waits: lock.waits,
        lock_wait_micros: stand.server.db().lock_wait_hist().sum(),
        metrics: stand.server.metrics_text(),
    }
}

fn main() {
    banner(
        "E9",
        "Archive-table contention: child agents vs the Copy daemon",
        "small multi-index archive queue + next-key locking => agent/daemon deadlocks; disabling next-key locking removes them",
    );
    let duration = env_secs("RUN_SECS", 5.0);
    let clients = env_num("CLIENTS", 12);
    println!("{clients} clients, insert-heavy, Copy daemon draining continuously, {duration:?}\n");

    let t = Table::new(&[
        ("next-key", 10),
        ("mvcc", 6),
        ("txns/sec", 10),
        ("rollbacks/1k", 14),
        ("phase2 retries", 16),
        ("archived", 10),
        ("deadlocks", 11),
        ("lock waits", 12),
        ("wait micros", 13),
    ]);
    // 2PL-only arms isolate the next-key variable; the MVCC arm is the
    // shipping configuration (snapshot reads + next-key off).
    let on = run_arm(true, false, clients, duration);
    let off = run_arm(false, false, clients, duration);
    let mvcc = run_arm(false, true, clients, duration);
    for (nk, mv, o) in [("ON", "OFF", &on), ("OFF", "OFF", &off), ("OFF", "ON", &mvcc)] {
        t.row(&[
            nk,
            mv,
            &format!("{:.0}", o.tps),
            &format!("{:.2}", o.rollbacks_per_1k),
            &o.phase2_retries.to_string(),
            &o.archived.to_string(),
            &o.lm_deadlocks.to_string(),
            &o.lock_waits.to_string(),
            &o.lock_wait_micros.to_string(),
        ]);
    }
    // Every insert into the small archive queue takes key + next-key locks
    // on its three indexes under next-key locking; phase-2 commits and the
    // Copy daemon serialise on them. (Full DB2 exhibited outright
    // agent/daemon deadlocks here; our simplified KVL acquires index locks
    // in a uniform order, so the pathology shows up as blocking and lost
    // throughput instead — the same deadlock mechanism is demonstrated in
    // E2 where access paths invert the order.)
    println!(
        "\nverdict: next-key locking on the archive queue costs {:.0}% of copy-pipeline \
         throughput and causes {}x the lock waits ({}); the paper's fix (disable next-key \
         locking) removes the agent/Copy-daemon interference.",
        100.0 * (1.0 - on.tps / off.tps.max(1e-9)),
        if off.lock_waits == 0 { on.lock_waits } else { on.lock_waits / off.lock_waits.max(1) },
        if on.tps < off.tps * 0.8 && on.lock_waits > off.lock_waits * 2 {
            "REPRODUCED"
        } else {
            "inconclusive at this scale — raise RUN_SECS/CLIENTS"
        }
    );
    println!(
        "mvcc: snapshot reads cut lock-wait micros {:.0}x vs the 2PL blowup arm \
         (next-key ON: {} -> {}) and {:.1}x vs the matched 2PL arm (next-key OFF: \
         {} -> {}) — the Copy daemon's queue scan no longer locks against phase-2 \
         inserts. Residual waits are writer-writer; on few-core hosts one \
         descheduled holder can swing the matched ratio between runs.",
        on.lock_wait_micros as f64 / mvcc.lock_wait_micros.max(1) as f64,
        on.lock_wait_micros,
        mvcc.lock_wait_micros,
        off.lock_wait_micros as f64 / mvcc.lock_wait_micros.max(1) as f64,
        off.lock_wait_micros,
        mvcc.lock_wait_micros,
    );
    // Dump the contended (next-key ON) arm: the pathology under study.
    bench::dump_metrics(&on.metrics);
}
