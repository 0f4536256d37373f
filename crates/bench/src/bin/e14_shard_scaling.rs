//! E14 — shard scaling: link metadata hash-partitioned across N DLFMs.
//!
//! The paper scales DataLinks by adding DLFM boxes: each file server runs
//! its own resource manager and the host coordinates them with two-phase
//! commit (§2, §4). This bench puts that architecture under a closed-loop
//! host workload and measures how committed-transaction throughput grows
//! as the *same* metadata volume is spread over 1 → 8 shards via the
//! host's [`hostdb::ShardMap`].
//!
//! Every shard models a disk-bound DLFM log device: per-shard group
//! commit is OFF and each log force costs `FORCE_MS` at the (simulated)
//! device, serialised like a real spindle. A transaction forces the shard
//! log twice (prepare + phase-2 commit), so one shard tops out near
//! `1000 / (2·FORCE_MS)` write transactions per second no matter how many
//! clients pile on — the paper's reason to shard in the first place. The
//! host's own log uses group commit with zero modelled latency so the
//! coordinator never masks the shard-side scaling under test.
//!
//! The workload is the write-heavy slice of the e1 mix (no SELECTs — reads
//! never touch a shard). Client `c` works in directory `/wl/h{c}`, and the
//! shard map routes by dirname, so the fleet spreads across the ring while
//! each statement stays directory-local.
//!
//! A second scenario re-runs the mix on a 4-shard stand and migrates one
//! client's directory between shards *mid-run* with
//! `HostDb::migrate_prefix`. Every arm, and the migration, ends with the
//! §3.3 oracle (`datalinks::audit`): every host row's file must be linked
//! on exactly the shard the host says owns it, nothing may stay in doubt,
//! and the binary exits nonzero on any violation. The claims under test:
//!
//! 1. throughput grows near-linearly with shards — ≥ 3x at 8 shards vs 1
//!    (≥ 37.5% per-shard efficiency at other sweep widths);
//! 2. an online prefix migration under live traffic completes, moves the
//!    rows, and loses zero acknowledged commits.
//!
//! Env: `RUN_SECS` per arm (default 2.0), `CLIENTS` (default 1000),
//! `SHARDS` caps the sweep (default 8), `FORCE_MS` per-shard log force
//! (default 1), `MIGRATE_CLIENTS` for the migration scenario (default 100).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::drivers::{HostClients, OpMix};
use bench::{banner, env_num, env_secs, run, JsonArm, Load, Report, Table};
use dlfm::{AccessControl, AgentModel, DlfmConfig, DlfmServer};
use hostdb::{DatalinkSpec, HostDb};

/// Shard names, in ring order; a stand of `n` shards uses the first `n`.
const NAMES: [&str; 8] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];

struct Stand {
    fs: Arc<filesys::FileSystem>,
    shards: Vec<DlfmServer>,
    host: HostDb,
}

fn stand(nshards: usize, force: Duration) -> Stand {
    let fs = Arc::new(filesys::FileSystem::new());
    let archive = Arc::new(archive::ArchiveServer::new());
    let mut shards = Vec::new();

    let mut host_config = hostdb::HostConfig::default();
    host_config.db.lock_timeout = Duration::from_secs(3);
    host_config.db.next_key_locking = false;
    let host = HostDb::new(host_config);

    for name in &NAMES[..nshards] {
        let mut config = DlfmConfig::default();
        config.db.lock_timeout = Duration::from_secs(3);
        // The shard's log is the scarce resource under test: serial
        // forces, FORCE_MS each, like a dedicated log spindle per DLFM.
        config.db.group_commit = false;
        config.db.log_force_latency = force;
        config.daemon_poll_interval = Duration::from_millis(2);
        config.commit_retry_backoff = Duration::from_millis(1);
        config.agent_model = AgentModel::pooled(8, 4096);
        let server = DlfmServer::start(config, fs.clone(), archive.clone());
        host.attach_dlfm(name, server.connector());
        shards.push(server);
    }
    host.set_shards(&NAMES[..nshards]).unwrap();

    let mut s = host.session();
    s.create_table(
        "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
        &[DatalinkSpec { column: "clip".into(), access: AccessControl::Full, recovery: true }],
    )
    .unwrap();
    s.exec("CREATE UNIQUE INDEX ix_media ON media (id)").unwrap();
    host.db().set_table_stats("media", 1_000_000).unwrap();
    host.db().set_index_stats("ix_media", 1_000_000).unwrap();
    drop(s);
    Stand { fs, shards, host }
}

/// Write-heavy slice of the e1 mix: every transaction forces a shard log,
/// so throughput measures the shards, not the host.
const MIX: OpMix = OpMix { insert_pct: 50, update_pct: 25, delete_pct: 25, select_pct: 0 };

impl Stand {
    /// Run `clients` closed-loop clients for `window`. Routing ignores the
    /// URLs' server once the ring is on.
    fn run(&self, clients: usize, window: Duration) -> Report {
        let apps = HostClients::new(&self.host, &self.fs, "s0", MIX, 0);
        run(&Load::new(clients, window, 11), |c| apps.client(c))
    }

    /// Drain the stand, run the §3.3 oracle over it, and count (and print)
    /// the violations.
    fn violations(&self, arm: &str) -> usize {
        let shards = NAMES.into_iter().zip(&self.shards).collect();
        let audit = datalinks::Audit::new(&self.host, shards, &self.fs, "/wl");
        let report = audit.settle(Duration::from_secs(30));
        if !report.is_clean() {
            eprintln!("AUDIT {arm}: {report}");
        }
        report.total()
    }
}

fn main() {
    banner(
        "E14",
        "shard scaling: link metadata partitioned across N DLFMs",
        "one resource manager per file server, coordinated by 2PC (section 2, 4) — add boxes, gain throughput",
    );
    let window = env_secs("RUN_SECS", 2.0);
    let clients = env_num("CLIENTS", 1000);
    let max_shards = env_num("SHARDS", 8);
    let force = Duration::from_millis(env_num("FORCE_MS", 1) as u64);
    let migrate_clients = env_num("MIGRATE_CLIENTS", 100);
    println!(
        "{clients} closed-loop clients, {:.2} s per arm, per-shard serial log force {:?}, \
         group commit off on shards\n",
        window.as_secs_f64(),
        force
    );

    let t = Table::new(&[
        ("shards", 8),
        ("clients", 10),
        ("txn/s", 12),
        ("p50 ms", 10),
        ("p99 ms", 10),
        ("errors", 9),
        ("speedup", 9),
    ]);

    let sweep: Vec<usize> =
        [1usize, 2, 4, 8].iter().copied().filter(|&s| s <= max_shards).collect();
    let mut arms = Vec::new();
    let mut base_tput = 0.0f64;
    let mut last_tput = 0.0f64;
    let mut last_shards = 1usize;
    let mut violations = 0usize;
    for &nshards in &sweep {
        let stand = stand(nshards, force);
        let report = stand.run(clients, window);
        violations += stand.violations(&format!("shards/{nshards}"));
        let per_sec = report.per_sec();
        if nshards == sweep[0] {
            base_tput = per_sec;
        }
        last_tput = per_sec;
        last_shards = nshards;
        let rep = report.latency.report();
        t.row(&[
            &nshards.to_string(),
            &clients.to_string(),
            &format!("{per_sec:.0}"),
            &format!("{:.2}", rep.p50 as f64 / 1000.0),
            &format!("{:.2}", rep.p99 as f64 / 1000.0),
            &report.errors.to_string(),
            &format!("{:.2}x", per_sec / base_tput.max(1e-9)),
        ]);
        arms.push(
            JsonArm::from_hist(format!("shards/{nshards}"), per_sec, &report.latency)
                .with("shards", nshards as f64)
                .with("clients", clients as f64)
                .with("errors", report.errors as f64),
        );
    }

    // Scenario 2: migrate a live directory between shards mid-run.
    let mig_shards = 4usize.min(max_shards.max(2));
    let stand = stand(mig_shards, force);
    let map = stand.host.shard_map();
    let home = map
        .route("/wl/h0/f1", map.epoch(), Duration::from_secs(5))
        .unwrap()
        .expect("ring enabled")
        .shard;
    let home_idx = NAMES.iter().position(|n| *n == home).unwrap();
    let target = NAMES[(home_idx + 1) % mig_shards];

    let host = stand.host.clone();
    let migrate = std::thread::spawn({
        let delay = window / 4;
        move || {
            std::thread::sleep(delay);
            let t0 = Instant::now();
            let moved = host.migrate_prefix("/wl/h0", target);
            (moved, t0.elapsed())
        }
    });
    let report = stand.run(migrate_clients, window);
    let (moved, mig_elapsed) = migrate.join().expect("migration thread must not panic");
    let moved = moved.expect("online migration must succeed under live traffic");
    let mig_violations = stand.violations("migrate");
    violations += mig_violations;
    let mig_per_sec = report.per_sec();
    println!(
        "\nmigration: /wl/h0 {home} -> {target} on {mig_shards} shards moved {moved} rows in \
         {:.0} ms while {migrate_clients} clients committed {:.0} txn/s; \
         {mig_violations} §3.3 violations",
        mig_elapsed.as_secs_f64() * 1000.0,
        mig_per_sec,
    );
    arms.push(
        JsonArm::from_hist("migrate/4sh", mig_per_sec, &report.latency)
            .with("moved_rows", moved as f64)
            .with("violations", mig_violations as f64),
    );

    // A shard is worth adding when it brings most of its log device's
    // bandwidth: ≥ 37.5% per-shard efficiency is the 8-shard claim's ≥ 3x
    // expressed at whatever sweep width actually ran.
    let speedup = last_tput / base_tput.max(1e-9);
    let target_speedup = 3.0 * (last_shards as f64 / 8.0);
    let scaling_ok = last_shards == 1 || speedup >= target_speedup;
    let migration_ok = mig_violations == 0;
    println!(
        "verdict: {} — {last_shards} shards = {speedup:.2}x over 1 shard \
         (target >= {target_speedup:.2}x), migration clean: {}",
        if scaling_ok && migration_ok { "REPRODUCED" } else { "inconclusive" },
        if migration_ok { "yes" } else { "NO" },
    );

    bench::write_json_summary("E14", "shard scaling 1 -> N DLFMs", &arms);
    bench::dump_metrics(&stand.host.metrics_text());
    // Throughput verdicts are informational; a broken §3.3 invariant is not.
    if violations > 0 {
        eprintln!("E14: the §3.3 oracle found {violations} violations");
        std::process::exit(1);
    }
}
