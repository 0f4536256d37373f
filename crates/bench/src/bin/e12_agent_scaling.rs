//! E12 — agent scaling: dedicated child agents vs a session-multiplexed pool,
//! in-process and over a real Unix-domain socket.
//!
//! The paper's process model (§2, §3.5) spawns one dedicated child agent per
//! host connection, so agent threads grow linearly with connections. This
//! bench compares that model against the pooled agent model
//! ([`dlfm::AgentModel::Pooled`]): a fixed set of workers pulling from one
//! shared bounded run queue, with per-connection state parked in a session
//! table so any worker can serve any connection, and with the bounded queue
//! acting as admission control (`dlrpc::RpcError::Overloaded` when full).
//! A third arm runs the pooled server behind the socket transport — every
//! RPC crosses the frame codec and a kernel Unix socket, the deployment
//! shape of `dlfmd` — to price the wire against the in-process fabric.
//!
//! We sweep concurrent closed-loop clients 1→512 (dedicated capped at 128 —
//! one OS thread per client stops scaling long before the pool does) and
//! report, per arm: agent threads actually spawned, committed-transaction
//! throughput, p50/p99 latency, admission rejects, and errors. The claims
//! under test:
//!
//! 1. dedicated mode spawns ~1 agent thread per client; pooled mode stays
//!    at the fixed worker count no matter how many clients connect;
//! 2. at the default knobs the pool serves the full sweep with zero
//!    admission rejects (the queue is deep enough and drains fast);
//! 3. pooled throughput stays in the same league as dedicated;
//! 4. the socket transport holds the widest sweep point with p99 within
//!    2x of the in-process pool at the same load (matched-load comparison:
//!    across client counts the closed-loop queueing on the pool dominates,
//!    which would measure the pool, not the wire).
//!
//! Env: `RUN_SECS` per arm (default 1.0), `CLIENTS` caps the sweep
//! (default 512), `POOL_WORKERS` (default 8), `POOL_QUEUE` (default 512).

use std::sync::Arc;
use std::time::Duration;

use bench::{banner, env_num, env_secs, row, JsonArm, Stand};
use dlfm::{AccessControl, AgentModel, DlfmConfig, DlfmRequest, DlfmResponse, Transport};
use workload::{run_dlfm_workload, DlfmWorkloadConfig, IdSource, OpMix};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Dedicated,
    Pooled,
    /// Pooled server behind a Unix-domain socket; clients dial the wire.
    Unix,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Dedicated => "dedicated",
            Mode::Pooled => "pooled",
            Mode::Unix => "unix",
        }
    }
}

fn stand(mode: Mode, workers: usize, queue_depth: usize) -> Stand {
    let mut config = DlfmConfig::default();
    config.db.lock_timeout = Duration::from_millis(500);
    config.daemon_poll_interval = Duration::from_millis(2);
    config.commit_retry_backoff = Duration::from_millis(1);
    config.agent_model = match mode {
        Mode::Dedicated => AgentModel::Dedicated,
        Mode::Pooled | Mode::Unix => AgentModel::pooled(workers, queue_depth),
    };
    if mode == Mode::Unix {
        let path = std::env::temp_dir()
            .join(format!("dlfm-e12-{}.sock", std::process::id()))
            .display()
            .to_string();
        let _ = std::fs::remove_file(&path);
        config.listen = Transport::Unix(path);
    }
    Stand::new(config, AccessControl::Partial, false)
}

struct ArmResult {
    threads: u64,
    report: workload::WorkloadReport,
    metrics: String,
}

fn run_arm(mode: Mode, clients: usize, run: Duration, workers: usize, queue: usize) -> ArmResult {
    let stand = stand(mode, workers, queue);
    let config = DlfmWorkloadConfig {
        clients,
        duration: run,
        mix: OpMix::paper_mix(),
        seed: 7,
        grp_id: stand.grp_id,
        base_dir: "/wl".into(),
    };
    let ids = Arc::new(IdSource::new(1_000));
    let connector = match mode {
        Mode::Unix => dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(
            stand.server.listen_addr().expect("unix arm always listens"),
        ),
        _ => stand.server.connector(),
    };
    let report = run_dlfm_workload(&connector, &stand.fs, &config, &ids);
    ArmResult {
        threads: stand.server.agents_spawned(),
        report,
        metrics: stand.server.metrics_text(),
    }
}

fn main() {
    banner(
        "E12",
        "agent scaling: dedicated vs pooled, in-process vs Unix socket",
        "one agent process per connection (section 2, 3.5) vs a fixed worker pool with admission control, and the wire transport's price",
    );
    let run = env_secs("RUN_SECS", 1.0);
    let max_clients = env_num("CLIENTS", 512);
    let workers = env_num("POOL_WORKERS", 8);
    let queue_depth = env_num("POOL_QUEUE", 512);
    let dedicated_cap = max_clients.min(128);
    println!(
        "{:.2} s per arm, pool = {workers} workers / queue {queue_depth}, closed-loop paper mix, \
         dedicated capped at {dedicated_cap} clients\n",
        run.as_secs_f64()
    );

    let w = [10, 8, 8, 10, 10, 10, 9, 8];
    row(&["mode", "clients", "threads", "txn/s", "p50 ms", "p99 ms", "rejects", "errors"], &w);
    row(&["----", "-------", "-------", "-----", "------", "------", "-------", "------"], &w);

    let sweep: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        .iter()
        .copied()
        .filter(|&c| c <= max_clients)
        .collect();
    let mut arms = Vec::new();
    let mut pooled_metrics = String::new();
    let mut pooled_threads_max = 0u64;
    let mut dedicated_threads_max = 0u64;
    let mut pooled_rejects = 0u64;
    let mut tput = [0.0f64; 3]; // per mode, at that mode's widest sweep point
    let mut pooled_p99_widest = 0u64; // in-process pool at the widest sweep point
    let mut unix_p99_widest = 0u64;
    for &clients in &sweep {
        for (slot, mode) in [Mode::Dedicated, Mode::Pooled, Mode::Unix].into_iter().enumerate() {
            if mode == Mode::Dedicated && clients > dedicated_cap {
                continue;
            }
            let r = run_arm(mode, clients, run, workers, queue_depth);
            let per_sec = r.report.committed() as f64 / r.report.elapsed.as_secs_f64().max(1e-9);
            tput[slot] = per_sec;
            let rep = r.report.latency.report();
            let mode_label = mode.label();
            row(
                &[
                    mode_label,
                    &clients.to_string(),
                    &r.threads.to_string(),
                    &format!("{per_sec:.0}"),
                    &format!("{:.2}", rep.p50 as f64 / 1000.0),
                    &format!("{:.2}", rep.p99 as f64 / 1000.0),
                    &r.report.rejects.to_string(),
                    &r.report.errors.to_string(),
                ],
                &w,
            );
            arms.push(
                JsonArm {
                    label: format!("{mode_label}/{clients}cl"),
                    ops_per_sec: per_sec,
                    p50_us: rep.p50,
                    p95_us: rep.p95,
                    p99_us: rep.p99,
                    extra: Vec::new(),
                }
                .with("clients", clients as f64)
                .with("agent_threads", r.threads as f64)
                .with("rejects", r.report.rejects as f64)
                .with("errors", r.report.errors as f64),
            );
            match mode {
                Mode::Pooled => {
                    pooled_threads_max = pooled_threads_max.max(r.threads);
                    pooled_rejects += r.report.rejects;
                    pooled_metrics = r.metrics;
                    pooled_p99_widest = rep.p99;
                }
                Mode::Unix => {
                    pooled_rejects += r.report.rejects;
                    unix_p99_widest = rep.p99;
                }
                Mode::Dedicated => {
                    dedicated_threads_max = dedicated_threads_max.max(r.threads);
                }
            }
        }
    }

    let widest = sweep.last().copied().unwrap_or(1);
    let bounded = pooled_threads_max <= workers as u64;
    let linear = dedicated_threads_max as usize >= dedicated_cap;
    // Matched-load comparison: at the same client count the only variable
    // is the transport (same pool, same mix); comparing across client
    // counts would measure closed-loop queueing on the pool instead.
    let wire_ratio = unix_p99_widest as f64 / pooled_p99_widest.max(1) as f64;
    println!(
        "\nagent threads: dedicated {dedicated_threads_max} at {dedicated_cap} clients \
         (one per connection), pooled {pooled_threads_max} (cap {workers})"
    );
    println!(
        "wire price: unix p99 at {widest} clients = {:.2} ms, {wire_ratio:.2}x the in-process \
         pool's p99 at the same load (target <= 2x)",
        unix_p99_widest as f64 / 1000.0,
    );
    println!(
        "verdict: {} — pooled workers bounded: {}, dedicated grows with clients: {}, \
         admission rejects across the sweep: {pooled_rejects} (target 0), \
         pooled/dedicated throughput at their widest points: {:.2}x, wire p99 within 2x: {}",
        if bounded && linear && pooled_rejects == 0 && wire_ratio <= 2.0 {
            "REPRODUCED"
        } else {
            "inconclusive"
        },
        if bounded { "yes" } else { "NO" },
        if linear { "yes" } else { "NO" },
        tput[1] / tput[0].max(1e-9),
        if wire_ratio <= 2.0 { "yes" } else { "NO" },
    );

    // The wire arms above run with trace propagation at its session
    // default; price the stamping itself with the shared guard so the
    // wire cost this experiment reports can't silently absorb a tracing
    // regression.
    let wire = bench::wire_trace_guard(200);
    let n = wire.len() as f64;
    let (wire_on, wire_off) =
        wire.iter().fold((0.0, 0.0), |(a, b), (on, off)| (a + on / n, b + off / n));
    let wire_delta_pct = bench::wire_trace_delta_pct(&wire);
    println!(
        "wire-trace guard: {wire_off:.0} links/s propagation off vs {wire_on:.0} links/s \
         on over loopback TCP (mean of each side; median per-pair delta \
         {wire_delta_pct:+.1}%, expected < 5%)"
    );
    for label in ["wire_trace_on", "wire_trace_off"] {
        arms.push(
            JsonArm {
                label: label.to_string(),
                ops_per_sec: if label == "wire_trace_on" { wire_on } else { wire_off },
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                extra: Vec::new(),
            }
            .with("wire_trace_delta_pct", wire_delta_pct),
        );
    }
    bench::write_json_summary("E12", "dedicated vs pooled vs Unix-socket wire", &arms);
    bench::dump_metrics(&pooled_metrics);
    bench::wire_trace_gate("e12", &wire);
}
