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

use std::time::Duration;

use bench::drivers::{DlfmClients, OpMix};
use bench::{banner, env_num, env_secs, run, JsonArm, Load, Report, Stand, Table};
use dlfm::{AccessControl, AgentModel, DlfmConfig, DlfmRequest, DlfmResponse, Transport};

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
    report: Report,
    metrics: String,
}

fn run_arm(
    mode: Mode,
    clients: usize,
    window: Duration,
    workers: usize,
    queue: usize,
) -> ArmResult {
    let stand = stand(mode, workers, queue);
    let connector = match mode {
        Mode::Unix => dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(
            stand.server.listen_addr().expect("unix arm always listens"),
        ),
        _ => stand.server.connector(),
    };
    let apps = DlfmClients::new(connector, &stand.fs, stand.grp_id, OpMix::paper_mix());
    let report = run(&Load::new(clients, window, 7), |c| apps.client(c));
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
    let window = env_secs("RUN_SECS", 1.0);
    let max_clients = env_num("CLIENTS", 512);
    let workers = env_num("POOL_WORKERS", 8);
    let queue_depth = env_num("POOL_QUEUE", 512);
    let dedicated_cap = max_clients.min(128);
    println!(
        "{:.2} s per arm, pool = {workers} workers / queue {queue_depth}, closed-loop paper mix, \
         dedicated capped at {dedicated_cap} clients\n",
        window.as_secs_f64()
    );

    let t = Table::new(&[
        ("mode", 10),
        ("clients", 8),
        ("threads", 8),
        ("txn/s", 10),
        ("p50 ms", 10),
        ("p99 ms", 10),
        ("rejects", 9),
        ("errors", 8),
    ]);

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
            let r = run_arm(mode, clients, window, workers, queue_depth);
            let per_sec = r.report.per_sec();
            tput[slot] = per_sec;
            let rep = r.report.latency.report();
            let mode_label = mode.label();
            t.row(&[
                mode_label,
                &clients.to_string(),
                &r.threads.to_string(),
                &format!("{per_sec:.0}"),
                &format!("{:.2}", rep.p50 as f64 / 1000.0),
                &format!("{:.2}", rep.p99 as f64 / 1000.0),
                &r.report.rejects.to_string(),
                &r.report.errors.to_string(),
            ]);
            arms.push(
                JsonArm::from_hist(format!("{mode_label}/{clients}cl"), per_sec, &r.report.latency)
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
    let wire = bench::guard::wire_trace();
    wire.print(
        "e12",
        "wire-trace guard",
        "links/s",
        ("propagation on", "propagation off"),
        "stamping is two header fields per frame over loopback TCP",
    );
    arms.extend(wire.arms("wire_trace_on", "wire_trace_off", "wire_trace_delta_pct"));
    bench::write_json_summary("E12", "dedicated vs pooled vs Unix-socket wire", &arms);
    bench::dump_metrics(&pooled_metrics);
    wire.gate("e12");
}
