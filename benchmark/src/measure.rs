//! The two kinds of run: the untraced end-to-end run, and the per-layer
//! run (probes, counter deltas over a quiesced untraced window, then a
//! traced window of the same op stream).

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::{audit, crash_and_restart, Audit};
use crate::gen::file_content;
use crate::run::{peak_rss_mib, process_cpu, run_phase, Client, Sample, Span, Until};
use crate::spec::{Metrics, Spec, CRASH_TXNS, DIRS, END_TO_END, FORCE_LATENCY, PER_LAYER, SLICES};
use crate::stand::{Counters, Stand, APP_USER, SQL_INSERT};
use crate::stats::{highest_supported, iqr_pct, median, percentile};
use minidb::Value;

/// How long a run measures and how much it repeats.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub seconds: f64,
    pub warmup: f64,
    /// Stands built (and timed) per end-to-end run; `setup_s` is their
    /// median.
    pub setups: usize,
    pub probe_scale: f64,
    pub crash_txns: u64,
}

impl Effort {
    pub fn full(seconds: f64) -> Effort {
        Effort { seconds, warmup: 2.0, setups: 5, probe_scale: 1.0, crash_txns: CRASH_TXNS }
    }

    /// `--quick`: 1 s windows, one set-up, probes ×0.1.
    pub fn quick() -> Effort {
        Effort { seconds: 1.0, warmup: 0.2, setups: 1, probe_scale: 0.1, crash_txns: 20 }
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Violated invariants and wrong results, one line each.
    pub problems: Vec<String>,
    /// One line describing the run (clients, op-stream hash, lengths).
    pub header: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// One line describing a run; `shape` says what was measured for how long.
fn header(stand: &Stand, seed: u64, shape: &str) -> String {
    let hashes: Vec<String> = (0..stand.layout.clients)
        .map(|c| {
            format!("{:016x}", crate::gen::stream_hash(stand.spec, &stand.layout, seed, c, 10_000))
        })
        .collect();
    format!(
        "workload {} seed {seed}: {} closed-loop client(s) on {} usable CPU(s), {} shard(s) {}, \
         {shape}, op-stream hash {}",
        stand.spec.name,
        stand.layout.clients,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        stand.spec.shards,
        if stand.spec.wire { "over unix sockets" } else { "in-process" },
        hashes.join("/"),
    )
}

fn sleep_s(seconds: f64) {
    std::thread::sleep(Duration::from_secs_f64(seconds));
}

/// Latencies (ascending) of the window's reads or writes.
fn latencies(samples: &[Sample], reads: bool) -> Vec<u32> {
    let mut v: Vec<u32> =
        samples.iter().filter(|s| s.is_read == reads).map(|s| s.latency_us).collect();
    v.sort_unstable();
    v
}

/// Samples that completed inside any of the `[from, to)` windows (µs).
fn in_windows(clients: &[Client], windows: &[(u64, u64)]) -> Vec<Sample> {
    clients
        .iter()
        .flat_map(|c| c.samples.iter())
        .filter(|s| windows.iter().any(|(from, to)| s.end_us >= *from && s.end_us < *to))
        .copied()
        .collect()
}

/// Audit the stand against the clients' committed rows; on the
/// force-bound workload also run a fixed number of further transactions,
/// crash host and one shard, restart, and audit again.
fn verify(stand: &Stand, clients: &mut [Client], epoch: Instant, effort: &Effort) -> Vec<String> {
    let model = |clients: &[Client]| -> HashMap<i64, String> {
        clients
            .iter()
            .flat_map(|c| c.model.iter())
            .map(|(slot, version)| (*slot, stand.layout.url(*slot, *version)))
            .collect()
    };
    let target = Audit {
        host: &stand.host,
        shards: stand.layout.shards.iter().map(String::as_str).zip(&stand.shards).collect(),
        fs: &stand.fs,
        file_prefix: "/b/",
    };
    let mut problems = audit(&target, &model(clients));
    if stand.spec.forced {
        run_phase(stand, clients, epoch, Until::Txns(effort.crash_txns), false, || ());
        // One transaction is left open across the crash: a row linking a
        // fresh file on the shard that goes down, never committed, so it
        // must not be visible afterwards.
        let crashing = stand.shards.len() - 1;
        let layout = &stand.layout;
        let spare = (0..).map(|i| layout.slot_id(layout.clients, i));
        let slot = spare.take(DIRS).find(|s| layout.group_of(*s) == crashing).expect("a directory");
        stand
            .fs
            .create(&layout.path(slot, 0), APP_USER, &file_content(slot, 0))
            .expect("fresh file");
        let mut unacked = stand.host.session();
        let opened = unacked.begin().and_then(|()| {
            unacked.exec_params(
                SQL_INSERT,
                &[Value::Int(slot), Value::str("unacked"), Value::str(layout.url(slot, 0))],
            )
        });
        if let Err(e) = opened {
            problems.push(format!("could not open the unacknowledged transaction: {e}"));
        }
        match crash_and_restart(&stand.host, &stand.shards[crashing], || drop(unacked)) {
            Ok(()) => problems.extend(
                audit(&target, &model(clients)).into_iter().map(|l| format!("after crash: {l}")),
            ),
            Err(e) => problems.push(format!("after crash: {e}")),
        }
    }
    for c in clients.iter() {
        problems.extend(c.errors.iter().cloned());
    }
    problems
}

/// Set up (several times, timed), warm up, measure one untraced window,
/// verify. Produces every end-to-end metric.
pub fn end_to_end(spec: &'static Spec, seed: u64, effort: &Effort, run_dir: &Path) -> Outcome {
    let mut setup_times = Vec::new();
    let mut stand = None;
    for k in 0..effort.setups {
        drop(stand.take());
        let start = Instant::now();
        stand = Some(Stand::build(spec, run_dir, k));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let stand = stand.expect("at least one set-up");
    let mut clients: Vec<Client> =
        (0..spec.clients).map(|i| Client::new(&stand, seed, i)).collect();

    // One continuous run: the calling thread sleeps through the warm-up,
    // then notes the time and the process CPU time at every slice edge.
    let epoch = Instant::now();
    let marks = run_phase(&stand, &mut clients, epoch, Until::Stopped, false, || {
        sleep_s(effort.warmup);
        let mut marks = vec![(epoch.elapsed().as_micros() as u64, process_cpu())];
        for _ in 0..SLICES {
            sleep_s(effort.seconds / SLICES as f64);
            marks.push((epoch.elapsed().as_micros() as u64, process_cpu()));
        }
        marks
    });
    let (from_us, to_us) = (marks[0].0, marks[SLICES].0);
    let window = in_windows(&clients, &[(from_us, to_us)]);
    // Every metric is taken per slice and reported as the median of the
    // slices, so a disturbance shorter than half the window cannot move it.
    let (mut rates, mut cpu) = (Vec::new(), Vec::new());
    let (mut write_p50, mut write_p95, mut read_p50) = (Vec::new(), Vec::new(), Vec::new());
    for pair in marks.windows(2) {
        let ((t0, cpu0), (t1, cpu1)) = (pair[0], pair[1]);
        let slice: Vec<Sample> =
            window.iter().filter(|s| s.end_us >= t0 && s.end_us < t1).copied().collect();
        if slice.is_empty() {
            continue;
        }
        rates.push(slice.len() as f64 / ((t1 - t0) as f64 / 1e6));
        cpu.push((cpu1 - cpu0).as_micros() as f64 / slice.len() as f64);
        let (writes, reads) = (latencies(&slice, false), latencies(&slice, true));
        if !writes.is_empty() {
            write_p50.push(f64::from(percentile(&writes, 50.0)));
            write_p95.push(f64::from(percentile(&writes, 95.0)));
        }
        if !reads.is_empty() {
            read_p50.push(f64::from(percentile(&reads, 50.0)));
        }
    }
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&setup_times));
    m.set("txn_per_s", median(&rates));
    m.set("write_p50_us", median(&write_p50));
    m.set("write_p95_us", median(&write_p95));
    m.set("read_p50_us", median(&read_p50));
    m.set("cpu_us_per_txn", median(&cpu));

    let shape = format!(
        "{} set-up(s), warm-up {} s, window {} s in {SLICES} slices",
        effort.setups, effort.warmup, effort.seconds
    );
    let header = header(&stand, seed, &shape);
    let mut problems = verify(&stand, &mut clients, epoch, effort);
    if window.is_empty() {
        problems.push("no transaction committed inside the window".into());
    }
    Outcome {
        metrics: m,
        attempted: clients.iter().map(|c| c.attempted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        problems,
        header,
    }
}

/// Probe every layer, then measure counter deltas over quiesced untraced
/// phases and spans over traced phases of the same op stream.
/// Produces every per-layer metric; returns the spans for the trace file.
pub fn per_layer(
    spec: &'static Spec,
    seed: u64,
    effort: &Effort,
    run_dir: &Path,
) -> (Outcome, Vec<Vec<Span>>) {
    let mut m = Metrics::new(PER_LAYER);
    // Probes first, while nothing else runs in the process.
    crate::probes::run_all(&mut m, run_dir, effort.probe_scale);

    let stand = Stand::build(spec, run_dir, 0);
    let mut clients: Vec<Client> =
        (0..spec.clients).map(|i| Client::new(&stand, seed, i)).collect();
    let epoch = Instant::now();
    // Phases here are bounded by transaction count, not by time: with the
    // stream a function of the seed alone, every run then measures the same
    // transactions, and with one client every per-transaction count repeats
    // exactly. `--seconds` sizes the counts through the workload's nominal
    // rate.
    let txns_for = |seconds: f64| ((seconds * spec.nominal_txn_per_s as f64) as u64).max(1);
    let timed_phase = |clients: &mut [Client], txns: u64, traced: bool| {
        let start = epoch.elapsed();
        run_phase(&stand, clients, epoch, Until::Txns(txns), traced, || ());
        (start.as_micros() as u64, epoch.elapsed().as_micros() as u64 + 1)
    };
    timed_phase(&mut clients, txns_for(effort.warmup), false);

    // Untraced (A) and traced (B) phases alternate A B B A, twice, so a
    // drift along the run (the stand's state grows) weighs on both alike
    // and their difference is the tracing overhead. Counters are read
    // around each A phase with the clients stopped and the Copy daemons'
    // backlog empty, so the deltas hold exactly the work those
    // transactions caused — background work included.
    let phase_txns = txns_for(effort.seconds / 8.0);
    let (mut a_windows, mut b_windows) = (Vec::new(), Vec::new());
    let mut delta: Option<Counters> = None;
    let mut copy_drains = Vec::new();
    for traced in [false, true, true, false, false, true, true, false] {
        if traced {
            b_windows.push(timed_phase(&mut clients, phase_txns, true));
            continue;
        }
        stand.drain_copies();
        let before = stand.counters();
        a_windows.push(timed_phase(&mut clients, phase_txns, false));
        copy_drains.push(stand.drain_copies().as_secs_f64() * 1e3);
        let d = stand.counters().since(&before);
        delta = Some(match delta {
            Some(sum) => sum.plus(&d),
            None => d,
        });
    }
    let delta = delta.expect("the pattern has untraced phases");
    let untraced = in_windows(&clients, &a_windows);
    let traced = in_windows(&clients, &b_windows);
    let txns = untraced.len().max(1) as f64;
    let (writes, reads) = (latencies(&untraced, false), latencies(&untraced, true));
    let (n_writes, n_reads) = (writes.len().max(1) as f64, reads.len() as f64);
    let per_txn = |key: &str| delta.get(key) / txns;
    let ratio = |num: &str, den: &str| {
        if delta.get(den) == 0.0 {
            0.0
        } else {
            delta.get(num) / delta.get(den)
        }
    };

    // Spans: p50 duration by name over the traced window.
    let span_p50 = |name: &str| {
        let mut d: Vec<u32> = clients
            .iter()
            .flat_map(|c| c.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect();
        d.sort_unstable();
        f64::from(percentile(&d, 50.0))
    };
    for (metric, span) in [
        ("hostdb.begin_us", "begin"),
        ("hostdb.stmt_insert_us", "stmt_insert"),
        ("hostdb.stmt_update_us", "stmt_update"),
        ("hostdb.stmt_delete_us", "stmt_delete"),
        ("hostdb.stmt_select_us", "stmt_select"),
        ("hostdb.read_token_us", "read_token"),
        ("hostdb.commit_us", "commit"),
    ] {
        m.set(metric, span_p50(span));
    }

    m.set("hostdb.twopc_commits_per_txn", per_txn("host.twopc_commits"));
    m.set("hostdb.coord_forces_per_txn", per_txn("coord.forces"));
    m.set("hostdb.coord_decisions_per_force", ratio("coord.decisions", "coord.forces"));
    let checkouts = delta.get("host.pool_hits") + delta.get("host.pool_misses");
    m.set(
        "hostdb.conn_pool_miss_pct",
        if checkouts == 0.0 { 0.0 } else { delta.get("host.pool_misses") / checkouts * 100.0 },
    );
    m.set("hostdb.rpc_errors", delta.get("host.rpc_errors"));
    m.set("hostdb.prepare_failures", delta.get("host.prepare_failures"));
    m.set("hostdb.phase2_transport_errors", delta.get("host.phase2_transport_errors"));

    m.set("rpc.calls_per_txn", per_txn("rpc.calls"));
    m.set("rpc.frames_per_txn", per_txn("rpc.frames"));
    m.set("rpc.wire_bytes_per_txn", per_txn("rpc.wire_bytes"));
    m.set("rpc.reconnects", delta.get("rpc.reconnects"));
    m.set("rpc.decode_errors", delta.get("rpc.decode_errors"));
    m.set("rpc.pool_rejects", delta.get("rpc.pool_rejects"));

    m.set("dlfm.phase2_retries_per_ktxn", per_txn("dlfm.phase2_retries") * 1e3);
    m.set("dlfm.forced_rollbacks", delta.get("dlfm.forced_rollbacks"));
    m.set("dlfm.phase2_abandoned", delta.get("dlfm.phase2_abandoned"));
    m.set("dlfm.files_archived_per_txn", per_txn("dlfm.files_archived"));
    m.set(
        "dlfm.agent_threads",
        stand.shards.iter().map(|s| s.agents_spawned()).sum::<u64>() as f64,
    );
    m.set("dlfm.copy_drain_ms", median(&copy_drains));

    m.set("minidb.host_wal_forces_per_txn", per_txn("hostdb.wal_forces"));
    m.set("minidb.host_commits_per_force", ratio("hostdb.wal_commits", "hostdb.wal_forces"));
    m.set("minidb.dlfm_wal_forces_per_txn", per_txn("dlfmdb.wal_forces"));
    m.set("minidb.dlfm_commits_per_force", ratio("dlfmdb.wal_commits", "dlfmdb.wal_forces"));
    m.set("minidb.lock_acquisitions_per_txn", per_txn("lock.acquisitions"));
    m.set("minidb.lock_waits_per_ktxn", per_txn("lock.waits") * 1e3);
    m.set("minidb.lock_wait_p95_us", delta.lock_wait_p95_us());
    m.set("minidb.deadlocks", delta.get("lock.deadlocks"));
    m.set("minidb.lock_timeouts", delta.get("lock.timeouts"));
    m.set("minidb.escalations", delta.get("lock.escalations"));
    m.set("minidb.mvcc_reads_per_txn", per_txn("mvcc.reads"));
    m.set("minidb.version_chains_end", stand.version_chains() as f64);

    m.set("filesys.upcalls_per_txn", per_txn("dlff.upcalls"));
    m.set("archive.stores_per_txn", per_txn("archive.stores"));
    m.set("obs.spans_per_txn", per_txn("obs.spans"));

    // The harness itself.
    let mut all: Vec<u32> = untraced.iter().map(|s| s.latency_us).collect();
    all.sort_unstable();
    // Transactions per second of each phase of one kind, and overall.
    let phase_rates = |samples: &[Sample], windows: &[(u64, u64)]| -> Vec<f64> {
        windows
            .iter()
            .map(|(from, to)| {
                let n = samples.iter().filter(|s| s.end_us >= *from && s.end_us < *to).count();
                n as f64 / ((to - from) as f64 / 1e6)
            })
            .collect()
    };
    let (rates_a, rates_b) = (phase_rates(&untraced, &a_windows), phase_rates(&traced, &b_windows));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (rate_a, rate_b) = (mean(&rates_a), mean(&rates_b));
    m.set("workload.read_p95_us", f64::from(percentile(&reads, 95.0)));
    m.set("workload.p99_us", f64::from(percentile(&all, 99.0)));
    m.set("workload.p999_us", f64::from(highest_supported(&all).1));
    m.set("workload.samples", untraced.len() as f64);
    m.set("workload.slice_iqr_pct", iqr_pct(&rates_a));
    m.set("workload.peak_rss_mib", peak_rss_mib());
    m.set(
        "workload.trace_overhead_pct",
        if rate_a > 0.0 { (rate_a - rate_b) / rate_a * 100.0 } else { 0.0 },
    );
    m.set("workload.traced_write_p50_us", f64::from(percentile(&latencies(&traced, false), 50.0)));

    // Budget: what one write transaction should cost if it were nothing
    // but its counted steps at their probed unit costs.
    let write_p50 = f64::from(percentile(&writes, 50.0));
    let calls_w = (delta.get("rpc.calls") - n_reads).max(0.0) / n_writes;
    let links_w = delta.get("host.links") / n_writes;
    let unlinks_w = delta.get("host.unlinks") / n_writes;
    let stmts_w = spec.stmts_per_txn as f64;
    let updates_w = (links_w + unlinks_w - stmts_w).max(0.0);
    let (inserts_w, deletes_w) = ((links_w - updates_w).max(0.0), (unlinks_w - updates_w).max(0.0));
    let rtt_pool = m.get("rpc.ping_rtt_us.pool");
    let rtt = if spec.wire { m.get("rpc.ping_rtt_us.unix") } else { rtt_pool };
    let ns = |name: &str| m.get(name) / 1e3;
    let subtxns_w = (calls_w - links_w - unlinks_w).max(0.0) / 3.0;
    let dlfm_self = links_w * (m.get("dlfm.link_us") - rtt_pool)
        + unlinks_w * (m.get("dlfm.unlink_us") - rtt_pool)
        + subtxns_w
            * (m.get("dlfm.begin_us") + m.get("dlfm.prepare_us") + m.get("dlfm.commit_us")
                - 3.0 * rtt_pool);
    let host_sql = stmts_w * ns("minidb.parse_ns")
        + inserts_w * 2.0 * ns("minidb.insert_ns")
        + updates_w
            * (ns("minidb.select_point_ns")
                + ns("minidb.delete_ns")
                + ns("minidb.insert_ns")
                + ns("minidb.update_ns"))
        + deletes_w * (ns("minidb.select_point_ns") + 2.0 * ns("minidb.delete_ns"))
        + ns("minidb.commit_ns");
    let coord_forces_w = delta.get("coord.forces") / n_writes;
    let injected = if spec.forced {
        (coord_forces_w + delta.get("dlfmdb.wal_forces") / n_writes)
            * FORCE_LATENCY.as_micros() as f64
    } else {
        0.0
    };
    let modelled = calls_w * rtt
        + dlfm_self
        + host_sql
        + coord_forces_w * ns("hostdb.coordlog_append_forced_ns")
        + (links_w + unlinks_w) * ns("hostdb.route_ns")
        + injected;
    m.set("budget.modelled_us", modelled);
    m.set(
        "budget.unattributed_pct",
        if write_p50 > 0.0 { (write_p50 - modelled) / write_p50 * 100.0 } else { 0.0 },
    );

    let shape = format!(
        "warm-up {} txns, then 8 phases of {phase_txns} txns, untraced/traced A B B A A B B A",
        txns_for(effort.warmup)
    );
    let header = header(&stand, seed, &shape);
    let problems = verify(&stand, &mut clients, epoch, effort);
    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    m.set("workload.fail_pct", failed as f64 / attempted.max(1) as f64 * 100.0);
    m.set("workload.checks_failed", problems.len() as f64);
    let spans = clients.iter_mut().map(|c| std::mem::take(&mut c.spans)).collect();
    (Outcome { metrics: m, attempted, failed, problems, header }, spans)
}
