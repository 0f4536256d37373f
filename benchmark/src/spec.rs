//! The benchmark's contract in one place: the four workloads, every metric
//! name with its unit, direction and regression bound, and the rendering
//! of `BENCHMARK.json` from them (a test keeps the committed file equal).

/// Share of each DML kind among a workload's write statements, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: u32,
    pub update: u32,
    pub delete: u32,
}

/// One workload: its stand and its traffic.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed-loop clients.
    pub clients: usize,
    /// DLFM shards behind the host.
    pub shards: usize,
    /// Attach over Unix sockets (the `dlfmd` shape) instead of in-process.
    pub wire: bool,
    /// Force-bound stand: every shard log force and every coordinator-log
    /// force costs `FORCE_LATENCY`, shard group commit off.
    pub forced: bool,
    /// Share of transactions that are reads (select + token + file read).
    pub read_pct: u32,
    /// DML statements per write transaction: 1 runs autocommit, 2 runs
    /// `begin` → two statements on different shards → `commit`.
    pub stmts_per_txn: usize,
    pub mix: Mix,
    /// Roughly what the sandbox commits per second on this workload; the
    /// per-layer run turns `--seconds` into a fixed transaction count
    /// with it. `link_wire` and `link_inproc` share one value so that
    /// they measure the same transactions.
    pub nominal_txn_per_s: u64,
}

/// Injected latency of one log force on the force-bound stand.
pub const FORCE_LATENCY: std::time::Duration = std::time::Duration::from_millis(1);

const LINK_MIX: Mix = Mix { insert: 25, update: 50, delete: 25 };

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "link_wire",
        why: "1 client, autocommit insert/update/delete 25/50/25 (+10% token reads) over a Unix socket: every layer's CPU and the frame codec, Mux threads and socket sit on the blocking path",
        clients: 1,
        shards: 1,
        wire: true,
        forced: false,
        read_pct: 10,
        stmts_per_txn: 1,
        mix: LINK_MIX,
        nominal_txn_per_s: 3_000,
    },
    Spec {
        name: "link_inproc",
        why: "the identical op stream attached in-process: bypasses socket and codec, so hostdb+dlfm+minidb do the work; link_wire minus link_inproc is the price of the transport",
        clients: 1,
        shards: 1,
        wire: false,
        forced: false,
        read_pct: 10,
        stmts_per_txn: 1,
        mix: LINK_MIX,
        nominal_txn_per_s: 3_000,
    },
    Spec {
        name: "commit_forced_2shard",
        why: "2 clients, explicit 2-statement transactions spanning two socket-attached shards, every log force 1 ms and serial: latency is forces plus round trips, CPU idle; bypass for CPU optimisations",
        clients: 2,
        shards: 2,
        wire: true,
        forced: true,
        read_pct: 10,
        stmts_per_txn: 2,
        mix: LINK_MIX,
        nominal_txn_per_s: 250,
    },
    Spec {
        name: "read_mostly",
        why: "2 clients, 90% select+token+filtered file read beside 10% updates, in-process: MVCC snapshot reads and FOR SHARE token probes next to 2PL writers, so a writer gain that costs readers shows",
        clients: 2,
        shards: 1,
        wire: false,
        forced: false,
        read_pct: 90,
        stmts_per_txn: 1,
        mix: Mix { insert: 0, update: 100, delete: 0 },
        nominal_txn_per_s: 6_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rows linked during set-up, spread over all clients' rings.
pub const PRELOAD_ROWS: usize = 10_000;
/// Directories the rows' files live in (the shard map routes by dirname).
pub const DIRS: usize = 100;
/// Bytes in every linked file.
pub const FILE_LEN: usize = 1024;
/// Slices the measured window is cut into; throughput is their median.
pub const SLICES: usize = 6;
/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;
/// Transactions run between the audit and the crash on the force-bound
/// workload. The issue asked for 2 000; at ~300 txn/s that is 7 s of every
/// run, which the driver's cap on total time does not leave.
pub const CRASH_TXNS: u64 = 200;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, lower_is_better: lower, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, lower_is_better: true, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, lower_is_better: false, bound: 0.0 }
}

/// What a user of the system sees. Every bound is the contract's maximum:
/// ten-seed A/A runs on the 2-vCPU sandbox spread by up to 17 % of the
/// median (README, "Measured A/A"), and a bound should be three times the
/// spread. `read_p95_us`, `fail_pct` and `checks_failed` of the issue are
/// per-layer `workload.*` metrics instead: the first spreads by 28 %, the
/// other two are 0 on a healthy run, which a relative bound cannot gate.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("txn_per_s", "1/s", false, 0.25),
    e2e("write_p50_us", "us", true, 0.25),
    e2e("write_p95_us", "us", true, 0.25),
    e2e("read_p50_us", "us", true, 0.25),
    e2e("cpu_us_per_txn", "us", true, 0.25),
];

/// Single layers, measured from outside; layer = crate name.
pub const PER_LAYER: &[MetricDef] = &[
    // hostdb: spans of the traced run (p50), counter deltas, probes.
    lo("hostdb.begin_us", "us"),
    lo("hostdb.stmt_insert_us", "us"),
    lo("hostdb.stmt_update_us", "us"),
    lo("hostdb.stmt_delete_us", "us"),
    lo("hostdb.stmt_select_us", "us"),
    lo("hostdb.read_token_us", "us"),
    lo("hostdb.commit_us", "us"),
    lo("hostdb.twopc_commits_per_txn", "count"),
    lo("hostdb.coord_forces_per_txn", "count"),
    hi("hostdb.coord_decisions_per_force", "count"),
    lo("hostdb.conn_pool_miss_pct", "%"),
    lo("hostdb.rpc_errors", "count"),
    lo("hostdb.prepare_failures", "count"),
    lo("hostdb.phase2_transport_errors", "count"),
    lo("hostdb.coordlog_append_forced_ns", "ns"),
    lo("hostdb.route_ns", "ns"),
    lo("hostdb.restart_ms", "ms"),
    // rpc
    lo("rpc.frame_encode_ns", "ns"),
    lo("rpc.frame_decode_ns", "ns"),
    lo("rpc.checksum_ns_per_kib", "ns"),
    lo("rpc.ping_rtt_us.inproc", "us"),
    lo("rpc.ping_rtt_us.pool", "us"),
    lo("rpc.ping_rtt_us.unix", "us"),
    lo("rpc.ping_rtt_us.tcp", "us"),
    lo("rpc.calls_per_txn", "count"),
    lo("rpc.frames_per_txn", "count"),
    lo("rpc.wire_bytes_per_txn", "bytes"),
    lo("rpc.reconnects", "count"),
    lo("rpc.decode_errors", "count"),
    lo("rpc.pool_rejects", "count"),
    // dlfm
    lo("dlfm.begin_us", "us"),
    lo("dlfm.link_us", "us"),
    lo("dlfm.unlink_us", "us"),
    lo("dlfm.prepare_us", "us"),
    lo("dlfm.commit_us", "us"),
    lo("dlfm.abort_us", "us"),
    lo("dlfm.issue_token_us", "us"),
    lo("dlfm.upcall_us", "us"),
    lo("dlfm.req_encode_ns", "ns"),
    lo("dlfm.req_decode_ns", "ns"),
    lo("dlfm.phase2_retries_per_ktxn", "count"),
    lo("dlfm.forced_rollbacks", "count"),
    lo("dlfm.phase2_abandoned", "count"),
    lo("dlfm.files_archived_per_txn", "count"),
    lo("dlfm.agent_threads", "count"),
    lo("dlfm.copy_drain_ms", "ms"),
    // minidb
    lo("minidb.parse_ns", "ns"),
    lo("minidb.prepare_ns", "ns"),
    lo("minidb.select_point_ns", "ns"),
    lo("minidb.insert_ns", "ns"),
    lo("minidb.update_ns", "ns"),
    lo("minidb.delete_ns", "ns"),
    lo("minidb.commit_ns", "ns"),
    lo("minidb.lock_cycle_ns", "ns"),
    lo("minidb.wal_append_ns", "ns"),
    lo("minidb.wal_force_us", "us"),
    lo("minidb.restart_ms", "ms"),
    lo("minidb.host_wal_forces_per_txn", "count"),
    hi("minidb.host_commits_per_force", "count"),
    lo("minidb.dlfm_wal_forces_per_txn", "count"),
    hi("minidb.dlfm_commits_per_force", "count"),
    lo("minidb.lock_acquisitions_per_txn", "count"),
    lo("minidb.lock_waits_per_ktxn", "count"),
    lo("minidb.lock_wait_p95_us", "us"),
    lo("minidb.deadlocks", "count"),
    lo("minidb.lock_timeouts", "count"),
    lo("minidb.escalations", "count"),
    lo("minidb.mvcc_reads_per_txn", "count"),
    lo("minidb.version_chains_end", "count"),
    // filesys
    lo("filesys.create_ns", "ns"),
    lo("filesys.stat_ns", "ns"),
    lo("filesys.chown_chmod_ns", "ns"),
    lo("filesys.dlff_read_token_ns", "ns"),
    lo("filesys.dlff_rename_refused_us", "us"),
    lo("filesys.upcalls_per_txn", "count"),
    // archive
    lo("archive.store_us", "us"),
    lo("archive.retrieve_us", "us"),
    lo("archive.stores_per_txn", "count"),
    // obs
    lo("obs.span_ns", "ns"),
    lo("obs.hist_record_ns", "ns"),
    lo("obs.journal_disarmed_ns", "ns"),
    lo("obs.spans_per_txn", "count"),
    // workload: the harness itself, plus what the contract keeps out of
    // the end-to-end list because it is 0 on a healthy run.
    lo("workload.read_p95_us", "us"),
    lo("workload.p99_us", "us"),
    lo("workload.p999_us", "us"),
    hi("workload.samples", "count"),
    lo("workload.slice_iqr_pct", "%"),
    lo("workload.gen_ns_per_op", "ns"),
    lo("workload.peak_rss_mib", "MiB"),
    lo("workload.trace_overhead_pct", "%"),
    lo("workload.traced_write_p50_us", "us"),
    lo("workload.fail_pct", "%"),
    lo("workload.checks_failed", "count"),
    // budget: per-transaction counts times probe unit costs.
    lo("budget.modelled_us", "us"),
    lo("budget.unattributed_pct", "%"),
];

/// Named values in declaration order; refuses names the contract lacks.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics { defs, values: vec![None; defs.len()] }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        let i = self.defs.iter().position(|d| d.name == name).expect("declared metric");
        self.values[i].unwrap_or_else(|| panic!("metric {name} read before it was set"))
    }

    /// `(definition, value)` pairs; panics when a declared metric was
    /// never set, so nothing declared can go missing from the output.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            (d, v.unwrap_or_else(|| panic!("metric {} was declared but never measured", d.name)))
        })
    }
}

/// The `BENCHMARK.json` this code implements.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better(m),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            better(m)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn better(m: &MetricDef) -> &'static str {
    if m.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}
