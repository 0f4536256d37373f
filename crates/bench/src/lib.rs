//! Shared scaffolding for the experiment binaries (E1-E10).
//!
//! Every binary prints a self-contained report: the paper's claim, the
//! configuration, and the measured numbers, as aligned text tables that
//! EXPERIMENTS.md records. Durations and client counts can be scaled with
//! environment variables:
//!
//! * `RUN_SECS` — measured seconds per arm (default experiment-specific);
//! * `CLIENTS` — concurrent clients where applicable;
//! * `SCALE` — global workload multiplier for the slow experiments.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec};
use filesys::FileSystem;

/// Read an env var as seconds, with a default.
pub fn env_secs(name: &str, default: f64) -> Duration {
    let secs = std::env::var(name).ok().and_then(|v| v.parse::<f64>().ok()).unwrap_or(default);
    Duration::from_secs_f64(secs)
}

/// Read an env var as a number, with a default.
pub fn env_num(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Print the experiment banner.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("==================================================================");
}

/// Print one aligned table row.
pub fn row(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:<w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// A DLFM test stand: file server + archive + server, with one registered
/// file group.
pub struct Stand {
    /// The file server.
    pub fs: Arc<FileSystem>,
    /// The archive server.
    pub archive: Arc<ArchiveServer>,
    /// The DLFM under test.
    pub server: DlfmServer,
    /// The registered group id.
    pub grp_id: i64,
}

impl Stand {
    /// Build a stand with the given DLFM config; registers group 1 with
    /// the given access/recovery options.
    pub fn new(config: DlfmConfig, access: AccessControl, recovery: bool) -> Stand {
        let fs = Arc::new(FileSystem::new());
        let archive_server = Arc::new(ArchiveServer::new());
        let server = DlfmServer::start(config, fs.clone(), archive_server.clone());
        let conn = server.connector().connect().expect("connect");
        conn.call(DlfmRequest::Connect { dbid: 1 }).expect("connect call");
        let resp = conn
            .call(DlfmRequest::RegisterGroup(GroupSpec {
                grp_id: 1,
                dbid: 1,
                table_name: "bench".into(),
                column_name: "doc".into(),
                access,
                recovery,
            }))
            .expect("register group");
        assert_eq!(resp, DlfmResponse::Ok);
        Stand { fs, archive: archive_server, server, grp_id: 1 }
    }

    /// A tuned stand (all the paper's fixes applied) with a short lock
    /// timeout suitable for benchmarks.
    pub fn tuned(lock_timeout: Duration) -> Stand {
        let mut config = DlfmConfig::default();
        config.db.lock_timeout = lock_timeout;
        config.daemon_poll_interval = Duration::from_millis(2);
        config.commit_retry_backoff = Duration::from_millis(1);
        Stand::new(config, AccessControl::Partial, false)
    }

    /// An untuned stand (next-key locking on, no hand-crafted statistics).
    pub fn untuned(lock_timeout: Duration) -> Stand {
        let mut config = DlfmConfig::untuned();
        config.db.lock_timeout = lock_timeout;
        config.daemon_poll_interval = Duration::from_millis(2);
        config.commit_retry_backoff = Duration::from_millis(1);
        Stand::new(config, AccessControl::Partial, false)
    }
}

/// Print a Prometheus-text metrics dump at the end of an experiment.
/// Disable with `BENCH_METRICS=0` (the tables above stay the primary
/// output; this section is for scraping and debugging).
pub fn dump_metrics(text: &str) {
    if std::env::var("BENCH_METRICS").as_deref() == Ok("0") {
        return;
    }
    println!("\n--- metrics (prometheus text) ---");
    print!("{text}");
    println!("--- end metrics ---");
}

/// One arm of a benchmark in the machine-readable summary: a label, a
/// throughput, latency percentiles, and any extra numeric fields.
pub struct JsonArm {
    /// Arm label, e.g. `"grouped/8thr"`.
    pub label: String,
    /// Operations per second for this arm.
    pub ops_per_sec: f64,
    /// Median operation latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile operation latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile operation latency, microseconds.
    pub p99_us: u64,
    /// Extra per-arm numbers, e.g. `("wal_forces", 412.0)`.
    pub extra: Vec<(String, f64)>,
}

impl JsonArm {
    /// Build an arm from an [`obs::Histogram`] latency report.
    pub fn from_hist(label: impl Into<String>, ops_per_sec: f64, h: &obs::Histogram) -> JsonArm {
        let r = h.report();
        JsonArm {
            label: label.into(),
            ops_per_sec,
            p50_us: r.p50,
            p95_us: r.p95,
            p99_us: r.p99,
            extra: Vec::new(),
        }
    }

    /// Attach an extra numeric field.
    pub fn with(mut self, key: impl Into<String>, value: f64) -> JsonArm {
        self.extra.push((key.into(), value));
        self
    }
}

/// Write a machine-readable summary to `BENCH_<ID>.json` in the current
/// directory (override the directory with `BENCH_JSON_DIR`; disable with
/// `BENCH_JSON=0`). The workspace has no JSON dependency, so this emits
/// the format by hand — flat enough that `obs::json`'s string escaping and
/// number rule cover it.
pub fn write_json_summary(id: &str, title: &str, arms: &[JsonArm]) {
    if std::env::var("BENCH_JSON").as_deref() == Ok("0") {
        return;
    }
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", id.to_uppercase()));
    match std::fs::write(&path, json_summary_string(id, title, arms)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The JSON document [`write_json_summary`] writes (separate for tests).
pub fn json_summary_string(id: &str, title: &str, arms: &[JsonArm]) -> String {
    use obs::json_num;
    let esc = |s: &str| {
        let mut out = String::new();
        obs::json_escape(s, &mut out);
        out
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"experiment\": \"{}\",\n  \"title\": \"{}\",\n  \"arms\": [\n",
        esc(id),
        esc(title)
    ));
    for (i, arm) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"ops_per_sec\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}",
            esc(&arm.label),
            json_num(arm.ops_per_sec),
            arm.p50_us,
            arm.p95_us,
            arm.p99_us
        ));
        for (k, v) in &arm.extra {
            out.push_str(&format!(", \"{}\": {}", esc(k), json_num(*v)));
        }
        out.push_str(if i + 1 < arms.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pairs the wire-trace guard runs (odd, so the median is one pair's).
const TRACE_GUARD_PAIRS: usize = 5;

/// Median per-pair propagation cost, in percent, above which
/// [`wire_trace_gate`] fails the run. The expectation is noise (< 5%).
const TRACE_GUARD_TOLERANCE_PCT: f64 = 25.0;

/// Linked inserts per wire-trace guard run. No length from 200 to 6 400
/// keeps ten single pairs within the tolerance reliably on a shared box:
/// a run that stalls shows up at every length (EXPERIMENTS.md, "Wire-trace
/// guard run length"). 3 200 narrows the bulk of the spread most (quiet
/// IQR −4.8…+11.4 %, against −16.5…+10.2 % at 200), and its five-pair
/// median tripped the gate in none of 16 groups, where 200 tripped 2 of 6
/// beside a concurrent build.
const TRACE_GUARD_OPS: usize = 3_200;

/// Wire-trace propagation overhead guard, shared by E5 and E12: run the
/// same linked-insert workload through the host engine over a loopback
/// TCP deployment ([`datalinks::Deployment::new_wire`]) with frame-header
/// trace stamping on and off, in alternating pairs that flip which side
/// goes first. Stamping is two u64 header fields and one atomic load per
/// frame against a socket round trip, so the delta should be measurement
/// noise (< 5%). Returns links/s with propagation `(on, off)`, a pair an
/// entry.
pub fn wire_trace_guard() -> Vec<(f64, f64)> {
    let ops = TRACE_GUARD_OPS;
    let run = |tracing: bool| -> f64 {
        let was = dlrpc::set_wire_tracing(tracing);
        let dep = datalinks::Deployment::new_wire(
            "fs1",
            DlfmConfig::for_tests(),
            hostdb::HostConfig::for_tests(),
            dlfm::Transport::Tcp("127.0.0.1:0".into()),
        );
        let mut session = dep.host.session();
        session
            .create_table(
                "CREATE TABLE g (id BIGINT NOT NULL, doc DATALINK)",
                &[hostdb::DatalinkSpec {
                    column: "doc".into(),
                    access: AccessControl::Partial,
                    recovery: false,
                }],
            )
            .expect("create table over the wire");
        for i in 0..ops {
            dep.fs.create(&format!("/g/f{i}"), "bench", b"x").expect("seed file");
        }
        let started = std::time::Instant::now();
        for i in 0..ops {
            session
                .exec_params(
                    "INSERT INTO g (id, doc) VALUES (?, ?)",
                    &[
                        minidb::Value::Int(i as i64),
                        minidb::Value::str(format!("dlfs://fs1/g/f{i}")),
                    ],
                )
                .expect("link over the wire");
        }
        let rate = ops as f64 / started.elapsed().as_secs_f64().max(1e-9);
        dlrpc::set_wire_tracing(was);
        rate
    };
    // Warm-up deployment pays the one-time costs (allocator, listener).
    let _ = run(true);
    (0..TRACE_GUARD_PAIRS)
        .map(|p| {
            if p % 2 == 0 {
                let on = run(true);
                (on, run(false))
            } else {
                let off = run(false);
                (run(true), off)
            }
        })
        .collect()
}

/// Median per-pair propagation cost of the wire-trace guard's pairs, in
/// percent of the off rate.
pub fn wire_trace_delta_pct(pairs: &[(f64, f64)]) -> f64 {
    let mut pcts: Vec<f64> =
        pairs.iter().map(|&(on, off)| (off - on) / off.max(1e-9) * 100.0).collect();
    pcts.sort_by(f64::total_cmp);
    pcts[pcts.len() / 2]
}

/// Gate on the wire-trace guard: print every pair, then exit nonzero when
/// the median per-pair delta exceeds the tolerance (25%, against an
/// expected noise below 5%). One noisy pair cannot trip it; a steady cost
/// does.
pub fn wire_trace_gate(bin: &str, pairs: &[(f64, f64)]) {
    for (i, &(on, off)) in pairs.iter().enumerate() {
        let pct = wire_trace_delta_pct(&[(on, off)]);
        println!("{bin}: wire-trace pair {i}: {off:.0} links/s off vs {on:.0} on ({pct:+.1}%)");
    }
    let delta = wire_trace_delta_pct(pairs);
    if delta > TRACE_GUARD_TOLERANCE_PCT {
        eprintln!(
            "{bin}: wire-trace propagation overhead {delta:+.1}% (median of {} pairs) exceeds \
             gate tolerance {TRACE_GUARD_TOLERANCE_PCT:.0}% (expected noise)",
            pairs.len()
        );
        std::process::exit(1);
    }
}

/// Normalise a rate to "per 1000 committed transactions".
pub fn per_1k(count: u64, committed: u64) -> f64 {
    if committed == 0 {
        return 0.0;
    }
    count as f64 * 1000.0 / committed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stand_builds_and_registers_group() {
        let stand = Stand::tuned(Duration::from_millis(200));
        assert_eq!(stand.grp_id, 1);
        assert!(stand.server.db().is_online());
    }

    #[test]
    fn wire_trace_gate_reads_the_median_pair() {
        let steady = |pct: f64| (100.0 - pct, 100.0);
        let outlier = [steady(2.0), steady(-3.0), steady(60.0), steady(1.0), steady(0.0)];
        let delta = wire_trace_delta_pct(&outlier);
        assert!((delta - 1.0).abs() < 1e-9, "one noisy pair moved the median: {delta}");
        let costly = wire_trace_delta_pct(&[steady(30.0); 5]);
        assert!(costly > TRACE_GUARD_TOLERANCE_PCT, "a steady +30% passed the gate");
    }

    #[test]
    fn per_1k_math() {
        assert_eq!(per_1k(5, 1000), 5.0);
        assert_eq!(per_1k(1, 500), 2.0);
        assert_eq!(per_1k(7, 0), 0.0);
    }

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_num("BENCH_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_secs("BENCH_NO_SUCH_VAR", 1.5), Duration::from_secs_f64(1.5));
    }

    #[test]
    fn json_summary_shape() {
        let h = obs::Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let arms = vec![
            JsonArm::from_hist("grouped/8thr", 1234.5678, &h).with("wal_forces", 42.0),
            JsonArm::from_hist("serial \"quoted\"", 10.0, &h),
        ];
        let text = json_summary_string("e11", "group commit", &arms);
        assert!(text.contains("\"experiment\": \"e11\""));
        assert!(text.contains("\"label\": \"grouped/8thr\""));
        assert!(text.contains("\"ops_per_sec\": 1234.5678"));
        assert!(text.contains("\"wal_forces\": 42"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"p95_us\": 288")); // bucket lower bound of 300
                                                   // Every quote is escaped: the document parses as flat JSON lines.
        assert_eq!(text.matches("\"arms\"").count(), 1);
        assert!(obs::json_is_well_formed(&text), "{text}");
    }
}
