//! Shared scaffolding for the experiment binaries (E1-E14).
//!
//! Every binary prints a self-contained report: the paper's claim, the
//! configuration, and the measured numbers, as aligned text tables that
//! EXPERIMENTS.md records. Durations and client counts can be scaled with
//! environment variables:
//!
//! * `RUN_SECS` — measured seconds per arm (default experiment-specific);
//! * `CLIENTS` — concurrent clients where applicable;
//! * `SCALE` — global workload multiplier for the slow experiments.
//!
//! Every client loop is one closed-loop runner ([`run::run`]) over a
//! per-client op body ([`drivers`] holds the DLFM and host ones), every
//! overhead guard is one alternating-pairs guard ([`guard`]), and every
//! table is one [`Table`].

#![warn(missing_docs)]

pub mod drivers;
pub mod guard;
pub mod hist;
pub mod report;
pub mod run;

use std::sync::Arc;
use std::time::Duration;

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec};
use filesys::FileSystem;

pub use report::Report;
pub use run::{in_txn, run, Fail, Load, Op};

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

/// An aligned text table: each column is left-aligned to its width, two
/// spaces apart, and the header is underlined by a dash rule as long as
/// each column's name.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Print the header (`(name, width)` per column) and its rule.
    pub fn new(columns: &[(&str, usize)]) -> Table {
        let table = Table { widths: columns.iter().map(|&(_, w)| w).collect() };
        let rules: Vec<String> = columns.iter().map(|(name, _)| "-".repeat(name.len())).collect();
        table.row(&columns.iter().map(|&(name, _)| name).collect::<Vec<_>>());
        table.row(&rules.iter().map(String::as_str).collect::<Vec<_>>());
        table
    }

    /// Print one row.
    pub fn row(&self, cols: &[&str]) {
        println!("{}", self.line(cols));
    }

    fn line(&self, cols: &[&str]) -> String {
        let mut line = String::new();
        for (c, w) in cols.iter().zip(&self.widths) {
            line.push_str(&format!("{c:<w$}  "));
        }
        line.trim_end().to_string()
    }
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
        use guard::{Paired, TRACE_GUARD_TOLERANCE_PCT};
        let steady = |pct: f64| (100.0 - pct, 100.0);
        let outlier = Paired {
            pairs: vec![steady(2.0), steady(-3.0), steady(60.0), steady(1.0), steady(0.0)],
        };
        let delta = outlier.delta_pct();
        assert!((delta - 1.0).abs() < 1e-9, "one noisy pair moved the median: {delta}");
        let costly = Paired { pairs: vec![steady(30.0); 5] }.delta_pct();
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
