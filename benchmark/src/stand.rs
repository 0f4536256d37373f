//! The system under test: one host database, 1–2 DLFM shards, a shared
//! file system and archive server, preloaded with linked rows — plus the
//! public counters of every layer read as one snapshot.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlfm::{AccessControl, AgentModel, DlfmConfig, DlfmServer, Transport};
use hostdb::{DatalinkSpec, HostConfig, HostDb, HostSession};
use minidb::{Session, Value};

use crate::gen::{file_content, Layout};
use crate::spec::{Spec, FORCE_LATENCY};

/// User that owns files before DLFM takes them over, and reads them.
pub const APP_USER: &str = "app";

/// The insert every client, probe and test issues.
pub const SQL_INSERT: &str = "INSERT INTO media (id, title, clip) VALUES (?, ?, ?)";

/// Create the benchmark's table on `host` (whose DLFMs are attached):
/// `clip` is a DATALINK under full access control with recovery, `id` is
/// uniquely indexed, and the statistics are hand-set so that the optimizer
/// probes by index from the first row on. Returns the session used.
pub fn create_media(host: &HostDb) -> HostSession {
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
        &[DatalinkSpec { column: "clip".into(), access: AccessControl::Full, recovery: true }],
    )
    .expect("create media");
    s.exec("CREATE UNIQUE INDEX ix_media ON media (id)").expect("index media");
    host.db().set_table_stats("media", 1_000_000).expect("stats");
    host.db().set_index_stats("ix_media", 1_000_000).expect("stats");
    s
}

pub struct Stand {
    pub spec: &'static Spec,
    pub layout: Layout,
    pub fs: Arc<filesys::FileSystem>,
    pub archive: Arc<archive::ArchiveServer>,
    pub shards: Vec<DlfmServer>,
    pub host: HostDb,
    sockets: Vec<PathBuf>,
}

impl Stand {
    /// Build the stand and preload it. `run_dir` holds the Unix sockets;
    /// `tag` keeps the socket names of successive stands apart.
    pub fn build(spec: &'static Spec, run_dir: &Path, tag: usize) -> Stand {
        let fs = Arc::new(filesys::FileSystem::new());
        let archive = Arc::new(archive::ArchiveServer::new());

        let mut host_config = HostConfig::default();
        // Host-side next-key locks are held to commit and would serialise
        // neighbouring clients' inserts (the paper's E1 tuning note).
        host_config.db.next_key_locking = false;
        let host = HostDb::new(host_config);

        let names: Vec<String> = (0..spec.shards).map(|i| format!("s{i}")).collect();
        let mut shards = Vec::new();
        let mut sockets = Vec::new();
        for name in &names {
            let mut config =
                DlfmConfig { agent_model: AgentModel::pooled(8, 4096), ..DlfmConfig::default() };
            if spec.wire {
                let path = run_dir.join(format!("{}-{tag}-{name}.sock", std::process::id()));
                config.listen = Transport::Unix(path.to_string_lossy().into_owned());
                sockets.push(path);
            }
            let server = DlfmServer::start(config, fs.clone(), archive.clone());
            match server.listen_addr() {
                Some(addr) => host
                    .attach_dlfm_url(name, &addr.to_string())
                    .expect("attaching to a socket just bound"),
                None => host.attach_dlfm(name, server.connector()),
            }
            shards.push(server);
        }
        if names.len() > 1 {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            host.set_shards(&refs).expect("every shard was just attached");
        }

        let mut s = create_media(&host);

        let layout = Layout::new(spec.clients, &names);
        let mut rows = Vec::with_capacity(layout.clients * layout.preload);
        for client in 0..layout.clients {
            for i in 0..layout.preload {
                let slot = layout.slot_id(client, i);
                fs.create(&layout.path(slot, 0), APP_USER, &file_content(slot, 0))
                    .expect("fresh file");
                rows.push(vec![
                    Value::Int(slot),
                    Value::str(format!("clip {slot}")),
                    Value::str(layout.url(slot, 0)),
                ]);
            }
        }
        let report = s.load("media", &["id", "title", "clip"], &rows, 500).expect("preload");
        assert_eq!(report.rows_loaded, rows.len(), "preload stopped at {:?}", report.failed_at);
        drop(s);

        let stand = Stand { spec, layout, fs, archive, shards, host, sockets };
        stand.drain_copies();
        if spec.forced {
            // Flush policy of the force-bound stand, set after the preload
            // so set-up is not 10 000 forced commits long: every shard
            // force is serial and costs FORCE_LATENCY, as does every
            // coordinator-log force.
            for shard in &stand.shards {
                shard.db().set_group_commit(false);
                shard.db().set_log_force_latency(FORCE_LATENCY);
            }
            stand.host.coord_log().set_force_latency(FORCE_LATENCY);
        }
        stand
    }

    /// Files the Copy daemons still have to archive.
    pub fn copy_backlog(&self) -> i64 {
        self.shards
            .iter()
            .map(|sh| {
                Session::new(sh.db())
                    .query_int("SELECT COUNT(*) FROM dfm_archive", &[])
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Wait until the Copy daemons' backlog is empty; returns how long
    /// that took.
    pub fn drain_copies(&self) -> Duration {
        let start = Instant::now();
        while self.copy_backlog() > 0 {
            assert!(start.elapsed() < Duration::from_secs(60), "copy daemon backlog never drained");
            std::thread::sleep(Duration::from_micros(500));
        }
        start.elapsed()
    }

    /// Every public counter the per-layer metrics are deltas of.
    pub fn counters(&self) -> Counters {
        let mut c = BTreeMap::new();
        let hm = self.host.metrics();
        c.insert("host.commits", hm.commits.load(Relaxed));
        c.insert("host.twopc_commits", hm.twopc_commits.load(Relaxed));
        c.insert("host.links", hm.links.load(Relaxed));
        c.insert("host.unlinks", hm.unlinks.load(Relaxed));
        c.insert("host.prepare_failures", hm.prepare_failures.load(Relaxed));
        c.insert("host.rpc_errors", hm.host_rpc_errors.load(Relaxed));
        c.insert("host.pool_hits", hm.conn_pool_hits.load(Relaxed));
        c.insert("host.pool_misses", hm.conn_pool_misses.load(Relaxed));
        c.insert("host.phase2_transport_errors", hm.phase2_transport_errors.load(Relaxed));
        c.insert("coord.forces", self.host.coord_log().forces_total());
        c.insert("coord.decisions", self.host.coord_log().decisions_total());
        c.insert("hostdb.wal_forces", self.host.db().wal_forces_total());
        c.insert("hostdb.wal_commits", self.host.db().wal_commits_total());

        let mut add = |key: &'static str, v: u64| *c.entry(key).or_insert(0) += v;
        let dbs = std::iter::once(self.host.db()).chain(self.shards.iter().map(|s| s.db()));
        for db in dbs {
            let l = db.lock_metrics().snapshot();
            add("lock.acquisitions", l.acquisitions);
            add("lock.waits", l.waits);
            add("lock.deadlocks", l.deadlocks);
            add("lock.timeouts", l.timeouts);
            add("lock.escalations", l.escalations);
            add("mvcc.reads", db.mvcc_reads_total());
        }
        for (name, shard) in self.layout.shards.iter().zip(&self.shards) {
            add("dlfmdb.wal_forces", shard.db().wal_forces_total());
            add("dlfmdb.wal_commits", shard.db().wal_commits_total());
            let connector = shard.connector();
            add("rpc.calls", connector.stats().calls());
            add("rpc.pool_rejects", connector.pool_stats().map_or(0, |p| p.rejects()));
            if let Some(w) = self.host.wire_stats(name) {
                add("rpc.frames", w.frames_tx.load(Relaxed) + w.frames_rx.load(Relaxed));
                add("rpc.wire_bytes", w.bytes_tx.load(Relaxed) + w.bytes_rx.load(Relaxed));
                add("rpc.reconnects", w.reconnects());
                add("rpc.decode_errors", w.decode_errors());
            }
            let m = shard.metrics().snapshot();
            add("dlfm.phase2_retries", m.phase2_retries);
            add("dlfm.forced_rollbacks", m.forced_rollbacks);
            add("dlfm.phase2_abandoned", m.phase2_abandoned);
            add("dlfm.files_archived", m.files_archived);
            add("dlff.upcalls", shard.dlff().upcalls());
        }
        c.insert("archive.stores", self.archive.metrics().stores.load(Relaxed));
        c.insert("obs.spans", obs::trace::global_ring().pushed());

        // Lock-wait histogram as a cumulative count at each ladder bound,
        // so a window's distribution is the difference of two snapshots.
        let lock_wait_cdf = LOCK_WAIT_LADDER_US
            .iter()
            .map(|&bound| {
                std::iter::once(self.host.db())
                    .chain(self.shards.iter().map(|s| s.db()))
                    .map(|db| db.lock_wait_hist().count_at_or_below(bound))
                    .sum()
            })
            .collect();
        Counters { values: c, lock_wait_cdf }
    }

    /// MVCC version chains alive across every database of the stand.
    pub fn version_chains(&self) -> usize {
        self.host.db().mvcc_version_chains()
            + self.shards.iter().map(|s| s.db().mvcc_version_chains()).sum::<usize>()
    }
}

impl Drop for Stand {
    fn drop(&mut self) {
        // Stop the servers (and their listeners) before unlinking sockets.
        self.shards.clear();
        for path in &self.sockets {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Upper bounds (µs) the lock-wait distribution is read at.
pub const LOCK_WAIT_LADDER_US: [u64; 19] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    1_000_000,
    10_000_000,
    u64::MAX,
];

#[derive(Debug, Clone)]
pub struct Counters {
    values: BTreeMap<&'static str, u64>,
    lock_wait_cdf: Vec<u64>,
}

impl Counters {
    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            values: self.values.iter().map(|(k, v)| (*k, v - earlier.get_raw(k))).collect(),
            lock_wait_cdf: self
                .lock_wait_cdf
                .iter()
                .zip(&earlier.lock_wait_cdf)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// `self + other`, counter by counter (deltas of separate windows).
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            values: self.values.iter().map(|(k, v)| (*k, v + other.get_raw(k))).collect(),
            lock_wait_cdf: self
                .lock_wait_cdf
                .iter()
                .zip(&other.lock_wait_cdf)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    fn get_raw(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }

    /// A counter's value; 0 for one this stand does not have (wire
    /// counters on an in-process attach).
    pub fn get(&self, key: &str) -> f64 {
        self.get_raw(key) as f64
    }

    /// Smallest ladder bound at or below which 95 % of the lock waits
    /// fell; 0 when nothing waited.
    pub fn lock_wait_p95_us(&self) -> f64 {
        let total = *self.lock_wait_cdf.last().unwrap_or(&0);
        if total == 0 {
            return 0.0;
        }
        let rank = (total as f64 * 0.95).ceil() as u64;
        let i = self.lock_wait_cdf.iter().position(|&c| c >= rank).unwrap_or(0);
        LOCK_WAIT_LADDER_US[i].min(100_000_000) as f64
    }
}
