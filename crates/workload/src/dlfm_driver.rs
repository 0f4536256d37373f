//! Closed-loop multi-client driver against a DLFM's RPC API.
//!
//! Each client owns a connection (and therefore its own child agent, per
//! the paper's process model) plus a private file namespace, and performs a
//! configurable mix of transactions:
//!
//! * **insert** — create a file and link it (one transaction);
//! * **update** — unlink a linked file and link a replacement in the same
//!   transaction (the paper's update pattern, §3.2);
//! * **delete** — unlink a linked file;
//! * **select** — upcall-style read of a file's link state.
//!
//! Used by experiments E1 (headline rates), E2 (next-key ablation), E9
//! (archive-table contention).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlfm::{DbErrorKind, DlfmError, DlfmRequest, DlfmResponse};
use dlrpc::{ClientConn, Connector};
use filesys::FileSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::WorkloadReport;

/// Operation mix in percent; must sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Link a fresh file.
    pub insert_pct: u32,
    /// Unlink + relink (version replacement).
    pub update_pct: u32,
    /// Unlink.
    pub delete_pct: u32,
    /// Link-state query.
    pub select_pct: u32,
}

impl OpMix {
    /// The paper's system-test flavour: insert-heavy with updates.
    pub fn paper_mix() -> OpMix {
        OpMix { insert_pct: 40, update_pct: 20, delete_pct: 20, select_pct: 20 }
    }

    /// Write-only churn (maximum metadata contention).
    pub fn churn() -> OpMix {
        OpMix { insert_pct: 40, update_pct: 30, delete_pct: 30, select_pct: 0 }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DlfmWorkloadConfig {
    /// Concurrent clients (the paper's system test ran 100).
    pub clients: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Operation mix.
    pub mix: OpMix,
    /// RNG seed (per-client seeds derive from it).
    pub seed: u64,
    /// File group to link into (must be registered by the caller).
    pub grp_id: i64,
    /// Base directory for generated files; each client gets a subtree.
    pub base_dir: String,
}

impl Default for DlfmWorkloadConfig {
    fn default() -> Self {
        DlfmWorkloadConfig {
            clients: 8,
            duration: Duration::from_secs(2),
            mix: OpMix::paper_mix(),
            seed: 42,
            grp_id: 1,
            base_dir: "/wl".into(),
        }
    }
}

/// Global id source so every generated recovery id/xid stays monotonic
/// across clients (the host guarantee the DLFM depends on).
pub struct IdSource {
    xid: AtomicI64,
    rec: AtomicI64,
}

impl IdSource {
    /// Start the sequences above any ids the caller already used.
    pub fn new(start: i64) -> IdSource {
        IdSource { xid: AtomicI64::new(start), rec: AtomicI64::new(start) }
    }

    /// Next transaction id.
    pub fn next_xid(&self) -> i64 {
        self.xid.fetch_add(1, Ordering::SeqCst)
    }

    /// Next recovery id.
    pub fn next_rec(&self) -> i64 {
        self.rec.fetch_add(1, Ordering::SeqCst)
    }
}

/// Run the workload; returns the aggregate report.
pub fn run_dlfm_workload(
    connector: &Connector<DlfmRequest, DlfmResponse>,
    fs: &Arc<FileSystem>,
    config: &DlfmWorkloadConfig,
    ids: &Arc<IdSource>,
) -> WorkloadReport {
    let mut handles = Vec::new();
    for client in 0..config.clients {
        let connector = connector.clone();
        let fs = fs.clone();
        let config = config.clone();
        let ids = ids.clone();
        handles
            .push(std::thread::spawn(move || client_loop(client, &connector, &fs, &config, &ids)));
    }
    let mut aggregate = WorkloadReport::default();
    for h in handles {
        let report = h.join().expect("client thread must not panic");
        aggregate.merge(&report);
    }
    aggregate
}

enum Op {
    Insert,
    Update,
    Delete,
    Select,
}

fn pick(mix: &OpMix, rng: &mut StdRng) -> Op {
    let r = rng.gen_range(0..100u32);
    if r < mix.insert_pct {
        Op::Insert
    } else if r < mix.insert_pct + mix.update_pct {
        Op::Update
    } else if r < mix.insert_pct + mix.update_pct + mix.delete_pct {
        Op::Delete
    } else {
        Op::Select
    }
}

fn client_loop(
    client: usize,
    connector: &Connector<DlfmRequest, DlfmResponse>,
    fs: &Arc<FileSystem>,
    config: &DlfmWorkloadConfig,
    ids: &Arc<IdSource>,
) -> WorkloadReport {
    let mut report = WorkloadReport::default();
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(client as u64));
    let conn = connector.connect().expect("connect");
    let _ = conn.call(DlfmRequest::Connect { dbid: 1 });

    // Files this client has linked (path, still-linked flag maintained).
    let mut linked: Vec<String> = Vec::new();
    let mut created = 0u64;
    let start = Instant::now();

    while start.elapsed() < config.duration {
        let op = pick(&config.mix, &mut rng);
        let t0 = Instant::now();
        let outcome = match op {
            Op::Insert => {
                created += 1;
                let path = format!("{}/c{client}/f{created}", config.base_dir);
                let _ = fs.create(&path, "user", b"data");
                let r = txn_insert(&conn, ids, config.grp_id, &path);
                if r.is_ok() {
                    linked.push(path);
                }
                r
            }
            Op::Update if !linked.is_empty() => {
                let idx = rng.gen_range(0..linked.len());
                let old = linked[idx].clone();
                created += 1;
                let new = format!("{}/c{client}/f{created}", config.base_dir);
                let _ = fs.create(&new, "user", b"data2");
                let r = txn_update(&conn, ids, config.grp_id, &old, &new);
                if r.is_ok() {
                    linked[idx] = new;
                }
                r
            }
            Op::Delete if !linked.is_empty() => {
                let idx = rng.gen_range(0..linked.len());
                let path = linked[idx].clone();
                let r = txn_delete(&conn, ids, config.grp_id, &path);
                if r.is_ok() {
                    linked.swap_remove(idx);
                }
                r
            }
            Op::Select if !linked.is_empty() => {
                let idx = rng.gen_range(0..linked.len());
                let path = linked[idx].clone();
                match conn.call(DlfmRequest::UpcallQuery { filename: path }) {
                    Ok(DlfmResponse::LinkState(_)) => Ok(OpClass::Select),
                    Ok(other) => Err(classify_other(&other)),
                    Err(dlrpc::RpcError::Overloaded) => Err(Fail::Rejected),
                    Err(_) => Err(Fail::Error),
                }
            }
            // Nothing linked yet: fall back to insert.
            _ => {
                created += 1;
                let path = format!("{}/c{client}/f{created}", config.base_dir);
                let _ = fs.create(&path, "user", b"data");
                let r = txn_insert(&conn, ids, config.grp_id, &path);
                if r.is_ok() {
                    linked.push(path);
                }
                r
            }
        };
        let micros = t0.elapsed().as_micros() as u64;
        match outcome {
            Ok(class) => {
                report.latency.record(micros);
                match class {
                    OpClass::Insert => report.inserts += 1,
                    OpClass::Update => report.updates += 1,
                    OpClass::Delete => report.deletes += 1,
                    OpClass::Select => report.selects += 1,
                }
            }
            Err(Fail::Deadlock) => report.deadlocks += 1,
            Err(Fail::Timeout) => report.timeouts += 1,
            Err(Fail::Rejected) => report.rejects += 1,
            Err(Fail::Error) => report.errors += 1,
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[derive(Debug, Clone, Copy)]
enum OpClass {
    Insert,
    Update,
    Delete,
    Select,
}

#[derive(Debug, Clone, Copy)]
enum Fail {
    Deadlock,
    Timeout,
    Rejected,
    Error,
}

fn classify(e: &DlfmError) -> Fail {
    match e {
        DlfmError::Db { kind: DbErrorKind::Deadlock, .. } => Fail::Deadlock,
        DlfmError::Db { kind: DbErrorKind::LockTimeout, .. } => Fail::Timeout,
        _ => Fail::Error,
    }
}

fn classify_other(resp: &DlfmResponse) -> Fail {
    match resp {
        DlfmResponse::Err(e) => classify(e),
        _ => Fail::Error,
    }
}

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

/// Run one request, mapping protocol failures.
fn step(conn: &Conn, req: DlfmRequest) -> Result<DlfmResponse, Fail> {
    match conn.call(req) {
        Ok(DlfmResponse::Err(e)) => Err(classify(&e)),
        Ok(other) => Ok(other),
        Err(dlrpc::RpcError::Overloaded) => Err(Fail::Rejected),
        Err(_) => Err(Fail::Error),
    }
}

fn finish(conn: &Conn, xid: i64, class: OpClass) -> Result<OpClass, Fail> {
    match step(conn, DlfmRequest::Prepare { xid })? {
        DlfmResponse::Prepared { .. } => {}
        _ => return Err(Fail::Error),
    }
    step(conn, DlfmRequest::Commit { xid })?;
    Ok(class)
}

fn abort_quietly(conn: &Conn, xid: i64) {
    let _ = conn.call(DlfmRequest::Abort { xid });
}

fn txn_insert(conn: &Conn, ids: &IdSource, grp: i64, path: &str) -> Result<OpClass, Fail> {
    let xid = ids.next_xid();
    let link = DlfmRequest::LinkFile {
        xid,
        rec_id: ids.next_rec(),
        grp_id: grp,
        filename: path.to_string(),
        in_backout: false,
    };
    match step(conn, link) {
        Ok(_) => finish(conn, xid, OpClass::Insert),
        Err(f) => {
            abort_quietly(conn, xid);
            Err(f)
        }
    }
}

fn txn_update(
    conn: &Conn,
    ids: &IdSource,
    grp: i64,
    old: &str,
    new: &str,
) -> Result<OpClass, Fail> {
    let xid = ids.next_xid();
    let unlink = DlfmRequest::UnlinkFile {
        xid,
        rec_id: ids.next_rec(),
        grp_id: grp,
        filename: old.to_string(),
        in_backout: false,
    };
    let link = DlfmRequest::LinkFile {
        xid,
        rec_id: ids.next_rec(),
        grp_id: grp,
        filename: new.to_string(),
        in_backout: false,
    };
    let result = step(conn, unlink).and_then(|_| step(conn, link));
    match result {
        Ok(_) => finish(conn, xid, OpClass::Update),
        Err(f) => {
            abort_quietly(conn, xid);
            Err(f)
        }
    }
}

fn txn_delete(conn: &Conn, ids: &IdSource, grp: i64, path: &str) -> Result<OpClass, Fail> {
    let xid = ids.next_xid();
    let unlink = DlfmRequest::UnlinkFile {
        xid,
        rec_id: ids.next_rec(),
        grp_id: grp,
        filename: path.to_string(),
        in_backout: false,
    };
    match step(conn, unlink) {
        Ok(_) => finish(conn, xid, OpClass::Delete),
        Err(f) => {
            abort_quietly(conn, xid);
            Err(f)
        }
    }
}
