//! The two client bodies that reproduce the paper's system-test shape,
//! for [`crate::run::run`]:
//!
//! * [`DlfmClients`] drives a DLFM directly through its RPC API (link /
//!   unlink-relink / unlink / link-state query) — the granularity the
//!   locking experiments (E2, E3, E9) and the agent sweep (E12) need;
//! * [`HostClients`] runs the full stack through the host database's SQL
//!   surface with DATALINK columns and two-phase commit — the shape of the
//!   paper's 100-client system test (E1, E14).
//!
//! Each client owns a connection or session and a private file namespace
//! under `/wl`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use dlfm::{DlfmRequest, DlfmResponse};
use dlrpc::{ClientConn, Connector};
use filesys::FileSystem;
use hostdb::{HostDb, HostSession};
use minidb::Value;
use rand::rngs::StdRng;
use rand::Rng;

use crate::run::{Fail, Op};

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

    /// Draw the next operation; with nothing to act on yet, insert.
    fn pick(&self, rng: &mut StdRng, empty: bool) -> Op {
        let r = rng.gen_range(0..100u32);
        if empty || r < self.insert_pct {
            Op::Insert
        } else if r < self.insert_pct + self.update_pct {
            Op::Update
        } else if r < self.insert_pct + self.update_pct + self.delete_pct {
            Op::Delete
        } else {
            Op::Select
        }
    }
}

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

/// Clients of one DLFM: each connects (and so gets its own child agent,
/// per the paper's process model) and links files into one group.
pub struct DlfmClients<'a> {
    connector: Connector<DlfmRequest, DlfmResponse>,
    fs: &'a FileSystem,
    grp_id: i64,
    mix: OpMix,
    /// Transaction and recovery ids, monotonic across clients (the host
    /// guarantee the DLFM depends on).
    xid: AtomicI64,
    rec: AtomicI64,
}

impl<'a> DlfmClients<'a> {
    /// Clients of `connector`'s DLFM, creating their files on `fs` and
    /// linking them into the registered group `grp_id`.
    pub fn new(
        connector: Connector<DlfmRequest, DlfmResponse>,
        fs: &'a FileSystem,
        grp_id: i64,
        mix: OpMix,
    ) -> Self {
        DlfmClients { connector, fs, grp_id, mix, xid: 1_000.into(), rec: 1_000.into() }
    }

    /// Client `client`'s body.
    pub fn client(&self, client: usize) -> impl FnMut(&mut StdRng) -> Result<Op, Fail> + '_ {
        let conn = self.connector.connect().expect("connect");
        let _ = conn.call(DlfmRequest::Connect { dbid: 1 });
        let mut linked: Vec<String> = Vec::new();
        let mut created = 0u64;
        move |rng| {
            let mut fresh = |data: &[u8]| {
                created += 1;
                let path = format!("/wl/c{client}/f{created}");
                let _ = self.fs.create(&path, "user", data);
                path
            };
            match self.mix.pick(rng, linked.is_empty()) {
                Op::Insert => {
                    let path = fresh(b"data");
                    let r = self.txn(&conn, &[(true, &path)], Op::Insert);
                    if r.is_ok() {
                        linked.push(path);
                    }
                    r
                }
                Op::Update => {
                    let idx = rng.gen_range(0..linked.len());
                    let new = fresh(b"data2");
                    let r = self.txn(&conn, &[(false, &linked[idx]), (true, &new)], Op::Update);
                    if r.is_ok() {
                        linked[idx] = new;
                    }
                    r
                }
                Op::Delete => {
                    let idx = rng.gen_range(0..linked.len());
                    let r = self.txn(&conn, &[(false, &linked[idx])], Op::Delete);
                    if r.is_ok() {
                        linked.swap_remove(idx);
                    }
                    r
                }
                Op::Select => {
                    let filename = linked[rng.gen_range(0..linked.len())].clone();
                    match call(&conn, DlfmRequest::UpcallQuery { filename })? {
                        DlfmResponse::LinkState(_) => Ok(Op::Select),
                        _ => Err(Fail::Error),
                    }
                }
            }
        }
    }

    /// One transaction of links (`true`) and unlinks, prepared and
    /// committed; a failed forward step aborts it.
    fn txn(&self, conn: &Conn, steps: &[(bool, &str)], op: Op) -> Result<Op, Fail> {
        let xid = self.xid.fetch_add(1, Ordering::SeqCst);
        let forward = steps.iter().try_for_each(|&(link, path)| {
            let (rec_id, grp_id, filename) =
                (self.rec.fetch_add(1, Ordering::SeqCst), self.grp_id, path.to_string());
            let req = if link {
                DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout: false }
            } else {
                DlfmRequest::UnlinkFile { xid, rec_id, grp_id, filename, in_backout: false }
            };
            call(conn, req).map(drop)
        });
        if let Err(f) = forward {
            let _ = conn.call(DlfmRequest::Abort { xid });
            return Err(f);
        }
        match call(conn, DlfmRequest::Prepare { xid })? {
            DlfmResponse::Prepared { .. } => {}
            _ => return Err(Fail::Error),
        }
        call(conn, DlfmRequest::Commit { xid })?;
        Ok(op)
    }
}

/// One request; a DLFM error reply is a failure.
fn call(conn: &Conn, req: DlfmRequest) -> Result<DlfmResponse, Fail> {
    match conn.call(req)? {
        DlfmResponse::Err(e) => Err(e.into()),
        other => Ok(other),
    }
}

/// Clients of a host database with a `media (id, title, clip DATALINK)`
/// table (created by the caller): each inserts, updates, deletes and
/// selects rows whose `clip` links a file it created.
pub struct HostClients<'a> {
    host: &'a HostDb,
    fs: &'a FileSystem,
    /// File-server name the datalink URLs point at.
    server: &'a str,
    mix: OpMix,
    /// Unmeasured inserts per client before the window opens, so every
    /// client has a working set and the mix holds from the first
    /// measured transaction.
    warmup_ops: usize,
    row_seq: AtomicU64,
}

impl<'a> HostClients<'a> {
    /// Clients of `host`, creating their files on `fs` and linking them as
    /// `dlfs://{server}/wl/...`.
    pub fn new(
        host: &'a HostDb,
        fs: &'a FileSystem,
        server: &'a str,
        mix: OpMix,
        warmup_ops: usize,
    ) -> Self {
        HostClients { host, fs, server, mix, warmup_ops, row_seq: 1.into() }
    }

    /// Client `client`'s body (its warm-up inserts run here).
    pub fn client(&self, client: usize) -> impl FnMut(&mut StdRng) -> Result<Op, Fail> + '_ {
        let mut session = self.host.session();
        // Rows this client inserted.
        let mut rows: Vec<i64> = Vec::new();
        let mut created = 0u64;
        for _ in 0..self.warmup_ops {
            created += 1;
            let path = format!("/wl/h{client}/w{created}");
            if let Ok(id) = self.insert(&mut session, &path) {
                rows.push(id);
            }
        }
        move |rng| {
            let op = self.mix.pick(rng, rows.is_empty());
            if op == Op::Insert {
                created += 1;
                let id = self.insert(&mut session, &format!("/wl/h{client}/f{created}"))?;
                rows.push(id);
                return Ok(op);
            }
            let idx = rng.gen_range(0..rows.len());
            let id = Value::Int(rows[idx]);
            match op {
                Op::Update => {
                    created += 1;
                    let path = format!("/wl/h{client}/f{created}");
                    let _ = self.fs.create(&path, "user", b"content2");
                    let url = Value::str(format!("dlfs://{}{path}", self.server));
                    session.exec_params("UPDATE media SET clip = ? WHERE id = ?", &[url, id])?;
                }
                Op::Delete => {
                    session.exec_params("DELETE FROM media WHERE id = ?", &[id])?;
                    rows.swap_remove(idx);
                }
                _ => {
                    session.exec_params("SELECT clip FROM media WHERE id = ?", &[id])?;
                }
            }
            Ok(op)
        }
    }

    /// Create a file at `path` and insert a row linking it; the row's id.
    fn insert(&self, session: &mut HostSession, path: &str) -> Result<i64, hostdb::HostError> {
        let id = self.row_seq.fetch_add(1, Ordering::SeqCst) as i64;
        let _ = self.fs.create(path, "user", b"content");
        session.exec_params(
            "INSERT INTO media (id, title, clip) VALUES (?, ?, ?)",
            &[
                Value::Int(id),
                Value::str(format!("clip {id}")),
                Value::str(format!("dlfs://{}{path}", self.server)),
            ],
        )?;
        Ok(id)
    }
}
