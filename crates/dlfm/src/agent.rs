//! The DLFM agent: executes each host connection's requests against that
//! connection's state in the session table (paper §3.5).
//!
//! Whichever way the RPC fabric lays out its agents — one pinned to each
//! connection, the paper's child agent, or a pool shared by all of them —
//! every event goes through [`handle_event`]: a request runs against its
//! session's [`SessionState`], checked out of the [`SessionTable`], and a
//! hangup retires that state.
//!
//! Forward processing (link/unlink/delete-group) runs inside a single local
//! database transaction per host transaction; Prepare hardens it with a
//! local COMMIT; phase 2 is handled by [`crate::twopc`]. Long-running
//! transactions are chunked: after every N operations the agent issues a
//! local commit, keeping the transaction marked in-flight in the
//! transaction table (paper §4).

use std::collections::HashMap;
use std::sync::Arc;

use dlrpc::{PoolEvent, ReplySlot};
use minidb::{Session, Value};

use crate::api::{
    AccessControl, DbErrorKind, DlfmError, DlfmRequest, DlfmResponse, DlfmResult, GroupSpec,
    LinkRow, LinkStatus, MAX_BATCH_OPS,
};
use crate::chown::encode_mode;
use crate::meta::{FileEntry, G_DELETE_PENDING, G_NORMAL, LNK_LINKED, XS_INFLIGHT, XS_PREPARED};
use crate::metrics::DlfmMetrics;
use crate::server::{now_micros, DlfmShared};
use crate::twopc;

/// State of the in-progress host transaction on this connection.
struct CurTxn {
    xid: i64,
    /// Operations since the last chunk commit.
    ops_since_chunk: usize,
    /// Total operations in the transaction.
    total_ops: usize,
    /// Whether an in-flight transaction-table entry exists (chunked).
    chunked: bool,
    /// Groups marked deleted by this transaction.
    groups_deleted: i64,
}

/// Per-connection mutable state: the local-database session (whose open
/// sub-transaction spans requests) and the in-progress host transaction.
/// It lives in the [`SessionTable`] keyed by the fabric session id, so
/// whichever agent serves a connection's next request finds it there.
pub struct SessionState {
    /// Local-database session; its open transaction spans requests.
    session: Session,
    /// Host database id announced by Connect.
    dbid: i64,
    /// In-progress host transaction, if any.
    cur: Option<CurTxn>,
}

impl SessionState {
    /// Fresh state for a new connection.
    fn new(shared: &DlfmShared) -> SessionState {
        SessionState { session: Session::new(&shared.db), dbid: 0, cur: None }
    }

    /// One status-table line: host database and open-transaction progress.
    pub fn status_line(&self) -> String {
        match &self.cur {
            Some(cur) => format!(
                "dbid#{} xid#{} open: {} ops{}{}",
                self.dbid,
                cur.xid,
                cur.total_ops,
                if cur.chunked { ", chunked" } else { "" },
                if cur.groups_deleted > 0 {
                    format!(", {} groups deleted", cur.groups_deleted)
                } else {
                    String::new()
                },
            ),
            None => format!("dbid#{} idle", self.dbid),
        }
    }

    /// Roll back whatever is open (the connection went away
    /// mid-transaction). Chunk-committed work is already committed and a
    /// plain rollback cannot undo it, so a chunked transaction also needs
    /// its phase-2 abort here; when that fails the `dfm_xact` row stays
    /// behind (counted, warned) and restart's presumed abort resolves it
    /// in-doubt rather than leaking the hardened work.
    fn abandon(&mut self, shared: &DlfmShared) {
        if let Some(cur) = self.cur.take() {
            self.session.rollback();
            if cur.chunked {
                if let Err(e) = twopc::run_phase2_abort(shared, self.dbid, cur.xid) {
                    DlfmMetrics::bump(&shared.metrics.phase2_abort_failures);
                    obs::warn!(
                        "dlfm::agent",
                        "hangup abort of chunked xid#{} failed \
                         (left in-doubt for restart/resolver): {e}",
                        cur.xid
                    );
                }
            }
        }
    }
}

/// Session-state table, keyed by fabric session id. Checkout hands back
/// the per-session lock: concurrent requests on the same session serialize
/// on it (the host issues one call at a time per connection anyway), while
/// different sessions proceed in parallel on different agents.
#[derive(Default)]
pub struct SessionTable {
    states: parking_lot::Mutex<HashMap<u64, Arc<parking_lot::Mutex<SessionState>>>>,
}

impl SessionTable {
    /// State for `session`, created on first use.
    pub fn checkout(
        &self,
        shared: &DlfmShared,
        session: u64,
    ) -> Arc<parking_lot::Mutex<SessionState>> {
        self.states
            .lock()
            .entry(session)
            .or_insert_with(|| Arc::new(parking_lot::Mutex::new(SessionState::new(shared))))
            .clone()
    }

    /// Drop `session`'s state (the client hung up), rolling back any open
    /// transaction and undoing its chunk-hardened work.
    pub fn retire(&self, shared: &DlfmShared, session: u64) {
        let state = self.states.lock().remove(&session);
        if let Some(state) = state {
            state.lock().abandon(shared);
        }
    }

    /// Sessions with live state (gauge).
    pub fn active(&self) -> usize {
        self.states.lock().len()
    }

    /// One status line per live session, sorted by session id. A session
    /// currently executing on an agent reports `(busy)` rather than
    /// blocking the status caller on its lock.
    pub fn status_lines(&self) -> Vec<(u64, String)> {
        let states: Vec<_> = self.states.lock().iter().map(|(id, s)| (*id, s.clone())).collect();
        let mut lines: Vec<(u64, String)> = states
            .into_iter()
            .map(|(id, s)| {
                let line = match s.try_lock() {
                    Some(st) => st.status_line(),
                    None => "(busy on an agent)".to_string(),
                };
                (id, line)
            })
            .collect();
        lines.sort_by_key(|(id, _)| *id);
        lines
    }
}

/// The one DLFM handler, run by every agent under either agent model. A
/// request runs against its session's state; a hangup — a client that
/// dropped its connection, a wire socket that died mid-call, or the
/// server's shutdown reaching a pinned agent — retires that state, so the
/// rollback does not depend on how the connection ended.
pub fn handle_event(
    shared: &DlfmShared,
    event: PoolEvent<DlfmRequest>,
    slot: ReplySlot<DlfmResponse>,
) {
    match event {
        PoolEvent::Request { session, req } => {
            let state = shared.sessions.checkout(shared, session);
            let resp = handle_request(shared, &mut state.lock(), req);
            slot.send(resp);
        }
        PoolEvent::Hangup { session } => shared.sessions.retire(shared, session),
    }
}

/// Dispatch one request against a session's state, tracing it and
/// recording per-op latency. A batch funnels each of its members through
/// here in turn, so a member is traced, timed, chunk-committed and
/// force-rolled-back exactly like the same request sent alone.
pub fn handle_request(
    shared: &DlfmShared,
    state: &mut SessionState,
    req: DlfmRequest,
) -> DlfmResponse {
    let req = match req {
        DlfmRequest::Batch(members) => return handle_batch(shared, state, members),
        req => req,
    };
    let op = req.op_name();
    let metrics = shared.metrics.clone();
    let mut span = obs::span(obs::Layer::Dlfm, op);
    let started = std::time::Instant::now();
    let mut exec = Exec { shared, state };
    let result = exec.dispatch(req);
    if let Some(hist) = op_hist(&metrics.op_hists, op) {
        hist.record_micros(started.elapsed());
    }
    match result {
        Ok(resp) => resp,
        Err(e) => {
            span.fail();
            if let DlfmError::Db { retryable: true, .. } = &e {
                // A deadlock/timeout in the local database rolled back
                // the whole sub-transaction; the host must roll back the
                // full transaction (paper §3.2).
                obs::warn!("dlfm::agent", "{op} hit retryable error, forcing host rollback: {e}");
                state.cur = None;
                state.session.rollback();
                DlfmMetrics::bump(&metrics.forced_rollbacks);
            }
            DlfmResponse::Err(e)
        }
    }
}

/// Run a batch's members in order, stopping after the first that answers
/// `Err`: the members behind it were sent on the assumption that it
/// succeeded (above all a trailing `Prepare`, which must not harden a
/// statement that failed half way).
fn handle_batch(
    shared: &DlfmShared,
    state: &mut SessionState,
    members: Vec<DlfmRequest>,
) -> DlfmResponse {
    if let Err(why) = check_batch(&members) {
        return DlfmResponse::Err(DlfmError::Protocol(why));
    }
    DlfmMetrics::bump(&shared.metrics.batches);
    let mut replies = Vec::with_capacity(members.len());
    for member in members {
        let reply = handle_request(shared, state, member);
        let failed = matches!(reply, DlfmResponse::Err(_));
        replies.push(reply);
        if failed {
            break;
        }
    }
    DlfmResponse::Batch(replies)
}

/// A legal batch is 1..=[`MAX_BATCH_OPS`] `LinkFile`/`UnlinkFile` members
/// of one transaction, optionally closed by that transaction's `Prepare`.
/// Checked in full before anything runs. (The decoder already refuses an
/// oversized or nested batch, so no agent sees one.)
fn check_batch(members: &[DlfmRequest]) -> Result<(), String> {
    if members.is_empty() || members.len() > MAX_BATCH_OPS {
        return Err(format!("batch of {} members (1..={MAX_BATCH_OPS})", members.len()));
    }
    let mut batch_xid = None;
    for (i, member) in members.iter().enumerate() {
        let xid = match member {
            DlfmRequest::LinkFile { xid, .. } | DlfmRequest::UnlinkFile { xid, .. } => *xid,
            DlfmRequest::Prepare { xid } if i + 1 == members.len() => *xid,
            other => {
                return Err(format!("{} is not a legal batch member #{i}", other.op_name()));
            }
        };
        let first = *batch_xid.get_or_insert(xid);
        if first != xid {
            return Err(format!("batch mixes transactions {first} and {xid}"));
        }
    }
    Ok(())
}

/// One request's execution context: the shared DLFM plus the session
/// state it runs against.
struct Exec<'a> {
    shared: &'a DlfmShared,
    state: &'a mut SessionState,
}

impl Exec<'_> {
    fn dispatch(&mut self, req: DlfmRequest) -> DlfmResult<DlfmResponse> {
        match req {
            DlfmRequest::Connect { dbid } => {
                self.state.dbid = dbid;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::BeginTxn { xid } => {
                self.ensure_txn(xid)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout } => {
                self.link_file(xid, rec_id, grp_id, &filename, in_backout)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::UnlinkFile { xid, rec_id, grp_id, filename, in_backout } => {
                self.unlink_file(xid, rec_id, grp_id, &filename, in_backout)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::Prepare { xid } => self.prepare(xid),
            DlfmRequest::Commit { xid } => self.commit(xid),
            DlfmRequest::Abort { xid } => self.abort(xid),
            DlfmRequest::RegisterGroup(spec) => {
                self.register_group(&spec)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::DeleteGroup { xid, grp_id, rec_id } => {
                self.delete_group(xid, grp_id, rec_id)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::IssueToken { filename } => self.issue_token(&filename),
            DlfmRequest::ListIndoubt => self.list_indoubt(),
            DlfmRequest::BeginBackup { backup_id, rec_id } => {
                crate::backup::begin_backup(self.shared, self.state.dbid, backup_id, rec_id)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::EndBackup { backup_id, success } => {
                crate::backup::end_backup(self.shared, self.state.dbid, backup_id, success)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::RestoreTo { rec_id } => {
                crate::backup::restore_to(self.shared, self.state.dbid, rec_id)?;
                Ok(DlfmResponse::Ok)
            }
            DlfmRequest::Reconcile { entries } => {
                let (broken, orphans) =
                    crate::backup::reconcile(self.shared, self.state.dbid, &entries)?;
                Ok(DlfmResponse::ReconcileReport {
                    broken_host_refs: broken,
                    orphans_unlinked: orphans,
                })
            }
            DlfmRequest::UpcallQuery { filename } => {
                DlfmMetrics::bump(&self.shared.metrics.upcalls);
                Ok(DlfmResponse::LinkState(query_link_state(self.shared, &filename)))
            }
            DlfmRequest::PendingCopies => {
                let stmts = self.shared.statements();
                let mut s = Session::new(&self.shared.db);
                let n = s.exec_prepared(&stmts.cnt_archive, &[])?.rows()[0][0].as_int()?;
                Ok(DlfmResponse::Count(n))
            }
            DlfmRequest::ExportLinks { prefix, remove } => self.export_links(&prefix, remove),
            DlfmRequest::ImportLinks { entries } => self.import_links(&entries),
            DlfmRequest::Ping => Ok(DlfmResponse::Ok),
            DlfmRequest::FetchTelemetry { kind } => {
                Ok(DlfmResponse::Telemetry(crate::server::render_telemetry(self.shared, kind)))
            }
            DlfmRequest::Batch(_) => {
                Err(DlfmError::Protocol("a batch is unpacked by handle_request".into()))
            }
        }
    }

    // ------------------------------------------------------------------
    // Transaction plumbing
    // ------------------------------------------------------------------

    fn ensure_txn(&mut self, xid: i64) -> DlfmResult<()> {
        match &self.state.cur {
            Some(cur) if cur.xid == xid => Ok(()),
            Some(cur) => Err(DlfmError::Protocol(format!(
                "transaction {} already open on this connection, got request for {}",
                cur.xid, xid
            ))),
            None => {
                self.state.session.begin()?;
                self.state.cur = Some(CurTxn {
                    xid,
                    ops_since_chunk: 0,
                    total_ops: 0,
                    chunked: false,
                    groups_deleted: 0,
                });
                obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                    format!("xid#{xid} begun (forward processing)")
                });
                Ok(())
            }
        }
    }

    /// Account one forward operation; issue a chunked local commit when the
    /// long-transaction threshold is crossed (paper §4).
    fn account_op(&mut self, xid: i64) -> DlfmResult<()> {
        let Some(chunk_every) = self.shared.config.chunk_commit_every else {
            if let Some(cur) = self.state.cur.as_mut() {
                cur.ops_since_chunk += 1;
                cur.total_ops += 1;
            }
            return Ok(());
        };
        let (needs_chunk, first_chunk, groups_deleted) = {
            let cur = self.state.cur.as_mut().ok_or(DlfmError::UnknownTxn(xid))?;
            cur.ops_since_chunk += 1;
            cur.total_ops += 1;
            (cur.ops_since_chunk >= chunk_every, !cur.chunked, cur.groups_deleted)
        };
        if !needs_chunk {
            return Ok(());
        }
        let stmts = self.shared.statements();
        if first_chunk {
            // First chunk commit: insert the in-flight transaction entry so
            // a crash can find and abort the hardened chunks.
            self.state.session.exec_prepared(
                &stmts.ins_xact,
                &[
                    Value::Int(xid),
                    Value::Int(self.state.dbid),
                    Value::Int(XS_INFLIGHT),
                    Value::Int(groups_deleted),
                    Value::Int(now_micros()),
                ],
            )?;
        }
        // Lazy: the Prepare's force covers every earlier chunk. A crash
        // before it leaves a durable prefix of chunks behind the INFLIGHT
        // row (inserted by the first), which restart's presumed abort
        // compensates.
        self.state.session.commit_lazy()?;
        DlfmMetrics::bump(&self.shared.metrics.chunk_commits);
        self.state.session.begin()?;
        if let Some(cur) = self.state.cur.as_mut() {
            cur.ops_since_chunk = 0;
            cur.chunked = true;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Link / Unlink (paper §3.2)
    // ------------------------------------------------------------------

    fn link_file(
        &mut self,
        xid: i64,
        rec_id: i64,
        grp_id: i64,
        filename: &str,
        in_backout: bool,
    ) -> DlfmResult<()> {
        self.ensure_txn(xid)?;
        let stmts = self.shared.statements();
        if in_backout {
            // Undo of a previous link in a savepoint backout: delete the
            // entry this transaction inserted.
            self.state
                .session
                .exec_prepared(&stmts.del_backout_link, &[Value::str(filename), Value::Int(xid)])?;
            return Ok(());
        }

        // Check 1: the group exists and is live.
        let group = self.load_group(grp_id)?;
        if group.state != G_NORMAL {
            return Err(DlfmError::NoSuchGroup(grp_id));
        }
        // Check 2: the file exists on this file server.
        let meta = self
            .shared
            .chown
            .get_info(filename)
            .map_err(|_| DlfmError::NoSuchFile(filename.to_string()))?;
        // Check 3: no unresolved unlink of the same file by another
        // transaction (re-linking before that outcome is known could make
        // its abort unrestorable).
        let rows =
            self.state.session.exec_prepared(&stmts.sel_by_name, &[Value::str(filename)])?.rows();
        for row in &rows {
            let e = FileEntry::from_row(row)?;
            if e.lnk_state == LNK_LINKED {
                return Err(DlfmError::AlreadyLinked(filename.to_string()));
            }
            if let Some(unlink_xid) = e.unlink_xid {
                if unlink_xid != xid && self.unresolved(unlink_xid)? {
                    return Err(DlfmError::FileBusy(filename.to_string()));
                }
            }
        }

        // Insert the linked entry; the unique (filename, check_flag) index
        // closes the race two concurrent linkers would otherwise have.
        let result = self.state.session.exec_prepared(
            &stmts.ins_file,
            &[
                Value::Int(self.state.dbid),
                Value::str(filename),
                Value::Int(grp_id),
                Value::Int(LNK_LINKED),
                Value::Int(0), // check_flag = 0 for linked entries
                Value::Int(xid),
                Value::Int(rec_id),
                Value::Int(group.access.code()),
                Value::Int(group.recovery as i64),
                Value::str(meta.owner.clone()),
                Value::Int(encode_mode(meta.mode)),
                Value::Int(meta.fsid as i64),
                Value::Int(meta.inode as i64),
            ],
        );
        match result {
            Ok(_) => {}
            Err(minidb::DbError::UniqueViolation { .. }) => {
                return Err(DlfmError::AlreadyLinked(filename.to_string()));
            }
            Err(e) => return Err(e.into()),
        }
        DlfmMetrics::bump(&self.shared.metrics.links);
        self.account_op(xid)
    }

    fn unlink_file(
        &mut self,
        xid: i64,
        rec_id: i64,
        _grp_id: i64,
        filename: &str,
        in_backout: bool,
    ) -> DlfmResult<()> {
        self.ensure_txn(xid)?;
        let stmts = self.shared.statements();
        if in_backout {
            // Undo of a previous unlink: restore the entry to linked state.
            self.state.session.exec_prepared(
                &stmts.upd_backout_unlink,
                &[Value::str(filename), Value::Int(xid)],
            )?;
            return Ok(());
        }
        // Delayed update (paper §4): mark the linked entry unlinked; the
        // physical delete happens in commit phase 2 (or never, if the file
        // needs point-in-time recovery).
        let updated = self.state.session.exec_prepared(
            &stmts.upd_unlink,
            &[
                Value::Int(rec_id), // check_flag becomes the unlink recovery id
                Value::Int(xid),
                Value::Int(rec_id),
                Value::Int(now_micros()),
                Value::str(filename),
            ],
        )?;
        if updated.count() == 0 {
            return Err(DlfmError::NotLinked(filename.to_string()));
        }
        DlfmMetrics::bump(&self.shared.metrics.unlinks);
        self.account_op(xid)
    }

    /// Is the transaction that unlinked a file still unresolved
    /// (in-flight or prepared)?
    fn unresolved(&mut self, xid: i64) -> DlfmResult<bool> {
        let stmts = self.shared.statements();
        let rows = self
            .state
            .session
            .exec_prepared(&stmts.sel_xact, &[Value::Int(self.state.dbid), Value::Int(xid)])?
            .rows();
        match rows.first() {
            None => Ok(false), // fully resolved and cleaned up
            Some(row) => {
                let state = row[2].as_int()?;
                Ok(state == XS_INFLIGHT || state == XS_PREPARED)
            }
        }
    }

    fn load_group(&mut self, grp_id: i64) -> DlfmResult<GroupInfo> {
        let stmts = self.shared.statements();
        let rows = self.state.session.exec_prepared(&stmts.sel_grp, &[Value::Int(grp_id)])?.rows();
        let Some(row) = rows.first() else {
            return Err(DlfmError::NoSuchGroup(grp_id));
        };
        Ok(GroupInfo {
            grp_id: row[0].as_int()?,
            access: AccessControl::from_code(row[1].as_int()?),
            recovery: row[2].as_int()? != 0,
            state: row[3].as_int()?,
        })
    }

    // ------------------------------------------------------------------
    // Two-phase commit (paper §3.3)
    // ------------------------------------------------------------------

    fn prepare(&mut self, xid: i64) -> DlfmResult<DlfmResponse> {
        let Some(cur) = self.state.cur.take() else {
            // No work arrived for this transaction: read-only vote.
            DlfmMetrics::bump(&self.shared.metrics.prepares);
            obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                format!("xid#{xid} voted read-only (no work arrived)")
            });
            return Ok(DlfmResponse::Prepared { read_only: true });
        };
        if cur.xid != xid {
            self.state.cur = Some(cur);
            return Err(DlfmError::UnknownTxn(xid));
        }
        if cur.total_ops == 0 && cur.groups_deleted == 0 && !cur.chunked {
            self.state.session.rollback();
            DlfmMetrics::bump(&self.shared.metrics.prepares);
            obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                format!("xid#{xid} voted read-only (empty transaction)")
            });
            return Ok(DlfmResponse::Prepared { read_only: true });
        }
        let stmts = self.shared.statements();
        let result = (|| -> DlfmResult<()> {
            if cur.chunked {
                self.state.session.exec_prepared(
                    &stmts.upd_xact_state,
                    &[
                        Value::Int(XS_PREPARED),
                        Value::Int(cur.groups_deleted),
                        Value::Int(self.state.dbid),
                        Value::Int(xid),
                    ],
                )?;
            } else {
                self.state.session.exec_prepared(
                    &stmts.ins_xact,
                    &[
                        Value::Int(xid),
                        Value::Int(self.state.dbid),
                        Value::Int(XS_PREPARED),
                        Value::Int(cur.groups_deleted),
                        Value::Int(now_micros()),
                    ],
                )?;
            }
            // The local COMMIT is what makes the prepare durable ("changes
            // to metadata are hardened during the prepare phase", §4).
            // Forced: it is the vote — and it hardens every lazy commit
            // appended before it, this transaction's chunks included.
            self.state.session.commit()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                    format!(
                        "xid#{xid} PREPARED (hardened by local commit, {} ops{})",
                        cur.total_ops,
                        if cur.chunked { ", chunked" } else { "" }
                    )
                });
                // Crash point: the prepare is locally hardened but the vote
                // never reaches the coordinator — the classic in-doubt
                // window the resolver must close after restart.
                if obs::fault::fire("dlfm.prepare.crash_before_ack") {
                    self.shared.db.crash();
                    return Err(DlfmError::Db {
                        msg: "injected: crashed after hardening prepare, before ack".into(),
                        retryable: false,
                        kind: DbErrorKind::Other,
                    });
                }
                DlfmMetrics::bump(&self.shared.metrics.prepares);
                Ok(DlfmResponse::Prepared { read_only: false })
            }
            Err(e) => {
                self.state.session.rollback();
                // Chunk-committed work is already hardened; the host will
                // send Abort, whose phase 2 undoes it.
                Err(e)
            }
        }
    }

    fn commit(&mut self, xid: i64) -> DlfmResult<DlfmResponse> {
        // One-phase optimisation: commit on an open, unprepared transaction
        // prepares it first.
        if self.state.cur.as_ref().map(|c| c.xid) == Some(xid) {
            match self.prepare(xid)? {
                DlfmResponse::Prepared { read_only: true } => return Ok(DlfmResponse::Ok),
                DlfmResponse::Prepared { read_only: false } => {}
                other => return Ok(other),
            }
        }
        twopc::run_phase2_commit(self.shared, self.state.dbid, xid)?;
        // Crash point: phase 2 completed locally but the Ok never reaches
        // the coordinator, and the crash takes the lazy local commit too.
        // The resolver re-drives Commit on a later connection; a further
        // delivery finds nothing left to do.
        if obs::fault::fire("dlfm.phase2.crash_before_ack") {
            self.shared.db.crash();
            return Err(DlfmError::Db {
                msg: "injected: crashed after phase-2 commit, before ack".into(),
                retryable: false,
                kind: DbErrorKind::Other,
            });
        }
        Ok(DlfmResponse::Ok)
    }

    fn abort(&mut self, xid: i64) -> DlfmResult<DlfmResponse> {
        if self.state.cur.as_ref().map(|c| c.xid) == Some(xid) {
            // Forward processing still open: a plain local rollback undoes
            // the unhardened tail ...
            let cur = self.state.cur.take().expect("cur checked above");
            self.state.session.rollback();
            obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                format!(
                    "xid#{xid} ABORTED (forward rollback{})",
                    if cur.chunked { " + phase-2 undo of chunked work" } else { "" }
                )
            });
            // ... and phase 2 undoes any chunk-committed work.
            if cur.chunked {
                twopc::run_phase2_abort(self.shared, self.state.dbid, xid)?;
            }
            DlfmMetrics::bump(&self.shared.metrics.aborts);
            return Ok(DlfmResponse::Ok);
        }
        twopc::run_phase2_abort(self.shared, self.state.dbid, xid)?;
        Ok(DlfmResponse::Ok)
    }

    // ------------------------------------------------------------------
    // Groups
    // ------------------------------------------------------------------

    fn register_group(&mut self, spec: &GroupSpec) -> DlfmResult<()> {
        // Host DDL is auto-committed; group registration follows suit.
        let mut s = Session::new(&self.shared.db);
        let result = s.exec_params(
            "INSERT INTO dfm_grp (grp_id, dbid, table_name, column_name, access_ctl, \
             recovery, state, delete_xid, delete_rec_id, expiry) \
             VALUES (?, ?, ?, ?, ?, ?, ?, NULL, NULL, NULL)",
            &[
                Value::Int(spec.grp_id),
                Value::Int(spec.dbid),
                Value::str(spec.table_name.clone()),
                Value::str(spec.column_name.clone()),
                Value::Int(spec.access.code()),
                Value::Int(spec.recovery as i64),
                Value::Int(G_NORMAL),
            ],
        );
        match result {
            Ok(_) => Ok(()),
            // Idempotent: re-registration of the same group is fine.
            Err(minidb::DbError::UniqueViolation { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn delete_group(&mut self, xid: i64, grp_id: i64, rec_id: i64) -> DlfmResult<()> {
        self.ensure_txn(xid)?;
        let updated = self.state.session.exec_params(
            "UPDATE dfm_grp SET state = ?, delete_xid = ?, delete_rec_id = ? \
             WHERE grp_id = ? AND state = ?",
            &[
                Value::Int(G_DELETE_PENDING),
                Value::Int(xid),
                Value::Int(rec_id),
                Value::Int(grp_id),
                Value::Int(G_NORMAL),
            ],
        )?;
        if updated.count() == 0 {
            return Err(DlfmError::NoSuchGroup(grp_id));
        }
        if let Some(cur) = self.state.cur.as_mut() {
            cur.groups_deleted += 1;
            cur.total_ops += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tokens & indoubt
    // ------------------------------------------------------------------

    fn issue_token(&mut self, filename: &str) -> DlfmResult<DlfmResponse> {
        // The probe's row lock is held until the token is registered: an
        // unlink of this file waits behind it, so its phase 2 revokes the
        // token instead of committing in a gap before the registration —
        // which would leave a token for an unlinked path, valid for
        // whoever links that path next.
        let mut s = Session::new(&self.shared.db);
        s.begin()?;
        let token = self.token_for_link(&mut s, filename);
        match &token {
            // Read-only probe: ends the row lock, writes no log record.
            Ok(_) => s.commit()?,
            Err(_) => s.rollback(),
        }
        token.map(DlfmResponse::Token)
    }

    fn token_for_link(&self, probe: &mut Session, filename: &str) -> DlfmResult<String> {
        let stmts = self.shared.statements();
        let rows = probe.exec_prepared(&stmts.sel_linked_held, &[Value::str(filename)])?.rows();
        let Some(row) = rows.first() else {
            return Err(DlfmError::NotLinked(filename.to_string()));
        };
        let entry = FileEntry::from_row(row)?;
        if AccessControl::from_code(entry.access_ctl) != AccessControl::Full {
            // Tokens are only meaningful under full access control; other
            // files are readable through normal permissions.
            return Ok(String::new());
        }
        if obs::fault::fire("dlfm.token.stall_before_register") {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        // One token per link, however often it is asked for: minted on the
        // first request, revoked with the unlink (`twopc::release_file`).
        let mint = || format!("dl-{:016x}", rand::random::<u64>());
        Ok(self.shared.dlff.token_or_register(filename, mint))
    }

    fn list_indoubt(&mut self) -> DlfmResult<DlfmResponse> {
        let mut s = Session::new(&self.shared.db);
        let rows = s.query(
            "SELECT xid FROM dfm_xact WHERE state = ? AND dbid = ?",
            &[Value::Int(XS_PREPARED), Value::Int(self.state.dbid)],
        )?;
        let mut xids: Vec<i64> = rows.iter().map(|r| r[0].as_int()).collect::<Result<_, _>>()?;
        xids.sort_unstable();
        Ok(DlfmResponse::Indoubt(xids))
    }

    // ------------------------------------------------------------------
    // Bulk link export/import (shard migration)
    // ------------------------------------------------------------------

    /// Export the linked entries under a path prefix, optionally deleting
    /// them in the same local transaction. Rejected while a host
    /// transaction is open on this connection — migration runs on an idle
    /// (admin) connection so it cannot interleave with 2PC state.
    fn export_links(&mut self, prefix: &str, remove: bool) -> DlfmResult<DlfmResponse> {
        if let Some(cur) = &self.state.cur {
            return Err(DlfmError::Protocol(format!(
                "ExportLinks needs an idle connection, but xid#{} is open",
                cur.xid
            )));
        }
        // String-range prefix scan: '0' is '/' + 1 in ASCII, so
        // [prefix + "/", prefix + "0") covers exactly the subtree.
        let lo = format!("{prefix}/");
        let hi = format!("{prefix}0");
        let mut s = Session::new(&self.shared.db);
        s.begin()?;
        let result = (|| -> DlfmResult<Vec<LinkRow>> {
            let rows = s.query(
                "SELECT * FROM dfm_file \
                 WHERE filename >= ? AND filename < ? AND lnk_state = ? FOR SHARE",
                &[Value::str(&lo), Value::str(&hi), Value::Int(LNK_LINKED)],
            )?;
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let e = FileEntry::from_row(row)?;
                out.push(LinkRow {
                    dbid: e.dbid,
                    filename: e.filename,
                    grp_id: e.grp_id,
                    link_xid: e.link_xid,
                    rec_id: e.rec_id,
                    access_ctl: e.access_ctl,
                    recovery: e.recovery,
                    orig_owner: e.orig_owner.unwrap_or_default(),
                    orig_mode: e.orig_mode.unwrap_or_default(),
                    fsid: e.fsid.unwrap_or_default(),
                    inode: e.inode.unwrap_or_default(),
                });
            }
            if remove {
                s.exec_params(
                    "DELETE FROM dfm_file \
                     WHERE filename >= ? AND filename < ? AND lnk_state = ?",
                    &[Value::str(&lo), Value::str(&hi), Value::Int(LNK_LINKED)],
                )?;
            }
            Ok(out)
        })();
        match result {
            Ok(out) => {
                s.commit()?;
                Ok(DlfmResponse::Links(out))
            }
            Err(e) => {
                s.rollback();
                Err(e)
            }
        }
    }

    /// Import link rows exported from another shard. Idempotent: an
    /// occupied `(filename, check_flag=0)` slot is skipped, so the
    /// coordinator can safely retry a migration copy. Returns the count of
    /// rows actually inserted.
    fn import_links(&mut self, entries: &[LinkRow]) -> DlfmResult<DlfmResponse> {
        if let Some(cur) = &self.state.cur {
            return Err(DlfmError::Protocol(format!(
                "ImportLinks needs an idle connection, but xid#{} is open",
                cur.xid
            )));
        }
        let stmts = self.shared.statements();
        let mut s = Session::new(&self.shared.db);
        s.begin()?;
        let mut imported = 0i64;
        for e in entries {
            let result = s.exec_prepared(
                &stmts.ins_file,
                &[
                    Value::Int(e.dbid),
                    Value::str(&e.filename),
                    Value::Int(e.grp_id),
                    Value::Int(LNK_LINKED),
                    Value::Int(0), // check_flag = 0 for linked entries
                    Value::Int(e.link_xid),
                    Value::Int(e.rec_id),
                    Value::Int(e.access_ctl),
                    Value::Int(e.recovery),
                    Value::str(&e.orig_owner),
                    Value::Int(e.orig_mode),
                    Value::Int(e.fsid),
                    Value::Int(e.inode),
                ],
            );
            match result {
                Ok(_) => imported += 1,
                Err(minidb::DbError::UniqueViolation { .. }) => {} // retry-idempotent
                Err(err) => {
                    s.rollback();
                    return Err(err.into());
                }
            }
        }
        s.commit()?;
        Ok(DlfmResponse::Count(imported))
    }
}

/// The latency histogram tracking an operation, if it has one.
fn op_hist<'m>(hists: &'m crate::metrics::DlfmOpHists, op: &str) -> Option<&'m obs::Histogram> {
    match op {
        "LinkFile" => Some(&hists.link),
        "UnlinkFile" => Some(&hists.unlink),
        "Prepare" => Some(&hists.prepare),
        // A Commit/Abort request is phase-2 work (one-phase commits
        // include the implicit prepare).
        "Commit" => Some(&hists.phase2_commit),
        "Abort" => Some(&hists.phase2_abort),
        "UpcallQuery" => Some(&hists.upcall),
        _ => None,
    }
}

/// Decoded `dfm_grp` row (subset the agent needs).
pub struct GroupInfo {
    /// Group id.
    pub grp_id: i64,
    /// Access-control mode.
    pub access: AccessControl,
    /// Whether DLFM handles recovery for files in this group.
    pub recovery: bool,
    /// Group state.
    pub state: i64,
}

/// Query a file's committed link state (the Upcall path, also used by the
/// Upcall daemon). Conservative: a lock conflict reports "linked" so the
/// DLFF denies the destructive operation rather than corrupting a link.
pub fn query_link_state(shared: &DlfmShared, filename: &str) -> LinkStatus {
    let stmts = shared.statements();
    let mut s = Session::new(&shared.db);
    match s.exec_prepared(&stmts.sel_linked, &[Value::str(filename)]) {
        Ok(r) => {
            let rows = r.rows();
            match rows.first() {
                None => LinkStatus::NotLinked,
                Some(row) => match FileEntry::from_row(row) {
                    Ok(e) if AccessControl::from_code(e.access_ctl) == AccessControl::Full => {
                        LinkStatus::LinkedFull
                    }
                    Ok(_) => LinkStatus::LinkedPartial,
                    Err(_) => LinkStatus::LinkedPartial,
                },
            }
        }
        // In doubt (e.g. the linking transaction holds the row lock):
        // deny-by-default.
        Err(_) => LinkStatus::LinkedPartial,
    }
}
