//! The DLFM service daemons (paper §3.5, Figure 5): Copy, Delete-Group,
//! Garbage Collector, Retrieve, and Upcall. (The privileged Chown component
//! lives in [`crate::chown`]; every ownership or permission change goes
//! through it.)
//!
//! All daemons follow the paper's discipline for long-running work: they
//! operate in small batches and **commit frequently** so they never hold
//! enough row locks to trigger lock escalation (§4), and they treat
//! deadlock/timeout errors as retryable.
//!
//! Their local commits are **lazy** ([`lazy_txn`]): daemon work is
//! asynchronous and idempotent and a restart re-drives it from the tables
//! it is queued in (§3.4–3.5), so none of it waits on — or puts a force
//! onto — the log device the foreground Prepare/Commit forces queue on.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use minidb::{Session, Value};

use crate::api::{AccessControl, DlfmResult};
use crate::chown::{encode_mode, ChownOp};
use crate::meta::{FileEntry, G_DELETED, LNK_LINKED, LNK_UNLINKED};
use crate::metrics::DlfmMetrics;
use crate::server::{now_micros, DlfmShared};
use crate::twopc::release_file;

/// Queue entries the Copy daemon archives between two local commits: few
/// enough row locks that the delete never escalates (§4). Unbounded, a long
/// pass held its locks — and the one CPU — long enough to show in
/// foreground p95.
pub const COPY_BATCH: usize = 16;

/// Run `work` as one local transaction committed **lazily** (no log
/// force; see `minidb::Session::commit_lazy`), rolling back if it fails.
/// Only for work an existing recovery path re-drives when the commit is
/// lost in a crash — every caller names that path.
pub(crate) fn lazy_txn<T>(
    s: &mut Session,
    work: impl FnOnce(&mut Session) -> DlfmResult<T>,
) -> DlfmResult<T> {
    s.begin()?;
    match work(s) {
        Ok(out) => {
            s.commit_lazy()?;
            Ok(out)
        }
        Err(e) => {
            s.rollback();
            Err(e)
        }
    }
}

/// The Copy daemon: drains the Archive table, copying linked files to the
/// archive server asynchronously after commit (§3.4). Queue entries are
/// removed [`COPY_BATCH`] at a time, each batch in its own small
/// transaction.
pub fn spawn_copy_daemon(shared: Arc<DlfmShared>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let poll = shared.config.daemon_poll_interval;
        while !shared.shutting_down() {
            if !shared.db.is_online() {
                std::thread::sleep(poll);
                continue;
            }
            shared.ensure_plans();
            match copy_pass(&shared) {
                Ok(0) => std::thread::sleep(poll),
                Ok(_) => {}
                Err(e) => {
                    // Retry next pass.
                    obs::warn!("dlfm::daemons", "copy pass failed, will retry: {e}");
                    std::thread::sleep(poll);
                }
            }
        }
    })
}

/// One Copy pass over the current queue; returns how many files it
/// archived. The archive store is idempotent per `(file, recovery id)`, so
/// a crash between a batch's stores and its delete (fault point
/// `dlfm.copy.crash_before_delete`), or one that loses the lazily
/// committed delete, costs only a repeated copy.
fn copy_pass(shared: &DlfmShared) -> DlfmResult<usize> {
    let stmts = shared.statements();
    let mut s = Session::new(&shared.db);
    let rows = s.exec_prepared(&stmts.sel_archive_all, &[])?.rows();
    let mut copied = 0usize;
    for batch in rows.chunks(COPY_BATCH) {
        if shared.shutting_down() {
            break;
        }
        let mut stored = Vec::with_capacity(batch.len());
        for row in batch {
            let filename = row[0].as_str()?;
            let rec_id = row[1].as_int()?;
            let priority = row[3].as_int()?;
            // Read the (now read-only) file; asynchronous copy is safe
            // because commit processing removed the write permission (§3.4).
            let content = shared.fs.read(filename, &shared.config.dlfm_admin).unwrap_or_default();
            if shared.archive.store(filename, rec_id, &content, priority > 0) {
                stored.push([Value::str(filename), Value::Int(rec_id)]);
            } else {
                // Archive rejected the copy: keep the queue entry so the
                // next pass retries it — dropping it here would lose the
                // only record that this version still needs archiving.
                obs::warn!("dlfm::daemons", "archive store of {filename} rejected, will retry");
            }
        }
        if stored.is_empty() {
            continue;
        }
        if obs::fault::fire("dlfm.copy.crash_before_delete") {
            shared.db.crash();
        }
        // Delete the batch's queue entries in one short transaction:
        // commit frequently, never escalate (§4). Deadlocks with child
        // agents inserting into the same table are retried next pass.
        // Lazy: a lost delete puts the entries back on the queue and the
        // next pass repeats an idempotent copy — of a file that is still
        // linked and read-only, since an unlink's Prepare would have
        // forced the log, and this delete with it.
        lazy_txn(&mut s, |s| {
            for key in &stored {
                s.exec_prepared(&stmts.del_archive, key)?;
            }
            Ok(())
        })?;
        DlfmMetrics::add(&shared.metrics.files_archived, stored.len() as u64);
        copied += stored.len();
    }
    Ok(copied)
}

/// The Delete-Group daemon: asynchronously unlinks every file of the
/// groups a committed transaction dropped. Work is found through the
/// transaction table, so a DLFM restart resumes it (§3.5).
pub fn spawn_group_delete_daemon(
    shared: Arc<DlfmShared>,
    rx: Receiver<(i64, i64)>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let poll = shared.config.daemon_poll_interval;
        let mut last_scan = Instant::now();
        while !shared.shutting_down() {
            let job = rx.recv_timeout(poll).ok();
            if !shared.db.is_online() {
                continue;
            }
            match job {
                Some((dbid, xid)) => {
                    if let Err(e) = process_deleted_groups(&shared, dbid, xid) {
                        obs::warn!(
                            "dlfm::daemons",
                            "delete-group pass for xid {xid} failed, rescan will retry: {e}"
                        );
                    }
                }
                None => {
                    // Periodic rescan catches work whose notification was
                    // lost (e.g. across a crash).
                    if last_scan.elapsed() >= poll * 20 {
                        last_scan = Instant::now();
                        if let Err(e) = rescan(&shared) {
                            obs::warn!("dlfm::daemons", "delete-group rescan failed: {e}");
                        }
                    }
                }
            }
        }
    })
}

/// One Delete-Group rescan pass: finds committed transactions whose
/// deletion notification was lost (daemon exited, channel drop, crash) via
/// the transaction table and processes them. Returns how many transactions
/// it completed. Public so tests can drive the lost-notification recovery
/// path deterministically.
pub fn rescan(shared: &DlfmShared) -> DlfmResult<usize> {
    let mut s = Session::new(&shared.db);
    let rows =
        s.query("SELECT dbid, xid FROM dfm_xact WHERE state = 3 AND groups_deleted > 0", &[])?;
    let mut processed = 0usize;
    for row in rows {
        process_deleted_groups(shared, row[0].as_int()?, row[1].as_int()?)?;
        processed += 1;
    }
    Ok(processed)
}

fn process_deleted_groups(shared: &DlfmShared, dbid: i64, xid: i64) -> DlfmResult<()> {
    let mut s = Session::new(&shared.db);
    let groups = s.query(
        "SELECT grp_id, delete_rec_id FROM dfm_grp WHERE delete_xid = ? AND state = 2",
        &[Value::Int(xid)],
    )?;
    for row in &groups {
        let grp_id = row[0].as_int()?;
        let delete_rec_id = match &row[1] {
            Value::Int(r) => *r,
            _ => now_micros(),
        };
        unlink_group_files(shared, grp_id, xid, delete_rec_id)?;
        // The group entry is only marked deleted after all its files are
        // unlinked; the Garbage Collector removes it at life-span expiry.
        // Lazy: lost, the group is DELETE_PENDING again under its still
        // COMMITTED `dfm_xact` row, and restart or the rescan comes back.
        lazy_txn(&mut s, |s| {
            s.exec_params(
                "UPDATE dfm_grp SET state = ?, expiry = ? WHERE grp_id = ?",
                &[
                    Value::Int(G_DELETED),
                    Value::Int(now_micros() + shared.config.group_life_span_micros),
                    Value::Int(grp_id),
                ],
            )?;
            Ok(())
        })?;
    }
    // All groups processed: the transaction entry is no longer needed.
    // Lazy: lost, the row is re-found, no group is pending any more, and
    // the row is deleted again.
    let stmts = shared.statements();
    lazy_txn(&mut s, |s| {
        s.exec_prepared(&stmts.del_xact, &[Value::Int(dbid), Value::Int(xid)])?;
        Ok(())
    })
}

/// Unlink every linked file of a group, `delete_group_batch` files per
/// local commit — a single huge transaction would hit log-full (§4).
fn unlink_group_files(
    shared: &DlfmShared,
    grp_id: i64,
    xid: i64,
    delete_rec_id: i64,
) -> DlfmResult<()> {
    let batch = shared.config.delete_group_batch.max(1);
    let stmts = shared.statements();
    let mut s = Session::new(&shared.db);
    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        let rows = s.query(
            "SELECT * FROM dfm_file WHERE grp_id = ? AND lnk_state = ?",
            &[Value::Int(grp_id), Value::Int(LNK_LINKED)],
        )?;
        if rows.is_empty() {
            return Ok(());
        }
        // Lazy: a lost batch leaves its files LINKED in a DELETE_PENDING
        // group whose `dfm_xact` row is still COMMITTED, so restart's
        // requeue (or the rescan) unlinks them again; the releases repeat
        // idempotently.
        lazy_txn(&mut s, |s| {
            for row in rows.iter().take(batch) {
                let e = FileEntry::from_row(row)?;
                release_file(shared, &e)?;
                if e.recovery != 0 {
                    // Keep an unlinked entry for point-in-time recovery.
                    s.exec_params(
                        "UPDATE dfm_file SET lnk_state = ?, check_flag = ?, unlink_xid = ?, \
                         unlink_rec_id = ?, unlink_ts = ? WHERE filename = ? AND check_flag = 0",
                        &[
                            Value::Int(LNK_UNLINKED),
                            Value::Int(delete_rec_id),
                            Value::Int(xid),
                            Value::Int(delete_rec_id),
                            Value::Int(now_micros()),
                            Value::str(e.filename.clone()),
                        ],
                    )?;
                } else {
                    s.exec_prepared(
                        &stmts.del_entry,
                        &[Value::str(e.filename.clone()), Value::Int(e.check_flag)],
                    )?;
                }
                DlfmMetrics::bump(&shared.metrics.group_files_unlinked);
            }
            Ok(())
        })?;
    }
}

/// The Garbage Collector daemon (§3.5): two cleanups — (a) unlinked file
/// entries and archive copies older than the last N retained backups, and
/// (b) deleted groups whose life span expired.
pub fn spawn_gc_daemon(shared: Arc<DlfmShared>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let poll = shared.config.daemon_poll_interval;
        while !shared.shutting_down() {
            std::thread::sleep(poll * 5);
            if !shared.db.is_online() {
                continue;
            }
            if let Err(e) = gc_pass(&shared) {
                obs::warn!("dlfm::daemons", "GC pass failed, will retry: {e}");
            }
        }
    })
}

/// One GC pass; public so tests and benches can drive it deterministically.
///
/// Every local commit here is lazy: a purge lost in a crash leaves entries
/// (and backup/group rows) that still match the queries below, so the next
/// pass purges them again — their archive copies are already gone, which
/// `archive.delete` reports as `false`.
pub fn gc_pass(shared: &DlfmShared) -> DlfmResult<(u64, u64)> {
    let mut removed = (0u64, 0u64);
    let mut s = Session::new(&shared.db);

    // (a) Backup retention: keep the last N completed backups; unlinked
    // entries older than the oldest retained backup cannot be needed by any
    // restorable state.
    let backups = s.query(
        "SELECT backup_id, rec_id FROM dfm_backup WHERE complete = 1 ORDER BY backup_id DESC",
        &[],
    )?;
    let retained = shared.config.backups_retained;
    if backups.len() > retained && retained > 0 {
        let cutoff_rec = backups[retained - 1][1].as_int()?;
        let cutoff_backup = backups[retained - 1][0].as_int()?;
        let old = s.query(
            "SELECT * FROM dfm_file WHERE lnk_state = ? AND unlink_rec_id < ?",
            &[Value::Int(LNK_UNLINKED), Value::Int(cutoff_rec)],
        )?;
        purge_entries(shared, &mut s, &old, &mut removed)?;
        lazy_txn(&mut s, |s| {
            s.exec_params(
                "DELETE FROM dfm_backup WHERE backup_id < ?",
                &[Value::Int(cutoff_backup)],
            )?;
            Ok(())
        })?;
    }

    // (b) Deleted groups past their life span: remove their unlinked
    // entries, archive copies, and finally the group entry itself.
    let expired = s.query(
        "SELECT grp_id FROM dfm_grp WHERE state = ? AND expiry < ?",
        &[Value::Int(G_DELETED), Value::Int(now_micros())],
    )?;
    for row in &expired {
        let grp_id = row[0].as_int()?;
        let entries = s.query(
            "SELECT * FROM dfm_file WHERE grp_id = ? AND lnk_state = ?",
            &[Value::Int(grp_id), Value::Int(LNK_UNLINKED)],
        )?;
        purge_entries(shared, &mut s, &entries, &mut removed)?;
        lazy_txn(&mut s, |s| {
            s.exec_params("DELETE FROM dfm_grp WHERE grp_id = ?", &[Value::Int(grp_id)])?;
            Ok(())
        })?;
    }

    let (entries_removed, copies_removed) = removed;
    DlfmMetrics::add(&shared.metrics.gc_entries_removed, entries_removed);
    DlfmMetrics::add(&shared.metrics.gc_archive_removed, copies_removed);
    Ok(removed)
}

/// Delete unlinked file entries and their archive copies,
/// `delete_group_batch` entries per lazy local commit (commit frequently,
/// never escalate, §4), adding to `removed` = (entries, archive copies).
fn purge_entries(
    shared: &DlfmShared,
    s: &mut Session,
    rows: &[minidb::Row],
    removed: &mut (u64, u64),
) -> DlfmResult<()> {
    let stmts = shared.statements();
    for batch in rows.chunks(shared.config.delete_group_batch.max(1)) {
        lazy_txn(s, |s| {
            for row in batch {
                let e = FileEntry::from_row(row)?;
                if shared.archive.delete(&e.filename, e.rec_id) {
                    removed.1 += 1;
                }
                s.exec_prepared(
                    &stmts.del_entry,
                    &[Value::str(e.filename.clone()), Value::Int(e.check_flag)],
                )?;
                removed.0 += 1;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// One unit of Retrieve-daemon work: restore a file from the archive.
pub struct RetrieveJob {
    /// File to restore.
    pub filename: String,
    /// Restore the newest archived version at or before this recovery id.
    pub rec_id: i64,
    /// Owner to create the file as.
    pub owner: String,
    /// Whether the file is under full access control (re-takeover after
    /// restore).
    pub full_control: bool,
    /// Completion signal.
    pub done: Sender<Result<(), String>>,
}

/// The Retrieve daemon: restores files from the archive server after the
/// host database was restored to a point in the past (§3.5).
pub fn spawn_retrieve_daemon(shared: Arc<DlfmShared>, rx: Receiver<RetrieveJob>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let poll = shared.config.daemon_poll_interval;
        while !shared.shutting_down() {
            let Ok(job) = rx.recv_timeout(poll) else { continue };
            let result = retrieve_one(&shared, &job);
            match &result {
                Ok(()) => DlfmMetrics::bump(&shared.metrics.files_retrieved),
                Err(e) => {
                    obs::warn!("dlfm::daemons", "retrieve of {} failed: {e}", job.filename)
                }
            }
            let _ = job.done.send(result);
        }
    })
}

fn retrieve_one(shared: &DlfmShared, job: &RetrieveJob) -> Result<(), String> {
    let Some((_, content)) = shared.archive.retrieve_as_of(&job.filename, job.rec_id) else {
        return Err(format!(
            "no archived version of {} at or before recovery id {}",
            job.filename, job.rec_id
        ));
    };
    if shared.fs.exists(&job.filename) {
        // Make it writable long enough to restore the content.
        let mode_bits = encode_mode(filesys::Mode::user_default());
        let release =
            ChownOp::Release { path: job.filename.clone(), owner: job.owner.clone(), mode_bits };
        shared.chown.call(release)?;
        shared.fs.write(&job.filename, &job.owner, &content).map_err(|e| e.to_string())?;
    } else {
        shared.fs.create(&job.filename, &job.owner, &content).map_err(|e| e.to_string())?;
    }
    shared
        .chown
        .call(ChownOp::Takeover { path: job.filename.clone(), full: job.full_control })
        .map_err(|e| format!("takeover after retrieve failed: {e}"))?;
    Ok(())
}

/// The Upcall daemon: answers DLFF link-state queries from committed DLFM
/// metadata (§3.5). Needed only for partial access control — full-control
/// files are recognisable from their ownership.
///
/// Holds the shared state weakly: the DLFF (owned by the shared state)
/// holds the upcall handler, so a strong reference here would form a cycle
/// that keeps the whole server alive.
pub struct UpcallDaemon {
    shared: std::sync::Weak<DlfmShared>,
}

impl UpcallDaemon {
    /// New upcall daemon over shared state.
    pub fn new(shared: &Arc<DlfmShared>) -> UpcallDaemon {
        UpcallDaemon { shared: Arc::downgrade(shared) }
    }
}

impl filesys::UpcallHandler for UpcallDaemon {
    fn link_state(&self, path: &str) -> filesys::LinkState {
        let Some(shared) = self.shared.upgrade() else {
            // Server is gone; nothing is linked any more.
            return filesys::LinkState::NotLinked;
        };
        let _span = obs::span(obs::Layer::Daemon, "upcall");
        let started = Instant::now();
        DlfmMetrics::bump(&shared.metrics.upcalls);
        let state = crate::agent::query_link_state(&shared, path);
        shared.metrics.op_hists.upcall.record_micros(started.elapsed());
        match state {
            crate::api::LinkStatus::NotLinked => filesys::LinkState::NotLinked,
            crate::api::LinkStatus::LinkedPartial => filesys::LinkState::LinkedPartial,
            crate::api::LinkStatus::LinkedFull => filesys::LinkState::LinkedFull,
        }
    }
}

/// Map an access-control code to whether takeover is "full".
pub fn is_full(access: i64) -> bool {
    AccessControl::from_code(access) == AccessControl::Full
}
