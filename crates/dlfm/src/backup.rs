//! Coordinated backup, point-in-time restore, and the Reconcile utility
//! (paper §3.4).
//!
//! * **Backup**: archiving is asynchronous at commit, so when the host
//!   Backup utility runs it must flush — the DLFM escalates pending copy
//!   entries to high priority and waits for the Copy daemon to drain them
//!   before the host declares the backup successful.
//! * **Restore**: the host ships the recovery id preserved in the backup
//!   image; DLFM reconciles the File table against it (files linked before
//!   the backup and unlinked after are restored to linked state; files
//!   linked after the backup are removed) and the Retrieve daemon refetches
//!   file content from the archive where needed.
//! * **Reconcile**: the host sends its current datalink references; they
//!   are loaded into a temp table and diffed against the File table with
//!   EXCEPT, fixing both sides.

use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use minidb::{Session, Value};

use crate::api::{DlfmError, DlfmResult};
use crate::chown::ChownOp;
use crate::daemons::{is_full, lazy_txn, RetrieveJob};
use crate::meta::{FileEntry, LNK_LINKED, LNK_UNLINKED};
use crate::server::{now_micros, DlfmShared};
use crate::twopc::release_file;

/// How long [`begin_backup`] waits for the Copy daemon to drain pending
/// copies before giving up.
const BACKUP_FLUSH_DEADLINE: Duration = Duration::from_secs(10);

/// Host backup started: record the backup, escalate pending copies, and
/// wait until every file linked before the backup point is archived.
pub fn begin_backup(shared: &DlfmShared, dbid: i64, backup_id: i64, rec_id: i64) -> DlfmResult<()> {
    let mut s = Session::new(&shared.db);
    let inserted = s.exec_params(
        "INSERT INTO dfm_backup (backup_id, dbid, rec_id, complete, ts) VALUES (?, ?, ?, 0, ?)",
        &[Value::Int(backup_id), Value::Int(dbid), Value::Int(rec_id), Value::Int(now_micros())],
    );
    match inserted {
        Ok(_) => {}
        // Idempotent: a retried BeginBackup reuses the existing entry.
        Err(minidb::DbError::UniqueViolation { .. }) => {}
        Err(e) => return Err(e.into()),
    }

    // Ask the Copy daemon to do these with high priority (§3.4).
    let stmts = shared.statements();
    s.exec_prepared(&stmts.upd_archive_prio, &[Value::Int(rec_id)])?;

    // Wait for the drain.
    let deadline = Instant::now() + BACKUP_FLUSH_DEADLINE;
    loop {
        let pending = s.query_int(
            "SELECT COUNT(*) FROM dfm_archive WHERE rec_id <= ?",
            &[Value::Int(rec_id)],
        )?;
        if pending == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(DlfmError::Protocol(format!(
                "backup flush timed out with {pending} copies pending"
            )));
        }
        std::thread::sleep(shared.config.daemon_poll_interval);
    }
}

/// Host backup finished.
pub fn end_backup(shared: &DlfmShared, dbid: i64, backup_id: i64, success: bool) -> DlfmResult<()> {
    let mut s = Session::new(&shared.db);
    if success {
        s.exec_params(
            "UPDATE dfm_backup SET complete = 1 WHERE dbid = ? AND backup_id = ?",
            &[Value::Int(dbid), Value::Int(backup_id)],
        )?;
    } else {
        s.exec_params(
            "DELETE FROM dfm_backup WHERE dbid = ? AND backup_id = ?",
            &[Value::Int(dbid), Value::Int(backup_id)],
        )?;
    }
    Ok(())
}

/// The host database was restored to the state identified by `rec_id`.
/// Bring DLFM metadata and the file system back in line (§3.4).
pub fn restore_to(shared: &DlfmShared, dbid: i64, rec_id: i64) -> DlfmResult<()> {
    let mut s = Session::new(&shared.db);
    let stmts = shared.statements();

    // 1. Files linked *after* the backup no longer exist in the restored
    //    database state: release them and drop their entries (and any
    //    pending copy-queue entries).
    let too_new = s.query(
        "SELECT * FROM dfm_file WHERE dbid = ? AND lnk_state = ? AND rec_id > ?",
        &[Value::Int(dbid), Value::Int(LNK_LINKED), Value::Int(rec_id)],
    )?;
    for row in &too_new {
        let e = FileEntry::from_row(row)?;
        release_file(shared, &e)?;
        s.exec_prepared(
            &stmts.del_archive,
            &[Value::str(e.filename.clone()), Value::Int(e.rec_id)],
        )?;
        s.exec_prepared(
            &stmts.del_entry,
            &[Value::str(e.filename.clone()), Value::Int(e.check_flag)],
        )?;
    }

    // 2. Files linked before the backup and unlinked after it are linked
    //    again in the restored state: flip their entries back and make sure
    //    the file content matches (Retrieve daemon refetches if needed).
    let resurrect = s.query(
        "SELECT * FROM dfm_file WHERE dbid = ? AND lnk_state = ? AND rec_id <= ? \
         AND unlink_rec_id > ?",
        &[Value::Int(dbid), Value::Int(LNK_UNLINKED), Value::Int(rec_id), Value::Int(rec_id)],
    )?;
    for row in &resurrect {
        let e = FileEntry::from_row(row)?;
        s.exec_params(
            "UPDATE dfm_file SET lnk_state = ?, check_flag = 0, unlink_xid = NULL, \
             unlink_rec_id = NULL, unlink_ts = NULL WHERE filename = ? AND check_flag = ?",
            &[Value::Int(LNK_LINKED), Value::str(e.filename.clone()), Value::Int(e.check_flag)],
        )?;
        if shared.fs.exists(&e.filename) {
            // File still present: re-apply takeover (it was released at
            // unlink commit).
            shared
                .chown
                .call(ChownOp::Takeover { path: e.filename.clone(), full: is_full(e.access_ctl) })
                .map_err(DlfmError::Fs)?;
        } else if e.recovery != 0 {
            // File gone: restore content from the archive.
            let (tx, rx) = unbounded();
            let job = RetrieveJob {
                filename: e.filename.clone(),
                rec_id,
                owner: e.orig_owner.clone().unwrap_or_else(|| "restored".into()),
                full_control: is_full(e.access_ctl),
                done: tx,
            };
            shared
                .retrieve_tx
                .send(job)
                .map_err(|_| DlfmError::Protocol("retrieve daemon is down".into()))?;
            rx.recv()
                .map_err(|_| DlfmError::Protocol("retrieve daemon is down".into()))?
                .map_err(DlfmError::Fs)?;
        }
    }
    Ok(())
}

/// What [`reconcile`] found: `(broken_host_refs, orphans_unlinked)`.
pub type ReconcileReport = (Vec<(String, i64)>, Vec<String>);

/// The Reconcile utility's DLFM half (§3.4): load the host's references
/// into a temp table, diff with EXCEPT, fix the DLFM side, and report what
/// the host must fix. Returns `(broken_host_refs, orphans_unlinked)`.
pub fn reconcile(
    shared: &DlfmShared,
    dbid: i64,
    entries: &[(String, i64)],
) -> DlfmResult<ReconcileReport> {
    let mut s = Session::new(&shared.db);
    let tmp = format!("tmp_recon_{dbid}");
    // Temp table per reconcile run ("they are first stored in a temp table
    // in the local database to reduce the number of messages").
    let _ = s.exec(&format!("DROP TABLE {tmp}"));
    s.exec(&format!("CREATE TABLE {tmp} (filename VARCHAR NOT NULL, rec_id BIGINT NOT NULL)"))?;
    // Lazy: the temp table lives for this run only — a Reconcile cut short
    // by a crash is re-run by the host and starts by dropping the table.
    let insert = format!("INSERT INTO {tmp} (filename, rec_id) VALUES (?, ?)");
    for chunk in entries.chunks(256) {
        lazy_txn(&mut s, |s| {
            for (filename, rec_id) in chunk {
                s.exec_params(&insert, &[Value::str(filename.clone()), Value::Int(*rec_id)])?;
            }
            Ok(())
        })?;
    }

    // Host references with no matching linked entry on this DLFM.
    let broken_rows = s.exec_params(
        &format!(
            "SELECT filename, rec_id FROM {tmp} \
             EXCEPT SELECT filename, rec_id FROM dfm_file WHERE lnk_state = 1 AND dbid = ?"
        ),
        &[Value::Int(dbid)],
    )?;
    let mut broken: Vec<(String, i64)> = broken_rows
        .rows()
        .iter()
        .map(|r| Ok((r[0].as_str()?.to_string(), r[1].as_int()?)))
        .collect::<DlfmResult<_>>()?;
    // A linked entry whose file vanished from the file system is broken for
    // the host too.
    for (filename, rec_id) in entries {
        if !shared.fs.exists(filename) && !broken.iter().any(|(f, _)| f == filename) {
            broken.push((filename.clone(), *rec_id));
        }
    }

    // Linked entries the host no longer references: unlink them.
    let orphan_rows = s.exec_params(
        &format!(
            "SELECT filename FROM dfm_file WHERE dbid = ? AND lnk_state = 1 \
             EXCEPT SELECT filename FROM {tmp}"
        ),
        &[Value::Int(dbid)],
    )?;
    let stmts = shared.statements();
    let mut orphans = Vec::new();
    for row in orphan_rows.rows() {
        let filename = row[0].as_str()?.to_string();
        let linked = s.exec_prepared(&stmts.sel_linked, &[Value::str(filename.clone())])?.rows();
        if let Some(erow) = linked.first() {
            let e = FileEntry::from_row(erow)?;
            release_file(shared, &e)?;
            s.exec_prepared(
                &stmts.del_entry,
                &[Value::str(e.filename.clone()), Value::Int(e.check_flag)],
            )?;
        }
        orphans.push(filename);
    }

    let _ = s.exec(&format!("DROP TABLE {tmp}"));
    broken.sort();
    orphans.sort();
    Ok((broken, orphans))
}
