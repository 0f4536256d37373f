//! Phase-2 (commit/abort) processing — the heart of the paper's design.
//!
//! Unlike a database SQL commit, which only releases locks, DLFM's phase-2
//! processing issues SQL update/delete calls against the local database and
//! therefore *acquires new locks* (Figure 4). Deadlocks and timeouts are
//! possible; since the outcome of the transaction can no longer change, the
//! operation is **retried until it succeeds** (§3.3).
//!
//! Rolling back after the prepare-time local commit is done with the
//! **delayed-update scheme** (§4): unlink marks entries rather than
//! deleting them, so commit performs the physical deletes and abort flips
//! the marks back. File-system actions (takeover/release via the Chown
//! daemon) happen here in phase 2 because the file system is not
//! transactional (§3.2); they are idempotent so retries are safe.
//!
//! Neither phase-2 outcome forces the log (DESIGN §5.1). The vote was
//! forced at Prepare, and the coordinator keeps its forced decision: a
//! phase-2 record lost in a crash leaves the transaction PREPARED, and the
//! host resolver (`ListIndoubt`) delivers the same outcome again, whose
//! file-system actions repeat idempotently. Only a commit that deleted a
//! group forces, because the Delete-Group daemon acts on it.

use minidb::{Session, Value};

use crate::api::{AccessControl, DlfmError, DlfmResult};
use crate::chown::ChownOp;
use crate::meta::{FileEntry, XS_COMMITTED};
use crate::metrics::DlfmMetrics;
use crate::server::DlfmShared;

/// Run phase-2 commit with the retry-until-success loop. Returns the number
/// of retries that were needed.
pub fn run_phase2_commit(shared: &DlfmShared, dbid: i64, xid: i64) -> DlfmResult<u64> {
    run_with_retry(shared, "commit", xid, || commit_attempt(shared, dbid, xid)).inspect(|_r| {
        DlfmMetrics::bump(&shared.metrics.commits);
    })
}

/// Run phase-2 abort with the retry-until-success loop.
pub fn run_phase2_abort(shared: &DlfmShared, dbid: i64, xid: i64) -> DlfmResult<u64> {
    run_with_retry(shared, "abort", xid, || abort_attempt(shared, dbid, xid)).inspect(|_r| {
        DlfmMetrics::bump(&shared.metrics.aborts);
    })
}

/// The retry loop of Figure 4: phase-2 work acquires locks, may deadlock or
/// time out, and is repeated until it succeeds. The configured limit is a
/// test-friendly safety valve — effectively "forever" in production.
fn run_with_retry(
    shared: &DlfmShared,
    what: &str,
    xid: i64,
    mut attempt: impl FnMut() -> DlfmResult<Option<(i64, i64)>>,
) -> DlfmResult<u64> {
    let mut span = obs::span(obs::Layer::Dlfm, "phase2");
    let mut retries = 0u64;
    loop {
        match attempt() {
            Ok(notify) => {
                if retries > 0 {
                    obs::debug!("dlfm::twopc", "phase-2 {what} succeeded after {retries} retries");
                }
                obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                    let outcome = if what == "commit" { "COMMITTED" } else { "ABORTED" };
                    format!("xid#{xid} {outcome} (phase-2 {what} done, {retries} retries)")
                });
                if let Some((dbid, xid)) = notify {
                    notify_groupd(shared, dbid, xid);
                }
                return Ok(retries);
            }
            Err(DlfmError::Db { retryable: true, msg, .. }) => {
                retries += 1;
                DlfmMetrics::bump(&shared.metrics.phase2_retries);
                obs::warn!(
                    "dlfm::twopc",
                    "phase-2 {what} attempt {retries} hit retryable error, retrying: {msg}"
                );
                obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                    format!("xid#{xid} phase-2 {what} attempt {retries} hit retryable error: {msg}")
                });
                if retries as usize >= shared.config.commit_retry_limit {
                    span.fail();
                    DlfmMetrics::bump(&shared.metrics.phase2_abandoned);
                    obs::error!(
                        "dlfm::twopc",
                        "phase-2 {what} abandoned at retry limit ({retries} attempts); \
                         sub-transaction stays prepared for the resolver"
                    );
                    obs::journal::record(obs::journal::JournalKind::TwoPc, xid, || {
                        format!(
                            "xid#{xid} phase-2 {what} ABANDONED at retry limit \
                             ({retries} attempts); stays prepared for the resolver"
                        )
                    });
                    // Do NOT report this as retryable: the decision is
                    // final and nothing local changed. The sub-transaction
                    // remains prepared/re-drivable; the coordinator's
                    // resolver (or a restart) drives it to completion.
                    return Err(DlfmError::Db {
                        msg: format!(
                            "phase-2 {what} abandoned after {retries} attempts; \
                             sub-transaction remains prepared"
                        ),
                        retryable: false,
                        kind: crate::api::DbErrorKind::Other,
                    });
                }
                std::thread::sleep(shared.config.commit_retry_backoff);
            }
            Err(e) => {
                span.fail();
                return Err(e);
            }
        }
    }
}

/// Hand committed group-deletion work to the Delete-Group daemon. A drop
/// (daemon exited, or the `dlfm.groupd.notify_drop` fault) is not silent:
/// the `dfm_xact` row stays COMMITTED, so the daemon's periodic rescan —
/// or the restart requeue — picks the work up, and the counter tells
/// operators deletions are running on the slow path.
pub(crate) fn notify_groupd(shared: &DlfmShared, dbid: i64, xid: i64) {
    let dropped =
        obs::fault::fire("dlfm.groupd.notify_drop") || shared.groupd_tx.send((dbid, xid)).is_err();
    if dropped {
        DlfmMetrics::bump(&shared.metrics.groupd_notify_drops);
        obs::warn!(
            "dlfm::twopc",
            "delete-group notification dropped for db#{dbid} xid#{xid}; \
             deferred to daemon rescan"
        );
    }
}

/// One commit attempt. Returns `Some((dbid, xid))` when the Delete-Group
/// daemon must be notified after success.
fn commit_attempt(shared: &DlfmShared, dbid: i64, xid: i64) -> DlfmResult<Option<(i64, i64)>> {
    if obs::fault::fire("dlfm.phase2.deadlock") {
        return Err(DlfmError::Db {
            msg: "injected: phase-2 deadlock".into(),
            retryable: true,
            kind: crate::api::DbErrorKind::Deadlock,
        });
    }
    let stmts = shared.statements();
    let mut s = Session::new(&shared.db);
    s.begin()?;

    // Files linked by this transaction: take them over and queue archive
    // copies for recovery-managed groups. The rows stay locked until the
    // commit below, so no unlink can release a file before its takeover.
    let linked = s.exec_prepared(&stmts.sel_by_link_xid, &[Value::Int(xid)])?.rows();
    if obs::fault::fire("dlfm.phase2.stall_before_takeover") {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    for row in &linked {
        let e = FileEntry::from_row(row)?;
        let full = AccessControl::from_code(e.access_ctl) == AccessControl::Full;
        shared
            .chown
            .call(ChownOp::Takeover { path: e.filename.clone(), full })
            .map_err(DlfmError::Fs)?;
        if e.recovery != 0 {
            // The separate Archive table keeps copy-queue traffic out of
            // the big File table (§3.4). Unique (filename, rec_id) makes
            // requeueing on retry a no-op.
            match s.exec_prepared(
                &stmts.ins_archive,
                &[
                    Value::str(e.filename.clone()),
                    Value::Int(e.rec_id),
                    Value::Int(e.grp_id),
                    Value::Int(0),
                ],
            ) {
                Ok(_) | Err(minidb::DbError::UniqueViolation { .. }) => {}
                Err(err) => return Err(err.into()),
            }
        }
    }

    // Files unlinked by this transaction: release them; physically delete
    // entries that need no point-in-time recovery (delayed update, §4).
    // Exception: a file this same transaction *re-linked* (unlink from one
    // column + link to another, §3.2) stays under database control — its
    // takeover above must not be undone by the release below.
    let relinked: std::collections::HashSet<String> = linked
        .iter()
        .map(|row| FileEntry::from_row(row).map(|e| e.filename))
        .collect::<Result<_, _>>()?;
    let unlinked = s.exec_prepared(&stmts.sel_unlinked_by_xid, &[Value::Int(xid)])?.rows();
    for row in &unlinked {
        let e = FileEntry::from_row(row)?;
        if !relinked.contains(&e.filename) {
            release_file(shared, &e)?;
        }
        if e.recovery == 0 {
            s.exec_prepared(
                &stmts.del_entry,
                &[Value::str(e.filename.clone()), Value::Int(e.check_flag)],
            )?;
        }
    }

    // Transaction-table entry: keep it (COMMITTED) while asynchronous group
    // deletion still needs it, else delete it.
    let xact = s.exec_prepared(&stmts.sel_xact, &[Value::Int(dbid), Value::Int(xid)])?.rows();
    let mut notify = None;
    if let Some(row) = xact.first() {
        let groups_deleted = row[3].as_int()?;
        if groups_deleted > 0 {
            s.exec_prepared(
                &stmts.upd_xact_state,
                &[
                    Value::Int(XS_COMMITTED),
                    Value::Int(groups_deleted),
                    Value::Int(dbid),
                    Value::Int(xid),
                ],
            )?;
            notify = Some((dbid, xid));
        } else {
            s.exec_prepared(&stmts.del_xact, &[Value::Int(dbid), Value::Int(xid)])?;
        }
    }
    // Crash point for the worst 2PC window: the file system already shows
    // the takeover, but the local link-state commit has not happened. The
    // session's work is lost with the crash; recovery must re-drive this
    // commit (idempotently repeating the takeover) or the file would be
    // owned by the DLFM with no committed link state behind it.
    if obs::fault::fire("dlfm.phase2.crash_after_takeover") {
        shared.db.crash();
    }
    // Lazy (module doc), but forced for a group deletion: the Delete-Group
    // daemon starts releasing files on the notification, and restart
    // requeues from the COMMITTED row.
    if notify.is_some() {
        s.commit()?;
    } else {
        s.commit_lazy()?;
    }
    Ok(notify)
}

/// One abort attempt: undo hardened work with the delayed-update scheme.
fn abort_attempt(shared: &DlfmShared, dbid: i64, xid: i64) -> DlfmResult<Option<(i64, i64)>> {
    if obs::fault::fire("dlfm.phase2.deadlock") {
        return Err(DlfmError::Db {
            msg: "injected: phase-2 deadlock".into(),
            retryable: true,
            kind: crate::api::DbErrorKind::Deadlock,
        });
    }
    let stmts = shared.statements();
    let mut s = Session::new(&shared.db);
    s.begin()?;

    // Entries inserted by this transaction's links: physically delete.
    // (No file-system undo is needed — takeover only happens at commit.)
    s.exec_prepared(&stmts.del_by_link_xid, &[Value::Int(xid)])?;

    // Entries this transaction unlinked: restore to linked state.
    s.exec_prepared(&stmts.upd_restore_by_unlink_xid, &[Value::Int(xid)])?;

    // Groups this transaction marked for deletion: back to normal.
    s.exec_prepared(&stmts.upd_grp_restore_by_delete_xid, &[Value::Int(xid)])?;

    s.exec_prepared(&stmts.del_xact, &[Value::Int(dbid), Value::Int(xid)])?;
    // Lazy: presumed abort never forces an abort. Lost in a crash, the
    // `dfm_xact` row is PREPARED or INFLIGHT again, and the host resolver
    // (`ListIndoubt`) or this DLFM's restart aborts a second time.
    s.commit_lazy()?;
    Ok(None)
}

/// Release an unlinked file back to its original owner and permissions and
/// revoke any outstanding read tokens. Idempotent.
pub fn release_file(shared: &DlfmShared, e: &FileEntry) -> DlfmResult<()> {
    shared.dlff.revoke_tokens(&e.filename);
    if let (Some(owner), Some(mode)) = (&e.orig_owner, e.orig_mode) {
        shared
            .chown
            .call(ChownOp::Release {
                path: e.filename.clone(),
                owner: owner.clone(),
                mode_bits: mode,
            })
            .map_err(DlfmError::Fs)?;
    }
    Ok(())
}
