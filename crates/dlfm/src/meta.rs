//! DLFM persistent data structures (paper §3.1).
//!
//! Five SQL tables in the local database hold all DLFM metadata and state:
//!
//! * `dfm_file` — the **File table**: one row per link entry. At most one
//!   *linked* entry per file name, any number of *unlinked* ones; the race
//!   between two concurrent links of the same file is closed by the unique
//!   index on `(filename, check_flag)` where `check_flag` is 0 for linked
//!   entries and the unlink recovery id for unlinked entries (§3.2).
//! * `dfm_grp` — the **Group table**: one row per datalink column.
//! * `dfm_xact` — the **Transaction table**: prepared/in-flight/committed
//!   sub-transactions (the entry appears at prepare time, §3.3).
//! * `dfm_archive` — the **Archive table**: the Copy daemon's work queue,
//!   kept separate from the File table to avoid contention; entries are
//!   deleted as soon as the file is archived (§3.4).
//! * `dfm_backup` — the **Backup table**: one row per host backup cycle.
//!
//! This module also implements the paper's optimizer countermeasures:
//! hand-crafted catalog statistics plus bound (prepared) statements, and
//! the guard that re-applies the statistics when a RUNSTATS overwrites them
//! (§3.2.1, §4).

use minidb::{Database, DbResult, Prepared, Row, Session, Value};

use crate::metrics::DlfmMetrics;

/// `dfm_file.lnk_state`: entry represents a live link.
pub const LNK_LINKED: i64 = 1;
/// `dfm_file.lnk_state`: entry was unlinked (kept for recovery until GC'd
/// or physically deleted in commit phase 2).
pub const LNK_UNLINKED: i64 = 2;

/// `dfm_xact.state`: long-running transaction with chunked local commits,
/// not yet prepared.
pub const XS_INFLIGHT: i64 = 1;
/// `dfm_xact.state`: prepared (indoubt until phase 2).
pub const XS_PREPARED: i64 = 2;
/// `dfm_xact.state`: committed (kept while asynchronous group deletion is
/// pending, then cleaned).
pub const XS_COMMITTED: i64 = 3;

/// `dfm_grp.state`: group is live.
pub const G_NORMAL: i64 = 1;
/// `dfm_grp.state`: group deletion in progress (marked in the forward
/// transaction; files unlinked asynchronously by the Delete-Group daemon).
pub const G_DELETE_PENDING: i64 = 2;
/// `dfm_grp.state`: all files unlinked; metadata kept until life-span
/// expiry, then removed by the Garbage Collector.
pub const G_DELETED: i64 = 3;

/// Column count of `dfm_file` (kept in sync with [`create_schema`]).
pub const FILE_COLS: usize = 16;

/// Decoded `dfm_file` row.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// Host database id.
    pub dbid: i64,
    /// Absolute file path.
    pub filename: String,
    /// Owning group.
    pub grp_id: i64,
    /// [`LNK_LINKED`] or [`LNK_UNLINKED`].
    pub lnk_state: i64,
    /// 0 for linked entries; unlink recovery id for unlinked entries.
    pub check_flag: i64,
    /// Transaction that created the link.
    pub link_xid: i64,
    /// Recovery id of the link operation.
    pub rec_id: i64,
    /// Transaction that unlinked (if any).
    pub unlink_xid: Option<i64>,
    /// Recovery id of the unlink operation (if any).
    pub unlink_rec_id: Option<i64>,
    /// Unlink timestamp (microseconds, if any).
    pub unlink_ts: Option<i64>,
    /// Access-control code.
    pub access_ctl: i64,
    /// 1 when DLFM owns backup/recovery of this file.
    pub recovery: i64,
    /// Owner before takeover (restored on release).
    pub orig_owner: Option<String>,
    /// Mode bits before takeover.
    pub orig_mode: Option<i64>,
    /// File-system id at link time.
    pub fsid: Option<i64>,
    /// Inode at link time.
    pub inode: Option<i64>,
}

impl FileEntry {
    /// Decode from a `SELECT *` row.
    pub fn from_row(row: &Row) -> DbResult<FileEntry> {
        fn opt_int(v: &Value) -> Option<i64> {
            match v {
                Value::Int(i) => Some(*i),
                _ => None,
            }
        }
        fn opt_str(v: &Value) -> Option<String> {
            match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            }
        }
        Ok(FileEntry {
            dbid: row[0].as_int()?,
            filename: row[1].as_str()?.to_string(),
            grp_id: row[2].as_int()?,
            lnk_state: row[3].as_int()?,
            check_flag: row[4].as_int()?,
            link_xid: row[5].as_int()?,
            rec_id: row[6].as_int()?,
            unlink_xid: opt_int(&row[7]),
            unlink_rec_id: opt_int(&row[8]),
            unlink_ts: opt_int(&row[9]),
            access_ctl: row[10].as_int()?,
            recovery: row[11].as_int()?,
            orig_owner: opt_str(&row[12]),
            orig_mode: opt_int(&row[13]),
            fsid: opt_int(&row[14]),
            inode: opt_int(&row[15]),
        })
    }
}

/// Create all DLFM tables and indexes. The paper's schema decisions are
/// visible here: several indexes per table ("one for each access path"),
/// and the check-flag unique index closing the link/link race.
pub fn create_schema(session: &mut Session) -> DbResult<()> {
    session.exec(
        "CREATE TABLE dfm_file (\
           dbid BIGINT NOT NULL, \
           filename VARCHAR NOT NULL, \
           grp_id BIGINT NOT NULL, \
           lnk_state INTEGER NOT NULL, \
           check_flag BIGINT NOT NULL, \
           link_xid BIGINT NOT NULL, \
           rec_id BIGINT NOT NULL, \
           unlink_xid BIGINT, \
           unlink_rec_id BIGINT, \
           unlink_ts BIGINT, \
           access_ctl INTEGER NOT NULL, \
           recovery INTEGER NOT NULL, \
           orig_owner VARCHAR, \
           orig_mode INTEGER, \
           fsid BIGINT, \
           inode BIGINT)",
    )?;
    session.exec("CREATE UNIQUE INDEX ix_file_name_cf ON dfm_file (filename, check_flag)")?;
    session.exec("CREATE INDEX ix_file_link_xid ON dfm_file (link_xid)")?;
    session.exec("CREATE INDEX ix_file_unlink_xid ON dfm_file (unlink_xid)")?;
    session.exec("CREATE INDEX ix_file_grp ON dfm_file (grp_id)")?;
    session.exec("CREATE INDEX ix_file_unlink_recid ON dfm_file (unlink_rec_id)")?;
    session.exec("CREATE INDEX ix_file_recid ON dfm_file (rec_id)")?;

    session.exec(
        "CREATE TABLE dfm_grp (\
           grp_id BIGINT NOT NULL, \
           dbid BIGINT NOT NULL, \
           table_name VARCHAR NOT NULL, \
           column_name VARCHAR NOT NULL, \
           access_ctl INTEGER NOT NULL, \
           recovery INTEGER NOT NULL, \
           state INTEGER NOT NULL, \
           delete_xid BIGINT, \
           delete_rec_id BIGINT, \
           expiry BIGINT)",
    )?;
    session.exec("CREATE UNIQUE INDEX ix_grp_id ON dfm_grp (grp_id)")?;
    session.exec("CREATE INDEX ix_grp_state ON dfm_grp (state)")?;
    session.exec("CREATE INDEX ix_grp_delxid ON dfm_grp (delete_xid)")?;

    session.exec(
        "CREATE TABLE dfm_xact (\
           xid BIGINT NOT NULL, \
           dbid BIGINT NOT NULL, \
           state INTEGER NOT NULL, \
           groups_deleted INTEGER NOT NULL, \
           ts BIGINT)",
    )?;
    session.exec("CREATE UNIQUE INDEX ix_xact ON dfm_xact (dbid, xid)")?;
    session.exec("CREATE INDEX ix_xact_state ON dfm_xact (state)")?;

    session.exec(
        "CREATE TABLE dfm_archive (\
           filename VARCHAR NOT NULL, \
           rec_id BIGINT NOT NULL, \
           grp_id BIGINT NOT NULL, \
           priority INTEGER NOT NULL)",
    )?;
    session.exec("CREATE UNIQUE INDEX ix_arch ON dfm_archive (filename, rec_id)")?;
    session.exec("CREATE INDEX ix_arch_prio ON dfm_archive (priority)")?;
    session.exec("CREATE INDEX ix_arch_grp ON dfm_archive (grp_id)")?;

    session.exec(
        "CREATE TABLE dfm_backup (\
           backup_id BIGINT NOT NULL, \
           dbid BIGINT NOT NULL, \
           rec_id BIGINT NOT NULL, \
           complete INTEGER NOT NULL, \
           ts BIGINT)",
    )?;
    session.exec("CREATE UNIQUE INDEX ix_backup ON dfm_backup (dbid, backup_id)")?;
    session.exec("CREATE INDEX ix_backup_recid ON dfm_backup (rec_id)")?;
    Ok(())
}

/// Cardinality the statistics are hand-set to: large enough that the
/// optimizer always prefers index access over table scans.
pub const HAND_CRAFTED_CARD: u64 = 1_000_000;

const TABLES: [&str; 5] = ["dfm_file", "dfm_grp", "dfm_xact", "dfm_archive", "dfm_backup"];
const INDEXES: [&str; 16] = [
    "ix_file_name_cf",
    "ix_file_link_xid",
    "ix_file_unlink_xid",
    "ix_file_grp",
    "ix_file_unlink_recid",
    "ix_file_recid",
    "ix_grp_id",
    "ix_grp_state",
    "ix_grp_delxid",
    "ix_xact",
    "ix_xact_state",
    "ix_arch",
    "ix_arch_prio",
    "ix_arch_grp",
    "ix_backup",
    "ix_backup_recid",
];

/// Hand-craft the catalog statistics so the optimizer generates the access
/// plans DLFM needs ("the statistics in the catalog are manually set before
/// DLFM's SQL programs are compiled and bound", §3.2.1).
pub fn hand_craft_stats(db: &Database) -> DbResult<()> {
    for t in TABLES {
        db.set_table_stats(t, HAND_CRAFTED_CARD)?;
    }
    for ix in INDEXES {
        db.set_index_stats(ix, HAND_CRAFTED_CARD)?;
    }
    Ok(())
}

/// All SQL statements DLFM executes on hot paths, prepared ("bound") once.
///
/// Reads that gate an integrity decision (link/unlink checks, the Upcall's
/// deny-by-default probe) or drive non-transactional file-system actions
/// (phase-2 takeover/release) use `FOR SHARE` or `FOR UPDATE`: they must
/// observe *locked current* state and conflict with in-flight writers,
/// exactly as under plain 2PL. Everything else — daemon queue scans,
/// counts — rides the MVCC snapshot path and never blocks.
#[derive(Debug, Clone)]
pub struct Statements {
    /// Insert a new linked file entry.
    pub ins_file: Prepared,
    /// Fetch the linked entry for a file name (locking read: the result
    /// feeds link-state decisions).
    pub sel_linked: Prepared,
    /// The same entry under a row lock that lasts to the end of the
    /// transaction (a FOR SHARE lock ends with its statement under cursor
    /// stability): token issuance registers the token before it lets go.
    pub sel_linked_held: Prepared,
    /// Fetch any entry (linked or not) for a file name.
    pub sel_by_name: Prepared,
    /// Unlink: flip the linked entry to unlinked (delayed update, §4).
    pub upd_unlink: Prepared,
    /// Savepoint backout of a link: physically delete the entry.
    pub del_backout_link: Prepared,
    /// Savepoint backout of an unlink: restore the entry to linked.
    pub upd_backout_unlink: Prepared,
    /// Entries linked by a transaction (commit phase 2), locked until the
    /// phase-2 local commit: a FOR SHARE lock would end with the
    /// statement, and an unlink could then commit and release the file
    /// before this transaction's takeover lands on it.
    pub sel_by_link_xid: Prepared,
    /// Entries unlinked by a transaction (commit/abort phase 2).
    pub sel_unlinked_by_xid: Prepared,
    /// Physically delete one unlinked entry (commit phase 2, no recovery).
    pub del_entry: Prepared,
    /// Abort phase 2: delete entries this transaction linked.
    pub del_by_link_xid: Prepared,
    /// Abort phase 2: restore entries this transaction unlinked.
    pub upd_restore_by_unlink_xid: Prepared,
    /// Transaction-table insert (at prepare / first chunk commit).
    pub ins_xact: Prepared,
    /// Transaction-table state update.
    pub upd_xact_state: Prepared,
    /// Transaction-table delete.
    pub del_xact: Prepared,
    /// Transaction-table lookup.
    pub sel_xact: Prepared,
    /// Archive-queue insert (commit phase 2 for recovery groups).
    pub ins_archive: Prepared,
    /// Archive-queue scan (Copy daemon).
    pub sel_archive_all: Prepared,
    /// Archive-queue delete after copy.
    pub del_archive: Prepared,
    /// Escalate archive priority for a backup flush.
    pub upd_archive_prio: Prepared,
    /// Pending-copy count (backup coordination).
    pub cnt_archive: Prepared,
    /// Group lookup (every LinkFile).
    pub sel_grp: Prepared,
    /// Abort phase 2: groups this transaction marked for deletion go back
    /// to normal. Bound like the rest: planned against live statistics, a
    /// RUNSTATS on the small Group table turns it into a table scan that
    /// X-locks every group row inside phase 2 (§3.2.1).
    pub upd_grp_restore_by_delete_xid: Prepared,
}

impl Statements {
    /// Prepare (bind) every statement against current statistics.
    pub fn prepare(db: &Database) -> DbResult<Statements> {
        Ok(Statements {
            ins_file: db.prepare(
                "INSERT INTO dfm_file (dbid, filename, grp_id, lnk_state, check_flag, \
                 link_xid, rec_id, unlink_xid, unlink_rec_id, unlink_ts, access_ctl, \
                 recovery, orig_owner, orig_mode, fsid, inode) \
                 VALUES (?, ?, ?, ?, ?, ?, ?, NULL, NULL, NULL, ?, ?, ?, ?, ?, ?)",
            )?,
            sel_linked: db.prepare(
                "SELECT * FROM dfm_file WHERE filename = ? AND check_flag = 0 FOR SHARE",
            )?,
            sel_linked_held: db.prepare(
                "SELECT * FROM dfm_file WHERE filename = ? AND check_flag = 0 FOR UPDATE",
            )?,
            sel_by_name: db.prepare("SELECT * FROM dfm_file WHERE filename = ? FOR SHARE")?,
            upd_unlink: db.prepare(
                "UPDATE dfm_file SET lnk_state = 2, check_flag = ?, unlink_xid = ?, \
                 unlink_rec_id = ?, unlink_ts = ? WHERE filename = ? AND check_flag = 0",
            )?,
            del_backout_link: db.prepare(
                "DELETE FROM dfm_file WHERE filename = ? AND link_xid = ? AND lnk_state = 1",
            )?,
            upd_backout_unlink: db.prepare(
                "UPDATE dfm_file SET lnk_state = 1, check_flag = 0, unlink_xid = NULL, \
                 unlink_rec_id = NULL, unlink_ts = NULL \
                 WHERE filename = ? AND unlink_xid = ? AND lnk_state = 2",
            )?,
            sel_by_link_xid: db.prepare(
                "SELECT * FROM dfm_file WHERE link_xid = ? AND lnk_state = 1 FOR UPDATE",
            )?,
            sel_unlinked_by_xid: db.prepare(
                "SELECT * FROM dfm_file WHERE unlink_xid = ? AND lnk_state = 2 FOR SHARE",
            )?,
            del_entry: db.prepare("DELETE FROM dfm_file WHERE filename = ? AND check_flag = ?")?,
            del_by_link_xid: db
                .prepare("DELETE FROM dfm_file WHERE link_xid = ? AND lnk_state = 1")?,
            upd_restore_by_unlink_xid: db.prepare(
                "UPDATE dfm_file SET lnk_state = 1, check_flag = 0, unlink_xid = NULL, \
                 unlink_rec_id = NULL, unlink_ts = NULL \
                 WHERE unlink_xid = ? AND lnk_state = 2",
            )?,
            ins_xact: db.prepare(
                "INSERT INTO dfm_xact (xid, dbid, state, groups_deleted, ts) \
                 VALUES (?, ?, ?, ?, ?)",
            )?,
            upd_xact_state: db.prepare(
                "UPDATE dfm_xact SET state = ?, groups_deleted = ? WHERE dbid = ? AND xid = ?",
            )?,
            del_xact: db.prepare("DELETE FROM dfm_xact WHERE dbid = ? AND xid = ?")?,
            sel_xact: db.prepare("SELECT * FROM dfm_xact WHERE dbid = ? AND xid = ? FOR SHARE")?,
            ins_archive: db.prepare(
                "INSERT INTO dfm_archive (filename, rec_id, grp_id, priority) \
                 VALUES (?, ?, ?, ?)",
            )?,
            sel_archive_all: db.prepare(
                "SELECT filename, rec_id, grp_id, priority FROM dfm_archive \
                 ORDER BY priority DESC",
            )?,
            del_archive: db.prepare("DELETE FROM dfm_archive WHERE filename = ? AND rec_id = ?")?,
            upd_archive_prio: db
                .prepare("UPDATE dfm_archive SET priority = 10 WHERE rec_id <= ?")?,
            cnt_archive: db.prepare("SELECT COUNT(*) FROM dfm_archive")?,
            sel_grp: db.prepare(
                "SELECT grp_id, access_ctl, recovery, state FROM dfm_grp WHERE grp_id = ?",
            )?,
            upd_grp_restore_by_delete_xid: db.prepare(
                "UPDATE dfm_grp SET state = 1, delete_xid = NULL, delete_rec_id = NULL \
                 WHERE delete_xid = ? AND state = 2",
            )?,
        })
    }

    /// Are any of the bound plans stale (statistics changed since bind)?
    pub fn stale(&self, db: &Database) -> bool {
        db.plan_is_stale(&self.sel_linked)
    }
}

/// The statistics guard (paper §4): if a user-issued RUNSTATS overwrote the
/// hand-crafted statistics, re-apply them and rebind all plans. Returns the
/// freshly bound statements when a rebind happened.
pub fn ensure_plans(
    db: &Database,
    stmts: &Statements,
    metrics: &DlfmMetrics,
) -> DbResult<Option<Statements>> {
    if !stmts.stale(db) {
        return Ok(None);
    }
    // Any table: a statement bound under measured statistics of a small
    // table scans it.
    let mut overwritten = false;
    for t in TABLES {
        overwritten |= !db.stats_hand_crafted(t)?;
    }
    if overwritten {
        hand_craft_stats(db)?;
        DlfmMetrics::bump(&metrics.stats_reapplied);
        obs::info!(
            "dlfm::meta",
            "statistics guard: RUNSTATS overwrote hand-crafted stats; re-applied and rebinding"
        );
    }
    let fresh = Statements::prepare(db)?;
    Ok(Some(fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::DbConfig;

    fn fresh_db() -> Database {
        let db = Database::new(DbConfig::dlfm_tuned());
        let mut s = Session::new(&db);
        create_schema(&mut s).unwrap();
        db
    }

    #[test]
    fn schema_creates_all_tables_and_indexes() {
        let db = fresh_db();
        let mut s = Session::new(&db);
        for t in TABLES {
            let n = s.query_int(&format!("SELECT COUNT(*) FROM {t}"), &[]).unwrap();
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn check_flag_unique_index_closes_link_race() {
        // Two linked entries (check_flag = 0) for one file are impossible;
        // multiple unlinked entries (distinct recovery ids) are fine.
        let db = fresh_db();
        let mut s = Session::new(&db);
        let ins = |s: &mut Session, cf: i64, xid: i64| {
            s.exec_params(
                "INSERT INTO dfm_file (dbid, filename, grp_id, lnk_state, check_flag, \
                 link_xid, rec_id, unlink_xid, unlink_rec_id, unlink_ts, access_ctl, \
                 recovery, orig_owner, orig_mode, fsid, inode) \
                 VALUES (1, '/f', 1, 1, ?, ?, 1, NULL, NULL, NULL, 0, 0, NULL, NULL, NULL, NULL)",
                &[Value::Int(cf), Value::Int(xid)],
            )
        };
        ins(&mut s, 0, 1).unwrap();
        let err = ins(&mut s, 0, 2).unwrap_err();
        assert!(matches!(err, minidb::DbError::UniqueViolation { .. }));
        // Unlinked entries carry distinct recovery ids as check_flag.
        ins(&mut s, 100, 3).unwrap();
        ins(&mut s, 200, 4).unwrap();
        let n = s.query_int("SELECT COUNT(*) FROM dfm_file WHERE filename = '/f'", &[]).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn hand_crafted_stats_flip_plans_to_index_scans() {
        let db = fresh_db();
        let mut s = Session::new(&db);
        let plan = s.query("EXPLAIN SELECT * FROM dfm_file WHERE filename = '/f'", &[]).unwrap()[0]
            [0]
        .as_str()
        .unwrap()
        .to_string();
        assert!(plan.starts_with("TBSCAN"), "fresh stats should table-scan: {plan}");
        hand_craft_stats(&db).unwrap();
        let plan = s.query("EXPLAIN SELECT * FROM dfm_file WHERE filename = '/f'", &[]).unwrap()[0]
            [0]
        .as_str()
        .unwrap()
        .to_string();
        assert!(plan.starts_with("IXSCAN"), "hand-crafted stats should index-scan: {plan}");
    }

    #[test]
    fn statements_bind_with_index_plans_after_stats() {
        let db = fresh_db();
        hand_craft_stats(&db).unwrap();
        let stmts = Statements::prepare(&db).unwrap();
        assert!(stmts.sel_linked.explain(&db).starts_with("IXSCAN"));
        assert!(stmts.sel_by_link_xid.explain(&db).starts_with("IXSCAN"));
        assert!(!stmts.stale(&db));
    }

    #[test]
    fn ensure_plans_detects_runstats_overwrite() {
        let db = fresh_db();
        hand_craft_stats(&db).unwrap();
        let stmts = Statements::prepare(&db).unwrap();
        let metrics = DlfmMetrics::default();
        // Nothing changed: no rebind.
        assert!(ensure_plans(&db, &stmts, &metrics).unwrap().is_none());
        // A user runs RUNSTATS on the (empty) File table.
        db.runstats("dfm_file").unwrap();
        let fresh = ensure_plans(&db, &stmts, &metrics).unwrap().expect("rebind expected");
        // The guard re-applied the hand-crafted stats, so plans are index
        // scans again.
        assert!(fresh.sel_linked.explain(&db).starts_with("IXSCAN"));
        assert_eq!(metrics.snapshot().stats_reapplied, 1);
        assert!(db.stats_hand_crafted("dfm_file").unwrap());
    }

    #[test]
    fn file_entry_roundtrip() {
        let db = fresh_db();
        let mut s = Session::new(&db);
        s.exec_params(
            "INSERT INTO dfm_file (dbid, filename, grp_id, lnk_state, check_flag, \
             link_xid, rec_id, unlink_xid, unlink_rec_id, unlink_ts, access_ctl, \
             recovery, orig_owner, orig_mode, fsid, inode) \
             VALUES (7, '/v/a.mpg', 3, 1, 0, 11, 1001, NULL, NULL, NULL, 2, 1, 'alice', 3, 5, 42)",
            &[],
        )
        .unwrap();
        let row = s
            .query_opt("SELECT * FROM dfm_file WHERE filename = '/v/a.mpg'", &[])
            .unwrap()
            .unwrap();
        let e = FileEntry::from_row(&row).unwrap();
        assert_eq!(e.dbid, 7);
        assert_eq!(e.grp_id, 3);
        assert_eq!(e.lnk_state, LNK_LINKED);
        assert_eq!(e.rec_id, 1001);
        assert_eq!(e.unlink_xid, None);
        assert_eq!(e.orig_owner.as_deref(), Some("alice"));
        assert_eq!(e.inode, Some(42));
    }
}
