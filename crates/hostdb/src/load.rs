//! The Load utility (paper §4).
//!
//! "Load and reconcile utilities tend to run for a long time and involve
//! large number of link/unlink operations. Like any other long running
//! transactions, there is potential for running out of system resources
//! such as log file or lock table entry. Since very long running
//! transactions are always triggered by database utilities that can be
//! broken into pieces (undo of completed piece is not needed in case of the
//! utility failure), we put intelligence in DLFM to recognize such
//! transactions and to do local commit after finishing processing of each
//! piece."
//!
//! The host-side half of that story: `load` bulk-populates a table with
//! datalink rows, committing every `piece_size` rows in its own host
//! transaction (each a full two-phase commit). A piece is one statement
//! round: every row is intercepted as an INSERT would be (its local row
//! written, its link queued), then the piece's links go to each shard in
//! `Batch`es of at most `MAX_BATCH_OPS - 1` members, the last carrying the
//! Prepare, and the commit has its votes already — ⌈links / 255⌉ batch
//! calls and one phase-2 Commit per shard, not one round trip per row.
//!
//! A failure mid-load keeps the completed pieces — the utility is
//! restartable, not atomic, by design: any failure of a piece (a row the
//! host or a DLFM refuses, a vote or decision lost) rolls that piece back
//! everywhere, and the report says where to restart and why. The row it
//! names is the one a row-at-a-time load would have stopped at: the lowest
//! a DLFM refused, or one the host refused if no earlier row fails at a
//! DLFM; the piece's first row when no single row failed. The DLFM side
//! additionally chunks *within* each piece (see
//! `dlfm::config::DlfmConfig::chunk_commit_every`).

use minidb::Value;

use crate::engine::{txn_lost, HostSession};
use crate::error::{HostError, HostResult};

/// One row of a bulk load: values for the target columns.
pub type LoadRow = Vec<Value>;

/// Outcome of a [`HostSession::load`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Rows successfully loaded (and committed).
    pub rows_loaded: usize,
    /// Host transactions (pieces) committed.
    pub pieces_committed: usize,
    /// Index of the row to restart from, if the load stopped early: the
    /// failed row, or the failed piece's first row when no single row
    /// failed.
    pub failed_at: Option<usize>,
    /// Why the load stopped early.
    pub error: Option<HostError>,
}

impl HostSession {
    /// Bulk-load `rows` into `table (columns...)`, committing every
    /// `piece_size` rows. Returns how far it got; on a failure the current
    /// piece is rolled back and the report carries the failing index and
    /// its error (completed pieces stay committed — the utility semantics
    /// the paper relies on).
    pub fn load(
        &mut self,
        table: &str,
        columns: &[&str],
        rows: &[LoadRow],
        piece_size: usize,
    ) -> HostResult<LoadReport> {
        if self.xid().is_some() {
            return Err(HostError::Usage("load must run outside a transaction".into()));
        }
        let piece_size = piece_size.max(1);
        let sql = format!(
            "INSERT INTO {table} ({}) VALUES ({})",
            columns.join(", "),
            vec!["?"; columns.len()].join(", ")
        );
        let mut report =
            LoadReport { rows_loaded: 0, pieces_committed: 0, failed_at: None, error: None };
        for (piece_idx, piece) in rows.chunks(piece_size).enumerate() {
            if let Err((offset, error)) = self.load_piece(&sql, piece) {
                report.failed_at = Some(piece_idx * piece_size + offset);
                report.error = Some(error);
                break;
            }
            report.rows_loaded += piece.len();
            report.pieces_committed += 1;
        }
        Ok(report)
    }

    /// One piece in a transaction of its own, under one `load` root span:
    /// every row's interception half, then one round ending with the
    /// Prepare, then the commit. A failure rolls the piece back and
    /// returns the offset of the row to report, with its error.
    fn load_piece(&mut self, sql: &str, piece: &[LoadRow]) -> Result<(), (usize, HostError)> {
        let mut span = obs::span_root(obs::Layer::Host, "load");
        let failure = 'piece: {
            let stmt = match self.begin().and_then(|()| Ok(self.host.db().bind_cached(sql)?)) {
                Ok(stmt) => stmt,
                Err(e) => break 'piece (0, e),
            };
            // Recovery ids only grow: row `i`'s operations carry ids above
            // `marks[i]` and at most `marks[i + 1]`.
            let mut marks = Vec::with_capacity(piece.len());
            let mut refused = None;
            for (offset, row) in piece.iter().enumerate() {
                marks.push(self.host.current_rec_id());
                if let Err(e) = self.intercept(&stmt, row) {
                    refused = Some((offset, e));
                    break;
                }
            }
            let row_of = |at: Option<i64>| {
                at.map_or(0, |rec_id| marks.partition_point(|&m| m < rec_id).saturating_sub(1))
            };
            match refused {
                // The host transaction is gone, and with it any place to
                // record the rows before: this row is the one reported.
                Some((offset, e)) if txn_lost(&e) => (offset, e),
                // A row the host refused: the rows before it go out first,
                // and one of them a DLFM refuses comes before it.
                Some((offset, e)) => match self.flush(false) {
                    Ok(()) => (offset, e),
                    Err((e, at)) => (row_of(at), e),
                },
                None => match self.flush(true) {
                    Err((e, at)) => (row_of(at), e),
                    Ok(()) => match self.commit() {
                        Ok(()) => return Ok(()),
                        Err(e) => (0, e),
                    },
                },
            }
        };
        span.fail();
        self.rollback();
        Err(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DatalinkSpec, HostConfig, HostDb};
    use dlfm::{AccessControl, DlfmConfig, DlfmServer};
    use std::sync::Arc;

    fn rig() -> (Arc<filesys::FileSystem>, DlfmServer, HostDb) {
        let fs = Arc::new(filesys::FileSystem::new());
        let dlfm = DlfmServer::start(
            DlfmConfig::for_tests(),
            fs.clone(),
            Arc::new(archive::ArchiveServer::new()),
        );
        let host = HostDb::new(HostConfig::for_tests());
        host.attach_dlfm("fs1", dlfm.connector());
        (fs, dlfm, host)
    }

    fn table(host: &HostDb) -> crate::engine::HostSession {
        let mut s = host.session();
        s.create_table(
            "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
            &[DatalinkSpec {
                column: "doc".into(),
                access: AccessControl::Partial,
                recovery: false,
            }],
        )
        .unwrap();
        s
    }

    #[test]
    fn load_commits_in_pieces() {
        let (fs, dlfm, host) = rig();
        let mut s = table(&host);
        let rows: Vec<LoadRow> = (0..25)
            .map(|i| {
                let p = format!("/l/f{i}");
                fs.create(&p, "u", b"x").unwrap();
                vec![Value::Int(i), Value::str(format!("dlfs://fs1{p}"))]
            })
            .collect();
        let report = s.load("docs", &["id", "doc"], &rows, 10).unwrap();
        assert_eq!(report.rows_loaded, 25);
        assert_eq!(report.pieces_committed, 3);
        assert_eq!(report.failed_at, None);
        assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 25);
        let mut dl = minidb::Session::new(dlfm.db());
        assert_eq!(
            dl.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1", &[]).unwrap(),
            25
        );
    }

    #[test]
    fn failure_mid_piece_keeps_completed_pieces() {
        let (fs, dlfm, host) = rig();
        let mut s = table(&host);
        let mut rows: Vec<LoadRow> = (0..10)
            .map(|i| {
                let p = format!("/l/f{i}");
                fs.create(&p, "u", b"x").unwrap();
                vec![Value::Int(i), Value::str(format!("dlfs://fs1{p}"))]
            })
            .collect();
        // Row 7 references a file that does not exist -> piece 2 fails.
        rows[7][1] = Value::str("dlfs://fs1/l/missing");
        let report = s.load("docs", &["id", "doc"], &rows, 5).unwrap();
        assert_eq!(report.rows_loaded, 5, "first piece committed");
        assert_eq!(report.pieces_committed, 1);
        assert_eq!(report.failed_at, Some(7));
        assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 5);
        // The failed piece left nothing behind on the DLFM either.
        let mut dl = minidb::Session::new(dlfm.db());
        assert_eq!(
            dl.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1", &[]).unwrap(),
            5
        );
        assert_eq!(dl.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap(), 0);
    }

    /// `n` rows `(first + i, dlfs://fs1/<dir>/f<i>)` over fresh files.
    fn rows(fs: &filesys::FileSystem, dir: &str, first: i64, n: i64) -> Vec<LoadRow> {
        (0..n)
            .map(|i| {
                let p = format!("/{dir}/f{i}");
                fs.create(&p, "u", b"x").unwrap();
                vec![Value::Int(first + i), Value::str(format!("dlfs://fs1{p}"))]
            })
            .collect()
    }

    fn keyed_table(host: &HostDb) -> HostSession {
        let mut s = table(host);
        s.exec("CREATE UNIQUE INDEX ix_docs_id ON docs (id)").unwrap();
        s
    }

    fn dlfm_count(dlfm: &DlfmServer, sql: &str) -> i64 {
        minidb::Session::new(dlfm.db()).query_int(sql, &[]).unwrap()
    }

    fn no_such_file(report: &LoadReport) -> bool {
        matches!(&report.error, Some(HostError::Dlfm { error: dlfm::DlfmError::NoSuchFile(_), .. }))
    }

    fn duplicate_id(report: &LoadReport) -> bool {
        matches!(&report.error, Some(HostError::Db(minidb::DbError::UniqueViolation { index, .. })) if index == "ix_docs_id")
    }

    #[test]
    fn the_report_says_why_the_load_stopped() {
        let (fs, _dlfm, host) = rig();
        let mut s = keyed_table(&host);
        let mut missing = rows(&fs, "a", 0, 6);
        missing[4][1] = Value::str("dlfs://fs1/a/missing");
        let report = s.load("docs", &["id", "doc"], &missing, 3).unwrap();
        assert_eq!((report.rows_loaded, report.failed_at), (3, Some(4)));
        assert!(no_such_file(&report), "{report:?}");

        let mut duplicate = rows(&fs, "b", 10, 3);
        duplicate[2][0] = Value::Int(10);
        let report = s.load("docs", &["id", "doc"], &duplicate, 3).unwrap();
        assert_eq!((report.rows_loaded, report.failed_at), (0, Some(2)));
        assert!(duplicate_id(&report), "{report:?}");
        assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 3);
    }

    /// Every row of a piece is written on the host before any link is
    /// sent; a row the host refuses still yields to an earlier row a DLFM
    /// refuses, as it would have one row at a time.
    #[test]
    fn the_earlier_of_a_dlfm_and_a_host_refusal_is_reported() {
        let (fs, dlfm, host) = rig();
        let mut s = keyed_table(&host);
        let mut piece = rows(&fs, "a", 0, 6);
        piece[1][1] = Value::str("dlfs://fs1/a/missing");
        piece[4][0] = Value::Int(0);
        let report = s.load("docs", &["id", "doc"], &piece, 6).unwrap();
        assert_eq!((report.rows_loaded, report.failed_at), (0, Some(1)));
        assert!(no_such_file(&report), "{report:?}");

        // The other way round the host's refusal comes first.
        let mut piece = rows(&fs, "b", 0, 6);
        piece[1][0] = Value::Int(0);
        piece[4][1] = Value::str("dlfs://fs1/b/missing");
        let report = s.load("docs", &["id", "doc"], &piece, 6).unwrap();
        assert_eq!((report.rows_loaded, report.failed_at), (0, Some(1)));
        assert!(duplicate_id(&report), "{report:?}");

        assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 0);
        assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 0);
        assert_eq!(dlfm_count(&dlfm, "SELECT COUNT(*) FROM dfm_file"), 0);
        assert_eq!(dlfm_count(&dlfm, "SELECT COUNT(*) FROM dfm_xact"), 0);
        assert!(fs.list("/").iter().all(|p| fs.stat(p).unwrap().owner == "u"));
    }

    #[test]
    fn null_links_two_datalink_columns_and_none_all_load() {
        let (fs, dlfm, host) = rig();
        let mut s = host.session();
        let spec = |column: &str| DatalinkSpec {
            column: column.into(),
            access: AccessControl::Full,
            recovery: false,
        };
        s.create_table(
            "CREATE TABLE pair (id BIGINT NOT NULL, a DATALINK, b DATALINK)",
            &[spec("a"), spec("b")],
        )
        .unwrap();
        s.exec("CREATE TABLE plain (id BIGINT NOT NULL, note VARCHAR)").unwrap();
        let url = |p: &str| {
            fs.create(p, "u", b"x").unwrap();
            Value::str(format!("dlfs://fs1{p}"))
        };
        let pair: Vec<LoadRow> = (0..7)
            .map(|i| match i % 3 {
                0 => vec![Value::Int(i), url(&format!("/a{i}")), url(&format!("/b{i}"))],
                1 => vec![Value::Int(i), Value::Null, url(&format!("/b{i}"))],
                _ => vec![Value::Int(i), Value::Null, Value::Null],
            })
            .collect();
        let report = s.load("pair", &["id", "a", "b"], &pair, 3).unwrap();
        assert_eq!((report.rows_loaded, report.pieces_committed, report.failed_at), (7, 3, None));
        // Rows 0, 3, 6 link two files each; rows 1, 4 one.
        assert_eq!(dlfm_count(&dlfm, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 8);
        assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 8);
        assert!(fs.list("/").iter().all(|p| fs.stat(p).unwrap().owner == "dlfm_admin"));

        let plain: Vec<LoadRow> = (0..7).map(|i| vec![Value::Int(i), Value::str("n")]).collect();
        let report = s.load("plain", &["id", "note"], &plain, 3).unwrap();
        assert_eq!((report.rows_loaded, report.pieces_committed, report.failed_at), (7, 3, None));
        assert_eq!(s.query_int("SELECT COUNT(*) FROM plain", &[]).unwrap(), 7);
        assert_eq!(dlfm_count(&dlfm, "SELECT COUNT(*) FROM dfm_xact"), 0);
    }

    #[test]
    fn load_rejected_inside_transaction() {
        let (_fs, _dlfm, host) = rig();
        let mut s = table(&host);
        s.begin().unwrap();
        let e = s.load("docs", &["id", "doc"], &[], 10).unwrap_err();
        assert!(matches!(e, HostError::Usage(_)));
        s.rollback();
    }
}
