//! Sessions: the per-connection statement interface.
//!
//! A session owns at most one open transaction. Statements executed with no
//! open transaction auto-commit. A deadlock or lock timeout rolls back the
//! *whole* transaction (the engine has already victimised it), mirroring
//! DB2's `-911` behaviour that forces the host database to roll back the
//! full global transaction (paper §3.2). Any other failed statement in an
//! explicit transaction is undone alone, back to a savepoint taken before
//! it, and the transaction stays open.

use crate::bind::Prepared;
use crate::engine::{Database, ExecResult};
use crate::error::{DbError, DbResult};
use crate::txn::{Savepoint, Txn};
use crate::value::{Row, Value};

/// One database session (not thread-safe; one per thread).
pub struct Session {
    db: Database,
    txn: Option<Txn>,
}

impl Session {
    /// Open a session on a database.
    pub fn new(db: &Database) -> Session {
        Session { db: db.clone(), txn: None }
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Is a transaction open?
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Begin an explicit transaction.
    pub fn begin(&mut self) -> DbResult<()> {
        if self.txn.is_some() {
            return Err(DbError::TxnState("transaction already open".into()));
        }
        self.txn = Some(self.db.begin());
        Ok(())
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> DbResult<()> {
        let mut txn = self.take_txn()?;
        self.db.commit(&mut txn)
    }

    /// Commit the open transaction without forcing the log — see
    /// [`Database::commit_lazy`] for what that does and does not promise.
    pub fn commit_lazy(&mut self) -> DbResult<()> {
        let mut txn = self.take_txn()?;
        self.db.commit_lazy(&mut txn)
    }

    fn take_txn(&mut self) -> DbResult<Txn> {
        self.txn.take().ok_or_else(|| DbError::TxnState("no transaction open".into()))
    }

    /// Roll back the open transaction (no-op if none).
    pub fn rollback(&mut self) {
        if let Some(mut txn) = self.txn.take() {
            self.db.rollback(&mut txn);
        }
    }

    /// Create a statement savepoint in the open transaction.
    pub fn savepoint(&mut self) -> DbResult<Savepoint> {
        let txn =
            self.txn.as_ref().ok_or_else(|| DbError::TxnState("no transaction open".into()))?;
        Ok(txn.savepoint())
    }

    /// Roll back to a savepoint, keeping the transaction (and its locks) open.
    pub fn rollback_to(&mut self, sp: Savepoint) -> DbResult<()> {
        let txn =
            self.txn.as_mut().ok_or_else(|| DbError::TxnState("no transaction open".into()))?;
        // A failed one has rolled the whole transaction back.
        self.db.rollback_to(txn, sp).inspect_err(|_| self.txn = None)
    }

    /// Execute a statement with no parameters.
    pub fn exec(&mut self, sql: &str) -> DbResult<ExecResult> {
        self.exec_params(sql, &[])
    }

    /// Execute a statement with parameters.
    pub fn exec_params(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecResult> {
        self.run(|db, txn| db.exec(txn, sql, params))
    }

    /// Execute a prepared statement with its bound plan.
    pub fn exec_prepared(&mut self, p: &Prepared, params: &[Value]) -> DbResult<ExecResult> {
        self.run(|db, txn| db.exec_prepared(txn, p, params))
    }

    /// Execute an already-parsed statement (AST) with parameters.
    pub fn exec_ast(
        &mut self,
        stmt: &crate::sql::ast::Stmt,
        params: &[Value],
    ) -> DbResult<ExecResult> {
        self.run(|db, txn| db.execute(txn, stmt, params))
    }

    /// Query rows.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<Vec<Row>> {
        Ok(self.exec_params(sql, params)?.rows())
    }

    /// Query a single row, if any.
    pub fn query_opt(&mut self, sql: &str, params: &[Value]) -> DbResult<Option<Row>> {
        Ok(self.query(sql, params)?.into_iter().next())
    }

    /// Query one integer (e.g. COUNT(*)). Errors if no row or non-integer.
    pub fn query_int(&mut self, sql: &str, params: &[Value]) -> DbResult<i64> {
        let row = self
            .query_opt(sql, params)?
            .ok_or_else(|| DbError::Internal("query_int returned no rows".into()))?;
        row.first()
            .ok_or_else(|| DbError::Internal("query_int returned empty row".into()))?
            .as_int()
    }

    fn run(
        &mut self,
        f: impl FnOnce(&Database, &mut Txn) -> DbResult<ExecResult>,
    ) -> DbResult<ExecResult> {
        let mut span = obs::span(obs::Layer::Minidb, "stmt");
        let auto = self.txn.is_none();
        if auto {
            self.txn = Some(self.db.begin());
        }
        let txn = self.txn.as_mut().expect("transaction just ensured");
        // Statement atomicity: a statement that fails in an explicit
        // transaction leaves nothing it changed behind.
        let sp = txn.savepoint();
        let result = f(&self.db, txn);
        match result {
            Ok(r) => {
                if auto {
                    let mut txn = self.txn.take().expect("autocommit txn present");
                    self.db.commit(&mut txn).inspect_err(|_| span.fail())?;
                }
                Ok(r)
            }
            Err(e) => {
                span.fail();
                if auto || e.is_rollback_forced() {
                    // Deadlock/timeout victims have lost the transaction.
                    let mut txn = self.txn.take().expect("txn present");
                    self.db.rollback(&mut txn);
                } else {
                    // An undo the log refuses costs the transaction, and
                    // its error says so.
                    self.rollback_to(sp)?;
                }
                Err(e)
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Abandon any open transaction so its locks do not leak.
        self.rollback();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::engine::ExecResult;

    fn db() -> Database {
        let db = Database::new(DbConfig::for_tests());
        let mut s = Session::new(&db);
        s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, n INTEGER)").unwrap();
        s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
        s.exec("CREATE INDEX ix_name ON t (name)").unwrap();
        db
    }

    /// A statement that fails half-way through its rows takes back the
    /// rows it already changed; the transaction goes on.
    #[test]
    fn a_failed_statement_in_a_transaction_leaves_no_rows_changed() {
        let db = db();
        let mut s = Session::new(&db);
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (2, 'b', 20)").unwrap();
        let ids =
            |s: &mut Session| -> Vec<Row> { s.query("SELECT id FROM t ORDER BY n", &[]).unwrap() };
        s.begin().unwrap();
        let err = s.exec("UPDATE t SET id = 3 WHERE id <= 2").unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }), "{err}");
        assert!(s.in_txn());
        assert_eq!(ids(&mut s), [[Value::Int(1)], [Value::Int(2)]]);
        s.commit().unwrap();
        assert_eq!(ids(&mut s), [[Value::Int(1)], [Value::Int(2)]]);
    }

    #[test]
    fn autocommit_roundtrip() {
        let db = db();
        let mut s = Session::new(&db);
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        let rows = s.query("SELECT name FROM t WHERE id = 1", &[]).unwrap();
        assert_eq!(rows, vec![vec![Value::str("a")]]);
    }

    #[test]
    fn explicit_txn_commit_and_rollback() {
        let db = db();
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        s.commit().unwrap();
        s.begin().unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (2, 'b', 20)").unwrap();
        s.rollback();
        let n = s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn savepoint_rollback_keeps_earlier_work() {
        let db = db();
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        let sp = s.savepoint().unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (2, 'b', 20)").unwrap();
        s.rollback_to(sp).unwrap();
        s.commit().unwrap();
        let n = s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn unique_violation_is_statement_level() {
        let db = db();
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        let err = s.exec("INSERT INTO t (id, name, n) VALUES (1, 'dup', 0)").unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Transaction is still usable.
        s.exec("INSERT INTO t (id, name, n) VALUES (2, 'b', 20)").unwrap();
        s.commit().unwrap();
        let mut s2 = Session::new(&db);
        assert_eq!(s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 2);
    }

    #[test]
    fn update_and_delete() {
        let db = db();
        let mut s = Session::new(&db);
        for i in 0..5 {
            s.exec_params(
                "INSERT INTO t (id, name, n) VALUES (?, ?, ?)",
                &[Value::Int(i), Value::str(format!("f{i}")), Value::Int(i * 10)],
            )
            .unwrap();
        }
        let r = s.exec("UPDATE t SET n = 99 WHERE id >= 3").unwrap();
        assert_eq!(r, ExecResult::Count(2));
        let r = s.exec("DELETE FROM t WHERE n = 99").unwrap();
        assert_eq!(r, ExecResult::Count(2));
        assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 3);
    }

    #[test]
    fn order_by_and_projection() {
        let db = db();
        let mut s = Session::new(&db);
        for (id, name) in [(3, "c"), (1, "a"), (2, "b")] {
            s.exec_params(
                "INSERT INTO t (id, name, n) VALUES (?, ?, 0)",
                &[Value::Int(id), Value::str(name)],
            )
            .unwrap();
        }
        let rows = s.query("SELECT id FROM t ORDER BY name DESC", &[]).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3)], vec![Value::Int(2)], vec![Value::Int(1)]]);
    }

    #[test]
    fn aggregates() {
        let db = db();
        let mut s = Session::new(&db);
        for i in 1..=4 {
            s.exec_params(
                "INSERT INTO t (id, name, n) VALUES (?, 'x', ?)",
                &[Value::Int(i), Value::Int(i)],
            )
            .unwrap();
        }
        let row = s
            .query_opt("SELECT COUNT(*), MIN(n), MAX(n), SUM(n) FROM t WHERE n > 1", &[])
            .unwrap()
            .unwrap();
        assert_eq!(row, vec![Value::Int(3), Value::Int(2), Value::Int(4), Value::Int(9)]);
    }

    #[test]
    fn except_set_difference() {
        let db = db();
        let mut s = Session::new(&db);
        s.exec("CREATE TABLE u (id BIGINT, name VARCHAR)").unwrap();
        for i in 0..4 {
            s.exec_params(
                "INSERT INTO t (id, name, n) VALUES (?, ?, 0)",
                &[Value::Int(i), Value::str(format!("f{i}"))],
            )
            .unwrap();
        }
        for i in 2..4 {
            s.exec_params(
                "INSERT INTO u (id, name) VALUES (?, ?)",
                &[Value::Int(i), Value::str(format!("f{i}"))],
            )
            .unwrap();
        }
        let rows = s.query("SELECT name FROM t EXCEPT SELECT name FROM u", &[]).unwrap();
        let mut names: Vec<String> =
            rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["f0", "f1"]);
    }

    #[test]
    fn session_drop_releases_locks() {
        let db = db();
        {
            let mut s = Session::new(&db);
            s.begin().unwrap();
            s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 0)").unwrap();
            // dropped without commit
        }
        let mut s2 = Session::new(&db);
        // No lock wait, and the insert was rolled back.
        assert_eq!(s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 0);
    }

    #[test]
    fn explain_reports_plan() {
        let db = db();
        let mut s = Session::new(&db);
        let rows = s.query("EXPLAIN SELECT * FROM t WHERE id = 1", &[]).unwrap();
        let plan = rows[0][0].as_str().unwrap().to_string();
        // Fresh stats: table scan (the paper's pathology).
        assert!(plan.starts_with("TBSCAN"), "{plan}");
        db.set_table_stats("t", 1_000_000).unwrap();
        db.set_index_stats("ix_id", 1_000_000).unwrap();
        let rows = s.query("EXPLAIN SELECT * FROM t WHERE id = 1", &[]).unwrap();
        let plan = rows[0][0].as_str().unwrap().to_string();
        assert!(plan.starts_with("IXSCAN"), "{plan}");
    }

    #[test]
    fn explain_covers_every_plannable_dml() {
        let db = db();
        let mut s = Session::new(&db);
        let explain = |s: &mut Session, sql: &str| -> String {
            let rows = s.query(sql, &[]).unwrap();
            rows[0][0].as_str().unwrap().to_string()
        };
        let plan = explain(&mut s, "EXPLAIN UPDATE t SET n = 0 WHERE id = 1");
        assert!(plan.starts_with("TBSCAN") || plan.starts_with("IXSCAN"), "{plan}");
        let plan = explain(&mut s, "EXPLAIN DELETE FROM t WHERE id = 1");
        assert!(plan.starts_with("TBSCAN") || plan.starts_with("IXSCAN"), "{plan}");
        let plan = explain(&mut s, "EXPLAIN INSERT INTO t (id, name, n) VALUES (9, 'x', 0)");
        assert!(plan.starts_with("INSERT t"), "{plan}");
        assert!(plan.contains("index maintenance"), "{plan}");
        // Both arms of a set-difference query are planned.
        let plan = explain(&mut s, "EXPLAIN SELECT name FROM t EXCEPT SELECT name FROM t");
        assert!(plan.contains("\nEXCEPT\n"), "{plan}");
        // Nested EXPLAIN unwraps to the innermost statement's plan.
        let plan = explain(&mut s, "EXPLAIN EXPLAIN SELECT * FROM t WHERE id = 1");
        assert!(plan.starts_with("TBSCAN") || plan.starts_with("IXSCAN"), "{plan}");
        // DDL has no access plan: a clear error, not a panic or silence.
        let err = s.query("EXPLAIN CREATE TABLE z (id BIGINT)", &[]).unwrap_err();
        assert!(matches!(err, DbError::Plan(ref m) if m.contains("DDL")), "{err}");
    }

    #[test]
    fn slow_statement_log_captures_plan_and_lock_waits() {
        let db = db();
        db.set_slow_statement_threshold(Some(std::time::Duration::ZERO));
        let mut s = Session::new(&db);
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)").unwrap();
        s.query("SELECT * FROM t WHERE id = 1", &[]).unwrap();
        let slow = db.recent_slow_statements();
        assert!(!slow.is_empty(), "threshold zero records every statement");
        let last = slow.last().unwrap();
        assert_eq!(last.sql.as_deref(), Some("SELECT * FROM t WHERE id = 1"));
        let plan = last.plan.as_deref().unwrap();
        assert!(plan.starts_with("TBSCAN") || plan.starts_with("IXSCAN"), "{plan}");
        assert!(last.render().contains("lock wait"), "{}", last.render());
        db.set_slow_statement_threshold(None);
        let before = db.recent_slow_statements().len();
        s.query("SELECT * FROM t WHERE id = 1", &[]).unwrap();
        assert_eq!(db.recent_slow_statements().len(), before, "disabled log stays quiet");
    }

    #[test]
    fn prepared_statement_pins_plan_until_rebind() {
        let db = db();
        db.set_table_stats("t", 1_000_000).unwrap();
        db.set_index_stats("ix_id", 1_000_000).unwrap();
        let p = db.prepare("SELECT * FROM t WHERE id = ?").unwrap();
        assert!(p.explain(&db).starts_with("IXSCAN"));
        // A RUNSTATS on the (empty) table reverts measured cardinality to 0.
        db.runstats("t").unwrap();
        assert!(db.plan_is_stale(&p));
        // The pinned plan still runs as an index scan.
        assert!(p.explain(&db).contains("IXSCAN"));
        // Rebinding picks the (bad) table scan.
        db.rebind(&p).unwrap();
        assert!(p.explain(&db).starts_with("TBSCAN"));
    }

    #[test]
    fn not_null_and_type_violations() {
        let db = db();
        let mut s = Session::new(&db);
        let e = s.exec("INSERT INTO t (name, n) VALUES ('a', 1)").unwrap_err();
        assert!(matches!(e, DbError::Constraint(_)));
        let e = s.exec("INSERT INTO t (id, name, n) VALUES ('str', 'a', 1)").unwrap_err();
        assert!(matches!(e, DbError::Type(_)));
    }

    #[test]
    fn deadlock_rolls_back_whole_txn() {
        use std::thread;
        use std::time::Duration;
        let db = db();
        let mut s = Session::new(&db);
        s.exec("INSERT INTO t (id, name, n) VALUES (1, 'a', 0)").unwrap();
        s.exec("INSERT INTO t (id, name, n) VALUES (2, 'b', 0)").unwrap();
        // Force index plans: full scans X-lock every row and simply
        // serialise the two updaters instead of deadlocking.
        db.set_table_stats("t", 1_000_000).unwrap();
        db.set_index_stats("ix_id", 1_000_000).unwrap();

        let db2 = db.clone();
        let h = thread::spawn(move || {
            let mut s2 = Session::new(&db2);
            s2.begin().unwrap();
            s2.exec("UPDATE t SET n = 1 WHERE id = 1").unwrap();
            thread::sleep(Duration::from_millis(100));
            let r = s2.exec("UPDATE t SET n = 1 WHERE id = 2");
            if r.is_ok() {
                s2.commit().unwrap();
            }
            r.map(|_| ())
        });
        let mut s1 = Session::new(&db);
        s1.begin().unwrap();
        thread::sleep(Duration::from_millis(30));
        s1.exec("UPDATE t SET n = 2 WHERE id = 2").unwrap();
        thread::sleep(Duration::from_millis(120));
        let r1 = s1.exec("UPDATE t SET n = 2 WHERE id = 1");
        let r2 = h.join().unwrap();
        // One of the two must have been rolled back (deadlock or timeout).
        assert!(r1.is_err() || r2.is_err());
        if r1.is_err() {
            assert!(!s1.in_txn(), "victim session must have lost its transaction");
        }
    }
}
