//! Bound statements across catalog changes.
//!
//! A statement is resolved against the catalog once (BIND) and then run by
//! reference: it carries column ordinals, index ids and a pinned plan. These
//! tests hold a static `Prepared` and a cached text statement across every
//! event that can change what those mean — DROP + CREATE with the columns
//! reordered, CREATE INDEX, crash + restart, restore from an image — and
//! check that each run returns the right rows under the right header, never
//! through a stale ordinal or a dropped index id. They also pin the one
//! difference between the two kinds (a text statement replans when the
//! statistics move, a `Prepared` does not until `rebind`), the cache bound,
//! and that text, AST and prepared entry give identical results.

use minidb::bind::STMT_CACHE_CAPACITY;
use minidb::sql::parser::parse;
use minidb::{Database, DbConfig, DbError, ExecResult, Session, Value};

const SEL: &str = "SELECT name, n FROM t WHERE id = ?";

fn metric(db: &Database, series: &str) -> u64 {
    let text = db.metrics_text();
    let line = text
        .lines()
        .find(|l| l.strip_prefix(series).is_some_and(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("no series {series} in\n{text}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

fn db_with_t() -> Database {
    let db = Database::new(DbConfig::for_tests());
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, n INTEGER)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    for i in 1..=3 {
        s.exec_params(
            "INSERT INTO t (id, name, n) VALUES (?, ?, ?)",
            &[Value::Int(i), Value::str(format!("f{i}")), Value::Int(i * 10)],
        )
        .unwrap();
    }
    db.set_table_stats("t", 1_000_000).unwrap();
    db.set_index_stats("ix_id", 1_000_000).unwrap();
    db
}

/// Run `SEL` for id 2 through the held `Prepared` and as text; both must
/// return exactly `want` under the header `name, n`.
fn check_both(db: &Database, held: &minidb::Prepared, want: &[Vec<Value>]) {
    let mut s = Session::new(db);
    for (entry, got) in [
        ("prepared", s.exec_prepared(held, &[Value::Int(2)])),
        ("text", s.exec_params(SEL, &[Value::Int(2)])),
    ] {
        match got.unwrap_or_else(|e| panic!("{entry}: {e}")) {
            ExecResult::Rows { columns, rows } => {
                assert_eq!(&*columns, ["name".to_string(), "n".to_string()], "{entry}");
                assert_eq!(rows, want, "{entry}");
            }
            other => panic!("{entry}: {other:?}"),
        }
    }
}

fn f2() -> Vec<Vec<Value>> {
    vec![vec![Value::str("f2"), Value::Int(20)]]
}

#[test]
fn survive_drop_and_recreate_with_columns_reordered() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    check_both(&db, &held, &f2());
    assert!(held.explain(&db).starts_with("IXSCAN"));

    let mut s = Session::new(&db);
    s.exec("DROP TABLE t").unwrap();
    // Same names, different ordinals, different types at the old ordinals,
    // new table and index ids.
    s.exec("CREATE TABLE t (n INTEGER, pad VARCHAR, name VARCHAR, id BIGINT NOT NULL)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("INSERT INTO t (id, name, n, pad) VALUES (2, 'second', 22, 'x')").unwrap();
    let rebinds = metric(&db, "minidb_stmt_rebinds_total{cause=\"ddl\"}");
    check_both(&db, &held, &[vec![Value::str("second"), Value::Int(22)]]);
    // Each of the two statements rebound exactly once, then ran bound.
    assert_eq!(metric(&db, "minidb_stmt_rebinds_total{cause=\"ddl\"}"), rebinds + 2);
    check_both(&db, &held, &[vec![Value::str("second"), Value::Int(22)]]);
    assert_eq!(metric(&db, "minidb_stmt_rebinds_total{cause=\"ddl\"}"), rebinds + 2);
}

#[test]
fn dml_statements_survive_drop_and_recreate() {
    // The latent bug a held statement used to hit: index ids of the dropped
    // table ("no tree for index#1").
    let db = db_with_t();
    let ins = db.prepare("INSERT INTO t (id, name, n) VALUES (?, ?, ?)").unwrap();
    let upd = db.prepare("UPDATE t SET n = n + 1 WHERE id = ?").unwrap();
    let del = db.prepare("DELETE FROM t WHERE id = ?").unwrap();
    let mut s = Session::new(&db);
    s.exec("DROP TABLE t").unwrap();
    s.exec("CREATE TABLE t (name VARCHAR, id BIGINT NOT NULL, n INTEGER)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    let row = [Value::Int(7), Value::str("seven"), Value::Int(70)];
    assert_eq!(s.exec_prepared(&ins, &row).unwrap(), ExecResult::Count(1));
    assert!(matches!(s.exec_prepared(&ins, &row), Err(DbError::UniqueViolation { .. })));
    assert_eq!(s.exec_prepared(&upd, &[Value::Int(7)]).unwrap(), ExecResult::Count(1));
    assert_eq!(
        s.query("SELECT * FROM t", &[]).unwrap(),
        vec![vec![Value::str("seven"), Value::Int(7), Value::Int(71)]]
    );
    assert_eq!(s.exec_prepared(&del, &[Value::Int(7)]).unwrap(), ExecResult::Count(1));
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 0);
}

#[test]
fn a_gone_table_or_column_is_a_clean_error() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    let mut s = Session::new(&db);
    s.exec_params(SEL, &[Value::Int(2)]).unwrap();
    s.exec("DROP TABLE t").unwrap();
    for _ in 0..2 {
        assert!(matches!(s.exec_prepared(&held, &[Value::Int(2)]), Err(DbError::NotFound(_))));
        assert!(matches!(s.exec_params(SEL, &[Value::Int(2)]), Err(DbError::NotFound(_))));
    }
    // Back, but without the column `n` the statement names.
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR)").unwrap();
    assert!(matches!(s.exec_prepared(&held, &[Value::Int(2)]), Err(DbError::Plan(_))));
    assert!(matches!(s.exec_params(SEL, &[Value::Int(2)]), Err(DbError::Plan(_))));
    // And once the table fits again the same handles work again.
    s.exec("DROP TABLE t").unwrap();
    s.exec("CREATE TABLE t (n INTEGER, name VARCHAR, id BIGINT NOT NULL)").unwrap();
    s.exec("INSERT INTO t (id, name, n) VALUES (2, 'f2', 20)").unwrap();
    check_both(&db, &held, &f2());
}

#[test]
fn create_index_after_bind_is_picked_up() {
    let db = Database::new(DbConfig::for_tests());
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, n INTEGER)").unwrap();
    for i in 1..=3 {
        s.exec_params(
            "INSERT INTO t (id, name, n) VALUES (?, ?, ?)",
            &[Value::Int(i), Value::str(format!("f{i}")), Value::Int(i * 10)],
        )
        .unwrap();
    }
    db.set_table_stats("t", 1_000_000).unwrap();
    let held = db.prepare(SEL).unwrap();
    assert!(held.explain(&db).starts_with("TBSCAN"), "no index exists yet");
    check_both(&db, &held, &f2());

    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    db.set_index_stats("ix_id", 1_000_000).unwrap();
    check_both(&db, &held, &f2());
    // The table's definition changed, so both bindings were redone — and
    // the new index is what they now use.
    assert!(held.explain(&db).starts_with("IXSCAN"), "{}", held.explain(&db));
    assert!(db.bind_cached(SEL).unwrap().explain(&db).starts_with("IXSCAN"));
    // The insert text bound (and cached) before the index maintains it.
    let ins = "INSERT INTO t (id, name, n) VALUES (?, ?, ?)";
    s.exec_params(ins, &[Value::Int(9), Value::str("f9"), Value::Int(90)]).unwrap();
    assert!(matches!(
        s.exec_params(ins, &[Value::Int(9), Value::str("dup"), Value::Int(0)]),
        Err(DbError::UniqueViolation { .. })
    ));
}

#[test]
fn unrelated_ddl_leaves_a_pinned_plan_pinned() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    // RUNSTATS makes a fresh plan a table scan; DDL on another table makes
    // every binding revalidate. The static statement must come out of that
    // with the plan it was bound with.
    db.runstats("t").unwrap();
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE other (x BIGINT)").unwrap();
    s.exec("DROP TABLE other").unwrap();
    let rebinds = metric(&db, "minidb_stmt_rebinds_total{cause=\"ddl\"}");
    check_both(&db, &held, &f2());
    assert!(held.explain(&db).starts_with("IXSCAN"), "{}", held.explain(&db));
    assert_eq!(metric(&db, "minidb_stmt_rebinds_total{cause=\"ddl\"}"), rebinds);
}

#[test]
fn survive_crash_and_restart() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    check_both(&db, &held, &f2());
    let mut s = Session::new(&db);

    // Without a checkpoint: the catalog is rebuilt from the log.
    db.crash();
    assert!(matches!(s.exec_prepared(&held, &[Value::Int(2)]), Err(DbError::Offline)));
    assert!(matches!(s.exec_params(SEL, &[Value::Int(2)]), Err(DbError::Offline)));
    db.restart().unwrap();
    check_both(&db, &held, &f2());

    // With one: the catalog comes back from the checkpoint image, the
    // table dropped and recreated after it from the log tail.
    db.checkpoint();
    s.exec("DROP TABLE t").unwrap();
    s.exec("CREATE TABLE t (n INTEGER, name VARCHAR, id BIGINT NOT NULL)").unwrap();
    s.exec("INSERT INTO t (id, name, n) VALUES (2, 'again', 2)").unwrap();
    db.crash();
    db.restart().unwrap();
    check_both(&db, &held, &[vec![Value::str("again"), Value::Int(2)]]);
}

#[test]
fn survive_restore_image() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    let image = db.backup_image();
    let mut s = Session::new(&db);
    s.exec("DROP TABLE t").unwrap();
    s.exec("CREATE TABLE t (n INTEGER, id BIGINT NOT NULL, name VARCHAR)").unwrap();
    s.exec("INSERT INTO t (id, name, n) VALUES (2, 'newer', 99)").unwrap();
    check_both(&db, &held, &[vec![Value::str("newer"), Value::Int(99)]]);
    // Back to the image: the old layout, the old rows.
    db.restore_image(&image);
    check_both(&db, &held, &f2());
}

#[test]
fn text_replans_when_statistics_move_and_a_prepared_does_not() {
    let db = db_with_t();
    let held = db.prepare(SEL).unwrap();
    let mut s = Session::new(&db);
    s.exec_params(SEL, &[Value::Int(2)]).unwrap();
    let text = db.bind_cached(SEL).unwrap();
    assert!(held.explain(&db).starts_with("IXSCAN"));
    assert!(text.explain(&db).starts_with("IXSCAN"));

    // RUNSTATS on a three-row table: the optimizer now prefers the scan.
    db.runstats("t").unwrap();
    assert!(db.plan_is_stale(&held));
    let replans = metric(&db, "minidb_stmt_rebinds_total{cause=\"stats\"}");
    check_both(&db, &held, &f2());
    assert_eq!(metric(&db, "minidb_stmt_rebinds_total{cause=\"stats\"}"), replans + 1);
    assert!(text.explain(&db).starts_with("TBSCAN"), "{}", text.explain(&db));
    assert!(held.explain(&db).starts_with("IXSCAN"), "a static plan is pinned");

    // Hand-crafting the statistics back moves the text statement again...
    db.set_table_stats("t", 1_000_000).unwrap();
    db.set_index_stats("ix_id", 1_000_000).unwrap();
    check_both(&db, &held, &f2());
    assert!(text.explain(&db).starts_with("IXSCAN"));
    // ...and only `rebind` moves the static one.
    db.runstats("t").unwrap();
    check_both(&db, &held, &f2());
    assert!(held.explain(&db).starts_with("IXSCAN"));
    db.rebind(&held).unwrap();
    assert!(held.explain(&db).starts_with("TBSCAN"));
    assert!(!db.plan_is_stale(&held));
    check_both(&db, &held, &f2());
}

#[test]
fn statement_cache_is_bounded_and_counts_hits() {
    let db = db_with_t();
    let mut s = Session::new(&db);
    s.begin().unwrap();
    for i in 0..10_000 {
        // Literals inlined: every text is distinct.
        let rows = s.query(&format!("SELECT n FROM t WHERE id = {i}"), &[]).unwrap();
        assert_eq!(rows.len(), usize::from((1..=3).contains(&i)));
        if i % 1000 == 0 {
            assert!(metric(&db, "minidb_stmt_cache_entries") <= STMT_CACHE_CAPACITY as u64);
        }
    }
    s.commit().unwrap();
    assert_eq!(metric(&db, "minidb_stmt_cache_entries"), STMT_CACHE_CAPACITY as u64);

    let (binds, hits) =
        (metric(&db, "minidb_stmt_binds_total"), metric(&db, "minidb_stmt_cache_hits_total"));
    for i in 0..50 {
        s.exec_params(SEL, &[Value::Int(i % 3 + 1)]).unwrap();
    }
    assert_eq!(metric(&db, "minidb_stmt_binds_total"), binds + 1, "one bind, then hits");
    assert_eq!(metric(&db, "minidb_stmt_cache_hits_total"), hits + 49);
}

/// Every statement shape the `session.rs` and `mvcc.rs` tests use, as
/// `(sql, params)`; `prelude` statements set the tables up.
fn script() -> Vec<(&'static str, Vec<Value>)> {
    let none = Vec::new;
    vec![
        ("INSERT INTO t (id, name, n) VALUES (1, 'a', 10)", none()),
        ("INSERT INTO t VALUES (2, 'b', 20)", none()),
        ("INSERT INTO t (id, name, n) VALUES (?, ?, ?)", vec![3.into(), "c".into(), 30.into()]),
        ("INSERT INTO t (n, id) VALUES (?, ?)", vec![40.into(), 4.into()]),
        ("INSERT INTO t (id, name, n) VALUES (1, 'dup', 0)", none()),
        ("INSERT INTO t (name, n) VALUES ('a', 1)", none()),
        ("INSERT INTO t (id, name, n) VALUES ('str', 'a', 1)", none()),
        ("INSERT INTO t (id, name) VALUES (1, 2, 3)", none()),
        ("INSERT INTO u (id, name) VALUES (2, 'b')", none()),
        ("INSERT INTO u (id, name) VALUES (3, 'c')", none()),
        ("SELECT * FROM t", none()),
        ("SELECT name FROM t WHERE id = 1", none()),
        ("SELECT name, n FROM t WHERE id = ?", vec![2.into()]),
        ("SELECT id FROM t ORDER BY name DESC", none()),
        ("SELECT id, n + 1 FROM t WHERE n >= 20 AND NOT id = 3 ORDER BY id", none()),
        ("SELECT id FROM t WHERE name IS NULL OR n < 15 ORDER BY id", none()),
        ("SELECT id FROM t WHERE name IS NOT NULL AND id <= ? ORDER BY n DESC", vec![3.into()]),
        ("SELECT COUNT(*) FROM t", none()),
        ("SELECT COUNT(*), MIN(n), MAX(n), SUM(n), COUNT(name) FROM t WHERE n > 10", none()),
        ("SELECT MIN(n), SUM(n) FROM t WHERE id > 100", none()),
        ("SELECT name FROM t EXCEPT SELECT name FROM u", none()),
        ("SELECT * FROM t WHERE id = 1 FOR UPDATE", none()),
        ("SELECT * FROM t WHERE id = 2 FOR SHARE", none()),
        ("SELECT nope FROM t", none()),
        ("SELECT id FROM t WHERE nope = 1", none()),
        ("SELECT id FROM missing", none()),
        ("SELECT id FROM t WHERE id = ?", none()),
        ("UPDATE t SET n = 99 WHERE id >= 3", none()),
        ("UPDATE t SET n = n + 1, name = ? WHERE id = ?", vec!["z".into(), 1.into()]),
        ("UPDATE t SET id = 2 WHERE id = 1", none()),
        ("UPDATE t SET nope = 1", none()),
        ("SELECT * FROM t ORDER BY id", none()),
        ("DELETE FROM t WHERE n = 99", none()),
        ("DELETE FROM t WHERE id = ?", vec![2.into()]),
        ("SELECT * FROM t ORDER BY id", none()),
        ("EXPLAIN SELECT * FROM t WHERE id = 1", none()),
        ("EXPLAIN UPDATE t SET n = 0 WHERE id >= 1 AND id < 3", none()),
        ("EXPLAIN INSERT INTO t (id, name, n) VALUES (9, 'x', 0)", none()),
        ("EXPLAIN CREATE TABLE z (id BIGINT)", none()),
        ("DELETE FROM t", none()),
        ("SELECT COUNT(*) FROM t", none()),
    ]
}

/// Run the script against a fresh database through one entry point; errors
/// are part of the transcript.
fn transcript(
    index_plans: bool,
    in_txn: bool,
    mut run: impl FnMut(&Database, &mut Session, &str, &[Value]) -> Result<ExecResult, DbError>,
) -> Vec<String> {
    let db = Database::new(DbConfig::for_tests());
    let mut s = Session::new(&db);
    s.exec("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, n INTEGER)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_id ON t (id)").unwrap();
    s.exec("CREATE INDEX ix_name ON t (name)").unwrap();
    s.exec("CREATE TABLE u (id BIGINT, name VARCHAR)").unwrap();
    if index_plans {
        db.set_table_stats("t", 1_000_000).unwrap();
        db.set_index_stats("ix_id", 1_000_000).unwrap();
        db.set_index_stats("ix_name", 1_000_000).unwrap();
    }
    if in_txn {
        s.begin().unwrap();
    }
    let out = script()
        .iter()
        .map(|(sql, params)| format!("{sql} -> {:?}", run(&db, &mut s, sql, params)))
        .collect();
    if in_txn {
        s.commit().unwrap();
    }
    out
}

#[test]
fn text_ast_and_prepared_entry_give_identical_results() {
    for index_plans in [false, true] {
        for in_txn in [false, true] {
            let text =
                transcript(index_plans, in_txn, |_, s, sql, params| s.exec_params(sql, params));
            let ast = transcript(index_plans, in_txn, |_, s, sql, params| {
                s.exec_ast(&parse(sql)?, params)
            });
            let prepared = transcript(index_plans, in_txn, |db, s, sql, params| {
                s.exec_prepared(&db.prepare(sql)?, params)
            });
            // Text run twice over: the second pass of each statement is a
            // cache hit on a binding made before the data changed.
            let cached = transcript(index_plans, in_txn, |db, s, sql, params| {
                db.bind_cached(sql)?;
                s.exec_params(sql, params)
            });
            assert_eq!(text.len(), script().len());
            for (((t, a), p), c) in text.iter().zip(&ast).zip(&prepared).zip(&cached) {
                assert_eq!(t, a, "text vs AST (index plans {index_plans}, txn {in_txn})");
                assert_eq!(t, p, "text vs prepared (index plans {index_plans}, txn {in_txn})");
                assert_eq!(t, c, "text vs cached (index plans {index_plans}, txn {in_txn})");
            }
            // The transcript is not vacuous: rows came back, and the
            // mistakes in it were caught.
            assert!(text.iter().any(|l| l.contains("Str(\"z\")")), "{text:#?}");
            assert!(text.iter().any(|l| l.contains("UniqueViolation")));
            assert_eq!(text.iter().filter(|l| l.contains("Err(Plan")).count(), 5, "{text:#?}");
            let scans = text.iter().filter(|l| l.contains("TBSCAN")).count();
            assert_eq!(scans == 0, index_plans, "{text:#?}");
        }
    }
}
