//! Host-database behaviour tests: datalink-engine interception, 2PC
//! bookkeeping, indoubt resolution, utilities.

use std::sync::Arc;

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmServer};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb, HostError};
use minidb::Value;

struct Rig {
    fs: Arc<FileSystem>,
    dlfm: DlfmServer,
    host: HostDb,
}

fn rig() -> Rig {
    let fs = Arc::new(FileSystem::new());
    let dlfm =
        DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", dlfm.connector());
    Rig { fs, dlfm, host }
}

fn with_table(r: &Rig) -> hostdb::HostSession {
    let mut s = r.host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    s
}

#[test]
fn recovery_ids_are_monotonic_and_carry_the_dbid() {
    let r = rig();
    let a = r.host.next_rec_id();
    let b = r.host.next_rec_id();
    let c = r.host.next_rec_id();
    assert!(a < b && b < c);
    assert_eq!(a >> 48, r.host.dbid());
    assert!(r.host.current_rec_id() >= c);
}

#[test]
fn xids_are_monotonic() {
    let r = rig();
    let a = r.host.next_xid();
    let b = r.host.next_xid();
    assert!(b > a);
}

#[test]
fn datalink_column_registration_round_trips() {
    let r = rig();
    let _s = with_table(&r);
    let info = r.host.dl_column("docs", "doc").expect("registered");
    assert_eq!(info.access, AccessControl::Full);
    assert!(!info.recovery);
    assert!(r.host.dl_column("docs", "id").is_none());
    assert!(r.host.dl_column("nope", "doc").is_none());
    assert_eq!(r.host.dl_columns_of("docs").len(), 1);
}

#[test]
fn bad_urls_are_rejected_before_any_side_effect() {
    let r = rig();
    let mut s = with_table(&r);
    for bad in ["http://x/y", "dlfs://nopath", "dlfs:///p", "dlfs://unknown_server/p"] {
        let e = s
            .exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str(bad)])
            .unwrap_err();
        match bad {
            "dlfs://unknown_server/p" => assert!(matches!(e, HostError::Usage(_)), "{e:?}"),
            _ => assert!(matches!(e, HostError::Url(_)), "{e:?}"),
        }
    }
    assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 0);
    // The DLFM saw nothing.
    let mut dl = minidb::Session::new(r.dlfm.db());
    assert_eq!(dl.query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap(), 0);
}

#[test]
fn null_datalink_values_do_not_touch_the_dlfm() {
    let r = rig();
    let mut s = with_table(&r);
    s.exec("INSERT INTO docs (id, doc) VALUES (1, NULL)").unwrap();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 1);
    let mut dl = minidb::Session::new(r.dlfm.db());
    assert_eq!(dl.query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap(), 0);
    // Updating from NULL to a URL links; back to NULL unlinks.
    r.fs.create("/d1", "u", b"x").unwrap();
    s.exec_params("UPDATE docs SET doc = ? WHERE id = 1", &[Value::str("dlfs://fs1/d1")]).unwrap();
    assert_eq!(r.fs.stat("/d1").unwrap().owner, "dlfm_admin");
    s.exec("UPDATE docs SET doc = NULL WHERE id = 1").unwrap();
    assert_eq!(r.fs.stat("/d1").unwrap().owner, "u");
}

#[test]
fn sys_datalinks_bookkeeping_tracks_linked_files() {
    let r = rig();
    let mut s = with_table(&r);
    for i in 0..3 {
        let p = format!("/f{i}");
        r.fs.create(&p, "u", b"x").unwrap();
        s.exec_params(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            &[Value::Int(i), Value::str(format!("dlfs://fs1{p}"))],
        )
        .unwrap();
    }
    assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 3);
    s.exec("DELETE FROM docs WHERE id = 1").unwrap();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 2);
    let rows = s.query("SELECT filename FROM sys_datalinks ORDER BY filename", &[]).unwrap();
    assert_eq!(rows[0][0].as_str().unwrap(), "/f0");
    assert_eq!(rows[1][0].as_str().unwrap(), "/f2");
}

#[test]
fn coordinator_log_records_commit_decisions() {
    let r = rig();
    let mut s = with_table(&r);
    r.fs.create("/f", "u", b"x").unwrap();
    s.begin().unwrap();
    let xid = s.xid().unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/f")])
        .unwrap();
    assert!(!r.host.coord_log().committed(xid, "fs1"), "no decision before commit");
    s.commit().unwrap();
    assert!(r.host.coord_log().committed(xid, "fs1"));
    assert!(r.host.coord_log().unfinished_commits().is_empty(), "End record written");
}

#[test]
fn local_only_transactions_skip_two_phase_commit() {
    let r = rig();
    let mut s = with_table(&r);
    s.exec("CREATE TABLE plain (k BIGINT)").unwrap();
    s.begin().unwrap();
    s.exec("INSERT INTO plain (k) VALUES (1)").unwrap();
    s.commit().unwrap();
    assert_eq!(r.host.metrics().twopc_commits.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert_eq!(r.host.coord_log().last_lsn(), 0);
}

/// A statement on a table with no DATALINK column runs straight in minidb;
/// one that fails half-way still leaves none of its rows changed, and the
/// host transaction goes on.
#[test]
fn a_failed_statement_on_a_plain_table_leaves_no_rows_changed() {
    let r = rig();
    let mut s = r.host.session();
    s.exec("CREATE TABLE plain (id BIGINT NOT NULL, n INTEGER)").unwrap();
    s.exec("CREATE UNIQUE INDEX ix_plain ON plain (id)").unwrap();
    s.exec("INSERT INTO plain (id, n) VALUES (1, 10)").unwrap();
    s.exec("INSERT INTO plain (id, n) VALUES (2, 20)").unwrap();
    let ids =
        |s: &mut hostdb::HostSession| s.query("SELECT id FROM plain ORDER BY n", &[]).unwrap();
    s.begin().unwrap();
    let err = s.exec("UPDATE plain SET id = 3 WHERE id <= 2").unwrap_err();
    assert!(matches!(err, HostError::Db(minidb::DbError::UniqueViolation { .. })), "{err:?}");
    assert!(s.xid().is_some(), "the transaction stays open");
    assert_eq!(ids(&mut s), [[Value::Int(1)], [Value::Int(2)]]);
    s.commit().unwrap();
    assert_eq!(ids(&mut s), [[Value::Int(1)], [Value::Int(2)]]);
}

#[test]
fn read_only_dlfm_participation_skips_phase_two() {
    // A transaction that touched the DLFM connection but did no datalink
    // work votes read-only and needs no commit decision.
    let r = rig();
    let mut s = with_table(&r);
    r.fs.create("/f", "u", b"x").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/f")])
        .unwrap();
    let log_len = r.host.coord_log().last_lsn();
    // Token issuance talks to the DLFM but is not transactional work.
    s.begin().unwrap();
    let _ = s.read_token("dlfs://fs1/f").unwrap();
    s.commit().unwrap();
    assert_eq!(r.host.coord_log().last_lsn(), log_len, "no new commit decision expected");
}

#[test]
fn nested_savepoints_backout_in_order() {
    let r = rig();
    let mut s = with_table(&r);
    for p in ["/a", "/b", "/c"] {
        r.fs.create(p, "u", b"x").unwrap();
    }
    s.begin().unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/a")])
        .unwrap();
    let sp1 = s.savepoint().unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (2, ?)", &[Value::str("dlfs://fs1/b")])
        .unwrap();
    let sp2 = s.savepoint().unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (3, ?)", &[Value::str("dlfs://fs1/c")])
        .unwrap();
    s.rollback_to(&sp2).unwrap();
    s.rollback_to(&sp1).unwrap();
    s.commit().unwrap();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap(), 1);
    assert_eq!(r.fs.stat("/a").unwrap().owner, "dlfm_admin");
    assert_eq!(r.fs.stat("/b").unwrap().owner, "u");
    assert_eq!(r.fs.stat("/c").unwrap().owner, "u");
}

#[test]
fn drop_table_requires_helper_and_cleans_bookkeeping() {
    let r = rig();
    let mut s = with_table(&r);
    r.fs.create("/f", "u", b"x").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/f")])
        .unwrap();
    // Raw SQL DROP is refused for datalink tables.
    let e = s.exec("DROP TABLE docs").unwrap_err();
    assert!(matches!(e, HostError::Usage(_)));
    s.drop_table("docs").unwrap();
    assert!(r.host.dl_columns_of("docs").is_empty());
    assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_dlcols", &[]).unwrap(), 0);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 0);
}

#[test]
fn restart_reloads_datalink_metadata_from_sys_tables() {
    let r = rig();
    let mut s = with_table(&r);
    r.fs.create("/f", "u", b"x").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/f")])
        .unwrap();
    let grp_before = r.host.dl_column("docs", "doc").unwrap().grp_id;
    drop(s);
    r.host.crash();
    r.host.restart().unwrap();
    let info = r.host.dl_column("docs", "doc").expect("metadata reloaded");
    assert_eq!(info.grp_id, grp_before);
    // New links still work after restart (sequences resumed).
    let mut s = r.host.session();
    r.fs.create("/g", "u", b"x").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (2, ?)", &[Value::str("dlfs://fs1/g")])
        .unwrap();
    assert_eq!(r.fs.stat("/g").unwrap().owner, "dlfm_admin");
}

#[test]
fn resolver_daemon_cleans_up_abandoned_indoubts() {
    let r = rig();
    let s = with_table(&r);
    r.fs.create("/f", "u", b"x").unwrap();
    drop(s);
    // Manufacture an indoubt: drive prepare directly without a decision.
    let conn = r.dlfm.connector().connect().unwrap();
    conn.call(dlfm::DlfmRequest::Connect { dbid: r.host.dbid() }).unwrap();
    let xid = r.host.next_xid();
    conn.call(dlfm::DlfmRequest::LinkFile {
        xid,
        rec_id: r.host.next_rec_id(),
        grp_id: r.host.dl_column("docs", "doc").unwrap().grp_id,
        filename: "/f".into(),
        in_backout: false,
    })
    .unwrap();
    conn.call(dlfm::DlfmRequest::Prepare { xid }).unwrap();

    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = r.host.spawn_resolver(std::time::Duration::from_millis(20), shutdown.clone());
    // The daemon resolves it by presumed abort.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut dl = minidb::Session::new(r.dlfm.db());
        if dl.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap() == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "resolver never ran");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().unwrap();
    let mut dl = minidb::Session::new(r.dlfm.db());
    assert_eq!(
        dl.query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap(),
        0,
        "presumed abort removes the prepared link"
    );
}

#[test]
fn update_unlinks_old_before_linking_new() {
    let r = rig();
    let mut s = with_table(&r);
    r.fs.create("/v1", "u", b"1").unwrap();
    r.fs.create("/v2", "u", b"2").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/v1")])
        .unwrap();
    s.exec_params("UPDATE docs SET doc = ? WHERE id = 1", &[Value::str("dlfs://fs1/v2")]).unwrap();
    // Same-transaction unlink+relink of the SAME file also works (the
    // "current and old versions in separate SQL tables" requirement).
    s.exec_params("UPDATE docs SET doc = ? WHERE id = 1", &[Value::str("dlfs://fs1/v2")]).unwrap();
    assert_eq!(r.fs.stat("/v1").unwrap().owner, "u");
    assert_eq!(r.fs.stat("/v2").unwrap().owner, "dlfm_admin");
}
