//! End-to-end behaviour tests for the DLFM, driven through its RPC API the
//! way a host database drives it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DlfmConfig, DlfmError, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec,
    LinkStatus,
};
use dlrpc::ClientConn;
use filesys::FileSystem;
use minidb::{Session, Value};

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

struct Rig {
    fs: Arc<FileSystem>,
    archive: Arc<ArchiveServer>,
    server: DlfmServer,
}

impl Rig {
    fn new(config: DlfmConfig) -> Rig {
        let fs = Arc::new(FileSystem::new());
        let archive = Arc::new(ArchiveServer::new());
        let server = DlfmServer::start(config, fs.clone(), archive.clone());
        Rig { fs, archive, server }
    }

    fn connect(&self, dbid: i64) -> Conn {
        let conn = self.server.connector().connect().unwrap();
        assert_eq!(call(&conn, DlfmRequest::Connect { dbid }), DlfmResponse::Ok);
        conn
    }

    /// Register the default test group (id 1): full control + recovery.
    fn group_full_recovery(&self, conn: &Conn) {
        let resp = call(
            conn,
            DlfmRequest::RegisterGroup(GroupSpec {
                grp_id: 1,
                dbid: 1,
                table_name: "media".into(),
                column_name: "clip".into(),
                access: AccessControl::Full,
                recovery: true,
            }),
        );
        assert_eq!(resp, DlfmResponse::Ok);
    }

    /// Register group 2: partial control, no recovery.
    fn group_partial_norecovery(&self, conn: &Conn) {
        let resp = call(
            conn,
            DlfmRequest::RegisterGroup(GroupSpec {
                grp_id: 2,
                dbid: 1,
                table_name: "docs".into(),
                column_name: "doc".into(),
                access: AccessControl::Partial,
                recovery: false,
            }),
        );
        assert_eq!(resp, DlfmResponse::Ok);
    }

    fn count(&self, sql: &str) -> i64 {
        let mut s = Session::new(self.server.db());
        s.query_int(sql, &[]).unwrap()
    }

    fn wait_until(&self, what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            if Instant::now() > deadline {
                panic!("timed out waiting for {what}");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn call(conn: &Conn, req: DlfmRequest) -> DlfmResponse {
    conn.call(req).expect("rpc must succeed")
}

fn link(conn: &Conn, xid: i64, rec_id: i64, grp: i64, file: &str) -> DlfmResponse {
    call(
        conn,
        DlfmRequest::LinkFile {
            xid,
            rec_id,
            grp_id: grp,
            filename: file.into(),
            in_backout: false,
        },
    )
}

fn unlink(conn: &Conn, xid: i64, rec_id: i64, grp: i64, file: &str) -> DlfmResponse {
    call(
        conn,
        DlfmRequest::UnlinkFile {
            xid,
            rec_id,
            grp_id: grp,
            filename: file.into(),
            in_backout: false,
        },
    )
}

fn prepare_commit(conn: &Conn, xid: i64) {
    assert_eq!(
        call(conn, DlfmRequest::Prepare { xid }),
        DlfmResponse::Prepared { read_only: false }
    );
    assert_eq!(call(conn, DlfmRequest::Commit { xid }), DlfmResponse::Ok);
}

#[test]
fn link_commit_takes_over_file_and_archives() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/v/ad.mpg", "alice", b"video-bytes").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);

    assert_eq!(link(&conn, 100, 1000, 1, "/v/ad.mpg"), DlfmResponse::Ok);
    // Before commit: file untouched (takeover happens in phase 2).
    assert_eq!(rig.fs.stat("/v/ad.mpg").unwrap().owner, "alice");

    prepare_commit(&conn, 100);

    // Full access control: DLFM owns the file, read-only.
    let meta = rig.fs.stat("/v/ad.mpg").unwrap();
    assert_eq!(meta.owner, "dlfm_admin");
    assert!(!meta.mode.owner_write);

    // The Copy daemon archives the file asynchronously.
    rig.wait_until("archive copy", || rig.archive.contains("/v/ad.mpg", 1000));
    rig.wait_until("archive queue drain", || rig.count("SELECT COUNT(*) FROM dfm_archive") == 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
}

#[test]
fn abort_before_prepare_leaves_no_trace() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 7, 70, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 7 }), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.fs.stat("/f").unwrap().owner, "alice");
    // The file can be linked again afterwards.
    assert_eq!(link(&conn, 8, 80, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 8);
}

#[test]
fn abort_after_prepare_undoes_hardened_work() {
    // The paper's headline trick: the prepare already committed in the
    // local database; abort undoes it with the delayed-update scheme.
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 9, 90, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 9 }),
        DlfmResponse::Prepared { read_only: false }
    );
    // Hardened: the entry is visible in the local database.
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 9 }), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn unlink_commit_releases_file_and_keeps_recovery_entry() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 10, 100, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 10);
    assert_eq!(rig.fs.stat("/f").unwrap().owner, "dlfm_admin");

    assert_eq!(unlink(&conn, 11, 110, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 11);

    // Released back to the original owner with original permissions.
    let meta = rig.fs.stat("/f").unwrap();
    assert_eq!(meta.owner, "alice");
    assert!(meta.mode.owner_write);
    // Recovery group: the unlinked entry is kept for point-in-time restore.
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 2"), 1);
}

#[test]
fn unlink_commit_without_recovery_deletes_entry() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/d/doc.txt", "bob", b"text").unwrap();
    let conn = rig.connect(1);
    rig.group_partial_norecovery(&conn);
    assert_eq!(link(&conn, 20, 200, 2, "/d/doc.txt"), DlfmResponse::Ok);
    prepare_commit(&conn, 20);
    // Partial control: ownership untouched.
    assert_eq!(rig.fs.stat("/d/doc.txt").unwrap().owner, "bob");

    assert_eq!(unlink(&conn, 21, 210, 2, "/d/doc.txt"), DlfmResponse::Ok);
    prepare_commit(&conn, 21);
    // No recovery: the entry is physically deleted in phase 2 of commit.
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
}

#[test]
fn abort_after_prepare_restores_unlinked_entry() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 30, 300, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 30);

    assert_eq!(unlink(&conn, 31, 310, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 31 }),
        DlfmResponse::Prepared { read_only: false }
    );
    // The unlink is hardened locally; now the global transaction aborts.
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 31 }), DlfmResponse::Ok);
    // The entry is back in linked state; the file stays under DB control.
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 2"), 0);
    assert_eq!(rig.fs.stat("/f").unwrap().owner, "dlfm_admin");
}

#[test]
fn double_link_rejected() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 40, 400, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 40);
    match link(&conn, 41, 410, 1, "/f") {
        DlfmResponse::Err(DlfmError::AlreadyLinked(_)) => {}
        other => panic!("expected AlreadyLinked, got {other:?}"),
    }
    let _ = call(&conn, DlfmRequest::Abort { xid: 41 });
}

#[test]
fn link_missing_file_and_missing_group_rejected() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    match link(&conn, 50, 500, 1, "/nope") {
        DlfmResponse::Err(DlfmError::NoSuchFile(_)) => {}
        other => panic!("expected NoSuchFile, got {other:?}"),
    }
    rig.fs.create("/f", "alice", b"x").unwrap();
    match link(&conn, 50, 501, 99, "/f") {
        DlfmResponse::Err(DlfmError::NoSuchGroup(99)) => {}
        other => panic!("expected NoSuchGroup, got {other:?}"),
    }
    let _ = call(&conn, DlfmRequest::Abort { xid: 50 });
}

#[test]
fn savepoint_backout_requests_undo_individual_ops() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    rig.fs.create("/g", "alice", b"y").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);

    // Link /f and /g, then the host rolls back a savepoint covering /g.
    assert_eq!(link(&conn, 60, 600, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(link(&conn, 60, 601, 1, "/g"), DlfmResponse::Ok);
    let resp = call(
        &conn,
        DlfmRequest::LinkFile {
            xid: 60,
            rec_id: 601,
            grp_id: 1,
            filename: "/g".into(),
            in_backout: true,
        },
    );
    assert_eq!(resp, DlfmResponse::Ok);
    prepare_commit(&conn, 60);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    assert_eq!(rig.fs.stat("/g").unwrap().owner, "alice", "backed-out link never takes over");
}

#[test]
fn unlink_backout_restores_linked_state_in_flight() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 70, 700, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 70);

    assert_eq!(unlink(&conn, 71, 710, 1, "/f"), DlfmResponse::Ok);
    let resp = call(
        &conn,
        DlfmRequest::UnlinkFile {
            xid: 71,
            rec_id: 710,
            grp_id: 1,
            filename: "/f".into(),
            in_backout: true,
        },
    );
    assert_eq!(resp, DlfmResponse::Ok);
    prepare_commit(&conn, 71);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
}

#[test]
fn unlink_and_relink_in_same_transaction() {
    // "An important customer requirement where current and old versions of
    // the file are maintained in separate SQL tables" (§3.2).
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    rig.group_partial_norecovery(&conn);
    assert_eq!(link(&conn, 80, 800, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 80);

    // One transaction: unlink from group 1, link to group 2.
    assert_eq!(unlink(&conn, 81, 810, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(link(&conn, 81, 811, 2, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 81);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1 AND grp_id = 2"), 1);
}

#[test]
fn relink_blocked_while_unlink_is_unresolved() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 90, 900, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 90);

    // Transaction 91 unlinks and prepares — indoubt.
    assert_eq!(unlink(&conn, 91, 910, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 91 }),
        DlfmResponse::Prepared { read_only: false }
    );

    // Another connection tries to re-link the file: must be refused until
    // 91's outcome is known.
    let conn2 = rig.connect(1);
    match link(&conn2, 92, 920, 1, "/f") {
        DlfmResponse::Err(DlfmError::FileBusy(_)) => {}
        other => panic!("expected FileBusy, got {other:?}"),
    }
    let _ = call(&conn2, DlfmRequest::Abort { xid: 92 });

    // Resolve 91, then the relink succeeds.
    assert_eq!(call(&conn, DlfmRequest::Commit { xid: 91 }), DlfmResponse::Ok);
    assert_eq!(link(&conn2, 93, 930, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn2, 93);
}

#[test]
fn dlff_blocks_destructive_ops_on_linked_files_and_tokens_gate_reads() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/v/clip.mpg", "alice", b"secret-video").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 100, 1000, 1, "/v/clip.mpg"), DlfmResponse::Ok);
    prepare_commit(&conn, 100);

    let dlff = rig.server.dlff();
    // Referential integrity: delete and rename rejected while linked.
    assert!(dlff.delete("/v/clip.mpg", "alice").is_err());
    assert!(dlff.rename("/v/clip.mpg", "/v/other.mpg", "alice").is_err());
    // Full access control: reads need a host-issued token.
    assert!(dlff.read("/v/clip.mpg", "alice", None).is_err());
    let token = match call(&conn, DlfmRequest::IssueToken { filename: "/v/clip.mpg".into() }) {
        DlfmResponse::Token(t) => t,
        other => panic!("expected token, got {other:?}"),
    };
    assert_eq!(dlff.read("/v/clip.mpg", "alice", Some(&token)).unwrap(), b"secret-video");

    // After unlink, everything is allowed again.
    assert_eq!(unlink(&conn, 101, 1010, 1, "/v/clip.mpg"), DlfmResponse::Ok);
    prepare_commit(&conn, 101);
    assert!(dlff.read("/v/clip.mpg", "bob", None).is_ok());
    dlff.rename("/v/clip.mpg", "/v/renamed.mpg", "alice").unwrap();
}

#[test]
fn the_token_registry_grows_with_links_not_with_reads() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/v/a", "alice", b"a").unwrap();
    rig.fs.create("/v/b", "alice", b"b").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 100, 1000, 1, "/v/a"), DlfmResponse::Ok);
    assert_eq!(link(&conn, 100, 1001, 1, "/v/b"), DlfmResponse::Ok);
    prepare_commit(&conn, 100);
    let dlff = rig.server.dlff();
    assert_eq!(dlff.token_count(), 0, "nobody asked yet");

    let issue = |conn: &Conn, file: &str| match call(
        conn,
        DlfmRequest::IssueToken { filename: file.into() },
    ) {
        DlfmResponse::Token(t) => t,
        other => panic!("expected token, got {other:?}"),
    };
    // A thousand requests for one link, over two connections: one token.
    let other_conn = rig.connect(1);
    let first = issue(&conn, "/v/a");
    for i in 0..1_000 {
        assert_eq!(issue(if i % 2 == 0 { &conn } else { &other_conn }, "/v/a"), first);
    }
    assert_eq!(dlff.token_count(), 1);
    assert_ne!(issue(&conn, "/v/b"), first, "every link has its own token");
    assert_eq!(dlff.token_count(), 2);
    assert!(rig.server.metrics_text().contains("dlfm_dlff_tokens 2"));

    // Unlink revokes; a new link of the same file gets a new token.
    assert_eq!(unlink(&conn, 101, 1010, 1, "/v/a"), DlfmResponse::Ok);
    prepare_commit(&conn, 101);
    assert_eq!(dlff.token_count(), 1);
    assert_eq!(link(&conn, 102, 1020, 1, "/v/a"), DlfmResponse::Ok);
    prepare_commit(&conn, 102);
    let second = issue(&conn, "/v/a");
    assert_ne!(second, first);
    assert!(dlff.read("/v/a", "bob", Some(&first)).is_err(), "the old link's token is dead");
    assert_eq!(dlff.read("/v/a", "bob", Some(&second)).unwrap(), b"a");
    assert_eq!(unlink(&conn, 103, 1030, 1, "/v/a"), DlfmResponse::Ok);
    assert_eq!(unlink(&conn, 103, 1031, 1, "/v/b"), DlfmResponse::Ok);
    prepare_commit(&conn, 103);
    assert_eq!(dlff.token_count(), 0);
}

#[test]
fn upcall_reports_link_state() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/p", "alice", b"x").unwrap();
    rig.fs.create("/q", "alice", b"y").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    rig.group_partial_norecovery(&conn);
    assert_eq!(link(&conn, 110, 1100, 1, "/p"), DlfmResponse::Ok);
    assert_eq!(link(&conn, 110, 1101, 2, "/q"), DlfmResponse::Ok);
    prepare_commit(&conn, 110);

    assert_eq!(
        call(&conn, DlfmRequest::UpcallQuery { filename: "/p".into() }),
        DlfmResponse::LinkState(LinkStatus::LinkedFull)
    );
    assert_eq!(
        call(&conn, DlfmRequest::UpcallQuery { filename: "/q".into() }),
        DlfmResponse::LinkState(LinkStatus::LinkedPartial)
    );
    assert_eq!(
        call(&conn, DlfmRequest::UpcallQuery { filename: "/other".into() }),
        DlfmResponse::LinkState(LinkStatus::NotLinked)
    );
}

#[test]
fn delete_group_unlinks_all_files_asynchronously() {
    let mut config = DlfmConfig::for_tests();
    config.delete_group_batch = 3;
    let rig = Rig::new(config);
    let conn = rig.connect(1);
    rig.group_partial_norecovery(&conn);
    for i in 0..10 {
        let path = format!("/docs/d{i}");
        rig.fs.create(&path, "bob", b"doc").unwrap();
        assert_eq!(link(&conn, 120, 1200 + i, 2, &path), DlfmResponse::Ok);
    }
    prepare_commit(&conn, 120);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 10);

    // Host drops the table: the group is marked deleted; commit returns
    // without waiting for the file unlinking (asynchronous, §3.5).
    assert_eq!(
        call(&conn, DlfmRequest::DeleteGroup { xid: 121, grp_id: 2, rec_id: 1299 }),
        DlfmResponse::Ok
    );
    prepare_commit(&conn, 121);

    rig.wait_until("group files unlinked", || {
        rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1") == 0
    });
    // Group marked deleted (kept until life-span expiry).
    rig.wait_until("group marked deleted", || {
        rig.count("SELECT COUNT(*) FROM dfm_grp WHERE state = 3") == 1
    });
    // Files may be deleted/renamed again.
    rig.wait_until("dlff allows delete", || rig.server.dlff().delete("/docs/d0", "bob").is_ok());
}

#[test]
fn gc_removes_expired_deleted_groups() {
    let mut config = DlfmConfig::for_tests();
    config.group_life_span_micros = 1000; // 1ms
    let rig = Rig::new(config);
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    rig.fs.create("/f", "alice", b"x").unwrap();
    assert_eq!(link(&conn, 130, 1300, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 130);
    rig.wait_until("archived", || rig.archive.contains("/f", 1300));

    assert_eq!(
        call(&conn, DlfmRequest::DeleteGroup { xid: 131, grp_id: 1, rec_id: 1301 }),
        DlfmResponse::Ok
    );
    prepare_commit(&conn, 131);

    // Eventually the GC removes the group metadata, the unlinked file
    // entry, and the archived copy.
    rig.wait_until("gc cleans group", || rig.count("SELECT COUNT(*) FROM dfm_grp") == 0);
    rig.wait_until("gc cleans entries", || rig.count("SELECT COUNT(*) FROM dfm_file") == 0);
    rig.wait_until("gc cleans archive", || !rig.archive.contains("/f", 1300));
}

#[test]
fn chunked_long_transaction_survives_abort() {
    let mut config = DlfmConfig::for_tests();
    config.chunk_commit_every = Some(4);
    let rig = Rig::new(config);
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    for i in 0..11 {
        let path = format!("/load/f{i}");
        rig.fs.create(&path, "alice", b"x").unwrap();
        assert_eq!(link(&conn, 140, 1400 + i, 1, &path), DlfmResponse::Ok);
    }
    // Two chunk commits have committed 8 links already. (Counting rows here
    // would block on the open transaction's locks, so assert via metrics.)
    assert!(rig.server.metrics().snapshot().chunk_commits >= 2);

    // The host aborts: chunked work is undone via phase-2 abort.
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 140 }), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn crash_between_prepare_and_commit_leaves_indoubt_then_resolves() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 150, 1500, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 150 }),
        DlfmResponse::Prepared { read_only: false }
    );

    rig.server.crash();
    rig.server.restart().unwrap();

    // The prepared transaction is indoubt; the host resolver finds it.
    let conn2 = rig.connect(1);
    match call(&conn2, DlfmRequest::ListIndoubt) {
        DlfmResponse::Indoubt(xids) => assert_eq!(xids, vec![150]),
        other => panic!("expected indoubt list, got {other:?}"),
    }
    // Host decides commit.
    assert_eq!(call(&conn2, DlfmRequest::Commit { xid: 150 }), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    assert_eq!(rig.fs.stat("/f").unwrap().owner, "dlfm_admin");
}

#[test]
fn crash_without_prepare_loses_nothing_durable() {
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 160, 1600, 1, "/f"), DlfmResponse::Ok);

    rig.server.crash();
    rig.server.restart().unwrap();

    // The unprepared sub-transaction evaporated (presumed abort).
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    let conn2 = rig.connect(1);
    match call(&conn2, DlfmRequest::ListIndoubt) {
        DlfmResponse::Indoubt(xids) => assert!(xids.is_empty()),
        other => panic!("expected empty indoubt list, got {other:?}"),
    }
    // Groups survive (registered with auto-commit).
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_grp"), 1);
}

#[test]
fn crash_of_inflight_chunked_transaction_aborts_it_on_restart() {
    let mut config = DlfmConfig::for_tests();
    config.chunk_commit_every = Some(2);
    let rig = Rig::new(config);
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    for i in 0..5 {
        let path = format!("/load/f{i}");
        rig.fs.create(&path, "alice", b"x").unwrap();
        assert_eq!(link(&conn, 170, 1700 + i, 1, &path), DlfmResponse::Ok);
    }
    assert!(rig.server.metrics().snapshot().chunk_commits >= 2);
    rig.server.crash();
    rig.server.restart().unwrap();
    // Chunk commits are lazy and nothing forced the log behind them, so
    // the crash took them all; had a prefix survived, restart would have
    // found its in-flight entry and aborted it (`lazy_commits.rs`).
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn backup_flush_then_point_in_time_restore() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);

    // Link /f with content v1 and commit at recovery id 2000.
    rig.fs.create("/f", "alice", b"v1").unwrap();
    assert_eq!(link(&conn, 180, 2000, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 180);

    // Host backup at recovery id 2050: waits for the archive flush.
    assert_eq!(
        call(&conn, DlfmRequest::BeginBackup { backup_id: 1, rec_id: 2050 }),
        DlfmResponse::Ok
    );
    assert_eq!(
        call(&conn, DlfmRequest::EndBackup { backup_id: 1, success: true }),
        DlfmResponse::Ok
    );
    assert!(rig.archive.contains("/f", 2000), "backup must have flushed the copy");

    // After the backup: unlink /f and link /g.
    assert_eq!(unlink(&conn, 181, 2100, 1, "/f"), DlfmResponse::Ok);
    prepare_commit(&conn, 181);
    rig.fs.create("/g", "alice", b"new").unwrap();
    assert_eq!(link(&conn, 182, 2200, 1, "/g"), DlfmResponse::Ok);
    prepare_commit(&conn, 182);
    // The owner even deleted /f afterwards.
    rig.server.dlff().delete("/f", "alice").unwrap();

    // Restore the host database to the backup point (rec_id 2050).
    assert_eq!(call(&conn, DlfmRequest::RestoreTo { rec_id: 2050 }), DlfmResponse::Ok);

    // /f is linked again with its archived content; /g is no longer linked.
    assert_eq!(
        rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1 AND filename = '/f'"),
        1
    );
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE filename = '/g'"), 0);
    let meta = rig.fs.stat("/f").unwrap();
    assert_eq!(meta.owner, "dlfm_admin");
    assert_eq!(rig.fs.read("/f", "dlfm_admin").unwrap(), b"v1");
    assert_eq!(rig.fs.stat("/g").unwrap().owner, "alice", "/g must be released");
}

#[test]
fn reconcile_fixes_both_sides() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    rig.group_partial_norecovery(&conn);
    for (i, f) in ["/a", "/b", "/c"].iter().enumerate() {
        rig.fs.create(f, "bob", b"x").unwrap();
        assert_eq!(link(&conn, 190, 1900 + i as i64, 2, f), DlfmResponse::Ok);
    }
    prepare_commit(&conn, 190);

    // Host's view after a messy restore: it references /a (good), /zz
    // (never linked), and no longer references /b or /c.
    let resp = call(
        &conn,
        DlfmRequest::Reconcile { entries: vec![("/a".into(), 1900), ("/zz".into(), 1950)] },
    );
    match resp {
        DlfmResponse::ReconcileReport { broken_host_refs, orphans_unlinked } => {
            assert_eq!(broken_host_refs, vec![("/zz".to_string(), 1950)]);
            assert_eq!(orphans_unlinked, vec!["/b".to_string(), "/c".to_string()]);
        }
        other => panic!("unexpected {other:?}"),
    }
    // /b and /c were unlinked on the DLFM side.
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
}

#[test]
fn phase2_commit_retries_through_lock_conflicts() {
    // Figure 4: DLFM commit processing acquires locks and can hit
    // timeouts; it retries until it succeeds.
    let rig = Rig::new(DlfmConfig::for_tests());
    rig.fs.create("/f", "alice", b"x").unwrap();
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    assert_eq!(link(&conn, 200, 2000, 1, "/f"), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 200 }),
        DlfmResponse::Prepared { read_only: false }
    );

    // An interloper locks the dfm_xact row phase 2 must delete.
    let db = rig.server.db().clone();
    let blocker = std::thread::spawn(move || {
        let mut s = Session::new(&db);
        s.begin().unwrap();
        s.exec_params("SELECT * FROM dfm_xact WHERE xid = ? FOR UPDATE", &[Value::Int(200)])
            .unwrap();
        std::thread::sleep(Duration::from_millis(900));
        s.rollback();
    });
    std::thread::sleep(Duration::from_millis(50));
    // Commit must eventually succeed despite the conflict (lock timeout is
    // 500 ms in the test config, so at least one retry happens).
    assert_eq!(call(&conn, DlfmRequest::Commit { xid: 200 }), DlfmResponse::Ok);
    blocker.join().unwrap();
    assert!(rig.server.metrics().snapshot().phase2_retries >= 1);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn runstats_overwrite_is_detected_and_reverted() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let db = rig.server.db().clone();
    assert!(db.stats_hand_crafted("dfm_file").unwrap());
    // A user runs RUNSTATS, silently reverting the hand-crafted stats.
    db.runstats("dfm_file").unwrap();
    assert!(!db.stats_hand_crafted("dfm_file").unwrap());
    // The guard (run by the Copy daemon, among others) re-applies them.
    rig.server.shared().ensure_plans();
    assert!(db.stats_hand_crafted("dfm_file").unwrap());
    assert!(rig.server.metrics().snapshot().stats_reapplied >= 1);
}

#[test]
fn abort_after_runstats_on_the_group_table_locks_only_its_own_groups() {
    // §3.2.1: phase 2 must not scan. The Abort's "groups back to normal"
    // UPDATE is bound under the hand-crafted statistics; planned against
    // live ones after a RUNSTATS on the (tiny) Group table it is a table
    // scan that X-locks every group row — and waits behind any of them.
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    rig.group_full_recovery(&conn);
    rig.group_partial_norecovery(&conn);
    let db = rig.server.db().clone();
    assert_eq!(
        call(&conn, DlfmRequest::DeleteGroup { xid: 205, grp_id: 1, rec_id: 2050 }),
        DlfmResponse::Ok
    );
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 205 }),
        DlfmResponse::Prepared { read_only: false }
    );

    // Someone else holds the *other* group's row (locked through the
    // index, before the statistics change) for longer than a lock timeout:
    // an abort that touched it would show up as a wait and a retry.
    let (locked_tx, locked_rx) = std::sync::mpsc::channel();
    let blocker_db = db.clone();
    let blocker = std::thread::spawn(move || {
        let mut s = Session::new(&blocker_db);
        s.begin().unwrap();
        s.exec("SELECT * FROM dfm_grp WHERE grp_id = 2 FOR UPDATE").unwrap();
        locked_tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(800));
        s.rollback();
    });
    locked_rx.recv().unwrap();
    db.runstats("dfm_grp").unwrap();
    let waits = || db.lock_metrics().snapshot().waits;
    let (waits_before, retries_before) = (waits(), rig.server.metrics().snapshot().phase2_retries);
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 205 }), DlfmResponse::Ok);
    assert_eq!(waits(), waits_before, "the abort queued behind a group it does not own");
    assert_eq!(rig.server.metrics().snapshot().phase2_retries, retries_before);
    blocker.join().unwrap();
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_grp WHERE state = 1"), 2);

    // The statistics guard repairs the Group table's statistics too, so a
    // rebind cannot pick the scan either.
    rig.server.shared().ensure_plans();
    assert!(db.stats_hand_crafted("dfm_grp").unwrap());
    let stmts = rig.server.shared().statements();
    assert!(stmts.upd_grp_restore_by_delete_xid.explain(&db).starts_with("IXSCAN"));
    assert!(stmts.sel_grp.explain(&db).starts_with("IXSCAN"));
}

#[test]
fn read_only_transactions_vote_read_only() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    assert_eq!(call(&conn, DlfmRequest::BeginTxn { xid: 210 }), DlfmResponse::Ok);
    assert_eq!(
        call(&conn, DlfmRequest::Prepare { xid: 210 }),
        DlfmResponse::Prepared { read_only: true }
    );
}

#[test]
fn telemetry_rpc_serves_metrics_spans_and_clock() {
    use dlfm::TelemetryKind;
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect(1);
    // Do a little work so the span ring and metrics have something in them.
    rig.group_full_recovery(&conn);
    rig.fs.create("/tele/a.bin", "alice", b"x").unwrap();
    assert_eq!(call(&conn, DlfmRequest::BeginTxn { xid: 900 }), DlfmResponse::Ok);
    assert_eq!(link(&conn, 900, 1, 1, "/tele/a.bin"), DlfmResponse::Ok);
    prepare_commit(&conn, 900);

    let fetch = |kind: TelemetryKind| -> String {
        match call(&conn, DlfmRequest::FetchTelemetry { kind }) {
            DlfmResponse::Telemetry(text) => text,
            other => panic!("expected Telemetry, got {other:?}"),
        }
    };

    let metrics = fetch(TelemetryKind::Metrics);
    assert!(metrics.contains("dlfm_"), "metrics text should have dlfm_ series: {metrics:?}");
    let status = fetch(TelemetryKind::Status);
    assert!(status.contains("dlfm status"), "status text: {status:?}");
    let spans = fetch(TelemetryKind::Spans);
    assert!(!spans.is_empty(), "span dump should be non-empty after work");
    assert!(
        obs::parse_span_dump(&spans).iter().any(|s| s.op.contains("LinkFile")),
        "span dump should include the LinkFile agent span"
    );
    let clock: u64 = fetch(TelemetryKind::Clock).trim().parse().expect("clock is micros");
    assert!(clock > 0);
    // Journal dump renders (may be empty text if nothing recorded, but the
    // RPC itself must succeed).
    let _ = fetch(TelemetryKind::Journal);
}
