//! Edge-case tests for the DLFM: daemons, retention, tokens, upcalls under
//! contention, and group lifecycle corners.

use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DlfmConfig, DlfmError, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec,
};
use dlrpc::ClientConn;
use filesys::FileSystem;
use minidb::Session;

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

struct Rig {
    fs: Arc<FileSystem>,
    archive: Arc<ArchiveServer>,
    server: DlfmServer,
}

fn rig_with(config: DlfmConfig) -> Rig {
    let fs = Arc::new(FileSystem::new());
    let archive = Arc::new(ArchiveServer::new());
    let server = DlfmServer::start(config, fs.clone(), archive.clone());
    Rig { fs, archive, server }
}

fn rig() -> Rig {
    rig_with(DlfmConfig::for_tests())
}

fn connect(r: &Rig) -> Conn {
    let c = r.server.connector().connect().unwrap();
    c.call(DlfmRequest::Connect { dbid: 1 }).unwrap();
    c
}

fn register(c: &Conn, grp_id: i64, access: AccessControl, recovery: bool) {
    let resp = c
        .call(DlfmRequest::RegisterGroup(GroupSpec {
            grp_id,
            dbid: 1,
            table_name: "t".into(),
            column_name: "c".into(),
            access,
            recovery,
        }))
        .unwrap();
    assert_eq!(resp, DlfmResponse::Ok);
}

fn link_commit(r: &Rig, c: &Conn, xid: i64, grp: i64, path: &str) {
    r.fs.create(path, "u", b"data").unwrap();
    let resp = c
        .call(DlfmRequest::LinkFile {
            xid,
            rec_id: xid * 100,
            grp_id: grp,
            filename: path.into(),
            in_backout: false,
        })
        .unwrap();
    assert_eq!(resp, DlfmResponse::Ok, "link {path}");
    c.call(DlfmRequest::Prepare { xid }).unwrap();
    c.call(DlfmRequest::Commit { xid }).unwrap();
}

fn count(r: &Rig, sql: &str) -> i64 {
    Session::new(r.server.db()).query_int(sql, &[]).unwrap()
}

fn wait(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn group_registration_is_idempotent() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Full, true);
    register(&c, 1, AccessControl::Full, true);
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_grp"), 1);
}

#[test]
fn token_for_partial_access_file_is_empty() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    link_commit(&r, &c, 10, 1, "/p");
    match c.call(DlfmRequest::IssueToken { filename: "/p".into() }).unwrap() {
        DlfmResponse::Token(t) => assert!(t.is_empty(), "partial control needs no token"),
        other => panic!("unexpected {other:?}"),
    }
    // Unlinked file: token request is an error.
    match c.call(DlfmRequest::IssueToken { filename: "/absent".into() }).unwrap() {
        DlfmResponse::Err(DlfmError::NotLinked(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn upcall_is_conservative_while_link_is_in_flight() {
    // The linking transaction holds the entry's row lock; the upcall cannot
    // read committed state and must deny-by-default (report "linked").
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    r.fs.create("/f", "u", b"x").unwrap();
    c.call(DlfmRequest::LinkFile {
        xid: 20,
        rec_id: 2000,
        grp_id: 1,
        filename: "/f".into(),
        in_backout: false,
    })
    .unwrap();
    // In-flight: the DLFF would be told "linked" (conservative).
    let dlff = r.server.dlff();
    assert!(dlff.delete("/f", "u").is_err(), "in-flight link must already protect the file");
    c.call(DlfmRequest::Abort { xid: 20 }).unwrap();
    // After abort the file is free again.
    dlff.delete("/f", "u").unwrap();
}

#[test]
fn delete_group_abort_restores_group_and_files() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    link_commit(&r, &c, 30, 1, "/a");
    assert_eq!(
        c.call(DlfmRequest::DeleteGroup { xid: 31, grp_id: 1, rec_id: 3100 }).unwrap(),
        DlfmResponse::Ok
    );
    c.call(DlfmRequest::Prepare { xid: 31 }).unwrap();
    // Global abort after prepare: group back to normal, nothing unlinked.
    c.call(DlfmRequest::Abort { xid: 31 }).unwrap();
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_grp WHERE state = 1"), 1);
    std::thread::sleep(Duration::from_millis(50)); // daemon must NOT act
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    // The group is usable again.
    link_commit(&r, &c, 32, 1, "/b");
}

#[test]
fn linking_into_deleted_group_is_refused() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    assert_eq!(
        c.call(DlfmRequest::DeleteGroup { xid: 40, grp_id: 1, rec_id: 4000 }).unwrap(),
        DlfmResponse::Ok
    );
    c.call(DlfmRequest::Prepare { xid: 40 }).unwrap();
    c.call(DlfmRequest::Commit { xid: 40 }).unwrap();
    // The group is now delete-pending (or already deleted by the daemon);
    // links into it must be refused either way.
    let c2 = connect(&r);
    r.fs.create("/x", "u", b"x").unwrap();
    match c2
        .call(DlfmRequest::LinkFile {
            xid: 41,
            rec_id: 4100,
            grp_id: 1,
            filename: "/x".into(),
            in_backout: false,
        })
        .unwrap()
    {
        DlfmResponse::Err(DlfmError::NoSuchGroup(1)) => {}
        other => panic!("unexpected {other:?}"),
    }
    let _ = c2.call(DlfmRequest::Abort { xid: 41 });
}

#[test]
fn gc_backup_retention_purges_old_unlinked_entries_and_copies() {
    let mut config = DlfmConfig::for_tests();
    config.backups_retained = 2;
    let r = rig_with(config);
    let c = connect(&r);
    register(&c, 1, AccessControl::Full, true);

    // Link and unlink three files across three backup cycles.
    for (i, path) in ["/f1", "/f2", "/f3"].iter().enumerate() {
        let xid = 100 + i as i64 * 10;
        link_commit(&r, &c, xid, 1, path);
        wait("archived", || r.archive.contains(path, xid * 100));
        // Unlink it.
        let uxid = xid + 1;
        c.call(DlfmRequest::UnlinkFile {
            xid: uxid,
            rec_id: uxid * 100,
            grp_id: 1,
            filename: (*path).into(),
            in_backout: false,
        })
        .unwrap();
        c.call(DlfmRequest::Prepare { xid: uxid }).unwrap();
        c.call(DlfmRequest::Commit { xid: uxid }).unwrap();
        // Backup cycle: rec watermark after this unlink.
        let b = 1000 + i as i64;
        c.call(DlfmRequest::BeginBackup { backup_id: b, rec_id: uxid * 100 + 50 }).unwrap();
        // The third backup completes below: with only two complete the GC
        // daemon has nothing outside retention yet, so it cannot race the
        // count that follows.
        if b < 1002 {
            c.call(DlfmRequest::EndBackup { backup_id: b, success: true }).unwrap();
        }
    }
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 2"), 3);
    c.call(DlfmRequest::EndBackup { backup_id: 1002, success: true }).unwrap();

    // Retention keeps the last 2 backups. The oldest *retained* backup is
    // 1001; /f1 and /f2 were both unlinked before its watermark, so no
    // retained restore can ever resurrect them — the GC purges both,
    // keeping only /f3 (unlinked after backup 1001).
    wait("gc purges unlinked entries outside retention", || {
        count(&r, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 2") == 1
    });
    wait("gc purges old backup entries", || count(&r, "SELECT COUNT(*) FROM dfm_backup") == 2);
    assert!(!r.archive.contains("/f1", 10000), "archive copy of /f1 must be GC'd");
    assert!(!r.archive.contains("/f2", 11000), "archive copy of /f2 must be GC'd");
    assert!(r.archive.contains("/f3", 12000));
}

#[test]
fn restart_resumes_group_deletion_work() {
    let mut config = DlfmConfig::for_tests();
    // Slow the daemon so we can crash mid-work.
    config.delete_group_batch = 1;
    config.daemon_poll_interval = Duration::from_millis(1);
    let r = rig_with(config);
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    for i in 0..8 {
        link_commit(&r, &c, 200 + i, 1, &format!("/g{i}"));
    }
    assert_eq!(
        c.call(DlfmRequest::DeleteGroup { xid: 300, grp_id: 1, rec_id: 30000 }).unwrap(),
        DlfmResponse::Ok
    );
    c.call(DlfmRequest::Prepare { xid: 300 }).unwrap();
    c.call(DlfmRequest::Commit { xid: 300 }).unwrap();
    // Crash immediately — the daemon has likely not finished unlinking.
    r.server.crash();
    r.server.restart().unwrap();
    // Restart requeues the committed delete-group work; the daemon finishes.
    wait("group deletion resumed after restart", || {
        count(&r, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1") == 0
    });
    wait("group reaches deleted state", || {
        count(&r, "SELECT COUNT(*) FROM dfm_grp WHERE state = 3") == 1
    });
}

#[test]
fn pending_copies_counter_drains() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Full, true);
    for i in 0..5 {
        link_commit(&r, &c, 400 + i, 1, &format!("/c{i}"));
    }
    wait("copies drained", || match c.call(DlfmRequest::PendingCopies).unwrap() {
        DlfmResponse::Count(n) => n == 0,
        _ => false,
    });
    assert_eq!(r.archive.len(), 5);
}

#[test]
fn backup_flush_escalates_priority() {
    let mut config = DlfmConfig::for_tests();
    // Slow daemon polls so entries accumulate: the Copy daemon found its
    // queue empty at start-up and sleeps one interval, which has to outlast
    // the ten commits below even with the whole suite running beside them
    // (50 ms did not, about one run in six).
    config.daemon_poll_interval = Duration::from_millis(250);
    let r = rig_with(config);
    r.archive.set_latency(Duration::from_millis(1));
    let c = connect(&r);
    register(&c, 1, AccessControl::Full, true);
    for i in 0..10 {
        link_commit(&r, &c, 500 + i, 1, &format!("/b{i}"));
    }
    // Backup waits for ALL pending copies at/below its watermark.
    let watermark = (509i64) * 100 + 1;
    c.call(DlfmRequest::BeginBackup { backup_id: 9, rec_id: watermark }).unwrap();
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_archive"), 0);
    // The escalated entries were archived with high priority.
    assert!(r.archive.metrics().priority_stores.load(std::sync::atomic::Ordering::Relaxed) > 0);
    c.call(DlfmRequest::EndBackup { backup_id: 9, success: true }).unwrap();
}

#[test]
fn unsuccessful_backup_is_removed() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Full, true);
    c.call(DlfmRequest::BeginBackup { backup_id: 7, rec_id: 1 }).unwrap();
    c.call(DlfmRequest::EndBackup { backup_id: 7, success: false }).unwrap();
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_backup"), 0);
}

#[test]
fn reconcile_reports_missing_fs_files() {
    let r = rig();
    let c = connect(&r);
    register(&c, 1, AccessControl::Partial, false);
    link_commit(&r, &c, 600, 1, "/keep");
    link_commit(&r, &c, 601, 1, "/gone");
    // The file disappears behind DLFM's back (filter bypassed).
    r.fs.delete("/gone").unwrap();
    match c
        .call(DlfmRequest::Reconcile {
            entries: vec![("/keep".into(), 60000), ("/gone".into(), 60100)],
        })
        .unwrap()
    {
        DlfmResponse::ReconcileReport { broken_host_refs, orphans_unlinked } => {
            assert_eq!(broken_host_refs, vec![("/gone".to_string(), 60100)]);
            assert!(orphans_unlinked.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn concurrent_agents_share_metadata_consistently() {
    let r = rig();
    let c0 = connect(&r);
    register(&c0, 1, AccessControl::Partial, false);
    let mut handles = Vec::new();
    for a in 0..4i64 {
        let connector = r.server.connector();
        let fs = r.fs.clone();
        handles.push(std::thread::spawn(move || {
            let c = connector.connect().unwrap();
            c.call(DlfmRequest::Connect { dbid: 1 }).unwrap();
            for i in 0..10i64 {
                let xid = 1000 + a * 100 + i;
                let path = format!("/m/a{a}_{i}");
                fs.create(&path, "u", b"x").unwrap();
                let resp = c
                    .call(DlfmRequest::LinkFile {
                        xid,
                        rec_id: xid * 10,
                        grp_id: 1,
                        filename: path,
                        in_backout: false,
                    })
                    .unwrap();
                assert_eq!(resp, DlfmResponse::Ok);
                c.call(DlfmRequest::Prepare { xid }).unwrap();
                c.call(DlfmRequest::Commit { xid }).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 40);
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_xact"), 0, "all transactions resolved");
}

#[test]
fn phase2_abort_before_any_phase1_is_a_noop() {
    // Presumed abort: the resolver may send Abort for a transaction the
    // DLFM never saw (e.g. crash before the first op arrived).
    let r = rig();
    let c = connect(&r);
    assert_eq!(c.call(DlfmRequest::Abort { xid: 99_999 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(count(&r, "SELECT COUNT(*) FROM dfm_xact"), 0);
}
