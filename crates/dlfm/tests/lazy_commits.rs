//! Which local commits force the log, and what happens when one that does
//! not is lost.
//!
//! A sub-transaction forces the shard's log exactly once — the local
//! COMMIT at prepare (the vote). Every other local commit is lazy, the
//! phase-2 commit included: its record hardens with the next force, and if
//! a crash gets there first an existing recovery path re-drives the work.
//! One test per lazy site crashes right after the work was done and
//! acknowledged — nothing has forced the log since, so the crash takes it —
//! and checks that recovery path; the pins at the end check that the forced
//! commits — the vote, and the phase-2 commit of a group deletion — still
//! survive an immediate crash.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec};
use dlrpc::ClientConn;
use filesys::FileSystem;
use minidb::Session;

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

    fn connect(&self) -> Conn {
        let conn = self.server.connector().connect().unwrap();
        assert_eq!(call(&conn, DlfmRequest::Connect { dbid: 1 }), DlfmResponse::Ok);
        conn
    }

    /// Register group 1: full control, recovery as asked.
    fn group(&self, conn: &Conn, recovery: bool) {
        let spec = GroupSpec {
            grp_id: 1,
            dbid: 1,
            table_name: "media".into(),
            column_name: "clip".into(),
            access: AccessControl::Full,
            recovery,
        };
        assert_eq!(call(conn, DlfmRequest::RegisterGroup(spec)), DlfmResponse::Ok);
    }

    /// Create `/f{i}` for `i` in `files` (content `v{i}`) and link them all
    /// under `xid`, recovery id `xid * 100 + i`.
    fn link_files(&self, conn: &Conn, xid: i64, files: std::ops::Range<i64>) {
        for i in files {
            let path = format!("/f{i}");
            self.fs.create(&path, "alice", format!("v{i}").as_bytes()).unwrap();
            let req = DlfmRequest::LinkFile {
                xid,
                rec_id: xid * 100 + i,
                grp_id: 1,
                filename: path,
                in_backout: false,
            };
            assert_eq!(call(conn, req), DlfmResponse::Ok);
        }
    }

    fn count(&self, sql: &str) -> i64 {
        Session::new(self.server.db()).query_int(sql, &[]).unwrap()
    }

    fn forces(&self) -> u64 {
        self.server.db().wal_forces_total()
    }

    fn metrics(&self) -> dlfm::DlfmMetricsSnapshot {
        self.server.metrics().snapshot()
    }

    fn crash_and_restart(&self) {
        self.server.crash();
        self.server.restart().unwrap();
    }

    fn indoubt(&self, conn: &Conn) -> Vec<i64> {
        match call(conn, DlfmRequest::ListIndoubt) {
            DlfmResponse::Indoubt(xids) => xids,
            other => panic!("expected an in-doubt list, got {other:?}"),
        }
    }
}

fn call(conn: &Conn, req: DlfmRequest) -> DlfmResponse {
    conn.call(req).expect("rpc must succeed")
}

fn prepare(conn: &Conn, xid: i64) {
    let vote = call(conn, DlfmRequest::Prepare { xid });
    assert_eq!(vote, DlfmResponse::Prepared { read_only: false });
}

fn wait(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_lost_copy_daemon_delete_requeues_its_entries_for_an_idempotent_recopy() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, true);
    rig.link_files(&conn, 10, 0..5);
    prepare(&conn, 10);
    assert_eq!(call(&conn, DlfmRequest::Commit { xid: 10 }), DlfmResponse::Ok);
    let forces = rig.forces();
    wait("the Copy daemon to drain the queue", || rig.metrics().files_archived == 5);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_archive"), 0);
    assert_eq!(rig.forces(), forces, "the daemon's queue deletes force nothing");

    rig.crash_and_restart();

    // The phase-2 commit went with the deletes: xid 10 is in doubt, and the
    // resolver's Commit queues the entries again. The daemon copies every
    // file again — onto the same keys, with the same content.
    let conn2 = rig.connect();
    assert_eq!(rig.indoubt(&conn2), vec![10]);
    assert_eq!(call(&conn2, DlfmRequest::Commit { xid: 10 }), DlfmResponse::Ok);
    wait("the re-drain", || rig.metrics().files_archived == 10);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_archive"), 0);
    assert_eq!(rig.archive.metrics().stores.load(Relaxed), 10);
    assert_eq!(rig.archive.len(), 5, "one object per (file, recovery id)");
    for i in 0..5 {
        let path = format!("/f{i}");
        assert_eq!(rig.archive.versions(&path), vec![1000 + i]);
        assert_eq!(rig.archive.retrieve(&path, 1000 + i).unwrap(), format!("v{i}").as_bytes());
    }
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 5);
}

#[test]
fn an_acked_abort_lost_in_a_crash_leaves_the_xid_indoubt_until_aborted_again() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, false);
    rig.link_files(&conn, 20, 0..1);
    prepare(&conn, 20);
    let forces = rig.forces();
    assert_eq!(call(&conn, DlfmRequest::Abort { xid: 20 }), DlfmResponse::Ok);
    assert_eq!(rig.forces(), forces, "presumed abort never forces an abort");
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0, "the abort took effect");
    assert!(rig.indoubt(&conn).is_empty());

    rig.crash_and_restart();

    // Back to PREPARED: the host's resolver finds the xid, has no commit
    // record for it, and aborts again.
    let conn2 = rig.connect();
    assert_eq!(rig.indoubt(&conn2), vec![20]);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 1);
    for _ in 0..2 {
        // The second delivery of the second Abort finds nothing left.
        assert_eq!(call(&conn2, DlfmRequest::Abort { xid: 20 }), DlfmResponse::Ok);
        assert!(rig.indoubt(&conn2).is_empty());
        assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
        assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
    }
    assert_eq!(rig.fs.stat("/f0").unwrap().owner, "alice", "never taken over");
}

fn chunking_every_two() -> DlfmConfig {
    DlfmConfig { chunk_commit_every: Some(2), ..DlfmConfig::for_tests() }
}

#[test]
fn lazy_chunks_plus_prepare_cost_one_force_and_all_survive_a_crash() {
    let rig = Rig::new(chunking_every_two());
    let conn = rig.connect();
    rig.group(&conn, false);
    let forces = rig.forces();
    rig.link_files(&conn, 30, 0..7);
    assert_eq!(rig.metrics().chunk_commits, 3);
    assert_eq!(rig.forces(), forces, "chunk commits force nothing");
    prepare(&conn, 30);
    assert_eq!(rig.forces(), forces + 1, "the Prepare's force covers every chunk");

    rig.crash_and_restart();

    let conn2 = rig.connect();
    assert_eq!(rig.indoubt(&conn2), vec![30]);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE link_xid = 30"), 7);
    assert_eq!(rig.metrics().aborts, 0, "restart had nothing to compensate");
    assert_eq!(call(&conn2, DlfmRequest::Commit { xid: 30 }), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 7);
    assert_eq!(rig.fs.stat("/f6").unwrap().owner, "dlfm_admin");
}

#[test]
fn a_crash_before_prepare_compensates_whatever_prefix_of_chunks_survived() {
    let rig = Rig::new(chunking_every_two());
    let conn = rig.connect();
    rig.group(&conn, false);
    // Two chunks (and the INFLIGHT row the first one inserted) ...
    rig.link_files(&conn, 40, 0..4);
    // ... hardened by somebody else's Prepare ...
    let other = rig.connect();
    rig.link_files(&other, 41, 10..11);
    prepare(&other, 41);
    // ... then a third chunk and an open tail that nothing forces.
    rig.link_files(&conn, 40, 4..7);
    assert_eq!(rig.metrics().chunk_commits, 3);

    rig.crash_and_restart();

    // Restart found xid 40 INFLIGHT with four hardened links behind it and
    // aborted them; the prepared xid 41 is none of its business.
    assert_eq!(rig.metrics().aborts, 1);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE link_xid = 40"), 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact WHERE xid = 40"), 0);
    assert_eq!(rig.indoubt(&rig.connect()), vec![41]);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE link_xid = 41"), 1);
}

/// Link `n` files into group 1, commit, then drop the group in its own
/// committed transaction, whose phase-2 commit forces. Returns the forces
/// spent up to and including that commit.
fn delete_group_of(rig: &Rig, conn: &Conn, n: i64) -> u64 {
    rig.link_files(conn, 50, 0..n);
    prepare(conn, 50);
    assert_eq!(call(conn, DlfmRequest::Commit { xid: 50 }), DlfmResponse::Ok);
    let drop_group = DlfmRequest::DeleteGroup { xid: 51, grp_id: 1, rec_id: 5100 };
    assert_eq!(call(conn, drop_group), DlfmResponse::Ok);
    prepare(conn, 51);
    let forces = rig.forces();
    assert_eq!(call(conn, DlfmRequest::Commit { xid: 51 }), DlfmResponse::Ok);
    assert_eq!(rig.forces(), forces + 1, "a group deletion's phase-2 commit forces");
    rig.forces()
}

#[test]
fn lost_delete_group_batches_are_resumed_from_the_transaction_table() {
    let config = DlfmConfig {
        delete_group_batch: 2,
        group_life_span_micros: 3_600_000_000, // keep the GC out of this one
        ..DlfmConfig::for_tests()
    };
    let rig = Rig::new(config);
    let conn = rig.connect();
    rig.group(&conn, false);
    let forces = delete_group_of(&rig, &conn, 5);
    let done = || {
        rig.count("SELECT COUNT(*) FROM dfm_grp WHERE state = 3") == 1
            && rig.count("SELECT COUNT(*) FROM dfm_xact") == 0
    };
    wait("the Delete-Group daemon to finish", done);
    assert_eq!(rig.metrics().group_files_unlinked, 5);
    assert_eq!(rig.forces(), forces, "its batches force nothing");

    rig.crash_and_restart();

    // All three batches, the group's DELETED mark and the `dfm_xact` delete
    // are gone; the COMMITTED `dfm_xact` row is not, and restart requeues it.
    wait("the resumed deletion to finish", done);
    assert_eq!(rig.metrics().group_files_unlinked, 10, "every file was unlinked again");
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.fs.stat("/f4").unwrap().owner, "alice", "released, twice over");
}

#[test]
fn a_lost_garbage_collection_is_collected_again() {
    // Group life span is 20 ms here: the GC purges the deleted group (its
    // unlinked entries are kept for recovery until then) on its own.
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, true);
    let forces = delete_group_of(&rig, &conn, 3);
    let purged = || {
        rig.count("SELECT COUNT(*) FROM dfm_grp") == 0
            && rig.count("SELECT COUNT(*) FROM dfm_file") == 0
    };
    wait("the GC to purge the expired group", purged);
    wait("the Copy daemon to go idle", || rig.count("SELECT COUNT(*) FROM dfm_archive") == 0);
    // The GC pass bumps its counter after its last purge committed, so
    // purged rows alone do not mean it reads 3 yet.
    wait("the purge to be accounted", || rig.metrics().gc_entries_removed >= 3);
    assert_eq!(rig.metrics().gc_entries_removed, 3);
    assert_eq!(rig.forces(), forces, "Copy, Delete-Group and GC daemons forced nothing");

    rig.crash_and_restart();

    wait("the group to be deleted and purged again", purged);
    wait("the second purge to be accounted", || rig.metrics().gc_entries_removed >= 6);
    assert_eq!(rig.metrics().gc_entries_removed, 6);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn reconcile_rebuilds_its_temp_table_after_a_run_cut_short() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, false);
    rig.link_files(&conn, 60, 0..2);
    prepare(&conn, 60);
    assert_eq!(call(&conn, DlfmRequest::Commit { xid: 60 }), DlfmResponse::Ok);
    // What a Reconcile that crashed mid-load leaves behind: the (forced)
    // temp table and whatever part of its lazy loads some force covered.
    let mut s = Session::new(rig.server.db());
    s.exec("CREATE TABLE tmp_recon_1 (filename VARCHAR NOT NULL, rec_id BIGINT NOT NULL)").unwrap();
    s.exec("INSERT INTO tmp_recon_1 (filename, rec_id) VALUES ('/stale', 1)").unwrap();
    drop(s);

    rig.crash_and_restart();

    // The host re-runs it; the stale load is dropped, not diffed.
    let conn2 = rig.connect();
    let entries = vec![("/f0".to_string(), 6000), ("/f1".to_string(), 6001)];
    match call(&conn2, DlfmRequest::Reconcile { entries }) {
        DlfmResponse::ReconcileReport { broken_host_refs, orphans_unlinked } => {
            assert!(broken_host_refs.is_empty(), "{broken_host_refs:?}");
            assert!(orphans_unlinked.is_empty(), "{orphans_unlinked:?}");
        }
        other => panic!("expected a reconcile report, got {other:?}"),
    }
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 2);
}

/// The phase-2 commit is lazy: an acked Commit costs no force, and a crash
/// right after the ack takes it. The xid is PREPARED again; the host's
/// resolver finds it, has the forced commit decision, and commits again.
#[test]
fn an_acked_commit_lost_in_a_crash_leaves_the_xid_indoubt_until_committed_again() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, false);
    rig.link_files(&conn, 80, 0..1);
    prepare(&conn, 80);
    let forces = rig.forces();
    assert_eq!(call(&conn, DlfmRequest::Commit { xid: 80 }), DlfmResponse::Ok);
    assert_eq!(rig.forces(), forces, "phase-2 commit forces nothing");
    assert!(rig.indoubt(&conn).is_empty(), "the commit took effect");
    assert_eq!(rig.fs.stat("/f0").unwrap().owner, "dlfm_admin");

    rig.crash_and_restart();

    let conn2 = rig.connect();
    assert_eq!(rig.indoubt(&conn2), vec![80]);
    for _ in 0..2 {
        // The third delivery of the Commit finds nothing left to do.
        assert_eq!(call(&conn2, DlfmRequest::Commit { xid: 80 }), DlfmResponse::Ok);
        assert!(rig.indoubt(&conn2).is_empty());
        assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
        assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1"), 1);
    }
    assert_eq!(rig.fs.stat("/f0").unwrap().owner, "dlfm_admin");
}

/// The commit the protocol forces: an acked Prepare costs exactly one force
/// and survives a crash that follows the ack at once.
#[test]
fn an_acked_prepare_survives_an_immediate_crash() {
    let rig = Rig::new(DlfmConfig::for_tests());
    let conn = rig.connect();
    rig.group(&conn, false);
    rig.link_files(&conn, 70, 0..1);
    let forces = rig.forces();
    prepare(&conn, 70);
    assert_eq!(rig.forces(), forces + 1);
    rig.crash_and_restart();
    let conn2 = rig.connect();
    assert_eq!(rig.indoubt(&conn2), vec![70]);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE link_xid = 70"), 1);
}

/// The exception, chosen by call site: a commit that deleted a group forces
/// (`delete_group_of` counts it). The Delete-Group daemon starts releasing
/// files as soon as it is told, and restart requeues from the COMMITTED
/// row, so an immediate crash must leave that row — not a PREPARED one.
#[test]
fn an_acked_group_deletion_survives_an_immediate_crash() {
    let config = DlfmConfig {
        group_life_span_micros: 3_600_000_000, // keep the GC out of this one
        ..DlfmConfig::for_tests()
    };
    let rig = Rig::new(config);
    let conn = rig.connect();
    rig.group(&conn, false);
    delete_group_of(&rig, &conn, 3);

    rig.crash_and_restart();

    assert!(rig.indoubt(&rig.connect()).is_empty(), "the group deletion is not in doubt");
    wait("the requeued deletion to finish", || {
        rig.count("SELECT COUNT(*) FROM dfm_grp WHERE state = 3") == 1
            && rig.count("SELECT COUNT(*) FROM dfm_xact") == 0
    });
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.fs.stat("/f2").unwrap().owner, "alice");
}
