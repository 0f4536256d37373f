//! Crash-injection matrix: crash either side at every interesting point of
//! the two-phase-commit protocol and verify the system converges to a
//! consistent state (paper §3.3 indoubt handling, §4 delayed update).

use datalinks::{dlfm, Deployment};
use dlfm::{DlfmRequest, DlfmResponse};
use minidb::{Session, Value};

struct Driver {
    dep: Deployment,
    grp_id: i64,
}

impl Driver {
    fn new() -> Driver {
        let dep = Deployment::for_tests("fs1");
        let mut s = dep.host.session();
        s.create_table(
            "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
            &[hostdb::DatalinkSpec {
                column: "doc".into(),
                access: dlfm::AccessControl::Full,
                recovery: true,
            }],
        )
        .unwrap();
        let grp_id = dep.host.dl_column("t", "doc").unwrap().grp_id;
        Driver { dep, grp_id }
    }

    fn conn(&self) -> dlrpc::ClientConn<DlfmRequest, DlfmResponse> {
        let c = self.dep.dlfm.connector().connect().unwrap();
        c.call(DlfmRequest::Connect { dbid: self.dep.host.dbid() }).unwrap();
        c
    }

    fn link(&self, conn: &dlrpc::ClientConn<DlfmRequest, DlfmResponse>, xid: i64, path: &str) {
        self.dep.fs.create(path, "u", b"x").unwrap();
        let resp = conn
            .call(DlfmRequest::LinkFile {
                xid,
                rec_id: self.dep.host.next_rec_id(),
                grp_id: self.grp_id,
                filename: path.into(),
                in_backout: false,
            })
            .unwrap();
        assert_eq!(resp, DlfmResponse::Ok);
    }

    fn linked_count(&self) -> i64 {
        let mut s = Session::new(self.dep.dlfm.db());
        s.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1", &[]).unwrap()
    }

    fn xact_count(&self) -> i64 {
        let mut s = Session::new(self.dep.dlfm.db());
        s.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap()
    }
}

#[test]
fn crash_before_prepare_loses_forward_work() {
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.link(&conn, xid, "/a");
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    assert_eq!(d.linked_count(), 0);
    assert_eq!(d.xact_count(), 0);
}

#[test]
fn crash_after_prepare_commit_decision_wins() {
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.link(&conn, xid, "/a");
    assert_eq!(
        conn.call(DlfmRequest::Prepare { xid }).unwrap(),
        DlfmResponse::Prepared { read_only: false }
    );
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    // Indoubt survives the crash.
    let conn2 = d.conn();
    assert_eq!(conn2.call(DlfmRequest::ListIndoubt).unwrap(), DlfmResponse::Indoubt(vec![xid]));
    // Host (which logged a commit decision, say) drives commit.
    assert_eq!(conn2.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 1);
    assert_eq!(d.xact_count(), 0);
}

#[test]
fn crash_after_prepare_abort_decision_wins() {
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.link(&conn, xid, "/a");
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    let conn2 = d.conn();
    assert_eq!(conn2.call(DlfmRequest::Abort { xid }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 0);
    assert_eq!(d.xact_count(), 0);
    // File untouched (takeover only happens at commit).
    assert_eq!(d.dep.fs.stat("/a").unwrap().owner, "u");
}

/// An acked commit is durably *decided*, not durable at the DLFM: its
/// phase-2 commit is lazy, so a crash right after the ack takes it. The
/// transaction comes back in doubt, and the resolver commits it again from
/// the coordinator's decision.
#[test]
fn crash_after_commit_is_durable() {
    let d = Driver::new();
    let mut s = d.dep.host.session();
    d.dep.fs.create("/a", "u", b"x").unwrap();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/a"))]).unwrap();
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    assert_eq!(d.xact_count(), 1, "the lazy phase-2 commit went with the crash");

    assert_eq!(d.dep.host.resolve_indoubts().unwrap(), 1);
    assert_eq!(d.xact_count(), 0);
    assert_eq!(d.linked_count(), 1);
    assert_eq!(d.dep.fs.stat("/a").unwrap().owner, "dlfm_admin");
}

#[test]
fn commit_retry_is_idempotent_across_crash() {
    // Commit arrives, completes, the DLFM crashes, and the host re-drives
    // the commit (it never saw the ack): the second commit must be a no-op.
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.link(&conn, xid, "/a");
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    conn.call(DlfmRequest::Commit { xid }).unwrap();
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    let conn2 = d.conn();
    assert_eq!(conn2.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 1);
}

#[test]
fn abort_retry_is_idempotent() {
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.link(&conn, xid, "/a");
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    conn.call(DlfmRequest::Abort { xid }).unwrap();
    // Double abort (e.g. resolver raced the coordinator).
    assert_eq!(conn.call(DlfmRequest::Abort { xid }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 0);
}

#[test]
fn unlink_crash_after_prepare_then_commit_deletes_or_keeps_correctly() {
    let d = Driver::new();
    let conn = d.conn();
    // Establish a committed link first.
    let xid1 = d.dep.host.next_xid();
    d.link(&conn, xid1, "/a");
    conn.call(DlfmRequest::Prepare { xid: xid1 }).unwrap();
    conn.call(DlfmRequest::Commit { xid: xid1 }).unwrap();

    // Unlink, prepare, crash, restart, commit.
    let xid2 = d.dep.host.next_xid();
    let resp = conn
        .call(DlfmRequest::UnlinkFile {
            xid: xid2,
            rec_id: d.dep.host.next_rec_id(),
            grp_id: d.grp_id,
            filename: "/a".into(),
            in_backout: false,
        })
        .unwrap();
    assert_eq!(resp, DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid: xid2 }).unwrap();
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    let conn2 = d.conn();
    conn2.call(DlfmRequest::Commit { xid: xid2 }).unwrap();
    assert_eq!(d.linked_count(), 0);
    // Recovery group: the unlinked entry is retained for PIT restore.
    let mut s = Session::new(d.dep.dlfm.db());
    assert_eq!(s.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 2", &[]).unwrap(), 1);
    // And the file was released.
    assert_eq!(d.dep.fs.stat("/a").unwrap().owner, "u");
}

#[test]
fn unlink_crash_then_abort_restores_link() {
    let d = Driver::new();
    let conn = d.conn();
    let xid1 = d.dep.host.next_xid();
    d.link(&conn, xid1, "/a");
    conn.call(DlfmRequest::Prepare { xid: xid1 }).unwrap();
    conn.call(DlfmRequest::Commit { xid: xid1 }).unwrap();

    let xid2 = d.dep.host.next_xid();
    conn.call(DlfmRequest::UnlinkFile {
        xid: xid2,
        rec_id: d.dep.host.next_rec_id(),
        grp_id: d.grp_id,
        filename: "/a".into(),
        in_backout: false,
    })
    .unwrap();
    conn.call(DlfmRequest::Prepare { xid: xid2 }).unwrap();
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    let conn2 = d.conn();
    conn2.call(DlfmRequest::Abort { xid: xid2 }).unwrap();
    assert_eq!(d.linked_count(), 1, "aborted unlink must restore the linked entry");
    // Still database-owned.
    assert_eq!(d.dep.fs.stat("/a").unwrap().owner, "dlfm_admin");
}

#[test]
fn checkpoint_bounds_recovery_and_preserves_state() {
    let d = Driver::new();
    let conn = d.conn();
    for i in 0..5 {
        let xid = d.dep.host.next_xid();
        d.link(&conn, xid, &format!("/pre{i}"));
        conn.call(DlfmRequest::Prepare { xid }).unwrap();
        conn.call(DlfmRequest::Commit { xid }).unwrap();
    }
    d.dep.dlfm.checkpoint();
    for i in 0..3 {
        let xid = d.dep.host.next_xid();
        d.link(&conn, xid, &format!("/post{i}"));
        conn.call(DlfmRequest::Prepare { xid }).unwrap();
        conn.call(DlfmRequest::Commit { xid }).unwrap();
    }
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    assert_eq!(d.linked_count(), 8);
}

#[test]
fn host_crash_loses_nothing_committed_and_aborts_the_rest() {
    let d = Driver::new();
    let mut s = d.dep.host.session();
    d.dep.fs.create("/h1", "u", b"1").unwrap();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/h1"))])
        .unwrap();

    // An open transaction at crash time must vanish entirely.
    d.dep.fs.create("/h2", "u", b"2").unwrap();
    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id, doc) VALUES (2, ?)", &[Value::str(d.dep.url("/h2"))])
        .unwrap();

    d.dep.host.crash();
    drop(s);
    d.dep.host.restart().unwrap();

    let mut s2 = d.dep.host.session();
    assert_eq!(s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    // The DLFM side converges once the resolver runs (restart already ran it).
    assert_eq!(d.linked_count(), 1);
    assert_eq!(d.dep.fs.stat("/h2").unwrap().owner, "u");
}
