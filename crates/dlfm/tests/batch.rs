//! `DlfmRequest::Batch`: one statement's datalink operations (and, under
//! autocommit, its Prepare) in one request, with the semantics of the same
//! requests sent one by one.

use std::sync::Arc;
use std::time::Duration;

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DbErrorKind, DlfmConfig, DlfmError, DlfmRequest, DlfmResponse, DlfmServer,
    GroupSpec, MAX_BATCH_OPS,
};
use dlrpc::{ClientConn, RpcError};
use filesys::FileSystem;
use minidb::Session;

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

struct Rig {
    fs: Arc<FileSystem>,
    server: DlfmServer,
}

fn rig(config: DlfmConfig) -> (Rig, Conn) {
    let fs = Arc::new(FileSystem::new());
    let server = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));
    let rig = Rig { fs, server };
    let conn = rig.connect();
    let group = GroupSpec {
        grp_id: 1,
        dbid: 1,
        table_name: "media".into(),
        column_name: "clip".into(),
        access: AccessControl::Full,
        recovery: false,
    };
    assert_eq!(conn.call(DlfmRequest::RegisterGroup(group)).unwrap(), DlfmResponse::Ok);
    for f in ["/a", "/b", "/c", "/d"] {
        rig.fs.create(f, "alice", b"x").unwrap();
    }
    (rig, conn)
}

impl Rig {
    fn connect(&self) -> Conn {
        let conn = self.server.connector().connect().unwrap();
        assert_eq!(conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap(), DlfmResponse::Ok);
        conn
    }

    fn count(&self, sql: &str) -> i64 {
        Session::new(self.server.db()).query_int(sql, &[]).unwrap()
    }

    fn linked(&self) -> i64 {
        self.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1")
    }
}

fn link(xid: i64, rec_id: i64, file: &str) -> DlfmRequest {
    DlfmRequest::LinkFile { xid, rec_id, grp_id: 1, filename: file.into(), in_backout: false }
}

fn unlink(xid: i64, rec_id: i64, file: &str) -> DlfmRequest {
    DlfmRequest::UnlinkFile { xid, rec_id, grp_id: 1, filename: file.into(), in_backout: false }
}

fn batch(conn: &Conn, members: Vec<DlfmRequest>) -> DlfmResponse {
    conn.call(DlfmRequest::Batch(members)).expect("rpc must succeed")
}

#[test]
fn a_batch_with_the_vote_is_the_same_as_its_members_sent_alone() {
    let (rig, conn) = rig(DlfmConfig::for_tests());
    let before = rig.server.metrics().snapshot();
    let reply =
        batch(&conn, vec![link(1, 10, "/a"), link(1, 11, "/b"), DlfmRequest::Prepare { xid: 1 }]);
    assert_eq!(
        reply,
        DlfmResponse::Batch(vec![
            DlfmResponse::Ok,
            DlfmResponse::Ok,
            DlfmResponse::Prepared { read_only: false }
        ])
    );
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 1, "the vote hardened the prepare");
    assert_eq!(conn.call(DlfmRequest::Commit { xid: 1 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(rig.linked(), 2);
    // A batch without the vote leaves the sub-transaction open for more.
    assert_eq!(
        batch(&conn, vec![unlink(2, 20, "/a")]),
        DlfmResponse::Batch(vec![DlfmResponse::Ok])
    );
    assert_eq!(
        batch(&conn, vec![link(2, 21, "/c"), DlfmRequest::Prepare { xid: 2 }]),
        DlfmResponse::Batch(vec![DlfmResponse::Ok, DlfmResponse::Prepared { read_only: false }])
    );
    assert_eq!(conn.call(DlfmRequest::Commit { xid: 2 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(rig.linked(), 2);
    // Members are counted as operations; the batch is counted once.
    let d = rig.server.metrics().snapshot().delta(&before);
    assert_eq!((d.links, d.unlinks, d.prepares, d.batches), (3, 1, 2, 3));
    assert!(rig.server.metrics_text().contains("dlfm_batches_total 3"));
}

#[test]
fn a_batch_stops_after_the_first_member_that_fails() {
    let (rig, conn) = rig(DlfmConfig::for_tests());
    assert_eq!(
        batch(&conn, vec![link(1, 10, "/a"), DlfmRequest::Prepare { xid: 1 }]),
        DlfmResponse::Batch(vec![DlfmResponse::Ok, DlfmResponse::Prepared { read_only: false }])
    );
    assert_eq!(conn.call(DlfmRequest::Commit { xid: 1 }).unwrap(), DlfmResponse::Ok);
    let prepares = rig.server.metrics().snapshot().prepares;
    // Member 1 of 4 fails: two entries come back, /c is never touched and
    // above all the Prepare does not harden half a statement.
    let reply = batch(
        &conn,
        vec![
            link(2, 20, "/b"),
            link(2, 21, "/a"),
            link(2, 22, "/c"),
            DlfmRequest::Prepare { xid: 2 },
        ],
    );
    assert_eq!(
        reply,
        DlfmResponse::Batch(vec![
            DlfmResponse::Ok,
            DlfmResponse::Err(DlfmError::AlreadyLinked("/a".into()))
        ])
    );
    assert_eq!(rig.server.metrics().snapshot().prepares, prepares, "the vote never ran");
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file WHERE filename = '/c'"), 0);
    // The sub-transaction is still open with member 0 in it, as after a
    // failed plain LinkFile: the host backs it out or aborts.
    assert_eq!(conn.call(DlfmRequest::Abort { xid: 2 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(rig.linked(), 1);
}

#[test]
fn an_illegal_batch_runs_nothing() {
    let (rig, conn) = rig(DlfmConfig::for_tests());
    let illegal: Vec<(&str, Vec<DlfmRequest>)> = vec![
        ("empty", vec![]),
        ("mixed xids", vec![link(1, 10, "/a"), link(2, 11, "/b")]),
        ("vote of another xid", vec![link(1, 10, "/a"), DlfmRequest::Prepare { xid: 2 }]),
        ("vote not last", vec![DlfmRequest::Prepare { xid: 1 }, link(1, 10, "/a")]),
        ("commit", vec![link(1, 10, "/a"), DlfmRequest::Commit { xid: 1 }]),
        ("abort", vec![link(1, 10, "/a"), DlfmRequest::Abort { xid: 1 }]),
        ("begin", vec![DlfmRequest::BeginTxn { xid: 1 }, link(1, 10, "/a")]),
    ];
    // Two shapes never reach an agent: the codec refuses them, on either
    // carrier, and the caller hears that the peer could not decode them.
    let undecodable: Vec<(&str, Vec<DlfmRequest>)> = vec![
        ("oversized", vec![link(1, 10, "/a"); MAX_BATCH_OPS + 1]),
        ("nested", vec![link(1, 10, "/a"), DlfmRequest::Batch(vec![link(1, 11, "/b")])]),
    ];
    let before = rig.server.metrics().snapshot();
    for (what, members) in illegal {
        let reply = batch(&conn, members);
        assert!(
            matches!(reply, DlfmResponse::Err(DlfmError::Protocol(_))),
            "{what}: got {reply:?}"
        );
    }
    for (what, members) in undecodable {
        let err = conn.call(DlfmRequest::Batch(members)).unwrap_err();
        assert_eq!(err, RpcError::Wire("peer failed to decode the request".into()), "{what}");
    }
    assert_eq!(rig.server.metrics().snapshot(), before, "nothing ran, nothing was counted");
    // No sub-transaction was opened by the legal prefix of any of them.
    assert_eq!(
        conn.call(DlfmRequest::Prepare { xid: 1 }).unwrap(),
        DlfmResponse::Prepared { read_only: true }
    );
    assert_eq!(rig.linked(), 0);
    // A batch of exactly the limit is fine.
    let files: Vec<String> = (0..MAX_BATCH_OPS - 1).map(|i| format!("/bulk/{i}")).collect();
    let mut members = Vec::new();
    for (i, f) in files.iter().enumerate() {
        rig.fs.create(f, "alice", b"x").unwrap();
        members.push(link(3, 100 + i as i64, f));
    }
    members.push(DlfmRequest::Prepare { xid: 3 });
    let DlfmResponse::Batch(replies) = batch(&conn, members) else { panic!("not a batch") };
    assert_eq!(replies.len(), MAX_BATCH_OPS);
    assert_eq!(replies.last(), Some(&DlfmResponse::Prepared { read_only: false }));
    assert_eq!(conn.call(DlfmRequest::Commit { xid: 3 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(rig.linked() as usize, MAX_BATCH_OPS - 1);
}

#[test]
fn a_retryable_error_mid_batch_rolls_the_sub_transaction_back_once() {
    let mut config = DlfmConfig::for_tests();
    config.db.lock_timeout = Duration::from_millis(50);
    let (rig, conn) = rig(config);
    // Another host transaction holds /b's link uncommitted: member 1 below
    // waits for it and times out.
    let holder = rig.connect();
    assert_eq!(holder.call(link(1, 10, "/b")).unwrap(), DlfmResponse::Ok);
    let before = rig.server.metrics().snapshot();
    let reply = batch(
        &conn,
        vec![
            link(2, 20, "/a"),
            link(2, 21, "/b"),
            link(2, 22, "/c"),
            DlfmRequest::Prepare { xid: 2 },
        ],
    );
    let DlfmResponse::Batch(replies) = reply else { panic!("not a batch: {reply:?}") };
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert_eq!(replies[0], DlfmResponse::Ok);
    assert!(
        matches!(
            &replies[1],
            DlfmResponse::Err(DlfmError::Db {
                retryable: true,
                kind: DbErrorKind::LockTimeout,
                ..
            })
        ),
        "{replies:?}"
    );
    let d = rig.server.metrics().snapshot().delta(&before);
    assert_eq!(d.forced_rollbacks, 1);
    assert_eq!((d.links, d.prepares), (1, 0), "members behind the failure never ran");
    // The whole sub-transaction is gone, member 0 included: nothing is
    // left to prepare, and the members behind the failure did not open a
    // fresh one.
    assert_eq!(
        conn.call(DlfmRequest::Prepare { xid: 2 }).unwrap(),
        DlfmResponse::Prepared { read_only: true }
    );
    assert_eq!(holder.call(DlfmRequest::Abort { xid: 1 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(rig.count("SELECT COUNT(*) FROM dfm_file"), 0);
}
