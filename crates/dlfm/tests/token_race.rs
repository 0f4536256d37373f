//! Regression: `IssueToken` used to read the link row in an autocommit
//! statement, so its FOR SHARE lock was gone before the token was
//! registered. An unlink committing in that gap revoked nothing, the
//! registration then left a token for an unlinked path, and that token
//! was valid for whoever linked the path next.
//!
//! `obs::fault` is process-global, hence a test binary of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec};
use filesys::FileSystem;
use obs::fault::{self, Trigger};

const STALL: &str = "dlfm.token.stall_before_register";

#[test]
fn an_unlink_cannot_commit_between_the_token_probe_and_its_registration() {
    let fs = Arc::new(FileSystem::new());
    let server =
        DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
    let connect = || {
        let conn = server.connector().connect().unwrap();
        assert_eq!(conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap(), DlfmResponse::Ok);
        conn
    };
    let writer = connect();
    let group = GroupSpec {
        grp_id: 1,
        dbid: 1,
        table_name: "media".into(),
        column_name: "clip".into(),
        access: AccessControl::Full,
        recovery: false,
    };
    assert_eq!(writer.call(DlfmRequest::RegisterGroup(group)).unwrap(), DlfmResponse::Ok);
    fs.create("/v/a.mpg", "alice", b"frames").unwrap();
    let link = |xid: i64| DlfmRequest::LinkFile {
        xid,
        rec_id: xid * 10,
        grp_id: 1,
        filename: "/v/a.mpg".into(),
        in_backout: false,
    };
    let two_phase = |xid: i64| {
        assert_eq!(
            writer.call(DlfmRequest::Prepare { xid }).unwrap(),
            DlfmResponse::Prepared { read_only: false }
        );
        assert_eq!(writer.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    };
    assert_eq!(writer.call(link(1)).unwrap(), DlfmResponse::Ok);
    two_phase(1);

    // The reader's IssueToken stalls between its probe and the
    // registration; the unlink starts inside that window.
    let guard = fault::install_guarded(1, &[(STALL, Trigger::Times(1))]);
    let reader = connect();
    let issuing = std::thread::spawn(move || {
        reader.call(DlfmRequest::IssueToken { filename: "/v/a.mpg".into() }).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while fault::fires(STALL) == 0 {
        assert!(Instant::now() < deadline, "IssueToken never reached the stall");
        std::thread::sleep(Duration::from_millis(1));
    }
    let unlink = DlfmRequest::UnlinkFile {
        xid: 2,
        rec_id: 20,
        grp_id: 1,
        filename: "/v/a.mpg".into(),
        in_backout: false,
    };
    assert_eq!(writer.call(unlink).unwrap(), DlfmResponse::Ok);
    two_phase(2);
    let DlfmResponse::Token(stale) = issuing.join().unwrap() else { panic!("no token") };
    drop(guard);
    assert!(!stale.is_empty());

    // The unlink waited for the registration, so its phase 2 revoked it.
    assert_eq!(server.dlff().token_count(), 0, "a token outlived its link");
    // Whoever links the path next is not readable with the old token.
    assert_eq!(writer.call(link(3)).unwrap(), DlfmResponse::Ok);
    two_phase(3);
    assert!(server.dlff().read("/v/a.mpg", "bob", Some(&stale)).is_err());
    let DlfmResponse::Token(fresh) =
        writer.call(DlfmRequest::IssueToken { filename: "/v/a.mpg".into() }).unwrap()
    else {
        panic!("no token")
    };
    assert_ne!(fresh, stale);
    assert_eq!(server.dlff().read("/v/a.mpg", "bob", Some(&fresh)).unwrap(), b"frames");
}
