//! Regression: phase-2 commit used to read the rows its transaction linked
//! with `FOR SHARE`, whose lock ends with the statement under cursor
//! stability. An unlink by another connection could then prepare, commit
//! and release the file before the takeover landed, and the late takeover
//! left an *unlinked* file owned by the DLFM and read-only — breaking
//! `owner == dlfm_admin ⟺ committed linked row` (§3.3).
//!
//! `obs::fault` is process-global, hence a test binary of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec, LinkStatus,
};
use filesys::{FileSystem, Mode};
use obs::fault::{self, Trigger};

const STALL: &str = "dlfm.phase2.stall_before_takeover";

#[test]
fn an_unlink_cannot_release_a_file_before_the_linking_commit_takes_it_over() {
    let fs = Arc::new(FileSystem::new());
    let server =
        DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
    let connect = || {
        let conn = server.connector().connect().unwrap();
        assert_eq!(conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap(), DlfmResponse::Ok);
        conn
    };
    let linker = connect();
    let group = GroupSpec {
        grp_id: 1,
        dbid: 1,
        table_name: "media".into(),
        column_name: "clip".into(),
        access: AccessControl::Full,
        recovery: false,
    };
    assert_eq!(linker.call(DlfmRequest::RegisterGroup(group)).unwrap(), DlfmResponse::Ok);
    fs.create("/v/a.mpg", "alice", b"frames").unwrap();
    let link = DlfmRequest::LinkFile {
        xid: 1,
        rec_id: 10,
        grp_id: 1,
        filename: "/v/a.mpg".into(),
        in_backout: false,
    };
    assert_eq!(linker.call(link).unwrap(), DlfmResponse::Ok);
    assert_eq!(
        linker.call(DlfmRequest::Prepare { xid: 1 }).unwrap(),
        DlfmResponse::Prepared { read_only: false }
    );

    // The link's phase-2 commit stalls between reading its linked rows and
    // the takeover; a second connection unlinks the file inside that window.
    let guard = fault::install_guarded(1, &[(STALL, Trigger::Times(1))]);
    let committing =
        std::thread::spawn(move || linker.call(DlfmRequest::Commit { xid: 1 }).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    while fault::fires(STALL) == 0 {
        assert!(Instant::now() < deadline, "phase-2 commit never reached the stall");
        std::thread::sleep(Duration::from_millis(1));
    }
    let unlinker = connect();
    let unlink = DlfmRequest::UnlinkFile {
        xid: 2,
        rec_id: 20,
        grp_id: 1,
        filename: "/v/a.mpg".into(),
        in_backout: false,
    };
    assert_eq!(unlinker.call(unlink).unwrap(), DlfmResponse::Ok);
    assert_eq!(
        unlinker.call(DlfmRequest::Prepare { xid: 2 }).unwrap(),
        DlfmResponse::Prepared { read_only: false }
    );
    assert_eq!(unlinker.call(DlfmRequest::Commit { xid: 2 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(committing.join().unwrap(), DlfmResponse::Ok);
    drop(guard);

    // The unlink waited for the takeover, so its release came last: the
    // file is unlinked and back with its owner, writable.
    let meta = fs.stat("/v/a.mpg").unwrap();
    assert_eq!(meta.owner, "alice", "an unlinked file is still owned by the DLFM");
    assert_eq!(meta.mode, Mode::user_default());
    assert_eq!(
        unlinker.call(DlfmRequest::UpcallQuery { filename: "/v/a.mpg".into() }).unwrap(),
        DlfmResponse::LinkState(LinkStatus::NotLinked)
    );
}
