//! The in-doubt resolver racing a commit whose decision is mid-force.
//!
//! An autocommit INSERT of a linked row has its participant prepared (the
//! vote rode on the statement round) and its commit decision appended but
//! not yet durable: the coordinator-log force takes 400 ms. The resolver
//! runs inside that window. It must leave the transaction to its session:
//! re-driving the volatile decision lets a host crash abort a transaction
//! whose file the DLFM already took over, and presuming it aborted acks an
//! INSERT with no link behind it. Either breaks `owner == dlfm_admin ⟺
//! linked` (paper §3.3).

use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmServer};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb};
use minidb::{Session, Value};

struct Rig {
    fs: Arc<FileSystem>,
    dlfm: DlfmServer,
    host: HostDb,
}

impl Rig {
    fn new() -> Rig {
        let fs = Arc::new(FileSystem::new());
        let dlfm =
            DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
        let host = HostDb::new(HostConfig::for_tests());
        host.attach_dlfm("fs1", dlfm.connector());
        host.session()
            .create_table(
                "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
                &[DatalinkSpec {
                    column: "doc".into(),
                    access: AccessControl::Full,
                    recovery: false,
                }],
            )
            .unwrap();
        fs.create("/f", "u", b"x").unwrap();
        host.coord_log().set_force_latency(Duration::from_millis(400));
        Rig { fs, dlfm, host }
    }

    /// Run the INSERT on its own thread and return once its commit
    /// decision is appended, with the force that hardens it in flight.
    fn insert_mid_force(&self) -> std::thread::JoinHandle<bool> {
        let host = self.host.clone();
        let insert = std::thread::spawn(move || {
            host.session()
                .exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/f")])
                .is_ok()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.host.coord_log().decisions_total() == 0 {
            assert!(Instant::now() < deadline, "the commit decision never appeared");
            std::thread::sleep(Duration::from_millis(1));
        }
        insert
    }

    fn count(db: &minidb::Database, sql: &str) -> i64 {
        Session::new(db).query_int(sql, &[]).unwrap()
    }

    fn owner(&self) -> String {
        self.fs.stat("/f").unwrap().owner
    }
}

#[test]
fn the_resolver_leaves_a_committing_transaction_to_its_session() {
    let rig = Rig::new();
    let insert = rig.insert_mid_force();
    rig.host.resolve_indoubts().unwrap();
    assert!(insert.join().unwrap(), "the INSERT commits");

    assert_eq!(Rig::count(rig.host.db(), "SELECT COUNT(*) FROM t"), 1);
    assert_eq!(Rig::count(rig.dlfm.db(), "SELECT COUNT(*) FROM dfm_file"), 1, "linked");
    assert_eq!(rig.owner(), "dlfm_admin");
    assert_eq!(Rig::count(rig.dlfm.db(), "SELECT COUNT(*) FROM dfm_xact"), 0, "none in doubt");
    assert!(rig.host.coord_log().unfinished_commits().is_empty());
}

#[test]
fn a_host_crash_after_the_resolver_pass_aborts_everywhere() {
    let rig = Rig::new();
    let insert = rig.insert_mid_force();
    rig.host.resolve_indoubts().unwrap();
    // The decision is still in the volatile tail: the crash destroys it.
    rig.host.crash();
    assert!(!insert.join().unwrap(), "a lost decision is an abort");
    rig.host.restart().unwrap();

    assert_eq!(Rig::count(rig.host.db(), "SELECT COUNT(*) FROM t"), 0);
    assert_eq!(Rig::count(rig.dlfm.db(), "SELECT COUNT(*) FROM dfm_file"), 0, "not linked");
    assert_eq!(rig.owner(), "u", "an unlinked file stays its owner's");
    assert_eq!(Rig::count(rig.dlfm.db(), "SELECT COUNT(*) FROM dfm_xact"), 0, "none in doubt");
}
