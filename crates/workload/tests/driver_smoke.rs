//! Smoke tests for the workload drivers themselves: they must commit work,
//! classify failures, and never panic under contention.

use std::sync::Arc;
use std::time::Duration;

use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec};
use hostdb::{DatalinkSpec, HostConfig, HostDb};
use workload::{
    run_dlfm_workload, run_host_workload, DlfmWorkloadConfig, HostWorkloadConfig, IdSource, OpMix,
};

#[test]
fn dlfm_driver_commits_and_reports() {
    let fs = Arc::new(filesys::FileSystem::new());
    let server = DlfmServer::start(
        DlfmConfig::for_tests(),
        fs.clone(),
        Arc::new(archive::ArchiveServer::new()),
    );
    let conn = server.connector().connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap();
    let resp = conn
        .call(DlfmRequest::RegisterGroup(GroupSpec {
            grp_id: 1,
            dbid: 1,
            table_name: "t".into(),
            column_name: "c".into(),
            access: AccessControl::Partial,
            recovery: false,
        }))
        .unwrap();
    assert_eq!(resp, DlfmResponse::Ok);

    let ids = Arc::new(IdSource::new(100));
    let config = DlfmWorkloadConfig {
        clients: 4,
        duration: Duration::from_millis(400),
        mix: OpMix::paper_mix(),
        seed: 1,
        grp_id: 1,
        base_dir: "/wl".into(),
    };
    let report = run_dlfm_workload(&server.connector(), &fs, &config, &ids);
    assert!(report.committed() > 0, "driver must make progress: {}", report.summary());
    assert!(report.inserts > 0);
    assert_eq!(report.errors, 0, "{}", report.summary());
    // Latency samples recorded for each committed transaction.
    assert_eq!(report.latency.len() as u64, report.committed());
    // The DLFM agrees on the number of live links.
    let mut dl = minidb::Session::new(server.db());
    let linked = dl.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1", &[]).unwrap();
    assert!(linked >= 0);
    assert_eq!(dl.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap(), 0);
}

#[test]
fn host_driver_commits_and_reports() {
    let fs = Arc::new(filesys::FileSystem::new());
    let dlfm_server = DlfmServer::start(
        DlfmConfig::for_tests(),
        fs.clone(),
        Arc::new(archive::ArchiveServer::new()),
    );
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", dlfm_server.connector());
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
        &[DatalinkSpec { column: "clip".into(), access: AccessControl::Partial, recovery: false }],
    )
    .unwrap();
    s.exec("CREATE UNIQUE INDEX ix_media ON media (id)").unwrap();
    host.db().set_table_stats("media", 1_000_000).unwrap();
    host.db().set_index_stats("ix_media", 1_000_000).unwrap();
    drop(s);

    let config = HostWorkloadConfig {
        clients: 4,
        duration: Duration::from_millis(400),
        warmup_ops: 2,
        ..HostWorkloadConfig::default()
    };
    let report = run_host_workload(&host, &fs, &config);
    assert!(report.committed() > 0, "{}", report.summary());
    assert_eq!(report.errors, 0, "{}", report.summary());
    // Host and DLFM agree: every host row's file is linked.
    let mut s = host.session();
    let rows = s.query_int("SELECT COUNT(*) FROM media", &[]).unwrap();
    let mut dl = minidb::Session::new(dlfm_server.db());
    let linked = dl.query_int("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1", &[]).unwrap();
    assert_eq!(rows, linked, "host rows and DLFM links must agree after the run");
}
