//! Agent-model integration tests: the session-multiplexed pool serves the
//! full link/unlink/2PC stack, both settings keep every connection's state
//! in the one session table, and the paper's §4 behaviour is pinned to the
//! dedicated model.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datalinks::{archive, dlfm, filesys, hostdb, Deployment};
use dlfm::{AccessControl, AgentModel, DlfmConfig, DlfmServer};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb};
use minidb::{Session, Value};

fn pooled_config(workers: usize, queue_depth: usize) -> DlfmConfig {
    let mut c = DlfmConfig::for_tests();
    c.agent_model = AgentModel::pooled(workers, queue_depth);
    c
}

fn pooled_deployment(workers: usize) -> Deployment {
    Deployment::new("fs1", pooled_config(workers, 32), HostConfig::for_tests())
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn pooled_agents_serve_link_unlink_and_2pc_through_sql() {
    let dep = pooled_deployment(4);
    assert_eq!(dep.dlfm.agents_spawned(), 4, "pool spawns exactly the configured workers");

    let mut s = dep.host.session();
    s.create_table(
        "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
        &[DatalinkSpec { column: "clip".into(), access: AccessControl::Full, recovery: true }],
    )
    .unwrap();
    dep.fs.create("/v/a.mpg", "alice", b"a").unwrap();
    dep.fs.create("/v/b.mpg", "alice", b"b").unwrap();

    // Insert links (implicit transaction: link + prepare + commit).
    s.exec_params(
        "INSERT INTO media (id, title, clip) VALUES (1, 'A', ?)",
        &[Value::str(dep.url("/v/a.mpg"))],
    )
    .unwrap();
    assert_eq!(dep.fs.stat("/v/a.mpg").unwrap().owner, "dlfm_admin");

    // Update swaps the link atomically (unlink + link in one transaction).
    s.exec_params("UPDATE media SET clip = ? WHERE id = 1", &[Value::str(dep.url("/v/b.mpg"))])
        .unwrap();
    assert_eq!(dep.fs.stat("/v/a.mpg").unwrap().owner, "alice");
    assert_eq!(dep.fs.stat("/v/b.mpg").unwrap().owner, "dlfm_admin");

    // Explicit transaction rollback undoes the DLFM-side work.
    dep.fs.create("/v/c.mpg", "alice", b"c").unwrap();
    s.begin().unwrap();
    s.exec_params(
        "INSERT INTO media (id, title, clip) VALUES (2, 'C', ?)",
        &[Value::str(dep.url("/v/c.mpg"))],
    )
    .unwrap();
    s.rollback();
    assert_eq!(dep.fs.stat("/v/c.mpg").unwrap().owner, "alice");

    // Delete unlinks.
    s.exec("DELETE FROM media WHERE id = 1").unwrap();
    assert_eq!(dep.fs.stat("/v/b.mpg").unwrap().owner, "alice");

    // Still exactly the configured workers, no matter how much traffic ran.
    assert_eq!(dep.dlfm.agents_spawned(), 4);
    let mut dl = Session::new(dep.dlfm.db());
    assert_eq!(dl.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap(), 0, "nothing indoubt");
}

#[test]
fn pooled_agents_multiplex_many_concurrent_sessions() {
    // 8 concurrent host sessions funnel through 2 pool workers.
    let dep = pooled_deployment(2);
    {
        let mut s = dep.host.session();
        s.create_table(
            "CREATE TABLE media (id BIGINT NOT NULL, title VARCHAR, clip DATALINK)",
            &[DatalinkSpec { column: "clip".into(), access: AccessControl::Full, recovery: true }],
        )
        .unwrap();
    }
    let mut handles = Vec::new();
    for c in 0..8 {
        let host = dep.host.clone();
        let fs = dep.fs.clone();
        let url_base = dep.server_name.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = host.session();
            for i in 0..5 {
                let id = (c * 100 + i) as i64;
                let path = format!("/v/c{c}_{i}.mpg");
                fs.create(&path, "u", b"x").unwrap();
                s.exec_params(
                    "INSERT INTO media (id, title, clip) VALUES (?, 'x', ?)",
                    &[Value::Int(id), Value::str(format!("dlfs://{url_base}{path}"))],
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = dep.host.session();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM media", &[]).unwrap(), 40);
    assert_eq!(dep.dlfm.agents_spawned(), 2, "worker count stays fixed under 8 clients");
}

#[test]
fn pooled_session_state_is_retired_on_hangup() {
    for model in [AgentModel::pooled(2, 32), AgentModel::Dedicated] {
        let config = DlfmConfig { agent_model: model, ..DlfmConfig::for_tests() };
        let dep = Deployment::new("fs1", config, HostConfig::for_tests());
        let before = dep.dlfm.shared().sessions.active();
        let conn = dep.dlfm.connector().connect().unwrap();
        conn.call(dlfm::DlfmRequest::Connect { dbid: dep.host.dbid() }).unwrap();
        assert!(dep.dlfm.shared().sessions.active() > before, "{model}: state parks in the table");
        drop(conn); // the hangup
        wait_until("session state retired", || dep.dlfm.shared().sessions.active() == before);
    }
}

/// The paper's child agent per connection runs through the session table
/// too, so the status page and the session gauge see its connections.
#[test]
fn dedicated_connections_show_on_the_status_page_and_the_session_gauge() {
    let config = DlfmConfig::for_tests();
    assert_eq!(config.agent_model, AgentModel::Dedicated);
    let dep = Deployment::new("fs1", config, HostConfig::for_tests());
    dep.fs.create("/v/open.mpg", "alice", b"x").unwrap();
    let conn = dep.dlfm.connector().connect().unwrap();
    let dbid = dep.host.dbid();
    conn.call(dlfm::DlfmRequest::Connect { dbid }).unwrap();
    conn.call(dlfm::DlfmRequest::RegisterGroup(dlfm::GroupSpec {
        grp_id: 7,
        dbid,
        table_name: "media".into(),
        column_name: "clip".into(),
        access: AccessControl::Full,
        recovery: false,
    }))
    .unwrap();
    let link = dlfm::DlfmRequest::LinkFile {
        xid: 42,
        rec_id: 1,
        grp_id: 7,
        filename: "/v/open.mpg".into(),
        in_backout: false,
    };
    assert!(matches!(conn.call(link).unwrap(), dlfm::DlfmResponse::Ok));

    let status = dep.dlfm.status_text();
    let line = format!("session#{}: dbid#{dbid} xid#42 open", conn.session());
    assert!(status.contains("agent model: dedicated"), "{status}");
    assert!(status.contains("sessions: 1\n"), "{status}");
    assert!(status.contains(&line), "want {line:?} in\n{status}");
    assert!(dep.dlfm.metrics_text().contains("dlfm_sessions_active 1\n"));

    drop(conn); // the pinned agent delivers the hangup: xid#42 rolls back
    wait_until("session state retired", || dep.dlfm.shared().sessions.active() == 0);
    assert!(dep.dlfm.metrics_text().contains("dlfm_sessions_active 0\n"));
    assert_eq!(dep.fs.stat("/v/open.mpg").unwrap().owner, "alice", "the link never committed");
}

#[test]
fn pooled_transaction_spanning_two_dlfms_commits_atomically() {
    // Paper Figure 1 with both file servers on pooled agents.
    let fs1 = Arc::new(FileSystem::new());
    let fs2 = Arc::new(FileSystem::new());
    let d1 = DlfmServer::start(
        pooled_config(2, 16),
        fs1.clone(),
        Arc::new(archive::ArchiveServer::new()),
    );
    let d2 = DlfmServer::start(
        pooled_config(2, 16),
        fs2.clone(),
        Arc::new(archive::ArchiveServer::new()),
    );
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", d1.connector());
    host.attach_dlfm("fs2", d2.connector());
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE pairs (id BIGINT NOT NULL, a DATALINK, b DATALINK)",
        &[
            DatalinkSpec { column: "a".into(), access: AccessControl::Full, recovery: false },
            DatalinkSpec { column: "b".into(), access: AccessControl::Full, recovery: false },
        ],
    )
    .unwrap();
    fs1.create("/x", "u", b"x").unwrap();
    fs2.create("/y", "u", b"y").unwrap();

    s.begin().unwrap();
    s.exec_params(
        "INSERT INTO pairs (id, a, b) VALUES (1, ?, ?)",
        &[Value::str("dlfs://fs1/x"), Value::str("dlfs://fs2/y")],
    )
    .unwrap();
    s.commit().unwrap();
    assert_eq!(fs1.stat("/x").unwrap().owner, "dlfm_admin");
    assert_eq!(fs2.stat("/y").unwrap().owner, "dlfm_admin");

    // And an abort rolls back both sides.
    fs1.create("/x2", "u", b"").unwrap();
    fs2.create("/y2", "u", b"").unwrap();
    s.begin().unwrap();
    s.exec_params(
        "INSERT INTO pairs (id, a, b) VALUES (2, ?, ?)",
        &[Value::str("dlfs://fs1/x2"), Value::str("dlfs://fs2/y2")],
    )
    .unwrap();
    s.rollback();
    assert_eq!(fs1.stat("/x2").unwrap().owner, "u");
    assert_eq!(fs2.stat("/y2").unwrap().owner, "u");
}

/// Pins the paper's §4 scenario to the dedicated model: with asynchronous
/// commit, T1's phase-2 processing keeps its dedicated child agent busy,
/// T11's request blocks on the rendezvous send, and T2's host wait on
/// record x closes a cycle no local detector can see. The livelock window
/// (phase-2 retries mounting while T11 is stuck) must still be observable —
/// the pooled refactor must not have changed the dedicated model's
/// synchronous-send semantics.
#[test]
fn dedicated_async_commit_still_forms_the_section4_cycle() {
    let mut dlfm_config = DlfmConfig::default();
    dlfm_config.db.lock_timeout = Duration::from_millis(300);
    dlfm_config.commit_retry_backoff = Duration::from_millis(10);
    dlfm_config.daemon_poll_interval = Duration::from_millis(5);
    assert_eq!(dlfm_config.agent_model, AgentModel::Dedicated);
    let mut host_config = HostConfig::default();
    host_config.db.lock_timeout = Duration::from_secs(2); // eventually breaks the cycle
    host_config.synchronous_commit = false; // the paper's broken async API

    let dep = Deployment::new("fs1", dlfm_config, host_config);
    let mut setup = dep.host.session();
    setup
        .create_table(
            "CREATE TABLE media (id BIGINT NOT NULL, clip DATALINK)",
            &[DatalinkSpec {
                column: "clip".into(),
                access: AccessControl::Partial,
                recovery: false,
            }],
        )
        .unwrap();
    setup.exec("CREATE TABLE acct (id BIGINT NOT NULL, bal BIGINT)").unwrap();
    setup.exec("CREATE UNIQUE INDEX ix_acct ON acct (id)").unwrap();
    setup.exec("INSERT INTO acct (id, bal) VALUES (99, 0)").unwrap();
    dep.host.db().set_table_stats("acct", 1_000_000).unwrap();
    dep.host.db().set_index_stats("ix_acct", 1_000_000).unwrap();
    dep.fs.create("/t1", "u", b"").unwrap();
    dep.fs.create("/t11", "u", b"").unwrap();
    drop(setup);

    let metrics0 = dep.dlfm.metrics().snapshot();

    // T1: insert + link, left uncommitted for a moment.
    let mut a = dep.host.session();
    a.begin().unwrap();
    a.exec_params("INSERT INTO media (id, clip) VALUES (1, ?)", &[Value::str(dep.url("/t1"))])
        .unwrap();
    let t1_xid = a.xid().unwrap();

    // T2's DLFM-side lock: queues for T1's File-table entry and holds T1's
    // phase-2 commit processing hostage until released.
    let dlfm_db = dep.dlfm.db().clone();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let interloper = std::thread::spawn(move || {
        let mut s = Session::new(&dlfm_db);
        s.begin().unwrap();
        s.exec_params(
            "UPDATE dfm_file SET unlink_ts = 1 WHERE link_xid = ?",
            &[Value::Int(t1_xid)],
        )
        .unwrap();
        let _ = release_rx.recv_timeout(Duration::from_secs(30));
        s.rollback();
    });
    std::thread::sleep(Duration::from_millis(50));

    // A commits T1 (async: returns after posting), then starts T11 on the
    // same connection: X-lock host record x, then a datalink request that
    // must reach the busy dedicated child agent.
    let (a_tx, a_rx) = mpsc::channel();
    let dep_url = dep.url("/t11");
    let a_thread = std::thread::spawn(move || {
        a.commit().unwrap();
        a_tx.send("t1-committed").unwrap();
        a.begin().unwrap();
        a.exec("UPDATE acct SET bal = 1 WHERE id = 99").unwrap();
        a_tx.send("t11-holds-x").unwrap();
        a.exec_params("INSERT INTO media (id, clip) VALUES (2, ?)", &[Value::str(dep_url)])
            .unwrap();
        a.commit().unwrap();
        a_tx.send("t11-done").unwrap();
    });

    // T2's host transaction needs record x; it blocks behind T11 until the
    // host lock timeout fires, then releases the DLFM-side lock.
    let host_b = dep.host.clone();
    let b_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let mut b = host_b.session();
        b.begin().unwrap();
        match b.exec("UPDATE acct SET bal = 2 WHERE id = 99") {
            Ok(_) => {
                let _ = b.commit();
            }
            Err(_) => b.rollback(),
        }
        let _ = release_tx.send(());
    });

    // The livelock window: phase-2 retries mount while T11 is stuck. Poll
    // rather than sleep a fixed interval so the assertion is not a race.
    let mut events = Vec::new();
    wait_until("phase-2 retries while T11 is blocked", || {
        while let Ok(e) = a_rx.try_recv() {
            events.push(e);
        }
        dep.dlfm.metrics().snapshot().delta(&metrics0).phase2_retries >= 2
    });
    assert!(
        !events.contains(&"t11-done"),
        "T11 must be stuck behind the busy child agent while phase 2 retries"
    );

    // Only the host lock timeout cures it: everything drains eventually.
    a_thread.join().unwrap();
    b_thread.join().unwrap();
    interloper.join().unwrap();
    while let Ok(e) = a_rx.try_recv() {
        events.push(e);
    }
    assert!(events.contains(&"t11-done"), "the cycle must break once the lock timeout fires");
}
