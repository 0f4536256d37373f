//! Full-stack tests over the socket transport: the host database dials
//! the DLFM through real kernel sockets (TCP and Unix-domain) instead of
//! the in-process fabric, and the paper's §3.3 guarantees must hold
//! unchanged — two-phase link/unlink, crash recovery, and in-doubt
//! resolution are transport-agnostic.
//!
//! The `obs::fault` registry is process-global, so every test takes
//! `SERIAL` (a stray wire fault armed by a parallel test would corrupt
//! these streams).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use datalinks::{dlfm, hostdb, Acked, Deployment};
use dlfm::{DlfmRequest, DlfmResponse, Transport};
use minidb::{Session, Value};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A socket path no other test (or concurrent run) is using.
fn unique_unix_path(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir();
    dir.join(format!(
        "dlfm-wt-{}-{}-{}.sock",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
    .display()
    .to_string()
}

/// The full 2PC workload over one socket transport: link a batch through
/// SQL (one two-phase commit each), unlink part of it, drive a prepared
/// sub-transaction in-doubt across a DLFM crash, and let the resolver
/// finish the job — all RPCs crossing the wire.
fn full_stack_over(listen: Transport) {
    let dep = Deployment::new_wire(
        "fs1",
        dlfm::DlfmConfig::for_tests(),
        hostdb::HostConfig::for_tests(),
        listen,
    );
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
    drop(s);

    // Link 12 files, one acknowledged two-phase commit per row.
    for i in 0..12i64 {
        let path = format!("/f{i}");
        dep.fs.create(&path, "u", b"x").unwrap();
        let mut s = dep.host.session();
        s.exec_params(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            &[Value::Int(i), Value::str(dep.url(&path))],
        )
        .unwrap_or_else(|e| panic!("link of {path} failed over the wire: {e}"));
    }
    // Unlink 4 of them.
    for i in 0..4i64 {
        let mut s = dep.host.session();
        s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(i)]).unwrap();
    }

    // Drive one sub-transaction to PREPARED over a raw wire connection,
    // then crash the DLFM with the vote outstanding: a classic in-doubt.
    let addr = dep.dlfm.listen_addr().expect("wire deployment always listens");
    let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr);
    let conn = connector.connect().unwrap();
    assert_eq!(
        conn.call(DlfmRequest::Connect { dbid: dep.host.dbid() }).unwrap(),
        DlfmResponse::Ok
    );
    let grp_id = dep.host.dl_column("t", "doc").unwrap().grp_id;
    let xid = dep.host.next_xid();
    dep.fs.create("/indoubt", "u", b"x").unwrap();
    assert_eq!(
        conn.call(DlfmRequest::LinkFile {
            xid,
            rec_id: dep.host.next_rec_id(),
            grp_id,
            filename: "/indoubt".into(),
            in_backout: false,
        })
        .unwrap(),
        DlfmResponse::Ok
    );
    assert_eq!(
        conn.call(DlfmRequest::Prepare { xid }).unwrap(),
        DlfmResponse::Prepared { read_only: false }
    );

    dep.dlfm.crash();
    dep.dlfm.restart().unwrap();

    // No commit record exists for `xid`, so the resolver presumed-aborts
    // it; everything else must already be converged: the acked links of
    // /f4../f11 and unlinks of /f0../f3 stand across the crash, and every
    // file not linked is back with its owner.
    let mut audit = dep.audit("/");
    let outcome = |linked| if linked { Acked::Linked } else { Acked::Unlinked("u".into()) };
    audit.acked = (0..12).map(|i| (format!("/f{i}"), outcome(i >= 4))).collect();
    audit.acked.insert("/indoubt".into(), outcome(false));
    let report = audit.settle(Duration::from_secs(30));
    assert!(report.is_clean(), "{report}");
    let mut s = dep.host.session();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 8);

    // Every one of those RPCs really crossed the socket.
    let stats = dep.dlfm.wire_stats().expect("wire deployment exposes server wire stats");
    assert!(
        stats.frames_rx.load(Ordering::Relaxed) > 30,
        "the workload's RPC frames must cross the wire"
    );
}

#[test]
fn full_stack_two_phase_commit_over_tcp() {
    let _s = serial();
    full_stack_over(Transport::Tcp("127.0.0.1:0".into()));
}

#[test]
fn full_stack_two_phase_commit_over_unix_socket() {
    let _s = serial();
    full_stack_over(Transport::Unix(unique_unix_path("fullstack")));
}

/// A wire client that vanishes mid-transaction must release its server
/// session: the dedicated agent exits and rolls the open transaction
/// back, exactly like an in-process hangup (the satellite fix).
#[test]
fn wire_client_drop_mid_transaction_rolls_back_on_the_server() {
    let _s = serial();
    let dep = Deployment::new_wire(
        "fs1",
        dlfm::DlfmConfig::for_tests(),
        hostdb::HostConfig::for_tests(),
        Transport::Unix(unique_unix_path("drop")),
    );
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
    drop(s);
    let grp_id = dep.host.dl_column("t", "doc").unwrap().grp_id;

    let addr = dep.dlfm.listen_addr().unwrap();
    let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr);
    let conn = connector.connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: dep.host.dbid() }).unwrap();
    let xid = dep.host.next_xid();
    dep.fs.create("/gone", "u", b"x").unwrap();
    assert_eq!(
        conn.call(DlfmRequest::LinkFile {
            xid,
            rec_id: dep.host.next_rec_id(),
            grp_id,
            filename: "/gone".into(),
            in_backout: false,
        })
        .unwrap(),
        DlfmResponse::Ok
    );

    // The client goes away mid-transaction (no Prepare, no Abort).
    drop(conn);

    // The server-side agent must notice the hangup, exit, and roll the
    // open transaction back — no link state, no in-doubt entry.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut s = Session::new(dep.dlfm.db());
        let files = s.query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap();
        let xacts = s.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap();
        if files == 0 && xacts == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dropped wire client leaked server state: {files} files, {xacts} xacts"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(dep.fs.stat("/gone").unwrap().owner, "u", "uncommitted link must not take over");
}

/// Health-checking the host's pooled connections over the wire uses
/// transport Pings; a killed server must fail them and a restarted one
/// must be redialed transparently (reconnects counted).
#[test]
fn host_pool_survives_dlfm_socket_restart() {
    let _s = serial();
    let path = unique_unix_path("restart");
    let dep = Deployment::new_wire(
        "fs1",
        dlfm::DlfmConfig::for_tests(),
        hostdb::HostConfig::for_tests(),
        Transport::Unix(path.clone()),
    );
    let mut s = dep.host.session();
    s.create_table(
        "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
        &[hostdb::DatalinkSpec {
            column: "doc".into(),
            access: dlfm::AccessControl::None,
            recovery: false,
        }],
    )
    .unwrap();
    dep.fs.create("/r0", "u", b"x").unwrap();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(dep.url("/r0"))]).unwrap();
    drop(s);

    // Tear the whole wire deployment down (server side of the socket dies
    // with it) and stand a fresh one up on the same path: the host's
    // connector must redial instead of staying wedged on the dead mux.
    let host = dep.host.clone();
    drop(dep);
    let dep2 = Deployment::new_wire(
        "fs2",
        dlfm::DlfmConfig::for_tests(),
        hostdb::HostConfig::for_tests(),
        Transport::Unix(path),
    );
    // `host` still points at the old URL, which is now served by dep2's
    // listener. A fresh transaction must transparently reconnect. (The
    // new DLFM has no groups, so expect a clean DLFM-side error rather
    // than a transport failure — the point is the redial.)
    let mut s = host.session();
    dep2.fs.create("/r1", "u", b"x").unwrap();
    let r = s.exec_params(
        "INSERT INTO t (id, doc) VALUES (2, ?)",
        &[Value::str("dlfs://fs1/r1".to_string())],
    );
    assert!(r.is_err(), "the replacement DLFM does not know the old group: {r:?}");
    drop(s);
    // The failure above must be a NoSuchGroup-style DLFM error reached
    // over a *redialed* socket, not a Disconnected transport error.
    let reconnects = host
        .servers()
        .iter()
        .filter_map(|srv| host.wire_stats(srv))
        .map(|w| w.reconnects())
        .sum::<u64>();
    assert!(reconnects >= 1, "the host connector must have redialed the restarted listener");
}
