//! End-to-end trace propagation: a trace id allocated at the host
//! statement boundary must ride the RPC envelope into the DLFM agent and
//! appear on the spans its local database emits.
//!
//! Kept in its own integration-test binary so the process-global span
//! ring holds only this test's spans.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmServer, TelemetryKind, Transport};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb};
use minidb::Value;
use obs::Layer;

/// The span ring is process-global and `drain_spans` consumes it, so the
/// tests in this binary must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// File server + wire-listening DLFM + host attached by URL: every RPC
/// crosses the frame codec and a kernel socket.
fn wire_stack(listen: Transport) -> (Arc<FileSystem>, DlfmServer, HostDb) {
    let fs = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = listen;
    let dlfm = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));
    let url = dlfm.listen_addr().expect("wire transport binds").to_string();
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm_url("fs1", &url).expect("attach by URL");
    (fs, dlfm, host)
}

/// One linked insert over `listen`; asserts the host statement's trace id
/// shows up on the rpc client span, on the remote agent's `LinkFile`
/// span, and in the span dump the daemon serves over the telemetry RPC.
fn assert_wire_propagation(listen: Transport) {
    let (fs, _dlfm, host) = wire_stack(listen);
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    fs.create("/traced", "u", b"x").unwrap();
    obs::drain_spans();

    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/traced")])
        .unwrap();

    // The daemon's own span dump (served over the telemetry RPC, exactly
    // what a fleet merge consumes) must carry the host trace.
    let dump = host.fetch_telemetry("fs1", TelemetryKind::Spans).expect("span dump over wire");
    let spans = obs::drain_spans();
    let root = spans
        .iter()
        .find(|e| e.layer == Layer::Host && e.op == "stmt" && e.parent_span_id == 0)
        .expect("host statement root span");
    let trace = root.trace_id;

    assert!(
        spans.iter().any(|e| e.layer == Layer::Rpc && e.trace_id == trace),
        "expected an rpc client span under trace {trace:#x}: {spans:#?}"
    );
    assert!(
        spans.iter().any(|e| e.layer == Layer::Dlfm && e.trace_id == trace && e.op == "LinkFile"),
        "expected the remote agent's LinkFile span to share trace {trace:#x}: {spans:#?}"
    );
    let remote = obs::parse_span_dump(&dump);
    assert!(
        remote.iter().any(|r| r.trace_id == trace && r.op == "LinkFile"),
        "daemon's telemetry span dump must carry the host trace {trace:#x}"
    );
}

#[test]
fn wire_trace_id_reaches_remote_agent_over_tcp() {
    let _g = serial();
    assert_wire_propagation(Transport::Tcp("127.0.0.1:0".into()));
}

#[test]
fn wire_trace_id_reaches_remote_agent_over_unix() {
    let _g = serial();
    let path = std::env::temp_dir()
        .join(format!("dlfm-traceprop-{}.sock", std::process::id()))
        .display()
        .to_string();
    let _ = std::fs::remove_file(&path);
    assert_wire_propagation(Transport::Unix(path));
}

#[test]
fn wire_trace_survives_daemon_restart_and_redial() {
    let _g = serial();
    let path = std::env::temp_dir()
        .join(format!("dlfm-redial-{}.sock", std::process::id()))
        .display()
        .to_string();
    let _ = std::fs::remove_file(&path);
    let (fs, dlfm_a, host) = wire_stack(Transport::Unix(path.clone()));
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    fs.create("/before", "u", b"x").unwrap();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/before")])
        .unwrap();
    drop(s);

    // Kill the daemon and bring a fresh one up on the same socket path.
    // The host's pooled connections are now talking to a corpse; the next
    // checkout must retire them and redial.
    drop(dlfm_a);
    let _ = std::fs::remove_file(&path);
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Unix(path);
    let _dlfm_b = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));

    let retired_before = host.metrics().conn_retired.load(std::sync::atomic::Ordering::Relaxed);
    let mut s = host.session();
    // A second table: the restarted daemon has an empty local database,
    // so this registers a fresh group with it.
    s.create_table(
        "CREATE TABLE docs2 (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    fs.create("/after", "u", b"x").unwrap();
    obs::drain_spans();
    s.exec_params("INSERT INTO docs2 (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/after")])
        .unwrap();

    let spans = obs::drain_spans();
    let root = spans
        .iter()
        .find(|e| e.layer == Layer::Host && e.op == "stmt" && e.parent_span_id == 0)
        .expect("host statement root span after redial");
    let trace = root.trace_id;
    assert!(
        spans.iter().any(|e| e.layer == Layer::Dlfm && e.trace_id == trace && e.op == "LinkFile"),
        "after the redial the new daemon's LinkFile span must share trace {trace:#x}"
    );
    let retired_after = host.metrics().conn_retired.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        retired_after > retired_before,
        "the dead daemon's pooled connections must have been retired \
         ({retired_before} -> {retired_after}), or this test exercised no redial"
    );
}

#[test]
fn merged_fleet_trace_is_well_formed_and_spans_two_processes() {
    let _g = serial();
    let (fs, _dlfm, host) = wire_stack(Transport::Tcp("127.0.0.1:0".into()));
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    fs.create("/merged", "u", b"x").unwrap();
    obs::drain_spans();
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/merged")])
        .unwrap();

    let remotes = host.fleet_remote_traces();
    assert_eq!(remotes.len(), 1, "one attached daemon, one remote process trace");
    assert_eq!(remotes[0].name, "dlfm[fs1]");
    assert!(!remotes[0].spans.is_empty(), "remote process trace must carry spans");

    let trace = host.fleet_trace();
    assert!(obs::json_is_well_formed(&trace), "merged fleet trace must be well-formed JSON");
    assert!(
        trace.contains("dlfm[fs1]"),
        "merged trace must name the remote process: {}",
        &trace[..trace.len().min(400)]
    );
    assert!(trace.contains("\"traceEvents\""));
}

#[test]
fn cross_shard_2pc_commit_is_one_trace() {
    let _g = serial();
    // Two wire daemons, each with a private file server; the host routes
    // by path hash once the shard ring is on.
    let fs_a = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Tcp("127.0.0.1:0".into());
    let dlfm_a = DlfmServer::start(config, fs_a.clone(), Arc::new(ArchiveServer::new()));
    let fs_b = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Tcp("127.0.0.1:0".into());
    let dlfm_b = DlfmServer::start(config, fs_b.clone(), Arc::new(ArchiveServer::new()));

    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm_url("sa", &dlfm_a.listen_addr().unwrap().to_string()).unwrap();
    host.attach_dlfm_url("sb", &dlfm_b.listen_addr().unwrap().to_string()).unwrap();
    host.set_shards(&["sa", "sb"]).unwrap();

    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();

    // Find one path routed to each shard; the ring places whole
    // directories, so vary the directory, and seed each path on both file
    // servers so either daemon can take it.
    let map = host.shard_map();
    let mut per_shard: std::collections::BTreeMap<String, String> = Default::default();
    for i in 0..1024 {
        let path = format!("/dir{i}/file");
        let shard = map
            .route(&path, map.epoch(), Duration::from_secs(5))
            .unwrap()
            .expect("ring is enabled")
            .shard;
        per_shard.entry(shard).or_insert_with(|| path.clone());
        if per_shard.len() == 2 {
            break;
        }
    }
    for path in per_shard.values() {
        fs_a.create(path, "u", b"x").unwrap();
        fs_b.create(path, "u", b"x").unwrap();
    }

    obs::drain_spans();
    s.begin().unwrap();
    for (i, path) in per_shard.values().enumerate() {
        s.exec_params(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            &[Value::Int(i as i64), Value::str(format!("dlfs://sa{path}"))],
        )
        .unwrap();
    }
    s.commit().unwrap();

    let spans = obs::drain_spans();
    let commit = spans
        .iter()
        .find(|e| e.layer == Layer::Host && e.op == "commit")
        .expect("host commit span");
    let trace = commit.trace_id;
    let under = |layer: Layer, op: &str| {
        spans.iter().filter(|e| e.layer == layer && e.trace_id == trace && e.op == op).count()
    };
    // Phase 1 and phase 2 ran on BOTH remote agents under the commit's
    // trace — the whole cross-shard 2PC is one coherent trace.
    assert_eq!(under(Layer::Dlfm, "Prepare"), 2, "one Prepare per shard: {spans:#?}");
    assert_eq!(under(Layer::Dlfm, "Commit"), 2, "one Commit per shard: {spans:#?}");
    // Each phase is scattered, then gathered: its two rpc calls are
    // siblings directly under the host commit span (a pending call must
    // not become the thread's context, or the second would nest in the
    // first), and the second is sent before the first is answered. The
    // frame carries the rpc span's id, so every agent span names its call.
    let rpc_of = |op: &str| -> Vec<&obs::SpanEvent> {
        let mut calls: Vec<_> = spans
            .iter()
            .filter(|e| e.layer == Layer::Dlfm && e.trace_id == trace && e.op == op)
            .map(|agent| {
                spans
                    .iter()
                    .find(|e| e.layer == Layer::Rpc && e.span_id == agent.parent_span_id)
                    .unwrap_or_else(|| panic!("{op} agent span has no rpc parent: {spans:#?}"))
            })
            .collect();
        calls.sort_by_key(|e| e.start_micros);
        calls
    };
    for op in ["Prepare", "Commit"] {
        let calls = rpc_of(op);
        assert_eq!(calls.len(), 2);
        for call in &calls {
            assert_eq!(
                call.parent_span_id, commit.span_id,
                "{op} rpc spans are siblings under the host commit span: {spans:#?}"
            );
        }
        let first_end = calls[0].start_micros + calls[0].duration.as_micros() as u64;
        assert!(
            calls[1].start_micros < first_end,
            "the second {op} must start before the first ends: {calls:#?}"
        );
    }
    // The DLFM side did real SQL under the same trace (lock/WAL activity
    // shows up as minidb spans parented under the agents).
    assert!(
        spans.iter().any(|e| e.layer == Layer::Minidb && e.trace_id == trace),
        "remote local-database spans must share the commit trace"
    );
}

#[test]
fn host_trace_id_reaches_minidb_spans_through_the_dlfm_agent() {
    let _g = serial();
    let fs = Arc::new(FileSystem::new());
    let dlfm =
        DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", dlfm.connector());
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    fs.create("/traced", "u", b"x").unwrap();

    // Setup produced spans of its own; start the measured window clean.
    obs::drain_spans();

    // One autocommit INSERT: host stmt -> rpc -> agent LinkFile ->
    // DLFM-local SQL, then host commit -> Prepare/Commit on the agent.
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fs1/traced")])
        .unwrap();

    let spans = obs::drain_spans();
    let host_roots: Vec<_> = spans
        .iter()
        .filter(|e| e.layer == Layer::Host && e.op == "stmt" && e.parent_span_id == 0)
        .collect();
    assert_eq!(host_roots.len(), 1, "one host statement, one root span: {spans:#?}");
    let trace = host_roots[0].trace_id;

    // The trace crossed the RPC fabric: a DLFM agent span carries it.
    let agent: Vec<_> =
        spans.iter().filter(|e| e.layer == Layer::Dlfm && e.trace_id == trace).collect();
    assert!(
        agent.iter().any(|e| e.op == "LinkFile"),
        "expected a Dlfm LinkFile span under trace {trace:#x}: {agent:#?}"
    );

    // ... and reached the DLFM's local database: a Minidb span both
    // carries the trace id and hangs off an agent span, so it cannot be
    // one of the host database's own spans.
    let agent_span_ids: Vec<u64> = agent.iter().map(|e| e.span_id).collect();
    assert!(
        spans.iter().any(|e| e.layer == Layer::Minidb
            && e.trace_id == trace
            && agent_span_ids.contains(&e.parent_span_id)),
        "expected a Minidb span parented under a Dlfm agent span: {spans:#?}"
    );
}
