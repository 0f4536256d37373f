//! The statement round: a statement's link/unlink operations go to each
//! shard as one `Batch`, and under autocommit the `Prepare` rides on it
//! (the unsolicited vote), so a linked-row write costs two calls — the
//! round and the Commit.
//!
//! Costs are checked as `RpcStats::calls()` deltas (counts, not clocks).
//! Two in-process shards `sa` < `sb`; `obs::fault` and the span ring are
//! process-global, so the tests take `SERIAL`.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DbErrorKind, DlfmConfig, DlfmError, DlfmRequest, DlfmResponse, DlfmServer,
    Transport, MAX_BATCH_OPS,
};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb, HostError};
use minidb::{Session, Value};
use obs::fault::{self, Trigger};
use obs::Layer;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const ADMIN: &str = "dlfm_admin";
const INSERT: &str = "INSERT INTO t (id, doc) VALUES (?, ?)";

struct Rig {
    fs: Arc<FileSystem>,
    sa: DlfmServer,
    sb: DlfmServer,
    host: HostDb,
    /// Directories the ring routes to `sa` and to `sb`.
    dir_a: String,
    dir_b: String,
}

impl Rig {
    fn new() -> Rig {
        let fs = Arc::new(FileSystem::new());
        let archive = Arc::new(ArchiveServer::new());
        let sa = DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive.clone());
        let sb = DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive);
        let host = HostDb::new(HostConfig::for_tests());
        host.attach_dlfm("sa", sa.connector());
        host.attach_dlfm("sb", sb.connector());
        host.set_shards(&["sa", "sb"]).unwrap();
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
        // The ring places whole directories: find one per shard.
        let map = host.shard_map();
        let mut per_shard = BTreeMap::new();
        for i in 0..1024 {
            let dir = format!("/d{i}");
            let routed = map.route(&format!("{dir}/f"), map.epoch(), Duration::from_secs(5));
            per_shard.entry(routed.unwrap().expect("ring is enabled").shard).or_insert(dir);
            if per_shard.len() == 2 {
                break;
            }
        }
        let (dir_a, dir_b) = (per_shard["sa"].clone(), per_shard["sb"].clone());
        Rig { fs, sa, sb, host, dir_a, dir_b }
    }

    /// Create file `name` in `dir`; returns (path, datalink URL value).
    fn file(&self, dir: &str, name: &str) -> (String, Value) {
        let path = format!("{dir}/{name}");
        self.fs.create(&path, "u", b"x").unwrap();
        let url = Value::str(format!("dlfs://sa{path}"));
        (path, url)
    }

    fn calls(&self) -> (u64, u64) {
        (self.sa.connector().stats().calls(), self.sb.connector().stats().calls())
    }

    fn count(shard: &DlfmServer, sql: &str) -> i64 {
        Session::new(shard.db()).query_int(sql, &[]).unwrap()
    }

    fn linked(shard: &DlfmServer) -> i64 {
        Rig::count(shard, "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1")
    }

    fn host_count(&self, sql: &str) -> i64 {
        Session::new(self.host.db()).query_int(sql, &[]).unwrap()
    }

    fn owner(&self, path: &str) -> String {
        self.fs.stat(path).unwrap().owner
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn an_autocommit_write_is_the_round_and_the_commit() {
    let _s = serial();
    let rig = Rig::new();
    let (_, f1) = rig.file(&rig.dir_a, "f1");
    let (p2, f2) = rig.file(&rig.dir_a, "f2");
    let (_, f0) = rig.file(&rig.dir_a, "f0");
    let mut s = rig.host.session();
    // The session's first statement also pays for its connection.
    s.exec_params(INSERT, &[Value::Int(0), f0]).unwrap();

    let m = rig.host.metrics();
    let host_before = (
        m.links.load(Relaxed),
        m.unlinks.load(Relaxed),
        m.dl_rounds.load(Relaxed),
        m.unsolicited_votes.load(Relaxed),
        m.twopc_commits.load(Relaxed),
    );
    let dlfm_before = rig.sa.metrics().snapshot();
    let (a0, b0) = rig.calls();
    s.exec_params(INSERT, &[Value::Int(1), f1]).unwrap();
    assert_eq!(rig.calls(), (a0 + 2, b0), "INSERT: [LinkFile, Prepare] + Commit");
    assert_eq!(s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[f2]).unwrap().count(), 1);
    assert_eq!(rig.calls(), (a0 + 4, b0), "UPDATE: [UnlinkFile, LinkFile, Prepare] + Commit");
    assert_eq!(s.exec("DELETE FROM t WHERE id = 1").unwrap().count(), 1);
    assert_eq!(rig.calls(), (a0 + 6, b0), "DELETE: [UnlinkFile, Prepare] + Commit");

    let host_after = (
        m.links.load(Relaxed),
        m.unlinks.load(Relaxed),
        m.dl_rounds.load(Relaxed),
        m.unsolicited_votes.load(Relaxed),
        m.twopc_commits.load(Relaxed),
    );
    assert_eq!(
        host_after,
        (
            host_before.0 + 2,
            host_before.1 + 2,
            host_before.2 + 3,
            host_before.3 + 3,
            host_before.4 + 3
        ),
        "links/unlinks count operations; rounds and votes count statements"
    );
    let d = rig.sa.metrics().snapshot().delta(&dlfm_before);
    assert_eq!((d.links, d.unlinks, d.prepares, d.commits, d.batches), (2, 2, 3, 3, 3));
    assert_eq!(rig.owner(&p2), "u", "the last link was deleted again");
    assert_eq!(Rig::linked(&rig.sa), 1);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 1);
    let text = rig.host.metrics_text();
    assert!(text.contains(&format!("hostdb_unsolicited_votes_total {}", host_after.3)), "{text}");
    assert!(text.contains(&format!("hostdb_dl_rounds_total {}", host_after.2)));
    assert!(rig.host.status_text().contains("statement rounds"));

    // A statement that touches no file costs no call at all.
    s.exec_params(INSERT, &[Value::Int(9), Value::Null]).unwrap();
    assert_eq!(s.exec("DELETE FROM t WHERE id = 777").unwrap().count(), 0);
    assert_eq!(rig.calls(), (a0 + 6, b0));
    assert_eq!(m.unsolicited_votes.load(Relaxed), host_after.3);
}

#[test]
fn an_explicit_transaction_gets_the_round_but_votes_at_commit() {
    let _s = serial();
    let rig = Rig::new();
    let (p1, f1) = rig.file(&rig.dir_a, "f1");
    let (p2, f2) = rig.file(&rig.dir_a, "f2");
    let mut s = rig.host.session();
    s.exec_params(INSERT, &[Value::Int(1), f1]).unwrap();
    let votes = rig.host.metrics().unsolicited_votes.load(Relaxed);
    let prepares = rig.sa.metrics().snapshot().prepares;

    let (a0, b0) = rig.calls();
    s.begin().unwrap();
    s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[f2]).unwrap();
    assert_eq!(rig.calls(), (a0 + 1, b0), "one round: [UnlinkFile, LinkFile]");
    assert_eq!(rig.sa.metrics().snapshot().prepares, prepares, "nobody voted yet");
    s.commit().unwrap();
    assert_eq!(rig.calls(), (a0 + 3, b0), "then Prepare and Commit, as ever");
    assert_eq!(rig.host.metrics().unsolicited_votes.load(Relaxed), votes);
    assert_eq!((rig.owner(&p1), rig.owner(&p2)), ("u".to_string(), ADMIN.to_string()));
}

#[test]
fn a_cross_shard_update_is_two_overlapping_calls_per_shard() {
    let _s = serial();
    let rig = Rig::new();
    let (pa, fa) = rig.file(&rig.dir_a, "f");
    let (pb, fb) = rig.file(&rig.dir_b, "f");
    let (_, warm) = rig.file(&rig.dir_b, "warm");
    let mut s = rig.host.session();
    s.exec_params(INSERT, &[Value::Int(1), fa]).unwrap();
    s.exec_params(INSERT, &[Value::Int(2), warm]).unwrap();

    let (a0, b0) = rig.calls();
    obs::drain_spans();
    s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[fb]).unwrap();
    assert_eq!(rig.calls(), (a0 + 2, b0 + 2), "[Unlink, Prepare] / [Link, Prepare], 2 Commits");
    assert_eq!((rig.owner(&pa), rig.owner(&pb)), ("u".to_string(), ADMIN.to_string()));
    assert_eq!((Rig::linked(&rig.sa), Rig::linked(&rig.sb)), (0, 2));

    // Both batches were on their way before either was answered: their rpc
    // spans are siblings under the statement and overlap in time; each
    // member's span hangs off its batch's call.
    let spans = obs::drain_spans();
    let stmt = spans.iter().find(|e| e.layer == Layer::Host && e.op == "stmt").expect("stmt span");
    let call_of = |op: &str| {
        let member = spans
            .iter()
            .find(|e| e.layer == Layer::Dlfm && e.op == op && e.trace_id == stmt.trace_id)
            .unwrap_or_else(|| panic!("no {op} span: {spans:#?}"));
        spans
            .iter()
            .find(|e| e.layer == Layer::Rpc && e.span_id == member.parent_span_id)
            .unwrap_or_else(|| panic!("{op} has no rpc parent"))
    };
    let (unlink_call, link_call) = (call_of("UnlinkFile"), call_of("LinkFile"));
    assert_ne!(unlink_call.span_id, link_call.span_id, "one call per shard");
    assert_eq!(unlink_call.parent_span_id, stmt.span_id);
    assert_eq!(link_call.parent_span_id, stmt.span_id);
    let end = |e: &obs::SpanEvent| e.start_micros + e.duration.as_micros() as u64;
    assert!(
        link_call.start_micros <= end(unlink_call) && unlink_call.start_micros <= end(link_call)
    );
    let prepares = spans
        .iter()
        .filter(|e| e.layer == Layer::Dlfm && e.op == "Prepare" && e.trace_id == stmt.trace_id)
        .map(|e| e.parent_span_id)
        .collect::<Vec<_>>();
    assert_eq!(prepares.len(), 2);
    assert!(prepares.contains(&unlink_call.span_id) && prepares.contains(&link_call.span_id));
}

#[test]
fn a_member_that_fails_ahead_of_the_vote_keeps_the_prepare_from_running() {
    let _s = serial();
    let rig = Rig::new();
    let (p1, f1) = rig.file(&rig.dir_a, "f1");
    let mut s = rig.host.session();
    s.exec_params(INSERT, &[Value::Int(1), f1]).unwrap();
    let m = rig.host.metrics();
    let before = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));
    let prepares = rig.sa.metrics().snapshot().prepares;
    let missing = Value::str(format!("dlfs://sa{}/nowhere", rig.dir_a));

    // INSERT: the only member fails.
    let (a0, b0) = rig.calls();
    let err = s.exec_params(INSERT, &[Value::Int(2), missing.clone()]).unwrap_err();
    assert!(
        matches!(&err, HostError::Dlfm { error: DlfmError::NoSuchFile(_), txn_rolled_back: false }),
        "got {err:?}"
    );
    assert_eq!(rig.calls(), (a0 + 2, b0), "the round, and the Abort of the rollback");
    // UPDATE: the unlink ahead of it had succeeded and is undone with it.
    let err = s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[missing]).unwrap_err();
    assert!(matches!(&err, HostError::Dlfm { error: DlfmError::NoSuchFile(_), .. }), "got {err:?}");

    assert_eq!(rig.sa.metrics().snapshot().prepares, prepares, "no Prepare member ever ran");
    assert_eq!(m.prepare_failures.load(Relaxed), before.0, "a statement error is not a no-vote");
    assert_eq!(m.rollbacks.load(Relaxed), before.1 + 2);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 1, "no local row");
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 1);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_file"), 1, "nothing linked");
    assert_eq!(Rig::linked(&rig.sa), 1, "and the old link is still a link");
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(rig.owner(&p1), ADMIN);
    s.exec("DELETE FROM t WHERE id = 1").expect("session and shard are fine");
}

#[test]
fn a_no_vote_on_the_round_is_a_counted_global_abort() {
    let _s = serial();
    // A participant that does every operation and then refuses to prepare,
    // whichever way it is asked; it counts the Aborts it is sent.
    let (listener, connector) =
        dlrpc::fabric::<DlfmRequest, DlfmResponse>(dlrpc::AgentModel::Dedicated);
    let aborts = Arc::new(AtomicU64::new(0));
    let seen = aborts.clone();
    let no = || {
        DlfmResponse::Err(DlfmError::Db {
            msg: "log full".into(),
            retryable: false,
            kind: DbErrorKind::LogFull,
        })
    };
    let mut fake = dlrpc::serve(listener, move || {
        let seen = seen.clone();
        move |ev: dlrpc::PoolEvent<DlfmRequest>, slot: dlrpc::ReplySlot<DlfmResponse>| {
            let dlrpc::PoolEvent::Request { req, .. } = ev else { return };
            let one = |req: &DlfmRequest| match req {
                DlfmRequest::Prepare { .. } => no(),
                _ => DlfmResponse::Ok,
            };
            slot.send(match &req {
                DlfmRequest::Batch(members) => {
                    DlfmResponse::Batch(members.iter().map(one).collect())
                }
                DlfmRequest::Abort { .. } => {
                    seen.fetch_add(1, Relaxed);
                    DlfmResponse::Ok
                }
                other => one(other),
            })
        }
    });
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fake", connector.clone());
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    let m = host.metrics();
    let before = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));
    let calls = connector.stats().calls();

    let err = s.exec_params(INSERT, &[Value::Int(1), Value::str("dlfs://fake/x")]).unwrap_err();
    assert!(
        matches!(&err, HostError::PrepareFailed { server, reason } if server == "fake" && reason.contains("log full")),
        "got {err:?}"
    );
    // The accounting of a separate phase 1 (`fanout_2pc.rs`), each once.
    assert_eq!(m.prepare_failures.load(Relaxed), before.0 + 1);
    assert_eq!(m.rollbacks.load(Relaxed), before.1 + 1);
    assert_eq!(aborts.load(Relaxed), 1, "the participant was told to abort, once");
    assert_eq!(connector.stats().calls(), calls + 2, "the round and the Abort: no Prepare call");
    assert_eq!(m.unsolicited_votes.load(Relaxed), 1, "the vote did ride on the round");
    assert_eq!(Session::new(host.db()).query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 0);
    assert!(host.coord_log().unfinished_commits().is_empty());
    drop(s);
    fake.shutdown();
}

#[test]
fn a_vote_that_hardened_and_was_lost_is_presumed_abort() {
    let _s = serial();
    let rig = Rig::new();
    let (p1, f1) = rig.file(&rig.dir_a, "f1");
    let mut s = rig.host.session();
    let m = rig.host.metrics();
    let before = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));

    // The Prepare member hardens, then the shard dies before the batch's
    // reply: in doubt on the shard, no decision on the host.
    let guard = fault::install_guarded(5, &[("dlfm.prepare.crash_before_ack", Trigger::Nth(1))]);
    let err = s.exec_params(INSERT, &[Value::Int(1), f1]).unwrap_err();
    drop(guard);
    assert!(
        matches!(&err, HostError::PrepareFailed { server, .. } if server == "sa"),
        "got {err:?}"
    );
    assert_eq!(m.prepare_failures.load(Relaxed), before.0 + 1);
    assert_eq!(m.rollbacks.load(Relaxed), before.1 + 1);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 0, "the host aborted");
    assert!(rig.host.coord_log().unfinished_commits().is_empty());

    rig.sa.restart().unwrap();
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 1, "the prepare survived");
    rig.host.resolve_indoubts().unwrap();
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(rig.owner(&p1), "u", "never taken over");
}

#[test]
fn a_round_lost_in_transit_with_the_vote_on_it_is_a_lost_vote() {
    let _s = serial();
    // One shard behind a Unix socket, whose connection dies under the
    // batch that carries the Prepare.
    let sock = std::env::temp_dir().join(format!("dlfm-round-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let fs = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Unix(sock.display().to_string());
    let shard = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));
    let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(
        shard.listen_addr().expect("wire transport binds"),
    );
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("w", connector.clone());
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    for path in ["/f0", "/f1", "/f2"] {
        fs.create(path, "u", b"x").unwrap();
    }
    s.exec_params(INSERT, &[Value::Int(0), Value::str("dlfs://w/f0")]).unwrap();
    let m = host.metrics();
    let before = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));
    let votes = m.unsolicited_votes.load(Relaxed);

    // The next frame the host writes is [LinkFile, Prepare]: the socket is
    // reset under it.
    let guard = fault::install_guarded(9, &[("rpc.wire.reset", Trigger::Times(1))]);
    let err = s.exec_params(INSERT, &[Value::Int(1), Value::str("dlfs://w/f1")]).unwrap_err();
    drop(guard);
    assert!(matches!(&err, HostError::Rpc(_)), "got {err:?}");
    // Not a failed statement but a failed phase 1: the accounting
    // `fanout_2pc.rs` pins for a Prepare call lost in transit.
    assert_eq!(m.prepare_failures.load(Relaxed), before.0 + 1);
    assert_eq!(m.rollbacks.load(Relaxed), before.1 + 1);
    assert_eq!(m.unsolicited_votes.load(Relaxed), votes + 1, "the lost vote rode on the round");
    // The connection's reader thread counts the death when it sees it.
    wait_until("the dead connection to be noticed", || connector.epoch() != 0);
    assert_eq!(connector.epoch(), 1, "the connection died, once");
    assert!(host.coord_log().unfinished_commits().is_empty());
    assert_eq!(Session::new(host.db()).query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    wait_until("the shard to drop the dead connection's work", || {
        Rig::count(&shard, "SELECT COUNT(*) FROM dfm_file") == 1
    });
    assert_eq!(Rig::count(&shard, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(fs.stat("/f1").unwrap().owner, "u");

    // The dead connection was retired with the vote: the session redials.
    s.exec_params(INSERT, &[Value::Int(2), Value::str("dlfs://w/f2")]).unwrap();
    assert_eq!(fs.stat("/f2").unwrap().owner, ADMIN);
    assert_eq!(m.prepare_failures.load(Relaxed), before.0 + 1);
    drop(s);
    drop(shard);
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn a_stale_host_record_is_a_host_error_after_the_dlfm_said_yes() {
    let _s = serial();
    let rig = Rig::new();
    let (p1, f1) = rig.file(&rig.dir_a, "f1");
    let (p2, f2) = rig.file(&rig.dir_a, "f2");
    // `sys_datalinks` claims a link no DLFM knows of (what Reconcile
    // repairs). The DLFM is asked first and agrees, so the refusal is the
    // host's own and must not pose as a DLFM answer.
    Session::new(rig.host.db())
        .exec_params(
            "INSERT INTO sys_datalinks (tbl, col, server, filename, rec_id) \
             VALUES ('t', 'doc', 'sa', ?, 1)",
            &[Value::str(p1.clone())],
        )
        .unwrap();
    let stale = |err: &HostError| match err {
        HostError::Db(minidb::DbError::UniqueViolation { index, .. }) => index == "ix_sys_dl_file",
        _ => false,
    };
    let mut s = rig.host.session();

    // Autocommit: the shard had already voted; the Abort undoes it.
    let err = s.exec_params(INSERT, &[Value::Int(1), f1.clone()]).unwrap_err();
    assert!(stale(&err), "got {err:?}");
    assert_eq!(rig.host.metrics().prepare_failures.load(Relaxed), 0);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_file"), 0);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);

    // Explicit transaction: the link is backed out, the rest commits.
    s.begin().unwrap();
    s.exec_params(INSERT, &[Value::Int(2), f2]).unwrap();
    let err = s.exec_params(INSERT, &[Value::Int(1), f1]).unwrap_err();
    assert!(stale(&err), "got {err:?}");
    s.commit().unwrap();
    assert_eq!((rig.owner(&p1), rig.owner(&p2)), ("u".to_string(), ADMIN.to_string()));
    assert_eq!(Rig::linked(&rig.sa), 1);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 1);
}

#[test]
fn a_failed_member_in_an_explicit_transaction_backs_out_its_statement_only() {
    let _s = serial();
    let rig = Rig::new();
    let files: Vec<(String, Value)> =
        (1..=4).map(|i| rig.file(&rig.dir_a, &format!("f{i}"))).collect();
    let mut s = rig.host.session();
    for (i, (_, url)) in files.iter().enumerate().take(3) {
        s.exec_params(INSERT, &[Value::Int(i as i64 + 1), url.clone()]).unwrap();
    }
    // Behind the host's back, f2's link is removed on the shard.
    let admin = rig.sa.connector().connect().unwrap();
    for req in [
        DlfmRequest::Connect { dbid: rig.host.dbid() },
        DlfmRequest::UnlinkFile {
            xid: 1 << 40,
            rec_id: 1 << 40,
            grp_id: 0,
            filename: files[1].0.clone(),
            in_backout: false,
        },
        DlfmRequest::Commit { xid: 1 << 40 },
    ] {
        assert_eq!(admin.call(req).unwrap(), DlfmResponse::Ok);
    }
    assert_eq!(Rig::linked(&rig.sa), 2);

    s.begin().unwrap();
    s.exec_params(INSERT, &[Value::Int(4), files[3].1.clone()]).unwrap();
    let (a0, b0) = rig.calls();
    let unlinks = rig.host.metrics().unlinks.load(Relaxed);
    // Three rows, three unlinks in one batch; the second is refused.
    let err = s.exec("DELETE FROM t WHERE id <= 3").unwrap_err();
    assert!(
        matches!(&err, HostError::Dlfm { error: DlfmError::NotLinked(p), txn_rolled_back: false } if *p == files[1].0),
        "got {err:?}"
    );
    assert_eq!(rig.calls(), (a0 + 2, b0), "the round, and the backout of its first member");
    assert_eq!(rig.host.metrics().unlinks.load(Relaxed), unlinks + 1, "one unlink did happen");
    assert!(s.xid().is_some(), "the transaction is still open");
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 4, "savepoint restored");
    assert_eq!(s.query_int("SELECT COUNT(*) FROM sys_datalinks", &[]).unwrap(), 4);

    // ... and usable: the statement before the failure and one after it
    // both commit.
    assert_eq!(s.exec("DELETE FROM t WHERE id = 3").unwrap().count(), 1);
    s.commit().unwrap();
    assert_eq!(rig.owner(&files[0].0), ADMIN, "backed out: f1 is still linked");
    assert_eq!(rig.owner(&files[2].0), "u", "f3 was unlinked by the later statement");
    assert_eq!(rig.owner(&files[3].0), ADMIN, "f4 was linked by the earlier statement");
    assert_eq!(Rig::linked(&rig.sa), 2);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn rollback_to_a_savepoint_undoes_the_rounds_behind_it() {
    let _s = serial();
    let rig = Rig::new();
    let (pa, fa) = rig.file(&rig.dir_a, "a");
    let (pb, fb) = rig.file(&rig.dir_b, "b");
    let (pc, fc) = rig.file(&rig.dir_a, "c");
    let mut s = rig.host.session();
    s.begin().unwrap();
    s.exec_params(INSERT, &[Value::Int(1), fa]).unwrap();
    let sp = s.savepoint().unwrap();
    s.exec_params(INSERT, &[Value::Int(2), fb]).unwrap();
    s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[fc]).unwrap();
    s.rollback_to(&sp).unwrap();
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 1);
    s.commit().unwrap();
    assert_eq!(
        (rig.owner(&pa), rig.owner(&pb), rig.owner(&pc)),
        (ADMIN.to_string(), "u".to_string(), "u".to_string())
    );
    assert_eq!((Rig::linked(&rig.sa), Rig::linked(&rig.sb)), (1, 0));
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_file"), 1);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 1);
}

#[test]
fn a_statement_of_more_than_a_batch_takes_more_rounds_and_votes_on_the_last() {
    let _s = serial();
    let rig = Rig::new();
    let rows = MAX_BATCH_OPS + 40;
    let mut s = rig.host.session();
    s.begin().unwrap();
    for i in 0..rows {
        // Every tenth file lives on the other shard.
        let dir = if i % 10 == 0 { &rig.dir_b } else { &rig.dir_a };
        let (_, url) = rig.file(dir, &format!("bulk{i}"));
        s.exec_params(INSERT, &[Value::Int(i as i64), url]).unwrap();
    }
    s.commit().unwrap();
    assert_eq!(Rig::linked(&rig.sa) + Rig::linked(&rig.sb), rows as i64);

    let rounds = rig.host.metrics().dl_rounds.load(Relaxed);
    let (a0, b0) = rig.calls();
    assert_eq!(s.exec("DELETE FROM t").unwrap().count(), rows);
    // Two rounds of at most MAX_BATCH_OPS - 1 operations, each one batch
    // per shard; the Prepare closes each shard's second batch.
    assert_eq!(rig.calls(), (a0 + 3, b0 + 3), "2 batches + Commit on each shard");
    assert_eq!(rig.host.metrics().dl_rounds.load(Relaxed), rounds + 1, "one flush");
    assert_eq!((Rig::linked(&rig.sa), Rig::linked(&rig.sb)), (0, 0));
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 0);
}

/// Load rows `(first + i, <tag>i)` over fresh files, in `dir_b` where
/// `on_b(i)` and in `dir_a` otherwise.
fn load_rows(
    rig: &Rig,
    tag: &str,
    first: usize,
    n: usize,
    on_b: fn(usize) -> bool,
) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let dir = if on_b(i) { &rig.dir_b } else { &rig.dir_a };
            vec![Value::Int((first + i) as i64), rig.file(dir, &format!("{tag}{i}")).1]
        })
        .collect()
}

#[test]
fn a_load_piece_is_one_round_per_shard_under_one_span() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.host.session();
    let m = rig.host.metrics();
    let counts = || {
        (
            m.dl_rounds.load(Relaxed),
            m.unsolicited_votes.load(Relaxed),
            m.twopc_commits.load(Relaxed),
        )
    };

    // Two small pieces over both shards: one `load` root each, its rounds
    // and commit under it, no statement roots.
    obs::drain_spans();
    let small = load_rows(&rig, "small", 0, 6, |i| i % 2 == 0);
    assert_eq!(s.load("t", &["id", "doc"], &small, 3).unwrap().pieces_committed, 2);
    let spans = obs::drain_spans();
    let host_op = |op: &str| spans.iter().filter(|e| e.layer == Layer::Host && e.op == op).count();
    assert_eq!((host_op("load"), host_op("stmt")), (2, 0), "{spans:#?}");
    for load in spans.iter().filter(|e| e.layer == Layer::Host && e.op == "load") {
        assert_eq!(load.parent_span_id, 0, "a root");
        let under = |parent: u64, layer: Layer, op: &str| {
            spans
                .iter()
                .filter(|e| e.parent_span_id == parent && e.layer == layer && e.op == op)
                .count()
        };
        assert_eq!(under(load.span_id, Layer::Rpc, "call"), 2, "the round: one batch per shard");
        let commit = spans
            .iter()
            .find(|e| e.op == "commit" && e.parent_span_id == load.span_id)
            .expect("the commit is the piece's");
        assert_eq!(under(commit.span_id, Layer::Rpc, "call"), 2, "one Commit per shard");
    }

    // Two pieces of more than a batch each.
    let piece = MAX_BATCH_OPS + 40;
    let rows = load_rows(&rig, "bulk", 100, 2 * piece, |i| i % 10 == 0);
    let before = counts();
    let (a0, b0) = rig.calls();
    let report = s.load("t", &["id", "doc"], &rows, piece).unwrap();
    assert_eq!(
        (report.rows_loaded, report.pieces_committed, report.failed_at),
        (2 * piece, 2, None)
    );
    // Per piece, two rounds of at most MAX_BATCH_OPS - 1 links, one batch
    // per shard each and the Prepare closing the second; then the Commit.
    assert_eq!(rig.calls(), (a0 + 6, b0 + 6), "per piece and shard: 2 batches + Commit");
    assert_eq!(counts(), (before.0 + 2, before.1 + 2, before.2 + 2), "a round and a vote a piece");
    let linked = (6 + 2 * piece) as i64;
    assert_eq!(Rig::linked(&rig.sa) + Rig::linked(&rig.sb), linked);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), linked);
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(Rig::count(&rig.sb, "SELECT COUNT(*) FROM dfm_xact"), 0);
}

/// Refusals on both shards in one round: the lower row is reported, as a
/// row-at-a-time load would have stopped there — also when its shard's
/// batch is answered second.
#[test]
fn a_load_reports_the_lowest_row_refused_on_any_shard() {
    let _s = serial();
    let rig = Rig::new();
    let mut rows = load_rows(&rig, "f", 0, 8, |i| i % 2 == 0);
    rows[2][1] = Value::str(format!("dlfs://sa{}/missing", rig.dir_b));
    rows[5][1] = Value::str(format!("dlfs://sa{}/missing", rig.dir_a));
    let mut s = rig.host.session();
    let report = s.load("t", &["id", "doc"], &rows, 8).unwrap();
    assert_eq!((report.rows_loaded, report.failed_at), (0, Some(2)));
    let missing = format!("{}/missing", rig.dir_b);
    assert!(
        matches!(&report.error, Some(HostError::Dlfm { error: DlfmError::NoSuchFile(p), .. }) if *p == missing),
        "{report:?}"
    );
    for shard in [&rig.sa, &rig.sb] {
        assert_eq!(Rig::count(shard, "SELECT COUNT(*) FROM dfm_file"), 0);
        assert_eq!(Rig::count(shard, "SELECT COUNT(*) FROM dfm_xact"), 0);
    }
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 0);
}

/// A piece whose vote is lost fails at commit: the piece is rolled back
/// and the report still says how far the load got, instead of an error
/// that hides the committed pieces.
#[test]
fn a_piece_whose_vote_is_lost_is_reported_not_raised() {
    let _s = serial();
    let rig = Rig::new();
    let rows = load_rows(&rig, "f", 0, 10, |_| false);
    let mut s = rig.host.session();
    let m = rig.host.metrics();
    let failures = m.prepare_failures.load(Relaxed);
    // Piece 1 is [5 links, Prepare] and the Commit; the third call is piece
    // 2's batch, which carries its vote.
    let guard = fault::install_guarded(3, &[("rpc.call.drop", Trigger::Nth(3))]);
    let report = s.load("t", &["id", "doc"], &rows, 5).expect("a failed piece is reported");
    assert_eq!(fault::fires("rpc.call.drop"), 1);
    drop(guard);
    assert_eq!((report.rows_loaded, report.pieces_committed, report.failed_at), (5, 1, Some(5)));
    assert!(matches!(&report.error, Some(HostError::Rpc(_))), "{report:?}");
    assert_eq!(m.prepare_failures.load(Relaxed), failures + 1, "a lost vote is a no");
    assert_eq!(m.unsolicited_votes.load(Relaxed), 2, "both pieces' votes rode on their rounds");
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(Rig::linked(&rig.sa), 5);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 5);
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 5);
}

/// `load.rs`'s `load_commits_in_pieces` with the shard behind a Unix
/// socket: a piece's batches are frames like any statement's.
#[test]
fn a_load_over_a_unix_socket_commits_in_pieces() {
    let _s = serial();
    let sock = std::env::temp_dir().join(format!("dlfm-load-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let fs = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Unix(sock.display().to_string());
    let shard = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm(
        "w",
        dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(
            shard.listen_addr().expect("wire transport binds"),
        ),
    );
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..25)
        .map(|i| {
            let p = format!("/l/f{i}");
            fs.create(&p, "u", b"x").unwrap();
            vec![Value::Int(i), Value::str(format!("dlfs://w{p}"))]
        })
        .collect();
    let report = s.load("t", &["id", "doc"], &rows, 10).unwrap();
    assert_eq!(report.rows_loaded, 25);
    assert_eq!(report.pieces_committed, 3);
    assert_eq!(report.failed_at, None);
    assert_eq!(s.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 25);
    assert_eq!(Rig::linked(&shard), 25);
    assert_eq!(Rig::count(&shard, "SELECT COUNT(*) FROM dfm_xact"), 0);
    assert_eq!(host.metrics().unsolicited_votes.load(Relaxed), 3, "a vote rode on each piece");
    drop(s);
    drop(shard);
    let _ = std::fs::remove_file(&sock);
}

/// A repeated UPDATE or DELETE of a linked row binds nothing after its
/// first run: the statement comes from the statement cache, and its
/// datalink probe is bound once with it.
#[test]
fn repeated_updates_and_deletes_of_linked_rows_bind_nothing_after_the_first() {
    let _s = serial();
    let rig = Rig::new();
    let binds = || -> u64 {
        let samples = obs::registry::parse_samples(&rig.host.metrics_text());
        samples.iter().filter(|s| s.name == "minidb_stmt_binds_total").map(|s| s.value as u64).sum()
    };
    const N: i64 = 8;
    let mut s = rig.host.session();
    for i in 0..N {
        let (_, f) = rig.file(&rig.dir_a, &format!("f{i}"));
        s.exec_params(INSERT, &[Value::Int(i), f]).unwrap();
    }
    let mut after_first = None;
    for i in 0..N {
        let (_, f) = rig.file(&rig.dir_a, &format!("g{i}"));
        let sql = "UPDATE t SET doc = ? WHERE id = ?";
        assert_eq!(s.exec_params(sql, &[f, Value::Int(i)]).unwrap().count(), 1);
        after_first.get_or_insert_with(binds);
    }
    assert_eq!(binds(), after_first.unwrap(), "a repeated UPDATE was bound again");
    let mut after_first = None;
    for i in 0..N {
        let deleted = s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(i)]).unwrap();
        assert_eq!(deleted.count(), 1);
        after_first.get_or_insert_with(binds);
    }
    assert_eq!(binds(), after_first.unwrap(), "a repeated DELETE was bound again");
    assert_eq!(Rig::linked(&rig.sa), 0);
}

/// A backout that does not arrive leaves the DLFM's sub-transaction in a
/// state the host cannot know: it is not possible to roll back a rollback
/// (§3.2), so the transaction is lost — rolled back everywhere — instead
/// of going on to commit a row whose link the shard may not hold.
#[test]
fn a_backout_lost_in_transit_costs_the_transaction() {
    let _s = serial();
    let rig = Rig::new();
    let (pa, fa) = rig.file(&rig.dir_a, "a");
    let missing = Value::str(format!("dlfs://sa{}/nowhere", rig.dir_a));
    let mut s = rig.host.session();
    s.begin().unwrap();
    s.exec_params(INSERT, &[Value::Int(1), fa]).unwrap();
    // The UPDATE's round unlinks `a` and fails on the missing file; the
    // backout of the unlink, the next call, is lost.
    let guard = fault::install_guarded(3, &[("rpc.call.drop", Trigger::Nth(2))]);
    let err = s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[missing]).unwrap_err();
    drop(guard);
    let committed = s.commit();

    wait_until("the shard to forget the transaction", || {
        Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact") == 0
    });
    assert_eq!(
        (rig.host_count("SELECT COUNT(*) FROM t"), Rig::linked(&rig.sa), rig.owner(&pa)),
        (0, 0, "u".to_string()),
        "no committed row without its link"
    );
    assert!(
        matches!(&err, HostError::Dlfm { error: DlfmError::NoSuchFile(_), txn_rolled_back: true }),
        "got {err:?}"
    );
    assert!(matches!(committed, Err(HostError::Usage(_))), "nothing left to commit");
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM sys_datalinks"), 0);
}

/// The same rule for a savepoint: a backout lost half way through
/// `rollback_to` rolls the whole transaction back.
#[test]
fn a_rollback_to_whose_backout_is_lost_costs_the_transaction() {
    let _s = serial();
    let rig = Rig::new();
    let (pa, fa) = rig.file(&rig.dir_a, "a");
    let (pb, fb) = rig.file(&rig.dir_b, "b");
    let mut s = rig.host.session();
    s.begin().unwrap();
    let sp = s.savepoint().unwrap();
    s.exec_params(INSERT, &[Value::Int(1), fa]).unwrap();
    s.exec_params(INSERT, &[Value::Int(2), fb]).unwrap();
    // Two operations to undo; the second backout call is lost.
    let guard = fault::install_guarded(3, &[("rpc.call.drop", Trigger::Nth(2))]);
    let err = s.rollback_to(&sp).unwrap_err();
    drop(guard);
    let committed = s.commit();

    for shard in [&rig.sa, &rig.sb] {
        wait_until("the shards to forget the transaction", || {
            Rig::count(shard, "SELECT COUNT(*) FROM dfm_xact") == 0
        });
    }
    assert_eq!(rig.host_count("SELECT COUNT(*) FROM t"), 0, "no committed row without its link");
    assert_eq!((Rig::linked(&rig.sa), Rig::linked(&rig.sb)), (0, 0));
    assert_eq!((rig.owner(&pa), rig.owner(&pb)), ("u".to_string(), "u".to_string()));
    assert!(matches!(err, HostError::Rpc(_)), "got {err:?}");
    assert!(matches!(committed, Err(HostError::Usage(_))), "nothing left to commit");
}

#[test]
fn rollback_to_backs_out_each_shard_in_one_call() {
    let _s = serial();
    let rig = Rig::new();
    let (pa, fa) = rig.file(&rig.dir_a, "a");
    let (pc, fc) = rig.file(&rig.dir_a, "c");
    let (pb, fb) = rig.file(&rig.dir_b, "b");
    let mut s = rig.host.session();
    s.begin().unwrap();
    let sp = s.savepoint().unwrap();
    s.exec_params(INSERT, &[Value::Int(1), fa]).unwrap();
    s.exec_params(INSERT, &[Value::Int(2), fb]).unwrap();
    s.exec_params("UPDATE t SET doc = ? WHERE id = 1", &[fc]).unwrap();
    let (a0, b0) = rig.calls();
    s.rollback_to(&sp).unwrap();
    assert_eq!(rig.calls(), (a0 + 1, b0 + 1), "three backouts on sa, one on sb: a batch each");
    s.commit().unwrap();
    assert_eq!((Rig::linked(&rig.sa), Rig::linked(&rig.sb)), (0, 0));
    assert_eq!(Rig::count(&rig.sa, "SELECT COUNT(*) FROM dfm_file"), 0);
    for path in [&pa, &pb, &pc] {
        assert_eq!(rig.owner(path), "u");
    }
}
