//! Every branch of the coordinator under scatter-gather: both phases go
//! out to all participants before any reply is awaited, so each failure
//! below happens while the *other* shard is mid-flight or already done.
//!
//! Two in-process shards `sa` < `sb` (a phase visits them in that order)
//! plus `obs::fault`. The fault registry is process-global: the tests take
//! `SERIAL`, and arm a plan only right before the `commit()` under test,
//! so "the n-th in-process call" names one message of that commit.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb, HostError, HostSession};
use minidb::{Session, Value};
use obs::fault::{self, Trigger};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const ADMIN: &str = "dlfm_admin";

struct Rig {
    fs: Arc<FileSystem>,
    sa: DlfmServer,
    sb: DlfmServer,
    host: HostDb,
    /// One file path the ring routes to each shard.
    on_a: String,
    on_b: String,
}

impl Rig {
    fn new() -> Rig {
        Rig::with(false, HostConfig::for_tests())
    }

    /// `recovery` puts the Copy daemons to work: every committed link is
    /// queued for an archive copy.
    fn with(recovery: bool, host_config: HostConfig) -> Rig {
        let fs = Arc::new(FileSystem::new());
        let archive = Arc::new(ArchiveServer::new());
        let sa = DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive.clone());
        let sb = DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive);
        let host = HostDb::new(host_config);
        host.attach_dlfm("sa", sa.connector());
        host.attach_dlfm("sb", sb.connector());
        host.set_shards(&["sa", "sb"]).unwrap();
        host.session()
            .create_table(
                "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
                &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery }],
            )
            .unwrap();
        // The ring places whole directories: vary the directory.
        let map = host.shard_map();
        let mut per_shard = BTreeMap::new();
        for i in 0..1024 {
            let path = format!("/d{i}/f");
            let routed = map.route(&path, map.epoch(), Duration::from_secs(5)).unwrap();
            per_shard.entry(routed.expect("ring is enabled").shard).or_insert(path);
            if per_shard.len() == 2 {
                break;
            }
        }
        let (on_a, on_b) = (per_shard["sa"].clone(), per_shard["sb"].clone());
        fs.create(&on_a, "u", b"a").unwrap();
        fs.create(&on_b, "u", b"b").unwrap();
        Rig { fs, sa, sb, host, on_a, on_b }
    }

    /// An open transaction that linked one file on each shard.
    fn open_cross_shard_txn(&self) -> HostSession {
        let mut s = self.host.session();
        s.begin().unwrap();
        for (id, path) in [(1, &self.on_a), (2, &self.on_b)] {
            s.exec_params(
                "INSERT INTO t (id, doc) VALUES (?, ?)",
                &[Value::Int(id), Value::str(format!("dlfs://sa{path}"))],
            )
            .unwrap();
        }
        s
    }

    fn shard_count(shard: &DlfmServer, sql: &str) -> i64 {
        Session::new(shard.db()).query_int(sql, &[]).unwrap()
    }

    fn host_rows(&self) -> i64 {
        Session::new(self.host.db()).query_int("SELECT COUNT(*) FROM t", &[]).unwrap()
    }

    fn owner(&self, path: &str) -> String {
        self.fs.stat(path).unwrap().owner
    }

    /// The whole transaction is gone: no decision or link row on either
    /// shard, no host row, both files still their user's.
    fn assert_aborted_everywhere(&self) {
        for (name, shard) in [("sa", &self.sa), ("sb", &self.sb)] {
            // A shard that lost its connection rolls back on the hangup,
            // which its agent thread notices a poll interval later.
            wait_until(&format!("{name} to forget the transaction"), || {
                Rig::shard_count(shard, "SELECT COUNT(*) FROM dfm_xact") == 0
                    && Rig::shard_count(shard, "SELECT COUNT(*) FROM dfm_file") == 0
            });
        }
        assert_eq!(self.host_rows(), 0, "host row must be absent");
        assert_eq!(self.owner(&self.on_a), "u");
        assert_eq!(self.owner(&self.on_b), "u");
        assert!(self.host.coord_log().unfinished_commits().is_empty());
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What a sub-transaction costs a shard's log: the Prepare's force and
/// nothing else — the phase-2 Commit and the Copy daemon that archives the
/// linked file afterwards commit lazily. Serial 1 ms forces, so a force
/// that crept back in could not hide inside somebody else's group commit.
#[test]
fn a_cross_shard_commit_costs_each_shard_log_exactly_one_force() {
    let _s = serial();
    let rig = Rig::with(true, HostConfig::for_tests());
    for shard in [&rig.sa, &rig.sb] {
        shard.db().set_group_commit(false);
        shard.db().set_log_force_latency(Duration::from_millis(1));
    }
    let before = [rig.sa.db().wal_forces_total(), rig.sb.db().wal_forces_total()];
    rig.open_cross_shard_txn().commit().unwrap();
    for (shard, before) in [&rig.sa, &rig.sb].into_iter().zip(before) {
        wait_until("the Copy daemon to drain", || shard.metrics().snapshot().files_archived == 1);
        assert_eq!(Rig::shard_count(shard, "SELECT COUNT(*) FROM dfm_archive"), 0);
        assert_eq!(shard.db().wal_forces_total() - before, 1);
        assert_eq!(
            shard.db().wal_lazy_commits_total(),
            2,
            "the phase-2 commit and the Copy daemon's queue delete"
        );
    }
}

#[test]
fn a_no_vote_from_b_aborts_a_that_already_hardened_its_prepare() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.open_cross_shard_txn();
    let m = rig.host.metrics();
    let (failures, rollbacks) = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));
    let a_prepares = rig.sa.metrics().snapshot().prepares;

    // sb's local database is gone when its Prepare arrives: it votes no.
    // sa's Prepare went out first and hardens regardless.
    rig.sb.crash();
    let err = s.commit().unwrap_err();
    assert!(
        matches!(&err, HostError::PrepareFailed { server, .. } if server == "sb"),
        "got {err:?}"
    );
    assert_eq!(rig.sa.metrics().snapshot().prepares, a_prepares + 1, "sa did prepare");
    assert_eq!(m.prepare_failures.load(Relaxed), failures + 1, "counted once");
    assert_eq!(m.rollbacks.load(Relaxed), rollbacks + 1, "counted once");

    rig.sb.restart().unwrap();
    rig.host.resolve_indoubts().unwrap();
    rig.assert_aborted_everywhere();

    // The session is usable again, and so are both shards.
    s.begin().unwrap();
    s.rollback();
    rig.open_cross_shard_txn().commit().unwrap();
    assert_eq!(rig.owner(&rig.on_b), ADMIN);
}

#[test]
fn a_lost_prepare_to_b_aborts_a_that_already_hardened_its_prepare() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.open_cross_shard_txn();
    let m = rig.host.metrics();
    let (failures, rollbacks) = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));
    let a_prepares = rig.sa.metrics().snapshot().prepares;

    // Call 1 of the commit is sa's Prepare, call 2 is sb's: lose that one.
    let guard = fault::install_guarded(7, &[("rpc.call.drop", Trigger::Nth(2))]);
    let err = s.commit().unwrap_err();
    drop(guard);
    assert!(matches!(err, HostError::Rpc(_)), "a transport failure, not a vote: {err:?}");
    assert_eq!(rig.sa.metrics().snapshot().prepares, a_prepares + 1, "sa did prepare");
    assert_eq!(m.prepare_failures.load(Relaxed), failures + 1, "counted once");
    assert_eq!(m.rollbacks.load(Relaxed), rollbacks + 1, "counted once");

    // No resolver pass: the coordinator's own Aborts must have cleaned up
    // — sa through phase-2 abort of its hardened prepare, sb (whose
    // connection was retired with the failed call) through the hangup.
    rig.assert_aborted_everywhere();
    rig.open_cross_shard_txn().commit().unwrap();
}

#[test]
fn an_unexpected_prepare_reply_is_a_counted_global_abort() {
    let _s = serial();
    // A participant that answers everything — Prepare included — with a
    // bare `Ok`, and counts the Aborts it is sent.
    let (listener, connector) =
        dlrpc::fabric::<DlfmRequest, DlfmResponse>(dlrpc::AgentModel::Dedicated);
    let aborts = Arc::new(AtomicU64::new(0));
    let seen = aborts.clone();
    let mut fake = dlrpc::serve(listener, move || {
        let seen = seen.clone();
        move |ev: dlrpc::PoolEvent<DlfmRequest>, slot: dlrpc::ReplySlot<DlfmResponse>| {
            let dlrpc::PoolEvent::Request { req, .. } = ev else { return };
            if matches!(req, DlfmRequest::Abort { .. }) {
                seen.fetch_add(1, Relaxed);
            }
            slot.send(DlfmResponse::Ok)
        }
    });
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fake", connector);
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    let m = host.metrics();
    let (failures, rollbacks) = (m.prepare_failures.load(Relaxed), m.rollbacks.load(Relaxed));

    s.begin().unwrap();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str("dlfs://fake/x")]).unwrap();
    let err = s.commit().unwrap_err();
    assert!(
        matches!(&err, HostError::Rpc(m) if m.contains("unexpected prepare response")),
        "got {err:?}"
    );
    // This arm used to abort without counting either.
    assert_eq!(m.prepare_failures.load(Relaxed), failures + 1);
    assert_eq!(m.rollbacks.load(Relaxed), rollbacks + 1);
    assert_eq!(aborts.load(Relaxed), 1, "the participant was told to abort, once");
    assert_eq!(Session::new(host.db()).query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 0);
    drop(s);
    fake.shutdown();
}

#[test]
fn a_lost_phase2_commit_to_a_is_not_an_abort_and_the_resolver_finishes_it() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.open_cross_shard_txn();
    let xid = s.xid().unwrap();
    let m = rig.host.metrics();
    let errors = m.phase2_transport_errors.load(Relaxed);

    // Calls 1, 2: the Prepares. Call 3 is sa's Commit: lose it. sb's
    // Commit (call 4) goes out all the same and is acknowledged.
    let guard = fault::install_guarded(7, &[("rpc.call.drop", Trigger::Nth(3))]);
    s.commit().expect("the decision was durable: phase-2 trouble is not the application's");
    drop(guard);
    assert_eq!(m.phase2_transport_errors.load(Relaxed), errors + 1);
    assert_eq!(rig.owner(&rig.on_b), ADMIN, "sb finished phase 2");
    assert_eq!(rig.host_rows(), 2);
    assert!(
        rig.host.coord_log().unfinished_commits().iter().any(|(x, _)| *x == xid),
        "no End record while sa has not acknowledged"
    );
    assert_eq!(Rig::shard_count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 1, "sa is in doubt");

    rig.host.resolve_indoubts().unwrap();
    assert!(rig.host.coord_log().unfinished_commits().is_empty());
    assert_eq!(rig.owner(&rig.on_a), ADMIN, "the re-driven Commit took the file over");
    assert_eq!(Rig::shard_count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0);
}

#[test]
fn asynchronous_commit_posts_phase2_to_every_participant() {
    let _s = serial();
    let rig = Rig::with(false, HostConfig { synchronous_commit: false, ..HostConfig::for_tests() });
    let mut s = rig.open_cross_shard_txn();
    let stats = [rig.sa.connector().stats().clone(), rig.sb.connector().stats().clone()];
    let before: Vec<_> = stats.iter().map(|st| (st.calls(), st.posts())).collect();
    s.commit().unwrap();
    for (st, (calls, posts)) in stats.iter().zip(before) {
        assert_eq!(st.posts(), posts + 1, "Commit is posted, one per participant");
        assert_eq!(st.calls(), calls + 1, "Prepare is still a round trip");
    }
    // Nobody waited for phase 2, but it runs.
    wait_until("posted commits to finish", || {
        rig.owner(&rig.on_a) == ADMIN && rig.owner(&rig.on_b) == ADMIN
    });
    assert!(rig.host.coord_log().unfinished_commits().is_empty());
}

#[test]
fn first_statement_on_a_dead_shard_aborts_cleanly_and_the_next_transaction_redials() {
    let _s = serial();
    let rig = Rig::new();
    let (insert_b, insert_a) = (
        [Value::Int(1), Value::str(format!("dlfs://sa{}", rig.on_b))],
        [Value::Int(2), Value::str(format!("dlfs://sa{}", rig.on_a))],
    );
    let sql = "INSERT INTO t (id, doc) VALUES (?, ?)";
    let mut s = rig.host.session();
    // Give the session a connection to sb, to be killed under it.
    s.begin().unwrap();
    s.exec_params(sql, &insert_b).unwrap();
    s.rollback();

    // The next call on that connection — the transaction's first, there
    // is no begin message ahead of it — severs it.
    let guard = fault::install_guarded(7, &[("rpc.call.disconnect", Trigger::Nth(1))]);
    s.begin().unwrap();
    let err = s.exec_params(sql, &insert_b).unwrap_err();
    assert!(matches!(err, HostError::Rpc(_)), "got {err:?}");
    // sb was recorded before the send, so the rollback still tries its
    // Abort there, finds the connection dead, and retires it.
    s.exec_params(sql, &insert_a).unwrap();
    s.rollback();
    drop(guard);
    rig.assert_aborted_everywhere();

    s.exec_params(sql, &insert_b).expect("a fresh connection to sb");
    assert_eq!(rig.owner(&rig.on_b), ADMIN);
    assert_eq!(rig.host_rows(), 1);

    // A dead in-process connection does not survive checkin either: the
    // health probe is a ping the DLFM's agent loop answers, so it fails
    // once the DLFM is gone.
    let (retired, idle) =
        (rig.host.metrics().conn_retired.load(Relaxed), rig.host.conn_pool_idle());
    drop(rig.sa);
    drop(rig.sb);
    drop(s);
    assert_eq!(rig.host.metrics().conn_retired.load(Relaxed), retired + 2, "sa's and sb's");
    assert_eq!(rig.host.conn_pool_idle(), idle, "dead connections are not pooled");
}

/// The resolver re-drives an unfinished decision through the coordinator's
/// own phase 2: both Commits are on their way before either is answered —
/// sibling rpc spans under the resolver's pass that overlap in time.
#[test]
fn the_resolver_redrives_phase2_to_every_participant_at_once() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.open_cross_shard_txn();
    let xid = s.xid().unwrap();

    // Calls 1, 2: the Prepares. Lose both Commits: call 3 is refused
    // admission and call 4 dropped (one point fires on one schedule; the
    // drop point is not consulted for a refused call).
    let guard = fault::install_guarded(
        7,
        &[("rpc.call.overloaded", Trigger::Nth(3)), ("rpc.call.drop", Trigger::Nth(3))],
    );
    s.commit().expect("the decision was durable");
    drop(guard);
    assert!(rig.host.coord_log().unfinished_commits().iter().any(|(x, _)| *x == xid));
    for shard in [&rig.sa, &rig.sb] {
        assert_eq!(Rig::shard_count(shard, "SELECT COUNT(*) FROM dfm_xact"), 1, "in doubt");
    }

    obs::drain_spans();
    assert_eq!(rig.host.resolve_indoubts().unwrap(), 2);
    assert!(rig.host.coord_log().unfinished_commits().is_empty());
    assert_eq!(
        (rig.owner(&rig.on_a), rig.owner(&rig.on_b)),
        (ADMIN.to_string(), ADMIN.to_string())
    );

    let spans = obs::drain_spans();
    let pass = spans
        .iter()
        .find(|e| e.layer == obs::Layer::Host && e.op == "resolve")
        .expect("resolve span");
    let calls: Vec<&obs::SpanEvent> = spans
        .iter()
        .filter(|e| e.layer == obs::Layer::Dlfm && e.op == "Commit" && e.trace_id == pass.trace_id)
        .map(|commit| {
            spans
                .iter()
                .find(|e| e.layer == obs::Layer::Rpc && e.span_id == commit.parent_span_id)
                .expect("a Commit has its rpc call for parent")
        })
        .collect();
    assert_eq!(calls.len(), 2, "one Commit per participant: {spans:#?}");
    let (a, b) = (calls[0], calls[1]);
    assert_ne!(a.span_id, b.span_id);
    assert_eq!((a.parent_span_id, b.parent_span_id), (pass.span_id, pass.span_id), "siblings");
    let end = |e: &obs::SpanEvent| e.start_micros + e.duration.as_micros() as u64;
    assert!(a.start_micros <= end(b) && b.start_micros <= end(a), "in flight together");
}

/// `End` means every participant acknowledged, not that the commit is
/// durable there: a shard commits phase 2 lazily. One that crashes before
/// its next force lists the transaction in doubt again, and the resolver
/// commits it from the `Commit` record — which a durable `End` must not
/// hide.
#[test]
fn a_shard_that_loses_an_ended_commit_is_recommitted_from_the_retained_decision() {
    let _s = serial();
    let rig = Rig::new();
    let mut s = rig.open_cross_shard_txn();
    let xid = s.xid().unwrap();
    s.commit().unwrap();
    assert!(rig.host.coord_log().force(), "the End record is durable");
    assert!(rig.host.coord_log().unfinished_commits().is_empty());
    assert_eq!(rig.owner(&rig.on_a), ADMIN);

    rig.sa.crash();
    rig.sa.restart().unwrap();
    let xact = "SELECT COUNT(*) FROM dfm_xact";
    assert_eq!(Rig::shard_count(&rig.sa, xact), 1, "sa lost its phase-2 commit");
    assert!(rig.host.coord_log().committed(xid, "sa"));

    assert_eq!(rig.host.resolve_indoubts().unwrap(), 1);
    assert_eq!(Rig::shard_count(&rig.sa, xact), 0);
    let linked = "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1";
    assert_eq!(Rig::shard_count(&rig.sa, linked), 1, "committed, not presumed aborted");
    assert_eq!(rig.owner(&rig.on_a), ADMIN);
    assert_eq!(rig.host_rows(), 2);
}

/// The xid counter is volatile, so a host restart recovers it: past every
/// xid the coordinator log names, and — in each resolver pass — past every
/// xid a DLFM lists in doubt. A reused xid would let the resolver commit
/// one transaction's in-doubt work on another's decision.
#[test]
fn xids_after_a_host_restart_are_above_every_decided_and_indoubt_xid() {
    let _s = serial();
    let rig = Rig::new();
    let begin_after_restart = || {
        rig.host.crash();
        rig.host.restart().unwrap();
        let mut s = rig.host.session();
        s.begin().unwrap();
        let xid = s.xid().unwrap();
        s.rollback();
        xid
    };

    // A decided transaction: the coordinator log's Commit record names it.
    let mut s = rig.open_cross_shard_txn();
    let decided = s.xid().unwrap();
    s.commit().unwrap();
    drop(s);
    assert!(begin_after_restart() > decided);

    // A transaction prepared on sa whose host crashed before deciding:
    // only sa's in-doubt list names it.
    let indoubt = rig.host.next_xid();
    let conn = rig.sa.connector().connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: rig.host.dbid() }).unwrap();
    rig.fs.create("/indoubt/f", "u", b"x").unwrap();
    let link = DlfmRequest::LinkFile {
        xid: indoubt,
        rec_id: rig.host.next_rec_id(),
        grp_id: rig.host.dl_column("t", "doc").unwrap().grp_id,
        filename: "/indoubt/f".into(),
        in_backout: false,
    };
    assert_eq!(conn.call(link).unwrap(), DlfmResponse::Ok);
    let vote = conn.call(DlfmRequest::Prepare { xid: indoubt }).unwrap();
    assert_eq!(vote, DlfmResponse::Prepared { read_only: false });
    assert!(begin_after_restart() > indoubt);
    assert_eq!(Rig::shard_count(&rig.sa, "SELECT COUNT(*) FROM dfm_xact"), 0, "presumed abort");
}

/// A decision commits an in-doubt xid only on a server it names. Here a
/// shard that was unreachable while the host restarted holds a prepared
/// orphan whose xid the restarted host hands out again; the new
/// transaction's `Commit` record names only `sa`, so the orphan on `sb`
/// is presumed aborted instead of committed on another transaction's
/// decision.
#[test]
fn a_reused_xid_does_not_commit_an_orphan_on_a_server_its_decision_does_not_name() {
    let _s = serial();
    let rig = Rig::new();
    let orphan = rig.host.next_xid();
    let conn = rig.sb.connector().connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: rig.host.dbid() }).unwrap();
    rig.fs.create("/orphan/f", "u", b"x").unwrap();
    let link = DlfmRequest::LinkFile {
        xid: orphan,
        rec_id: rig.host.next_rec_id(),
        grp_id: rig.host.dl_column("t", "doc").unwrap().grp_id,
        filename: "/orphan/f".into(),
        in_backout: false,
    };
    assert_eq!(conn.call(link).unwrap(), DlfmResponse::Ok);
    let vote = conn.call(DlfmRequest::Prepare { xid: orphan }).unwrap();
    assert_eq!(vote, DlfmResponse::Prepared { read_only: false });

    rig.host.crash();
    {
        let _unreachable = fault::install_guarded(7, &[("rpc.call.disconnect", Trigger::Always)]);
        rig.host.restart().unwrap();
    }
    let mut s = rig.host.session();
    s.begin().unwrap();
    assert_eq!(s.xid().unwrap(), orphan, "the restarted host hands the orphan's xid out again");
    s.exec_params(
        "INSERT INTO t (id, doc) VALUES (1, ?)",
        &[Value::str(format!("dlfs://sa{}", rig.on_a))],
    )
    .unwrap();
    s.commit().unwrap();
    assert_eq!(rig.owner(&rig.on_a), ADMIN);

    rig.host.resolve_indoubts().unwrap();
    assert_eq!(Rig::shard_count(&rig.sb, "SELECT COUNT(*) FROM dfm_xact"), 0, "resolved");
    assert_eq!(rig.owner("/orphan/f"), "u", "presumed aborted, not committed");
    let linked = "SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1";
    assert_eq!(Rig::shard_count(&rig.sb, linked), 0);
}
