//! Deterministic fault-injection matrix (`obs::fault`): sweep seeds ×
//! fault points across the full host⇄DLFM stack and assert the paper's
//! §3.3/§4 guarantees hold under injected RPC loss, duplicated delivery,
//! phase-2 deadlock storms, file-system permission failures, storage I/O
//! errors, and crashes at every 2PC boundary:
//!
//! * no acknowledged commit is ever lost;
//! * every in-doubt sub-transaction is resolved by the resolver (commit
//!   decisions re-driven, the rest presumed abort);
//! * phase-2 commit/abort are idempotent under duplicated RPC delivery
//!   and mid-attempt crashes;
//! * no file is left taken-over without a matching committed link state.
//!
//! Every sweep ends on [`datalinks::audit`], the one §3.3 oracle.
//!
//! Each bug fixed alongside this harness has a pinned regression test
//! here that fails if the fix is reverted.
//!
//! The fault registry is process-global, so every test takes `SERIAL`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use datalinks::{dlfm, Acked, Audit, Deployment};
use dlfm::{DlfmRequest, DlfmResponse};
use minidb::{Session, Value};
use obs::fault::{self, Trigger};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct Driver {
    dep: Deployment,
    grp_id: i64,
}

impl Driver {
    fn new() -> Driver {
        Driver::with_config(dlfm::DlfmConfig::for_tests())
    }

    fn with_config(config: dlfm::DlfmConfig) -> Driver {
        Driver::from_dep(Deployment::new("fs1", config, hostdb::HostConfig::for_tests()))
    }

    /// Like [`Driver::new`], but the host dials the DLFM over a real
    /// Unix-domain socket, so armed `rpc.wire.*` faults hit every RPC the
    /// sweep makes (frames stalled, corrupted, truncated, sockets reset).
    fn wire() -> Driver {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir()
            .join(format!(
                "dlfm-fm-{}-{}.sock",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ))
            .display()
            .to_string();
        Driver::from_dep(Deployment::new_wire(
            "fs1",
            dlfm::DlfmConfig::for_tests(),
            hostdb::HostConfig::for_tests(),
            dlfm::Transport::Unix(path),
        ))
    }

    fn from_dep(dep: Deployment) -> Driver {
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
        let grp_id = dep.host.dl_column("t", "doc").unwrap().grp_id;
        Driver { dep, grp_id }
    }

    fn conn(&self) -> dlrpc::ClientConn<DlfmRequest, DlfmResponse> {
        let c = self.dep.dlfm.connector().connect().unwrap();
        c.call(DlfmRequest::Connect { dbid: self.dep.host.dbid() }).unwrap();
        c
    }

    fn link(
        &self,
        conn: &dlrpc::ClientConn<DlfmRequest, DlfmResponse>,
        xid: i64,
        path: &str,
    ) -> DlfmResponse {
        if !self.dep.fs.exists(path) {
            self.dep.fs.create(path, "u", b"x").unwrap();
        }
        conn.call(DlfmRequest::LinkFile {
            xid,
            rec_id: self.dep.host.next_rec_id(),
            grp_id: self.grp_id,
            filename: path.into(),
            in_backout: false,
        })
        .unwrap()
    }

    fn count(&self, sql: &str) -> i64 {
        let mut s = Session::new(self.dep.dlfm.db());
        s.query_int(sql, &[]).unwrap()
    }

    fn linked_count(&self) -> i64 {
        self.count("SELECT COUNT(*) FROM dfm_file WHERE lnk_state = 1")
    }

    fn xact_count(&self) -> i64 {
        self.count("SELECT COUNT(*) FROM dfm_xact")
    }

    fn is_linked(&self, path: &str) -> bool {
        let mut s = Session::new(self.dep.dlfm.db());
        s.query_int(
            "SELECT COUNT(*) FROM dfm_file WHERE filename = ? AND lnk_state = 1",
            &[Value::str(path.to_string())],
        )
        .unwrap()
            > 0
    }

    fn owner(&self, path: &str) -> String {
        self.dep.fs.stat(path).unwrap().owner
    }
}

/// How long the resolver may take to drain what the faults left in doubt.
const DRAIN: Duration = Duration::from_secs(30);

/// The acknowledged outcome of a file this suite created as `u`: linked,
/// or linked nowhere and owned by `u` again.
fn outcome(linked: bool) -> Acked {
    if linked {
        Acked::Linked
    } else {
        Acked::Unlinked("u".into())
    }
}

/// Require a clean §3.3 end state, drained, in which the `acked`
/// outcomes (path → linked) stand.
fn assert_clean(mut audit: Audit<'_>, acked: impl IntoIterator<Item = (String, bool)>, what: &str) {
    audit.acked.extend(acked.into_iter().map(|(path, linked)| (path, outcome(linked))));
    let report = audit.settle(DRAIN);
    assert!(report.is_clean(), "{what}: {report}");
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Seed sweep: probabilistic faults over the full stack, then heal and
// check the paper's invariants.
// ---------------------------------------------------------------------

/// Converged link state of each path whose last operation was
/// acknowledged. A path leaves the map once an operation on it fails: its
/// decision may still be re-driven either way, so both outcomes are legal
/// and only the global invariants apply.
type Expectations = HashMap<String, bool>;

/// Record the outcome of an operation that leaves `path` linked or not.
fn note(expect: &mut Expectations, path: String, acked: bool, linked: bool) {
    if acked {
        expect.insert(path, linked);
    } else {
        expect.remove(&path);
    }
}

fn sweep_one_seed(seed: u64) {
    sweep_with(
        Driver::new(),
        seed,
        &[
            ("rpc.call.drop", Trigger::Probability(0.06)),
            ("rpc.call.delay", Trigger::Probability(0.15)),
            ("rpc.call.duplicate", Trigger::Probability(0.08)),
            ("rpc.call.disconnect", Trigger::Probability(0.03)),
            ("rpc.call.overloaded", Trigger::Probability(0.03)),
            ("dlfm.phase2.deadlock", Trigger::Probability(0.25)),
            ("fs.chown", Trigger::Probability(0.08)),
        ],
    );
}

/// The same sweep with the host dialing the DLFM over a Unix socket and
/// the socket's packet fault points armed instead of the call-level ones
/// (which reach a socket connection as well: see the sharded sweep).
/// Transport faults surface as failed host transactions (outcome unknown)
/// or in-doubt sub-transactions for the resolver — never as a lost
/// acknowledged commit.
fn sweep_one_seed_wire(seed: u64) {
    sweep_with(
        Driver::wire(),
        seed,
        &[
            ("rpc.wire.stall", Trigger::Probability(0.10)),
            ("rpc.wire.corrupt", Trigger::Probability(0.05)),
            ("rpc.wire.truncate", Trigger::Probability(0.03)),
            ("rpc.wire.reset", Trigger::Probability(0.03)),
            ("dlfm.phase2.deadlock", Trigger::Probability(0.25)),
            ("fs.chown", Trigger::Probability(0.08)),
        ],
    );
}

fn sweep_with(d: Driver, seed: u64, faults: &[(&str, Trigger)]) {
    let guard = fault::install_guarded(seed, faults);

    let mut expect: Expectations = HashMap::new();
    // Phase A: link a batch of files, one host transaction each.
    for i in 0..8i64 {
        let path = format!("/f{i}");
        d.dep.fs.create(&path, "u", b"x").unwrap();
        let mut s = d.dep.host.session();
        let acked = s
            .exec_params(
                "INSERT INTO t (id, doc) VALUES (?, ?)",
                &[Value::Int(i), Value::str(d.dep.url(&path))],
            )
            .is_ok();
        note(&mut expect, path, acked, true);
    }
    // Phase B: unlink half of the successfully linked ones.
    for i in 0..4i64 {
        let path = format!("/f{i}");
        if expect.get(&path) != Some(&true) {
            continue;
        }
        let mut s = d.dep.host.session();
        let acked = s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(i)]).is_ok();
        note(&mut expect, path, acked, false);
    }
    // Phase C: explicit transactions that back out — a statement whose
    // UPDATE names a missing file (its unlink is backed out) and a
    // savepoint rolled back over a link. A failed backout costs the
    // transaction, so these may end anywhere; only the invariants below
    // apply to their files.
    for j in 0..3i64 {
        let (kept, undone) = (format!("/g{j}"), format!("/h{j}"));
        for path in [&kept, &undone] {
            d.dep.fs.create(path, "u", b"x").unwrap();
        }
        let mut s = d.dep.host.session();
        let _ = (|| -> hostdb::HostResult<()> {
            s.begin()?;
            let insert = "INSERT INTO t (id, doc) VALUES (?, ?)";
            s.exec_params(insert, &[Value::Int(100 + j), Value::str(d.dep.url(&kept))])?;
            let missing = Value::str(d.dep.url("/missing"));
            let update = "UPDATE t SET doc = ? WHERE id = ?";
            assert!(s.exec_params(update, &[missing, Value::Int(100 + j)]).is_err());
            let sp = s.savepoint()?;
            s.exec_params(insert, &[Value::Int(200 + j), Value::str(d.dep.url(&undone))])?;
            s.rollback_to(&sp)?;
            s.commit()
        })();
    }
    // Phase D: a three-piece Load utility run. Whatever fails, it reports
    // how far it got instead of failing.
    let load: Vec<Vec<Value>> = (0..9i64)
        .map(|i| {
            let path = format!("/l{i}");
            d.dep.fs.create(&path, "u", b"x").unwrap();
            vec![Value::Int(300 + i), Value::str(d.dep.url(&path))]
        })
        .collect();
    let report = d.dep.host.session().load("t", &["id", "doc"], &load, 3);
    let loaded = report.expect("a load reports how far it got").rows_loaded;

    // Heal: disarm every fault, let the resolver finish what's left, and
    // require the §3.3 invariants — acknowledged outcomes among them: the
    // load's committed rows are exactly the ones it reported.
    drop(guard);
    expect.extend((0..9).map(|i| (format!("/l{i}"), i < loaded)));
    assert_clean(d.dep.audit("/"), expect, &format!("seed {seed}"));
}

#[test]
fn seed_sweep_preserves_commit_and_takeover_invariants() {
    let _s = serial();
    let seeds: u64 =
        std::env::var("FAULT_MATRIX_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    for seed in 0..seeds {
        sweep_one_seed(seed);
    }
}

#[test]
fn wire_seed_sweep_preserves_commit_and_takeover_invariants() {
    let _s = serial();
    let seeds: u64 =
        std::env::var("FAULT_MATRIX_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    for seed in 0..seeds {
        sweep_one_seed_wire(seed);
    }
}

// ---------------------------------------------------------------------
// Flight recorder: a seeded fault run must leave a journal containing the
// fault fires and the matching 2PC transitions, and its Perfetto export
// must be valid Chrome-trace JSON.
// ---------------------------------------------------------------------

#[test]
fn journal_records_fault_fires_and_matching_twopc_transitions() {
    let _s = serial();
    obs::journal::arm();
    // The journal is process-global; scope every assertion to events
    // recorded after this point.
    let baseline = obs::journal::snapshot().iter().map(|e| e.seq).max().map_or(0, |s| s + 1);

    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/jr"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    // Phase-2 commit deadlocks twice before succeeding: two fault fires,
    // two journaled retry transitions, then the COMMITTED transition.
    let _g = fault::install_guarded(13, &[("dlfm.phase2.deadlock", Trigger::Times(2))]);
    assert_eq!(conn.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    fault::clear();

    let events: Vec<obs::JournalEvent> =
        obs::journal::snapshot().into_iter().filter(|e| e.seq >= baseline).collect();
    let fires = events
        .iter()
        .filter(|e| {
            e.kind == obs::JournalKind::FaultFire && e.detail.contains("dlfm.phase2.deadlock")
        })
        .count();
    assert_eq!(fires, 2, "both fault fires journaled: {events:#?}");
    let mine: Vec<&obs::JournalEvent> =
        events.iter().filter(|e| e.kind == obs::JournalKind::TwoPc && e.txn == xid).collect();
    let retries = mine.iter().filter(|e| e.detail.contains("retryable error")).count();
    assert_eq!(retries, 2, "each fire has a matching 2PC retry transition: {mine:#?}");
    for needle in ["begun", "PREPARED", "COMMITTED"] {
        assert!(
            mine.iter().any(|e| e.detail.contains(needle)),
            "2PC lifecycle transition {needle:?} journaled for xid#{xid}: {mine:#?}"
        );
    }

    // The same evidence must survive the trip through the Perfetto export.
    let trace = obs::export_chrome_trace();
    assert!(obs::json_is_well_formed(&trace), "export must be valid Chrome-trace JSON");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("fault_fire"), "fault fires exported");
    assert!(trace.contains("dlfm.phase2.deadlock"), "fault point named in the export");
    assert!(trace.contains(&format!("xid#{xid} PREPARED")), "2PC transitions exported");
}

// ---------------------------------------------------------------------
// Crash points at the 2PC boundaries (targeted, nth-hit triggers).
// ---------------------------------------------------------------------

#[test]
fn crash_after_prepare_before_ack_resolves_by_presumed_abort() {
    let _s = serial();
    let d = Driver::new();
    d.dep.fs.create("/p", "u", b"x").unwrap();
    let _g = fault::install_guarded(1, &[("dlfm.prepare.crash_before_ack", Trigger::Nth(1))]);

    // The DLFM hardens the prepare, then crashes before the vote reaches
    // the coordinator: the host sees a failed prepare and aborts globally.
    let mut s = d.dep.host.session();
    let err =
        s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/p"))]);
    assert!(err.is_err(), "prepare crashed; the commit must not be acknowledged");
    assert_eq!(fault::fires("dlfm.prepare.crash_before_ack"), 1);

    fault::clear();
    d.dep.dlfm.restart().unwrap();
    // The hardened prepare survived the crash as an in-doubt entry; with
    // no commit record the resolver presumed-aborts it.
    assert_clean(d.dep.audit("/"), [("/p".into(), false)], "presumed abort");
    let mut s2 = d.dep.host.session();
    assert_eq!(s2.query_int("SELECT COUNT(*) FROM t", &[]).unwrap(), 0);
}

#[test]
fn crash_between_takeover_and_local_commit_redrives_the_acked_commit() {
    let _s = serial();
    let d = Driver::new();
    d.dep.fs.create("/w", "u", b"x").unwrap();
    let _g = fault::install_guarded(1, &[("dlfm.phase2.crash_after_takeover", Trigger::Nth(1))]);

    // The commit decision is durable before phase 2, so the host
    // acknowledges this commit even though the DLFM crashed with the file
    // taken over and no committed link state behind it — the worst
    // window the re-drive must close.
    let mut s = d.dep.host.session();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/w"))]).unwrap();
    drop(s);
    assert_eq!(fault::fires("dlfm.phase2.crash_after_takeover"), 1);
    assert_eq!(d.owner("/w"), "dlfm_admin", "takeover precedes the crashed local commit");

    fault::clear();
    d.dep.dlfm.restart().unwrap();
    assert_clean(d.dep.audit("/"), [("/w".into(), true)], "re-driven commit");
}

#[test]
fn crash_after_phase2_commit_before_ack_is_idempotent_on_redrive() {
    let _s = serial();
    let d = Driver::new();
    d.dep.fs.create("/c", "u", b"x").unwrap();
    let _g = fault::install_guarded(1, &[("dlfm.phase2.crash_before_ack", Trigger::Nth(1))]);

    // Phase 2 completes locally; the crash eats the acknowledgement and
    // the lazy local commit with it.
    let mut s = d.dep.host.session();
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/c"))]).unwrap();
    drop(s);
    assert_eq!(fault::fires("dlfm.phase2.crash_before_ack"), 1);

    fault::clear();
    d.dep.dlfm.restart().unwrap();
    // The transaction is in doubt again: the resolver re-drives the
    // commit, and any further delivery is a no-op.
    let mut audit = d.dep.audit("/");
    audit.resolve_until_clean(DRAIN);
    let conn = d.conn();
    assert_eq!(conn.call(DlfmRequest::Commit { xid: 0 }).unwrap(), DlfmResponse::Ok);
    // No second drain: the duplicate delivery alone must leave the link
    // standing and nothing in doubt.
    audit.acked.insert("/c".into(), Acked::Linked);
    let report = audit.check();
    assert!(report.is_clean(), "duplicate commit: {report}");
}

// ---------------------------------------------------------------------
// Duplicate RPC delivery of phase-2 requests (satellite: idempotence is
// claimed in twopc.rs docs but was never exercised).
// ---------------------------------------------------------------------

#[test]
fn duplicate_commit_delivery_is_idempotent() {
    let _s = serial();
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/dup"), DlfmResponse::Ok);
    assert_eq!(
        conn.call(DlfmRequest::Prepare { xid }).unwrap(),
        DlfmResponse::Prepared { read_only: false }
    );

    // The very next call — Commit — is delivered twice; the agent runs
    // phase 2 twice back-to-back, exactly like a retry after a lost ack.
    let _g = fault::install_guarded(7, &[("rpc.call.duplicate", Trigger::Nth(1))]);
    assert_eq!(conn.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    fault::clear();

    assert_eq!(d.linked_count(), 1, "duplicated commit must not double-apply");
    assert_eq!(d.xact_count(), 0);
    assert_eq!(d.owner("/dup"), "dlfm_admin");
}

#[test]
fn duplicate_abort_delivery_is_idempotent() {
    let _s = serial();
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/dab"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid }).unwrap();

    let _g = fault::install_guarded(7, &[("rpc.call.duplicate", Trigger::Nth(1))]);
    assert_eq!(conn.call(DlfmRequest::Abort { xid }).unwrap(), DlfmResponse::Ok);
    fault::clear();

    assert_eq!(d.linked_count(), 0, "duplicated abort must not double-apply");
    assert_eq!(d.xact_count(), 0);
    assert_eq!(d.owner("/dab"), "u", "aborted link leaves the file untouched");
}

// ---------------------------------------------------------------------
// Storage-layer faults: WAL append and heap write errors fail the
// operation cleanly and the retry succeeds.
// ---------------------------------------------------------------------

#[test]
fn wal_append_fault_fails_the_link_cleanly() {
    let _s = serial();
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.dep.fs.create("/wal", "u", b"x").unwrap();

    let g = fault::install_guarded(3, &[("minidb.wal.append", Trigger::Always)]);
    let resp = d.link(&conn, xid, "/wal");
    assert!(matches!(resp, DlfmResponse::Err(_)), "wal fault must surface, got {resp:?}");
    drop(g);

    // The failed transaction aborts; a fresh one succeeds end to end.
    assert_eq!(conn.call(DlfmRequest::Abort { xid }).unwrap(), DlfmResponse::Ok);
    let xid2 = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid2, "/wal"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid: xid2 }).unwrap();
    assert_eq!(conn.call(DlfmRequest::Commit { xid: xid2 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 1);
}

#[test]
fn storage_write_fault_fails_the_link_cleanly() {
    let _s = serial();
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    d.dep.fs.create("/st", "u", b"x").unwrap();

    let g = fault::install_guarded(3, &[("minidb.storage.write", Trigger::Nth(1))]);
    let resp = d.link(&conn, xid, "/st");
    assert!(matches!(resp, DlfmResponse::Err(_)), "storage fault must surface, got {resp:?}");
    drop(g);

    assert_eq!(conn.call(DlfmRequest::Abort { xid }).unwrap(), DlfmResponse::Ok);
    let xid2 = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid2, "/st"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid: xid2 }).unwrap();
    assert_eq!(conn.call(DlfmRequest::Commit { xid: xid2 }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 1);
}

#[test]
fn chown_fault_leaves_commit_indoubt_until_redriven() {
    let _s = serial();
    let d = Driver::new();
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/ch"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid }).unwrap();

    // Takeover fails: phase-2 commit cannot complete, the sub-transaction
    // stays prepared, and no half-taken-over state leaks.
    let g = fault::install_guarded(3, &[("fs.chown", Trigger::Nth(1))]);
    let resp = conn.call(DlfmRequest::Commit { xid }).unwrap();
    assert!(matches!(resp, DlfmResponse::Err(_)), "chown fault must surface, got {resp:?}");
    drop(g);
    assert_eq!(d.count("SELECT COUNT(*) FROM dfm_xact WHERE state = 2"), 1);
    assert_eq!(d.owner("/ch"), "u", "failed takeover must not leave partial ownership");

    // The coordinator re-drives the commit; this time it completes.
    assert_eq!(conn.call(DlfmRequest::Commit { xid }).unwrap(), DlfmResponse::Ok);
    assert_eq!(d.linked_count(), 1);
    assert_eq!(d.owner("/ch"), "dlfm_admin");
    assert_eq!(d.xact_count(), 0);
}

// ---------------------------------------------------------------------
// Pinned regression: retry-limit exhaustion abandons (not fabricates).
// ---------------------------------------------------------------------

#[test]
fn abandoned_phase2_commit_stays_prepared_and_the_resolver_completes_it() {
    let _s = serial();
    let mut config = dlfm::DlfmConfig::for_tests();
    config.commit_retry_limit = 3;
    let d = Driver::with_config(config);
    d.dep.fs.create("/ab", "u", b"x").unwrap();

    // Every phase-2 attempt deadlocks until the limit: the DLFM abandons
    // the commit instead of pretending it hit a retryable LockTimeout.
    let _g = fault::install_guarded(11, &[("dlfm.phase2.deadlock", Trigger::Times(3))]);
    let mut s = d.dep.host.session();
    // The commit decision is durable before phase 2 starts, so the host
    // still acknowledges the transaction.
    s.exec_params("INSERT INTO t (id, doc) VALUES (1, ?)", &[Value::str(d.dep.url("/ab"))])
        .unwrap();
    drop(s);

    let snap = d.dep.dlfm.metrics().snapshot();
    assert_eq!(snap.phase2_abandoned, 1, "abandonment must be counted");
    assert_eq!(snap.phase2_retries, 3);
    assert_eq!(
        d.count("SELECT COUNT(*) FROM dfm_xact WHERE state = 2"),
        1,
        "the abandoned sub-transaction must stay prepared/re-drivable"
    );

    // The resolver's re-drive path completes it once the storm passes.
    fault::clear();
    assert_clean(d.dep.audit("/"), [("/ab".into(), true)], "resolver completes the acked commit");
}

// ---------------------------------------------------------------------
// Pinned regression: the resolver counts only the resolutions a
// participant acknowledged.
// ---------------------------------------------------------------------

#[test]
fn a_refused_resolution_is_not_counted_and_the_next_pass_resolves_it() {
    let _s = serial();
    let mut config = dlfm::DlfmConfig::for_tests();
    config.commit_retry_limit = 2;
    let d = Driver::with_config(config);
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/rs"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    let resolved = || {
        let text = d.dep.host.metrics_text();
        let samples = obs::registry::parse_samples(&text);
        let total = samples.iter().find(|s| s.name == "hostdb_indoubts_resolved_total");
        total.expect("the family is exported").value as u64
    };
    let listed =
        || conn.call(DlfmRequest::ListIndoubt).unwrap() == DlfmResponse::Indoubt(vec![xid]);

    // No decision was recorded: presumed abort. Every phase-2 attempt
    // deadlocks, so the DLFM abandons the Abort and refuses it.
    let guard = fault::install_guarded(5, &[("dlfm.phase2.deadlock", Trigger::Always)]);
    assert_eq!(d.dep.host.resolve_indoubts().unwrap(), 0);
    drop(guard);
    assert_eq!(resolved(), 0, "a refused resolution is not a resolution");
    assert!(listed(), "still in doubt");

    assert_eq!(d.dep.host.resolve_indoubts().unwrap(), 1);
    assert_eq!(resolved(), 1);
    assert!(!listed());
    assert_eq!(d.xact_count(), 0);
    assert_eq!((d.is_linked("/rs"), d.owner("/rs")), (false, "u".to_string()));
}

// ---------------------------------------------------------------------
// Pinned regression: dropped delete-group notifications are counted and
// recovered by rescan (twopc.rs and restart requeue call sites).
// ---------------------------------------------------------------------

#[test]
fn dropped_group_delete_notification_is_counted_and_recovered_by_rescan() {
    let _s = serial();
    let mut config = dlfm::DlfmConfig::for_tests();
    // Slow the daemons down so the background rescan cannot race the
    // assertions; recovery below is driven explicitly.
    config.daemon_poll_interval = Duration::from_millis(50);
    let d = Driver::with_config(config);
    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/g0"), DlfmResponse::Ok);
    conn.call(DlfmRequest::Prepare { xid }).unwrap();
    conn.call(DlfmRequest::Commit { xid }).unwrap();

    // Drop the table: the group-deletion commit hands work to the daemon,
    // but every notification is dropped.
    let _g = fault::install_guarded(5, &[("dlfm.groupd.notify_drop", Trigger::Always)]);
    let mut s = d.dep.host.session();
    s.drop_table("t").unwrap();
    drop(s);
    let drops_after_commit = d.dep.dlfm.metrics().snapshot().groupd_notify_drops;
    assert!(drops_after_commit >= 1, "the dropped notification must be counted");
    assert_eq!(
        d.count("SELECT COUNT(*) FROM dfm_xact WHERE state = 3"),
        1,
        "committed group-deletion work must survive the dropped notification"
    );

    // A crash + restart requeues the work — and that notification is
    // dropped too. The work entry still survives.
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    assert!(d.dep.dlfm.metrics().snapshot().groupd_notify_drops > drops_after_commit);
    assert_eq!(d.count("SELECT COUNT(*) FROM dfm_xact WHERE state = 3"), 1);

    // Rescan finds the work through the transaction table and finishes it.
    fault::clear();
    let processed = dlfm::daemons::rescan(d.dep.dlfm.shared()).unwrap();
    assert_eq!(processed, 1, "rescan must pick the dropped work up");
    assert_eq!(d.xact_count(), 0);
    assert_eq!(d.linked_count(), 0, "group files must be unlinked");
    assert_eq!(d.owner("/g0"), "u", "unlinked group file must be released");
}

// ---------------------------------------------------------------------
// Pinned regression: failed hangup-aborts are counted and resolved
// in-doubt instead of leaking the chunked work.
// ---------------------------------------------------------------------

#[test]
fn failed_hangup_abort_is_counted_and_resolved_after_restart() {
    let _s = serial();
    let mut config = dlfm::DlfmConfig::for_tests();
    config.agent_model = dlfm::AgentModel::pooled(2, 16);
    config.chunk_commit_every = Some(1); // every op hardens → chunked txn
    config.commit_retry_limit = 2;
    let d = Driver::with_config(config);

    let conn = d.conn();
    let xid = d.dep.host.next_xid();
    assert_eq!(d.link(&conn, xid, "/h0"), DlfmResponse::Ok);
    assert_eq!(d.link(&conn, xid, "/h1"), DlfmResponse::Ok);
    assert!(d.dep.dlfm.metrics().snapshot().chunk_commits >= 1);

    // The client hangs up mid-transaction while phase-2 aborts cannot
    // succeed: retirement must count the failure and leave the chunked
    // work in-doubt, not silently leak it.
    let g = fault::install_guarded(9, &[("dlfm.phase2.deadlock", Trigger::Always)]);
    drop(conn);
    wait_until("hangup abort failure counted", || {
        d.dep.dlfm.metrics().snapshot().phase2_abort_failures >= 1
    });
    drop(g);
    assert_eq!(
        d.count("SELECT COUNT(*) FROM dfm_xact WHERE state = 1"),
        1,
        "the chunked transaction must remain in-doubt for recovery"
    );

    // Restart's presumed abort finishes the job.
    d.dep.dlfm.crash();
    d.dep.dlfm.restart().unwrap();
    assert_eq!(d.xact_count(), 0);
    assert_eq!(d.count("SELECT COUNT(*) FROM dfm_file"), 0, "chunked links must be undone");
}

// ---------------------------------------------------------------------
// Multi-shard arm: the same §3.3 invariants must hold when link metadata
// is hash-partitioned across three DLFM shards (one dialed over a Unix
// socket), with transport and phase-2 faults armed on all of them.
// ---------------------------------------------------------------------

/// Three DLFM shards sharing one file server, attached to a single host
/// with the shard ring enabled. Shard `s2` is dialed over a Unix-domain
/// socket, so the packet faults (`rpc.wire.*`) bite only it while the
/// call-level faults (`rpc.call.*`) bite all three.
struct ShardedDriver {
    fs: std::sync::Arc<filesys::FileSystem>,
    shards: Vec<dlfm::DlfmServer>,
    names: Vec<&'static str>,
    host: hostdb::HostDb,
}

impl ShardedDriver {
    fn new() -> ShardedDriver {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let fs = std::sync::Arc::new(filesys::FileSystem::new());
        let archive = std::sync::Arc::new(archive::ArchiveServer::new());
        let host = hostdb::HostDb::new(hostdb::HostConfig::for_tests());
        let names = vec!["s0", "s1", "s2"];
        let mut shards = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let mut config = dlfm::DlfmConfig::for_tests();
            if i == 2 {
                let sock = std::env::temp_dir()
                    .join(format!(
                        "dlfm-shard-{}-{}.sock",
                        std::process::id(),
                        SEQ.fetch_add(1, Ordering::Relaxed)
                    ))
                    .display()
                    .to_string();
                config.listen = dlfm::Transport::Unix(sock);
            }
            let server = dlfm::DlfmServer::start(config, fs.clone(), archive.clone());
            if i == 2 {
                let url = server.listen_addr().unwrap().to_string();
                host.attach_dlfm_url(name, &url).unwrap();
            } else {
                host.attach_dlfm(name, server.connector());
            }
            shards.push(server);
        }
        host.set_shards(&names).unwrap();
        let mut s = host.session();
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
        ShardedDriver { fs, shards, names, host }
    }

    /// A datalink URL for `path`. The server name in the URL is
    /// irrelevant once the ring is enabled — routing goes by dirname.
    fn url(&self, path: &str) -> String {
        format!("dlfs://s0{path}")
    }

    /// The oracle across all three shards.
    fn audit(&self) -> Audit<'_> {
        Audit::new(
            &self.host,
            self.names.iter().copied().zip(&self.shards).collect(),
            &self.fs,
            "/",
        )
    }

    /// The shard the host's metadata names for a linked `path`.
    fn home(&self, path: &str) -> Option<String> {
        let sql = "SELECT server FROM sys_datalinks WHERE filename = ?";
        let rows = Session::new(self.host.db()).query(sql, &[Value::str(path)]).unwrap();
        rows.first().map(|r| r[0].as_str().unwrap().to_string())
    }
}

fn sharded_sweep_one_seed(seed: u64) {
    let d = ShardedDriver::new();
    let guard = fault::install_guarded(
        seed,
        &[
            ("rpc.call.drop", Trigger::Probability(0.05)),
            ("rpc.call.duplicate", Trigger::Probability(0.06)),
            ("rpc.call.disconnect", Trigger::Probability(0.03)),
            ("rpc.wire.stall", Trigger::Probability(0.08)),
            ("rpc.wire.reset", Trigger::Probability(0.03)),
            ("dlfm.phase2.deadlock", Trigger::Probability(0.20)),
            ("fs.chown", Trigger::Probability(0.06)),
        ],
    );

    // Phase A: two files in each of six directories — dirnames spread the
    // batch across the ring, so most statements are cross-shard relative
    // to their neighbours while each one stays directory-local.
    let mut expect: Expectations = HashMap::new();
    for dir in 0..6i64 {
        for f in 0..2i64 {
            let path = format!("/d{dir}/f{f}");
            d.fs.create(&path, "u", b"x").unwrap();
            let mut s = d.host.session();
            let acked = s
                .exec_params(
                    "INSERT INTO t (id, doc) VALUES (?, ?)",
                    &[Value::Int(dir * 2 + f), Value::str(d.url(&path))],
                )
                .is_ok();
            note(&mut expect, path, acked, true);
        }
    }
    // Phase B: unlink the first acked file of each directory.
    for dir in 0..6i64 {
        let path = format!("/d{dir}/f0");
        if expect.get(&path) != Some(&true) {
            continue;
        }
        let mut s = d.host.session();
        let acked = s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(dir * 2)]).is_ok();
        note(&mut expect, path, acked, false);
    }

    // §3.3 invariants, now *across* shards: an acked link lives on exactly
    // the shard the map routes it to, an acked unlink lives nowhere.
    drop(guard);
    assert_clean(d.audit(), expect, &format!("seed {seed}"));
}

#[test]
fn sharded_seed_sweep_preserves_invariants_across_shards() {
    let _s = serial();
    let seeds: u64 =
        std::env::var("FAULT_MATRIX_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    for seed in 0..seeds {
        sharded_sweep_one_seed(seed);
    }
}

#[test]
fn live_prefix_migration_preserves_links_and_reroutes() {
    let _s = serial();
    let d = ShardedDriver::new();

    // Four files in one directory plus two elsewhere.
    for (id, path) in [
        (100, "/mv/h0/f0"),
        (101, "/mv/h0/f1"),
        (102, "/mv/h0/f2"),
        (103, "/mv/h0/f3"),
        (200, "/other/f0"),
        (201, "/other/f1"),
    ] {
        d.fs.create(path, "u", b"x").unwrap();
        let mut s = d.host.session();
        s.exec_params(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            &[Value::Int(id), Value::str(d.url(path))],
        )
        .unwrap();
    }
    let home = d.home("/mv/h0/f0").unwrap();
    let other = d.home("/other/f0");
    let target = d.names[(d.names.iter().position(|n| *n == home).unwrap() + 1) % 3];
    let moved = d.host.migrate_prefix("/mv/h0", target).unwrap();
    assert_eq!(moved, 4, "all four linked rows under the prefix must move");

    // The host rows moved; the oracle holds each to being linked on, and
    // routed to, the shard its row names.
    for path in ["/mv/h0/f0", "/mv/h0/f1", "/mv/h0/f2", "/mv/h0/f3"] {
        assert_eq!(d.home(path).as_deref(), Some(target), "{path} must live on the target shard");
    }
    // Untouched directory still lives where it did.
    assert_eq!(d.home("/other/f0"), other);

    // A new link under the migrated prefix lands on the target shard.
    d.fs.create("/mv/h0/f9", "u", b"x").unwrap();
    let mut s = d.host.session();
    s.exec_params(
        "INSERT INTO t (id, doc) VALUES (?, ?)",
        &[Value::Int(109), Value::str(d.url("/mv/h0/f9"))],
    )
    .unwrap();
    assert_eq!(d.home("/mv/h0/f9").as_deref(), Some(target));

    // Unlinking a migrated file works: the host metadata followed the
    // move, so the DELETE is sent to the new owner shard.
    s.exec_params("DELETE FROM t WHERE id = ?", &[Value::Int(100)]).unwrap();
    drop(s);
    let acked = [("/mv/h0/f0".into(), false), ("/mv/h0/f9".into(), true)];
    assert_clean(d.audit(), acked, "after migration");
}

// ---------------------------------------------------------------------
// Pinned regression: a transport error during phase 2 — *after* the
// forced coordinator commit record — must not surface as an application
// abort. The decision stood; the resolver re-drives it.
// ---------------------------------------------------------------------

#[test]
fn phase2_transport_error_does_not_false_abort_an_acked_commit() {
    let _s = serial();
    let mut fired_total = 0u64;
    for seed in 0..12u64 {
        let d = Driver::wire();
        let guard = fault::install_guarded(seed, &[("rpc.wire.reset", Trigger::Probability(0.12))]);
        let mut acked = Vec::new();
        for i in 0..10i64 {
            let path = format!("/fa{i}");
            d.dep.fs.create(&path, "u", b"x").unwrap();
            let mut s = d.dep.host.session();
            if s.exec_params(
                "INSERT INTO t (id, doc) VALUES (?, ?)",
                &[Value::Int(i), Value::str(d.dep.url(&path))],
            )
            .is_ok()
            {
                acked.push((path, true));
            }
        }
        drop(guard);

        // Every statement that returned Ok reached a durable commit
        // decision: after healing, its link must exist. Before the fix, a
        // socket reset on the phase-2 Commit call surfaced as Err from
        // commit() even though the forced commit record had been written —
        // the application saw an abort for a transaction that commits.
        assert_clean(d.dep.audit("/"), acked, &format!("seed {seed}"));
        fired_total += d.dep.host.metrics().phase2_transport_errors.load(Ordering::Relaxed);
        if fired_total > 0 {
            break; // the interesting path fired and its invariant held
        }
    }
    assert!(
        fired_total > 0,
        "no seed exercised the phase-2 transport-error path; widen the seed range"
    );
}

// ---------------------------------------------------------------------
// Pinned regression: one unreachable shard must not stall resolution for
// the others, and the coordinator End record must wait for *every*
// participant's acknowledgement.
// ---------------------------------------------------------------------

#[test]
fn resolver_continues_past_a_down_shard_and_gates_the_end_record() {
    let _s = serial();
    let fs = std::sync::Arc::new(filesys::FileSystem::new());
    let archive = std::sync::Arc::new(archive::ArchiveServer::new());
    let live = dlfm::DlfmServer::start(dlfm::DlfmConfig::for_tests(), fs.clone(), archive.clone());
    let host = hostdb::HostDb::new(hostdb::HostConfig::for_tests());
    host.attach_dlfm("zz-live", live.connector());
    let mut s = host.session();
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
    let grp_id = host.dl_column("t", "doc").unwrap().grp_id;

    // Attach a shard whose socket nobody listens on. "aa-down" sorts
    // *before* "zz-live", so the resolver visits the dead shard first —
    // the order that used to abort the entire pass.
    let sock = std::env::temp_dir()
        .join(format!("dlfm-nobody-{}.sock", std::process::id()))
        .display()
        .to_string();
    host.attach_dlfm_url("aa-down", &format!("unix://{sock}")).unwrap();

    // An in-doubt sub-transaction on the live shard: prepared, never
    // decided (its coordinator vanished).
    fs.create("/r0", "u", b"x").unwrap();
    let conn = live.connector().connect().unwrap();
    conn.call(DlfmRequest::Connect { dbid: host.dbid() }).unwrap();
    let xid = host.next_xid();
    assert_eq!(
        conn.call(DlfmRequest::LinkFile {
            xid,
            rec_id: host.next_rec_id(),
            grp_id,
            filename: "/r0".into(),
            in_backout: false,
        })
        .unwrap(),
        DlfmResponse::Ok
    );
    conn.call(DlfmRequest::Prepare { xid }).unwrap();

    // And an unfinished commit decision naming BOTH shards.
    let cxid = host.next_xid();
    host.coord_log().append_forced(hostdb::CoordRecord::Commit {
        xid: cxid,
        servers: vec!["aa-down".into(), "zz-live".into()],
    });

    // The pass must survive the dead shard and still drain the live one.
    host.resolve_indoubts().expect("a down shard must not fail the whole resolution pass");
    let mut s = Session::new(live.db());
    assert_eq!(
        s.query_int("SELECT COUNT(*) FROM dfm_xact", &[]).unwrap(),
        0,
        "the live shard's in-doubt work must drain even with a sibling down"
    );
    assert!(
        host.metrics().resolver_partial_failures.load(Ordering::Relaxed) > 0,
        "partial failures must be counted"
    );
    // The End record must NOT land: "aa-down" never acknowledged.
    assert!(
        host.coord_log().unfinished_commits().iter().any(|(x, _)| *x == cxid),
        "End must not be appended until every participant acked the re-driven commit"
    );

    // Heal: stand a server up under the dead name and resolve again.
    let back = dlfm::DlfmServer::start(dlfm::DlfmConfig::for_tests(), fs.clone(), archive.clone());
    host.attach_dlfm("aa-down", back.connector());
    host.resolve_indoubts().unwrap();
    assert!(
        host.coord_log().unfinished_commits().is_empty(),
        "once every participant acks, the decision is finished with an End record"
    );
    drop(conn);
}
