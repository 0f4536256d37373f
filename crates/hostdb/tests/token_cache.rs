//! The host's access-token cache (`hostdb::tokens`) must never hand out a
//! token for a link other than the one it was issued for: one test per
//! invalidation edge, each checked against the only validator there is,
//! `Dlff::read`. (Capacity overflow is a unit test beside the cache: filling
//! it through real links would take 65 536 of them.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{
    AccessControl, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec, Transport,
};
use filesys::{Dlff, FileSystem};
use hostdb::{DatalinkSpec, HostConfig, HostDb, HostError, HostSession, Invalidation};
use minidb::Value;

const APP: &str = "app";

/// `obs::fault` plans are process-global: the test that installs one must
/// not overlap the others' RPCs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct Rig {
    fs: Arc<FileSystem>,
    dlfm: DlfmServer,
    host: HostDb,
}

fn create_docs(s: &mut HostSession) {
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
}

fn rig() -> (Rig, HostSession) {
    let fs = Arc::new(FileSystem::new());
    let dlfm =
        DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), Arc::new(ArchiveServer::new()));
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", dlfm.connector());
    let mut s = host.session();
    create_docs(&mut s);
    (Rig { fs, dlfm, host }, s)
}

fn url(path: &str) -> String {
    format!("dlfs://fs1{path}")
}

/// Create `path` (content = its own name) and link it to row `id`.
fn insert(fs: &FileSystem, s: &mut HostSession, id: i64, path: &str) {
    fs.create(path, "u", path.as_bytes()).unwrap();
    s.exec_params(
        "INSERT INTO docs (id, doc) VALUES (?, ?)",
        &[Value::Int(id), Value::str(url(path))],
    )
    .unwrap();
}

fn relink(s: &mut HostSession, id: i64, path: &str) {
    let n = s
        .exec_params(
            "UPDATE docs SET doc = ? WHERE id = ?",
            &[Value::str(url(path)), Value::Int(id)],
        )
        .unwrap()
        .count();
    assert_eq!(n, 1);
}

fn opens(dlff: &Dlff, path: &str, token: &str) -> bool {
    match dlff.read(path, APP, Some(token)) {
        Ok(bytes) => {
            assert_eq!(bytes, path.as_bytes(), "{path} has the wrong content");
            true
        }
        Err(_) => false,
    }
}

/// (hits, misses) so far.
fn counts(host: &HostDb) -> (u64, u64) {
    let m = &host.metrics().token_cache;
    (m.hits.load(Ordering::Relaxed), m.misses.load(Ordering::Relaxed))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn second_read_of_a_link_is_a_hit_and_issues_no_rpc() {
    let _g = serial();
    let (r, mut s) = rig();
    insert(&r.fs, &mut s, 1, "/a1");
    let t1 = s.read_token(&url("/a1")).unwrap();
    assert_eq!(counts(&r.host), (0, 1));
    let calls = r.dlfm.connector().stats().calls();
    let again = s.read_token(&url("/a1")).unwrap();
    assert_eq!(again, t1);
    assert_eq!(counts(&r.host), (1, 1));
    assert_eq!(r.dlfm.connector().stats().calls(), calls, "a hit must not call the DLFM");
    assert!(opens(r.dlfm.dlff(), "/a1", &t1));
    // Another session of the same host shares the cache.
    assert_eq!(r.host.session().read_token(&url("/a1")).unwrap(), t1);
    assert_eq!(counts(&r.host), (2, 1));
    let text = r.host.metrics_text();
    assert!(text.contains("hostdb_token_cache_hits_total 2"), "{text}");
    assert!(text.contains("hostdb_token_cache_entries 1"), "{text}");
    assert!(r.host.status_text().contains("token cache: 1 entries, 2 hits / 1 misses"));
}

#[test]
fn update_relinks_a_row_old_token_is_refused_new_url_misses() {
    let _g = serial();
    let (r, mut s) = rig();
    let dlff = r.dlfm.dlff();
    insert(&r.fs, &mut s, 1, "/a1");
    r.fs.create("/a2", "u", b"/a2").unwrap();
    let t1 = s.read_token(&url("/a1")).unwrap();
    relink(&mut s, 1, "/a2");
    assert_eq!(r.host.metrics().token_cache.invalidations(Invalidation::Unlink), 1);

    let (_, misses) = counts(&r.host);
    let t2 = s.read_token(&url("/a2")).unwrap();
    assert_eq!(counts(&r.host).1, misses + 1, "the new URL was never asked for: a miss");
    assert!(opens(dlff, "/a2", &t2));
    // The old URL is no longer linked: the DLFM says so, the cache does not
    // answer in its place.
    match s.read_token(&url("/a1")) {
        Err(HostError::Dlfm { error: dlfm::DlfmError::NotLinked(_), .. }) => {}
        other => panic!("expected NotLinked for the unlinked URL, got {other:?}"),
    }
    // Put /a1 back under control through another row: the old link's token
    // stays dead, the new link has its own.
    s.exec_params("INSERT INTO docs (id, doc) VALUES (2, ?)", &[Value::str(url("/a1"))]).unwrap();
    assert!(!opens(dlff, "/a1", &t1), "the unlinked link's token must be refused");
    let t1b = s.read_token(&url("/a1")).unwrap();
    assert_ne!(t1b, t1);
    assert!(opens(dlff, "/a1", &t1b));
    assert!(!opens(dlff, "/a1", &t2), "/a2's token does not open /a1");
}

#[test]
fn an_answer_in_flight_across_unlink_and_relink_leaves_no_stale_entry() {
    let _g = serial();
    let (r, mut b) = rig();
    insert(&r.fs, &mut b, 1, "/p");
    r.fs.create("/q", "u", b"/q").unwrap();
    let mut a = r.host.session();
    a.read_token(&url("/q")).expect_err("warm A's connection; /q is not linked");

    // A's IssueToken is held back on its way to the DLFM ...
    let plan = obs::fault::install_guarded(1, &[("rpc.call.delay", obs::fault::Trigger::Nth(1))]);
    let reader = std::thread::spawn(move || {
        let answer = a.read_token(&url("/p"));
        (a, answer)
    });
    wait_until("A's call to be parked", || obs::fault::fires("rpc.call.delay") == 1);
    // ... while B unlinks /p, commits, relinks it and commits.
    relink(&mut b, 1, "/q");
    relink(&mut b, 1, "/p");
    let (mut a, _answer_of_either_link) = reader.join().unwrap();
    drop(plan);

    // Whichever link A's answer belonged to, it was read under a generation
    // B's invalidations have since bumped, or it was dropped by them.
    for s in [&mut a, &mut b] {
        let t = s.read_token(&url("/p")).unwrap();
        assert!(opens(r.dlfm.dlff(), "/p", &t), "stale token {t} served for the relinked /p");
    }
}

#[test]
fn an_aborted_unlink_leaves_the_link_readable() {
    let _g = serial();
    let (r, mut s) = rig();
    insert(&r.fs, &mut s, 1, "/keep");
    let t1 = s.read_token(&url("/keep")).unwrap();
    s.begin().unwrap();
    s.exec("DELETE FROM docs WHERE id = 1").unwrap();
    s.rollback();
    let t = s.read_token(&url("/keep")).unwrap();
    assert_eq!(t, t1, "the link never went away: same link, same token");
    assert!(opens(r.dlfm.dlff(), "/keep", &t));
    assert_eq!(r.dlfm.dlff().token_count(), 1);
}

#[test]
fn drop_table_then_relink_of_the_same_path_gets_a_fresh_token() {
    let _g = serial();
    let (r, mut s) = rig();
    insert(&r.fs, &mut s, 1, "/g");
    let t1 = s.read_token(&url("/g")).unwrap();
    s.drop_table("docs").unwrap();
    // The Delete-Group daemon unlinks asynchronously.
    wait_until("the daemon to release /g", || r.fs.stat("/g").unwrap().owner == "u");
    create_docs(&mut s);
    s.exec_params("INSERT INTO docs (id, doc) VALUES (1, ?)", &[Value::str(url("/g"))]).unwrap();
    let t2 = s.read_token(&url("/g")).unwrap();
    assert_ne!(t2, t1);
    assert!(opens(r.dlfm.dlff(), "/g", &t2));
    assert!(!opens(r.dlfm.dlff(), "/g", &t1));
}

#[test]
fn migrate_prefix_drops_cached_tokens_of_the_old_owner() {
    let _g = serial();
    let fs = Arc::new(FileSystem::new());
    let archive = Arc::new(ArchiveServer::new());
    let servers: BTreeMap<&str, DlfmServer> = ["sa", "sb"]
        .into_iter()
        .map(|n| (n, DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive.clone())))
        .collect();
    let host = HostDb::new(HostConfig::for_tests());
    for (name, server) in &servers {
        host.attach_dlfm(name, server.connector());
    }
    host.set_shards(&["sa", "sb"]).unwrap();
    let mut s = host.session();
    create_docs(&mut s);
    insert(&fs, &mut s, 1, "/m/x/f");
    let map = host.shard_map();
    let owner = |path: &str| {
        map.route(path, map.epoch(), Duration::from_secs(5)).unwrap().expect("ring on").shard
    };
    let from = owner("/m/x/f");
    let to = if from == "sa" { "sb" } else { "sa" };

    let t_old = s.read_token(&url("/m/x/f")).unwrap();
    assert!(opens(servers[from.as_str()].dlff(), "/m/x/f", &t_old));
    assert_eq!(host.migrate_prefix("/m", to).unwrap(), 1);
    assert_eq!(owner("/m/x/f"), to);
    assert!(host.metrics().token_cache.invalidations(Invalidation::Clear) >= 1);

    let (_, misses) = counts(&host);
    let t_new = s.read_token(&url("/m/x/f")).unwrap();
    assert_eq!(counts(&host).1, misses + 1);
    assert!(opens(servers[to].dlff(), "/m/x/f", &t_new), "the new owner must accept the token");
}

#[test]
fn a_restarted_daemon_is_never_answered_from_the_cache() {
    let _g = serial();
    let sock = std::env::temp_dir().join(format!("dlfm-tokcache-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let listen = Transport::Unix(sock.display().to_string());
    let fs = Arc::new(FileSystem::new());
    let start = || {
        let mut config = DlfmConfig::for_tests();
        config.listen = listen.clone();
        DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()))
    };
    let admin_call = |server: &DlfmServer, req: DlfmRequest| {
        let conn = server.connector().connect().unwrap();
        assert_eq!(conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap(), DlfmResponse::Ok);
        conn.call(req).unwrap()
    };

    let dlfm_a = start();
    let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(
        dlfm_a.listen_addr().expect("wire transport binds"),
    );
    let host = HostDb::new(HostConfig::for_tests());
    host.attach_dlfm("fs1", connector.clone());
    let mut s = host.session();
    create_docs(&mut s);
    insert(&fs, &mut s, 1, "/w");
    let t_a = s.read_token(&url("/w")).unwrap();
    assert_eq!(s.read_token(&url("/w")).unwrap(), t_a);
    assert_eq!(counts(&host), (1, 1));
    assert!(opens(dlfm_a.dlff(), "/w", &t_a));

    // The daemon dies; its successor recovers the link metadata (stood in
    // for by an export/import) but starts with a new, empty Dlff.
    let DlfmResponse::Links(rows) =
        admin_call(&dlfm_a, DlfmRequest::ExportLinks { prefix: String::new(), remove: false })
    else {
        panic!("export of the dying daemon's links failed")
    };
    assert_eq!(rows.len(), 1);
    let group = host.dl_column("docs", "doc").unwrap();
    drop(s);
    drop(dlfm_a);
    let _ = std::fs::remove_file(&sock);
    let dlfm_b = start();
    let spec = GroupSpec {
        grp_id: group.grp_id,
        dbid: 1,
        table_name: "docs".into(),
        column_name: "doc".into(),
        access: group.access,
        recovery: group.recovery,
    };
    assert_eq!(admin_call(&dlfm_b, DlfmRequest::RegisterGroup(spec)), DlfmResponse::Ok);
    let imported = admin_call(&dlfm_b, DlfmRequest::ImportLinks { entries: rows });
    assert_eq!(imported, DlfmResponse::Count(1));
    assert_eq!(dlfm_b.dlff().token_count(), 0);
    assert!(!opens(dlfm_b.dlff(), "/w", &t_a), "the new Dlff accepts nothing issued before");

    // No write in between: the reader thread's EOF is the only event.
    wait_until("the host's reader to see the old connection die", || connector.epoch() == 1);
    let mut s = host.session();
    let t_b = s.read_token(&url("/w")).unwrap();
    assert_eq!(counts(&host), (1, 2), "the entry of the dead connection must not be served");
    assert_eq!(host.metrics().token_cache.invalidations(Invalidation::ConnEpoch), 1);
    assert!(opens(dlfm_b.dlff(), "/w", &t_b));
    assert_eq!(s.read_token(&url("/w")).unwrap(), t_b);
    assert_eq!(counts(&host), (2, 2));
}

#[test]
fn concurrent_readers_and_relinkers_never_see_a_stale_token() {
    let _g = serial();
    let (r, mut s) = rig();
    const PAIRS: usize = 4;
    // Pair i owns row i and flips it between two paths, so every relink
    // reuses a path whose previous link's token was revoked.
    let paths = |i: usize| [format!("/h/{i}/a"), format!("/h/{i}/b")];
    for i in 0..PAIRS {
        insert(&r.fs, &mut s, i as i64, &paths(i)[0]);
        r.fs.create(&paths(i)[1], "u", paths(i)[1].as_bytes()).unwrap();
    }
    drop(s);
    let stop = AtomicBool::new(false);
    // Per pair: which path the row links, and a count that is odd while an
    // UPDATE of the row is running (whether or not it goes through: the
    // DLFM may pick a relinker as a deadlock victim).
    let state: Vec<(AtomicU64, AtomicU64)> = (0..PAIRS).map(|_| Default::default()).collect();
    let checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (i, (linked, updates)) in state.iter().enumerate() {
            let (r, stop, checked) = (&r, &stop, &checked);
            scope.spawn(move || {
                let mut s = r.host.session();
                while !stop.load(Ordering::SeqCst) {
                    let to = 1 - linked.load(Ordering::SeqCst);
                    updates.fetch_add(1, Ordering::SeqCst);
                    let done = s.exec_params(
                        "UPDATE docs SET doc = ? WHERE id = ?",
                        &[Value::str(url(&paths(i)[to as usize])), Value::Int(i as i64)],
                    );
                    if done.is_ok() {
                        linked.store(to, Ordering::SeqCst);
                    }
                    updates.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(300));
                }
            });
            scope.spawn(move || {
                let mut s = r.host.session();
                while !stop.load(Ordering::SeqCst) {
                    let before = updates.load(Ordering::SeqCst);
                    let path = &paths(i)[linked.load(Ordering::SeqCst) as usize];
                    let read =
                        s.read_token(&url(path)).map(|t| (opens(r.dlfm.dlff(), path, &t), t));
                    // Linked from before the lookup until after the read?
                    if before % 2 == 0 && updates.load(Ordering::SeqCst) == before {
                        match read {
                            Ok((true, _)) => drop(checked.fetch_add(1, Ordering::Relaxed)),
                            // IssueToken lost a deadlock at the DLFM: no answer.
                            Err(HostError::Dlfm {
                                error: dlfm::DlfmError::Db { retryable: true, .. },
                                ..
                            }) => {}
                            other => panic!("{path} was linked throughout, got {other:?}"),
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs(1));
        stop.store(true, Ordering::SeqCst);
    });
    let (hits, misses) = counts(&r.host);
    assert!(checked.load(Ordering::Relaxed) > 100, "too few undisturbed reads to mean anything");
    assert!(hits > 0 && misses > 0, "both paths of read_token must have run: {hits}/{misses}");
    // At most one registered token per path, however many reads there were.
    assert!(r.dlfm.dlff().token_count() <= 2 * PAIRS, "{}", r.dlfm.dlff().token_count());
}
