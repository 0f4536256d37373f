//! Direct probes of each layer's public functions: single-thread,
//! fixed-iteration loops, median of five batches (or of every timed call
//! where one call is long enough to time alone). They give the unit costs
//! the budget multiplies per-transaction counts with.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlfm::{
    AccessControl, AgentModel, DlfmConfig, DlfmRequest, DlfmResponse, DlfmServer, GroupSpec,
    Transport,
};
use dlrpc::wire::{checksum, encode_frame, read_frame, Frame, FrameKind};
use dlrpc::{ClientConn, Wire};
use minidb::lock::{LockManager, Res};
use minidb::wal::{LogPayload, Wal};
use minidb::{Database, DbConfig, LockMode, Session, TableId, TxnId, Value};

use crate::spec::{Metrics, FILE_LEN, WORKLOADS};
use crate::stats::median;

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the mean time of one call, in ns.
/// `f` gets a call index that keeps rising across batches.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..iters {
                f(b * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Time one call, keep the sample (ns), pass the result through.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_nanos() as f64);
    out
}

type Conn = ClientConn<DlfmRequest, DlfmResponse>;

fn ok(conn: &Conn, req: DlfmRequest) {
    let resp = conn.call(req.clone()).expect("probe rpc");
    assert!(
        matches!(resp, DlfmResponse::Ok | DlfmResponse::Prepared { .. }),
        "probe request {req:?} answered {resp:?}"
    );
}

struct DlfmRig {
    fs: Arc<filesys::FileSystem>,
    server: DlfmServer,
}

fn dlfm_rig(agent_model: AgentModel, listen: Transport) -> DlfmRig {
    let fs = Arc::new(filesys::FileSystem::new());
    let config = DlfmConfig { agent_model, listen, ..DlfmConfig::default() };
    let server = DlfmServer::start(config, fs.clone(), Arc::new(archive::ArchiveServer::new()));
    DlfmRig { fs, server }
}

fn connect(connector: &dlrpc::Connector<DlfmRequest, DlfmResponse>) -> Conn {
    let conn = connector.connect().expect("probe connect");
    ok(&conn, DlfmRequest::Connect { dbid: 1 });
    conn
}

fn ping_rtt_us(conn: &Conn, iters: usize) -> f64 {
    ns_per_call(iters, |_| ok(conn, DlfmRequest::Ping)) / 1e3
}

/// Run every probe. `scale` multiplies iteration counts (`--quick` uses
/// 0.1); `run_dir` holds the probe's Unix socket.
pub fn run_all(m: &mut Metrics, run_dir: &Path, scale: f64) {
    let n = |iters: usize| ((iters as f64 * scale) as usize).max(10);
    obs_probes(m, &n);
    rpc_codec_probes(m, &n);
    filesys_probes(m, &n);
    archive_probes(m, &n);
    minidb_probes(m, &n);
    hostdb_probes(m, &n);
    dlfm_probes(m, run_dir, &n);

    let spec = &WORKLOADS[0];
    let layout = crate::gen::Layout::new(spec.clients, &["s0".to_string()]);
    let mut gen = crate::gen::Gen::new(spec, &layout, 1, 0);
    m.set(
        "workload.gen_ns_per_op",
        ns_per_call(n(100_000), |_| {
            black_box(gen.next_plan());
        }),
    );
}

fn obs_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    m.set(
        "obs.span_ns",
        ns_per_call(n(20_000), |_| drop(black_box(obs::span(obs::Layer::Host, "probe")))),
    );
    let hist = obs::Histogram::new();
    m.set("obs.hist_record_ns", ns_per_call(n(200_000), |i| hist.record(black_box(i as u64))));
    let was_armed = obs::journal::armed();
    obs::journal::disarm();
    m.set(
        "obs.journal_disarmed_ns",
        ns_per_call(n(1_000_000), |i| {
            obs::journal::record(obs::JournalKind::TwoPc, black_box(i as i64), String::new)
        }),
    );
    if was_armed {
        obs::journal::arm();
    }
}

fn rpc_codec_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    let frame = Frame::new(FrameKind::Call, 7, 42, vec![0xA5; 128]);
    let mut out = Vec::with_capacity(256);
    m.set(
        "rpc.frame_encode_ns",
        ns_per_call(n(100_000), |_| {
            out.clear();
            encode_frame(black_box(&frame), &mut out);
        }),
    );
    m.set(
        "rpc.frame_decode_ns",
        ns_per_call(n(100_000), |_| {
            let mut bytes: &[u8] = black_box(&out);
            black_box(read_frame(&mut bytes).expect("well-formed frame"));
        }),
    );
    let kib = vec![0x5Au8; 1024];
    m.set(
        "rpc.checksum_ns_per_kib",
        ns_per_call(n(20_000), |_| {
            black_box(checksum(black_box(&kib)));
        }),
    );

    let req = DlfmRequest::LinkFile {
        xid: 123_456,
        rec_id: (1 << 48) | 987_654,
        grp_id: 1,
        filename: "/b/d07/s4711v12".into(),
        in_backout: false,
    };
    let mut buf = Vec::with_capacity(128);
    m.set(
        "dlfm.req_encode_ns",
        ns_per_call(n(200_000), |_| {
            buf.clear();
            black_box(&req).encode(&mut buf);
        }),
    );
    m.set(
        "dlfm.req_decode_ns",
        ns_per_call(n(200_000), |_| {
            let mut r = dlrpc::Reader::new(black_box(&buf));
            black_box(DlfmRequest::decode(&mut r).expect("round trip"));
        }),
    );
}

fn filesys_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    let fs = Arc::new(filesys::FileSystem::new());
    let content = vec![b'.'; FILE_LEN];
    let iters = n(10_000);
    let names: Vec<String> =
        (0..iters * BATCHES).map(|i| format!("/p/d{}/f{i}", i % 100)).collect();
    m.set(
        "filesys.create_ns",
        ns_per_call(iters, |i| drop(fs.create(&names[i], "app", &content).expect("fresh name"))),
    );
    m.set("filesys.stat_ns", ns_per_call(iters, |i| drop(black_box(fs.stat(&names[i])))));
    m.set(
        "filesys.chown_chmod_ns",
        ns_per_call(iters, |i| {
            fs.chown(&names[i], "dlfm_admin", "dlfm").expect("chown");
            fs.chmod(&names[i], filesys::Mode::read_only()).expect("chmod");
        }),
    );
    // Every file is now owned by the admin: reads need a token.
    let dlff = filesys::Dlff::new(fs.clone(), "dlfm_admin");
    for name in &names {
        dlff.register_token(name, "tok");
    }
    m.set(
        "filesys.dlff_read_token_ns",
        ns_per_call(iters, |i| {
            black_box(dlff.read(&names[i], "app", Some("tok")).expect("token read"));
        }),
    );
}

fn archive_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    let server = archive::ArchiveServer::new();
    let content = vec![b'.'; FILE_LEN];
    let iters = n(10_000);
    let names: Vec<String> = (0..iters * BATCHES).map(|i| format!("/p/f{i}")).collect();
    m.set(
        "archive.store_us",
        ns_per_call(iters, |i| assert!(server.store(&names[i], i as i64, &content, false))) / 1e3,
    );
    m.set(
        "archive.retrieve_us",
        ns_per_call(iters, |i| drop(black_box(server.retrieve(&names[i], i as i64)))) / 1e3,
    );
}

/// A database with `dfm_file`'s shape and indexes holding 10 000 rows.
fn minidb_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    const SQL: &str = "SELECT * FROM dfm_file WHERE filename = ? AND check_flag = 0 FOR SHARE";
    let db = Database::new(DbConfig::dlfm_tuned());
    let mut s = Session::new(&db);
    dlfm::meta::create_schema(&mut s).expect("schema");
    dlfm::meta::hand_craft_stats(&db).expect("stats");
    let stmts = dlfm::meta::Statements::prepare(&db).expect("bind");
    let file_row = |name: String, xid: i64| {
        vec![
            Value::Int(1),
            Value::str(name),
            Value::Int(1),
            Value::Int(1),
            Value::Int(0),
            Value::Int(xid),
            Value::Int(xid),
            Value::Int(2),
            Value::Int(1),
            Value::str("app"),
            Value::Int(3),
            Value::Int(1),
            Value::Int(xid),
        ]
    };
    for chunk in 0..20 {
        s.begin().expect("begin");
        for i in chunk * 500..(chunk + 1) * 500 {
            s.exec_prepared(&stmts.ins_file, &file_row(format!("/b/d{:02}/s{i}v0", i % 100), i))
                .expect("preload row");
        }
        s.commit().expect("commit");
    }

    m.set(
        "minidb.parse_ns",
        ns_per_call(n(20_000), |_| drop(black_box(minidb::sql::parser::parse(black_box(SQL))))),
    );
    m.set("minidb.prepare_ns", ns_per_call(n(5_000), |_| drop(black_box(db.prepare(SQL)))));

    // Statements run inside one transaction per batch, so the loop times
    // execution alone; commit has its own probe.
    let iters = n(1_000);
    let update = db
        .prepare("UPDATE dfm_file SET rec_id = ? WHERE filename = ? AND check_flag = 0")
        .expect("bind");
    let in_txn = |s: &mut Session, body: &mut dyn FnMut(&mut Session, usize)| {
        let batches: Vec<f64> = (0..BATCHES)
            .map(|b| {
                s.begin().expect("begin");
                let start = Instant::now();
                for i in 0..iters {
                    body(s, b * iters + i);
                }
                let per = start.elapsed().as_nanos() as f64 / iters as f64;
                s.commit().expect("commit");
                per
            })
            .collect();
        median(&batches)
    };
    let existing = |i: usize| format!("/b/d{:02}/s{i}v0", i % 100);
    let fresh = |i: usize| format!("/b/d{:02}/s{i}v1", i % 100);
    m.set(
        "minidb.select_point_ns",
        in_txn(&mut s, &mut |s, i| {
            let rows = s.exec_prepared(&stmts.sel_linked, &[Value::str(existing(i))]);
            assert_eq!(rows.expect("select").count(), 1);
        }),
    );
    m.set(
        "minidb.insert_ns",
        in_txn(&mut s, &mut |s, i| {
            s.exec_prepared(&stmts.ins_file, &file_row(fresh(i), 20_000 + i as i64))
                .expect("insert");
        }),
    );
    m.set(
        "minidb.update_ns",
        in_txn(&mut s, &mut |s, i| {
            let done = s.exec_prepared(&update, &[Value::Int(i as i64), Value::str(existing(i))]);
            assert_eq!(done.expect("update").count(), 1);
        }),
    );
    m.set(
        "minidb.delete_ns",
        in_txn(&mut s, &mut |s, i| {
            let done = s.exec_prepared(&stmts.del_entry, &[Value::str(fresh(i)), Value::Int(0)]);
            assert_eq!(done.expect("delete").count(), 1);
        }),
    );
    let mut commits = Vec::new();
    for i in 0..n(2_000) {
        s.begin().expect("begin");
        s.exec_prepared(&update, &[Value::Int(-(i as i64)), Value::str(existing(i))])
            .expect("update");
        timed(&mut commits, || s.commit()).expect("commit");
    }
    m.set("minidb.commit_ns", median(&commits));

    let locks = LockManager::new(Duration::from_secs(60), Some(10_000), 1_000_000, true);
    m.set(
        "minidb.lock_cycle_ns",
        ns_per_call(n(100_000), |i| {
            let txn = TxnId(i as u64 + 1);
            locks.lock(txn, Res::Row(TableId(1), i as u64), LockMode::X).expect("uncontended");
            locks.release_all(txn);
        }),
    );

    let wal = Wal::new(10_000_000, Duration::ZERO);
    let iters = n(20_000);
    let row = file_row("/b/d07/s4711v12".into(), 1);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let payloads: Vec<LogPayload> = (0..iters)
                .map(|i| LogPayload::Insert { table: 1, rowid: i as u64, row: row.clone() })
                .collect();
            let start = Instant::now();
            for p in payloads {
                wal.append(TxnId(1), p).expect("append");
            }
            let per = start.elapsed().as_nanos() as f64 / iters as f64;
            wal.append(TxnId(1), LogPayload::Commit).expect("commit record");
            per
        })
        .collect();
    m.set("minidb.wal_append_ns", median(&batches));
    m.set(
        "minidb.wal_force_us",
        ns_per_call(n(20_000), |i| {
            wal.append(TxnId(2 + i as u64), LogPayload::Commit).expect("append");
            assert!(wal.force());
        }) / 1e3,
    );

    drop(s);
    let restarts: Vec<f64> = (0..BATCHES)
        .map(|_| {
            db.crash();
            let start = Instant::now();
            db.restart().expect("restart");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("minidb.restart_ms", median(&restarts));
}

fn hostdb_probes(m: &mut Metrics, n: &dyn Fn(usize) -> usize) {
    let log = hostdb::CoordLog::new();
    let servers = vec!["s0".to_string()];
    m.set(
        "hostdb.coordlog_append_forced_ns",
        ns_per_call(n(50_000), |i| {
            let rec = hostdb::CoordRecord::Commit { xid: i as i64, servers: servers.clone() };
            assert!(log.append_forced(rec));
        }),
    );
    let map = hostdb::ShardMap::new();
    map.set_shards(&["s0".to_string(), "s1".to_string()]);
    let epoch = map.epoch();
    m.set(
        "hostdb.route_ns",
        ns_per_call(n(200_000), |_| {
            drop(black_box(map.route(black_box("/b/d07/s4711v12"), epoch, Duration::ZERO)));
        }),
    );

    // Restart of a host whose log holds a fixed number of linked-row
    // transactions (2 000 at full scale).
    let rig = dlfm_rig(AgentModel::pooled(8, 4096), Transport::Inproc);
    let host = hostdb::HostDb::new(hostdb::HostConfig::default());
    host.attach_dlfm("s0", rig.server.connector());
    let mut s = crate::stand::create_media(&host);
    for i in 0..n(2_000) as i64 {
        let path = format!("/r/d{:02}/f{i}", i % 100);
        rig.fs.create(&path, "app", b"x").expect("fresh file");
        s.exec_params(
            crate::stand::SQL_INSERT,
            &[Value::Int(i), Value::str("t"), Value::str(format!("dlfs://s0{path}"))],
        )
        .expect("insert");
    }
    drop(s);
    let restarts: Vec<f64> = (0..BATCHES)
        .map(|_| {
            host.crash();
            let start = Instant::now();
            host.restart().expect("host restart");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("hostdb.restart_ms", median(&restarts));
}

/// Scripted Begin→Link→Prepare→Commit / Unlink / Abort against one
/// in-process pooled server, plus the call round trip over each transport.
fn dlfm_probes(m: &mut Metrics, run_dir: &Path, n: &dyn Fn(usize) -> usize) {
    let pings = n(2_000);
    {
        let rig = dlfm_rig(AgentModel::Dedicated, Transport::Inproc);
        m.set("rpc.ping_rtt_us.inproc", ping_rtt_us(&connect(&rig.server.connector()), pings));
    }
    // Loopback TCP may be closed off in a sandbox; 0 then means "not
    // measured here", never a panic.
    let tcp_rtt = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(probe) => {
            drop(probe);
            let rig = dlfm_rig(AgentModel::pooled(8, 4096), Transport::Tcp("127.0.0.1:0".into()));
            let addr = rig.server.listen_addr().expect("tcp listener");
            let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr);
            ping_rtt_us(&connect(&connector), pings)
        }
        Err(_) => 0.0,
    };
    m.set("rpc.ping_rtt_us.tcp", tcp_rtt);

    let sock = run_dir.join(format!("{}-probe.sock", std::process::id()));
    let rig =
        dlfm_rig(AgentModel::pooled(8, 4096), Transport::Unix(sock.to_string_lossy().into_owned()));
    let conn = connect(&rig.server.connector());
    m.set("rpc.ping_rtt_us.pool", ping_rtt_us(&conn, pings));
    {
        let addr = rig.server.listen_addr().expect("unix listener");
        let connector = dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr);
        m.set("rpc.ping_rtt_us.unix", ping_rtt_us(&connect(&connector), pings));
    }

    let group = |grp_id: i64, access: AccessControl| {
        DlfmRequest::RegisterGroup(GroupSpec {
            grp_id,
            dbid: 1,
            table_name: "media".into(),
            column_name: format!("clip{grp_id}"),
            access,
            recovery: true,
        })
    };
    ok(&conn, group(1, AccessControl::Full));
    ok(&conn, group(2, AccessControl::Partial));

    let iters = n(300);
    let (mut begin, mut link, mut unlink) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prepare, mut commit, mut abort) = (Vec::new(), Vec::new(), Vec::new());
    let (mut token, mut upcall) = (Vec::new(), Vec::new());
    let mut xid = 0i64;
    let mut rec_id = 0i64;
    let next = |counter: &mut i64| {
        *counter += 1;
        *counter
    };
    for i in 0..iters {
        let file = format!("/p/d{:02}/f{i}", i % 100);
        rig.fs.create(&file, "app", &vec![b'.'; FILE_LEN]).expect("fresh file");
        let link_req = |xid: i64, rec_id: i64| DlfmRequest::LinkFile {
            xid,
            rec_id,
            grp_id: 1,
            filename: file.clone(),
            in_backout: false,
        };
        // Link and abort: nothing was prepared, the forward work unwinds.
        let x = next(&mut xid);
        ok(&conn, DlfmRequest::BeginTxn { xid: x });
        ok(&conn, link_req(x, next(&mut rec_id)));
        timed(&mut abort, || ok(&conn, DlfmRequest::Abort { xid: x }));
        // Link and commit.
        let x = next(&mut xid);
        timed(&mut begin, || ok(&conn, DlfmRequest::BeginTxn { xid: x }));
        let r = next(&mut rec_id);
        timed(&mut link, || ok(&conn, link_req(x, r)));
        timed(&mut prepare, || ok(&conn, DlfmRequest::Prepare { xid: x }));
        timed(&mut commit, || ok(&conn, DlfmRequest::Commit { xid: x }));
        // Read-side calls on the linked file.
        let issued =
            timed(&mut token, || conn.call(DlfmRequest::IssueToken { filename: file.clone() }));
        assert!(matches!(issued, Ok(DlfmResponse::Token(_))), "{issued:?}");
        let state =
            timed(&mut upcall, || conn.call(DlfmRequest::UpcallQuery { filename: file.clone() }));
        assert!(matches!(state, Ok(DlfmResponse::LinkState(_))), "{state:?}");
        // Unlink and commit.
        let x = next(&mut xid);
        ok(&conn, DlfmRequest::BeginTxn { xid: x });
        let r = next(&mut rec_id);
        timed(&mut unlink, || {
            ok(
                &conn,
                DlfmRequest::UnlinkFile {
                    xid: x,
                    rec_id: r,
                    grp_id: 1,
                    filename: file.clone(),
                    in_backout: false,
                },
            )
        });
        ok(&conn, DlfmRequest::Prepare { xid: x });
        ok(&conn, DlfmRequest::Commit { xid: x });
    }
    for (name, samples) in [
        ("dlfm.begin_us", &begin),
        ("dlfm.link_us", &link),
        ("dlfm.unlink_us", &unlink),
        ("dlfm.prepare_us", &prepare),
        ("dlfm.commit_us", &commit),
        ("dlfm.abort_us", &abort),
        ("dlfm.issue_token_us", &token),
        ("dlfm.upcall_us", &upcall),
    ] {
        m.set(name, median(samples) / 1e3);
    }

    // A rename of a file linked under partial control: the DLFF cannot
    // tell from ownership, asks the Upcall daemon, and refuses.
    let held = "/p/held";
    rig.fs.create(held, "app", b"x").expect("fresh file");
    let x = next(&mut xid);
    ok(&conn, DlfmRequest::BeginTxn { xid: x });
    ok(
        &conn,
        DlfmRequest::LinkFile {
            xid: x,
            rec_id: next(&mut rec_id),
            grp_id: 2,
            filename: held.into(),
            in_backout: false,
        },
    );
    ok(&conn, DlfmRequest::Prepare { xid: x });
    ok(&conn, DlfmRequest::Commit { xid: x });
    let dlff = rig.server.dlff();
    m.set(
        "filesys.dlff_rename_refused_us",
        ns_per_call(n(2_000), |_| assert!(dlff.rename(held, "/p/moved", "app").is_err())) / 1e3,
    );
    drop(conn);
    drop(rig);
    let _ = std::fs::remove_file(sock);
}
