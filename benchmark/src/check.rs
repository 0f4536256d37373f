//! The §3.3 invariants as one audit oracle, and the crash/restart
//! durability check — written against public APIs only.
//!
//! After every measured window:
//! 1. every host `sys_datalinks` row's file is linked (`lnk_state = 1`)
//!    on exactly the shard the row names, which is the shard the map
//!    routes it to; no shard links a file the host does not reference;
//! 2. a file is owned by the DLFM admin ⟺ a committed linked row exists;
//! 3. no in-doubt entry on any shard, no unfinished commit at the host;
//! 4. the committed rows are exactly the generator's model.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use dlfm::DlfmServer;
use hostdb::HostDb;
use minidb::{Session, Value};

/// What the audit looks at.
pub struct Audit<'a> {
    pub host: &'a HostDb,
    /// `(name the host knows the shard by, server)`.
    pub shards: Vec<(&'a str, &'a DlfmServer)>,
    pub fs: &'a filesys::FileSystem,
    /// Directory prefix holding every file of the benchmark.
    pub file_prefix: &'a str,
}

/// Run the audit. `model` maps row id → URL for every row that should be
/// committed. Returns one line per violated invariant (capped per kind).
pub fn audit(a: &Audit<'_>, model: &HashMap<i64, String>) -> Vec<String> {
    let mut bad = Violations::default();

    // What each shard has linked.
    let mut linked_on: HashMap<String, Vec<&str>> = HashMap::new();
    let mut admin = String::new();
    for (name, shard) in &a.shards {
        admin.clone_from(&shard.shared().config.dlfm_admin);
        let mut s = Session::new(shard.db());
        match s.query("SELECT filename FROM dfm_file WHERE lnk_state = 1", &[]) {
            Ok(rows) => {
                for row in rows {
                    if let Some(Value::Str(f)) = row.into_iter().next() {
                        linked_on.entry(f).or_default().push(name);
                    }
                }
            }
            Err(e) => bad.push("shard-unreadable", format!("shard {name}: {e}")),
        }
        // 3. nothing in doubt.
        match s.query_int("SELECT COUNT(*) FROM dfm_xact", &[]) {
            Ok(0) => {}
            Ok(n) => bad.push("in-doubt", format!("shard {name} holds {n} dfm_xact entries")),
            Err(e) => bad.push("shard-unreadable", format!("shard {name}: {e}")),
        }
    }
    for (xid, servers) in a.host.coord_log().unfinished_commits() {
        bad.push("unfinished-commit", format!("xid {xid} awaits phase 2 on {servers:?}"));
    }

    // 1. host references vs shard links vs routing.
    let map = a.host.shard_map();
    let mut host_files: HashSet<String> = HashSet::new();
    let mut hs = Session::new(a.host.db());
    match hs.query("SELECT filename, server FROM sys_datalinks", &[]) {
        Ok(rows) => {
            for row in rows {
                let (Value::Str(file), Value::Str(server)) = (&row[0], &row[1]) else {
                    bad.push("host-row", format!("malformed sys_datalinks row {row:?}"));
                    continue;
                };
                match map.route(file, map.epoch(), Duration::from_secs(5)) {
                    Ok(Some(r)) if r.shard != *server => bad.push(
                        "mis-homed",
                        format!("{file}: host says {server}, map routes to {}", r.shard),
                    ),
                    Ok(_) => {}
                    Err(e) => bad.push("route", format!("{file}: {e}")),
                }
                let on = linked_on.get(file).map(Vec::as_slice).unwrap_or(&[]);
                if on != [server.as_str()] {
                    bad.push("mis-homed", format!("{file}: host says {server}, linked on {on:?}"));
                }
                host_files.insert(file.clone());
            }
        }
        Err(e) => bad.push("host-unreadable", e.to_string()),
    }
    for (file, on) in &linked_on {
        if !host_files.contains(file) {
            bad.push("orphan-link", format!("{file} linked on {on:?} without a host row"));
        }
    }

    // 2. ownership ⟺ linked.
    for path in a.fs.list(a.file_prefix) {
        let Ok(meta) = a.fs.stat(&path) else { continue };
        let owned = meta.owner == admin;
        let linked = linked_on.contains_key(&path);
        if owned != linked {
            bad.push("ownership", format!("{path}: owner {}, linked {linked}", meta.owner));
        }
    }

    // 4. committed rows are the model.
    match hs.query("SELECT id, clip FROM media", &[]) {
        Ok(rows) => {
            if rows.len() != model.len() {
                bad.push("row-count", format!("{} rows, model has {}", rows.len(), model.len()));
            }
            for row in rows {
                let (Value::Int(id), Value::Str(url)) = (&row[0], &row[1]) else {
                    bad.push("row", format!("malformed media row {row:?}"));
                    continue;
                };
                if model.get(id) != Some(url) {
                    bad.push(
                        "row",
                        format!("row {id} links {url}, model says {:?}", model.get(id)),
                    );
                }
            }
        }
        Err(e) => bad.push("host-unreadable", e.to_string()),
    }
    bad.lines
}

/// Violation lines, at most a few per kind so a systematic failure stays
/// readable.
#[derive(Default)]
struct Violations {
    lines: Vec<String>,
    per_kind: HashMap<&'static str, usize>,
}

impl Violations {
    fn push(&mut self, kind: &'static str, detail: String) {
        let n = self.per_kind.entry(kind).or_insert(0);
        *n += 1;
        if *n <= 3 {
            self.lines.push(format!("{kind}: {detail}"));
        } else if *n == 4 {
            self.lines.push(format!("{kind}: ... more of the same"));
        }
    }
}

/// Crash the host and one shard (their logs discard what was not forced),
/// run `while_down` (the caller drops sessions that held open work, as a
/// crash would), restart both and resolve in-doubts. The caller re-audits
/// afterwards: every acknowledged commit must still be there and nothing
/// else.
pub fn crash_and_restart(
    host: &HostDb,
    shard: &DlfmServer,
    while_down: impl FnOnce(),
) -> Result<(), String> {
    host.crash();
    shard.crash();
    while_down();
    shard.restart().map_err(|e| format!("shard restart: {e}"))?;
    host.restart().map_err(|e| format!("host restart: {e}"))?;
    host.resolve_indoubts().map_err(|e| format!("resolve in-doubts: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlfm::{DlfmConfig, DlfmRequest, DlfmResponse};
    use hostdb::HostConfig;
    use std::sync::Arc;

    struct Rig {
        fs: Arc<filesys::FileSystem>,
        shards: Vec<DlfmServer>,
        host: HostDb,
        model: HashMap<i64, String>,
    }

    /// Two in-process shards behind the ring, four committed rows.
    fn rig() -> Rig {
        let fs = Arc::new(filesys::FileSystem::new());
        let archive = Arc::new(archive::ArchiveServer::new());
        let host = HostDb::new(HostConfig::for_tests());
        let shards: Vec<DlfmServer> = (0..2)
            .map(|i| {
                let s = DlfmServer::start(DlfmConfig::for_tests(), fs.clone(), archive.clone());
                host.attach_dlfm(&format!("s{i}"), s.connector());
                s
            })
            .collect();
        host.set_shards(&["s0", "s1"]).unwrap();
        let mut session = crate::stand::create_media(&host);
        let mut model = HashMap::new();
        for id in 0..4i64 {
            let path = format!("/b/d{id:02}/f{id}");
            fs.create(&path, "app", b"x").unwrap();
            let url = format!("dlfs://s0{path}");
            session
                .exec_params(
                    crate::stand::SQL_INSERT,
                    &[Value::Int(id), Value::str("t"), Value::str(url.clone())],
                )
                .unwrap();
            model.insert(id, url);
        }
        Rig { fs, shards, host, model }
    }

    fn run(rig: &Rig) -> Vec<String> {
        let a = Audit {
            host: &rig.host,
            shards: vec![("s0", &rig.shards[0]), ("s1", &rig.shards[1])],
            fs: &rig.fs,
            file_prefix: "/b/",
        };
        audit(&a, &rig.model)
    }

    #[test]
    fn clean_stand_passes() {
        let rig = rig();
        assert_eq!(run(&rig), Vec::<String>::new());
    }

    #[test]
    fn mis_homed_row_is_reported() {
        let rig = rig();
        // Point one host row at the other shard behind the engine's back.
        let mut s = Session::new(rig.host.db());
        let row = s.query("SELECT filename, server FROM sys_datalinks", &[]).unwrap().remove(0);
        let (file, server) = (row[0].clone(), row[1].as_str().unwrap().to_string());
        let other = if server == "s0" { "s1" } else { "s0" };
        s.exec_params(
            "UPDATE sys_datalinks SET server = ? WHERE filename = ?",
            &[Value::str(other), file],
        )
        .unwrap();
        let report = run(&rig);
        assert!(report.iter().any(|l| l.starts_with("mis-homed:")), "{report:?}");
    }

    #[test]
    fn leftover_prepared_entry_is_reported() {
        let rig = rig();
        // Prepare a sub-transaction on shard 0 and never resolve it.
        rig.fs.create("/b/d00/extra", "app", b"x").unwrap();
        let grp_id = rig.host.dl_column("media", "clip").unwrap().grp_id;
        let conn = rig.shards[0].connector().connect().unwrap();
        conn.call(DlfmRequest::Connect { dbid: rig.host.dbid() }).unwrap();
        let xid = rig.host.next_xid();
        for req in [
            DlfmRequest::BeginTxn { xid },
            DlfmRequest::LinkFile {
                xid,
                rec_id: rig.host.next_rec_id(),
                grp_id,
                filename: "/b/d00/extra".into(),
                in_backout: false,
            },
        ] {
            assert_eq!(conn.call(req).unwrap(), DlfmResponse::Ok);
        }
        assert_eq!(
            conn.call(DlfmRequest::Prepare { xid }).unwrap(),
            DlfmResponse::Prepared { read_only: false }
        );
        let report = run(&rig);
        assert!(report.iter().any(|l| l.starts_with("in-doubt:")), "{report:?}");
        // The prepared link is also a link without a host row.
        assert!(report.iter().any(|l| l.starts_with("orphan-link:")), "{report:?}");
    }
}
