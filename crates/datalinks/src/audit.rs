//! The §3.3 invariants as one executable oracle, for any deployment: one
//! host, any number of DLFM shards (ring on or off), one file server.
//! DESIGN.md §5.2 states each invariant; [`Audit::check`] reports a
//! violation under its kind (`mis-homed`, `orphan-link`, `column`,
//! `ownership`, `in-doubt`, `unfinished-commit`, `acked`, or `unreadable`
//! for a table it could not read). [`Audit::resolve_until_clean`] is the
//! one drain; [`Audit::settle`] runs it and then the check.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use dlfm::{AccessControl, DlfmServer};
use hostdb::{DatalinkUrl, HostDb};
use minidb::{Database, Row, Session, Value};

/// What the audit looks at.
pub struct Audit<'a> {
    /// The coordinator.
    pub host: &'a HostDb,
    /// `(name the host knows the shard by, server)`.
    pub shards: Vec<(&'a str, &'a DlfmServer)>,
    /// The file server every shard manages.
    pub fs: &'a filesys::FileSystem,
    /// Only files under this prefix are checked for ownership.
    pub prefix: &'a str,
    /// Acknowledged outcomes, by path.
    pub acked: HashMap<String, Acked>,
}

/// An acknowledged outcome [`Audit::check`] holds a path to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Acked {
    /// The link committed: the file is linked.
    Linked,
    /// The unlink committed, or the link never did: the file is linked
    /// nowhere and is back with the named owner, its owner before the link.
    Unlinked(String),
}

/// Violations found by [`Audit::check`]: one `kind: detail` line each, at
/// most three lines per kind so a systematic failure stays readable.
#[derive(Debug, Default)]
pub struct Report {
    /// The violation lines.
    pub lines: Vec<String>,
    counts: BTreeMap<&'static str, usize>,
}

impl Report {
    /// No violation of any kind.
    pub fn is_clean(&self) -> bool {
        self.counts.is_empty()
    }

    /// Violations of every kind (including those past the line cap).
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    fn push(&mut self, kind: &'static str, detail: String) {
        let n = self.counts.entry(kind).or_insert(0);
        *n += 1;
        if *n <= 3 {
            self.lines.push(format!("{kind}: {detail}"));
        } else if *n == 4 {
            self.lines.push(format!("{kind}: ... more of the same"));
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        write!(f, "{:?}", self.counts)?;
        self.lines.iter().try_for_each(|l| write!(f, "\n  {l}"))
    }
}

fn query(db: &Database, sql: &str, r: &mut Report) -> Vec<Row> {
    Session::new(db).query(sql, &[]).unwrap_or_else(|e| {
        r.push("unreadable", format!("{sql}: {e}"));
        Vec::new()
    })
}

fn text(v: &Value) -> String {
    v.as_str().map_or_else(|_| format!("{v:?}"), str::to_string)
}

impl<'a> Audit<'a> {
    /// An audit with no acknowledged outcomes.
    pub fn new(
        host: &'a HostDb,
        shards: Vec<(&'a str, &'a DlfmServer)>,
        fs: &'a filesys::FileSystem,
        prefix: &'a str,
    ) -> Audit<'a> {
        Audit { host, shards, fs, prefix, acked: HashMap::new() }
    }

    /// Sub-transactions still in doubt: `dfm_xact` entries on every shard
    /// plus the coordinator's unfinished commit decisions.
    fn in_doubt(&self, r: &mut Report) {
        for (name, shard) in &self.shards {
            for row in query(shard.db(), "SELECT xid, state FROM dfm_xact", r) {
                r.push("in-doubt", format!("shard {name}: xid {:?}, state {:?}", row[0], row[1]));
            }
        }
        for (xid, servers) in self.host.coord_log().unfinished_commits() {
            r.push("unfinished-commit", format!("xid {xid} awaits phase 2 on {servers:?}"));
        }
    }

    /// Run the resolver until nothing is in doubt anywhere, or until
    /// `timeout` has passed; [`Audit::check`] reports whatever is left.
    /// Abandoned agent sessions may briefly hold locks while their threads
    /// wind down, hence a deadline, not one pass.
    pub fn resolve_until_clean(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let resolved = self.host.resolve_indoubts();
            let mut left = Report::default();
            self.in_doubt(&mut left);
            if (resolved.is_ok() && left.is_clean()) || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drain, then check: the end state every sweep requires to be clean.
    pub fn settle(&self, timeout: Duration) -> Report {
        self.resolve_until_clean(timeout);
        self.check()
    }

    /// Check every invariant once.
    pub fn check(&self) -> Report {
        let mut r = Report::default();
        self.in_doubt(&mut r);

        // What each shard has linked, and whether it is taken over.
        let mut linked_on: HashMap<String, Vec<&str>> = HashMap::new();
        let mut full: HashSet<String> = HashSet::new();
        let mut admin = "";
        for (name, shard) in &self.shards {
            admin = &shard.shared().config.dlfm_admin;
            let sql = "SELECT filename, access_ctl FROM dfm_file WHERE lnk_state = 1";
            for row in query(shard.db(), sql, &mut r) {
                let file = text(&row[0]);
                if row[1] == Value::Int(AccessControl::Full.code()) {
                    full.insert(file.clone());
                }
                linked_on.entry(file).or_default().push(name);
            }
        }

        // Host rows against shard links and routing.
        let map = self.host.shard_map();
        let mut rows_of: HashMap<(String, String), Vec<String>> = HashMap::new();
        let sql = "SELECT tbl, col, server, filename FROM sys_datalinks";
        for row in query(self.host.db(), sql, &mut r) {
            let [tbl, col, server, file] = [0, 1, 2, 3].map(|i| text(&row[i]));
            match map.route(&file, map.epoch(), Duration::from_secs(5)) {
                Ok(Some(to)) if to.shard != server => r.push(
                    "mis-homed",
                    format!("{file}: host says {server}, map routes to {}", to.shard),
                ),
                Ok(_) => {}
                Err(e) => r.push("mis-homed", format!("{file}: {e}")),
            }
            let on = linked_on.get(&file).map_or(&[][..], Vec::as_slice);
            if on != [server.as_str()] {
                r.push("mis-homed", format!("{file}: host says {server}, linked on {on:?}"));
            }
            let key = (tbl.to_ascii_lowercase(), col.to_ascii_lowercase());
            rows_of.entry(key).or_default().push(file);
        }
        let named: HashSet<&String> = rows_of.values().flatten().collect();
        for (file, on) in &linked_on {
            if !named.contains(file) {
                r.push("orphan-link", format!("{file} linked on {on:?} without a host row"));
            }
        }

        // Each DATALINK value ⟺ exactly one sys_datalinks row.
        for dc in query(self.host.db(), "SELECT tbl, col FROM sys_dlcols", &mut r) {
            let [tbl, col] = [0, 1].map(|i| text(&dc[i]).to_ascii_lowercase());
            let mut count: HashMap<String, (usize, usize)> = HashMap::new();
            for v in query(self.host.db(), &format!("SELECT {col} FROM {tbl}"), &mut r) {
                let Value::Str(url) = &v[0] else { continue };
                let path = DatalinkUrl::parse(url).map_or_else(|_| url.clone(), |u| u.path);
                count.entry(path).or_default().0 += 1;
            }
            for file in rows_of.remove(&(tbl.clone(), col.clone())).unwrap_or_default() {
                count.entry(file).or_default().1 += 1;
            }
            for (file, (values, rows)) in count {
                if (values, rows) != (1, 1) {
                    r.push("column", format!("{tbl}.{col} {file}: {values} values, {rows} rows"));
                }
            }
        }
        for ((tbl, col), files) in rows_of {
            r.push("column", format!("{} rows for {tbl}.{col}, not in sys_dlcols", files.len()));
        }

        // Taken over ⟺ linked under full access control.
        for path in self.fs.list(self.prefix) {
            let Ok(meta) = self.fs.stat(&path) else { continue };
            if (meta.owner == admin) != full.contains(&path) {
                let on = linked_on.get(&path);
                r.push("ownership", format!("{path}: owner {}, linked on {on:?}", meta.owner));
            }
        }

        // Acknowledged outcomes stand, as [`Acked`] defines them.
        for (path, acked) in &self.acked {
            let (on, owner) = (linked_on.get(path), self.fs.stat(path).map(|m| m.owner).ok());
            let held = match acked {
                Acked::Linked => on.is_some(),
                Acked::Unlinked(before) => on.is_none() && owner.as_ref() == Some(before),
            };
            if !held {
                r.push("acked", format!("{path} not {acked:?}: on {on:?}, owner {owner:?}"));
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlfm::{DlfmConfig, DlfmRequest, DlfmResponse};
    use hostdb::{CoordRecord, DatalinkSpec, HostConfig};
    use std::sync::Arc;

    struct Rig {
        fs: Arc<filesys::FileSystem>,
        shards: Vec<DlfmServer>,
        host: HostDb,
    }

    /// Two in-process shards behind the ring, four committed rows spread
    /// over four directories.
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
        let mut s = host.session();
        let spec =
            DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false };
        s.create_table("CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)", &[spec]).unwrap();
        for id in 0..4i64 {
            let path = format!("/b/d{id}/f");
            fs.create(&path, "app", b"x").unwrap();
            let url = Value::str(format!("dlfs://s0{path}"));
            s.exec_params("INSERT INTO t (id, doc) VALUES (?, ?)", &[Value::Int(id), url]).unwrap();
        }
        Rig { fs, shards, host }
    }

    impl Rig {
        fn audit(&self) -> Audit<'_> {
            let shards = vec![("s0", &self.shards[0]), ("s1", &self.shards[1])];
            Audit::new(&self.host, shards, &self.fs, "/b/")
        }

        /// Run the audit and require exactly `kinds` among its findings.
        fn expect(&self, audit: &Audit<'_>, kinds: &[&str]) {
            let report = audit.check();
            let found: HashSet<&str> =
                report.lines.iter().filter_map(|l| l.split(':').next()).collect();
            assert_eq!(found, kinds.iter().copied().collect(), "{report}");
        }

        fn host_exec(&self, sql: &str, params: &[Value]) {
            Session::new(self.host.db()).exec_params(sql, params).unwrap();
        }
    }

    #[test]
    fn clean_two_shard_stand_reports_nothing() {
        let rig = rig();
        rig.fs.create("/b/never", "app", b"x").unwrap();
        let mut audit = rig.audit();
        audit.acked.insert("/b/d0/f".into(), Acked::Linked);
        audit.acked.insert("/b/never".into(), Acked::Unlinked("app".into()));
        let report = audit.settle(Duration::from_secs(5));
        assert!(report.is_clean(), "{report}");
        // Both shards hold links, so the stand really is two-shard.
        let on: HashSet<&str> = ["s0", "s1"]
            .into_iter()
            .zip(&rig.shards)
            .filter(|(_, s)| {
                Session::new(s.db()).query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap() > 0
            })
            .map(|(n, _)| n)
            .collect();
        assert_eq!(on.len(), 2, "links on {on:?}");
    }

    #[test]
    fn mis_homed_row_is_reported() {
        let rig = rig();
        // Point one host row at the other shard behind the engine's back.
        let mut s = Session::new(rig.host.db());
        let row = s.query("SELECT filename, server FROM sys_datalinks", &[]).unwrap().remove(0);
        let other = if row[1].as_str().unwrap() == "s0" { "s1" } else { "s0" };
        let sql = "UPDATE sys_datalinks SET server = ? WHERE filename = ?";
        rig.host_exec(sql, &[Value::str(other), row[0].clone()]);
        rig.expect(&rig.audit(), &["mis-homed"]);
    }

    #[test]
    fn leftover_prepared_entry_is_reported() {
        let rig = rig();
        // Prepare a sub-transaction on shard 0 and never resolve it.
        rig.fs.create("/b/extra", "app", b"x").unwrap();
        let grp_id = rig.host.dl_column("t", "doc").unwrap().grp_id;
        let conn = rig.shards[0].connector().connect().unwrap();
        conn.call(DlfmRequest::Connect { dbid: rig.host.dbid() }).unwrap();
        let xid = rig.host.next_xid();
        let rec_id = rig.host.next_rec_id();
        let filename = "/b/extra".to_string();
        for req in [
            DlfmRequest::BeginTxn { xid },
            DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout: false },
        ] {
            assert_eq!(conn.call(req).unwrap(), DlfmResponse::Ok);
        }
        let prepared = conn.call(DlfmRequest::Prepare { xid }).unwrap();
        assert_eq!(prepared, DlfmResponse::Prepared { read_only: false });
        // The prepared link is also a link without a host row, and its file
        // waits for phase 2 to be taken over.
        rig.expect(&rig.audit(), &["in-doubt", "orphan-link", "ownership"]);
    }

    #[test]
    fn chown_of_a_linked_file_is_reported() {
        let rig = rig();
        rig.fs.chown("/b/d1/f", "app", "app").unwrap();
        rig.expect(&rig.audit(), &["ownership"]);
    }

    #[test]
    fn user_row_without_its_sys_datalinks_row_is_reported() {
        let rig = rig();
        rig.host_exec("DELETE FROM sys_datalinks WHERE filename = ?", &[Value::str("/b/d2/f")]);
        // The shard still links the file the host forgot.
        rig.expect(&rig.audit(), &["column", "orphan-link"]);
    }

    #[test]
    fn commit_decision_without_phase2_is_reported() {
        let rig = rig();
        let xid = rig.host.next_xid();
        rig.host.coord_log().append_forced(CoordRecord::Commit { xid, servers: vec!["s0".into()] });
        rig.expect(&rig.audit(), &["unfinished-commit"]);
    }

    #[test]
    fn acknowledged_outcome_mismatch_is_reported() {
        let rig = rig();
        let mut audit = rig.audit();
        audit.acked.insert("/b/d3/f".into(), Acked::Unlinked("app".into()));
        rig.expect(&audit, &["acked"]);
    }

    #[test]
    fn unlinked_file_with_the_wrong_owner_is_reported() {
        let rig = rig();
        rig.host.session().exec_params("DELETE FROM t WHERE id = 3", &[]).unwrap();
        let mut audit = rig.audit();
        audit.acked.insert("/b/d3/f".into(), Acked::Unlinked("app".into()));
        rig.expect(&audit, &[]);
        // Released, but not to the owner it had before the link: no
        // takeover rule is broken, only the acknowledged outcome.
        rig.fs.chown("/b/d3/f", "mallory", "app").unwrap();
        rig.expect(&audit, &["acked"]);
    }
}
