//! The metric families the host and a DLFM expose, pinned.
//!
//! Dashboards, watch rules and `dlfmtop` address metrics by family name
//! and label set, so a refactor of how counters are declared or rendered
//! must not move one: the `# HELP`/`# TYPE` lines and the sample keys
//! (name plus labels, not values) of `HostDb::metrics_text()` and
//! `DlfmServer::metrics_text()` after one linked insert over a socket are
//! compared, sorted, with the files under `tests/metrics_families/`. A new
//! family needs its lines there; no line may change by accident.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use archive::ArchiveServer;
use dlfm::{AccessControl, DlfmConfig, DlfmServer, Transport};
use filesys::FileSystem;
use hostdb::{DatalinkSpec, HostConfig, HostDb};
use minidb::Value;

/// One DLFM listening on a Unix-domain socket of its own.
fn socket_dlfm(name: &str) -> (Arc<FileSystem>, DlfmServer) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("dlfm-families-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let fs = Arc::new(FileSystem::new());
    let mut config = DlfmConfig::for_tests();
    config.listen = Transport::Unix(path.to_string_lossy().into_owned());
    let dlfm = DlfmServer::start(config, fs.clone(), Arc::new(ArchiveServer::new()));
    (fs, dlfm)
}

/// A host with `dlfms` attached by URL and one linked insert on each.
fn host_with(dlfms: &[(&str, &(Arc<FileSystem>, DlfmServer))]) -> HostDb {
    let host = HostDb::new(HostConfig::for_tests());
    for (name, (_, dlfm)) in dlfms {
        host.attach_dlfm_url(name, &dlfm.listen_addr().unwrap().to_string()).unwrap();
    }
    let mut s = host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: false }],
    )
    .unwrap();
    for (i, (name, (fs, _))) in dlfms.iter().enumerate() {
        fs.create("/f", "u", b"x").unwrap();
        s.exec_params(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            &[Value::Int(i as i64), Value::str(format!("dlfs://{name}/f"))],
        )
        .unwrap();
    }
    host
}

/// The sample keys of an exposition: each sample's name and label block.
fn sample_keys(text: &str) -> Vec<String> {
    obs::registry::parse_samples(text)
        .into_iter()
        .map(|s| format!("{}{}", s.name, s.labels))
        .collect()
}

/// The sorted `# HELP`/`# TYPE` lines, a blank line, then the sorted
/// sample keys: what a refactor of the renderers must leave alone.
fn families(text: &str) -> String {
    let mut headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
    headers.sort_unstable();
    let mut keys = sample_keys(text);
    keys.sort_unstable();
    format!("{}\n\n{}\n", headers.join("\n"), keys.join("\n"))
}

fn check(got: &str, golden: &str, file: &str) {
    if got != golden {
        let path = std::env::temp_dir().join(format!("metrics-families-{file}"));
        let _ = std::fs::write(&path, got);
        let old: HashSet<&str> = golden.lines().collect();
        let new: HashSet<&str> = got.lines().collect();
        let mut gone: Vec<&&str> = old.difference(&new).collect();
        let mut added: Vec<&&str> = new.difference(&old).collect();
        gone.sort();
        added.sort();
        panic!(
            "{file} moved (new text in {}):\ngone: {gone:#?}\nadded: {added:#?}",
            path.display()
        );
    }
}

#[test]
fn host_and_dlfm_expose_their_golden_families() {
    let shard = socket_dlfm("golden");
    let host = host_with(&[("fs1", &shard)]);
    check(&families(&host.metrics_text()), include_str!("metrics_families/host.txt"), "host.txt");
    check(
        &families(&shard.1.metrics_text()),
        include_str!("metrics_families/dlfm.txt"),
        "dlfm.txt",
    );
}
#[test]
fn a_host_with_two_shards_renders_each_series_once() {
    let a = socket_dlfm("dup-a");
    let b = socket_dlfm("dup-b");
    let host = host_with(&[("fs1", &a), ("fs2", &b)]);
    let text = host.metrics_text();
    let mut seen = HashSet::new();
    let repeated: Vec<String> =
        sample_keys(&text).into_iter().filter(|k| !seen.insert(k.clone())).collect();
    assert!(repeated.is_empty(), "series rendered more than once: {repeated:#?}");
}

#[test]
fn every_pinned_family_has_a_row_in_the_observability_doc() {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let goldens =
        [include_str!("metrics_families/host.txt"), include_str!("metrics_families/dlfm.txt")];
    let undocumented: Vec<&str> = goldens
        .iter()
        .flat_map(|g| g.lines().filter_map(|l| l.strip_prefix("# TYPE ")))
        .filter_map(|l| l.split(' ').next())
        .filter(|f| !doc.contains(&format!("`{f}`")) && !doc.contains(&format!("`{f}{{")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "families missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );
}
