//! Host-process half of the two-process wire smoke test.
//!
//! Connects to a `dlfmd` started by someone else (see `ci.sh`), runs a
//! short link/unlink workload over the socket — every RPC crosses the
//! frame codec and a real kernel socket into another OS process — and
//! exits nonzero on any failure:
//!
//! ```text
//! dlfmd --listen unix:///tmp/d.sock --seed-files 32 &
//! cargo run -p datalinks --example wire_host_smoke -- unix:///tmp/d.sock 32
//! ```
//!
//! The workload: create a DATALINK table, link every seeded file (one 2PC
//! commit each, which must cost exactly two RPC calls: the statement round
//! carrying the Prepare, and the Commit — and, after the first, no bind:
//! the INSERT comes from the statement cache), ask for every link's access
//! token twice (the second round
//! must come from the host's token cache: no RPC), unlink half by DELETE
//! (again no bind after the first, the datalink probe included; their
//! cached tokens must go, and asking again must get the DLFM's
//! not-linked error), roll one transaction back, and run the indoubt
//! resolver. Asserts the host ends with the expected row count and zero
//! unresolved indoubts.

use datalinks::{dlfm, hostdb};
use dlfm::AccessControl;
use hostdb::DatalinkSpec;
use minidb::Value;

/// Sum of a metric's samples (every label set) in the host's metrics text.
fn metric(host: &hostdb::HostDb, name: &str) -> u64 {
    let samples = datalinks::obs::registry::parse_samples(&host.metrics_text());
    samples.iter().filter(|s| s.name == name).map(|s| s.value as u64).sum()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let url = args.next().unwrap_or_else(|| {
        eprintln!("usage: wire_host_smoke <tcp://...|unix://...> [seeded-files]");
        std::process::exit(2);
    });
    let files: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(16);

    let host = hostdb::HostDb::new(hostdb::HostConfig::for_tests());
    host.attach_dlfm_url("fs1", &url).expect("attach by URL");

    let mut session = host.session();
    session
        .create_table(
            "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
            &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: true }],
        )
        .expect("create table over the wire");

    // What `writes` autocommit linked-row statements must have cost since
    // `(calls, votes)` was read: the round with the vote on it, and the
    // Commit — two calls each, no separate Prepare.
    let costs = |host: &hostdb::HostDb| {
        (metric(host, "rpc_calls_total"), metric(host, "hostdb_unsolicited_votes_total"))
    };
    let check_cost = |what: &str, before: (u64, u64), writes: usize| {
        let (calls, votes) = costs(&host);
        println!("{what}: {} rpc calls, {} votes on the round", calls - before.0, votes - before.1);
        assert_eq!(calls - before.0, 2 * writes as u64, "{what}: two calls per statement");
        assert_eq!(votes - before.1, writes as u64, "{what}: every vote rides on its round");
    };

    // Link every seeded file, one two-phase commit per row. The first
    // INSERT binds the statement; every later one must find it in the
    // host database's statement cache — no parse, no plan, no bind.
    let before = costs(&host);
    let stmts = |host: &hostdb::HostDb| {
        (metric(host, "minidb_stmt_binds_total"), metric(host, "minidb_stmt_cache_hits_total"))
    };
    let mut after_first = (0, 0);
    for i in 0..files {
        session
            .exec_params(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                &[Value::Int(i as i64), Value::str(format!("dlfs://fs1/seed/file{i}"))],
            )
            .unwrap_or_else(|e| panic!("link of /seed/file{i} failed: {e}"));
        if i == 0 {
            after_first = stmts(&host);
        }
    }
    check_cost("insert", before, files);
    let (binds, hits) = stmts(&host);
    println!(
        "insert: {} binds, {} cache hits after the first",
        binds - after_first.0,
        hits - after_first.1
    );
    assert_eq!(binds, after_first.0, "a repeated INSERT must not be bound again");
    assert_eq!(hits - after_first.1, files as u64 - 1, "every repeated INSERT is one cache hit");

    // Tokens come from the DLFM (IssueToken over the wire) — once per
    // link. The second round is answered by the host's cache.
    let rows = session.query("SELECT doc FROM docs ORDER BY id", &[]).expect("select");
    let urls: Vec<String> =
        rows.iter().map(|r| r[0].as_str().expect("datalink value").to_string()).collect();
    assert_eq!(urls.len(), files);
    // One round: every URL's token, the cache hits and the RPC calls it took.
    let mut ask_all = || -> (Vec<String>, u64, u64) {
        let (hits, calls) =
            (metric(&host, "hostdb_token_cache_hits_total"), metric(&host, "rpc_calls_total"));
        let tokens: Vec<String> =
            urls.iter().map(|u| session.read_token(u).expect("token over the wire")).collect();
        assert!(tokens.iter().all(|t| !t.is_empty()), "tokens must be non-empty");
        let hits = metric(&host, "hostdb_token_cache_hits_total") - hits;
        let calls = metric(&host, "rpc_calls_total") - calls;
        println!("token round: {hits} cache hits, {calls} rpc calls");
        (tokens, hits, calls)
    };
    let (first, _, _) = ask_all();
    let (second, hits, calls) = ask_all();
    assert_eq!(second, first, "a cached token is the token the DLFM issued");
    assert_eq!(hits, files as u64, "second round must be all cache hits");
    assert_eq!(calls, 0, "a cache hit must not call the DLFM");

    // A rolled-back link must leave no trace on either side.
    session.begin().expect("begin");
    session
        .exec_params(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            &[Value::Int(10_000), Value::str("dlfs://fs1/seed/file0".to_string())],
        )
        .expect_err("relinking an already-linked file must fail");
    session.rollback();
    // The attempt dropped file0's cached token (any link request does); the
    // link it failed against is still there, and so is its token.
    assert_eq!(session.read_token(&urls[0]).expect("token after failed relink"), first[0]);

    // Unlink half by DELETE (one 2PC each): each drops its cached token.
    // As for the INSERT, only the first DELETE binds — the statement and
    // the probe that reads the datalink values it unlinks.
    let dropped = metric(&host, "hostdb_token_cache_invalidations_total");
    let before = costs(&host);
    for i in 0..files / 2 {
        session
            .exec_params("DELETE FROM docs WHERE id = ?", &[Value::Int(i as i64)])
            .unwrap_or_else(|e| panic!("unlink of /seed/file{i} failed: {e}"));
        if i == 0 {
            after_first = stmts(&host);
        }
    }
    check_cost("delete", before, files / 2);
    let binds = stmts(&host).0;
    println!("delete: {} binds after the first", binds - after_first.0);
    assert_eq!(binds, after_first.0, "a repeated DELETE must not be bound again");
    let dropped = metric(&host, "hostdb_token_cache_invalidations_total") - dropped;
    assert_eq!(dropped, (files / 2) as u64, "every unlink must drop its cached token");
    if files >= 2 {
        match session.read_token(&urls[0]) {
            Err(hostdb::HostError::Dlfm { error: dlfm::DlfmError::NotLinked(_), .. }) => {}
            other => panic!("token of an unlinked file: expected NotLinked, got {other:?}"),
        }
    }

    // Nothing should be left in doubt after clean commits.
    let resolved = host.resolve_indoubts().expect("resolver over the wire");
    assert_eq!(resolved, 0, "clean run must leave no indoubt transactions");

    let rows = session.query("SELECT id FROM docs", &[]).expect("final select");
    assert_eq!(rows.len(), files - files / 2, "row count after links and unlinks");

    // Pull the merged fleet trace over the telemetry RPC: the daemon is a
    // separate OS process, so its spans can only get here through the
    // wire. CI greps for the sentinel and the assertions make malformed
    // output or an empty remote span set a hard failure.
    let remotes = host.fleet_remote_traces();
    let remote_spans: usize = remotes.iter().map(|r| r.spans.len()).sum();
    let trace = host.fleet_trace();
    assert!(
        datalinks::obs::json_is_well_formed(&trace),
        "merged fleet trace must be well-formed JSON"
    );
    assert!(remote_spans > 0, "merged fleet trace carried zero remote spans");
    println!("FLEET_TRACE ok remote_spans={remote_spans} bytes={}", trace.len());

    println!(
        "wire_host_smoke OK: {} links, {} unlinks, {} rows remain over {url}",
        files,
        files / 2,
        rows.len()
    );
}
