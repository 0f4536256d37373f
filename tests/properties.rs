//! Randomized model-based tests over the core invariants (seeded, so every
//! run is reproducible):
//!
//! * The DLFM link/unlink state machine against a reference model: after
//!   any sequence of transactions (randomly committed or aborted), the set
//!   of linked files equals the model, and no file ever has two linked
//!   entries.
//! * The minidb engine against a BTreeMap model under random CRUD, with
//!   index/heap consistency checks, rollback, and crash recovery.

use std::collections::{BTreeMap, BTreeSet};

use datalinks::{dlfm, Deployment};
use dlfm::{DlfmRequest, DlfmResponse};
use minidb::{Session, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum DlAction {
    Link(u8),
    Unlink(u8),
}

fn dl_txn(rng: &mut StdRng) -> (Vec<DlAction>, bool) {
    let n = rng.gen_range(1..5usize);
    let actions = (0..n)
        .map(|_| {
            let f = rng.gen_range(0..12u8);
            if rng.gen_range(0..2u8) == 0 {
                DlAction::Link(f)
            } else {
                DlAction::Unlink(f)
            }
        })
        .collect();
    (actions, rng.gen_range(0..2u8) == 0)
}

#[test]
fn dlfm_state_machine_matches_model() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xD1F_0000 + case);
        let txns: Vec<_> = (0..rng.gen_range(1..12usize)).map(|_| dl_txn(&mut rng)).collect();

        let dep = Deployment::for_tests("fs1");
        let mut s = dep.host.session();
        s.create_table(
            "CREATE TABLE t (id BIGINT NOT NULL, doc DATALINK)",
            &[hostdb::DatalinkSpec {
                column: "doc".into(),
                access: dlfm::AccessControl::Partial,
                recovery: false,
            }],
        )
        .unwrap();
        let grp_id = dep.host.dl_column("t", "doc").unwrap().grp_id;
        for f in 0..12u8 {
            dep.fs.create(&format!("/f{f}"), "u", b"x").unwrap();
        }

        let conn = dep.dlfm.connector().connect().unwrap();
        conn.call(DlfmRequest::Connect { dbid: 1 }).unwrap();

        // Reference model: the committed set of linked files.
        let mut model: BTreeSet<u8> = BTreeSet::new();

        for (actions, commit) in txns {
            let xid = dep.host.next_xid();
            // Transaction-local view.
            let mut local = model.clone();
            let mut failed = false;
            for a in &actions {
                match a {
                    DlAction::Link(f) => {
                        let resp = conn
                            .call(DlfmRequest::LinkFile {
                                xid,
                                rec_id: dep.host.next_rec_id(),
                                grp_id,
                                filename: format!("/f{f}"),
                                in_backout: false,
                            })
                            .unwrap();
                        match resp {
                            DlfmResponse::Ok => {
                                assert!(
                                    !local.contains(f),
                                    "link of already-linked /f{f} must fail"
                                );
                                local.insert(*f);
                            }
                            DlfmResponse::Err(_) => {
                                // Model says it should only fail when
                                // already linked (in this single-client run).
                                assert!(local.contains(f), "link of free /f{f} must succeed");
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    DlAction::Unlink(f) => {
                        let resp = conn
                            .call(DlfmRequest::UnlinkFile {
                                xid,
                                rec_id: dep.host.next_rec_id(),
                                grp_id,
                                filename: format!("/f{f}"),
                                in_backout: false,
                            })
                            .unwrap();
                        match resp {
                            DlfmResponse::Ok => {
                                assert!(local.contains(f), "unlink of unlinked /f{f} must fail");
                                local.remove(f);
                            }
                            DlfmResponse::Err(_) => {
                                assert!(!local.contains(f), "unlink of linked /f{f} must succeed");
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }
            if commit && !failed {
                match conn.call(DlfmRequest::Prepare { xid }).unwrap() {
                    DlfmResponse::Prepared { .. } => {
                        conn.call(DlfmRequest::Commit { xid }).unwrap();
                        model = local;
                    }
                    _ => failed = true,
                }
            }
            if !commit || failed {
                conn.call(DlfmRequest::Abort { xid }).unwrap();
            }
        }

        // Invariant 1: committed linked set equals the model.
        let mut dl = Session::new(dep.dlfm.db());
        let rows = dl
            .query("SELECT filename FROM dfm_file WHERE lnk_state = 1 ORDER BY filename", &[])
            .unwrap();
        let got: BTreeSet<String> =
            rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
        let want: BTreeSet<String> = model.iter().map(|f| format!("/f{f}")).collect();
        assert_eq!(got, want);

        // Invariant 2: never two linked entries for one file.
        let per_file = dl.query("SELECT filename FROM dfm_file WHERE lnk_state = 1", &[]).unwrap();
        let mut seen = BTreeSet::new();
        for row in per_file {
            assert!(seen.insert(row[0].as_str().unwrap().to_string()), "duplicate linked entry");
        }
    }
}

// ---------------------------------------------------------------------
// minidb vs a BTreeMap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum DbAction {
    Insert { id: u8, val: i64 },
    Update { id: u8, val: i64 },
    Delete { id: u8 },
}

fn db_action(rng: &mut StdRng) -> DbAction {
    let id = rng.gen_range(0..32u8);
    let val = rng.gen_range(-1_000_000..1_000_000i64);
    match rng.gen_range(0..3u8) {
        0 => DbAction::Insert { id, val },
        1 => DbAction::Update { id, val },
        _ => DbAction::Delete { id },
    }
}

fn db_actions(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<DbAction> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| db_action(rng)).collect()
}

#[test]
fn minidb_matches_model_under_random_crud() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC4_0000 + case);
        let actions = db_actions(&mut rng, 1, 60);
        let use_index_stats = case % 2 == 0;

        let db = minidb::Database::new(minidb::DbConfig::for_tests());
        let mut s = Session::new(&db);
        s.exec("CREATE TABLE kv (id BIGINT NOT NULL, val BIGINT)").unwrap();
        s.exec("CREATE UNIQUE INDEX ix_kv ON kv (id)").unwrap();
        if use_index_stats {
            db.set_table_stats("kv", 1_000_000).unwrap();
            db.set_index_stats("ix_kv", 1_000_000).unwrap();
        }

        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        for a in actions {
            match a {
                DbAction::Insert { id, val } => {
                    let r = s.exec_params(
                        "INSERT INTO kv (id, val) VALUES (?, ?)",
                        &[Value::Int(id as i64), Value::Int(val)],
                    );
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(id) {
                        assert!(r.is_ok(), "fresh insert must succeed: {r:?}");
                        e.insert(val);
                    } else {
                        assert!(r.is_err(), "duplicate insert must fail");
                    }
                }
                DbAction::Update { id, val } => {
                    let n = s
                        .exec_params(
                            "UPDATE kv SET val = ? WHERE id = ?",
                            &[Value::Int(val), Value::Int(id as i64)],
                        )
                        .unwrap()
                        .count();
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(id) {
                        assert_eq!(n, 1);
                        e.insert(val);
                    } else {
                        assert_eq!(n, 0);
                    }
                }
                DbAction::Delete { id } => {
                    let n = s
                        .exec_params("DELETE FROM kv WHERE id = ?", &[Value::Int(id as i64)])
                        .unwrap()
                        .count();
                    assert_eq!(n, usize::from(model.remove(&id).is_some()));
                }
            }
        }

        // Full contents match the model.
        let rows = s.query("SELECT id, val FROM kv ORDER BY id", &[]).unwrap();
        assert_eq!(rows.len(), model.len());
        for ((mid, mval), row) in model.iter().zip(&rows) {
            assert_eq!(row[0].as_int().unwrap(), *mid as i64);
            assert_eq!(row[1].as_int().unwrap(), *mval);
        }
        // Point lookups agree too (exercises the index path when stats are
        // hand-crafted).
        for (mid, mval) in &model {
            let got = s.query_int(&format!("SELECT val FROM kv WHERE id = {mid}"), &[]).unwrap();
            assert_eq!(got, *mval);
        }
    }
}

#[test]
fn minidb_rollback_restores_model() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xB0_0000 + case);
        let committed = db_actions(&mut rng, 1, 20);
        let rolled_back = db_actions(&mut rng, 1, 20);

        let db = minidb::Database::new(minidb::DbConfig::for_tests());
        let mut s = Session::new(&db);
        s.exec("CREATE TABLE kv (id BIGINT NOT NULL, val BIGINT)").unwrap();
        s.exec("CREATE UNIQUE INDEX ix_kv ON kv (id)").unwrap();

        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        s.begin().unwrap();
        for a in committed {
            apply(&mut s, &mut model, a);
        }
        s.commit().unwrap();

        // A transaction full of random changes, then rollback.
        let mut scratch = model.clone();
        s.begin().unwrap();
        for a in rolled_back {
            apply(&mut s, &mut scratch, a);
        }
        s.rollback();

        let rows = s.query("SELECT id, val FROM kv ORDER BY id", &[]).unwrap();
        assert_eq!(rows.len(), model.len());
        for ((mid, mval), row) in model.iter().zip(&rows) {
            assert_eq!(row[0].as_int().unwrap(), *mid as i64);
            assert_eq!(row[1].as_int().unwrap(), *mval);
        }
    }
}

#[test]
fn minidb_crash_recovery_preserves_committed_state() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xCAFE_0000 + case);
        let batches: Vec<Vec<DbAction>> =
            (0..rng.gen_range(1..6usize)).map(|_| db_actions(&mut rng, 1, 8)).collect();
        let checkpoint_after =
            if rng.gen_range(0..2u8) == 0 { Some(rng.gen_range(0..batches.len())) } else { None };
        // A checkpoint taken while a batch is still open must hold only
        // what was committed before it: the batch commits afterwards, and
        // redo has to bring its writes back.
        let checkpoint_inside = rng.gen_bool(0.5).then(|| {
            let batch = rng.gen_range(0..batches.len());
            (batch, rng.gen_range(0..batches[batch].len()))
        });

        let db = minidb::Database::new(minidb::DbConfig::for_tests());
        let mut s = Session::new(&db);
        s.exec("CREATE TABLE kv (id BIGINT NOT NULL, val BIGINT)").unwrap();
        s.exec("CREATE UNIQUE INDEX ix_kv ON kv (id)").unwrap();

        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        for (i, batch) in batches.iter().enumerate() {
            s.begin().unwrap();
            for (j, a) in batch.iter().enumerate() {
                apply(&mut s, &mut model, *a);
                if checkpoint_inside == Some((i, j)) {
                    db.checkpoint();
                }
            }
            s.commit().unwrap();
            if checkpoint_after == Some(i) {
                db.checkpoint();
            }
        }
        drop(s);
        db.crash();
        db.restart().unwrap();

        let mut s = Session::new(&db);
        let rows = s.query("SELECT id, val FROM kv ORDER BY id", &[]).unwrap();
        assert_eq!(rows.len(), model.len());
        for ((mid, mval), row) in model.iter().zip(&rows) {
            assert_eq!(row[0].as_int().unwrap(), *mid as i64);
            assert_eq!(row[1].as_int().unwrap(), *mval);
        }
    }
}

fn apply(s: &mut Session, model: &mut BTreeMap<u8, i64>, a: DbAction) {
    match a {
        DbAction::Insert { id, val } => {
            let r = s.exec_params(
                "INSERT INTO kv (id, val) VALUES (?, ?)",
                &[Value::Int(id as i64), Value::Int(val)],
            );
            if r.is_ok() {
                model.insert(id, val);
            }
        }
        DbAction::Update { id, val } => {
            let n = s
                .exec_params(
                    "UPDATE kv SET val = ? WHERE id = ?",
                    &[Value::Int(val), Value::Int(id as i64)],
                )
                .unwrap()
                .count();
            if n > 0 {
                model.insert(id, val);
            }
        }
        DbAction::Delete { id } => {
            s.exec_params("DELETE FROM kv WHERE id = ?", &[Value::Int(id as i64)]).unwrap();
            model.remove(&id);
        }
    }
}
