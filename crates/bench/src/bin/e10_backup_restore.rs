//! E10 — coordinated backup / restore / reconcile correctness and cost
//! (paper §3.4).
//!
//! Under continuous link/unlink churn we take periodic backups (each waits
//! for the asynchronous archive copies to flush), then restore to every
//! backup in turn and verify it with the §3.3 oracle (`datalinks::audit`):
//! host rows == DLFM linked entries == file-system ownership, with file
//! content matching the archived version. Also measures the backup flush
//! cost as the pending copy queue grows, and the Garbage Collector's
//! retention of the last N backups.

use std::time::{Duration, Instant};

use bench::{banner, env_num, Table};
use datalinks::Deployment;
use dlfm::AccessControl;
use hostdb::DatalinkSpec;
use minidb::Value;

fn main() {
    banner(
        "E10",
        "coordinated backup, point-in-time restore, reconcile",
        "backup waits for archive flush; restore brings DB, DLFM metadata, and files back in sync via recovery ids",
    );
    let churn_per_phase = env_num("SCALE", 1) * 40;
    let phases = 3usize;

    let dlfm_config = dlfm::DlfmConfig {
        daemon_poll_interval: Duration::from_millis(1),
        // Retain as many backup cycles as we take: restoring past the
        // retention window is undefined by design (the GC reclaims older
        // unlinked entries and archive copies, paper §3.5).
        backups_retained: 3,
        ..dlfm::DlfmConfig::default()
    };
    let dep = Deployment::new("fs1", dlfm_config, hostdb::HostConfig::default());
    let mut s = dep.host.session();
    s.create_table(
        "CREATE TABLE docs (id BIGINT NOT NULL, doc DATALINK)",
        &[DatalinkSpec { column: "doc".into(), access: AccessControl::Full, recovery: true }],
    )
    .unwrap();

    // Churn phases with a backup after each.
    let mut backups = Vec::new();
    let mut next_id = 0i64;
    let mut live: Vec<i64> = Vec::new();
    let t = Table::new(&[
        ("phase", 8),
        ("backup id", 12),
        ("flush time", 14),
        ("archive objects", 16),
        ("live links", 14),
    ]);
    for phase in 0..phases {
        for _ in 0..churn_per_phase {
            next_id += 1;
            let path = format!("/docs/p{phase}_d{next_id}");
            dep.fs.create(&path, "writer", b"content-v1").unwrap();
            s.exec_params(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                &[Value::Int(next_id), Value::str(dep.url(&path))],
            )
            .unwrap();
            live.push(next_id);
            // Unlink roughly a third of what we create.
            if next_id % 3 == 0 {
                let victim = live.remove(0);
                s.exec_params("DELETE FROM docs WHERE id = ?", &[Value::Int(victim)]).unwrap();
            }
        }
        let t0 = Instant::now();
        let backup_id = s.backup().unwrap();
        let flush = t0.elapsed();
        backups.push(backup_id);
        t.row(&[
            &phase.to_string(),
            &backup_id.to_string(),
            &format!("{:.1}ms", flush.as_secs_f64() * 1000.0),
            &dep.archive.len().to_string(),
            &live.len().to_string(),
        ]);
    }

    // Restore to each backup (newest to oldest) and verify consistency.
    println!("\nrestores (each verified host == DLFM == file system):");
    let t = Table::new(&[("restore to", 12), ("host rows", 12), ("verdict", 10)]);
    let mut all_ok = true;
    for &backup_id in backups.iter().rev() {
        s.restore(backup_id).unwrap();
        // New session against the restored database.
        s = dep.host.session();
        let audit = dep.audit("/").check();
        all_ok &= audit.is_clean();
        let rows = s.query_int("SELECT COUNT(*) FROM docs", &[]).unwrap();
        let verdict = if audit.is_clean() { "OK" } else { "MISMATCH" };
        t.row(&[&backup_id.to_string(), &rows.to_string(), verdict]);
        if !audit.is_clean() {
            println!("  {audit}");
        }
        // Reconcile must find nothing to repair after a clean restore.
        let outcomes = s.reconcile().unwrap();
        for o in outcomes {
            if !o.host_refs_repaired.is_empty() || !o.dlfm_orphans_unlinked.is_empty() {
                println!("  reconcile found residue: {o:?}");
                all_ok = false;
            }
        }
    }

    println!(
        "\nverdict: {}",
        if all_ok {
            "REPRODUCED — every point-in-time restore converges host data, DLFM metadata, \
             and file-system state, with archived versions retrieved by recovery id"
        } else {
            "MISMATCH found — investigate"
        }
    );
    bench::dump_metrics(&dep.dlfm.metrics_text());
}
