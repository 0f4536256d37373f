//! The Copy daemon's batching: queue entries are archived
//! [`dlfm::daemons::COPY_BATCH`] at a time and each batch is deleted in
//! one local transaction — lazily committed, so no log force at all, and
//! never enough row locks to escalate (§4).
//!
//! The server's own daemon does the work here. The tests commit a backlog
//! in one transaction — the daemon sees none of it or all of it — and read
//! the counters once the queue is empty. `obs::fault` is process-global,
//! hence a test binary of its own and `SERIAL`.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use archive::ArchiveServer;
use dlfm::{DlfmConfig, DlfmServer};
use filesys::FileSystem;
use minidb::{Session, Value};
use obs::fault::{self, Trigger};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct Rig {
    archive: Arc<ArchiveServer>,
    server: DlfmServer,
}

impl Rig {
    fn new() -> Rig {
        let archive = Arc::new(ArchiveServer::new());
        let server = DlfmServer::start(
            DlfmConfig::for_tests(),
            Arc::new(FileSystem::new()),
            archive.clone(),
        );
        Rig { archive, server }
    }

    /// Queue `n` files (`/q0` …, recovery id = index) in one transaction;
    /// `before_commit` runs while the daemon still sees an empty queue.
    fn enqueue(&self, n: usize, before_commit: impl FnOnce()) {
        let mut s = Session::new(self.server.db());
        s.begin().unwrap();
        for i in 0..n {
            s.exec_params(
                "INSERT INTO dfm_archive (filename, rec_id, grp_id, priority) VALUES (?, ?, 1, 0)",
                &[Value::str(format!("/q{i}")), Value::Int(i as i64)],
            )
            .unwrap();
        }
        before_commit();
        s.commit().unwrap();
    }

    fn queued(&self) -> i64 {
        Session::new(self.server.db()).query_int("SELECT COUNT(*) FROM dfm_archive", &[]).unwrap()
    }

    fn wait_drained(&self) {
        wait("the archive queue to drain", || self.queued() == 0);
    }

    fn archived(&self) -> u64 {
        self.server.metrics().snapshot().files_archived
    }

    fn stores(&self) -> u64 {
        self.archive.metrics().stores.load(Relaxed)
    }
}

fn wait(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_backlog_drains_in_bounded_batches_without_escalating() {
    let _s = serial();
    let r = Rig::new();
    let db = r.server.db();
    let forces = db.wal_forces_total();
    let escalations = db.lock_metrics().snapshot().escalations;
    // From the daemon's first look at the backlog on, a transaction
    // holding a few hundred row locks on one table escalates. (This one
    // took its thousand under the stock threshold.)
    r.enqueue(1000, || db.set_lock_escalation_threshold(Some(200)));
    // The counter moves after the last batch's delete committed, so an
    // empty queue alone does not mean it reads 1000 yet.
    wait("the last batch to be accounted", || r.archived() == 1000);

    assert_eq!(r.queued(), 0);
    assert_eq!(r.archive.len(), 1000);
    assert_eq!(db.lock_metrics().snapshot().escalations, escalations, "no batch escalated");
    let spent = db.wal_forces_total() - forces;
    assert_eq!(spent, 1, "the backlog's own commit; the daemon's batches force nothing");
}

#[test]
fn a_crash_between_the_stores_and_the_batched_delete_only_repeats_the_copy() {
    let _s = serial();
    let r = Rig::new();
    let guard = fault::install_guarded(3, &[("dlfm.copy.crash_before_delete", Trigger::Nth(1))]);
    r.enqueue(5, || {});
    wait("the injected crash", || !r.server.db().is_online());
    drop(guard);
    assert_eq!(r.stores(), 5, "the batch was archived before the crash");
    assert_eq!(r.archived(), 0, "but never accounted: its delete did not commit");

    // The queue entries survived the crash, so the restarted daemon
    // copies every file again.
    r.server.restart().unwrap();
    wait("the re-copy", || r.archived() == 5);
    assert_eq!(r.queued(), 0);
    assert_eq!(r.stores(), 10);
    assert_eq!(r.archive.len(), 5, "onto the same five (file, recovery id) keys");
    for i in 0..5 {
        assert_eq!(r.archive.versions(&format!("/q{i}")), vec![i]);
    }
}

#[test]
fn a_rejected_store_keeps_only_its_own_entry_queued() {
    let _s = serial();
    let r = Rig::new();
    let forces = r.server.db().wal_forces_total();
    let guard = fault::install_guarded(3, &[("archive.store", Trigger::Nth(3))]);
    r.enqueue(10, || {});
    r.wait_drained();
    // As in the backlog test: the counter moves after the last delete
    // committed, so an empty queue alone does not mean it reads 10 yet.
    wait("the last batch to be accounted", || r.archived() == 10);
    assert_eq!(fault::fires("archive.store"), 1);
    drop(guard);

    // Ten entries, eleven attempts, ten copies: the nine that were stored
    // beside the rejected one were deleted with their batch (a kept batch
    // would have been copied twice), and the rejected one stayed queued
    // until a later pass stored it (a dropped one would be missing).
    assert_eq!(r.stores(), 10);
    assert_eq!(r.archive.len(), 10);
    assert_eq!(r.archived(), 10);
    let spent = r.server.db().wal_forces_total() - forces;
    assert_eq!(spent, 1, "the backlog's commit; neither the batch of nine nor the retry");
}
