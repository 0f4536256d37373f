//! Write-ahead log with a bounded active window, group commit, and crash
//! simulation.
//!
//! The log provides the two properties DLFM leans on (paper §1, §3.3):
//! *persistence* (a forced record survives a crash) and *recoverability*
//! (replaying committed work reconstructs the database). It also models the
//! failure mode of §4: a long-running transaction pins the active log
//! window; once the window exceeds `capacity` further writes fail with
//! `LogFull`, which is why DLFM chunks utility transactions into periodic
//! local commits.
//!
//! Durability model: records are appended to a volatile tail;
//! [`Wal::force_up_to`] advances the durable watermark. The simulated fsync
//! device (`force_latency`) handles **one force at a time**, like a real log
//! disk, so serial per-commit forces cost N × latency under N committers.
//!
//! Group commit closes that gap: a committer publishes its commit LSN and
//! blocks until `durable_lsn` covers it; one *leader* performs a single
//! force on behalf of every waiter that arrived meanwhile (classic
//! leader/follower, condvar-based). An optional `group_commit_wait` window
//! lets the leader linger before forcing to accumulate a bigger batch.
//!
//! Not every commit needs its own force. A *lazy* commit appends its COMMIT
//! record and returns; the record hardens with the next force anyone
//! performs. Because the log is sequential and a force covers every record
//! appended before it, a lazy commit can be lost only together with
//! everything appended after it — never while a later forced commit
//! survives. [`Wal::note_lazy_commit`] only counts them; the mechanism is
//! simply *not* calling [`Wal::force_up_to`].
//!
//! A simulated crash discards everything after the watermark and wakes all
//! waiters, so no committer reports durability it never got. Because a
//! crash rewinds `next_lsn`, LSNs are *reused* afterwards — an LSN alone
//! cannot tell "my record became durable" from "a different record now
//! owns my LSN". [`Wal::append`] therefore returns an [`Appended`] receipt
//! carrying the crash epoch the record was born in (captured under the
//! same lock `crash()` bumps it under), and [`Wal::force_up_to`] decides
//! durability exactly from `(lsn, epoch)` plus the final watermark each
//! closed epoch is buried with. Checkpoints snapshot the storage so the
//! log can be replayed from the snapshot LSN instead of from the
//! beginning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::schema::{IndexSchema, TableSchema};
use crate::txn::TxnId;
use crate::value::Row;

/// Log sequence number.
pub type Lsn = u64;

/// Payload of one log record.
#[allow(missing_docs)] // payload fields are self-describing
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LogPayload {
    /// Transaction start.
    Begin,
    /// Row inserted.
    Insert { table: u32, rowid: u64, row: Row },
    /// Row deleted (old image kept for completeness/diagnostics).
    Delete { table: u32, rowid: u64, row: Row },
    /// Row updated in place.
    Update { table: u32, rowid: u64, old: Row, new: Row },
    /// DDL: table created.
    CreateTable { schema: TableSchema },
    /// DDL: index created.
    CreateIndex { schema: IndexSchema },
    /// DDL: table dropped (with its indexes).
    DropTable { table: u32 },
    /// Transaction committed (forced).
    Commit,
    /// Transaction rolled back.
    Abort,
}

/// One log record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRecord {
    /// Sequence number, dense from 1.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: u64,
    /// What happened.
    pub payload: LogPayload,
}

/// Receipt for one appended record: its LSN plus the crash epoch the
/// append happened in. Both are needed to decide durability exactly:
/// after a crash truncates the tail, LSNs are reused, so the epoch is
/// what ties the receipt to *this* record rather than a later namesake.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Crash epoch the record was appended in (captured under the log
    /// lock, so it can never be stale with respect to a racing crash).
    epoch: u64,
}

#[derive(Default)]
struct WalInner {
    records: Vec<LogRecord>,
    next_lsn: Lsn,
    durable_lsn: Lsn,
    /// First LSN written by each in-flight transaction.
    active_first_lsn: HashMap<u64, Lsn>,
    /// Final durable watermark of each closed (crashed) epoch — the exact
    /// survival test for records appended in that epoch.
    epoch_final: HashMap<u64, Lsn>,
}

impl WalInner {
    /// Size of the active window: records that cannot be reclaimed because
    /// an in-flight transaction might still need them.
    fn active_window(&self) -> usize {
        match self.active_first_lsn.values().min() {
            Some(&oldest) => (self.next_lsn.saturating_sub(oldest)) as usize,
            None => 0,
        }
    }
}

/// Group-commit coordination: at most one leader forces at a time;
/// followers park on the condvar until the durable watermark covers them.
#[derive(Default)]
struct GroupState {
    leader_active: bool,
}

/// The write-ahead log.
pub struct Wal {
    // Duration of each force (simulated fsync), in microseconds.
    force_hist: obs::Histogram,
    /// Commit records made durable per force (group-commit batch size).
    batch_hist: obs::Histogram,
    inner: Mutex<WalInner>,
    capacity: AtomicUsize,
    force_latency_nanos: AtomicU64,
    /// Mirror of `inner.durable_lsn` for lock-free waiter checks.
    durable: AtomicU64,
    /// Bumped on crash so blocked committers never report false durability.
    epoch: AtomicU64,
    group_commit: AtomicBool,
    group_wait_nanos: AtomicU64,
    forces: AtomicU64,
    commits: AtomicU64,
    /// Commit records whose committer did not wait for a force.
    lazy_commits: AtomicU64,
    /// The simulated fsync device: one force in flight at a time.
    device: Mutex<()>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
}

impl Wal {
    /// New empty log with the given active-window capacity (in records).
    /// Group commit starts enabled with a zero accumulation window.
    pub fn new(capacity: usize, force_latency: Duration) -> Wal {
        Wal {
            inner: Mutex::new(WalInner { next_lsn: 1, ..WalInner::default() }),
            capacity: AtomicUsize::new(capacity),
            force_latency_nanos: AtomicU64::new(force_latency.as_nanos() as u64),
            durable: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            group_commit: AtomicBool::new(true),
            group_wait_nanos: AtomicU64::new(0),
            forces: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            lazy_commits: AtomicU64::new(0),
            force_hist: obs::Histogram::new(),
            batch_hist: obs::Histogram::new(),
            device: Mutex::new(()),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
        }
    }

    /// Change the active-window capacity at runtime (E8 sweeps this).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Change the per-force latency at runtime.
    pub fn set_force_latency(&self, d: Duration) {
        self.force_latency_nanos.store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Toggle group commit at runtime (E11 compares both modes).
    pub fn set_group_commit(&self, on: bool) {
        self.group_commit.store(on, Ordering::Relaxed);
    }

    /// Is group commit enabled?
    pub fn group_commit(&self) -> bool {
        self.group_commit.load(Ordering::Relaxed)
    }

    /// Change the leader's batch-accumulation window at runtime.
    pub fn set_group_commit_wait(&self, d: Duration) {
        self.group_wait_nanos.store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Append a record for `txn`. Fails with `LogFull` when the active
    /// window would exceed capacity.
    pub fn append(&self, txn: TxnId, payload: LogPayload) -> DbResult<Appended> {
        if obs::fault::fire("minidb.wal.append") {
            return Err(DbError::Internal("injected: wal append I/O error".into()));
        }
        let is_terminal = matches!(payload, LogPayload::Commit | LogPayload::Abort);
        if matches!(payload, LogPayload::Commit) {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
        let mut inner = self.inner.lock();
        let capacity = self.capacity.load(Ordering::Relaxed);
        if !is_terminal && inner.active_window() >= capacity {
            return Err(DbError::LogFull { pinned: inner.active_window(), capacity });
        }
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.active_first_lsn.entry(txn.0).or_insert(lsn);
        inner.records.push(LogRecord { lsn, txn: txn.0, payload });
        if is_terminal {
            inner.active_first_lsn.remove(&txn.0);
        }
        // Epoch captured under the log lock — `crash()` bumps it under the
        // same lock, so the receipt can never carry a post-crash epoch for
        // a pre-crash record (or vice versa).
        Ok(Appended { lsn, epoch: self.epoch.load(Ordering::Acquire) })
    }

    /// Make everything appended so far durable. Returns `false` when a
    /// crash destroyed part of that tail first (see [`Wal::force_up_to`]).
    pub fn force(&self) -> bool {
        let tail = {
            let inner = self.inner.lock();
            Appended {
                lsn: inner.next_lsn.saturating_sub(1),
                epoch: self.epoch.load(Ordering::Acquire),
            }
        };
        self.force_up_to(tail)
    }

    /// Block until the record behind `rec` is durable. Returns `true` once
    /// that holds and `false` if a simulated crash destroyed the record
    /// first (the caller must NOT report durability). The decision is
    /// exact either way — see [`Wal::durable_status`].
    ///
    /// With group commit on this is the leader/follower protocol: the first
    /// committer to find no force in flight becomes leader, optionally
    /// lingers for `group_commit_wait`, then performs one force covering
    /// every record appended so far; followers park on a condvar. With
    /// group commit off every caller performs (and pays for) its own force,
    /// serialised at the device — the pre-group-commit behaviour.
    pub fn force_up_to(&self, rec: Appended) -> bool {
        if self.group_commit.load(Ordering::Relaxed) {
            self.force_grouped(rec)
        } else {
            self.force_serial(rec)
        }
    }

    /// Exact durability status of `rec`: `Some(true)` once the record is
    /// durable, `Some(false)` once a crash provably destroyed it, `None`
    /// while still undecided (append epoch current, watermark short).
    ///
    /// Exactness rests on two monotonicity facts. The durable watermark
    /// never rewinds (a crash truncates only records *past* it), and a
    /// record appended in epoch E has an LSN strictly above the watermark
    /// E started with (a crash rewinds `next_lsn` to `durable + 1`). So
    /// `durable >= rec.lsn` observed while the epoch still equals
    /// `rec.epoch` can only mean the record itself was covered; and once
    /// the epoch has moved on, the watermark E was closed with — recorded
    /// by `crash()` in `epoch_final` — is the precise survival test, no
    /// matter how far reused LSNs have regrown since.
    fn durable_status(&self, rec: Appended) -> Option<bool> {
        if self.durable.load(Ordering::Acquire) >= rec.lsn
            && self.epoch.load(Ordering::Acquire) == rec.epoch
        {
            return Some(true);
        }
        if self.epoch.load(Ordering::Acquire) == rec.epoch {
            return None;
        }
        let inner = self.inner.lock();
        Some(inner.epoch_final.get(&rec.epoch).is_some_and(|&d| d >= rec.lsn))
    }

    fn force_serial(&self, rec: Appended) -> bool {
        self.force_device(rec.epoch);
        // Decide on the watermark, not on our own force's outcome: another
        // committer's force may already have made `rec` durable (recovery
        // will redo it even though our force lost an epoch race), and our
        // own force succeeding implies it covered `rec`.
        self.durable_status(rec).unwrap_or(false)
    }

    fn force_grouped(&self, rec: Appended) -> bool {
        let mut group = self.group.lock();
        loop {
            if let Some(durable) = self.durable_status(rec) {
                return durable;
            }
            if group.leader_active {
                // Follower: the in-flight (or next) force will cover us.
                self.group_cv.wait(&mut group);
                continue;
            }
            group.leader_active = true;
            drop(group);
            let window = self.group_wait_nanos.load(Ordering::Relaxed);
            if window > 0 {
                thread::sleep(Duration::from_nanos(window));
            }
            // `durable_status` was undecided, so `rec.epoch` was current a
            // moment ago: this force either covers `rec` or loses an epoch
            // race to a crash — the loop re-check resolves either exactly.
            self.force_device(rec.epoch);
            group = self.group.lock();
            group.leader_active = false;
            self.group_cv.notify_all();
        }
    }

    /// One pass over the simulated fsync device: capture the force target,
    /// sleep the device latency, publish durability. Returns `false` if a
    /// crash (epoch bump) raced the force, in which case nothing is
    /// published.
    fn force_device(&self, epoch: u64) -> bool {
        let _span = obs::span(obs::Layer::Minidb, "wal_force");
        let started = std::time::Instant::now();
        let _device = self.device.lock();
        // Records appended while the fsync is in flight are NOT covered.
        let target = {
            let inner = self.inner.lock();
            inner.next_lsn.saturating_sub(1)
        };
        let latency = self.force_latency_nanos.load(Ordering::Relaxed);
        if latency > 0 {
            thread::sleep(Duration::from_nanos(latency));
        }
        let mut inner = self.inner.lock();
        if self.epoch.load(Ordering::Acquire) != epoch {
            return false;
        }
        // A crash cannot have truncated past `target` (epoch unchanged),
        // but clamp defensively so durability never outruns the records.
        let target = target.min(inner.next_lsn.saturating_sub(1));
        let covered = inner
            .records
            .iter()
            .rev()
            .take_while(|r| r.lsn > inner.durable_lsn)
            .filter(|r| r.lsn <= target && matches!(r.payload, LogPayload::Commit))
            .count();
        inner.durable_lsn = inner.durable_lsn.max(target);
        self.durable.store(inner.durable_lsn, Ordering::Release);
        let durable = inner.durable_lsn;
        drop(inner);
        self.forces.fetch_add(1, Ordering::Relaxed);
        self.batch_hist.record(covered as u64);
        self.force_hist.record_micros(started.elapsed());
        obs::journal::record(obs::journal::JournalKind::WalForce, 0, || {
            format!("wal force to lsn {durable} covering {covered} commits")
        });
        true
    }

    /// Histogram of force (simulated fsync) durations (microseconds).
    pub fn force_hist(&self) -> &obs::Histogram {
        &self.force_hist
    }

    /// Histogram of commit records made durable per force (batch size).
    pub fn batch_hist(&self) -> &obs::Histogram {
        &self.batch_hist
    }

    /// Total forces performed (one simulated fsync each).
    pub fn forces_total(&self) -> u64 {
        self.forces.load(Ordering::Relaxed)
    }

    /// Total commit records appended.
    pub fn commits_total(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Count one commit record whose committer returned without forcing.
    pub fn note_lazy_commit(&self) {
        self.lazy_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Commit records appended by lazy commits (a subset of
    /// [`Wal::commits_total`]).
    pub fn lazy_commits_total(&self) -> u64 {
        self.lazy_commits.load(Ordering::Relaxed)
    }

    /// Current size of the active (pinned) window, in records.
    pub fn active_window(&self) -> usize {
        self.inner.lock().active_window()
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    /// Highest appended LSN (durable or not).
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn.saturating_sub(1)
    }

    /// Total records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulate a crash: discard the volatile tail (records past the durable
    /// watermark) and forget in-flight transaction tracking. Returns the
    /// number of records lost. Blocked committers are woken and observe the
    /// epoch bump, so none of them reports a lost commit as durable.
    pub fn crash(&self) -> usize {
        let mut inner = self.inner.lock();
        let durable = inner.durable_lsn;
        let before = inner.records.len();
        inner.records.retain(|r| r.lsn <= durable);
        let lost = before - inner.records.len();
        inner.next_lsn = durable + 1;
        inner.active_first_lsn.clear();
        // Close the epoch under the log lock: record the watermark it ended
        // with (the exact survival test for its records), then bump. Held
        // lock means no `append` can capture a half-crashed epoch.
        let closed = self.epoch.fetch_add(1, Ordering::Release);
        inner.epoch_final.insert(closed, durable);
        drop(inner);
        self.group_cv.notify_all();
        lost
    }

    /// All retained records at or after `from_lsn`, in order.
    pub fn records_from(&self, from_lsn: Lsn) -> Vec<LogRecord> {
        self.inner.lock().records.iter().filter(|r| r.lsn >= from_lsn).cloned().collect()
    }

    /// Drop records strictly below `lsn` (after a checkpoint made them
    /// unnecessary for recovery).
    pub fn truncate_before(&self, lsn: Lsn) {
        self.inner.lock().records.retain(|r| r.lsn >= lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(cap: usize) -> Wal {
        Wal::new(cap, Duration::ZERO)
    }

    #[test]
    fn lsns_are_dense_and_monotonic() {
        let w = wal(100);
        let a = w.append(TxnId(1), LogPayload::Begin).unwrap();
        let b = w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert_eq!(b.lsn, a.lsn + 1);
        assert_eq!(w.last_lsn(), b.lsn);
    }

    #[test]
    fn log_full_when_one_txn_pins_window() {
        let w = wal(5);
        w.append(TxnId(7), LogPayload::Begin).unwrap();
        for i in 0..4 {
            w.append(TxnId(7), LogPayload::Insert { table: 1, rowid: i, row: vec![] }).unwrap();
        }
        let err = w
            .append(TxnId(7), LogPayload::Insert { table: 1, rowid: 99, row: vec![] })
            .unwrap_err();
        assert!(matches!(err, DbError::LogFull { .. }));
        // Commit is always allowed so the window can drain.
        w.append(TxnId(7), LogPayload::Commit).unwrap();
        assert_eq!(w.active_window(), 0);
        // And new transactions can write again.
        w.append(TxnId(8), LogPayload::Begin).unwrap();
    }

    #[test]
    fn chunked_commits_bound_the_window() {
        let w = wal(10);
        // 100 records in chunks of 5 never trip LogFull.
        for chunk in 0..20u64 {
            let t = TxnId(chunk + 1);
            w.append(t, LogPayload::Begin).unwrap();
            for i in 0..5 {
                w.append(t, LogPayload::Insert { table: 1, rowid: chunk * 5 + i, row: vec![] })
                    .unwrap();
            }
            w.append(t, LogPayload::Commit).unwrap();
        }
        assert_eq!(w.active_window(), 0);
    }

    #[test]
    fn crash_discards_unforced_tail() {
        let w = wal(100);
        w.append(TxnId(1), LogPayload::Begin).unwrap();
        w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert!(w.force());
        w.append(TxnId(2), LogPayload::Begin).unwrap();
        w.append(TxnId(2), LogPayload::Insert { table: 1, rowid: 0, row: vec![] }).unwrap();
        let lost = w.crash();
        assert_eq!(lost, 2);
        assert_eq!(w.last_lsn(), 2);
        let recs = w.records_from(0);
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[1].payload, LogPayload::Commit));
    }

    #[test]
    fn truncate_before_keeps_tail() {
        let w = wal(100);
        for _ in 0..5 {
            let t = TxnId(1);
            w.append(t, LogPayload::Begin).unwrap();
            w.append(t, LogPayload::Commit).unwrap();
        }
        w.truncate_before(7);
        assert_eq!(w.records_from(0).len(), 4);
    }

    #[test]
    fn multiple_active_txns_pin_oldest() {
        let w = wal(100);
        w.append(TxnId(1), LogPayload::Begin).unwrap(); // lsn 1
        w.append(TxnId(2), LogPayload::Begin).unwrap(); // lsn 2
        w.append(TxnId(2), LogPayload::Commit).unwrap(); // lsn 3
                                                         // Window measured from txn1's first record.
        assert_eq!(w.active_window(), 3);
        w.append(TxnId(1), LogPayload::Commit).unwrap();
        assert_eq!(w.active_window(), 0);
    }

    #[test]
    fn force_up_to_advances_durability_and_counts() {
        let w = wal(100);
        w.append(TxnId(1), LogPayload::Begin).unwrap();
        let c1 = w.append(TxnId(1), LogPayload::Commit).unwrap();
        w.append(TxnId(2), LogPayload::Begin).unwrap();
        let c2 = w.append(TxnId(2), LogPayload::Commit).unwrap();
        // One force covers both commits (they were both appended already).
        assert!(w.force_up_to(c2));
        assert!(w.durable_lsn() >= c1.lsn);
        assert_eq!(w.forces_total(), 1);
        assert_eq!(w.commits_total(), 2);
        assert_eq!(w.batch_hist().count(), 1);
        assert_eq!(w.batch_hist().max(), 2);
        // Already durable: no new force.
        assert!(w.force_up_to(c1));
        assert_eq!(w.forces_total(), 1);
    }

    /// A crash landing between append and force must report the record as
    /// lost — promptly (no live-lock as a leader forcing forever) and
    /// permanently (reused LSNs regrowing past it must not be mistaken for
    /// the destroyed record).
    #[test]
    fn crash_between_append_and_force_reports_loss() {
        for grouped in [true, false] {
            let w = wal(100);
            w.set_group_commit(grouped);
            w.append(TxnId(1), LogPayload::Begin).unwrap();
            let rec = w.append(TxnId(1), LogPayload::Commit).unwrap();
            w.crash();
            // Regrow the log past the lost LSN and make it durable: the
            // reused LSNs now cover `rec.lsn` with different records.
            w.append(TxnId(2), LogPayload::Begin).unwrap();
            let other = w.append(TxnId(2), LogPayload::Commit).unwrap();
            w.append(TxnId(3), LogPayload::Begin).unwrap();
            assert!(w.force_up_to(other));
            assert!(w.durable_lsn() >= rec.lsn);
            assert!(!w.force_up_to(rec), "lost record acknowledged as durable");
        }
    }

    /// The mirror case: a record that *did* become durable before the crash
    /// must be acknowledged even when the asker's own force loses the epoch
    /// race — recovery redoes it, so reporting it aborted would be wrong.
    #[test]
    fn durable_record_acked_across_a_crash() {
        for grouped in [true, false] {
            let w = wal(100);
            w.set_group_commit(grouped);
            w.append(TxnId(1), LogPayload::Begin).unwrap();
            let rec = w.append(TxnId(1), LogPayload::Commit).unwrap();
            assert!(w.force()); // e.g. another committer's force covers it
            w.crash(); // epoch bump: rec's own force can no longer succeed
            assert!(w.force_up_to(rec), "durable record reported as lost");
        }
    }

    #[test]
    fn serial_mode_forces_every_call() {
        let w = wal(100);
        w.set_group_commit(false);
        for t in 1..=3u64 {
            w.append(TxnId(t), LogPayload::Begin).unwrap();
            let lsn = w.append(TxnId(t), LogPayload::Commit).unwrap();
            assert!(w.force_up_to(lsn));
        }
        assert_eq!(w.forces_total(), 3);
        assert_eq!(w.commits_total(), 3);
    }

    #[test]
    fn crash_wakes_waiters_without_false_durability() {
        use std::sync::Arc;
        let w = Arc::new(Wal::new(100, Duration::from_millis(50)));
        w.append(TxnId(1), LogPayload::Begin).unwrap();
        let lsn = w.append(TxnId(1), LogPayload::Commit).unwrap();
        let w2 = w.clone();
        let committer = thread::spawn(move || w2.force_up_to(lsn));
        // Let the leader get into its simulated fsync, then crash.
        thread::sleep(Duration::from_millis(10));
        w.crash();
        // The committer must NOT report durability for a lost record.
        assert!(!committer.join().unwrap());
        assert_eq!(w.durable_lsn(), 0);
        assert!(w.records_from(0).is_empty());
    }
}
