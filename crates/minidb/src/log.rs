//! The log core both durable logs run on: the minidb WAL
//! ([`crate::wal::Wal`]) and the host's presumed-abort coordinator log
//! (`hostdb::CoordLog`) are two record types over this one group-commit,
//! crash-epoch and force mechanism.
//!
//! Durability model: records are appended to a volatile tail and numbered
//! densely from 1; a *force* advances the durable watermark over everything
//! appended before it. The simulated fsync device (`force_latency`) handles
//! **one force at a time**, like a real log disk, so serial per-commit
//! forces cost N × latency under N committers.
//!
//! Group commit closes that gap: a committer keeps the receipt of its
//! commit record and blocks until the watermark covers it; one *leader*
//! performs a single force on behalf of every waiter that arrived meanwhile
//! (classic leader/follower, condvar-based). With group commit off every
//! caller pays for its own force, serialised at the device — the setting
//! E11, E14 and the forced bench stand compare against.
//!
//! A simulated crash discards everything after the watermark and wakes all
//! waiters, so no committer reports durability it never got. Because a
//! crash rewinds the next LSN, LSNs are *reused* afterwards — an LSN alone
//! cannot tell "my record became durable" from "a different record now
//! owns my LSN". [`Log::append`] therefore returns an [`Appended`] receipt
//! carrying the crash epoch the record was born in (captured under the same
//! lock `crash()` bumps it under), and [`Log::force_up_to`] decides
//! durability exactly from `(lsn, epoch)` plus the final watermark each
//! closed epoch is buried with.
//!
//! The record type tells the core one thing — whether a record commits
//! something ([`Record::is_commit`]), which is what the commit counter and
//! the per-force batch histogram count. Anything else a log needs under
//! the log lock (the WAL's active window) is its state `S`, which a crash
//! resets to `S::default()`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use obs::journal::JournalKind;
use parking_lot::{Condvar, Mutex};

/// Log sequence number: dense from 1, reused after a crash.
pub type Lsn = u64;

/// What the core needs to know about a record.
pub trait Record {
    /// Does this record commit something? Counted in
    /// [`Log::commits_total`] and in the batch of the force that hardens it.
    fn is_commit(&self) -> bool;
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

struct Inner<R, S> {
    /// Record `i` has LSN `i + 1`.
    records: Vec<R>,
    durable: Lsn,
    /// Final durable watermark of each closed (crashed) epoch — the exact
    /// survival test for records appended in that epoch.
    epoch_final: HashMap<u64, Lsn>,
    state: S,
}

/// Group-commit leadership. `parked` counts followers inside
/// `group_cv.wait`, so a leader whose force nobody waited on signals
/// nobody, and one that has followers signals them after unlocking.
#[derive(Default)]
struct Group {
    leader_active: bool,
    parked: usize,
}

/// A forced, group-committed, crash-simulating log of `R` records with
/// per-log state `S` kept under the log lock.
pub struct Log<R, S = ()> {
    inner: Mutex<Inner<R, S>>,
    /// Mirror of `inner.durable` for lock-free waiter checks.
    durable: AtomicU64,
    /// Bumped on crash so blocked committers never report false durability.
    epoch: AtomicU64,
    force_latency_nanos: AtomicU64,
    group_commit: AtomicBool,
    forces: AtomicU64,
    commits: AtomicU64,
    /// Duration of each force (simulated fsync), in microseconds.
    force_hist: obs::Histogram,
    /// How far each simulated fsync's sleep ran past the configured
    /// latency, in microseconds: the machine's share of a force.
    oversleep_hist: obs::Histogram,
    /// Commit records made durable per force (group-commit batch size).
    batch_hist: obs::Histogram,
    /// The simulated fsync device: one force in flight at a time.
    device: Mutex<()>,
    /// Is a group-commit leader forcing, and how many followers are
    /// parked on `group_cv` waiting for it?
    group: Mutex<Group>,
    group_cv: Condvar,
    /// Where each force shows up: its span's layer, and the journal kind
    /// whose name is also the span's name.
    layer: obs::Layer,
    kind: JournalKind,
}

impl<R: Record, S: Default> Log<R, S> {
    /// New empty log with group commit on. Each force opens a `layer` span
    /// named after `kind` and records one `kind` journal event.
    pub fn new(layer: obs::Layer, kind: JournalKind, force_latency: Duration) -> Self {
        Log {
            inner: Mutex::new(Inner {
                records: Vec::new(),
                durable: 0,
                epoch_final: HashMap::new(),
                state: S::default(),
            }),
            durable: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            force_latency_nanos: AtomicU64::new(force_latency.as_nanos() as u64),
            group_commit: AtomicBool::new(true),
            forces: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            force_hist: obs::Histogram::new(),
            oversleep_hist: obs::Histogram::new(),
            batch_hist: obs::Histogram::new(),
            device: Mutex::new(()),
            group: Mutex::new(Group::default()),
            group_cv: Condvar::new(),
            layer,
            kind,
        }
    }

    /// Change the per-force latency at runtime.
    pub fn set_force_latency(&self, d: Duration) {
        self.force_latency_nanos.store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Toggle group commit at runtime (off = serial forces, E11's other arm).
    pub fn set_group_commit(&self, on: bool) {
        self.group_commit.store(on, Ordering::Relaxed);
    }

    /// Is group commit enabled?
    pub fn group_commit(&self) -> bool {
        self.group_commit.load(Ordering::Relaxed)
    }

    /// Append a record (volatile until forced).
    pub fn append(&self, record: R) -> Appended {
        let Ok(rec) = self.append_with(|_, _| Ok::<R, Infallible>(record));
        rec
    }

    /// Append the record `make` builds from its LSN and the log's state,
    /// both under the log lock; an `Err` from `make` appends nothing.
    pub fn append_with<E>(
        &self,
        make: impl FnOnce(Lsn, &mut S) -> Result<R, E>,
    ) -> Result<Appended, E> {
        let mut inner = self.inner.lock();
        let lsn = inner.records.len() as Lsn + 1;
        let record = make(lsn, &mut inner.state)?;
        if record.is_commit() {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
        inner.records.push(record);
        // Epoch captured under the log lock — `crash()` bumps it under the
        // same lock, so the receipt can never carry a post-crash epoch for
        // a pre-crash record (or vice versa).
        Ok(Appended { lsn, epoch: self.epoch.load(Ordering::Acquire) })
    }

    /// Make everything appended so far durable. Returns `false` when a
    /// crash destroyed part of that tail first (see [`Log::force_up_to`]).
    pub fn force(&self) -> bool {
        let tail = {
            let inner = self.inner.lock();
            Appended { lsn: inner.records.len() as Lsn, epoch: self.epoch.load(Ordering::Acquire) }
        };
        self.force_up_to(tail)
    }

    /// Block until the record behind `rec` is durable. Returns `true` once
    /// that holds and `false` if a simulated crash destroyed the record
    /// first (the caller must NOT report durability). The decision is
    /// exact either way — see `durable_status`.
    ///
    /// With group commit on this is the leader/follower protocol: the first
    /// committer to find no force in flight becomes leader and performs one
    /// force covering every record appended so far; followers park on a
    /// condvar. With group commit off every caller performs (and pays for)
    /// its own force, serialised at the device.
    pub fn force_up_to(&self, rec: Appended) -> bool {
        if !self.group_commit.load(Ordering::Relaxed) {
            self.force_pass(rec.epoch);
            // Decide on the watermark, not on our own force's outcome:
            // another committer's force may already have made `rec` durable
            // (recovery will redo it even though our force lost an epoch
            // race), and our own force succeeding implies it covered `rec`.
            return self.durable_status(rec).unwrap_or(false);
        }
        let mut group = self.group.lock();
        loop {
            if let Some(durable) = self.durable_status(rec) {
                return durable;
            }
            if group.leader_active {
                // Follower: the in-flight (or next) force will cover us.
                group.parked += 1;
                self.group_cv.wait(&mut group);
                group.parked -= 1;
                continue;
            }
            group.leader_active = true;
            drop(group);
            // `durable_status` was undecided, so `rec.epoch` was current a
            // moment ago: this force either covers `rec` or loses an epoch
            // race to a crash — the loop re-check resolves either exactly.
            self.force_pass(rec.epoch);
            group = self.group.lock();
            group.leader_active = false;
            if group.parked > 0 {
                drop(group);
                self.group_cv.notify_all();
                group = self.group.lock();
            }
        }
    }

    /// Exact durability status of `rec`: `Some(true)` once the record is
    /// durable, `Some(false)` once a crash provably destroyed it, `None`
    /// while still undecided (append epoch current, watermark short).
    ///
    /// Exactness rests on two monotonicity facts. The durable watermark
    /// never rewinds (a crash truncates only records *past* it), and a
    /// record appended in epoch E has an LSN strictly above the watermark
    /// E started with (a crash rewinds the next LSN to `durable + 1`). So
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

    /// One pass over the simulated fsync device: capture the force target,
    /// sleep the device latency, publish durability. Returns `false` if a
    /// crash (epoch bump) raced the force, in which case nothing is
    /// published.
    fn force_pass(&self, epoch: u64) -> bool {
        let _span = obs::span(self.layer, self.kind.as_str());
        let started = Instant::now();
        let _device = self.device.lock();
        // Records appended while the fsync is in flight are NOT covered.
        let target = self.inner.lock().records.len();
        let latency = self.force_latency_nanos.load(Ordering::Relaxed);
        if latency > 0 {
            let (latency, slept) = (Duration::from_nanos(latency), Instant::now());
            thread::sleep(latency);
            self.oversleep_hist.record_micros(slept.elapsed().saturating_sub(latency));
        }
        let mut inner = self.inner.lock();
        if self.epoch.load(Ordering::Acquire) != epoch {
            return false;
        }
        // A crash cannot have truncated past `target` (epoch unchanged),
        // but clamp defensively so durability never outruns the records.
        let target = target.min(inner.records.len());
        let from = (inner.durable as usize).min(target);
        let covered = inner.records[from..target].iter().filter(|r| r.is_commit()).count();
        inner.durable = inner.durable.max(target as Lsn);
        let durable = inner.durable;
        self.durable.store(durable, Ordering::Release);
        drop(inner);
        self.forces.fetch_add(1, Ordering::Relaxed);
        self.batch_hist.record(covered as u64);
        self.force_hist.record_micros(started.elapsed());
        obs::journal::record(self.kind, 0, || {
            format!("{} to lsn {durable} covering {covered} commits", self.kind.as_str())
        });
        true
    }

    /// Simulate a crash: discard the volatile tail (records past the durable
    /// watermark) and reset the log's state. Returns the number of records
    /// lost. Blocked committers are woken and observe the epoch bump, so
    /// none of them reports a lost commit as durable.
    pub fn crash(&self) -> usize {
        let mut inner = self.inner.lock();
        let durable = inner.durable;
        let lost = inner.records.len() - durable as usize;
        inner.records.truncate(durable as usize);
        inner.state = S::default();
        // Close the epoch under the log lock: record the watermark it ended
        // with (the exact survival test for its records), then bump. Held
        // lock means no `append` can capture a half-crashed epoch.
        let closed = self.epoch.fetch_add(1, Ordering::Release);
        inner.epoch_final.insert(closed, durable);
        drop(inner);
        self.group_cv.notify_all();
        lost
    }

    /// Run `f` over the retained records (record `i` has LSN `i + 1`) and
    /// the log's state, under the log lock.
    pub fn read<T>(&self, f: impl FnOnce(&[R], &S) -> T) -> T {
        let inner = self.inner.lock();
        f(&inner.records, &inner.state)
    }

    /// Run `f` over the log's state, under the log lock.
    pub fn update<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut self.inner.lock().state)
    }

    /// All retained records at or after `from_lsn`, in order.
    pub fn records_from(&self, from_lsn: Lsn) -> Vec<R>
    where
        R: Clone,
    {
        self.read(|records, _| {
            let from = (from_lsn.saturating_sub(1) as usize).min(records.len());
            records[from..].to_vec()
        })
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    /// Highest appended LSN (durable or not).
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().records.len() as Lsn
    }

    /// Histogram of force (simulated fsync) durations (microseconds).
    pub fn force_hist(&self) -> &obs::Histogram {
        &self.force_hist
    }

    /// Histogram of how far each simulated fsync overslept its configured
    /// latency (microseconds); one sample per force with a latency.
    pub fn oversleep_hist(&self) -> &obs::Histogram {
        &self.oversleep_hist
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
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    /// A record that commits, or does not.
    struct Rec(bool);

    impl Record for Rec {
        fn is_commit(&self) -> bool {
            self.0
        }
    }

    fn log(latency: Duration) -> Log<Rec> {
        Log::new(obs::Layer::Minidb, JournalKind::WalForce, latency)
    }

    /// A crash landing between append and force must report the record as
    /// lost — promptly (no live-lock as a leader forcing forever) and
    /// permanently (reused LSNs regrowing past it must not be mistaken for
    /// the destroyed record).
    #[test]
    fn crash_between_append_and_force_reports_loss() {
        for grouped in [true, false] {
            let log = log(Duration::ZERO);
            log.set_group_commit(grouped);
            log.append(Rec(false));
            let rec = log.append(Rec(true));
            log.crash();
            // Regrow the log past the lost LSN and make it durable: the
            // reused LSNs now cover `rec.lsn` with different records.
            log.append(Rec(false));
            let other = log.append(Rec(true));
            log.append(Rec(false));
            assert!(log.force_up_to(other));
            assert!(log.durable_lsn() >= rec.lsn);
            assert!(!log.force_up_to(rec), "lost record acknowledged as durable");
        }
    }

    /// The mirror case: a record that *did* become durable before the crash
    /// must be acknowledged even when the asker's own force loses the epoch
    /// race — recovery redoes it, so reporting it aborted would be wrong.
    #[test]
    fn durable_record_acked_across_a_crash() {
        for grouped in [true, false] {
            let log = log(Duration::ZERO);
            log.set_group_commit(grouped);
            let rec = log.append(Rec(true));
            assert!(log.force()); // e.g. another committer's force covers it
            log.crash(); // epoch bump: rec's own force can no longer succeed
            assert!(log.force_up_to(rec), "durable record reported as lost");
        }
    }

    #[test]
    fn crash_wakes_waiters_without_false_durability() {
        let log = Arc::new(log(Duration::from_millis(50)));
        let rec = log.append(Rec(true));
        let forcing = log.clone();
        let committer = thread::spawn(move || forcing.force_up_to(rec));
        // Let the leader get into its simulated fsync, then crash.
        thread::sleep(Duration::from_millis(10));
        assert_eq!(log.crash(), 1);
        // The committer must NOT report durability for a lost record.
        assert!(!committer.join().unwrap());
        assert_eq!(log.durable_lsn(), 0);
        assert_eq!(log.last_lsn(), 0);
    }

    /// One leader force covers every committer waiting at that moment, and
    /// the batch histogram accounts for every commit; an already durable
    /// record costs no force.
    #[test]
    fn one_leader_force_covers_concurrent_committers() {
        let log = Arc::new(log(Duration::from_millis(2)));
        let committers: Vec<_> = (0..4)
            .map(|_| {
                let log = log.clone();
                thread::spawn(move || {
                    for _ in 0..5 {
                        log.append(Rec(false));
                        let rec = log.append(Rec(true));
                        assert!(log.force_up_to(rec));
                    }
                })
            })
            .collect();
        for c in committers {
            c.join().unwrap();
        }
        assert_eq!(log.commits_total(), 20);
        let forces = log.forces_total();
        assert!(forces < 20, "grouped forces ({forces}) must undercut commits (20)");
        assert_eq!(log.batch_hist().count(), forces);
        assert_eq!(log.batch_hist().sum(), 20);
        assert!(log.force_up_to(Appended { lsn: 1, epoch: 0 }));
        assert_eq!(log.forces_total(), forces);
    }

    /// Every force that sleeps a latency records its oversleep once; a
    /// device with no latency records none.
    #[test]
    fn each_force_records_its_oversleep() {
        let log = log(Duration::from_millis(1));
        for _ in 0..3 {
            let rec = log.append(Rec(true));
            assert!(log.force_up_to(rec));
        }
        assert_eq!((log.forces_total(), log.oversleep_hist().count()), (3, 3));
        assert!(log.oversleep_hist().max() < log.force_hist().max());
        let instant = self::log(Duration::ZERO);
        assert!(instant.force());
        assert_eq!(instant.oversleep_hist().count(), 0);
    }

    #[test]
    fn serial_mode_forces_every_call() {
        let log = log(Duration::ZERO);
        log.set_group_commit(false);
        for _ in 0..3 {
            let rec = log.append(Rec(true));
            assert!(log.force_up_to(rec));
        }
        assert_eq!(log.forces_total(), 3);
        assert_eq!(log.commits_total(), 3);
    }
}
