//! The closed-loop runner every multi-client experiment drives.
//!
//! [`run`] owns the clients: one thread each, a seeded RNG each, one start
//! barrier, one window, the join and the merged [`Report`]. A client is a
//! body — `FnMut(&mut StdRng) -> Result<Op, Fail>` — that performs one
//! operation per call and says what it committed or why it failed; the
//! runner times each call and counts it, so no body counts for itself.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dlfm::{DbErrorKind, DlfmError};
use hostdb::HostError;
use minidb::{DbError, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;

/// What a committed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Linked (or inserted) something.
    Insert,
    /// Replaced something.
    Update,
    /// Unlinked (or deleted) something.
    Delete,
    /// Read only.
    Select,
}

/// Why an operation did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// Rolled back as a deadlock victim.
    Deadlock,
    /// Rolled back by a lock timeout.
    Timeout,
    /// Refused by admission control (`RpcError::Overloaded`).
    Rejected,
    /// Anything else.
    Error,
}

impl From<DbError> for Fail {
    fn from(e: DbError) -> Fail {
        match e {
            DbError::Deadlock { .. } => Fail::Deadlock,
            DbError::LockTimeout { .. } => Fail::Timeout,
            _ => Fail::Error,
        }
    }
}

impl From<DlfmError> for Fail {
    fn from(e: DlfmError) -> Fail {
        match e {
            DlfmError::Db { kind: DbErrorKind::Deadlock, .. } => Fail::Deadlock,
            DlfmError::Db { kind: DbErrorKind::LockTimeout, .. } => Fail::Timeout,
            _ => Fail::Error,
        }
    }
}

impl From<dlrpc::RpcError> for Fail {
    fn from(e: dlrpc::RpcError) -> Fail {
        match e {
            dlrpc::RpcError::Overloaded => Fail::Rejected,
            _ => Fail::Error,
        }
    }
}

impl From<HostError> for Fail {
    fn from(e: HostError) -> Fail {
        match e {
            HostError::Db(e) => e.into(),
            HostError::Dlfm { error, .. } => error.into(),
            HostError::PrepareFailed { reason, .. } if reason.contains("deadlock") => {
                Fail::Deadlock
            }
            HostError::PrepareFailed { reason, .. } if reason.contains("timeout") => Fail::Timeout,
            _ => Fail::Error,
        }
    }
}

/// Run `work` as one transaction on `s` and commit it, as `op`; a failed
/// begin, statement or commit rolls back and is classified.
pub fn in_txn(
    s: &mut Session,
    op: Op,
    work: impl FnOnce(&mut Session) -> Result<(), DbError>,
) -> Result<Op, Fail> {
    s.begin()?;
    match work(s).and_then(|()| s.commit()) {
        Ok(()) => Ok(op),
        Err(e) => {
            s.rollback();
            Err(e.into())
        }
    }
}

/// The shape of one run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Concurrent clients, a thread each.
    pub clients: usize,
    /// Measured window: a client starts no operation after it closes.
    pub window: Duration,
    /// Client `c`'s RNG is seeded with `seed + c`.
    pub seed: u64,
    /// Pause after each operation; the window's end cuts it short.
    pub think: Duration,
}

impl Load {
    /// `clients` for `window`, seeded with `seed`, without think time.
    pub fn new(clients: usize, window: Duration, seed: u64) -> Load {
        Load { clients, window, seed, think: Duration::ZERO }
    }
}

/// Run `load.clients` closed-loop clients for `load.window`. `client(c)`
/// builds client `c`'s body on its own thread (connect, warm up) before
/// the common start; the body then runs until the window closes, and the
/// runner counts and times every call.
pub fn run<F, B>(load: &Load, client: F) -> Report
where
    F: Fn(usize) -> B + Sync,
    B: FnMut(&mut StdRng) -> Result<Op, Fail>,
{
    let start = Barrier::new(load.clients + 1);
    let (client, start) = (&client, &start);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..load.clients)
            .map(|c| {
                scope.spawn(move || {
                    // A body that fails to build still meets the barrier,
                    // so its panic reaches the join instead of a hang.
                    let body = panic::catch_unwind(AssertUnwindSafe(|| client(c)));
                    start.wait();
                    let mut body = body.unwrap_or_else(|p| panic::resume_unwind(p));
                    let mut rng = StdRng::seed_from_u64(load.seed.wrapping_add(c as u64));
                    let mut report = Report::default();
                    let end = Instant::now() + load.window;
                    while Instant::now() < end {
                        let began = Instant::now();
                        let outcome = body(&mut rng);
                        report.record(outcome, began.elapsed());
                        std::thread::sleep(
                            load.think.min(end.saturating_duration_since(Instant::now())),
                        );
                    }
                    report
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let mut report = Report::default();
        for t in threads {
            report.merge(&t.join().expect("client thread must not panic"));
        }
        report.elapsed = started.elapsed();
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_commit_counts_as_its_failure_not_as_committed() {
        let db = minidb::Database::new(minidb::DbConfig::default());
        Session::new(&db).exec("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
        let report = run(&Load::new(1, Duration::from_millis(20), 1), |_| {
            let (db, mut s, mut id) = (&db, Session::new(&db), 0);
            move |_: &mut StdRng| {
                id += 1;
                in_txn(&mut s, Op::Insert, |s| {
                    s.exec_params("INSERT INTO t (id) VALUES (?)", &[minidb::Value::Int(id)])?;
                    // The second transaction's commit finds the database down.
                    if id == 2 {
                        db.crash();
                    }
                    Ok(())
                })
            }
        });
        assert_eq!(report.inserts, 1, "{}", report.summary());
        assert!(report.errors >= 1, "{}", report.summary());
        assert_eq!(report.latency.count(), 1);
    }

    #[test]
    fn latency_samples_equal_committed_ops() {
        let load = Load::new(3, Duration::from_millis(50), 1);
        let report = run(&load, |_| {
            let mut n = 0u64;
            move |_: &mut StdRng| {
                n += 1;
                std::thread::sleep(Duration::from_micros(200));
                match n % 4 {
                    0 => Err(Fail::Timeout),
                    1 => Err(Fail::Deadlock),
                    _ => Ok(Op::Update),
                }
            }
        });
        assert!(report.updates > 0 && report.forced_rollbacks() > 0, "{}", report.summary());
        assert_eq!(report.latency.count(), report.committed());
    }

    #[test]
    fn think_time_ends_with_the_window() {
        // An 8 s think time after a 5 ms op: the window closes while the
        // client thinks, and the run ends with it.
        let load =
            Load { think: Duration::from_secs(8), ..Load::new(2, Duration::from_millis(300), 1) };
        let report = run(&load, |_| {
            |_: &mut StdRng| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(Op::Insert)
            }
        });
        assert_eq!(report.inserts, 2, "one op per client fits the window");
        assert!(
            report.elapsed < load.window + Duration::from_millis(200),
            "elapsed {:?} ran past the window",
            report.elapsed
        );
    }
}
