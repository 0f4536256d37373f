//! The merged outcome of one closed-loop run.

use std::time::Duration;

use crate::run::{Fail, Op};

/// Outcome counters plus latency distribution of one run.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// From the clients' common start to the last client's end: the
    /// window plus at most the op each client had in flight when it closed.
    pub elapsed: Duration,
    /// Committed insert (link) transactions.
    pub inserts: u64,
    /// Committed update transactions.
    pub updates: u64,
    /// Committed delete (unlink) transactions.
    pub deletes: u64,
    /// Committed read-only transactions.
    pub selects: u64,
    /// Transactions rolled back by deadlock.
    pub deadlocks: u64,
    /// Transactions rolled back by lock timeout.
    pub timeouts: u64,
    /// Transactions rejected by admission control (pooled agent mode).
    pub rejects: u64,
    /// Other failed transactions.
    pub errors: u64,
    /// Latency of committed transactions, microseconds: one sample each.
    pub latency: obs::Histogram,
}

impl Report {
    /// Count one op: a committed one under its kind, with its latency
    /// sampled; a failed one under its failure class.
    pub fn record(&mut self, outcome: Result<Op, Fail>, took: Duration) {
        let counter = match outcome {
            Ok(op) => {
                self.latency.record_micros(took);
                match op {
                    Op::Insert => &mut self.inserts,
                    Op::Update => &mut self.updates,
                    Op::Delete => &mut self.deletes,
                    Op::Select => &mut self.selects,
                }
            }
            Err(Fail::Deadlock) => &mut self.deadlocks,
            Err(Fail::Timeout) => &mut self.timeouts,
            Err(Fail::Rejected) => &mut self.rejects,
            Err(Fail::Error) => &mut self.errors,
        };
        *counter += 1;
    }

    /// Committed transactions of all kinds.
    pub fn committed(&self) -> u64 {
        self.inserts + self.updates + self.deletes + self.selects
    }

    /// Committed transactions per second.
    pub fn per_sec(&self) -> f64 {
        self.per_minute(self.committed()) / 60.0
    }

    /// Per-minute rate for a counter.
    pub fn per_minute(&self, count: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        count as f64 * 60.0 / secs
    }

    /// Inserts per minute (the paper's headline metric).
    pub fn inserts_per_min(&self) -> f64 {
        self.per_minute(self.inserts)
    }

    /// Updates per minute.
    pub fn updates_per_min(&self) -> f64 {
        self.per_minute(self.updates)
    }

    /// Total forced rollbacks (deadlocks + timeouts).
    pub fn forced_rollbacks(&self) -> u64 {
        self.deadlocks + self.timeouts
    }

    /// Merge a per-client report into an aggregate.
    pub fn merge(&mut self, other: &Report) {
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.deletes += other.deletes;
        self.selects += other.selects;
        self.deadlocks += other.deadlocks;
        self.timeouts += other.timeouts;
        self.rejects += other.rejects;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:.1}s: {} committed ({:.0} ins/min, {:.0} upd/min, {:.0} del/min), \
             {} deadlocks, {} timeouts, {} rejects, {} errors, latency {}",
            self.elapsed.as_secs_f64(),
            self.committed(),
            self.inserts_per_min(),
            self.updates_per_min(),
            self.per_minute(self.deletes),
            self.deadlocks,
            self.timeouts,
            self.rejects,
            self.errors,
            crate::hist::summary(&self.latency)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_scale_with_elapsed() {
        let mut r = Report { elapsed: Duration::from_secs(30), ..Default::default() };
        r.inserts = 150;
        assert!((r.inserts_per_min() - 300.0).abs() < 1e-9);
        r.updates = 75;
        assert!((r.updates_per_min() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Report { elapsed: Duration::from_secs(10), ..Default::default() };
        a.inserts = 5;
        a.deadlocks = 1;
        let mut b = Report { elapsed: Duration::from_secs(12), ..Default::default() };
        b.inserts = 7;
        b.timeouts = 2;
        a.merge(&b);
        assert_eq!(a.inserts, 12);
        assert_eq!(a.forced_rollbacks(), 3);
        assert_eq!(a.elapsed, Duration::from_secs(12));
    }

    #[test]
    fn zero_elapsed_reports_zero_rate() {
        let r = Report::default();
        assert_eq!(r.inserts_per_min(), 0.0);
    }
}
