//! The two-phase-commit coordinator log.
//!
//! Presumed abort (paper §3.3, reference 8): the coordinator force-writes a
//! commit record *after* all participants prepared and *before* telling
//! anyone to commit. On restart, transactions with a commit record but no
//! end record are re-driven to commit; prepared participant transactions
//! with no commit record are aborted.
//!
//! The log is the minidb log core ([`minidb::log`]) over [`CoordRecord`]:
//! the same single-force device, leader/follower group commit and exact
//! crash epochs as the minidb WAL. Only the commit decision is forced; End
//! records harden with the next decision's force.
//!
//! `End` means every participant acknowledged phase 2, so no proactive
//! re-drive is needed. It does not mean the commit is durable there: a DLFM
//! commits phase 2 lazily, and one that crashes before its next force comes
//! back with the transaction in doubt. The resolver then asks
//! [`CoordLog::committed`], which answers from the `Commit` record whether
//! or not an `End` follows it. Hence the invariant: a `Commit` record is
//! never dropped while a participant may still hold its transaction in
//! doubt. (Nothing truncates this log today.)

use std::ops::Deref;
use std::time::Duration;

use minidb::log::{Log, Record};
use obs::journal::JournalKind;

/// One coordinator log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordRecord {
    /// Decision record: this transaction commits on the listed servers.
    Commit {
        /// Host transaction id.
        xid: i64,
        /// DLFM servers that prepared.
        servers: Vec<String>,
    },
    /// All participants acknowledged phase 2.
    End {
        /// Host transaction id.
        xid: i64,
    },
}

impl CoordRecord {
    /// The transaction the record is about.
    pub(crate) fn xid(&self) -> i64 {
        match self {
            CoordRecord::Commit { xid, .. } | CoordRecord::End { xid } => *xid,
        }
    }
}

impl Record for CoordRecord {
    fn is_commit(&self) -> bool {
        matches!(self, CoordRecord::Commit { .. })
    }
}

/// The coordinator log. Everything not defined here — appends, forces,
/// crash, counters — is the log core's, reached through `Deref`.
pub struct CoordLog(Log<CoordRecord>);

impl Deref for CoordLog {
    type Target = Log<CoordRecord>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Default for CoordLog {
    fn default() -> Self {
        CoordLog::new()
    }
}

impl CoordLog {
    /// New empty log with group commit on and zero force latency.
    pub fn new() -> CoordLog {
        CoordLog(Log::new(obs::Layer::Host, JournalKind::CoordForce, Duration::ZERO))
    }

    /// Append and force in one step (used for the commit decision).
    /// Returns `false` when a simulated crash destroyed the record.
    pub fn append_forced(&self, rec: CoordRecord) -> bool {
        let rec = self.append(rec);
        self.force_up_to(rec)
    }

    /// Total commit-decision records appended.
    pub fn decisions_total(&self) -> u64 {
        self.commits_total()
    }

    /// The `coordlog_*` family: forces against decisions, and decisions
    /// per force (the group-commit batch).
    pub(crate) fn render_metrics(&self, r: &mut obs::Registry) {
        r.counter(
            "coordlog_forces_total",
            "Coordinator-log forces (one per leader).",
            &[],
            self.forces_total(),
        );
        r.counter(
            "coordlog_commit_decisions_total",
            "Commit-decision records appended.",
            &[],
            self.decisions_total(),
        );
        r.histogram(
            "coordlog_force_batch_decisions",
            "Commit decisions made durable per coordinator-log force.",
            &[],
            self.batch_hist(),
        );
    }

    /// Transactions with a commit decision but no end record — phase 2
    /// must be re-driven for these. Reads the volatile tail too: the
    /// resolver leaves transactions still open on this host alone.
    pub fn unfinished_commits(&self) -> Vec<(i64, Vec<String>)> {
        self.read(|records, _| {
            let mut open: Vec<(i64, Vec<String>)> = Vec::new();
            for rec in records {
                match rec {
                    CoordRecord::Commit { xid, servers } => open.push((*xid, servers.clone())),
                    CoordRecord::End { xid } => open.retain(|(x, _)| x != xid),
                }
            }
            open
        })
    }

    /// The highest transaction id the log names, 0 for an empty log.
    pub(crate) fn max_xid(&self) -> i64 {
        self.read(|records, _| records.iter().map(CoordRecord::xid).max().unwrap_or(0))
    }

    /// Was a commit decision recorded for `xid` that names `server`? An
    /// `End` does not hide it: a participant may have lost its lazy phase-2
    /// commit since. A decision for the same xid that names other servers
    /// is another transaction's (an xid handed out again after a restart
    /// that could not reach `server`), so it does not commit `server`'s.
    pub fn committed(&self, xid: i64, server: &str) -> bool {
        self.read(|records, _| {
            records.iter().any(|r| {
                matches!(r, CoordRecord::Commit { xid: x, servers }
                    if *x == xid && servers.iter().any(|s| s == server))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfinished_commits_tracks_ends() {
        let log = CoordLog::new();
        log.append_forced(CoordRecord::Commit { xid: 1, servers: vec!["fs1".into()] });
        log.append_forced(CoordRecord::Commit { xid: 2, servers: vec!["fs2".into()] });
        log.append(CoordRecord::End { xid: 1 });
        let open = log.unfinished_commits();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].0, 2);
    }

    #[test]
    fn crash_loses_unforced_tail() {
        let log = CoordLog::new();
        log.append_forced(CoordRecord::Commit { xid: 1, servers: vec![] });
        log.append(CoordRecord::End { xid: 1 });
        let lost = log.crash();
        assert_eq!(lost, 1);
        // The commit decision survived; the end record did not — phase 2
        // re-drives transaction 1.
        assert_eq!(log.unfinished_commits(), vec![(1, vec![])]);
    }

    #[test]
    fn committed_lookup() {
        let log = CoordLog::new();
        assert!(!log.committed(5, "fs1"));
        log.append_forced(CoordRecord::Commit { xid: 5, servers: vec!["fs1".into()] });
        assert!(log.committed(5, "fs1"));
        assert!(!log.committed(5, "fs2"), "the decision does not name fs2");
    }

    #[test]
    fn one_force_covers_earlier_appends() {
        let log = CoordLog::new();
        let s1 = log.append(CoordRecord::Commit { xid: 1, servers: vec![] });
        log.append(CoordRecord::End { xid: 0 });
        let s2 = log.append(CoordRecord::Commit { xid: 2, servers: vec![] });
        assert!(s1.lsn < s2.lsn);
        assert!(log.force_up_to(s2));
        assert_eq!(log.forces_total(), 1);
        // End records are not decisions, neither appended nor hardened.
        assert_eq!(log.decisions_total(), 2);
        assert_eq!(log.batch_hist().max(), 2);
        // Already durable: no new force.
        assert!(log.force_up_to(s1));
        assert_eq!(log.forces_total(), 1);
    }

    /// `force()` must not hold the inner lock across the force (it used to
    /// self-deadlock on the very first real force).
    #[test]
    fn explicit_force_makes_the_tail_durable() {
        let log = CoordLog::new();
        log.append(CoordRecord::Commit { xid: 1, servers: vec![] });
        log.append(CoordRecord::End { xid: 1 });
        assert!(log.force());
        assert_eq!(log.forces_total(), 1);
        assert_eq!(log.crash(), 0, "forced tail must survive a crash");
    }

    /// A crash landing between append and force must report the decision
    /// as lost — promptly, and even after reused sequence numbers regrow
    /// past it and become durable.
    #[test]
    fn crash_between_append_and_force_reports_loss() {
        for grouped in [true, false] {
            let log = CoordLog::new();
            log.set_group_commit(grouped);
            let rec = log.append(CoordRecord::Commit { xid: 1, servers: vec![] });
            log.crash();
            let other = log.append(CoordRecord::Commit { xid: 2, servers: vec![] });
            assert!(log.force_up_to(other));
            assert!(!log.force_up_to(rec), "lost decision acknowledged as durable");
        }
    }

    /// The mirror case: a decision that became durable before the crash
    /// must still be acknowledged afterwards.
    #[test]
    fn durable_decision_acked_across_a_crash() {
        for grouped in [true, false] {
            let log = CoordLog::new();
            log.set_group_commit(grouped);
            let rec = log.append(CoordRecord::Commit { xid: 1, servers: vec![] });
            assert!(log.force());
            log.crash();
            assert!(log.force_up_to(rec), "durable decision reported as lost");
        }
    }
}
