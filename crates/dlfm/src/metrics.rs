//! Operation counters and per-operation latency histograms exported for
//! the experiment harness and [`crate::server::DlfmServer::metrics_text`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-operation latency histograms (microseconds), recorded at the agent
/// dispatch boundary and in phase-2 processing.
#[derive(Debug, Default)]
pub struct DlfmOpHists {
    /// LinkFile forward processing.
    pub link: obs::Histogram,
    /// UnlinkFile forward processing.
    pub unlink: obs::Histogram,
    /// Prepare (including the hardening local commit).
    pub prepare: obs::Histogram,
    /// Phase-2 commit, including all retries.
    pub phase2_commit: obs::Histogram,
    /// Phase-2 abort, including all retries.
    pub phase2_abort: obs::Histogram,
    /// Upcall link-state queries.
    pub upcall: obs::Histogram,
}

impl DlfmOpHists {
    /// Iterate `(op label, histogram)` pairs for metric exposition.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &obs::Histogram)> {
        [
            ("link", &self.link),
            ("unlink", &self.unlink),
            ("prepare", &self.prepare),
            ("phase2_commit", &self.phase2_commit),
            ("phase2_abort", &self.phase2_abort),
            ("upcall", &self.upcall),
        ]
        .into_iter()
    }
}

/// Monotonic DLFM counters. All relaxed; read via [`DlfmMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct DlfmMetrics {
    /// Successful LinkFile operations.
    pub links: AtomicU64,
    /// Successful UnlinkFile operations.
    pub unlinks: AtomicU64,
    /// Prepare votes returned.
    pub prepares: AtomicU64,
    /// Batch requests unpacked (their members count in the per-operation
    /// counters as if sent alone).
    pub batches: AtomicU64,
    /// Phase-2 commits completed.
    pub commits: AtomicU64,
    /// Phase-2 aborts completed.
    pub aborts: AtomicU64,
    /// Phase-2 attempts that hit a retryable local-database error and were
    /// retried (Figure 4's "retry until it succeeds").
    pub phase2_retries: AtomicU64,
    /// Phase-2 operations abandoned at the retry-limit safety valve,
    /// leaving the sub-transaction prepared for the resolver to re-drive.
    pub phase2_abandoned: AtomicU64,
    /// Phase-2 abort failures swallowed during session retirement/restart;
    /// the sub-transaction stays in-doubt for the resolver.
    pub phase2_abort_failures: AtomicU64,
    /// Committed group-deletion notifications that could not be handed to
    /// the Delete-Group daemon (daemon gone or injected drop); the work
    /// stays in `dfm_xact` until a rescan picks it up.
    pub groupd_notify_drops: AtomicU64,
    /// Chunked local commits issued inside long-running transactions
    /// (lazy: the transaction's Prepare is what forces them).
    pub chunk_commits: AtomicU64,
    /// Files archived by the Copy daemon.
    pub files_archived: AtomicU64,
    /// Files restored by the Retrieve daemon.
    pub files_retrieved: AtomicU64,
    /// Files unlinked by the Delete-Group daemon.
    pub group_files_unlinked: AtomicU64,
    /// Metadata entries removed by the Garbage Collector.
    pub gc_entries_removed: AtomicU64,
    /// Archive copies removed by the Garbage Collector.
    pub gc_archive_removed: AtomicU64,
    /// Upcall queries served.
    pub upcalls: AtomicU64,
    /// Forward-processing operations that failed with a retryable database
    /// error and forced a host-side rollback.
    pub forced_rollbacks: AtomicU64,
    /// Times the statistics guard re-applied hand-crafted statistics after
    /// a RUNSTATS overwrote them.
    pub stats_reapplied: AtomicU64,
    /// Per-operation latency histograms.
    pub op_hists: DlfmOpHists,
}

/// Plain-value snapshot of [`DlfmMetrics`].
#[allow(missing_docs)] // field names mirror DlfmMetrics docs
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DlfmMetricsSnapshot {
    pub links: u64,
    pub unlinks: u64,
    pub prepares: u64,
    pub batches: u64,
    pub commits: u64,
    pub aborts: u64,
    pub phase2_retries: u64,
    pub phase2_abandoned: u64,
    pub phase2_abort_failures: u64,
    pub groupd_notify_drops: u64,
    pub chunk_commits: u64,
    pub files_archived: u64,
    pub files_retrieved: u64,
    pub group_files_unlinked: u64,
    pub gc_entries_removed: u64,
    pub gc_archive_removed: u64,
    pub upcalls: u64,
    pub forced_rollbacks: u64,
    pub stats_reapplied: u64,
}

impl DlfmMetrics {
    /// Increment a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read everything.
    pub fn snapshot(&self) -> DlfmMetricsSnapshot {
        DlfmMetricsSnapshot {
            links: self.links.load(Ordering::Relaxed),
            unlinks: self.unlinks.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            phase2_retries: self.phase2_retries.load(Ordering::Relaxed),
            phase2_abandoned: self.phase2_abandoned.load(Ordering::Relaxed),
            phase2_abort_failures: self.phase2_abort_failures.load(Ordering::Relaxed),
            groupd_notify_drops: self.groupd_notify_drops.load(Ordering::Relaxed),
            chunk_commits: self.chunk_commits.load(Ordering::Relaxed),
            files_archived: self.files_archived.load(Ordering::Relaxed),
            files_retrieved: self.files_retrieved.load(Ordering::Relaxed),
            group_files_unlinked: self.group_files_unlinked.load(Ordering::Relaxed),
            gc_entries_removed: self.gc_entries_removed.load(Ordering::Relaxed),
            gc_archive_removed: self.gc_archive_removed.load(Ordering::Relaxed),
            upcalls: self.upcalls.load(Ordering::Relaxed),
            forced_rollbacks: self.forced_rollbacks.load(Ordering::Relaxed),
            stats_reapplied: self.stats_reapplied.load(Ordering::Relaxed),
        }
    }
}

impl DlfmMetricsSnapshot {
    /// Component-wise difference (self - earlier), mirroring
    /// [`minidb::LockMetricsSnapshot::delta`]. Experiments snapshot before
    /// and after a phase and report only that phase's activity.
    pub fn delta(&self, earlier: &DlfmMetricsSnapshot) -> DlfmMetricsSnapshot {
        DlfmMetricsSnapshot {
            links: self.links - earlier.links,
            unlinks: self.unlinks - earlier.unlinks,
            prepares: self.prepares - earlier.prepares,
            batches: self.batches - earlier.batches,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
            phase2_retries: self.phase2_retries - earlier.phase2_retries,
            phase2_abandoned: self.phase2_abandoned - earlier.phase2_abandoned,
            phase2_abort_failures: self.phase2_abort_failures - earlier.phase2_abort_failures,
            groupd_notify_drops: self.groupd_notify_drops - earlier.groupd_notify_drops,
            chunk_commits: self.chunk_commits - earlier.chunk_commits,
            files_archived: self.files_archived - earlier.files_archived,
            files_retrieved: self.files_retrieved - earlier.files_retrieved,
            group_files_unlinked: self.group_files_unlinked - earlier.group_files_unlinked,
            gc_entries_removed: self.gc_entries_removed - earlier.gc_entries_removed,
            gc_archive_removed: self.gc_archive_removed - earlier.gc_archive_removed,
            upcalls: self.upcalls - earlier.upcalls,
            forced_rollbacks: self.forced_rollbacks - earlier.forced_rollbacks,
            stats_reapplied: self.stats_reapplied - earlier.stats_reapplied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DlfmMetrics::default();
        DlfmMetrics::bump(&m.links);
        DlfmMetrics::add(&m.links, 4);
        DlfmMetrics::bump(&m.commits);
        let s = m.snapshot();
        assert_eq!(s.links, 5);
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 0);
    }

    #[test]
    fn snapshot_delta_isolates_a_phase() {
        let m = DlfmMetrics::default();
        DlfmMetrics::add(&m.links, 10);
        DlfmMetrics::bump(&m.phase2_retries);
        let before = m.snapshot();
        DlfmMetrics::add(&m.links, 3);
        DlfmMetrics::add(&m.unlinks, 2);
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.links, 3);
        assert_eq!(d.unlinks, 2);
        assert_eq!(d.phase2_retries, 0);
        assert_eq!(after.delta(&after), DlfmMetricsSnapshot::default());
    }

    #[test]
    fn delta_covers_every_field() {
        // Give every counter a distinct prime increment, then check the
        // component-wise difference field by field. If a new counter is
        // added to the snapshot but forgotten in `delta`, the final
        // whole-struct equality here fails.
        let m = DlfmMetrics::default();
        let fields: &[(&AtomicU64, u64)] = &[
            (&m.links, 2),
            (&m.unlinks, 3),
            (&m.prepares, 5),
            (&m.commits, 7),
            (&m.aborts, 11),
            (&m.phase2_retries, 13),
            (&m.phase2_abandoned, 17),
            (&m.phase2_abort_failures, 19),
            (&m.groupd_notify_drops, 23),
            (&m.chunk_commits, 29),
            (&m.files_archived, 31),
            (&m.files_retrieved, 37),
            (&m.group_files_unlinked, 41),
            (&m.gc_entries_removed, 43),
            (&m.gc_archive_removed, 47),
            (&m.upcalls, 53),
            (&m.forced_rollbacks, 59),
            (&m.stats_reapplied, 61),
            (&m.batches, 67),
        ];
        // A non-zero floor so the subtraction is exercised on both sides.
        for (counter, _) in fields {
            DlfmMetrics::add(counter, 100);
        }
        let before = m.snapshot();
        for (counter, n) in fields {
            DlfmMetrics::add(counter, *n);
        }
        let d = m.snapshot().delta(&before);
        let expected = DlfmMetricsSnapshot {
            links: 2,
            unlinks: 3,
            prepares: 5,
            commits: 7,
            aborts: 11,
            phase2_retries: 13,
            phase2_abandoned: 17,
            phase2_abort_failures: 19,
            groupd_notify_drops: 23,
            chunk_commits: 29,
            files_archived: 31,
            files_retrieved: 37,
            group_files_unlinked: 41,
            gc_entries_removed: 43,
            gc_archive_removed: 47,
            upcalls: 53,
            forced_rollbacks: 59,
            stats_reapplied: 61,
            batches: 67,
        };
        assert_eq!(d, expected);
        // Deltas compose: (c - a) == (c - b) + (b - a).
        let b2 = m.snapshot();
        DlfmMetrics::add(&m.links, 9);
        let c = m.snapshot();
        assert_eq!(c.delta(&before).links, c.delta(&b2).links + b2.delta(&before).links);
    }

    #[test]
    fn op_hists_iter_names_every_histogram() {
        let m = DlfmMetrics::default();
        m.op_hists.link.record(5);
        let names: Vec<&str> = m.op_hists.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["link", "unlink", "prepare", "phase2_commit", "phase2_abort", "upcall"]);
        let total: u64 = m.op_hists.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(total, 1);
    }
}
