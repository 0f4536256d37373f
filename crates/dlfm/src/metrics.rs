//! Operation counters and per-operation latency histograms exported for
//! the experiment harness and [`crate::server::DlfmServer::metrics_text`].

use std::sync::atomic::{AtomicU64, Ordering};

obs::counters! {
    /// Per-operation latency histograms (microseconds), recorded at the
    /// agent dispatch boundary and in phase-2 processing.
    pub struct DlfmOpHists {
        /// LinkFile forward processing.
        link: histogram "dlfm_op_latency_micros" {op = "link"}
            "DLFM per-operation latency in microseconds.",
        /// UnlinkFile forward processing.
        unlink: histogram "dlfm_op_latency_micros" {op = "unlink"}
            "DLFM per-operation latency in microseconds.",
        /// Prepare (including the hardening local commit).
        prepare: histogram "dlfm_op_latency_micros" {op = "prepare"}
            "DLFM per-operation latency in microseconds.",
        /// Phase-2 commit, including all retries.
        phase2_commit: histogram "dlfm_op_latency_micros" {op = "phase2_commit"}
            "DLFM per-operation latency in microseconds.",
        /// Phase-2 abort, including all retries.
        phase2_abort: histogram "dlfm_op_latency_micros" {op = "phase2_abort"}
            "DLFM per-operation latency in microseconds.",
        /// Upcall link-state queries.
        upcall: histogram "dlfm_op_latency_micros" {op = "upcall"}
            "DLFM per-operation latency in microseconds.",
    }
}

obs::counters! {
    /// Monotonic DLFM counters. All relaxed; read via
    /// [`DlfmMetrics::snapshot`].
    pub struct DlfmMetrics => DlfmMetricsSnapshot {
        /// Successful LinkFile operations.
        links: counter "dlfm_ops_total" {op = "link"} "Completed DLFM operations by kind.",
        /// Successful UnlinkFile operations.
        unlinks: counter "dlfm_ops_total" {op = "unlink"} "Completed DLFM operations by kind.",
        /// Prepare votes returned.
        prepares: counter "dlfm_ops_total" {op = "prepare"} "Completed DLFM operations by kind.",
        /// Batch requests unpacked (their members count in the per-operation
        /// counters as if sent alone).
        batches: counter "dlfm_batches_total"
            "Batch requests unpacked (members count in dlfm_ops_total as if sent alone).",
        /// Phase-2 commits completed.
        commits: counter "dlfm_ops_total" {op = "phase2_commit"}
            "Completed DLFM operations by kind.",
        /// Phase-2 aborts completed.
        aborts: counter "dlfm_ops_total" {op = "phase2_abort"} "Completed DLFM operations by kind.",
        /// Phase-2 attempts that hit a retryable local-database error and were
        /// retried (Figure 4's "retry until it succeeds").
        phase2_retries: counter "dlfm_phase2_retries_total"
            "Phase-2 attempts retried after a retryable local-database error (Figure 4).",
        /// Phase-2 operations abandoned at the retry-limit safety valve,
        /// leaving the sub-transaction prepared for the resolver to re-drive.
        phase2_abandoned: counter "dlfm_phase2_abandoned_total"
            "Phase-2 operations abandoned at the retry limit, left prepared for the resolver.",
        /// Phase-2 abort failures swallowed during session retirement/restart;
        /// the sub-transaction stays in-doubt for the resolver.
        phase2_abort_failures: counter "dlfm_phase2_abort_failures_total"
            "Phase-2 abort failures during session retirement/restart, left in-doubt.",
        /// Committed group-deletion notifications that could not be handed to
        /// the Delete-Group daemon (daemon gone or injected drop); the work
        /// stays in `dfm_xact` until a rescan picks it up.
        groupd_notify_drops: counter "dlfm_groupd_notify_drops_total"
            "Delete-group notifications dropped and deferred to the daemon rescan.",
        /// Chunked local commits issued inside long-running transactions
        /// (lazy: the transaction's Prepare is what forces them).
        chunk_commits: counter "dlfm_chunk_commits_total"
            "Chunked local commits inside long-running transactions (paper section 4).",
        /// Files archived by the Copy daemon.
        files_archived: counter "dlfm_files_archived_total" "Files copied to the archive server.",
        /// Files restored by the Retrieve daemon.
        files_retrieved: counter "dlfm_files_retrieved_total" "Files restored from the archive.",
        /// Files unlinked by the Delete-Group daemon.
        group_files_unlinked: counter "dlfm_group_files_unlinked_total"
            "Files unlinked by the Delete-Group daemon.",
        /// Metadata entries removed by the Garbage Collector.
        gc_entries_removed: counter "dlfm_gc_entries_removed_total"
            "Metadata entries removed by GC.",
        /// Archive copies removed by the Garbage Collector.
        gc_archive_removed: counter "dlfm_gc_archive_removed_total" "Archive copies removed by GC.",
        /// Upcall queries served.
        upcalls: counter "dlfm_ops_total" {op = "upcall"} "Completed DLFM operations by kind.",
        /// Forward-processing operations that failed with a retryable database
        /// error and forced a host-side rollback.
        forced_rollbacks: counter "dlfm_forced_rollbacks_total"
            "Forward-processing failures that forced a host-side rollback.",
        /// Times the statistics guard re-applied hand-crafted statistics after
        /// a RUNSTATS overwrote them.
        stats_reapplied: counter "dlfm_stats_reapplied_total"
            "Times the statistics guard re-applied hand-crafted statistics.",
    } beside {
        /// Per-operation latency histograms.
        pub op_hists: DlfmOpHists,
    }
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
        let mut r = obs::Registry::new();
        m.op_hists.render(&mut r);
        let text = r.render();
        let counts: Vec<(String, f64)> = obs::registry::parse_samples(&text)
            .into_iter()
            .filter(|s| s.name == "dlfm_op_latency_micros_count")
            .map(|s| (s.labels, s.value))
            .collect();
        let names: Vec<&str> = counts.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            names,
            ["link", "unlink", "prepare", "phase2_commit", "phase2_abort", "upcall"]
                .map(|op| format!("{{op=\"{op}\"}}"))
        );
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<f64>(), 1.0);
    }
}
