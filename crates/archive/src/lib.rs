//! # archive — an ADSM-like archive server
//!
//! The paper's DLFM archives linked files to IBM's ADSTAR Distributed
//! Storage Manager (ADSM) or to disk for coordinated backup and restore
//! (paper §3.4). This substrate models exactly what DLFM needs from it:
//!
//! * versioned objects keyed by **(file name, recovery id)** — the same
//!   file name may be archived many times across link/unlink cycles, and
//!   the recovery id picks the version matching a database state;
//! * asynchronous store with a **priority lane** (the host Backup utility
//!   escalates pending copies so a backup can complete);
//! * deletes for garbage collection of expired versions;
//! * optional injected latency so benchmarks model ~1999 archive hardware.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

/// Identifies one archived version: the file name plus the recovery id the
/// host database generated for the link operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionKey {
    /// Absolute file path on the file server.
    pub filename: String,
    /// Host-generated recovery id (globally unique, monotonically
    /// increasing — paper §3).
    pub recovery_id: i64,
}

/// One archived object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedObject {
    /// Version key.
    pub key: VersionKey,
    /// File content at archive time.
    pub content: Vec<u8>,
    /// Whether this copy was made on the priority lane.
    pub high_priority: bool,
}

obs::counters! {
    /// Counters for the benchmark harness.
    pub struct ArchiveMetrics => ArchiveMetricsSnapshot {
        /// Objects stored.
        stores: counter "archive_stores_total" "Objects stored in the archive.",
        /// Objects stored via the priority lane.
        priority_stores: counter "archive_priority_stores_total"
            "Objects stored via the archive's priority lane.",
        /// Objects retrieved.
        retrieves: counter "archive_retrieves_total" "Objects retrieved from the archive.",
        /// Objects deleted (GC).
        deletes: counter "archive_deletes_total" "Archived objects deleted by GC.",
    }
}

/// The archive server.
pub struct ArchiveServer {
    objects: RwLock<HashMap<VersionKey, ArchivedObject>>,
    latency: Mutex<Duration>,
    metrics: ArchiveMetrics,
}

impl Default for ArchiveServer {
    fn default() -> Self {
        ArchiveServer::new()
    }
}

impl ArchiveServer {
    /// New empty archive with zero latency.
    pub fn new() -> ArchiveServer {
        ArchiveServer {
            objects: RwLock::new(HashMap::new()),
            latency: Mutex::new(Duration::ZERO),
            metrics: ArchiveMetrics::default(),
        }
    }

    /// Inject per-operation latency (store/retrieve).
    pub fn set_latency(&self, d: Duration) {
        *self.latency.lock() = d;
    }

    fn pay_latency(&self) {
        let d = *self.latency.lock();
        if d > Duration::ZERO {
            thread::sleep(d);
        }
    }

    /// Exported counters.
    pub fn metrics(&self) -> &ArchiveMetrics {
        &self.metrics
    }

    /// Store a version. Idempotent per key (re-store overwrites). Returns
    /// `false` when the archive rejected the copy (injected I/O fault) —
    /// callers must keep the source queued and retry later.
    #[must_use = "a false return means the copy was NOT archived"]
    pub fn store(
        &self,
        filename: &str,
        recovery_id: i64,
        content: &[u8],
        high_priority: bool,
    ) -> bool {
        self.pay_latency();
        if obs::fault::fire("archive.store") {
            return false;
        }
        let key = VersionKey { filename: filename.to_string(), recovery_id };
        self.metrics.stores.fetch_add(1, Ordering::Relaxed);
        if high_priority {
            self.metrics.priority_stores.fetch_add(1, Ordering::Relaxed);
        }
        self.objects
            .write()
            .insert(key.clone(), ArchivedObject { key, content: content.to_vec(), high_priority });
        true
    }

    /// Is a version present?
    pub fn contains(&self, filename: &str, recovery_id: i64) -> bool {
        let key = VersionKey { filename: filename.to_string(), recovery_id };
        self.objects.read().contains_key(&key)
    }

    /// Retrieve an exact version.
    pub fn retrieve(&self, filename: &str, recovery_id: i64) -> Option<Vec<u8>> {
        self.pay_latency();
        let key = VersionKey { filename: filename.to_string(), recovery_id };
        let got = self.objects.read().get(&key).map(|o| o.content.clone());
        if got.is_some() {
            self.metrics.retrieves.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Retrieve the latest version at or before `recovery_id` — what the
    /// Retrieve daemon needs for point-in-time restore: "the version of the
    /// file as of this database state".
    pub fn retrieve_as_of(&self, filename: &str, recovery_id: i64) -> Option<(i64, Vec<u8>)> {
        self.pay_latency();
        let objects = self.objects.read();
        let best = objects
            .values()
            .filter(|o| o.key.filename == filename && o.key.recovery_id <= recovery_id)
            .max_by_key(|o| o.key.recovery_id)?;
        self.metrics.retrieves.fetch_add(1, Ordering::Relaxed);
        Some((best.key.recovery_id, best.content.clone()))
    }

    /// Delete one version (garbage collection).
    pub fn delete(&self, filename: &str, recovery_id: i64) -> bool {
        let key = VersionKey { filename: filename.to_string(), recovery_id };
        let removed = self.objects.write().remove(&key).is_some();
        if removed {
            self.metrics.deletes.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// All versions of a file, oldest first.
    pub fn versions(&self, filename: &str) -> Vec<i64> {
        let mut v: Vec<i64> = self
            .objects
            .read()
            .keys()
            .filter(|k| k.filename == filename)
            .map(|k| k.recovery_id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Total objects held.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True when the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_retrieve_exact_version() {
        let a = ArchiveServer::new();
        assert!(a.store("/f", 10, b"v1", false));
        assert!(a.store("/f", 20, b"v2", false));
        assert_eq!(a.retrieve("/f", 10).unwrap(), b"v1");
        assert_eq!(a.retrieve("/f", 20).unwrap(), b"v2");
        assert!(a.retrieve("/f", 15).is_none());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn retrieve_as_of_picks_latest_not_after() {
        let a = ArchiveServer::new();
        assert!(a.store("/f", 10, b"v1", false));
        assert!(a.store("/f", 20, b"v2", false));
        assert!(a.store("/f", 30, b"v3", false));
        let (rid, content) = a.retrieve_as_of("/f", 25).unwrap();
        assert_eq!(rid, 20);
        assert_eq!(content, b"v2");
        assert!(a.retrieve_as_of("/f", 5).is_none());
        let (rid, _) = a.retrieve_as_of("/f", 100).unwrap();
        assert_eq!(rid, 30);
    }

    #[test]
    fn delete_for_gc() {
        let a = ArchiveServer::new();
        assert!(a.store("/f", 10, b"v1", false));
        assert!(a.delete("/f", 10));
        assert!(!a.delete("/f", 10));
        assert!(a.retrieve("/f", 10).is_none());
        assert_eq!(a.metrics().deletes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn versions_listing_sorted() {
        let a = ArchiveServer::new();
        assert!(a.store("/f", 30, b"", false));
        assert!(a.store("/f", 10, b"", false));
        assert!(a.store("/g", 20, b"", false));
        assert_eq!(a.versions("/f"), vec![10, 30]);
        assert_eq!(a.versions("/g"), vec![20]);
        assert!(a.versions("/h").is_empty());
    }

    #[test]
    fn priority_lane_counted() {
        let a = ArchiveServer::new();
        assert!(a.store("/f", 1, b"", true));
        assert!(a.store("/g", 2, b"", false));
        assert_eq!(a.metrics().stores.load(Ordering::Relaxed), 2);
        assert_eq!(a.metrics().priority_stores.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn same_name_many_link_cycles() {
        // The same file name linked and unlinked repeatedly: one archived
        // version per recovery id (paper §3: "a file with same name but
        // different content may be linked and unlinked several times").
        let a = ArchiveServer::new();
        for (rid, content) in [(1, "a"), (5, "b"), (9, "c")] {
            assert!(a.store("/report.doc", rid, content.as_bytes(), false));
        }
        assert_eq!(a.versions("/report.doc").len(), 3);
        assert_eq!(a.retrieve_as_of("/report.doc", 6).unwrap().1, b"b");
    }
}
