//! Host-side cache of DLFM-issued access tokens (paper Figure 3: the DLFM
//! decides who may read a linked file, it is not on the path of every read).
//!
//! **Who does what.** The DLFM is the only *issuer*: `IssueToken` checks that
//! the file is linked under full access control and hands out the link's
//! token. The file server's filter (`filesys::Dlff`) is the only *validator*:
//! a read of a DLFM-owned file passes only with a token registered for that
//! path, and the DLFM revokes the registration when an unlink commits. This
//! module only *remembers* answers: [`TokenCache`] maps a path (tagged with
//! the shard that answered) to the token the DLFM returned, so that
//! `HostSession::read_token` asks once per link instead of once per read. It
//! mints nothing, and nothing it returns is trusted by anyone — a wrong
//! answer is a refused read, never a granted one.
//!
//! **Invariant.** A cached token is only ever returned for the link it was
//! issued for: stale entries can exist only for paths this host does not
//! currently have linked, and every link request removes them.
//!
//! **Invalidation** uses only events the host already sees:
//!
//! 1. `HostSession::queue_op` drops the path's entry when a link or unlink
//!    is queued, before anything is sent; `flush` drops a linked path's
//!    entry again when its batch's reply is in, because
//!    the request can sit in a queue while another session's unlink of the
//!    same path commits and a reader caches the token that commit revokes.
//!    (Statement backout and transaction abort need nothing: they only
//!    restore a state whose entry was already dropped, and no token can be
//!    issued for a link that never commits — `IssueToken` waits on its row
//!    lock.)
//! 2. A miss remembers its slot's generation before the `IssueToken` call
//!    and [`TokenCache::insert`] re-checks it: every invalidation bumps the
//!    generation, so an answer that raced an unlink + relink of the same
//!    path is never cached.
//! 3. `migrate_prefix`, `set_shards`, `restore`, `reconcile`, attaching a
//!    DLFM and a host crash clear everything.
//! 4. An entry issued over a socket is valid only for that connection's
//!    incarnation (`Connector::epoch`): a restarted `dlfmd` has a new, empty
//!    `Dlff`. In-process shards need no such event — their `Dlff` belongs to
//!    the file server and outlives `DlfmServer::crash()`/`restart()`, and a
//!    replacement server arrives through `attach_dlfm` (rule 3).
//!
//! The gain exists only where a link is read more than once (a media
//! library); where every read follows a relink the cache is a bypass that
//! costs one map probe per read and two removals per link.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Independently locked parts of the cache.
const SLOTS: usize = 16;
/// Entries one slot holds before it is emptied (no LRU: a dropped entry
/// costs one `IssueToken`). 65 536 entries in all, a few MiB at most.
const SLOT_CAPACITY: usize = 4096;

/// Why entries left the cache (`cause` label of
/// `hostdb_token_cache_invalidations_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// The path was (re)linked by this host.
    Link,
    /// The path was unlinked by this host.
    Unlink,
    /// Everything was dropped (migration, restore, reconcile, attach, crash).
    Clear,
    /// The entry was issued over a connection that has since died.
    ConnEpoch,
    /// The entry's slot reached its capacity and was emptied.
    Overflow,
}

impl Invalidation {
    const ALL: [(Invalidation, &'static str); 5] = [
        (Invalidation::Link, "link"),
        (Invalidation::Unlink, "unlink"),
        (Invalidation::Clear, "clear"),
        (Invalidation::ConnEpoch, "conn_epoch"),
        (Invalidation::Overflow, "overflow"),
    ];
}

obs::counters! {
    /// Counters of the access-token cache (part of [`crate::HostMetrics`]).
    pub struct TokenCacheMetrics {
        /// `read_token` calls answered from the cache (no RPC).
        hits: counter "hostdb_token_cache_hits_total"
            "read_token calls answered from the host's access-token cache (no RPC).",
        /// `read_token` calls that went to the DLFM.
        misses: counter "hostdb_token_cache_misses_total"
            "read_token calls that asked the DLFM (IssueToken).",
    } beside {
        dropped: [AtomicU64; Invalidation::ALL.len()],
    }
}

impl TokenCacheMetrics {
    /// Entries dropped for `cause` so far.
    pub fn invalidations(&self, cause: Invalidation) -> u64 {
        self.dropped[cause as usize].load(Ordering::Relaxed)
    }

    /// Entries dropped so far, whatever the cause.
    pub fn invalidations_total(&self) -> u64 {
        self.dropped.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn note_dropped(&self, cause: Invalidation, entries: usize) {
        self.dropped[cause as usize].fetch_add(entries as u64, Ordering::Relaxed);
    }
}

struct Entry {
    shard: String,
    token: String,
    /// [`dlrpc::Connector::epoch`] of the shard's connector at issue time.
    epoch: u64,
}

#[derive(Default)]
struct Slot {
    /// Bumped by every invalidation of this slot (rule 2).
    generation: u64,
    entries: HashMap<String, Entry>,
}

/// Outcome of [`TokenCache::lookup`].
pub(crate) enum Lookup {
    /// The cached token of this link.
    Hit(String),
    /// Nothing usable; hand `generation` to [`TokenCache::insert`] with the
    /// DLFM's answer.
    Miss { generation: u64 },
}

/// The cache: one entry per path, tagged with the shard that issued it.
pub(crate) struct TokenCache {
    slots: [Mutex<Slot>; SLOTS],
    hasher: RandomState,
    metrics: Arc<TokenCacheMetrics>,
}

impl TokenCache {
    pub(crate) fn new(metrics: Arc<TokenCacheMetrics>) -> TokenCache {
        TokenCache { slots: Default::default(), hasher: RandomState::new(), metrics }
    }

    fn slot(&self, path: &str) -> &Mutex<Slot> {
        &self.slots[self.hasher.hash_one(path) as usize % SLOTS]
    }

    /// The token cached for `path` on `shard`, if it was issued under the
    /// connector's current `epoch`.
    pub(crate) fn lookup(&self, shard: &str, path: &str, epoch: u64) -> Lookup {
        let mut slot = self.slot(path).lock();
        match slot.entries.get(path) {
            Some(e) if e.shard == shard && e.epoch == epoch => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(e.token.clone());
            }
            Some(e) if e.shard == shard => {
                slot.entries.remove(path);
                self.metrics.note_dropped(Invalidation::ConnEpoch, 1);
            }
            _ => {}
        }
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss { generation: slot.generation }
    }

    /// Remember the DLFM's answer to a miss — unless the slot was
    /// invalidated since the miss read `generation`.
    pub(crate) fn insert(&self, shard: &str, path: &str, token: &str, epoch: u64, generation: u64) {
        let mut slot = self.slot(path).lock();
        if slot.generation != generation {
            return;
        }
        if slot.entries.len() >= SLOT_CAPACITY {
            self.metrics.note_dropped(Invalidation::Overflow, slot.entries.len());
            slot.entries.clear();
        }
        let entry = Entry { shard: shard.to_string(), token: token.to_string(), epoch };
        slot.entries.insert(path.to_string(), entry);
    }

    /// Drop `path`'s entry (whatever shard it names) and turn away answers
    /// still in flight for its slot.
    pub(crate) fn invalidate(&self, path: &str, cause: Invalidation) {
        let mut slot = self.slot(path).lock();
        slot.generation += 1;
        if slot.entries.remove(path).is_some() {
            self.metrics.note_dropped(cause, 1);
        }
    }

    /// Drop everything and turn away every answer still in flight.
    pub(crate) fn clear(&self) {
        for slot in &self.slots {
            let mut slot = slot.lock();
            slot.generation += 1;
            self.metrics.note_dropped(Invalidation::Clear, slot.entries.len());
            slot.entries.clear();
        }
    }

    /// Entries held right now.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// The `hostdb_token_cache_*` family.
    pub(crate) fn render_metrics(&self, r: &mut obs::Registry) {
        let m = &self.metrics;
        m.render(r);
        for (cause, label) in Invalidation::ALL {
            r.counter(
                "hostdb_token_cache_invalidations_total",
                "Access-token cache entries dropped, by cause.",
                &[("cause", label)],
                m.invalidations(cause),
            );
        }
        r.gauge(
            "hostdb_token_cache_entries",
            "Access tokens currently cached.",
            &[],
            self.len() as i64,
        );
    }

    /// One line for `HostDb::status_text`.
    pub(crate) fn status_line(&self) -> String {
        let m = &self.metrics;
        let (hits, misses) = (m.hits(), m.misses());
        let by_cause: Vec<String> = Invalidation::ALL
            .iter()
            .map(|(cause, label)| format!("{label} {}", m.invalidations(*cause)))
            .collect();
        format!(
            "token cache: {} entries, {hits} hits / {misses} misses ({:.1}% hit), dropped: {}\n",
            self.len(),
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
            by_cause.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (TokenCache, Arc<TokenCacheMetrics>) {
        let metrics = Arc::new(TokenCacheMetrics::default());
        (TokenCache::new(metrics.clone()), metrics)
    }

    fn miss(c: &TokenCache, shard: &str, path: &str, epoch: u64) -> u64 {
        match c.lookup(shard, path, epoch) {
            Lookup::Miss { generation } => generation,
            Lookup::Hit(t) => panic!("expected a miss for {path}, got {t}"),
        }
    }

    fn hit(c: &TokenCache, shard: &str, path: &str, epoch: u64) -> String {
        match c.lookup(shard, path, epoch) {
            Lookup::Hit(t) => t,
            Lookup::Miss { .. } => panic!("expected a hit for {path}"),
        }
    }

    #[test]
    fn a_miss_then_insert_hits_only_for_that_shard_path_and_epoch() {
        let (c, m) = cache();
        let g = miss(&c, "s1", "/a", 0);
        c.insert("s1", "/a", "t1", 0, g);
        assert_eq!(hit(&c, "s1", "/a", 0), "t1");
        miss(&c, "s1", "/b", 0);
        // Another shard's answer for the same path is not this shard's.
        miss(&c, "s2", "/a", 0);
        assert_eq!(hit(&c, "s1", "/a", 0), "t1", "a foreign miss leaves the entry alone");
        // The connection the token came over died: the entry goes.
        miss(&c, "s1", "/a", 1);
        assert_eq!(m.invalidations(Invalidation::ConnEpoch), 1);
        assert_eq!(c.len(), 0);
        assert_eq!((m.hits.load(Ordering::Relaxed), m.misses.load(Ordering::Relaxed)), (2, 4));
    }

    #[test]
    fn an_answer_that_raced_an_invalidation_is_not_cached() {
        let (c, m) = cache();
        // Reader misses, then the path is unlinked and relinked before the
        // reader's IssueToken answer arrives.
        let g = miss(&c, "s1", "/a", 0);
        c.invalidate("/a", Invalidation::Unlink);
        c.invalidate("/a", Invalidation::Link);
        c.insert("s1", "/a", "stale", 0, g);
        let g = miss(&c, "s1", "/a", 0);
        assert_eq!(m.invalidations_total(), 0, "nothing was cached, nothing was dropped");
        // The same holds across a clear.
        c.clear();
        c.insert("s1", "/a", "stale", 0, g);
        let g = miss(&c, "s1", "/a", 0);
        c.insert("s1", "/a", "fresh", 0, g);
        assert_eq!(hit(&c, "s1", "/a", 0), "fresh");
        c.invalidate("/a", Invalidation::Unlink);
        miss(&c, "s1", "/a", 0);
        assert_eq!(m.invalidations(Invalidation::Unlink), 1);
    }

    #[test]
    fn overflow_empties_a_slot_and_answers_stay_correct() {
        let (c, m) = cache();
        let paths: Vec<String> =
            (0..SLOTS * SLOT_CAPACITY + 5_000).map(|i| format!("/d/f{i}")).collect();
        for p in &paths {
            let g = miss(&c, "s1", p, 0);
            c.insert("s1", p, &format!("tok{p}"), 0, g);
            assert!(c.len() <= SLOTS * SLOT_CAPACITY);
        }
        assert!(m.invalidations(Invalidation::Overflow) >= SLOT_CAPACITY as u64);
        assert_eq!(m.invalidations_total(), m.invalidations(Invalidation::Overflow));
        // Whatever survived is still the right token for its path.
        let mut hits = 0;
        for p in &paths {
            if let Lookup::Hit(t) = c.lookup("s1", p, 0) {
                assert_eq!(t, format!("tok{p}"));
                hits += 1;
            }
        }
        assert_eq!(hits, c.len());
        assert!(hits > 0);
    }

    #[test]
    fn clear_counts_what_it_drops() {
        let (c, m) = cache();
        for p in ["/a", "/b", "/c"] {
            let g = miss(&c, "s1", p, 0);
            c.insert("s1", p, "t", 0, g);
        }
        c.clear();
        assert_eq!((c.len(), m.invalidations(Invalidation::Clear)), (0, 3));
        assert!(c.status_line().contains("0 entries, 0 hits / 3 misses"));
    }
}
