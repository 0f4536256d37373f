//! Shard map: hash-partitioned placement of link metadata across DLFMs.
//!
//! ROADMAP item 2: instead of the static one-server-per-URL binding, the
//! host can route every link/unlink/probe through a [`ShardMap`] — a hash
//! of the file path's *directory* over a fixed ring of DLFM shards, plus a
//! list of explicit prefix overrides that make placement reconfigurable
//! online (H2O's "placement is metadata" applied to DLFM).
//!
//! ## Routing
//!
//! The routing key of `/video/ads/q3.mpg` is its dirname `/video/ads`:
//! files in one directory always land on one shard, so a directory-local
//! workload (the e1 mix) touches one shard per statement while distinct
//! directories spread across the ring. The hash is a hand-rolled FNV-1a —
//! `std`'s hasher is randomized per process, and two processes (host and
//! a future standby coordinator) must agree on placement.
//!
//! The ring is *fixed* once [`ShardMap::set_shards`] is called: adding a
//! shard to the ring would silently rehash every existing placement.
//! Growing the deployment instead goes through prefix migration: attach
//! the new DLFM, then move chosen prefixes onto it with
//! `HostDb::migrate_prefix` — each migrated prefix becomes an override
//! entry that wins over the ring.
//!
//! ## Epochs and migration
//!
//! Every change to the map bumps a monotonically increasing **epoch**.
//! Transactions pin the epoch current at `begin`; a migration flips the
//! prefix to *migrating* (bumping the epoch), waits until every
//! transaction pinned below the new epoch has finished (they may still be
//! writing through old placements), copies the rows, then marks the
//! prefix owned by the target. While a prefix is migrating, transactions
//! pinned **before** the flip keep routing as if the override did not
//! exist, and transactions pinned **after** it block (bounded) until the
//! copy finishes — so no transaction ever sees half-moved placement.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::fault::fnv1a;
use parking_lot::{Condvar, Mutex};

/// How long a datalink operation blocks on an in-progress migration of its
/// prefix, and how long a migration waits for the transactions pinned
/// before its flip, before either gives up.
pub(crate) const MIGRATION_WAIT: Duration = Duration::from_secs(30);

/// Routing key of a path: its dirname (files of one directory co-locate).
pub fn route_key(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// One prefix override: placement decided by migration, not the ring.
#[derive(Debug, Clone)]
struct Override {
    /// Path prefix (no trailing slash); covers the whole subtree.
    prefix: String,
    /// Owning shard once settled.
    owner: String,
    /// While migrating: the epoch of the flip. Transactions pinned below
    /// it keep the pre-flip placement; transactions pinned at/above it
    /// wait for the copy to settle.
    migrating_since: Option<u64>,
    /// Pre-flip owner when this migration replaces an earlier override
    /// (`None` when the pre-flip placement was the ring).
    prev_owner: Option<String>,
}

impl Override {
    fn covers(&self, path: &str) -> bool {
        path == self.prefix
            || (path.starts_with(&self.prefix)
                && path.as_bytes().get(self.prefix.len()) == Some(&b'/'))
    }
}

#[derive(Debug, Default)]
struct MapState {
    /// The fixed hash ring. Empty ⇒ sharding disabled (URL server names
    /// route directly, the pre-shard behaviour).
    ring: Vec<String>,
    /// Prefix overrides, longest prefix wins.
    overrides: Vec<Override>,
    /// Monotonically increasing map version; bumped on every change.
    epoch: u64,
    /// In-flight transactions per pinned epoch.
    inflight: BTreeMap<u64, usize>,
}

/// Errors from shard-map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A route blocked on an in-progress migration past the timeout.
    RouteTimeout {
        /// The path that could not be routed.
        path: String,
    },
    /// Draining pre-migration transactions timed out.
    DrainTimeout {
        /// Transactions still pinned below the migration epoch.
        still_inflight: usize,
    },
    /// The prefix is already being migrated.
    MigrationInProgress {
        /// The contested prefix.
        prefix: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::RouteTimeout { path } => {
                write!(f, "routing {path} blocked on a shard migration past the timeout")
            }
            ShardError::DrainTimeout { still_inflight } => write!(
                f,
                "shard migration drain timed out with {still_inflight} transaction(s) \
                 still pinned to the old epoch"
            ),
            ShardError::MigrationInProgress { prefix } => {
                write!(f, "prefix {prefix} is already being migrated")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A successful route, noting whether it had to wait for a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routed {
    /// The shard (attached DLFM name) owning the path.
    pub shard: String,
    /// True when the route blocked on an in-progress migration first.
    pub waited: bool,
}

/// Versioned placement map of link metadata over DLFM shards.
///
/// Owned by `HostDb`; see the module docs for the protocol.
#[derive(Default)]
pub struct ShardMap {
    state: Mutex<MapState>,
    /// Woken on every map or inflight change: routers waiting out a
    /// migration and migrations draining old transactions both park here.
    changed: Condvar,
}

impl ShardMap {
    /// A disabled map (no ring, no overrides).
    pub fn new() -> ShardMap {
        ShardMap::default()
    }

    /// Is hash routing active?
    pub fn enabled(&self) -> bool {
        !self.state.lock().ring.is_empty()
    }

    /// Current map epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Install the hash ring. The ring is fixed from here on — topology
    /// changes go through prefix migration — so this is meant to be called
    /// once at deployment time, before data is loaded.
    pub fn set_shards(&self, shards: &[String]) {
        let mut st = self.state.lock();
        st.ring = shards.to_vec();
        st.epoch += 1;
        self.changed.notify_all();
    }

    /// The ring (for status pages).
    pub fn shards(&self) -> Vec<String> {
        self.state.lock().ring.clone()
    }

    /// Snapshot of overrides as `(prefix, owner, migrating)` for status.
    pub fn overrides(&self) -> Vec<(String, String, bool)> {
        self.state
            .lock()
            .overrides
            .iter()
            .map(|o| (o.prefix.clone(), o.owner.clone(), o.migrating_since.is_some()))
            .collect()
    }

    /// Register a transaction begin; returns the epoch it pins.
    pub fn begin_txn(&self) -> u64 {
        let mut st = self.state.lock();
        let epoch = st.epoch;
        *st.inflight.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Unregister a finished (committed or rolled-back) transaction.
    pub fn end_txn(&self, epoch: u64) {
        let mut st = self.state.lock();
        if let Some(n) = st.inflight.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                st.inflight.remove(&epoch);
            }
        }
        self.changed.notify_all();
    }

    /// In-flight transactions per pinned epoch (for status).
    pub fn inflight(&self) -> Vec<(u64, usize)> {
        self.state.lock().inflight.iter().map(|(e, n)| (*e, *n)).collect()
    }

    /// Route a path for a transaction pinned at `pinned_epoch`. Returns the
    /// owning shard, or blocks (up to `timeout`) while the longest matching
    /// prefix override is mid-migration and the pin postdates the flip.
    /// With an empty ring and no matching override the map is not in
    /// charge: returns `None` and the caller uses the URL's server name.
    pub fn route(
        &self,
        path: &str,
        pinned_epoch: u64,
        timeout: Duration,
    ) -> Result<Option<Routed>, ShardError> {
        let key = route_key(path);
        let deadline = Instant::now() + timeout;
        let mut waited = false;
        let mut st = self.state.lock();
        loop {
            // Longest matching override visible to this transaction wins.
            // A migrating override is invisible to pre-flip transactions
            // unless it replaced an earlier override (then they keep the
            // previous owner).
            let best = st
                .overrides
                .iter()
                .filter(|o| o.covers(key))
                .filter(|o| match o.migrating_since {
                    None => true,
                    Some(flip) => pinned_epoch >= flip || o.prev_owner.is_some(),
                })
                .max_by_key(|o| o.prefix.len());
            match best {
                Some(o) => match o.migrating_since {
                    Some(flip) if pinned_epoch < flip => {
                        let prev =
                            o.prev_owner.clone().expect("filter keeps pre-flip only with prev");
                        return Ok(Some(Routed { shard: prev, waited }));
                    }
                    Some(_) => {
                        // Post-flip transaction: wait out the copy.
                        waited = true;
                        if self.changed.wait_until(&mut st, deadline).timed_out() {
                            return Err(ShardError::RouteTimeout { path: path.to_string() });
                        }
                    }
                    None => return Ok(Some(Routed { shard: o.owner.clone(), waited })),
                },
                None => {
                    if st.ring.is_empty() {
                        return Ok(None);
                    }
                    let idx = (fnv1a(key) % st.ring.len() as u64) as usize;
                    return Ok(Some(Routed { shard: st.ring[idx].clone(), waited }));
                }
            }
        }
    }

    /// Flip `prefix` into the migrating state owned by `to`. Returns the
    /// epoch of the flip: transactions pinned below it must drain before
    /// rows move. Fails if the prefix is already migrating.
    pub fn begin_migration(&self, prefix: &str, to: &str) -> Result<u64, ShardError> {
        let mut st = self.state.lock();
        if st.overrides.iter().any(|o| o.prefix == prefix && o.migrating_since.is_some()) {
            return Err(ShardError::MigrationInProgress { prefix: prefix.to_string() });
        }
        st.epoch += 1;
        let flip = st.epoch;
        let prev_owner = st.overrides.iter().find(|o| o.prefix == prefix).map(|o| o.owner.clone());
        st.overrides.retain(|o| o.prefix != prefix);
        st.overrides.push(Override {
            prefix: prefix.to_string(),
            owner: to.to_string(),
            migrating_since: Some(flip),
            prev_owner,
        });
        self.changed.notify_all();
        Ok(flip)
    }

    /// Wait until every transaction pinned below `epoch` has finished.
    pub fn drain_below(&self, epoch: u64, timeout: Duration) -> Result<(), ShardError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            let still: usize = st.inflight.range(..epoch).map(|(_, n)| *n).sum();
            if still == 0 {
                return Ok(());
            }
            if self.changed.wait_until(&mut st, deadline).timed_out() {
                return Err(ShardError::DrainTimeout { still_inflight: still });
            }
        }
    }

    /// Settle a migration: the prefix is now plainly owned by its target
    /// (set at [`ShardMap::begin_migration`]); blocked routers wake.
    pub fn finish_migration(&self, prefix: &str) {
        let mut st = self.state.lock();
        st.epoch += 1;
        for o in &mut st.overrides {
            if o.prefix == prefix {
                o.migrating_since = None;
            }
        }
        self.changed.notify_all();
    }

    /// Abort a migration: restore the pre-flip placement (the earlier
    /// override's owner, or the ring); blocked routers wake and re-route.
    pub fn abort_migration(&self, prefix: &str) {
        let mut st = self.state.lock();
        st.epoch += 1;
        let prev =
            st.overrides.iter().find(|o| o.prefix == prefix).and_then(|o| o.prev_owner.clone());
        st.overrides.retain(|o| o.prefix != prefix);
        if let Some(owner) = prev {
            st.overrides.push(Override {
                prefix: prefix.to_string(),
                owner,
                migrating_since: None,
                prev_owner: None,
            });
        }
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(names: &[&str]) -> ShardMap {
        let m = ShardMap::new();
        m.set_shards(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        m
    }

    #[test]
    fn route_key_is_dirname() {
        assert_eq!(route_key("/a/b/c.mpg"), "/a/b");
        assert_eq!(route_key("/top.mpg"), "/");
        assert_eq!(route_key("nope"), "/");
    }

    #[test]
    fn disabled_map_routes_nothing() {
        let m = ShardMap::new();
        assert!(!m.enabled());
        let r = m.route("/a/b", m.epoch(), Duration::from_secs(1)).unwrap();
        assert_eq!(r, None);
    }

    #[test]
    fn ring_routing_is_deterministic_and_directory_local() {
        let m = ring(&["s0", "s1", "s2"]);
        let e = m.epoch();
        let a = m.route("/dir/one", e, Duration::from_secs(1)).unwrap().unwrap();
        let b = m.route("/dir/two", e, Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(a.shard, b.shard, "same directory must co-locate");
        // Distinct directories spread: at least two shards used over many.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            let r = m.route(&format!("/d{i}/f"), e, Duration::from_secs(1)).unwrap().unwrap();
            seen.insert(r.shard);
        }
        assert!(seen.len() >= 2, "64 directories landed on one shard: {seen:?}");
    }

    #[test]
    fn override_wins_and_longest_prefix_applies() {
        let m = ring(&["s0", "s1"]);
        m.begin_migration("/hot", "s9").unwrap();
        m.finish_migration("/hot");
        m.begin_migration("/hot/inner", "s8").unwrap();
        m.finish_migration("/hot/inner");
        let e = m.epoch();
        let t = Duration::from_secs(1);
        assert_eq!(m.route("/hot/f", e, t).unwrap().unwrap().shard, "s9");
        assert_eq!(m.route("/hot/inner/f", e, t).unwrap().unwrap().shard, "s8");
        // "/hotel" must NOT match the "/hot" override (component boundary).
        assert_ne!(m.route("/hotel/f", e, t).unwrap().unwrap().shard, "s9");
    }

    #[test]
    fn migration_blocks_new_epochs_and_passes_old_ones() {
        let m = std::sync::Arc::new(ring(&["s0", "s1"]));
        let before = m.begin_txn();
        let flip = m.begin_migration("/mig", "s1").unwrap();
        assert!(before < flip);
        // Pre-flip transaction routes through the ring, no blocking.
        let r = m.route("/mig/f", before, Duration::from_secs(1)).unwrap().unwrap();
        assert!(!r.waited);
        // Post-flip transaction blocks until the migration settles.
        let after = m.begin_txn();
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || {
            m2.route("/mig/f", after, Duration::from_secs(10)).unwrap().unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "post-flip route should still be parked");
        m.finish_migration("/mig");
        let routed = waiter.join().unwrap();
        assert_eq!(routed.shard, "s1");
        assert!(routed.waited);
    }

    #[test]
    fn drain_waits_for_old_transactions_only() {
        let m = std::sync::Arc::new(ring(&["s0"]));
        let old = m.begin_txn();
        let flip = m.begin_migration("/p", "s0").unwrap();
        let _newer = m.begin_txn(); // pinned at flip epoch; must not block drain
        assert!(matches!(
            m.drain_below(flip, Duration::from_millis(30)),
            Err(ShardError::DrainTimeout { still_inflight: 1 })
        ));
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.drain_below(flip, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        m.end_txn(old);
        h.join().unwrap().unwrap();
        m.abort_migration("/p");
    }

    #[test]
    fn route_timeout_reports_the_path() {
        let m = ring(&["s0"]);
        m.begin_migration("/stuck", "s0").unwrap();
        let e = m.epoch();
        let err = m.route("/stuck/f", e, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, ShardError::RouteTimeout { .. }));
    }
}
