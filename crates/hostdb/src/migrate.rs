//! Online reconfiguration: moving a path prefix's link metadata from the
//! shards that hold it onto another shard without stopping traffic.

use std::sync::atomic::Ordering;

use dlfm::GroupSpec;
use minidb::{Session, Value};

use crate::engine::HostDb;
use crate::error::{HostError, HostResult};
use crate::participant::Conns;

impl HostDb {
    /// Migrate the link metadata of a path prefix onto shard `to` without
    /// stopping traffic (online reconfiguration v1):
    ///
    /// 1. flip the prefix to *migrating* in the map (epoch bump) — new
    ///    transactions touching it park until the copy settles, while
    ///    transactions begun earlier keep the old placement;
    /// 2. drain those pre-flip transactions;
    /// 3. register every known file group on the target (idempotent — a
    ///    runtime-attached shard has none yet);
    /// 4. copy the prefix's link rows from every other shard
    ///    (`ExportLinks` → `ImportLinks`, then a destructive export only
    ///    after the import acked);
    /// 5. re-home the host's `sys_datalinks` rows;
    /// 6. settle the map and wake parked transactions.
    ///
    /// Returns the number of link rows moved. On any error the map entry
    /// is rolled back to the pre-flip placement; already-imported rows are
    /// harmless duplicates-in-waiting that a retry will skip
    /// (`ImportLinks` is idempotent). Unlinked-history rows stay on their
    /// original shard: only *linked* entries move, which is all routing
    /// needs (history is consulted where the unlink ran).
    pub fn migrate_prefix(&self, prefix: &str, to: &str) -> HostResult<u64> {
        self.connector_for(to)?;
        let prefix = prefix.trim_end_matches('/');
        if prefix.is_empty() {
            return Err(HostError::Usage("cannot migrate the root prefix".into()));
        }
        if !self.inner.shards.enabled() {
            return Err(HostError::Usage(
                "shard routing is not enabled (call set_shards first)".into(),
            ));
        }
        let flip = self
            .inner
            .shards
            .begin_migration(prefix, to)
            .map_err(|e| HostError::Usage(e.to_string()))?;
        obs::info!("hostdb::shard", "migrating prefix {prefix} to {to} (flip epoch {flip})");
        let result = self.run_migration(prefix, to, flip);
        self.inner.tokens.clear();
        match &result {
            Ok(moved) => {
                self.inner.shards.finish_migration(prefix);
                self.inner.metrics.shard_migrations.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.shard_migrated_rows.fetch_add(*moved, Ordering::Relaxed);
                obs::info!("hostdb::shard", "prefix {prefix} now on {to} ({moved} rows moved)");
            }
            Err(e) => {
                self.inner.shards.abort_migration(prefix);
                obs::warn!("hostdb::shard", "migration of {prefix} to {to} failed: {e}");
            }
        }
        result
    }

    fn run_migration(&self, prefix: &str, to: &str, flip: u64) -> HostResult<u64> {
        self.inner
            .shards
            .drain_below(flip, crate::shard::MIGRATION_WAIT)
            .map_err(|e| HostError::Usage(e.to_string()))?;

        // The target may have been attached after CREATE TABLE: make sure
        // it knows every file group before rows referencing them arrive.
        let specs: Vec<GroupSpec> = self
            .inner
            .dl_cols
            .read()
            .iter()
            .flat_map(|(tbl, cols)| cols.iter().map(move |(col, info)| (tbl, col, info)))
            .map(|(tbl, col, info)| GroupSpec {
                grp_id: info.grp_id,
                dbid: self.inner.config.dbid,
                table_name: tbl.clone(),
                column_name: col.clone(),
                access: info.access,
                recovery: info.recovery,
            })
            .collect();
        let mut conns = Conns::new(self);
        for spec in specs {
            conns.register_group(to, spec)?;
        }

        // Copy from every other shard: the prefix's subtree may span
        // several ring positions (one per directory).
        let mut moved = 0u64;
        let others: Vec<String> = self.servers().into_iter().filter(|s| s != to).collect();
        for server in &others {
            let rows = conns.export_links(server, prefix, false)?;
            if !rows.is_empty() {
                moved += rows.len() as u64;
                conns.import_links(to, rows)?;
                // Destructive pass only now that the import acked.
                conns.export_links(server, prefix, true)?;
            }
        }

        // Re-home the host's own bookkeeping so Reconcile/Restore keep
        // querying the right server ('0' is '/' + 1: the subtree range).
        // One UPDATE per source server: the equality on `server` lets the
        // (server, filename) index bound the scan to the migrated rows —
        // a bare filename range would full-scan sys_datalinks and convoy
        // with every concurrent link/unlink on the X locks it accretes.
        let mut s = Session::new(&self.inner.db);
        s.begin()?;
        for server in others {
            s.exec_params(
                "UPDATE sys_datalinks SET server = ? \
                 WHERE server = ? AND filename >= ? AND filename < ?",
                &[
                    Value::str(to),
                    Value::str(server),
                    Value::str(format!("{prefix}/")),
                    Value::str(format!("{prefix}0")),
                ],
            )?;
        }
        s.commit()?;
        Ok(moved)
    }
}
