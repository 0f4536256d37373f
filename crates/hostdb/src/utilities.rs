//! The Backup, Restore, and Reconcile utilities (paper §3.4).
//!
//! * **Backup** asks every DLFM to flush its pending archive copies (high
//!   priority) before the backup is declared successful, and records in the
//!   backup image which recovery-id watermark (and thus which file-group
//!   states) it captured.
//! * **Restore** brings the host database back to a backup image, ships the
//!   preserved recovery id to every DLFM (which reconciles its File table
//!   and retrieves archived file versions), and re-syncs sequences.
//! * **Reconcile** compares the host's datalink references with each
//!   DLFM's metadata and file-system state, fixing both sides: dangling
//!   host references are nulled out, orphaned DLFM links are unlinked.

use dlfm::DlfmRequest;
use minidb::{DbImage, Session, Value};

use crate::engine::HostSession;
use crate::error::{HostError, HostResult};
use crate::url::{DatalinkUrl, SCHEME};

/// One host backup: the full database image plus the coordination metadata
/// the paper says the backup image must carry (§3.4: "keep additional
/// information in the backup image about which file servers and file groups
/// were involved").
pub struct HostBackup {
    /// Backup id (monotonic).
    pub backup_id: i64,
    /// Recovery-id watermark at backup time.
    pub rec_id: i64,
    /// The database image.
    pub image: DbImage,
    /// File servers involved at backup time.
    pub servers: Vec<String>,
}

impl HostSession {
    /// Run the Backup utility. Returns the backup id.
    pub fn backup(&mut self) -> HostResult<i64> {
        if self.xid().is_some() {
            return Err(HostError::Usage("backup must run outside a transaction".into()));
        }
        let host = self.host().clone();
        let backup_id = host.next_xid(); // monotonic id source is fine here
        let rec_id = host.current_rec_id();
        let servers = host.servers();
        // Phase 1: every DLFM flushes the asynchronous copies for files
        // linked before this watermark ("makes sure that all of the
        // necessary asynchronous copy operations have completed before
        // declaring that the database backup has been successfully
        // completed").
        for server in &servers {
            if let Err(e) =
                self.conns.utility(server, DlfmRequest::BeginBackup { backup_id, rec_id })
            {
                // Roll the backup back everywhere.
                for s in &servers {
                    let _ =
                        self.conns.utility(s, DlfmRequest::EndBackup { backup_id, success: false });
                }
                return Err(e);
            }
        }
        let image = host.db().backup_image();
        for server in &servers {
            self.conns.utility(server, DlfmRequest::EndBackup { backup_id, success: true })?;
        }
        host.inner.backups.lock().push(HostBackup {
            backup_id,
            rec_id,
            image,
            servers: servers.clone(),
        });
        Ok(backup_id)
    }

    /// Run the Restore utility: restore the host database to a backup and
    /// tell every involved DLFM to reconcile to the preserved recovery id.
    pub fn restore(&mut self, backup_id: i64) -> HostResult<()> {
        if self.xid().is_some() {
            return Err(HostError::Usage("restore must run outside a transaction".into()));
        }
        let host = self.host().clone();
        let (rec_id, image, servers) = {
            let backups = host.inner.backups.lock();
            let b = backups
                .iter()
                .find(|b| b.backup_id == backup_id)
                .ok_or_else(|| HostError::Usage(format!("no backup {backup_id}")))?;
            (b.rec_id, b.image.clone(), b.servers.clone())
        };
        host.db().restore_image(&image);
        host.reload_dl_columns()?;
        // The recovery id at backup time "is preserved in the backup image
        // which is sent to the DLFM during restore to reconcile its
        // metadata" (§3.4).
        let restored = servers
            .iter()
            .try_for_each(|server| self.conns.utility(server, DlfmRequest::RestoreTo { rec_id }));
        // The DLFMs relinked and unlinked files behind the sessions' backs.
        host.inner.tokens.clear();
        restored
    }

    /// Run the Reconcile utility over every attached DLFM (paper §3.4).
    /// Returns, per server, the host references that were repaired (nulled
    /// out) and the orphaned DLFM links that were removed.
    pub fn reconcile(&mut self) -> HostResult<Vec<ReconcileOutcome>> {
        if self.xid().is_some() {
            return Err(HostError::Usage("reconcile must run outside a transaction".into()));
        }
        let host = self.host().clone();
        let mut outcomes = Vec::new();
        for server in host.servers() {
            // Scan the host side: all references into this server (the
            // paper batches these into a temp table on the DLFM side).
            let mut s = Session::new(host.db());
            let rows = s.query(
                "SELECT tbl, col, filename, rec_id FROM sys_datalinks WHERE server = ?",
                &[Value::str(server.clone())],
            )?;
            let entries: Vec<(String, i64)> = rows
                .iter()
                .map(|r| Ok((r[2].as_str()?.to_string(), r[3].as_int()?)))
                .collect::<Result<_, minidb::DbError>>()?;
            let (broken, orphans) = self.conns.reconcile(&server, entries)?;
            // Fix the host side: null out broken references in user tables
            // and remove their bookkeeping rows.
            let mut repaired = Vec::new();
            for filename in &broken {
                let url = DatalinkUrl { server: server.clone(), path: filename.clone() };
                for row in &rows {
                    if row[2].as_str()? == filename.as_str() {
                        let tbl = row[0].as_str()?.to_string();
                        let col = row[1].as_str()?.to_string();
                        s.exec_params(
                            &format!("UPDATE {tbl} SET {col} = NULL WHERE {col} = ?"),
                            &[Value::str(url.to_url())],
                        )?;
                        s.exec_params(
                            "DELETE FROM sys_datalinks WHERE server = ? AND filename = ?",
                            &[Value::str(server.clone()), Value::str(filename.clone())],
                        )?;
                        repaired.push(url.to_url());
                    }
                }
            }
            outcomes.push(ReconcileOutcome {
                server: server.clone(),
                host_refs_repaired: repaired,
                dlfm_orphans_unlinked: orphans
                    .into_iter()
                    .map(|p| format!("{SCHEME}{server}{p}"))
                    .collect(),
            });
        }
        host.inner.tokens.clear();
        Ok(outcomes)
    }
}

/// Result of reconciling one file server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Server name.
    pub server: String,
    /// Host references that were nulled out (file missing or not linked).
    pub host_refs_repaired: Vec<String>,
    /// DLFM links removed because the host no longer references them.
    pub dlfm_orphans_unlinked: Vec<String>,
}
