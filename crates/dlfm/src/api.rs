//! The DLFM API: requests the datalink engine sends over RPC, responses,
//! and the DLFM error model.
//!
//! The paper (§2, §3.3) names the core calls: LinkFile, UnlinkFile, and the
//! two-phase-commit quartet BeginTransaction / Prepare / Commit / Abort.
//! The remaining variants carry the utility traffic (group registration and
//! deletion for DDL, backup/restore/reconcile coordination, indoubt
//! resolution, token issuance, and the DLFF upcall).
//!
//! Each message is declared once, here, through [`dlrpc::wire_schema!`]:
//! the `tag =>` number of a variant is its wire tag, and the declaration
//! also writes the codec, `op_name()` and a sample generator. Adding a
//! verb is one schema line plus its handler in [`crate::agent`]. A tag is
//! never reused or renumbered (`tests/wire_golden.rs` pins every
//! variant's bytes).

use std::fmt;

use dlrpc::wire::{Gen, Sample};
use dlrpc::{Reader, Wire, WireError};

/// Access-control mode of a datalink column (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessControl {
    /// No access control: DLFM only tracks the reference.
    None,
    /// Partial: rename/delete/move are blocked while linked (via Upcall).
    Partial,
    /// Full: DLFM takes ownership, marks the file read-only, and reads
    /// require a host-issued token.
    Full,
}

impl AccessControl {
    /// Integer encoding stored in the metadata tables.
    pub fn code(self) -> i64 {
        match self {
            AccessControl::None => 0,
            AccessControl::Partial => 1,
            AccessControl::Full => 2,
        }
    }

    /// Decode from the metadata encoding.
    pub fn from_code(code: i64) -> AccessControl {
        match code {
            1 => AccessControl::Partial,
            2 => AccessControl::Full,
            _ => AccessControl::None,
        }
    }
}

/// On the wire an access mode is its metadata [`code`](AccessControl::code),
/// an `i64`. A frame comes from outside, so a code with no mode fails to
/// decode instead of falling back to `None` the way
/// [`from_code`](AccessControl::from_code) does for the DLFM's own rows.
impl Wire for AccessControl {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code().encode(out)
    }

    fn decode(r: &mut Reader<'_>) -> Result<AccessControl, WireError> {
        let code = i64::decode(r)?;
        [AccessControl::None, AccessControl::Partial, AccessControl::Full]
            .into_iter()
            .find(|a| a.code() == code)
            .ok_or_else(|| WireError::Decode(format!("unknown AccessControl code {code}")))
    }
}

impl Sample for AccessControl {
    fn sample(g: &mut Gen) -> AccessControl {
        AccessControl::from_code(g.below(3) as i64)
    }
}

dlrpc::wire_schema! {
    /// File-group registration info (one group per datalink column, paper §3).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GroupSpec {
        /// Group id assigned by the host database.
        pub grp_id: i64,
        /// Host database id.
        pub dbid: i64,
        /// SQL table the datalink column lives in.
        pub table_name: String,
        /// The datalink column.
        pub column_name: String,
        /// Access-control mode for files in this group.
        pub access: AccessControl,
        /// Whether DLFM is responsible for backup/recovery of the files
        /// ("recovery option equals yes", §3.4).
        pub recovery: bool,
    }
}

dlrpc::wire_schema! {
    /// One linked File-table entry in bulk export/import form — everything a
    /// receiving shard needs to recreate the row exactly (shard migration
    /// copies metadata, not files; the file itself stays on the shared file
    /// server). Only *linked* entries travel: unlinked history stays behind
    /// with the archive copies it indexes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LinkRow {
        /// Host database id.
        pub dbid: i64,
        /// Absolute file path.
        pub filename: String,
        /// Owning file group.
        pub grp_id: i64,
        /// Transaction that created the link.
        pub link_xid: i64,
        /// Recovery id of the link operation.
        pub rec_id: i64,
        /// Access-control code at link time.
        pub access_ctl: i64,
        /// 1 when DLFM owns backup/recovery of this file.
        pub recovery: i64,
        /// Owner before takeover (restored on unlink).
        pub orig_owner: String,
        /// Mode bits before takeover.
        pub orig_mode: i64,
        /// File-system id at link time.
        pub fsid: i64,
        /// Inode at link time.
        pub inode: i64,
    }
}

/// Most members one [`DlfmRequest::Batch`] may carry. Frames come from
/// outside: the decoder refuses a larger count before allocating for it.
pub const MAX_BATCH_OPS: usize = 256;

dlrpc::wire_schema! {
    /// A request from the host database (or DLFF) to the DLFM.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DlfmRequest {
        /// Identify the connecting host database.
        0 => Connect {
            /// Host database id.
            dbid: i64,
        },
        /// Start a sub-transaction for host transaction `xid`. The host
        /// begins implicitly with its first operation; only the benchmark
        /// package's probes and crash check still send this, and it goes
        /// with the next change to that package.
        1 => BeginTxn {
            /// Host transaction id (monotonically increasing per host).
            xid: i64,
        },
        /// Link a file (host inserted a datalink value).
        2 => LinkFile {
            /// Host transaction id.
            xid: i64,
            /// Recovery id generated by the host for this link operation.
            rec_id: i64,
            /// Owning file group.
            grp_id: i64,
            /// Absolute file path on this file server.
            filename: String,
            /// True when this request *undoes* a previous unlink in a savepoint
            /// backout (paper §3.2).
            in_backout: bool,
        },
        /// Unlink a file (host deleted/updated a datalink value).
        3 => UnlinkFile {
            /// Host transaction id.
            xid: i64,
            /// Recovery id generated by the host for this unlink operation.
            rec_id: i64,
            /// Owning file group.
            grp_id: i64,
            /// Absolute file path.
            filename: String,
            /// True when this request undoes a previous link in a savepoint
            /// backout.
            in_backout: bool,
        },
        /// Phase 1 of two-phase commit: harden all work in the local database.
        4 => Prepare {
            /// Host transaction id.
            xid: i64,
        },
        /// Phase 2: commit. Retried by the DLFM until it succeeds (§3.3).
        5 => Commit {
            /// Host transaction id.
            xid: i64,
        },
        /// Phase 2: abort — possibly *after* the local database already
        /// committed the prepare; undone via the delayed-update scheme (§4).
        6 => Abort {
            /// Host transaction id.
            xid: i64,
        },
        /// Register a file group (host CREATE TABLE with a datalink column).
        7 => RegisterGroup(GroupSpec),
        /// Mark a group deleted within the transaction (host DROP TABLE).
        8 => DeleteGroup {
            /// Host transaction id.
            xid: i64,
            /// Group to delete.
            grp_id: i64,
            /// Recovery id the host generated for the drop; recorded as the
            /// unlink recovery id of every file the Delete-Group daemon
            /// unlinks.
            rec_id: i64,
        },
        /// Issue a read token for a fully-controlled linked file.
        9 => IssueToken {
            /// Linked file path.
            filename: String,
        },
        /// List transactions in doubt (PREPARED) for resolution after failures.
        10 => ListIndoubt,
        /// Backup coordination: host backup started; flush pending copies.
        11 => BeginBackup {
            /// Host backup id.
            backup_id: i64,
            /// Host recovery id at backup time (stored in the backup image).
            rec_id: i64,
        },
        /// Backup coordination: host backup finished.
        12 => EndBackup {
            /// Host backup id.
            backup_id: i64,
            /// Whether the host declared the backup successful.
            success: bool,
        },
        /// Host database was restored to the state identified by `rec_id`;
        /// reconcile DLFM metadata and refetch files (paper §3.4).
        13 => RestoreTo {
            /// Recovery id preserved in the backup image.
            rec_id: i64,
        },
        /// Reconcile utility: the host's current set of (filename, rec_id)
        /// references for this dbid. DLFM loads them into a temp table,
        /// diffs against the File table, and fixes its side; the response
        /// reports rows the *host* must fix.
        14 => Reconcile {
            /// Host references: (filename, link recovery id).
            entries: Vec<(String, i64)>,
        },
        /// DLFF upcall: is this file linked?
        15 => UpcallQuery {
            /// File path.
            filename: String,
        },
        /// Diagnostic: number of pending archive-copy entries.
        16 => PendingCopies,
        /// A handler round trip that does nothing and answers `Ok`. Liveness
        /// is the transport's own Ping frame; only the benchmark package's
        /// probes still send this, and it goes with the next change to that
        /// package.
        17 => Ping,
        /// Bulk-export the linked entries under a path prefix (shard
        /// migration, phase "copy"). Runs in its own local transaction on an
        /// otherwise idle connection. With `remove` the exported rows are
        /// deleted in the same local transaction — the destructive second
        /// pass, issued only after the receiving shard acknowledged the
        /// import.
        18 => ExportLinks {
            /// Directory prefix; matches `<prefix>/...` (and `<prefix>`
            /// itself).
            prefix: String,
            /// Delete the exported rows in the same local transaction.
            remove: bool,
        },
        /// Bulk-import linked entries exported from another shard. Idempotent:
        /// rows whose (filename, check_flag=0) slot is already occupied are
        /// skipped, so a retried import cannot double-link.
        19 => ImportLinks {
            /// Rows to recreate in this shard's File table.
            entries: Vec<LinkRow>,
        },
        /// Pull one telemetry artifact from this daemon (fleet telemetry
        /// plane): the host scrapes every attached DLFM over the wire and
        /// merges the results into one view.
        20 => FetchTelemetry {
            /// Which artifact to fetch.
            kind: TelemetryKind,
        },
        /// One statement's datalink operations on this shard in one round
        /// trip: `LinkFile`/`UnlinkFile` members and, last only, the `Prepare`
        /// of an autocommit statement (the unsolicited vote), all of one
        /// transaction, at most [`MAX_BATCH_OPS`] of them. Members run in
        /// order exactly as if sent one by one and stop after the first that
        /// answers `Err`; the reply is [`DlfmResponse::Batch`] with one entry
        /// per member that ran. A batch that breaks these rules runs nothing
        /// and is a `Protocol` error.
        21 => Batch(Vec<DlfmRequest> as crate::wire::Batch),
    }
}

dlrpc::wire_schema! {
    /// Which telemetry artifact a [`DlfmRequest::FetchTelemetry`] pulls.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TelemetryKind {
        /// Prometheus-style metrics text (same as the daemon's own exporter).
        0 => Metrics,
        /// Human-readable status report.
        1 => Status,
        /// The in-memory journal ring, rendered one event per line.
        2 => Journal,
        /// The finished-span ring in `obs::export::span_dump` line format,
        /// parseable host-side for the multi-process trace merge.
        3 => Spans,
        /// The daemon's monotonic `now_micros()` clock as a decimal string;
        /// the host measures RTT around this call to estimate the clock
        /// offset used to align remote spans in a merged trace.
        4 => Clock,
    }
}

dlrpc::wire_schema! {
    /// Link-state answer for upcalls.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LinkStatus {
        /// Not under database control.
        0 => NotLinked,
        /// Linked with partial access control.
        1 => LinkedPartial,
        /// Linked with full access control.
        2 => LinkedFull,
    }
}

dlrpc::wire_schema! {
    /// A response from the DLFM.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DlfmResponse {
        /// Success with nothing to report.
        0 => Ok,
        /// Prepare vote: ready to commit. `read_only` means no phase 2 needed.
        1 => Prepared {
            /// True when the sub-transaction made no changes.
            read_only: bool,
        },
        /// Error.
        2 => Err(DlfmError),
        /// Token issued for a fully-controlled file.
        3 => Token(String),
        /// Indoubt transaction ids.
        4 => Indoubt(Vec<i64>),
        /// Upcall answer.
        5 => LinkState(LinkStatus),
        /// Reconcile result: host rows that reference files unknown to (or not
        /// linked on) this DLFM; the host should null them out.
        6 => ReconcileReport {
            /// (filename, rec_id) pairs the host must repair.
            broken_host_refs: Vec<(String, i64)>,
            /// Files DLFM had linked but the host no longer references; DLFM
            /// unlinked them.
            orphans_unlinked: Vec<String>,
        },
        /// Count answer (e.g. pending copies).
        7 => Count(i64),
        /// Bulk link export (shard migration).
        8 => Links(Vec<LinkRow>),
        /// One telemetry artifact, rendered as text (metrics, status, journal,
        /// span dump, or clock reading — see [`TelemetryKind`]).
        9 => Telemetry(String),
        /// Replies to the members of a [`DlfmRequest::Batch`] that ran, in
        /// order: every entry but the last is a success.
        10 => Batch(Vec<DlfmResponse> as crate::wire::Batch),
    }
}

impl DlfmResponse {
    /// Unwrap an `Ok`-like response or surface the error.
    pub fn into_result(self) -> Result<DlfmResponse, DlfmError> {
        match self {
            DlfmResponse::Err(e) => Err(e),
            other => Ok(other),
        }
    }
}

dlrpc::wire_schema! {
    /// Errors the DLFM reports to the host.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DlfmError {
        /// The file is already linked (to this or another column).
        0 => AlreadyLinked(String),
        /// The file is not linked, so it cannot be unlinked.
        1 => NotLinked(String),
        /// The file does not exist on the file server.
        2 => NoSuchFile(String),
        /// The group is unknown or is being deleted.
        3 => NoSuchGroup(i64),
        /// The file has an unresolved unlink in another in-flight/prepared
        /// transaction; it may not be re-linked yet (paper §3.5).
        4 => FileBusy(String),
        /// Request arrived for a transaction the agent does not know.
        5 => UnknownTxn(i64),
        /// Prepare was required before this phase-2 request.
        6 => NotPrepared(i64),
        /// A local-database error. `retryable` marks deadlock/timeout/log-full
        /// conditions; a severe (retryable) error in forward processing forces
        /// the host to roll back the whole transaction (paper §3.2).
        7 => Db {
            /// Rendered local-database error.
            msg: String,
            /// Whether the error class is transient.
            retryable: bool,
            /// Classified error kind (for metrics).
            kind: DbErrorKind,
        },
        /// A file-system error during a file operation.
        8 => Fs(String),
        /// Request was malformed for the connection state (e.g. no Connect).
        9 => Protocol(String),
    }
}

impl fmt::Display for DlfmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlfmError::AlreadyLinked(p) => write!(f, "file already linked: {p}"),
            DlfmError::NotLinked(p) => write!(f, "file not linked: {p}"),
            DlfmError::NoSuchFile(p) => write!(f, "no such file on file server: {p}"),
            DlfmError::NoSuchGroup(g) => write!(f, "no such file group: {g}"),
            DlfmError::FileBusy(p) => {
                write!(f, "file has an unresolved unlink in another transaction: {p}")
            }
            DlfmError::UnknownTxn(x) => write!(f, "unknown transaction {x}"),
            DlfmError::NotPrepared(x) => write!(f, "transaction {x} is not prepared"),
            DlfmError::Db { msg, retryable, .. } => {
                write!(f, "local database error (retryable={retryable}): {msg}")
            }
            DlfmError::Fs(m) => write!(f, "file system error: {m}"),
            DlfmError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for DlfmError {}

dlrpc::wire_schema! {
    /// Classification of local-database errors, preserved across the RPC
    /// boundary so the workload harness can count deadlocks vs timeouts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DbErrorKind {
        /// Chosen as a deadlock victim.
        0 => Deadlock,
        /// Lock wait exceeded the timeout.
        1 => LockTimeout,
        /// Active log window exhausted (long transaction).
        2 => LogFull,
        /// Anything else.
        3 => Other,
    }
}

impl From<minidb::DbError> for DlfmError {
    fn from(e: minidb::DbError) -> Self {
        let kind = match &e {
            minidb::DbError::Deadlock { .. } => DbErrorKind::Deadlock,
            minidb::DbError::LockTimeout { .. } => DbErrorKind::LockTimeout,
            minidb::DbError::LogFull { .. } => DbErrorKind::LogFull,
            _ => DbErrorKind::Other,
        };
        DlfmError::Db { retryable: e.is_retryable(), msg: e.to_string(), kind }
    }
}

impl From<filesys::FsError> for DlfmError {
    fn from(e: filesys::FsError) -> Self {
        DlfmError::Fs(e.to_string())
    }
}

/// Result alias for DLFM-side operations.
pub type DlfmResult<T> = Result<T, DlfmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_control_codec_roundtrip() {
        for ac in [AccessControl::None, AccessControl::Partial, AccessControl::Full] {
            assert_eq!(AccessControl::from_code(ac.code()), ac);
        }
    }

    #[test]
    fn db_error_conversion_preserves_retryability() {
        let e: DlfmError = minidb::DbError::Deadlock { cycle: "x".into() }.into();
        assert!(matches!(e, DlfmError::Db { retryable: true, .. }));
        let e: DlfmError = minidb::DbError::NotFound("t".into()).into();
        assert!(matches!(e, DlfmError::Db { retryable: false, .. }));
    }

    #[test]
    fn response_into_result() {
        assert!(DlfmResponse::Ok.into_result().is_ok());
        assert!(DlfmResponse::Err(DlfmError::NotLinked("/f".into())).into_result().is_err());
    }
}
