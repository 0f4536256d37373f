//! # hostdb — the host relational database with the DataLinks engine
//!
//! The host side of the DataLinks architecture (paper Figure 2): a
//! relational database whose SQL surface recognises `DATALINK` columns and
//! drives one or more [`dlfm`] servers transactionally:
//!
//! * INSERT of a datalink value links the referenced file; DELETE unlinks
//!   it; UPDATE does both; DROP TABLE deletes the file groups;
//! * every transaction that touched a DLFM commits through **presumed-abort
//!   two-phase commit** with a forced coordinator commit record and
//!   synchronous phase-2 commit calls (the paper's hard-won requirement,
//!   §4);
//! * transaction ids and recovery ids are **monotonically increasing**, the
//!   property the DLFM metadata design depends on (§3.2–3.3);
//! * statement errors after a partial datalink operation are undone with
//!   `in_backout` requests, host savepoints included (§3.2);
//! * the **Backup / Restore / Reconcile** utilities coordinate host data
//!   with file data (§3.4), and the indoubt resolver daemon cleans up after
//!   crashes (§3.3).

#![warn(missing_docs)]

pub mod coordlog;
pub mod engine;
pub mod error;
pub mod load;
mod migrate;
mod participant;
pub mod shard;
mod telemetry;
pub mod tokens;
mod twopc;
pub mod url;
pub mod utilities;

pub use coordlog::{CoordLog, CoordRecord};
pub use engine::{
    DatalinkSpec, DlColumn, HostConfig, HostDb, HostMetrics, HostSavepoint, HostSession,
};
pub use error::{HostError, HostResult};
pub use load::{LoadReport, LoadRow};
pub use participant::register_inproc;
pub use shard::{route_key, Routed, ShardError, ShardMap};
pub use tokens::{Invalidation, TokenCacheMetrics};
pub use url::DatalinkUrl;
pub use utilities::{HostBackup, ReconcileOutcome};
