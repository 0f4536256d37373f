//! # dlfm — the DataLinks File Manager
//!
//! A from-scratch Rust reproduction of the system described in *DLFM: A
//! Transactional Resource Manager* (Hsiao & Narang, SIGMOD 2000): the
//! component of IBM's DataLinks technology that manages operating-system
//! files referenced from a relational database through `DATALINK` columns.
//!
//! DLFM is "a sophisticated SQL application with a set of daemon
//! processes": **all** of its metadata and state lives in a local
//! relational database it treats as a black box (here [`minidb`]), and its
//! transactional behaviour is layered on top:
//!
//! * link/unlink operations run as a **sub-transaction** of the host
//!   database transaction, joined through **two-phase commit**
//!   (BeginTransaction / Prepare / Commit / Abort, paper §3.3);
//! * Prepare hardens the work with a *local* SQL COMMIT, so aborting after
//!   prepare must "roll back after commit" — done with the
//!   **delayed-update scheme**: unlink only marks entries, commit phase 2
//!   performs the physical deletes, abort phase 2 flips the marks back
//!   (paper §4);
//! * phase-2 processing issues ordinary SQL and therefore takes locks and
//!   can deadlock — it **retries until it succeeds** (Figure 4);
//! * the link/link race on one file name is closed by a **unique index on
//!   (filename, check_flag)** (paper §3.2);
//! * six daemons provide the services of Figure 5: Copy, Retrieve,
//!   Delete-Group, Garbage Collector, Chown (privileged), and Upcall.
//!
//! The crate also reproduces the paper's operational lessons: hand-crafted
//! optimizer statistics with bound plans (plus the RUNSTATS guard),
//! disabled next-key locking, frequent small commits to avoid lock
//! escalation and log-full conditions, and timeout-based resolution of
//! distributed deadlocks.

#![warn(missing_docs)]

pub mod agent;
pub mod api;
pub mod backup;
pub mod chown;
pub mod config;
pub mod daemons;
pub mod meta;
pub mod metrics;
pub mod server;
pub mod twopc;
pub mod wire;

pub use api::{
    AccessControl, DbErrorKind, DlfmError, DlfmRequest, DlfmResponse, DlfmResult, GroupSpec,
    LinkStatus, TelemetryKind, MAX_BATCH_OPS,
};
pub use config::{default_watch_rules, DlfmConfig, Transport};
pub use dlrpc::AgentModel;
pub use metrics::{DlfmMetrics, DlfmMetricsSnapshot};
pub use server::{now_micros, DlfmServer, DlfmShared};
