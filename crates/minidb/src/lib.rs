//! # minidb — an embedded mini relational engine
//!
//! `minidb` plays the role of the **local DB2 "black box"** in this
//! reproduction of *DLFM: A Transactional Resource Manager* (SIGMOD 2000).
//! The DataLinks File Manager stores all of its metadata in a local
//! relational database it drives purely through SQL, and every
//! lesson-learned in the paper is about that database's mechanisms:
//!
//! * strict-2PL row locking with **next-key locking** (toggleable — the
//!   paper turns it off to kill multi-index deadlock storms),
//! * **lock escalation** from rows to tables past a threshold,
//! * wait-for-graph **deadlock detection** plus **lock timeouts**,
//! * a write-ahead log with a bounded active window (**log full** for long
//!   transactions) and crash/restart recovery, over a log core with group
//!   commit and exact crash epochs that the host's 2PC coordinator log
//!   shares,
//! * a **cost-based optimizer** driven by catalog statistics, with
//!   RUNSTATS and hand-crafted statistic overrides, and prepared
//!   statements that pin ("bind") plans.
//!
//! ## Quick example
//!
//! ```
//! use minidb::{Database, DbConfig, Session, Value};
//!
//! let db = Database::new(DbConfig::dlfm_tuned());
//! let mut s = Session::new(&db);
//! s.exec("CREATE TABLE dfm_file (filename VARCHAR NOT NULL, lnk_state INTEGER)").unwrap();
//! s.exec("CREATE INDEX ix_name ON dfm_file (filename)").unwrap();
//! s.begin().unwrap();
//! s.exec_params(
//!     "INSERT INTO dfm_file (filename, lnk_state) VALUES (?, 1)",
//!     &[Value::str("/video/ad.mpg")],
//! ).unwrap();
//! s.commit().unwrap();
//! let n = s.query_int("SELECT COUNT(*) FROM dfm_file", &[]).unwrap();
//! assert_eq!(n, 1);
//! ```

#![warn(missing_docs)]

pub mod bind;
pub mod catalog;
pub mod config;
pub mod engine;
pub mod error;
pub mod eval;
pub mod lock;
pub mod log;
pub mod plan;
pub mod schema;
pub mod session;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod txn;
pub mod value;
pub mod wal;

pub use bind::Prepared;
pub use catalog::TableMeta;
pub use config::DbConfig;
pub use engine::{Database, DbImage, ExecResult, SlowStatement};
pub use error::{DbError, DbResult};
pub use lock::{DeadlockParty, DeadlockReport, LockMetrics, LockMetricsSnapshot, LockMode};
pub use schema::{ColumnDef, IndexId, IndexSchema, TableId, TableSchema};
pub use session::Session;
pub use txn::{Savepoint, Txn, TxnId};
pub use value::{DataType, Row, Value};
