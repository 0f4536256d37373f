//! # dlfm-bench — the benchmark later changes are judged with
//!
//! Four closed-loop workloads drive the public `hostdb::HostSession` SQL
//! surface against real `dlfm::DlfmServer`s; every layer is measured from
//! outside only (spans around calls into its public functions, direct
//! probes of those functions, deltas of its public counters). See
//! `README.md` in this directory for the workloads, the metrics and how
//! they interact.

pub mod affinity;
pub mod check;
pub mod gen;
pub mod measure;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod stand;
pub mod stats;
