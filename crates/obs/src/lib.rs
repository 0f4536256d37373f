//! # obs — observability substrate
//!
//! The sensory system of the DataLinks reproduction, std-only:
//!
//! * [`trace`] — `TraceCtx { trace_id, span_id }` allocated at the host
//!   statement boundary and carried across the RPC fabric into DLFM child
//!   agents and down into minidb, plus the global ring of finished spans
//!   that tests and bench binaries can drain and assert on;
//! * [`ring`] — the one bounded, overwrite-oldest event ring (one
//!   `fetch_add` and a slot latch a push) under both the span ring and
//!   the journal;
//! * [`hist`] — fixed-bucket log-scale latency histograms
//!   (HdrHistogram-style power-of-two sub-buckets, `Relaxed` atomics,
//!   mergeable) for per-operation latency, lock waits, and WAL forces;
//! * [`registry`] — a metrics registry rendering counters, gauges, and
//!   histograms in the Prometheus text exposition format, and
//!   [`counters!`], which declares a table of them once;
//! * [`log`](crate::logging) — leveled event logging to stderr
//!   (`error!`/`warn!`/`info!`/`debug!`), filterable with the `DLFM_LOG`
//!   environment variable, prefixed with the current trace id;
//! * [`fault`] — deterministic, seeded fault injection: named fault
//!   points threaded through WAL, storage, RPC, filesys, and 2PC code,
//!   zero-cost when disabled, replayable from a seed when armed;
//! * [`journal`] — the flight recorder: a bounded ring of structured
//!   events (lock waits, deadlock victims, 2PC transitions, WAL forces,
//!   admission rejects, fault fires) that dumps on panic, fault fire, or
//!   `DLFM_JOURNAL_DUMP`; one relaxed atomic load when disarmed;
//! * [`export`] — Chrome-trace/Perfetto JSON export over the span ring
//!   and the journal, the one exported span row ([`RemoteSpan`]), and the
//!   one bundle writer ([`write_bundle`]);
//! * [`json`] — the JSON escaper, number rule and well-formedness checker
//!   every JSON writer in the workspace uses;
//! * [`watch`] — continuous telemetry: a background sampler over every
//!   layer's metrics snapshot, per-interval rates/deltas, declarative
//!   health rules (threshold / rate / stall / quantile), and
//!   self-contained incident bundles written on breach.
//!
//! The paper's lessons (§3.2.1, §4) were found in production telemetry;
//! this crate is what lets the reproduction see the same pathologies —
//! deadlock storms, escalation collapse, phase-2 retries — directly.

#![warn(missing_docs)]

pub mod export;
pub mod fault;
pub mod hist;
pub mod journal;
pub mod json;
pub mod logging;
pub mod registry;
pub mod ring;
pub mod trace;
pub mod watch;

pub use export::{
    export_chrome_trace, export_span_dump, merge_chrome_trace, parse_span_dump, span_dump,
    write_bundle, ProcessTrace, RemoteSpan,
};
pub use fault::{FaultGuard, Trigger};
pub use hist::{Histogram, Report};
pub use journal::{JournalEvent, JournalKind};
pub use json::{json_escape, json_is_well_formed, json_num};
pub use registry::Registry;
pub use trace::{
    current_ctx, drain_spans, set_current_ctx, span, span_root, Layer, Outcome, SpanEvent,
    SpanGuard, TraceCtx,
};
pub use watch::{render_metrics, Cmp, Rule, RuleKind, WatchConfig, Watchdog, WatchdogHandle};

use std::sync::atomic::{AtomicU64, Ordering};

/// A 64-bit draw from OS-seeded process entropy (`RandomState`'s keys are
/// randomized per construction). Used for trace/span ids; not crypto.
pub(crate) fn entropy() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let state = std::collections::hash_map::RandomState::new();
    let mut hasher = state.build_hasher();
    hasher.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    hasher.finish() | 1 // never zero
}
