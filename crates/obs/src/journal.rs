//! The flight recorder: a bounded ring of structured events beyond spans.
//!
//! Spans say *how long* things took; the journal says *what happened*:
//! lock waits/grants/timeouts, deadlock victim selection, lock escalation,
//! 2PC sub-transaction state transitions, WAL/coordinator-log forces, pool
//! admission rejects, and every fault-point fire. Each event is stamped
//! with the thread's trace id, a transaction/session id, and monotonic
//! microseconds since process start, so a dump reads as a timeline that
//! joins against the span ring and the logs.
//!
//! The recorder is **disarmed by default**: every [`record`] call is one
//! relaxed atomic load, and the detail closure is never evaluated. Servers
//! and tests [`arm`] it; arming also installs a panic hook that dumps the
//! buffered timeline to stderr, so a crashing process explains itself.
//! With `DLFM_JOURNAL_DUMP` set in the environment, every fault-point fire
//! also triggers a dump — the forensic artifact for a failing fault-matrix
//! seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

use crate::ring::Ring;
use crate::trace::current_ctx;

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalKind {
    /// A transaction started waiting for a lock.
    LockWait,
    /// A waiter was granted its lock (immediate grants are not journaled —
    /// they are too hot and carry no diagnostic signal).
    LockGrant,
    /// A lock wait timed out.
    LockTimeout,
    /// A deadlock cycle was detected and a victim chosen.
    Deadlock,
    /// Fine-grained locks were escalated to a table lock.
    LockEscalation,
    /// A 2PC sub-transaction state transition (in-flight, prepared,
    /// phase-2 attempt/abandon, committed, aborted, presumed abort).
    TwoPc,
    /// A WAL force (simulated fsync) completed.
    WalForce,
    /// A coordinator-log force completed.
    CoordForce,
    /// A request was rejected by pool admission control.
    PoolReject,
    /// An armed fault point fired.
    FaultFire,
    /// A statement ran over the slow-statement threshold.
    SlowStatement,
    /// A telemetry-watchdog health rule fired.
    Alert,
    /// Anything else worth a timeline entry (restart, recovery, …).
    Info,
}

impl JournalKind {
    /// Stable lowercase name (used in dumps, metrics, and trace export).
    pub fn as_str(&self) -> &'static str {
        match self {
            JournalKind::LockWait => "lock_wait",
            JournalKind::LockGrant => "lock_grant",
            JournalKind::LockTimeout => "lock_timeout",
            JournalKind::Deadlock => "deadlock",
            JournalKind::LockEscalation => "lock_escalation",
            JournalKind::TwoPc => "twopc",
            JournalKind::WalForce => "wal_force",
            JournalKind::CoordForce => "coord_force",
            JournalKind::PoolReject => "pool_reject",
            JournalKind::FaultFire => "fault_fire",
            JournalKind::SlowStatement => "slow_statement",
            JournalKind::Alert => "alert",
            JournalKind::Info => "info",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct JournalEvent {
    /// Global record order (monotonic).
    pub seq: u64,
    /// Microseconds since process start (monotonic clock).
    pub micros: u64,
    /// Trace id of the thread's current span, 0 when none was open.
    pub trace_id: u64,
    /// Transaction / session id the event belongs to, 0 when none.
    pub txn: i64,
    /// Event kind.
    pub kind: JournalKind,
    /// Human-readable specifics ("txn3 -> txn5 -> txn3, victim txn5").
    pub detail: String,
}

/// Capacity of the global journal ring.
pub const JOURNAL_CAPACITY: usize = 16384;

/// Process-wide armed switch: exactly one relaxed load on the disarmed
/// path, mirroring the fault registry's fast path.
static ARMED: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static Ring<JournalEvent> {
    static RING: OnceLock<Ring<JournalEvent>> = OnceLock::new();
    RING.get_or_init(|| Ring::new(JOURNAL_CAPACITY))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic microseconds since process start (first use). Shared with
/// the span ring so journal events and spans land on one timeline.
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Arm the flight recorder (idempotent). Also installs the panic-dump
/// hook on first arm, so a panicking armed process dumps its timeline.
pub fn arm() {
    // Touch the epoch first so event timestamps measure from roughly
    // process start rather than from the first recorded event.
    let _ = epoch();
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_to_stderr("panic");
            prev(info);
        }));
    });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm the recorder: every later [`record`] is one relaxed load and
/// nothing is evaluated or stored. Buffered events stay readable.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Is the recorder armed?
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Record one event. When disarmed this is a single relaxed atomic load;
/// the detail closure is only evaluated (and only allocates) when armed.
#[inline]
pub fn record(kind: JournalKind, txn: i64, detail: impl FnOnce() -> String) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    record_slow(kind, txn, detail());
}

#[cold]
fn record_slow(kind: JournalKind, txn: i64, detail: String) {
    ring().push(|seq| JournalEvent {
        seq,
        micros: now_micros(),
        trace_id: current_ctx().map_or(0, |c| c.trace_id),
        txn,
        kind,
        detail,
    });
}

/// Non-destructive copy of the buffered timeline, oldest first.
pub fn snapshot() -> Vec<JournalEvent> {
    ring().snapshot()
}

/// Take the buffered timeline, leaving the ring empty (tests isolate
/// their window this way).
pub fn drain() -> Vec<JournalEvent> {
    ring().drain()
}

/// Events recorded over the process lifetime (including overwritten).
pub fn recorded() -> u64 {
    ring().pushed()
}

/// Events lost to ring overflow.
pub fn dropped() -> u64 {
    ring().dropped()
}

/// Render one event as a dump line: seconds since process start, kind,
/// then ` trace=<hex>` and ` txn=<id>` when set, then the detail. Flight
/// recorder dumps, incident bundles and transaction autopsies all print
/// their events this way.
pub fn render_line(e: &JournalEvent, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "{:>12.6}s  {:<15}", e.micros as f64 / 1_000_000.0, e.kind.as_str());
    if e.trace_id != 0 {
        let _ = write!(out, " trace={:016x}", e.trace_id);
    }
    if e.txn != 0 {
        let _ = write!(out, " txn={}", e.txn);
    }
    let _ = writeln!(out, "  {}", e.detail);
}

/// The full buffered timeline as text, oldest first — the "flight
/// recorder dump". Non-destructive.
pub fn dump_string() -> String {
    let events = snapshot();
    let mut out = String::new();
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "=== flight recorder: {} buffered, {} recorded, {} dropped ===",
        events.len(),
        recorded(),
        dropped()
    );
    for e in &events {
        render_line(e, &mut out);
    }
    out
}

/// Dump the timeline to stderr with a reason header. No-op while the ring
/// is empty (an unused recorder stays silent on panic).
pub fn dump_to_stderr(reason: &str) {
    if recorded() == 0 {
        return;
    }
    eprintln!("=== flight recorder dump ({reason}) ===");
    eprint!("{}", dump_string());
}

/// Is `DLFM_JOURNAL_DUMP` set (to anything but `0`)? Cached after the
/// first check.
pub fn env_dump_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("DLFM_JOURNAL_DUMP").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Hook called by the fault registry on every fault-point fire: journal
/// the fire, and dump the timeline when `DLFM_JOURNAL_DUMP` asks for it.
pub(crate) fn on_fault_fired(point: &str) {
    record(JournalKind::FaultFire, 0, || format!("fault point {point} fired"));
    if env_dump_enabled() {
        dump_to_stderr(&format!("fault fire: {point}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Armed-state tests share the global ring; serialize them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disarmed_record_evaluates_nothing() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        let before = recorded();
        record(JournalKind::Info, 1, || panic!("detail must not be evaluated while disarmed"));
        assert_eq!(recorded(), before);
    }

    #[test]
    fn armed_record_lands_in_order_with_stamps() {
        let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        drain();
        record(JournalKind::LockWait, 7, || "waiting for row 1".into());
        record(JournalKind::Deadlock, 9, || "txn7 -> txn9 -> txn7".into());
        let events = snapshot();
        disarm();
        let ours: Vec<&JournalEvent> = events.iter().filter(|e| e.txn == 7 || e.txn == 9).collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].kind, JournalKind::LockWait);
        assert_eq!(ours[1].kind, JournalKind::Deadlock);
        assert!(ours[0].seq < ours[1].seq);
        assert!(ours[0].micros <= ours[1].micros);
        let dump = dump_string();
        assert!(dump.contains("deadlock"), "dump names the event kind: {dump}");
        assert!(dump.contains("txn7 -> txn9"), "dump carries the detail: {dump}");
        drain();
    }

    #[test]
    fn ring_counts_drops_exactly() {
        let ring: Ring<JournalEvent> = Ring::new(3);
        for i in 0..5 {
            ring.push(|seq| JournalEvent {
                seq,
                micros: i,
                trace_id: 0,
                txn: i as i64,
                kind: JournalKind::Info,
                detail: String::new(),
            });
        }
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 2, "two events were overwritten before any drain");
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3, "snapshot is non-destructive");
        assert_eq!(ring.snapshot().len(), 3);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(ring.drained(), 3);
        assert!(ring.snapshot().is_empty());
    }
}
