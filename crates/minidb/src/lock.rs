//! Hierarchical strict-2PL lock manager, hash-sharded for the hot path.
//!
//! Implements the DB2-like machinery every lesson in the paper turns on:
//!
//! * table-level intention locks (IS/IX/S/SIX/X) over row- and index-key-level
//!   S/X locks;
//! * FIFO wait queues with lock conversion;
//! * wait-for-graph **deadlock detection** with youngest-victim selection;
//! * **lock timeouts** (the only mechanism that breaks deadlocks the local
//!   detector cannot see — e.g. the distributed host↔DLFM cycles of §4);
//! * **lock escalation** from row to table granularity past a per-table
//!   threshold or when the global lock list fills (§4);
//! * next-key locks are *requested by the index layer*; this module just
//!   treats them as key-granularity resources.
//!
//! Structure: the lock table is split into a power-of-two number of
//! **resource shards** (each a `Mutex<HashMap<Res, LockState>>` plus a
//! condvar waiters park on), selected by hashing the resource. Per-
//! transaction bookkeeping (held set, escalation state, current SQL,
//! pending wait) lives in separately hashed **transaction shards** — a
//! transaction's entry is written by its own thread, so those mutexes are
//! effectively uncontended. Commit/abort releases all locks with one pass
//! per *touched* shard instead of one global-lock acquisition per resource.
//! The deadlock detector assembles its wait-for graph from a cross-shard
//! snapshot: it reads each blocked transaction's pending request from its
//! transaction shard, then the grant/queue state from the one resource
//! shard involved, locking shards one at a time (never nested).
//!
//! Lock-order discipline: a thread holds at most one resource-shard mutex
//! at a time, and never acquires a transaction-shard mutex while holding a
//! resource-shard mutex (or vice versa); the tiny global `victims` map is
//! only locked on its own.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use obs::journal::{self, JournalKind};

use crate::error::{DbError, DbResult};
use crate::key::Key;
use crate::schema::{IndexId, TableId};
use crate::txn::TxnId;

thread_local! {
    /// Lock-wait time accumulated by the current thread since the last
    /// [`take_stmt_lock_wait`]; the engine resets it per statement so the
    /// slow-statement log can report a wait breakdown.
    static STMT_WAIT_MICROS: Cell<u64> = const { Cell::new(0) };
}

/// Drain the calling thread's accumulated lock-wait time (microseconds)
/// and reset the counter. Called by the engine at statement boundaries.
pub fn take_stmt_lock_wait() -> u64 {
    STMT_WAIT_MICROS.with(|c| c.replace(0))
}

fn add_stmt_wait(elapsed: Duration) {
    STMT_WAIT_MICROS.with(|c| c.set(c.get().saturating_add(elapsed.as_micros() as u64)));
}

/// Lock modes. Row/key resources only use `S` and `X`; table resources use
/// the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (table level).
    IS,
    /// Intention exclusive (table level).
    IX,
    /// Shared.
    S,
    /// Shared with intention exclusive (table level).
    SIX,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IS, X) | (X, IS) => false,
            (IS, _) | (_, IS) => true,
            (IX, IX) => true,
            (IX, _) | (_, IX) => false,
            (S, S) => true,
            (S, _) | (_, S) => false,
            _ => false, // SIX/X vs SIX/X
        }
    }

    /// Least mode that grants the privileges of both `self` and `other`.
    pub fn supremum(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            (S, IX) | (IX, S) => SIX,
            (S, _) | (_, S) => S,
            (IX, _) | (_, IX) => IX,
            _ => IS,
        }
    }

    /// Whether holding `self` already covers a request for `other`.
    pub fn covers(self, other: LockMode) -> bool {
        self.supremum(other) == self
    }

    /// True for modes that confer only read privileges.
    pub fn is_shared_only(self) -> bool {
        matches!(self, LockMode::S | LockMode::IS)
    }
}

/// A lockable resource.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Res {
    /// Whole table.
    Table(TableId),
    /// One row of a table.
    Row(TableId, u64),
    /// One index key (used for key-value and next-key locks). The owning
    /// table id is carried so escalation can attribute key locks to a table.
    Key(TableId, IndexId, Key),
    /// The logical "end of index" key, locked as the next key of the
    /// largest real key.
    KeyEof(TableId, IndexId),
}

impl Res {
    /// Table this resource belongs to.
    pub fn table(&self) -> TableId {
        match self {
            Res::Table(t) | Res::Row(t, _) | Res::Key(t, _, _) | Res::KeyEof(t, _) => *t,
        }
    }

    /// True for sub-table (row or key) granularity.
    pub fn is_fine_grained(&self) -> bool {
        !matches!(self, Res::Table(_))
    }
}

impl fmt::Display for Res {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Res::Table(t) => write!(f, "table#{}", t.0),
            Res::Row(t, r) => write!(f, "row {r} of table#{}", t.0),
            Res::Key(t, i, k) => {
                write!(f, "key {:?} of index#{} (table#{})", k, i.0, t.0)
            }
            Res::KeyEof(t, i) => write!(f, "EOF key of index#{} (table#{})", i.0, t.0),
        }
    }
}

obs::counters! {
    /// Counters exported for the benchmark harness; all monotonically
    /// increasing.
    pub struct LockMetrics => LockMetricsSnapshot {
        /// Lock requests granted immediately.
        immediate_grants: counter "minidb_lock_events_total" {kind = "immediate_grants"}
            "Lock-manager events by kind (paper section 4).",
        /// Lock requests that had to wait at least once.
        waits: counter "minidb_lock_events_total" {kind = "waits"}
            "Lock-manager events by kind (paper section 4).",
        /// Requests rolled back as deadlock victims.
        deadlocks: counter "minidb_lock_events_total" {kind = "deadlocks"}
            "Lock-manager events by kind (paper section 4).",
        /// Requests rolled back by lock timeout.
        timeouts: counter "minidb_lock_events_total" {kind = "timeouts"}
            "Lock-manager events by kind (paper section 4).",
        /// Row→table lock escalations performed.
        escalations: counter "minidb_lock_events_total" {kind = "escalations"}
            "Lock-manager events by kind (paper section 4).",
        /// Total lock acquisitions (grants of any kind).
        acquisitions: counter "minidb_lock_events_total" {kind = "acquisitions"}
            "Lock-manager events by kind (paper section 4).",
    }
}

impl LockMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

/// One transaction's standing in a captured deadlock cycle: what it was
/// asking for, everything it held, and the SQL it was running.
#[derive(Debug, Clone)]
pub struct DeadlockParty {
    /// Transaction id.
    pub txn: u64,
    /// The blocked request, e.g. `X on row 2 of table#1`.
    pub requested: String,
    /// Locks held at detection time, e.g. `X on row 1 of table#1`.
    pub held: Vec<String>,
    /// The statement this transaction was executing, when registered.
    pub sql: Option<String>,
}

/// A deadlock captured by the wait-for detector at the moment the cycle
/// was found — the forensic artifact §3.2.1 of the paper had to
/// reconstruct from throughput dips.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Transaction ids forming the wait-for cycle, in edge order.
    pub cycle: Vec<u64>,
    /// The transaction rolled back (youngest in the cycle).
    pub victim: u64,
    /// Per-transaction forensics for every cycle member.
    pub parties: Vec<DeadlockParty>,
    /// Monotonic microseconds since process start (journal clock).
    pub micros: u64,
}

impl DeadlockReport {
    /// The cycle as `txn1 -> txn2 -> txn1`.
    pub fn cycle_desc(&self) -> String {
        let mut parts: Vec<String> = self.cycle.iter().map(|t| format!("txn{t}")).collect();
        if let Some(first) = self.cycle.first() {
            parts.push(format!("txn{first}"));
        }
        parts.join(" -> ")
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "deadlock: {} (victim txn{})", self.cycle_desc(), self.victim);
        for p in &self.parties {
            let _ = writeln!(
                out,
                "  txn{}{} requested {}",
                p.txn,
                if p.txn == self.victim { " [victim]" } else { "" },
                p.requested
            );
            if let Some(sql) = &p.sql {
                let _ = writeln!(out, "    running: {sql}");
            }
            for h in &p.held {
                let _ = writeln!(out, "    holds: {h}");
            }
        }
        out
    }
}

/// Deadlock reports retained per lock manager (oldest evicted first).
pub const DEADLOCK_LOG_CAPACITY: usize = 16;

/// One granted entry on a resource.
#[derive(Debug, Clone)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
}

/// One queued waiter.
#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    ticket: u64,
    /// Conversion requests (holder upgrading its mode) bypass the FIFO queue.
    is_conversion: bool,
}

#[derive(Debug, Default)]
struct LockState {
    granted: Vec<Grant>,
    waiters: VecDeque<Waiter>,
}

#[derive(Debug, Clone)]
struct WaitInfo {
    res: Res,
    mode: LockMode,
}

/// Per-transaction bookkeeping (one entry per live transaction, stored in
/// a transaction shard; written only by the owning thread, read by the
/// deadlock detector and the status surfaces).
#[derive(Debug, Default)]
struct TxnInfo {
    /// Every held resource with its mode.
    held: HashMap<Res, LockMode>,
    /// Fine-grained (row/key) lock counts per table, driving escalation.
    fine_counts: HashMap<TableId, usize>,
    /// Tables this transaction has escalated on; further fine-grained
    /// requests there are no-ops.
    escalated: HashMap<TableId, LockMode>,
    /// Resources granted in a mode cursor stability gives back at statement
    /// end (see [`released_at_statement_end`]), so that release need not
    /// walk `held`. An entry may be stale — upgraded, escalated away — and
    /// is checked against `held` when used.
    shared: Vec<Res>,
    /// The pending blocked request, while waiting.
    waiting: Option<WaitInfo>,
    /// Current SQL (for deadlock forensics), shared with the bound
    /// statement; dies with the entry at commit/abort, so the map cannot
    /// grow across transactions.
    sql: Option<Arc<str>>,
}

/// Does cursor stability release a lock of this mode on this resource when
/// its statement ends? Row and key S locks and the table IS lock; a table S
/// lock (an escalated read) stays to commit.
fn released_at_statement_end(res: &Res, mode: LockMode) -> bool {
    match res {
        Res::Table(_) => mode == LockMode::IS,
        _ => mode.is_shared_only(),
    }
}

/// One resource shard: a slice of the lock table plus the condvar its
/// waiters park on and its contention counters.
struct ResShard {
    state: Mutex<HashMap<Res, LockState>>,
    cv: Condvar,
    /// Lock requests routed to this shard.
    requests: AtomicU64,
    /// Requests that enqueued (found the resource busy).
    contended: AtomicU64,
}

impl Default for ResShard {
    fn default() -> Self {
        ResShard {
            state: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            requests: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }
}

/// Per-shard contention counters, exported through `render_metrics`.
#[derive(Debug, Clone, Copy)]
pub struct LockShardStat {
    /// Lock requests routed to the shard.
    pub requests: u64,
    /// Requests that had to enqueue behind an incompatible holder/waiter.
    pub contended: u64,
}

/// Can `txn` be granted `mode` on the resource right now, given one
/// shard's state? `ticket` is `None` for conversions (which jump the
/// queue) and for first-touch probes.
fn can_grant(
    map: &HashMap<Res, LockState>,
    res: &Res,
    txn: TxnId,
    mode: LockMode,
    ticket: Option<u64>,
) -> bool {
    let Some(state) = map.get(res) else { return true };
    for g in &state.granted {
        if g.txn != txn && !g.mode.compatible(mode) {
            return false;
        }
    }
    if let Some(ticket) = ticket {
        // FIFO fairness: an earlier waiter with an incompatible mode
        // blocks us even if the granted set would admit us.
        for w in &state.waiters {
            if w.ticket >= ticket || w.txn == txn {
                continue;
            }
            if !w.mode.compatible(mode) {
                return false;
            }
        }
    }
    true
}

/// Add (or upgrade) a grant in one shard. Returns `(newly, effective)`:
/// whether a new grant entry was created (drives the global lock count)
/// and the mode now held.
fn grant_in(
    map: &mut HashMap<Res, LockState>,
    res: &Res,
    txn: TxnId,
    mode: LockMode,
) -> (bool, LockMode) {
    let state = map.entry(res.clone()).or_default();
    if let Some(g) = state.granted.iter_mut().find(|g| g.txn == txn) {
        g.mode = g.mode.supremum(mode);
        (false, g.mode)
    } else {
        state.granted.push(Grant { txn, mode });
        (true, mode)
    }
}

/// Remove `txn`'s grant on `res` in one shard; prunes empty entries.
/// Returns whether a grant was actually removed.
fn release_in(map: &mut HashMap<Res, LockState>, txn: TxnId, res: &Res) -> bool {
    if let Some(state) = map.get_mut(res) {
        let before = state.granted.len();
        state.granted.retain(|g| g.txn != txn);
        let removed = state.granted.len() < before;
        if state.granted.is_empty() && state.waiters.is_empty() {
            map.remove(res);
        }
        removed
    } else {
        false
    }
}

/// Drop `txn` from `res`'s wait queue in one shard.
fn unqueue_in(map: &mut HashMap<Res, LockState>, txn: TxnId, res: &Res) {
    if let Some(state) = map.get_mut(res) {
        state.waiters.retain(|w| w.txn != txn);
        if state.granted.is_empty() && state.waiters.is_empty() {
            map.remove(res);
        }
    }
}

/// The lock manager. One instance per database; shared by all sessions.
pub struct LockManager {
    /// Hash-sharded lock table (power-of-two length).
    shards: Vec<ResShard>,
    /// Per-transaction bookkeeping, hashed by transaction id.
    txns: Vec<Mutex<HashMap<TxnId, TxnInfo>>>,
    /// Transactions chosen as deadlock victims; they abort on next wake.
    /// Touched only on the deadlock path and per wait-loop wake, never on
    /// the grant fast path.
    victims: Mutex<HashMap<TxnId, String>>,
    metrics: LockMetrics,
    // Time spent blocked waiting for a lock, in microseconds.
    wait_hist: obs::Histogram,
    /// Lock timeout in nanoseconds (atomic: read on every wait path).
    timeout_nanos: AtomicU64,
    /// Escalation threshold; `usize::MAX` means disabled.
    escalation_threshold: AtomicUsize,
    lock_list_capacity: usize,
    /// Grants outstanding across all shards (lock-list pressure).
    total_locks: AtomicUsize,
    next_ticket: AtomicU64,
    deadlock_detection: bool,
    /// Recent [`DeadlockReport`]s, newest last (bounded).
    deadlock_log: Mutex<VecDeque<DeadlockReport>>,
}

impl LockManager {
    /// Build a lock manager from configuration with the default shard
    /// count (16).
    pub fn new(
        timeout: Duration,
        escalation_threshold: Option<usize>,
        lock_list_capacity: usize,
        deadlock_detection: bool,
    ) -> LockManager {
        Self::with_shards(timeout, escalation_threshold, lock_list_capacity, deadlock_detection, 16)
    }

    /// Build a lock manager with an explicit shard count (rounded up to a
    /// power of two; `1` degenerates to a single global lock table).
    pub fn with_shards(
        timeout: Duration,
        escalation_threshold: Option<usize>,
        lock_list_capacity: usize,
        deadlock_detection: bool,
        shards: usize,
    ) -> LockManager {
        let n = shards.max(1).next_power_of_two();
        LockManager {
            shards: (0..n).map(|_| ResShard::default()).collect(),
            txns: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            victims: Mutex::new(HashMap::new()),
            metrics: LockMetrics::default(),
            wait_hist: obs::Histogram::new(),
            timeout_nanos: AtomicU64::new(timeout.as_nanos() as u64),
            escalation_threshold: AtomicUsize::new(escalation_threshold.unwrap_or(usize::MAX)),
            lock_list_capacity,
            total_locks: AtomicUsize::new(0),
            next_ticket: AtomicU64::new(0),
            deadlock_detection,
            deadlock_log: Mutex::new(VecDeque::new()),
        }
    }

    fn shard_of(&self, res: &Res) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        res.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    fn txn_shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, TxnInfo>> {
        &self.txns[(txn.0 as usize) & (self.txns.len() - 1)]
    }

    /// Read a value out of `txn`'s bookkeeping entry (None if absent).
    fn with_txn<R>(&self, txn: TxnId, f: impl FnOnce(&TxnInfo) -> R) -> Option<R> {
        self.txn_shard(txn).lock().get(&txn).map(f)
    }

    /// Mutate `txn`'s bookkeeping entry, creating it if needed.
    fn with_txn_mut<R>(&self, txn: TxnId, f: impl FnOnce(&mut TxnInfo) -> R) -> R {
        f(self.txn_shard(txn).lock().entry(txn).or_default())
    }

    fn timeout(&self) -> Duration {
        Duration::from_nanos(self.timeout_nanos.load(AtomicOrdering::Relaxed))
    }

    fn threshold(&self) -> Option<usize> {
        match self.escalation_threshold.load(AtomicOrdering::Relaxed) {
            usize::MAX => None,
            t => Some(t),
        }
    }

    /// Register the SQL a transaction is currently running (overwritten
    /// per statement, cleared on release). Feeds [`DeadlockReport`]s.
    pub fn set_current_sql(&self, txn: TxnId, sql: &Arc<str>) {
        self.with_txn_mut(txn, |t| t.sql = Some(sql.clone()));
    }

    /// Recent deadlock reports, oldest first (bounded at
    /// [`DEADLOCK_LOG_CAPACITY`]).
    pub fn recent_deadlocks(&self) -> Vec<DeadlockReport> {
        self.deadlock_log.lock().iter().cloned().collect()
    }

    /// Number of live per-transaction bookkeeping entries (diagnostics;
    /// the regression tests assert this does not grow across short
    /// transactions — SQL text and held sets die with the entry).
    pub fn tracked_txns(&self) -> usize {
        self.txns.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of resource shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard request/contention counters, in shard order.
    pub fn shard_stats(&self) -> Vec<LockShardStat> {
        self.shards
            .iter()
            .map(|s| LockShardStat {
                requests: s.requests.load(AtomicOrdering::Relaxed),
                contended: s.contended.load(AtomicOrdering::Relaxed),
            })
            .collect()
    }

    /// One-line-per-item summary of the live lock table: resource count,
    /// grants, waiters, and per-transaction held totals. The status
    /// surfaces (`dlfmtop`) render this.
    pub fn summary_text(&self) -> String {
        use std::fmt::Write;
        let mut resources = 0usize;
        let mut waiters = 0usize;
        for s in &self.shards {
            let map = s.state.lock();
            resources += map.len();
            waiters += map.values().map(|s| s.waiters.len()).sum::<usize>();
        }
        let mut txns: Vec<(TxnId, usize, Option<WaitInfo>)> = Vec::new();
        for shard in &self.txns {
            let map = shard.lock();
            for (t, info) in map.iter() {
                txns.push((*t, info.held.len(), info.waiting.clone()));
            }
        }
        txns.sort_by_key(|(t, _, _)| t.0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lock table: {} grants on {} resources, {} waiting, {} txns",
            self.total_locks.load(AtomicOrdering::Relaxed),
            resources,
            waiters,
            txns.len()
        );
        for (t, held, waiting) in txns {
            let wait = waiting
                .map(|w| format!(", waiting for {:?} on {}", w.mode, w.res))
                .unwrap_or_default();
            let _ = writeln!(out, "  txn{}: {held} held{wait}", t.0);
        }
        out
    }

    /// Exported counters.
    pub fn metrics(&self) -> &LockMetrics {
        &self.metrics
    }

    /// Histogram of time spent blocked waiting for locks (microseconds).
    pub fn wait_hist(&self) -> &obs::Histogram {
        &self.wait_hist
    }

    /// Change the lock timeout at runtime (used by the timeout-sweep bench).
    pub fn set_timeout(&self, d: Duration) {
        self.timeout_nanos.store(d.as_nanos() as u64, AtomicOrdering::Relaxed);
    }

    /// Change the escalation threshold at runtime.
    pub fn set_escalation_threshold(&self, t: Option<usize>) {
        self.escalation_threshold.store(t.unwrap_or(usize::MAX), AtomicOrdering::Relaxed);
    }

    /// Number of locks currently held by `txn`.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.with_txn(txn, |t| t.held.len()).unwrap_or(0)
    }

    /// Mode currently held by `txn` on `res`, if any.
    pub fn held_mode(&self, txn: TxnId, res: &Res) -> Option<LockMode> {
        self.with_txn(txn, |t| t.held.get(res).copied()).flatten()
    }

    /// Record a grant in the holder's bookkeeping and, when a fine-grained
    /// grant takes the transaction over the per-table threshold, escalate to
    /// a table lock in the strongest fine-grained mode held there.
    fn record_held(&self, txn: TxnId, res: &Res, effective: LockMode) -> DbResult<()> {
        let threshold = self.threshold();
        let escalate_in = self.with_txn_mut(txn, |t| {
            let newly = t.held.insert(res.clone(), effective).is_none();
            if newly && released_at_statement_end(res, effective) {
                t.shared.push(res.clone());
            }
            if !res.is_fine_grained() {
                return None;
            }
            let table = res.table();
            let count = t.fine_counts.entry(table).or_insert(0);
            *count += usize::from(newly);
            let over =
                threshold.is_some_and(|max| *count > max) && !t.escalated.contains_key(&table);
            over.then(|| {
                let wants_x = t
                    .held
                    .iter()
                    .any(|(r, m)| r.is_fine_grained() && r.table() == table && *m == LockMode::X);
                if wants_x {
                    LockMode::X
                } else {
                    LockMode::S
                }
            })
        });
        match escalate_in {
            Some(mode) => self.escalate(txn, res.table(), mode),
            None => Ok(()),
        }
    }

    /// Transactions `txn` is directly waiting on, from a point-in-time
    /// read of its pending request and the one resource shard involved.
    fn blockers(&self, txn: TxnId) -> Vec<TxnId> {
        let Some(Some(info)) = self.with_txn(txn, |t| t.waiting.clone()) else {
            return Vec::new();
        };
        let map = self.shards[self.shard_of(&info.res)].state.lock();
        let Some(state) = map.get(&info.res) else { return Vec::new() };
        let my_ticket =
            state.waiters.iter().find(|w| w.txn == txn).map(|w| (w.ticket, w.is_conversion));
        let mut out = Vec::new();
        for g in &state.granted {
            if g.txn != txn && !g.mode.compatible(info.mode) {
                out.push(g.txn);
            }
        }
        if let Some((ticket, is_conversion)) = my_ticket {
            if !is_conversion {
                for w in &state.waiters {
                    if w.txn != txn && w.ticket < ticket && !w.mode.compatible(info.mode) {
                        out.push(w.txn);
                    }
                }
            }
        }
        out
    }

    /// Find a cycle through `start` in the wait-for graph, walking a
    /// cross-shard snapshot (each edge set read under its own shard lock).
    fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut path = vec![start];
        let mut on_path: HashSet<TxnId> = [start].into_iter().collect();
        let mut visited: HashSet<TxnId> = HashSet::new();
        self.dfs(start, start, &mut path, &mut on_path, &mut visited)
    }

    fn dfs(
        &self,
        start: TxnId,
        node: TxnId,
        path: &mut Vec<TxnId>,
        on_path: &mut HashSet<TxnId>,
        visited: &mut HashSet<TxnId>,
    ) -> Option<Vec<TxnId>> {
        for next in self.blockers(node) {
            if next == start {
                return Some(path.clone());
            }
            if on_path.contains(&next) || visited.contains(&next) {
                continue;
            }
            path.push(next);
            on_path.insert(next);
            if let Some(c) = self.dfs(start, next, path, on_path, visited) {
                return Some(c);
            }
            on_path.remove(&next);
            path.pop();
            visited.insert(next);
        }
        None
    }

    /// Build the forensic report for a freshly detected cycle, journal it,
    /// and append it to the bounded deadlock log.
    fn capture_deadlock(&self, cycle: &[TxnId], victim: TxnId) {
        let parties: Vec<DeadlockParty> = cycle
            .iter()
            .map(|t| {
                self.with_txn(*t, |info| {
                    let requested = info
                        .waiting
                        .as_ref()
                        .map(|w| format!("{:?} on {}", w.mode, w.res))
                        .unwrap_or_else(|| "(not waiting)".into());
                    let mut held: Vec<String> =
                        info.held.iter().map(|(r, m)| format!("{m:?} on {r}")).collect();
                    held.sort();
                    let sql = info.sql.as_deref().map(str::to_string);
                    DeadlockParty { txn: t.0, requested, held, sql }
                })
                .unwrap_or(DeadlockParty {
                    txn: t.0,
                    requested: "(not waiting)".into(),
                    held: Vec::new(),
                    sql: None,
                })
            })
            .collect();
        let report = DeadlockReport {
            cycle: cycle.iter().map(|t| t.0).collect(),
            victim: victim.0,
            parties,
            micros: journal::now_micros(),
        };
        journal::record(JournalKind::Deadlock, victim.0 as i64, || {
            format!("{}, victim txn{}", report.cycle_desc(), report.victim)
        });
        let mut log = self.deadlock_log.lock();
        if log.len() >= DEADLOCK_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(report);
    }

    /// Mark `victim` for abort and wake it. The shard lock+release before
    /// the notify guarantees the victim is either parked (and gets the
    /// notify) or has not yet re-checked the victims map (and will see the
    /// entry) — no lost wakeup.
    fn victimize(&self, victim: TxnId, desc: String) {
        self.victims.lock().insert(victim, desc);
        if let Some(Some(info)) = self.with_txn(victim, |t| t.waiting.clone()) {
            let shard = &self.shards[self.shard_of(&info.res)];
            drop(shard.state.lock());
            shard.cv.notify_all();
        }
    }

    /// Acquire `mode` on `res` for `txn`, blocking if necessary.
    ///
    /// Returns `Deadlock` if this transaction is chosen as a victim and
    /// `LockTimeout` if the configured timeout elapses. In both cases the
    /// caller must roll the transaction back.
    pub fn lock(&self, txn: TxnId, res: Res, mode: LockMode) -> DbResult<()> {
        let timeout = self.timeout();

        // Covered by a prior escalation to table granularity, or already
        // held in a covering mode? (One look at the bookkeeping for both.)
        let (escalated, existing) = self
            .with_txn(txn, |t| {
                let escalated =
                    if res.is_fine_grained() { t.escalated.get(&res.table()) } else { None };
                (escalated.copied(), t.held.get(&res).copied())
            })
            .unwrap_or((None, None));
        let needed = if mode == LockMode::X { LockMode::X } else { LockMode::S };
        if escalated.is_some_and(|table_mode| table_mode.covers(needed))
            || existing.is_some_and(|held| held.covers(mode))
        {
            return Ok(());
        }
        let is_conversion = existing.is_some();
        let target = existing.map(|h| h.supremum(mode)).unwrap_or(mode);

        // Lock-list pressure: try to escalate this txn before refusing. Only
        // a fine-grained request escalates: the table lock the escalation
        // asks for must not escalate again.
        if !is_conversion
            && res.is_fine_grained()
            && self.total_locks.load(AtomicOrdering::Relaxed) >= self.lock_list_capacity
        {
            let table = res.table();
            self.escalate(txn, table, mode)?;
            let held_now = self.total_locks.load(AtomicOrdering::Relaxed);
            if held_now >= self.lock_list_capacity {
                return Err(DbError::LockListFull {
                    held: held_now,
                    capacity: self.lock_list_capacity,
                });
            }
            // Escalation covers the fine-grained request entirely.
            return Ok(());
        }

        let shard = &self.shards[self.shard_of(&res)];
        shard.requests.fetch_add(1, AtomicOrdering::Relaxed);
        let ticket;
        {
            let mut map = shard.state.lock();
            // Immediate grant: nobody queued, every other holder compatible.
            let free = map.get(&res).is_none_or(|state| {
                state.waiters.is_empty()
                    && state.granted.iter().all(|g| g.txn == txn || g.mode.compatible(target))
            });
            if free {
                let (newly, effective) = grant_in(&mut map, &res, txn, target);
                drop(map);
                if newly {
                    self.total_locks.fetch_add(1, AtomicOrdering::Relaxed);
                }
                LockMetrics::bump(&self.metrics.immediate_grants);
                LockMetrics::bump(&self.metrics.acquisitions);
                return self.record_held(txn, &res, effective);
            }

            // Enqueue while the shard is still held, so no release slips
            // between the failed grant check and the queue insert.
            shard.contended.fetch_add(1, AtomicOrdering::Relaxed);
            LockMetrics::bump(&self.metrics.waits);
            ticket = self.next_ticket.fetch_add(1, AtomicOrdering::Relaxed) + 1;
            let state = map.entry(res.clone()).or_default();
            let w = Waiter { txn, mode: target, ticket, is_conversion };
            if is_conversion {
                state.waiters.push_front(w);
            } else {
                state.waiters.push_back(w);
            }
        }
        self.with_txn_mut(txn, |t| t.waiting = Some(WaitInfo { res: res.clone(), mode: target }));
        journal::record(JournalKind::LockWait, txn.0 as i64, || {
            format!("txn{} waits for {:?} on {}", txn.0, target, res)
        });

        // Deadlock check now that the graph has a new edge set.
        if self.deadlock_detection {
            if let Some(cycle) = self.find_cycle(txn) {
                let victim = cycle.iter().copied().max_by_key(|t| t.0).unwrap_or(txn);
                // Capture the forensic report while the cycle is still live
                // in the lock table (held/requested sets are exact here).
                self.capture_deadlock(&cycle, victim);
                let desc =
                    cycle.iter().map(|t| format!("txn{}", t.0)).collect::<Vec<_>>().join(" -> ");
                if victim == txn {
                    let mut map = shard.state.lock();
                    unqueue_in(&mut map, txn, &res);
                    drop(map);
                    self.with_txn_mut(txn, |t| t.waiting = None);
                    LockMetrics::bump(&self.metrics.deadlocks);
                    shard.cv.notify_all();
                    return Err(DbError::Deadlock { cycle: desc });
                }
                self.victimize(victim, desc);
            }
        }

        let deadline = Instant::now() + timeout;
        let started = Instant::now();
        let mut map = shard.state.lock();
        loop {
            if let Some(desc) = self.victims.lock().remove(&txn) {
                unqueue_in(&mut map, txn, &res);
                drop(map);
                self.with_txn_mut(txn, |t| t.waiting = None);
                LockMetrics::bump(&self.metrics.deadlocks);
                shard.cv.notify_all();
                self.wait_hist.record_micros(started.elapsed());
                add_stmt_wait(started.elapsed());
                return Err(DbError::Deadlock { cycle: desc });
            }
            let ticket_opt = if is_conversion { None } else { Some(ticket) };
            if can_grant(&map, &res, txn, target, ticket_opt) {
                unqueue_in(&mut map, txn, &res);
                let (newly, effective) = grant_in(&mut map, &res, txn, target);
                drop(map);
                if newly {
                    self.total_locks.fetch_add(1, AtomicOrdering::Relaxed);
                }
                self.with_txn_mut(txn, |t| t.waiting = None);
                LockMetrics::bump(&self.metrics.acquisitions);
                shard.cv.notify_all();
                self.wait_hist.record_micros(started.elapsed());
                add_stmt_wait(started.elapsed());
                journal::record(JournalKind::LockGrant, txn.0 as i64, || {
                    format!(
                        "txn{} granted {:?} on {} after {}us",
                        txn.0,
                        target,
                        res,
                        started.elapsed().as_micros()
                    )
                });
                return self.record_held(txn, &res, effective);
            }
            if Instant::now() >= deadline {
                unqueue_in(&mut map, txn, &res);
                drop(map);
                self.with_txn_mut(txn, |t| t.waiting = None);
                LockMetrics::bump(&self.metrics.timeouts);
                shard.cv.notify_all();
                self.wait_hist.record_micros(started.elapsed());
                add_stmt_wait(started.elapsed());
                journal::record(JournalKind::LockTimeout, txn.0 as i64, || {
                    format!(
                        "txn{} timed out after {}ms waiting for {:?} on {}",
                        txn.0,
                        started.elapsed().as_millis(),
                        target,
                        res
                    )
                });
                return Err(DbError::LockTimeout {
                    resource: res.to_string(),
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
            let wait_result = shard.cv.wait_until(&mut map, deadline);
            if wait_result.timed_out() {
                // Loop once more to re-check victim/grant status before
                // reporting the timeout.
            }
        }
    }

    /// Escalate `txn`'s fine-grained locks on `table` to a single table lock.
    pub fn escalate(&self, txn: TxnId, table: TableId, mode: LockMode) -> DbResult<()> {
        let table_mode =
            if mode == LockMode::X || mode == LockMode::IX { LockMode::X } else { LockMode::S };
        self.lock(txn, Res::Table(table), table_mode)?;
        let fine: Vec<Res> = self
            .with_txn(txn, |t| {
                t.held
                    .keys()
                    .filter(|r| r.is_fine_grained() && r.table() == table)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        self.release_batch(txn, &fine);
        self.with_txn_mut(txn, |t| {
            t.escalated.insert(table, table_mode);
            t.fine_counts.insert(table, 0);
        });
        LockMetrics::bump(&self.metrics.escalations);
        journal::record(JournalKind::LockEscalation, txn.0 as i64, || {
            format!("txn{} escalated to {:?} on table#{}", txn.0, table_mode, table.0)
        });
        Ok(())
    }

    /// Release `txn`'s grants on `resources` with one pass per touched
    /// shard. The caller maintains the transaction's own bookkeeping.
    fn release_grants<'a>(&self, txn: TxnId, resources: impl Iterator<Item = &'a Res>) {
        let mut by_shard: Vec<(usize, &Res)> = resources.map(|r| (self.shard_of(r), r)).collect();
        by_shard.sort_unstable_by_key(|(shard, _)| *shard);
        let mut removed = 0usize;
        for group in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[group[0].0];
            {
                let mut map = shard.state.lock();
                removed += group.iter().filter(|(_, r)| release_in(&mut map, txn, r)).count();
            }
            shard.cv.notify_all();
        }
        if removed > 0 {
            // Saturating: a crash's `clear_all` may zero the count between
            // this release's removal and its decrement, and a wrapped count
            // would read as a full lock list for good.
            let _ = self.total_locks.fetch_update(
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
                |n| Some(n.saturating_sub(removed)),
            );
        }
    }

    /// Release a set of resources for `txn`, then drop them from its
    /// bookkeeping.
    fn release_batch(&self, txn: TxnId, resources: &[Res]) {
        self.release_grants(txn, resources.iter());
        self.with_txn_mut(txn, |t| {
            for r in resources {
                if t.held.remove(r).is_some() && r.is_fine_grained() {
                    if let Some(c) = t.fine_counts.get_mut(&r.table()) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
        });
    }

    /// Release every lock held by `txn` (commit/abort): one pass per
    /// touched shard. Per-transaction state — including the registered
    /// SQL — dies here.
    pub fn release_all(&self, txn: TxnId) {
        let info = self.txn_shard(txn).lock().remove(&txn);
        self.victims.lock().remove(&txn);
        let Some(info) = info else { return };
        self.release_grants(txn, info.held.keys());
    }

    /// Release `txn`'s shared-only locks (cursor stability at statement end).
    pub fn release_shared(&self, txn: TxnId) {
        // The list, minus entries upgraded or escalated away since; nothing
        // to do (and no bookkeeping entry created) for a statement that
        // took no read locks.
        let mut shared = {
            let mut txns = self.txn_shard(txn).lock();
            let Some(t) = txns.get_mut(&txn) else { return };
            if t.shared.is_empty() {
                return;
            }
            let mut shared = std::mem::take(&mut t.shared);
            shared.retain(|r| t.held.get(r).is_some_and(|m| released_at_statement_end(r, *m)));
            shared
        };
        self.release_batch(txn, &shared);
        // Hand the buffer back for the next statement.
        shared.clear();
        self.with_txn_mut(txn, |t| t.shared = shared);
    }

    /// Total locks currently held across all transactions.
    pub fn total_held(&self) -> usize {
        self.total_locks.load(AtomicOrdering::Relaxed)
    }

    /// Drop all lock state (crash simulation): locks are volatile, so a
    /// restart begins with an empty lock table. Blocked waiters are woken
    /// and re-evaluate; victims of the wipe simply find their resources
    /// free.
    pub fn clear_all(&self) {
        for shard in &self.shards {
            shard.state.lock().clear();
            shard.cv.notify_all();
        }
        for shard in &self.txns {
            shard.lock().clear();
        }
        self.victims.lock().clear();
        self.total_locks.store(0, AtomicOrdering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn lm(timeout_ms: u64) -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_millis(timeout_ms), None, 1_000_000, true))
    }

    const T: TableId = TableId(1);

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
        assert!(SIX.compatible(IS));
        assert!(!SIX.compatible(SIX));
    }

    #[test]
    fn supremum_lattice() {
        use LockMode::*;
        assert_eq!(S.supremum(IX), SIX);
        assert_eq!(IS.supremum(IX), IX);
        assert_eq!(S.supremum(X), X);
        assert_eq!(SIX.supremum(S), SIX);
        assert!(X.covers(S));
        assert!(SIX.covers(IX));
        assert!(!S.covers(IX));
    }

    #[test]
    fn a_table_lock_under_lock_list_pressure_does_not_escalate_again() {
        // Regression: under pressure every request escalated, including the
        // table lock the escalation itself asks for — an endless recursion
        // that overflowed the requesting thread's stack.
        let lm = LockManager::new(Duration::from_millis(100), None, 2, true);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::S).unwrap();
        lm.lock(TxnId(1), Res::Row(T, 2), LockMode::S).unwrap();
        lm.lock(TxnId(2), Res::Table(TableId(2)), LockMode::S).unwrap();
        // A row request under pressure escalates once, to its table; that
        // frees nothing of txn 2's here, so the list is full.
        let err = lm.lock(TxnId(2), Res::Row(T, 3), LockMode::S).unwrap_err();
        assert!(matches!(err, DbError::LockListFull { .. }), "got {err:?}");
    }

    #[test]
    fn a_release_racing_a_crash_reset_does_not_wrap_the_lock_count() {
        let lm = lm(100);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        // A crash's `clear_all` zeroes the count after this grant's removal
        // and before its decrement: emulate that interleaving.
        lm.total_locks.store(0, AtomicOrdering::Relaxed);
        lm.release_all(TxnId(1));
        assert_eq!(lm.total_held(), 0, "the count saturates instead of wrapping");
        lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X).unwrap();
        assert_eq!(lm.held_count(TxnId(2)), 1, "a wrapped count would read as a full lock list");
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = lm(100);
        lm.lock(TxnId(1), Res::Row(T, 5), LockMode::S).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 5), LockMode::S).unwrap();
        // One resource, two grants: total_held counts grants.
        assert_eq!(lm.total_held(), 2);
        assert_eq!(lm.held_count(TxnId(1)), 1);
        assert_eq!(lm.held_count(TxnId(2)), 1);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = lm(5_000);
        lm.lock(TxnId(1), Res::Row(T, 5), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(2), Res::Row(T, 5), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished());
        lm.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn lock_timeout_fires() {
        let lm = lm(80);
        lm.lock(TxnId(1), Res::Row(T, 9), LockMode::X).unwrap();
        let err = lm.lock(TxnId(2), Res::Row(T, 9), LockMode::X).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        assert_eq!(lm.metrics().snapshot().timeouts, 1);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = lm(100);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::S).unwrap();
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::S).unwrap();
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        assert_eq!(lm.held_mode(TxnId(1), &Res::Row(T, 1)), Some(LockMode::X));
    }

    #[test]
    fn deadlock_detected_and_youngest_aborted() {
        let lm = lm(10_000);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(1), Res::Row(T, 2), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        // txn2 closes the cycle; it is the youngest so it is the victim.
        let err = lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X).unwrap_err();
        assert!(matches!(err, DbError::Deadlock { .. }), "got {err:?}");
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        assert_eq!(lm.metrics().snapshot().deadlocks, 1);
    }

    #[test]
    fn deadlock_victim_can_be_the_other_waiter() {
        // txn3 waits first; txn1 closes the cycle. txn3 is younger (larger
        // id), so it is victimised *while blocked*, releases its locks in
        // the spawned thread, and the older txn1 proceeds.
        let lm = lm(10_000);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        lm.lock(TxnId(3), Res::Row(T, 2), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let r = lm2.lock(TxnId(3), Res::Row(T, 1), LockMode::X);
            lm2.release_all(TxnId(3));
            r
        });
        thread::sleep(Duration::from_millis(50));
        let r1 = lm.lock(TxnId(1), Res::Row(T, 2), LockMode::X);
        let r3 = h.join().unwrap();
        assert!(
            matches!(r3, Err(DbError::Deadlock { .. })),
            "younger txn3 should be the victim: {r3:?}"
        );
        assert!(r1.is_ok(), "older txn1 should survive: {r1:?}");
    }

    #[test]
    fn conversion_deadlock_detected() {
        // Two S holders both upgrading to X: classic conversion deadlock.
        let lm = lm(10_000);
        lm.lock(TxnId(1), Res::Row(T, 7), LockMode::S).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 7), LockMode::S).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(1), Res::Row(T, 7), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        let r2 = lm.lock(TxnId(2), Res::Row(T, 7), LockMode::X);
        assert!(r2.is_err(), "conversion deadlock must victimize txn2");
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn escalation_at_threshold() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(100), Some(5), 1_000_000, true));
        for i in 0..6 {
            lm.lock(TxnId(1), Res::Row(T, i), LockMode::X).unwrap();
        }
        // After crossing the threshold the txn holds a table X lock and the
        // row locks are gone.
        assert_eq!(lm.held_mode(TxnId(1), &Res::Table(T)), Some(LockMode::X));
        assert_eq!(lm.metrics().snapshot().escalations, 1);
        // Another txn is now blocked at table granularity even for a row the
        // first txn never touched.
        let err = lm.lock(TxnId(2), Res::Row(T, 999), LockMode::X);
        // Row lock itself is grantable, but the IX table lock its caller
        // would take is not — emulate by requesting the table IX directly.
        let err2 = lm.lock(TxnId(2), Res::Table(T), LockMode::IX).unwrap_err();
        assert!(matches!(err2, DbError::LockTimeout { .. }));
        drop(err);
    }

    #[test]
    fn escalation_disabled_means_no_table_lock() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(100), None, 1_000_000, true));
        for i in 0..100 {
            lm.lock(TxnId(1), Res::Row(T, i), LockMode::X).unwrap();
        }
        assert_eq!(lm.held_mode(TxnId(1), &Res::Table(T)), None);
        assert_eq!(lm.metrics().snapshot().escalations, 0);
    }

    #[test]
    fn release_shared_keeps_exclusive() {
        let lm = lm(100);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::S).unwrap();
        lm.lock(TxnId(1), Res::Row(T, 2), LockMode::X).unwrap();
        lm.release_shared(TxnId(1));
        assert_eq!(lm.held_mode(TxnId(1), &Res::Row(T, 1)), None);
        assert_eq!(lm.held_mode(TxnId(1), &Res::Row(T, 2)), Some(LockMode::X));
    }

    #[test]
    fn fifo_fairness_writer_not_starved() {
        let lm = lm(5_000);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::S).unwrap();
        let lm_w = lm.clone();
        let writer = thread::spawn(move || lm_w.lock(TxnId(2), Res::Row(T, 1), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        // A new reader must queue behind the waiting writer.
        let lm_r = lm.clone();
        let reader = thread::spawn(move || lm_r.lock(TxnId(3), Res::Row(T, 1), LockMode::S));
        thread::sleep(Duration::from_millis(50));
        assert!(!writer.is_finished());
        assert!(!reader.is_finished(), "reader must not jump the writer in queue");
        lm.release_all(TxnId(1));
        writer.join().unwrap().unwrap();
        lm.release_all(TxnId(2));
        reader.join().unwrap().unwrap();
    }

    #[test]
    fn key_locks_are_per_index() {
        let lm = lm(100);
        let k = Key::new(&[crate::value::Value::str("f1")]);
        lm.lock(TxnId(1), Res::Key(T, IndexId(1), k.clone()), LockMode::X).unwrap();
        // Same key value on a different index is a different resource.
        lm.lock(TxnId(2), Res::Key(T, IndexId(2), k.clone()), LockMode::X).unwrap();
        // Same index and key conflicts.
        assert!(lm.lock(TxnId(2), Res::Key(T, IndexId(1), k), LockMode::X).is_err());
    }

    #[test]
    fn three_txn_deadlock_report_names_cycle_and_victim() {
        // t1 holds row1 and wants row2; t2 holds row2 and wants row3;
        // t3 holds row3 and closes the cycle wanting row1. The detector
        // runs on t3's enqueue, so t3 (also the youngest) is the victim.
        let lm = lm(10_000);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X).unwrap();
        lm.lock(TxnId(3), Res::Row(T, 3), LockMode::X).unwrap();
        lm.set_current_sql(TxnId(3), &"UPDATE t SET n = 3 WHERE id = 1".into());
        let lm_a = lm.clone();
        let h1 = thread::spawn(move || lm_a.lock(TxnId(1), Res::Row(T, 2), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        let lm_b = lm.clone();
        let h2 = thread::spawn(move || lm_b.lock(TxnId(2), Res::Row(T, 3), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        let err = lm.lock(TxnId(3), Res::Row(T, 1), LockMode::X).unwrap_err();
        assert!(matches!(err, DbError::Deadlock { .. }), "got {err:?}");
        lm.release_all(TxnId(3));
        h2.join().unwrap().unwrap();
        lm.release_all(TxnId(2));
        h1.join().unwrap().unwrap();

        let reports = lm.recent_deadlocks();
        assert_eq!(reports.len(), 1, "exactly one deadlock captured");
        let r = &reports[0];
        assert_eq!(r.victim, 3, "youngest txn in the cycle is the victim");
        let mut members = r.cycle.clone();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 3], "full three-party cycle: {:?}", r.cycle);
        assert_eq!(r.parties.len(), 3);
        let victim_party = r.parties.iter().find(|p| p.txn == 3).unwrap();
        assert!(
            victim_party.requested.contains("row 1 of table#1"),
            "victim's blocked request is named: {}",
            victim_party.requested
        );
        assert!(
            victim_party.held.iter().any(|h| h.contains("row 3 of table#1")),
            "victim's held locks are listed: {:?}",
            victim_party.held
        );
        assert_eq!(victim_party.sql.as_deref(), Some("UPDATE t SET n = 3 WHERE id = 1"));
        let rendered = r.render();
        assert!(rendered.contains("victim txn3"), "{rendered}");
        assert!(r.cycle_desc().starts_with("txn"), "{}", r.cycle_desc());
    }

    #[test]
    fn stmt_wait_accumulator_tracks_blocking() {
        let lm = lm(5_000);
        let _ = take_stmt_lock_wait();
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        assert_eq!(take_stmt_lock_wait(), 0, "immediate grants add no wait");
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let _ = take_stmt_lock_wait();
            lm2.lock(TxnId(2), Res::Row(T, 1), LockMode::X).unwrap();
            take_stmt_lock_wait()
        });
        thread::sleep(Duration::from_millis(60));
        lm.release_all(TxnId(1));
        let waited = h.join().unwrap();
        assert!(waited >= 40_000, "blocked thread accumulated wait micros: {waited}");
    }

    #[test]
    fn timeout_only_mode_when_detection_disabled() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(150), None, 1_000_000, false));
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(1), Res::Row(T, 2), LockMode::X));
        thread::sleep(Duration::from_millis(30));
        let r2 = lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X);
        // Without detection, the cycle is broken only by timeouts.
        assert!(matches!(r2, Err(DbError::LockTimeout { .. })));
        lm.release_all(TxnId(2));
        let r1 = h.join().unwrap();
        assert!(r1.is_ok() || matches!(r1, Err(DbError::LockTimeout { .. })));
        assert_eq!(lm.metrics().snapshot().deadlocks, 0);
    }

    #[test]
    fn per_txn_state_pruned_across_short_txns() {
        // Regression (PR 8 satellite): the per-transaction map — which now
        // carries the registered SQL — must not grow across short
        // transactions; commit/abort/victim paths all remove the entry.
        let lm = lm(100);
        for i in 0..10_000u64 {
            let t = TxnId(i + 100);
            lm.set_current_sql(t, &"SELECT 1 -- short txn".into());
            lm.lock(t, Res::Row(T, i % 64), LockMode::S).unwrap();
            lm.release_all(t);
        }
        assert_eq!(lm.tracked_txns(), 0, "per-txn state (incl. SQL) must not leak");
        assert_eq!(lm.total_held(), 0);
    }

    #[test]
    fn victim_entry_pruned_on_release() {
        let lm = lm(10_000);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(1), Res::Row(T, 2), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        let _ = lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X).unwrap_err();
        lm.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.tracked_txns(), 0);
        assert!(lm.victims.lock().is_empty(), "victim markers die with the txn");
    }

    #[test]
    fn knobs_are_atomic_and_effective() {
        // Satellite: timeout/escalation-threshold are lock-free knobs.
        let lm = lm(5_000);
        lm.set_timeout(Duration::from_millis(40));
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        let started = Instant::now();
        let err = lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        assert!(started.elapsed() < Duration::from_secs(2), "new timeout applied");
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        lm.set_escalation_threshold(Some(2));
        for i in 0..3 {
            lm.lock(TxnId(9), Res::Row(T, i), LockMode::X).unwrap();
        }
        assert_eq!(lm.held_mode(TxnId(9), &Res::Table(T)), Some(LockMode::X));
        assert_eq!(lm.metrics().snapshot().escalations, 1);
    }

    /// Run one deterministic grant/deny/deadlock script and collect the
    /// outcome of every step.
    fn scripted_outcomes(shards: usize) -> Vec<String> {
        let lm = Arc::new(LockManager::with_shards(
            Duration::from_millis(150),
            Some(4),
            1_000_000,
            true,
            shards,
        ));
        let mut out = Vec::new();
        let label = |r: &DbResult<()>| match r {
            Ok(()) => "ok".to_string(),
            Err(DbError::LockTimeout { .. }) => "timeout".to_string(),
            Err(DbError::Deadlock { .. }) => "deadlock".to_string(),
            Err(e) => format!("other:{e:?}"),
        };
        // Plain grants and a shared/exclusive conflict.
        out.push(label(&lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X)));
        out.push(label(&lm.lock(TxnId(2), Res::Row(T, 2), LockMode::X)));
        out.push(label(&lm.lock(TxnId(2), Res::Row(T, 1), LockMode::S)));
        // Deadlock: t1 blocks on row2 in a thread, t2 closes the cycle.
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(TxnId(1), Res::Row(T, 2), LockMode::X));
        thread::sleep(Duration::from_millis(50));
        out.push(label(&lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X)));
        lm.release_all(TxnId(2));
        out.push(label(&h.join().unwrap()));
        lm.release_all(TxnId(1));
        // Escalation at the threshold, then table-level denial.
        for i in 0..5 {
            out.push(label(&lm.lock(TxnId(3), Res::Row(T, i), LockMode::X)));
        }
        out.push(format!("escalated={:?}", lm.held_mode(TxnId(3), &Res::Table(T))));
        out.push(label(&lm.lock(TxnId(4), Res::Table(T), LockMode::IX)));
        lm.release_all(TxnId(3));
        lm.release_all(TxnId(4));
        out.push(format!("held={}", lm.total_held()));
        out
    }

    #[test]
    fn shard_count_does_not_change_outcomes() {
        // Satellite: a single-shard table and an 8-shard table must produce
        // identical grant/deny/deadlock outcomes on a scripted interleaving.
        let single = scripted_outcomes(1);
        let sharded = scripted_outcomes(8);
        assert_eq!(single, sharded, "sharding must not change lock semantics");
        assert!(single.contains(&"deadlock".to_string()), "script exercises a deadlock");
        assert!(single.contains(&"timeout".to_string()), "script exercises a denial");
    }

    #[test]
    fn shard_stats_count_requests() {
        let lm = lm(100);
        lm.lock(TxnId(1), Res::Row(T, 1), LockMode::X).unwrap();
        let _ = lm.lock(TxnId(2), Res::Row(T, 1), LockMode::X);
        let stats = lm.shard_stats();
        assert_eq!(stats.len(), lm.shard_count());
        assert_eq!(stats.iter().map(|s| s.requests).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|s| s.contended).sum::<u64>(), 1);
    }
}
