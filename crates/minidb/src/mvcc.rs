//! Where row versions live: each heap slot holds its row's newest image and
//! its version chain the images the heap displaced; plus the snapshot
//! registry, the queue of history awaiting the GC watermark, and retirement.
//!
//! A plain read under MVCC resolves against a snapshot timestamp instead of
//! taking locks. A transaction end hands the history it left (chains and
//! superseded index entries) to this module, which drops it at once when no
//! other snapshot is open and otherwise queues it until the watermark — the
//! oldest active snapshot — passes its commit timestamp.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::Mutex;

use parking_lot::MutexGuard;

use crate::catalog::TableMeta;
use crate::schema::{IndexSchema, TableId};
use crate::storage::{Storage, TableData};
use crate::txn::{Txn, TxnId, UndoOp};
use crate::value::{Row, Value};

/// Stamp of an image a transaction displaced from its own uncommitted
/// write: no snapshot ever resolves to it.
pub const UNCOMMITTED: u64 = u64::MAX;

/// An image the heap displaced: the row as it was from commit timestamp
/// `ts` on (`None`: the row did not exist).
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp from which this image was current; `0` for an image
    /// every snapshot sees, [`UNCOMMITTED`] for a writer's own intermediate.
    pub ts: u64,
    /// Row image; `None` records a deletion (or "not yet inserted").
    pub row: Option<Row>,
}

/// History of one heap slot, kept only while someone may still need an
/// image older than the heap's, which holds the row's newest image. The
/// chain holds the images the heap displaced, oldest first: while a writer
/// holds the row, the entries it pushed are its undo records; once it
/// commits, the committed one is the version older snapshots read. This is
/// the rollback-segment shape: the undo log is the version store.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    /// Displaced images, oldest first: committed ones with strictly
    /// increasing `ts`, then the dirty writer's intermediates.
    pub older: Vec<Version>,
    /// Commit timestamp from which the heap image is current.
    pub head_ts: u64,
    /// Transaction currently holding the heap image dirty, if any.
    pub dirty_by: Option<u64>,
}

impl VersionChain {
    /// Position of the newest committed entry: while dirty, the image the
    /// writer displaced first.
    fn base(&self) -> usize {
        self.older.iter().rposition(|v| v.ts != UNCOMMITTED).unwrap_or(0)
    }

    /// Position of the oldest image a snapshot at or above `watermark` can
    /// resolve to.
    fn reachable(&self, watermark: u64) -> usize {
        self.older.iter().rposition(|v| v.ts <= watermark).unwrap_or(0)
    }
}

impl TableData {
    /// Writer `txn` puts `row` into the slot (`None` deletes it). The image
    /// it displaced moves onto the row's chain — that entry is the undo
    /// record; a row the transaction already holds pushes an uncommitted
    /// intermediate. Both change under one latch, so readers never see the
    /// new image without its history. Returns whether a row was displaced.
    pub fn write(&mut self, rowid: u64, txn: u64, row: Option<Row>) -> bool {
        let old = self.swap(rowid, row);
        let displaced = old.is_some();
        let chain = self.chains.entry(rowid).or_default();
        let ts = if chain.dirty_by == Some(txn) { UNCOMMITTED } else { chain.head_ts };
        chain.older.push(Version { ts, row: old });
        chain.dirty_by = Some(txn);
        displaced
    }

    /// Take back the newest write of `rowid`: its chain top returns to the
    /// heap. Returns the image undone, a copy of the one restored, and
    /// whether the row is clean again; `None` when there is nothing to undo.
    pub fn undo(&mut self, rowid: u64) -> Option<(Option<Row>, Option<Row>, bool)> {
        let chain = self.chains.get_mut(&rowid)?;
        let Version { ts, row } = chain.older.pop()?;
        let clean = ts != UNCOMMITTED;
        if clean {
            chain.dirty_by = None;
            chain.head_ts = ts;
        }
        let copy = row.clone();
        Some((self.swap(rowid, row), copy, clean))
    }

    /// Resolve the image of `rowid` visible to `snapshot`, counting chain
    /// versions examined into `scanned`. The own-writes rule: a row dirtied
    /// by `txn` itself reads from the heap.
    pub fn mvcc_visible(
        &self,
        rowid: u64,
        snapshot: u64,
        txn: u64,
        scanned: &mut u64,
    ) -> Option<&Row> {
        let heap = self.get(rowid);
        let Some(c) = self.chains.get(&rowid) else { return heap };
        if c.dirty_by == Some(txn) || (c.dirty_by.is_none() && c.head_ts <= snapshot) {
            return heap;
        }
        *scanned += c.older.len() as u64;
        c.older.iter().rev().find(|v| v.ts <= snapshot).and_then(|v| v.row.as_ref())
    }

    /// Publish `txn`'s writes of `rowid` at commit timestamp `ts`: the heap
    /// image is current from `ts` and the writer's intermediates go, after
    /// `displaced` has seen the heap image and each image the transaction
    /// displaced. `false` when `txn` holds no write here. Called under the
    /// commit-publish lock.
    pub fn mvcc_publish(
        &mut self,
        rowid: u64,
        txn: u64,
        ts: u64,
        mut displaced: impl FnMut(Option<&Row>, &Row),
    ) -> bool {
        let heap = self.rows.get(rowid as usize).and_then(|r| r.as_ref());
        let Some(c) = self.chains.get_mut(&rowid).filter(|c| c.dirty_by == Some(txn)) else {
            return false;
        };
        let base = c.base();
        c.older[base..].iter().filter_map(|v| v.row.as_ref()).for_each(|old| displaced(heap, old));
        c.older.truncate(base + 1);
        c.head_ts = ts;
        c.dirty_by = None;
        true
    }

    /// Does the heap image of `rowid`, or any version a snapshot at or above
    /// `watermark` can still resolve to, satisfy `pred`? `None` while an
    /// uncommitted writer holds the row.
    pub fn mvcc_any_image(
        &self,
        rowid: u64,
        watermark: u64,
        pred: impl Fn(&Row) -> bool,
    ) -> Option<bool> {
        let chain = self.chains.get(&rowid);
        if chain.is_some_and(|c| c.dirty_by.is_some()) {
            return None;
        }
        let older = chain.map_or(&[][..], |c| &c.older[c.reachable(watermark)..]);
        Some(
            self.get(rowid).is_some_and(&pred)
                || older.iter().any(|v| v.row.as_ref().is_some_and(&pred)),
        )
    }

    /// Drop the images of `rowid` no snapshot at or above `watermark` (the
    /// oldest active one) can reach, and the whole chain once every such
    /// snapshot resolves to the heap. A slot whose row is gone is free from
    /// then on, unless `hold`: its writer keeps the row's lock past a
    /// savepoint rollback and frees the slot when it ends. Returns
    /// `(versions_dropped, chains_dropped)`.
    pub fn mvcc_retire(&mut self, rowid: u64, watermark: u64, hold: bool) -> (u64, u64) {
        let Some(c) = self.chains.get_mut(&rowid) else { return (0, 0) };
        if c.dirty_by.is_some() || c.head_ts > watermark {
            let keep_from = c.reachable(watermark);
            c.older.drain(..keep_from);
            return (keep_from as u64, 0);
        }
        let dropped = c.older.len() as u64;
        self.chains.remove(&rowid);
        if !hold && self.get(rowid).is_none() {
            self.free.push(rowid);
        }
        (dropped, 1)
    }

    /// Put the slot of `rowid` back on the free list if its row is gone and
    /// neither a chain nor the free list holds it already.
    pub fn release(&mut self, rowid: u64) {
        let empty = self.rows.get(rowid as usize).is_some_and(|r| r.is_none());
        if empty && !self.chains.contains_key(&rowid) && !self.free.contains(&rowid) {
            self.free.push(rowid);
        }
    }
}

/// An index entry a transaction end superseded: no image it left for row
/// `rowid` carries `key`, but an older snapshot may still need the entry to
/// find the pre-image.
pub(crate) struct StaleKey {
    /// The table as of that moment and the position of the index in it:
    /// its key columns re-extract the row's key for the resurrection check
    /// at removal time.
    pub(crate) meta: Arc<TableMeta>,
    pub(crate) index_pos: usize,
    pub(crate) key: Vec<Value>,
    pub(crate) rowid: u64,
}

/// History a transaction end left for the snapshots still open, queued
/// until the GC watermark (oldest active snapshot) passes its timestamp.
pub(crate) enum History {
    /// The version chain of `(table, rowid)`.
    Chain(TableId, u64),
    Key(StaleKey),
}

obs::counters! {
    /// Snapshot-read and version-GC counters (the counting half of the
    /// `minidb_mvcc_*` family; its gauges read live state).
    pub(crate) struct MvccCounters {
        /// Statements resolved as lock-free snapshot reads.
        reads: counter "minidb_mvcc_reads_total" "Statements resolved as lock-free snapshot reads.",
        /// Version-chain entries examined per snapshot statement.
        versions_scanned: histogram "minidb_mvcc_versions_scanned"
            "Version-chain entries examined per snapshot statement.",
        /// Superseded versions reclaimed by GC.
        gc_versions: counter "minidb_mvcc_gc_collected_total" {kind = "versions"}
            "Objects reclaimed by version GC, by kind.",
        /// Version chains GC emptied.
        gc_chains: counter "minidb_mvcc_gc_collected_total" {kind = "chains"}
            "Objects reclaimed by version GC, by kind.",
        /// Superseded index entries GC removed.
        gc_unindexed: counter "minidb_mvcc_gc_collected_total" {kind = "index_entries"}
            "Objects reclaimed by version GC, by kind.",
    }
}

/// The snapshot registry, the retirement queue and the counters of one
/// database.
#[derive(Default)]
pub(crate) struct Mvcc {
    /// Do plain reads resolve against snapshots (and index removal wait
    /// for the watermark)? Chains are the undo store either way.
    pub(crate) on: bool,
    /// Latest fully-published commit timestamp. Monotonic, never reset, so
    /// timestamps stay unique across crash/restart.
    commit_ts: AtomicU64,
    /// Serialises commit publication (timestamp assignment plus version
    /// stamping), so a reader's snapshot never straddles half a commit.
    publish: Mutex<()>,
    /// Active snapshot timestamps, refcounted; the GC watermark is the
    /// smallest key (or `commit_ts` when empty).
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// History awaiting the watermark, with its commit timestamp, in
    /// queue order.
    pending: Mutex<VecDeque<(u64, History)>>,
    counters: MvccCounters,
    gc_watermark: AtomicU64,
}

impl Mvcc {
    pub(crate) fn new(on: bool) -> Mvcc {
        Mvcc { on, ..Mvcc::default() }
    }

    /// Hold off commit publication: what is published stays as it is, and
    /// every transaction not yet published is still in the WAL's window.
    pub(crate) fn publish_guard(&self) -> MutexGuard<'_, ()> {
        self.publish.lock()
    }

    /// Forget the queued history (it refers to a heap just replaced) and,
    /// after a crash, the snapshots of the readers it killed.
    pub(crate) fn reset(&self, crashed: bool) {
        self.pending.lock().clear();
        if crashed {
            self.snapshots.lock().clear();
        }
    }

    /// Count one statement resolved as a snapshot read and the chain
    /// versions it examined.
    pub(crate) fn count_read(&self, scanned: u64) {
        self.counters.reads.fetch_add(1, AtomicOrdering::Relaxed);
        self.counters.versions_scanned.record(scanned);
    }

    pub(crate) fn reads(&self) -> u64 {
        self.counters.reads()
    }

    pub(crate) fn render(&self, r: &mut obs::Registry) {
        self.counters.render(r);
    }

    pub(crate) fn watermark(&self) -> u64 {
        self.gc_watermark.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn commit_ts(&self) -> u64 {
        self.commit_ts.load(AtomicOrdering::Acquire)
    }

    pub(crate) fn active_snapshots(&self) -> usize {
        self.snapshots.lock().len()
    }

    pub(crate) fn pending_keys(&self) -> usize {
        self.pending.lock().iter().filter(|(_, h)| matches!(h, History::Key(_))).count()
    }

    /// The transaction's snapshot timestamp, assigned at its first snapshot
    /// read and held for the transaction's lifetime (repeatable snapshot).
    /// Registered so the GC watermark cannot advance past it.
    pub(crate) fn snapshot_for(&self, txn: &mut Txn) -> u64 {
        if let Some(ts) = txn.snapshot_ts {
            return ts;
        }
        // Load `commit_ts` while holding the registry lock: the GC also
        // computes its watermark under it, so a snapshot can never register
        // below an already-computed watermark.
        let mut snaps = self.snapshots.lock();
        let ts = self.commit_ts.load(AtomicOrdering::Acquire);
        *snaps.entry(ts).or_insert(0) += 1;
        txn.snapshot_ts = Some(ts);
        ts
    }

    /// Drop the transaction's snapshot registration, if any.
    pub(crate) fn release_snapshot(&self, txn: &mut Txn) {
        if let Some(ts) = txn.snapshot_ts.take() {
            let mut snaps = self.snapshots.lock();
            if let Some(n) = snaps.get_mut(&ts) {
                *n -= 1;
                if *n == 0 {
                    snaps.remove(&ts);
                }
            }
        }
    }

    /// Hand a transaction end's history to retirement. A commit
    /// (`publish`) publishes the rows it wrote (`rows` is its undo log) at
    /// the next timestamp, and under MVCC each key of an image it displaced
    /// that the committed image lacks becomes stale (`meta_of` gives the
    /// indexes); a rollback hands the rows it left clean, a savepoint
    /// rollback (`hold`) keeping their slots off the free list. With no
    /// snapshot registered the history goes at once (a key whose row is
    /// mid-write waits); else it queues. The publish lock and the snapshot
    /// registry are held together, so no snapshot registers between the
    /// check and the `commit_ts` store. Returns the watermark and the retire
    /// budget, twice what was handed.
    pub(crate) fn end(
        &self,
        storage: &Storage,
        meta_of: impl Fn(TableId) -> Option<Arc<TableMeta>>,
        rows: &[UndoOp],
        publish: Option<TxnId>,
        mut stale: Vec<StaleKey>,
        hold: bool,
    ) -> (u64, usize) {
        // A commit hands over each written row's chain and the keys its
        // displaced images leave behind.
        let commit = publish.is_some();
        let budget = 2 * (rows.len() * (1 + usize::from(commit)) + stale.len());
        if budget == 0 {
            return (0, 0);
        }
        let _publish = self.publish.lock();
        let snaps = self.snapshots.lock();
        let now = snaps.is_empty();
        let ts = self.commit_ts.load(AtomicOrdering::Relaxed) + u64::from(commit);
        let watermark = snaps.keys().next().copied().unwrap_or(ts);
        let mut queue = Vec::new();
        let mut meta: Option<Arc<TableMeta>> = None;
        for &(table, rowid) in rows {
            if commit && self.on && meta.as_ref().is_none_or(|m| m.schema.id != table) {
                meta = meta_of(table);
            }
            let retired = storage.with_table_mut(table, |t| {
                // A superseded key goes before the chain can free the slot:
                // a reuser must find the index clean. A row written twice is
                // published at its first mention.
                let mine = publish.is_none_or(|txn| {
                    t.mvcc_publish(rowid, txn.0, ts, |heap, old| {
                        let Some(meta) = &meta else { return };
                        for (index_pos, ix) in meta.indexes.iter().enumerate() {
                            if heap.is_some_and(|row| ix.same_key(old, row)) {
                                continue;
                            }
                            if now {
                                self.remove_entry(storage, ix, &ix.key_ref(old), rowid);
                            } else {
                                let key = ix.key(old);
                                stale.push(StaleKey { meta: meta.clone(), index_pos, key, rowid });
                            }
                        }
                    })
                });
                mine.then(|| t.mvcc_retire(rowid, watermark, hold))
            });
            if retired.is_ok_and(|r| r.is_some_and(|r| self.count_retired(r) == 0)) {
                queue.push(History::Chain(table, rowid));
            }
        }
        for s in stale {
            if !now || !self.unindex_stale(storage, &s, watermark) {
                queue.push(History::Key(s));
            }
        }
        if !queue.is_empty() {
            self.pending.lock().extend(queue.into_iter().map(|h| (ts, h)));
        }
        self.commit_ts.store(ts, AtomicOrdering::Release);
        (watermark, budget)
    }

    /// Take a stale entry out of its index unless the row still carries the
    /// key — in its heap image (a reused slot, a restored key) or in a
    /// version a snapshot at or above `watermark` can reach. `false`: the
    /// row is mid-write, its committed key unknown; try again later.
    fn unindex_stale(&self, storage: &Storage, s: &StaleKey, watermark: u64) -> bool {
        let ix = &s.meta.indexes[s.index_pos];
        let carried = storage.with_table(s.meta.schema.id, |t| {
            t.mvcc_any_image(s.rowid, watermark, |row| ix.has_key(row, &s.key))
        });
        match carried {
            Ok(None) => return false,
            Ok(Some(false)) => self.remove_entry(storage, ix, &s.key, s.rowid),
            // Carried still, or the table is gone: drop the entry.
            _ => {}
        }
        true
    }

    fn remove_entry(&self, storage: &Storage, ix: &IndexSchema, key: &[Value], rowid: u64) {
        let removed = storage.with_index_mut(ix.id, |t| t.remove(key, rowid));
        if matches!(removed, Ok(true)) {
            self.counters.gc_unindexed.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Count what a chain retirement dropped; returns the chains dropped.
    fn count_retired(&self, (versions, chains): (u64, u64)) -> u64 {
        self.counters.gc_versions.fetch_add(versions, AtomicOrdering::Relaxed);
        self.counters.gc_chains.fetch_add(chains, AtomicOrdering::Relaxed);
        chains
    }

    /// Retire up to `budget` queued entries the `watermark` has passed,
    /// oldest first: a chain drops what no snapshot can reach, a stale key
    /// goes under its table's apply mutex, so no writer moves the row
    /// between the check and the removal (a row mid-write re-queues it).
    pub(crate) fn retire_ripe(&self, storage: &Storage, watermark: u64, budget: usize) {
        let mut pending = self.pending.lock();
        let n = pending.iter().take(budget).take_while(|(ts, _)| *ts <= watermark).count();
        let ripe: Vec<_> = pending.drain(..n).collect();
        drop(pending);
        let mut requeue = Vec::new();
        for (ts, h) in ripe {
            let done = match &h {
                &History::Chain(table, rowid) => {
                    let retired =
                        storage.with_table_mut(table, |t| t.mvcc_retire(rowid, watermark, false));
                    self.count_retired(retired.unwrap_or_default());
                    true
                }
                // A table dropped since took its trees along.
                History::Key(s) => storage.apply_guard(s.meta.schema.id).map_or(true, |guard| {
                    let _g = guard.lock();
                    self.unindex_stale(storage, s, watermark)
                }),
            };
            if !done {
                requeue.push((ts, h));
            }
        }
        if !requeue.is_empty() {
            self.pending.lock().extend(requeue);
        }
        self.gc_watermark.fetch_max(watermark, AtomicOrdering::Relaxed);
    }

    /// Retire all queued history behind the oldest active snapshot. Returns
    /// the watermark used.
    pub(crate) fn gc(&self, storage: &Storage) -> u64 {
        // Read `commit_ts` under the registry lock, as a snapshot does.
        let snaps = self.snapshots.lock();
        let latest = || self.commit_ts.load(AtomicOrdering::Acquire);
        let watermark = snaps.keys().next().copied().unwrap_or_else(latest);
        drop(snaps);
        self.retire_ripe(storage, watermark, usize::MAX);
        watermark
    }
}
