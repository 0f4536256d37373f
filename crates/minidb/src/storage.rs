//! Physical storage: row heaps and B-tree indexes, guarded by short-lived
//! latches (`parking_lot::RwLock`). Logical concurrency control lives in the
//! lock manager; latches are never held across a lock wait.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::schema::{IndexId, TableId};
use crate::value::{Row, Value};

/// One committed version of a row: the image that became current at commit
/// timestamp `ts` (`None` = the row did not exist / was deleted).
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp at which this image became the row's current state.
    /// `0` seeds a chain with the pre-existing image (visible to every
    /// snapshot).
    pub ts: u64,
    /// Row image; `None` records a deletion (or "not yet inserted").
    pub row: Option<Row>,
}

/// MVCC history of one heap slot. The heap always holds the *newest* image
/// (committed or in-flight); the chain holds prior committed images plus a
/// dirty marker while an uncommitted writer has the row in flight.
///
/// Invariant: whenever `dirty_by` is `None`, the newest version's image
/// equals the heap slot's content, so a chain whose newest version is below
/// the GC watermark can be dropped entirely.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    /// Committed images, oldest first, strictly increasing `ts`.
    pub versions: Vec<Version>,
    /// Transaction currently holding the heap image dirty, if any.
    pub dirty_by: Option<u64>,
}

/// Heap of one table. Row ids are slot positions and are stable for the
/// table lifetime (slots are reused only after a delete).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TableData {
    rows: Vec<Option<Row>>,
    free: Vec<u64>,
    live: usize,
    /// Per-row version chains (MVCC). Volatile: meaningless outside the
    /// process that built them — [`Storage::restore`] clears them, so
    /// after a crash/restore every snapshot starts from the recovered heap.
    chains: HashMap<u64, VersionChain>,
}

impl TableData {
    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Reserve a slot for an insert, returning its row id.
    pub fn reserve(&mut self) -> u64 {
        match self.free.pop() {
            Some(id) => id,
            None => {
                self.rows.push(None);
                (self.rows.len() - 1) as u64
            }
        }
    }

    /// Place a row at a slot just handed out by [`TableData::reserve`].
    /// Skips the free-list scrub of [`TableData::put`]: `reserve` already
    /// removed the slot from the free list, so scanning it again would make
    /// every insert O(free-list size).
    pub fn put_reserved(&mut self, rowid: u64, row: Row) {
        debug_assert!(!self.free.contains(&rowid), "reserved slot still on free list");
        let idx = rowid as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, None);
        }
        if self.rows[idx].is_none() {
            self.live += 1;
        }
        self.rows[idx] = Some(row);
    }

    /// Place a row at a recovered or explicit slot (undo, redo replay).
    /// Unlike [`TableData::put_reserved`] the slot may still sit on the
    /// free list — e.g. replay putting a row whose id the checkpoint image
    /// recorded as free — so it is scrubbed.
    pub fn put(&mut self, rowid: u64, row: Row) {
        self.free.retain(|&f| f != rowid);
        self.put_reserved(rowid, row);
    }

    /// Fetch a row by id.
    pub fn get(&self, rowid: u64) -> Option<&Row> {
        self.rows.get(rowid as usize).and_then(|r| r.as_ref())
    }

    /// Remove a row, returning its image.
    ///
    /// The slot is NOT recycled yet: the deleting transaction still holds
    /// the row's X lock, and reusing the slot before that transaction
    /// resolves would hand a new row a locked identity (and an abort would
    /// restore the old image over it). [`TableData::release_slot`] recycles
    /// it at commit time.
    pub fn remove(&mut self, rowid: u64) -> Option<Row> {
        let slot = self.rows.get_mut(rowid as usize)?;
        let old = slot.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Recycle a deleted slot once the deleting transaction has committed.
    pub fn release_slot(&mut self, rowid: u64) {
        let idx = rowid as usize;
        if idx < self.rows.len() && self.rows[idx].is_none() && !self.free.contains(&rowid) {
            self.free.push(rowid);
        }
    }

    /// Replace a row in place, returning the old image.
    pub fn replace(&mut self, rowid: u64, row: Row) -> Option<Row> {
        let slot = self.rows.get_mut(rowid as usize)?;
        let old = slot.replace(row);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Iterate live `(rowid, row)` pairs in row-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Row)> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|row| (i as u64, row)))
    }

    // ---- MVCC version chains -------------------------------------------

    /// Open (or adopt) a version chain for `rowid` on behalf of writer
    /// `txn`, seeding it with the current heap image when the row had no
    /// history yet. Must be called under the same write latch as the heap
    /// mutation it precedes, so readers never observe a dirty heap image
    /// without a chain. Returns `true` on the first touch by this
    /// transaction (callers record it for dirty-marker cleanup).
    pub fn mvcc_begin_write(&mut self, rowid: u64, txn: u64) -> bool {
        let chain = self.chains.entry(rowid).or_insert_with(|| VersionChain {
            // ts 0 = "since forever": if no chain existed, the current heap
            // image was visible to every active snapshot.
            versions: vec![Version {
                ts: 0,
                row: self.rows.get(rowid as usize).cloned().flatten(),
            }],
            dirty_by: None,
        });
        if chain.dirty_by == Some(txn) {
            false
        } else {
            chain.dirty_by = Some(txn);
            true
        }
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
        match self.chains.get(&rowid) {
            None => self.get(rowid),
            Some(chain) => {
                if chain.dirty_by == Some(txn) {
                    return self.get(rowid);
                }
                *scanned += chain.versions.len() as u64;
                chain.versions.iter().rev().find(|v| v.ts <= snapshot).and_then(|v| v.row.as_ref())
            }
        }
    }

    /// Publish the committed heap image of `rowid` at commit timestamp `ts`
    /// and clear the dirty marker. Called under the commit-publish lock.
    pub fn mvcc_publish(&mut self, rowid: u64, ts: u64) {
        if let Some(chain) = self.chains.get_mut(&rowid) {
            chain
                .versions
                .push(Version { ts, row: self.rows.get(rowid as usize).cloned().flatten() });
            chain.dirty_by = None;
        }
    }

    /// Drop the dirty marker `txn` holds on `rowid`, if any (abort path, or
    /// commit of a row whose writes were all undone to a savepoint).
    pub fn mvcc_clear_dirty(&mut self, rowid: u64, txn: u64) {
        if let Some(chain) = self.chains.get_mut(&rowid) {
            if chain.dirty_by == Some(txn) {
                chain.dirty_by = None;
            }
        }
    }

    /// Row ids that currently carry a version chain (a snapshot full scan
    /// unions these with the live heap: a committed delete removes the heap
    /// slot while old snapshots must still see the prior image).
    pub fn mvcc_rowids(&self) -> impl Iterator<Item = u64> + '_ {
        self.chains.keys().copied()
    }

    /// Number of rows with live version chains (diagnostics/metrics).
    pub fn mvcc_chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Does the heap image of `rowid`, or any version a snapshot at or above
    /// `watermark` can still resolve to, satisfy `pred`?
    pub fn mvcc_any_image(&self, rowid: u64, watermark: u64, pred: impl Fn(&Row) -> bool) -> bool {
        self.get(rowid).is_some_and(&pred)
            || self.chains.get(&rowid).is_some_and(|c| {
                let from = c.versions.iter().rposition(|v| v.ts <= watermark).unwrap_or(0);
                c.versions[from..].iter().any(|v| v.row.as_ref().is_some_and(&pred))
            })
    }

    /// Is an uncommitted writer holding this row's heap image dirty?
    pub fn mvcc_row_dirty(&self, rowid: u64) -> bool {
        self.chains.get(&rowid).is_some_and(|c| c.dirty_by.is_some())
    }

    /// Drop the versions of `rowid` no snapshot at or above `watermark` (the
    /// oldest active one) can reach — all but the newest at or below it —
    /// and the whole chain once it is clean and entirely behind the
    /// watermark: every snapshot then resolves to the heap image. Returns
    /// `(versions_dropped, chains_dropped)`.
    pub fn mvcc_retire(&mut self, rowid: u64, watermark: u64) -> (u64, u64) {
        let Some(chain) = self.chains.get_mut(&rowid) else { return (0, 0) };
        let keep_from = chain.versions.iter().rposition(|v| v.ts <= watermark).unwrap_or(0);
        chain.versions.drain(..keep_from);
        if chain.dirty_by.is_some() || chain.versions.last().is_some_and(|v| v.ts > watermark) {
            return (keep_from as u64, 0);
        }
        let dropped = self.chains.remove(&rowid).map_or(0, |c| c.versions.len());
        ((keep_from + dropped) as u64, 1)
    }

    /// Drop all version history (crash/restore: snapshots restart from the
    /// recovered heap).
    pub fn mvcc_reset(&mut self) {
        self.chains.clear();
    }
}

/// The row ids under one index key, ascending. Unique and near-unique
/// indexes hold exactly one, so the smallest lives inline and only further
/// ones cost a tree (an empty `BTreeSet` owns no heap memory).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowIds {
    first: u64,
    rest: BTreeSet<u64>,
}

impl RowIds {
    /// The row ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// How many row ids.
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Never: a key with no row ids left is removed from its index.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn insert(&mut self, rowid: u64) -> bool {
        match rowid.cmp(&self.first) {
            std::cmp::Ordering::Equal => false,
            std::cmp::Ordering::Greater => self.rest.insert(rowid),
            std::cmp::Ordering::Less => self.rest.insert(std::mem::replace(&mut self.first, rowid)),
        }
    }

    /// Remove `rowid`; `None` when it was the last one.
    fn remove(&mut self, rowid: u64) -> Option<bool> {
        if rowid != self.first {
            return Some(self.rest.remove(&rowid));
        }
        self.first = self.rest.pop_first()?;
        Some(true)
    }
}

/// One B-tree index: ordered map from key to its row ids.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct IndexData {
    tree: BTreeMap<Vec<Value>, RowIds>,
}

impl IndexData {
    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.tree.len()
    }

    /// Total (key, rowid) entries.
    pub fn entries(&self) -> usize {
        self.tree.values().map(|s| s.len()).sum()
    }

    /// Row ids for an exact key, ascending.
    pub fn get(&self, key: &[Value]) -> impl Iterator<Item = u64> + '_ {
        self.tree.get(key).into_iter().flat_map(|ids| ids.iter())
    }

    /// True if the key has at least one entry.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.tree.contains_key(key)
    }

    /// Insert an entry. Returns `false` if (key,rowid) already existed.
    pub fn insert(&mut self, key: Vec<Value>, rowid: u64) -> bool {
        use std::collections::btree_map::Entry;
        match self.tree.entry(key) {
            Entry::Occupied(ids) => ids.into_mut().insert(rowid),
            Entry::Vacant(slot) => {
                slot.insert(RowIds { first: rowid, rest: BTreeSet::new() });
                true
            }
        }
    }

    /// Remove an entry; prunes empty key nodes.
    pub fn remove(&mut self, key: &[Value], rowid: u64) -> bool {
        let Some(ids) = self.tree.get_mut(key) else { return false };
        ids.remove(rowid).unwrap_or_else(|| {
            self.tree.remove(key);
            true
        })
    }

    /// The smallest key strictly greater than `key`, i.e. the *next key*
    /// ARIES/KVL-style next-key locking protects.
    pub fn next_key(&self, key: &[Value]) -> Option<Vec<Value>> {
        use std::ops::Bound;
        self.tree
            .range::<[Value], _>((Bound::Excluded(key), Bound::Unbounded))
            .next()
            .map(|(k, _)| k.clone())
    }

    /// Every `(key, rowids)` whose key has `prefix` as its leading columns,
    /// in key order, borrowed from the tree — the caller copies out what it
    /// needs (row ids always, keys only when it will lock them). With
    /// `range`, the key column right after the prefix must also lie within
    /// the `(lower, upper)` bounds, each `(value, inclusive)`; a key with no
    /// such column never matches a range.
    pub fn scan<'a>(
        &'a self,
        prefix: &'a [Value],
        range: Option<(ScanBound<'a>, ScanBound<'a>)>,
    ) -> impl Iterator<Item = (&'a [Value], &'a RowIds)> + 'a {
        use std::cmp::Ordering::{Equal, Greater, Less};
        use std::ops::Bound;
        let in_range = move |key: &[Value]| {
            let Some((lo, hi)) = range else { return true };
            let Some(v) = key.get(prefix.len()) else { return false };
            let above = lo.is_none_or(|(bound, inclusive)| match v.cmp(bound) {
                Less => false,
                Equal => inclusive,
                Greater => true,
            });
            let below = hi.is_none_or(|(bound, inclusive)| match v.cmp(bound) {
                Greater => false,
                Equal => inclusive,
                Less => true,
            });
            above && below
        };
        self.tree
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .filter(move |(k, _)| in_range(k))
            .map(|(k, set)| (k.as_slice(), set))
    }
}

/// One side of an index range scan: `(bound, inclusive)`, or open.
pub type ScanBound<'a> = Option<(&'a Value, bool)>;

/// All heaps and index trees of a database.
#[derive(Default)]
pub struct Storage {
    tables: RwLock<HashMap<TableId, RwLock<TableData>>>,
    indexes: RwLock<HashMap<IndexId, RwLock<IndexData>>>,
    /// Per-table apply mutex: serialises the short *physical* apply phase of
    /// a modification (unique checks + heap/index mutation) so it is atomic
    /// without juggling multiple latches. Never held across lock-manager
    /// waits.
    apply: RwLock<HashMap<TableId, std::sync::Arc<parking_lot::Mutex<()>>>>,
}

/// Serializable snapshot of all storage (checkpoint image).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StorageSnapshot {
    /// Heap images by table id.
    pub tables: Vec<(u32, TableData)>,
    /// Index images by index id.
    pub indexes: Vec<(u32, IndexData)>,
}

impl Storage {
    /// Register an empty heap for a new table.
    pub fn create_table(&self, id: TableId) {
        self.tables.write().insert(id, RwLock::new(TableData::default()));
        self.apply.write().insert(id, std::sync::Arc::new(parking_lot::Mutex::new(())));
    }

    /// The apply mutex for a table (created lazily for recovered tables).
    pub fn apply_guard(&self, id: TableId) -> std::sync::Arc<parking_lot::Mutex<()>> {
        if let Some(g) = self.apply.read().get(&id) {
            return g.clone();
        }
        self.apply
            .write()
            .entry(id)
            .or_insert_with(|| std::sync::Arc::new(parking_lot::Mutex::new(())))
            .clone()
    }

    /// Register an empty tree for a new index.
    pub fn create_index(&self, id: IndexId) {
        self.indexes.write().insert(id, RwLock::new(IndexData::default()));
    }

    /// Drop a table heap.
    pub fn drop_table(&self, id: TableId) {
        self.tables.write().remove(&id);
        self.apply.write().remove(&id);
    }

    /// Drop an index tree.
    pub fn drop_index(&self, id: IndexId) {
        self.indexes.write().remove(&id);
    }

    /// Run `f` with a read latch on the table heap.
    pub fn with_table<R>(&self, id: TableId, f: impl FnOnce(&TableData) -> R) -> DbResult<R> {
        let tables = self.tables.read();
        let t = tables
            .get(&id)
            .ok_or_else(|| DbError::Internal(format!("no heap for table#{}", id.0)))?;
        let guard = t.read();
        Ok(f(&guard))
    }

    /// Run `f` with a write latch on the table heap.
    pub fn with_table_mut<R>(
        &self,
        id: TableId,
        f: impl FnOnce(&mut TableData) -> R,
    ) -> DbResult<R> {
        if obs::fault::fire("minidb.storage.write") {
            return Err(DbError::Internal("injected: storage write I/O error".into()));
        }
        let tables = self.tables.read();
        let t = tables
            .get(&id)
            .ok_or_else(|| DbError::Internal(format!("no heap for table#{}", id.0)))?;
        let mut guard = t.write();
        Ok(f(&mut guard))
    }

    /// Run `f` with a read latch on an index tree.
    pub fn with_index<R>(&self, id: IndexId, f: impl FnOnce(&IndexData) -> R) -> DbResult<R> {
        let idx = self.indexes.read();
        let t =
            idx.get(&id).ok_or_else(|| DbError::Internal(format!("no tree for index#{}", id.0)))?;
        let guard = t.read();
        Ok(f(&guard))
    }

    /// Run `f` with a write latch on an index tree.
    pub fn with_index_mut<R>(
        &self,
        id: IndexId,
        f: impl FnOnce(&mut IndexData) -> R,
    ) -> DbResult<R> {
        let mut out = None;
        self.with_indexes_mut([(id, f)], |t, f| out = Some(f(t)))?;
        Ok(out.expect("the one tree was visited"))
    }

    /// Run `f` on several index trees in turn, each under its own write
    /// latch, resolving them all with one look at the index map (an insert
    /// maintains every index of its table).
    pub fn with_indexes_mut<T>(
        &self,
        work: impl IntoIterator<Item = (IndexId, T)>,
        mut f: impl FnMut(&mut IndexData, T),
    ) -> DbResult<()> {
        let idx = self.indexes.read();
        for (id, item) in work {
            let t = idx
                .get(&id)
                .ok_or_else(|| DbError::Internal(format!("no tree for index#{}", id.0)))?;
            f(&mut t.write(), item);
        }
        Ok(())
    }

    /// Ids of all registered tables.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.tables.read().keys().copied().collect()
    }

    /// Deep-copy everything into a checkpoint snapshot.
    pub fn snapshot(&self) -> StorageSnapshot {
        let tables = self.tables.read();
        let indexes = self.indexes.read();
        StorageSnapshot {
            tables: tables.iter().map(|(id, t)| (id.0, t.read().clone())).collect(),
            indexes: indexes.iter().map(|(id, t)| (id.0, t.read().clone())).collect(),
        }
    }

    /// Replace all contents from a snapshot.
    pub fn restore(&self, snap: StorageSnapshot) {
        let mut tables = self.tables.write();
        let mut indexes = self.indexes.write();
        let mut apply = self.apply.write();
        tables.clear();
        indexes.clear();
        apply.clear();
        for (id, mut data) in snap.tables {
            // Version history is meaningless across a restore: snapshots of
            // the restored database start from its heap.
            data.mvcc_reset();
            tables.insert(TableId(id), RwLock::new(data));
            apply.insert(TableId(id), std::sync::Arc::new(parking_lot::Mutex::new(())));
        }
        for (id, data) in snap.indexes {
            indexes.insert(IndexId(id), RwLock::new(data));
        }
    }

    /// Drop all contents (crash simulation).
    pub fn clear(&self) {
        self.tables.write().clear();
        self.indexes.write().clear();
        self.apply.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn heap_reserve_put_get_remove() {
        let mut t = TableData::default();
        let r0 = t.reserve();
        t.put(r0, vec![v(10)]);
        let r1 = t.reserve();
        t.put(r1, vec![v(11)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r0).unwrap()[0], v(10));
        let old = t.remove(r0).unwrap();
        assert_eq!(old[0], v(10));
        assert_eq!(t.len(), 1);
        // The slot is not recycled until the deleting txn commits.
        let r2 = t.reserve();
        assert_ne!(r2, r0);
        t.release_slot(r0);
        let r3 = t.reserve();
        assert_eq!(r3, r0);
        // Releasing twice or releasing a live slot is a no-op.
        t.put(r3, vec![v(9)]);
        t.release_slot(r3);
        let r4 = t.reserve();
        assert_ne!(r4, r3);
    }

    #[test]
    fn heap_put_reserved_skips_free_list_scrub() {
        let mut t = TableData::default();
        let r0 = t.reserve();
        t.put_reserved(r0, vec![v(1)]);
        t.remove(r0);
        t.release_slot(r0);
        // An explicit put at a slot that is on the free list must scrub it,
        // or a later reserve would hand out a live row's id.
        t.put(r0, vec![v(2)]);
        let r1 = t.reserve();
        assert_ne!(r1, r0);
        assert_eq!(t.get(r0).unwrap()[0], v(2));
    }

    #[test]
    fn heap_put_at_recovered_slot_beyond_len() {
        let mut t = TableData::default();
        t.put(5, vec![v(1)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5).unwrap()[0], v(1));
        assert!(t.get(0).is_none());
    }

    #[test]
    fn heap_iter_order() {
        let mut t = TableData::default();
        for i in 0..5 {
            let r = t.reserve();
            t.put(r, vec![v(i)]);
        }
        t.remove(2);
        let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }

    #[test]
    fn index_insert_remove_next_key() {
        let mut ix = IndexData::default();
        ix.insert(vec![Value::str("b")], 1);
        ix.insert(vec![Value::str("d")], 2);
        ix.insert(vec![Value::str("d")], 3);
        assert_eq!(ix.distinct_keys(), 2);
        assert_eq!(ix.entries(), 3);
        assert_eq!(ix.next_key(&[Value::str("a")]), Some(vec![Value::str("b")]));
        assert_eq!(ix.next_key(&[Value::str("b")]), Some(vec![Value::str("d")]));
        assert_eq!(ix.next_key(&[Value::str("d")]), None);
        ix.remove(&[Value::str("d")], 2);
        assert_eq!(ix.get(&[Value::str("d")]).collect::<Vec<_>>(), vec![3]);
        ix.remove(&[Value::str("d")], 3);
        assert!(!ix.contains_key(&[Value::str("d")]));
    }

    #[test]
    fn row_ids_stay_ascending_with_the_smallest_inline() {
        let mut ix = IndexData::default();
        let k = vec![v(1)];
        assert!(ix.insert(k.clone(), 5));
        assert!(ix.insert(k.clone(), 3));
        assert!(ix.insert(k.clone(), 9));
        assert!(!ix.insert(k.clone(), 3), "already there");
        assert_eq!(ix.get(&k).collect::<Vec<_>>(), vec![3, 5, 9]);
        assert_eq!((ix.entries(), ix.distinct_keys()), (3, 1));
        assert!(ix.remove(&k, 3), "the inline one goes, the next is promoted");
        assert!(!ix.remove(&k, 4));
        assert_eq!(ix.get(&k).collect::<Vec<_>>(), vec![5, 9]);
        assert!(ix.remove(&k, 9));
        assert!(ix.remove(&k, 5));
        assert!(!ix.contains_key(&k), "the last row id takes the key with it");
        assert!(!ix.remove(&k, 5));
    }

    #[test]
    fn index_scan_by_prefix_and_range() {
        let mut ix = IndexData::default();
        ix.insert(vec![v(1), Value::str("a")], 1);
        ix.insert(vec![v(1), Value::str("b")], 2);
        ix.insert(vec![v(1), Value::str("c")], 4);
        ix.insert(vec![v(2), Value::str("a")], 3);
        let rowids = |prefix: &[Value], range| -> Vec<u64> {
            ix.scan(prefix, range).flat_map(|(_, ids)| ids.iter()).collect()
        };
        assert_eq!(rowids(&[v(1)], None), vec![1, 2, 4]);
        assert_eq!(rowids(&[v(3)], None), Vec::<u64>::new());
        let (a, c, two, one) = (Value::str("a"), Value::str("c"), v(2), [v(1)]);
        assert_eq!(rowids(&[v(1)], Some((Some((&a, false)), Some((&c, true))))), vec![2, 4]);
        assert_eq!(rowids(&[v(1)], Some((Some((&a, true)), Some((&c, false))))), vec![1, 2]);
        assert_eq!(rowids(&[v(1)], Some((None, Some((&a, true))))), vec![1]);
        // An empty prefix ranges over the first key column.
        assert_eq!(rowids(&[], Some((Some((&two, true)), None))), vec![3]);
        // A full-key probe has no next column to range over.
        assert_eq!(rowids(&[v(1), a.clone()], Some((None, None))), Vec::<u64>::new());
        let keys: Vec<&[Value]> = ix.scan(&one, None).map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0], [v(1), Value::str("a")]);
    }

    #[test]
    fn storage_snapshot_roundtrip() {
        let s = Storage::default();
        s.create_table(TableId(1));
        s.create_index(IndexId(1));
        s.with_table_mut(TableId(1), |t| {
            let r = t.reserve();
            t.put(r, vec![v(42)]);
        })
        .unwrap();
        s.with_index_mut(IndexId(1), |ix| {
            ix.insert(vec![v(42)], 0);
        })
        .unwrap();
        let snap = s.snapshot();
        let s2 = Storage::default();
        s2.restore(snap);
        let n = s2.with_table(TableId(1), |t| t.len()).unwrap();
        assert_eq!(n, 1);
        let keys = s2.with_index(IndexId(1), |ix| ix.distinct_keys()).unwrap();
        assert_eq!(keys, 1);
    }
}
