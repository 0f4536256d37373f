//! Physical storage: row heaps and B-tree indexes, guarded by short-lived
//! latches (`parking_lot::RwLock`). Logical concurrency control lives in the
//! lock manager; latches are never held across a lock wait.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::mvcc::VersionChain;
use crate::schema::{IndexId, IndexSchema, TableId};
use crate::value::{Row, Value};

/// Heap of one table. Row ids are slot positions and are stable for the
/// table lifetime: a slot is reused only once its row is gone and no
/// snapshot can reach its history.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TableData {
    pub(crate) rows: Vec<Option<Row>>,
    pub(crate) free: Vec<u64>,
    pub(crate) live: usize,
    /// Per-row version chains ([`crate::mvcc`]). Volatile: an image
    /// ([`Storage::image_table`]) carries none, so after a crash or a
    /// restore every snapshot starts from the recovered heap.
    pub(crate) chains: HashMap<u64, VersionChain>,
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

    /// Fetch a row by id.
    pub fn get(&self, rowid: u64) -> Option<&Row> {
        self.rows.get(rowid as usize).and_then(|r| r.as_ref())
    }

    /// Iterate live `(rowid, row)` pairs in row-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Row)> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|row| (i as u64, row)))
    }

    /// Put `row` into the slot (`None` empties it), returning the image it
    /// displaced.
    pub(crate) fn swap(&mut self, rowid: u64, row: Option<Row>) -> Option<Row> {
        let idx = rowid as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, None);
        }
        self.live += usize::from(row.is_some());
        let old = std::mem::replace(&mut self.rows[idx], row);
        self.live -= usize::from(old.is_some());
        old
    }

    /// Redo a logged write of a committed transaction: put `row` into the
    /// slot (`None` frees it) and return the image it displaced. Recovery
    /// runs with no snapshot open, so no history is kept.
    pub fn redo(&mut self, rowid: u64, row: Option<Row>) -> Option<Row> {
        if row.is_some() {
            self.free.retain(|&f| f != rowid);
        } else if self.get(rowid).is_some() {
            self.free.push(rowid);
        }
        self.swap(rowid, row)
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

    /// A tree of `ix` over every row of `heap`.
    pub fn build(ix: &IndexSchema, heap: &TableData) -> IndexData {
        let mut tree = IndexData::default();
        for (rowid, row) in heap.iter() {
            tree.insert(ix.key(row), rowid);
        }
        tree
    }

    /// The smallest key carried by more than one row, if any.
    pub fn first_duplicate(&self) -> Option<&[Value]> {
        self.tree.iter().find(|(_, ids)| ids.len() > 1).map(|(key, _)| key.as_slice())
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

/// A heap beside its apply mutex, which serialises the short *physical*
/// apply phase of a modification (unique checks + heap/index mutation) so
/// it is atomic without juggling multiple latches. Never held across
/// lock-manager waits.
type Heap = (RwLock<TableData>, Arc<Mutex<()>>);

/// All heaps and index trees of a database.
#[derive(Default)]
pub struct Storage {
    tables: RwLock<HashMap<TableId, Heap>>,
    indexes: RwLock<HashMap<IndexId, RwLock<IndexData>>>,
}

/// Slots an image copies per hold of a heap's read latch.
const IMAGE_CHUNK: usize = 4096;

impl Storage {
    /// Register an empty heap for a new table.
    pub fn create_table(&self, id: TableId) {
        self.tables.write().insert(id, Default::default());
    }

    /// The apply mutex of a table.
    pub fn apply_guard(&self, id: TableId) -> DbResult<Arc<Mutex<()>>> {
        self.table(id, |(_, apply)| apply.clone())
    }

    /// The apply mutex for a forward row write (insert, update, delete),
    /// behind the `minidb.storage.write` fault point: it fires before the
    /// write takes a slot or is logged, leaving nothing to undo or redo.
    /// Undo, publication and slot release have no fault point.
    pub fn write_guard(&self, id: TableId) -> DbResult<Arc<Mutex<()>>> {
        if obs::fault::fire("minidb.storage.write") {
            return Err(DbError::Internal("injected: storage write I/O error".into()));
        }
        self.apply_guard(id)
    }

    /// Register the tree of `ix`, built from its table's heap as it is now.
    pub fn create_index(&self, ix: &IndexSchema) -> DbResult<()> {
        let tree = self.with_table(ix.table, |heap| IndexData::build(ix, heap))?;
        self.indexes.write().insert(ix.id, RwLock::new(tree));
        Ok(())
    }

    /// Drop a table heap.
    pub fn drop_table(&self, id: TableId) {
        self.tables.write().remove(&id);
    }

    /// Drop an index tree.
    pub fn drop_index(&self, id: IndexId) {
        self.indexes.write().remove(&id);
    }

    /// Run `f` on table `id`'s heap and apply mutex, unlatched.
    fn table<R>(&self, id: TableId, f: impl FnOnce(&Heap) -> R) -> DbResult<R> {
        let tables = self.tables.read();
        let t = tables
            .get(&id)
            .ok_or_else(|| DbError::Internal(format!("no heap for table#{}", id.0)))?;
        Ok(f(t))
    }

    /// Run `f` with a read latch on the table heap.
    pub fn with_table<R>(&self, id: TableId, f: impl FnOnce(&TableData) -> R) -> DbResult<R> {
        self.table(id, |(heap, _)| f(&heap.read()))
    }

    /// Run `f` with a write latch on the table heap.
    pub fn with_table_mut<R>(
        &self,
        id: TableId,
        f: impl FnOnce(&mut TableData) -> R,
    ) -> DbResult<R> {
        self.table(id, |(heap, _)| f(&mut heap.write()))
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

    /// Rows carrying a version chain, across all heaps.
    pub fn version_chains(&self) -> usize {
        self.tables.read().values().map(|(heap, _)| heap.read().chains.len()).sum()
    }

    /// Copy table `id` as a snapshot at `ts` reads it, with the trees of
    /// `indexes` built from the copy: [`IMAGE_CHUNK`] slots per hold of the
    /// read latch, each chunk's index entries built after the latch is
    /// released — the gap that lets a waiting writer in. The snapshot keeps
    /// every image it reads until it is released. Fails if the table is
    /// dropped meanwhile.
    pub fn image_table(
        &self,
        id: TableId,
        indexes: &[IndexSchema],
        ts: u64,
    ) -> DbResult<(TableData, Vec<IndexData>)> {
        let (mut heap, mut trees) =
            (TableData::default(), vec![IndexData::default(); indexes.len()]);
        let (mut from, mut scanned) = (0, 0);
        loop {
            let (rows, to) = self.with_table(id, |t| {
                let to = t.rows.len().min(from + IMAGE_CHUNK);
                // No transaction has id 0: the own-writes rule never applies.
                let image = |r| t.mvcc_visible(r, ts, 0, &mut scanned).map(|row| (r, row.clone()));
                ((from as u64..to as u64).filter_map(image).collect::<Vec<_>>(), to)
            })?;
            for (rowid, row) in rows {
                for (tree, ix) in trees.iter_mut().zip(indexes) {
                    tree.insert(ix.key(&row), rowid);
                }
                heap.swap(rowid, Some(row));
            }
            if to < from + IMAGE_CHUNK {
                heap.free =
                    (0..heap.rows.len() as u64).filter(|&r| heap.get(r).is_none()).collect();
                return Ok((heap, trees));
            }
            from = to;
        }
    }

    /// Replace all contents with copies of an image's heaps and trees.
    pub fn install(&self, tables: &[(TableId, TableData)], indexes: &[(IndexId, IndexData)]) {
        let mut heaps = self.tables.write();
        let mut trees = self.indexes.write();
        *heaps =
            tables.iter().map(|(id, t)| (*id, (RwLock::new(t.clone()), Arc::default()))).collect();
        *trees = indexes.iter().map(|(id, t)| (*id, RwLock::new(t.clone()))).collect();
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
        t.write(r0, 1, Some(vec![v(10)]));
        let r1 = t.reserve();
        t.write(r1, 1, Some(vec![v(11)]));
        assert!(t.mvcc_publish(r0, 1, 1, |_, _| {}));
        assert!(t.mvcc_publish(r1, 1, 1, |_, _| {}));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r0).unwrap()[0], v(10));
        // A delete moves the image onto the row's chain.
        assert!(t.write(r0, 2, None));
        assert_eq!(t.len(), 1);
        assert!(t.mvcc_publish(r0, 2, 2, |_, old| assert_eq!(old[0], v(10))));
        // The slot is not recycled while a snapshot can still read the row.
        let r2 = t.reserve();
        assert_ne!(r2, r0);
        // (The image from before the insert goes: no snapshot below 1 is left.)
        assert_eq!(t.mvcc_retire(r0, 1, false), (1, 0));
        assert_ne!(t.reserve(), r0);
        // Once no snapshot below the delete is left, the chain and the slot go.
        assert_eq!(t.mvcc_retire(r0, 2, false), (1, 1));
        let r3 = t.reserve();
        assert_eq!(r3, r0);
        // Retiring twice, or the chain of a live row, frees nothing.
        t.write(r3, 3, Some(vec![v(9)]));
        t.mvcc_publish(r3, 3, 3, |_, _| {});
        assert_eq!(t.mvcc_retire(r3, 3, false), (1, 1));
        assert_eq!(t.mvcc_retire(r3, 3, false), (0, 0));
        let r4 = t.reserve();
        assert_ne!(r4, r3);
    }

    #[test]
    fn heap_redo_put_scrubs_the_free_list() {
        let mut t = TableData::default();
        let r0 = t.reserve();
        t.redo(r0, Some(vec![v(1)]));
        // A redone delete frees the slot at once: recovery has no snapshots.
        assert_eq!(t.redo(r0, None).unwrap()[0], v(1));
        // A redone put at a slot that is on the free list must scrub it, or
        // a later reserve would hand out a live row's id.
        t.redo(r0, Some(vec![v(2)]));
        let r1 = t.reserve();
        assert_ne!(r1, r0);
        assert_eq!(t.get(r0).unwrap()[0], v(2));
    }

    #[test]
    fn heap_put_at_recovered_slot_beyond_len() {
        let mut t = TableData::default();
        t.redo(5, Some(vec![v(1)]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5).unwrap()[0], v(1));
        assert!(t.get(0).is_none());
    }

    #[test]
    fn heap_iter_order() {
        let mut t = TableData::default();
        for i in 0..5 {
            let r = t.reserve();
            t.redo(r, Some(vec![v(i)]));
        }
        t.redo(2, None);
        let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }

    /// The chain holds what the heap displaced: undo pops it back, a
    /// snapshot reads below an open write, and a committed image leaves
    /// the writer's intermediates out.
    #[test]
    fn chain_undoes_and_resolves_displaced_images() {
        let mut t = TableData::default();
        let r = t.reserve();
        t.write(r, 1, Some(vec![v(1)]));
        t.mvcc_publish(r, 1, 1, |_, _| {});
        t.write(r, 2, Some(vec![v(2)]));
        t.write(r, 2, Some(vec![v(3)]));
        let mut scanned = 0;
        let seen = |t: &TableData, snap, txn, scanned: &mut u64| {
            t.mvcc_visible(r, snap, txn, scanned).map(|row| row[0].clone())
        };
        assert_eq!(seen(&t, 0, 9, &mut scanned), None, "before the insert");
        assert_eq!(seen(&t, 1, 9, &mut scanned), Some(v(1)), "never the intermediate");
        assert_eq!(seen(&t, 1, 2, &mut scanned), Some(v(3)), "own writes");
        let (undone, restored, clean) = t.undo(r).unwrap();
        assert_eq!(
            (undone.unwrap()[0].clone(), restored.unwrap()[0].clone(), clean),
            (v(3), v(2), false)
        );
        let mut displaced = Vec::new();
        assert!(t.mvcc_publish(r, 2, 2, |heap, old| {
            assert_eq!(heap.unwrap()[0], v(2));
            displaced.push(old[0].clone());
        }));
        assert_eq!(displaced, vec![v(1)]);
        assert_eq!(seen(&t, 1, 9, &mut scanned), Some(v(1)));
        assert_eq!(seen(&t, 2, 9, &mut scanned), Some(v(2)));
        assert_eq!(t.mvcc_retire(r, 2, false), (2, 1));
        assert!(t.chains.is_empty());
    }

    /// An insert undone by a savepoint rollback drops its chain but keeps
    /// its slot until the writer ends; releasing it twice frees it once.
    #[test]
    fn a_held_slot_is_freed_once_on_release() {
        let mut t = TableData::default();
        let r = t.reserve();
        t.write(r, 1, Some(vec![v(1)]));
        t.release(r);
        assert!(t.free.is_empty(), "a live row's slot stays taken");
        let (_, restored, clean) = t.undo(r).unwrap();
        assert!(restored.is_none() && clean);
        assert_eq!(t.mvcc_retire(r, 0, true), (0, 1));
        assert!(t.free.is_empty(), "held past the savepoint rollback");
        t.release(r);
        t.release(r);
        assert_eq!(t.free, vec![r]);
        assert_eq!(t.reserve(), r);
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
        let ix = IndexSchema {
            id: IndexId(1),
            name: "ix".into(),
            table: TableId(1),
            key_columns: vec![0],
            unique: false,
        };
        s.create_index(&ix).unwrap();
        s.with_table_mut(TableId(1), |t| {
            // More slots than one chunk; a snapshot at 2 sees rows 0 and 2.
            for r in 0..IMAGE_CHUNK as u64 + 2 {
                t.reserve();
                t.write(r, 1, Some(vec![v(42 + r as i64)]));
                t.mvcc_publish(r, 1, 1, |_, _| {});
                if r != 0 && r != 2 {
                    t.write(r, 2, None);
                    t.mvcc_publish(r, 2, 2, |_, _| {});
                }
            }
            // An open write, and a commit after the snapshot, stay out of
            // the image, row and key.
            t.write(0, 3, Some(vec![v(0)]));
            t.write(1, 4, Some(vec![v(1)]));
            t.mvcc_publish(1, 4, 3, |_, _| {});
        })
        .unwrap();
        let (heap, trees) = s.image_table(TableId(1), std::slice::from_ref(&ix), 2).unwrap();
        assert_eq!(
            heap.iter().map(|(r, row)| (r, row[0].clone())).collect::<Vec<_>>(),
            [(0, v(42)), (2, v(44))]
        );
        assert!(heap.chains.is_empty());
        assert_eq!(heap.free, [1]);
        let s2 = Storage::default();
        s2.install(&[(TableId(1), heap)], &[(IndexId(1), trees[0].clone())]);
        assert_eq!(s2.with_table(TableId(1), |t| t.len()).unwrap(), 2);
        assert_eq!(s2.with_index(IndexId(1), |ix| ix.entries()).unwrap(), 2);
        assert!(s.image_table(TableId(9), &[], 2).is_err(), "a dropped table");
    }
}
