//! The `Vertex` partition access method: B-tree or LSM B-tree behind one
//! interface (§5.2). The choice is workload-dependent and user-selectable
//! via [`crate::plan::VertexStorageKind`].
//!
//! Apart from [`VertexStore::bulk_load`], every read and write of a
//! partition goes through its [`RowCursor`]: the full-outer scan and the
//! dump and checkpoint writers walk it with `next`, the left-outer probe,
//! `mutate[p]` and the service's point and range reads move it with `seek`,
//! and results go back at the cursor.

use crate::plan::VertexStorageKind;
use pregelix_common::error::Result;
use pregelix_dataflow::cluster::WorkerHandle;
use pregelix_storage::btree::{self, BTree};
use pregelix_storage::lsm::{LsmBTree, LsmRowCursor};

/// One partition of the `Vertex` relation.
pub enum VertexStore {
    /// B-tree backed (in-place update friendly).
    B(BTree),
    /// LSM B-tree backed (mutation friendly).
    L(LsmBTree),
}

impl VertexStore {
    /// Create an empty store of the requested kind on a worker.
    pub fn create(kind: VertexStorageKind, worker: &WorkerHandle) -> Result<VertexStore> {
        match kind {
            VertexStorageKind::BTree => Ok(VertexStore::B(BTree::create(worker.cache().clone())?)),
            VertexStorageKind::Lsm => Ok(VertexStore::L(LsmBTree::create(
                worker.cache().clone(),
                worker.groupby_budget().max(16 * 1024),
                4,
            ))),
        }
    }

    /// Bulk load key-sorted `(key, value)` entries into an empty store.
    /// Leaves B-tree leaves 10% slack for in-place growth.
    pub fn bulk_load<I, K, V>(&mut self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        match self {
            VertexStore::B(t) => t.bulk_load(entries, 0.9),
            VertexStore::L(t) => t.bulk_load(entries),
        }
    }

    /// The B-trees holding the store's pages: the one tree, or every LSM
    /// disk component.
    pub(crate) fn trees(&self) -> Vec<&BTree> {
        match self {
            VertexStore::B(t) => vec![t],
            VertexStore::L(t) => t.trees().collect(),
        }
    }

    /// Persist dirty state (checkpoint support; for LSM this flushes the
    /// in-memory component first).
    pub fn flush(&mut self) -> Result<()> {
        match self {
            VertexStore::B(t) => t.flush(),
            VertexStore::L(t) => t.flush_mem(),
        }
    }

    /// Forward-only read-write row cursor: the one access path to the rows
    /// (see the module docs).
    pub fn cursor(&mut self) -> RowCursor<'_> {
        match self {
            VertexStore::B(t) => RowCursor::B(t.cursor()),
            VertexStore::L(t) => RowCursor::L(t.cursor()),
        }
    }

    /// Insert or replace the row under `key`.
    // pinned: benchmark/src/replay.rs
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.cursor().insert(key, value)
    }

    /// A cursor before the first row, read with [`RowCursor::next_entry`].
    // pinned: benchmark/src/replay.rs
    pub fn scan(&mut self) -> Result<RowCursor<'_>> {
        Ok(self.cursor())
    }

    /// A cursor for sorted point reads with [`RowCursor::probe`].
    // pinned: benchmark/src/replay.rs
    pub fn probe_cursor(&mut self) -> RowCursor<'_> {
        self.cursor()
    }
}

/// Forward-only read-write cursor over a [`VertexStore`]'s rows.
///
/// [`RowCursor::next`] moves to the smallest key greater than the position
/// in the store as it is now (the full-outer scan); [`RowCursor::seek`]
/// moves to a key at or after the position (the left-outer sorted probe).
/// The current row's key and value are lent from the cursor's own buffers,
/// so reading a row allocates nothing. Results go back *at the cursor*: on
/// the B-tree a same-length inline value, or just its head, is overwritten
/// in its slot under the leaf pin already held, and only a resized or
/// overflowing value, an [`RowCursor::insert`] of another key or a
/// [`RowCursor::delete`] takes the by-key path and makes the cursor find its
/// place again; the LSM store turns every write into a memtable insert and
/// reads ahead in bounded runs (see the two implementations).
pub enum RowCursor<'a> {
    /// B-tree row cursor.
    B(btree::RowCursor<'a>),
    /// LSM row cursor.
    L(LsmRowCursor<'a>),
}

impl RowCursor<'_> {
    /// Move to the next row in key order; `false` at the end.
    // Not `Iterator::next`: the row is lent from the cursor's own buffers.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<bool> {
        match self {
            RowCursor::B(c) => c.next(),
            RowCursor::L(c) => c.next(),
        }
    }

    /// Move to `key` (not before the position); whether a row is there.
    pub fn seek(&mut self, key: &[u8]) -> Result<bool> {
        match self {
            RowCursor::B(c) => c.seek(key),
            RowCursor::L(c) => c.seek(key),
        }
    }

    /// Key of the position: the current row's, or the last key sought.
    pub fn key(&self) -> &[u8] {
        match self {
            RowCursor::B(c) => c.key(),
            RowCursor::L(c) => c.key(),
        }
    }

    /// Value of the current row.
    pub fn value(&self) -> &[u8] {
        match self {
            RowCursor::B(c) => c.value(),
            RowCursor::L(c) => c.value(),
        }
    }

    /// Overwrite the first `head.len()` bytes of the current row's value.
    pub fn write_head(&mut self, head: &[u8]) -> Result<()> {
        match self {
            RowCursor::B(c) => c.write_head(head),
            RowCursor::L(c) => c.write_head(head),
        }
    }

    /// Replace the current row's value.
    pub fn write(&mut self, value: &[u8]) -> Result<()> {
        match self {
            RowCursor::B(c) => c.write(value),
            RowCursor::L(c) => c.write(value),
        }
    }

    /// Insert or replace the row under `key`; the current row stays current.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self {
            RowCursor::B(c) => c.insert(key, value),
            RowCursor::L(c) => c.insert(key, value),
        }
    }

    /// Delete the current row; the cursor stays at its key, between rows.
    pub fn delete(&mut self) -> Result<()> {
        match self {
            RowCursor::B(c) => c.delete(),
            RowCursor::L(c) => c.delete(),
        }
    }

    /// Move to the next row and copy it out; `None` at the end.
    // pinned: benchmark/src/replay.rs
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .next()?
            .then(|| (self.key().to_vec(), self.value().to_vec())))
    }

    /// Seek `key` and copy out its value, if a row is there.
    // pinned: benchmark/src/replay.rs
    pub fn probe(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.seek(key)?.then(|| self.value().to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_dataflow::cluster::{Cluster, ClusterConfig};

    fn worker() -> (Cluster, WorkerHandle) {
        let c = Cluster::new(ClusterConfig::new(1, 1 << 20)).unwrap();
        let w = c.worker(0);
        (c, w)
    }

    fn k(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    /// Every row, in cursor order.
    fn rows(s: &mut VertexStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut cur = s.cursor();
        let mut out = Vec::new();
        while cur.next().unwrap() {
            out.push((cur.key().to_vec(), cur.value().to_vec()));
        }
        out
    }

    /// The by-key lookup of the store's own kind, for comparison.
    fn search(s: &VertexStore, key: &[u8]) -> Option<Vec<u8>> {
        match s {
            VertexStore::B(t) => t.search(key).unwrap(),
            VertexStore::L(t) => t.search(key).unwrap(),
        }
    }

    #[test]
    fn both_kinds_behave_identically() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.bulk_load((0..100u64).map(|v| (k(v), v.to_le_bytes().to_vec())))
                .unwrap();
            assert_eq!(rows(&mut s).len(), 100);
            let mut cur = s.cursor();
            assert!(cur.seek(&k(5)).unwrap());
            cur.write(b"changed").unwrap();
            assert!(cur.seek(&k(7)).unwrap());
            cur.delete().unwrap();
            assert!(!cur.seek(&k(200)).unwrap());
            cur.insert(&k(200), b"new").unwrap();
            assert!(!cur.seek(&k(999)).unwrap());
            assert!(cur.delete().is_err(), "{kind:?}: no row to delete");
            drop(cur);
            assert_eq!(search(&s, &k(5)).unwrap(), b"changed");
            assert_eq!(search(&s, &k(200)).unwrap(), b"new");
            assert_eq!(search(&s, &k(7)), None);
            // Ordered, -1 +1 rows.
            let keys: Vec<_> = rows(&mut s).into_iter().map(|(key, _)| key).collect();
            assert!(keys.windows(2).all(|p| p[0] < p[1]), "{kind:?}");
            assert_eq!(keys.len(), 100, "{kind:?}");
        }
    }

    #[test]
    fn probe_cursor_matches_search_on_both_kinds() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.bulk_load((0..500u64).map(|v| (k(v * 2), v.to_le_bytes().to_vec())))
                .unwrap();
            let mut cur = s.cursor();
            assert!(cur.seek(&k(100)).unwrap());
            cur.delete().unwrap();
            cur.insert(&k(101), b"odd").unwrap();
            drop(cur);
            for step in [1, 7] {
                let keys: Vec<u64> = (0..1100u64).step_by(step).collect();
                let expect: Vec<_> = keys.iter().map(|&key| search(&s, &k(key))).collect();
                let mut cur = s.cursor();
                for (key, want) in keys.iter().zip(&expect) {
                    let found = cur.seek(&k(*key)).unwrap();
                    assert_eq!(found, want.is_some(), "{kind:?} key {key}");
                    if found {
                        assert_eq!(cur.value(), want.as_deref().unwrap(), "{kind:?} key {key}");
                    }
                }
            }
        }
    }

    #[test]
    fn flush_is_safe_on_both() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.cursor().insert(&k(1), b"v").unwrap();
            s.flush().unwrap();
            assert_eq!(rows(&mut s), vec![(k(1), b"v".to_vec())]);
        }
    }
}
