//! The `Vertex` partition access method: B-tree or LSM B-tree behind one
//! interface (§5.2). The choice is workload-dependent and user-selectable
//! via [`crate::plan::VertexStorageKind`].

use crate::plan::VertexStorageKind;
use pregelix_common::error::Result;
use pregelix_dataflow::cluster::WorkerHandle;
use pregelix_storage::btree::{self, BTree, BTreeScanner, ProbeCursor};
use pregelix_storage::lsm::{LsmBTree, LsmProbeCursor, LsmRowCursor, LsmScanner};

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

    /// Point lookup.
    pub fn search(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self {
            VertexStore::B(t) => t.search(key),
            VertexStore::L(t) => t.search(key),
        }
    }

    /// Insert-or-replace.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self {
            VertexStore::B(t) => t.upsert(key, value),
            VertexStore::L(t) => t.upsert(key, value),
        }
    }

    /// Delete; absent keys are a no-op.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        match self {
            VertexStore::B(t) => {
                t.delete(key)?;
                Ok(())
            }
            VertexStore::L(t) => t.delete(key),
        }
    }

    /// Whether a key exists.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        match self {
            VertexStore::B(t) => t.contains(key),
            VertexStore::L(t) => t.contains(key),
        }
    }

    /// Live entry count (full scan).
    pub fn count(&self) -> Result<u64> {
        match self {
            VertexStore::B(t) => t.count(),
            VertexStore::L(t) => t.count(),
        }
    }

    /// Ordered scan over live entries.
    pub fn scan(&self) -> Result<VertexScan<'_>> {
        match self {
            VertexStore::B(t) => Ok(VertexScan::B(t.scan()?)),
            VertexStore::L(t) => Ok(VertexScan::L(t.scan()?)),
        }
    }

    /// Ordered scan over live entries with key `>= from`.
    pub fn scan_from(&self, from: &[u8]) -> Result<VertexScan<'_>> {
        match self {
            VertexStore::B(t) => Ok(VertexScan::B(t.scan_from(from)?)),
            VertexStore::L(t) => Ok(VertexScan::L(t.scan_from(from)?)),
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

    /// Forward-only read-write row cursor: the access path of the fused
    /// scan/compute/update operator (§5.3.2) under both join plans.
    pub fn cursor(&mut self) -> RowCursor<'_> {
        match self {
            VertexStore::B(t) => RowCursor::B(t.cursor()),
            VertexStore::L(t) => RowCursor::L(t.cursor()),
        }
    }

    /// Sorted-probe cursor: point lookups for monotonically non-decreasing
    /// keys with amortised O(1) page pins per probe. Read-only — the shared
    /// borrow freezes the store for the cursor's lifetime.
    pub fn probe_cursor(&self) -> VertexProbe<'_> {
        match self {
            VertexStore::B(t) => VertexProbe::B(t.probe_cursor()),
            VertexStore::L(t) => VertexProbe::L(t.probe_cursor()),
        }
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
}

/// Sorted-probe cursor over a [`VertexStore`] (see
/// [`VertexStore::probe_cursor`]).
pub enum VertexProbe<'a> {
    /// B-tree probe cursor.
    B(ProbeCursor<'a>),
    /// LSM multi-component probe cursor.
    L(LsmProbeCursor<'a>),
}

impl VertexProbe<'_> {
    /// Point lookup; equivalent to [`VertexStore::search`] for
    /// non-decreasing keys.
    pub fn probe(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self {
            VertexProbe::B(c) => c.probe(key),
            VertexProbe::L(c) => c.probe(key),
        }
    }

    /// Membership probe; equivalent to [`VertexStore::contains`] for
    /// non-decreasing keys.
    pub fn probe_contains(&mut self, key: &[u8]) -> Result<bool> {
        match self {
            VertexProbe::B(c) => c.probe_contains(key),
            VertexProbe::L(c) => c.probe_contains(key),
        }
    }
}

/// Ordered scanner over a [`VertexStore`].
pub enum VertexScan<'a> {
    /// B-tree scanner.
    B(BTreeScanner<'a>),
    /// LSM scanner.
    L(LsmScanner<'a>),
}

impl VertexScan<'_> {
    /// Next `(key, value)` in key order.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        match self {
            VertexScan::B(s) => s.next_entry(),
            VertexScan::L(s) => s.next_entry(),
        }
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

    #[test]
    fn both_kinds_behave_identically() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.bulk_load((0..100u64).map(|v| (k(v), v.to_le_bytes().to_vec())))
                .unwrap();
            assert_eq!(s.count().unwrap(), 100);
            s.upsert(&k(5), b"changed").unwrap();
            s.upsert(&k(200), b"new").unwrap();
            s.delete(&k(7)).unwrap();
            s.delete(&k(999)).unwrap(); // absent: no-op
            assert_eq!(s.search(&k(5)).unwrap().unwrap(), b"changed");
            assert_eq!(s.search(&k(200)).unwrap().unwrap(), b"new");
            assert_eq!(s.search(&k(7)).unwrap(), None);
            assert!(s.contains(&k(0)).unwrap());
            assert_eq!(s.count().unwrap(), 100, "{kind:?}"); // -1 +1
            // Ordered scan.
            let mut scan = s.scan().unwrap();
            let mut prev = None;
            let mut n = 0;
            while let Some((key, _)) = scan.next_entry().unwrap() {
                if let Some(p) = &prev {
                    assert!(*p < key);
                }
                prev = Some(key);
                n += 1;
            }
            assert_eq!(n, 100);
        }
    }

    #[test]
    fn probe_cursor_matches_search_on_both_kinds() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.bulk_load((0..500u64).map(|v| (k(v * 2), v.to_le_bytes().to_vec())))
                .unwrap();
            s.delete(&k(100)).unwrap();
            s.upsert(&k(101), b"odd").unwrap();
            let mut probe = s.probe_cursor();
            for key in 0..1100u64 {
                assert_eq!(
                    probe.probe(&k(key)).unwrap(),
                    s.search(&k(key)).unwrap(),
                    "{kind:?} key {key}"
                );
                // probe_contains agrees with contains (checked on a second
                // cursor so this cursor's position is undisturbed).
            }
            let mut probe = s.probe_cursor();
            for key in (0..1100u64).step_by(7) {
                assert_eq!(
                    probe.probe_contains(&k(key)).unwrap(),
                    s.contains(&k(key)).unwrap(),
                    "{kind:?} key {key}"
                );
            }
        }
    }

    #[test]
    fn flush_is_safe_on_both() {
        let (_c, w) = worker();
        for kind in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
            let mut s = VertexStore::create(kind, &w).unwrap();
            s.upsert(&k(1), b"v").unwrap();
            s.flush().unwrap();
            assert_eq!(s.search(&k(1)).unwrap().unwrap(), b"v");
        }
    }
}
