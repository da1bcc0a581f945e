//! The `Vertex` partition access method: a B-tree (§5.2).
//!
//! Apart from [`VertexStore::bulk_load`], every read and write of a
//! partition goes through its [`RowCursor`]: the full-outer scan and the
//! dump and checkpoint writers walk it with `next`, the left-outer probe,
//! `mutate[p]` and `LoadedGraph`'s point and range reads move it with `seek`,
//! and results go back at the cursor: into the slot the row holds, or
//! through the tree's one put from the root for a row that no longer fits
//! its leaf or a key the cursor is not on.

use crate::api::VertexProgram;
use crate::plan::VertexStorageKind;
use crate::runtime::LoadedGraph;
use crate::vertex::VertexData;
use pregelix_common::error::Result;
use pregelix_common::frame::{tuple_vid, vid_to_key};
use pregelix_common::{hash_partition, Vid};
use pregelix_dataflow::cluster::WorkerHandle;
use pregelix_storage::btree::BTree;

/// Forward-only read-write cursor over a [`VertexStore`]'s rows: the
/// B-tree's own.
pub use pregelix_storage::btree::RowCursor;

/// One partition of the `Vertex` relation.
pub enum VertexStore {
    /// B-tree backed (an enum of one variant: the name is pinned by
    /// benchmark/src/replay.rs).
    B(BTree),
}

impl VertexStore {
    /// Create an empty store on a worker.
    // pinned: benchmark/src/replay.rs
    pub fn create(kind: VertexStorageKind, worker: &WorkerHandle) -> Result<VertexStore> {
        let VertexStorageKind::BTree = kind;
        Ok(VertexStore::B(BTree::create(worker.cache().clone())?))
    }

    /// The tree holding the store's pages.
    pub(crate) fn tree(&self) -> &BTree {
        let VertexStore::B(t) = self;
        t
    }

    /// Bulk load key-sorted `(key, value)` entries into an empty store,
    /// leaving leaves 10% slack for in-place growth.
    pub fn bulk_load<I, K, V>(&mut self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let VertexStore::B(t) = self;
        t.bulk_load(entries, 0.9)
    }

    /// Write back the store's dirty pages.
    pub fn flush(&mut self) -> Result<()> {
        self.tree().flush()
    }

    /// Forward-only read-write row cursor: the one access path to the rows
    /// (see the module docs).
    pub fn cursor(&mut self) -> RowCursor<'_> {
        let VertexStore::B(t) = self;
        t.cursor()
    }

    /// Insert or replace the row under `key` through a fresh cursor, which
    /// is on no row: the tree's put, one descent from the root per call.
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

impl LoadedGraph {
    /// Point read: one vertex by vid, through a seek of its partition's row
    /// cursor, without materialising anything else.
    pub fn probe_vertex<P: VertexProgram>(&self, vid: Vid) -> Result<Option<VertexData<P>>> {
        if self.partitions.is_empty() {
            return Ok(None);
        }
        let p = hash_partition(vid, self.partitions.len());
        let mut st = self.partitions[p].lock();
        let mut cur = st.store.cursor();
        if !cur.seek(&vid_to_key(vid))? {
            return Ok(None);
        }
        Ok(Some(VertexData::decode(vid, cur.value())?))
    }

    /// Range read: all vertices with `lo <= vid <= hi`, ascending. Each
    /// partition's row cursor seeks `lo` (a single descent), walks on in
    /// key order and stops past `hi`; results merge across partitions by
    /// vid.
    pub fn range_vertices<P: VertexProgram>(&self, lo: Vid, hi: Vid) -> Result<Vec<VertexData<P>>> {
        let mut out = Vec::new();
        for state in &self.partitions {
            let mut st = state.lock();
            let mut cur = st.store.cursor();
            let mut on_row = cur.seek(&vid_to_key(lo))? || cur.next()?;
            while on_row {
                let vid = tuple_vid(cur.key())?;
                if vid > hi {
                    break;
                }
                out.push(VertexData::<P>::decode(vid, cur.value())?);
                on_row = cur.next()?;
            }
        }
        out.sort_by_key(|v| v.vid);
        Ok(out)
    }

    /// Read back all vertices as decoded data, sorted by vid (test/bench
    /// convenience; materialises the whole graph).
    pub fn collect_vertices<P: VertexProgram>(&self) -> Result<Vec<VertexData<P>>> {
        self.range_vertices(0, Vid::MAX)
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

    fn store(w: &WorkerHandle) -> VertexStore {
        VertexStore::create(VertexStorageKind::BTree, w).unwrap()
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

    /// A point lookup: a fresh cursor's seek, one descent from the root.
    fn search(s: &mut VertexStore, key: &[u8]) -> Option<Vec<u8>> {
        let mut cur = s.cursor();
        cur.seek(key).unwrap().then(|| cur.value().to_vec())
    }

    #[test]
    fn cursor_writes_inserts_and_deletes_rows() {
        let (_c, w) = worker();
        let mut s = store(&w);
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
        assert!(cur.delete().is_err(), "no row to delete");
        drop(cur);
        assert_eq!(search(&mut s, &k(5)).unwrap(), b"changed");
        assert_eq!(search(&mut s, &k(200)).unwrap(), b"new");
        assert_eq!(search(&mut s, &k(7)), None);
        // Ordered, -1 +1 rows.
        let keys: Vec<_> = rows(&mut s).into_iter().map(|(key, _)| key).collect();
        assert!(keys.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn probe_cursor_matches_search() {
        let (_c, w) = worker();
        let mut s = store(&w);
        s.bulk_load((0..500u64).map(|v| (k(v * 2), v.to_le_bytes().to_vec())))
            .unwrap();
        let mut model: std::collections::BTreeMap<u64, Vec<u8>> =
            (0..500u64).map(|v| (v * 2, v.to_le_bytes().to_vec())).collect();
        let mut cur = s.cursor();
        assert!(cur.seek(&k(100)).unwrap());
        cur.delete().unwrap();
        cur.insert(&k(101), b"odd").unwrap();
        drop(cur);
        model.remove(&100);
        model.insert(101, b"odd".to_vec());
        for step in [1, 7] {
            let keys: Vec<u64> = (0..1100u64).step_by(step).collect();
            let expect: Vec<_> = keys.iter().map(|&key| search(&mut s, &k(key))).collect();
            let mut cur = s.cursor();
            for (key, want) in keys.iter().zip(&expect) {
                assert_eq!(want.as_ref(), model.get(key), "key {key}");
                let found = cur.seek(&k(*key)).unwrap();
                assert_eq!(found, want.is_some(), "key {key}");
                if found {
                    assert_eq!(cur.value(), want.as_deref().unwrap(), "key {key}");
                }
            }
        }
    }

    #[test]
    fn flush_is_safe() {
        let (_c, w) = worker();
        let mut s = store(&w);
        s.cursor().insert(&k(1), b"v").unwrap();
        s.flush().unwrap();
        assert_eq!(rows(&mut s), vec![(k(1), b"v".to_vec())]);
    }
}

