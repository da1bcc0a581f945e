//! The LSM B-tree access method.
//!
//! §5.2: "An LSM B-tree index performs well when the size of vertex data is
//! changed drastically from superstep to superstep, or when the algorithm
//! performs frequent graph mutations, e.g., the path merging algorithm in
//! genome assemblers."
//!
//! Structure: one in-memory component (a `BTreeMap` holding live values and
//! tombstones, charged against a budget) plus a stack of immutable on-disk
//! components, each a bulk-loaded [`BTree`]. Updates and deletes go to the
//! in-memory component; when it exceeds its budget it is flushed to a new
//! disk component. When the number of disk components exceeds the merge
//! threshold they are merged into one (a *full* merge, so tombstones can be
//! dropped). Lookups consult newest-to-oldest; scans k-way-merge all
//! components with newest-wins semantics.
//!
//! Disk-component values are tagged: `0` = live value bytes follow, `1` =
//! tombstone.
//!
//! Every disk component carries a [`BloomFilter`] over its keys, built while
//! the component is bulk-loaded and persisted in the component's own file as
//! a meta-page sidecar ([`BTree::write_sidecar`]), so point lookups — and the
//! row cursor's sorted seeks — can skip components that provably do not
//! contain the key. Point lookups always stop at the first component
//! (newest first) that stores the key, whether the entry is a live value or
//! a tombstone: older components can only hold shadowed versions.

use crate::bloom::BloomFilter;
use crate::btree::{BTree, BTreeScanner, LeafPos};
use crate::cache::BufferCache;
use pregelix_common::error::{PregelixError, Result};
use std::collections::{BTreeMap, VecDeque};

const LIVE: u8 = 0;
const TOMBSTONE: u8 = 1;

/// Bounds on the rows an [`LsmRowCursor`] gathers ahead of its position, so
/// the fused scan-compute-update operator's footprint stays bounded
/// regardless of partition size.
const GATHER_MAX_BYTES: usize = 256 * 1024;
const GATHER_MAX_ROWS: usize = 1024;

/// An immutable on-disk component: a bulk-loaded B-tree plus the bloom
/// filter over its keys. The filter is `None` only if the component was
/// written by a version without filters (the sidecar is absent).
struct DiskComponent {
    tree: BTree,
    bloom: Option<BloomFilter>,
}

impl DiskComponent {
    /// Bulk-load `entries` (already LSM-encoded, key-sorted) into a fresh
    /// component, building and persisting the bloom filter alongside.
    fn build(cache: &BufferCache, entries: Vec<(Vec<u8>, Vec<u8>)>) -> Result<DiskComponent> {
        let mut bloom = BloomFilter::with_capacity(entries.len());
        for (key, _) in &entries {
            bloom.insert(key);
        }
        let mut tree = BTree::create(cache.clone())?;
        tree.bulk_load(entries, 1.0)?;
        tree.write_sidecar(&bloom.to_bytes())?;
        tree.flush()?;
        Ok(DiskComponent {
            tree,
            bloom: Some(bloom),
        })
    }
}

/// An LSM B-tree bound to a worker's buffer cache.
pub struct LsmBTree {
    cache: BufferCache,
    mem: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    mem_bytes: usize,
    mem_budget: usize,
    /// Disk components, newest last.
    components: Vec<DiskComponent>,
    merge_threshold: usize,
}

impl LsmBTree {
    /// Create an empty LSM tree. `mem_budget` bounds the in-memory
    /// component; `merge_threshold` caps the number of disk components
    /// before a full merge.
    pub fn create(cache: BufferCache, mem_budget: usize, merge_threshold: usize) -> LsmBTree {
        LsmBTree {
            cache,
            mem: BTreeMap::new(),
            mem_bytes: 0,
            mem_budget: mem_budget.max(4096),
            components: Vec::new(),
            merge_threshold: merge_threshold.max(2),
        }
    }

    /// Bulk load key-sorted entries as the initial disk component. The tree
    /// must be empty. This is the graph-load and checkpoint-recovery path
    /// for LSM-backed `Vertex` partitions.
    pub fn bulk_load<I, K, V>(&mut self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        debug_assert!(self.mem.is_empty() && self.components.is_empty());
        let entries: Vec<_> = entries
            .into_iter()
            .map(|(k, v)| (k.as_ref().to_vec(), encode(Some(v.as_ref()))))
            .collect();
        let comp = DiskComponent::build(&self.cache, entries)?;
        self.components.push(comp);
        Ok(())
    }

    /// Number of on-disk components (diagnostics / tests).
    pub fn disk_components(&self) -> usize {
        self.components.len()
    }

    /// The disk components' B-trees, oldest first.
    pub fn trees(&self) -> impl Iterator<Item = &BTree> {
        self.components.iter().map(|c| &c.tree)
    }

    /// Bytes held by the in-memory component.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    fn charge(&mut self, key: &[u8], value: Option<&[u8]>) {
        self.mem_bytes += key.len() + value.map_or(0, |v| v.len()) + 48;
    }

    /// Insert or replace a key.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.mem_put(key, Some(value));
        self.maybe_flush()
    }

    /// Delete a key (tombstone). Deleting an absent key is a no-op that
    /// still writes a tombstone, matching LSM semantics.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.mem_put(key, None);
        self.maybe_flush()
    }

    /// Record a value or tombstone in the in-memory component only.
    fn mem_put(&mut self, key: &[u8], value: Option<&[u8]>) {
        self.charge(key, value);
        self.mem.insert(key.to_vec(), value.map(<[u8]>::to_vec));
    }

    /// Point lookup across all components, newest first.
    ///
    /// Early exit: the first component that stores the key — whether a live
    /// value or a tombstone — decides the lookup, and older components are
    /// never consulted (they can only hold shadowed versions). Components
    /// whose bloom filter proves the key absent are skipped without a
    /// descent (`bloom_negatives`); a filter that says "maybe" but whose
    /// B-tree lacks the key costs a wasted descent (`bloom_false_positives`).
    pub fn search(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(entry) = self.mem.get(key) {
            return Ok(entry.clone());
        }
        let counters = self.cache.counters();
        for comp in self.components.iter().rev() {
            if let Some(bloom) = &comp.bloom {
                if !bloom.contains(key) {
                    counters.add_bloom_negatives(1);
                    continue;
                }
            }
            if let Some(stored) = comp.tree.search(key)? {
                return decode(&stored);
            }
            if comp.bloom.is_some() {
                counters.add_bloom_false_positives(1);
            }
        }
        Ok(None)
    }

    /// Fresh (unpinned) positions, one per disk component.
    fn new_probes(&self) -> Vec<LeafPos> {
        self.components.iter().map(|_| LeafPos::default()).collect()
    }

    /// [`LsmBTree::search`] for the row cursor's seeks: decode the live
    /// value under `key` into `out` and report whether there is one, with
    /// the same newest-first early exit and bloom gating. `probes` holds one
    /// pinned-path position per disk component (same order as `components`);
    /// each sees a subsequence of the caller's keys, so non-decreasing keys
    /// keep every position's monotonicity invariant, and a lookup into a
    /// component is answered from its pinned leaf or descends from the
    /// lowest pinned page whose range covers the key.
    fn lookup(&self, probes: &mut [LeafPos], key: &[u8], out: &mut Vec<u8>) -> Result<bool> {
        if let Some(entry) = self.mem.get(key) {
            out.clear();
            out.extend_from_slice(entry.as_deref().unwrap_or_default());
            return Ok(entry.is_some());
        }
        let counters = self.cache.counters();
        for (comp, pos) in self.components.iter().zip(probes).rev() {
            if let Some(bloom) = &comp.bloom {
                if !bloom.contains(key) {
                    counters.add_bloom_negatives(1);
                    continue;
                }
            }
            if pos.probe_into(&comp.tree, key, out)? {
                return match out.first() {
                    Some(&LIVE) => {
                        out.remove(0);
                        Ok(true)
                    }
                    Some(&TOMBSTONE) => Ok(false),
                    _ => Err(PregelixError::corrupt("empty LSM component value")),
                };
            }
            if comp.bloom.is_some() {
                counters.add_bloom_false_positives(1);
            }
        }
        Ok(false)
    }

    /// Forward-only read-write cursor over the live rows (see
    /// [`LsmRowCursor`]).
    pub fn cursor(&mut self) -> LsmRowCursor<'_> {
        LsmRowCursor {
            probes: self.new_probes(),
            lsm: self,
            ahead: VecDeque::new(),
            exhausted: false,
            key: Vec::new(),
            value: Vec::new(),
            found: false,
            started: false,
        }
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.mem_bytes > self.mem_budget {
            self.flush_mem()?;
        }
        if self.components.len() > self.merge_threshold {
            self.merge_all()?;
        }
        Ok(())
    }

    /// Flush the in-memory component to a new disk component. Public so
    /// checkpointing can force a flush (§5.5).
    pub fn flush_mem(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let entries: Vec<_> = std::mem::take(&mut self.mem)
            .into_iter()
            .map(|(k, v)| (k, encode(v.as_deref())))
            .collect();
        let comp = DiskComponent::build(&self.cache, entries)?;
        self.mem_bytes = 0;
        self.components.push(comp);
        Ok(())
    }

    /// Merge all disk components into one, dropping tombstones (a full merge
    /// sees every component, so a tombstone can never shadow anything
    /// older than itself).
    pub fn merge_all(&mut self) -> Result<()> {
        if self.components.len() <= 1 {
            return Ok(());
        }
        let old = std::mem::take(&mut self.components);
        let merged_entries = {
            let mut scanners: Vec<BTreeScanner<'_>> = Vec::with_capacity(old.len());
            for c in &old {
                scanners.push(c.tree.scan()?);
            }
            // newest-wins k-way merge; scanner index = age (larger = newer).
            let mut heads: Vec<Option<(Vec<u8>, Vec<u8>)>> = Vec::new();
            for s in &mut scanners {
                heads.push(s.next_entry()?);
            }
            let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            loop {
                // Find the minimal key among heads; among equals, the newest
                // component (highest index) wins and the rest are skipped.
                let mut min_key: Option<&[u8]> = None;
                for h in heads.iter().flatten() {
                    match min_key {
                        None => min_key = Some(&h.0),
                        Some(mk) if h.0.as_slice() < mk => min_key = Some(&h.0),
                        _ => {}
                    }
                }
                let Some(min_key) = min_key.map(|k| k.to_vec()) else {
                    break;
                };
                let mut winner: Option<Vec<u8>> = None;
                for (i, h) in heads.iter_mut().enumerate() {
                    if let Some((k, v)) = h {
                        if *k == min_key {
                            winner = Some(std::mem::take(v)); // later i overwrite: newest wins
                            *h = scanners[i].next_entry()?;
                        }
                    }
                }
                let stored = winner.expect("some head matched min key");
                if stored.first() == Some(&LIVE) {
                    out.push((min_key, stored));
                }
            }
            out
        };
        let merged = DiskComponent::build(&self.cache, merged_entries)?;
        for c in old {
            c.tree.destroy()?;
        }
        self.components.push(merged);
        Ok(())
    }

    /// Ordered scan over live entries across all components.
    pub(crate) fn scan(&self) -> Result<LsmScanner<'_>> {
        let mut scanners = Vec::with_capacity(self.components.len());
        let mut heads = Vec::with_capacity(self.components.len());
        for c in &self.components {
            let mut s = c.tree.scan()?;
            heads.push(s.next_entry()?);
            scanners.push(s);
        }
        Ok(LsmScanner {
            mem: self.mem.range::<Vec<u8>, _>(..),
            mem_head: None,
            scanners,
            heads,
            primed: false,
        })
    }

    /// Ordered scan over live entries with key `>= from`.
    pub(crate) fn scan_from(&self, from: &[u8]) -> Result<LsmScanner<'_>> {
        let mut scanners = Vec::with_capacity(self.components.len());
        let mut heads = Vec::with_capacity(self.components.len());
        for c in &self.components {
            let mut s = c.tree.scan_from(from)?;
            heads.push(s.next_entry()?);
            scanners.push(s);
        }
        Ok(LsmScanner {
            mem: self.mem.range::<Vec<u8>, _>(from.to_vec()..),
            mem_head: None,
            scanners,
            heads,
            primed: false,
        })
    }
}

fn encode(value: Option<&[u8]>) -> Vec<u8> {
    match value {
        Some(v) => {
            let mut out = Vec::with_capacity(1 + v.len());
            out.push(LIVE);
            out.extend_from_slice(v);
            out
        }
        None => vec![TOMBSTONE],
    }
}

fn decode(stored: &[u8]) -> Result<Option<Vec<u8>>> {
    match stored.first() {
        Some(&LIVE) => Ok(Some(stored[1..].to_vec())),
        Some(&TOMBSTONE) => Ok(None),
        _ => Err(PregelixError::corrupt("empty LSM component value")),
    }
}

/// Ordered merged scanner over an [`LsmBTree`]'s live entries.
pub(crate) struct LsmScanner<'a> {
    mem: std::collections::btree_map::Range<'a, Vec<u8>, Option<Vec<u8>>>,
    mem_head: Option<(&'a Vec<u8>, &'a Option<Vec<u8>>)>,
    scanners: Vec<BTreeScanner<'a>>,
    heads: Vec<Option<(Vec<u8>, Vec<u8>)>>,
    primed: bool,
}

impl LsmScanner<'_> {
    /// The next live `(key, value)`, or `None` at the end.
    pub(crate) fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if !self.primed {
            self.mem_head = self.mem.next();
            self.primed = true;
        }
        loop {
            // Minimum key across mem head and component heads.
            let mut min_key: Option<Vec<u8>> = self.mem_head.map(|(k, _)| k.clone());
            for h in self.heads.iter().flatten() {
                match &min_key {
                    None => min_key = Some(h.0.clone()),
                    Some(mk) if h.0 < *mk => min_key = Some(h.0.clone()),
                    _ => {}
                }
            }
            let Some(min_key) = min_key else {
                return Ok(None);
            };
            // Resolve winner: mem beats disk; among disk, newest (highest
            // index) wins. Advance every source positioned at min_key.
            let mut winner: Option<Option<Vec<u8>>> = None;
            for (i, h) in self.heads.iter_mut().enumerate() {
                if let Some((k, v)) = h {
                    if *k == min_key {
                        winner = Some(decode(v)?);
                        *h = self.scanners[i].next_entry()?;
                    }
                }
            }
            if let Some((k, v)) = self.mem_head {
                if *k == min_key {
                    winner = Some(v.clone());
                    self.mem_head = self.mem.next();
                }
            }
            match winner.expect("some source matched min key") {
                Some(value) => return Ok(Some((min_key, value))),
                None => continue, // tombstoned: skip
            }
        }
    }
}

/// Forward-only read-write cursor over an [`LsmBTree`]'s live rows: the
/// same contract as [`crate::btree::RowCursor`] — `next` yields the smallest
/// key greater than the position in the tree as it is now, `seek` jumps to a
/// key at or after it, the current row's key and value are lent from the
/// cursor's buffers — on a store that has no slot to write back into. Every
/// write is an in-memory-component insert.
///
/// A memtable insert under a live merged scan is not safe (the scanner
/// borrows the memtable and pins a leaf per component), so `next` never
/// holds one across calls: it gathers a bounded run of rows ahead of the
/// position, drops the scan, and serves from the run; writes meanwhile go
/// straight to the memtable. `seek` keeps one pinned path per disk component
/// ([`LsmBTree::lookup`]); those pins are dropped before a write flushes the
/// memtable or merges components.
pub struct LsmRowCursor<'a> {
    lsm: &'a mut LsmBTree,
    /// Per-disk-component positions of the seek path.
    probes: Vec<LeafPos>,
    /// Rows gathered ahead of the position by the last bounded scan.
    ahead: VecDeque<(Vec<u8>, Vec<u8>)>,
    /// The last gather reached the end of the tree.
    exhausted: bool,
    /// The position: the current row's key, or the last key sought.
    key: Vec<u8>,
    /// The current row's value (valid while `found`).
    value: Vec<u8>,
    /// Whether the cursor is on a row.
    found: bool,
    /// `false` until the first move: the position is before every row.
    started: bool,
}

impl LsmRowCursor<'_> {
    /// Move to the next live row in key order; `false` at the end.
    // Not `Iterator::next`: the row is lent from the cursor's own buffers.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<bool> {
        if self.ahead.is_empty() && !self.exhausted {
            self.gather()?;
        }
        self.started = true;
        self.found = match self.ahead.pop_front() {
            Some((key, value)) => {
                self.key = key;
                self.value = value;
                true
            }
            None => false,
        };
        Ok(self.found)
    }

    /// Scan a bounded run of rows after the position into `ahead`.
    fn gather(&mut self) -> Result<()> {
        let mut scan = if self.started {
            // The smallest byte string greater than the position.
            let mut after = self.key.clone();
            after.push(0);
            self.lsm.scan_from(&after)?
        } else {
            self.lsm.scan()?
        };
        let mut bytes = 0;
        while bytes < GATHER_MAX_BYTES && self.ahead.len() < GATHER_MAX_ROWS {
            let Some((key, value)) = scan.next_entry()? else {
                self.exhausted = true;
                break;
            };
            bytes += key.len() + value.len() + 16;
            self.ahead.push_back((key, value));
        }
        Ok(())
    }

    /// Move to `key`, which must not be before the position; returns whether
    /// a live row is stored under it.
    pub fn seek(&mut self, key: &[u8]) -> Result<bool> {
        debug_assert!(
            !self.started || self.key.as_slice() <= key,
            "seek keys must be non-decreasing"
        );
        self.started = true;
        self.ahead.clear();
        self.exhausted = false;
        self.key.clear();
        self.key.extend_from_slice(key);
        self.found = self.lsm.lookup(&mut self.probes, key, &mut self.value)?;
        Ok(self.found)
    }

    /// Key of the position: the current row's, or the last key sought.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// Value of the current row.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.found, "no current row");
        &self.value
    }

    fn require_row(&self) -> Result<()> {
        if self.found {
            Ok(())
        } else {
            Err(PregelixError::internal("row cursor is not on a row"))
        }
    }

    /// After a memtable insert that filled the memtable: the seek path's
    /// pins go before the flush (and a possible merge) restructures the
    /// components.
    fn flush_if_full(&mut self) -> Result<()> {
        if self.lsm.mem_bytes > self.lsm.mem_budget {
            self.probes.clear();
            self.lsm.maybe_flush()?;
            self.probes = self.lsm.new_probes();
        }
        Ok(())
    }

    /// Overwrite the first `head.len()` bytes of the current row's value.
    pub fn write_head(&mut self, head: &[u8]) -> Result<()> {
        self.require_row()?;
        if head.len() > self.value.len() {
            return Err(PregelixError::internal("row head longer than the row"));
        }
        self.value[..head.len()].copy_from_slice(head);
        self.store_current()
    }

    /// Replace the current row's value.
    pub fn write(&mut self, value: &[u8]) -> Result<()> {
        self.require_row()?;
        self.value.clear();
        self.value.extend_from_slice(value);
        self.store_current()
    }

    /// Put the buffered value of the current row into the memtable.
    fn store_current(&mut self) -> Result<()> {
        self.lsm.mem_put(&self.key, Some(&self.value));
        self.flush_if_full()
    }

    /// Insert or replace the row under `key`, anywhere in the tree. The
    /// current row stays current; a key after the position is met by a
    /// later [`LsmRowCursor::next`].
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.found && key == self.key.as_slice() {
            return self.write(value);
        }
        if key > self.key.as_slice() {
            // The gathered run no longer shows what lies ahead.
            self.ahead.clear();
            self.exhausted = false;
        }
        self.lsm.mem_put(key, Some(value));
        self.flush_if_full()
    }

    /// Delete the current row; the cursor stays at its key, between rows.
    pub fn delete(&mut self) -> Result<()> {
        self.require_row()?;
        self.found = false;
        self.lsm.mem_put(&self.key, None);
        self.flush_if_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BufferCache;
    use crate::file::{FileManager, TempDir};
    use pregelix_common::stats::ClusterCounters;
    use rand::prelude::*;
    use std::collections::BTreeMap as Model;

    fn make(mem_budget: usize) -> (LsmBTree, TempDir) {
        let dir = TempDir::new("lsm").unwrap();
        let fm = FileManager::new(dir.path(), 256, ClusterCounters::new()).unwrap();
        let cache = BufferCache::new(fm, 128);
        (LsmBTree::create(cache, mem_budget, 3), dir)
    }

    fn k(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    /// Live entries, by a full scan.
    fn count(t: &LsmBTree) -> usize {
        let mut scan = t.scan().unwrap();
        std::iter::from_fn(|| scan.next_entry().unwrap()).count()
    }

    #[test]
    fn mem_only_upsert_search_delete() {
        let (mut t, _d) = make(1 << 20);
        t.upsert(&k(1), b"a").unwrap();
        t.upsert(&k(2), b"b").unwrap();
        t.upsert(&k(1), b"a2").unwrap();
        assert_eq!(t.search(&k(1)).unwrap().unwrap(), b"a2");
        t.delete(&k(1)).unwrap();
        assert_eq!(t.search(&k(1)).unwrap(), None);
        assert!(t.search(&k(2)).unwrap().is_some());
        assert_eq!(t.disk_components(), 0);
    }

    #[test]
    fn flush_moves_data_to_disk_component() {
        let (mut t, _d) = make(1 << 20);
        for v in 0..100u64 {
            t.upsert(&k(v), &v.to_le_bytes()).unwrap();
        }
        t.flush_mem().unwrap();
        assert_eq!(t.disk_components(), 1);
        assert_eq!(t.mem_bytes(), 0);
        assert_eq!(t.search(&k(42)).unwrap().unwrap(), 42u64.to_le_bytes());
        assert_eq!(count(&t), 100);
    }

    #[test]
    fn tombstones_shadow_older_components() {
        let (mut t, _d) = make(1 << 20);
        t.upsert(&k(7), b"old").unwrap();
        t.flush_mem().unwrap();
        t.delete(&k(7)).unwrap();
        t.flush_mem().unwrap();
        assert_eq!(t.disk_components(), 2);
        assert_eq!(t.search(&k(7)).unwrap(), None, "tombstone must shadow");
        assert_eq!(count(&t), 0);
        // After a full merge the tombstone is dropped entirely.
        t.merge_all().unwrap();
        assert_eq!(t.disk_components(), 1);
        assert_eq!(t.search(&k(7)).unwrap(), None);
    }

    #[test]
    fn newest_component_wins() {
        let (mut t, _d) = make(1 << 20);
        t.upsert(&k(1), b"v1").unwrap();
        t.flush_mem().unwrap();
        t.upsert(&k(1), b"v2").unwrap();
        t.flush_mem().unwrap();
        t.upsert(&k(1), b"v3").unwrap(); // in mem
        assert_eq!(t.search(&k(1)).unwrap().unwrap(), b"v3");
        let mut scan = t.scan().unwrap();
        let (key, val) = scan.next_entry().unwrap().unwrap();
        assert_eq!(key, k(1));
        assert_eq!(val, b"v3");
        assert!(scan.next_entry().unwrap().is_none());
    }

    #[test]
    fn automatic_flush_and_merge_under_tiny_budget() {
        let (mut t, _d) = make(4096);
        for v in 0..3000u64 {
            t.upsert(&k(v), &[7u8; 16]).unwrap();
        }
        // Budget forces flushes; threshold forces merges.
        assert!(t.disk_components() <= 4, "merges must bound components");
        assert_eq!(count(&t), 3000);
        assert_eq!(t.search(&k(2999)).unwrap().unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn scan_is_sorted_and_deduplicated() {
        let (mut t, _d) = make(4096);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let v = rng.gen_range(0..500u64);
            t.upsert(&k(v), &v.to_le_bytes()).unwrap();
        }
        let mut scan = t.scan().unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut n = 0;
        while let Some((key, _)) = scan.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(*p < key, "scan must be strictly ascending");
            }
            prev = Some(key);
            n += 1;
        }
        assert!(n <= 500);
    }

    /// Satellite regression: a tombstone in a newer component must decide
    /// the lookup without the older components being consulted at all.
    #[test]
    fn tombstone_early_exit_skips_older_components() {
        let (mut t, _d) = make(1 << 20);
        for v in 0..200u64 {
            t.upsert(&k(v), b"old").unwrap();
        }
        t.flush_mem().unwrap();
        t.delete(&k(50)).unwrap();
        t.flush_mem().unwrap();
        assert_eq!(t.disk_components(), 2);
        assert_eq!(t.search(&k(50)).unwrap(), None, "tombstone must shadow");
        // Page-pin accounting proves the early exit: the lookup must cost
        // one descent into the newest (tiny) component, never a second into
        // the older one. Both blooms contain key 50, so a missing early
        // exit would pay both descents.
        let c = t.cache.counters().clone();
        let newest_height = t.components.last().unwrap().tree.height() as u64;
        let older_height = t.components.first().unwrap().tree.height() as u64;
        let before = c.snapshot();
        assert_eq!(t.search(&k(50)).unwrap(), None);
        let d = c.snapshot().delta_since(&before);
        let pins = d.cache_hits + d.cache_misses;
        assert!(
            pins <= newest_height + 1,
            "tombstone lookup must stop at the newest component: \
             {pins} pins (newest height {newest_height}, older height {older_height})"
        );
        assert_eq!(d.bloom_false_positives, 0);
    }

    #[test]
    fn bloom_filters_skip_absent_components() {
        let (mut t, _d) = make(1 << 20);
        // Three disjoint key ranges in three disk components.
        for v in 0..100u64 {
            t.upsert(&k(v), b"c0").unwrap();
        }
        t.flush_mem().unwrap();
        for v in 1000..1100u64 {
            t.upsert(&k(v), b"c1").unwrap();
        }
        t.flush_mem().unwrap();
        for v in 2000..2100u64 {
            t.upsert(&k(v), b"c2").unwrap();
        }
        t.flush_mem().unwrap();
        assert_eq!(t.disk_components(), 3);
        let c = t.cache.counters().clone();
        let before = c.snapshot();
        // Keys in the oldest component: the two newer blooms should reject.
        for v in 0..100u64 {
            assert_eq!(t.search(&k(v)).unwrap().unwrap(), b"c0");
        }
        let d = c.snapshot().delta_since(&before);
        assert!(
            d.bloom_negatives >= 150,
            "newer components should be bloom-skipped: {d:?}"
        );
        // Wholly absent keys are (almost always) rejected by every bloom.
        let before = c.snapshot();
        for v in 5000..5100u64 {
            assert_eq!(t.search(&k(v)).unwrap(), None);
        }
        let d = c.snapshot().delta_since(&before);
        assert!(d.bloom_negatives >= 250, "absent keys should be cheap: {d:?}");
    }

    #[test]
    fn probe_cursor_matches_search_across_components() {
        let (mut t, _d) = make(1 << 20);
        // Overlapping components + mem, with deletes: all resolution rules.
        for v in 0..400u64 {
            t.upsert(&k(v * 2), b"base").unwrap();
        }
        t.flush_mem().unwrap();
        for v in 100..300u64 {
            t.upsert(&k(v * 2), b"mid").unwrap();
        }
        for v in 0..50u64 {
            t.delete(&k(v * 2)).unwrap();
        }
        t.flush_mem().unwrap();
        for v in 200..250u64 {
            t.upsert(&k(v * 2), b"newest").unwrap();
        }
        t.flush_mem().unwrap();
        t.upsert(&k(999), b"in-mem").unwrap();
        assert_eq!(t.disk_components(), 3);
        let expect: Vec<_> = (0..1100u64).map(|v| t.search(&k(v)).unwrap()).collect();
        let mut cursor = t.cursor();
        for (probe, want) in (0..1100u64).zip(&expect) {
            let found = cursor.seek(&k(probe)).unwrap();
            let got = found.then(|| cursor.value().to_vec());
            assert_eq!(&got, want, "probe {probe} diverged");
        }
    }

    #[test]
    fn probe_cursor_amortises_descents_and_counts_bloom_skips() {
        let (mut t, _d) = make(1 << 20);
        for v in 0..1000u64 {
            t.upsert(&k(v), &v.to_le_bytes()).unwrap();
        }
        t.flush_mem().unwrap();
        for v in 5000..5100u64 {
            t.upsert(&k(v), b"x").unwrap();
        }
        t.flush_mem().unwrap();
        for v in 6000..6100u64 {
            t.upsert(&k(v), b"y").unwrap();
        }
        t.flush_mem().unwrap();
        assert_eq!(t.disk_components(), 3);
        let c = t.cache.counters().clone();
        let before = c.snapshot();
        let mut cursor = t.cursor();
        for v in 0..1000u64 {
            assert!(cursor.seek(&k(v)).unwrap());
            assert_eq!(cursor.value(), v.to_le_bytes());
        }
        let d = c.snapshot().delta_since(&before);
        assert!(d.bloom_negatives > 0, "newer components must be skipped");
        assert!(
            d.probe_redescents <= 10,
            "sorted probes into one component should re-descend rarely: {d:?}"
        );
        assert!(d.probe_leaf_hits > 900, "{d:?}");
    }

    /// The bloom filter is persisted as the component's sidecar and survives
    /// a reopen of the component file.
    #[test]
    fn bloom_persists_with_component() {
        let (mut t, _d) = make(1 << 20);
        for v in 0..500u64 {
            t.upsert(&k(v), b"v").unwrap();
        }
        t.flush_mem().unwrap();
        let comp = t.components.last().unwrap();
        let original = comp.bloom.clone().unwrap();
        let cache = comp.tree.cache().clone();
        let file = comp.tree.file();
        cache.purge_file(file, true).unwrap();
        let reopened = BTree::open(cache, file).unwrap();
        let blob = reopened.read_sidecar().unwrap().expect("sidecar present");
        let restored = BloomFilter::from_bytes(&blob).unwrap();
        assert_eq!(restored, original);
        for v in 0..500u64 {
            assert!(restored.contains(&k(v)));
        }
    }

    #[test]
    fn randomised_against_model_with_mutation_heavy_workload() {
        // This is the genome-assembly access pattern: interleaved inserts
        // and deletes with value sizes that change drastically (§5.2).
        let (mut t, _d) = make(2048);
        let mut model: Model<u64, Vec<u8>> = Model::new();
        let mut rng = StdRng::seed_from_u64(77);
        for step in 0..4000u64 {
            let key = rng.gen_range(0..600u64);
            if rng.gen_bool(0.7) {
                let val = vec![(step % 256) as u8; rng.gen_range(1..64)];
                t.upsert(&k(key), &val).unwrap();
                model.insert(key, val);
            } else {
                t.delete(&k(key)).unwrap();
                model.remove(&key);
            }
        }
        for key in 0..600u64 {
            assert_eq!(
                t.search(&k(key)).unwrap(),
                model.get(&key).cloned(),
                "mismatch at key {key}"
            );
        }
        // Full scan equivalence.
        let mut scan = t.scan().unwrap();
        let mut model_iter = model.iter();
        while let Some((key, val)) = scan.next_entry().unwrap() {
            let (mk, mv) = model_iter.next().expect("model exhausted early");
            assert_eq!(key, k(*mk));
            assert_eq!(&val, mv);
        }
        assert!(model_iter.next().is_none());
    }
}
