//! The buffer cache: a bounded pool of page frames with second-chance (CLOCK)
//! replacement, an approximation of LRU.
//!
//! This is the mechanism behind the paper's transparent out-of-core support
//! (§5.4): "B-trees and LSM-trees both leverage a buffer cache that caches
//! partition pages and gracefully spills to disk only when necessary using a
//! standard replacement policy, i.e., LRU." Access methods never touch the
//! [`FileManager`] directly; they pin pages here, and the pool size — set
//! from the worker's simulated RAM budget — is what decides whether a given
//! workload runs memory-resident or disk-based.
//!
//! Replacement approximates LRU the way production buffer managers do:
//! every resident, unpinned page sits in its stripe's queue exactly once, in
//! the order it was first unpinned. A later unpin only marks the page
//! referenced; eviction pops the front, and a referenced page loses the mark
//! and goes to the back (its second chance) instead of leaving. The queue
//! therefore holds at most one entry per resident page however often a page
//! is pinned, and a page touched since it was queued outlives one that was
//! not.
//!
//! The cache is **lock-striped**: pages hash by `(FileId, PageId)` onto one
//! of N independent stripes, each owning its own map, queue and share of
//! the page budget. Concurrent workers probing their B-trees during the
//! index join of a superstep therefore contend only when they touch the same
//! stripe, not on one global mutex — the same reason production buffer
//! managers partition their latch space. Striping the budget slightly
//! relaxes global LRU (each stripe evicts locally), which is an accepted
//! trade for removing the serialization point.

use crate::file::{FileId, FileManager, PageId};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use pregelix_common::error::Result;
use pregelix_common::fault::{self, Site};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Default stripe count. Eight matches the worker thread counts used by the
/// scaling experiments; contention halves roughly linearly in stripes.
pub const DEFAULT_CACHE_STRIPES: usize = 8;

/// A page resident in the cache. The two flags are only read or written
/// under the owning stripe's lock.
struct PageSlot {
    key: (FileId, PageId),
    pins: AtomicU32,
    dirty: AtomicBool,
    /// Whether the page has its one entry in the stripe's queue.
    queued: AtomicBool,
    /// Unpinned again since it was queued (or since its last second chance).
    referenced: AtomicBool,
    data: RwLock<Vec<u8>>,
}

struct CacheState {
    map: HashMap<(FileId, PageId), Arc<PageSlot>>,
    /// Second-chance queue: one entry per page whose `queued` flag is set.
    queue: VecDeque<(FileId, PageId)>,
}

/// One lock-striped segment: an independent map + queue + page budget share.
struct Stripe {
    capacity: usize,
    state: Mutex<CacheState>,
}

struct Inner {
    fm: FileManager,
    capacity: usize,
    stripes: Vec<Stripe>,
}

/// Shared handle to a worker's buffer cache. Cheap to clone.
#[derive(Clone)]
pub struct BufferCache {
    inner: Arc<Inner>,
}

impl BufferCache {
    /// Create a cache over `fm` holding at most `capacity_pages` unpinned
    /// pages, striped over [`DEFAULT_CACHE_STRIPES`] segments. A capacity of
    /// at least 8 pages is enforced so that a single B-tree root-to-leaf
    /// path plus a bulk load's open right edge always fits (and every
    /// stripe gets a non-zero budget).
    pub fn new(fm: FileManager, capacity_pages: usize) -> Self {
        Self::with_stripes(fm, capacity_pages, DEFAULT_CACHE_STRIPES)
    }

    /// Create a cache with an explicit stripe count. `stripes = 1` degrades
    /// to the single-mutex layout (useful for contention benchmarks).
    pub fn with_stripes(fm: FileManager, capacity_pages: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let capacity = capacity_pages.max(8).max(stripes);
        // Split the budget evenly; the first `capacity % stripes` stripes
        // absorb the remainder so shares sum exactly to `capacity`.
        let base = capacity / stripes;
        let extra = capacity % stripes;
        let stripes = (0..stripes)
            .map(|i| Stripe {
                capacity: base + usize::from(i < extra),
                state: Mutex::new(CacheState {
                    map: HashMap::new(),
                    queue: VecDeque::new(),
                }),
            })
            .collect();
        BufferCache {
            inner: Arc::new(Inner {
                fm,
                capacity,
                stripes,
            }),
        }
    }

    /// Build a cache whose page budget is `budget_bytes` of the worker's
    /// simulated RAM.
    pub fn with_byte_budget(fm: FileManager, budget_bytes: usize) -> Self {
        let pages = budget_bytes / fm.page_size();
        Self::new(fm, pages)
    }

    /// The underlying file manager.
    pub fn file_manager(&self) -> &FileManager {
        &self.inner.fm
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.fm.page_size()
    }

    /// The counter set receiving I/O accounting.
    pub fn counters(&self) -> &pregelix_common::stats::ClusterCounters {
        self.inner.fm.counters()
    }

    /// Maximum resident pages (summed over stripes).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.inner.stripes.len()
    }

    /// Pages currently resident (summed over stripes).
    pub fn resident(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.state.lock().map.len())
            .sum()
    }

    /// The stripe owning `(file, page)`. A Fibonacci multiplicative hash of
    /// both components spreads sequential page ids of one file across all
    /// stripes (sequential scans would otherwise hammer one segment).
    #[inline]
    fn stripe(&self, file: FileId, page: PageId) -> &Stripe {
        let h = (file.0 ^ page.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (h >> 32) as usize % self.inner.stripes.len();
        &self.inner.stripes[idx]
    }

    /// Pin an existing page, reading it from disk on a miss.
    pub fn pin(&self, file: FileId, page: PageId) -> Result<PageGuard> {
        let counters = self.inner.fm.counters().clone();
        {
            let state = self.stripe(file, page).state.lock();
            if let Some(slot) = state.map.get(&(file, page)) {
                slot.pins.fetch_add(1, Ordering::Relaxed);
                counters.add_cache_hits(1);
                let slot = Arc::clone(slot);
                drop(state);
                return Ok(PageGuard {
                    cache: self.clone(),
                    slot,
                });
            }
        }
        counters.add_cache_misses(1);
        // Read outside the lock, then insert (racing pins of the same page
        // are resolved by re-checking the map).
        let mut buf = vec![0u8; self.page_size()];
        self.inner.fm.read_page(file, page, &mut buf)?;
        self.insert_slot(file, page, buf, false)
    }

    /// Allocate and pin a fresh page of `file`, zero-initialised and dirty.
    pub fn new_page(&self, file: FileId) -> Result<(PageId, PageGuard)> {
        let page = self.inner.fm.allocate_page(file)?;
        let buf = vec![0u8; self.page_size()];
        let guard = self.insert_slot(file, page, buf, true)?;
        Ok((page, guard))
    }

    fn insert_slot(
        &self,
        file: FileId,
        page: PageId,
        buf: Vec<u8>,
        dirty: bool,
    ) -> Result<PageGuard> {
        let stripe = self.stripe(file, page);
        let mut state = stripe.state.lock();
        // Another thread may have inserted the same page while we were
        // reading it; prefer the existing slot (our read is discarded).
        if let Some(slot) = state.map.get(&(file, page)) {
            slot.pins.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::clone(slot);
            drop(state);
            return Ok(PageGuard {
                cache: self.clone(),
                slot,
            });
        }
        self.evict_to_fit(stripe, &mut state)?;
        let slot = Arc::new(PageSlot {
            key: (file, page),
            pins: AtomicU32::new(1),
            dirty: AtomicBool::new(dirty),
            queued: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
            data: RwLock::new(buf),
        });
        state.map.insert((file, page), Arc::clone(&slot));
        drop(state);
        Ok(PageGuard {
            cache: self.clone(),
            slot,
        })
    }

    /// Evict unpinned pages from one stripe, front of the queue first, until
    /// there is room for one more. A referenced page is moved to the back
    /// instead (its second chance); a pinned one leaves the queue until its
    /// next unpin. If everything is pinned the stripe temporarily overflows
    /// (the pin discipline of the access methods keeps pinned working sets
    /// to a handful of pages).
    fn evict_to_fit(&self, stripe: &Stripe, state: &mut CacheState) -> Result<()> {
        while state.map.len() >= stripe.capacity {
            let mut evicted = false;
            while let Some(key) = state.queue.pop_front() {
                let Some(slot) = state.map.get(&key) else {
                    continue; // purged while pinned, which debug builds reject
                };
                if slot.pins.load(Ordering::Relaxed) != 0 {
                    slot.queued.store(false, Ordering::Relaxed);
                    continue; // pinned; its next unpin re-queues it
                }
                if slot.referenced.swap(false, Ordering::Relaxed) {
                    state.queue.push_back(key);
                    continue;
                }
                // Eviction-under-pressure fault site: the eviction attempt
                // fails before the victim leaves the map (its entry is
                // requeued), so the cache stays consistent and the caller
                // sees a recoverable I/O error. The context is the worker's
                // storage root, so a plan can target one cache instance.
                if fault::active() {
                    let ctx = self.inner.fm.root().to_string_lossy();
                    if fault::hit(Site::CacheEvict, &ctx).is_some() {
                        state.queue.push_front(key);
                        self.inner.fm.counters().add_faults_injected(1);
                        return Err(fault::injected_error(Site::CacheEvict, &ctx));
                    }
                }
                let slot = state.map.remove(&key).expect("checked above");
                // Write back outside the LRU bookkeeping but under the stripe
                // lock: the slot is no longer reachable, so nobody can pin it
                // while we flush.
                if slot.dirty.load(Ordering::Relaxed) {
                    let data = slot.data.read();
                    self.inner.fm.write_page(key.0, key.1, &data)?;
                }
                self.inner.fm.counters().add_cache_evictions(1);
                evicted = true;
                break;
            }
            if !evicted {
                // All resident pages pinned: allow overflow.
                break;
            }
        }
        Ok(())
    }

    fn unpin(&self, slot: &Arc<PageSlot>) {
        let stripe = self.stripe(slot.key.0, slot.key.1);
        let mut state = stripe.state.lock();
        let prev = slot.pins.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev >= 1, "unpin without pin");
        if prev == 1 {
            if slot.queued.swap(true, Ordering::Relaxed) {
                slot.referenced.store(true, Ordering::Relaxed);
            } else {
                state.queue.push_back(slot.key);
            }
        }
    }

    /// Write back all dirty pages of `file` (pages stay cached).
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        for stripe in &self.inner.stripes {
            let state = stripe.state.lock();
            for (key, slot) in state.map.iter() {
                if key.0 == file && slot.dirty.swap(false, Ordering::Relaxed) {
                    let data = slot.data.read();
                    self.inner.fm.write_page(key.0, key.1, &data)?;
                }
            }
        }
        Ok(())
    }

    /// Drop all of `file`'s pages from the cache. With `write_back` the dirty
    /// ones are flushed first; without it they are discarded (used right
    /// before file deletion). Panics in debug builds if any page is pinned.
    pub fn purge_file(&self, file: FileId, write_back: bool) -> Result<()> {
        for stripe in &self.inner.stripes {
            let mut state = stripe.state.lock();
            let keys: Vec<_> = state
                .map
                .keys()
                .filter(|k| k.0 == file)
                .copied()
                .collect();
            if !keys.is_empty() {
                state.queue.retain(|key| key.0 != file);
            }
            for key in keys {
                let slot = state.map.remove(&key).expect("listed above");
                debug_assert_eq!(
                    slot.pins.load(Ordering::Relaxed),
                    0,
                    "purging pinned page {key:?}"
                );
                if write_back && slot.dirty.load(Ordering::Relaxed) {
                    let data = slot.data.read();
                    self.inner.fm.write_page(key.0, key.1, &data)?;
                }
            }
        }
        Ok(())
    }
}

/// A pinned page. The page cannot be evicted while a guard exists; dropping
/// the guard unpins it and makes it an eviction candidate again.
pub struct PageGuard {
    cache: BufferCache,
    slot: Arc<PageSlot>,
}

impl PageGuard {
    /// The `(file, page)` identity of the pinned page.
    pub fn key(&self) -> (FileId, PageId) {
        self.slot.key
    }

    /// Read access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Vec<u8>> {
        self.slot.data.read()
    }

    /// Write access to the page bytes; marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.slot.dirty.store(true, Ordering::Relaxed);
        self.slot.data.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.cache.unpin(&self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::TempDir;
    use pregelix_common::stats::ClusterCounters;

    fn cache(capacity: usize) -> (BufferCache, TempDir) {
        let dir = TempDir::new("cache").unwrap();
        let fm = FileManager::new(dir.path(), 64, ClusterCounters::new()).unwrap();
        (BufferCache::new(fm, capacity), dir)
    }

    #[test]
    fn new_page_roundtrips_through_cache() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        g.write()[0] = 0xAB;
        drop(g);
        let g = c.pin(f, pid).unwrap();
        assert_eq!(g.read()[0], 0xAB);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (pid, g) = c.new_page(f).unwrap();
            g.write()[0] = i;
            ids.push(pid);
        }
        assert!(c.resident() <= 8);
        // All pages readable with their data intact despite eviction.
        for (i, pid) in ids.iter().enumerate() {
            let g = c.pin(f, *pid).unwrap();
            assert_eq!(g.read()[0], i as u8, "page {pid}");
        }
        assert!(c.file_manager().counters().cache_evictions() >= 24);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        g.write()[0] = 0x77;
        // Flood the cache while holding the pin.
        for _ in 0..64 {
            let (_, h) = c.new_page(f).unwrap();
            drop(h);
        }
        assert_eq!(g.read()[0], 0x77);
        assert_eq!(g.key(), (f, pid));
    }

    #[test]
    fn eviction_under_pressure_fault_is_transient_and_keeps_cache_consistent() {
        use pregelix_common::fault::{self, Fault, FaultPlan, Site};
        let guard = fault::exclusive();
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        // Scope the rule to this cache's (process-unique) storage root so a
        // concurrently running test's evictions cannot consume it.
        let scope = c.file_manager().root().to_string_lossy().into_owned();
        let plan = guard.install(FaultPlan::new().on(Site::CacheEvict, &scope, 1, Fault::IoError));
        // Flood the cache: the first eviction attempt fails with the
        // injected recoverable error instead of evicting.
        let mut saw_fault = false;
        for _ in 0..64 {
            match c.new_page(f) {
                Ok((_, g)) => drop(g),
                Err(e) => {
                    assert!(e.is_recoverable(), "injected eviction fault: {e}");
                    saw_fault = true;
                    break;
                }
            }
        }
        assert!(saw_fault, "pressure must reach the eviction site");
        assert_eq!(plan.injected(), 1);
        // The rule is spent (transient fault): the same pressure now evicts
        // normally — the failed eviction left the victim resident and
        // evictable, not leaked.
        for _ in 0..64 {
            let (_, g) = c.new_page(f).unwrap();
            drop(g);
        }
        assert!(c.resident() <= 8);
        assert!(c.file_manager().counters().cache_evictions() >= 1);
    }

    #[test]
    fn hits_and_misses_counted() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        drop(g);
        let _g = c.pin(f, pid).unwrap(); // hit
        let counters = c.file_manager().counters();
        assert_eq!(counters.cache_hits(), 1);
        // Evict, then re-pin: miss.
        drop(_g);
        for _ in 0..64 {
            let (_, h) = c.new_page(f).unwrap();
            drop(h);
        }
        let _g = c.pin(f, pid).unwrap();
        assert!(counters.cache_misses() >= 1);
    }

    #[test]
    fn flush_then_purge_then_reload() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        g.write()[3] = 9;
        drop(g);
        c.flush_file(f).unwrap();
        c.purge_file(f, false).unwrap();
        assert_eq!(c.resident(), 0);
        let g = c.pin(f, pid).unwrap();
        assert_eq!(g.read()[3], 9);
    }

    #[test]
    fn purge_without_writeback_discards_changes() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        g.write()[0] = 1;
        drop(g);
        c.flush_file(f).unwrap();
        let g = c.pin(f, pid).unwrap();
        g.write()[0] = 2;
        drop(g);
        c.purge_file(f, false).unwrap();
        let g = c.pin(f, pid).unwrap();
        assert_eq!(g.read()[0], 1, "dirty change must be discarded");
    }

    #[test]
    fn concurrent_pins_of_same_page() {
        let (c, _d) = cache(8);
        let f = c.file_manager().create().unwrap();
        let (pid, g) = c.new_page(f).unwrap();
        g.write()[0] = 5;
        drop(g);
        c.flush_file(f).unwrap();
        c.purge_file(f, false).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let g = c.pin(f, pid).unwrap();
                        assert_eq!(g.read()[0], 5);
                    }
                });
            }
        });
    }

    #[test]
    fn stripes_partition_the_budget_exactly() {
        let dir = TempDir::new("cache").unwrap();
        let fm = FileManager::new(dir.path(), 64, ClusterCounters::new()).unwrap();
        for stripes in [1, 3, 8] {
            let c = BufferCache::with_stripes(fm.clone(), 21, stripes);
            assert_eq!(c.capacity(), 21);
            assert_eq!(c.stripe_count(), stripes);
            let total: usize = c.inner.stripes.iter().map(|s| s.capacity).sum();
            assert_eq!(total, 21, "shares must sum to the budget");
            assert!(c.inner.stripes.iter().all(|s| s.capacity >= 1));
        }
    }

    #[test]
    fn repinning_a_resident_page_keeps_one_queue_entry() {
        let (c, _d) = cache(64);
        let f = c.file_manager().create().unwrap();
        let ids: Vec<_> = (0..8).map(|_| c.new_page(f).unwrap().0).collect();
        for _ in 0..100_000 {
            drop(c.pin(f, ids[3]).unwrap());
        }
        for stripe in &c.inner.stripes {
            let state = stripe.state.lock();
            assert!(
                state.queue.len() <= state.map.len(),
                "{} queue entries for {} resident pages",
                state.queue.len(),
                state.map.len()
            );
        }
        c.purge_file(f, false).unwrap();
        assert!(c.inner.stripes.iter().all(|s| s.state.lock().queue.is_empty()));
    }

    #[test]
    fn a_page_unpinned_again_gets_a_second_chance() {
        let dir = TempDir::new("cache").unwrap();
        let fm = FileManager::new(dir.path(), 64, ClusterCounters::new()).unwrap();
        let c = BufferCache::with_stripes(fm, 8, 1);
        let f = c.file_manager().create().unwrap();
        let ids: Vec<_> = (0..8).map(|_| c.new_page(f).unwrap().0).collect();
        // Queued oldest first; the oldest is then touched again.
        drop(c.pin(f, ids[0]).unwrap());
        drop(c.new_page(f).unwrap());
        let counters = c.file_manager().counters();
        let misses = counters.cache_misses();
        drop(c.pin(f, ids[0]).unwrap());
        assert_eq!(counters.cache_misses(), misses, "the referenced page stays");
        drop(c.pin(f, ids[1]).unwrap());
        assert_eq!(counters.cache_misses(), misses + 1, "the next oldest went");
    }

    #[test]
    fn single_stripe_behaves_like_global_lru() {
        let dir = TempDir::new("cache").unwrap();
        let fm = FileManager::new(dir.path(), 64, ClusterCounters::new()).unwrap();
        let c = BufferCache::with_stripes(fm, 8, 1);
        let f = c.file_manager().create().unwrap();
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (pid, g) = c.new_page(f).unwrap();
            g.write()[0] = i;
            ids.push(pid);
        }
        assert!(c.resident() <= 8);
        for (i, pid) in ids.iter().enumerate() {
            let g = c.pin(f, *pid).unwrap();
            assert_eq!(g.read()[0], i as u8);
        }
    }
}
