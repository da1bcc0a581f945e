//! Refcounted byte-slab: one pooled allocation shared by every hop of the
//! frame path (timely-dataflow `bytes`/`communication` idiom).
//!
//! A [`BytesSlab`] hands out backing buffers; sealing a buffer yields a
//! [`BytesSlice`] — a refcounted view that transport, the retransmit window,
//! the reorder buffer, and the consumer can all hold *simultaneously* without
//! copying. When the last slice over a backing drops, the buffer migrates to
//! the slab's `returns` list; [`BytesSlab::harvest`] (called only at
//! deterministic commit points — superstep boundaries) moves returns
//! into the live stock for reuse.
//!
//! # Why the two-level pool (`returns` vs `stock`)
//!
//! The chaos CI jobs diff counter digests across double runs of concurrent
//! clusters, so every counter must be scheduling-invariant. Raw "pool hit"
//! counts are not: which thread's drop races which thread's alloc decides who
//! reuses what. The slab therefore *never* counts at drop time and *never*
//! allocates from `returns` directly. Within a superstep the stock only
//! drains, so fresh allocations = `max(0, seals − stock_at_superstep_start)`
//! — a pure function of how many frames the superstep sealed, independent
//! of interleaving. `slab_recycled` is bumped by `harvest`, which runs on
//! the single-threaded driver after every task of the superstep has joined.
//!
//! # Recycling rules
//!
//! Only buffers with exactly the slab's chunk capacity are pooled; oversized
//! buffers (a frame larger than `chunk`) are allocated exact-size, counted as
//! fresh allocations, and dropped for real when their last ref goes away.
//! This keeps the stock uniform, which is what makes the alloc count above
//! independent of *which* buffer a thread happens to pop.

use crate::stats::ClusterCounters;
use parking_lot::Mutex;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

// ---------------------------------------------------------------------
// CRC32 (IEEE, reflected 0xEDB88320)
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `T[0]` is the classic byte-at-a-time table and
/// `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Streaming CRC32 hasher. Checksums guard bytes read back from storage
/// (the message log's trailing CRC); frames that never leave memory carry
/// none.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
        self
    }

    /// Finish and return the checksum.
    #[inline]
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Default backing-buffer capacity: a 16 KiB frame plus 64 bytes of
/// headroom for its wire-form header.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024 + 64;

/// A pooled allocator of backing buffers. Cheap to clone; clones share the
/// same pool and counters.
#[derive(Clone)]
pub struct BytesSlab {
    inner: Arc<SlabInner>,
}

struct SlabInner {
    /// Capacity every pooled buffer is allocated at.
    chunk: usize,
    /// Buffers whose last [`BytesSlice`] dropped since the last harvest.
    /// Append-only between harvests; *never* allocated from directly.
    returns: Mutex<Vec<Vec<u8>>>,
    /// Buffers available for reuse. Drained by [`BytesSlab::seal`] between
    /// harvests, refilled only by [`BytesSlab::harvest`].
    stock: Mutex<Vec<Vec<u8>>>,
    counters: ClusterCounters,
}

impl fmt::Debug for BytesSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesSlab")
            .field("chunk", &self.inner.chunk)
            .field("stock", &self.inner.stock.lock().len())
            .field("returns", &self.inner.returns.lock().len())
            .finish()
    }
}

impl Default for BytesSlab {
    fn default() -> Self {
        Self::new(DEFAULT_CHUNK_BYTES)
    }
}

impl BytesSlab {
    /// A slab with private counters (tests, standalone tools).
    pub fn new(chunk: usize) -> Self {
        Self::with_counters(chunk, ClusterCounters::new())
    }

    /// A slab that reports `slab_allocations`/`slab_recycled` into `counters`.
    pub fn with_counters(chunk: usize, counters: ClusterCounters) -> Self {
        BytesSlab {
            inner: Arc::new(SlabInner {
                chunk: chunk.max(64),
                returns: Mutex::new(Vec::new()),
                stock: Mutex::new(Vec::new()),
                counters,
            }),
        }
    }

    /// Buffers currently restocked and ready for reuse.
    pub fn stocked(&self) -> usize {
        self.inner.stock.lock().len()
    }

    /// Seal `bytes.len()` bytes filled by `fill` into a refcounted slice.
    ///
    /// The backing comes from stock when available (uniform `chunk`-capacity
    /// buffers, so *which* one is irrelevant) and is freshly allocated —
    /// counted — otherwise. `fill` writes the buffer's final contents; the
    /// buffer arrives empty with at least `len` capacity.
    pub fn seal_with(&self, len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> BytesSlice {
        let mut buf = if len <= self.inner.chunk {
            match self.inner.stock.lock().pop() {
                Some(b) => b,
                None => {
                    self.inner.counters.add_slab_allocations(1);
                    Vec::with_capacity(self.inner.chunk)
                }
            }
        } else {
            // Oversized frame: exact-size one-shot buffer, never pooled.
            self.inner.counters.add_slab_allocations(1);
            Vec::with_capacity(len)
        };
        fill(&mut buf);
        debug_assert!(buf.len() <= buf.capacity());
        BytesSlice::over(Backing {
            buf,
            pool: Some(Arc::downgrade(&self.inner)),
        })
    }

    /// Move every returned buffer into the live stock and count it.
    ///
    /// Must be called only from deterministic single-threaded commit points
    /// (the driver between supersteps): the count of returns at such
    /// a point is a function of the data flow, not the thread schedule.
    /// Returns the number of buffers restocked.
    pub fn harvest(&self) -> usize {
        let mut returned = std::mem::take(&mut *self.inner.returns.lock());
        let n = returned.len();
        if n > 0 {
            self.inner.counters.add_slab_recycled(n as u64);
            self.inner.stock.lock().append(&mut returned);
        }
        n
    }
}

/// The shared allocation under one or more [`BytesSlice`]s.
struct Backing {
    buf: Vec<u8>,
    /// Pool to return the buffer to when the last slice drops. `Weak` so a
    /// slab can die before its outstanding slices without leaking.
    pool: Option<std::sync::Weak<SlabInner>>,
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take().and_then(|w| w.upgrade()) {
            // Recycling rule: only uniform chunk-capacity buffers are
            // pooled, so stock stays homogeneous and the fresh-alloc count
            // stays interleaving-invariant.
            if self.buf.capacity() == pool.chunk {
                let mut buf = std::mem::take(&mut self.buf);
                buf.clear();
                pool.returns.lock().push(buf);
            }
        }
    }
}

/// A refcounted view over (part of) one backing buffer.
///
/// Cloning and sub-slicing are O(1) refcount operations; the bytes are never
/// copied. Equality, ordering and hashing are by *content* — two slices over
/// different backings with the same bytes compare equal.
#[derive(Clone)]
pub struct BytesSlice {
    backing: Arc<Backing>,
    start: usize,
    len: usize,
}

impl BytesSlice {
    fn over(backing: Backing) -> Self {
        let len = backing.buf.len();
        BytesSlice {
            backing: Arc::new(backing),
            start: 0,
            len,
        }
    }

    /// A slice over a plain vector, not attached to any pool (standalone
    /// freezes, copies, tests).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self::over(Backing { buf, pool: None })
    }

    /// Byte length of this view.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.backing.buf[self.start..self.start + self.len]
    }

    /// A sub-view of this slice (O(1), shares the backing).
    pub fn slice(&self, range: std::ops::Range<usize>) -> BytesSlice {
        assert!(range.start <= range.end && range.end <= self.len);
        BytesSlice {
            backing: Arc::clone(&self.backing),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// True when `self` and `other` view the *same allocation* (regardless
    /// of offsets). This is the zero-copy witness: a retransmitted frame
    /// aliases the original, a copy does not.
    pub fn aliases(&self, other: &BytesSlice) -> bool {
        Arc::ptr_eq(&self.backing, &other.backing)
    }

    /// Copy this view into a fresh owned slice, charging the copy to
    /// `frame_bytes_copied`. The escape hatch for consumers that must
    /// outlive the slab; the product frame path never calls it.
    pub fn detach(&self, counters: &ClusterCounters) -> BytesSlice {
        counters.add_frame_bytes_copied(self.len as u64);
        BytesSlice::from_vec(self.as_slice().to_vec())
    }
}

impl Deref for BytesSlice {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BytesSlice {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for BytesSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesSlice({} bytes @ {})", self.len, self.start)
    }
}

impl PartialEq for BytesSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for BytesSlice {}

impl std::hash::Hash for BytesSlice {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `Crc32::update` replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_loop_at_every_length_and_split() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            let want = crc32_bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "len {len}");
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&data[..split]).update(&data[split..len]);
                assert_eq!(h.finish(), want, "len {len} split {split}");
            }
        }
    }

    fn seal(slab: &BytesSlab, bytes: &[u8]) -> BytesSlice {
        slab.seal_with(bytes.len(), |b| b.extend_from_slice(bytes))
    }

    #[test]
    fn seal_slice_subslice_roundtrip() {
        let slab = BytesSlab::new(128);
        let s = seal(&slab, b"hello slab world");
        assert_eq!(&*s, b"hello slab world");
        let sub = s.slice(6..10);
        assert_eq!(&*sub, b"slab");
        assert!(sub.aliases(&s));
    }

    #[test]
    fn clone_is_aliasing_not_copying() {
        let slab = BytesSlab::new(128);
        let a = seal(&slab, &[1, 2, 3]);
        let b = a.clone();
        assert!(a.aliases(&b));
        assert_eq!(a, b);
        // Content equality across different backings, no aliasing.
        let c = seal(&slab, &[1, 2, 3]);
        assert_eq!(a, c);
        assert!(!a.aliases(&c));
    }

    #[test]
    fn returns_restock_only_at_harvest() {
        let counters = ClusterCounters::new();
        let slab = BytesSlab::with_counters(64, counters.clone());
        let a = seal(&slab, &[9u8; 16]);
        let sub = a.slice(2..6);
        drop(a);
        // A live sub-slice keeps the backing out of the returns list.
        assert_eq!(slab.harvest(), 0);
        drop(sub);
        assert_eq!(slab.stocked(), 0, "no restock before harvest");
        assert_eq!(slab.harvest(), 1);
        assert_eq!(slab.stocked(), 1);
        assert_eq!(counters.slab_allocations(), 1);
        assert_eq!(counters.slab_recycled(), 1);
        // The next seal is a pool hit: no new allocation counted.
        let b = seal(&slab, &[1u8; 8]);
        assert_eq!(counters.slab_allocations(), 1);
        drop(b);
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let counters = ClusterCounters::new();
        let slab = BytesSlab::with_counters(64, counters.clone());
        let big = seal(&slab, &vec![7u8; 500]);
        assert_eq!(counters.slab_allocations(), 1);
        drop(big);
        assert_eq!(slab.harvest(), 0, "oversized backing is never pooled");
        assert_eq!(counters.slab_recycled(), 0);
    }

    #[test]
    fn fresh_allocs_are_interleaving_invariant() {
        // 4 threads × 50 seals against a stock of 30: exactly
        // max(0, 200 - 30) = 170 fresh allocations, regardless of schedule.
        let counters = ClusterCounters::new();
        let slab = BytesSlab::with_counters(64, counters.clone());
        let pre: Vec<_> = (0..30).map(|_| seal(&slab, &[0u8; 8])).collect();
        drop(pre);
        slab.harvest();
        let base = counters.slab_allocations(); // 30
        std::thread::scope(|s| {
            for _ in 0..4 {
                let slab = slab.clone();
                s.spawn(move || {
                    for i in 0..50u8 {
                        let sl = seal(&slab, &[i; 8]);
                        drop(sl);
                    }
                });
            }
        });
        assert_eq!(counters.slab_allocations() - base, 170);
        assert_eq!(slab.harvest(), 200);
    }

    #[test]
    fn detach_copies_and_counts() {
        let counters = ClusterCounters::new();
        let slab = BytesSlab::new(64);
        let a = seal(&slab, b"payload");
        let d = a.detach(&counters);
        assert_eq!(a, d);
        assert!(!a.aliases(&d));
        assert_eq!(counters.frame_bytes_copied(), 7);
    }

    #[test]
    fn slab_death_does_not_leak_or_crash_outstanding_slices() {
        let slab = BytesSlab::new(64);
        let s = seal(&slab, &[5u8; 10]);
        drop(slab);
        assert_eq!(&*s, &[5u8; 10]);
        drop(s); // pool is gone; backing drops for real
    }
}
