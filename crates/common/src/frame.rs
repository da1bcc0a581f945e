//! Frames: batches of byte tuples, the unit of data exchange.
//!
//! Hyracks moves data between operators as fixed-capacity *frames* — a
//! contiguous byte buffer plus an offset table — rather than as object
//! graphs. This keeps the per-tuple overhead at a few bytes, makes spilling a
//! frame a single buffer write, and is one of the architectural reasons the
//! paper's dataflow runtime sustains out-of-core workloads where
//! object-per-vertex runtimes thrash (§5.4, the "bloat-aware design").
//!
//! Conventions used by every Pregelix stream:
//!
//! * Each tuple is an opaque byte string whose schema is known to both
//!   endpoints of the dataflow edge.
//! * Tuples that are keyed by vertex id (`Vertex`, `Msg`, `Vid` and mutation
//!   tuples) carry the vid in their **first 8 bytes, big-endian**, so byte
//!   comparison of key prefixes equals numeric comparison of vids. Sorting,
//!   merging and B-tree search all exploit this.

use crate::bytes::{BytesSlab, BytesSlice};
use crate::error::{PregelixError, Result};
use crate::stats::ClusterCounters;
use crate::Vid;

/// Default frame capacity in bytes. Small relative to production Hyracks
/// (32 KB–128 KB) because the whole simulated cluster is scaled down; it can
/// be overridden per job.
pub const DEFAULT_FRAME_BYTES: usize = 16 * 1024;

/// Encode a vid as a big-endian, memcmp-comparable 8-byte key.
#[inline]
pub fn vid_to_key(vid: Vid) -> [u8; 8] {
    vid.to_be_bytes()
}

/// Decode a big-endian vid key prefix from a tuple.
#[inline]
pub fn tuple_vid(tuple: &[u8]) -> Result<Vid> {
    let head: [u8; 8] = tuple
        .get(..8)
        .ok_or_else(|| PregelixError::corrupt("tuple shorter than vid prefix"))?
        .try_into()
        .expect("8-byte slice");
    Ok(Vid::from_be_bytes(head))
}

/// Build a keyed tuple: big-endian vid prefix followed by `payload` bytes.
#[inline]
pub fn keyed_tuple(vid: Vid, payload: &[u8]) -> Vec<u8> {
    let mut t = Vec::with_capacity(8 + payload.len());
    t.extend_from_slice(&vid_to_key(vid));
    t.extend_from_slice(payload);
    t
}

/// The payload portion (after the vid prefix) of a keyed tuple.
#[inline]
pub fn tuple_payload(tuple: &[u8]) -> Result<&[u8]> {
    tuple
        .get(8..)
        .ok_or_else(|| PregelixError::corrupt("tuple shorter than vid prefix"))
}

/// Normalized sort key: the first 8 tuple bytes as a big-endian `u64`,
/// zero-padded for shorter tuples. Ordering by `(key_prefix(t), t)` equals
/// plain lexicographic ordering of `t`: if two zero-padded prefixes differ,
/// the tuples first differ at a byte the prefixes cover (padding only ever
/// compares as `0`, the smallest byte, against a real byte or nothing), and
/// on equal prefixes the tie-break compares the full tuples anyway. For
/// keyed tuples the prefix *is* the vid, so prefix order is vid order.
#[inline]
pub fn key_prefix(t: &[u8]) -> u64 {
    // Keyed tuples (all but the odd short one) take the fixed-width load.
    if let Some(head) = t.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    let mut p = [0u8; 8];
    p[..t.len()].copy_from_slice(t);
    u64::from_be_bytes(p)
}

/// A batch of tuples in a contiguous buffer.
///
/// `data` holds the concatenated tuple bytes; `ends[i]` is the exclusive end
/// offset of tuple `i`, so tuple `i` spans `ends[i-1]..ends[i]`.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    data: Vec<u8>,
    ends: Vec<u32>,
    capacity: usize,
}

impl Frame {
    /// Create an empty frame with the default byte capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FRAME_BYTES)
    }

    /// Create an empty frame with an explicit byte capacity. A frame always
    /// accepts at least one tuple even if that tuple alone exceeds the
    /// capacity (matching Hyracks' "big object" frames).
    ///
    /// The data buffer is reserved up front: a builder frame is a staging
    /// area that gets filled to `capacity`, frozen, cleared, and refilled —
    /// growing it byte-append by byte-append would pay a realloc-and-memcpy
    /// ladder on the hottest path in the system.
    pub fn with_capacity(capacity: usize) -> Self {
        Frame {
            data: Vec::with_capacity(capacity),
            ends: Vec::new(),
            capacity,
        }
    }

    /// Number of tuples currently in the frame.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the frame holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of tuple data (excluding the offset table).
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Approximate total heap footprint of this frame.
    #[inline]
    pub fn footprint(&self) -> usize {
        self.data.len() + self.ends.len() * 4
    }

    /// Try to append a tuple. Returns `false` when the frame is full — the
    /// caller should flush it downstream and retry on a fresh frame. A tuple
    /// is always accepted into an *empty* frame regardless of size.
    #[inline]
    pub fn try_append(&mut self, tuple: &[u8]) -> bool {
        if !self.is_empty() && self.data.len() + tuple.len() > self.capacity {
            return false;
        }
        self.push(tuple);
        true
    }

    /// Append a tuple whatever the capacity: a message-log section is one
    /// frame however many tuples its destination receives.
    #[inline]
    pub(crate) fn push(&mut self, tuple: &[u8]) {
        self.data.extend_from_slice(tuple);
        self.ends.push(self.data.len() as u32);
    }

    /// Borrow tuple `i`.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Iterate over all tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.tuple(i))
    }

    /// Drop all tuples, retaining the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }

    /// Sort the tuples in place into whole-tuple byte order (for keyed
    /// tuples: vid order with payload bytes as tiebreaker).
    ///
    /// No job sorts a frame: the message path sorts arena-backed tuples
    /// with `pregelix_storage::sort::ExternalSorter`. This plain
    /// comparison sort exists only for the benchmark's layer replay
    /// (`benchmark/src/replay.rs`) and goes with ROADMAP item 2A.
    pub fn sort(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self.tuple(a).cmp(self.tuple(b)));
        let mut data = Vec::with_capacity(self.data.capacity());
        let mut ends = Vec::with_capacity(self.ends.len());
        for i in order {
            data.extend_from_slice(self.tuple(i));
            ends.push(data.len() as u32);
        }
        self.data = data;
        self.ends = ends;
    }

    /// Total wire-form size of this frame's content:
    /// `[u32 n][u32 ends; n][data]`.
    #[inline]
    pub fn wire_len(&self) -> usize {
        4 + 4 * self.ends.len() + self.data.len()
    }

    /// Freeze the builder's content into its canonical, slab-backed wire
    /// form. This is the **single** assembly copy a frame pays on its way
    /// through the system: every later hop — retransmit window, reorder
    /// buffer, consumer — holds refcounted views of the slice built here.
    /// The builder keeps its allocations; `clear()` it and refill.
    pub fn freeze(&self, slab: &BytesSlab) -> SharedFrame {
        SharedFrame {
            bytes: slab.seal_with(self.wire_len(), |out| self.write_wire(out)),
            n: self.ends.len(),
        }
    }

    /// [`Frame::freeze`] without a slab: the backing is a plain one-shot
    /// vector. For tests and standalone tools; the product path always
    /// freezes through the cluster slab.
    pub fn freeze_standalone(&self) -> SharedFrame {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_wire(&mut out);
        SharedFrame {
            bytes: BytesSlice::from_vec(out),
            n: self.ends.len(),
        }
    }

    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.ends.len() as u32).to_le_bytes());
        for e in &self.ends {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
    }

    /// Append the wire form `[u32 n][u32 ends; n][data]` to `out`. Disk-write
    /// path (run files, checkpoints, message logs): the on-disk frame record
    /// is byte-for-byte the network wire form, so both sides share one codec.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        self.write_wire(out);
    }

    /// Parse one wire-form frame from the front of `buf` into an owned
    /// builder, advancing `buf` past it. The one decoder: everything that
    /// reads frames reads them back from storage (run files, checkpoints,
    /// message logs), and those bytes must be owned anyway. In-memory hops
    /// never decode — they hand over the [`SharedFrame`] itself.
    pub fn deserialize(buf: &mut &[u8]) -> Result<Frame> {
        let mut frame = Frame::default();
        frame.deserialize_into(buf)?;
        Ok(frame)
    }

    /// [`Frame::deserialize`] into this frame: the parsed tuples replace its
    /// content and land in its buffers, so a reader decoding record after
    /// record into one frame allocates only while that frame grows to the
    /// largest record. On error `buf` is not advanced and the frame is left
    /// empty.
    pub fn deserialize_into(&mut self, buf: &mut &[u8]) -> Result<()> {
        self.clear();
        match self.parse_wire(buf) {
            Ok(total) => {
                *buf = &buf[total..];
                Ok(())
            }
            Err(e) => {
                self.clear();
                Err(e)
            }
        }
    }

    /// Append the frame at the front of `b` to this (empty) frame and return
    /// its wire length.
    fn parse_wire(&mut self, b: &[u8]) -> Result<usize> {
        let n = u32::from_le_bytes(
            b.get(..4)
                .ok_or_else(|| PregelixError::corrupt("frame header truncated"))?
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        let data_off = 4usize
            .checked_add(
                n.checked_mul(4)
                    .ok_or_else(|| PregelixError::corrupt("frame tuple count overflow"))?,
            )
            .ok_or_else(|| PregelixError::corrupt("frame tuple count overflow"))?;
        if b.len() < data_off {
            return Err(PregelixError::corrupt("frame offset table truncated"));
        }
        self.ends.reserve(n);
        let mut prev = 0u32;
        for raw in b[4..data_off].chunks_exact(4) {
            let e = u32::from_le_bytes(raw.try_into().expect("4-byte chunk"));
            if e < prev {
                return Err(PregelixError::corrupt("frame offsets not monotone"));
            }
            self.ends.push(e);
            prev = e;
        }
        let total = data_off
            .checked_add(prev as usize)
            .ok_or_else(|| PregelixError::corrupt("frame data length overflow"))?;
        if b.len() < total {
            return Err(PregelixError::corrupt("frame data truncated"));
        }
        self.data.extend_from_slice(&b[data_off..total]);
        self.capacity = self.data.len().max(DEFAULT_FRAME_BYTES);
        Ok(total)
    }
}

/// A frozen frame: a refcounted view over one slab slice holding the
/// canonical wire form `[u32 n][u32 ends; n][data]` (all little-endian).
///
/// Cloning is O(1) — the retransmit window, the receiver's reorder buffer
/// and the consumer all hold the *same allocation*. Equality is content
/// equality of the wire slice: no capacity field, no working memory,
/// nothing that could make a delivered frame compare unequal to the frame
/// that was sent.
///
/// A `SharedFrame` is only ever built by [`Frame::freeze`] from a builder in
/// this process, so its bytes are trusted and carry no checksum; bytes read
/// back from storage come in through [`Frame::deserialize`] instead.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedFrame {
    /// The full wire form.
    bytes: BytesSlice,
    /// Tuple count (cached from the header).
    n: usize,
}

impl SharedFrame {
    /// An empty frozen frame (no slab; the 4-byte wire form is one-shot).
    pub fn empty() -> SharedFrame {
        Frame::with_capacity(0).freeze_standalone()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the frame holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exclusive end offset of tuple `i` within the data section.
    #[inline]
    fn end(&self, i: usize) -> usize {
        let b = self.bytes.as_slice();
        u32::from_le_bytes(b[4 + 4 * i..8 + 4 * i].try_into().expect("4-byte slice")) as usize
    }

    /// Offset of the data section within the wire form.
    #[inline]
    fn data_off(&self) -> usize {
        4 + 4 * self.n
    }

    /// Bytes of tuple data (excluding header and offset table).
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.bytes.len() - self.data_off()
    }

    /// Total wire-form length in bytes.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Borrow tuple `i`.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[u8] {
        &self.bytes.as_slice()[self.tuple_span(i)]
    }

    /// Where tuple `i` lies within [`wire_bytes`](Self::wire_bytes): a
    /// reader that visits a tuple more than once decodes its offsets once.
    #[inline]
    pub fn tuple_span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.end(i - 1) };
        let off = self.data_off();
        off + start..off + self.end(i)
    }

    /// Iterate over all tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.n).map(move |i| self.tuple(i))
    }

    /// The underlying wire slice.
    #[inline]
    pub fn wire_bytes(&self) -> &BytesSlice {
        &self.bytes
    }

    /// True when `self` and `other` view the same slab allocation — the
    /// zero-copy witness used to prove a retransmission re-sent the
    /// identical slice rather than a re-encoding.
    pub fn aliases(&self, other: &SharedFrame) -> bool {
        self.bytes.aliases(&other.bytes)
    }

    /// Materialize an owned builder [`Frame`] with this frame's tuples,
    /// charging the payload copy to `frame_bytes_copied`. Escape hatch for
    /// consumers that must own their bytes; the transport path never calls
    /// it.
    pub fn to_frame(&self, counters: &ClusterCounters) -> Frame {
        counters.add_frame_bytes_copied(self.bytes.len() as u64);
        let mut f = Frame::with_capacity(self.data_bytes().max(1));
        for t in self.iter() {
            f.try_append(t);
        }
        f
    }
}

impl std::fmt::Debug for SharedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFrame")
            .field("tuples", &self.n)
            .field("wire_len", &self.bytes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn key_prefix_zero_pads_short_tuples_and_reads_the_first_eight_bytes() {
        assert_eq!(key_prefix(&[]), 0);
        assert_eq!(key_prefix(&[1, 2]), 0x0102_0000_0000_0000);
        assert_eq!(key_prefix(&[0, 0, 0, 0, 0, 0, 1]), 0x100);
        assert_eq!(key_prefix(&keyed_tuple(7, b"payload")), 7);
        assert_eq!(key_prefix(&[0xFF; 8]), u64::MAX);
    }

    #[test]
    fn append_and_read_back() {
        let mut f = Frame::with_capacity(64);
        assert!(f.try_append(b"alpha"));
        assert!(f.try_append(b"b"));
        assert!(f.try_append(b""));
        assert_eq!(f.len(), 3);
        assert_eq!(f.tuple(0), b"alpha");
        assert_eq!(f.tuple(1), b"b");
        assert_eq!(f.tuple(2), b"");
    }

    #[test]
    fn capacity_enforced_but_first_tuple_always_fits() {
        let mut f = Frame::with_capacity(4);
        assert!(f.try_append(b"oversized tuple"));
        assert!(!f.try_append(b"x"));
        f.clear();
        assert!(f.try_append(b"x"));
        assert!(f.try_append(b"yz"));
        assert!(!f.try_append(b"ab"));
    }

    #[test]
    fn vid_key_order_matches_numeric_order() {
        let a = keyed_tuple(5, b"");
        let b = keyed_tuple(300, b"");
        let c = keyed_tuple(u64::MAX, b"");
        assert!(a < b && b < c);
        assert_eq!(tuple_vid(&b).unwrap(), 300);
        assert_eq!(tuple_payload(&a).unwrap(), b"");
    }

    #[test]
    fn sort_orders_by_vid() {
        let mut f = Frame::new();
        for vid in [9u64, 2, 500, 2, 1] {
            f.try_append(&keyed_tuple(vid, b"p"));
        }
        f.sort();
        let vids: Vec<Vid> = f.iter().map(|t| tuple_vid(t).unwrap()).collect();
        assert_eq!(vids, vec![1, 2, 2, 9, 500]);
    }

    #[test]
    fn short_and_mixed_tuples_sort_lexicographically() {
        // Tuples shorter than the 8-byte prefix, including pairs whose
        // zero-padded prefixes collide ("a" vs "a\0"), must come out in
        // plain lexicographic order.
        let tuples: Vec<Vec<u8>> = vec![
            b"a\x00".to_vec(),
            b"a".to_vec(),
            b"".to_vec(),
            b"a\x00\x00\x00\x00\x00\x00\x00\x01".to_vec(),
            b"a\x00\x00\x00\x00\x00\x00\x00".to_vec(),
            b"b".to_vec(),
        ];
        let mut f = Frame::with_capacity(1 << 20);
        for t in &tuples {
            f.try_append(t);
        }
        f.sort();
        let mut expect = tuples.clone();
        expect.sort();
        let got: Vec<Vec<u8>> = f.iter().map(|t| t.to_vec()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn freeze_roundtrip_aliases_and_preserves_tuples() {
        let mut f = Frame::new();
        f.try_append(&keyed_tuple(1, b"abc"));
        f.try_append(&keyed_tuple(2, b""));
        let shared = f.freeze_standalone();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.tuple(0), &keyed_tuple(1, b"abc")[..]);
        assert_eq!(shared.tuple(1), &keyed_tuple(2, b"")[..]);
        // A clone is a view of the same backing, and content-equal.
        let back = shared.clone();
        assert_eq!(back, shared);
        assert!(back.aliases(&shared));
    }

    #[test]
    fn freeze_through_slab_recycles_backings() {
        use crate::bytes::BytesSlab;
        let counters = ClusterCounters::new();
        let slab = BytesSlab::with_counters(1 << 16, counters.clone());
        let mut f = Frame::with_capacity(1 << 12);
        f.try_append(&keyed_tuple(1, b"zzz"));
        let a = f.freeze(&slab);
        let a2 = a.clone();
        assert!(a.aliases(&a2));
        drop(a);
        drop(a2);
        assert_eq!(counters.slab_allocations(), 1);
        assert_eq!(slab.harvest(), 1);
        f.clear();
        f.try_append(&keyed_tuple(2, b"yy"));
        let b = f.freeze(&slab);
        assert_eq!(counters.slab_allocations(), 1, "second freeze reuses the backing");
        assert_eq!(b.tuple(0), &keyed_tuple(2, b"yy")[..]);
    }

    #[test]
    fn serialize_is_the_wire_form_and_deserialize_advances() {
        let mut f = Frame::new();
        f.try_append(&keyed_tuple(1, b"abc"));
        f.try_append(&keyed_tuple(2, b""));
        let mut out = Vec::new();
        f.serialize(&mut out);
        // Disk records and network frames share one codec.
        assert_eq!(out, f.freeze_standalone().wire_bytes().as_slice());
        out.extend_from_slice(b"tail");
        let mut buf = &out[..];
        let g = Frame::deserialize(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert_eq!(g.freeze_standalone(), f.freeze_standalone());
        assert!(Frame::deserialize(&mut &out[..3]).is_err());

        // Decoding into a frame replaces what it held, in its own buffers;
        // a record that does not parse leaves it empty and `buf` where it was.
        let mut into = Frame::new();
        into.try_append(&[9u8; 500]);
        let held = (into.data.as_ptr(), into.data.capacity());
        let mut buf = &out[..];
        into.deserialize_into(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert_eq!(into.freeze_standalone(), f.freeze_standalone());
        assert_eq!((into.data.as_ptr(), into.data.capacity()), held);
        let mut cut = &out[..out.len() - 5];
        let err = into.deserialize_into(&mut cut).unwrap_err();
        assert!(err.to_string().contains("frame data truncated"), "{err}");
        assert_eq!(cut.len(), out.len() - 5);
        assert!(into.is_empty() && into.data_bytes() == 0);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        let reject = |bytes: Vec<u8>, why: &str| {
            let mut buf = bytes.as_slice();
            let err = Frame::deserialize(&mut buf).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
            assert_eq!(buf.len(), bytes.len(), "a rejected record is not consumed");
        };
        reject(vec![1u8], "frame header truncated");
        // claims one tuple ending at 100 but provides no data
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&100u32.to_le_bytes());
        reject(bytes, "frame data truncated");
        // non-monotone offsets
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        reject(bytes, "frame offsets not monotone");
        // a tuple count whose offset table cannot fit
        reject(
            u32::MAX.to_le_bytes().to_vec(),
            "frame offset table truncated",
        );
    }

    #[test]
    fn to_frame_charges_the_copy() {
        let counters = ClusterCounters::new();
        let mut f = Frame::new();
        f.try_append(&keyed_tuple(1, b"abc"));
        let shared = f.freeze_standalone();
        let owned = shared.to_frame(&counters);
        assert_eq!(owned.tuple(0), shared.tuple(0));
        assert_eq!(counters.frame_bytes_copied(), shared.wire_len() as u64);
    }

    #[test]
    fn tuple_vid_rejects_short_tuple() {
        assert!(tuple_vid(b"short").is_err());
        assert!(tuple_payload(b"short").is_err());
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip(tuples in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..50), 0..40)) {
            let mut f = Frame::with_capacity(1 << 20);
            for t in &tuples { prop_assert!(f.try_append(t)); }
            let g = f.freeze_standalone();
            prop_assert_eq!(g.len(), tuples.len());
            for (i, t) in tuples.iter().enumerate() {
                prop_assert_eq!(g.tuple(i), &t[..]);
            }
        }

        #[test]
        fn prop_sort_is_stable_permutation(vids in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut f = Frame::with_capacity(1 << 20);
            for &v in &vids { f.try_append(&keyed_tuple(v, b"x")); }
            f.sort();
            let mut sorted = vids.clone();
            sorted.sort_unstable();
            let got: Vec<u64> = f.iter().map(|t| tuple_vid(t).unwrap()).collect();
            prop_assert_eq!(got, sorted);
        }
    }
}
