//! The slotted-page layout shared by B-tree leaf and interior pages.
//!
//! Layout of a page of `P` bytes:
//!
//! ```text
//! 0        1      2         4             8            12        16        24
//! +--------+------+---------+-------------+------------+---------+---------+----
//! | type   | level| ntuples | free_offset | dead_bytes | reserved| next    | entries →
//! +--------+------+---------+-------------+------------+---------+---------+----
//!                                                              ← slot array | P
//! ```
//!
//! Entry data grows forward from byte 24; the slot array (one `u16` offset
//! per entry, kept in key order) grows backward from the page end. Each
//! entry is `u16 key_len, u16 val_len, key, val`. Removals leave dead bytes
//! that are reclaimed by [`PageMut::compact`] when an insertion would
//! otherwise fail.

use pregelix_common::error::{PregelixError, Result};

/// Byte offset where entry data begins.
pub const HEADER_LEN: usize = 24;
/// Sentinel for "no sibling page".
pub const NO_PAGE: u64 = u64::MAX;

/// Page type tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageType {
    /// B-tree leaf holding `(key, value)` entries.
    Leaf,
    /// B-tree interior node holding `(separator_key, child_page_id)` entries.
    Interior,
    /// File metadata page (root pointer etc.).
    Meta,
    /// Overflow page holding a chunk of a value too large to inline in a
    /// leaf (high-degree vertices). Chained via the `next` header field;
    /// the chunk length is stored in the `dead_bytes` header slot.
    Overflow,
}

impl PageType {
    fn to_byte(self) -> u8 {
        match self {
            PageType::Leaf => 0,
            PageType::Interior => 1,
            PageType::Meta => 2,
            PageType::Overflow => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        match b {
            0 => Ok(PageType::Leaf),
            1 => Ok(PageType::Interior),
            2 => Ok(PageType::Meta),
            3 => Ok(PageType::Overflow),
            _ => Err(PregelixError::corrupt(format!("bad page type {b}"))),
        }
    }
}

#[inline]
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes"))
}

#[inline]
fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

#[inline]
fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

#[inline]
fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Read-only view of a slotted page.
#[derive(Clone, Copy)]
pub struct PageRef<'a> {
    buf: &'a [u8],
}

impl<'a> PageRef<'a> {
    /// Wrap a page buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert!(buf.len() > HEADER_LEN + 2);
        PageRef { buf }
    }

    /// The page's type tag.
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_byte(self.buf[0])
    }

    /// Tree level (0 = leaf).
    pub fn level(&self) -> u8 {
        self.buf[1]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        get_u16(self.buf, 2) as usize
    }

    /// Whether the page has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sibling page id for leaves ([`NO_PAGE`] when absent).
    pub fn next_page(&self) -> u64 {
        get_u64(self.buf, 16)
    }

    fn slot(&self, i: usize) -> usize {
        get_u16(self.buf, self.buf.len() - 2 * (i + 1)) as usize
    }

    /// Borrow entry `i` as `(key, value)`.
    pub fn entry(&self, i: usize) -> (&'a [u8], &'a [u8]) {
        let off = self.slot(i);
        let klen = get_u16(self.buf, off) as usize;
        let vlen = get_u16(self.buf, off + 2) as usize;
        let kstart = off + 4;
        (
            &self.buf[kstart..kstart + klen],
            &self.buf[kstart + klen..kstart + klen + vlen],
        )
    }

    /// Borrow the key of entry `i`.
    pub fn key(&self, i: usize) -> &'a [u8] {
        self.entry(i).0
    }

    /// Borrow the value of entry `i`.
    pub fn value(&self, i: usize) -> &'a [u8] {
        self.entry(i).1
    }

    /// Binary search for `key` among the entries.
    pub fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Bytes of live entry data plus slot overhead.
    pub fn used_bytes(&self) -> usize {
        let free_offset = get_u32(self.buf, 4) as usize;
        let dead = get_u32(self.buf, 8) as usize;
        (free_offset - HEADER_LEN - dead) + 2 * self.len()
    }

    /// Bytes available for a new entry without compaction.
    pub fn contiguous_free(&self) -> usize {
        let free_offset = get_u32(self.buf, 4) as usize;
        let slot_end = self.buf.len() - 2 * self.len();
        slot_end.saturating_sub(free_offset)
    }

    /// Bytes that compaction would additionally reclaim.
    pub fn dead_bytes(&self) -> usize {
        get_u32(self.buf, 8) as usize
    }
}

/// Mutable view of a slotted page.
pub struct PageMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> PageMut<'a> {
    /// Wrap a page buffer for mutation (must already be initialised).
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert!(buf.len() > HEADER_LEN + 2);
        PageMut { buf }
    }

    /// Initialise a blank page of the given type/level.
    pub fn init(buf: &'a mut [u8], page_type: PageType, level: u8) -> Self {
        buf[0] = page_type.to_byte();
        buf[1] = level;
        put_u16(buf, 2, 0);
        put_u32(buf, 4, HEADER_LEN as u32);
        put_u32(buf, 8, 0);
        put_u32(buf, 12, 0);
        put_u64(buf, 16, NO_PAGE);
        PageMut { buf }
    }

    /// Immutable view of this page.
    pub fn as_ref(&self) -> PageRef<'_> {
        PageRef { buf: self.buf }
    }

    /// Set the leaf sibling pointer.
    pub fn set_next_page(&mut self, next: u64) {
        put_u64(self.buf, 16, next);
    }

    /// Size in bytes an entry with the given key/value lengths occupies
    /// (excluding its slot).
    pub fn entry_size(key_len: usize, val_len: usize) -> usize {
        4 + key_len + val_len
    }

    /// Insert `(key, value)` at slot position `i` (shifting later slots).
    /// Returns `false` if the page lacks space even after compaction.
    pub fn insert_at(&mut self, i: usize, key: &[u8], value: &[u8]) -> bool {
        let need = Self::entry_size(key.len(), value.len()) + 2;
        if self.as_ref().contiguous_free() < need {
            if self.as_ref().contiguous_free() + self.as_ref().dead_bytes() < need {
                return false;
            }
            self.compact();
            if self.as_ref().contiguous_free() < need {
                return false;
            }
        }
        let n = self.as_ref().len();
        debug_assert!(i <= n);
        let free_offset = get_u32(self.buf, 4) as usize;
        // Write entry data.
        put_u16(self.buf, free_offset, key.len() as u16);
        put_u16(self.buf, free_offset + 2, value.len() as u16);
        self.buf[free_offset + 4..free_offset + 4 + key.len()].copy_from_slice(key);
        self.buf[free_offset + 4 + key.len()..free_offset + 4 + key.len() + value.len()]
            .copy_from_slice(value);
        put_u32(
            self.buf,
            4,
            (free_offset + Self::entry_size(key.len(), value.len())) as u32,
        );
        // Shift slots i..n down by one position (each slot lives 2 bytes
        // *lower* in memory per increasing index).
        let end = self.buf.len();
        for j in (i..n).rev() {
            let v = get_u16(self.buf, end - 2 * (j + 1));
            put_u16(self.buf, end - 2 * (j + 2), v);
        }
        put_u16(self.buf, end - 2 * (i + 1), free_offset as u16);
        put_u16(self.buf, 2, (n + 1) as u16);
        true
    }

    /// Append an entry that sorts after every existing key (bulk-load path).
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> bool {
        debug_assert!(
            self.as_ref().is_empty() || self.as_ref().key(self.as_ref().len() - 1) <= key,
            "append would violate key order"
        );
        let n = self.as_ref().len();
        self.insert_at(n, key, value)
    }

    /// Remove entry `i`, leaving its bytes dead until compaction.
    pub fn remove(&mut self, i: usize) {
        let n = self.as_ref().len();
        debug_assert!(i < n);
        let off = self.as_ref().slot(i);
        let klen = get_u16(self.buf, off) as usize;
        let vlen = get_u16(self.buf, off + 2) as usize;
        let dead = get_u32(self.buf, 8) as usize + Self::entry_size(klen, vlen);
        put_u32(self.buf, 8, dead as u32);
        let end = self.buf.len();
        for j in i..n - 1 {
            let v = get_u16(self.buf, end - 2 * (j + 2));
            put_u16(self.buf, end - 2 * (j + 1), v);
        }
        put_u16(self.buf, 2, (n - 1) as u16);
    }

    /// The value bytes of entry `i`, for overwriting in place.
    pub fn value_mut(&mut self, i: usize) -> &mut [u8] {
        let off = self.as_ref().slot(i);
        let klen = get_u16(self.buf, off) as usize;
        let vlen = get_u16(self.buf, off + 2) as usize;
        let vstart = off + 4 + klen;
        &mut self.buf[vstart..vstart + vlen]
    }

    /// Replace the value of entry `i`. Fast path: identical length →
    /// in-place overwrite (the PageRank case: fixed-width vertex values,
    /// §5.2). Otherwise remove + reinsert. Returns `false` if the new value
    /// does not fit.
    pub fn replace_value(&mut self, i: usize, value: &[u8]) -> bool {
        let old = self.value_mut(i);
        if old.len() == value.len() {
            old.copy_from_slice(value);
            return true;
        }
        let key = self.as_ref().key(i).to_vec();
        self.remove(i);
        if self.insert_at(i, &key, value) {
            true
        } else {
            // Roll back so the caller can split: restore the old entry is
            // impossible (old value bytes are dead), so we signal failure
            // only when the *caller* guaranteed recoverability. The B-tree
            // handles this by copying the entry out before replacing.
            false
        }
    }

    /// Rewrite the page to reclaim dead bytes.
    pub fn compact(&mut self) {
        let n = self.as_ref().len();
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let (k, v) = self.as_ref().entry(i);
            entries.push((k.to_vec(), v.to_vec()));
        }
        let ptype = self.as_ref().page_type().expect("valid page");
        let level = self.as_ref().level();
        let next = self.as_ref().next_page();
        let mut fresh = PageMut::init(self.buf, ptype, level);
        fresh.set_next_page(next);
        for (k, v) in entries {
            let ok = fresh.append(&k, &v);
            debug_assert!(ok, "compaction must not lose entries");
        }
    }

    /// Move the upper half of the entries into `right` (a freshly
    /// initialised page of the same type), returning the first key now in
    /// `right`. Used by B-tree splits.
    pub fn split_into(&mut self, right: &mut PageMut<'_>) -> Vec<u8> {
        let n = self.as_ref().len();
        debug_assert!(n >= 2, "cannot split page with {n} entries");
        let mid = n / 2;
        for i in mid..n {
            let (k, v) = self.as_ref().entry(i);
            let ok = right.append(k, v);
            debug_assert!(ok, "split target must have room");
        }
        for i in (mid..n).rev() {
            self.remove(i);
        }
        self.compact();
        right.as_ref().key(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(size: usize) -> Vec<u8> {
        vec![0u8; size]
    }

    #[test]
    fn init_and_header_fields() {
        let mut buf = blank(256);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        p.set_next_page(42);
        let r = p.as_ref();
        assert_eq!(r.page_type().unwrap(), PageType::Leaf);
        assert_eq!(r.level(), 0);
        assert_eq!(r.len(), 0);
        assert_eq!(r.next_page(), 42);
        assert!(r.is_empty());
    }

    #[test]
    fn sorted_inserts_and_search() {
        let mut buf = blank(512);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        for k in [5u64, 1, 9, 3, 7] {
            let key = k.to_be_bytes();
            let pos = p.as_ref().search(&key).unwrap_err();
            assert!(p.insert_at(pos, &key, format!("v{k}").as_bytes()));
        }
        let r = p.as_ref();
        assert_eq!(r.len(), 5);
        let keys: Vec<u64> = (0..5)
            .map(|i| u64::from_be_bytes(r.key(i).try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        assert_eq!(r.search(&5u64.to_be_bytes()), Ok(2));
        assert_eq!(r.search(&6u64.to_be_bytes()), Err(3));
        assert_eq!(r.value(2), b"v5");
    }

    #[test]
    fn page_fills_then_rejects() {
        let mut buf = blank(128);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        let mut accepted = 0;
        for k in 0..100u64 {
            if !p.append(&k.to_be_bytes(), b"valuedata") {
                break;
            }
            accepted += 1;
        }
        assert!(accepted > 2, "should fit a few entries");
        assert!(accepted < 100, "page must eventually fill");
        assert_eq!(p.as_ref().len(), accepted);
    }

    #[test]
    fn remove_then_compact_reclaims_space() {
        let mut buf = blank(256);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        let mut n = 0;
        while p.append(&(n as u64).to_be_bytes(), b"0123456789") {
            n += 1;
        }
        // Remove every other entry, then insertions should succeed again
        // (forcing an internal compaction).
        let mut i = 0;
        while i < p.as_ref().len() {
            p.remove(i);
            i += 1;
        }
        assert!(p.as_ref().dead_bytes() > 0);
        let big_key = (1000u64).to_be_bytes();
        assert!(p.insert_at(p.as_ref().len(), &big_key, b"0123456789"));
    }

    #[test]
    fn replace_value_same_size_in_place() {
        let mut buf = blank(256);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        p.append(&1u64.to_be_bytes(), b"aaaa");
        p.append(&2u64.to_be_bytes(), b"bbbb");
        assert!(p.replace_value(0, b"cccc"));
        assert_eq!(p.as_ref().value(0), b"cccc");
        assert_eq!(p.as_ref().value(1), b"bbbb");
        assert_eq!(p.as_ref().dead_bytes(), 0, "same-size replace is in place");
    }

    #[test]
    fn replace_value_different_size() {
        let mut buf = blank(256);
        let mut p = PageMut::init(&mut buf, PageType::Leaf, 0);
        p.append(&1u64.to_be_bytes(), b"aa");
        p.append(&2u64.to_be_bytes(), b"bb");
        assert!(p.replace_value(0, b"longer-value"));
        assert_eq!(p.as_ref().value(0), b"longer-value");
        assert_eq!(p.as_ref().key(0), &1u64.to_be_bytes());
        // Order preserved.
        assert!(p.as_ref().key(0) < p.as_ref().key(1));
    }

    #[test]
    fn split_moves_upper_half() {
        let mut left_buf = blank(512);
        let mut left = PageMut::init(&mut left_buf, PageType::Leaf, 0);
        for k in 0..10u64 {
            assert!(left.append(&k.to_be_bytes(), b"v"));
        }
        let mut right_buf = blank(512);
        let mut right = PageMut::init(&mut right_buf, PageType::Leaf, 0);
        let sep = left.split_into(&mut right);
        assert_eq!(sep, 5u64.to_be_bytes().to_vec());
        assert_eq!(left.as_ref().len(), 5);
        assert_eq!(right.as_ref().len(), 5);
        assert_eq!(right.as_ref().key(0), &5u64.to_be_bytes());
        assert_eq!(left.as_ref().key(4), &4u64.to_be_bytes());
    }

    #[test]
    fn interior_entries_hold_child_pointers() {
        let mut buf = blank(256);
        let mut p = PageMut::init(&mut buf, PageType::Interior, 1);
        p.append(&1u64.to_be_bytes(), &100u64.to_le_bytes());
        p.append(&5u64.to_be_bytes(), &200u64.to_le_bytes());
        let r = p.as_ref();
        assert_eq!(r.page_type().unwrap(), PageType::Interior);
        assert_eq!(r.level(), 1);
        let child = u64::from_le_bytes(r.value(1).try_into().unwrap());
        assert_eq!(child, 200);
    }

    #[test]
    fn corrupt_type_byte_detected() {
        let mut buf = blank(64);
        PageMut::init(&mut buf, PageType::Leaf, 0);
        buf[0] = 99;
        assert!(PageRef::new(&buf).page_type().is_err());
    }
}
