//! A disk-based B-tree over the buffer cache.
//!
//! This is the `Vertex` relation's default access method (§5.2): "A B-tree
//! index performs well on jobs that frequently update vertex data in-place,
//! e.g., PageRank." Keys are arbitrary byte strings compared as memcmp
//! (Pregelix uses 8-byte big-endian vids); values are arbitrary bytes, with
//! values too large to inline (high-degree vertices) transparently spilled
//! to chained overflow pages.
//!
//! Supported operations: [`BTree::bulk_load`] (the initial graph load and
//! checkpoint recovery path) and the [`RowCursor`], the one path that reads
//! and writes rows: for the index full-outer join (`next`), the index
//! left-outer join (`seek`), graph mutations, checkpoints and dumps. The
//! cursor changes a row in the slot it holds; only an entry that no longer
//! fits its leaf, and an insert of a key other than the current row, go
//! through the tree's one split-capable put from the root.
//!
//! Deletion does not rebalance: underfull pages persist until the next bulk
//! rebuild, and leaves emptied by deletes stay in the sibling chain, where
//! the cursor walks over them.

use crate::cache::{BufferCache, PageGuard};
use crate::file::{FileId, PageId};
use crate::page::{PageMut, PageRef, PageType, HEADER_LEN, NO_PAGE};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Site};

/// Value-encoding tags used inside leaf entries.
const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;

/// Meta-page magic for corruption detection on open.
const META_MAGIC: u64 = 0x5052_4547_4C58_4254; // "PREGLXBT"

/// A B-tree bound to one file of a worker's buffer cache.
pub struct BTree {
    cache: BufferCache,
    file: FileId,
    root: PageId,
    height: u8,
    /// Recycled overflow pages (in-memory only; see module docs).
    free_overflow: Vec<PageId>,
}

impl BTree {
    /// Create a fresh, empty tree in a new file.
    pub fn create(cache: BufferCache) -> Result<BTree> {
        let file = cache.file_manager().create()?;
        // Page 0: meta. Page 1: empty leaf root.
        let (meta_id, meta) = cache.new_page(file)?;
        debug_assert_eq!(meta_id, 0);
        let (root_id, root) = cache.new_page(file)?;
        {
            let mut buf = root.write();
            PageMut::init(&mut buf, PageType::Leaf, 0);
        }
        drop(root);
        let tree = BTree {
            cache,
            file,
            root: root_id,
            height: 1,
            free_overflow: Vec::new(),
        };
        {
            let mut buf = meta.write();
            tree.write_meta(&mut buf);
        }
        drop(meta);
        Ok(tree)
    }

    /// Re-open a tree persisted in `file` by [`BTree::flush`].
    pub fn open(cache: BufferCache, file: FileId) -> Result<BTree> {
        let meta = cache.pin(file, 0)?;
        let buf = meta.read();
        if buf.len() < 17 || u64::from_le_bytes(buf[0..8].try_into().expect("8")) != META_MAGIC {
            return Err(PregelixError::corrupt("bad B-tree meta page"));
        }
        let root = u64::from_le_bytes(buf[8..16].try_into().expect("8"));
        let height = buf[16];
        drop(buf);
        Ok(BTree {
            cache,
            file,
            root,
            height,
            free_overflow: Vec::new(),
        })
    }

    /// Meta-page layout: magic (0..8), root (8..16), height (16).
    fn write_meta(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&self.root.to_le_bytes());
        buf[16] = self.height;
    }

    fn sync_meta(&self) -> Result<()> {
        let meta = self.cache.pin(self.file, 0)?;
        let mut buf = meta.write();
        self.write_meta(&mut buf);
        Ok(())
    }

    /// The file holding this tree.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The buffer cache this tree reads through.
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Write back all dirty pages (meta included) so [`BTree::open`] sees
    /// the current state after a cache purge or process restart.
    pub fn flush(&self) -> Result<()> {
        self.sync_meta()?;
        self.cache.flush_file(self.file)
    }

    /// Delete the backing file (consumes the tree).
    pub fn destroy(self) -> Result<()> {
        self.cache.purge_file(self.file, false)?;
        self.cache.file_manager().delete(self.file)
    }

    // ------------------------------------------------------------------
    // Value encoding: inline vs overflow
    // ------------------------------------------------------------------

    /// Largest encoded leaf entry we inline: a leaf page must always be able
    /// to hold at least 4 entries.
    fn max_inline_entry(&self) -> usize {
        (self.cache.page_size() - HEADER_LEN) / 4 - 2
    }

    fn overflow_chunk_capacity(&self) -> usize {
        self.cache.page_size() - HEADER_LEN
    }

    fn alloc_overflow_page(&mut self) -> Result<PageId> {
        if let Some(p) = self.free_overflow.pop() {
            return Ok(p);
        }
        let (pid, guard) = self.cache.new_page(self.file)?;
        drop(guard);
        Ok(pid)
    }

    /// Write `bytes` into a chain of overflow pages (last chunk first so
    /// each page can point at the next) and return the head page.
    fn write_overflow_chain(&mut self, bytes: &[u8]) -> Result<PageId> {
        let cap = self.overflow_chunk_capacity();
        let mut next = NO_PAGE;
        let mut start = (bytes.len() / cap) * cap;
        if start == bytes.len() && start > 0 {
            start -= cap;
        }
        loop {
            let chunk = &bytes[start..(start + cap).min(bytes.len())];
            let pid = self.alloc_overflow_page()?;
            let guard = self.cache.pin(self.file, pid)?;
            {
                let mut buf = guard.write();
                let mut p = PageMut::init(&mut buf, PageType::Overflow, 0);
                p.set_next_page(next);
                // Chunk length in header bytes 8..12; data from HEADER_LEN.
                buf[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                buf[HEADER_LEN..HEADER_LEN + chunk.len()].copy_from_slice(chunk);
            }
            next = pid;
            if start == 0 {
                break;
            }
            start -= cap;
        }
        Ok(next)
    }

    /// Read back an overflow chain written by [`BTree::write_overflow_chain`]
    /// into `out` (cleared first).
    fn read_overflow_chain_into(
        &self,
        head: PageId,
        total: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let mut page = head;
        out.clear();
        out.reserve(total);
        while page != NO_PAGE {
            let guard = self.cache.pin(self.file, page)?;
            let buf = guard.read();
            let r = PageRef::new(&buf);
            if r.page_type()? != PageType::Overflow {
                return Err(PregelixError::corrupt("overflow chain hit non-overflow page"));
            }
            let len = u32::from_le_bytes(buf[8..12].try_into().expect("4")) as usize;
            out.extend_from_slice(&buf[HEADER_LEN..HEADER_LEN + len]);
            page = r.next_page();
        }
        if out.len() != total {
            return Err(PregelixError::corrupt(format!(
                "overflow chain length {} != recorded {total}",
                out.len()
            )));
        }
        Ok(())
    }

    /// Recycle an overflow chain's pages into the free list.
    fn free_overflow_chain(&mut self, head: PageId) -> Result<()> {
        let mut page = head;
        while page != NO_PAGE {
            let guard = self.cache.pin(self.file, page)?;
            let next = {
                let buf = guard.read();
                PageRef::new(&buf).next_page()
            };
            self.free_overflow.push(page);
            page = next;
        }
        Ok(())
    }

    /// Whether a value of `value_len` bytes under a key of `key_len` bytes is
    /// stored inline in its leaf entry (otherwise it spills to a chain).
    fn inlines(&self, key_len: usize, value_len: usize) -> bool {
        PageMut::entry_size(key_len, 1 + value_len) <= self.max_inline_entry()
    }

    /// Encode `value` for storage in a leaf: inline when small, otherwise
    /// spilled to an overflow chain.
    fn encode_value(&mut self, key_len: usize, value: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_value_into(key_len, value, &mut out)?;
        Ok(out)
    }

    /// [`encode_value`](Self::encode_value) into `out` (cleared first), so a
    /// bulk load reuses one buffer for every entry.
    fn encode_value_into(&mut self, key_len: usize, value: &[u8], out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        if self.inlines(key_len, value.len()) {
            out.reserve(1 + value.len());
            out.push(TAG_INLINE);
            out.extend_from_slice(value);
            return Ok(());
        }
        let head = self.write_overflow_chain(value)?;
        out.push(TAG_OVERFLOW);
        out.extend_from_slice(&(value.len() as u64).to_le_bytes());
        out.extend_from_slice(&head.to_le_bytes());
        Ok(())
    }

    /// Decode a stored leaf value into `out` (cleared first), following
    /// overflow chains.
    fn decode_value_into(&self, stored: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match stored.first() {
            Some(&TAG_INLINE) => {
                out.clear();
                out.extend_from_slice(&stored[1..]);
                Ok(())
            }
            Some(&TAG_OVERFLOW) => {
                if stored.len() != 17 {
                    return Err(PregelixError::corrupt("bad overflow pointer"));
                }
                let total = u64::from_le_bytes(stored[1..9].try_into().expect("8")) as usize;
                let page = u64::from_le_bytes(stored[9..17].try_into().expect("8"));
                self.read_overflow_chain_into(page, total, out)
            }
            _ => Err(PregelixError::corrupt("empty leaf value")),
        }
    }

    /// Recycle the overflow chain behind a stored value (if any).
    fn free_value(&mut self, stored: &[u8]) -> Result<()> {
        if stored.first() == Some(&TAG_OVERFLOW) && stored.len() == 17 {
            let page = u64::from_le_bytes(stored[9..17].try_into().expect("8"));
            self.free_overflow_chain(page)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The row cursor
    // ------------------------------------------------------------------

    /// Pin the leftmost leaf: descend always taking child 0.
    fn pin_leftmost_leaf(&self) -> Result<PageGuard> {
        let mut page = self.root;
        loop {
            let guard = self.cache.pin(self.file, page)?;
            let child = {
                let buf = guard.read();
                let r = PageRef::new(&buf);
                match r.page_type()? {
                    PageType::Leaf => None,
                    PageType::Interior => Some(u64::from_le_bytes(
                        r.value(0).try_into().expect("child pointer"),
                    )),
                    t => {
                        return Err(PregelixError::corrupt(format!("unexpected page type {t:?}")))
                    }
                }
            };
            match child {
                None => return Ok(guard),
                Some(c) => page = c,
            }
        }
    }

    /// Forward-only read-write cursor over the rows (see [`RowCursor`]).
    pub fn cursor(&mut self) -> RowCursor<'_> {
        RowCursor {
            tree: self,
            pos: LeafPos::default(),
            slot: 0,
            key: Vec::new(),
            value: Vec::new(),
            found: false,
            inline: false,
            started: false,
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Insert `key` with the already-encoded `stored` value from the root,
    /// splitting pages as needed; a row already under `key` is replaced and
    /// its overflow chain recycled. The [`RowCursor`] calls it, with its
    /// path unpinned, only for an entry that no longer fits its leaf and for
    /// an insert of a key other than its current row.
    fn put(&mut self, key: &[u8], stored: &[u8]) -> Result<()> {
        if fault::active() && fault::hit(Site::BtreeOp, "insert").is_some() {
            self.cache.counters().add_faults_injected(1);
            return Err(fault::injected_error(Site::BtreeOp, "insert"));
        }
        if key.len() + 8 > self.max_inline_entry() {
            return Err(PregelixError::storage("key too large for page"));
        }
        if let Some((sep, right)) = self.insert_rec(self.root, key, stored)? {
            self.grow_root(sep, right)?;
        }
        Ok(())
    }

    /// The put's descent: insert into the leaf that owns `key`, then the
    /// separators of any split into the pages above it. A page's type, level
    /// and (interior) child for `key` are read under the one pin the
    /// descent takes of it, and a leaf is changed under that pin, so a put
    /// that splits nothing pins each page on its path once.
    fn insert_rec(
        &mut self,
        page: PageId,
        key: &[u8],
        stored: &[u8],
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let guard = self.cache.pin(self.file, page)?;
        let (level, child) = {
            let buf = guard.read();
            let r = PageRef::new(&buf);
            match r.page_type()? {
                PageType::Leaf => (r.level(), None),
                PageType::Interior => (r.level(), Some(child_of(&r, key)?.1)),
                t => return Err(PregelixError::corrupt(format!("unexpected page type {t:?}"))),
            }
        };
        let Some(child) = child else {
            return self.leaf_insert(guard, key, stored);
        };
        drop(guard);
        if let Some((sep, right)) = self.insert_rec(child, key, stored)? {
            return self.interior_insert(page, level, &sep, right);
        }
        Ok(None)
    }

    /// Insert into the leaf `guard` pins.
    fn leaf_insert(
        &mut self,
        guard: PageGuard,
        key: &[u8],
        stored: &[u8],
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        // Fast path: fits in place. A replaced entry's old value is copied
        // out so its overflow chain can be recycled; when the new one does
        // not fit, `replace_value` has removed the entry and the split below
        // inserts the key afresh.
        let (old, placed) = {
            let mut buf = guard.write();
            let mut p = PageMut::new(&mut buf);
            match p.as_ref().search(key) {
                Ok(i) => {
                    let old = p.as_ref().value(i).to_vec();
                    (Some(old), p.replace_value(i, stored))
                }
                Err(pos) => (None, p.insert_at(pos, key, stored)),
            }
        };
        if let Some(old) = old {
            self.free_value(&old)?;
        }
        if placed {
            return Ok(None);
        }
        // Split. Allocate the right sibling, move the upper half, then
        // insert into whichever side owns the key.
        let (right_id, right_guard) = self.cache.new_page(self.file)?;
        let sep = {
            let mut lbuf = guard.write();
            let mut rbuf = right_guard.write();
            let mut left = PageMut::new(&mut lbuf);
            let mut right = PageMut::init(&mut rbuf, PageType::Leaf, 0);
            right.set_next_page(left.as_ref().next_page());
            let sep = left.split_into(&mut right);
            left.set_next_page(right_id);
            // Insert into the owning side.
            let target = if key < sep.as_slice() {
                &mut left
            } else {
                &mut right
            };
            let pos = target
                .as_ref()
                .search(key)
                .expect_err("key known absent");
            if !target.insert_at(pos, key, stored) {
                return Err(PregelixError::storage(
                    "entry does not fit in a half-empty page (tuple too large)",
                ));
            }
            sep
        };
        Ok(Some((sep, right_id)))
    }

    fn interior_insert(
        &mut self,
        page: PageId,
        level: u8,
        sep: &[u8],
        child: PageId,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let child_bytes = child.to_le_bytes();
        {
            let guard = self.cache.pin(self.file, page)?;
            let mut buf = guard.write();
            let mut p = PageMut::new(&mut buf);
            let pos = match p.as_ref().search(sep) {
                Ok(i) => i + 1, // duplicate separators cannot happen with unique keys
                Err(i) => i,
            };
            if p.insert_at(pos, sep, &child_bytes) {
                return Ok(None);
            }
        }
        let (right_id, right_guard) = self.cache.new_page(self.file)?;
        let left_guard = self.cache.pin(self.file, page)?;
        let up_sep = {
            let mut lbuf = left_guard.write();
            let mut rbuf = right_guard.write();
            let mut left = PageMut::new(&mut lbuf);
            let mut right = PageMut::init(&mut rbuf, PageType::Interior, level);
            let up = left.split_into(&mut right);
            let target = if sep < up.as_slice() {
                &mut left
            } else {
                &mut right
            };
            let pos = match target.as_ref().search(sep) {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            if !target.insert_at(pos, sep, &child_bytes) {
                return Err(PregelixError::storage("separator does not fit after split"));
            }
            up
        };
        Ok(Some((up_sep, right_id)))
    }

    fn grow_root(&mut self, sep: Vec<u8>, right: PageId) -> Result<()> {
        let old_root = self.root;
        let (new_root_id, guard) = self.cache.new_page(self.file)?;
        {
            let mut buf = guard.write();
            let mut p = PageMut::init(&mut buf, PageType::Interior, self.height);
            // Leftmost child keyed by the empty string (compares lowest).
            let ok1 = p.append(b"", &old_root.to_le_bytes());
            let ok2 = p.append(&sep, &right.to_le_bytes());
            debug_assert!(ok1 && ok2, "fresh root must fit two entries");
        }
        self.root = new_root_id;
        self.height += 1;
        self.sync_meta()
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// A fresh, formatted page for a bulk load to fill, unpinned. The load
    /// pins it again while it fills, so CLOCK sees a node used twice — it
    /// takes many entries — and its last unpin marks it referenced (its
    /// second chance), as any page used more than once.
    fn new_node(&self, kind: PageType, level: u8) -> Result<PageId> {
        let (id, guard) = self.cache.new_page(self.file)?;
        PageMut::init(&mut guard.write(), kind, level);
        Ok(id)
    }

    /// Build the tree from key-sorted `(key, value)` pairs. The tree must be
    /// freshly created and empty. `fill` is the leaf fill factor in (0, 1];
    /// bulk loads that will see in-place growth should leave slack.
    ///
    /// This is the graph-load path (§5.2): scan HDFS input, partition, sort
    /// by vid, bulk load one tree per partition. Also the recovery path
    /// (§5.5). The page being filled stays pinned from its first entry to
    /// its last, and each entry is encoded into one reused buffer, so the
    /// load pins each page once however many entries it takes.
    pub fn bulk_load<I, K, V>(&mut self, entries: I, fill: f64) -> Result<()>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        if fault::active() && fault::hit(Site::BtreeOp, "bulk_load").is_some() {
            self.cache.counters().add_faults_injected(1);
            return Err(fault::injected_error(Site::BtreeOp, "bulk_load"));
        }
        let fill = fill.clamp(0.1, 1.0);
        let budget = ((self.cache.page_size() - HEADER_LEN) as f64 * fill) as usize;
        // Current leaf being filled = the initial empty root leaf.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first_key, page)
        let (mut cur_leaf, mut leaf) = (self.root, self.cache.pin(self.file, self.root)?);
        let mut cur_first: Option<Vec<u8>> = None;
        let mut cur_used = 0usize;
        let mut last_key: Vec<u8> = Vec::new();
        let mut stored = Vec::new();

        for (key, value) in entries {
            let key = key.as_ref();
            if cur_first.is_some() && last_key.as_slice() >= key {
                return Err(PregelixError::storage(
                    "bulk load input not strictly key-sorted",
                ));
            }
            self.encode_value_into(key.len(), value.as_ref(), &mut stored)?;
            let entry = PageMut::entry_size(key.len(), stored.len()) + 2;
            if cur_first.is_some() && cur_used + entry > budget {
                // Seal current leaf, start a new one.
                leaves.push((cur_first.take().expect("non-empty leaf"), cur_leaf));
                let new_id = self.new_node(PageType::Leaf, 0)?;
                PageMut::new(&mut leaf.write()).set_next_page(new_id);
                (cur_leaf, leaf) = (new_id, self.cache.pin(self.file, new_id)?);
                cur_used = 0;
            }
            if !PageMut::new(&mut leaf.write()).append(key, &stored) {
                return Err(PregelixError::storage(
                    "bulk-load entry exceeds page capacity",
                ));
            }
            if cur_first.is_none() {
                cur_first = Some(key.to_vec());
            }
            cur_used += entry;
            last_key.clear();
            last_key.extend_from_slice(key);
        }
        drop(leaf);
        if let Some(first) = cur_first {
            leaves.push((first, cur_leaf));
        }
        if leaves.len() <= 1 {
            // Root stays the single leaf.
            return self.sync_meta();
        }

        // Build interior levels bottom-up, each node pinned while it fills.
        let mut level_nodes = leaves;
        let mut level = 1u8;
        while level_nodes.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            // (page, first_key, pin) of the node being filled.
            let mut cur: Option<(PageId, Vec<u8>, PageGuard)> = None;
            for (first_key, child) in &level_nodes {
                let child = child.to_le_bytes();
                // The first entry of each interior node uses the empty key
                // so descents for keys below the first separator still land
                // in the leftmost child.
                let appended = match &cur {
                    Some((_, _, node)) => PageMut::new(&mut node.write()).append(first_key, &child),
                    None => false,
                };
                if !appended {
                    // Seal this interior node (if any), open another.
                    if let Some((done_pid, done_first, _)) = cur.take() {
                        next_level.push((done_first, done_pid));
                    }
                    let pid = self.new_node(PageType::Interior, level)?;
                    let node = self.cache.pin(self.file, pid)?;
                    let ok = PageMut::new(&mut node.write()).append(b"", &child);
                    debug_assert!(ok, "fresh interior fits one entry");
                    cur = Some((pid, first_key.clone(), node));
                }
            }
            let (pid, first, _) = cur.expect("at least one node per level");
            next_level.push((first, pid));
            level_nodes = next_level;
            level += 1;
        }
        self.root = level_nodes[0].1;
        self.height = level;
        self.sync_meta()
    }
}

/// The slot and child page an interior page routes `key` to: the last entry
/// whose separator is `<= key` (entry 0's empty separator catches the rest).
fn child_of(r: &PageRef<'_>, key: &[u8]) -> Result<(usize, PageId)> {
    let idx = match r.search(key) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) => i - 1,
    };
    let child = u64::from_le_bytes(
        r.value(idx)
            .try_into()
            .map_err(|_| PregelixError::corrupt("interior value is not a child pointer"))?,
    );
    Ok((idx, child))
}

/// The exclusive upper bound of a remembered page's key range, in a buffer
/// reused from descent to descent. The rightmost spine is unbounded.
#[derive(Default)]
struct Fence {
    key: Vec<u8>,
    unbounded: bool,
}

impl Fence {
    fn covers(&self, key: &[u8]) -> bool {
        self.unbounded || key < self.key.as_slice()
    }

    fn set(&mut self, key: &[u8]) {
        self.unbounded = false;
        self.key.clear();
        self.key.extend_from_slice(key);
    }

    fn set_to(&mut self, other: &Fence) {
        self.unbounded = other.unbounded;
        self.key.clear();
        self.key.extend_from_slice(&other.key);
    }
}

/// The pinned root-to-leaf path of a sorted probe sequence, detached from
/// the tree's borrow so a cursor that also writes ([`RowCursor`]) can hold
/// one.
///
/// Every page of the last descent stays pinned — the interior pages root
/// first, then the leaf — each with the exclusive upper fence of its key
/// range: the separator after the entry its parent routed through, or the
/// parent's own fence when that entry was the parent's last (the root's is
/// unbounded). A key the leaf still covers is answered by a binary search
/// of the pinned leaf: zero additional pins. A key past it climbs to the
/// lowest remembered page whose fence still covers the key — the root
/// always does — and descends from there, pinning only the pages below.
/// Sparse sorted probes under one parent therefore cost one binary search
/// of a pinned page and one leaf pin each, and a dense run crosses a parent
/// boundary through the grandparent; only the first key (or the first after
/// [`LeafPos::unpin`]) descends from the root.
///
/// Only upper fences are kept: keys are non-decreasing, so a key is never
/// below the range of a page that an earlier key descended through.
/// [`RowCursor::next`] walking the sibling chain moves the leaf forward
/// without a fence; such a leaf answers only keys up to its last entry, and
/// the remembered interior ranges stay valid because keys only move on.
///
/// Invariants the holder keeps:
/// * Keys are non-decreasing (checked with a debug assertion); out-of-order
///   keys would be answered from a stale leaf.
/// * Only the holder changes the tree while a path is pinned. Replacing or
///   removing an entry in the pinned leaf moves no separator, so the path
///   stays; the holder drops it with [`LeafPos::unpin`] before a put from
///   the root, which may split pages. No fence can go stale.
/// * At most `height` pages are pinned at a time, respecting the buffer
///   cache's pin discipline (pinned pages are exempt from eviction).
///
/// Counter accounting: every [`LeafPos::locate`] bumps exactly one of
/// `probe_leaf_hits` (answered from the pinned leaf, or by a descent from a
/// remembered interior page) or `probe_redescents` (a descent from the
/// root with nothing remembered); `probe_page_pins` counts the pages each
/// descent pins — pinned-leaf answers are free.
#[derive(Default)]
struct LeafPos {
    /// The pinned interior pages of the last descent, root first.
    path: Vec<PageGuard>,
    /// The pinned current leaf; `None` until the first key descends.
    leaf: Option<PageGuard>,
    /// `fences[i]` bounds `path[i]`; `fences[path.len()]` bounds the leaf
    /// while `leaf_fenced`. Entries past those are spare buffers.
    fences: Vec<Fence>,
    /// Whether the leaf was reached by a descent (its fence is known), not
    /// by a walk along the sibling chain.
    leaf_fenced: bool,
    /// Monotonicity guard for debug builds.
    #[cfg(debug_assertions)]
    last_key: Option<Vec<u8>>,
}

impl LeafPos {
    /// Drop the pinned path; the next [`LeafPos::locate`] descends from the
    /// root.
    fn unpin(&mut self) {
        self.leaf = None;
        self.path.clear();
    }

    /// Move to a leaf reached along the sibling chain, keeping the path.
    fn walk_to(&mut self, leaf: PageGuard) {
        self.leaf = Some(leaf);
        self.leaf_fenced = false;
    }

    /// Whether the pinned leaf decides `key`.
    fn leaf_covers(&self, r: &PageRef<'_>, key: &[u8]) -> bool {
        if self.leaf_fenced {
            self.fences[self.path.len()].covers(key)
        } else {
            !r.is_empty() && key <= r.key(r.len() - 1)
        }
    }

    /// Pin the page an interior page routes `key` to, after the last page
    /// of `path`, writing its fence. The page becomes the leaf or joins the
    /// path. Returns whether it is the leaf.
    fn step_down(&mut self, tree: &BTree, key: &[u8]) -> Result<bool> {
        let depth = self.path.len();
        if self.fences.len() <= depth {
            self.fences.resize_with(depth + 1, Fence::default);
        }
        let child = match self.path.last() {
            None => {
                self.fences[0].unbounded = true;
                tree.root
            }
            Some(parent) => {
                let buf = parent.read();
                let r = PageRef::new(&buf);
                let (idx, child) = child_of(&r, key)?;
                let (above, below) = self.fences.split_at_mut(depth);
                if idx + 1 < r.len() {
                    below[0].set(r.key(idx + 1));
                } else {
                    below[0].set_to(&above[depth - 1]);
                }
                child
            }
        };
        let guard = tree.cache.pin(tree.file, child)?;
        let page_type = PageRef::new(&guard.read()).page_type()?;
        match page_type {
            PageType::Leaf => {
                self.leaf = Some(guard);
                self.leaf_fenced = true;
                Ok(true)
            }
            PageType::Interior => {
                self.path.push(guard);
                Ok(false)
            }
            t => Err(PregelixError::corrupt(format!("unexpected page type {t:?}"))),
        }
    }

    /// Descend to the leaf that decides `key` from the last page of `path`
    /// (from the root when it is empty) and pin it. Returns the pages pinned.
    fn descend(&mut self, tree: &BTree, key: &[u8]) -> Result<u64> {
        self.leaf = None;
        let mut pins = 1;
        while !self.step_down(tree, key)? {
            pins += 1;
        }
        Ok(pins)
    }

    /// Re-find the position by key after [`LeafPos::unpin`] (not a probe: no
    /// counters move) and search the leaf as [`LeafPos::locate`] does.
    fn repin(&mut self, tree: &BTree, key: &[u8]) -> Result<std::result::Result<usize, usize>> {
        self.unpin();
        self.descend(tree, key)?;
        let guard = self.leaf.as_ref().expect("a descent pins a leaf");
        let at = PageRef::new(&guard.read()).search(key);
        Ok(at)
    }

    /// Pin the leaf that decides `key` and hand `read` that page with the
    /// result of searching it: `Ok(slot)` of the entry, or `Err(slot)` where
    /// the key would sit in that leaf.
    fn locate<T>(
        &mut self,
        tree: &BTree,
        key: &[u8],
        mut read: impl FnMut(PageRef<'_>, std::result::Result<usize, usize>) -> Result<T>,
    ) -> Result<T> {
        #[cfg(debug_assertions)]
        {
            if let Some(prev) = &self.last_key {
                debug_assert!(
                    prev.as_slice() <= key,
                    "probe keys must be non-decreasing"
                );
            }
            let last = self.last_key.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(key);
        }
        let counters = tree.cache.counters();

        // Fast path: the key is still covered by the pinned leaf.
        if let Some(guard) = &self.leaf {
            let buf = guard.read();
            let r = PageRef::new(&buf);
            if self.leaf_covers(&r, key) {
                counters.add_probe_leaf_hits(1);
                return read(r, r.search(key));
            }
        }

        // Climb to the lowest remembered page whose range still covers the
        // key (the root's is unbounded), then descend from it.
        match self.fences[..self.path.len()]
            .iter()
            .rposition(|f| f.covers(key))
        {
            Some(i) => {
                self.path.truncate(i + 1);
                counters.add_probe_leaf_hits(1);
            }
            None => counters.add_probe_redescents(1),
        }
        counters.add_probe_page_pins(self.descend(tree, key)?);
        let guard = self.leaf.as_ref().expect("a descent pins a leaf");
        let buf = guard.read();
        let r = PageRef::new(&buf);
        read(r, r.search(key))
    }
}

/// Forward-only read-write cursor over a B-tree's rows: the access path of
/// the fused scan/compute/update operator (§5.3.2, flow D2).
///
/// [`RowCursor::next`] walks the rows in key order (the full-outer scan) and
/// [`RowCursor::seek`] jumps to a key at or after the position (the
/// left-outer sorted probe, through the pinned root-to-leaf path of
/// [`LeafPos`]: a seek past the current leaf descends from the lowest
/// pinned page whose range covers the key, so a seek under the same parent
/// pins one leaf and nothing else). Either way the cursor keeps the
/// current leaf pinned and lends the current row's
/// key and value from its own buffers (overflow chains resolved into the
/// same buffer), so reading a row allocates nothing.
///
/// A result is written back *at the cursor*, in the slot the current row
/// holds under the pin already held — no descent, no second pin, no search.
/// [`RowCursor::write_head`] and a [`RowCursor::write`] of unchanged length
/// overwrite an inline value; a value that grows, shrinks or lives in an
/// overflow chain replaces the entry in its leaf; [`RowCursor::delete`]
/// removes it. Only an entry that no longer fits its leaf, and
/// [`RowCursor::insert`] of a key other than the current row, go through
/// the tree's split-capable put from the root. Only that put drops the
/// pinned path, and the cursor finds its place again by key on the next
/// move or write; a change in the held slot keeps it. `next` therefore
/// always yields the smallest key greater than the position in the tree *as
/// it is now*.
pub struct RowCursor<'a> {
    tree: &'a mut BTree,
    /// The pinned path to the leaf the position lives on; unpinned before
    /// the first move and by a put from the root.
    pos: LeafPos,
    /// While pinned: slot of the current row (`found`), else of the first
    /// entry after the position.
    slot: usize,
    /// The position: the current row's key, or the last key sought.
    key: Vec<u8>,
    /// The current row's value (valid while `found`).
    value: Vec<u8>,
    /// Whether the cursor is on a row.
    found: bool,
    /// Whether the current row's value is stored inline in its leaf entry.
    inline: bool,
    /// `false` until the first move: the position is before every row.
    started: bool,
}

impl RowCursor<'_> {
    /// Move to the next row in key order; `false` at the end.
    // Not `Iterator::next`: the row is lent from the cursor's own buffers.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<bool> {
        let mut slot = if !self.started {
            self.started = true;
            self.pos.walk_to(self.tree.pin_leftmost_leaf()?);
            0
        } else if self.pos.leaf.is_some() {
            self.slot + usize::from(self.found)
        } else {
            match self.pos.repin(self.tree, &self.key)? {
                Ok(i) => i + 1,
                Err(i) => i,
            }
        };
        loop {
            let guard = self.pos.leaf.as_ref().expect("pinned above");
            let buf = guard.read();
            let r = PageRef::new(&buf);
            if slot < r.len() {
                let (key, stored) = r.entry(slot);
                self.key.clear();
                self.key.extend_from_slice(key);
                self.tree.decode_value_into(stored, &mut self.value)?;
                self.inline = stored.first() == Some(&TAG_INLINE);
                self.slot = slot;
                self.found = true;
                return Ok(true);
            }
            let next = r.next_page();
            drop(buf);
            if next == NO_PAGE {
                self.slot = slot;
                self.found = false;
                return Ok(false);
            }
            // Leaves emptied by deletes stay in the chain; walk over them.
            self.pos.walk_to(self.tree.cache.pin(self.tree.file, next)?);
            slot = 0;
        }
    }

    /// Move to `key`, which must not be before the position; returns whether
    /// a row is stored under it. After a miss the cursor sits between rows.
    pub fn seek(&mut self, key: &[u8]) -> Result<bool> {
        debug_assert!(
            !self.started || self.key.as_slice() <= key,
            "seek keys must be non-decreasing"
        );
        self.started = true;
        let Self {
            tree, pos, value, inline, ..
        } = self;
        let tree: &BTree = tree;
        let at = pos.locate(tree, key, |r, at| {
            if let Ok(i) = at {
                let stored = r.value(i);
                tree.decode_value_into(stored, value)?;
                *inline = stored.first() == Some(&TAG_INLINE);
            }
            Ok(at)
        })?;
        self.key.clear();
        self.key.extend_from_slice(key);
        self.found = at.is_ok();
        self.slot = at.unwrap_or_else(|i| i);
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

    /// Pin the current row's leaf, by key when a change dropped the path
    /// (not a probe: no counters move), and point `slot` at the row.
    fn pin_row(&mut self) -> Result<()> {
        if !self.found {
            return Err(PregelixError::internal("row cursor is not on a row"));
        }
        if self.pos.leaf.is_none() {
            let at = self.pos.repin(self.tree, &self.key)?;
            self.slot = at.map_err(|_| PregelixError::internal("row cursor lost its row"))?;
        }
        Ok(())
    }

    /// Overwrite the first `head.len()` bytes of the current row's value,
    /// leaving the rest (and the length) as stored.
    pub fn write_head(&mut self, head: &[u8]) -> Result<()> {
        self.pin_row()?;
        if head.len() > self.value.len() {
            return Err(PregelixError::internal("row head longer than the row"));
        }
        self.value[..head.len()].copy_from_slice(head);
        if !self.inline {
            return self.rewrite();
        }
        let guard = self.pos.leaf.as_ref().expect("pinned above");
        let mut buf = guard.write();
        PageMut::new(&mut buf).value_mut(self.slot)[1..1 + head.len()].copy_from_slice(head);
        Ok(())
    }

    /// Replace the current row's value.
    pub fn write(&mut self, value: &[u8]) -> Result<()> {
        if self.inline && value.len() == self.value.len() {
            return self.write_head(value);
        }
        self.pin_row()?;
        self.value.clear();
        self.value.extend_from_slice(value);
        self.rewrite()
    }

    /// Store the buffered value in the pinned row's slot. The old overflow
    /// chain is recycled and the new value encoded with the leaf pinned but
    /// unlocked (overflow pages only, so `slot` still names the row); the
    /// path stays pinned, as no separator moved. An entry that no longer
    /// fits its leaf leaves it for the tree's put, which drops the path.
    fn rewrite(&mut self) -> Result<()> {
        let Self {
            tree,
            pos,
            slot,
            key,
            value,
            ..
        } = self;
        let guard = pos.leaf.as_ref().expect("pinned by the caller");
        let old = PageRef::new(&guard.read()).value(*slot).to_vec();
        tree.free_value(&old)?;
        let stored = tree.encode_value(key.len(), value)?;
        if !PageMut::new(&mut guard.write()).replace_value(*slot, &stored) {
            // `replace_value` removed the entry; the put from the root may
            // split the pinned pages.
            pos.unpin();
            tree.put(key, &stored)?;
        }
        self.inline = self.tree.inlines(self.key.len(), self.value.len());
        Ok(())
    }

    /// Insert or replace the row under `key`, anywhere in the tree. The
    /// current row stays current; a key after the position is met by a
    /// later [`RowCursor::next`].
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.found && key == self.key.as_slice() {
            return self.write(value);
        }
        self.pos.unpin();
        let stored = self.tree.encode_value(key.len(), value)?;
        self.tree.put(key, &stored)
    }

    /// Delete the current row from its slot; the cursor stays at its key,
    /// between rows, on the pinned path: `slot` now names the row after it.
    pub fn delete(&mut self) -> Result<()> {
        self.pin_row()?;
        let guard = self.pos.leaf.as_ref().expect("pinned above");
        let old = {
            let mut buf = guard.write();
            let mut p = PageMut::new(&mut buf);
            let old = p.as_ref().value(self.slot).to_vec();
            p.remove(self.slot);
            old
        };
        self.found = false;
        self.tree.free_value(&old)
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
    use crate::file::{FileManager, TempDir};
    use pregelix_common::stats::ClusterCounters;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    fn make_cache(capacity: usize, page_size: usize) -> (BufferCache, TempDir) {
        let dir = TempDir::new("btree").unwrap();
        let fm = FileManager::new(dir.path(), page_size, ClusterCounters::new()).unwrap();
        (BufferCache::new(fm, capacity), dir)
    }

    fn k(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    type Rows = Vec<(Vec<u8>, Vec<u8>)>;

    /// Every row in key order, walked with the row cursor.
    fn rows(t: &mut BTree) -> Rows {
        let mut cur = t.cursor();
        let mut out = Vec::new();
        while cur.next().unwrap() {
            out.push((cur.key().to_vec(), cur.value().to_vec()));
        }
        out
    }

    /// Every row from the first key `>= from`: a seek, then the walk.
    fn rows_from(t: &mut BTree, from: &[u8]) -> Rows {
        let mut cur = t.cursor();
        let mut out = Vec::new();
        let mut on_row = cur.seek(from).unwrap() || cur.next().unwrap();
        while on_row {
            out.push((cur.key().to_vec(), cur.value().to_vec()));
            on_row = cur.next().unwrap();
        }
        out
    }

    /// The row under `key`, by a fresh cursor's seek: one descent from the
    /// root, a point lookup.
    fn get(t: &mut BTree, key: &[u8]) -> Option<Vec<u8>> {
        let mut cur = t.cursor();
        cur.seek(key).unwrap().then(|| cur.value().to_vec())
    }

    /// Insert or replace through a fresh cursor, which has no current row:
    /// the put from the root.
    fn put(t: &mut BTree, key: &[u8], value: &[u8]) {
        t.cursor().insert(key, value).unwrap();
    }

    /// Replace the row under `key` at the cursor that seeks it; `false`
    /// when there is none.
    fn write(t: &mut BTree, key: &[u8], value: &[u8]) -> bool {
        let mut cur = t.cursor();
        let found = cur.seek(key).unwrap();
        if found {
            cur.write(value).unwrap();
        }
        found
    }

    /// Delete the row under `key` at the cursor that seeks it; `false` when
    /// there is none.
    fn delete(t: &mut BTree, key: &[u8]) -> bool {
        let mut cur = t.cursor();
        let found = cur.seek(key).unwrap();
        if found {
            cur.delete().unwrap();
        }
        found
    }

    /// Live entries, by a full walk.
    fn count(t: &mut BTree) -> u64 {
        rows(t).len() as u64
    }

    #[test]
    fn empty_tree_behaviour() {
        let (cache, _d) = make_cache(64, 512);
        let mut t = BTree::create(cache).unwrap();
        assert_eq!(get(&mut t, &k(1)), None);
        assert_eq!(count(&mut t), 0);
        assert!(!t.cursor().next().unwrap());
    }

    #[test]
    fn insert_search_small() {
        let (cache, _d) = make_cache(64, 512);
        let mut t = BTree::create(cache).unwrap();
        for v in [5u64, 1, 9, 3] {
            put(&mut t, &k(v), format!("val{v}").as_bytes());
        }
        assert_eq!(get(&mut t, &k(9)).unwrap(), b"val9");
        assert_eq!(get(&mut t, &k(4)), None);
        assert!(get(&mut t, &k(1)).is_some());
        assert_eq!(count(&mut t), 4);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        let mut vids: Vec<u64> = (0..2000).collect();
        vids.shuffle(&mut StdRng::seed_from_u64(7));
        for v in &vids {
            put(&mut t, &k(*v), &v.to_le_bytes());
        }
        assert!(t.height() > 1, "tree must have split");
        // Full ordered walk.
        let mut expect = 0u64;
        for (key, val) in rows(&mut t) {
            assert_eq!(key, k(expect));
            assert_eq!(val, expect.to_le_bytes());
            expect += 1;
        }
        assert_eq!(expect, 2000);
        // Point lookups.
        for v in [0u64, 1, 999, 1999] {
            assert_eq!(get(&mut t, &k(v)).unwrap(), v.to_le_bytes());
        }
    }

    #[test]
    fn updates_in_place_and_with_growth() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        for v in 0..500u64 {
            put(&mut t, &k(v), &[1u8; 8]);
        }
        // Same-size updates (PageRank-style).
        for v in 0..500u64 {
            assert!(write(&mut t, &k(v), &v.to_le_bytes()));
        }
        assert_eq!(get(&mut t, &k(123)).unwrap(), 123u64.to_le_bytes());
        // Growing updates force removes/reinserts and possibly splits.
        for v in 0..500u64 {
            let grown = vec![v as u8; 40];
            assert!(write(&mut t, &k(v), &grown));
        }
        for v in (0..500u64).step_by(37) {
            assert_eq!(get(&mut t, &k(v)).unwrap(), vec![v as u8; 40]);
        }
        assert_eq!(count(&mut t), 500);
        assert!(!write(&mut t, &k(10_000), b"x"));
    }

    /// A bulk-loaded multi-leaf tree of fixed-width values, plus the model.
    fn loaded(n: u64, width: usize) -> (BTree, BTreeMap<u64, Vec<u8>>, TempDir) {
        let (cache, d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        t.bulk_load((0..n).map(|v| (k(v), vec![v as u8; width])), 0.7)
            .unwrap();
        let model = (0..n).map(|v| (v, vec![v as u8; width])).collect();
        (t, model, d)
    }

    fn assert_matches(t: &mut BTree, model: &BTreeMap<u64, Vec<u8>>) {
        let want: Rows = model.iter().map(|(v, val)| (k(*v), val.clone())).collect();
        assert_eq!(rows(t), want);
    }

    #[test]
    fn grown_and_shrunk_values_take_the_split_capable_path() {
        let (mut t, mut model, _d) = loaded(600, 8);
        for v in 0..600u64 {
            let val = if v % 2 == 0 {
                vec![v as u8; 40]
            } else {
                vec![v as u8; 3]
            };
            assert!(write(&mut t, &k(v), &val));
            model.insert(v, val);
        }
        assert_matches(&mut t, &model);
        // And back to one width, in place again.
        for v in 0..600u64 {
            let val = vec![7; model[&v].len()];
            assert!(write(&mut t, &k(v), &val));
            model.insert(v, val);
        }
        assert_matches(&mut t, &model);
    }

    #[test]
    fn overflow_values_update_through_the_single_pin_path() {
        let (mut t, mut model, _d) = loaded(200, 8);
        let big = |b: u8, n: usize| vec![b; n];
        for (v, val) in [
            (5u64, big(1, 5_000)), // inline -> overflow
            (5, big(2, 5_000)),    // overflow -> overflow, same length
            (5, big(3, 9_000)),    // overflow -> longer overflow
            (6, big(4, 8)),        // neighbour on the same leaf, in place
            (5, big(5, 8)),        // overflow -> inline
        ] {
            assert!(write(&mut t, &k(v), &val));
            model.insert(v, val);
            assert_eq!(get(&mut t, &k(v)).as_ref(), Some(&model[&v]));
        }
        assert_matches(&mut t, &model);
    }

    fn leaf_count(t: &BTree) -> u64 {
        let mut leaves = 1;
        let mut next = PageRef::new(&t.pin_leftmost_leaf().unwrap().read()).next_page();
        while next != NO_PAGE {
            leaves += 1;
            next = PageRef::new(&t.cache.pin(t.file, next).unwrap().read()).next_page();
        }
        leaves
    }

    /// A put from the root that splits nothing reads each page's type,
    /// level and child under one pin and changes the leaf under that pin:
    /// `height` pins.
    #[test]
    fn a_put_from_the_root_pins_each_page_on_its_path_once() {
        // Even keys only, 70 % full: an odd key lands in a leaf with room.
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        t.bulk_load((0..3_000u64).map(|v| (k(2 * v), vec![v as u8; 8])), 0.7)
            .unwrap();
        let height = t.height() as u64;
        assert!(height >= 3, "height {height}");
        let counters = t.cache().counters().clone();
        let pins = |c: &ClusterCounters| c.cache_hits() + c.cache_misses();
        for (key, what) in [(k(2_001), "insert"), (k(4_000), "replace")] {
            let before = pins(&counters);
            put(&mut t, &key, &[7; 8]);
            assert_eq!(pins(&counters) - before, height, "{what}");
            assert_eq!(get(&mut t, &key), Some(vec![7; 8]));
        }
    }

    /// A delete keeps the pinned path: the cursor sits between rows at the
    /// deleted slot, and the scan goes on from the row after it without a
    /// descent.
    #[test]
    fn cursor_scan_that_deletes_pins_each_leaf_once() {
        let (mut t, mut model, _d) = loaded(600, 8);
        let (leaves, height) = (leaf_count(&t), t.height() as u64);
        let counters = t.cache().counters().clone();
        let pins = |c: &ClusterCounters| c.cache_hits() + c.cache_misses();
        let before = pins(&counters);
        let mut cur = t.cursor();
        let mut seen = Vec::new();
        while cur.next().unwrap() {
            let v = u64::from_be_bytes(cur.key().try_into().unwrap());
            seen.push(v);
            if v % 3 != 1 {
                cur.delete().unwrap();
                model.remove(&v);
            }
        }
        drop(cur);
        assert_eq!(seen, (0..600).collect::<Vec<_>>(), "every row visited once");
        let spent = pins(&counters) - before;
        assert!(spent <= leaves + height, "{leaves} leaves, height {height}: {spent} pins");
        assert_matches(&mut t, &model);
    }

    #[test]
    fn cursor_scan_and_rewrite_pins_each_leaf_once() {
        let (mut t, mut model, _d) = loaded(600, 8);
        let (leaves, height) = (leaf_count(&t), t.height() as u64);
        assert!(leaves > 10 && height >= 2);
        let counters = t.cache().counters().clone();
        let pins = |c: &ClusterCounters| c.cache_hits() + c.cache_misses();
        let before = pins(&counters);
        let mut cur = t.cursor();
        while cur.next().unwrap() {
            let v = u64::from_be_bytes(cur.key().try_into().unwrap());
            assert_eq!(cur.value(), model[&v].as_slice());
            if v % 2 == 0 {
                // Whole value, same length.
                let val = vec![(v + 1) as u8; 8];
                cur.write(&val).unwrap();
                model.insert(v, val);
            } else {
                // Head only: the tail stays as stored.
                cur.write_head(&[0xEE; 3]).unwrap();
                model.get_mut(&v).unwrap()[..3].fill(0xEE);
            }
            assert_eq!(cur.value(), model[&v].as_slice());
        }
        drop(cur);
        let spent = pins(&counters) - before;
        assert!(
            spent <= leaves + height + 1,
            "600 rows over {leaves} leaves at height {height} pinned {spent} pages"
        );
        assert_matches(&mut t, &model);
    }

    #[test]
    fn resized_and_overflow_rewrites_replace_in_the_held_slot() {
        // Odd keys hold overflow chains, rewritten by head; even keys hold
        // inline values that shrink, so every entry still fits its leaf.
        let (cache, _d) = make_cache(512, 256);
        let mut t = BTree::create(cache).unwrap();
        let value = |v: u64| vec![v as u8; if v % 2 == 1 { 600 } else { 8 }];
        let n = 200u64;
        t.bulk_load((0..n).map(|v| (k(v), value(v))), 0.7).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = (0..n).map(|v| (v, value(v))).collect();
        let (leaves, height) = (leaf_count(&t), t.height() as u64);
        assert!(leaves > 10 && height >= 2);
        let chain = 600u64.div_ceil((256 - HEADER_LEN) as u64);
        let counters = t.cache().counters().clone();
        let pins = |c: &ClusterCounters| c.cache_hits() + c.cache_misses();
        let before = pins(&counters);
        let mut cur = t.cursor();
        while cur.next().unwrap() {
            let v = u64::from_be_bytes(cur.key().try_into().unwrap());
            if v % 2 == 1 {
                cur.write_head(&[0xEE; 3]).unwrap();
                model.get_mut(&v).unwrap()[..3].fill(0xEE);
            } else {
                cur.write(&[!(v as u8); 5]).unwrap();
                model.insert(v, vec![!(v as u8); 5]);
            }
            assert_eq!(cur.value(), model[&v].as_slice());
        }
        drop(cur);
        // The first descent, one sibling hop per further leaf, and each
        // overflow row's chain read, recycled and written again: a rewrite
        // in the held slot keeps the path, so no row re-descends and no
        // leaf is pinned twice.
        let spent = pins(&counters) - before;
        let bound = height + (leaves - 1) + n / 2 * 3 * chain;
        assert!(spent <= bound, "{n} rewrites pinned {spent} pages, bound {bound}");
        assert_matches(&mut t, &model);
    }

    #[test]
    fn cursor_seeks_write_in_the_slot_the_probe_found() {
        let (mut t, mut model, _d) = loaded(600, 8);
        let sought: Vec<Vec<u8>> = (0..600u64).step_by(3).chain([700]).map(k).collect();
        let pages = path_pages(&t, &sought);
        let c = t.cache().counters().clone();
        let before = c.snapshot();
        let mut cur = t.cursor();
        for v in (0..600u64).step_by(3) {
            assert!(cur.seek(&k(v)).unwrap(), "key {v}");
            assert_eq!((cur.key(), cur.value()), (k(v).as_slice(), model[&v].as_slice()));
            cur.write(&[v as u8 ^ 0x55; 8]).unwrap();
            model.insert(v, vec![v as u8 ^ 0x55; 8]);
        }
        assert!(!cur.seek(&k(700)).unwrap());
        assert!(!cur.next().unwrap(), "nothing after a miss past the end");
        drop(cur);
        let d = c.snapshot().delta_since(&before);
        assert_eq!(d.probe_leaf_hits + d.probe_redescents, 201);
        assert_eq!(
            d.probe_redescents, 1,
            "one descent from the root; the miss past the end is inside the root's range"
        );
        assert_eq!(
            d.cache_hits + d.cache_misses,
            d.probe_page_pins,
            "writes must reuse the probe's pin: {d:?}"
        );
        assert_eq!(d.probe_page_pins, pages, "each page on the sought paths pinned once");
        assert_matches(&mut t, &model);
    }

    /// The distinct pages on the root-to-leaf paths of `keys`.
    fn path_pages(t: &BTree, keys: &[Vec<u8>]) -> u64 {
        let mut pages = std::collections::HashSet::new();
        for key in keys {
            let mut page = t.root;
            loop {
                pages.insert(page);
                let guard = t.cache.pin(t.file, page).unwrap();
                let buf = guard.read();
                let r = PageRef::new(&buf);
                if r.page_type().unwrap() == PageType::Leaf {
                    break;
                }
                page = child_of(&r, key).unwrap().1;
            }
        }
        pages.len() as u64
    }

    #[test]
    fn sparse_seeks_climb_the_pinned_path_instead_of_redescending() {
        let (cache, _d) = make_cache(4096, 256);
        let c = cache.counters().clone();
        let mut t = BTree::create(cache).unwrap();
        // Even keys only, so every other seek is a miss (often in the gap
        // between a leaf's last entry and its fence).
        t.bulk_load((0..20_000u64).map(|v| (k(v * 2), v.to_le_bytes().to_vec())), 0.9)
            .unwrap();
        let height = t.height() as u64;
        assert!(height >= 3, "height {height}");
        let keys: Vec<Vec<u8>> = (0..40_000u64).step_by(37).chain([1 << 40]).map(k).collect();
        let expect: Vec<Option<Vec<u8>>> = keys.iter().map(|key| get(&mut t, key)).collect();
        let pages = path_pages(&t, &keys);
        let seeks = keys.len() as u64;
        let before = c.snapshot();
        let mut cur = t.cursor();
        for (key, want) in keys.iter().zip(&expect) {
            let found = cur.seek(key).unwrap();
            assert_eq!(found.then(|| cur.value().to_vec()).as_ref(), want.as_ref());
        }
        drop(cur);
        let d = c.snapshot().delta_since(&before);
        assert_eq!(d.probe_leaf_hits + d.probe_redescents, seeks);
        assert_eq!(d.probe_redescents, 1, "only the first seek starts at the root");
        // A 256-byte interior page routes about a hundred keys, so every
        // third seek enters a new parent; what the path buys is that no page
        // is pinned twice: the seeks pin exactly the union of their paths,
        // against `height` pins a seek for a descent from the root.
        assert_eq!(d.probe_page_pins, pages, "{d:?}");
        assert!(pages < 2 * seeks && seeks * height > 3 * pages, "{pages} pages, {seeks} seeks");
    }

    #[test]
    fn cursor_fallbacks_find_their_place_again() {
        let (mut t, mut model, _d) = loaded(300, 8);
        let mut cur = t.cursor();
        let mut seen = Vec::new();
        while cur.next().unwrap() {
            let v = u64::from_be_bytes(cur.key().try_into().unwrap());
            assert_eq!(cur.value(), model[&v].as_slice());
            seen.push(v);
            if v == 100 {
                // A missing key after the cursor (met by a later `next`),
                // one before it, and the current row by key.
                cur.insert(&k(1_000_050), &[5; 8]).unwrap();
                model.insert(1_000_050, vec![5; 8]);
                cur.insert(&[0, 0, 0, 0, 0, 0, 0, 50, 1], &[6; 8]).unwrap();
                cur.insert(&k(100), &[7; 40]).unwrap();
                assert_eq!(cur.value(), [7; 40]);
                model.insert(100, vec![7; 40]);
            }
            if v == 200 {
                cur.delete().unwrap();
                model.remove(&200);
            }
            let val = match v % 6 {
                0 => vec![v as u8; 40],  // grows in its leaf, may split it
                1 => vec![v as u8; 2],   // shrinks
                3 => vec![v as u8; 700], // inline -> overflow
                _ => continue,
            };
            cur.write(&val).unwrap();
            assert_eq!(cur.value(), val.as_slice());
            model.insert(v, val);
            if v % 6 == 3 {
                // Overflow rows: head through the chain, then back inline.
                cur.write_head(&[1, 2, 3]).unwrap();
                model.get_mut(&v).unwrap()[..3].copy_from_slice(&[1, 2, 3]);
                if v % 12 == 3 {
                    cur.write(&[9; 8]).unwrap();
                    model.insert(v, vec![9; 8]);
                }
            }
        }
        assert!(cur.insert(&k(2_000_000), &[8; 8]).is_ok());
        assert!(cur.next().unwrap(), "a key inserted past the end is still ahead");
        assert_eq!(cur.key(), k(2_000_000).as_slice());
        assert!(!cur.next().unwrap());
        assert!(cur.write(&[0]).is_err(), "no current row at the end");
        drop(cur);
        let mut expect: Vec<u64> = (0..300).collect();
        expect.push(1_000_050);
        assert_eq!(seen, expect, "every row once, in order, splits or not");
        assert_eq!(get(&mut t, &[0, 0, 0, 0, 0, 0, 0, 50, 1]).unwrap(), [6; 8]);
        assert!(delete(&mut t, &[0, 0, 0, 0, 0, 0, 0, 50, 1]));
        model.insert(2_000_000, vec![8; 8]);
        assert_matches(&mut t, &model);
    }

    #[test]
    fn scanner_resolves_inline_and_overflow_values() {
        let (mut t, mut model, _d) = loaded(50, 8);
        for v in [3u64, 4, 40] {
            put(&mut t, &k(v), &vec![v as u8; 3_000]);
            model.insert(v, vec![v as u8; 3_000]);
        }
        assert_matches(&mut t, &model);
        let from = rows_from(&mut t, &k(40));
        assert_eq!(from[0], (k(40), vec![40; 3_000]));
        assert_eq!(from[1], (k(41), vec![41; 8]));
    }

    #[test]
    fn delete_removes_and_scan_skips() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        for v in 0..300u64 {
            put(&mut t, &k(v), b"v");
        }
        for v in (0..300u64).filter(|v| v % 2 == 0) {
            assert!(delete(&mut t, &k(v)));
        }
        assert!(!delete(&mut t, &k(0)), "double delete is a no-op");
        assert_eq!(count(&mut t), 150);
        for (key, _) in rows(&mut t) {
            let v = u64::from_be_bytes(key.try_into().unwrap());
            assert_eq!(v % 2, 1);
        }
    }

    #[test]
    fn bulk_load_builds_multi_level_tree() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        let entries: Vec<_> = (0..5000u64).map(|v| (k(v), v.to_le_bytes().to_vec())).collect();
        t.bulk_load(entries, 0.9).unwrap();
        assert!(t.height() >= 3, "5000 entries on 256B pages needs 3+ levels");
        assert_eq!(count(&mut t), 5000);
        for v in [0u64, 1, 2499, 4999] {
            assert_eq!(get(&mut t, &k(v)).unwrap(), v.to_le_bytes());
        }
        assert_eq!(get(&mut t, &k(5000)), None);
        // A seek starts mid-tree.
        assert_eq!(rows_from(&mut t, &k(4990)).len(), 10);
    }

    #[test]
    fn bulk_load_rejects_unsorted_input() {
        let (cache, _d) = make_cache(64, 256);
        let mut t = BTree::create(cache).unwrap();
        let entries = vec![(k(2), vec![]), (k(1), vec![])];
        assert!(t.bulk_load(entries, 0.9).is_err());
    }

    #[test]
    fn bulk_load_pins_its_pages_not_its_entries() {
        let (cache, _d) = make_cache(256, 256);
        let counters = cache.counters().clone();
        let pins = |c: &ClusterCounters| c.cache_hits() + c.cache_misses();
        let mut t = BTree::create(cache).unwrap();
        let keys: Vec<Vec<u8>> = (0..5000u64).map(k).collect();
        let before = pins(&counters);
        // Borrowed slices: keys and values need only be `AsRef<[u8]>`.
        t.bulk_load(keys.iter().map(|key| (key.as_slice(), &key[4..])), 0.9)
            .unwrap();
        let spent = pins(&counters) - before;
        let pages = t.cache().file_manager().page_count(t.file()).unwrap();
        assert!(t.height() >= 3, "5000 entries on 256B pages needs 3+ levels");
        assert!(
            spent <= pages && 4 * pages < 5000,
            "a bulk load pins per page, not per entry: {spent} pins for {pages} pages"
        );
        for v in [0u64, 1, 2499, 4999] {
            assert_eq!(get(&mut t, &k(v)).unwrap(), k(v)[4..]);
        }
        // Unsorted and repeated keys still fail with the one error.
        for bad in [[k(2), k(1)], [k(1), k(1)]] {
            let (cache, _d) = make_cache(64, 256);
            let mut t = BTree::create(cache).unwrap();
            let err = t.bulk_load(bad.iter().map(|key| (key, b"")), 0.9).unwrap_err();
            assert!(err.to_string().contains("not strictly key-sorted"), "{err}");
        }
    }

    #[test]
    fn inserts_after_bulk_load() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        let entries: Vec<_> = (0..1000u64).map(|v| (k(v * 2), vec![0u8; 8])).collect();
        t.bulk_load(entries, 0.8).unwrap();
        for v in 0..1000u64 {
            put(&mut t, &k(v * 2 + 1), &[1u8; 8]);
        }
        assert_eq!(count(&mut t), 2000);
        let all = rows(&mut t);
        assert!(all.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn overflow_values_roundtrip() {
        let (cache, _d) = make_cache(64, 256);
        let mut t = BTree::create(cache).unwrap();
        let big = (0..10_000u32).map(|i| i as u8).collect::<Vec<_>>();
        put(&mut t, &k(7), &big);
        put(&mut t, &k(8), b"small");
        assert_eq!(get(&mut t, &k(7)).unwrap(), big);
        assert_eq!(get(&mut t, &k(8)).unwrap(), b"small");
        // Replace the big value through the put, then at the cursor: there
        // the old chain is recycled before the new one is written, so a
        // value of the same length takes no new page.
        put(&mut t, &k(7), &[0xCD; 20_000]);
        assert_eq!(get(&mut t, &k(7)).unwrap(), [0xCD; 20_000]);
        let pages = |t: &BTree| t.cache().file_manager().page_count(t.file()).unwrap();
        let before = pages(&t);
        assert!(write(&mut t, &k(7), &[0xEF; 20_000]));
        assert_eq!(get(&mut t, &k(7)).unwrap(), [0xEF; 20_000]);
        assert_eq!(pages(&t), before);
        // The cursor resolves overflow too.
        let (key, val) = rows(&mut t).swap_remove(0);
        assert_eq!(key, k(7));
        assert_eq!(val.len(), 20_000);
    }

    #[test]
    fn flush_and_reopen() {
        let (cache, _d) = make_cache(256, 256);
        let file;
        {
            let mut t = BTree::create(cache.clone()).unwrap();
            file = t.file();
            for v in 0..800u64 {
                put(&mut t, &k(v), &v.to_le_bytes());
            }
            t.flush().unwrap();
        }
        cache.purge_file(file, true).unwrap();
        let mut t = BTree::open(cache, file).unwrap();
        assert_eq!(count(&mut t), 800);
        assert_eq!(get(&mut t, &k(321)).unwrap(), 321u64.to_le_bytes());
    }

    #[test]
    fn works_under_tiny_cache_out_of_core() {
        // 8-page cache, 256B pages = 2KB of "RAM" holding a ~64KB tree.
        let (cache, _d) = make_cache(8, 256);
        let mut t = BTree::create(cache.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut reference = BTreeMap::new();
        for _ in 0..3000 {
            let key = rng.gen_range(0..1500u64);
            let val = vec![rng.gen::<u8>(); rng.gen_range(1..30)];
            put(&mut t, &k(key), &val);
            reference.insert(key, val);
        }
        for (key, val) in &reference {
            assert_eq!(get(&mut t, &k(*key)).unwrap(), *val);
        }
        assert_eq!(count(&mut t) as usize, reference.len());
        assert!(
            cache.file_manager().counters().cache_evictions() > 0,
            "tiny cache must have evicted"
        );
    }

    #[test]
    fn probe_cursor_matches_search_on_sorted_probes() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        // Keys 0, 3, 6, ... — probes hit entries, gaps and the far end.
        let model: BTreeMap<u64, Vec<u8>> =
            (0..2000u64).map(|v| (v * 3, (v * 3).to_le_bytes().to_vec())).collect();
        t.bulk_load(model.iter().map(|(v, val)| (k(*v), val)), 0.9).unwrap();
        let expect: Vec<_> = (0..6100u64).map(|v| get(&mut t, &k(v))).collect();
        let mut cursor = t.cursor();
        for (probe, want) in (0..6100u64).zip(&expect) {
            let found = cursor.seek(&k(probe)).unwrap();
            let got = found.then(|| cursor.value().to_vec());
            assert_eq!(&got, want, "probe {probe} diverged from the point lookup");
            assert_eq!(got.as_ref(), model.get(&probe), "probe {probe}");
        }
        // Duplicate (repeated) probe keys are allowed.
        assert!(!cursor.seek(&k(6100)).unwrap());
        assert!(!cursor.seek(&k(6100)).unwrap());
    }

    #[test]
    fn probe_cursor_counters_show_amortised_descents() {
        let (cache, _d) = make_cache(256, 256);
        let c = cache.counters().clone();
        let mut t = BTree::create(cache).unwrap();
        let entries: Vec<_> = (0..4000u64).map(|v| (k(v), v.to_le_bytes().to_vec())).collect();
        t.bulk_load(entries, 0.9).unwrap();
        assert!(t.height() >= 3);
        let before = c.snapshot();
        let mut cursor = t.cursor();
        let probes = 1000u64;
        for v in 0..probes {
            // Every 4th vid "live": a dense sorted probe run with gaps.
            assert!(cursor.seek(&k(v * 4)).unwrap());
        }
        drop(cursor);
        let d = c.snapshot().delta_since(&before);
        assert_eq!(d.probe_leaf_hits + d.probe_redescents, probes);
        assert!(
            d.probe_leaf_hits > probes * 9 / 10,
            "dense sorted probes should mostly hit the pinned leaf: {d:?}"
        );
        // The whole point: far fewer page pins than height × probes.
        assert!(
            d.probe_page_pins < probes * t.height() as u64 / 2,
            "expected ≥2x pin reduction: {} pins for {probes} probes at height {}",
            d.probe_page_pins,
            t.height()
        );
    }

    #[test]
    fn probe_cursor_sees_deletes_and_empty_leaves() {
        let (cache, _d) = make_cache(256, 256);
        let mut t = BTree::create(cache).unwrap();
        for v in 0..600u64 {
            put(&mut t, &k(v), &v.to_le_bytes());
        }
        // Carve an empty-leaf region in the middle of the sibling chain.
        for v in 200..400u64 {
            assert!(delete(&mut t, &k(v)));
        }
        let mut cursor = t.cursor();
        for v in 0..700u64 {
            let want = (v < 200 || (400..600).contains(&v)).then(|| v.to_le_bytes().to_vec());
            let found = cursor.seek(&k(v)).unwrap();
            assert_eq!(found.then(|| cursor.value().to_vec()), want, "key {v}");
        }
    }

    #[test]
    fn probe_cursor_on_empty_tree() {
        let (cache, _d) = make_cache(64, 512);
        let mut t = BTree::create(cache).unwrap();
        let mut cursor = t.cursor();
        for v in 0..10u64 {
            assert!(!cursor.seek(&k(v)).unwrap());
        }
        assert!(!cursor.next().unwrap());
    }

    #[test]
    fn randomised_against_reference_model() {
        let (cache, _d) = make_cache(128, 256);
        let mut t = BTree::create(cache).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(2024);
        for step in 0..5000 {
            let key = rng.gen_range(0..800u64);
            match rng.gen_range(0..10) {
                0..=5 => {
                    let val = vec![(step % 251) as u8; rng.gen_range(0..20)];
                    put(&mut t, &k(key), &val);
                    model.insert(key, val);
                }
                6..=7 => {
                    let expected = model.remove(&key).is_some();
                    assert_eq!(delete(&mut t, &k(key)), expected);
                }
                _ => {
                    assert_eq!(get(&mut t, &k(key)), model.get(&key).cloned());
                }
            }
        }
        // Final full comparison via the cursor.
        assert_matches(&mut t, &model);
    }
}
