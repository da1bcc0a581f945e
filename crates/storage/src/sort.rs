//! External sort with bounded memory and aggregation-during-sort.
//!
//! This implements the engine behind the sort-based and HashSort group-by
//! operators (§4): tuples are collected into a bounded in-memory buffer;
//! when the buffer exceeds its budget it is sorted (by the whole tuple's
//! byte order — for keyed tuples this is vid order) and spilled as a run
//! file; `finish` merges all runs plus the residual buffer with a k-way
//! merge.
//!
//! The in-memory phase is **frame-native**: tuples append into a pooled
//! [`TupleArena`] (contiguous chunk storage, recycled across spills) and
//! sorting permutes a vector of small sort entries — an 8-byte normalized
//! key prefix plus a 12-byte [`TupleRef`]. Large batches are ordered by
//! the LSB radix path of [`crate::radix::TupleRadixSorter`] (software
//! write-combining scatter over the prefix bytes, degenerate passes
//! skipped, equal-prefix ties comparison-sorted); small batches take a
//! comparison sort that still resolves on the prefix `u64` for all but
//! equal-key tuples. Either way the sort rarely touches
//! tuple bytes at all. No per-tuple heap allocation happens anywhere on
//! this path — the asymmetry against object-per-message runtimes that the
//! paper's byte-oriented frame design buys (§5.4). Spilling a sorted run is
//! a sequential walk over the arena chunks into a [`RunWriter`]. The merge
//! phase is equally allocation-free:
//! a manual binary heap orders `(key, source index)` entries whose current
//! tuples are borrowed in place from the residual arena or from each run
//! reader's current frame — ordering and same-group detection are integer
//! compares on a cached 16-byte key, tuple bytes are read only on equal
//! keys — and [`SortedStream::next_tuple`] lends `&[u8]` slices to the
//! consumer instead of handing out owned vectors.
//!
//! The same merge serves input that is already sorted per source and never
//! passes through a sorter ([`SortedInput`]: the merging connector's sender
//! runs, a receiver's queued streams of frames). At a receiver it serves
//! only programs that cannot fold by address (no combiner, or messages of
//! no fixed width); an eligible receiver walks the same inputs itself.
//! Whatever the sources, the merge folds equal keys in one order: (key,
//! tuple bytes, source index).
//!
//! An optional *combiner* ([`CombineFn`]) folds adjacent equal-key tuples
//! into one accumulator in **both** the in-memory phase and the merge phase,
//! exactly as the paper describes for the sort-based group-by ("pushes
//! group-by aggregations into both the in-memory sort phase and the merge
//! phase of an external sort operator"). Combining before spilling is what
//! keeps message-intensive workloads like PageRank from writing the full
//! message volume to disk.

use crate::file::FileManager;
use crate::radix::TupleRadixSorter;
use crate::runfile::{RunReader, RunWriter, TempRun};
use pregelix_common::arena::{TupleArena, TupleRef, DEFAULT_ARENA_CHUNK_BYTES};
use pregelix_common::error::Result;
use pregelix_common::frame::{key_prefix, SharedFrame};
use pregelix_common::stats::ClusterCounters;
use std::cmp::Ordering;
use std::ops::Range;

/// Folds an incoming tuple into its group's accumulator, in place. Both
/// tuples are at least 8 bytes long and share their 8-byte key prefix.
///
/// The contract every call site relies on:
/// * the accumulator keeps its key prefix (bytes `0..8` are never changed);
/// * the accumulator is the *earlier* tuple of the stream and the incoming
///   tuple the later one, so a non-commutative fold sees stream order;
/// * nothing but the accumulator is written — a fold over fixed-width
///   payloads therefore never allocates once the accumulator has grown to
///   its working size.
pub type CombineFn = Box<dyn FnMut(&mut Vec<u8>, &[u8]) + Send>;

/// Per-buffered-tuple bookkeeping cost charged against the memory budget
/// (the size of one sort entry: key prefix + [`TupleRef`]).
const REF_COST: usize = std::mem::size_of::<(u64, TupleRef)>();

/// An external sorter over keyed tuples.
pub struct ExternalSorter {
    fm: FileManager,
    label: String,
    budget_bytes: usize,
    arena: TupleArena,
    refs: Vec<(u64, TupleRef)>,
    sorter: TupleRadixSorter,
    /// Spilled runs. Theirs until `finish` hands them to the merge, so a
    /// sorter dropped before that deletes what it spilled.
    runs: Vec<TempRun>,
    combiner: Option<CombineFn>,
}

impl ExternalSorter {
    /// Create a sorter spilling through `fm` with an in-memory budget of
    /// `budget_bytes`. `label` names the temp files for debuggability.
    pub fn new(fm: FileManager, label: impl Into<String>, budget_bytes: usize) -> Self {
        let budget_bytes = budget_bytes.max(1024);
        // Chunks no larger than the budget, so small-budget sorters do not
        // overshoot their simulated RAM share; pooling keeps the per-spill
        // allocation count at O(budget / chunk size) either way.
        let chunk = budget_bytes.min(DEFAULT_ARENA_CHUNK_BYTES);
        let arena = TupleArena::with_counters(chunk, fm.counters().clone());
        let sorter = TupleRadixSorter::with_counters(fm.counters().clone());
        ExternalSorter {
            fm,
            label: label.into(),
            budget_bytes,
            arena,
            refs: Vec::new(),
            sorter,
            runs: Vec::new(),
            combiner: None,
        }
    }

    /// Install a combiner applied to adjacent equal-key tuples during the
    /// sort and merge phases.
    pub fn with_combiner(mut self, combiner: CombineFn) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Override the radix threshold of the in-memory sort (default
    /// [`crate::radix::TUPLE_RADIX_MIN_ENTRIES`]). Test/benchmark hook:
    /// a low threshold lets small spill batches exercise the full radix
    /// plan end-to-end; `usize::MAX` keeps every batch on the comparison
    /// path.
    pub fn with_sort_min_entries(mut self, min_entries: usize) -> Self {
        self.sorter.set_min_entries(min_entries);
        self
    }

    /// Number of runs spilled so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Add a tuple; may trigger a spill. The tuple bytes are copied into
    /// the arena — no allocation is performed for the copy.
    pub fn add(&mut self, tuple: &[u8]) -> Result<()> {
        let r = self.arena.append(tuple);
        self.refs.push((key_prefix(tuple), r));
        if self.arena.bytes() + self.refs.len() * REF_COST > self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    /// Sort the buffered refs by whole-tuple byte order: radix over the
    /// normalized key prefix for large batches (ties and small batches
    /// comparison-sorted), so the sort rarely dereferences into the arena.
    fn sort_refs(&mut self) {
        self.sorter.sort(&self.arena, &mut self.refs);
    }

    fn spill(&mut self) -> Result<()> {
        if self.refs.is_empty() {
            return Ok(());
        }
        self.sort_refs();
        let path = self.fm.temp_file_path(&self.label);
        let mut w = RunWriter::create(path, self.fm.counters().clone())?;
        let mut spilled_bytes = 0u64;
        match &mut self.combiner {
            Some(comb) => {
                fold_groups(&self.arena, &self.refs, comb, |t| {
                    spilled_bytes += t.len() as u64;
                    w.write_tuple(t)
                })?;
            }
            None => {
                for &(_, r) in &self.refs {
                    let t = self.arena.get(r);
                    spilled_bytes += t.len() as u64;
                    w.write_tuple(t)?;
                }
            }
        }
        self.runs.push(w.finish()?.into());
        self.fm.counters().add_sort_runs(1);
        self.fm.counters().add_sort_bytes_spilled(spilled_bytes);
        self.arena.reset();
        self.refs.clear();
        Ok(())
    }

    /// Finish adding tuples and return a sorted (combined) stream.
    pub fn finish(mut self) -> Result<SortedStream> {
        self.sort_refs();
        // Pre-combine the residual buffer (runs were pre-combined at spill
        // time), so the merge phase sees one tuple per key per source —
        // the same layout the merge combiner expects from runs.
        let memory_refs: Vec<TupleRef> = match self.combiner.as_mut() {
            Some(comb) if !self.refs.is_empty() => {
                let mut out = TupleArena::with_counters(
                    DEFAULT_ARENA_CHUNK_BYTES,
                    self.fm.counters().clone(),
                );
                let mut out_refs = Vec::new();
                fold_groups(&self.arena, &self.refs, comb, |t| {
                    out_refs.push(out.append(t));
                    Ok(())
                })?;
                self.arena = out;
                out_refs
            }
            _ => self.refs.iter().map(|&(_, r)| r).collect(),
        };
        let counters = self.fm.counters().clone();
        SortedStream::from_arena_parts(self.arena, memory_refs, self.runs, self.combiner, counters)
    }
}

/// Whether two tuples with equal key prefixes belong to one group: tuples
/// shorter than a key never combine (their zero-padded prefix may collide
/// with a real key's).
#[inline]
fn same_group(a: &[u8], b: &[u8]) -> bool {
    a.len() >= 8 && b.len() >= 8
}

/// Walk `refs` (which must be sorted) group-by-group, folding equal-key
/// neighbours through `comb` and handing each finished group to `emit`.
/// The accumulator is one reused scratch buffer; single-tuple groups cost
/// one memcpy and zero allocations.
fn fold_groups(
    arena: &TupleArena,
    refs: &[(u64, TupleRef)],
    comb: &mut CombineFn,
    mut emit: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut acc: Vec<u8> = Vec::new();
    let mut group: Option<u64> = None;
    for &(prefix, r) in refs {
        let t = arena.get(r);
        if group == Some(prefix) && same_group(&acc, t) {
            comb(&mut acc, t);
        } else {
            if group.is_some() {
                emit(&acc)?;
            }
            acc.clear();
            acc.extend_from_slice(t);
            group = Some(prefix);
        }
    }
    if group.is_some() {
        emit(&acc)?;
    }
    Ok(())
}

/// The merge heap's cached key: [`key_prefix`] over 16 bytes, so its high
/// half is the key prefix. A receiver's sources share most keys; the bytes
/// behind the vid settle nearly every tie without reading the tuples.
#[inline]
fn merge_key(t: &[u8]) -> u128 {
    if let Some(head) = t.first_chunk::<16>() {
        return u128::from_be_bytes(*head);
    }
    let mut k = [0u8; 16];
    k[..t.len()].copy_from_slice(t);
    u128::from_be_bytes(k)
}

/// A merge source read in place out of frames queued in stream order: one
/// stream of a pipelined connector, or one sender's logged section. No
/// tuple is copied and no sort entry is built; a frame is released as soon
/// as the merge has passed its last tuple.
struct FrameQueue {
    /// The frame holding the current tuple.
    front: SharedFrame,
    /// The frames after it.
    rest: std::vec::IntoIter<SharedFrame>,
    /// Index of the current tuple within `front`.
    pos: usize,
    /// Where the current tuple lies in `front`'s wire bytes: the merge reads
    /// it several times.
    span: Range<usize>,
}

impl FrameQueue {
    /// A queue positioned on its first tuple; `None` if it has none.
    fn new(frames: Vec<SharedFrame>) -> Option<Self> {
        let mut rest = frames.into_iter();
        let front = rest.find(|f| !f.is_empty())?;
        Some(FrameQueue {
            span: front.tuple_span(0),
            front,
            rest,
            pos: 0,
        })
    }

    fn current(&self) -> &[u8] {
        &self.front.wire_bytes().as_slice()[self.span.clone()]
    }

    /// Move past the current tuple; `false` once the queue is exhausted.
    fn advance(&mut self) -> bool {
        #[cfg(debug_assertions)]
        let passed = key_prefix(self.current());
        self.pos += 1;
        if self.pos == self.front.len() {
            let Some(next) = self.rest.find(|f| !f.is_empty()) else {
                return false;
            };
            self.front = next;
            self.pos = 0;
        }
        self.span = self.front.tuple_span(self.pos);
        #[cfg(debug_assertions)]
        debug_assert!(
            passed <= key_prefix(self.current()),
            "queued stream out of vid order"
        );
        true
    }
}

/// One input of a [`SortedStream`], read in place. Its index breaks ties
/// between equal tuples: runs in spill order, then the residual in-memory
/// buffer (the order the tuples were added), or queues in stream order.
enum Source {
    /// A sealed sorted run.
    Run(RunReader),
    /// The residual in-memory buffer: sorted refs into an arena, the
    /// current one at `pos`.
    Memory {
        arena: TupleArena,
        refs: Vec<TupleRef>,
        pos: usize,
    },
    /// Frames queued in stream order.
    Queue(FrameQueue),
}

impl Source {
    /// The current tuple of a live source.
    fn current(&self) -> &[u8] {
        match self {
            Source::Run(reader) => reader.current().expect("merge source must be live"),
            Source::Memory { arena, refs, pos } => arena.get(refs[*pos]),
            Source::Queue(q) => q.current(),
        }
    }

    /// Move past the current tuple; `false` once the source is exhausted.
    fn advance(&mut self) -> Result<bool> {
        Ok(match self {
            Source::Run(reader) => reader.advance()?,
            Source::Memory { refs, pos, .. } => {
                *pos += 1;
                *pos < refs.len()
            }
            Source::Queue(q) => q.advance(),
        })
    }
}

/// One input already in ascending byte order, read in place and positioned
/// on its current tuple: a sealed run, or frames queued in stream order
/// (one stream of a pipelined connector, one sender's logged section). No
/// tuple is copied; a queue releases each frame once it is past its last
/// tuple. [`SortedStream::from_inputs`] merges several; a consumer that
/// folds by key instead walks each one in turn.
pub struct SortedInput(Option<Source>);

impl SortedInput {
    /// Frames in stream order, each holding tuples in ascending order.
    pub fn frames(frames: Vec<SharedFrame>) -> SortedInput {
        SortedInput(FrameQueue::new(frames).map(Source::Queue))
    }

    /// A sealed sorted run. The run must outlive the input.
    pub fn run(run: &TempRun, counters: ClusterCounters) -> Result<SortedInput> {
        let mut reader = run.open(counters)?;
        Ok(SortedInput(reader.advance()?.then_some(Source::Run(reader))))
    }

    /// The current tuple; `None` once the input is exhausted.
    pub fn current(&self) -> Option<&[u8]> {
        self.0.as_ref().map(Source::current)
    }

    /// Move past the current tuple.
    pub fn advance(&mut self) -> Result<()> {
        if let Some(source) = self.0.as_mut() {
            if !source.advance()? {
                self.0 = None;
            }
        }
        Ok(())
    }
}

/// The merged output of an [`ExternalSorter`], of the merging connector's
/// runs, or of a receiver's queued streams: tuples in ascending byte order
/// (equal tuples in source order) with the combiner applied across
/// sources. `next_tuple` lends slices into internal buffers; nothing is
/// allocated per tuple. Deletes the spilled run files when dropped.
pub struct SortedStream {
    sources: Vec<Source>,
    /// Manual binary min-heap of `(merge key of the source's current tuple,
    /// source index)`, one entry per live source, ordered by (merge key,
    /// tuple bytes, source index). Entries never own tuple bytes: the cached
    /// key decides almost every comparison, and only equal keys borrow the
    /// tuples from the sources in place.
    heap: Vec<(u128, usize)>,
    /// Whether the heap root's current tuple was consumed by the previous
    /// `next_tuple` call (lent out or folded); its source is advanced and
    /// the root re-seated on the next call.
    root_consumed: bool,
    /// The merge's inputs: held only so that they are deleted with the
    /// stream, whether it was drained or not.
    _runs: Vec<TempRun>,
    combiner: Option<CombineFn>,
    /// Scratch accumulator for combined groups (reused across calls).
    acc: Vec<u8>,
}

impl SortedStream {
    /// Assemble a merged stream from already-sorted parts: an in-memory
    /// sorted (and pre-combined) tuple vector plus sealed sorted runs.
    /// Takes ownership of the runs and deletes them when the stream is
    /// dropped. Convenience wrapper over [`SortedStream::from_arena_parts`]
    /// for callers that hold owned tuples.
    pub fn from_parts(
        memory: Vec<Vec<u8>>,
        runs: Vec<TempRun>,
        combiner: Option<CombineFn>,
        counters: ClusterCounters,
    ) -> Result<SortedStream> {
        let mut arena = TupleArena::with_counters(DEFAULT_ARENA_CHUNK_BYTES, counters.clone());
        let memory_refs: Vec<TupleRef> = memory.iter().map(|t| arena.append(t)).collect();
        Self::from_arena_parts(arena, memory_refs, runs, combiner, counters)
    }

    /// Assemble a merged stream from an arena-backed in-memory part (tuple
    /// refs must already be in ascending whole-tuple byte order) plus
    /// sealed sorted runs. Used by the HashSort group-by, which drains its
    /// hash table into a pooled arena and radix-sorts the refs — no
    /// per-tuple allocation crosses this boundary. Takes ownership of the
    /// runs and deletes them when the stream is dropped.
    pub fn from_arena_parts(
        arena: TupleArena,
        refs: Vec<TupleRef>,
        runs: Vec<TempRun>,
        combiner: Option<CombineFn>,
        counters: ClusterCounters,
    ) -> Result<SortedStream> {
        debug_assert!(
            refs.windows(2).all(|w| arena.get(w[0]) <= arena.get(w[1])),
            "memory refs not sorted"
        );
        let mut inputs = Vec::with_capacity(runs.len() + 1);
        for run in &runs {
            inputs.push(SortedInput::run(run, counters.clone())?);
        }
        let memory = (!refs.is_empty()).then_some(Source::Memory {
            arena,
            refs,
            pos: 0,
        });
        inputs.push(SortedInput(memory));
        Ok(Self::from_inputs(inputs, runs, combiner))
    }

    /// Merge `inputs`, ties broken by their index: how a receiver combines
    /// what its senders emitted vid-ordered (a pipelined connector's
    /// streams, the merging connector's runs, a replay's logged sections)
    /// without sorting it again. `runs` are the files behind run inputs,
    /// deleted with the stream.
    pub fn from_inputs(
        inputs: Vec<SortedInput>,
        runs: Vec<TempRun>,
        combiner: Option<CombineFn>,
    ) -> SortedStream {
        let sources: Vec<Source> = inputs.into_iter().filter_map(|i| i.0).collect();
        let mut stream = SortedStream {
            heap: Vec::with_capacity(sources.len()),
            sources,
            root_consumed: false,
            _runs: runs,
            combiner,
            acc: Vec::new(),
        };
        for s in 0..stream.sources.len() {
            stream.heap_push(s);
        }
        stream
    }

    /// Strict ordering of two heap entries by (merge key, current tuple,
    /// source id) — the same order as (current tuple, source id), see
    /// [`merge_key`].
    fn entry_less(&self, a: (u128, usize), b: (u128, usize)) -> bool {
        if a.0 != b.0 {
            return a.0 < b.0;
        }
        match self.sources[a.1].current().cmp(self.sources[b.1].current()) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.1 < b.1,
        }
    }

    /// Add live source `s` to the heap under its current tuple's key.
    fn heap_push(&mut self, s: usize) {
        self.heap.push((merge_key(self.sources[s].current()), s));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entry_less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restore the heap property below a root whose entry changed.
    fn sift_down_root(&mut self) {
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let mut min = l;
            if r < self.heap.len() && self.entry_less(self.heap[r], self.heap[l]) {
                min = r;
            }
            if self.entry_less(self.heap[min], self.heap[i]) {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// If the root's current tuple was consumed, advance its source and
    /// re-seat it in place (one sift-down instead of a pop and a push), or
    /// drop it from the heap when the source is exhausted.
    fn settle_root(&mut self) -> Result<()> {
        if !std::mem::take(&mut self.root_consumed) {
            return Ok(());
        }
        let s = self.heap[0].1;
        if self.sources[s].advance()? {
            self.heap[0].0 = merge_key(self.sources[s].current());
        } else {
            self.heap.swap_remove(0);
        }
        self.sift_down_root();
        Ok(())
    }

    /// The next tuple in sorted order, or `None` when exhausted. The slice
    /// borrows from the stream and is valid until the next call.
    pub fn next_tuple(&mut self) -> Result<Option<&[u8]>> {
        self.settle_root()?;
        let Some(&(key, s)) = self.heap.first() else {
            return Ok(None);
        };
        let prefix = key >> 64;
        self.root_consumed = true;
        if self.combiner.is_none() {
            return Ok(Some(self.sources[s].current()));
        }
        // Combining: seed the scratch accumulator from the root's tuple,
        // then fold while the next root shares its key.
        self.acc.clear();
        self.acc.extend_from_slice(self.sources[s].current());
        loop {
            self.settle_root()?;
            let Self {
                acc,
                combiner,
                heap,
                sources,
                ..
            } = self;
            let Some(&(next_key, s2)) = heap.first() else {
                break;
            };
            if next_key >> 64 != prefix {
                break;
            }
            let cur = sources[s2].current();
            if !same_group(acc, cur) {
                break;
            }
            (combiner.as_mut().expect("combining path"))(acc, cur);
            self.root_consumed = true;
        }
        Ok(Some(&self.acc))
    }

    /// Drain the remainder into owned vectors (test/convenience path).
    pub fn collect_all(mut self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(t) = self.next_tuple()? {
            out.push(t.to_vec());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FileManager, TempDir};
    use crate::runfile::RunWriter;
    use pregelix_common::frame::{keyed_tuple, tuple_payload, tuple_vid};
    use pregelix_common::stats::ClusterCounters;
    use rand::prelude::*;

    fn fm() -> (FileManager, TempDir) {
        let dir = TempDir::new("sort").unwrap();
        let f = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();
        (f, dir)
    }

    /// Sum-combiner over u64 payloads, folding in place.
    fn sum_fold() -> CombineFn {
        Box::new(|acc, t| {
            let a = u64::from_le_bytes(acc[8..16].try_into().unwrap());
            let b = u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
            acc[8..16].copy_from_slice(&(a + b).to_le_bytes());
        })
    }

    #[test]
    fn in_memory_sort() {
        let (f, _d) = fm();
        let mut s = ExternalSorter::new(f, "t", 1 << 20);
        for vid in [5u64, 1, 3, 2, 4] {
            s.add(&keyed_tuple(vid, b"p")).unwrap();
        }
        assert_eq!(s.spilled_runs(), 0);
        let out = s.finish().unwrap().collect_all().unwrap();
        let vids: Vec<u64> = out.iter().map(|t| tuple_vid(t).unwrap()).collect();
        assert_eq!(vids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn spilling_sort_matches_std_sort() {
        let (f, _d) = fm();
        // 2KB budget forces many spills for 20k tuples.
        let mut s = ExternalSorter::new(f.clone(), "t", 2048);
        let mut rng = StdRng::seed_from_u64(11);
        let mut expect = Vec::new();
        for _ in 0..20_000 {
            let vid = rng.gen_range(0..5_000u64);
            let t = keyed_tuple(vid, &vid.to_le_bytes());
            s.add(&t).unwrap();
            expect.push(t);
        }
        assert!(s.spilled_runs() > 2);
        assert!(f.counters().sort_bytes_spilled() > 0, "spill volume counted");
        expect.sort_unstable();
        let got = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn combiner_applied_within_and_across_runs() {
        let (f, _d) = fm();
        // Sum-combiner over u64 payloads.
        let mut s = ExternalSorter::new(f, "c", 2048).with_combiner(sum_fold());
        // 100 keys, 200 contributions of 1 each, interleaved to cross runs.
        for round in 0..200u64 {
            for vid in 0..100u64 {
                let _ = round;
                s.add(&keyed_tuple(vid, &1u64.to_le_bytes())).unwrap();
            }
        }
        assert!(s.spilled_runs() > 0, "must exercise merge-phase combining");
        let out = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(out.len(), 100);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(tuple_vid(t).unwrap(), i as u64);
            let sum = u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
            assert_eq!(sum, 200);
        }
    }

    /// Order-sensitive combiner: appends the incoming payload to the
    /// accumulator's, so the output spells out the fold order.
    fn concat_fold() -> CombineFn {
        Box::new(|acc, t| acc.extend_from_slice(&t[8..]))
    }

    /// Sort, then fold equal 8-byte keys in sorted order — the stream every
    /// combining path must reproduce byte for byte.
    fn model(mut tuples: Vec<Vec<u8>>, comb: &mut CombineFn) -> Vec<Vec<u8>> {
        tuples.sort();
        let mut out: Vec<Vec<u8>> = Vec::new();
        for t in tuples {
            match out.last_mut() {
                Some(acc) if acc.len() >= 8 && t.len() >= 8 && acc[..8] == t[..8] => comb(acc, &t),
                _ => out.push(t),
            }
        }
        out
    }

    #[test]
    fn merge_orders_equal_prefixes_by_the_bytes_behind_them() {
        let (f, _d) = fm();
        let run = |tuples: &[Vec<u8>]| -> TempRun {
            let mut w = RunWriter::create(f.temp_file_path("order"), f.counters().clone()).unwrap();
            for t in tuples {
                w.write_tuple(t).unwrap();
            }
            w.finish().unwrap().into()
        };
        // Three sources whose tuples share prefixes (vids 1 and 2) and differ
        // only behind them, interleaved so no source holds a contiguous range.
        let sources: [Vec<Vec<u8>>; 3] = [
            vec![
                keyed_tuple(1, b"b"),
                keyed_tuple(1, b"e"),
                keyed_tuple(2, b"a"),
            ],
            vec![
                keyed_tuple(1, b"a"),
                keyed_tuple(1, b"e"),
                keyed_tuple(2, b"c"),
            ],
            vec![
                keyed_tuple(1, b"c"),
                keyed_tuple(1, b"d"),
                keyed_tuple(2, b"b"),
            ],
        ];
        let all: Vec<Vec<u8>> = sources.iter().flatten().cloned().collect();
        let parts = || (sources[2].clone(), vec![run(&sources[0]), run(&sources[1])]);

        let (memory, runs) = parts();
        let plain = SortedStream::from_parts(memory, runs, None, f.counters().clone())
            .unwrap()
            .collect_all()
            .unwrap();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(plain, sorted);

        // With an order-sensitive fold the suffix order shows in the output:
        // vid 1 folds a,b,c,d,e,e and vid 2 folds a,b,c.
        let (memory, runs) = parts();
        let folded =
            SortedStream::from_parts(memory, runs, Some(concat_fold()), f.counters().clone())
                .unwrap()
                .collect_all()
                .unwrap();
        assert_eq!(
            folded,
            vec![keyed_tuple(1, b"abcdee"), keyed_tuple(2, b"abc")]
        );
        assert_eq!(folded, model(all, &mut concat_fold()));

        // The same sources as queues of frames, cut at every frame size and
        // with empty frames between: the same fold, to the byte.
        for per_frame in [1, 2, 3] {
            let queues = sources.iter().map(|tuples| {
                let mut frames = vec![SharedFrame::empty()];
                for chunk in tuples.chunks(per_frame) {
                    let mut frame = pregelix_common::frame::Frame::with_capacity(1 << 10);
                    chunk.iter().for_each(|t| assert!(frame.try_append(t)));
                    frames.extend([frame.freeze_standalone(), SharedFrame::empty()]);
                }
                frames
            });
            let inputs = queues.map(SortedInput::frames).collect();
            let queued = SortedStream::from_inputs(inputs, Vec::new(), Some(concat_fold()));
            assert_eq!(queued.collect_all().unwrap(), folded, "{per_frame} per frame");
        }
        let empty = vec![Vec::new(), vec![SharedFrame::empty()]];
        let none = SortedStream::from_inputs(
            empty.into_iter().map(SortedInput::frames).collect(),
            Vec::new(),
            None,
        );
        assert!(none.collect_all().unwrap().is_empty());
    }

    #[test]
    fn tuples_shorter_than_a_key_never_combine() {
        // [0,0,0] zero-pads to the prefix of vid 0, and so does [0; 8] cut
        // short anywhere: none of them may fold, into each other or into
        // the real key.
        let mut tuples = Vec::new();
        for _ in 0..40 {
            tuples.push(vec![0u8, 0, 0]);
            tuples.push(vec![0u8; 7]);
            tuples.push(Vec::new());
            tuples.push(keyed_tuple(0, &1u64.to_le_bytes()));
            tuples.push(keyed_tuple(3, &1u64.to_le_bytes()));
        }
        for budget in [1 << 20, 1024] {
            let (f, _d) = fm();
            let mut s = ExternalSorter::new(f, "short", budget).with_combiner(sum_fold());
            for t in &tuples {
                s.add(t).unwrap();
            }
            assert_eq!(s.spilled_runs() > 0, budget == 1024);
            let got = s.finish().unwrap().collect_all().unwrap();
            assert_eq!(
                got,
                model(tuples.clone(), &mut sum_fold()),
                "budget {budget}"
            );
            assert_eq!(got.len(), 3 * 40 + 2);
        }
    }

    #[test]
    fn fixed_width_folds_never_move_the_accumulator() {
        use std::sync::{Arc, Mutex};
        // Every call records where the accumulator lives and how much it
        // holds; fixed-width folds must leave both alone.
        let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::default();
        let recording = |seen: &Arc<Mutex<Vec<(usize, usize)>>>| -> CombineFn {
            let seen = Arc::clone(seen);
            let mut sum = sum_fold();
            Box::new(move |acc, t| {
                sum(acc, t);
                seen.lock()
                    .unwrap()
                    .push((acc.as_ptr() as usize, acc.capacity()));
            })
        };
        // In-memory phase: one group of 5000 tuples folded at `finish`.
        let (f, _d) = fm();
        let mut s = ExternalSorter::new(f, "acc", 1 << 20).with_combiner(recording(&seen));
        for _ in 0..5_000 {
            s.add(&keyed_tuple(9, &1u64.to_le_bytes())).unwrap();
        }
        let out = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(out, vec![keyed_tuple(9, &5_000u64.to_le_bytes())]);
        let calls = std::mem::take(&mut *seen.lock().unwrap());
        assert_eq!(calls.len(), 4_999);
        assert!(
            calls.iter().all(|c| *c == calls[0]),
            "in-memory fold reallocated"
        );

        // Merge phase: many runs, every one holding the same few keys.
        let (f, _d) = fm();
        let mut s = ExternalSorter::new(f, "acc", 1024).with_combiner(recording(&seen));
        for i in 0..5_000u64 {
            s.add(&keyed_tuple(i % 4, &1u64.to_le_bytes())).unwrap();
        }
        let runs = s.spilled_runs();
        assert!(runs > 20);
        let stream = s.finish().unwrap();
        seen.lock().unwrap().clear(); // spill-time folds used their own scratch
        let out = stream.collect_all().unwrap();
        assert_eq!(out.len(), 4);
        let calls = std::mem::take(&mut *seen.lock().unwrap());
        assert!(calls.len() >= 4 * (runs - 1));
        assert!(
            calls.iter().all(|c| *c == calls[0]),
            "merge fold reallocated"
        );
    }

    #[test]
    fn radix_and_comparison_modes_agree_with_spills() {
        use crate::radix::TUPLE_RADIX_MIN_ENTRIES;
        let mut outputs = Vec::new();
        let mut spilled = Vec::new();
        // The default threshold, then every batch on the comparison path.
        for min_entries in [TUPLE_RADIX_MIN_ENTRIES, usize::MAX] {
            let (f, _d) = fm();
            let mut s =
                ExternalSorter::new(f.clone(), "m", 4096).with_sort_min_entries(min_entries);
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..10_000 {
                let vid = rng.gen_range(0..1_000u64);
                s.add(&keyed_tuple(vid, &vid.to_le_bytes())).unwrap();
            }
            assert!(s.spilled_runs() > 0);
            outputs.push(s.finish().unwrap().collect_all().unwrap());
            spilled.push(f.counters().sort_bytes_spilled());
        }
        assert_eq!(outputs[0], outputs[1], "thresholds must be byte-identical");
        assert_eq!(spilled[0], spilled[1], "zero drift in spill volume");
    }

    #[test]
    fn default_path_charges_radix_counters() {
        let (f, _d) = fm();
        let counters = f.counters().clone();
        let mut s = ExternalSorter::new(f, "rc", 1 << 20);
        // Large single batch over a byte-and-a-half of vid range: the
        // finish-time sort takes the radix path and skips the high passes.
        for vid in (0..5_000u64).rev() {
            s.add(&keyed_tuple(vid, b"")).unwrap();
        }
        let out = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(out.len(), 5_000);
        assert_eq!(counters.radix_sort_entries(), 5_000);
        assert_eq!(counters.radix_passes_skipped(), 6);
        assert_eq!(counters.sort_comparison_fallbacks(), 0);
    }

    #[test]
    fn empty_sorter_yields_nothing() {
        let (f, _d) = fm();
        let s = ExternalSorter::new(f, "e", 4096);
        assert!(s.finish().unwrap().collect_all().unwrap().is_empty());
    }

    #[test]
    fn run_files_cleaned_up_on_drop() {
        let (f, _d) = fm();
        let root = f.root().to_path_buf();
        let mut s = ExternalSorter::new(f, "gc", 1024);
        for vid in 0..5000u64 {
            s.add(&keyed_tuple(vid, b"pay")).unwrap();
        }
        assert!(s.spilled_runs() > 0);
        let stream = s.finish().unwrap();
        drop(stream);
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("gc"))
            .collect();
        assert!(leftovers.is_empty(), "spill files must be deleted: {leftovers:?}");
    }

    #[test]
    fn a_sorter_dropped_after_spilling_deletes_its_runs() {
        let (f, _d) = fm();
        let mut s = ExternalSorter::new(f.clone(), "dropped", 1024);
        for vid in 0..5000u64 {
            s.add(&keyed_tuple(vid, b"pay")).unwrap();
        }
        assert!(s.spilled_runs() >= 2);
        assert_eq!(f.temp_files().unwrap().len(), s.spilled_runs());
        // What a task that fails between its first spill and `finish` does.
        drop(s);
        assert!(f.temp_files().unwrap().is_empty());

        // A spill that fails half-way takes its partial file with it too.
        use pregelix_common::fault::{self, Fault, FaultPlan, Site};
        let chaos = fault::exclusive();
        let mut s = ExternalSorter::new(f.clone(), "torn", 64 << 10);
        chaos.install(FaultPlan::new().on(Site::RunWrite, "tmp-torn", 2, Fault::IoError));
        let failed = (0..20_000u64).any(|vid| s.add(&keyed_tuple(vid, b"pay")).is_err());
        drop(chaos);
        assert!(failed, "the second frame of the first spill is refused");
        assert!(f.temp_files().unwrap().is_empty());
    }

    #[test]
    fn stream_is_incremental() {
        let (f, _d) = fm();
        let mut s = ExternalSorter::new(f, "i", 1024);
        for vid in (0..1000u64).rev() {
            s.add(&keyed_tuple(vid, b"")).unwrap();
        }
        let mut stream = s.finish().unwrap();
        for expect in 0..1000u64 {
            let t = stream.next_tuple().unwrap().unwrap();
            assert_eq!(tuple_vid(t).unwrap(), expect);
        }
        assert!(stream.next_tuple().unwrap().is_none());
        assert!(stream.next_tuple().unwrap().is_none(), "idempotent at end");
    }

    #[test]
    fn in_memory_phase_allocates_no_per_tuple_frames() {
        let (f, _d) = fm();
        let counters = f.counters().clone();
        // 1 MB budget, 200k tuples of 16 bytes: the buffer cycles through
        // ~3 spills. Pooled chunks mean the arena allocation count stays at
        // O(budget / chunk size), nowhere near the tuple count.
        let mut s = ExternalSorter::new(f, "alloc", 1 << 20);
        for vid in 0..200_000u64 {
            s.add(&keyed_tuple(vid % 977, &vid.to_le_bytes())).unwrap();
        }
        let frames = counters.arena_frames_allocated();
        assert!(
            frames <= 2 * ((1 << 20) / DEFAULT_ARENA_CHUNK_BYTES.min(1 << 20)) as u64 + 4,
            "arena allocations must be O(budget/chunk), got {frames}"
        );
        let out = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(out.len(), 200_000);
    }
}
