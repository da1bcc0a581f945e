//! Group-by operators and the four parallel message-combination strategies.
//!
//! Hyracks ships three group-by implementations (§4):
//!
//! * **sort-based** ([`SortGroupBy`]) — pushes the aggregation into both the
//!   in-memory sort phase and the merge phase of an external sort;
//! * **HashSort** ([`HashSortGroupBy`]) — hash-based grouping for the
//!   in-memory phase (a win when the number of distinct destinations is
//!   small), sorted runs + merging beyond memory;
//! * **preclustered** — a single streaming pass over input already
//!   clustered by the grouping key. There is no separate operator for it:
//!   the merging receiver's [`SortedStream`] with a combiner *is* that pass
//!   (`MergingReceiver::into_stream`).
//!
//! Figure 7 composes these with the two connectors into four parallel
//! strategies ([`GroupByStrategy`]): a local (sender-side) group-by feeds
//! either the fully pipelined partitioning connector or the merging
//! connector. The paper re-groups at the receiver of the pipelined one;
//! here every sender's stream already arrives vid-ordered, so both
//! receivers end in the same one pass over queued frames or the senders'
//! runs: a fold by address where the program allows it
//! (`core::superstep`), the preclustered merge otherwise.
//!
//! Every operator here combines through one shape, the in-place fold
//! [`CombineFn`] (see its contract in `storage::sort`).
//!
//! All grouping is on the tuple's 8-byte big-endian vid prefix, the only
//! grouping key Pregelix ever needs (message combination, mutation
//! resolution).

use pregelix_common::arena::{TupleArena, TupleRef, DEFAULT_ARENA_CHUNK_BYTES};
use pregelix_common::error::Result;
use pregelix_common::stats::ClusterCounters;
use pregelix_storage::file::FileManager;
use pregelix_storage::radix::TupleRadixSorter;
use pregelix_storage::runfile::{RunWriter, TempRun};
use pregelix_storage::sort::{CombineFn, ExternalSorter, SortedStream};
use std::collections::HashMap;
use std::sync::Arc;

/// A combiner in byte-pair form: `(accumulated, incoming) -> merged`, one
/// fresh tuple per combine. The engine itself never combines this way; the
/// type exists for callers outside it that hold such a closure, and is
/// adapted onto the fold form by [`combine_fn`].
pub type TupleCombiner = Arc<dyn Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync>;

/// Adapt a [`TupleCombiner`] into a [`CombineFn`] (the merged tuple
/// replaces the accumulator).
pub fn combine_fn(c: &TupleCombiner) -> CombineFn {
    let c = Arc::clone(c);
    Box::new(move |acc, t| *acc = c(acc, t))
}

/// Which local group-by implementation to run on each side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupByKind {
    /// Sort-based group-by.
    Sort,
    /// HashSort group-by.
    HashSort,
}

/// The four parallel strategies of Figure 7.
///
/// A strategy names the connector and the sender's group-by kind. The kind
/// applies to whatever is sorted there: every message of a program without
/// a combiner or with variable-width messages, and otherwise only the
/// destinations the sender's direct-address fold table has no slot for
/// (`core::superstep`). Neither receiver sorts: both merge the senders'
/// vid-ordered output, as it streams in or from the senders' runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupByStrategy {
    /// Sort-based sender group-by + m-to-n partitioning connector (fully
    /// pipelined) + receiver merge over the queued streams. The Pregelix
    /// default.
    SortUnmerged,
    /// HashSort sender group-by + m-to-n partitioning connector + receiver
    /// merge.
    HashSortUnmerged,
    /// Sort-based sender group-by + m-to-n partitioning *merging* connector
    /// (sender-side materializing); receiver needs only a preclustered pass.
    SortMerged,
    /// HashSort sender group-by + merging connector.
    HashSortMerged,
}

impl GroupByStrategy {
    /// The local group-by implementation used on the sender side.
    pub fn kind(self) -> GroupByKind {
        match self {
            GroupByStrategy::SortUnmerged | GroupByStrategy::SortMerged => GroupByKind::Sort,
            GroupByStrategy::HashSortUnmerged | GroupByStrategy::HashSortMerged => {
                GroupByKind::HashSort
            }
        }
    }

    /// Whether the merging connector (sender-side materialized runs) is
    /// used rather than the fully pipelined one.
    pub fn merged(self) -> bool {
        matches!(
            self,
            GroupByStrategy::SortMerged | GroupByStrategy::HashSortMerged
        )
    }

    /// All four strategies, for sweeps.
    pub fn all() -> [GroupByStrategy; 4] {
        [
            GroupByStrategy::SortUnmerged,
            GroupByStrategy::HashSortUnmerged,
            GroupByStrategy::SortMerged,
            GroupByStrategy::HashSortMerged,
        ]
    }
}

/// Sort-based group-by: an external sort with the combiner pushed into both
/// phases. Output is vid-sorted with one tuple per group.
pub struct SortGroupBy {
    sorter: ExternalSorter,
}

impl SortGroupBy {
    /// Create with an in-memory budget and optional combiner.
    pub fn new(
        fm: &FileManager,
        label: &str,
        budget: usize,
        combiner: Option<CombineFn>,
    ) -> SortGroupBy {
        let mut sorter = ExternalSorter::new(fm.clone(), label, budget);
        if let Some(c) = combiner {
            sorter = sorter.with_combiner(c);
        }
        SortGroupBy { sorter }
    }

    /// Feed one tuple (copied into the sorter's arena — no allocation).
    pub fn add(&mut self, tuple: &[u8]) -> Result<()> {
        self.sorter.add(tuple)
    }

    /// Finish and return the sorted, combined stream.
    pub fn finish(self) -> Result<SortedStream> {
        self.sorter.finish()
    }
}

/// HashSort group-by: combine eagerly in a hash table keyed by vid; when
/// the table exceeds its budget, drain it in key order into a sorted run.
/// `finish` merges runs plus the residual table contents.
///
/// Draining is allocation-free after warm-up: the table's tuples are
/// appended into a pooled [`TupleArena`] (chunks recycled across spills),
/// the `(vid, ref)` entry vector is radix-sorted in place, and spilling
/// walks the sorted refs — matching the discipline of the sort-based path
/// instead of collecting per-tuple `Vec<u8>`s.
pub struct HashSortGroupBy {
    fm: FileManager,
    label: String,
    budget: usize,
    combiner: Option<CombineFn>,
    map: HashMap<u64, Vec<u8>>,
    bytes: usize,
    /// Spilled runs: deleted with the operator unless `finish` hands them
    /// to the merge first.
    runs: Vec<TempRun>,
    counters: ClusterCounters,
    /// Pooled storage for drained table contents; reset (chunks recycled)
    /// before every drain.
    drain_arena: TupleArena,
    /// `(vid, ref)` sort entries over `drain_arena`, reused across drains.
    /// The vid doubles as the radix key: for keyed tuples the 8-byte
    /// big-endian prefix read as a `u64` *is* the vid.
    drain_refs: Vec<(u64, TupleRef)>,
    /// Pooled radix sorter (recycled stash + staging blocks).
    sorter: TupleRadixSorter,
}

impl HashSortGroupBy {
    /// Create with an in-memory budget and optional combiner. Without a
    /// combiner the hash table degenerates to buffering whole groups, so a
    /// combiner is strongly recommended (Pregelix always has one: the
    /// default combiner gathers messages into a list).
    pub fn new(
        fm: &FileManager,
        label: &str,
        budget: usize,
        combiner: Option<CombineFn>,
    ) -> HashSortGroupBy {
        let counters = fm.counters().clone();
        HashSortGroupBy {
            fm: fm.clone(),
            label: label.to_string(),
            budget: budget.max(1024),
            combiner,
            map: HashMap::new(),
            bytes: 0,
            runs: Vec::new(),
            drain_arena: TupleArena::with_counters(DEFAULT_ARENA_CHUNK_BYTES, counters.clone()),
            drain_refs: Vec::new(),
            sorter: TupleRadixSorter::with_counters(counters.clone()),
            counters,
        }
    }

    /// Feed one vid-keyed tuple. With a combiner, repeat keys fold into the
    /// existing entry in place — only the first occurrence of a key
    /// allocates, so allocation count is O(distinct keys), not O(tuples).
    pub fn add(&mut self, tuple: &[u8]) -> Result<()> {
        let vid = pregelix_common::frame::tuple_vid(tuple)?;
        match (self.map.get_mut(&vid), &mut self.combiner) {
            (Some(existing), Some(c)) => {
                let before = existing.len();
                c(existing, tuple);
                self.bytes = self.bytes + existing.len() - before;
            }
            (Some(existing), None) => {
                // No combiner: a table slot holds one tuple, so the tuple it
                // held goes out as a run of its own and the new one takes
                // the slot.
                let old = std::mem::replace(existing, tuple.to_vec());
                self.bytes = self.bytes + tuple.len() - old.len();
                self.spill_single(&old)?;
            }
            (None, _) => {
                self.bytes += tuple.len() + 48;
                self.map.insert(vid, tuple.to_vec());
            }
        }
        if self.bytes > self.budget {
            self.spill()?;
        }
        Ok(())
    }

    /// Drain the hash table into `drain_arena`/`drain_refs` in ascending
    /// vid order. The tuple bytes land in recycled arena chunks and the
    /// entry vector is radix-sorted in place — no per-tuple allocation.
    fn drain_sorted(&mut self) {
        self.drain_arena.reset();
        self.drain_refs.clear();
        for (vid, t) in self.map.drain() {
            let r = self.drain_arena.append(&t);
            self.drain_refs.push((vid, r));
        }
        self.bytes = 0;
        self.sorter.sort(&self.drain_arena, &mut self.drain_refs);
    }

    fn spill(&mut self) -> Result<()> {
        if self.map.is_empty() {
            return Ok(());
        }
        self.drain_sorted();
        let mut w = RunWriter::create(
            self.fm.temp_file_path(&self.label),
            self.counters.clone(),
        )?;
        let mut spilled_bytes = 0u64;
        for &(_, r) in &self.drain_refs {
            let t = self.drain_arena.get(r);
            spilled_bytes += t.len() as u64;
            w.write_tuple(t)?;
        }
        self.runs.push(w.finish()?.into());
        self.counters.add_sort_runs(1);
        self.counters.add_sort_bytes_spilled(spilled_bytes);
        Ok(())
    }

    fn spill_single(&mut self, tuple: &[u8]) -> Result<()> {
        let mut w = RunWriter::create(
            self.fm.temp_file_path(&self.label),
            self.counters.clone(),
        )?;
        w.write_tuple(tuple)?;
        self.runs.push(w.finish()?.into());
        self.counters.add_sort_runs(1);
        self.counters.add_sort_bytes_spilled(tuple.len() as u64);
        Ok(())
    }

    /// Finish and return the sorted, combined stream. The residual table
    /// contents are handed to the merge as the drained arena plus sorted
    /// refs — no per-tuple copies on the way out.
    pub fn finish(mut self) -> Result<SortedStream> {
        self.drain_sorted();
        let arena = std::mem::replace(&mut self.drain_arena, TupleArena::new(1024));
        let refs: Vec<TupleRef> = self.drain_refs.iter().map(|&(_, r)| r).collect();
        SortedStream::from_arena_parts(
            arena,
            refs,
            std::mem::take(&mut self.runs),
            self.combiner.take(),
            self.counters.clone(),
        )
    }
}

/// Either local group-by behind one interface, so physical plans can pick
/// at runtime.
pub enum LocalGroupBy {
    /// Sort-based instance.
    Sort(SortGroupBy),
    /// HashSort instance.
    HashSort(HashSortGroupBy),
}

impl LocalGroupBy {
    /// Instantiate the chosen kind around a fold combiner.
    pub fn with_fold(
        kind: GroupByKind,
        fm: &FileManager,
        label: &str,
        budget: usize,
        combiner: Option<CombineFn>,
    ) -> LocalGroupBy {
        match kind {
            GroupByKind::Sort => LocalGroupBy::Sort(SortGroupBy::new(fm, label, budget, combiner)),
            GroupByKind::HashSort => {
                LocalGroupBy::HashSort(HashSortGroupBy::new(fm, label, budget, combiner))
            }
        }
    }

    /// [`LocalGroupBy::with_fold`] for callers holding a byte-pair
    /// [`TupleCombiner`].
    pub fn new(
        kind: GroupByKind,
        fm: &FileManager,
        label: &str,
        budget: usize,
        combiner: Option<&TupleCombiner>,
    ) -> LocalGroupBy {
        Self::with_fold(kind, fm, label, budget, combiner.map(combine_fn))
    }

    /// Feed one tuple (borrowed; implementations copy into their own
    /// arena/table storage).
    pub fn add(&mut self, tuple: &[u8]) -> Result<()> {
        match self {
            LocalGroupBy::Sort(g) => g.add(tuple),
            LocalGroupBy::HashSort(g) => g.add(tuple),
        }
    }

    /// Finish and return the sorted, combined stream.
    pub fn finish(self) -> Result<SortedStream> {
        match self {
            LocalGroupBy::Sort(g) => g.finish(),
            LocalGroupBy::HashSort(g) => g.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::frame::{keyed_tuple, tuple_payload, tuple_vid};
    use pregelix_storage::file::TempDir;
    use rand::prelude::*;

    fn fm() -> (FileManager, TempDir) {
        let d = TempDir::new("groupby").unwrap();
        let f = FileManager::new(d.path(), 4096, ClusterCounters::new()).unwrap();
        (f, d)
    }

    fn sum_combiner() -> CombineFn {
        Box::new(|acc, t| {
            let a = u64::from_le_bytes(acc[8..16].try_into().unwrap());
            let b = u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
            acc[8..16].copy_from_slice(&(a + b).to_le_bytes());
        })
    }

    fn feed_and_collect(mut g: LocalGroupBy, n_keys: u64, reps: u64) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(5);
        let mut tuples = Vec::new();
        for _ in 0..reps {
            for vid in 0..n_keys {
                tuples.push(keyed_tuple(vid, &1u64.to_le_bytes()));
            }
        }
        tuples.shuffle(&mut rng);
        for t in tuples {
            g.add(&t).unwrap();
        }
        let mut out = Vec::new();
        let mut stream = g.finish().unwrap();
        while let Some(t) = stream.next_tuple().unwrap() {
            out.push((
                tuple_vid(t).unwrap(),
                u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap()),
            ));
        }
        out
    }

    #[test]
    fn sort_groupby_combines_and_sorts() {
        let (f, _d) = fm();
        let g = LocalGroupBy::with_fold(GroupByKind::Sort, &f, "s", 1 << 20, Some(sum_combiner()));
        let out = feed_and_collect(g, 50, 20);
        assert_eq!(out.len(), 50);
        for (i, (vid, sum)) in out.iter().enumerate() {
            assert_eq!(*vid, i as u64);
            assert_eq!(*sum, 20);
        }
    }

    /// Either kind, dropped between its spills and `finish` — a task that
    /// died there — leaves no run file on the worker's disk.
    #[test]
    fn a_groupby_dropped_after_spilling_deletes_its_runs() {
        for kind in [GroupByKind::Sort, GroupByKind::HashSort] {
            let (f, _d) = fm();
            let mut g = LocalGroupBy::with_fold(kind, &f, "gone", 2048, Some(sum_combiner()));
            for vid in 0..4_000u64 {
                g.add(&keyed_tuple(vid, &1u64.to_le_bytes())).unwrap();
            }
            assert!(f.counters().sort_runs_spilled() >= 2, "{kind:?}");
            let runs = || f.temp_files().unwrap().len();
            assert_eq!(runs() as u64, f.counters().sort_runs_spilled(), "{kind:?}");
            drop(g);
            assert_eq!(runs(), 0, "{kind:?}");
        }
    }

    #[test]
    fn hashsort_groupby_combines_and_sorts_with_spills() {
        let (f, _d) = fm();
        // Tiny budget forces run spills mid-stream.
        let g = LocalGroupBy::with_fold(GroupByKind::HashSort, &f, "h", 2048, Some(sum_combiner()));
        let out = feed_and_collect(g, 200, 30);
        assert_eq!(out.len(), 200);
        for (i, (vid, sum)) in out.iter().enumerate() {
            assert_eq!(*vid, i as u64);
            assert_eq!(*sum, 30, "vid {vid}");
        }
        assert!(f.counters().sort_runs_spilled() > 0);
    }

    #[test]
    fn sort_and_hashsort_agree() {
        let (f, _d) = fm();
        let sort = feed_and_collect(
            LocalGroupBy::with_fold(GroupByKind::Sort, &f, "a", 4096, Some(sum_combiner())),
            123,
            7,
        );
        let hash = feed_and_collect(
            LocalGroupBy::with_fold(GroupByKind::HashSort, &f, "b", 4096, Some(sum_combiner())),
            123,
            7,
        );
        assert_eq!(sort, hash);
    }

    #[test]
    fn strategy_properties() {
        assert_eq!(GroupByStrategy::SortUnmerged.kind(), GroupByKind::Sort);
        assert!(!GroupByStrategy::SortUnmerged.merged());
        assert_eq!(
            GroupByStrategy::HashSortMerged.kind(),
            GroupByKind::HashSort
        );
        assert!(GroupByStrategy::HashSortMerged.merged());
        assert_eq!(GroupByStrategy::all().len(), 4);
    }

    #[test]
    fn hashsort_drain_recycles_arena_chunks_across_spills() {
        let (f, _d) = fm();
        let mut g = HashSortGroupBy::new(&f, "rc", 2048, Some(sum_combiner()));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let vid = rng.gen_range(0..500u64);
            g.add(&keyed_tuple(vid, &1u64.to_le_bytes())).unwrap();
        }
        let spills = f.counters().sort_runs_spilled();
        assert!(spills > 5, "2 KB budget must force many spills, got {spills}");
        // Every drain resets the pooled arena, recycling its chunks: the
        // allocation count is bounded by one drain's footprint (well under
        // a chunk here), not by the number of drains.
        let chunks = f.counters().arena_frames_allocated();
        assert!(chunks <= 2, "drain arena must recycle chunks, allocated {chunks}");
        let mut stream = g.finish().unwrap();
        let mut total = 0u64;
        while let Some(t) = stream.next_tuple().unwrap() {
            total += u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
        }
        assert_eq!(total, 20_000, "no message may be lost across drains");
    }

    #[test]
    fn hashsort_without_combiner_preserves_all_tuples() {
        let (f, _d) = fm();
        let mut g = HashSortGroupBy::new(&f, "nc", 1 << 20, None);
        for vid in [3u64, 1, 3, 2, 1, 1] {
            g.add(&keyed_tuple(vid, &vid.to_le_bytes())).unwrap();
        }
        // Three distinct keys resident (16-byte tuple + 48 bookkeeping
        // each); a replaced duplicate leaves the table's footprint as it was.
        assert_eq!(g.bytes, 3 * (16 + 48), "replaced tuples must be subtracted");
        // Each of the three duplicates went out as a run of its own.
        assert_eq!(f.counters().sort_runs_spilled(), 3);
        assert_eq!(f.counters().sort_bytes_spilled(), 3 * 16);
        let mut stream = g.finish().unwrap();
        let mut vids = Vec::new();
        while let Some(t) = stream.next_tuple().unwrap() {
            vids.push(tuple_vid(t).unwrap());
        }
        assert_eq!(vids, vec![1, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn byte_pair_combiner_adapts_onto_the_fold_path() {
        let pair: TupleCombiner = Arc::new(|a: &[u8], b: &[u8]| {
            let pa = u64::from_le_bytes(tuple_payload(a).unwrap().try_into().unwrap());
            let pb = u64::from_le_bytes(tuple_payload(b).unwrap().try_into().unwrap());
            keyed_tuple(tuple_vid(a).unwrap(), &(pa + pb).to_le_bytes())
        });
        for kind in [GroupByKind::Sort, GroupByKind::HashSort] {
            let (f, _d) = fm();
            let adapted =
                feed_and_collect(LocalGroupBy::new(kind, &f, "p", 2048, Some(&pair)), 97, 9);
            let folded = feed_and_collect(
                LocalGroupBy::with_fold(kind, &f, "f", 2048, Some(sum_combiner())),
                97,
                9,
            );
            assert_eq!(adapted, folded, "{kind:?}");
        }
    }
}
