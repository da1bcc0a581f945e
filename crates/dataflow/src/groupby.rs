//! The four parallel message-combination strategies of Figure 7, and the
//! names the paper gives their local group-bys.
//!
//! Hyracks ships three group-by implementations (§4): sort-based, HashSort
//! and preclustered. One sort serves here. A sender groups whatever it
//! cannot fold by address (`core::superstep`) through the sort-based
//! group-by, an [`ExternalSorter`] with the combiner pushed into its sort
//! and merge phases. The preclustered pass is the merge every receiver runs
//! over its senders' vid-ordered output (`MergingReceiver::into_stream`, or
//! `core::superstep`'s fold over queued streams). HashSort is a name: it
//! groups through the same sorter, to the same bytes.
//!
//! Figure 7 composes the local group-bys with the two connectors into four
//! strategies ([`GroupByStrategy`]). With one local group-by left, a
//! strategy picks only its connector: fully pipelined or merging.
//!
//! All grouping is on the tuple's 8-byte big-endian vid prefix, the only
//! grouping key Pregelix ever needs (message combination, mutation
//! resolution).

use pregelix_common::error::Result;
use pregelix_storage::file::FileManager;
use pregelix_storage::sort::{CombineFn, ExternalSorter, SortedStream};
use std::sync::Arc;

/// A combiner in byte-pair form: `(accumulated, incoming) -> merged`, one
/// fresh tuple per combine. The engine itself never combines this way; the
/// type exists for callers outside it that hold such a closure, and is
/// adapted onto the fold form by [`combine_fn`].
// pinned: benchmark/src/replay.rs
pub type TupleCombiner = Arc<dyn Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync>;

/// Adapt a [`TupleCombiner`] into a [`CombineFn`] (the merged tuple
/// replaces the accumulator).
// pinned: benchmark/src/replay.rs
pub fn combine_fn(c: &TupleCombiner) -> CombineFn {
    let c = Arc::clone(c);
    Box::new(move |acc, t| *acc = c(acc, t))
}

/// The paper's name for a strategy's local group-by. Both names group
/// through the one [`ExternalSorter`].
// pinned: benchmark/src/replay.rs
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupByKind {
    /// Sort-based group-by.
    Sort,
    /// HashSort group-by.
    HashSort,
}

/// The four parallel strategies of Figure 7. A strategy selects the
/// message edge's connector; its group-by name selects nothing. Neither
/// receiver sorts: both merge or fold the senders' vid-ordered output, as
/// it streams in or from the senders' runs.
// pinned: benchmark/src/workloads.rs
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupByStrategy {
    /// m-to-n partitioning connector (fully pipelined). The Pregelix
    /// default.
    SortUnmerged,
    /// The same plan as [`GroupByStrategy::SortUnmerged`].
    HashSortUnmerged,
    /// m-to-n partitioning *merging* connector (sender-side
    /// materializing); the receiver needs only a preclustered pass.
    SortMerged,
    /// The same plan as [`GroupByStrategy::SortMerged`].
    HashSortMerged,
}

impl GroupByStrategy {
    /// The paper's name for the sender's local group-by.
    // pinned: benchmark/src/replay.rs
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
}

/// A local group-by of either name: an [`ExternalSorter`] around a
/// byte-pair combiner.
// pinned: benchmark/src/replay.rs
pub struct LocalGroupBy(ExternalSorter);

impl LocalGroupBy {
    /// A group-by spilling through `fm` beyond `budget` bytes. Either
    /// `kind` builds the same sorter.
    pub fn new(
        _kind: GroupByKind,
        fm: &FileManager,
        label: &str,
        budget: usize,
        combiner: Option<&TupleCombiner>,
    ) -> LocalGroupBy {
        let sorter = ExternalSorter::new(fm.clone(), label, budget);
        LocalGroupBy(match combiner {
            Some(c) => sorter.with_combiner(combine_fn(c)),
            None => sorter,
        })
    }

    /// Feed one tuple (copied into the sorter's arena).
    pub fn add(&mut self, tuple: &[u8]) -> Result<()> {
        self.0.add(tuple)
    }

    /// Finish and return the sorted, combined stream.
    pub fn finish(self) -> Result<SortedStream> {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::frame::{keyed_tuple, tuple_payload, tuple_vid};
    use pregelix_common::stats::ClusterCounters;
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

    /// [`sum_combiner`] in byte-pair form.
    fn sum_pair() -> TupleCombiner {
        Arc::new(|a: &[u8], b: &[u8]| {
            let pa = u64::from_le_bytes(tuple_payload(a).unwrap().try_into().unwrap());
            let pb = u64::from_le_bytes(tuple_payload(b).unwrap().try_into().unwrap());
            keyed_tuple(tuple_vid(a).unwrap(), &(pa + pb).to_le_bytes())
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
        let g = LocalGroupBy::new(GroupByKind::Sort, &f, "s", 1 << 20, Some(&sum_pair()));
        let out = feed_and_collect(g, 50, 20);
        assert_eq!(out.len(), 50);
        for (i, (vid, sum)) in out.iter().enumerate() {
            assert_eq!(*vid, i as u64);
            assert_eq!(*sum, 20);
        }
    }

    /// A group-by dropped between its spills and `finish` — a task that
    /// died there — leaves no run file on the worker's disk.
    #[test]
    fn a_groupby_dropped_after_spilling_deletes_its_runs() {
        let (f, _d) = fm();
        let mut g = LocalGroupBy::new(GroupByKind::Sort, &f, "gone", 2048, Some(&sum_pair()));
        for vid in 0..4_000u64 {
            g.add(&keyed_tuple(vid, &1u64.to_le_bytes())).unwrap();
        }
        assert!(f.counters().sort_runs_spilled() >= 2);
        let runs = || f.temp_files().unwrap().len();
        assert_eq!(runs() as u64, f.counters().sort_runs_spilled());
        drop(g);
        assert_eq!(runs(), 0);
    }

    #[test]
    fn hashsort_groupby_combines_and_sorts_with_spills() {
        let (f, _d) = fm();
        // Tiny budget forces run spills mid-stream.
        let g = LocalGroupBy::new(GroupByKind::HashSort, &f, "h", 2048, Some(&sum_pair()));
        let out = feed_and_collect(g, 200, 30);
        assert_eq!(out.len(), 200);
        for (i, (vid, sum)) in out.iter().enumerate() {
            assert_eq!(*vid, i as u64);
            assert_eq!(*sum, 30, "vid {vid}");
        }
        assert!(f.counters().sort_runs_spilled() > 0);
    }

    #[test]
    fn hashsort_drain_recycles_arena_chunks_across_spills() {
        let (f, _d) = fm();
        let mut g = LocalGroupBy::new(GroupByKind::HashSort, &f, "rc", 2048, Some(&sum_pair()));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let vid = rng.gen_range(0..500u64);
            g.add(&keyed_tuple(vid, &1u64.to_le_bytes())).unwrap();
        }
        let spills = f.counters().sort_runs_spilled();
        assert!(spills > 5, "2 KB budget must force many spills, got {spills}");
        // Every spill resets the sorter's arena, recycling its chunks: the
        // allocation count is bounded by one buffer's footprint, not by the
        // number of spills.
        let chunks = f.counters().arena_frames_allocated();
        assert!(chunks <= 2, "the arena must recycle chunks, allocated {chunks}");
        let mut stream = g.finish().unwrap();
        let mut total = 0u64;
        while let Some(t) = stream.next_tuple().unwrap() {
            total += u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
        }
        assert_eq!(total, 20_000, "no message may be lost across spills");
    }

    #[test]
    fn hashsort_without_combiner_preserves_all_tuples() {
        let (f, _d) = fm();
        let mut g = LocalGroupBy::new(GroupByKind::HashSort, &f, "nc", 1024, None);
        for vid in [3u64, 1, 3, 2, 1, 1].into_iter().cycle().take(600) {
            g.add(&keyed_tuple(vid, &vid.to_le_bytes())).unwrap();
        }
        assert!(f.counters().sort_runs_spilled() > 0);
        let mut stream = g.finish().unwrap();
        let mut vids = Vec::new();
        while let Some(t) = stream.next_tuple().unwrap() {
            vids.push(tuple_vid(t).unwrap());
        }
        let expect: Vec<u64> = [1, 2, 3]
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, [300, 100, 200][v as usize - 1]))
            .collect();
        assert_eq!(vids, expect);
    }

    /// The two names are one sorter: the same stream, the same spills.
    #[test]
    fn sort_and_hashsort_agree() {
        let run = |kind| {
            let (f, _d) = fm();
            let g = LocalGroupBy::new(kind, &f, "k", 4096, Some(&sum_pair()));
            let out = feed_and_collect(g, 123, 7);
            let c = f.counters().snapshot();
            (out, c.sort_runs_spilled, c.sort_bytes_spilled, c.radix_sort_entries)
        };
        let sort = run(GroupByKind::Sort);
        assert!(sort.1 > 0, "the budget forces spills");
        assert_eq!(sort, run(GroupByKind::HashSort));
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
    }

    #[test]
    fn byte_pair_combiner_adapts_onto_the_fold_path() {
        let (f, _d) = fm();
        let adapted = feed_and_collect(
            LocalGroupBy::new(GroupByKind::Sort, &f, "p", 2048, Some(&sum_pair())),
            97,
            9,
        );
        let folded = feed_and_collect(
            LocalGroupBy(ExternalSorter::new(f.clone(), "f", 2048).with_combiner(sum_combiner())),
            97,
            9,
        );
        assert_eq!(adapted, folded);
    }
}
