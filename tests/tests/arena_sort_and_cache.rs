//! Integration tests for the arena-backed external sorter and the
//! lock-striped buffer cache.
//!
//! The proptest sweep pins down the tentpole's safety argument: the
//! frame-native sorter (pooled arena + sorted `TupleRef`s + lending k-way
//! merge) must be *bit-identical* to a straightforward reference model —
//! sort everything, fold adjacent equal keys — with and without a
//! combiner, across forced-spill budgets, empty inputs, and duplicate-key
//! distributions. The cache tests hammer a striped [`BufferCache`] from 8
//! threads and check the counter invariant that every pin is classified as
//! exactly one hit or one miss.

use pregelix::common::frame::{keyed_tuple, tuple_payload};
use pregelix::common::stats::ClusterCounters;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::sort::{CombineFn, ExternalSorter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

fn fm(label: &str) -> (FileManager, TempDir) {
    let dir = TempDir::new(label).unwrap();
    let f = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();
    (f, dir)
}

fn sum_combiner() -> CombineFn {
    Box::new(|acc: &mut Vec<u8>, t: &[u8]| {
        let va = u64::from_le_bytes(acc[8..16].try_into().unwrap());
        let vb = u64::from_le_bytes(tuple_payload(t).unwrap().try_into().unwrap());
        acc[8..16].copy_from_slice(&(va + vb).to_le_bytes());
    })
}

/// Reference model: sort owned tuples, fold adjacent equal keys. This is
/// exactly what the pre-arena `Vec<Vec<u8>>` sorter computed.
fn reference(mut tuples: Vec<Vec<u8>>, combine: bool) -> Vec<Vec<u8>> {
    tuples.sort();
    if !combine {
        return tuples;
    }
    let mut comb = sum_combiner();
    let mut out: Vec<Vec<u8>> = Vec::new();
    for t in tuples {
        match out.last_mut() {
            Some(prev) if prev[..8] == t[..8] => comb(prev, &t),
            _ => out.push(t),
        }
    }
    out
}

fn run_sorter_case(
    tuples: &[Vec<u8>],
    budget: usize,
    combine: bool,
    label: &str,
) -> (Vec<Vec<u8>>, u64, u64, usize) {
    let (f, _d) = fm(label);
    let counters = f.counters().clone();
    let mut s = ExternalSorter::new(f, label, budget);
    if combine {
        s = s.with_combiner(sum_combiner());
    }
    for t in tuples {
        s.add(t).unwrap();
    }
    let spilled_runs = s.spilled_runs();
    let got = s.finish().unwrap().collect_all().unwrap();
    (
        got,
        counters.sort_bytes_spilled(),
        counters.arena_frames_allocated(),
        spilled_runs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The arena sorter is bit-identical to the reference model for every
    /// (input, budget, combiner) combination, including budgets small
    /// enough to force many spilled runs.
    #[test]
    fn prop_arena_sorter_matches_reference(
        seed in 0u64..10_000,
        n in 0usize..4_000,
        key_space in 1u64..2_000,
        budget in prop_oneof![Just(2_048usize), Just(16 << 10), Just(1 << 20)],
        combine in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tuples: Vec<Vec<u8>> = (0..n)
            .map(|_| keyed_tuple(rng.gen_range(0..key_space), &1u64.to_le_bytes()))
            .collect();
        let (got, bytes_spilled, _, spilled_runs) =
            run_sorter_case(&tuples, budget, combine, "prop-sort");
        let expect = reference(tuples, combine);
        prop_assert_eq!(got, expect);
        // Spill-volume accounting fires exactly when runs were written.
        prop_assert_eq!(spilled_runs > 0, bytes_spilled > 0);
    }
}

#[test]
fn duplicate_keys_without_combiner_keep_multiplicity() {
    // Every tuple has the same vid; without a combiner all copies must
    // survive in order, with a combiner they collapse to one.
    let tuples: Vec<Vec<u8>> = (0..5_000u64)
        .map(|i| keyed_tuple(7, &(i % 3).to_le_bytes()))
        .collect();
    let (plain, ..) = run_sorter_case(&tuples, 2_048, false, "dup-plain");
    assert_eq!(plain, reference(tuples.clone(), false));
    assert_eq!(plain.len(), 5_000);
    let (combined, ..) = run_sorter_case(&tuples, 2_048, true, "dup-comb");
    assert_eq!(combined.len(), 1);
    assert_eq!(combined, reference(tuples, true));
}

#[test]
fn arena_allocations_stay_bounded_by_budget() {
    // 500k tuples through a 1 MiB budget: the arena must recycle its
    // pooled chunks across spills instead of allocating per tuple (or
    // even per spill).
    let tuples: Vec<Vec<u8>> = (0..500_000u64)
        .map(|i| keyed_tuple(i % 4_096, &1u64.to_le_bytes()))
        .collect();
    let (got, bytes_spilled, frames, spilled_runs) =
        run_sorter_case(&tuples, 1 << 20, true, "alloc-bound");
    assert!(spilled_runs > 3, "budget must force spills");
    assert!(bytes_spilled > 0);
    assert_eq!(got.len(), 4_096);
    // 1 MiB budget / 256 KiB chunks = 4 chunks in flight; the combiner
    // pre-pass adds a handful more. Anything near the tuple count means
    // pooling is broken.
    assert!(
        frames <= 16,
        "expected O(budget/chunk_size) arena allocations, got {frames}"
    );
}

#[test]
fn striped_cache_concurrent_pins_keep_counter_invariant() {
    const THREADS: u64 = 8;
    const PINS_PER_THREAD: u64 = 4_000;
    const PAGES: u64 = 128;

    let (f, _d) = fm("stripe-hammer");
    let counters = f.counters().clone();
    let cache = BufferCache::with_stripes(f.clone(), 64, 8);
    assert_eq!(cache.stripe_count(), 8);
    let file = f.create().unwrap();
    // Materialize PAGES pages, each stamped with a recognizable byte.
    for p in 0..PAGES {
        let (pid, guard) = cache.new_page(file).unwrap();
        assert_eq!(pid, p);
        guard.write()[0] = (p % 251) as u8;
    }
    cache.flush_file(file).unwrap();
    let before = counters.snapshot();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = cache.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t + 1);
                for _ in 0..PINS_PER_THREAD {
                    let p = rng.gen_range(0..PAGES);
                    let guard = cache.pin(file, p).unwrap();
                    // Pinned data is always the page we asked for, no
                    // matter which stripe it lives in or who else is
                    // evicting.
                    assert_eq!(guard.read()[0], (p % 251) as u8, "page {p}");
                }
            });
        }
    });

    let delta = counters.delta_since(&before);
    assert_eq!(
        delta.cache_hits + delta.cache_misses,
        THREADS * PINS_PER_THREAD,
        "every pin must count exactly one hit or one miss"
    );
    // 128 hot pages through a 64-page cache: both hits and misses occur.
    assert!(delta.cache_hits > 0);
    assert!(delta.cache_misses > 0);
    assert!(cache.resident() <= 64, "budget respected across stripes");
}

#[test]
fn striped_cache_dirty_pages_survive_concurrent_eviction_pressure() {
    const THREADS: u64 = 4;
    const PAGES_PER_THREAD: u64 = 64;

    let (f, _d) = fm("stripe-dirty");
    // Tiny cache (16 pages, 8 stripes) so almost every write is evicted
    // and re-read through disk.
    let cache = BufferCache::with_stripes(f.clone(), 16, 8);
    let file = f.create().unwrap();
    for _ in 0..THREADS * PAGES_PER_THREAD {
        let (_pid, guard) = cache.new_page(file).unwrap();
        guard.write()[0] = 0;
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = cache.clone();
            s.spawn(move || {
                for i in 0..PAGES_PER_THREAD {
                    let p = t * PAGES_PER_THREAD + i;
                    let guard = cache.pin(file, p).unwrap();
                    let mut data = guard.write();
                    data[0] = (t + 1) as u8;
                    data[1] = (p % 250) as u8;
                }
            });
        }
    });
    // Everything written is readable back, via cache or disk.
    for t in 0..THREADS {
        for i in 0..PAGES_PER_THREAD {
            let p = t * PAGES_PER_THREAD + i;
            let guard = cache.pin(file, p).unwrap();
            let data = guard.read();
            assert_eq!((data[0], data[1]), ((t + 1) as u8, (p % 250) as u8));
        }
    }
}
