//! Property tests for the radix sort: the LSB/software-write-combining
//! path of [`TupleRadixSorter`] must be indistinguishable from the same
//! sorter with its radix threshold at `usize::MAX` (every batch on the
//! comparison path) — and from a plain `Vec::sort` reference model —
//! across duplicate vids, tuples shorter than 8 bytes, distinct tuples
//! sharing an 8-byte prefix, empty input, single entries, and adversarial
//! digit distributions that concentrate all work in one byte plane. Exact
//! counter accounting (`radix_sort_entries`, `radix_passes_skipped`,
//! `sort_comparison_fallbacks`) is asserted alongside equivalence, the
//! spill path is pinned to zero drift in `sort_bytes_spilled` between the
//! two thresholds, and `Frame::sort` is checked against the model.
//!
//! The case count honours `PROPTEST_CASES` so CI's storage-proptest job
//! can raise it without a code change.

use pregelix::common::frame::{key_prefix, keyed_tuple, Frame};
use pregelix::common::stats::ClusterCounters;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::radix::{planned_passes, TupleRadixSorter};
use pregelix::storage::sort::ExternalSorter;
use pregelix_common::arena::{TupleArena, TupleRef};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

// ---------------------------------------------------------------------------
// Input strategies — each targets a failure mode the radix path must not
// have.
// ---------------------------------------------------------------------------

/// Keyed tuples with vids drawn from a small domain: duplicate keys are
/// the norm, payloads vary, so tie groups carry real sorting work.
fn dup_vid_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec((0u64..64, prop::collection::vec(any::<u8>(), 0..12)), 0..800)
        .prop_map(|v| v.into_iter().map(|(vid, p)| keyed_tuple(vid, &p)).collect())
}

/// Raw byte strings of length 0..12: most are shorter than the 8-byte
/// prefix, so zero-padded prefixes collide ("a" vs "a\0") and the
/// tie-group fallback must separate them by true byte order.
fn short_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..800)
}

/// Distinct tuples sharing one of a handful of 8-byte prefixes: the radix
/// passes cannot separate them at all, everything rides on tie groups.
fn shared_prefix_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec((0u64..4, any::<u32>()), 0..800).prop_map(|v| {
        v.into_iter()
            .map(|(p, suffix)| keyed_tuple(p * 1000, &suffix.to_be_bytes()))
            .collect()
    })
}

/// Adversarial digit distributions: every key is a single digit shifted
/// into one byte plane, so the whole varying bit-span sits high in the
/// key and the plan must place its digit windows off the byte grid.
fn single_plane_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (0u32..8).prop_flat_map(|plane| {
        prop::collection::vec(any::<u8>(), 0..800).prop_map(move |digits| {
            digits
                .into_iter()
                .map(|d| keyed_tuple((d as u64) << (8 * plane), b"x"))
                .collect()
        })
    })
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn load(tuples: &[Vec<u8>]) -> (TupleArena, Vec<(u64, TupleRef)>) {
    let mut arena = TupleArena::new(64 * 1024);
    let refs = tuples
        .iter()
        .map(|t| (key_prefix(t), arena.append(t)))
        .collect();
    (arena, refs)
}

/// Radix threshold lowered to 2 so every non-trivial case exercises the
/// radix plan rather than the small-batch comparison gate.
const RADIX: usize = 2;
/// Radix threshold that keeps every batch on the comparison path.
const COMPARISON: usize = usize::MAX;

fn sort_with(min_entries: usize, tuples: &[Vec<u8>], c: &ClusterCounters) -> Vec<Vec<u8>> {
    let (arena, mut refs) = load(tuples);
    let mut s = TupleRadixSorter::with_counters(c.clone()).with_min_entries(min_entries);
    s.sort(&arena, &mut refs);
    refs.iter().map(|&(_, r)| arena.get(r).to_vec()).collect()
}

/// Count the tie groups (runs of ≥ 2 equal zero-padded prefixes) the
/// radix path must hand to the comparison fallback — computable from the
/// multiset of inputs alone, which is what makes exact counter
/// accounting checkable.
fn expected_tie_groups(model: &[Vec<u8>]) -> u64 {
    let mut prefixes: Vec<u64> = model.iter().map(|t| key_prefix(t)).collect();
    prefixes.sort_unstable();
    let mut groups = 0u64;
    let mut i = 0usize;
    while i < prefixes.len() {
        let mut j = i + 1;
        while j < prefixes.len() && prefixes[j] == prefixes[i] {
            j += 1;
        }
        if j - i >= 2 {
            groups += 1;
        }
        i = j;
    }
    groups
}

/// Replay the sorter's dispatch on the input multiset alone and predict
/// the exact `(radix_sort_entries, radix_passes_skipped,
/// sort_comparison_fallbacks)` charge of one sort at the [`RADIX`]
/// threshold. Mirrors `TupleRadixSorter::sort`'s branch order:
/// presorted precheck, constant-prefix batch, over-wide span, then the
/// pass plan plus one fallback per tie group.
fn expected_auto_charge(tuples: &[Vec<u8>], model: &[Vec<u8>]) -> (u64, u64, u64) {
    let n = tuples.len() as u64;
    if tuples.len() <= 1 {
        return (0, 0, 0);
    }
    if tuples.windows(2).all(|w| w[0] <= w[1]) {
        return (n, 8, 0);
    }
    let (orv, andv) = tuples.iter().fold((0u64, !0u64), |(o, a), t| {
        let k = key_prefix(t);
        (o | k, a & k)
    });
    let varies = orv ^ andv;
    if varies == 0 {
        return (n, 8, 1);
    }
    let span = 64 - varies.leading_zeros() - varies.trailing_zeros();
    if span > 32 {
        return (0, 0, 1);
    }
    (
        n,
        (8 - planned_passes(span)) as u64,
        expected_tie_groups(model),
    )
}

fn check(tuples: Vec<Vec<u8>>) -> TestCaseResult {
    let mut model = tuples.clone();
    model.sort();

    let auto_c = ClusterCounters::new();
    let cmp_c = ClusterCounters::new();
    let auto = sort_with(RADIX, &tuples, &auto_c);
    let cmp = sort_with(COMPARISON, &tuples, &cmp_c);
    prop_assert_eq!(&auto, &model);
    prop_assert_eq!(&cmp, &model);

    let (entries, skipped, fallbacks) = expected_auto_charge(&tuples, &model);
    prop_assert_eq!(auto_c.radix_sort_entries(), entries);
    prop_assert_eq!(auto_c.radix_passes_skipped(), skipped);
    prop_assert_eq!(auto_c.sort_comparison_fallbacks(), fallbacks);

    prop_assert_eq!(cmp_c.radix_sort_entries(), 0);
    prop_assert_eq!(cmp_c.radix_passes_skipped(), 0);
    prop_assert_eq!(
        cmp_c.sort_comparison_fallbacks(),
        u64::from(tuples.len() > 1)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn duplicate_vids_radix_matches_comparison_and_model(tuples in dup_vid_tuples()) {
        check(tuples)?;
    }

    #[test]
    fn short_tuples_radix_matches_comparison_and_model(tuples in short_tuples()) {
        check(tuples)?;
    }

    #[test]
    fn shared_prefixes_radix_matches_comparison_and_model(tuples in shared_prefix_tuples()) {
        check(tuples)?;
    }

    #[test]
    fn single_plane_digits_radix_matches_comparison_and_model(tuples in single_plane_tuples()) {
        check(tuples)?;
    }

    /// The frame-local sort agrees with the model.
    #[test]
    fn frame_sort_matches_model(tuples in dup_vid_tuples()) {
        let mut frame = Frame::with_capacity(1 << 20);
        let mut model = Vec::new();
        for t in &tuples {
            if frame.try_append(t) {
                model.push(t.clone());
            }
        }
        model.sort();
        frame.sort();
        let got: Vec<Vec<u8>> = frame.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(got, model);
    }

    /// End-to-end external sort: radix and comparison legs must produce
    /// byte-identical streams AND byte-identical spill traffic. Any radix
    /// reordering bug that survives the in-memory equivalence checks
    /// would desynchronise run boundaries or merge output here.
    #[test]
    fn external_sort_modes_agree_with_zero_spill_drift(
        vids in prop::collection::vec(0u64..50_000, 1..1500),
    ) {
        let tuples: Vec<Vec<u8>> = vids
            .iter()
            .enumerate()
            .map(|(i, &v)| keyed_tuple(v, &(i as u64).to_le_bytes()))
            .collect();

        let mut outputs = Vec::new();
        let mut spilled = Vec::new();
        for min_entries in [RADIX, COMPARISON] {
            let dir = TempDir::new("radix-drift").unwrap();
            let counters = ClusterCounters::new();
            let fm = FileManager::new(dir.path(), 4096, counters.clone()).unwrap();
            // A budget this small forces several runs per 1500 tuples, and
            // the lowered threshold routes every spill batch through the
            // radix plan (vids up to 50k: word pass + fused pass) on the
            // radix leg.
            let mut sorter =
                ExternalSorter::new(fm, "drift", 4096).with_sort_min_entries(min_entries);
            for t in &tuples {
                sorter.add(t).unwrap();
            }
            let stream = sorter.finish().unwrap();
            outputs.push(stream.collect_all().unwrap());
            spilled.push(counters.snapshot().sort_bytes_spilled);
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "stream output drift between thresholds");
        prop_assert_eq!(spilled[0], spilled[1], "sort_bytes_spilled drift between thresholds");

        let mut model = tuples;
        model.sort();
        prop_assert_eq!(&outputs[0], &model);
    }
}
