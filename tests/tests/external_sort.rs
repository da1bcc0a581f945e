//! Property tests for the external sort: [`ExternalSorter`] must match a
//! plain `Vec::sort`, folded by 8-byte key, at a budget that keeps every
//! tuple in memory and at one that spills several runs, with and without a
//! combiner. The inputs are duplicate vids, tuples shorter than 8 bytes
//! and distinct tuples sharing an 8-byte prefix; `Frame::sort` is checked
//! against the same model.
//!
//! The case count honours `PROPTEST_CASES` so CI's storage-proptest job
//! can raise it without a code change.

use pregelix::common::frame::{keyed_tuple, Frame};
use pregelix::common::stats::ClusterCounters;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::sort::{CombineFn, ExternalSorter};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

// ---------------------------------------------------------------------------
// Input strategies
// ---------------------------------------------------------------------------

/// Keyed tuples with vids drawn from a small domain: duplicate keys are
/// the norm, payloads vary, so equal prefixes carry real sorting work.
fn dup_vid_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec((0u64..64, prop::collection::vec(any::<u8>(), 0..12)), 0..800)
        .prop_map(|v| v.into_iter().map(|(vid, p)| keyed_tuple(vid, &p)).collect())
}

/// Raw byte strings of length 0..12: most are shorter than the 8-byte
/// prefix, so zero-padded prefixes collide ("a" vs "a\0") and only the
/// tuple bytes separate them.
fn short_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..800)
}

/// Distinct tuples sharing one of a handful of 8-byte prefixes: the prefix
/// cannot separate them at all, the order rides on the bytes behind it.
fn shared_prefix_tuples() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec((0u64..4, any::<u32>()), 0..800).prop_map(|v| {
        v.into_iter()
            .map(|(p, suffix)| keyed_tuple(p * 1000, &suffix.to_be_bytes()))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Model and check
// ---------------------------------------------------------------------------

/// A combiner whose result does not depend on how the spills cut a
/// group: the accumulator's payload becomes the sorted union of both
/// payloads' bytes, so it grows with every fold.
fn byte_union() -> CombineFn {
    Box::new(|acc, t| {
        acc.extend_from_slice(&t[8..]);
        acc[8..].sort_unstable();
    })
}

/// Sort, then fold equal 8-byte keys in sorted order; tuples shorter than
/// a key never fold.
fn model(tuples: &[Vec<u8>], comb: Option<&mut CombineFn>) -> Vec<Vec<u8>> {
    let mut sorted = tuples.to_vec();
    sorted.sort();
    let Some(comb) = comb else { return sorted };
    let mut out: Vec<Vec<u8>> = Vec::new();
    for t in sorted {
        match out.last_mut() {
            Some(acc) if acc.len() >= 8 && t.len() >= 8 && acc[..8] == t[..8] => comb(acc, &t),
            _ => out.push(t),
        }
    }
    out
}

/// A budget that holds every case in memory, and one that spills a run
/// every few dozen tuples.
const IN_MEMORY: usize = 1 << 20;
const SPILLING: usize = 1024;

fn check(tuples: Vec<Vec<u8>>) -> TestCaseResult {
    for budget in [IN_MEMORY, SPILLING] {
        for combine in [false, true] {
            let dir = TempDir::new("external-sort").unwrap();
            let counters = ClusterCounters::new();
            let fm = FileManager::new(dir.path(), 4096, counters.clone()).unwrap();
            let mut sorter = ExternalSorter::new(fm, "prop", budget);
            if combine {
                sorter = sorter.with_combiner(byte_union());
            }
            for t in &tuples {
                sorter.add(t).unwrap();
            }
            let spilled = sorter.spilled_runs();
            let got = sorter.finish().unwrap().collect_all().unwrap();
            let expect = model(&tuples, combine.then(byte_union).as_mut());
            prop_assert_eq!(&got, &expect, "budget {}, combine {}", budget, combine);
            if budget == IN_MEMORY {
                prop_assert_eq!(spilled, 0);
                prop_assert_eq!(counters.radix_sort_entries(), tuples.len() as u64);
            } else if tuples.len() >= 200 {
                prop_assert!(spilled > 1, "{} tuples spilled {} runs", tuples.len(), spilled);
            }
            prop_assert_eq!(counters.sort_comparison_fallbacks(), 0);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn duplicate_vids_match_the_model(tuples in dup_vid_tuples()) {
        check(tuples)?;
    }

    #[test]
    fn short_tuples_match_the_model(tuples in short_tuples()) {
        check(tuples)?;
    }

    #[test]
    fn shared_prefixes_match_the_model(tuples in shared_prefix_tuples()) {
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
}
