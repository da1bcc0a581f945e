//! Tuple-level radix sorting over `(key-prefix, TupleRef)` entry vectors:
//! the one sort engine under the external sort and the HashSort group-by.
//!
//! Every keyed relation carries its vid in the first 8 tuple bytes,
//! big-endian, so the hot path orders `(u64 key-prefix, TupleRef)` entries
//! whose key is a fixed-width integer — the shape where an LSB radix sort
//! beats comparison sort. A [`TupleRadixSorter`] orders the entries the
//! [`crate::sort::ExternalSorter`] permutes in O(n) per executed digit
//! instead of O(n log n) comparisons, scattering each pass through small
//! per-digit staging blocks (software write-combining) so the scatter
//! streams whole cache lines instead of fighting 2^bits write cursors.
//!
//! The entry shape is 24 bytes, so naive byte-plane passes move 3× the
//! data a `u64` sort would. The binding instead plans its passes around
//! two measured facts (see EXPERIMENTS.md §sort_1m_msgs):
//!
//! 1. **Bit-span digits.** One OR/AND fold finds the varying bit-span of
//!    the key prefixes (`AND ≤ key ≤ OR` bitwise). A 2^20-vid graph
//!    varies in ≤ 20 bits no matter which bytes the span straddles, and
//!    constant bits shared by every key cost nothing.
//! 2. **Compact word passes.** When more than one pass is needed, the
//!    low passes run over packed `(compact key << 32) | input index`
//!    words — 8-byte moves with up-to-[`MAX_WORD_BITS`]-bit digits —
//!    and only the **final** (most significant) pass touches the
//!    24-byte entries: it uses the word's index bits to gather each
//!    entry from the input vector and scatters it through the
//!    write-combining stage in the same loop, fusing the permute that a
//!    separate gather pass would cost. Spans of at most
//!    [`MAX_FUSED_BITS`] bits skip the words entirely and run one fused
//!    pass straight over the entries.
//! 3. Equal-prefix *tie groups* — tuples longer than 8 bytes sharing a
//!    prefix, or short tuples whose zero-padded prefixes collide — are
//!    resolved by a stable comparison sort over the tuple bytes behind
//!    each ref; pairs get a single compare-and-swap.
//! 4. Batches below the sorter's threshold (default
//!    [`TUPLE_RADIX_MIN_ENTRIES`]; `usize::MAX` keeps every batch there)
//!    and spans wider than 32 bits take the comparison path (prefix `u64`
//!    first, arena bytes only on equal prefixes). Already-sorted batches
//!    are detected by a linear precheck and left untouched.
//!
//! The result is byte-identical to the comparison path at any threshold:
//! both realize ascending whole-tuple byte order. The equivalence is
//! pinned by proptest (`tests/tests/radix_sort.rs`) together with exact
//! accounting of the `radix_sort_entries`, `radix_passes_skipped` and
//! `sort_comparison_fallbacks` counters.

use std::cmp::Ordering;

use pregelix_common::arena::{TupleArena, TupleRef};
use pregelix_common::stats::ClusterCounters;

/// Widest varying bit-span sorted by a single fused pass straight over
/// the 24-byte entries (8 KiB of cursors, ≤ 192 KiB of staging blocks).
pub const MAX_FUSED_BITS: u32 = 11;

/// Widest digit of a compact-word pass. 2^13 cursors plus a 64 B staging
/// block per digit stay inside L2 while the scatter streams the words.
pub const MAX_WORD_BITS: u32 = 13;

/// Words staged per digit before a bulk flush: 8 × 8 B = one cache line.
const WORD_BLOCK: usize = 8;

/// Entries staged per digit in a fused pass: 4 × 24 B ≈ 1.5 cache lines,
/// the best measured trade between flush size and staging footprint.
const ENTRY_BLOCK: usize = 4;

/// Below this many entries the comparison sort wins: the radix path's
/// fixed costs (fold, histogram, cursor setup) outweigh its scan savings.
/// Chosen from the extraction study's crossover sweep (see
/// EXPERIMENTS.md).
pub const TUPLE_RADIX_MIN_ENTRIES: usize = 4096;

/// Scatter passes the plan executes for a varying bit-span of `span`
/// bits (1 ≤ span ≤ 32): one fused entry pass, preceded by enough
/// compact-word passes to cover what the fused digit cannot. Exposed so
/// the counter-accounting tests can predict `radix_passes_skipped`
/// exactly.
pub fn planned_passes(span: u32) -> u32 {
    if span <= MAX_FUSED_BITS {
        return 1;
    }
    // The fused digit takes 4-8 of the top bits (never the whole span);
    // the rest splits evenly across word passes so no pass degenerates
    // into a sliver.
    let fused_bits = span.saturating_sub(MAX_WORD_BITS).clamp(4, 8).min(span - 1);
    let rest = span - fused_bits;
    rest.div_ceil(MAX_WORD_BITS) + 1
}

/// Visit every maximal run of equal keys of length ≥ 2 in a key-sorted
/// entry slice: the tie groups a comparison over the full tuple bytes
/// resolves after the radix passes.
fn for_each_tie_group<T>(entries: &mut [(u64, T)], mut f: impl FnMut(&mut [(u64, T)])) {
    let n = entries.len();
    let mut start = 0;
    while start < n {
        let key = entries[start].0;
        let mut end = start + 1;
        while end < n && entries[end].0 == key {
            end += 1;
        }
        if end - start >= 2 {
            f(&mut entries[start..end]);
        }
        start = end;
    }
}

/// Order equal-prefix tuples by their bytes. When both tuples carry a
/// full 8-byte prefix the first 8 bytes are already known equal, so only
/// the suffixes are compared; short tuples (whose zero-padded prefixes
/// can collide, e.g. `"a"` vs `"a\0"`) fall back to the whole-byte
/// comparison.
#[inline]
fn tie_cmp(a: &[u8], b: &[u8]) -> Ordering {
    if a.len() >= 8 && b.len() >= 8 {
        a[8..].cmp(&b[8..])
    } else {
        a.cmp(b)
    }
}

/// A pooled sorter for `(key-prefix, TupleRef)` entry vectors. Holds the
/// word buffers, the entry stash and the staging blocks across calls, so
/// a spilling external sorter radix-sorts every batch of its lifetime
/// with a bounded number of allocations.
pub struct TupleRadixSorter {
    /// Packed `(compact key << 32) | index` words for the low passes.
    words: Vec<u64>,
    /// Ping-pong destination for word passes.
    wstash: Vec<u64>,
    /// Per-digit word staging blocks ([`WORD_BLOCK`] words each).
    wstage: Vec<u64>,
    /// Ping-pong destination for the fused entry pass; recycled against
    /// the caller's vector so neither side reallocates across batches.
    estash: Vec<(u64, TupleRef)>,
    /// Per-digit entry staging blocks ([`ENTRY_BLOCK`] entries each).
    estage: Vec<(u64, TupleRef)>,
    /// Fill level of each digit's staging block.
    stage_len: Vec<u16>,
    /// Histogram / cursor buffer, one digit's worth per pass.
    hist: Vec<u32>,
    min_entries: usize,
    counters: Option<ClusterCounters>,
}

impl Default for TupleRadixSorter {
    fn default() -> Self {
        Self::new()
    }
}

impl TupleRadixSorter {
    /// Create a sorter with no counter accounting.
    pub fn new() -> Self {
        TupleRadixSorter {
            words: Vec::new(),
            wstash: Vec::new(),
            wstage: Vec::new(),
            estash: Vec::new(),
            estage: Vec::new(),
            stage_len: Vec::new(),
            hist: Vec::new(),
            min_entries: TUPLE_RADIX_MIN_ENTRIES,
            counters: None,
        }
    }

    /// Create a sorter charging `radix_sort_entries`,
    /// `radix_passes_skipped` and `sort_comparison_fallbacks` to
    /// `counters`.
    pub fn with_counters(counters: ClusterCounters) -> Self {
        let mut s = Self::new();
        s.counters = Some(counters);
        s
    }

    /// Override the radix threshold (tests and benchmarks; production
    /// keeps [`TUPLE_RADIX_MIN_ENTRIES`]). `usize::MAX` keeps every batch
    /// on the comparison path.
    pub fn with_min_entries(mut self, min_entries: usize) -> Self {
        self.set_min_entries(min_entries);
        self
    }

    /// In-place form of [`Self::with_min_entries`], for owners that embed
    /// the sorter.
    pub fn set_min_entries(&mut self, min_entries: usize) {
        self.min_entries = min_entries;
    }

    fn charge(&self, entries: u64, skipped: u64, fallbacks: u64) {
        if let Some(c) = &self.counters {
            if entries != 0 {
                c.add_radix_sort_entries(entries);
            }
            if skipped != 0 {
                c.add_radix_passes_skipped(skipped);
            }
            if fallbacks != 0 {
                c.add_sort_comparison_fallbacks(fallbacks);
            }
        }
    }

    /// The PR 1 sorter, verbatim: prefix `u64` first, arena bytes only on
    /// equal prefixes.
    fn comparison_sort(arena: &TupleArena, refs: &mut [(u64, TupleRef)]) {
        refs.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| arena.get(a.1).cmp(arena.get(b.1)))
        });
    }

    /// Linear precheck: true iff the batch is already in whole-tuple byte
    /// order. Touches arena bytes only across equal-prefix neighbours.
    fn fully_sorted(arena: &TupleArena, refs: &[(u64, TupleRef)]) -> bool {
        refs.windows(2).all(|w| {
            w[0].0 < w[1].0
                || (w[0].0 == w[1].0
                    && tie_cmp(arena.get(w[0].1), arena.get(w[1].1)) != Ordering::Greater)
        })
    }

    /// Sort `refs` into ascending whole-tuple byte order: by the `u64`
    /// key prefix first, with equal-prefix ties resolved on the tuple
    /// bytes behind each ref in `arena`.
    pub fn sort(&mut self, arena: &TupleArena, refs: &mut Vec<(u64, TupleRef)>) {
        let n = refs.len();
        if n <= 1 {
            return;
        }
        if n < self.min_entries {
            Self::comparison_sort(arena, refs);
            self.charge(0, 0, 1);
            return;
        }
        if Self::fully_sorted(arena, refs) {
            // Resorting a near-sorted spill run costs one scan; all 8
            // naive passes are avoided.
            self.charge(n as u64, 8, 0);
            return;
        }
        let (mut orv, mut andv) = (0u64, !0u64);
        for &(k, _) in refs.iter() {
            orv |= k;
            andv &= k;
        }
        let varies = orv ^ andv;
        if varies == 0 {
            // Every prefix is identical: the whole batch is one tie
            // group ordered by payload bytes alone.
            refs.sort_by(|a, b| tie_cmp(arena.get(a.1), arena.get(b.1)));
            self.charge(n as u64, 8, 1);
            return;
        }
        let tz = varies.trailing_zeros();
        let span = 64 - varies.leading_zeros() - tz;
        if span > 32 {
            // The compact words hold the key in the high 32 bits; wider
            // spans (pathological for vids) stay on the comparison path.
            Self::comparison_sort(arena, refs);
            self.charge(0, 0, 1);
            return;
        }
        debug_assert!(n <= u32::MAX as usize, "word index bits are u32");

        let passes = if span <= MAX_FUSED_BITS {
            self.fused_entry_pass(refs, tz, span);
            1
        } else {
            self.word_passes_then_fused(refs, tz, span)
        };

        let mut fallbacks = 0u64;
        for_each_tie_group(refs, |group| {
            // Groups are typically tiny (messages for one vid within one
            // buffer fill); a pair costs one compare-and-swap.
            if let [a, b] = group {
                if tie_cmp(arena.get(a.1), arena.get(b.1)) == Ordering::Greater {
                    std::mem::swap(a, b);
                }
            } else {
                // Stable, so equal-byte tuples keep the arrival order the
                // radix passes preserved.
                group.sort_by(|a, b| tie_cmp(arena.get(a.1), arena.get(b.1)));
            }
            fallbacks += 1;
        });
        self.charge(n as u64, (8 - passes) as u64, fallbacks);
    }

    /// One software-write-combining pass scattering the 24-byte entries
    /// directly by the digit at `[tz, tz + bits)`.
    fn fused_entry_pass(&mut self, refs: &mut Vec<(u64, TupleRef)>, tz: u32, bits: u32) {
        let n = refs.len();
        let buckets = 1usize << bits;
        let mask = (buckets - 1) as u64;
        self.hist.clear();
        self.hist.resize(buckets, 0);
        for &(k, _) in refs.iter() {
            self.hist[((k >> tz) & mask) as usize] += 1;
        }
        let mut cursors = std::mem::take(&mut self.hist);
        let mut sum = 0u32;
        for c in cursors.iter_mut() {
            let h = *c;
            *c = sum;
            sum += h;
        }
        // The fill value is arbitrary (every stash slot is overwritten
        // before the swap); a real entry avoids a `Default` bound.
        let fill = refs[0];
        self.estash.clear();
        self.estash.resize(n, fill);
        self.estage.clear();
        self.estage.resize(buckets * ENTRY_BLOCK, fill);
        self.stage_len.clear();
        self.stage_len.resize(buckets, 0);
        {
            let stash = &mut self.estash[..n];
            let stage = &mut self.estage[..buckets * ENTRY_BLOCK];
            let stage_len = &mut self.stage_len[..buckets];
            for &e in refs.iter() {
                let d = ((e.0 >> tz) & mask) as usize;
                let b = d * ENTRY_BLOCK;
                let len = stage_len[d] as usize;
                stage[b + len] = e;
                if len + 1 == ENTRY_BLOCK {
                    let c = cursors[d] as usize;
                    stash[c..c + ENTRY_BLOCK].copy_from_slice(&stage[b..b + ENTRY_BLOCK]);
                    cursors[d] += ENTRY_BLOCK as u32;
                    stage_len[d] = 0;
                } else {
                    stage_len[d] = (len + 1) as u16;
                }
            }
            for (d, len) in stage_len.iter().enumerate() {
                let len = *len as usize;
                if len != 0 {
                    let c = cursors[d] as usize;
                    stash[c..c + len]
                        .copy_from_slice(&stage[d * ENTRY_BLOCK..d * ENTRY_BLOCK + len]);
                }
            }
        }
        self.hist = cursors;
        std::mem::swap(refs, &mut self.estash);
    }

    /// Compact-word passes over the low digits, then a final fused pass
    /// that gathers each 24-byte entry by the word's index bits and
    /// scatters it by the top digit in the same loop. Returns the number
    /// of scatter passes executed.
    fn word_passes_then_fused(
        &mut self,
        refs: &mut Vec<(u64, TupleRef)>,
        tz: u32,
        span: u32,
    ) -> u32 {
        self.words.clear();
        self.words.extend(
            refs.iter()
                .enumerate()
                .map(|(i, &(k, _))| ((k >> tz) & ((1u64 << span) - 1)) << 32 | i as u64),
        );
        // Same split as `planned_passes`: small fused top digit, the rest
        // spread evenly across word passes.
        let fused_bits = span.saturating_sub(MAX_WORD_BITS).clamp(4, 8).min(span - 1);
        let rest = span - fused_bits;
        let n_word_passes = rest.div_ceil(MAX_WORD_BITS);
        let word_digit = rest.div_ceil(n_word_passes);
        let mut shift = 32;
        let mut remaining = rest;
        while remaining > 0 {
            let bits = word_digit.min(remaining);
            self.word_pass(shift, bits);
            shift += bits;
            remaining -= bits;
        }
        let top_bits = span - (shift - 32);

        // Fused final pass. `base` keeps the entries in input order; the
        // word stream is already sorted on every lower digit, so a stable
        // scatter on the top digit finishes the key order.
        let n = refs.len();
        let base = std::mem::take(refs);
        let fill = base[0];
        let buckets = 1usize << top_bits;
        let mask = (buckets - 1) as u64;
        self.hist.clear();
        self.hist.resize(buckets, 0);
        for &w in &self.words {
            self.hist[((w >> shift) & mask) as usize] += 1;
        }
        let mut cursors = std::mem::take(&mut self.hist);
        let mut sum = 0u32;
        for c in cursors.iter_mut() {
            let h = *c;
            *c = sum;
            sum += h;
        }
        self.estash.clear();
        self.estash.resize(n, fill);
        self.estage.clear();
        self.estage.resize(buckets * ENTRY_BLOCK, fill);
        self.stage_len.clear();
        self.stage_len.resize(buckets, 0);
        {
            let stash = &mut self.estash[..n];
            let stage = &mut self.estage[..buckets * ENTRY_BLOCK];
            let stage_len = &mut self.stage_len[..buckets];
            for &w in &self.words {
                let d = ((w >> shift) & mask) as usize;
                let e = base[(w & 0xffff_ffff) as usize];
                let b = d * ENTRY_BLOCK;
                let len = stage_len[d] as usize;
                stage[b + len] = e;
                if len + 1 == ENTRY_BLOCK {
                    let c = cursors[d] as usize;
                    stash[c..c + ENTRY_BLOCK].copy_from_slice(&stage[b..b + ENTRY_BLOCK]);
                    cursors[d] += ENTRY_BLOCK as u32;
                    stage_len[d] = 0;
                } else {
                    stage_len[d] = (len + 1) as u16;
                }
            }
            for (d, len) in stage_len.iter().enumerate() {
                let len = *len as usize;
                if len != 0 {
                    let c = cursors[d] as usize;
                    stash[c..c + len]
                        .copy_from_slice(&stage[d * ENTRY_BLOCK..d * ENTRY_BLOCK + len]);
                }
            }
        }
        self.hist = cursors;
        *refs = std::mem::take(&mut self.estash);
        // The old entry buffer becomes the next sort's stash.
        self.estash = base;
        n_word_passes + 1
    }

    /// One software-write-combining pass over the packed words by the
    /// digit at `[shift, shift + bits)`.
    fn word_pass(&mut self, shift: u32, bits: u32) {
        let n = self.words.len();
        let buckets = 1usize << bits;
        let mask = (buckets - 1) as u64;
        self.hist.clear();
        self.hist.resize(buckets, 0);
        for &w in &self.words {
            self.hist[((w >> shift) & mask) as usize] += 1;
        }
        let mut cursors = std::mem::take(&mut self.hist);
        let mut sum = 0u32;
        for c in cursors.iter_mut() {
            let h = *c;
            *c = sum;
            sum += h;
        }
        self.wstash.clear();
        self.wstash.resize(n, 0);
        self.wstage.clear();
        self.wstage.resize(buckets * WORD_BLOCK, 0);
        self.stage_len.clear();
        self.stage_len.resize(buckets, 0);
        {
            let words = &self.words;
            let stash = &mut self.wstash[..n];
            let stage = &mut self.wstage[..buckets * WORD_BLOCK];
            let stage_len = &mut self.stage_len[..buckets];
            for &w in words.iter() {
                let d = ((w >> shift) & mask) as usize;
                let b = d * WORD_BLOCK;
                let len = stage_len[d] as usize;
                stage[b + len] = w;
                if len + 1 == WORD_BLOCK {
                    let c = cursors[d] as usize;
                    stash[c..c + WORD_BLOCK].copy_from_slice(&stage[b..b + WORD_BLOCK]);
                    cursors[d] += WORD_BLOCK as u32;
                    stage_len[d] = 0;
                } else {
                    stage_len[d] = (len + 1) as u16;
                }
            }
            for (d, len) in stage_len.iter().enumerate() {
                let len = *len as usize;
                if len != 0 {
                    let c = cursors[d] as usize;
                    stash[c..c + len]
                        .copy_from_slice(&stage[d * WORD_BLOCK..d * WORD_BLOCK + len]);
                }
            }
        }
        self.hist = cursors;
        std::mem::swap(&mut self.words, &mut self.wstash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::frame::{key_prefix, keyed_tuple};

    fn load(tuples: &[Vec<u8>]) -> (TupleArena, Vec<(u64, TupleRef)>) {
        let mut arena = TupleArena::new(64 * 1024);
        let refs = tuples
            .iter()
            .map(|t| (key_prefix(t), arena.append(t)))
            .collect();
        (arena, refs)
    }

    /// Radix threshold that sends every non-trivial batch in these tests
    /// through the radix plan.
    const RADIX: usize = 2;
    /// Radix threshold that keeps every batch on the comparison path.
    const COMPARISON: usize = usize::MAX;

    fn sorted_bytes(
        min_entries: usize,
        tuples: &[Vec<u8>],
        counters: &ClusterCounters,
    ) -> Vec<Vec<u8>> {
        let (arena, mut refs) = load(tuples);
        let mut s = TupleRadixSorter::with_counters(counters.clone()).with_min_entries(min_entries);
        s.sort(&arena, &mut refs);
        refs.iter().map(|&(_, r)| arena.get(r).to_vec()).collect()
    }

    #[test]
    fn radix_equals_comparison_equals_model() {
        let tuples: Vec<Vec<u8>> = (0..3000u64)
            .map(|i| {
                let vid = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 512;
                keyed_tuple(vid, &(3000 - i).to_le_bytes())
            })
            .collect();
        let mut model = tuples.clone();
        model.sort();
        let c = ClusterCounters::new();
        assert_eq!(sorted_bytes(RADIX, &tuples, &c), model);
        assert_eq!(sorted_bytes(COMPARISON, &tuples, &c), model);
    }

    #[test]
    fn counters_account_exactly() {
        // 2048 distinct vids spanning 15 varying bits, fed in descending
        // order so the presorted precheck cannot intervene: one 11-bit
        // word pass plus the 4-bit fused pass, no ties.
        let tuples: Vec<Vec<u8>> = (0..2048u64)
            .rev()
            .map(|i| keyed_tuple((i * 13) % 65536, b"p"))
            .collect();
        let c = ClusterCounters::new();
        let out = sorted_bytes(RADIX, &tuples, &c);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(c.radix_sort_entries(), 2048);
        assert_eq!(c.radix_passes_skipped(), (8 - planned_passes(15)) as u64);
        assert_eq!(c.radix_passes_skipped(), 6);
        assert_eq!(c.sort_comparison_fallbacks(), 0, "distinct vids: no ties");
    }

    #[test]
    fn wide_spans_use_one_word_pass_per_thirteen_bits() {
        assert_eq!(planned_passes(8), 1);
        assert_eq!(planned_passes(MAX_FUSED_BITS), 1);
        assert_eq!(planned_passes(12), 2);
        assert_eq!(planned_passes(20), 2);
        assert_eq!(planned_passes(21), 2);
        assert_eq!(planned_passes(22), 3);
        assert_eq!(planned_passes(32), 3);
    }

    #[test]
    fn comparison_mode_counts_one_fallback_and_no_radix() {
        let tuples: Vec<Vec<u8>> = (0..1000u64).rev().map(|i| keyed_tuple(i, b"")).collect();
        let c = ClusterCounters::new();
        sorted_bytes(COMPARISON, &tuples, &c);
        assert_eq!(c.radix_sort_entries(), 0);
        assert_eq!(c.radix_passes_skipped(), 0);
        assert_eq!(c.sort_comparison_fallbacks(), 1);
    }

    #[test]
    fn small_batches_fall_back_in_auto_mode() {
        // Default threshold: one entry short of the radix floor stays on
        // the comparison path.
        let tuples: Vec<Vec<u8>> = (0..(TUPLE_RADIX_MIN_ENTRIES as u64 - 1))
            .rev()
            .map(|i| keyed_tuple(i, b""))
            .collect();
        let (arena, mut refs) = load(&tuples);
        let c = ClusterCounters::new();
        let mut s = TupleRadixSorter::with_counters(c.clone());
        s.sort(&arena, &mut refs);
        assert!(refs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(c.radix_sort_entries(), 0);
        assert_eq!(c.sort_comparison_fallbacks(), 1);
    }

    #[test]
    fn presorted_batches_exit_after_the_precheck() {
        let tuples: Vec<Vec<u8>> = (0..5000u64).map(|i| keyed_tuple(i, b"v")).collect();
        let c = ClusterCounters::new();
        let out = sorted_bytes(RADIX, &tuples, &c);
        assert_eq!(out, tuples);
        assert_eq!(c.radix_sort_entries(), 5000);
        assert_eq!(c.radix_passes_skipped(), 8, "all naive passes avoided");
        assert_eq!(c.sort_comparison_fallbacks(), 0);
    }

    #[test]
    fn equal_prefix_ties_resolve_on_payload_bytes() {
        // One vid, many payloads: no prefix bit varies and the whole
        // batch is one tie group sorted by payload.
        let tuples: Vec<Vec<u8>> = (0..600u32)
            .rev()
            .map(|i| keyed_tuple(7, &i.to_be_bytes()))
            .collect();
        let mut model = tuples.clone();
        model.sort();
        let c = ClusterCounters::new();
        let out = sorted_bytes(RADIX, &tuples, &c);
        assert_eq!(out, model);
        assert_eq!(c.radix_passes_skipped(), 8);
        assert_eq!(c.sort_comparison_fallbacks(), 1);
    }

    #[test]
    fn short_tuples_with_colliding_padded_prefixes() {
        // "a" and "a\0" share a zero-padded prefix but differ as byte
        // strings; the span is the two varying bits of the first byte.
        let mut tuples: Vec<Vec<u8>> = Vec::new();
        for _ in 0..150 {
            tuples.push(b"a\x00".to_vec());
            tuples.push(b"a".to_vec());
            tuples.push(b"b".to_vec());
        }
        let mut model = tuples.clone();
        model.sort();
        let c = ClusterCounters::new();
        assert_eq!(sorted_bytes(RADIX, &tuples, &c), model);
        assert!(c.sort_comparison_fallbacks() >= 1, "padded-prefix tie group");
    }

    #[test]
    fn wide_span_batches_take_the_comparison_path() {
        // Keys varying across more than 32 bits exceed the compact-word
        // key field; the sorter must stay correct via the fallback.
        let tuples: Vec<Vec<u8>> = (0..700u64)
            .map(|i| keyed_tuple(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), b"w"))
            .collect();
        let mut model = tuples.clone();
        model.sort();
        let c = ClusterCounters::new();
        assert_eq!(sorted_bytes(RADIX, &tuples, &c), model);
        assert_eq!(c.radix_sort_entries(), 0);
        assert_eq!(c.sort_comparison_fallbacks(), 1);
    }

    #[test]
    fn scratch_buffers_recycle_across_batches() {
        let mut s = TupleRadixSorter::new().with_min_entries(RADIX);
        let mut caps = Vec::new();
        for round in 0..4 {
            let tuples: Vec<Vec<u8>> = (0..6000u64)
                .map(|i| keyed_tuple((i.wrapping_mul(31 + round)) % 50_000, b"r"))
                .collect();
            let (arena, mut refs) = load(&tuples);
            s.sort(&arena, &mut refs);
            assert!(refs
                .windows(2)
                .all(|w| w[0].0 < w[1].0
                    || (w[0].0 == w[1].0 && arena.get(w[0].1) <= arena.get(w[1].1))));
            caps.push((s.words.capacity(), s.estash.capacity()));
        }
        assert_eq!(caps[1], caps[2], "same-size batches must reuse buffers");
        assert_eq!(caps[2], caps[3], "same-size batches must reuse buffers");
    }

    #[test]
    fn tie_group_walk_finds_runs() {
        let mut entries: Vec<(u64, u32)> =
            vec![(1, 0), (1, 1), (2, 2), (3, 3), (3, 4), (3, 5), (4, 6)];
        let mut groups = Vec::new();
        for_each_tie_group(&mut entries, |g| groups.push((g[0].0, g.len())));
        assert_eq!(groups, vec![(1, 2), (3, 3)]);
        let mut none = vec![(1u64, 0u32), (2, 1)];
        let mut called = 0;
        for_each_tie_group(&mut none, |_| called += 1);
        assert_eq!(called, 0);
        let mut empty: Vec<(u64, u32)> = Vec::new();
        for_each_tie_group(&mut empty, |_| panic!("no groups in empty input"));
    }

    #[test]
    fn empty_and_single_are_noops() {
        let c = ClusterCounters::new();
        assert!(sorted_bytes(RADIX, &[], &c).is_empty());
        let one = vec![keyed_tuple(3, b"x")];
        assert_eq!(sorted_bytes(RADIX, &one, &c), one);
        assert_eq!(c.radix_sort_entries(), 0);
        assert_eq!(c.sort_comparison_fallbacks(), 0);
    }
}
