//! `probe_sparse`: the left-outer probe path at paper scale (§7.5).
//!
//! A 1M-vertex B-tree `Vertex` partition is probed at 1%, 10%, and 50%
//! live-vertex fractions three ways:
//!
//! * `foj_full_scan`      — the full-outer baseline: scan all 1M rows.
//! * `loj_probe_search`   — the old left-outer path: one root-to-leaf
//!                          descent per live vid (`BTree::search`).
//! * `loj_probe_cursor`   — the new path: one [`ProbeCursor`] answering
//!                          the ascending live-vid sequence from its
//!                          pinned root-to-leaf path, descending only
//!                          from the lowest pinned page covering a key.
//!
//! Before timing, `pin_study` prints the deterministic page-pin counts
//! for search vs cursor at each fraction (the ≥2× reduction acceptance
//! metric is a counter fact, not a timing fact). The LSM section builds
//! three disjoint-range disk components and shows `bloom_negatives`
//! climbing while the multi-component cursor stays correct.

use criterion::{black_box, Criterion};
use pregelix::common::stats::{ClusterCounters, StatsSnapshot};
use pregelix::storage::btree::BTree;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::lsm::LsmBTree;

const N: u64 = 1_000_000;
const VALUE_LEN: usize = 24;
/// live fraction = 1 / stride
const STRIDES: [(u64, &str); 3] = [(100, "1pct"), (10, "10pct"), (2, "50pct")];

fn make_cache(pages: usize) -> (BufferCache, ClusterCounters, TempDir) {
    let dir = TempDir::new("probe-sparse").unwrap();
    let counters = ClusterCounters::new();
    let fm = FileManager::new(dir.path(), 4096, counters.clone()).unwrap();
    (BufferCache::new(fm, pages), counters, dir)
}

fn vertex_tree() -> (BTree, ClusterCounters, TempDir) {
    // 16K pages × 4KiB comfortably holds the ~33MB tree: the study
    // measures pin traffic and CPU, not disk.
    let (cache, counters, dir) = make_cache(16_384);
    let mut tree = BTree::create(cache).unwrap();
    tree.bulk_load(
        (0..N).map(|v| (v.to_be_bytes().to_vec(), vec![7u8; VALUE_LEN])),
        0.9,
    )
    .unwrap();
    (tree, counters, dir)
}

fn pins(s: &StatsSnapshot) -> u64 {
    s.cache_hits + s.cache_misses
}

/// The acceptance metric, printed once: total buffer-cache pins for a full
/// pass of live-vid probes, search vs cursor, per live fraction.
fn pin_study(tree: &BTree, counters: &ClusterCounters) {
    println!("probe_sparse pin study: {N} vertices, height {}", tree.height());
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>10} {:>10} {:>8}",
        "live", "probes", "search_pins", "cursor_pins", "leaf_hits", "redescent", "ratio"
    );
    for (stride, label) in STRIDES {
        let probes = N / stride;
        let before = counters.snapshot();
        for vid in (0..N).step_by(stride as usize) {
            black_box(tree.search(&vid.to_be_bytes()).unwrap());
        }
        let mid = counters.snapshot();
        let mut cursor = tree.probe_cursor();
        for vid in (0..N).step_by(stride as usize) {
            black_box(cursor.probe(&vid.to_be_bytes()).unwrap());
        }
        let after = counters.snapshot();
        let search = mid.delta_since(&before);
        let cursored = after.delta_since(&mid);
        println!(
            "{:<8} {:>10} {:>14} {:>14} {:>10} {:>10} {:>7.2}x",
            label,
            probes,
            pins(&search),
            pins(&cursored),
            cursored.probe_leaf_hits,
            cursored.probe_redescents,
            pins(&search) as f64 / pins(&cursored).max(1) as f64,
        );
    }
}

/// Three disjoint-range disk components; probes over the full key range hit
/// exactly one component each, so two of three blooms reject every probe.
fn lsm_three_components() -> (LsmBTree, ClusterCounters, TempDir) {
    let (cache, counters, dir) = make_cache(16_384);
    let mut lsm = LsmBTree::create(cache, 1 << 30, 64);
    let third = N / 3;
    for lo in [0, third, 2 * third] {
        for v in lo..(lo + third) {
            lsm.upsert(&v.to_be_bytes(), &[7u8; VALUE_LEN]).unwrap();
        }
        lsm.flush_mem().unwrap();
    }
    (lsm, counters, dir)
}

fn bloom_study(lsm: &LsmBTree, counters: &ClusterCounters) {
    let before = counters.snapshot();
    let mut cursor = lsm.probe_cursor();
    let mut found = 0u64;
    for vid in (0..N).step_by(10) {
        if cursor.probe(&vid.to_be_bytes()).unwrap().is_some() {
            found += 1;
        }
    }
    let d = counters.snapshot().delta_since(&before);
    println!(
        "lsm bloom study: components={} probes={} found={found} \
         bloom_negatives={} bloom_false_positives={}",
        lsm.disk_components(),
        N / 10,
        d.bloom_negatives,
        d.bloom_false_positives,
    );
}

fn bench_probe_sparse(c: &mut Criterion) {
    let (tree, counters, _dir) = vertex_tree();
    pin_study(&tree, &counters);

    let mut group = c.benchmark_group("probe_sparse");
    group.sample_size(10);

    group.bench_function("foj_full_scan_1m", |b| {
        b.iter(|| {
            let mut scan = tree.scan().unwrap();
            let mut n = 0u64;
            while scan.next_entry().unwrap().is_some() {
                n += 1;
            }
            black_box(n);
        });
    });

    for (stride, label) in STRIDES {
        group.bench_function(format!("loj_probe_search_{label}"), |b| {
            b.iter(|| {
                let mut n = 0u64;
                for vid in (0..N).step_by(stride as usize) {
                    if tree.search(&vid.to_be_bytes()).unwrap().is_some() {
                        n += 1;
                    }
                }
                black_box(n);
            });
        });
        group.bench_function(format!("loj_probe_cursor_{label}"), |b| {
            b.iter(|| {
                let mut cursor = tree.probe_cursor();
                let mut n = 0u64;
                for vid in (0..N).step_by(stride as usize) {
                    if cursor.probe(&vid.to_be_bytes()).unwrap().is_some() {
                        n += 1;
                    }
                }
                black_box(n);
            });
        });
    }
    group.finish();

    let (lsm, counters, _dir2) = lsm_three_components();
    bloom_study(&lsm, &counters);
    let mut group = c.benchmark_group("probe_sparse_lsm");
    group.sample_size(10);
    group.bench_function("lsm_probe_cursor_3comp_10pct", |b| {
        b.iter(|| {
            let mut cursor = lsm.probe_cursor();
            let mut n = 0u64;
            for vid in (0..N).step_by(10) {
                if cursor.probe(&vid.to_be_bytes()).unwrap().is_some() {
                    n += 1;
                }
            }
            black_box(n);
        });
    });
    group.bench_function("lsm_search_3comp_10pct", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for vid in (0..N).step_by(10) {
                if lsm.search(&vid.to_be_bytes()).unwrap().is_some() {
                    n += 1;
                }
            }
            black_box(n);
        });
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_probe_sparse(&mut c);
    c.final_summary();
}
