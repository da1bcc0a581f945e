//! `probe_sparse`: the left-outer probe path at paper scale (§7.5).
//!
//! A 1M-vertex B-tree `Vertex` partition is probed at 1%, 10%, and 50%
//! live-vertex fractions three ways:
//!
//! * `foj_full_scan`      — the full-outer baseline: scan all 1M rows.
//! * `loj_probe_search`   — the old left-outer path: one root-to-leaf
//!                          descent per live vid (`BTree::search`).
//! * `loj_probe_cursor`   — the new path: one row cursor `seek`ing the
//!                          ascending live-vid sequence from its pinned
//!                          root-to-leaf path, descending only from the
//!                          lowest pinned page covering a key.
//!
//! Before timing, `pin_study` prints the deterministic page-pin counts
//! for search vs cursor at each fraction (the ≥2× reduction acceptance
//! metric is a counter fact, not a timing fact).

use criterion::{black_box, Criterion};
use pregelix::common::stats::{ClusterCounters, StatsSnapshot};
use pregelix::storage::btree::BTree;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};

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
fn pin_study(tree: &mut BTree, counters: &ClusterCounters) {
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
        let mut cursor = tree.cursor();
        for vid in (0..N).step_by(stride as usize) {
            black_box(cursor.seek(&vid.to_be_bytes()).unwrap());
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

fn bench_probe_sparse(c: &mut Criterion) {
    let (mut tree, counters, _dir) = vertex_tree();
    pin_study(&mut tree, &counters);

    let mut group = c.benchmark_group("probe_sparse");
    group.sample_size(10);

    group.bench_function("foj_full_scan_1m", |b| {
        b.iter(|| {
            let mut cursor = tree.cursor();
            let mut n = 0u64;
            while cursor.next().unwrap() {
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
                let mut cursor = tree.cursor();
                let mut n = 0u64;
                for vid in (0..N).step_by(stride as usize) {
                    n += u64::from(cursor.seek(&vid.to_be_bytes()).unwrap());
                }
                black_box(n);
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_probe_sparse(&mut c);
    c.final_summary();
}
