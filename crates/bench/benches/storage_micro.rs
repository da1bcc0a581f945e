//! Criterion micro-benchmarks for the storage and dataflow primitives
//! that the superstep plan is built from: B-tree point reads and writes at
//! a cursor and scans,
//! external sort with combining, frame encode/decode, the arena-backed
//! message sort hot path (`sort_1m_msgs`), and striped buffer-cache
//! contention (`cache_concurrent_probe`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pregelix::common::frame::{keyed_tuple, Frame};
use pregelix::common::stats::ClusterCounters;
use pregelix::storage::btree::BTree;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::runfile::{RunHandle, RunReader, RunWriter};
use pregelix::storage::sort::{CombineFn, ExternalSorter};
use rand::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn make_cache(pages: usize) -> (BufferCache, TempDir) {
    let dir = TempDir::new("bench").unwrap();
    let fm = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();
    (BufferCache::new(fm, pages), dir)
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(20);

    group.bench_function("bulk_load_100k", |b| {
        b.iter_batched(
            || make_cache(4096),
            |(cache, _dir)| {
                let mut t = BTree::create(cache).unwrap();
                t.bulk_load(
                    (0..100_000u64).map(|v| (v.to_be_bytes().to_vec(), vec![7u8; 24])),
                    0.9,
                )
                .unwrap();
                black_box(t.height());
            },
            BatchSize::LargeInput,
        );
    });

    let (cache, _dir) = make_cache(4096);
    let mut tree = BTree::create(cache).unwrap();
    tree.bulk_load(
        (0..100_000u64).map(|v| (v.to_be_bytes().to_vec(), vec![7u8; 24])),
        0.9,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    // A point read or write is a fresh cursor's seek: one descent.
    group.bench_function("point_search_hot", |b| {
        b.iter(|| {
            let key = rng.gen_range(0..100_000u64).to_be_bytes();
            let mut cursor = tree.cursor();
            black_box(cursor.seek(&key).unwrap());
        });
    });
    group.bench_function("in_place_update", |b| {
        b.iter(|| {
            let key = rng.gen_range(0..100_000u64).to_be_bytes();
            let mut cursor = tree.cursor();
            assert!(cursor.seek(&key).unwrap());
            cursor.write(&[9u8; 24]).unwrap();
        });
    });
    group.bench_function("full_scan_100k", |b| {
        b.iter(|| {
            let mut cursor = tree.cursor();
            let mut n = 0u64;
            while cursor.next().unwrap() {
                n += 1;
            }
            black_box(n);
        });
    });
    group.finish();
}

fn bench_sort_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("groupby");
    group.sample_size(15);
    let dir = TempDir::new("bench-gb").unwrap();
    let fm = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();

    let mut tuples = Vec::with_capacity(100_000);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..100_000 {
        tuples.push(keyed_tuple(rng.gen_range(0..10_000u64), &1.0f64.to_le_bytes()));
    }

    group.bench_function("sort_100k_msgs_10k_groups", |b| {
        b.iter(|| {
            let mut gb =
                ExternalSorter::new(fm.clone(), "bench", 1 << 20).with_combiner(sum_combiner());
            for t in &tuples {
                gb.add(t).unwrap();
            }
            let mut stream = gb.finish().unwrap();
            let mut n = 0;
            while stream.next_tuple().unwrap().is_some() {
                n += 1;
            }
            black_box(n);
        });
    });

    group.bench_function("external_sort_spilling_100k", |b| {
        b.iter(|| {
            let mut s = ExternalSorter::new(fm.clone(), "bench-sort", 64 << 10);
            for t in &tuples {
                s.add(t).unwrap();
            }
            let mut stream = s.finish().unwrap();
            let mut n = 0;
            while stream.next_tuple().unwrap().is_some() {
                n += 1;
            }
            black_box(n);
        });
    });
    group.finish();
}

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let tuples: Vec<Vec<u8>> = (0..1000u64).map(|v| keyed_tuple(v, &[3u8; 24])).collect();
    group.bench_function("append_1k_tuples", |b| {
        b.iter(|| {
            let mut f = Frame::with_capacity(64 << 10);
            for t in &tuples {
                f.try_append(t);
            }
            black_box(f.len());
        });
    });
    let mut f = Frame::with_capacity(64 << 10);
    for t in &tuples {
        f.try_append(t);
    }
    group.bench_function("serialize_roundtrip", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            f.serialize(&mut out);
            let mut slice = &out[..];
            black_box(Frame::deserialize(&mut slice).unwrap().len());
        });
    });
    group.finish();
}

// ----------------------------------------------------------------------
// Baseline sorter for before/after comparison: a faithful port of the
// pre-arena implementation — owned `Vec<Vec<u8>>` buffer, one heap
// allocation per added tuple, `BinaryHeap<Reverse<(Vec<u8>, usize)>>`
// merge. Kept in the bench (not the library) so the arena sorter's win
// stays a reproducible number.
// ----------------------------------------------------------------------

const VEC_MEMORY_SOURCE: usize = usize::MAX;

struct VecSorter {
    fm: FileManager,
    label: String,
    budget_bytes: usize,
    buffer: Vec<Vec<u8>>,
    buffer_bytes: usize,
    runs: Vec<RunHandle>,
    combiner: Option<CombineFn>,
}

impl VecSorter {
    fn new(fm: FileManager, label: &str, budget_bytes: usize) -> Self {
        VecSorter {
            fm,
            label: label.to_string(),
            budget_bytes: budget_bytes.max(1024),
            buffer: Vec::new(),
            buffer_bytes: 0,
            runs: Vec::new(),
            combiner: None,
        }
    }

    fn with_combiner(mut self, combiner: CombineFn) -> Self {
        self.combiner = Some(combiner);
        self
    }

    fn add(&mut self, tuple: Vec<u8>) {
        // 24 ≈ Vec header overhead, matching the old budget accounting.
        self.buffer_bytes += tuple.len() + 24;
        self.buffer.push(tuple);
        if self.buffer_bytes > self.budget_bytes {
            self.spill();
        }
    }

    fn same_key(a: &[u8], b: &[u8]) -> bool {
        a.len() >= 8 && b.len() >= 8 && a[..8] == b[..8]
    }

    fn sorted_combined_buffer(&mut self) -> Vec<Vec<u8>> {
        self.buffer.sort_unstable();
        let buffer = std::mem::take(&mut self.buffer);
        self.buffer_bytes = 0;
        match &mut self.combiner {
            None => buffer,
            Some(comb) => {
                let mut out: Vec<Vec<u8>> = Vec::new();
                for t in buffer {
                    match out.last_mut() {
                        Some(prev) if Self::same_key(prev, &t) => comb(prev, &t),
                        _ => out.push(t),
                    }
                }
                out
            }
        }
    }

    fn spill(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let tuples = self.sorted_combined_buffer();
        let path = self.fm.temp_file_path(&self.label);
        let mut w = RunWriter::create(path, self.fm.counters().clone()).unwrap();
        for t in &tuples {
            w.write_tuple(t).unwrap();
        }
        self.runs.push(w.finish().unwrap());
    }

    fn finish(mut self) -> VecSortedStream {
        let memory = self.sorted_combined_buffer();
        let mut readers = Vec::new();
        for r in &self.runs {
            readers.push(r.open(self.fm.counters().clone()).unwrap());
        }
        let mut heap = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(t) = r.next_tuple().unwrap() {
                heap.push(Reverse((t, i)));
            }
        }
        let mut s = VecSortedStream {
            memory,
            memory_idx: 0,
            readers,
            heap,
            runs: std::mem::take(&mut self.runs),
            combiner: self.combiner.take(),
            pending: None,
        };
        if !s.memory.is_empty() {
            s.heap.push(Reverse((s.memory[0].clone(), VEC_MEMORY_SOURCE)));
            s.memory_idx = 1;
        }
        s
    }
}

struct VecSortedStream {
    memory: Vec<Vec<u8>>,
    memory_idx: usize,
    readers: Vec<RunReader>,
    heap: BinaryHeap<Reverse<(Vec<u8>, usize)>>,
    runs: Vec<RunHandle>,
    combiner: Option<CombineFn>,
    pending: Option<Vec<u8>>,
}

impl VecSortedStream {
    fn refill(&mut self, source: usize) {
        if source == VEC_MEMORY_SOURCE {
            if self.memory_idx < self.memory.len() {
                let t = std::mem::take(&mut self.memory[self.memory_idx]);
                self.memory_idx += 1;
                self.heap.push(Reverse((t, VEC_MEMORY_SOURCE)));
            }
        } else if let Some(t) = self.readers[source].next_tuple().unwrap() {
            self.heap.push(Reverse((t, source)));
        }
    }

    fn next_tuple(&mut self) -> Option<Vec<u8>> {
        loop {
            let Some(Reverse((t, src))) = self.heap.pop() else {
                return self.pending.take();
            };
            self.refill(src);
            match (&mut self.pending, &mut self.combiner) {
                (None, _) => self.pending = Some(t),
                (Some(p), Some(c)) if VecSorter::same_key(p, &t) => c(p, &t),
                (Some(_), _) => {
                    let done = self.pending.replace(t);
                    return done;
                }
            }
        }
    }
}

impl Drop for VecSortedStream {
    fn drop(&mut self) {
        for r in self.runs.drain(..) {
            let _ = r.delete();
        }
    }
}

fn sum_combiner() -> CombineFn {
    Box::new(|acc: &mut Vec<u8>, t: &[u8]| {
        let pa = f64::from_le_bytes(acc[8..16].try_into().unwrap());
        let pb = f64::from_le_bytes(t[8..16].try_into().unwrap());
        acc[8..16].copy_from_slice(&(pa + pb).to_le_bytes());
    })
}

/// Sort + combine 1M 16-byte messages, comparing the arena sorter
/// (`arena_*`) with the old per-tuple-`Vec` implementation
/// (`vec_baseline_*`), both fully in memory and with forced spills, plus
/// the arena sorter on presorted input.
fn bench_sort_1m_msgs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_1m_msgs");
    group.sample_size(10);
    let dir = TempDir::new("bench-1m").unwrap();
    let fm = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();

    let mut rng = StdRng::seed_from_u64(42);
    let tuples: Vec<Vec<u8>> = (0..1_000_000)
        .map(|_| keyed_tuple(rng.gen_range(0..1u64 << 20), &1.0f64.to_le_bytes()))
        .collect();

    let run_external = |budget: usize, input: &[Vec<u8>]| {
        let mut s =
            ExternalSorter::new(fm.clone(), "bench-1m-a", budget).with_combiner(sum_combiner());
        for t in input {
            s.add(t).unwrap();
        }
        let mut stream = s.finish().unwrap();
        let mut n = 0u64;
        while stream.next_tuple().unwrap().is_some() {
            n += 1;
        }
        black_box(n);
    };

    // (variant, budget): 1 GiB keeps everything in memory; 8 MiB forces
    // several spilled runs for ~15 MiB of input.
    for (variant, budget) in [("in_memory", 1usize << 30), ("spilling", 8 << 20)] {
        group.bench_function(format!("arena_{variant}"), |b| {
            b.iter(|| run_external(budget, &tuples));
        });
        group.bench_function(format!("vec_baseline_{variant}"), |b| {
            b.iter(|| {
                let mut s =
                    VecSorter::new(fm.clone(), "bench-1m-v", budget).with_combiner(sum_combiner());
                for t in &tuples {
                    s.add(t.clone());
                }
                let mut stream = s.finish();
                let mut n = 0u64;
                while stream.next_tuple().is_some() {
                    n += 1;
                }
                black_box(n);
            });
        });
    }

    // Presorted input: the comparison sort's best case.
    let mut presorted = tuples;
    presorted.sort_unstable();
    group.bench_function("arena_presorted", |b| {
        b.iter(|| run_external(1 << 30, &presorted));
    });
    group.finish();
}

/// Striped vs. single-mutex buffer cache under multi-threaded pinning of a
/// hot page set. On a single-core host the two configurations tie (striping
/// must not add overhead); the contention win needs real parallelism.
fn bench_cache_concurrent_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_concurrent_probe");
    group.sample_size(10);
    const THREADS: u64 = 8;
    const PINS_PER_THREAD: u64 = 20_000;
    const HOT_PAGES: u64 = 200;

    for stripes in [1usize, 8] {
        let dir = TempDir::new("bench-cache").unwrap();
        let fm = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();
        let cache = BufferCache::with_stripes(fm.clone(), 256, stripes);
        let file = fm.create().unwrap();
        for _ in 0..HOT_PAGES {
            let (_pid, guard) = cache.new_page(file).unwrap();
            guard.write()[0] = 1;
        }
        group.bench_function(format!("8_threads_{stripes}_stripes"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let cache = cache.clone();
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(t + 7);
                            for _ in 0..PINS_PER_THREAD {
                                let page = rng.gen_range(0..HOT_PAGES);
                                let guard = cache.pin(file, page).unwrap();
                                black_box(guard.read()[0]);
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_btree,
    bench_sort_groupby,
    bench_frames,
    bench_sort_1m_msgs,
    bench_cache_concurrent_probe
);
criterion_main!(benches);
