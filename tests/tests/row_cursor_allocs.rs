//! The fused scan/compute/update operator allocates nothing per vertex.
//!
//! PageRank over a B-tree under the full-outer join reads every `Vertex` row
//! through the row cursor into buffers the compute task owns and writes the
//! new rank back in the row's slot. This suite has its own counting global
//! allocator and is its only test, so the counts belong to the job: doubling
//! the graph may add heap allocations for the messages it doubles (sort
//! arenas, frames, run buffers — all amortised over many tuples) but not one
//! per `compute` call. Before the row cursor a call cost about eight. The
//! same allocator shows that the fold table is allocated per job and
//! partition, not per task, and shared by both ends of the message edge,
//! that a run reader past its first frame decodes every further one into
//! the buffers it already has, that a row cursor's sorted seeks past its
//! first allocate nothing, that a checkpoint write streams its rows from
//! the row cursor without an allocation per row, and that a receiver drains
//! its channel without an allocation per frame.

use pregelix::graphgen::webmap;
use pregelix::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly `WATCHED_SIZE` bytes (0 = none watched).
static WATCHED_SIZE: AtomicU64 = AtomicU64::new(0);
static WATCHED_HITS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size as u64 == WATCHED_SIZE.load(Ordering::Relaxed) {
        WATCHED_HITS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are statistics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same pointer, layout and size as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations and `compute` calls of the run phase alone (the load
/// before it allocates per input record by design).
fn run_phase(records: Vec<(Vid, Vec<(Vid, f64)>)>, iterations: u64) -> (u64, u64) {
    run_phase_on(ClusterConfig::new(2, 32 << 20).sequential_timed(), records, iterations)
}

fn run_phase_on(
    config: ClusterConfig,
    records: Vec<(Vid, Vec<(Vid, f64)>)>,
    iterations: u64,
) -> (u64, u64) {
    let cluster = Cluster::new(config).unwrap();
    let job = PregelixJob::new(format!("allocs-{}-{iterations}", records.len()));
    let program = Arc::new(PageRank::new(iterations));
    let mut graph = LoadedGraph::load_from_records(&cluster, &program, &job, records).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = graph.run(&cluster, &program, &job).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.supersteps, iterations + 1);
    assert!(matches!(summary.sender_fold, SenderFold::Direct { .. }));
    (allocations, summary.job_stats.compute_calls)
}

#[test]
fn doubling_the_graph_adds_no_allocation_per_compute_call() {
    let (small_allocs, small_calls) = run_phase(webmap::webmap(14, 6.0, 7), 3);
    let (large_allocs, large_calls) = run_phase(webmap::webmap(15, 6.0, 7), 3);
    assert_eq!((small_calls, large_calls), (4 << 14, 4 << 15));
    let per_call =
        large_allocs.saturating_sub(small_allocs) as f64 / (large_calls - small_calls) as f64;
    assert!(
        per_call < 0.5,
        "{small_allocs} allocations for {small_calls} compute calls, {large_allocs} for \
         {large_calls}: {per_call:.2} per extra call"
    );

    // The fold table is allocated once per partition and job, not once per
    // task, and both ends of the message edge share it: an isolated vertex
    // 20 000 makes the table's slot array 20 001 × 8 bytes, a size nothing
    // else asks for, and the allocator sees it twice (two partitions)
    // whether the job runs four supersteps or eight. On threads too, where
    // `msgwrite[p]` finds the table pooled only because `compute[p]` puts
    // it back before it closes the message edge.
    let mut records = webmap::webmap(14, 6.0, 7);
    records.push((20_000, Vec::new()));
    WATCHED_SIZE.store(20_001 * 8, Ordering::Relaxed);
    for iterations in [3, 7] {
        let before = WATCHED_HITS.load(Ordering::Relaxed);
        run_phase(records.clone(), iterations);
        let tables = WATCHED_HITS.load(Ordering::Relaxed) - before;
        assert_eq!(tables, 2, "{} supersteps", iterations + 1);
    }
    for iterations in [3, 7] {
        let before = WATCHED_HITS.load(Ordering::Relaxed);
        run_phase_on(ClusterConfig::new(2, 32 << 20), records.clone(), iterations);
        let tables = WATCHED_HITS.load(Ordering::Relaxed) - before;
        assert!(tables <= 2, "{tables} tables in {} threaded supersteps", iterations + 1);
    }
    WATCHED_SIZE.store(0, Ordering::Relaxed);

    // A run reader — every merge input, every `Msg` partition, every fold
    // window read back — allocates for its first frame and never again, the
    // end of the run included: each record of a file lands in the reader's
    // one record buffer and is decoded into its one frame. An in-memory run
    // is its frames, lent in place: opening and reading it allocates
    // nothing at all. 64 frames, on disk and in memory.
    use pregelix::common::stats::ClusterCounters;
    use pregelix::storage::file::TempDir;
    use pregelix::storage::runfile::RunWriter;
    let dir = TempDir::new("reader-allocs").unwrap();
    for threshold in [0, usize::MAX] {
        let path = dir.path().join(format!("frames-{threshold}.run"));
        let mut writer = RunWriter::create_buffered(&path, ClusterCounters::new(), threshold);
        let tuples = 64 * ((16 << 10) / 20);
        for vid in 0..tuples as u64 {
            let mut tuple = vid.to_be_bytes().to_vec();
            tuple.extend_from_slice(&[0xAB; 12]);
            writer.write_tuple(&tuple).unwrap();
        }
        let run = writer.finish().unwrap();
        assert_eq!((run.frames(), run.in_memory()), (64, threshold != 0));
        let counters = ClusterCounters::new();
        let opened = ALLOCATIONS.load(Ordering::Relaxed);
        let mut reader = run.open(counters).unwrap();
        assert!(reader.advance().unwrap());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        if run.in_memory() {
            assert_eq!(before, opened, "opening an in-memory run and lending its first tuple");
        }
        let mut read = 1;
        while reader.advance().unwrap() {
            read += 1;
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(read, tuples);
        assert_eq!(
            allocations,
            0,
            "63 frames after the first, in memory: {}",
            threshold != 0
        );
    }

    // A sorted sparse seek — the left-outer join's probe — allocates nothing
    // once a row cursor's first seek has sized its buffers: the fences of the
    // pinned root-to-leaf path live in buffers reused from seek to seek. Every
    // 37th key of 20 000 on 256-byte pages lands on a new leaf, every third
    // or so under a new parent.
    use pregelix::storage::btree::BTree;
    use pregelix::storage::cache::BufferCache;
    use pregelix::storage::file::FileManager;
    let fm = FileManager::new(dir.path().join("seeks"), 256, ClusterCounters::new()).unwrap();
    let mut tree = BTree::create(BufferCache::new(fm, 4096)).unwrap();
    let rows = (0..20_000u64).map(|v| (v.to_be_bytes().to_vec(), v.to_le_bytes().to_vec()));
    tree.bulk_load(rows, 0.9).unwrap();
    assert!(tree.height() >= 3, "height {}", tree.height());
    let mut cursor = tree.cursor();
    assert!(cursor.seek(&0u64.to_be_bytes()).unwrap());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut found = 0;
    for v in (37..20_000u64).step_by(37) {
        found += usize::from(cursor.seek(&v.to_be_bytes()).unwrap());
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(found, 20_000 / 37);
    assert_eq!(allocations, 0, "{found} sorted sparse seeks");

    // A checkpoint write encodes each `Vertex` row straight from the row
    // cursor's buffers into the partition's entry stream, so doubling the
    // graph adds no allocation per row (a copy of each row as a key and a
    // value vector cost two).
    let (small_allocs, small_rows) = checkpoint_write(webmap::webmap(14, 6.0, 7));
    let (large_allocs, large_rows) = checkpoint_write(webmap::webmap(15, 6.0, 7));
    assert_eq!((small_rows, large_rows), (1 << 14, 1 << 15));
    let per_row =
        large_allocs.saturating_sub(small_allocs) as f64 / (large_rows - small_rows) as f64;
    assert!(
        per_row < 0.5,
        "{small_allocs} allocations for {small_rows} rows, {large_allocs} for {large_rows}: \
         {per_row:.2} per extra row"
    );

    // A receiver drains its channel without an allocation per frame: four
    // senders share it, and taking 2 048 frames off it costs what taking
    // 1 024 does, through `PartitionReceiver` and through `Inbound::queues`.
    // The queues are the one thing that grows, and they are the output:
    // four vectors of as many frames, whose doubling growth is reproduced
    // and subtracted.
    for queued in [false, true] {
        let counts = [256, 512].map(|per_source| receive_side(per_source, queued));
        assert_eq!(counts[0], counts[1], "1 024 and 2 048 frames, queued: {queued}");
    }
}

/// Heap allocations of one receiver draining `per_source` one-tuple frames
/// from each of four senders, queued by source (`Inbound::queues`, less
/// the queues' own growth) or tuple by tuple (`PartitionReceiver`).
fn receive_side(per_source: usize, queued: bool) -> u64 {
    use pregelix::common::frame::{keyed_tuple, Frame, SharedFrame};
    use pregelix::dataflow::connector::PartitionReceiver;
    use pregelix::dataflow::graph::Inbound;
    use pregelix::dataflow::transport::{reliable_channels, ReliableSender};
    let cluster = Cluster::new(ClusterConfig::new(1, 32 << 20).sequential_timed()).unwrap();
    let w = cluster.worker(0);
    let mut frame = Frame::with_capacity(64);
    assert!(frame.try_append(&keyed_tuple(7, b"x")));
    let frame = frame.freeze_standalone();
    let (txs, mut rxs) = reliable_channels(4, 1, cluster.channel_capacity());
    for outs in txs {
        let mut tx = ReliableSender::new(outs, "allocs", 0, 0, vec![0], w.counters().clone());
        for _ in 0..per_source {
            tx.send_shared(0, frame.clone()).unwrap();
        }
        tx.finish().unwrap();
    }
    let rx = rxs.remove(0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    if !queued {
        let mut rx = PartitionReceiver::new(rx, w.counters().clone());
        let mut tuples = 0;
        while rx.next_tuple().unwrap().is_some() {
            tuples += 1;
        }
        assert_eq!(tuples, 4 * per_source);
        return ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    let queues = Inbound::Partitioning(rx).queues(&w).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(queues.iter().all(|q| q.len() == per_source));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut growth: Vec<Vec<SharedFrame>> = vec![Vec::new(); 4];
    for q in &mut growth {
        for _ in 0..per_source {
            q.push(frame.clone());
        }
    }
    std::hint::black_box(&growth);
    allocations - (ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Heap allocations of one checkpoint write of freshly loaded `records`
/// (two partitions), and the rows it wrote.
fn checkpoint_write(records: Vec<(Vid, Vec<(Vid, f64)>)>) -> (u64, u64) {
    use pregelix::core::checkpoint::write_checkpoint;
    use pregelix::core::load::load_partitions;
    let cluster = Cluster::new(ClusterConfig::new(2, 32 << 20).sequential_timed()).unwrap();
    let job = PregelixJob::new(format!("ckpt-allocs-{}", records.len()));
    let program = Arc::new(PageRank::new(3));
    let sticky = [0, 1];
    let (partitions, rows, _) =
        load_partitions(&cluster, &program, &job, &sticky, Some(records)).unwrap();
    let gs = GlobalState::initial(rows, Vec::new());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    write_checkpoint(&cluster, &job, &partitions, &sticky, &gs).unwrap();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, rows)
}
