//! The fused scan/compute/update operator allocates nothing per vertex.
//!
//! PageRank over a B-tree under the full-outer join reads every `Vertex` row
//! through the row cursor into buffers the compute task owns and writes the
//! new rank back in the row's slot. This suite has its own counting global
//! allocator and is its only test, so the counts belong to the job: doubling
//! the graph may add heap allocations for the messages it doubles (sort
//! arenas, frames, run buffers — all amortised over many tuples) but not one
//! per `compute` call. Before the row cursor a call cost about eight.

use pregelix::graphgen::webmap;
use pregelix::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same pointer, layout and size as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations and `compute` calls of the run phase alone (the load
/// before it allocates per input record by design).
fn run_phase(scale: u32) -> (u64, u64) {
    let records = webmap::webmap(scale, 6.0, 7);
    let cluster = Cluster::new(ClusterConfig::new(2, 32 << 20).sequential_timed()).unwrap();
    let job = PregelixJob::new(format!("allocs-{scale}"));
    let program = Arc::new(PageRank::new(3));
    let mut graph = LoadedGraph::load_from_records(&cluster, &program, &job, records).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = graph.run(&cluster, &program, &job).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.supersteps, 4);
    (allocations, summary.job_stats.compute_calls)
}

#[test]
fn doubling_the_graph_adds_no_allocation_per_compute_call() {
    let (small_allocs, small_calls) = run_phase(14);
    let (large_allocs, large_calls) = run_phase(15);
    assert_eq!((small_calls, large_calls), (4 << 14, 4 << 15));
    let per_call =
        large_allocs.saturating_sub(small_allocs) as f64 / (large_calls - small_calls) as f64;
    assert!(
        per_call < 0.5,
        "{small_allocs} allocations for {small_calls} compute calls, {large_allocs} for \
         {large_calls}: {per_call:.2} per extra call"
    );
}
