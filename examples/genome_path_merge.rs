//! The Genomix scenario (§6): De-Bruijn-style path merging with graph
//! mutations, on the B-tree vertex store.
//!
//! ```text
//! cargo run --release --example genome_path_merge
//! ```
//!
//! The input imitates a cleaned De Bruijn graph: many disjoint simple
//! paths ("contigs-to-be") whose vertices carry sequence fragments. The
//! `PathMerge` program repeatedly merges each path into its head vertex
//! using `delete_vertex` mutations — the workload for which §5.2
//! recommends an LSM B-tree, since vertex values grow drastically and
//! vertices are removed in bulk. Here the B-tree beat the LSM B-tree on
//! this job at every RAM size tried (EXPERIMENTS.md §"One vertex store":
//! 2 000 chains, 4 workers, 16 / 4 / 1 MiB a worker), so the LSM store was
//! removed and the B-tree is the one store.

use pregelix::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 200 disjoint chains of length 2..40.
    let mut records: Vec<(Vid, Vec<(Vid, f64)>)> = Vec::new();
    let mut next = 0u64;
    let mut chains = 0;
    let mut rng_state = 12345u64;
    let mut rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    while chains < 200 {
        let len = 2 + rand() % 39;
        for i in 0..len {
            let vid = next + i;
            let edges = if i + 1 < len {
                vec![(vid + 1, 1.0)]
            } else {
                vec![]
            };
            records.push((vid, edges));
        }
        next += len;
        chains += 1;
    }
    println!(
        "input: {} vertices across {chains} disjoint paths",
        records.len()
    );

    let cluster = Cluster::new(ClusterConfig::new(4, 16 << 20))?;
    let job = PregelixJob::new("genome-merge")
        .with_max_supersteps(400);
    let program = Arc::new(PathMerge::default());
    let (summary, graph) = run_job_from_records(&cluster, &program, &job, records)?;

    let merged: Vec<VertexData<PathMerge>> = graph.collect_vertices()?;
    println!(
        "after {} supersteps: {} vertices remain (one per path), {} deleted by mutations",
        summary.supersteps,
        merged.len(),
        next - merged.len() as u64,
    );
    assert_eq!(merged.len(), chains, "every chain collapses to its head");
    assert!(summary.final_gs.halt, "job reaches the global fixpoint");
    let longest = merged
        .iter()
        .max_by_key(|v| v.value.len())
        .expect("non-empty");
    println!(
        "longest assembled sequence starts at vertex {} with {} fragments",
        longest.vid,
        longest.value.matches('[').count()
    );
    println!(
        "final vertex count tracked by GS: {}",
        summary.final_gs.vertex_count
    );
    Ok(())
}
