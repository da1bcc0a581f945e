//! The Figure 9 scenario: single source shortest paths with the paper's
//! recommended plan hints, against the default plan.
//!
//! ```text
//! cargo run --release --example sssp_plan_hints
//! ```
//!
//! SSSP is *message-sparse*: after the first few supersteps only the
//! expanding wavefront is live. Figure 9 therefore sets three hints —
//! `Join.LEFTOUTER`, `GroupBy.HASHSORT`, `Connector.UNMERGE` — which this
//! example reproduces. Here the HashSort hint selects only the pipelined
//! connector: every group-by name sorts through the same sorter. It prints
//! the per-superstep advantage of skipping the full vertex scan (the §7.5 / Figure 14(a) effect). The input is a
//! high-diameter road-network-like grid, the regime where the wavefront
//! is a small fraction of the graph in every superstep (at the paper's
//! billion-vertex scale BTC itself behaves this way).

use pregelix::graphgen;
use pregelix::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let records = graphgen::road::grid(260, 11); // 67,600 vertices, diameter ~520
    let stats = graphgen::stats::DatasetStats::of("road-grid", &records);
    println!("input graph: {}", stats.row());
    let program = Arc::new(ShortestPaths::new(1));

    let mut results = Vec::new();
    for (label, plan) in [
        (
            "default (full outer join)",
            PlanConfig::default(),
        ),
        (
            "Figure 9 hints (left outer join + HashSort, which picks the unmerged connector)",
            PlanConfig {
                join: JoinStrategy::LeftOuter,
                groupby: GroupByStrategy::HashSortUnmerged,
            },
        ),
    ] {
        let cluster = Cluster::new(ClusterConfig::new(4, 16 << 20))?;
        // Measure the steady state: 120 supersteps of a narrow wavefront.
        let job = PregelixJob::new(format!("sssp-{}", plan.label()))
            .with_plan(plan)
            .with_max_supersteps(120);
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone())?;
        println!(
            "{label}: {} supersteps, {:?} total, {:?}/superstep",
            summary.supersteps,
            summary.elapsed,
            summary.avg_superstep()
        );
        let reached = graph
            .collect_vertices::<ShortestPaths>()?
            .into_iter()
            .filter(|v| v.value != sssp::UNREACHED)
            .count();
        println!("  reached {reached} of {} vertices", stats.vertices);
        results.push(summary.avg_superstep());
    }
    let speedup = results[0].as_secs_f64() / results[1].as_secs_f64();
    println!("left-outer-join speedup over full scan: {speedup:.1}x (paper: up to 7x per iteration)");
    Ok(())
}
