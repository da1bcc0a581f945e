//! Quickstart: rank the pages of a small synthetic web graph — and run a
//! second analysis at the same time on the same cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors Figure 9's `Client.run` path end to end: generate a
//! Webmap-like graph, write it to the (simulated) DFS as text, then run
//! PageRank *and* single-source shortest paths as two threads over one
//! 4-machine simulated cluster. Each thread loads, runs and dumps its job
//! the way `run_job` does, and keeps its graph resident, so the results
//! can be queried straight out of the vertex stores — no re-load, no
//! output parsing.

use pregelix::common::error::Result;
use pregelix::common::stats::{enter_job_scope, ClusterCounters};
use pregelix::graphgen;
use pregelix::prelude::*;
use std::sync::Arc;

/// One tenant: load, run and dump `job` under a counter scope of its own
/// (so its `job_stats` count only its work), keeping the graph for queries.
fn tenant<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
) -> Result<(JobSummary, LoadedGraph)> {
    let _scope = enter_job_scope(&ClusterCounters::new());
    let mut graph = LoadedGraph::load(cluster, program, job)?;
    let summary = graph.run(cluster, program, job)?;
    graph.dump(cluster, program, job)?;
    Ok((summary, graph))
}

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // A 4-machine cluster, 16 MB simulated RAM each.
    let cluster = Cluster::new(ClusterConfig::new(4, 16 << 20))?;

    // A power-law web graph: 2^13 = 8192 pages.
    let records = graphgen::webmap::webmap(13, 6.0, 7);
    let stats = graphgen::stats::DatasetStats::of("quickstart", &records);
    println!("input graph: {}", stats.row());

    // Stage the input in the DFS as adjacency text (the HDFS load path).
    graphgen::text::write_to_dfs(cluster.dfs(), "input/web", &records)?;

    // Two tenants, two threads, one cluster: their supersteps overlap, and
    // each job's results stay bit-identical to running it alone.
    let pagerank = Arc::new(PageRank::new(10));
    let sssp = Arc::new(ShortestPaths::new(0));
    let rank_job = PregelixJob::new("quickstart-pagerank").with_io("input/web", "output/ranks");
    let path_job = PregelixJob::new("quickstart-sssp").with_io("input/web", "output/paths");
    let (ranks, paths) = std::thread::scope(|s| {
        let ranks = s.spawn(|| tenant(&cluster, &pagerank, &rank_job));
        let paths = s.spawn(|| tenant(&cluster, &sssp, &path_job));
        (ranks.join().unwrap(), paths.join().unwrap())
    });
    let ((rank_summary, ranks), (path_summary, paths)) = (ranks?, paths?);
    for summary in [&rank_summary, &path_summary] {
        println!(
            "{}: {} supersteps in {:?} ({:?}/superstep)",
            summary.name,
            summary.supersteps,
            summary.elapsed,
            summary.avg_superstep()
        );
        // `job_stats` is this job's own work — the shared-cluster delta
        // (`stats`) would also count the other tenant's supersteps.
        println!(
            "  this job: {} compute calls, {} messages sent, {} combined",
            summary.job_stats.compute_calls,
            summary.job_stats.messages_sent,
            summary.job_stats.messages_combined
        );
        // How the senders combined those messages per destination, and why:
        // decided from the program's types, the graph's vid range and the
        // group-by budget — which also says how many windows the fold table
        // covers the vids in when it does not fit whole.
        println!(
            "  sender-side combine: {} — {} folded by address ({} via a window spill file), \
             {} sorted as strays",
            summary.sender_fold,
            summary.job_stats.msgs_folded_direct,
            summary.job_stats.msgs_fold_spilled,
            summary.job_stats.msgs_stray
        );
    }

    // Query the finished graphs in place: point + range reads through the
    // partitions' row cursors, formatted by each program.
    if let Some(page) = ranks.probe_vertex::<PageRank>(0)? {
        println!("page 0 rank line: {}", pagerank.format_vertex(page.vid, &page.value));
    }
    println!("pages 0..8 by shortest path from page 0:");
    for page in paths.range_vertices::<ShortestPaths>(0, 7)? {
        println!("  page {}: {}", page.vid, page.value);
    }

    // The dumped DFS output is still written, exactly as before: show the
    // 10 highest-ranked pages from it.
    let mut output = pregelix::core::load::read_output(cluster.dfs(), "output/ranks")?;
    output.sort_by(|(_, a), (_, b)| {
        let ra: f64 = a.split_whitespace().nth(1).unwrap().parse().unwrap();
        let rb: f64 = b.split_whitespace().nth(1).unwrap().parse().unwrap();
        rb.partial_cmp(&ra).unwrap()
    });
    println!("top pages:");
    for (vid, line) in output.iter().take(10) {
        println!("  page {vid}: {}", line.split_whitespace().nth(1).unwrap());
    }
    Ok(())
}
