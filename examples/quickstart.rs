//! Quickstart: rank the pages of a small synthetic web graph — and run a
//! second analysis concurrently through the multi-tenant job service.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors Figure 9's `Client.run` path end to end, behind the
//! job-service submission API: generate a Webmap-like graph, write it to
//! the (simulated) DFS as text, submit PageRank *and* single-source
//! shortest paths to one `JobService` over a 4-machine simulated cluster,
//! wait for both, and query results straight out of the finished jobs'
//! resident vertex stores — no re-load, no output parsing.

use pregelix::graphgen;
use pregelix::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-machine cluster, 16 MB simulated RAM each.
    let cluster = Cluster::new(ClusterConfig::new(4, 16 << 20))?;

    // A power-law web graph: 2^13 = 8192 pages.
    let records = graphgen::webmap::webmap(13, 6.0, 7);
    let stats = graphgen::stats::DatasetStats::of("quickstart", &records);
    println!("input graph: {}", stats.row());

    // Stage the input in the DFS as adjacency text (the HDFS load path).
    graphgen::text::write_to_dfs(cluster.dfs(), "input/web", &records)?;

    // One service, two tenants: each job reserves pages from the shared
    // admission budget and interleaves supersteps fairly with the
    // other — per-job results stay bit-identical to running alone.
    let service = JobService::new(&cluster, ServiceConfig::default());

    let ranks = service.submit(
        Arc::new(PageRank::new(10)),
        PregelixJob::new("quickstart-pagerank")
            .with_io("input/web", "output/ranks")
            .with_page_budget(256),
    )?;
    let paths = service.submit(
        Arc::new(ShortestPaths::new(0)),
        PregelixJob::new("quickstart-sssp")
            .with_io("input/web", "output/paths")
            .with_page_budget(256),
    )?;

    let rank_summary = ranks.wait()?;
    let path_summary = paths.wait()?;
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

    // Query the finished jobs in place: point + range reads through the
    // partitions' sorted-probe cursors, formatted by each program.
    assert_eq!(ranks.status(), JobStatus::Done);
    if let Some(line) = ranks.query_vertex(0)? {
        println!("page 0 rank line: {line}");
    }
    println!("pages 0..8 by shortest path from page 0:");
    for (vid, line) in paths.query_range(0, 7)? {
        println!("  page {vid}: {}", line.split_whitespace().nth(1).unwrap_or("?"));
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
