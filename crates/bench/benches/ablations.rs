//! Ablations of the design choices DESIGN.md calls out (no figure in the
//! paper; each corresponds to a section):
//!
//! * The paper's §9 future work: adaptive per-superstep join selection
//!   against the two fixed join plans.
//! * §5.5 checkpointing: overhead of checkpointing every superstep vs
//!   none.
//! * §5.6 job pipelining: chained jobs over a resident graph vs dump +
//!   reload between jobs.

use pregelix::graphgen::{btc, webmap};
use pregelix::prelude::*;
use pregelix_bench::{header, run_pregelix, Workload};
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 4;
const WORKER_RAM: usize = 4 << 20;

fn main() {
    adaptive_join_ablation();
    checkpoint_ablation();
    pipelining_ablation();
}

fn adaptive_join_ablation() {
    header(
        "Ablation §9 (future work) — adaptive per-superstep join selection",
        "the optimizer should track the best fixed plan on both message-dense and message-sparse workloads",
    );
    let dense = webmap::webmap(14, 8.0, 17);
    let sparse = pregelix::graphgen::road::grid(200, 17);
    for (label, records, workload, cap) in [
        ("PageRank (dense)", &dense, Workload::PageRank(5), None),
        ("SSSP (sparse)", &sparse, Workload::Sssp(1), Some(100)),
    ] {
        print!("{label:<18}");
        for join in [
            JoinStrategy::FullOuter,
            JoinStrategy::LeftOuter,
            JoinStrategy::Adaptive,
        ] {
            let plan = PlanConfig {
                join,
                ..PlanConfig::default()
            };
            let r = run_pregelix(records, workload, plan, WORKERS, WORKER_RAM, cap);
            print!(" {join:?}={}", r.avg_cell().trim());
        }
        println!();
    }
}

fn checkpoint_ablation() {
    header(
        "Ablation §5.5 — checkpointing overhead",
        "same CC job with no checkpoints, every 4 supersteps, every superstep",
    );
    let records = btc::btc(20_000, 8.94, 5);
    for interval in [None, Some(4u64), Some(1)] {
        let cluster = Cluster::new(ClusterConfig::new(WORKERS, WORKER_RAM)).unwrap();
        let mut job = PregelixJob::new("ablate-ckpt");
        if let Some(i) = interval {
            job = job.with_checkpoint_interval(i);
        }
        let program = Arc::new(ConnectedComponents);
        // Wall-clock including the checkpoint writes themselves (the
        // JobSummary's elapsed deliberately excludes them).
        let t = Instant::now();
        let (summary, _g) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        println!(
            "checkpoint {:?}: wall {:.2}s over {} supersteps (superstep time {:.2}s)",
            interval,
            t.elapsed().as_secs_f64(),
            summary.supersteps,
            summary.elapsed.as_secs_f64(),
        );
    }
}

fn pipelining_ablation() {
    header(
        "Ablation §5.6 — job pipelining",
        "three chained CC passes: resident graph (pipelined) vs dump+reload between jobs",
    );
    let records = btc::btc(60_000, 8.94, 9);
    // Pipelined: one load, three runs.
    {
        let cluster = Cluster::new(ClusterConfig::new(WORKERS, WORKER_RAM)).unwrap();
        let stages: Vec<Arc<ConnectedComponents>> =
            (0..3).map(|_| Arc::new(ConnectedComponents)).collect();
        let job = PregelixJob::new("pipe");
        pregelix::graphgen::text::write_to_dfs(cluster.dfs(), job.input_path(), &records)
            .unwrap();
        let t = Instant::now();
        let summaries = run_pipeline(&cluster, &stages, &job).unwrap();
        println!(
            "pipelined:   {:.2}s total ({} stages, one load, one dump)",
            t.elapsed().as_secs_f64(),
            summaries.len()
        );
    }
    // Unpipelined: each stage loads from and dumps to the DFS.
    {
        let cluster = Cluster::new(ClusterConfig::new(WORKERS, WORKER_RAM)).unwrap();
        pregelix::graphgen::text::write_to_dfs(cluster.dfs(), "input/pipe0", &records)
            .unwrap();
        let t = Instant::now();
        for stage in 0..3 {
            let job = PregelixJob::new(format!("nopipe{stage}"))
                .with_io(format!("input/pipe{stage}"), format!("output/nopipe{stage}"));
            let program = Arc::new(ConnectedComponents);
            run_job(&cluster, &program, &job).unwrap();
            // Output of CC is "vid\tlabel", which would reload as vertices
            // with no edges; re-stage the original topology instead (the
            // dump/reload cost through the DFS is what we're measuring).
            pregelix::graphgen::text::write_to_dfs(
                cluster.dfs(),
                &format!("input/pipe{}", stage + 1),
                &records,
            )
            .unwrap();
        }
        println!(
            "unpipelined: {:.2}s total (3 loads, 3 dumps through the DFS)",
            t.elapsed().as_secs_f64()
        );
    }
}
