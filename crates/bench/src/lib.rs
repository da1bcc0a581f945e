//! Shared support for the experiment harnesses (one per table/figure of
//! the paper's §7). See DESIGN.md's experiment index and EXPERIMENTS.md
//! for paper-vs-measured results.

use pregelix::baselines::{Algorithm, BaselineConfig, BaselineEngine};
use pregelix::graphgen::DatasetStats;
use pregelix::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The three evaluation algorithms, in a harness-friendly form that can
/// drive both Pregelix programs and the baseline kernels.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// PageRank with this many iterations.
    PageRank(u64),
    /// SSSP from this source.
    Sssp(Vid),
    /// Connected components.
    Cc,
}

impl Workload {
    /// Short label for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::PageRank(_) => "PageRank",
            Workload::Sssp(_) => "SSSP",
            Workload::Cc => "CC",
        }
    }

    /// The equivalent baseline kernel.
    pub fn baseline(&self) -> Algorithm {
        match self {
            Workload::PageRank(n) => Algorithm::PageRank { iterations: *n },
            Workload::Sssp(s) => Algorithm::Sssp { source: *s },
            Workload::Cc => Algorithm::Cc,
        }
    }
}

/// Outcome of one measured run, uniform across systems.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Completed: total time and average per-iteration time.
    Done {
        /// Wall-clock for the whole job.
        total: Duration,
        /// Average per-superstep/iteration time.
        avg_iter: Duration,
        /// Supersteps/iterations executed.
        iterations: u64,
    },
    /// The system failed (OutOfMemory in practice).
    Failed(String),
}

impl RunOutcome {
    /// `total` formatted for a table cell; failures render as `FAIL`.
    pub fn total_cell(&self) -> String {
        match self {
            RunOutcome::Done { total, .. } => format!("{:>9.2}s", total.as_secs_f64()),
            RunOutcome::Failed(_) => format!("{:>10}", "FAIL"),
        }
    }

    /// `avg_iter` formatted for a table cell (sub-10ms values keep a
    /// decimal so small baselines don't render as 0).
    pub fn avg_cell(&self) -> String {
        match self {
            RunOutcome::Done { avg_iter, .. } => {
                let ms = avg_iter.as_secs_f64() * 1e3;
                if ms < 10.0 {
                    format!("{ms:>8.2}ms")
                } else {
                    format!("{ms:>8.0}ms")
                }
            }
            RunOutcome::Failed(_) => format!("{:>10}", "FAIL"),
        }
    }

    /// The average iteration in seconds, if the run completed.
    pub fn avg_secs(&self) -> Option<f64> {
        match self {
            RunOutcome::Done { avg_iter, .. } => Some(avg_iter.as_secs_f64()),
            RunOutcome::Failed(_) => None,
        }
    }
}

/// Run any vertex program on Pregelix with an explicit plan and cluster
/// shape, returning the job's own summary.
pub fn run_program<P: VertexProgram>(
    records: &[(Vid, Vec<(Vid, f64)>)],
    program: P,
    plan: PlanConfig,
    workers: usize,
    worker_ram: usize,
    max_supersteps: Option<u64>,
) -> pregelix::common::error::Result<JobSummary> {
    // All figure harnesses run Pregelix in sequential-timed simulation, so
    // the reported durations are N-parallel-machine makespans regardless of
    // the benchmark host's core count — the same timing model the baseline
    // engines use.
    let cluster = Cluster::new(ClusterConfig::new(workers, worker_ram).sequential_timed())?;
    let mut job = PregelixJob::new(format!("bench-{}", plan.label())).with_plan(plan);
    if let Some(m) = max_supersteps {
        job = job.with_max_supersteps(m);
    }
    run_job_from_records(&cluster, &Arc::new(program), &job, records.to_vec()).map(|(s, _)| s)
}

impl From<pregelix::common::error::Result<JobSummary>> for RunOutcome {
    fn from(result: pregelix::common::error::Result<JobSummary>) -> RunOutcome {
        match result {
            Ok(summary) => RunOutcome::Done {
                total: summary.elapsed,
                avg_iter: summary.avg_superstep(),
                iterations: summary.supersteps,
            },
            Err(e) => RunOutcome::Failed(e.to_string()),
        }
    }
}

/// Run a workload on Pregelix with an explicit plan and cluster shape.
pub fn run_pregelix(
    records: &[(Vid, Vec<(Vid, f64)>)],
    workload: Workload,
    plan: PlanConfig,
    workers: usize,
    worker_ram: usize,
    max_supersteps: Option<u64>,
) -> RunOutcome {
    match workload {
        Workload::PageRank(n) => run_program(
            records,
            PageRank::new(n),
            plan,
            workers,
            worker_ram,
            max_supersteps,
        ),
        Workload::Sssp(src) => run_program(
            records,
            ShortestPaths::new(src),
            plan,
            workers,
            worker_ram,
            max_supersteps,
        ),
        Workload::Cc => run_program(
            records,
            ConnectedComponents,
            plan,
            workers,
            worker_ram,
            max_supersteps,
        ),
    }
    .into()
}

/// Run a workload on one of the baseline systems.
pub fn run_baseline(
    engine: &dyn BaselineEngine,
    records: &[(Vid, Vec<(Vid, f64)>)],
    workload: Workload,
    workers: usize,
    worker_ram: usize,
) -> RunOutcome {
    match engine.run(
        records,
        workload.baseline(),
        BaselineConfig { workers, worker_ram },
    ) {
        Ok(run) => RunOutcome::Done {
            total: run.elapsed,
            avg_iter: run.avg_iteration(),
            iterations: run.supersteps,
        },
        Err(e) => RunOutcome::Failed(e.to_string()),
    }
}

/// Dataset-size over aggregate-RAM, the x-axis of Figures 10–15.
pub fn ram_ratio(stats: &DatasetStats, workers: usize, worker_ram: usize) -> f64 {
    stats.size_bytes as f64 / (workers * worker_ram) as f64
}

/// Print a standard harness header.
pub fn header(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!();
}

/// Whether the harness should run in quick mode (smaller sweeps), set via
/// `PREGELIX_BENCH_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("PREGELIX_BENCH_QUICK").is_ok_and(|v| v == "1")
}
