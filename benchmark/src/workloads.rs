//! The five workloads: which graph, which program, which plan, on which
//! simulated cluster, and why each is in the set.

use crate::graphs::{self, Graph};
use pregelix_core::plan::{GroupByStrategy, JoinStrategy};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// PageRank, ten iterations (eleven supersteps).
    PageRank,
    /// Single-source shortest paths from vertex 0.
    ShortestPaths,
    /// Connected components by minimum-label propagation.
    Components,
}

#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    Web {
        vertices: usize,
        avg_out_degree: f64,
    },
    RoadGrid {
        side: usize,
    },
    Btc {
        vertices: usize,
        avg_degree: f64,
        tail: usize,
    },
}

impl GraphSpec {
    pub fn generate(self, seed: u64) -> Graph {
        match self {
            GraphSpec::Web {
                vertices,
                avg_out_degree,
            } => graphs::web(vertices, avg_out_degree, seed),
            GraphSpec::RoadGrid { side } => graphs::road_grid(side, seed),
            GraphSpec::Btc {
                vertices,
                avg_degree,
                tail,
            } => graphs::btc(vertices, avg_degree, tail, seed),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub problem: Problem,
    pub graph: GraphSpec,
    /// The 1 k-vertex stand-in `run --quick` uses to exercise the harness.
    pub quick_graph: GraphSpec,
    pub workers: usize,
    /// Simulated RAM per worker; a quarter of it is buffer cache and an
    /// eighth is each sort's budget.
    pub worker_ram: usize,
    /// `ClusterConfig::sequential_timed`: one thread, fixed task order,
    /// counters that repeat exactly. `false` = real worker threads.
    pub sequential: bool,
    pub join: JoinStrategy,
    pub groupby: GroupByStrategy,
    /// Checkpoint every 3 supersteps and kill worker 3 cleanly at the
    /// barrier before superstep 7; the job must recover by confined replay.
    pub checkpoint_and_kill: bool,
    /// The same job without checkpoints and fault, whose `run_s` is
    /// subtracted to give `core.checkpoint.overhead_s`.
    pub plain_twin: Option<&'static str>,
}

const WEB: GraphSpec = GraphSpec::Web {
    vertices: 50_000,
    avg_out_degree: 8.5,
};
const QUICK_WEB: GraphSpec = GraphSpec::Web {
    vertices: 1000,
    avg_out_degree: 8.5,
};
const MIB: usize = 1 << 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pr_web_mem",
        why: "PageRank, every vertex live, Vertex relation fits the buffer cache: sort, group-by, combine and message run files do the work",
        problem: Problem::PageRank,
        graph: WEB,
        quick_graph: QUICK_WEB,
        workers: 4,
        worker_ram: 16 * MIB,
        sequential: true,
        join: JoinStrategy::FullOuter,
        groupby: GroupByStrategy::SortUnmerged,
        checkpoint_and_kill: false,
        plain_twin: None,
    },
    Workload {
        name: "pr_web_ooc",
        why: "the same graph, program and plan with 1/16 of the RAM: Vertex relation far larger than the cache, so the gap to pr_web_mem is the storage layer",
        problem: Problem::PageRank,
        graph: WEB,
        quick_graph: QUICK_WEB,
        workers: 4,
        worker_ram: MIB,
        sequential: true,
        join: JoinStrategy::FullOuter,
        groupby: GroupByStrategy::SortUnmerged,
        checkpoint_and_kill: false,
        plain_twin: None,
    },
    Workload {
        name: "sssp_road_sparse",
        why: "SSSP on a weighted grid under the left-outer plan: hundreds of near-empty supersteps, so fixed per-superstep cost and index probes matter while sort and cache idle",
        problem: Problem::ShortestPaths,
        graph: GraphSpec::RoadGrid { side: 320 },
        quick_graph: GraphSpec::RoadGrid { side: 32 },
        workers: 4,
        worker_ram: 16 * MIB,
        sequential: true,
        join: JoinStrategy::LeftOuter,
        groupby: GroupByStrategy::SortUnmerged,
        checkpoint_and_kill: false,
        plain_twin: None,
    },
    Workload {
        name: "cc_btc_threads",
        why: "connected components on real worker threads with HashSort and the merging connector: bounded channels, transport windows and the striped cache under contention",
        problem: Problem::Components,
        graph: GraphSpec::Btc {
            vertices: 100_000,
            avg_degree: 9.0,
            tail: 14,
        },
        quick_graph: GraphSpec::Btc {
            vertices: 1000,
            avg_degree: 9.0,
            tail: 14,
        },
        workers: 2,
        worker_ram: 16 * MIB,
        sequential: false,
        join: JoinStrategy::FullOuter,
        groupby: GroupByStrategy::HashSortMerged,
        checkpoint_and_kill: false,
        plain_twin: None,
    },
    Workload {
        name: "pr_ckpt_kill",
        why: "pr_web_mem plus checkpoints every 3 supersteps and one clean worker death: checkpoint writes, message-log tee and confined replay beside the reads",
        problem: Problem::PageRank,
        graph: WEB,
        quick_graph: QUICK_WEB,
        workers: 4,
        worker_ram: 16 * MIB,
        sequential: true,
        join: JoinStrategy::FullOuter,
        groupby: GroupByStrategy::SortUnmerged,
        checkpoint_and_kill: true,
        plain_twin: Some("pr_web_mem"),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_twins_exist() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            if let Some(twin) = w.plain_twin {
                let twin = by_name(twin).expect("twin is a workload");
                assert!(!twin.checkpoint_and_kill);
            }
        }
    }
}
