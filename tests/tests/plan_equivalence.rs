//! Cross-crate invariant: every physical plan computes the same answer.
//!
//! §5.8 promises tailored executions of one logical plan — here two joins ×
//! four group-by strategies, four of them distinct (`PlanConfig::all()`) —
//! and they must be observationally identical. The e2e suite in
//! `pregelix-algorithms` checks PageRank; here SSSP and path merging sweep
//! the four distinct plans, CC and triangle counting a few, plus
//! partition-count and worker-count variations.

use integration_tests::directed_chains;
use pregelix::graphgen::btc;
use pregelix::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

fn result_sssp(
    records: &[(u64, Vec<(u64, f64)>)],
    plan: PlanConfig,
    workers: usize,
    ppw: usize,
) -> Vec<(u64, f64)> {
    let cluster = Cluster::new(ClusterConfig::new(workers, 8 << 20)).unwrap();
    let job = PregelixJob::new(format!("pe-sssp-{}-{workers}-{ppw}", plan.label()))
        .with_plan(plan)
        .with_partitions_per_worker(ppw);
    let program = Arc::new(ShortestPaths::new(0));
    let (_s, graph) = run_job_from_records(&cluster, &program, &job, records.to_vec()).unwrap();
    graph
        .collect_vertices::<ShortestPaths>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, v.value))
        .collect()
}

#[test]
fn every_plan_agrees_on_sssp() {
    let records = btc::btc(2_000, 6.0, 42);
    let mut baseline = None;
    for plan in PlanConfig::all() {
        let got = result_sssp(&records, plan, 3, 1);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(b, &got, "plan {} diverged", plan.label()),
        }
    }
}

/// The §5.2 mutation workload on every plan: `PathMerge` grows the head of
/// each chain past the inline limit of a 512-byte page and deletes every
/// other vertex. The merged values (on the sort path: the program has no
/// combiner) and the vertex count kept in `GS` must be the same on all.
#[test]
fn every_plan_merges_paths_alike() {
    let mut rng = StdRng::seed_from_u64(46);
    let records = directed_chains((0..120).map(|_| rng.gen_range(2..=40u64)));
    let mut baseline = None;
    for plan in PlanConfig::all() {
        let mut config = ClusterConfig::new(3, 4 << 20);
        config.page_size = 512;
        let cluster = Cluster::new(config).unwrap();
        let job = PregelixJob::new(format!("pe-pm-{}", plan.label()))
            .with_plan(plan)
            .with_max_supersteps(400);
        let program = Arc::new(PathMerge::default());
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        let merged: Vec<(u64, String, usize)> = graph
            .collect_vertices::<PathMerge>()
            .unwrap()
            .into_iter()
            .map(|v| (v.vid, v.value, v.edges.len()))
            .collect();
        assert!(summary.final_gs.halt, "plan {}", plan.label());
        assert_eq!(merged.len(), 120, "plan {}: a vertex a chain", plan.label());
        let count = summary.final_gs.vertex_count;
        assert_eq!(count, merged.len() as u64, "plan {}", plan.label());
        match &baseline {
            None => baseline = Some(merged),
            Some(b) => assert_eq!(b, &merged, "plan {} diverged", plan.label()),
        }
    }
}

#[test]
fn worker_and_partition_counts_do_not_change_results() {
    let records = btc::btc(1_500, 5.0, 43);
    let reference = result_sssp(&records, PlanConfig::default(), 1, 1);
    for (workers, ppw) in [(1, 2), (2, 1), (2, 2), (5, 1), (5, 3)] {
        let got = result_sssp(&records, PlanConfig::default(), workers, ppw);
        assert_eq!(reference, got, "workers={workers} ppw={ppw}");
    }
}

#[test]
fn cc_agrees_across_plans_and_matches_union_find() {
    let records = btc::btc(2_500, 3.0, 44);
    let adjacency: Vec<(u64, Vec<u64>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected =
        pregelix::algorithms::connected_components::reference_components(&adjacency);
    for plan in [
        PlanConfig::default(),
        PlanConfig {
            join: JoinStrategy::LeftOuter,
            groupby: GroupByStrategy::HashSortMerged,
        },
        PlanConfig {
            join: JoinStrategy::FullOuter,
            groupby: GroupByStrategy::SortMerged,
        },
    ] {
        let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("pe-cc-{}", plan.label())).with_plan(plan);
        let program = Arc::new(ConnectedComponents);
        let (_s, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        for v in graph.collect_vertices::<ConnectedComponents>().unwrap() {
            assert_eq!(v.value, expected[&v.vid], "plan {} vid {}", plan.label(), v.vid);
        }
    }
}

#[test]
fn global_aggregate_is_plan_independent() {
    let records = btc::btc(1_200, 6.0, 45);
    let mut baseline: Option<Vec<u8>> = None;
    for plan in [
        PlanConfig::default(),
        PlanConfig {
            join: JoinStrategy::LeftOuter,
            ..PlanConfig::default()
        },
        PlanConfig {
            groupby: GroupByStrategy::HashSortMerged,
            ..PlanConfig::default()
        },
    ] {
        let cluster = Cluster::new(ClusterConfig::new(3, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("pe-tri-{}", plan.label())).with_plan(plan);
        let program = Arc::new(TriangleCount);
        let (summary, _g) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        match &baseline {
            None => baseline = Some(summary.final_gs.aggregate.clone()),
            Some(b) => assert_eq!(b, &summary.final_gs.aggregate, "plan {}", plan.label()),
        }
    }
}
