//! End-to-end algorithm tests: each built-in program runs as a complete
//! Pregelix job on a simulated multi-worker cluster and is validated
//! against a single-machine reference implementation.

use pregelix_algorithms::*;
use pregelix_common::Vid;
use pregelix_core::plan::{JoinStrategy, PregelixJob};
use pregelix_core::runtime::run_job_from_records;
use pregelix_core::vertex::VertexData;
use pregelix_dataflow::cluster::{Cluster, ClusterConfig};
use rand::prelude::*;
use std::sync::Arc;

fn cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig::new(workers, 4 << 20)).unwrap()
}

/// Undirected random graph as symmetric directed records.
fn random_undirected(n: u64, avg_degree: f64, seed: u64) -> Vec<(Vid, Vec<(Vid, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<(Vid, f64)>> = vec![Vec::new(); n as usize];
    let edges = (n as f64 * avg_degree / 2.0) as u64;
    for _ in 0..edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let w = rng.gen_range(1..10) as f64;
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    adj.into_iter()
        .enumerate()
        .map(|(v, e)| (v as Vid, e))
        .collect()
}

/// Directed random graph.
fn random_directed(n: u64, avg_degree: f64, seed: u64) -> Vec<(Vid, Vec<(Vid, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|v| {
            let deg = rng.gen_range(0..(avg_degree * 2.0) as u64 + 1);
            let edges = (0..deg)
                .map(|_| (rng.gen_range(0..n), 1.0))
                .filter(|(d, _)| *d != v)
                .collect();
            (v, edges)
        })
        .collect()
}

#[test]
fn pagerank_matches_reference_on_both_join_plans() {
    let records = random_directed(300, 4.0, 1);
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = pagerank::reference_pagerank(&adjacency, 0.85, 10);

    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let c = cluster(3);
        let program = Arc::new(PageRank::new(10));
        let job = PregelixJob::new(format!("pr-{join:?}")).with_join(join);
        let (summary, graph) =
            run_job_from_records(&c, &program, &job, records.clone()).unwrap();
        assert_eq!(summary.supersteps, 11, "{join:?}"); // 10 spreads + final
        let vertices = graph.collect_vertices::<PageRank>().unwrap();
        assert_eq!(vertices.len(), 300);
        for (v, (evid, erank)) in vertices.iter().zip(expected.iter()) {
            assert_eq!(v.vid, *evid);
            assert!(
                (v.value - erank).abs() < 1e-9,
                "{join:?}: vid {} got {} want {}",
                v.vid,
                v.value,
                erank
            );
        }
        // Rank mass invariant via the global aggregate.
        let total = f64::from_bits(u64::from_le_bytes(
            summary.final_gs.aggregate[..8].try_into().unwrap(),
        ));
        assert!(total > 0.1 && total <= 1.0 + 1e-9, "rank mass {total}");
    }
}

#[test]
fn sssp_matches_dijkstra_on_both_join_plans() {
    let records = random_undirected(400, 5.0, 2);
    let expected = sssp::reference_sssp(&records, 7);

    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let c = cluster(4);
        let program = Arc::new(ShortestPaths::new(7));
        let job = PregelixJob::new(format!("sssp-{join:?}")).with_join(join);
        let (_summary, graph) =
            run_job_from_records(&c, &program, &job, records.clone()).unwrap();
        let vertices = graph.collect_vertices::<ShortestPaths>().unwrap();
        assert_eq!(vertices.len(), 400);
        for v in &vertices {
            match expected.get(&v.vid) {
                Some(d) => assert!(
                    (v.value - d).abs() < 1e-9,
                    "{join:?}: vid {} got {} want {}",
                    v.vid,
                    v.value,
                    d
                ),
                None => assert_eq!(v.value, sssp::UNREACHED, "vid {}", v.vid),
            }
        }
    }
}

#[test]
fn connected_components_matches_union_find() {
    let records = random_undirected(500, 1.5, 3); // sparse -> many components
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = connected_components::reference_components(&adjacency);

    let c = cluster(4);
    let program = Arc::new(ConnectedComponents);
    let job = PregelixJob::new("cc");
    let (_s, graph) = run_job_from_records(&c, &program, &job, records).unwrap();
    let vertices = graph.collect_vertices::<ConnectedComponents>().unwrap();
    for v in &vertices {
        assert_eq!(v.value, expected[&v.vid], "vid {}", v.vid);
    }
}

#[test]
fn reachability_matches_bfs() {
    let records = random_directed(300, 2.0, 4);
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = reachability::reference_reachable(&adjacency, &[0, 5]);

    let c = cluster(2);
    let program = Arc::new(Reachability::multi(vec![0, 5]));
    let job = PregelixJob::new("reach").with_join(JoinStrategy::LeftOuter);
    let (_s, graph) = run_job_from_records(&c, &program, &job, records).unwrap();
    let vertices = graph.collect_vertices::<Reachability>().unwrap();
    for v in &vertices {
        assert_eq!(
            v.value == 1,
            expected.contains(&v.vid),
            "vid {}",
            v.vid
        );
    }
}

#[test]
fn bfs_tree_depths_match_reference() {
    let records = random_undirected(300, 3.0, 5);
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = bfs_tree::reference_depths(&adjacency, 0);

    let c = cluster(3);
    let program = Arc::new(BfsTree::new(0));
    let job = PregelixJob::new("bfs");
    let (_s, graph) = run_job_from_records(&c, &program, &job, records).unwrap();
    let vertices = graph.collect_vertices::<BfsTree>().unwrap();
    let by_vid: std::collections::HashMap<Vid, (u64, u64)> =
        vertices.iter().map(|v| (v.vid, v.value)).collect();
    for v in &vertices {
        match expected.get(&v.vid) {
            Some(d) => {
                assert_eq!(v.value.1, *d, "depth of {}", v.vid);
                if v.vid != 0 {
                    // Parent consistency: parent's depth is mine - 1.
                    let parent = v.value.0;
                    assert_eq!(by_vid[&parent].1, d - 1, "parent of {}", v.vid);
                }
            }
            None => assert_eq!(v.value.0, bfs_tree::NO_PARENT, "vid {}", v.vid),
        }
    }
}

#[test]
fn triangle_count_matches_reference() {
    let records = random_undirected(150, 8.0, 6);
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = triangles::reference_triangles(&adjacency);

    let c = cluster(3);
    let program = Arc::new(TriangleCount);
    let job = PregelixJob::new("tri");
    let (summary, _g) = run_job_from_records(&c, &program, &job, records).unwrap();
    let total = u64::from_le_bytes(summary.final_gs.aggregate[..8].try_into().unwrap());
    assert_eq!(total, expected);
    assert!(expected > 0, "graph should contain triangles");
}

#[test]
fn maximal_cliques_match_reference() {
    let records = random_undirected(60, 6.0, 7);
    let adjacency: Vec<(Vid, Vec<Vid>)> = records
        .iter()
        .map(|(v, e)| {
            let mut d: Vec<Vid> = e.iter().map(|(d, _)| *d).collect();
            d.sort_unstable();
            d.dedup();
            (*v, d)
        })
        .collect();
    let (exp_count, exp_best) = cliques::reference_maximal_cliques(&adjacency);

    let c = cluster(2);
    let program = Arc::new(MaximalCliques);
    let job = PregelixJob::new("cliques");
    let (summary, _g) = run_job_from_records(&c, &program, &job, records).unwrap();
    let agg = &summary.final_gs.aggregate;
    let count = u64::from_le_bytes(agg[..8].try_into().unwrap());
    let best = u64::from_le_bytes(agg[8..16].try_into().unwrap());
    assert_eq!(count, exp_count);
    assert_eq!(best + 1, exp_best + 1); // sizes agree (avoid trivial +0)
    assert_eq!(best, exp_best);
}

/// No neighbour messages an isolated vertex, yet it is a maximal clique.
#[test]
fn an_isolated_vertex_is_a_maximal_clique_of_one() {
    let records = vec![
        (0, vec![(1, 1.0), (2, 1.0)]),
        (1, vec![(0, 1.0), (2, 1.0)]),
        (2, vec![(0, 1.0), (1, 1.0)]),
        (3, vec![]),
    ];
    let job = PregelixJob::new("cliques-isolated");
    let (summary, _g) =
        run_job_from_records(&cluster(2), &Arc::new(MaximalCliques), &job, records).unwrap();
    let agg = &summary.final_gs.aggregate;
    let count = u64::from_le_bytes(agg[..8].try_into().unwrap());
    let best = u64::from_le_bytes(agg[8..16].try_into().unwrap());
    assert_eq!((count, best), (2, 3));
}

#[test]
fn random_walk_sampler_visits_reachable_vertices_deterministically() {
    let records = random_directed(200, 3.0, 8);
    let run = |seed: u64| {
        let c = cluster(2);
        let program = Arc::new(RandomWalkSampler {
            seeds: vec![0, 1, 2, 3],
            walkers_per_seed: 4,
            steps: 20,
            seed,
        });
        let job = PregelixJob::new("sample").with_join(JoinStrategy::LeftOuter);
        let (_s, graph) = run_job_from_records(&c, &program, &job, records.clone()).unwrap();
        graph
            .collect_vertices::<RandomWalkSampler>()
            .unwrap()
            .into_iter()
            .filter(|v| v.value > 0)
            .map(|v| (v.vid, v.value))
            .collect::<Vec<_>>()
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must reproduce the same sample");
    assert!(a.len() >= 4, "at least the seeds are visited");
    let c = run(100);
    // Different seed almost surely visits a different multiset.
    assert_ne!(a, c);
}

#[test]
fn path_merge_collapses_chains_via_mutations() {
    // Three disjoint chains: 0->1->2->3->4, 10->11->12, 20 (isolated).
    let mut records: Vec<(Vid, Vec<(Vid, f64)>)> = vec![
        (0, vec![(1, 1.0)]),
        (1, vec![(2, 1.0)]),
        (2, vec![(3, 1.0)]),
        (3, vec![(4, 1.0)]),
        (4, vec![]),
        (10, vec![(11, 1.0)]),
        (11, vec![(12, 1.0)]),
        (12, vec![]),
        (20, vec![]),
    ];
    records.sort_by_key(|(v, _)| *v);

    let c = cluster(2);
    let program = Arc::new(PathMerge::default());
    let job = PregelixJob::new("merge").with_max_supersteps(120);
    let (summary, graph) = run_job_from_records(&c, &program, &job, records).unwrap();
    let vertices: Vec<VertexData<PathMerge>> = graph.collect_vertices().unwrap();
    // Fully merged: one vertex per chain plus the isolated vertex.
    let seqs: Vec<(Vid, String)> = vertices
        .iter()
        .map(|v| (v.vid, v.value.clone()))
        .collect();
    assert_eq!(
        seqs,
        vec![
            (0, "[0][1][2][3][4]".to_string()),
            (10, "[10][11][12]".to_string()),
            (20, "[20]".to_string()),
        ]
    );
    assert_eq!(summary.final_gs.vertex_count, 3);
    assert!(summary.final_gs.halt, "job must reach the global fixpoint");
}

#[test]
fn list_ranking_matches_reference_on_a_forest_of_lists() {
    // Three lists of very different lengths plus a singleton; ranks are
    // distances to each list's tail, computed in O(log n) jump rounds.
    let mut records: Vec<(Vid, Vec<(Vid, f64)>)> = Vec::new();
    let mut successors: Vec<(Vid, Option<Vid>)> = Vec::new();
    let mut next_vid = 0u64;
    for len in [1u64, 7, 64, 301] {
        for i in 0..len {
            let v = next_vid + i;
            if i + 1 < len {
                records.push((v, vec![(v + 1, 1.0)]));
                successors.push((v, Some(v + 1)));
            } else {
                records.push((v, vec![]));
                successors.push((v, None));
            }
        }
        next_vid += len;
    }
    let expected: std::collections::HashMap<Vid, u64> =
        list_ranking::reference_ranks(&successors).into_iter().collect();

    let c = cluster(3);
    let program = Arc::new(ListRanking);
    let job = PregelixJob::new("rank").with_max_supersteps(64);
    let (summary, graph) = run_job_from_records(&c, &program, &job, records).unwrap();
    assert!(summary.final_gs.halt, "pointer jumping must converge");
    // O(log n) rounds: 301-long chain needs ~9 doublings = ~20 supersteps.
    assert!(
        summary.supersteps < 32,
        "expected logarithmic rounds, got {}",
        summary.supersteps
    );
    for v in graph.collect_vertices::<ListRanking>().unwrap() {
        assert_eq!(v.value.1 .0, expected[&v.vid], "rank of {}", v.vid);
    }
}

#[test]
fn adaptive_join_matches_fixed_plans_exactly() {
    // The per-superstep optimizer must be a pure performance choice:
    // results identical to both fixed plans, on a dense workload
    // (PageRank: resolves to full-outer throughout) and a sparse one
    // (SSSP: flips to left-outer once the wavefront thins).
    let records = random_undirected(500, 4.0, 21);
    {
        let expected = {
            let c = cluster(3);
            let job = PregelixJob::new("ad-pr-ref");
            let (_s, g) = run_job_from_records(&c, &Arc::new(PageRank::new(6)), &job, records.clone()).unwrap();
            g.collect_vertices::<PageRank>().unwrap()
        };
        let c = cluster(3);
        let job = PregelixJob::new("ad-pr").with_join(JoinStrategy::Adaptive);
        let (_s, g) =
            run_job_from_records(&c, &Arc::new(PageRank::new(6)), &job, records.clone()).unwrap();
        let got = g.collect_vertices::<PageRank>().unwrap();
        assert_eq!(expected.len(), got.len());
        for (e, v) in expected.iter().zip(got.iter()) {
            assert_eq!(e.vid, v.vid);
            assert!((e.value - v.value).abs() < 1e-12);
        }
    }
    {
        let expected = sssp::reference_sssp(&records, 3);
        let c = cluster(3);
        let job = PregelixJob::new("ad-sssp").with_join(JoinStrategy::Adaptive);
        let (_s, g) = run_job_from_records(
            &c,
            &Arc::new(ShortestPaths::new(3)),
            &job,
            records.clone(),
        )
        .unwrap();
        for v in g.collect_vertices::<ShortestPaths>().unwrap() {
            match expected.get(&v.vid) {
                Some(d) => assert!((v.value - d).abs() < 1e-9, "vid {}", v.vid),
                None => assert_eq!(v.value, sssp::UNREACHED),
            }
        }
    }
}

#[test]
fn pagerank_agrees_across_all_eight_physical_plans() {
    use pregelix_core::plan::PlanConfig;
    let records = random_directed(120, 3.0, 11);
    let mut baseline: Option<Vec<(Vid, f64)>> = None;
    for plan in PlanConfig::all() {
        let c = cluster(2);
        let program = Arc::new(PageRank::new(5));
        let job = PregelixJob::new(format!("pr-{}", plan.label())).with_plan(plan);
        let (_s, graph) =
            run_job_from_records(&c, &program, &job, records.clone()).unwrap();
        let got: Vec<(Vid, f64)> = graph
            .collect_vertices::<PageRank>()
            .unwrap()
            .into_iter()
            .map(|v| (v.vid, v.value))
            .collect();
        match &baseline {
            None => baseline = Some(got),
            Some(b) => {
                assert_eq!(b.len(), got.len(), "{}", plan.label());
                for ((v1, r1), (v2, r2)) in b.iter().zip(got.iter()) {
                    assert_eq!(v1, v2, "{}", plan.label());
                    assert!((r1 - r2).abs() < 1e-12, "{}", plan.label());
                }
            }
        }
    }
}
