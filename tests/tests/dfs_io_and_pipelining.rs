//! End-to-end DFS I/O (§5.2 load/dump) and job pipelining (§5.6).

use pregelix::graphgen::{btc, text};
use pregelix::prelude::*;
use std::sync::Arc;

#[test]
fn full_text_load_run_dump_cycle() {
    let records = btc::btc(1_200, 5.0, 80);
    let cluster = Cluster::new(ClusterConfig::new(3, 16 << 20)).unwrap();
    text::write_to_dfs(cluster.dfs(), "input/io-test", &records).unwrap();

    let job = PregelixJob::new("io-test").with_io("input/io-test", "output/io-test");
    let program = Arc::new(ShortestPaths::new(0));
    let summary = run_job(&cluster, &program, &job).unwrap();
    assert!(summary.supersteps > 1);

    let output = pregelix::core::load::read_output(cluster.dfs(), "output/io-test").unwrap();
    assert_eq!(output.len(), records.len());
    // Spot-check against Dijkstra.
    let expected = pregelix::algorithms::sssp::reference_sssp(&records, 0);
    for (vid, line) in &output {
        let dist_str = line.split_whitespace().nth(1).unwrap();
        match expected.get(vid) {
            Some(d) => {
                let got: f64 = dist_str.parse().unwrap();
                assert!((got - d).abs() < 1e-3, "vid {vid}: {got} vs {d}");
            }
            None => assert_eq!(dist_str, "inf", "vid {vid}"),
        }
    }
}

#[test]
fn output_parts_are_one_per_partition() {
    let records = btc::btc(500, 4.0, 81);
    let cluster = Cluster::new(ClusterConfig::new(4, 16 << 20)).unwrap();
    text::write_to_dfs(cluster.dfs(), "input/parts", &records).unwrap();
    let job = PregelixJob::new("parts")
        .with_io("input/parts", "output/parts")
        .with_partitions_per_worker(2);
    run_job(&cluster, &Arc::new(ConnectedComponents), &job).unwrap();
    let parts = cluster.dfs().list("output/parts").unwrap();
    assert_eq!(parts.len(), 8, "4 workers x 2 partitions");
}

#[test]
fn malformed_input_is_a_user_error() {
    let cluster = Cluster::new(ClusterConfig::new(2, 16 << 20)).unwrap();
    cluster
        .dfs()
        .write("input/bad", b"1 2 3\nnot-a-vid 4\n")
        .unwrap();
    let job = PregelixJob::new("bad").with_io("input/bad", "output/bad");
    let err = run_job(&cluster, &Arc::new(ConnectedComponents), &job).unwrap_err();
    assert!(!err.is_recoverable(), "parse errors go to the user: {err}");
}

#[test]
fn missing_input_is_reported() {
    let cluster = Cluster::new(ClusterConfig::new(2, 16 << 20)).unwrap();
    let job = PregelixJob::new("missing").with_io("input/nothing", "output/nothing");
    assert!(run_job(&cluster, &Arc::new(ConnectedComponents), &job).is_err());
}

#[test]
fn pipelined_stages_share_the_resident_graph() {
    // Two SSSP stages from different sources over one loaded graph: the
    // second stage must see the same topology, all vertices reactivated,
    // and must not be polluted by the first stage's message state.
    let records = btc::btc(2_000, 5.0, 82);
    let cluster = Cluster::new(ClusterConfig::new(3, 16 << 20)).unwrap();
    text::write_to_dfs(cluster.dfs(), "input/pipe", &records).unwrap();
    let job = PregelixJob::new("pipe").with_io("input/pipe", "output/pipe");

    let stages = vec![Arc::new(ShortestPaths::new(0)), Arc::new(ShortestPaths::new(7))];
    let summaries = run_pipeline(&cluster, &stages, &job).unwrap();
    assert_eq!(summaries.len(), 2);

    // Final dump reflects stage 2 (source 7).
    let expected = pregelix::algorithms::sssp::reference_sssp(&records, 7);
    let output = pregelix::core::load::read_output(cluster.dfs(), "output/pipe").unwrap();
    for (vid, line) in output {
        let dist_str = line.split_whitespace().nth(1).unwrap();
        match expected.get(&vid) {
            Some(d) => {
                let got: f64 = dist_str.parse().unwrap();
                assert!((got - d).abs() < 1e-3, "vid {vid}");
            }
            None => assert_eq!(dist_str, "inf"),
        }
    }
}

#[test]
fn pipelining_switches_plans_between_stages() {
    // Stage 1 runs LOJ (writes Vid runs), stage 2 runs FOJ (drops
    // them): the plan transition logic in LoadedGraph::run must handle
    // both directions.
    let records = btc::btc(1_500, 5.0, 83);
    let cluster = Cluster::new(ClusterConfig::new(2, 16 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let job_loj = PregelixJob::new("switch-a").with_join(JoinStrategy::LeftOuter);
    let job_foj = PregelixJob::new("switch-b").with_join(JoinStrategy::FullOuter);

    let mut graph =
        LoadedGraph::load_from_records(&cluster, &program, &job_loj, records.clone()).unwrap();
    graph.run(&cluster, &program, &job_loj).unwrap();
    graph.run(&cluster, &program, &job_foj).unwrap();
    graph.run(&cluster, &program, &job_loj).unwrap();

    let adjacency: Vec<(u64, Vec<u64>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected =
        pregelix::algorithms::connected_components::reference_components(&adjacency);
    for v in graph.collect_vertices::<ConnectedComponents>().unwrap() {
        assert_eq!(v.value, expected[&v.vid]);
    }
}
