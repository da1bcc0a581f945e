//! Transparent out-of-core execution (§5.4): the same job must produce
//! identical results whether the graph fits in the buffer caches or not,
//! and the process-centric baselines must fail at memory points Pregelix
//! survives (the Figure 10 claim, as an assertion).

use pregelix::baselines::{
    Algorithm, BaselineConfig, BaselineEngine, GiraphEngine, GraphLabEngine,
};
use pregelix::core::api::tests_support::SortPath;
use pregelix::core::SenderFold;
use pregelix::graphgen::webmap;
use pregelix::prelude::*;
use std::sync::Arc;

fn pagerank_values(
    records: &[(u64, Vec<(u64, f64)>)],
    worker_ram: usize,
) -> (Vec<(u64, f64)>, JobSummary) {
    let cluster = Cluster::new(ClusterConfig::new(4, worker_ram)).unwrap();
    let job = PregelixJob::new("ooc-pr");
    let program = Arc::new(PageRank::new(5));
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.to_vec()).unwrap();
    let values = graph
        .collect_vertices::<PageRank>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, v.value))
        .collect();
    (values, summary)
}

/// 192 KiB workers leave the senders' fold table no room, not even in
/// windows, so they sort and spill, and a spilling sorter folds run by run:
/// an `f64` sum may move in its last bits against the in-memory run.
#[test]
fn out_of_core_run_matches_in_memory_run_exactly() {
    let records = webmap::webmap(13, 6.0, 60);
    let (big, big_summary) = pagerank_values(&records, 64 << 20);
    let (small, small_summary) = pagerank_values(&records, 192 << 10);
    let (big_stats, small_stats) = (big_summary.stats, small_summary.stats);
    assert!(
        matches!(small_summary.sender_fold, SenderFold::SortTableTooLarge { .. }),
        "{}",
        small_summary.sender_fold
    );
    assert_eq!(big.len(), small.len());
    for ((v1, r1), (v2, r2)) in big.iter().zip(small.iter()) {
        assert_eq!(v1, v2);
        assert!((r1 - r2).abs() < 1e-12, "vid {v1}: {r1} vs {r2}");
    }
    // The small-memory run must actually have gone to disk.
    assert!(
        small_stats.cache_evictions > big_stats.cache_evictions,
        "tiny cache must evict: {} vs {}",
        small_stats.cache_evictions,
        big_stats.cache_evictions
    );
    assert!(small_stats.disk_read_bytes > big_stats.disk_read_bytes);
}

/// 1 MiB and 512 KiB workers: the senders still fold by address, in
/// windows, and at 512 KiB the cache holds a fraction of the graph. Nothing
/// on the message path sorts — the receivers merge — so the values are the
/// in-memory run's to the bit.
#[test]
fn out_of_core_run_on_the_fold_table_is_bit_identical_to_in_memory() {
    let records = webmap::webmap(13, 6.0, 60);
    let bits = |values: &[(u64, f64)]| -> Vec<(u64, u64)> {
        values.iter().map(|(v, r)| (*v, r.to_bits())).collect()
    };
    let (big, big_summary) = pagerank_values(&records, 64 << 20);
    for ram in [1 << 20, 512 << 10] {
        let (small, small_summary) = pagerank_values(&records, ram);
        assert!(
            matches!(small_summary.sender_fold, SenderFold::Direct { windows: 2.., .. }),
            "{ram}: {}",
            small_summary.sender_fold
        );
        assert_eq!(small_summary.stats.sort_runs_spilled, 0, "{ram}");
        assert_eq!(bits(&small), bits(&big), "{ram}");
        if ram == 512 << 10 {
            let (small_ev, big_ev) = (
                small_summary.stats.cache_evictions,
                big_summary.stats.cache_evictions,
            );
            assert!(small_ev > big_ev, "{small_ev} vs {big_ev} evictions");
        }
    }
}

#[test]
fn pregelix_survives_where_giraph_and_graphlab_fail() {
    let records = webmap::webmap(14, 8.0, 61);
    let worker_ram = 256 << 10;

    // Baselines at this memory point: OOM.
    let giraph = GiraphEngine::in_memory().run(
        &records,
        Algorithm::PageRank { iterations: 3 },
        BaselineConfig {
            workers: 4,
            worker_ram,
        },
    );
    assert!(giraph.is_err(), "Giraph-mem should OOM here");
    let graphlab = GraphLabEngine::new().run(
        &records,
        Algorithm::PageRank { iterations: 3 },
        BaselineConfig {
            workers: 4,
            worker_ram,
        },
    );
    assert!(graphlab.is_err(), "GraphLab should OOM here");

    // Pregelix at the same point: completes, with correct results.
    let cluster = Cluster::new(ClusterConfig::new(4, worker_ram)).unwrap();
    let job = PregelixJob::new("ooc-survive");
    let program = Arc::new(PageRank::new(3));
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.supersteps, 4);
    let adjacency: Vec<(u64, Vec<u64>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    let expected = pregelix::algorithms::pagerank::reference_pagerank(&adjacency, 0.85, 3);
    for (v, (evid, erank)) in graph
        .collect_vertices::<PageRank>()
        .unwrap()
        .iter()
        .zip(expected.iter())
    {
        assert_eq!(v.vid, *evid);
        assert!((v.value - erank).abs() < 1e-9);
    }
}

#[test]
fn groupby_spills_when_message_volume_exceeds_budget() {
    // A dense graph at tiny RAM: the sort-based group-by must spill runs.
    let records = webmap::webmap(13, 12.0, 62);
    let (_vals, summary) = pagerank_values(&records, 96 << 10);
    let stats = summary.stats;
    assert!(
        stats.sort_runs_spilled > 0,
        "message combination should have spilled: {stats:?}"
    );
}

/// §5.4: a `Msg` run spills only when what the worker's group-by budget
/// leaves cannot hold it. PageRank on 16 384 vertices in one partition, cut
/// off after three supersteps so the graph still holds the run feeding the
/// fourth: about 270 KB, larger than any fixed threshold of a few frames
/// (eight 16 KiB frames is 128 KiB). At 16 MiB the cache holds the graph
/// and every run fits, so the run phase writes no byte to disk and no
/// `msg-*.run` file exists. At 1 MiB (a windowed fold table) and 192 KiB
/// (the sort path) the held run is a file.
#[test]
fn msg_runs_spill_only_past_what_the_budget_leaves() {
    let records = webmap::webmap(14, 6.0, 63);
    for (ram, spills) in [(16 << 20, false), (1 << 20, true), (192 << 10, true)] {
        let cluster = Cluster::new(ClusterConfig::new(1, ram)).unwrap();
        let job = PregelixJob::new("ooc-spill").with_max_supersteps(3);
        let program = Arc::new(PageRank::new(10));
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        let root = cluster.worker(0).file_manager().root().to_path_buf();
        let held: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("msg-") && name.ends_with(".run"))
            .collect();
        assert_eq!(held.len(), usize::from(spills), "{ram}: {held:?}");
        if !spills {
            assert_eq!(summary.stats.cache_evictions, 0, "{ram}");
            assert_eq!(summary.stats.disk_write_bytes, 0, "{ram}: no run-file byte");
        }
        drop(graph);
    }
}

/// A run holds at least eight frames, whatever the sender's fold leaves
/// it. A sort-path job budgets its sorter the whole group-by budget, yet a
/// 64-vertex PageRank's `Msg` runs, and the left-outer plan's `Vid` runs,
/// stay in memory: no run file is written or held.
#[test]
fn sort_path_runs_hold_eight_frames_in_memory() {
    let records = webmap::webmap(6, 4.0, 61);
    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let cluster = Cluster::new(ClusterConfig::new(1, 16 << 20)).unwrap();
        let job = PregelixJob::new("ooc-sort").with_join(join).with_max_supersteps(3);
        let program = Arc::new(SortPath(PageRank::new(10)));
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        assert_eq!(summary.sender_fold, SenderFold::SortVariableWidth, "{join:?}");
        let root = cluster.worker(0).file_manager().root().to_path_buf();
        let runs: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".run"))
            .collect();
        assert!(runs.is_empty(), "{join:?}: {runs:?}");
        assert_eq!(summary.stats.disk_write_bytes, 0, "{join:?}: no run-file byte");
        drop(graph);
    }
}
