//! Multi-user behaviour (§7.4) and the statistics collector (§5.7) as
//! correctness properties: concurrent jobs on one shared cluster must
//! produce the same answers as serial ones, and the cluster counters must
//! add up.

use pregelix::common::error::Result;
use pregelix::common::hash_partition;
use pregelix::graphgen::{btc, webmap};
use pregelix::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

#[test]
fn concurrent_jobs_on_one_cluster_are_isolated_and_correct() {
    // Three different algorithms run simultaneously against the same
    // simulated machines (shared caches, disks, counters). Each must get
    // the answer it would get alone.
    let records = btc::btc(3_000, 5.0, 90);
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 16 << 20)).unwrap());

    let expected_cc = {
        let adjacency: Vec<(u64, Vec<u64>)> = records
            .iter()
            .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
            .collect();
        pregelix::algorithms::connected_components::reference_components(&adjacency)
    };
    let expected_sssp = pregelix::algorithms::sssp::reference_sssp(&records, 0);

    std::thread::scope(|s| {
        let c1 = Arc::clone(&cluster);
        let r1 = records.clone();
        let cc = s.spawn(move || {
            let job = PregelixJob::new("conc-cc");
            let (_s, g) =
                run_job_from_records(&c1, &Arc::new(ConnectedComponents), &job, r1).unwrap();
            g.collect_vertices::<ConnectedComponents>().unwrap()
        });
        let c2 = Arc::clone(&cluster);
        let r2 = records.clone();
        let sssp = s.spawn(move || {
            let job = PregelixJob::new("conc-sssp").with_join(JoinStrategy::LeftOuter);
            let (_s, g) =
                run_job_from_records(&c2, &Arc::new(ShortestPaths::new(0)), &job, r2).unwrap();
            g.collect_vertices::<ShortestPaths>().unwrap()
        });
        let c3 = Arc::clone(&cluster);
        let r3 = records.clone();
        let pr = s.spawn(move || {
            let job = PregelixJob::new("conc-pr");
            let (summary, _g) =
                run_job_from_records(&c3, &Arc::new(PageRank::new(4)), &job, r3).unwrap();
            summary
        });

        for v in cc.join().unwrap() {
            assert_eq!(v.value, expected_cc[&v.vid], "cc vid {}", v.vid);
        }
        for v in sssp.join().unwrap() {
            match expected_sssp.get(&v.vid) {
                Some(d) => assert!((v.value - d).abs() < 1e-9, "sssp vid {}", v.vid),
                None => assert_eq!(v.value, pregelix::algorithms::sssp::UNREACHED),
            }
        }
        let pr_summary = pr.join().unwrap();
        assert_eq!(pr_summary.supersteps, 5);
    });
}

/// Exact data-derived totals, per-superstep deltas that line up with the
/// supersteps and sum to the totals, and GS bookkeeping.
#[test]
fn statistics_counters_are_consistent_with_the_job() {
    let records = webmap::webmap(12, 6.0, 91); // 4096 vertices
    let cluster = Cluster::new(ClusterConfig::new(3, 16 << 20)).unwrap();
    let job = PregelixJob::new("stats");
    let program = Arc::new(PageRank::new(3));
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();

    let n = records.len() as u64;
    let edges: u64 = records.iter().map(|(_, e)| e.len() as u64).sum();
    // compute calls: every vertex active in every one of the 4 supersteps.
    assert_eq!(summary.stats.compute_calls, 4 * n);
    // messages sent: one per edge per sending superstep (1, 2, 3).
    assert_eq!(summary.stats.messages_sent, 3 * edges);
    // combined messages: at most one per destination per superstep, and
    // nonzero.
    assert!(summary.stats.messages_combined > 0);
    assert!(summary.stats.messages_combined <= 3 * n);
    // The combiner must have actually reduced volume.
    assert!(summary.stats.messages_combined < summary.stats.messages_sent);
    // Cross-worker traffic happened and was counted.
    assert!(summary.stats.network_bytes > 0);
    assert!(summary.stats.network_frames > 0);
    // GS bookkeeping.
    assert_eq!(summary.final_gs.vertex_count, n);
    assert!(summary.final_gs.halt);
    assert_eq!(graph.vertex_count(), n);
    // One stats entry and one time per superstep, in superstep order; the
    // final superstep sends nothing (everyone halts).
    assert_eq!(summary.superstep_stats.len() as u64, summary.supersteps);
    assert_eq!(summary.superstep_times.len() as u64, summary.supersteps);
    assert_eq!(summary.superstep_stats.last().unwrap().messages_sent, 0);
    // Per-superstep deltas sum to the job totals.
    let sum_calls: u64 = summary.superstep_stats.iter().map(|s| s.compute_calls).sum();
    assert_eq!(sum_calls, summary.stats.compute_calls);
    let sum_sent: u64 = summary.superstep_stats.iter().map(|s| s.messages_sent).sum();
    assert_eq!(sum_sent, summary.stats.messages_sent);
}

const PARTS: usize = 4;
const LAST_SUPERSTEP: u64 = 4;
/// What each partition's one vertex contributes: `f64` sums of these round
/// differently in different orders (1e16 + 1.0 is 1e16).
const CONTRIBUTION: [f64; PARTS] = [1e16, 1.0, -1e16, 1.0];

/// One vertex per partition, and in every superstep one partition — a
/// different one from superstep to superstep and from run to run — whose
/// vertex computes only once the other three have, so its partial is the
/// last to reach the `gs` task.
struct LateSum {
    /// The partition that computes last in superstep `s` is
    /// `(first_late + s) % PARTS`.
    first_late: usize,
    /// Per superstep, how many of the other partitions' vertices are done.
    done: Mutex<[usize; LAST_SUPERSTEP as usize + 1]>,
    turn: Condvar,
}

impl VertexProgram for LateSum {
    type VertexValue = f64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = f64;

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let s = ctx.superstep() as usize;
        let part = hash_partition(ctx.vid(), PARTS);
        let late = (self.first_late + s) % PARTS;
        if part == late {
            let mut done = self.done.lock().unwrap();
            while done[s] < PARTS - 1 {
                done = self.turn.wait(done).unwrap();
            }
        }
        ctx.aggregate(CONTRIBUTION[part]);
        if part != late {
            self.done.lock().unwrap()[s] += 1;
            self.turn.notify_all();
        }
        if ctx.superstep() == LAST_SUPERSTEP {
            ctx.vote_to_halt();
        }
        Ok(())
    }

    fn init_vertex(&self, vid: u64, _edges: Vec<(u64, f64)>) -> VertexData<Self> {
        VertexData::new(vid, 0.0, Vec::new())
    }

    fn combine_aggregates(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Partition partials reach the `gs` task in whatever order the threads and
/// the transport deliver them; the global aggregate must not depend on it.
#[test]
fn threaded_f64_aggregate_is_bit_identical_run_after_run() {
    let records: Vec<(u64, Vec<(u64, f64)>)> = (0..PARTS)
        .map(|p| (0u64..).find(|&v| hash_partition(v, PARTS) == p).unwrap())
        .map(|v| (v, Vec::new()))
        .collect();
    let mut first: Option<Vec<u8>> = None;
    for run in 0..10 {
        let program = Arc::new(LateSum {
            first_late: run % PARTS,
            done: Mutex::default(),
            turn: Condvar::new(),
        });
        let cluster = Cluster::new(ClusterConfig::new(PARTS, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("agg-{run}"));
        let (summary, _graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        assert_eq!(summary.supersteps, LAST_SUPERSTEP);
        assert!(!summary.final_gs.aggregate.is_empty());
        match &first {
            None => first = Some(summary.final_gs.aggregate),
            Some(want) => assert_eq!(&summary.final_gs.aggregate, want, "run {run}"),
        }
    }
}

#[test]
fn concurrent_jobs_with_spilling_message_files_do_not_collide() {
    // Regression test: Msg partition files are ping-pong-reused across
    // supersteps, so their paths must be namespaced by job — two
    // concurrent jobs whose message volume exceeds the in-memory run
    // threshold would otherwise overwrite each other's Msg state.
    let records = webmap::webmap(13, 8.0, 93); // big enough to spill runs
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap());
    let expected = {
        let adjacency: Vec<(u64, Vec<u64>)> = records
            .iter()
            .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
            .collect();
        pregelix::algorithms::pagerank::reference_pagerank(&adjacency, 0.85, 4)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|j| {
                let cluster = Arc::clone(&cluster);
                let records = records.clone();
                s.spawn(move || {
                    let job = PregelixJob::new(format!("collide-{j}"));
                    let (_s, g) =
                        run_job_from_records(&cluster, &Arc::new(PageRank::new(4)), &job, records)
                            .unwrap();
                    g.collect_vertices::<PageRank>().unwrap()
                })
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            for (v, (evid, erank)) in got.iter().zip(expected.iter()) {
                assert_eq!(v.vid, *evid);
                assert!((v.value - erank).abs() < 1e-9, "vid {}", v.vid);
            }
        }
    });
}

#[test]
fn single_worker_cluster_has_no_network_traffic() {
    let records = btc::btc(800, 4.0, 92);
    let cluster = Cluster::new(ClusterConfig::new(1, 16 << 20)).unwrap();
    let job = PregelixJob::new("local");
    let (summary, _g) =
        run_job_from_records(&cluster, &Arc::new(ConnectedComponents), &job, records).unwrap();
    assert_eq!(
        summary.stats.network_bytes, 0,
        "all messages stay on the single machine (Figure 1's local case)"
    );
}
