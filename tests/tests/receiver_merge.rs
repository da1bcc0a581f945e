//! The receiver folds by address, it never sorts: `msgwrite[p]` folds the
//! senders' vid-ordered streams into its partition's table source by
//! source, so ties fold in one order fixed by construction — source index
//! — whichever sender's frames arrive first, whichever connector carries
//! them, and in a confined replay from the message logs. It drains every
//! stream to its end before it reads any, so bounded channels cannot
//! deadlock it.

use pregelix::common::error::Result;
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::common::hash_partition;
use pregelix::dataflow::connector::CHANNEL_FRAMES;
use pregelix::graphgen::webmap;
use pregelix::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTS: usize = 4;
/// What the sender in partition `p` sends the target: `f64` sums of these
/// round differently in different orders (1e16 + 1.0 is 1e16).
const CONTRIBUTION: [f64; PARTS] = [1e16, 1.0, -1e16, 1.0];

/// One sender vertex per partition, each sending its contribution to one
/// target vertex in superstep 1, folded by `+`. On a threaded cluster one
/// sender — `late`, a different one in every run — computes only once the
/// other three have sent everything: their message logs, written after a
/// `compute` task's last frame and `Fin`, are on the DFS. So its frame is
/// the last to reach the target's receiver.
struct LateSender {
    cluster: Arc<Cluster>,
    job: String,
    target: Vid,
    /// The partition whose sender finishes last; `None` on a sequential
    /// cluster, whose tasks run one after another anyway.
    late: Option<usize>,
}

impl VertexProgram for LateSender {
    type VertexValue = f64;
    type EdgeValue = ();
    type Message = f64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 && ctx.vid() != self.target {
            let part = hash_partition(ctx.vid(), PARTS);
            if Some(part) == self.late {
                let sent = |p| {
                    let log = format!("jobs/{}/msglog/1/src{p}", self.job);
                    p == part || self.cluster.dfs().exists(&log)
                };
                let deadline = Instant::now() + Duration::from_secs(60);
                while !(0..PARTS).all(sent) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!((0..PARTS).all(sent), "the other senders never finished");
            }
            ctx.send_message(self.target, CONTRIBUTION[part]);
        }
        if let Some(&sum) = ctx.messages().first() {
            ctx.set_value(sum);
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(vid, 0.0, Vec::new())
    }

    fn combiner(&self) -> Option<MessageCombiner<f64>> {
        Some(Arc::new(|a, b| a + b))
    }
}

/// How one run of [`LateSender`] is set up.
#[derive(Clone, Copy)]
struct Case {
    /// The partition whose sender finishes last, on a threaded cluster;
    /// `None` runs the tasks one after another.
    late: Option<usize>,
    groupby: GroupByStrategy,
    /// Kill the target's worker at the barrier before superstep 2, so that
    /// superstep 1 is replayed from the initial checkpoint and the logs.
    kill_target: bool,
}

/// The target's value after one run of [`LateSender`], with a message log
/// written every superstep: a checkpoint every superstep, or — when the
/// target's worker is killed — every second one, so that only the initial
/// checkpoint precedes the death.
fn late_sum(case: Case, run: usize) -> f64 {
    // The first vid of every partition sends; the next vid after them all
    // receives.
    let senders: Vec<Vid> = (0..PARTS)
        .map(|p| (0u64..).find(|&v| hash_partition(v, PARTS) == p).unwrap())
        .collect();
    let target = senders.iter().max().unwrap() + 1;
    let records: Vec<(Vid, Vec<(Vid, f64)>)> = senders
        .iter()
        .chain([&target])
        .map(|&v| (v, Vec::new()))
        .collect();
    let config = ClusterConfig::new(PARTS, 8 << 20);
    let config = if case.late.is_some() || case.kill_target {
        config
    } else {
        config.sequential_timed()
    };
    let cluster = Arc::new(Cluster::new(config).unwrap());
    let job = format!("late-{run}");
    let program = Arc::new(LateSender {
        cluster: Arc::clone(&cluster),
        job: job.clone(),
        target,
        late: case.late,
    });
    let plan = PlanConfig {
        groupby: case.groupby,
        ..PlanConfig::default()
    };
    let interval = if case.kill_target { 2 } else { 1 };
    let job = PregelixJob::new(job)
        .with_plan(plan)
        .with_checkpoint_interval(interval);
    let chaos = fault::exclusive();
    let faults = case.kill_target.then(|| {
        let worker = hash_partition(target, PARTS);
        chaos.install(FaultPlan::new().on(Site::Barrier, "2", 1, Fault::FailWorker(worker)))
    });
    let (summary, graph) = run_job_from_records(&cluster, &program, &job, records).unwrap();
    if let Some(faults) = faults {
        assert_eq!(faults.injected(), 1);
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.stats.confined_recoveries, 1);
        assert_eq!(summary.stats.confined_fallbacks, 0);
        assert!(summary.stats.log_runs_replayed > 0, "superstep 1 was replayed");
        chaos.clear();
    }
    drop(chaos);
    // The replay re-runs the target's partition, whose sender sends again.
    let resent = u64::from(case.kill_target);
    assert_eq!(summary.stats.messages_sent, PARTS as u64 + resent);
    assert!(summary.stats.msgs_folded_inbound >= PARTS as u64);
    let vertices = graph.collect_vertices::<LateSender>().unwrap();
    vertices.iter().find(|v| v.vid == target).unwrap().value
}

/// Source-index order over the four contributions `1e16, 1, -1e16, 1`:
/// `((1e16 + 1) - 1e16) + 1 = (1e16 - 1e16) + 1 = 1.0`, since `1e16 + 1`
/// rounds back to `1e16`. Folded in arrival order, the same four give 0.0,
/// 1.0 or 2.0 depending on which sender comes last.
const SOURCE_ORDER_SUM: f64 = 1.0;

fn case(late: Option<usize>, groupby: GroupByStrategy) -> Case {
    Case {
        late,
        groupby,
        kill_target: false,
    }
}

/// Four senders' ties at one vid fold in source order whichever sender
/// finishes last.
#[test]
fn ties_fold_in_source_order_whichever_sender_finishes_last() {
    let sequential = late_sum(case(None, GroupByStrategy::SortUnmerged), 0);
    assert_eq!(sequential.to_bits(), SOURCE_ORDER_SUM.to_bits());
    for run in 0..2 * PARTS {
        let late = case(Some(run % PARTS), GroupByStrategy::SortUnmerged);
        let threaded = late_sum(late, run + 1);
        assert_eq!(
            threaded.to_bits(),
            sequential.to_bits(),
            "run {run}: sender {} last gives {threaded}",
            run % PARTS
        );
    }
}

/// The same ties behind the merging connector, whose receiver reads one
/// sealed run per sender: the same bits, whichever sender finishes last.
#[test]
fn ties_fold_in_source_order_behind_the_merging_connector() {
    let sequential = late_sum(case(None, GroupByStrategy::SortMerged), 100);
    assert_eq!(sequential.to_bits(), SOURCE_ORDER_SUM.to_bits());
    for late in 0..PARTS {
        let threaded = late_sum(case(Some(late), GroupByStrategy::SortMerged), 101 + late);
        assert_eq!(
            threaded.to_bits(),
            sequential.to_bits(),
            "sender {late} last gives {threaded}"
        );
    }
}

/// The target's worker dies at the barrier after superstep 1, the initial
/// checkpoint is the only one, and the replayed `msgwrite` folds the four
/// logged sections: the same bits.
#[test]
fn ties_fold_in_source_order_in_a_confined_replay() {
    let replayed = late_sum(
        Case {
            late: None,
            groupby: GroupByStrategy::SortUnmerged,
            kill_target: true,
        },
        200,
    );
    assert_eq!(replayed.to_bits(), SOURCE_ORDER_SUM.to_bits());
}

/// PageRank over `records` on four workers with 512-byte frames: its values
/// by vid and the frames that crossed machines.
fn small_frame_pagerank(records: &[(Vid, Vec<(Vid, f64)>)], threaded: bool) -> (Vec<u64>, u64) {
    let mut config = ClusterConfig::new(PARTS, 8 << 20);
    config.frame_bytes = 512;
    let config = if threaded {
        config
    } else {
        config.sequential_timed()
    };
    let cluster = Cluster::new(config).unwrap();
    let job = PregelixJob::new("merge-bounded");
    let (summary, graph) = run_job_from_records(
        &cluster,
        &Arc::new(PageRank::new(3)),
        &job,
        records.to_vec(),
    )
    .unwrap();
    let values = graph.collect_vertices::<PageRank>().unwrap();
    let bits = values.iter().map(|v| v.value.to_bits()).collect();
    (bits, summary.stats.network_frames)
}

/// Every sender sends every receiver more frames than its share of a
/// bounded channel (`CHANNEL_FRAMES` per sender), so every receiver's
/// channel fills, and a receiver that waited on one sender while another
/// filled the channel would hang here. The run must finish, and compute
/// the sequential run's values to the bit.
#[test]
fn bounded_channels_cannot_deadlock_the_receiver_merge() {
    // Another test of this suite kills a worker at a barrier.
    let _chaos = fault::exclusive();
    let records = webmap::webmap(15, 8.0, 71);
    // A PageRank message tuple is 20 bytes (key, count, f64): 25 fit a
    // 512-byte frame. One combined tuple per sender and destination.
    let mut destinations = vec![std::collections::BTreeSet::new(); PARTS * PARTS];
    for (src, edges) in &records {
        for (dst, _) in edges {
            let stream = hash_partition(*src, PARTS) * PARTS + hash_partition(*dst, PARTS);
            destinations[stream].insert(*dst);
        }
    }
    let fewest = destinations
        .iter()
        .map(|d| d.len().div_ceil(25))
        .min()
        .unwrap();
    assert!(
        fewest > CHANNEL_FRAMES,
        "{fewest} frames on the thinnest stream"
    );

    let (sequential, sequential_frames) = small_frame_pagerank(&records, false);
    let (done, finished) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done.send(small_frame_pagerank(&records, true));
    });
    // The wait is only how a deadlocked merge fails the test instead of
    // hanging it.
    let (threaded, threaded_frames) = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("the threaded run never finished: the receiver merge deadlocked");
    runner.join().unwrap();
    assert_eq!(threaded_frames, sequential_frames);
    assert!(
        threaded == sequential,
        "threaded values differ from sequential ones"
    );
}
