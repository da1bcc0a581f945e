//! A partition's files live exactly as long as its state. Once a job's
//! graph is gone — the job finished or failed, or recovery
//! replaced the partition — no worker root holds its page files
//! (`pf-*.dat`: the `Vertex` store), its `Msg` runs
//! (`msg-*.run`) or its `Vid` runs (`vid-*.run`), whichever way the job
//! was run.
//!
//! Every test holds [`fault::exclusive`]: the recovery scenario installs a
//! barrier fault whose scope is a bare superstep number.

use pregelix::common::error::{PregelixError, Result};
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::graphgen;
use pregelix::prelude::*;
use std::sync::Arc;

/// Every partition file on every worker root of `cluster`, read straight
/// off the disk.
fn partition_files(cluster: &Cluster) -> Vec<String> {
    let mut found = Vec::new();
    for id in 0..cluster.size() {
        for entry in std::fs::read_dir(cluster.worker(id).file_manager().root()).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            let page_file = name.starts_with("pf-") && name.ends_with(".dat");
            let run = name.ends_with(".run")
                && (name.starts_with("msg-") || name.starts_with("vid-"));
            if page_file || run {
                found.push(format!("worker-{id}/{name}"));
            }
        }
    }
    found.sort();
    found
}

/// Require every worker root of `cluster` to be free of partition files.
fn assert_released(cluster: &Cluster, what: &str) {
    let left = partition_files(cluster);
    assert!(left.is_empty(), "{what}: still on disk: {left:?}");
}

/// Two workers on which a 1 024-vertex PageRank's `Msg` and `Vid` runs
/// spill to files instead of staying in memory: a run holds what the
/// group-by budget (16 KiB) leaves after the fold table, and at least eight
/// frames, so both the budget and the frames are small.
fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        frame_bytes: 512,
        ..ClusterConfig::new(2, 128 << 10)
    }
}

/// A chain component `0 — 1 — … — len-1` (symmetric edges).
fn chain(len: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
    (0..len)
        .map(|v| {
            let mut edges = Vec::new();
            if v > 0 {
                edges.push((v - 1, 1.0));
            }
            if v + 1 < len {
                edges.push((v + 1, 1.0));
            }
            (v, edges)
        })
        .collect()
}

/// Run `job` on `records`, cut off after three supersteps, and return the
/// partition files its live graph held and its vertex count; then drop the
/// graph and require every one of those files gone.
fn held_until_dropped<P: VertexProgram>(
    cluster: &Cluster,
    program: P,
    job: PregelixJob,
    records: Vec<(u64, Vec<(u64, f64)>)>,
) -> (Vec<String>, u64) {
    let job = job.with_max_supersteps(3);
    let (_, graph) = run_job_from_records(cluster, &Arc::new(program), &job, records).unwrap();
    let held = (partition_files(cluster), graph.vertex_count());
    drop(graph);
    assert_released(cluster, job.id().tag());
    held
}

/// Floods its vid along every edge and fails its job with a user error in
/// superstep 3: a tenant that dies holding files.
struct FailsInSuperstep3;

impl VertexProgram for FailsInSuperstep3 {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 3 {
            return Err(PregelixError::user("fails in superstep 3"));
        }
        ctx.send_message_to_all_edges(ctx.vid());
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        let edges = edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect();
        VertexData::new(vid, vid, edges)
    }
}

#[test]
fn dropped_graphs_leave_no_partition_files() {
    let _guard = fault::exclusive();
    let cluster = Cluster::new(small_cluster()).unwrap();
    let records = graphgen::webmap::webmap(10, 4.0, 5);
    // PageRank under both join plans (the left-outer one adds the `Vid` run,
    // which spills too). Cut off after three supersteps, each graph still
    // holds the `Msg` run feeding the fourth.
    for (name, join) in [
        ("pf-foj", JoinStrategy::FullOuter),
        ("pf-loj", JoinStrategy::LeftOuter),
    ] {
        let job = PregelixJob::new(name).with_join(join);
        let (held, _) = held_until_dropped(&cluster, PageRank::new(10), job, records.clone());
        assert!(
            held.iter().any(|f| f.contains("/pf-")) && held.iter().any(|f| f.contains("/msg-")),
            "{name}: a live graph holds page files and a spilled Msg run: {held:?}"
        );
        assert_eq!(
            held.iter().any(|f| f.contains("/vid-")),
            join == JoinStrategy::LeftOuter,
            "{name}: only the left-outer graph holds a spilled Vid run: {held:?}"
        );
    }
    // A mutating job: the first merge round of `PathMerge` deletes vertices
    // from the store and grows their heads' values before the cut-off.
    let chains = integration_tests::directed_chains((0..200).map(|c| 2 + c % 8));
    let job = PregelixJob::new("pf-merge");
    let (held, live) = held_until_dropped(&cluster, PathMerge::default(), job, chains.clone());
    assert!(
        held.iter().any(|f| f.contains("/pf-")),
        "pf-merge holds page files: {held:?}"
    );
    assert!(
        live < chains.len() as u64,
        "pf-merge deleted no vertex ({live} left)"
    );

    // Through `run_job`, which loads from and dumps to the DFS.
    graphgen::text::write_to_dfs(cluster.dfs(), "in/pf-dfs", &records).unwrap();
    let job = PregelixJob::new("pf-dfs").with_io("in/pf-dfs", "out/pf-dfs");
    run_job(&cluster, &Arc::new(PageRank::new(10)), &job).unwrap();
    assert_released(&cluster, "run_job");
}

#[test]
fn tenants_leave_no_partition_files_done_or_failed() {
    let _guard = fault::exclusive();
    let cluster = Cluster::new(small_cluster()).unwrap();
    let inputs = [
        ("pf-done", graphgen::webmap::webmap(10, 4.0, 7)),
        ("pf-fail", graphgen::webmap::webmap(9, 4.0, 8)),
    ];
    for (name, records) in &inputs {
        graphgen::text::write_to_dfs(cluster.dfs(), &format!("in/{name}"), records).unwrap();
    }
    let job =
        |name: &str| PregelixJob::new(name).with_io(format!("in/{name}"), format!("out/{name}"));
    // Two tenants as threads on one cluster: one finishes, one fails.
    std::thread::scope(|s| {
        let done = s.spawn(|| run_job(&cluster, &Arc::new(PageRank::new(5)), &job("pf-done")));
        let failed = s.spawn(|| run_job(&cluster, &Arc::new(FailsInSuperstep3), &job("pf-fail")));
        done.join().unwrap().unwrap();
        assert!(matches!(failed.join().unwrap(), Err(PregelixError::User(_))));
    });
    assert_released(&cluster, "tenants");
}

/// A job that fails clears its recovery state as a finished one does: its
/// checkpoint ladder, message logs and GS history go, and the job's own
/// error is what the caller sees.
#[test]
fn a_failed_job_leaves_no_recovery_state() {
    let _guard = fault::exclusive();
    let cluster = Cluster::new(small_cluster()).unwrap();
    let records = graphgen::webmap::webmap(9, 4.0, 8);
    graphgen::text::write_to_dfs(cluster.dfs(), "in/pf-fail-ckpt", &records).unwrap();
    let job = PregelixJob::new("pf-fail-ckpt")
        .with_io("in/pf-fail-ckpt", "out/pf-fail-ckpt")
        .with_checkpoint_interval(1);
    let err = run_job(&cluster, &Arc::new(FailsInSuperstep3), &job).unwrap_err();
    assert!(matches!(err, PregelixError::User(_)), "{err}");
    let left = integration_tests::recovery_state(&cluster, "pf-fail-ckpt");
    assert!(left.is_empty(), "the failed job leaked recovery state: {left:?}");
    assert_released(&cluster, "failed job");
}

#[test]
fn recovery_releases_the_partitions_it_replaces() {
    let guard = fault::exclusive();
    let records = chain(16);
    let program = Arc::new(ConnectedComponents);
    let job = PregelixJob::new("pf-recovery")
        .with_join(JoinStrategy::LeftOuter)
        .with_checkpoint_interval(2);
    let run = || {
        let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        let held = partition_files(&cluster).len();
        drop(graph);
        assert_released(&cluster, job.id().tag());
        (summary, held)
    };
    let (_, fault_free) = run();

    // Worker 2 dies cleanly at the barrier before superstep 4; its
    // partitions are reloaded on survivors from the checkpoint and replayed.
    let plan = guard.install(FaultPlan::new().on(Site::Barrier, "4", 1, Fault::FailWorker(2)));
    let (recovered, held) = run();
    assert_eq!(plan.injected(), 1);
    assert_eq!(recovered.stats.confined_recoveries, 1);
    assert_eq!(
        held, fault_free,
        "the replaced partitions' files went with them: the graph holds what a fault-free one does"
    );
}

/// A superstep that fails after some `msgwrite[p]` sealed their `Msg_{s+1}`
/// runs: the runs were never installed into a partition, and go with the
/// failed superstep. `msgwrite[1]@3` fails on sequential-timed workers,
/// after `msgwrite[0]@3` spilled its run to `msg-leak-p0-0.run` — the file
/// a fault-free run cut off after superstep 3 holds.
#[test]
fn a_failed_superstep_leaves_no_sealed_msg_run_behind() {
    let guard = fault::exclusive();
    let cluster = Cluster::new(small_cluster().sequential_timed()).unwrap();
    let program = Arc::new(PageRank::new(10));
    let job = PregelixJob::new("leak");
    let records = graphgen::webmap::webmap(10, 4.0, 5);
    let (held, _) = held_until_dropped(&cluster, PageRank::new(10), job.clone(), records.clone());
    assert!(
        held.contains(&"worker-0/msg-leak-p0-0.run".to_string()),
        "msgwrite[0]@3 spills its run: {held:?}"
    );
    let mut graph = LoadedGraph::load_from_records(&cluster, &program, &job, records).unwrap();
    let plan = guard.install(FaultPlan::new().on(Site::Stall, "leak:s3:p1", 1, Fault::IoError));
    assert!(graph.run(&cluster, &program, &job).is_err());
    assert_eq!(plan.injected(), 1);
    drop(graph);
    assert_released(&cluster, "a failed superstep");
}

#[test]
fn a_reload_onto_the_path_of_a_lost_msg_run_keeps_the_reloaded_run() {
    let guard = fault::exclusive();
    let records = graphgen::webmap::webmap(10, 4.0, 9);
    let program = Arc::new(PageRank::new(10));
    // Checkpoints feed supersteps 1, 4, 7, …. A death at the barrier before
    // superstep 6, with superstep 5's log torn, reloads every partition from
    // checkpoint 4; worker 0's partitions are reloaded where they are, and
    // the file of their `Msg_4` has the path of the spilled `Msg_6` they
    // hold (paths alternate on superstep parity).
    let job = PregelixJob::new("pf-reload").with_checkpoint_interval(3);
    let run = || {
        let cluster = Cluster::new(small_cluster()).unwrap();
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        let values: Vec<(u64, u64)> = graph
            .collect_vertices::<PageRank>()
            .unwrap()
            .into_iter()
            .map(|v| (v.vid, v.value.to_bits()))
            .collect();
        drop(graph);
        assert_released(&cluster, job.id().tag());
        (summary, values)
    };
    let (_, expected) = run();

    let plan = guard.install(
        FaultPlan::new()
            .on(
                Site::MsgLog,
                "jobs/pf-reload/msglog/5/src0",
                1,
                Fault::TornWrite { keep: 6 },
            )
            .on(Site::Barrier, "6", 1, Fault::FailWorker(1)),
    );
    let (summary, values) = run();
    assert_eq!(plan.injected(), 2);
    let s = &summary.stats;
    assert_eq!(
        (
            summary.recoveries,
            s.confined_recoveries,
            s.confined_fallbacks
        ),
        (1, 0, 1),
        "every partition reloaded"
    );
    assert_eq!(values, expected);
}
