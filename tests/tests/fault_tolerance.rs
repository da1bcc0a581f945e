//! Checkpointing and recovery (§5.5, §5.7) under *deterministic* injected
//! faults.
//!
//! Every scenario here drives the failure manager through the
//! [`pregelix::common::fault`] harness: faults fire at exact event counts
//! (a superstep barrier, the nth write of a named file, the first frame of
//! a labeled connector stream), never on a timer. Each test therefore
//! asserts *exact* recovery/retry counts and bit-identical final vertex
//! values against a no-fault reference run — not the "recovered at least
//! once, values look right" a sleep-based saboteur could support.
//!
//! Every test holds [`fault::exclusive`], which serializes the whole binary
//! within the process and uninstalls any plan on drop — even plan-free
//! tests take it, since barrier scopes are bare superstep numbers that any
//! concurrent job could otherwise consume. When the
//! `CHAOS_DIGEST` env var names a file, each scenario appends its
//! deterministic counters to it; CI runs the suite twice and diffs the two
//! digests to prove end-to-end determinism.

use integration_tests::assert_no_temp_files;
use pregelix::common::error::{PregelixError, Result};
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::graphgen::btc;
use pregelix::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A chain component `start — start+1 — … — start+len-1` (symmetric edges).
/// Min-label CC over a chain of length `L` takes exactly `L + 1` supersteps
/// (the label walks one hop per superstep, plus one quiet superstep to
/// halt), which makes superstep counts predictable for barrier targeting.
fn chain(start: u64, len: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
    (0..len)
        .map(|i| {
            let vid = start + i;
            let mut edges = Vec::new();
            if i > 0 {
                edges.push((vid - 1, 1.0));
            }
            if i + 1 < len {
                edges.push((vid + 1, 1.0));
            }
            (vid, edges)
        })
        .collect()
}

/// Two chain components: min labels 0 and 100. 9 supersteps total.
fn two_chains() -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut records = chain(0, 8);
    records.extend(chain(100, 6));
    records
}

fn reference_cc(records: &[(u64, Vec<(u64, f64)>)]) -> std::collections::HashMap<u64, u64> {
    let adjacency: Vec<(u64, Vec<u64>)> = records
        .iter()
        .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
        .collect();
    pregelix::algorithms::connected_components::reference_components(&adjacency)
}

/// The final `(vid, value)` relation, sorted by vid — the bit-identical
/// comparison unit between faulted and no-fault runs.
fn cc_values(graph: &LoadedGraph) -> Vec<(u64, u64)> {
    graph
        .collect_vertices::<ConnectedComponents>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, v.value))
        .collect()
}

/// Run `job` over `records` on a fresh cluster with no faults installed;
/// returns the reference summary and values. Callers do this *before*
/// installing their plan (the chaos guard is already held).
fn no_fault_reference(
    workers: usize,
    job: &PregelixJob,
    records: &[(u64, Vec<(u64, f64)>)],
) -> (JobSummary, Vec<(u64, u64)>) {
    let cluster = Cluster::new(ClusterConfig::new(workers, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, job, records.to_vec()).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(summary.retries, 0);
    let values = cc_values(&graph);
    (summary, values)
}

/// This suite's line in `$CHAOS_DIGEST` (see [`integration_tests::chaos_digest`]).
fn chaos_digest(scenario: &str, summary: &JobSummary, injected: u64, values: &[(u64, u64)]) {
    integration_tests::chaos_digest(
        scenario,
        "recoveries retries supersteps injected probes redesc radixn conf cfb \
         logw logr ckret slaba slabr fcopy fold fspill stray jcmp jmsgs jcomb",
        summary,
        injected,
        integration_tests::values_hash(values),
    );
}

// ---------------------------------------------------------------------------
// Worker failure at exact superstep boundaries
// ---------------------------------------------------------------------------

/// The tentpole sweep: power off a worker at the barrier before *every*
/// superstep of the job, one run per superstep, and require exactly one
/// recovery and bit-identical final values every time.
#[test]
fn worker_failure_at_every_superstep_recovers_to_identical_values() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-sweep").with_checkpoint_interval(1);
    let (reference, expected) = no_fault_reference(4, &job, &records);
    let total = reference.supersteps;
    assert!(total >= 5, "chain graph should take several supersteps, got {total}");

    let program = Arc::new(ConnectedComponents);
    for ss in 1..=total {
        let plan = guard.install(FaultPlan::new().on(
            Site::Barrier,
            &ss.to_string(),
            1,
            Fault::FailWorker(2),
        ));
        let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        assert_eq!(summary.recoveries, 1, "exactly one recovery at superstep {ss}");
        assert_eq!(summary.retries, 0, "worker loss is not an in-place retry");
        assert_eq!(plan.injected(), 1, "superstep {ss}");
        assert_eq!(cluster.alive_workers(), vec![0, 1, 3]);
        assert_eq!(
            summary.stats.workers_declared_dead, 1,
            "the failure detector formally declared worker 2 dead"
        );
        assert_eq!(cc_values(&graph), expected, "values after failure at superstep {ss}");
        assert_no_temp_files(&cluster);
        chaos_digest(&format!("sweep-ss{ss}"), &summary, plan.injected(), &expected);
        guard.clear();
    }
}

/// A second failure while the first recovery is still in progress: the
/// first manifest read of the recovery fails (transiently), the failure
/// manager loops, and the second recovery attempt succeeds. Exactly two
/// recoveries, same final values.
#[test]
fn double_failure_during_recovery_recovers_twice() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-double").with_checkpoint_interval(1);
    let (_, expected) = no_fault_reference(4, &job, &records);

    let plan = guard.install(
        FaultPlan::new()
            .on(Site::Barrier, "3", 1, Fault::FailWorker(1))
            .on(Site::DfsRead, "jobs/ft-double/ckpt-manifests", 1, Fault::IoError),
    );
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 2, "failed recovery + successful recovery");
    assert_eq!(plan.injected(), 2);
    assert_eq!(cc_values(&graph), expected);
    assert_no_temp_files(&cluster);
    chaos_digest("double-failure", &summary, plan.injected(), &expected);
}

/// Without checkpoints there is nothing to recover from: the worker
/// failure must surface to the caller as the original recoverable error,
/// not hang or panic.
#[test]
fn failure_without_checkpoints_surfaces_the_error() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-nockpt"); // no checkpoint interval
    guard.install(FaultPlan::new().on(Site::Barrier, "2", 1, Fault::FailWorker(1)));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let err = run_job_from_records(&cluster, &program, &job, records).unwrap_err();
    assert!(
        matches!(err, PregelixError::WorkerDead { id: 1 }),
        "the original failure surfaces: {err}"
    );
    assert!(err.is_recoverable());
}

// ---------------------------------------------------------------------------
// Failures during checkpoint writes
// ---------------------------------------------------------------------------

/// A checkpoint-write failure with in-place retries disabled consumes a
/// full checkpoint recovery: the job replays from the newest *complete*
/// checkpoint (the failed one never got its manifest) and still converges
/// to identical values.
#[test]
fn checkpoint_write_failure_without_retries_forces_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-cw")
        .with_checkpoint_interval(1)
        .with_io_retries(0);
    let (_, expected) = no_fault_reference(4, &job, &records);

    let plan = guard.install(FaultPlan::new().on(
        Site::DfsWrite,
        "jobs/ft-cw/ckpt/3",
        1,
        Fault::IoError,
    ));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1);
    assert_eq!(summary.retries, 0, "io_retries(0) must not retry in place");
    assert_eq!(plan.injected(), 1);
    assert_eq!(cluster.alive_workers(), vec![0, 1, 2, 3], "no worker died");
    assert_eq!(cc_values(&graph), expected);
    assert_no_temp_files(&cluster);
    chaos_digest("ckpt-write-recovery", &summary, plan.injected(), &expected);
}

/// The same transient fault with default `io_retries` is absorbed by the
/// in-place retry (§5.7): one retry, zero recoveries.
#[test]
fn transient_checkpoint_write_failure_is_absorbed_by_retry() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-cwr").with_checkpoint_interval(1); // default retries
    let (_, expected) = no_fault_reference(4, &job, &records);

    let plan = guard.install(FaultPlan::new().on(
        Site::DfsWrite,
        "jobs/ft-cwr/ckpt/3",
        1,
        Fault::IoError,
    ));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 0, "the retry absorbs the transient fault");
    assert_eq!(summary.retries, 1);
    assert_eq!(plan.injected(), 1);
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("ckpt-write-retry", &summary, plan.injected(), &expected);
}

/// A torn manifest write (a crash mid-write leaves a 5-byte prefix at the
/// real path): recovery must reject the torn manifest and fall back to the
/// previous complete checkpoint rather than failing the job or trusting
/// garbage.
#[test]
fn torn_manifest_falls_back_to_previous_checkpoint() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-torn")
        .with_checkpoint_interval(1)
        .with_io_retries(0);
    let (reference, expected) = no_fault_reference(4, &job, &records);
    assert!(reference.supersteps >= 4, "need superstep 4's checkpoint to exist");

    let plan = guard.install(FaultPlan::new().on(
        Site::DfsWrite,
        "jobs/ft-torn/ckpt-manifests/4",
        1,
        Fault::TornWrite { keep: 5 },
    ));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1, "recovered past the torn manifest");
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.supersteps, reference.supersteps);
    assert_eq!(cc_values(&graph), expected);
    assert_no_temp_files(&cluster);
    chaos_digest("torn-manifest", &summary, plan.injected(), &expected);
}

// ---------------------------------------------------------------------------
// Storage and connector fault sites
// ---------------------------------------------------------------------------

/// An I/O error while writing the partition-local Msg run mid-superstep is
/// recoverable infrastructure failure: one recovery, no worker lost,
/// identical values.
#[test]
fn msg_run_write_failure_recovers_without_losing_a_worker() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-rw").with_checkpoint_interval(1);
    let (_, expected) = no_fault_reference(1, &job, &records);

    let plan = guard.install(FaultPlan::new().on(
        Site::RunWrite,
        "msg-ft-rw-p0",
        1,
        Fault::IoError,
    ));
    let cluster = Cluster::new(ClusterConfig::new(1, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1);
    assert_eq!(plan.injected(), 1);
    assert_eq!(cluster.alive_workers(), vec![0]);
    assert_eq!(cc_values(&graph), expected);
    assert_no_temp_files(&cluster);
    chaos_digest("msg-run-write", &summary, plan.injected(), &expected);
}

/// The same failure in superstep 3, and then the recovery's first manifest
/// read fails too. The failed superstep left partitions between supersteps
/// (its `compute` consumed their `Msg` runs), so nothing may run on them
/// until a second recovery has reloaded them all: two recoveries, identical
/// values. Re-running superstep 3 on them instead loses its messages.
#[test]
fn failed_recovery_after_a_mid_superstep_failure_recovers_before_rerunning() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-rw2").with_checkpoint_interval(1);
    let (_, expected) = no_fault_reference(1, &job, &records);

    let plan = guard.install(
        FaultPlan::new()
            .on(Site::RunWrite, "msg-ft-rw2-p0", 3, Fault::IoError)
            .on(Site::DfsRead, "jobs/ft-rw2/ckpt-manifests", 1, Fault::IoError),
    );
    let cluster = Cluster::new(ClusterConfig::new(1, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(plan.injected(), 2);
    assert_eq!(cc_values(&graph), expected);
    assert_eq!(summary.recoveries, 2, "the failed recovery is retried before any superstep");
    assert_no_temp_files(&cluster);
}

/// A dropped global-state frame is *absorbed by the transport*: the drop
/// is counted where it fires and the frame sent once, the job completes
/// with zero recoveries, and the global halt
/// decision is computed from complete reports — bit-identical to the
/// no-fault run.
#[test]
fn dropped_gs_frame_is_retransmitted_not_fatal() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-gs");
    let (reference, expected) = no_fault_reference(4, &job, &records);

    let plan = guard.install(FaultPlan::new().on(Site::FrameSend, "gs", 1, Fault::DropFrame));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 0, "wire loss never consumes a recovery");
    assert_eq!(plan.injected(), 1);
    assert_eq!(
        summary.stats.frames_retransmitted, 1,
        "the dropped report frame was counted once"
    );
    assert_eq!(summary.supersteps, reference.supersteps);
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("drop-gs-frame", &summary, plan.injected(), &expected);
}

/// A dropped run-handle in the materialized (merging) connector is
/// counted where it fires and the run sent once: zero recoveries, one
/// retransmission counted, identical values.
#[test]
fn dropped_merge_handle_is_recovered_in_place() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-merge").with_groupby(GroupByStrategy::SortMerged);
    let (_, expected) = no_fault_reference(2, &job, &records);

    let plan = guard.install(FaultPlan::new().on(Site::FrameSend, "merge", 1, Fault::DropFrame));
    let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.stats.frames_retransmitted, 1, "the handle's drop counted");
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("drop-merge-handle", &summary, plan.injected(), &expected);
}

/// A duplicated message frame is counted as a dedup where it fires and the
/// frame sent once — combiner or not, delivery stays exactly-once: no
/// recovery, the dedup counter moves, values and superstep count are
/// bit-identical.
#[test]
fn duplicated_msg_frame_is_deduplicated_by_seq() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-dup");
    let (reference, expected) = no_fault_reference(1, &job, &records);

    let plan =
        guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DuplicateFrame));
    let cluster = Cluster::new(ClusterConfig::new(1, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.stats.frames_deduped, 1, "the duplicate was counted");
    assert_eq!(summary.supersteps, reference.supersteps);
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("dup-msg-frame", &summary, plan.injected(), &expected);
}

// ---------------------------------------------------------------------------
// The §5.7 recoverability split, end to end
// ---------------------------------------------------------------------------

/// Min-label CC whose `compute` fails by `fail` (a user error, corrupt
/// bytes, a panic) the first time vertex 0 runs at superstep 3, counting how
/// often that poisoned invocation executes.
struct FailingCc {
    raised: AtomicU64,
    fail: fn() -> Result<()>,
}

impl VertexProgram for FailingCc {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 3 && ctx.vid() == 0 {
            self.raised.fetch_add(1, Ordering::Relaxed);
            return (self.fail)();
        }
        min_label_step(ctx);
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        labelled_by_vid(vid, edges)
    }
}

/// One superstep of min-label propagation, for the programs of this suite
/// that are connected components plus a fault of their own.
fn min_label_step<P>(ctx: &mut ComputeContext<'_, P>)
where
    P: VertexProgram<VertexValue = u64, EdgeValue = (), Message = u64>,
{
    let mut min_label = if ctx.superstep() == 1 {
        ctx.vid()
    } else {
        *ctx.value()
    };
    for m in ctx.messages() {
        min_label = min_label.min(*m);
    }
    if ctx.superstep() == 1 || min_label < *ctx.value() {
        ctx.set_value(min_label);
        ctx.send_message_to_all_edges(min_label);
    }
    ctx.vote_to_halt();
}

fn labelled_by_vid<P>(vid: u64, edges: Vec<(u64, f64)>) -> VertexData<P>
where
    P: VertexProgram<VertexValue = u64, EdgeValue = (), Message = u64>,
{
    VertexData::new(
        vid,
        vid,
        edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
    )
}

/// A user-code error mid-superstep must NOT trigger checkpoint replay,
/// even with checkpointing on: §5.7 forwards application exceptions to the
/// end user. The poisoned `compute` runs exactly once — replaying it would
/// run it again (and, being deterministic, fail again forever).
#[test]
fn user_error_mid_superstep_is_forwarded_not_replayed() {
    let guard = fault::exclusive();
    // Plan installed but *empty*: proves the split holds with the injection
    // machinery active, and keeps concurrent tests from installing plans.
    guard.install(FaultPlan::new());
    let records = two_chains();
    let job = PregelixJob::new("ft-user").with_checkpoint_interval(1);
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(FailingCc {
        raised: AtomicU64::new(0),
        fail: || Err(PregelixError::user("deliberate UDF failure at superstep 3")),
    });
    let err = run_job_from_records(&cluster, &program, &job, records).unwrap_err();
    assert!(
        matches!(&err, PregelixError::User(m) if m.contains("superstep 3")),
        "user error must surface untouched: {err}"
    );
    assert!(!err.is_recoverable());
    assert_eq!(
        program.raised.load(Ordering::Relaxed),
        1,
        "the failing compute must not be replayed from a checkpoint"
    );
}

/// A compute task that fails for a reason replay cannot fix — corrupt
/// bytes, or a panic (caught as an internal error) — leaves its `msg`,
/// `mut` and `gs` streams without a `Fin`. On a threaded cluster the
/// receivers' truncation errors must not outrank it: the job surfaces the
/// task's own error and consumes no recovery, even with checkpointing on.
#[test]
fn non_recoverable_task_failure_outranks_the_streams_it_truncates() {
    let guard = fault::exclusive();
    guard.install(FaultPlan::new());
    let cases: [(fn() -> Result<()>, &str); 2] = [
        (
            || Err(PregelixError::corrupt("deliberate corrupt bytes")),
            "corrupt data: deliberate corrupt bytes",
        ),
        (
            || panic!("deliberate panic in compute"),
            "task panicked: deliberate panic in compute",
        ),
    ];
    for (fail, expected) in cases {
        let job = PregelixJob::new("ft-fatal").with_checkpoint_interval(1);
        let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
        let program = Arc::new(FailingCc {
            raised: AtomicU64::new(0),
            fail,
        });
        let err = run_job_from_records(&cluster, &program, &job, two_chains()).unwrap_err();
        assert!(
            err.to_string().contains(expected),
            "the task's own error must surface: {err}"
        );
        assert!(!err.is_recoverable(), "{err}");
        assert_eq!(
            program.raised.load(Ordering::Relaxed),
            1,
            "{expected}: the failing compute must not be replayed from a checkpoint"
        );
    }
}

/// Connected components, combined by `min`, that switches worker 2 off when
/// `compute[2]` (on that worker, one partition each over four) reaches its
/// 600th vertex of superstep 2: a machine lost in the middle of a
/// superstep, its own task some hundred kilobytes of messages into its
/// spills and every other task half-way through talking to it. Before it
/// pulls the plug it waits until the other three `compute` tasks have
/// written their message logs — that is, sent every frame and `Fin` they
/// had — so the receivers hold those frames queued, waiting only for
/// partition 2's stream.
struct PowerCutCc {
    cluster: Arc<Cluster>,
    calls: AtomicU64,
    /// Whether the other senders were done when the power went.
    others_sent: AtomicBool,
}

impl VertexProgram for PowerCutCc {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 2
            && pregelix::common::hash_partition(ctx.vid(), 4) == 2
            && self.calls.fetch_add(1, Ordering::Relaxed) == 600
        {
            let logged = |p| {
                let path = format!("jobs/ft-powercut/msglog/2/src{p}");
                self.cluster.dfs().exists(&path)
            };
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while ![0, 1, 3].into_iter().all(logged) && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            self.others_sent
                .store([0, 1, 3].into_iter().all(logged), Ordering::Relaxed);
            self.cluster.fail_worker(2);
        }
        min_label_step(ctx);
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        labelled_by_vid(vid, edges)
    }

    fn combiner(&self) -> Option<MessageCombiner<u64>> {
        Some(Arc::new(|a, b| *a.min(b)))
    }
}

/// A worker lost mid-superstep on a job whose senders spill fold windows
/// takes down every task that was talking to it: its own `compute` between
/// its first spill and its drain, and every receiver with the other
/// senders' frames queued for its merge. The receivers never sort, so
/// nothing spills there. The job rolls back to its checkpoint and completes
/// on the survivors, and no worker's disk (the dead one's included) is left
/// holding a temporary run: whoever held one when its task ended deleted
/// it.
#[test]
fn worker_lost_mid_superstep_leaves_no_temporary_run_behind() {
    let _guard = fault::exclusive();
    let records = btc::btc(5_000, 4.0, 31);
    let expected = reference_cc(&records);
    // 256 KiB workers: a 32 KiB group-by budget, so three fold windows at
    // the senders.
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 256 << 10)).unwrap());
    let program = Arc::new(PowerCutCc {
        cluster: Arc::clone(&cluster),
        calls: AtomicU64::new(0),
        others_sent: AtomicBool::new(false),
    });
    let job = PregelixJob::new("ft-powercut").with_checkpoint_interval(1);
    let (summary, graph) = run_job_from_records(&cluster, &program, &job, records).unwrap();
    assert_eq!(
        summary.recoveries, 1,
        "mid-superstep death: one recovery of every partition"
    );
    assert_eq!(summary.stats.confined_recoveries, 0);
    assert_eq!(
        summary.stats.confined_fallbacks, 0,
        "not a clean death: no replay was ever on offer"
    );
    assert_eq!(cluster.alive_workers(), vec![0, 1, 3]);
    assert!(
        matches!(summary.sender_fold, SenderFold::Direct { windows: 3, .. }),
        "{}",
        summary.sender_fold
    );
    assert!(
        program.others_sent.load(Ordering::Relaxed),
        "the receivers held the other senders' frames"
    );
    assert!(summary.stats.msgs_fold_spilled > 0, "senders spilled");
    assert_eq!(summary.stats.sort_runs_spilled, 0, "nothing sorts");
    for (vid, label) in cc_values(&graph) {
        assert_eq!(label, expected[&vid], "vid {vid}");
    }
    assert_no_temp_files(&cluster);
}

/// Connected components that, at its first vertex of superstep 4, cuts the
/// last byte off every `Msg` run of the checkpoint feeding that superstep
/// and switches worker 2 off.
struct TruncateCheckpointCc {
    cluster: Arc<Cluster>,
    job: String,
    truncated: AtomicU64,
}

impl VertexProgram for TruncateCheckpointCc {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 4 && self.truncated.fetch_add(1, Ordering::Relaxed) == 0 {
            let dfs = self.cluster.dfs();
            for p in 0..4 {
                let path = format!("jobs/{}/ckpt/4/msg-p{p}", self.job);
                if dfs.exists(&path) {
                    let bytes = dfs.read(&path)?;
                    dfs.write(&path, &bytes[..bytes.len() - 1])?;
                }
            }
            self.cluster.fail_worker(2);
        }
        min_label_step(ctx);
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        labelled_by_vid(vid, edges)
    }
}

/// A worker lost mid-superstep when the only checkpoint left (older ones
/// were retired) has truncated `Msg` runs: recovery reloads every
/// partition, every reload of a truncated run fails, the checkpoint is
/// skipped, none is older, and the original failure surfaces — with no
/// half-restored run left on any worker's disk.
#[test]
fn truncated_checkpointed_msg_run_surfaces_the_failure_and_leaves_nothing_behind() {
    let _guard = fault::exclusive();
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap());
    let program = Arc::new(TruncateCheckpointCc {
        cluster: Arc::clone(&cluster),
        job: "ft-trunc".to_string(),
        truncated: AtomicU64::new(0),
    });
    let job = PregelixJob::new("ft-trunc").with_checkpoint_interval(1);
    let err = run_job_from_records(&cluster, &program, &job, two_chains()).unwrap_err();
    assert!(err.is_recoverable(), "the worker loss surfaces, not the corruption: {err}");
    assert_eq!(cluster.alive_workers(), vec![0, 1, 3]);
    assert_no_temp_files(&cluster);
}

// ---------------------------------------------------------------------------
// Plan coverage: LOJ recovery, clearing, determinism
// ---------------------------------------------------------------------------

/// LOJ recovery must restore the Vid live-vertex run from the checkpoint
/// (a BTC-style graph rather than chains, to exercise realistic fan-out).
#[test]
fn recovery_works_with_left_outer_join_plans_too() {
    let guard = fault::exclusive();
    let records = btc::btc(3_000, 5.0, 52);
    let expected = reference_cc(&records);
    let job = PregelixJob::new("ft-loj")
        .with_join(JoinStrategy::LeftOuter)
        .with_checkpoint_interval(1);
    guard.install(FaultPlan::new().on(Site::Barrier, "3", 1, Fault::FailWorker(3)));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1);
    assert_eq!(cluster.alive_workers(), vec![0, 1, 2]);
    for v in graph.collect_vertices::<ConnectedComponents>().unwrap() {
        assert_eq!(v.value, expected[&v.vid], "vid {}", v.vid);
    }
    assert_no_temp_files(&cluster);
}

#[test]
fn checkpoint_files_are_cleared_after_run_job() {
    // Holds the chaos lock even though it installs no plan: barrier-site
    // scopes are bare superstep numbers, so this job's supersteps would
    // otherwise consume a concurrently installed rule.
    let _guard = fault::exclusive();
    let records = btc::btc(1_000, 4.0, 54);
    let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
    pregelix::graphgen::text::write_to_dfs(cluster.dfs(), "input/ckpt-clear", &records)
        .unwrap();
    let job = PregelixJob::new("ckpt-clear")
        .with_io("input/ckpt-clear", "output/ckpt-clear")
        .with_checkpoint_interval(1);
    let program = Arc::new(ConnectedComponents);
    run_job(&cluster, &program, &job).unwrap();
    assert!(cluster
        .dfs()
        .list("jobs/ckpt-clear/ckpt-manifests")
        .unwrap()
        .is_empty());
}

/// The determinism rule, verified in-process: the same plan over the same
/// job produces identical recovery counters, superstep counts, injection
/// counts, and final values on every run.
#[test]
fn identical_plans_produce_identical_recovery_counters() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("ft-det").with_checkpoint_interval(1);
    let program = Arc::new(ConnectedComponents);

    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let plan = guard.install(
            FaultPlan::new()
                .on(Site::Barrier, "3", 1, Fault::FailWorker(1))
                .on(Site::DfsRead, "jobs/ft-det/ckpt-manifests", 1, Fault::IoError),
        );
        let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
        let (summary, graph) =
            run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
        outcomes.push((
            summary.recoveries,
            summary.retries,
            summary.supersteps,
            plan.injected(),
            cc_values(&graph),
        ));
        assert_no_temp_files(&cluster);
        guard.clear();
    }
    assert_eq!(outcomes[0], outcomes[1], "two identical runs must not diverge");
    let summary_like = &outcomes[0];
    assert_eq!(summary_like.0, 2, "both runs recover exactly twice");
}
