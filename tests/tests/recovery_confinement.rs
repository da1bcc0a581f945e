//! The recovery ladder (§5.5): sender-side message logging with
//! partition-scoped checkpoint replay, differentially against reloading
//! every partition and against fault-free runs.
//!
//! The contract under test: when a worker dies cleanly at a superstep
//! boundary and the message logs are intact, the failure manager reloads
//! and replays ONLY the dead worker's partitions — survivors stay hot —
//! and the job still produces *bit-identical* vertex values, halting
//! superstep, and final global state as (a) the same failure recovered by
//! reloading every partition (a log hole forces it) and (b) a run with no
//! failure at all. Any log hole must trip the typed
//! `ConfinedRecoveryUnavailable` fallback (counted in `confined_fallbacks`)
//! rather than corrupt anything. Whichever rung recovers, no worker is left
//! holding a temporary file.
//!
//! Every test holds [`fault::exclusive`] (barrier scopes are bare superstep
//! numbers any concurrent job could consume). With `CHAOS_DIGEST` set, each
//! scenario appends its deterministic counters; CI runs the suite twice and
//! diffs the digests.

use pregelix::common::error::{PregelixError, Result};
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::graphgen::btc;
use pregelix::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A chain component `start — … — start+len-1` (symmetric edges).
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

/// Two chain components (min labels 0 and 100): long enough that a death at
/// superstep 4 happens after real work, small enough for CI.
fn two_chains() -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut records = chain(0, 8);
    records.extend(chain(100, 6));
    records
}

/// Run `program` over `records` on a fresh 4-worker cluster; returns the
/// summary and the `(vid, value-bits)` relation sorted by vid. f64 values
/// compare via `to_bits`, so "equal" means bit-equal.
fn run_case<P, F>(
    program: &Arc<P>,
    job: &PregelixJob,
    records: &[(u64, Vec<(u64, f64)>)],
    to_bits: &F,
) -> (JobSummary, Vec<(u64, u64)>)
where
    P: VertexProgram,
    F: Fn(&P::VertexValue) -> u64,
{
    run_case_with_ram(program, job, records, to_bits, 8 << 20)
}

/// [`run_case`] on workers of `worker_ram` bytes.
fn run_case_with_ram<P, F>(
    program: &Arc<P>,
    job: &PregelixJob,
    records: &[(u64, Vec<(u64, f64)>)],
    to_bits: &F,
    worker_ram: usize,
) -> (JobSummary, Vec<(u64, u64)>)
where
    P: VertexProgram,
    F: Fn(&P::VertexValue) -> u64,
{
    let cluster = Cluster::new(ClusterConfig::new(4, worker_ram)).unwrap();
    let (summary, graph) =
        run_job_from_records(&cluster, program, job, records.to_vec()).unwrap();
    integration_tests::assert_no_temp_files(&cluster);
    let mut values: Vec<(u64, u64)> = graph
        .collect_vertices::<P>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, to_bits(&v.value)))
        .collect();
    values.sort_unstable_by_key(|(vid, _)| *vid);
    (summary, values)
}

/// This suite's line in `$CHAOS_DIGEST` (see [`integration_tests::chaos_digest`]).
fn chaos_digest(scenario: &str, summary: &JobSummary, injected: u64, values: &[(u64, u64)]) {
    integration_tests::chaos_digest(
        scenario,
        "recoveries retries supersteps injected dead conf cfb logw logr ckret slaba slabr fcopy \
         fold fspill stray jcmp jmsgs jcomb",
        summary,
        injected,
        integration_tests::values_hash(values),
    );
}

/// The tentpole differential: for one program, run
///
/// 1. fault-free (reference),
/// 2. worker death at superstep `fail_at` with superstep `fail_at - 1`'s
///    source-0 message log torn, so recovery reloads EVERY partition,
/// 3. the same death with intact logs, recovered by reloading and
///    replaying only the dead partitions,
///
/// and require bit-identical values, halting supersteps, and final global
/// state across all three, plus the confined/fallback counters landing
/// exactly where the design says they must.
fn assert_confined_matches_global<P, F>(
    tag: &str,
    guard: &fault::ChaosGuard,
    program: &Arc<P>,
    ckpt_interval: u64,
    fail_at: u64,
    records: &[(u64, Vec<(u64, f64)>)],
    to_bits: F,
) where
    P: VertexProgram,
    F: Fn(&P::VertexValue) -> u64,
{
    let base_job = PregelixJob::new(format!("rc-{tag}")).with_checkpoint_interval(ckpt_interval);

    // 1. Fault-free reference. Logging is on (checkpointing is on), so the
    // tee must be writing logs even though nobody ever replays them.
    let (reference, expected) = run_case(program, &base_job, records, &to_bits);
    assert_eq!(reference.recoveries, 0, "{tag}: no faults, no recoveries");
    assert_eq!(reference.stats.confined_recoveries, 0, "{tag}");
    assert_eq!(reference.stats.confined_fallbacks, 0, "{tag}");
    assert!(
        reference.stats.log_bytes_written > 0,
        "{tag}: the message tee must persist logs when checkpointing is on"
    );
    assert!(fail_at < reference.supersteps, "{tag}: death must hit mid-job");

    // 2. Every partition lost: a log the replay would need is torn.
    let plan = guard.install(
        FaultPlan::new()
            .on(
                Site::MsgLog,
                &format!("jobs/rc-{tag}/msglog/{}/src0", fail_at - 1),
                1,
                Fault::TornWrite { keep: 6 },
            )
            .on(Site::Barrier, &fail_at.to_string(), 1, Fault::FailWorker(2)),
    );
    let (global, global_values) = run_case(program, &base_job, records, &to_bits);
    assert_eq!(plan.injected(), 2, "{tag}: both the torn log and the death fired");
    assert_eq!(global.recoveries, 1, "{tag}: every partition reloaded, one recovery");
    assert_eq!(global.stats.confined_recoveries, 0, "{tag}: the hole forbids replay");
    assert_eq!(global.stats.confined_fallbacks, 1, "{tag}: one counted fallback");
    chaos_digest(&format!("{tag}-global"), &global, plan.injected(), &global_values);
    guard.clear();

    // 3. Confined recovery (the default).
    let plan = guard.install(FaultPlan::new().on(
        Site::Barrier,
        &fail_at.to_string(),
        1,
        Fault::FailWorker(2),
    ));
    let (confined, confined_values) = run_case(program, &base_job, records, &to_bits);
    assert_eq!(plan.injected(), 1, "{tag}");
    assert_eq!(confined.recoveries, 1, "{tag}: confined path, one recovery");
    assert_eq!(
        confined.stats.confined_recoveries, 1,
        "{tag}: the recovery must have been confined"
    );
    assert_eq!(
        confined.stats.confined_fallbacks, 0,
        "{tag}: intact logs, no fallback"
    );
    chaos_digest(&format!("{tag}-confined"), &confined, plan.injected(), &confined_values);
    guard.clear();

    // The differential contract.
    assert_eq!(global_values, expected, "{tag}: all-partition recovery vs fault-free");
    assert_eq!(confined_values, expected, "{tag}: confined recovery vs fault-free");
    for (name, run) in [("global", &global), ("confined", &confined)] {
        assert_eq!(
            run.supersteps, reference.supersteps,
            "{tag}: {name} recovery must not shift the halting superstep"
        );
        assert_eq!(
            run.final_gs, reference.final_gs,
            "{tag}: {name} recovery must reproduce the final global state bit-for-bit"
        );
    }
}

// ---------------------------------------------------------------------------
// The differential harness: three programs
// ---------------------------------------------------------------------------

/// CC. `checkpoint_interval(2)` with the death at superstep 4
/// puts the newest checkpoint at superstep 3, so the confined path must
/// actually REPLAY superstep 3 from the survivors' logs (not just reload).
#[test]
fn cc_barrier_confined_replay_is_bit_identical() {
    let guard = fault::exclusive();
    let program = Arc::new(ConnectedComponents);
    assert_confined_matches_global(
        "cc-b",
        &guard,
        &program,
        2,
        4,
        &two_chains(),
        |v: &u64| *v,
    );
}

/// SSSP (f64 distances, unreachable component).
#[test]
fn sssp_barrier_confined_replay_is_bit_identical() {
    let guard = fault::exclusive();
    let program = Arc::new(ShortestPaths::new(0));
    assert_confined_matches_global(
        "sssp-b",
        &guard,
        &program,
        2,
        4,
        &two_chains(),
        |v: &f64| v.to_bits(),
    );
}

/// PageRank (global aggregate + `num_vertices` reads): the
/// replayed supersteps must see the exact per-superstep GS history —
/// aggregate drift would shift every downstream rank.
#[test]
fn pagerank_barrier_confined_replay_is_bit_identical() {
    let guard = fault::exclusive();
    let program = Arc::new(PageRank::new(8));
    assert_confined_matches_global(
        "pr-b",
        &guard,
        &program,
        2,
        4,
        &two_chains(),
        |v: &f64| v.to_bits(),
    );
}

// ---------------------------------------------------------------------------
// Replayed work is real and partition-scoped
// ---------------------------------------------------------------------------

/// The confined run with a checkpoint 1 superstep behind the death must
/// feed logged runs back through the combiner: `log_runs_replayed` > 0, and
/// bounded by (supersteps replayed) x (sources) x (dead partitions).
#[test]
fn confined_replay_consumes_logged_runs() {
    let guard = fault::exclusive();
    let records = btc::btc(2_000, 4.0, 77);
    let job = PregelixJob::new("rc-runs").with_checkpoint_interval(2);
    let program = Arc::new(ConnectedComponents);
    let (reference, expected) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert!(reference.supersteps > 4);

    let plan =
        guard.install(FaultPlan::new().on(Site::Barrier, "4", 1, Fault::FailWorker(2)));
    let (summary, values) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.stats.confined_recoveries, 1);
    assert_eq!(summary.stats.confined_fallbacks, 0);
    // Death at gs=4 with the newest checkpoint at 3: exactly one superstep
    // replayed, on exactly one dead partition, fed by at most one logged
    // run per source partition.
    assert!(
        summary.stats.log_runs_replayed > 0,
        "the replay must consume survivors' logged runs"
    );
    assert!(
        summary.stats.log_runs_replayed <= 4,
        "one superstep x one dead partition x <=4 sources, got {}",
        summary.stats.log_runs_replayed
    );
    assert_eq!(values, expected);
    chaos_digest("replay-runs", &summary, plan.injected(), &values);
}

/// Floods min labels until superstep 6 and counts the supersteps `compute`
/// ran on each vertex. At superstep 3 every even vertex inserts
/// `vid + 1000` and every vertex with `vid % 4 == 1` deletes itself; its
/// neighbours' next messages bring it back as a default vertex, so a
/// 64-chain ends with 96 vertices. An inserted vertex that `compute`
/// already sees in superstep 3 — a mutation applied too early — counts one
/// superstep too many.
struct MutatingFlood;

impl VertexProgram for MutatingFlood {
    /// `(label, supersteps computed)`.
    type VertexValue = (u64, u64);
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let (label, computed) = *ctx.value();
        let label = ctx.messages().iter().copied().fold(label, u64::min);
        ctx.set_value((label, computed + 1));
        if ctx.superstep() >= 6 {
            ctx.vote_to_halt();
            return Ok(());
        }
        if ctx.superstep() == 3 {
            if ctx.vid() % 2 == 0 {
                ctx.add_vertex(VertexData::new(ctx.vid() + 1000, (label, 0), Vec::new()));
            }
            if ctx.vid() % 4 == 1 {
                ctx.delete_vertex(ctx.vid());
            }
        }
        ctx.send_message_to_all_edges(label);
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        let edges = edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect();
        VertexData::new(vid, (vid, 0), edges)
    }

    fn combiner(&self) -> Option<MessageCombiner<u64>> {
        Some(Arc::new(|a: &u64, b: &u64| *a.min(b)))
    }
}

/// Replay's mutation leg: the death at superstep 4 replays superstep 3,
/// whose inserts and deletes bound for the lost partition come back out of
/// the survivors' logs. On a threaded cluster the replayed `mutate[p]` must
/// apply them only after the replayed `compute[p]` is done with the
/// partition, or the values differ from the no-fault run.
#[test]
fn confined_replay_applies_logged_mutations_after_compute() {
    let guard = fault::exclusive();
    let program = Arc::new(MutatingFlood);
    let records = chain(0, 64);
    let to_bits = |(label, computed): &(u64, u64)| label << 8 | computed;
    for (tag, join) in [("foj", JoinStrategy::FullOuter), ("loj", JoinStrategy::LeftOuter)] {
        let job = PregelixJob::new(format!("rc-mut-{tag}"))
            .with_join(join)
            .with_checkpoint_interval(2);
        let (reference, expected) = run_case(&program, &job, &records, &to_bits);
        assert_eq!(expected.len(), 96, "{tag}");

        let plan = guard.install(FaultPlan::new().on(Site::Barrier, "4", 1, Fault::FailWorker(2)));
        let (summary, values) = run_case(&program, &job, &records, &to_bits);
        assert_eq!(plan.injected(), 1, "{tag}");
        let s = &summary.stats;
        assert_eq!(
            (
                summary.recoveries,
                s.confined_recoveries,
                s.confined_fallbacks,
                s.log_runs_replayed
            ),
            (1, 1, 0, 3),
            "{tag}"
        );
        assert_eq!(summary.supersteps, reference.supersteps, "{tag}");
        assert_eq!(summary.final_gs, reference.final_gs, "{tag}");
        assert_eq!(values, expected, "{tag}");
        chaos_digest(&format!("mutating-confined-{tag}"), &summary, plan.injected(), &values);
        guard.clear();
    }
}

/// The same death on workers too small for the senders' fold tables: each
/// `compute[p]` covers the vids in three windows, two of them through spill
/// files, and tees what the drain emits — after every window was read back
/// — into its message log. The replayed partition's inbound messages come
/// out of those logs, so values equal to the no-fault run mean the tee saw
/// all three windows.
#[test]
fn confined_replay_reads_logs_the_windowed_fold_wrote() {
    let guard = fault::exclusive();
    let records = btc::btc(5_000, 4.0, 78);
    let job = PregelixJob::new("rc-windows").with_checkpoint_interval(2);
    let program = Arc::new(ConnectedComponents);
    // 256 KiB workers: a 32 KiB group-by budget, 1 984 table slots in its
    // half, two pages of spill buffer in its quarter.
    let ram = 256 << 10;
    let (reference, expected) = run_case_with_ram(&program, &job, &records, &|v: &u64| *v, ram);
    assert!(reference.supersteps > 4);
    assert!(
        matches!(reference.sender_fold, SenderFold::Direct { windows: 3, .. }),
        "{}",
        reference.sender_fold
    );
    assert!(reference.stats.msgs_fold_spilled > 0);

    let plan = guard.install(FaultPlan::new().on(Site::Barrier, "4", 1, Fault::FailWorker(2)));
    let (summary, values) = run_case_with_ram(&program, &job, &records, &|v: &u64| *v, ram);
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.recoveries, 1);
    assert_eq!(summary.stats.confined_recoveries, 1);
    assert_eq!(summary.stats.confined_fallbacks, 0);
    assert!(summary.stats.log_runs_replayed > 0);
    assert_eq!(summary.sender_fold, reference.sender_fold);
    // The replay folds nothing (its outbound messages were delivered by the
    // original execution), so the recovered job spilled what the reference
    // did.
    assert_eq!(
        summary.stats.msgs_fold_spilled,
        reference.stats.msgs_fold_spilled
    );
    assert_eq!(summary.supersteps, reference.supersteps);
    assert_eq!(summary.final_gs, reference.final_gs);
    assert_eq!(values, expected);
    chaos_digest("windowed-confined", &summary, plan.injected(), &values);
}

// ---------------------------------------------------------------------------
// Log holes provably fall back to reloading every partition
// ---------------------------------------------------------------------------

/// A log WRITE fault (swallowed at tee time — logging is best-effort and
/// must never fail a healthy superstep) leaves a hole that the confined
/// pre-validation finds at recovery time: one counted fallback, every
/// partition reloaded, bit-identical values.
#[test]
fn torn_log_write_falls_back_to_global_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("rc-wfault").with_checkpoint_interval(2);
    let program = Arc::new(ConnectedComponents);
    let (reference, expected) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert!(reference.supersteps > 4);

    // Superstep 3's src-1 log write dies (torn file on the DFS); worker 2
    // dies at the superstep-4 barrier. Confined recovery needs that log.
    let plan = guard.install(
        FaultPlan::new()
            .on(
                Site::MsgLog,
                "jobs/rc-wfault/msglog/3/src1",
                1,
                Fault::TornWrite { keep: 6 },
            )
            .on(Site::Barrier, "4", 1, Fault::FailWorker(2)),
    );
    let (summary, values) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert_eq!(plan.injected(), 2, "both the torn write and the death fired");
    assert_eq!(summary.recoveries, 1, "the fallback still recovers");
    assert_eq!(summary.retries, 0, "the swallowed log write is not an in-place retry");
    assert_eq!(
        summary.stats.confined_fallbacks, 1,
        "the log hole must be detected and counted as a fallback"
    );
    assert_eq!(
        summary.stats.confined_recoveries, 0,
        "a fallen-back recovery is not a confined recovery"
    );
    assert_eq!(values, expected, "the fallback path stays bit-identical");
    chaos_digest("log-write-hole", &summary, plan.injected(), &values);
}

/// A log READ fault at replay time (the file is fine on disk, the read
/// dies): same contract — typed unavailability, counted fallback, every
/// partition reloaded, identical values.
#[test]
fn log_read_failure_at_replay_falls_back_to_global_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("rc-rfault").with_checkpoint_interval(2);
    let program = Arc::new(ConnectedComponents);
    let (_, expected) = run_case(&program, &job, &records, &|v: &u64| *v);

    let plan = guard.install(
        FaultPlan::new()
            .on(
                Site::MsgLog,
                "replay:jobs/rc-rfault/msglog/3",
                1,
                Fault::IoError,
            )
            .on(Site::Barrier, "4", 1, Fault::FailWorker(2)),
    );
    let (summary, values) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert_eq!(plan.injected(), 2);
    assert_eq!(summary.recoveries, 1);
    assert_eq!(summary.stats.confined_fallbacks, 1);
    assert_eq!(summary.stats.confined_recoveries, 0);
    assert_eq!(values, expected);
    chaos_digest("log-read-hole", &summary, plan.injected(), &values);
}

// ---------------------------------------------------------------------------
// Recovery cap and GC satellites
// ---------------------------------------------------------------------------

/// `with_max_recoveries(0)` turns the first recoverable failure terminal:
/// the typed `RecoveriesExhausted` error names the configured cap and the
/// underlying fault instead of silently retrying forever.
#[test]
fn max_recoveries_zero_makes_the_first_failure_terminal() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("rc-cap")
        .with_checkpoint_interval(1)
        .with_max_recoveries(0);
    guard.install(FaultPlan::new().on(Site::Barrier, "3", 1, Fault::FailWorker(2)));
    let cluster = Cluster::new(ClusterConfig::new(4, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let err = run_job_from_records(&cluster, &program, &job, records).unwrap_err();
    let PregelixError::RecoveriesExhausted { cap, last_error } = &err else {
        panic!("expected RecoveriesExhausted, got: {err}");
    };
    assert_eq!(*cap, 0);
    assert!(
        last_error.contains("worker 2"),
        "the exhaustion error must name the underlying fault: {last_error}"
    );
    assert!(!err.is_recoverable());
    assert!(err.to_string().contains("max_recoveries = 0"), "{err}");
}

/// Each successful periodic checkpoint retires the checkpoints, message
/// logs, and GS history it obsoletes — and a later confined recovery still
/// finds everything it needs (GC must never eat live recovery state).
#[test]
fn gc_retires_old_state_without_breaking_confined_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("rc-gc").with_checkpoint_interval(2);
    let program = Arc::new(ConnectedComponents);

    // Fault-free: GC alone must be retiring bytes as checkpoints land.
    guard.install(FaultPlan::new());
    let (reference, expected) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert!(
        reference.stats.ckpt_bytes_retired > 0,
        "periodic checkpoints must retire their predecessors"
    );
    guard.clear();

    // Death at superstep 4: the newest checkpoint (superstep 3) retired the
    // superstep-1/2 logs, but the superstep-3 log the replay needs is newer
    // than the checkpoint and must have survived GC.
    let plan =
        guard.install(FaultPlan::new().on(Site::Barrier, "4", 1, Fault::FailWorker(2)));
    let (summary, values) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert_eq!(plan.injected(), 1);
    assert_eq!(summary.stats.confined_recoveries, 1, "GC must not break replay");
    assert_eq!(summary.stats.confined_fallbacks, 0);
    assert!(summary.stats.log_runs_replayed > 0);
    assert!(summary.stats.ckpt_bytes_retired > 0);
    assert_eq!(values, expected);
    chaos_digest("gc-then-confined", &summary, plan.injected(), &values);
}

/// With checkpointing off, the tee never writes a byte: confined recovery's
/// cost is strictly opt-in via the checkpoint ladder.
#[test]
fn no_checkpoints_means_no_log_writes() {
    let _guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("rc-nolog"); // no checkpoint interval
    let program = Arc::new(ConnectedComponents);
    let (summary, _) = run_case(&program, &job, &records, &|v: &u64| *v);
    assert_eq!(summary.stats.log_bytes_written, 0);
    assert_eq!(summary.stats.confined_recoveries, 0);
    assert_eq!(summary.stats.ckpt_bytes_retired, 0);
}
