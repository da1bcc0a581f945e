//! Reliable connector transport, end to end (§4, §5.5): wire-level frame
//! faults — drops, duplicates, corruption, lost acks — injected into live
//! Pregel jobs must be absorbed *in place* by the sequenced/acked transport:
//! zero checkpoint recoveries, bit-identical final values, and only the
//! `frames_retransmitted` / `frames_deduped` / `frames_corrupted` counters
//! moving. Only a retransmit *storm* (every resend of a frame also lost,
//! exhausting the bounded budget) is allowed to degrade to the §5.5
//! checkpoint-recovery path.
//!
//! All faults fire at exact event counts through the deterministic
//! [`pregelix::common::fault`] harness — no timers anywhere — so every
//! scenario asserts exact counter values and appends a reproducible line to
//! `$CHAOS_DIGEST` for CI's run-twice-and-diff determinism check.

use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Helpers (mirrors fault_tolerance.rs — integration binaries are separate)
// ---------------------------------------------------------------------------

/// A chain component `start — start+1 — … — start+len-1` (symmetric edges):
/// min-label CC over it takes a predictable number of supersteps, and every
/// superstep moves messages, so frame-send events are plentiful.
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

fn two_chains() -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut records = chain(0, 8);
    records.extend(chain(100, 6));
    records
}

fn cc_values(graph: &LoadedGraph) -> Vec<(u64, u64)> {
    graph
        .collect_vertices::<ConnectedComponents>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, v.value))
        .collect()
}

fn parallel_cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig::new(workers, 8 << 20)).unwrap()
}

/// No-fault reference run (callers install their plan *after* this).
fn no_fault_reference(
    cluster: &Cluster,
    job: &PregelixJob,
    records: &[(u64, Vec<(u64, f64)>)],
) -> (JobSummary, Vec<(u64, u64)>) {
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(cluster, &program, job, records.to_vec()).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(summary.stats.frames_retransmitted, 0, "clean wire in reference run");
    assert_eq!(summary.stats.frames_deduped, 0);
    assert_eq!(summary.stats.frames_corrupted, 0);
    let values = cc_values(&graph);
    (summary, values)
}

/// This suite's line in `$CHAOS_DIGEST` (see [`integration_tests::chaos_digest`]).
///
/// `dedup` and `corrupt` ride only on lines whose plan fixes the kind of
/// frame its duplicate or corrupt rule hits (`kind_fixed`). On threaded
/// workers the nth `msg` or `gs` send, n > 1, is a data frame (deduped or
/// torn, and counted) or a Fin (outlived by its stream, or lost
/// and resent, and not counted) depending on how the senders interleave.
fn chaos_digest(
    scenario: &str,
    summary: &JobSummary,
    injected: u64,
    values: &[(u64, u64)],
    kind_fixed: bool,
) {
    let fields = format!(
        "recoveries retries supersteps injected retx {}dead probes redesc bloomneg bloomfp radixn \
         rskip cmpfb conf cfb logw logr ckret slaba slabr fcopy fold fspill stray jcmp jmsgs jcomb",
        if kind_fixed { "dedup corrupt " } else { "" }
    );
    integration_tests::chaos_digest(
        scenario,
        &fields,
        summary,
        injected,
        integration_tests::values_hash(values),
    );
}

/// Run the job under `plan` and require the absorbed-in-place outcome:
/// zero recoveries/retries, the reference superstep count, bit-identical
/// values. Returns the summary for counter-specific assertions.
#[allow(clippy::too_many_arguments)]
fn run_absorbed(
    scenario: &str,
    guard: &fault::ChaosGuard,
    plan: FaultPlan,
    kind_fixed: bool,
    workers: usize,
    job: &PregelixJob,
    records: &[(u64, Vec<(u64, f64)>)],
    reference: &JobSummary,
    expected: &[(u64, u64)],
) -> (JobSummary, u64) {
    let plan = guard.install(plan);
    let cluster = parallel_cluster(workers);
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, job, records.to_vec()).unwrap();
    assert_eq!(summary.recoveries, 0, "{scenario}: wire faults must not consume recoveries");
    assert_eq!(summary.retries, 0, "{scenario}");
    assert_eq!(summary.supersteps, reference.supersteps, "{scenario}");
    assert_eq!(summary.stats.workers_declared_dead, 0, "{scenario}: nobody died");
    assert_eq!(cc_values(&graph), expected, "{scenario}: values must be bit-identical");
    let injected = plan.injected();
    chaos_digest(scenario, &summary, injected, expected, kind_fixed);
    guard.clear();
    (summary, injected)
}

// ---------------------------------------------------------------------------
// The nth-frame sweeps: drop / duplicate / corrupt / ack loss
// ---------------------------------------------------------------------------

/// Drop the nth `msg`-stream frame send, for a sweep of n: every run must
/// complete with zero recoveries and one retransmission per injected drop.
#[test]
fn msg_frame_drop_at_every_nth_send_is_absorbed() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-drop");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let mut injected_any = false;
    for n in [1u64, 2, 3, 5, 8] {
        let (summary, injected) = run_absorbed(
            &format!("msg-drop-n{n}"),
            &guard,
            FaultPlan::new().on(Site::FrameSend, "msg", n, Fault::DropFrame),
            true,
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        if injected > 0 {
            injected_any = true;
            assert!(
                summary.stats.frames_retransmitted >= 1,
                "n={n}: the dropped frame was retransmitted"
            );
        }
    }
    assert!(injected_any, "the sweep must actually inject faults");
}

/// Duplicate the nth `msg`-stream frame send: the receiver's seq dedup
/// discards the echo — exactly-once delivery without combiner help.
#[test]
fn msg_frame_duplicate_at_every_nth_send_is_deduplicated() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-dup");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    for n in [1u64, 2, 3, 5] {
        let (summary, injected) = run_absorbed(
            &format!("msg-dup-n{n}"),
            &guard,
            FaultPlan::new().on(Site::FrameSend, "msg", n, Fault::DuplicateFrame),
            n == 1,
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        if n == 1 {
            // The first msg event is always a data frame: its echo is
            // counted by the dedup path, deterministically once.
            assert_eq!(injected, 1);
            assert_eq!(summary.stats.frames_deduped, 1, "echo discarded by seq");
        }
    }
}

/// Tear the nth `msg` frame on the wire: the receiver gets a torn notice in
/// its place, the pristine copy is retransmitted, and the corruption never
/// reaches the application.
#[test]
fn msg_frame_corruption_is_reported_and_retransmitted() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-corrupt");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    for n in [1u64, 3] {
        let (summary, injected) = run_absorbed(
            &format!("msg-corrupt-n{n}"),
            &guard,
            FaultPlan::new().on(Site::FrameSend, "msg", n, Fault::CorruptFrame),
            n == 1,
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        if injected > 0 {
            assert!(summary.stats.frames_retransmitted >= 1, "n={n}: pristine copy resent");
        }
        if n == 1 {
            assert_eq!(injected, 1);
            assert_eq!(summary.stats.frames_corrupted, 1, "torn frame counted");
        }
    }
}

/// Lose ack content on the `msg` stream (the wakeup edge survives — a lost
/// wakeup would strand a windowed sender forever): delivery completes with
/// zero recoveries and identical values.
#[test]
fn msg_ack_loss_is_survivable() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-ackloss");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    for n in [1u64, 2, 4] {
        run_absorbed(
            &format!("msg-ackloss-n{n}"),
            &guard,
            FaultPlan::new().on(Site::AckSend, "msg", n, Fault::DropFrame),
            true,
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
    }
}

// ---------------------------------------------------------------------------
// The other stream labels: mut, gs
// ---------------------------------------------------------------------------

/// CC sends no mutations, so the `mut` streams carry only Fin messages —
/// dropping one exercises the lost-Fin retransmission path inside a live
/// job (the stream must still close, or mutate tasks hang the superstep).
#[test]
fn mut_stream_fin_drop_is_retransmitted() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-mut");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let (summary, injected) = run_absorbed(
        "mut-fin-drop",
        &guard,
        FaultPlan::new().on(Site::FrameSend, "mut", 1, Fault::DropFrame),
        true,
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert_eq!(injected, 1);
    assert!(summary.stats.frames_retransmitted >= 1, "Fin redelivered");
}

/// Drop and duplicate `gs` report frames in the same run: the two-stage
/// aggregation still sees every partition report exactly once, so the halt
/// decision and aggregate are computed from complete, deduplicated input.
#[test]
fn gs_stream_drop_plus_duplicate_is_absorbed() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-gs");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let (summary, injected) = run_absorbed(
        "gs-drop-dup",
        &guard,
        FaultPlan::new()
            .on(Site::FrameSend, "gs", 1, Fault::DropFrame)
            .on(Site::FrameSend, "gs", 3, Fault::DuplicateFrame),
        false,
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert_eq!(injected, 2);
    assert!(summary.stats.frames_retransmitted >= 1);
}

// ---------------------------------------------------------------------------
// Sequential-timed (open-loop) mode
// ---------------------------------------------------------------------------

/// In sequential-timed mode there is no concurrent receiver to nack, so a
/// dropped frame is recovered from the stream's control plane when the
/// receiver drains — same zero-recovery contract, same values.
#[test]
fn sequential_timed_mode_recovers_wire_loss_open_loop() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-seq");
    let make = || Cluster::new(ClusterConfig::new(2, 8 << 20).sequential_timed()).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (reference, graph) =
        run_job_from_records(&make(), &program, &job, records.clone()).unwrap();
    assert_eq!(reference.recoveries, 0);
    let expected = cc_values(&graph);

    let plan = guard.install(
        FaultPlan::new()
            .on(Site::FrameSend, "msg", 1, Fault::DropFrame)
            .on(Site::FrameSend, "msg", 4, Fault::DuplicateFrame),
    );
    let (summary, graph) =
        run_job_from_records(&make(), &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 0);
    assert_eq!(summary.supersteps, reference.supersteps);
    assert!(plan.injected() >= 1);
    assert!(
        summary.stats.frames_retransmitted >= 1,
        "parked frame recovered through the control plane"
    );
    assert_eq!(cc_values(&graph), expected);
    // Sequential-timed tasks run one at a time: every send's kind is fixed.
    chaos_digest("seq-open-loop", &summary, plan.injected(), &expected, true);
}

// ---------------------------------------------------------------------------
// Retransmit storms: the one wire fault allowed to consume a recovery
// ---------------------------------------------------------------------------

/// Drop a frame *and* every one of its retransmissions: the bounded resend
/// budget runs out and the sender surfaces a recoverable error. Without
/// checkpoints that error reaches the caller (typed, recoverable) instead
/// of hanging the superstep.
#[test]
fn retransmit_storm_without_checkpoints_surfaces_recoverable_error() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-storm");
    let mut plan = FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame);
    for n in 1..=16u64 {
        plan = plan.on(Site::FrameResend, "msg", n, Fault::DropFrame);
    }
    guard.install(plan);
    let cluster = parallel_cluster(2);
    let program = Arc::new(ConnectedComponents);
    let err = run_job_from_records(&cluster, &program, &job, records).unwrap_err();
    assert!(err.is_recoverable(), "a storm is infrastructure, not user error: {err}");
    assert!(
        err.to_string().contains("retransmit storm"),
        "budget exhaustion must be diagnosable: {err}"
    );
}

/// The same storm with checkpointing on degrades to exactly one §5.5
/// recovery — and because the fault rules have all fired, the replay runs
/// on a clean wire and converges to bit-identical values.
#[test]
fn retransmit_storm_falls_back_to_checkpoint_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-storm-ckpt").with_checkpoint_interval(1);
    let cluster = parallel_cluster(2);
    let (_, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let mut plan = FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame);
    for n in 1..=16u64 {
        plan = plan.on(Site::FrameResend, "msg", n, Fault::DropFrame);
    }
    let plan = guard.install(plan);
    let cluster = parallel_cluster(2);
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1, "storm consumes exactly one recovery");
    assert_eq!(summary.stats.workers_declared_dead, 0, "no machine was lost");
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("storm-ckpt-recovery", &summary, plan.injected(), &expected, true);
}

// ---------------------------------------------------------------------------
// Mixed chaos: every fault kind in one run
// ---------------------------------------------------------------------------

/// One plan mixing drops, duplicates, corruption and ack loss across the
/// msg/mut/gs streams: still zero recoveries and bit-identical values —
/// the acceptance bar for the transport as a whole.
#[test]
fn mixed_wire_chaos_converges_bit_identically() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-mix");
    let cluster = parallel_cluster(2);
    let (reference, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let (summary, injected) = run_absorbed(
        "mixed-chaos",
        &guard,
        FaultPlan::new()
            .on(Site::FrameSend, "msg", 1, Fault::DropFrame)
            .on(Site::FrameSend, "msg", 3, Fault::DuplicateFrame)
            .on(Site::FrameSend, "msg", 5, Fault::CorruptFrame)
            .on(Site::AckSend, "msg", 2, Fault::DropFrame)
            .on(Site::FrameSend, "mut", 1, Fault::DropFrame)
            .on(Site::FrameSend, "gs", 2, Fault::DropFrame),
        false,
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert!(injected >= 4, "most of the mixed plan must fire, got {injected}");
    assert!(summary.stats.frames_retransmitted >= 2);
}
