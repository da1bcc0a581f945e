//! Connector transport, end to end (§4, §5.5): wire-level frame faults —
//! drops, duplicates, corruption — injected into live Pregel jobs are
//! counted where they fire and each message is sent once on the receiver's
//! FIFO channel: zero checkpoint recoveries, bit-identical final values,
//! and only the `frames_retransmitted` / `frames_deduped` /
//! `frames_corrupted` counters moving. Only a broken wire (a send that
//! fails outright) is allowed to degrade to the §5.5 checkpoint-recovery
//! path.
//!
//! All faults fire at exact event counts through the deterministic
//! [`pregelix::common::fault`] harness — no timers anywhere — and each
//! counter equals the number of injected faults of its kind whether the
//! fault hits a data frame or a `Fin`, so every scenario asserts exact
//! counter values and appends a reproducible line to `$CHAOS_DIGEST` for
//! CI's run-repeatedly-and-diff determinism check.

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

/// The fields of this suite's lines in `$CHAOS_DIGEST`.
const FIELDS: &str = "recoveries retries supersteps injected retx dedup corrupt dead probes redesc \
    radixn conf cfb logw logr ckret slaba slabr fcopy fold fspill stray jcmp \
    jmsgs jcomb";

/// This suite's line in `$CHAOS_DIGEST` (see [`integration_tests::chaos_digest`]).
fn chaos_digest(scenario: &str, summary: &JobSummary, injected: u64, values: &[(u64, u64)]) {
    integration_tests::chaos_digest(
        scenario,
        FIELDS,
        summary,
        injected,
        integration_tests::values_hash(values),
    );
}

/// `(frames_retransmitted, frames_deduped, frames_corrupted)`.
fn wire_counts(summary: &JobSummary) -> (u64, u64, u64) {
    let s = &summary.stats;
    (s.frames_retransmitted, s.frames_deduped, s.frames_corrupted)
}

/// Run the job under `plan` and require the absorbed-in-place outcome:
/// zero recoveries/retries, the reference superstep count, bit-identical
/// values. Returns the summary for counter-specific assertions.
#[allow(clippy::too_many_arguments)]
fn run_absorbed(
    scenario: &str,
    guard: &fault::ChaosGuard,
    plan: FaultPlan,
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
    chaos_digest(scenario, &summary, injected, expected);
    guard.clear();
    (summary, injected)
}

// ---------------------------------------------------------------------------
// The nth-frame sweeps: drop / duplicate / corrupt
// ---------------------------------------------------------------------------

/// Drop the nth `msg`-stream send, for a sweep of n: every run must
/// complete with zero recoveries and one retransmission counted per drop.
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
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        injected_any |= injected > 0;
        assert_eq!(wire_counts(&summary), (injected, 0, 0), "n={n}: one count per drop");
    }
    assert!(injected_any, "the sweep must actually inject faults");
}

/// Duplicate the nth `msg`-stream send, a data frame or a `Fin`: counted
/// as a dedup, sent once — exactly-once delivery without combiner help.
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
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        assert_eq!(injected, 1, "n={n}");
        assert_eq!(wire_counts(&summary), (0, 1, 0), "n={n}: duplicate counted");
    }
}

/// Tear the nth `msg` send on the wire: counted as a corruption and a
/// retransmission, the pristine message sent once, and the corruption never
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
            2,
            &job,
            &records,
            &reference,
            &expected,
        );
        assert_eq!(injected, 1, "n={n}");
        assert_eq!(wire_counts(&summary), (1, 0, 1), "n={n}: tear counted");
    }
}

// ---------------------------------------------------------------------------
// The other stream labels: mut, gs
// ---------------------------------------------------------------------------

/// CC sends no mutations, so the `mut` streams carry only Fin messages —
/// dropping one exercises a lost `Fin` inside a live job (the stream must
/// still close, or mutate tasks hang the superstep).
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
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert_eq!(injected, 1);
    assert_eq!(wire_counts(&summary), (1, 0, 0), "the Fin's drop counted");
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
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert_eq!(injected, 2);
    assert_eq!(wire_counts(&summary), (1, 1, 0));
}

// ---------------------------------------------------------------------------
// Sequential-timed mode
// ---------------------------------------------------------------------------

/// In sequential-timed mode every sender runs to completion before its
/// receiver starts; counting a fault where it fires needs no concurrent
/// peer — same zero-recovery contract, same values, same counts.
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
    assert_eq!(plan.injected(), 2);
    assert_eq!(
        wire_counts(&summary),
        (1, 1, 0),
        "a drop and a duplicate counted"
    );
    assert_eq!(cc_values(&graph), expected);
    chaos_digest("seq-open-loop", &summary, plan.injected(), &expected);
}

// ---------------------------------------------------------------------------
// A broken wire: the one wire fault allowed to consume a recovery
// ---------------------------------------------------------------------------

/// The first `msg` send fails outright: the sender surfaces a recoverable
/// I/O error and its receiver sees the stream end without a `Fin`. Without
/// checkpoints that error reaches the caller (typed, recoverable) instead
/// of hanging the superstep.
#[test]
fn broken_wire_without_checkpoints_surfaces_recoverable_error() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-broken");
    guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::IoError));
    let cluster = parallel_cluster(2);
    let program = Arc::new(ConnectedComponents);
    let err = run_job_from_records(&cluster, &program, &job, records).unwrap_err();
    assert!(err.is_recoverable(), "a broken wire is infrastructure, not user error: {err}");
    assert!(
        err.to_string().contains("injected frame-send fault"),
        "the sender's own error surfaces: {err}"
    );
}

/// The same broken wire with checkpointing on degrades to exactly one §5.5
/// recovery — and because the fault rule has fired, the replay runs on a
/// clean wire and converges to bit-identical values.
#[test]
fn broken_wire_falls_back_to_checkpoint_recovery() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("tr-broken-ckpt").with_checkpoint_interval(1);
    let cluster = parallel_cluster(2);
    let (_, expected) = no_fault_reference(&cluster, &job, &records);
    drop(cluster);

    let plan = guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::IoError));
    let cluster = parallel_cluster(2);
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    assert_eq!(summary.recoveries, 1, "a broken wire consumes exactly one recovery");
    assert_eq!(summary.stats.workers_declared_dead, 0, "no machine was lost");
    assert_eq!(plan.injected(), 1);
    assert_eq!(wire_counts(&summary), (0, 0, 0), "a broken wire is no drop, tear or duplicate");
    assert_eq!(cc_values(&graph), expected);
    // No `slaba` / `slabr` on this line: the aborted threaded superstep
    // seals however many frames its other tasks got to before the failure
    // stopped them, which varies from run to run.
    integration_tests::chaos_digest(
        "broken-wire-ckpt-recovery",
        &FIELDS.replace(" slaba slabr", ""),
        &summary,
        plan.injected(),
        integration_tests::values_hash(&expected),
    );
}

// ---------------------------------------------------------------------------
// Mixed chaos: every fault kind in one run
// ---------------------------------------------------------------------------

/// One plan mixing drops, duplicates and corruption across the msg/mut/gs
/// streams: still zero recoveries, bit-identical values and every counter
/// equal to its faults — the acceptance bar for the transport as a whole.
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
            .on(Site::FrameSend, "mut", 1, Fault::DropFrame)
            .on(Site::FrameSend, "gs", 2, Fault::DropFrame),
        2,
        &job,
        &records,
        &reference,
        &expected,
    );
    assert_eq!(injected, 5, "every rule of the mixed plan fires");
    assert_eq!(wire_counts(&summary), (4, 1, 1), "three drops and a tear, one duplicate");
}
