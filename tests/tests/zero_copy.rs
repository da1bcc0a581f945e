//! The zero-copy shared-slab frame path, end to end: the slab-backed wire
//! form must be bit-identical to the legacy `[n][ends…][data]` encoding
//! (run files, checkpoints and message logs stay readable), delivery must
//! hand over the sender's slab slice — also when a wire fault is counted
//! on the send — and `frame_bytes_copied` must stay structurally zero on
//! the transport path, clean or faulted. Slab counter
//! accounting (`slab_allocations` / `slab_recycled`) is pinned exactly at
//! the slab level and pinned deterministic (double-run equality) at the
//! job level, mirroring CI's chaos-digest run-twice-and-diff check.
//!
//! The case count honours `PROPTEST_CASES` like the other property suites.

use pregelix::common::bytes::BytesSlab;
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::common::frame::{Frame, SharedFrame};
use pregelix::common::stats::ClusterCounters;
use pregelix::dataflow::transport::{reliable_channels, ReliableReceiver, ReliableSender};
use pregelix::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

// ---------------------------------------------------------------------------
// Encoding equivalence: the slab wire form IS the legacy frame encoding
// ---------------------------------------------------------------------------

/// The PR 1 frame codec, reimplemented from its spec as an independent
/// reference: `[n u32 LE][ends[i] u32 LE × n][tuple data]`.
fn legacy_encode(tuples: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    let mut end = 0u32;
    for t in tuples {
        end += t.len() as u32;
        out.extend_from_slice(&end.to_le_bytes());
    }
    for t in tuples {
        out.extend_from_slice(t);
    }
    out
}

fn build(tuples: &[Vec<u8>]) -> Frame {
    let mut f = Frame::with_capacity(1 << 20);
    for t in tuples {
        assert!(f.try_append(t));
    }
    f
}

fn tuple_vecs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// Freezing through a slab, freezing standalone, and the disk-path
    /// `serialize` all produce bytes identical to the legacy encoding.
    #[test]
    fn slab_wire_form_is_bit_identical_to_the_legacy_encoding(tuples in tuple_vecs()) {
        let reference = legacy_encode(&tuples);
        let frame = build(&tuples);

        let mut serialized = Vec::new();
        frame.serialize(&mut serialized);
        prop_assert_eq!(&serialized, &reference, "serialize drifted from the legacy codec");

        let standalone = frame.freeze_standalone();
        prop_assert_eq!(standalone.wire_bytes().as_slice(), reference.as_slice());

        let slab = BytesSlab::new(1 << 20);
        let pooled = frame.freeze(&slab);
        prop_assert_eq!(pooled.wire_bytes().as_slice(), reference.as_slice());
    }

    /// The one decoder, `Frame::deserialize`, reproduces the tuples exactly.
    #[test]
    fn deserialize_roundtrips_the_wire_form(tuples in tuple_vecs()) {
        let wire = legacy_encode(&tuples);
        let mut buf = wire.as_slice();
        let owned = Frame::deserialize(&mut buf).unwrap();
        prop_assert!(buf.is_empty(), "deserialize must consume the whole record");
        prop_assert_eq!(owned.len(), tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            prop_assert_eq!(owned.tuple(i), t.as_slice());
        }
    }

    /// Every strict prefix of a wire record is rejected — truncation can
    /// never decode silently.
    #[test]
    fn every_truncation_is_rejected(tuples in tuple_vecs()) {
        let wire = legacy_encode(&tuples);
        for cut in 0..wire.len() {
            let mut buf = &wire[..cut];
            prop_assert!(Frame::deserialize(&mut buf).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Aliasing: delivery shares the send slab
// ---------------------------------------------------------------------------

/// One bounded 1→1 hop: send a shared frame (keeping a clone, as the
/// superstep feed points do), drain the receiver on this thread while the
/// sender finishes on another.
fn hop(
    counters: &ClusterCounters,
    frame: SharedFrame,
) -> Vec<SharedFrame> {
    let (mut txs, mut rxs) = reliable_channels(1, 1, Some(4));
    let mut tx = ReliableSender::new(txs.remove(0), "msg", 0, 0, vec![1], counters.clone());
    let mut rx = ReliableReceiver::new(rxs.remove(0), counters.clone());
    let sender = std::thread::spawn(move || {
        tx.send_shared(0, frame).unwrap();
        tx.finish().unwrap();
    });
    let mut got = Vec::new();
    while let Some(f) = rx.next_frame().unwrap() {
        got.push(f);
    }
    sender.join().unwrap();
    got
}

/// Clean hop: the delivered frame aliases the sender's slab slice and the
/// whole exchange copies zero frame bytes.
#[test]
fn clean_hop_delivers_the_senders_slice_and_copies_nothing() {
    let guard = fault::exclusive();
    let counters = ClusterCounters::new();
    let slab = BytesSlab::with_counters(1 << 16, counters.clone());
    let frame = build(&[b"payload".to_vec()]).freeze(&slab);
    let got = hop(&counters, frame.clone());
    guard.clear();
    assert_eq!(got.len(), 1);
    assert!(got[0].aliases(&frame), "delivery must hand over the sender's slice");
    assert_eq!(counters.frame_bytes_copied(), 0, "zero-copy clean path");
    assert_eq!(counters.frames_retransmitted(), 0);
}

/// Drop the first transmit: the drop is counted where it fires and the
/// frame is sent once, so the receiver gets the *identical* slab slice
/// (provable because the delivered frame still aliases the clone we kept),
/// and still nothing is copied.
#[test]
fn retransmission_resends_the_identical_slab_slice() {
    let guard = fault::exclusive();
    let counters = ClusterCounters::new();
    let slab = BytesSlab::with_counters(1 << 16, counters.clone());
    let frame = build(&[b"retry me".to_vec()]).freeze(&slab);
    let plan = guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame));
    let got = hop(&counters, frame.clone());
    assert_eq!(plan.injected(), 1, "the drop must actually fire");
    guard.clear();
    assert_eq!(got.len(), 1);
    assert!(
        got[0].aliases(&frame),
        "the delivered frame must be the same slab slice, not a re-encode"
    );
    assert_eq!(counters.frames_retransmitted(), 1);
    assert_eq!(counters.frame_bytes_copied(), 0, "a counted drop copies nothing");
}

/// Corrupt the first transmit: the tear is counted as a corruption and a
/// retransmission where it fires, the receiver gets the pristine slice,
/// and zero bytes are copied end to end.
#[test]
fn corruption_recovery_delivers_the_pristine_slice_without_copying() {
    let guard = fault::exclusive();
    let counters = ClusterCounters::new();
    let slab = BytesSlab::with_counters(1 << 16, counters.clone());
    let frame = build(&[b"pristine".to_vec()]).freeze(&slab);
    let plan = guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::CorruptFrame));
    let got = hop(&counters, frame.clone());
    assert_eq!(plan.injected(), 1);
    guard.clear();
    assert_eq!(got.len(), 1);
    assert!(got[0].aliases(&frame), "the delivered frame is the pristine slice");
    assert_eq!(counters.frames_corrupted(), 1);
    assert_eq!(counters.frames_retransmitted(), 1);
    assert_eq!(counters.frame_bytes_copied(), 0, "corruption copies nothing");
}

// ---------------------------------------------------------------------------
// Exact slab accounting
// ---------------------------------------------------------------------------

/// Pin the pool arithmetic exactly: K freezes with an empty stock cost K
/// fresh allocations; dropping the slices and harvesting recycles all K;
/// the next K freezes are then allocation-free.
#[test]
fn slab_counters_account_exactly() {
    const K: usize = 5;
    let counters = ClusterCounters::new();
    let slab = BytesSlab::with_counters(1 << 12, counters.clone());

    let frames: Vec<SharedFrame> =
        (0..K).map(|i| build(&[vec![i as u8; 32]]).freeze(&slab)).collect();
    assert_eq!(counters.slab_allocations(), K as u64, "one fresh backing per freeze");
    assert_eq!(counters.slab_recycled(), 0);

    drop(frames);
    assert_eq!(slab.harvest(), K, "every dropped backing is harvestable");
    assert_eq!(counters.slab_recycled(), K as u64);
    assert_eq!(slab.stocked(), K);

    let again: Vec<SharedFrame> =
        (0..K).map(|i| build(&[vec![i as u8; 32]]).freeze(&slab)).collect();
    assert_eq!(counters.slab_allocations(), K as u64, "warm freezes reuse the stock");
    drop(again);
}

// ---------------------------------------------------------------------------
// Whole-job pins: zero copies, deterministic slab counters under faults
// ---------------------------------------------------------------------------

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

fn run_cc(job: &PregelixJob, records: &[(u64, Vec<(u64, f64)>)]) -> (JobSummary, Vec<(u64, u64)>) {
    let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let (summary, graph) =
        run_job_from_records(&cluster, &program, job, records.to_vec()).unwrap();
    let values = cc_values(&graph);
    (summary, values)
}

/// A clean job moves every message through the slab path without copying a
/// single frame byte, and its slab counters are identical across runs.
#[test]
fn clean_job_copies_zero_frame_bytes_and_is_deterministic() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("zc-clean");
    let (a, values_a) = run_cc(&job, &records);
    let (b, values_b) = run_cc(&job, &records);
    guard.clear();

    assert_eq!(a.stats.frame_bytes_copied, 0, "clean path must be zero-copy");
    assert!(a.stats.slab_allocations > 0, "messages must ride the slab");
    assert!(a.stats.slab_recycled > 0, "superstep commits must recycle backings");
    assert_eq!(
        (a.stats.slab_allocations, a.stats.slab_recycled, a.stats.frame_bytes_copied),
        (b.stats.slab_allocations, b.stats.slab_recycled, b.stats.frame_bytes_copied),
        "slab counters must be interleaving-invariant across identical runs"
    );
    assert_eq!(values_a, values_b);
}

/// Drop / duplicate / corrupt sweeps: faults absorbed in place never charge
/// `frame_bytes_copied`, and the slab counters stay deterministic across a
/// double run of the identical faulted scenario.
#[test]
fn faulted_jobs_stay_zero_copy_with_deterministic_slab_counters() {
    let guard = fault::exclusive();
    let records = two_chains();
    let job = PregelixJob::new("zc-faults");
    let (_clean, expected) = run_cc(&job, &records);

    for (name, fault) in [
        ("drop", Fault::DropFrame),
        ("dup", Fault::DuplicateFrame),
        ("corrupt", Fault::CorruptFrame),
    ] {
        let mut seen = Vec::new();
        for _ in 0..2 {
            let plan = guard
                .install(FaultPlan::new().on(Site::FrameSend, "msg", 2, fault));
            let (summary, values) = run_cc(&job, &records);
            let injected = plan.injected();
            guard.clear();
            assert!(injected >= 1, "{name}: the sweep must inject");
            assert_eq!(summary.recoveries, 0, "{name}: absorbed in place");
            assert_eq!(values, expected, "{name}: values must be bit-identical");
            assert_eq!(
                summary.stats.frame_bytes_copied, 0,
                "{name}: wire faults must not force copies"
            );
            seen.push((
                summary.stats.slab_allocations,
                summary.stats.slab_recycled,
                summary.stats.frames_retransmitted,
                summary.stats.frames_deduped,
                summary.stats.frames_corrupted,
            ));
        }
        assert_eq!(seen[0], seen[1], "{name}: counters must repeat exactly across runs");
    }
}
