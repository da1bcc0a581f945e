//! The stream transport underneath the connectors (§4).
//!
//! An edge has one channel per receiver, shared by all m of its senders.
//! A message on it is `(source index, payload)`: on a partitioning edge a
//! frozen frame (a refcounted [`SharedFrame`], never re-encoded) or the
//! `Fin` that closes that source; on a merging edge a sealed run. The
//! channel is an in-process FIFO that can neither lose, reorder nor
//! duplicate a message, so the transport adds no sequence numbers, no
//! acknowledgements and no copies of its own. A receiver reads until every
//! source has finished; a disconnect before that (a sender that died
//! mid-stream) is a truncation error naming the source. It is internal,
//! not recoverable: the dead sender's own error is the cause and decides
//! whether the job is replayed.
//!
//! **A wire fault is counted where it fires.** The sender probes
//! [`Site::FrameSend`] once per message and sends the message once,
//! whatever fires: a drop counts `frames_retransmitted`, a tear
//! `frames_corrupted` and `frames_retransmitted`, a duplicate
//! `frames_deduped`; any other fault fails the send (a broken wire). Each
//! counter is therefore the number of injected faults of its kind, whatever
//! kind of message a fault hits and however threads interleave, so chaos
//! digests pin all three. Every fault fires at an event count; there are no
//! timers and no checksums (a message never leaves the process).
//!
//! **Back-pressure** is the channel's bound: m × the per-sender capacity
//! `ClusterConfig::channel_capacity` reports on threaded clusters, so a
//! receiver queues as many frames per sender as one channel per pair did;
//! unbounded under sequential-timed simulation, where every sender runs to
//! completion before its receiver starts.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Fault, Site};
use pregelix_common::frame::SharedFrame;
use pregelix_common::stats::ClusterCounters;

/// One sender's end of one receiver's channel: it stamps every message
/// with the sender's source index.
pub struct Tx<T> {
    tx: Sender<(usize, T)>,
    source: usize,
}

impl<T> Tx<T> {
    pub(crate) fn send(&self, msg: T) -> Result<()> {
        self.tx
            .send((self.source, msg))
            .map_err(|_| PregelixError::internal("receiver hung up mid-stream"))
    }
}

/// A receiver's end of its channel, which `sources` senders share.
pub struct Rx<T> {
    rx: Receiver<(usize, T)>,
    pub(crate) sources: usize,
}

impl<T> Rx<T> {
    /// The next message, or, once every sender is gone, the truncation
    /// error naming the first source whose entry in `finished` is false.
    pub(crate) fn recv(&self, finished: impl IntoIterator<Item = bool>) -> Result<(usize, T)> {
        self.rx.recv().map_err(|_| {
            let source = finished.into_iter().position(|done| !done).unwrap_or(0);
            PregelixError::internal(format!(
                "source {source} of {} gone before it finished: stream truncated",
                self.sources
            ))
        })
    }
}

/// One channel per receiver for `m` senders and `n` receivers:
/// `senders[s]` holds sender `s`'s n ends, `receivers[r]` is receiver
/// `r`'s end. `cap` is the capacity per sender; the channel holds
/// `m × cap` messages, `None` any number.
pub(crate) fn channels<T>(m: usize, n: usize, cap: Option<usize>) -> (Vec<Vec<Tx<T>>>, Vec<Rx<T>>) {
    let mut senders: Vec<Vec<Tx<T>>> = (0..m).map(|_| Vec::with_capacity(n)).collect();
    let receivers = (0..n)
        .map(|_| {
            let (tx, rx) = match cap {
                Some(c) => bounded(m * c),
                None => unbounded(),
            };
            for (source, ends) in senders.iter_mut().enumerate() {
                ends.push(Tx {
                    tx: tx.clone(),
                    source,
                });
            }
            Rx { rx, sources: m }
        })
        .collect();
    (senders, receivers)
}

/// A sender's end on a partitioning edge: a frame, or `None` for `Fin`.
pub type StreamTx = Tx<Option<SharedFrame>>;

/// A receiver's end on a partitioning edge.
pub type StreamRx = Rx<Option<SharedFrame>>;

/// The channels of a partitioning edge (see `channels`): `cap` frames
/// per sender ([`crate::connector::CHANNEL_FRAMES`] on threaded clusters),
/// `None` unbounded (sequential-timed mode, where a bounded channel's
/// back-pressure would block with no concurrent receiver).
pub fn reliable_channels(
    m: usize,
    n: usize,
    cap: Option<usize>,
) -> (Vec<Vec<StreamTx>>, Vec<StreamRx>) {
    channels(m, n, cap)
}

/// Probe [`Site::FrameSend`] for one message labelled `label` and count
/// what fires, where it fires: a drop as a retransmission, a tear as a
/// corruption and a retransmission, a duplicate as a dedup. Any other
/// fault is a broken wire and fails the send.
pub(crate) fn count_wire_fault(counters: &ClusterCounters, label: &str) -> Result<()> {
    let Some(f) = fault::hit(Site::FrameSend, label) else {
        return Ok(());
    };
    counters.add_faults_injected(1);
    match f {
        Fault::DropFrame => counters.add_frames_retransmitted(1),
        Fault::CorruptFrame => {
            counters.add_frames_corrupted(1);
            counters.add_frames_retransmitted(1);
        }
        Fault::DuplicateFrame => counters.add_frames_deduped(1),
        _ => return Err(fault::injected_error(Site::FrameSend, label)),
    }
    Ok(())
}

/// Connector-level accounting size of a frozen frame: tuple data plus the
/// 4-byte-per-tuple offset table (the builder's `footprint`, kept identical
/// so network-byte counters stay comparable across PRs).
#[inline]
fn footprint(frame: &SharedFrame) -> usize {
    frame.wire_len() - 4
}

/// Sender half of the transport: one instance per sending task, with one
/// end per receiver.
pub struct ReliableSender {
    outs: Vec<StreamTx>,
    label: String,
    counters: ClusterCounters,
    my_worker: usize,
    receiver_workers: Vec<usize>,
}

impl ReliableSender {
    /// Wrap one sender's ends. `receiver_workers[r]` is the machine hosting
    /// receiver `r` (network accounting). `_sender_id` is unused: each end
    /// carries its source index.
    // pinned: benchmark/src/replay.rs
    pub fn new(
        outs: Vec<StreamTx>,
        label: &str,
        _sender_id: u32,
        my_worker: usize,
        receiver_workers: Vec<usize>,
        counters: ClusterCounters,
    ) -> ReliableSender {
        debug_assert_eq!(outs.len(), receiver_workers.len());
        ReliableSender {
            outs,
            label: label.to_string(),
            counters,
            my_worker,
            receiver_workers,
        }
    }

    /// Re-tag the stream: the context its `Site::FrameSend` events carry.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_string();
    }

    /// Ship a frozen frame to receiver `part`, charging it to the network
    /// counters when it crosses machines. Blocks only while a bounded
    /// channel is full.
    pub fn send_shared(&mut self, part: usize, frame: SharedFrame) -> Result<()> {
        if self.receiver_workers[part] != self.my_worker {
            self.counters.add_network_bytes(footprint(&frame) as u64);
            self.counters.add_network_frames(1);
        }
        self.transmit(part, Some(frame))
    }

    fn transmit(&self, part: usize, msg: Option<SharedFrame>) -> Result<()> {
        count_wire_fault(&self.counters, &self.label)?;
        self.outs[part].send(msg)
    }

    /// Close this source on every receiver with a `Fin`.
    pub fn finish(self) -> Result<()> {
        (0..self.outs.len()).try_for_each(|part| self.transmit(part, None))
    }
}

/// Receiver half of the transport: every source's frames in the order
/// that source sent them, interleaved across sources in arrival order.
pub struct ReliableReceiver {
    ins: StreamRx,
    /// Per source, whether its `Fin` arrived.
    finished: Vec<bool>,
    /// Sources whose `Fin` has not arrived.
    open: usize,
}

impl ReliableReceiver {
    /// Wrap one receiver's end. `_counters` is unused: a wire fault is
    /// counted by the sender it fires at.
    pub fn new(ins: StreamRx, _counters: ClusterCounters) -> ReliableReceiver {
        let open = ins.sources;
        ReliableReceiver {
            ins,
            finished: vec![false; open],
            open,
        }
    }

    /// Next frame from any source, or `None` once every source sent its
    /// `Fin`. The frame is the same slab slice the sender froze: delivery
    /// hands over a view, never a copy.
    pub fn next_frame(&mut self) -> Result<Option<SharedFrame>> {
        Ok(self.next_stream_frame()?.map(|(_, frame)| frame))
    }

    /// [`next_frame`](Self::next_frame) naming the source it came from.
    pub fn next_stream_frame(&mut self) -> Result<Option<(usize, SharedFrame)>> {
        while self.open > 0 {
            match self.ins.recv(self.finished.iter().copied())? {
                (source, Some(frame)) => return Ok(Some((source, frame))),
                (source, None) => {
                    self.finished[source] = true;
                    self.open -= 1;
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::fault::FaultPlan;
    use pregelix_common::frame::{keyed_tuple, tuple_vid, Frame};

    fn frame_with(vids: &[u64]) -> SharedFrame {
        let mut f = Frame::with_capacity(1 << 16);
        for &v in vids {
            assert!(f.try_append(&keyed_tuple(v, b"x")));
        }
        f.freeze_standalone()
    }

    fn drain(ins: StreamRx, counters: &ClusterCounters) -> Result<Vec<u64>> {
        let mut rx = ReliableReceiver::new(ins, counters.clone());
        let mut got = Vec::new();
        while let Some(f) = rx.next_frame()? {
            for t in f.iter() {
                got.push(tuple_vid(t)?);
            }
        }
        Ok(got)
    }

    /// Send frames carrying vids `0..frames` on a 1→1 `msg` stream and
    /// drain it: concurrently on a bounded channel, sender first on an
    /// unbounded one (the sequential-timed order).
    fn run_stream(cap: Option<usize>, frames: u64, counters: &ClusterCounters) -> Result<Vec<u64>> {
        let (mut txs, mut rxs) = reliable_channels(1, 1, cap);
        let mut tx = ReliableSender::new(txs.remove(0), "msg", 0, 0, vec![1], counters.clone());
        let send = move || -> Result<()> {
            for v in 0..frames {
                tx.send_shared(0, frame_with(&[v]))?;
            }
            tx.finish()
        };
        let sender = match cap {
            Some(_) => Some(std::thread::spawn(send)),
            None => {
                send()?;
                None
            }
        };
        let got = drain(rxs.remove(0), counters);
        if let Some(h) = sender {
            h.join().unwrap()?;
        }
        got
    }

    fn counts(c: &ClusterCounters) -> (u64, u64, u64) {
        (
            c.frames_retransmitted(),
            c.frames_deduped(),
            c.frames_corrupted(),
        )
    }

    /// Every fault kind at data frames 1, 5 and 10 and at the `Fin` (the
    /// 11th send of a 10-frame stream), on bounded and unbounded channels:
    /// exact delivery, and each counter equal to the faults of its kind.
    #[test]
    fn every_fault_at_every_position_is_absorbed_exactly() {
        let guard = fault::exclusive();
        for cap in [Some(4), None] {
            let counters = ClusterCounters::new();
            assert_eq!(
                run_stream(cap, 10, &counters).unwrap(),
                (0..10).collect::<Vec<_>>()
            );
            assert_eq!(counts(&counters), (0, 0, 0), "clean wire, cap {cap:?}");
            for fault in [Fault::DropFrame, Fault::DuplicateFrame, Fault::CorruptFrame] {
                for nth in [1, 5, 10, 11] {
                    let case = format!("{fault:?} at send {nth}, cap {cap:?}");
                    let plan =
                        guard.install(FaultPlan::new().on(Site::FrameSend, "msg", nth, fault));
                    let counters = ClusterCounters::new();
                    let got = run_stream(cap, 10, &counters).unwrap();
                    assert_eq!(got, (0..10).collect::<Vec<_>>(), "{case}");
                    assert_eq!(plan.injected(), 1, "{case}");
                    let expected = match fault {
                        Fault::DropFrame => (1, 0, 0),
                        Fault::DuplicateFrame => (0, 1, 0),
                        _ => (1, 0, 1),
                    };
                    assert_eq!(counts(&counters), expected, "{case}");
                    guard.clear();
                }
            }
        }
    }

    #[test]
    fn open_loop_mode_needs_no_concurrent_receiver() {
        let _guard = fault::exclusive();
        // Sequential-timed regression: with cap = None the sender must run
        // to completion on a single thread before the receiver starts.
        let counters = ClusterCounters::new();
        let (mut txs, rxs) = reliable_channels(1, 1, None);
        let outs = std::mem::take(&mut txs[0]);
        let mut tx = ReliableSender::new(outs, "msg", 0, 0, vec![1], counters.clone());
        for i in 0..50u64 {
            tx.send_shared(0, frame_with(&[i])).unwrap();
        }
        tx.finish().unwrap();
        let got = drain(rxs.into_iter().next().unwrap(), &counters).unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    /// Three senders share one receiver's channel, and source 1 returns
    /// after three frames without `finish`. The receiver delivers every
    /// frame each source sent, in that source's order, then fails with a
    /// truncation error naming source 1 — on a bounded channel smaller
    /// than what the senders send, and on an unbounded one filled before
    /// the receiver starts. It is not recoverable: the sender's own error
    /// carries the cause.
    #[test]
    fn a_sender_gone_without_finish_truncates_the_stream() {
        let _guard = fault::exclusive();
        for cap in [Some(4), None] {
            let counters = ClusterCounters::new();
            let (txs, mut rxs) = reliable_channels(3, 1, cap);
            let senders = txs.into_iter().enumerate().map(|(s, outs)| {
                let mut tx = ReliableSender::new(outs, "msg", 0, 0, vec![1], counters.clone());
                move || -> Result<()> {
                    let frames = if s == 1 { 3 } else { 20 };
                    for v in 0..frames {
                        tx.send_shared(0, frame_with(&[100 * s as u64 + v]))?;
                    }
                    if s == 1 {
                        drop(tx);
                        return Ok(());
                    }
                    tx.finish()
                }
            });
            let threads: Vec<_> = match cap {
                Some(_) => senders.map(std::thread::spawn).collect(),
                None => {
                    senders
                        .map(|send| send())
                        .collect::<Result<Vec<_>>>()
                        .unwrap();
                    Vec::new()
                }
            };
            let mut rx = ReliableReceiver::new(rxs.remove(0), counters);
            let mut got = vec![Vec::new(); 3];
            let err = loop {
                match rx.next_stream_frame() {
                    Ok(Some((s, f))) => got[s].push(tuple_vid(f.tuple(0)).unwrap()),
                    Ok(None) => panic!("cap {cap:?}: a truncated stream ended cleanly"),
                    Err(e) => break e,
                }
            };
            for t in threads {
                t.join().unwrap().unwrap();
            }
            let sent = |s: u64, n: u64| (100 * s..100 * s + n).collect::<Vec<_>>();
            assert_eq!(got, [sent(0, 20), sent(1, 3), sent(2, 20)], "cap {cap:?}");
            assert!(!err.is_recoverable(), "cap {cap:?}: {err}");
            let msg = err.to_string();
            assert!(
                msg.contains("source 1 ") && msg.contains("truncated"),
                "cap {cap:?}: {msg}"
            );
        }
    }

    /// Install `plan` (when given) and run `frames` frames through a 1→1
    /// `msg` stream, returning the delivered vids and the wire counters.
    fn run_with(
        guard: &fault::ChaosGuard,
        plan: Option<FaultPlan>,
        cap: Option<usize>,
        frames: u64,
    ) -> (Vec<u64>, (u64, u64, u64)) {
        let installed = plan.map(|p| guard.install(p));
        let counters = ClusterCounters::new();
        let got = run_stream(cap, frames, &counters).unwrap();
        if let Some(plan) = installed {
            assert_eq!(
                plan.injected(),
                plan.rules().len() as u64,
                "every fault fired"
            );
        }
        guard.clear();
        (got, counts(&counters))
    }

    #[test]
    fn clean_stream_delivers_in_order_windowed() {
        let guard = fault::exclusive();
        let (got, counts) = run_with(&guard, None, Some(4), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(counts, (0, 0, 0));
    }

    #[test]
    fn dropped_frames_are_retransmitted_windowed() {
        let guard = fault::exclusive();
        let plan = FaultPlan::new()
            .on(Site::FrameSend, "msg", 3, Fault::DropFrame)
            .on(Site::FrameSend, "msg", 7, Fault::DropFrame);
        let (got, counts) = run_with(&guard, Some(plan), Some(4), 40);
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        assert_eq!(counts, (2, 0, 0));
    }

    #[test]
    fn corrupt_frames_are_rejected_and_retransmitted() {
        let guard = fault::exclusive();
        let plan = FaultPlan::new().on(Site::FrameSend, "msg", 4, Fault::CorruptFrame);
        let (got, counts) = run_with(&guard, Some(plan), Some(8), 20);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(counts, (1, 0, 1));
    }

    #[test]
    fn lost_fin_still_closes_stream() {
        let guard = fault::exclusive();
        // The 11th frame-send event on a 10-frame stream is the Fin.
        let plan = FaultPlan::new().on(Site::FrameSend, "msg", 11, Fault::DropFrame);
        let (got, counts) = run_with(&guard, Some(plan), Some(4), 10);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(counts, (1, 0, 0));
    }

    /// Run one frozen frame through a 1→1 bounded stream, returning the
    /// delivered frames themselves (not just their vids) so callers can
    /// assert slab-slice identity.
    fn roundtrip_shared(counters: &ClusterCounters, frame: SharedFrame) -> Vec<SharedFrame> {
        let (mut txs, mut rxs) = reliable_channels(1, 1, Some(4));
        let mut tx = ReliableSender::new(txs.remove(0), "msg", 0, 0, vec![1], counters.clone());
        let h = std::thread::spawn(move || {
            tx.send_shared(0, frame)?;
            tx.finish()
        });
        let mut rx = ReliableReceiver::new(rxs.remove(0), counters.clone());
        let mut got = Vec::new();
        while let Some(f) = rx.next_frame().unwrap() {
            got.push(f);
        }
        h.join().unwrap().unwrap();
        got
    }

    #[test]
    fn delivery_hands_over_the_senders_slab_slice() {
        let _guard = fault::exclusive();
        let counters = ClusterCounters::new();
        let frame = frame_with(&[7, 8]);
        let got = roundtrip_shared(&counters, frame.clone());
        assert_eq!(got.len(), 1);
        // Not merely equal bytes: the very same backing allocation.
        assert!(got[0].aliases(&frame));
        assert_eq!(got[0], frame);
        assert_eq!(counts(&counters), (0, 0, 0));
    }

    /// A dropped, torn or duplicated send still delivers the sender's slab
    /// slice, once: the fault is counted, nothing is re-encoded or copied.
    #[test]
    fn retransmission_resends_the_identical_slab_slice() {
        let guard = fault::exclusive();
        for (fault, expected) in [
            (Fault::DropFrame, (1, 0, 0)),
            (Fault::CorruptFrame, (1, 0, 1)),
            (Fault::DuplicateFrame, (0, 1, 0)),
        ] {
            guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, fault));
            let counters = ClusterCounters::new();
            let frame = frame_with(&[42]);
            let got = roundtrip_shared(&counters, frame.clone());
            assert_eq!(counts(&counters), expected, "{fault:?}");
            assert_eq!(got.len(), 1, "{fault:?}");
            assert!(got[0].aliases(&frame), "{fault:?}");
            guard.clear();
        }
    }

    #[test]
    fn empty_stream_closes_cleanly() {
        let _guard = fault::exclusive();
        let counters = ClusterCounters::new();
        assert!(run_stream(Some(4), 0, &counters).unwrap().is_empty());
    }
}
