//! Reliable stream transport underneath the partitioning connectors.
//!
//! Every sender→receiver channel pair is a *stream*: one producer, one
//! consumer, first in first out. A message on it is a plain in-memory value
//! — the stream label, a 1-based seq and a payload: a frozen frame (a
//! refcounted [`SharedFrame`], never re-encoded) or the `Fin` that closes
//! the stream at seq `last + 1`. Nothing on a stream is ever reordered, so
//! nothing is acknowledged or resent. One rule covers every loss:
//!
//! * a message the wire drops or tears — a data frame or the `Fin` — is
//!   parked pristine on the stream's control plane ([`StreamCtrl`]), and a
//!   payload-free notice takes its seq on the wire: a `Probe` for a drop, a
//!   `Torn` for a corruption. The receiver lifts the parked message off when
//!   the notice arrives (`frames_retransmitted`; a torn one also counts in
//!   `frames_corrupted`);
//! * a duplicate is discarded by seq (`frames_deduped`);
//! * the receiver reads each stream until its sender disconnects, so a
//!   duplicated `Fin` is counted too, and a disconnect without a `Fin` (the
//!   sender died mid-stream) is a non-recoverable truncation error, so the
//!   sender's own error decides whether the job is replayed.
//!
//! Each counter is therefore a count of injected faults — drops plus
//! corruptions, duplications, corruptions — whatever kind of message a fault
//! hits and however threads interleave, so chaos digests pin all three.
//!
//! **No checksums, no timers.** A message never leaves the process, so
//! nothing on this path is hashed; guarding bytes in transit is the network
//! layer's job, as in the paper. Every fault fires at an event count.
//!
//! **Back-pressure** is the data channel's bound, the one number
//! `ClusterConfig::channel_capacity` reports: bounded on threaded clusters,
//! unbounded under sequential-timed simulation, where a sender runs to
//! completion before its receiver starts.

use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Fault, Site};
use pregelix_common::frame::SharedFrame;
use pregelix_common::stats::ClusterCounters;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// What one message on a stream carries.
#[derive(Clone, Debug)]
enum Payload {
    /// One frozen data frame; `seq` runs `1..=last`. Shared, not copied.
    Data(SharedFrame),
    /// End of stream; its `seq` is `last + 1`.
    Fin,
    /// The wire lost the message with this seq; it is parked.
    Probe,
    /// The wire tore the message with this seq: none of its bytes travel,
    /// the pristine message is parked.
    Torn,
}

/// One message on a stream's data channel.
#[derive(Debug)]
struct Message {
    /// Stream label (`"msg"`, `"mut"`, `"gs"`, ...). Shared so per-message
    /// cost is a refcount, not an allocation.
    stream: Arc<str>,
    /// 1-based sequence number (see `Payload` for what it names).
    seq: u64,
    payload: Payload,
}

/// Control plane of one stream: the stand-in for what a real network keeps
/// outside the lossy data path. The sender parks here every message the
/// wire lost (sized by the number of injected faults — empty in
/// production); the receiver lifts each one off when its notice arrives.
#[derive(Debug, Default)]
pub struct StreamCtrl {
    /// Pristine data frames (views of the sender's slab slices, not copies)
    /// and `Fin`s, keyed by seq.
    parked: BTreeMap<u64, Payload>,
}

fn lock_ctrl(ctrl: &Mutex<StreamCtrl>) -> MutexGuard<'_, StreamCtrl> {
    ctrl.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sender endpoint of one reliable stream.
pub struct StreamTx {
    data: Sender<Message>,
    ctrl: Arc<Mutex<StreamCtrl>>,
}

/// Receiver endpoint of one reliable stream.
pub struct StreamRx {
    data: Receiver<Message>,
    ctrl: Arc<Mutex<StreamCtrl>>,
}

/// Build the m×n reliable-stream matrix for a partitioning connector.
///
/// `cap` is the data-channel capacity in frames; `None` builds unbounded
/// streams (required by sequential-timed mode, where a bounded channel's
/// back-pressure would block with no concurrent peer).
pub fn reliable_channels(
    m: usize,
    n: usize,
    cap: Option<usize>,
) -> (Vec<Vec<StreamTx>>, Vec<Vec<StreamRx>>) {
    let mut senders: Vec<Vec<StreamTx>> = (0..m).map(|_| Vec::with_capacity(n)).collect();
    let mut receivers: Vec<Vec<StreamRx>> = (0..n).map(|_| Vec::with_capacity(m)).collect();
    for receiver in &mut receivers {
        for sender_list in senders.iter_mut() {
            let (data_tx, data_rx) = match cap {
                Some(c) => bounded(c),
                None => unbounded(),
            };
            let ctrl = Arc::new(Mutex::new(StreamCtrl::default()));
            sender_list.push(StreamTx {
                data: data_tx,
                ctrl: ctrl.clone(),
            });
            receiver.push(StreamRx {
                data: data_rx,
                ctrl,
            });
        }
    }
    (senders, receivers)
}

/// Connector-level accounting size of a frozen frame: tuple data plus the
/// 4-byte-per-tuple offset table (the builder's `footprint`, kept identical
/// so network-byte counters stay comparable across PRs).
#[inline]
fn footprint(frame: &SharedFrame) -> usize {
    frame.wire_len() - 4
}

struct OutStream {
    tx: StreamTx,
    /// Data frames sent so far (the last data seq).
    sent: u64,
}

/// Sender half of the reliable transport: one instance per sending task,
/// fanning out to n receiver streams.
pub struct ReliableSender {
    outs: Vec<OutStream>,
    label: Arc<str>,
    counters: ClusterCounters,
    my_worker: usize,
    receiver_workers: Vec<usize>,
}

impl ReliableSender {
    /// Wrap one sender's stream endpoints. `receiver_workers[r]` is the
    /// machine hosting receiver `r` (network accounting). `_sender_id` is
    /// unused: the channel topology already separates streams. It stays in
    /// the signature because `benchmark/src/replay.rs` calls this
    /// constructor, until that replay is retired (ROADMAP item 2A).
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
            outs: outs
                .into_iter()
                .map(|tx| OutStream { tx, sent: 0 })
                .collect(),
            label: label.into(),
            counters,
            my_worker,
            receiver_workers,
        }
    }

    /// Re-tag the stream (fault-injection context and message label). Only
    /// meaningful before the first send — seqs already on the wire keep the
    /// label they were stamped with.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.into();
    }

    /// Ship a frozen frame as the next seq of stream `part`, charging it to
    /// the network counters when it crosses machines. Blocks only while a
    /// bounded data channel is full.
    pub fn send_shared(&mut self, part: usize, frame: SharedFrame) -> Result<()> {
        if self.receiver_workers[part] != self.my_worker {
            self.counters.add_network_bytes(footprint(&frame) as u64);
            self.counters.add_network_frames(1);
        }
        self.outs[part].sent += 1;
        self.transmit(part, self.outs[part].sent, Payload::Data(frame))
    }

    /// Push one data frame or `Fin` through the (possibly faulty) wire at
    /// [`Site::FrameSend`].
    fn transmit(&mut self, part: usize, seq: u64, payload: Payload) -> Result<()> {
        let Some(f) = fault::hit(Site::FrameSend, &self.label) else {
            return self.push(part, seq, payload);
        };
        self.counters.add_faults_injected(1);
        let notice = match f {
            Fault::DropFrame => Payload::Probe,
            Fault::CorruptFrame => Payload::Torn,
            Fault::DuplicateFrame => {
                self.push(part, seq, payload.clone())?;
                return self.push(part, seq, payload);
            }
            _ => return Err(fault::injected_error(Site::FrameSend, &self.label)),
        };
        // Park before the notice travels, so the receiver always finds it.
        lock_ctrl(&self.outs[part].tx.ctrl)
            .parked
            .insert(seq, payload);
        self.push(part, seq, notice)
    }

    fn push(&self, part: usize, seq: u64, payload: Payload) -> Result<()> {
        let msg = Message {
            stream: self.label.clone(),
            seq,
            payload,
        };
        self.outs[part]
            .tx
            .data
            .send(msg)
            .map_err(|_| PregelixError::internal("receiver hung up mid-stream"))
    }

    /// Close every stream with a `Fin`; the endpoints drop on return, which
    /// is the disconnect each receiver reads up to.
    pub fn finish(mut self) -> Result<()> {
        for part in 0..self.outs.len() {
            let fin_seq = self.outs[part].sent + 1;
            self.transmit(part, fin_seq, Payload::Fin)?;
        }
        Ok(())
    }
}

struct InStream {
    rx: StreamRx,
    /// Data frames delivered so far (the last delivered seq).
    delivered: u64,
    /// Whether the `Fin` arrived.
    fin: bool,
    /// Stream label as observed from messages (diagnostics).
    label: Arc<str>,
    /// Cleared once the sender disconnected.
    open: bool,
}

/// Receiver half of the reliable transport: delivers every stream's frames
/// exactly once, in per-stream seq order, interleaved across streams in
/// arrival order.
pub struct ReliableReceiver {
    ins: Vec<InStream>,
    counters: ClusterCounters,
}

impl ReliableReceiver {
    /// Wrap one receiver's stream endpoints.
    pub fn new(ins: Vec<StreamRx>, counters: ClusterCounters) -> ReliableReceiver {
        ReliableReceiver {
            ins: ins
                .into_iter()
                .map(|rx| InStream {
                    rx,
                    delivered: 0,
                    fin: false,
                    label: "".into(),
                    open: true,
                })
                .collect(),
            counters,
        }
    }

    /// Next frame from any stream, or `None` once every sender closed its
    /// stream and disconnected. The returned frame is the same slab slice
    /// the sender froze — delivery hands over a view, never a copy.
    pub fn next_frame(&mut self) -> Result<Option<SharedFrame>> {
        Ok(self.next_stream_frame()?.map(|(_, frame)| frame))
    }

    /// [`next_frame`](Self::next_frame) naming the stream it came from: the
    /// index of its endpoint in the list this receiver was built from. It
    /// takes whichever stream has a message, never waiting on one stream
    /// while another has one.
    pub fn next_stream_frame(&mut self) -> Result<Option<(usize, SharedFrame)>> {
        loop {
            let live: Vec<usize> = (0..self.ins.len()).filter(|&i| self.ins[i].open).collect();
            if live.is_empty() {
                return Ok(None);
            }
            let mut sel = Select::new();
            for &i in &live {
                sel.recv(&self.ins[i].rx.data);
            }
            let op = sel.select();
            let i = live[op.index()];
            match op.recv(&self.ins[i].rx.data) {
                Ok(msg) => {
                    if let Some(frame) = self.on_message(i, msg)? {
                        return Ok(Some((i, frame)));
                    }
                }
                Err(_) => self.on_disconnect(i)?,
            }
        }
    }

    /// Apply the loss rule to one message: a notice lifts its parked
    /// message off the control plane, which is then taken like any other;
    /// a data frame or `Fin` already taken is an echo.
    fn on_message(&mut self, i: usize, msg: Message) -> Result<Option<SharedFrame>> {
        let s = &mut self.ins[i];
        s.label = msg.stream;
        let payload = match msg.payload {
            notice @ (Payload::Probe | Payload::Torn) => {
                if matches!(notice, Payload::Torn) {
                    self.counters.add_frames_corrupted(1);
                }
                self.counters.add_frames_retransmitted(1);
                let parked = lock_ctrl(&s.rx.ctrl).parked.remove(&msg.seq);
                parked.ok_or_else(|| {
                    PregelixError::internal(format!(
                        "stream {:?}: notice for seq {} with nothing parked",
                        s.label, msg.seq
                    ))
                })?
            }
            taken => taken,
        };
        match payload {
            Payload::Data(frame) if msg.seq == s.delivered + 1 => {
                s.delivered = msg.seq;
                Ok(Some(frame))
            }
            Payload::Fin if !s.fin => {
                s.fin = true;
                Ok(None)
            }
            _ => {
                self.counters.add_frames_deduped(1);
                Ok(None)
            }
        }
    }

    /// The sender's endpoint dropped: end of stream if its `Fin` arrived,
    /// otherwise the sender died mid-stream. That sender's task fails with
    /// the cause, so the truncation is an internal error: it ranks last in
    /// `Cluster::execute` (a tie goes to the sender, submitted first), so it
    /// never masks the cause nor makes a deterministic failure replayable.
    fn on_disconnect(&mut self, i: usize) -> Result<()> {
        let s = &mut self.ins[i];
        s.open = false;
        if s.fin {
            return Ok(());
        }
        Err(PregelixError::internal(format!(
            "stream {:?} truncated: sender gone after {} frames without a Fin",
            s.label, s.delivered
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::fault::FaultPlan;
    use pregelix_common::frame::{keyed_tuple, Frame};

    fn frame_with(vids: &[u64]) -> SharedFrame {
        let mut f = Frame::with_capacity(1 << 16);
        for &v in vids {
            assert!(f.try_append(&keyed_tuple(v, b"x")));
        }
        f.freeze_standalone()
    }

    fn drain(ins: Vec<StreamRx>, counters: &ClusterCounters) -> Result<Vec<u64>> {
        let mut rx = ReliableReceiver::new(ins, counters.clone());
        let mut got = Vec::new();
        while let Some(f) = rx.next_frame()? {
            for t in f.iter() {
                got.push(pregelix_common::frame::tuple_vid(t)?);
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

    /// A sender that returns mid-stream without `finish` leaves its
    /// receiver a truncation error after the frames it did send. It is not
    /// recoverable: the sender's own error carries the cause.
    #[test]
    fn a_sender_gone_without_finish_truncates_the_stream() {
        let _guard = fault::exclusive();
        for cap in [Some(4), None] {
            let counters = ClusterCounters::new();
            let (mut txs, mut rxs) = reliable_channels(1, 1, cap);
            let mut tx = ReliableSender::new(txs.remove(0), "msg", 0, 0, vec![1], counters.clone());
            for v in 0..3 {
                tx.send_shared(0, frame_with(&[v])).unwrap();
            }
            drop(tx);
            let mut rx = ReliableReceiver::new(rxs.remove(0), counters);
            for _ in 0..3 {
                assert!(rx.next_frame().unwrap().is_some(), "cap {cap:?}");
            }
            let err = rx.next_frame().unwrap_err();
            assert!(!err.is_recoverable(), "cap {cap:?}: {err}");
            assert!(err.to_string().contains("truncated"), "cap {cap:?}: {err}");
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
    fn dropped_frames_recovered_from_control_plane_open_loop() {
        let guard = fault::exclusive();
        let plan = FaultPlan::new()
            .on(Site::FrameSend, "msg", 2, Fault::DropFrame)
            .on(Site::FrameSend, "msg", 9, Fault::DropFrame);
        let (got, counts) = run_with(&guard, Some(plan), None, 30);
        assert_eq!(got, (0..30).collect::<Vec<_>>());
        assert_eq!(counts, (2, 0, 0));
    }

    #[test]
    fn duplicates_are_discarded_by_seq() {
        let guard = fault::exclusive();
        let plan = FaultPlan::new().on(Site::FrameSend, "msg", 5, Fault::DuplicateFrame);
        let (got, counts) = run_with(&guard, Some(plan), Some(8), 20);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(counts, (0, 1, 0));
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
        // The 11th frame-send event on a 10-frame stream is the Fin: it is
        // parked, and its probe lifts it off exactly once.
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

    #[test]
    fn retransmission_resends_the_identical_slab_slice() {
        let guard = fault::exclusive();
        guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame));
        let counters = ClusterCounters::new();
        let frame = frame_with(&[42]);
        let got = roundtrip_shared(&counters, frame.clone());
        assert_eq!(counts(&counters), (1, 0, 0));
        assert_eq!(got.len(), 1);
        // The redelivery came off the control plane: the slab slice the
        // sender parked, no re-encode, no copy.
        assert!(got[0].aliases(&frame));
    }

    #[test]
    fn corruption_is_a_torn_notice_and_recovery_delivers_the_pristine_slice() {
        let guard = fault::exclusive();
        guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::CorruptFrame));
        let counters = ClusterCounters::new();
        let frame = frame_with(&[42]);
        let got = roundtrip_shared(&counters, frame.clone());
        assert_eq!(counts(&counters), (1, 0, 1));
        assert_eq!(got.len(), 1);
        // The wire carried only a torn notice; what finally arrived is the
        // pristine view the sender parked, the very same backing.
        assert!(got[0].aliases(&frame));
        assert_eq!(got[0], frame);
    }

    #[test]
    fn empty_stream_closes_cleanly() {
        let _guard = fault::exclusive();
        let counters = ClusterCounters::new();
        assert!(run_stream(Some(4), 0, &counters).unwrap().is_empty());
    }
}
