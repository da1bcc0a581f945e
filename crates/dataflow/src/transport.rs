//! Reliable stream transport underneath the partitioning connectors.
//!
//! PR 2's `FrameSend` faults proved the raw channels are a lossy wire: a
//! dropped frame silently loses messages (detected only by downstream
//! report-count checks) and a duplicated frame relies on combiner
//! idempotence. This module turns every sender→receiver channel pair into a
//! *stream* with TCP-like delivery guarantees:
//!
//! * every frame travels as a plain in-memory `Message`: the stream
//!   label, a monotonic 1-based seq, and the frame itself — a refcounted
//!   [`SharedFrame`], never re-encoded;
//! * receivers deliver in seq order, discard duplicates by seq
//!   (`frames_deduped`), count torn sends (`frames_corrupted`), and send
//!   cumulative `Ack`s with a single-seq nack for the first gap;
//! * senders keep an in-flight window (the data-channel capacity), pop it on
//!   cumulative acks, and retransmit nacked seqs (`frames_retransmitted`)
//!   with a *bounded* per-seq resend budget — when the budget is exhausted
//!   (a retransmit storm) the sender gives up with a recoverable I/O error
//!   and the driver falls back to checkpoint recovery.
//!
//! **No checksums.** A message never leaves the process, so nothing on this
//! path is hashed; guarding bytes in transit is the network layer's job, as
//! in the paper. Wire faults are modelled at the message level instead: a
//! dropped frame arrives as a payload-free `Probe`, a corrupted one as a
//! payload-free `Torn` notice, and either way the sender has parked the
//! pristine frame on the stream's control plane.
//!
//! **Determinism.** A real transport re-arms a retransmission timer when a
//! segment vanishes; timers are banned here (every fault fires at an event
//! count). Instead the simulated wire's event schedule keeps ticking: a
//! lost message is delivered as a payload-free notice carrying its seq,
//! which wakes the receiver, which re-nacks, which drives the resend.
//! Chaos runs therefore replay bit-identically.
//!
//! **Deadlock-freedom.** Ack channels are *unbounded* by construction: if
//! both the data and ack channels were bounded and full, a sender blocked in
//! `data.send` and a receiver blocked in `ack.send` would deadlock. With
//! unbounded acks the receiver never blocks acking, and the queue stays
//! small in practice because the sender drains it before every send. The
//! data-channel capacity is the *single* source of truth shared with
//! `ClusterConfig::channel_capacity`: `None` (sequential-timed mode) selects
//! **open-loop** streams — the sender never waits for acks (the receiver
//! runs only after it completes), and wire-lost frames are recovered from a
//! shared control-plane [`StreamCtrl`] instead of the nack path.

use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Fault, Site};
use pregelix_common::frame::SharedFrame;
use pregelix_common::stats::ClusterCounters;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-seq retransmission budget. Exceeding it means the wire is not
/// transiently lossy but persistently broken — surface a recoverable error
/// and let the failure manager take over. Resends are not paced: chaos
/// schedules stay event-counted.
pub const DEFAULT_MAX_RESEND: u32 = 8;

/// What one message on a stream carries.
#[derive(Debug)]
enum Payload {
    /// One frozen data frame; `seq` runs `1..=last`. Shared, not copied:
    /// the sender's retransmit window holds a view of the same slab slice.
    Data(SharedFrame),
    /// The wire corrupted the data frame `seq`: its bytes cannot be
    /// trusted, so none travel — only the seq survives.
    Torn,
    /// End of stream; its `seq` is `last + 1`, so "the number of data
    /// frames" is implied and the Fin is retransmittable under the same
    /// seq-addressed nack machinery as data.
    Fin,
    /// Stand-in for a message the wire lost, carrying the lost seq.
    Probe,
}

/// One message on a stream's data channel: one hop on one sender→receiver
/// stream.
#[derive(Debug)]
struct Message {
    /// Stream label (`"msg"`, `"mut"`, `"gs"`, ...). Shared so per-message
    /// cost is a refcount, not an allocation.
    stream: Arc<str>,
    /// 1-based sequence number (see `Payload` for what it names).
    seq: u64,
    payload: Payload,
}

/// Cumulative acknowledgement flowing receiver→sender on a stream.
///
/// `cum` acknowledges every seq `<= cum`; `nack`, when non-zero, requests
/// retransmission of exactly that seq (the receiver's first gap, or
/// `last + 1` to re-request a lost Fin). Acks are idempotent and unordered:
/// any later ack subsumes a lost earlier one.
#[derive(Clone, Copy, Debug)]
struct Ack {
    /// Highest seq such that all seqs `<= cum` were delivered.
    cum: u64,
    /// Seq to retransmit, or 0 for none.
    nack: u64,
}

/// Control-plane state shared by the two endpoints of one stream.
///
/// This is the stand-in for everything a real network keeps *outside* the
/// lossy data path: the sender parks pristine copies of wire-lost frames
/// here (sized by the number of injected faults — empty in production), the
/// open-loop finish records the authoritative last seq, and the receiver
/// flags completion so a sender whose final ack was lost can distinguish
/// "receiver done" from "receiver dead".
#[derive(Debug, Default)]
pub struct StreamCtrl {
    /// Pristine views of frames the wire lost (dropped or corrupted),
    /// keyed by seq. Views, not copies: parking is a refcount on the slab
    /// slice the sender already built.
    parked: BTreeMap<u64, SharedFrame>,
    /// Last data seq of the stream, recorded by the open-loop finish.
    fin: Option<u64>,
    /// Set by the receiver once every data frame was delivered in order.
    completed: bool,
}

fn lock_ctrl(ctrl: &Mutex<StreamCtrl>) -> MutexGuard<'_, StreamCtrl> {
    ctrl.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sender endpoint of one reliable stream.
pub struct StreamTx {
    data: Sender<Message>,
    ack: Receiver<Ack>,
    ctrl: Arc<Mutex<StreamCtrl>>,
    /// In-flight window size; `None` = open-loop (unbounded data channel,
    /// no ack waiting — sequential-timed mode).
    window: Option<usize>,
}

impl StreamTx {
    /// The in-flight window (data-channel capacity), `None` for open-loop.
    pub fn window(&self) -> Option<usize> {
        self.window
    }
}

/// Receiver endpoint of one reliable stream. Open-loop (unbounded data
/// channel, no ack-driven flow control) exactly when its sender's window is
/// `None`: wire losses then recover through the stream control plane
/// instead of nack-triggered retransmission.
pub struct StreamRx {
    data: Receiver<Message>,
    ack: Sender<Ack>,
    ctrl: Arc<Mutex<StreamCtrl>>,
    open_loop: bool,
}

/// Build the m×n reliable-stream matrix for a partitioning connector.
///
/// `cap` is the data-channel capacity in frames and doubles as the sender's
/// in-flight window; `None` builds unbounded open-loop streams (required by
/// sequential-timed mode, where a bounded channel's backpressure — or an
/// ack wait — would block with no concurrent peer). This is the single
/// place both the data and ack paths derive their capacity from, keeping
/// them in agreement with `ClusterConfig::channel_capacity`.
pub fn reliable_channels(
    m: usize,
    n: usize,
    cap: Option<usize>,
) -> (Vec<Vec<StreamTx>>, Vec<Vec<StreamRx>>) {
    let mut senders: Vec<Vec<StreamTx>> = (0..m).map(|_| Vec::with_capacity(n)).collect();
    let mut receivers: Vec<Vec<StreamRx>> = (0..n).map(|_| Vec::with_capacity(m)).collect();
    for receiver in &mut receivers {
        for sender_list in senders.iter_mut().take(m) {
            let (data_tx, data_rx) = match cap {
                Some(c) => bounded(c),
                None => unbounded(),
            };
            // Acks are unbounded so the receiver can never block acking
            // (see the module docs for the two-full-channels deadlock).
            let (ack_tx, ack_rx) = unbounded();
            let ctrl = Arc::new(Mutex::new(StreamCtrl::default()));
            sender_list.push(StreamTx {
                data: data_tx,
                ack: ack_rx,
                ctrl: ctrl.clone(),
                window: cap,
            });
            receiver.push(StreamRx {
                data: data_rx,
                ack: ack_tx,
                ctrl,
                open_loop: cap.is_none(),
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
    /// Seq the next data frame will take (1-based).
    next_seq: u64,
    /// Highest cumulatively acked data seq.
    cum_acked: u64,
    /// In-flight frames awaiting ack (windowed mode only), with the resends
    /// spent on each. A retransmission clones the stored frame — the
    /// identical slab slice travels again, zero re-encode, zero copy.
    inflight: VecDeque<(u64, SharedFrame, u32)>,
    /// Resends spent on the Fin.
    fin_resends: u32,
    /// Whether the Fin has been pushed at least once.
    fin_sent: bool,
}

impl OutStream {
    /// Data seqs issued so far.
    fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }
}

/// Sender half of the reliable transport: one instance per sending task,
/// fanning out to n receiver streams.
pub struct ReliableSender {
    outs: Vec<OutStream>,
    label: Arc<str>,
    /// Sender index within the connector (diagnostics only; the channel
    /// topology already separates streams).
    sender_id: u32,
    counters: ClusterCounters,
    my_worker: usize,
    receiver_workers: Vec<usize>,
}

impl ReliableSender {
    /// Wrap one sender's stream endpoints. `receiver_workers[r]` is the
    /// machine hosting receiver `r` (network accounting).
    pub fn new(
        outs: Vec<StreamTx>,
        label: &str,
        sender_id: u32,
        my_worker: usize,
        receiver_workers: Vec<usize>,
        counters: ClusterCounters,
    ) -> ReliableSender {
        debug_assert_eq!(outs.len(), receiver_workers.len());
        ReliableSender {
            outs: outs
                .into_iter()
                .map(|tx| OutStream {
                    tx,
                    next_seq: 1,
                    cum_acked: 0,
                    inflight: VecDeque::new(),
                    fin_resends: 0,
                    fin_sent: false,
                })
                .collect(),
            label: label.into(),
            sender_id,
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

    /// Ship a frozen frame as the next seq of stream `part`. In windowed
    /// mode this blocks while the in-flight window is full, servicing acks
    /// and nacks.
    ///
    /// The in-flight window stores a view of `frame`, so a retransmission
    /// re-sends the identical slab slice with zero re-encoding and zero
    /// copying.
    pub fn send_shared(&mut self, part: usize, frame: SharedFrame) -> Result<()> {
        let seq = self.outs[part].next_seq;
        self.outs[part].next_seq += 1;
        if let Some(w) = self.outs[part].tx.window() {
            self.drain_acks(part)?;
            while self.outs[part].inflight.len() >= w {
                self.await_ack(part)?;
            }
            self.outs[part].inflight.push_back((seq, frame.clone(), 0));
        }
        self.transmit(part, seq, frame, Site::FrameSend)
    }

    /// Charge one data frame to the network counters when it crosses
    /// machines, then push it through the (possibly faulty) wire.
    fn transmit(&mut self, part: usize, seq: u64, frame: SharedFrame, site: Site) -> Result<()> {
        if self.receiver_workers[part] != self.my_worker {
            self.counters.add_network_bytes(footprint(&frame) as u64);
            self.counters.add_network_frames(1);
        }
        let mut duplicate = false;
        if let Some(f) = fault::hit(site, &self.label) {
            self.counters.add_faults_injected(1);
            match f {
                Fault::DropFrame | Fault::CorruptFrame => {
                    // The frame never arrives intact: park the pristine
                    // view on the control plane and let the wire's schedule
                    // tick with a payload-free notice — a probe for a drop,
                    // a torn notice for a corruption — so the receiver can
                    // nack the gap.
                    lock_ctrl(&self.outs[part].tx.ctrl)
                        .parked
                        .insert(seq, frame);
                    let notice = match f {
                        Fault::DropFrame => Payload::Probe,
                        _ => Payload::Torn,
                    };
                    return self.push(part, seq, notice);
                }
                Fault::DuplicateFrame => duplicate = true,
                _ => return Err(fault::injected_error(site, &self.label)),
            }
        }
        if duplicate {
            self.push(part, seq, Payload::Data(frame.clone()))?;
        }
        self.push(part, seq, Payload::Data(frame))
    }

    /// Push the Fin through the wire.
    fn transmit_fin(&mut self, part: usize, site: Site) -> Result<()> {
        self.outs[part].fin_sent = true;
        let seq = self.outs[part].last_seq() + 1;
        let mut duplicate = false;
        if let Some(f) = fault::hit(site, &self.label) {
            self.counters.add_faults_injected(1);
            match f {
                // A Fin has no payload to corrupt; both faults lose it.
                Fault::DropFrame | Fault::CorruptFrame => {
                    return self.push(part, seq, Payload::Probe);
                }
                Fault::DuplicateFrame => duplicate = true,
                _ => return Err(fault::injected_error(site, &self.label)),
            }
        }
        if duplicate {
            self.push(part, seq, Payload::Fin)?;
        }
        self.push(part, seq, Payload::Fin)
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

    /// Service all queued acks without blocking.
    fn drain_acks(&mut self, part: usize) -> Result<()> {
        loop {
            match self.outs[part].tx.ack.try_recv() {
                Ok(a) => self.process_ack(part, a)?,
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => return self.ack_gone(part),
            }
        }
    }

    /// Block for one ack (window full, or finish-wait) and service it.
    fn await_ack(&mut self, part: usize) -> Result<()> {
        match self.outs[part].tx.ack.recv() {
            Ok(a) => self.process_ack(part, a),
            Err(_) => self.ack_gone(part),
        }
    }

    /// The receiver dropped its endpoints. Benign iff it completed the
    /// stream first (our final ack was lost on the wire); otherwise the
    /// receiving task died and its own error will surface.
    fn ack_gone(&mut self, part: usize) -> Result<()> {
        if lock_ctrl(&self.outs[part].tx.ctrl).completed {
            let s = &mut self.outs[part];
            s.cum_acked = s.last_seq();
            s.inflight.clear();
            Ok(())
        } else {
            Err(PregelixError::internal("receiver hung up mid-stream"))
        }
    }

    fn process_ack(&mut self, part: usize, a: Ack) -> Result<()> {
        {
            let s = &mut self.outs[part];
            if a.cum > s.cum_acked {
                s.cum_acked = a.cum;
                while s.inflight.front().is_some_and(|(q, _, _)| *q <= a.cum) {
                    s.inflight.pop_front();
                }
            }
        }
        if a.nack != 0 && a.nack > self.outs[part].cum_acked {
            return self.resend_unless_completed(part, a.nack);
        }
        // A contentless ack is the wire-fault stand-in for a lost ack: its
        // content was dropped, only the edge travelled (see `send_ack`). If
        // it was carrying a nack, that retransmission request is gone and
        // the receiver's nack latch means it will not be re-sent on its
        // own — without intervention both ends block forever.
        if a.cum == 0 && a.nack == 0 {
            return self.poke(part);
        }
        Ok(())
    }

    /// Recover from a contentless ack by probing the first seq we have no
    /// ack for. The receiver's `loss_report` answers a stale probe with a
    /// plain cumulative ack (repairing any lost cum information) and a
    /// genuine first-gap probe with an *unconditional* re-nack — which
    /// drives the normal counted resend, exactly as the intact nack would
    /// have. The poke itself touches no counters, so the chaos digest is
    /// invariant to *which* ack the fault's racing global event counter
    /// landed on: a lost nack yields the same retransmission count as an
    /// intact one, and a lost plain ack yields none, on every schedule.
    fn poke(&mut self, part: usize) -> Result<()> {
        if lock_ctrl(&self.outs[part].tx.ctrl).completed {
            // The emptied ack was the final one; the completion flag (set
            // before any final ack is sent) already says everything it did.
            return Ok(());
        }
        let probe_seq = self.outs[part].cum_acked + 1;
        if probe_seq > self.outs[part].last_seq() && !self.outs[part].fin_sent {
            // Everything sent so far is acked and the stream is still being
            // produced: the emptied ack carried no nack (a nack implies an
            // unacked gap), so nothing was lost that later cumulative acks
            // will not repair — and probing a seq that never travelled
            // would make the receiver nack it and turn the resend into a
            // premature Fin. Nothing to recover; keep producing.
            return Ok(());
        }
        match self.push(part, probe_seq, Payload::Probe) {
            Ok(()) => Ok(()),
            // Lost the race against stream completion: the receiver
            // finished and dropped its endpoints, so the poke was moot.
            Err(e) => {
                if lock_ctrl(&self.outs[part].tx.ctrl).completed {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// A resend that tolerates losing the race against stream completion:
    /// the receiver may flag `completed` and drop its endpoints between the
    /// ack that triggered this resend and the retransmission's push. Once
    /// the control plane shows completion the retransmission was moot, so
    /// any error from it (closed wire, exhausted budget) is moot too.
    fn resend_unless_completed(&mut self, part: usize, seq: u64) -> Result<()> {
        match self.resend(part, seq) {
            Ok(()) => Ok(()),
            Err(e) => {
                if lock_ctrl(&self.outs[part].tx.ctrl).completed {
                    let s = &mut self.outs[part];
                    s.cum_acked = s.last_seq();
                    s.inflight.clear();
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Retransmit `seq` (a data frame, or the Fin when `seq == last + 1`)
    /// within the bounded resend budget.
    fn resend(&mut self, part: usize, seq: u64) -> Result<()> {
        let label = self.label.clone();
        let s = &mut self.outs[part];
        let resends = if seq == s.last_seq() + 1 {
            // The receiver has every data frame but never saw our Fin.
            s.fin_resends += 1;
            s.fin_resends
        } else {
            match s.inflight.iter_mut().find(|(q, _, _)| *q == seq) {
                Some(entry) => {
                    entry.2 += 1;
                    entry.2
                }
                // Already cumulatively acked: a stale nack. Ignore.
                None => return Ok(()),
            }
        };
        if resends > DEFAULT_MAX_RESEND {
            let sender = self.sender_id;
            return Err(PregelixError::Io(std::io::Error::other(format!(
                "retransmit storm on stream {label:?} from sender {sender}: gave up on seq \
                 {seq} after {DEFAULT_MAX_RESEND} resends"
            ))));
        }
        self.counters.add_frames_retransmitted(1);
        if seq == self.outs[part].last_seq() + 1 {
            self.transmit_fin(part, Site::FrameResend)
        } else {
            // Clone the *stored frame*: the identical slab slice travels
            // again — no re-encode.
            let frame = self.outs[part]
                .inflight
                .iter()
                .find(|(q, _, _)| *q == seq)
                .map(|(_, f, _)| f.clone())
                .expect("checked above");
            self.transmit(part, seq, frame, Site::FrameResend)
        }
    }

    /// Close every stream: send Fin, then (windowed mode) service acks and
    /// nacks until the receiver confirms stream completion via the control
    /// plane. Waiting on the `completed` flag rather than `cum == last`
    /// guarantees a lost Fin is re-driven by this sender (deterministically
    /// — exactly one resend per fin-nack event), not patched up by the
    /// receiver's disconnect path at whatever moment this thread exits.
    ///
    /// Open-loop mode records the authoritative last seq on the control
    /// plane and returns immediately — the receiver has not even started.
    ///
    /// Streams are closed in part order; every sender follows the same
    /// order, so all fins for part `p` are on the wire before anyone waits
    /// on `p` and a concurrently-draining receiver always completes it.
    pub fn finish(mut self) -> Result<()> {
        for part in 0..self.outs.len() {
            let windowed = self.outs[part].tx.window().is_some();
            if !windowed {
                lock_ctrl(&self.outs[part].tx.ctrl).fin = Some(self.outs[part].last_seq());
            }
            self.transmit_fin(part, Site::FrameSend)?;
            if windowed {
                self.drain_acks(part)?;
                while !lock_ctrl(&self.outs[part].tx.ctrl).completed {
                    self.await_ack(part)?;
                }
            }
        }
        Ok(())
    }
}

struct InStream {
    rx: StreamRx,
    /// Next data seq expected in order (1-based).
    next: u64,
    /// Out-of-order arrivals awaiting the gap fill. Views of the sender's
    /// slab slices — buffering costs a refcount, not a copy.
    ooo: BTreeMap<u64, SharedFrame>,
    /// Seqs reported lost by a probe or torn notice and not yet
    /// delivered. Evidence of gaps beyond `ooo`.
    lost: std::collections::BTreeSet<u64>,
    /// Last data seq, once a Fin arrived (or the open-loop control plane
    /// supplied it at disconnect).
    last: Option<u64>,
    /// The seq currently nacked, to avoid re-nacking the same gap on every
    /// out-of-order arrival (which would spuriously exhaust the sender's
    /// resend budget — and make retransmission counts timing-dependent).
    nacked: Option<u64>,
    /// Stream label as observed from messages (ack fault-site context).
    label: Arc<str>,
    open: bool,
}

impl InStream {
    fn complete(&self) -> bool {
        self.last.is_some_and(|l| self.next > l)
    }
}

/// Receiver half of the reliable transport: delivers every stream's frames
/// exactly once, in per-stream seq order, interleaved across streams in
/// arrival order.
pub struct ReliableReceiver {
    ins: Vec<InStream>,
    ready: VecDeque<SharedFrame>,
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
                    next: 1,
                    ooo: BTreeMap::new(),
                    lost: std::collections::BTreeSet::new(),
                    last: None,
                    nacked: None,
                    label: "".into(),
                    open: true,
                })
                .collect(),
            ready: VecDeque::new(),
            counters,
        }
    }

    /// Next frame from any stream, or `None` once every stream completed.
    /// The returned frame is the same slab slice the sender froze — delivery
    /// hands over a view, never a copy.
    pub fn next_frame(&mut self) -> Result<Option<SharedFrame>> {
        loop {
            if let Some(f) = self.ready.pop_front() {
                return Ok(Some(f));
            }
            let live: Vec<usize> = (0..self.ins.len()).filter(|&i| self.ins[i].open).collect();
            if live.is_empty() {
                return Ok(None);
            }
            let mut sel = Select::new();
            for &i in &live {
                sel.recv(&self.ins[i].rx.data);
            }
            let op = sel.select();
            let chosen = live[op.index()];
            match op.recv(&self.ins[chosen].rx.data) {
                Ok(msg) => self.on_message(chosen, msg),
                Err(_) => self.on_disconnect(chosen)?,
            }
        }
    }

    fn on_message(&mut self, i: usize, msg: Message) {
        self.ins[i].label = msg.stream;
        let seq = msg.seq;
        match msg.payload {
            Payload::Data(frame) => {
                let s = &mut self.ins[i];
                if seq < s.next || s.ooo.contains_key(&seq) {
                    self.counters.add_frames_deduped(1);
                    self.send_ack(i, 0);
                } else if seq == s.next {
                    s.next += 1;
                    self.ready.push_back(frame);
                    self.drain_ooo(i);
                    self.after_advance(i);
                } else {
                    s.lost.remove(&seq); // it arrived after all
                    s.ooo.insert(seq, frame);
                    self.gap_hint(i, false);
                }
            }
            Payload::Torn => {
                // Torn send: the payload can't be trusted, only the seq.
                // Count it and treat it as a loss report for that seq.
                self.counters.add_frames_corrupted(1);
                self.loss_report(i, seq);
            }
            Payload::Fin => {
                self.ins[i].last = Some(seq - 1);
                if self.ins[i].complete() {
                    self.finish_stream(i);
                } else {
                    self.gap_hint(i, false);
                }
            }
            Payload::Probe => {
                // Something with this seq was lost in transit; its bytes are
                // gone but the wire's schedule ticked.
                self.loss_report(i, seq);
            }
        }
    }

    /// Pull consecutive out-of-order frames into the ready queue.
    fn drain_ooo(&mut self, i: usize) {
        let s = &mut self.ins[i];
        while let Some(f) = s.ooo.remove(&s.next) {
            s.next += 1;
            self.ready.push_back(f);
        }
    }

    /// Bookkeeping after `next` advanced: prune satisfied loss records and
    /// nacks, complete the stream if the Fin bound was reached, otherwise
    /// ack the new high-water mark — nacking the new first gap if evidence
    /// of one remains.
    fn after_advance(&mut self, i: usize) {
        let s = &mut self.ins[i];
        let next = s.next;
        while s.lost.first().is_some_and(|&q| q < next) {
            s.lost.pop_first();
        }
        if s.nacked.is_some_and(|n| n < next) {
            s.nacked = None;
        }
        if s.complete() {
            self.finish_stream(i);
        } else {
            self.gap_hint(i, true);
        }
    }

    /// Whether frames before some already-known seq are still missing.
    fn gap_known(&self, i: usize) -> bool {
        let s = &self.ins[i];
        !s.ooo.is_empty()
            || s.lost.first().is_some_and(|&q| q >= s.next)
            || s.last.is_some_and(|l| s.next <= l)
    }

    /// Nack the first gap if one is known and not yet nacked; otherwise (or
    /// when `ack_clean`) send a plain cumulative ack. Open-loop streams
    /// recover from the control plane instead of nacking.
    fn gap_hint(&mut self, i: usize, ack_clean: bool) {
        if self.ins[i].rx.open_loop {
            self.recover_parked(i);
            return;
        }
        let first_gap = self.ins[i].next;
        if self.gap_known(i) && self.ins[i].nacked != Some(first_gap) {
            self.ins[i].nacked = Some(first_gap);
            self.send_ack(i, first_gap);
        } else if ack_clean {
            self.send_ack(i, 0);
        }
    }

    /// A probe or torn notice reported `lost_seq` gone. When the loss is
    /// exactly our first gap, any earlier nack's resend was itself lost —
    /// re-nack unconditionally (this, not a timer, is what re-arms
    /// retransmission; each re-nack is driven by one wire event, so resend
    /// counts stay deterministic).
    fn loss_report(&mut self, i: usize, lost_seq: u64) {
        if lost_seq < self.ins[i].next {
            // Stale: a duplicate report for something already delivered.
            self.send_ack(i, 0);
            return;
        }
        if self.ins[i].rx.open_loop {
            self.recover_parked(i);
            return;
        }
        self.ins[i].lost.insert(lost_seq);
        let first_gap = self.ins[i].next;
        if lost_seq == first_gap {
            self.ins[i].nacked = Some(first_gap);
            self.send_ack(i, first_gap);
        } else {
            self.gap_hint(i, false);
        }
    }

    /// Open-loop recovery: lift wire-lost frames off the control plane.
    /// Counted as retransmissions — they travelled twice, once (lost) on the
    /// data path and once via the control plane.
    fn recover_parked(&mut self, i: usize) {
        loop {
            let next = self.ins[i].next;
            let recovered = lock_ctrl(&self.ins[i].rx.ctrl).parked.remove(&next);
            match recovered {
                Some(f) => {
                    self.counters.add_frames_retransmitted(1);
                    self.ins[i].next += 1;
                    self.ready.push_back(f);
                    self.drain_ooo(i);
                }
                None => break,
            }
        }
        if self.ins[i].complete() {
            self.finish_stream(i);
        }
    }

    /// Every data frame delivered and the Fin bound known: flag completion
    /// on the control plane (so a sender whose final ack is lost can tell
    /// "done" from "dead"), send the final cumulative ack, close.
    fn finish_stream(&mut self, i: usize) {
        lock_ctrl(&self.ins[i].rx.ctrl).completed = true;
        self.send_ack(i, 0);
        self.ins[i].open = false;
    }

    /// Send a cumulative ack (nack = 0 for none) through the ack wire's
    /// fault site. Send errors are ignored: an open-loop sender is long
    /// gone, and a windowed sender that exited early has its own error.
    ///
    /// A faulted ack loses its *content*, not its *edge*: an empty
    /// `{cum: 0, nack: 0}` still travels, so a sender blocked on the ack
    /// wire always gets one wakeup per receiver event and re-examines
    /// shared state. That wakeup is the deterministic stand-in for a
    /// sender-side retransmission timer — without it, dropping the final
    /// ack would strand the sender in `recv()` forever (lost wakeup).
    fn send_ack(&mut self, i: usize, nack: u64) {
        let s = &self.ins[i];
        let ack = if fault::hit(Site::AckSend, &s.label).is_some() {
            self.counters.add_faults_injected(1);
            Ack { cum: 0, nack: 0 }
        } else {
            Ack {
                cum: s.next - 1,
                nack,
            }
        };
        let _ = s.rx.ack.send(ack);
    }

    /// The sender's endpoints dropped. Normal end-of-stream when nothing is
    /// missing (a clean Fin-less close after full delivery); otherwise try
    /// control-plane recovery, and surface a recoverable truncation error if
    /// frames are genuinely gone.
    fn on_disconnect(&mut self, i: usize) -> Result<()> {
        if self.ins[i].last.is_none() {
            let fin = lock_ctrl(&self.ins[i].rx.ctrl).fin;
            self.ins[i].last = fin;
        }
        self.recover_parked(i);
        let s = &mut self.ins[i];
        if !s.open {
            return Ok(()); // finish_stream already ran (via recover_parked)
        }
        let missing = match s.last {
            Some(l) => s.next <= l,
            // No Fin ever arrived. With no buffered out-of-order frames
            // there is no *known* gap: the sender finished after its data
            // was acked but its Fin was lost — a clean close. (If it died
            // mid-stream instead, its own task error surfaces and outranks
            // anything we could report.)
            None => !s.ooo.is_empty(),
        };
        if missing {
            let label = s.label.clone();
            let next = s.next;
            return Err(PregelixError::Io(std::io::Error::other(format!(
                "stream {label:?} truncated: sender gone before seq {next} was delivered"
            ))));
        }
        lock_ctrl(&s.rx.ctrl).completed = true;
        s.open = false;
        Ok(())
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

    fn spawn_sender(
        mut txs: Vec<Vec<StreamTx>>,
        counters: ClusterCounters,
        frames: usize,
    ) -> std::thread::JoinHandle<Result<()>> {
        let outs = std::mem::take(&mut txs[0]);
        std::thread::spawn(move || {
            let mut tx = ReliableSender::new(outs, "msg", 0, 0, vec![1], counters);
            for i in 0..frames {
                tx.send_shared(0, frame_with(&[i as u64]))?;
            }
            tx.finish()
        })
    }

    fn drain(mut rxs: Vec<Vec<StreamRx>>, counters: ClusterCounters) -> Result<Vec<u64>> {
        let ins = std::mem::take(&mut rxs[0]);
        let mut rx = ReliableReceiver::new(ins, counters);
        let mut got = Vec::new();
        while let Some(f) = rx.next_frame()? {
            for t in f.iter() {
                got.push(pregelix_common::frame::tuple_vid(t)?);
            }
        }
        Ok(got)
    }

    #[test]
    fn clean_stream_delivers_in_order_windowed() {
        // Sibling tests install process-global plans scoped to "msg"; without
        // the guard this stream would receive their injected faults.
        let _guard = fault::exclusive();
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 100);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(counters.frames_retransmitted(), 0);
        assert_eq!(counters.frames_deduped(), 0);
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
        let got = drain(rxs, counters).unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_frames_are_retransmitted_windowed() {
        let _guard = fault::exclusive();
        let plan = _guard.install(
            FaultPlan::new()
                .on(Site::FrameSend, "msg", 3, Fault::DropFrame)
                .on(Site::FrameSend, "msg", 7, Fault::DropFrame),
        );
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 40);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        assert_eq!(plan.injected(), 2);
        assert_eq!(counters.frames_retransmitted(), 2);
    }

    #[test]
    fn dropped_frames_recovered_from_control_plane_open_loop() {
        let _guard = fault::exclusive();
        let plan = _guard.install(
            FaultPlan::new()
                .on(Site::FrameSend, "msg", 2, Fault::DropFrame)
                .on(Site::FrameSend, "msg", 9, Fault::DropFrame),
        );
        let counters = ClusterCounters::new();
        let (mut txs, rxs) = reliable_channels(1, 1, None);
        let outs = std::mem::take(&mut txs[0]);
        let mut tx = ReliableSender::new(outs, "msg", 0, 0, vec![1], counters.clone());
        for i in 0..30u64 {
            tx.send_shared(0, frame_with(&[i])).unwrap();
        }
        tx.finish().unwrap();
        let got = drain(rxs, counters.clone()).unwrap();
        assert_eq!(got, (0..30).collect::<Vec<_>>());
        assert_eq!(plan.injected(), 2);
        assert_eq!(counters.frames_retransmitted(), 2);
    }

    #[test]
    fn duplicates_are_discarded_by_seq() {
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 5, Fault::DuplicateFrame));
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(8));
        let h = spawn_sender(txs, counters.clone(), 20);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(counters.frames_deduped(), 1);
    }

    #[test]
    fn corrupt_frames_are_rejected_and_retransmitted() {
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 4, Fault::CorruptFrame));
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(8));
        let h = spawn_sender(txs, counters.clone(), 20);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(counters.frames_corrupted(), 1);
        assert_eq!(counters.frames_retransmitted(), 1);
    }

    #[test]
    fn dropped_acks_are_absorbed_by_cumulative_acking() {
        let _guard = fault::exclusive();
        _guard.install(
            FaultPlan::new()
                .on(Site::AckSend, "msg", 2, Fault::DropFrame)
                .on(Site::AckSend, "msg", 5, Fault::DropFrame),
        );
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 30);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..30).collect::<Vec<_>>());
        assert_eq!(counters.frames_retransmitted(), 0);
    }

    #[test]
    fn lost_final_ack_resolved_via_completion_flag() {
        // Drop every ack of a short stream: the sender must finish via the
        // receiver's completion flag when the ack channel disconnects.
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::AckSend, "msg", 1, Fault::DropFrame).on(
            Site::AckSend,
            "msg",
            2,
            Fault::DropFrame,
        ));
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 1);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn retransmit_storm_exhausts_budget_with_recoverable_error() {
        let _guard = fault::exclusive();
        let mut plan = FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame);
        // Drop every resend too: the sender must give up after its budget.
        for n in 1..=(DEFAULT_MAX_RESEND as u64 + 1) {
            plan = plan.on(Site::FrameResend, "msg", n, Fault::DropFrame);
        }
        _guard.install(plan);
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 3);
        let recv_result = drain(rxs, counters.clone());
        let send_result = h.join().unwrap();
        let err = send_result.expect_err("sender must give up");
        assert!(err.is_recoverable(), "storm error feeds the restart path");
        assert!(err.to_string().contains("retransmit storm"));
        // The receiver survives via control-plane recovery at disconnect
        // (one more counted retransmission); the *sender's* error is what
        // feeds the restart path.
        assert_eq!(recv_result.unwrap(), vec![0, 1, 2]);
        assert_eq!(
            counters.frames_retransmitted() as u32,
            DEFAULT_MAX_RESEND + 1
        );
    }

    #[test]
    fn storm_below_budget_is_absorbed() {
        let _guard = fault::exclusive();
        let mut plan = FaultPlan::new().on(Site::FrameSend, "msg", 2, Fault::DropFrame);
        for n in 1..=3 {
            plan = plan.on(Site::FrameResend, "msg", n, Fault::DropFrame);
        }
        _guard.install(plan);
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 10);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // Original drop + 3 dropped resends + the one that got through.
        assert_eq!(counters.frames_retransmitted(), 4);
    }

    #[test]
    fn lost_fin_still_closes_stream() {
        let _guard = fault::exclusive();
        // The 11th frame-send event on a 10-frame stream is the Fin.
        _guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 11, Fault::DropFrame));
        let counters = ClusterCounters::new();
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 10);
        let got = drain(rxs, counters.clone()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // The fin probe forces a nack at the fin seq, which the sender's
        // completion-flag wait is still around to service — exactly once.
        assert_eq!(counters.frames_retransmitted(), 1);
    }

    /// Run one frozen frame through a 1→1 windowed stream under `plan`,
    /// returning the delivered frames themselves (not just their vids) so
    /// callers can assert slab-slice identity.
    fn roundtrip_shared(
        plan_counters: ClusterCounters,
        frame: SharedFrame,
    ) -> (Vec<SharedFrame>, Result<()>) {
        let (mut txs, mut rxs) = reliable_channels(1, 1, Some(4));
        let outs = std::mem::take(&mut txs[0]);
        let counters = plan_counters.clone();
        let h = std::thread::spawn(move || {
            let mut tx = ReliableSender::new(outs, "msg", 0, 0, vec![1], counters);
            tx.send_shared(0, frame)?;
            tx.finish()
        });
        let ins = std::mem::take(&mut rxs[0]);
        let mut rx = ReliableReceiver::new(ins, plan_counters);
        let mut got = Vec::new();
        while let Some(f) = rx.next_frame().unwrap() {
            got.push(f);
        }
        (got, h.join().unwrap())
    }

    #[test]
    fn delivery_hands_over_the_senders_slab_slice() {
        let _guard = fault::exclusive();
        let counters = ClusterCounters::new();
        let frame = frame_with(&[7, 8]);
        let (got, send_res) = roundtrip_shared(counters, frame.clone());
        send_res.unwrap();
        assert_eq!(got.len(), 1);
        // Not merely equal bytes: the very same backing allocation.
        assert!(got[0].aliases(&frame));
        assert_eq!(got[0], frame);
    }

    #[test]
    fn retransmission_resends_the_identical_slab_slice() {
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::DropFrame));
        let counters = ClusterCounters::new();
        let frame = frame_with(&[42]);
        let (got, send_res) = roundtrip_shared(counters.clone(), frame.clone());
        send_res.unwrap();
        assert_eq!(counters.frames_retransmitted(), 1);
        assert_eq!(got.len(), 1);
        // The resend travelled straight out of the in-flight window: same
        // slab slice as the original send, no re-encode, no copy.
        assert!(got[0].aliases(&frame));
    }

    #[test]
    fn corruption_is_a_torn_notice_and_recovery_delivers_the_pristine_slice() {
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::FrameSend, "msg", 1, Fault::CorruptFrame));
        let counters = ClusterCounters::new();
        let frame = frame_with(&[42]);
        let (got, send_res) = roundtrip_shared(counters.clone(), frame.clone());
        send_res.unwrap();
        assert_eq!(counters.frames_corrupted(), 1);
        assert_eq!(counters.frames_retransmitted(), 1);
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
        let (txs, rxs) = reliable_channels(1, 1, Some(4));
        let h = spawn_sender(txs, counters.clone(), 0);
        let got = drain(rxs, counters).unwrap();
        h.join().unwrap().unwrap();
        assert!(got.is_empty());
    }
}
