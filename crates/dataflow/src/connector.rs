//! Hyracks connectors: inter-operator data redistribution (§4).
//!
//! Three exchange patterns, matching the paper:
//!
//! * **m-to-n partitioning connector** ([`PartitioningSender`] /
//!   [`PartitionReceiver`]): every sender hash-partitions its tuples by vid
//!   and pushes frames to each receiver's channel — the *fully pipelined*
//!   materialization policy (the upper two strategies of Figure 7). A
//!   receiver takes frames in arrival order, each named by its source
//!   ([`ReliableReceiver::next_stream_frame`]), so it sees each sender's
//!   tuples in the order that sender emitted them. A sender that emits in
//!   vid order leaves its receiver nothing to re-group: the receiver queues
//!   each source's frames and reads each queue as one sorted input
//!   ([`pregelix_storage::sort::SortedInput`]).
//! * **m-to-n partitioning merging connector** ([`MaterializedPartitioner`]
//!   / [`MergingReceiver`]): senders emit *sorted* streams, written to
//!   per-receiver run files — the *sender-side materializing pipelined*
//!   policy the paper uses to avoid the merge-connector deadlock scenarios
//!   of the query-scheduling literature \[27\]. Each receiver waits for all m
//!   sender runs and k-way merges them, preserving vid order (the lower two
//!   strategies of Figure 7). The receiver-side coordination across all
//!   senders is exactly the cost that makes this connector lose on larger
//!   clusters (§7.5 / TR \[13\]).
//! * **aggregator connector**: the partitioning connector into a single
//!   receiver (`partition_channels_cap(m, 1, ..)`), reducing all sender
//!   streams to one, used by the two-stage global aggregation of Figure 4.
//!
//! Every edge rides the transport in [`crate::transport`]: one FIFO channel
//! per receiver, each message stamped with its source. A wire fault at
//! `Site::FrameSend` — on a frame, a `Fin` or a run handle — is counted
//! where it fires (`frames_retransmitted` / `frames_deduped` /
//! `frames_corrupted`) and the message is sent once, so it never forces a
//! job restart.
//!
//! Traffic between distinct workers is charged to the cluster's network
//! counters; same-worker traffic is not, mirroring the paper's observation
//! that some messages never leave a machine (Figure 1).

use crate::transport::{
    channels, count_wire_fault, reliable_channels, ReliableReceiver, ReliableSender, Rx, StreamRx,
    StreamTx, Tx,
};
use pregelix_common::bytes::BytesSlab;
use pregelix_common::error::Result;
use pregelix_common::frame::{tuple_vid, Frame, SharedFrame};
use pregelix_common::hash_partition;
use pregelix_common::stats::ClusterCounters;
use pregelix_storage::file::FileManager;
use pregelix_storage::runfile::{RunWriter, TempRun};
use pregelix_storage::sort::{CombineFn, SortedStream};

/// Bounded-channel capacity in frames per sender. Small enough to exert
/// back-pressure, large enough to decouple sender/receiver scheduling.
pub const CHANNEL_FRAMES: usize = 64;

/// The channels of a partitioning connector: [`reliable_channels`].
// pinned: benchmark/src/replay.rs
pub fn partition_channels_cap(
    m: usize,
    n: usize,
    cap: Option<usize>,
) -> (Vec<Vec<StreamTx>>, Vec<StreamRx>) {
    reliable_channels(m, n, cap)
}

/// Sender side of the fully pipelined m-to-n partitioning connector:
/// hash-routes tuples into per-receiver staging frames and ships full frames
/// through a [`ReliableSender`].
pub struct PartitioningSender {
    tx: ReliableSender,
    staging: Vec<Frame>,
    slab: BytesSlab,
}

impl PartitioningSender {
    /// Wrap one sender's ends. `receiver_workers[r]` is the machine hosting
    /// receiver partition `r` (for network accounting); `slab` is the
    /// (cluster-owned, pooled) allocation source every flushed frame
    /// freezes into.
    pub fn new(
        outs: Vec<StreamTx>,
        frame_bytes: usize,
        slab: BytesSlab,
        my_worker: usize,
        receiver_workers: Vec<usize>,
        counters: ClusterCounters,
    ) -> PartitioningSender {
        let staging = outs
            .iter()
            .map(|_| Frame::with_capacity(frame_bytes))
            .collect();
        let tx = ReliableSender::new(
            outs,
            "",
            my_worker as u32,
            my_worker,
            receiver_workers,
            counters,
        );
        PartitioningSender { tx, staging, slab }
    }

    /// Tag the stream for fault-injection targeting (`Site::FrameSend`
    /// events carry this label as their context).
    pub fn with_label(mut self, label: &'static str) -> PartitioningSender {
        self.tx.set_label(label);
        self
    }

    /// Route a vid-keyed tuple by hash partitioning.
    pub fn send(&mut self, tuple: &[u8]) -> Result<()> {
        let part = hash_partition(tuple_vid(tuple)?, self.staging.len());
        self.send_to(part, tuple)
    }

    /// Route a tuple to an explicit receiver partition.
    pub fn send_to(&mut self, part: usize, tuple: &[u8]) -> Result<()> {
        if !self.staging[part].try_append(tuple) {
            self.flush(part)?;
            let ok = self.staging[part].try_append(tuple);
            debug_assert!(ok, "fresh frame accepts any tuple");
        }
        Ok(())
    }

    fn flush(&mut self, part: usize) -> Result<()> {
        if self.staging[part].is_empty() {
            return Ok(());
        }
        // Freeze into the slab (the one assembly copy this frame will ever
        // pay) and clear-reuse the staging builder — no fresh
        // allocation per flush on either side. Fault injection and network
        // accounting live in the transport.
        let frame = self.staging[part].freeze(&self.slab);
        self.staging[part].clear();
        self.tx.send_shared(part, frame)
    }

    /// Flush residual frames and close all streams (receivers then see
    /// end-of-stream).
    pub fn finish(mut self) -> Result<()> {
        for part in 0..self.staging.len() {
            self.flush(part)?;
        }
        self.tx.finish()
    }
}

/// Receiver side of the fully pipelined partitioning connector: every
/// sender's frames, each sender's in the order it sent them, interleaved
/// across senders in arrival order. A consumer that needs each sender's
/// order back, such as a merge over vid-ordered senders, reads
/// [`ReliableReceiver::next_stream_frame`] instead.
pub struct PartitionReceiver {
    rx: ReliableReceiver,
    pending: SharedFrame,
    pending_idx: usize,
}

impl PartitionReceiver {
    /// Wrap one receiver's end.
    pub fn new(ins: StreamRx, counters: ClusterCounters) -> PartitionReceiver {
        PartitionReceiver {
            rx: ReliableReceiver::new(ins, counters),
            pending: SharedFrame::empty(),
            pending_idx: 0,
        }
    }

    /// Next tuple across all senders (frame boundaries hidden). The slice
    /// borrows the receiver's pending frame — valid until the next call —
    /// so draining a stream costs zero per-tuple allocations.
    pub fn next_tuple(&mut self) -> Result<Option<&[u8]>> {
        loop {
            if self.pending_idx < self.pending.len() {
                let i = self.pending_idx;
                self.pending_idx += 1;
                return Ok(Some(self.pending.tuple(i)));
            }
            match self.rx.next_frame()? {
                Some(f) => {
                    self.pending = f;
                    self.pending_idx = 0;
                }
                None => return Ok(None),
            }
        }
    }
}

// ---------------------------------------------------------------------
// m-to-n partitioning merging connector
// ---------------------------------------------------------------------

/// A sender's end on a merging edge: it carries one sealed run. The run
/// travels as a [`TempRun`], so one no receiver ever takes is deleted with
/// the channel.
pub type MergeTx = Tx<TempRun>;

/// A receiver's end on a merging edge.
pub type MergeRx = Rx<TempRun>;

/// One channel per receiver for a merging connector, unbounded: each
/// sender puts exactly one run on each, so no send ever blocks.
pub fn merging_channels(m: usize, n: usize) -> (Vec<Vec<MergeTx>>, Vec<MergeRx>) {
    channels(m, n, None)
}

/// Sender side of the merging connector under the sender-side materializing
/// pipelined policy: tuples (which must arrive in vid order, as group-by
/// output does) are hash-partitioned into one sorted run file per receiver;
/// `finish` seals the runs and hands them to the receivers.
pub struct MaterializedPartitioner {
    writers: Vec<RunWriter>,
    handle_txs: Vec<MergeTx>,
    my_worker: usize,
    receiver_workers: Vec<usize>,
    counters: ClusterCounters,
    #[cfg(debug_assertions)]
    last_vid: Option<u64>,
}

impl MaterializedPartitioner {
    /// Create the per-receiver run writers in this worker's local disk.
    pub fn new(
        fm: &FileManager,
        handle_txs: Vec<MergeTx>,
        my_worker: usize,
        receiver_workers: Vec<usize>,
    ) -> Result<MaterializedPartitioner> {
        let mut writers = Vec::with_capacity(handle_txs.len());
        for r in 0..handle_txs.len() {
            // Buffered: a small channel's worth of data never touches disk
            // (the sender-side materialization exists for decoupling and
            // deadlock-freedom, not to force I/O on tiny streams).
            writers.push(RunWriter::create_buffered(
                fm.temp_file_path(&format!("mat-ch-{r}")),
                fm.counters().clone(),
                64 * 1024,
            ));
        }
        Ok(MaterializedPartitioner {
            writers,
            handle_txs,
            my_worker,
            receiver_workers,
            counters: fm.counters().clone(),
            #[cfg(debug_assertions)]
            last_vid: None,
        })
    }

    /// Route a vid-keyed tuple. Tuples must be fed in non-decreasing vid
    /// order so every per-receiver run stays sorted.
    pub fn send(&mut self, tuple: &[u8]) -> Result<()> {
        let vid = tuple_vid(tuple)?;
        #[cfg(debug_assertions)]
        {
            if let Some(prev) = self.last_vid {
                debug_assert!(prev <= vid, "merging connector input out of order");
            }
            self.last_vid = Some(vid);
        }
        let part = hash_partition(vid, self.writers.len());
        self.writers[part].write_tuple(tuple)
    }

    /// Seal every run and ship each once ("the data transfer"), counting a
    /// wire fault on the handle where it fires (`"merge"`).
    pub fn finish(self) -> Result<()> {
        for (r, (writer, tx)) in self.writers.into_iter().zip(self.handle_txs).enumerate() {
            let run = TempRun::from(writer.finish()?);
            count_wire_fault(&self.counters, "merge")?;
            if self.receiver_workers[r] != self.my_worker {
                self.counters.add_network_bytes(run.bytes());
                self.counters.add_network_frames(run.frames());
            }
            tx.send(run)?;
        }
        Ok(())
    }
}

/// Receiver side of the merging connector: waits for all m sender runs,
/// then k-way merges them into a vid-ordered stream. The wait-for-all
/// coordination is inherent to receiver-side merging.
pub struct MergingReceiver {
    ins: MergeRx,
    counters: ClusterCounters,
}

impl MergingReceiver {
    /// Wrap one receiver's end.
    pub fn new(ins: MergeRx, counters: ClusterCounters) -> MergingReceiver {
        MergingReceiver { ins, counters }
    }

    /// Block until every sender delivers its run, then merge. An optional
    /// combiner collapses equal-vid tuples during the merge (the
    /// preclustered group-by of the lower Figure 7 strategies).
    // pinned: benchmark/src/replay.rs
    pub fn into_stream(self, combiner: Option<CombineFn>) -> Result<SortedStream> {
        let counters = self.counters.clone();
        SortedStream::from_runs(self.into_runs()?, combiner, counters)
    }

    /// Block until every sender delivers its run, and hand the runs over in
    /// sender order, for a receiver that reads them itself. A sender that
    /// disconnects without delivering — a task failure — is a truncation
    /// error naming it.
    pub fn into_runs(self) -> Result<Vec<TempRun>> {
        let mut runs: Vec<Option<TempRun>> = (0..self.ins.sources).map(|_| None).collect();
        for _ in 0..self.ins.sources {
            let (source, run) = self.ins.recv(runs.iter().map(Option::is_some))?;
            runs[source] = Some(run);
        }
        Ok(runs.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, Task};
    use pregelix_common::fault::{self, Fault, FaultPlan, Site};
    use pregelix_common::frame::keyed_tuple;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(n, 1 << 20)).unwrap()
    }

    #[test]
    fn m_to_n_partitioning_delivers_everything_partitioned() {
        let c = cluster(4);
        let m = 3;
        let n = 4;
        let (sends, recvs) = partition_channels_cap(m, n, Some(CHANNEL_FRAMES));
        let recv_workers: Vec<usize> = (0..n).collect();
        let received: std::sync::Arc<Mutex<HashMap<usize, Vec<u64>>>> = Default::default();
        let mut tasks = Vec::new();
        for (s, outs) in sends.into_iter().enumerate() {
            let rw = recv_workers.clone();
            tasks.push(Task::new(format!("send{s}"), s % 4, move |w| {
                let mut tx = PartitioningSender::new(
                    outs,
                    w.frame_bytes(),
                    w.slab().clone(),
                    w.id(),
                    rw,
                    w.counters().clone(),
                );
                for i in 0..1000u64 {
                    let vid = (s as u64) * 1000 + i;
                    tx.send(&keyed_tuple(vid, b"payload"))?;
                }
                tx.finish()
            }));
        }
        for (r, ins) in recvs.into_iter().enumerate() {
            let received = received.clone();
            tasks.push(Task::new(format!("recv{r}"), r, move |w| {
                let mut rx = PartitionReceiver::new(ins, w.counters().clone());
                let mut got = Vec::new();
                while let Some(t) = rx.next_tuple()? {
                    got.push(tuple_vid(t)?);
                }
                received.lock().unwrap().insert(r, got);
                Ok(())
            }));
        }
        c.execute(tasks).unwrap();
        let received = received.lock().unwrap();
        let mut all: Vec<u64> = Vec::new();
        for (r, vids) in received.iter() {
            for &v in vids {
                assert_eq!(hash_partition(v, n), *r, "vid {v} on wrong partition");
                all.push(v);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..3000u64).collect::<Vec<_>>());
        assert!(
            c.counters().network_bytes() > 0,
            "cross-worker traffic counted"
        );
        // A clean wire moves no reliability counters.
        assert_eq!(c.counters().frames_retransmitted(), 0);
        assert_eq!(c.counters().frames_deduped(), 0);
        assert_eq!(c.counters().frames_corrupted(), 0);
    }

    #[test]
    fn same_worker_traffic_not_counted_as_network() {
        let c = cluster(1);
        let (mut sends, mut recvs) = partition_channels_cap(1, 1, Some(CHANNEL_FRAMES));
        let outs = std::mem::take(&mut sends[0]);
        let ins = recvs.remove(0);
        c.execute(vec![
            Task::new("send", 0, move |w| {
                let mut tx = PartitioningSender::new(
                    outs,
                    w.frame_bytes(),
                    w.slab().clone(),
                    w.id(),
                    vec![0],
                    w.counters().clone(),
                );
                for i in 0..100u64 {
                    tx.send(&keyed_tuple(i, b""))?;
                }
                tx.finish()
            }),
            Task::new("recv", 0, move |w| {
                let mut rx = PartitionReceiver::new(ins, w.counters().clone());
                let mut n = 0;
                while rx.next_tuple()?.is_some() {
                    n += 1;
                }
                assert_eq!(n, 100);
                Ok(())
            }),
        ])
        .unwrap();
        assert_eq!(c.counters().network_bytes(), 0);
    }

    #[test]
    fn merging_connector_produces_globally_sorted_streams() {
        // Sibling tests install process-global plans scoped to "merge";
        // without the guard this connector would receive their faults.
        let _guard = fault::exclusive();
        let c = cluster(2);
        let m = 2;
        let n = 2;
        let (sends, recvs) = merging_channels(m, n);
        let mut tasks = Vec::new();
        for (s, txs) in sends.into_iter().enumerate() {
            tasks.push(Task::new(format!("send{s}"), s, move |w| {
                let mut tx =
                    MaterializedPartitioner::new(w.file_manager(), txs, w.id(), vec![0, 1])?;
                // Sender s emits sorted vids s, s+2, s+4, ...
                for i in 0..500u64 {
                    tx.send(&keyed_tuple(s as u64 + 2 * i, b"x"))?;
                }
                tx.finish()
            }));
        }
        let results: std::sync::Arc<Mutex<Vec<Vec<u64>>>> =
            std::sync::Arc::new(Mutex::new(vec![Vec::new(), Vec::new()]));
        for (r, ins) in recvs.into_iter().enumerate() {
            let results = results.clone();
            tasks.push(Task::new(format!("recv{r}"), r, move |w| {
                let rx = MergingReceiver::new(ins, w.counters().clone());
                let mut stream = rx.into_stream(None)?;
                let mut got = Vec::new();
                while let Some(t) = stream.next_tuple()? {
                    got.push(tuple_vid(t)?);
                }
                results.lock().unwrap()[r] = got;
                Ok(())
            }));
        }
        c.execute(tasks).unwrap();
        let results = results.lock().unwrap();
        let mut total = 0;
        for (r, vids) in results.iter().enumerate() {
            assert!(
                vids.windows(2).all(|w| w[0] <= w[1]),
                "receiver {r} unsorted"
            );
            for &v in vids {
                assert_eq!(hash_partition(v, n), r);
            }
            total += vids.len();
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn merging_connector_combiner_collapses_duplicates() {
        let _guard = fault::exclusive();
        let c = cluster(1);
        let (sends, mut recvs) = merging_channels(2, 1);
        let mut tasks = Vec::new();
        for (s, txs) in sends.into_iter().enumerate() {
            tasks.push(Task::new(format!("send{s}"), 0, move |w| {
                let mut tx = MaterializedPartitioner::new(w.file_manager(), txs, w.id(), vec![0])?;
                for vid in 0..100u64 {
                    tx.send(&keyed_tuple(vid, &1u64.to_le_bytes()))?;
                }
                tx.finish()
            }));
        }
        let ins = recvs.remove(0);
        tasks.push(Task::new("recv", 0, move |w| {
            let rx = MergingReceiver::new(ins, w.counters().clone());
            let combine: CombineFn = Box::new(|acc, t| {
                let pa = u64::from_le_bytes(acc[8..16].try_into().unwrap());
                let pb = u64::from_le_bytes(t[8..16].try_into().unwrap());
                acc[8..16].copy_from_slice(&(pa + pb).to_le_bytes());
            });
            let mut stream = rx.into_stream(Some(combine))?;
            let mut count = 0;
            while let Some(t) = stream.next_tuple()? {
                let sum = u64::from_le_bytes(t[8..16].try_into().unwrap());
                assert_eq!(sum, 2, "both senders' contributions combined");
                count += 1;
            }
            assert_eq!(count, 100);
            Ok(())
        }));
        c.execute(tasks).unwrap();
    }

    /// Spilled sender-side runs have an owner at every moment: the
    /// partitioner until `finish`, the channel until the receiver takes the
    /// handle, the merge after that. Whichever of them is dropped with the
    /// run deletes its file.
    #[test]
    fn spilled_merge_runs_are_deleted_wherever_their_task_stops() {
        let _guard = fault::exclusive();
        let c = cluster(1);
        let w = c.worker(0);
        let files = || w.file_manager().temp_files().unwrap().len();
        let fill = |tx: &mut MaterializedPartitioner| {
            for vid in 0..8_000u64 {
                tx.send(&keyed_tuple(vid, &[0u8; 24])).unwrap();
            }
        };
        // The sender dies before `finish`.
        let (mut sends, recvs) = merging_channels(1, 2);
        let mut tx =
            MaterializedPartitioner::new(w.file_manager(), sends.remove(0), 0, vec![0, 0]).unwrap();
        fill(&mut tx);
        assert_eq!(files(), 2, "both runs are past the in-memory threshold");
        drop(tx);
        assert_eq!(files(), 0);
        drop(recvs);
        // The sender finishes, one receiver never runs, the other stops
        // between taking its runs and draining them.
        let (mut sends, mut recvs) = merging_channels(1, 2);
        let mut tx =
            MaterializedPartitioner::new(w.file_manager(), sends.remove(0), 0, vec![0, 0]).unwrap();
        fill(&mut tx);
        tx.finish().unwrap();
        assert_eq!(files(), 2);
        let stream = MergingReceiver::new(recvs.remove(0), w.counters().clone())
            .into_stream(None)
            .unwrap();
        drop(recvs);
        assert_eq!(files(), 1, "the handle nobody took went with its channel");
        drop(stream);
        assert_eq!(files(), 0);
    }

    /// A dropped run handle is counted where the fault fires and the run
    /// is sent once: the receiver merges it whole.
    #[test]
    fn a_dropped_merge_handle_is_counted_and_delivered_once() {
        let _guard = fault::exclusive();
        let plan =
            _guard.install(FaultPlan::new().on(Site::FrameSend, "merge", 1, Fault::DropFrame));
        let c = cluster(1);
        let (mut sends, mut recvs) = merging_channels(1, 1);
        let txs = std::mem::take(&mut sends[0]);
        let ins = recvs.remove(0);
        c.execute(vec![
            Task::new("send", 0, move |w| {
                let mut tx = MaterializedPartitioner::new(w.file_manager(), txs, w.id(), vec![0])?;
                for vid in 0..50u64 {
                    tx.send(&keyed_tuple(vid, b"x"))?;
                }
                tx.finish()
            }),
            Task::new("recv", 0, move |w| {
                let rx = MergingReceiver::new(ins, w.counters().clone());
                let mut stream = rx.into_stream(None)?;
                let mut count = 0;
                while stream.next_tuple()?.is_some() {
                    count += 1;
                }
                assert_eq!(count, 50, "the run arrives whole");
                Ok(())
            }),
        ])
        .unwrap();
        assert_eq!(plan.injected(), 1);
        assert_eq!(c.counters().frames_retransmitted(), 1);
    }

    #[test]
    fn duplicated_merge_handle_discarded() {
        let _guard = fault::exclusive();
        _guard.install(FaultPlan::new().on(Site::FrameSend, "merge", 1, Fault::DuplicateFrame));
        let c = cluster(1);
        let (mut sends, mut recvs) = merging_channels(1, 1);
        let txs = std::mem::take(&mut sends[0]);
        let ins = recvs.remove(0);
        c.execute(vec![
            Task::new("send", 0, move |w| {
                let mut tx = MaterializedPartitioner::new(w.file_manager(), txs, w.id(), vec![0])?;
                for vid in 0..50u64 {
                    tx.send(&keyed_tuple(vid, b"x"))?;
                }
                tx.finish()
            }),
            Task::new("recv", 0, move |w| {
                let rx = MergingReceiver::new(ins, w.counters().clone());
                let mut stream = rx.into_stream(None)?;
                let mut count = 0;
                while stream.next_tuple()?.is_some() {
                    count += 1;
                }
                assert_eq!(count, 50, "a duplicate must not double the stream");
                Ok(())
            }),
        ])
        .unwrap();
        assert_eq!(c.counters().frames_deduped(), 1);
    }

    #[test]
    fn aggregator_reduces_to_single_partition() {
        let c = cluster(3);
        let (sends, mut recv) = partition_channels_cap(3, 1, Some(CHANNEL_FRAMES));
        let recv = recv.remove(0);
        let mut tasks = Vec::new();
        for (s, outs) in sends.into_iter().enumerate() {
            tasks.push(Task::new(format!("send{s}"), s, move |w| {
                let mut tx = PartitioningSender::new(
                    outs,
                    w.frame_bytes(),
                    w.slab().clone(),
                    w.id(),
                    vec![0],
                    w.counters().clone(),
                );
                tx.send_to(0, &keyed_tuple(s as u64, &(s as u64).to_le_bytes()))?;
                tx.finish()
            }));
        }
        tasks.push(Task::new("agg", 0, move |w| {
            let mut rx = PartitionReceiver::new(recv, w.counters().clone());
            let mut sum = 0u64;
            let mut n = 0;
            while let Some(t) = rx.next_tuple()? {
                sum += u64::from_le_bytes(t[8..16].try_into().unwrap());
                n += 1;
            }
            assert_eq!(n, 3);
            assert_eq!(sum, 3, "vids 0, 1 and 2");
            Ok(())
        }));
        c.execute(tasks).unwrap();
    }

    #[test]
    fn backpressure_does_not_deadlock_pipelined_connector() {
        // One slow receiver, channel capacity CHANNEL_FRAMES: sender must
        // block and resume rather than deadlock or drop.
        let c = cluster(2);
        let (mut sends, mut recvs) = partition_channels_cap(1, 1, Some(CHANNEL_FRAMES));
        let outs = std::mem::take(&mut sends[0]);
        let ins = recvs.remove(0);
        c.execute(vec![
            Task::new("send", 0, move |w| {
                let mut tx = PartitioningSender::new(
                    outs,
                    256, // tiny frames -> many frames -> exercises bounding
                    w.slab().clone(),
                    w.id(),
                    vec![1],
                    w.counters().clone(),
                );
                for i in 0..50_000u64 {
                    tx.send(&keyed_tuple(i, &[0u8; 32]))?;
                }
                tx.finish()
            }),
            Task::new("recv", 1, move |w| {
                let mut rx = PartitionReceiver::new(ins, w.counters().clone());
                let mut n = 0u64;
                while rx.next_tuple()?.is_some() {
                    n += 1;
                }
                assert_eq!(n, 50_000);
                Ok(())
            }),
        ])
        .unwrap();
    }
}
