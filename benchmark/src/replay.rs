//! Layer replays: after a traced job, time each layer's public entry point
//! on one partition-superstep of the workload's own tuples, with worker 0's
//! real buffer cache, file manager, sort budget, frame size and slab.
//!
//! A replay gives a unit cost (ns per tuple, MB per second). Multiplied by
//! the job's own counts, the unit costs give the estimated shares of
//! `run_s` (`est_share.*`): a stand-in for a profile until the program
//! records spans itself. They are estimates: a replay runs the layer alone
//! and warm, the job runs it between other layers.

use crate::child::{dir_bytes, BenchProgram};
use crate::graphs::Graph;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::Fail;
use parking_lot::Mutex;
use pregelix_common::frame::{
    keyed_tuple, tuple_payload, tuple_vid, vid_to_key, Frame, SharedFrame,
};
use pregelix_common::{hash_partition, Vid};
use pregelix_core::checkpoint;
use pregelix_core::plan::{JoinStrategy, PregelixJob, VertexStorageKind};
use pregelix_core::runtime::JobSummary;
use pregelix_core::store::VertexStore;
use pregelix_core::superstep::PartitionState;
use pregelix_core::vertex::{decode_msg_list, encode_msg_list};
use pregelix_core::GlobalState;
use pregelix_dataflow::cluster::{Cluster, Task, WorkerHandle};
use pregelix_dataflow::connector::{
    merging_channels, partition_channels_cap, MaterializedPartitioner, MergingReceiver,
    PartitionReceiver, PartitioningSender,
};
use pregelix_dataflow::groupby::{combine_fn, GroupByKind, LocalGroupBy, TupleCombiner};
use pregelix_dataflow::transport::{reliable_channels, ReliableReceiver, ReliableSender};
use pregelix_storage::runfile::{RunHandle, RunWriter};
use pregelix_storage::sort::ExternalSorter;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, Fail>;

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Fail {
    move |e| format!("replay {what}: {e}")
}

/// Tuples in one flat buffer.
#[derive(Default)]
struct Batch {
    data: Vec<u8>,
    ends: Vec<usize>,
}

impl Batch {
    fn push(&mut self, tuple: &[u8]) {
        self.data.extend_from_slice(tuple);
        self.ends.push(self.data.len());
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.data[s..e])
    }

    /// The tuples packed into frames of `frame_bytes`, as a connector's
    /// staging frames would hold them.
    fn frames(&self, frame_bytes: usize) -> Vec<Frame> {
        let mut frames = vec![Frame::with_capacity(frame_bytes)];
        for t in self.iter() {
            if !frames.last_mut().expect("non-empty").try_append(t) {
                let mut next = Frame::with_capacity(frame_bytes);
                assert!(next.try_append(t), "a fresh frame takes any tuple");
                frames.push(next);
            }
        }
        frames
    }
}

/// The message-list combiner the superstep builds from the program's
/// combiner (`core::superstep::msg_tuple_combiner` is crate-private; this is
/// the same fold through the same public codecs).
fn tuple_combiner<P: BenchProgram>(program: &Arc<P>) -> TupleCombiner {
    let user = program
        .combiner()
        .expect("the benchmark's programs all combine");
    Arc::new(move |a: &[u8], b: &[u8]| -> Vec<u8> {
        let vid = tuple_vid(a).expect("keyed tuple");
        let list = |t: &[u8]| -> Vec<P::Message> {
            decode_msg_list(tuple_payload(t).expect("payload")).expect("message list")
        };
        let mut msgs = list(a).into_iter().chain(list(b));
        let first = msgs.next().expect("non-empty lists");
        keyed_tuple(
            vid,
            &encode_msg_list(&[msgs.fold(first, |acc, m| user(&acc, &m))]),
        )
    })
}

/// Repeats a timed operation until it has run three times and 40 ms in
/// total (64 times at most) and returns the median seconds of one run.
/// `op` returns the time of its measured part, so preparation stays out.
fn median_secs(mut op: impl FnMut() -> Res<Duration>) -> Res<f64> {
    let mut samples = Vec::new();
    let mut total = Duration::ZERO;
    while samples.len() < 3 || (total < Duration::from_millis(40) && samples.len() < 64) {
        let took = op()?;
        total += took;
        samples.push(took.as_secs_f64());
    }
    Ok(median(&samples))
}

fn drain(mut stream: pregelix_storage::sort::SortedStream, mut each: impl FnMut(&[u8])) -> Res<()> {
    while let Some(t) = stream.next_tuple().map_err(fail("sorted stream"))? {
        each(t);
    }
    Ok(())
}

/// Drives the two ends of a one-to-one stream: the receiver on a thread of
/// its own when the channel is bounded (a lone thread would block on the
/// full window), one end after the other when it is not.
fn both_ends<T: Send>(
    concurrent: bool,
    send: impl FnOnce() -> Res<()>,
    receive: impl FnOnce() -> Res<T> + Send,
) -> Res<T> {
    if concurrent {
        std::thread::scope(|s| {
            let receiving = s.spawn(receive);
            send()?;
            receiving
                .join()
                .map_err(|_| "replay receiver panicked".to_string())?
        })
    } else {
        send()?;
        receive()
    }
}

/// Writes `tuples` as a run, buffered with the threshold the message writer
/// uses, so a small message set stays in memory here as it does in the job.
fn write_run(path: &Path, w: &WorkerHandle, tuples: &Batch) -> Res<RunHandle> {
    let mut writer = RunWriter::create_buffered(path, w.counters().clone(), 8 * w.frame_bytes());
    for t in tuples.iter() {
        writer.write_tuple(t).map_err(fail("run write"))?;
    }
    writer.finish().map_err(fail("run finish"))
}

struct Replay<'a> {
    tracer: &'a mut Tracer,
    parent: usize,
    w: WorkerHandle,
    combiner: TupleCombiner,
    out: Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    /// Times one layer call (repeated as [`median_secs`] decides) under a
    /// span of its own and returns the median seconds per call.
    fn layer(&mut self, span: &'static str, op: impl FnMut() -> Res<Duration>) -> Res<f64> {
        let id = self.tracer.begin(span, Some(self.parent));
        let secs = median_secs(op);
        self.tracer.end(id);
        secs
    }

    fn group_by(
        &mut self,
        span: &'static str,
        kind: GroupByKind,
        input: &Batch,
    ) -> Res<(f64, Batch)> {
        let mut grouped = Batch::default();
        let (w, combiner) = (self.w.clone(), Arc::clone(&self.combiner));
        let secs = self.layer(span, || {
            grouped = Batch::default();
            let started = Instant::now();
            let mut gb = LocalGroupBy::new(
                kind,
                w.file_manager(),
                "replay-gb",
                w.groupby_budget(),
                Some(&combiner),
            );
            for t in input.iter() {
                gb.add(t).map_err(fail("group-by add"))?;
            }
            drain(gb.finish().map_err(fail("group-by finish"))?, |t| {
                grouped.push(t)
            })?;
            Ok(started.elapsed())
        })?;
        Ok((secs, grouped))
    }
}

/// Runs every replay and returns the per-layer metrics of groups (c) and
/// (d). `busy_s` is the time the shares are taken of: `run_s` on a
/// sequential-timed cluster, the CPU time of `run` on real threads.
pub fn run<P: BenchProgram>(
    tracer: &mut Tracer,
    cluster: &Cluster,
    program: &Arc<P>,
    g: &Graph,
    summary: &JobSummary,
    workload: &Workload,
    busy_s: f64,
) -> Res<Vec<(&'static str, f64)>> {
    let parent = tracer.begin("replay", None);
    let partitions = workload.workers; // one partition per worker
    let w = cluster.worker(0);
    let stats = &summary.stats;

    // Partition 0's vertices, and the messages they emit along their edges,
    // cut to the job's average messages per partition-superstep.
    let mine: Vec<usize> = (0..g.vertices())
        .filter(|&v| hash_partition(v as Vid, partitions) == 0)
        .collect();
    let vertices: Vec<(Vec<u8>, Vec<u8>)> = mine
        .iter()
        .map(|&v| {
            let edges = g
                .out_range(v)
                .map(|e| {
                    (
                        g.targets[e] as Vid,
                        g.weights.as_ref().map_or(1.0, |w| w[e] as f64),
                    )
                })
                .collect();
            (
                vid_to_key(v as Vid).to_vec(),
                program.init_vertex(v as Vid, edges).encode_value(),
            )
        })
        .collect();
    let average = (stats.messages_sent / (summary.supersteps.max(1) * partitions as u64)) as usize;
    let mut emitted = Batch::default();
    'emit: for &v in &mine {
        for e in g.out_range(v) {
            if emitted.len() >= average.max(256) {
                break 'emit;
            }
            let payload = encode_msg_list(&[P::edge_message(g, v, e)]);
            emitted.push(&keyed_tuple(g.targets[e] as Vid, &payload));
        }
    }
    let tuples = emitted.len() as f64;

    let mut r = Replay {
        tracer,
        parent,
        w: w.clone(),
        combiner: tuple_combiner(program),
        out: Vec::new(),
    };

    // ---- common::frame ----
    let secs = r.layer("common.frame.sort", || {
        let mut frames = emitted.frames(w.frame_bytes());
        let started = Instant::now();
        frames.iter_mut().for_each(Frame::sort);
        Ok(started.elapsed())
    })?;
    r.out
        .push(("common.frame.sort_ns_per_tuple", secs * 1e9 / tuples));

    // ---- dataflow::groupby (both kinds; the workload's own kind also
    // yields the post-combine tuples the connector replays carry) ----
    let (sort_secs, by_sort) = r.group_by("dataflow.groupby.sort", GroupByKind::Sort, &emitted)?;
    let (hash_secs, _) =
        r.group_by("dataflow.groupby.hashsort", GroupByKind::HashSort, &emitted)?;
    r.out.push((
        "dataflow.groupby.sort_ns_per_tuple",
        sort_secs * 1e9 / tuples,
    ));
    r.out.push((
        "dataflow.groupby.hashsort_ns_per_tuple",
        hash_secs * 1e9 / tuples,
    ));
    let combined = by_sort; // both kinds produce the same sorted, combined tuples
    let combined_tuples = combined.len() as f64;

    let frozen_frames = combined.frames(w.frame_bytes());
    let wire_bytes: usize = frozen_frames.iter().map(Frame::wire_len).sum();
    let secs = r.layer("common.frame.freeze", || {
        let started = Instant::now();
        let frozen: Vec<SharedFrame> = frozen_frames.iter().map(|f| f.freeze(w.slab())).collect();
        let took = started.elapsed();
        drop(frozen);
        w.slab().harvest();
        Ok(took)
    })?;
    r.out.push((
        "common.frame.freeze_mb_per_s",
        wire_bytes as f64 / 1e6 / secs,
    ));

    // ---- storage::sort, storage::runfile ----
    let combiner = Arc::clone(&r.combiner);
    let secs = r.layer("storage.sort", || {
        let started = Instant::now();
        let mut sorter =
            ExternalSorter::new(w.file_manager().clone(), "replay-sort", w.groupby_budget())
                .with_combiner(combine_fn(&combiner));
        for t in emitted.iter() {
            sorter.add(t).map_err(fail("sorter add"))?;
        }
        drain(sorter.finish().map_err(fail("sorter finish"))?, |_| ())?;
        Ok(started.elapsed())
    })?;
    r.out
        .push(("storage.sort.ns_per_tuple", secs * 1e9 / tuples));

    let run_path = w.file_manager().temp_file_path("replay-run");
    let mut run_bytes = 0;
    let secs = r.layer("storage.runfile", || {
        let started = Instant::now();
        let handle = write_run(&run_path, &w, &combined)?;
        let mut reader = handle
            .open(w.counters().clone())
            .map_err(fail("run open"))?;
        while reader.advance().map_err(fail("run read"))? {
            std::hint::black_box(reader.current());
        }
        let took = started.elapsed();
        run_bytes = handle.bytes();
        drop(reader);
        handle.delete().map_err(fail("run delete"))?;
        Ok(took)
    })?;
    r.out.push((
        "storage.runfile.mb_per_s",
        2.0 * run_bytes as f64 / 1e6 / secs,
    ));

    // ---- storage::btree through core::store::VertexStore ----
    let n_vertices = vertices.len() as f64;
    let mut store = None;
    let secs = r.layer("storage.btree.bulk_load", || {
        if let Some(VertexStore::B(old)) = store.take() {
            old.destroy().map_err(fail("btree destroy"))?;
        }
        let entries = vertices.clone();
        let started = Instant::now();
        let mut fresh =
            VertexStore::create(VertexStorageKind::BTree, &w).map_err(fail("store create"))?;
        fresh.bulk_load(entries).map_err(fail("bulk load"))?;
        let took = started.elapsed();
        store = Some(fresh);
        Ok(took)
    })?;
    r.out.push((
        "storage.btree.bulk_load_ns_per_vertex",
        secs * 1e9 / n_vertices,
    ));
    let mut store = store.expect("bulk load ran");

    let secs = r.layer("storage.btree.scan", || {
        let started = Instant::now();
        let mut scan = store.scan().map_err(fail("scan"))?;
        while let Some(entry) = scan.next_entry().map_err(fail("scan"))? {
            std::hint::black_box(entry);
        }
        Ok(started.elapsed())
    })?;
    r.out
        .push(("storage.btree.scan_ns_per_vertex", secs * 1e9 / n_vertices));

    let secs = r.layer("storage.btree.update", || {
        let started = Instant::now();
        for (key, value) in &vertices {
            store.upsert(key, value).map_err(fail("upsert"))?;
        }
        Ok(started.elapsed())
    })?;
    r.out.push((
        "storage.btree.update_ns_per_vertex",
        secs * 1e9 / n_vertices,
    ));

    let probe_keys: Vec<&Vec<u8>> = vertices.iter().step_by(100).map(|(k, _)| k).collect();
    let secs = r.layer("storage.btree.probe", || {
        let started = Instant::now();
        let mut cursor = store.probe_cursor();
        for key in &probe_keys {
            std::hint::black_box(cursor.probe(key).map_err(fail("probe"))?);
        }
        Ok(started.elapsed())
    })?;
    r.out.push((
        "storage.btree.probe_ns_per_key",
        secs * 1e9 / probe_keys.len() as f64,
    ));

    // ---- dataflow::connector, dataflow::transport ----
    // The cluster's own channel capacity: unbounded and driven from one
    // thread when sequential-timed, bounded with a concurrent receiver when
    // the workload runs real threads.
    let cap = cluster.channel_capacity();
    let secs = r.layer("dataflow.connector.pipelined", || {
        let (mut txs, mut rxs) = partition_channels_cap(1, 1, cap);
        let started = Instant::now();
        let sender = PartitioningSender::new(
            txs.remove(0),
            w.frame_bytes(),
            w.slab().clone(),
            0,
            vec![0],
            w.counters().clone(),
        );
        let mut receiver = PartitionReceiver::new(rxs.remove(0), w.counters().clone());
        let send = || -> Res<()> {
            let mut sender = sender;
            for t in combined.iter() {
                sender.send(t).map_err(fail("connector send"))?;
            }
            sender.finish().map_err(fail("connector finish"))
        };
        let receive = || -> Res<usize> {
            let mut n = 0;
            while receiver
                .next_tuple()
                .map_err(fail("connector receive"))?
                .is_some()
            {
                n += 1;
            }
            Ok(n)
        };
        let received = both_ends(cap.is_some(), send, receive)?;
        let took = started.elapsed();
        if received != combined.len() {
            return Err(format!(
                "replay connector delivered {received} of {} tuples",
                combined.len()
            ));
        }
        w.slab().harvest();
        Ok(took)
    })?;
    let pipelined_ns = secs * 1e9 / combined_tuples;
    r.out
        .push(("dataflow.connector.ns_per_tuple", pipelined_ns));

    let combiner = Arc::clone(&r.combiner);
    let secs = r.layer("dataflow.connector.merged", || {
        let (mut txs, mut rxs) = merging_channels(1, 1);
        let started = Instant::now();
        let mut sender = MaterializedPartitioner::new(w.file_manager(), txs.remove(0), 0, vec![0])
            .map_err(fail("merge sender"))?;
        for t in combined.iter() {
            sender.send(t).map_err(fail("merge send"))?;
        }
        sender.finish().map_err(fail("merge finish"))?;
        let stream = MergingReceiver::new(rxs.remove(0), w.counters().clone())
            .into_stream(Some(combine_fn(&combiner)))
            .map_err(fail("merge receive"))?;
        drain(stream, |_| ())?;
        Ok(started.elapsed())
    })?;
    let merged_ns = secs * 1e9 / combined_tuples;
    r.out
        .push(("dataflow.connector.merged_ns_per_tuple", merged_ns));

    // At least 256 frames per hop run, re-sending the same frozen frames (a
    // clone is a reference count) when the batch is only a frame or two.
    let frozen: Vec<SharedFrame> = frozen_frames.iter().map(|f| f.freeze(w.slab())).collect();
    let rounds = 256usize.div_ceil(frozen.len());
    let hop_frames = (rounds * frozen.len()) as f64;
    let secs = r.layer("dataflow.transport.hop", || {
        let (mut txs, mut rxs) = reliable_channels(1, 1, cap);
        let started = Instant::now();
        let sender =
            ReliableSender::new(txs.remove(0), "replay", 0, 0, vec![0], w.counters().clone());
        let mut receiver = ReliableReceiver::new(rxs.remove(0), w.counters().clone());
        let send = || -> Res<()> {
            let mut sender = sender;
            for _ in 0..rounds {
                for f in &frozen {
                    sender.send_shared(0, f.clone()).map_err(fail("hop send"))?;
                }
            }
            sender.finish().map_err(fail("hop finish"))
        };
        let receive = || -> Res<()> {
            while let Some(f) = receiver.next_frame().map_err(fail("hop receive"))? {
                std::hint::black_box(f);
            }
            Ok(())
        };
        both_ends(cap.is_some(), send, receive)?;
        Ok(started.elapsed())
    })?;
    drop(frozen);
    w.slab().harvest();
    r.out
        .push(("dataflow.transport.hop_frames_per_s", hop_frames / secs));

    // ---- dataflow::cluster: what it costs to hand out a superstep's tasks ----
    let tasks_per_superstep = 3 * partitions + 1;
    let alive = cluster.alive_workers(); // pr_ckpt_kill ends with a dead worker
    let secs = r.layer("dataflow.cluster.dispatch", || {
        let tasks = (0..tasks_per_superstep)
            .map(|i| {
                Task::new(format!("replay-noop[{i}]"), alive[i % alive.len()], |_| {
                    Ok(())
                })
            })
            .collect();
        let started = Instant::now();
        cluster.execute(tasks).map_err(fail("dispatch"))?;
        Ok(started.elapsed())
    })?;
    let dispatch_us = secs * 1e6 / tasks_per_superstep as f64;
    r.out
        .push(("dataflow.cluster.dispatch_us_per_task", dispatch_us));

    // ---- core::checkpoint on the replay partition ----
    let state = Arc::new(Mutex::new(PartitionState {
        store,
        vid_index: None,
        msg_run: Some(write_run(&run_path, &w, &combined)?),
    }));
    let ckpt_job = PregelixJob::new("replay-ckpt");
    let gs = GlobalState::initial(g.vertices() as u64, Vec::new());
    let dfs_root = cluster.dfs().root().to_path_buf();
    let mut ckpt_bytes = 0;
    let secs = r.layer("core.checkpoint.write", || {
        let before = dir_bytes(&dfs_root);
        let started = Instant::now();
        checkpoint::write_checkpoint(cluster, &ckpt_job, std::slice::from_ref(&state), &[0], &gs)
            .map_err(fail("checkpoint"))?;
        let took = started.elapsed();
        ckpt_bytes = dir_bytes(&dfs_root) - before;
        checkpoint::clear_checkpoints(cluster.dfs(), ckpt_job.id())
            .map_err(fail("checkpoint clear"))?;
        Ok(took)
    })?;
    r.out.push((
        "core.checkpoint.write_mb_per_s",
        ckpt_bytes as f64 / 1e6 / secs,
    ));

    // ---- estimated shares of the run: unit cost x the job's own count ----
    // Tuples that crossed the connector are not counted by the program;
    // they follow from the cross-worker bytes it does count and the wire
    // size of a tuple, scaled up by the share that stayed on its worker.
    let wire_bytes_per_tuple = wire_bytes as f64 / combined_tuples;
    let crossing = stats.network_bytes as f64 / wire_bytes_per_tuple * partitions as f64
        / (partitions as f64 - 1.0).max(1.0);
    let (gb_ns, regrouped, connector_ns) =
        match (workload.groupby.kind(), workload.groupby.merged()) {
            (GroupByKind::Sort, false) => (sort_secs * 1e9 / tuples, crossing, pipelined_ns),
            (GroupByKind::HashSort, false) => (hash_secs * 1e9 / tuples, crossing, pipelined_ns),
            // Merged plans merge at the receiver inside the connector replay.
            (GroupByKind::Sort, true) => (sort_secs * 1e9 / tuples, 0.0, merged_ns),
            (GroupByKind::HashSort, true) => (hash_secs * 1e9 / tuples, 0.0, merged_ns),
        };
    let metric = |name: &str| r.out.iter().find(|(n, _)| *n == name).expect("replayed").1;
    let reads_ns = match workload.join {
        JoinStrategy::LeftOuter => {
            metric("storage.btree.probe_ns_per_key")
                * (stats.probe_leaf_hits + stats.probe_redescents) as f64
        }
        _ => {
            metric("storage.btree.scan_ns_per_vertex")
                * g.vertices() as f64
                * summary.supersteps as f64
        }
    };
    let busy_ns = busy_s * 1e9;
    let shares = [
        (
            "est_share.sort_groupby",
            gb_ns * (stats.messages_sent as f64 + regrouped) / busy_ns,
        ),
        (
            "est_share.store",
            (reads_ns + metric("storage.btree.update_ns_per_vertex") * stats.compute_calls as f64)
                / busy_ns,
        ),
        ("est_share.connector", connector_ns * crossing / busy_ns),
        (
            "est_share.dispatch",
            dispatch_us * 1e3 * (tasks_per_superstep as u64 * summary.supersteps) as f64 / busy_ns,
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    r.out.extend(shares);
    r.out.push(("est_share.unattributed", 1.0 - attributed));

    let out = std::mem::take(&mut r.out);
    r.tracer.end(parent);
    Ok(out)
}
