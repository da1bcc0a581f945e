//! The job graph: what a job declares and the one executor that runs it
//! (§4, Figures 3–5).
//!
//! Hyracks takes a job as operators, connectors and scheduling constraints
//! and owns the rest. So does [`JobGraph`]. A node is a name, the
//! partitions it runs, a [`LocationConstraint`] and a body. An [`Edge`]
//! joins two nodes. [`JobGraph::run`] places the nodes with
//! [`scheduler::solve`], wires fresh channels for the edges, hands each
//! task its [`Ends`], runs the tasks on the [`Cluster`] and returns each
//! node's results in partition order.

use crate::cluster::{Cluster, Task, WorkerHandle};
use crate::connector::{
    merging_channels, partition_channels_cap, MaterializedPartitioner, MergeRx, MergeTx,
    PartitionReceiver, PartitioningSender,
};
use crate::scheduler::{self, LocationConstraint, OperatorSpec};
use crate::transport::{ReliableReceiver, StreamRx, StreamTx};
use pregelix_common::bytes::BytesSlab;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::frame::SharedFrame;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A node of a [`JobGraph`], as [`JobGraph::node`] returned it.
pub type NodeId = usize;

/// How an edge moves tuples from its source's partitions to its target's.
pub enum Edge {
    /// The m-to-n partitioning connector, its frames frozen into `slab`
    /// (the cluster's when `None`) and labelled `label` for fault targeting.
    /// Into a one-partition node it is the m-to-1 aggregator connector.
    Partitioning {
        label: &'static str,
        slab: Option<BytesSlab>,
    },
    /// The m-to-n partitioning merging connector: one sorted run per pair.
    Merging,
    /// Frames materialised before the run, one list per partition of the
    /// target. The source's end discards.
    Frames(Vec<Vec<SharedFrame>>),
    /// No tuples: the target starts only once the source has finished.
    Blocking,
    /// A sink, declared by [`JobGraph::discard`]: the source's ends discard.
    Discard,
}

/// The sending end of one edge, as a task gets it.
pub enum Outbound {
    /// This sender's streams, one per receiver, on `receivers`' workers.
    Partitioning {
        ends: Vec<StreamTx>,
        receivers: Vec<usize>,
        label: &'static str,
        slab: Option<BytesSlab>,
    },
    /// This sender's run-handle streams, one per receiver.
    Merging {
        ends: Vec<MergeTx>,
        receivers: Vec<usize>,
    },
    /// Whatever is sent here goes nowhere.
    Discard,
}

/// The receiving end of one edge, as a task gets it.
pub enum Inbound {
    /// One stream per sender.
    Partitioning(Vec<StreamRx>),
    /// One run-handle stream per sender.
    Merging(Vec<MergeRx>),
    /// The frames materialised for this partition, one per source.
    Frames(Vec<SharedFrame>),
}

/// One task's ends, one per edge at its node, in the order the edges were
/// declared.
#[derive(Default)]
pub struct Ends {
    ins: Vec<Inbound>,
    outs: Vec<Outbound>,
}

impl Ends {
    /// The ends as a body takes them: `I` inbound and `O` outbound.
    pub fn take<const I: usize, const O: usize>(self) -> Result<([Inbound; I], [Outbound; O])> {
        match (self.ins.try_into(), self.outs.try_into()) {
            (Ok(ins), Ok(outs)) => Ok((ins, outs)),
            _ => Err(PregelixError::plan("a task's ends do not match its node's edges")),
        }
    }
}

impl Outbound {
    /// Open the edge on worker `w`: `None` for a discard sink.
    pub fn open(self, w: &WorkerHandle) -> Result<Option<EdgeSender>> {
        Ok(match self {
            Outbound::Partitioning { ends, receivers, label, slab } => {
                let slab = slab.unwrap_or_else(|| w.slab().clone());
                let (bytes, counters) = (w.frame_bytes(), w.counters().clone());
                let tx = PartitioningSender::new(ends, bytes, slab, w.id(), receivers, counters);
                Some(EdgeSender::Partitioning(tx.with_label(label)))
            }
            Outbound::Merging { ends, receivers } => Some(EdgeSender::Merging(
                MaterializedPartitioner::new(w.file_manager(), ends, w.id(), receivers)?,
            )),
            Outbound::Discard => None,
        })
    }
}

/// An open outbound edge: the sender of its connector.
pub enum EdgeSender {
    Partitioning(PartitioningSender),
    Merging(MaterializedPartitioner),
}

impl EdgeSender {
    /// Route a vid-keyed tuple by hash partitioning.
    pub fn send(&mut self, tuple: &[u8]) -> Result<()> {
        match self {
            EdgeSender::Partitioning(s) => s.send(tuple),
            EdgeSender::Merging(s) => s.send(tuple),
        }
    }

    /// Flush and close the edge.
    pub fn finish(self) -> Result<()> {
        match self {
            EdgeSender::Partitioning(s) => s.finish(),
            EdgeSender::Merging(s) => s.finish(),
        }
    }
}

impl Inbound {
    /// Feed the edge's tuples to `each` in arrival order.
    pub fn for_each(
        self,
        w: &WorkerHandle,
        mut each: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        match self {
            Inbound::Partitioning(ins) => {
                let mut rx = PartitionReceiver::new(ins, w.counters().clone());
                while let Some(t) = rx.next_tuple()? {
                    each(t)?;
                }
                Ok(())
            }
            Inbound::Frames(frames) => frames.iter().flat_map(SharedFrame::iter).try_for_each(each),
            Inbound::Merging(_) => Err(PregelixError::plan("a merging edge is read by merging")),
        }
    }

    /// Every frame of the edge, queued by refcount, one queue per source in
    /// source order. A partitioning edge is drained this way: frames are
    /// taken from whichever stream has one, and every stream is drained to
    /// its `Fin` before any is read, so the reader never waits on one
    /// sender while another is held up on a full bounded channel — the
    /// merge deadlock §5.3.1's materializing connector exists to avoid.
    /// Under sequential-timed execution every frame is already queued on an
    /// unbounded channel before the reader runs, so holding them here adds
    /// no bytes.
    pub fn queues(self, w: &WorkerHandle) -> Result<Vec<Vec<SharedFrame>>> {
        match self {
            Inbound::Partitioning(ins) => {
                let mut queues = vec![Vec::new(); ins.len()];
                let mut rx = ReliableReceiver::new(ins, w.counters().clone());
                while let Some((stream, frame)) = rx.next_stream_frame()? {
                    w.check_alive()?;
                    queues[stream].push(frame);
                }
                Ok(queues)
            }
            Inbound::Frames(frames) => Ok(frames.into_iter().map(|f| vec![f]).collect()),
            Inbound::Merging(_) => Err(PregelixError::plan("a merging edge is read by merging")),
        }
    }
}

/// Per node, per partition it runs, the task's result once it has one.
type Slots<R> = Vec<Vec<Option<(usize, R)>>>;

/// A task body: worker, partition and ends in, the task's result out.
type Body<R> = Arc<dyn Fn(&WorkerHandle, usize, Ends) -> Result<R> + Send + Sync>;

struct Node<R> {
    name: &'static str,
    partitions: Vec<usize>,
    constraint: LocationConstraint,
    body: Body<R>,
}

/// An edge from a node to a node, or to nowhere for a discard sink.
type Link = (NodeId, Option<NodeId>, Edge);

/// A job: nodes and the edges between them, every node's tasks returning
/// an `R`.
pub struct JobGraph<R> {
    /// Appended to every task name: `compute[3]` + `@7`.
    tag: String,
    nodes: Vec<Node<R>>,
    links: Vec<Link>,
}

/// Every node's results, `(partition, result)` in the order the node named
/// its partitions, indexed by [`NodeId`]; and the run's duration.
pub type Finished<R> = (Vec<Vec<(usize, R)>>, Duration);

impl<R: Send + 'static> JobGraph<R> {
    /// An empty graph whose task names end in `tag`.
    pub fn new(tag: impl Into<String>) -> JobGraph<R> {
        JobGraph { tag: tag.into(), nodes: Vec::new(), links: Vec::new() }
    }

    /// Declare a node that runs `body` on each of `partitions`, placed by
    /// `constraint`. The constraint sets how many partitions the node has;
    /// a run may name only some of them. A partition it does not name gets
    /// no task and its ends are dropped, so the edges of such a node carry
    /// frames, block or discard.
    pub fn node(
        &mut self,
        name: &'static str,
        partitions: &[usize],
        constraint: LocationConstraint,
        body: impl Fn(&WorkerHandle, usize, Ends) -> Result<R> + Send + Sync + 'static,
    ) -> NodeId {
        self.nodes.push(Node {
            name,
            partitions: partitions.to_vec(),
            constraint,
            body: Arc::new(body),
        });
        self.nodes.len() - 1
    }

    /// Join `from` to `to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, edge: Edge) {
        self.links.push((from, Some(to), edge));
    }

    /// Give `from` an outbound edge that discards.
    pub fn discard(&mut self, from: NodeId) {
        self.links.push((from, None, Edge::Discard));
    }

    /// Place, wire and run the graph.
    ///
    /// Placement solves against the alive workers, then the dead ones, so
    /// only the partitions a run names need live workers: if one of them
    /// is placed on a dead worker, the run fails
    /// [`PregelixError::WorkerDead`] before any body runs (a run that names
    /// some partitions splices its results into live state, so a half-run
    /// one is worth preventing). Tasks go out senders first, so
    /// sequential-timed mode never starts a receiver on an open stream; a
    /// node behind a blocking edge goes out in a later batch. A failed task
    /// fails the run with [`Cluster::execute`]'s ranking, and the results
    /// of the tasks that did finish are dropped.
    pub fn run(self, cluster: &Cluster) -> Result<Finished<R>> {
        let alive = cluster.alive_workers();
        let dead = (0..cluster.size()).filter(|w| !alive.contains(w));
        let placeable: Vec<usize> = alive.iter().copied().chain(dead).collect();
        let specs: Vec<_> =
            self.nodes.iter().map(|n| OperatorSpec::new(n.name, n.constraint.clone())).collect();
        let schedule = scheduler::solve(&specs, &placeable)?;
        let width = |n: NodeId| schedule.op_assignment(n).len();
        for (n, node) in self.nodes.iter().enumerate() {
            for &p in &node.partitions {
                match schedule.op_assignment(n).get(p) {
                    None => Err(PregelixError::plan(format!("no partition {}[{p}]", node.name)))?,
                    Some(&id) if !alive.contains(&id) => Err(PregelixError::WorkerDead { id })?,
                    Some(_) => {}
                }
            }
        }
        let order = self.order()?;
        let cap = cluster.channel_capacity();
        let wired = self.nodes.iter().map(|n| n.partitions.iter().map(|_| Ends::default()));
        let mut wired: Vec<Vec<Ends>> = wired.map(Iterator::collect).collect();
        for (from, to, edge) in self.links {
            let receivers = to.map_or_else(Vec::new, |t| schedule.op_assignment(t).to_vec());
            let discard = || (0..width(from)).map(|_| Outbound::Discard).collect();
            let (outs, ins): (Vec<Outbound>, Vec<Inbound>) = match edge {
                Edge::Partitioning { label, slab } => {
                    let (txs, rxs) = partition_channels_cap(width(from), receivers.len(), cap);
                    let outs = txs.into_iter().map(|ends| Outbound::Partitioning {
                        ends,
                        receivers: receivers.clone(),
                        label,
                        slab: slab.clone(),
                    });
                    (outs.collect(), rxs.into_iter().map(Inbound::Partitioning).collect())
                }
                Edge::Merging => {
                    let (txs, rxs) = merging_channels(width(from), receivers.len());
                    let outs = txs.into_iter().map(|ends| Outbound::Merging {
                        ends,
                        receivers: receivers.clone(),
                    });
                    (outs.collect(), rxs.into_iter().map(Inbound::Merging).collect())
                }
                Edge::Frames(lists) => {
                    (discard(), lists.into_iter().map(Inbound::Frames).collect())
                }
                Edge::Discard => (discard(), Vec::new()),
                Edge::Blocking => (Vec::new(), Vec::new()),
            };
            deal(outs, &self.nodes[from].partitions, &mut wired[from], |e, o| e.outs.push(o));
            if let Some(t) = to {
                deal(ins, &self.nodes[t].partitions, &mut wired[t], |e, i| e.ins.push(i));
            }
        }
        let slots = self.nodes.iter().map(|n| n.partitions.iter().map(|_| None).collect());
        let results: Arc<Mutex<Slots<R>>> = Arc::new(Mutex::new(slots.collect()));
        let mut batches: Vec<Vec<Task>> = Vec::new();
        for (n, stage) in order {
            batches.resize_with(batches.len().max(stage + 1), Vec::new);
            let node = &self.nodes[n];
            let ends = std::mem::take(&mut wired[n]);
            for (i, (&p, ends)) in node.partitions.iter().zip(ends).enumerate() {
                let (body, results) = (Arc::clone(&node.body), Arc::clone(&results));
                let name = format!("{}[{p}]{}", node.name, self.tag);
                batches[stage].push(Task::new(name, schedule.worker(n, p), move |w| {
                    let r = body(&w, p, ends)?;
                    results.lock().unwrap_or_else(PoisonError::into_inner)[n][i] = Some((p, r));
                    Ok(())
                }));
            }
        }
        let mut duration = Duration::ZERO;
        for batch in batches {
            duration += cluster.execute(batch)?;
        }
        let results = std::mem::take(&mut *results.lock().unwrap_or_else(PoisonError::into_inner));
        let results = results.into_iter().map(|node| node.into_iter().flatten().collect());
        Ok((results.collect(), duration))
    }

    /// The nodes in the order their tasks go out, each with its batch: the
    /// sources of a node's edges before it, declaration order otherwise; a
    /// node one batch past the source of each blocking edge into it.
    fn order(&self) -> Result<Vec<(NodeId, usize)>> {
        let mut stage: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        while order.len() < self.nodes.len() {
            let next = (0..self.nodes.len()).find_map(|n| {
                let mut at = 0;
                for (from, _, edge) in self.links.iter().filter(|l| l.1 == Some(n)) {
                    at = at.max(stage[*from]? + usize::from(matches!(edge, Edge::Blocking)));
                }
                stage[n].is_none().then_some((n, at))
            });
            let Some((n, at)) = next else {
                return Err(PregelixError::plan("the job graph has a cycle"));
            };
            stage[n] = Some(at);
            order.push((n, at));
        }
        order.sort_by_key(|&(_, at)| at);
        Ok(order)
    }
}

/// Hand `items[p]` to the ends of each partition `p` in `parts`; the items
/// of partitions that do not run are dropped.
fn deal<T>(items: Vec<T>, parts: &[usize], ends: &mut [Ends], put: impl Fn(&mut Ends, T)) {
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    for (e, &p) in ends.iter_mut().zip(parts) {
        if let Some(item) = items.get_mut(p).and_then(Option::take) {
            put(e, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use pregelix_common::fault;
    use pregelix_common::frame::{keyed_tuple, tuple_vid};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `senders` nodes of `per` vid-keyed tuples each, partitioned into
    /// `receivers` nodes that sum what they got — the receiver declared
    /// first.
    fn fan_in(senders: usize, receivers: usize, per: u64) -> JobGraph<(u64, u64)> {
        let mut g = JobGraph::new("@1");
        let all = |n: usize| (0..n).collect::<Vec<_>>();
        let placed = LocationConstraint::Count(receivers);
        let recv = g.node("recv", &all(receivers), placed, |w, _, ends| {
            let ([inbound], []) = ends.take()?;
            let (mut n, mut sum) = (0, 0);
            inbound.for_each(w, |t| {
                n += 1;
                sum += tuple_vid(t)?;
                Ok(())
            })?;
            Ok((n, sum))
        });
        let placed = LocationConstraint::Count(senders);
        let send = g.node("send", &all(senders), placed, move |w, s, ends| {
            let ([], [out]) = ends.take()?;
            let mut tx = out.open(w)?.expect("a partitioning edge");
            for i in 0..per {
                tx.send(&keyed_tuple(s as u64 * per + i, &[0u8; 24]))?;
            }
            tx.finish()?;
            Ok((0, 0))
        });
        g.connect(send, recv, Edge::Partitioning { label: "test", slab: None });
        g
    }

    /// Declared receiver first, the graph still goes out senders first:
    /// sequential-timed mode, which runs tasks one at a time in that order
    /// on unbounded channels, gets through it, and agrees with threads on
    /// bounded channels of 256-byte frames, far more than a channel holds.
    #[test]
    fn a_receiver_first_graph_runs_alike_sequential_and_threaded() {
        let _guard = fault::exclusive();
        let mut config = ClusterConfig::new(3, 1 << 20);
        config.frame_bytes = 256;
        let mut outcomes = Vec::new();
        for config in [config.clone(), config.sequential_timed()] {
            let cluster = Cluster::new(config).unwrap();
            let (done, _) = fan_in(3, 2, 5_000).run(&cluster).unwrap();
            assert_eq!(done[1].len(), 3, "every sender reports");
            let frames = cluster.counters().snapshot().network_frames;
            outcomes.push((done[0].clone(), cluster.channel_capacity().is_some(), frames));
        }
        let (threaded, sequential) = (&outcomes[0], &outcomes[1]);
        assert!(threaded.1 && !sequential.1, "bounded, then unbounded channels");
        assert_eq!(threaded.0, sequential.0);
        let got: u64 = threaded.0.iter().map(|(_, (n, _))| n).sum();
        let sum: u64 = threaded.0.iter().map(|(_, (_, s))| s).sum();
        assert_eq!((got, sum), (15_000, (0..15_000).sum()));
        assert_eq!(threaded.0.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [0, 1]);
        // Four of the six streams cross workers (senders on workers 2, 0, 1,
        // receivers on 0, 1), each carrying a few hundred frames.
        let crossing = 4 * crate::connector::CHANNEL_FRAMES as u64;
        assert!(threaded.2 > crossing, "more frames than the bounded channels hold");
    }

    /// A result that counts its own drop.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One partition fails as the infrastructure, the next as the
    /// application, the others succeed. The run fails as `Cluster::execute`
    /// fails the batch — threaded, with the application's error, ranked
    /// first; sequential-timed, with the first failure in task order — and
    /// the results that were made are dropped, not returned. Threaded, an
    /// anonymous error is annotated with its task's name.
    #[test]
    fn a_failed_body_fails_the_run_with_the_cluster_ranking_and_no_results() {
        let _guard = fault::exclusive();
        let threaded = ClusterConfig::new(4, 1 << 20);
        let sequential = threaded.clone().sequential_timed();
        for (config, user, made) in [(threaded.clone(), true, 2), (sequential, false, 1)] {
            let cluster = Cluster::new(config).unwrap();
            let dropped = Arc::new(AtomicUsize::new(0));
            let mut g = JobGraph::new("");
            let drops = Arc::clone(&dropped);
            g.node("part", &[0, 1, 2, 3], LocationConstraint::Count(4), move |_, p, _| match p {
                1 => Err(PregelixError::WorkerDead { id: 1 }),
                2 => Err(PregelixError::user("bad UDF")),
                _ => Ok(Counted(Arc::clone(&drops))),
            });
            let Err(err) = g.run(&cluster) else { panic!("a failed body fails the run") };
            match user {
                true => assert!(matches!(err, PregelixError::User(_)), "{err}"),
                false => assert!(matches!(err, PregelixError::WorkerDead { id: 1 }), "{err}"),
            }
            assert_eq!(dropped.load(Ordering::Relaxed), made, "every result made is dropped");
        }
        let cluster = Cluster::new(threaded).unwrap();
        let mut g: JobGraph<()> = JobGraph::new("@9");
        g.node("part", &[0, 1], LocationConstraint::Count(2), |_, p, _| match p {
            1 => Err(PregelixError::internal("lost")),
            _ => Ok(()),
        });
        let err = g.run(&cluster).unwrap_err().to_string();
        assert!(err.contains("part[1]@9"), "{err}");
    }

    /// A run that names a partition placed on a dead worker fails before
    /// any body runs; one that names only partitions on live workers runs
    /// them, and only them.
    #[test]
    fn a_partial_run_naming_a_dead_worker_fails_before_any_body_runs() {
        let _guard = fault::exclusive();
        let cluster = Cluster::new(ClusterConfig::new(4, 1 << 20)).unwrap();
        cluster.fail_worker(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let partial = |parts: &[usize]| {
            let mut g = JobGraph::new("");
            let (lead_ran, tail_ran) = (Arc::clone(&ran), Arc::clone(&ran));
            let pins = LocationConstraint::Absolute(vec![0, 1, 2, 3]);
            let lead = g.node("lead", parts, pins, move |w, _, _| {
                lead_ran.fetch_add(1, Ordering::Relaxed);
                Ok(w.id())
            });
            let tail = g.node("tail", parts, LocationConstraint::SameAs(lead), move |w, _, _| {
                tail_ran.fetch_add(1, Ordering::Relaxed);
                Ok(w.id())
            });
            g.connect(lead, tail, Edge::Blocking);
            g.run(&cluster)
        };
        let err = partial(&[0, 1, 3]).unwrap_err();
        assert!(matches!(err, PregelixError::WorkerDead { id: 1 }), "{err}");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "checked before any body runs");
        let (done, _) = partial(&[3, 0]).unwrap();
        assert_eq!(done, [vec![(3, 3), (0, 0)], vec![(3, 3), (0, 0)]]);
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    /// The target of a blocking edge starts only once every partition of
    /// its source has finished, though no tuple passes between them: each
    /// target task sees every source task done.
    #[test]
    fn a_blocking_edge_target_never_overlaps_its_source() {
        let _guard = fault::exclusive();
        let cluster = Cluster::new(ClusterConfig::new(2, 1 << 20)).unwrap();
        for _ in 0..5 {
            let finished = Arc::new(AtomicUsize::new(0));
            let mut g = JobGraph::new("");
            let (f, all) = (Arc::clone(&finished), [0, 1, 2, 3]);
            let source = g.node("slow", &all, LocationConstraint::Count(4), move |_, _, _| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(f.fetch_add(1, Ordering::SeqCst) + 1)
            });
            let f = Arc::clone(&finished);
            let target = g.node("after", &all, LocationConstraint::SameAs(source), move |_, _, _| {
                Ok(f.load(Ordering::SeqCst))
            });
            g.connect(source, target, Edge::Blocking);
            let (done, _) = g.run(&cluster).unwrap();
            assert!(done[target].iter().all(|&(_, seen)| seen == 4), "{:?}", done[target]);
        }
    }
}
