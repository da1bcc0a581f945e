//! One superstep = one dataflow plan (Figures 3–5), built once per job.
//!
//! [`SuperstepPlan`] holds four typed operator nodes, placed by the
//! scheduler's constraints (§5.3.4), and the edges between them
//! ([`SuperstepPlan::edges`]). Per vertex partition `p`:
//!
//! * **`compute[p]`** — the fused join/compute/update pipeline of §5.3.2:
//!   reads the sorted `Msg_i` run, joins it with the `Vertex` index (full
//!   outer merge or `Vid`-merge + left-outer probe, Figure 8), calls the
//!   `compute` UDF on each active row, updates `Vertex` in place (D2),
//!   combines outgoing messages per destination — folded into a
//!   direct-address table slot where the program qualifies, sorted and
//!   grouped otherwise — and feeds the message edge (D3), routes
//!   mutations (D6), and pre-aggregates the global-state contributions
//!   (D4, D5 — stage one of §5.3.3).
//! * **`msgwrite[p]`** — the receiver side of the message-combination
//!   strategy (Figure 7): one pass over the senders' vid-ordered streams,
//!   queued as they arrive (pipelined edge) or sealed as runs (merged edge)
//!   — folded by address into the partition's table where the program
//!   qualifies, merge-folded otherwise; the receiver never sorts —
//!   materialized as the vid-sorted `Msg_{i+1}` partition file (§5.2).
//! * **`mutate[p]`** — receiver-side group-by of mutation tuples by vid +
//!   the `resolve` UDF, applied to the `Vertex` index and the `Vid` run
//!   (§5.3.3). Runs after `compute[p]` releases the partition (mutations
//!   take effect in superstep S+1, §2.1).
//!
//! One **`gs`** node is stage two of the global aggregation (Figure 4): it
//! folds the per-partition contributions, arriving on three aggregator
//! edges, into the new `GS` tuple and decides the global halt. The driver
//! writes `GS` to the DFS where it is durable state (job start, each
//! checkpoint, job end), not once per superstep.
//!
//! A superstep resolves the join, wires fresh channels and executes the
//! plan ([`Source::Live`]). Confined replay executes the same plan and the
//! same three task bodies ([`Source::Logged`]): only the lost partitions
//! run, `msgwrite` and `mutate` read the logged sections, `compute`'s
//! outbound edges discard, and there is no `gs` node. One commit step
//! serves both.

use crate::api::{
    ComputeContext, MessageCombiner, Mutation, OutputBuffers, Resolution, VertexProgram,
};
use crate::gs::GlobalState;
use crate::plan::{JoinStrategy, PlanConfig, PregelixJob, ProbeCostModel};
use crate::store::{RowCursor, VertexStore};
use crate::vertex::{
    decode_into, decode_msg_list_into, encode_edges, encode_head, is_halted, Edge, VertexData,
};
use parking_lot::Mutex;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Site};
use pregelix_common::frame::{keyed_tuple, tuple_payload, tuple_vid, vid_to_key, SharedFrame};
use pregelix_common::msglog::{self, MsgLog, MsgLogWriter};
use pregelix_common::stats::ClusterCounters;
use pregelix_common::writable::Writable;
use pregelix_common::{hash_partition, JobId, Superstep, Vid};
use pregelix_dataflow::cluster::{Cluster, Task, WorkerHandle};
use pregelix_dataflow::connector::{
    merging_channels, partition_channels_cap, AggregatorReceiver, MaterializedPartitioner,
    MergeRx, MergeTx, MergingReceiver, PartitionReceiver, PartitioningSender,
};
use pregelix_dataflow::transport::{ReliableReceiver, StreamRx, StreamTx};
use pregelix_dataflow::scheduler::{self, LocationConstraint, OperatorSpec, Schedule};
use pregelix_storage::file::FileManager;
use pregelix_storage::runfile::{RunHandle, RunReader, RunWriter, TempRun};
use pregelix_storage::sort::{CombineFn, ExternalSorter, SortedInput, SortedStream};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rows the join loop handles between two aliveness checks (which double as
/// the worker's heartbeat).
const ROWS_PER_HEARTBEAT: u64 = 1024;

/// Runtime state of one vertex partition, owned across supersteps.
pub struct PartitionState {
    /// The `Vertex` partition index.
    pub store: VertexStore,
    /// The `Vid_i` run: the live vids, sorted (left-outer and Adaptive plans).
    pub vid_index: Option<RunHandle>,
    /// The `Msg_i` sorted partition file (`None` = no messages).
    pub msg_run: Option<RunHandle>,
}

/// A partition's files go with its state: the graph of a finished,
/// cancelled or failed job, or a partition that recovery replaced. The
/// store's page file is purged from the cache without write-back and
/// deleted, and so are the `Vid` and `Msg` runs. Best effort and counted
/// nowhere, like [`TempRun`].
impl Drop for PartitionState {
    fn drop(&mut self) {
        let tree = self.store.tree();
        let _ = tree.cache().purge_file(tree.file(), false);
        let _ = tree.cache().file_manager().delete(tree.file());
        for run in [self.vid_index.take(), self.msg_run.take()].into_iter().flatten() {
            let _ = run.delete();
        }
    }
}

/// Byte range of a `Msg` tuple's list count (`u32` LE, right after the key).
const MSG_COUNT: std::ops::Range<usize> = 8..12;

fn msg_count(tuple: &[u8]) -> u32 {
    u32::from_le_bytes(
        tuple[MSG_COUNT]
            .try_into()
            .expect("msg tuple carries a list count"),
    )
}

/// Build the message-list tuple combiner for a program, as an in-place fold
/// straight on the message-list codec (`vid key | u32 count | messages`):
/// with a user combiner the accumulator's list stays at one element — the
/// messages are read out of both tuples, folded in stream order, and the
/// result overwrites the accumulator's payload; without one, lists
/// concatenate (the default combine of §3, footnote 4) by adding the counts
/// and appending the incoming message bytes, no decode. Single-use: every
/// sorter, hash table and merge gets its own.
pub(crate) fn msg_tuple_combiner<P: VertexProgram>(program: &Arc<P>) -> CombineFn {
    match program.combiner() {
        Some(user) => Box::new(move |acc: &mut Vec<u8>, incoming: &[u8]| {
            let mut folded: Option<P::Message> = None;
            for tuple in [acc.as_slice(), incoming] {
                let mut list = &tuple[MSG_COUNT.end..];
                for _ in 0..msg_count(tuple) {
                    let m = P::Message::read(&mut list).expect("msg list");
                    folded = Some(match folded {
                        Some(f) => user(&f, &m),
                        None => m,
                    });
                }
            }
            acc.truncate(MSG_COUNT.start);
            1u32.write(acc);
            folded.expect("combining empty lists").write(acc);
        }),
        None => Box::new(|acc: &mut Vec<u8>, incoming: &[u8]| {
            let total = msg_count(acc) + msg_count(incoming);
            acc[MSG_COUNT].copy_from_slice(&total.to_le_bytes());
            acc.extend_from_slice(&incoming[MSG_COUNT.end..]);
        }),
    }
}

// ---------------------------------------------------------------------
// Sender-side combine: direct-address fold table + sorter
// ---------------------------------------------------------------------

/// One accumulator per destination vid below `hi`, addressed by the vid
/// instead of searched for: `fold` is `acc[v] = combine(acc[v], m)` in
/// emission order, and [`drain`](Self::drain) hands the touched slots out
/// in ascending vid order — the stream a sender's sort + merge would have
/// produced, without a tuple, a sort entry or a run file per message.
///
/// Only `window` of the `hi` accumulators are resident: the slots of window
/// `k` stand for vids `k * window ..` and are reused, empty, for window
/// `k + 1` once drained. A table that fits its share of the budget whole is
/// the one-window case, `window == hi`; [`MsgFold`] is what feeds the
/// windows past the first.
///
/// A table lives as long as its job and serves both ends of the message
/// edge: `compute[p]@s` takes it out of the partition's [`FoldSlot`],
/// leaves it empty again after the last `drain` and puts it back before it
/// closes the edge; `msgwrite[p]@s`, which reads nothing before every
/// sender has closed the edge, takes it next to fold the inbound streams
/// ([`fold_sorted`](Self::fold_sorted)). So no superstep pays for `window`
/// slots — only for the bitmap words and the slots it touched.
pub(crate) struct FoldTable<M> {
    hi: usize,
    window: usize,
    combine: MessageCombiner<M>,
    /// `slots[i]` holds an accumulator only while bit `i` of `present` is
    /// set. Empty until the first fold, then `window` copies of that first
    /// message: any value does, an unmarked slot is never read.
    slots: Vec<M>,
    present: Vec<u64>,
}

impl<M: Clone> FoldTable<M> {
    fn new(hi: usize, window: usize, combine: MessageCombiner<M>) -> Self {
        FoldTable {
            hi,
            window,
            combine,
            slots: Vec::new(),
            present: vec![0; window.div_ceil(64)],
        }
    }

    /// What `slots` resident accumulators allocate: the slots as they sit
    /// in memory plus the presence bitmap (`u64::MAX` when that overflows).
    pub(crate) fn bytes(slots: Vid) -> u64 {
        slots
            .saturating_mul(std::mem::size_of::<M>() as u64)
            .saturating_add(slots.div_ceil(64).saturating_mul(8))
    }

    /// The widest window [`bytes`](Self::bytes) puts within `bytes`, in
    /// whole bitmap words (64 slots), and never past what the `u32` slot
    /// number of a spilled message can address.
    pub(crate) fn slots_in(bytes: u64) -> u64 {
        let per_word = 64 * std::mem::size_of::<M>() as u64 + 8;
        (bytes / per_word * 64).min(1 << 32)
    }

    /// Windows it takes to cover `hi` (one for an empty table).
    fn windows(&self) -> usize {
        self.hi.div_ceil(self.window.max(1)).max(1)
    }

    fn fold(&mut self, slot: usize, m: M) {
        if self.slots.is_empty() {
            self.slots.resize(self.window, m.clone());
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.present[word] & bit == 0 {
            self.present[word] |= bit;
            self.slots[slot] = m;
        } else {
            self.slots[slot] = (self.combine)(&self.slots[slot], &m);
        }
    }

    /// Visit every touched slot in ascending order as vid `base + slot`,
    /// clearing its bit. Costs the bitmap's words plus the touched slots,
    /// never `window`.
    fn drain(&mut self, base: Vid, mut each: impl FnMut(Vid, &M) -> Result<()>) -> Result<()> {
        for word in 0..self.present.len() {
            let mut bits = std::mem::take(&mut self.present[word]);
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                each(base + slot as Vid, &self.slots[slot])?;
            }
        }
        Ok(())
    }
}

impl<M: Writable> FoldTable<M> {
    /// Fold `inputs`, each one sender's `vid | count | messages` tuples in
    /// ascending vid order, and hand `each` one accumulator per vid in
    /// ascending order. Window by window: a window starts at the smallest
    /// vid no input has passed and spans `window` vids; every input in
    /// index order folds its tuples below the window's end, then the window
    /// drains. Equal vids fold in input order, vids at or above `hi` and
    /// sparse vids need no other path, and since the inputs are sorted
    /// nothing waits past its window. Returns the tuples folded.
    fn fold_sorted(
        &mut self,
        inputs: &mut [SortedInput],
        mut each: impl FnMut(Vid, &M) -> Result<()>,
    ) -> Result<u64> {
        let mut folded = 0;
        loop {
            let mut base = None;
            for t in inputs.iter().filter_map(SortedInput::current) {
                let vid = tuple_vid(t)?;
                base = Some(base.map_or(vid, |b: Vid| b.min(vid)));
            }
            let Some(base) = base else { return Ok(folded) };
            let end = base.saturating_add(self.window as Vid);
            for input in inputs.iter_mut() {
                while let Some(t) = input.current() {
                    let vid = tuple_vid(t)?;
                    if vid >= end {
                        break;
                    }
                    let slot = vid
                        .checked_sub(base)
                        .ok_or_else(|| PregelixError::corrupt("inbound stream out of vid order"))?;
                    let count = t.get(MSG_COUNT).map_or(0, |c| {
                        u32::from_le_bytes(c.try_into().expect("4-byte count"))
                    });
                    if count == 0 {
                        return Err(PregelixError::corrupt(
                            "message tuple shorter than its key, count and message",
                        ));
                    }
                    let mut list = &t[MSG_COUNT.end..];
                    for _ in 0..count {
                        self.fold(slot as usize, M::read(&mut list)?);
                    }
                    folded += 1;
                    input.advance()?;
                }
            }
            self.drain(base, &mut each)?;
        }
    }
}

/// Where partition `p`'s [`FoldTable`] rests between its tasks. Owned by
/// the job's `RunLoop`, so partitions re-planned onto another worker find
/// the same table; a task that fails never puts its (possibly half-drained)
/// table back, and the next one starts from a fresh allocation.
pub(crate) struct FoldSlot<M> {
    hi: usize,
    window: usize,
    /// Whether `compute[p]` folds into the table too, or only `msgwrite[p]`
    /// does (the sender's table would not fit in windows: it sorts).
    sender: bool,
    combine: MessageCombiner<M>,
    table: Mutex<Option<FoldTable<M>>>,
}

impl<M: Clone> FoldSlot<M> {
    /// A slot for tables over the vids below `hi`, `window` of them
    /// resident at a time, used by the sender too when `sender` says so.
    pub(crate) fn new(hi: usize, window: usize, sender: bool, combine: MessageCombiner<M>) -> Self {
        FoldSlot {
            hi,
            window: window.min(hi),
            sender,
            combine,
            table: Mutex::new(None),
        }
    }

    fn take(&self) -> FoldTable<M> {
        let pooled = self.table.lock().take();
        pooled.unwrap_or_else(|| FoldTable::new(self.hi, self.window, Arc::clone(&self.combine)))
    }

    fn put_back(&self, table: FoldTable<M>) {
        *self.table.lock() = Some(table);
    }
}

fn encode_msg_tuple<M: Writable>(out: &mut Vec<u8>, dest: Vid, m: &M) {
    out.clear();
    out.extend_from_slice(&vid_to_key(dest));
    1u32.write(out);
    m.write(out);
}

/// The sender-side combine of one `compute[p]` task (flow D3): every
/// outgoing message whose destination has a table slot folds into it;
/// everything else — destinations at or above the table's `hi`, and every
/// message of a program that got no table — goes through the sort-based
/// group-by, an [`ExternalSorter`] built on first use.
///
/// Folding is immediate for the table's first window. A message for a later
/// window is appended, as `u32 slot | message`, to that window's spill file
/// — one page of staged records per window, no key, no sort entry, no
/// comparison — and [`drain`](Self::drain) folds each file back into the
/// emptied table in the order it was written. All messages for one vid land
/// in one window in emission order, so every accumulator ends up with the
/// bits a fully resident table would have given it.
struct MsgFold<P: VertexProgram> {
    table: Option<FoldTable<P::Message>>,
    /// Spill file of window `k + 1`, created by the first message for it.
    spills: Vec<Option<RunWriter>>,
    sorter: Option<ExternalSorter>,
    /// What the sorter is built from: its budget and tuple combiner.
    sorter_parts: Option<(usize, CombineFn)>,
    fm: FileManager,
    /// Reused encoding buffer for outgoing tuples and spill records.
    scratch: Vec<u8>,
    folded: u64,
    spilled: u64,
    strays: u64,
}

impl<P: VertexProgram> MsgFold<P> {
    /// `table` is the partition's when the job found the program eligible;
    /// its bytes and a page per window past the first come out of `budget`,
    /// the rest is the sorter's.
    fn new(
        table: Option<FoldTable<P::Message>>,
        fm: &FileManager,
        budget: usize,
        combiner: CombineFn,
    ) -> Self {
        let (table_bytes, spill_files) = table.as_ref().map_or((0, 0), |t| {
            let resident = FoldTable::<P::Message>::bytes(t.window as Vid) as usize;
            (resident, t.windows() - 1)
        });
        let sorter_budget = budget.saturating_sub(table_bytes + spill_files * fm.page_size());
        MsgFold {
            table,
            spills: (0..spill_files).map(|_| None).collect(),
            sorter: None,
            sorter_parts: Some((sorter_budget, combiner)),
            fm: fm.clone(),
            scratch: Vec::new(),
            folded: 0,
            spilled: 0,
            strays: 0,
        }
    }

    fn add(&mut self, dest: Vid, m: P::Message) -> Result<()> {
        if let Some(table) = self.table.as_mut() {
            if dest < table.window as Vid {
                table.fold(dest as usize, m);
                self.folded += 1;
                return Ok(());
            }
            if dest < table.hi as Vid {
                let (k, slot) = (dest as usize / table.window, dest as usize % table.window);
                self.scratch.clear();
                (slot as u32).write(&mut self.scratch);
                m.write(&mut self.scratch);
                let spill = match &mut self.spills[k - 1] {
                    Some(open) => open,
                    unopened => {
                        // A record — length, count, offsets, tuples — fills
                        // one storage page: that is all a window stages.
                        let per_page =
                            self.fm.page_size().saturating_sub(8) / (self.scratch.len() + 4);
                        unopened.insert(RunWriter::create_paged(
                            self.fm.temp_file_path("msg-fold"),
                            self.fm.counters().clone(),
                            per_page.max(1) * self.scratch.len(),
                        )?)
                    }
                };
                spill.write_tuple(&self.scratch)?;
                self.folded += 1;
                self.spilled += 1;
                return Ok(());
            }
            self.strays += 1;
        }
        if let Some((budget, combiner)) = self.sorter_parts.take() {
            let sorter = ExternalSorter::new(self.fm.clone(), "msg-local", budget);
            self.sorter = Some(sorter.with_combiner(combiner));
        }
        encode_msg_tuple(&mut self.scratch, dest, &m);
        self.sorter.as_mut().expect("just built").add(&self.scratch)
    }

    /// Emit one combined `vid | 1 | msg` tuple per touched table slot in
    /// ascending vid order — window 0 as it stands, then each later window
    /// folded back from its spill file — then the sorter's stream, whose
    /// vids (with a table) are all larger: the whole output is vid-sorted,
    /// as the merging connector requires. Returns the emptied table.
    fn drain(
        mut self,
        mut emit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<Option<FoldTable<P::Message>>> {
        let counters = self.fm.counters().clone();
        counters.add_msgs_folded_direct(self.folded);
        counters.add_msgs_fold_spilled(self.spilled);
        counters.add_msgs_stray(self.strays);
        let mut table = self.table.take();
        if let Some(table) = table.as_mut() {
            let scratch = &mut self.scratch;
            let mut emit_slot = |vid: Vid, m: &P::Message| {
                encode_msg_tuple(scratch, vid, m);
                debug_assert_eq!(Some(scratch.len() - MSG_COUNT.end), P::Message::FIXED_WIDTH);
                emit(scratch)
            };
            table.drain(0, &mut emit_slot)?;
            for (k, spill) in self.spills.iter_mut().enumerate() {
                let Some(spill) = spill.take() else { continue };
                // Read once, front to back, and deleted on the way out.
                let run = TempRun::from(spill.finish()?);
                let mut records = run.open(counters.clone())?;
                while records.advance()? {
                    let record = records.current().expect("advance reported a record");
                    let (slot, mut m) = record
                        .split_first_chunk::<4>()
                        .map(|(slot, m)| (u32::from_le_bytes(*slot) as usize, m))
                        .filter(|(slot, _)| *slot < table.window)
                        .ok_or_else(|| PregelixError::corrupt("bad fold-window spill record"))?;
                    table.fold(slot, P::Message::read(&mut m)?);
                }
                table.drain(((k + 1) * table.window) as Vid, &mut emit_slot)?;
            }
        }
        if let Some(sorter) = self.sorter.take() {
            let mut stream = sorter.finish()?;
            while let Some(t) = stream.next_tuple()? {
                emit(t)?;
            }
        }
        Ok(table)
    }
}

// ---------------------------------------------------------------------
// Tuple codecs for mutation and stats flows
// ---------------------------------------------------------------------

fn encode_mutation<P: VertexProgram>(m: &Mutation<P>) -> Vec<u8> {
    match m {
        Mutation::Insert(v) => {
            let mut out = vec![0u8];
            out.extend_from_slice(&v.encode_value());
            out
        }
        Mutation::Delete => vec![1u8],
    }
}

pub(crate) fn decode_mutation<P: VertexProgram>(vid: Vid, payload: &[u8]) -> Result<Mutation<P>> {
    match payload.first() {
        Some(0) => Ok(Mutation::Insert(VertexData::decode(vid, &payload[1..])?)),
        Some(1) => Ok(Mutation::Delete),
        _ => Err(PregelixError::corrupt("bad mutation tag")),
    }
}

/// One task's report to `gs` (stage one of the two-stage aggregation).
/// Every node sends the same record, counting what it did and leaving the
/// rest zero, so `gs` sums reports field by field. `from_bytes` makes an
/// empty, short or overlong one `Corrupt`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Report {
    /// Vertices live for the next superstep: left live by `compute`,
    /// inserted live by `mutate`.
    live: u64,
    /// Vertices added: created by `compute` for messages to no row,
    /// inserted by `mutate`.
    added: u64,
    /// Vertices `mutate` deleted.
    deleted: u64,
    /// Tuples in `msgwrite`'s `Msg_{s+1}` run.
    combined: u64,
    /// `compute`'s encoded aggregate partial (empty = none).
    agg: Vec<u8>,
}

impl Writable for Report {
    fn write(&self, out: &mut Vec<u8>) {
        self.live.write(out);
        self.added.write(out);
        self.deleted.write(out);
        self.combined.write(out);
        self.agg.write(out);
    }

    fn read(buf: &mut &[u8]) -> Result<Report> {
        Ok(Report {
            live: u64::read(buf)?,
            added: u64::read(buf)?,
            deleted: u64::read(buf)?,
            combined: u64::read(buf)?,
            agg: Vec::read(buf)?,
        })
    }
}

// ---------------------------------------------------------------------
// The plan: nodes, edges, placement, one execution, its commit
// ---------------------------------------------------------------------

/// An operator node of the superstep plan. A node, a partition and a
/// superstep name one task: `msgwrite[3]@7`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    /// Scan or probe `Vertex` ⋈ `Msg_s`, `compute`, sender-side combine.
    Compute,
    /// Receiver-side combine into the `Msg_{s+1}` run.
    MsgWrite,
    /// Mutation requests grouped by vid through `resolve`.
    Mutate,
    /// Stage two of the global aggregation: the next `GS`.
    Gs,
}

impl Node {
    const ALL: [Node; 4] = [Node::Compute, Node::MsgWrite, Node::Mutate, Node::Gs];

    fn name(self) -> &'static str {
        match self {
            Node::Compute => "compute",
            Node::MsgWrite => "msgwrite",
            Node::Mutate => "mutate",
            Node::Gs => "gs",
        }
    }
}

/// How an edge moves tuples from its source node's partitions to its
/// target's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EdgeKind {
    /// m-to-n partitioning connector: frames as they arrive, each named by
    /// its stream.
    Pipelined,
    /// m-to-n partitioning merging connector: one sorted run per pair.
    Merged,
    /// m-to-1 aggregator connector.
    Aggregator,
}

/// One edge of the plan.
#[derive(Clone, Copy, Debug)]
struct PlanEdge {
    from: Node,
    to: Node,
    kind: EdgeKind,
    /// Stream label: the context `Site::FrameSend` faults are scoped by.
    label: &'static str,
}

/// One superstep as a dataflow plan, built once per job (§5, Figures 3–5).
/// Every superstep resolves the join, wires fresh channels for the edges
/// (streams are single-use) and executes it; confined replay executes the
/// same plan fed from the message logs ([`Source::Logged`]).
pub(crate) struct SuperstepPlan<P: VertexProgram> {
    program: Arc<P>,
    job: JobId,
    /// The job's plan hints: `join` may still be Adaptive.
    config: PlanConfig,
    /// One pooled [`FoldTable`] slot per partition when the program's
    /// messages can fold by address (a combiner, a fixed width), empty
    /// otherwise.
    fold_slots: Arc<[FoldSlot<P::Message>]>,
    /// Whether `compute` tees its outbound edges into the message log.
    logged: bool,
    /// `(sticky, alive, schedule)` of the last [`place`](Self::place).
    placement: Option<(Vec<usize>, Vec<usize>, Arc<Schedule>)>,
}

/// What feeds one execution of the plan.
pub(crate) enum Source<'a> {
    /// A live superstep: every partition runs, every edge is a fresh
    /// connector, and an Adaptive join may follow the measured probe costs.
    Live(Option<ProbeCostModel>),
    /// Confined replay of the `lost` partitions, `logs[src]` being what
    /// `src` logged during the replayed superstep: `msgwrite` and `mutate`
    /// read the logged sections bound for their partition, `compute`'s
    /// outbound edges go to a discard sink, and there is no `gs` node.
    Logged { lost: &'a [usize], logs: &'a [MsgLog] },
}

/// One execution of the plan as its tasks share it.
struct Exec<P: VertexProgram> {
    program: Arc<P>,
    job: JobId,
    /// The global state feeding the superstep.
    gs: GlobalState,
    /// The resolved plan: `join` is never Adaptive here.
    config: PlanConfig,
    track_live: bool,
    partitions: Vec<Arc<Mutex<PartitionState>>>,
    fold_slots: Arc<[FoldSlot<P::Message>]>,
    schedule: Arc<Schedule>,
    /// Where `compute` persists its message log, and the bytes written.
    log: Option<(SimDfs, AtomicU64)>,
    /// Per partition, the `Msg_{s+1}` run `msgwrite` sealed and its tuple
    /// count, owned here until the commit installs the run.
    next_msgs: Vec<Mutex<(Option<TempRun>, u64)>>,
    /// The `gs` node's revised global state.
    outcome: Mutex<Option<GlobalState>>,
}

/// The sending end of one edge, as a task finds it.
enum Outbound {
    Pipelined(Vec<StreamTx>, PlanEdge),
    Merged(Vec<MergeTx>, PlanEdge),
    Discard,
}

/// The receiving end of one edge, as a task finds it.
enum Inbound {
    Pipelined(Vec<StreamRx>),
    Merged(Vec<MergeRx>),
    /// The logged sections bound for this partition, in ascending source
    /// order, empty ones left out.
    Logged(Vec<SharedFrame>),
}

/// One task's ends, one per edge at its node, in [`SuperstepPlan::edges`]
/// order.
#[derive(Default)]
struct Ends {
    ins: Vec<Inbound>,
    outs: Vec<Outbound>,
}

/// Every task body: the same four arguments for every node.
type Body<P> = fn(&WorkerHandle, &Exec<P>, usize, Ends) -> Result<()>;

impl<P: VertexProgram> SuperstepPlan<P> {
    pub(crate) fn new(
        program: &Arc<P>,
        job: &PregelixJob,
        fold_slots: Vec<FoldSlot<P::Message>>,
    ) -> Self {
        SuperstepPlan {
            program: Arc::clone(program),
            job: job.id.clone(),
            config: job.plan,
            fold_slots: fold_slots.into(),
            logged: job.checkpoint_interval.is_some(),
            placement: None,
        }
    }

    /// The plan's edges. Only the message edge's kind is the job's: merged
    /// under a merging group-by strategy (Figure 7).
    fn edges(&self) -> [PlanEdge; 5] {
        let edge = |from, to, kind, label| PlanEdge {
            from,
            to,
            kind,
            label,
        };
        let msg = if self.config.groupby.merged() {
            EdgeKind::Merged
        } else {
            EdgeKind::Pipelined
        };
        [
            edge(Node::Compute, Node::MsgWrite, msg, "msg"),
            edge(Node::Compute, Node::Mutate, EdgeKind::Pipelined, "mut"),
            edge(Node::Compute, Node::Gs, EdgeKind::Aggregator, "gs"),
            edge(Node::MsgWrite, Node::Gs, EdgeKind::Aggregator, "gs"),
            edge(Node::Mutate, Node::Gs, EdgeKind::Aggregator, "gs"),
        ]
    }

    /// Place the nodes (§5.3.4): `compute` pinned absolutely to the workers
    /// holding the `Vertex` partitions, `msgwrite` and `mutate` co-located
    /// with it, one `gs` anywhere. Solved again only when `sticky` or the
    /// alive set changed, that is, after a recovery. The caller has checked
    /// that every sticky worker is alive.
    pub(crate) fn place(&mut self, sticky: &[usize], alive: &[usize]) -> Result<()> {
        if let Some((s, a, _)) = &self.placement {
            if s == sticky && a == alive {
                return Ok(());
            }
        }
        let specs = Node::ALL.map(|node| {
            let constraint = match node {
                Node::Compute => LocationConstraint::Absolute(sticky.to_vec()),
                Node::Gs => LocationConstraint::Count(1),
                _ => LocationConstraint::SameAs(Node::Compute as usize),
            };
            OperatorSpec::new(node.name(), sticky.len(), constraint)
        });
        let schedule = Arc::new(scheduler::solve(&specs, alive)?);
        self.placement = Some((sticky.to_vec(), alive.to_vec(), schedule));
        Ok(())
    }

    /// Execute superstep `gs.superstep` on the placed plan, live or
    /// replayed, and commit it. Returns the revised global state (`None`
    /// for a replay, which has no `gs` node) and the execution's duration.
    pub(crate) fn execute(
        &self,
        cluster: &Cluster,
        partitions: &[Arc<Mutex<PartitionState>>],
        gs: &GlobalState,
        source: Source<'_>,
    ) -> Result<(Option<GlobalState>, Duration)> {
        let (_, _, schedule) = self
            .placement
            .as_ref()
            .ok_or_else(|| PregelixError::plan("superstep plan executed before it was placed"))?;
        // The measured cost model is not replayed: it only biases the
        // Adaptive choice, and both joins produce identical state.
        let cost_model = if let Source::Live(model) = source { model } else { None };
        let (config, track_live) = resolve_join(self.config, gs, cost_model);
        let p_count = partitions.len();
        let exec = Arc::new(Exec {
            program: Arc::clone(&self.program),
            job: self.job.clone(),
            gs: gs.clone(),
            config,
            track_live,
            partitions: partitions.to_vec(),
            fold_slots: Arc::clone(&self.fold_slots),
            schedule: Arc::clone(schedule),
            log: (self.logged && matches!(source, Source::Live(_)))
                .then(|| (cluster.dfs().clone(), AtomicU64::new(0))),
            next_msgs: (0..p_count).map(|_| Mutex::default()).collect(),
            outcome: Mutex::new(None),
        });
        let mut wired = self.wire(p_count, cluster.channel_capacity(), &source);
        let bodies: [Body<P>; 4] = [compute_task, msgwrite_task, mutate_task, gs_task];
        // Tasks are emitted node-major, senders before the receivers they
        // feed: sequential-timed mode runs them one at a time in this
        // order, so no receiver starts on a stream that is still open. A
        // log-fed `mutate[p]` waits on no stream of `compute[p]`'s, so it
        // runs as a second stage: it must not lock the partition before
        // `compute[p]` is done with it.
        let stages: &[&[Node]] = match source {
            Source::Live(_) => &[&Node::ALL],
            Source::Logged { .. } => &[&[Node::Compute, Node::MsgWrite], &[Node::Mutate]],
        };
        let mut duration = Duration::ZERO;
        for stage in stages {
            let mut tasks = Vec::new();
            for &node in *stage {
                for (p, ends) in std::mem::take(&mut wired[node as usize]) {
                    let (exec, body) = (Arc::clone(&exec), bodies[node as usize]);
                    tasks.push(Task::new(
                        format!("{}[{p}]@{}", node.name(), gs.superstep),
                        schedule.worker(node as usize, p),
                        move |w| body(&w, &exec, p, ends),
                    ));
                }
            }
            duration += match source {
                Source::Live(_) => cluster.execute(tasks)?,
                // Replay splices into live state: no task runs unless every
                // worker it names is alive.
                Source::Logged { .. } => cluster.execute_partial(tasks)?,
            };
        }
        Ok((self.commit(cluster, &exec), duration))
    }

    /// Fresh ends for every edge of one execution: per node, `(partition,
    /// ends)` for each of its partitions that runs.
    fn wire(
        &self,
        p_count: usize,
        cap: Option<usize>,
        source: &Source<'_>,
    ) -> [Vec<(usize, Ends)>; 4] {
        let parts: Vec<usize> = match source {
            Source::Live(_) => (0..p_count).collect(),
            Source::Logged { lost, .. } => lost.to_vec(),
        };
        let mut wired = Node::ALL.map(|node| {
            let parts: &[usize] = if node == Node::Gs { &[0] } else { &parts };
            parts.iter().map(|&p| (p, Ends::default())).collect::<Vec<_>>()
        });
        for edge in self.edges() {
            let (from, to) = (edge.from as usize, edge.to as usize);
            let Source::Logged { logs, .. } = source else {
                let n = if edge.kind == EdgeKind::Aggregator { 1 } else { p_count };
                let (txs, rxs): (Vec<_>, Vec<_>) = if edge.kind == EdgeKind::Merged {
                    let (txs, rxs) = merging_channels(p_count, n);
                    let txs = txs.into_iter().map(|tx| Outbound::Merged(tx, edge));
                    (txs.collect(), rxs.into_iter().map(Inbound::Merged).collect())
                } else {
                    let (txs, rxs) = partition_channels_cap(p_count, n, cap);
                    let txs = txs.into_iter().map(|tx| Outbound::Pipelined(tx, edge));
                    (txs.collect(), rxs.into_iter().map(Inbound::Pipelined).collect())
                };
                wired[from].iter_mut().zip(txs).for_each(|((_, e), tx)| e.outs.push(tx));
                wired[to].iter_mut().zip(rxs).for_each(|((_, e), rx)| e.ins.push(rx));
                continue;
            };
            wired[from].iter_mut().for_each(|(_, e)| e.outs.push(Outbound::Discard));
            for (p, e) in wired[to].iter_mut().filter(|_| edge.to != Node::Gs) {
                let section = |log: &MsgLog| match edge.to {
                    Node::MsgWrite => log.messages(*p).freeze_standalone(),
                    _ => log.mutations(*p).freeze_standalone(),
                };
                let sections = logs.iter().map(section).filter(|s| !s.is_empty());
                e.ins.push(Inbound::Logged(sections.collect()));
            }
        }
        wired
    }

    /// The one commit step, after every task of an execution succeeded:
    /// install the `Msg_{s+1}` runs of the partitions that ran, count the
    /// combined messages and the log bytes, and restock the frame slab.
    /// Counting only here keeps both independent of which tasks raced
    /// ahead of a fault that aborted the execution (an aborted superstep
    /// re-executes after recovery). Harvesting only here — single-threaded,
    /// after every task joined — keeps `slab_recycled` and the next
    /// superstep's fresh-alloc counts independent of how tasks interleaved.
    /// On failure nothing is committed, and dropping the execution deletes
    /// the runs it sealed.
    fn commit(&self, cluster: &Cluster, exec: &Exec<P>) -> Option<GlobalState> {
        let counters = cluster.counters();
        let mut combined = 0;
        for (p, slot) in exec.next_msgs.iter().enumerate() {
            let (run, n) = std::mem::take(&mut *slot.lock());
            combined += n;
            if let Some(run) = run {
                exec.partitions[p].lock().msg_run = Some(run.keep());
            }
        }
        if let Some((_, tally)) = &exec.log {
            counters.add_log_bytes_written(tally.load(Ordering::Relaxed));
        }
        counters.add_messages_combined(combined);
        cluster.slab().harvest();
        let new_gs = exec.outcome.lock().take();
        if let Some(gs) = &new_gs {
            counters.set_live_vertices(gs.live_vertices);
        }
        new_gs
    }
}

impl Outbound {
    /// Open the edge on worker `w`: `None` for a discard sink.
    fn open(self, w: &WorkerHandle, schedule: &Schedule) -> Result<Option<EdgeSender>> {
        Ok(match self {
            Outbound::Pipelined(ends, edge) => Some(EdgeSender::Pipelined(
                PartitioningSender::new(
                    ends,
                    w.frame_bytes(),
                    w.slab().clone(),
                    w.id(),
                    schedule.op_assignment(edge.to as usize).to_vec(),
                    w.counters().clone(),
                )
                .with_label(edge.label),
            )),
            Outbound::Merged(ends, edge) => Some(EdgeSender::Merged(MaterializedPartitioner::new(
                w.file_manager(),
                ends,
                w.id(),
                schedule.op_assignment(edge.to as usize).to_vec(),
            )?)),
            Outbound::Discard => None,
        })
    }
}

impl Inbound {
    /// Feed the edge's tuples to `each` in arrival order, for a node that
    /// groups what it reads (`mutate`): off a pipelined edge's streams, or
    /// out of the logged sections, section by section.
    fn for_each(self, w: &WorkerHandle, mut each: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        match self {
            Inbound::Pipelined(ins) => {
                let mut rx = PartitionReceiver::new(ins, w.counters().clone());
                while let Some(t) = rx.next_tuple()? {
                    each(t)?;
                }
                Ok(())
            }
            Inbound::Logged(sections) => {
                sections.iter().flat_map(SharedFrame::iter).try_for_each(each)
            }
            Inbound::Merged(_) => Err(PregelixError::plan("a merged edge is read by merging")),
        }
    }
}

impl Ends {
    /// The ends as a node's body takes them: `I` inbound and `O` outbound.
    fn take<const I: usize, const O: usize>(self) -> Result<([Inbound; I], [Outbound; O])> {
        match (self.ins.try_into(), self.outs.try_into()) {
            (Ok(ins), Ok(outs)) => Ok((ins, outs)),
            _ => Err(PregelixError::plan("a task's ends do not match its node's edges")),
        }
    }
}

/// An open outbound edge.
enum EdgeSender {
    Pipelined(PartitioningSender),
    Merged(MaterializedPartitioner),
}

impl EdgeSender {
    fn send(&mut self, tuple: &[u8]) -> Result<()> {
        match self {
            EdgeSender::Pipelined(s) => s.send(tuple),
            EdgeSender::Merged(s) => s.send(tuple),
        }
    }

    fn finish(self) -> Result<()> {
        match self {
            EdgeSender::Pipelined(s) => s.finish(),
            EdgeSender::Merged(s) => s.finish(),
        }
    }
}

/// Resolve `plan`'s join for superstep `gs.superstep`, live or replayed, and
/// say whether the `Vid` live-vertex run must be maintained.
///
/// Superstep 1 is the full-outer scan for every plan: it activates every
/// vertex anyway, and under a left-outer or Adaptive plan its live vids
/// make the first `Vid` run. Later, Adaptive plans pick the join per
/// superstep from the previous superstep's live-vertex fraction (the
/// paper's future-work optimizer, §9), with the run written every
/// superstep so a sparse superstep can switch to probing at zero notice.
/// The probe-vs-scan threshold is re-derived from the costs measured on
/// earlier supersteps of this job when available (`cost_model`), instead
/// of the hard-coded default (§7.5).
pub(crate) fn resolve_join(
    plan: PlanConfig,
    gs: &GlobalState,
    cost_model: Option<ProbeCostModel>,
) -> (PlanConfig, bool) {
    let live_fraction = if gs.vertex_count == 0 {
        1.0
    } else {
        gs.live_vertices as f64 / gs.vertex_count as f64
    };
    let join = if gs.superstep == 1 {
        JoinStrategy::FullOuter
    } else {
        plan.join.resolve_with(live_fraction, cost_model)
    };
    let track_live = plan.join != JoinStrategy::FullOuter;
    (PlanConfig { join, ..plan }, track_live)
}

// ---------------------------------------------------------------------
// compute[p]
// ---------------------------------------------------------------------

/// A cursor over a vid-sorted run, `Msg_i[p]` or `Vid_i[p]`: each
/// [`advance`](Self::advance) lends the next tuple in place from the run
/// reader's frame. A missing run reads as an empty one.
struct RunCursor {
    reader: Option<RunReader>,
    /// Vid of the current tuple; `None` before the first and once the run
    /// is exhausted.
    vid: Option<Vid>,
}

impl RunCursor {
    fn open(run: Option<&RunHandle>, counters: &ClusterCounters) -> Result<Self> {
        let reader = run.map(|h| h.open(counters.clone())).transpose()?;
        Ok(RunCursor { reader, vid: None })
    }

    /// Move to the next tuple and lend it; `None` at the end.
    fn advance(&mut self) -> Result<Option<&[u8]>> {
        self.vid = None;
        let Some(r) = self.reader.as_mut() else { return Ok(None) };
        if !r.advance()? {
            return Ok(None);
        }
        let t = r.current().expect("advance reported a tuple");
        self.vid = Some(tuple_vid(t)?);
        Ok(Some(t))
    }
}

/// The `Msg_i[p]` cursor: each row's message list is decoded into one
/// reused buffer — nothing is allocated per row.
struct MsgStream<P: VertexProgram> {
    run: RunCursor,
    /// The current row's messages (stale once the run is exhausted).
    msgs: Vec<P::Message>,
}

impl<P: VertexProgram> MsgStream<P> {
    /// Open positioned on the first row.
    fn open(run: Option<&RunHandle>, w: &WorkerHandle) -> Result<Self> {
        let run = RunCursor::open(run, w.counters())?;
        let mut stream = MsgStream { run, msgs: Vec::new() };
        stream.advance()?;
        Ok(stream)
    }

    /// Move to the next row.
    fn advance(&mut self) -> Result<()> {
        if let Some(t) = self.run.advance()? {
            decode_msg_list_into(tuple_payload(t)?, &mut self.msgs)?;
        }
        Ok(())
    }
}

/// Everything `compute[p]` accumulates while streaming vertices.
struct ComputeSide<P: VertexProgram> {
    program: Arc<P>,
    superstep: Superstep,
    vertex_count: u64,
    agg_prev: P::Aggregate,
    /// `None` when the message edge discards (replay: the original
    /// execution logged and delivered the messages), so nothing is folded
    /// or grouped.
    fold: Option<MsgFold<P>>,
    /// The open mutation edge; `None` when it discards.
    mutations: Option<EdgeSender>,
    /// Its `live` and `added` counts.
    report: Report,
    agg_partial: Option<P::Aggregate>,
    /// The `Vid_{i+1}` run under a tracked plan: every vid left live, in
    /// the ascending order both joins visit them.
    next_vids: Option<RunWriter>,
    counters: ClusterCounters,
    /// Sender-side message log for confined recovery: every post-combine
    /// tuple and every mutation request this partition emits, bucketed by
    /// destination. `None` when logging is off (and during replay).
    log: Option<MsgLogWriter>,
    /// Partition count, for bucketing the log by `hash_partition`.
    p_count: usize,
    /// Reused per-row buffers — the decoded edge list, the output vectors
    /// lent to each `ComputeContext` and the row encoding written back —
    /// so a steady-state row allocates nothing.
    edges: Vec<Edge<P::EdgeValue>>,
    out: OutputBuffers<P>,
    row_scratch: Vec<u8>,
}

impl<P: VertexProgram> ComputeSide<P> {
    /// Run `compute` on the cursor's current row and write the result back
    /// at the cursor (D2): only the row's head when the edge list is
    /// untouched and the head kept its length, else the whole row.
    fn process_row(
        &mut self,
        cur: &mut RowCursor<'_>,
        vid: Vid,
        msgs: &[P::Message],
    ) -> Result<()> {
        let (halt, value, head_len) = decode_into::<P>(cur.value(), &mut self.edges)?;
        let vertex = VertexData {
            vid,
            halt,
            value,
            edges: std::mem::take(&mut self.edges),
        };
        let edges_dirty = self.compute(vertex, msgs)?;
        if edges_dirty {
            encode_edges(&self.edges, &mut self.row_scratch);
        } else if self.row_scratch.len() == head_len {
            return cur.write_head(&self.row_scratch);
        } else {
            self.row_scratch.extend_from_slice(&cur.value()[head_len..]);
        }
        cur.write(&self.row_scratch)
    }

    /// Run `compute` on the default vertex materialised for a message whose
    /// vid has no `Vertex` row (the left-outer case, §3) and insert it.
    fn process_missing(
        &mut self,
        cur: &mut RowCursor<'_>,
        vid: Vid,
        msgs: &[P::Message],
    ) -> Result<()> {
        self.report.added += 1;
        self.compute(VertexData::missing(vid), msgs)?;
        encode_edges(&self.edges, &mut self.row_scratch);
        cur.insert(&vid_to_key(vid), &self.row_scratch)
    }

    /// Call `compute` on one joined row and route every output flow but the
    /// vertex update: that is left as the row's new head in `row_scratch`
    /// and its edge list in `edges`. Returns whether the edge list changed.
    fn compute(&mut self, vertex: VertexData<P>, msgs: &[P::Message]) -> Result<bool> {
        self.counters.add_compute_calls(1);
        let vid = vertex.vid;
        let mut ctx = ComputeContext::new(
            vertex,
            msgs,
            self.superstep,
            self.vertex_count,
            &self.agg_prev,
            std::mem::take(&mut self.out),
        );
        self.program.compute(&mut ctx)?;
        let done = ctx.into_outputs();
        let mut out = done.buffers;
        // D3: messages into the sender-side combine, in emission order,
        // unless the message edge discards.
        self.counters.add_messages_sent(out.messages.len() as u64);
        match self.fold.as_mut() {
            Some(fold) => {
                for (dest, m) in out.messages.drain(..) {
                    fold.add(dest, m)?;
                }
            }
            None => out.messages.clear(),
        }
        // D6: mutations to their owning partitions, tee'd into the message
        // log (same destination bucketing as the connector) when the job
        // checkpoints.
        for (mvid, m) in out.mutations.drain(..) {
            let t = keyed_tuple(mvid, &encode_mutation(&m));
            if let Some(log) = self.log.as_mut() {
                log.add_mut(hash_partition(mvid, self.p_count), &t);
            }
            if let Some(tx) = self.mutations.as_mut() {
                tx.send(&t)?;
            }
        }
        // D5: aggregate contributions (stage one).
        for a in out.agg.drain(..) {
            self.agg_partial = Some(match self.agg_partial.take() {
                None => a,
                Some(acc) => self.program.combine_aggregates(acc, a),
            });
        }
        self.out = out;
        // D4: halt contribution.
        if !done.vertex.halt {
            self.report.live += 1;
            if let Some(vids) = self.next_vids.as_mut() {
                vids.write_tuple(&vid_to_key(vid))?;
            }
        }
        self.row_scratch.clear();
        encode_head::<P>(done.vertex.halt, &done.vertex.value, &mut self.row_scratch);
        self.edges = done.vertex.edges;
        Ok(done.edges_dirty)
    }
}

/// `compute[p]`: its outbound edges are messages, mutations and its report
/// to `gs`, in [`SuperstepPlan::edges`] order.
fn compute_task<P: VertexProgram>(
    w: &WorkerHandle,
    exec: &Exec<P>,
    p: usize,
    ends: Ends,
) -> Result<()> {
    let ([], [msg_out, mut_out, gs_out]) = ends.take()?;
    let mut st = exec.partitions[p].lock();
    let st = &mut *st;
    let gs = &exec.gs;
    let agg_prev = if gs.aggregate.is_empty() {
        P::Aggregate::default()
    } else {
        P::Aggregate::from_bytes(&gs.aggregate)?
    };
    // The consumed `Msg_i` and `Vid_i` runs are deleted when this task
    // ends, however it ends: nothing reads them again.
    let msg_run = st.msg_run.take().map(TempRun::from);
    let vid_run = st.vid_index.take().map(TempRun::from);
    let mut msgs = MsgStream::<P>::open(msg_run.as_deref(), w)?;
    let p_count = exec.partitions.len();
    let msg_tx = msg_out.open(w, &exec.schedule)?;
    let fold = msg_tx.as_ref().map(|_| {
        MsgFold::new(
            exec.fold_slots.get(p).filter(|s| s.sender).map(FoldSlot::take),
            w.file_manager(),
            w.groupby_budget(),
            msg_tuple_combiner(&exec.program),
        )
    });
    let mut side = ComputeSide {
        program: Arc::clone(&exec.program),
        superstep: gs.superstep,
        vertex_count: gs.vertex_count,
        agg_prev,
        fold,
        mutations: mut_out.open(w, &exec.schedule)?,
        report: Report::default(),
        agg_partial: None,
        next_vids: exec
            .track_live
            .then(|| vid_run_writer(w, exec.job.tag(), p, vid_run.as_deref())),
        counters: w.counters().clone(),
        log: exec
            .log
            .as_ref()
            .map(|_| MsgLogWriter::new(gs.superstep, p, p_count)),
        p_count,
        edges: Vec::new(),
        out: OutputBuffers::default(),
        row_scratch: Vec::new(),
    };

    join_and_compute(w, &mut st.store, vid_run.as_deref(), &mut side, &mut msgs, exec.config.join)?;

    // Close the mutation flow so mutate[p] tasks can proceed once every
    // compute finishes.
    if let Some(tx) = side.mutations.take() {
        tx.finish()?;
    }

    // Drain the sender-side combine into the message edge, tee-ing every
    // post-combine tuple into the message log (bucketed by the same hash
    // the connector routes with) when the job checkpoints. The emptied
    // table goes back before the edge closes: `msgwrite[p]` takes it once
    // every sender has closed, so it always finds the table pooled.
    if let (Some(fold), Some(mut tx)) = (side.fold.take(), msg_tx) {
        let mut sent = 0u64;
        let table = fold.drain(|t| {
            if sent.is_multiple_of(4096) {
                w.check_alive()?;
            }
            sent += 1;
            if let Some(log) = side.log.as_mut() {
                log.add_msg(hash_partition(tuple_vid(t)?, p_count), t);
            }
            tx.send(t)
        })?;
        if let (Some(slot), Some(table)) = (exec.fold_slots.get(p), table) {
            slot.put_back(table);
        }
        tx.finish()?;
    }

    // Flow D11/D12: the next superstep's live-vertex run (tracked plans).
    if let Some(vids) = side.next_vids.take() {
        st.vid_index = Some(vids.finish()?);
    }
    drop((msg_run, vid_run));

    // Persist the message log before this task reports to gs, so a log
    // either exists complete at the superstep boundary or not at all.
    // Best-effort: a lost log makes a future recovery reload every
    // partition, it never fails the superstep.
    if let (Some((dfs, tally)), Some(log)) = (&exec.log, side.log.take()) {
        if let Ok(bytes) = msglog::write_log(dfs, w.counters(), &exec.job, &log) {
            tally.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    // Stage-one aggregation result + counters to the gs task.
    side.report.agg = side.agg_partial.take().map_or_else(Vec::new, |a| a.to_bytes());
    report_to_gs(w, &exec.schedule, gs_out, &side.report.to_bytes())
}

/// Send one task's report on its edge to `gs`, and close it. A replay has
/// no `gs` node: the edge discards.
fn report_to_gs(w: &WorkerHandle, schedule: &Schedule, out: Outbound, report: &[u8]) -> Result<()> {
    match out.open(w, schedule)? {
        Some(EdgeSender::Pipelined(mut tx)) => {
            tx.send_to(0, report)?;
            tx.finish()
        }
        Some(EdgeSender::Merged(_)) => Err(PregelixError::plan("the gs edges are aggregators")),
        None => Ok(()),
    }
}

/// The fused join/compute/update loop of §5.3.2: merge `Msg` with the
/// `Vertex` index (or the `Vid` run), call `compute` on every active row,
/// and route each output flow through `side`. `join` must already be
/// resolved (Adaptive never reaches task bodies).
fn join_and_compute<P: VertexProgram>(
    w: &WorkerHandle,
    store: &mut VertexStore,
    vid_run: Option<&RunHandle>,
    side: &mut ComputeSide<P>,
    msgs: &mut MsgStream<P>,
    join: JoinStrategy,
) -> Result<()> {
    match join {
        JoinStrategy::Adaptive => {
            return Err(PregelixError::plan(
                "adaptive join must be resolved before task construction",
            ))
        }
        JoinStrategy::FullOuter => {
            // Index full outer join: one pass of the row cursor over the
            // Vertex index, merged with Msg.
            let superstep = side.superstep;
            let mut cur = store.cursor();
            let mut rows = 0u64;
            while cur.next()? {
                if rows.is_multiple_of(ROWS_PER_HEARTBEAT) {
                    w.check_alive()?;
                }
                rows += 1;
                let vid = tuple_vid(cur.key())?;
                // Messages for vids before this vertex: missing rows.
                while let Some(mvid) = msgs.run.vid.filter(|&mvid| mvid < vid) {
                    side.process_missing(&mut cur, mvid, &msgs.msgs)?;
                    msgs.advance()?;
                }
                let matched = msgs.run.vid == Some(vid);
                // σ(V.halt = false || M.payload != NULL), decided before
                // the row is decoded; superstep 1 activates everything (a
                // fresh Pregel job starts with every vertex active, which
                // also powers pipelined jobs over a carried-over graph,
                // §5.6).
                if !is_halted(cur.value()) || matched || superstep == 1 {
                    let mlist: &[P::Message] = if matched { &msgs.msgs } else { &[] };
                    side.process_row(&mut cur, vid, mlist)?;
                }
                if matched {
                    msgs.advance()?;
                }
            }
            // Left-outer remainder: messages to nonexistent vids.
            while let Some(mvid) = msgs.run.vid {
                side.process_missing(&mut cur, mvid, &msgs.msgs)?;
                msgs.advance()?;
            }
        }
        JoinStrategy::LeftOuter => {
            // Merge Msg with the Vid live-vertex run (choose() prefers
            // Msg on duplicates), then seek the Vertex index's row cursor
            // to each merged vid: the merge yields strictly ascending vids,
            // so a seek is answered from the pinned leaf or descends from
            // the lowest pinned page covering its vid, not from the root,
            // and the row is updated right where the seek found it.
            let vid_run = vid_run.ok_or_else(|| {
                PregelixError::plan("left-outer join plan requires a Vid run")
            })?;
            let mut vids = RunCursor::open(Some(vid_run), w.counters())?;
            vids.advance()?;
            let mut cur = store.cursor();
            let mut rows = 0u64;
            loop {
                // choose(): on a duplicate vid, take the Msg tuple and drop
                // the Vid one.
                let (vid, matched) = match (vids.vid, msgs.run.vid) {
                    (None, None) => break,
                    (Some(vv), None) => (vv, false),
                    (Some(vv), Some(mv)) if vv < mv => (vv, false),
                    (_, Some(mv)) => (mv, true),
                };
                if rows.is_multiple_of(ROWS_PER_HEARTBEAT) {
                    w.check_alive()?;
                }
                rows += 1;
                if vids.vid == Some(vid) {
                    vids.advance()?;
                }
                let mlist: &[P::Message] = if matched { &msgs.msgs } else { &[] };
                if cur.seek(&vid_to_key(vid))? {
                    side.process_row(&mut cur, vid, mlist)?;
                } else if matched {
                    side.process_missing(&mut cur, vid, mlist)?;
                }
                // Else a stale Vid with no row (deleted vertex): skip.
                if matched {
                    msgs.advance()?;
                }
            }
        }
    }

    Ok(())
}

// ---------------------------------------------------------------------
// msgwrite[p]
// ---------------------------------------------------------------------

/// Where partition `p`'s `Msg` run feeding superstep `fed` lives on its
/// worker. Paths alternate on superstep parity, so `msgwrite` writing
/// `Msg_{i+1}` never touches the `Msg_i` file `compute` is reading. The job
/// is part of the path: concurrent jobs share the same worker machines
/// (§7.4) and must not collide on `Msg` files.
pub(crate) fn msg_run_path(root: &Path, job_tag: &str, p: usize, fed: Superstep) -> PathBuf {
    root.join(format!("msg-{job_tag}-p{p}-{}.run", fed % 2))
}

/// A writer for partition `p`'s next `Vid` run. It takes whichever of the
/// job's two names for the run the `current` one does not hold, so a task
/// never writes over the run it reads. Not a `tmp-` file: a resident graph
/// holds its run between jobs.
pub(crate) fn vid_run_writer(
    w: &WorkerHandle,
    job_tag: &str,
    p: usize,
    current: Option<&RunHandle>,
) -> RunWriter {
    let name = |k: u8| w.file_manager().root().join(format!("vid-{job_tag}-p{p}-{k}.run"));
    let holds_first = current.and_then(RunHandle::path) == Some(name(0).as_path());
    partition_run(w, name(u8::from(holds_first)))
}

/// A writer for a partition's `Msg` or `Vid` run: held in memory up to
/// eight frames, so a sparse superstep's runs cost no file I/O, and spilled
/// to `path` past that.
fn partition_run(w: &WorkerHandle, path: impl Into<PathBuf>) -> RunWriter {
    RunWriter::create_buffered(path, w.counters().clone(), 8 * w.frame_bytes())
}

/// Drain a pipelined edge's streams into one frame queue per source, in
/// source-index order, each frame queued by refcount. The blocking rule:
/// frames are taken from whichever stream has one, and every stream is
/// drained to its `Fin` before any is read, so the reader never waits on
/// one sender while another is held up on a full bounded channel — the
/// merge deadlock §5.3.1's materializing connector exists to avoid. Under
/// sequential-timed execution every frame is already queued on an
/// unbounded channel before the reader runs, so holding them here adds no
/// bytes. `msgwrite[p]` and `load[p]` read their edges this way.
pub(crate) fn drain_streams(w: &WorkerHandle, ins: Vec<StreamRx>) -> Result<Vec<Vec<SharedFrame>>> {
    let mut queues = vec![Vec::new(); ins.len()];
    let mut rx = ReliableReceiver::new(ins, w.counters().clone());
    while let Some((stream, frame)) = rx.next_stream_frame()? {
        w.check_alive()?;
        queues[stream].push(frame);
    }
    Ok(queues)
}

/// `msgwrite[p]`: folds its inbound message edge into the `Msg_{s+1}` run,
/// which the commit step installs. Every source of that edge — a stream of
/// the pipelined connector, a run of the merging one, a logged section in
/// replay — carries one sender's combined tuples in ascending vid order, so
/// nothing here sorts. Where the program qualifies for a [`FoldTable`]
/// (a combiner and a fixed-width message), the sources fold by address
/// into the partition's table, source by source, window by window
/// ([`FoldTable::fold_sorted`]): equal vids fold in source-index order on
/// every edge kind, live or replayed, at every RAM size. Otherwise one
/// merge ([`SortedStream`]) folds them in (vid, tuple bytes, source) order.
/// The run is created on the first message, so message-free supersteps
/// (common near convergence) cost no file I/O, and buffered, so small
/// message sets never touch disk.
fn msgwrite_task<P: VertexProgram>(
    w: &WorkerHandle,
    exec: &Exec<P>,
    p: usize,
    ends: Ends,
) -> Result<()> {
    let ([inbound], [gs_out]) = ends.take()?;
    let (superstep, job_tag) = (exec.gs.superstep, exec.job.tag());
    // Fault point keyed by job, superstep and partition (Site::Stall): the
    // one site a multi-tenant chaos test can aim at a single tenant's task.
    // A replay passes it no event, so a fault plan's counts do not shift.
    if !matches!(inbound, Inbound::Logged(_)) && fault::active() {
        let ctx = format!("{job_tag}:s{superstep}:p{p}");
        if fault::hit(Site::Stall, &ctx).is_some() {
            w.counters().add_faults_injected(1);
            return Err(fault::injected_error(Site::Stall, &ctx));
        }
    }
    // The edge's sources in source-index order, and the runs behind them.
    let (mut inputs, runs) = match inbound {
        // The merging connector: one sealed run per sender.
        Inbound::Merged(ins) => {
            let runs = MergingReceiver::new(ins, w.counters().clone()).into_runs()?;
            let inputs = runs.iter().map(|run| SortedInput::run(run, w.counters().clone()));
            (inputs.collect::<Result<Vec<_>>>()?, runs)
        }
        // The pipelined connector: every frame queued by refcount on its
        // stream.
        Inbound::Pipelined(ins) => {
            let queues = drain_streams(w, ins)?;
            (queues.into_iter().map(SortedInput::frames).collect(), Vec::new())
        }
        // Replay: each source's logged section is its stream, whole.
        Inbound::Logged(sections) => {
            w.counters().add_log_runs_replayed(sections.len() as u64);
            let inputs = sections.into_iter().map(|s| SortedInput::frames(vec![s]));
            (inputs.collect(), Vec::new())
        }
    };
    let path = msg_run_path(w.file_manager().root(), job_tag, p, superstep + 1);
    let (mut run, mut combined) = (None, 0u64);
    let mut write = |t: &[u8]| {
        if combined.is_multiple_of(4096) {
            w.check_alive()?;
        }
        combined += 1;
        run.get_or_insert_with(|| partition_run(w, &path)).write_tuple(t)
    };
    // A table over an empty graph has no slot to fold into.
    match exec.fold_slots.get(p).filter(|slot| slot.window > 0) {
        Some(slot) => {
            let mut table = slot.take();
            let mut scratch = Vec::new();
            let folded = table.fold_sorted(&mut inputs, |vid, m| {
                encode_msg_tuple(&mut scratch, vid, m);
                write(&scratch)
            })?;
            slot.put_back(table);
            w.counters().add_msgs_folded_inbound(folded);
        }
        None => {
            let combiner = Some(msg_tuple_combiner(&exec.program));
            let mut stream = SortedStream::from_inputs(inputs, runs, combiner);
            while let Some(t) = stream.next_tuple()? {
                write(t)?;
            }
        }
    }
    let run = run.map(|run| run.finish().map(TempRun::from)).transpose()?;
    *exec.next_msgs[p].lock() = (run, combined);
    let report = Report {
        combined,
        ..Report::default()
    };
    report_to_gs(w, &exec.schedule, gs_out, &report.to_bytes())
}

// ---------------------------------------------------------------------
// mutate[p]
// ---------------------------------------------------------------------

/// `mutate[p]`: groups its inbound mutation edge by vid (§5.3.3: resolve
/// is not guaranteed distributive, so there is no sender-side
/// pre-grouping) and applies each group through `resolve`.
fn mutate_task<P: VertexProgram>(
    w: &WorkerHandle,
    exec: &Exec<P>,
    p: usize,
    ends: Ends,
) -> Result<()> {
    let ([inbound], [gs_out]) = ends.take()?;
    let mut groups: BTreeMap<Vid, Vec<Mutation<P>>> = BTreeMap::new();
    inbound.for_each(w, |t| {
        let vid = tuple_vid(t)?;
        groups.entry(vid).or_default().push(decode_mutation(vid, tuple_payload(t)?)?);
        Ok(())
    })?;
    // Every compute has passed its mutation flush (live: all mutation
    // streams are closed; replay: this is the second stage), so the
    // partition lock is (or will soon be) free, and mutations apply
    // strictly after compute — the "take effect in superstep S+1" rule.
    let mut report = Report::default();
    if !groups.is_empty() {
        let mut st = exec.partitions[p].lock();
        let st = &mut *st;
        // What changes in the `Vid` run, ascending: a live insert adds its
        // vid (`true`), a delete drops it.
        let mut vid_changes: Vec<(Vid, bool)> = Vec::new();
        // `groups` is a BTreeMap: one cursor seeks its vids in ascending
        // order, and each resolution is written at the cursor.
        let mut cur = st.store.cursor();
        for (vid, muts) in groups {
            w.check_alive()?;
            let key = vid_to_key(vid);
            let in_store = cur.seek(&key)?;
            match exec.program.resolve(vid, muts) {
                Resolution::Insert(v) => {
                    cur.insert(&key, &v.encode_value())?;
                    if !in_store {
                        report.added += 1;
                    }
                    if !v.halt {
                        report.live += 1;
                        vid_changes.push((vid, true));
                    }
                }
                Resolution::Delete => {
                    if in_store {
                        cur.delete()?;
                        report.deleted += 1;
                    }
                    vid_changes.push((vid, false));
                }
                Resolution::Keep => {}
            }
        }
        // A tracked plan's `Vid` run is rewritten in one merge with the
        // changes; the old run goes only once the new one is sealed.
        if let Some(current) = st.vid_index.as_ref().filter(|_| !vid_changes.is_empty()) {
            let out = vid_run_writer(w, exec.job.tag(), p, Some(current));
            let merged = merge_vids(current, &vid_changes, out, w.counters())?;
            if let Some(old) = st.vid_index.replace(merged) {
                let _ = old.delete();
            }
        }
    }
    report_to_gs(w, &exec.schedule, gs_out, &report.to_bytes())
}

/// Merge `changes` — ascending vids, each added (`true`) or dropped — into
/// the `Vid` run `current`, in one ascending pass, and seal the result.
fn merge_vids(
    current: &RunHandle,
    changes: &[(Vid, bool)],
    mut out: RunWriter,
    counters: &ClusterCounters,
) -> Result<RunHandle> {
    let mut vids = RunCursor::open(Some(current), counters)?;
    vids.advance()?;
    for &(vid, add) in changes {
        while let Some(kept) = vids.vid.filter(|&v| v < vid) {
            out.write_tuple(&vid_to_key(kept))?;
            vids.advance()?;
        }
        if vids.vid == Some(vid) {
            vids.advance()?;
        }
        if add {
            out.write_tuple(&vid_to_key(vid))?;
        }
    }
    while let Some(kept) = vids.vid {
        out.write_tuple(&vid_to_key(kept))?;
        vids.advance()?;
    }
    out.finish()
}

// ---------------------------------------------------------------------
// gs (stage two)
// ---------------------------------------------------------------------

/// `gs`: its three inbound edges, one report per partition of `compute`,
/// `msgwrite` and `mutate`, are read as one aggregator stream set.
fn gs_task<P: VertexProgram>(w: &WorkerHandle, exec: &Exec<P>, _: usize, ends: Ends) -> Result<()> {
    let (ins, []) = ends.take::<3, 0>()?;
    let mut streams = Vec::new();
    for inbound in ins {
        match inbound {
            Inbound::Pipelined(ends) => streams.extend(ends),
            _ => return Err(PregelixError::plan("the gs edges are aggregators")),
        }
    }
    let expected = streams.len() as u64;
    let mut rx = AggregatorReceiver::new(streams, w.counters().clone());
    let mut sum = Report::default();
    // Partition partials arrive in transport order, which the scheduler
    // does not fix — but f64 aggregate combination is not associative
    // across orders, so the partials are canonicalized (sorted by encoding)
    // before the combine chain runs. This keeps the revised GS bit-identical
    // across runs.
    let mut partials: Vec<Vec<u8>> = Vec::new();
    let mut received = 0u64;
    while let Some(t) = rx.next_tuple()? {
        w.check_alive()?;
        received += 1;
        let report = Report::from_bytes(t)?;
        sum.live += report.live;
        sum.added += report.added;
        sum.deleted += report.deleted;
        sum.combined += report.combined;
        if !report.agg.is_empty() {
            partials.push(report.agg);
        }
    }
    if received != expected {
        // A partition task died mid-superstep; the partial stats must not
        // become the job's global state.
        return Err(PregelixError::internal(format!(
            "gs received {received}/{expected} partition reports"
        )));
    }
    partials.sort_unstable();
    let mut agg: Option<P::Aggregate> = None;
    for pb in &partials {
        let partial = P::Aggregate::from_bytes(pb)?;
        agg = Some(match agg.take() {
            None => partial,
            Some(acc) => exec.program.combine_aggregates(acc, partial),
        });
    }
    let gs = &exec.gs;
    let new_gs = GlobalState {
        superstep: gs.superstep + 1,
        halt: sum.combined == 0 && sum.live == 0,
        aggregate: match agg {
            Some(a) => a.to_bytes(),
            None => Vec::new(),
        },
        vertex_count: gs.vertex_count + sum.added - sum.deleted,
        live_vertices: sum.live,
        messages: sum.combined,
    };
    *exec.outcome.lock() = Some(new_gs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{tests_support::NoopProgram, MessageCombiner};
    use crate::vertex::{decode_msg_list, encode_msg_list};
    use pregelix_common::frame::Frame;
    use pregelix_dataflow::groupby::{combine_fn, TupleCombiner};
    use pregelix_storage::file::{FileManager, TempDir};

    /// `f64` messages under a sum combiner: float addition is not
    /// associative, so any change in fold order shows in the bits.
    struct SumProgram;

    impl VertexProgram for SumProgram {
        type VertexValue = f64;
        type EdgeValue = f64;
        type Message = f64;
        type Aggregate = ();

        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            ctx.vote_to_halt();
            Ok(())
        }

        fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
            VertexData::new(vid, 0.0, Vec::new())
        }

        fn combiner(&self) -> Option<MessageCombiner<f64>> {
            Some(Arc::new(|a, b| a + b))
        }
    }

    /// The combiner this module built before the fold form: decode both
    /// lists, combine, re-encode into a fresh tuple. Kept as the reference
    /// the in-place fold must match byte for byte.
    fn byte_pair_combiner<P: VertexProgram>(program: &Arc<P>) -> TupleCombiner {
        let user = program.combiner();
        Arc::new(move |a: &[u8], b: &[u8]| -> Vec<u8> {
            let vid = tuple_vid(a).unwrap();
            let mut la: Vec<P::Message> = decode_msg_list(tuple_payload(a).unwrap()).unwrap();
            let lb: Vec<P::Message> = decode_msg_list(tuple_payload(b).unwrap()).unwrap();
            match &user {
                Some(c) => {
                    let mut iter = la.into_iter().chain(lb);
                    let first = iter.next().unwrap();
                    let folded = iter.fold(first, |acc, m| c(&acc, &m));
                    keyed_tuple(vid, &encode_msg_list(&[folded]))
                }
                None => {
                    la.extend(lb);
                    keyed_tuple(vid, &encode_msg_list(&la))
                }
            }
        })
    }

    /// 20 000 single-message tuples over 300 destinations, every value
    /// different, in a fixed scrambled order.
    fn duplicate_heavy_messages() -> Vec<Vec<u8>> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let m = (x >> 11) as f64 / (1u64 << 40) as f64 - 4096.0;
                keyed_tuple((x >> 33) % 300, &encode_msg_list(&[m]))
            })
            .collect()
    }

    /// Output stream, bytes spilled and runs spilled of one group-by.
    fn group(mut gb: ExternalSorter, fm: &FileManager) -> (Vec<Vec<u8>>, u64, u64) {
        for t in duplicate_heavy_messages() {
            gb.add(&t).unwrap();
        }
        let out = gb.finish().unwrap().collect_all().unwrap();
        let c = fm.counters();
        (out, c.sort_bytes_spilled(), c.sort_runs_spilled())
    }

    fn fold_matches_byte_pair<P: VertexProgram>(program: P) {
        let program = Arc::new(program);
        for budget in [1 << 20, 2048] {
            let (fm, _d) = fresh_fm();
            let pair = combine_fn(&byte_pair_combiner(&program));
            let legacy = ExternalSorter::new(fm.clone(), "l", budget).with_combiner(pair);
            let legacy = group(legacy, &fm);
            let (fm, _d) = fresh_fm();
            let fold = msg_tuple_combiner(&program);
            let folded = ExternalSorter::new(fm.clone(), "f", budget).with_combiner(fold);
            let folded = group(folded, &fm);
            assert_eq!(legacy.0.len(), 300);
            assert_eq!(folded, legacy, "budget {budget}");
            assert_eq!(folded.1 > 0, budget == 2048, "budget {budget} spills");
        }
    }

    /// A program that only exists to carry a message type and its combiner.
    struct Folding<M>(fn(&M, &M) -> M);

    impl<M: Writable + std::fmt::Debug> VertexProgram for Folding<M> {
        type VertexValue = u64;
        type EdgeValue = ();
        type Message = M;
        type Aggregate = ();

        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            ctx.vote_to_halt();
            Ok(())
        }

        fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
            VertexData::new(vid, 0, Vec::new())
        }

        fn combiner(&self) -> Option<MessageCombiner<M>> {
            Some(Arc::new(self.0))
        }
    }

    fn fresh_fm() -> (FileManager, TempDir) {
        let dir = TempDir::new("msg-fold").unwrap();
        let fm = FileManager::new(dir.path(), 4096, ClusterCounters::new()).unwrap();
        (fm, dir)
    }

    /// Temporary runs on the worker's disk right now.
    fn temp_runs(fm: &FileManager) -> usize {
        fm.temp_files().unwrap().len()
    }

    /// Everything `compute[p]` does with its outgoing messages: take the
    /// table (if the partition has a slot), add, drain, put the table back.
    fn fold_stream<P: VertexProgram>(
        program: &Arc<P>,
        slot: Option<&FoldSlot<P::Message>>,
        stream: &[(Vid, P::Message)],
    ) -> Vec<Vec<u8>> {
        let (fm, _dir) = fresh_fm();
        let mut fold = MsgFold::<P>::new(
            slot.map(FoldSlot::take),
            &fm,
            1 << 20,
            msg_tuple_combiner(program),
        );
        for (dest, m) in stream {
            fold.add(*dest, m.clone()).unwrap();
        }
        // One spill file per window past the first that got a message.
        let windows_hit: std::collections::BTreeSet<Vid> = stream
            .iter()
            .filter_map(|(d, _)| {
                slot.filter(|s| *d < s.hi as Vid)
                    .map(|s| d / s.window as Vid)
            })
            .filter(|k| *k > 0)
            .collect();
        assert_eq!(temp_runs(&fm), windows_hit.len());
        let mut out = Vec::new();
        let table = fold
            .drain(|t| {
                out.push(t.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(temp_runs(&fm), 0, "spill files are gone once read back");
        let c = fm.counters();
        let below = |bound: fn(&FoldSlot<P::Message>) -> usize| {
            let bound = slot.map_or(0, bound) as Vid;
            stream.iter().filter(|(d, _)| *d < bound).count() as u64
        };
        let direct = below(|s| s.hi);
        assert_eq!(c.msgs_folded_direct(), direct);
        assert_eq!(c.msgs_fold_spilled(), direct - below(|s| s.window));
        let strays = if slot.is_some() {
            stream.len() as u64 - direct
        } else {
            0
        };
        assert_eq!(c.msgs_stray(), strays);
        assert_eq!(table.is_some(), slot.is_some());
        if let (Some(slot), Some(table)) = (slot, table) {
            slot.put_back(table);
        }
        out
    }

    /// The stream a table over `hi` vids must produce, however many of its
    /// slots are resident at a time: per destination below `hi` the messages
    /// folded in emission order, ascending by vid, then whatever the sorter
    /// alone makes of the rest.
    fn model<P: VertexProgram>(
        program: &Arc<P>,
        hi: Vid,
        stream: &[(Vid, P::Message)],
    ) -> Vec<Vec<u8>> {
        let combine = program.combiner().unwrap();
        let mut acc: BTreeMap<Vid, P::Message> = BTreeMap::new();
        let mut strays = Vec::new();
        for (dest, m) in stream {
            if *dest >= hi {
                strays.push((*dest, m.clone()));
            } else if let Some(a) = acc.get_mut(dest) {
                *a = combine(a, m);
            } else {
                acc.insert(*dest, m.clone());
            }
        }
        let mut out: Vec<Vec<u8>> = acc
            .iter()
            .map(|(v, m)| keyed_tuple(*v, &encode_msg_list(std::slice::from_ref(m))))
            .collect();
        out.extend(fold_stream(program, None, &strays));
        out
    }

    /// `n` messages to scrambled destinations below `span`, plus the two
    /// vids either side of `hi`.
    fn scrambled<M>(
        seed: u64,
        n: usize,
        span: Vid,
        hi: Vid,
        msg: impl Fn(u64) -> M,
    ) -> Vec<(Vid, M)> {
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 20
        };
        let mut stream: Vec<(Vid, M)> = (0..n).map(|_| (next() % span, msg(next()))).collect();
        for (i, edge) in [hi.saturating_sub(1), hi, hi.saturating_sub(1), hi]
            .into_iter()
            .enumerate()
        {
            stream.insert((i * 37) % (stream.len() + 1), (edge, msg(next())));
        }
        stream
    }

    /// All in range, all stray (`hi == 0` and `hi` below every dest), mixed;
    /// the table resident whole (`window` at and past `hi`), in two windows
    /// (`hi - 1` in whole bitmap words) and in many (64 and 128 slots); one
    /// table reused over three supersteps with different touched sets.
    /// Every stream byte-identical to the model.
    fn table_matches_model<M: Writable + std::fmt::Debug>(
        combine: fn(&M, &M) -> M,
        msg: impl Fn(u64) -> M + Copy,
    ) {
        let program = Arc::new(Folding(combine));
        for (hi, span) in [(1000u64, 1000), (0, 500), (300, 1000), (1, 64), (65, 64)] {
            let mut windows = vec![64, 128, hi.saturating_sub(1) / 64 * 64, hi, hi + 100];
            windows.retain(|w| *w > 0 || hi == 0);
            windows.dedup();
            for window in windows {
                let slot =
                    FoldSlot::new(hi as usize, window as usize, true, program.combiner().unwrap());
                assert_eq!(slot.window as Vid, window.min(hi));
                for (superstep, n) in [(1u64, 4000), (2, 40), (3, 900)] {
                    let stream = scrambled(hi * 31 + superstep, n, span, hi, msg);
                    let got = fold_stream(&program, Some(&slot), &stream);
                    let want = model(&program, hi, &stream);
                    assert!(!want.is_empty());
                    assert_eq!(
                        got, want,
                        "hi {hi}, span {span}, window {window}, superstep {superstep}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_table_matches_the_model_for_f64_sum() {
        // Every value different: the emission-order fold shows in the bits.
        table_matches_model::<f64>(|a, b| a + b, |x| x as f64 / (1u64 << 30) as f64 - 4096.0);
    }

    #[test]
    fn fold_table_matches_the_model_for_u64_min() {
        table_matches_model::<u64>(|a, b| *a.min(b), |x| x);
    }

    #[test]
    fn fold_table_matches_the_model_for_unit() {
        table_matches_model::<()>(|_, _| (), |_| ());
    }

    #[test]
    fn fold_table_matches_the_model_for_pairs() {
        table_matches_model::<(u64, u64)>(|a, b| (a.0.min(b.0), a.1 + b.1), |x| (x % 97, x % 13));
    }

    #[test]
    fn failed_fold_leaves_the_slot_empty_and_the_next_table_clean() {
        let program = Arc::new(Folding::<u64>(|a, b| *a.min(b)));
        let slot = FoldSlot::new(100, 100, true, program.combiner().unwrap());
        let (fm, dir) = fresh_fm();
        drop(dir); // the sorter's first spill has nowhere to go
        let mut fold = MsgFold::<Folding<u64>>::new(
            Some(slot.take()),
            &fm,
            FoldTable::<u64>::bytes(100) as usize,
            msg_tuple_combiner(&program),
        );
        let mut failed = false;
        for i in 0..10_000u64 {
            fold.add(i % 100, i).unwrap();
            if fold.add(100 + i, i).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "a 1 KB sorter with no directory must fail to spill");
        drop(fold);
        assert!(
            slot.table.lock().is_none(),
            "a failed task's table is dropped"
        );
        let stream = [(7, 70u64), (99, 1)];
        assert_eq!(
            fold_stream(&program, Some(&slot), &stream),
            model(&program, 100, &stream)
        );
        assert!(slot.table.lock().is_some());
    }

    /// A windowed fold that fails — appending to a spill file, or reading
    /// one back half-way through the drain — leaves its table out of the
    /// slot and no spill file on the worker's disk.
    #[test]
    fn failed_windowed_fold_leaves_no_spill_file_and_an_empty_slot() {
        use pregelix_common::fault::{Fault, FaultPlan};
        let program = Arc::new(Folding::<u64>(|a, b| *a.min(b)));
        let slot = FoldSlot::new(1000, 128, true, program.combiner().unwrap());
        let stream: Vec<(Vid, u64)> = (0..20_000u64).map(|i| (i * 7 % 1000, i)).collect();
        let chaos = fault::exclusive();
        for (site, nth) in [(Site::RunWrite, 9), (Site::RunRead, 5)] {
            let (fm, dir) = fresh_fm();
            // Scoped to this test's own directory: other tests spill too.
            let scope = dir.path().to_string_lossy().into_owned();
            chaos.install(FaultPlan::new().on(site, &scope, nth, Fault::IoError));
            let mut fold = MsgFold::<Folding<u64>>::new(
                Some(slot.take()),
                &fm,
                1 << 20,
                msg_tuple_combiner(&program),
            );
            let added = stream.iter().try_for_each(|(d, m)| fold.add(*d, *m));
            assert_eq!(added.is_err(), site == Site::RunWrite);
            if added.is_ok() {
                assert_eq!(temp_runs(&fm), 7);
                let mut emitted = 0;
                let drained = fold.drain(|_| {
                    emitted += 1;
                    Ok(())
                });
                assert!(drained.is_err(), "the fifth frame read back is refused");
                assert_eq!(emitted, 128, "window 0 went out, window 1 never did");
            } else {
                drop(fold);
            }
            chaos.clear();
            assert_eq!(temp_runs(&fm), 0, "{site:?}");
            assert!(slot.table.lock().is_none(), "{site:?}");
            assert_eq!(
                fold_stream(&program, Some(&slot), &stream),
                model(&program, 1000, &stream),
                "{site:?}"
            );
        }
    }

    /// Four sorted inputs with shared, sparse and out-of-range vids, cut
    /// into frames of three tuples: whatever the window, every vid comes out
    /// once, ascending, folded in input order.
    #[test]
    fn fold_sorted_folds_every_vid_in_input_order() {
        let program = Arc::new(Folding::<f64>(|a, b| a + b));
        let streams: Vec<Vec<(Vid, f64)>> = (0..4u64)
            .map(|i| {
                let vids = (0..300).map(|k| k * (i + 2) % 997).chain([5_000 + i, 10_000]);
                let mut vids: Vec<Vid> = vids.collect();
                vids.sort_unstable();
                vids.dedup();
                vids.into_iter().map(|v| (v, (v * 31 + i) as f64 * 1e15 + 0.5)).collect()
            })
            .collect();
        let mut want: BTreeMap<Vid, f64> = BTreeMap::new();
        for stream in &streams {
            for &(v, m) in stream {
                want.entry(v).and_modify(|acc| *acc += m).or_insert(m);
            }
        }
        for window in [64, 128, 1000] {
            let slot = FoldSlot::new(1000, window, true, program.combiner().unwrap());
            let mut inputs: Vec<SortedInput> = streams
                .iter()
                .map(|stream| {
                    let frames = stream.chunks(3).map(|chunk| {
                        let mut frame = Frame::with_capacity(1 << 10);
                        for &(v, m) in chunk {
                            assert!(frame.try_append(&keyed_tuple(v, &encode_msg_list(&[m]))));
                        }
                        frame.freeze_standalone()
                    });
                    SortedInput::frames(frames.collect())
                })
                .collect();
            let mut table = slot.take();
            let mut got = Vec::new();
            let folded = table
                .fold_sorted(&mut inputs, |v, m| {
                    got.push((v, m.to_bits()));
                    Ok(())
                })
                .unwrap();
            assert_eq!(folded, streams.iter().map(Vec::len).sum::<usize>() as u64);
            let want: Vec<(Vid, u64)> = want.iter().map(|(v, m)| (*v, m.to_bits())).collect();
            assert_eq!(got, want, "window {window}");
            assert!(table.present.iter().all(|w| *w == 0), "drained empty");
        }
    }

    /// A receiver folding by address refuses an inbound tuple shorter than
    /// its key, count and message — or one that claims no message — with a
    /// typed `Corrupt`, where the merge's tuple combiner would panic.
    #[test]
    fn a_truncated_inbound_tuple_is_corrupt_not_a_panic() {
        let program = Arc::new(Folding::<u64>(|a, b| *a.min(b)));
        let slot = FoldSlot::new(100, 100, true, program.combiner().unwrap());
        let whole = keyed_tuple(3, &encode_msg_list(&[7u64]));
        let empty = keyed_tuple(3, &0u32.to_le_bytes());
        let mut bad: Vec<&[u8]> = [4, 8, 11, 12, 19].map(|cut| &whole[..cut]).to_vec();
        bad.push(&empty);
        for tuple in bad {
            let mut frame = Frame::with_capacity(1 << 10);
            assert!(frame.try_append(tuple));
            let mut inputs = [SortedInput::frames(vec![frame.freeze_standalone()])];
            let got = slot.take().fold_sorted(&mut inputs, |_, _| Ok(()));
            assert!(
                matches!(got, Err(PregelixError::Corrupt(_))),
                "{} bytes: {got:?}",
                tuple.len()
            );
        }
        // The whole tuple folds.
        let mut frame = Frame::with_capacity(1 << 10);
        assert!(frame.try_append(&whole));
        let mut inputs = [SortedInput::frames(vec![frame.freeze_standalone()])];
        let mut out = Vec::new();
        let folded = slot.take().fold_sorted(&mut inputs, |vid, m| {
            out.push((vid, *m));
            Ok(())
        });
        assert_eq!((folded.unwrap(), out), (1, vec![(3, 7)]));
    }

    /// A report decodes to what was encoded; an empty report, every prefix
    /// of one and one with a byte too many are a typed `Corrupt`, never a
    /// panic.
    #[test]
    fn a_short_or_empty_report_to_gs_is_corrupt_not_a_panic() {
        let corrupt = |t: &[u8]| matches!(Report::from_bytes(t), Err(PregelixError::Corrupt(_)));
        let report = Report {
            live: 3,
            added: 2,
            deleted: 1,
            combined: 42,
            agg: vec![7; 5],
        };
        for report in [report, Report::default()] {
            let mut bytes = report.to_bytes();
            assert_eq!(Report::from_bytes(&bytes).unwrap(), report);
            for cut in 0..bytes.len() {
                assert!(corrupt(&bytes[..cut]), "{report:?} cut to {cut} bytes");
            }
            bytes.push(0);
            assert!(corrupt(&bytes), "{report:?} with a trailing byte");
        }
    }

    /// `mutate`'s merge of a `Vid` run with its changes: adds land in
    /// order, an add of a present vid and a drop of an absent one change
    /// nothing.
    #[test]
    fn merge_vids_adds_and_drops_in_one_ascending_pass() {
        let (fm, dir) = fresh_fm();
        let counters = fm.counters().clone();
        let writer = |name: &str, threshold: usize| {
            RunWriter::create_buffered(dir.path().join(name), counters.clone(), threshold)
        };
        let run_of = |vids: &[Vid], name: &str, threshold: usize| {
            let mut w = writer(name, threshold);
            for &v in vids {
                w.write_tuple(&vid_to_key(v)).unwrap();
            }
            w.finish().unwrap()
        };
        let vids_of = |run: &RunHandle| {
            let mut cur = RunCursor::open(Some(run), &counters).unwrap();
            let mut out = Vec::new();
            while cur.advance().unwrap().is_some() {
                out.push(cur.vid.unwrap());
            }
            out
        };
        let current = run_of(&[2, 4, 6, 8], "vid-a.run", 1 << 20);
        let changes = [(0, true), (1, false), (4, true), (5, true), (6, false), (9, true)];
        let merged = merge_vids(&current, &changes, writer("vid-b.run", 1 << 20), &counters);
        let merged = merged.unwrap();
        assert_eq!(vids_of(&merged), [0, 2, 4, 5, 8, 9]);
        assert!(merged.in_memory());
        // An empty run, no changes: empty.
        let empty = run_of(&[], "vid-c.run", 0);
        let merged = merge_vids(&empty, &[], writer("vid-d.run", 1 << 20), &counters);
        assert!(vids_of(&merged.unwrap()).is_empty());
        // Past the threshold the merge spills to the writer's path.
        let big: Vec<Vid> = (0..5_000).map(|v| v * 2).collect();
        let current = run_of(&big, "vid-e.run", 1 << 20);
        let changes: Vec<(Vid, bool)> = (0..10_000).map(|v| (v, v % 4 != 0)).collect();
        let merged = merge_vids(&current, &changes, writer("vid-f.run", 4096), &counters);
        let merged = merged.unwrap();
        assert_eq!(merged.path(), Some(dir.path().join("vid-f.run").as_path()));
        let want: Vec<Vid> = (0..10_000).filter(|v| v % 4 != 0).collect();
        assert_eq!(vids_of(&merged), want);
    }

    #[test]
    fn fold_combiner_matches_the_byte_pair_combiner_with_a_user_combiner() {
        fold_matches_byte_pair(SumProgram);
    }

    #[test]
    fn fold_combiner_matches_the_byte_pair_combiner_concatenating_lists() {
        fold_matches_byte_pair(NoopProgram);
    }
}
