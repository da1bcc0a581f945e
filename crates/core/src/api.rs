//! The user-facing Pregel API.
//!
//! A graph algorithm is a type implementing [`VertexProgram`], which
//! packages the four UDFs of Table 2:
//!
//! | UDF | Here |
//! |---|---|
//! | `compute`   | [`VertexProgram::compute`], called at each active vertex every superstep |
//! | `combine`   | [`VertexProgram::combiner`], pre-aggregates messages per destination |
//! | `aggregate` | [`VertexProgram::combine_aggregates`] over per-vertex contributions |
//! | `resolve`   | [`VertexProgram::resolve`], reconciles conflicting graph mutations |
//!
//! `compute` receives a [`ComputeContext`] — the moral equivalent of the
//! `Vertex` base class in the Java API (Figure 9) — through which it reads
//! its messages, mutates its value and edges, sends messages, contributes
//! to the global aggregate, mutates the graph, and votes to halt.

use crate::vertex::{Edge, VertexData};
use pregelix_common::error::Result;
use pregelix_common::writable::Writable;
use pregelix_common::{Superstep, Vid};
use std::fmt::Debug;
use std::sync::Arc;

/// A message combiner: an associative, commutative reduction of two
/// messages bound for the same destination (§2.1).
pub type MessageCombiner<M> = Arc<dyn Fn(&M, &M) -> M + Send + Sync>;

/// A graph mutation emitted by `compute` (Figure 5's flow D6).
pub enum Mutation<P: VertexProgram> {
    /// Add (or re-add) a vertex.
    Insert(VertexData<P>),
    /// Remove a vertex. Application-specific integrity (e.g. dangling
    /// edges) is left to the program, per the paper (footnote 5).
    Delete,
}

/// What `resolve` decided for one vid's batch of conflicting mutations.
pub enum Resolution<P: VertexProgram> {
    /// The vertex ends up existing with this data (it is *active* next
    /// superstep).
    Insert(VertexData<P>),
    /// The vertex ends up deleted.
    Delete,
    /// Leave the vertex as it was.
    Keep,
}

impl<P: VertexProgram> Clone for Mutation<P>
where
    P::VertexValue: Clone,
    P::EdgeValue: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Mutation::Insert(v) => Mutation::Insert(v.clone()),
            Mutation::Delete => Mutation::Delete,
        }
    }
}

impl<P: VertexProgram> std::fmt::Debug for Mutation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Insert(v) => write!(f, "Insert({})", v.vid),
            Mutation::Delete => write!(f, "Delete"),
        }
    }
}

impl<P: VertexProgram> std::fmt::Debug for Resolution<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resolution::Insert(v) => write!(f, "Insert({})", v.vid),
            Resolution::Delete => write!(f, "Delete"),
            Resolution::Keep => write!(f, "Keep"),
        }
    }
}

/// A Pregel program: the element type bundle plus the four UDFs.
pub trait VertexProgram: Send + Sync + Sized + 'static {
    /// Mutable per-vertex value.
    type VertexValue: Writable + Default + Debug + PartialEq;
    /// Mutable per-edge value.
    type EdgeValue: Writable + Debug + PartialEq;
    /// Message payload.
    type Message: Writable + Debug;
    /// Global-aggregate value (use `()` when unused).
    type Aggregate: Writable + Default + Debug;

    /// Executed at each active vertex in every superstep (Table 2).
    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()>;

    /// Build the initial vertex from an input adjacency record
    /// (the `VertexInputFormat` role from the Java API).
    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self>;

    /// The message combiner, if any. `None` (the default) gathers all
    /// messages for a destination into a list.
    fn combiner(&self) -> Option<MessageCombiner<Self::Message>> {
        None
    }

    /// Fold one aggregate contribution into another. Must be associative
    /// and commutative; the runtime applies it within partitions (stage
    /// one) and across partitions (stage two), §5.3.3.
    fn combine_aggregates(
        &self,
        _a: Self::Aggregate,
        _b: Self::Aggregate,
    ) -> Self::Aggregate {
        Self::Aggregate::default()
    }

    /// Resolve a vid's conflicting mutations. The default applies the
    /// paper's partial order — all deletions before insertions — and lets
    /// the last insertion win.
    fn resolve(&self, _vid: Vid, mutations: Vec<Mutation<Self>>) -> Resolution<Self> {
        let mut delete = false;
        let mut last_insert = None;
        for m in mutations {
            match m {
                Mutation::Delete => delete = true,
                Mutation::Insert(v) => last_insert = Some(v),
            }
        }
        match (delete, last_insert) {
            (_, Some(v)) => Resolution::Insert(v),
            (true, None) => Resolution::Delete,
            (false, None) => Resolution::Keep,
        }
    }

    /// Render a vertex for text output (the `VertexOutputFormat` role).
    fn format_vertex(&self, vid: Vid, value: &Self::VertexValue) -> String {
        format!("{vid}\t{value:?}")
    }
}

/// The state handed to [`VertexProgram::compute`] for one vertex, plus the
/// output flows it feeds (messages D3, halt contribution D4, aggregate D5,
/// mutations D6, updated vertex D2).
pub struct ComputeContext<'a, P: VertexProgram> {
    pub(crate) vid: Vid,
    pub(crate) value: P::VertexValue,
    pub(crate) edges: Vec<Edge<P::EdgeValue>>,
    pub(crate) messages: &'a [P::Message],
    pub(crate) superstep: Superstep,
    pub(crate) num_vertices: u64,
    pub(crate) global_agg: &'a P::Aggregate,
    pub(crate) voted_halt: bool,
    pub(crate) out: OutputBuffers<P>,
    pub(crate) edges_dirty: bool,
}

/// The vectors one `compute` call fills (messages D3, aggregate
/// contributions D5, mutations D6). The runtime hands the same, emptied
/// vectors to every call of a partition's superstep, so a call that stays
/// within their capacity allocates nothing.
pub(crate) struct OutputBuffers<P: VertexProgram> {
    pub messages: Vec<(Vid, P::Message)>,
    pub agg: Vec<P::Aggregate>,
    pub mutations: Vec<(Vid, Mutation<P>)>,
}

impl<P: VertexProgram> Default for OutputBuffers<P> {
    fn default() -> Self {
        OutputBuffers {
            messages: Vec::new(),
            agg: Vec::new(),
            mutations: Vec::new(),
        }
    }
}

impl<'a, P: VertexProgram> ComputeContext<'a, P> {
    pub(crate) fn new(
        vertex: VertexData<P>,
        messages: &'a [P::Message],
        superstep: Superstep,
        num_vertices: u64,
        global_agg: &'a P::Aggregate,
        out: OutputBuffers<P>,
    ) -> Self {
        ComputeContext {
            vid: vertex.vid,
            value: vertex.value,
            edges: vertex.edges,
            messages,
            superstep,
            num_vertices,
            global_agg,
            voted_halt: false,
            out,
            edges_dirty: false,
        }
    }

    /// This vertex's id.
    pub fn vid(&self) -> Vid {
        self.vid
    }

    /// The current superstep (1-based).
    pub fn superstep(&self) -> Superstep {
        self.superstep
    }

    /// Total vertices in the graph as of the previous superstep boundary.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Messages delivered to this vertex (sent at the end of superstep
    /// S−1).
    pub fn messages(&self) -> &[P::Message] {
        self.messages
    }

    /// The global aggregate computed in the previous superstep.
    pub fn global_aggregate(&self) -> &P::Aggregate {
        self.global_agg
    }

    /// Read the vertex value.
    pub fn value(&self) -> &P::VertexValue {
        &self.value
    }

    /// Overwrite the vertex value.
    pub fn set_value(&mut self, v: P::VertexValue) {
        self.value = v;
    }

    /// Mutably borrow the vertex value.
    pub fn value_mut(&mut self) -> &mut P::VertexValue {
        &mut self.value
    }

    /// This vertex's outgoing edges.
    pub fn edges(&self) -> &[Edge<P::EdgeValue>] {
        &self.edges
    }

    /// Replace the outgoing edge list.
    pub fn set_edges(&mut self, edges: Vec<Edge<P::EdgeValue>>) {
        self.edges = edges;
        self.edges_dirty = true;
    }

    /// Append an outgoing edge.
    pub fn add_edge(&mut self, dest: Vid, value: P::EdgeValue) {
        self.edges.push(Edge { dest, value });
        self.edges_dirty = true;
    }

    /// Remove all outgoing edges to `dest`. Returns how many were removed.
    pub fn remove_edges_to(&mut self, dest: Vid) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| e.dest != dest);
        let removed = before - self.edges.len();
        if removed > 0 {
            self.edges_dirty = true;
        }
        removed
    }

    /// Send a message to `dest`, delivered at superstep S+1. Sending a
    /// message reactivates a halted destination (§2.1).
    pub fn send_message(&mut self, dest: Vid, msg: P::Message) {
        self.out.messages.push((dest, msg));
    }

    /// Send `msg` along every outgoing edge.
    pub fn send_message_to_all_edges(&mut self, msg: P::Message)
    where
        P::Message: Clone,
    {
        for i in 0..self.edges.len() {
            let dest = self.edges[i].dest;
            self.out.messages.push((dest, msg.clone()));
        }
    }

    /// Contribute to the global aggregate for the next superstep.
    /// Contributions are folded with
    /// [`VertexProgram::combine_aggregates`] by the runtime, within the
    /// partition first and then across partitions (the two-stage strategy
    /// of §5.3.3).
    pub fn aggregate(&mut self, contribution: P::Aggregate) {
        self.out.agg.push(contribution);
    }

    /// Request creation of a vertex (takes effect next superstep, after
    /// `resolve`).
    pub fn add_vertex(&mut self, vertex: VertexData<P>) {
        self.out.mutations.push((vertex.vid, Mutation::Insert(vertex)));
    }

    /// Request deletion of a vertex (takes effect next superstep, after
    /// `resolve`).
    pub fn delete_vertex(&mut self, vid: Vid) {
        self.out.mutations.push((vid, Mutation::Delete));
    }

    /// Vote to halt: deactivate this vertex until a message arrives.
    pub fn vote_to_halt(&mut self) {
        self.voted_halt = true;
    }
}

impl<P: VertexProgram> ComputeContext<'_, P> {
    /// Runtime hook: the outputs of one `compute` call.
    pub(crate) fn into_outputs(self) -> ComputeOutputs<P> {
        ComputeOutputs {
            vertex: VertexData {
                vid: self.vid,
                halt: self.voted_halt,
                value: self.value,
                edges: self.edges,
            },
            edges_dirty: self.edges_dirty,
            buffers: self.out,
        }
    }
}

/// Everything one `compute` call produced (the fields of the compute output
/// tuple described in §3).
pub(crate) struct ComputeOutputs<P: VertexProgram> {
    pub vertex: VertexData<P>,
    /// Whether the call changed the edge list (else only the row's head,
    /// `halt | value`, needs writing back).
    pub edges_dirty: bool,
    /// The output vectors the call was lent, filled.
    pub buffers: OutputBuffers<P>,
}

/// Minimal programs and program adapters used by tests and harnesses.
#[doc(hidden)]
pub mod tests_support {
    use super::*;

    /// A do-nothing program over `f64` values/edges/messages.
    pub struct NoopProgram;

    impl VertexProgram for NoopProgram {
        type VertexValue = f64;
        type EdgeValue = f64;
        type Message = f64;
        type Aggregate = ();

        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            ctx.vote_to_halt();
            Ok(())
        }

        fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
            VertexData::new(
                vid,
                0.0,
                edges.into_iter().map(|(d, w)| Edge::new(d, w)).collect(),
            )
        }
    }

    /// `M` on the wire, byte for byte, but with no declared
    /// [`Writable::FIXED_WIDTH`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct NoWidth<M>(pub M);

    impl<M: Writable> Writable for NoWidth<M> {
        fn write(&self, out: &mut Vec<u8>) {
            self.0.write(out);
        }

        fn read(buf: &mut &[u8]) -> Result<Self> {
            M::read(buf).map(NoWidth)
        }
    }

    /// `P` with every message wrapped in [`NoWidth`]: the same program, the
    /// same bytes everywhere, but never eligible for the sender-side fold
    /// table — a message type's width is the only opt-out there is, so this
    /// is how tests and the Fig. 7 harness put a combining program on the
    /// sort path.
    pub struct SortPath<P>(pub P);

    fn rewrap<A: VertexProgram, B>(v: VertexData<A>) -> VertexData<B>
    where
        B: VertexProgram<VertexValue = A::VertexValue, EdgeValue = A::EdgeValue>,
    {
        VertexData {
            vid: v.vid,
            halt: v.halt,
            value: v.value,
            edges: v.edges,
        }
    }

    impl<P: VertexProgram> VertexProgram for SortPath<P> {
        type VertexValue = P::VertexValue;
        type EdgeValue = P::EdgeValue;
        type Message = NoWidth<P::Message>;
        type Aggregate = P::Aggregate;

        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            let messages: Vec<P::Message> = ctx.messages.iter().map(|m| m.0.clone()).collect();
            let mut inner = ComputeContext::<P>::new(
                VertexData {
                    vid: ctx.vid,
                    halt: false,
                    value: std::mem::take(&mut ctx.value),
                    edges: std::mem::take(&mut ctx.edges),
                },
                &messages,
                ctx.superstep,
                ctx.num_vertices,
                ctx.global_agg,
                OutputBuffers::default(),
            );
            self.0.compute(&mut inner)?;
            let done = inner.into_outputs();
            ctx.value = done.vertex.value;
            ctx.edges = done.vertex.edges;
            ctx.voted_halt = done.vertex.halt;
            ctx.edges_dirty = done.edges_dirty;
            let out = done.buffers;
            ctx.out
                .messages
                .extend(out.messages.into_iter().map(|(d, m)| (d, NoWidth(m))));
            ctx.out.agg.extend(out.agg);
            ctx.out
                .mutations
                .extend(out.mutations.into_iter().map(|(v, m)| {
                    let m = match m {
                        Mutation::Insert(data) => Mutation::Insert(rewrap(data)),
                        Mutation::Delete => Mutation::Delete,
                    };
                    (v, m)
                }));
            Ok(())
        }

        fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
            rewrap(self.0.init_vertex(vid, edges))
        }

        fn combiner(&self) -> Option<MessageCombiner<Self::Message>> {
            let inner = self.0.combiner()?;
            Some(Arc::new(move |a, b| NoWidth(inner(&a.0, &b.0))))
        }

        fn combine_aggregates(&self, a: Self::Aggregate, b: Self::Aggregate) -> Self::Aggregate {
            self.0.combine_aggregates(a, b)
        }

        fn resolve(&self, vid: Vid, mutations: Vec<Mutation<Self>>) -> Resolution<Self> {
            let inner = mutations
                .into_iter()
                .map(|m| match m {
                    Mutation::Insert(data) => Mutation::Insert(rewrap(data)),
                    Mutation::Delete => Mutation::Delete,
                })
                .collect();
            match self.0.resolve(vid, inner) {
                Resolution::Insert(data) => Resolution::Insert(rewrap(data)),
                Resolution::Delete => Resolution::Delete,
                Resolution::Keep => Resolution::Keep,
            }
        }

        fn format_vertex(&self, vid: Vid, value: &Self::VertexValue) -> String {
            self.0.format_vertex(vid, value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::NoopProgram;
    use super::*;

    fn ctx<'a>(
        vertex: VertexData<NoopProgram>,
        msgs: &'a [f64],
        agg: &'a (),
    ) -> ComputeContext<'a, NoopProgram> {
        ComputeContext::new(vertex, msgs, 3, 100, agg, OutputBuffers::default())
    }

    #[test]
    fn context_exposes_state() {
        let v = VertexData::new(5, 1.5, vec![Edge::new(7, 0.1)]);
        let msgs = [2.0, 4.0];
        let c = ctx(v, &msgs, &());
        assert_eq!(c.vid(), 5);
        assert_eq!(c.superstep(), 3);
        assert_eq!(c.num_vertices(), 100);
        assert_eq!(c.messages(), &[2.0, 4.0]);
        assert_eq!(*c.value(), 1.5);
        assert_eq!(c.edges().len(), 1);
    }

    #[test]
    fn outputs_capture_mutated_state() {
        let v = VertexData::new(5, 0.0, vec![]);
        let msgs: [f64; 0] = [];
        let mut c = ctx(v, &msgs, &());
        c.set_value(9.0);
        c.add_edge(8, 0.5);
        c.send_message(8, 1.25);
        c.send_message(9, 2.5);
        c.vote_to_halt();
        c.delete_vertex(99);
        let out = c.into_outputs();
        assert!(out.vertex.halt);
        assert_eq!(out.vertex.value, 9.0);
        assert_eq!(out.vertex.edges.len(), 1);
        assert!(out.edges_dirty);
        assert_eq!(out.buffers.messages.len(), 2);
        assert_eq!(out.buffers.mutations.len(), 1);
    }

    #[test]
    fn send_to_all_edges() {
        let v = VertexData::new(
            1,
            0.0,
            vec![Edge::new(2, 0.0), Edge::new(3, 0.0), Edge::new(4, 0.0)],
        );
        let msgs: [f64; 0] = [];
        let mut c = ctx(v, &msgs, &());
        c.send_message_to_all_edges(7.0);
        let out = c.into_outputs();
        let dests: Vec<Vid> = out.buffers.messages.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![2, 3, 4]);
    }

    #[test]
    fn edge_removal_marks_dirty() {
        let v = VertexData::new(1, 0.0, vec![Edge::new(2, 0.0), Edge::new(2, 1.0)]);
        let msgs: [f64; 0] = [];
        let mut c = ctx(v, &msgs, &());
        assert_eq!(c.remove_edges_to(2), 2);
        assert_eq!(c.remove_edges_to(5), 0);
        assert!(c.edges().is_empty());
    }

    #[test]
    fn default_resolve_applies_delete_before_insert() {
        let p = NoopProgram;
        let ins = VertexData::new(1, 3.0, vec![]);
        // delete + insert => insert wins (deletions first, then insertions)
        match p.resolve(
            1,
            vec![Mutation::Delete, Mutation::Insert(ins.clone())],
        ) {
            Resolution::Insert(v) => assert_eq!(v.value, 3.0),
            other => panic!("expected insert, got {other:?}"),
        }
        match p.resolve(1, vec![Mutation::Delete]) {
            Resolution::Delete => {}
            other => panic!("expected delete, got {other:?}"),
        }
        match p.resolve(1, vec![]) {
            Resolution::Keep => {}
            other => panic!("expected keep, got {other:?}"),
        }
    }
}
