//! Reachability query (§6): which vertices are reachable from a source
//! set. Like SSSP, only a thin wave of vertices is active in any one
//! superstep, so the left-outer join plan is the natural fit.

use pregelix_common::error::Result;
use pregelix_common::Vid;
use pregelix_core::api::{ComputeContext, MessageCombiner, VertexProgram};
use pregelix_core::vertex::{Edge, VertexData};
use std::sync::Arc;

/// Multi-source reachability: value is 1 when reachable, 0 otherwise.
pub struct Reachability {
    /// Source vertices.
    pub sources: Vec<Vid>,
}

impl Reachability {
    /// Reachability from a single source.
    pub fn new(source: Vid) -> Reachability {
        Reachability {
            sources: vec![source],
        }
    }

    /// Reachability from several sources at once.
    pub fn multi(sources: Vec<Vid>) -> Reachability {
        Reachability { sources }
    }
}

impl VertexProgram for Reachability {
    type VertexValue = u8;
    type EdgeValue = ();
    type Message = ();
    type Aggregate = u64;

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let seeded = ctx.superstep() == 1 && self.sources.contains(&ctx.vid());
        let reached = seeded || !ctx.messages().is_empty();
        if reached && *ctx.value() == 0 {
            ctx.set_value(1);
            ctx.send_message_to_all_edges(());
            ctx.aggregate(1);
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            0,
            edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
        )
    }

    fn combiner(&self) -> Option<MessageCombiner<()>> {
        // Any one empty message is as good as many.
        Some(Arc::new(|_, _| ()))
    }

    /// Total newly-reached vertices per superstep (monitoring).
    fn combine_aggregates(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Reference BFS reachability.
pub fn reference_reachable(
    adjacency: &[(Vid, Vec<Vid>)],
    sources: &[Vid],
) -> std::collections::HashSet<Vid> {
    use std::collections::{HashMap, HashSet, VecDeque};
    let adj: HashMap<Vid, &Vec<Vid>> = adjacency.iter().map(|(v, e)| (*v, e)).collect();
    let mut seen: HashSet<Vid> = sources.iter().copied().collect();
    let mut queue: VecDeque<Vid> = sources.iter().copied().collect();
    while let Some(v) = queue.pop_front() {
        if let Some(edges) = adj.get(&v) {
            for u in edges.iter() {
                if seen.insert(*u) {
                    queue.push_back(*u);
                }
            }
        }
    }
    seen
}
