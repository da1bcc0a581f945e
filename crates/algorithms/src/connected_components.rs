//! Connected components by minimum-label propagation (§7's CC workload).
//!
//! Expects an undirected graph encoded as symmetric directed edges (the
//! BTC-style inputs from `pregelix-graphgen` are symmetric). Execution
//! "starts with many messages, but the message volume decreases
//! significantly in its last few supersteps" (§7.5), which is why the two
//! join plans end up performing similarly for CC.

use pregelix_common::error::Result;
use pregelix_common::Vid;
use pregelix_core::api::{ComputeContext, MessageCombiner, VertexProgram};
use pregelix_core::vertex::{Edge, VertexData};
use std::sync::Arc;

/// Min-label connected components.
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let mut min_label = if ctx.superstep() == 1 {
            ctx.vid()
        } else {
            *ctx.value()
        };
        for m in ctx.messages() {
            min_label = min_label.min(*m);
        }
        let changed = ctx.superstep() == 1 || min_label < *ctx.value();
        if changed {
            ctx.set_value(min_label);
            ctx.send_message_to_all_edges(min_label);
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            vid,
            edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
        )
    }

    fn combiner(&self) -> Option<MessageCombiner<u64>> {
        Some(Arc::new(|a, b| *a.min(b)))
    }
}

/// Reference union-find components used to validate distributed results:
/// maps every vid to the minimum vid of its component.
pub fn reference_components(
    adjacency: &[(Vid, Vec<Vid>)],
) -> std::collections::HashMap<Vid, Vid> {
    use std::collections::HashMap;
    let mut parent: HashMap<Vid, Vid> = HashMap::new();
    fn find(parent: &mut HashMap<Vid, Vid>, v: Vid) -> Vid {
        let p = *parent.entry(v).or_insert(v);
        if p == v {
            return v;
        }
        let root = find(parent, p);
        parent.insert(v, root);
        root
    }
    for (v, edges) in adjacency {
        for u in edges {
            let rv = find(&mut parent, *v);
            let ru = find(&mut parent, *u);
            if rv != ru {
                // Union by smaller vid so the root is the min label.
                let (lo, hi) = if rv < ru { (rv, ru) } else { (ru, rv) };
                parent.insert(hi, lo);
            }
        }
    }
    let keys: Vec<Vid> = adjacency.iter().map(|(v, _)| *v).collect();
    keys.into_iter()
        .map(|v| {
            let root = find(&mut parent, v);
            (v, root)
        })
        .collect()
}
