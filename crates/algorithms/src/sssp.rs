//! Single source shortest paths (Figure 9; §7's message-sparse workload).
//!
//! Only the wavefront of improved vertices is live in any superstep, so
//! the paper's recommended plan hints are the **index left outer join**
//! (probe only the messaged vertices, §5.3.2/§7.5), the HashSort group-by
//! (few distinct destinations), and the non-merging connector — exactly
//! the hints set in Figure 9's `main`.

use pregelix_common::error::Result;
use pregelix_common::Vid;
use pregelix_core::api::{ComputeContext, MessageCombiner, VertexProgram};
use pregelix_core::vertex::{Edge, VertexData};
use std::sync::Arc;

/// The distance value used for unreached vertices.
pub const UNREACHED: f64 = f64::MAX;

/// Single source shortest paths over non-negative edge weights.
pub struct ShortestPaths {
    /// The source vertex id (`pregelix.sssp.sourceId` in Figure 9).
    pub source: Vid,
}

impl ShortestPaths {
    /// SSSP from `source`.
    pub fn new(source: Vid) -> ShortestPaths {
        ShortestPaths { source }
    }
}

impl VertexProgram for ShortestPaths {
    type VertexValue = f64;
    type EdgeValue = f64;
    type Message = f64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 {
            ctx.set_value(UNREACHED);
        }
        let mut min_dist = if ctx.vid() == self.source {
            0.0
        } else {
            UNREACHED
        };
        for m in ctx.messages() {
            min_dist = min_dist.min(*m);
        }
        if min_dist < *ctx.value() {
            ctx.set_value(min_dist);
            for i in 0..ctx.edges().len() {
                let Edge { dest, value: w } = ctx.edges()[i];
                ctx.send_message(dest, min_dist + w);
            }
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            UNREACHED,
            edges.into_iter().map(|(d, w)| Edge::new(d, w)).collect(),
        )
    }

    fn combiner(&self) -> Option<MessageCombiner<f64>> {
        // DoubleMinCombiner from Figure 9.
        Some(Arc::new(|a, b| a.min(*b)))
    }

    fn format_vertex(&self, vid: Vid, value: &f64) -> String {
        if *value == UNREACHED {
            format!("{vid}\tinf")
        } else {
            format!("{vid}\t{value:.4}")
        }
    }
}

/// Reference Dijkstra used to validate distributed results.
pub fn reference_sssp(
    adjacency: &[(Vid, Vec<(Vid, f64)>)],
    source: Vid,
) -> std::collections::HashMap<Vid, f64> {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let adj: HashMap<Vid, &Vec<(Vid, f64)>> =
        adjacency.iter().map(|(v, e)| (*v, e)).collect();
    let mut dist: HashMap<Vid, f64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    // f64 isn't Ord; distances are non-negative so bit order works.
    heap.push(Reverse((0u64, source)));
    dist.insert(source, 0.0);
    while let Some(Reverse((dbits, v))) = heap.pop() {
        let d = f64::from_bits(dbits);
        if d > *dist.get(&v).unwrap_or(&f64::MAX) {
            continue;
        }
        if let Some(edges) = adj.get(&v) {
            for (u, w) in edges.iter() {
                let nd = d + w;
                if nd < *dist.get(u).unwrap_or(&f64::MAX) {
                    dist.insert(*u, nd);
                    heap.push(Reverse((nd.to_bits(), *u)));
                }
            }
        }
    }
    dist
}
