//! De-Bruijn-style path merging (§6, the Genomix genome-assembly case
//! study): "merges available single paths into vertices iteratively until
//! all vertices can be merged to a single (gigantic) genome sequence".
//!
//! This is the workload that exercises Pregelix's graph-mutation support
//! (`add_vertex`/`delete_vertex` + the `resolve` UDF) and that §5.2 gives
//! an LSM B-tree for: vertex values (sequences) grow drastically from
//! superstep to superstep and vertices are deleted in bulk. Here it runs on
//! the B-tree, which beat the LSM B-tree on it (EXPERIMENTS.md §"One vertex
//! store").
//!
//! Protocol: rounds of three supersteps.
//!
//! 1. **Ping** — every vertex tells its out-neighbours it exists, so each
//!    vertex can compute its in-degree and unique predecessor.
//! 2. **Offer** — a vertex `v` with in-degree 1 and predecessor `p`
//!    *offers* itself (sequence + out-edges) to `p`, but only when the
//!    round's deterministic coin assigns `v` the Sender role and `p` the
//!    Receiver role (the parity trick from the Velvet-style merging \[45\]
//!    that prevents chains from merging into themselves concurrently).
//!    The offer count feeds the global aggregate.
//! 3. **Merge** — `p` accepts the offer if its single out-edge indeed
//!    points at the offerer: it concatenates the sequence, adopts the
//!    offerer's out-edges, and issues `delete_vertex(offerer)`. When the
//!    previous phase produced zero *potential* merges, every vertex votes
//!    to halt and the job terminates.

use pregelix_common::error::Result;
use pregelix_common::Vid;
use pregelix_core::api::{ComputeContext, VertexProgram};
use pregelix_core::vertex::{Edge, VertexData};

/// Path merging over chain-structured (De-Bruijn-like) graphs.
pub struct PathMerge {
    /// Seed for the per-round role coin.
    pub seed: u64,
}

impl Default for PathMerge {
    fn default() -> Self {
        PathMerge { seed: 42 }
    }
}

/// Message tags.
const PING: u8 = 0;
const OFFER: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Sender,
    Receiver,
}

impl PathMerge {
    fn role(&self, vid: Vid, round: u64) -> Role {
        let mut x = vid ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.seed;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        // Decide on a *high* bit: the low bit of a multiplicative hash is
        // poorly mixed (odd × odd preserves bit 0), which would correlate
        // the roles of same-parity vids across every round and deadlock
        // their merge forever.
        if (x >> 47) & 1 == 0 {
            Role::Sender
        } else {
            Role::Receiver
        }
    }
}

impl VertexProgram for PathMerge {
    /// The assembled sequence fragment.
    type VertexValue = String;
    type EdgeValue = ();
    /// `(tag, sender, (sequence, out-edge destinations))`.
    type Message = (u8, u64, (String, Vec<u64>));
    /// Phase 2: potential merges; phase 3: accepted merges.
    type Aggregate = u64;

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let ss = ctx.superstep();
        let phase = (ss - 1) % 3;
        let round = (ss - 1) / 3;
        match phase {
            0 => {
                // Ping out-neighbours; initialise the sequence on round 0.
                if ss == 1 && ctx.value().is_empty() {
                    let seq = format!("[{}]", ctx.vid());
                    ctx.set_value(seq);
                }
                let me = ctx.vid();
                for i in 0..ctx.edges().len() {
                    let dest = ctx.edges()[i].dest;
                    ctx.send_message(dest, (PING, me, (String::new(), Vec::new())));
                }
            }
            1 => {
                // Compute in-degree; offer myself to a unique predecessor
                // when the round's coin allows.
                let pings: Vec<Vid> = ctx
                    .messages()
                    .iter()
                    .filter(|(t, _, _)| *t == PING)
                    .map(|(_, s, _)| *s)
                    .collect();
                if pings.len() == 1 && pings[0] != ctx.vid() {
                    let pred = pings[0];
                    ctx.aggregate(1); // potential merge exists
                    if self.role(ctx.vid(), round) == Role::Sender
                        && self.role(pred, round) == Role::Receiver
                    {
                        let seq = ctx.value().clone();
                        let dests: Vec<u64> =
                            ctx.edges().iter().map(|e| e.dest).collect();
                        ctx.send_message(pred, (OFFER, ctx.vid(), (seq, dests)));
                    }
                }
            }
            _ => {
                // Accept a valid offer; terminate when the graph had no
                // potential merges in the previous phase.
                let potential = *ctx.global_aggregate();
                let my_succ = if ctx.edges().len() == 1 {
                    Some(ctx.edges()[0].dest)
                } else {
                    None
                };
                let offer = ctx
                    .messages()
                    .iter()
                    .find(|(t, sender, _)| *t == OFFER && Some(*sender) == my_succ)
                    .cloned();
                if let Some((_, sender, (seq, dests))) = offer {
                    let merged = format!("{}{}", ctx.value(), seq);
                    ctx.set_value(merged);
                    ctx.set_edges(dests.into_iter().map(|d| Edge::new(d, ())).collect());
                    ctx.delete_vertex(sender);
                    ctx.aggregate(1);
                }
                if potential == 0 {
                    ctx.vote_to_halt();
                }
            }
        }
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            String::new(),
            edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
        )
    }

    fn combine_aggregates(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn format_vertex(&self, vid: Vid, value: &String) -> String {
        format!("{vid}\t{value}")
    }
}
