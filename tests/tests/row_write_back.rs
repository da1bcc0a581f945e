//! Writing a `compute` result back at the row cursor (§5.3.2, flow D2): the
//! head-only overwrite is taken only when it is sound, and every other shape
//! of update — edge list rewritten (`edges_dirty`), head resized under an
//! untouched edge list, rows growing across the B-tree's inline limit into
//! overflow chains and shrinking back — falls back to a whole-row write and
//! stays correct, under both joins.

use pregelix::common::error::Result;
use pregelix::common::Vid;
use pregelix::core::api::{ComputeContext, VertexProgram};
use pregelix::prelude::*;
use std::sync::Arc;

const SUPERSTEPS: u64 = 8;

/// What vertex `vid` does to its row in superstep `s`; the same schedule
/// drives the program and the expected state.
fn step(vid: Vid, s: u64, value: &mut String, edges: &mut Vec<Vid>) {
    match (vid + s) % 4 {
        // Grow the edge list: a few supersteps of this cross the inline
        // limit of a 512-byte page (about a dozen edges).
        0 => edges.extend((0..5 * s).map(|i| vid + i)),
        // Drop it: an overflowing row shrinks back inline.
        1 => edges.clear(),
        // Resize the head (longer or shorter), leave the edges alone.
        2 if s.is_multiple_of(2) => value.push_str(&"x".repeat(s as usize)),
        2 => value.truncate(1),
        // Same-length head: the in-slot overwrite.
        _ => *value = value.chars().rev().collect(),
    }
}

struct Churn;

impl VertexProgram for Churn {
    type VertexValue = String;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let (vid, s) = (ctx.vid(), ctx.superstep());
        let mut value = ctx.value().clone();
        let mut edges: Vec<Vid> = ctx.edges().iter().map(|e| e.dest).collect();
        let had = edges.len();
        step(vid, s, &mut value, &mut edges);
        ctx.set_value(value);
        if edges.is_empty() && had > 0 {
            ctx.set_edges(Vec::new());
        }
        for dest in edges.into_iter().skip(had) {
            ctx.add_edge(dest, ());
        }
        if s < SUPERSTEPS {
            // Keeps every vertex live under the left-outer plan too.
            ctx.send_message((vid + 1) % 200, s);
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            format!("v{vid}"),
            edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
        )
    }
}

#[test]
fn resized_rows_and_dirty_edge_lists_take_the_fallback_and_stay_correct() {
    let records: Vec<(Vid, Vec<(Vid, f64)>)> =
        (0..200).map(|v| (v, vec![((v + 7) % 200, 1.0)])).collect();
    let expected: Vec<(Vid, String, Vec<Vid>)> = (0..200)
        .map(|v| {
            let (mut value, mut edges) = (format!("v{v}"), vec![(v + 7) % 200]);
            for s in 1..=SUPERSTEPS {
                step(v, s, &mut value, &mut edges);
            }
            (v, value, edges)
        })
        .collect();
    assert!(
        expected.iter().any(|(_, _, e)| e.len() > 30)
            && expected.iter().any(|(_, _, e)| e.is_empty()),
        "the schedule must leave both overflowing and emptied rows"
    );
    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let mut config = ClusterConfig::new(2, 8 << 20);
        config.page_size = 512;
        let cluster = Cluster::new(config).unwrap();
        let plan = PlanConfig {
            join,
            ..PlanConfig::default()
        };
        let job = PregelixJob::new(format!("churn-{}", plan.label())).with_plan(plan);
        let (summary, graph) =
            run_job_from_records(&cluster, &Arc::new(Churn), &job, records.clone()).unwrap();
        assert_eq!(summary.supersteps, SUPERSTEPS, "{}", plan.label());
        let got: Vec<(Vid, String, Vec<Vid>)> = graph
            .collect_vertices::<Churn>()
            .unwrap()
            .into_iter()
            .map(|v| (v.vid, v.value, v.edges.iter().map(|e| e.dest).collect()))
            .collect();
        assert_eq!(got, expected, "{}", plan.label());
    }
}
