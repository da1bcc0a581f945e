//! Graph mutation semantics (§2.1, §5.3.3, Figure 5): vertex
//! addition/removal through `compute`, conflict resolution via `resolve`,
//! and message-driven vertex creation (the join's left-outer case).

use pregelix::common::error::Result;
use pregelix::common::Vid;
use pregelix::core::api::{ComputeContext, MessageCombiner, Mutation, Resolution, VertexProgram};
use pregelix::prelude::*;
use std::sync::Arc;

/// Superstep 1: even vertices insert a live shadow vertex (vid + 1000) and
/// odd vertices delete themselves. A shadow's one `compute` adds 100 times
/// its superstep to the value it was inserted with. Everyone halts.
struct Mutator;

impl VertexProgram for Mutator {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 {
            if ctx.vid() % 2 == 0 {
                ctx.add_vertex(VertexData::new(ctx.vid() + 1000, ctx.vid(), vec![]));
            } else {
                ctx.delete_vertex(ctx.vid());
            }
        }
        if ctx.vid() >= 1000 {
            *ctx.value_mut() += 100 * ctx.superstep();
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
}

/// Under every join plan: a tracked plan's `mutate` adds each live shadow
/// to the `Vid` run, or its superstep-2 `compute` would never run.
#[test]
fn inserts_and_deletes_apply_at_the_next_superstep() {
    for join in [
        JoinStrategy::FullOuter,
        JoinStrategy::LeftOuter,
        JoinStrategy::Adaptive,
    ] {
        let records: Vec<(Vid, Vec<(Vid, f64)>)> = (0..10).map(|v| (v, vec![])).collect();
        let cluster = Cluster::new(ClusterConfig::new(3, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("mutate-{join:?}")).with_join(join);
        let (summary, graph) =
            run_job_from_records(&cluster, &Arc::new(Mutator), &job, records).unwrap();
        let vertices = graph.collect_vertices::<Mutator>().unwrap();
        let vids: Vec<Vid> = vertices.iter().map(|v| v.vid).collect();
        // Evens stay (0,2,4,6,8), odds deleted, shadows created.
        assert_eq!(
            vids,
            vec![0, 2, 4, 6, 8, 1000, 1002, 1004, 1006, 1008],
            "{join:?}"
        );
        assert_eq!(summary.final_gs.vertex_count, 10, "{join:?}");
        for v in &vertices {
            // Shadows carry the inserting vertex's value, and ran `compute`
            // in superstep 2.
            let want = if v.vid >= 1000 { v.vid - 1000 + 200 } else { v.vid };
            assert_eq!(v.value, want, "{join:?} vid {}", v.vid);
        }
    }
}

/// Conflicting insertions of the same vid from two different vertices,
/// with a custom `resolve` that keeps the largest value.
struct ConflictInsert;

impl VertexProgram for ConflictInsert {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 && ctx.vid() < 4 {
            // Everyone tries to create vid 99 with their own value.
            ctx.add_vertex(VertexData::new(99, ctx.vid() * 10, vec![]));
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(vid, 0, vec![])
    }

    fn resolve(&self, vid: Vid, mutations: Vec<Mutation<Self>>) -> Resolution<Self> {
        let best = mutations
            .into_iter()
            .filter_map(|m| match m {
                Mutation::Insert(v) => Some(v),
                Mutation::Delete => None,
            })
            .max_by_key(|v| v.value);
        match best {
            Some(v) => {
                assert_eq!(v.vid, vid);
                Resolution::Insert(v)
            }
            None => Resolution::Keep,
        }
    }
}

#[test]
fn custom_resolve_picks_a_winner_among_conflicts() {
    let records: Vec<(Vid, Vec<(Vid, f64)>)> = (0..4).map(|v| (v, vec![])).collect();
    let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
    let job = PregelixJob::new("conflict");
    let (_s, graph) =
        run_job_from_records(&cluster, &Arc::new(ConflictInsert), &job, records).unwrap();
    let vertices = graph.collect_vertices::<ConflictInsert>().unwrap();
    let v99 = vertices.iter().find(|v| v.vid == 99).expect("created");
    assert_eq!(v99.value, 30, "largest proposed value wins");
    assert_eq!(vertices.len(), 5);
}

/// Messages to nonexistent vertices create them (the left-outer case of
/// the message join, §3).
struct Spawner;

impl VertexProgram for Spawner {
    type VertexValue = f64;
    type EdgeValue = ();
    type Message = f64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 {
            // Send to a vid that has no Vertex row.
            ctx.send_message(ctx.vid() + 500, 1.25);
        } else {
            let sum: f64 = ctx.messages().iter().sum();
            if sum > 0.0 {
                ctx.set_value(sum);
            }
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(vid, 0.0, vec![])
    }
}

#[test]
fn messages_to_missing_vertices_create_them_on_both_join_plans() {
    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let records: Vec<(Vid, Vec<(Vid, f64)>)> = (0..6).map(|v| (v, vec![])).collect();
        let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("spawn-{join:?}")).with_join(join);
        let (summary, graph) =
            run_job_from_records(&cluster, &Arc::new(Spawner), &job, records).unwrap();
        let vertices = graph.collect_vertices::<Spawner>().unwrap();
        assert_eq!(vertices.len(), 12, "{join:?}");
        assert_eq!(summary.final_gs.vertex_count, 12, "{join:?}");
        for v in vertices.iter().filter(|v| v.vid >= 500) {
            assert_eq!(v.value, 1.25, "{join:?} vid {}", v.vid);
        }
    }
}

/// A sum-combining program whose messages leave the vid range the graph
/// was loaded with (0..10, so the sender-side fold table has ten slots).
/// Superstep 1: every loaded vertex inserts a shadow at vid + 1000, writes to
/// the never-created vid + 2000, and to its ring neighbour. Superstep 2:
/// every loaded vertex sends two messages to its shadow, which now exists.
struct AboveHi;

impl VertexProgram for AboveHi {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        let vid = ctx.vid();
        if vid < 10 && ctx.superstep() <= 2 {
            ctx.send_message((vid + 1) % 10, 1);
            if ctx.superstep() == 1 {
                ctx.add_vertex(VertexData::new(vid + 1000, 0, vec![]));
                ctx.send_message(vid + 2000, 7);
            } else {
                ctx.send_message(vid + 1000, vid);
                ctx.send_message(vid + 1000, 100);
            }
        }
        let sum: u64 = ctx.messages().iter().sum();
        *ctx.value_mut() += sum;
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
        VertexData::new(vid, 0, vec![])
    }

    fn combiner(&self) -> Option<MessageCombiner<u64>> {
        Some(Arc::new(|a, b| a + b))
    }
}

#[test]
fn vertices_above_the_fold_tables_range_send_and_receive_like_any_other() {
    for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
        let records: Vec<(Vid, Vec<(Vid, f64)>)> = (0..10).map(|v| (v, vec![])).collect();
        let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("above-hi-{join:?}")).with_join(join);
        let (summary, graph) =
            run_job_from_records(&cluster, &Arc::new(AboveHi), &job, records).unwrap();
        assert!(
            matches!(summary.sender_fold, SenderFold::Direct { hi: 10, .. }),
            "{join:?}: {}",
            summary.sender_fold
        );
        // Ring messages fold in the table; everything bound for 1000+ and
        // 2000+ takes the sorter.
        assert_eq!(summary.stats.msgs_folded_direct, 20, "{join:?}");
        assert_eq!(summary.stats.msgs_stray, 30, "{join:?}");
        let vertices = graph.collect_vertices::<AboveHi>().unwrap();
        assert_eq!(vertices.len(), 30, "{join:?}");
        assert_eq!(summary.final_gs.vertex_count, 30, "{join:?}");
        for v in &vertices {
            let want = match v.vid {
                0..=9 => 2,
                // Inserted after superstep 1, written to in superstep 2.
                1000..=1009 => v.vid - 1000 + 100,
                // Materialised by the message alone.
                _ => 7,
            };
            assert_eq!(v.value, want, "{join:?} vid {}", v.vid);
        }
    }
}

#[test]
fn deleting_a_nonexistent_vertex_is_a_noop() {
    struct DeleteGhost;
    impl VertexProgram for DeleteGhost {
        type VertexValue = u64;
        type EdgeValue = ();
        type Message = u64;
        type Aggregate = ();
        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            if ctx.superstep() == 1 {
                ctx.delete_vertex(777_777);
            }
            ctx.vote_to_halt();
            Ok(())
        }
        fn init_vertex(&self, vid: Vid, _e: Vec<(Vid, f64)>) -> VertexData<Self> {
            VertexData::new(vid, 0, vec![])
        }
    }
    let records: Vec<(Vid, Vec<(Vid, f64)>)> = (0..5).map(|v| (v, vec![])).collect();
    let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
    let job = PregelixJob::new("ghost");
    let (summary, graph) =
        run_job_from_records(&cluster, &Arc::new(DeleteGhost), &job, records).unwrap();
    assert_eq!(graph.collect_vertices::<DeleteGhost>().unwrap().len(), 5);
    assert_eq!(summary.final_gs.vertex_count, 5);
}
