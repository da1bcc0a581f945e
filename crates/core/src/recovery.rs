//! Confined recovery (§5.5): partition-scoped checkpoint replay.
//!
//! The global rollback in `runtime.rs` is sound but blunt: one dead worker
//! makes *every* partition reload its checkpoint and re-execute every
//! superstep since. Confined recovery exploits the sender-side message logs
//! (`pregelix_common::msglog`) to shrink the blast radius to the partitions
//! that actually lost state:
//!
//! 1. Eligibility: the failure must be a *clean* worker death — detected at
//!    a superstep barrier, before any task of the attempt ran — so every
//!    surviving partition is still exactly at the current superstep `S`
//!    with its `Msg_S` run intact. The caller (`LoadedGraph::run`)
//!    establishes this with a pre-flight aliveness check.
//! 2. Pick the newest *valid* checkpoint `C ≤ S` (same walk the global
//!    path uses) and pre-validate everything replay will consume: the
//!    pinned GS history for `(C, S]` — whose last entry must equal the live
//!    global state bit-for-bit — and a complete, CRC-intact log file from
//!    every source partition for every superstep in `[C, S)`.
//! 3. Re-plan only the dead workers' partitions onto survivors
//!    (`replan_sticky`), reload *only those partitions* from checkpoint
//!    `C`, and replay supersteps `C..S` on them with inbound messages and
//!    mutations fed from the logs (`replay_partition_superstep`). Survivors
//!    never reload, never recompute, never even schedule a task.
//!
//! Any hole — no checkpoint, logging disabled, a missing/torn log, a
//! diverged GS history — surfaces as the typed
//! [`PregelixError::ConfinedRecoveryUnavailable`] *before any partition
//! state is touched*, and the failure manager falls back to the global
//! path. Failures after state mutation began are also safe: the global
//! fallback rebuilds every partition from the checkpoint anyway.

use crate::api::VertexProgram;
use crate::checkpoint;
use crate::gs::GlobalState;
use crate::plan::{JoinStrategy, PlanConfig, PregelixJob};
use crate::superstep::{msg_tuple_combiner, replay_partition_superstep, PartitionState};
use parking_lot::Mutex;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::msglog::{self, MsgLog};
use pregelix_dataflow::cluster::{Cluster, Task};
use pregelix_dataflow::scheduler::{dead_partitions, replan_sticky};
use std::sync::Arc;

/// Attempt a confined recovery of the current failure. On success the dead
/// partitions' states have been reloaded and replayed to superstep
/// `gs.superstep` in place (inside their existing `Arc<Mutex<..>>` slots)
/// and the returned vector is the re-planned sticky assignment the caller
/// must adopt. `gs` itself never changes: survivors and the global state
/// were already at `S`.
///
/// Errors:
/// * [`PregelixError::ConfinedRecoveryUnavailable`] — a precondition failed
///   (see module docs); the caller falls back to the global rollback.
/// * Other recoverable errors (another worker died mid-replay, a flaky
///   manifest read) — the caller loops back through the failure manager.
pub fn confined_recover<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    partitions: &[Arc<Mutex<PartitionState>>],
    sticky: &[usize],
    gs: &GlobalState,
) -> Result<Vec<usize>> {
    let p_count = partitions.len();
    let alive = cluster.alive_workers();
    let dead = dead_partitions(sticky, &alive);
    if dead.is_empty() {
        return Err(PregelixError::confined_unavailable(
            "no partition lost its worker",
        ));
    }
    // The replay base: newest checkpoint that decodes and validates.
    let (base, manifest) = checkpoint::newest_valid_checkpoint(cluster, job)?.ok_or_else(
        || PregelixError::confined_unavailable("no valid checkpoint to replay from"),
    )?;
    if manifest.partitions as usize != p_count {
        return Err(PregelixError::confined_unavailable(format!(
            "checkpoint {base} covers {} partitions, job runs {p_count}",
            manifest.partitions
        )));
    }
    if !manifest.logs_enabled {
        return Err(PregelixError::confined_unavailable(format!(
            "checkpoint {base} was written without message logging",
        )));
    }
    if base > gs.superstep {
        return Err(PregelixError::confined_unavailable(format!(
            "checkpoint {base} is newer than the live superstep {}",
            gs.superstep
        )));
    }

    // Pre-validate every input BEFORE touching any partition state, so an
    // unavailability never leaves a half-replayed graph behind.
    //
    // GS history: the exact global state that fed each superstep in
    // (C, S], chaining from the manifest's GS at C. The final entry must
    // be bit-identical to the live GS — anything else means the history
    // diverged (e.g. written by a run this state never saw).
    let dfs = cluster.dfs();
    let mut gs_chain: Vec<GlobalState> = Vec::with_capacity((gs.superstep - base) as usize + 1);
    gs_chain.push(manifest.gs.clone());
    for s in base + 1..=gs.superstep {
        let entry = GlobalState::fetch_hist(dfs, &job.id, s).map_err(|e| {
            PregelixError::confined_unavailable(format!("gs history entry {s}: {e}"))
        })?;
        gs_chain.push(entry);
    }
    if gs_chain.last() != Some(gs) {
        return Err(PregelixError::confined_unavailable(format!(
            "gs history entry {} diverges from the live global state",
            gs.superstep
        )));
    }
    // Message logs: one intact file per (superstep in [C, S), source
    // partition). `read_log` verifies CRC, magic, and coordinates, and
    // types every hole as an unavailability.
    let counters = cluster.counters().clone();
    let mut logs: Vec<Vec<MsgLog>> = Vec::with_capacity((gs.superstep - base) as usize);
    for s in base..gs.superstep {
        let mut per_src = Vec::with_capacity(p_count);
        for src in 0..p_count {
            let log = msglog::read_log(dfs, &counters, &job.id, s, src)?;
            if log.partitions() != p_count {
                return Err(PregelixError::confined_unavailable(format!(
                    "log {} is bucketed over {} partitions, job runs {p_count}",
                    msglog::log_path(&job.id, s, src),
                    log.partitions()
                )));
            }
            per_src.push(log);
        }
        logs.push(per_src);
    }

    // Re-plan: surviving pins stay, orphans go to the least-loaded
    // survivors; then reload ONLY the orphaned partitions from checkpoint
    // C into their existing state slots.
    let new_sticky = replan_sticky(sticky, &alive)?;
    let reloaded =
        checkpoint::reload_partitions(cluster, job, base, &manifest, &new_sticky, &dead)?;
    for (p, st) in reloaded {
        *partitions[p].lock() = st;
    }

    // Replay the lost supersteps on the dead partitions only, one dataflow
    // job per superstep (the inter-superstep dependency is real: superstep
    // s+1's compute consumes the Msg run superstep s's replay installs).
    for (idx, s) in (base..gs.superstep).enumerate() {
        replay_superstep(
            cluster,
            program,
            job,
            partitions,
            &new_sticky,
            &dead,
            &gs_chain[idx],
            &logs[idx],
        )?;
        debug_assert_eq!(gs_chain[idx].superstep, s);
    }
    counters.add_confined_recoveries(1);
    Ok(new_sticky)
}

/// Run one replayed superstep over the dead partitions as a (partial)
/// dataflow job: one `replay[p]@s` task per dead partition, pinned to its
/// re-planned worker. Tasks are independent — every inbound flow comes out
/// of the logs, so there are no cross-partition connectors to schedule.
#[allow(clippy::too_many_arguments)]
fn replay_superstep<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    partitions: &[Arc<Mutex<PartitionState>>],
    sticky: &[usize],
    dead: &[usize],
    gs: &GlobalState,
    logs: &[MsgLog],
) -> Result<()> {
    // Resolve the join exactly as the live superstep did. The measured
    // probe-cost model is deliberately not replayed: it only biases the
    // Adaptive choice, and both join strategies produce identical state.
    let live_fraction = if gs.vertex_count == 0 {
        1.0
    } else {
        gs.live_vertices as f64 / gs.vertex_count as f64
    };
    let resolved = job.plan.join.resolve_with(live_fraction, None);
    let track_live =
        job.plan.join == JoinStrategy::Adaptive || resolved == JoinStrategy::LeftOuter;
    let plan = PlanConfig {
        join: resolved,
        ..job.plan
    };
    let superstep = gs.superstep;
    let mut tasks = Vec::with_capacity(dead.len());
    for &p in dead {
        let state = Arc::clone(&partitions[p]);
        let program_c = Arc::clone(program);
        let gs_c = gs.clone();
        let combiner_c = msg_tuple_combiner(program);
        let job_tag = job.id.tag().to_string();
        // Owned slices of the logged flows bound for partition p, in
        // ascending src order.
        let msg_tuples: Vec<Vec<Vec<u8>>> =
            logs.iter().map(|l| l.messages(p).to_vec()).collect();
        let mut_tuples: Vec<Vec<u8>> = logs
            .iter()
            .flat_map(|l| l.mutations(p).iter().cloned())
            .collect();
        tasks.push(Task::new(
            format!("replay[{p}]@{superstep}"),
            sticky[p],
            move |w| {
                replay_partition_superstep::<P>(
                    &w, state, program_c, gs_c, plan, track_live, p, &job_tag, msg_tuples,
                    mut_tuples, combiner_c,
                )
            },
        ));
    }
    cluster.execute_partial(tasks)?;
    Ok(())
}
