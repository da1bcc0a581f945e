//! Recovery (§5.5): "find the latest checkpoint and reload the states to a
//! newly selected set of failure-free worker machines" — one ladder.
//!
//! [`recover`] walks the valid checkpoints newest → oldest
//! ([`checkpoint::walk_valid`]) and, for each, picks the partitions whose
//! state is lost:
//!
//! * **the dead workers' partitions only**, when the death was *clean* —
//!   caught at a superstep barrier, before any task of the attempt ran, so
//!   every surviving partition is still exactly at the live superstep `S`
//!   with its `Msg_S` run intact — and everything replay will consume
//!   validates first: the pinned GS history for `(C, S]`, whose last entry
//!   must equal the live global state bit-for-bit, and a complete,
//!   CRC-intact sender-side message log (`pregelix_common::msglog`) from
//!   every source partition for every superstep in `[C, S)`;
//! * **every partition** otherwise. A clean death whose inputs have a hole
//!   counts one `confined_fallbacks`.
//!
//! The lost set is re-planned onto survivors (`replan_sticky`: surviving
//! pins stay) and reloaded from checkpoint `C`. Then either it replays
//! supersteps `C..S` with inbound messages and mutations fed from the logs
//! — survivors never reload, recompute or even schedule a task — or, every
//! partition having been lost, the global state rewinds to `C`. A
//! checkpoint that fails to reload or replay with a non-recoverable error
//! is skipped for the next older one.

use crate::api::VertexProgram;
use crate::checkpoint::{self, Manifest};
use crate::gs::GlobalState;
use crate::plan::PregelixJob;
use crate::runtime::LoadedGraph;
use crate::superstep::{Source, SuperstepPlan};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::msglog::{self, MsgLog};
use pregelix_common::Superstep;
use pregelix_dataflow::cluster::Cluster;
use pregelix_dataflow::scheduler::{dead_partitions, replan_sticky};
use std::sync::Arc;

/// Recover the current failure from the newest usable checkpoint. On
/// success the lost partitions have been reloaded in place (inside their
/// existing `Arc<Mutex<..>>` slots) and either replayed to `gs.superstep`
/// or, when every partition was lost, `gs` rewound to the checkpoint; the
/// graph carries the re-planned sticky assignment.
///
/// `Ok(false)`: no checkpoint was usable, and the caller surfaces the
/// original failure. A recoverable error (a flaky manifest read, another
/// worker lost mid-reload) means the caller retries through the failure
/// manager. Replay runs the job's own superstep `plan`, fed from the
/// message logs.
pub(crate) fn recover<P: VertexProgram>(
    cluster: &Cluster,
    plan: &Arc<SuperstepPlan<P>>,
    job: &PregelixJob,
    graph: &mut LoadedGraph,
    gs: &mut GlobalState,
    clean_death: bool,
) -> Result<bool> {
    let alive = cluster.alive_workers();
    let dead = dead_partitions(&graph.sticky, &alive);
    let mut fell_back = false;
    let recovered = checkpoint::walk_valid(cluster, job, |base, manifest| {
        let p_count = graph.partitions.len();
        let replay = if clean_death && graph.intact {
            let inputs = replay_inputs(cluster, job, base, &manifest, p_count, gs);
            if inputs.is_err() && !fell_back {
                fell_back = true;
                cluster.counters().add_confined_fallbacks(1);
            }
            inputs.ok()
        } else {
            None
        };
        let lost: Vec<usize> = match replay {
            Some(_) => dead.clone(),
            None => {
                // Survivors' files are about to be overwritten: until every
                // partition is back, none of them is at `gs` any more.
                graph.intact = false;
                (0..p_count).collect()
            }
        };
        let sticky = replan_sticky(&graph.sticky, &alive)?;
        // A reloaded `Msg` or `Vid` run can land on the path a lost one
        // still holds (same worker, same name): let go of the lost runs
        // first, or dropping the replaced state would delete the new file.
        for &p in &lost {
            let mut st = graph.partitions[p].lock();
            for run in [st.vid_index.take(), st.msg_run.take()].into_iter().flatten() {
                let _ = run.delete();
            }
        }
        let reloaded =
            checkpoint::reload_partitions(cluster, plan, job, base, &manifest, &sticky, &lost)?;
        for (p, st) in reloaded {
            *graph.partitions[p].lock() = st;
        }
        match replay {
            Some(inputs) => {
                // One run per lost superstep: superstep s+1's compute
                // consumes the Msg run superstep s's replay installs.
                for (gs, logs) in &inputs {
                    let source = Source::Logged { lost: &dead, logs };
                    plan.run(cluster, &graph.partitions, &sticky, gs, source)?;
                }
                cluster.counters().add_confined_recoveries(1);
            }
            None => {
                *gs = manifest.gs;
                graph.vertex_count = gs.vertex_count;
                graph.intact = true;
            }
        }
        graph.sticky = sticky;
        Ok(())
    })?;
    Ok(recovered.is_some())
}

/// What replaying supersteps `[C, S)` on the lost partitions consumes: per
/// superstep, the global state that fed it and one log per source
/// partition. Gathered and validated before any partition state is
/// touched, so a hole never leaves a half-replayed graph behind; every
/// hole surfaces as [`PregelixError::ConfinedRecoveryUnavailable`].
fn replay_inputs(
    cluster: &Cluster,
    job: &PregelixJob,
    base: Superstep,
    manifest: &Manifest,
    p_count: usize,
    gs: &GlobalState,
) -> Result<Vec<(GlobalState, Vec<MsgLog>)>> {
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
    // GS history: the exact global state that fed each superstep in
    // (C, S], chaining from the manifest's GS at C. The final entry must
    // be bit-identical to the live GS — anything else means the history
    // diverged (e.g. written by a run this state never saw).
    let dfs = cluster.dfs();
    let mut chain = vec![manifest.gs.clone()];
    for s in base + 1..=gs.superstep {
        let entry = GlobalState::fetch_hist(dfs, &job.id, s).map_err(|e| {
            PregelixError::confined_unavailable(format!("gs history entry {s}: {e}"))
        })?;
        chain.push(entry);
    }
    if chain.pop().as_ref() != Some(gs) {
        return Err(PregelixError::confined_unavailable(format!(
            "gs history entry {} diverges from the live global state",
            gs.superstep
        )));
    }
    // Message logs: one intact file per (superstep in [C, S), source
    // partition). `read_log` verifies CRC, magic, and coordinates, and
    // types every hole as an unavailability.
    let counters = cluster.counters();
    let read = |s: Superstep, src: usize| {
        let log = msglog::read_log(dfs, counters, &job.id, s, src)?;
        if log.partitions() != p_count {
            return Err(PregelixError::confined_unavailable(format!(
                "log {} is bucketed over {} partitions, job runs {p_count}",
                msglog::log_path(&job.id, s, src),
                log.partitions()
            )));
        }
        Ok(log)
    };
    let mut inputs = Vec::with_capacity(chain.len());
    for (s, fed) in (base..).zip(chain) {
        let logs = (0..p_count).map(|src| read(s, src)).collect::<Result<_>>()?;
        inputs.push((fed, logs));
    }
    Ok(inputs)
}
